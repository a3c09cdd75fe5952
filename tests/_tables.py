"""Test-only builders and references: the checks' corpus through order 5,
transformation closures, S^1, relabelled copies, the per-element
variant-index check, and the recursive term evaluator that the compiled
identity kernel is compared with."""

from functools import lru_cache

from epivariants import variants
from epivariants.core import CapExceeded, CayleyTable, UnarySemigroup, identity_of
from epivariants.epigroup import epigroup_data, pseudoinverse_map
from epivariants.search import semigroup_tables


@lru_cache(maxsize=None)
def corpus_through_order_5():
    """``checks._corpus`` built over orders 1 to 5 instead of 1 to 4, in the
    same order and of the same parts; a test patches it in for the
    checks' corpus, and it is built once per test run."""
    return tuple(
        (s, tuple(variants.unary_variant(s, c) for c in range(s.order)))
        for order in range(1, 6)
        for s in map(pseudoinverse_map, semigroup_tables(order))
    )


def closure(gens, cap=10000):
    """The semigroup generated by self-maps of {0, ..., d-1}, given as image
    lists and composed left to right, (f*g)(x) = g(f(x)).  Elements come
    breadth-first over products in generator order."""
    gens = [tuple(g) for g in gens]
    elements = list(dict.fromkeys(gens))
    index = {f: i for i, f in enumerate(elements)}
    for f in elements:  # appended to while it is read: a breadth-first queue
        for g in gens:
            h = tuple(g[v] for v in f)
            if h not in index:
                if len(elements) >= cap:
                    raise CapExceeded(f"closure exceeds cap {cap}")
                index[h] = len(elements)
                elements.append(h)
    return CayleyTable.from_rows([[index[tuple(g[v] for v in f)] for g in elements] for f in elements])


def adjoin_identity(t):
    """S^1: t itself if it is a monoid, else t with a new identity n."""
    if identity_of(t) is not None:
        return t
    rows = [list(row) + [a] for a, row in enumerate(t.table)]
    return CayleyTable(rows + [list(range(t.order + 1))])


def relabel(s, perm):
    """Apply the bijection a -> perm[a] to a table or unary semigroup."""
    table = s.base.table if isinstance(s, UnarySemigroup) else s.table
    n = len(table)
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    rows = [[perm[table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    if not isinstance(s, UnarySemigroup):
        return CayleyTable(rows)
    return UnarySemigroup(CayleyTable(rows), [perm[s.unary[inv[x]]] for x in range(n)])


def check_variant_index(s, c, a):
    """(index of ca in the base, index of a in the variant, whether the
    latter is the former or one more), the variant's index read off the
    variant table itself, independently of the star map."""
    base_index = epigroup_data(s.base).index[s.base.table[c][a]]
    variant_index = epigroup_data(variants.variant(s.base, c)).index[a]
    return base_index, variant_index, variant_index in (base_index, base_index + 1)


class UnboundVariable(Exception):
    pass


def eval_term(term, s, env):
    """The value of a term tree at the assignment env: the left operand
    before the right, the operand before its prime."""
    kind = term[0]
    if kind == "var":
        try:
            return env[term[1]]
        except KeyError:
            raise UnboundVariable(term[1]) from None
    if kind == "prime":
        return s.unary[eval_term(term[1], s, env)]
    return s.base.table[eval_term(term[1], s, env)][eval_term(term[2], s, env)]
