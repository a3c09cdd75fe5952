"""Terms and identities in the signature (., ') and membership tests for the
unary-semigroup varieties used throughout this library.

Identity syntax: juxtaposition or '*' for the product, postfix ' for the
unary operation, x^k for repeated products (expanded at parse time, k >= 1),
single-letter variables, parentheses as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as iproduct
from typing import NamedTuple


class UnboundVariable(Exception):
    pass


class IdentityParseError(Exception):
    pass


# Terms are nested tuples: ("var", name), ("dot", l, r), ("prime", child).

def tvar(name):
    return ("var", name)


def tdot(l, r):
    return ("dot", l, r)


def tprime(c):
    return ("prime", c)


def tpow(term, k):
    if k < 1:
        raise ValueError("powers must be positive")
    out = term
    for _ in range(k - 1):
        out = tdot(out, term)
    return out


def tproduct(terms):
    """Left-associated product of a non-empty list of terms."""
    out = terms[0]
    for term in terms[1:]:
        out = tdot(out, term)
    return out


def term_variables(term):
    kind = term[0]
    if kind == "var":
        return {term[1]}
    if kind == "prime":
        return term_variables(term[1])
    return term_variables(term[1]) | term_variables(term[2])


def term_text(term):
    kind = term[0]
    if kind == "var":
        return term[1]
    if kind == "prime":
        child = term_text(term[1])
        if term[1][0] == "dot":
            child = f"({child})"
        return child + "'"
    l, r = term_text(term[1]), term_text(term[2])
    if term[2][0] == "dot":
        r = f"({r})"
    return f"{l}*{r}"


@dataclass(frozen=True)
class Identity:
    lhs: tuple
    rhs: tuple

    def __post_init__(self):
        # the term trees are hashed once, not on each lookup in _compiled's
        # cache; equality still compares them
        object.__setattr__(self, "_hash", hash((self.lhs, self.rhs)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt when unpickled, so the hash is the receiving process's
        return Identity, (self.lhs, self.rhs)

    @property
    def text(self):
        return f"{term_text(self.lhs)} = {term_text(self.rhs)}"

    @property
    def variables(self):
        return sorted(term_variables(self.lhs) | term_variables(self.rhs))

    def __str__(self):
        return self.text


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
        elif ch.isalpha():
            tokens.append(("var", ch))
            i += 1
        elif ch in "()'":
            tokens.append((ch, ch))
            i += 1
        elif ch == "^":
            # ASCII digits only, as in a .sgp file: isdigit() also takes
            # superscripts, which int() refuses, and other scripts' digits
            j = i + 1
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                raise IdentityParseError(f"'^' needs a numeric exponent in {text!r}")
            try:
                k = int(text[i + 1:j])
            except ValueError:  # past int()'s limit on digits
                raise IdentityParseError(
                    f"exponent of {j - i - 1} digits is too long in {text!r}"
                ) from None
            if k < 1:
                raise IdentityParseError(f"exponent {k} is not positive in {text!r}")
            tokens.append(("pow", k))
            i = j
        else:
            raise IdentityParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


MAX_TERM_DEPTH = 500
MAX_TERM_SIZE = 10_000


def parse_term(text):
    """The term that text denotes, read in one pass with a stack of the open
    parentheses, so no Python recursion.  Each level is a product, a prime
    or a pair of parentheses, and x^k counts as the k - 1 products it
    expands to.  The term walkers (``term_text``, ``eval_term``, ...) and
    tuple hashing recurse once per level, so a term more than
    MAX_TERM_DEPTH levels deep raises IdentityParseError before it is
    built.  They also visit a subterm that x^k shares once per copy, so a
    term whose expanded size, its variable occurrences and primes counted
    together (x^k has k times the size of x), passes MAX_TERM_SIZE is
    refused the same way: nested powers such as ((x'')^2)^2 stay shallow
    while their size doubles per level."""

    def bounded(depth, size):
        if depth > MAX_TERM_DEPTH:
            raise IdentityParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels in {text!r}")
        if size > MAX_TERM_SIZE:
            raise IdentityParseError(
                f"term expands to more than {MAX_TERM_SIZE} variable occurrences and primes "
                f"in {text!r}"
            )
        return depth, size

    def product(factors):
        # left-associated, as tproduct builds it
        (term, depth, size), *rest = factors
        for factor, d, k in rest:
            term = tdot(term, factor)
            depth, size = bounded(max(depth, d) + 1, size + k)
        return term, depth, size

    groups = [[]]  # the (term, depth, size) factors of each open group, outermost first
    for kind, value in _tokenize(text):
        factors = groups[-1]
        if kind == "var":
            factors.append((tvar(value), 0, 1))
        elif kind == "(":
            groups.append([])
        elif not factors:
            raise IdentityParseError(f"unexpected token {value!r} in {text!r}")
        elif kind == ")":
            if len(groups) == 1:
                raise IdentityParseError(f"trailing tokens in {text!r}")
            groups.pop()
            term, depth, size = product(factors)
            groups[-1].append((term, *bounded(depth + 1, size)))
        elif kind == "'":
            term, depth, size = factors[-1]
            factors[-1] = (tprime(term), *bounded(depth + 1, size + 1))
        else:
            term, depth, size = factors[-1]
            # bounded before x^k is expanded
            bound = bounded(depth + value - 1, size * value)
            factors[-1] = (tpow(term, value), *bound)
    if not groups[-1]:
        raise IdentityParseError(f"unexpected end of term in {text!r}")
    if len(groups) > 1:
        raise IdentityParseError(f"missing ')' in {text!r}")
    return product(groups[0])[0]


def parse_identity(text):
    if text.count("=") != 1:
        raise IdentityParseError(f"an identity needs exactly one '=': {text!r}")
    lhs, rhs = text.split("=")
    return Identity(parse_term(lhs), parse_term(rhs))


def eval_term(term, s, env):
    kind = term[0]
    if kind == "var":
        try:
            return env[term[1]]
        except KeyError:
            raise UnboundVariable(term[1]) from None
    if kind == "prime":
        return s.unary[eval_term(term[1], s, env)]
    return s.base.table[eval_term(term[1], s, env)][eval_term(term[2], s, env)]


def _render(term, slots):
    # the term as a nested index expression over T (table), U (unary map) and
    # the variable slots v0, v1, ...; no text of the term enters the source
    kind = term[0]
    if kind == "var":
        return f"v{slots[term[1]]}"
    if kind == "prime":
        return f"U[{_render(term[1], slots)}]"
    return f"T[{_render(term[1], slots)}][{_render(term[2], slots)}]"


class _Basis(NamedTuple):
    """A tuple of identities compiled for ``_first_failure``."""

    names: tuple
    kernel: object
    identities: tuple


@lru_cache(maxsize=256)
def _compiled(identities):
    """The ``_Basis`` of a tuple of identities, compiled once per distinct
    tuple (cached by value): ``names[i]`` is ``identities[i].variables``, and
    kernel(T, U, R) runs, for each identity in turn, one nested loop over R
    per variable, and returns ``(i, values)`` for the first failing identity
    i and its first failing assignment, or None.  The kernel is None when
    some term nests too deeply for the compiler (about 200 levels).
    ``in_E``, ``in_V`` and ``in_W`` look their basis up here once and keep
    it; ``find_counterexample`` looks its basis of one identity up on every
    call."""
    names = tuple(identity.variables for identity in identities)
    lines = ["def kernel(T, U, R):"]
    try:
        for i, (identity, variables) in enumerate(zip(identities, names)):
            slots = {name: j for j, name in enumerate(variables)}
            k = len(slots)
            lhs, rhs = _render(identity.lhs, slots), _render(identity.rhs, slots)
            lines += [" " * (4 + 4 * j) + f"for v{j} in R:" for j in range(k)]
            pad = " " * (4 + 4 * k)
            hit = "".join(f"v{j}, " for j in range(k))
            lines += [f"{pad}if {lhs} != {rhs}:", f"{pad}    return {i}, ({hit})"]
        lines.append("    return None")
        namespace = {}
        exec(compile("\n".join(lines), "<identity kernel>", "exec"), namespace)
    except (SyntaxError, RecursionError, MemoryError):
        return _Basis(names, None, identities)
    return _Basis(names, namespace["kernel"], identities)


def _first_failure(s, basis):
    """``(identity, assignment)`` for the first identity of a ``_compiled``
    basis that s fails, with its lexicographically first failing assignment
    as a dict in ``identity.variables`` order, or None if s satisfies them
    all.

    The kernel is one Python function: for each identity in turn, one
    nested loop per variable, in ``identity.variables`` order, around
    ``if lhs != rhs``.  Terms become nested index expressions (``T[l][r]``
    for a product, ``U[c]`` for the unary image) over slots v0, v1, ...;
    the source is built from the term trees alone, so no text of an
    identity reaches it.  The loops run in ``itertools.product`` order, and
    Python evaluates lhs before rhs and left before right, as ``eval_term``
    does: the result, and any exception from a bad unary map, is the one
    the brute force over ``eval_term`` gives, identity by identity.  A basis
    with a term nested too deeply to compile takes that brute force
    instead."""
    names, kernel, identities = basis
    T = s.base.table
    if kernel is not None:
        hit = kernel(T, s.unary, range(len(T)))
        if hit is None:
            return None
        i, values = hit
        return identities[i], dict(zip(names[i], values))
    for identity, variables in zip(identities, names):
        for values in iproduct(range(len(T)), repeat=len(variables)):
            env = dict(zip(variables, values))
            if eval_term(identity.lhs, s, env) != eval_term(identity.rhs, s, env):
                return identity, env
    return None


def find_counterexample(s, identity):
    """The lexicographically first failing assignment, as a dict in
    ``identity.variables`` order, or None if the identity holds: the basis
    of one identity through ``_first_failure``, with its kernel and its
    fallback for deep terms."""
    hit = _first_failure(s, _compiled((identity,)))
    return None if hit is None else hit[1]


@dataclass(frozen=True)
class VarietyReport:
    name: str
    holds: bool
    failing_identity: Identity | None = None
    failing_assignment: dict | None = None


def _prepared(name, identities):
    """``(basis, holds)``: the ``_compiled`` basis, and the one report of a
    model that satisfies it, shared by every such model."""
    return _compiled(identities), VarietyReport(name, True)


def _report(s, prepared):
    basis, holds = prepared
    hit = _first_failure(s, basis)
    if hit is None:
        return holds
    return VarietyReport(holds.name, False, *hit)


EQ_PINV_FIXED = parse_identity("x'*x*x' = x'")
EQ_COMMUTE = parse_identity("x*x' = x'*x")


@lru_cache(maxsize=16)
def e_identity(n):
    """x^{n+1} x' = x^n."""
    x = tvar("x")
    return Identity(tdot(tpow(x, n + 1), tprime(x)), tpow(x, n))


@lru_cache(maxsize=16)
def e_identity_alt(n):
    """x^{n-1} x'' = x^n (the empty power is dropped for n = 1)."""
    x = tvar("x")
    lhs = tprime(tprime(x)) if n == 1 else tdot(tpow(x, n - 1), tprime(tprime(x)))
    return Identity(lhs, tpow(x, n))


@lru_cache(maxsize=16)
def v_identity_1(n):
    """x y^{n-1} y'' = x y^n."""
    x, y = tvar("x"), tvar("y")
    lhs = tproduct([x] + [y] * (n - 1) + [tprime(tprime(y))])
    return Identity(lhs, tdot(x, tpow(y, n)))


@lru_cache(maxsize=16)
def v_identity_2(n):
    """x'' x^{n-1} y = x^n y."""
    x, y = tvar("x"), tvar("y")
    lhs = tproduct([tprime(tprime(x))] + [x] * (n - 1) + [y])
    return Identity(lhs, tdot(tpow(x, n), y))


EQ_PRODUCT_STABLE = parse_identity("(x*y)'' = x*y")


@lru_cache(maxsize=16)
def _e_basis(n):
    return _prepared(f"E_{n}", (EQ_PINV_FIXED, EQ_COMMUTE, e_identity(n)))


@lru_cache(maxsize=16)
def _v_basis(n):
    return _prepared(f"V_{n}", (EQ_PINV_FIXED, EQ_COMMUTE, v_identity_1(n), v_identity_2(n)))


def in_E(s, n):
    """Membership in E_n by x'xx' = x', xx' = x'x and x^{n+1} x' = x^n alone;
    ``checks.check_oracles`` compares the other axiomatization and V_n.
    The basis is prepared once per n; every member shares one report."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _report(s, _e_basis(n))


def in_V(s, n):
    """Membership in V_n by its four identities alone;
    ``checks.check_oracles`` checks E_n <= V_n <= E_{n+1}.  The basis is
    prepared once per n; every member shares one report."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _report(s, _v_basis(n))


EQ_SQUARE_PRIME = parse_identity("(x^2)' = x'^2")
EQ_DOUBLE_PRIME = parse_identity("x*x'*x = x''")


@lru_cache(maxsize=None)
def _w_basis():
    return _prepared(
        "W", (EQ_PINV_FIXED, EQ_COMMUTE, EQ_DOUBLE_PRIME, EQ_SQUARE_PRIME, EQ_PRODUCT_STABLE)
    )


def in_W(s):
    """Membership in W by its five-identity basis alone, on the canonical
    pseudoinverse map; ``checks.check_oracles`` compares the other criteria.
    The basis is prepared once; every member shares one report."""
    if not s.canonical:
        raise ValueError("in_W requires the canonical pseudoinverse map")
    return _report(s, _w_basis())


def variety_test(name):
    """The membership test that a variety name denotes: ``W``, or ``E<n>``
    or ``V<n>`` with n >= 1 in decimal digits.  Raises ValueError on any
    other name, before any test runs."""
    if name == "W":
        return in_W
    if name[:1] in ("E", "V") and name[1:].isdecimal() and int(name[1:]) >= 1:
        return partial(in_E if name[0] == "E" else in_V, n=int(name[1:]))
    raise ValueError(f"unknown variety {name!r}")


def in_W_structural(t):
    """W's products criterion alone: every xy has index 1 (lies in a
    subgroup); ``checks.check_oracles`` compares the other criteria."""
    from .epigroup import epigroup_data

    index = epigroup_data(t).index
    return all(index[v] == 1 for row in t.table for v in row)
