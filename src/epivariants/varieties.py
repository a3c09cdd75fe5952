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


class IdentityParseError(ValueError):
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
    expands to.  The term walkers (``term_text``, ``_render``, ...) and
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


_LOCAL_DEPTH = 100  # Python's parser refuses about 200 nested brackets


def _render(term, slots, bound, depth=0):
    # the term as a nested index expression over T (table), U (unary map)
    # and the variable slots v0, v1, ...; no text of the term enters the
    # source.  The subterms at each multiple of _LOCAL_DEPTH levels are bound
    # to locals w0, w1, ... first, their assignments in bound; a right operand
    # that binds locals has its row T[left] bound before them, so bound and
    # then the expression read cells in evaluation order: the left operand
    # before the right, the operand before its prime.
    kind = term[0]
    if kind == "var":
        text = f"v{slots[term[1]]}"
    elif kind == "prime":
        text = f"U[{_render(term[1], slots, bound, depth + 1)}]"
    else:
        row = f"T[{_render(term[1], slots, bound, depth + 1)}]"
        mark = len(bound)
        right = _render(term[2], slots, bound, depth + 1)
        if len(bound) > mark:
            row = _bind(row, bound, mark)
        text = f"{row}[{right}]"
    if depth and not depth % _LOCAL_DEPTH:
        return _bind(text, bound, len(bound))
    return text


def _bind(text, bound, at):
    name = f"w{len(bound)}"
    bound.insert(at, f"{name} = {text}")
    return name


@lru_cache(maxsize=256)
def _compiled(identities):
    """first_failure(s) for a tuple of identities, compiled once per
    distinct tuple (cached by value): ``(identity, assignment)`` for the
    first identity that s fails and its lexicographically first failing
    assignment, a dict in ``identity.variables`` order, or None.

    The basis is one Python function: for each identity, one nested loop
    per variable (one loop over their product past Python's 20 nested
    blocks) around ``if lhs != rhs``, whose index expressions (``T[l][r]``,
    ``U[c]``) are built from the term trees alone.  The loops run in
    ``itertools.product`` order and every cell is read in evaluation order,
    the left operand before the right and the operand before its prime,
    across the locals that cut a term every 100 levels too: the result, and
    any exception from a bad unary map, is a brute force's that evaluates
    both sides recursively at each assignment, for every term that
    ``parse_term`` or the E_n and V_n constructors build."""
    names = tuple(identity.variables for identity in identities)
    lines = ["def kernel(T, U, R):"]
    for i, (identity, variables) in enumerate(zip(identities, names)):
        slots = {name: j for j, name in enumerate(variables)}
        k = len(slots)
        bound = []
        lhs = _render(identity.lhs, slots, bound)
        mark = len(bound)
        rhs = _render(identity.rhs, slots, bound)
        if len(bound) > mark:
            lhs = _bind(lhs, bound, mark)
        hit = "".join(f"v{j}, " for j in range(k))
        loops = [f"for v{j} in R:" for j in range(k)]
        if k > 20:
            loops = [f"for {hit}in P(R, repeat={k}):"]
        lines += [" " * (4 + 4 * j) + loop for j, loop in enumerate(loops)]
        pad = " " * (4 + 4 * len(loops))
        lines += [pad + line for line in bound]
        lines += [f"{pad}if {lhs} != {rhs}:", f"{pad}    return {i}, ({hit})"]
    lines.append("    return None")
    namespace = {"P": iproduct}
    exec(compile("\n".join(lines), "<identity kernel>", "exec"), namespace)
    kernel = namespace["kernel"]

    def first_failure(s):
        T = s.base.table
        hit = kernel(T, s.unary, range(len(T)))
        if hit is None:
            return None
        i, values = hit
        return identities[i], dict(zip(names[i], values))

    return first_failure


def find_counterexample(s, identity):
    """The lexicographically first failing assignment, as a dict in
    ``identity.variables`` order, or None if the identity holds: the basis
    of one identity through ``_compiled``."""
    hit = _compiled((identity,))(s)
    return None if hit is None else hit[1]


@dataclass(frozen=True)
class VarietyReport:
    name: str
    holds: bool
    failing_identity: Identity | None = None
    failing_assignment: dict | None = None


def _prepared(name, identities):
    """``(first_failure, holds)``: the ``_compiled`` basis, and the one
    report of a model that satisfies it, shared by every such model."""
    return _compiled(identities), VarietyReport(name, True)


def _report(s, prepared):
    first_failure, holds = prepared
    hit = first_failure(s)
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


# how many levels deeper than n the deepest term of each family's basis
# nests, written out as parse_term reads it: x*...*x*x' with n + 1 factors
# x (E_n) and x''*x*...*x*y with n - 1 (V_n)
_DEPTH_PAST_N = {"E": 1, "V": 2}


def _check_n(family, n, name=None):
    """Refuse, before any term is built, an n that is not an int (a bool
    included), an n below 1, and one whose basis, written out, nests past
    ``MAX_TERM_DEPTH`` levels: past E499 and V498.  ``name`` is the variety
    as the caller spelled it, E<n> or V<n> if None."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    if n + _DEPTH_PAST_N[family] > MAX_TERM_DEPTH:
        raise ValueError(f"the basis of {name or family + str(n)} nests terms deeper than "
                         f"the bound of {MAX_TERM_DEPTH} levels")


# each n is checked once, as its basis is prepared, and not on every call;
# typed, so that True or 1.0 never hits the entry of 1 and is checked too
@lru_cache(maxsize=16, typed=True)
def _e_basis(n):
    _check_n("E", n)
    return _prepared(f"E_{n}", (EQ_PINV_FIXED, EQ_COMMUTE, e_identity(n)))


@lru_cache(maxsize=16, typed=True)
def _v_basis(n):
    _check_n("V", n)
    return _prepared(f"V_{n}", (EQ_PINV_FIXED, EQ_COMMUTE, v_identity_1(n), v_identity_2(n)))


def in_E(s, n):
    """Membership in E_n by x'xx' = x', xx' = x'x and x^{n+1} x' = x^n alone,
    n <= 499; ``checks.check_oracles`` compares the other axiomatization and
    V_n.  The basis is prepared once per n; every member shares one report."""
    return _report(s, _e_basis(n))


def in_V(s, n):
    """Membership in V_n by its four identities alone, n <= 498;
    ``checks.check_oracles`` checks E_n <= V_n <= E_{n+1}.  The basis is
    prepared once per n; every member shares one report."""
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


class _UnknownVariety(ValueError):
    pass


def variety_test(name):
    """The membership test that a variety name denotes: ``W``, or ``E<n>``
    or ``V<n>`` with n >= 1 in ASCII digits.  Raises ValueError on any
    other name, and on an n that ``_check_n`` refuses, before any term is
    built or any test runs."""
    if name == "W":
        return in_W
    family, digits = name[:1], name[1:].lstrip("0")
    # ASCII digits only, as in an exponent: isdecimal() takes any script's
    if family in _DEPTH_PAST_N and digits.isascii() and digits.isdecimal():
        # a long digit string is never read by int(), which has a limit: any
        # n with more digits than the bound is at least this power of ten
        width = len(str(MAX_TERM_DEPTH))
        n = int(digits) if len(digits) <= width else 10**width
        _check_n(family, n, name)
        return partial(in_E if family == "E" else in_V, n=n)
    raise _UnknownVariety(f"unknown variety {name!r}")

