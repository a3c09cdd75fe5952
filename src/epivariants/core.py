"""Finite semigroups as Cayley tables: validation, powers, closure generation,
isomorphism testing and canonical forms.

Elements are dense integer indices 0..n-1.  Entry (row a, column b) of the
table holds the product a*b.  Associativity is a checked invariant, never
assumed at construction time: build with ``CayleyTable.from_rows`` or call
``validate`` explicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations


class SemigroupError(Exception):
    pass


class EntryOutOfRange(SemigroupError):
    def __init__(self, position, value):
        self.position = position
        self.value = value
        super().__init__(f"entry {value!r} at {position} is out of range")


class NotAssociative(SemigroupError):
    def __init__(self, witness):
        self.witness = witness
        a, b, c = witness
        super().__init__(f"({a}*{b})*{c} != {a}*({b}*{c})")


class CapExceeded(SemigroupError):
    pass


@dataclass(frozen=True)
class CayleyTable:
    """A finite magma given by its multiplication table."""

    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))

    @property
    def order(self):
        return len(self.table)

    @classmethod
    def from_rows(cls, rows):
        t = cls(rows)
        validate(t)
        return t


@dataclass(frozen=True)
class UnarySemigroup:
    """A Cayley table paired with a unary map x -> x'.

    ``canonical`` is True when the unary map is known to be the pseudoinverse
    map of the base table (see :mod:`epivariants.epigroup`).
    """

    base: CayleyTable
    unary: tuple
    canonical: bool = False

    def __post_init__(self):
        object.__setattr__(self, "unary", tuple(self.unary))

    @property
    def order(self):
        return self.base.order


def validate(t):
    """Check table shape, entry ranges and associativity.

    Raises EntryOutOfRange or NotAssociative (carrying the offending triple);
    returns the table unchanged when it is a semigroup.

    Entries are ints (bools and other int subclasses included) in 0..n-1.
    A row is range-checked cell by cell only when the set test on its types
    and values fails, so that the error names the first bad entry.

    Associativity is compared on strings that hold element x as ``chr(x)``:
    ``rows[x]`` is row x and ``cells`` is the whole table in row-major
    order.  For a left factor a, ``cells.translate(rows[a])`` is a(bc) and
    the rows of the elements ab, joined in b order, are (ab)c, both at index
    b*n + c.  The first index where they differ gives the lexicographically
    first failing triple (a, b, c).

    Both comparisons read row a only through its contents, so each distinct
    row object is checked, encoded and compared once, at its first index;
    the first failure is still found at the smallest a.  A variant's table
    reuses its base's rows, so it has at most |Sc| distinct rows.  Rows are
    keyed by object identity, not by value: the table keeps every row alive
    and a tuple never changes, whereas ``(0, 1.0)`` equals and hashes like
    ``(0, 1)`` and would skip its own entry check.
    """
    n = t.order
    tab = t.table
    values = set(range(n))
    strings = {}  # id of each distinct row object -> the row as a chr string
    firsts = []   # index of each distinct row object's first occurrence
    rows = []
    for a, row in enumerate(tab):
        string = strings.get(id(row))
        if string is None:
            if len(row) != n:
                raise SemigroupError(f"row {a} has length {len(row)}, expected {n}")
            if not (set(map(type, row)) <= {int} and values.issuperset(row)):
                for b, v in enumerate(row):
                    if not isinstance(v, int) or not 0 <= v < n:
                        raise EntryOutOfRange((a, b), v)
            string = strings[id(row)] = "".join(map(chr, row))
            firsts.append(a)
        rows.append(string)
    cells = "".join(rows)
    row_of = rows.__getitem__
    for a in firsts:
        left = "".join(map(row_of, tab[a]))
        right = cells.translate(rows[a])
        if left != right:
            i = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
            raise NotAssociative((a, *divmod(i, n)))
    return t


def validate_unary(s):
    validate(s.base)
    n = s.order
    if len(s.unary) != n:
        raise SemigroupError(f"unary map has length {len(s.unary)}, expected {n}")
    for a, v in enumerate(s.unary):
        if not isinstance(v, int) or not 0 <= v < n:
            raise EntryOutOfRange(("unary", a), v)
    return s


def product(t, a, b):
    return t.table[a][b]


def power(t, a, k):
    """a^k by square-and-multiply; k must be >= 1 (no identity is assumed)."""
    if k < 1:
        raise ValueError("exponent must be a positive integer")
    tab = t.table
    result = None
    base = a
    while k:
        if k & 1:
            result = base if result is None else tab[result][base]
        k >>= 1
        if k:
            base = tab[base][base]
    return result


def identity_of(t):
    """The two-sided identity element, or None."""
    n = t.order
    tab = t.table
    for e in range(n):
        if all(tab[e][x] == x == tab[x][e] for x in range(n)):
            return e
    return None


def adjoin_identity(t, force=False):
    """S^1: return t unchanged if it is already a monoid, otherwise adjoin a
    new identity element with index n.  ``force`` adjoins unconditionally."""
    if not force and identity_of(t) is not None:
        return t
    n = t.order
    rows = [list(row) + [a] for a, row in enumerate(t.table)]
    rows.append(list(range(n + 1)))
    return CayleyTable(rows)


@dataclass(frozen=True)
class Transformation:
    """A self-map of {0, ..., degree-1}."""

    degree: int
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.degree:
            raise ValueError("image list does not match degree")
        for v in self.images:
            if not 0 <= v < self.degree:
                raise ValueError(f"image {v} out of range for degree {self.degree}")

    def __call__(self, x):
        return self.images[x]


def compose(f, g):
    """(f*g)(x) = g(f(x)): left-to-right action."""
    if f.degree != g.degree:
        raise ValueError("degrees differ")
    return Transformation(f.degree, tuple(g.images[v] for v in f.images))


def generate_from_transformations(gens, cap=10000):
    """Close a generating set of transformations under composition.

    Elements are ordered breadth-first over products in generator order.
    Returns (CayleyTable, labels) where labels[i] is the transformation
    realizing element i.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError("generators must share one degree")
    elements = []
    index = {}
    for g in gens:
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
    frontier = list(elements)
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = compose(f, g)
                if h not in index:
                    if len(elements) >= cap:
                        raise CapExceeded(f"closure exceeds cap {cap}")
                    index[h] = len(elements)
                    elements.append(h)
                    new.append(h)
        frontier = new
    rows = [[index[compose(f, g)] for g in elements] for f in elements]
    return CayleyTable.from_rows(rows), tuple(elements)


def _unpack(s):
    if isinstance(s, UnarySemigroup):
        return s.base.table, s.unary
    return s.table, None


def _element_signatures(table, unary):
    """Relabeling-invariant per-element fingerprints, used to prune the
    isomorphism search."""
    n = len(table)
    total = Counter(v for row in table for v in row)
    sigs = []
    for a, row, col in zip(range(n), table, zip(*table)):
        # index m and period r: the least m, r with a^m = a^(m+r), where
        # a^(k+1) = a^k a; powers holds a, a^2, ... up to the first repeat
        powers = [a]
        x = row[a]
        while x not in powers:
            powers.append(x)
            x = table[x][a]
        index = powers.index(x) + 1
        sig = (
            row[a] == a,                              # idempotent
            total[a],                                 # occurrences in the table
            row.count(a),
            col.count(a),
            tuple(sorted(Counter(row).values())),
            tuple(sorted(Counter(col).values())),
            index,
            len(powers) + 1 - index,                  # period
        )
        if unary is not None:
            sig += (unary[a] == a, unary.count(a))
        sigs.append(sig)
    return sigs


def find_isomorphism(s, t):
    """A bijection phi with phi(ab) = phi(a)phi(b) (and phi(a') = phi(a)' in
    the unary case), or None.  Backtracking with invariant-based pruning."""
    t1, u1 = _unpack(s)
    t2, u2 = _unpack(t)
    if (u1 is None) != (u2 is None):
        raise TypeError("cannot compare a plain table with a unary semigroup")
    if len(t1) != len(t2):
        return None
    return _isomorphism_search(
        t1, u1, _element_signatures(t1, u1), t2, u2, _element_signatures(t2, u2)
    )


def _isomorphism_search(t1, u1, sig1, t2, u2, sig2):
    """find_isomorphism on tables of one order and kind whose element
    signatures are already computed; the first phi in backtracking order."""
    n = len(t1)
    if sorted(sig1) != sorted(sig2):
        return None
    candidates = [[b for b in range(n) if sig2[b] == sig1[a]] for a in range(n)]
    phi = [-1] * n
    used = [False] * n
    # Elements are assigned in the order 0..n-1, so when k is assigned the
    # constraints among 0..k-1 already hold.  The new ones involve k as a
    # factor, as a unary argument, or as the value of a product or unary
    # image of earlier elements; the latter are indexed by k up front.
    products_onto = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            z = t1[x][y]
            if x < z and y < z:
                products_onto[z].append((x, y))
    unary_onto = [[] for _ in range(n)]
    if u1 is not None:
        for x in range(n):
            if x < u1[x]:
                unary_onto[u1[x]].append(x)

    def consistent(k):
        pk = phi[k]
        row1 = t1[k]
        row2 = t2[pk]
        for y in range(k + 1):
            z = row1[y]
            if z <= k and row2[phi[y]] != phi[z]:
                return False
            z = t1[y][k]
            if z <= k and t2[phi[y]][pk] != phi[z]:
                return False
        for x, y in products_onto[k]:
            if t2[phi[x]][phi[y]] != pk:
                return False
        if u1 is not None:
            z = u1[k]
            if z <= k and u2[pk] != phi[z]:
                return False
            for x in unary_onto[k]:
                if u2[phi[x]] != pk:
                    return False
        return True

    def extend(a):
        if a == n:
            return True
        for b in candidates[a]:
            if used[b]:
                continue
            phi[a] = b
            used[b] = True
            if consistent(a) and extend(a + 1):
                return True
            used[b] = False
        phi[a] = -1
        return False

    if extend(0):
        return tuple(phi)
    return None


def relabel(s, perm):
    """Apply the bijection a -> perm[a] to a table or unary semigroup."""
    table, unary = _unpack(s)
    n = len(table)
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    rows = [[perm[table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    if unary is None:
        return CayleyTable(rows)
    new_unary = [perm[unary[inv[x]]] for x in range(n)]
    return UnarySemigroup(CayleyTable(rows), new_unary)


def _flat(table, unary):
    flat = [v for row in table for v in row]
    if unary is not None:
        flat.extend(unary)
    return flat


def _smaller_relabelings(table, unary):
    """Scan all n! relabelings of a table (and its unary map, if any) in
    row-major order, yielding each serialization that is lexicographically
    smaller than the table itself and every serialization yielded before it.

    A relabeling is dropped at the first cell where it exceeds the best so
    far, so only the improving ones are serialized in full.  The last value
    yielded is the lex-min; nothing is yielded when the table is its own
    lex-min.
    """
    n = len(table)
    best = _flat(table, unary)
    perm = [0] * n
    for inv in permutations(range(n)):
        for new, old in enumerate(inv):
            perm[old] = new
        idx = 0
        cmp = 0
        for x in inv:
            row = table[x]
            for y in inv:
                v = perm[row[y]]
                if v != best[idx]:
                    cmp = v - best[idx]
                    break
                idx += 1
            if cmp:
                break
        if not cmp and unary is not None:
            for x in inv:
                v = perm[unary[x]]
                if v != best[idx]:
                    cmp = v - best[idx]
                    break
                idx += 1
        if cmp < 0:
            best = [perm[table[x][y]] for x in inv for y in inv]
            if unary is not None:
                best.extend(perm[unary[x]] for x in inv)
            yield best


def canonical_form(s):
    """Lexicographically minimal row-major serialization (unary map appended)
    over all n! relabelings; equal byte strings iff isomorphic (same kind
    assumed).  Relabelings are pruned at their first cell larger than the
    best so far, which leaves the minimum unchanged."""
    table, unary = _unpack(s)
    best = _flat(table, unary)
    for best in _smaller_relabelings(table, unary):
        pass
    return bytes([len(table)]) + bytes(best)


def transpose(t):
    """The opposite (anti-isomorphic) semigroup."""
    n = t.order
    return CayleyTable([[t.table[y][x] for y in range(n)] for x in range(n)])


def anti_canonical_form(s):
    """Canonical form merging anti-isomorphic pairs (plain tables only)."""
    if isinstance(s, UnarySemigroup):
        op = UnarySemigroup(transpose(s.base), s.unary, s.canonical)
    else:
        op = transpose(s)
    return min(canonical_form(s), canonical_form(op))


# ---------------------------------------------------------------------------
# Text format: first line n >= 1, then n rows of n space-separated integers,
# optionally a line "unary: i0 i1 ... i(n-1)", which must be the last line.
# '#' starts a comment line.

def _integers(lineno, line):
    """The whitespace-separated integers of input line ``lineno``."""
    tokens = line.split()
    try:
        return tuple(map(int, tokens))
    except ValueError:
        bad = next(tok for tok in tokens if not _is_integer(tok))
        raise SemigroupError(f"line {lineno}: {bad!r} is not an integer") from None


def _is_integer(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def parse_semigroup(text):
    lines = []  # (line number, stripped text) of the lines that carry data
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if not lines:
        raise SemigroupError("empty input")
    lineno, first = lines[0]
    try:
        n = int(first)
    except ValueError:
        raise SemigroupError(f"line {lineno}: order {first!r} is not an integer") from None
    if n < 1:
        raise SemigroupError(f"order must be a positive integer, got {n}")
    if len(lines) < n + 1:
        raise SemigroupError(f"expected {n} table rows, got {len(lines) - 1}")
    rows = []
    for i in range(n):
        row = _integers(*lines[1 + i])
        if len(row) != n:
            raise SemigroupError(f"row {i} has {len(row)} entries, expected {n}")
        rows.append(row)
    # range-check only; associativity is the job of validate(), so that a
    # broken table can still be loaded and diagnosed
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise EntryOutOfRange((i, j), v)
    t = CayleyTable(rows)
    rest = [line for _, line in lines[1 + n:]]
    if rest:
        if not rest[0].startswith("unary:"):
            raise SemigroupError(f"unexpected line: {rest[0]!r}")
        if len(rest) > 1:
            raise SemigroupError(f"unexpected line after the unary map: {rest[1]!r}")
        unary = _integers(lines[1 + n][0], rest[0][len("unary:"):])
        validate(t)  # the canonical flag below needs a genuine semigroup
        from .epigroup import pseudoinverse_map  # deferred: epigroup builds on core
        s = UnarySemigroup(t, unary)
        validate_unary(s)
        canonical = pseudoinverse_map(t).unary == unary
        return UnarySemigroup(t, unary, canonical=canonical)
    return t


def emit_semigroup(s):
    table, unary = _unpack(s)
    lines = [str(len(table))]
    lines.extend(" ".join(str(v) for v in row) for row in table)
    if unary is not None:
        lines.append("unary: " + " ".join(str(v) for v in unary))
    return "\n".join(lines) + "\n"


def load_semigroup(path):
    with open(path) as fh:
        return parse_semigroup(fh.read())
