"""Finite semigroups as Cayley tables: validation, powers, isomorphism
testing and canonical forms.  This is the bottom layer: it imports no other
module of the package, and the ``.sgp`` text format is read and written by
:mod:`epivariants.corpus`.

Elements are dense integer indices 0..n-1.  Entry (row a, column b) of the
table holds the product a*b.  Associativity is a checked invariant, never
assumed at construction time: build with ``CayleyTable.from_rows`` or call
``validate`` explicitly.  The one result that is inherited rather than
checked is a variant's: a *_c b = acb is associative whenever the table it
is built from is, since (acb)cd = ac(bcd), so ``variants.variant`` of a
table that ``validate`` passed skips the check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, permutations
from math import factorial
from operator import itemgetter


# maxsize of the lru_caches that green and epigroup_data key by whole tables
TABLE_CACHE_SIZE = 4096


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
        object.__setattr__(self, "table", tuple(map(tuple, self.table)))

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

    A table that passes is marked as checked, so that ``variants.variant``
    can pass the result on to its variants; the mark is never read here,
    and every call runs the full check.
    """
    n = t.order
    tab = t.table
    values = set(range(n))
    rows = []
    for a, row in enumerate(tab):
        if len(row) != n:
            raise SemigroupError(f"row {a} has length {len(row)}, expected {n}")
        if not (set(map(type, row)) <= {int} and values.issuperset(row)):
            for b, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise EntryOutOfRange((a, b), v)
        rows.append("".join(map(chr, row)))
    cells = "".join(rows)
    row_of = rows.__getitem__
    for a, row in enumerate(tab):
        left = "".join(map(row_of, row))
        right = cells.translate(rows[a])
        if left != right:
            i = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
            raise NotAssociative((a, *divmod(i, n)))
    object.__setattr__(t, "_validated", True)
    return t


def identity_of(t):
    """The two-sided identity element, or None."""
    n = t.order
    tab = t.table
    for e in range(n):
        if all(tab[e][x] == x == tab[x][e] for x in range(n)):
            return e
    return None


def table_of(model):
    """The Cayley table of a model: its base table when it has a unary map."""
    return model.base if isinstance(model, UnarySemigroup) else model


def _unpack(s):
    if isinstance(s, UnarySemigroup):
        return s.base.table, s.unary
    return s.table, None


def _powers(table, a):
    """(powers, m): powers holds a, a^2, ..., a^(m+r-1), where a^(k+1) =
    a^k a and m, r are least with a^m = a^(m+r).  m is the index of a and
    r = len(powers) + 1 - m its period."""
    powers = [a]
    x = table[a][a]
    while x not in powers:
        powers.append(x)
        x = table[x][a]
    return powers, powers.index(x) + 1


def _element_signatures(table, unary):
    """Relabeling-invariant per-element fingerprints: the isomorphism
    search maps an element only onto one with the same signature.  They
    prune, but they do not choose: the search returns the same phi for any
    invariant fingerprints, only sooner when they separate more elements.
    The last two fields of a plain table's signature are the index and the
    period."""
    total = Counter(chain.from_iterable(table))
    sigs = []
    for a, row, col in zip(range(len(table)), table, zip(*table)):
        powers, index = _powers(table, a)
        sig = (
            row[a] == a,                              # idempotent
            total[a],                                 # occurrences in the table
            row.count(a),
            col.count(a),
            len(set(row)),                            # |aS|
            len(set(col)),                            # |Sa|
            index,
            len(powers) + 1 - index,                  # period
        )
        if unary is not None:
            sig += (unary[a] == a, unary.count(a))
        sigs.append(sig)
    return sigs


def _invariants(table, unary):
    """(signatures, multiset): the element signatures and their sorted
    list, which isomorphic tables share; computed once per table."""
    sigs = _element_signatures(table, unary)
    return sigs, sorted(sigs)


def find_isomorphism(s, t):
    """A bijection phi with phi(ab) = phi(a)phi(b) (and phi(a') = phi(a)' in
    the unary case), or None.  phi is the lexicographically least
    isomorphism: the first in ``itertools.permutations`` order.  Found by
    backtracking with forward checking (see ``_isomorphism_search``)."""
    t1, u1 = _unpack(s)
    t2, u2 = _unpack(t)
    if (u1 is None) != (u2 is None):
        raise TypeError("cannot compare a plain table with a unary semigroup")
    if len(t1) != len(t2):
        return None
    return _isomorphism_search(t1, u1, _invariants(t1, u1), t2, u2, _invariants(t2, u2))


def _isomorphism_search(t1, u1, inv1, t2, u2, inv2):
    """find_isomorphism on tables of one order and kind whose
    ``_invariants`` are already computed.

    Reject first: tables whose signature multisets differ are not
    isomorphic, so they return None after one comparison.  Only a pair
    with equal multisets enters ``_backtrack``, which builds the cells of
    its nested functions when it is called; most pairs of the oracle
    sweep never pay for them."""
    if inv1[1] != inv2[1]:
        return None
    return _backtrack(t1, u1, inv1[0], t2, u2, inv2[0])


def _backtrack(t1, u1, sig1, t2, u2, sig2):
    """The lexicographically least isomorphism from (t1, u1) to (t2, u2)
    that maps each element to one of the same signature, or None; sig1 and
    sig2 are the two tables' signatures, with one multiset.

    Elements are assigned in the order 0..n-1, each to its candidates in
    increasing order.  Once k is assigned, every product x*y with x, y <= k
    and every unary image x' with x <= k has a known image.  If its value z
    is assigned too, phi(z) is checked; if not, z > k and its image is
    forced: z may only go to that element, which is then reserved for it.
    A forced image that conflicts with an earlier one, is already used or
    reserved, or has another signature rejects the assignment.  Each
    constraint is checked or forced when the larger of its arguments is
    assigned, so a complete assignment is an isomorphism.  Every branch that
    is cut holds no isomorphism, and the invariants hold for all of them, so
    the search returns the lexicographically least isomorphism whatever the
    signatures are."""
    n = len(t1)
    members = {}            # the elements of t2 with each signature, increasing
    for b, sig in enumerate(sig2):
        members.setdefault(sig, []).append(b)
    image = [-1] * n        # phi of assigned elements, the forced image of others
    taken = [False] * n     # used by an assigned element or reserved by forcing
    forced = []             # the trail: elements whose image was forced, in order

    def consistent(k):
        # zs: the values of k*y, then y*k for y <= k, then k'; ws: what
        # phi must map each onto
        b = image[k]
        known = image[:k + 1]
        row2 = t2[b]
        zs = list(t1[k][:k + 1])
        zs += [row[k] for row in t1[:k + 1]]
        ws = [row2[p] for p in known]
        ws += [t2[p][b] for p in known]
        if u1 is not None:
            zs.append(u1[k])
            ws.append(u2[b])
        for z, w in zip(zs, ws):
            if image[z] != w:
                if image[z] >= 0 or taken[w] or sig2[w] != sig1[z]:
                    return False
                image[z] = w
                taken[w] = True
                forced.append(z)
        return True

    def undo(mark):
        while len(forced) > mark:
            z = forced.pop()
            taken[image[z]] = False
            image[z] = -1

    def extend(a):
        if a == n:
            return True
        mark = len(forced)
        if image[a] >= 0:
            if consistent(a) and extend(a + 1):
                return True
            undo(mark)
            return False
        for b in members[sig1[a]]:
            if taken[b]:
                continue
            image[a] = b
            taken[b] = True
            if consistent(a) and extend(a + 1):
                return True
            undo(mark)
            taken[b] = False
        image[a] = -1
        return False

    if extend(0):
        return tuple(image)
    return None


# Relabelings are cached for every order up to this one, the largest that
# the table search enumerates.
MAX_PLAIN_ORDER = 6


def _relabeling_entries(n, rows, unary):
    """The relabelings of order n that map {0..rows-1} onto itself, in
    lexicographic order of inv (the identity first), each as (ptab, get);
    n >= 2.

    A relabeling sends element inv[k] to k, so cell (i, j) of the relabeled
    table is perm[t[inv[i]][inv[j]]] with perm the inverse of inv, and its
    unary map reads perm[u[inv[i]]].  On the serialization ``flat`` of t's
    rows 0..rows-1 (then u, if any), ``flat.translate(ptab)`` applies perm to
    every value and ``get`` reads the results in the relabeled order.
    """
    if rows == n:
        invs = permutations(range(n))
    else:
        tails = list(permutations(range(rows, n)))
        invs = (head + tail for head in permutations(range(rows)) for tail in tails)
    pad = bytes(256 - n)
    for inv in invs:
        perm = [0] * n
        for new, old in enumerate(inv):
            perm[old] = new
        src = [a * n + b for a in inv[:rows] for b in inv]
        if unary:
            src.extend(n * n + a for a in inv)
        yield bytes(perm) + pad, itemgetter(*src)


def _relabelings(n, rows, unary):
    """(branch, entries): ``_relabeling_entries`` with branch[e], the number
    of relabelings that share any one inv[0..e]."""
    branch = tuple(
        factorial(max(rows - e - 1, 0)) * factorial(n - max(rows, e + 1)) for e in range(n)
    )
    return branch, _relabeling_entries(n, rows, unary)


@lru_cache(maxsize=None)
def _cached_relabelings(n, rows, unary):
    # built on first use, only for n <= MAX_PLAIN_ORDER: under 2 MB in all
    branch, entries = _relabelings(n, rows, unary)
    return branch, tuple(entries)


def _lex_leader(table, unary=None, rows=None, stop=False):
    """The lexicographically least row-major serialization of a table (its
    unary map appended) over its relabelings, as a tuple.

    With ``rows``, only the first ``rows`` rows are serialized and only the
    relabelings that map {0..rows-1} onto itself are tried: those read no
    other row, so the rest of the table may be unfilled.  With ``stop``, the
    walk ends at the first relabeling that beats the table's own
    serialization and returns None; otherwise, and when none does, it
    returns the least one found.

    The relabelings are walked in lexicographic order of inv, which is a
    depth-first walk of the tree whose level k fixes inv[k].  A relabeling
    that ties rows 0..i-1 and first exceeds the best so far at cell (i, j)
    prunes its whole branch at level e: every relabeling sharing inv[0..e]
    exceeds the best there too, as long as inv[0..e] fixes the cells read
    so far and the labels of the values they must take.  Cell (i, j) then
    reads the same product, whose label is either fixed, or not among
    inv[0..e] and so at least e + 1, above the best value at (i, j).  That
    holds for e at least i, j and each best value up to (i, j) in row i,
    provided rows 0..i-1 are constant rows of the best: a row whose cells
    all hold w reads the same product whatever its columns, and needs only
    inv[w] and its own row label fixed.  A tied row that is not constant depends on
    every column, so no branch is pruned below it.
    """
    n = len(table)
    if rows is None:
        rows = n
        flat = b"".join(map(bytes, table))
        if unary is not None:
            flat += bytes(unary)
    else:
        unary = None
        flat = b"".join(map(bytes, table[:rows]))
    best = tuple(flat)
    if n < 2:
        return best  # the identity is the only relabeling
    relabelings = _cached_relabelings if n <= MAX_PLAIN_ORDER else _relabelings
    branch, entries = relabelings(n, rows, unary is not None)
    entries = iter(entries)
    next(entries)  # the identity
    # finding the branch to prune costs about as much as comparing a few
    # relabelings: it is done only where a branch may hold more than six,
    # and from the second greater relabeling on, as most tests end sooner
    prunable = branch[0] > 6
    wait = True
    head = None
    x = 0
    for ptab, get in entries:
        x += 1
        cand = get(flat.translate(ptab))
        if cand < best:
            if stop:
                return None
            best = cand
            head = None
        elif prunable and cand != best:
            if head is None:
                if wait:
                    wait = False
                    continue
                head, reach = _constant_head(best, n, rows)
                pruned = [0] * len(head)
            mine = cand[:len(head)]
            if mine != head:
                for p, v in enumerate(mine):
                    if v != head[p]:
                        break
                size = pruned[p]
                if not size:
                    i, j = divmod(p, n)
                    size = pruned[p] = branch[max(reach[i], j, *head[i * n:p + 1])]
                skip = size - 1 - x % size
                if skip:
                    next(islice(entries, skip, skip), None)
                    x += skip
    return best


def _constant_head(best, n, rows):
    """(head, reach): head is the leading constant rows of the
    serialization ``best`` and the row after them; relabelings that tie
    rows 0..i-1 of head and share inv[0..reach[i]] read row i from the same
    row of the table (see ``_lex_leader``)."""
    head = ()
    reach = []
    e = 0
    for i in range(rows):
        row = best[i * n:i * n + n]
        head += row
        e = max(e, i)
        reach.append(e)
        if row.count(row[0]) != n:
            break
        e = max(e, row[0])
    return head, reach


def canonical_form(s):
    """The isomorphism invariant of a table or unary semigroup: its order,
    then the lexicographically least row-major serialization (unary map
    appended) over all n! relabelings.  Equal byte strings iff isomorphic
    (same kind assumed).  Computed by ``_lex_leader``, which prunes whole
    branches of relabelings at their first cell above the best so far."""
    table, unary = _unpack(s)
    return bytes([len(table)]) + bytes(_lex_leader(table, unary))
