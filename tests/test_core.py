import random
from collections import Counter
from itertools import permutations, product as iproduct

import pytest

from epivariants.core import (
    MAX_PLAIN_ORDER,
    CapExceeded,
    CayleyTable,
    EntryOutOfRange,
    NotAssociative,
    SemigroupError,
    UnarySemigroup,
    _element_signatures,
    canonical_form,
    emit_semigroup,
    find_isomorphism,
    parse_semigroup,
    relabel,
    validate,
)
from epivariants.corpus import corpus_names, corpus_text, load_corpus
from epivariants.epigroup import pseudoinverse_map
from epivariants.search import semigroup_tables

from _tables import adjoin_identity, closure

Z2 = CayleyTable([[0, 1], [1, 0]])
NULL2 = CayleyTable([[0, 0], [0, 0]])
LEFT_ZERO = CayleyTable([[0, 0], [1, 1]])
RIGHT_ZERO = CayleyTable([[0, 1], [0, 1]])
W_WITNESS = CayleyTable([[2, 3, 2, 2], [1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3]])


def test_validate_trivial():
    validate(CayleyTable([[0]]))


def test_validate_w_witness():
    validate(W_WITNESS)


def test_validate_entry_out_of_range():
    with pytest.raises(EntryOutOfRange) as exc:
        validate(CayleyTable([[0, 1], [1, 2]]))
    assert exc.value.value == 2


def test_validate_not_associative_carries_witness():
    t = CayleyTable([[0, 1], [0, 0]])
    with pytest.raises(NotAssociative) as exc:
        validate(t)
    a, b, c = exc.value.witness
    assert t.table[t.table[a][b]][c] != t.table[a][t.table[b][c]]


def validate_oracle(t):
    # oracle: shape and range per row, then associativity by a triple loop
    # in lexicographic order; the first failure is raised
    tab = t.table
    n = len(tab)
    for a, row in enumerate(tab):
        if len(row) != n:
            raise SemigroupError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise EntryOutOfRange((a, b), v)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                    raise NotAssociative((a, b, c))
    return t


def _outcome(check, t):
    try:
        check(t)
    except SemigroupError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None),
                getattr(exc, "position", None), repr(getattr(exc, "value", None)))
    return "ok"


def _random_tables(rng, count):
    families = (
        lambda n, a, b: (a + b) % n,   # cyclic group
        lambda n, a, b: a,             # left zero
        lambda n, a, b: b,             # right zero
        lambda n, a, b: min(a, b),     # chain semilattice
    )
    bad_entries = (None, -1, 1.0, True, False, "x")
    for _ in range(count):
        n = rng.randrange(8)
        if rng.random() < 0.5:
            f = rng.choice(families)
            rows = [[f(n, a, b) for b in range(n)] for a in range(n)]
            if n and rng.random() < 0.6:
                rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        else:
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.25:
            bad = rng.choice(bad_entries)
            rows[rng.randrange(n)][rng.randrange(n)] = n if bad is None else bad
        if n and rng.random() < 0.05:
            rows[rng.randrange(n)].pop()
        yield CayleyTable(rows)


def test_validate_matches_triple_loop_oracle():
    rng = random.Random(20191113)
    tables = list(_random_tables(rng, 4000))
    tables += [t for order in (1, 2, 3, 4) for t in semigroup_tables(order)]
    outcomes = Counter()
    for t in tables:
        expected = _outcome(validate_oracle, t)
        assert _outcome(validate, t) == expected, t.table
        outcomes[expected if expected == "ok" else expected[0]] += 1
    # every outcome occurs often enough to be exercised
    assert min(outcomes.values()) >= 50, outcomes
    assert set(outcomes) == {"ok", SemigroupError, EntryOutOfRange, NotAssociative}


def _shared_row_tables(rng, count):
    # rows taken by reference from a small pool of row tuples, so one row
    # object recurs in a table; a pool row may be short or hold n, 1.0 or
    # True, and an int row may sit beside its equal twin with a 1.0
    for _ in range(count):
        n = rng.randrange(1, 7)
        pool = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.4:
            bad = list(rng.choice(pool))
            k = rng.randrange(n)
            bad[k] = rng.choice((n, float(bad[k]), True, None))
            pool.append(tuple(bad[:k] + bad[k + 1:]) if bad[k] is None else tuple(bad))
        yield CayleyTable([rng.choice(pool) for _ in range(n)])


def _variant_tables(rng, count):
    # the variant rows of random magmas, as ``variant`` builds them: row a at
    # c is the magma's row ac, the same object
    for _ in range(count):
        n = rng.randrange(1, 7)
        tab = CayleyTable([[rng.randrange(n) for _ in range(n)] for _ in range(n)]).table
        c = rng.randrange(n)
        yield CayleyTable([tab[row[c]] for row in tab])


def test_validate_matches_oracle_on_shared_rows():
    rng = random.Random(20150601)
    tables = list(_shared_row_tables(rng, 3000)) + list(_variant_tables(rng, 1000))
    outcomes = Counter()
    shared = 0
    for t in tables:
        expected = _outcome(validate_oracle, t)
        assert _outcome(validate, t) == expected, t.table
        outcomes[expected if expected == "ok" else expected[0]] += 1
        shared += len({id(row) for row in t.table}) < t.order
    assert shared >= len(tables) // 2
    assert min(outcomes.values()) >= 50, outcomes
    assert set(outcomes) == {"ok", SemigroupError, EntryOutOfRange, NotAssociative}


def test_validate_large_order_matches_oracle():
    # order 150 puts elements above code point 127
    n = 150
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    assert validate(CayleyTable(rows))
    rows[97][131] = 140
    t = CayleyTable(rows)
    expected = _outcome(validate_oracle, t)
    assert expected[0] is NotAssociative
    assert _outcome(validate, t) == expected


def test_find_isomorphism_identity():
    for t in (Z2, NULL2, W_WITNESS):
        phi = find_isomorphism(t, t)
        assert phi is not None
        n = t.order
        for a in range(n):
            for b in range(n):
                assert t.table[phi[a]][phi[b]] == phi[t.table[a][b]]


def test_left_zero_not_isomorphic_to_right_zero():
    # oracle: only two bijections exist on 2 elements, test both
    for phi in permutations(range(2)):
        assert any(
            RIGHT_ZERO.table[phi[a]][phi[b]] != phi[LEFT_ZERO.table[a][b]]
            for a in range(2)
            for b in range(2)
        )
    assert find_isomorphism(LEFT_ZERO, RIGHT_ZERO) is None


def test_census_references_pairwise_nonisomorphic():
    refs = [load_corpus(f"v1_nonvariant_{k}.sgp") for k in "abc"]
    for i in range(3):
        for j in range(i + 1, 3):
            assert find_isomorphism(refs[i], refs[j]) is None
    forms = {canonical_form(r) for r in refs}
    assert len(forms) == 3


def test_canonical_form_order1():
    assert canonical_form(CayleyTable([[0]])) == bytes([1, 0])


def test_canonical_form_distinguishes_left_right_zero():
    # oracle: enumerate both relabelings of each table
    def all_forms(t):
        return {tuple(v for row in relabel(t, p).table for v in row) for p in permutations(range(2))}

    assert all_forms(LEFT_ZERO).isdisjoint(all_forms(RIGHT_ZERO))
    assert canonical_form(LEFT_ZERO) != canonical_form(RIGHT_ZERO)


def test_canonical_form_iso_invariant():
    for t in (Z2, NULL2, LEFT_ZERO, W_WITNESS):
        for p in permutations(range(t.order)):
            assert canonical_form(relabel(t, p)) == canonical_form(t)


def _parts(s):
    if isinstance(s, UnarySemigroup):
        return s.base.table, s.unary
    return s.table, None


def brute_force_canonical_form(s):
    # oracle: serialize every relabeling in full and take the minimum
    def flat(r):
        table, unary = _parts(r)
        return [v for row in table for v in row] + list(unary or ())

    return bytes([s.order]) + bytes(min(flat(relabel(s, p)) for p in permutations(range(s.order))))


def _small_models():
    for order in (1, 2, 3, 4):
        for t in semigroup_tables(order):
            yield t
            yield pseudoinverse_map(t)


def _free_unary_models():
    # unary maps other than the pseudoinverse: every map at order <= 3 and on
    # the order-4 null semigroup, and the cyclic shift at order 4
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            for unary in iproduct(range(order), repeat=order):
                yield UnarySemigroup(t, unary)
    for unary in iproduct(range(4), repeat=4):
        yield UnarySemigroup(CayleyTable([[0] * 4] * 4), unary)
    for t in semigroup_tables(4):
        yield UnarySemigroup(t, (1, 2, 3, 0))


def _generated_models():
    # closures of two degree-3 transformations: orders 5, 6, 5, 6
    for gens in (((0, 0, 0), (1, 2, 1)), ((0, 0, 1), (1, 0, 0)),
                 ((0, 0, 2), (1, 2, 2)), ((0, 0, 2), (2, 1, 0))):
        t = closure(gens)
        yield t
        yield pseudoinverse_map(t)


def _oracle_models():
    return list(_small_models()) + list(_free_unary_models()) + list(_generated_models())


def _relabelled_order_5_models(count):
    # seeded random relabellings of order-5 classes, plain and with their
    # pseudoinverse map: tables that are mostly not their own canonical form
    rng = random.Random(5)
    for t in rng.sample(semigroup_tables(5), count):
        perm = list(range(5))
        rng.shuffle(perm)
        yield relabel(t, perm)
        yield relabel(pseudoinverse_map(t), perm)


def test_canonical_form_matches_brute_force():
    # the order-7 monoid is past MAX_PLAIN_ORDER, where the relabelings are
    # built on each call instead of cached
    t = closure([(0, 0, 1), (1, 0, 0)])
    models = _oracle_models() + list(_relabelled_order_5_models(300)) + [adjoin_identity(t)]
    assert len(models) == 2 * 218 + (1 + 5 * 4 + 24 * 27 + 4**4 + 188) + 8 + 2 * 300 + 1
    assert sorted({m.order for m in models}) == [1, 2, 3, 4, 5, 6, MAX_PLAIN_ORDER + 1]
    for m in models:
        assert canonical_form(m) == brute_force_canonical_form(m)


def first_isomorphism(s, t):
    # oracle: the first bijection in permutations order that preserves the
    # product and the unary map; the backtracking search must return it
    t1, u1 = _parts(s)
    t2, u2 = _parts(t)
    n = len(t1)
    for phi in permutations(range(n)):
        if all(t2[phi[x]][phi[y]] == phi[t1[x][y]] for x in range(n) for y in range(n)) and (
            u1 is None or all(u2[phi[x]] == phi[u1[x]] for x in range(n))
        ):
            return phi
    return None


def test_find_isomorphism_returns_first_isomorphism():
    models = _oracle_models()
    for i, m in enumerate(models):
        n = m.order
        reverse = relabel(m, tuple(range(n - 1, -1, -1)))
        rotate = relabel(m, tuple((x + 1) % n for x in range(n)))
        other = models[(i + 2) % len(models)]
        targets = [m, reverse, rotate, other]
        if isinstance(m, CayleyTable):
            # the transpose: anti-isomorphic, mostly not isomorphic
            targets.append(CayleyTable(zip(*reverse.table)))
        for target in targets:
            if target.order == n and type(target) is type(m):
                assert find_isomorphism(m, target) == first_isomorphism(m, target)
                assert find_isomorphism(target, m) == first_isomorphism(target, m)


def test_find_isomorphism_checks_products_with_new_right_factor():
    # (0, 2, 1, 3) preserves every product x*y with x >= y and breaks 0*2 = 1,
    # so only the check of products whose right factor is the element just
    # assigned rejects it
    a = CayleyTable([[0, 1, 1, 0], [0, 1, 1, 0], [0, 1, 2, 3], [0, 1, 2, 3]])
    b = CayleyTable([[0, 0, 2, 2], [0, 1, 2, 3], [0, 0, 2, 2], [0, 1, 2, 3]])
    assert find_isomorphism(a, b) == first_isomorphism(a, b) == (0, 2, 3, 1)


def test_find_isomorphism_forces_product_above_its_factors():
    # b is a with 0*0 = 2 and 0*1 = 3 swapped: both values lie above their
    # factors, the identity preserves every other product and every element
    # signature, so only forcing the images of 2 and 3 rejects it
    a = CayleyTable([[2, 3, 3, 3], [0, 3, 0, 2], [1, 1, 0, 1], [1, 2, 2, 0]])
    b = CayleyTable([[3, 2, 3, 3], [0, 3, 0, 2], [1, 1, 0, 1], [1, 2, 2, 0]])
    assert sorted(_element_signatures(a.table, None)) == sorted(_element_signatures(b.table, None))
    assert find_isomorphism(a, b) is first_isomorphism(a, b) is None


def test_find_isomorphism_forces_unary_image_above_its_argument():
    # on the null semigroup, (0, 1, 2, 3) preserves every product and the
    # unary images 1' = 0 and 3' = 0, and breaks 0' = 1 and 2' = 3, whose
    # values lie above their arguments: only forcing them rejects it
    s = UnarySemigroup(CayleyTable([[0] * 4] * 4), (1, 0, 3, 0))
    t = UnarySemigroup(CayleyTable([[0] * 4] * 4), (3, 0, 1, 0))
    assert find_isomorphism(s, t) == first_isomorphism(s, t) == (0, 3, 2, 1)


def _full_signatures(table, unary):
    # the signatures the search used before forward checking: besides the
    # index and period, each row's and column's sorted value multiplicities
    total = Counter(v for row in table for v in row)
    sigs = []
    for a, row, col in zip(range(len(table)), table, zip(*table)):
        powers = [a]
        x = table[a][a]
        while x not in powers:
            powers.append(x)
            x = table[x][a]
        index = powers.index(x) + 1
        sig = (row[a] == a, total[a], row.count(a), col.count(a),
               tuple(sorted(Counter(row).values())), tuple(sorted(Counter(col).values())),
               index, len(powers) + 1 - index)
        if unary is not None:
            sig += (unary[a] == a, unary.count(a))
        sigs.append(sig)
    return sigs


def plain_backtracking_isomorphism(s, t):
    # oracle: the search before forward checking, with no forced images.
    # Elements are assigned in the order 0..n-1 to signature-compatible
    # candidates in increasing order; a product or unary image is checked
    # when the last of its arguments and its value is assigned
    t1, u1 = _parts(s)
    t2, u2 = _parts(t)
    n = len(t1)
    sig1, sig2 = _full_signatures(t1, u1), _full_signatures(t2, u2)
    if sorted(sig1) != sorted(sig2):
        return None
    candidates = [[b for b in range(n) if sig2[b] == sig1[a]] for a in range(n)]
    phi = [-1] * n
    used = [False] * n
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
        for y in range(k + 1):
            z = t1[k][y]
            if z <= k and t2[pk][phi[y]] != phi[z]:
                return False
            z = t1[y][k]
            if z <= k and t2[phi[y]][pk] != phi[z]:
                return False
        if any(t2[phi[x]][phi[y]] != pk for x, y in products_onto[k]):
            return False
        if u1 is not None:
            z = u1[k]
            if z <= k and u2[pk] != phi[z]:
                return False
            if any(u2[phi[x]] != pk for x in unary_onto[k]):
                return False
        return True

    def extend(a):
        if a == n:
            return True
        for b in candidates[a]:
            if not used[b]:
                phi[a] = b
                used[b] = True
                if consistent(a) and extend(a + 1):
                    return True
                used[b] = False
        return False

    return tuple(phi) if extend(0) else None


def _seeded_closures(rng, count):
    # transformation semigroups of order 7..24 on two random generators
    closures = []
    while len(closures) < count:
        degree = rng.choice((3, 4))
        gens = [[rng.randrange(degree) for _ in range(degree)] for _ in range(2)]
        try:
            t = closure(gens, cap=24)
        except CapExceeded:
            continue
        if t.order >= 7:
            closures.append(t)
    return closures


def test_find_isomorphism_matches_plain_backtracking():
    rng = random.Random(13)
    order_5 = list(_relabelled_order_5_models(300))  # plain and unary in turn
    pairs = []
    for i, m in enumerate(order_5):
        pairs.append((m, relabel(m, rng.sample(range(5), 5))))
        pairs.append((m, order_5[(i + 2) % len(order_5)]))  # same kind, another class
    for t in _seeded_closures(rng, 40):
        pairs.append((t, relabel(t, rng.sample(range(t.order), t.order))))
    s4 = closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    for _ in range(200):
        pairs.append((relabel(s4, rng.sample(range(24), 24)), relabel(s4, rng.sample(range(24), 24))))
    assert sum(plain_backtracking_isomorphism(a, b) is None for a, b in pairs) > 100
    assert {a.order for a, _ in pairs} >= {5, 7, 24}
    for a, b in pairs:
        assert find_isomorphism(a, b) == plain_backtracking_isomorphism(a, b)


def test_relabel_preserves_validity():
    for p in permutations(range(4)):
        validate(relabel(W_WITNESS, p))


def test_unary_semigroup_relabel():
    s = UnarySemigroup(W_WITNESS, (2, 1, 2, 3))
    for p in permutations(range(4)):
        r = relabel(s, p)
        for a in range(4):
            assert r.unary[p[a]] == p[s.unary[a]]


def test_text_round_trip_corpus():
    for name in corpus_names():
        model = load_corpus(name)
        assert parse_semigroup(emit_semigroup(model)) == model


def test_parse_rejects_garbage():
    with pytest.raises(Exception):
        parse_semigroup("2\n0 1\n")
    with pytest.raises(Exception):
        parse_semigroup("")


def test_parse_reads_signs_between_non_ascii_whitespace():
    assert parse_semigroup("+2\n0\u00a0+0\n0\u2003 1\n") == CayleyTable([[0, 0], [0, 1]])


def test_corpus_comments_ignored():
    text = corpus_text("z2.sgp")
    assert text.startswith("#")
    assert parse_semigroup(text) == Z2


def test_element_signatures_split_s4_by_order():
    # S_4 as permutations of degree 4: the index/period part of the
    # signature separates elements of order 1, 2, 3 and 4, where the
    # table statistics alone only single out the identity
    t = closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert t.order == 24
    sizes = sorted(Counter(_element_signatures(t.table, None)).values())
    assert sizes == [1, 6, 8, 9]
    without_powers = Counter(sig[:-2] for sig in _element_signatures(t.table, None))
    assert sorted(without_powers.values()) == [1, 23]
    perm = tuple(random.Random(4).sample(range(24), 24))
    assert find_isomorphism(t, relabel(t, perm)) is not None


def test_element_signatures_index_and_period():
    # the monogenic semigroup a, a^2, a^3 with a^4 = a^2 (elements 0, 1, 2):
    # a has index 2 and period 2, a^2 is idempotent, a^3 generates {a^2, a^3}
    t = CayleyTable([[1, 2, 1], [2, 1, 2], [1, 2, 1]])
    validate(t)
    sigs = _element_signatures(t.table, None)
    assert [sig[-2:] for sig in sigs] == [(2, 2), (1, 1), (1, 2)]


@pytest.mark.parametrize("text, message", [
    ("0\n", "order must be a positive integer, got 0"),
    ("-1\n", "order must be a positive integer, got -1"),
    ("1\n0\nunary: 0\nunary: 0\n", "unexpected line after the unary map: 'unary: 0'"),
    ("1\n0\nunary: 0\n0\n", "unexpected line after the unary map: '0'"),
    ("2\n0 0\n0 0\nunary: 0 0\n# note\n1 1\n", "unexpected line after the unary map: '1 1'"),
    ("2\n0 0\n0 1\nunary: 0\n", "unary map has length 1, expected 2"),
    ("2\n0 0\n0 1\nunary: 0 5\n", "entry 5 at ('unary', 1) is out of range"),
    ("2\n0 0\n0 -1\n", "entry -1 at (1, 1) is out of range"),
])
def test_parse_rejects_malformed_structure(text, message):
    with pytest.raises(SemigroupError) as exc:
        parse_semigroup(text)
    assert str(exc.value) == message
