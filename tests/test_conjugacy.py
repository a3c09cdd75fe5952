import random
from itertools import permutations

from epivariants import checks
from epivariants.conjugacy import check_transitivity
from epivariants.core import CapExceeded, CayleyTable
from epivariants.corpus import corpus_names, load_corpus
from epivariants.search import semigroup_tables
from epivariants.variants import variant
from epivariants.varieties import in_E, in_V, in_W

from _tables import adjoin_identity, closure, corpus_through_order_5, relabel

NULL2 = CayleyTable([[0, 0], [0, 0]])
NONTRANS4 = CayleyTable([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 2, 3]])


def relation_oracle(t):
    # oracle: loop over the definition, x and y in S^1
    n = t.order
    s1 = adjoin_identity(t).table
    m = len(s1)
    pairs = set()
    for x in range(m):
        for y in range(m):
            a, b = s1[x][y], s1[y][x]
            if a < n and b < n:
                pairs.add((a, b))
                pairs.add((b, a))
    return pairs


def test_relation_matches_oracle():
    for name in ("z3.sgp", "s3.sgp", "null2.sgp", "left_zero2.sgp"):
        model = load_corpus(name)
        t = getattr(model, "base", model)
        rel = check_transitivity(t).relation
        pairs = relation_oracle(t)
        for a in range(t.order):
            for b in range(t.order):
                assert rel[a][b] == ((a, b) in pairs)


def test_checks_oracle_matches_relation():
    # the factorisation-set oracle of check_oracles, on every corpus table and
    # every table of order <= 4 with each of its variants
    tables = [getattr(m, "base", m) for m in map(load_corpus, corpus_names())]
    for order in (1, 2, 3, 4):
        for t in semigroup_tables(order):
            tables += [t] + [variant(t, c) for c in range(order)]
    for t in tables:
        assert checks._conjugacy_oracle(t) == [list(row) for row in check_transitivity(t).relation]


def test_group_conjugacy_s3():
    s3 = load_corpus("s3.sgp")
    report = check_transitivity(s3)
    # oracle: group conjugacy g a g^-1 over all g
    inv = {g: next(h for h in range(6) if s3.table[g][h] == 0) for g in range(6)}
    for a in range(6):
        orbit = {s3.table[s3.table[g][a]][inv[g]] for g in range(6)}
        for b in range(6):
            assert report.relation[a][b] == (b in orbit)
    assert report.classes == ((0,), (1, 3, 4), (2, 5))


def test_abelian_group_classes_are_singletons():
    z3 = load_corpus("z3.sgp")
    report = check_transitivity(z3)
    assert report.classes == ((0,), (1,), (2,))
    assert report.transitive


def test_null_semigroup():
    # xy = 0 always, so a ~ b iff a = b = 0 or {a,b} = {a} via x=a, y=1
    report = check_transitivity(NULL2)
    assert report.relation[0][0] and report.relation[1][1]
    assert not report.relation[0][1]
    assert report.classes == ((0,), (1,))


def test_left_zero_single_class():
    lz = load_corpus("left_zero2.sgp")
    report = check_transitivity(lz)
    # 0 = 0*1 and 1 = 1*0, so 0 ~ 1
    assert report.relation[0][1]
    assert report.classes == ((0, 1),)


def test_non_transitive_witness():
    report = check_transitivity(NONTRANS4)
    assert not report.transitive
    a, b, c = report.witness
    assert report.relation[a][b]
    assert report.relation[b][c]
    assert not report.relation[a][c]
    assert report.witness == (1, 0, 2)


def test_smallest_non_transitive_order_is_4():
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            assert check_transitivity(t).transitive
    bad = [t for t in semigroup_tables(4) if not check_transitivity(t).transitive]
    assert len(bad) == 13


def chain_layer(s):
    # where s first enters the chain W < E_2 < V_2
    if in_W(s).holds:
        return "W"
    if in_E(s, 2).holds:
        return "E2 \\ W"
    if in_V(s, 2).holds:
        return "V2 \\ E2"
    return "outside V2"


def _failing_classes(corpus, order):
    """Per layer of the chain, the order-``order`` classes of the corpus
    where S or one of its variants has non-transitive primary conjugacy,
    and those where S itself has.  One pass finds the failures and places
    them, so the W row is read off the same reports as the others."""
    layers = ("W", "E2 \\ W", "V2 \\ E2", "outside V2")
    with_variants = dict.fromkeys(layers, 0)
    alone = dict.fromkeys(layers, 0)
    for s, uvs in corpus:
        if s.order != order:
            continue
        fails = not check_transitivity(s.base).transitive
        layer = chain_layer(s)
        alone[layer] += fails
        with_variants[layer] += fails or any(
            not check_transitivity(uv.base).transitive for uv in uvs
        )
    return with_variants, alone


def test_main_theorem_is_sharp_at_order_4():
    # every variant of a semigroup in W has transitive primary conjugacy, and
    # W cannot be widened to E_2: the 13 order-4 classes where S or one of
    # its variants fails all lie in E_2 \ W
    expected = {"W": 0, "E2 \\ W": 13, "V2 \\ E2": 0, "outside V2": 0}
    assert _failing_classes(checks._corpus(), 4) == (expected, expected)


def test_main_theorem_is_sharp_at_order_5():
    # at order 5 the failures reach past E_2: 362 classes where S or a
    # variant fails, 349 where S itself does, none of them in W
    with_variants, alone = _failing_classes(corpus_through_order_5(), 5)
    assert with_variants == {"W": 0, "E2 \\ W": 352, "V2 \\ E2": 8, "outside V2": 2}
    assert alone == {"W": 0, "E2 \\ W": 339, "V2 \\ E2": 8, "outside V2": 2}
    assert sum(alone.values()) == 349


def test_transitive_closure_partition():
    for order in (1, 2, 3, 4):
        for t in semigroup_tables(order):
            classes = check_transitivity(t).classes
            flat = sorted(a for cls in classes for a in cls)
            assert flat == list(range(order))
            assert classes == tuple(sorted(classes, key=min))


def _brute_force_witness(pairs, n):
    # oracle: the lexicographically least (a, b, c) with a~b, b~c, not a~c
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (a, b) in pairs and (b, c) in pairs and (a, c) not in pairs:
                    return (a, b, c)
    return None


def _union_find_classes(pairs, n):
    # oracle: components of the relation by union-find, ordered by smallest member
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in sorted(pairs):
        parent[find(a)] = find(b)
    members = {}
    for a in range(n):
        members.setdefault(find(a), []).append(a)
    return tuple(sorted(map(tuple, members.values())))


def _transformation_closures(seed, count):
    # seeded two-generator closures of degree 4 whose order lies in 7..24
    rng = random.Random(seed)
    while count:
        gens = [[rng.randrange(4) for _ in range(4)] for _ in range(2)]
        try:
            t = closure(gens, cap=24)
        except CapExceeded:
            continue
        if t.order >= 7:
            count -= 1
            yield t


def _brute_force_tables():
    for order in (1, 2, 3, 4):
        for t in semigroup_tables(order):
            yield t
            yield from (variant(t, c) for c in range(order))
    yield from semigroup_tables(5)
    yield from _transformation_closures(2019, 12)


def test_witness_and_classes_match_brute_force():
    nontransitive = set()
    for t in _brute_force_tables():
        pairs = relation_oracle(t)
        report = check_transitivity(t)
        assert report.witness == _brute_force_witness(pairs, t.order), t.table
        assert report.transitive == (report.witness is None)
        assert report.classes == _union_find_classes(pairs, t.order), t.table
        if report.witness:
            nontransitive.add(t.order)
    # non-transitive tables occur at order 4, at order 5 and among the closures
    assert {4, 5} <= nontransitive and max(nontransitive) >= 7


def test_relation_iso_invariant():
    rel = check_transitivity(NONTRANS4).relation
    for p in permutations(range(4)):
        rp = check_transitivity(relabel(NONTRANS4, p)).relation
        for a in range(4):
            for b in range(4):
                assert rel[a][b] == rp[p[a]][p[b]]
