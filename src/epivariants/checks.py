"""The built-in verification suite: every headline result the library is
built around, re-derived from scratch over the exhaustively enumerated
corpus of small semigroups.  Each check returns a CheckOutcome; the CLI's
``verify-paper`` subcommand and the acceptance tests both run this list.

The order-<=4 checks read one corpus of inputs, never verdicts (``_corpus``);
each runs its own criteria, once per distinct input where an input recurs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .conjugacy import check_transitivity
from .core import (
    CayleyTable,
    UnarySemigroup,
    _invariants,
    _isomorphism_search,
    canonical_form,
    find_isomorphism,
    identity_of,
    table_of,
)
from .corpus import corpus_names, load_corpus
from .epigroup import (
    EpigroupData,
    epigroup_data,
    is_completely_regular,
    pseudoinverse_map,
    verify_epigroup_identities,
)
from .green import green, is_group_h_class
from .search import enumerate_models, semigroup_tables
from .variants import check_pseudoinverse_transport, star, variant
from .varieties import (
    EQ_COMMUTE,
    EQ_PINV_FIXED,
    EQ_PRODUCT_STABLE,
    _compiled,
    _first_failure,
    e_identity_alt,
    in_E,
    in_V,
    in_W,
    in_W_structural,
)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str


@lru_cache(maxsize=None)
def _corpus():
    """``(s, uvs)`` for every table of order <= 4 in ``semigroup_tables``
    order: s its pseudoinverse map, ``uvs[c]`` its unary variant at c, whose
    base is the plain variant at c (built through this module's ``variant``)."""
    return tuple(
        (s, tuple(UnarySemigroup(variant(s.base, c), star(s, c)) for c in range(s.order)))
        for order in range(1, 5)
        for s in map(pseudoinverse_map, semigroup_tables(order))
    )


V1_CENSUS_REFERENCES = ("v1_nonvariant_a.sgp", "v1_nonvariant_b.sgp", "v1_nonvariant_c.sgp")


def check_v1_census():
    """Exactly three order-4 unary semigroups in V_1 are not variants of a
    completely regular semigroup, none below order 4, and they match the
    shipped reference tables one to one, pseudoinverse maps included."""

    def failed(detail):
        return CheckOutcome("v1-census", False, detail)

    filters = ("V1", "not:variant_of_CR")
    found = {order: enumerate_models(order, filters=filters) for order in range(1, 5)}
    counts = {order: len(models) for order, models in found.items()}
    expected = {1: 0, 2: 0, 3: 0, 4: 3}
    if counts != expected:
        return failed(f"model counts {counts} differ from expected {expected}")

    references = [load_corpus(name) for name in V1_CENSUS_REFERENCES]
    for name, ref in zip(V1_CENSUS_REFERENCES, references):
        if not ref.canonical or ref.unary != (1, 1, 2, 3):
            return failed(f"reference {name} lost its pseudoinverse map")

    models = found[4]
    matching = {}
    isomorphisms = {}  # the one found in the sweep, reused for the check below
    for name, ref in zip(V1_CENSUS_REFERENCES, references):
        phis = (find_isomorphism(ref, m) for m in models)
        hits = {i: phi for i, phi in enumerate(phis) if phi is not None}
        if len(hits) != 1:
            return failed(f"reference {name} matched models {list(hits)}, expected one")
        [(matching[name], isomorphisms[name])] = hits.items()
    if sorted(matching.values()) != [0, 1, 2]:
        return failed(f"matching {matching} is not a bijection")

    for name, ref in zip(V1_CENSUS_REFERENCES, references):
        model = models[matching[name]]
        phi = isomorphisms[name]
        for x in range(4):
            if model.unary[phi[x]] != phi[ref.unary[x]]:
                return failed(f"pseudoinverse mismatch under matching for {name}")
    return CheckOutcome("v1-census", True, f"counts {counts}, matching {matching}")


def check_w_witness():
    """The shipped order-4 witness lies in W, carries pseudoinverse
    [2,1,2,3], and fails V_1 first at x''y = xy with x=0, y=1."""
    s = load_corpus("w_not_v1.sgp")
    problems = []
    if not s.canonical:
        problems.append("unary map is not the pseudoinverse")
    if s.unary != (2, 1, 2, 3):
        problems.append(f"pseudoinverse is {s.unary}")
    if not in_W(s).holds:
        problems.append("not in W")
    report = in_V(s, 1)
    if report.holds:
        problems.append("unexpectedly in V_1")
    elif report.failing_assignment != {"x": 0, "y": 1}:
        problems.append(f"first counterexample {report.failing_assignment}")
    tab = s.base.table
    lhs = tab[s.unary[s.unary[0]]][1]
    rhs = tab[0][1]
    if (lhs, rhs) != (2, 3):
        problems.append(f"0''*1 = {lhs}, 0*1 = {rhs}")
    ok = not problems
    return CheckOutcome("w-witness", ok, "; ".join(problems) or "0''*1 = 2 != 3 = 0*1")


def check_pseudoinverse_identities():
    """The canonical pseudoinverse map satisfies all six defining identities
    (primes 2 and 3) on every semigroup of order <= 4."""
    failures = 0
    total = 0
    for s, _ in _corpus():
        for ident, env in verify_epigroup_identities(s):
            total += 1
            if env is not None:
                failures += 1
    return CheckOutcome(
        "pseudoinverse-identities",
        failures == 0,
        f"{total} identity checks, {failures} failures",
    )


def check_transport():
    """(xc)' = x*c and cx** = (cx)'' hold everywhere, and the star map of
    every unary variant equals the variant table's own pseudoinverse map.
    The transport identities read the corpus's star maps."""
    bad = []
    for s, uvs in _corpus():
        for c, uv in enumerate(uvs):
            report = check_pseudoinverse_transport(s, c, uv.unary)
            if not report.ok:
                bad.append((s.base.table, c, report.witness))
            elif uv.unary != epigroup_data(uv.base).pseudoinverse:
                bad.append((s.base.table, c, "star != variant pseudoinverse"))
    return CheckOutcome(
        "pseudoinverse-transport", not bad, f"{len(bad)} failures" if bad else "all pass"
    )


def check_variety_chain():
    """E_1 <= V_1 <= W <= E_2 <= V_2 over all canonical unary semigroups of
    order <= 4, with concrete strictness witnesses at every step."""
    problems = []
    witness_v1_not_e1 = witness_w_not_v1 = witness_e2_not_w = None
    for s, _ in _corpus():
        t = s.base
        e1 = in_E(s, 1).holds
        v1 = in_V(s, 1).holds
        w = in_W(s).holds
        e2 = in_E(s, 2).holds
        v2 = in_V(s, 2).holds
        for a, b, label in [
            (e1, v1, "E1<=V1"),
            (v1, w, "V1<=W"),
            (w, e2, "W<=E2"),
            (e2, v2, "E2<=V2"),
        ]:
            if a and not b:
                problems.append((label, t.table))
        if v1 and not e1 and witness_v1_not_e1 is None:
            witness_v1_not_e1 = t
        if w and not v1 and witness_w_not_v1 is None:
            witness_w_not_v1 = t
        if e2 and not w and witness_e2_not_w is None:
            witness_e2_not_w = t
    shipped = load_corpus("w_not_v1.sgp")
    if not (in_W(shipped).holds and not in_V(shipped, 1).holds):
        problems.append(("shipped W-witness", "lost its separating property"))
    for label, witness in [
        ("V1 \\ E1", witness_v1_not_e1),
        ("W \\ V1", witness_w_not_v1),
        ("E2 \\ W", witness_e2_not_w),
    ]:
        if witness is None:
            problems.append((label, "no strictness witness found"))
    detail = (
        f"strict witnesses: V1\\E1 {witness_v1_not_e1.table}, "
        f"W\\V1 {witness_w_not_v1.table}, E2\\W {witness_e2_not_w.table}"
        if not problems
        else f"{problems[:3]}"
    )
    return CheckOutcome("variety-chain", not problems, detail)


def check_variant_variety_closure():
    """Unary variants stay inside V_n; variants of completely regular or
    W-semigroups land in V_1.  Each distinct variant is tested once per
    variety it is claimed for, and a failure counts every claim on it."""
    claims = {}  # each distinct variant -> its claims to lie in V_1 and in V_2
    for s, uvs in _corpus():
        v2 = in_V(s, 2).holds
        # each variant is claimed to be in V_1 once for a member of V_1 and
        # once more for a completely regular or W table; one test serves both
        v1 = in_V(s, 1).holds + (is_completely_regular(s.base) or in_W(s).holds)
        for uv in uvs:
            counts = claims.setdefault(uv, [0, 0])
            counts[0] += v1
            counts[1] += v2
    violations = sum(
        k
        for uv, counts in claims.items()
        for n, k in enumerate(counts, 1)
        if k and not in_V(uv, n).holds
    )
    return CheckOutcome(
        "variant-variety-closure", violations == 0, f"{violations} violations"
    )


def _conjugacy_oracle(t):
    # a ~ b iff some factorisation a = xy over S gives yx = b; the S^1 cases
    # a = 1a and a = a1 add exactly the pairs (a, a)
    n = t.order
    tab = t.table
    factorisations = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            factorisations[tab[x][y]].append((x, y))
    return [
        [a == b or any(tab[y][x] == b for x, y in factorisations[a]) for b in range(n)]
        for a in range(n)
    ]


def check_w_variant_conjugacy():
    """Primary conjugacy is transitive in every variant of every order-<=4
    semigroup in W; every non-transitive report anywhere carries a witness
    that re-verifies against an independent relation."""
    problems = []
    nontransitive_orders = set()
    # each distinct table and variant, flagged if some source is in W
    from_w = {}
    for s, uvs in _corpus():
        in_w = in_W_structural(s.base)
        for table in [s.base] + [uv.base for uv in uvs]:
            from_w[table] = from_w.get(table, False) or in_w
    for table, in_w in from_w.items():
        report = check_transitivity(table)
        if not report.transitive:
            if in_w:
                problems.append(("W variant not transitive", table.table))
            a, b, c3 = report.witness
            oracle = _conjugacy_oracle(table)
            if not (oracle[a][b] and oracle[b][c3] and not oracle[a][c3]):
                problems.append(("bad witness", table.table, report.witness))
            nontransitive_orders.add(table.order)
    finding = (
        f"non-transitive examples seen at orders {sorted(nontransitive_orders)}"
        if nontransitive_orders
        else "primary conjugacy transitive on every order-<=4 semigroup and variant"
    )
    return CheckOutcome("w-variant-conjugacy", not problems, finding)


def check_variant_index_bounds():
    """In every variant, the index of a is n or n+1 where n is the base
    index of ca, with each variant's indices read once."""
    violations = 0
    for s, uvs in _corpus():
        base = epigroup_data(s.base).index
        for row, uv in zip(s.base.table, uvs):
            violations += sum(
                k not in (base[row[a]], base[row[a]] + 1)
                for a, k in enumerate(epigroup_data(uv.base).index)
            )
    return CheckOutcome("variant-index-bounds", violations == 0, f"{violations} violations")


def _labelled_semigroups(order):
    """Every associative table on {0, ..., order-1}, as a tuple of rows:
    generate-and-filter over all order^(order^2) tables, independent of the
    backtracking search and of ``core.validate``.  A table is a tuple of
    row indices into all order^order rows, and it is kept when row ab is
    row a composed after row b for all a, b, which says (ab)c = a(bc) for
    every c."""
    rows = list(iproduct(range(order), repeat=order))
    index = {row: i for i, row in enumerate(rows)}
    # comp[i][j]: the index of the row c -> rows[i][rows[j][c]]
    comp = [[index[tuple(ri[v] for v in rj)] for rj in rows] for ri in rows]
    for choice in iproduct(range(len(rows)), repeat=order):
        associative = True
        for i in choice:
            row, after = rows[i], comp[i]
            for b, j in enumerate(choice):
                if choice[row[b]] != after[j]:
                    associative = False
                    break
            if not associative:
                break
        if associative:
            yield tuple(rows[i] for i in choice)


def _ideal_table(t, elements):
    # the subsemigroup on a one-sided ideal, its elements renumbered in order
    elements = sorted(elements)
    pos = {e: i for i, e in enumerate(elements)}
    return CayleyTable([[pos[t.table[a][b]] for b in elements] for a in elements])


def _epigroup_oracle(t):
    """``epigroup_data`` from Green's relations: the index of a is the least
    k with a^k in a group H-class, its unit is that class's one idempotent
    e, and a' is the one inverse of ae in the class."""
    g = green(t)
    tab = t.table
    index = []
    pinv = []
    unit = []
    for a in range(t.order):
        p, k = a, 1
        while not is_group_h_class(g, p):
            p = tab[p][a]
            k += 1
        members = g.h_members(p)
        (e,) = [x for x in members if tab[x][x] == x]
        ae = tab[a][e]
        (inverse,) = [h for h in members if tab[ae][h] == e == tab[h][ae]]
        index.append(k)
        pinv.append(inverse)
        unit.append(e)
    return EpigroupData(index=tuple(index), pseudoinverse=tuple(pinv), unit_of=tuple(unit))


def _green_disagreements(t):
    """The failures, on t, of three equivalences that hold on every finite
    semigroup, read off ``green``'s classes: R o L = L o R; D = J, with D
    taken as R o L and checked against both ``green``'s J and the J of the
    two-sided ideals S^1aS^1, which ``green`` does not compute; and "H_a
    holds an idempotent" iff "a*a lies in H_a".  Each reports its first
    failure only."""
    g = green(t)
    n = t.order
    tab = t.table
    r, l, h, j = g.r_class, g.l_class, g.h_class, g.j_class
    # S^1aS^1 = {x(ay)} is the union of the left ideals S^1v over v in aS^1
    right = [set(row) | {a} for a, row in enumerate(tab)]
    left = [set(col) | {a} for a, col in enumerate(zip(*tab))]
    two = [set().union(*(left[v] for v in right[a])) for a in range(n)]
    # a (R o L) b iff the pair of classes (R_a, L_b) is occupied; a (L o R) b
    # iff (R_b, L_a) is
    pairs = set(zip(r, l))
    problems = []
    for a, b in iproduct(range(n), repeat=2):
        if ((r[a], l[b]) in pairs) != ((r[b], l[a]) in pairs):
            problems.append(f"R o L != L o R at ({a},{b})")
            break
    for a, b in iproduct(range(n), repeat=2):
        d = (r[a], l[b]) in pairs
        if d != (j[a] == j[b]) or d != (two[a] == two[b]):
            problems.append(f"D != J at ({a},{b})")
            break
    for a in range(n):
        if (h[a] in g.group_h_classes) != (h[tab[a][a]] == h[a]):
            problems.append(f"group H-class criteria disagree at element {a}")
            break
    return problems


@lru_cache(maxsize=None)
def _e_alt_basis(alt):
    """E_n's other axiomatization, x'xx' = x', xx' = x'x and alt, which is
    x^{n-1} x'' = x^n, compiled once per alt."""
    return _compiled((EQ_PINV_FIXED, EQ_COMMUTE, alt))


_PRODUCT_STABLE_BASIS = _compiled((EQ_PRODUCT_STABLE,))


def _variety_disagreements(s):
    """The failures, on s, of the equivalences and inclusions that
    ``check_oracles`` lists, each criterion computed once."""
    problems = []
    e = {n: in_E(s, n).holds for n in (1, 2, 3)}
    for n in (1, 2, 3):
        alt = _first_failure(s, _e_alt_basis(e_identity_alt(n))) is None
        if alt != e[n]:
            problems.append(
                f"E_{n} axiomatizations disagree on a unary semigroup of order {s.order}"
            )
    for n in (1, 2):
        v = in_V(s, n).holds
        if e[n] and not v:
            problems.append(f"E_{n} member escaped V_{n}")
        if v and not e[n + 1]:
            problems.append(f"V_{n} member escaped E_{n + 1}")
    if s.canonical:
        t = s.base
        tab = t.table
        w = {
            "E2-based": e[2] and _first_failure(s, _PRODUCT_STABLE_BASIS) is None,
            "equational": in_W(s).holds,
            "products": in_W_structural(t),
            # Sc is column c and cS is row c; each distinct set is tested once
            "left ideals": all(
                is_completely_regular(_ideal_table(t, ideal))
                for ideal in set(map(frozenset, zip(*tab)))
            ),
            "right ideals": all(
                is_completely_regular(_ideal_table(t, ideal)) for ideal in set(map(frozenset, tab))
            ),
        }
        if len(set(w.values())) > 1:
            problems.append(
                "W characterizations disagree: "
                + ", ".join(f"{name}={holds}" for name, holds in w.items())
            )
    return problems


def check_oracles():
    """Search completeness at order <= 3 against brute force; isomorphism
    search agrees with canonical forms on all order-<=4 pairs; conjugacy
    classes on the corpus match an independent oracle.  On each distinct
    (table, unary map) among the order-<=4 tables with their pseudoinverse
    maps and their unary variants, 290 of 1,053, taking the table's own
    model where a variant's pair equals it: ``in_E`` agrees with
    x^{n-1} x'' = x^n (n <= 3) and E_n <= V_n <= E_{n+1} holds (n <= 2);
    on each pseudoinverse map, E_2 plus (xy)'' = xy, ``in_W``,
    ``in_W_structural``, and "every Sc, every cS completely regular" agree,
    each distinct ideal Sc or cS tested once.  These criteria read only the
    table and the map, so a repeated pair has the same verdicts.
    On every distinct table among those and their variants, the index,
    pseudoinverse and unit that ``epigroup_data`` reads off powers equal
    the ones read off Green's relations (``_epigroup_oracle``), and
    ``green``'s classes satisfy R o L = L o R, D = J (R o L against both
    ``green``'s J and the J of the two-sided ideals S^1aS^1), and "H_a
    holds an idempotent" iff "a*a lies in H_a" (``_green_disagreements``)."""
    problems = []
    for order in (1, 2, 3):
        brute = {canonical_form(CayleyTable(tab)) for tab in _labelled_semigroups(order)}
        searched = {canonical_form(t) for t in semigroup_tables(order)}
        if brute != searched:
            problems.append(f"order {order}: search and brute force differ")
    for order in (1, 2, 3, 4):
        tables = semigroup_tables(order)
        forms = [canonical_form(t) for t in tables]
        # find_isomorphism's search runs on every pair, never skipped on
        # canonical forms, which it is checked against; each table's element
        # signatures are computed and sorted once
        rows = [t.table for t in tables]
        invs = [_invariants(r, None) for r in rows]
        for i in range(len(tables)):
            for j in range(i, len(tables)):
                phi = _isomorphism_search(rows[i], None, invs[i], rows[j], None, invs[j])
                iso = phi is not None
                if iso != (forms[i] == forms[j]):
                    problems.append(f"iso/canonical mismatch at order {order} ({i},{j})")
    for name in corpus_names():
        model = load_corpus(name)
        t = table_of(model)
        oracle = _conjugacy_oracle(t)
        report = check_transitivity(t)
        if [list(row) for row in report.relation] != oracle:
            problems.append(f"conjugacy relation mismatch on {name}")
        # classes from the oracle via union-find
        parent = list(range(t.order))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in range(t.order):
            for b in range(t.order):
                if oracle[a][b]:
                    parent[find(a)] = find(b)
        expected = {}
        for a in range(t.order):
            expected.setdefault(find(a), []).append(a)
        expected = sorted(tuple(sorted(v)) for v in expected.values())
        if sorted(report.classes) != expected:
            problems.append(f"conjugacy classes mismatch on {name}")
    # each distinct (table, unary map) once, as the corpus table's canonical
    # model where there is one, so that the W criteria see every table
    corpus = _corpus()
    distinct = {(s.base, s.unary): s for s, _ in corpus}
    for _, uvs in corpus:
        for uv in uvs:
            distinct.setdefault((uv.base, uv.unary), uv)
    for model in distinct.values():
        problems.extend(_variety_disagreements(model))
    for base in dict.fromkeys(base for base, _ in distinct):
        problems.extend(_green_disagreements(base))
        if epigroup_data(base) != _epigroup_oracle(base):
            problems.append(f"epigroup_data and Green's relations disagree at order {base.order}")
    detail = "; ".join(dict.fromkeys(problems)) or "all agree"
    return CheckOutcome("oracle-equivalences", not problems, detail)


def _is_group(t):
    e = identity_of(t)
    if e is None:
        return False
    n = t.order
    return all(any(t.table[a][b] == e and t.table[b][a] == e for b in range(n)) for a in range(n))


def _group_conjugacy_oracle(t):
    n = t.order
    e = identity_of(t)
    inv = [next(b for b in range(n) if t.table[a][b] == e) for a in range(n)]
    rel = [[False] * n for _ in range(n)]
    for a in range(n):
        for g in range(n):
            b = t.table[t.table[g][a]][inv[g]]
            rel[a][b] = True
            rel[b][a] = True
    return rel


def check_group_sanity():
    """On Z_2, Z_3 and S_3: primary conjugacy equals gag^-1 conjugacy, and
    every variant is a group whose star map is its inversion."""
    problems = []
    for name in ("z2.sgp", "z3.sgp", "s3.sgp"):
        t = load_corpus(name)
        if not _is_group(t):
            problems.append(f"{name} is not a group")
            continue
        if [list(r) for r in check_transitivity(t).relation] != _group_conjugacy_oracle(t):
            problems.append(f"{name}: primary conjugacy differs from group conjugacy")
        s = pseudoinverse_map(t)
        for c in range(t.order):
            v = variant(t, c)
            if not _is_group(v):
                problems.append(f"{name}: variant at {c} is not a group")
                continue
            e = identity_of(v)
            inversion = tuple(
                next(b for b in range(v.order) if v.table[a][b] == e) for a in range(v.order)
            )
            if star(s, c) != inversion:
                problems.append(f"{name}: star at {c} differs from variant inversion")
    return CheckOutcome("group-sanity", not problems, "; ".join(problems) or "all pass")


ALL_CHECKS = [
    check_v1_census,
    check_w_witness,
    check_pseudoinverse_identities,
    check_transport,
    check_variety_chain,
    check_variant_variety_closure,
    check_w_variant_conjugacy,
    check_variant_index_bounds,
    check_oracles,
    check_group_sanity,
]


def build_corpus():
    """Build the checks' shared corpus if it is not built yet; the seconds
    that took (about 0 once it is built)."""
    started = time.perf_counter()
    _corpus()
    return time.perf_counter() - started


def run_all(stream=None):
    """Run every check, optionally printing one pass/fail line each.
    Returns the list of (outcome, seconds).  The corpus is built first, so
    that no check's seconds include its build (``build_corpus``)."""
    build_corpus()
    results = []
    for fn in ALL_CHECKS:
        started = time.perf_counter()
        outcome = fn()
        elapsed = time.perf_counter() - started
        results.append((outcome, elapsed))
        if stream is not None:
            status = "PASS" if outcome.ok else "FAIL"
            print(f"{status} {outcome.name}: {outcome.detail} ({elapsed:.1f}s)", file=stream)
    return results
