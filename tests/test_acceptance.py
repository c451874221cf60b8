"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every expected value is exact (field elements and integers are
compared with zero tolerance) and the stated runtime targets are asserted.
"""
import random
import time
from itertools import combinations, permutations, product

import pytest

from dpnull.budget import Budget
from dpnull.ff import make_field
from dpnull import certify as X
from dpnull import cover as C
from dpnull import graphs as G
from dpnull import poly as P

F2 = make_field(2)
F3 = make_field(3)


def report(num, text):
    print(f"PASS  criterion {num}: {text}")


def bfs_relabel(tree):
    order = []
    seen = {1}
    queue = [1]
    while queue:
        v = queue.pop(0)
        order.append(v)
        for w in tree._neighbours[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return G.relabel(tree, tuple(order))


def test_criterion_1_k44_minus_matching_sweep():
    start = time.monotonic()
    g = G.complete_bipartite_minus_matching(4, 4, 2)
    full = X.certify_dp3(g)
    tree = X.certify_dp3(g, use_spanning_tree=True)
    assert full.passed and full.patterns_tested == 16384
    assert tree.passed and tree.patterns_tested == 128
    # lower bound: the graph contains a 4-cycle and cycles have chi_DP = 3
    assert g.contains_cycle()
    bounds = X.dp_chromatic_bounds(g)
    assert bounds.lower == 3
    chi_dp = 3  # sweep upper bound meets the cycle lower bound
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(1, f"K44-M2 sweep passes 16384 + 128 patterns, chi_DP = {chi_dp} "
              f"({elapsed:.1f}s)")


def test_criterion_2_k35_vanishing_coefficients():
    start = time.monotonic()
    g = G.complete_bipartite(3, 5)
    poly = P.from_graph(g, F3)
    targets = [
        t for t in product((0, 1, 2), repeat=8) if sum(t) == 15
    ]
    assert len(targets) == 8
    values = [P.coefficient_at(poly, t, "both") for t in targets]
    assert values == [0] * 8
    sweep = X.certify_dp3(g, use_spanning_tree=True)
    assert not sweep.passed
    assert tuple([-1] * 15) in sweep.failure.failing_patterns
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(2, f"K35: 8/8 qualifying coefficients vanish, all-minus pattern "
              f"fails ({elapsed:.1f}s)")


def test_criterion_3_c6sq_coefficient_pair():
    g = G.cycle_power(6, 2)
    f1 = P.from_graph(g, F3)
    signs = {e: (1 if e in {(1, 2), (1, 3)} else -1) for e in g.edges}
    f2 = P.from_graph(g, F3, signs=signs)
    v1 = P.coefficient_at(f1, (2,) * 6, "both")
    v2 = P.coefficient_at(f2, (2,) * 6, "both")
    assert (v1, v2) == (0, 1)
    report(3, "C6^2 all-squares coefficient: 0 for the plain polynomial, "
              "1 with the two flipped signs")


def test_criterion_4_shifted_covers_uncolorable():
    start = time.monotonic()
    for k in (2, 3):
        cov = C.uncolorable_cover_c3k_square(k)
        assert C.validate(cov) == []
        assert all(C.classify_saturation(cov, e).is_good for e in cov.graph.edges)
        assert C.h_coloring_search(cov) is None
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(4, f"shifted covers of C6^2 and C9^2: valid, all-good, "
              f"uncolorable ({elapsed:.1f}s)")


def test_criterion_5_cycle_square_table():
    table = []
    for n in range(3, 13):
        bounds = X.dp_chromatic_bounds(G.cycle_power(n, 2))
        assert bounds.exact is not None
        table.append(bounds.exact)
    assert table == [3, 4, 5, 4, 4, 4, 4, 4, 4, 4]
    report(5, f"chi_DP(Cn^2) for n=3..12 = {table}")


def test_criterion_6_cone_closed_forms():
    c4 = X.certify_cone_bipartite(G.cycle(4))
    c6 = X.certify_cone_bipartite(G.cycle(6))
    assert (c4.coefficient, c6.coefficient) == (2, 1)  # 2*(-1)^m over F_3
    k2p5 = X.certify_cone_unique3(G.join(G.empty_graph(2), G.path(5)))
    assert k2p5.coefficient == 1  # over F_4
    # the certifiers cross-check expansion against the grid internally
    # (method="both"); re-check the bipartite cones explicitly here
    for g, want in ((G.cycle(4), 2), (G.cycle(6), 1)):
        xs, ys = g.bipartition()
        gp = G.cone(G.relabel(g, xs + ys))
        poly = P.from_graph(gp, F3)
        target = (0,) + (2,) * g.n
        assert P.coefficient_at(poly, target, "expand") == want
        assert P.coefficient_at(poly, target, "grid") == want
    report(6, "cone coefficients: 2, 1 over F_3 and 1 over F_4; expand == grid")


def test_criterion_7_cone_c4_f_cover_exhaustion():
    start = time.monotonic()
    g = G.cone(G.cycle(4))
    res = C.f_dp_exhaustive(g, {1: 2, 2: 3, 3: 3, 4: 3, 5: 3}, Budget(500_000_000))
    assert res.status == "all_colorable"
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(7, f"cone of C4 with sizes (2,3,3,3,3): all {res.covers_tested} "
              f"reduced covers colorable ({elapsed:.1f}s)")


def test_criterion_8_trees_exact_and_unique_list():
    trees = [t for t in G.tree_catalog(10) if t.n >= 2]
    assert len(trees) == 200
    for tree in trees:
        res = C.exact_dp_chromatic(tree, 3)
        assert (res.status, res.value) == ("exact", 2)
        g = bfs_relabel(tree)
        lists = {v: ((0,) if v == 1 else (0, 1)) for v in range(1, g.n + 1)}
        cert = X.certify_unique_list(g, lists, 2)
        assert cert.coefficient != 0
    report(8, f"all {len(trees)} trees on <= 10 vertices: exact chi_DP = 2 "
              f"and the forced-list certificate holds")


def test_criterion_9_circulation_facts():
    def cyclic(n):
        g = G.cycle(n)
        return G.Orientation(g, tuple(0 if e == (1, n) else 1 for e in g.edges))

    assert P.alon_tarsi_diff(cyclic(4)) == 2
    assert P.alon_tarsi_diff(cyclic(6)) == 2
    for n in (4, 6, 8):
        poly = P.from_graph(G.cycle(n), F2)
        assert P.coefficient_at(poly, (1,) * n, "both") == 0

    def integer_expansion(edges, n):
        cur = {(0,) * n: 1}
        for (i, j) in edges:
            nxt = {}
            for exps, c in cur.items():
                for pos, coef in ((i - 1, c), (j - 1, -c)):
                    key = exps[:pos] + (exps[pos] + 1,) + exps[pos + 1:]
                    nxt[key] = nxt.get(key, 0) + coef
            cur = {k: v for k, v in nxt.items() if v}
        return cur

    regression = [
        G.path(4), G.cycle(3), G.cycle(4), G.cycle(5), G.cycle(6),
        G.complete(4), G.complete_bipartite(2, 3),
        G.from_edges(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]),
    ]
    checked = 0
    for g in regression:
        assert len(g.edges) <= 7
        expansion = integer_expansion(g.edges, g.n)
        for bits in product((0, 1), repeat=len(g.edges)):
            d = G.Orientation(g, bits)
            assert P.alon_tarsi_diff(d) == abs(expansion.get(d.outdegrees(), 0))
            checked += 1
    report(9, f"circulation examples plus the coefficient identity over "
              f"{checked} orientations")


def test_criterion_10_property_suites():
    # field axioms, exhaustively for every supported order up to 9
    for t in (2, 3, 4, 5, 7, 8, 9):
        f = make_field(t)
        els = list(f.elements)
        for a in els:
            assert f.pow(a, t) == a
            if a:
                assert f.mul(a, f.inv(a)) == 1
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    # expand vs grid on 200 seeded random instances
    rng = random.Random(20240)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(1, min(8, 2 * n))
        factors = []
        for _ in range(m):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            factors.append(P.Factor(i, j, rng.choice((-1, 1)), rng.randrange(3)))
        poly = P.EdgeProductPolynomial(F3, n, tuple(factors))
        while True:
            target = [0] * n
            left = m
            ok = True
            for pos in range(n):
                hi = min(2, left)
                lo = max(0, left - 2 * (n - pos - 1))
                if lo > hi:
                    ok = False
                    break
                target[pos] = rng.randint(lo, hi)
                left -= target[pos]
            if ok and left == 0:
                break
        target = tuple(target)
        assert P.coefficient_at(poly, target, "expand") == P.coefficient_at(
            poly, target, "grid"
        )

    # saturation classification is never `bad` over F_3
    full = (0, 1, 2)
    count = 0
    for k in range(0, 4):
        for dom in combinations(full, k):
            for img in permutations(full, k):
                sigma = dict(zip(dom, img))
                cov = C.Cover(G.path(2), 3, (full, full), {(1, 2): sigma} if sigma else {})
                assert C.classify_saturation(cov, (1, 2)).kind != C.BAD
                count += 1
    assert count == 34

    # renaming preserves transversal counts for every perfect cover of P3, P4
    for g in (G.path(3), G.path(4)):
        perms = list(permutations(range(3)))
        for assignment in product(perms, repeat=len(g.edges)):
            labels = tuple(tuple(range(3)) for _ in range(g.n))
            matchings = {
                e: {a: p[a] for a in range(3)} for e, p in zip(g.edges, assignment)
            }
            cov = C.Cover(g, 3, labels, matchings)
            renamed, _ = C.tree_normalize(cov)
            assert C.count_transversals(renamed) == C.count_transversals(cov)

    # every emitted certificate's witness validates
    emitted = []
    cov = C.cover_from_pattern(G.cycle(4), 3)
    emitted.append((cov, X.certify_order3_cover(cov)))
    cov = C.cover_from_pattern(G.path(4), 2)
    emitted.append((cov, X.certify_good_cover(cov)))
    g = G.cycle_power(6, 2)
    signs = {e: (1 if e in {(1, 2), (1, 3)} else -1) for e in g.edges}
    cov = C.cover_from_pattern(g, 3, signs, {e: 0 for e in g.edges})
    emitted.append((cov, X.certify_order3_cover(cov)))
    for cov, cert in emitted:
        assert cert is not None and cert.verified
        assert C.is_valid_transversal(cov, cert.witness)

    report(10, "field axioms (t <= 9), 200 expand/grid agreements, 34 "
               "saturation maps, renaming counts, witness validity")
