"""Certifier soundness: every certificate is honored by the oracle, the
pattern sweeps count and verdict correctly, and the family certifiers
enforce their hypotheses."""
import random
import tracemalloc
from functools import partial
from itertools import permutations, product
from operator import mul

import pytest

from dpnull.budget import Budget, BudgetExceeded
from dpnull.errors import PreconditionError
from dpnull.ff import make_field
from dpnull import certify as X
from dpnull import cover as C
from dpnull import graphs as G
from dpnull import poly as P


def all_perfect_covers(g, m):
    labels = tuple(tuple(range(m)) for _ in range(g.n))
    perms = list(permutations(range(m)))
    for assignment in product(perms, repeat=len(g.edges)):
        matchings = {
            e: {a: p[a] for a in range(m)} for e, p in zip(g.edges, assignment)
        }
        yield C.Cover(g, C.smallest_prime_power(m), labels, matchings)


def random_cover(rng, g, m):
    labels = tuple(tuple(range(m)) for _ in range(g.n))
    matchings = {}
    for e in g.edges:
        perm = list(range(m))
        rng.shuffle(perm)
        matchings[e] = {a: perm[a] for a in range(m)}
    return C.Cover(g, C.smallest_prime_power(m), labels, matchings)


# ---------------------------------------------------------------------------
# whole-cover certifiers

def test_tree_two_fold_covers_always_certify():
    rng = random.Random(3)
    for tree in G.tree_catalog(6):
        if tree.n < 2:
            continue
        cov = random_cover(rng, tree, 2)
        cert = X.certify_good_cover(cov)
        assert cert is not None
        assert cert.coefficient == 1
        assert sum(cert.monomial) == len(tree.edges)
        assert all(e <= 1 for e in cert.monomial)
        assert cert.verified and C.is_valid_transversal(cov, cert.witness)


def test_path_certificate_monomial_matches_root_at_last_vertex():
    cov = C.cover_from_pattern(G.path(3), 2)
    cert = X.certify_good_cover(cov)
    assert cert.monomial == (1, 1, 0)


def test_even_cycle_two_fold_has_no_certificate():
    for n in (4, 6):
        cov = C.cover_from_pattern(G.cycle(n), 2)
        assert X.certify_good_cover(cov) is None


def test_k35_good_cover_has_no_certificate_yet_is_colorable():
    cov = C.cover_from_pattern(G.complete_bipartite(3, 5), 3)
    assert X.certify_good_cover(cov) is None
    assert C.h_coloring_search(cov) is not None  # the converse fails


def test_good_certifier_rejects_bad_sum_covers():
    g = G.cycle(4)
    cov = C.cover_from_pattern(g, 3, {e: 1 for e in g.edges}, {e: 0 for e in g.edges})
    with pytest.raises(PreconditionError, match="good-diff"):
        X.certify_good_cover(cov)


def test_order3_certifier_rejects_other_orders():
    with pytest.raises(PreconditionError, match="order 3"):
        X.certify_order3_cover(C.cover_from_pattern(G.cycle(4), 2))


def test_order3_certifies_identity_c4_cover():
    cov = C.cover_from_pattern(G.cycle(4), 3)
    cert = X.certify_order3_cover(cov)
    assert cert is not None and cert.verified
    assert C.is_valid_transversal(cov, cert.witness)


def test_order3_certifies_c6sq_pattern_cover():
    g = G.cycle_power(6, 2)
    signs = {e: (1 if e in {(1, 2), (1, 3)} else -1) for e in g.edges}
    cov = C.cover_from_pattern(g, 3, signs, {e: 0 for e in g.edges})
    cert = X.certify_order3_cover(cov)
    assert cert is not None
    assert cert.monomial == (2,) * 6 and cert.coefficient == 1
    assert cert.pattern == tuple(signs[e] for e in g.edges)
    assert C.is_valid_transversal(cov, cert.witness)


def test_order3_all_good_c6sq_cover_not_certifiable():
    assert X.certify_order3_cover(C.cover_from_pattern(G.cycle_power(6, 2), 3)) is None


@pytest.mark.parametrize(
    "g", [G.path(3), G.cycle(3), G.cycle(4), G.cycle(5)], ids=("P3", "C3", "C4", "C5")
)
def test_order3_soundness_exhaustive_tiny(g):
    """Whenever the signed certifier returns a certificate, the oracle finds a
    coloring; checked over every perfect-matching 3-fold cover."""
    certified = 0
    for cov in all_perfect_covers(g, 3):
        cert = X.certify_order3_cover(cov)
        if cert is not None:
            certified += 1
            assert C.is_valid_transversal(cov, cert.witness)
            assert C.h_coloring_search(cov) is not None
    assert certified > 0


def _random_good_cover(rng, g, t):
    """Shuffled label subsets, each edge a difference-constant matching."""
    fld = make_field(t)
    labels = tuple(tuple(rng.sample(range(t), rng.randint(2, t))) for _ in range(g.n))
    matchings = {}
    for i, j in g.edges:
        beta = rng.randrange(t)
        matchings[(i, j)] = {a: fld.sub(a, beta) for a in labels[i - 1]
                             if fld.sub(a, beta) in labels[j - 1]}
    return C.Cover(g, t, labels, matchings)


def test_witness_is_the_first_nonzero_point_of_the_label_grid():
    """The witness scan stops at the lex-first nonzero point and charges
    its rank + 1 grid points, on top of the steps of the offset-free
    expansion that found the monomial."""
    rng = random.Random(2012)
    checked = 0
    for _ in range(60):
        g = G.from_edges(6, sorted(rng.sample(
            [(i, j) for i in range(1, 7) for j in range(i + 1, 7)], rng.randint(4, 9))))
        for cov, certify in ((random_cover(rng, g, 3), X.certify_order3_cover),
                             (_random_good_cover(rng, g, rng.choice((3, 4, 5))),
                              X.certify_good_cover)):
            budget = Budget(10**9)
            cert = certify(cov, budget)
            if cert is None:
                continue
            poly = P.from_graph(g, cov.field, signs=dict(zip(g.edges, cert.pattern)),
                                offsets=dict(zip(g.edges, cert.offsets)))
            rank, point = next((rank, p) for rank, p in enumerate(product(*cov.labels))
                               if poly.evaluate(p))
            assert cert.witness == point
            assert cert.work["grid_points"] == rank + 1
            expand = Budget(10**9)
            offset_free = P.from_graph(g, cov.field, signs=dict(zip(g.edges, cert.pattern)))
            P.expand_packed(offset_free, tuple(len(l) - 1 for l in cov.labels), expand)
            assert budget.spent == expand.spent + rank + 1
            checked += 1
    assert checked >= 100


def test_good_certifier_with_offsets_over_f4():
    """A good prime 4-cover of the cone with one apex label: certified and
    oracle-confirmed."""
    g = G.cone(G.join(G.empty_graph(2), G.path(5)))
    fld = make_field(4)
    rng = random.Random(13)
    labels = ((0,),) + tuple(tuple(range(4)) for _ in range(7))
    matchings = {}
    for (i, j) in g.edges:
        beta = rng.randrange(4)
        dom = labels[i - 1]
        matchings[(i, j)] = {a: fld.sub(a, beta) for a in dom}
    cov = C.Cover(g, 4, labels, matchings)
    assert C.validate(cov) == []
    cert = X.certify_good_cover(cov)
    assert cert is not None
    assert cert.monomial == (0,) + (3,) * 7
    assert C.is_valid_transversal(cov, cert.witness)


# ---------------------------------------------------------------------------
# the dp3 sweep

def test_dp3_k44_minus_matching_both_modes():
    g = G.complete_bipartite_minus_matching(4, 4, 2)
    full = X.certify_dp3(g)
    assert full.passed and full.patterns_tested == 16384
    assert len(full.certificates) == 16384
    tree = X.certify_dp3(g, use_spanning_tree=True)
    assert tree.passed and tree.patterns_tested == 128


def test_dp3_k35_failure_report():
    g = G.complete_bipartite(3, 5)
    res = X.certify_dp3(g, use_spanning_tree=True)
    assert not res.passed
    assert res.patterns_tested == 2 ** (15 - 8 + 1)
    assert tuple([-1] * 15) in res.failure.failing_patterns
    assert res.failure.failing_patterns == tuple(sorted(res.failure.failing_patterns))


def test_dp3_failing_patterns_reverify_by_direct_expansion():
    g = G.complete_bipartite(3, 5)
    res = X.certify_dp3(g, use_spanning_tree=True)
    fld = make_field(3)
    for pat in res.failure.failing_patterns[:4]:
        signs = dict(zip(g.edges, pat))
        poly = P.from_graph(g, fld, signs=signs)
        assert P.find_qualifying_monomial(poly, (2,) * 8) is None


def test_dp3_certificates_reverify_by_direct_expansion():
    g = G.cycle(4)
    res = X.certify_dp3(g)
    assert res.passed and res.patterns_tested == 16
    fld = make_field(3)
    for cert in res.certificates:
        signs = dict(zip(g.edges, cert.pattern))
        poly = P.from_graph(g, fld, signs=signs)
        assert P.coefficient_at(poly, cert.monomial, "both") == cert.coefficient
        found = P.find_qualifying_monomial(poly, (2,) * 4)
        assert found == (cert.monomial, cert.coefficient)


@pytest.mark.parametrize(
    "g",
    [G.cycle(3), G.cycle(4), G.cycle(5), G.cycle(6), G.complete(4), G.complete_bipartite(2, 3)],
    ids=("C3", "C4", "C5", "C6", "K4", "K23"),
)
def test_dp3_tree_mode_agrees_with_full_mode(g):
    full = X.certify_dp3(g, collect_certificates=False)
    tree = X.certify_dp3(g, use_spanning_tree=True, collect_certificates=False)
    assert full.passed == tree.passed
    assert tree.patterns_tested == 2 ** (len(g.edges) - g.n + 1)


def test_dp3_pass_implies_sampled_covers_colorable():
    g = G.complete_bipartite_minus_matching(4, 4, 2)
    assert X.certify_dp3(g, use_spanning_tree=True, collect_certificates=False).passed
    rng = random.Random(1000)
    for _ in range(1000):
        cov = random_cover(rng, g, 3)
        assert C.h_coloring_search(cov) is not None


def test_dp3_preconditions():
    with pytest.raises(PreconditionError):
        X.certify_dp3(G.empty_graph(3))
    with pytest.raises(PreconditionError):
        X.certify_dp3(G.path(4), use_spanning_tree=True)  # acyclic
    with pytest.raises(PreconditionError):
        X.certify_dp3(G.from_edges(5, [(1, 2), (3, 4), (4, 5), (3, 5)]),
                      use_spanning_tree=True)  # disconnected


def _random_sweep_graphs():
    """Seeded graphs with at most 10 edges: random ones (many disconnected,
    some forests, some with isolated vertices) plus fixed cases of each."""
    rng = random.Random(2003)
    graphs = [
        G.from_edges(5, [(1, 2), (2, 3), (1, 3)]),  # triangle plus two isolated
        G.from_edges(7, [(1, 2), (1, 3), (4, 5), (4, 6), (6, 7)]),  # forest
        G.from_edges(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7), (4, 6)]),
        G.path(2),
    ]
    while len(graphs) < 36:
        n = rng.randint(3, 8)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        m = rng.randint(2, min(10, len(pairs)))
        graphs.append(G.from_edges(n, rng.sample(pairs, m)))
    return graphs


def test_dp3_all_edges_matches_per_pattern_expansion():
    """Switched certificates against an independent expansion of every
    pattern's polynomial."""
    fld = make_field(3)
    graphs = _random_sweep_graphs()
    assert any(not g.is_connected() for g in graphs)
    assert any(not g.contains_cycle() for g in graphs)
    assert any(g.degree(v) == 0 for g in graphs for v in range(1, g.n + 1))
    for g in graphs:
        passes = []
        failing = []
        for pattern in product((-1, 1), repeat=len(g.edges)):
            poly = P.from_graph(g, fld, signs=dict(zip(g.edges, pattern)))
            found = P.find_qualifying_monomial(poly, (2,) * g.n)
            if found is None:
                failing.append(pattern)
            else:
                passes.append((pattern, *found))
        res = X.certify_dp3(g)
        assert res.patterns_tested == 2 ** len(g.edges)
        assert [(c.pattern, c.monomial, c.coefficient) for c in res.certificates] == passes
        assert (res.failure.failing_patterns if res.failure else ()) == tuple(failing)
        bare = X.certify_dp3(g, collect_certificates=False)
        assert bare.certificates == ()
        assert bare.failure == res.failure


def test_dp3_budget_exhaustion():
    g = G.cycle_power(6, 2)
    used = Budget(10**9)
    full = X.certify_dp3(g, budget=used)
    with pytest.raises(BudgetExceeded):
        X.certify_dp3(g, budget=Budget(used.spent))
    assert X.certify_dp3(g, budget=Budget(used.spent + 1)) == full


def _dead(exps, later):
    """Whether some edge of `later` has both ends at exponent 2 in `exps`."""
    return any(exps[i - 1] == exps[j - 1] == 2 for i, j in later)


def ref_sweep_signs(n, all_edges, order, co, collect, budget,
                    max_terms=P.DEFAULT_MAX_TERMS, prune=True):
    """The sweep as one apply_factor_packed call per sign-tree node per
    factor, unpacking every key of a leaf to find its lex-greatest
    monomial.  order lists every factor in the order they are multiplied,
    co[k] whether order[k] is a co-forest factor (its sign swept) or a
    forest one (pinned to -1).  With prune, each product then loses the
    terms that have a factor still to be multiplied with both ends at
    exponent 2; the size limit applies to what is kept.

    It charges the budget in the bit-sliced kernel's order: the sign tree
    in chunks of at most X.SLICE_DEPTH co-forest levels, the top chunk
    the short one, depth first; within a chunk one tick per factor for
    the whole level, the size of the union of its nodes' keys.  The term
    limit applies to that union, and an empty level charges every node
    from it down at once."""
    fld = make_field(3)
    caps = (2,) * n
    var_edges = [e for e, c in zip(order, co) if c]
    depth = len(var_edges)

    def times(cur, step, sign):
        i, j = order[step]
        out = P.apply_factor_packed(cur, P.Factor(i, j, sign, 0), caps, fld)
        if prune:
            later = order[step + 1:]
            out = {k: c for k, c in out.items() if not _dead(P.unpack_exponents(k, n), later)}
        return out

    def stored(maps, below):
        """Check and charge one level's maps; whether any holds a key."""
        size = len(set().union(*maps))
        if size > max_terms:
            raise P.ExpansionLimitError(size, max_terms)
        if not size:
            budget.tick(min(len(maps) * ((2 << below) - 1), budget.limit - budget.spent))
        else:
            budget.tick(size)
        return size > 0

    passes = []
    failures = []

    def leaf(signs, cur):
        pattern = tuple(signs.get(e, -1) for e in all_edges)
        if not cur:
            failures.append(pattern)
        elif collect:
            best = max(cur, key=lambda k: P.unpack_exponents(k, n))
            passes.append((pattern, P.unpack_exponents(best, n), cur[best]))
        else:
            passes.append((pattern, None, None))

    def chunk(cur, step, idx, signs):
        """The chunk rooted at the node with map cur, before factor
        `step`, idx co-forest factors from the root: its nodes level by
        level, in sign-tree order."""
        end = min(depth, idx + (depth - idx - 1) % X.SLICE_DEPTH + 1)
        level = [(signs, cur)]
        for step in range(step, len(order)):
            e = order[step]
            if co[step] and idx == end:
                for sg, m in level:
                    chunk(m, step, idx, sg)
                return
            if co[step]:
                level = [({**sg, e: s}, times(m, step, s)) for sg, m in level for s in (-1, 1)]
                idx += 1
            else:
                level = [(sg, times(m, step, -1)) for sg, m in level]
            if not stored([m for _, m in level], depth - idx):
                for sg, _ in level:
                    for tail in product((-1, 1), repeat=depth - idx):
                        leaf({**sg, **dict(zip(var_edges[idx:], tail))}, {})
                return
        for sg, m in level:
            leaf(sg, m)

    chunk({0: 1}, 0, 0, {})
    return passes, failures


def _sweep_args(g, switched=True):
    """The arguments certify_dp3 passes _sweep_signs (every edge in the
    sweep's factor order, which of them are co-forest edges, and the kappa
    weights of those) and the _PatternSpace that names the leaves:
    all-edges mode, or spanning-tree mode when switched is False."""
    forest = set(G.spanning_tree(g))
    order = X._factor_order(g)
    co = [e not in forest for e in order]
    space = X._PatternSpace(g, forest, switched)
    return g.n, order, co, _weights(g, space, order, co), space


def _weights(g, space, order, co):
    """The kappa of each co-forest edge of order at +1 alone, in order."""
    return [space.slot_kap[g.edges.index(e)] for e, c in zip(order, co) if c]


def _located(space, swept):
    """A reference sweep's (passes, failures) with each pattern replaced
    by the kappa of its representative."""
    passes, failures = swept
    return ([(space.locate(p)[0], mono, c) for p, mono, c in passes],
            [space.locate(p)[0] for p in failures])


def _unpacked(n, swept):
    """The kernel's (passes, failures) with each packed top key unpacked
    into its exponent vector."""
    passes, failures = swept
    return ([(k, None if top is None else _digits(top, n), c) for k, top, c in passes],
            failures)


def _digits(key, n):
    return tuple(key >> 2 * (n - v) & 3 for v in range(1, n + 1))


def _kernel_graphs():
    """Seeded graphs with n <= 8 and at most 12 edges (many disconnected,
    some forests, some with isolated vertices) plus fixed cases of each."""
    rng = random.Random(4004)
    graphs = [
        G.from_edges(6, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)]),  # K_4, 2 isolated
        G.from_edges(8, [(1, 2), (1, 3), (4, 5), (4, 6), (6, 7)]),  # forest
        G.from_edges(8, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (5, 7), (7, 8)]),
        G.complete_bipartite(3, 3),
        G.cycle_power(7, 2),
    ]
    while len(graphs) < 40:
        n = rng.randint(3, 8)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        graphs.append(G.from_edges(n, rng.sample(pairs, rng.randint(2, min(12, len(pairs))))))
    return graphs


# slice depths for the kernel-against-reference tests: at 1 and 3 the small
# graphs' sign trees cross the slice boundary, at the default most do not
SLICE_DEPTHS = (1, 3, X.SLICE_DEPTH)


def test_sweep_kernel_matches_per_pattern_expansion(monkeypatch):
    """Each forest-pinned pattern's monomial, coefficient and verdict from
    the bit-sliced sweep, in both modes and at each slice depth, against
    find_qualifying_monomial on that pattern's polynomial, and the budget
    it charges against the dict-map sweep."""
    fld = make_field(3)
    graphs = _kernel_graphs()
    assert any(not g.is_connected() for g in graphs)
    assert any(not g.contains_cycle() for g in graphs)
    assert any(g.degree(v) == 0 for g in graphs for v in range(1, g.n + 1))
    tree_mode = 0
    for g in graphs:
        n, order, co, _, _ = _sweep_args(g)
        var = [e for e, c in zip(order, co) if c]
        edges = g.edges
        passes = []
        failing = []
        for signs in product((-1, 1), repeat=len(var)):
            pattern = dict.fromkeys(edges, -1)
            pattern.update(zip(var, signs))
            found = P.find_qualifying_monomial(P.from_graph(g, fld, signs=pattern), (2,) * n)
            key = tuple(pattern[e] for e in edges)
            if found is None:
                failing.append(key)
            else:
                passes.append((key, *found))
        for collect in (True, False):
            want = passes if collect else [(p, None, None) for p, _, _ in passes]
            # the leaves named in both modes' kappa coordinates (a forest
            # has no spanning-tree mode)
            for switched, depth in product((True, False) if var else (True,), SLICE_DEPTHS):
                monkeypatch.setattr(X, "SLICE_DEPTH", depth)
                _, _, _, weights, space = _sweep_args(g, switched)
                budget = Budget(10**9)
                got = _unpacked(n, X._sweep_signs(n, order, co, weights, collect, budget))
                assert got == _located(space, (want, failing))
                ref = Budget(10**9)
                assert _located(space, ref_sweep_signs(n, edges, order, co, collect, ref)) == got
                assert budget.spent == ref.spent
            if g.is_connected() and g.contains_cycle():
                tree_mode += 1
                res = X.certify_dp3(g, use_spanning_tree=True, collect_certificates=collect)
                # certify_dp3 lists the representatives in pattern-lex order
                certs = [(c.pattern, c.monomial, c.coefficient) for c in res.certificates]
                assert certs == (sorted(passes) if collect else [])
                assert (res.failure.failing_patterns if res.failure else ()) == tuple(sorted(failing))
            full = X.certify_dp3(g, collect_certificates=collect)
            assert full.passed == (not failing)
    assert tree_mode >= 40  # (graph, collect) pairs in spanning-tree mode


def test_sweep_kernel_budget_matches_dict_sweep_per_block_and_on_exhaustion(monkeypatch):
    """The sweep charges what the dict-map sweep charges, and a budget runs
    out at the same step, also inside subtrees whose map is empty, at each
    slice depth."""
    graphs = [G.complete(5), G.cycle_power(7, 2), G.complete_bipartite(3, 4),
              G.from_edges(7, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4),
                               (4, 5), (5, 6), (6, 7), (5, 7)]),
              # K_6 minus {23, 46}: a whole slice level of 2 (depth 3) or
              # 128 (depth 10) nodes has every key capped or dead
              G.from_edges(6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5),
                               (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6)])]
    rng = random.Random(77)
    for g in graphs:
        n, order, co, weights, space = _sweep_args(g)
        total = Budget(10**9)
        X._sweep_signs(n, order, co, weights, False, total)
        limits = sorted({1, 2, total.spent, total.spent + 1,
                         *rng.sample(range(1, total.spent), 40)})
        kernel = lambda b: _unpacked(n, X._sweep_signs(n, order, co, weights, False, b))
        reference = lambda b: _located(space, ref_sweep_signs(n, g.edges, order, co, False, b))
        for limit, depth in product(limits, SLICE_DEPTHS):
            monkeypatch.setattr(X, "SLICE_DEPTH", depth)
            outcomes = []
            for sweep in (kernel, reference):
                budget = Budget(limit)
                try:
                    outcomes.append((sweep(budget), budget.spent))
                except BudgetExceeded as exc:
                    outcomes.append(("exhausted", exc.spent))
            assert outcomes[0] == outcomes[1], (g, limit, depth)


def test_sweep_kernel_raises_the_expansion_limit_where_the_dict_sweep_does(monkeypatch):
    g = G.cycle_power(7, 2)
    n, order, co, weights, space = _sweep_args(g)
    raised = dict.fromkeys(SLICE_DEPTHS, 0)
    for limit, depth in product((1, 4, 16, 40, 60, 100, 400), SLICE_DEPTHS):
        monkeypatch.setattr(X, "DEFAULT_MAX_TERMS", limit)
        monkeypatch.setattr(X, "SLICE_DEPTH", depth)
        outcomes = []
        for sweep in (
            lambda b: _unpacked(n, X._sweep_signs(n, order, co, weights, True, b)),
            lambda b: _located(space, ref_sweep_signs(n, g.edges, order, co, True, b,
                                                      max_terms=limit)),
        ):
            budget = Budget(10**9)
            try:
                outcomes.append(sweep(budget))
            except P.ExpansionLimitError as exc:
                outcomes.append(("limit", exc.size, exc.limit, budget.spent))
        assert outcomes[0] == outcomes[1], (limit, depth)
        raised[depth] += outcomes[0][0] == "limit"
    assert all(0 < r < 7 for r in raised.values()), raised
    monkeypatch.setattr(X, "DEFAULT_MAX_TERMS", 4)
    with pytest.raises(P.ExpansionLimitError):
        X.certify_dp3(g)


def ref_switchings(g):
    """The vertex switchings that fix each component's lowest vertex, one
    (cut, flips, parity, mask) per vertex set S avoiding those vertices:
    cut the edges with exactly one end in S as a bitmask (edge 0 the most
    significant bit), flips the same edges as a -1 per edge, parity the
    parity of the edges whose lower end lies in S, and mask the set S
    (vertex v at bit v - 1)."""
    m = len(g.edges)
    star = [0] * (g.n + 1)
    lower = [0] * (g.n + 1)
    for k, (i, j) in enumerate(g.edges):
        bit = 1 << (m - 1 - k)
        star[i] |= bit
        star[j] |= bit
        lower[i] ^= 1
    roots = {comp[0] for comp in g.components()}
    sets = [(0, 0, 0)]
    for v in range(1, g.n + 1):
        if v not in roots:
            sets += [(cut ^ star[v], par ^ lower[v], mask | 1 << (v - 1))
                     for cut, par, mask in sets]
    return [
        (cut, tuple(-1 if cut >> (m - 1 - k) & 1 else 1 for k in range(m)), par, mask)
        for cut, par, mask in sets
    ]


def ref_switch_all(g, passes, failures, collect, budget):
    """The materialising switch the lazy sequences replaced: every
    pattern's (pattern, monomial, coefficient) pass in pattern-lex order,
    and every failing pattern, built from the representatives."""
    switchings = ref_switchings(g)
    switched_passes = []
    if collect:
        slots = [None] * (1 << len(g.edges))
        for pattern, mono, coeff in passes:
            budget.tick(len(switchings))
            base = sum(1 << (len(pattern) - 1 - k) for k, s in enumerate(pattern) if s > 0)
            odd = sum(1 << v for v, a in enumerate(mono) if a & 1)
            for cut, flips, parity, mask in switchings:
                c = 3 - coeff if (parity + (odd & mask).bit_count()) & 1 else coeff
                slots[base ^ cut] = (tuple(map(mul, pattern, flips)), mono, c)
        switched_passes = [s for s in slots if s is not None]
    switched_failures = []
    for pattern in failures:
        budget.tick(len(switchings))
        switched_failures += [tuple(map(mul, pattern, flips)) for _, flips, _, _ in switchings]
    return switched_passes, sorted(switched_failures)


def ref_certify_dp3(g, use_spanning_tree, collect, budget, sweep=ref_sweep_signs):
    """(certificates, failing patterns) as tuples, from a reference sweep
    and ref_switch_all."""
    n, order, co, _, _ = _sweep_args(g)
    passes, failures = sweep(n, g.edges, order, co, collect, budget)
    if use_spanning_tree:
        # the sweep emits them in its sign-tree order; certify_dp3 lists them
        # in pattern-lex order
        passes, failures = sorted(passes), sorted(failures)
    else:
        passes, failures = ref_switch_all(g, passes, failures, collect, budget)
    certs = tuple(
        X.Certificate(kind="dp3-pattern", t=3, n=n, monomial=mono, coefficient=coeff,
                      pattern=pattern)
        for pattern, mono, coeff in passes
    ) if collect else ()
    return certs, tuple(failures)


def _check_sequence(seq, want, absent, rng):
    """A lazy sequence against the tuple it stands for."""
    assert isinstance(seq, X.PatternSequence)
    assert len(seq) == len(want) and bool(seq) == bool(want)
    assert tuple(seq) == want and list(iter(seq)) == list(want)
    assert seq == want and want == seq and not seq != want
    assert seq != want + (None,) and seq != list(want)
    for i in rng.sample(range(len(want)), min(len(want), 12)):
        assert seq[i] == want[i] and seq[i - len(want)] == want[i - len(want)]
    for bad in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            seq[bad]
    with pytest.raises(TypeError):
        seq[0.0]
    for _ in range(6):
        a, b = rng.randrange(-3, len(want) + 3), rng.randrange(-3, len(want) + 3)
        for step in (None, 1, 3, -2):
            assert seq[a:b:step] == want[a:b:step]
    assert seq[:] == want and seq[::-1] == want[::-1]
    for item in rng.sample(want, min(len(want), 12)):
        assert item in seq
    for item in absent:
        assert item not in seq


def test_lazy_sequences_match_the_materialised_switch():
    """certificates and failing_patterns, in both modes and with and
    without certificates, against the materialising reference: len,
    iteration, indices, slices, `in` and ==, and the budget charged."""
    rng = random.Random(5005)
    checked = 0
    for g in _random_sweep_graphs() + _kernel_graphs():
        modes = [False] + ([True] if g.is_connected() and g.contains_cycle() else [])
        for tree, collect in product(modes, (True, False)):
            ref = Budget(10**9)
            certs, failing = ref_certify_dp3(g, tree, collect, ref)
            budget = Budget(10**9)
            res = X.certify_dp3(g, use_spanning_tree=tree, budget=budget,
                                collect_certificates=collect)
            assert budget.spent == ref.spent
            assert res.passed == (not failing)
            assert res.certificates == certs
            # absent items: the other verdict's patterns, a pattern one sign
            # longer, signs that are not +-1, a list, a + on a pinned forest
            # edge, and a certificate with its coefficient negated
            passing = tuple(c.pattern for c in certs)
            absent = [passing[0] + (1,)] if passing else []
            absent += [(0,) * len(g.edges), list(failing[0]) if failing else None]
            if tree:
                absent.append((1,) * len(g.edges))
            _check_sequence(res.certificates, certs,
                            absent + list(failing[:5]) + [
                                X.Certificate(**{**c.__dict__, "coefficient": 3 - c.coefficient})
                                for c in certs[:5]],
                            rng)
            if failing:
                _check_sequence(res.failure.failing_patterns, failing,
                                absent + list(passing[:5]) + list(certs[:5]), rng)
            else:
                assert res.failure is None
            checked += 1
    assert checked >= 200


def test_switch_charge_stops_where_one_tick_per_representative_does():
    """certify_dp3 charges all the all-edges switchings in one tick; a
    budget that runs out inside that phase stops at the spend of
    ref_certify_dp3's one tick per representative."""
    rng = random.Random(8008)
    exhausted = 0
    for g in [G.complete_bipartite(3, 3), G.cycle_power(7, 2), G.complete(5),
              *_random_sweep_graphs()[:16]]:
        n, order, co, weights, _ = _sweep_args(g)
        for collect in (True, False):
            swept, total = Budget(10**9), Budget(10**9)
            X._sweep_signs(n, order, co, weights, collect, swept)
            X.certify_dp3(g, budget=total, collect_certificates=collect)
            inside = range(swept.spent + 1, total.spent + 1)
            limits = {*inside[:3], *inside[-2:], total.spent + 1,
                      *rng.sample(inside, min(len(inside), 8))}
            for limit in sorted(limits):
                outcomes = []
                for run in (
                    lambda b: X.certify_dp3(g, budget=b, collect_certificates=collect),
                    lambda b: ref_certify_dp3(g, False, collect, b),
                ):
                    budget = Budget(limit)
                    try:
                        run(budget)
                        outcomes.append(("done", budget.spent))
                    except BudgetExceeded as exc:
                        outcomes.append(("exhausted", exc.spent, budget.spent))
                assert outcomes[0] == outcomes[1], (g, collect, limit)
                exhausted += outcomes[0][0] == "exhausted"
    assert exhausted >= 150


def test_pruned_sweep_keeps_every_leaf(monkeypatch):
    """Dropping dead terms changes no result and never costs budget: the
    sweep and certify_dp3, in both modes and with and without
    certificates, against the unpruned dict sweep, and every map the
    kernel stores, forest factors included, checked for a remaining edge
    with both ends at 2."""
    stored = []

    def spy(build):
        def wrapped(cur, *args):
            out = build(cur, *args)
            i, j, _, _, _ = args[-5:]
            stored.append(((i, j), out))
            return out
        return wrapped

    monkeypatch.setattr(X, "_level", spy(X._level))
    monkeypatch.setattr(X, "_times", spy(X._times))
    unpruned = partial(ref_sweep_signs, prune=False)
    checked = saved = forest_maps = 0
    for g in _kernel_graphs() + _random_sweep_graphs():
        n, order, co, _, _ = _sweep_args(g)
        modes = [False] + ([True] if g.is_connected() and g.contains_cycle() else [])
        for tree, collect in product(modes, (True, False)):
            _, _, _, weights, space = _sweep_args(g, switched=not tree)
            stored.clear()
            ref = Budget(10**9)
            want = _located(space, unpruned(n, g.edges, order, co, collect, ref))
            budget = Budget(10**9)
            got = X._sweep_signs(n, order, co, weights, collect, budget)
            assert _unpacked(n, got) == want
            assert budget.spent <= ref.spent
            saved += budget.spent < ref.spent
            ref = Budget(10**9)
            certs, failing = ref_certify_dp3(g, tree, collect, ref, unpruned)
            budget = Budget(10**9)
            res = X.certify_dp3(g, use_spanning_tree=tree, budget=budget,
                                collect_certificates=collect)
            assert res.certificates == certs
            assert (res.failure.failing_patterns if res.failure else ()) == failing
            assert budget.spent <= ref.spent
            for edge, out in stored:
                k = order.index(edge)
                forest_maps += not co[k]
                for key in out:
                    assert not _dead(_digits(key, n), order[k + 1:]), (g, edge, _digits(key, n))
            checked += 1
    assert checked >= 200 and saved >= 50 and forest_maps >= 1000


def test_sweep_results_do_not_depend_on_the_factor_order():
    """The factor order moves only the steps: edge order, the sweep's
    degree order, the forest edges first and two seeded shuffles of the
    whole order, forest edges interleaved, give the same passes and
    failures once both are sorted by kappa."""
    rng = random.Random(6006)
    reordered = interleaved = 0
    for g in _kernel_graphs() + _random_sweep_graphs():
        n, order, co, _, space = _sweep_args(g)
        forest = {e for e, c in zip(order, co) if not c}
        first = tuple(sorted(order, key=lambda e: e not in forest))
        reordered += order != tuple(sorted(order))
        orders = (g.edges, order, first, *(tuple(rng.sample(order, len(order))) for _ in range(2)))
        results = []
        for edges in orders:
            flags = [e not in forest for e in edges]
            interleaved += flags != sorted(flags)
            passes, failures = X._sweep_signs(n, edges, flags, _weights(g, space, edges, flags),
                                              True, Budget(10**9))
            results.append((sorted(passes), sorted(failures)))
        for edges, got in zip(orders, results):
            assert got == results[0], (g, edges)
    assert reordered >= 30 and interleaved >= 100


def test_factor_order_pins_the_c13sq_steps():
    """C_13^2's spanning-tree sweep stores 36,088 keys in the degree
    order, and more with the forest edges first (the spanning tree, then
    the co-forest edges in degree order) or in edge order, so a change of
    order shows here."""
    g = G.cycle_power(13, 2)
    budget = Budget(10**9)
    X.certify_dp3(g, use_spanning_tree=True, budget=budget)
    assert budget.spent == 36_088
    n, order, co, _, space = _sweep_args(g, switched=False)
    first = (*G.spanning_tree(g), *(e for e, c in zip(order, co) if c))
    spent = []
    for edges in (first, g.edges):
        flags = [co[order.index(e)] for e in edges]
        other = Budget(10**9)
        X._sweep_signs(n, edges, flags, _weights(g, space, edges, flags), False, other)
        spent.append(other.spent)
    assert spent == [60_884, 39_261]


def test_deep_sign_tree_exhausts_the_budget_in_bounded_memory():
    """K_50 has 1,176 co-forest edges: the sign tree is walked in chunks,
    depth first, so the sweep runs out of budget without holding more
    than one chunk's child roots per chunk level."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            X.certify_dp3(G.complete(50), budget=Budget(20_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_all_edges_failing_patterns_do_not_grow_with_the_pattern_count():
    """K_7 fails every one of its 2^21 patterns: the result holds its
    32,768 failing representatives, not 2^21 sign tuples."""
    g = G.complete(7)
    tracemalloc.start()
    try:
        res = X.certify_dp3(g, collect_certificates=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    failing = res.failure.failing_patterns
    assert len(failing) == res.patterns_tested == 2 ** 21
    assert peak < 32 * 2**20
    fld = make_field(3)
    rng = random.Random(7)
    for i in rng.sample(range(2 ** 21), 20):
        pattern = failing[i]
        assert sum(1 << (20 - k) for k, s in enumerate(pattern) if s > 0) == i
        poly = P.from_graph(g, fld, signs=dict(zip(g.edges, pattern)))
        assert P.find_qualifying_monomial(poly, (2,) * 7) is None


def test_k35_external_ground_truth_recorded():
    # chi_DP(K_{3,5}) = 3 is known externally; the sweep still fails, which
    # is exactly the expected converse failure
    g = G.complete_bipartite(3, 5)
    CHI_DP_K35 = 3  # external reference value, not derived here
    res = X.certify_dp3(g, use_spanning_tree=True, collect_certificates=False)
    assert not res.passed
    assert CHI_DP_K35 == 3


# ---------------------------------------------------------------------------
# family certifiers

def test_unique_list_tree_shapes():
    for tree in G.tree_catalog(6):
        if tree.n < 2:
            continue
        # re-root by BFS so every later vertex has exactly one earlier neighbor
        order = []
        seen = {1}
        queue = [1]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(tree.adjacency[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        g = G.relabel(tree, tuple(order))
        lists = {v: ((0,) if v == 1 else (0, 1)) for v in range(1, g.n + 1)}
        cert = X.certify_unique_list(g, lists, 2)
        assert cert.coefficient != 0 and cert.verified


def test_unique_list_k3_example():
    cert = X.certify_unique_list(
        G.complete(3), {1: (0,), 2: (0, 1), 3: (0, 1, 2)}, 3
    )
    assert cert.witness == (0, 1, 2)
    assert cert.monomial == (0, 1, 2)
    assert cert.coefficient != 0


def test_unique_list_rejections():
    with pytest.raises(PreconditionError, match="exactly one"):
        X.certify_unique_list(G.cycle(4), {v: (0, 1) for v in range(1, 5)}, 2)
    with pytest.raises(PreconditionError, match="sum"):
        X.certify_unique_list(G.path(2), {1: (0, 1), 2: (0, 1)}, 2)  # 4 != 3


def test_cone_bipartite_values():
    assert X.certify_cone_bipartite(G.cycle(4)).coefficient == 2
    assert X.certify_cone_bipartite(G.cycle(6)).coefficient == 1


def test_cone_bipartite_unicyclic():
    # C_4 with a pendant vertex: connected bipartite, |V| = |E| = 5
    g = G.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5)])
    cert = X.certify_cone_bipartite(g)
    m = cert.work["part_size"]
    assert cert.coefficient == (2 if m % 2 == 0 else 1)
    assert cert.coefficient != 0


def test_cone_bipartite_rejections():
    with pytest.raises(PreconditionError, match="bipartite"):
        X.certify_cone_bipartite(G.cycle(5))
    with pytest.raises(PreconditionError, match=r"\|V\| = \|E\|"):
        X.certify_cone_bipartite(G.path(4))
    with pytest.raises(PreconditionError, match="connected"):
        X.certify_cone_bipartite(G.from_edges(8, list(G.cycle(4).edges)
                                              + [(i + 4, j + 4) for i, j in G.cycle(4).edges]))


def test_cone_unique3_example():
    g = G.join(G.empty_graph(2), G.path(5))
    cert = X.certify_cone_unique3(g)
    assert cert.coefficient == 1
    assert cert.t == 4


def test_cone_unique3_rejects_forced_wrong_class_order():
    g = G.join(G.empty_graph(2), G.path(5))
    good = X.certify_cone_unique3(g).work["class_order"]
    wrong = next(
        p for p in permutations(range(3)) if p != tuple(good)
    )
    with pytest.raises(PreconditionError, match="congruence"):
        X.certify_cone_unique3(g, class_order=wrong)


def test_cone_unique3_rejects_non_unique():
    with pytest.raises(PreconditionError):
        X.certify_cone_unique3(G.cycle(6))


# ---------------------------------------------------------------------------
# bounds

def test_bounds_cycle_square_examples():
    assert X.dp_chromatic_bounds(G.cycle_power(5, 2)).exact == 5
    assert X.dp_chromatic_bounds(G.cycle_power(6, 2)).exact == 4
    assert X.dp_chromatic_bounds(G.cycle_power(9, 2)).exact == 4


def test_bounds_build_cycle_squares_only_for_components_with_2n_edges(monkeypatch):
    """C_n^2 is built for the uncolorable-cover test only when a component
    with 3 | n >= 6 has 2n edges: never on a path, once on C_9^2."""
    calls = []
    cycle_power = X.cycle_power

    def counted(n, k):
        calls.append((n, k))
        return cycle_power(n, k)

    monkeypatch.setattr(X, "cycle_power", counted)
    assert X.dp_chromatic_bounds(G.path(30000)).exact == 2
    assert calls == []
    bounds = X.dp_chromatic_bounds(G.cycle_power(9, 2))
    assert calls == [(9, 2)]
    assert any(note.endswith("uncolorable 3-fold cover of C_9^2, lower bound 4")
               for note in bounds.notes)


def test_bounds_even_cycle_resolved_by_cycle_rule():
    b = X.dp_chromatic_bounds(G.cycle(6))
    assert b.exact == 3
    assert any("cycle" in note for note in b.notes)


def test_bounds_tree_and_complete():
    assert X.dp_chromatic_bounds(G.path(5)).exact == 2
    assert X.dp_chromatic_bounds(G.complete(4)).exact == 4
    assert X.dp_chromatic_bounds(G.empty_graph(2)).exact == 1


def test_bounds_disconnected_takes_max():
    g = G.from_edges(7, list(G.cycle(3).edges) + [(4, 5), (6, 7)])
    assert X.dp_chromatic_bounds(g).exact == 3


def test_bounds_never_below_chromatic_number():
    for g in (G.cycle(5), G.complete(4), G.cycle_power(7, 2)):
        b = X.dp_chromatic_bounds(g)
        assert b.lower >= G.chromatic_number(g, g.n)


@pytest.mark.parametrize("name", ["cone(c4)", "c6sq", "k3,3", "c7", "p6", "k4"])
def test_a_connected_graph_gives_what_its_copy_gives(name):
    """The bounds and the exact search use a connected graph itself as its
    one component; a renumbered copy must give the same results, notes,
    counterexamples and spend."""
    g = G.parse_graph_name(name)
    copy = g.subgraph(tuple(range(1, g.n + 1)))
    assert copy is not g and g.is_connected()
    results = []
    for h in (g, copy):
        bounds_budget, exact_budget = Budget(10**8), Budget(10**8)
        exact = C.exact_dp_chromatic(h, 3, exact_budget)
        bad = exact.counterexample
        results.append((X.dp_chromatic_bounds(h, bounds_budget), bounds_budget.spent,
                        exact, exact_budget.spent, bad and C.write_cover(bad)))
    assert results[0] == results[1]


def test_bounds_k44_without_sweep_stays_open():
    b = X.dp_chromatic_bounds(G.complete_bipartite_minus_matching(4, 4, 2))
    assert (b.lower, b.upper) == (3, 4)
    assert b.exact is None


def test_bounds_survive_a_search_that_spends_the_budget():
    # K_{4,6} (bounds 3..5) refutes m = 3 in about 0.33 M steps and runs
    # out of budget at m = 4; the C_6^2 component after it must still get
    # its bounds, not exit
    a, b = G.complete_bipartite(4, 6), G.cycle_power(6, 2)
    g = G.from_edges(16, list(a.edges) + [(i + 10, j + 10) for i, j in b.edges])
    bounds = X.dp_chromatic_bounds(g, Budget(1_300_000), max_m=4)
    assert (bounds.lower, bounds.upper, bounds.exact) == (4, 5, None)
    assert any("ran out of budget at m = 4" in note for note in bounds.notes)
    assert any(note.startswith("component 2") and "upper bound" in note for note in bounds.notes)


def test_bounds_do_not_report_an_unresolved_chromatic_number():
    # the budget runs out inside chromatic_number; the fallback lower
    # bound of 1 must not be reported as the chromatic number
    bounds = X.dp_chromatic_bounds(G.complete(5), Budget(3))
    assert bounds.notes == (
        "component 1 (5 vertices): chromatic number not resolved within budget",
        "component 1 (5 vertices): contains a cycle, lower bound 3",
        "component 1 (5 vertices): complete, upper bound 5",
    )
    assert (bounds.lower, bounds.upper, bounds.exact) == (3, 5, None)
