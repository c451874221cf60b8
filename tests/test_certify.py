"""Certifier soundness: every certificate is honored by the oracle, the
pattern sweeps count and verdict correctly, and the family certifiers
enforce their hypotheses."""
import ast
import random
import re
import tracemalloc
from collections import Counter
from functools import partial, reduce
from itertools import combinations, groupby, permutations, product
from operator import mul, xor
from pathlib import Path

import pytest

from dpnull.budget import Budget, BudgetExceeded
from dpnull.caching import cached_attribute
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


@pytest.mark.parametrize("limit", (64, 69))
def test_order3_budget_spent_in_the_witness_names_the_oracle(limit):
    # the lex-first walk for the monomial spends 63 steps, the witness's
    # H-coloring search 6 more, one per label tried
    g = G.cycle_power(6, 2)
    signs = {e: (1 if e in {(1, 2), (1, 3)} else -1) for e in g.edges}
    cov = C.cover_from_pattern(g, 3, signs, {e: 0 for e in g.edges})
    budget = Budget(limit)
    with pytest.raises(BudgetExceeded,
                       match=f"while searching for an H-coloring: {limit} >= {limit} steps"):
        X.certify_order3_cover(cov, budget)
    assert budget.spent == limit


@pytest.mark.parametrize("certify", (X.certify_order3_cover, X.certify_good_cover),
                         ids=("order3", "good"))
def test_long_cycle_cover_is_certified_in_linear_steps(certify):
    """The identity cover of C_1001: the lex-first walk reads the monomial
    in 6,201 steps, where the whole expansion outgrew its map limit, and
    the witness search tries one label per vertex, 1,001 more."""
    cov = C.cover_from_pattern(G.cycle(1001), 3)
    budget = Budget(10**9)
    cert = certify(cov, budget)
    assert cert.coefficient == 1
    assert C.is_valid_transversal(cov, cert.witness)
    assert cert.work == {"labels": 1001}
    assert budget.spent == 7202


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
    """The witness is the lex-first nonzero point of the label grid, and
    the certifier spends the steps of the lex-first walk that found the
    monomial plus those of the H-coloring search on the factors'
    zero-set cover, which are its work["labels"]."""
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
            signs = dict(zip(g.edges, cert.pattern))
            offsets = dict(zip(g.edges, cert.offsets))
            poly = P.from_graph(g, cov.field, signs=signs, offsets=offsets)
            assert cert.witness == next(p for p in product(*cov.labels) if poly.evaluate(p))
            walk = Budget(10**9)
            P.find_qualifying_monomial(poly, tuple(len(l) - 1 for l in cov.labels), walk)
            zeros = C.Cover(g, cov.t, cov.labels,
                            C.cover_from_pattern(g, cov.t, signs, offsets).matchings)
            search = Budget(10**9)
            assert C.h_coloring_search(zeros, search) == cert.witness
            assert cert.work["labels"] == search.spent
            assert budget.spent == walk.spent + search.spent
            checked += 1
    assert checked >= 100


def test_witness_search_exhausts_under_the_oracle_label_at_every_limit():
    """From the first step after the monomial walk to just past the full
    spend, a certifier under Budget(limit) either runs out at its limit
    in the witness's H-coloring search or returns the same certificate at
    the same spend."""
    rng = random.Random(2025)
    checked = 0
    for _ in range(25):
        g = G.from_edges(5, sorted(rng.sample(
            [(i, j) for i in range(1, 6) for j in range(i + 1, 6)], rng.randint(4, 8))))
        for cov, certify in ((random_cover(rng, g, 3), X.certify_order3_cover),
                             (_random_good_cover(rng, g, rng.choice((3, 4, 5))),
                              X.certify_good_cover)):
            full = Budget(10**9)
            cert = certify(cov, full)
            if cert is None:
                continue
            checked += 1
            for limit in range(full.spent - cert.work["labels"] + 1, full.spent + 3):
                budget = Budget(limit)
                if limit <= full.spent:
                    with pytest.raises(BudgetExceeded, match=(
                            f"^budget exceeded while searching for an H-coloring: "
                            f"{limit} >= {limit} steps$")):
                        certify(cov, budget)
                    assert budget.spent == limit
                else:
                    got = certify(cov, budget)
                    assert (got, got.work, budget.spent) == (cert, cert.work, full.spent)
    assert checked >= 30


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
    full = X.certify_dp3(g)
    tree = X.certify_dp3(g, use_spanning_tree=True)
    assert full.passed == tree.passed
    assert tree.patterns_tested == 2 ** (len(g.edges) - g.n + 1)


def test_dp3_pass_implies_sampled_covers_colorable():
    g = G.complete_bipartite_minus_matching(4, 4, 2)
    assert X.certify_dp3(g, use_spanning_tree=True).passed
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


def ref_sweep_signs(n, all_edges, order, co, budget,
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
        else:
            best = max(cur, key=lambda k: P.unpack_exponents(k, n))
            passes.append((pattern, P.unpack_exponents(best, n), cur[best]))

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


def _kappa(space, pattern):
    """The kappa of a pattern's representative: the XOR of the kappas of
    its + slots."""
    return reduce(xor, (k for s, k in zip(pattern, space.slot_kap) if s == 1), 0)


def _lower(g):
    """The vertices (vertex v at bit v - 1) that are the lower end of an
    odd number of edges, which _sweep_signs XORs into each flip mask."""
    return reduce(xor, (1 << (i - 1) for i, _ in g.edges), 0)


def _keyed(space, swept, lower):
    """A reference sweep's (passes, failures) as the kernel's kappa-keyed
    payloads (certs, fails): each pattern replaced by the kappa of its
    representative, each pass by (monomial, coefficient, flip), flip the
    lower vertices XOR the vertices at an odd exponent.  The passes and
    failures name every kappa exactly once between them."""
    passes, failures = swept
    fails = {_kappa(space, p): True for p in failures}
    passing = {_kappa(space, p) for p, _, _ in passes}
    assert passing.isdisjoint(fails)
    assert len(passing) + len(fails) == len(passes) + len(failures) == 1 << space.rank
    certs = {}
    for p, mono, c in passes:
        odd = sum(1 << v for v, a in enumerate(mono) if a & 1)
        certs[_kappa(space, p)] = (mono, c, lower ^ odd)
    return certs, fails


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
        # the leaves named in both modes' kappa coordinates (a forest has
        # no spanning-tree mode)
        for switched, depth in product((True, False) if var else (True,), SLICE_DEPTHS):
            monkeypatch.setattr(X, "SLICE_DEPTH", depth)
            _, _, _, weights, space = _sweep_args(g, switched)
            budget = Budget(10**9)
            got = X._sweep_signs(n, order, co, weights, budget)
            assert got == _keyed(space, (passes, failing), _lower(g))
            ref = Budget(10**9)
            assert _keyed(space, ref_sweep_signs(n, edges, order, co, ref), _lower(g)) == got
            assert budget.spent == ref.spent
        full_spent = Budget(10**9)
        full = X.certify_dp3(g, budget=full_spent)
        assert full.passed == (not failing)
        if g.is_connected() and g.contains_cycle():
            tree_mode += 1
            tree_spent = Budget(10**9)
            res = X.certify_dp3(g, use_spanning_tree=True, budget=tree_spent)
            # certify_dp3 lists the representatives in pattern-lex order
            certs = [(c.pattern, c.monomial, c.coefficient) for c in res.certificates]
            assert certs == sorted(passes)
            assert (res.failure.failing_patterns if res.failure else ()) == tuple(sorted(failing))
            # both modes report every pattern they test, certificate or
            # failure, and all-edges mode charges one step per pattern on
            # top of the same sweep
            for r in (full, res):
                assert len(r.certificates) + (len(r.failure.failing_patterns) if r.failure else 0) \
                    == r.patterns_tested
            assert full_spent.spent == tree_spent.spent + 2 ** len(edges)
    assert tree_mode >= 20  # graphs swept in spanning-tree mode


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
        X._sweep_signs(n, order, co, weights, total)
        limits = sorted({1, 2, total.spent, total.spent + 1,
                         *rng.sample(range(1, total.spent), 40)})
        kernel = lambda b: X._sweep_signs(n, order, co, weights, b)
        reference = lambda b: _keyed(space, ref_sweep_signs(n, g.edges, order, co, b), _lower(g))
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
            lambda b: X._sweep_signs(n, order, co, weights, b),
            lambda b: _keyed(space, ref_sweep_signs(n, g.edges, order, co, b,
                                                    max_terms=limit), _lower(g)),
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


def ref_switch_all(g, passes, failures, budget):
    """The materialising switch the lazy sequences replaced: every
    pattern's (pattern, monomial, coefficient) pass in pattern-lex order,
    and every failing pattern, built from the representatives."""
    switchings = ref_switchings(g)
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


def ref_certify_dp3(g, use_spanning_tree, budget, sweep=ref_sweep_signs):
    """(certificates, failing patterns) as tuples, from a reference sweep
    and ref_switch_all."""
    n, order, co, _, _ = _sweep_args(g)
    passes, failures = sweep(n, g.edges, order, co, budget)
    if use_spanning_tree:
        # the sweep emits them in its sign-tree order; certify_dp3 lists them
        # in pattern-lex order
        passes, failures = sorted(passes), sorted(failures)
    else:
        passes, failures = ref_switch_all(g, passes, failures, budget)
    certs = tuple(
        X.Certificate(kind="dp3-pattern", t=3, n=n, monomial=mono, coefficient=coeff,
                      pattern=pattern)
        for pattern, mono, coeff in passes
    )
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
    """certificates and failing_patterns, in both modes, against the
    materialising reference: len, iteration, indices, slices, `in` and ==,
    and the budget charged."""
    rng = random.Random(5005)
    checked = 0
    for g in _random_sweep_graphs() + _kernel_graphs():
        modes = [False] + ([True] if g.is_connected() and g.contains_cycle() else [])
        for tree in modes:
            ref = Budget(10**9)
            certs, failing = ref_certify_dp3(g, tree, ref)
            budget = Budget(10**9)
            res = X.certify_dp3(g, use_spanning_tree=tree, budget=budget)
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
            assert list(reversed(res.certificates)) == list(reversed(certs))
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
    assert checked >= 100  # (graph, mode) pairs


def ref_pattern_space(g, forest, switched):
    """(kap, sig, dims, slot_kap) of _PatternSpace by full reduction: each
    bit's representative is reduced by every pivot vector whose pivot bit
    it has, highest pivot first, and the pivots are kept sorted.  A
    switched forest edge's S is the set of vertices whose forest path to
    the root runs through the edge's end away from the root, found by
    walking up."""
    m = len(g.edges)

    def up(v):
        while v:
            yield v
            v = g.forest[v]

    below = {}
    if switched:
        for v, parent in g.forest.items():
            if parent:
                side = {u for u in range(1, g.n + 1) if v in up(u)}
                cut = sum(1 << (m - 1 - k) for k, (i, j) in enumerate(g.edges)
                          if (i in side) != (j in side))
                below[(min(v, parent), max(v, parent))] = (sum(1 << (u - 1) for u in side), cut)
    free = [k for k, e in enumerate(g.edges) if switched or e not in forest]
    kap, sig, dims = [], [], [0]
    reduced = []  # (pivot bit, vector, its kappa), by descending pivot
    for k in reversed(free):
        mask, cut = below.get(g.edges[k], (0, 0))
        rep = 1 << (m - 1 - k) ^ cut
        kappa = 0
        for pivot, vec, vk in reduced:
            if rep >> pivot & 1:
                rep ^= vec
                kappa ^= vk
        if rep:
            d = dims[-1]
            reduced.append((rep.bit_length() - 1, rep, kappa ^ 1 << d))
            reduced.sort(reverse=True)
            kappa = 1 << d
        kap.append(kappa)
        sig.append(mask)
        dims.append(dims[-1] + bool(rep))
    slot_kap = [0] * m
    for k, kappa in zip(reversed(free), kap):
        slot_kap[k] = kappa
    return kap, sig, dims, slot_kap


def test_pattern_space_elimination_matches_full_reduction():
    """_PatternSpace reduces each representative by its leading bit only;
    on seeded graphs up to 14 vertices, in both modes, its kappas,
    switching sets, ranks and slot kappas are those of ref_pattern_space's
    full reduction."""
    rng = random.Random(9009)
    graphs = _kernel_graphs() + _random_sweep_graphs() + [
        G.complete_bipartite(4, 5), G.cone(G.cycle(10)), G.cycle_power(13, 2)]
    while len(graphs) < 400:
        n = rng.randint(2, 14)
        pairs = list(combinations(range(1, n + 1), 2))
        graphs.append(G.from_edges(n, rng.sample(pairs, rng.randint(1, min(30, len(pairs))))))
    tree_mode = 0
    for g in graphs:
        forest = set(G.spanning_tree(g))
        for switched in (True, False)[:1 + g.contains_cycle()]:
            space = X._PatternSpace(g, forest, switched)
            got = space.kap, space.sig, space.dims, space.slot_kap
            assert got == ref_pattern_space(g, forest, switched), (g, switched)
            assert space.rank == space.dims[-1]
            tree_mode += not switched
    assert tree_mode >= 200


def test_streaming_skips_blocks_without_a_member():
    """K_{3,4} with a 30-edge pendant path has 42 free bits in all-edges
    mode and 64 representatives.  With one member, the sequence reaches
    its first item, the pattern-lex first one of that representative,
    after at most one block of payload lookups, whichever member it is."""

    class Lookups(dict):
        calls = 0

        def get(self, key, default=None):
            self.calls += 1
            assert self.calls <= 2 ** X._PatternSpace.BLOCK, "read a block with no member"
            return super().get(key, default)

    k34 = G.complete_bipartite(3, 4)
    g = G.from_edges(37, k34.edges + tuple((v, v + 1) for v in range(7, 37)))
    space = X._PatternSpace(g, set(G.spanning_tree(g)), switched=True)
    assert (space.nbits, space.rank) == (42, 6)
    # the path's signs leave kappa alone, so each member's first pattern
    # has them all -1
    first = {}
    for head in product((-1, 1), repeat=12):
        first.setdefault(_kappa(space, head), head + (-1,) * 30)
    assert len(first) == 64
    for member, want in first.items():
        payload = Lookups({member: True})
        seq = X.PatternSequence(space, payload, X._bare)
        assert len(seq) == 1 << 36
        assert next(iter(seq)) == want


def test_switch_charge_stops_where_one_tick_per_representative_does():
    """certify_dp3 charges all the all-edges switchings in one tick; a
    budget that runs out inside that phase stops at the spend of
    ref_certify_dp3's one tick per representative."""
    rng = random.Random(8008)
    exhausted = 0
    for g in [G.complete_bipartite(3, 3), G.cycle_power(7, 2), G.complete(5),
              *_random_sweep_graphs()[:16]]:
        n, order, co, weights, _ = _sweep_args(g)
        swept, total = Budget(10**9), Budget(10**9)
        X._sweep_signs(n, order, co, weights, swept)
        X.certify_dp3(g, budget=total)
        inside = range(swept.spent + 1, total.spent + 1)
        limits = {*inside[:3], *inside[-2:], total.spent + 1,
                  *rng.sample(inside, min(len(inside), 8))}
        for limit in sorted(limits):
            outcomes = []
            for run in (
                lambda b: X.certify_dp3(g, budget=b),
                lambda b: ref_certify_dp3(g, False, b),
            ):
                budget = Budget(limit)
                try:
                    run(budget)
                    outcomes.append(("done", budget.spent))
                except BudgetExceeded as exc:
                    outcomes.append(("exhausted", exc.spent, budget.spent))
            assert outcomes[0] == outcomes[1], (g, limit)
            exhausted += outcomes[0][0] == "exhausted"
    assert exhausted >= 150


def test_pruned_sweep_keeps_every_leaf(monkeypatch):
    """Dropping dead terms changes no result and never costs budget: the
    sweep and certify_dp3, in both modes, against the unpruned dict sweep,
    and every map the kernel stores, forest factors included, checked for
    a remaining edge with both ends at 2."""
    stored = []

    def spy(build):
        def wrapped(cur, *args):
            out = build(cur, *args)
            inc_i, _, _, inc_j, _, _ = args[-6:]
            stored.append(((inc_i, inc_j), out))
            return out
        return wrapped

    monkeypatch.setattr(X, "_level", spy(X._level))
    monkeypatch.setattr(X, "_times", spy(X._times))
    unpruned = partial(ref_sweep_signs, prune=False)
    checked = saved = forest_maps = 0
    for g in _kernel_graphs() + _random_sweep_graphs():
        n, order, co, _, _ = _sweep_args(g)
        modes = [False] + ([True] if g.is_connected() and g.contains_cycle() else [])
        for tree in modes:
            _, _, _, weights, space = _sweep_args(g, switched=not tree)
            stored.clear()
            ref = Budget(10**9)
            want = _keyed(space, unpruned(n, g.edges, order, co, ref), _lower(g))
            budget = Budget(10**9)
            got = X._sweep_signs(n, order, co, weights, budget)
            assert got == want
            assert budget.spent <= ref.spent
            saved += budget.spent < ref.spent
            ref = Budget(10**9)
            certs, failing = ref_certify_dp3(g, tree, ref, unpruned)
            budget = Budget(10**9)
            res = X.certify_dp3(g, use_spanning_tree=tree, budget=budget)
            assert res.certificates == certs
            assert (res.failure.failing_patterns if res.failure else ()) == failing
            assert budget.spent <= ref.spent
            for incs, out in stored:
                # x_v's digit is at bit 2(n - v), so inc_v decodes to v
                edge = tuple(n - (inc.bit_length() - 1) // 2 for inc in incs)
                k = order.index(edge)
                forest_maps += not co[k]
                for key in out:
                    assert not _dead(_digits(key, n), order[k + 1:]), (g, edge, _digits(key, n))
            checked += 1
    assert checked >= 100 and saved >= 25 and forest_maps >= 500


def degree_sum_order(g):
    """The edges by descending deg(i) + deg(j), ties by descending edge:
    one more order for the sweep to agree with."""
    return tuple(sorted(g.edges, key=lambda e: (g.degree(e[0]) + g.degree(e[1]), e),
                        reverse=True))


def ref_factor_order(g):
    """The sweep's elimination order by a plain peel, and each vertex's
    place in it.  The peel removes, by min(), a vertex of least degree in
    what is left, ties to the lower degree in g and then the lower index;
    the vertices come in reverse removal order, each bringing its edges
    to the vertices before it, farthest first."""
    left = {v: g.degree(v) for v in range(1, g.n + 1)}
    removed = []
    while left:
        v = min(left, key=lambda u: (left[u], g.degree(u), u))
        del left[v]
        removed.append(v)
        for w in g._neighbours[v]:
            if w in left:
                left[w] -= 1
    place = {v: p for p, v in enumerate(reversed(removed))}
    order = []
    for v in reversed(removed):
        back = sorted((w for w in g._neighbours[v] if place[w] < place[v]), key=place.get)
        order += [(min(v, w), max(v, w)) for w in back]
    return tuple(order), place


def test_factor_order_is_the_reference_elimination_order():
    """On seeded graphs up to 30 vertices, ties and isolated vertices
    among them, _factor_order is every edge once, in ref_factor_order's
    order; each vertex's edges back come together, and the most any
    vertex has is coloring_number() - 1."""
    rng = random.Random(7007)
    graphs = _kernel_graphs() + _random_sweep_graphs() + [
        G.complete_bipartite(3, 5), G.complete_bipartite_minus_matching(4, 4, 2),
        G.cone(G.cycle(10)), G.complete_bipartite(4, 5), G.cycle_power(13, 2), G.complete(7),
        G.path(9), G.cycle(1001)]
    while len(graphs) < 300:
        n = rng.randint(2, 30)
        pairs = list(combinations(range(1, n + 1), 2))
        graphs.append(G.from_edges(n, rng.sample(pairs, rng.randint(1, min(60, len(pairs))))))
    for g in graphs:
        order = X._factor_order(g)
        want, place = ref_factor_order(g)
        assert order == want, g
        assert sorted(order) == list(g.edges)
        later = [max(e, key=place.get) for e in order]
        runs = [v for v, _ in groupby(later)]
        assert len(runs) == len(set(runs)), g
        assert max(Counter(later).values()) == g.coloring_number() - 1, g


def test_sweep_results_do_not_depend_on_the_factor_order():
    """The factor order moves only the steps: edge order, the sweep's
    elimination order, the degree-sum order, the forest edges first and
    two seeded shuffles of the whole order, forest edges interleaved, give
    the same kappa-keyed certificates and failures."""
    rng = random.Random(6006)
    reordered = interleaved = by_sum = 0
    for g in _kernel_graphs() + _random_sweep_graphs():
        n, order, co, _, space = _sweep_args(g)
        forest = {e for e, c in zip(order, co) if not c}
        first = tuple(sorted(order, key=lambda e: e not in forest))
        reordered += order != tuple(sorted(order))
        by_sum += order != degree_sum_order(g)
        orders = (g.edges, order, degree_sum_order(g), first,
                  *(tuple(rng.sample(order, len(order))) for _ in range(2)))
        results = []
        for edges in orders:
            flags = [e not in forest for e in edges]
            interleaved += flags != sorted(flags)
            results.append(X._sweep_signs(n, edges, flags, _weights(g, space, edges, flags),
                                          Budget(10**9)))
        for edges, got in zip(orders, results):
            assert got == results[0], (g, edges)
    assert reordered >= 30 and interleaved >= 100 and by_sum >= 30


def _tree_sweep_spend(g, edges):
    """The keys g's spanning-tree sweep stores when it multiplies edges in
    this order."""
    n, order, co, _, space = _sweep_args(g, switched=False)
    flags = [co[order.index(e)] for e in edges]
    budget = Budget(10**9)
    X._sweep_signs(n, edges, flags, _weights(g, space, edges, flags), budget)
    return budget.spent


def test_factor_order_pins_the_c13sq_steps():
    """C_13^2's spanning-tree sweep stores 36,088 keys in the elimination
    order, which is its degree-sum order too, and more with the forest
    edges first (the spanning tree, then the co-forest edges in the
    elimination order) or in edge order, so a change of order shows here.
    K_{3,5} and K_{4,4} - M_2 store 477 and 623 keys in the elimination
    order, and 893 and 836 in the degree-sum order."""
    g = G.cycle_power(13, 2)
    budget = Budget(10**9)
    X.certify_dp3(g, use_spanning_tree=True, budget=budget)
    assert budget.spent == 36_088
    order = X._factor_order(g)
    assert order == degree_sum_order(g)
    tree = G.spanning_tree(g)
    first = (*tree, *(e for e in order if e not in tree))
    assert [_tree_sweep_spend(g, edges) for edges in (first, g.edges)] == [60_884, 39_261]
    for name, want, by_sum in (("k3,5", 477, 893), ("k4,4-m2", 623, 836)):
        g = G.parse_graph_name(name)
        budget = Budget(10**9)
        X.certify_dp3(g, use_spanning_tree=True, budget=budget)
        assert (budget.spent, _tree_sweep_spend(g, degree_sum_order(g))) == (want, by_sum)


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
        res = X.certify_dp3(g)
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
    res = X.certify_dp3(g, use_spanning_tree=True)
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
            for w in tree._neighbours[v]:
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


def test_cone_unique3_rejects_graph_failing_every_class_order():
    # uniquely 3-colorable with 2|V| = |E|, but no ordering of its classes
    # meets the congruences
    g = G.join(G.empty_graph(4), G.path(3))
    assert 2 * g.n == len(g.edges)
    assert G.unique_k_analysis(g, 3).sizes == (4, 2, 1)
    with pytest.raises(PreconditionError, match="class congruences fail for every ordering"):
        X.certify_cone_unique3(g)


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


@pytest.mark.parametrize("m", (1, 2, 3, 4))
@pytest.mark.parametrize("c", (0, 1, 2, 3))
def test_cover_orbits_match_brute_force(m, c):
    # the orbits of S_m acting by simultaneous conjugation on c-tuples of
    # permutations, each named by its least member
    perms = list(permutations(range(m)))

    def conjugate(sigma, pi):
        # sigma pi sigma^-1 maps sigma(a) to sigma(pi(a))
        image = [0] * m
        for a, b in enumerate(pi):
            image[sigma[a]] = sigma[b]
        return tuple(image)

    orbits = {min(tuple(conjugate(s, pi) for pi in t) for s in perms)
              for t in product(perms, repeat=c)}
    assert X._cover_orbits(m, c, 10**9) == len(orbits)
    # a limit below the count gives a count above the limit
    assert X._cover_orbits(m, c, len(orbits) - 1) > len(orbits) - 1


def test_cover_orbits_stop_past_the_limit():
    # S_3: 6^(c-1) + 2^(c-1) + 3^(c-1) orbits, the identity's term first
    assert [X._cover_orbits(3, c, 10**9) for c in (4, 5, 6)] == [251, 1393, 8051]
    assert X._cover_orbits(3, 6, 8050) == 7776 + 32 + 243
    assert X._cover_orbits(3, 6, 7800) == 7776 + 32
    assert X._cover_orbits(3, 6, 7775) == 7776
    assert X._cover_orbits(3, 7, 20_000) == 6 ** 6


def test_bounds_gate_the_exact_search_on_orbits():
    # K_{3,4} has 6^6 = 46,656 covers at m = 3 but 8,051 orbits, so the
    # search runs; K_{3,5} has 6^7 / 6 + ... > 20,000 orbits and stays open
    b = X.dp_chromatic_bounds(G.complete_bipartite(3, 4))
    assert (b.lower, b.upper, b.exact) == (3, 3, 3)
    assert b.notes[-1] == "component 1 (7 vertices): exact search over 46656 covers gives 3"
    b = X.dp_chromatic_bounds(G.complete_bipartite(3, 5))
    assert (b.lower, b.upper, b.exact) == (3, 4, None)


def test_bounds_peel_a_searched_component_once(monkeypatch):
    # K_{3,4}'s gap [3, 4] is searched: the bounds and the search read one
    # cached coloring number
    prop = vars(G.Graph)["_coloring_number"]
    peels = []
    monkeypatch.setattr(prop, "func", lambda g, peel=prop.func: peels.append(g) or peel(g))
    bounds = X.dp_chromatic_bounds(G.complete_bipartite(3, 4))
    assert bounds.exact == 3 and any("exact search" in note for note in bounds.notes)
    assert len(peels) == 1


CACHED_ATTRIBUTES = [(G.Graph, "_neighbours"), (G.Graph, "forest"), (G.Graph, "_roots"),
                     (G.Graph, "_coloring_number"), (X._PatternSpace, "tails"),
                     (X.PatternSequence, "_live")]


@pytest.mark.parametrize("owner, name", CACHED_ATTRIBUTES)
def test_cached_attributes_compute_once_per_instance(owner, name, monkeypatch):
    # the value lands in the instance's __dict__, where it shadows the
    # descriptor, so the second read computes nothing
    attr = vars(owner)[name]
    assert isinstance(attr, cached_attribute)
    calls = []
    monkeypatch.setattr(attr, "func", lambda obj, f=attr.func: calls.append(obj) or f(obj))

    def make():
        g = G.cone(G.cycle(5))
        if owner is G.Graph:
            return g
        space = X._PatternSpace(g, set(G.spanning_tree(g)), switched=True)
        return space if owner is X._PatternSpace else X.PatternSequence(space, {0: 1}, X._bare)

    first, second = make(), make()
    assert name not in vars(first)
    value = getattr(first, name)
    assert getattr(first, name) is value and vars(first)[name] is value
    assert getattr(second, name) == value
    assert [id(obj) for obj in calls] == [id(first), id(second)]


def test_no_module_imports_functools_cached_property():
    # on Python 3.10 and 3.11 its first read takes a lock
    src = Path(X.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cached_property" not in [a.name for a in node.names], path.name
            if isinstance(node, ast.Attribute):
                assert node.attr != "cached_property", path.name


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


def _brute_chromatic(g):
    return next(k for k in range(1, g.n + 1)
                if any(all(a[i - 1] != a[j - 1] for i, j in g.edges)
                       for a in product(range(k), repeat=g.n)))


def _random_connected(rng, n, m):
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
    return G.from_edges(n, sorted(edges | set(rng.sample(rest, m - n + 1))))


def test_bounds_stay_sound_at_every_budget():
    # every budget from 1 to the unbudgeted spend + 1: wherever it runs out
    # (the chromatic number, the C_3k^2 cover or the exact walk), the bounds
    # hold the true chi_DP, an exact value is the true one, and a reported
    # chromatic number is the true one
    prism = G.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)])
    graphs = [G.cycle(5), G.cycle(7), G.complete(4), G.complete(5), G.cycle_power(6, 2),
              G.cycle_power(7, 2), G.cycle_power(9, 2), G.cone(G.cycle(4)), prism,
              G.complete_bipartite(3, 3)]
    rng = random.Random(2029)
    graphs += [_random_connected(rng, n, n - 1 + cotree)
               for n in (5, 6, 7) for cotree in (2, 3) for _ in range(4)]
    for g in graphs:
        budget = Budget(10**9)
        full = X.dp_chromatic_bounds(g, budget)
        assert full.exact is not None, g
        chi = _brute_chromatic(g)
        for limit in range(1, budget.spent + 2):
            b = X.dp_chromatic_bounds(g, Budget(limit))
            assert b.lower <= full.exact <= b.upper, (g, limit)
            assert b.exact in (None, full.exact), (g, limit)
            named = {int(m[1]) for note in b.notes if (m := re.search(r": chromatic number (\d+)$", note))}
            assert named <= {chi}, (g, limit)
        assert b == full, g
