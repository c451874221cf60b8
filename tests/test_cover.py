"""Covers: validation, classification, the transversal oracle, renaming,
explicit constructions, and the exhaustive cover-space searches."""
import collections
import math
import random
import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from dpnull.budget import Budget, BudgetExceeded
from dpnull.errors import FormatError, PreconditionError
from dpnull.ff import make_field
from dpnull import cli
from dpnull import cover as C
from dpnull import graphs as G


def identity_cover(g, t):
    return C.cover_from_pattern(g, t)


def all_partial_injective_maps(t):
    """Every partial injective map on [0, t) as a dict (34 of them for t=3)."""
    from itertools import combinations, permutations

    out = [{}]
    els = list(range(t))
    for k in range(1, t + 1):
        for dom in combinations(els, k):
            for img in permutations(els, k):
                out.append(dict(zip(dom, img)))
    return out


# ---------------------------------------------------------------------------
# validation and classification

def test_validate_identity_cover_ok():
    assert C.validate(identity_cover(G.cycle(3), 3)) == []


def test_validate_catches_injectivity():
    cov = C.Cover(G.path(2), 3, ((0, 1, 2), (0, 1, 2)), {(1, 2): {0: 1, 1: 1}})
    assert any("not injective" in v for v in C.validate(cov))


def test_validate_catches_locality():
    cov = C.Cover(G.path(3), 3, ((0,), (0,), (0,)), {(1, 3): {0: 0}})
    assert any("locality" in v for v in C.validate(cov))


def test_validate_catches_label_range():
    cov = C.Cover(G.path(2), 3, ((0, 5), (0,)), {})
    assert any("outside" in v for v in C.validate(cov))


def test_classify_examples():
    full = tuple(range(3))
    mk = lambda sigma: C.Cover(G.path(2), 3, (full, full), {(1, 2): sigma})
    assert C.classify_saturation(mk({0: 0, 1: 1, 2: 2}), (1, 2)) == C.Saturation("good-diff", 0)
    assert C.classify_saturation(mk({0: 1, 1: 0, 2: 2}), (1, 2)) == C.Saturation("bad-sum", 1)
    assert C.classify_saturation(mk({0: 1, 1: 2, 2: 0}), (1, 2)) == C.Saturation("good-diff", 2)
    empty = C.Cover(G.path(2), 3, (full, full), {})
    assert C.classify_saturation(empty, (1, 2)) == C.Saturation("good-diff", 0)


def test_classify_never_bad_over_f3():
    full = tuple(range(3))
    maps = all_partial_injective_maps(3)
    assert len(maps) == 34
    for sigma in maps:
        cov = C.Cover(G.path(2), 3, (full, full), {(1, 2): dict(sigma)} if sigma else {})
        assert C.classify_saturation(cov, (1, 2)).kind != C.BAD


def test_bad_class_possible_over_f4():
    full = tuple(range(4))
    # 0 -> 0, 1 -> 2: differences 0, 3; sums 0, 3 -- neither constant
    cov = C.Cover(G.path(2), 4, (full, full), {(1, 2): {0: 0, 1: 2}})
    assert C.classify_saturation(cov, (1, 2)).kind == C.BAD


def test_two_fold_matchings_always_good():
    full = (0, 1)
    for sigma in all_partial_injective_maps(2):
        cov = C.Cover(G.path(2), 2, (full, full), {(1, 2): dict(sigma)} if sigma else {})
        assert C.classify_saturation(cov, (1, 2)).is_good


# ---------------------------------------------------------------------------
# the oracle

def oracle_by_product(cov):
    g = cov.graph
    for choice in product(*(cov.labels_of(v) for v in range(1, g.n + 1))):
        if C.is_valid_transversal(cov, choice):
            return choice
    return None


def test_h_coloring_examples():
    assert C.h_coloring_search(C.uncolorable_cover_c3k_square(2)) is None
    assert C.h_coloring_search(identity_cover(G.cycle(5), 2)) is None
    found = C.h_coloring_search(identity_cover(G.cycle(5), 3))
    assert found is not None and C.is_valid_transversal(identity_cover(G.cycle(5), 3), found)


def test_h_coloring_returns_lexicographically_least():
    cov = identity_cover(G.cycle(5), 3)
    best = None
    for choice in product(*(cov.labels_of(v) for v in range(1, 6))):
        if C.is_valid_transversal(cov, choice):
            best = choice
            break
    assert C.h_coloring_search(cov) == best


def test_oracle_matches_list_coloring_on_random_lists():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(2, 6)
        edges = [e for e in G.complete(n).edges if rng.random() < 0.5]
        g = G.from_edges(n, edges)
        lists = {v: tuple(sorted(rng.sample(range(3), rng.randint(1, 3)))) for v in range(1, n + 1)}
        cov = C.cover_from_lists(g, lists, 3)
        via_cover = C.h_coloring_search(cov) is not None
        via_lists = any(all(a[i - 1] != a[j - 1] for i, j in g.edges)
                        for a in product(*(lists[v] for v in range(1, n + 1))))
        assert via_cover == via_lists


def test_cover_from_lists_examples():
    k2 = C.cover_from_lists(G.path(2), {1: (0, 1), 2: (0, 1)}, 2)
    assert C.count_transversals(k2) == 2
    c4 = C.cover_from_lists(G.cycle(4), {v: (0, 1) for v in range(1, 5)}, 2)
    assert C.h_coloring_search(c4) is not None
    c3 = C.cover_from_lists(G.cycle(3), {v: (0, 1) for v in range(1, 4)}, 2)
    assert C.h_coloring_search(c3) is None


def test_cover_from_lists_sizes_its_field_from_the_label_sets(tmp_path, capsys):
    # repeated colours are one label: {0} and {1} fit F_2, though the first
    # list has three entries; an explicit t is kept
    lists = {1: (0, 0, 0), 2: (1,)}
    assert C.cover_from_lists(G.path(2), lists).t == 2
    assert C.cover_from_lists(G.path(2), lists, 3).t == 3
    lists_path = tmp_path / "lists.txt"
    lists_path.write_text("1 0 0 0\n2 1\n")
    assert cli.run(["make-cover", "p2", "--lists", str(lists_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cover t=2"


def test_cover_from_lists_needs_a_list_for_exactly_the_vertices():
    with pytest.raises(PreconditionError, match=r"missing \[3\], extra \[\]"):
        C.cover_from_lists(G.path(3), {1: (0,), 2: (0, 1)})
    with pytest.raises(PreconditionError, match=r"missing \[\], extra \[0, 9\]"):
        C.cover_from_lists(G.path(2), {0: (1,), 1: (0,), 2: (0, 1), 9: (5, 6)})
    with pytest.raises(PreconditionError, match="vertex 2: empty label set"):
        C.cover_from_lists(G.path(2), {1: (0,), 2: ()})


def test_cover_from_pattern_examples():
    g = G.path(2)
    ident = C.cover_from_pattern(G.cycle(3), 3)
    assert all(sigma == {0: 0, 1: 1, 2: 2} for sigma in ident.matchings.values())
    plus2 = C.cover_from_pattern(g, 3, {(1, 2): 1}, {(1, 2): 2})
    assert plus2.matchings[(1, 2)] == {0: 2, 1: 1, 2: 0}
    with pytest.raises(PreconditionError):
        C.cover_from_pattern(g, 4, {(1, 2): 1}, {(1, 2): 0})
    with pytest.raises(PreconditionError):
        C.cover_from_pattern(g, 3, {(1, 2): 2}, {(1, 2): 0})


@pytest.mark.parametrize("signs, offsets", [({}, {}), ({}, None), (None, {})])
def test_cover_from_pattern_takes_an_empty_dict_as_given(signs, offsets):
    # only None means "every edge -1" / "every offset 0"; an empty dict
    # misses every edge of C_4, as it does in poly.from_graph
    with pytest.raises(PreconditionError, match="must cover exactly the edge set"):
        C.cover_from_pattern(G.cycle(4), 3, signs=signs, offsets=offsets)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pattern_round_trips_through_classification(data):
    g = G.cycle(4)
    signs = {e: data.draw(st.sampled_from((-1, 1)), label=f"sign{e}") for e in g.edges}
    offsets = {e: data.draw(st.integers(0, 2), label=f"beta{e}") for e in g.edges}
    cov = C.cover_from_pattern(g, 3, signs, offsets)
    for e in g.edges:
        sat = C.classify_saturation(cov, e)
        assert sat.kind == (C.GOOD_DIFF if signs[e] == -1 else C.BAD_SUM)
        assert sat.beta == offsets[e]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_deleting_matched_pairs_never_loses_transversals(seed):
    rng = random.Random(seed)
    g = G.cycle(4)
    cov = C.cover_from_pattern(
        g, 3,
        {e: rng.choice((-1, 1)) for e in g.edges},
        {e: rng.randrange(3) for e in g.edges},
    )
    before = C.count_transversals(cov)
    e = rng.choice(g.edges)
    sigma = dict(cov.matchings[e])
    sigma.pop(rng.choice(list(sigma)))
    thinner = C.Cover(g, 3, cov.labels, {**cov.matchings, e: sigma})
    assert C.count_transversals(thinner) >= before


# ---------------------------------------------------------------------------
# renaming

def all_perfect_covers(g, m):
    """Every cover of g with full labels [0, m) and perfect matchings."""
    from itertools import permutations

    labels = tuple(tuple(range(m)) for _ in range(g.n))
    perms = list(permutations(range(m)))
    for assignment in product(perms, repeat=len(g.edges)):
        matchings = {
            e: {a: p[a] for a in range(m)} for e, p in zip(g.edges, assignment)
        }
        yield C.Cover(g, m, labels, matchings)


@pytest.mark.parametrize("g", [G.path(3), G.path(4)], ids=("P3", "P4"))
def test_tree_normalize_preserves_counts_exhaustively(g):
    for cov in all_perfect_covers(g, 3):
        renamed, maps = C.tree_normalize(cov)
        assert all(
            C.classify_saturation(renamed, e) == C.Saturation("good-diff", 0)
            for e in g.edges
        )
        assert C.count_transversals(renamed) == C.count_transversals(cov)


def test_tree_normalize_keeps_cotree_matchings_honest():
    g = G.cycle(4)
    rng = random.Random(5)
    for _ in range(20):
        cov = C.cover_from_pattern(
            g, 3,
            {e: rng.choice((-1, 1)) for e in g.edges},
            {e: rng.randrange(3) for e in g.edges},
        )
        renamed, _ = C.tree_normalize(cov)
        assert C.count_transversals(renamed) == C.count_transversals(cov)
        tree = set(G.spanning_tree(g))
        for e in tree:
            assert C.classify_saturation(renamed, e) == C.Saturation("good-diff", 0)


def test_tree_normalize_rejects_imperfect_forest_matchings():
    g = G.path(3)
    cov = C.Cover(
        g, 3,
        tuple(tuple(range(3)) for _ in range(3)),
        {(1, 2): {0: 0, 1: 1, 2: 2}, (2, 3): {0: 0}},
    )
    with pytest.raises(PreconditionError, match="perfect"):
        C.tree_normalize(cov)


def test_is_good_cover_two_fold_always_good():
    rng = random.Random(9)
    g = G.cycle(4)
    for _ in range(10):
        perms = [rng.choice(((0, 1), (1, 0))) for _ in g.edges]
        cov = C.Cover(
            g, 2,
            tuple(tuple(range(2)) for _ in range(4)),
            {e: {0: p[0], 1: p[1]} for e, p in zip(g.edges, perms)},
        )
        assert C.is_good_cover(cov) is not None


def test_is_good_cover_shift_construction_good():
    witness = C.is_good_cover(C.uncolorable_cover_c3k_square(2))
    assert witness is not None


def test_is_good_cover_odd_triangle_absent():
    tri = G.cycle(3)
    m = {(1, 2): {0: 0, 1: 1, 2: 2}, (2, 3): {0: 0, 1: 1, 2: 2}, (1, 3): {0: 1, 1: 0, 2: 2}}
    cov = C.Cover(tri, 3, tuple(tuple(range(3)) for _ in range(3)), m)
    assert C.is_good_cover(cov) is None


def test_is_good_cover_budget_is_explicit():
    tri = G.cycle(3)
    m = {(1, 2): {0: 0, 1: 1, 2: 2}, (2, 3): {0: 0, 1: 1, 2: 2}, (1, 3): {0: 1, 1: 0, 2: 2}}
    cov = C.Cover(tri, 3, tuple(tuple(range(3)) for _ in range(3)), m)
    from dpnull.budget import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        C.is_good_cover(cov, Budget(2))


def test_is_good_cover_witness_renames_to_all_good():
    tri = G.cycle(3)
    m = {(1, 2): {0: 1, 1: 2, 2: 0}, (2, 3): {0: 0, 1: 1, 2: 2}, (1, 3): {0: 2, 1: 0, 2: 1}}
    cov = C.Cover(tri, 3, tuple(tuple(range(3)) for _ in range(3)), m)
    witness = C.is_good_cover(cov)
    assert witness is not None
    renamed = C.apply_relabeling(cov, witness)
    assert all(C.classify_saturation(renamed, e).is_good for e in tri.edges)
    assert C.count_transversals(renamed) == C.count_transversals(cov)


# ---------------------------------------------------------------------------
# explicit constructions

@pytest.mark.parametrize("k", (2, 3))
def test_uncolorable_c3k_square_cover(k):
    cov = C.uncolorable_cover_c3k_square(k)
    assert C.validate(cov) == []
    assert all(C.classify_saturation(cov, e).is_good for e in cov.graph.edges)
    assert C.h_coloring_search(cov) is None


def test_uncolorable_c3k_special_edges_are_shifts():
    cov = C.uncolorable_cover_c3k_square(2)
    assert C.classify_saturation(cov, (4, 6)) == C.Saturation("good-diff", 2)
    assert C.classify_saturation(cov, (5, 6)) == C.Saturation("good-diff", 2)


def test_emptying_matchings_can_restore_colorability():
    # removing constraints can only help; for most (not all) non-special
    # edges the oracle then finds a coloring
    cov = C.uncolorable_cover_c3k_square(2)
    weakened = C.Cover(cov.graph, 3, cov.labels, {**cov.matchings, (1, 3): {}})
    assert C.h_coloring_search(weakened) is not None
    # dropping (1, 2) leaves x1 != x2 implied through v5, so no coloring appears
    still = C.Cover(cov.graph, 3, cov.labels, {**cov.matchings, (1, 2): {}})
    assert C.h_coloring_search(still) is None


def test_uncolorable_c3k_rejects_k1():
    with pytest.raises(PreconditionError):
        C.uncolorable_cover_c3k_square(1)


# ---------------------------------------------------------------------------
# exhaustive searches

def test_exact_dp_chromatic_trees():
    for t in G.tree_catalog(6):
        if t.n < 2:
            continue
        res = C.exact_dp_chromatic(t, 4)
        assert (res.status, res.value) == ("exact", 2)


def test_exact_dp_chromatic_cycles():
    for n in (3, 4, 5, 6):
        assert C.exact_dp_chromatic(G.cycle(n), 4).value == 3


def test_exact_dp_chromatic_c6sq_exceeds_3():
    res = C.exact_dp_chromatic(G.cycle_power(6, 2), 3, Budget(50_000_000))
    assert res.status == "greater"
    assert res.counterexample is not None
    assert C.h_coloring_search(res.counterexample) is None


def test_exact_dp_chromatic_edgeless_and_disconnected():
    assert C.exact_dp_chromatic(G.empty_graph(3), 2).value == 1
    two_comps = G.from_edges(5, [(1, 2), (3, 4), (4, 5), (3, 5)])
    assert C.exact_dp_chromatic(two_comps, 4).value == 3  # triangle component


def test_exact_dp_chromatic_at_least_chromatic_number():
    for g in (G.path(4), G.cycle(5), G.complete(3)):
        res = C.exact_dp_chromatic(g, 4)
        assert res.value >= G.chromatic_number(g, 4)


def test_exact_dp_chromatic_starts_at_mmin():
    # K_{3,3} has chi = 2 and chi_DP = 3: starting at m = 3 skips exactly
    # the covers the m = 2 search walks
    g = G.complete_bipartite(3, 3)
    full, below = C.exact_dp_chromatic(g, 3), C.exact_dp_chromatic(g, 2)
    from3 = C.exact_dp_chromatic(g, 3, mmin=3)
    assert below.status == "greater" and below.covers_tested > 0
    assert (from3.status, from3.value, from3.m_reached) == ("exact", 3, 3)
    assert from3.covers_tested == full.covers_tested - below.covers_tested


def test_exact_dp_chromatic_budget_returns_unknown():
    res = C.exact_dp_chromatic(G.cycle_power(6, 2), 4, Budget(50))
    assert res.status == "unknown"


def test_exact_dp_chromatic_budget_names_the_phase_that_spent_it():
    # the chromatic number takes 15 search nodes; the m = 4 walk's one-tick
    # mask pre-charge of 14,080 steps then exhausts the budget, which stops
    # at its limit
    budget = Budget(2000)
    res = C.exact_dp_chromatic(G.cycle_power(7, 2), 4, budget)
    assert res.status == "unknown"
    assert (budget.what, budget.spent) == ("enumerating covers for exact chi_DP", 2_000)
    budget = Budget(3)
    assert C.exact_dp_chromatic(G.cycle_power(7, 2), 4, budget).status == "unknown"
    assert budget.what == "computing the chromatic number"


def test_exact_dp_chromatic_budget_spent_after_a_counterexample_names_the_walk():
    # the m = 3 walk ends in an uncolorable cover, re-checked by
    # h_coloring_search under its own label; the m = 4 walk spends the rest
    budget = Budget(100_000)
    res = C.exact_dp_chromatic(G.complete_bipartite(4, 4), 4, budget, mmin=3)
    assert (res.status, res.m_reached) == ("unknown", 4)
    assert (budget.what, budget.spent) == ("enumerating covers for exact chi_DP", 100_000)


PRISM = G.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)])


def test_exact_dp_chromatic_over_two_components():
    # K_{3,3} refutes m = 2 with a re-checked counterexample and settles
    # m = 3 (435 steps); the prism (chi 3, coloring number 4) then settles
    # m = 3 by a walk (490 steps), its value no greater than K_{3,3}'s, so
    # the witness stays K_{3,3}'s m = 2 counterexample
    k33 = G.complete_bipartite(3, 3)
    g = G.from_edges(12, k33.edges + tuple((i + 6, j + 6) for i, j in PRISM.edges))
    budget = Budget(10**9)
    res = C.exact_dp_chromatic(g, 4, budget)
    assert (res.status, res.value, res.m_reached) == ("exact", 3, 3)
    assert res.covers_tested == sum(C.exact_dp_chromatic(h, 4).covers_tested for h in (k33, PRISM))
    assert res.counterexample.t == 2
    assert (budget.what, budget.spent) == ("enumerating covers for exact chi_DP", 435 + 490)
    # a budget that runs out 200 steps into the prism's walk names the walk
    budget = Budget(635)
    res = C.exact_dp_chromatic(g, 4, budget)
    assert (res.status, res.m_reached, res.covers_tested) == ("unknown", 3, 1340)
    assert (budget.what, budget.spent) == ("enumerating covers for exact chi_DP", 635)


@pytest.mark.parametrize("mmin", (0, -1))
def test_exact_dp_chromatic_rejects_mmin_below_one(mmin):
    with pytest.raises(PreconditionError, match="mmin"):
        C.exact_dp_chromatic(G.cycle(4), 3, mmin=mmin)


def conjugation_orbits_s3(c):
    """Orbits of S_3 acting by simultaneous conjugation on c-tuples of
    permutations of {0, 1, 2} (Burnside): the identity fixes all 6^c tuples,
    each of the 3 transpositions the 2^c tuples of its centraliser, each of
    the 2 three-cycles the 3^c tuples of its centraliser."""
    return (6 ** c + 3 * 2 ** c + 2 * 3 ** c) // 6


@pytest.mark.parametrize("name,g,c,orbits", [
    ("cone-C4", G.cone(G.cycle(4)), 4, 251),
    ("K26", G.complete_bipartite(2, 6), 5, 1393),
    ("K34", G.complete_bipartite(3, 4), 6, 8051),
])
def test_exact_walk_visits_one_cover_per_conjugation_orbit(name, g, c, orbits, monkeypatch):
    # every 3-fold cover of these graphs is colorable, so the walk visits
    # every lex-least tuple; the leaves are its steps less those of the
    # same walk without the last level, which visits the same inner nodes
    leaves = []
    walk = C._walk

    def counted(start, levels, budget, orbit_cut=None):
        before = budget.spent
        out = walk(start, levels, budget, orbit_cut)
        inner = Budget(10**9)
        walk(start, levels[:-1], inner, orbit_cut)
        leaves.append(budget.spent - before - inner.spent)
        return out

    monkeypatch.setattr(C, "_walk", counted)
    res = C.exact_dp_chromatic(g, 3, mmin=3)
    assert (res.status, res.value, res.covers_tested) == ("exact", 3, 6 ** c)
    if g.coloring_number() <= 3:
        # greedy coloring settles m = 3 without a walk, so walk it here
        assert leaves == []
        walked = C._cover_walk(g, dict.fromkeys(g.forest, 3), Budget(10**9), C._orbits(3))
        assert walked == (6 ** c, None, True)
    assert leaves == [conjugation_orbits_s3(c)] == [orbits]


def test_exact_dp_chromatic_at_the_coloring_number_charges_no_walk():
    # K_{2,6} has coloring number 3: m = 3 is settled with no walk, counting
    # the 6^5 covers a walk would, and cone(P_40), of coloring number 3 too,
    # spends no step at all: the peel settles its chromatic number as well
    budget = Budget(10**7)
    assert C.exact_dp_chromatic(G.complete_bipartite(2, 6), 3, budget, mmin=3) == (
        C.DpExactResult("exact", 3, 6 ** 5, 3))
    assert budget.spent == 0
    res = C.exact_dp_chromatic(G.cone(G.path(40)), 3, budget)
    assert (res.status, res.value, res.covers_tested, res.m_reached) == ("exact", 3, 6 ** 39, 3)
    assert (budget.what, budget.spent) == ("computing the chromatic number", 0)


@pytest.mark.parametrize("m,c", [(3, 1), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_orbit_walk_stops_at_the_budget_where_brute_force_says(m, c):
    # with every set nonempty the walk visits, in preorder, the tuples of
    # length <= c that are lex-least among their conjugates, root first;
    # the budget runs out on the limit-th of them, whose rank (padded with
    # zeros) is the first not settled
    perms = list(permutations(range(m)))
    index = {p: k for k, p in enumerate(perms)}

    def conjugate(sigma, k):
        inverse = [sigma.index(x) for x in range(m)]
        return index[tuple(sigma[perms[k][inverse[x]]] for x in range(m))]

    nodes = sorted(t for j in range(c + 1) for t in product(range(len(perms)), repeat=j)
                   if all(tuple(conjugate(s, k) for k in t) >= t for s in perms))
    levels = [[1] * len(perms)] * c
    for limit, node in enumerate(nodes, start=1):
        padded = node + (0,) * (c - len(node))
        want = sum(k * len(perms) ** (c - 1 - d) for d, k in enumerate(padded))
        assert C._walk(1, levels, Budget(limit), C._orbits(m)) == (want, None, False)
    budget = Budget(len(nodes) + 1)
    assert C._walk(1, levels, budget, C._orbits(m)) == (len(perms) ** c, None, True)
    assert budget.spent == len(nodes)


@pytest.mark.parametrize("name,g", [
    # K_{2,2,2}: an uncolorable 3-fold cover after 3,891 colorable ones
    ("octahedron", G.from_edges(6, [e for e in G.complete(6).edges
                                    if e not in {(1, 2), (3, 4), (5, 6)}])),
    # K_{3,3}: an uncolorable 2-fold cover, then every 3-fold cover colorable
    ("K33", G.complete_bipartite(3, 3)),
])
def test_exact_dp_chromatic_under_every_budget(name, g):
    full = Budget(10**9)
    want = C.exact_dp_chromatic(g, 3, full)
    assert want.counterexample is not None
    tested = 0
    # a budget runs out at spent >= limit, so full.spent + 1 is the first
    # limit that completes
    for limit in range(1, full.spent + 2):
        got = C.exact_dp_chromatic(g, 3, Budget(limit))
        if got.status != "unknown":
            assert got == want
            assert C.write_cover(got.counterexample) == C.write_cover(want.counterexample)
        assert tested <= got.covers_tested <= want.covers_tested
        tested = got.covers_tested
    assert got.status == want.status


@pytest.mark.parametrize("name,g,tested,spent", [
    ("K34", G.complete_bipartite(3, 4), 46_658, 10_031),
    ("K33", G.complete_bipartite(3, 3), 1_298, 435),
    ("prism", PRISM, 1_296, 490),
])
def test_exact_walk_spend_is_pinned(name, g, tested, spent):
    # the walk counts its steps locally and charges them in one tick, so a
    # change to how it counts them must keep these spends; they include
    # the m = 2 counterexample's re-check by the forward-checking oracle
    budget = Budget(10**9)
    res = C.exact_dp_chromatic(g, 4, budget)
    assert (res.status, res.value, res.covers_tested, budget.spent) == ("exact", 3, tested, spent)


def test_f_walk_spend_is_pinned():
    g = G.cone(G.cycle(4))
    budget = Budget(10**9)
    res = C.f_dp_exhaustive(g, {v: 2 if v == 1 else 3 for v in range(1, g.n + 1)}, budget)
    assert (res.status, res.covers_tested, budget.spent) == ("all_colorable", 1_296, 1_631)


def test_f_dp_exhaustive_examples():
    assert C.f_dp_exhaustive(G.path(2), {1: 1, 2: 1}).status == "counterexample"
    assert C.f_dp_exhaustive(G.path(4), {1: 1, 2: 2, 3: 2, 4: 2}).status == "all_colorable"


def test_f_dp_exhaustive_counterexample_is_verified():
    res = C.f_dp_exhaustive(G.cycle(3), {1: 2, 2: 2, 3: 2})
    assert res.status == "counterexample"
    assert C.h_coloring_search(res.counterexample) is None


def test_f_dp_exhaustive_unknown_on_tiny_budget():
    res = C.f_dp_exhaustive(G.cycle(4), {v: 3 for v in range(1, 5)}, Budget(5))
    assert res.status == "unknown"


def test_f_dp_quotient_never_flips_the_verdict():
    # the forest edges out of v1 are pinned when f(v1) <= f(v) and walked
    # over order-preserving matchings otherwise; both orderings of the same
    # size multiset must agree
    g = G.cycle(3)
    res_a = C.f_dp_exhaustive(g, {1: 2, 2: 2, 3: 3})
    res_b = C.f_dp_exhaustive(g, {1: 3, 2: 2, 3: 2})
    assert res_a.status == res_b.status == "all_colorable"


# ---------------------------------------------------------------------------
# the searches against the algorithms the bitmask walk replaced

def ref_h_coloring_search(cover, budget):
    """The plain recursive oracle: same label order, one tick per label
    tried, no look-ahead."""
    n = cover.graph.n
    constraints = [[] for _ in range(n + 1)]
    for (i, j), sigma in cover.matchings.items():
        if sigma:
            constraints[j].append((i, sigma))
    chosen = [0] * (n + 1)

    def backtrack(v):
        if v > n:
            return True
        for a in cover.labels_of(v):
            budget.tick()
            if all(sigma.get(chosen[u]) != a for u, sigma in constraints[v]):
                chosen[v] = a
                if backtrack(v + 1):
                    return True
        return False

    return tuple(chosen[1:]) if backtrack(1) else None


def ref_fc_transversals(cover, budget):
    """The recursive forward-checking oracle: each vertex's live labels are
    a list in label-tuple order, choosing a at v removes sigma_vw(a) from
    the list of each later neighbour w, a choice that removes the last
    label of one is rejected, and each live label tried costs one tick."""
    n = cover.graph.n
    later = collections.defaultdict(list)
    for (i, j), sigma in cover.matchings.items():
        later[i].append((j, sigma))
    chosen = []

    def search(v, live):
        if v > n:
            yield tuple(chosen)
            return
        for a in live[v]:
            budget.tick()
            narrowed = dict(live)
            for w, sigma in later[v]:
                narrowed[w] = [b for b in live[w] if b != sigma.get(a)]
            if any(live[w] and not narrowed[w] for w, _ in later[v]):
                continue
            chosen.append(a)
            yield from search(v + 1, narrowed)
            chosen.pop()

    return search(1, {v: list(cover.labels_of(v)) for v in range(1, n + 1)})


def ref_fc_h_coloring_search(cover, budget):
    return next(ref_fc_transversals(cover, budget), None)


def shuffled_labels(rng, cov):
    """The same cover with each label tuple in a random order."""
    return C.Cover(cov.graph, cov.t, tuple(tuple(rng.sample(ls, len(ls))) for ls in cov.labels),
                   cov.matchings)


def ref_exact_component(g, mmax, budget):
    """One Cover and one oracle call per assignment of cotree permutations,
    in product order."""
    if not g.edges:
        return C.DpExactResult("exact", 1, 0, 1)
    start = G.chromatic_number(g, mmax, budget)
    if start is None:
        return C.DpExactResult("greater", None, 0, mmax)
    tree = G.spanning_tree(g)
    cotree = [e for e in g.edges if e not in set(tree)]
    tested = 0
    last_bad = None
    for m in range(start, mmax + 1):
        labels = tuple(tuple(range(m)) for _ in range(g.n))
        base = {e: {a: a for a in range(m)} for e in tree}
        perms = list(permutations(range(m)))
        found_bad = None
        for assignment in product(perms, repeat=len(cotree)):
            matchings = dict(base)
            for e, perm in zip(cotree, assignment):
                matchings[e] = {a: perm[a] for a in range(m)}
            cov = C.Cover(g, C.smallest_prime_power(m), labels, matchings)
            tested += 1
            if ref_h_coloring_search(cov, budget) is None:
                found_bad = cov
                break
        if found_bad is None:
            return C.DpExactResult("exact", m, tested, m, last_bad)
        last_bad = found_bad
    return C.DpExactResult("greater", None, tested, mmax, last_bad)


def ref_exact_dp_chromatic(g, mmax):
    budget = Budget(10**12)
    total = overall = m_reached = 0
    witness = None
    for comp in g.components():
        res = ref_exact_component(g.subgraph(comp), mmax, budget)
        total += res.covers_tested
        m_reached = max(m_reached, res.m_reached)
        if res.status != "exact":
            return C.DpExactResult(res.status, None, total, res.m_reached, res.counterexample)
        if res.value > overall:
            overall, witness = res.value, res.counterexample
    return C.DpExactResult("exact", overall, total, m_reached, witness)


def random_graph(rng, n, p):
    return G.from_edges(n, [e for e in G.complete(n).edges if rng.random() < p])


def assert_exact_matches_reference(g, mmax):
    got = C.exact_dp_chromatic(g, mmax, Budget(10**12))
    want = ref_exact_dp_chromatic(g, mmax)
    assert (got.status, got.value, got.covers_tested, got.m_reached) == (
        want.status, want.value, want.covers_tested, want.m_reached)
    if want.counterexample is None:
        assert got.counterexample is None
    else:
        assert got.counterexample.matchings == want.counterexample.matchings
        assert got.counterexample.labels == want.counterexample.labels
        assert got.counterexample.t == want.counterexample.t


NAMED_EXACT = (
    ("K4", G.complete(4), 4),
    ("K23", G.complete_bipartite(2, 3), 4),
    ("K33", G.complete_bipartite(3, 3), 3),
    ("C5", G.cycle(5), 4),
    ("C6sq", G.cycle_power(6, 2), 3),
    ("cone-C4", G.cone(G.cycle(4)), 3),
    ("P5", G.path(5), 4),
    ("two-triangles", G.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]), 4),
)


@pytest.mark.parametrize("name,g,mmax", NAMED_EXACT, ids=[x[0] for x in NAMED_EXACT])
def test_exact_dp_chromatic_matches_per_cover_enumeration(name, g, mmax):
    assert_exact_matches_reference(g, mmax)


def test_exact_dp_chromatic_matches_per_cover_enumeration_on_random_graphs():
    rng = random.Random(2024)
    checked = with_counterexample = 0
    while checked < 60:
        n = rng.randint(2, 6)
        p = rng.choice((0.4, 0.6, 0.8))
        if checked % 2:
            g = random_graph(rng, n, p)
        else:
            # bipartite graphs with a cycle have chi < chi_DP, so the search
            # finds uncolorable covers below the exact value
            n = max(n, 4)
            k = rng.randint(2, n - 2)
            g = G.from_edges(n, [(i, j) for i in range(1, k + 1) for j in range(k + 1, n + 1)
                                 if rng.random() < 0.8])
        mmax = rng.randint(2, 4)
        c = len(g.edges) - n + len(g.components())
        # keep the reference's enumeration small
        if sum(math.factorial(m) ** c for m in range(2, mmax + 1)) > 3000:
            continue
        assert_exact_matches_reference(g, mmax)
        with_counterexample += C.exact_dp_chromatic(g, mmax).counterexample is not None
        checked += 1
    assert with_counterexample >= 10


def test_exact_dp_chromatic_never_walks_at_the_coloring_number(monkeypatch):
    # every walk is at some m below the walked component's coloring number,
    # and the results match one oracle call per cover wherever that is small
    walk, seen = C._cover_walk, []

    def checked(g, f, budget, orbits=None):
        m = f[1]
        assert m < g.coloring_number(), (g, m)
        seen.append(m)
        return walk(g, f, budget, orbits)

    monkeypatch.setattr(C, "_cover_walk", checked)
    rng = random.Random(7)
    graphs = [t for t in G.tree_catalog(7) if t.n > 1]
    for _ in range(40):
        n = rng.randint(4, 7)
        graphs.append(random_graph(rng, n, rng.choice((0.3, 0.5, 0.7, 0.9))))
        # bipartite graphs with a cycle walk from m = 2
        k = rng.randint(2, n - 2)
        graphs.append(G.from_edges(n, [(i, j) for i in range(1, k + 1)
                                       for j in range(k + 1, n + 1) if rng.random() < 0.7]))
    compared = settled = 0
    for g in graphs:
        c = len(g.edges) - g.n + len(g.components())
        # keep the m = 4 walks small
        mmax = 4 if c <= 3 else 3
        got = C.exact_dp_chromatic(g, mmax, Budget(10**9))
        assert got.status in ("exact", "greater")
        top = max(g.subgraph(comp).coloring_number() for comp in g.components())
        settled += got.value == top
        # the reference walks every cover up to the value, at most `top`
        if sum(math.factorial(m) ** c for m in range(2, min(mmax, top) + 1)) <= 3000:
            assert_exact_matches_reference(g, mmax)
            compared += 1
    assert len(seen) > 10 and settled > 50 and compared > 60


@pytest.mark.parametrize("g", [G.path(3), G.cycle(3), G.cycle(4), G.cycle(5)],
                         ids=("P3", "C3", "C4", "C5"))
@pytest.mark.parametrize("m", (2, 3))
def test_f_dp_uniform_agrees_with_exact_search(g, m):
    """Two independent enumerations must agree: uniform f-covers are all
    colorable exactly when chi_DP <= m (one Cover and one oracle call per
    cotree assignment on the exact side)."""
    verdict = C.f_dp_exhaustive(g, {v: m for v in range(1, g.n + 1)})
    exact = ref_exact_dp_chromatic(g, 4).value
    want = "all_colorable" if exact <= m else "counterexample"
    assert verdict.status == want


def maximal_matchings(a, b):
    """Every injection of the smaller of the label sets 0..a-1 and 0..b-1
    into the larger, as a dict from the first set to the second."""
    if a <= b:
        return [dict(zip(range(a), img)) for img in permutations(range(b), a)]
    return [dict(zip(dom, range(b))) for dom in permutations(range(a), b)]


def tree_pinned_edges(g, f):
    """The reduced f-covers, rebuilt from their definition: a BFS forest
    (lowest vertex first, neighbours in order, a `pop(0)` queue), its edge
    to a child v pinned when f(parent) <= f(v), walked over the
    order-preserving maximal matchings otherwise, and every other edge
    walked over all its maximal matchings.  Returns (pinned edges,
    [(walked edge, candidate matchings)]) and the number of forest edges
    with f(parent) <= f(child) and with f(parent) > f(child)."""
    parent = {}
    for root in range(1, g.n + 1):
        if root in parent:
            continue
        parent[root] = 0
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w in g._neighbours[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
    pinned, walked, kinds = [], [], [0, 0]
    for i, j in g.edges:
        cands = maximal_matchings(f[i], f[j])
        if parent[j] == i or parent[i] == j:
            u, v = (i, j) if parent[j] == i else (j, i)
            kinds[f[u] > f[v]] += 1
            if f[u] <= f[v]:
                pinned.append((i, j))
                continue
            cands = [sig for sig in cands
                     if [b for _, b in sorted(sig.items())] == sorted(sig.values())]
        walked.append(((i, j), cands))
    return pinned, walked, kinds


def ref_f_dp_exhaustive(g, f, budget):
    """The list-of-tuples walk over the reduced f-covers: the grid charge of
    the bitmask walk, then one tick per node, a list comprehension filtering
    the valid transversals at each walked edge, and the forward-checking
    oracle's re-check of the counterexample on the same budget."""
    pinned, walked, _ = tree_pinned_edges(g, f)
    labels = tuple(tuple(range(f[v])) for v in range(1, g.n + 1))
    grid = {v for e, _ in walked for v in e}
    words = -(-math.prod(f[v] for v in grid) // 64)
    tested = 0
    chosen = []

    def rec(depth, valid):
        nonlocal tested
        budget.tick()
        if not valid:
            return [chosen[d] if d < depth else cands[0] for d, (_, cands) in enumerate(walked)]
        if depth == len(walked):
            tested += 1
            return None
        (i, j), cands = walked[depth]
        for sig in cands:
            chosen.append(sig)
            bad = rec(depth + 1, [x for x in valid if sig.get(x[i - 1]) != x[j - 1]])
            chosen.pop()
            if bad is not None:
                return bad
        return None

    try:
        budget.tick(words * (sum(f[v] for v in range(1, g.n + 1))
                             + sum(len(cands) for _, cands in walked)))
        start = [x for x in product(*labels) if all(x[i - 1] != x[j - 1] for i, j in pinned)]
        picks = rec(0, start)
        if picks is None:
            return "all_colorable", tested, None
        tested += 1
        matchings = {(i, j): {a: a for a in range(min(f[i], f[j]))} for i, j in pinned}
        matchings.update((e, sig) for (e, _), sig in zip(walked, picks))
        t = C.smallest_prime_power(max([2, *f.values()]))
        assert ref_fc_h_coloring_search(C.Cover(g, t, labels, matchings), budget) is None
    except BudgetExceeded:
        return "unknown", tested, None
    return "counterexample", tested, matchings


def unreduced_f_dp_status(g, f):
    """Status of the f-cover check over every maximal matching of every
    edge, with no renaming quotient."""
    labels = [range(f[v]) for v in range(1, g.n + 1)]
    edges = [(e, maximal_matchings(f[e[0]], f[e[1]])) for e in g.edges]

    def all_colorable(depth, valid):
        if not valid:
            return False
        if depth == len(edges):
            return True
        (i, j), cands = edges[depth]
        return all(all_colorable(depth + 1, [x for x in valid if sig.get(x[i - 1]) != x[j - 1]])
                   for sig in cands)

    return "all_colorable" if all_colorable(0, list(product(*labels))) else "counterexample"


def seeded_f_instances():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, 0.6)
        if g.edges:
            yield g, {v: rng.randint(1, 3) for v in range(1, n + 1)}


def test_f_dp_exhaustive_matches_list_filter_walk():
    statuses = set()
    for g, f in seeded_f_instances():
        got_budget, want_budget = Budget(10**9), Budget(10**9)
        got = C.f_dp_exhaustive(g, f, got_budget)
        status, tested, bad = ref_f_dp_exhaustive(g, f, want_budget)
        assert (got.status, got.covers_tested, got_budget.spent) == (
            status, tested, want_budget.spent)
        if bad is not None:
            assert got.counterexample.matchings == bad
            assert C.h_coloring_search(got.counterexample) is None
        statuses.add(status)
    assert statuses == {"all_colorable", "counterexample"}


def test_f_dp_exhaustive_agrees_with_the_unreduced_walk():
    kinds = [0, 0]
    for g, f in seeded_f_instances():
        assert C.f_dp_exhaustive(g, f).status == unreduced_f_dp_status(g, f)
        kinds = [x + y for x, y in zip(kinds, tree_pinned_edges(g, f)[2])]
    # forest edges with f(parent) <= f(child) and with f(parent) > f(child)
    assert min(kinds) >= 20


def test_f_dp_exhaustive_stops_where_the_list_filter_walk_runs_out():
    for g, f in (
        (G.cycle(4), {1: 2, 2: 3, 3: 2, 4: 3}),
        # a theta graph with a counterexample after 123 colorable covers, so
        # that some limits cut the oracle re-check
        (G.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (3, 5)]),
         {1: 3, 2: 2, 3: 3, 4: 1, 5: 2}),
    ):
        full = Budget(10**9)
        C.f_dp_exhaustive(g, f, full)
        for limit in range(1, full.spent + 2):
            got_budget, want_budget = Budget(limit), Budget(limit)
            got = C.f_dp_exhaustive(g, f, got_budget)
            status, tested, _ = ref_f_dp_exhaustive(g, f, want_budget)
            assert (got.status, got.covers_tested, got_budget.spent) == (
                status, tested, want_budget.spent)


@pytest.mark.parametrize("k", (6, 8))
def test_f_dp_exhaustive_even_cones_are_colorable(k):
    """cone(C_2k) is f-DP-colorable with two apex labels and three
    elsewhere: 6^k reduced covers, all colorable."""
    g = G.cone(G.cycle(k))
    res = C.f_dp_exhaustive(g, {v: 2 if v == 1 else 3 for v in range(1, g.n + 1)})
    assert (res.status, res.covers_tested) == ("all_colorable", 6 ** k)


@pytest.mark.parametrize("k", (3, 5))
def test_f_dp_exhaustive_odd_cones_have_a_counterexample(k):
    g = G.cone(G.cycle(k))
    res = C.f_dp_exhaustive(g, {v: 2 if v == 1 else 3 for v in range(1, g.n + 1)})
    assert res.status == "counterexample"
    assert C.validate(res.counterexample) == []
    assert C.h_coloring_search(res.counterexample) is None
    assert ref_h_coloring_search(res.counterexample, Budget(10**6)) is None


def test_f_dp_exhaustive_pins_a_long_path():
    begin = time.perf_counter()
    res = C.f_dp_exhaustive(G.path(22), {v: 2 for v in range(1, 23)})
    assert (res.status, res.covers_tested) == ("all_colorable", 1)
    assert time.perf_counter() - begin < 1.0


def test_h_coloring_search_matches_recursive_search_and_ticks():
    # the forward-checking reference spends exactly as much; the plain one,
    # which tries every label, never less
    rng = random.Random(31)
    fewer = 0
    for _ in range(80):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, 0.5)
        t = rng.choice((2, 3, 4))
        labels = tuple(tuple(sorted(rng.sample(range(t), rng.randint(1, t))))
                       for _ in range(n))
        matchings = {}
        for i, j in g.edges:
            img = rng.sample(labels[j - 1], min(len(labels[i - 1]), len(labels[j - 1])))
            matchings[(i, j)] = dict(zip(labels[i - 1], img))
        cov = C.Cover(g, t, labels, matchings)
        if rng.random() < 0.5:
            cov = shuffled_labels(rng, cov)
        got_budget, want_budget, plain = Budget(10**9), Budget(10**9), Budget(10**9)
        got = C.h_coloring_search(cov, got_budget)
        assert got == ref_fc_h_coloring_search(cov, want_budget)
        assert got_budget.spent == want_budget.spent
        assert got == ref_h_coloring_search(cov, plain)
        assert got_budget.spent <= plain.spent
        fewer += got_budget.spent < plain.spent
    assert fewer >= 20


def test_h_coloring_search_handles_long_paths():
    cov = identity_cover(G.path(5000), 2)
    assert C.h_coloring_search(cov) == (0, 1) * 2500


def random_partial_cover(rng, n):
    """A cover with label sets of unequal sizes and partial matchings."""
    g = random_graph(rng, n, 0.5)
    t = rng.choice((2, 3, 4, 5))
    labels = tuple(tuple(sorted(rng.sample(range(t), rng.randint(1, t)))) for _ in range(n))
    matchings = {}
    for i, j in g.edges:
        size = rng.randint(0, min(len(labels[i - 1]), len(labels[j - 1])))
        matchings[(i, j)] = dict(zip(rng.sample(labels[i - 1], size),
                                     rng.sample(labels[j - 1], size)))
    return C.Cover(g, t, labels, matchings)


def test_transversals_match_product_reference():
    rng = random.Random(8)
    counts = set()
    for _ in range(150):
        cov = random_partial_cover(rng, rng.randint(1, 6))
        assert C.validate(cov) == []
        want = [choice for choice in product(*(cov.labels_of(v) for v in range(1, cov.graph.n + 1)))
                if C.is_valid_transversal(cov, choice)]
        assert list(C.transversals(cov)) == want
        assert C.count_transversals(cov) == len(want)
        counts.add(len(want))
    assert 0 in counts and len(counts) > 20


def test_transversals_charge_the_budget():
    cov = identity_cover(G.cycle(5), 3)
    with pytest.raises(BudgetExceeded):
        list(C.transversals(cov, Budget(20)))
    spent = Budget(10**6)
    assert len(list(C.transversals(cov, spent))) == 30
    assert spent.spent > 30


def until_exhausted(items):
    """The items drawn before the budget ran out, and whether it did."""
    drawn = []
    try:
        for x in items:
            drawn.append(x)
    except BudgetExceeded:
        return drawn, True
    return drawn, False


def test_transversals_match_the_forward_checking_reference():
    # label tuples out of value order too: a label's bit is its position
    rng = random.Random(35)
    partial = shuffled = 0
    for _ in range(200):
        cov = random_partial_cover(rng, rng.randint(1, 7))
        if rng.random() < 0.5:
            cov = shuffled_labels(rng, cov)
            shuffled += cov.labels != tuple(map(tuple, map(sorted, cov.labels)))
        got_budget, want_budget = Budget(10**9), Budget(10**9)
        got = list(C.transversals(cov, got_budget))
        assert got == list(ref_fc_transversals(cov, want_budget))
        assert got == [p for p in product(*cov.labels) if C.is_valid_transversal(cov, p)]
        assert got_budget.spent == want_budget.spent
        # a budget up to the spend runs out at the same label, after the
        # same items
        limit = rng.randint(1, want_budget.spent)
        got_budget, want_budget = Budget(limit), Budget(limit)
        cut = until_exhausted(C.transversals(cov, got_budget))
        assert cut == until_exhausted(ref_fc_transversals(cov, want_budget))
        assert cut[1] and got_budget.spent == want_budget.spent == limit
        partial += bool(cut[0])
    assert shuffled >= 40 and partial >= 20


def random_three_fold_cover(seed, n, m):
    """m random edges on n vertices, each carrying one of the six perfect
    matchings a -> beta - a and a -> a - beta of F_3."""
    rng = random.Random(seed)
    g = G.from_edges(n, sorted(rng.sample(list(combinations(range(1, n + 1), 2)), m)))
    signs = {e: rng.choice((-1, 1)) for e in g.edges}
    offsets = {e: rng.randrange(3) for e in g.edges}
    return C.cover_from_pattern(g, 3, signs, offsets)


def test_forward_checking_settles_a_45_vertex_random_cover():
    # plain backtracking runs out of 2,000,000 labels on this cover; forward
    # checking colors it after 58,087
    cov = random_three_fold_cover(5, 45, 104)
    with pytest.raises(BudgetExceeded):
        ref_h_coloring_search(cov, Budget(2_000_000))
    budget = Budget(2_000_000)
    begin = time.perf_counter()
    found = C.h_coloring_search(cov, budget)
    assert time.perf_counter() - begin < 1.0
    assert C.is_valid_transversal(cov, found)
    assert budget.spent == 58_087
    assert found == (0, 2, 1, 1, 2, 2, 2, 1, 2, 0, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 2, 0,
                     0, 1, 1, 0, 1, 2, 2, 2, 1, 0, 0, 2, 0, 2, 2, 1, 1, 0, 0, 0, 0, 1)


def ref_is_good_cover(cover, budget, undone=None, shifts=1):
    """The recursive renaming search: BFS order, candidates anchored on the
    first earlier matched edge, one tick per candidate tried.  `undone`, a
    list, gets one item per renaming taken back.  The anchor's partners'
    names are shifted by each of the first `shifts` offsets in turn; with
    shifts = t, every offset."""
    g = cover.graph
    t = cover.t
    fld = cover.field
    order = [v for comp in g.components() for v in G.bfs(g._neighbours, comp[0])]
    pos = {v: k for k, v in enumerate(order)}

    def renamed_good(sigma, rho_i, rho_j):
        return len({fld.sub(rho_i[a], rho_j[b]) for a, b in sigma.items()}) <= 1

    def candidates(v, maps):
        anchor = None
        for u in order[: pos[v]]:
            e = (u, v) if u < v else (v, u)
            sigma = cover.matchings.get(e)
            if sigma:
                anchor = (u, e, sigma)
                break
        if anchor is None:
            for img in permutations(range(t), len(cover.labels_of(v))):
                yield dict(zip(cover.labels_of(v), img))
            return
        u, e, sigma = anchor
        rho_u = maps[u]
        if e == (u, v):
            pinned_src = {b: rho_u[a] for a, b in sigma.items()}
        else:
            pinned_src = {a: rho_u[b] for a, b in sigma.items()}
        for beta in range(shifts):
            rho = {}
            for lbl, base in pinned_src.items():
                val = fld.sub(base, beta) if e == (u, v) else fld.add(base, beta)
                if val in rho.values():
                    break
                rho[lbl] = val
            else:
                free = [lbl for lbl in cover.labels_of(v) if lbl not in rho]
                avail = tuple(x for x in range(t) if x not in set(rho.values()))
                for img in permutations(avail, len(free)):
                    yield {**rho, **dict(zip(free, img))}

    maps = {}

    def backtrack(k):
        if k == len(order):
            return True
        v = order[k]
        for rho in candidates(v, maps):
            budget.tick()
            ok = True
            for u in order[:k]:
                e = (u, v) if u < v else (v, u)
                sigma = cover.matchings.get(e)
                if not sigma:
                    continue
                good = (renamed_good(sigma, maps[u], rho) if e == (u, v)
                        else renamed_good(sigma, rho, maps[u]))
                if not good:
                    ok = False
                    break
            if ok:
                maps[v] = rho
                if backtrack(k + 1):
                    return True
                del maps[v]
                if undone is not None:
                    undone.append(v)
        return False

    return dict(maps) if backtrack(0) else None


def disguised_good_cover(rng, n):
    """A cover with good-diff matchings on a random graph, with every label
    set renamed at random, so that the search must undo the renaming."""
    g = random_graph(rng, n, 0.6)
    t = rng.choice((3, 4, 5))
    fld = make_field(t)
    labels = tuple(tuple(sorted(rng.sample(range(t), rng.randint(2, t)))) for _ in range(n))
    matchings = {}
    for i, j in g.edges:
        beta = rng.randrange(t)
        matchings[(i, j)] = {a: fld.sub(a, beta) for a in labels[i - 1]
                             if fld.sub(a, beta) in labels[j - 1]}
    cov = C.Cover(g, t, labels, matchings)
    maps = {v: dict(zip(cov.labels_of(v), rng.sample(range(t), len(cov.labels_of(v)))))
            for v in range(1, n + 1)}
    return C.apply_relabeling(cov, maps)


def test_is_good_cover_matches_recursive_search_and_ticks():
    rng = random.Random(12)
    outcomes = collections.Counter()
    more = 0
    for k in range(120):
        n = rng.randint(1, 6)
        if k % 3 == 0:
            cov = disguised_good_cover(rng, n)
        elif k % 3 == 1:
            cov = random_partial_cover(rng, n)
        else:  # full labels and random permutations: often not good
            g, t = random_graph(rng, n, 0.6), 3
            cov = C.Cover(g, t, tuple(tuple(range(t)) for _ in range(n)),
                          {e: dict(enumerate(rng.sample(range(t), t))) for e in g.edges})
        got_budget, want_budget, undone = Budget(10**9), Budget(10**9), []
        got = C.is_good_cover(cov, got_budget)
        want = ref_is_good_cover(cov, want_budget, undone)
        assert got == want
        if got is not None:
            assert list(got) == list(want)  # the same vertex order too
        assert got_budget.spent == want_budget.spent
        # the anchor's other offsets only repeat the candidates, translated:
        # every offset finds the same witness, at no lower spend
        every = Budget(10**9)
        assert ref_is_good_cover(cov, every, shifts=cov.t) == got
        assert every.spent >= got_budget.spent
        more += every.spent > got_budget.spent
        outcomes[got is not None, bool(undone)] += 1
        # a budget that runs out stops both searches at the same step
        limit = rng.randint(1, want_budget.spent)
        cut = []
        for search in (C.is_good_cover, ref_is_good_cover):
            budget = Budget(limit)
            try:
                search(cov, budget)
            except BudgetExceeded:
                cut.append(("exhausted", budget.spent))
            else:
                cut.append(("finished", budget.spent))
        assert cut[0] == cut[1]
    # found without and after taking a renaming back, and not found
    assert min(outcomes[True, False], outcomes[True, True], outcomes[False, True]) >= 5
    assert more >= 5


def test_is_good_cover_handles_long_paths():
    cov = C.cover_from_pattern(G.path(1500), 3)
    witness = C.is_good_cover(cov)
    assert witness is not None and len(witness) == 1500


def test_is_good_cover_takes_linear_time_on_a_disguised_path():
    # each vertex of the identity 3-cover of P_8000 is renamed at random;
    # the search takes about 0.2 s on a 2 GHz core, and rescanning every
    # earlier vertex per candidate took 8 s
    g = G.path(8000)
    rng = random.Random(8000)
    cov = C.apply_relabeling(C.cover_from_pattern(g, 3),
                             {v: dict(enumerate(rng.sample(range(3), 3)))
                              for v in range(1, g.n + 1)})
    assert not all(C.classify_saturation(cov, e).is_good for e in g.edges)
    start = time.perf_counter()
    witness = C.is_good_cover(cov)
    elapsed = time.perf_counter() - start
    assert witness is not None and len(witness) == g.n
    renamed = C.apply_relabeling(cov, witness)
    assert all(C.classify_saturation(renamed, e).is_good for e in g.edges)
    assert elapsed < 4.0


def random_tree(rng, n):
    return G.from_edges(n, [(rng.randint(1, v - 1), v) for v in range(2, n + 1)])


@pytest.mark.parametrize("name,g,want", [
    ("P300", G.path(300), ("exact", 2, 1, 2)),
    ("C301", G.cycle(301), ("exact", 3, 6, 3)),
    ("tree200", random_tree(random.Random(9), 200), ("exact", 2, 1, 2)),
])
def test_exact_dp_chromatic_scales_with_the_cotree(name, g, want):
    """The grid covers only the cotree endpoints, so a long path or cycle
    is one or two points wide."""
    begin = time.perf_counter()
    res = C.exact_dp_chromatic(g, 3)
    elapsed = time.perf_counter() - begin
    assert (res.status, res.value, res.covers_tested, res.m_reached) == want
    assert elapsed < 1.0


def test_exact_dp_chromatic_charges_an_oversized_grid_to_the_budget():
    # 20 cotree endpoints at m = 4 would need masks of 4^20 bits each
    g = G.cycle_power(20, 2)
    res = C.exact_dp_chromatic(g, 4)
    assert res.status == "unknown"


# ---------------------------------------------------------------------------
# text format

def test_cover_round_trip_bit_exact():
    cov = C.uncolorable_cover_c3k_square(2)
    text = C.write_cover(cov)
    again = C.read_cover(text)
    assert C.write_cover(again) == text
    assert again.matchings == cov.matchings
    assert again.labels == cov.labels


def test_cover_read_accepts_comments_and_validates():
    text = "# a cover\ncover t=3\nL 1 0 1\nL 2 0 1 2\nM 1 2 0->2 1->0\n"
    cov = C.read_cover(text)
    assert cov.labels == ((0, 1), (0, 1, 2))
    assert cov.matchings == {(1, 2): {0: 2, 1: 0}}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("L 1 0\n", "before header"),
        ("cover t=3\nL 1 0\nM 2 1 0->0\n", "i < j"),
        ("cover t=3\nL 1 0\nL 1 1\n", "duplicate"),
        ("cover t=3\nL 1 0\nL 2 0\nM 1 2 0->0 0->1\n", "matched twice"),
        ("cover t=3\nL 1 5\nL 2 0\nM 1 2 5->0\n", "outside"),
        ("cover t=3\n", "no label records"),
        ("cover t=3\nL 0 0 1 2\nL 1 0 1 2\n", "line 2: label record for vertex 0"),
        ("cover t=3\nL -1 0\nL 1 0\n", "line 2: label record for vertex -1"),
        ("cover t=3\nL 1 0 1\nM 1 2 0->0\n", r"missing label records for vertices \[2\]"),
        ("cover t=3\nL 1 0 1\nM 0 1 0->0\n", "line 3: matching endpoints must satisfy 1 <= i < j"),
        ("cover t=3\nL 1 0\nm 1 2 0->0\n", "line 3: unknown record 'm'"),
        # a far-out vertex names the first ten vertices without a record
        ("cover t=3\nL 100000 0\n", r"vertices \[1, 2, 3, 4, 5, 6, 7, 8, 9, 10\]$"),
    ],
)
def test_cover_read_rejects_malformed(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        C.read_cover(text)


@st.composite
def edited(draw, texts, tokens):
    """One of `texts` with up to three edits, each dropping or repeating a
    line or putting one of the format's tokens in place of a field, or
    after the last."""
    lines = [line.split() for line in draw(st.sampled_from(texts)).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "repeat", "field")))
        if edit == "drop":
            del lines[k]
        elif edit == "repeat":
            lines.insert(k, lines[k])
        else:
            i = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:i] + [draw(st.sampled_from(tokens))] + lines[k][i + 1:]
    return "\n".join(map(" ".join, lines))


NUMBERS = tuple(map(str, range(-1, 6)))
GRAPH_TEXT = edited(
    [G.write_graph(g) for g in (G.cycle(4), G.complete(4), G.path(3), G.empty_graph(2))],
    ("p", "e", "q", "#", "x", *NUMBERS))
COVER_TEXT = edited(
    [C.write_cover(c) for c in (C.cover_from_pattern(G.cycle(4), 3),
                                C.uncolorable_cover_c3k_square(2),
                                C.cover_from_lists(G.path(3), {1: (0,), 2: (0, 1), 3: (1, 2)}))],
    ("cover", "t=3", "t=x", "L", "M", "m", "#", "x", "->", "0->1", "x->1", *NUMBERS))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(GRAPH_TEXT.map(lambda text: (G.read_graph, G.write_graph, text)),
                 COVER_TEXT.map(lambda text: (C.read_cover, C.write_cover, text))))
def test_readers_return_or_raise_format_errors(case):
    read, write, text = case
    try:
        got = read(text)
    except FormatError:
        return
    again = read(write(got))
    assert write(again) == write(got)
