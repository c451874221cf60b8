"""Graph constructions, oracles, text format, and the tree catalog."""
import hashlib
import pickle
import random
import time
from itertools import combinations, product

import pytest

from dpnull.budget import Budget, BudgetExceeded
from dpnull.errors import FormatError, NotUniquelyColorable
from dpnull import cover as C
from dpnull import graphs as G


def bfs_distance_edges(n, k):
    """Independent construction of cycle-power edges via BFS distances in C_n."""
    ring = {v: {v % n + 1, (v - 2) % n + 1} for v in range(1, n + 1)}
    edges = set()
    for s in range(1, n + 1):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in ring[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for v, d in dist.items():
            if 0 < d <= k and s < v:
                edges.add((s, v))
    return edges


def exhaustive_chromatic(g, kmax):
    """Independent chromatic oracle by raw product enumeration (tiny n only)."""
    for k in range(1, kmax + 1):
        for assign in product(range(k), repeat=g.n):
            if all(assign[i - 1] != assign[j - 1] for i, j in g.edges):
                return k
    return None


def test_family_examples():
    assert len(G.cycle_power(6, 2).edges) == 12
    g = G.complete_bipartite_minus_matching(4, 4, 2)
    assert (g.n, len(g.edges)) == (8, 14)
    cone4 = G.cone(G.cycle(4))
    assert (cone4.n, len(cone4.edges)) == (5, 8)


def test_family_validation():
    with pytest.raises(G.GraphError):
        G.cycle(2)
    with pytest.raises(G.GraphError):
        G.complete_bipartite_minus_matching(2, 2, 3)
    with pytest.raises(G.GraphError):
        G.from_edges(3, [(1, 1)])
    with pytest.raises(G.GraphError):
        G.Graph(3, ((1, 2), (1, 2)))


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_cycle_power_matches_bfs_closure(n, k):
    assert set(G.cycle_power(n, k).edges) == bfs_distance_edges(n, k)


@pytest.mark.parametrize("n", range(3, 14))
def test_cycle_power_matches_the_pair_scan(n):
    for k in range(1, 8):
        want = tuple((i, j) for i, j in combinations(range(1, n + 1), 2)
                     if min(j - i, n - (j - i)) <= k)
        assert G.cycle_power(n, k).edges == want, k


def test_parse_graph_name():
    assert G.parse_graph_name("c6sq").edges == G.cycle_power(6, 2).edges
    assert G.parse_graph_name("C9^2").edges == G.cycle_power(9, 2).edges
    assert G.parse_graph_name("k4,4-m2").edges == G.complete_bipartite_minus_matching(4, 4, 2).edges
    assert G.parse_graph_name("join(e2,p5)").edges == G.join(G.empty_graph(2), G.path(5)).edges
    assert G.parse_graph_name("cone(c4)").edges == G.cone(G.cycle(4)).edges
    # join splits only at its top-level comma, not inside cone(...):
    # cone(C_4) has 5 vertices and 8 edges, P_2 2 and 1, the join 5 * 2 more
    nested = G.parse_graph_name("join(cone(c4),p2)")
    assert (nested.n, len(nested.edges)) == (7, 19)
    assert nested == G.join(G.cone(G.cycle(4)), G.path(2))
    assert G.parse_graph_name("frob99") is None
    assert G.parse_graph_name("join(e2,3)") is None  # one part, and "3" names no family
    assert G.parse_graph_name("p5").edges == G.path(5).edges
    assert G.parse_graph_name("c6").edges == G.cycle(6).edges
    assert G.parse_graph_name("k4").edges == G.complete(4).edges
    assert G.parse_graph_name("k3,5").edges == G.complete_bipartite(3, 5).edges
    assert G.parse_graph_name("e2") == G.empty_graph(2)
    for bad in ("p0", "c2", "k0,3"):
        with pytest.raises(G.GraphError):
            G.parse_graph_name(bad)


@pytest.mark.parametrize("name, parts, size", [
    ("join(k2,3,p2)", ((G.complete_bipartite, 2, 3), (G.path, 2)), (7, 17)),
    ("join(p2,k2,3)", ((G.path, 2), (G.complete_bipartite, 2, 3)), (7, 17)),
    ("join(k3,3-m1,k3,3-m1)", ((G.complete_bipartite_minus_matching, 3, 3, 1),) * 2, (12, 52)),
    ("join(k2,2,e1)", ((G.complete_bipartite, 2, 2), (G.empty_graph, 1)), (5, 8)),
])
def test_join_names_with_a_complete_bipartite_part(name, parts, size):
    # a k<a>,<b> name holds the only comma followed by a digit, so join
    # does not split there
    g = G.join(*(build(*args) for build, *args in parts))
    assert G.parse_graph_name(name) == g and (g.n, len(g.edges)) == size
    assert G.parse_graph_name(f"cone({name})") == G.cone(g)


def test_join_vertex_order():
    g = G.join(G.empty_graph(2), G.path(5))
    # the two independent vertices come first, the path is 3..7
    assert (g.n, len(g.edges)) == (7, 14)
    assert (1, 2) not in g.edges
    assert all((i, j) in set(g.edges) for i in (1, 2) for j in range(3, 8))
    assert {(3, 4), (4, 5), (5, 6), (6, 7)} <= set(g.edges)


def union_find_acyclic_spanning(g, tree):
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in tree:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    roots = {find(v) for v in range(1, g.n + 1)}
    return len(roots) == len(g.components())


@pytest.mark.parametrize(
    "g,want",
    [
        (G.cycle(4), 3),
        (G.complete_bipartite_minus_matching(4, 4, 2), 7),
        (G.empty_graph(3), 0),
        (G.from_edges(5, [(1, 2), (3, 4)]), 2),
    ],
)
def test_spanning_tree_sizes(g, want):
    tree = G.spanning_tree(g)
    assert len(tree) == want
    assert union_find_acyclic_spanning(g, tree)


def test_chromatic_number_examples():
    assert G.chromatic_number(G.cycle_power(5, 2), 6) == 5
    assert G.chromatic_number(G.cycle_power(6, 2), 6) == 3
    assert G.chromatic_number(G.cycle_power(7, 2), 6) == 4
    assert G.chromatic_number(G.cycle(5), 2) is None


def test_chromatic_number_budget_is_explicit():
    from dpnull.budget import Budget, BudgetExceeded

    with pytest.raises(BudgetExceeded):
        G.chromatic_number(G.cycle_power(7, 2), 7, Budget(3))


@pytest.mark.parametrize(
    "g", [G.path(4), G.cycle(5), G.complete(4), G.cycle_power(6, 2), G.complete_bipartite(2, 3)]
)
def test_chromatic_number_against_product_oracle(g):
    assert G.chromatic_number(g, g.n) == exhaustive_chromatic(g, g.n)


def ref_two_colorable(g):
    """Whether a 2-colouring found by a graph search of its own over the
    adjacency leaves no edge inside one colour class."""
    side = {}
    for s in range(1, g.n + 1):
        if s in side:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in g._neighbours[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
    return all(side[i] != side[j] for i, j in g.edges)


def ref_chromatic_number(g, kmax, budget, picks=None):
    """The recursive search that chromatic_number replaced, scanning every
    uncoloured vertex for the next one; `picks` collects them in order.
    A 2-colouring of its own gives the least k to search from: 1 with no
    edges and 2 without an odd cycle, both answered with no search, else 3."""
    if g.n == 0:
        return 0
    start = 1 if not g.edges else 2 if ref_two_colorable(g) else 3
    if start < 3:
        return start if start <= kmax else None
    adj = g._neighbours

    def colorable(k):
        colors = {}
        neighbor_colors = {v: set() for v in range(1, g.n + 1)}

        def backtrack(used):
            budget.tick()
            if len(colors) == g.n:
                return True
            v = max(
                (u for u in range(1, g.n + 1) if u not in colors),
                key=lambda u: (len(neighbor_colors[u]), len(adj[u]), -u),
            )
            if picks is not None:
                picks.append(v)
            for c in range(min(used + 1, k)):
                if c in neighbor_colors[v]:
                    continue
                colors[v] = c
                touched = [w for w in adj[v] if w not in colors and c not in neighbor_colors[w]]
                for w in touched:
                    neighbor_colors[w].add(c)
                if backtrack(max(used, c + 1)):
                    return True
                for w in touched:
                    neighbor_colors[w].discard(c)
                del colors[v]
            return False

        return backtrack(0)

    for k in range(start, kmax + 1):
        if colorable(k):
            return k
    return None


def _random_graphs(seed, count, nmax):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, nmax)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        out.append(G.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
    return out


def mycielskian(g):
    """Mycielski's construction: chromatic number one more than g's, no new
    triangles; saturation-degree search has to backtrack on these."""
    n = g.n
    edges = list(g.edges) + [(i, n + j) for i, j in g.edges] + [(j, n + i) for i, j in g.edges]
    edges += [(n + v, 2 * n + 1) for v in range(1, n + 1)]
    return G.from_edges(2 * n + 1, edges)


def test_chromatic_number_matches_recursive_search_and_ticks():
    exhausted = 0
    hard = [mycielskian(G.cycle(5)), mycielskian(G.cycle(7)), mycielskian(G.cycle(9)),
            G.cycle_power(11, 3), G.cycle_power(13, 4), G.cycle_power(15, 4)]
    for g in _random_graphs(31, 80, 9) + hard + [G.cycle_power(7, 2), G.complete(6), G.path(12)]:
        for kmax in (2, 3, g.n):
            # greedy coloring settles every k from the coloring number up,
            # so the reference search's spend counts only the k below it
            searched = min(kmax, ref_coloring_number(g) - 1)
            new, old = Budget(10**9), Budget(10**9)
            want = ref_chromatic_number(g, kmax, Budget(10**9))
            assert G.chromatic_number(g, kmax, new) == want
            ref_chromatic_number(g, searched, old)
            assert new.spent == old.spent
            limit = max(1, old.spent // 2)
            outcomes = []
            try:
                outcomes.append(G.chromatic_number(g, kmax, Budget(limit)))
            except BudgetExceeded as exc:
                outcomes.append(("exhausted", exc.spent))
            try:
                ref_chromatic_number(g, searched, Budget(limit))
                outcomes.append(want)
            except BudgetExceeded as exc:
                outcomes.append(("exhausted", exc.spent))
            assert outcomes[0] == outcomes[1]
            exhausted += outcomes[0] == ("exhausted", limit)
    assert exhausted > 50


def test_chromatic_number_handles_long_paths():
    assert G.chromatic_number(G.path(1500), 3) == 2


def test_chromatic_number_picks_the_vertices_the_scan_picks(monkeypatch):
    """The heap of saturation degrees picks each search node's vertex as
    the scan over every uncoloured vertex does, with the same ticks, also
    on searches that backtrack long enough to rebuild the heap."""
    picks = []
    pick = G._most_saturated

    def spy(*args):
        picks.append(pick(*args))
        return picks[-1]

    monkeypatch.setattr(G, "_most_saturated", spy)
    hard = [mycielskian(mycielskian(G.cycle(5))), mycielskian(G.cycle(9)),
            mycielskian(G.cycle(11)), mycielskian(G.cycle(13)), G.cycle_power(13, 4),
            G.cycle_power(17, 5), G.path(40)]
    nodes = 0
    for g in _random_graphs(47, 120, 14) + hard:
        for kmax in (2, 3, 4, g.n):
            picks.clear()
            want = []
            new, old = Budget(10**9), Budget(10**9)
            value = ref_chromatic_number(g, kmax, Budget(10**9))
            assert G.chromatic_number(g, kmax, new) == value
            ref_chromatic_number(g, min(kmax, ref_coloring_number(g) - 1), old, want)
            assert picks == want and new.spent == old.spent, (g, kmax)
            nodes += new.spent
    assert nodes > 12_000


def test_chromatic_number_on_a_30000_vertex_path_takes_linear_time():
    # a bipartite graph is settled by its forest, with no search
    g = G.path(30_000)
    budget = Budget(10**9)
    start = time.perf_counter()
    assert G.chromatic_number(g, 3, budget) == 2
    assert time.perf_counter() - start < 5.0
    assert budget.spent == 0


def test_chromatic_number_on_a_30001_vertex_odd_cycle_takes_linear_time():
    # an odd cycle has coloring number 3, so the peel settles it with no
    # search; the scan took 2.5 s at n = 3,000 and grew as n^2, and the
    # heap's search at k = 3 never backtracks here
    g = G.cycle(30_001)
    budget = Budget(10**9)
    assert G.chromatic_number(g, 3, budget) == 3
    assert budget.spent == 0
    start = time.perf_counter()
    assert next(G._partitions(g, 3, budget)) is not None
    assert time.perf_counter() - start < 5.0
    assert budget.spent == 30_001 + 1  # one node per vertex, one at the leaf


@pytest.mark.parametrize("g, kmax, want", [
    (G.empty_graph(0), 3, 0),
    (G.empty_graph(4), 1, 1),
    (G.empty_graph(4), 0, None),
    (G.complete(2), 1, None),
    (G.complete_bipartite(3, 4), 1, None),
    (G.complete_bipartite(3, 4), 2, 2),
    (G.cycle(5), 2, None),
    (G.cycle(5), 3, 3),
])
def test_chromatic_number_edge_cases(g, kmax, want):
    budget = Budget(10**6)
    assert G.chromatic_number(g, kmax, budget) == want
    assert g.bipartition() is None or budget.spent == 0


def ref_coloring_number(g):
    """1 + degeneracy by removing, at each step, the alive vertex of least
    degree found by a scan over all of them."""
    if g.n == 0:
        return 0
    deg = {v: g.degree(v) for v in range(1, g.n + 1)}
    best = 0
    while deg:
        v = min(deg, key=lambda u: (deg[u], u))
        best = max(best, deg.pop(v))
        for w in g._neighbours[v]:
            if w in deg:
                deg[w] -= 1
    return best + 1


def test_coloring_number_matches_the_min_scan():
    hard = [mycielskian(mycielskian(G.cycle(5))), G.cycle_power(13, 4), G.complete(7),
            G.complete_bipartite(3, 9), G.path(40), G.empty_graph(0)]
    values = set()
    for g in _random_graphs(61, 150, 14) + hard:
        assert g.coloring_number() == ref_coloring_number(g), g
        values.add(g.coloring_number())
    assert len(values) >= 7


def ref_bfs(adj, root, seen):
    """Queue walk with pop(0), as each BFS caller once ran its own:
    (vertex, parent) pairs in visit order."""
    seen.add(root)
    queue = [root]
    out = []
    parent = {root: 0}
    while queue:
        v = queue.pop(0)
        out.append((v, parent[v]))
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                queue.append(w)
    return out


def ref_bipartition(g):
    side = {}
    for comp in g.components():
        side[comp[0]] = 0
        queue = [comp[0]]
        while queue:
            v = queue.pop(0)
            for w in g._neighbours[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    return (tuple(v for v in range(1, g.n + 1) if side[v] == 0),
            tuple(v for v in range(1, g.n + 1) if side[v] == 1))


def test_bfs_callers_match_queue_walks():
    graphs = _random_graphs(5, 120, 10)
    graphs += [G.complete_bipartite(3, 4), G.cycle(8), G.cycle(7), G.empty_graph(4)]
    assert any(g.bipartition() is not None and g.edges for g in graphs)
    for g in graphs:
        seen = set()
        comps, tree, forest = [], [], []
        for start in range(1, g.n + 1):
            if start in seen:
                continue
            visit = ref_bfs(g._neighbours, start, seen)
            assert list(G.bfs(g._neighbours, start).items()) == visit
            comps.append(tuple(sorted(v for v, _ in visit)))
            tree += [tuple(sorted((v, p))) for v, p in visit if p]
            forest += visit
        assert list(g.forest.items()) == forest
        with pytest.raises(TypeError):
            g.forest[1] = 0
        assert pickle.loads(pickle.dumps(g)).forest == g.forest
        assert g.components() == comps
        g.components().clear()  # the caller's own list
        assert g.components() == comps
        assert G.spanning_tree(g) == tuple(sorted(tree))
        assert g.bipartition() == ref_bipartition(g)
        assert g.is_connected() == (len(comps) <= 1)
        assert g.contains_cycle() == (len(g.edges) > len(tree))


def test_coloring_number_is_cached_and_pickles():
    g = G.cone(G.path(6))
    assert g.coloring_number() == 3 and vars(g)["_coloring_number"] == 3
    assert g.is_connected() and "forest" in vars(g)
    again = pickle.loads(pickle.dumps(g))
    # the forest, a mappingproxy, is left out and rebuilt on first read;
    # the other cached values travel
    assert "forest" not in vars(again) and vars(again)["_coloring_number"] == 3
    assert again == g and again.coloring_number() == 3 and again.forest == g.forest
    assert "forest" in vars(again) and again.components() == g.components()


def _reach(v, edges):
    """The vertices joined to v by a path of these edges, by growing the
    set until no edge leaves it."""
    seen, grew = {v}, True
    while grew:
        grew = False
        for i, j in edges:
            if (i in seen) != (j in seen):
                seen |= {i, j}
                grew = True
    return seen


def test_graph_core_matches_brute_force_on_random_graphs():
    """Every invariant read from the sorted neighbour lists against a
    reference built from the edge list alone, on seeded graphs with
    n = 0..9 of every density: edgeless ones, sparse ones with isolated
    vertices and several components, dense ones."""
    rng = random.Random(32)
    cases = []
    for _ in range(400):
        n = rng.randint(0, 9)
        density = rng.random()
        # a third of them keep only edges across a random split: bipartite
        side = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        across = rng.random() < 0.3
        edges = [(i, j) for i, j in combinations(range(1, n + 1), 2)
                 if rng.random() < density and not (across and side[i] == side[j])]
        rng.shuffle(edges)
        cases.append((n, edges))
    # K_3 + K_2 and C_4 + K_2: several components, a cycle, no isolated
    # vertex; C_3 + C_4: every degree 2 and n edges, yet not a cycle; P_9
    # plus the chord (7, 9): the only odd cycle closes at the last edge
    cases += [(5, [(4, 5), (1, 2), (2, 3), (1, 3)]), (6, [(5, 6), (1, 2), (2, 3), (3, 4), (1, 4)]),
              (7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)]),
              (9, [*G.path(9).edges, (7, 9)])]
    shapes = set()
    for n, edges in cases:
        g = G.from_edges(n, edges)
        nbrs = {v: [] for v in range(1, n + 1)}
        for i, j in edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        nbrs = {v: sorted(ns) for v, ns in nbrs.items()}
        assert g._neighbours == nbrs
        assert [g.degree(v) for v in range(1, n + 1)] == [len(nbrs[v]) for v in range(1, n + 1)]
        assert g.max_degree() == max(map(len, nbrs.values()), default=0)
        comps = []
        for v in range(1, n + 1):
            if not any(v in comp for comp in comps):
                comps.append(tuple(sorted(_reach(v, edges))))
        assert g.components() == comps
        assert g.is_connected() == (len(comps) <= 1)
        # an edge lies on a cycle when its ends stay joined without it
        assert g.contains_cycle() == any(
            j in _reach(i, [e for e in g.edges if e != (i, j)]) for i, j in g.edges)
        assert g.is_cycle_graph() == (n >= 3 and len(comps) == 1
                                      and all(len(ns) == 2 for ns in nbrs.values()))
        # the one proper 2-colouring, if any, with each component's lowest
        # vertex on side 0, from every assignment of the other vertices
        lowest = {comp[0] for comp in comps}
        rest = [v for v in range(1, n + 1) if v not in lowest]
        sides = []
        for bits in product((0, 1), repeat=len(rest)):
            side = dict.fromkeys(lowest, 0) | dict(zip(rest, bits))
            if all(side[i] != side[j] for i, j in edges):
                sides.append(side)
        assert len(sides) <= 1
        want = None
        if sides:
            want = tuple(tuple(v for v in range(1, n + 1) if sides[0][v] == x) for x in (0, 1))
        assert g.bipartition() == want
        # repeated minimum-degree removal
        alive = {v: set(ns) for v, ns in nbrs.items()}
        best = 0
        while alive:
            v = min(alive, key=lambda u: len(alive[u]))
            best = max(best, len(alive[v]))
            for w in alive.pop(v):
                alive[w].discard(v)
        assert g.coloring_number() == (best + 1 if n else 0)
        forest, seen = [], set()
        for root in range(1, n + 1):
            if root not in seen:
                forest += ref_bfs(nbrs, root, seen)
        assert list(g.forest.items()) == forest
        shapes.add((len(comps) > 1, g.contains_cycle(), want is not None,
                    any(not ns for ns in nbrs.values())))
    # disconnected and connected, cyclic and acyclic, bipartite and not,
    # with and without isolated vertices: all ten combinations a graph
    # can have (connected with an isolated vertex is K_1; acyclic is
    # bipartite)
    assert len(shapes) == 10


def count_colorings_oracle(g, lists):
    total = 0
    for assign in product(*(lists[v] for v in range(1, g.n + 1))):
        if all(assign[i - 1] != assign[j - 1] for i, j in g.edges):
            total += 1
    return total


def count_colorings(g, lists):
    """Proper list colorings counted by the transversal search on the cover
    that matches equal colours."""
    return C.count_transversals(C.cover_from_lists(g, lists))


def test_count_colorings_examples():
    assert count_colorings(G.path(3), {1: (0,), 2: (0, 1), 3: (0, 1)}) == 1
    assert count_colorings(G.complete(3), {1: (0,), 2: (0, 1), 3: (0, 1, 2)}) == 1
    assert count_colorings(G.path(2), {1: (0,), 2: (0,)}) == 0


def test_count_colorings_against_product_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 5)
        edges = [e for e in G.complete(n).edges if rng.random() < 0.6]
        g = G.from_edges(n, edges)
        lists = {v: tuple(sorted(rng.sample(range(3), rng.randint(1, 3)))) for v in range(1, n + 1)}
        assert count_colorings(g, lists) == count_colorings_oracle(g, lists)


def test_count_colorings_on_a_long_path():
    assert count_colorings(G.path(1500), {v: (0, 1) for v in range(1, 1501)}) == 2


def test_unique_k_analysis_k2p5():
    g = G.join(G.empty_graph(2), G.path(5))
    stats = G.unique_k_analysis(g, 3)
    assert set(map(frozenset, stats.classes)) == {
        frozenset({1, 2}),       # the two joined vertices
        frozenset({4, 6}),       # the second and fourth path vertices
        frozenset({3, 5, 7}),    # the odd path vertices
    }
    assert sum(stats.sizes) == g.n
    assert sum(stats.cross.values()) == len(g.edges)


def test_unique_k_analysis_c4_bipartition():
    stats = G.unique_k_analysis(G.cycle(4), 2)
    assert stats.classes == ((1, 3), (2, 4))
    assert stats.cross == {(1, 2): 4}


def test_unique_k_analysis_rejects_non_unique():
    with pytest.raises(NotUniquelyColorable):
        G.unique_k_analysis(G.cycle(6), 3)
    with pytest.raises(NotUniquelyColorable):
        G.unique_k_analysis(G.path(2), 1)  # zero partitions


def ref_unique_k_partitions(g, k):
    """The recursive restricted-growth enumeration, stopped at two
    partitions."""
    partitions = []
    assign = {}

    def backtrack(v, used):
        if len(partitions) >= 2:
            return
        if v > g.n:
            if used == k:
                classes = [[] for _ in range(k)]
                for u, c in assign.items():
                    classes[c].append(u)
                partitions.append(tuple(tuple(sorted(c)) for c in classes))
            return
        if used + (g.n - v + 1) < k:
            return
        for c in range(min(used + 1, k)):
            if any(w in assign and assign[w] == c for w in g._neighbours[v]):
                continue
            assign[v] = c
            backtrack(v + 1, max(used, c + 1))
            del assign[v]

    backtrack(1, 0)
    return partitions


def test_unique_k_analysis_matches_recursive_enumeration():
    known = [G.join(G.empty_graph(2), G.path(5)), G.cycle(4), G.cycle(6), G.complete(5),
             G.path(9), mycielskian(G.cycle(5)), G.empty_graph(3)]
    found = {0: 0, 1: 0, 2: 0}
    for g in _random_graphs(5, 120, 8) + known:
        for k in range(1, 5):
            want = ref_unique_k_partitions(g, k)
            found[len(want)] += 1
            if len(want) == 1:
                stats = G.unique_k_analysis(g, k)
                assert stats.classes == want[0]
                assert sum(stats.cross.values()) == len(g.edges)
            else:
                with pytest.raises(NotUniquelyColorable) as err:
                    G.unique_k_analysis(g, k)
                assert err.value.found == len(want)
    assert min(found.values()) > 20


def test_unique_k_analysis_handles_long_paths():
    stats = G.unique_k_analysis(G.path(1500), 2)
    assert stats.classes == (tuple(range(1, 1501, 2)), tuple(range(2, 1501, 2)))
    assert stats.cross == {(1, 2): 1499}


@pytest.mark.parametrize("n", (12, 14))
def test_unique_k_analysis_into_n_classes_of_an_empty_graph_is_fast(n):
    # every partition of E_n into fewer than n classes has too few vertices
    # left to open the missing ones; without that cut the search walked
    # them all first, Bell(14) = 190,899,322 of them at n = 14
    start = time.perf_counter()
    stats = G.unique_k_analysis(G.empty_graph(n), n)
    assert time.perf_counter() - start < 1.0
    assert stats.classes == tuple((v,) for v in range(1, n + 1))
    with pytest.raises(NotUniquelyColorable) as err:
        G.unique_k_analysis(G.empty_graph(n), n - 1)
    assert err.value.found == 2
    assert time.perf_counter() - start < 1.0


def set_partitions(n):
    """Every partition of 1..n, each vertex joining an earlier block or
    opening a new one."""
    parts = [[]]
    for v in range(1, n + 1):
        parts = [p[:i] + [p[i] | {v}] + p[i + 1:] for p in parts for i in range(len(p))] \
            + [p + [frozenset({v})] for p in parts]
    return parts


def test_partitions_yield_each_independent_partition_once():
    checked = 0
    for g in _random_graphs(59, 60, 7) + [G.empty_graph(5), G.complete(4), G.cycle(7)]:
        for k in range(1, 5):
            want = {frozenset(p) for p in set_partitions(g.n)
                    if len(p) <= k
                    and all(b.isdisjoint(w for v in b for w in g._neighbours[v]) for b in p)}
            got = []
            for colors, used in G._partitions(g, k, Budget(10**6)):
                blocks = [frozenset(v for v in colors if colors[v] == c) for c in range(used)]
                assert all(blocks)
                got.append(frozenset(blocks))
            assert len(got) == len(set(got))
            assert set(got) == want
            checked += len(want)
    assert checked > 1000


def test_unique_k_analysis_skips_isolated_vertices_quickly():
    # K_4 on vertices 31..34 has no 3-colouring; a search in vertex order
    # walks the 3^30 or so partitions of the isolated vertices first
    g = G.from_edges(34, combinations(range(31, 35), 2))
    start = time.perf_counter()
    with pytest.raises(NotUniquelyColorable) as err:
        G.unique_k_analysis(g, 3)
    assert time.perf_counter() - start < 1.0
    assert err.value.found == 0


def test_graph_text_round_trip():
    g = G.complete_bipartite_minus_matching(4, 4, 2)
    text = G.write_graph(g)
    again = G.read_graph(text)
    assert again.edges == g.edges and again.n == g.n
    assert G.write_graph(again) == text  # bit-exact


def test_graph_text_accepts_comments():
    text = "# hello\np 3 1\n\ne 1 3\n"
    g = G.read_graph(text)
    assert g.n == 3 and g.edges == ((1, 3),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 1 2\n", "line 1"),
        ("p 3 2\ne 1 2\n", "promised 2"),
        ("p 3 1\ne 3 1\n", "line 2"),
        ("p 3 1\nq 1 2\n", "unknown record"),
        ("p x y\n", "line 1"),
    ],
)
def test_graph_text_errors_carry_line_numbers(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        G.read_graph(text)


def test_tree_catalog_counts_match_known_sequence():
    # numbers of non-isomorphic trees on 1..10 vertices
    cat = G.tree_catalog(10)
    by_n = {}
    for t in cat:
        by_n[t.n] = by_n.get(t.n, 0) + 1
    assert [by_n[n] for n in range(1, 11)] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_tree_catalog_members_are_trees():
    for t in G.tree_catalog(7):
        assert len(t.edges) == t.n - 1
        assert t.is_connected()


def ref_rooted_key(root, n, edges):
    """The recursive definition: a vertex's key is the sorted tuple of its
    children's keys."""
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)

    def key(v, parent):
        return tuple(sorted(key(w, v) for w in adj[v] if w != parent))

    return key(root, 0)


def ref_centres(n, edges):
    """The vertices of least eccentricity, by distances grown one ring of
    neighbours at a time from each vertex."""
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    def eccentricity(v):
        seen, ring, ecc = {v}, {v}, 0
        while True:
            ring = {w for u in ring for w in adj[u]} - seen
            if not ring:
                return ecc
            seen |= ring
            ecc += 1

    ecc = {v: eccentricity(v) for v in adj}
    return [v for v in adj if ecc[v] == min(ecc.values())]


def ref_code(key):
    """The bracket spelling of a recursive key, "1" for ( and "0" for )."""
    return "1" + "".join(ref_code(k) for k in key) + "0"


def test_rooted_keys_match_the_recursive_definition(monkeypatch):
    """Every rooting of every tree on up to 9 vertices codes as the
    recursive key spells, codes sort as their keys, and the catalog built
    from the recursive keys is the same."""
    cat = G.tree_catalog(9)
    rooted = []
    for t in cat:
        for r in range(1, t.n + 1):
            key = ref_rooted_key(r, t.n, t.edges)
            code = G._rooted_key(t._neighbours, r)
            assert code == ref_code(key)
            rooted.append((code, key))
    assert sorted(rooted, key=lambda ck: ck[0]) == sorted(rooted, key=lambda ck: ck[1])
    assert len({code for code, _ in rooted}) == len({key for _, key in rooted})
    monkeypatch.setattr(G, "tree_key", lambda n, edges: min(
        ref_rooted_key(c, n, edges) for c in ref_centres(n, edges)))
    assert G.tree_catalog(9) == cat


def test_tree_catalog_is_pinned():
    """The 201 trees on up to 10 vertices keep their names, edges and
    order byte for byte."""
    cat = G.tree_catalog(10)
    assert len(cat) == 201
    digest = hashlib.sha256(repr([(t.name, t.n, t.edges) for t in cat]).encode()).hexdigest()
    assert digest == "86e8bca36027c40e44cc5597f73e56288ea88f45e484caa3d80b12ca9f4ccd7e"


def test_tree_key_of_a_long_path_does_not_recurse():
    """A path's key nests once per vertex from its centre; 5,000 vertices
    are far past the recursion limit, yet two keys compare, and the key
    is the path's code from its centre."""
    key = G.tree_key(5000, G.path(5000).edges)
    assert key == G.tree_key(5000, G.path(5000).edges)
    # a centre above two branches of 2,499 and 2,500 vertices
    assert key == "1" + "1" * 2499 + "0" * 2499 + "1" * 2500 + "0" * 2500 + "0"


def test_orientation_degrees():
    g = G.cycle(4)  # edges in lex order: (1,2), (1,4), (2,3), (3,4)
    d = G.Orientation(g, (1, 0, 1, 1))  # 1->2->3->4->1
    assert d.outdegrees() == (1, 1, 1, 1)
    assert set(d.arcs()) == {(1, 2), (2, 3), (3, 4), (4, 1)}
