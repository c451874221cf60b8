"""Simple undirected graphs with a fixed 1-based vertex order.

The vertex order is part of a graph's identity here: it fixes the sign of
every factor (x_i - x_j) in the edge-product polynomials, so constructions
document their numbering (cycles are numbered cyclically, joins put the
left operand first, bipartite graphs list one part before the other).

Also houses the brute-force chromatic utilities that serve as oracles for
the certifiers, and a small catalog generator for trees.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations
from types import MappingProxyType

from .budget import Budget, ensure_budget
from .errors import FormatError, NotUniquelyColorable


class GraphError(ValueError):
    """Invalid graph construction parameters."""


Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices v_1..v_n; every edge (i, j) has i < j."""

    n: int
    edges: tuple[Edge, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {self.n}")
        seen = set()
        for e in self.edges:
            i, j = e
            if not (1 <= i < j <= self.n):
                raise GraphError(f"edge {e} violates 1 <= i < j <= {self.n}")
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def forest(self) -> Mapping[int, int]:
        """The one spanning forest of the toolkit, read-only: vertex -> BFS
        parent, 0 at the lowest vertex of each component.  Components come
        in order of their lowest vertex, each in BFS visit order with
        neighbours taken in sorted order, so parents precede children.
        Components, spanning_tree, bipartition, the cover searches and the
        sign sweep's switchings all derive from it."""
        parent: dict[int, int] = {}
        for v in range(1, self.n + 1):
            if v not in parent:
                parent.update(bfs(self.adjacency, v))
        return MappingProxyType(parent)

    def __getstate__(self):
        # a mappingproxy does not pickle; the forest is rebuilt on demand
        state = dict(self.__dict__)
        state.pop("forest", None)
        return state

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(1, self.n + 1)), default=0)

    def components(self) -> list[tuple[int, ...]]:
        comps = []
        for v, parent in self.forest.items():
            if not parent:
                comps.append([])
            comps[-1].append(v)
        return [tuple(sorted(comp)) for comp in comps]

    def is_connected(self) -> bool:
        return list(self.forest.values()).count(0) <= 1

    def contains_cycle(self) -> bool:
        return len(self.edges) > self.n - list(self.forest.values()).count(0)

    def is_cycle_graph(self) -> bool:
        return (
            self.n >= 3
            and self.is_connected()
            and all(self.degree(v) == 2 for v in range(1, self.n + 1))
        )

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(X, Y) with X holding the lowest vertex of each component, or None."""
        side = {}
        for v, parent in self.forest.items():
            side[v] = 1 - side[parent] if parent else 0
        if any(side[i] == side[j] for i, j in self.edges):
            return None
        xs = tuple(v for v in range(1, self.n + 1) if side[v] == 0)
        ys = tuple(v for v in range(1, self.n + 1) if side[v] == 1)
        return xs, ys

    def coloring_number(self) -> int:
        """1 + degeneracy, via repeated minimum-degree removal.  A bucket
        queue by degree serves the minimum; the degeneracy does not depend
        on how ties are broken.  Entries go stale when a degree drops and
        are skipped when popped."""
        if self.n == 0:
            return 0
        adj = self.adjacency
        deg = [0, *(len(adj[v]) for v in range(1, self.n + 1))]  # -1: removed
        buckets = [[] for _ in range(max(deg) + 1)]
        for v in range(1, self.n + 1):
            buckets[deg[v]].append(v)
        best = d = 0
        for _ in range(self.n):
            while True:
                while not buckets[d]:
                    d += 1
                v = buckets[d].pop()
                if deg[v] == d:
                    break
            best = max(best, d)
            deg[v] = -1
            for w in adj[v]:
                if deg[w] >= 0:
                    deg[w] -= 1
                    buckets[deg[w]].append(w)
            # removing v lowers a degree by one at most
            d = max(d - 1, 0)
        return best + 1

    def subgraph(self, vertices: tuple[int, ...]) -> "Graph":
        """Induced subgraph, vertices renumbered 1..k in the given order."""
        index = {v: i + 1 for i, v in enumerate(vertices)}
        keep = set(vertices)
        edges = []
        for i, j in self.edges:
            if i in keep and j in keep:
                a, b = index[i], index[j]
                edges.append((a, b) if a < b else (b, a))
        return Graph(len(vertices), tuple(edges))


def from_edges(n: int, edges, name: str = "") -> Graph:
    norm = []
    for i, j in edges:
        if i == j:
            raise GraphError(f"loop at vertex {i}")
        norm.append((i, j) if i < j else (j, i))
    return Graph(n, tuple(norm), name)


def empty_graph(n: int) -> Graph:
    return Graph(n, (), f"E{n}")


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least 1 vertex")
    return Graph(n, tuple((i, i + 1) for i in range(1, n)), f"P{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle length must be at least 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return from_edges(n, edges, f"C{n}")


def cycle_power(n: int, k: int) -> Graph:
    """C_n^k: vertices in cyclic order, edges between cyclic distance <= k."""
    if n < 3 or k < 1:
        raise GraphError("cycle power needs n >= 3, k >= 1")
    # a distance beyond n // 2 is a shorter one the other way round; the
    # set keeps once an edge that two distances give
    edges = set()
    for d in range(1, min(k, n // 2) + 1):
        for i in range(1, n + 1):
            j = (i + d - 1) % n + 1
            edges.add((i, j) if i < j else (j, i))
    return Graph(n, tuple(edges), f"C{n}^{k}")


def complete(n: int) -> Graph:
    return Graph(n, tuple(combinations(range(1, n + 1), 2)), f"K{n}")


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("both parts need at least one vertex")
    edges = tuple((i, a + j) for i in range(1, a + 1) for j in range(1, b + 1))
    return Graph(a + b, edges, f"K{a},{b}")


def complete_bipartite_minus_matching(a: int, b: int, size: int) -> Graph:
    """K_{a,b} minus the matching (1, a+1), ..., (size, a+size)."""
    if size < 0 or size > min(a, b):
        raise GraphError(f"matching size {size} does not fit in K_{a},{b}")
    removed = {(i, a + i) for i in range(1, size + 1)}
    g = complete_bipartite(a, b)
    return Graph(g.n, tuple(e for e in g.edges if e not in removed), f"K{a},{b}-M{size}")


def join(g1: Graph, g2: Graph) -> Graph:
    """Join: g1's vertices first, then g2's, plus all cross edges."""
    edges = list(g1.edges)
    for i, j in g2.edges:
        edges.append((i + g1.n, j + g1.n))
    for i in range(1, g1.n + 1):
        for j in range(1, g2.n + 1):
            edges.append((i, j + g1.n))
    name = ""
    if g1.name and g2.name:
        name = f"{g1.name}+{g2.name}"
    return Graph(g1.n + g2.n, tuple(edges), name)


def cone(g: Graph) -> Graph:
    """K_1 joined with g; the universal vertex is v_1."""
    out = join(Graph(1, (), "K1"), g)
    return Graph(out.n, out.edges, f"cone({g.name})" if g.name else "")


def relabel(g: Graph, order: tuple[int, ...]) -> Graph:
    """Graph with vertex order[i]-1 ... renumbered so order[k] becomes v_{k+1}."""
    if sorted(order) != list(range(1, g.n + 1)):
        raise GraphError("relabel order must be a permutation of the vertices")
    return g.subgraph(order)


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_graph_name(text: str) -> Graph | None:
    """Parse compact family names like p5, c6sq, c9^2, k4, k4,4-m2, e2,
    cone(c4), join(e2,p5).  Returns None when the text matches no family."""
    s = text.strip().lower()
    m = re.fullmatch(r"p(\d+)", s)
    if m:
        return path(int(m.group(1)))
    m = re.fullmatch(r"c(\d+)sq", s)
    if m:
        return cycle_power(int(m.group(1)), 2)
    m = re.fullmatch(r"c(\d+)\^(\d+)", s)
    if m:
        return cycle_power(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"c(\d+)", s)
    if m:
        return cycle(int(m.group(1)))
    m = re.fullmatch(r"k(\d+),(\d+)-m(\d+)", s)
    if m:
        return complete_bipartite_minus_matching(*(int(x) for x in m.groups()))
    m = re.fullmatch(r"k(\d+),(\d+)", s)
    if m:
        return complete_bipartite(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"k(\d+)", s)
    if m:
        return complete(int(m.group(1)))
    m = re.fullmatch(r"e(\d+)", s)
    if m:
        return empty_graph(int(m.group(1)))
    m = re.fullmatch(r"cone\((.+)\)", s)
    if m:
        inner = parse_graph_name(m.group(1))
        return cone(inner) if inner is not None else None
    m = re.fullmatch(r"join\((.+)\)", s)
    if m:
        parts = _split_top_level(m.group(1))
        if len(parts) == 2:
            g1 = parse_graph_name(parts[0])
            g2 = parse_graph_name(parts[1])
            if g1 is not None and g2 is not None:
                return join(g1, g2)
    return None


# ---------------------------------------------------------------------------
# orientations

@dataclass(frozen=True)
class Orientation:
    """One direction per edge: bit 1 means i -> j for the stored edge (i, j)."""

    graph: Graph
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != len(self.graph.edges):
            raise GraphError("need exactly one direction bit per edge")

    def outdegrees(self) -> tuple[int, ...]:
        d = [0] * self.graph.n
        for (i, j), b in zip(self.graph.edges, self.bits):
            d[(i if b else j) - 1] += 1
        return tuple(d)

    def arcs(self) -> tuple[Edge, ...]:
        return tuple((i, j) if b else (j, i) for (i, j), b in zip(self.graph.edges, self.bits))


# ---------------------------------------------------------------------------
# spanning structure and coloring oracles

def bfs(adj, root: int) -> dict[int, int]:
    """Breadth-first visit from root: vertex -> parent in visit order, the
    root's parent 0.  adj maps a vertex to its neighbours, visited in
    sorted order."""
    parent = {root: 0}
    queue = [root]
    for v in queue:  # the queue grows while it is walked
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def spanning_tree(g: Graph) -> tuple[Edge, ...]:
    """The edges of `g.forest`, sorted."""
    return tuple(sorted(
        (parent, v) if parent < v else (v, parent)
        for v, parent in g.forest.items()
        if parent
    ))


def _most_saturated(heap, colors, neighbor_colors):
    """The uncoloured vertex of the largest (saturation, degree, -index):
    the top of `heap` once the entries that no longer hold are popped."""
    while True:
        sat, _, v = heap[0]
        if v not in colors and -sat == len(neighbor_colors[v]):
            return v
        heappop(heap)


def chromatic_number(g: Graph, kmax: int, budget: Budget | None = None) -> int | None:
    """Least k <= kmax with a proper k-coloring, or None when all fail.

    The cached BFS forest settles k <= 2 with no search: a graph with no
    edges needs 1 color and a bipartite one 2.  Any other graph has an odd
    cycle, and backtracking with saturation-degree vertex selection (ties
    by degree, then by index) and new-color symmetry breaking tries
    k = 3..kmax, one budget tick per search node.
    """
    budget = ensure_budget(budget, 50_000_000, "computing the chromatic number")
    if g.n == 0:
        return 0
    if g.bipartition() is not None:
        least = 2 if g.edges else 1
        return least if least <= kmax else None
    adj = g.adjacency

    def colorable(k: int) -> bool:
        """Depth-first search with an explicit stack of frames
        [vertex, colors used above it, next color to try, the neighbours
        its current color was added to]; one tick per search node.

        The uncoloured vertices wait in a heap of (-saturation, -degree,
        vertex) entries.  A vertex gets a new entry whenever its
        saturation changes or it is uncoloured again, so each one has an
        entry that holds; the others are popped when they reach the top,
        or dropped all at once when the heap outgrows 4n entries."""
        colors = {}
        neighbor_colors = {v: set() for v in range(1, g.n + 1)}
        heap = [(0, -len(adj[v]), v) for v in range(1, g.n + 1)]
        heapify(heap)
        stack = []
        used = 0
        while True:
            # a new search node: every vertex colored, or pick the next one
            budget.tick()
            if len(colors) == g.n:
                return True
            if len(heap) > 4 * g.n:
                heap = [(-len(neighbor_colors[u]), -len(adj[u]), u)
                        for u in range(1, g.n + 1) if u not in colors]
                heapify(heap)
            v = _most_saturated(heap, colors, neighbor_colors)
            stack.append([v, used, 0, None])
            while stack:
                frame = stack[-1]
                v, used, c, touched = frame
                if touched is not None:  # back from the child: undo the color
                    for w in touched:
                        neighbor_colors[w].discard(c - 1)
                        heappush(heap, (-len(neighbor_colors[w]), -len(adj[w]), w))
                    del colors[v]
                top = used + 1 if used < k else k
                while c < top and c in neighbor_colors[v]:
                    c += 1
                if c < top:
                    break
                stack.pop()
                if touched is not None:
                    heappush(heap, (-len(neighbor_colors[v]), -len(adj[v]), v))
            else:
                return False
            colors[v] = c
            touched = [w for w in adj[v] if w not in colors and c not in neighbor_colors[w]]
            for w in touched:
                neighbor_colors[w].add(c)
                heappush(heap, (-len(neighbor_colors[w]), -len(adj[w]), w))
            frame[2] = c + 1
            frame[3] = touched
            used = max(used, c + 1)

    for k in range(3, kmax + 1):
        if colorable(k):
            return k
    return None


@dataclass(frozen=True)
class ColorClassStats:
    """The unique partition into k independent classes, with its edge counts.

    Classes are ordered by their smallest vertex; cross[(a, b)] with a < b
    (1-based class indices) counts the edges between class a and class b.
    """

    k: int
    classes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    cross: dict[Edge, int]


def unique_k_analysis(g: Graph, k: int) -> ColorClassStats:
    """Stats for the unique partition of V into exactly k independent classes.

    Raises NotUniquelyColorable when there are zero or several such
    partitions (unordered; enumerated via restricted-growth assignments).
    """
    if k < 1:
        raise GraphError("k must be positive")
    n = g.n
    earlier = [()] + [tuple(u for u in g.adjacency[v] if u < v) for v in range(1, n + 1)]
    partitions = []
    color = [0] * (n + 1)
    # used[v]: classes opened by the vertices before v; nxt[v]: next class to try
    used = [0] * (n + 2)
    nxt = [0] * (n + 2)
    v = 1
    while v >= 1 and len(partitions) < 2:
        if v > n:
            if used[v] == k:
                classes = [[] for _ in range(k)]
                for u in range(1, n + 1):
                    classes[color[u]].append(u)
                partitions.append(tuple(map(tuple, classes)))
            v -= 1
            continue
        c = nxt[v]
        # no class to try when the vertices left cannot open the missing classes
        top = min(used[v] + 1, k) if used[v] + (n - v + 1) >= k else 0
        while c < top and any(color[w] == c for w in earlier[v]):
            c += 1
        if c >= top:
            nxt[v] = 0
            v -= 1
            continue
        color[v] = c
        nxt[v] = c + 1
        used[v + 1] = max(used[v], c + 1)
        v += 1
    if len(partitions) != 1:
        raise NotUniquelyColorable(k, len(partitions))
    classes = partitions[0]
    cross = {}
    index = {}
    for ci, cls in enumerate(classes, start=1):
        for v in cls:
            index[v] = ci
    for i, j in g.edges:
        a, b = sorted((index[i], index[j]))
        cross[(a, b)] = cross.get((a, b), 0) + 1
    return ColorClassStats(k, classes, tuple(len(c) for c in classes), cross)


# ---------------------------------------------------------------------------
# text format: '#' comments, "p <n> <m>" header, "e <i> <j>" lines, i < j

def write_graph(g: Graph) -> str:
    lines = [f"p {g.n} {len(g.edges)}"]
    lines.extend(f"e {i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    n = None
    m = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError("duplicate header", ln)
            if len(parts) != 3:
                raise FormatError("header must be 'p <n> <m>'", ln)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError("header counts must be integers", ln) from None
        elif parts[0] == "e":
            if n is None:
                raise FormatError("edge before header", ln)
            if len(parts) != 3:
                raise FormatError("edge must be 'e <i> <j>'", ln)
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError("edge endpoints must be integers", ln) from None
            if not (1 <= i < j <= n):
                raise FormatError(f"edge ({i}, {j}) violates 1 <= i < j <= {n}", ln)
            edges.append((i, j))
        else:
            raise FormatError(f"unknown record {parts[0]!r}", ln)
    if n is None:
        raise FormatError("missing 'p <n> <m>' header")
    if m != len(edges):
        raise FormatError(f"header promised {m} edges, found {len(edges)}")
    try:
        return Graph(n, tuple(edges))
    except GraphError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# tree catalog (used by the regression and acceptance suites)

def _tree_centers(n: int, edges) -> list[int]:
    if n == 1:
        return [1]
    deg = {v: 0 for v in range(1, n + 1)}
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
        deg[i] += 1
        deg[j] += 1
    alive = set(range(1, n + 1))
    layer = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in adj[v]:
                if w in alive:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(alive)


def _rooted_key(root: int, n: int, edges) -> str:
    """The code of the tree rooted at root: a vertex spells "1", its
    children's codes in sorted order, then "0", built children before
    parents without recursion.

    The code is the bracket spelling of the recursive key, a vertex's key
    being the sorted tuple of its children's keys, "1" for ( and "0" for
    ): codes compare as those keys do, since a closing bracket sorts
    first and no code is a prefix of another, and a string compares
    without recursing however deep the tree."""
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = bfs(adj, root)
    kids = {v: [] for v in parent}  # vertex -> the codes of its children
    for v in reversed(parent):  # children before parents
        code = "1" + "".join(sorted(kids.pop(v))) + "0"
        if parent[v]:
            kids[parent[v]].append(code)
    return code


def tree_key(n: int, edges) -> str:
    """Isomorphism-invariant canonical key for a tree: the least code of
    the tree rooted at a centre (see _rooted_key)."""
    return min(_rooted_key(c, n, edges) for c in _tree_centers(n, edges))


def tree_catalog(max_n: int) -> list[Graph]:
    """All pairwise non-isomorphic trees on 1..max_n vertices.

    Grown by leaf attachment with canonical-key deduplication; within each
    size, output order follows the canonical keys, so the catalog is stable.
    """
    catalog = []
    level = {tree_key(1, ()): ()}
    if max_n >= 1:
        catalog.append(Graph(1, (), "T1.1"))
    for n in range(2, max_n + 1):
        nxt = {}
        for edges in level.values():
            for v in range(1, n):
                cand = edges + ((v, n),)
                k = tree_key(n, cand)
                if k not in nxt:
                    nxt[k] = cand
        level = {k: nxt[k] for k in sorted(nxt)}
        for idx, edges in enumerate(level.values(), start=1):
            catalog.append(Graph(n, edges, f"T{n}.{idx}"))
    return catalog
