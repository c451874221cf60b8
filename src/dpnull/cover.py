"""DP-covers: the pair (L, H) of label sets and per-edge partial matchings.

A cover of a graph G assigns each vertex v a label set L(v) that is a subset
of F_t (t a prime power) and each edge (i, j), i < j, a partial injective map
sigma from labels of v_i to labels of v_j; the pair (a, sigma(a)) is the
matching edge between (v_i, a) and (v_j, sigma(a)) in the cover graph H.
An H-coloring is a transversal choosing one label per vertex that avoids
every matched pair.

This module owns the ground-truth oracle (one transversal search), the
saturation-function classification and renaming machinery, the explicit
uncolorable covers for squares of cycles of length 3k, and the exhaustive
cover-space walk that checks f-covers and pins down exact DP-chromatic
numbers at desk scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import combinations, islice, permutations
from operator import or_

from .budget import Budget, BudgetExceeded, ensure_budget
from .errors import FormatError, PreconditionError
from .ff import FieldSpec, make_field
from .graphs import (Edge, Graph, chromatic_number, cycle_power, from_edges, read_records,
                     record_ints, spanning_tree)

GOOD_DIFF = "good-diff"
BAD_SUM = "bad-sum"
BAD = "bad"

_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def smallest_prime_power(at_least: int) -> int:
    for t in _PRIME_POWERS:
        if t >= at_least:
            return t
    raise PreconditionError(f"no supported prime power >= {at_least}")


@dataclass(frozen=True)
class Saturation:
    """Classification of one edge's matching: good-diff means a - sigma(a) is
    the constant beta; bad-sum means not good but a + sigma(a) = beta; bad is
    neither (impossible over F_3)."""

    kind: str
    beta: int | None

    @property
    def is_good(self) -> bool:
        return self.kind == GOOD_DIFF


@dataclass
class Cover:
    """Cover of `graph` over F_t.  labels[v - 1] is the sorted label tuple of
    vertex v; matchings maps each edge (i, j), i < j, to a dict a -> b.
    Treated as immutable after validation."""

    graph: Graph
    t: int
    labels: tuple[tuple[int, ...], ...]
    matchings: dict[Edge, dict[int, int]]

    @property
    def field(self) -> FieldSpec:
        return make_field(self.t)

    def labels_of(self, v: int) -> tuple[int, ...]:
        return self.labels[v - 1]

    def matching(self, i: int, j: int) -> dict[int, int]:
        return self.matchings.get((i, j), {})

    def size_function(self) -> tuple[int, ...]:
        return tuple(len(l) for l in self.labels)


def validate(cover: Cover) -> list[str]:
    """Check label ranges, matching injectivity and edge locality; returns a
    list of violation descriptions (empty when the cover is well formed)."""
    out = []
    t = cover.t
    g = cover.graph
    if len(cover.labels) != g.n:
        out.append(f"expected {g.n} label sets, found {len(cover.labels)}")
        return out
    for v in range(1, g.n + 1):
        ls = cover.labels_of(v)
        if not ls:
            out.append(f"vertex {v}: empty label set")
        if len(set(ls)) != len(ls):
            out.append(f"vertex {v}: repeated label")
        for a in ls:
            if not (0 <= a < t):
                out.append(f"vertex {v}: label {a} outside F_{t}")
    edge_set = set(g.edges)
    for (i, j), sigma in sorted(cover.matchings.items()):
        if (i, j) not in edge_set:
            out.append(f"locality: matching on non-edge ({i}, {j})")
            continue
        li = set(cover.labels_of(i))
        lj = set(cover.labels_of(j))
        seen = set()
        for a, b in sorted(sigma.items()):
            if a not in li:
                out.append(f"edge ({i}, {j}): matched label {a} not in L(v_{i})")
            if b not in lj:
                out.append(f"edge ({i}, {j}): image label {b} not in L(v_{j})")
            if b in seen:
                out.append(f"edge ({i}, {j}): not injective, {b} hit twice")
            seen.add(b)
    return out


def classify_saturation(cover: Cover, edge: Edge) -> Saturation:
    """Exact classification; an empty matching is good-diff with beta 0.
    Over F_3 the result is never `bad`."""
    sigma = cover.matching(*edge)
    if not sigma:
        return Saturation(GOOD_DIFF, 0)
    fld = cover.field
    diffs = {fld.sub(a, b) for a, b in sigma.items()}
    if len(diffs) == 1:
        return Saturation(GOOD_DIFF, diffs.pop())
    sums = {fld.add(a, b) for a, b in sigma.items()}
    if len(sums) == 1:
        return Saturation(BAD_SUM, sums.pop())
    return Saturation(BAD, None)


def transversals(cover: Cover, budget: Budget | None = None):
    """Every H-coloring of the cover as a label-per-vertex tuple, in
    lexicographic order.  This search is the ground-truth oracle behind
    every certifier and every count.

    It is backtracking in index order with forward checking (Haralick and
    Elliott, 1980).  Each vertex keeps its live labels as an int whose bit
    k stands for the k-th label of `labels_of(v)`, so labels are tried in
    the cover's own tuple order.  Choosing a at v clears sigma_vw(a) from
    the live labels of each later neighbour w; a choice that empties one
    is rejected at once.  One budget step is one label taken from a live
    domain: a label forward checking cleared is never tried or charged.
    So the search tries a subset of the labels plain backtracking tries,
    and never charges more."""
    if budget is None:
        budget = Budget(100_000_000, what="enumerating H-colorings")
    labels = cover.labels
    n = len(labels)
    # out[v]: (w, sigma, L(w)) per later neighbour w of v, 0-based
    out: list[list] = [[] for _ in range(n)]
    for (i, j), sigma in cover.matchings.items():
        if sigma:
            out[i - 1].append((j - 1, sigma, labels[j - 1]))
    # clears[v][k]: (w, bit) per later neighbour w whose live label `bit`
    # the k-th label of v clears, built the first time it is tried
    clears = [[None] * len(ls) for ls in labels]
    live = [(1 << len(ls)) - 1 for ls in labels]
    untried = [0] * (n + 1)  # untried[v]: v's live labels not yet tried
    untried[0] = live[0] if n else 0
    undo: list[list] = [[] for _ in range(n)]  # undo[v]: (w, live[w]) v's choice narrowed
    chosen = [0] * n
    v = 0
    while v >= 0:
        if v == n:
            yield tuple(chosen)
            v -= 1
            continue
        # take back v's last choice, or its rejected try, before the next
        restore = undo[v]
        for w, before in restore:
            live[w] = before
        restore.clear()
        rest = untried[v]
        if not rest:
            v -= 1
            continue
        bit = rest & -rest
        untried[v] = rest ^ bit
        budget.tick()
        k = bit.bit_length() - 1
        row = clears[v][k]
        if row is None:
            a = labels[v][k]
            row = clears[v][k] = [(w, 1 << lw.index(b)) for w, sigma, lw in out[v]
                                  if (b := sigma.get(a)) is not None and b in lw]
        for w, hit in row:
            now = live[w]
            if now & hit:
                if now == hit:  # w has no label left
                    break
                restore.append((w, now))
                live[w] = now ^ hit
        else:
            chosen[v] = labels[v][k]
            v += 1
            untried[v] = live[v] if v < n else 0


def h_coloring_search(cover: Cover, budget: Budget | None = None) -> tuple[int, ...] | None:
    """Lexicographically least H-coloring as a label-per-vertex tuple, or
    None when the cover admits no transversal: the first item of
    `transversals`, charged one step per label it tries."""
    budget = ensure_budget(budget, 100_000_000, "searching for an H-coloring")
    return next(transversals(cover, budget), None)


def is_valid_transversal(cover: Cover, choice) -> bool:
    """True when `choice` picks a label of every vertex and avoids every
    matched pair."""
    g = cover.graph
    if len(choice) != g.n:
        return False
    for v in range(1, g.n + 1):
        if choice[v - 1] not in cover.labels_of(v):
            return False
    for (i, j), sigma in cover.matchings.items():
        if sigma.get(choice[i - 1]) == choice[j - 1]:
            return False
    return True


def count_transversals(cover: Cover) -> int:
    """Number of H-colorings, under the default search budget."""
    return sum(1 for _ in transversals(cover))


# ---------------------------------------------------------------------------
# constructions

def cover_from_lists(g: Graph, lists: dict[int, tuple[int, ...]], t: int | None = None) -> Cover:
    """Cover encoding a list-coloring instance: labels are the lists and each
    edge matches equal colors, so H-colorings are exactly proper list
    colorings.  The one check of a list assignment: a list for exactly the
    vertices 1..n, none empty, its colours in F_t."""
    missing = [v for v in range(1, g.n + 1) if v not in lists]
    extra = sorted(v for v in lists if not 1 <= v <= g.n)
    if missing or extra:
        raise PreconditionError(
            f"need a list for exactly the vertices 1..{g.n}: missing {missing}, extra {extra}"
        )
    labels = tuple(tuple(sorted(set(lists[v]))) for v in range(1, g.n + 1))
    if t is None:
        # a label set of distinct colours in 0..top has at most top + 1 of them
        top = max((c for l in labels for c in l), default=0)
        t = smallest_prime_power(max(top + 1, 2))
    matchings = {}
    for i, j in g.edges:
        shared = set(labels[i - 1]) & set(labels[j - 1])
        matchings[(i, j)] = {a: a for a in sorted(shared)}
    cov = Cover(g, t, labels, matchings)
    bad = validate(cov)
    if bad:
        raise PreconditionError("; ".join(bad))
    return cov


def cover_from_pattern(
    g: Graph,
    t: int,
    signs: dict[Edge, int] | None = None,
    offsets: dict[Edge, int] | None = None,
) -> Cover:
    """Full-label cover realizing a sign/offset description: a sign -1 edge
    gets sigma(a) = a - beta (good-diff) and a sign +1 edge gets
    sigma(a) = beta - a (bad-sum; only meaningful over F_3)."""
    fld = make_field(t)
    signs = {e: -1 for e in g.edges} if signs is None else signs
    offsets = {e: 0 for e in g.edges} if offsets is None else offsets
    if set(signs) != set(g.edges) or set(offsets) != set(g.edges):
        raise PreconditionError("signs and offsets must cover exactly the edge set")
    add = fld.add_table
    neg = fld.neg_table
    matchings = {}
    for e in g.edges:
        s = signs[e]
        beta = fld.check(offsets[e])
        if s == -1:  # a - beta, read down column -beta of the add table
            matchings[e] = dict(enumerate(add[neg[beta]::t]))
        elif s == 1:
            if t != 3:
                raise PreconditionError(
                    f"sign +1 (sum-constant) matchings require order 3, got t={t}"
                )
            matchings[e] = {a: add[beta * t + neg[a]] for a in range(t)}
        else:
            raise PreconditionError(f"edge {e}: sign must be +/-1, got {s}")
    return Cover(g, t, (tuple(range(t)),) * g.n, matchings)


def uncolorable_cover_c3k_square(k: int) -> Cover:
    """3-fold cover of the square of C_{3k} with no H-coloring: identity
    matchings except the two edges into v_{3k}, which shift labels by one
    (offset 2 = -1).  Every saturation function is good, yet no
    transversal exists."""
    if k < 2:
        raise PreconditionError(f"the construction needs k >= 2, got k={k}")
    n = 3 * k
    g = cycle_power(n, 2)
    offsets = {e: 2 if e in {(n - 2, n), (n - 1, n)} else 0 for e in g.edges}
    return cover_from_pattern(g, 3, offsets=offsets)


# ---------------------------------------------------------------------------
# renaming

def _relabel_cover(cover: Cover, maps: dict[int, dict[int, int]]) -> Cover:
    labels = []
    for v in range(1, cover.graph.n + 1):
        rho = maps.get(v)
        if rho is None:
            labels.append(cover.labels_of(v))
        else:
            labels.append(tuple(sorted(rho[a] for a in cover.labels_of(v))))
    matchings = {}
    for (i, j), sigma in cover.matchings.items():
        ri = maps.get(i)
        rj = maps.get(j)
        matchings[(i, j)] = {
            (ri[a] if ri else a): (rj[b] if rj else b) for a, b in sigma.items()
        }
    return Cover(cover.graph, cover.t, tuple(labels), matchings)


def apply_relabeling(cover: Cover, maps: dict[int, dict[int, int]]) -> Cover:
    """Rename labels per vertex (an isomorphism of H; colorability and the
    number of transversals are preserved)."""
    for v, rho in maps.items():
        ls = set(cover.labels_of(v))
        if set(rho) != ls:
            raise PreconditionError(f"relabeling of vertex {v} must be defined on L(v_{v})")
        img = list(rho.values())
        if len(set(img)) != len(img) or any(not (0 <= b < cover.t) for b in img):
            raise PreconditionError(f"relabeling of vertex {v} is not injective into F_{cover.t}")
    return _relabel_cover(cover, maps)


def _pairs(cover: Cover, u: int, v: int) -> list[tuple[int, int]]:
    """Edge uv's matched pairs as (label of u, label of v), in the
    matching's item order."""
    if u < v:
        return list(cover.matching(u, v).items())
    return [(b, a) for a, b in cover.matching(v, u).items()]


def tree_normalize(cover: Cover) -> tuple[Cover, dict[int, dict[int, int]]]:
    """Rename labels, propagating from each root of `Graph.forest` to its
    children, so that every forest matching becomes the identity.  Requires
    uniform label size m >= 2 and perfect matchings on the forest edges."""
    g = cover.graph
    sizes = set(cover.size_function())
    if len(sizes) != 1 or sizes.pop() < 2:
        raise PreconditionError("tree_normalize needs a uniform label size m >= 2")
    m = len(cover.labels_of(1))
    forest = spanning_tree(g)
    for (i, j) in forest:
        sigma = cover.matching(i, j)
        if len(sigma) != m or set(sigma) != set(cover.labels_of(i)):
            raise PreconditionError(
                f"forest edge ({i}, {j}) does not carry a perfect matching"
            )
    maps: dict[int, dict[int, int]] = {}
    for w, u in g.forest.items():
        if u:
            maps[w] = {b: maps[u][a] for a, b in _pairs(cover, u, w)}
        else:
            maps[w] = {a: a for a in cover.labels_of(w)}
    renamed = _relabel_cover(cover, maps)
    for e in forest:
        sat = classify_saturation(renamed, e)
        assert sat.kind == GOOD_DIFF and sat.beta == 0
    return renamed, maps


def is_good_cover(cover: Cover, budget: Budget | None = None) -> dict[int, dict[int, int]] | None:
    """Search for a per-vertex relabeling under which every saturation
    function classifies good-diff; None after exhausting the search space.

    Vertices are processed in `Graph.forest` order, a BFS order.  Each
    vertex v gets, once, the list of its matched edges to earlier vertices
    u, in that order, with the pairs oriented as (label a of u, label b of
    v).  Such an edge is good under renamings rho when rho_u(a) - rho_v(b)
    takes one value over its pairs, so a candidate for v is checked against
    v's list alone.  Candidates come from the list's first edge, the
    anchor: v's matched labels get their partners' names, and its free
    labels every injective extension; a vertex with an empty list gets
    every injection.  Translating all of v's names by one constant keeps
    each of its edges' good test, so the anchor's other offsets would
    only repeat these candidates, translated.  The backtracking is
    iterative and charges one budget step per candidate tried.
    """
    budget = ensure_budget(budget, 20_000_000, "searching for a good renaming")
    t = cover.t
    fld = cover.field
    order = list(cover.graph.forest)
    pos = {v: k for k, v in enumerate(order)}
    # earlier[v]: (u, pairs of uv) per matched edge to an earlier u, in order
    earlier: dict[int, list[tuple[int, list[tuple[int, int]]]]] = {v: [] for v in order}
    for u in order:
        for v in cover.graph._neighbours[u]:
            if pos[v] > pos[u] and (pairs := _pairs(cover, u, v)):
                earlier[v].append((u, pairs))
    maps: dict[int, dict[int, int]] = {}

    def candidates(v):
        lv = cover.labels_of(v)
        if not earlier[v]:
            for img in permutations(range(t), len(lv)):
                yield dict(zip(lv, img))
            return
        u, pairs = earlier[v][0]
        rho = {b: maps[u][a] for a, b in pairs}
        free = [lbl for lbl in lv if lbl not in rho]
        avail = tuple(x for x in range(t) if x not in rho.values())
        for img in permutations(avail, len(free)):
            yield {**rho, **dict(zip(free, img))}

    def consistent(v: int, rho: dict[int, int]) -> bool:
        """Every matched edge from an earlier vertex to v is good under rho.
        Negating the differences keeps their number, so the test does not
        depend on which end the matching maps from."""
        return all(len({fld.sub(maps[u][a], rho[b]) for a, b in pairs}) <= 1
                   for u, pairs in earlier[v])

    # depth first with an explicit stack: pending[k] is the suspended
    # candidate generator of order[k], and maps holds the renamings of
    # order[:k]
    pending = []
    k = 0
    while k < len(order):
        v = order[k]
        if len(pending) == k:
            pending.append(candidates(v))
        for rho in pending[k]:
            budget.tick()
            if consistent(v, rho):
                maps[v] = rho
                k += 1
                break
        else:
            pending.pop()
            if k == 0:
                return None
            k -= 1
            del maps[order[k]]
    witness = dict(maps)
    renamed = _relabel_cover(cover, witness)
    assert all(classify_saturation(renamed, e).is_good for e in cover.graph.edges)
    return witness


# ---------------------------------------------------------------------------
# exhaustive cover-space search
#
# One walk serves both the exact DP-chromatic number and the f-cover check.
# It walks a tree of covers depth first, fixing one edge's matching per
# level, and carries the set of transversals that are still valid as one
# Python int: bit p stands for the p-th label tuple of a list of vertices in
# `product` order (the first vertex most significant).  Each (edge, matching)
# candidate has a precomputed survivor mask, so one step of the walk is a
# single `&`.

class _Grid:
    """Label grid of some vertices.  digit[v][a] masks the points whose
    coordinate at v is label a; labels of a vertex with d labels are 0..d-1."""

    def __init__(self, sizes: dict[int, int]):
        points = math.prod(sizes.values())
        self.full = (1 << points) - 1
        self.digit: dict[int, list[int]] = {}
        stride = points
        for v, d in sizes.items():
            stride //= d
            period = d * stride
            # one bit every `period` bits, over the whole grid
            repeat = self.full // ((1 << period) - 1)
            block = (1 << stride) - 1
            self.digit[v] = [(block << (a * stride)) * repeat for a in range(d)]

    def survivor(self, i: int, j: int, pairs) -> int:
        """Points avoiding every matched pair (a, b) of the edge (i, j)."""
        di, dj = self.digit[i], self.digit[j]
        hit = 0
        for a, b in pairs:
            hit |= di[a] & dj[b]
        return self.full & ~hit


def _walk(start: int, levels: list[list[int]], budget: Budget,
          orbits: _Orbits | None = None) -> tuple[int, list[int] | None, bool]:
    """Depth-first walk choosing one survivor mask per level, in order.

    Returns (rank, dead, finished).  `dead` is the choice index per level
    of the first node whose set is empty, padded with zeros below it, or
    None when there is no such node.  `finished` is False when the budget
    ran out.  `rank` is the position, in `product` order of the choice
    tuples, of the first tuple the walk has not settled: the number of
    tuples when the walk completes, the rank of `dead` when it finds one,
    and otherwise the rank of the node whose step exhausted the budget,
    padded with zeros.

    With `orbits`, every level has the same m! choices (see `_Orbits`) and
    the walk visits only the tuples that are lex-least in their
    conjugation orbit, and their prefixes.  Every tuple before the
    frontier then has a visited conjugate no later than itself, so every
    tuple up to `rank` is settled as in the full walk, and `dead`, the
    lex-first tuple with an empty set, is the same tuple.

    One budget step per node visited, root included.  The leaves below one
    node are counted in one pass, up to the first empty leaf.  The walk
    counts its steps locally against the room the budget had on entry and
    ticks once where the count reaches that room, which raises, and once
    before each return, so the spend, the frontier rank and the point of
    exhaustion are those of one tick per node.
    """
    # the root is the one choice of a level above the first
    levels = [[start], *levels]
    top = len(levels) - 1
    sizes = [len(choices) for choices in levels]
    if orbits is None:
        every = [0] * max(sizes)
        state, row_of = 0, lambda _: every
    else:
        state, row_of = orbits.root, orbits.row
    path = [0] * (top + 1)
    valid = [-1] * (top + 1)  # valid[d]: the set before level d's choice
    # states[d], rows[d]: the orbit state of the prefix before level d and
    # its row, whose entry k is the state below choice k, or -1 when k is cut
    states = [state] * (top + 1)
    rows = [row_of(state)] * (top + 1)
    leaves: dict[int, tuple[list[int], list[int]]] = {}  # state -> its leaves
    # steps taken so far, charged to the budget only when they reach
    # `room`, where the budget runs out, and before each return
    steps = 0
    room = budget.limit - budget.spent

    def rank() -> int:
        r = 0
        for k, size in zip(path, sizes):
            r = r * size + k
        return r

    try:
        d = 0
        while d >= 0:
            if d == top:
                entry = leaves.get(states[top])
                if entry is None:
                    index = [k for k in range(sizes[top]) if rows[top][k] >= 0]
                    entry = leaves[states[top]] = index, [levels[top][k] for k in index]
                index, masks = entry
                cur = valid[top]
                alive = 0
                for mask in masks:
                    if not cur & mask:
                        break
                    alive += 1
                after = steps + alive + (alive < len(masks))
                if after >= room:  # the budget runs out at leaf room - steps
                    path[top] = index[room - steps - 1]
                    budget.tick(after)
                steps = after
                if alive < len(masks):
                    path[top] = index[alive]
                    budget.tick(steps)
                    return rank(), path[1:], True
            elif path[d] < sizes[d]:
                k = path[d]
                child = rows[d][k]
                if child < 0:
                    path[d] = k + 1
                    continue
                steps += 1
                if steps >= room:
                    budget.tick(steps)
                sub = valid[d] & levels[d][k]
                if not sub:
                    budget.tick(steps)
                    return rank(), path[1:], True
                d += 1
                valid[d] = sub
                states[d] = child
                rows[d] = row_of(child)
                continue
            # every child of this node is done: back up to the next sibling
            path[d] = 0
            d -= 1
            if d >= 0:
                path[d] += 1
    except BudgetExceeded:
        return rank(), None, False
    budget.tick(steps)
    return math.prod(sizes), None, True


class _Orbits:
    """Orderly generation of tuples of permutations of 0..m-1 up to
    simultaneous conjugation, the permutations indexed as in
    `_matchings(m, m, False)`.

    Relabelling every vertex of a cover by one sigma in S_m keeps each
    identity matching and turns each matching pi into sigma pi sigma^-1,
    so it is an isomorphism of the cover graph.  The walk keeps the tuples
    that are lex-least in their orbit; every prefix of one is lex-least in
    its own orbit too.  A state is the set of sigma != id that fix a kept
    prefix; every other sigma maps the prefix above itself.  So a choice k
    below the prefix is cut when some sigma of the state maps k to a
    smaller index, and otherwise leads to the state of the sigma that fix
    k as well.  A state's row is built the first time a walk enters it and
    then kept; rows depend on m alone, so every walk can share them.
    """

    def __init__(self, m: int):
        self.perms = [tuple(b for _, b in pairs) for pairs in _matchings(m, m, False)]
        self.index = {p: k for k, p in enumerate(self.perms)}
        self.ids: dict[tuple[tuple[int, ...], ...], int] = {}
        self.kept: list[tuple[tuple[int, ...], ...]] = []
        self.rows: list[list[int] | None] = []
        self.root = self._state(tuple(self.perms[1:]))

    def _state(self, kept: tuple[tuple[int, ...], ...]) -> int:
        if kept not in self.ids:
            self.ids[kept] = len(self.kept)
            self.kept.append(kept)
            self.rows.append(None)
        return self.ids[kept]

    def row(self, state: int) -> list[int]:
        """Entry k: the state below choice k, or -1 when k is cut."""
        if self.rows[state] is None:
            self.rows[state] = [self._child(state, k) for k in range(len(self.perms))]
        return self.rows[state]

    def _child(self, state: int, k: int) -> int:
        pi = self.perms[k]
        fixed = []
        for sigma in self.kept[state]:
            # sigma pi sigma^-1 maps sigma(a) to sigma(pi(a))
            image = [0] * len(pi)
            for a, b in enumerate(pi):
                image[sigma[a]] = sigma[b]
            conj = self.index[tuple(image)]
            if conj < k:
                return -1
            if conj == k:
                fixed.append(sigma)
        return self._state(tuple(fixed))


@cache
def _orbits(m: int) -> _Orbits:
    return _Orbits(m)


def _matchings(a: int, b: int, ordered: bool) -> list[tuple[tuple[int, int], ...]]:
    """Maximal matchings between the labels 0..a-1 and 0..b-1 as (a, b)
    label pairs: every injection of the smaller side into the larger, or,
    when `ordered`, only the order-preserving ones; lexicographic order."""
    pick = combinations if ordered else permutations
    if a <= b:
        return [tuple(zip(range(a), img)) for img in pick(range(b), a)]
    return [tuple(zip(dom, range(b))) for dom in pick(range(a), b)]


def _cover_walk(g: Graph, f: dict[int, int], budget: Budget,
                orbits: _Orbits | None = None) -> tuple[int, Cover | None, bool]:
    """Walk the f-covers of g (labels 0..f(v)-1, maximal matchings) whose
    forest matchings are in the normal form `f_dp_exhaustive` describes.

    The forest is `g.forest`.  Its edge from a vertex u to a child v is
    pinned to a -> a on the first f(u) labels when f(u) <= f(v); otherwise
    it is walked over its C(f(u), f(v)) order-preserving matchings.  Every
    other edge is walked over all its maximal matchings, the walked edges in
    `g.edges` order.

    The walk runs over the grid of the endpoints of the walked edges.  Its
    start mask is the projection onto that grid of the labellings that
    respect the pinned edges, folded from the leaves of the pinned forest to
    its roots (a vertex whose parent edge is walked is a root): a pinned
    edge only forbids equal labels, and a walked edge constrains grid
    vertices only, so a grid point survives exactly when each pinned tree
    extends it on its own.

    With `orbits` (f = m everywhere, so every forest edge is pinned and
    every walked edge has the m! permutations), the walk visits one cover
    per conjugation orbit, the lex-least; see `_walk` and `_Orbits`.

    Returns (covers_tested, counterexample, finished).  covers_tested is
    the rank in `product` order of the first cover not settled: the number
    of covers when every one is colorable, the counterexample's rank plus
    one when there is one, and the walk's frontier when the budget ran
    out.  The counterexample is the lex-first uncolorable cover,
    re-checked by h_coloring_search.  finished is False when the budget ran
    out.

    A budget step is one walk node.  Building a grid of P points is charged
    ceil(P / 64) steps per mask it needs, f(v) per vertex v and one per
    (walked edge, matching), so a grid too large to hold exhausts the budget
    instead of memory.
    """
    parent = g.forest
    # the children whose edge to their parent is pinned
    pinned = {v for v, u in parent.items() if u and f[u] <= f[v]}
    # edges with equal sizes and kind share one candidate list
    walked, choices, lists = [], [], {}
    for i, j in g.edges:
        child = j if parent[j] == i else i if parent[i] == j else 0
        if child in pinned:
            continue
        key = (f[i], f[j], child != 0)
        if key not in lists:
            lists[key] = _matchings(*key)
        walked.append((i, j))
        choices.append(lists[key])
    tested = 0
    try:
        grid_vertices = sorted({v for e in walked for v in e})
        words = -(-math.prod(f[v] for v in grid_vertices) // 64)
        budget.tick(words * (sum(f.values()) + sum(map(len, choices))))
        grid = _Grid({v: f[v] for v in grid_vertices})
        levels = [[grid.survivor(i, j, pairs) for pairs in pairs_list]
                  for (i, j), pairs_list in zip(walked, choices)]
        start = grid.full
        # folded[u][a]: points whose labelling of u's folded children can
        # give u the label a
        folded: dict[int, list[int]] = {}
        for v in reversed(parent):
            own = grid.digit.get(v) or [grid.full] * f[v]
            if v in folded:
                own = [x & y for x, y in zip(own, folded.pop(v))]
            if v not in pinned:
                start &= reduce(or_, own)
                continue
            u = parent[v]
            up = [reduce(or_, own[:a] + own[a + 1:], 0) for a in range(f[u])]
            folded[u] = [x & y for x, y in zip(folded[u], up)] if u in folded else up
        tested, dead, finished = _walk(start, levels, budget, orbits)
        if not finished or dead is None:
            return tested, None, finished
        tested += 1
        picked = {e: pairs_list[k] for e, pairs_list, k in zip(walked, choices, dead)}
        # a pinned edge from u to v is a -> a on the first f(u) <= f(v) labels
        matchings = {(i, j): dict(picked[(i, j)]) if (i, j) in picked
                     else {a: a for a in range(min(f[i], f[j]))}
                     for i, j in g.edges}
        bad = Cover(g, smallest_prime_power(max([2, *f.values()])),
                    tuple(tuple(range(f[v])) for v in range(1, g.n + 1)), matchings)
        if h_coloring_search(bad, budget) is not None:
            raise AssertionError("counterexample failed oracle re-check")
    except BudgetExceeded:
        return tested, None, False
    return tested, bad, True


@dataclass(frozen=True)
class DpExactResult:
    """Outcome of the exact DP-chromatic search.

    status is 'exact' (value holds chi_DP), 'greater' (every m <= mmax has an
    uncolorable cover), or 'unknown' (budget ran out; m_reached/covers_tested
    report progress, and every m tried below m_reached has an uncolorable
    cover).  counterexample holds an uncolorable cover for the last m that
    failed, when one was found.

    covers_tested counts covers in `product` order, every m-fold cover
    alike, although the search walks one per conjugation orbit, and none at
    an m that the coloring number settles: per m, all m!^c covers (c cotree
    edges) when every one is colorable, the rank of the lex-first
    uncolorable one plus one otherwise, and, where the budget ran out, the
    rank of the first cover not settled.
    """

    status: str
    value: int | None
    covers_tested: int
    m_reached: int
    counterexample: Cover | None = field(default=None, compare=False)


def exact_dp_chromatic(g: Graph, mmax: int, budget: Budget | None = None,
                       mmin: int | None = None) -> DpExactResult:
    """Exact chi_DP by exhausting m-fold covers for m = chi(G)..mmax per
    component, or for m = mmin..mmax when the caller already knows the lower
    bound mmin on chi_DP(G).

    This is the f = m case of the f-cover walk (see `f_dp_exhaustive`):
    only full-label, perfect-matching covers are enumerated, with the
    spanning-tree matchings pinned to the identity, so the walk fixes only
    the cotree edges' permutations, in `product` order, over the grid of the
    cotree edges' endpoints: m^|S| points with |S| <= min(n, 2c) for c
    cotree edges, one point for a tree.  The tree is the component's
    `Graph.forest`.

    Relabelling every vertex by one sigma in S_m keeps the identity pins
    and conjugates every cotree permutation, an isomorphism of the cover
    graph.  So the walk visits only the cotree tuples that are lex-least
    in their conjugation orbit (see `_Orbits`), and a budget step is one
    node of that walk.  The first uncolorable cover in `product` order is
    lex-least in its orbit, so the walk finds the same counterexample as a
    walk over every cover, and covers_tested still counts every cover
    before it, plus that one, for each m (see `DpExactResult`).

    No m at or above the component's coloring number (1 + degeneracy,
    `Graph.coloring_number`) is walked.  Coloring the vertices in the
    reverse of a minimum-degree peel, each vertex has fewer than m colored
    neighbours and each of them blocks at most one of its m labels, so
    every m-fold cover is colorable (Dvorak and Postle, 2018).  The first
    such m is the exact value: covers_tested adds the m!^c covers a
    completed walk would count, and no walk step is charged.
    """
    if mmin is not None and mmin < 1:
        raise PreconditionError(f"the lower bound mmin must be >= 1, got {mmin}")
    budget = ensure_budget(budget, 10_000_000, "enumerating covers for exact chi_DP")
    comps = g.components()
    total_tested = 0
    overall = 0
    m_reached = 0
    witness = None
    for comp in comps:
        sub = g if len(comps) == 1 else g.subgraph(comp)
        try:
            res = _exact_dp_component(sub, mmin, mmax, budget)
        except BudgetExceeded:
            return DpExactResult("unknown", None, total_tested, m_reached)
        total_tested += res.covers_tested
        m_reached = max(m_reached, res.m_reached)
        if res.status != "exact":
            return DpExactResult(res.status, None, total_tested, res.m_reached,
                                 res.counterexample)
        if res.value > overall:
            overall = res.value
            witness = res.counterexample
    return DpExactResult("exact", overall, total_tested, m_reached, witness)


def _exact_dp_component(g: Graph, mmin: int | None, mmax: int, budget: Budget) -> DpExactResult:
    if not g.edges:
        return DpExactResult("exact", 1, 0, 1)
    start = mmin or chromatic_number(g, mmax, budget)
    if start is None:
        return DpExactResult("greater", None, 0, mmax)
    tested = 0
    last_bad = None
    colorable_from = g.coloring_number()
    for m in range(start, mmax + 1):
        if m >= colorable_from:
            # greedy coloring settles every m-fold cover: the walk would
            # find each of the m!^c covers colorable
            cotree = len(g.edges) - g.n + 1
            return DpExactResult("exact", m, tested + math.factorial(m) ** cotree, m, last_bad)
        # the chromatic number, or the re-check of the last m's
        # counterexample, left its own label on the budget
        budget.relabel("enumerating covers for exact chi_DP")
        walked, bad, finished = _cover_walk(g, dict.fromkeys(g.forest, m), budget, _orbits(m))
        tested += walked
        if not finished:
            return DpExactResult("unknown", None, tested, m, last_bad)
        if bad is None:
            return DpExactResult("exact", m, tested, m, last_bad)
        last_bad = bad
    return DpExactResult("greater", None, tested, mmax, last_bad)


@dataclass(frozen=True)
class FDpResult:
    """Outcome of the exhaustive f-cover check: status is 'all_colorable',
    'counterexample' (with the oracle-verified uncolorable cover), or
    'unknown' on budget exhaustion."""

    status: str
    covers_tested: int
    counterexample: Cover | None = field(default=None, compare=False)


def f_dp_exhaustive(g: Graph, f: dict[int, int], budget: Budget | None = None) -> FDpResult:
    """Check every f-cover of g for colorability, up to two reductions that
    lose no generality.

    Only maximal matchings are enumerated: a sub-matching only gains
    transversals.  And the matchings of the BFS forest `g.forest` are put
    in a normal form by renaming labels, each non-root vertex v once, in
    BFS order, after its parent u.  Renaming L(v) is an isomorphism of the
    cover graph H, so it preserves colorability; it changes only the
    matchings at v, of which the edge to u is fixed here, the edges to v's
    children are fixed when the children are renamed later, and every
    other edge is enumerated in full.  The edge uv is maximal, so:

    - when f(u) <= f(v) it maps L(u) injectively into L(v); renaming the
      image of each a to a makes it a -> a on the first f(u) labels, one
      choice instead of f(v)! / (f(v) - f(u))!;
    - when f(u) > f(v) it maps a set D of f(v) labels of u onto L(v);
      renaming the image of the k-th smallest label of D to k makes it
      order-preserving, C(f(u), f(v)) choices instead of
      f(u)! / (f(u) - f(v))!.

    The walk and its start mask are described at `_cover_walk`.  An empty
    set of transversals proves every completion uncolorable, and the first
    such cover is returned after an oracle re-check.  A budget step is one
    walk node; covers_tested counts the reduced covers walked.
    """
    budget = ensure_budget(budget, 50_000_000, "exhausting f-covers")
    for v in range(1, g.n + 1):
        if f.get(v, 0) < 1:
            raise PreconditionError(f"size function must be >= 1 at vertex {v}")
    tested, bad, finished = _cover_walk(g, {v: f[v] for v in g.forest}, budget)
    if not finished:
        return FDpResult("unknown", tested)
    if bad is None:
        return FDpResult("all_colorable", tested)
    return FDpResult("counterexample", tested, bad)


# ---------------------------------------------------------------------------
# text format: '#' comments, "cover t=<t>", "L <v> <a>...", and
# "M <i> <j> <a>-><b> ..." for each edge with a nonempty matching

def write_cover(cover: Cover) -> str:
    lines = [f"cover t={cover.t}"]
    for v in range(1, cover.graph.n + 1):
        lines.append("L " + " ".join(str(a) for a in (v,) + cover.labels_of(v)))
    for (i, j) in sorted(cover.matchings):
        sigma = cover.matchings[(i, j)]
        if not sigma:
            continue
        pairs = " ".join(f"{a}->{b}" for a, b in sorted(sigma.items()))
        lines.append(f"M {i} {j} {pairs}")
    return "\n".join(lines) + "\n"


def read_cover(text: str) -> Cover:
    """Parse a cover file on vertices 1..n, n the highest vertex named.  The
    base graph is inferred from the M records, so edges carrying an empty
    matching are not represented (they constrain nothing)."""
    t = None
    labels: dict[int, tuple[int, ...]] = {}
    matchings: dict[Edge, dict[int, int]] = {}
    for ln, parts in read_records(text):
        if parts[0] == "cover":
            if t is not None:
                raise FormatError("duplicate cover header", ln)
            if len(parts) != 2 or not parts[1].startswith("t="):
                raise FormatError("header must be 'cover t=<t>'", ln)
            (t,) = record_ints([parts[1][2:]], ln, "order t must be an integer")
        elif parts[0] == "L":
            if t is None:
                raise FormatError("label record before header", ln)
            v, *ls = record_ints(parts[1:], ln, "label record must be 'L <v> <a1> <a2> ...'", 1)
            if v < 1:
                raise FormatError(f"label record for vertex {v}, vertices start at 1", ln)
            if v in labels:
                raise FormatError(f"duplicate label record for vertex {v}", ln)
            labels[v] = tuple(sorted(ls))
        elif parts[0] == "M":
            if t is None:
                raise FormatError("matching record before header", ln)
            i, j = record_ints(parts[1:3], ln,
                               "matching record must be 'M <i> <j> <a>-><b> ...'", 2)
            if not 1 <= i < j:
                raise FormatError(f"matching endpoints must satisfy 1 <= i < j, got {i}, {j}", ln)
            sigma = {}
            for tok in parts[3:]:
                if "->" not in tok:
                    raise FormatError(f"bad pair {tok!r}, expected '<a>-><b>'", ln)
                a, b = record_ints(tok.split("->", 1), ln,
                                   f"bad pair {tok!r}, labels must be integers")
                if a in sigma:
                    raise FormatError(f"label {a} matched twice on edge ({i}, {j})", ln)
                sigma[a] = b
            if not sigma:
                raise FormatError("matching record with no pairs", ln)
            if (i, j) in matchings:
                raise FormatError(f"duplicate matching record for edge ({i}, {j})", ln)
            matchings[(i, j)] = sigma
        else:
            raise FormatError(f"unknown record {parts[0]!r}", ln)
    if t is None:
        raise FormatError("missing 'cover t=<t>' header")
    if not labels:
        raise FormatError("cover has no label records")
    n = max([*labels, *(j for _, j in matchings)])
    missing = list(islice((v for v in range(1, n + 1) if v not in labels), 10))
    if missing:  # the first ten: L 1000000000 ... alone misses nearly every vertex
        raise FormatError(f"missing label records for vertices {missing}")
    g = from_edges(n, sorted(matchings))
    cov = Cover(g, t, tuple(labels[v] for v in range(1, n + 1)), matchings)
    bad = validate(cov)
    if bad:
        raise FormatError("; ".join(bad))
    return cov
