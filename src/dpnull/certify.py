"""Nullstellensatz-based colorability certificates for DP-covers.

The certifiers tie the polynomial side to the cover side:

* a good prime cover of order t is colorable when some monomial with
  exponents below the label sizes has nonzero coefficient in the offset
  polynomial prod (x_i - x_j - beta_ij) over F_t;
* over F_3 the same works for arbitrary covers with the signed polynomial
  prod (x_i + B*x_j - beta_ij), B = -1 on good-diff edges and +1 on
  bad-sum edges;
* in both, the offsets beta_ij only feed lower degrees, so the top-degree
  coefficients are those of the offset-free product prod (x_i + B*x_j),
  and the qualifying monomial is read from that product alone;
* sweeping every sign pattern over F_3 certifies chi_DP(G) <= 3 outright;
  only the patterns with a spanning forest pinned to -1 are expanded, and
  vertex switching gives every other pattern's certificate;
* a unique proper list coloring, or the structure of cones over certain
  bipartite / uniquely 3-colorable graphs, certifies whole families of
  good prime covers at once.

Every positive whole-cover certificate carries a witness transversal that
has been re-validated against the cover, so a second implementation can
replay the claim.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from itertools import chain, islice, permutations
from operator import eq, or_, xor

from .budget import Budget, BudgetExceeded, ensure_budget
from .caching import cached_attribute
from .errors import MethodDisagreement, PreconditionError
from .ff import make_field
from .graphs import (
    Edge,
    Graph,
    chromatic_number,
    cone,
    cycle_power,
    relabel,
    spanning_tree,
    unique_k_analysis,
)
from .poly import (
    DEFAULT_MAX_TERMS,
    ExpansionLimitError,
    Grid,
    coefficient_at,
    find_qualifying_monomial,
    from_graph,
)
from .cover import (
    BAD,
    GOOD_DIFF,
    Cover,
    classify_saturation,
    cover_from_lists,
    cover_from_pattern,
    h_coloring_search,
    is_valid_transversal,
    transversals,
    uncolorable_cover_c3k_square,
    exact_dp_chromatic,
    validate,
)


@dataclass(frozen=True)
class Certificate:
    """A replayable colorability claim: the qualifying monomial and its
    nonzero coefficient, plus the sign pattern / offsets of the polynomial
    it was read from and, for whole-cover certificates, a witness
    transversal that passed validation."""

    kind: str
    t: int
    n: int
    monomial: tuple[int, ...]
    coefficient: int
    pattern: tuple[int, ...] | None = None
    offsets: tuple[int, ...] | None = None
    witness: tuple[int, ...] | None = None
    verified: bool | None = None
    work: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class FailureReport:
    """Sign patterns for which every qualifying coefficient vanishes."""

    failing_patterns: Sequence[tuple[int, ...]]


@dataclass(frozen=True)
class Dp3Result:
    mode: str
    patterns_tested: int
    certificates: Sequence[Certificate]
    failure: FailureReport | None

    @property
    def passed(self) -> bool:
        return self.failure is None


# ---------------------------------------------------------------------------
# whole-cover certificates

def _certify_cover(cover: Cover, kind: str, budget: Budget) -> Certificate | None:
    """Read the cover's signed offset polynomial: sign -1 and beta on each
    good-diff edge, +1 and beta on each bad-sum edge, the latter refused
    for a "good-cover" certificate."""
    bad = validate(cover)
    if bad:
        raise PreconditionError("; ".join(bad))
    g = cover.graph
    signs = {}
    betas = {}
    for e in g.edges:
        sat = classify_saturation(cover, e)
        if sat.kind != GOOD_DIFF and kind == "good-cover":
            raise PreconditionError(
                f"edge {e} classifies {sat.kind}, not good-diff; rename with "
                "is_good_cover or use certify_order3_cover"
            )
        assert sat.kind != BAD  # impossible over F_3
        signs[e] = -1 if sat.kind == GOOD_DIFF else 1
        betas[e] = sat.beta
    poly = from_graph(g, cover.field, signs=signs, offsets=betas)
    caps = tuple(len(labels) - 1 for labels in cover.labels)
    what = budget.what
    found = find_qualifying_monomial(poly, caps, budget)
    budget.relabel(what)  # the witness below is charged under the certifier's label
    if found is None:
        return None
    monomial, coeff = found
    # the witness is the lex-first transversal of the cover whose matchings
    # are the factors' zero sets: the first point of the label grid, in
    # product order, where poly is nonzero.  It is charged its rank + 1 in
    # that order, one step per grid point up to it.  The search tries at
    # most n labels per grid point it passes, so one that outruns n * room
    # labels has passed more than room points.
    room = budget.limit - budget.spent
    zeros = Cover(g, cover.t, cover.labels,
                  cover_from_pattern(g, cover.t, signs, betas).matchings)
    try:
        witness = next(transversals(zeros, Budget(g.n * room + 1)), None)
    except BudgetExceeded:
        points = room  # charging it stops the budget at its limit
    else:
        if witness is None:
            raise AssertionError(
                "no nonzero point on the label grid despite a qualifying monomial"
            )
        rank = 0
        for labels, a in zip(cover.labels, witness):
            rank = rank * len(labels) + labels.index(a)
        points = rank + 1
    budget.tick(points)
    if not is_valid_transversal(cover, witness):
        raise AssertionError("extracted witness is not a valid transversal")
    edge_order = g.edges
    return Certificate(
        kind=kind,
        t=cover.t,
        n=g.n,
        monomial=monomial,
        coefficient=coeff,
        pattern=tuple(signs[e] for e in edge_order),
        offsets=tuple(betas[e] for e in edge_order),
        witness=witness,
        verified=True,
        work={"grid_points": points},
    )


def certify_good_cover(cover: Cover, budget: Budget | None = None) -> Certificate | None:
    """Certificate for a cover whose saturation functions are all good-diff
    under the current naming (apply is_good_cover first to rename if
    needed).  None means no qualifying monomial exists; the cover may still
    be colorable."""
    budget = ensure_budget(budget, 200_000_000, "certifying a good cover")
    return _certify_cover(cover, "good-cover", budget)


def certify_order3_cover(cover: Cover, budget: Budget | None = None) -> Certificate | None:
    """Certificate for an arbitrary order-3 cover under its current naming,
    using the signed polynomial with B = -1 on good-diff edges and +1 on
    bad-sum edges."""
    budget = ensure_budget(budget, 200_000_000, "certifying an order-3 cover")
    if cover.t != 3:
        raise PreconditionError(f"the signed certifier needs order 3, got t={cover.t}")
    return _certify_cover(cover, "order3-cover", budget)


# ---------------------------------------------------------------------------
# sign-pattern sweep: chi_DP <= 3

# the most co-forest levels of the sign tree that _sweep_signs bit-slices
# in one chunk, so a plane holds at most 2^SLICE_DEPTH sign patterns
SLICE_DEPTH = 10


def _level(cur, w, inc_i, two_i, dead_i, inc_j, two_j, dead_j):
    """The map cur of w sign patterns times x_i + s x_j for both signs s:
    pattern p of cur gives pattern p (s = -1) and p + w (s = +1) of the
    result, without dead terms.  The masks are the factor's (see
    _factor_masks).

    A map takes each packed key to its planes (ones, twos): bit p of
    ones is set when the key's coefficient under pattern p is 1, bit p of
    twos when it is 2.  Multiplying by x_v adds inc_v to every key
    without two_v; the x_i shift adds to both halves as it is, the x_j
    shift adds to the +1 half as it is and to the -1 half negated, that
    is with its planes swapped.  A key is dead when it meets the dead
    mask of the end whose digit the shift takes from 1 to 2."""
    p = {k + inc_i: (a | a << w, b | b << w) for k, (a, b) in cur.items()
         if not (k & two_i or k & inc_i and k & dead_i)}
    q = {k + inc_j: (b | a << w, a | b << w) for k, (a, b) in cur.items()
         if not (k & two_j or k & inc_j and k & dead_j)}
    out = p | q
    # keys in both shifts: their coefficients add over F_3, pattern by
    # pattern (1 + 1 = 2, 2 + 2 = 1, 1 + 2 = 0).  With a and b the shifted
    # keys' coefficient vectors, the halves are a - b and a + b, which
    # both vanish only if a = b = 0, so no key vanishes under every pattern
    for k in p.keys() & q.keys():
        a1, a2 = p[k]
        b1, b2 = q[k]
        out[k] = ((a1 ^ b1) & ~(a2 | b2) | a2 & b2, (a2 ^ b2) & ~(a1 | b1) | a1 & b1)
    return out


def _times(cur, inc_i, two_i, dead_i, inc_j, two_j, dead_j):
    """The map cur times the forest factor x_i - x_j under each of its
    patterns, without dead terms: the x_i shift of each key as it is, the
    x_j shift with its planes swapped, as in _level.  A key whose two
    shifts cancel under every pattern is dropped."""
    out = {k + inc_i: ab for k, ab in cur.items()
           if not (k & two_i or k & inc_i and k & dead_i)}
    get = out.get
    for k, (b2, b1) in cur.items():  # planes swapped: the -x_j shift
        if k & two_j or k & inc_j and k & dead_j:
            continue
        k += inc_j
        a = get(k)  # each key's j-shift is distinct, so this is its i-shift
        if a is None:
            out[k] = (b1, b2)
            continue
        a1, a2 = a
        ones = (a1 ^ b1) & ~(a2 | b2) | a2 & b2
        twos = (a2 ^ b2) & ~(a1 | b1) | a1 & b1
        if ones | twos:
            out[k] = (ones, twos)
        else:
            del out[k]
    return out


def _kappas(weights, kappa=0):
    """The kappas of the leaves below a node of kappa whose co-forest edges
    still to come have these weights, by pattern index: bit b of the index
    is the sign of weights[b] (+1 = 1)."""
    block = [kappa]
    for w in weights:
        block += [k ^ w for k in block]
    return block


@cache
def _tree_order(levels):
    """The pattern indices of a chunk of this many co-forest levels in
    sign-tree order: the chunk's first factor signs bit 0 and varies
    slowest."""
    return _kappas([1 << b for b in reversed(range(levels))])


def _charge(cur, w, below, budget):
    """Charge a map just built for w sign-tree nodes, `below` co-forest
    factors above the leaves: one step per key, in one tick.

    A map of more than DEFAULT_MAX_TERMS keys raises ExpansionLimitError
    before it ticks; an empty map charges every node from its level down,
    so a sweep whose budget cannot cover a dead subtree stops there
    instead of listing its leaves."""
    size = len(cur)
    if size > DEFAULT_MAX_TERMS:
        raise ExpansionLimitError(size, DEFAULT_MAX_TERMS)
    budget.tick(size or w * ((2 << below) - 1))


def _factor_masks(n, order):
    """For each factor (i, j) of order, in order, the masks (inc_i, two_i,
    dead_i, inc_j, two_j, dead_j) that _level and _times test keys with.
    The packed layout and the cap are made here and nowhere else: x_v's
    digit sits at bit 2(n - v), inc_v is its low bit and two_v its high
    bit, set exactly when the digit is at the cap of 2.  dead_i ORs the
    two_v of i's neighbours v along the later factors, so a key whose x_i
    digit is 2 and that meets dead_i has a remaining edge with both ends
    at the cap.  One backward pass."""
    inc = [0] + [1 << 2 * (n - v) for v in range(1, n + 1)]
    later = [0] * (n + 1)  # vertex -> the two_v of its neighbours in later factors
    masks = []
    for i, j in reversed(order):
        masks.append((inc[i], inc[i] << 1, later[i], inc[j], inc[j] << 1, later[j]))
        later[i] |= inc[j] << 1
        later[j] |= inc[i] << 1
    masks.reverse()
    return masks


def _factor_order(g: Graph) -> tuple[Edge, ...]:
    """The edges of g in the order the sweep multiplies them, an
    elimination order: the vertices come in reverse smallest-last order
    (Matula and Beck, "Smallest-last ordering and clustering and graph
    coloring algorithms", 1983), and when a vertex is reached its edges to
    the vertices before it are multiplied, farthest first.  So the edges
    go by their later end's place, then their earlier end's, and each
    vertex has at most coloring_number() - 1 edges back.

    The peel is Graph._coloring_number's bucket queue with its ties fixed:
    repeatedly remove a vertex of least degree in what is left, ties to
    the lower degree in g and then the lower index.  (The coloring number
    does not depend on the ties, so it keeps its own cheaper loop.)  The
    core that is left last comes first, so its vertices meet their edges
    early and reach the cap of 2 sooner, and the sweep drops the terms
    their later edges make dead.  Each bucket is a bit set over the
    vertices ranked by (degree, index), so its lowest bit is the vertex
    the ties pick; a vertex's place is a bit too, so an edge's sort key is
    the OR of its ends' places."""
    nbrs = g._neighbours
    deg = [0, *map(len, nbrs.values())]  # -1: removed
    ranked = sorted(nbrs, key=deg.__getitem__)  # by degree, then index
    bit = [0] * (g.n + 1)
    buckets = [0] * (deg[ranked[-1]] + 1)  # degree -> its vertices' rank bits
    r = 1
    for v in ranked:
        bit[v] = r
        buckets[deg[v]] |= r
        r <<= 1
    place = [0] * (g.n + 1)  # bit p: the p-th vertex of the order, from 0
    p = 1 << g.n
    d = 0
    for _ in ranked:
        while not buckets[d]:
            d += 1
        b = buckets[d]
        low = b & -b
        buckets[d] = b ^ low
        v = ranked[low.bit_length() - 1]
        p >>= 1
        place[v] = p
        deg[v] = -1
        for w in nbrs[v]:
            dw = deg[w]
            if dw >= 0:
                buckets[dw] ^= bit[w]
                buckets[dw - 1] |= bit[w]
                deg[w] = dw - 1
        # removing v lowers a degree by one at most
        if d:
            d -= 1
    return tuple(sorted(g.edges, key=lambda e: place[e[0]] | place[e[1]]))


def _sweep_signs(n, order, co, weights, budget):
    """Sweep over sign assignments for the co-forest factors, sharing the
    expansion of the factors that the patterns have in common.

    order lists every factor (i, j) in the order they are multiplied, and
    co[k] tells whether order[k] is a co-forest factor, whose sign is
    swept; the others are forest factors, pinned to -1.  The order changes
    only the steps and the time: each leaf map is the whole product capped
    at 2 whatever the order, and a leaf's kappa follows its edges' signs,
    not their places in order.  Each leaf is named by the index kappa of
    its pattern's representative (see _PatternSpace): weights[d] is the
    kappa of the d-th co-forest factor at +1 alone, so a leaf's kappa is
    the XOR of the weights of its +1 edges.  Returns the kappa-keyed
    payloads (certs, fails), which name every leaf once between them:
    fails[kappa] is True for each failing leaf, and certs[kappa] is
    (monomial, coefficient, flip) for each passing one, its lex-greatest
    monomial with exponents <= 2, that monomial's coefficient and the flip
    mask that certify_dp3's switching reads: the vertices at an odd
    exponent XOR the lower ends of an odd number of the edges in order
    (vertex v at bit v - 1).

    The sweep only ever expands prod (x_i + s x_j) over F_3 with every
    exponent capped at 2.  An exponent takes a 2-bit digit of a packed key,
    variable 1 the most significant one (see _factor_masks), so numeric
    order on keys is lexicographic order on exponent vectors and a leaf's
    lex-greatest monomial is its largest key.  A map holds the products of
    w sign patterns at once: it takes each key to its two bit planes
    (ones, twos), bit p set in ones when the key's coefficient under
    pattern p is 1 and in twos when it is 2, and a key stays only while
    some pattern gives it a nonzero coefficient.  A forest factor keeps the
    map's width (_times).  A co-forest factor doubles it (_level): one pass
    over the keys multiplies every pattern by both signs and puts the +1
    children above the -1 ones.

    The sign tree is walked in chunks of at most SLICE_DEPTH co-forest
    levels, depth first with an explicit stack of chunk roots, each a
    one-pattern map.  The top chunk takes what is left over, so every
    chunk below it is a full SLICE_DEPTH levels deep.  Within a chunk one
    map per factor holds every node of its level, so a factor costs one
    pass over its keys, not one per node, and no plane is wider than
    2^SLICE_DEPTH bits; the b-th co-forest factor of the chunk signs bit
    b of the pattern index, and _kappas maps each index to its kappa.  At
    a chunk's end above the leaves, one pass over the last map's keys
    splits it into its one-pattern child roots, pushed so that they pop
    in sign-tree order (the sign of the chunk's first factor varies
    slowest, -1 before +1).  At the leaves, a pattern fails iff no key has
    its bit set; otherwise its top is the largest key that has, and its
    coefficient the plane that bit is in.  The keys are scanned by
    descending value, each taking the patterns that no larger key has,
    so each distinct top is unpacked once per chunk.  The depth is
    bounded neither by the recursion limit nor, beyond one chunk's child
    roots per chunk level, by memory.

    The budget is charged one step per key of each map the sweep builds,
    in one tick per map: one per factor for each chunk.  A map of more
    than DEFAULT_MAX_TERMS keys raises ExpansionLimitError before its
    tick.  An empty map charges every sign-tree node from its level down
    before it records their leaves as failures, so a sweep that cannot
    pay for a dead subtree stops there.  Every passing leaf's payload is
    built, read off the leaf map the sweep has already paid for, so it
    costs no step of its own.

    A term is dead when a factor still to be multiplied has both ends at
    exponent 2.  Exponents only grow and that factor raises one of its
    ends, so no descendant of a dead term survives the cap: dropping dead
    terms as they arise leaves every leaf map, and so every verdict,
    monomial and coefficient, unchanged.  (This is the orientation view
    of Alon and Tarsi, "Colorings and orientations of graphs", 1992: each
    factor still to come orients its edge into one end, whose exponent
    must have room.)  No stored map holds a dead term, so a new term can
    only die at the end whose digit a shift takes from 1 to 2, along a
    later factor at that end.  _factor_masks makes the layout, the cap
    bits and, per factor and end, the cap bits of the neighbours along
    the later factors, all in one place; _level and _times only test a
    key's bits against them.  Whether a key is dead does not depend on
    the signs, so the test runs once per key per map.
    """
    masks = _factor_masks(n, order)
    lower = reduce(xor, (1 << (i - 1) for i, _ in order), 0)
    depth = len(weights)
    shifts = range(2 * (n - 1), -1, -2)
    certs = {}
    fails = {}
    # chunk roots: (next factor, co-forest factors before it, kappa, map)
    stack = [(0, 0, 0, {0: (1, 0)})]
    while stack:
        k, start, kappa, cur = stack.pop()
        end = min(depth, start + (depth - start - 1) % SLICE_DEPTH + 1)
        d = start
        w = 1
        for k in range(k, len(order)):
            if not co[k]:
                cur = _times(cur, *masks[k])
            elif d == end:
                break  # the chunk's end, above the leaves
            else:
                cur = _level(cur, w, *masks[k])
                w <<= 1
                d += 1
            _charge(cur, w, depth - d, budget)
            if not cur:
                break
        if not cur:  # every leaf below the chunk root fails
            fails.update(dict.fromkeys(_kappas(weights[start:], kappa), True))
            continue
        kappas = _kappas(weights[start:d], kappa)  # by pattern index
        if d < depth:
            roots = [{} for _ in range(w)]
            for key, (a, b) in cur.items():
                hit = a | b
                while hit:
                    bit = hit & -hit
                    roots[bit.bit_length() - 1][key] = (1, 0) if a & bit else (0, 1)
                    hit ^= bit
            # pushed last to first, so they pop in sign-tree order
            stack.extend((k, d, kappas[p], roots[p]) for p in reversed(_tree_order(d - start)))
            continue
        left = reduce(or_, chain.from_iterable(cur.values()))
        miss = ~left & ((1 << w) - 1)
        while miss:
            bit = miss & -miss
            fails[kappas[bit.bit_length() - 1]] = True
            miss ^= bit
        for key in sorted(cur, reverse=True):
            a, b = cur[key]
            hit = (a | b) & left
            if hit:
                left ^= hit
                mono = tuple(key >> shift & 3 for shift in shifts)
                flip = lower ^ sum(1 << v for v, e in enumerate(mono) if e & 1)
                one = (mono, 1, flip)
                two = (mono, 2, flip)
                while hit:
                    bit = hit & -hit
                    certs[kappas[bit.bit_length() - 1]] = one if a & bit else two
                    hit ^= bit
                if not left:
                    break
    return certs, fails


class _PatternSpace:
    """The sign patterns a sweep reports on, in pattern-lex order, and the
    arithmetic that takes each one to its forest-pinned representative and
    its switching (see certify_dp3).

    The signs are pinned to -1 on the forest edges that are not switched
    and free on the others.  A pattern's domain index y reads its free
    signs as bits (+1 = 1, the first free edge most significant), so y
    order is pattern-lex order; bit t is free[-1 - t].  Flipping a switched
    forest edge's bit switches the side S of that edge away from its
    tree's root, which flips the edge itself and the co-forest edges
    leaving S.  Both the set S(y) and the representative y XOR cut(S(y))
    are therefore XORs over the set bits of y: of sig[t] and of the
    representatives of the single bits.

    A representative is named by its coordinates kappa, chosen by
    elimination over bits 0, 1, ...: kap[t] is the kappa of bit t alone,
    and dims[t] the rank of the bits below t.  The representatives of the
    y that agree above bit t are then exactly those whose kappa agree
    from bit dims[t] up, so a walk down the bits of y can drop every block
    whose kappa >> dims[t] no member has.  The low `block` bits are not
    walked: their signs, kappas and switchings are tabulated once, in
    `tails`.
    """

    BLOCK = 10  # free bits scanned per block when streaming

    def __init__(self, g: Graph, forest, switched: bool):
        m = len(g.edges)
        below = {}  # switched forest edge -> (S, cut(S)) of its lower side
        if switched:
            # S and cut(S) of each vertex's subtree of g.forest, folded from
            # the leaves: a vertex's own bit and its star to start with
            side = [0] + [1 << v for v in range(g.n)]
            cuts = [0] * (g.n + 1)
            for k, (i, j) in enumerate(g.edges):
                cuts[i] |= 1 << (m - 1 - k)
                cuts[j] |= 1 << (m - 1 - k)
            for v, p in reversed(g.forest.items()):  # children before parents
                if p:
                    below[(p, v) if p < v else (v, p)] = (side[v], cuts[v])
                    side[p] |= side[v]
                    cuts[p] ^= cuts[v]
        self.m = m
        self.free = [k for k, e in enumerate(g.edges) if switched or e not in forest]
        self.nbits = len(self.free)
        self.kap, self.sig, self.dims = [], [], [0]
        reduced = {}  # leading bit -> (vector, its kappa)
        d = 0
        for k in reversed(self.free):
            mask, cut = below.get(g.edges[k], (0, 0))
            rep = 1 << (m - 1 - k) ^ cut
            kappa = 0
            # reduce by the leading bit until it is no vector's: the
            # vectors' leading bits differ, so rep is in their span iff
            # this ends at 0
            while rep:
                hit = reduced.get(rep.bit_length() - 1)
                if hit is None:
                    break
                rep ^= hit[0]
                kappa ^= hit[1]
            if rep:  # a new coordinate: this bit's representative itself
                reduced[rep.bit_length() - 1] = (rep, kappa ^ 1 << d)
                kappa = 1 << d
                d += 1
            self.kap.append(kappa)
            self.sig.append(mask)
            self.dims.append(d)
        self.rank = self.dims[-1]
        self.slot_kap = [0] * m  # the kappa per edge slot, 0 on pinned slots
        for k, kappa in zip(reversed(self.free), self.kap):
            self.slot_kap[k] = kappa
        self.block = min(self.nbits, self.BLOCK)
        self.split = self.free[self.nbits - self.block]

    def signs(self, y: int) -> tuple[int, ...]:
        """The sign pattern of index y."""
        out = [-1] * self.m
        for t, k in enumerate(reversed(self.free)):
            if y >> t & 1:
                out[k] = 1
        return tuple(out)

    @cached_attribute
    def tails(self):
        """(signs from edge `split` on, kappa, S) of each of the low
        `block` bits' values, in order: each bit doubles the list, its
        +1 half after its -1 half."""
        tails = [((-1,) * (self.m - self.split), 0, 0)]
        for t in range(self.block):
            at = self.free[-1 - t] - self.split
            kap, sig = self.kap[t], self.sig[t]
            tails += [(tail[:at] + (1,) + tail[at + 1:], k ^ kap, s ^ sig)
                      for tail, k, s in tails]
        return tails


class PatternSequence(Sequence):
    """The sign patterns (or their certificates) whose representative is
    a member, in pattern-lex order, built on demand.

    payload is keyed by the kappas of the member representatives;
    make(pattern, S, payload[kappa]) builds the item of a member pattern.
    len is O(1).  Iteration streams the items block by block and skips
    every block that holds no member; indexing reads the i-th item off
    that stream, so it is O(i), `in` scans it, and a slice or reversed()
    builds the whole tuple first.  A sequence compares equal to the tuple
    of its items.
    """

    def __init__(self, space: _PatternSpace, payload: dict, make):
        self._space = space
        self._payload = payload
        self._make = make
        self._len = len(payload) << (space.nbits - space.rank)

    def __len__(self) -> int:
        return self._len

    @cached_attribute
    def _live(self):
        """live[d]: the kappa >> d of the members, d = 0..rank (the
        payload itself at d = 0)."""
        live = [self._payload]
        for _ in range(self._space.rank):
            live.append({h >> 1 for h in live[-1]})
        return live

    def __iter__(self):
        item = self.item
        for head, members in self.blocks():
            for member in members:
                yield item(head, member)

    @property
    def tails(self) -> list[tuple[int, ...]]:
        """The signs from edge `split` on that every block runs through,
        in order."""
        return [tail for tail, _, _ in self._space.tails]

    def blocks(self):
        """The members block by block, for a writer that formats each
        block's shared signs once: (head, members) per block of patterns
        that holds a member, in order.  The block is that of the y whose
        low `block` bits are 0, and head the signs before edge `split`
        that it shares; members iterates (i, S, payload) per member, in
        order, where tails[i] are its signs from there on.  item(head,
        member) builds the member's item."""
        space, live = self._space, self._live
        dims, kap, sig = space.dims, space.kap, space.sig
        # (t, y, kappa(y), S(y)): the block of indices that agree with y
        # above its low t bits, which are 0 in y
        stack = [(space.nbits, 0, 0, 0)]
        while stack:
            t, y, kappa, mask = stack.pop()
            d = dims[t]
            if kappa >> d not in live[d]:
                continue
            if t > space.block:
                t -= 1
                stack.append((t, y | 1 << t, kappa ^ kap[t], mask ^ sig[t]))
                stack.append((t, y, kappa, mask))
            else:
                yield space.signs(y)[:space.split], self._members(kappa, mask)

    def _members(self, kappa, mask):
        """(i, S, payload) per member of the block of the y with
        kappa(y) = kappa and S(y) = mask, in order, built as it is read."""
        get = self._payload.get
        for i, (_, k, s) in enumerate(self._space.tails):
            data = get(kappa ^ k)
            if data is not None:
                yield i, mask ^ s, data

    def item(self, head, member):
        """The item of a member of the block with signs `head`."""
        i, mask, data = member
        return self._make(head + self._space.tails[i][0], mask, data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return next(islice(self, range(self._len)[i], None))

    def __reversed__(self):  # not Sequence's, which indexes each item
        return reversed(tuple(self))

    def __eq__(self, other):
        if not isinstance(other, (tuple, PatternSequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<PatternSequence of {self._len} items>"


def _bare(pattern, mask, data):
    return pattern


def _certificate(n, pattern, mask, data):
    """The certificate of a pattern switched by S = mask from a passing
    representative with data (monomial, coefficient, flip): the
    coefficient negates when S meets flip an odd number of times."""
    monomial, coeff, flip = data
    if (mask & flip).bit_count() & 1:
        coeff = 3 - coeff
    # positional: (kind, t, n, monomial, coefficient, pattern), the
    # cheaper call for what may be millions of certificates
    return Certificate("dp3-pattern", 3, n, monomial, coeff, pattern)


def certify_dp3(
    g: Graph,
    use_spanning_tree: bool = False,
    budget: Budget | None = None,
) -> Dp3Result:
    """Sweep sign patterns over F_3; if every pattern's polynomial has a
    monomial with exponents <= 2 and nonzero coefficient, chi_DP(G) <= 3.

    Only the patterns with the BFS spanning forest `g.forest` (its edges
    are `spanning_tree(g)`) pinned to -1 are expanded: one per sign choice
    on the 2^(|E|-|V|+c) co-forest edges, c the number of components.
    Every other pattern follows by vertex switching (Zaslavsky, "Signed
    graph coloring", 1982).  For sigma in {+1, -1}^V, substituting
    x_v -> sigma_v x_v in
    prod_{(i,j) in E, i<j} (x_i + s_ij x_j) gives
    (prod_E sigma_i) * prod (x_i + s_ij sigma_i sigma_j x_j), so the
    pattern s' = s sigma_i sigma_j has the coefficients

        c_s'(a) = (prod_{(i,j) in E} sigma_i) (prod_v sigma_v^{a_v}) c_s(a),

    read in F_3 (-c = 3 - c).  Its support, hence its verdict and its
    lex-greatest monomial, is that of s.  Taking sigma = +1 at each
    component's lowest vertex, the forest edges fix sigma along each tree,
    so every pattern is the switching of exactly one forest-pinned pattern
    by exactly one such sigma: the 2^(|V|-c) switchings of the
    2^(|E|-|V|+c) representatives are the 2^|E| patterns.

    A pattern's coefficient at a is therefore its representative's,
    negated when the edges whose lower end is in its switching set
    S = {v : sigma_v = -1} and the v in S with a_v odd are odd in number
    together.  _PatternSpace holds the arithmetic that takes a pattern to
    its representative and S; _sweep_signs expands the representatives,
    multiplying the edges in _factor_order's elimination order (reverse
    smallest-last, each vertex's edges back farthest first), and its
    docstring gives the chunks of the sign tree and the dead terms.  The
    order moves only the budget's spend, never the result.

    The result's `certificates` and `failure.failing_patterns` are lazy
    PatternSequence views in pattern-lex order over the representatives'
    verdicts: len is O(1), iteration streams the items, building each
    when it is reached, indexing item i is O(i), and each view compares
    equal to the tuple of its items.  Iterating needs memory that does
    not grow with 2^|E|; a slice, like tuple(), holds every item.  Both
    views are always built, so len(certificates) plus the number of
    failing patterns is patterns_tested.  The budget is charged one step
    per key of each map the sweep stores (see _sweep_signs); an all-edges
    run then charges one step per pattern it reports, 2^|E| in one tick,
    which is 2^(|V|-c) per representative switched.

    With use_spanning_tree (connected graphs containing a cycle only),
    the result lists the representatives alone; the verdict is the same.
    """
    if not g.edges:
        raise PreconditionError("the sweep needs a graph with at least one edge")
    if use_spanning_tree and (not g.is_connected() or not g.contains_cycle()):
        raise PreconditionError(
            "spanning-tree mode needs a connected graph containing a cycle"
        )
    forest = set(spanning_tree(g))
    order = _factor_order(g)
    co = [e not in forest for e in order]
    budget = ensure_budget(budget, 2_000_000_000, "sweeping sign patterns")
    space = _PatternSpace(g, forest, switched=not use_spanning_tree)
    slot = {e: k for k, e in enumerate(g.edges)}
    weights = [space.slot_kap[slot[e]] for e, c in zip(order, co) if c]
    certs, fails = _sweep_signs(g.n, order, co, weights, budget)

    mode = "spanning-tree" if use_spanning_tree else "all-edges"
    patterns_tested = 1 << space.nbits
    if not use_spanning_tree:
        budget.tick(patterns_tested)
    failure = None
    if fails:
        failure = FailureReport(PatternSequence(space, fails, _bare))
    certificates = PatternSequence(space, certs, partial(_certificate, g.n))
    return Dp3Result(mode, patterns_tested, certificates, failure)


# ---------------------------------------------------------------------------
# family certificates via the grid sum

def certify_unique_list(g: Graph, lists: dict[int, tuple[int, ...]], t: int) -> Certificate:
    """If the list assignment has exactly one proper coloring and the list
    sizes sum to |V| + |E|, the top coefficient of the graph polynomial on
    the list grid is nonzero, so every good prime cover of order t with the
    same size function is colorable."""
    fld = make_field(t)
    cov = cover_from_lists(g, lists, t)
    total = sum(map(len, cov.labels))
    if total != g.n + len(g.edges):
        raise PreconditionError(
            f"list sizes sum to {total}, need |V| + |E| = {g.n + len(g.edges)}"
        )
    colorings = list(islice(transversals(cov), 2))
    if len(colorings) != 1:
        raise PreconditionError(
            f"need exactly one proper list coloring, found "
            f"{'none' if not colorings else 'several'}"
        )
    point = colorings[0]
    poly = from_graph(g, fld)
    grid = Grid(fld, cov.labels)
    coeff = grid.coefficient(poly)
    # the grid sum collapses to the unique coloring's term
    n_inv = 1
    for pos, tbl in enumerate(grid.weight_tables()):
        n_inv = fld.mul(n_inv, fld.inv(tbl[point[pos]]))
    single = fld.mul(n_inv, poly.evaluate(point))
    if coeff != single:
        raise MethodDisagreement(f"grid sum {coeff} != single-point value {single}")
    assert coeff != 0
    monomial = tuple(len(pts) - 1 for pts in cov.labels)
    return Certificate(
        kind="unique-list",
        t=t,
        n=g.n,
        monomial=monomial,
        coefficient=coeff,
        witness=point,
        verified=is_valid_transversal(cov, point),
        work={"grid_points": math.prod(map(len, cov.labels))},
    )


def _cone_certificate(g: Graph, t: int, expected: int, kind: str, work: dict) -> Certificate:
    """The cone K_1 + g over F_t, read at exponent 0 on the apex and t - 1
    elsewhere by both routes, checked against its closed form."""
    gp = cone(g)
    target = (0,) + (t - 1,) * g.n
    coeff = coefficient_at(from_graph(gp, make_field(t)), target, method="both")
    if coeff != expected:
        raise AssertionError(f"coefficient {coeff} != closed form {expected}")
    return Certificate(kind=kind, t=t, n=gp.n, monomial=target, coefficient=coeff, work=work)


def certify_cone_bipartite(g: Graph) -> Certificate:
    """For connected bipartite g with |V| = |E|: the cone K_1 + g (parts
    listed X then Y, X holding g's lowest vertex) has top coefficient
    2 * (-1)^{|X|} over F_3 for the monomial with exponent 0 on the apex
    and 2 elsewhere; every good prime cover of order 3 with one apex label
    and three labels elsewhere is therefore colorable.

    The vertex order matters: sorting the parts is what makes the closed
    form hold, and the colorability conclusion is order-independent.
    """
    if not g.is_connected():
        raise PreconditionError("the graph must be connected")
    parts = g.bipartition()
    if parts is None:
        raise PreconditionError("the graph must be bipartite")
    if g.n != len(g.edges):
        raise PreconditionError(
            f"need |V| = |E|, got |V|={g.n}, |E|={len(g.edges)}"
        )
    xs, ys = parts
    m = len(xs)
    expected = 2 if m % 2 == 0 else 1  # 2 * (-1)^m in F_3
    return _cone_certificate(relabel(g, xs + ys), 3, expected, "cone-bipartite",
                             {"part_size": m})


_CONGRUENCES = ((2, (1, 3), 0), (3, (1, 2), 1), (1, (2, 3), 2))


def certify_cone_unique3(g: Graph) -> Certificate:
    """For uniquely 3-colorable g with 2|V| = |E| whose class sizes n_i and
    cross-edge counts m_{i,j} satisfy n_2 + m_{1,3} = 0, n_3 + m_{1,2} = 1
    and n_1 + m_{2,3} = 2 (mod 3) under some ordering of the classes: the
    cone K_1 + g has top coefficient 1 over F_4 for the monomial with
    exponent 0 on the apex and 3 elsewhere, so every good prime cover of
    order 4 with one apex label and four labels elsewhere is colorable.

    All six assignments of the stored classes to the three roles are
    tried; work["class_order"] names the first that passes (0-based
    indices into the unique partition).
    """
    stats = unique_k_analysis(g, 3)
    if 2 * g.n != len(g.edges):
        raise PreconditionError(f"need 2|V| = |E|, got 2*{g.n} != {len(g.edges)}")
    chosen = None
    last_failures = []
    for order in permutations(range(3)):
        ns = {role + 1: stats.sizes[order[role]] for role in range(3)}
        ms = {}
        for a in range(3):
            for b in range(a + 1, 3):
                key = tuple(sorted((order[a], order[b])))
                ms[(a + 1, b + 1)] = stats.cross.get((key[0] + 1, key[1] + 1), 0)
        failures = []
        for n_role, m_roles, want in _CONGRUENCES:
            got = (ns[n_role] + ms[m_roles]) % 3
            if got != want:
                failures.append(
                    f"n_{n_role} + m_{m_roles[0]},{m_roles[1]} = {got} != {want} (mod 3)"
                )
        if not failures:
            chosen = order
            break
        last_failures = failures
    if chosen is None:
        raise PreconditionError(
            "class congruences fail for every ordering; last tried: "
            + "; ".join(last_failures)
        )
    return _cone_certificate(g, 4, 1, "cone-unique3", {"class_order": chosen})


# ---------------------------------------------------------------------------
# bounds report

# without max_m, dp_chromatic_bounds runs the exact search on a component
# when it would walk at most this many covers: the search walks about one
# cover per conjugation orbit, so the estimate counts orbits (see
# `_cover_orbits`), summed over the open range of m.
EXACT_SEARCH_COVERS = 20_000


def _centralizers(m: int, k: int):
    """The centralizer order prod_j j^a_j a_j! in S_m of each cycle type
    with a_j cycles of length j <= k."""
    if m == 0:
        yield 1
        return
    for a in range(m // k + 1) if k > 1 else (m,):
        for z in _centralizers(m - a * k, k - 1):
            yield z * k ** a * math.factorial(a)


def _cover_orbits(m: int, cotree: int, limit: int) -> int:
    """The number of orbits of S_m acting by simultaneous conjugation on
    `cotree`-tuples of permutations, the m-fold covers the exact search
    walks, or some number above `limit` when there are more.

    By Burnside the count is (1/m!) sum over sigma of |C(sigma)|^c, and the
    m!/z sigma of one cycle type share the centralizer order z, so it is
    the sum over cycle types of z^(c - 1).  The identity's term m!^(c - 1)
    alone can pass the limit, and the sum stops once it does."""
    if cotree == 0:
        return 1
    total = math.factorial(m) ** (cotree - 1)
    if total > limit:
        return total
    total = 0
    for z in _centralizers(m, m):
        total += z ** (cotree - 1)
        if total > limit:
            break
    return total


@dataclass(frozen=True)
class DpBounds:
    lower: int
    upper: int
    exact: int | None
    notes: tuple[str, ...]


def dp_chromatic_bounds(g: Graph, budget: Budget | None = None,
                        max_m: int | None = None) -> DpBounds:
    """Lower/upper bounds on chi_DP with an exact value when they meet or an
    exhaustive search resolves the gap.

    Lower bounds: the chromatic number, 3 for any graph containing a cycle,
    and 4 for squares of cycles of length 3k >= 6 via the explicit
    uncolorable cover (re-checked by the oracle).  Upper bounds: n for
    complete components, 3 for cycle components, otherwise the smaller of
    the maximum degree and the coloring number.

    Where a component's bounds lo < up leave a gap, one exact search walks
    its m-fold covers for m = lo..min(max_m, up - 1).  An m whose covers are
    all colorable is the exact value; an uncolorable cover at every m up to
    up - 1 makes up exact; a search that runs out of budget still raises lo
    past every m it refuted.  Without max_m the search runs only when it
    would walk at most EXACT_SEARCH_COVERS covers, one per conjugation
    orbit.
    """
    if g.n == 0:
        raise PreconditionError("the graph must have at least one vertex")
    if max_m is not None and max_m < 1:
        raise PreconditionError(f"max_m must be at least 1, got {max_m}")
    budget = ensure_budget(budget, 100_000_000, "bounding chi_DP")
    lower = 1
    upper = 1
    notes = []
    comps = g.components()
    for ci, comp in enumerate(comps, start=1):
        # a connected graph is its own component: no copy, and its cached
        # neighbour lists and forest are reused
        sub = g if len(comps) == 1 else g.subgraph(comp)
        tag = f"component {ci} ({sub.n} vertices)"
        try:
            chi = chromatic_number(sub, sub.n, budget)
        except BudgetExceeded:
            notes.append(f"{tag}: chromatic number not resolved within budget")
            lo = 1
        else:
            lo = chi or 1
            notes.append(f"{tag}: chromatic number {lo}")
        if sub.contains_cycle() and lo < 3:
            lo = 3
            notes.append(f"{tag}: contains a cycle, lower bound 3")
        # C_n^2 has 2n edges: count them before building it
        if (sub.n % 3 == 0 and sub.n >= 6 and len(sub.edges) == 2 * sub.n
                and sub.edges == cycle_power(sub.n, 2).edges):
            cov = uncolorable_cover_c3k_square(sub.n // 3)
            try:
                uncolorable = not validate(cov) and h_coloring_search(cov, budget) is None
            except BudgetExceeded:  # an earlier component's search spent it
                notes.append(f"{tag}: 3-fold cover of C_{sub.n}^2 not re-checked within budget")
                uncolorable = False
            if uncolorable:
                lo = max(lo, 4)
                notes.append(f"{tag}: uncolorable 3-fold cover of C_{sub.n}^2, lower bound 4")
        if not sub.edges:
            up = 1
        elif sub.is_complete():
            up = sub.n
            notes.append(f"{tag}: complete, upper bound {up}")
        elif sub.is_cycle_graph():
            up = 3
            notes.append(f"{tag}: cycle, upper bound 3")
        else:
            up = min(sub.max_degree(), sub.coloring_number())
            notes.append(f"{tag}: upper bound min(max degree, coloring number) = {up}")
        if lo < up:
            if max_m is not None:
                hi = min(max_m, up - 1)
                if hi < lo:
                    notes.append(f"{tag}: lower bound {lo} already gives chi_DP > {max_m}")
            else:
                cotree = len(sub.edges) - sub.n + 1
                estimate = sum(_cover_orbits(m, cotree, EXACT_SEARCH_COVERS) for m in range(lo, up))
                hi = up - 1 if estimate <= EXACT_SEARCH_COVERS else 0
            if lo <= hi:
                res = exact_dp_chromatic(sub, hi, budget, mmin=lo)
                done = f"{tag}: exact search over {res.covers_tested} covers"
                if res.status == "exact":
                    lo = up = res.value
                    notes.append(f"{done} gives {res.value}")
                elif res.status == "greater":
                    lo = hi + 1
                    notes.append(f"{done} gives chi_DP > {hi}")
                else:
                    lo = max(lo, res.m_reached)
                    notes.append(f"{done} ran out of budget at m = {res.m_reached}")
        lower = max(lower, lo)
        upper = max(upper, up)
    exact = lower if lower == upper else None
    return DpBounds(lower, upper, exact, tuple(notes))
