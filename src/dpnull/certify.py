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
from functools import cache, cached_property, partial, reduce
from itertools import chain, islice, product
from operator import add, eq, index, or_

from .budget import Budget, BudgetExceeded, ensure_budget
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
    _grid_terms,
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

    mode: str
    failing_patterns: Sequence[tuple[int, ...]]
    patterns_tested: int


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

def _certify_cover(cover: Cover, signs, betas, kind: str, budget: Budget) -> Certificate | None:
    g = cover.graph
    fld = cover.field
    poly = from_graph(g, fld, signs=signs, offsets=betas)
    caps = tuple(len(cover.labels_of(v)) - 1 for v in range(1, g.n + 1))
    found = find_qualifying_monomial(poly, caps, budget)
    if found is None:
        return None
    monomial, coeff = found
    # the lex-first nonzero point of the label grid; the walk charges one
    # step per grid point up to it, so the spend is its rank + 1
    label_grid = Grid(fld, tuple(cover.labels_of(v) for v in range(1, g.n + 1)))
    before = budget.spent
    first = next(_grid_terms(label_grid, poly, budget), None)
    if first is None:
        raise AssertionError(
            "no nonzero point on the label grid despite a qualifying monomial"
        )
    witness = first[0]
    points = budget.spent - before
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
    bad = validate(cover)
    if bad:
        raise PreconditionError("; ".join(bad))
    signs = {}
    betas = {}
    for e in cover.graph.edges:
        sat = classify_saturation(cover, e)
        if sat.kind != GOOD_DIFF:
            raise PreconditionError(
                f"edge {e} classifies {sat.kind}, not good-diff; rename with "
                "is_good_cover or use certify_order3_cover"
            )
        signs[e] = -1
        betas[e] = sat.beta
    return _certify_cover(cover, signs, betas, "good-cover", budget)


def certify_order3_cover(cover: Cover, budget: Budget | None = None) -> Certificate | None:
    """Certificate for an arbitrary order-3 cover under its current naming,
    using the signed polynomial with B = -1 on good-diff edges and +1 on
    bad-sum edges."""
    budget = ensure_budget(budget, 200_000_000, "certifying an order-3 cover")
    if cover.t != 3:
        raise PreconditionError(f"the signed certifier needs order 3, got t={cover.t}")
    bad = validate(cover)
    if bad:
        raise PreconditionError("; ".join(bad))
    signs = {}
    betas = {}
    for e in cover.graph.edges:
        sat = classify_saturation(cover, e)
        assert sat.kind != BAD  # impossible over F_3
        signs[e] = -1 if sat.kind == GOOD_DIFF else 1
        betas[e] = sat.beta
    return _certify_cover(cover, signs, betas, "order3-cover", budget)


# ---------------------------------------------------------------------------
# sign-pattern sweep: chi_DP <= 3

# the most co-forest levels of the sign tree that _sweep_signs bit-slices
# in one chunk, so a plane holds at most 2^SLICE_DEPTH sign patterns
SLICE_DEPTH = 10


def _level(cur, w, i, j, n, dead_i, dead_j):
    """The map cur of w sign patterns times x_i + s x_j for both signs s:
    pattern p of cur gives pattern p (s = -1) and p + w (s = +1) of the
    result, without the terms that dead_i and dead_j mark as dead (see
    _dead_masks).

    A map takes each packed key to its planes (ones, twos): bit p of
    ones is set when the key's coefficient under pattern p is 1, bit p of
    twos when it is 2.  Multiplying by x_v adds 1 << 2(n - v) to every key
    whose x_v digit is below 2; the x_i shift adds to both halves as it
    is, the x_j shift adds to the +1 half as it is and to the -1 half
    negated, that is with its planes swapped.  A key is dead when it meets
    the dead mask of the end whose digit the shift takes from 1 to 2."""
    si = 2 * (n - i)
    sj = 2 * (n - j)
    two_i = 2 << si  # digits are 0, 1 or 2, so this bit marks a 2
    inc_i = 1 << si  # on a key without the 2-bit, this bit marks a 1
    two_j = 2 << sj
    inc_j = 1 << sj
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


def _times(cur, i, j, n, dead_i, dead_j):
    """The map cur times the forest factor x_i - x_j under each of its
    patterns, without dead terms: the x_i shift of each key as it is, the
    x_j shift with its planes swapped, as in _level.  A key whose two
    shifts cancel under every pattern is dropped."""
    si = 2 * (n - i)
    sj = 2 * (n - j)
    two_i = 2 << si
    inc_i = 1 << si
    two_j = 2 << sj
    inc_j = 1 << sj
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
    still to come have these weights, in sign-tree order."""
    block = [kappa]
    for w in reversed(weights):  # weights[0] varies slowest
        block += [k ^ w for k in block]
    return block


@cache
def _tree_order(levels):
    """The pattern indices of a chunk of this many co-forest levels in
    sign-tree order: the chunk's first factor signs bit 0 and varies
    slowest."""
    return _kappas([1 << b for b in range(levels)])


def _charge(cur, w, below, budget):
    """Charge a map just built for w sign-tree nodes, `below` co-forest
    factors above the leaves: one step per key, in one tick.

    A map of more than DEFAULT_MAX_TERMS keys raises ExpansionLimitError
    before it ticks; an empty map charges every node from its level down
    in one tick, clipped to the budget, so a sweep whose budget cannot
    cover a dead subtree stops there instead of listing its leaves."""
    size = len(cur)
    if size > DEFAULT_MAX_TERMS:
        raise ExpansionLimitError(size, DEFAULT_MAX_TERMS)
    budget.tick(size or min(w * ((2 << below) - 1), budget.limit - budget.spent))


def _dead_masks(n, edges):
    """For each factor (i, j) of `edges`, in order, the pair (dead_i,
    dead_j): dead_i ORs the "digit is 2" bits of i's neighbours along the
    later factors, so a key whose x_i digit is 2 and that meets dead_i has
    a remaining edge with both ends at 2.  One backward pass."""
    later = [0] * (n + 1)  # vertex -> the 2-bits of its neighbours in later factors
    masks = []
    for i, j in reversed(edges):
        masks.append((later[i], later[j]))
        later[i] |= 2 << 2 * (n - j)
        later[j] |= 2 << 2 * (n - i)
    masks.reverse()
    return masks


def _factor_order(g: Graph) -> tuple[Edge, ...]:
    """The edges of g in the order the sweep multiplies them: by
    descending deg(i) + deg(j), ties by descending edge."""
    return tuple(sorted(
        g.edges,
        key=lambda e: (g.degree(e[0]) + g.degree(e[1]), e),
        reverse=True,
    ))


def _sweep_signs(n, order, co, weights, collect, budget):
    """Sweep over sign assignments for the co-forest factors, sharing the
    expansion of the factors that the patterns have in common.

    order lists every factor (i, j) in the order they are multiplied, and
    co[k] tells whether order[k] is a co-forest factor, whose sign is
    swept; the others are forest factors, pinned to -1.  Each leaf is
    named by the index kappa of its pattern's representative (see
    _PatternSpace): weights[d] is the kappa of the d-th co-forest factor
    at +1 alone, so a leaf's kappa is the XOR of the weights of its +1
    edges.  Returns (passes, failures) where passes are (kappa, top,
    coefficient) triples, top the packed key of the leaf's lex-greatest
    monomial (top and coefficient are None without collect), and failures
    are bare kappas, both in the sign-tree order of the co-forest factors
    (the sign of the first varies slowest, -1 before +1).

    The sweep only ever expands prod (x_i + s x_j) over F_3 with every
    exponent capped at 2.  An exponent takes a 2-bit digit of a packed
    key, variable 1 the most significant one (variable v is shifted by
    2(n - v)), so numeric order on keys is lexicographic order on
    exponent vectors and a leaf's lex-greatest monomial is its largest
    key.  A map holds the products of w sign patterns at once: it takes
    each key to its two bit planes (ones, twos), bit p set in ones when
    the key's coefficient under pattern p is 1 and in twos when it is 2,
    and a key stays only while some pattern gives it a nonzero
    coefficient.  A forest factor keeps the map's width (_times).  A
    co-forest factor doubles it (_level): one pass over the keys
    multiplies every pattern by both signs and puts the +1 children above
    the -1 ones.

    The sign tree is walked in chunks of at most SLICE_DEPTH co-forest
    levels, depth first with an explicit stack of chunk roots, each a
    one-pattern map.  The top chunk takes what is left over, so every
    chunk below it is a full SLICE_DEPTH levels deep.  Within a chunk one
    map per factor holds every node of its level, so a factor costs one
    pass over its keys, not one per node, and no plane is wider than
    2^SLICE_DEPTH bits; the b-th co-forest factor of the chunk signs bit
    b of the pattern index.  At a chunk's end above the leaves, one pass
    over the last map's keys splits it into its one-pattern child roots.
    At the leaves, a pattern passes iff some key has its bit set, its top
    is the largest such key and its coefficient the plane that bit is in.
    The depth is bounded neither by the recursion limit nor, beyond one
    chunk's child roots per chunk level, by memory.

    The budget is charged one step per key of each map the sweep builds,
    in one tick per map: one per factor for each chunk.  A map of more
    than DEFAULT_MAX_TERMS keys raises ExpansionLimitError before its
    tick.  An empty map charges every sign-tree node from its level down
    in one tick, clipped to the budget, before it lists their leaves as
    failures, so a sweep that cannot pay for a dead subtree stops there;
    a budget that runs out stops at the tick of one map.

    A term is dead when a factor still to be multiplied has both ends at
    exponent 2.  Exponents only grow and that factor raises one of its
    ends, so no descendant of a dead term survives the cap: dropping dead
    terms as they arise leaves every leaf map, and so every verdict,
    monomial and coefficient, unchanged.  (This is the orientation view
    of Alon and Tarsi, "Colorings and orientations of graphs", 1992: each
    factor still to come orients its edge into one end, whose exponent
    must have room.)  No stored map holds a dead term, so a new term can
    only die at the end whose digit a shift takes from 1 to 2, along a
    later factor at that end; _dead_masks gives, per factor and end, the
    2-bits of the neighbours along the later factors, and _level and
    _times drop a key that meets them.  Whether a key is dead does not
    depend on the signs, so the test runs once per key per map.
    """
    dead = _dead_masks(n, order)
    depth = len(weights)
    passes = []
    failures = []
    # chunk roots: (next factor, co-forest factors before it, kappa, map)
    stack = [(0, 0, 0, {0: (1, 0)})]
    while stack:
        k, start, kappa, cur = stack.pop()
        end = min(depth, start + (depth - start - 1) % SLICE_DEPTH + 1)
        d = start
        w = 1
        for k in range(k, len(order)):
            i, j = order[k]
            if not co[k]:
                cur = _times(cur, i, j, n, *dead[k])
            elif d == end:
                break  # the chunk's end, above the leaves
            else:
                cur = _level(cur, w, i, j, n, *dead[k])
                w <<= 1
                d += 1
            _charge(cur, w, depth - d, budget)
            if not cur:
                break
        if not cur:  # every leaf below the chunk root fails
            failures.extend(_kappas(weights[start:], kappa))
            continue
        # the chunk's patterns in sign-tree order, with their kappas
        patterns = zip(_tree_order(d - start), _kappas(weights[start:d], kappa))
        if d < depth:
            roots = [{} for _ in range(w)]
            for key, (a, b) in cur.items():
                hit = a | b
                while hit:
                    bit = hit & -hit
                    roots[bit.bit_length() - 1][key] = (1, 0) if a & bit else (0, 1)
                    hit ^= bit
            # pushed last to first, so they pop in sign-tree order
            stack.extend((k, d, x, roots[p]) for p, x in reversed(list(patterns)))
            continue
        tops = [(None, None)] * w
        union = reduce(or_, chain.from_iterable(cur.values()))
        if collect:
            # each pattern's largest key: keys by descending value,
            # each taking the patterns no larger key has
            left = union
            for key in sorted(cur, reverse=True):
                a, b = cur[key]
                hit = (a | b) & left
                if hit:
                    left ^= hit
                    while hit:
                        bit = hit & -hit
                        tops[bit.bit_length() - 1] = (key, 1 if a & bit else 2)
                        hit ^= bit
                    if not left:
                        break
        for p, x in patterns:
            if union >> p & 1:
                passes.append((x, *tops[p]))
            else:
                failures.append(x)
    return passes, failures


class _PatternSpace:
    """The sign patterns a sweep reports on, in pattern-lex order, and the
    index arithmetic that takes each one to its forest-pinned
    representative and its switching (see certify_dp3).

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
    from bit dims[t] up, so a count of members per value of kappa >> d
    sizes any such block of y, which lets a sequence skip blocks and find
    its i-th member.
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
        self.is_free = [switched or e not in forest for e in g.edges]
        self.nbits = len(self.free)
        self.kap, self.sig, self.dims = [], [], [0]
        reduced = []  # (pivot bit, vector, its kappa), by descending pivot
        for k in reversed(self.free):
            mask, cut = below.get(g.edges[k], (0, 0))
            rep = 1 << (m - 1 - k) ^ cut
            kappa = 0
            for pivot, vec, vk in reduced:
                if rep >> pivot & 1:
                    rep ^= vec
                    kappa ^= vk
            if rep:  # a new coordinate: this bit's representative itself
                d = self.dims[-1]
                reduced.append((rep.bit_length() - 1, rep, kappa ^ 1 << d))
                reduced.sort(reverse=True)
                kappa = 1 << d
            self.kap.append(kappa)
            self.sig.append(mask)
            self.dims.append(self.dims[-1] + bool(rep))
        self.rank = self.dims[-1]
        # the same per edge slot, 0 on pinned slots
        self.slot_kap = [0] * m
        self.slot_sig = [0] * m
        for k, kappa, s in zip(reversed(self.free), self.kap, self.sig):
            self.slot_kap[k] = kappa
            self.slot_sig[k] = s
        self.block = min(self.nbits, self.BLOCK)
        self.split = self.free[self.nbits - self.block]
        self._tails = None

    def locate(self, pattern) -> tuple[int, int] | None:
        """(kappa of the representative, switching set S) of a sign tuple,
        None outside the domain."""
        if not isinstance(pattern, tuple) or len(pattern) != self.m:
            return None
        kappa = mask = 0
        for s, free, k, sg in zip(pattern, self.is_free, self.slot_kap, self.slot_sig):
            if free and s == 1:
                kappa ^= k
                mask ^= sg
            elif s != -1:
                return None
        return kappa, mask

    def signs(self, y: int) -> tuple[int, ...]:
        """The sign pattern of index y."""
        out = [-1] * self.m
        for t, k in enumerate(reversed(self.free)):
            if y >> t & 1:
                out[k] = 1
        return tuple(out)

    def tails(self):
        """(signs from edge `split` on, kappa, S) of each of the low
        `block` bits' values, in order."""
        if self._tails is None:
            low = self.free[self.nbits - self.block:]
            self._tails = []
            for bits in product((-1, 1), repeat=self.block):
                tail = [-1] * (self.m - self.split)
                for k, s in zip(low, bits):
                    tail[k - self.split] = s
                tail = tuple(tail)
                self._tails.append((tail, *self.locate((-1,) * self.split + tail)))
        return self._tails


class PatternSequence(Sequence):
    """The sign patterns (or their certificates) whose representative is
    a member, in pattern-lex order, built on demand.

    payload[kappa] is None for a representative that is not a member;
    make(pattern, S, payload[kappa]) builds the item of a member pattern.
    len is O(1) and `in` O(|E|); indexing and slicing walk down to the
    wanted block, and iteration streams block by block.  A sequence
    compares equal to the tuple of its items.
    """

    def __init__(self, space: _PatternSpace, payload: list, make):
        self._space = space
        self._payload = payload
        self._make = make
        members = len(payload) - payload.count(None)
        self._len = members << (space.nbits - space.rank)

    def __len__(self) -> int:
        return self._len

    @cached_property
    def _counts(self):
        """counts[d][h]: the members whose kappa >> d is h."""
        counts = [[p is not None for p in self._payload]]
        while len(counts[-1]) > 1:
            c = counts[-1]
            counts.append(list(map(add, c[::2], c[1::2])))
        return counts

    def _items(self, skip: int):
        """The items from position `skip` on."""
        space, payload, counts, make = self._space, self._payload, self._counts, self._make
        dims, kap, sig = space.dims, space.kap, space.sig
        # (t, y, kappa(y), S(y)): the block of indices that agree with y
        # above its low t bits, which are 0 in y
        stack = [(space.nbits, 0, 0, 0)]
        while stack:
            t, y, kappa, mask = stack.pop()
            d = dims[t]
            size = counts[d][kappa >> d] << (t - d)
            if size <= skip:
                skip -= size
            elif t > space.block:
                t -= 1
                stack.append((t, y | 1 << t, kappa ^ kap[t], mask ^ sig[t]))
                stack.append((t, y, kappa, mask))
            else:
                head = space.signs(y)[:space.split]
                for tail, k, s in space.tails():
                    data = payload[kappa ^ k]
                    if data is None:
                        continue
                    if skip:
                        skip -= 1
                    else:
                        yield make(head + tail, mask ^ s, data)

    def __iter__(self):
        return self._items(0)

    def __getitem__(self, i):
        if isinstance(i, slice):
            r = range(*i.indices(self._len))
            if r.step < 0:  # the same items, read forwards
                return self[r[-1]:r[0] + 1:-r.step][::-1] if r else ()
            return tuple(islice(self._items(r.start), 0, len(r) * r.step, r.step))
        i = index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("pattern index out of range")
        return next(self._items(i))

    def __contains__(self, item) -> bool:
        pattern = getattr(item, "pattern", item)
        found = self._space.locate(pattern)
        if found is None:
            return False
        kappa, mask = found
        data = self._payload[kappa]
        return data is not None and self._make(pattern, mask, data) == item

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
    collect_certificates: bool = True,
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

    Nothing is materialised per pattern.  With edge 0 as the most
    significant bit and +1 as 1, a pattern's lex index x names its
    switching set S = {v : sigma_v = -1} by walking each tree from its
    root: v is in S iff (v's parent is in S) XOR (x's bit on the edge to
    the parent).  x XOR cut(S), cut(S) the edges with exactly one end in
    S, is its representative, whose forest bits are all zero.  By the
    rule above, x's coefficient at a is the representative's, negated
    when the edges whose lower end is in S and the v in S with a_v odd
    are odd in number together.

    The result's `certificates` and `failure.failing_patterns` are lazy
    PatternSequence views in pattern-lex order over the representatives'
    verdicts: items are built when read, iteration streams them, len and
    `in` use the arithmetic above, and each view compares equal to the
    tuple of its items.  Memory does not grow with 2^|E|.  The sweep
    charges the budget one step per key of each map it stores: one map
    per factor for each chunk of the sign tree, a key holding its
    coefficients under all of the chunk level's patterns.  An empty map
    charges every node from its level down instead, in one tick clipped
    to the budget.  A term with an edge still to be multiplied whose two
    ends are both at exponent 2 has no descendant within the cap, so it
    is dropped without changing any result (see _sweep_signs).  The
    switch then charges 2^(|V|-c) per representative switched, that is
    per failing one and, with collect_certificates, per passing one, in
    one tick that stops where one tick per representative would.

    The sweep names each leaf by its representative's index kappa in the
    _PatternSpace of the mode, built before the sweep.  The representative
    fixes the forest edges at -1 in both modes, so its kappa is the XOR
    of slot_kap over its co-forest edges at +1, and the result is stored
    at certs[kappa] or fails[kappa] directly.  The sign tree is walked in
    chunks of at most SLICE_DEPTH co-forest levels, each expanded one
    factor at a time for all of a level's nodes at once, each key holding
    its coefficients under all of the level's sign patterns as two bit
    planes (see _sweep_signs).  A budget that runs out stops at the tick
    of one stored map: a whole chunk level's.

    The sweep multiplies every edge in the order of _factor_order: by
    descending deg(i) + deg(j), ties by descending edge, forest and
    co-forest edges alike.  A forest edge keeps the width of the map it
    multiplies and a co-forest edge doubles it.  On C_13^2 in
    spanning-tree mode that order stores 36,088 keys, against 60,884
    with the forest edges first and 39,261 in edge order.  The order
    cannot change a result, only the steps and the time: each leaf map
    is the whole product with its exponents capped at 2, whatever order
    the factors come in; each representative's verdict is stored at its
    kappa, which follows its edges' signs, not its place in the sweep;
    and the dead-term masks are built from the factors in the order they
    are multiplied.

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

    passes, failures = _sweep_signs(
        g.n, order, co, weights, collect_certificates, budget
    )

    mode = "spanning-tree" if use_spanning_tree else "all-edges"
    reps = (len(passes) if collect_certificates else 0) + len(failures)
    if not use_spanning_tree and reps:
        # one tick that stops where one tick per representative would: at
        # the first multiple of `switchings` that reaches the limit
        switchings = 1 << (space.nbits - space.rank)
        room = budget.limit - budget.spent
        budget.tick(switchings * min(reps, max(1, -(-room // switchings))))

    lower = 0  # vertex v at bit v - 1: the parity of the edges it is the lower end of
    for i, _ in g.edges:
        lower ^= 1 << (i - 1)
    certs = [None] * (1 << space.rank)
    fails = [None] * (1 << space.rank)
    shifts = range(2 * (g.n - 1), -1, -2)
    unpacked = {}  # top key -> (monomial, flip)
    for kappa, top, coeff in passes if collect_certificates else ():
        found = unpacked.get(top)
        if found is None:
            mono = tuple(top >> shift & 3 for shift in shifts)
            odd = sum(1 << v for v, a in enumerate(mono) if a & 1)
            found = unpacked[top] = (mono, lower ^ odd)
        certs[kappa] = (found[0], coeff, found[1])
    for kappa in failures:
        fails[kappa] = True

    patterns_tested = 1 << space.nbits
    failure = None
    if failures:
        failure = FailureReport(mode, PatternSequence(space, fails, _bare), patterns_tested)
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
    sets = {}
    for v in range(1, g.n + 1):
        if v not in lists or not lists[v]:
            raise PreconditionError(f"missing or empty list at vertex {v}")
        pts = tuple(sorted(set(lists[v])))
        for c in pts:
            fld.check(c)
        sets[v] = pts
    total = sum(len(sets[v]) for v in sets)
    if total != g.n + len(g.edges):
        raise PreconditionError(
            f"list sizes sum to {total}, need |V| + |E| = {g.n + len(g.edges)}"
        )
    cov = cover_from_lists(g, sets, t)
    colorings = list(islice(transversals(cov), 2))
    if len(colorings) != 1:
        raise PreconditionError(
            f"need exactly one proper list coloring, found "
            f"{'none' if not colorings else 'several'}"
        )
    point = colorings[0]
    poly = from_graph(g, fld)
    grid = Grid(fld, tuple(sets[v] for v in range(1, g.n + 1)))
    coeff = grid.coefficient(poly)
    # the grid sum collapses to the unique coloring's term
    n_inv = 1
    for pos, tbl in enumerate(grid.weight_tables()):
        n_inv = fld.mul(n_inv, fld.inv(tbl[point[pos]]))
    single = fld.mul(n_inv, poly.evaluate(point))
    if coeff != single:
        raise MethodDisagreement(f"grid sum {coeff} != single-point value {single}")
    assert coeff != 0
    monomial = tuple(len(sets[v]) - 1 for v in range(1, g.n + 1))
    return Certificate(
        kind="unique-list",
        t=t,
        n=g.n,
        monomial=monomial,
        coefficient=coeff,
        witness=point,
        verified=is_valid_transversal(cov, point),
        work={"grid_points": math.prod(len(sets[v]) for v in sets)},
    )


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
    sorted_g = relabel(g, xs + ys)
    gp = cone(sorted_g)
    fld = make_field(3)
    poly = from_graph(gp, fld)
    target = (0,) + (2,) * sorted_g.n
    coeff = coefficient_at(poly, target, method="both")
    m = len(xs)
    expected = 2 if m % 2 == 0 else 1  # 2 * (-1)^m in F_3
    if coeff != expected:
        raise AssertionError(f"coefficient {coeff} != closed form {expected}")
    return Certificate(
        kind="cone-bipartite",
        t=3,
        n=gp.n,
        monomial=target,
        coefficient=coeff,
        work={"part_size": m},
    )


_CONGRUENCES = ((2, (1, 3), 0), (3, (1, 2), 1), (1, (2, 3), 2))


def certify_cone_unique3(g: Graph, class_order: tuple[int, int, int] | None = None) -> Certificate:
    """For uniquely 3-colorable g with 2|V| = |E| whose class sizes n_i and
    cross-edge counts m_{i,j} satisfy n_2 + m_{1,3} = 0, n_3 + m_{1,2} = 1
    and n_1 + m_{2,3} = 2 (mod 3) under some ordering of the classes: the
    cone K_1 + g has top coefficient 1 over F_4 for the monomial with
    exponent 0 on the apex and 3 elsewhere, so every good prime cover of
    order 4 with one apex label and four labels elsewhere is colorable.

    class_order, when given, pins which stored class plays each role
    (0-based indices into the unique partition); otherwise all six
    assignments are tried.
    """
    stats = unique_k_analysis(g, 3)
    if 2 * g.n != len(g.edges):
        raise PreconditionError(f"need 2|V| = |E|, got 2*{g.n} != {len(g.edges)}")
    orders = [class_order] if class_order is not None else [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    ]
    chosen = None
    last_failures = []
    for order in orders:
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
    fld = make_field(4)
    gp = cone(g)
    poly = from_graph(gp, fld)
    target = (0,) + (3,) * g.n
    coeff = coefficient_at(poly, target, method="both")
    if coeff != 1:
        raise AssertionError(f"coefficient {coeff} != closed form 1")
    return Certificate(
        kind="cone-unique3",
        t=4,
        n=gp.n,
        monomial=target,
        coefficient=coeff,
        work={"class_order": chosen},
    )


# ---------------------------------------------------------------------------
# bounds report

# without max_m, dp_chromatic_bounds runs the exact search on a component
# when it would walk at most this many covers (sum of m!^cotree over the open
# range of m).  The search walks only about one cover per conjugation orbit,
# but the estimate still counts every cover, so the components it settles,
# and their notes, stay the same.
EXACT_SEARCH_COVERS = 20_000


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
    would walk at most EXACT_SEARCH_COVERS covers.
    """
    if g.n == 0:
        raise PreconditionError("the graph must have at least one vertex")
    budget = ensure_budget(budget, 100_000_000, "bounding chi_DP")
    lower = 1
    upper = 1
    notes = []
    comps = g.components()
    for ci, comp in enumerate(comps, start=1):
        # a connected graph is its own component: no copy, and its cached
        # adjacency and forest are reused
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
                estimate = sum(math.factorial(m) ** cotree for m in range(lo, up))
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
