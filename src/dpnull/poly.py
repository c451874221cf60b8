"""Edge-product polynomials over F_t and their coefficient extraction.

A polynomial here is a product of factors (x_i + b*x_j - beta) with
b in {+1, -1}, one factor per edge of a graph (b = -1, beta = 0 gives the
plain graph polynomial prod (x_i - x_j)).  Coefficients of target monomials
are computed by two independent routes:

* sparse expansion: distribute factors over a map from exponent vectors to
  coefficients, discarding exponents that exceed per-variable caps (sound,
  exponents only grow), and stopping once the map is empty.  A read of
  one coefficient, of x^T, also drops every term that can no longer reach
  T: a term whose exponent e_v, plus one for each factor still to come at
  v, falls short of T_v (the counting side of Alon and Tarsi's
  orientation view).  Its map ends as {T: c} or empty;
* grid sum: the quantitative form of the Combinatorial Nullstellensatz,
  coefficient = sum over a product grid of N(p)^{-1} * f(p) where N is the
  product of pairwise differences within each coordinate's point set.
  The grid is walked one coordinate at a time; a factor vanishes as soon
  as its later-fixed variable is fixed to a root of it, and the whole
  block of completions below that partial point, all zeros of f, is
  skipped.  The sum fixes the variables in maximum-cardinality order, so
  that most levels close a factor.  The budget is still charged one step
  per grid point, visited or skipped.

Exponent maps are keyed by packed base-16 digits (each exponent < 16),
x_1's the most significant, so keys compare as their exponent vectors do
in lex order.

The Nullstellensatz certificate needs the lex-greatest monomial within
caps with a nonzero coefficient.  It is read by a lex-first walk of the
offset-free expansion: the factors go in (i, j) order, and at the end of
each block (v, .) a map of more than SPLIT_TERMS terms is split by the
leading exponents that no later factor changes, the greatest prefix
expanded first, so the first map to outlive the last factor holds the
answer (see `find_qualifying_monomial`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from .budget import Budget, ensure_budget
from .errors import MethodDisagreement, PreconditionError
from .ff import FieldSpec
from .graphs import Graph, GraphError, Orientation

PACK_BITS = 4
PACK_MASK = 15
DEFAULT_MAX_TERMS = 2_000_000
# find_qualifying_monomial splits a map only when it holds more terms than
# this: each part of a split costs one kernel call per later factor, and on
# a smaller map those calls cost more than the terms a split can save.
SPLIT_TERMS = 16


class ExpansionLimitError(RuntimeError):
    """The sparse exponent map outgrew its size limit."""

    def __init__(self, size: int, limit: int):
        super().__init__(f"expansion map reached {size} terms (limit {limit})")
        self.size = size
        self.limit = limit


@dataclass(frozen=True)
class Factor:
    """One factor x_i + sign*x_j - beta with 1-based i < j, sign in {+1, -1}."""

    i: int
    j: int
    sign: int = -1
    beta: int = 0

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise PreconditionError(f"factor sign must be +/-1, got {self.sign}")
        if not self.i < self.j:
            raise PreconditionError(f"factor needs i < j, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class EdgeProductPolynomial:
    field: FieldSpec
    n: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        for f in self.factors:
            if not (1 <= f.i < f.j <= self.n):
                raise PreconditionError(f"factor ({f.i}, {f.j}) references bad variables")
            self.field.check(f.beta)

    @property
    def degree(self) -> int:
        return len(self.factors)

    def evaluate(self, point) -> int:
        """Value at a point of F_t^n (point is indexed 0..n-1)."""
        fld = self.field
        t = fld.order
        mul = fld.mul_table
        add = fld.add_table
        neg = fld.neg_table
        out = 1
        for f in self.factors:
            xj = point[f.j - 1]
            term = add[point[f.i - 1] * t + (xj if f.sign > 0 else neg[xj])]
            term = add[term * t + neg[f.beta]]
            if term == 0:
                return 0
            out = mul[out * t + term]
        return out


def from_graph(
    g: Graph,
    field: FieldSpec,
    signs: dict | None = None,
    offsets: dict | None = None,
) -> EdgeProductPolynomial:
    """Edge-product polynomial of g, factors in the graph's (i<j, lex) edge
    order.  Defaults sign = -1 and beta = 0 give the graph polynomial; when
    given, `signs`/`offsets` must cover exactly E(g)."""
    for given, label in ((signs, "signs"), (offsets, "offsets")):
        if given is not None and set(given) != set(g.edges):
            raise GraphError(f"{label} must cover exactly the edge set of the graph")
    factors = []
    for e in g.edges:
        s = signs[e] if signs is not None else -1
        b = offsets[e] if offsets is not None else 0
        factors.append(Factor(e[0], e[1], s, field.check(b)))
    return EdgeProductPolynomial(field, g.n, tuple(factors))


# ---------------------------------------------------------------------------
# packed exponent helpers

def pack_exponents(exps) -> int:
    key = 0
    for e in exps:
        if e < 0 or e > PACK_MASK:
            raise PreconditionError(f"exponent {e} out of the packed range 0..{PACK_MASK}")
        key = key << PACK_BITS | e
    return key


def unpack_exponents(key: int, n: int) -> tuple[int, ...]:
    return tuple(key >> PACK_BITS * (n - 1 - pos) & PACK_MASK for pos in range(n))


def apply_factor_packed(
    cur: dict[int, int],
    factor: Factor,
    caps,
    field: FieldSpec,
    floor_i: int = 0,
    floor_j: int = 0,
) -> dict[int, int]:
    """Distribute one factor over a packed exponent map, dropping exponents
    that exceed caps.  A child is also dropped when an end of the factor
    that it did not raise has an exponent below that end's floor: the x_i
    child checks x_j against floor_j, the x_j child x_i against floor_i,
    and the offset child both.  Floors of 0 keep every child within caps.
    Stored coefficients are always nonzero; a map of more than
    DEFAULT_MAX_TERMS terms raises ExpansionLimitError."""
    t = field.order
    addt = field.add_table
    mult = field.mul_table
    si = PACK_BITS * (len(caps) - factor.i)
    sj = PACK_BITS * (len(caps) - factor.j)
    cap_i = caps[factor.i - 1]
    cap_j = caps[factor.j - 1]
    inc_i = 1 << si
    inc_j = 1 << sj
    sign_elt = 1 if factor.sign > 0 else field.neg_table[1]
    neg_beta = field.neg_table[factor.beta]
    out: dict[int, int] = {}
    get = out.get
    for key, c in cur.items():
        ei = (key >> si) & PACK_MASK
        ej = (key >> sj) & PACK_MASK
        if ei < cap_i and ej >= floor_j:
            k = key + inc_i
            v = get(k, 0)
            s = addt[v * t + c]
            if s:
                out[k] = s
            elif v:
                del out[k]
        if ej < cap_j and ei >= floor_i:
            cj = mult[sign_elt * t + c]
            k = key + inc_j
            v = get(k, 0)
            s = addt[v * t + cj]
            if s:
                out[k] = s
            elif v:
                del out[k]
        if neg_beta and ei >= floor_i and ej >= floor_j:
            cb = mult[neg_beta * t + c]
            v = get(key, 0)
            s = addt[v * t + cb]
            if s:
                out[key] = s
            elif v:
                del out[key]
    if len(out) > DEFAULT_MAX_TERMS:
        raise ExpansionLimitError(len(out), DEFAULT_MAX_TERMS)
    return out


def _check_caps(poly: EdgeProductPolynomial, caps) -> None:
    if len(caps) != poly.n:
        raise PreconditionError(f"caps must have length {poly.n}")
    if max(caps, default=0) > PACK_MASK:
        # a larger exponent would carry into the next variable's packed slot
        raise PreconditionError(
            f"cap {max(caps)} exceeds the packed exponent range 0..{PACK_MASK}"
        )


def _floors(factors, target, n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """For each factor (i, j), target_i and target_j less the factors after
    it at i and at j: the least exponents a term must have at its ends for
    the factors still to come to raise them to the target.  Also each
    variable's degree, the number of factors at it."""
    rest = [0] * n  # factors after the k-th at each variable
    floors = [(0, 0)] * len(factors)
    for k in range(len(factors) - 1, -1, -1):
        i = factors[k].i - 1
        j = factors[k].j - 1
        floors[k] = target[i] - rest[i], target[j] - rest[j]
        rest[i] += 1
        rest[j] += 1
    return floors, rest


def expand_packed(
    poly: EdgeProductPolynomial,
    caps,
    budget: Budget | None = None,
    *,
    exact: bool = False,
) -> dict[int, int]:
    """Packed exponent map of poly, factor by factor in product order.

    By default the map holds every term of poly within caps, each with
    its nonzero coefficient.  With exact=True the caps are a target T,
    and the map is {T: c} with c the coefficient of x^T, or empty when
    c = 0.  The exact read keeps only terms that can still reach T: with
    r_v the number of factors still to come at v, a term survives a
    factor only if e_v >= T_v - r_v at both of the factor's ends.  Each
    factor raises e_v by at most one, so a term that fails this never
    reaches T; the offsets only lower degrees, so the cut holds for any
    beta.  When some T_v exceeds the degree of v, the map is empty from
    the start.

    The budget is charged one step per key of each map a factor is
    applied to.  Once the map is empty, the remaining factors are charged
    one step each in a single charge and the expansion stops, so an empty
    map spends what applying those factors to it one by one would."""
    _check_caps(poly, caps)
    budget = ensure_budget(budget, 500_000_000, "expanding an edge-product polynomial")
    factors = poly.factors
    floors = [(0, 0)] * len(factors)
    cur = {0: 1}
    if exact:
        floors, degrees = _floors(factors, caps, poly.n)
        if any(c > d for c, d in zip(caps, degrees)):
            cur = {}
    for k, f in enumerate(factors):
        if not cur:
            budget.tick(len(factors) - k)
            break
        budget.tick(len(cur))
        cur = apply_factor_packed(cur, f, caps, poly.field, *floors[k])
    return cur


def find_qualifying_monomial(
    poly: EdgeProductPolynomial,
    caps,
    budget: Budget | None = None,
) -> tuple[tuple[int, ...], int] | None:
    """Lexicographically greatest exponent vector within caps whose total
    degree equals deg(poly) and whose coefficient is nonzero, with that
    coefficient; None when no such monomial exists.

    The offsets beta only feed lower degrees, so the top-degree
    coefficients of prod (x_i + s*x_j - beta) are those of the offset-free
    prod (x_i + s*x_j).  That product is homogeneous of degree deg(poly),
    and every term of it within caps qualifies; the walk finds the
    greatest one without expanding the whole product.

    The factors are multiplied in (i, j) order, one block (v, .) after
    another.  Once block (v, .) is done, no later factor touches x_1..x_v,
    nor any x_u with v < u < w, for w the i of the next block: those
    exponents are final, and keys that differ in one of them never merge
    again.  So at the end of each block a map of more than SPLIT_TERMS
    terms is split: the keys with the greatest prefix x_1..x_{w-1} go on,
    and the rest wait on a stack, as one map, to be split again at the
    end of a later block.  x_1's digit is the most significant, so every
    key a branch can still produce is greater than every key of the maps
    still waiting, and the first branch that has terms left after the
    last factor holds the answer: its greatest key.  A branch whose map
    empties is dropped and the last map pushed goes on; when every map
    empties, the answer is None.  A smaller map goes on whole: when no
    term outlives the last factor, every branch is expanded anyway, and
    splitting small maps would only add kernel calls.

    Every term has degree deg(poly), so with slack = sum(caps) - deg(poly)
    each final exponent is at least caps_v - slack; terms that can no
    longer reach that are dropped, as in the exact read of
    `expand_packed`, and a negative slack leaves no term at all.

    The budget is charged one step per key of each map a factor is
    applied to, as the walk goes.  Each such map holds part of the
    whole-product map at that factor, in the same factor order, and no
    key of it is in another map of the walk there, so the walk never
    charges more than expanding the whole product in (i, j) order would."""
    _check_caps(poly, caps)
    budget = ensure_budget(budget, 500_000_000, "expanding an edge-product polynomial")
    n = poly.n
    m = poly.degree
    slack = sum(caps) - m
    if slack < 0:
        return None
    factors = [f if not f.beta else Factor(f.i, f.j, f.sign)
               for f in sorted(poly.factors, key=attrgetter("i", "j"))]
    floors, _ = _floors(factors, [c - slack for c in caps], n)
    # shifts[k]: when factor k closes a block and factor k + 1 opens block
    # (w, .), a key shifted down this far is its prefix x_1..x_{w-1}
    shifts = [PACK_BITS * (n + 1 - g.i) if f.i != g.i else 0
              for f, g in zip(factors, factors[1:])] + [0]
    stack = [(0, {0: 1})]
    while stack:
        k, cur = stack.pop()
        for k in range(k, m):
            budget.tick(len(cur))
            cur = apply_factor_packed(cur, factors[k], caps, poly.field, *floors[k])
            if not cur:
                break
            shift = shifts[k]
            if shift and len(cur) > SPLIT_TERMS:
                top = max(cur) >> shift << shift  # the least key of the greatest prefix
                if min(cur) < top:
                    stack.append((k + 1, {key: c for key, c in cur.items() if key < top}))
                    cur = {key: c for key, c in cur.items() if key >= top}
        else:
            key = max(cur)
            return unpack_exponents(key, n), cur[key]
    return None


# ---------------------------------------------------------------------------
# grid-sum coefficient extraction

@dataclass(frozen=True)
class Grid:
    """Per-variable point sets P_1..P_n with the weight N(p) = prod of
    pairwise differences within each coordinate's set."""

    field: FieldSpec
    point_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for pos, pts in enumerate(self.point_sets):
            if not pts:
                raise PreconditionError(f"grid point set {pos + 1} is empty")
            if len(set(pts)) != len(pts):
                raise PreconditionError(f"grid point set {pos + 1} repeats an element")
            for p in pts:
                self.field.check(p)

    @classmethod
    def for_target(cls, field: FieldSpec, target) -> "Grid":
        """Default grid: the first target_i + 1 field elements per variable."""
        sets = []
        for pos, ti in enumerate(target):
            if ti + 1 > field.order:
                raise PreconditionError(
                    f"target exponent {ti} at variable {pos + 1} needs {ti + 1} grid "
                    f"points but F_{field.order} has only {field.order}; "
                    "use the expand method instead"
                )
            sets.append(tuple(range(ti + 1)))
        return cls(field, tuple(sets))

    def weight_tables(self) -> list[dict[int, int]]:
        """Per coordinate: point -> prod over other points eps of (point - eps).
        Coordinates with equal point sets share one table."""
        # the points were checked at construction, so the raw tables serve
        t = self.field.order
        mul = self.field.mul_table
        add = self.field.add_table
        neg = self.field.neg_table
        tables = []
        seen = {}
        for pts in self.point_sets:
            tbl = seen.get(pts)
            if tbl is None:
                tbl = seen[pts] = {}
                for p in pts:
                    w = 1
                    for eps in pts:
                        if eps != p:
                            w = mul[w * t + add[p * t + neg[eps]]]
                    tbl[p] = w
            tables.append(tbl)
        return tables

    def coefficient(self, poly: EdgeProductPolynomial, budget: Budget | None = None) -> int:
        """Coefficient of prod x_i^{d_i} (d_i = |P_i| - 1) in poly, which must
        have degree at most sum d_i.

        The sum fixes the variables in maximum-cardinality order (see
        `_walk_order`), so that most levels close a factor.  Each factor
        belongs to whichever of its ends is fixed later: once both are
        fixed, a factor x_i + s*x_j - beta that is 0 at the partial point
        makes the whole block of its completions skipped.  The budget is
        charged prod |P_i|, one step per grid point, in a single charge
        before the walk, so `Budget.spent` grows exactly as in a
        point-by-point sum and an exhausted budget stops at its limit."""
        if len(self.point_sets) != poly.n:
            raise PreconditionError("grid and polynomial disagree on variable count")
        n = poly.n
        room = sum(map(len, self.point_sets)) - n  # sum d_i
        if poly.degree > room:
            raise PreconditionError(
                f"polynomial degree {poly.degree} exceeds the grid degree sum {room}"
            )
        budget = ensure_budget(budget, 500_000_000, "summing over a coefficient grid")
        budget.tick(math.prod(map(len, self.point_sets)))
        if n == 0:
            return 1
        levels, flips = _levels(self, poly, _walk_order(poly))
        t = self.field.order
        mul = self.field.mul_table
        add = self.field.add_table
        total = 0
        leaf = levels[-1]
        if n == 1:  # no factors: the sum of the inverse weights
            for _, w, _ in leaf:
                total = add[total * t + w]
            return total
        above = n - 2  # the level whose points the last level completes
        point = [0] * n
        value = [1] * n  # value[j]: running value before level j's choice
        rest = [iter(levels[0])] + [None] * above  # rest[j]: level j's untried points
        j = 0
        while j >= 0:
            for p, w, rows in rest[j]:
                v = mul[value[j] * t + w]
                for i, c in rows:
                    x = add[point[i] * t + c]
                    if not x:
                        break
                    v = mul[v * t + x]
                else:
                    point[j] = p
                    if j < above:
                        j += 1
                        value[j] = v
                        rest[j] = iter(levels[j])
                        break
                    # every point of the last level that survives its
                    # factors is a term of the sum
                    for _, w, rows in leaf:
                        u = mul[v * t + w]
                        for i, c in rows:
                            x = add[point[i] * t + c]
                            if not x:
                                break
                            u = mul[u * t + x]
                        else:
                            total = add[total * t + u]
            else:
                j -= 1
        return self.field.neg_table[total] if flips & 1 else total


def _walk_order(poly: EdgeProductPolynomial) -> list[int]:
    """The variables (0-based) in maximum-cardinality order (Tarjan and
    Yannakakis, 1984): each next variable has the most factors into the
    variables already placed, ties going to the lowest index.

    A bucket queue keeps the unplaced variables by that count; each
    bucket is a bit set, so the lowest index of the top bucket is its
    lowest set bit.  Placing a variable moves each of its factors' other
    ends up one bucket, so the walk makes O(n + m) bucket moves, each one
    operation on an int of at most n bits."""
    n = poly.n
    nbrs = [[] for _ in range(n)]
    for f in poly.factors:
        i = f.i - 1
        j = f.j - 1
        nbrs[i].append(j)
        nbrs[j].append(i)
    count = [0] * n  # factors into placed variables; -1 once placed
    buckets = [(1 << n) - 1]
    top = 0
    order = []
    for _ in range(n):
        b = buckets[top]
        while not b:
            top -= 1
            b = buckets[top]
        bit = b & -b
        buckets[top] = b ^ bit
        v = bit.bit_length() - 1
        count[v] = -1
        order.append(v)
        for u in nbrs[v]:
            c = count[u]
            if c >= 0:
                bit = 1 << u
                buckets[c] ^= bit
                c += 1
                count[u] = c
                if c < len(buckets):
                    buckets[c] |= bit
                else:
                    buckets.append(bit)
                if c > top:
                    top = c
    return order


def _levels(grid: Grid, poly: EdgeProductPolynomial, order) -> tuple[list, int]:
    """Per-level point tables for a walk that fixes the variables in
    `order` (0-based), and the number of factors that contribute a -1.

    levels[k][r] is (p, inverse weight of p, ((l, c), ...)) for the r-th
    point p of the variable fixed at level k, where x + c, with x the
    point fixed at the earlier level l, is the value of one factor whose
    later end that variable is.  Fixing the later end x_i of a factor
    x_i - x_j - beta gives -(x_j + beta - p): that -1 is counted once,
    not multiplied in per point."""
    fld = grid.field
    t = fld.order
    add = fld.add_table
    neg = fld.neg_table
    level_of = [0] * len(order)
    attached = []
    for k, v in enumerate(order):
        level_of[v] = k
        attached.append([])
    flips = 0
    for f in poly.factors:
        a, b = level_of[f.i - 1], level_of[f.j - 1]
        if a < b:  # x_j is fixed later, to p: x_i + s*p - beta
            attached[b].append((a, f.sign, neg[f.beta]))
        elif f.sign > 0:  # x_i is fixed later: p + x_j - beta
            attached[a].append((b, 1, neg[f.beta]))
        else:  # p - x_j - beta = -(x_j - p + beta)
            attached[a].append((b, -1, f.beta))
            flips += 1
    inv = fld.inv_table
    weights = grid.weight_tables()
    levels = []
    for k, v in enumerate(order):
        row_of = []
        for p, w in weights[v].items():
            rows = []
            for l, s, c in attached[k]:
                rows.append((l, add[(p if s > 0 else neg[p]) * t + c]))
            row_of.append((p, inv[w], tuple(rows)))
        levels.append(row_of)
    return levels, flips


def coefficient_at(
    poly: EdgeProductPolynomial,
    target,
    method: str = "both",
    budget: Budget | None = None,
) -> int:
    """Coefficient of prod x_i^{target_i} by 'expand', 'grid', or 'both'.

    A target_i outside the packed range 0..PACK_MASK is rejected before
    either route runs; no field has more than PACK_MASK + 1 elements, so
    the grid route could not take it either.  The expand route is the
    exact read of `expand_packed`, which keeps only the terms that can
    still reach the target.  The grid route also needs sum(target) ==
    deg(poly) and target_i + 1 <= t, which 'both' checks before the
    expand route runs; 'both' cross-checks the two routes and raises on
    disagreement.
    """
    target = tuple(target)
    if len(target) != poly.n:
        raise PreconditionError(f"target must have length {poly.n}")
    for pos, e in enumerate(target, start=1):
        if e < 0:
            raise PreconditionError(f"target exponent {e} at variable {pos} is negative")
        if e > PACK_MASK:
            raise PreconditionError(
                f"target exponent {e} at variable {pos} exceeds the packed "
                f"exponent range 0..{PACK_MASK}"
            )
    if method not in ("expand", "grid", "both"):
        raise PreconditionError(f"unknown method {method!r}")
    if method != "expand":  # refuse before either route spends the budget
        if sum(target) != poly.degree:
            raise PreconditionError(
                f"grid method needs sum(target) == degree ({poly.degree}), "
                f"got {sum(target)}"
            )
        grid = Grid.for_target(poly.field, target)
    results = {}
    if method != "grid":
        packed = expand_packed(poly, target, budget, exact=True)
        results["expand"] = packed.get(pack_exponents(target), 0)
    if method != "expand":
        results["grid"] = grid.coefficient(poly, budget)
    if method == "both" and results["expand"] != results["grid"]:
        raise MethodDisagreement(
            f"expand gave {results['expand']} but grid gave {results['grid']} "
            f"for target {target}"
        )
    return results[method if method != "both" else "expand"]


# ---------------------------------------------------------------------------
# circulation counting

def alon_tarsi_diff(orientation: Orientation, budget: Budget | None = None) -> int:
    """|# even - # odd| circulations (spanning subdigraphs with in-degree
    equal to out-degree everywhere), by a Gray-code walk over edge subsets
    with incremental degree deltas."""
    arcs = orientation.arcs()
    m = len(arcs)
    if m > 30:
        raise PreconditionError(f"{m} edges is beyond the 2^m circulation sweep")
    budget = ensure_budget(budget, 200_000_000, "enumerating circulations")
    n = orientation.graph.n
    balance = [0] * (n + 1)
    unbalanced = 0
    in_set = [False] * m
    even = 1  # the empty circulation
    odd = 0
    size = 0
    for step in range(1, 1 << m):
        budget.tick()
        e = (step & -step).bit_length() - 1
        tail, head = arcs[e]
        delta = -1 if in_set[e] else 1
        in_set[e] = not in_set[e]
        size += delta
        for v, d in ((tail, delta), (head, -delta)):
            was = balance[v]
            balance[v] = was + d
            if was == 0:
                unbalanced += 1
            elif balance[v] == 0:
                unbalanced -= 1
        if unbalanced == 0:
            if size % 2 == 0:
                even += 1
            else:
                odd += 1
    return abs(even - odd)
