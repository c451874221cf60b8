"""Coefficient extraction: worked examples, cross-method properties, and the
circulation-count identity against an integer-expansion oracle."""
import math
import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dpnull.budget import Budget, BudgetExceeded
from dpnull.errors import PreconditionError
from dpnull.ff import make_field
from dpnull import cover as C
from dpnull import graphs as G
from dpnull import poly as P

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(4)


def expand_coefficients(poly, caps, budget=None):
    """Every monomial within caps with its nonzero coefficient, unpacked."""
    packed = P.expand_packed(poly, caps, budget)
    return {P.unpack_exponents(k, poly.n): v for k, v in packed.items()}


def lex_first_walk(poly, caps):
    """(answer, steps) of the lex-first walk, written here over exponent
    tuples with the field's own add and neg.  The offset-free factors go
    in (i, j) order, ties in their given order; a child within caps is
    kept unless the end of the factor it did not raise, plus the factors
    after this one at that end, falls short of caps - slack there
    (slack = sum(caps) - degree).  Each map a factor is applied to costs
    one step per term.  At the end of each block (v, .) a map of more
    than P.SPLIT_TERMS terms splits into its terms with the greatest
    prefix x_1..x_{w-1}, for w the next block's i, which go on, and the
    rest, which wait as one map; the first map to outlive the last factor
    holds the answer, its greatest term."""
    fld = poly.field
    n = poly.n
    factors = sorted(((f.i - 1, f.j - 1, f.sign) for f in poly.factors), key=lambda f: f[:2])
    m = len(factors)
    slack = sum(caps) - m
    if slack < 0:
        return None, 0
    steps = 0
    stack = [(0, {(0,) * n: 1})]
    while stack:
        k, cur = stack.pop()
        while cur and k < m:
            steps += len(cur)
            i, j, sign = factors[k]
            later = [0] * n
            for a, b, _ in factors[k + 1:]:
                later[a] += 1
                later[b] += 1
            nxt = {}
            for e, c in cur.items():
                for up, other, coef in ((i, j, c), (j, i, c if sign > 0 else fld.neg(c))):
                    if e[up] < caps[up] and e[other] + later[other] >= caps[other] - slack:
                        child = e[:up] + (e[up] + 1,) + e[up + 1:]
                        nxt[child] = fld.add(nxt.get(child, 0), coef)
            cur = {e: c for e, c in nxt.items() if c}
            k += 1
            if len(cur) > P.SPLIT_TERMS and k < m and factors[k][0] != factors[k - 1][0]:
                settled = factors[k][0]  # x_1..x_{w-1}, for w the next block's i
                top = max(e[:settled] for e in cur)
                rest = {e: c for e, c in cur.items() if e[:settled] < top}
                if rest:
                    stack.append((k, rest))
                cur = {e: c for e, c in cur.items() if e[:settled] == top}
        if cur:
            e = max(cur)
            return (e, cur[e]), steps
    return None, steps


def random_factors(rng, field, n, m):
    factors = []
    for _ in range(m):
        i = rng.randint(1, n - 1)
        factors.append(P.Factor(i, rng.randint(i + 1, n), rng.choice((-1, 1)),
                                rng.randrange(field.order)))
    return factors


def integer_expansion(factors, n):
    """Oracle: expand prod (x_i + sign*x_j - beta) over the integers."""
    cur = {(0,) * n: 1}
    for (i, j, sign, beta) in factors:
        nxt = {}
        for exps, c in cur.items():
            for pos, coef in ((i - 1, c), (j - 1, sign * c), (None, -beta * c)):
                if coef == 0:
                    continue
                if pos is None:
                    key = exps
                else:
                    key = exps[:pos] + (exps[pos] + 1,) + exps[pos + 1:]
                nxt[key] = nxt.get(key, 0) + coef
        cur = {k: v for k, v in nxt.items() if v}
    return cur


def random_poly(rng, field, n_max=5, m_max=8):
    n = rng.randint(2, n_max)
    # keep the degree grid-feasible: a target needs sum == degree, caps t - 1
    m = rng.randint(1, min(m_max, (field.order - 1) * n))
    factors = []
    for _ in range(m):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        factors.append(P.Factor(i, j, rng.choice((-1, 1)), rng.randrange(field.order)))
    return P.EdgeProductPolynomial(field, n, tuple(factors))


def test_from_graph_examples():
    k2 = P.from_graph(G.path(2), F3)
    assert k2.factors == (P.Factor(1, 2, -1, 0),)
    tri = P.from_graph(G.cycle(3), F3, signs={e: 1 for e in G.cycle(3).edges})
    assert all(f.sign == 1 for f in tri.factors)
    with pytest.raises(G.GraphError):
        P.from_graph(G.cycle(3), F3, signs={(1, 2): 1})


def test_factor_order_follows_edge_order():
    g = G.cycle_power(6, 2)
    poly = P.from_graph(g, F3)
    assert tuple((f.i, f.j) for f in poly.factors) == g.edges


def test_expand_single_factor():
    poly = P.from_graph(G.path(2), F3)
    assert expand_coefficients(poly, (1, 1)) == {(1, 0): 1, (0, 1): 2}


def test_expand_c6_top_coefficient_vanishes_mod2():
    poly = P.from_graph(G.cycle(6), F2)
    assert P.coefficient_at(poly, (1,) * 6, "both") == 0


def test_c6sq_coefficient_pair():
    g = G.cycle_power(6, 2)
    f1 = P.from_graph(g, F3)
    assert P.coefficient_at(f1, (2,) * 6, "both") == 0
    signs = {e: (1 if e in {(1, 2), (1, 3)} else -1) for e in g.edges}
    f2 = P.from_graph(g, F3, signs=signs)
    assert P.coefficient_at(f2, (2,) * 6, "both") == 1


def test_cone_bipartite_grid_example():
    # cone over the parts-sorted 4-cycle: P_1 = {0}, coefficient 2
    gp = G.cone(G.complete_bipartite(2, 2))
    poly = P.from_graph(gp, F3)
    assert P.coefficient_at(poly, (0, 2, 2, 2, 2), "grid") == 2
    assert P.coefficient_at(poly, (0, 2, 2, 2, 2), "expand") == 2
    # the cyclically numbered cone gives a different (still nonzero) value
    gc = G.cone(G.cycle(4))
    assert P.coefficient_at(P.from_graph(gc, F3), (0, 2, 2, 2, 2), "both") == 1


def test_k35_all_qualifying_coefficients_vanish():
    poly = P.from_graph(G.complete_bipartite(3, 5), F3)
    expansion = expand_coefficients(poly, (2,) * 8)
    assert not any(sum(k) == 15 for k in expansion)


def test_grid_requires_full_degree_and_small_exponents():
    poly = P.from_graph(G.cycle(3), F3)
    with pytest.raises(PreconditionError):
        P.coefficient_at(poly, (1, 1, 0), "grid")  # sums to 2 != 3
    with pytest.raises(PreconditionError, match="expand"):
        P.coefficient_at(poly, (3, 0, 0), "grid")  # needs 4 points in F_3
    assert P.coefficient_at(poly, (3, 0, 0), "expand") == 0
    # 'both' refuses a target the grid cannot take before the expansion
    # spends anything
    budget = Budget(10)
    with pytest.raises(PreconditionError):
        P.coefficient_at(poly, (1, 1, 0), "both", budget)
    assert budget.spent == 0


def test_find_qualifying_monomial_examples():
    poly = P.from_graph(G.path(2), F3)
    assert P.find_qualifying_monomial(poly, (1, 1)) == ((1, 0), 1)
    c6 = P.from_graph(G.cycle(6), F3)
    found = P.find_qualifying_monomial(c6, (2,) * 6)
    assert found is not None
    mono, coeff = found
    assert sum(mono) == 6 and all(e <= 2 for e in mono) and coeff != 0
    k35 = P.from_graph(G.complete_bipartite(3, 5), F3)
    assert P.find_qualifying_monomial(k35, (2,) * 8) is None


def test_find_qualifying_monomial_is_lex_greatest():
    poly = P.from_graph(G.path(3), F2)
    mono, coeff = P.find_qualifying_monomial(poly, (1, 1, 1))
    assert (mono, coeff) == ((1, 1, 0), 1)


def test_find_qualifying_monomial_offsets_never_reach_the_top_degree():
    # caps (0, 0) keep only the constant term, which the offsets feed and
    # which is no qualifying monomial
    poly = P.EdgeProductPolynomial(F3, 2, (P.Factor(1, 2, -1, 1),) * 15)
    assert expand_coefficients(poly, (0, 0)) == {(0, 0): 2}
    assert P.find_qualifying_monomial(poly, (0, 0)) is None
    # with room for full-degree terms, the top degree of the expansion is
    # that of the offset-free product, and its lex-greatest term wins over
    # the lower-degree keys
    offset_free = P.EdgeProductPolynomial(F3, 2, (P.Factor(1, 2, -1),) * 15)
    expansion = expand_coefficients(poly, (15, 15))
    assert expansion[(0, 0)] == 2
    top = {e: c for e, c in expansion.items() if sum(e) == 15}
    assert top == expand_coefficients(offset_free, (15, 15))
    budget = Budget(10**9)
    found = P.find_qualifying_monomial(poly, (15, 15), budget)
    assert found == max(top.items()) == ((15, 0), 1)
    assert (found, budget.spent) == lex_first_walk(poly, (15, 15))


def test_find_qualifying_monomial_matches_its_definition():
    rng = random.Random(1515)
    for _ in range(40):
        field = rng.choice((F2, F3, F4))
        n = rng.randint(2, 3)
        m = rng.randint(1, 20)
        factors = []
        for _ in range(m):
            i = rng.randint(1, n - 1)
            factors.append(P.Factor(i, rng.randint(i + 1, n), rng.choice((-1, 1)),
                                    rng.randrange(field.order)))
        poly = P.EdgeProductPolynomial(field, n, tuple(factors))
        caps = tuple(rng.randint(0, 15) for _ in range(n))
        want = max(((e, c) for e, c in expand_coefficients(poly, caps).items()
                    if sum(e) == m), default=None)
        assert P.find_qualifying_monomial(poly, caps) == want


def test_find_qualifying_monomial_narrows_to_the_max_over_unpacked_keys():
    """The walk's answer against max over every unpacked key of the
    offset-free expansion, on seeded polynomials over F_3, F_5 and F_7,
    and its spend against the reference walk's."""
    rng = random.Random(1717)
    for t in (3, 5, 7) * 20:
        field = make_field(t)
        n = rng.randint(2, 7)
        factors = random_factors(rng, field, n, rng.randint(1, 12))
        poly = P.EdgeProductPolynomial(field, n, tuple(factors))
        caps = tuple(rng.randint(0, 4) for _ in range(n))
        offset_free = P.EdgeProductPolynomial(
            field, n, tuple(P.Factor(f.i, f.j, f.sign) for f in factors))
        terms = P.expand_packed(offset_free, caps)
        want = max(((P.unpack_exponents(k, n), c) for k, c in terms.items()), default=None)
        budget = Budget(10**9)
        assert P.find_qualifying_monomial(poly, caps, budget) == want
        assert (want, budget.spent) == lex_first_walk(poly, caps)


@pytest.mark.parametrize("split", (0, P.SPLIT_TERMS))
def test_lex_first_walk_is_the_max_of_the_whole_expansion(monkeypatch, split):
    """On seeded polynomials over F_2, F_3, F_4, F_5 and F_7 with their
    factors shuffled, the walk's answer is the greatest term of the whole
    offset-free expansion, or None when that is empty; its spend is the
    reference walk's, and at most the whole expansion's in (i, j) order.
    Split at every size as well as above SPLIT_TERMS, so that small maps
    take the branches too."""
    monkeypatch.setattr(P, "SPLIT_TERMS", split)
    rng = random.Random(3838)
    answers = {True: 0, False: 0}
    saved = 0
    for t in (2, 3, 4, 5, 7) * 40:
        field = make_field(t)
        n = rng.randint(2, 10)
        factors = random_factors(rng, field, n, rng.randint(0, 2 * n + 2))
        rng.shuffle(factors)
        poly = P.EdgeProductPolynomial(field, n, tuple(factors))
        caps = tuple(rng.randint(0, 4) for _ in range(n))
        offset_free = P.EdgeProductPolynomial(field, n, tuple(sorted(
            (P.Factor(f.i, f.j, f.sign) for f in factors), key=lambda f: (f.i, f.j))))
        whole = Budget(10**9)
        terms = P.expand_packed(offset_free, caps, whole)
        want = max(((P.unpack_exponents(k, n), c) for k, c in terms.items()), default=None)
        budget = Budget(10**9)
        assert P.find_qualifying_monomial(poly, caps, budget) == want
        assert (want, budget.spent) == lex_first_walk(poly, caps)
        assert budget.spent <= whole.spent
        answers[want is None] += 1
        saved += budget.spent < whole.spent
    assert min(answers.values()) >= 40
    assert saved >= 40


@pytest.mark.parametrize("split", (0, P.SPLIT_TERMS))
def test_lex_first_walk_budget_stops_exactly_at_its_spend(monkeypatch, split):
    """Every limit from 1 to the spend + 1: the walk raises exactly when
    the limit is at most its spend, stopped at the limit and named as
    the expansion, and otherwise returns its answer."""
    monkeypatch.setattr(P, "SPLIT_TERMS", split)
    rng = random.Random(4242)
    g = G.cycle_power(6, 2)
    cases = [(P.from_graph(g, F3, signs={e: (1 if e in {(1, 2), (1, 3)} else -1)
                                         for e in g.edges}), (2,) * 6),
             (P.from_graph(G.cone(G.cycle(4)), F3), (2,) * 5)]
    while len(cases) < 30:
        field = make_field(rng.choice((3, 5, 7)))
        n = rng.randint(3, 7)
        poly = P.EdgeProductPolynomial(field, n, tuple(random_factors(rng, field, n, 2 * n)))
        cases.append((poly, tuple(rng.randint(1, 4) for _ in range(n))))
    for poly, caps in cases:
        full = Budget(10**9)
        want = P.find_qualifying_monomial(poly, caps, full)
        for limit in range(1, full.spent + 2):
            budget = Budget(limit)
            if limit <= full.spent:
                with pytest.raises(BudgetExceeded, match=(
                        f"^budget exceeded while expanding an edge-product polynomial: "
                        f"{limit} >= {limit} steps$")):
                    P.find_qualifying_monomial(poly, caps, budget)
                assert budget.spent == limit
            else:
                assert P.find_qualifying_monomial(poly, caps, budget) == want
                assert budget.spent == full.spent


@pytest.mark.parametrize("split, spent", ((P.SPLIT_TERMS, 6201), (0, 1002)))
def test_lex_first_walk_reads_a_long_cycle_in_linear_steps(monkeypatch, split, spent):
    """C_1001's graph polynomial within caps 2: the walk's maps stay small,
    so it reads x_1^2 x_2 ... x_1000 in a few steps per factor (n + 1 when
    every map is split, as it then keeps at most four terms), where the
    whole expansion doubles with each factor and outgrows its map limit
    (here lowered to 10,000 terms; at the default 2,000,000 it takes
    seconds and gigabytes of 4,004-bit keys to get there)."""
    monkeypatch.setattr(P, "DEFAULT_MAX_TERMS", 10_000)
    monkeypatch.setattr(P, "SPLIT_TERMS", split)
    poly = P.from_graph(G.cycle(1001), F3)
    budget = Budget(10**9)
    assert P.find_qualifying_monomial(poly, (2,) * 1001, budget) == (
        (2,) + (1,) * 999 + (0,), 1)
    assert budget.spent == spent
    with pytest.raises(P.ExpansionLimitError):
        P.expand_packed(poly, (2,) * 1001)


def test_expansion_caps_are_sound():
    # capping a variable never changes the coefficients that survive
    g = G.cycle(4)
    poly = P.from_graph(g, F3)
    full = expand_coefficients(poly, (4,) * 4)
    capped = expand_coefficients(poly, (2,) * 4)
    assert capped == {k: v for k, v in full.items() if all(e <= 2 for e in k)}


def test_caps_above_the_packed_range_are_rejected():
    # a cap of 16 or more would let x_1's packed exponent carry into x_2's slot
    poly = P.from_graph(G.complete_bipartite(1, 17), F3)
    with pytest.raises(PreconditionError, match="packed"):
        expand_coefficients(poly, (17,) + (1,) * 17)
    with pytest.raises(PreconditionError, match="packed"):
        P.coefficient_at(poly, (17,) + (0,) * 17, method="expand")
    # the largest packed cap still expands exactly
    poly = P.from_graph(G.complete_bipartite(1, 15), F3)
    coeffs = expand_coefficients(poly, (15,) + (1,) * 15)
    assert len(coeffs) == 1 << 15
    assert coeffs[(15,) + (0,) * 15] == 1


def test_expansion_limit_error_names_size(monkeypatch):
    poly = P.from_graph(G.complete(5), F3)
    monkeypatch.setattr(P, "DEFAULT_MAX_TERMS", 5)
    with pytest.raises(P.ExpansionLimitError, match="terms"):
        expand_coefficients(poly, (10,) * 5)


def test_expand_budget():
    poly = P.from_graph(G.complete(5), F3)
    with pytest.raises(BudgetExceeded):
        expand_coefficients(poly, (4,) * 5, budget=Budget(10))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_evaluation_consistency(seed):
    """The expanded map, summed as monomials, evaluates like the product form."""
    rng = random.Random(seed)
    field = rng.choice((F2, F3, F4))
    poly = random_poly(rng, field, n_max=4, m_max=5)
    caps = (poly.degree,) * poly.n
    expansion = expand_coefficients(poly, caps)
    for point in product(field.elements, repeat=poly.n):
        direct = poly.evaluate(point)
        total = 0
        for exps, coeff in expansion.items():
            term = coeff
            for x, e in zip(point, exps):
                term = field.mul(term, field.pow(x, e)) if e else term
            total = field.add(total, term)
        assert total == direct


def all_feasible_targets(n, total, cap):
    def rec(pos, left, acc):
        if pos == n:
            if left == 0:
                yield tuple(acc)
            return
        for v in range(min(cap, left) + 1):
            if left - v <= cap * (n - pos - 1):
                yield from rec(pos + 1, left - v, acc + [v])

    yield from rec(0, total, [])


def test_expand_equals_grid_on_every_feasible_target():
    rng = random.Random(314)
    for _ in range(20):
        poly = random_poly(rng, F3, n_max=5, m_max=8)
        for target in all_feasible_targets(poly.n, poly.degree, 2):
            assert P.coefficient_at(poly, target, "expand") == P.coefficient_at(
                poly, target, "grid"
            )


def test_expand_equals_grid_on_200_seeded_instances():
    rng = random.Random(20240)
    for _ in range(200):
        poly = random_poly(rng, F3)
        target = _random_feasible_target(rng, poly)
        assert P.coefficient_at(poly, target, "expand") == P.coefficient_at(
            poly, target, "grid"
        )


def _random_feasible_target(rng, poly):
    n, total, cap = poly.n, poly.degree, poly.field.order - 1
    while True:
        target = [0] * n
        left = total
        for pos in range(n - 1):
            hi = min(cap, left)
            lo = max(0, left - cap * (n - pos - 1))
            target[pos] = rng.randint(lo, hi)
            left -= target[pos]
        if left <= cap:
            target[-1] = left
            return tuple(target)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_grid_value_independent_of_point_sets(seed):
    """Any per-variable point sets of the right sizes give the same coefficient."""
    rng = random.Random(seed)
    poly = random_poly(rng, F3, n_max=4, m_max=6)
    target = _random_feasible_target(rng, poly)
    default = P.Grid.for_target(F3, target).coefficient(poly)
    sets = tuple(
        tuple(sorted(rng.sample(range(3), ti + 1))) for ti in target
    )
    assert P.Grid(F3, sets).coefficient(poly) == default


def ref_grid_coefficient(grid, poly, budget):
    """The flat grid sum: N(p)^{-1} * f(p) over every point of the product,
    one budget step per point."""
    fld = grid.field
    tables = []
    for pts in grid.point_sets:
        tbl = {}
        for p in pts:
            w = 1
            for eps in pts:
                if eps != p:
                    w = fld.mul(w, fld.sub(p, eps))
            tbl[p] = w
        tables.append(tbl)
    inv_w = [{p: fld.inv(w) for p, w in tbl.items()} for tbl in tables]
    total = 0
    for point in product(*grid.point_sets):
        budget.tick()
        val = poly.evaluate(point)
        if val == 0:
            continue
        n_inv = 1
        for pos, p in enumerate(point):
            n_inv = fld.mul(n_inv, inv_w[pos][p])
        total = fld.add(total, fld.mul(n_inv, val))
    return total


def _random_grid_instance(rng, field):
    """A polynomial with random signs and offsets on a grid of shuffled
    point sets of random sizes, its degree within the grid's."""
    t = field.order
    n = rng.randint(1, 5)
    sets = tuple(tuple(rng.sample(range(t), rng.randint(1, min(t, 4)))) for _ in range(n))
    room = sum(len(pts) - 1 for pts in sets)
    factors = []
    for _ in range(rng.randint(0, room) if n > 1 else 0):
        i = rng.randint(1, n - 1)
        factors.append(P.Factor(i, rng.randint(i + 1, n), rng.choice((-1, 1)),
                                rng.randrange(t)))
    return P.EdgeProductPolynomial(field, n, tuple(factors)), P.Grid(field, sets)


def _components_grid_instance(rng, field):
    """Up to 9 variables in up to three components, some isolated, some
    with a single grid point, under a random relabelling, with at most
    1,500 grid points so that the flat sum stays cheap."""
    t = field.order
    n = rng.randint(1, 9)
    sizes, points = [], 1
    for _ in range(n):
        size = rng.randint(1, max(1, min(t, 4, 1500 // points)))
        sizes.append(size)
        points *= size
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
    blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [n]) if b - a > 1]
    label = rng.sample(range(1, n + 1), n)  # the k-th variable's label
    factors = []
    for _ in range(rng.randint(0, sum(sizes) - n) if blocks else 0):
        a, b = rng.sample(rng.choice(blocks), 2)
        i, j = sorted((label[a], label[b]))
        factors.append(P.Factor(i, j, rng.choice((-1, 1)), rng.randrange(t)))
    sets = [()] * n
    for k, size in enumerate(sizes):
        sets[label[k] - 1] = tuple(rng.sample(range(t), size))
    return P.EdgeProductPolynomial(field, n, tuple(factors)), P.Grid(field, tuple(sets))


def _matches_the_flat_sum(grid, poly, rng):
    """Grid.coefficient against ref_grid_coefficient: the same value, the
    same spend of one step per grid point, and the same outcome, value or
    exhaustion at the same step, under a random limit up to that spend.
    Returns the value."""
    budget, ref = Budget(10**9), Budget(10**9)
    value = grid.coefficient(poly, budget)
    assert value == ref_grid_coefficient(grid, poly, ref)
    assert budget.spent == ref.spent == math.prod(len(pts) for pts in grid.point_sets)
    limit = rng.randint(1, ref.spent)
    outcomes = []
    for run in (grid.coefficient, partial(ref_grid_coefficient, grid)):
        budget = Budget(limit)
        try:
            outcomes.append((run(poly, budget), budget.spent))
        except BudgetExceeded as exc:
            outcomes.append(("exceeded", exc.spent, budget.spent))
    assert outcomes[0] == outcomes[1]
    return value


@pytest.mark.parametrize("t", [2, 3, 4, 5, 7])
def test_pruned_grid_sum_matches_the_flat_sum(t):
    """Same value and the same spend, one step per grid point, as the
    point-by-point sum, also on relabelled multi-component instances
    whose maximum-cardinality order is not index order; an exhausted
    budget stops at the same step."""
    field = make_field(t)
    rng = random.Random(700 + t)
    nonzero = reordered = 0
    for make in [_random_grid_instance] * 150 + [_components_grid_instance] * 120:
        poly, grid = make(rng, field)
        reordered += P._walk_order(poly) != list(range(poly.n))
        nonzero += _matches_the_flat_sum(grid, poly, rng) != 0
    assert nonzero > 0
    assert reordered > 0


def _single_point_grid_instance(rng, field, walked):
    """Up to 7 variables of which `walked` have at least two grid points
    and the rest one, often a nonzero one, with random factors, signs and
    offsets within the grid's degree."""
    t = field.order
    n = rng.randint(walked, 7)
    many = set(rng.sample(range(n), walked))
    sets = tuple(tuple(rng.sample(range(t), rng.randint(2, min(t, 3)) if v in many else 1))
                 for v in range(n))
    factors = []
    for _ in range(rng.randint(0, sum(len(pts) - 1 for pts in sets)) if n > 1 else 0):
        i = rng.randint(1, n - 1)
        factors.append(P.Factor(i, rng.randint(i + 1, n), rng.choice((-1, 1)),
                                rng.randrange(t)))
    return P.EdgeProductPolynomial(field, n, tuple(factors)), P.Grid(field, sets)


def test_grid_sum_with_single_point_coordinates_matches_the_flat_sum():
    """The value, the spend and an exhausted budget's step match the
    point-by-point sum on grids where no, one, or several coordinates have
    more than one point, with single points at nonzero elements, with
    factors between two single points (a constant on the grid, vanishing
    or not, and either way the sum is 0: the other factors' grid sum is
    their coefficient of a monomial above their degree), and with no or
    one variable."""
    F5 = make_field(5)
    rng = random.Random(3401)
    # x_1 = 3 and x_4 = 2 are single points: x_1 + x_3 - 2 vanishes at
    # x_3's point 4; x_1 - x_4 - 1 and x_1 - x_4 are constants, 0 and 1,
    # and either makes the sum 0
    grid = P.Grid(F5, ((3,), (0, 2, 1), (1, 4), (2,)))
    scaled = (P.Factor(1, 2, -1, 0), P.Factor(1, 3, 1, 2), P.Factor(2, 3, -1, 0))
    assert _matches_the_flat_sum(grid, P.EdgeProductPolynomial(F5, 4, scaled), rng) != 0
    for beta in (1, 0):
        constant = P.EdgeProductPolynomial(F5, 4, scaled[:2] + (P.Factor(1, 4, -1, beta),))
        assert _matches_the_flat_sum(grid, constant, rng) == 0
    # no variable: the empty point; one variable: the sum of the inverse
    # weights, 0 unless the set has one point
    assert _matches_the_flat_sum(P.Grid(F5, ()), P.EdgeProductPolynomial(F5, 0, ()), rng) == 1
    for pts in ((4,), (0, 3), (1, 2, 4)):
        value = _matches_the_flat_sum(P.Grid(F5, (pts,)), P.EdgeProductPolynomial(F5, 1, ()), rng)
        assert value == (len(pts) == 1)
    seen = {"zero": 0, "nonzero": 0, "constant factor": 0}
    for t in (2, 3, 4, 5, 7, 8, 9):
        field = make_field(t)
        for walked in [0] * 40 + [1] * 40 + [2, 3, 4] * 20:
            poly, grid = _single_point_grid_instance(rng, field, walked)
            value = _matches_the_flat_sum(grid, poly, rng)
            seen["nonzero" if value else "zero"] += 1
            single = [len(pts) == 1 for pts in grid.point_sets]
            if any(single[f.i - 1] and single[f.j - 1] for f in poly.factors):
                seen["constant factor"] += 1
                assert value == 0
    assert min(seen.values()) >= 20, seen


def test_zero_set_cover_yields_the_nonzero_grid_points_in_product_order():
    """The whole-cover certifiers take their witness from this: the
    transversals of the cover whose matchings are the factors' zero sets
    are the points of the grid where the polynomial is nonzero, in
    product order, and the search reaches each after trying at most n
    labels per grid point up to it."""
    rng = random.Random(99)
    for t in (3, 4, 5):
        field = make_field(t)
        for _ in range(40):
            poly, grid = _random_grid_instance(rng, field)
            # one factor per edge, sign -1 outside F_3, as cover_from_pattern
            # realizes them
            first = {}
            for f in poly.factors:
                first.setdefault((f.i, f.j), f)
            g = G.from_edges(poly.n, sorted(first))
            signs = {e: f.sign if t == 3 else -1 for e, f in first.items()}
            offsets = {e: f.beta for e, f in first.items()}
            poly = P.from_graph(g, field, signs, offsets)
            zeros = C.Cover(g, t, grid.point_sets,
                            C.cover_from_pattern(g, t, signs, offsets).matchings)
            points = list(product(*grid.point_sets))
            rank = {p: r for r, p in enumerate(points)}
            budget = Budget(10**9)
            walked = []
            for p in C.transversals(zeros, budget):
                walked.append(p)
                assert budget.spent <= g.n * (rank[p] + 1)
            assert walked == [p for p in points if poly.evaluate(p)]
    # no variables: the one empty point, where the empty product is 1
    budget = Budget(10)
    assert P.Grid(F3, ()).coefficient(P.EdgeProductPolynomial(F3, 0, ()), budget) == 1
    assert budget.spent == 1


def test_grid_walk_on_a_1200_vertex_graph_does_not_recurse():
    # three edges: every other coordinate has the single point 0, and the
    # walk still goes 1,200 coordinates deep
    g = G.from_edges(1200, [(1, 2), (600, 601), (1199, 1200)])
    poly = P.from_graph(g, F3)
    target = [0] * 1200
    target[0] = target[599] = target[1198] = 1
    budget = Budget(100)
    assert P.Grid.for_target(F3, target).coefficient(poly, budget) == 1
    assert budget.spent == 8
    assert P.coefficient_at(poly, target, "both") == 1


def ref_walk_order(poly):
    """Maximum-cardinality order by a scan of every unplaced variable."""
    count = [0] * poly.n
    left = set(range(poly.n))
    order = []
    while left:
        v = min(left, key=lambda u: (-count[u], u))
        left.remove(v)
        order.append(v)
        for f in poly.factors:
            for a, b in ((f.i - 1, f.j - 1), (f.j - 1, f.i - 1)):
                if a == v and b in left:
                    count[b] += 1
    return order


def test_walk_order_is_the_maximum_cardinality_permutation():
    rng = random.Random(31)
    for _ in range(300):
        poly = random_poly(rng, make_field(rng.choice((3, 5))), n_max=12, m_max=20)
        order = P._walk_order(poly)
        assert sorted(order) == list(range(poly.n))
        assert order == ref_walk_order(poly)
    assert P._walk_order(P.from_graph(G.complete_bipartite(3, 5), F3)) == [0, 3, 1, 4, 2, 5, 6, 7]


def test_walk_order_is_index_order_on_cycle_squares_and_cones_over_cycles():
    for n in range(3, 25):
        for g in (G.cycle_power(n, 2), G.cone(G.cycle(n))):
            assert P._walk_order(P.from_graph(g, F3)) == list(range(g.n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_coefficient_invariant_under_factor_reordering(seed):
    rng = random.Random(seed)
    poly = random_poly(rng, F3)
    target = _random_feasible_target(rng, poly)
    value = P.coefficient_at(poly, target, "expand")
    shuffled = list(poly.factors)
    rng.shuffle(shuffled)
    poly2 = P.EdgeProductPolynomial(poly.field, poly.n, tuple(shuffled))
    assert P.coefficient_at(poly2, target, "expand") == value


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_offsets_do_not_affect_top_degree_coefficients(seed):
    rng = random.Random(seed)
    poly = random_poly(rng, F3)
    target = _random_feasible_target(rng, poly)
    value = P.coefficient_at(poly, target, "expand")
    shifted = tuple(
        P.Factor(f.i, f.j, f.sign, rng.randrange(3)) for f in poly.factors
    )
    poly2 = P.EdgeProductPolynomial(poly.field, poly.n, shifted)
    assert P.coefficient_at(poly2, target, "expand") == value


# ---------------------------------------------------------------------------
# circulation counts

def cyclic_orientation(n):
    g = G.cycle(n)
    return G.Orientation(g, tuple(0 if e == (1, n) else 1 for e in g.edges))


def test_alon_tarsi_examples():
    assert P.alon_tarsi_diff(cyclic_orientation(4)) == 2
    assert P.alon_tarsi_diff(cyclic_orientation(6)) == 2
    path_d = G.Orientation(G.path(4), (1, 1, 1))
    assert P.alon_tarsi_diff(path_d) == 1
    single = G.Orientation(G.path(2), (1,))
    assert P.alon_tarsi_diff(single) == 1


def test_any_tree_orientation_has_diff_one():
    for t in G.tree_catalog(6):
        if t.n < 2:
            continue
        for bits in product((0, 1), repeat=len(t.edges)):
            assert P.alon_tarsi_diff(G.Orientation(t, bits)) == 1


def test_alon_tarsi_budget_and_size_guard():
    with pytest.raises(BudgetExceeded):
        P.alon_tarsi_diff(cyclic_orientation(6), budget=Budget(5))
    big = G.complete(9)  # 36 edges
    with pytest.raises(PreconditionError):
        P.alon_tarsi_diff(G.Orientation(big, (1,) * 36))


REGRESSION_GRAPHS = [
    G.path(3),
    G.path(5),
    G.cycle(3),
    G.cycle(4),
    G.cycle(5),
    G.cycle(6),
    G.complete(4),
    G.complete_bipartite(2, 3),
    G.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3)], "paw"),
    G.from_edges(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], "house"),
]


@pytest.mark.parametrize("g", REGRESSION_GRAPHS, ids=lambda g: g.name or f"n{g.n}m{len(g.edges)}")
def test_alon_tarsi_identity_against_integer_expansion(g):
    """diff(D) equals |[prod x_i^{outdeg}] f_G| over the integers, for every
    orientation of every regression graph with at most 7 edges."""
    if len(g.edges) > 7:
        pytest.skip("identity checked up to 7 edges")
    signed = [(i, j, -1, 0) for i, j in g.edges]
    expansion = integer_expansion(signed, g.n)
    for bits in product((0, 1), repeat=len(g.edges)):
        d = G.Orientation(g, bits)
        coeff = expansion.get(d.outdegrees(), 0)
        assert P.alon_tarsi_diff(d) == abs(coeff)


def test_field_expansion_matches_integer_oracle_mod_p():
    rng = random.Random(99)
    for _ in range(60):
        poly = random_poly(rng, F3, n_max=4, m_max=6)
        raw = [(f.i, f.j, f.sign, f.beta) for f in poly.factors]
        over_z = integer_expansion(raw, poly.n)
        got = expand_coefficients(poly, (poly.degree,) * poly.n)
        want = {}
        for exps, c in over_z.items():
            if c % 3:
                want[exps] = c % 3
        assert got == want


def _offset_poly(rng, field, n, m_max, betas):
    """m <= m_max factors on n variables with random signs and offsets
    drawn from `betas`."""
    factors = []
    for _ in range(rng.randint(0, m_max) if n > 1 else 0):
        i = rng.randint(1, n - 1)
        factors.append(P.Factor(i, rng.randint(i + 1, n), rng.choice((-1, 1)),
                                rng.choice(betas)))
    return P.EdgeProductPolynomial(field, n, tuple(factors))


def _reference_expansion(poly, caps):
    """The full map and its spend, one apply_factor_packed call per
    factor and one step per key of each map (at least one), with no
    early stop."""
    cur, spent = {0: 1}, 0
    for f in poly.factors:
        spent += max(len(cur), 1)
        cur = P.apply_factor_packed(cur, f, caps, poly.field)
    return cur, spent


@pytest.mark.parametrize("t", (2, 3, 4, 5, 7))
def test_exact_read_is_the_full_maps_coefficient(t):
    """The exact read keeps at most the target's key, with the coefficient
    the full map within the same caps has there, on targets with zeros,
    with sum(T) != degree, with T_v > deg(v), and with n = 0 or 1."""
    field = make_field(t)
    rng = random.Random(2400 + t)
    nonzero = 0
    for _ in range(60):
        n = rng.choice((0, 1, 2, 3, 4, 5, 6))
        poly = _offset_poly(rng, field, n, 10, range(t))
        degree = [0] * n
        for f in poly.factors:
            degree[f.i - 1] += 1
            degree[f.j - 1] += 1
        full_caps = tuple(min(d, P.PACK_MASK) for d in degree)
        targets = [P.unpack_exponents(k, n) for k in P.expand_packed(poly, full_caps)]
        targets = rng.sample(targets, min(3, len(targets)))
        targets += [tuple(rng.randint(0, d + 1) for d in degree) for _ in range(3)]
        for target in targets:
            key = P.pack_exponents(target)
            full = P.expand_packed(poly, target)
            exact = P.expand_packed(poly, target, exact=True)
            assert set(exact) <= {key}
            assert exact.get(key, 0) == full.get(key, 0)
            assert P.coefficient_at(poly, target, "expand") == full.get(key, 0)
            nonzero += bool(exact)
    assert nonzero > 20
    # the empty product: coefficient 1 at x^0 only
    for n in (0, 1):
        poly = P.EdgeProductPolynomial(field, n, ())
        assert P.expand_packed(poly, (0,) * n, exact=True) == {0: 1}
        assert P.coefficient_at(poly, (0,) * n, "both") == 1
    assert P.expand_packed(P.EdgeProductPolynomial(field, 1, ()), (1,), exact=True) == {}


@pytest.mark.parametrize("t", (2, 3, 4, 5, 7))
def test_full_map_and_its_spend_are_unchanged(t):
    """The default expansion against the integer oracle reduced mod the
    characteristic (F_4's offsets stay in its prime subfield F_2), and its
    spend against one step per key of each map with no early stop."""
    field = make_field(t)
    p = 2 if t == 4 else t
    rng = random.Random(2500 + t)
    for _ in range(40):
        poly = _offset_poly(rng, field, rng.randint(2, 5), 7, range(p))
        caps = tuple(rng.randint(0, 4) for _ in range(poly.n))
        raw = [(f.i, f.j, f.sign, f.beta) for f in poly.factors]
        want = {P.pack_exponents(e): c % p
                for e, c in integer_expansion(raw, poly.n).items()
                if c % p and all(x <= cap for x, cap in zip(e, caps))}
        budget = Budget(10**9)
        got = P.expand_packed(poly, caps, budget)
        assert got == want
        assert (got, budget.spent) == _reference_expansion(poly, caps)


def test_exact_read_charges_every_factor_after_the_map_empties():
    """On K_{3,5} and target (1, 2, ..., 2) the exact map empties after
    10 of 15 factors: 80 steps for the keys, then 5 in one charge."""
    poly = P.from_graph(G.complete_bipartite(3, 5), F3)
    target = (1,) + (2,) * 7
    budget = Budget(10**9)
    assert P.expand_packed(poly, target, budget, exact=True) == {}
    assert budget.spent == 85
    assert _reference_expansion(poly, target)[1] == 375
    # an empty map from the start: T_1 = 6 exceeds deg(v_1) = 5
    budget = Budget(10**9)
    assert P.expand_packed(poly, (6,) + (0,) * 7, budget, exact=True) == {}
    assert budget.spent == 15


def test_schauz_line_graph_of_k4_top_coefficient_vanishes():
    # line graph of K_4 = the octahedron on 6 vertices; over F_3 the
    # all-squares coefficient vanishes
    k4_edges = list(G.complete(4).edges)
    adj = []
    for a in range(6):
        for b in range(a + 1, 6):
            if set(k4_edges[a]) & set(k4_edges[b]):
                adj.append((a + 1, b + 1))
    lg = G.from_edges(6, adj, "L(K4)")
    assert len(lg.edges) == 12
    poly = P.from_graph(lg, F3)
    assert P.coefficient_at(poly, (2,) * 6, "both") == 0
