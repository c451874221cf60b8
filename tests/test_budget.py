"""The budget's one stopping rule: a charge of n steps acts as n charges of
one step, so an exhausted budget stops at its limit and names the phase
that was spending it."""
import pytest
from hypothesis import given, strategies as st

from dpnull import cli
from dpnull.budget import Budget, BudgetExceeded


def _outcome(budget, charges):
    """(spent, error message or None) after the charges, in turn."""
    try:
        for steps in charges:
            budget.tick(steps)
    except BudgetExceeded as exc:
        assert exc.spent == budget.spent == budget.limit
        return budget.spent, str(exc)
    return budget.spent, None


@given(st.integers(1, 40), st.integers(0, 39), st.integers(0, 60))
def test_a_batched_tick_acts_as_unit_ticks(limit, spent, steps):
    spent = min(spent, limit - 1)
    batched = _outcome(Budget(limit, spent, "counting"), [steps])
    assert batched == _outcome(Budget(limit, spent, "counting"), [1] * steps)
    assert (batched[1] is None) == (spent + steps < limit)


def test_an_exhausted_budget_stays_at_its_limit():
    budget = Budget(10, what="counting")
    assert _outcome(budget, [4, 100]) == (10, "budget exceeded while counting: 10 >= 10 steps")
    assert _outcome(budget, [1]) == (10, "budget exceeded while counting: 10 >= 10 steps")


@pytest.fixture
def order3_cover(tmp_path):
    path = tmp_path / "c6sq.cover"
    assert cli.run(["make-cover", "c6sq", "--pattern", "1-2:+0,1-3:+0,default:-0",
                    "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def bad_c9sq_cover(tmp_path):
    path = tmp_path / "c9sq-bad.cover"
    assert cli.run(["make-cover", "c9sq", "--bad-c3k", "3", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv, err", [
    # the sign sweep's one-tick maps
    (["certify-dp3", "k4,4", "--budget", "50"],
     "error: budget exceeded while sweeping sign patterns: 50 >= 50 steps\n"),
    # the switch charge of every failing representative
    (["certify-dp3", "k4,4", "--budget", "1000"],
     "error: budget exceeded while sweeping sign patterns: 1000 >= 1000 steps\n"),
    # one tick per factor of the sparse expansion
    (["coeff", "k3,3", "--target", "2,2,2,1,1,1", "--method", "expand", "--budget", "20"],
     "error: budget exceeded while expanding an edge-product polynomial: 20 >= 20 steps\n"),
    # the grid sum's one charge of prod |P_i| grid points, before its walk
    (["coeff", "c6sq", "--target", "2,2,2,2,2,2", "--field", "3", "--method", "grid",
      "--budget", "500"],
     "error: budget exceeded while summing over a coefficient grid: 500 >= 500 steps\n"),
    # the witness's rank + 1 label-grid points, after the expansion
    (["certify-cover", "COVER", "--mode", "order3", "--budget", "200"],
     "error: budget exceeded while certifying an order-3 cover: 200 >= 200 steps\n"),
    # the exact search's mask pre-charge and batched leaves, caught by the
    # bounds, which print how far the walk got
    (["chi-dp", "k4,4", "--max-m", "3", "--budget", "500"], ""),
    (["chi-dp", "k4,4", "--max-m", "3", "--budget", "20000"], ""),
    # the exact read's one charge for the factors left once its map empties
    (["coeff", "k3,5", "--target", "1,2,2,2,2,2,2,2", "--method", "expand", "--budget", "83"],
     "error: budget exceeded while expanding an edge-product polynomial: 83 >= 83 steps\n"),
    # the H-coloring oracle, inside its 42-label proof that the C_9^2 cover
    # of the C_{3k}^2 construction has no transversal
    (["check-cover", "BAD", "--budget", "30"],
     "error: budget exceeded while searching for an H-coloring: 30 >= 30 steps\n"),
])
def test_every_batched_charge_stops_where_unit_charges_would(
        argv, err, order3_cover, bad_c9sq_cover, monkeypatch, capsys):
    files = {"COVER": order3_cover, "BAD": bad_c9sq_cover}
    argv = [files.get(a, a) for a in argv]
    batched = cli.run(argv), capsys.readouterr()
    tick = Budget.tick

    def one_at_a_time(self, steps=1):
        for _ in range(steps):
            tick(self)

    monkeypatch.setattr(Budget, "tick", one_at_a_time)
    units = cli.run(argv), capsys.readouterr()
    assert batched == units
    assert batched[0] == (3 if err else 0) and batched[1].err == err
