"""Explicit work budgets for the exponential searches.

Every potentially exponential routine accepts an optional Budget and spends
from it in units of elementary steps (search nodes, covers enumerated, grid
points, ...).  Exhaustion raises instead of hanging, with a deterministic
message naming the limit and what was being counted.
"""
from __future__ import annotations

from dataclasses import dataclass


class BudgetExceeded(RuntimeError):
    """Raised when an operation-count budget runs out."""

    def __init__(self, what: str, spent: int, limit: int):
        super().__init__(f"budget exceeded while {what}: {spent} >= {limit} steps")
        self.what = what
        self.spent = spent
        self.limit = limit


@dataclass
class Budget:
    """Mutable step counter shared across the calls of one search."""

    limit: int
    spent: int = 0
    what: str = "searching"

    def tick(self, steps: int = 1) -> None:
        """Charge `steps` steps, exactly as `steps` calls of tick(1) would:
        a charge that reaches the limit stops `spent` at the limit and
        raises, so an exhausted budget always reports `limit >= limit`
        under the label of the phase that was spending it."""
        self.spent += steps
        if self.spent >= self.limit:
            self.spent = self.limit
            raise BudgetExceeded(self.what, self.spent, self.limit)

    def relabel(self, what: str) -> "Budget":
        self.what = what
        return self


def ensure_budget(budget: Budget | None, default_limit: int, what: str) -> Budget:
    """Return `budget` relabeled, or a fresh one with the default limit."""
    if budget is None:
        return Budget(default_limit, what=what)
    return budget.relabel(what)
