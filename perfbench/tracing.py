"""Spans around calls into dpnull's public functions, recorded from outside.

The tracer replaces each target function by a wrapper in every ``dpnull``
module that holds it by name (``certify`` imports ``apply_factor_packed``,
``cover`` imports ``spanning_tree``, and so on), and restores the originals
on ``uninstall``.  A span records its name, start, end, parent span and job
id in flat arrays that stay in memory until the run ends, and the time its
wrapper spent on bookkeeping.  A span's self time is its duration minus the
time its child spans cover, wrappers included, so that tracing overhead is
left unattributed instead of landing in the caller's self time.

Work counts come only from arguments and results (map lengths, grid sizes,
``covers_tested``, ``patterns_tested``, ``Certificate.work``) and from
deltas of ``Budget.spent``.  A call that would create its own budget is
handed one with that function's default limit, read from its source, so
that its steps are visible; this leaves the call's behaviour unchanged.
"""
from __future__ import annotations

import inspect
import math
import re
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from dpnull import budget as budget_mod
from dpnull import certify, cli, cover, ff, graphs, poly


def _count_apply(counts, args, kwargs, result):
    cur = args[0] if args else kwargs["cur"]
    counts["poly.apply_factor_packed.terms_in"] += len(cur)
    counts["poly.apply_factor_packed.terms_out"] += len(result)
    peak = max(len(cur), len(result))
    if peak > counts["poly.apply_factor_packed.peak_terms"]:
        counts["poly.apply_factor_packed.peak_terms"] = peak


def _count_grid(counts, args, kwargs, result):
    counts["poly.Grid.coefficient.points"] += math.prod(len(p) for p in args[0].point_sets)


def _count_f_walk(counts, args, kwargs, result):
    counts["cover.f_dp_exhaustive.leaves"] += result.covers_tested


def _count_exact(counts, args, kwargs, result):
    counts["cover.exact_dp_chromatic.covers"] += result.covers_tested


def _count_dp3(counts, args, kwargs, result):
    counts["certify.certify_dp3.patterns"] += result.patterns_tested
    if result.failure is not None:
        counts["certify.certify_dp3.failing_patterns"] += len(result.failure.failing_patterns)


def _count_certifier(name):
    def count(counts, args, kwargs, result):
        if result is not None:
            counts[f"{name}.certified"] += 1
            counts["certify.witness_points"] += result.work.get("grid_points", 0)
    return count


def _count_bounds(counts, args, kwargs, result):
    counts["certify.dp_chromatic_bounds.exact"] += result.exact is not None


# (span name, owner, attribute, counter); "nodes" of a budgeted function are
# the steps it charged itself, excluding nested calls on the same budget.
TARGETS = (
    ("poly.apply_factor_packed", poly, "apply_factor_packed", _count_apply),
    ("poly.expand_packed", poly, "expand_packed", None),
    ("poly.Grid.coefficient", poly.Grid, "coefficient", _count_grid),
    ("cover.f_dp_exhaustive", cover, "f_dp_exhaustive", _count_f_walk),
    ("cover.exact_dp_chromatic", cover, "exact_dp_chromatic", _count_exact),
    ("cover.h_coloring_search", cover, "h_coloring_search", None),
    ("cover.is_good_cover", cover, "is_good_cover", None),
    ("certify.certify_dp3", certify, "certify_dp3", _count_dp3),
    ("certify.certify_order3_cover", certify, "certify_order3_cover",
     _count_certifier("certify.certify_order3_cover")),
    ("certify.certify_good_cover", certify, "certify_good_cover",
     _count_certifier("certify.certify_good_cover")),
    ("certify.dp_chromatic_bounds", certify, "dp_chromatic_bounds", _count_bounds),
    ("graphs.chromatic_number", graphs, "chromatic_number", None),
    ("graphs.spanning_tree", graphs, "spanning_tree", None),
    ("ff.make_field", ff, "make_field", None),
    ("cli.run", cli, "run", None),
)

_DEFAULT_LIMIT = re.compile(r"ensure_budget\(\s*budget\s*,\s*([0-9_]+)")


def _budget_slot(fn):
    """(positional index of `budget`, default limit) or (None, None)."""
    params = list(inspect.signature(fn).parameters)
    if "budget" not in params:
        return None, None
    m = _DEFAULT_LIMIT.search(inspect.getsource(fn))
    return params.index("budget"), int(m.group(1).replace("_", "")) if m else None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.wrapper = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.job_id = -1
        self.counts: dict[str, float] = defaultdict(int)
        self._stack = [-1]
        self._budgets: list[list] = []  # [budget, spent at entry, delta of nested same-budget calls]
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for span_name, owner, attr, counter in TARGETS:
            orig = owner.__dict__[attr]
            wrapper = self._wrap(span_name, orig, counter)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for k, m in list(sys.modules.items())
                           if m is not None and (k == "dpnull" or k.startswith("dpnull."))]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    def _wrap(self, span_name, fn, counter):
        nid = len(self.names)
        self.names.append(span_name)
        slot, limit = _budget_slot(fn)
        calls_key = f"{span_name}.calls"
        nodes_key = f"{span_name}.nodes"
        counts, stack, budgets = self.counts, self._stack, self._budgets
        start, end, names, parents, jobs = self.start, self.end, self.name, self.parent, self.job
        overhead = self.wrapper
        Budget = budget_mod.Budget

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            bud = None
            if slot is not None:
                bud = args[slot] if len(args) > slot else kwargs.get("budget")
                if bud is None and limit is not None:
                    bud = Budget(limit)
                    if len(args) > slot:
                        args = args[:slot] + (bud,) + args[slot + 1:]
                    else:
                        kwargs["budget"] = bud
            sid = len(start)
            start.append(0.0)
            end.append(0.0)
            overhead.append(0.0)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            stack.append(sid)
            if bud is not None:
                frame = [bud, bud.spent, 0]
                budgets.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                start[sid] = t0
                end[sid] = t1
                stack.pop()
                counts[calls_key] += 1
                if bud is not None:
                    budgets.pop()
                    delta = bud.spent - frame[1]
                    own = delta - frame[2]
                    counts[nodes_key] += own
                    counts["budget.steps"] += own
                    for outer in reversed(budgets):
                        if outer[0] is bud:
                            outer[2] += delta
                            break
                overhead[sid] = t0 - enter + perf_counter() - t1
            if counter is not None:
                t2 = perf_counter()
                counter(counts, args, kwargs, result)
                overhead[sid] += perf_counter() - t2
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Summed self time per span name over spans first..last-1."""
        child = defaultdict(float)
        start, end, parent, overhead = self.start, self.end, self.parent, self.wrapper
        for i in range(first, last):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i] + overhead[i]
        out = defaultdict(float)
        for i in range(first, last):
            out[self.names[self.name[i]]] += end[i] - start[i] - child[i]
        return out

    def write_spans(self, path, job_names: dict[int, str]) -> None:
        with open(path, "w") as out:
            out.write("span\tname\tstart\tend\twrapper_s\tparent\tjob\n")
            for i in range(len(self.start)):
                job = self.job[i]
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\t{self.wrapper[i]:.9f}\t{self.parent[i]}\t"
                          f"{job_names.get(job, job)}\n")
