"""Benchmark for dpnull: three workloads, end-to-end and per-layer metrics.

Run one workload (from the repository root; stdlib only):

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 20 --trace 0

* ``--trace 0`` times passes over the workload's job list with nothing
  wrapped and reports the end-to-end metrics: ``setup_s``, ``wall_s``,
  ``job_p50_ms``, ``job_p90_ms`` and ``peak_rss_mb``.  Times are at
  reference speed: each is scaled by a calibration taken next to it, so
  that the host's slow and fast stretches cancel out (see ``speed.py``).
* ``--trace 1`` alternates untraced passes with passes in which every
  public layer function is wrapped (see ``tracing.py``) and reports the
  per-layer metrics of the fastest traced pass.
* ``--out DIR`` appends the run's record (metrics, samples, machine facts,
  answer digest) to ``DIR/results.jsonl`` and writes the traced spans to
  ``DIR/spans-<workload>-<seed>.tsv``.
* ``--compare OLD NEW`` prints, per workload and metric, the median and
  quartiles of two ``results.jsonl`` files and their ratio, and marks a
  metric unresolved when either spread is wider than its bound in
  ``BENCHMARK.json``.
* ``--smoke`` runs one pass over a small slice of the workload.

The first pass also checks every answer (untimed); later passes must give
the same answers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed job (an
exception, a failed check, or an answer that differs from the first pass)
makes the run exit with code 1.  All jobs run in this process with
``jobs=1``; the process-pool path of ``certify_dp3`` is not timed, since on
two shared cores its run-to-run spread exceeded any useful bound.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-dense", "cover-search", "cert-sparse")
MIN_PASSES = 3
SETUP_SAMPLES = 11
SHORT_JOB_S = 0.02
SHORT_JOB_CALLS = 9


def _import_program():
    """Import dpnull from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dpnull" / "__init__.py").is_file():
        raise ImportError(f"no dpnull sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dpnull

    if Path(dpnull.__file__).resolve().parent != (src / "dpnull").resolve():
        raise ImportError(f"dpnull imported from {dpnull.__file__}, not {src}")


# ---------------------------------------------------------------------------
# machine facts

def _loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": _loadavg(),
        "steal_ticks_start": _steal_ticks(),
    }


def finish_machine_facts(facts: dict) -> dict:
    steal = _steal_ticks()
    start = facts.pop("steal_ticks_start")
    facts["loadavg_end"] = _loadavg()
    facts["steal_ticks_delta"] = None if steal is None or start is None else steal - start
    return facts


# ---------------------------------------------------------------------------
# passes

class Ledger:
    """Answers of the first pass, failures, and counts reported by checks."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.failures: list[tuple[int, str, str]] = []
        self.counts: dict[str, int] = {}
        self.attempted = 0

    def digest(self, jobs) -> str:
        h = hashlib.sha256()
        for job in jobs:
            h.update(f"{job.name}\t{self.reference.get(job.name)}\n".encode())
        return h.hexdigest()


def _timed_call(job, inp, meter):
    """(answer, exception, start, end, seconds less the time in the meter)."""
    answer = error = None
    in_meter = meter.spent if meter is not None else 0.0
    t0 = time.perf_counter()
    try:
        answer = job.call(inp)
    except Exception as exc:  # a raising job is a failed job, not a crash
        error = exc
    t1 = time.perf_counter()
    if meter is not None:
        in_meter = meter.spent - in_meter
    return answer, error, t0, t1, t1 - t0 - in_meter


def _settle(ledger: Ledger, pass_no, job, inp, answer, error) -> None:
    """Check a first answer; compare later ones with it (untimed)."""
    ledger.attempted += 1
    if error is not None:
        ledger.failures.append((pass_no, job.name, f"raised {error!r}"))
        return
    try:
        text = job.answer(answer)
        if job.name not in ledger.reference:
            for key, value in (job.check(inp, answer) or {}).items():
                ledger.counts[key] = ledger.counts.get(key, 0) + value
            ledger.reference[job.name] = text
        elif ledger.reference[job.name] != text:
            ledger.failures.append((pass_no, job.name, "answer differs from the first pass"))
    except Exception as exc:
        ledger.failures.append((pass_no, job.name, f"check failed: {exc}"))


def run_pass(jobs, inputs, ledger: Ledger, pass_no: int, tracer=None, job_base=0,
             meter=None, timings=None) -> list[float]:
    """Time each job once; check answers outside the timed region.

    With a running speed.Meter, a job's time leaves out the time spent in
    the meter, a job is timed again on fresh inputs until its calls add up
    to SHORT_JOB_S (at most SHORT_JOB_CALLS calls in all), and the list of
    its calls' (start, end, seconds) is appended to `timings`.  Millisecond
    jobs thus get enough calls for a median, and seconds-long ones run once.
    """
    latencies = []
    gc.collect()
    for k, (job, inp) in enumerate(zip(jobs, inputs)):
        if tracer is not None:
            tracer.job_id = job_base + k
        answer, error, t0, t1, seconds = _timed_call(job, inp, meter)
        _settle(ledger, pass_no, job, inp, answer, error)
        latencies.append(seconds)
        if meter is None:
            continue
        calls = [(t0, t1, seconds)]
        while sum(c[2] for c in calls) < SHORT_JOB_S and len(calls) < SHORT_JOB_CALLS:
            inp = job.build()
            answer, error, t0, t1, seconds = _timed_call(job, inp, meter)
            _settle(ledger, pass_no, job, inp, answer, error)
            calls.append((t0, t1, seconds))
        timings.append(calls)
    return latencies


def _quantile(values, q: int, k: int) -> float:
    """k-th of the q-quantiles (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=q)[k - 1]


def _setup_sample(workload, seed) -> tuple[float, float, float]:
    """Start, end and length of the time from a fresh interpreter to the
    first job's inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return t0, t1, t1 - t0


def measure(workload, seed, seconds, smoke):
    """Untraced run: end-to-end metrics, in reference seconds (speed.py)."""
    import workloads

    jobs = workloads.make_jobs(workload, seed, smoke)
    ledger = Ledger()
    passes, setup = [], []
    with speed.Meter() as meter:
        deadline = time.perf_counter() + seconds
        while not passes or (not smoke and (len(passes) < MIN_PASSES or time.perf_counter() < deadline)):
            timings = []
            run_pass(jobs, [job.build() for job in jobs], ledger, len(passes),
                     meter=meter, timings=timings)
            passes.append(timings)
            # set-up samples are spread over the run, not taken back to back
            setup.append(_setup_sample(workload, seed))
        while len(setup) < (1 if smoke else SETUP_SAMPLES):
            setup.append(_setup_sample(workload, seed))
    # A job's latency in a pass is the median of its calls' times in
    # reference seconds, and its latency is the median over the passes.
    # Raw times on a shared host moved by up to 2x between stretches of the
    # same run; scaled by the calibrations taken during each call, they
    # kept within a few percent.  wall_s is the pass time these per-job
    # latencies add up to.
    reference = [[statistics.median(t * meter.scale(t0, t1) for t0, t1, t in calls)
                  for calls in timings] for timings in passes]
    setup_ref = [t * meter.scale(t0, t1) for t0, t1, t in setup]
    per_job = [statistics.median(p[k] for p in reference) for k in range(len(jobs))]
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "wall_s": (sum(per_job), "s"),
        "job_p50_ms": (1e3 * statistics.median(per_job), "ms"),
        "job_p90_ms": (1e3 * _quantile(per_job, 10, 9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": setup_ref, "setup_wall_s": [t for _, _, t in setup],
               "pass_wall_s": [sum(statistics.median(t for _, _, t in calls) for calls in timings)
                               for timings in passes],
               "pass_reference_s": [sum(p) for p in reference],
               "job_reference_s": reference,
               "calibration_s": {"median": statistics.median(meter.cal), "samples": len(meter.cal),
                                 "in_meter_s": meter.spent}}
    return jobs, ledger, metrics, samples


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def per_layer_metrics(counts, self_s, make_field_s, wall, untraced_wall, reproduce_work):
    c = lambda key: counts.get(key, 0)  # noqa: E731
    m = {}
    for name in ("poly.apply_factor_packed", "poly.Grid.coefficient", "poly.expand_packed",
                 "cover.f_dp_exhaustive", "cover.exact_dp_chromatic", "cover.h_coloring_search",
                 "cover.is_good_cover", "certify.certify_dp3", "certify.certify_order3_cover",
                 "certify.certify_good_cover", "certify.dp_chromatic_bounds",
                 "graphs.chromatic_number", "graphs.spanning_tree", "cli.run"):
        m[f"{name}.calls"] = (c(f"{name}.calls"), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    afp = "poly.apply_factor_packed"
    for key in ("terms_in", "terms_out", "peak_terms"):
        m[f"{afp}.{key}"] = (c(f"{afp}.{key}"), "count")
    m[f"{afp}.terms_per_s"] = (_rate(c(f"{afp}.terms_in"), self_s.get(afp, 0.0)), "1/s")
    grid = "poly.Grid.coefficient"
    m[f"{grid}.points"] = (c(f"{grid}.points"), "count")
    m[f"{grid}.points_per_s"] = (_rate(c(f"{grid}.points"), self_s.get(grid, 0.0)), "1/s")
    for name, key in (("cover.f_dp_exhaustive", "nodes"), ("cover.exact_dp_chromatic", "covers"),
                      ("cover.h_coloring_search", "nodes"), ("certify.certify_dp3", "patterns")):
        m[f"{name}.{key}"] = (c(f"{name}.{key}"), "count")
        m[f"{name}.{key}_per_s"] = (_rate(c(f"{name}.{key}"), self_s.get(name, 0.0)), "1/s")
    m["cover.f_dp_exhaustive.leaves"] = (c("cover.f_dp_exhaustive.leaves"), "count")
    m["cover.is_good_cover.nodes"] = (c("cover.is_good_cover.nodes"), "count")
    m["certify.certify_dp3.failing_patterns"] = (c("certify.certify_dp3.failing_patterns"), "count")
    for name in ("certify.certify_order3_cover", "certify.certify_good_cover"):
        m[f"{name}.certified_frac"] = (_rate(c(f"{name}.certified"), c(f"{name}.calls")), "ratio")
    m["certify.witness_points"] = (c("certify.witness_points"), "count")
    bounds = "certify.dp_chromatic_bounds"
    m[f"{bounds}.exact_frac"] = (_rate(c(f"{bounds}.exact"), c(f"{bounds}.calls")), "ratio")
    m["ff.make_field.calls"] = (c("ff.make_field.calls"), "count")
    m["ff.make_field.s"] = (make_field_s, "s")
    m["cli.reproduce.work"] = (reproduce_work, "count")
    m["budget.steps"] = (c("budget.steps"), "count")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_frac"] = (wall / untraced_wall - 1.0, "ratio")
    m["trace.unattributed_s"] = (wall - sum(v for k, v in self_s.items() if k != "ff.make_field"), "s")
    return m


def measure_traced(workload, seed, seconds, smoke):
    """Traced run: untraced and traced passes alternate; per-layer metrics
    come from the fastest traced pass, compared with the fastest untraced."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        jobs = workloads.make_jobs(workload, seed, smoke)
        inputs = [job.build() for job in jobs]
    finally:
        tracer.uninstall()
    setup_counts = dict(tracer.counts)
    ledger = Ledger()
    untraced, traced = [], []  # traced: (wall, first span, last span, counts)
    deadline = time.perf_counter() + seconds
    while True:
        pass_no = len(untraced) + len(traced)
        untraced.append(sum(run_pass(jobs, inputs, ledger, pass_no)))
        inputs = [job.build() for job in jobs]
        tracer.counts.clear()
        first = tracer.span_count()
        tracer.install()
        try:
            lat = run_pass(jobs, inputs, ledger, pass_no + 1, tracer,
                           job_base=len(traced) * len(jobs))
        finally:
            tracer.uninstall()
        traced.append((sum(lat), first, tracer.span_count(), dict(tracer.counts)))
        if smoke or time.perf_counter() >= deadline:
            break
        inputs = [job.build() for job in jobs]
    wall, first, last, counts = min(traced, key=lambda t: t[0])
    self_s = tracer.self_times(first, last)
    make_field_s = tracer.self_times(0, traced[0][1]).get("ff.make_field", 0.0) + self_s.get("ff.make_field", 0.0)
    counts["ff.make_field.calls"] = counts.get("ff.make_field.calls", 0) + setup_counts.get("ff.make_field.calls", 0)
    metrics = per_layer_metrics(counts, self_s, make_field_s, wall, min(untraced),
                                ledger.counts.get("cli.reproduce.work", 0))
    samples = {"untraced_wall_s": untraced, "traced_wall_s": [t[0] for t in traced]}
    return jobs, ledger, metrics, samples, tracer


# ---------------------------------------------------------------------------
# compare mode

def _load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(old_path, new_path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    series = {}
    for side, path in (("old", old_path), ("new", new_path)):
        for rec in _load_records(path):
            for name, metric in rec["metrics"].items():
                key = (rec["workload"], name)
                series.setdefault(key, {"old": [], "new": [], "unit": metric["unit"]})[side].append(metric["value"])
    print(f"{'workload':<13} {'metric':<40} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} {'new/old':>8}  verdict")
    for (workload, name), s in sorted(series.items()):
        if not s["old"] or not s["new"]:
            continue
        cells, spreads = [], []
        for side in ("old", "new"):
            vals = sorted(s[side])
            med = statistics.median(vals)
            q1, q3 = _quantile(vals, 4, 1), _quantile(vals, 4, 3)
            spreads.append((q3 - q1) / med if med else 0.0)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}")
        old_med, new_med = statistics.median(s["old"]), statistics.median(s["new"])
        ratio = new_med / old_med if old_med else float("nan")
        verdict = ""
        if name in bounds:
            bound, better = bounds[name]
            worse = ratio - 1 if better == "lower" else 1 - ratio
            if max(spreads) > bound:
                verdict = f"unresolved (spread {max(spreads):.3f} > bound {bound})"
            elif worse > bound:
                verdict = f"worse by more than {bound}"
            else:
                verdict = "within bound"
        print(f"{workload:<13} {name + ' [' + s['unit'] + ']':<40} {cells[0]:>34} {cells[1]:>34} {ratio:>8.4f}  {verdict}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required unless --compare is given")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    if args.setup_only:
        import workloads

        for job in workloads.make_jobs(args.workload, args.seed):
            job.build()
        print("ready", flush=True)
        return 0

    facts = machine_facts()
    tracer = None
    if args.trace:
        jobs, ledger, metrics, samples, tracer = measure_traced(
            args.workload, args.seed, args.seconds, args.smoke)
    else:
        jobs, ledger, metrics, samples = measure(args.workload, args.seed, args.seconds, args.smoke)
    facts = finish_machine_facts(facts)
    digest = ledger.digest(jobs)
    failed = len(ledger.failures)
    for pass_no, name, message in ledger.failures[:20]:
        print(f"FAILED pass {pass_no} {name}: {message}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(jobs), "attempted": ledger.attempted,
        "failed": failed, "failed_frac": failed / ledger.attempted, "digest": digest,
        "machine": facts, "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / "results.jsonl", "a") as f:
            f.write(json.dumps(record) + "\n")
        if tracer is not None:
            names = {b * len(jobs) + k: f"pass{b}:{job.name}"
                     for b in range(len(samples["traced_wall_s"])) for k, job in enumerate(jobs)}
            tracer.write_spans(args.out / f"spans-{args.workload}-{args.seed}.tsv", names)
    print(f"machine: {json.dumps(facts)}")
    print(f"jobs: {len(jobs)} attempted: {ledger.attempted} failed: {failed} "
          f"failed_frac: {failed / ledger.attempted}")
    print(f"digest: workload={args.workload} seed={args.seed} sha256={digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
