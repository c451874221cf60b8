"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_slice_emits_every_metric_with_its_unit(capsys, workload, trace):
    code, result, lines = _run(capsys, "--workload", workload, "--seed", "3",
                               "--smoke", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert any(line.startswith(f"digest: workload={workload} seed=3 sha256=") for line in lines)


def test_tampered_expected_count_fails_the_run(capsys, monkeypatch):
    run._import_program()
    import workloads

    patterns, failing = workloads.KNOWN_SWEEPS["C7^2"]
    monkeypatch.setitem(workloads.KNOWN_SWEEPS, "C7^2", (patterns, failing + 1))
    code, result, _ = _run(capsys, "--workload", "sweep-dense", "--smoke")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_traced_self_times_add_up_to_traced_wall(capsys):
    _, result, _ = _run(capsys, "--workload", "cert-sparse", "--smoke", "--trace", "1")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert m["trace.unattributed_s"] >= 0
    assert self_total + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["poly.Grid.coefficient.self_s"] > 0


def test_compare_reads_result_files(capsys, tmp_path):
    run.main(["--workload", "cover-search", "--smoke", "--out", str(tmp_path)])
    capsys.readouterr()
    assert run.main(["--compare", str(tmp_path / "results.jsonl"), str(tmp_path / "results.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "wall_s [s]" in out and "within bound" in out


def test_meter_takes_its_own_time_out_of_a_timed_span():
    import time

    import speed

    with speed.Meter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(meter.cal) >= 5
    assert 0 < meter.spent < t1 - t0
    assert meter.scale(t0, t1) > 0
