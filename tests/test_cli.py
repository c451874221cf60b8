"""Front-end behavior: exit codes, file round trips, and determinism."""
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dpnull import cli
from dpnull import cover as C
from dpnull import graphs as G
from dpnull import poly as pl


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_named_graph(capsys):
    code, out, _ = run_cli(
        ["coeff", "c6sq", "--signs", "1-2:+,1-3:+", "--target", "2,2,2,2,2,2", "--field", "3"],
        capsys,
    )
    assert code == 0
    assert "coefficient: 1" in out


def test_coeff_plain_polynomial_zero(capsys):
    code, out, _ = run_cli(
        ["coeff", "c6sq", "--target", "2,2,2,2,2,2", "--field", "3"], capsys
    )
    assert code == 0
    assert "coefficient: 0" in out


def test_coeff_bad_target_is_input_error(capsys):
    code, _, err = run_cli(
        ["coeff", "c3", "--target", "3,0,0", "--field", "3", "--method", "grid"], capsys
    )
    assert code == 2
    assert "expand" in err


def test_unknown_graph_name_is_input_error(capsys):
    code, _, err = run_cli(["coeff", "nosuch", "--target", "1"], capsys)
    assert code == 2
    assert "neither" in err


def test_graph_file_loading(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text(G.write_graph(G.cycle(4)))
    code, out, _ = run_cli(["coeff", str(p), "--target", "2,2,0,0", "--field", "3"], capsys)
    assert code == 0


def test_graph_file_diagnostics(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("p 3 1\ne 9 1\n")
    code, _, err = run_cli(["coeff", str(p), "--target", "1,1,1"], capsys)
    assert code == 2
    assert "line 2" in err


def test_make_cover_check_cover_round_trip(tmp_path, capsys):
    cov_path = tmp_path / "bad.cover"
    code, _, _ = run_cli(
        ["make-cover", "c6sq", "--bad-c3k", "2", "--out", str(cov_path)], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["check-cover", str(cov_path)], capsys)
    assert code == 1
    assert out.strip() == "none"
    # emitted file parses back to the same bytes
    text = cov_path.read_text()
    assert C.write_cover(C.read_cover(text)) == text


def test_make_cover_pattern_and_certify(tmp_path, capsys):
    cov_path = tmp_path / "c4.cover"
    code, _, _ = run_cli(
        ["make-cover", "c4", "--pattern", "default:-0", "--field", "3",
         "--out", str(cov_path)], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["check-cover", str(cov_path)], capsys)
    assert code == 0
    assert out.startswith("coloring:")
    code, out, _ = run_cli(["certify-cover", str(cov_path), "--mode", "order3"], capsys)
    assert code == 0
    assert "kind: order3-cover" in out and "verified: true" in out


def test_make_cover_lists(tmp_path, capsys):
    lists_path = tmp_path / "lists.txt"
    lists_path.write_text("# lists\n1 0\n2 0 1\n3 0 1\n")
    cov_path = tmp_path / "t.cover"
    code, _, _ = run_cli(
        ["make-cover", "p3", "--lists", str(lists_path), "--field", "2",
         "--out", str(cov_path)], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["check-cover", str(cov_path)], capsys)
    assert code == 0


def test_certify_cover_good_mode_renames_when_needed(tmp_path, capsys):
    # the identity cover of C_3 with vertex 2's labels swapped: bad-sum as
    # named, good again after renaming
    g = G.cycle(3)
    m = {(1, 2): {0: 1, 1: 0, 2: 2}, (2, 3): {0: 1, 1: 0, 2: 2},
         (1, 3): {0: 0, 1: 1, 2: 2}}
    cov = C.Cover(g, 3, tuple(tuple(range(3)) for _ in range(3)), m)
    p = tmp_path / "shift.cover"
    p.write_text(C.write_cover(cov))
    code, out, _ = run_cli(["certify-cover", str(p), "--mode", "good"], capsys)
    assert code == 0
    assert "renamed:" in out
    assert "witness-original-names:" in out
    # the back-translated witness must satisfy the original cover
    line = next(l for l in out.splitlines() if l.startswith("witness-original-names:"))
    witness = tuple(int(x) for x in line.split(":")[1].split(","))
    assert C.is_valid_transversal(cov, witness)


def test_certify_cover_good_mode_sound_negative(tmp_path, capsys):
    g = G.cycle(3)
    m = {(1, 2): {0: 0, 1: 1, 2: 2}, (2, 3): {0: 0, 1: 1, 2: 2},
         (1, 3): {0: 1, 1: 0, 2: 2}}
    cov = C.Cover(g, 3, tuple(tuple(range(3)) for _ in range(3)), m)
    p = tmp_path / "odd.cover"
    p.write_text(C.write_cover(cov))
    code, out, _ = run_cli(["certify-cover", str(p), "--mode", "good"], capsys)
    assert code == 1
    assert "not good" in out


def test_certify_dp3_cli(capsys):
    code, out, _ = run_cli(["certify-dp3", "k4,4-m2", "--spanning-tree"], capsys)
    assert code == 0
    assert "patterns-tested: 128" in out
    assert "verdict: chi_DP <= 3" in out


def test_certify_dp3_failure_exit(capsys):
    code, out, _ = run_cli(["certify-dp3", "k3,5", "--spanning-tree"], capsys)
    assert code == 1
    assert "verdict: not certified" in out
    assert "default:-" in out  # the all-minus pattern appears in the report


def test_chi_dp_report(capsys):
    code, out, _ = run_cli(["chi-dp", "c9sq"], capsys)
    assert code == 0
    assert "exact: 4" in out


def test_chi_dp_max_m_reports_greater(capsys):
    code, out, _ = run_cli(["chi-dp", "k4,4-m2", "--max-m", "2"], capsys)
    assert code == 0
    assert "chi_DP > 2" in out
    assert "lower: 3" in out and "upper: 4" in out


@pytest.mark.parametrize("max_m", ["3", "4"])
def test_chi_dp_max_m_settles_k44(max_m, capsys):
    # the exact search refutes m = 3, one below the upper bound 4, so
    # chi_DP(K_{4,4}) = 4 without walking the 4-fold covers
    code, out, err = run_cli(["chi-dp", "k4,4", "--max-m", max_m], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "lower: 4" in lines and "upper: 4" in lines and "exact: 4" in lines
    assert "chi_DP > 3" in out


def test_chi_dp_max_m_keeps_what_an_exhausted_search_refuted(capsys):
    # K_{4,6} has bounds 3..5; refuting m = 3 takes about 0.33 M budget
    # steps, and the budget then runs out at m = 4, so the lower bound is 4
    code, out, _ = run_cli(["chi-dp", "k4,6", "--max-m", "4", "--budget", "1300000"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "lower: 4" in lines and "upper: 5" in lines and "exact: unresolved" in lines
    assert out.endswith("ran out of budget at m = 4\n")


@pytest.mark.parametrize("command", [
    ["certify-dp3", "c4"], ["chi-dp", "c4"], ["check-cover", "missing.cover"],
    ["certify-cover", "missing.cover"], ["coeff", "c4", "--target", "2,2,0,0"],
])
@pytest.mark.parametrize("value", ["0", "-5", "ten"])
def test_budget_below_one_is_an_input_error(command, value, capsys):
    code, out, err = run_cli(command + ["--budget", value], capsys)
    assert code == 2
    assert out == "" and "--budget" in err and "Traceback" not in err


def test_budget_exit_code(capsys):
    code, _, err = run_cli(["certify-dp3", "k4,4-m2", "--budget", "10"], capsys)
    assert code == 3
    assert "budget" in err


def test_coeff_routes_share_one_budget(capsys):
    # c6sq over F_3: the expansion spends 184 steps, the grid 3^6 = 729
    argv = ["coeff", "c6sq", "--target", "2,2,2,2,2,2", "--field", "3", "--budget"]
    code, out, _ = run_cli(argv + ["914"], capsys)
    assert code == 0 and "coefficient: 0" in out
    code, out, err = run_cli(argv + ["913"], capsys)
    assert code == 3 and out == ""
    assert err == "error: budget exceeded while summing over a coefficient grid: 913 >= 913 steps\n"
    code, out, _ = run_cli(argv + ["730", "--method", "grid"], capsys)
    assert code == 0 and "coefficient: 0" in out
    code, _, err = run_cli(argv + ["184", "--method", "expand"], capsys)
    assert code == 3 and "expanding" in err


def test_repeated_runs_in_one_process_match_a_fresh_parser(capsys):
    # the parser is built once per process; each parse must still start
    # from its defaults and make a fresh --budget, so a budget spent by one
    # call cannot leak into the next
    coeff = ["coeff", "c6sq", "--target", "2,2,2,2,2,2", "--field", "3", "--budget"]
    calls = [
        coeff + ["914"],
        ["chi-dp", "cone(c4)"],
        coeff + ["913"],
        ["coeff", "nosuch", "--target", "1"],
        ["certify-dp3", "c7sq", "--spanning-tree"],
        ["certify-dp3", "k4,4", "--budget", "1000"],
        ["chi-dp", "c4", "--budget", "0"],
        coeff + ["914"],
        ["chi-dp", "k4", "--max-m", "3"],
        ["reproduce", "c6sq-coeffs"],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    assert [code for code, _, _ in fresh] == [0, 0, 3, 2, 1, 3, 2, 0, 0, 0]
    parser = cli._build_parser()
    assert [run_cli(argv, capsys) for argv in calls] == fresh
    assert cli._build_parser() is parser


def test_grid_sum_charges_every_grid_point(capsys):
    # 3^13 = 1,594,323 points, nearly all in skipped blocks; tick raises at
    # spent >= limit
    argv = ["coeff", "c13sq", "--target", ",".join(["2"] * 13), "--field", "3",
            "--method", "grid", "--budget"]
    code, out, _ = run_cli(argv + ["1594324"], capsys)
    assert code == 0 and out.endswith("coefficient: 0\n")
    code, out, err = run_cli(argv + ["1594323"], capsys)
    assert code == 3 and out == "" and "1594323 >= 1594323" in err


def test_dp3_budget_exit_code_with_empty_stdout(capsys):
    code, out, err = run_cli(["certify-dp3", "k4,4", "--budget", "1000"], capsys)
    assert code == 3
    assert "budget" in err and out == ""


def test_make_cover_bad_offset_is_input_error(capsys):
    code, _, err = run_cli(["make-cover", "c4", "--pattern", "1-2:+x"], capsys)
    assert code == 2
    assert "offset" in err


def test_check_cover_on_a_long_path(tmp_path, capsys):
    graph_path = tmp_path / "p1500.graph"
    graph_path.write_text(G.write_graph(G.path(1500)))
    cov_path = tmp_path / "p1500.cover"
    code, _, _ = run_cli(
        ["make-cover", str(graph_path), "--pattern", "default:-0", "--out", str(cov_path)],
        capsys,
    )
    assert code == 0
    code, out, err = run_cli(["check-cover", str(cov_path)], capsys)
    assert code == 0 and err == ""
    assert out.strip() == "coloring: " + ",".join(["0,1"] * 750)


def test_sweep_deeper_than_the_recursion_limit_exhausts_the_budget(capsys):
    # K_4 inside K_50 empties the map, and below it the sign tree of the
    # 1,176 co-forest edges is walked until the budget runs out
    code, out, err = run_cli(["certify-dp3", "k50", "--budget", "20000000"], capsys)
    assert code == 3
    assert out == "" and err.startswith("error: budget exceeded while sweeping sign patterns")


def test_chi_dp_on_a_long_path(capsys):
    code, out, err = run_cli(["chi-dp", "p1500"], capsys)
    assert code == 0 and err == ""
    assert "exact: 2" in out.splitlines()


def test_chi_dp_on_a_30000_vertex_path(capsys):
    # 3 | 30,000, but a path has n - 1 edges, not the 2n of C_n^2, so the
    # bounds build no cycle square; the upper bound needs the coloring
    # number, which is linear in n
    code, out, err = run_cli(["chi-dp", "p30000"], capsys)
    assert code == 0 and err == ""
    assert "exact: 2" in out.splitlines()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["certify-dp3", "k4,4", "--emit-all"],
         "835644b57e065eb38f63f59c54e199259750f70137ee5d8b5f5736d15d7f9628"),
        (["certify-dp3", "c7sq", "--spanning-tree", "--emit-all"],
         "6dffc1731dab1536a1e7289818731d4c6d281c15df890005a1d334ab05f8a0ce"),
    ],
    ids=("k44-all-edges", "c7sq-spanning-tree"),
)
def test_emit_all_output_is_pinned(argv, digest, capsys):
    # every certificate's pattern, monomial and coefficient, and every
    # failing pattern, as printed by the dict-map sweep; both graphs fail
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dead_terms_do_not_spend_the_budget(capsys):
    # C_13^2's spanning-tree sweep stores 2,304,630 terms when every
    # term is kept; dropping the terms that no remaining edge can extend
    # leaves 514,067 live ones in the sweep's factor order, so it fits a
    # budget of one million and prints the unbudgeted report byte for byte
    code, out, err = run_cli(
        ["certify-dp3", "c13sq", "--spanning-tree", "--budget", "1000000"], capsys
    )
    assert code == 1 and err == ""
    assert len(out.splitlines()) == 11125
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "42c6e4f08b91050d13a537df54dd4e5baa833986961a606ccb6cf1c722ae72cc"
    )


SRC = Path(cli.__file__).resolve().parents[1]
PATTERN_CLUES = SRC.parent / "scripts" / "pattern_clues.py"


def _env(**extra):
    """The environment of a child process that imports dpnull from SRC."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])),
        **extra)


def _first_line_then_close(argv, env):
    """Read the first stdout line of a child, close the pipe, and return
    (exit code, first line, stderr)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), first, err


def test_importing_the_cli_builds_no_parser():
    probe = "from dpnull import cli; print(cli._build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=_env(), timeout=120, check=True).stdout
    assert out == "0\n"


def test_closed_stdout_pipe_exits_quietly():
    code, first, err = _first_line_then_close(
        [sys.executable, "-m", "dpnull.cli", "certify-dp3", "k4,4", "--emit-all"], _env()
    )
    assert code == 141
    assert first == b"kind: dp3-sweep\n"
    assert err == b""


def test_pattern_clues_bad_graph_is_an_input_error():
    proc = subprocess.run([sys.executable, str(PATTERN_CLUES), "nosuch"],
                          capture_output=True, env=_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr


def test_pattern_clues_closed_stdout_pipe_exits_quietly():
    # one line per failing pattern, 2336 of them: far more than a pipe
    # buffer holds, so the script writes after the pipe is closed
    code, first, err = _first_line_then_close(
        [sys.executable, str(PATTERN_CLUES), "c6sq", "--limit", "4096"],
        _env(PYTHONUNBUFFERED="1"),
    )
    assert code == 141
    assert first == b"2336 failing patterns of 4096\n"
    assert err == b""


def test_expansion_limit_is_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(pl, "DEFAULT_MAX_TERMS", 5)
    code, out, err = run_cli(
        ["coeff", "k5", "--target", "2,2,2,2,2", "--field", "3", "--method", "expand"], capsys
    )
    assert code == 3
    assert out == "" and err.startswith("error: expansion map reached")


def test_reproduce_single_scenario(capsys):
    code, out, _ = run_cli(["reproduce", "c6sq-coeffs"], capsys)
    assert code == 0
    assert "c6sq-coeffs" in out and "PASS" in out
    assert out.strip().endswith("1/1 scenarios passed")


def test_reproduce_unknown_scenario(capsys):
    code, _, err = run_cli(["reproduce", "nope"], capsys)
    assert code == 2
    assert "known" in err


def test_reproduce_deterministic_bytes(capsys):
    fast = ["at-even-cycle", "cone-bipartite", "c6sq-coeffs", "c3k-bad-cover"]
    outs = []
    for _ in range(2):
        lines = []
        for name in fast:
            code, out, _ = run_cli(["reproduce", name], capsys)
            assert code == 0
            lines.append(out)
        outs.append("".join(lines))
    assert outs[0] == outs[1]


def test_reproduce_all_output_is_pinned(capsys):
    # every row, work= column included: cone-even-cycle-f walks 1,296
    # covers because its BFS forest pins the edges out of the cone vertex
    code, out, _ = run_cli(["reproduce", "all", "--seed", "0"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "815af8310a080e993b301942bc823a562690de7c3905d8ef2507f26c0068646f"
    )


def test_scenario_registry_contains_required_names():
    names = {s.name for s in cli.scenario_registry()}
    assert {
        "tree-dp2", "at-even-cycle", "cone-bipartite", "cone-even-cycle-f",
        "cone-unique3-k2p5", "unique-list-tree", "k44-minus-matching",
        "k35-zero", "c6sq-coeffs", "c3k-bad-cover", "cycle-squares",
    } <= names


def test_sign_spec_parser_round_trip():
    g = G.cycle_power(6, 2)
    signs = cli.parse_sign_spec("1-2:+,1-3:+,default:-", g.edges)
    assert signs[(1, 2)] == 1 and signs[(1, 3)] == 1
    assert all(signs[e] == -1 for e in g.edges if e not in {(1, 2), (1, 3)})
    pattern = tuple(signs[e] for e in g.edges)
    assert cli.parse_sign_spec(cli.format_pattern(g.edges, pattern), g.edges) == signs


def test_pattern_spec_with_offsets():
    g = G.cycle(3)
    signs, offsets = cli.parse_pattern_spec("1-2:+2,default:-1", g.edges)
    assert signs == {(1, 2): 1, (1, 3): -1, (2, 3): -1}
    assert offsets == {(1, 2): 2, (1, 3): 1, (2, 3): 1}


# ---------------------------------------------------------------------------
# malformed spec values: a clean input error, never a crash

C4_EDGES = ("1-2", "1-4", "2-3", "3-4")
NO_DIGITS = "abxyz+-.*/ "  # int() rejects every string over these characters
SIGNS = st.sampled_from("+-")


def spliced(good, bad):
    """Comma-joined tokens: some valid ones with one malformed token."""
    return st.tuples(st.lists(good, max_size=4), bad, st.integers(0, 4)).map(
        lambda t: ",".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:]))


def malformed_edge_tokens(value):
    """Tokens that fail before their value is read: no colon, a key that is
    not an `i-j` pair of integers, or a pair that is not an edge of C_4."""
    no_colon = st.text(NO_DIGITS + "0123456789", min_size=1).filter(str.strip)
    bad_key = st.text(NO_DIGITS).map(lambda k: f"{k}:{value}")
    non_edge = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
        lambda p: f"{min(p)}-{max(p)}" not in C4_EDGES).map(lambda p: f"{p[0]}-{p[1]}:{value}")
    return st.one_of(no_colon, bad_key, non_edge)


sign_tokens = st.one_of(
    st.tuples(st.sampled_from(C4_EDGES + ("default",)), SIGNS).map(":".join), st.just(""))
bad_sign_values = st.text(NO_DIGITS + "0123456789:").filter(lambda v: v.strip() not in ("+", "-"))
bad_sign_tokens = st.one_of(
    malformed_edge_tokens("+"),
    st.tuples(st.sampled_from(C4_EDGES + ("default",)), bad_sign_values).map(":".join))

pattern_tokens = st.tuples(
    st.sampled_from(C4_EDGES + ("default",)), SIGNS, st.sampled_from(("", "0", "1", "2")),
).map(lambda t: f"{t[0]}:{t[1]}{t[2]}")
bad_pattern_values = st.one_of(
    st.just(""),
    st.text(NO_DIGITS + "0123456789", min_size=1).filter(lambda v: v[0] not in "+-"),
    st.tuples(SIGNS, st.text(NO_DIGITS).filter(str.strip)).map("".join))
bad_pattern_tokens = st.one_of(
    malformed_edge_tokens("+0"),
    st.tuples(st.sampled_from(C4_EDGES + ("default",)), bad_pattern_values).map(":".join))

bad_targets = st.tuples(
    st.lists(st.sampled_from("012"), min_size=3, max_size=3), st.text(NO_DIGITS), st.integers(0, 3),
).map(lambda t: ",".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:]))

malformed_argv = st.one_of(
    spliced(sign_tokens, bad_sign_tokens).map(
        lambda spec: ["coeff", "c4", f"--signs={spec}", "--target=1,1,1,1"]),
    spliced(pattern_tokens, bad_pattern_tokens).map(
        lambda spec: ["make-cover", "c4", f"--pattern={spec}", "--field=3"]),
    bad_targets.map(lambda target: ["coeff", "c4", f"--target={target}"]),
)


@settings(max_examples=150, deadline=None)
@given(malformed_argv)
def test_malformed_spec_values_are_input_errors(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code == 2, (argv, out.getvalue())
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()
