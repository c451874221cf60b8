"""Front-end behavior: exit codes, file round trips, and determinism."""
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dpnull import certify as ce
from dpnull import cli
from dpnull import cover as C
from dpnull import graphs as G
from dpnull import poly as pl
from dpnull.budget import Budget
from dpnull.errors import FormatError, PreconditionError
from dpnull.ff import make_field
from test_certify import ref_certify_dp3
from test_cover import COVER_TEXT, GRAPH_TEXT


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


@pytest.mark.parametrize("method", ["expand", "grid"])
def test_coeff_negative_target_exponent_is_rejected_before_the_route_runs(method, capsys):
    # a one-step budget: a route that ran would exhaust it and exit 3
    code, _, err = run_cli(
        ["coeff", "k3", "--target=-1,2,2", "--method", method, "--budget", "1"], capsys
    )
    assert code == 2
    assert err == "error: target exponent -1 at variable 1 is negative\n"


@pytest.mark.parametrize("method", ["expand", "grid", "both"])
def test_coeff_target_exponent_above_15_is_rejected_before_the_route_runs(method, capsys):
    # 16 would carry into the next variable's packed slot; a one-step
    # budget shows that no route ran
    code, _, err = run_cli(
        ["coeff", "p2", "--target=0,16", "--method", method, "--budget", "1"], capsys
    )
    assert code == 2
    assert err == "error: target exponent 16 at variable 2 exceeds the packed exponent range 0..15\n"


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


@pytest.mark.parametrize("mode", ["good", "order3"])
def test_certify_cover_exits_1_when_every_qualifying_coefficient_vanishes(mode, tmp_path, capsys):
    # the identity cover of K_{3,5} is good as named, and chi_DP(K_{3,5})
    # <= 3, but the all-minus pattern fails the sign sweep
    cov_path = tmp_path / "k35.cover"
    code, _, _ = run_cli(
        ["make-cover", "k3,5", "--pattern", "default:-0", "--out", str(cov_path)], capsys
    )
    assert code == 0
    code, out, err = run_cli(["certify-cover", str(cov_path), "--mode", mode], capsys)
    assert code == 1 and err == ""
    assert out == "not certified: every qualifying coefficient vanishes\n"


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


def test_chi_dp_settles_k34_by_the_orbit_gate(capsys):
    # 46,656 covers at m = 3, but the walk visits one per conjugation
    # orbit, 8,051 of them, within the gate of 20,000
    code, out, err = run_cli(["chi-dp", "k3,4"], capsys)
    assert code == 0 and err == ""
    assert "exact: 3" in out.splitlines()
    assert "note: component 1 (7 vertices): exact search over 46656 covers gives 3" in out


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


@pytest.mark.parametrize("argv, message", [
    (["chi-dp", "k4", "--max-m", "x"], "argument --max-m: invalid int value: 'x'"),
    (["certify-dp3", "k4", "--budget", "0"], "argument --budget: must be at least 1, got 0"),
    (["certify-dp3"], "the following arguments are required: graph"),
    (["frob"], None),
    (["coeff", "p3", "--target", "-1,2,1"], "argument --target: expected one argument"),
    ([], "the following arguments are required: command"),
], ids=["max-m-not-int", "budget-0", "no-graph", "unknown-subcommand", "dash-target", "no-command"])
def test_argument_errors_are_one_error_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["-h"], ["certify-dp3", "-h"]])
def test_help_still_exits_0(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and out.startswith("usage: dpnull") and err == ""


def test_empty_graph_argument_is_named(capsys):
    # "" is not the current directory
    code, out, err = run_cli(["coeff", "", "--target=0"], capsys)
    assert code == 2 and out == ""
    assert err == "error: '' is neither a readable file nor a known family name\n"


def test_join_with_a_complete_bipartite_part_is_swept(capsys):
    code, out, err = run_cli(["certify-dp3", "join(k2,3,p2)"], capsys)
    assert code == 1 and err == ""  # a sound negative, not an input error
    assert out.startswith("kind: dp3-sweep\ngraph: n=7 m=17\n")


def test_budget_exit_code(capsys):
    code, _, err = run_cli(["certify-dp3", "k4,4-m2", "--budget", "10"], capsys)
    assert code == 3
    assert "budget" in err


def test_coeff_routes_share_one_budget(capsys):
    # c6sq over F_3: the exact read of the expansion spends 62 steps (184
    # for the full map within caps), the grid 3^6 = 729
    argv = ["coeff", "c6sq", "--target", "2,2,2,2,2,2", "--field", "3", "--budget"]
    code, out, _ = run_cli(argv + ["792"], capsys)
    assert code == 0 and "coefficient: 0" in out
    code, out, err = run_cli(argv + ["791"], capsys)
    assert code == 3 and out == ""
    assert err == "error: budget exceeded while summing over a coefficient grid: 791 >= 791 steps\n"
    code, out, _ = run_cli(argv + ["730", "--method", "grid"], capsys)
    assert code == 0 and "coefficient: 0" in out
    code, out, _ = run_cli(argv + ["63", "--method", "expand"], capsys)
    assert code == 0 and "coefficient: 0" in out
    code, _, err = run_cli(argv + ["62", "--method", "expand"], capsys)
    assert code == 3 and "expanding" in err


def test_repeated_runs_in_one_process_match_a_fresh_parser(capsys):
    # the parser is built once per process; each parse must still start
    # from its defaults and make a fresh --budget, so a budget spent by one
    # call cannot leak into the next
    coeff = ["coeff", "c6sq", "--target", "2,2,2,2,2,2", "--field", "3", "--budget"]
    calls = [
        coeff + ["792"],
        ["chi-dp", "cone(c4)"],
        coeff + ["791"],
        ["coeff", "nosuch", "--target", "1"],
        ["certify-dp3", "c7sq", "--spanning-tree"],
        ["certify-dp3", "k4,4", "--budget", "1000"],
        ["chi-dp", "c4", "--budget", "0"],
        coeff + ["792"],
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


@pytest.mark.parametrize("argv, message", [
    # --bad-c3k builds C_{3K}^2's cover, so the graph argument must be C_{3K}^2
    (["make-cover", "k3", "--bad-c3k", "2"], "--bad-c3k 2 needs the graph C_6^2, got 'k3'"),
    # K = 0 is a value given, not a missing option
    (["make-cover", "c6sq", "--bad-c3k", "0"], "the construction needs k >= 2, got k=0"),
    # --field 0 is a field order given, not the default 3
    (["make-cover", "c4", "--pattern", "default:-0", "--field", "0"],
     "field order must be at least 2, got 0"),
    (["chi-dp", "k4,4", "--max-m", "-5"], "max_m must be at least 1, got -5"),
    # an empty file name is a value given, not the current directory
    (["make-cover", "c4", "--lists", ""], "--lists needs a file name, got ''"),
], ids=["bad-c3k-graph", "bad-c3k-0", "field-0", "max-m-negative", "lists-empty"])
def test_out_of_range_values_are_input_errors(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("graph, k, built", [("c6sq", 3, 0), ("c6sq", 10**9, 0), ("k6", 2, 1)])
def test_bad_c3k_builds_no_cover_for_a_graph_of_another_order(graph, k, built, monkeypatch,
                                                              capsys):
    # C_{3k}^2 grows with k, so only a graph on 3k vertices is worth
    # building it for; one of that order but another shape is still refused
    build = C.uncolorable_cover_c3k_square
    calls = []
    monkeypatch.setattr(C, "uncolorable_cover_c3k_square", lambda k: calls.append(k) or build(k))
    code, out, err = run_cli(["make-cover", graph, "--bad-c3k", str(k)], capsys)
    assert calls == [k] * built
    assert code == 2 and out == ""
    assert err == f"error: --bad-c3k {k} needs the graph C_{3 * k}^2, got '{graph}'\n"


@pytest.mark.parametrize("name, text, argv, message", [
    # vertex numbers lie in 1..n: neither file may drop or add a vertex
    ("l0.cover", "cover t=3\nL 0 0 1 2\nL 1 0 1 2\n", ["check-cover", "l0.cover"],
     "line 2: label record for vertex 0, vertices start at 1"),
    ("lists.txt", "1 0 1\n2 0 1\n3 0 1\n4 0 1\n9 5 6\n",
     ["make-cover", "c4", "--lists", "lists.txt"],
     "need a list for exactly the vertices 1..4: missing [], extra [9]"),
], ids=["cover-vertex-0", "list-for-a-non-vertex"])
def test_malformed_input_files_are_input_errors(name, text, argv, message, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_a_failed_internal_check_exits_2_without_a_traceback(tmp_path, monkeypatch, capsys):
    # exit 1 is a sound negative, so a failed check must not escape `run`
    cov_path = tmp_path / "c6sq.cover"
    code, _, _ = run_cli(["make-cover", "c6sq", "--pattern", "1-2:+0,1-3:+0,default:-0",
                          "--out", str(cov_path)], capsys)
    assert code == 0
    monkeypatch.setattr(ce, "is_valid_transversal", lambda cover, choice: False)
    code, out, err = run_cli(["certify-cover", str(cov_path), "--mode", "order3"], capsys)
    assert code == 2 and out == ""
    assert err == "internal consistency failure: extracted witness is not a valid transversal\n"


@pytest.mark.parametrize("options, named", [
    (["--bad-c3k", "2", "--pattern", "1-2:+0"], ", got --bad-c3k, --pattern"),
    (["--pattern", "default:-0", "--lists", "lists.txt"], ", got --pattern, --lists"),
    (["--bad-c3k", "2", "--pattern", "", "--lists", "lists.txt"],
     ", got --bad-c3k, --pattern, --lists"),
    ([], ""),
], ids=["bad-c3k-and-pattern", "pattern-and-lists", "all-three", "none"])
def test_make_cover_takes_exactly_one_mode(options, named, capsys):
    code, out, err = run_cli(["make-cover", "c6sq", *options], capsys)
    assert code == 2 and out == ""
    assert err == f"error: make-cover needs exactly one of --pattern, --bad-c3k and --lists{named}\n"


def test_make_cover_empty_pattern_is_the_all_default_pattern(capsys):
    # an empty spec is a spec given: every edge takes the default -0
    code, out, err = run_cli(["make-cover", "c4", "--pattern", ""], capsys)
    assert code == 0 and err == ""
    assert out == C.write_cover(C.cover_from_pattern(G.cycle(4), 3))


@pytest.mark.parametrize("graph", ["k0", "e0"])
@pytest.mark.parametrize("mode", [["--pattern="], ["--bad-c3k=2"], ["--lists=lists.txt"]],
                         ids=["pattern", "bad-c3k", "lists"])
def test_make_cover_refuses_a_graph_with_no_vertices(graph, mode, tmp_path, capsys, monkeypatch):
    # a cover with no label records is one check-cover refuses, so the
    # graph is refused as chi-dp refuses it, and nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lists.txt").write_text("1 0 1\n")
    code, out, err = run_cli(["make-cover", graph, *mode, "--out=out.cover"], capsys)
    assert (code, out, err) == (2, "", "error: the graph must have at least one vertex\n")
    assert not (tmp_path / "out.cover").exists()
    code, out, err = run_cli(["make-cover", graph, *mode], capsys)
    assert (code, out, err) == (2, "", "error: the graph must have at least one vertex\n")


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
CYCLE_SQUARE_TABLE = SRC.parent / "scripts" / "cycle_square_table.py"


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


def test_cycle_square_table_closed_stdout_pipe_exits_quietly():
    # the header comes first; the rows follow after the pipe is closed.
    # Up to n = 900 the table is 75,634 bytes, more than the reader's
    # buffer and a 64 KiB pipe hold, so some row is written after the close
    code, first, err = _first_line_then_close(
        [sys.executable, str(CYCLE_SQUARE_TABLE), "--max-n", "900"],
        _env(PYTHONUNBUFFERED="1"),
    )
    assert code == 141
    assert first == b"  n  chi  chi_DP  derivation\n"
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


def ref_random_target(rng, n, cap, total):
    """The rejection sampler expand-grid-random drew its targets with: a
    uniform vector of {0..cap}^n, drawn again until it sums to at least
    total, cut down as _random_target cuts."""
    while True:
        cuts = [rng.randint(0, cap) for _ in range(n)]
        s = sum(cuts)
        if s == total:
            return tuple(cuts)
        if s > total:
            over = s - total
            for pos in rng.sample(range(n), n):
                take = min(over, cuts[pos])
                cuts[pos] -= take
                over -= take
                if over == 0:
                    return tuple(cuts)


class _Fork(Exception):
    def __init__(self, options):
        self.options = options


class _Retry(Exception):
    pass


class _Replay:
    """A stand-in for random.Random that returns the outcomes `path` names,
    one per call, and raises _Fork with the number of outcomes of the
    first call past the path.  A call of randint past the first `rounds`
    raises _Retry: the sampler has started its draw again."""

    def __init__(self, path, rounds):
        self.path = iter(path)
        self.rounds = rounds

    def _pick(self, options):
        options = list(options)
        i = next(self.path, None)
        if i is None:
            raise _Fork(len(options))
        return options[i]

    def randint(self, a, b):
        self.rounds -= 1
        if self.rounds < 0:
            raise _Retry
        return self._pick(range(a, b + 1))

    def choice(self, seq):
        return self._pick(seq)

    def sample(self, population, k):
        assert k == len(population)
        return list(self._pick(permutations(population)))


def _exact_distribution(sample, rounds):
    """{output: probability} of sample(rng) over every run of outcomes,
    each uniform among its call's options; the mass of the runs that start
    their draw again is spread in proportion, as a retry does."""
    dist = Counter()
    retried = Fraction(0)
    stack = [((), Fraction(1))]
    while stack:
        path, p = stack.pop()
        try:
            out = sample(_Replay(path, rounds))
        except _Fork as fork:
            stack += [(path + (i,), p / fork.options) for i in range(fork.options)]
        except _Retry:
            retried += p
        else:
            dist[out] += p
    return {out: p / (1 - retried) for out, p in dist.items()}


def test_random_target_draws_what_the_rejection_sampler_drew():
    """expand-grid-random's direct draw has the exact output distribution
    of the rejection sampler it replaced, for n <= 4 and every total."""
    for n in range(1, 5):
        for total in range(2 * n + 1):
            draws = [v for v in product(range(3), repeat=n) if sum(v) >= total]
            want = _exact_distribution(lambda rng: ref_random_target(rng, n, 2, total), n)
            got = _exact_distribution(lambda rng: cli._random_target(rng, draws, total), n)
            assert got == want, (n, total)
            assert sum(got.values()) == 1 and all(sum(t) == total for t in got)


def test_scenario_registry_contains_required_names():
    assert {
        "tree-dp2", "at-even-cycle", "cone-bipartite", "cone-even-cycle-f",
        "cone-unique3-k2p5", "unique-list-tree", "k44-minus-matching",
        "k35-zero", "c6sq-coeffs", "c3k-bad-cover", "cycle-squares",
    } <= set(cli.SCENARIOS)
    assert all(run.__doc__ for run in cli.SCENARIOS.values())


def test_sign_spec_parser_round_trip():
    g = G.cycle_power(6, 2)
    signs = cli.parse_sign_spec("1-2:+,1-3:+,default:-", g.edges)
    assert signs[(1, 2)] == 1 and signs[(1, 3)] == 1
    assert all(signs[e] == -1 for e in g.edges if e not in {(1, 2), (1, 3)})
    pattern = tuple(signs[e] for e in g.edges)
    assert cli.parse_sign_spec(cli.pattern_spec(g.edges, pattern), g.edges) == signs


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


def _at_most_12_edges(name):
    g = G.parse_graph_name(name)
    return g is None or len(g.edges) <= 12


# graph names for the certify-dp3 contract: small families, nested in cones
# and joins, k{a},{b} parts included, kept to at most 12 edges so every
# all-edges sweep stays small
sweep_leaf_names = st.one_of(
    st.integers(1, 5).map("p{}".format),
    st.integers(3, 6).map("c{}".format),
    st.integers(4, 6).map("c{}sq".format),
    st.integers(1, 4).map("k{}".format),
    st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda t: "k{},{}".format(*t)),
    st.just("k3,3-m1"),
    st.integers(1, 3).map("e{}".format),
)
sweep_graph_names = st.recursive(
    sweep_leaf_names,
    lambda inner: st.one_of(inner.map("cone({})".format),
                            st.tuples(inner, inner).map(lambda t: "join({},{})".format(*t))),
    max_leaves=3,
).filter(_at_most_12_edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sweep_graph_names, st.booleans(), st.booleans(), st.data())
def test_certify_dp3_keeps_the_exit_code_contract(name, tree, emit_all, data):
    """certify-dp3 on family names with either mode, with or without
    --emit-all, and with no budget or one from 1 to the sweep's spend + 1:
    the exit code is 0, 1, 2 or 3; on 2 or 3 stderr is one error: line and
    stdout is empty; a budget runs out exactly when it does not exceed the
    spend; and on graphs with n <= 6 the verdict, the failing-pattern
    count and the emitted certificates agree with ref_certify_dp3."""
    g = G.parse_graph_name(name)
    spend = None  # the sweep's spend, None where the input is refused
    if g is not None:
        used = Budget(10**9)
        with contextlib.suppress(PreconditionError):
            ce.certify_dp3(g, use_spanning_tree=tree, budget=used)
            spend = used.spent
    argv = ["certify-dp3", name] + ["--spanning-tree"] * tree + ["--emit-all"] * emit_all
    limit = data.draw(st.one_of(st.none(), st.integers(1, (spend or 1) + 1)), label="budget")
    if limit is not None:
        argv.append(f"--budget={limit}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if spend is None:
        assert code == 2, argv
    elif limit is not None and limit <= spend:
        assert code == 3, argv
    else:
        assert code in (0, 1), argv
    if code in (0, 1) and g.n <= 6:
        certs, failing = ref_certify_dp3(g, tree, Budget(10**9))
        assert code == (1 if failing else 0), argv
        if failing:
            assert f"failing-patterns: {len(failing)}\n" in out
        else:
            emitted = out.count("kind: dp3-pattern\n")
            assert emitted == (len(certs) if emit_all else min(1, len(certs))), argv


# ---------------------------------------------------------------------------
# the exit-code contract of the other subcommands

def _colorable_by_brute_force(cov):
    """Whether some choice of one label per vertex avoids every matched
    pair, trying every choice."""
    return any(
        all(sigma.get(choice[i - 1]) != choice[j - 1] for (i, j), sigma in cov.matchings.items())
        for choice in product(*cov.labels))


def _at_most_7_vertices(name):
    g = G.parse_graph_name(name)
    return g is None or g.n <= 7


small_graph_names = sweep_graph_names.filter(_at_most_7_vertices)
bad_graph_names = st.sampled_from(
    ("", "k0", "e0", "c2", "q5", "join(p2)", "join(e2,3)", "cone()", "k2,3-m5"))
flag_values = st.sampled_from(("", "x", "1.5", "3,3", *map(str, range(-2, 21))))
budgets = (st.integers(1, 20_000) | st.sampled_from((None, None, None, "0", "x"))).map(
    lambda b: [] if b is None else [f"--budget={b}"])


def _graph_arg(draw, tmp):
    """A family name, a malformed one, or a graph file edited as in the
    reader property."""
    kind = draw(st.integers(0, 5))
    if kind:
        return draw(small_graph_names if kind > 1 else bad_graph_names)
    path = tmp / "g.graph"
    path.write_text(draw(GRAPH_TEXT))
    return str(path)


def _cover_file(draw, tmp):
    """A cover of a small graph under a drawn pattern and field, C_6^2's
    uncolorable one, or a cover file edited as in the reader property."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        text = draw(COVER_TEXT)
    elif kind == 1:
        text = C.write_cover(C.uncolorable_cover_c3k_square(2))
    else:
        g = G.parse_graph_name(draw(small_graph_names))
        t = draw(st.sampled_from((2, 3, 4, 5)))
        # a +1 sign (a sum-constant matching) needs order 3
        signs = {e: draw(st.sampled_from((-1, 1) if t == 3 else (-1,))) for e in g.edges}
        offsets = {e: draw(st.integers(0, t - 1)) for e in g.edges}
        text = C.write_cover(C.cover_from_pattern(g, t, signs, offsets))
    path = tmp / "c.cover"
    path.write_text(text)
    return str(path)


def _orientation_target(draw, g):
    """The outdegrees of a drawn orientation of g: they sum to |E|, the
    grid route's degree."""
    bits = draw(st.lists(st.booleans(), min_size=len(g.edges), max_size=len(g.edges)))
    return ",".join(map(str, G.Orientation(g, tuple(bits)).outdegrees()))


def _coeff_argv(draw, tmp):
    if draw(st.booleans()):  # a well-formed call: both routes run and must agree
        name = draw(small_graph_names)
        target = _orientation_target(draw, G.parse_graph_name(name))
        return ["coeff", name, f"--target={target}", f"--field={draw(st.sampled_from((3, 5, 7)))}"]
    name = _graph_arg(draw, tmp)
    try:
        g = cli.load_graph(name)
    except (FormatError, G.GraphError, OSError):
        g = G.path(3)  # the run exits 2 whatever the target
    target = draw(st.one_of(
        st.just(_orientation_target(draw, g)),
        st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n).map(lambda t: ",".join(map(str, t))),
        bad_targets))
    argv = ["coeff", name, f"--target={target}"]
    argv += draw(st.lists(st.one_of(
        st.sampled_from((2, 3, 4, 5, 7, 0, 20, "x")).map("--field={}".format),
        st.sampled_from(("expand", "grid", "both", "x")).map("--method={}".format),
        st.sampled_from(("default:+", "1-2:+,default:-", "", "x")).map("--signs={}".format),
    ), max_size=2))
    return argv + draw(budgets)


def _make_cover_argv(draw, tmp):
    argv = ["make-cover", _graph_arg(draw, tmp)]
    # mostly one mode, as make-cover needs, sometimes none or two
    modes = draw(st.sampled_from(("p", "b", "l", "p", "b", "l", "", "pb", "pl", "bl")))
    if "p" in modes:
        argv.append(f"--pattern={draw(st.sampled_from(('default:-0', '1-2:+1', '', '1-2:x')))}")
    if "b" in modes:
        argv.append(f"--bad-c3k={draw(flag_values)}")
    if "l" in modes:
        lists = tmp / "lists.txt"
        lists.write_text("".join(
            f"{v} {' '.join(map(str, draw(st.lists(st.integers(0, 5), max_size=3))))}\n"
            for v in range(1, draw(st.integers(0, 8)) + 1)))
        argv.append(f"--lists={lists}")
    if draw(st.booleans()):
        argv.append(f"--field={draw(flag_values)}")
    return argv


# the subcommands that draw their budget in the test, from the run's spend
SPEND_BUDGETS = ("certify-cover", "certify-dp3", "check-cover", "chi-dp")
CONTRACT_ARGV = {
    "coeff": _coeff_argv,
    "certify-cover": lambda draw, tmp: (
        ["certify-cover", _cover_file(draw, tmp)]
        + draw(st.sampled_from(([], ["--mode=good"], ["--mode=order3"], ["--mode=x"])))),
    "certify-dp3": lambda draw, tmp: (
        ["certify-dp3", _graph_arg(draw, tmp)] + draw(st.sampled_from(([], ["--spanning-tree"])))),
    "chi-dp": lambda draw, tmp: (
        ["chi-dp", _graph_arg(draw, tmp)]
        + draw(st.one_of(st.just([]), flag_values.map(lambda m: [f"--max-m={m}"])))),
    "make-cover": _make_cover_argv,
    "check-cover": lambda draw, tmp: ["check-cover", _cover_file(draw, tmp)],
    "reproduce": lambda draw, tmp: (
        ["reproduce", draw(st.sampled_from(("all", "x", "", *cli.SCENARIOS)))]
        + draw(st.one_of(st.just([]), flag_values.map(lambda s: [f"--seed={s}"])))),
}


def _ample_run(argv):
    """(exit code, stdout, spend) of argv under a budget it cannot exhaust,
    or None when the parser refuses argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli._build_parser().parse_args(argv)
        except SystemExit:
            return None
        args.budget = Budget(10**12)
        code = cli.exit_code(args.fn, args)
    return code, out.getvalue(), args.budget.spent


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CONTRACT_ARGV)), st.data())
def test_every_subcommand_keeps_the_exit_code_contract(command, data):
    """coeff, certify-cover, certify-dp3 in both modes, chi-dp,
    make-cover, check-cover and reproduce on family names, malformed
    names, edited graph and cover files, malformed flag values and
    budgets: the exit code is 0, 1, 2 or 3; on 2 or 3 stderr is one
    error: line and stdout is empty, so coeff's two routes never
    disagree; and on covers of graphs with n <= 7, check-cover's verdict
    agrees with a brute-force search, and certify-cover certifies only
    covers that the search colors.

    certify-cover, certify-dp3, check-cover and chi-dp draw no budget or
    one from 1 to the run's full spend + 1.  A budget above the spend
    prints the full run's output; one that does not exceed it makes the
    first three exit 3, while chi-dp, whose bounds catch an exhausted
    budget, exits 0 with a note that differs from the full run's."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = CONTRACT_ARGV[command](data.draw, Path(tmp))
        full = limit = None
        if command in SPEND_BUDGETS:
            full = _ample_run(argv)
            spend = full[2] if full is not None and full[0] in (0, 1) else 0
            # spend + 1, where the contract turns, drawn on its own too
            limit = data.draw(st.one_of(st.none(), st.just(spend + 1), st.integers(1, spend + 1),
                                        st.sampled_from(("0", "x"))), label="budget")
            argv += [] if limit is None else [f"--budget={limit}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code in (2, 3):
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if command in ("check-cover", "certify-cover") and code in (0, 1):
            cov = C.read_cover(Path(argv[1]).read_text())
            if cov.graph.n <= 7 and (code == 0 or command == "check-cover"):
                assert code == (0 if _colorable_by_brute_force(cov) else 1), argv
        if full is not None and full[0] in (0, 1) and isinstance(limit, int):
            if limit > full[2]:
                assert (code, out) == full[:2], argv
            elif command != "chi-dp":
                assert code == 3, argv
            else:
                assert code == 0 and out != full[1], argv


def _brute_coefficient(g, signs, target, char):
    """The coefficient of x^target in prod (x_i + s*x_j) over the edges:
    over every choice of one end per factor whose degrees are target, the
    product of the signs taken, summed as an integer and reduced into the
    prime field."""
    total = 0
    for ends in product((0, 1), repeat=len(g.edges)):
        degrees = [0] * g.n
        sign = 1
        for (i, j), s, end in zip(g.edges, signs, ends):
            degrees[(j if end else i) - 1] += 1
            sign *= s if end else 1
        total += sign if tuple(degrees) == target else 0
    return total % char


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_graph_names, st.sampled_from(("expand", "grid", "both")),
       st.sampled_from((2, 3, 4, 5, 7)), st.data())
def test_coeff_agrees_with_a_brute_force_and_runs_out_at_its_spend(name, method, t, data):
    """coeff on graphs with n <= 7, random signs and targets that fit the
    grid or not, by each method: with no budget or one above the run's
    spend it prints the brute-force coefficient and exits 0; a budget
    from 1 up to the spend exits 3; a target the route refuses exits 2."""
    g = G.parse_graph_name(name)
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(g.edges),
                               max_size=len(g.edges)), label="signs")
    if data.draw(st.integers(0, 3), label="orientation"):  # sums to |E|, as the grid needs
        target = tuple(map(int, _orientation_target(data.draw, g).split(",")))
    else:
        target = tuple(data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n)))
    poly = pl.from_graph(g, make_field(t), signs=dict(zip(g.edges, signs)))
    used = Budget(10**9)
    try:
        pl.coefficient_at(poly, target, method, used)
    except PreconditionError:
        spend = None
    else:
        spend = used.spent
    limit = data.draw(st.one_of(st.none(), st.integers(1, (spend or 1) + 1)), label="budget")
    argv = ["coeff", name, f"--target={','.join(map(str, target))}", f"--field={t}",
            f"--method={method}", f"--signs={cli.pattern_spec(g.edges, signs)}"]
    argv += [] if limit is None else [f"--budget={limit}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    if spend is None:
        assert code == 2 and out == "" and err.startswith("error: "), argv
    elif limit is not None and limit <= spend:
        assert code == 3 and out == "", argv
        assert err.startswith("error: budget exceeded while "), (argv, err)
        assert err.endswith(f": {limit} >= {limit} steps\n"), (argv, err)
    else:
        want = _brute_coefficient(g, signs, target, make_field(t).char)
        assert code == 0 and out.endswith(f"coefficient: {want}\n"), (argv, out, err)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_every_cover_make_cover_writes_is_one_check_cover_reads(data):
    """Whenever make-cover exits 0, check-cover reads the file it wrote
    and gives a verdict (exit 0 or 1), not an input error."""
    with tempfile.TemporaryDirectory() as tmp:
        cov_path = Path(tmp) / "out.cover"
        argv = _make_cover_argv(data.draw, Path(tmp)) + [f"--out={cov_path}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            made = cli.run(argv)
            checked = cli.run(["check-cover", str(cov_path)]) if made == 0 else None
        assert made != 0 or checked in (0, 1), argv
