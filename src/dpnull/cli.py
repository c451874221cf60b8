"""Command-line front end and the scenario registry.

Subcommands: coeff, certify-cover, certify-dp3, chi-dp, make-cover,
check-cover, reproduce.  Exit codes: 0 certified/pass, 1 not certified or
scenario failure (a sound negative), 2 input error, 3 budget or expansion
size limit exhausted, 141 (128 + SIGPIPE) stdout closed by the reader.

`reproduce` replays the toolkit's reference computations as named
scenarios and prints one deterministic table row per scenario.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

from .budget import Budget, BudgetExceeded
from .errors import FormatError, MethodDisagreement, PreconditionError
from .ff import FieldError, make_field
from . import certify as ce
from . import cover as cv
from . import graphs as gr
from . import poly as pl


# ---------------------------------------------------------------------------
# argument helpers

def _budget_arg(text: str) -> Budget:
    """argparse type of --budget: a step limit of at least 1."""
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if limit < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {limit}")
    return Budget(limit)


def load_graph(arg: str) -> gr.Graph:
    p = Path(arg)
    if p.exists():
        return gr.read_graph(p.read_text())
    g = gr.parse_graph_name(arg)
    if g is None:
        raise FormatError(f"{arg!r} is neither a readable file nor a known family name")
    return g


def _parse_sign(tok: str) -> int:
    if tok == "+":
        return 1
    if tok == "-":
        return -1
    raise FormatError(f"sign must be '+' or '-', got {tok!r}")


def _parse_sign_offset(val: str) -> tuple[int, int]:
    sign = _parse_sign(val[:1])
    try:
        beta = int(val[1:]) if len(val) > 1 else 0
    except ValueError:
        raise FormatError(f"bad offset {val[1:]!r}") from None
    return sign, beta


def _parse_edge_spec(spec: str, edges, default, parse_value) -> dict:
    """The token loop shared by the sign and pattern specs: comma-separated
    `i-j:<value>` tokens and an optional `default:<value>` token; every
    edge the spec does not name takes the default."""
    edge_set = set(edges)
    overrides = {}
    for raw in spec.split(","):
        tok = raw.strip()
        if not tok:
            continue
        key, sep, val = tok.partition(":")
        if not sep:
            raise FormatError(f"bad token {tok!r}, expected 'i-j:<value>' or 'default:<value>'")
        value = parse_value(val)
        if key == "default":
            default = value
            continue
        try:
            i_s, j_s = key.split("-", 1)
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise FormatError(f"bad edge in token {tok!r}") from None
        e = (i, j) if i < j else (j, i)
        if e not in edge_set:
            raise FormatError(f"token names non-edge {key}")
        overrides[e] = value
    return {e: overrides.get(e, default) for e in edges}


def parse_sign_spec(spec: str, edges) -> dict:
    """Comma-separated `i-j:+` / `i-j:-` tokens with an optional
    `default:+|-` token; unmentioned edges take the default (-1)."""
    return _parse_edge_spec(spec, edges, -1, _parse_sign)


def parse_pattern_spec(spec: str, edges) -> tuple[dict, dict]:
    """Like parse_sign_spec but each value is a sign optionally followed by
    an offset digit string, e.g. `1-2:+2` or `default:-0`."""
    values = _parse_edge_spec(spec, edges, (-1, 0), _parse_sign_offset)
    return {e: s for e, (s, _) in values.items()}, {e: b for e, (_, b) in values.items()}


def pattern_formatter(edges):
    """format_pattern for one edge list, with its edge tokens built once."""
    plus = [f"{i}-{j}:+," for i, j in edges]
    return lambda pattern: "".join([t for t, s in zip(plus, pattern) if s > 0]) + "default:-"


def format_pattern(edges, pattern) -> str:
    return pattern_formatter(edges)(pattern)


def format_offsets(edges, offsets) -> str:
    toks = [f"{i}-{j}:{b}" for (i, j), b in zip(edges, offsets) if b != 0]
    toks.append("default:0")
    return ",".join(toks)


def print_certificate(cert: ce.Certificate, edges) -> None:
    print(f"kind: {cert.kind}")
    print(f"field: {cert.t}")
    print(f"n: {cert.n}")
    if cert.pattern is not None:
        print(f"pattern: {format_pattern(edges, cert.pattern)}")
    if cert.offsets is not None:
        print(f"offsets: {format_offsets(edges, cert.offsets)}")
    print(f"monomial: {','.join(str(x) for x in cert.monomial)}")
    print(f"coefficient: {cert.coefficient}")
    if cert.witness is not None:
        print(f"witness: {','.join(str(x) for x in cert.witness)}")
    if cert.verified is not None:
        print(f"verified: {'true' if cert.verified else 'false'}")
    print()


# ---------------------------------------------------------------------------
# subcommands

def _cmd_coeff(args) -> int:
    g = load_graph(args.graph)
    fld = make_field(args.field)
    signs = parse_sign_spec(args.signs, g.edges) if args.signs else None
    poly = pl.from_graph(g, fld, signs=signs)
    try:
        target = tuple(int(x) for x in args.target.split(","))
    except ValueError:
        raise FormatError(f"--target must be comma-separated integers: {args.target!r}") from None
    value = pl.coefficient_at(poly, target, method=args.method, budget=args.budget)
    print(f"kind: coefficient")
    print(f"field: {args.field}")
    print(f"target: {args.target}")
    print(f"method: {args.method}")
    print(f"coefficient: {value}")
    return 0


def _cmd_certify_cover(args) -> int:
    cov = cv.read_cover(Path(args.cover).read_text())
    if args.mode == "order3":
        cert = ce.certify_order3_cover(cov, args.budget)
        if cert is None:
            print("not certified: every qualifying coefficient vanishes")
            return 1
        print_certificate(cert, cov.graph.edges)
        return 0
    # mode good: rename first when needed
    renaming = None
    if not all(cv.classify_saturation(cov, e).is_good for e in cov.graph.edges):
        renaming = cv.is_good_cover(cov, args.budget)
        if renaming is None:
            print("not certified: the cover is not good under any naming")
            return 1
        cov = cv.apply_relabeling(cov, renaming)
    cert = ce.certify_good_cover(cov, args.budget)
    if cert is None:
        print("not certified: every qualifying coefficient vanishes")
        return 1
    if renaming is not None:
        back = {v: {b: a for a, b in rho.items()} for v, rho in renaming.items()}
        original = tuple(
            back.get(v, {}).get(cert.witness[v - 1], cert.witness[v - 1])
            for v in range(1, cov.graph.n + 1)
        )
        print(f"renamed: {';'.join(f'{v}:' + ','.join(f'{a}->{b}' for a, b in sorted(rho.items())) for v, rho in sorted(renaming.items()))}")
        print(f"witness-original-names: {','.join(str(x) for x in original)}")
    print_certificate(cert, cov.graph.edges)
    return 0


def _cmd_certify_dp3(args) -> int:
    g = load_graph(args.graph)
    result = ce.certify_dp3(g, use_spanning_tree=args.spanning_tree, budget=args.budget)
    print("kind: dp3-sweep")
    print(f"graph: n={g.n} m={len(g.edges)}")
    print(f"mode: {result.mode}")
    print(f"patterns-tested: {result.patterns_tested}")
    if result.passed:
        print("verdict: chi_DP <= 3")
        print()
        if args.emit_all:
            for cert in result.certificates:
                print_certificate(cert, g.edges)
        elif result.certificates:
            print_certificate(result.certificates[0], g.edges)
        return 0
    print("verdict: not certified")
    print(f"failing-patterns: {len(result.failure.failing_patterns)}")
    fmt = pattern_formatter(g.edges)
    sys.stdout.writelines(f"  {fmt(pat)}\n" for pat in result.failure.failing_patterns)
    return 1


def _cmd_chi_dp(args) -> int:
    g = load_graph(args.graph)
    bounds = ce.dp_chromatic_bounds(g, args.budget, args.max_m)
    print("kind: chi-dp-bounds")
    print(f"graph: n={g.n} m={len(g.edges)}")
    print(f"lower: {bounds.lower}")
    print(f"upper: {bounds.upper}")
    print(f"exact: {bounds.exact if bounds.exact is not None else 'unresolved'}")
    for note in bounds.notes:
        print(f"note: {note}")
    return 0


def _cmd_make_cover(args) -> int:
    g = load_graph(args.graph)
    if args.bad_c3k:
        cov = cv.uncolorable_cover_c3k_square(args.bad_c3k)
    elif args.pattern:
        t = args.field or 3
        signs, offsets = parse_pattern_spec(args.pattern, g.edges)
        cov = cv.cover_from_pattern(g, t, signs, offsets)
    elif args.lists:
        lists = _read_lists(Path(args.lists).read_text())
        missing = [v for v in range(1, g.n + 1) if v not in lists]
        if missing:
            raise FormatError(f"lists file misses vertices {missing}")
        cov = cv.cover_from_lists(g, lists, args.field)
    else:
        raise FormatError("make-cover needs --pattern, --bad-c3k or --lists")
    text = cv.write_cover(cov)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_lists(text: str) -> dict[int, tuple[int, ...]]:
    lists = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "L":
            parts = parts[1:]
        try:
            v = int(parts[0])
            colors = tuple(int(x) for x in parts[1:])
        except (ValueError, IndexError):
            raise FormatError("list record must be '[L] <v> <c1> <c2> ...'", ln) from None
        if not colors:
            raise FormatError(f"vertex {v} has an empty list", ln)
        if v in lists:
            raise FormatError(f"duplicate list for vertex {v}", ln)
        lists[v] = colors
    return lists


def _cmd_check_cover(args) -> int:
    cov = cv.read_cover(Path(args.cover).read_text())
    coloring = cv.h_coloring_search(cov, args.budget)
    if coloring is None:
        print("none")
        return 1
    print("coloring: " + ",".join(str(x) for x in coloring))
    return 0


def _cmd_reproduce(args) -> int:
    registry = scenario_registry()
    if args.scenario == "all":
        names = [s.name for s in registry]
    else:
        names = [args.scenario]
        if not any(s.name == args.scenario for s in registry):
            known = ", ".join(s.name for s in registry)
            raise FormatError(f"unknown scenario {args.scenario!r}; known: all, {known}")
    env = ScenarioEnv(seed=args.seed)
    results = []
    for sc in registry:
        if sc.name in names:
            results.append(sc.run(env))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<22} {status:<5} work={r.work:<9} expected={r.expected} computed={r.computed}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} scenarios passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# scenario registry

@dataclass(frozen=True)
class ScenarioEnv:
    seed: int = 0


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    expected: str
    computed: str
    passed: bool
    work: int


@dataclass(frozen=True)
class Scenario:
    name: str
    claim: str
    run: Callable[[ScenarioEnv], ScenarioResult]


def _result(name, expected, computed, work) -> ScenarioResult:
    return ScenarioResult(name, str(expected), str(computed), str(expected) == str(computed), work)


def _sc_tree_dp2(env: ScenarioEnv) -> ScenarioResult:
    trees = [t for t in gr.tree_catalog(7) if t.n >= 2]
    values = sorted({cv.exact_dp_chromatic(t, 4).value for t in trees})
    shown = values[0] if len(values) == 1 else values
    return _result(
        "tree-dp2",
        "chi_DP=2 for all 24 trees",
        f"chi_DP={shown} for all {len(trees)} trees",
        len(trees),
    )


def _sc_at_even_cycle(env: ScenarioEnv) -> ScenarioResult:
    f2 = make_field(2)
    diffs = []
    for n in (4, 6):
        g = gr.cycle(n)
        orient = gr.Orientation(g, tuple(1 if e != (1, n) else 0 for e in g.edges))
        diffs.append(pl.alon_tarsi_diff(orient))
    coeffs = []
    for n in (4, 6, 8):
        g = gr.cycle(n)
        coeffs.append(pl.coefficient_at(pl.from_graph(g, f2), (1,) * n, "both"))
    return _result(
        "at-even-cycle",
        "diff=[2, 2] coeff=[0, 0, 0]",
        f"diff={diffs} coeff={coeffs}",
        sum(1 << len(gr.cycle(n).edges) for n in (4, 6)),
    )


def _sc_cone_bipartite(env: ScenarioEnv) -> ScenarioResult:
    vals = [ce.certify_cone_bipartite(gr.cycle(n)).coefficient for n in (4, 6)]
    return _result(
        "cone-bipartite",
        "[2, 1]",
        str(vals),
        2,
    )


def _sc_cone_even_cycle_f(env: ScenarioEnv) -> ScenarioResult:
    g = gr.cone(gr.cycle(4))
    res = cv.f_dp_exhaustive(g, {1: 2, 2: 3, 3: 3, 4: 3, 5: 3}, Budget(500_000_000))
    return _result(
        "cone-even-cycle-f",
        "all_colorable",
        res.status,
        res.covers_tested,
    )


def _sc_cone_unique3(env: ScenarioEnv) -> ScenarioResult:
    g = gr.join(gr.empty_graph(2), gr.path(5))
    cert = ce.certify_cone_unique3(g)
    return _result(
        "cone-unique3-k2p5",
        "coefficient=1",
        f"coefficient={cert.coefficient}",
        1,
    )


def _sc_unique_list_tree(env: ScenarioEnv) -> ScenarioResult:
    outcomes = []
    work = 0
    for g in (gr.path(5), gr.from_edges(4, [(1, 2), (1, 3), (1, 4)], "star4")):
        lists = {v: ((0,) if v == 1 else (0, 1)) for v in range(1, g.n + 1)}
        cert = ce.certify_unique_list(g, lists, 2)
        outcomes.append(cert.coefficient != 0)
        work += cert.work.get("grid_points", 0)
    return _result(
        "unique-list-tree",
        "[True, True]",
        str(outcomes),
        work,
    )


def _sc_k44(env: ScenarioEnv) -> ScenarioResult:
    g = gr.complete_bipartite_minus_matching(4, 4, 2)
    full = ce.certify_dp3(g, collect_certificates=False)
    tree = ce.certify_dp3(g, use_spanning_tree=True, collect_certificates=False)
    lower = 3 if g.contains_cycle() else 2
    verdict = "chi_DP=3" if full.passed and tree.passed and lower == 3 else "unresolved"
    return _result(
        "k44-minus-matching",
        "chi_DP=3 patterns=[16384, 128]",
        f"{verdict} patterns=[{full.patterns_tested}, {tree.patterns_tested}]",
        full.patterns_tested + tree.patterns_tested,
    )


def _sc_k35(env: ScenarioEnv) -> ScenarioResult:
    g = gr.complete_bipartite(3, 5)
    fld = make_field(3)
    poly = pl.from_graph(g, fld)
    targets = [t for t in _targets_sum(8, 2, 15)]
    coeffs = sorted({pl.coefficient_at(poly, t, "both") for t in targets})
    sweep = ce.certify_dp3(g, use_spanning_tree=True, collect_certificates=False)
    allneg = tuple([-1] * len(g.edges))
    has = (not sweep.passed) and allneg in sweep.failure.failing_patterns
    return _result(
        "k35-zero",
        "targets=8 coeffs=[0] all-minus-fails=True",
        f"targets={len(targets)} coeffs={coeffs} all-minus-fails={has}",
        sweep.patterns_tested + len(targets),
    )


def _targets_sum(n: int, cap: int, total: int):
    def rec(pos, left, acc):
        if pos == n:
            if left == 0:
                yield tuple(acc)
            return
        for v in range(min(cap, left), -1, -1):
            if left - v <= cap * (n - pos - 1):
                yield from rec(pos + 1, left - v, acc + [v])

    yield from rec(0, total, [])


def _sc_c6sq(env: ScenarioEnv) -> ScenarioResult:
    g = gr.cycle_power(6, 2)
    fld = make_field(3)
    f1 = pl.from_graph(g, fld)
    signs = {e: (1 if e in {(1, 2), (1, 3)} else -1) for e in g.edges}
    f2 = pl.from_graph(g, fld, signs=signs)
    vals = [pl.coefficient_at(f1, (2,) * 6, "both"), pl.coefficient_at(f2, (2,) * 6, "both")]
    return _result(
        "c6sq-coeffs",
        "[0, 1]",
        str(vals),
        2 * 3**6,
    )


def _sc_c3k_bad_cover(env: ScenarioEnv) -> ScenarioResult:
    outcomes = []
    for k in (2, 3):
        cov = cv.uncolorable_cover_c3k_square(k)
        ok = not cv.validate(cov)
        good = all(cv.classify_saturation(cov, e).is_good for e in cov.graph.edges)
        uncolorable = cv.h_coloring_search(cov) is None
        outcomes.append(ok and good and uncolorable)
    return _result(
        "c3k-bad-cover",
        "[True, True]",
        str(outcomes),
        2,
    )


def _sc_cycle_squares(env: ScenarioEnv) -> ScenarioResult:
    table = []
    for n in range(3, 13):
        b = ce.dp_chromatic_bounds(gr.cycle_power(n, 2))
        table.append(b.exact if b.exact is not None else f"[{b.lower},{b.upper}]")
    return _result(
        "cycle-squares",
        "[3, 4, 5, 4, 4, 4, 4, 4, 4, 4]",
        str(table),
        len(table),
    )


def _sc_expand_grid_random(env: ScenarioEnv) -> ScenarioResult:
    rng = random.Random(env.seed)
    fld = make_field(3)
    agree = 0
    total = 200
    for _ in range(total):
        n = rng.randint(2, 5)
        m = rng.randint(1, min(8, 2 * n))
        factors = []
        for _ in range(m):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            factors.append(pl.Factor(i, j, rng.choice((-1, 1)), rng.randrange(3)))
        poly = pl.EdgeProductPolynomial(fld, n, tuple(factors))
        target = _random_target(rng, n, 2, m)
        a = pl.coefficient_at(poly, target, "expand")
        b = pl.coefficient_at(poly, target, "grid")
        agree += a == b
    return _result(
        "expand-grid-random",
        f"{total}/{total} agree",
        f"{agree}/{total} agree",
        total,
    )


def _random_target(rng, n, cap, total):
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
        # too small: retry


def scenario_registry() -> list[Scenario]:
    return [
        Scenario("tree-dp2",
                 "every tree with an edge has DP-chromatic number 2",
                 _sc_tree_dp2),
        Scenario("at-even-cycle",
                 "cyclic even-cycle orientations have diff 2, yet the F_2 top coefficient is 0",
                 _sc_at_even_cycle),
        Scenario("cone-bipartite",
                 "cones of even cycles: top coefficient 2*(-1)^m over F_3",
                 _sc_cone_bipartite),
        Scenario("cone-even-cycle-f",
                 "the cone of C_4 is f-DP-colorable with two apex labels and three elsewhere",
                 _sc_cone_even_cycle_f),
        Scenario("cone-unique3-k2p5",
                 "the joined 2-independent-set + P_5 graph meets the cone criterion over F_4",
                 _sc_cone_unique3),
        Scenario("unique-list-tree",
                 "a forced unique list coloring certifies every good prime 2-cover of a tree",
                 _sc_unique_list_tree),
        Scenario("k44-minus-matching",
                 "K_{4,4} minus a 2-matching: every sign pattern qualifies, so chi_DP = 3",
                 _sc_k44),
        Scenario("k35-zero",
                 "K_{3,5}: all 8 qualifying top coefficients vanish; the all-minus pattern fails",
                 _sc_k35),
        Scenario("c6sq-coeffs",
                 "C_6^2 over F_3: the plain polynomial tops out at 0, the two-plus-signs one at 1",
                 _sc_c6sq),
        Scenario("c3k-bad-cover",
                 "the shifted covers of C_6^2 and C_9^2 are valid, all-good and uncolorable",
                 _sc_c3k_bad_cover),
        Scenario("cycle-squares",
                 "chi_DP of squares of cycles, n = 3..12",
                 _sc_cycle_squares),
        Scenario("expand-grid-random",
                 "sparse expansion equals the grid sum on seeded random polynomials",
                 _sc_expand_grid_random),
    ]


# ---------------------------------------------------------------------------
# entry point

# Building the parser costs about 1.6 ms, more than many whole subcommands.
# It is built on the first `run` (not at import, which stays cheap) and kept:
# in-process callers that call `run` many times, such as the test suite and
# benchmark harnesses, pay for it once.  Parsing leaves it unchanged, every
# default is immutable, and `--budget` makes a fresh Budget per parse.
@cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dpnull",
        description="DP-coloring certification via polynomial coefficients over F_t",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="coefficient of a target monomial")
    p.add_argument("graph")
    p.add_argument("--signs", default=None, help="i-j:+,i-j:-,... with default:-")
    p.add_argument("--target", required=True, help="comma-separated exponents")
    p.add_argument("--field", type=int, default=3)
    p.add_argument("--method", choices=("expand", "grid", "both"), default="both")
    p.add_argument("--budget", type=_budget_arg, default=None,
                   help="step limit shared by the expand and grid routes")
    p.set_defaults(fn=_cmd_coeff)

    p = sub.add_parser("certify-cover", help="certificate for one cover file")
    p.add_argument("cover")
    p.add_argument("--mode", choices=("good", "order3"), default="good")
    p.add_argument("--budget", type=_budget_arg, default=None)
    p.set_defaults(fn=_cmd_certify_cover)

    p = sub.add_parser("certify-dp3", help="sweep sign patterns to certify chi_DP <= 3")
    p.add_argument("graph")
    p.add_argument("--spanning-tree", action="store_true")
    p.add_argument("--emit-all", action="store_true", help="print every pattern certificate")
    p.add_argument("--budget", type=_budget_arg, default=None)
    p.set_defaults(fn=_cmd_certify_dp3)

    p = sub.add_parser("chi-dp", help="bounds / exact report for chi_DP")
    p.add_argument("graph")
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--budget", type=_budget_arg, default=None)
    p.set_defaults(fn=_cmd_chi_dp)

    p = sub.add_parser("make-cover", help="construct and print a cover file")
    p.add_argument("graph")
    p.add_argument("--pattern", default=None, help="i-j:<sign><beta?>,... with default:-0")
    p.add_argument("--bad-c3k", type=int, default=None, metavar="K")
    p.add_argument("--lists", default=None, help="file of '<v> <c1> <c2> ...' lines")
    p.add_argument("--field", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_make_cover)

    p = sub.add_parser("check-cover", help="run the H-coloring oracle on a cover file")
    p.add_argument("cover")
    p.add_argument("--budget", type=_budget_arg, default=None)
    p.set_defaults(fn=_cmd_check_cover)

    p = sub.add_parser("reproduce", help="replay the reference scenarios")
    p.add_argument("scenario", help="scenario name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_reproduce)
    return top


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return exit_code(args.fn, args)


def exit_code(fn, *args) -> int:
    """Call fn(*args), flush stdout and return fn's exit code, or map the
    toolkit's errors to the documented codes, each with a one-line message
    on stderr: 2 for an input error, 3 for an exhausted budget or
    expansion limit, and 141, silently, for a stdout closed by the
    reader."""
    try:
        code = fn(*args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): send what is still buffered
        # to os.devnull, so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (FormatError, PreconditionError, FieldError, gr.GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, pl.ExpansionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MethodDisagreement as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
