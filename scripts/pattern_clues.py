#!/usr/bin/env python3
"""Hunt for uncolorable covers guided by failing sign patterns.

Sweep the sign patterns of a graph over F_3; every failing pattern is a
clue that a 3-fold cover whose saturation functions realize that pattern
might be uncolorable.  For each failing pattern this script enumerates
offset choices on a few edges, builds the corresponding cover, and asks
the transversal oracle.  One uncolorable 3-fold cover proves chi_DP > 3.

Clues need not pan out (K_{3,5} fails the sweep yet every tried cover is
colorable); colorable outcomes are reported too.

Exit codes are those of the dpnull CLI: 0 when an uncolorable cover is
found or every pattern qualifies, 1 when no uncolorable cover is found,
2 for an input error, 3 for an exhausted budget or expansion limit, and
141 when stdout is closed by the reader.

Example:
    python scripts/pattern_clues.py c6sq --offsets 2
"""
import argparse
import sys
from itertools import islice, product

from dpnull import certify, cover
from dpnull.cli import exit_code, load_graph, pattern_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("graph", help="family name (e.g. c6sq) or graph file")
    ap.add_argument("--spanning-tree", action="store_true",
                    help="sweep co-tree patterns only")
    ap.add_argument("--offsets", type=int, default=1, metavar="K",
                    help="vary offsets on up to K edges per pattern (default 1)")
    ap.add_argument("--limit", type=int, default=20,
                    help="max failing patterns to explore")
    args = ap.parse_args()

    g = load_graph(args.graph)
    result = certify.certify_dp3(g, use_spanning_tree=args.spanning_tree)
    if result.passed:
        print(f"every one of the {result.patterns_tested} patterns qualifies: "
              f"chi_DP <= 3, nothing to hunt")
        return 0
    failing = result.failure.failing_patterns
    print(f"{len(failing)} failing patterns of {result.patterns_tested}")
    found = 0
    for pattern in islice(failing, args.limit):
        signs = dict(zip(g.edges, pattern))
        plus_edges = [e for e in g.edges if signs[e] == 1][: args.offsets]
        vary = plus_edges if plus_edges else list(g.edges)[: args.offsets]
        tag = pattern_spec(g.edges, pattern)
        for betas in product(range(3), repeat=len(vary)):
            offsets = {e: 0 for e in g.edges}
            offsets.update(dict(zip(vary, betas)))
            cov = cover.cover_from_pattern(g, 3, signs, offsets)
            coloring = cover.h_coloring_search(cov)
            if coloring is None:
                print(f"  UNCOLORABLE cover found for {tag} with offsets {betas}")
                found += 1
                break
        else:
            print(f"  all tried covers for {tag} are colorable")
    if found:
        print(f"{found} uncolorable 3-fold covers found: chi_DP > 3")
        return 0
    print("no uncolorable cover found among the tried offsets")
    return 1


if __name__ == "__main__":
    sys.exit(exit_code(main))
