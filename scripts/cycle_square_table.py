#!/usr/bin/env python3
"""Print the DP-chromatic table for squares of cycles with derivations.

For every n the bounds come from: the chromatic number, the cycle lower
bound 3, the explicit uncolorable 3-fold cover when 3 | n, and the
max-degree / complete / cycle upper-bound rules.
"""
import argparse
import sys

from dpnull import certify, graphs
from dpnull.cli import exit_code


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12)
    args = ap.parse_args()
    print(f"{'n':>3} {'chi':>4} {'chi_DP':>7}  derivation")
    for n in range(3, args.max_n + 1):
        g = graphs.cycle_power(n, 2)
        chi = graphs.chromatic_number(g, g.n)
        b = certify.dp_chromatic_bounds(g)
        shown = b.exact if b.exact is not None else f"[{b.lower},{b.upper}]"
        reasons = "; ".join(note.split(": ", 1)[1] for note in b.notes[1:])
        print(f"{n:>3} {chi:>4} {shown!s:>7}  {reasons}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
