#!/usr/bin/env python3
"""Reproduce the mixture comparison: the harmonically weighted distribution
blows through total mass 1 almost immediately, while the Kraft-weighted
mixture stays a sub-probability at every tested scale."""

import argparse

from kolmobench.ctm import alpha_sum_upto, corrected_table, flawed_table
from kolmobench.enumeration import MachineRange


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-cap", type=int, default=10_000)
    ap.add_argument("--budget", type=int, default=256)
    ap.add_argument("--interval", default="1:4000", help="corrected-universe indices")
    args = ap.parse_args()

    print("== flawed scheme: total mass of sum 1/i over halting machines ==")
    tables = {n: flawed_table(n, args.budget)
              for n in sorted({n for n in (1, 2, 3, 10, 100, 1000, args.n_cap) if n <= args.n_cap})}
    for n, table in tables.items():
        m = table.total_mass()
        flag = "  <-- exceeds 1" if m > 1 else ""
        print(f"  N={n:>6}: {str(m):>24} ~ {float(m):.6f}{flag}")
    cap = tables[args.n_cap]
    crossing, mass = cap.crossing or (None, cap.total_mass())
    print(f"  first N with mass > 1: {crossing} (mass {mass})")

    lo, _, hi = args.interval.partition(":")
    universe = MachineRange(1, 2, int(lo), int(hi))
    print(f"\n== corrected scheme over {universe.describe()} ==")
    print(f"  alpha budget (sum of weights): {alpha_sum_upto(int(hi))} "
          f"~ {float(alpha_sum_upto(int(hi))):.6f}")
    for block_len in (0, 2, 4, 6):
        total = corrected_table(universe, block_len, args.budget).total_mass()
        assert total <= 1
        print(f"  L={block_len}: total {str(total):>32} ~ {float(total):.8f}  (<= 1)")


if __name__ == "__main__":
    main()
