#!/usr/bin/env python3
"""Tabulate -log2 of the corrected universal-mixture mass against the direct
program-length upper bound for every short string.  The gap column is what
an additive O(1) constant would have to absorb; nothing certifies it away."""

import argparse

from kolmobench.ctm import UndefinedMassError, corrected_table, neg_log_estimate
from kolmobench.enumeration import MachineRange
from kolmobench.estimator import applicable_set, bound_from_pairs
from kolmobench.tm_core import programs_of_length


def all_strings(max_len):
    for length in range(max_len + 1):
        yield from programs_of_length(length)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=int, default=3)
    ap.add_argument("--block-len", type=int, default=4)
    ap.add_argument("--budget", type=int, default=256)
    ap.add_argument("--interval", default="1:2000")
    args = ap.parse_args()

    lo, _, hi = args.interval.partition(":")
    universe = MachineRange(1, 2, int(lo), int(hi))
    print(f"universe {universe.describe()}, L={args.block_len}, budget {args.budget}")
    table = corrected_table(universe, args.block_len, args.budget)
    classes = applicable_set(all_strings(args.max_len), universe, args.budget, args.block_len)
    print(f"{'x':>6}  {'-log2 m(x)':>11}  {'upper bound':>11}  {'gap':>8}")
    for x, found in classes.items():
        bound, _ = bound_from_pairs(x, [pr for _, pr in found])
        try:
            est = neg_log_estimate(x, table)
        except UndefinedMassError:
            print(f"{x!r:>6}  {'undefined':>11}  {bound:>11}  {'-':>8}")
            continue
        print(f"{x!r:>6}  {est:>11.3f}  {bound:>11}  {est - bound:>8.3f}")


if __name__ == "__main__":
    main()
