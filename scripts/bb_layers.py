#!/usr/bin/env python3
"""Compute exact busy-beaver step tables for the 1- and 2-state layers by a
lazy (tree-normal-form) sweep on empty input: one sweep per layer reports
the first budget of the doubling schedule from --start-budget to 2^16 that
leaves nothing undecided."""

import argparse
import time

from kolmobench.halting import bb_table, doubling_schedule


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-states", type=int, default=2)
    ap.add_argument("--start-budget", type=int, default=16)
    args = ap.parse_args()

    schedule = doubling_schedule(args.start_budget, 1 << 16)
    print("n_states  max_steps  decided_all  undecided  budget_used  seconds")
    for n in range(1, args.max_states + 1):
        t0 = time.time()
        rec = bb_table(n, schedule)
        print(
            f"{rec.n_states:>8}  {rec.max_steps:>9}  {str(rec.decided_all):>11}  "
            f"{rec.undecided_count:>9}  {rec.budget_used:>11}  {time.time()-t0:7.1f}"
        )


if __name__ == "__main__":
    main()
