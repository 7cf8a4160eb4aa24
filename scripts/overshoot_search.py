#!/usr/bin/env python3
"""Scan short strings for a budget-sensitive estimate: some (x, t) where the
anytime value strictly improves when the budget is quadrupled.  At two-state
scale the expected outcome is a negative report."""

import argparse

from kolmobench.enumeration import MachineRange
from kolmobench.estimator import phi_profile
from kolmobench.tm_core import programs_of_length


def all_strings(max_len):
    for length in range(max_len + 1):
        yield from programs_of_length(length)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=int, default=4)
    ap.add_argument("--max-budget-log2", type=int, default=14)
    args = ap.parse_args()

    universe = MachineRange(1, 2)
    schedule = [1 << k for k in range(args.max_budget_log2 + 1)]
    found = []
    profiles = phi_profile(all_strings(args.max_len), schedule, universe, ceiling=1 << 26)
    for x, profile in profiles.items():
        values = {r.t: r.value for r in profile}
        drops = [(t, values[t], values[4 * t]) for t in schedule
                 if 4 * t in values and values[t] > values[4 * t]]
        marker = " overshoot!" if drops else ""
        print(f"  x={x!r:8s} phi: {[values[t] for t in schedule]}{marker}")
        found.extend((x, *d) for d in drops)

    if found:
        print("\nbudget-sensitive pairs (x, t, phi(t), phi(4t)):")
        for item in found:
            print(" ", item)
    else:
        print("\nno overshoot at this scale: every minimal program here halts "
              "as soon as it is enumerable, so quadrupling the budget never "
              "improves the value.")


if __name__ == "__main__":
    main()
