"""Anytime upper bounds on plain complexity from budgeted program sweeps.

phi(t, x) is the shortest reference-machine program of length up to
``len(x) + c`` that outputs ``x`` within ``t`` steps, defaulting to the cap
when none does.  The constant ``c`` is pinned to the encoding length of the
built-in right-scanner, which copies any program to the output, so the cap
is always witnessed at sufficient budget.

Both entry points answer any set of strings from one sweep.  ``phi_profile``
computes phi along a budget schedule in one scan of the canonical programs
``1^k 0 bin(i) p`` (k = |bin(i)|, i in the universe).  That is exact: any
other program never halts or repeats a shorter canonical one, and since a
sound detector never calls a halting run divergent, one analysis at budget
B gives the true halting step of every run within B.  ``applicable_set``
counts the halting (machine, program) pairs producing each string per
(layer, index bit length, program), each class with its first pair, and
applies a pruning rule; ``bound_from_pairs`` takes the shortest
self-delimiting encoding over that set.  Everything here reports upper
bounds only; no operation of this module returns anything interpretable as
a certified minimum.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache

from .enumeration import MAX_PROGRAM_BITS, MachineRange, machine_to_index, str_to_nat
from .halting import (
    DEFAULT_ENUM_CEILING,
    EnumerationLimitError,
    Simulator,
    SweepStats,
    check_schedule,
    sweep,
)
from .tm_core import SYMBOL_NAMES, identity_scanner, programs_of_length, run


@lru_cache(maxsize=1)
def identity_index() -> int:
    return machine_to_index(identity_scanner())


def cap_constant() -> int:
    """c such that some program of length len(x)+c outputs x whenever the
    scanner is enumerated: the scanner's self-delimiting encoding length."""
    return 2 * identity_index().bit_length() + 1


PhiResult = namedtuple("PhiResult", "x t value witness cap")


def _binary_strings(xs) -> dict:
    """The distinct strings of ``xs`` in order, as dict keys, each checked binary."""
    xs = dict.fromkeys(xs)
    for x in xs:
        if any(ch not in "01" for ch in x):
            raise ValueError(f"not a binary string: {x!r}")
    return xs


def _canonical_programs(universe: MachineRange, cap: int):
    """(program, i, p) for each program ``1^k 0 bin(i) p`` of length <= cap
    whose index i lies in the universe, in (length, numeric value) order:
    within one length, more leading ones is larger, then i, then p."""
    lo, hi = universe.index_bounds()
    for length in range(cap + 1):
        for k in range(1, (length - 1) // 2 + 1):
            head = "1" * k + "0"
            for i in range(max(lo, 1 << (k - 1)), min(hi, (1 << k) - 1) + 1):
                prefix = head + format(i, "b")
                for p in programs_of_length(length - 2 * k - 1):
                    yield prefix + p, i, p


def _canonical_count(universe: MachineRange, length: int) -> int:
    """How many programs ``_canonical_programs(universe, length)`` yields:
    an index of bit length k heads 2^(length - 2k) - 1 of them."""
    lo, hi = universe.index_bounds()
    return sum(
        len(range(max(lo, 1 << (k - 1)), min(hi, (1 << k) - 1) + 1)) * ((1 << (length - 2 * k)) - 1)
        for k in range(1, (length + 1) // 2)
    )


def check_phi_scan(x: str, universe: MachineRange, cap: int, ceiling: int) -> None:
    """Refuse a phi scan that could exceed ``ceiling`` programs, by its exact
    count.  Machine 1 outputs x from ``101 b x`` at step 1, so with index 1
    in the universe the scan ends by length len(x) + 4."""
    length = min(cap, len(x) + 4) if universe.contains_index(1) else cap
    count = _canonical_count(universe, length)
    if count > ceiling:
        raise EnumerationLimitError(
            f"{count} programs of length <= {length} exceed ceiling {ceiling}; "
            "shrink the cap or the universe, or raise the ceiling"
        )


def phi_profile(
    xs,
    schedule,
    universe: MachineRange,
    *,
    cap: int | None = None,
    ceiling: int = DEFAULT_ENUM_CEILING,
    cache=None,
) -> dict[str, list[PhiResult]]:
    """phi of each string along a strictly increasing budget schedule, in
    one program scan: ``{x: [PhiResult per budget]}``.

    Each string has its own cap (default len(x) + c) and its own open
    budgets, those without a witness.  Each (index, program) pair is
    analysed once, at the largest open budget of any string whose cap admits
    it (a ``cache`` given serves and records the verdicts); a halt with
    output x at step s settles x's open budgets t >= s.  Refuses up front
    (``check_phi_scan``) if one string's scan could exceed ``ceiling`` programs.
    """
    xs = _binary_strings(xs)
    schedule = check_schedule(schedule)
    if cap is not None and cap < 0:
        raise ValueError("cap must be >= 0")
    caps = {x: len(x) + cap_constant() if cap is None else cap for x in xs}
    for x, c in caps.items():
        check_phi_scan(x, universe, c, ceiling)
    verdict = Simulator(cache).raw_verdict
    witnesses = {x: [None] * len(schedule) for x in caps}
    open_n = dict.fromkeys(caps, len(schedule))  # x's budgets without a witness: schedule[:n]
    length = -1
    for q, i, p in _canonical_programs(universe, max(caps.values(), default=-1)):
        if len(q) > length:  # a string stays open up to its cap
            length = len(q)
            open_n = {x: n for x, n in open_n.items() if caps[x] >= length}
            top = max(open_n.values(), default=0)
        if not top:
            break
        res = verdict(i, p, schedule[top - 1])
        if res[0] == "h" and res[2] in open_n:
            x, n = res[2], open_n[res[2]]
            settled = open_n[x] = bisect_left(schedule, res[1], 0, n)
            witnesses[x][settled:n] = [q] * (n - settled)
            if settled < n:
                top = max(open_n.values())
    return {
        x: [PhiResult(x=x, t=t, value=c if w is None else len(w), witness=w, cap=c)
            for t, w in zip(schedule, witnesses[x])]
        for x, c in caps.items()
    }


# A halting (machine index, program) pair recorded for one output.
ProgramPair = namedtuple("ProgramPair", "i p cost encoded_len steps")


def make_pair(i: int, p: str, steps: int) -> ProgramPair:
    k = i.bit_length()
    return ProgramPair(
        i=i, p=p, cost=k + len(p), encoded_len=2 * k + 1 + len(p), steps=steps
    )


PRUNING_POLICIES = ("discard-dominated", "literal-formula", "none")


def _prune(policy: str, classes) -> list:
    """The (count, first pair) classes that ``policy`` keeps.

    A pair's cost |bin(i)| + |p| and threshold min(|bin(i)|, |p|) are its
    class's.  discard-dominated drops a pair when some other pair costs at
    most its threshold; literal-formula, the displayed set difference read
    literally, drops it when its cost is at most some other pair's
    threshold.  A pair's cost exceeds its threshold (|bin(i)| >= 1), so no
    pair drops itself, and either rule reads every pair, its own included:
    the lowest cost, or the highest threshold.
    """
    if policy == "none" or not classes:
        return list(classes)
    thresholds = [min(pr.i.bit_length(), len(pr.p)) for _, pr in classes]
    if policy == "discard-dominated":
        lowest = min(pr.cost for _, pr in classes)
        return [c for c, t in zip(classes, thresholds) if lowest > t]
    highest = max(thresholds)
    return [c for c in classes if c[1].cost > highest]


def applicable_set(
    xs,
    universe: MachineRange,
    budget: int,
    max_prog_len: int,
    *,
    policy: str = "discard-dominated",
    ceiling: int = DEFAULT_ENUM_CEILING,
    threads: int = 1,
    stats: SweepStats | None = None,
) -> dict[str, list[tuple[int, ProgramPair]]]:
    """The proved-halting pairs with output x, for each string x, from one
    sweep: ``{x: classes}``.  Each x's classes are pruned on their own, one
    (count, first pair) per layer, index bit length and program: how many
    of its pairs output x, and the one of smallest index, with its step
    count.  In canonical order of the first pairs.

    The sweep walks one lazy leaf tree (``halting.sweep``) per layer, index
    bit length and program length m, on m open input cells; ``threads > 1``
    spreads the trees over a fork pool.  A ``stats`` given is updated with
    the trees' counts, (index, program) pairs weighted.  An empty collection
    sweeps nothing.
    """
    wanted = _binary_strings(xs)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 0 <= max_prog_len <= MAX_PROGRAM_BITS:
        raise ValueError(f"max_prog_len must be in 0..{MAX_PROGRAM_BITS}, got {max_prog_len}")
    if policy not in PRUNING_POLICIES:
        raise ValueError(f"unknown pruning policy {policy!r}")
    if not wanted:
        return {}
    work = universe.count * ((1 << (max_prog_len + 1)) - 1)
    if work > ceiling:
        raise EnumerationLimitError(
            f"{work} simulations exceed ceiling {ceiling}; shrink the "
            "universe or max_prog_len, or raise the ceiling"
        )
    jobs = [(n, lo, hi, "?" * m, wanted)
            for n, lo, hi in universe.bit_length_spans() for m in range(max_prog_len + 1)]
    classes = {x: [] for x in wanted}
    if jobs:  # an empty universe has no tree to sweep
        found, sweep_stats = sweep(_leaf_classes, jobs, budget, threads)
        if stats is not None:
            stats.merge(sweep_stats)
        for x, count, pair in found:
            classes[x].append((count, pair))
    return {x: sorted(_prune(policy, found),
                      key=lambda c: (c[1].i, len(c[1].p), str_to_nat(c[1].p)))
            for x, found in classes.items()}


def _leaf_classes(leaves, wanted) -> list:
    """(x, count, first pair) per wanted output x and program p of one leaf
    tree, whose indices share one bit length: how many of them halt on p with
    output x, and the smallest of them with its step count.  A halting leaf
    stands for one p per wanted x that agrees with its output's fixed
    characters: x's bit at the k-th ``?`` fills the input's k-th ``OPEN`` cell."""
    by_len, found = {}, {}
    for x in wanted:
        by_len.setdefault(len(x), []).append(x)
    for table, syms, count, res in leaves:
        if res[0] != "h" or res[2] is None:
            continue
        out, first = res[2], None
        for x in by_len.get(len(out), ()):
            bits = [b for o, b in zip(out, x) if o != b]  # just its bits at the ?s iff x agrees
            if len(bits) == out.count("?"):
                bits = iter(bits)
                p = "".join([SYMBOL_NAMES[s] if s > 0 else next(bits) for s in syms])
                first = first or (table.boxes.first_member(table), res[1])
                total, least = found.get((x, p), (0, first))
                found[x, p] = (total + count, min(least, first))
    return [(x, c, make_pair(i, p, steps)) for (x, p), (c, (i, steps)) in found.items()]


def bound_from_pairs(x: str, pairs) -> tuple[int, ProgramPair]:
    """Minimum encoded length over the pairs; ties go to the smallest
    machine index, then the numerically smallest program.  An empty set
    falls back to the cap len(x)+c, witnessed by the scanner copying x.
    """
    if pairs:
        best = min(pairs, key=lambda pr: (pr.encoded_len, pr.i, str_to_nat(pr.p)))
        return best.encoded_len, best
    scanner_steps = run(identity_scanner(), x, len(x) + 1).steps
    return len(x) + cap_constant(), make_pair(identity_index(), x, scanner_steps)
