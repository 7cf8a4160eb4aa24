"""Anytime upper bounds on plain complexity from budgeted program sweeps.

``phi(t, x)`` sweeps every reference-machine program of length up to
``len(x) + c`` for ``t`` steps and reports the shortest one that outputs
``x``, defaulting to the cap when none does.  The constant ``c`` is pinned
to the encoding length of the built-in right-scanner, which copies any
program to the output, so the cap is always witnessed at sufficient
budget.

``applicable_set`` collects the halting (machine, program) pairs producing
``x`` and applies a pruning rule; ``upper_bound_C`` takes the shortest
self-delimiting encoding over that set.  Everything here reports upper
bounds only; no operation of this module returns anything interpretable as
a certified minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .enumeration import MachineRange, str_to_nat
from .halting import Simulator, program_sweep
from .tm_core import Halted, identity_scanner, immediate_halt, run

DEFAULT_ENUM_CEILING = 1 << 22


class EnumerationLimitError(RuntimeError):
    """A sweep would enumerate more programs than the configured ceiling."""


@lru_cache(maxsize=1)
def identity_index() -> int:
    from .enumeration import machine_to_index

    return machine_to_index(identity_scanner())


@lru_cache(maxsize=1)
def immediate_halt_index() -> int:
    from .enumeration import machine_to_index

    return machine_to_index(immediate_halt())


def cap_constant() -> int:
    """c such that some program of length len(x)+c outputs x whenever the
    scanner is enumerated: the scanner's self-delimiting encoding length."""
    return 2 * identity_index().bit_length() + 1


@dataclass(frozen=True)
class PhiResult:
    x: str
    t: int
    value: int
    witness: str | None
    cap: int


def _check_binary(x: str):
    if any(ch not in "01" for ch in x):
        raise ValueError(f"not a binary string: {x!r}")


def _programs_of_length(length: int):
    if length == 0:
        yield ""
        return
    for v in range(1 << length):
        yield format(v, f"0{length}b")


def phi(
    t: int,
    x: str,
    universe: MachineRange,
    *,
    cap: int | None = None,
    ceiling: int = DEFAULT_ENUM_CEILING,
    sim: Simulator | None = None,
) -> PhiResult:
    """Shortest program of length <= cap producing x within t steps.

    Programs are scanned in (length, numeric value) order, which realizes
    the minimum and the numeric tie-break in one pass.  Refuses up front
    when the full sweep could exceed ``ceiling`` programs.
    """
    _check_binary(x)
    if t < 1:
        raise ValueError("budget must be >= 1")
    if cap is None:
        cap = len(x) + cap_constant()
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if 1 << (cap + 1) > ceiling:
        raise EnumerationLimitError(
            f"2^(cap+1) = 2^{cap + 1} programs exceeds ceiling {ceiling}; "
            "shrink the cap or the universe, or raise the ceiling"
        )
    if sim is None:
        sim = Simulator(universe)
    for length in range(cap + 1):
        for q in _programs_of_length(length):
            out = sim.u_outcome(q, t)
            if isinstance(out, Halted) and out.output == x:
                return PhiResult(x=x, t=t, value=length, witness=q, cap=cap)
    return PhiResult(x=x, t=t, value=cap, witness=None, cap=cap)


def phi_profile(
    x: str,
    schedule,
    universe: MachineRange,
    *,
    cap: int | None = None,
    ceiling: int = DEFAULT_ENUM_CEILING,
    sim: Simulator | None = None,
) -> list[PhiResult]:
    """phi along a strictly increasing budget schedule.

    The values must come out nonincreasing; anything else is an internal
    error, not a data point.
    """
    schedule = list(schedule)
    if any(b >= a for a, b in zip(schedule[1:], schedule)):
        raise ValueError("schedule must be strictly increasing")
    if sim is None:
        sim = Simulator(universe)
    results = []
    for t in schedule:
        r = phi(t, x, universe, cap=cap, ceiling=ceiling, sim=sim)
        if results and r.value > results[-1].value:
            raise RuntimeError(
                f"phi({t}, {x!r}) = {r.value} above phi({results[-1].t}) = "
                f"{results[-1].value}: monotonicity broken"
            )
        results.append(r)
    return results


@dataclass(frozen=True)
class ProgramPair:
    """A halting (machine index, program) pair recorded for one output."""

    i: int
    p: str
    cost: int
    encoded_len: int
    steps: int


def make_pair(i: int, p: str, steps: int) -> ProgramPair:
    k = i.bit_length()
    return ProgramPair(
        i=i, p=p, cost=k + len(p), encoded_len=2 * k + 1 + len(p), steps=steps
    )


def _prune_discard_dominated(pairs):
    """Drop a pair when some other collected pair is at least as cheap as
    the smaller of its index length and program length."""
    if len(pairs) < 2:
        return list(pairs)
    costs = sorted(p.cost for p in pairs)
    lowest, second = costs[0], costs[1]
    kept = []
    for pr in pairs:
        other_min = second if pr.cost == lowest and costs.count(lowest) == 1 else lowest
        if other_min <= min(pr.i.bit_length(), len(pr.p)):
            continue
        kept.append(pr)
    return kept


def _prune_literal_formula(pairs):
    """The displayed set-difference read literally: remove pairs whose cost
    is at most min(|i'|, |p'|) of some other collected pair."""
    if len(pairs) < 2:
        return list(pairs)
    thresholds = sorted(min(p.i.bit_length(), len(p.p)) for p in pairs)
    hi, second_hi = thresholds[-1], thresholds[-2]
    kept = []
    for pr in pairs:
        own = min(pr.i.bit_length(), len(pr.p))
        other_max = second_hi if own == hi and thresholds.count(hi) == 1 else hi
        if pr.cost <= other_max:
            continue
        kept.append(pr)
    return kept


PRUNING_POLICIES = {
    "discard-dominated": _prune_discard_dominated,
    "literal-formula": _prune_literal_formula,
    "none": lambda pairs: list(pairs),
}


def _pair_with_output(x: str, i: int, p: str, steps: int, output: str):
    return make_pair(i, p, steps) if output == x else None


def applicable_set(
    x: str,
    universe: MachineRange,
    budget: int,
    max_prog_len: int,
    *,
    policy: str = "discard-dominated",
    ceiling: int = DEFAULT_ENUM_CEILING,
    sim: Simulator | None = None,
    threads: int = 1,
) -> list[ProgramPair]:
    """All proved-halting pairs with output x, pruned, in canonical order.

    The sweep is ``halting.program_sweep``: a shared ``sim`` at one thread
    reuses its memo, and its verdict cache serves and records small sweeps.
    """
    _check_binary(x)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if max_prog_len < 0:
        raise ValueError("max_prog_len must be >= 0")
    if policy not in PRUNING_POLICIES:
        raise ValueError(f"unknown pruning policy {policy!r}")
    work = universe.count * ((1 << (max_prog_len + 1)) - 1)
    if work > ceiling:
        raise EnumerationLimitError(
            f"{work} simulations exceed ceiling {ceiling}; shrink the "
            "universe or max_prog_len, or raise the ceiling"
        )
    programs = [p for n in range(max_prog_len + 1) for p in _programs_of_length(n)]
    reduce = partial(_pair_with_output, x)
    pairs = list(program_sweep(universe, programs, budget, reduce, threads, sim))
    pruned = PRUNING_POLICIES[policy](pairs)
    pruned.sort(key=lambda pr: (pr.i, len(pr.p), str_to_nat(pr.p)))
    return pruned


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


def upper_bound_C(
    x: str,
    universe: MachineRange,
    budget: int,
    max_prog_len: int,
    *,
    policy: str = "discard-dominated",
    ceiling: int = DEFAULT_ENUM_CEILING,
    sim: Simulator | None = None,
) -> tuple[int, ProgramPair]:
    """Shortest self-delimiting encoding over the applicable set."""
    pairs = applicable_set(
        x,
        universe,
        budget,
        max_prog_len,
        policy=policy,
        ceiling=ceiling,
        sim=sim,
    )
    return bound_from_pairs(x, pairs)
