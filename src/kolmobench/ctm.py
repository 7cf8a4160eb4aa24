"""Output-frequency distributions and the two universal-mixture variants.

Everything here is exact rational arithmetic: the whole point of the
comparison is whether total masses stay at or below 1, and that distinction
must not hinge on rounding.  Floating point appears only in the final
negative-log conversion.

Two weighting schemes over enumerated machines:

* ``flawed``  -- each machine halting on empty input contributes 1/i to its
  output's mass.  The per-output masses look harmless, but the total over
  all outputs is a harmonic-type sum that crosses 1 at a small index
  ceiling, so this is not a (sub-)probability at all.
* ``corrected`` -- machine i is weighted by alpha(i) = 2^-(2|bin(i)|+1), the
  Kraft weight of the self-delimiting index code, and programs of one fixed
  block length L each carry 2^-L inside a machine.  The total is then
  provably at most sum(alpha) < 1.  Every such mass is dyadic, so it is
  summed as an integer numerator over one power-of-two denominator.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from .enumeration import MAX_PROGRAM_BITS, MachineRange, index_to_table
from .halting import EnumerationLimitError, SweepStats, analyze_table, sweep

FLAWED, CORRECTED, FREQUENCY = "flawed", "corrected", "frequency"
FLAWED_MAX_N = 1_000_000  # the largest flawed N measured to finish: 233 s (README)


class UndefinedMassError(ValueError):
    """The requested output has zero mass at this scale; the estimate is
    undefined (insufficient universe/budget, not infinite complexity)."""


class SubProbabilityError(ValueError):
    """A frequency or corrected table's total mass exceeds 1: its weights sum past 1."""


class DistributionTable:
    def __init__(self, entries: dict, scheme: str, universe: str, budget: int,
                 block_len: int | None = None, stats: SweepStats | None = None,
                 crossing: tuple[int, Fraction] | None = None):
        self.entries = entries  # output string -> Fraction
        self.scheme, self.universe, self.budget, self.block_len = scheme, universe, budget, block_len
        self.stats = stats  # of the layer sweep behind it; never exported
        self.crossing = crossing  # flawed: (N, mass) where the total first exceeds 1; never exported

    def total_mass(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))


def _kraft_exponent(bits: int) -> int:
    """-log2 of the Kraft weight of an index of this bit length."""
    return 2 * bits + 1


def default_alpha(i: int) -> Fraction:
    """Kraft weight of the self-delimiting index code: 2^-(2|bin(i)|+1)."""
    if i < 1:
        raise ValueError("indices start at 1")
    return Fraction(1, 1 << _kraft_exponent(i.bit_length()))


def alpha_sum_upto(max_i: int) -> Fraction:
    """Exact sum of default_alpha(i) for i <= max_i, grouped by bit length."""
    total = Fraction(0)
    k = 1
    while (1 << (k - 1)) <= max_i:
        count = min(max_i, (1 << k) - 1) - (1 << (k - 1)) + 1
        total += Fraction(count, 1 << _kraft_exponent(k))
        k += 1
    return total


def output_frequency(universe: MachineRange, budget: int) -> DistributionTable:
    """Empty-input halting frequencies over every machine in the universe.

    Machines with invalid output or without a halting proof only count in
    the denominator.  Each layer is one lazy leaf tree (``halting.sweep``),
    all run in this process: the top layer's tree is nearly all the work.
    """
    jobs = [(n, lo, hi, "", 0) for n, lo, hi in universe.layers()]
    return _sweep_table(FREQUENCY, universe, budget, jobs, universe.count)


def flawed_table(n_max: int, budget: int) -> DistributionTable:
    """Each output's exact 1/i mass, over machines 1..n_max on empty input,
    in one pass that also finds ``crossing``: (N, total mass at N) for the
    first N whose total exceeds 1 exactly, or None if it never does."""
    if n_max < 1:
        raise ValueError("need at least one machine")
    if n_max > FLAWED_MAX_N:
        raise EnumerationLimitError(
            f"a flawed mixture over N={n_max} machines is past FLAWED_MAX_N = {FLAWED_MAX_N}"
        )
    masses, total, crossing = {}, Fraction(0), None
    for i in range(1, n_max + 1):
        res = analyze_table(index_to_table(i)[1], (), budget)
        if res[0] == "h" and res[2] is not None:
            masses[res[2]] = masses.get(res[2], Fraction(0)) + Fraction(1, i)
            if crossing is None:
                total += Fraction(1, i)
                if total > 1:
                    crossing = (i, total)
    return DistributionTable(masses, FLAWED, f"i1-{n_max}", budget, crossing=crossing)


def corrected_table(universe: MachineRange, block_len: int, budget: int,
                    threads: int = 1) -> DistributionTable:
    """Mixture sum_i default_alpha(i) * #(length-L programs with output x) / 2^L.

    Each halting (i, program) pair adds 2^-(2|bin(i)|+1+L), summed as the
    integer 2^(2(K-|bin(i)|)) over 2^(2K+1+L), K the bit length of the
    largest index; each output's sum becomes one ``Fraction`` at the end.
    The sweep walks one lazy leaf tree (``halting.sweep``) per layer and bit
    length, so each tree has one weight, on L open input cells: a program
    bit is read only where a run reads it.  ``threads > 1`` spreads the
    trees over a fork pool.
    """
    if not 0 <= block_len <= MAX_PROGRAM_BITS:
        raise ValueError(f"block length must be in 0..{MAX_PROGRAM_BITS}, got {block_len}")
    kraft_max = _kraft_exponent(universe.index_bounds()[1].bit_length())
    jobs = [(n, lo, hi, "?" * block_len, kraft_max - _kraft_exponent(lo.bit_length()))
            for n, lo, hi in universe.bit_length_spans()]
    return _sweep_table(CORRECTED, universe, budget, jobs, 1 << (kraft_max + block_len),
                        block_len, threads)


def _sweep_table(scheme: str, universe: MachineRange, budget: int, jobs: list, denom: int,
                 block_len: int | None = None, threads: int = 1) -> DistributionTable:
    """The table of both sweep schemes: ``_leaf_numerators`` over ``jobs``
    (``halting.sweep``), each output's numerator over ``denom``.  Neither
    scheme's weights sum past 1, so a total above 1 is a fault and raises
    ``SubProbabilityError``."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if universe.count == 0:
        raise ValueError("empty universe")
    numerators, stats = sweep(_leaf_numerators, jobs, budget, threads)
    total = sum(numerators.values())
    if total > denom:
        raise SubProbabilityError(f"{scheme} total mass {total / denom:.6f} exceeds 1")
    entries = {x: Fraction(n, denom) for x, n in numerators.items()}
    return DistributionTable(entries, scheme, universe.describe(), budget, block_len, stats)


def _leaf_numerators(leaves, shift: int) -> Counter:
    """Output -> numerator: a halting leaf with valid output adds its count,
    shifted left by the tree's one weight exponent ``shift``, to each output
    its ``?`` cells (input cells it never read) stand for.  The counts are
    summed by raw output first, so each template is expanded once."""
    raw = {}
    for _, _, count, res in leaves:
        if res[0] == "h" and res[2] is not None:
            raw[res[2]] = raw.get(res[2], 0) + count
    numerators = Counter()
    for out, count in raw.items():
        template = out.replace("?", "{}")
        for bits in product("01", repeat=out.count("?")):
            numerators[template.format(*bits)] += count << shift
    return numerators


def neg_log_estimate(x: str, table: DistributionTable) -> float:
    """-log2 of x's mass in a corrected table, in bits.

    This estimates the prefix-style complexity of x only up to the additive
    constant of the coding theorem; it is a comparison target, not a value
    of C(x) or K(x).
    """
    mass = table.entries.get(x, 0)
    if mass == 0:
        raise UndefinedMassError(
            f"{x!r} was never produced at this scale; grow the universe or budget"
        )
    return math.log2(mass.denominator) - math.log2(mass.numerator)


# ---------------------------------------------------------------------------
# Exports. CSV columns are fixed; JSON mirrors the field names. Masses are
# written as integer numerator and denominator, so any parser recovers them exactly.


@contextmanager
def _exact_int_text():
    """Lift the int/str digit limit of Python >= 3.11 for one export or print;
    flawed-mixture denominators pass its default 4300 digits near N = 14,341."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if old:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


def export_text(body: list | dict, config_digest: str | None = None) -> str:
    """The one export format of every command: CSV ``body`` lines under a
    ``# manifest_config=`` line, or a JSON ``body`` document with a
    ``manifest_config`` key, compact and key-sorted; newline-terminated."""
    if isinstance(body, dict):
        doc = body if config_digest is None else {**body, "manifest_config": config_digest}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    head = [] if config_digest is None else [f"# manifest_config={config_digest}"]
    return "\n".join(head + body) + "\n"


CSV_HEADER = "output_string,mass_numerator,mass_denominator,scheme,universe,budget,L"


@_exact_int_text()
def table_to_csv(table: DistributionTable, config_digest: str | None = None) -> str:
    block = "" if table.block_len is None else table.block_len
    meta = f"{table.scheme},{table.universe},{table.budget},{block}"
    rows = [f"{x},{mass.numerator},{mass.denominator},{meta}" for x, mass in table.sorted_items()]
    return export_text([CSV_HEADER, *rows], config_digest)


@_exact_int_text()
def table_to_json(table: DistributionTable, config_digest: str | None = None) -> str:
    total = table.total_mass()
    doc = {
        "meta": {
            "scheme": table.scheme,
            "universe": table.universe,
            "budget": table.budget,
            "L": table.block_len,
        },
        "entries": [
            {"output": x, "num": mass.numerator, "den": mass.denominator}
            for x, mass in table.sorted_items()
        ],
        "total": {"num": total.numerator, "den": total.denominator},
    }
    return export_text(doc, config_digest)
