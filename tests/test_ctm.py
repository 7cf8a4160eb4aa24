import functools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmobench import ctm
from kolmobench.ctm import (
    FLAWED_MAX_N,
    DistributionTable,
    SubProbabilityError,
    UndefinedMassError,
    alpha_sum_upto,
    corrected_table,
    default_alpha,
    flawed_table,
    neg_log_estimate,
    output_frequency,
    table_to_csv,
    table_to_json,
)
from kolmobench.enumeration import MAX_PROGRAM_BITS, MachineRange, index_to_machine, index_to_table
from kolmobench.estimator import (
    EnumerationLimitError,
    applicable_set,
    bound_from_pairs,
    identity_index,
)
from kolmobench.halting import SweepStats, analyze_table
from kolmobench.tm_core import run, str_to_syms

N1 = MachineRange(1, 1)

# Exact values fixed by exhaustive runs over the full 1-state layer.
N1_FREQUENCY = {
    "": Fraction(161, 500),
    "0": Fraction(18, 125),
    "1": Fraction(18, 125),
}
ALPHA_SUM_2_20 = Fraction(2199021158401, 8796093022208)


def test_output_frequency_single_machine_universe():
    t = output_frequency(MachineRange(1, 1, 1, 1), budget=16)
    assert t.entries == {"": Fraction(1)}
    assert t.total_mass() == 1


def test_output_frequency_full_one_state_layer():
    t = output_frequency(N1, budget=256)
    assert t.entries == N1_FREQUENCY
    assert t.total_mass() == Fraction(61, 100) <= 1


def test_output_frequency_monotone_in_budget():
    lo = output_frequency(N1, budget=1)
    hi = output_frequency(N1, budget=64)
    for x, mass in lo.entries.items():
        assert hi.entries.get(x, Fraction(0)) >= mass
    assert lo.total_mass() <= hi.total_mass()


def test_flawed_mass_first_machine():
    assert flawed_table(1, budget=16).total_mass() == 1


def test_flawed_mass_nondecreasing_in_ceiling():
    masses = [flawed_table(n, budget=64).total_mass() for n in range(1, 30)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_flawed_crossing_matches_plain_runs():
    # The oracle: a running total of 1/i over plain runs, apart from analyze_table.
    total, first = Fraction(0), None
    for n in range(1, 41):
        res = run(index_to_machine(n), "", 64)
        if first is None and res[0] == "h" and res[2] is not None:
            total += Fraction(1, n)
            if total > 1:
                first = (n, total)
        assert flawed_table(n, budget=64).crossing == first, n
        assert (first is None) == (n <= 2)
    assert flawed_table(100, budget=256).crossing == (3, Fraction(4, 3))


def test_flawed_table_refuses_past_ceiling_before_any_analysis(monkeypatch):
    monkeypatch.setattr(ctm, "analyze_table",
                        lambda *a: pytest.fail("a machine was analysed before the refusal"))
    with pytest.raises(EnumerationLimitError):
        flawed_table(FLAWED_MAX_N + 1, 1)


def test_flawed_table_masses_sum_to_all_mass():
    t = flawed_table(50, budget=64)
    plain = Fraction(0)
    for i in range(1, 51):
        res = run(index_to_machine(i), "", 64)
        if res[0] == "h" and res[2] is not None:
            plain += Fraction(1, i)
    assert t.total_mass() == plain
    assert t.scheme == "flawed"


def test_default_alpha_values():
    assert default_alpha(1) == Fraction(1, 8)
    assert default_alpha(991) == Fraction(1, 2**21)
    with pytest.raises(ValueError):
        default_alpha(0)


def test_alpha_sum_kraft_certificate():
    s = alpha_sum_upto(1 << 20)
    assert s == ALPHA_SUM_2_20
    assert s < 1
    # direct small check against naive summation
    naive = sum(default_alpha(i) for i in range(1, 300))
    assert alpha_sum_upto(299) == naive


def test_corrected_identity_machine_only():
    u = MachineRange(1, 1, identity_index(), identity_index())
    t = corrected_table(u, block_len=2, budget=16)
    share = default_alpha(identity_index()) / 4
    assert t.entries == {"00": share, "01": share, "10": share, "11": share}


def test_corrected_block_zero_degenerates_to_weighted_frequency():
    u = MachineRange(1, 1, 1, 10)
    t = corrected_table(u, block_len=0, budget=16)
    expected = {}
    for i in range(1, 11):
        out = run(index_to_machine(i), "", 16)
        if out[0] == "h" and out[2] is not None:
            expected[out[2]] = expected.get(out[2], Fraction(0)) + default_alpha(i)
    assert t.entries == expected


@pytest.mark.parametrize("bits", [-1, MAX_PROGRAM_BITS + 1, 40])
def test_both_program_sweeps_refuse_lengths_outside_one_bound(bits):
    # The CLI's --L and --max-prog-len read the same constant.
    u = MachineRange(1, 1, 1, 1)
    with pytest.raises(ValueError, match="block length"):
        corrected_table(u, bits, budget=4)
    with pytest.raises(ValueError, match="max_prog_len"):
        applicable_set(["1"], u, 4, bits, ceiling=1 << 60)


@functools.cache
def _plain_run_masses(lo, hi, block_len, budget):
    """Corrected masses over indices lo..hi from a plain run double loop
    with default_alpha(i) / 2^L Fraction sums: no detector, memo, cache or pool."""
    programs = [format(v, f"0{block_len}b") for v in range(1 << block_len)]
    masses = {}
    for i in range(lo, hi + 1):
        m = index_to_machine(i)
        for p in programs:
            out = run(m, p, budget)
            if out[0] == "h" and out[2] is not None:
                share = default_alpha(i) / (1 << block_len)
                masses[out[2]] = masses.get(out[2], Fraction(0)) + share
    return masses


@pytest.mark.parametrize("threads", [1, 2])
def test_corrected_table_matches_plain_run_oracle(threads):
    u = MachineRange(1, 2, 1, 1500)
    table = corrected_table(u, 2, budget=64, threads=threads)
    assert table.entries == _plain_run_masses(1, 1500, 2, 64)


@pytest.mark.parametrize("threads", [1, 2])
def test_corrected_table_matches_plain_run_oracle_across_layers(threads):
    # 990:1040 holds the last 1-state machines (up to 1000) and 2-state
    # machines on both sides of 1024, the step from bit length 10 to 11.
    # One leaf tree per (layer, bit length, program) must weigh its verdicts
    # as one plain analysis per (index, program) pair does.
    u = MachineRange(1, 2, 990, 1040)
    table = corrected_table(u, 2, budget=64, threads=threads)
    assert table.entries == _plain_run_masses(990, 1040, 2, 64)
    assert table.stats.machines == sum(table.stats.verdicts.values()) == u.count << 2
    want = SweepStats()
    for i in u.indices():
        for p in ("00", "01", "10", "11"):
            want.add(analyze_table(index_to_table(i)[1], str_to_syms(p), 64), 1)
    assert table.stats.verdicts == want.verdicts


@pytest.mark.parametrize("block_len", [0, 3])
def test_corrected_stats_weigh_verdicts_by_pairs(block_len):
    u = MachineRange(1, 2, 700, 1300)
    stats = corrected_table(u, block_len, budget=32, threads=2).stats
    assert sum(stats.verdicts.values()) == stats.machines == u.count << block_len
    assert stats.leaves < u.count << block_len
    assert stats == corrected_table(u, block_len, budget=32).stats


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("lo, hi", [(1020, 1030), (1048570, 1048580)])
def test_corrected_table_matches_plain_run_oracle_across_bit_lengths(lo, hi, threads):
    # Both windows lie in the 2-state layer and straddle a bit-length step
    # (2^10, 2^20), so one sum mixes numerators shifted by different amounts.
    edge = 1 << lo.bit_length()
    assert _plain_run_masses(lo, edge - 1, 6, 64) and _plain_run_masses(edge, hi, 6, 64)
    expected = _plain_run_masses(lo, hi, 6, 64)
    table = corrected_table(MachineRange(1, 2, lo, hi), 6, budget=64, threads=threads)
    assert table.entries == expected


def test_corrected_total_mass_never_exceeds_alpha_budget():
    for interval in ((1, 1000), (1, 3000)):
        u = MachineRange(1, 2, *interval)
        for block in (0, 2, 4):
            total = corrected_table(u, block, budget=64).total_mass()
            assert total <= alpha_sum_upto(interval[1]) <= Fraction(1, 4) < 1


def test_alpha_summing_past_one_raises_named_error(monkeypatch):
    # machines 1 and 3 halt on empty input: weights 1/2 give mass exactly 1,
    # unit weights give mass 2
    u = MachineRange(1, 1, 1, 3)
    monkeypatch.setattr(ctm, "_kraft_exponent", lambda bits: 1)
    assert corrected_table(u, 0, budget=16).total_mass() == 1
    monkeypatch.setattr(ctm, "_kraft_exponent", lambda bits: 0)
    with pytest.raises(SubProbabilityError, match="exceeds 1"):
        corrected_table(u, 0, budget=16)


def test_corrected_monotone_in_budget_and_universe():
    u = MachineRange(1, 1)
    small = corrected_table(u, 2, budget=2)
    big = corrected_table(u, 2, budget=64)
    for x, mass in small.entries.items():
        assert big.entries.get(x, Fraction(0)) >= mass
    narrow = corrected_table(MachineRange(1, 1, 1, 200), 2, budget=64).total_mass()
    wide = corrected_table(MachineRange(1, 1, 1, 1000), 2, budget=64).total_mass()
    assert narrow <= wide


def test_neg_log_exact_power_of_two():
    u = MachineRange(1, 1, 1, 1)  # machine 1 halts on eps with eps
    table = corrected_table(u, 0, budget=8)
    assert table.entries[""] == Fraction(1, 8)
    assert neg_log_estimate("", table) == 3.0


def test_neg_log_undefined_for_missing_output():
    with pytest.raises(UndefinedMassError):
        neg_log_estimate("0110", corrected_table(MachineRange(1, 1, 1, 3), 1, budget=8))


def test_neg_log_nonincreasing_as_universe_grows():
    small = neg_log_estimate("1", corrected_table(MachineRange(1, 1, 1, 200), 2, budget=64))
    big = neg_log_estimate("1", corrected_table(MachineRange(1, 1, 1, 1000), 2, budget=64))
    assert big <= small


def test_gap_report_produced_and_finite():
    import math

    u = MachineRange(1, 1)
    strings = [""] + [
        format(v, f"0{L}b") for L in (1, 2, 3) for v in range(1 << L)
    ]
    table = corrected_table(u, 4, budget=64)
    classes = applicable_set(strings, u, budget=64, max_prog_len=4)
    gaps = {}
    for x in strings:
        try:
            est = neg_log_estimate(x, table)
        except UndefinedMassError:
            continue
        bound, _ = bound_from_pairs(x, [pr for _, pr in classes[x]])
        gaps[x] = est - bound
    assert gaps, "no string got a defined estimate"
    assert all(math.isfinite(g) for g in gaps.values())


def _sample_table():
    return DistributionTable({"": Fraction(1, 3), "10": Fraction(3, 7)}, "frequency", "s1-1", 9)


def _meta(t):
    return {"scheme": t.scheme, "universe": t.universe, "budget": t.budget, "L": t.block_len}


def _rebuilt(entries, meta):
    return DistributionTable(entries, meta["scheme"], meta["universe"], meta["budget"], meta["L"])


def test_csv_round_trip_bit_exact(parse_table):
    t = _sample_table()
    text = table_to_csv(t, config_digest="abc123")
    entries, meta = parse_table(text, "csv")
    assert entries == t.entries and meta == _meta(t)
    assert text.splitlines()[:2] == ["# manifest_config=abc123", ctm.CSV_HEADER]
    assert table_to_csv(_rebuilt(entries, meta), config_digest="abc123") == text


def test_json_round_trip_bit_exact(parse_table):
    t = corrected_table(MachineRange(1, 1, 1, 50), 1, budget=32)
    text = table_to_json(t)
    entries, meta = parse_table(text, "json")
    assert entries == t.entries and meta == _meta(t) == {
        "scheme": "corrected", "universe": "s1-1@i1-50", "budget": 32, "L": 1
    }
    assert table_to_json(_rebuilt(entries, meta)) == text


@given(
    st.dictionaries(
        st.text(alphabet="01", max_size=5),
        st.fractions(min_value=0, max_value=1),
        max_size=6,
    )
)
def test_csv_round_trip_property(parse_table, entries):
    t = DistributionTable(entries, "frequency", "s1-2", 3)
    if not entries:
        return
    assert parse_table(table_to_csv(t)) == (t.entries, _meta(t))
