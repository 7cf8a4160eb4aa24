"""The lazy (tree-normal-form) layer sweeps against the exhaustive oracle.

The oracle is the plain per-machine loop: decode every index, run
``analyze_table`` on its full table, and aggregate.  The lazy sweeps must
reproduce its max step count, undecided count and per-output counts
exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmobench.ctm import output_frequency
from kolmobench.enumeration import (
    MachineRange,
    box_count,
    index_to_table,
    iter_tables,
    layer_offset,
    machine_count,
)
from kolmobench.halting import (
    BlankEscape,
    PartialTable,
    ProvedDiverges,
    Undefined,
    _LeafMachine,
    _walk_check,
    analyze_table,
    bb_table,
    decide_layer,
    verify_certificate,
)
from kolmobench.tm_core import MOVE_RIGHT, WRITE_ONE

LAYER2_LO = layer_offset(2) + 1


def oracle(tables, budget):
    """(max_steps, undecided, output -> count) by one analysis per machine."""
    max_steps, undecided, counts = 0, 0, {}
    for _, table in tables:
        res = analyze_table(table, (), budget)
        if res[0] == "h":
            max_steps = max(max_steps, res[1])
            if res[2] is not None:
                counts[res[2]] = counts.get(res[2], 0) + 1
        elif res[0] == "u":
            undecided += 1
    return max_steps, undecided, counts


def assert_matches_oracle(n, budget, lo, hi, tables):
    want_max, want_undecided, want_counts = oracle(tables, budget)
    swept = hi - lo + 1
    rng = MachineRange(n, n, lo, hi)
    rec = bb_table(n, budget, machine_range=rng, verify=True)
    assert rec.max_steps == want_max
    assert rec.undecided_count - (machine_count(n) - swept) == want_undecided
    assert rec.stats.machines == sum(rec.stats.verdicts.values()) == swept
    freq = output_frequency(rng, budget)
    assert freq.entries == {x: Fraction(c, swept) for x, c in want_counts.items()}


@pytest.mark.parametrize("budget", [1, 4, 64, 256])
def test_full_one_state_layer_matches_oracle(budget):
    hi = machine_count(1)
    assert_matches_oracle(1, budget, 1, hi, list(iter_tables(1)))
    rec = bb_table(1, budget)
    assert rec.stats.leaves < machine_count(1)


# At a small budget many runs end right after reaching a new extreme, where
# the blank-escape check reads an entry the plain run never reaches.
@pytest.mark.parametrize("seed, budget", [(0, 256), (1, 256), (2, 256), (3, 3)])
def test_two_state_slices_match_oracle(seed, budget):
    width = 20_000
    lo = LAYER2_LO + random.Random(seed).randrange(machine_count(2) - width)
    hi = lo + width - 1
    tables = (index_to_table(i) for i in range(lo, hi + 1))
    assert_matches_oracle(2, budget, lo, hi, tables)


def test_verified_two_state_layer_stats_are_pinned():
    # A replay or detector that read an entry its run never took would
    # split leaves, and move these counts.
    rec = bb_table(2, 256, verify=True)
    assert (rec.max_steps, rec.undecided_count) == (10, 0)
    assert (rec.stats.leaves, rec.stats.leaves_verified) == (16_353, 10_513)
    assert rec.stats.verdicts == {
        "halt": 6_370_014,
        "invalid": 16,
        "cycle": 1_930_525,
        "escape": 1_891_172,
        "dir": 1_187_106,
        "splice": 11_792,
    }


def test_decide_layer_counts_every_machine_once():
    rec = decide_layer(1, start_budget=1)
    assert rec.decided_all and rec.max_steps == 3
    assert rec.stats.machines == sum(rec.stats.verdicts.values()) == machine_count(1)
    assert "unknown" not in rec.stats.verdicts


@st.composite
def boxes(draw):
    n = draw(st.integers(1, 2))
    width = 3 * n
    positions = draw(st.sets(st.integers(0, width - 1)))
    fixed = {
        pos: divmod(draw(st.integers(0, 5 * (n + 1) - 1)), n + 1) for pos in positions
    }
    first = layer_offset(n) + 1
    last = first + machine_count(n) - 1
    lo = draw(st.integers(first - 5, last + 5))
    hi = lo + draw(st.integers(-2, 3000))
    return n, fixed, lo, hi


@given(boxes())
def test_box_count_matches_brute_force(box):
    n, fixed, lo, hi = box
    first = layer_offset(n) + 1
    last = first + machine_count(n) - 1
    want = sum(
        all(index_to_table(i)[1][pos] == entry for pos, entry in fixed.items())
        for i in range(max(lo, first), min(hi, last) + 1)
    )
    assert box_count(n, fixed, lo, hi) == want


def test_box_count_of_open_table_is_interval_size():
    assert box_count(2, {}, 1, 10**12) == machine_count(2)
    assert box_count(2, {}, LAYER2_LO + 7, LAYER2_LO + 99) == 93
    assert box_count(1, {0: (MOVE_RIGHT, 1)}, 1, 1000) == 1000 // 10


def test_speculative_blank_escape_read_branches():
    # State 1 moves right into state 2 and the budget ends there.  A plain
    # one-step run never reads entry 3 (state 2, blank), but the blank-escape
    # check does; the verdict at budget 1 depends on it.
    table = PartialTable({0: (MOVE_RIGHT, 2)})
    with pytest.raises(Undefined) as err:
        analyze_table(table, (), 1)
    assert err.value.args == (3,)
    escape = PartialTable({0: (MOVE_RIGHT, 2), 3: (MOVE_RIGHT, 2)})
    writer = PartialTable({0: (MOVE_RIGHT, 2), 3: (WRITE_ONE, 2)})
    assert analyze_table(escape, (), 1)[0] == "d"
    assert analyze_table(writer, (), 1) == ("u", 1)
    # The splice crossing walk reads ahead through the table as well.
    with pytest.raises(Undefined):
        _walk_check(PartialTable(), 1, 1, True, {})


def test_certificate_replay_of_open_entry_raises():
    # The replay must branch on an entry the leaf leaves open, never pass it.
    table = PartialTable({0: (MOVE_RIGHT, 2)})
    verdict = ProvedDiverges(BlankEscape(state=2, step=1, direction="R"), found_at=1)
    with pytest.raises(Undefined):
        verify_certificate(_LeafMachine(2, table), "", verdict)


@pytest.mark.slow
def test_full_two_state_layer_matches_oracle():
    lo = LAYER2_LO
    hi = lo + machine_count(2) - 1
    assert_matches_oracle(2, 256, lo, hi, iter_tables(2))
