"""The lazy (tree-normal-form) layer sweeps against the exhaustive oracle.

The oracle is the plain per-machine loop: decode every index, run
``analyze_table`` on its full table, and aggregate.  The lazy sweeps must
reproduce its max step count, undecided count and per-output counts
exactly.
"""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmobench import ctm, enumeration, halting
from kolmobench.ctm import output_frequency
from kolmobench.enumeration import (
    BoxCounter,
    MachineRange,
    index_to_table,
    layer_offset,
    machine_count,
    table_to_index,
)
from kolmobench.halting import (
    PartialTable,
    SweepStats,
    Undefined,
    _walk_check,
    analyze_table,
    bb_table,
    layer_leaves,
    verify_certificate,
)
from kolmobench.tm_core import (
    MOVE_LEFT,
    MOVE_RIGHT,
    WRITE_BLANK,
    WRITE_ONE,
    identity_scanner,
    programs_of_length,
    str_to_syms,
)

from helpers import iter_tables

LAYER2_LO = layer_offset(2) + 1
WINDOW = (8_676_204, 8_680_203)  # a 4000-index window of the mixture benchmark


def leaf_stream_digest(leaves):
    """sha256 of the sorted leaf stream: one (table items, count, result)
    line per leaf, so any change to a leaf's box or result moves it."""
    lines = sorted(repr((sorted(t.items()), c, res)) for t, _, c, res in leaves)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


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
    rec = bb_table(n, [budget], machine_range=rng, verify=True)
    assert rec.max_steps == want_max
    assert rec.undecided_count - (machine_count(n) - swept) == want_undecided
    assert rec.stats.machines == sum(rec.stats.verdicts.values()) == swept
    freq = output_frequency(rng, budget)
    assert freq.entries == {x: Fraction(c, swept) for x, c in want_counts.items()}


@pytest.mark.parametrize("budget", [1, 4, 64, 256])
def test_full_one_state_layer_matches_oracle(budget):
    hi = machine_count(1)
    assert_matches_oracle(1, budget, 1, hi, list(iter_tables(1)))
    rec = bb_table(1, [budget])
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
    rec = bb_table(2, [256], verify=True)
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
    hi = LAYER2_LO + machine_count(2) - 1
    assert leaf_stream_digest(layer_leaves(2, 256, LAYER2_LO, hi, verify=True)) == (
        "50b4affae8baecd8dd8c3bc5913e3182eb476632a4342faf08ef5ea1116e4de1"
    )


# Detector oracle: every leaf's result (kind, certificate, discovery step)
# is pinned, so a detector change that alters any verdict, splice candidate
# or candidate order moves a digest.  Each stream holds two-cut splice
# leaves.  3-state slices of 1e8 indices stand in for the layer, which has
# no exhaustive oracle.
DIGEST_CASES = [
    pytest.param(
        2, "0", None, False, "cfe8678fe882e7132542b277a65733f74a96e1fb17328ad081405aaae8a9e1e1",
        id="layer2-0",
    ),
    pytest.param(
        2, "1", None, False, "5326526256aec47f3d0ee73ec073004b898199669c2d7260cc8558685cca6da9",
        id="layer2-1",
    ),
    pytest.param(
        2, "010110", None, False, "a0f7f80d9f6fea35d83b288e939306de5c0b7ffdae1637742a2c436fc72c528c",
        id="layer2-010110", marks=pytest.mark.slow,
    ),
    pytest.param(
        3, "", 0, True, "754311e3dfaeb449cdeda94d1b09d2c21e537ebe47ad1cce6503bf15cc733c2d",
        id="slice3-seed0", marks=pytest.mark.slow,
    ),
    pytest.param(
        3, "", 1, True, "db542c9d108b68d8e04b2b57af5f55a74efbf642dfffaf925a48512a1fef5ebc",
        id="slice3-seed1", marks=pytest.mark.slow,
    ),
    pytest.param(
        2, "010110", WINDOW, False, "64e41177f1b8bb2a83941f04d73eb9607127bd56cc406c7c8e1a8f7e3fa12a54",
        id="window2-010110",
    ),
    pytest.param(
        2, "010110", WINDOW, True, "64e41177f1b8bb2a83941f04d73eb9607127bd56cc406c7c8e1a8f7e3fa12a54",
        id="window2-010110-verify",
    ),
]


def pinned_leaves(n, input_str, span, verify):
    """The leaves of a DIGEST_CASES stream.  span: None for the whole layer,
    a seed for a seeded slice, else (lo, hi)."""
    if span is None:
        lo, hi = layer_offset(n) + 1, layer_offset(n) + machine_count(n)
    elif isinstance(span, int):
        lo, hi = seeded_slice(n, span)
    else:
        lo, hi = span
    return layer_leaves(n, 256, lo, hi, verify, input_str)


@pytest.mark.parametrize("n, input_str, span, verify, sha", DIGEST_CASES)
def test_leaf_stream_digest_is_pinned(n, input_str, span, verify, sha):
    assert leaf_stream_digest(pinned_leaves(n, input_str, span, verify)) == sha


@pytest.mark.parametrize("n, input_str, span, verify, sha", DIGEST_CASES)
def test_leaf_stream_digest_holds_with_box_memo_cap_one(n, input_str, span, verify, sha,
                                                        monkeypatch):
    # A memo that holds one answer misses nearly every time, so nearly every
    # box count comes from a fresh digit walk; no leaf may move.
    monkeypatch.setattr(enumeration, "BOX_MEMO_CAP", 1)
    assert leaf_stream_digest(pinned_leaves(n, input_str, span, verify)) == sha


def test_runs_end_only_at_leaves_and_branching_reads(monkeypatch):
    # A read of an entry that the window's box forces (one value with a
    # nonzero count) continues the run, so every analyze_table call ends at
    # a leaf or at a read that branches the tree.  A read of an open input
    # cell (a negative position) always branches, into 0 and 1.
    boxes, calls, branching = BoxCounter(2, *WINDOW), [0], [0]

    def counting(table, *args):
        calls[0] += 1
        try:
            return analyze_table(table, *args)
        except Undefined as e:
            pos = e.args[0]
            assert pos < 0 or len(boxes.branch(table, pos)) >= 2
            branching[0] += 1
            raise

    monkeypatch.setattr(halting, "analyze_table", counting)
    stats = ctm.corrected_table(MachineRange(2, 2, *WINDOW), 6, 1024).stats
    assert calls[0] == stats.leaves + branching[0] == 4_823


def assert_open_tree_matches_programs(rng, block_len, budget):
    """Per bit-length span of ``rng``: the tree on ``block_len`` open cells
    has the numerators, machines and verdicts of the 2^L concrete trees
    summed, and no more leaves."""
    for n, lo, hi in rng.bit_length_spans():
        got, want = SweepStats(), SweepStats()
        leaves = layer_leaves(n, budget, lo, hi, input_str="?" * block_len, stats=got)
        numerators, concrete = ctm._leaf_numerators(leaves, 0), Counter()
        for p in programs_of_length(block_len):
            concrete += ctm._leaf_numerators(layer_leaves(n, budget, lo, hi, False, p, want), 0)
        assert numerators == concrete
        assert (got.machines, got.verdicts) == (want.machines, want.verdicts)
        assert got.machines == (hi - lo + 1) << block_len
        assert got.leaves <= want.leaves


def seeded_window(seed, width=400):
    """A seeded (lo, hi) of the 2-state layer."""
    lo = LAYER2_LO + random.Random(seed).randrange(machine_count(2) - width)
    return lo, lo + width - 1


@pytest.mark.parametrize(
    "span, block_len, budget",
    [
        pytest.param((2, 2, *WINDOW), 6, 1024, id="window-8676204"),
        pytest.param((2, 2, 3_091_719, 3_095_718), 6, 1024, id="window-3091719"),
        pytest.param((1, 2, 990, 1040), 3, 64, id="two-layers"),
        pytest.param((2, 2, 1020, 1030), 5, 256, id="bit-length-step"),
        *(pytest.param((2, 2, *seeded_window(seed)), block_len, budget, id=f"seed{seed}")
          for seed, (block_len, budget) in enumerate(
              [(1, 1), (2, 4), (4, 16), (5, 64), (7, 256), (8, 1024)])),
    ],
)
def test_open_input_tree_matches_every_program(span, block_len, budget):
    assert_open_tree_matches_programs(MachineRange(*span), block_len, budget)


def test_open_input_tree_reaches_splices():
    # The window's 95 splice pairs: each search first resolves every open cell.
    stats = ctm.corrected_table(MachineRange(2, 2, 3_091_719, 3_095_718), 6, 1024).stats
    assert stats.verdicts["splice"] == 95


def test_cycle_across_the_first_read_of_an_input_cell():
    # State 1 steps right off cell 0 and state 2 back left off cell 1, whatever
    # they read: the configuration of step 0 recurs at step 2.  The open tree
    # reads both cells only after step 0 stored its cycle key, so a key of the
    # whole tape (open cells in it) would miss that recurrence.
    table = ((WRITE_BLANK, 0), (MOVE_RIGHT, 2), (MOVE_RIGHT, 2),
             (WRITE_BLANK, 0), (MOVE_LEFT, 1), (MOVE_LEFT, 1))
    want = ("d", ("cycle", 0, 2), 2)
    for p in programs_of_length(2):
        assert analyze_table(table, str_to_syms(p), 64) == want
    i = table_to_index(2, table)
    stats = SweepStats()
    results = [res for *_, res in layer_leaves(2, 64, i, i, input_str="??", stats=stats)]
    assert results == [want] * 4
    assert stats.verdicts == {"cycle": 4}
    # With 24 more cells the tape's keys are compact, from step 0 on.
    results = [res for *_, res in layer_leaves(2, 64, i, i, input_str="??" + "0" * 24)]
    assert results == [want] * 4


def test_open_leaf_outputs_its_unread_cells():
    # The identity scanner reads every cell, so its tree splits into the 2^L
    # programs.  A machine that overwrites cell 0 with 1 and halts reads no
    # other cell: two leaves, one per value of cell 0, stand for all eight
    # programs, with "?" for each cell never read.
    scanner = table_to_index(1, identity_scanner().table)
    leaves = layer_leaves(1, 64, scanner, scanner, input_str="??")
    assert sorted(res[2] for *_, res in leaves) == ["00", "01", "10", "11"]
    writer = table_to_index(1, ((WRITE_BLANK, 0), (WRITE_ONE, 0), (WRITE_ONE, 0)))
    stats = SweepStats()
    leaves = list(layer_leaves(1, 64, writer, writer, input_str="???", stats=stats))
    assert [res for *_, res in leaves] == [("h", 1, "1??")] * 2
    assert (stats.leaves, stats.machines) == (2, 8)
    assert ctm._leaf_numerators(leaves, 0) == {x: 2 for x in ["100", "101", "110", "111"]}


def test_verify_replays_an_open_input_tree():
    # A replay re-reads only what its run read, so a certificate on an open
    # input reads no open cell: the replays leave every leaf and count as is.
    plain, verified = SweepStats(), SweepStats()
    window = (2, 1024, 5_988_407, 5_992_406)
    want = [(dict(t), *rest) for t, *rest in layer_leaves(*window, False, "?" * 6, plain)]
    got = [(dict(t), *rest) for t, *rest in layer_leaves(*window, True, "?" * 6, verified)]
    assert got == want and len(got) == 29_552
    assert verified.leaves_verified == 21_143
    verified.leaves_verified = 0
    assert verified == plain


def test_replay_that_reads_an_entry_the_leaf_left_open_fails(monkeypatch):
    # A forged detector returns the genuine certificate of a machine that
    # writes blank on blank forever, without reading the leaf's table.  The
    # one-index box forces every entry, but the replay runs on the finished
    # leaf: its first read fails it, with no branch and no leaf yielded.
    full = ((WRITE_BLANK, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 0))
    real = analyze_table(full, (), 64)
    assert real[0] == "d" and verify_certificate(full, (), real[1])
    calls, branched, branch = [], [], BoxCounter.branch

    def forged(table, *args):
        calls.append(dict(table))
        return real

    def counting(self, fixed, pos):
        branched.append(pos)
        return branch(self, fixed, pos)

    monkeypatch.setattr(halting, "analyze_table", forged)
    monkeypatch.setattr(BoxCounter, "branch", counting)
    i = table_to_index(1, full)
    stats = SweepStats()
    with pytest.raises(AssertionError, match="certificate failed replay"):
        next(layer_leaves(1, 64, i, i, verify=True, stats=stats))
    assert calls == [{}] and branched == []
    assert (stats.leaves, stats.leaves_verified) == (0, 0)


def test_corrected_window_in_one_bit_length_starts_no_pool(pool_sizes):
    # One tree per (layer, bit length): a window inside one bit length is one
    # job, so --threads 2 forks nothing; a window across 2^10 is two jobs.
    ctm.corrected_table(MachineRange(2, 2, *WINDOW), 6, 1024, threads=2)
    assert pool_sizes == []
    rng = MachineRange(2, 2, 1020, 1030)
    two = ctm.corrected_table(rng, 6, 256, threads=2)
    assert pool_sizes == [2]
    assert two.entries == ctm.corrected_table(rng, 6, 256).entries


def test_frequency_over_two_layers_matches_plain_loop(pool_sizes):
    # Indices 990..1040 span the 1- and 2-state layers: one tree, one job, each.
    rng, want, counts = MachineRange(1, 2, 990, 1040), SweepStats(), {}
    lo, hi = rng.index_bounds()
    for i in range(lo, hi + 1):
        res = analyze_table(index_to_table(i)[1], (), 64)
        want.add(res, 1)
        if res[0] == "h" and res[2] is not None:
            counts[res[2]] = counts.get(res[2], 0) + 1
    freq = output_frequency(rng, 64)
    assert freq.entries == {x: Fraction(c, rng.count) for x, c in counts.items()}
    assert (freq.stats.machines, freq.stats.verdicts) == (want.machines, want.verdicts)
    leaves = sum(1 for n, lo, hi in rng.layers() for _ in layer_leaves(n, 64, lo, hi))
    assert freq.stats.leaves == leaves
    assert pool_sizes == []  # both trees run in this process


ONE_LAYER_JOB = (1, 1, 1000, "", 0)  # the 1-state layer's frequency tree


def test_sweep_runs_one_job_in_process(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a single job must run in this process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    counts, stats = halting.sweep(ctm._leaf_numerators, [ONE_LAYER_JOB], 64, threads=4)
    assert stats.machines == 1000 and sum(counts.values()) > 0


def test_sweep_starts_no_more_workers_than_jobs(pool_sizes):
    jobs = [ONE_LAYER_JOB, ONE_LAYER_JOB]
    counts, stats = halting.sweep(ctm._leaf_numerators, jobs, 64, threads=8)
    one, one_stats = halting.sweep(ctm._leaf_numerators, jobs[:1], 64)
    assert pool_sizes == [2]
    assert counts == one + one and stats.machines == 2 * one_stats.machines == 2000


def test_sweep_passes_verify_to_every_worker(pool_sizes):
    # Each job's certificates are replayed where its tree runs, forked workers
    # included: the pool's verified-leaf count equals the in-process one.
    jobs = [(1, 1, 1000, ""), (1, 1, 1000, "1")]
    one = halting.sweep(halting._bb_fold, jobs, 64, threads=1, verify=True)
    two = halting.sweep(halting._bb_fold, jobs, 64, threads=2, verify=True)
    assert pool_sizes == [2]
    assert one == two and len(one[0]) == 2 and one[1].leaves_verified > 0


def test_sweep_raises_when_a_pool_worker_dies():
    # One of two jobs kills its worker.  The sweep must fail loudly, not wait
    # forever for the lost result; the timeout turns a hang into a failure.
    script = """
import os
from kolmobench import ctm, halting

def fold(leaves, die):
    if die:
        os._exit(1)
    return ctm._leaf_numerators(leaves, 0)

try:
    halting.sweep(fold, [(1, 1, 1000, "", 0), (1, 1, 1000, "", 1)], 64, threads=2)
except Exception as e:
    print(type(e).__name__)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.split() == ["BrokenProcessPool"], proc.stderr


def seeded_slice(n, seed):
    """A seeded interval of 1e8 indices of the n-state layer."""
    lo = layer_offset(n) + 1 + random.Random(seed).randrange(machine_count(n) - 10**8)
    return lo, lo + 10**8 - 1


def sample_member(boxes, table, rng):
    """One index of the leaf's box, drawn by a walk down its open entries
    that picks each value with probability proportional to its box count."""
    fixed = dict(table)
    for pos in reversed(range(boxes.width)):
        if pos not in fixed:
            entries, counts = zip(*boxes.branch(fixed, pos))
            fixed[pos] = rng.choices(entries, weights=counts)[0]
    return table_to_index(boxes.n1 - 1, tuple(fixed[pos] for pos in range(boxes.width)))


# The 3-state layer has no exhaustive oracle: instead, one seeded member of
# every leaf of the digest test's slices, decoded and analysed plainly, must
# get the leaf's result.
@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_members_get_their_leaf_result(seed):
    lo, hi = seeded_slice(3, seed)
    boxes, rng = BoxCounter(3, lo, hi), random.Random(seed)
    for table, _, _, res in layer_leaves(3, 256, lo, hi, verify=True):
        i = sample_member(boxes, table, rng)
        n, full = index_to_table(i)
        assert n == 3 and lo <= i <= hi
        assert all(full[pos] == entry for pos, entry in table.items())
        assert analyze_table(full, (), 256) == res


def doubling(start):
    """start, 2*start, ... up to 2^16: the bb --auto-budget schedule."""
    return [start << k for k in range(17) if start << k <= 1 << 16]


def doubling_loop(n, start, verify):
    """Reference: one fresh one-budget sweep per budget, doubling until the
    layer is decided or the next budget passes 2^16."""
    budget = start
    while True:
        rec = bb_table(n, [budget], verify=verify)
        if rec.decided_all or budget * 2 > 1 << 16:
            return rec
        budget *= 2


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("start", [1, 16, 256])
@pytest.mark.parametrize("n", [1, 2])
def test_schedule_matches_doubling_loop(n, start, verify):
    rec = bb_table(n, doubling(start), verify=verify)
    want = doubling_loop(n, start, verify)
    assert rec == want and rec.decided_all
    assert vars(rec.stats) == vars(want.stats)


def test_schedule_left_undecided_reports_its_last_budget():
    rec = bb_table(2, [1, 2, 4, 8])
    want = bb_table(2, [8])
    assert rec == want and rec.undecided_count > 0 and rec.budget_used == 8
    assert vars(rec.stats) == vars(want.stats)


def test_schedule_counts_every_machine_once():
    rec = bb_table(1, doubling(1))
    assert rec.decided_all and rec.max_steps == 3
    assert rec.stats.machines == sum(rec.stats.verdicts.values()) == machine_count(1)
    assert "unknown" not in rec.stats.verdicts


@pytest.mark.parametrize("schedule", [[], [4, 4], [8, 4], [0, 4]])
def test_bb_table_refuses_bad_schedules(schedule):
    with pytest.raises(ValueError):
        bb_table(1, schedule)


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


def box_count(counter, fixed):
    """How many indices of the counter's interval agree with ``fixed``: the
    interval's size, else the child of the rest of ``fixed`` at one of its
    pinned entries (0 where there is no such child)."""
    if not fixed:
        return counter.size
    pos = next(iter(fixed))
    rest = {k: v for k, v in fixed.items() if k != pos}
    return dict(counter.branch(rest, pos)).get(fixed[pos], 0)


@given(boxes())
def test_box_count_matches_brute_force(box):
    # Every child too: the entries with a nonzero count, in digit order.
    n, fixed, lo, hi = box
    first = layer_offset(n) + 1
    last = first + machine_count(n) - 1
    tables = [index_to_table(i)[1] for i in range(max(lo, first), min(hi, last) + 1)]
    members = [t for t in tables if all(t[pos] == entry for pos, entry in fixed.items())]
    counter = BoxCounter(n, lo, hi)
    assert counter.entries == [divmod(d, n + 1) for d in range(5 * (n + 1))]
    assert box_count(counter, fixed) == len(members)
    for pos in set(range(3 * n)) - set(fixed):
        want = tuple((e, c) for e in counter.entries if (c := sum(t[pos] == e for t in members)))
        assert counter.branch(fixed, pos) == want


@given(boxes())
def test_box_members_match_brute_force(box):
    n, fixed, lo, hi = box
    first = layer_offset(n) + 1
    last = first + machine_count(n) - 1
    want = [
        i
        for i in range(max(lo, first), min(hi, last) + 1)
        if all(index_to_table(i)[1][pos] == entry for pos, entry in fixed.items())
    ]
    counter = BoxCounter(n, lo, hi)
    assert box_count(counter, fixed) == len(want)
    # The first member of the box, then of the box above it, and so on: the
    # members in increasing order (the first eight).
    members, start = [], lo
    while len(members) < 8 and box_count(counter := BoxCounter(n, start, hi), fixed):
        members.append(counter.first_member(fixed))
        start = members[-1] + 1
    assert members == want[:8]


def test_box_count_of_open_table_is_interval_size():
    assert BoxCounter(2, 1, 10**12).size == machine_count(2)
    assert BoxCounter(2, LAYER2_LO + 7, LAYER2_LO + 99).size == 93
    assert box_count(BoxCounter(1, 1, 1000), {0: (MOVE_RIGHT, 1)}) == 1000 // 10
    assert BoxCounter(1, 1, 1000).first_member({0: (MOVE_RIGHT, 1)}) == min(
        i for i in range(1, 1001) if index_to_table(i)[1][0] == (MOVE_RIGHT, 1)
    )
    assert BoxCounter(2, LAYER2_LO + 7, LAYER2_LO + 99).first_member({}) == LAYER2_LO + 7
    assert sum(c for _, c in BoxCounter(2, 1, 10**12).branch({}, 5)) == machine_count(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_memoized_box_counts_match_fresh_walks(n):
    # Seeded partial tables from a small pool, so that queries repeat and hit
    # the memo: each answer, hit or miss, equals an uncached digit walk on a
    # fresh counter.
    rng = random.Random(n)
    first, width, base = layer_offset(n) + 1, 3 * n, 5 * (n + 1)
    last = first + machine_count(n) - 1
    for _ in range(25):
        lo = rng.randrange(first - 5, last + 5)
        hi = rng.choice([lo + rng.randrange(-2, 3000), last + 2, lo + rng.randrange(last - first)])
        counter = BoxCounter(n, lo, hi)
        pool = [{pos: divmod(rng.randrange(base), n + 1)
                 for pos in rng.sample(range(width), rng.randrange(width))} for _ in range(6)]
        for _ in range(60):
            fixed = rng.choice(pool)
            pos = rng.choice([p for p in range(width) if p not in fixed])
            want = BoxCounter(n, lo, hi)._walk(fixed, pos)
            assert counter.branch(fixed, pos) == want
            assert counter.branch(dict(fixed), pos) == want
        assert 0 < len(counter.memo) < 60  # some queries hit


def test_box_memo_stays_under_its_cap_on_a_three_state_slice():
    # On one open cell, the 1e6-index 3-state slice at offset 300000000 asks
    # for more distinct box counts than the cap: the memo fills, is emptied,
    # and never passes it.
    lo = layer_offset(3) + 1 + 300_000_000
    leaves = layer_leaves(3, 256, lo, lo + 10**6 - 1, input_str="?")
    sizes = [len(table.boxes.memo) for table, *_ in leaves]
    assert max(sizes) == enumeration.BOX_MEMO_CAP
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # emptied at least once


def test_concrete_input_tree_keeps_no_memo():
    # Without an open cell a child differs from its parent in the entry it
    # branched on, so no two nodes ask one question, and a memo would never hit.
    for input_str in ["", "010110"]:
        leaves = list(layer_leaves(2, 256, *WINDOW, input_str=input_str))
        assert leaves and all(table.boxes.memo is None for table, *_ in leaves)
    table, *_ = next(layer_leaves(2, 256, *WINDOW, input_str="0?"))
    assert table.boxes.memo is not None


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


def test_step_zero_read_on_blank_tape_resumes_its_run():
    # On blank tape step 0 is a record step like any other: its escape read
    # raises with the run, and a fork of that run resumed on any entry gives
    # the fresh run's result.
    with pytest.raises(Undefined) as err:
        analyze_table(PartialTable(), (), 4)
    assert err.value.args == (0,)
    run = err.value.run
    assert run.steps == 0
    for entry, want in [
        ((MOVE_LEFT, 1), ("d", ("escape", 1, 0, "L"), 0)),
        ((MOVE_RIGHT, 1), ("d", ("escape", 1, 0, "R"), 0)),
        ((WRITE_ONE, 0), ("h", 1, "1")),
    ]:
        table = PartialTable({0: entry})
        assert analyze_table(table, (), 4, run.fork()) == want == analyze_table(table, (), 4)


def test_certificate_replay_of_open_entry_raises():
    # The replay must raise on an entry the leaf leaves open, never pass it.
    table = PartialTable({0: (MOVE_RIGHT, 2)})
    with pytest.raises(Undefined):
        verify_certificate(table, (), ("escape", 2, 1, "R"))


@pytest.mark.slow
def test_full_two_state_layer_matches_oracle():
    lo = LAYER2_LO
    hi = lo + machine_count(2) - 1
    assert_matches_oracle(2, 256, lo, hi, iter_tables(2))


@pytest.mark.slow
def test_full_two_state_layer_on_input_one_matches_plain_loop():
    # The corrected mixture's leaf trees on a non-empty input, one per bit
    # length of the layer (10 to 24), against one analysis per machine.
    lo, hi = LAYER2_LO, LAYER2_LO + machine_count(2) - 1
    kraft_max = ctm._kraft_exponent(hi.bit_length())
    syms, want = str_to_syms("1"), {}
    for i, table in iter_tables(2):
        res = analyze_table(table, syms, 256)
        if res[0] == "h" and res[2] is not None:
            share = 1 << (kraft_max - ctm._kraft_exponent(i.bit_length()))
            want[res[2]] = want.get(res[2], 0) + share
    jobs = [(2, max(lo, 1 << (k - 1)), min(hi, (1 << k) - 1), "1",
             kraft_max - ctm._kraft_exponent(k))
            for k in range(lo.bit_length(), hi.bit_length() + 1)]
    got, stats = halting.sweep(ctm._leaf_numerators, jobs, 256)
    assert got == want
    assert stats.machines == machine_count(2)
