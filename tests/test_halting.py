import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmobench import halting
from kolmobench.enumeration import (
    index_to_machine, index_to_table, layer_offset, machine_count,
)
from kolmobench.halting import (
    OPEN, BBRecord, Simulator, analyze_table, bb_table, verify_certificate,
)
from kolmobench.tm_core import (
    MOVE_LEFT,
    MOVE_RIGHT,
    WRITE_BLANK,
    WRITE_ONE,
    WRITE_ZERO,
    Machine,
    encode_index,
    run,
    str_to_syms,
    u_run,
)

from helpers import immediate_halt, iter_tables

binary = st.text(alphabet="01", max_size=6)


def machines(max_states=3):
    def build(n, codes):
        return Machine(n_states=n, table=tuple(divmod(c, n + 1) for c in codes))

    return st.integers(1, max_states).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.integers(0, 5 * (n + 1) - 1), min_size=3 * n, max_size=3 * n),
        )
    )


def test_analyze_immediate_halt():
    assert analyze_table(immediate_halt().table, (), 10) == ("h", 1, "")


def test_analyze_right_runner_blank_escape():
    m = Machine(1, ((MOVE_RIGHT, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))
    v = analyze_table(m.table, (), 10)
    assert v[0] == "d"
    assert v[1][0] == "escape"
    assert v[1][3] == "R"
    assert verify_certificate(m.table, (), v[1])


def test_analyze_blink_config_cycle():
    # write one / erase it: the configuration repeats with period 2
    m = Machine(1, ((WRITE_ONE, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 1)))
    v = analyze_table(m.table, (), 10)
    assert v[0] == "d"
    assert v[1][0] == "cycle"
    assert v[1][2] - v[1][1] == 2
    assert verify_certificate(m.table, (), v[1])


def test_analyze_one_way_writer_directional_escape():
    m = Machine(1, ((WRITE_ONE, 1), (WRITE_BLANK, 0), (MOVE_RIGHT, 1)))
    v = analyze_table(m.table, (), 64)
    assert v[0] == "d"
    assert v[1][0] == "dir"
    assert verify_certificate(m.table, (), v[1])


def test_analyze_two_sided_bouncer_splice_cycle():
    # grows a zero block one cell per sweep, alternating ends
    m = Machine(
        2,
        (
            (WRITE_ZERO, 2),  # 1,B
            (MOVE_RIGHT, 1),  # 1,0
            (WRITE_BLANK, 0),  # 1,1
            (WRITE_ZERO, 1),  # 2,B
            (MOVE_LEFT, 2),  # 2,0
            (WRITE_BLANK, 0),  # 2,1
        ),
    )
    v = analyze_table(m.table, (), 512)
    assert v[0] == "d"
    assert v[1][0] == "splice"
    assert verify_certificate(m.table, (), v[1])
    # long replay really does not halt
    assert run(m, "", 20000) == ("u", 20000)


def test_analyze_unknown_below_discovery_budget():
    m = Machine(
        2,
        (
            (WRITE_ZERO, 2),
            (MOVE_RIGHT, 1),
            (WRITE_BLANK, 0),
            (WRITE_ZERO, 1),
            (MOVE_LEFT, 2),
            (WRITE_BLANK, 0),
        ),
    )
    assert analyze_table(m.table, (), 5) == ("u", 5)


@given(machines(4), binary, st.integers(1, 200))
def test_proved_halts_agrees_with_plain_run(m, x, budget):
    v = analyze_table(m.table, str_to_syms(x), budget)
    if v[0] == "h":
        assert run(m, x, v[1]) == v


@given(machines(4), binary, st.integers(1, 200))
def test_proved_diverges_verifies_and_keeps_running(m, x, budget):
    v = analyze_table(m.table, str_to_syms(x), budget)
    if v[0] == "d":
        assert verify_certificate(m.table, str_to_syms(x), v[1])
        assert run(m, x, 4000) == ("u", 4000)


@given(machines(), binary, st.integers(1, 60), st.integers(0, 60))
def test_verdict_monotonicity(m, x, b1, extra):
    b2 = b1 + extra
    v1 = analyze_table(m.table, str_to_syms(x), b1)
    v2 = analyze_table(m.table, str_to_syms(x), b2)
    if v1[0] == "h":
        assert v2 == v1
    elif v1[0] == "d":
        assert v2[0] == "d"
        assert v2[1] == v1[1]
    else:
        assert v2[0] in ("h", "d", "u")


def test_bb_record_consistency_check():
    with pytest.raises(ValueError):
        BBRecord(1, 3, True, 5, 16)


def test_bb_table_one_state_matches_brute_force():
    # independent oracle: plain budgeted runs, no certificates, no sharing
    oracle_max = 0
    halting = set()
    for idx, table in iter_tables(1):
        m = Machine(1, table)
        out = run(m, "", 10_000)
        if out[0] == "h":
            halting.add(idx)
            oracle_max = max(oracle_max, out.steps)
    rec = bb_table(1, [64], verify=True)
    assert rec.decided_all and rec.undecided_count == 0
    assert rec.max_steps == oracle_max == 3
    assert len(halting) == 610


def test_bb_schedule_one_state():
    rec = bb_table(1, [4 << k for k in range(15)])  # doubling from 4 to 2^16
    assert rec.decided_all and rec.max_steps == 3


def test_verify_rejects_tampered_certificates():
    m = Machine(1, ((MOVE_RIGHT, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))
    good = analyze_table(m.table, (), 10)
    assert verify_certificate(m.table, (), good[1])
    assert not verify_certificate(m.table, (), ("escape", 1, 0, "L"))
    blink = Machine(1, ((WRITE_ONE, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 1)))
    assert not verify_certificate(blink.table, (), ("cycle", 0, 1))
    left = Machine(1, ((MOVE_LEFT, 1), (MOVE_LEFT, 1), (MOVE_LEFT, 1)))
    assert verify_certificate(left.table, (), analyze_table(left.table, (), 10)[1])
    for cert in (
        ("dir", 5, 3, "R"),
        ("dir", 3, 3, "L"),
        ("cycle", -1, 2),
        ("escape", 1, -1, "L"),
    ):
        assert not verify_certificate(left.table, (), cert)
    # Index 11 halts at step 2 on "0".  This splice leaves the tape cell that
    # lands right of its cut unchecked; replay must still reject it.
    halts = index_to_machine(11)
    splice = ("splice", 0, 1, -2, ((-2, 2, 0),))
    assert not verify_certificate(halts.table, str_to_syms("0"), splice)
    # An unknown tag is rejected, even around the facts of a good certificate.
    assert not verify_certificate(m.table, (), ("halt", *good[1][1:]))
    # An escape needs every non-blank cell strictly behind the head.  On "1"
    # these tables halt at step 1, reading the cell under the head.
    for move, side in ((MOVE_LEFT, "L"), (MOVE_RIGHT, "R")):
        table = ((move, 1), (move, 1), (WRITE_BLANK, 0))
        assert analyze_table(table, str_to_syms("1"), 10)[0] == "h"
        assert not verify_certificate(table, str_to_syms("1"), ("escape", 1, 0, side))
    # Index 1 halts at step 1 on empty input; two halted configurations match,
    # but they are no cycle.
    first = index_to_machine(1).table
    assert analyze_table(first, (), 10)[:2] == ("h", 1)
    assert not verify_certificate(first, (), ("cycle", 1, 2))


def test_simulator_memoizes_across_budgets():
    # one analysis at the largest open budget settles budgets 3 and 100; budget
    # 2 stays open, as u_run says
    from kolmobench.enumeration import MachineRange
    from kolmobench.estimator import phi_profile

    u = MachineRange(1, 1, 991, 991)
    prog = encode_index(991) + "11"
    assert u_run(prog, 2, u) == ("u", 2)
    assert u_run(prog, 3, u) == ("h", 3, "11") == u_run(prog, 100, u)
    prof = phi_profile(["11"], [2, 3, 100], u, cap=len(prog), ceiling=1 << 24)["11"]
    assert [(r.value, r.witness) for r in prof] == [
        (len(prog), None), (len(prog), prog), (len(prog), prog)
    ]
    m = index_to_machine(2)
    for b in (1, 2, 7):
        fresh = analyze_table(m.table, (), b)
        raw = Simulator().raw_verdict(2, "", b)
        if fresh[0] == "d":
            assert raw == ("u", b)  # the run did not halt within b; no certificate kept
        elif fresh[0] == "h":
            assert raw[0] == "h"
        else:
            assert raw[0] == "u"


def test_simulator_warm_cache_serves_without_running(tmp_path, monkeypatch):
    import kolmobench.halting
    from kolmobench.cache import VerdictCache
    from kolmobench.enumeration import MachineRange

    u, path = MachineRange(1, 1, 1, 300), str(tmp_path / "vc.jsonl")
    keys = [(i, p) for i in u.indices() for p in ("", "0", "1")]
    cold = Simulator(VerdictCache(path))
    verdicts = [cold.raw_verdict(i, p, 32) for i, p in keys]
    assert len(cold.cache) == 900
    cold.cache.close()

    def no_run(*args):
        raise AssertionError("a warm cache ran a machine")

    monkeypatch.setattr(kolmobench.halting, "analyze_table", no_run)
    warm = Simulator(VerdictCache(path))
    assert [warm.raw_verdict(i, p, 32) for i, p in keys] == verdicts


def test_bb_table_partial_interval_counts_unswept_as_undecided():
    from kolmobench.enumeration import MachineRange, machine_count

    rng = MachineRange(1, 1, 1, 100)
    rec = bb_table(1, [64], machine_range=rng)
    assert not rec.decided_all
    assert rec.undecided_count == machine_count(1) - 100
    full = bb_table(1, [64])
    assert full.max_steps >= rec.max_steps


def test_bb_table_rejects_disjoint_interval():
    from kolmobench.enumeration import MachineRange

    with pytest.raises(ValueError):
        bb_table(1, [16], machine_range=MachineRange(1, 2, 5000, 9000))
    with pytest.raises(ValueError):
        bb_table(2, [16], machine_range=MachineRange(1, 1))


def test_bb_table_single_machine_restriction():
    from kolmobench.enumeration import MachineRange

    rec = bb_table(1, [16], machine_range=MachineRange(1, 1, 1, 1))
    assert rec.max_steps == 1  # the all-(write-blank, halt) machine
    assert not rec.decided_all and rec.undecided_count == 999


# Two-state machines that defeat cycle/escape/directional detection; global
# layer indices found by exhaustive sweep. The first eight are single-run
# bouncers (some repainting as they sweep), the last four grow two runs of
# different symbols and need the two-cut splice.
BOUNCER_INDICES = [
    1000 + off
    for off in (
        570576, 571703, 581601, 3621576, 4367454, 8369664, 8379800, 8727309,
        8926629, 8936751, 11355909, 11366031,
    )
]


@pytest.mark.slow
@pytest.mark.parametrize("idx", BOUNCER_INDICES)
def test_bouncer_family_gets_splice_certificates(idx):
    m = index_to_machine(idx)
    v = analyze_table(m.table, (), 512)
    assert v[0] == "d", (idx, v)
    assert v[1][0] == "splice"
    assert verify_certificate(m.table, (), v[1])
    assert run(m, "", 100_000) == ("u", 100_000)


@pytest.mark.parametrize("idx", [510365560321, 250551314025])
def test_two_cut_splice_checks_its_blocks_past_the_tape_end(idx):
    # Each once got a two-cut splice whose second block ended past the last
    # non-blank cell of step b, on a blank cell it claimed held a 0.
    table = index_to_machine(idx).table
    res = analyze_table(table, (), 256)
    assert res[0] == "d" and res[1][0] == "splice" and len(res[1][4]) == 2, res
    assert verify_certificate(table, (), res[1])


def test_holdout_cycle_table_stays_small():
    # 401581425 is undecided at 2^16 steps, and its tape passes CYCLE_TAPE_CAP
    # only at step 57,794, so its cycle table takes an entry almost every step.
    # Frozenset keys took 268 MB here; compact keys take about 16 MB.
    table = index_to_machine(401581425).table
    tracemalloc.start()
    try:
        assert analyze_table(table, (), 1 << 16) == ("u", 1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_compact_key_encodes_the_difference_with_the_input():
    _compact_key = halting._compact_key
    dense = {p: 1 + p % 2 for p in range(-5, 19)}  # 24 cells
    lo, cells = _compact_key(dense, ())
    assert (lo, cells) == (-5, bytes(1 + p % 2 for p in range(-5, 19)))
    # Over more than COMPACT_KEY_SPAN cells per non-blank cell: no compact key.
    spread = {4 * p: 1 for p in range(23)}
    assert _compact_key({**spread, 95: 2}, ()) is not None  # 96 cells for 24
    assert _compact_key({**spread, 96: 2}, ()) is None
    # An agreeing cell, and an open one before and after it is resolved, give
    # 0; the span covers the input, so an erased input cell is in the key.
    syms = (1, OPEN) + (2,) * 22
    tape = dict(enumerate(syms))
    assert _compact_key(tape, syms) == (0, bytes(24))
    assert _compact_key({**tape, 1: 1}, syms[:1] + (1,) + syms[2:]) == (0, bytes(24))
    tape[30] = 2
    del tape[0]
    assert _compact_key(tape, syms) == (0, bytes((1,) + (0,) * 29 + (2,)))


def test_cycle_back_to_a_long_input():
    # Step 0's key, over the 30 input cells, is compact like every later key
    # of that tape: writing 1 over 0 and back returns to it at step 2.
    toggle = ((WRITE_BLANK, 0), (WRITE_ONE, 1), (WRITE_ZERO, 1))
    for x in ("0", "0" * 30):
        assert analyze_table(toggle, str_to_syms(x), 64) == ("d", ("cycle", 0, 2), 2)


def test_compact_cycle_keys_change_no_result(monkeypatch):
    # Random 2- and 3-state machines on random inputs of up to 110 cells (an
    # erasing run makes sparse tapes), and a holdout: equal results with
    # frozenset keys alone.  Both compact and sparse tapes occur.
    rng = random.Random(0)
    cases = [(index_to_machine(401581425).table, (), 8192)]
    for _ in range(1500):
        n = rng.choice((2, 3))
        _, table = index_to_table(layer_offset(n) + 1 + rng.randrange(machine_count(n)))
        x = tuple(rng.choice((1, 2)) for _ in range(rng.choice((0, 3, 30, 110))))
        cases.append((table, x, 1024))
    forms, real = [], halting._compact_key

    def recorded(*args):
        forms.append(real(*args))
        return forms[-1]

    monkeypatch.setattr(halting, "_compact_key", recorded)
    got = [analyze_table(*case) for case in cases]
    assert any(f is None for f in forms) and any(f is not None for f in forms)
    monkeypatch.setattr(halting, "COMPACT_KEY_CELLS", 1 << 30)
    assert got == [analyze_table(*case) for case in cases]
