from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmobench.enumeration import MachineRange
from kolmobench.tm_core import (
    MOVE_RIGHT,
    ONE,
    WRITE_BLANK,
    WRITE_ONE,
    Cutoff,
    Halted,
    InvalidOutput,
    Machine,
    decode_program,
    encode_index,
    identity_scanner,
    immediate_halt,
    run,
    steps,
    str_to_syms,
    u_run,
)

binary = st.text(alphabet="01", max_size=8)


def machines(max_states=3):
    def build(n, codes):
        table = tuple(divmod(c, n + 1) for c in codes)
        return Machine(n_states=n, table=table)

    return st.integers(1, max_states).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.integers(0, 5 * (n + 1) - 1), min_size=3 * n, max_size=3 * n
            ),
        )
    )


def test_step_immediate_halt_on_empty_tape():
    tape = {}
    assert list(steps(immediate_halt().table, 1, 0, tape)) == [(0, 0)]
    assert tape == {}


def test_step_right_scanner_single_transition():
    tape = dict(enumerate(str_to_syms("101")))
    assert next(steps(identity_scanner().table, 1, 0, tape)) == (1, 1)


def test_step_write_one_keeps_head():
    m = Machine(1, ((WRITE_ONE, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))
    tape = {}
    assert next(steps(m.table, 1, 0, tape)) == (0, 1)
    assert tape == {0: ONE}


def test_step_rejects_halted_config():
    # from the halt state the stepper takes no step and reads no entry
    assert list(steps({}, 0, 0, {})) == []


def test_step_reads_only_the_entries_it_takes():
    table = {0: (MOVE_RIGHT, 2)}  # state 2 has no entries
    run = steps(table, 1, 0, {})
    assert next(run) == (1, 2)
    with pytest.raises(KeyError):
        next(run)


def test_run_identity_scanner_copies_input():
    assert run(identity_scanner(), "101", 10) == Halted("101", 4)


def test_run_immediate_halt_empty():
    assert run(immediate_halt(), "", 10) == Halted("", 1)


def test_run_right_runner_cutoff():
    m = Machine(1, ((MOVE_RIGHT, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))
    assert run(m, "", 100) == Cutoff(100)


def test_run_detects_invalid_output():
    # blank the middle cell of "101": two non-blank blocks remain
    m = Machine(
        2,
        (
            (WRITE_BLANK, 0),
            (WRITE_BLANK, 0),
            (MOVE_RIGHT, 2),  # state 1 on One: step right
            (WRITE_BLANK, 0),
            (WRITE_BLANK, 0),  # state 2 on Zero: erase it and halt
            (WRITE_BLANK, 0),
        ),
    )
    assert run(m, "101", 10) == InvalidOutput(2)


def test_run_rejects_zero_budget():
    with pytest.raises(ValueError):
        run(immediate_halt(), "", 0)


@given(machines(), binary, st.integers(1, 50))
def test_run_deterministic(m, x, budget):
    assert run(m, x, budget) == run(m, x, budget)


@given(machines(), binary, st.integers(1, 40), st.integers(0, 30))
def test_budget_monotonicity(m, x, budget, extra):
    first = run(m, x, budget)
    if isinstance(first, (Halted, InvalidOutput)):
        assert run(m, x, budget + extra) == first


@given(machines(), binary, st.integers(1, 60))
def test_nonblank_cells_stay_inside_visited(m, x, budget):
    tape = dict(enumerate(str_to_syms(x)))
    lo, hi = 0, max(0, len(x) - 1)
    for head, _ in islice(steps(m.table, 1, 0, tape), budget):
        lo, hi = min(lo, head), max(hi, head)
        assert all(lo <= p <= hi for p in tape)


@given(binary)
def test_identity_guarantee(p):
    assert run(identity_scanner(), p, len(p) + 1) == Halted(p, len(p) + 1)


def test_encode_index_examples():
    assert encode_index(1) == "101"
    assert encode_index(2) == "11010"
    assert encode_index(5) == "1110101"


def test_encode_index_rejects_zero():
    with pytest.raises(ValueError):
        encode_index(0)


def test_decode_program_examples():
    assert decode_program("101" + "0110") == (1, "0110")
    assert decode_program("111") is None
    assert decode_program("101") == (1, "")


@given(st.integers(1, 10**9), binary)
def test_encode_decode_round_trip(i, p):
    assert decode_program(encode_index(i) + p) == (i, p)


@given(st.integers(1, 10**6))
def test_encoding_is_prefix_free(i):
    # no encoding extends another: lengths differ unless indices share bit length
    e = encode_index(i)
    assert len(e) == 2 * i.bit_length() + 1
    assert not encode_index(i + 1).startswith(e) or encode_index(i + 1) == e


def test_u_run_identity_program(small_universe):
    prog = encode_index(991) + "11"
    assert u_run(prog, 50, small_universe) == Halted("11", 3)


def test_u_run_malformed_program_is_cutoff(small_universe):
    assert u_run("1" * 9, 17, small_universe) == Cutoff(17)


def test_u_run_immediate_halt(small_universe):
    assert u_run(encode_index(1), 10, small_universe) == Halted("", 1)


def test_u_run_outside_universe_is_cutoff():
    tiny = MachineRange(1, 1)
    prog = encode_index(1001)  # first 2-state machine
    assert u_run(prog, 10, tiny) == Cutoff(10)


def test_machine_validation():
    with pytest.raises(ValueError):
        Machine(0, ())
    with pytest.raises(ValueError):
        Machine(1, ((WRITE_BLANK, 0),))  # table not total
    with pytest.raises(ValueError):
        Machine(1, ((7, 0), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))  # bad action
    with pytest.raises(ValueError):
        Machine(1, ((WRITE_BLANK, 2), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))  # state range
