import random
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmobench.enumeration import MachineRange
from kolmobench.halting import OPEN
from kolmobench.tm_core import (
    MOVE_RIGHT,
    ONE,
    SYMBOL_NAMES,
    WRITE_BLANK,
    WRITE_ONE,
    ZERO,
    Halted,
    Machine,
    decode_program,
    encode_index,
    identity_scanner,
    programs_of_length,
    read_output,
    run,
    steps,
    str_to_syms,
    u_run,
)

from helpers import immediate_halt

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
    out = run(identity_scanner(), "101", 10)
    assert out == Halted("h", 4, "101") == ("h", 4, "101")
    assert (out.kind, out.steps, out.output) == ("h", 4, "101")


def test_run_immediate_halt_empty():
    assert run(immediate_halt(), "", 10) == ("h", 1, "")


def test_run_right_runner_cutoff():
    m = Machine(1, ((MOVE_RIGHT, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))
    assert run(m, "", 100) == ("u", 100)


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
    assert run(m, "101", 10) == ("h", 2, None)
    # An invalid halt equals neither a cutoff nor a valid halt with equal fields.
    assert Halted("h", 5, None) != ("u", 5) and not Halted("h", 5, None) == ("u", 5)
    assert Halted("h", 1, "") != Halted("h", 1, None)


def test_run_rejects_zero_budget():
    with pytest.raises(ValueError):
        run(immediate_halt(), "", 0)


@given(machines(), binary, st.integers(1, 50))
def test_run_deterministic(m, x, budget):
    assert run(m, x, budget) == run(m, x, budget)


@given(machines(), binary, st.integers(1, 40), st.integers(0, 30))
def test_budget_monotonicity(m, x, budget, extra):
    first = run(m, x, budget)
    if first[0] == "h":
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
    assert run(identity_scanner(), p, len(p) + 1) == ("h", len(p) + 1, p)


def test_encode_index_examples():
    assert encode_index(1) == "101"
    assert encode_index(2) == "11010"
    assert encode_index(5) == "1110101"


def test_programs_of_length_in_numeric_order():
    assert list(programs_of_length(0)) == [""]
    assert list(programs_of_length(2)) == ["00", "01", "10", "11"]


def test_encode_index_rejects_zero():
    with pytest.raises(ValueError):
        encode_index(0)


def test_decode_program_examples():
    assert decode_program("101" + "0110") == (1, "0110")
    assert decode_program("111") is None
    assert decode_program("101") == (1, "")
    assert decode_program("11001") == (1, "")  # index bits 01: the pair of "101"


@given(st.integers(1, 10**9), binary)
def test_encode_decode_round_trip(i, p):
    assert decode_program(encode_index(i) + p) == (i, p)


@given(st.integers(1, 10**9), st.integers(0, 8), binary)
def test_decode_program_reads_leading_zero_index_bits(i, j, p):
    # j extra 1s widen the index field by j bits, padded with leading 0s, so
    # the program decodes to the shorter canonical encode_index(i) + p's pair;
    # the phi scan skips such programs for that reason (README).
    k = i.bit_length()
    assert decode_program("1" * (k + j) + "0" + "0" * j + format(i, "b") + p) == (i, p)


@given(st.integers(1, 10**6))
def test_encoding_is_prefix_free(i):
    # no encoding extends another: lengths differ unless indices share bit length
    e = encode_index(i)
    assert len(e) == 2 * i.bit_length() + 1
    assert not encode_index(i + 1).startswith(e) or encode_index(i + 1) == e


def test_u_run_identity_program(small_universe):
    prog = encode_index(991) + "11"
    assert u_run(prog, 50, small_universe) == ("h", 3, "11")


def test_u_run_malformed_program_is_cutoff(small_universe):
    assert u_run("1" * 9, 17, small_universe) == ("u", 17)


def test_u_run_immediate_halt(small_universe):
    assert u_run(encode_index(1), 10, small_universe) == ("h", 1, "")


def test_u_run_outside_universe_is_cutoff():
    tiny = MachineRange(1, 1)
    prog = encode_index(1001)  # first 2-state machine
    assert u_run(prog, 10, tiny) == ("u", 10)


def test_machine_validation():
    with pytest.raises(ValueError):
        Machine(0, ())
    with pytest.raises(ValueError):
        Machine(1, ((WRITE_BLANK, 0),))  # table not total
    with pytest.raises(ValueError):
        Machine(1, ((7, 0), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))  # bad action
    with pytest.raises(ValueError):
        Machine(1, ((WRITE_BLANK, 2), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))  # state range


def span_walk(tape):
    """The output by its definition: every cell from the leftmost to the
    rightmost non-blank one must be non-blank; read them left to right, an
    open cell as ``?``."""
    if not tape:
        return ""
    span = range(min(tape), max(tape) + 1)
    if any(p not in tape for p in span):
        return None
    return "".join(SYMBOL_NAMES[tape[p]] if tape[p] > 0 else "?" for p in span)


def test_read_output_matches_the_span_walk():
    # Tapes with and without gaps, open cells and cells written out of order.
    rng = random.Random(0)
    assert read_output({}) == span_walk({}) == ""
    for _ in range(3000):
        lo, width, gaps = rng.randrange(-12, 12), rng.randrange(1, 24), rng.choice([0, 0.05, 0.3])
        cells = [p for p in range(lo, lo + width) if rng.random() >= gaps]
        rng.shuffle(cells)
        tape = {p: rng.choice((ZERO, ONE, ZERO, ONE, OPEN)) for p in cells}
        assert read_output(tape) == span_walk(tape)
