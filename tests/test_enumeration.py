import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmobench.enumeration import (
    MachineRange,
    cantor_pair,
    cantor_unpair,
    index_to_machine,
    index_to_table,
    layer_offset,
    machine_count,
    machine_to_index,
    nat_to_str,
    str_to_nat,
    strlen_of_nat,
)
from kolmobench.tm_core import WRITE_BLANK

from helpers import iter_tables


def test_machine_count_values():
    assert machine_count(1) == 1000
    assert machine_count(2) == 11_390_625
    assert machine_count(4) == 25**12


def test_machine_count_rejects_zero():
    with pytest.raises(ValueError):
        machine_count(0)


def test_first_machine_is_all_write_blank_halt():
    m = index_to_machine(1)
    assert m.n_states == 1
    assert all(e == (WRITE_BLANK, 0) for e in m.table)


def test_first_two_state_machine():
    m = index_to_machine(1001)
    assert m.n_states == 2
    assert all(e == (WRITE_BLANK, 0) for e in m.table)


def test_round_trip_777():
    assert machine_to_index(index_to_machine(777)) == 777


@given(st.integers(1, layer_offset(4)))
def test_round_trip_random_up_to_three_states(k):
    assert machine_to_index(index_to_machine(k)) == k


def test_round_trip_exhaustive_one_state():
    for k in range(1, 1001):
        n, table = index_to_table(k)
        assert n == 1
        assert machine_to_index(index_to_machine(k)) == k


@given(st.integers(1, layer_offset(4) - 1))
def test_monotone_layering(k):
    assert index_to_machine(k).n_states <= index_to_machine(k + 1).n_states


def test_iter_tables_matches_codec():
    for idx, table in iter_tables(1):
        n, t = index_to_table(idx)
        assert n == 1 and t == table


def test_cantor_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(0, 1) == 2
    assert cantor_unpair(8) == (1, 2)
    assert cantor_pair(1, 2) == 8


@given(st.integers(0, 2**64), st.integers(0, 2**64))
def test_cantor_round_trip_large(a, b):
    assert cantor_unpair(cantor_pair(a, b)) == (a, b)


@given(st.integers(0, 10**6))
def test_cantor_unpair_round_trip(n):
    a, b = cantor_unpair(n)
    assert cantor_pair(a, b) == n


def test_nat_str_table():
    table = [("", 0), ("0", 1), ("1", 2), ("00", 3), ("01", 4), ("10", 5), ("11", 6)]
    for s, x in table:
        assert nat_to_str(x) == s
        assert str_to_nat(s) == x


@given(st.integers(0, 2**16))
def test_nat_str_round_trip(x):
    assert str_to_nat(nat_to_str(x)) == x
    assert strlen_of_nat(x) == len(nat_to_str(x))


@given(st.text(alphabet="01", max_size=20))
def test_str_nat_round_trip(s):
    assert nat_to_str(str_to_nat(s)) == s


def test_machine_range_bounds_and_membership():
    u = MachineRange(1, 2)
    lo, hi = u.index_bounds()
    assert lo == 1 and hi == 1000 + 11_390_625
    assert u.contains_index(1) and u.contains_index(hi)
    assert not u.contains_index(hi + 1)
    clipped = MachineRange(1, 2, 5, 50)
    assert clipped.count == 46
    assert not clipped.contains_index(4)


def test_machine_range_describe_parse_round_trip():
    for u in (MachineRange(1, 2), MachineRange(1, 3, 17, 900)):
        assert MachineRange.parse(u.describe()) == u


def test_machine_range_validation():
    with pytest.raises(ValueError):
        MachineRange(2, 1)
    with pytest.raises(ValueError):
        MachineRange(1, 2, 5, None)
    with pytest.raises(ValueError):
        MachineRange(1, 2, 7, 3)
    for lo in (0, -5):  # 0:10 would sweep 1..10 but describe itself as i0-10
        with pytest.raises(ValueError, match="indices start at 1"):
            MachineRange(1, 2, lo, 10)
