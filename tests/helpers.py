"""Helpers that only the tests call: a plain layer enumerator and a fixed machine."""

import itertools

from kolmobench.enumeration import layer_offset
from kolmobench.tm_core import WRITE_BLANK, Machine


def iter_tables(n: int):
    """Yield (index, table) for every n-state machine, in index order.

    Built from itertools.product directly, with no per-index divmod decoding,
    so ``test_iter_tables_matches_codec`` checks it against the codec.
    """
    entries = [divmod(d, n + 1) for d in range(5 * (n + 1))]
    start = layer_offset(n) + 1
    width = 3 * n
    for off, digits in enumerate(itertools.product(range(5 * (n + 1)), repeat=width)):
        # product varies the last slot fastest; our digit 0 is least significant
        yield start + off, tuple(entries[digits[width - 1 - j]] for j in range(width))


def immediate_halt() -> Machine:
    """One-state machine that halts on its first step whatever it reads."""
    return Machine(
        n_states=1,
        table=((WRITE_BLANK, 0), (WRITE_BLANK, 0), (WRITE_BLANK, 0)),
    )
