"""The machine enumeration T_1, T_2, ... and the small codecs around it.

Machines are ordered by state count, then by mixed-radix value of their
transition table.  For an n-state machine the digit for the entry
(state s, symbol sym) sits at position ``3*(s-1) + sym`` (least significant
first) and has value ``action*(n+1) + next_state``, so each digit ranges
over ``5*(n+1)`` values.  Indices are 1-based so that harmonic weights
1/i are directly meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .tm_core import Machine, Table

MAX_STATES_SUPPORTED = 8  # enumeration stays exact beyond this; sweeps do not


def machine_count(n: int) -> int:
    """Number of n-state machines: each of 3n entries picks one of 5 actions
    and one of n+1 next states."""
    if n < 1:
        raise ValueError("state count must be >= 1")
    return (5 * (n + 1)) ** (3 * n)


@lru_cache(maxsize=None)
def layer_offset(n: int) -> int:
    """Number of machines with fewer than n states."""
    return sum(machine_count(m) for m in range(1, n))


def layer_of_index(k: int) -> int:
    if k < 1:
        raise ValueError("indices start at 1")
    n = 1
    while True:
        if k <= layer_offset(n) + machine_count(n):
            return n
        n += 1
        if n > MAX_STATES_SUPPORTED:
            raise ValueError(f"index {k} beyond supported state range")


def index_to_table(k: int) -> tuple[int, Table]:
    """Low-level decode: index -> (n_states, raw table). No Machine wrapper."""
    n = layer_of_index(k)
    r = k - layer_offset(n) - 1
    base = 5 * (n + 1)
    nxt_base = n + 1
    table = []
    for _ in range(3 * n):
        r, digit = divmod(r, base)
        table.append(divmod(digit, nxt_base))
    return n, tuple(table)


def index_to_machine(k: int) -> Machine:
    n, table = index_to_table(k)
    return Machine(n_states=n, table=table)


def table_to_index(n: int, table: Table) -> int:
    base = 5 * (n + 1)
    nxt_base = n + 1
    r = 0
    for action, nxt in reversed(table):
        r = r * base + action * nxt_base + nxt
    return layer_offset(n) + r + 1


def machine_to_index(m: Machine) -> int:
    return table_to_index(m.n_states, m.table)


class BoxCounter:
    """Counts the indices in [lo, hi] of n-state machines whose table agrees
    with a partial table ``fixed`` (entry position -> (action, next_state));
    other entries are free.

    A digit DP over the mixed-radix offset, from the top digit down.  The
    digits and powers of the interval's bounds are computed once, here.
    """

    def __init__(self, n: int, lo: int, hi: int):
        base, width, first = 5 * (n + 1), 3 * n, layer_offset(n) + 1
        self.n1, self.base, self.width, self.first = n + 1, base, width, first
        self.powers = [base**k for k in range(width + 1)]
        lo, hi = max(lo, first) - first, min(hi, first + machine_count(n) - 1) - first
        self.size = max(0, hi - lo + 1)
        # A box counts its members below offset hi + 1 minus those below lo.
        # A bound past the layer is None (every member is below it); a bound
        # at 0 is dropped (none is).
        self.bounds = [
            (sign, None if x >= self.powers[width] else
             [(pos, x // self.powers[pos] % base) for pos in reversed(range(width))])
            for sign, x in ((1, hi + 1), (-1, lo))
            if x > 0 and self.size
        ]

    def __call__(self, fixed) -> int:
        if not fixed:
            return self.size
        pos = next(iter(fixed))
        rest = {k: v for k, v in fixed.items() if k != pos}
        a, s = fixed[pos]
        return self.children(rest, pos)[a * self.n1 + s]

    def children(self, fixed, pos: int) -> list:
        """Counts of the boxes that pin the open entry ``pos`` of ``fixed``
        to each value, in digit order (entry ``divmod(d, n + 1)`` at ``d``)."""
        base, powers, n1 = self.base, self.powers, self.n1
        out = [0] * base
        for sign, digits in self.bounds:
            free = self.width - len(fixed) - 1  # free digits below the current one
            below, count = None, 0
            for p, d in digits or ():
                if p == pos:  # values below d count every completion; above d none
                    below, at = [count + powers[free]] * d + [count] * (base - d), d
                    continue
                v = fixed.get(p)
                if v is None:
                    free -= 1
                    count += d * powers[free]
                    continue
                v = v[0] * n1 + v[1]
                if v != d:
                    count += powers[free] if v < d else 0
                    break
            if digits is None:
                below = [powers[free]] * base
            elif below is None:  # the walk left before reaching pos
                below = [count] * base
            else:  # the child at d walked on to the end
                below[at] = count
            out = [o + sign * b for o, b in zip(out, below)]
        return out

    def members(self, fixed) -> list:
        """The indices counted by ``self(fixed)``, in increasing order.

        A walk down the open entries, top digit first, that follows only
        children with a nonzero count, so its cost scales with the members.
        """
        n1, powers = self.n1, self.powers
        start = self.first + sum((a * n1 + s) * powers[pos] for pos, (a, s) in fixed.items())
        free = [pos for pos in reversed(range(self.width)) if pos not in fixed]
        if not free:
            return [start] if self(fixed) else []
        out = []

        def walk(fixed, depth, index):
            if depth == len(free):
                out.append(index)
                return
            pos = free[depth]
            for d, c in enumerate(self.children(fixed, pos)):
                if c:
                    walk({**fixed, pos: divmod(d, n1)}, depth + 1, index + d * powers[pos])

        walk(dict(fixed), 0, start)
        return out


def iter_tables(n: int):
    """Yield (index, table) for every n-state machine, in index order.

    Built from itertools.product directly so large sweeps avoid per-index
    divmod decoding.
    """
    entries = [divmod(d, n + 1) for d in range(5 * (n + 1))]
    start = layer_offset(n) + 1
    width = 3 * n
    for off, digits in enumerate(itertools.product(range(5 * (n + 1)), repeat=width)):
        # product varies the last slot fastest; our digit 0 is least significant
        yield start + off, tuple(entries[digits[width - 1 - j]] for j in range(width))


@dataclass(frozen=True)
class MachineRange:
    """The enumerated universe backing the reference machine.

    Spans all machines with ``min_states..max_states`` states, optionally
    clipped to an explicit index interval [index_lo, index_hi].
    """

    min_states: int = 1
    max_states: int = 2
    index_lo: int | None = None
    index_hi: int | None = None

    def __post_init__(self):
        if not (1 <= self.min_states <= self.max_states):
            raise ValueError("need 1 <= min_states <= max_states")
        if (self.index_lo is None) != (self.index_hi is None):
            raise ValueError("index interval needs both ends")
        if self.index_lo is not None and self.index_lo > self.index_hi:
            raise ValueError("empty index interval")

    def index_bounds(self) -> tuple[int, int]:
        lo = layer_offset(self.min_states) + 1
        hi = layer_offset(self.max_states) + machine_count(self.max_states)
        if self.index_lo is not None:
            lo = max(lo, self.index_lo)
            hi = min(hi, self.index_hi)
        return lo, hi

    def contains_index(self, i: int) -> bool:
        lo, hi = self.index_bounds()
        return lo <= i <= hi

    @property
    def count(self) -> int:
        lo, hi = self.index_bounds()
        return max(0, hi - lo + 1)

    def indices(self) -> range:
        lo, hi = self.index_bounds()
        return range(lo, hi + 1)

    def layers(self) -> list:
        """(n, lo, hi) for each state count n with indices in the range."""
        lo, hi = self.index_bounds()
        spans = [
            (n, max(lo, layer_offset(n) + 1), min(hi, layer_offset(n) + machine_count(n)))
            for n in range(self.min_states, self.max_states + 1)
        ]
        return [(n, a, b) for n, a, b in spans if a <= b]

    def describe(self) -> str:
        s = f"s{self.min_states}-{self.max_states}"
        if self.index_lo is not None:
            s += f"@i{self.index_lo}-{self.index_hi}"
        return s

    @staticmethod
    def parse(text: str) -> "MachineRange":
        """Inverse of describe(), e.g. 's1-2@i1-5000'."""
        body = text
        ival = None
        if "@i" in text:
            body, _, tail = text.partition("@i")
            a, _, b = tail.partition("-")
            ival = (int(a), int(b))
        if not body.startswith("s"):
            raise ValueError(f"bad universe descriptor {text!r}")
        a, _, b = body[1:].partition("-")
        return MachineRange(
            min_states=int(a),
            max_states=int(b),
            index_lo=None if ival is None else ival[0],
            index_hi=None if ival is None else ival[1],
        )


def cantor_pair(a: int, b: int) -> int:
    """f(a, b) = (a+b)(a+b+1)/2 + b."""
    if a < 0 or b < 0:
        raise ValueError("pairing is over naturals")
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("pairing is over naturals")
    w = (isqrt(8 * n + 1) - 1) // 2
    t = w * (w + 1) // 2
    b = n - t
    return w - b, b


def nat_to_str(x: int) -> str:
    """The standard correspondence (eps,0), (0,1), (1,2), (00,3), ..."""
    if x < 0:
        raise ValueError("naturals only")
    return bin(x + 1)[3:]


def str_to_nat(s: str) -> int:
    return int("1" + s, 2) - 1


def strlen_of_nat(x: int) -> int:
    """floor(log2(x+1)): the length of the string paired with x."""
    if x < 0:
        raise ValueError("naturals only")
    return (x + 1).bit_length() - 1
