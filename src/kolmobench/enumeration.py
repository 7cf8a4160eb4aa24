"""The machine enumeration T_1, T_2, ... and the small codecs around it.

Machines are ordered by state count, then by mixed-radix value of their
transition table.  For an n-state machine the digit for the entry
(state s, symbol sym) sits at position ``3*(s-1) + sym`` (least significant
first) and has value ``action*(n+1) + next_state``, so each digit ranges
over ``5*(n+1)`` values.  Indices are 1-based so that harmonic weights
1/i are directly meaningful.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt

from .tm_core import Machine, Table

MAX_STATES_SUPPORTED = 8  # enumeration stays exact beyond this; sweeps do not
MAX_PROGRAM_BITS = 16  # program sweeps grow as 2^(L+1); far past 16 bits they run out of memory


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


BOX_MEMO_CAP = 4096  # entries of one BoxCounter's memo; it is cleared when full


class BoxCounter:
    """Counts the indices in [lo, hi] of n-state machines whose table agrees
    with a partial table ``fixed`` (entry position -> (action, next_state));
    other entries are free.

    A digit DP over the mixed-radix offset, from the top digit down.  The
    digits and powers of the interval's bounds, and the entry of each digit
    value (``entries[d] == divmod(d, n + 1)``), are computed once, here.

    Unless ``memo`` is None, ``branch`` memoizes each walk's answer under
    the key ``(pos, fixed.get(0), ..., fixed.get(width - 1))``, everything
    the walk reads.  The memo holds at most ``BOX_MEMO_CAP`` answers and is
    emptied when it reaches that many.  Measured with ``tracemalloc``, an
    answer, with its key and its ``5(n+1)`` children, takes about 2.1 KB at
    n = 3 and 5.1 KB at n = 8 (``MAX_STATES_SUPPORTED``) when every count
    is a distinct int; so a full memo holds about 9 MB at n = 3 and 21 MB
    at n = 8.
    """

    def __init__(self, n: int, lo: int, hi: int):
        base, width, first = 5 * (n + 1), 3 * n, layer_offset(n) + 1
        self.n1, self.base, self.width, self.first = n + 1, base, width, first
        self.positions = range(width)
        self.memo = {}
        self.powers = [base**k for k in range(width + 1)]
        self.entries = [divmod(d, n + 1) for d in range(base)]
        self.lo, self.hi = max(lo, first), min(hi, first + machine_count(n) - 1)
        self.size = max(0, self.hi - self.lo + 1)
        # A box counts its members below offset hi + 1 minus those below lo.
        # A bound past the layer is None (every member is below it); a bound
        # at 0 is dropped (none is).
        self.bounds = [
            (sign, None if x >= self.powers[width] else
             [(pos, x // self.powers[pos] % base) for pos in reversed(range(width))])
            for sign, x in ((1, self.hi + 1 - first), (-1, self.lo - first))
            if x > 0 and self.size
        ]

    def branch(self, fixed, pos: int) -> tuple:
        """The boxes that pin the open entry ``pos`` of ``fixed`` to each
        value with a nonzero count: ``((entry, count), ...)`` in digit order.
        A lone child is the entry every index of the box has at ``pos``.
        Memoized; see the class docstring."""
        memo = self.memo
        if memo is None:
            return self._walk(fixed, pos)
        key = (pos, *map(fixed.get, self.positions))
        hit = memo.get(key)
        if hit is None:
            if len(memo) >= BOX_MEMO_CAP:
                memo.clear()
            hit = memo[key] = self._walk(fixed, pos)
        return hit

    def _walk(self, fixed, pos: int) -> tuple:
        """``branch`` by one uncached digit walk."""
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
        return tuple([(e, c) for e, c in zip(self.entries, out) if c])

    def first_member(self, fixed) -> int:
        """The smallest index in [lo, hi] whose table agrees with ``fixed``
        (there must be one): a walk down the open entries, top digit first,
        into the first child."""
        fixed = dict(fixed)
        for pos in reversed(range(self.width)):
            if pos not in fixed:
                fixed[pos] = self.branch(fixed, pos)[0][0]
        return self.first + sum((a * self.n1 + s) * self.powers[p] for p, (a, s) in fixed.items())


class MachineRange(namedtuple("MachineRange", "min_states max_states index_lo index_hi")):
    """The enumerated universe backing the reference machine.

    Spans all machines with ``min_states..max_states`` states, optionally
    clipped to an explicit index interval [index_lo, index_hi].  ``count``
    is the number of indices in it, not the tuple method.
    """

    __slots__ = ()

    def __new__(cls, min_states: int = 1, max_states: int = 2,
                index_lo: int | None = None, index_hi: int | None = None):
        if not (1 <= min_states <= max_states):
            raise ValueError("need 1 <= min_states <= max_states")
        if (index_lo is None) != (index_hi is None):
            raise ValueError("index interval needs both ends")
        if index_lo is not None and not 1 <= index_lo <= index_hi:
            raise ValueError("indices start at 1" if index_lo < 1 else "empty index interval")
        return super().__new__(cls, min_states, max_states, index_lo, index_hi)

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

    def layers(self) -> list:
        """(n, lo, hi) for each state count n with indices in the range."""
        lo, hi = self.index_bounds()
        spans = [
            (n, max(lo, layer_offset(n) + 1), min(hi, layer_offset(n) + machine_count(n)))
            for n in range(self.min_states, self.max_states + 1)
        ]
        return [(n, a, b) for n, a, b in spans if a <= b]

    def bit_length_spans(self) -> list:
        """``layers()`` split at the powers of two: (n, lo, hi) per index bit length."""
        return [(n, max(lo, 1 << (k - 1)), min(hi, (1 << k) - 1)) for n, lo, hi in self.layers()
                for k in range(lo.bit_length(), hi.bit_length() + 1)]

    def describe(self) -> str:
        s = f"s{self.min_states}-{self.max_states}"
        if self.index_lo is not None:
            s += f"@i{self.index_lo}-{self.index_hi}"
        return s

    @staticmethod
    def parse(text: str) -> "MachineRange":
        """Inverse of describe(), e.g. 's1-2@i1-5000'; perfbench/checks.py reads exports with it."""
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
