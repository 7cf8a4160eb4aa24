"""Small deterministic Turing machines and their budgeted simulation.

Machines use a quadruple-style table: for every (state, read symbol) there
is exactly one entry (action, next_state), where an action either writes a
symbol or moves the head, never both.  The tape alphabet is {blank, 0, 1};
blank is distinct from 0 so that the extent of a binary input is
unambiguous on the tape.

Conventions fixed here (everything downstream depends on them):

* input ``p`` is written on cells ``0 .. len(p)-1``, head starts at 0 in
  state 1, and the initial visited interval covers the input cells;
* a run halts when ``next_state`` 0 is entered; the halting transition
  counts as a step;
* on halt, the output is the single contiguous block of non-blank cells
  inside the visited interval, read left to right (the empty string when
  there is none); two or more blocks make the run's output invalid.  A
  non-blank cell is an input cell or one the head wrote, so every one lies
  in the visited interval, and reading them all reads that interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

# Tape symbols.
BLANK, ZERO, ONE = 0, 1, 2

# Actions. Write actions keep the head in place; moves never write.
WRITE_BLANK, WRITE_ZERO, WRITE_ONE, MOVE_LEFT, MOVE_RIGHT = 0, 1, 2, 3, 4

ACTION_NAMES = ("wB", "w0", "w1", "mL", "mR")
SYMBOL_NAMES = ("B", "0", "1")

Entry = tuple[int, int]
Table = tuple[Entry, ...]


def str_to_syms(s: str) -> tuple[int, ...]:
    """Binary string -> tape symbols (ZERO/ONE)."""
    return tuple(ZERO if ch == "0" else ONE for ch in s)


@dataclass(frozen=True)
class Machine:
    """An n-state machine with a total transition table.

    ``table[3*(s-1) + sym]`` is the entry for state ``s`` reading ``sym``
    (symbol rank: blank=0, zero=1, one=2).  ``next_state`` 0 halts.
    """

    n_states: int
    table: Table

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("machine needs at least one state")
        if len(self.table) != 3 * self.n_states:
            raise ValueError(
                f"table must have {3 * self.n_states} entries, got {len(self.table)}"
            )
        for action, nxt in self.table:
            if not (WRITE_BLANK <= action <= MOVE_RIGHT):
                raise ValueError(f"bad action {action}")
            if not (0 <= nxt <= self.n_states):
                raise ValueError(f"next state {nxt} out of range 0..{self.n_states}")

    def entry(self, state: int, symbol: int) -> Entry:
        return self.table[3 * (state - 1) + symbol]

    def to_text(self) -> str:
        """One-line human-readable transition table."""
        parts = []
        for s in range(1, self.n_states + 1):
            for sym in (BLANK, ZERO, ONE):
                a, ns = self.entry(s, sym)
                tgt = "H" if ns == 0 else str(ns)
                parts.append(f"{s}{SYMBOL_NAMES[sym]}:{ACTION_NAMES[a]}{tgt}")
        return " ".join(parts)


def steps(table, state: int, head: int, tape: dict):
    """The plain step loop: run from ``state`` with the head at ``head``.

    Updates ``tape`` (cell -> symbol, blanks absent) in place and yields
    ``(head, state)`` after every transition, the halting one (state 0)
    last.  A table entry is read only when its transition is taken.
    """
    while state:
        action, state = table[3 * (state - 1) + tape.get(head, BLANK)]
        if action == WRITE_BLANK:
            tape.pop(head, None)
        elif action < MOVE_LEFT:
            tape[head] = action  # WRITE_ZERO/WRITE_ONE write their symbol code
        elif action == MOVE_LEFT:
            head -= 1
        else:
            head += 1
        yield head, state


@dataclass(frozen=True)
class Halted:
    output: str
    steps: int


@dataclass(frozen=True)
class InvalidOutput:
    steps: int


@dataclass(frozen=True)
class Cutoff:
    budget: int


RunOutcome = Halted | InvalidOutput | Cutoff


def read_output(tape: dict[int, int]):
    """The tape's non-blank cells as one contiguous block -> string, else None.

    The empty tape reads as the empty string.
    """
    cells = sorted(tape)
    if not cells:
        return ""
    if cells[-1] - cells[0] + 1 != len(cells):
        return None
    return "".join([SYMBOL_NAMES[tape[p]] for p in cells])  # no blank is stored


def run(m: Machine, input_str: str, budget: int) -> RunOutcome:
    """Budgeted run with the fixed input/output conventions."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    tape = dict(enumerate(str_to_syms(input_str)))
    for n, (_, state) in enumerate(islice(steps(m.table, 1, 0, tape), budget), 1):
        pass
    if state != 0:
        return Cutoff(budget)
    out = read_output(tape)
    if out is None:
        return InvalidOutput(n)
    return Halted(out, n)


def encode_index(i: int) -> str:
    """Self-delimiting code for a machine index: 1^|b| 0 b with b = bin(i)."""
    if i < 1:
        raise ValueError("indices start at 1")
    b = bin(i)[2:]
    return "1" * len(b) + "0" + b


def decode_program(bits: str):
    """Inverse of encode_index on a prefix; returns (i, p) or None.

    Malformed inputs (no separator, too few index bits, index zero) do not
    decode; the reference machine treats them as diverging.
    """
    k = 0
    n = len(bits)
    while k < n and bits[k] == "1":
        k += 1
    if k == 0 or k >= n or k + 1 + k > n:
        return None
    beta = bits[k + 1 : k + 1 + k]
    i = int(beta, 2)
    if i < 1:
        return None
    return i, bits[k + 1 + k :]


def identity_scanner() -> Machine:
    """One-state machine that copies its input: scans right, halts on blank."""
    return Machine(
        n_states=1,
        table=(
            (WRITE_BLANK, 0),
            (MOVE_RIGHT, 1),
            (MOVE_RIGHT, 1),
        ),
    )


def immediate_halt() -> Machine:
    """One-state machine that halts on its first step whatever it reads."""
    return Machine(
        n_states=1,
        table=((WRITE_BLANK, 0), (WRITE_BLANK, 0), (WRITE_BLANK, 0)),
    )


def u_run(program: str, budget: int, universe) -> RunOutcome:
    """Reference-machine run: decode ``program`` as (index, p) and simulate.

    Non-decoding programs and indices outside ``universe`` never produce
    output; they count as running out of budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    dec = decode_program(program)
    if dec is None:
        return Cutoff(budget)
    i, p = dec
    if not universe.contains_index(i):
        return Cutoff(budget)
    from .enumeration import index_to_machine

    return run(index_to_machine(i), p, budget)
