"""Certified halting analysis at finite budget, and busy-beaver step tables.

``analyze_table(table, input_syms, budget)`` simulates a machine and either
proves it halts, ``('h', steps, output)``, proves it diverges with a
replayable certificate, ``('d', cert, step)``, or reports unknown-at-budget,
``('u', budget)``.  Soundness is the hard requirement; completeness only has
to be good enough to fully decide the 1- and 2-state layers on empty input.

Certificate tuples by tag, each re-checked by
``verify_certificate(table, input_syms, cert)``:

* ``('cycle', a, b)`` -- the exact configuration (state, head, tape) at
  step a recurred at step b; a deterministic machine then loops forever.
* ``('escape', state, step, dir)`` -- the head sits on blank tape beyond
  every non-blank cell and the current state moves outward (dir ``'R'`` or
  ``'L'``) over blanks into itself.
* ``('dir', a, b, dir)`` -- two steps with equal state, the head strictly
  further out, the head never behind the earlier position in between, and
  an identical view of the tape from the head outward.  The segment then
  replays shifted, forever (junk left behind is never revisited).
* ``('splice', a, b, shift, cuts)`` -- the later tape equals the earlier
  tape translated by ``shift`` with up to two uniform symbol blocks
  ``cuts`` ((cut, width, symbol), ... in step-b coordinates) spliced in,
  the head and state corresponding, and every head crossing of a cut
  arrives in a state that walks over the block's symbol monotonically,
  returning to itself at each fresh cell and repainting uniformly (block
  symbols must return to the spliced value by the end).  The run from the
  later step then replays the segment with the blocks pumped wider each
  round.  With no cuts this degenerates to a pure translated recurrence,
  which is sound outright.

Lazy sweeps (``layer_leaves``) run it on partial tables and open input
cells; a child of an open read resumes a copy of the run at that read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from contextlib import nullcontext
from functools import partial
from itertools import islice, repeat

from .enumeration import BoxCounter, MachineRange, index_to_table, machine_count
from .tm_core import (
    MOVE_LEFT,
    MOVE_RIGHT,
    ONE,
    ZERO,
    Table,
    read_output,
    steps,
    str_to_syms,
)

# Detector tuning. Soundness never depends on these; they only bound the
# effort spent hunting for certificates.
SPLICE_FROM_STEP = 24
SNAPSHOT_TAPE_CAP = 2048
CYCLE_TAPE_CAP = 128
COMPACT_KEY_CELLS = 24  # a cycle key is compact from this many non-blank cells
COMPACT_KEY_SPAN = 4  # over a span of at most this many cells per non-blank cell
MAX_SNAPSHOTS_PER_KEY = 6
SNAPSHOT_GROWTH = (5, 4)  # admit a new snapshot when steps >= last * 5/4


def _walk_check(table, q, sym, dir_right, cache):
    """Uniform block-crossing walk from state q over symbol ``sym``.

    The walk may rewrite the current cell any number of times but must then
    move one cell in the crossing direction, back into state q.  Returns
    the symbol it leaves behind, or None if the walk is not of this shape.
    """
    key = (q, sym, dir_right)
    hit = cache.get(key)
    if hit is not None:
        return hit[0]
    tape = {0: sym}
    res = None
    for head, state in islice(steps(table, q, 0, tape), 16):
        if state == 0:
            break
        if head:
            if state == q and (head > 0) == dir_right:
                res = tape.get(0, 0)
            break
    cache[key] = (res,)
    return res


def _first_mismatch(ta, tb, d, ys):
    """The first y of the range ``ys`` where tb[y] != ta[y - d], else ys.stop."""
    for y in ys:
        if tb.get(y, 0) != ta.get(y - d, 0):
            return y
    return ys.stop


def _is_spliced_copy(ta, ha, tb, hb, d, cuts, lo, hi):
    """Whether tb on [lo, hi] is ta shifted by d with the uniform blocks
    ``cuts`` ((x, width, symbol), ... left to right) spliced in, and the head
    at ha maps to hb."""
    h = ha + d
    for x, g, sym in cuts:
        if h >= x:
            h += g
        if any(tb.get(y, 0) != sym for y in range(max(lo, x), min(x + g, hi + 1))):
            return False
    if h != hb:
        return False
    for x, g, _ in cuts:
        stop = min(x, hi + 1)
        if _first_mismatch(ta, tb, d, range(lo, stop)) < stop:
            return False
        lo, d = max(lo, x + g), d + g
    return _first_mismatch(ta, tb, d, range(lo, hi + 1)) > hi


def _splice_candidates(ta, ha, tb, hb):
    """Candidates (shift d, cuts) making tb a spliced copy of ta: the pure
    shifts and one-cut splices, else two-cut splices for tapes growing at
    both ends with distinct runs."""
    if not ta or not tb:
        return [(hb - ha, ())] if not ta and not tb and hb != ha else []
    out = []
    alo, ahi, blo, bhi = min(ta), max(ta), min(tb), max(tb)
    shift_pairs = {
        (blo - alo, bhi - ahi),
        (blo - alo, hb - ha),
        (hb - ha, bhi - ahi),
        (hb - ha, hb - ha),
    }
    for d, d2 in shift_pairs:
        g = d2 - d
        if g < 0:
            continue
        lo, hi = min(blo, alo + d), max(bhi, ahi + d + g)
        if g == 0:
            shifted = d and hb == ha + d and len(ta) == len(tb)
            if shifted and _is_spliced_copy(ta, ha, tb, hb, d, (), lo, hi):
                out.append((d, ()))
            continue
        if hb != ha + d and hb != ha + d + g:
            continue
        x_hi = _first_mismatch(ta, tb, d, range(lo, hi + 1))
        x_lo = _first_mismatch(ta, tb, d + g, range(hi, lo - 1, -1)) + 1 - g
        if x_lo > x_hi:
            continue
        for x in {x_lo, x_hi}:
            cuts = ((x, g, tb.get(x, 0)),)
            if _is_spliced_copy(ta, ha, tb, hb, d, cuts, min(lo, x), max(hi, x + g)):
                out.append((d, cuts))
    # Two cuts: the tape ends fix the shift and the total width g, and the
    # first block starts at the first mismatch from the left (there is one
    # from each end, as tapes hold no blank cells and g > 0).
    d = blo - alo
    g = bhi - ahi - d
    if out or g < 2:
        return out
    x1 = _first_mismatch(ta, tb, d, range(blo, bhi + 1))
    xe = _first_mismatch(ta, tb, d + g, range(bhi, blo - 1, -1))
    for g1 in range(1, g):
        for x2 in {x1 + g1, xe + 1 - (g - g1)}:
            if x2 >= x1 + g1:
                cuts = ((x1, g1, tb.get(x1, 0)), (x2, g - g1, tb.get(x2, 0)))
                # The range reaches the second block's last cell, which may lie past bhi.
                if _is_spliced_copy(ta, ha, tb, hb, d, cuts, blo, max(bhi, x2 + g - g1 - 1)):
                    out.append((d, cuts))
    return out


def _cuts_in_a_coords(d, cuts):
    """Map cut boundaries from step_b coordinates into the replayed segment."""
    acc = 0
    res = []
    for x, g, sym in cuts:
        res.append((x - d - acc, sym))
        acc += g
    return res


def _check_crossings(table, state0, head0, tape0, nsteps, acuts):
    """Replay a segment; validate every crossing of each cut boundary.

    ``acuts`` is a list of [cut position, current symbol]; symbols evolve as
    crossings repaint and must return to their initial values.
    """
    first = [sym for _, sym in acuts]
    cur = [list(c) for c in acuts]
    cache = {}
    oldh = head0
    for head, state in islice(steps(table, state0, head0, dict(tape0)), nsteps):
        if state == 0:
            return False
        for c in cur:
            if oldh == c[0] - 1 and head == c[0]:
                t = _walk_check(table, state, c[1], True, cache)
                if t is None:
                    return False
                c[1] = t
            elif oldh == c[0] and head == c[0] - 1:
                t = _walk_check(table, state, c[1], False, cache)
                if t is None:
                    return False
                c[1] = t
        oldh = head
    return all(c[1] == f for c, f in zip(cur, first))


def _splice_record(snaps, key, table, state, head, tape, steps):
    """The splice search at a record step: a certificate against an earlier
    snapshot of record ``key``, else None.  Snapshots are rate-limited by
    SNAPSHOT_GROWTH and capped per key; the first one is kept longest."""
    lst = snaps.get(key)
    if lst is None:
        snaps[key] = [(steps, head, dict(tape))]
    elif steps * SNAPSHOT_GROWTH[1] >= lst[-1][0] * SNAPSHOT_GROWTH[0]:
        for j, hj, tj in reversed(lst):
            for d, cuts in _splice_candidates(tj, hj, tape, head):
                if not cuts:
                    return ("splice", j, steps, d, ())
                acuts = _cuts_in_a_coords(d, cuts)
                if _check_crossings(table, state, hj, tj, steps - j, acuts):
                    return ("splice", j, steps, d, cuts)
        if len(lst) >= MAX_SNAPSHOTS_PER_KEY:
            lst.pop(1 if len(lst) > 1 else 0)
        lst.append((steps, head, dict(tape)))
    return None


OPEN = -(1 << 40)  # an open input cell's symbol: its table positions are negative
_low_byte = (255).__and__  # a symbol's byte in a compact key; OPEN & 255 == 0


def _compact_key(tape: dict, input_syms: tuple):
    """A dense tape's cycle key: (first cell, bytes), one byte per cell from
    the first to the last non-blank or input cell, each the cell's symbol
    XOR the input's there.  Exact like the frozenset key: the input is fixed
    within a run, an agreeing cell gives 0, and an OPEN cell, never written
    before it is read and resolved, gives 0 before and after.  None when the
    span has more than COMPACT_KEY_SPAN cells per non-blank cell, so a key
    never holds more bytes than that multiple of the tape's cells."""
    lo, hi = min(tape), max(tape)
    if input_syms:
        lo, hi = min(lo, 0), max(hi, len(input_syms) - 1)
    n = hi + 1 - lo
    if n > COMPACT_KEY_SPAN * len(tape):
        return None
    cells = map(tape.get, range(lo, hi + 1), repeat(0, n))
    if not input_syms:  # the XOR with a blank input changes no byte
        return lo, bytes(cells)
    given = int.from_bytes(bytes(map(_low_byte, input_syms)), "little") << -8 * lo
    bits = int.from_bytes(bytes(map(_low_byte, cells)), "little") ^ given
    return lo, bits.to_bytes(n, "little")


_new_tuple = tuple.__new__  # builds a Run from its fields without namedtuple's Python __new__


class Run(namedtuple("Run", "state head steps tape key seen rrec lrec snaps maxh minh")):
    """A run's state between two stages of ``analyze_table``, as ``Undefined.run``."""

    __slots__ = ()

    def fork(self) -> "Run":
        """A copy that resumes without changing this run.  Snapshot lists
        are copied, not the (never changed) tapes in them."""
        state, head, steps, tape, key, seen, rrec, lrec, snaps, maxh, minh = self
        return _new_tuple(Run, (
            state, head, steps, tape.copy(), key, seen.copy(),
            {q: r[:] for q, r in rrec.items()} if rrec else {},
            {q: r[:] for q, r in lrec.items()} if lrec else {},
            {k: v[:] for k, v in snaps.items()} if snaps else {}, maxh, minh))


def analyze_table(table: Table, input_syms: tuple, budget: int, run: Run | None = None):
    """Core detector loop on a raw table.

    Returns one of:
      ('h', steps, output_or_None)
      ('d', certificate_tuple, discovery_step)
      ('u', budget)
    Certificate tuples: ('cycle', a, b), ('escape', state, step, dir),
    ('dir', a, b, dir), ('splice', a, b, shift, cuts).
    At a record step, where the head reaches a new extreme, it checks for a
    blank escape, a directional escape, then (late enough) a splice.  On
    blank tape step 0 is a record step both ways, right side first.

    A stage is one step or one record step's checks.  Its reads that can
    raise ``Undefined`` come before it changes the run, so ``e.run``, passed
    back as ``run``, resumes that stage.  An ``OPEN`` input cell outputs as
    ``?``; the splice search, which compares unvisited cells, raises first.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ilen = len(input_syms)
    # A cycle key holds the tape's difference with the input: exact within one
    # run, and an input cell never read stays out of every key.  A tape of
    # COMPACT_KEY_CELLS or more non-blank cells over a dense span keys by
    # ``_compact_key``, any other by its symmetric difference with the
    # frozenset ``given``, built at the first key it is needed for.  Which
    # form a key takes depends only on the tape, so equal configurations
    # always get equal keys.
    given = None
    if run is not None:
        state, head, steps, tape, key, seen, rrec, lrec, snaps, maxh, minh = run
    else:
        # The hot path keeps its own inlined step loop: detector state updates between steps.
        state, head, steps = 1, 0, 0
        tape = dict(enumerate(input_syms))
        # The tape's cycle key, None once stale.  The input's cells are dense.
        key = _compact_key(tape, input_syms) if ilen >= COMPACT_KEY_CELLS else frozenset()
        seen = {(1, 0, key): 0}
        # Right and left records by state: [step, head, extreme head since]; the
        # extreme is the least head since a right record, the greatest since a
        # left one.  A directional escape from record hj to hk needs equal views
        # of the tape from the head outward; those cells are unvisited, so the
        # views are slices of the input.  A record head is a strict new extreme
        # and the head starts at 0, so a later right record has hk > hj, and a
        # left record after step 0 has hk < min(hj, 0).  Right: input[hj:] ==
        # input[hk:] iff both are empty, iff hj >= ilen.  Left: input[:hj + 1]
        # (empty if hj < 0) equals the empty view at hk iff hj < 0 or ilen == 0.
        # A record failing this is only ever replaced, so it is not kept.
        rrec, lrec, snaps = {}, {}, {}
        maxh, minh = (0, 0) if ilen else (-1, 1)  # blank tape: step 0 is a record both ways
    try:
        while True:
            while head > maxh or head < minh:  # the last step made a record (step 0: twice)
                if head > maxh:
                    right, recs = True, rrec if head >= ilen else None
                    if recs is not None:
                        a, q = table[3 * (state - 1)]
                        if a == MOVE_RIGHT and q == state:
                            return ("d", ("escape", state, steps, "R"), steps)
                        rec = rrec.get(state)
                        if rec is not None and rec[2] >= rec[1]:
                            return ("d", ("dir", rec[0], steps, "R"), steps)
                else:  # head < 0 or blank tape: a blank cell, and a left record worth keeping
                    right, recs = False, lrec
                    a, q = table[3 * (state - 1)]
                    if a == MOVE_LEFT and q == state:
                        return ("d", ("escape", state, steps, "L"), steps)
                    rec = lrec.get(state)
                    if rec is not None and rec[2] <= rec[1]:
                        return ("d", ("dir", rec[0], steps, "L"), steps)
                if steps >= SPLICE_FROM_STEP and len(tape) <= SNAPSHOT_TAPE_CAP:
                    if OPEN in input_syms:
                        raise Undefined(OPEN)
                    cert = _splice_record(snaps, (state, right), table, state, head, tape, steps)
                    if cert is not None:
                        return ("d", cert, steps)
                if recs is not None:  # stored after the search, which never reads it
                    recs[state] = [steps, head, head]
                if right:
                    maxh = head
                else:
                    minh = head
            if steps >= budget:
                return ("u", budget)
            sym = tape.get(head, 0)
            action, nxt = table[3 * (state - 1) + sym]
            if action < MOVE_LEFT:
                if action != sym:
                    if action:
                        tape[head] = action
                    else:
                        del tape[head]
                    key = None
            elif action == MOVE_LEFT:
                head -= 1
                for rec in rrec.values():
                    if head < rec[2]:
                        rec[2] = head
            else:
                head += 1
                for rec in lrec.values():
                    if head > rec[2]:
                        rec[2] = head
            steps += 1
            if nxt == 0:
                return ("h", steps, read_output(tape))
            state = nxt
            if len(tape) <= CYCLE_TAPE_CAP:
                if key is None:
                    if len(tape) >= COMPACT_KEY_CELLS:
                        key = _compact_key(tape, input_syms)
                    if key is None:
                        if given is None:
                            given = frozenset(enumerate(input_syms))
                        key = given.symmetric_difference(tape.items())
                prev = seen.setdefault((state, head, key), steps)
                if prev != steps:  # every stored step is an earlier one
                    return ("d", ("cycle", prev, steps), steps)
    except Undefined as e:
        e.run = _new_tuple(Run, (state, head, steps, tape, key, seen, rrec, lrec, snaps,
                                 maxh, minh))
        raise


def _replay(table, input_syms, step_a, step_b):
    """One plain run: the configuration (state, head, tape) at ``step_a``,
    the one at ``step_b >= step_a``, and the head's range [lo, hi] between
    them.  A run that halts earlier ends in state 0."""
    state, head = 1, 0
    tape = dict(enumerate(input_syms))
    run = steps(table, state, head, tape)
    for head, state in islice(run, step_a):
        pass
    at_a = (state, head, dict(tape))
    lo = hi = head
    for head, state in islice(run, step_b - step_a):
        if head < lo:
            lo = head
        elif head > hi:
            hi = head
    return at_a, (state, head, tape), lo, hi


def _tape_matches_splice(ta, tb, d, cuts):
    positions = set(tb)
    positions.update(y + d for y in ta)
    spans = []
    acc = 0
    for x, g, sym in cuts:
        spans.append((x, x + g, sym, acc))
        acc += g
        positions.update(range(x, x + g))
        positions.update(y + d + acc for y in ta)  # ta cells right of this cut
    total = acc

    def expected(y):
        for x, xe, sym, before in spans:
            if y < x:
                return ta.get(y - d - before, 0)
            if y < xe:
                return sym
        return ta.get(y - d - total, 0)

    return all(tb.get(y, 0) == expected(y) for y in positions)


def _head_matches_splice(ha, hb, d, cuts):
    hx = ha + d
    for x, g, _ in cuts:
        if hx >= x:
            hx += g
    return hx == hb


def verify_certificate(table: Table, input_syms: tuple, cert: tuple) -> bool:
    """Re-simulate ``table`` on ``input_syms`` and confirm every fact the
    certificate tuple ``cert`` (as in ``analyze_table``'s ``('d', cert,
    step)``) asserts; a certificate with any other tag is rejected."""
    kind = cert[0]
    if kind == "escape":
        step_a = step_b = cert[2]
    elif kind in ("cycle", "dir", "splice"):
        step_a, step_b = cert[1], cert[2]
        if step_a >= step_b:
            return False
    else:
        return False
    if step_a < 0:
        return False
    (sa, ha, ta), (sb, hb, tb), lo, hi = _replay(table, input_syms, step_a, step_b)
    if sa != sb or sa == 0:
        return False
    if kind == "escape":
        if sa != cert[1]:
            return False
        action, nxt = table[3 * (sa - 1)]
        if cert[3] == "R":
            return action == MOVE_RIGHT and nxt == sa and all(p < ha for p in ta)
        return action == MOVE_LEFT and nxt == sa and all(p > ha for p in ta)
    if kind == "cycle":
        return ha == hb and ta == tb
    if kind == "dir":
        if cert[3] == "R":
            if hb <= ha or lo < ha:
                return False
            fa = {p - ha: v for p, v in ta.items() if p >= ha}
            fb = {p - hb: v for p, v in tb.items() if p >= hb}
        else:
            if hb >= ha or hi > ha:
                return False
            fa = {p - ha: v for p, v in ta.items() if p <= ha}
            fb = {p - hb: v for p, v in tb.items() if p <= hb}
        return fa == fb
    shift, cuts = cert[3], cert[4]
    if not cuts and shift == 0:
        return False
    if not _tape_matches_splice(ta, tb, shift, cuts):
        return False
    if not _head_matches_splice(ha, hb, shift, cuts):
        return False
    if not cuts:
        return True
    acuts = _cuts_in_a_coords(shift, cuts)
    return _check_crossings(table, sa, ha, ta, step_b - step_a, acuts)


class SweepStats:
    """What a lazy sweep did.  The verdict histogram is weighted by the
    machines each leaf covers, so it sums to ``machines``, the indices swept;
    a sweep over several inputs counts each (index, input) pair."""

    def __init__(self):
        self.machines = self.leaves = self.leaves_verified = 0
        self.verdicts = {}

    def __eq__(self, other):
        return type(other) is SweepStats and vars(self) == vars(other)

    def add(self, res, count: int) -> None:
        """Count one analysed leaf covering ``count`` machines."""
        if res[0] == "h":
            kind = "halt" if res[2] is not None else "invalid"
        else:
            kind = res[1][0] if res[0] == "d" else "unknown"
        self.leaves += 1
        self.machines += count
        self.verdicts[kind] = self.verdicts.get(kind, 0) + count

    def merge(self, other: "SweepStats") -> None:
        """Add the counts of another sweep, such as a pool worker's."""
        self.machines += other.machines
        self.leaves += other.leaves
        self.leaves_verified += other.leaves_verified
        for kind, count in other.verdicts.items():
            self.verdicts[kind] = self.verdicts.get(kind, 0) + count


class BBRecord(namedtuple("BBRecord", "n_states max_steps decided_all undecided_count "
                                       "budget_used")):
    """Busy-beaver style summary of one state-count layer on empty input.

    ``stats`` describes the sweep behind the record.  It is an attribute,
    not a field, so it is never compared, unpacked or exported.
    """

    def __new__(cls, n_states: int, max_steps: int, decided_all: bool, undecided_count: int,
                budget_used: int, stats: SweepStats | None = None):
        if decided_all != (undecided_count == 0):
            raise ValueError("decided_all must mirror undecided_count == 0")
        rec = super().__new__(cls, n_states, max_steps, decided_all, undecided_count, budget_used)
        rec.stats = stats
        return rec


class Undefined(Exception):
    """A run read table entry ``args[0]``, which its partial table leaves
    open, or (``args[0] < 0``) an ``OPEN`` input cell.  Raised inside
    ``analyze_table``'s loop, it carries the run as ``run``."""


class PartialTable(dict):
    """A transition table with open entries: position -> (action, next_state).

    Detectors and replay read tables only through ``[]``, so an open read
    raises ``Undefined`` wherever it happens, speculative reads included.
    """

    def __missing__(self, k):
        raise Undefined(k)


class _BoxTable(PartialTable):
    """A leaf's partial table in a lazy sweep, with the sweep's ``BoxCounter``.
    A read of an open entry that the box forces (a lone child of
    ``BoxCounter.branch``) pins it in place, and the run goes on; any other
    open read raises ``Undefined(pos, children)`` with the ``(entry,
    count)`` children, and a read of an ``OPEN`` input cell raises
    ``Undefined(pos)``."""

    __slots__ = ("boxes",)

    def child(self, *pin):
        """A copy on the same boxes, with the entry ``pin`` = (pos, entry) if given."""
        table = _BoxTable(self)  # one C-level copy: the class adds no __init__
        table.boxes = self.boxes
        if pin:
            table[pin[0]] = pin[1]
        return table

    def __missing__(self, pos):
        if pos < 0:
            raise Undefined(pos)
        children = self.boxes.branch(self, pos)
        if len(children) > 1:
            raise Undefined(pos, children)
        entry = self[pos] = children[0][0]
        return entry


def layer_leaves(n: int, budget: int, lo: int, hi: int, verify: bool = False,
                 input_str: str = "", stats: SweepStats | None = None):
    """Lazy (tree-normal-form) sweep of the n-state layer on one input.

    Yields ``(table, input, count, result)`` per leaf: a partial table whose
    ``boxes`` is the sweep's ``BoxCounter``, its input, where a ``?`` cell
    never read stays ``OPEN`` (a halting output shows it as ``?``, in order:
    a write reads its cell first), how many indices in [lo, hi] complete the
    table, and the ``analyze_table`` result they all share.  A run that
    reads an open entry which the box forces pins it and goes on
    (``_BoxTable``): every index of the box has that value there, so the box
    and its count are unchanged.  A read of any other open entry, or of an
    open cell (0 and 1 at the same count), branches once per child, each
    resuming a fork of the run there (the last child popped takes the run
    itself) on its own copy of the table; a read in step 0's record stage
    on blank tape resumes like any other.  The children of an open entry
    come from ``BoxCounter.branch``, memoized only on an input with an open
    cell, where the leaves of each cell value ask the same questions; a
    concrete input's tree never asks one twice.  A finished run read no
    entry outside its leaf and no open cell (``?`` in its output), so every
    completion, on every input, gets its verdict.  With ``verify`` a
    divergent leaf's certificate is replayed by ``verify_certificate`` on
    the finished leaf, from step 0; a replay that fails, or that reads an
    entry or cell the leaf left open, raises ``AssertionError``.  A
    ``stats`` given counts each leaf yielded, for its (index, input) pairs,
    and each replay.
    """
    boxes = BoxCounter(n, lo, hi)
    input_syms = tuple(OPEN if ch == "?" else s for ch, s in zip(input_str, str_to_syms(input_str)))
    if OPEN not in input_syms:
        boxes.memo = None
    stats = SweepStats() if stats is None else stats
    # (table, input, count, saved run or None at the root, input cell it resolves or None)
    root = _BoxTable()
    root.boxes = boxes
    stack = [(root, input_syms, boxes.size, None, None)] if boxes.size else []
    while stack:
        table, syms, count, run, cell = stack.pop()
        if run is not None:
            if stack and stack[-1][3] is run:  # a sibling resumes it later
                run = run.fork()
            if cell is not None:
                run.tape[cell] = syms[cell]
        try:
            res = analyze_table(table, syms, budget, run)
        except Undefined as e:
            pos, run = e.args[0], e.run
            if pos < 0:  # the open cell under the head, else (for a splice search) the first
                cell = run.head if run.tape.get(run.head) == OPEN else syms.index(OPEN)
                before, after = syms[:cell], syms[cell + 1:]
                stack.append((table.child(), before + (ZERO,) + after, count, run, cell))
                stack.append((table.child(), before + (ONE,) + after, count, run, cell))
                continue
            for entry, c in e.args[1]:
                stack.append((table.child(pos, entry), syms, c, run, None))
            continue
        if verify and res[0] == "d":
            try:  # on a plain copy, whose open reads raise
                replayed = verify_certificate(PartialTable(table), syms, res[1])
            except Undefined:
                replayed = False
            if not replayed:
                raise AssertionError(f"certificate failed replay on leaf {dict(table)}")
            stats.leaves_verified += 1
        stats.add(res, count << syms.count(OPEN))
        yield table, syms, count, res


DEFAULT_ENUM_CEILING = 1 << 26  # the one default refusal threshold of the CLI and the library


class EnumerationLimitError(RuntimeError):
    """A sweep, or a cache verify replay, would do more work than the configured ceiling."""


def _sweep_job(fold, budget, verify, job):
    n, lo, hi, input_str, *extra = job
    stats = SweepStats()
    return fold(layer_leaves(n, budget, lo, hi, verify, input_str, stats), *extra), stats


def sweep(fold, jobs, budget: int, threads: int = 1, verify: bool = False):
    """``fold(leaves, *extra)`` over the ``layer_leaves`` tree (with ``verify``)
    of each job ``(n, lo, hi, input_str, *extra)`` (at least one): the folds
    (each a ``Counter`` or a list) added in job order, and the merged
    ``SweepStats``.  With ``threads > 1`` and more than one job, a fork process
    pool of ``min(threads, len(jobs))`` workers runs the trees; fold and jobs
    must pickle.  A worker that dies raises ``BrokenProcessPool`` here."""
    run = partial(_sweep_job, fold, budget, verify)
    workers = min(threads, len(jobs))
    pool = None
    if workers > 1:  # imported here: a command that never forks never loads them
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    with pool or nullcontext():
        results = pool.map(run, jobs) if pool else map(run, jobs)
        total, stats = next(results)
        for part, part_stats in results:
            total += part  # a Counter's += scans the whole sum, drops entries <= 0 (none here)
            stats.merge(part_stats)
    return total, stats


def check_schedule(schedule) -> list:
    """A budget schedule as a list: non-empty, strictly increasing, budgets >= 1."""
    schedule = list(schedule)
    if not schedule or any(b >= a for a, b in zip(schedule[1:], schedule)):
        raise ValueError("schedule must be non-empty and strictly increasing")
    if schedule[0] < 1:
        raise ValueError("budget must be >= 1")
    return schedule


def _bb_fold(leaves) -> list:
    """``[(max_steps, last_found)]`` of one tree: its largest halting step
    count and its latest certificate discovery step (0 where it has none)."""
    max_steps = last_found = 0
    for _, _, _, res in leaves:
        if res[0] == "h":
            max_steps = max(max_steps, res[1])
        elif res[0] == "d":
            last_found = max(last_found, res[2])
    return [(max_steps, last_found)]


def doubling_schedule(start: int, limit: int) -> list:
    """start, 2*start, ... while <= limit; just [start] when start > limit."""
    schedule = [start]
    while schedule[-1] * 2 <= limit:
        schedule.append(schedule[-1] * 2)
    return schedule


def bb_table(
    n: int,
    schedule,
    machine_range: MachineRange | None = None,
    verify: bool = False,
) -> BBRecord:
    """Analyze every n-state machine on empty input in one sweep at the last
    budget of a strictly increasing ``schedule``; track the max halting step
    count and how many machines stay undecided.

    A run reads its budget only in its loop bound, so if every leaf halts or
    finds its certificate by step s, the sweep at the first budget >= s has
    the same leaves and counts; the record reports that budget, else the last.

    A ``machine_range`` with an explicit index interval restricts the sweep;
    machines of the layer left unswept count as undecided, so a clipped
    sweep can never claim the layer is fully decided.  A range without an
    n-state machine raises ``ValueError``.

    With ``verify`` every divergence certificate is re-checked by replay; a
    failure raises, since it would mean an unsound detector.
    """
    schedule = check_schedule(schedule)
    universe = machine_range or MachineRange(n, n)
    jobs = [(k, lo, hi, "") for k, lo, hi in universe.layers() if k == n]
    if not jobs:
        raise ValueError(f"no {n}-state machine in {universe.describe()}")
    folds, stats = sweep(_bb_fold, jobs, schedule[-1], verify=verify)
    max_steps, last_found = map(max, zip(*folds))
    undecided = machine_count(n) - stats.machines + stats.verdicts.get("unknown", 0)
    first = -1 if undecided else bisect_left(schedule, max(max_steps, last_found))
    return BBRecord(n, max_steps, undecided == 0, undecided, schedule[first], stats)


class Simulator:
    """What the plain runs of (index, program) pairs did within a budget,
    through an optional verdict cache, for the phi profile."""

    def __init__(self, cache=None):
        self.cache = cache

    def raw_verdict(self, i: int, p: str, budget: int):
        """``("h", steps, output or None)`` if the run halts within the budget,
        else ``("u", budget)``: a cache hit, else a fresh analysis, recorded."""
        if self.cache is not None:
            hit = self.cache.lookup(i, p, budget)
            if hit is not None:
                return hit
        res = analyze_table(index_to_table(i)[1], str_to_syms(p), budget)
        res = res if res[0] == "h" else ("u", budget)
        if self.cache is not None:
            self.cache.record(i, p, budget, res)
        return res
