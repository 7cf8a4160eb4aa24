"""Certified halting analysis at finite budget, and busy-beaver step tables.

``analyze`` simulates a machine and either proves it halts, proves it
diverges with a replayable certificate, or reports unknown-at-budget.
Soundness is the hard requirement; completeness only has to be good enough
to fully decide the 1- and 2-state layers on empty input.

Certificate kinds, each with a mechanical checker:

* ``ConfigCycle`` -- the exact configuration (state, head, tape) recurred;
  a deterministic machine then loops forever.
* ``BlankEscape`` -- the head sits on blank tape beyond every non-blank
  cell and the current state moves outward over blanks into itself.
* ``DirectionalEscape`` -- two steps with equal state, the head strictly
  further out, the head never behind the earlier position in between, and
  an identical view of the tape from the head outward.  The segment then
  replays shifted, forever (junk left behind is never revisited).
* ``SpliceCycle`` -- the later tape equals the earlier tape translated by
  ``shift`` with up to two uniform symbol blocks spliced in, the head and
  state corresponding, and every head crossing of a cut arrives in a state
  that walks over the block's symbol monotonically, returning to itself at
  each fresh cell and repainting uniformly (block symbols must return to
  the spliced value by the end).  The run from the later step then replays
  the segment with the blocks pumped wider each round.  With no cuts this
  degenerates to a pure translated recurrence, which is sound outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from multiprocessing import get_context
from typing import NamedTuple

from .enumeration import MachineRange, box_count, index_to_table, layer_offset, machine_count
from .tm_core import (
    MOVE_LEFT,
    MOVE_RIGHT,
    Cutoff,
    Halted,
    InvalidOutput,
    Machine,
    Table,
    decode_program,
    read_output,
    steps,
    str_to_syms,
)

# Detector tuning. Soundness never depends on these; they only bound the
# effort spent hunting for certificates.
SPLICE_FROM_STEP = 24
SNAPSHOT_TAPE_CAP = 2048
CYCLE_TAPE_CAP = 128
MAX_SNAPSHOTS_PER_KEY = 6
SNAPSHOT_GROWTH = (5, 4)  # admit a new snapshot when steps >= last * 5/4
CACHEABLE_SWEEP_LIMIT = 1 << 16  # most (index, program) pairs a sweep may cache


@dataclass(frozen=True)
class ConfigCycle:
    step_a: int
    step_b: int


@dataclass(frozen=True)
class BlankEscape:
    state: int
    step: int
    direction: str  # "R" or "L"


@dataclass(frozen=True)
class DirectionalEscape:
    step_a: int
    step_b: int
    direction: str


@dataclass(frozen=True)
class SpliceCycle:
    step_a: int
    step_b: int
    shift: int
    cuts: tuple  # ((cut_pos, width, symbol), ...) in step_b coordinates


Certificate = ConfigCycle | BlankEscape | DirectionalEscape | SpliceCycle


@dataclass(frozen=True)
class ProvedHalts:
    steps: int
    output: str | None  # None marks an invalid (non-contiguous) output


@dataclass(frozen=True)
class ProvedDiverges:
    certificate: Certificate
    found_at: int


@dataclass(frozen=True)
class Unknown:
    budget: int


HaltingVerdict = ProvedHalts | ProvedDiverges | Unknown


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


def _splice_candidates(ta, ha, tb, hb):
    """Single-cut candidates (shift d, cuts) making tb a spliced copy of ta."""
    out = []
    if not ta and not tb:
        d = hb - ha
        if d != 0:
            out.append((d, ()))
        return out
    if not ta or not tb:
        return out
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
        if g == 0:
            if d == 0 or hb != ha + d or len(ta) != len(tb):
                continue
            if all(tb.get(y + d, 0) == ta.get(y, 0) for y in ta):
                cand = (d, ())
                if cand not in out:
                    out.append(cand)
            continue
        if hb != ha + d and hb != ha + d + g:
            continue
        lo = min(blo, alo + d)
        hi = max(bhi, ahi + d + g)
        x_hi = hi + 1
        for y in range(lo, hi + 1):
            if tb.get(y, 0) != ta.get(y - d, 0):
                x_hi = y
                break
        x_lo = lo - g
        for y in range(hi, lo - 1, -1):
            if tb.get(y, 0) != ta.get(y - d - g, 0):
                x_lo = y + 1 - g
                break
        if x_lo > x_hi:
            continue
        for x in {x_lo, x_hi}:
            sym = tb.get(x, 0)
            if any(tb.get(x + i, 0) != sym for i in range(1, g)):
                continue
            ok = True
            for y in range(min(lo, x), max(hi, x + g) + 1):
                if x <= y < x + g:
                    want = sym
                elif y < x:
                    want = ta.get(y - d, 0)
                else:
                    want = ta.get(y - d - g, 0)
                if tb.get(y, 0) != want:
                    ok = False
                    break
            if not ok:
                continue
            hx = ha + d if ha + d < x else ha + d + g
            if hx != hb:
                continue
            cand = (d, ((x, g, sym),))
            if cand not in out:
                out.append(cand)
    return out


def _double_splice_candidates(ta, ha, tb, hb):
    """Two-cut candidates, for tapes growing at both ends with distinct runs."""
    out = []
    if not ta or not tb:
        return out
    alo, ahi, blo, bhi = min(ta), max(ta), min(tb), max(tb)
    d = blo - alo
    gtot = (bhi - ahi) - d
    if gtot < 2:
        return out
    lo = min(blo, alo + d)
    hi = max(bhi, ahi + d + gtot)
    x1 = None
    for y in range(lo, hi + 1):
        if tb.get(y, 0) != ta.get(y - d, 0):
            x1 = y
            break
    if x1 is None:
        return out
    xe = None
    for y in range(hi, lo - 1, -1):
        if tb.get(y, 0) != ta.get(y - d - gtot, 0):
            xe = y
            break
    for g1 in range(1, gtot):
        g2 = gtot - g1
        for x2 in {x1 + g1, xe + 1 - g2}:
            if x2 < x1 + g1:
                continue
            s1 = tb.get(x1, 0)
            s2 = tb.get(x2, 0)
            ok = True
            for y in range(lo, hi + 1):
                if x1 <= y < x1 + g1:
                    want = s1
                elif x2 <= y < x2 + g2:
                    want = s2
                elif y < x1:
                    want = ta.get(y - d, 0)
                elif y < x2:
                    want = ta.get(y - d - g1, 0)
                else:
                    want = ta.get(y - d - g1 - g2, 0)
                if tb.get(y, 0) != want:
                    ok = False
                    break
            if not ok:
                continue
            if ha + d < x1:
                hx = ha + d
            elif ha + d + g1 < x2:
                hx = ha + d + g1
            else:
                hx = ha + d + g1 + g2
            if hx != hb:
                continue
            cand = (d, ((x1, g1, s1), (x2, g2, s2)))
            if cand not in out:
                out.append(cand)
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


def analyze_table(table: Table, input_syms: tuple, budget: int):
    """Core detector loop on a raw table.

    Returns one of:
      ('h', steps, output_or_None)
      ('d', certificate_tuple, discovery_step)
      ('u', budget)
    Certificate tuples: ('cycle', a, b), ('escape', state, step, dir),
    ('dir', a, b, dir), ('splice', a, b, shift, cuts).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # The hot path keeps its own inlined step loop: detector state updates between steps.
    state, head, steps = 1, 0, 0
    tape = dict(enumerate(input_syms))
    ilen = len(input_syms)
    out_lo, out_hi = 0, max(0, ilen - 1)
    seen = {(1, 0, frozenset(tape.items())): 0}
    srec = {}  # (state, right?) -> [step, head, extreme head since]
    snaps = {}
    last_snap_step = {}
    maxh = minh = 0

    def forward_view_ok(hj, hk, right):
        # Views from the head outward at record steps: cells on the far side
        # are unvisited, so they hold exactly the initial input contents.
        if right:
            if hj >= ilen and hk >= ilen:
                return True
            return input_syms[hj:] == input_syms[hk:]
        va = input_syms[: hj + 1] if hj >= 0 else ()
        vb = input_syms[: hk + 1] if hk >= 0 else ()
        return va == vb

    def record_event(right):
        if (head >= ilen) if right else (head < 0 or ilen == 0):
            action, nxt = table[3 * (state - 1)]
            if right:
                if action == MOVE_RIGHT and nxt == state:
                    return ("escape", state, steps, "R")
            elif action == MOVE_LEFT and nxt == state:
                return ("escape", state, steps, "L")
        key = (state, right)
        rec = srec.get(key)
        if rec is not None:
            j, hj, extreme = rec
            alive = (extreme >= hj) if right else (extreme <= hj)
            if alive and forward_view_ok(hj, head, right):
                return ("dir", j, steps, "R" if right else "L")
            rec[0], rec[1], rec[2] = steps, head, head
        else:
            srec[key] = [steps, head, head]
        if steps >= SPLICE_FROM_STEP and len(tape) <= SNAPSHOT_TAPE_CAP:
            lst = snaps.get(key)
            if lst is None:
                snaps[key] = [(steps, head, dict(tape))]
                last_snap_step[key] = steps
            elif steps * SNAPSHOT_GROWTH[1] >= last_snap_step[key] * SNAPSHOT_GROWTH[0]:
                for j, hj, tj in reversed(lst):
                    cands = _splice_candidates(tj, hj, tape, head)
                    if not cands:
                        cands = _double_splice_candidates(tj, hj, tape, head)
                    for d, cuts in cands:
                        if not cuts:
                            return ("splice", j, steps, d, ())
                        acuts = _cuts_in_a_coords(d, cuts)
                        if _check_crossings(table, state, hj, tj, steps - j, acuts):
                            return ("splice", j, steps, d, cuts)
                if len(lst) >= MAX_SNAPSHOTS_PER_KEY:
                    lst.pop(1 if len(lst) > 1 else 0)
                lst.append((steps, head, dict(tape)))
                last_snap_step[key] = steps
        return None

    cert = record_event(True)
    if cert is None:
        cert = record_event(False)
    if cert is not None:
        return ("d", cert, steps)
    while steps < budget:
        sym = tape.get(head, 0)
        action, nxt = table[3 * (state - 1) + sym]
        if action < MOVE_LEFT:
            if action == 0:
                if sym:
                    del tape[head]
            else:
                tape[head] = action
        elif action == MOVE_LEFT:
            head -= 1
            if head < out_lo:
                out_lo = head
        else:
            head += 1
            if head > out_hi:
                out_hi = head
        steps += 1
        if nxt == 0:
            return ("h", steps, read_output(tape, out_lo, out_hi))
        state = nxt
        if len(tape) <= CYCLE_TAPE_CAP:
            ckey = (state, head, frozenset(tape.items()))
            prev = seen.get(ckey)
            if prev is not None:
                return ("d", ("cycle", prev, steps), steps)
            seen[ckey] = steps
        if head > maxh:
            maxh = head
            cert = record_event(True)
            if cert is not None:
                return ("d", cert, steps)
        elif head < minh:
            minh = head
            cert = record_event(False)
            if cert is not None:
                return ("d", cert, steps)
        if action == MOVE_LEFT:
            for (s_, right_), rec in srec.items():
                if right_ and head < rec[2]:
                    rec[2] = head
        elif action == MOVE_RIGHT:
            for (s_, right_), rec in srec.items():
                if not right_ and head > rec[2]:
                    rec[2] = head
    return ("u", budget)


def _to_certificate(ct) -> Certificate:
    kind = ct[0]
    if kind == "cycle":
        return ConfigCycle(ct[1], ct[2])
    if kind == "escape":
        return BlankEscape(state=ct[1], step=ct[2], direction=ct[3])
    if kind == "dir":
        return DirectionalEscape(step_a=ct[1], step_b=ct[2], direction=ct[3])
    return SpliceCycle(step_a=ct[1], step_b=ct[2], shift=ct[3], cuts=ct[4])


def analyze(m: Machine, input_str: str, budget: int) -> HaltingVerdict:
    """Sound halting verdict for machine ``m`` on ``input_str`` at ``budget``."""
    res = analyze_table(m.table, str_to_syms(input_str), budget)
    if res[0] == "h":
        return ProvedHalts(steps=res[1], output=res[2])
    if res[0] == "d":
        return ProvedDiverges(certificate=_to_certificate(res[1]), found_at=res[2])
    return Unknown(budget=res[1])


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


def verify_certificate(m: Machine, input_str: str, verdict: ProvedDiverges) -> bool:
    """Re-simulate and confirm every fact the certificate asserts."""
    table = m.table
    input_syms = str_to_syms(input_str)
    cert = verdict.certificate
    if isinstance(cert, BlankEscape):
        step_a = step_b = cert.step
    elif isinstance(cert, (ConfigCycle, DirectionalEscape, SpliceCycle)):
        if cert.step_a >= cert.step_b:
            return False
        step_a, step_b = cert.step_a, cert.step_b
    else:
        return False
    if step_a < 0:
        return False
    (sa, ha, ta), (sb, hb, tb), lo, hi = _replay(table, input_syms, step_a, step_b)
    if sa != sb or sa == 0:
        return False
    if isinstance(cert, BlankEscape):
        if sa != cert.state:
            return False
        action, nxt = table[3 * (sa - 1)]
        if cert.direction == "R":
            return action == MOVE_RIGHT and nxt == sa and all(p < ha for p in ta)
        return action == MOVE_LEFT and nxt == sa and all(p > ha for p in ta)
    if isinstance(cert, ConfigCycle):
        return ha == hb and ta == tb
    if isinstance(cert, DirectionalEscape):
        if cert.direction == "R":
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
    if cert.cuts == () and cert.shift == 0:
        return False
    if not _tape_matches_splice(ta, tb, cert.shift, cert.cuts):
        return False
    if not _head_matches_splice(ha, hb, cert.shift, cert.cuts):
        return False
    if not cert.cuts:
        return True
    acuts = _cuts_in_a_coords(cert.shift, cert.cuts)
    return _check_crossings(table, sa, ha, ta, cert.step_b - cert.step_a, acuts)


@dataclass
class SweepStats:
    """What a lazy layer sweep did.  The verdict histogram is weighted by the
    machines each leaf covers, so it sums to ``machines``, the indices swept."""

    machines: int = 0
    leaves: int = 0
    leaves_verified: int = 0
    verdicts: dict = field(default_factory=dict)

    def add(self, res, count: int) -> None:
        """Count one analysed leaf covering ``count`` machines."""
        if res[0] == "h":
            kind = "halt" if res[2] is not None else "invalid"
        else:
            kind = res[1][0] if res[0] == "d" else "unknown"
        self.leaves += 1
        self.machines += count
        self.verdicts[kind] = self.verdicts.get(kind, 0) + count


@dataclass(frozen=True)
class BBRecord:
    """Busy-beaver style summary of one state-count layer on empty input.

    ``stats`` describes the sweep behind the record and is never compared.
    """

    n_states: int
    max_steps: int
    decided_all: bool
    undecided_count: int
    budget_used: int
    stats: SweepStats | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.decided_all != (self.undecided_count == 0):
            raise ValueError("decided_all must mirror undecided_count == 0")


class Undefined(Exception):
    """A run read table entry ``args[0]``, which its partial table leaves open."""


class PartialTable(dict):
    """A transition table with open entries: position -> (action, next_state).

    Detectors and replay read tables only through ``[]``, so an open read
    raises ``Undefined`` wherever it happens, speculative reads included.
    """

    def __missing__(self, k):
        raise Undefined(k)


class _LeafMachine(NamedTuple):  # what verify_certificate reads of a Machine
    n_states: int
    table: PartialTable


def layer_leaves(n: int, budget: int, lo: int, hi: int, verify: bool = False):
    """Lazy (tree-normal-form) sweep of the n-state layer on empty input.

    Yields ``(count, result)`` per leaf (a partial table): how many indices
    in [lo, hi] complete the leaf, and the ``analyze_table`` result they all
    share.  A run that reads an open entry is re-run once per value of
    that entry; a run that finishes read no entry outside its leaf, so every
    completion gets its verdict.  With ``verify`` a divergent leaf's
    certificate is replayed on the same partial table, branching likewise;
    a failed replay raises.
    """
    entries = [divmod(d, n + 1) for d in range(5 * (n + 1))]
    stack = [PartialTable()]
    while stack:
        table = stack.pop()
        count = box_count(n, table, lo, hi)
        if count == 0:
            continue
        try:
            res = analyze_table(table, (), budget)
            if verify and res[0] == "d":
                verdict = ProvedDiverges(_to_certificate(res[1]), res[2])
                if not verify_certificate(_LeafMachine(n, table), "", verdict):
                    raise AssertionError(f"certificate failed replay on leaf {dict(table)}")
        except Undefined as e:
            stack.extend(PartialTable({**table, e.args[0]: entry}) for entry in entries)
            continue
        yield count, res


def bb_table(
    n: int,
    budget: int,
    machine_range: MachineRange | None = None,
    verify: bool = False,
) -> BBRecord:
    """Analyze every n-state machine on empty input; track the max halting
    step count and how many machines stay undecided at this budget.

    A ``machine_range`` with an explicit index interval restricts the sweep;
    machines of the layer left unswept count as undecided, so a clipped
    sweep can never claim the layer is fully decided.

    With ``verify`` every divergence certificate is re-checked by replay; a
    failure raises, since it would mean an unsound detector.
    """
    layer_lo = layer_offset(n) + 1
    layer_hi = layer_lo + machine_count(n) - 1
    lo, hi = layer_lo, layer_hi
    if machine_range is not None:
        if not machine_range.min_states <= n <= machine_range.max_states:
            raise ValueError(f"n={n} outside {machine_range.describe()}")
        rlo, rhi = machine_range.index_bounds()
        lo, hi = max(lo, rlo), min(hi, rhi)
        if lo > hi:
            raise ValueError("index interval excludes the whole layer")
    stats = SweepStats()
    max_steps = 0
    for count, res in layer_leaves(n, budget, lo, hi, verify):
        stats.add(res, count)
        if res[0] == "h":
            max_steps = max(max_steps, res[1])
        elif res[0] == "d" and verify:
            stats.leaves_verified += 1
    undecided = (lo - layer_lo) + (layer_hi - hi) + stats.verdicts.get("unknown", 0)
    return BBRecord(n, max_steps, undecided == 0, undecided, budget, stats)


def decide_layer(
    n: int, start_budget: int = 16, max_budget: int = 1 << 16, verify: bool = False
) -> BBRecord:
    """Doubling search for a budget that fully decides the n-state layer.

    Each budget sweeps the layer afresh (``verify`` as in ``bb_table``);
    verdicts are monotone in the budget, so the last sweep's record is exact.
    """
    budget = start_budget
    while True:
        rec = bb_table(n, budget, verify=verify)
        if rec.decided_all or budget * 2 > max_budget:
            return rec
        budget *= 2


class Simulator:
    """Memoized machine runs for program sweeps.

    One underlying analysis per (index, program) serves every queried
    budget: halting is monotone in budget and certificate discovery steps
    are fixed, so smaller-budget verdicts derive exactly.  An optional
    verdict cache records per-(index, program, budget) summaries.
    """

    def __init__(self, universe: MachineRange, cache=None):
        self.universe = universe
        self.cache = cache
        self._memo = {}
        self._tables = {}

    def _table(self, i: int):
        t = self._tables.get(i)
        if t is None:
            _, t = index_to_table(i)
            self._tables[i] = t
        return t

    def raw_verdict(self, i: int, p: str, budget: int):
        """analyze_table result for this budget, via the memo."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if self.cache is not None:
            hit = self.cache.lookup(i, p, budget)
            if hit is not None:
                return hit
        key = (i, p)
        ent = self._memo.get(key)
        if ent is None or (ent[0] == "u" and budget > ent[1]):
            ent = analyze_table(self._table(i), str_to_syms(p), budget)
            if ent[0] != "u" or ent[1] >= self._memo.get(key, ("u", 0))[1]:
                self._memo[key] = ent
        res = self._derive(ent, budget)
        if self.cache is not None:
            self.cache.record(i, p, budget, res)
        return res

    @staticmethod
    def _derive(ent, budget: int):
        if ent[0] == "h":
            return ent if ent[1] <= budget else ("u", budget)
        if ent[0] == "d":
            return ent if ent[2] <= budget else ("u", budget)
        return ("u", budget) if budget <= ent[1] else ent  # caller re-analyzes

    def u_outcome(self, program: str, budget: int):
        """Reference-machine run outcome (Halted/InvalidOutput/Cutoff) of a
        raw program via the memo."""
        dec = decode_program(program)
        if dec is None or not self.universe.contains_index(dec[0]):
            return Cutoff(budget)
        res = self.raw_verdict(*dec, budget)
        if res[0] != "h":
            return Cutoff(budget)
        return InvalidOutput(res[1]) if res[2] is None else Halted(res[2], res[1])


def program_sweep(
    universe: MachineRange,
    programs,
    budget: int,
    reduce,
    threads: int = 1,
    sim: Simulator | None = None,
):
    """Yield ``reduce(i, p, steps, output)`` for every (index, program) pair
    of the universe that halts with a valid output, skipping ``None``s, in
    index-then-``programs`` order whatever the thread count.

    One thread with a ``sim`` goes through its memo, so callers sharing a
    ``Simulator`` reuse earlier runs; otherwise every pair is run plainly and
    nothing is kept.  ``threads > 1`` splits the index range into fixed
    chunks over a fork pool; ``reduce`` must then pickle.  ``sim.cache``
    serves and records only sweeps of at most ``CACHEABLE_SWEEP_LIMIT``
    pairs; for larger ones it is left untouched, and the memo unused.
    """
    programs = list(programs)
    lo, hi = universe.index_bounds()
    cache = None
    if sim is not None and universe.count * len(programs) <= CACHEABLE_SWEEP_LIMIT:
        cache = sim.cache
    if threads <= 1:
        memo = sim is not None and (sim.cache is None or cache is not None)
        yield from _sweep_range(lo, hi, programs, budget, reduce, sim if memo else None)
        return
    size = max(1, -(-(hi - lo + 1) // (threads * 4)))
    jobs = [
        (start, min(hi, start + size - 1), programs, budget, reduce, cache is not None)
        for start in range(lo, hi + 1, size)
    ]
    with get_context("fork").Pool(processes=threads) as pool:
        for items, raws in pool.imap(_sweep_chunk, jobs):
            for i, p, raw in raws:
                cache.record(i, p, budget, raw)
            yield from items


def _sweep_range(lo, hi, programs, budget, reduce, sim=None, raws=None):
    """The loop of ``program_sweep`` over indices lo..hi: through ``sim``'s
    memo when given, else plain runs, appended to ``raws`` when given."""
    inputs = [(p, str_to_syms(p)) for p in programs]
    for i in range(lo, hi + 1):
        table = None if sim is not None else index_to_table(i)[1]
        for p, syms in inputs:
            if sim is not None:
                res = sim.raw_verdict(i, p, budget)
            else:
                res = analyze_table(table, syms, budget)
                if raws is not None:
                    raws.append((i, p, res))
            if res[0] == "h" and res[2] is not None:
                item = reduce(i, p, res[1], res[2])
                if item is not None:
                    yield item


def _sweep_chunk(job):
    """One pool worker's share of ``program_sweep``: (items, raw verdicts)."""
    lo, hi, programs, budget, reduce, keep_raws = job
    raws = []
    items = list(_sweep_range(lo, hi, programs, budget, reduce, raws=raws if keep_raws else None))
    return items, raws
