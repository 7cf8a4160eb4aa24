"""Spans around calls into kolmobench's public functions, taken from outside.

`Tracer.install` rebinds each function in `TRACED` in every kolmobench module
namespace that holds it (for example `analyze_table` is bound in `halting`,
`ctm` and `cli`), so the package itself is never edited. Each call becomes a
span: its name, start, end and parent span. Spans stay in memory and are
written once, when the op ends; every span of one op shares the op's
identifier, which names the file. `summarize` reads a file back and computes
calls, total time and self time per name, where self time is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from pathlib import Path

TRACED = (
    "enumeration.index_to_table",
    "halting.analyze_table",
    "halting.verify_certificate",
    "halting.Simulator.raw_verdict",
    "tm_core.str_to_syms",
    "tm_core.decode_program",
    "estimator.phi_profile",
    "estimator.applicable_set",
    "ctm.default_alpha",
    "ctm.table_to_csv",
    "ctm.table_to_json",
    "ctm.DistributionTable.total_mass",
    "cli.cmd_ctm",
    "cli.cmd_bb",
    "cli.cmd_estimate",
    "cache.VerdictCache.__init__",
    "cache.VerdictCache.lookup",
    "cache.VerdictCache.record",
)
VERDICTS = ("halt", "invalid", "cycle", "escape", "dir", "splice", "unknown")


def _observe_analysis(counts: dict, result) -> None:
    """Verdict histogram and simulated steps of one `analyze_table` result."""
    kind = result[0]
    if kind == "h":
        verdict, steps = ("halt" if result[2] is not None else "invalid"), result[1]
    elif kind == "d":
        verdict, steps = result[1][0], result[2]
    else:
        verdict, steps = "unknown", result[1]
    key = "halting.verdicts." + verdict
    counts[key] = counts.get(key, 0) + 1
    counts["halting.analyze_table.steps"] = (
        counts.get("halting.analyze_table.steps", 0) + steps
    )


def _observe_lookup(counts: dict, result) -> None:
    counts["cache.lookup.hits"] = counts.get("cache.lookup.hits", 0) + (
        result is not None
    )


OBSERVERS = {
    "halting.analyze_table": _observe_analysis,
    "cache.VerdictCache.lookup": _observe_lookup,
}


class Tracer:
    """In-memory span recorder for one op process."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.counts = {}
        self.names = array.array("H")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]

    def install(self) -> None:
        """Rebind every function in `TRACED`; call after importing kolmobench.cli."""
        modules = [
            m
            for name, m in sys.modules.items()
            if name == "kolmobench" or name.startswith("kolmobench.")
        ]
        for k, name in enumerate(TRACED):
            module, *path = name.split(".")
            owner = sys.modules["kolmobench." + module]
            if len(path) == 2:  # a method: rebinding it on its class reaches every caller
                cls = getattr(owner, path[0])
                setattr(cls, path[1], self._wrap(k, getattr(cls, path[1]), name))
                continue
            original = getattr(owner, path[0])
            wrapped = self._wrap(k, original, name)
            for m in modules:
                if m.__dict__.get(path[0]) is original:
                    setattr(m, path[0], wrapped)

    def _wrap(self, k: int, fn, name: str):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(k)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write the header (JSON) to `path` and the span arrays beside it."""
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        header = {
            "op": self.op_id,
            "names": list(TRACED),
            "spans": len(self.names),
            "counts": self.counts,
        }
        path.write_text(json.dumps(header))


def summarize(path: Path) -> dict:
    """Per-name calls, total and self seconds, plus the op's counters.

    Also counts `analyze_table` spans whose parent is a `raw_verdict` span,
    which are the `Simulator` memo misses.
    """
    header = json.loads(path.read_text())
    n = header["spans"]
    names, parents = array.array("H"), array.array("q")
    starts, ends = array.array("d"), array.array("d")
    with open(path.with_suffix(".spans"), "rb") as fh:
        for arr in (names, parents, starts, ends):
            arr.fromfile(fh, n)
    dur = [e - s for s, e in zip(starts, ends)]
    own = list(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= dur[i]
    labels = header["names"]
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in labels}
    for k, d, o in zip(names, dur, own):
        s = stats[labels[k]]
        s["calls"] += 1
        s["total_s"] += d
        s["self_s"] += o
    analyze = labels.index("halting.analyze_table")
    raw_verdict = labels.index("halting.Simulator.raw_verdict")
    memo_misses = sum(
        1
        for k, p in zip(names, parents)
        if k == analyze and p >= 0 and names[p] == raw_verdict
    )
    return {"spans": stats, "counts": header["counts"], "memo_misses": memo_misses}
