"""Append-only verdict cache: one JSON record per line.

Records are keyed by (machine index, program, budget) and hold only what the
plain run did within that budget: halted at a step count, with an output
(``halted``) or without (``invalid``), or not halted (``unknown``).  With no
certificate or discovery step, no detector change makes a record stale, and
``tm_core.run`` re-derives each one.  A bad line is reported by its number.
In memory a record is the run's tuple; JSON is read and written only at the file.
"""

from __future__ import annotations

import json
import os
from collections import Counter

from .enumeration import MAX_STATES_SUPPORTED, layer_offset


class CacheCorruptionError(RuntimeError):
    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


_FIELDS = ("i", "p", "budget", "status", "steps", "output")
# Older files also hold "diverges" records (with a "cert"): did not halt.
_STATUSES = ("halted", "invalid", "unknown", "diverges")


def raw_to_record(i: int, p: str, budget: int, raw) -> dict:
    """Analysis result -> JSON-able record; all but a halt record as did-not-halt."""
    steps, output = raw[1:] if raw[0] == "h" else (None, None)
    status = "unknown" if steps is None else "invalid" if output is None else "halted"
    return {"i": i, "p": p, "budget": budget, "status": status, "steps": steps, "output": output}


def record_to_raw(rec: dict):
    """Record -> ``("h", steps, output or None)``, else ``("u", budget)``."""
    if rec["status"] in ("halted", "invalid"):
        return ("h", rec["steps"], rec["output"])
    return ("u", rec["budget"])


def _line(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def _is_binary(v) -> bool:
    return isinstance(v, str) and not v.strip("01")


def _problem(rec):
    """Why a parsed line is not a record, or None: a field of the wrong type
    stops here, never in a phi scan."""
    if not isinstance(rec, dict):
        return "not a JSON object"
    for f in _FIELDS:
        if f not in rec:
            return f"missing field {f!r}"
    status, steps, out = rec["status"], rec["steps"], rec["output"]
    if status not in _STATUSES:
        return f"bad status {status!r}"
    if not all(type(rec[f]) is int and rec[f] >= 1 for f in ("i", "budget")):
        return "i or budget is not an int >= 1"
    if rec["i"] > layer_offset(MAX_STATES_SUPPORTED + 1):
        return f"i {rec['i']} is past the {MAX_STATES_SUPPORTED}-state layer"
    if not _is_binary(rec["p"]):
        return f"p {rec['p']!r} is not a binary string"
    if status in ("halted", "invalid") and not (type(steps) is int and 1 <= steps <= rec["budget"]):
        return f"steps {steps!r} is not an int in 1..budget"
    if status == "halted" and not _is_binary(out) or status == "invalid" and out is not None:
        return f"bad output {out!r} for status {status!r}"


class VerdictCache:
    """In-memory map of run tuples over a JSONL file; appends go straight to disk."""

    def __init__(self, path: str):
        self.path = path
        self.records = {}
        self._fh = None
        if os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise CacheCorruptionError(self.path, line_no, f"bad JSON ({e.msg})")
                problem = _problem(rec)
                if problem:
                    raise CacheCorruptionError(self.path, line_no, problem)
                key = (rec["i"], rec["p"], rec["budget"])
                raw = record_to_raw(rec)  # older formats read as today's
                prev = self.records.get(key)
                if prev is not None and prev != raw:
                    raise CacheCorruptionError(
                        self.path, line_no, f"conflicting duplicate for key {key}"
                    )
                self.records[key] = raw

    def lookup(self, i: int, p: str, budget: int):
        return self.records.get((i, p, budget))

    def record(self, i: int, p: str, budget: int, raw) -> None:
        key = (i, p, budget)
        if key in self.records:
            return
        rec = raw_to_record(i, p, budget, raw)
        self.records[key] = record_to_raw(rec)
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(_line(rec))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        return len(self.records)

    def status_counts(self) -> Counter:
        return Counter(raw_to_record(*key, raw)["status"] for key, raw in self.records.items())

    def compact(self) -> int:
        """Rewrite the file without duplicate lines; returns records kept."""
        self.close()
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for key in sorted(self.records):
                fh.write(_line(raw_to_record(*key, self.records[key])))
        os.replace(tmp, self.path)
        return len(self.records)
