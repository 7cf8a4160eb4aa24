"""Export checks: pinned digests plus invariants that hold for every seed.

Each `check_*` function takes the op and its export text and returns a list
of problems; an empty list means the export passed. `check_export` also
compares the export's sha256 with the one its `.manifest.json` sidecar records
and with `reference_digests.json`, which pins the digest of the ops generated
by the seeds used to validate the benchmark at the commit that added it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

LAYER2_SIZE = 11_390_625
BB2_MAX_STEPS = 10
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _alpha_sum(lo: int, hi: int) -> Fraction:
    """Sum of the Kraft weights 2^-(2|bin(i)|+1) over lo..hi, by bit length.

    Computed here rather than with `ctm.alpha_sum_upto`, so that the bound
    does not come from the code it checks.
    """
    total = Fraction(0)
    for k in range(lo.bit_length(), hi.bit_length() + 1):
        a, b = max(lo, 1 << (k - 1)), min(hi, (1 << k) - 1)
        total += Fraction(b - a + 1, 1 << (2 * k + 1))
    return total


def _table_rows(text: str, fmt: str):
    """(output, mass) rows of a ctm export, its meta, and the JSON total if any."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [(e["output"], Fraction(e["num"], e["den"])) for e in doc["entries"]]
        total = Fraction(doc["total"]["num"], doc["total"]["den"])
        return rows, doc["meta"], total
    body = [line for line in text.splitlines() if not line.startswith("#")]
    records = list(csv.DictReader(io.StringIO("\n".join(body))))
    rows = [
        (r["output_string"], Fraction(int(r["mass_numerator"]), int(r["mass_denominator"])))
        for r in records
    ]
    metas = {(r["scheme"], r["universe"], r["budget"], r["L"]) for r in records}
    meta = None
    if len(metas) == 1:
        scheme, universe, budget, block = metas.pop()
        meta = {
            "scheme": scheme,
            "universe": universe,
            "budget": int(budget),
            "L": int(block) if block else None,
        }
    return rows, meta, None


def _check_table(op, text: str, scheme: str, block_len) -> tuple[list, list]:
    problems = []
    rows, meta, total = _table_rows(text, op.out)
    want = {
        "scheme": scheme,
        "universe": f"s1-2@i{op.lo}-{op.hi}",
        "budget": op.budget,
        "L": block_len,
    }
    if meta != want:
        problems.append(f"meta {meta} != {want}")
    outputs = [x for x, _ in rows]
    if outputs != sorted(set(outputs), key=lambda x: (len(x), x)):
        problems.append("outputs not unique in (length, string) order")
    if any(ch not in "01" for x in outputs for ch in x):
        problems.append("non-binary output string")
    if any(mass <= 0 for _, mass in rows):
        problems.append("non-positive mass")
    if total is not None and total != sum((m for _, m in rows), Fraction(0)):
        problems.append("JSON total differs from the sum of its entries")
    return problems, rows


def check_bb(op, text: str) -> list:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if len(lines) != 2:
        return [f"expected a header and one row, got {len(lines)} lines"]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    want_undecided = LAYER2_SIZE - (op.hi - op.lo + 1)
    problems = []
    if row.get("n_states") != "2" or row.get("budget_used") != str(op.budget):
        problems.append(f"unexpected row {row}")
    if not 1 <= int(row.get("max_steps", "0")) <= BB2_MAX_STEPS:
        problems.append(f"max_steps {row.get('max_steps')} outside 1..{BB2_MAX_STEPS}")
    if row.get("undecided_count") != str(want_undecided):
        problems.append(f"undecided_count {row.get('undecided_count')} != {want_undecided}")
    if row.get("decided_all") != "False":
        problems.append("a partial sweep claims the layer is decided")
    return problems


def check_frequency(op, text: str) -> list:
    problems, rows = _check_table(op, text, "frequency", None)
    count = op.hi - op.lo + 1
    if any(count % mass.denominator for _, mass in rows):
        problems.append(f"a mass denominator does not divide the slice length {count}")
    if sum((m for _, m in rows), Fraction(0)) > 1:
        problems.append("frequency masses sum above 1")
    return problems


def check_corrected(op, text: str) -> list:
    problems, rows = _check_table(op, text, "corrected", op.block_len)
    if any(mass.denominator & (mass.denominator - 1) for _, mass in rows):
        problems.append("a corrected mass has a denominator that is not a power of two")
    bound = _alpha_sum(op.lo, op.hi)
    if not bound <= 1:
        problems.append("alpha sum over the window above 1")
    if sum((m for _, m in rows), Fraction(0)) > bound:
        problems.append("corrected total above the alpha sum of the window")
    return problems


def check_estimate(op, text: str) -> list:
    from kolmobench.enumeration import MachineRange, index_to_machine
    from kolmobench.tm_core import Halted, run, u_run

    doc = json.loads(text)
    problems = []
    x = op.x
    if doc.get("x") != x or doc.get("universe") != f"s1-2@i{op.lo}-{op.hi}":
        return [f"export is for x={doc.get('x')!r} on {doc.get('universe')!r}"]
    universe = MachineRange.parse(doc["universe"])
    profile = doc["profile"]
    schedule = [1 << k for k in range(op.budget.bit_length())]
    if [r["t"] for r in profile] != schedule:
        problems.append("phi profile does not follow the doubling schedule")
    values = [r["value"] for r in profile]
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append("phi profile increases")
    for r in profile:
        w = r["witness"]
        if w is None:
            if r["value"] != doc["cap"]:
                problems.append(f"phi({r['t']}) has no witness but is below the cap")
            continue
        replay = u_run(w, r["t"], universe)
        if len(w) != r["value"] or not (isinstance(replay, Halted) and replay.output == x):
            problems.append(f"u_run does not replay the phi({r['t']}) witness {w!r}")
    ub = doc["upper_bound"]
    replay = run(index_to_machine(ub["i"]), ub["p"], ub["steps"])
    if not (isinstance(replay, Halted) and replay.output == x and replay.steps == ub["steps"]):
        problems.append("tm_core.run does not replay the upper-bound witness")
    k = ub["i"].bit_length()
    if not ub["bound"] == ub["encoded_len"] == 2 * k + 1 + len(ub["p"]):
        problems.append("upper bound is not the witness's encoded length")
    return problems


CHECKS = {
    "bb": check_bb,
    "frequency": check_frequency,
    "corrected": check_corrected,
    "estimate": check_estimate,
}


def check_export(op, text: str, manifest: dict, reference: dict) -> list:
    """Every problem with one op's export and its manifest, or [] when it passes."""
    try:
        problems = CHECKS[op.kind](op, text)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        problems = [f"unreadable export ({type(e).__name__}: {e})"]
    digest = sha256(text)
    if manifest.get("runtime", {}).get("export_sha256") != digest:
        problems.append("sha256 differs from the one in the export's manifest")
    pinned = reference.get(op.key)
    if pinned is not None and pinned != digest:
        problems.append("sha256 differs from the pinned reference digest")
    return problems


def corrupt(text: str) -> str:
    """The export with its last decimal digit changed, for the checker's self-test."""
    k = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1 :]
