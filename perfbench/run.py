"""Seeded end-to-end benchmark of the kolmobench CLI (see perfbench/README.md).

    python3 perfbench/run.py --workload layer-sweep --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository. Each op is one CLI
command in a fresh process started through `perfbench/op.py`; ops run in a
closed loop, one at a time, each with `--threads 1`. The seed generates the
argv of every op, and the program sees only that argv. Every export is checked
by `checks.py`. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MODULES = ("enumeration", "tm_core", "halting", "estimator", "ctm", "cache", "cli")

LAYER2 = (1001, 11_391_625)  # indices of the 2-state layer
SLICE = 250_000
WINDOW = 4000
BLOCK_LEN = 6
ESTIMATE_INTERVAL = (1, 2000)  # x 31 programs of length 0..4: under CACHEABLE_SWEEP_LIMIT
ESTIMATE_PAIRS = (ESTIMATE_INTERVAL[1] - ESTIMATE_INTERVAL[0] + 1) * 31
# Roughly the seconds one unit of each workload took at the commit that added
# this benchmark, on a 2-core x86-64 box; the mixture value is set lower so that
# a run sums more windows, whose costs differ widely. A run does
# round(--seconds / unit) units, so its work depends on its arguments only,
# never on how fast the code is.
UNIT_SECONDS = {"layer-sweep": 6.2, "mixture": 4.0, "estimate-cache": 2.9}
DEADLINE_S = 170  # a run must end within 180 s; ops still pending then fail


@dataclass(frozen=True)
class Op:
    """One CLI command and what its export must satisfy."""

    kind: str
    argv: tuple
    pairs: int  # (machine, input) pairs the op covers
    lo: int
    hi: int
    budget: int
    out: str = "csv"
    block_len: int | None = None
    x: str | None = None
    phase: str = ""  # "cold" or "warm" for estimate ops

    @property
    def key(self) -> str:
        """The argv without the output and cache paths; pins the export digest."""
        return " ".join(self.argv)


def stratified(rng: random.Random, count: int, units: int) -> list[int]:
    """One seeded pick from each of `units` equal strata of range(count).

    The cost of a slice or window depends on where it lies in the layer, and
    the cost of an estimate on the length of x; spreading every run's picks
    over the whole range keeps runs with different seeds comparable.
    """
    width = count // units
    return [k * width + rng.randrange(width) for k in range(units)]


def layer_starts(rng: random.Random, units: int, length: int) -> list[int]:
    """Seeded starts of `units` index intervals of `length` inside the 2-state layer."""
    lo, hi = LAYER2
    return [lo + k for k in stratified(rng, hi - lo + 2 - length, units)]


def layer_sweep(rng: random.Random, units: int) -> list[Op]:
    """Per seeded 250k slice of the 2-state layer: `bb --verify`, then `ctm frequency`."""
    ops = []
    for lo in layer_starts(rng, units, SLICE):
        hi = lo + SLICE - 1
        iv = f"{lo}:{hi}"
        common = ("--universe-interval", iv, "--budget", "256", "--threads", "1")
        ops.append(Op("bb", ("bb", "2", *common, "--verify"), SLICE, lo, hi, 256))
        ops.append(
            Op("frequency", ("ctm", "--scheme", "frequency", *common), SLICE, lo, hi, 256)
        )
    return ops


def mixture(rng: random.Random, units: int) -> list[Op]:
    """Corrected L=6 mixture over seeded 4000-index windows, alternating csv/json."""
    ops = []
    for n, lo in enumerate(layer_starts(rng, units, WINDOW)):
        hi = lo + WINDOW - 1
        out = ("csv", "json")[n % 2]
        argv = (
            "ctm", "--scheme", "corrected", "--L", str(BLOCK_LEN), "--budget", "1024",
            "--universe-interval", f"{lo}:{hi}", "--out", out, "--threads", "1",
        )
        ops.append(
            Op("corrected", argv, WINDOW << BLOCK_LEN, lo, hi, 1024, out, BLOCK_LEN)
        )
    return ops


def estimate_cache(rng: random.Random, units: int) -> list[Op]:
    """Per seeded string of length 1-4: `estimate` on a fresh cache, then again warm."""
    strings = [format(v, f"0{n}b") for n in range(1, 5) for v in range(1 << n)]
    lo, hi = ESTIMATE_INTERVAL
    ops = []
    for k in stratified(rng, len(strings), min(units, len(strings))):
        x = strings[k]
        argv = (
            "estimate", x, "--budget", "1024", "--universe-interval", f"{lo}:{hi}",
            "--out", "json", "--threads", "1",
        )
        for phase in ("cold", "warm"):
            ops.append(Op("estimate", argv, ESTIMATE_PAIRS, lo, hi, 1024, "json", x=x, phase=phase))
    return ops


WORKLOADS = {"layer-sweep": layer_sweep, "mixture": mixture, "estimate-cache": estimate_cache}


@dataclass
class Result:
    op: Op
    name: str
    seconds: float
    setup_s: float
    rss_mb: float
    export: Path
    sha256: str
    problems: list


class Runner:
    """Starts ops one at a time, times them and checks their exports."""

    def __init__(self, reference: dict, deadline: float):
        self.reference = reference
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("KOLMOBENCH_")}
        self.count = 0
        self.cold_exports = {}  # x -> export of its cold estimate op

    def run(self, op: Op, trace: bool = False) -> Result:
        self.count += 1
        name = f"op{self.count:03d}"
        export = WORK / f"{name}.{op.out}"
        timing = WORK / f"{name}.t"
        trace_file = WORK / f"{name}.trace" if trace else None
        argv = [*op.argv, "--output", str(export)]
        if op.kind == "estimate":
            cache = WORK / f"cache-{op.x}.jsonl"
            if op.phase == "cold":
                cache.unlink(missing_ok=True)
            argv += ["--cache-path", str(cache)]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return Result(op, name, 0.0, 0.0, 0.0, export, "-", ["not started: run deadline passed"])
        cmd = [sys.executable, str(HERE / "op.py"), str(timing),
               str(trace_file or "-"), "--", *argv]
        with open(WORK / f"{name}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                env=self.env, cwd=ROOT,
            )
            # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
            # which would show in the op times. A timer kills an op that overruns.
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                code = proc.wait()
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - start
        stamp = json.loads(timing.read_text()) if timing.exists() else None
        setup = stamp["entered"] - start if stamp else 0.0
        rss_mb = stamp["peak_rss_kb"] / 1024 if stamp else 0.0
        sha256 = checks.sha256(export.read_text()) if export.exists() else "-"
        if code != 0:
            tail = (WORK / f"{name}.log").read_text(errors="replace").strip().splitlines()
            problems = [f"exit code {code}: {tail[-1] if tail else ''}"]
        elif not export.exists():
            problems = ["no export written"]
        else:
            problems = checks.check_export(
                op, export.read_text(), manifest_of(export), self.reference
            )
            if op.phase == "cold":
                self.cold_exports[op.x] = export
            elif op.phase == "warm":
                cold = self.cold_exports.get(op.x)
                if cold is None or export.read_bytes() != cold.read_bytes():
                    problems.append("warm export differs from the cold export")
        return Result(op, name, seconds, setup, rss_mb, export, sha256, problems)


def manifest_of(export: Path) -> dict:
    sidecar = export.with_name(export.name + ".manifest.json")
    return json.loads(sidecar.read_text()) if sidecar.exists() else {}


def src_lines() -> tuple[dict, int]:
    counts = {m: len((SRC / "kolmobench" / f"{m}.py").read_text().splitlines()) for m in MODULES}
    total = sum(len(p.read_text().splitlines()) for p in (SRC / "kolmobench").glob("*.py"))
    return counts, total


def git_commit() -> str:
    """HEAD's commit read from .git without starting git, or 'none' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def report(results: list[Result]) -> None:
    for r in results:
        status = "ok" if not r.problems else "FAIL " + "; ".join(r.problems)
        print(
            f"{r.name} {r.op.kind}{'-' + r.op.phase if r.op.phase else ''} "
            f"{r.seconds:.3f}s setup={r.setup_s:.4f}s rss={r.rss_mb:.1f}MB {status} "
            f"sha256={r.sha256} argv={r.op.key}"
        )


def phase_seconds(results: list[Result], phase: str) -> float:
    return sum((r.seconds for r in results if r.op.phase == phase), 0.0)


def end_to_end(results: list[Result]) -> dict:
    wall = sum(r.seconds for r in results)
    return {
        "wall_s": (wall, "s"),
        "pairs_per_s": (sum(r.op.pairs for r in results) / wall, "1/s"),
        "setup_s": (statistics.median(r.setup_s for r in results), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
    }


def per_layer(untraced, traced, pool, summaries, cache_bytes) -> dict:
    spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.TRACED}
    counts, memo_misses = {}, 0
    for s in summaries:
        for name, st in s["spans"].items():
            for field in st:
                spans[name][field] += st[field]
        for key, v in s["counts"].items():
            counts[key] = counts.get(key, 0) + v
        memo_misses += s["memo_misses"]

    def calls(name):
        return (spans[name]["calls"], "count")

    def self_s(name):
        return (spans[name]["self_s"], "s")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    analyses = spans["halting.analyze_table"]["calls"]
    steps = counts.get("halting.analyze_table.steps", 0)
    raw_verdicts = spans["halting.Simulator.raw_verdict"]["calls"]
    lookups = spans["cache.VerdictCache.lookup"]["calls"]
    m = {
        "enumeration.index_to_table.calls": calls("enumeration.index_to_table"),
        "enumeration.index_to_table.self_s": self_s("enumeration.index_to_table"),
        "halting.analyze_table.calls": calls("halting.analyze_table"),
        "halting.analyze_table.self_s": self_s("halting.analyze_table"),
        "halting.analyze_table.steps": (steps, "count"),
        "halting.analyze_table.ns_per_step": (
            spans["halting.analyze_table"]["self_s"] * 1e9 / steps if steps else 0.0, "ns"),
        "halting.verify_certificate.calls": calls("halting.verify_certificate"),
        "halting.verify_certificate.self_s": self_s("halting.verify_certificate"),
    }
    for v in tracer.VERDICTS:
        m[f"halting.verdicts.{v}"] = (counts.get(f"halting.verdicts.{v}", 0), "count")
    m["halting.decided_ratio"] = ratio(analyses - counts.get("halting.verdicts.unknown", 0), analyses)
    m["halting.Simulator.raw_verdict.calls"] = calls("halting.Simulator.raw_verdict")
    m["halting.memo_hit_ratio"] = (1 - memo_misses / raw_verdicts if raw_verdicts else 0.0, "ratio")
    m["tm_core.str_to_syms.calls"] = calls("tm_core.str_to_syms")
    m["tm_core.str_to_syms.self_s"] = self_s("tm_core.str_to_syms")
    m["tm_core.decode_program.calls"] = calls("tm_core.decode_program")
    m["estimator.phi_profile.self_s"] = self_s("estimator.phi_profile")
    m["estimator.applicable_set.self_s"] = self_s("estimator.applicable_set")
    m["ctm.default_alpha.calls"] = calls("ctm.default_alpha")
    m["ctm.table_to_csv.self_s"] = self_s("ctm.table_to_csv")
    m["ctm.table_to_json.self_s"] = self_s("ctm.table_to_json")
    m["ctm.DistributionTable.total_mass.self_s"] = self_s("ctm.DistributionTable.total_mass")
    m["cli.cmd_ctm.self_s"] = self_s("cli.cmd_ctm")
    m["cli.cmd_bb.self_s"] = self_s("cli.cmd_bb")
    m["cli.cmd_estimate.self_s"] = self_s("cli.cmd_estimate")
    m["cli.export_bytes"] = (
        sum(r.export.stat().st_size for r in traced if r.export.exists()), "bytes")
    m["cache.VerdictCache.load_s"] = (spans["cache.VerdictCache.__init__"]["total_s"], "s")
    m["cache.lookup.calls"] = calls("cache.VerdictCache.lookup")
    m["cache.hit_ratio"] = ratio(counts.get("cache.lookup.hits", 0), lookups)
    m["cache.record.calls"] = calls("cache.VerdictCache.record")
    m["cache.record.self_s"] = self_s("cache.VerdictCache.record")
    m["cache.file_bytes"] = (cache_bytes, "bytes")
    m["cli.pool_speedup"] = ratio(pool[0].seconds, pool[1].seconds)
    lines, total = src_lines()
    for module, n in lines.items():
        m[f"{module}.src_lines"] = (n, "lines")
    m["src.lines_total"] = (total, "lines")
    m["trace.overhead_ratio"] = ratio(
        sum(r.seconds for r in traced), sum(r.seconds for r in untraced))
    m["cold_s"] = (phase_seconds(untraced, "cold"), "s")
    m["warm_s"] = (phase_seconds(untraced, "warm"), "s")
    everything = untraced + traced + pool
    m["fail_ratio"] = ratio(sum(bool(r.problems) for r in everything), len(everything))
    return m


def checker_catches_corruption(results: list[Result], reference: dict) -> bool:
    """Self-test: the checker must reject an export with one digit changed."""
    r = next((r for r in results if not r.problems), None)
    if r is None:
        return True
    bad = checks.corrupt(r.export.read_text())
    return bool(checks.check_export(r.op, bad, manifest_of(r.export), reference))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kolmobench" / "cli.py").is_file():
        print(f"no kolmobench sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    units = max(1, round(args.seconds / UNIT_SECONDS[args.workload]))
    ops = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), units)
    reference = checks.load_reference()
    runner = Runner(reference, started + DEADLINE_S)
    lines, total = src_lines()
    print(
        f"env python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))} "
        f"loadavg_start={os.getloadavg()[0]:.2f} commit={git_commit()}"
    )
    print("src_lines " + " ".join(f"{m}={n}" for m, n in lines.items()) + f" total={total}")
    print(f"workload={args.workload} seed={args.seed} units={units} ops={len(ops)}")

    untraced = [runner.run(op) for op in ops]
    results = list(untraced)
    correct = checker_catches_corruption(untraced, reference)
    if args.trace:
        traced, summaries, cache_bytes = [], [], 0
        for op in ops:
            r = runner.run(op, trace=True)
            traced.append(r)
            cache = WORK / f"cache-{op.x}.jsonl"
            if op.phase == "cold" and cache.exists():
                cache_bytes += cache.stat().st_size  # the records the cold op wrote
            trace_file = WORK / f"{r.name}.trace"
            if trace_file.exists():
                summaries.append(tracer.summarize(trace_file))
            else:
                r.problems.append("no trace written")
        window = mixture(random.Random(f"mixture:{args.seed}"), 1)[0]
        pool = [
            runner.run(replace(window, argv=window.argv[:-1] + (str(threads),)))
            for threads in (1, 2)
        ]
        if pool[0].export.exists() and pool[1].export.exists():
            if pool[0].export.read_bytes() != pool[1].export.read_bytes():
                pool[1].problems.append("export differs between --threads 1 and 2")
        results += traced + pool
        metrics = per_layer(untraced, traced, pool, summaries, cache_bytes)
    else:
        metrics = end_to_end(untraced)
    report(results)
    failed = sum(bool(r.problems) for r in results)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"env loadavg_end={os.getloadavg()[0]:.2f}")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
