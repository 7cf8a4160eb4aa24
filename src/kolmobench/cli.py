"""Command-line driver: enumerate / estimate / ctm / bb / cache.

Every data export is a pure function of the run configuration: exports
embed a digest of the config, and a manifest written alongside records the
config plus runtime facts (version, timestamp, thread count, cache path).
Worker counts and cache warmth never change exported bytes; all sampling
randomness is seeded and recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import json
import os
import random
import sys
from dataclasses import asdict

from . import __version__
from .cache import CacheCorruptionError, VerdictCache, raw_to_record
from .ctm import (
    CORRECTED,
    FLAWED,
    corrected_table,
    flawed_crossing,
    flawed_table,
    output_frequency,
    table_to_csv,
    table_to_json,
)
from .enumeration import MachineRange, index_to_machine, index_to_table
from .estimator import (
    EnumerationLimitError,
    PRUNING_POLICIES,
    applicable_set,
    bound_from_pairs,
    cap_constant,
    phi_profile,
)
from .halting import (
    Simulator,
    analyze,
    analyze_table,
    bb_table,
    decide_layer,
    verify_certificate,
)
from .tm_core import str_to_syms

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CACHE_CORRUPT = 4
EXIT_VERIFY_FAILED = 5

ENV_PREFIX = "KOLMOBENCH_"
CLI_DEFAULT_CEILING = 1 << 26
ESTIMATE_DEFAULT_INTERVAL = "1:4096"


def _env_default(name: str, fallback, conv=str):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return conv(raw)
    except ValueError:
        raise SystemExit(f"bad {ENV_PREFIX + name}={raw!r}")


def _budget(text: str) -> int:
    """argparse type of ``--budget`` (and of KOLMOBENCH_BUDGET): an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_export(text: str, args, config: dict, stats=None) -> None:
    """Write the export and its manifest; sweep ``stats`` go to the manifest only."""
    manifest = {
        "config": config,
        "runtime": {
            "tool_version": __version__,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "threads": args.threads,
            "cache_path": args.cache_path,
            "export_sha256": hashlib.sha256(text.encode()).hexdigest(),
        },
    }
    if stats is not None:
        manifest["runtime"]["stats"] = asdict(stats)
    if args.output:
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _replace_files({args.output: text, args.output + ".manifest.json": manifest_text})
    else:
        sys.stdout.write(text)
        print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _replace_files(texts: dict) -> None:
    """Write each path's text to a temp file beside it, then move all into
    place, so a failed write leaves the previous files whole."""
    try:
        for path, text in texts.items():
            with open(path + ".tmp", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for path in texts:
            os.replace(path + ".tmp", path)
    finally:
        for path in texts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")


def _universe_from_args(args, parser, max_states=None) -> MachineRange:
    lo = hi = None
    if getattr(args, "universe_interval", None):
        try:
            a, _, b = args.universe_interval.partition(":")
            lo, hi = int(a), int(b)
        except ValueError:
            parser.error(f"bad --universe-interval {args.universe_interval!r}")
    try:
        return MachineRange(1, max_states or args.max_states, lo, hi)
    except ValueError as e:
        parser.error(str(e))


def _check_binary_arg(parser, x: str) -> str:
    if any(ch not in "01" for ch in x):
        parser.error(f"x must be a binary string, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args, parser) -> int:
    if args.n_states < 1:
        parser.error("n_states must be >= 1")
    from .enumeration import layer_offset, machine_count

    total = machine_count(args.n_states)
    limit = min(args.limit, total)
    start = layer_offset(args.n_states) + 1
    print(f"# {args.n_states}-state machines: indices {start}..{start + total - 1}")
    print("index\ttable" + ("\tverdict" if args.verdicts else ""))
    for k in range(start, start + limit):
        m = index_to_machine(k)
        line = f"{k}\t{m.to_text()}"
        if args.verdicts:
            v = analyze(m, "", args.budget)
            line += f"\t{type(v).__name__}"
        print(line)
    return EXIT_OK


def _doubling_schedule(limit: int):
    t = 1
    while t <= limit:
        yield t
        t *= 2


def cmd_estimate(args, parser) -> int:
    x = _check_binary_arg(parser, args.x)
    universe = _universe_from_args(args, parser)
    cap = args.cap if args.cap is not None else len(x) + cap_constant()
    config = {
        "cmd": "estimate",
        "x": x,
        "budget": args.budget,
        "universe": universe.describe(),
        "cap": cap,
        "max_prog_len": args.max_prog_len,
        "policy": args.policy,
        "ceiling": args.ceiling,
        "out": args.out,
        "seed": args.seed,
    }
    cache = VerdictCache(args.cache_path) if args.cache_path else None
    sim = Simulator(universe, cache=cache)
    schedule = list(_doubling_schedule(args.budget))
    profile = phi_profile(
        x, schedule, universe, cap=cap, ceiling=args.ceiling, sim=sim
    )
    pairs = applicable_set(
        x, universe, args.budget, args.max_prog_len, policy=args.policy,
        ceiling=args.ceiling, sim=sim, threads=args.threads,
    )
    bound, witness = bound_from_pairs(x, pairs)
    n_pairs = len(pairs)
    if cache is not None:
        cache.flush()
        cache.close()
    digest = _config_digest(config)
    if args.out == "json":
        doc = {
            "manifest_config": digest,
            "x": x,
            "cap": cap,
            "universe": universe.describe(),
            "profile": [
                {"t": r.t, "value": r.value, "witness": r.witness} for r in profile
            ],
            "upper_bound": {
                "bound": bound,
                "i": witness.i,
                "p": witness.p,
                "cost": witness.cost,
                "encoded_len": witness.encoded_len,
                "steps": witness.steps,
            },
            "applicable_count": n_pairs,
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        lines = [f"# manifest_config={digest}", "kind,x,t,value,cap,witness,i,p,steps"]
        for r in profile:
            lines.append(
                f"phi,{x},{r.t},{r.value},{r.cap},{r.witness or ''},,,"
            )
        lines.append(
            f"bound,{x},{args.budget},{bound},{cap},,{witness.i},{witness.p},{witness.steps}"
        )
        text = "\n".join(lines) + "\n"
    _write_export(text, args, config)
    print(
        f"phi stabilized at {profile[-1].value} (cap {cap}); "
        f"upper bound {bound} via (i={witness.i}, p={witness.p!r}); "
        f"{n_pairs} applicable pairs",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_ctm(args, parser) -> int:
    if args.scheme != CORRECTED and args.block_len is not None:
        parser.error("--L applies to the corrected scheme only")
    if args.scheme != FLAWED and args.n_ceiling is not None:
        parser.error("--N applies to the flawed scheme only")
    if args.scheme == FLAWED:
        n_max = args.n_ceiling
        if n_max is None or n_max < 1:
            parser.error("flawed scheme needs --N >= 1")
        config = {
            "cmd": "ctm",
            "scheme": FLAWED,
            "N": n_max,
            "budget": args.budget,
            "out": args.out,
            "seed": args.seed,
        }
        table = flawed_table(n_max, args.budget)
        crossing, total = flawed_crossing(n_max, args.budget)
        digest = _config_digest(config)
        text = (
            table_to_csv(table, digest)
            if args.out == "csv"
            else table_to_json(table, digest)
        )
        _write_export(text, args, config)
        print(f"total_mass={total} ({float(total):.6f})", file=sys.stderr)
        if crossing is not None:
            print(
                f"flawed mass exceeds 1 first at N={crossing} (exact comparison)",
                file=sys.stderr,
            )
        else:
            print(f"flawed mass stayed <= 1 up to N={n_max}", file=sys.stderr)
        return EXIT_OK

    # corrected / frequency
    universe = _universe_from_args(args, parser)
    if universe.count == 0:
        parser.error("empty universe")
    config = {
        "cmd": "ctm",
        "scheme": args.scheme,
        "universe": universe.describe(),
        "budget": args.budget,
        "out": args.out,
        "seed": args.seed,
    }
    if args.scheme == CORRECTED:
        block_len = args.block_len if args.block_len is not None else 0
        if block_len < 0:
            parser.error("--L must be >= 0")
        config["L"] = block_len
        cache = VerdictCache(args.cache_path) if args.cache_path else None
        sim = Simulator(universe, cache=cache) if cache is not None else None
        table = corrected_table(universe, block_len, args.budget, sim=sim, threads=args.threads)
        if cache is not None:
            cache.flush()
            cache.close()
    else:
        table = output_frequency(universe, args.budget)
    total = table.total_mass()
    digest = _config_digest(config)
    text = (
        table_to_csv(table, digest) if args.out == "csv" else table_to_json(table, digest)
    )
    _write_export(text, args, config, table.stats)
    print(f"total_mass={total} ({float(total):.6f}) <= 1", file=sys.stderr)
    return EXIT_OK


def cmd_bb(args, parser) -> int:
    if args.n_states < 1:
        parser.error("n must be >= 1")
    config = {
        "cmd": "bb",
        "n": args.n_states,
        "budget": args.budget,
        "verify": args.verify,
        "auto_budget": args.auto_budget,
        "interval": args.universe_interval,
        "out": args.out,
        "seed": args.seed,
    }
    if args.auto_budget:
        if args.universe_interval:
            parser.error("--auto-budget sweeps whole layers; drop --universe-interval")
        rec = decide_layer(args.n_states, start_budget=args.budget, verify=args.verify)
    else:
        rng = None
        if args.universe_interval:
            rng = _universe_from_args(args, parser, max(args.n_states, args.max_states))
        try:
            rec = bb_table(args.n_states, args.budget, machine_range=rng, verify=args.verify)
        except ValueError as e:
            parser.error(str(e))
    digest = _config_digest(config)
    if args.out == "json":
        doc = {
            "manifest_config": digest,
            "n_states": rec.n_states,
            "max_steps": rec.max_steps,
            "decided_all": rec.decided_all,
            "undecided_count": rec.undecided_count,
            "budget_used": rec.budget_used,
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = (
            f"# manifest_config={digest}\n"
            "n_states,max_steps,decided_all,undecided_count,budget_used\n"
            f"{rec.n_states},{rec.max_steps},{rec.decided_all},"
            f"{rec.undecided_count},{rec.budget_used}\n"
        )
    _write_export(text, args, config, rec.stats)
    print(
        f"n={rec.n_states}: max_steps={rec.max_steps} decided_all={rec.decided_all} "
        f"undecided={rec.undecided_count} budget={rec.budget_used}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_cache(args, parser) -> int:
    if not args.cache_path:
        parser.error("cache commands need --cache-path")
    cache = VerdictCache(args.cache_path)
    if args.action == "inspect":
        print(f"path: {args.cache_path}")
        print(f"records: {len(cache)}")
        for status, count in sorted(cache.status_counts().items()):
            print(f"  {status}: {count}")
        return EXIT_OK
    if args.action == "compact":
        kept = cache.compact()
        print(f"compacted to {kept} records")
        return EXIT_OK
    # verify: replay a seeded sample against fresh simulation
    keys = sorted(cache.records)
    if not keys:
        print("cache empty; nothing to verify")
        return EXIT_OK
    rng = random.Random(args.seed)
    sample = keys if len(keys) <= args.sample else rng.sample(keys, args.sample)
    mismatches = 0
    for i, p, budget in sorted(sample):
        fresh = analyze_table(index_to_table(i)[1], str_to_syms(p), budget)
        if raw_to_record(i, p, budget, fresh) != cache.records[(i, p, budget)]:
            mismatches += 1
            print(f"MISMATCH at (i={i}, p={p!r}, budget={budget})", file=sys.stderr)
            continue
        if fresh[0] == "d":
            from .halting import ProvedDiverges, _to_certificate

            ok = verify_certificate(
                index_to_machine(i),
                p,
                ProvedDiverges(certificate=_to_certificate(fresh[1]), found_at=fresh[2]),
            )
            if not ok:
                mismatches += 1
                print(
                    f"CERTIFICATE FAILED at (i={i}, p={p!r}, budget={budget})",
                    file=sys.stderr,
                )
    print(f"verified {len(sample)} of {len(keys)} records; mismatches: {mismatches}")
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget",
        type=_budget,
        default=_env_default("BUDGET", "256"),
        help="simulation step budget (env KOLMOBENCH_BUDGET)",
    )
    common.add_argument(
        "--max-states",
        type=int,
        default=_env_default("MAX_STATES", 2, int),
        help="largest machine size in the universe (env KOLMOBENCH_MAX_STATES)",
    )
    common.add_argument(
        "--out",
        choices=("csv", "json"),
        default=_env_default("OUT", "csv"),
        help="export format (env KOLMOBENCH_OUT)",
    )
    common.add_argument(
        "--output",
        default=_env_default("OUTPUT", None),
        help="export file path (default: stdout)",
    )
    common.add_argument(
        "--cache-path",
        default=_env_default("CACHE_PATH", None),
        help="verdict cache file (env KOLMOBENCH_CACHE_PATH)",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=_env_default("THREADS", 1, int),
        help="worker processes for sweeps; never changes results "
        "(env KOLMOBENCH_THREADS)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=_env_default("SEED", 0, int),
        help="seed for all sampling (env KOLMOBENCH_SEED)",
    )
    parser = argparse.ArgumentParser(
        prog="kolmobench",
        description="desk-scale workbench for complexity upper bounds from small machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="list machines of one state count")
    p.add_argument("n_states", type=int)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--verdicts", action="store_true", help="add empty-input verdicts")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("estimate", parents=[common], help="anytime upper bounds for one string")
    p.add_argument("x", help="binary target string")
    p.add_argument("--cap", type=int, default=None, help="program-length cap")
    p.add_argument("--max-prog-len", type=int, default=4)
    p.add_argument("--ceiling", type=int, default=CLI_DEFAULT_CEILING,
                   help="program-enumeration refusal threshold")
    p.add_argument("--policy", choices=sorted(PRUNING_POLICIES), default="discard-dominated")
    p.add_argument("--universe-interval", default=ESTIMATE_DEFAULT_INTERVAL,
                   help="explicit index range lo:hi (default keeps sweeps small)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("ctm", parents=[common], help="output-frequency and mixture tables")
    p.add_argument("--scheme", choices=(FLAWED, CORRECTED, "frequency"), required=True)
    p.add_argument("--N", dest="n_ceiling", type=int, default=None,
                   help="index ceiling for the flawed scheme")
    p.add_argument("--L", dest="block_len", type=int, default=None,
                   help="program block length for the corrected scheme")
    p.add_argument("--universe-interval", default=None, help="explicit index range lo:hi")
    p.set_defaults(func=cmd_ctm)

    p = sub.add_parser("bb", parents=[common], help="busy-beaver step table for one layer")
    p.add_argument("n_states", type=int)
    p.add_argument("--verify", action="store_true",
                   help="re-check every divergence certificate by replay")
    p.add_argument("--auto-budget", action="store_true",
                   help="double the budget until nothing stays undecided")
    p.add_argument("--universe-interval", default=None,
                   help="sweep only this index range; unswept machines count as undecided")
    p.set_defaults(func=cmd_bb)

    p = sub.add_parser("cache", parents=[common], help="inspect, verify, or compact the verdict cache")
    p.add_argument("action", choices=("inspect", "verify", "compact"))
    p.add_argument("--sample", type=int, default=64)
    p.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except EnumerationLimitError as e:
        print(f"resource refusal: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except CacheCorruptionError as e:
        print(f"cache corruption: {e}", file=sys.stderr)
        return EXIT_CACHE_CORRUPT


if __name__ == "__main__":
    sys.exit(main())
