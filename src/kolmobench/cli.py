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
import json
import os
import sys
import time

from . import __version__
from .cache import CacheCorruptionError, VerdictCache
from .ctm import (
    CORRECTED,
    FLAWED,
    _exact_int_text,
    corrected_table,
    export_text,
    flawed_table,
    output_frequency,
    table_to_csv,
    table_to_json,
)
from .enumeration import (
    MAX_PROGRAM_BITS,
    MAX_STATES_SUPPORTED,
    MachineRange,
    index_to_machine,
    layer_offset,
    machine_count,
)
from .estimator import (
    EnumerationLimitError,
    PRUNING_POLICIES,
    applicable_set,
    bound_from_pairs,
    cap_constant,
    check_phi_scan,
    phi_profile,
)
from .halting import SweepStats, analyze_table, bb_table, doubling_schedule
from .tm_core import run

# CPython's builtin SHA-256, as the random module takes its sha512: hashlib
# would load OpenSSL's libcrypto, about 3.4 MB of every process's peak RSS.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # up to 3.11
    except ImportError:  # a build without either, such as a FIPS build
        from hashlib import sha256

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CACHE_CORRUPT = 4
EXIT_VERIFY_FAILED = 5

CLI_DEFAULT_CEILING = 1 << 26
MAX_THREADS = 64  # a fixed figure, not the host's core count: the manifest records threads
AUTO_BUDGET_CEILING = 1 << 16  # the last budget of the bb --auto-budget schedule
ESTIMATE_DEFAULT_INTERVAL = "1:4096"


def _int_between(low: int, high: int | None = None):
    """An argparse type for integers in [low, high] (no upper bound when
    ``high`` is None); a bad value exits 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_positive_int = _int_between(1)  # --budget, --ceiling, --N
_non_negative_int = _int_between(0)  # --limit, --cap, --sample
_state_count = _int_between(1, MAX_STATES_SUPPORTED)  # n_states, --max-states
_program_bits = _int_between(0, MAX_PROGRAM_BITS)  # --max-prog-len, --L

# The flags several subcommands share.  Each subcommand takes only those it
# reads, so argparse refuses the rest with exit 2.
SHARED_FLAGS = {
    "--budget": dict(type=_positive_int, default=256, help="simulation step budget"),
    "--max-states": dict(type=_state_count, default=2,
                         help="largest machine size in the universe"),
    "--out": dict(choices=("csv", "json"), default="csv", help="export format"),
    "--output": dict(default=None, help="export file path; stdout when unset"),
    "--cache-path": dict(default=None, help="verdict cache file"),
    "--threads": dict(type=_int_between(1, MAX_THREADS), default=1,
                      help="worker processes for sweeps; never changes results"),
    "--seed": dict(type=int, default=0,
                   help="recorded in the export config; seeds only cache verify's sample"),
}


def _add_shared(parser, *names) -> None:
    for name in names:
        parser.add_argument(name, **SHARED_FLAGS[name])


def _config(args, **fields) -> dict:
    """The run config an export is a pure function of: the fields every
    exporting command records, then its own."""
    common = {"cmd": args.command, "budget": args.budget, "out": args.out, "seed": args.seed}
    return {**common, **fields}


def _config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return sha256(blob).hexdigest()[:16]


def _write_export(text: str, args, config: dict, stats=None) -> None:
    """Write the export and its manifest; sweep ``stats`` go to the manifest only."""
    now = time.time_ns()  # "created" has datetime's UTC isoformat() shape, with microseconds
    manifest = {
        "config": config,
        "runtime": {
            "tool_version": __version__,
            "created": time.strftime(f"%Y-%m-%dT%H:%M:%S.{now // 1000 % 10**6:06d}+00:00",
                                     time.gmtime(now // 10**9)),
            "threads": args.threads,
            "cache_path": vars(args).get("cache_path"),
            "export_sha256": sha256(text.encode()).hexdigest(),
        },
    }
    if stats is not None:
        manifest["runtime"]["stats"] = vars(stats)
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


def _universe_from_args(args, parser, max_states: int) -> MachineRange:
    lo = hi = None
    if args.universe_interval:
        try:
            a, _, b = args.universe_interval.partition(":")
            lo, hi = int(a), int(b)
        except ValueError:
            parser.error(f"bad --universe-interval {args.universe_interval!r}")
    try:
        universe = MachineRange(1, max_states, lo, hi)
    except ValueError as e:
        parser.error(str(e))
    if universe.count == 0:
        parser.error("empty universe")
    return universe


def _check_binary_arg(parser, x: str) -> str:
    if any(ch not in "01" for ch in x):
        parser.error(f"x must be a binary string, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args, parser) -> int:
    total = machine_count(args.n_states)
    limit = min(args.limit, total)
    start = layer_offset(args.n_states) + 1
    print(f"# {args.n_states}-state machines: indices {start}..{start + total - 1}")
    print("index\ttable" + ("\tverdict" if args.verdicts else ""))
    for k in range(start, start + limit):
        m = index_to_machine(k)
        line = f"{k}\t{m.to_text()}"
        if args.verdicts:
            res = analyze_table(m.table, (), args.budget)
            line += "\t" + {"h": "ProvedHalts", "d": "ProvedDiverges", "u": "Unknown"}[res[0]]
        print(line)
    return EXIT_OK


def cmd_estimate(args, parser) -> int:
    x = _check_binary_arg(parser, args.x)
    universe = _universe_from_args(args, parser, args.max_states)
    cap = args.cap if args.cap is not None else len(x) + cap_constant()
    config = _config(args, x=x, universe=universe.describe(), cap=cap,
                     max_prog_len=args.max_prog_len, policy=args.policy, ceiling=args.ceiling)
    check_phi_scan(x, universe, cap, args.ceiling)  # both refusals come before either sweep
    cache = VerdictCache(args.cache_path) if args.cache_path else None
    stats = SweepStats()
    try:  # a refusal or error still closes the cache, with its records written
        # The applicable set refuses before it sweeps, so its refusal costs no phi scan.
        classes = applicable_set([x], universe, args.budget, args.max_prog_len, policy=args.policy,
                                 ceiling=args.ceiling, threads=args.threads, stats=stats)[x]
        profile = phi_profile([x], doubling_schedule(1, args.budget), universe, cap=cap,
                              ceiling=args.ceiling, cache=cache)[x]
    finally:
        if cache is not None:
            cache.close()
    applicable_count = sum(count for count, _ in classes)
    bound, witness = bound_from_pairs(x, [pr for _, pr in classes])
    if args.out == "json":
        body = {
            "x": x,
            "cap": cap,
            "universe": universe.describe(),
            "profile": [
                {"t": r.t, "value": r.value, "witness": r.witness} for r in profile
            ],
            "upper_bound": {"bound": bound, **witness._asdict()},
            "applicable_count": applicable_count,
        }
    else:
        body = ["kind,x,t,value,cap,witness,i,p,steps"]
        for r in profile:
            body.append(f"phi,{x},{r.t},{r.value},{r.cap},{r.witness or ''},,,")
        body.append(
            f"bound,{x},{args.budget},{bound},{cap},,{witness.i},{witness.p},{witness.steps}"
        )
    text = export_text(body, _config_digest(config))
    _write_export(text, args, config, stats)
    print(
        f"phi stabilized at {profile[-1].value} (cap {cap}); "
        f"upper bound {bound} via (i={witness.i}, p={witness.p!r}); "
        f"{applicable_count} applicable pairs",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_ctm(args, parser) -> int:
    flawed = args.scheme == FLAWED
    if args.scheme != CORRECTED and args.block_len is not None:
        parser.error("--L applies to the corrected scheme only")
    if not flawed and args.n_ceiling is not None:
        parser.error("--N applies to the flawed scheme only")
    for flag in ("--universe-interval", "--max-states", "--threads"):
        if flawed and vars(args)[flag[2:].replace("-", "_")] is not None:
            parser.error(f"{flag} applies to the corrected and frequency schemes only")
    if flawed and args.n_ceiling is None:
        parser.error("flawed scheme needs --N >= 1")
    config = _config(args, scheme=args.scheme)
    if flawed:
        args.threads = 1  # the manifest's; the flawed sum runs in this process
        config["N"] = args.n_ceiling
        table = flawed_table(args.n_ceiling, args.budget)
    else:
        # Left None at parse time, so that the flawed scheme can refuse them.
        args.max_states = args.max_states or SHARED_FLAGS["--max-states"]["default"]
        args.threads = args.threads or SHARED_FLAGS["--threads"]["default"]
        universe = _universe_from_args(args, parser, args.max_states)
        config["universe"] = universe.describe()
        if args.scheme == CORRECTED:
            config["L"] = args.block_len or 0
            table = corrected_table(universe, config["L"], args.budget, threads=args.threads)
        else:
            table = output_frequency(universe, args.budget)
    digest = _config_digest(config)
    text = table_to_csv(table, digest) if args.out == "csv" else table_to_json(table, digest)
    _write_export(text, args, config, table.stats)
    total, note = table.total_mass(), " <= 1"
    if flawed:
        crossing, mass = table.crossing or (None, total)
        note = (
            f"\nflawed mass exceeds 1 first at N={crossing} (mass {mass}, exact comparison)"
            if crossing is not None
            else f"\nflawed mass stayed <= 1 up to N={args.n_ceiling}"
        )
    with _exact_int_text():  # a flawed total passes 4300 digits near N = 14,341
        print(f"total_mass={total} ({float(total):.6f}){note}", file=sys.stderr)
    return EXIT_OK


def cmd_bb(args, parser) -> int:
    schedule, rng, interval = [args.budget], None, None
    if args.auto_budget:
        if args.universe_interval:
            parser.error("--auto-budget sweeps whole layers; drop --universe-interval")
        schedule = doubling_schedule(args.budget, AUTO_BUDGET_CEILING)
    elif args.universe_interval:
        rng = _universe_from_args(args, parser, args.n_states)
        interval = f"{rng.index_lo}:{rng.index_hi}"  # parsed, so 01:050 records as 1:50
    config = _config(args, n=args.n_states, verify=args.verify, auto_budget=args.auto_budget,
                     interval=interval)
    try:
        rec = bb_table(args.n_states, schedule, machine_range=rng, verify=args.verify)
    except ValueError as e:
        parser.error(str(e))
    fields = rec._asdict()
    rows = [",".join(fields), ",".join(map(str, fields.values()))]
    body = fields if args.out == "json" else rows
    _write_export(export_text(body, _config_digest(config)), args, config, rec.stats)
    print(
        f"n={rec.n_states}: max_steps={rec.max_steps} decided_all={rec.decided_all} "
        f"undecided={rec.undecided_count} budget={rec.budget_used}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_cache(args, parser) -> int:
    if not args.cache_path:
        parser.error("cache commands need --cache-path")
    if not os.path.isfile(args.cache_path):  # a mistyped path must not pass as an empty cache
        parser.error(f"no cache file at {args.cache_path}")
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
    # verify: re-derive a seeded sample with tm_core.run, not with the detector
    keys = sorted(cache.records)
    if not keys:
        print("cache empty; nothing to verify")
        return EXIT_OK
    import random  # here, not at the top: a test checks that importing the CLI loads no random
    rng = random.Random(args.seed)
    sample = keys if len(keys) <= args.sample else rng.sample(keys, args.sample)
    steps = sum(budget for _, _, budget in sample)
    if steps > CLI_DEFAULT_CEILING:
        raise EnumerationLimitError(
            f"replaying {len(sample)} sampled records may take {steps} steps, past "
            f"{CLI_DEFAULT_CEILING}; pass a smaller --sample"
        )
    mismatches = 0
    for i, p, budget in sorted(sample):
        if run(index_to_machine(i), p, budget) != cache.records[(i, p, budget)]:
            mismatches += 1
            print(f"MISMATCH at (i={i}, p={p!r}, budget={budget})", file=sys.stderr)
    print(f"verified {len(sample)} of {len(keys)} records; mismatches: {mismatches}")
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolmobench",
        description="desk-scale workbench for complexity upper bounds from small machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list machines of one state count")
    _add_shared(p, "--budget")
    p.add_argument("n_states", type=_state_count)
    p.add_argument("--limit", type=_non_negative_int, default=20)
    p.add_argument("--verdicts", action="store_true", help="add empty-input verdicts")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("estimate", help="anytime upper bounds for one string")
    _add_shared(p, *SHARED_FLAGS)
    p.add_argument("x", help="binary target string")
    p.add_argument("--cap", type=_non_negative_int, default=None, help="program-length cap")
    p.add_argument("--max-prog-len", type=_program_bits, default=4)
    p.add_argument("--ceiling", type=_positive_int, default=CLI_DEFAULT_CEILING,
                   help="program-enumeration refusal threshold")
    p.add_argument("--policy", choices=sorted(PRUNING_POLICIES), default="discard-dominated")
    p.add_argument("--universe-interval", default=ESTIMATE_DEFAULT_INTERVAL,
                   help="explicit index range lo:hi (default keeps sweeps small)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("ctm", help="output-frequency and mixture tables")
    _add_shared(p, "--budget", "--max-states", "--out", "--output", "--threads", "--seed")
    p.add_argument("--scheme", choices=(FLAWED, CORRECTED, "frequency"), required=True)
    p.add_argument("--N", dest="n_ceiling", type=_positive_int, default=None,
                   help="index ceiling for the flawed scheme")
    p.add_argument("--L", dest="block_len", type=_program_bits, default=None,
                   help="program block length for the corrected scheme")
    p.add_argument("--universe-interval", default=None,
                   help="explicit index range lo:hi (corrected and frequency schemes)")
    p.set_defaults(func=cmd_ctm, max_states=None, threads=None)  # cmd_ctm fills them

    p = sub.add_parser("bb", help="busy-beaver step table for one layer")
    _add_shared(p, "--budget", "--out", "--output", "--threads", "--seed")
    p.add_argument("n_states", type=_state_count)
    p.add_argument("--verify", action="store_true",
                   help="re-check every divergence certificate by replay")
    p.add_argument("--auto-budget", action="store_true",
                   help="report the first of --budget, 2x, 4x, ... 2^16 that decides all")
    p.add_argument("--universe-interval", default=None,
                   help="sweep only this index range; unswept machines count as undecided")
    p.set_defaults(func=cmd_bb)

    p = sub.add_parser("cache", help="inspect, verify, or compact the verdict cache")
    _add_shared(p, "--cache-path", "--seed")
    p.add_argument("action", choices=("inspect", "verify", "compact"))
    p.add_argument("--sample", type=_non_negative_int, default=64)
    p.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Checked before the sweep, not after: neither the path nor a file that the
    # export (_replace_files) or cache compact writes beside it is a directory.
    for flag, suffixes in (("--output", ("", ".tmp", ".manifest.json", ".manifest.json.tmp")),
                           ("--cache-path", ("", ".tmp"))):
        path = vars(args).get(flag[2:].replace("-", "_"))
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            parser.error(f"no directory for {flag} {path}")
        for side in [path + suffix for suffix in suffixes] if path else []:
            if os.path.isdir(side):
                parser.error(f"{flag} {side} is a directory" if side == path else
                             f"{flag} {path} writes {side}, which is a directory")
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
