import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmobench import cli
from kolmobench.cache import VerdictCache
from kolmobench.cli import (
    EXIT_BAD_INPUT,
    EXIT_CACHE_CORRUPT,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAILED,
    MAX_THREADS,
    main,
)
from kolmobench.enumeration import MAX_PROGRAM_BITS


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse errors
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid_sweeps(monkeypatch):
    """Make every sweep, and so every pool, fail the test."""
    import kolmobench.ctm
    import kolmobench.estimator
    import kolmobench.halting

    def must_not_run(*args, **kwargs):
        raise AssertionError("a sweep ran before the refusal")

    for module in (kolmobench.halting, kolmobench.ctm, kolmobench.estimator):
        monkeypatch.setattr(module, "sweep", must_not_run)


def test_enumerate_lists_first_machine(capsys):
    code, out, _ = run_cli(["enumerate", "1", "--limit", "3"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1].startswith("index")
    assert lines[2].startswith("1\t")
    assert "wBH" in lines[2]


def test_enumerate_limit_zero_prints_header_only(capsys):
    code, out, _ = run_cli(["enumerate", "1", "--limit", "0"], capsys)
    assert code == EXIT_OK
    assert len(out.splitlines()) == 2  # comment + column header


def test_enumerate_round_trips_indices(capsys):
    code, out, _ = run_cli(["enumerate", "2", "--limit", "2"], capsys)
    assert code == EXIT_OK
    from kolmobench.enumeration import index_to_machine, machine_to_index

    for line in out.splitlines()[2:]:
        idx = int(line.split("\t")[0])
        assert machine_to_index(index_to_machine(idx)) == idx


@pytest.mark.parametrize(
    "argv, digest, names",
    [
        (["enumerate", "1", "--verdicts"],
         "5a9720f2bf43d3bf7cc3e9316ab58764d2dc6bdd3e46aff863d1d4dd2cbf321e",
         {"ProvedHalts": 13, "ProvedDiverges": 7}),
        (["enumerate", "2", "--limit", "200", "--verdicts", "--budget", "2"],
         "909f83cef02de1f38108b79de046fe33e1b694b68d6016ef7f68a02f00ad95ab",
         {"ProvedHalts": 151, "ProvedDiverges": 44, "Unknown": 5}),
    ],
    ids=["one-state", "two-state-budget-2"],
)
def test_enumerate_verdict_column_is_pinned(capsys, argv, digest, names):
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    column = [line.split("\t")[2] for line in out.splitlines()[2:]]
    assert {v: column.count(v) for v in set(column)} == names
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_estimate_profile_nonincreasing(capsys):
    code, out, err = run_cli(
        ["estimate", "11", "--budget", "32", "--universe-interval", "1:1100"],
        capsys,
    )
    assert code == EXIT_OK
    rows = [l.split(",") for l in out.splitlines()[2:]]
    phi_values = [int(r[3]) for r in rows if r[0] == "phi"]
    assert phi_values and phi_values == sorted(phi_values, reverse=True)
    bound_rows = [r for r in rows if r[0] == "bound"]
    assert len(bound_rows) == 1


def test_estimate_empty_string_works(capsys):
    code, out, _ = run_cli(
        ["estimate", "", "--budget", "8", "--universe-interval", "1:1000",
         "--out", "json"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["x"] == "" and doc["upper_bound"]["bound"] <= doc["cap"]


def test_estimate_rejects_non_binary(capsys):
    code, _, _ = run_cli(["estimate", "10a"], capsys)
    assert code == EXIT_BAD_INPUT


def test_estimate_cap_too_large_is_resource_refusal(capsys):
    # Without index 1 the phi scan may run to the cap: far past the ceiling.
    code, _, err = run_cli(
        ["estimate", "1", "--cap", "40", "--budget", "4", "--universe-interval", "2:4096"],
        capsys,
    )
    assert code == EXIT_RESOURCE
    assert "refusal" in err


def test_estimate_refusal_closes_the_cache(tmp_path, capsys, monkeypatch):
    # The applicable set refuses before the phi scan records any verdict: the
    # cache must still be closed, and it never made its file.
    closed, real_close = [], VerdictCache.close

    def close(self):
        closed.append(self.path)
        real_close(self)

    monkeypatch.setattr(VerdictCache, "close", close)
    cache = str(tmp_path / "c.jsonl")
    code, _, err = run_cli(
        ["estimate", "1", "--max-prog-len", "16", "--budget", "16", "--cache-path", cache],
        capsys,
    )
    assert code == EXIT_RESOURCE and "simulations exceed ceiling" in err
    assert closed == [cache]
    assert not Path(cache).exists()


def test_estimate_refuses_the_phi_scan_before_any_sweep(capsys, monkeypatch):
    # Without index 1 the phi scan may run to the cap; its count is checked
    # before the applicable set sweeps 4095 x 31 pairs.
    forbid_sweeps(monkeypatch)
    code, out, err = run_cli(
        ["estimate", "1", "--cap", "40", "--budget", "4", "--universe-interval", "2:4096"],
        capsys,
    )
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "resource refusal: 274743701505 programs of length <= 40 exceed ceiling" in err


def test_estimate_refuses_an_empty_universe(tmp_path, capsys):
    # No machine of the universe could witness a bound: exit 2, nothing written.
    out, cache = tmp_path / "est.csv", tmp_path / "c.jsonl"
    code, stdout, err = run_cli(
        ["estimate", "1", "--universe-interval", "20000000:20000001", "--output", str(out),
         "--cache-path", str(cache)],
        capsys,
    )
    assert (code, stdout) == (EXIT_BAD_INPUT, "") and "empty universe" in err
    assert list(tmp_path.iterdir()) == []


def test_estimate_without_small_indices_scans_only_their_programs():
    # No program shorter than 21 bits names an index in 990:1040; the phi
    # profile must skip them rather than decode every program below the cap.
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "kolmobench.cli", "estimate", "10", "--budget", "64",
         "--universe-interval", "990:1040", "--max-prog-len", "3", "--out", "json"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    profile = json.loads(proc.stdout)["profile"]
    assert [r["value"] for r in profile] == [23, 22, 22, 22, 22, 22, 22]
    assert profile[0]["witness"] is None


def test_cli_import_loads_no_process_pool_and_no_verdict_classes(tmp_path):
    # Only a sweep with more than one worker needs a process pool, and the
    # detector's tuples are the one verdict and run vocabulary.  Records are named
    # tuples or plain classes, so start-up adds no dataclasses (nor its
    # inspect), datetime or random; these are compared with the modules
    # loaded before the import, as site may already have loaded random.  The
    # digests of one export take CPython's builtin SHA-256 (_sha256 up to
    # 3.11, _sha2 from 3.12), not hashlib's _hashlib, which loads OpenSSL's
    # libcrypto (about 3.4 MB of peak RSS); only a build without either
    # builtin module, such as a FIPS build, may load it.
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    output = str(tmp_path / "o.csv")
    script = (
        "import sys, importlib.util; before = set(sys.modules); "
        "import kolmobench.cli, kolmobench.halting as h, kolmobench.tm_core as t; "
        f"code = kolmobench.cli.main(['bb', '1', '--budget', '16', '--output', {output!r}]); "
        "builtin = any(importlib.util.find_spec(m) for m in ('_sha2', '_sha256')); "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules), "
        "sorted({'dataclasses', 'inspect', 'datetime', 'random'} & set(sys.modules) - before), "
        "hasattr(h, 'ProvedDiverges'), [n for n in ('Cutoff', 'InvalidOutput') if hasattr(t, n)], "
        "code, builtin and '_hashlib' in set(sys.modules) - before)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "[] [] False [] 0 False", proc.stderr
    export = Path(output).read_bytes()
    manifest = json.loads(Path(output + ".manifest.json").read_text())
    assert manifest["runtime"]["export_sha256"] == hashlib.sha256(export).hexdigest()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "9", "--limit", "1"], "argument n_states: must be in 1..8"),
        (["estimate", "1", "--ceiling", "0"], "argument --ceiling"),
        (["estimate", "1", "--ceiling", "-5"], "argument --ceiling"),
        (["bb", "9", "--budget", "4"], "argument n_states: must be in 1..8"),
        (["ctm", "--scheme", "frequency", "--max-states", "9", "--budget", "4"], "--max-states"),
    ],
)
def test_out_of_range_arguments_exit_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_BAD_INPUT
    assert message in err and not out


def test_ctm_flawed_reports_crossing(capsys):
    code, out, err = run_cli(
        ["ctm", "--scheme", "flawed", "--N", "50", "--budget", "64"], capsys
    )
    assert code == EXIT_OK
    assert "exceeds 1 first at N=3" in err
    assert out.splitlines()[1].startswith("output_string,")


def test_ctm_flawed_analyses_each_machine_once(tmp_path, monkeypatch, capsys):
    # One pass: the export and the crossing come from N analyse calls, not N + 3.
    import kolmobench.ctm

    argv = ["ctm", "--scheme", "flawed", "--N", "50", "--budget", "64", "--output"]
    plain = run_cli(argv + [str(tmp_path / "plain.csv")], capsys)
    calls = []
    analyze = kolmobench.ctm.analyze_table

    def counting(*args):
        calls.append(args)
        return analyze(*args)

    monkeypatch.setattr(kolmobench.ctm, "analyze_table", counting)
    assert run_cli(argv + [str(tmp_path / "counted.csv")], capsys) == plain
    assert len(calls) == 50
    assert (tmp_path / "counted.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_ctm_flawed_refuses_n_past_ceiling_before_any_analysis(tmp_path, monkeypatch, capsys):
    import kolmobench.ctm

    monkeypatch.setattr(kolmobench.ctm, "analyze_table",
                        lambda *a: pytest.fail("a machine was analysed before the refusal"))
    out = tmp_path / "f.csv"
    code, stdout, err = run_cli(
        ["ctm", "--scheme", "flawed", "--N", "1000000000000", "--output", str(out)], capsys
    )
    assert code == EXIT_RESOURCE and not stdout
    assert "resource refusal" in err and "FLAWED_MAX_N" in err
    assert not list(tmp_path.iterdir())


def test_ctm_flawed_exports_past_int_digit_limit(tmp_path, capsys, parse_table):
    # From about N = 14,341 mass denominators run past Python's default
    # 4300-digit int/str limit; exports must stay exact anyway.
    import re
    import sys

    from kolmobench.ctm import flawed_table, table_to_csv, table_to_json

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    texts = {}
    for fmt in ("csv", "json"):
        path = tmp_path / f"flawed.{fmt}"
        code, _, _ = run_cli(
            ["ctm", "--scheme", "flawed", "--N", "15000", "--out", fmt,
             "--output", str(path)],
            capsys,
        )
        assert code == EXIT_OK
        texts[fmt] = path.read_text()
    table = flawed_table(15000, 256)
    assert max(m.denominator.bit_length() for m in table.entries.values()) > 4300 * 3.33
    meta = {"scheme": "flawed", "universe": "i1-15000", "budget": 256, "L": None}
    for fmt in ("csv", "json"):
        assert parse_table(texts[fmt], fmt) == (table.entries, meta)
    csv_digest = texts["csv"].splitlines()[0].split("=", 1)[1]
    json_digest = re.search(r'"manifest_config":"(\w+)"', texts["json"]).group(1)
    assert table_to_csv(table, csv_digest) == texts["csv"]
    assert table_to_json(table, json_digest) == texts["json"]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_ctm_corrected_total_line(capsys):
    code, out, err = run_cli(
        ["ctm", "--scheme", "corrected", "--L", "2",
         "--universe-interval", "1:500", "--budget", "32"],
        capsys,
    )
    assert code == EXIT_OK
    assert "total_mass=" in err and "<= 1" in err


def test_ctm_rejects_block_len_with_flawed(capsys):
    code, _, _ = run_cli(
        ["ctm", "--scheme", "flawed", "--N", "10", "--L", "2"], capsys
    )
    assert code == EXIT_BAD_INPUT


def test_ctm_rejects_empty_universe(capsys):
    code, _, _ = run_cli(
        ["ctm", "--scheme", "corrected", "--L", "1",
         "--universe-interval", "50:40"], capsys
    )
    assert code == EXIT_BAD_INPUT


def test_bb_one_state_fully_decided(capsys):
    code, out, err = run_cli(["bb", "1", "--budget", "64", "--out", "json"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["decided_all"] is True and doc["max_steps"] == 3


def test_cache_verify_fresh_cache_passes(tmp_path, capsys):
    cache = str(tmp_path / "vc.jsonl")
    code, _, _ = run_cli(
        ["estimate", "1", "--budget", "16", "--universe-interval", "1:1000",
         "--cache-path", cache, "--output", str(tmp_path / "e.csv")],
        capsys,
    )
    assert code == EXIT_OK
    code, out, _ = run_cli(
        ["cache", "verify", "--cache-path", cache, "--sample", "40", "--seed", "3"],
        capsys,
    )
    assert code == EXIT_OK
    assert "mismatches: 0" in out


def test_estimate_cache_file_is_pinned(tmp_path, capsys):
    # The records name each (index, program, budget) the phi scan analysed, so
    # these bytes move if any pair is analysed at another budget; cache verify
    # would pass such a file.
    cache, out = tmp_path / "vc.jsonl", tmp_path / "e.json"
    code, _, _ = run_cli(
        ["estimate", "0110", "--budget", "1024", "--universe-interval", "1:2000",
         "--out", "json", "--cache-path", str(cache), "--output", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert len(cache.read_bytes().splitlines()) == 56
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "5271af6fedfcd3a69e58e32bb1dd37c6f1fc2d16cc305583e8089db9b0ac8538"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "29041c909af66d4ba65877d3b3970c56d810930259a86466cd3254c492b72bbd"
    )


@pytest.mark.parametrize("action", ["inspect", "verify", "compact"])
def test_cache_on_missing_path_exits_2(tmp_path, capsys, action):
    cache = tmp_path / "missing.jsonl"
    code, out, err = run_cli(["cache", action, "--cache-path", str(cache)], capsys)
    assert code == EXIT_BAD_INPUT and out == ""
    assert "no cache file" in err
    assert list(tmp_path.iterdir()) == []


def test_cache_corrupt_file_exit_code(tmp_path, capsys):
    cache = tmp_path / "vc.jsonl"
    cache.write_text("{not json}\n", encoding="utf-8")
    code, _, err = run_cli(
        ["cache", "inspect", "--cache-path", str(cache)], capsys
    )
    assert code == EXIT_CACHE_CORRUPT
    assert ":1:" in err  # names the offending line


def test_cache_tampered_record_fails_verify(tmp_path, capsys):
    cache = str(tmp_path / "vc.jsonl")
    code, _, _ = run_cli(
        ["estimate", "1", "--budget", "16", "--universe-interval", "1:1000",
         "--cache-path", cache, "--output", str(tmp_path / "e.csv")],
        capsys,
    )
    assert code == EXIT_OK
    lines = Path(cache).read_text().splitlines()
    rec = json.loads(lines[0])
    rec["steps"] = (rec["steps"] or 0) + 7
    rec["status"] = "halted"
    rec["output"] = "0"
    lines[0] = json.dumps(rec)
    Path(cache).write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        ["cache", "verify", "--cache-path", cache,
         "--sample", str(len(lines)), "--seed", "3"],
        capsys,
    )
    assert code == EXIT_VERIFY_FAILED


def test_cache_verify_runs_neither_detector_nor_replay(tmp_path, capsys, monkeypatch):
    import kolmobench.cli
    import kolmobench.halting

    cache = tmp_path / "vc.jsonl"
    code, _, _ = run_cli(
        ["estimate", "1011", "--budget", "16", "--universe-interval", "1:1000",
         "--cache-path", str(cache), "--output", str(tmp_path / "e.csv")],
        capsys,
    )
    assert code == EXIT_OK
    assert {"halted", "unknown"} <= set(VerdictCache(str(cache)).status_counts())

    def forbidden(*args, **kwargs):
        raise AssertionError("cache verify ran the detector or the certificate replay")

    for module in (kolmobench.halting, kolmobench.cli):
        for name in ("analyze_table", "verify_certificate"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    verify = ["cache", "verify", "--cache-path", str(cache), "--sample", "1000000"]
    code, out, _ = run_cli(verify, capsys)
    assert code == EXIT_OK and "mismatches: 0" in out
    # A did-not-halt record for a run that halts: machine 1 halts at step 1.
    rec = {"i": 1, "p": "", "budget": 8, "status": "unknown", "steps": None, "output": None}
    cache.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    code, out, err = run_cli(verify, capsys)
    assert code == EXIT_VERIFY_FAILED
    assert "MISMATCH at (i=1, p='', budget=8)" in err and "mismatches: 1" in out


def test_cache_verify_refuses_a_sample_past_the_step_ceiling(tmp_path, capsys, monkeypatch):
    # The sampled budgets bound the replay's steps; past the ceiling nothing runs.
    monkeypatch.setattr(cli, "CLI_DEFAULT_CEILING", 100)
    monkeypatch.setattr(cli, "run", lambda *a: pytest.fail("cache verify replayed a record"))
    cache = tmp_path / "vc.jsonl"
    rec = {"i": 2, "p": "", "budget": 1000, "status": "unknown", "steps": None, "output": None}
    cache.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    code, out, err = run_cli(["cache", "verify", "--cache-path", str(cache)], capsys)
    assert code == EXIT_RESOURCE and not out
    assert "1000 steps" in err and "--sample" in err


def test_exports_identical_across_threads_and_cache_warmth(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["ctm", "--scheme", "corrected", "--L", "2",
            "--universe-interval", "1:800", "--budget", "64"]
    assert run_cli(base + ["--threads", "1", "--output", str(out1)], capsys)[0] == EXIT_OK
    assert run_cli(base + ["--threads", "2", "--output", str(out2)], capsys)[0] == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    est = ["estimate", "10", "--budget", "32", "--universe-interval", "1:1100"]
    cache = str(tmp_path / "vc.jsonl")
    e1, e2, e3 = tmp_path / "e1.csv", tmp_path / "e2.csv", tmp_path / "e3.csv"
    assert run_cli(est + ["--output", str(e1), "--cache-path", cache], capsys)[0] == EXIT_OK
    assert run_cli(est + ["--output", str(e2), "--cache-path", cache], capsys)[0] == EXIT_OK
    assert run_cli(est + ["--output", str(e3), "--threads", "2"], capsys)[0] == EXIT_OK
    assert e1.read_bytes() == e2.read_bytes() == e3.read_bytes()


BB, FREQUENCY = ["bb", "1"], ["ctm", "--scheme", "frequency", "--max-states", "1"]


# The last argument is a path under tmp_path: in a missing directory, "." for
# tmp_path itself, a directory, or "<name>+<suffix>": an empty file <name>
# beside a directory <name><suffix>, where the command would write a file.
@pytest.mark.parametrize("argv, sweep", [
    (BB + ["--output", "missing/x.csv"], "bb_table"),
    (FREQUENCY + ["--output", "missing/x.csv"], "output_frequency"),
    (["estimate", "10", "--output", "missing/x.csv"], "phi_profile"),
    (BB + ["--output", "."], "bb_table"),
    (FREQUENCY + ["--output", "."], "output_frequency"),
    (["estimate", "10", "--output", "."], "phi_profile"),
    (["estimate", "10", "--cache-path", "."], "phi_profile"),
    (["estimate", "10", "--cache-path", "missing/c.jsonl"], "phi_profile"),
    (BB + ["--output", "x.csv+.manifest.json"], "bb_table"),
    (BB + ["--output", "x.csv+.tmp"], "bb_table"),
    (BB + ["--output", "x.csv+.manifest.json.tmp"], "bb_table"),
    (FREQUENCY + ["--output", "x.csv+.tmp"], "output_frequency"),
    (["estimate", "10", "--output", "x.csv+.manifest.json"], "phi_profile"),
    (["cache", "compact", "--cache-path", "c.jsonl+.tmp"], "VerdictCache"),
])
def test_missing_output_directory_exits_2_before_the_sweep(argv, sweep, tmp_path, capsys,
                                                           monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{sweep} ran")

    for name in {sweep, "applicable_set"}:  # estimate sweeps the applicable set first
        monkeypatch.setattr(cli, name, must_not_run)
    *argv, flag, path = argv
    path, beside, suffix = path.partition("+")
    target, side = tmp_path / path, f"{tmp_path / path}{suffix}"
    if beside:
        target.write_text("")
        os.mkdir(side)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(argv + [flag, str(target)], capsys)
    reason = ("{} {} writes {}, which is a directory" if beside else
              "{} {} is a directory" if path == "." else "no directory for {} {}")
    assert code == EXIT_BAD_INPUT and reason.format(flag, target, side) in err
    assert out == "" and sorted(tmp_path.iterdir()) == before
    assert not beside or target.read_text() == ""


# Path kinds for --output and --cache-path, under a fresh directory per example:
# missing (in an existing directory), in a missing directory, a directory, an
# empty file, a file that is no cache ("5" is JSON but not a record) and a
# missing file whose manifest path is a directory.
PATH_KINDS = {"missing": "new.txt", "no-dir": "none/new.txt", "dir": "dir", "empty": "empty",
              "junk": "junk", "dir-manifest": "side.csv"}
BUDGETS = st.integers(-1, 16)


@st.composite
def _intervals(draw):
    """``lo:hi`` with at most 200 indices, near the layer edges; some empty."""
    lo = draw(st.sampled_from([1, 990, 11391500])) + draw(st.integers(0, 20))
    return f"{lo}:{lo + draw(st.integers(-1, 199))}"


def _argv(command, positional, required, optional):
    """One argv strategy: the command, its positional values, its required
    flags, then any subset of its optional ones (True: a bare switch)."""
    def flatten(parts):
        pos, flags = parts
        words = [command, *map(str, pos)]
        for flag, value in flags.items():
            words += [flag] if value is True else [flag, str(value)]
        return words

    flags = st.fixed_dictionaries(required, optional=optional)
    return st.tuples(st.tuples(*positional), flags).map(flatten)


PATHS = st.sampled_from(sorted(PATH_KINDS))
# Past their bounds, the size flags must exit 2 at parse time.  An accepted
# thread count above 2 would start a pool of that many processes: never drawn.
THREADS = st.one_of(st.integers(1, 2), st.sampled_from([0, MAX_THREADS + 1, 10**6]))
PROGRAM_BITS = st.one_of(st.integers(0, 2), st.sampled_from([MAX_PROGRAM_BITS + 1, 40]))
SHARED = {"--budget": BUDGETS, "--out": st.sampled_from(["csv", "json"]), "--output": PATHS,
          "--threads": THREADS, "--seed": st.integers(0, 3)}
ARGVS = st.one_of(
    _argv("enumerate", [st.integers(0, 3)], {},
          {"--budget": BUDGETS, "--limit": st.integers(-1, 3), "--verdicts": st.just(True)}),
    _argv("estimate", [st.sampled_from(["", "0", "1", "101", "2"])],
          {"--universe-interval": _intervals()},
          {**SHARED, "--max-states": st.integers(1, 2), "--cache-path": PATHS,
           "--cap": st.integers(-1, 12), "--max-prog-len": PROGRAM_BITS,
           "--ceiling": st.sampled_from([0, 1, 100, 10**6]),
           "--policy": st.sampled_from(["discard-dominated", "none"])}),
    _argv("ctm", [], {"--scheme": st.sampled_from(["corrected", "frequency"]),
                      "--universe-interval": _intervals()},
          {**SHARED, "--max-states": st.integers(1, 2), "--L": PROGRAM_BITS,
           "--N": st.integers(0, 16)}),
    _argv("ctm", [], {"--scheme": st.just("flawed"), "--N": st.integers(0, 16)},
          {**SHARED, "--universe-interval": _intervals(), "--L": PROGRAM_BITS}),
    _argv("bb", [st.integers(0, 2)], {"--universe-interval": _intervals()},
          {**SHARED, "--verify": st.just(True), "--auto-budget": st.just(True)}),
    _argv("cache", [st.sampled_from(["inspect", "verify", "compact"])], {},
          {"--cache-path": PATHS, "--seed": st.integers(0, 3), "--sample": st.integers(-1, 3)}),
)


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@settings(derandomize=True, max_examples=400)
@given(argv=ARGVS)
def test_every_argv_ends_in_a_documented_exit_code(argv):
    # In process, as the console script runs: argparse's exit is a SystemExit,
    # anything else escaping main is a bug.  A failed run leaves every file as
    # it found it, so it writes no export, manifest or .tmp file.
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        (root / "dir").mkdir()
        (root / "side.csv.manifest.json").mkdir()
        (root / "empty").write_text("")
        (root / "junk").write_text("5\n")
        argv = [str(root / PATH_KINDS[w]) if w in PATH_KINDS else w for w in argv]
        before = _tree(root)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_RESOURCE, EXIT_CACHE_CORRUPT,
                        EXIT_VERIFY_FAILED)
        after = _tree(root)
        assert not [p for p in after if p.name.endswith(".tmp")]
        if code != EXIT_OK:
            assert after == before


def test_manifest_written_alongside_export(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run_cli(
        ["ctm", "--scheme", "frequency", "--max-states", "1",
         "--budget", "32", "--output", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["config"]["scheme"] == "frequency"
    assert manifest["runtime"]["tool_version"]
    digest_line = out.read_text().splitlines()[0]
    assert digest_line.startswith("# manifest_config=")
    import hashlib

    blob = json.dumps(
        manifest["config"], sort_keys=True, separators=(",", ":")
    ).encode()
    assert digest_line.split("=", 1)[1] == hashlib.sha256(blob).hexdigest()[:16]
    assert (
        manifest["runtime"]["export_sha256"]
        == hashlib.sha256(out.read_bytes()).hexdigest()
    )


def test_sweep_stats_go_to_manifest_only(tmp_path, capsys):
    lo, hi = 2001, 9000
    for argv in (["bb", "2", "--verify"], ["ctm", "--scheme", "frequency"]):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            argv + ["--universe-interval", f"{lo}:{hi}", "--budget", "64",
                    "--output", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        stats = manifest["runtime"]["stats"]
        assert sum(stats["verdicts"].values()) == stats["machines"] == hi - lo + 1
        assert 0 < stats["leaves"] < stats["machines"]
        assert (stats["leaves_verified"] > 0) == (argv[0] == "bb")
        assert "leaves" not in out.read_text()


def test_corrected_stats_go_to_manifest_only(tmp_path, capsys):
    out = tmp_path / "mix.json"
    code, _, _ = run_cli(
        ["ctm", "--scheme", "corrected", "--L", "3", "--universe-interval", "990:1400",
         "--budget", "32", "--out", "json", "--output", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    stats = json.loads((tmp_path / "mix.json.manifest.json").read_text())["runtime"]["stats"]
    assert sum(stats["verdicts"].values()) == stats["machines"] == 411 << 3
    assert 0 < stats["leaves"] < stats["machines"]
    assert "leaves" not in out.read_text() and "verdicts" not in out.read_text()


def test_ctm_refuses_cache_path(tmp_path, capsys):
    # No ctm scheme keeps verdicts, so a cache path would be silently ignored.
    cache, out = tmp_path / "vc.jsonl", tmp_path / "mix.csv"
    for scheme in (["corrected", "--L", "1"], ["frequency"]):
        code, _, err = run_cli(
            ["ctm", "--scheme", *scheme, "--universe-interval", "1:20",
             "--cache-path", str(cache), "--output", str(out)],
            capsys,
        )
        assert code == EXIT_BAD_INPUT and "--cache-path" in err
    assert not cache.exists() and not out.exists()


def test_estimate_stats_go_to_manifest_only(tmp_path, capsys):
    out = tmp_path / "est.json"
    code, _, _ = run_cli(
        ["estimate", "0110", "--budget", "64", "--universe-interval", "1:1100",
         "--max-prog-len", "3", "--out", "json", "--output", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    stats = json.loads((tmp_path / "est.json.manifest.json").read_text())["runtime"]["stats"]
    assert sum(stats["verdicts"].values()) == stats["machines"] == 1100 * 15
    assert 0 < stats["leaves"] < stats["machines"]
    import hashlib

    # The export of the exhaustive applicable-set sweep, before the leaf trees.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "07a24bb2b0861b4744d54a6dafee9b50ef72de836f823d43914e8cb265668a54"
    )


def _manifest_digest(manifest: dict) -> str:
    """sha256 prefix of a manifest as the export writer formats it, less its timestamp."""
    del manifest["runtime"]["created"]
    blob = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# The total of the flawed N=300 export (the JSON export's "total"), then the crossing.
FLAWED_300_STDERR = (
    "total_mass=390708120688949499825344333736651003917192387817689220141841808365"
    "76416851280463017812280003088393361505420218961396539557706180937"
    "/901471683679958662332957357394537784515902987798050533916732065278"
    "5333649613624539473353602148614605570705738411136004478202144000 (4.334114)\n"
    "flawed mass exceeds 1 first at N=3 (mass 4/3, exact comparison)\n"
)


# The exports that perfbench's pinned digests leave out: (argv, sha256 of the
# export, manifest digest, stderr).
PINNED_EXPORTS = {
    "flawed-csv": (
        ["ctm", "--scheme", "flawed", "--N", "300", "--budget", "64"],
        "1345ecee2abe309ac0e0b7de0db7e78ab5d8fba132d8e9d455132da03eb3d126", "718421e6cbec71ae",
        FLAWED_300_STDERR,
    ),
    "flawed-json": (
        ["ctm", "--scheme", "flawed", "--N", "300", "--budget", "64", "--out", "json"],
        "550b13481b3f1d0ebdab60a9f97baa822962bad28a465bd0c5ac48ef640ca8fc", "387091222011268a",
        FLAWED_300_STDERR,
    ),
    "flawed-no-crossing": (
        ["ctm", "--scheme", "flawed", "--N", "2", "--budget", "64"],
        "07004fb0895e98255ed2155a4ac2b66edd22187a01bef0988622d23634cff013", "fec0ce23e8faf282",
        "total_mass=1 (1.000000)\nflawed mass stayed <= 1 up to N=2\n",
    ),
    "frequency-json": (
        ["ctm", "--scheme", "frequency", "--max-states", "1", "--budget", "64", "--out", "json"],
        "e5c7d36b0f484aa97c8ccee4792b795f92475468c77cf6a3a8c6c9d63839e93f", "a220cf679488a889",
        "total_mass=61/100 (0.610000) <= 1\n",
    ),
    "corrected-L0-json": (
        ["ctm", "--scheme", "corrected", "--max-states", "1", "--L", "0", "--budget", "16",
         "--out", "json"],
        "2e9f85805fa6b3ea9853f302cc6f153664d8fa44cbb55bfe85a13de9220084e3", "8bd4822e6c8916c2",
        "total_mass=215477/1048576 (0.205495) <= 1\n",
    ),
    "bb-verify-json": (
        ["bb", "1", "--budget", "16", "--verify", "--out", "json"],
        "ee56baa9de1f1ed5878125d774e3f78924fdd46e440373699b0c27d5f7474eb9", "2eb170392a800daa",
        "n=1: max_steps=3 decided_all=True undecided=0 budget=16\n",
    ),
    "bb-auto-budget": (
        ["bb", "1", "--auto-budget"],
        "2b1e62a8cf16aed5c77467ff67ca6653364d78c3017163a37d85b07e448c6ed2", "f1d3bc11a87ba601",
        "n=1: max_steps=3 decided_all=True undecided=0 budget=256\n",
    ),
    "estimate-csv": (
        ["estimate", "101", "--budget", "256", "--universe-interval", "1:1000"],
        "3aa584a1380dcbc06daf0c841b71dd13e04e78b969c0d3bb5f4ad56330f6377c", "5efdb87b758a3d7e",
        "phi stabilized at 7 (cap 24); upper bound 7 via (i=1, p='0101'); 841 applicable pairs\n",
    ),
    # The applicable set of the empty string over the whole 2-state layer, then
    # over its bit length 21 alone: millions and hundreds of thousands of pairs.
    "estimate-full-layer-json": (
        ["estimate", "", "--universe-interval", "1001:11391625", "--max-prog-len", "0",
         "--out", "json"],
        "4293bdca4a0fd6488663074c03836b0305608b73e5e5b6545a3848ac0c597cb2", "18cd3277afc55333",
        "phi stabilized at 21 (cap 21); upper bound 21 via (i=1001, p=''); "
        "3089010 applicable pairs\n",
    ),
    "estimate-bit-length-21-json": (
        ["estimate", "", "--universe-interval", "1048576:2097151", "--max-prog-len", "0",
         "--out", "json"],
        "609ce808a72aa627da7b893344582a299b56f842725e9413908cc4d86243a28c", "9116b62b413f95f5",
        "phi stabilized at 21 (cap 21); upper bound 43 via (i=1048580, p=''); "
        "282518 applicable pairs\n",
    ),
    # A 1e8-index slice of the 3-state layer on the empty input.
    "bb-3-slice": (
        ["bb", "3", "--budget", "256", "--universe-interval", "300000000:399999999"],
        "78c3a42834b15928f9a3137fcd50606b2fde13ffa6ff0e49d5e82c4dfab7c547", "14bef08e3c71c3a7",
        "n=3: max_steps=24 decided_all=False undecided=511900000004 budget=256\n",
    ),
    # The same slice at the last --auto-budget budget, 2^16: four holdouts run
    # to the budget, one (401581425) keeping a cycle-table entry almost every step.
    "bb-3-slice-65536": (
        ["bb", "3", "--budget", "65536", "--universe-interval", "300000000:399999999"],
        "50fa290792417c3beb17d0fb792a4b79d7065f13aed9e1ae6b5c91729c0ad31c", "b0e4def8aa4ff04f",
        "n=3: max_steps=24 decided_all=False undecided=511900000004 budget=65536\n",
    ),
    # An applicable set across both layers, 13 index bit lengths and the 511
    # programs of up to 8 bits.
    "estimate-two-layers-L8": (
        ["estimate", "1", "--budget", "256", "--max-prog-len", "8", "--universe-interval",
         "1:4096"],
        "363a675cfc8cee8b0a459d822863d7c12060b9f08e902c4d28b065f835cc8455", "75c1da6a52585cb3",
        "phi stabilized at 5 (cap 22); upper bound 5 via (i=1, p='01'); 4914 applicable pairs\n",
    ),
}


# A junk value for each shared flag's name: configuration comes from argv
# alone, so none of these may change a run.  The paths lie in a missing
# directory, so a run that took them would exit 2 and write nothing.
JUNK_ENV = {"KOLMOBENCH_BUDGET": "0", "KOLMOBENCH_MAX_STATES": "x", "KOLMOBENCH_OUT": "xml",
            "KOLMOBENCH_OUTPUT": "missing/out.csv", "KOLMOBENCH_CACHE_PATH": "missing/vc.jsonl",
            "KOLMOBENCH_THREADS": "x", "KOLMOBENCH_SEED": "y"}


@pytest.fixture
def junk_env(monkeypatch):
    for name, value in JUNK_ENV.items():
        monkeypatch.setenv(name, value)


@pytest.mark.parametrize("name", PINNED_EXPORTS)
def test_export_bytes_are_pinned(name, tmp_path, capsys, junk_env):
    argv, export_sha, manifest_digest, stderr = PINNED_EXPORTS[name]
    out = tmp_path / "export"
    code, stdout, err = run_cli(argv + ["--output", str(out)], capsys)
    assert (code, stdout, err) == (EXIT_OK, "", stderr)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == export_sha
    manifest = json.loads((tmp_path / "export.manifest.json").read_text())
    assert _manifest_digest(manifest) == manifest_digest


def test_bb_verify_replays_a_two_cut_splice_past_the_tape_end(tmp_path, capsys):
    # A two-cut splice certificate here once claimed a block whose last cell
    # lay past the last non-blank cell, on a blank, and failed its replay.
    argv = ["bb", "3", "--budget", "256", "--verify", "--universe-interval",
            "510365560321:510365560321", "--output", str(tmp_path / "o.csv")]
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (
        EXIT_OK, "n=3: max_steps=0 decided_all=False undecided=511999999999 budget=256\n")


@pytest.mark.slow
def test_bb_verify_replays_every_certificate_of_a_two_cut_splice_slice(tmp_path, capsys):
    # 1e8 indices with many two-cut splices: every certificate replays, and
    # the 18 machines whose only certificate was unsound stay undecided.
    argv = ["bb", "3", "--budget", "256", "--verify", "--universe-interval",
            "510300000000:510399999999", "--output", str(tmp_path / "o.csv")]
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (
        EXIT_OK, "n=3: max_steps=37 decided_all=False undecided=511900022763 budget=256\n")
    stats = json.loads((tmp_path / "o.csv.manifest.json").read_text())["runtime"]["stats"]
    assert stats["leaves_verified"] > 0


def test_stdout_export_is_pinned(capsys, junk_env):
    # Without --output the export goes to stdout and its manifest to stderr, on one line.
    code, stdout, err = run_cli(["bb", "1", "--budget", "16"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "b27c8969e56f4ee326f0d11a0f51168ede915aaed77158fa6bfc6a51e4827307"
    )
    manifest, summary = err.splitlines()
    assert _manifest_digest(json.loads(manifest)) == "30d96e8de2e30a9b"
    assert summary == "n=1: max_steps=3 decided_all=True undecided=0 budget=16"


@pytest.mark.parametrize("command", [[], ["enumerate"], ["estimate"], ["ctm"], ["bb"], ["cache"]],
                         ids=["kolmobench", "enumerate", "estimate", "ctm", "bb", "cache"])
def test_help_names_no_variable(command, capsys, junk_env):
    code, out, _ = run_cli(command + ["--help"], capsys)
    assert code == EXIT_OK and out.startswith("usage: kolmobench")
    assert "KOLMOBENCH" not in out and "(env" not in out


@pytest.mark.parametrize(
    "argv",
    [["bb", "1", "--budget", "16"], ["enumerate", "1", "--limit", "2", "--verdicts"]],
    ids=["bb", "enumerate"],
)
def test_refuses_cache_path(argv, tmp_path, capsys, monkeypatch):
    # Neither command keeps verdicts, so a cache path would be silently ignored.
    cache, out = tmp_path / "vc.jsonl", tmp_path / "out.csv"
    code, stdout, err = run_cli(argv + ["--cache-path", str(cache), "--output", str(out)], capsys)
    assert code == EXIT_BAD_INPUT and "--cache-path" in err and not stdout
    assert not cache.exists() and not out.exists()
    # The variable is the default of a flag neither command takes: ignored.
    to_file = argv[0] == "bb"  # enumerate writes no export, only stdout
    exports = []
    for env in (None, str(cache)):
        if env:
            monkeypatch.setenv("KOLMOBENCH_CACHE_PATH", env)
        code, stdout, _ = run_cli(argv + (["--output", str(out)] if to_file else []), capsys)
        assert code == EXIT_OK
        exports.append(out.read_bytes() if to_file else stdout)
    assert exports[0] == exports[1] and not cache.exists()


# The shared flags a command does not read; argparse refuses each one.
NOT_TAKEN = {
    "enumerate": ["--max-states", "--out", "--output", "--cache-path", "--threads", "--seed"],
    "ctm": ["--cache-path"],
    "bb": ["--max-states", "--cache-path"],
    "cache": ["--budget", "--max-states", "--out", "--output", "--threads"],
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, flags in NOT_TAKEN.items() for f in flags],
    ids=lambda v: v,
)
def test_flags_a_command_does_not_read_exit_2(command, flag, tmp_path, capsys):
    base = {
        "enumerate": ["enumerate", "1", "--limit", "1"],
        "ctm": ["ctm", "--scheme", "frequency", "--max-states", "1", "--budget", "8",
                "--output", str(tmp_path / "export")],
        "bb": ["bb", "1", "--budget", "8", "--output", str(tmp_path / "export")],
        "cache": ["cache", "inspect", "--cache-path", str(tmp_path / "vc.jsonl")],
    }[command]
    value = {
        "--budget": "8", "--max-states": "1", "--out": "json", "--threads": "1", "--seed": "3",
        "--output": str(tmp_path / "flagged"), "--cache-path": str(tmp_path / "flagged.jsonl"),
    }[flag]
    code, out, err = run_cli(base + [flag, value], capsys)
    assert code == EXIT_BAD_INPUT
    assert f"unrecognized arguments: {flag}" in err and not out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "101", "--max-prog-len", "-1"],
        ["estimate", "101", "--cap", "-1"],
        ["cache", "verify", "--sample", "-2"],
        ["enumerate", "1", "--limit", "-3"],
    ],
)
def test_negative_counts_exit_2(argv, tmp_path, capsys):
    cache = tmp_path / "vc.jsonl"
    code, out, err = run_cli(argv + ["--budget", "8", "--cache-path", str(cache)], capsys)
    assert code == EXIT_BAD_INPUT
    assert "must be" in err and f"got {argv[-1]}" in err and not out
    assert not cache.exists()


def test_bb_auto_budget_and_partial_interval(capsys):
    code, out, _ = run_cli(
        ["bb", "1", "--auto-budget", "--budget", "4", "--out", "json"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["decided_all"] is True and doc["max_steps"] == 3

    code, out, _ = run_cli(
        ["bb", "1", "--universe-interval", "1:50", "--budget", "16", "--out", "json"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["decided_all"] is False and doc["undecided_count"] == 950


@pytest.mark.parametrize("out", ["csv", "json"])
def test_bb_records_the_parsed_interval(out, tmp_path, capsys):
    # Two spellings of one interval are one sweep: one config, one export.
    texts = []
    for spelling in ("1:50", "01:050"):
        path = tmp_path / f"{spelling.replace(':', '-')}.{out}"
        argv = ["bb", "1", "--budget", "16", "--universe-interval", spelling, "--out", out]
        assert run_cli([*argv, "--output", str(path)], capsys)[0] == EXIT_OK
        manifest = json.loads(Path(f"{path}.manifest.json").read_text())
        assert manifest["config"]["interval"] == "1:50"
        config = json.dumps(manifest["config"], sort_keys=True).encode()
        texts.append((path.read_bytes(), config))
    assert texts[0] == texts[1]


def test_bb_auto_budget_verifies_and_refuses_intervals(tmp_path, capsys):
    out = tmp_path / "bb.csv"
    code, _, _ = run_cli(
        ["bb", "1", "--auto-budget", "--verify", "--budget", "4", "--output", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    stats = json.loads((tmp_path / "bb.csv.manifest.json").read_text())["runtime"]["stats"]
    assert stats["machines"] == 1000 and stats["leaves_verified"] > 0
    # a clipped sweep is never decided_all, so doubling could only run out
    code, _, _ = run_cli(
        ["bb", "1", "--auto-budget", "--universe-interval", "1:50"], capsys
    )
    assert code == EXIT_BAD_INPUT
    code, _, _ = run_cli(["bb", "2", "--universe-interval", "1:50"], capsys)
    assert code == EXIT_BAD_INPUT  # the interval misses the 2-state layer


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "1"],
        ["ctm", "--scheme", "flawed", "--N", "3"],
        ["ctm", "--scheme", "corrected", "--L", "1"],
        ["ctm", "--scheme", "frequency"],
        ["enumerate", "1", "--verdicts"],
        ["bb", "1"],
        ["bb", "1", "--auto-budget"],
    ],
)
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_every_command_refuses_budget_below_one(argv, budget, tmp_path, capsys):
    out = tmp_path / "export"
    code, _, err = run_cli(argv + ["--budget", budget, "--output", str(out)], capsys)
    assert code == EXIT_BAD_INPUT
    assert "--budget" in err and not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("frequency", "--L", "2"),
        ("corrected", "--N", "10"),
        ("frequency", "--N", "10"),
        ("flawed", "--universe-interval", "900:950"),
        ("flawed", "--N", "5", "--max-states", "8"),
        ("flawed", "--N", "5", "--max-states", "2"),
        ("flawed", "--N", "5", "--threads", "2"),
        ("flawed", "--N", "5", "--threads", "1"),
    ],
)
def test_ctm_rejects_flags_of_other_schemes(flags, tmp_path, capsys):
    scheme, *rest = flags
    out = tmp_path / "export"
    code, _, err = run_cli(
        ["ctm", "--scheme", scheme, *rest, "--budget", "8", "--output", str(out)], capsys
    )
    assert code == EXIT_BAD_INPUT and f"{rest[-2]} applies to the" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "env",
    [{"KOLMOBENCH_MAX_STATES": "8", "KOLMOBENCH_THREADS": "2"},
     {"KOLMOBENCH_MAX_STATES": "z", "KOLMOBENCH_THREADS": "x"}],
    ids=["set", "malformed"],
)
def test_flawed_scheme_ignores_max_states_and_threads_variables(env, tmp_path, monkeypatch,
                                                                capsys):
    # The flawed scheme reads neither flag, so it reads neither variable either.
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv, export_sha, manifest_digest, stderr = PINNED_EXPORTS["flawed-csv"]
    out = tmp_path / "export"
    assert run_cli(argv + ["--output", str(out)], capsys) == (EXIT_OK, "", stderr)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == export_sha
    manifest = json.loads((tmp_path / "export.manifest.json").read_text())
    assert manifest["runtime"]["threads"] == 1
    assert _manifest_digest(manifest) == manifest_digest


def test_failed_export_write_keeps_previous_files(tmp_path, monkeypatch, capsys):
    import errno

    import kolmobench.cli as cli

    argv = ["bb", "1", "--output", str(tmp_path / "bb.csv")]
    assert run_cli(argv + ["--budget", "64"], capsys)[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class DiskFullMidway:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(
        cli, "open", lambda *a, **kw: DiskFullMidway(open(*a, **kw)), raising=False
    )
    with pytest.raises(OSError):
        main(argv + ["--budget", "2"])
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_bb_export_identical_across_threads(tmp_path, capsys):
    outs = []
    for threads in ("1", "2"):
        path = tmp_path / f"bb_{threads}.csv"
        code, _, _ = run_cli(
            ["bb", "1", "--budget", "64", "--threads", threads,
             "--output", str(path)],
            capsys,
        )
        assert code == EXIT_OK
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads", ["0", "-3", str(MAX_THREADS + 1), "100000"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bb", "1"],
        ["ctm", "--scheme", "corrected", "--L", "1", "--universe-interval", "1:20"],
        ["estimate", "1", "--universe-interval", "1:20"],
    ],
    ids=["bb", "ctm", "estimate"],
)
def test_threads_outside_1_to_64_exit_2(threads, argv, tmp_path, monkeypatch, capsys):
    # Refused at parse time: no sweep runs, so no pool forks a worker.
    forbid_sweeps(monkeypatch)
    out = tmp_path / "export"
    code, stdout, err = run_cli(argv + ["--threads", threads, "--budget", "8",
                                        "--output", str(out)], capsys)
    assert code == EXIT_BAD_INPUT and not stdout
    assert f"argument --threads: must be in 1..{MAX_THREADS}, got {threads}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bits", [str(MAX_PROGRAM_BITS + 1), "40"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ctm", "--scheme", "corrected", "--universe-interval", "1:10"], "--L"),
        (["estimate", "1", "--universe-interval", "1:1"], "--max-prog-len"),
    ],
    ids=["ctm", "estimate"],
)
def test_program_lengths_past_the_bound_exit_2(bits, argv, flag, tmp_path, monkeypatch, capsys):
    # Both sweeps grow as 2^(L+1); past the bound they could run the host out of memory.
    forbid_sweeps(monkeypatch)
    out = tmp_path / "export"
    code, stdout, err = run_cli(argv + [flag, bits, "--budget", "4", "--output", str(out)],
                                capsys)
    assert code == EXIT_BAD_INPUT and not stdout
    assert f"argument {flag}: must be in 0..{MAX_PROGRAM_BITS}, got {bits}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("interval", ["-5:10", "0:10"])
@pytest.mark.parametrize(
    "argv",
    [["estimate", "1", "--max-prog-len", "1"], ["ctm", "--scheme", "corrected"], ["bb", "1"]],
    ids=["estimate", "ctm", "bb"],
)
def test_intervals_below_index_1_exit_2(argv, interval, tmp_path, monkeypatch, capsys):
    # -5:10 would record a universe MachineRange.parse cannot read back, and
    # 0:10 would sweep 1..10 under a second config digest.
    forbid_sweeps(monkeypatch)
    out = tmp_path / "export"
    code, stdout, err = run_cli(argv + [f"--universe-interval={interval}", "--budget", "4",
                                        "--output", str(out)], capsys)
    assert code == EXIT_BAD_INPUT and not stdout and "indices start at 1" in err
    assert not list(tmp_path.iterdir())


def _perfbench_run_module(monkeypatch):
    """perfbench/run.py, imported read-only; it imports its siblings by name."""
    import importlib.util

    here = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(here))
    spec = importlib.util.spec_from_file_location("perfbench_run", here / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_op_argv_parses(monkeypatch):
    import random
    from dataclasses import replace

    from kolmobench.cli import build_parser

    run = _perfbench_run_module(monkeypatch)
    seconds = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())["run_seconds"]
    argvs = []
    for workload, build in run.WORKLOADS.items():
        units = max(1, round(seconds / run.UNIT_SECONDS[workload]))
        for seed in range(10):
            for op in build(random.Random(f"{workload}:{seed}"), units):
                argv = [*op.argv, "--output", f"op.{op.out}"]
                if op.kind == "estimate":
                    argv += ["--cache-path", f"cache-{op.x}.jsonl"]
                argvs.append(argv)
    window = run.mixture(random.Random("mixture:0"), 1)[0]  # the trace-mode pool op
    argvs.append([*replace(window, argv=window.argv[:-1] + ("2",)).argv, "--output", "pool"])
    assert argvs[-1][-4:-2] == ["--threads", "2"]
    parser = build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        assert args.output and args.command == argv[0]


def test_seed_one_mixture_exports_hold_with_box_memo_cap_one(monkeypatch, tmp_path, capsys):
    # The six windows of the perfbench mixture run at seed 1, with a box-count
    # memo that holds one answer: every export keeps its pinned digest.
    import random

    from kolmobench import enumeration

    run = _perfbench_run_module(monkeypatch)
    monkeypatch.setattr(enumeration, "BOX_MEMO_CAP", 1)
    seconds = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())["run_seconds"]
    ops = run.mixture(random.Random("mixture:1"), round(seconds / run.UNIT_SECONDS["mixture"]))
    reference = run.checks.load_reference()
    assert len(ops) == 6
    for op in ops:
        out = tmp_path / f"op.{op.out}"
        assert run_cli([*op.argv, "--output", str(out)], capsys)[0] == EXIT_OK
        assert run.checks.sha256(out.read_text()) == reference[op.key], op.key


def test_every_perfbench_traced_name_resolves_and_its_checks_pass(monkeypatch, tmp_path, capsys):
    # The benchmark wraps the names in tracer.TRACED and imports kolmobench in
    # checks.check_estimate; renaming either breaks it, so check both here.
    import importlib

    run = _perfbench_run_module(monkeypatch)
    for name in run.tracer.TRACED:
        module, *path = name.split(".")
        owner = importlib.import_module("kolmobench." + module)
        for attr in path:
            owner = getattr(owner, attr)
        assert callable(owner), name
    common = ("--budget", "8", "--threads", "1")
    ops = [
        run.Op("corrected", ("ctm", "--scheme", "corrected", "--L", "2", "--universe-interval",
                             "1001:1400", "--out", "json", *common), 1600, 1001, 1400, 8, "json", 2),
        run.Op("frequency", ("ctm", "--scheme", "frequency", "--universe-interval", "1001:3000",
                             *common), 2000, 1001, 3000, 8),
        run.Op("estimate", ("estimate", "1", "--universe-interval", "1:100", "--out", "json",
                            *common), 3100, 1, 100, 8, "json", x="1"),
    ]
    reference = run.checks.load_reference()
    for op in ops:
        out = tmp_path / f"{op.kind}.{op.out}"
        assert run_cli([*op.argv, "--output", str(out)], capsys)[0] == EXIT_OK
        text = out.read_text()
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert run.checks.check_export(op, text, manifest, reference) == [], op.kind
        assert run.checks.check_export(op, run.checks.corrupt(text), manifest, reference)


def test_cli_import_alone_loads_every_traced_module(monkeypatch):
    # perfbench/op.py imports kolmobench.cli and nothing else before
    # Tracer.install reads sys.modules["kolmobench." + module] for each name in
    # TRACED, so a trimmed or lazy import that drops one of those modules breaks
    # every traced run. The package root re-exports nothing: it binds no
    # function or class.
    traced = _perfbench_run_module(monkeypatch).tracer.TRACED
    modules = sorted({name.split(".")[0] for name in traced})
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    script = (
        "import sys, kolmobench.cli; "
        f"print([m for m in {modules!r} if 'kolmobench.' + m not in sys.modules], "
        "[n for n, v in vars(kolmobench).items() if callable(v)])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "[] []", proc.stderr
