import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kolmobench import cli
from kolmobench.cache import VerdictCache
from kolmobench.cli import (
    EXIT_BAD_INPUT,
    EXIT_CACHE_CORRUPT,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAILED,
    main,
)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse errors
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # The phi scan records its verdicts, then the applicable set refuses:
    # the cache must still be closed, with the records on disk.
    closed, real_close = [], VerdictCache.close

    def close(self):
        closed.append(self.path)
        real_close(self)

    monkeypatch.setattr(VerdictCache, "close", close)
    cache = str(tmp_path / "c.jsonl")
    code, _, err = run_cli(
        ["estimate", "1", "--max-prog-len", "25", "--budget", "16", "--cache-path", cache],
        capsys,
    )
    assert code == EXIT_RESOURCE and "simulations exceed ceiling" in err
    assert closed == [cache]
    assert len(Path(cache).read_text().splitlines()) == len(VerdictCache(cache)) == 5


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


def test_cli_import_loads_no_process_pool_and_no_verdict_classes():
    # Only a sweep with more than one worker needs a process pool, and the
    # detector's tuples are the one verdict vocabulary.
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    script = (
        "import sys, kolmobench.cli, kolmobench.halting as h; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules), "
        "hasattr(h, 'ProvedDiverges'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "[] False", proc.stderr


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


def test_ctm_flawed_exports_past_int_digit_limit(tmp_path, capsys):
    # From about N = 14,341 mass denominators run past Python's default
    # 4300-digit int/str limit; exports and parses must stay exact anyway.
    import re
    import sys

    from kolmobench.ctm import table_from_csv, table_from_json, table_to_csv, table_to_json

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
    back_csv = table_from_csv(texts["csv"])
    back_json = table_from_json(texts["json"])
    assert back_csv.entries == back_json.entries
    assert max(m.denominator.bit_length() for m in back_csv.entries.values()) > 4300 * 3.33
    csv_digest = texts["csv"].splitlines()[0].split("=", 1)[1]
    json_digest = re.search(r'"manifest_config":"(\w+)"', texts["json"]).group(1)
    assert table_to_csv(back_csv, csv_digest) == texts["csv"]
    assert table_to_json(back_json, json_digest) == texts["json"]
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


@pytest.mark.parametrize("argv, sweep", [
    (["bb", "1"], "bb_table"),
    (["ctm", "--scheme", "frequency", "--max-states", "1"], "output_frequency"),
    (["estimate", "10"], "phi_profile"),
])
def test_missing_output_directory_exits_2_before_the_sweep(argv, sweep, tmp_path, capsys,
                                                           monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{sweep} ran")

    monkeypatch.setattr(cli, sweep, must_not_run)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(argv + ["--output", str(target)], capsys)
    assert code == EXIT_BAD_INPUT and f"no directory for --output {target}" in err
    assert out == "" and list(tmp_path.iterdir()) == []


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
        "3aa584a1380dcbc06daf0c841b71dd13e04e78b969c0d3bb5f4ad56330f6377c", "aff94d15e70c159e",
        "phi stabilized at 7 (cap 24); upper bound 7 via (i=1, p='0101'); 841 applicable pairs\n",
    ),
}


@pytest.mark.parametrize("name", PINNED_EXPORTS)
def test_export_bytes_are_pinned(name, tmp_path, capsys, monkeypatch):
    for env in [k for k in os.environ if k.startswith("KOLMOBENCH_")]:
        monkeypatch.delenv(env)
    argv, export_sha, manifest_digest, stderr = PINNED_EXPORTS[name]
    out = tmp_path / "export"
    code, stdout, err = run_cli(argv + ["--output", str(out)], capsys)
    assert (code, stdout, err) == (EXIT_OK, "", stderr)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == export_sha
    manifest = json.loads((tmp_path / "export.manifest.json").read_text())
    assert _manifest_digest(manifest) == manifest_digest


def test_stdout_export_is_pinned(capsys, monkeypatch):
    # Without --output the export goes to stdout and its manifest to stderr, on one line.
    for env in [k for k in os.environ if k.startswith("KOLMOBENCH_")]:
        monkeypatch.delenv(env)
    code, stdout, err = run_cli(["bb", "1", "--budget", "16"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "b27c8969e56f4ee326f0d11a0f51168ede915aaed77158fa6bfc6a51e4827307"
    )
    manifest, summary = err.splitlines()
    assert _manifest_digest(json.loads(manifest)) == "30d96e8de2e30a9b"
    assert summary == "n=1: max_steps=3 decided_all=True undecided=0 budget=16"


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
    assert "must be >= 0" in err and not out
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
    for name in [k for k in os.environ if k.startswith("KOLMOBENCH_")]:
        monkeypatch.delenv(name)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv, export_sha, manifest_digest, stderr = PINNED_EXPORTS["flawed-csv"]
    out = tmp_path / "export"
    assert run_cli(argv + ["--output", str(out)], capsys) == (EXIT_OK, "", stderr)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == export_sha
    manifest = json.loads((tmp_path / "export.manifest.json").read_text())
    assert manifest["runtime"]["threads"] == 1
    assert _manifest_digest(manifest) == manifest_digest


def test_max_states_and_threads_variables_reach_the_other_schemes(tmp_path, monkeypatch,
                                                                  capsys):
    monkeypatch.setenv("KOLMOBENCH_MAX_STATES", "1")
    monkeypatch.setenv("KOLMOBENCH_THREADS", "2")
    argv, export_sha = PINNED_EXPORTS["frequency-json"][:2]
    out = tmp_path / "export"
    flagless = [a for a in argv if a not in ("--max-states", "1")]
    assert run_cli(flagless + ["--output", str(out)], capsys)[0] == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == export_sha
    manifest = json.loads((tmp_path / "export.manifest.json").read_text())
    assert manifest["runtime"]["threads"] == 2


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


def test_env_variable_overrides_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KOLMOBENCH_BUDGET", "32")
    monkeypatch.setenv("KOLMOBENCH_OUT", "json")
    code, out, _ = run_cli(["bb", "1"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["budget_used"] == 32
    monkeypatch.setenv("KOLMOBENCH_BUDGET", "not-a-number")
    with pytest.raises(SystemExit):
        main(["bb", "1"])
    capsys.readouterr()
    monkeypatch.setenv("KOLMOBENCH_BUDGET", "0")
    assert run_cli(["estimate", "1"], capsys)[0] == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "env, flags, flag",
    [
        ({"KOLMOBENCH_THREADS": "x"}, [], "--threads"),
        ({"KOLMOBENCH_SEED": "y"}, [], "--seed"),
        ({"KOLMOBENCH_MAX_STATES": "z"}, [], "--max-states"),
        ({}, ["--threads", "0"], "--threads"),
        ({}, ["--threads", "-3"], "--threads"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["bb", "1"],
        ["ctm", "--scheme", "corrected", "--L", "1", "--universe-interval", "1:20"],
        ["estimate", "1", "--universe-interval", "1:20"],
    ],
)
def test_malformed_env_values_and_threads_below_one_exit_2(
    env, flags, flag, argv, tmp_path, monkeypatch, capsys
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "export"
    code, _, err = run_cli(argv + flags + ["--budget", "8", "--output", str(out)], capsys)
    if argv[0] == "bb" and flag == "--max-states":
        # bb takes no --max-states, so it ignores KOLMOBENCH_MAX_STATES.
        assert code == EXIT_OK and out.exists()
        return
    assert code == EXIT_BAD_INPUT
    assert f"argument {flag}" in err
    assert not out.exists()


def test_env_threads_reaches_the_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KOLMOBENCH_THREADS", "2")
    out = tmp_path / "bb.csv"
    assert run_cli(["bb", "1", "--budget", "8", "--output", str(out)], capsys)[0] == EXIT_OK
    manifest = json.loads((tmp_path / "bb.csv.manifest.json").read_text())
    assert manifest["runtime"]["threads"] == 2


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

    for name in [k for k in os.environ if k.startswith("KOLMOBENCH_")]:
        monkeypatch.delenv(name)  # the benchmark starts its ops without them
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
