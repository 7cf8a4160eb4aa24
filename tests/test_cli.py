import json

import pytest

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
    code, _, err = run_cli(
        ["estimate", "1", "--cap", "40", "--budget", "4"], capsys
    )
    assert code == EXIT_RESOURCE
    assert "refusal" in err


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
    lines = open(cache).read().splitlines()
    rec = json.loads(lines[0])
    rec["steps"] = (rec["steps"] or 0) + 7
    rec["status"] = "halted"
    rec["output"] = "0"
    lines[0] = json.dumps(rec)
    open(cache, "w").write("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        ["cache", "verify", "--cache-path", cache,
         "--sample", str(len(lines)), "--seed", "3"],
        capsys,
    )
    assert code == EXIT_VERIFY_FAILED


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
    [("frequency", "--L", "2"), ("corrected", "--N", "10"), ("frequency", "--N", "10")],
)
def test_ctm_rejects_flags_of_other_schemes(flags, capsys):
    scheme, *rest = flags
    code, _, err = run_cli(
        ["ctm", "--scheme", scheme, *rest, "--max-states", "1", "--budget", "8"], capsys
    )
    assert code == EXIT_BAD_INPUT and "applies to the" in err


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
