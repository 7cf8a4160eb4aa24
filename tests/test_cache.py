import json
from pathlib import Path

import pytest

from kolmobench.cache import (
    CacheCorruptionError,
    VerdictCache,
    raw_to_record,
    record_to_raw,
)
from kolmobench.cli import EXIT_CACHE_CORRUPT, EXIT_OK, main


def test_record_round_trip_variants():
    # A record keeps only what the plain run did: a proved divergence reads
    # back as a run that did not halt within the budget.
    for raw in (
        ("h", 5, "101"),
        ("h", 2, None),
        ("d", ("cycle", 0, 2), 2),
        ("d", ("escape", 1, 0, "R"), 0),
        ("d", ("dir", 1, 4, "L"), 4),
        ("d", ("splice", 3, 9, -1, ((2, 1, 1), (5, 1, 2))), 9),
        ("u", 64),
    ):
        expected = ("u", 64) if raw[0] == "d" else raw
        rec = raw_to_record(7, "01", 64, raw)
        assert record_to_raw(rec) == expected
        # survives JSON text round trip too
        rec2 = json.loads(json.dumps(rec))
        assert record_to_raw(rec2) == expected


def test_cache_bytes_do_not_depend_on_divergence_certificates(tmp_path, monkeypatch):
    # A detector that reports another certificate and discovery step for every
    # divergent run writes the same cache file, byte for byte.
    import kolmobench.halting
    from kolmobench.halting import Simulator

    real, divergent = kolmobench.halting.analyze_table, []

    def other_certificates(table, input_syms, budget):
        res = real(table, input_syms, budget)
        if res[0] != "d":
            return res
        divergent.append(res)
        return ("d", ("cycle", 0, res[2] + 5), res[2] + 5)

    files = []
    for name in ("detector", "patched"):
        if name == "patched":
            monkeypatch.setattr(kolmobench.halting, "analyze_table", other_certificates)
        cache = VerdictCache(str(tmp_path / f"{name}.jsonl"))
        for i in range(1, 301):
            for p in ("", "0", "1"):
                Simulator(cache).raw_verdict(i, p, 32)
        cache.close()
        files.append((tmp_path / f"{name}.jsonl").read_bytes())
    assert len(divergent) > 100 and files[0] == files[1]


# Records as earlier versions wrote them: each has a "cert" field, and a proved
# divergence has status "diverges" with the detector's certificate and step.
OLDER_FORMAT = [
    '{"budget":2,"cert":["cycle",0,1],"i":2,"output":null,"p":"","status":"diverges","steps":1}',
    '{"budget":8,"cert":["dir",1,3,"L"],"i":74,"output":null,"p":"010","status":"diverges",'
    '"steps":3}',
    '{"budget":64,"cert":["splice",26,36,2,[]],"i":65290,"output":null,"p":"",'
    '"status":"diverges","steps":36}',
    '{"budget":2,"cert":null,"i":1,"output":"1","p":"01","status":"halted","steps":1}',
    '{"budget":8,"cert":null,"i":91,"output":null,"p":"010","status":"invalid","steps":2}',
    '{"budget":8,"cert":null,"i":916,"output":null,"p":"010","status":"unknown","steps":null}',
]


def test_older_format_loads_serves_and_verifies(tmp_path, capsys):
    path = tmp_path / "old.jsonl"
    path.write_text("\n".join(OLDER_FORMAT) + "\n", encoding="utf-8")
    cache = VerdictCache(str(path))
    assert [cache.lookup(i, p, b) for i, p, b in sorted(cache.records)] == [
        ("h", 1, "1"), ("u", 2), ("u", 8), ("h", 2, None), ("u", 8), ("u", 64)
    ]
    assert cache.status_counts() == {"halted": 1, "invalid": 1, "unknown": 4}
    assert main(["cache", "verify", "--cache-path", str(path)]) == EXIT_OK
    assert "verified 6 of 6 records; mismatches: 0" in capsys.readouterr().out
    # Compact writes every record in today's format: no "cert", no "diverges".
    assert main(["cache", "compact", "--cache-path", str(path)]) == EXIT_OK
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 6 and all("cert" not in rec for rec in lines)
    assert {rec["status"] for rec in lines} == {"halted", "invalid", "unknown"}


def test_cache_lookup_and_persistence(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    c = VerdictCache(path)
    assert c.lookup(1, "", 8) is None
    c.record(1, "", 8, ("h", 1, ""))
    c.record(2, "0", 8, ("u", 8))
    c.close()
    reopened = VerdictCache(path)
    assert reopened.lookup(1, "", 8) == ("h", 1, "")
    assert reopened.lookup(2, "0", 8) == ("u", 8)
    assert len(reopened) == 2
    assert reopened.status_counts() == {"halted": 1, "unknown": 1}


def test_duplicate_records_are_idempotent(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    c = VerdictCache(path)
    c.record(1, "", 8, ("h", 1, ""))
    c.record(1, "", 8, ("h", 1, ""))  # second write is a no-op
    c.close()
    assert len(Path(path).read_text().splitlines()) == 1


def test_conflicting_duplicate_is_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    r1 = raw_to_record(1, "", 8, ("h", 1, ""))
    r2 = raw_to_record(1, "", 8, ("h", 2, ""))
    path.write_text(
        json.dumps(r1) + "\n" + json.dumps(r2) + "\n", encoding="utf-8"
    )
    with pytest.raises(CacheCorruptionError) as e:
        VerdictCache(str(path))
    assert e.value.line_no == 2


def test_truncated_line_detected_with_line_number(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps(raw_to_record(1, "", 8, ("h", 1, "")))
    path.write_text(good + "\n" + good[: len(good) // 2] + "\n", encoding="utf-8")
    with pytest.raises(CacheCorruptionError) as e:
        VerdictCache(str(path))
    assert e.value.line_no == 2
    assert "JSON" in e.value.reason


def test_missing_field_detected(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"i": 1, "p": ""}\n', encoding="utf-8")
    with pytest.raises(CacheCorruptionError):
        VerdictCache(str(path))


def test_compact_removes_duplicate_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    rec = json.dumps(raw_to_record(1, "", 8, ("h", 1, "")), sort_keys=True)
    path.write_text(rec + "\n" + rec + "\n" + rec + "\n", encoding="utf-8")
    c = VerdictCache(str(path))
    assert c.compact() == 1
    assert len(path.read_text().splitlines()) == 1


HALT = {"budget": 4, "i": 1, "output": "1", "p": "01", "status": "halted", "steps": 1}
MALFORMED = {
    "number": "5",
    "list": "[1]",
    "string-steps": json.dumps({**HALT, "steps": "1"}),
    "number-output": json.dumps({**HALT, "output": 5}),
    "halted-null-output": json.dumps({**HALT, "output": None}),
    "zero-steps": json.dumps({**HALT, "steps": 0}),
    "steps-past-budget": json.dumps({**HALT, "steps": 5}),
    "zero-index": json.dumps({**HALT, "i": 0}),
    "string-index": json.dumps({**HALT, "i": "1"}),
    "bool-budget": json.dumps({**HALT, "budget": True}),
    "non-binary-program": json.dumps({**HALT, "p": "012"}),
    "null-program": json.dumps({**HALT, "p": None}),
    "list-status": json.dumps({**HALT, "status": ["halted"]}),
    "invalid-with-output": json.dumps({**HALT, "status": "invalid", "output": "1"}),
    "invalid-null-steps": json.dumps({**HALT, "status": "invalid", "steps": None, "output": None}),
    "index-past-layer-8": json.dumps({**HALT, "i": 10**60, "p": "", "status": "unknown",
                                      "steps": None, "output": None}),
}


@pytest.mark.parametrize("line", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_record_is_corruption(line, tmp_path, capsys):
    # A record of the wrong shape exits 4 and names its line, on every
    # command that reads the cache, and never reaches a phi scan.
    path = tmp_path / "c.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    for argv in (
        ["estimate", "1", "--budget", "4", "--universe-interval", "1:100", "--max-prog-len", "1"],
        ["cache", "inspect"],
        ["cache", "verify"],
    ):
        assert main([*argv, "--cache-path", str(path)]) == EXIT_CACHE_CORRUPT
        captured = capsys.readouterr()
        assert f"cache corruption: {path}:1: " in captured.err and not captured.out
    assert path.read_text() == line + "\n"
