import csv
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "workbench",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("workbench")

from kolmobench.enumeration import MachineRange


@pytest.fixture(scope="session")
def small_universe():
    return MachineRange(1, 2)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each process pool ``halting.sweep`` starts."""
    import concurrent.futures

    sizes, real = [], concurrent.futures.ProcessPoolExecutor

    def pool(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return sizes


def _parse_table(text: str, fmt: str = "csv"):
    """(entries, meta) of a ctm export, read with csv or json alone, not with
    kolmobench; the int/str digit limit is lifted for flawed denominators."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            doc = json.loads(text)
            entries = {e["output"]: Fraction(int(e["num"]), int(e["den"])) for e in doc["entries"]}
            assert Fraction(doc["total"]["num"], doc["total"]["den"]) == sum(entries.values())
            return entries, doc["meta"]
        rows = list(csv.DictReader(line for line in text.splitlines() if line[:1] != "#"))
        entries = {
            r["output_string"]: Fraction(int(r["mass_numerator"]), int(r["mass_denominator"]))
            for r in rows
        }
        (meta,) = {(r["scheme"], r["universe"], r["budget"], r["L"]) for r in rows}
        scheme, universe, budget, block = meta
        return entries, {"scheme": scheme, "universe": universe, "budget": int(budget),
                         "L": int(block) if block else None}
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="session")
def parse_table():
    """``parse_table(text, fmt)``: a ctm export's exact masses and meta."""
    return _parse_table
