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
