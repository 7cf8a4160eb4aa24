import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "workbench",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("workbench")

from kolmobench import halting
from kolmobench.enumeration import MachineRange


@pytest.fixture(scope="session")
def small_universe():
    return MachineRange(1, 2)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each fork pool ``halting.sweep`` starts."""
    sizes, real = [], halting.get_context

    class Context:
        def __init__(self, method):
            self.context = real(method)

        def Pool(self, processes):
            sizes.append(processes)
            return self.context.Pool(processes)

    monkeypatch.setattr(halting, "get_context", Context)
    return sizes
