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
