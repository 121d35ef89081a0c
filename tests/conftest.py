import random

import pytest
from hypothesis import HealthCheck, settings

from random_inputs import SEED

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)
