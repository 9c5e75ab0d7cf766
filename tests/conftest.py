import numpy as np
import pytest
from hypothesis import settings

from broadcast_control import GainSchedule

# `pytest --hypothesis-profile=ci` draws 1000 examples, ten times the default,
# in every property test that does not pin max_examples
settings.register_profile("ci", max_examples=1000)


def unit_sched(a: float, c: float) -> GainSchedule:
    """Valid schedule whose gains at t=0 are exactly (a, c).

    With t_v = 1 the power terms are 1**p = 1, so a(0) = a0 and c(0) = c0
    exactly; the exponents satisfy the validity conditions.
    """
    return GainSchedule(a0=a, a_p=1.0, c0=c, c_p=0.2, t_v=1.0)


def scalar_state(*values: float) -> np.ndarray:
    return np.asarray(values, dtype=float)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
