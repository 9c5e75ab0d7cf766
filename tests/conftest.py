import numpy as np
import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws 1000 examples, ten times the default,
# in every property test that does not pin max_examples
settings.register_profile("ci", max_examples=1000)


def scalar_state(*values: float) -> np.ndarray:
    return np.asarray(values, dtype=float)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
