import dataclasses
import math

import numpy as np
import pytest

from broadcast_control.config import ConfigError, GainSchedule
from broadcast_control.controllers import bc_gains_at, gain_a, gain_c

STANDARD = GainSchedule(a0=2.0, a_p=0.7, c0=0.003, c_p=0.16, t_v=20.0)


def test_gain_a_standard_params():
    # direct power evaluation, cross-checked through the log/exp identity
    expected = math.exp(math.log(2.0) - 0.7 * math.log(20.0))
    got = gain_a(STANDARD, 0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.245646, abs=1e-6)


def test_gain_a_unit_case():
    assert gain_a(GainSchedule(1.0, 1.0, 1.0, 0.3, 1.0), 0) == 1.0


def test_gain_a_strictly_decreasing():
    vals = [gain_a(STANDARD, t) for t in range(1001)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_gain_c_standard_params():
    expected = math.exp(math.log(0.003) - 0.16 * math.log(20.0))
    got = gain_c(STANDARD, 0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.0018576, abs=1e-7)


def test_gain_c_unit_and_decay():
    assert gain_c(GainSchedule(1.0, 1.0, 1.0, 0.3, 1.0), 0) == 1.0
    assert gain_c(STANDARD, 10**6) < gain_c(STANDARD, 10**3)


def _schedule_errors(**fields) -> list:
    """The conditions a schedule built from ``fields`` breaks."""
    with pytest.raises(ConfigError) as err:
        GainSchedule(**fields)
    assert str(err.value) == "; ".join(err.value.violations)
    return err.value.violations


def test_validate_standard_is_valid():
    # 2*0.7 - 2*0.16 = 1.08 > 1 and 0.7 + 0.32 = 1.02 > 1: builds, no error
    assert GainSchedule(a0=2.0, a_p=0.7, c0=0.003, c_p=0.16, t_v=20.0) == STANDARD


def test_validate_reports_each_condition():
    # a_p = 0.5 breaks 2*a_p - 2*c_p > 1 (0.68) and drags a_p + 2*c_p under too
    out = _schedule_errors(a0=2.0, a_p=0.5, c0=0.003, c_p=0.16, t_v=20.0)
    assert any("2*a_p - 2*c_p" in v and "0.68" in v for v in out)
    assert any("a_p + 2*c_p" in v and "0.82" in v for v in out)
    assert len(out) == 2

    out = _schedule_errors(a0=2.0, a_p=0.7, c0=0.003, c_p=0.16, t_v=0.0)
    assert len(out) == 1 and "t_v" in out[0]

    out = _schedule_errors(a0=-1.0, a_p=1.5, c0=-0.1, c_p=-0.2, t_v=-3.0)
    names = "\n".join(out)
    for frag in ("t_v", "a_p", "c_p", "a0", "c0"):
        assert frag in names


def test_invalid_schedule_fails_loudly():
    with pytest.raises(ConfigError, match="2\\*a_p - 2\\*c_p"):
        GainSchedule(2.0, 0.5, 0.003, 0.16, 20.0)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ConfigError, match="a0"):
            GainSchedule(bad, 0.7, 0.003, 0.16, 20.0)
        with pytest.raises(ConfigError, match="c0"):
            GainSchedule(2.0, 0.7, bad, 0.16, 20.0)
    # a copy with a changed field is built, and checked, again
    with pytest.raises(ConfigError, match="t_v"):
        dataclasses.replace(STANDARD, t_v=-1.0)


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        gain_a(STANDARD, -1)
    with pytest.raises(ValueError):
        bc_gains_at(STANDARD, -2)


def test_bc_gains_stair_step():
    assert bc_gains_at(STANDARD, 0) == bc_gains_at(STANDARD, 1)
    assert bc_gains_at(STANDARD, 2) == (gain_a(STANDARD, 1), gain_c(STANDARD, 1))
    assert bc_gains_at(STANDARD, 0) == (
        pytest.approx(0.245646, abs=1e-6),
        pytest.approx(0.0018576, abs=1e-7),
    )
    for t in range(50):
        assert bc_gains_at(STANDARD, 2 * t) == (gain_a(STANDARD, t), gain_c(STANDARD, t))


def _series(sched, terms=10**6):
    t = np.arange(terms, dtype=float)
    a = sched.a0 / (t + sched.t_v) ** sched.a_p
    c = sched.c0 / (t + sched.t_v) ** sched.c_p
    return a, c


def test_step_size_sum_diverges():
    # partial sums keep climbing at the power-law rate: unbounded trend
    a, _ = _series(STANDARD)
    partial = np.cumsum(a)
    assert partial[10**4 - 1] > 2 * partial[10**3 - 1]
    assert partial[10**5 - 1] > 1.5 * partial[10**4 - 1]
    assert partial[10**6 - 1] > 1.5 * partial[10**5 - 1]


def test_ratio_square_sum_converges():
    # (a/c)^2 decays like t**-1.08 for the standard schedule, so decade
    # tails shrink geometrically (Cauchy trend) but slowly; a valid
    # fast-decay schedule meets the hard 1e-3 tail bound.
    a, c = _series(STANDARD)
    ratio_sq = (a / c) ** 2
    decades = [ratio_sq[10**k : 10 ** (k + 1)].sum() for k in range(2, 6)]
    assert all(nxt < 0.95 * cur for cur, nxt in zip(decades, decades[1:]))

    fast = GainSchedule(a0=2.0, a_p=1.0, c0=0.003, c_p=0.01, t_v=20.0)
    a, c = _series(fast)
    ratio_sq = (a / c) ** 2
    assert ratio_sq[10**5 :].sum() < 1e-3 * ratio_sq.sum()
