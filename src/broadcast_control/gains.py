"""Power-law gain schedules and their validity conditions.

The step-size sequence ``a(t) = a0 / (t + t_v)**a_p`` and probe-radius
sequence ``c(t) = c0 / (t + t_v)**c_p`` drive both control laws.  A schedule
is valid when

    0 < t_v < inf,    0 < a_p <= 1,    c_p > 0,
    2*a_p - 2*c_p > 1,    a_p + 2*c_p > 1,
    0 < a0 < inf,    0 < c0 < inf,

which by the p-series criteria makes ``sum a(t)`` diverge while
``sum (a/c)**2`` and ``sum a*c**2`` converge, the decay rates the stochastic
gradient iteration needs.  ``GainSchedule`` checks them when it is built, so
the gain functions check only their step argument.  The two-stage law
consumes the same schedule stair-stepped: steps ``2t`` and ``2t+1`` both use
the single-stage gains at ``t``, so a pair of its steps matches one
single-stage step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InvalidScheduleError(ValueError):
    """Invalid gain schedule; ``violations`` lists every broken condition."""

    def __init__(self, violations: list):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class GainSchedule:
    a0: float
    a_p: float
    c0: float
    c_p: float
    t_v: float

    def __post_init__(self):
        a_p, c_p = self.a_p, self.c_p
        gap, reach = 2 * a_p - 2 * c_p, a_p + 2 * c_p
        # (condition, whether it holds, the values it was tested on)
        rows = (
            ("0 < t_v < inf", 0 < self.t_v < math.inf, f"t_v = {self.t_v:g}"),
            ("0 < a_p <= 1", 0 < a_p <= 1, f"a_p = {a_p:g}"),
            ("c_p > 0", c_p > 0, f"c_p = {c_p:g}"),
            ("2*a_p - 2*c_p > 1", gap > 1, f"2*{a_p:g} - 2*{c_p:g} = {gap:g}"),
            ("a_p + 2*c_p > 1", reach > 1, f"{a_p:g} + 2*{c_p:g} = {reach:g}"),
            ("0 < a0 < inf", 0 < self.a0 < math.inf, f"a0 = {self.a0:g}"),
            ("0 < c0 < inf", 0 < self.c0 < math.inf, f"c0 = {self.c0:g}"),
        )
        out = [f"{cond} violated ({detail})" for cond, holds, detail in rows if not holds]
        if out:
            raise InvalidScheduleError(out)


def gain_a(sched: GainSchedule, t: int) -> float:
    """Step size at step ``t``: strictly positive, strictly decreasing."""
    # a negative t + t_v to a fractional power would be a complex number
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return sched.a0 / (t + sched.t_v) ** sched.a_p


def gain_c(sched: GainSchedule, t: int) -> float:
    """Probe radius at step ``t``: strictly positive, strictly decreasing."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return sched.c0 / (t + sched.t_v) ** sched.c_p


def bc_gains_at(sched: GainSchedule, t_bc: int) -> tuple[float, float]:
    """Stair-stepped gains for the two-stage law at its own step counter.

    Steps ``2t`` and ``2t+1`` share the single-stage gains at ``t``, so
    ``bc_gains_at(sched, 2*t) == (gain_a(sched, t), gain_c(sched, t))``
    exactly.
    """
    t = t_bc // 2  # a negative t_bc floors to a negative t, which gain_a rejects
    return gain_a(sched, t), gain_c(sched, t)
