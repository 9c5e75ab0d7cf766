"""Power-law gain schedules and their validity conditions.

The step-size sequence ``a(t) = a0 / (t + t_v)**a_p`` and probe-radius
sequence ``c(t) = c0 / (t + t_v)**c_p`` drive both control laws.  A schedule
is valid when

    0 < t_v < inf,    0 < a_p <= 1,    c_p > 0,
    2*a_p - 2*c_p > 1,    a_p + 2*c_p > 1,
    0 < a0 < inf,    0 < c0 < inf,

which by the p-series criteria makes ``sum a(t)`` diverge while
``sum (a/c)**2`` and ``sum a*c**2`` converge, the decay rates the stochastic
gradient iteration needs.  The two-stage law consumes the same schedule
stair-stepped: steps ``2t`` and ``2t+1`` both use the single-stage gains at
``t``, so a pair of its steps matches one single-stage step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


class InvalidScheduleError(ValueError):
    """Raised when a gain is requested from an invalid schedule."""


@dataclass(frozen=True)
class GainSchedule:
    a0: float
    a_p: float
    c0: float
    c_p: float
    t_v: float

    def violations(self) -> list[str]:
        """Return each violated validity condition, empty when valid."""
        out = []
        if not 0 < self.t_v < math.inf:
            out.append(f"0 < t_v < inf violated (t_v = {self.t_v:g})")
        if not (0 < self.a_p <= 1):
            out.append(f"0 < a_p <= 1 violated (a_p = {self.a_p:g})")
        if not self.c_p > 0:
            out.append(f"c_p > 0 violated (c_p = {self.c_p:g})")
        if not 2 * self.a_p - 2 * self.c_p > 1:
            out.append(
                "2*a_p - 2*c_p > 1 violated "
                f"(2*{self.a_p:g} - 2*{self.c_p:g} = {2 * self.a_p - 2 * self.c_p:g})"
            )
        if not self.a_p + 2 * self.c_p > 1:
            out.append(
                "a_p + 2*c_p > 1 violated "
                f"({self.a_p:g} + 2*{self.c_p:g} = {self.a_p + 2 * self.c_p:g})"
            )
        if not 0 < self.a0 < math.inf:
            out.append(f"0 < a0 < inf violated (a0 = {self.a0:g})")
        if not 0 < self.c0 < math.inf:
            out.append(f"0 < c0 < inf violated (c0 = {self.c0:g})")
        return out

    @cached_property
    def _violation_message(self) -> str:
        # fields are frozen, so the conditions are checked once per instance
        return "; ".join(self.violations())

    def _require_valid(self) -> None:
        if self._violation_message:
            raise InvalidScheduleError(self._violation_message)


def gain_a(sched: GainSchedule, t: int) -> float:
    """Step size at step ``t``: strictly positive, strictly decreasing."""
    sched._require_valid()
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return sched.a0 / (t + sched.t_v) ** sched.a_p


def gain_c(sched: GainSchedule, t: int) -> float:
    """Probe radius at step ``t``: strictly positive, strictly decreasing."""
    sched._require_valid()
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
