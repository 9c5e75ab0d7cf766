"""The two control laws as pure step functions.

Both laws descend an objective ``J`` using randomized forward differences:
probe ``J`` at ``x + c*sigma`` for sign vectors ``sigma``, divide the change
by ``c``, and multiply element-wise by ``sigma`` again (each sign vector is
its own element-wise inverse).

BC, the baseline two-stage law, physically moves every agent by ``c*sigma``
on even steps and, on odd steps, cancels the probe while stepping along the
resulting gradient estimate.  Its memory is the even step's signs,
objective value and gains ``(a, c)``, which the caller keeps.  PBC
replaces the physical probe with ``K`` virtual perturbed states evaluated
centrally; the supervisor broadcasts the ``K`` objective differences and
each agent moves once per step, combining them with its own private signs.
Both laws descend through ``pbc_local_input``; BC's odd step is its K = 1 case.

The caller measures ``J`` at the state once per step and hands the value
down as ``j_x``: BC evaluates nothing, and PBC evaluates only its ``K``
probes.

Local inputs are computed from the broadcast vector, the agent's own signs,
and the gains alone; no agent-to-agent information exists anywhere in these
functions.

Both laws take the gains ``(a, c)`` as plain numbers and trust them.  A
run's gains come from its ``ExperimentConfig``, whose ``a0 ... t_v`` were
checked when it was built, through the gain formulas below, which the
engine's step loop calls: the loop owns the clock.  The one check left on
the step path is the finiteness test that ends a diverged trial.
"""

from __future__ import annotations

import math

import numpy as np

from .state import NonFiniteError, apply_input


def _power_gain(g0: float, p: float, t_v: float, t: int) -> float:
    # a negative t + t_v to a fractional power would be a complex number
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return g0 / (t + t_v) ** p


def gain_a(config, t: int) -> float:
    """Step size ``a0/(t + t_v)**a_p`` of ``config`` at step ``t``: strictly
    positive, strictly decreasing."""
    return _power_gain(config.a0, config.a_p, config.t_v, t)


def gain_c(config, t: int) -> float:
    """Probe radius ``c0/(t + t_v)**c_p`` of ``config`` at step ``t``:
    strictly positive, strictly decreasing."""
    return _power_gain(config.c0, config.c_p, config.t_v, t)


def bc_gains_at(config, t_bc: int) -> tuple[float, float]:
    """Stair-stepped gains for the two-stage law at its own step counter.

    Steps ``2t`` and ``2t+1`` share the single-stage gains at ``t``, so
    ``bc_gains_at(config, 2*t) == (gain_a(config, t), gain_c(config, t))``
    exactly.
    """
    # through _power_gain, not gain_a and gain_c, so that a two-stage step
    # makes one gain call, as the single-stage step makes two
    t, t_v = t_bc // 2, config.t_v  # a negative t_bc floors to a negative t, refused
    return _power_gain(config.a0, config.a_p, t_v, t), _power_gain(config.c0, config.c_p, t_v, t)


def _checked_j(J, values: np.ndarray) -> float:
    v = float(J(values))
    if not math.isfinite(v):
        raise NonFiniteError(f"objective evaluated to {v!r}")
    return v


def bc_step(
    x: np.ndarray, t: int, a: float, c: float, sigma: np.ndarray, j_even: float, j_x: float
):
    """One step of the two-stage law.  Returns ``(x', u)``.

    ``sigma`` and ``j_even`` are the law's memory: the signs and the
    objective value ``J(x)`` of the even step that opens the pair; ``j_x``
    is the value the caller measured at ``x``; ``t`` gives the parity only.
    Even ``t``: every agent takes the probe ``u = c*sigma``, and ``j_x`` is
    not read.  Odd ``t``: the probe is cancelled and ``pbc_local_input``
    descends the broadcast ``[j_x - j_even]`` on the one-row block ``sigma``:

        u = -c*sigma - a * (j_x - j_even)/c * sigma
    """
    if t % 2 == 0:
        u = c * sigma
    else:
        u = (-c) * sigma + pbc_local_input(np.array([j_x - j_even]), sigma[None], a, c)
    return apply_input(x, u), u


def pbc_broadcast(
    x: np.ndarray, block: np.ndarray, c: float, J, j_x: float
) -> np.ndarray:
    """Evaluate the K virtual probes: the broadcast ``(K,)`` array
    ``nu[k] = J(x + c*sigma_k) - j_x``, with ``j_x`` the measured ``J(x)``.

    Exactly ``K`` objective evaluations.  The virtual states are local
    temporaries; agents never visit them.
    """
    nu = np.empty(block.shape[0])
    for k, sigma in enumerate(block):
        nu[k] = _checked_j(J, x + c * sigma) - j_x
    return nu


def pbc_local_input(
    nu: np.ndarray, block: np.ndarray, a: float, c: float
) -> np.ndarray:
    """Combine the broadcast with the agent's own signs:

        u = -a * (1/K) * sum_k (nu[k]/c) * sigma_k

    ``nu`` holds one entry per row of ``block``; ``bc_step``'s odd step
    calls this with ``K = 1``.  The division by ``K = 1`` is skipped
    because it is exact.
    """
    K = block.shape[0]
    nu = nu.tolist()
    acc = (nu[0] / c) * block[0]
    acc *= -a
    for k in range(1, K):
        term = (nu[k] / c) * block[k]
        term *= -a
        acc += term
    if K > 1:
        acc /= K
    return acc


def pbc_step(x: np.ndarray, a: float, c: float, block: np.ndarray, J, j_x: float):
    """One step of the virtual-perturbation law from ``x``, whose measured
    objective value is ``j_x``, at the gains ``(a, c)``.  Returns ``(x', u)``.

    Single-stage: broadcast the K probe differences, form the local input,
    and move once.
    """
    nu = pbc_broadcast(x, block, c, J, j_x)
    u = pbc_local_input(nu, block, a, c)
    return apply_input(x, u), u
