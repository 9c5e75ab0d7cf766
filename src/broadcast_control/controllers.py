"""The two control laws as pure step functions.

Both laws descend an objective ``J`` using randomized forward differences:
probe ``J`` at ``x + c*sigma`` for sign vectors ``sigma``, divide the change
by ``c``, and multiply element-wise by ``sigma`` again (each sign vector is
its own element-wise inverse).

BC, the baseline two-stage law, physically moves every agent by ``c*sigma``
on even steps and, on odd steps, cancels the probe while stepping along the
resulting gradient estimate.  PBC replaces the physical probe with ``K``
virtual perturbed states evaluated centrally; the supervisor broadcasts the
``K`` objective differences and each agent moves once per step, combining
them with its own private signs.

Local inputs are computed from the broadcast vector, the agent's own signs,
and the gains alone; no agent-to-agent information exists anywhere in these
functions.

The gains come from a valid ``GainSchedule``, so they are finite and
positive.  The one check left on the step path is the finiteness test that
ends a diverged trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gains import GainSchedule, bc_gains_at, gain_a, gain_c
from .state import NonFiniteError, apply_input


def _checked_j(J, values: np.ndarray) -> float:
    v = float(J(values))
    if not math.isfinite(v):
        raise NonFiniteError(f"objective evaluated to {v!r}")
    return v


def _estimate_term(a: float, delta_j: float, c: float, sigma: np.ndarray) -> np.ndarray:
    # -a * (delta_j / c) * sigma, with a fixed association shared by both laws
    # so that paired runs agree bit-for-bit wherever the algebra does.
    return (-a) * ((delta_j / c) * sigma)


@dataclass
class BcLocalState:
    """Per-run memory of the two-stage law.

    ``phi1`` holds the sign vector of the preceding even step, ``phi2`` the
    objective value broadcast at that step, and ``parity`` the step parity
    expected next (0 = even).  The zero initialization is inert: the first
    even step never reads it.
    """

    phi1: np.ndarray
    phi2: float
    parity: int = 0

    @classmethod
    def initial(cls, nN: int) -> "BcLocalState":
        return cls(phi1=np.zeros(nN), phi2=0.0, parity=0)


def bc_step(
    x: np.ndarray,
    local: BcLocalState,
    t: int,
    sched: GainSchedule,
    sigma_block: np.ndarray | None,
    J,
    j_x: float | None = None,
):
    """One step of the two-stage law.  Returns ``(x', local', u)``.

    Even ``t``: every agent takes the random probe ``u = c*sigma`` (slice
    ``k=0`` of the block) and remembers ``(sigma, J(x))``.  Odd ``t``: the
    probe is cancelled and the remembered objective difference, scaled by
    ``a/c`` and the remembered signs, is descended:

        u = -c*phi1 - a * (J(x) - phi2)/c * phi1

    ``j_x`` may carry a precomputed ``J(x)`` so a caller tracing the
    objective costs one evaluation per step.
    """
    if t % 2 != local.parity:
        raise ValueError(f"step {t} does not match controller parity {local.parity}")
    a, c = bc_gains_at(sched, t)
    nu = _checked_j(J, x) if j_x is None else float(j_x)
    if t % 2 == 0:
        if sigma_block is None:
            raise ValueError("even steps require a perturbation block")
        sigma = sigma_block[0]
        u = c * sigma
        local2 = BcLocalState(phi1=sigma, phi2=nu, parity=1)
    else:
        u = (-c) * local.phi1 + _estimate_term(a, nu - local.phi2, c, local.phi1)
        local2 = BcLocalState(phi1=local.phi1, phi2=nu, parity=0)
    return apply_input(x, u), local2, u


def pbc_broadcast(
    x: np.ndarray,
    block: np.ndarray,
    c: float,
    J,
    j_x: float | None = None,
) -> np.ndarray:
    """Evaluate the K virtual probes: the broadcast ``(K,)`` array
    ``nu[k] = J(x + c*sigma_k) - J(x)``.

    Exactly ``K + 1`` objective evaluations (``K`` when ``j_x`` is supplied).
    The virtual states are local temporaries; agents never visit them.
    """
    base = _checked_j(J, x) if j_x is None else float(j_x)
    nu = np.empty(block.shape[0])
    for k, sigma in enumerate(block):
        nu[k] = _checked_j(J, x + c * sigma) - base
    return nu


def pbc_local_input(
    nu: np.ndarray, block: np.ndarray, a: float, c: float
) -> np.ndarray:
    """Combine the broadcast with the agent's own signs:

        u = -a * (1/K) * sum_k (nu[k]/c) * sigma_k

    ``nu`` holds one entry per row of ``block``.  Each term keeps
    ``_estimate_term``'s association, computed in place; the division by
    ``K = 1`` is skipped because it is exact.
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


def pbc_step(
    x: np.ndarray,
    t: int,
    sched: GainSchedule,
    block: np.ndarray,
    J,
    j_x: float | None = None,
):
    """One step of the virtual-perturbation law.  Returns ``(x', u)``.

    Single-stage: broadcast the K probe differences, form the local input,
    and move once.
    """
    a, c = gain_a(sched, t), gain_c(sched, t)
    nu = pbc_broadcast(x, block, c, J, j_x=j_x)
    u = pbc_local_input(nu, block, a, c)
    return apply_input(x, u), u
