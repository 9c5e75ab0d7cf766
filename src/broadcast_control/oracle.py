"""Exact verifiers for the estimator identities and the paired-law claims.

Everything here is brute force on purpose: expectations over sign vectors
are computed by full enumeration of the outcome space (capped so checks stay
exact and fast), and the paired-run claims are measured directly on
trajectories.  None of these code paths share arithmetic with the
controllers they certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import TrialRecord

ENUMERATION_CAP = 22  # outcome space 2**(nN*K); beyond this we refuse, never sample
_CHUNK = 1 << 16


class EnumerationTooLarge(ValueError):
    pass


def _outcomes(d: int, K: int) -> int:
    """Size of the ``2**(d*K)`` outcome space, refused above the cap."""
    if d < 1 or K < 1:
        raise ValueError("state length and K must be positive")
    if d * K > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"enumeration over 2**{d * K} outcomes exceeds the "
            f"cap of 2**{ENUMERATION_CAP}; this oracle never falls back to sampling"
        )
    return 1 << (d * K)


def enumerate_signs(d: int) -> np.ndarray:
    """All 2**d sign vectors as a (2**d, d) array.

    Row ``m`` reads the bits of ``m`` most-significant-first: bit set gives
    +1.  The order is fixed so enumerated reductions are deterministic.
    """
    m = np.arange(1 << d, dtype=np.int64)
    bits = (m[:, None] >> np.arange(d - 1, -1, -1)[None, :]) & 1
    return np.where(bits == 1, 1.0, -1.0)


def _all_estimates(x: np.ndarray, c: float, J) -> np.ndarray:
    """Gradient estimates for every sign vector: (2**d, d)."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    signs = enumerate_signs(d)
    base = float(J(x))
    g = np.empty_like(signs)
    for m in range(signs.shape[0]):
        g[m] = ((float(J(x + c * signs[m])) - base) / c) * signs[m]
    return g


def enumerate_expected_gradient(x: np.ndarray, c: float, K: int, J) -> np.ndarray:
    """Exact expectation of the K-probe mean estimate over all sign draws.

    The mean of ``(1/K) sum_k g(sigma_k)`` over the full product space
    collapses, term by term, to the mean of ``g`` over the 2**d single-probe
    outcomes, so that smaller sum is what gets computed (it is the same
    number with less floating-point work).
    """
    x = np.asarray(x, dtype=np.float64)
    _outcomes(x.shape[0], K)
    return _all_estimates(x, c, J).mean(axis=0)


def _iter_mean_estimates(x: np.ndarray, c: float, K: int, J):
    """Yield chunks of the K-probe mean estimate, one row per outcome of the
    full 2**(d*K) product space, in fixed mixed-radix order."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    total = _outcomes(d, K)
    g = _all_estimates(x, c, J)
    base = 1 << d
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        idx = np.empty((codes.shape[0], K), dtype=np.int64)
        rem = codes
        for k in range(K - 1, -1, -1):
            idx[:, k] = rem % base
            rem = rem // base
        yield g[idx].mean(axis=1)


def enumerate_estimator_variance(x: np.ndarray, c: float, K: int, J) -> np.ndarray:
    """Componentwise variance of the K-probe mean estimate, enumerated over
    the full product space (this is the honest route; no 1/K shortcut)."""
    acc = None
    acc2 = None
    count = 0
    for chunk in _iter_mean_estimates(x, c, K, J):
        s = chunk.sum(axis=0)
        s2 = (chunk * chunk).sum(axis=0)
        acc = s if acc is None else acc + s
        acc2 = s2 if acc2 is None else acc2 + s2
        count += chunk.shape[0]
    mean = acc / count
    return acc2 / count - mean * mean


def expected_next_cost(x: np.ndarray, a: float, c: float, K: int, J) -> float:
    """Exact ``E[J(x - a * mean_k g(sigma_k))]`` by full enumeration."""
    x = np.asarray(x, dtype=np.float64)
    total = 0.0
    count = 0
    for chunk in _iter_mean_estimates(x, c, K, J):
        nxt = x[None, :] - a * chunk
        total += sum(float(J(nxt[m])) for m in range(nxt.shape[0]))
        count += chunk.shape[0]
    return total / count


def expected_distance_power(
    x: np.ndarray, a: float, c: float, K: int, kappa: float, J, n: int = 1
) -> float:
    """Exact ``E[sum_i |u_i|**kappa]`` of the per-step move, by enumeration.

    ``n`` is the per-agent dimension used to slice the flat input.
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] % n != 0:
        raise ValueError(f"state length {x.shape[0]} is not a multiple of n={n}")
    total = 0.0
    count = 0
    for chunk in _iter_mean_estimates(x, c, K, J):
        u = -a * chunk
        per_agent = np.linalg.norm(u.reshape(u.shape[0], -1, n), axis=2)
        total += float((per_agent**kappa).sum())
        count += chunk.shape[0]
    return total / count


# ---------------------------------------------------------------------------
# paired-run checks


@dataclass
class TwiceSpeedReport:
    """Deviation between the single-stage run at t and the two-stage run at 2t."""

    max_state_deviation: float
    max_objective_deviation: float  # relative: |dJ| / (1 + J)
    steps_compared: int


def check_twice_speed(rec_bc: TrialRecord, rec_pbc: TrialRecord) -> TwiceSpeedReport:
    """Measure ``sup_t |x_pbc(t) - x_bc(2t)|_inf`` and the matching
    objective deviation over the paired horizon."""
    T = rec_pbc.steps
    if rec_bc.steps < 2 * T:
        raise ValueError(
            f"two-stage record holds {rec_bc.steps} steps, need {2 * T} for pairing"
        )
    x_bc = rec_bc.states[0 : 2 * T + 1 : 2]
    dev = np.abs(rec_pbc.states - x_bc).max()
    j_bc = rec_bc.j_trace[0 : 2 * T + 1 : 2]
    j_dev = (np.abs(rec_pbc.j_trace - j_bc) / (1.0 + rec_pbc.j_trace)).max()
    return TwiceSpeedReport(
        max_state_deviation=float(dev),
        max_objective_deviation=float(j_dev),
        steps_compared=T,
    )


@dataclass
class DistanceDominanceReport:
    min_margin: float
    margins: np.ndarray  # D_bc(2t) - D_pbc(t), t = 0..T
    final_margin: float


def check_distance_dominance(
    rec_bc: TrialRecord, rec_pbc: TrialRecord
) -> DistanceDominanceReport:
    """Path-wise distance comparison ``D_bc(2t) - D_pbc(t)`` over the pair."""
    T = rec_pbc.steps
    if rec_bc.steps < 2 * T:
        raise ValueError(
            f"two-stage record holds {rec_bc.steps} steps, need {2 * T} for pairing"
        )
    margins = rec_bc.d_trace[0 : 2 * T + 1 : 2] - rec_pbc.d_trace
    return DistanceDominanceReport(
        min_margin=float(margins.min()),
        margins=margins,
        final_margin=float(margins[-1]),
    )


# ---------------------------------------------------------------------------
# probe-count ordering


@dataclass
class KMonotonicityReport:
    K_list: tuple
    cost_values: tuple
    distance_values: dict  # kappa -> tuple of values
    direction: str  # "convex" or "concave"
    verdict: bool


def check_k_monotonicity(
    x: np.ndarray, a: float, c: float, K_list, J, direction: str
) -> KMonotonicityReport:
    """Enumerate expected next cost and per-step distance powers (``kappa``
    1 and 2) across probe counts, and judge their ordering in K.

    With ``direction='convex'`` the verdict asserts the expected cost is
    non-increasing in K; ``'concave'`` asserts the reversed ordering.
    Distance powers must be non-increasing in K in either case and are
    folded into the verdict.
    """
    if direction not in ("convex", "concave"):
        raise ValueError(f"direction must be 'convex' or 'concave', got {direction!r}")
    K_list = tuple(int(k) for k in K_list)
    costs = tuple(expected_next_cost(x, a, c, k, J) for k in K_list)
    dists = {
        kappa: tuple(expected_distance_power(x, a, c, k, kappa, J) for k in K_list)
        for kappa in (1.0, 2.0)
    }

    def non_increasing(values, sign=1.0):
        v = [sign * val for _, val in sorted(zip(K_list, values), key=lambda kv: kv[0])]
        return all(b <= a_ + 1e-12 * (1 + abs(a_)) for a_, b in zip(v, v[1:]))

    verdict = non_increasing(costs, 1.0 if direction == "convex" else -1.0) and all(
        non_increasing(vals) for vals in dists.values()
    )
    return KMonotonicityReport(
        K_list=K_list,
        cost_values=costs,
        distance_values=dists,
        direction=direction,
        verdict=verdict,
    )


def random_spd_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Well-conditioned random symmetric positive-definite matrix."""
    A = rng.standard_normal((d, d)) / np.sqrt(d)
    H = A @ A.T + 0.5 * np.eye(d)
    return 0.5 * (H + H.T)


def descent_fraction(j_traces: np.ndarray, window: int = 50) -> float:
    """Fraction of trials whose trailing-window mean objective sits below the
    leading-window mean (the empirical convergence corollary)."""
    j = np.atleast_2d(np.asarray(j_traces, dtype=np.float64))
    if j.shape[1] < 2 * window:
        raise ValueError(
            f"traces of length {j.shape[1]} cannot fit two windows of {window}"
        )
    leading = j[:, :window].mean(axis=1)
    trailing = j[:, -window:].mean(axis=1)
    return float((trailing < leading).mean())
