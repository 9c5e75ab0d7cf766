"""Exact verifiers for the estimator identities and the paired-law claims.

Everything here is brute force on purpose: expectations over sign vectors
are computed by full enumeration of the outcome space (capped so checks stay
exact and fast), and the paired-run claims are measured directly on
trajectories.  Each oracle folds over everything it is given: the paired
checks take a list of ``(rec_bc, rec_pbc)`` pairs and report the worst pair,
and the enumerations sum over every outcome.  ``check_k_monotonicity`` is
the one enumeration of the probe-count expectations: the next cost and the
step lengths at every K, from one set of single-probe estimates.  None of
these code paths share arithmetic with the controllers they certify.  The
oracles only measure: ``verify`` holds every claim's bound and judges it.
"""

from __future__ import annotations

import numpy as np

ENUMERATION_CAP = 22  # outcome space 2**(nN*K); beyond this we refuse, never sample
_CHUNK = 1 << 16
_DESCENT_WINDOW = 50  # steps averaged at each end of a trace by descent_fraction


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


def enumerate_expected_gradient(x: np.ndarray, c: float, K: int, J) -> np.ndarray:
    """Exact expectation of the K-probe mean estimate over all sign draws.

    The mean of ``(1/K) sum_k g(sigma_k)`` over the full product space
    collapses, term by term, to the mean of ``g`` over the 2**d single-probe
    outcomes, so that smaller sum is what gets computed (it is the same
    number with less floating-point work).
    """
    return _estimates(x, c, K, J).mean(axis=0)


def _estimates(x: np.ndarray, c: float, K: int, J) -> np.ndarray:
    """Gradient estimates for every sign vector, ``(2**d, d)``, once the
    K-probe outcome space is known to be within the cap."""
    x = np.asarray(x, dtype=np.float64)
    _outcomes(x.shape[0], K)
    signs = enumerate_signs(x.shape[0])
    base = float(J(x))
    probes = x + c * signs
    vals = np.array([float(J(probes[m])) for m in range(probes.shape[0])])
    # the same IEEE operations as the per-row scalar form, row by row
    return ((vals - base) / c)[:, None] * signs


def _enumerated_mean(g: np.ndarray, K: int, term):
    """Add up ``term(chunk)``, each chunk's sum of a quantity, over chunks of
    the K-probe mean estimate built from the single-probe estimates ``g``,
    one row per outcome of the full 2**(d*K) product space in fixed
    mixed-radix order, and divide by the outcome count."""
    count = _outcomes(g.shape[1], K)
    base = g.shape[0]
    total = 0.0
    for start in range(0, count, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        idx = np.stack(np.unravel_index(codes, (base,) * K), axis=1)
        total = total + term(g[idx].mean(axis=1))
    return total / count


def enumerate_estimator_variance(x: np.ndarray, c: float, K: int, J) -> np.ndarray:
    """Componentwise variance of the K-probe mean estimate, enumerated over
    the full product space (this is the honest route; no 1/K shortcut)."""
    mean, square = _enumerated_mean(
        _estimates(x, c, K, J), K,
        lambda g: np.stack((g.sum(axis=0), (g * g).sum(axis=0))),
    )
    return square - mean * mean


# ---------------------------------------------------------------------------
# paired-run checks


def _paired_horizon(rec_bc, rec_pbc) -> int:
    """The single-stage horizon ``T``; the two-stage record must hold ``2T`` steps."""
    T = rec_pbc.steps
    if rec_bc.steps < 2 * T:
        raise ValueError(
            f"two-stage record holds {rec_bc.steps} steps, need {2 * T} for pairing"
        )
    return T


def check_twice_speed(pairs) -> tuple:
    """``(state, objective)``: the worst ``sup_t |x_pbc(t) - x_bc(2t)|_inf``
    and the worst relative objective deviation ``|dJ| / (1 + J)`` over each
    ``(rec_bc, rec_pbc)`` pair's horizon (0 for no pairs; a NaN is kept)."""
    dev = j_dev = 0.0
    for rec_bc, rec_pbc in pairs:
        T = _paired_horizon(rec_bc, rec_pbc)
        x_bc = rec_bc.states[0 : 2 * T + 1 : 2]
        dev = np.abs(rec_pbc.states - x_bc).max(initial=dev)
        j_bc, j_pbc = rec_bc.j_trace[0 : 2 * T + 1 : 2], rec_pbc.j_trace
        j_dev = (np.abs(j_pbc - j_bc) / (1.0 + j_pbc)).max(initial=j_dev)
    return float(dev), float(j_dev)


def check_distance_dominance(pairs) -> tuple:
    """``(least, strict)``: the least margin ``D_bc(2t) - D_pbc(t)`` over
    ``t = 0..T`` and each ``(rec_bc, rec_pbc)`` pair (``inf`` for no pairs),
    and the number of pairs whose margin at ``T`` is positive."""
    least, strict = np.inf, 0
    for rec_bc, rec_pbc in pairs:
        T = _paired_horizon(rec_bc, rec_pbc)
        margins = rec_bc.d_trace[0 : 2 * T + 1 : 2] - rec_pbc.d_trace
        least = margins.min(initial=least)
        strict += bool(margins[-1] > 0)
    return float(least), strict


# ---------------------------------------------------------------------------
# probe-count ordering


def check_k_monotonicity(x: np.ndarray, a: float, c: float, K_list, J) -> tuple:
    """``(costs, abs_sums, square_sums)``, one entry per probe count of
    ``K_list`` in each, in its order: the exact expected next cost
    ``E[J(x - a * mean_k g(sigma_k))]`` and the expected per-step distance
    powers ``E[sum_i |u_i|]`` and ``E[sum_i u_i**2]`` over the entries
    ``u_i`` of the flat input, in one pass over the outcomes per K."""
    K_list = tuple(int(k) for k in K_list)
    x = np.asarray(x, dtype=np.float64)
    # one enumeration of the single-probe estimates serves every sum
    g = _estimates(x, c, max(K_list, default=1), J)

    def term(m):
        move = a * m
        step = np.abs(move)
        cost = sum(float(J(v)) for v in x[None, :] - move)
        return np.array([cost, step.sum(), (step * step).sum()])

    means = [_enumerated_mean(g, k, term).tolist() for k in K_list]
    return tuple(tuple(m[i] for m in means) for i in range(3))


def random_spd_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Well-conditioned random symmetric positive-definite matrix."""
    A = rng.standard_normal((d, d)) / np.sqrt(d)
    H = A @ A.T + 0.5 * np.eye(d)
    return 0.5 * (H + H.T)


def descent_fraction(j_traces: np.ndarray) -> float:
    """Fraction of trials whose trailing-window mean objective sits below the
    leading-window mean (the empirical convergence corollary), over windows
    of ``_DESCENT_WINDOW`` steps."""
    j = np.atleast_2d(np.asarray(j_traces, dtype=np.float64))
    if j.shape[1] < 2 * _DESCENT_WINDOW:
        raise ValueError(
            f"traces of length {j.shape[1]} cannot fit two windows of {_DESCENT_WINDOW}"
        )
    leading = j[:, :_DESCENT_WINDOW].mean(axis=1)
    trailing = j[:, -_DESCENT_WINDOW:].mean(axis=1)
    return float((trailing < leading).mean())
