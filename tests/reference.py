"""Plain reference forms of rules that the package computes by a fast path.

A fast path is exact only by a rounding argument, so its tests compare it
with the plainest form of the same rule kept here.  Nothing in this module
is imported by the package.
"""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from broadcast_control.objectives import barrier_weight, smooth_min


def evaluate(spec, task, x):
    """The barrier through ``np.linalg.norm`` around the task objective
    ``task``, called directly: ``make_objective_fn(spec)`` must match it bit
    for bit."""
    r = float(np.linalg.norm(x))
    if r <= spec.l1:
        return task(x)
    quad = float(np.dot(x, x))
    if r >= spec.l2:
        return quad
    rho = barrier_weight(r, spec.l1, spec.l2)
    return rho * task(x) + (1.0 - rho) * quad


def rendezvous(payload, x, smooth_eps=None):
    """The 4-D ``tijd`` formula whose value the rendezvous objective must
    reproduce bit for bit: every formation's mean squared offset error, then
    the minimum."""
    pos = payload.positions
    N, n = pos.shape[1], pos.shape[2]
    offsets = pos[:, :, None, :] - pos[:, None, :, :]
    pts = x.reshape(N, n)
    err = (pts[:, None, :] - pts[None, :, :])[None] - offsets
    per_theta = np.einsum("tijd,tijd->t", err, err) / (N * N)
    if smooth_eps is None:
        return float(per_theta.min())
    return smooth_min(per_theta, smooth_eps)


def lexicographic_optimum(C) -> list:
    """First minimum-cost permutation in lexicographic order, by enumeration
    with exact comparisons (for small integer costs, whose sums are exact)."""
    n = C.shape[0]
    costs = [
        (sum(C[i, p[i]] for i in range(n)), p)
        for p in itertools.permutations(range(n))
    ]
    best = min(c for c, _ in costs)
    return next(list(p) for c, p in costs if c == best)


def runner_up_exceeds(C: np.ndarray, cols: np.ndarray, bound: float) -> bool:
    """Whether every permutation other than ``cols`` costs more than
    ``bound``, by ``N`` solves that each forbid one edge of ``cols``.

    Each other permutation avoids at least one edge ``(i, cols[i])``, so the
    runner-up is the best of these solves (Murty 1968).  This is the check
    that ``objectives.hungarian`` ran before its minimum-cycle certificate.
    """
    D = C.copy()
    for i, j in enumerate(cols):
        D[i, j] = np.inf
        r, c = linear_sum_assignment(D)
        if float(D[r, c].sum()) <= bound:
            return False
        D[i, j] = C[i, j]
    return True


def hungarian(C: np.ndarray) -> np.ndarray:
    """``objectives.hungarian`` with the ``N``-solve runner-up check: one
    solve, the check against ``best + 2*tol``, and where it fails the
    lexicographic refinement."""
    N = C.shape[0]
    rows, cols = linear_sum_assignment(C)
    if N <= 1:
        return cols
    best = float(C[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    if runner_up_exceeds(C, cols, best + 2.0 * tol):
        return cols
    perm = np.empty(N, dtype=np.intp)
    free_cols = list(range(N))
    remaining = best
    for i in range(N):
        for j in free_cols:
            others = [c for c in free_cols if c != j]
            if others:
                sub = C[np.ix_(range(i + 1, N), others)]
                r, c = linear_sum_assignment(sub)
                completion = float(sub[r, c].sum())
            else:
                completion = 0.0
            if C[i, j] + completion <= remaining + tol:
                perm[i] = j
                free_cols.remove(j)
                remaining = completion
                break
    return perm
