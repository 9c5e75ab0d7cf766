"""Coordination objectives: coverage, rendezvous with formation selection,
assignment, and a quadratic test objective.

Each task objective ``J_obj`` is wrapped by a barrier that switches to the
quadratic well ``x.x`` outside a working radius:

    J(x) = rho(|x|) * J_obj(x) + (1 - rho(|x|)) * x.x

with ``rho = 1`` for ``|x| <= l1`` and ``rho = 0`` for ``|x| >= l2``.  In
between, ``rho`` is the C2 quintic smoothstep, the minimal-degree polynomial
blend whose value, slope, and curvature match at both ends.  The branch
regions are evaluated exactly (no blend arithmetic), so inside the workspace
``J`` is bit-identical to ``J_obj``.

The inner hard minima (over agents in coverage, over formations in
rendezvous) can optionally be replaced by the stable log-sum-exp smooth
minimum for strictly C2 experiments.

``make_objective_fn`` binds a spec once: the payload's type names the task,
and with the epsilon it picks the one evaluator that is built and returned,
wrapped in the barrier as ``J(x) -> float``.  An evaluation dispatches on
nothing and checks nothing: ``ExperimentConfig`` has checked the barrier
radii, the epsilon and the layout, and a state of the wrong length fails to
reshape.  The other payloads check their arrays once, when built; the
quadratic task's payload is its matrix ``H``, symmetric by construction.

Hard-minimum coverage is ``_LabelledCoverage``, which keeps each grid
point's nearest agent from its last full scan.  A call scans every agent
only at the points whose label the agents' displacement since then could
have changed, which is few of them for the probes ``x + c*sigma`` of a PBC
step.  Its values carry the bits of the plain scan over every agent.

Hard-minimum rendezvous is bound to ``_certified_rendezvous``.  Formation
``t``'s sum of squared offset errors is ``|Dx|**2 + w_t.x + C_t``, with
``D`` the pairwise differences, so one product of ``x`` with a matrix built
with the family ranks every formation.  When one formation leads the rest
by more than a rounding margin, only its row is computed; on a near-tie
every formation's row is.  Its values carry the bits of the scan over every
formation.

``hungarian`` solves the assignment task's pairing once per evaluation and
certifies that the optimum is unique by one minimum-cycle pass over the
``N x N`` exchange matrix: every rival pairing differs from the optimum by
disjoint exchange cycles.  Only when the cheapest cycle is within twice the
tie tolerance, plus a rounding margin, does the lexicographic tie-break run.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .state import NonFiniteError


# ---------------------------------------------------------------------------
# barrier


def barrier_weight(r: float, l1: float, l2: float) -> float:
    """C2 blend weight: 1 for ``r <= l1``, 0 for ``r >= l2``, quintic between.

    Assumes ``l1 < l2``, which ``ExperimentConfig`` checks."""
    if r <= l1:
        return 1.0
    if r >= l2:
        return 0.0
    w = (r - l1) / (l2 - l1)
    return 1.0 - (10.0 * w**3 - 15.0 * w**4 + 6.0 * w**5)


def smooth_min(values, epsilon: float):
    """Smooth minimum ``(1/eps) * log(sum(exp(eps * f_j)))`` along axis 0,
    for ``eps < 0`` (``ExperimentConfig`` checks the sign).

    Computed shift-stably by factoring out the hard minimum, which keeps all
    exponents nonpositive.  The result satisfies

        (1/eps) * log(n) <= smooth_min(f, eps) - min(f) <= 0.
    """
    vals = np.asarray(values, dtype=np.float64)
    m = vals.min(axis=0)  # raises ValueError on an empty input
    return m + np.log(np.exp(epsilon * (vals - m)).sum(axis=0)) / epsilon


# ---------------------------------------------------------------------------
# coverage


@dataclass(frozen=True, eq=False)
class CoveragePayload:
    """Quadrature grid for the coverage task.

    ``grid`` holds the sample points (one per row) of the unit-measure
    workspace, so the objective approximates the mean squared distance
    integral.
    """

    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        if grid.ndim != 2 or grid.shape[0] == 0:
            raise ValueError("coverage grid must be a non-empty (points, n) array")
        # a non-finite point has no finite objective, and the rounding bound
        # of ``_LabelledCoverage``'s certificate assumes finite coordinates
        if not np.all(np.isfinite(grid)):
            raise ValueError("coverage grid must be finite")
        object.__setattr__(self, "grid", grid)
        # contiguous per-axis columns keep the distance scan cache-friendly
        object.__setattr__(
            self,
            "_grid_cols",
            tuple(np.ascontiguousarray(grid[:, d]) for d in range(grid.shape[1])),
        )

    @property
    def n(self) -> int:
        return self.grid.shape[1]


def unit_cube_grid(n: int, spacing: float) -> np.ndarray:
    """Axis-aligned grid over ``[0, 1]**n``, endpoints included, at a spacing
    ``1/m`` for a whole ``m >= 2`` up to rounding, which ``ExperimentConfig``
    checks: ``m + 1`` points per axis (spacing 0.01 gives 101), the last at
    ``m * spacing``, which is 1 up to rounding."""
    m = int(round(1.0 / spacing))
    axis = np.arange(m + 1) * spacing
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.column_stack([c.ravel() for c in mesh])


def _squared_distances(grid_cols: tuple, pt, out=None, tmp=None) -> np.ndarray:
    """Squared distances from the grid points to ``pt``, summed over the axes
    in order.  ``pt[d]`` is a scalar or broadcasts against ``grid_cols[d]``;
    ``out`` and ``tmp`` are optional buffers of the result's shape."""
    d2 = np.subtract(grid_cols[0], pt[0], out=out)
    np.square(d2, out=d2)
    for d in range(1, len(grid_cols)):
        diff = np.subtract(grid_cols[d], pt[d], out=tmp)
        diff *= diff
        d2 += diff
    return d2


def coverage_objective(payload: CoveragePayload, x: np.ndarray, smooth_eps: float) -> float:
    """Mean over the grid of the smooth minimum over agents of the squared
    distance.  The hard minimum is ``_LabelledCoverage``."""
    pts = x.reshape(-1, payload.n)
    d2 = _squared_distances(payload._grid_cols, pts.T[:, :, None])
    return float(smooth_min(d2, smooth_eps).mean())


class _LabelledCoverage:
    """Hard-minimum coverage, the mean over the grid of the squared distance
    to the nearest agent, reusing nearest-agent labels from call to call.

    A full pass scans every agent in order, keeping the running minimum, and
    keeps a reference: the agents' positions ``p``, each grid point's nearest
    agent ``l`` (its label) and the gap ``r2 - r1`` between its
    second-nearest and nearest distances.  A later call at positions ``p'``
    takes the largest agent displacement ``delta = max_i |p'_i - p_i|``.
    Every distance moves by at most ``delta``, so a point whose gap exceeds
    ``2*delta + slack`` is certified: agent ``l`` is still its nearest, and
    its value is the squared distance to ``l``, computed with
    ``_squared_distances``' operations in the same order.  Every other point
    scans all agents; ``min`` is exact, so the scan's order does not matter.
    The mean runs over the whole 1-D array in grid order, so every value has
    the bits of a full pass.  A call relabels (takes the full pass) when it
    has no reference, or when more than ``_RELABEL_FRACTION`` of the grid
    would be left uncertified.  It holds state between calls, so each ``J``
    gets its own.  The first call also sizes the buffers for its state's
    agent count, which every later state keeps.  A call takes the state and
    the barrier's ``quad = x.x``, whose root is ``|x|``.

    Rounding.  Let ``u = 2**-53`` and ``S = max|g| + |x_ref| + |x|``, which
    bounds every distance ``r`` and every displacement.  A computed squared
    distance is ``s*(1+t)`` with ``|t| <= (n+3)u``: it is a sum of ``n``
    nonnegative terms, each a rounded square of a rounded difference, so
    its computed ``sqrt`` is within ``(n/2+3)u*S`` of ``r``.  The gap, one
    more subtraction, is within ``(n+7)u*S`` of the exact gap, and the
    computed ``delta`` is within ``(n/2+3)u*S`` of the exact one.  The
    threshold's own two roundings lose at most ``3u*S``.  And the computed
    squared distances keep the exact order once the exact new distances
    differ by more than ``(n+4)u*S``.  These add up to ``(3n+20)u*S``, under
    the ``(4n+32)u*S`` of ``slack``; ``S`` is itself computed, which adds
    a term of order ``u**2 * S``, inside that margin.  Differences, squares
    and sums below the normal range carry absolute errors whose square
    roots stay under ``2**-500``, which ``slack`` adds; it also makes the
    threshold positive, so a tie (gap 0) is never certified.  When ``S`` is
    not below ``2**500`` no squared distance could be trusted not to
    overflow, and nothing is certified.  A NaN gap or displacement compares
    False and certifies nothing.
    """

    _RELABEL_FRACTION = 0.15

    def __init__(self, payload: CoveragePayload) -> None:
        grid = payload.grid
        self._cols = payload._grid_cols
        self._n = payload.n
        self._grid_radius = math.sqrt(float(np.einsum("gd,gd->g", grid, grid).max()))
        G = grid.shape[0]
        self._max_uncertified = int(self._RELABEL_FRACTION * G)
        # buffers owned for the evaluator's life: no call allocates
        # grid-sized temporaries, which the allocator may hand back to the
        # system and fault in again on the next call
        self._value = np.empty(G)
        self._gap = np.empty(G)
        self._label = np.empty(G, dtype=np.intp)
        self._mask = np.empty(G, dtype=bool)
        self._ref = None  # no reference yet: the first call sizes and relabels
        self._ref_norm = math.inf

    def _size(self, N: int) -> None:
        # each of the two work rows holds one agent's distances to the grid,
        # or an (agents, points) block of the scan at up to
        # ``_max_uncertified`` points
        G = self._value.shape[0]
        self._shape = (N, self._n)
        self._work = np.empty((2, max(G, N * self._max_uncertified)))
        self._dist, self._tmp = self._work[0, :G], self._work[1, :G]

    def _relabel(self, pts: np.ndarray, norm: float) -> float:
        best, second, dist, tmp = self._value, self._gap, self._dist, self._tmp
        label, less, cols = self._label, self._mask, self._cols
        _squared_distances(cols, pts[0], out=best, tmp=tmp)
        second.fill(np.inf)
        label.fill(0)
        for i in range(1, pts.shape[0]):
            _squared_distances(cols, pts[i], out=dist, tmp=tmp)
            np.less(dist, best, out=less)
            np.copyto(label, i, where=less)
            np.maximum(best, dist, out=tmp)
            np.minimum(second, tmp, out=second)
            np.minimum(best, dist, out=best)
        value = float(best.mean())
        np.sqrt(second, out=second)
        np.sqrt(best, out=tmp)
        second -= tmp  # the gap r2 - r1
        self._ref = pts.copy()
        self._ref_norm = norm
        return value

    def __call__(self, x: np.ndarray, quad: float) -> float:
        if self._ref is None:
            self._size(x.shape[0] // self._n)
        pts = x.reshape(self._shape)  # a wrong-length state raises here
        norm = math.sqrt(quad)
        scale = self._grid_radius + self._ref_norm + norm
        if not scale < 2.0**500:
            return self._relabel(pts, norm)
        disp = pts - self._ref
        disp *= disp
        delta = math.sqrt(float(disp.sum(axis=1).max()))
        slack = (4 * self._n + 32) * 2.0**-53 * scale + 2.0**-500
        certified = np.greater(self._gap, 2.0 * delta + slack, out=self._mask)
        uncertified = certified.shape[0] - np.count_nonzero(certified)
        if uncertified > self._max_uncertified:
            return self._relabel(pts, norm)

        cols, value, tmp, label = self._cols, self._value, self._tmp, self._label
        np.take(pts[:, 0], label, out=tmp, mode="clip")
        np.subtract(cols[0], tmp, out=value)
        np.square(value, out=value)
        for d in range(1, self._n):
            np.take(pts[:, d], label, out=tmp, mode="clip")
            np.subtract(cols[d], tmp, out=tmp)
            tmp *= tmp
            value += tmp
        if uncertified:
            idx = np.flatnonzero(~certified)
            size = pts.shape[0] * idx.size
            d2, diff = (row[:size].reshape(-1, idx.size) for row in self._work)
            sub = tuple(col[idx] for col in cols)
            _squared_distances(sub, pts.T[:, :, None], out=d2, tmp=diff)
            value[idx] = d2.min(axis=0)
        return float(value.mean())


# ---------------------------------------------------------------------------
# rendezvous with formation selection


@dataclass(frozen=True, eq=False)
class RendezvousPayload:
    """Finite family of target formations.

    ``positions`` has shape (formations, N, n): absolute target positions
    whose pairwise differences define the relative targets, so any common
    translation of the agents is cost-free.  The payload keeps read-only
    copies of its arrays, so one family can be shared by every trial.
    """

    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=np.float64)
        if pos.ndim != 3 or pos.shape[0] == 0:
            raise ValueError("formation family must be a non-empty (formations, N, n) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("formation positions must be finite")
        # r[th, i, j] = y_i(th) - y_j(th), precomputed once, flattened over
        # (i, j, d) to match the gathers: flat state slots i*n+d and j*n+d
        T, N, n = pos.shape
        offsets = pos[:, :, None, :] - pos[:, None, :, :]
        flat_offsets = offsets.reshape(T, N * N * n)
        i, j, d = np.indices((N, N, n))
        # ``_certified_rendezvous``'s data.  Rounding is odd, so r[j, i] is
        # exactly -r[i, j] and the rows w_t = -2 D' r_t are -4 sum_j r[i, j]
        rank_rows = -4.0 * offsets.sum(axis=2).reshape(T, N * n)
        sq_offsets = np.einsum("ti,ti->t", flat_offsets, flat_offsets)
        # the margin 8u(m+p+N+5)(2Nq + C) + 2**-1000 as k_quad * q + k_0
        m, p, u = N * N * n, N * n, 2.0**-53
        k_c = 8 * (m + p + N + 5) * u
        k_quad = 2 * N * k_c
        k_0 = k_c * float(sq_offsets.max()) + 2.0**-1000
        arrays = dict(
            positions=pos,
            _offsets=flat_offsets,
            _slot_i=(i * n + d).ravel(),
            _slot_j=(j * n + d).ravel(),
            _rank_rows=rank_rows,
            _sq_offsets=sq_offsets,
        )
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_margin", (k_quad, k_0))

    @property
    def N(self) -> int:
        return self.positions.shape[1]

    @property
    def n(self) -> int:
        return self.positions.shape[2]


@lru_cache(maxsize=8)
def circle_formation(N: int, radius: float, thetas: tuple) -> RendezvousPayload:
    """Planar circular formations rotated by an integer parameter.

    Member ``theta`` places agent ``i`` (1-based) at
    ``radius * [cos(2*pi*(i + theta)/N), sin(2*pi*(i + theta)/N)]``.

    A family is built once per process for each ``(N, radius, thetas)``;
    the payload is immutable, so every caller shares it.
    """
    idx = np.arange(1, N + 1)
    pos = np.empty((len(thetas), N, 2))
    for t_i, theta in enumerate(thetas):
        ang = 2.0 * np.pi * (idx + theta) / N
        pos[t_i, :, 0] = radius * np.cos(ang)
        pos[t_i, :, 1] = radius * np.sin(ang)
    return RendezvousPayload(positions=pos)


def _formation_sq_errors(payload: RendezvousPayload, x: np.ndarray) -> np.ndarray:
    """Sum over agent pairs ``(i, j)`` of the squared offset error
    ``|(x_i - x_j) - r_ij(theta)|**2``, one entry per formation."""
    flat = x.reshape(payload.N * payload.n)  # a wrong-length state raises here
    err = flat[payload._slot_i] - flat[payload._slot_j] - payload._offsets
    return np.einsum("ti,ti->t", err, err)


def rendezvous_objective(payload: RendezvousPayload, x: np.ndarray, smooth_eps: float) -> float:
    """Best formation fit: smooth minimum over the family of the mean squared
    pairwise-offset error.  The hard minimum is ``_certified_rendezvous``."""
    N = payload.N
    return smooth_min(_formation_sq_errors(payload, x) / (N * N), smooth_eps)


def _certified_rendezvous(payload: RendezvousPayload, x: np.ndarray, quad: float) -> float:
    """Best formation fit, the least mean squared pairwise-offset error over
    the family (zero exactly when the agents realize a member up to a common
    translation), from one product and one formation's row; ``quad`` is the
    barrier's ``x.x``.  The bits are the full scan's: the minimum of
    ``_formation_sq_errors`` over the family divided by ``N*N``, which is
    monotone under rounding, so they are those of dividing first.

    With ``D`` taking the pairwise differences ``(Dx)[i, j, d] = x[i, d] -
    x[j, d]`` and the stored offsets ``r_t``, formation ``t``'s exact sum is

        S_t = |Dx - r_t|**2 = |Dx|**2 + w_t.x + C_t,
        w_t = -2 D' r_t,  C_t = |r_t|**2.

    The payload's ``(T, n*N)`` ``_rank_rows`` hold the ``w_t``, so one
    product gives every ``w_t.x``.  The common ``|Dx|**2`` does not change
    the ranking, so the scores are ``g_t = w_t.x + C_t``.  When no other
    score lies within ``margin`` of the lowest, ``g_b``, every other sum is
    provably larger, and the value is formation ``b``'s row alone, computed
    with ``_formation_sq_errors``' operations: the slot gathers, minus the
    offsets row, ``einsum`` over the flat 1-D row, and the division by
    ``N*N``.  Otherwise (a tie within the margin, or a margin that is NaN or
    not below ``2**900``) it takes the full scan.

    Rounding.  Let ``u = 2**-53``, ``m = N*N*n`` terms, ``p = n*N``, ``q =
    quad``, ``Delta = |Dx|**2`` and ``C = max_t C_t``, and read every
    ``gamma_k = k*u/(1 - k*u)`` as ``k*u`` up to a relative ``2**-19``: ``m <
    2**30`` for any family whose ``(T, m)`` offsets fit in memory.  With the
    agents' coordinate sums ``s``, ``Delta = 2N x.x - 2 s.s <= 2N x.x``, and
    ``q`` is within ``gamma_p`` of ``x.x``, so ``Delta <= 2Nq`` up to a
    relative ``(p+1)u``.

    - The reference row.  Each error entry ``fl(fl(x_i - x_j) - r)`` is within
      ``u(|x_i - x_j| + |e|)`` of the exact ``e``, and a sum of ``m``
      nonnegative squares in any order is within ``gamma_m`` of its terms'
      sum; with Cauchy-Schwarz the computed row is within ``a = (m+5)u(S_t +
      Delta)`` of ``S_t``, and ``S_t <= 2 Delta + 2C`` gives ``a <= (m+5)u(6
      Nq + 2C)``.
    - The score.  The stored ``w_t`` sums ``N`` offsets per entry (error
      ``gamma_N``), the product sums ``p`` terms (``gamma_p``), ``|w_t| <=
      4 sqrt(N C)``, and ``4 sqrt(N C q) <= 2(C + Nq)``; ``C_t`` sums ``m``
      squares (``gamma_m``), and the final addition rounds once.  So
      ``g_t`` is within ``b = 2(p+N+1)u(C + Nq) + (m+1)uC`` of ``w_t.x +
      C_t``.

    A rival ``t`` excluded by ``g_t > fl(g_b + margin)`` has ``S_t - S_b >
    margin - 2b`` (both scores' rounding), above ``2a`` (both rows'
    rounding), so its computed row exceeds row ``b`` and the minimum is row
    ``b``.  That needs ``margin >= 2a + 2b``, and ``margin = 8u(m+p+N+5)
    (2Nq + C) + 2**-1000`` exceeds it with a third to spare (on ``Nq``,
    ``16(m+p+N+5) >= (4/3)(12m+4p+4N+64)``; on ``C``, ``8(m+p+N+5) >=
    (4/3)(6m+4p+4N+26)``), which covers the rounding of the margin and of
    ``g_b + margin``.
    Every absolute error from underflow is below ``(m+p) * 2**-1074``, under
    the ``2**-1000``, which also keeps the margin positive, so an exact tie
    is never certified.  Below ``2**900`` the margin bounds ``q``, ``C`` and
    ``Delta`` far under the overflow threshold, and a finite ``q`` means a
    finite ``x``, so every score is finite; a NaN or infinite entry of ``x``
    makes ``q`` and the margin non-finite.
    """
    T, N, n = payload.positions.shape
    flat = x.reshape(N * n)  # a wrong-length state raises here
    k_quad, k_0 = payload._margin
    margin = k_quad * quad + k_0
    if margin < 2.0**900:
        scores = payload._rank_rows.dot(flat)
        scores += payload._sq_offsets
        best = int(scores.argmin())
        if np.count_nonzero(scores <= scores[best] + margin) == 1:
            err = flat[payload._slot_i] - flat[payload._slot_j]
            err -= payload._offsets[best]
            return float(np.einsum("i,i->", err, err) / (N * N))
    return float(_formation_sq_errors(payload, x).min() / (N * N))


# ---------------------------------------------------------------------------
# assignment


@dataclass(frozen=True, eq=False)
class AssignmentPayload:
    """Target locations, and whether their pairing with the agents is fixed.

    Unfixed, each objective evaluation re-solves the optimal pairing
    (every-step).  Fixed, agent ``i`` is paired with ``targets[i]``:
    ``freeze_assignment`` stores the targets in the order of the initial
    state's optimal pairing (once-at-start).
    """

    targets: np.ndarray
    fixed: bool = False

    def __post_init__(self) -> None:
        targets = np.asarray(self.targets, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[0] == 0:
            raise ValueError("assignment targets must be a non-empty (N, n) array")
        object.__setattr__(self, "targets", targets)


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment on a square cost matrix.

    Returns the permutation ``perm`` (agent ``i`` takes column ``perm[i]``)
    minimizing ``sum(cost[i, perm[i]])``.  Ties are broken deterministically:
    every permutation whose cost is within ``1e-9 * max(1, |best|)`` of the
    optimum ``best`` counts as optimal, and the lexicographically smallest of
    those is returned.

    One solve gives an optimum ``cols``.  Any other permutation differs from
    it by disjoint exchange cycles, so one minimum-cycle pass over an ``N x N``
    exchange matrix (``_unique_optimum``) bounds every rival's excess cost.
    When that bound exceeds twice the tolerance (a margin the refinement's
    rounding cannot cross), no other permutation is a tie and ``cols`` is
    returned; otherwise a lexicographic refinement fixes the rows in order.
    """
    C = np.asarray(cost, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NonFiniteError("cost matrix contains non-finite entries")
    # scipy's compiled solver alone, loaded by the first call in ~1 ms and
    # 0.4 MB; importing scipy.optimize took ~0.36 s and 48 MB
    # (BENCH_solver_only.json)
    linear_sum_assignment = _assignment_solver()

    N = C.shape[0]
    rows, cols = linear_sum_assignment(C)
    if N <= 1:  # no other permutation
        return cols
    best = float(C[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    if _unique_optimum(C, cols, tol):
        return cols
    # Fix rows in order to the smallest column that still allows an optimal
    # completion of the remaining subproblem.
    perm = np.empty(N, dtype=np.intp)
    free_cols = list(range(N))
    remaining = best
    for i in range(N):
        for j in free_cols:
            others = [c for c in free_cols if c != j]
            # the last row's completion is 0 x 0, whose empty sum is 0.0
            sub = C[np.ix_(range(i + 1, N), others)]
            r, c = linear_sum_assignment(sub)
            completion = float(sub[r, c].sum())
            if C[i, j] + completion <= remaining + tol:
                perm[i] = j
                free_cols.remove(j)
                remaining = completion
                break
        else:  # pragma: no cover - unreachable for finite costs
            raise RuntimeError("assignment refinement failed to place a row")
    return perm


@lru_cache(maxsize=None)
def _assignment_solver():
    """scipy's ``linear_sum_assignment`` (Crouse 2016), loaded from its
    compiled module ``scipy/optimize/_lsap`` alone.

    ``find_spec`` locates scipy without running any of its code, and the
    extension module needs only numpy, so neither ``scipy`` nor
    ``scipy.optimize`` is imported.  The function is the one that
    ``scipy.optimize`` exports.  Only when no such file exists (a scipy laid
    out otherwise) does it import ``scipy.optimize``.
    """
    name = "scipy.optimize._lsap"
    if name in sys.modules:  # scipy.optimize loaded it already
        return sys.modules[name].linear_sum_assignment
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                # creating an extension module registers it under its name;
                # without its package that entry would only mislead
                sys.modules.pop(name, None)
                return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def _unique_optimum(C: np.ndarray, cols: np.ndarray, tol: float) -> bool:
    """Whether every permutation other than the optimum ``cols``, of cost
    ``best``, provably costs more than ``best + 2*tol``.  Works on a copy:
    ``C`` may be the caller's matrix.

    Exchange cycles.  Write a rival permutation as ``sigma(i) = cols[pi(i)]``.
    Its cost exceeds ``best`` by ``sum_i W[i, pi(i)]`` with the exchange
    matrix ``W[i, k] = C[i, cols[k]] - C[i, cols[i]]``, and ``pi`` splits
    into disjoint cycles, so the excess is a sum of cycle weights of the
    graph ``W`` (Chegireddy and Hamacher 1987).  With ``+inf`` on the
    diagonal, one Floyd-Warshall pass leaves the weight of the lightest
    cycle through ``i`` at ``W[i, i]``.  Their minimum ``g`` is the exact
    runner-up gap when ``cols`` is exactly optimal (no cycle is negative),
    and it bounds every rival's excess from below once it is positive.  The
    test is ``g > 2*tol + slack``.

    Rounding.  Let ``u = 2**-53``, ``M = max|C|``, and let ``g*`` be the
    exact weight of the lightest simple cycle.  Each computed ``W`` entry is
    within ``2uM`` of the exact one.  Floyd-Warshall's ``min`` is exact and
    rounded addition is monotone, so by induction over the pass each
    computed entry is at most some parenthesized float sum along any simple
    path.  The lightest cycle has at most ``N`` terms of size ``2M``, so the
    computed ``g`` is at most ``g* + 2N**2 uM``.  Below, bounds hold up to a
    relative ``O(N u)``.

    - The certificate passes only where Murty's check passes.  That check
      (Murty 1968) solves ``N`` assignments, each with one edge of ``cols``
      forbidden, and requires each solution's float sum to exceed
      ``fl(best + 2*tol)``.  Every solution is a rival, and every rival
      avoids such an edge.  A float sum of ``N`` entries is within
      ``N**2 uM`` of exact, and the bound's own addition rounds by
      ``u(NM + 2tol)``.  So every rival's float sum exceeds that bound once
      ``g* > 2tol + (2N**2 - N)uM + 2u*tol``.  The certificate's
      ``g > fl(2*tol + slack)`` gives ``g* > 2tol + slack - 2N**2 uM -
      u(2tol + slack)``, which is enough when ``slack >= (4N**2 - N)uM +
      4u*tol``; ``slack = 8(N+2)N u (M + tol)`` covers that twice over.
      ``tol >= 1e-9`` keeps ``slack`` a normal number, and sums and
      differences round relatively below the normal range too, so no
      absolute floor is needed.  With ``M`` not below ``2**500`` an entry
      or a sum could overflow, and nothing is certified.
    - In the band where only Murty's check passes, every rival costs at
      least ``best + 2*tol - e``, where ``e`` is that check's rounding: of
      order ``N**2 uM``, plus the solver's own.  The refinement rejects each
      column ``j < cols[i]``, since the completions of ``j`` are rivals whose
      excess, above ``2*tol - e``, is tested against ``tol``.  It accepts
      ``cols[i]``, so it returns ``cols`` whenever ``tol`` exceeds ``e``
      plus the refinement's own rounding.  Without that, the tolerance
      cannot tell ties apart at all.  At ``N = 15``, ``N**2 uM`` is below
      ``1e-13 * M``, far under ``tol`` while ``M`` stays below ``1e3 *
      max(1, |best|)``, as it does for the assignment task's squared
      distances near a converged pairing.

    A NaN or negative ``g`` (a rounding-suboptimal ``cols`` leaves a
    negative cycle) compares False, so the refinement runs.
    """
    N = C.shape[0]
    M = float(np.abs(C).max())
    if not M < 2.0**500:
        return False
    W = C[:, cols]
    W -= W.diagonal()[:, None]  # ufuncs buffer an overlapping input
    np.fill_diagonal(W, np.inf)
    T = np.empty_like(W)
    for m in range(N):
        np.add(W[:, m, None], W[m], out=T)
        np.minimum(W, T, out=W)
    slack = 8 * (N + 2) * N * 2.0**-53 * (M + tol)
    return bool(W.diagonal().min() > 2.0 * tol + slack)


def _pairing(targets: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The optimal pairing of the agents at ``pts`` with ``targets``: one
    ``hungarian`` solve over their squared distances."""
    diff = pts[:, None, :] - targets[None, :, :]
    return hungarian(np.einsum("ijd,ijd->ij", diff, diff))


def assignment_objective(payload: AssignmentPayload, x: np.ndarray) -> float:
    """Total squared distance of agents to their targets: agent ``i`` to
    ``targets[i]`` when ``fixed``, else under the current optimal pairing."""
    targets = payload.targets
    pts = x.reshape(targets.shape)
    if not payload.fixed:
        targets = targets[_pairing(targets, pts)]
    resid = pts - targets
    return float(np.einsum("id,id->", resid, resid))


def freeze_assignment(payload: AssignmentPayload, x0: np.ndarray) -> AssignmentPayload:
    """The once-at-start pairing: the targets in the initial state's optimal order."""
    targets = payload.targets
    return AssignmentPayload(targets[_pairing(targets, x0.reshape(targets.shape))], fixed=True)


# ---------------------------------------------------------------------------
# quadratic test objective


def quadratic_objective(H: np.ndarray, x: np.ndarray) -> float:
    """Exact quadratic form ``x' H x``, whose gradient is ``2 H x`` for the
    symmetric ``H`` that both builders make (the config's ``I/d`` and
    ``oracle.random_spd_matrix``).  A non-square ``H`` fails in the product."""
    # the BLAS gemv and dot of ``x @ H @ x`` without matmul's dispatch
    return float(x.dot(H).dot(x))


# ---------------------------------------------------------------------------
# barrier-wrapped objective


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """A task's payload plus the barrier parameters.  The payload's type
    names the task: a ``CoveragePayload``, a ``RendezvousPayload``, an
    ``AssignmentPayload``, or the quadratic task's matrix ``H`` itself.

    ``smooth_min_epsilon`` of ``None`` keeps the hard inner minima; a
    negative value switches coverage and rendezvous to the log-sum-exp
    smooth minimum.
    """

    payload: object
    l1: float
    l2: float
    smooth_min_epsilon: Optional[float] = None


def make_objective_fn(spec: ObjectiveSpec):
    """Bind a spec into a plain ``J(values) -> float`` callable: the
    barrier-wrapped objective, with the one evaluator of the payload's task
    built once.  The barrier computes ``quad = x.x`` and hands it to the
    evaluator as ``task(x, quad)``, so no evaluator computes it again.

    ``J`` equals the task objective exactly inside radius ``l1`` and ``x.x``
    exactly outside radius ``l2``; blends with the C2 weight in between.
    """
    payload, eps = spec.payload, spec.smooth_min_epsilon
    if isinstance(payload, CoveragePayload) and eps is None:
        task = _LabelledCoverage(payload)
    elif isinstance(payload, CoveragePayload):
        task = lambda x, quad: coverage_objective(payload, x, eps)
    elif isinstance(payload, RendezvousPayload) and eps is None:
        # the hard minimum, from one formation's row
        task = partial(_certified_rendezvous, payload)
    elif isinstance(payload, RendezvousPayload):
        task = lambda x, quad: rendezvous_objective(payload, x, eps)
    elif isinstance(payload, AssignmentPayload):
        task = lambda x, quad: assignment_objective(payload, x)
    else:
        task = lambda x, quad: quadratic_objective(payload, x)
    l1, l2 = spec.l1, spec.l2

    def J(x: np.ndarray) -> float:
        # for a 1-D real array np.linalg.norm(x) is exactly sqrt(x.dot(x))
        quad = float(x.dot(x))
        r = math.sqrt(quad)
        if r <= l1:
            return task(x, quad)
        if r >= l2:
            return quad
        rho = barrier_weight(r, l1, l2)
        return rho * task(x, quad) + (1.0 - rho) * quad

    return J
