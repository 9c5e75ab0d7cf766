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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .state import NonFiniteError

EVERY_STEP = "every-step"
ONCE_AT_START = "once-at-start"


# ---------------------------------------------------------------------------
# barrier


def barrier_weight(r: float, l1: float, l2: float) -> float:
    """C2 blend weight: 1 for ``r <= l1``, 0 for ``r >= l2``, quintic between."""
    if not l1 < l2:
        raise ValueError(f"need l1 < l2, got l1={l1}, l2={l2}")
    if r <= l1:
        return 1.0
    if r >= l2:
        return 0.0
    w = (r - l1) / (l2 - l1)
    return 1.0 - (10.0 * w**3 - 15.0 * w**4 + 6.0 * w**5)


def smooth_min(values, epsilon: float) -> float:
    """Smooth minimum ``(1/eps) * log(sum(exp(eps * f_j)))`` for ``eps < 0``.

    Computed shift-stably by factoring out the hard minimum, which keeps all
    exponents nonpositive.  The result satisfies

        (1/eps) * log(n) <= smooth_min(f, eps) - min(f) <= 0.
    """
    if epsilon >= 0:
        raise ValueError(f"epsilon must be strictly negative, got {epsilon}")
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("smooth_min of an empty collection")
    m = float(vals.min())
    return m + np.log(np.exp(epsilon * (vals - m)).sum()) / epsilon


# ---------------------------------------------------------------------------
# coverage


@dataclass(frozen=True, eq=False)
class CoveragePayload:
    """Quadrature grid for the coverage task.

    ``grid`` holds the sample points (one per row) and ``volume`` the measure
    of the workspace they discretize, so the objective approximates the mean
    squared distance integral.
    """

    grid: np.ndarray
    volume: float

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        if grid.ndim != 2 or grid.shape[0] == 0:
            raise ValueError("coverage grid must be a non-empty (points, n) array")
        if not self.volume > 0:
            raise ValueError(f"workspace volume must be positive, got {self.volume}")
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
    """Axis-aligned grid over ``[0, 1]**n`` at the given spacing, endpoints
    included (spacing 0.01 gives 101 points per axis)."""
    if not 0 < spacing < 1:
        raise ValueError(f"grid spacing must lie in (0, 1), got {spacing}")
    m = int(round(1.0 / spacing))
    axis = np.arange(m + 1) * spacing
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.column_stack([c.ravel() for c in mesh])


def _squared_distances(grid_cols: tuple, pt: np.ndarray) -> np.ndarray:
    d2 = np.square(grid_cols[0] - pt[0])
    for d in range(1, pt.shape[0]):
        diff = grid_cols[d] - pt[d]
        diff *= diff
        d2 += diff
    return d2


def coverage_objective(
    payload: CoveragePayload, x: np.ndarray, smooth_eps: Optional[float] = None
) -> float:
    """Mean over the grid of squared distance to the nearest agent, scaled by
    the workspace volume.  Adding an agent can only decrease the value."""
    pts = x.reshape(-1, payload.n)
    cols = payload._grid_cols
    if smooth_eps is None:
        nearest = _squared_distances(cols, pts[0])
        for i in range(1, pts.shape[0]):
            np.minimum(nearest, _squared_distances(cols, pts[i]), out=nearest)
    else:
        d2 = np.stack([_squared_distances(cols, pts[i]) for i in range(pts.shape[0])])
        m = d2.min(axis=0)
        nearest = m + np.log(np.exp(smooth_eps * (d2 - m)).sum(axis=0)) / smooth_eps
    return payload.volume * float(nearest.mean())


# ---------------------------------------------------------------------------
# rendezvous with formation selection


@dataclass(frozen=True, eq=False)
class RendezvousPayload:
    """Finite family of target formations, one per formation parameter.

    ``positions`` has shape (thetas, N, n): absolute target positions whose
    pairwise differences define the relative targets, so any common
    translation of the agents is cost-free.
    """

    positions: np.ndarray
    thetas: tuple

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 3 or pos.shape[0] == 0:
            raise ValueError("formation family must be a non-empty (thetas, N, n) array")
        if len(self.thetas) != pos.shape[0]:
            raise ValueError("one formation parameter per family member required")
        if not np.all(np.isfinite(pos)):
            raise ValueError("formation positions must be finite")
        object.__setattr__(self, "positions", pos)
        # r[th, i, j] = y_i(th) - y_j(th), precomputed once
        object.__setattr__(
            self, "_offsets", pos[:, :, None, :] - pos[:, None, :, :]
        )

    @property
    def N(self) -> int:
        return self.positions.shape[1]

    @property
    def n(self) -> int:
        return self.positions.shape[2]


def circle_formation(
    N: int, radius: float = 0.2, thetas: Optional[tuple] = None
) -> RendezvousPayload:
    """Planar circular formations rotated by an integer parameter.

    Member ``theta`` places agent ``i`` (1-based) at
    ``radius * [cos(2*pi*(i + theta)/N), sin(2*pi*(i + theta)/N)]``.
    """
    if thetas is None:
        thetas = tuple(range(1, N + 1))
    idx = np.arange(1, N + 1)
    pos = np.empty((len(thetas), N, 2))
    for t_i, theta in enumerate(thetas):
        ang = 2.0 * np.pi * (idx + theta) / N
        pos[t_i, :, 0] = radius * np.cos(ang)
        pos[t_i, :, 1] = radius * np.sin(ang)
    return RendezvousPayload(positions=pos, thetas=tuple(thetas))


def rendezvous_objective(
    payload: RendezvousPayload, x: np.ndarray, smooth_eps: Optional[float] = None
):
    """Best formation fit: minimum over the family of the mean squared
    pairwise-offset error, and the minimizing parameter (smallest on ties).

    Returns ``(value, theta_star)``.  The value is zero exactly when the
    agents realize some family member up to a common translation.
    """
    N = payload.N
    pts = x.reshape(N, payload.n)
    diff = pts[:, None, :] - pts[None, :, :]
    err = diff[None, :, :, :] - payload._offsets
    per_theta = np.einsum("tijd,tijd->t", err, err) / (N * N)
    best = per_theta.min()
    theta_star = min(
        th for th, v in zip(payload.thetas, per_theta) if v == best
    )
    if smooth_eps is None:
        value = float(best)
    else:
        value = smooth_min(per_theta, smooth_eps)
    return value, theta_star


# ---------------------------------------------------------------------------
# assignment


@dataclass(frozen=True, eq=False)
class AssignmentPayload:
    """Target locations plus the reassignment policy.

    ``every-step`` re-solves the optimal agent/target pairing at each
    objective evaluation; ``once-at-start`` freezes the pairing computed from
    the initial state (``fixed_indices``).
    """

    targets: np.ndarray
    policy: str = EVERY_STEP
    fixed_indices: Optional[tuple] = None

    def __post_init__(self) -> None:
        targets = np.asarray(self.targets, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[0] == 0:
            raise ValueError("assignment targets must be a non-empty (N, n) array")
        if not np.all(np.isfinite(targets)):
            raise ValueError("assignment targets must be finite")
        if self.policy not in (EVERY_STEP, ONCE_AT_START):
            raise ValueError(f"unknown reassignment policy {self.policy!r}")
        object.__setattr__(self, "targets", targets)
        if self.fixed_indices is not None:
            if sorted(self.fixed_indices) != list(range(targets.shape[0])):
                raise ValueError("fixed_indices must be a permutation of the targets")

    @property
    def N(self) -> int:
        return self.targets.shape[0]

    @property
    def n(self) -> int:
        return self.targets.shape[1]


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment on a square cost matrix.

    Returns the permutation ``perm`` (agent ``i`` takes column ``perm[i]``)
    minimizing ``sum(cost[i, perm[i]])``.  Ties are broken deterministically:
    every permutation whose cost is within ``1e-9 * max(1, |best|)`` of the
    optimum ``best`` counts as optimal, and the lexicographically smallest of
    those is returned.

    Fast path: one solve gives an optimum, and the runner-up cost is the best
    of the ``N`` solves that each forbid one edge of it (Murty's ranking).
    When the runner-up is more than twice the tolerance worse (a margin the
    refinement's rounding cannot cross), no other permutation is a tie and the
    optimum is returned without refinement; otherwise the refinement runs.
    """
    C = np.asarray(cost, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NonFiniteError("cost matrix contains non-finite entries")
    N = C.shape[0]
    rows, cols = linear_sum_assignment(C)
    if N <= 1:  # no runner-up; forbidding the only edge is infeasible
        return cols
    best = float(C[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    if _runner_up_exceeds(C, cols, best + 2.0 * tol):
        return cols
    # Fix rows in order to the smallest column that still allows an optimal
    # completion of the remaining subproblem.
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
        else:  # pragma: no cover - unreachable for finite costs
            raise RuntimeError("assignment refinement failed to place a row")
    return perm


def _runner_up_exceeds(C: np.ndarray, cols: np.ndarray, bound: float) -> bool:
    """Whether every permutation other than ``cols`` costs more than ``bound``.

    Each such permutation avoids at least one edge ``(i, cols[i])``, so the
    runner-up is the best of the solves with one of those edges forbidden.
    Works on a copy: ``C`` may be the caller's matrix.
    """
    D = C.copy()
    for i, j in enumerate(cols):
        D[i, j] = np.inf
        r, c = linear_sum_assignment(D)
        if float(D[r, c].sum()) <= bound:
            return False
        D[i, j] = C[i, j]
    return True


def assignment_objective(payload: AssignmentPayload, x: np.ndarray):
    """Total squared distance of agents to their assigned targets.

    Returns ``(value, indices)``.  Under the every-step policy the optimal
    pairing is re-solved from the current positions; under once-at-start the
    frozen pairing is used.
    """
    pts = x.reshape(payload.N, payload.n)
    if payload.policy == ONCE_AT_START and payload.fixed_indices is not None:
        perm = np.asarray(payload.fixed_indices, dtype=np.intp)
    else:
        diff = pts[:, None, :] - payload.targets[None, :, :]
        cost = np.einsum("ijd,ijd->ij", diff, diff)
        perm = hungarian(cost)
    resid = pts - payload.targets[perm]
    return float(np.einsum("id,id->", resid, resid)), perm


def freeze_assignment(payload: AssignmentPayload, x0: np.ndarray) -> AssignmentPayload:
    """Pin the once-at-start pairing from the initial state."""
    _, perm = assignment_objective(
        AssignmentPayload(payload.targets, policy=EVERY_STEP), x0
    )
    return AssignmentPayload(
        payload.targets, policy=ONCE_AT_START, fixed_indices=tuple(int(p) for p in perm)
    )


# ---------------------------------------------------------------------------
# quadratic test objective


@dataclass(frozen=True, eq=False)
class QuadraticPayload:
    """Symmetric PSD form for the analytic test objective ``x' H x``."""

    H: np.ndarray

    def __post_init__(self) -> None:
        H = np.asarray(self.H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
        if not np.array_equal(H, H.T):
            raise ValueError("H must be symmetric")
        object.__setattr__(self, "H", H)


def quadratic_objective(payload: QuadraticPayload, x: np.ndarray) -> float:
    """Exact quadratic form ``x' H x`` (gradient ``2 H x``)."""
    return float(x @ payload.H @ x)


# ---------------------------------------------------------------------------
# barrier-wrapped objective


COVERAGE = "coverage"
RENDEZVOUS = "rendezvous"
ASSIGNMENT = "assignment"
QUADRATIC = "quadratic"

_KINDS = (COVERAGE, RENDEZVOUS, ASSIGNMENT, QUADRATIC)


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """A task objective plus its barrier parameters.

    ``smooth_min_epsilon`` of ``None`` keeps the hard inner minima; a strictly
    negative value switches coverage and rendezvous to the log-sum-exp smooth
    minimum.

    Every run-fixed invariant, the payload's layout included, is checked here
    once, so evaluations take a flat ``float64`` state of length ``n*N`` and
    check nothing.
    """

    kind: str
    n: int
    N: int
    payload: object
    l1: float = 100.0
    l2: float = 101.0
    smooth_min_epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0 < self.l1 < self.l2:
            raise ValueError(f"need 0 < l1 < l2, got l1={self.l1}, l2={self.l2}")
        if self.smooth_min_epsilon is not None and not -np.inf < self.smooth_min_epsilon < 0:
            raise ValueError("smooth_min_epsilon must be finite and strictly negative")
        if self.kind == QUADRATIC:
            layout = self.payload.H.shape == (self.nN, self.nN)
        elif self.kind == COVERAGE:
            layout = self.payload.n == self.n
        else:
            layout = (self.payload.N, self.payload.n) == (self.N, self.n)
        if not layout:
            raise ValueError(f"{self.kind} payload does not match n={self.n}, N={self.N}")

    @property
    def nN(self) -> int:
        return self.n * self.N


def objective_value(spec: ObjectiveSpec, x: np.ndarray) -> float:
    """Task objective before the barrier wrap."""
    eps = spec.smooth_min_epsilon
    if spec.kind == COVERAGE:
        return coverage_objective(spec.payload, x, smooth_eps=eps)
    if spec.kind == RENDEZVOUS:
        return rendezvous_objective(spec.payload, x, smooth_eps=eps)[0]
    if spec.kind == ASSIGNMENT:
        return assignment_objective(spec.payload, x)[0]
    return quadratic_objective(spec.payload, x)


def evaluate(spec: ObjectiveSpec, x: np.ndarray) -> float:
    """Barrier-wrapped objective value.

    Equals the task objective exactly inside radius ``l1`` and ``x.x``
    exactly outside radius ``l2``; blends with the C2 weight in between.
    """
    r = float(np.linalg.norm(x))
    if r <= spec.l1:
        return objective_value(spec, x)
    quad = float(np.dot(x, x))
    if r >= spec.l2:
        return quad
    rho = barrier_weight(r, spec.l1, spec.l2)
    return rho * objective_value(spec, x) + (1.0 - rho) * quad


def make_objective_fn(spec: ObjectiveSpec):
    """Bind a spec into a plain ``J(values) -> float`` callable."""

    def J(values: np.ndarray) -> float:
        return evaluate(spec, values)

    return J

