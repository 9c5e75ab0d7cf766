"""Plain reference forms of rules that the package computes by a fast path.

A fast path is exact only by a rounding argument, so its tests compare it
with the plainest form of the same rule kept here: the sign of a key, each
task's objective through the barrier, one step of each law, and the trial
loop that strings them together.  Nothing in this module is imported by the
package.
"""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from broadcast_control.objectives import barrier_weight, smooth_min

# ---------------------------------------------------------------------------
# signs

_MASK = 2**64 - 1


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer on a Python integer."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def sign(master_seed, trial, t, agent, dim, k) -> float:
    """The ``splitmix64-keyed-v1`` sign of one key: the seed and then each
    field absorbed by one mixing round, and the top bit of the result picks
    +1."""
    h = _mix64(master_seed % 2**64)
    for part in (trial, t, agent, dim, k):
        h = _mix64(h ^ ((part * 0x9E3779B97F4A7C15) & _MASK))
    return 1.0 if h >> 63 else -1.0


def block(master_seed, trial, t, n, N, K) -> np.ndarray:
    """``sign`` at every ``(k, agent, dim)``, laid out as ``[k, agent*n +
    dim]``: one step's block."""
    return np.array(
        [[sign(master_seed, trial, t, i, d, k) for i in range(N) for d in range(n)]
         for k in range(K)]
    )


# ---------------------------------------------------------------------------
# the objectives


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


def squared_distances(payload, x):
    """Every agent's squared distance to every grid point, summed over the
    axes in order: an ``(N, G)`` array."""
    pts = x.reshape(-1, payload.grid.shape[1])
    return ((payload.grid[None, :, :] - pts[:, None, :]) ** 2).sum(axis=2)


def coverage(payload, x, smooth_eps=None):
    """The minimum over agents of ``squared_distances`` and the mean over the
    grid: the scan whose bits the hard-minimum coverage evaluator must
    reproduce."""
    d2 = squared_distances(payload, x)
    nearest = d2.min(axis=0) if smooth_eps is None else smooth_min(d2, smooth_eps)
    return float(nearest.mean())


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


def pairing(targets, x):
    """The pairing that ``hungarian`` below solves from the agents at ``x``."""
    pts = x.reshape(targets.shape)
    return hungarian(((pts[:, None, :] - targets[None, :, :]) ** 2).sum(axis=2))


def assignment(targets, x, perm=None):
    """Total squared distance of the agents to their targets under ``perm``,
    or under the pairing solved at ``x``."""
    resid = x.reshape(targets.shape) - targets[pairing(targets, x) if perm is None else perm]
    return float(np.einsum("id,id->", resid, resid))


# ---------------------------------------------------------------------------
# the step laws and the trial loop


class Diverged(Exception):
    """A non-finite objective value or state ended the trial at ``step``."""

    def __init__(self, step: int):
        super().__init__(f"diverged at step {step}")
        self.step = step


def objective(config):
    """``J`` of a config: the barrier around the plain form of its task, on
    the payload data that ``config.objective_spec()`` builds."""
    payload, eps = config.objective_spec().payload, config.smooth_min_eps
    if config.task == "coverage":
        task = lambda x: coverage(payload, x, eps)
    elif config.task == "rendezvous":
        task = lambda x: rendezvous(payload, x, eps)
    elif config.task == "assignment":
        targets, perm = payload.targets, None
        if config.reassignment == "once-at-start":
            perm = pairing(targets, config.initial_state())
        task = lambda x: assignment(targets, x, perm)
    else:
        task = lambda x: float(x @ payload @ x)
    return lambda x: evaluate(config, task, x)


def gains(config, t):
    """The single-stage gains ``a(t)`` and ``c(t)``."""
    return config.a0 / (t + config.t_v) ** config.a_p, config.c0 / (t + config.t_v) ** config.c_p


def _finite(value):
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(value)
    return value


def local_input(nu, signs, a, c):
    """The out-of-place sum ``pbc_local_input`` must reproduce bit for bit:
    each term ``(-a) * ((nu[k] / c) * sigma_k)``, summed in ``k`` order, then
    divided by ``K``."""
    K = signs.shape[0]
    acc = (-a) * ((nu[0] / c) * signs[0])
    for k in range(1, K):
        acc += (-a) * ((nu[k] / c) * signs[k])
    return acc / K


def pbc_step(x, a, c, signs, J, j_x):
    """One single-stage step from ``x``, whose objective value is ``j_x``:
    the probe differences, the local input, the move.  Returns ``(x', u)``."""
    nu = [_finite(J(x + c * sigma)) - j_x for sigma in signs]
    u = local_input(nu, signs, a, c)
    return _finite(x + u), u


def bc_step(x, t, a, c, sigma, j_even, j_x):
    """One two-stage step: the probe ``c*sigma`` on even ``t``; on odd ``t``
    the probe cancelled and the remembered difference descended, associated
    as ``pbc_local_input`` associates its terms.  Returns ``(x', u)``."""
    if t % 2 == 0:
        u = c * sigma
    else:
        u = (-c) * sigma + (-a) * (((j_x - j_even) / c) * sigma)
    return _finite(x + u), u


def trial(config, trial_index):
    """One trial of ``config.law`` (``bc`` or ``pbc``): the states, the J
    trace and the D trace, or ``Diverged``."""
    J, n, N = objective(config), config.n, config.N
    steps = config.steps
    if config.law == "bc" and config.mode == "theorem":
        steps *= 2  # the two-stage law runs 2T steps against T
    x = config.initial_state()
    states, js, ds = [x], [], [0.0]
    t = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps):
                j = _finite(J(x))
                js.append(j)
                if config.law == "bc":
                    a, c = gains(config, t // 2)
                    if t % 2 == 0:
                        sigma = block(config.master_seed, trial_index, t // 2, n, N, 1)[0]
                        j_even = j
                    x, u = bc_step(x, t, a, c, sigma, j_even, j)
                else:
                    a, c = gains(config, t)
                    signs = block(config.master_seed, trial_index, t, n, N, config.K)
                    x, u = pbc_step(x, a, c, signs, J, j)
                states.append(x)
                ds.append(ds[-1] + float(np.linalg.norm(u.reshape(N, n), axis=1).sum()))
            js.append(_finite(J(x)))
    except FloatingPointError:
        raise Diverged(t) from None
    return np.array(states), np.array(js), np.array(ds)
