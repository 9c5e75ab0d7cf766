"""Collective-state layout and the keyed randomness contract.

Every control law in this package consumes Bernoulli +-1 perturbation signs.
Signs are produced by a counter-based keyed construction rather than a
sequential generator: each sign is a pure function of a ``StreamKey``
(master seed, trial, time step, agent, dimension, sample index).  This makes
two runs share randomness whenever they share keys, independent of process,
evaluation order, or worker count.  The generator identity string below is
echoed into every run manifest.

The state vector is stored flat and agent-major: agent ``i`` occupies slots
``[i*n, (i+1)*n)`` of a length ``n*N`` array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIGN_GENERATOR_ID = "splitmix64-keyed-v1"

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S63 = np.uint64(63)


class NonFiniteError(ValueError):
    """A state, objective value or assignment cost is NaN or infinite: the
    trial diverged."""


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijection on uint64."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _hash_key(master_seed: int, trial, t, agent, dim, k) -> np.ndarray:
    """Hash key fields into uint64 values.  Fields past the seed may be arrays.

    Fields are absorbed one at a time through a bijective round, so two
    distinct key tuples can never collide: the first differing field produces
    differing round inputs, and every later round preserves the difference.
    """
    with np.errstate(over="ignore"):
        h = _mix64(np.asarray(master_seed % (2**64), dtype=np.uint64))
        for part in (trial, t, agent, dim, k):
            h = _mix64(h ^ (np.asarray(part, dtype=np.uint64) * _GAMMA))
    return h


def _signs_from_hash(h: np.ndarray) -> np.ndarray:
    return np.where((h >> _S63).astype(bool), 1.0, -1.0)


@dataclass(frozen=True)
class StreamKey:
    """Address of a single sign draw.

    ``k`` is the perturbation sample index; slice ``k=0`` doubles as the
    physical perturbation of the two-stage law, which is what lets paired
    runs share sample paths by key equality alone.
    """

    master_seed: int
    trial: int
    t: int
    agent: int
    dim: int
    k: int = 0


def draw_sign(key: StreamKey) -> float:
    """Return the +-1 sign addressed by ``key``.

    Deterministic: the same key always yields the same sign, in any process
    and at any worker count.  Across keys the signs are i.i.d. fair coin
    flips for all practical purposes (see the statistical tests).
    """
    h = _hash_key(key.master_seed, key.trial, key.t, key.agent, key.dim, key.k)
    return float(_signs_from_hash(h))


@dataclass
class CollectiveState:
    """Stacked agent state: ``N`` agents with ``n`` coordinates each.

    ``values`` is flat and agent-major; all entries must be finite.
    """

    n: int
    N: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1 or self.N < 1:
            raise ValueError(f"n and N must be positive, got n={self.n}, N={self.N}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.n * self.N,):
            raise ValueError(
                f"state length {vals.shape} does not match n*N = {self.n * self.N}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("collective state contains non-finite entries")
        self.values = vals

    @property
    def nN(self) -> int:
        return self.n * self.N

    def agent(self, i: int) -> np.ndarray:
        """View of agent ``i``'s coordinate slice."""
        return self.values[i * self.n : (i + 1) * self.n]

    def copy(self) -> "CollectiveState":
        return CollectiveState(self.n, self.N, self.values.copy())


@dataclass
class PerturbationBlock:
    """``K`` stacked sign vectors, each of length ``n*N`` with +-1 entries.

    Because every entry is +-1, each sign vector is its own element-wise
    inverse, which the control laws rely on.
    """

    K: int
    signs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        signs = np.asarray(self.signs, dtype=np.float64)
        if signs.ndim != 2 or signs.shape[0] != self.K:
            raise ValueError(f"signs must have shape (K, nN), got {signs.shape}")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("perturbation entries must be exactly -1 or +1")
        self.signs = signs


def draw_block(
    master_seed: int, trial: int, t: int, n: int, N: int, K: int
) -> PerturbationBlock:
    """Draw the perturbation block for one logical step of one trial.

    Entry ``(k, i, j)`` is ``draw_sign(StreamKey(master_seed, trial, t,
    agent=i, dim=j, k=k))``, so the ``k=0`` slice of any block equals the
    ``k=0`` slice of a ``K=1`` block for the same ``(seed, trial, t)``.
    """
    if n < 1 or N < 1 or K < 1:
        raise ValueError(f"n, N, K must be positive, got {(n, N, K)}")
    ks, agents, dims = np.meshgrid(
        np.arange(K, dtype=np.uint64),
        np.arange(N, dtype=np.uint64),
        np.arange(n, dtype=np.uint64),
        indexing="ij",
    )
    h = _hash_key(master_seed, trial, t, agents, dims, ks)
    return PerturbationBlock(K=K, signs=_signs_from_hash(h).reshape(K, n * N))


def apply_input(x: CollectiveState, u: np.ndarray) -> CollectiveState:
    """Advance the integrator dynamics by one step: every agent adds its input.

    A non-finite input makes ``x + u`` non-finite, which the new state rejects.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (x.nN,):
        raise ValueError(f"input shape {u.shape} does not match state length {x.nN}")
    return CollectiveState(x.n, x.N, x.values + u)
