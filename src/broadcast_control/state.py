"""Collective-state layout and the keyed randomness contract.

The collective state is a flat, agent-major ``float64`` array of length
``n*N``: agent ``i`` occupies slots ``[i*n, (i+1)*n)``.  A perturbation
block is a ``(K, n*N)`` array of +-1 signs in the same layout.

Every control law in this package consumes these Bernoulli +-1 signs.  They
are produced by a counter-based keyed construction rather than a sequential
generator: entry ``(k, agent, dim)`` of the block for ``(master_seed, trial,
t)`` is a pure function of those six integers.  This makes two runs share
randomness whenever they share keys, independent of process, evaluation
order, or worker count.  The generator identity string below is echoed into
every run manifest.

Signs are computed a chunk of consecutive steps at a time: one hash call
fills the blocks of ``max(1, 4096 // (K*n*N))`` steps of one ``(master_seed,
trial, n, N, K)``, and an LRU cache of the last 4 chunks answers the
following steps.  Each entry is still the same function of its key, so
chunking changes no output byte.  The cache holds at most ``4 * max(4096,
K*n*N)`` float64 signs per process: 128 KB unless one block alone is larger.
"""

from __future__ import annotations

import functools

import numpy as np

SIGN_GENERATOR_ID = "splitmix64-keyed-v1"

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S63 = np.uint64(63)

_CHUNK_SIGNS = 4096  # signs per hash call, 32 KB of float64
_CHUNK_CACHE = 4  # chunks kept per process


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


def draw_block(
    master_seed: int, trial: int, t: int, n: int, N: int, K: int
) -> np.ndarray:
    """Draw the ``(K, n*N)`` perturbation block for one logical step of one
    trial.

    Entry ``[k, i*n + j]`` is the sign keyed by ``(master_seed, trial, t,
    agent=i, dim=j, k)``, so the ``k=0`` row of any block equals the ``k=0``
    row of a ``K=1`` block for the same ``(seed, trial, t)``; slice ``k=0``
    doubles as the physical perturbation of the two-stage law, which is what
    lets paired runs share sample paths by key equality alone.  Every entry
    is exactly +-1, so each row is its own element-wise inverse, which the
    control laws rely on.

    The block is a fresh copy of one row of a cached chunk of
    ``max(1, _CHUNK_SIGNS // (K*n*N))`` consecutive steps, so a trial pays
    one hash call per chunk rather than one per step.
    """
    if n < 1 or N < 1 or K < 1:
        raise ValueError(f"n, N, K must be positive, got {(n, N, K)}")
    steps = max(1, _CHUNK_SIGNS // (K * n * N))
    chunk = _sign_chunk(master_seed, trial, t // steps, steps, n, N, K)
    return chunk[t % steps].copy()


@functools.lru_cache(maxsize=_CHUNK_CACHE)
def _sign_chunk(
    master_seed: int, trial: int, c: int, steps: int, n: int, N: int, K: int
) -> np.ndarray:
    """The ``(steps, K, n*N)`` blocks of steps ``[c*steps,
    (c+1)*steps)``, from one hash call.  The cache hands the same array to
    every caller, so ``draw_block`` returns copies."""
    # converting the Python int, not an int64 array, keeps a negative step
    # an OverflowError instead of a wrapped key
    t = np.asarray(c * steps, dtype=np.uint64) + np.arange(steps, dtype=np.uint64)
    h = _hash_key(
        master_seed,
        trial,
        t.reshape(steps, 1, 1, 1),
        np.arange(N, dtype=np.uint64).reshape(N, 1),
        np.arange(n, dtype=np.uint64),
        np.arange(K, dtype=np.uint64).reshape(K, 1, 1),
    )
    return _signs_from_hash(h).reshape(steps, K, n * N)


def apply_input(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Advance the integrator dynamics by one step: every agent adds its input.

    ``u`` has the state's shape, as every step law builds it.  Returns the
    new state ``x + u``; raises ``NonFiniteError`` when it is not finite,
    which ends the trial at this step.
    """
    out = x + u
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("collective state contains non-finite entries")
    return out
