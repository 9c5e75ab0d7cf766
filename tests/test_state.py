import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from broadcast_control import state
from broadcast_control.state import NonFiniteError, _hash_key, apply_input, draw_block


def chunk_steps(n, N, K):
    return max(1, state._CHUNK_SIGNS // (K * n * N))


def test_hash_pinned_values():
    # the splitmix64-keyed-v1 contract, byte for byte: a changed hash changes
    # every run's output bytes
    assert int(_hash_key(1, 0, 0, 0, 0, 0)) == 0x30D6C75D023DCBA0
    assert int(_hash_key(123, 4, 5, 6, 0, 2)) == 0xBDF77C01C9466AEF
    assert int(_hash_key(2**64 - 1, 7, 300, 14, 1, 9)) == 0x46A2E2E2ADC1168D
    # the top bit picks the sign, in the hash and in the plain integer form
    assert [reference.sign(1, 0, 0, 0, 0, 0), reference.sign(123, 4, 5, 6, 0, 2)] == [-1.0, 1.0]
    block = draw_block(master_seed=2024, trial=3, t=17, n=2, N=4, K=4)
    rows = ["".join("+" if v > 0 else "-" for v in row) for row in block]
    assert rows == ["--+-++++", "-+-++---", "--------", "+---++-+"]


def test_draw_sign_deterministic():
    first = reference.sign(123, 4, 5, agent=6, dim=0, k=2)
    assert first == 1.0
    assert all(
        draw_block(master_seed=123, trial=4, t=5, n=1, N=7, K=3)[2, 6] == first
        for _ in range(100)
    )


def test_draw_sign_mean_near_zero():
    # CLT bound: 3/sqrt(1e6) ~ 0.003, relaxed to 0.004.  Varying the dim
    # field is equivalent to drawing a (1, 1e6)-agent-dim block.
    block = draw_block(master_seed=12345, trial=0, t=0, n=10**6, N=1, K=1)
    assert abs(block.mean()) < 0.004


def test_draw_sign_runs_test():
    # Wald-Wolfowitz runs test at alpha = 0.01 on the sequence over k.
    block = draw_block(master_seed=999, trial=3, t=7, n=1, N=1, K=10**4)
    s = block.ravel()
    npos = int((s == 1.0).sum())
    nneg = s.size - npos
    runs = 1 + int((s[1:] != s[:-1]).sum())
    mu = 2.0 * npos * nneg / s.size + 1.0
    var = (mu - 1.0) * (mu - 2.0) / (s.size - 1.0)
    z = (runs - mu) / math.sqrt(var)
    assert abs(z) < 2.576


def test_draw_sign_field_sensitivity():
    # changing any one key field re-randomizes about half the signs
    base = draw_block(master_seed=1, trial=0, t=0, n=64, N=8, K=2)
    for other in (
        draw_block(master_seed=2, trial=0, t=0, n=64, N=8, K=2),
        draw_block(master_seed=1, trial=1, t=0, n=64, N=8, K=2),
        draw_block(master_seed=1, trial=0, t=1, n=64, N=8, K=2),
    ):
        frac = (other != base).mean()
        assert 0.3 < frac < 0.7


def test_draw_block_single_entry_reproducible():
    a = draw_block(master_seed=77, trial=0, t=0, n=1, N=1, K=1)
    b = draw_block(master_seed=77, trial=0, t=0, n=1, N=1, K=1)
    assert a.shape == (1, 1)
    assert a[0, 0] in (-1.0, 1.0)
    assert np.array_equal(a, b)


def test_draw_block_rows_pairwise_distinct():
    # 2**-30 collision odds per pair; over 100 seeds this never fires
    for seed in range(100):
        block = draw_block(master_seed=seed, trial=0, t=0, n=2, N=15, K=3)
        assert not np.array_equal(block[0], block[1])
        assert not np.array_equal(block[0], block[2])
        assert not np.array_equal(block[1], block[2])


def test_draw_block_k0_slice_matches_k1_block():
    big = draw_block(master_seed=5, trial=2, t=9, n=2, N=15, K=10)
    single = draw_block(master_seed=5, trial=2, t=9, n=2, N=15, K=1)
    assert np.array_equal(big[0], single[0])


def test_draw_block_matches_draw_sign_layout():
    block = draw_block(master_seed=42, trial=1, t=3, n=2, N=3, K=2)
    for k in range(2):
        for i in range(3):
            for j in range(2):
                assert block[k, i * 2 + j] == reference.sign(42, 1, 3, agent=i, dim=j, k=k)


def test_draw_block_across_chunk_boundaries():
    for n, N, K in ((2, 15, 1), (2, 15, 10), (3, 7, 4)):
        S = chunk_steps(n, N, K)
        assert S > 1
        for t in (0, S - 1, S, S + 1, 2 * S - 1, 2 * S, 5 * S + 3):
            block = draw_block(master_seed=11, trial=2, t=t, n=n, N=N, K=K)
            assert np.array_equal(block, reference.block(11, 2, t, n, N, K))


def test_draw_block_layout_above_chunk_budget():
    # one block holds more signs than a chunk: one step per chunk
    n, N, K = 3, 700, 2
    assert chunk_steps(n, N, K) == 1
    for t in (0, 1, 2, 40):
        block = draw_block(master_seed=5, trial=1, t=t, n=n, N=N, K=K)
        assert block.shape == (K, n * N)
        assert np.array_equal(block, reference.block(5, 1, t, n, N, K))


def test_k0_row_matches_k1_block_across_chunk_boundary():
    # K=1 and K=3 chunk at different step counts, yet share row k=0
    n, N = 2, 15
    S1, S3 = chunk_steps(n, N, 1), chunk_steps(n, N, 3)
    assert S1 != S3
    for t in sorted({S3 - 1, S3, S3 + 1, S1 - 1, S1, S1 + 1}):
        single = draw_block(master_seed=8, trial=4, t=t, n=n, N=N, K=1)
        triple = draw_block(master_seed=8, trial=4, t=t, n=n, N=N, K=3)
        assert np.array_equal(single[0], triple[0])


def test_draw_block_random_key_order_matches_fresh_draws():
    # more keys than the cache holds, revisited in random order, so chunks
    # are evicted and recomputed between draws
    rng = np.random.default_rng(3)
    keys = [
        (int(seed), int(trial), int(t), n, N, K)
        for seed in (0, 9, 2**64 - 1)
        for trial in (0, 1, 7)
        for n, N, K in ((1, 1, 1), (2, 3, 2), (2, 15, 10))
        for t in rng.integers(0, 3 * chunk_steps(n, N, K), size=2)
    ]
    assert len(keys) > 4 * state._CHUNK_CACHE
    for i in rng.permutation(2 * len(keys)) % len(keys):
        assert np.array_equal(draw_block(*keys[i]), reference.block(*keys[i]))


def test_returned_block_does_not_alias_the_cache():
    first = draw_block(master_seed=21, trial=0, t=3, n=2, N=5, K=2)
    expected = first.copy()
    first *= -1.0
    first[0, 0] = np.nan
    again = draw_block(master_seed=21, trial=0, t=3, n=2, N=5, K=2)
    assert np.array_equal(again, expected)
    assert again.flags.writeable
    # the neighbouring step of the same chunk is untouched as well
    assert np.array_equal(
        draw_block(master_seed=21, trial=0, t=4, n=2, N=5, K=2),
        reference.block(21, 0, 4, 2, 5, 2),
    )


def test_draw_block_beyond_horizon_is_the_keyed_block():
    # the horizon only sizes the chunk: a step at or past it, or a chunk of
    # one step, still answers with its own keyed block
    for n, N, K, horizon in ((1, 2, 1, 1), (2, 15, 1, 60), (2, 15, 10, 5), (3, 7, 4, 0)):
        for t in {0, max(0, horizon - 1), horizon, horizon + 1, 3 * horizon + 7, 500}:
            block = draw_block(11, 2, t, n, N, K, horizon=horizon)
            assert np.array_equal(block, reference.block(11, 2, t, n, N, K))


def test_draw_block_rejects_negative_trial_or_step():
    for trial, t in ((-1, 0), (0, -1), (-3, 5)):
        with pytest.raises(OverflowError):
            draw_block(master_seed=0, trial=trial, t=t, n=2, N=3, K=1)


def test_chunk_cache_is_bounded(monkeypatch):
    assert state._CHUNK_SIGNS == 4096
    assert state._CHUNK_CACHE <= 8
    assert state._sign_chunk.cache_info().maxsize == state._CHUNK_CACHE
    state._sign_chunk.cache_clear()
    for trial in range(3 * state._CHUNK_CACHE):
        draw_block(master_seed=1, trial=trial, t=0, n=2, N=15, K=1)
    assert state._sign_chunk.cache_info().currsize == state._CHUNK_CACHE
    # one hash call fills max(1, min(horizon, budget // (K*n*N))) steps: at
    # most max(budget, one block) signs, and no more steps than the horizon
    sizes = []
    hash_key = state._hash_key

    def recording(*fields):
        h = hash_key(*fields)
        sizes.append(h.size)
        return h

    monkeypatch.setattr(state, "_hash_key", recording)
    layouts = (
        (2, 15, 1, None), (2, 15, 10, None), (1, 1, 1, None), (3, 700, 2, None),
        (1, 2, 1, 1), (2, 15, 1, 7), (2, 15, 1, 10**6), (2, 15, 10, 3), (3, 700, 2, 9),
    )
    for n, N, K, horizon in layouts:
        draw_block(master_seed=2, trial=0, t=0, n=n, N=N, K=K, horizon=horizon)
    assert sizes == [
        min(horizon or chunk_steps(n, N, K), chunk_steps(n, N, K)) * K * n * N
        for n, N, K, horizon in layouts
    ]
    assert all(
        size <= max(state._CHUNK_SIGNS, K * n * N)
        for size, (n, N, K, _) in zip(sizes, layouts)
    )


def test_block_self_inverse():
    block = draw_block(master_seed=8, trial=0, t=0, n=3, N=5, K=4)
    assert np.array_equal(1.0 / block, block)


def test_draw_block_entries_are_exact_signs():
    for seed in range(20):
        for t in range(5):
            block = draw_block(master_seed=seed, trial=seed % 3, t=t, n=3, N=7, K=4)
            assert block.dtype == np.float64
            assert block.shape == (4, 21)
            assert np.all(np.abs(block) == 1.0)


def test_draw_block_rejects_empty_layout():
    for n, N, K in ((0, 2, 1), (2, 0, 1), (2, 2, 0), (-1, 2, 1)):
        with pytest.raises(ValueError):
            draw_block(master_seed=0, trial=0, t=0, n=n, N=N, K=K)


def test_apply_input_examples():
    x = np.array([1.0, 2.0])
    assert np.array_equal(apply_input(x, np.zeros(2)), [1.0, 2.0])

    assert apply_input(np.array([1.0]), np.array([-0.25]))[0] == 0.75

    out = apply_input(np.array([0.5, 0.5]), np.array([0.01, -0.01]))
    assert np.allclose(out, [0.51, 0.49], rtol=0, atol=1e-15)


def test_apply_input_errors():
    x = np.array([1.0, 2.0])
    # an infinite or NaN input, or a finite one whose sum overflows
    for start, u in (
        (x, np.array([np.inf, 0.0])),
        (x, np.array([0.0, np.nan])),
        (np.array([1e308, 0.0]), np.array([1e308, 0.0])),
    ):
        with pytest.raises(NonFiniteError, match="collective state contains non-finite"):
            with np.errstate(over="ignore"):
                apply_input(start, u)


def test_apply_input_accepts_entries_whose_squares_overflow():
    # a finite state passes without a floating-point warning, even where its
    # sum of squares would overflow; tier-1 makes a RuntimeWarning an error
    x = np.array([1e200, -1e200, 3.0])
    u = np.array([1e199, 0.0, -1.0])
    assert np.array_equal(apply_input(x, u), x + u)
    assert np.array_equal(apply_input(x, np.zeros(3)), x)


_HUGE = st.floats(min_value=-(2.0**1022), max_value=2.0**1022, allow_nan=False)


@given(st.lists(st.tuples(_HUGE, _HUGE), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_apply_input_is_silent_on_huge_finite_states(pairs):
    # entries up to 2**1022 add without overflow, and beyond about 1e154
    # their squares overflow: apply_input must pass them without a warning
    x, u = (np.array(v) for v in zip(*pairs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(apply_input(x, u), x + u)


@given(
    st.lists(
        st.floats(min_value=-(2.0**40), max_value=2.0**40, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    st.lists(
        st.floats(min_value=-(2.0**40), max_value=2.0**40, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=200, deadline=None)
def test_apply_input_is_elementwise_double_sum(xs, us):
    size = min(len(xs), len(us))
    x = np.asarray(xs[:size])
    u = np.asarray(us[:size])
    out = apply_input(x, u)
    assert np.array_equal(out, x + u)
    # input unchanged (value semantics)
    assert np.array_equal(x, np.asarray(xs[:size]))
