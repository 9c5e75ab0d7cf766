import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_control import NonFiniteError, apply_input, draw_block
from broadcast_control.state import _hash_key, _signs_from_hash


def draw_sign(master_seed, trial, t, agent, dim, k):
    """The single sign keyed by ``(master_seed, trial, t, agent, dim, k)``:
    the scalar layout oracle for ``draw_block``."""
    return float(_signs_from_hash(_hash_key(master_seed, trial, t, agent, dim, k)))


def test_hash_pinned_values():
    # the splitmix64-keyed-v1 contract, byte for byte: a changed hash changes
    # every run's output bytes
    assert int(_hash_key(1, 0, 0, 0, 0, 0)) == 0x30D6C75D023DCBA0
    assert int(_hash_key(123, 4, 5, 6, 0, 2)) == 0xBDF77C01C9466AEF
    assert int(_hash_key(2**64 - 1, 7, 300, 14, 1, 9)) == 0x46A2E2E2ADC1168D
    block = draw_block(master_seed=2024, trial=3, t=17, n=2, N=4, K=4)
    rows = ["".join("+" if v > 0 else "-" for v in row) for row in block]
    assert rows == ["--+-++++", "-+-++---", "--------", "+---++-+"]


def test_draw_sign_deterministic():
    first = draw_sign(123, 4, 5, agent=6, dim=0, k=2)
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
                assert block[k, i * 2 + j] == draw_sign(42, 1, 3, agent=i, dim=j, k=k)


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
    with pytest.raises(ValueError):
        apply_input(x, np.array([1.0]))
    with pytest.raises(ValueError):
        apply_input(x, np.zeros((1, 2)))
    # an infinite or NaN input, or a finite one whose sum overflows
    for start, u in (
        (x, np.array([np.inf, 0.0])),
        (x, np.array([0.0, np.nan])),
        (np.array([1e308, 0.0]), np.array([1e308, 0.0])),
    ):
        with pytest.raises(NonFiniteError, match="collective state contains non-finite"):
            with np.errstate(over="ignore"):
                apply_input(start, u)


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
