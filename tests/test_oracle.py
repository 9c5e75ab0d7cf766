import math

import numpy as np
import pytest

from broadcast_control.config import ExperimentConfig
from broadcast_control.controllers import bc_step, pbc_step
from broadcast_control.engine import run_paired
from broadcast_control.objectives import (
    CoveragePayload,
    QuadraticPayload,
    coverage_objective,
    quadratic_objective,
)
from broadcast_control.oracle import (
    EnumerationTooLarge,
    _all_estimates,
    _outcomes,
    check_distance_dominance,
    check_k_monotonicity,
    check_twice_speed,
    descent_fraction,
    enumerate_estimator_variance,
    enumerate_expected_gradient,
    enumerate_signs,
    expected_distance_power,
    expected_next_cost,
    random_spd_matrix,
)
from broadcast_control.state import draw_block

from conftest import scalar_state, unit_sched

SQUARE = lambda v: float(v[0] ** 2)


def quadratic(H):
    """``J(v) = v' H v`` with the form validated once."""
    payload = QuadraticPayload(H)
    return lambda v: quadratic_objective(payload, v)


# ---------------------------------------------------------------------------
# test oracles: the textbook single-probe estimate and central differences


def spsa_estimate(x: np.ndarray, sigma: np.ndarray, c: float, J) -> np.ndarray:
    """Single-probe gradient estimate ``(J(x + c*sigma) - J(x))/c * sigma``."""
    x = np.asarray(x, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if not c > 0:
        raise ValueError(f"probe radius must be positive, got {c}")
    if not np.all(np.abs(sigma) == 1.0):
        raise ValueError("sigma entries must be exactly -1 or +1")
    return ((float(J(x + c * sigma)) - float(J(x))) / c) * sigma


def finite_difference_gradient(J, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (float(J(x + e)) - float(J(x - e))) / (2.0 * h)
    return grad


def test_enumerate_signs_layout():
    s = enumerate_signs(2)
    assert s.tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]


def test_spsa_estimate_scalar_quadratic():
    # g = 2x + c*sigma for J = x^2: sigma=+1 -> 2.5, sigma=-1 -> 1.5
    x = np.array([1.0])
    assert spsa_estimate(x, np.array([1.0]), 0.5, SQUARE)[0] == pytest.approx(2.5)
    assert spsa_estimate(x, np.array([-1.0]), 0.5, SQUARE)[0] == pytest.approx(1.5)


def test_spsa_estimate_constant_objective():
    est = spsa_estimate(np.zeros(3), np.array([1.0, -1.0, 1.0]), 0.1, lambda v: 2.0)
    assert np.array_equal(est, np.zeros(3))


def test_spsa_estimate_rejects_bad_sigma():
    with pytest.raises(ValueError):
        spsa_estimate(np.zeros(2), np.array([0.5, 1.0]), 0.1, SQUARE)
    with pytest.raises(ValueError):
        spsa_estimate(np.zeros(2), np.ones(2), -0.1, SQUARE)


def test_linear_objective_enumeration_recovers_gradient():
    # J = g.x: each estimate component i is sum_j g_j sigma_j sigma_i, whose
    # enumerated mean is g_i (cross terms cancel in pairs)
    g = np.array([0.3, -1.2, 0.7])
    J = lambda v: float(g @ v)
    est = enumerate_expected_gradient(np.array([0.1, 0.2, 0.3]), 0.05, 1, J)
    assert np.abs(est - g).max() <= 1e-12


def test_quadratic_enumeration_exact_gradient(rng):
    for _ in range(25):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 12 // K + 1))
        H = random_spd_matrix(rng, d)
        x = rng.uniform(-1, 1, size=d)
        c = 10.0 ** rng.uniform(-3, 0)
        est = enumerate_expected_gradient(x, c, K, quadratic(H))
        assert np.abs(est - 2 * H @ x).max() <= 1e-12


def test_symmetric_quartic_zero_gradient_at_origin():
    J = lambda v: float(np.dot(v, v) ** 2)
    est = enumerate_expected_gradient(np.zeros(2), 0.3, 1, J)
    assert np.abs(est).max() <= 1e-15


def test_quartic_bias_decays_quadratically():
    # J = x^4 at x = 1: E[g] = 4 + 4c^2, so bias(c)/bias(c/2) = 4
    J = lambda v: float(v[0] ** 4)
    x = np.array([1.0])
    for c in (0.4, 0.2, 0.1):
        b1 = abs(enumerate_expected_gradient(x, c, 1, J)[0] - 4.0)
        b2 = abs(enumerate_expected_gradient(x, c / 2, 1, J)[0] - 4.0)
        assert 3.5 <= b1 / b2 <= 4.5


def test_all_estimates_match_per_row_formula_bitwise(rng):
    # the whole-array estimates against the single-probe formula evaluated
    # row by row, compared as bytes so that a sign of zero counts too
    quartic = lambda v: float(v[0] ** 4)  # check_estimator's bias-decay objective
    for d in range(1, 11):
        for _ in range(3):
            x = rng.uniform(-1, 1, size=d)
            c = 10.0 ** rng.uniform(-3, 0)
            for J in (quadratic(random_spd_matrix(rng, d)), quartic):
                want = np.array([spsa_estimate(x, s, c, J) for s in enumerate_signs(d)])
                assert _all_estimates(x, c, J).tobytes() == want.tobytes()


def test_enumeration_cap_enforced():
    with pytest.raises(EnumerationTooLarge):
        enumerate_expected_gradient(np.zeros(23), 0.1, 1, SQUARE)
    with pytest.raises(EnumerationTooLarge):
        enumerate_expected_gradient(np.zeros(12), 0.1, 2, SQUARE)
    with pytest.raises(EnumerationTooLarge):
        expected_next_cost(np.zeros(8), 0.1, 0.1, 3, SQUARE)
    assert _outcomes(11, 2) == 2**22


def test_finite_difference_gradient():
    J = lambda v: float(np.dot(v, v))
    grad = finite_difference_gradient(J, np.array([1.0, 2.0]), 1e-5)
    assert np.abs(grad - np.array([2.0, 4.0])).max() <= 1e-8
    grad0 = finite_difference_gradient(lambda v: 3.0, np.array([1.0, 2.0]))
    assert np.abs(grad0).max() <= 1e-9


def test_finite_difference_matches_coverage_piecewise_gradient():
    # where the nearest-agent partition is locally constant the coverage
    # objective is a quadratic with gradient (V/Nq) * sum_j 2(x_i - q_j)
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    payload = CoveragePayload(grid=grid)
    x = np.array([0.21, 0.2, 0.83, 0.78])  # generic point, partition stable
    J = lambda v: coverage_objective(payload, v)
    fd = finite_difference_gradient(J, x, 1e-6)
    pts = x.reshape(2, 2)
    d2 = ((grid[None, :, :] - pts[:, None, :]) ** 2).sum(axis=2)
    owner = d2.argmin(axis=0)
    analytic = np.zeros((2, 2))
    for j, q in enumerate(grid):
        analytic[owner[j]] += 2 * (pts[owner[j]] - q) / len(grid)
    assert np.abs(fd - analytic.ravel()).max() <= 1e-6


def test_expected_next_cost_hand_enumeration():
    # scalar instance x=1, a=0.1, c=0.5: outcomes {0.5625, 0.7225} for K=1
    # and {0.5625, 0.64, 0.64, 0.7225} for K=2
    x = np.array([1.0])
    assert expected_next_cost(x, 0.1, 0.5, 1, SQUARE) == pytest.approx(0.6425, abs=1e-12)
    assert expected_next_cost(x, 0.1, 0.5, 2, SQUARE) == pytest.approx(0.64125, abs=1e-12)


def test_expected_next_cost_zero_step():
    x = np.array([1.0])
    for K in (1, 2, 3):
        assert expected_next_cost(x, 0.0, 0.5, K, SQUARE) == pytest.approx(1.0, abs=1e-15)


def test_expected_next_cost_concave_reversal():
    # shifted concave bowl: larger K averages the probes and lands nearer
    # the flat top, so K=1 descends further
    J = lambda v: 10.0 - float(v[0] ** 2)
    x = np.array([1.0])
    v1 = expected_next_cost(x, 0.1, 0.5, 1, J)
    v2 = expected_next_cost(x, 0.1, 0.5, 2, J)
    assert v1 < v2


def test_expected_distance_power_linear_tie_at_kappa_one():
    # linear J on one coordinate: g(sigma) = g for every sigma, so |u| is
    # outcome-independent and all K tie exactly at kappa = 1
    J = lambda v: float(1.7 * v[0])
    x = np.array([0.3])
    vals = [expected_distance_power(x, 0.1, 0.5, K, 1.0, J) for K in (1, 2, 3)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-14)
    assert vals[1] == pytest.approx(vals[2], rel=1e-14)


def test_expected_distance_power_quadratic_strict_decrease():
    vals = [
        expected_distance_power(np.array([1.0]), 0.1, 0.5, K, 2.0, SQUARE)
        for K in (1, 2, 3)
    ]
    # K=1: 0.01 * (6.25 + 2.25)/2 = 0.0425; K=2: 0.01 * 4.125 = 0.04125
    assert vals[0] == pytest.approx(0.0425, abs=1e-15)
    assert vals[1] == pytest.approx(0.04125, abs=1e-15)
    assert vals[0] > vals[1] > vals[2]


def test_expected_distance_power_zero_step():
    assert expected_distance_power(np.array([1.0]), 0.0, 0.5, 2, 2.0, SQUARE) == 0.0


def test_variance_scaling_identity(rng):
    for _ in range(3):
        H = random_spd_matrix(rng, 2)
        x = rng.uniform(-1, 1, size=2)
        c = 0.3
        J = quadratic(H)
        var1 = enumerate_estimator_variance(x, c, 1, J)
        for K in (2, 3, 4):
            varK = enumerate_estimator_variance(x, c, K, J)
            assert np.abs(varK - var1 / K).max() <= 1e-12


def test_check_k_monotonicity_convex_verdict():
    rep = check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (1, 2, 3), SQUARE, direction="convex")
    assert rep.verdict is True
    assert rep.cost_values[0] == pytest.approx(0.6425, abs=1e-12)
    assert rep.cost_values[1] == pytest.approx(0.64125, abs=1e-12)
    assert rep.cost_values[2] < rep.cost_values[1]


def test_check_k_monotonicity_equal_k():
    rep = check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (2, 2), SQUARE, direction="convex")
    assert rep.cost_values[0] == rep.cost_values[1]
    assert rep.verdict is True


def test_check_k_monotonicity_diag_quadratic():
    J = quadratic(np.diag([1.0, 4.0]))
    rep = check_k_monotonicity(
        np.array([1.0, -0.5]), 0.05, 0.3, (1, 2, 3), J, direction="convex"
    )
    assert rep.verdict is True
    assert rep.cost_values[0] > rep.cost_values[1] > rep.cost_values[2]


def test_check_k_monotonicity_concave_reversal():
    J = lambda v: 10.0 - float(v[0] ** 2)
    rep = check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (1, 2, 3), J, direction="concave")
    assert rep.verdict is True
    assert rep.cost_values[0] < rep.cost_values[1] < rep.cost_values[2]


def test_check_k_monotonicity_requires_a_direction():
    with pytest.raises(TypeError):
        check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (1, 2), SQUARE)
    with pytest.raises(ValueError, match="direction"):
        check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (1, 2), SQUARE, direction="flat")


def _paired_records(steps=40, seed=0):
    config = ExperimentConfig(
        task="rendezvous", law="paired", mode="theorem", steps=steps, master_seed=seed
    ).validate()
    return run_paired(config, 0), config


def test_check_twice_speed_report():
    (rec_bc, rec_pbc), _ = _paired_records()
    rep = check_twice_speed(rec_bc, rec_pbc)
    assert (rec_pbc.steps, rec_bc.steps) == (40, 80)
    assert rep.max_state_deviation <= 1e-9
    assert rep.max_objective_deviation <= 1e-9
    assert rep.max_state_deviation >= 0.0


def test_check_twice_speed_t0_exact():
    (rec_bc, rec_pbc), _ = _paired_records(steps=0)
    rep = check_twice_speed(rec_bc, rec_pbc)
    assert rep.max_state_deviation == 0.0


def test_check_twice_speed_rejects_short_record():
    (rec_bc, rec_pbc), _ = _paired_records()
    with pytest.raises(ValueError):
        check_twice_speed(rec_pbc, rec_bc)


def test_check_distance_dominance_report():
    (rec_bc, rec_pbc), config = _paired_records()
    rep = check_distance_dominance(rec_bc, rec_pbc)
    assert rep.min_margin >= -1e-9
    assert rep.margins.shape == (41,)
    assert rep.margins[0] == 0.0
    assert rep.final_margin == rep.margins[-1]


def test_worked_single_step_distance_margin():
    # hand trace: sigma=+1 gives D_bc(2) = 0.5 + 0.75 and D_pbc(1) = 0.25,
    # margin 1.0; sigma=-1 gives 0.85 - 0.15 = 0.7
    sched = unit_sched(0.1, 0.5)
    for sigma, expected in ((1.0, 1.0), (-1.0, 0.7)):
        x = scalar_state(1.0)
        block = np.array([[sigma]])
        x1, u0 = bc_step(x, 0, sched, block[0], SQUARE(x), SQUARE)
        x2, u1 = bc_step(x1, 1, sched, block[0], SQUARE(x), SQUARE)
        d_bc = abs(u0[0]) + abs(u1[0])
        _, up = pbc_step(scalar_state(1.0), 0, sched, block, SQUARE)
        margin = d_bc - abs(up[0])
        assert margin == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "task,a0",
    [("coverage", 2.0), ("assignment", 0.2), ("quadratic", 2.0)],
)
def test_paired_identities_hold_on_other_tasks(task, a0):
    config = ExperimentConfig(
        task=task, law="paired", mode="theorem", steps=50, master_seed=11, a0=a0
    ).validate()
    rec_bc, rec_pbc = run_paired(config, 0)
    speed = check_twice_speed(rec_bc, rec_pbc)
    dist = check_distance_dominance(rec_bc, rec_pbc)
    assert speed.max_state_deviation <= 1e-6
    assert speed.max_objective_deviation <= 1e-6
    assert dist.min_margin >= -1e-9


def test_engine_sampling_matches_enumerated_expectation():
    # 1e5 sampled one-step transitions agree with the enumerated mean of
    # J(next) to within four standard errors
    J = quadratic(np.diag([1.0, 2.0]))
    x0 = np.array([0.8, -0.6])
    a, c = 0.1, 0.3
    expected = expected_next_cost(x0, a, c, 1, J)
    sched = unit_sched(a, c)
    samples = np.empty(10**5)
    for i in range(samples.shape[0]):
        block = draw_block(master_seed=42, trial=i, t=0, n=1, N=2, K=1, horizon=1)
        nxt, _ = pbc_step(x0, 0, sched, block, J)
        samples[i] = J(nxt)
    se = samples.std(ddof=1) / math.sqrt(samples.shape[0])
    assert abs(samples.mean() - expected) <= 4 * se


def test_descent_fraction():
    down = np.linspace(1.0, 0.0, 120)[None, :]
    up = np.linspace(0.0, 1.0, 120)[None, :]
    assert descent_fraction(np.vstack([down, up])) == 0.5
    with pytest.raises(ValueError):
        descent_fraction(np.zeros((2, 60)))
