import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_control.config import ExperimentConfig
from broadcast_control.controllers import bc_step, pbc_step
from broadcast_control.engine import MonteCarloResult, TrialRecord, run_paired
from broadcast_control.objectives import (
    CoveragePayload,
    ObjectiveSpec,
    make_objective_fn,
    quadratic_objective,
)
from broadcast_control import oracle as oracle_mod
from broadcast_control import verify as verify_mod
from broadcast_control.oracle import (
    DistanceDominanceReport,
    EnumerationTooLarge,
    TwiceSpeedReport,
    _estimates,
    _outcomes,
    check_distance_dominance,
    check_k_monotonicity,
    check_twice_speed,
    descent_fraction,
    enumerate_estimator_variance,
    enumerate_expected_gradient,
    enumerate_signs,
    random_spd_matrix,
)
from broadcast_control.state import draw_block
from broadcast_control.verify import run_verify

from conftest import scalar_state

SQUARE = lambda v: float(v[0] ** 2)


def quadratic(H):
    """``J(v) = v' H v`` for a symmetric float ``H``."""
    return lambda v: quadratic_objective(H, v)


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


def test_estimates_match_per_row_formula_bitwise(rng):
    # the whole-array estimates against the single-probe formula evaluated
    # row by row, compared as bytes so that a sign of zero counts too
    quartic = lambda v: float(v[0] ** 4)  # check_estimator's bias-decay objective
    for d in range(1, 11):
        for _ in range(3):
            x = rng.uniform(-1, 1, size=d)
            c = 10.0 ** rng.uniform(-3, 0)
            for J in (quadratic(random_spd_matrix(rng, d)), quartic):
                want = np.array([spsa_estimate(x, s, c, J) for s in enumerate_signs(d)])
                assert _estimates(x, c, 1, J).tobytes() == want.tobytes()


def test_enumeration_cap_enforced():
    with pytest.raises(EnumerationTooLarge):
        enumerate_expected_gradient(np.zeros(23), 0.1, 1, SQUARE)
    with pytest.raises(EnumerationTooLarge):
        enumerate_expected_gradient(np.zeros(12), 0.1, 2, SQUARE)
    with pytest.raises(EnumerationTooLarge):
        check_k_monotonicity(np.zeros(8), 0.1, 0.1, (3,), SQUARE)
    assert _outcomes(11, 2) == 2**22


def test_enumeration_refuses_an_empty_state_or_k():
    with pytest.raises(ValueError, match="state length and K must be positive"):
        check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (0,), SQUARE)
    with pytest.raises(ValueError, match="state length and K must be positive"):
        enumerate_expected_gradient(np.zeros(0), 0.1, 1, SQUARE)


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
    J = make_objective_fn(ObjectiveSpec(payload, 100.0, 101.0))
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
    rep = check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (1, 2), SQUARE)
    assert rep.cost_values[0] == pytest.approx(0.6425, abs=1e-12)
    assert rep.cost_values[1] == pytest.approx(0.64125, abs=1e-12)


def test_expected_next_cost_zero_step():
    rep = check_k_monotonicity(np.array([1.0]), 0.0, 0.5, (1, 2, 3), SQUARE)
    for value in rep.cost_values:
        assert value == pytest.approx(1.0, abs=1e-15)


def test_expected_distance_power_linear_tie_at_kappa_one():
    # linear J on one coordinate: g(sigma) = g for every sigma, so |u| is
    # outcome-independent and all K tie exactly at kappa = 1
    J = lambda v: float(1.7 * v[0])
    rep = check_k_monotonicity(np.array([0.3]), 0.1, 0.5, (1, 2, 3), J)
    vals = rep.distance_values[1.0]
    assert vals[0] == pytest.approx(vals[1], rel=1e-14)
    assert vals[1] == pytest.approx(vals[2], rel=1e-14)


def test_expected_distance_power_quadratic_strict_decrease():
    rep = check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (1, 2, 3), SQUARE)
    vals = rep.distance_values[2.0]
    # K=1: 0.01 * (6.25 + 2.25)/2 = 0.0425; K=2: 0.01 * 4.125 = 0.04125
    assert vals[0] == pytest.approx(0.0425, abs=1e-15)
    assert vals[1] == pytest.approx(0.04125, abs=1e-15)
    assert vals[0] > vals[1] > vals[2]


def test_expected_distance_power_zero_step():
    rep = check_k_monotonicity(np.array([1.0]), 0.0, 0.5, (2,), SQUARE)
    assert rep.distance_values[2.0] == (0.0,)


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


def test_check_k_monotonicity_convex_values():
    # the K = 1, 2 values by hand are the tests above; K = 3 keeps their order
    rep = check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (1, 2, 3), SQUARE)
    assert rep.cost_values[0] > rep.cost_values[1] > rep.cost_values[2]
    d1, d2 = rep.distance_values[1.0], rep.distance_values[2.0]
    assert d1[0] >= d1[1] >= d1[2] and d2[0] > d2[1] > d2[2]


def test_check_k_monotonicity_equal_k():
    rep = check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (2, 2), SQUARE)
    assert rep.cost_values[0] == rep.cost_values[1]
    for kappa in (1.0, 2.0):
        assert rep.distance_values[kappa][0] == rep.distance_values[kappa][1]


def test_check_k_monotonicity_diag_quadratic():
    J = quadratic(np.diag([1.0, 4.0]))
    x = np.array([1.0, -0.5])
    rep = check_k_monotonicity(x, 0.05, 0.3, (1, 2, 3), J)
    assert rep.cost_values[0] > rep.cost_values[1] > rep.cost_values[2]
    for kappa in (1.0, 2.0):
        d = rep.distance_values[kappa]
        assert d[0] >= d[1] >= d[2]
    # a one-K call equals that K's entry of the (1, 2, 3) call
    for i, K in enumerate((1, 2, 3)):
        one = check_k_monotonicity(x, 0.05, 0.3, (K,), J)
        assert one.cost_values == (rep.cost_values[i],)
        for kappa in (1.0, 2.0):
            assert one.distance_values[kappa] == (rep.distance_values[kappa][i],)


def test_check_k_monotonicity_concave_reversal():
    # shifted concave bowl: larger K averages the probes and lands nearer
    # the flat top, so K=1 descends further
    J = lambda v: 10.0 - float(v[0] ** 2)
    rep = check_k_monotonicity(np.array([1.0]), 0.1, 0.5, (1, 2, 3), J)
    assert rep.cost_values[0] < rep.cost_values[1] < rep.cost_values[2]
    for kappa in (1.0, 2.0):
        d = rep.distance_values[kappa]
        assert d[0] >= d[1] >= d[2]


def test_check_k_monotonicity_enumerates_once(monkeypatch):
    # every sum over K and quantity reads the one enumeration at x, and each
    # K's cost and both distance powers come from one pass over its outcomes
    calls, passes = [], []
    estimates, enumerated_mean = oracle_mod._estimates, oracle_mod._enumerated_mean

    def counted(x, c, K, J):
        calls.append(K)
        return estimates(x, c, K, J)

    def counted_pass(g, K, term):
        passes.append(K)
        return enumerated_mean(g, K, term)

    monkeypatch.setattr(oracle_mod, "_estimates", counted)
    monkeypatch.setattr(oracle_mod, "_enumerated_mean", counted_pass)
    J = quadratic(np.diag([1.0, 2.0, 0.5, 3.0]))
    rep = check_k_monotonicity(np.array([0.5, -1.0, 0.25, 1.0]), 0.05, 0.3, (1, 2, 3), J)
    assert calls == [3]
    assert passes == [1, 2, 3]
    # and the 4-D convex instance keeps the orderings the scalar ones show
    assert rep.cost_values[0] > rep.cost_values[1] > rep.cost_values[2]
    for kappa in (1.0, 2.0):
        d = rep.distance_values[kappa]
        assert d[0] >= d[1] >= d[2]


def _paired_records(steps=40, seed=0):
    config = ExperimentConfig(
        task="rendezvous", law="paired", mode="theorem", steps=steps, master_seed=seed
    )
    return run_paired(config, 0), config


def test_check_twice_speed_report():
    (rec_bc, rec_pbc), _ = _paired_records()
    rep = check_twice_speed([(rec_bc, rec_pbc)])
    assert (rec_pbc.steps, rec_bc.steps) == (40, 80)
    assert rep.max_state_deviation <= 1e-9
    assert rep.max_objective_deviation <= 1e-9
    assert rep.max_state_deviation >= 0.0


def test_check_twice_speed_t0_exact():
    rep = check_twice_speed([_paired_records(steps=0)[0]])
    assert rep.max_state_deviation == 0.0


def test_check_twice_speed_rejects_short_record():
    # the records swapped: 40 two-stage steps cannot pair with 80 single-stage ones
    (rec_bc, rec_pbc), _ = _paired_records()
    for check in (check_twice_speed, check_distance_dominance):
        with pytest.raises(ValueError, match="holds 40 steps, need 160 for pairing"):
            check([(rec_bc, rec_pbc), (rec_pbc, rec_bc)])


def test_check_distance_dominance_report():
    pairs = [_paired_records(seed=seed)[0] for seed in (0, 1)]
    rep = check_distance_dominance(pairs)
    assert rep.min_margin >= -1e-9
    # the margin is 0 at t = 0, so no pair can push the least margin above it
    assert rep.min_margin <= 0.0
    margins_T = [rec_bc.d_trace[80] - rec_pbc.d_trace[40] for rec_bc, rec_pbc in pairs]
    assert rep.strict == sum(m > 0 for m in margins_T)


def test_paired_oracles_fold_to_the_worst_pair():
    pairs = [_paired_records(seed=seed)[0] for seed in (0, 1, 2)]
    speed = [check_twice_speed([p]) for p in pairs]
    dist = [check_distance_dominance([p]) for p in pairs]
    both = check_twice_speed(pairs)
    assert both.max_state_deviation == max(r.max_state_deviation for r in speed)
    assert both.max_objective_deviation == max(r.max_objective_deviation for r in speed)
    folded = check_distance_dominance(pairs)
    assert folded.min_margin == min(r.min_margin for r in dist)
    assert folded.strict == sum(r.strict for r in dist)
    assert check_twice_speed([]) == TwiceSpeedReport(0.0, 0.0)
    assert check_distance_dominance([]) == DistanceDominanceReport(math.inf, 0)
    # a NaN in one pair is not lost to the pairs after it, as Python's max would lose it
    rec_bc, rec_pbc = pairs[0]
    nan_pbc = dataclasses.replace(rec_pbc, j_trace=np.full_like(rec_pbc.j_trace, np.nan))
    rep = check_twice_speed([(rec_bc, nan_pbc)] + pairs[1:])
    assert math.isnan(rep.max_objective_deviation)


def _planted_pair(dev=0.0, j_dev=0.0, margins=(0.0, 1.0, 1.0)):
    """A ``(rec_bc, rec_pbc)`` pair of scalar records over ``T = len(margins) - 1``
    steps.  The single-stage record is 0 throughout; the two-stage one at 2t
    leaves it by ``dev`` in state and ``j_dev`` in objective at t = 1, and
    its distance at 2t exceeds it by ``margins[t]``."""
    T = len(margins) - 1
    zeros = lambda steps: TrialRecord(
        trial=0, n=1, N=1, states=np.zeros((steps + 1, 1)),
        j_trace=np.zeros(steps + 1), d_trace=np.zeros(steps + 1),
    )
    rec_bc, rec_pbc = zeros(2 * T), zeros(T)
    rec_bc.states[2, 0], rec_bc.j_trace[2] = dev, j_dev
    rec_bc.d_trace[::2] = margins
    return rec_bc, rec_pbc


def test_paired_oracles_fold_a_worst_pair_that_is_not_last():
    worst = _planted_pair(dev=3e-7, j_dev=2e-7, margins=(0.0, -5e-10, 1.0))
    pairs = [worst, _planted_pair(dev=1e-7, j_dev=1e-7)]
    assert check_twice_speed(pairs) == TwiceSpeedReport(3e-7, 2e-7)
    assert check_distance_dominance(pairs) == DistanceDominanceReport(-5e-10, 2)


def test_distance_dominance_counts_a_tie_at_t_as_not_strict():
    # a margin of exactly 0 at T is a tie; the least positive one is strict
    pairs = [_planted_pair(margins=(0.0, 1.0, 0.0)), _planted_pair(margins=(0.0, 1.0, 5e-324))]
    assert check_distance_dominance(pairs).strict == 1


# Each planted value below lies one binary64 step past a row's bound, where
# a looser bound would pass it, or exactly at the bound, which passes: each
# row judges at the very bound it prints, and neither a strict comparison nor
# a bound moved by one step survives.
def test_twice_speed_row_fails_past_its_bound():
    past = np.nextafter(1e-6, 1.0)
    for dev, j_dev in ((past, 0.0), (0.0, past)):
        assert not verify_mod._twice_speed_row([_planted_pair(dev, j_dev)]).passed
    assert verify_mod._twice_speed_row([_planted_pair(1e-6, 1e-6)]).passed


def test_distance_row_fails_past_its_bound():
    for least, passed in ((np.nextafter(-1e-9, -1.0), False), (-1e-9, True)):
        pairs = [_planted_pair(margins=(0.0, least, 1.0))]
        assert verify_mod._distance_row(check_distance_dominance(pairs), 1).passed == passed


def test_estimator_row_fails_past_its_bound(monkeypatch):
    # every enumerated expectation moved 2e-12 off the exact gradient
    real = verify_mod.enumerate_expected_gradient
    monkeypatch.setattr(verify_mod, "enumerate_expected_gradient", lambda *a: real(*a) + 2e-12)
    unbiased, decay = verify_mod.check_estimator()
    assert not unbiased.passed and decay.passed


@pytest.mark.parametrize(
    "ratio,passed",
    [(1.05, False), (1.01, True), (1.02, True), (float(np.nextafter(1.02, 2.0)), False)],
)
def test_k_multistep_row_fails_past_its_slack(monkeypatch, ratio, passed):
    # each K's one trial ends at J(T) ``ratio`` times the one before; the
    # slack is 2%, which a ratio of exactly 1.02 meets
    finals = {1: 1.0, 3: ratio, 10: ratio * ratio}

    def run(config):
        rec = TrialRecord(
            trial=0, n=1, N=1, states=np.zeros((2, 1)),
            j_trace=np.array([0.0, finals[config.K]]), d_trace=np.zeros(2),
        )
        return MonteCarloResult(stats=None, records=[rec], excluded=[])

    monkeypatch.setattr(verify_mod, "run_monte_carlo", run)
    (row,) = verify_mod.check_k_multistep(trials=1)
    assert row.passed == passed


def test_descent_row_fails_below_its_bound(monkeypatch):
    down, up = np.linspace(1.0, 0.0, 100), np.linspace(0.0, 1.0, 100)
    row = verify_mod._descent_row("rendezvous", np.array([down] * 93 + [up] * 7))
    assert (row.measured, row.passed) == ("93.00%", False)
    assert verify_mod._descent_row("rendezvous", np.array([down] * 95 + [up] * 5)).passed
    # a fraction one step below 95%, which no whole count of 100 trials gives
    monkeypatch.setattr(verify_mod, "descent_fraction", lambda _: np.nextafter(0.95, 0.0))
    assert not verify_mod._descent_row("rendezvous", np.array([down])).passed


def test_estimator_and_variance_enumerate_each_radius_and_k_once(monkeypatch):
    # the bias-decay row halves the radius three times from one enumeration
    # per radius, and each variance instance takes Var_1 from its K = 1 pass
    radii, Ks = [], []
    gradient = verify_mod.enumerate_expected_gradient
    variance = verify_mod.enumerate_estimator_variance

    def counted_gradient(x, c, K, J):
        radii.append(c)
        return gradient(x, c, K, J)

    def counted_variance(x, c, K, J):
        Ks.append(K)
        return variance(x, c, K, J)

    monkeypatch.setattr(verify_mod, "enumerate_expected_gradient", counted_gradient)
    monkeypatch.setattr(verify_mod, "enumerate_estimator_variance", counted_variance)
    assert all(row.passed for row in verify_mod.check_estimator() + verify_mod.check_variance())
    assert len(radii) == 104 and radii[100:] == [0.2, 0.1, 0.05, 0.025]
    assert Ks == [1, 2, 3, 4] * 5


def test_paired_checks_without_pairs_fail():
    # a paired check over no pairs has no evidence, so it cannot pass
    report, ok = run_verify(["twice-speed", "distance"], seeds=0)
    assert not ok
    assert report.count("FAIL") == 3  # both rows and the overall line
    assert report.count("no evidence") == 2


@pytest.mark.parametrize("check,rows", [("k-multistep", 1), ("descent", 3)])
def test_monte_carlo_checks_without_finished_trials_fail(monkeypatch, check, rows):
    # every trial excluded: a Monte Carlo check has no evidence either
    def all_excluded(config):
        excluded = [(i, f"trial {i} diverged at step 0: stub") for i in range(config.trials)]
        return MonteCarloResult(stats=None, records=[], excluded=excluded)

    monkeypatch.setattr(verify_mod, "run_monte_carlo", all_excluded)
    report, ok = run_verify([check], trials=2)
    assert not ok
    lines = [line for line in report.splitlines() if "bound:" in line]
    assert len(lines) == rows and all("  FAIL  " in line for line in lines)
    assert report.count("no evidence: 0 finished trials") == rows


def test_descent_note_counts_the_finished_trials(monkeypatch):
    # one of two trials excluded: the row is judged, and says so, on one
    def one_left(config):
        kept = TrialRecord(
            trial=0, n=1, N=1, states=np.zeros((2, 1)),
            j_trace=np.linspace(1.0, 0.0, 120), d_trace=np.zeros(120),
        )
        return MonteCarloResult(stats=None, records=[kept], excluded=[(1, "stub")])

    monkeypatch.setattr(verify_mod, "run_monte_carlo", one_left)
    rows = verify_mod.check_descent(trials=2)
    assert [(r.measured, r.passed, r.note) for r in rows] == [("100.00%", True, "1 trials")] * 3


def test_verify_without_checks_fails():
    # no check run is no evidence
    assert run_verify([]) == ("overall: FAIL\n", False)


# tenfold: an excluded trial is rare in real runs, so only drawn exclusions
# reach the common-trial path
@pytest.mark.tenfold
@settings(deadline=None)
@given(st.data())
def test_k_multistep_compares_the_trials_finished_at_every_k(data):
    # each K's run loses its own drawn set of trials; the row's means are
    # over the trials left at all three K, or it fails for want of evidence
    Ks = (1, 3, 10)
    trials = data.draw(st.integers(1, 6), label="trials")
    ids = st.integers(0, trials - 1)
    excluded = {K: data.draw(st.sets(ids), label=f"excluded at K={K}") for K in Ks}
    # integer finals: every mean is exact, whatever the summation order
    finals = {
        K: data.draw(st.lists(st.integers(1, 10**6), min_size=trials, max_size=trials))
        for K in Ks
    }

    def run(config):
        K = config.K
        records = [
            TrialRecord(
                trial=i, n=1, N=1, states=np.zeros((2, 1)),
                j_trace=np.array([0.0, float(finals[K][i])]), d_trace=np.zeros(2),
            )
            for i in range(trials) if i not in excluded[K]
        ]
        gone = [(i, f"trial {i} diverged at step 0: stub") for i in sorted(excluded[K])]
        return MonteCarloResult(stats=None, records=records, excluded=gone)

    with mock.patch.object(verify_mod, "run_monte_carlo", run):
        (row,) = verify_mod.check_k_multistep(trials=trials)
    common = set(range(trials)).difference(*excluded.values())
    if not common:
        assert not row.passed
        assert row.measured == "nan, nan, nan"
        assert row.note == "no evidence: 0 finished trials"
        return
    m1, m3, m10 = (sum(finals[K][i] for i in common) / len(common) for K in Ks)
    assert row.measured == f"{m1:.4e}, {m3:.4e}, {m10:.4e}"
    assert row.note == f"quadratic task, K in (1, 3, 10), {len(common)} trials"
    assert row.passed == (m3 <= m1 * 1.02 and m10 <= m3 * 1.02)


def _k_step_passes(monkeypatch, concave, plant):
    """Whether ``check_k_step``'s row passes when its enumerated report goes
    through ``plant`` first."""
    real = oracle_mod.check_k_monotonicity
    monkeypatch.setattr(verify_mod, "check_k_monotonicity", lambda *args: plant(real(*args)))
    (row,) = verify_mod.check_k_step(concave=concave)
    return row.passed


def _last_moved(values, step):
    """``values`` with its last entry set ``step`` above the one before it."""
    return values[:-1] + (values[-2] + step,)


def _power_moved(kappa, step):
    def plant(rep):
        dists = dict(rep.distance_values)
        dists[kappa] = _last_moved(dists[kappa], step)
        return dataclasses.replace(rep, distance_values=dists)

    return plant


# Each planted report breaks one ordering that check_k_step states, and the
# comment names the test in check_k_step that alone catches it there.
@pytest.mark.parametrize("concave", [False, True], ids=["convex", "concave"])
def test_k_step_fails_on_a_growing_kappa1_power(monkeypatch, concave):
    # _non_increasing(d1), on both instances
    assert _k_step_passes(monkeypatch, concave, lambda rep: rep)
    assert not _k_step_passes(monkeypatch, concave, _power_moved(1.0, 1e-6))


@pytest.mark.parametrize("concave", [False, True], ids=["convex", "concave"])
def test_k_step_fails_on_a_growing_kappa2_power(monkeypatch, concave):
    # _non_increasing(d2) on the concave instance; the convex instance's
    # strict kappa = 2 order catches it as well
    assert not _k_step_passes(monkeypatch, concave, _power_moved(2.0, 1e-6))


def test_k_step_fails_on_a_flat_kappa2_power_on_the_convex_instance(monkeypatch):
    # _rises(d2, -1.0): flat is non-increasing, but not strictly decreasing
    assert not _k_step_passes(monkeypatch, False, _power_moved(2.0, 0.0))


@pytest.mark.parametrize("concave", [False, True], ids=["convex", "concave"])
def test_k_step_fails_on_a_cost_out_of_order(monkeypatch, concave):
    # _rises(costs, sign): the K = 3 cost steps back against the curvature's
    # order, which the exact K = 1, 2 values do not cover
    step = -1e-6 if concave else 1e-6
    plant = lambda rep: dataclasses.replace(rep, cost_values=_last_moved(rep.cost_values, step))
    assert not _k_step_passes(monkeypatch, concave, plant)


def _cost_planted(i, cost):
    """A plant that sets the report's ``i``-th cost to ``cost``."""

    def plant(rep):
        costs = rep.cost_values[:i] + (cost,) + rep.cost_values[i + 1 :]
        return dataclasses.replace(rep, cost_values=costs)

    return plant


def _farthest_within(e, tol, toward):
    """The float farthest from ``e`` toward ``toward`` whose computed
    distance ``abs(v - e)`` from ``e`` is at most ``tol``."""
    v = e + math.copysign(tol, toward)  # within a few steps of the edge
    while abs(v - e) > tol:
        v = math.nextafter(v, e)
    while abs(math.nextafter(v, toward) - e) <= tol:
        v = math.nextafter(v, toward)
    return v


def test_k_step_fails_a_cost_past_its_tolerance(monkeypatch):
    # the convex instance's costs are judged against their exact values
    # within 1e-12: a cost planted at the farthest float within that passes,
    # and one binary64 step farther fails, on either side of either value
    for i, exact in enumerate((0.6425, 0.64125)):
        for toward in (-math.inf, math.inf):
            edge = _farthest_within(exact, 1e-12, toward)
            for cost, passes in ((edge, True), (math.nextafter(edge, toward), False)):
                assert _k_step_passes(monkeypatch, False, _cost_planted(i, cost)) == passes


def test_worked_single_step_distance_margin():
    # hand trace: sigma=+1 gives D_bc(2) = 0.5 + 0.75 and D_pbc(1) = 0.25,
    # margin 1.0; sigma=-1 gives 0.85 - 0.15 = 0.7
    a, c = 0.1, 0.5
    for sigma, expected in ((1.0, 1.0), (-1.0, 0.7)):
        x = scalar_state(1.0)
        block = np.array([[sigma]])
        x1, u0 = bc_step(x, 0, a, c, block[0], SQUARE(x), SQUARE(x))
        x2, u1 = bc_step(x1, 1, a, c, block[0], SQUARE(x), SQUARE(x1))
        d_bc = abs(u0[0]) + abs(u1[0])
        _, up = pbc_step(x, a, c, block, SQUARE, SQUARE(x))
        margin = d_bc - abs(up[0])
        assert margin == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "task,a0",
    [("coverage", 2.0), ("assignment", 0.2), ("quadratic", 2.0)],
)
def test_paired_identities_hold_on_other_tasks(task, a0):
    config = ExperimentConfig(
        task=task, law="paired", mode="theorem", steps=50, master_seed=11, a0=a0
    )
    pairs = [run_paired(config, 0)]
    speed = check_twice_speed(pairs)
    dist = check_distance_dominance(pairs)
    assert speed.max_state_deviation <= 1e-6
    assert speed.max_objective_deviation <= 1e-6
    assert dist.min_margin >= -1e-9


def test_engine_sampling_matches_enumerated_expectation():
    # 1e5 sampled one-step transitions agree with the enumerated mean of
    # J(next) to within four standard errors
    J = quadratic(np.diag([1.0, 2.0]))
    x0 = np.array([0.8, -0.6])
    a, c = 0.1, 0.3
    (expected,) = check_k_monotonicity(x0, a, c, (1,), J).cost_values
    j0 = J(x0)
    samples = np.empty(10**5)
    for i in range(samples.shape[0]):
        block = draw_block(master_seed=42, trial=i, t=0, n=1, N=2, K=1, horizon=1)
        nxt, _ = pbc_step(x0, a, c, block, J, j0)
        samples[i] = J(nxt)
    se = samples.std(ddof=1) / math.sqrt(samples.shape[0])
    assert abs(samples.mean() - expected) <= 4 * se


def test_descent_fraction():
    down = np.linspace(1.0, 0.0, 120)[None, :]
    up = np.linspace(0.0, 1.0, 120)[None, :]
    assert descent_fraction(np.vstack([down, up])) == 0.5
    with pytest.raises(ValueError):
        descent_fraction(np.zeros((2, 60)))
