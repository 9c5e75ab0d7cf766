import math

import numpy as np
import pytest

import reference
from broadcast_control import ExperimentConfig
from broadcast_control.controllers import (
    bc_gains_at,
    bc_step,
    gain_a,
    gain_c,
    pbc_broadcast,
    pbc_local_input,
    pbc_step,
)
from broadcast_control.objectives import (
    AssignmentPayload,
    CoveragePayload,
    ObjectiveSpec,
    circle_formation,
    make_objective_fn,
    unit_cube_grid,
)
from broadcast_control.state import NonFiniteError, draw_block

from conftest import scalar_state

SQUARE = lambda v: float(v[0] ** 2)


def _block(*signs: float) -> np.ndarray:
    return np.array([[s] for s in signs])


# ---------------------------------------------------------------------------
# gains

STANDARD = ExperimentConfig(a0=2.0, a_p=0.7, c0=0.003, c_p=0.16, t_v=20.0)


def test_gain_a_standard_params():
    # direct power evaluation, cross-checked through the log/exp identity
    expected = math.exp(math.log(2.0) - 0.7 * math.log(20.0))
    got = gain_a(STANDARD, 0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.245646, abs=1e-6)


def test_gain_a_unit_case():
    assert gain_a(ExperimentConfig(a0=1.0, a_p=1.0, c0=1.0, c_p=0.3, t_v=1.0), 0) == 1.0


def test_gain_a_strictly_decreasing():
    vals = [gain_a(STANDARD, t) for t in range(1001)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_gain_c_standard_params():
    expected = math.exp(math.log(0.003) - 0.16 * math.log(20.0))
    got = gain_c(STANDARD, 0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.0018576, abs=1e-7)


def test_gain_c_unit_and_decay():
    assert gain_c(ExperimentConfig(a0=1.0, a_p=1.0, c0=1.0, c_p=0.3, t_v=1.0), 0) == 1.0
    assert gain_c(STANDARD, 10**6) < gain_c(STANDARD, 10**3)


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        gain_a(STANDARD, -1)
    with pytest.raises(ValueError):
        bc_gains_at(STANDARD, -2)


def test_bc_gains_stair_step():
    assert bc_gains_at(STANDARD, 0) == bc_gains_at(STANDARD, 1)
    assert bc_gains_at(STANDARD, 2) == (gain_a(STANDARD, 1), gain_c(STANDARD, 1))
    assert bc_gains_at(STANDARD, 0) == (
        pytest.approx(0.245646, abs=1e-6),
        pytest.approx(0.0018576, abs=1e-7),
    )
    for t in range(50):
        assert bc_gains_at(STANDARD, 2 * t) == (gain_a(STANDARD, t), gain_c(STANDARD, t))


# ---------------------------------------------------------------------------
# two-stage law


def _bc_pair(x, a, c, sigma, J):
    """The state after an even step and the odd step that follows it, the
    caller measuring J at each state and keeping ``(sigma, J(x))`` between
    them."""
    j_even = J(x)
    x1, _ = bc_step(x, 0, a, c, sigma, j_even, j_even)
    return bc_step(x1, 1, a, c, sigma, j_even, J(x1))[0]


def test_bc_step_hand_trace():
    # x = 1, J = x^2, a = 0.1, c = 0.5, sigma = +1:
    #   even: x -> 1.5; the caller remembers (sigma = 1, J(1) = 1)
    #   odd:  u = -0.5 - 0.1 * ((2.25 - 1)/0.5) = -0.75, x -> 0.75
    x = scalar_state(1.0)
    sigma = _block(1.0)[0]
    x1, u0 = bc_step(x, 0, 0.1, 0.5, sigma, SQUARE(x), SQUARE(x))
    assert u0[0] == 0.5
    assert x1[0] == 1.5

    x2, u1 = bc_step(x1, 1, 0.1, 0.5, sigma, 1.0, SQUARE(x1))
    assert u1[0] == pytest.approx(-0.75, abs=1e-15)
    assert x2[0] == pytest.approx(0.75, abs=1e-15)


def test_bc_step_reads_only_the_handed_values():
    # bc_step takes no objective: the parity comes from t, an even step moves
    # by c*sigma whatever j_x is, and an odd step by the handed j_x - j_even
    gains = (0.1, 0.5)
    sigma = _block(1.0)[0]
    x1, _ = bc_step(scalar_state(1.0), 0, *gains, sigma, 1.0, 1.0)
    assert np.array_equal(bc_step(scalar_state(1.0), 0, *gains, sigma, 1.0, 9e9)[0], x1)
    x2, _ = bc_step(x1, 1, *gains, sigma, 1.0, 2.25)
    assert x2[0] == pytest.approx(0.75, abs=1e-15)
    x3, _ = bc_step(x1, 1, *gains, sigma, 1.0, 1.0)
    assert x3[0] == 1.0  # no difference: the probe is cancelled exactly


def test_bc_perturbation_cancellation():
    # A constant objective zeroes the gradient term, isolating the +c*sigma
    # then -c*sigma cancellation (the same mechanism as a = 0); the residue
    # is pure floating-point noise.
    const = lambda v: 7.5
    for x0 in (1.0, -3.7, 123.456):
        x2 = _bc_pair(scalar_state(x0), 0.1, 0.5, _block(1.0)[0], const)
        assert abs(x2[0] - x0) <= 2.0**-46 * max(1.0, abs(x0))


def test_bc_zero_gradient_point_enumeration():
    # from x = 0 on J = x^2 the two-stage composition averages back to 0
    a, c = 0.1, 0.5
    endpoints = []
    for sigma in (1.0, -1.0):
        x2 = _bc_pair(scalar_state(0.0), a, c, _block(sigma)[0], SQUARE)
        endpoints.append(x2[0])
        assert abs(x2[0]) <= c * (1 + a * c)
    assert sum(endpoints) == pytest.approx(0.0, abs=1e-15)


def test_bc_rejects_non_finite_objective():
    # the odd step is the one that reads the measured value; a NaN makes the
    # input, and so the state, non-finite
    with pytest.raises(NonFiniteError):
        bc_step(scalar_state(1.0), 1, 0.1, 0.5, _block(1.0)[0], 1.0, float("nan"))


# ---------------------------------------------------------------------------
# virtual-perturbation law


def test_pbc_broadcast_worked_example():
    nu = pbc_broadcast(scalar_state(1.0), _block(1.0), 0.5, SQUARE, 1.0)
    assert nu.shape == (1,)
    assert nu[0] == pytest.approx(1.25, abs=1e-15)


def test_pbc_broadcast_constant_objective():
    nu = pbc_broadcast(scalar_state(1.0), _block(1.0, -1.0, 1.0), 0.5, lambda v: 4.0, 4.0)
    assert np.array_equal(nu, np.zeros(3))


def test_pbc_broadcast_opposite_probes_cancel_linear_part():
    # J = x.x: nu_+ + nu_- = 2 c^2 nN exactly in exact arithmetic
    dot = lambda v: float(np.dot(v, v))
    x = np.arange(6.0) / 7
    sigma = draw_block(0, 0, 0, 2, 3, 1)[0]
    block = np.array([sigma, -sigma])
    c = 0.25
    nu = pbc_broadcast(x, block, c, dot, dot(x))
    assert nu.sum() == pytest.approx(2 * c * c * 6, rel=1e-10)


def test_pbc_broadcast_evaluation_count():
    # the K probes only: J(x) is the caller's measured value
    calls = []
    J = lambda v: (calls.append(float(v[0])), float(v[0] ** 2))[1]
    nu = pbc_broadcast(scalar_state(1.0), _block(1.0, -1.0, 1.0), 0.5, J, 1.0)
    assert calls == [1.5, 0.5, 1.5]
    assert nu.tolist() == [1.25, -0.75, 1.25]


def test_pbc_local_input_worked_example():
    nu = pbc_broadcast(scalar_state(1.0), _block(1.0), 0.5, SQUARE, 1.0)
    u = pbc_local_input(nu, _block(1.0), 0.1, 0.5)
    assert u[0] == pytest.approx(-0.25, abs=1e-15)


def test_pbc_local_input_zero_broadcast_holds_position():
    u = pbc_local_input(np.zeros(2), _block(1.0, -1.0), 0.1, 0.5)
    assert np.array_equal(u, np.zeros(1))


def test_pbc_local_input_k2_exact_gradient_scalar():
    # with sigma_2 = -sigma_1 and quadratic J = H x^2 the two probes combine
    # to the exact gradient step -a * 2Hx in one dimension
    H = 0.8
    J = lambda v: H * float(v[0] ** 2)
    x = scalar_state(0.7)
    block = _block(1.0, -1.0)
    a, c = 0.1, 0.25
    nu = pbc_broadcast(x, block, c, J, J(x))
    u = pbc_local_input(nu, block, a, c)
    assert u[0] == pytest.approx(-a * 2 * H * 0.7, rel=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3, 10])
def test_pbc_local_input_matches_reference_bit_for_bit(K, rng):
    for row in range(300):
        nN = int(rng.integers(1, 31))
        block = draw_block(master_seed=row, trial=K, t=0, n=1, N=nN, K=K)
        nu = rng.normal(size=K) * 10.0 ** rng.uniform(-12, 4, size=K)
        a, c = 10.0 ** rng.uniform(-4, 0, size=2)
        u = pbc_local_input(nu, block, a, c)
        assert np.array_equal(u, reference.local_input(nu, block, a, c))
        assert not np.shares_memory(u, block)


def test_pbc_step_worked_examples():
    x1, u = pbc_step(scalar_state(1.0), 0.1, 0.5, _block(1.0), SQUARE, 1.0)
    assert x1[0] == pytest.approx(0.75, abs=1e-15)
    assert u[0] == pytest.approx(-0.25, abs=1e-15)

    # sigma = -1: nu = J(0.5) - J(1) = -0.75, g = 1.5, x' = 0.85
    x2, _ = pbc_step(scalar_state(1.0), 0.1, 0.5, _block(-1.0), SQUARE, 1.0)
    assert x2[0] == pytest.approx(0.85, abs=1e-15)


def test_pbc_step_constant_objective_rests():
    x1, u = pbc_step(scalar_state(3.0), 0.1, 0.5, _block(1.0), lambda v: 2.0, 2.0)
    assert x1[0] == 3.0
    assert u[0] == 0.0


def test_pbc_virtual_states_never_returned():
    # the step output is x + u with u built from the broadcast, never one of
    # the probed states x + c*sigma_k
    x = scalar_state(1.0)
    block = _block(1.0)
    c = 0.5
    seen = []
    J = lambda v: (seen.append(float(v[0])), float(v[0] ** 2))[1]
    x1, u = pbc_step(x, 0.1, c, block, J, 1.0)
    assert seen == [1.5]  # the single virtual probe; J(x) is handed in
    assert x1[0] not in seen
    assert x1[0] == x[0] + u[0]


@pytest.mark.parametrize("law", ["pbc", "bc-even", "bc-odd"])
def test_step_law_matches_reference_bit_for_bit(law, rng):
    # each law and the reference's take one argument list; the reference
    # writes each step out, BC's odd step as (-c)*sigma + (-a)*((dj/c)*sigma)
    # where the law descends through pbc_local_input at K = 1
    J = lambda v: float(np.dot(v, v)) + math.sin(float(v.sum()))
    for row in range(300):
        n, N = (int(v) for v in rng.integers(1, 6, size=2))
        x = rng.normal(size=n * N) * 10.0 ** rng.uniform(-3, 3)
        a, c = (float(g) for g in 10.0 ** rng.uniform(-4, 0, size=2))
        if law == "pbc":
            K = int(rng.integers(1, 11))
            block = draw_block(master_seed=row, trial=K, t=0, n=n, N=N, K=K)
            args = (x, a, c, block, J, J(x))
            got, want = pbc_step(*args), reference.pbc_step(*args)
        else:
            t = 2 * int(rng.integers(0, 50)) + (law == "bc-odd")
            sigma = draw_block(master_seed=row, trial=t % 2, t=t // 2, n=n, N=N, K=1)[0]
            js = rng.normal(size=2) * 10.0 ** rng.uniform(-12, 8, size=2)
            j_even, j_x = (float(j) for j in js)
            args = (x, t, a, c, sigma, j_even, j_x)
            got, want = bc_step(*args), reference.bc_step(*args)
        for array, expected in zip(got, want):
            assert array.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# one-step equivalence of the two laws (shared probe, K = 1)


def _equivalence_objectives():
    targets = np.array([[0.0, 0.0], [0.4, 0.1], [0.2, 0.6]])
    return {
        "coverage": ObjectiveSpec(CoveragePayload(grid=unit_cube_grid(2, 0.1)), 100.0, 101.0),
        "rendezvous": ObjectiveSpec(circle_formation(3, 0.2, (1, 2, 3)), 100.0, 101.0),
        "assignment": ObjectiveSpec(AssignmentPayload(targets=targets), 100.0, 101.0),
    }


@pytest.mark.parametrize("name", ["coverage", "rendezvous", "assignment"])
def test_one_step_equivalence(name, rng):
    # the single-stage law's step from x equals the even-odd composition of
    # the two-stage law on the same probe signs and stair-stepped gains
    spec = _equivalence_objectives()[name]
    J = make_objective_fn(spec)
    for trial in range(10**4):
        x = rng.uniform(0, 1, size=6)
        a = float(rng.uniform(0.01, 0.5))
        c = float(rng.uniform(0.001, 0.5))
        block = draw_block(master_seed=trial, trial=0, t=0, n=2, N=3, K=1)

        xb2 = _bc_pair(x, a, c, block[0], J)
        xp, _ = pbc_step(x, a, c, block, J, J(x))
        scale = 1.0 + np.abs(x).max()
        assert np.abs(xp - xb2).max() <= 1e-12 * scale


def test_quadratic_enumeration_equivalence():
    # every probe sign on a small quadratic instance, exact agreement
    H = np.diag([1.0, 4.0])
    spec = ObjectiveSpec(H, 100.0, 101.0)
    J = make_objective_fn(spec)
    a, c = 0.1, 0.5
    for s0 in (1.0, -1.0):
        for s1 in (1.0, -1.0):
            x = np.array([1.0, -0.5])
            block = np.array([[s0, s1]])
            xb2 = _bc_pair(x, a, c, block[0], J)
            xp, _ = pbc_step(x, a, c, block, J, J(x))
            assert np.abs(xp - xb2).max() <= 1e-14
