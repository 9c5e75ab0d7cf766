import itertools
import math

import numpy as np
import pytest

import broadcast_control.objectives as objectives_mod
from broadcast_control.objectives import (
    EVERY_STEP,
    ONCE_AT_START,
    AssignmentPayload,
    CoveragePayload,
    ObjectiveSpec,
    QuadraticPayload,
    RendezvousPayload,
    assignment_objective,
    barrier_weight,
    circle_formation,
    coverage_objective,
    evaluate,
    freeze_assignment,
    hungarian,
    objective_value,
    quadratic_objective,
    rendezvous_objective,
    smooth_min,
    unit_cube_grid,
)

# ---------------------------------------------------------------------------
# barrier


def test_barrier_weight_branches():
    assert barrier_weight(0.0, 1.0, 2.0) == 1.0
    assert barrier_weight(1.0, 1.0, 2.0) == 1.0
    assert barrier_weight(2.0, 1.0, 2.0) == 0.0
    assert barrier_weight(5.0, 1.0, 2.0) == 0.0
    mid = barrier_weight(1.5, 1.0, 2.0)
    assert 0.0 < mid < 1.0
    with pytest.raises(ValueError):
        barrier_weight(0.5, 2.0, 1.0)


def _one_sided_d2(f, x0, h, sign):
    return (
        2 * f(x0) - 5 * f(x0 + sign * h) + 4 * f(x0 + 2 * sign * h) - f(x0 + 3 * sign * h)
    ) / h**2


def test_barrier_weight_is_c2_at_seams():
    # Second-order one-sided curvature estimates from the flat side are
    # exactly zero; from the blend side they converge to the same zero at
    # observed order >= 2 under h-refinement (the C2 matching).
    l1, l2 = 1.0, 2.0
    rho = lambda r: barrier_weight(r, l1, l2)
    for seam, inward in ((l1, +1), (l2, -1)):
        flat = _one_sided_d2(rho, seam, 0.02, -inward)
        assert flat == 0.0
        errs = [abs(_one_sided_d2(rho, seam, h, inward)) for h in (0.02, 0.01, 0.005)]
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0
        assert errs[2] < 1e-2


def test_barrier_weight_interior_curvature():
    # analytic second derivative of the quintic blend at w = 0.25
    l1, l2 = 1.0, 2.0
    w = 0.25
    s2 = 60 * w - 180 * w**2 + 120 * w**3
    expected = -s2 / (l2 - l1) ** 2
    h = 1e-4
    r = l1 + w * (l2 - l1)
    rho = lambda v: barrier_weight(v, l1, l2)
    central = (rho(r + h) - 2 * rho(r) + rho(r - h)) / h**2
    assert central == pytest.approx(expected, rel=1e-6)


def _quad_spec(n=1, N=2, l1=1.0, l2=2.0):
    H = np.eye(n * N) * 0.25
    return ObjectiveSpec(
        kind="quadratic", n=n, N=N, payload=QuadraticPayload(H), l1=l1, l2=l2
    )


def test_evaluate_branches_bit_exact():
    spec = _quad_spec()
    inside = np.array([0.3, -0.4])  # |x| = 0.5 <= l1
    assert evaluate(spec, inside) == objective_value(spec, inside)
    outside = np.array([1.2, -1.6])  # |x| = 2.0 >= l2
    assert evaluate(spec, outside) == float(np.dot(outside, outside))
    # strictly between the branch values in the blend band
    mid = np.array([1.5, 0.0])
    j_obj = objective_value(spec, mid)
    quad = float(np.dot(mid, mid))
    val = evaluate(spec, mid)
    assert min(j_obj, quad) < val < max(j_obj, quad)


def test_evaluate_standard_workspace_is_task_objective():
    # all standard experiments stay well inside l1 = 100
    spec = _quad_spec(l1=100.0, l2=101.0)
    x = np.array([0.9, 0.9])
    assert evaluate(spec, x) == objective_value(spec, x)


def test_evaluate_dimension_mismatch():
    # evaluations check nothing: a payload whose layout disagrees with the
    # spec's (n, N) is refused when the spec is built
    grid = CoveragePayload(grid=unit_cube_grid(2, 0.5), volume=1.0)
    targets = AssignmentPayload(targets=np.zeros((3, 2)))
    for kind, n, N, payload in (
        ("quadratic", 1, 3, QuadraticPayload(np.eye(2))),
        ("coverage", 3, 2, grid),
        ("rendezvous", 2, 4, circle_formation(3)),
        ("assignment", 2, 2, targets),
    ):
        with pytest.raises(ValueError, match="payload does not match"):
            ObjectiveSpec(kind=kind, n=n, N=N, payload=payload)


# ---------------------------------------------------------------------------
# coverage


def test_coverage_single_agent_center_closed_form():
    # per-axis grid second moment: sum_k (0.01k - 0.5)^2 / 101 = 0.085
    per_axis = sum((0.01 * k - 0.5) ** 2 for k in range(101)) / 101
    assert per_axis == pytest.approx(0.085, abs=1e-15)
    payload = CoveragePayload(grid=unit_cube_grid(2, 0.01), volume=1.0)
    got = coverage_objective(payload, np.array([0.5, 0.5]))
    assert got == pytest.approx(2 * per_axis, abs=1e-12)
    assert got == pytest.approx(0.17, abs=1e-12)


def test_coverage_volume_scaling():
    grid = unit_cube_grid(1, 0.5)
    x = np.array([0.0])
    v1 = coverage_objective(CoveragePayload(grid=grid, volume=1.0), x)
    v3 = coverage_objective(CoveragePayload(grid=grid, volume=3.0), x)
    assert v3 == pytest.approx(3 * v1, rel=1e-15)


def test_coverage_zero_distance_cover():
    grid = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.33, 0.77]])
    payload = CoveragePayload(grid=grid, volume=1.0)
    assert coverage_objective(payload, grid.ravel()) == 0.0


def test_coverage_two_agents_beat_one():
    payload = CoveragePayload(grid=unit_cube_grid(2, 0.01), volume=1.0)
    one = coverage_objective(payload, np.array([0.5, 0.5]))
    two = coverage_objective(payload, np.array([0.25, 0.5, 0.75, 0.5]))
    assert two < one


def test_coverage_extra_agent_weakly_decreases(rng):
    payload = CoveragePayload(grid=unit_cube_grid(2, 0.1), volume=1.0)
    for _ in range(20):
        x = rng.uniform(0, 1, size=6)
        extra = np.concatenate([x, rng.uniform(0, 1, size=2)])
        assert coverage_objective(payload, extra) <= coverage_objective(payload, x)


def test_coverage_smooth_min_close_to_hard():
    payload = CoveragePayload(grid=unit_cube_grid(2, 0.1), volume=1.0)
    x = np.array([0.2, 0.2, 0.8, 0.8])
    hard = coverage_objective(payload, x)
    soft = coverage_objective(payload, x, smooth_eps=-1e5)
    # smooth min sits within (1/eps) ln N of the hard min per grid point
    assert hard + math.log(2) / -1e5 <= soft <= hard
    # the sign of epsilon is checked once, when the spec is built
    for eps in (1.0, 0.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="smooth_min_epsilon"):
            ObjectiveSpec(kind="coverage", n=2, N=2, payload=payload, smooth_min_epsilon=eps)


def test_unit_cube_grid_shape():
    grid = unit_cube_grid(2, 0.01)
    assert grid.shape == (101 * 101, 2)
    assert grid.min() == 0.0
    assert grid.max() == 1.0
    with pytest.raises(ValueError):
        unit_cube_grid(2, 1.5)


def test_coverage_payload_validation():
    with pytest.raises(ValueError):
        CoveragePayload(grid=np.zeros((0, 2)), volume=1.0)
    with pytest.raises(ValueError):
        CoveragePayload(grid=np.zeros((3, 2)), volume=0.0)


# ---------------------------------------------------------------------------
# rendezvous


def test_rendezvous_hand_value():
    # two agents on a line, single formation with y = (1, 0):
    # r_12 = 1, r_21 = -1, r_ii = 0; x = (0, 0) gives (1/4)(1 + 1) = 0.5
    payload = RendezvousPayload(positions=np.array([[[1.0], [0.0]]]), thetas=(1,))
    value, theta = rendezvous_objective(payload, np.array([0.0, 0.0]))
    assert value == pytest.approx(0.5, abs=1e-15)
    assert theta == 1


def test_rendezvous_translation_invariance(rng):
    payload = circle_formation(6, radius=0.2)
    for theta_idx in (0, 3):
        offset = rng.normal(size=2)
        x = (payload.positions[theta_idx] + offset).ravel()
        value, theta = rendezvous_objective(payload, x)
        assert value <= 1e-26
        # and conversely: zero value means the reported formation is realized
        # up to one common translation (all per-agent offsets coincide)
        t_idx = payload.thetas.index(theta)
        offsets = x.reshape(6, 2) - payload.positions[t_idx]
        assert np.ptp(offsets, axis=0).max() <= 1e-12


def test_rendezvous_nonzero_off_formation():
    payload = circle_formation(5, radius=0.2)
    x = np.zeros(10)
    x[0] = 1.0  # break every formation
    value, _ = rendezvous_objective(payload, x)
    assert value > 1e-3


def test_rendezvous_cyclic_relabeling_matches_parameter_shift(rng):
    # shifting every agent label by one maps formation theta to theta + 1,
    # so the minimum over the full parameter cycle is unchanged
    N = 15
    payload = circle_formation(N, radius=0.2)
    x = rng.normal(scale=0.3, size=2 * N)
    value, _ = rendezvous_objective(payload, x)
    shifted = np.roll(x.reshape(N, 2), -1, axis=0).ravel()
    value2, _ = rendezvous_objective(payload, shifted)
    assert value2 == pytest.approx(value, rel=1e-10, abs=1e-12)


def test_rendezvous_tie_breaks_to_smallest_parameter():
    # a single agent fits every formation member equally (all offsets empty
    # of cross terms), so the argmin must fall on the smallest parameter
    payload = circle_formation(1, radius=0.2, thetas=(3, 1, 2))
    value, theta = rendezvous_objective(payload, np.zeros(2))
    assert value == 0.0
    assert theta == 1


def test_rendezvous_smooth_min_bound():
    payload = circle_formation(4, radius=0.2)
    x = np.arange(8.0) / 10
    hard, _ = rendezvous_objective(payload, x)
    soft, _ = rendezvous_objective(payload, x, smooth_eps=-50.0)
    assert hard + math.log(len(payload.thetas)) / -50.0 <= soft <= hard


# ---------------------------------------------------------------------------
# assignment and the assignment solver


def test_assignment_identity_zero():
    targets = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    payload = AssignmentPayload(targets=targets)
    value, perm = assignment_objective(payload, targets.ravel())
    assert value == 0.0
    assert list(perm) == [0, 1, 2]


def test_assignment_swap_example():
    # x = (0, 10), y = (9, 1): swapping costs (0-1)^2 + (10-9)^2 = 2,
    # identity costs 81 + 81 = 162
    payload = AssignmentPayload(targets=np.array([[9.0], [1.0]]))
    value, perm = assignment_objective(payload, np.array([0.0, 10.0]))
    assert value == pytest.approx(2.0, abs=1e-15)
    assert list(perm) == [1, 0]


def test_assignment_matches_brute_force(rng):
    N = 7
    for _ in range(5):
        targets = rng.normal(size=(N, 2))
        x = rng.normal(size=2 * N)
        value, _ = assignment_objective(AssignmentPayload(targets=targets), x)
        pts = x.reshape(N, 2)
        best = min(
            sum(float(np.sum((pts[i] - targets[p[i]]) ** 2)) for i in range(N))
            for p in itertools.permutations(range(N))
        )
        assert value == pytest.approx(best, rel=1e-12)


def test_assignment_once_at_start_freezes_pairing():
    targets = np.array([[0.0], [10.0]])
    payload = freeze_assignment(
        AssignmentPayload(targets=targets, policy=ONCE_AT_START),
        np.array([0.1, 9.9]),
    )
    assert payload.fixed_indices == (0, 1)
    # agents later cross over; the frozen pairing keeps the original match
    value, perm = assignment_objective(payload, np.array([10.0, 0.0]))
    assert list(perm) == [0, 1]
    assert value == pytest.approx(200.0)
    # the every-step policy would re-pair to zero cost
    value2, _ = assignment_objective(
        AssignmentPayload(targets=targets, policy=EVERY_STEP), np.array([10.0, 0.0])
    )
    assert value2 == 0.0


def _brute_force_cost(C):
    n = C.shape[0]
    return min(
        sum(C[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )


def test_hungarian_examples():
    perm = hungarian(np.array([[1.0, 2.0], [3.0, 0.0]]))
    assert list(perm) == [0, 1]
    perm = hungarian(np.diag([0.0, 0.0, 0.0]) + 1.0 - np.eye(3))
    assert list(perm) == [0, 1, 2]
    assert list(hungarian(np.array([[3.5]]))) == [0]
    assert hungarian(np.zeros((0, 0))).size == 0


def test_hungarian_lexicographic_tie_break():
    # every assignment of the zero matrix is optimal; identity is smallest
    assert list(hungarian(np.zeros((4, 4)))) == [0, 1, 2, 3]
    # two optimal assignments; [0, 1] beats [1, 0] lexicographically
    C = np.array([[1.0, 2.0], [2.0, 3.0]])  # both diagonals cost 4
    assert list(hungarian(C)) == [0, 1]
    # [1, 0] costs 0 and [0, 1] costs 1e-12, inside the 1e-9 tolerance
    assert list(hungarian(np.array([[0.0, 0.0], [0.0, 1e-12]]))) == [0, 1]


def test_hungarian_matches_brute_force(rng):
    for n in (2, 3, 5, 6):
        for _ in range(50):
            C = rng.uniform(size=(n, n))
            perm = hungarian(C)
            assert sorted(perm) == list(range(n))
            got = float(C[np.arange(n), perm].sum())
            assert got == _brute_force_cost(C)


def _lexicographic_optimum(C):
    # permutations() yields in lexicographic order; the first minimum wins
    n = C.shape[0]
    costs = [
        (sum(C[i, p[i]] for i in range(n)), p)
        for p in itertools.permutations(range(n))
    ]
    best = min(c for c, _ in costs)
    return next(list(p) for c, p in costs if c == best)


def test_hungarian_tie_oracle_small_integer_costs(rng):
    # costs in {0, 1, 2} make many optimal permutations; integer sums are exact
    for n in range(2, 7):
        for _ in range(40):
            C = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            assert list(hungarian(C)) == _lexicographic_optimum(C)


def test_hungarian_does_not_mutate_input(rng):
    for C in (
        rng.uniform(size=(15, 15)),
        rng.integers(0, 3, size=(6, 6)).astype(np.float64),
        np.array([[0.0, 0.0], [0.0, 1e-12]]),
    ):
        before = C.copy()
        hungarian(C)
        assert np.array_equal(C, before)


def test_hungarian_unique_optimum_skips_refinement(rng, monkeypatch):
    # a generic squared-distance matrix has a unique optimum: one solve plus
    # the N edge-forbidden solves of the runner-up check, no refinement
    calls = []
    lsa = objectives_mod.linear_sum_assignment

    def counting(C):
        calls.append(C.shape)
        return lsa(C)

    monkeypatch.setattr(objectives_mod, "linear_sum_assignment", counting)
    N = 15
    diff = rng.uniform(size=(N, 1, 2)) - rng.uniform(size=(1, N, 2))
    C = np.einsum("ijd,ijd->ij", diff, diff)
    perm = hungarian(C)
    assert len(calls) <= N + 1
    assert np.array_equal(perm, lsa(C)[1])


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        hungarian(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# smooth minimum


def test_smooth_min_tie_case():
    # equal values saturate the lower bound exactly: min + ln(n)/eps
    got = smooth_min([0.0, 0.0], -10.0)
    assert got == pytest.approx(-math.log(2.0) / 10.0, abs=1e-16)


def test_smooth_min_single_element_exact():
    assert smooth_min([5.0], -3.0) == 5.0
    assert smooth_min([5.0], -1e6) == 5.0


def test_smooth_min_two_values():
    # 0 - (1/50) ln(1 + e^-50), indistinguishably below zero
    got = smooth_min([0.0, 1.0], -50.0)
    expected = -math.log1p(math.exp(-50.0)) / 50.0
    assert got == pytest.approx(expected, abs=1e-18)
    assert -math.log(2) / 50.0 <= got <= 0.0


def test_smooth_min_bound_battery(rng):
    for _ in range(2000):
        size = int(rng.integers(1, 9))
        vals = rng.uniform(-10, 10, size=size)
        eps = -(10.0 ** rng.uniform(-2, 2))
        got = smooth_min(vals, eps)
        lo = math.log(size) / eps
        assert lo <= got - vals.min() <= 0.0


def test_smooth_min_approaches_hard_min():
    vals = [0.3, 1.7, 0.9]
    errs = [abs(smooth_min(vals, eps) - 0.3) for eps in (-1.0, -10.0, -100.0)]
    assert errs[0] > errs[1] > errs[2]


def test_smooth_min_rejects_bad_args():
    with pytest.raises(ValueError):
        smooth_min([1.0], 0.5)
    with pytest.raises(ValueError):
        smooth_min([], -1.0)


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_examples():
    eye = QuadraticPayload(np.eye(2))
    assert quadratic_objective(eye, np.array([1.0, 1.0])) == 2.0
    assert quadratic_objective(eye, np.zeros(2)) == 0.0
    diag = QuadraticPayload(np.diag([1.0, 4.0]))
    assert quadratic_objective(diag, np.array([1.0, 1.0])) == 5.0
    assert quadratic_objective(QuadraticPayload([[0.5]]), np.array([2.0])) == 2.0


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticPayload(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        QuadraticPayload(np.ones((2, 3)))
