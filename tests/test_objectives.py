import importlib.machinery
import itertools
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from broadcast_control import objectives as objectives_mod
from broadcast_control.objectives import (
    AssignmentPayload,
    CoveragePayload,
    ObjectiveSpec,
    RendezvousPayload,
    _certified_rendezvous,
    _formation_sq_errors,
    _LabelledCoverage,
    _unique_optimum,
    assignment_objective,
    barrier_weight,
    circle_formation,
    coverage_objective,
    freeze_assignment,
    hungarian,
    make_objective_fn,
    quadratic_objective,
    rendezvous_objective,
    smooth_min,
    unit_cube_grid,
)
from broadcast_control.oracle import random_spd_matrix

# ---------------------------------------------------------------------------
# barrier


def test_barrier_weight_branches():
    assert barrier_weight(0.0, 1.0, 2.0) == 1.0
    assert barrier_weight(1.0, 1.0, 2.0) == 1.0
    assert barrier_weight(2.0, 1.0, 2.0) == 0.0
    assert barrier_weight(5.0, 1.0, 2.0) == 0.0
    mid = barrier_weight(1.5, 1.0, 2.0)
    assert 0.0 < mid < 1.0


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
    return ObjectiveSpec(H, l1=l1, l2=l2)


def test_evaluate_branches_bit_exact():
    spec = _quad_spec()
    J = make_objective_fn(spec)
    inside = np.array([0.3, -0.4])  # |x| = 0.5 <= l1
    assert J(inside) == quadratic_objective(spec.payload, inside)
    outside = np.array([1.2, -1.6])  # |x| = 2.0 >= l2
    assert J(outside) == float(np.dot(outside, outside))
    # strictly between the branch values in the blend band
    mid = np.array([1.5, 0.0])
    j_obj = quadratic_objective(spec.payload, mid)
    quad = float(np.dot(mid, mid))
    val = J(mid)
    assert min(j_obj, quad) < val < max(j_obj, quad)


def test_evaluate_matches_norm_barrier_bit_for_bit(rng):
    # every task beside its objective called directly, hard and smooth minima,
    # assignment re-solved and frozen: binding the wrong task, payload or
    # epsilon fails
    l1, l2, eps = 1.0, 2.0, -10.0
    grid = CoveragePayload(grid=unit_cube_grid(2, 0.25))
    family = circle_formation(3, 0.2, (1, 2, 3))
    targets = AssignmentPayload(targets=rng.normal(size=(3, 2)))
    frozen = freeze_assignment(targets, rng.normal(size=6))
    quad = _quad_spec(n=2, N=3, l1=l1, l2=l2)

    def spec(payload, smooth=None):
        return ObjectiveSpec(payload, l1=l1, l2=l2, smooth_min_epsilon=smooth)

    cases = [
        (quad, lambda x: quadratic_objective(quad.payload, x)),
        (spec(grid), lambda x: reference.coverage(grid, x)),
        (spec(grid, eps), lambda x: reference.coverage(grid, x, eps)),
        (spec(family), lambda x: reference.rendezvous(family, x)),
        (spec(family, eps), lambda x: rendezvous_objective(family, x, smooth_eps=eps)),
        (spec(targets), lambda x: assignment_objective(targets, x)),
        (spec(frozen), lambda x: assignment_objective(frozen, x)),
    ]
    radii = [
        np.nextafter(l1, 0.0), l1, np.nextafter(l1, 2.0),  # just inside l1
        1.25, 1.5, 1.999,  # the blend
        l2, np.nextafter(l2, 3.0), 7.0,  # beyond l2
    ]
    for objective_spec, task in cases:
        J = make_objective_fn(objective_spec)
        branches = set()
        for radius in radii:
            for _ in range(200):
                direction = rng.normal(size=6)
                x = radius * direction / np.linalg.norm(direction)
                assert J(x) == reference.evaluate(objective_spec, task, x)
                r = float(np.linalg.norm(x))
                branches.add("inside" if r <= l1 else "beyond" if r >= l2 else "blend")
        assert branches == {"inside", "blend", "beyond"}


def test_evaluate_standard_workspace_is_task_objective():
    # all standard experiments stay well inside l1 = 100
    spec = _quad_spec(l1=100.0, l2=101.0)
    x = np.array([0.9, 0.9])
    assert make_objective_fn(spec)(x) == quadratic_objective(spec.payload, x)


# ---------------------------------------------------------------------------
# coverage


def hard_coverage(payload, x):
    """Hard-minimum coverage from a fresh evaluator: its first call scans
    every agent."""
    return _LabelledCoverage(payload)(x, float(x.dot(x)))


def test_coverage_single_agent_center_closed_form():
    # per-axis grid second moment: sum_k (0.01k - 0.5)^2 / 101 = 0.085
    per_axis = sum((0.01 * k - 0.5) ** 2 for k in range(101)) / 101
    assert per_axis == pytest.approx(0.085, abs=1e-15)
    payload = CoveragePayload(grid=unit_cube_grid(2, 0.01))
    got = hard_coverage(payload, np.array([0.5, 0.5]))
    assert got == pytest.approx(2 * per_axis, abs=1e-12)
    assert got == pytest.approx(0.17, abs=1e-12)


def test_coverage_zero_distance_cover():
    grid = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.33, 0.77]])
    payload = CoveragePayload(grid=grid)
    assert hard_coverage(payload, grid.ravel()) == 0.0


def test_coverage_two_agents_beat_one():
    payload = CoveragePayload(grid=unit_cube_grid(2, 0.01))
    one = hard_coverage(payload, np.array([0.5, 0.5]))
    two = hard_coverage(payload, np.array([0.25, 0.5, 0.75, 0.5]))
    assert two < one


def test_coverage_extra_agent_weakly_decreases(rng):
    payload = CoveragePayload(grid=unit_cube_grid(2, 0.1))
    for _ in range(20):
        x = rng.uniform(0, 1, size=6)
        extra = np.concatenate([x, rng.uniform(0, 1, size=2)])
        assert hard_coverage(payload, extra) <= hard_coverage(payload, x)


def test_coverage_smooth_min_close_to_hard():
    payload = CoveragePayload(grid=unit_cube_grid(2, 0.1))
    x = np.array([0.2, 0.2, 0.8, 0.8])
    hard = hard_coverage(payload, x)
    soft = coverage_objective(payload, x, smooth_eps=-1e5)
    # smooth min sits within (1/eps) ln N of the hard min per grid point
    assert hard + math.log(2) / -1e5 <= soft <= hard


def test_unit_cube_grid_shape():
    grid = unit_cube_grid(2, 0.01)
    assert grid.shape == (101 * 101, 2)
    assert grid.min() == 0.0
    assert grid.max() == 1.0


def test_coverage_payload_validation():
    with pytest.raises(ValueError):
        CoveragePayload(grid=np.zeros((0, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        grid = unit_cube_grid(2, 0.5)
        grid[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            CoveragePayload(grid=grid)


def test_rendezvous_payload_validation():
    for bad in (np.zeros((0, 3, 2)), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="non-empty"):
            RendezvousPayload(positions=bad)
    for bad in (np.nan, np.inf, -np.inf):
        pos = np.zeros((2, 3, 2))
        pos[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            RendezvousPayload(positions=pos)


def test_assignment_payload_validation():
    for bad in (np.zeros((0, 2)), np.zeros(4), np.zeros((1, 3, 2))):
        with pytest.raises(ValueError, match="non-empty"):
            AssignmentPayload(targets=bad)


@st.composite
def _coverage_call_sequences(draw):
    """A coverage spec and the states PBC would evaluate J at: per step the
    state and its K probes ``x + c*sigma``, then a move, sometimes a jump."""
    n = draw(st.integers(1, 3))
    spacing = draw(st.sampled_from({1: (0.1, 0.05), 2: (0.25, 0.2, 0.1), 3: (0.5, 0.25)}[n]))
    grid = unit_cube_grid(n, spacing)
    N = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-0.25, 1.25, size=(N, n))
    if N >= 2 and draw(st.booleans()):
        pts[1] = pts[0]  # coincident agents
    if N >= 3 and draw(st.booleans()):
        # agents 1 and 2 mirrored about a grid point, then one nudged by a
        # few ulps: that point is equidistant to within rounding
        g = grid[rng.integers(grid.shape[0])]
        v = rng.normal(scale=spacing, size=n)
        pts[1], pts[2] = g + v, g - v
        pts[2, 0] = pts[2, 0] + draw(st.integers(-4, 4)) * np.spacing(pts[2, 0])
    x = pts.ravel()
    l1, l2 = 100.0, 101.0
    if draw(st.booleans()):
        # the barrier blend: the state sits between l1 and l2
        r0 = max(float(np.linalg.norm(x)), 1e-3)
        l1, l2 = 0.8 * r0, 1.5 * r0
    spec = ObjectiveSpec(CoveragePayload(grid=grid), l1=l1, l2=l2)
    K = draw(st.integers(1, 10))
    states = []
    for _ in range(draw(st.integers(1, 3))):
        c = 10.0 ** draw(st.floats(-7.0, 0.0))
        states.append(x)
        states.extend(x + c * rng.choice([-1.0, 1.0], size=(K, n * N)))
        jump = draw(st.sampled_from((1e-3, 1e-2, 1e-1, 1.0))) if draw(st.booleans()) else c
        x = x + rng.normal(scale=jump, size=n * N)
    states.append(x)
    return spec, states


# tenfold: label reuse is exact only by a rounding argument, and drawn call
# sequences are what reach the near-equidistant points
@pytest.mark.tenfold
@given(_coverage_call_sequences())
@settings(deadline=None)
def test_hard_coverage_reuses_labels_bit_for_bit(case):
    # make_objective_fn binds hard-minimum coverage to an evaluator that keeps
    # nearest-agent labels between calls; over a PBC-like call sequence every
    # value must carry the plain scan's bits
    spec, states = case
    J = make_objective_fn(spec)
    task = partial(reference.coverage, spec.payload)
    for x in states:
        assert J(x).hex() == reference.evaluate(spec, task, x).hex()


def test_hard_coverage_scans_a_point_whose_gap_is_within_slack():
    # the rounding step of the certificate: a computed gap is within
    # (n+7)u*S of the exact one, so a point is certified only when its gap
    # exceeds 2*delta + slack.  The planted point's computed gap is positive
    # but under slack; at delta = 0 it must stay in the scan, which a zero
    # slack would not do
    eps = 4e-15
    x = np.array([0.4, 0.5, 0.6 + eps, 0.5])
    grid = np.array([[0.5, 0.5]] + [[0.4, 0.5 + 0.01 * k] for k in range(19)])
    payload = CoveragePayload(grid=grid)
    J = _LabelledCoverage(payload)
    quad = float(x.dot(x))
    J(x, quad)  # the full pass, which records the gaps
    scale = math.sqrt(float((grid * grid).sum(axis=1).max())) + 2.0 * math.sqrt(quad)
    slack = (4 * 2 + 32) * 2.0**-53 * scale + 2.0**-500
    assert 0.0 < J._gap[0] < slack
    assert J(x, quad).hex() == reference.coverage(payload, x).hex()
    assert J._mask.tolist() == [False] + [True] * 19


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


@st.composite
def _near_tie_coverage_calls(draw):
    """A coverage payload, a reference state and probes from it that put
    grid points on near-ties of the label certificate.  At the grid's origin
    corner, where the agents' coordinates resolve their distances to the last
    ulp, agents 0 and 1 sit at ``r0`` and ``r0 + 2*delta + e``.  Each probe
    moves agent 0 away from the corner and agent 1 towards it by ``delta``
    give or take a few ulps, so the reference gap there is within rounding of
    twice the displacement, and the two new distances differ by ``e``: a few
    ulps, or a fraction of ``delta``.  Agents 2 and 3 may sit mirrored about
    another grid point, nudged by a few ulps, equidistant to within
    rounding."""
    n = draw(st.integers(1, 3))
    spacing = draw(st.sampled_from({1: (0.05, 0.01), 2: (0.1, 0.05), 3: (0.25,)}[n]))
    grid = unit_cube_grid(n, spacing)
    N = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-0.25, 1.25, size=(N, n))
    away, towards = _unit(rng.normal(size=n)), _unit(rng.normal(size=n))
    r0 = spacing * 10.0 ** draw(st.floats(-3.0, -0.5))
    delta = r0 * 10.0 ** draw(st.floats(-6.0, -1.0))
    if draw(st.integers(0, 3)):  # mostly ulps, where only the slack decides
        e = draw(st.integers(-3, 3)) * np.spacing(r0)
    else:
        e = draw(st.floats(-1.0, 1.0)) * delta
    pts[0], pts[1] = r0 * away, (r0 + 2.0 * delta + e) * towards
    if N >= 4 and draw(st.booleans()):
        v = rng.normal(scale=spacing, size=n)
        g = grid[rng.integers(grid.shape[0])]
        pts[2], pts[3] = g + v, g - v
        pts[3, 0] += draw(st.integers(-4, 4)) * np.spacing(pts[3, 0])
    states = [pts.ravel()]
    for _ in range(draw(st.integers(1, 4))):
        step = delta + draw(st.integers(-4, 4)) * np.spacing(delta)
        probe = pts.copy()
        probe[0] += step * away
        probe[1] -= step * towards
        states.append(probe.ravel())
    return CoveragePayload(grid=grid), states


# tenfold: the near-ties are where the certificate's rounding slack decides
@pytest.mark.tenfold
@given(_near_tie_coverage_calls())
@settings(deadline=None)
def test_hard_coverage_near_ties_bit_for_bit(case):
    # at every call, the reference's first and each probe, every grid
    # point's value and the mean carry the plain scan's bits
    payload, states = case
    J = _LabelledCoverage(payload)
    for x in states:
        assert J(x, float(x.dot(x))).hex() == reference.coverage(payload, x).hex()
        nearest = reference.squared_distances(payload, x).min(axis=0)
        assert J._value.tobytes() == nearest.tobytes()


# ---------------------------------------------------------------------------
# rendezvous


def hard_rendezvous(payload, x):
    """Hard-minimum rendezvous, from the certified evaluator that
    ``make_objective_fn`` binds."""
    return _certified_rendezvous(payload, x, float(x.dot(x)))


def circle_family(N):
    """The circle family with one rotation per agent."""
    return circle_formation(N, 0.2, tuple(range(1, N + 1)))


def test_rendezvous_hand_value():
    # two agents on a line, single formation with y = (1, 0):
    # r_12 = 1, r_21 = -1, r_ii = 0; x = (0, 0) gives (1/4)(1 + 1) = 0.5
    payload = RendezvousPayload(positions=np.array([[[1.0], [0.0]]]))
    value = hard_rendezvous(payload, np.array([0.0, 0.0]))
    assert value == pytest.approx(0.5, abs=1e-15)


def test_rendezvous_translation_invariance(rng):
    payload = circle_family(6)
    for theta_idx in (0, 3):
        offset = rng.normal(size=2)
        x = (payload.positions[theta_idx] + offset).ravel()
        value = hard_rendezvous(payload, x)
        assert value <= 1e-26
        # and conversely: zero value means the best-fitting formation is
        # realized up to one common translation (all per-agent offsets coincide)
        t_idx = int(np.argmin(_formation_sq_errors(payload, x)))
        offsets = x.reshape(6, 2) - payload.positions[t_idx]
        assert np.ptp(offsets, axis=0).max() <= 1e-12


def test_rendezvous_nonzero_off_formation():
    payload = circle_family(5)
    x = np.zeros(10)
    x[0] = 1.0  # break every formation
    value = hard_rendezvous(payload, x)
    assert value > 1e-3


def test_rendezvous_cyclic_relabeling_matches_parameter_shift(rng):
    # shifting every agent label by one maps formation theta to theta + 1,
    # so the minimum over the full parameter cycle is unchanged
    N = 15
    payload = circle_family(N)
    x = rng.normal(scale=0.3, size=2 * N)
    value = hard_rendezvous(payload, x)
    shifted = np.roll(x.reshape(N, 2), -1, axis=0).ravel()
    value2 = hard_rendezvous(payload, shifted)
    assert value2 == pytest.approx(value, rel=1e-10, abs=1e-12)


@given(
    N=st.sampled_from([2, 3, 15]),
    formations=st.integers(1, 15),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    smooth=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_rendezvous_matches_reference_bit_for_bit(N, formations, log_scale, seed, ties, smooth):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    pos = rng.normal(scale=scale, size=(formations, N, 2))
    if ties and formations > 1:
        # repeat members, so the minimum is shared by several formations
        pos[1::2] = pos[0]
    payload = RendezvousPayload(positions=pos)
    x = rng.normal(scale=scale, size=2 * N)
    if ties:
        x = (pos[0] + rng.normal(size=2)).ravel()  # realizes member 0
    eps = -float(rng.uniform(0.5, 100.0)) / scale**2 if smooth else None
    expected = reference.rendezvous(payload, x, eps)
    if smooth:
        assert rendezvous_objective(payload, x, smooth_eps=eps) == expected
    else:
        assert hard_rendezvous(payload, x) == expected
    spec = ObjectiveSpec(payload, l1=1e9, l2=2e9, smooth_min_epsilon=eps)
    assert make_objective_fn(spec)(x) == expected


def test_rendezvous_smooth_min_bound():
    payload = circle_family(4)
    x = np.arange(8.0) / 10
    hard = hard_rendezvous(payload, x)
    soft = rendezvous_objective(payload, x, smooth_eps=-50.0)
    assert hard + math.log(len(payload.positions)) / -50.0 <= soft <= hard


@st.composite
def _rendezvous_cases(draw):
    """A formation family, states planted where the certificate's ranking is
    hardest, and a workspace radius ``l1`` within a few ulps of the norm of
    one of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # the circle family: every member has the same C_t up to rounding.
        # Past N rotations the members repeat up to rounding, as with the
        # default 15 rotations at N < 15, so the full scan runs on most calls
        N = draw(st.integers(1, 15))
        thetas = tuple(range(1, draw(st.integers(1, 15)) + 1))
        scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        payload = circle_formation(N, radius=scale, thetas=thetas)
    else:
        T, N, n = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
        scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        pos = rng.normal(scale=scale, size=(T, N, n))
        if T > 1 and draw(st.booleans()):
            # repeated members, exactly or to within a few rounding errors
            tiny = draw(st.sampled_from((0.0, 1e-16, 1e-15, 1e-14, 1e-13)))
            pos[1::2] = pos[0] + rng.normal(scale=tiny * scale, size=pos[1::2].shape)
        payload = RendezvousPayload(positions=pos)
    pos = payload.positions
    T, N, n = pos.shape
    # a common translation, up to 1e6 times the family's scale: the
    # product's rounding grows with it, the rows' rounding does not
    shift = rng.normal(scale=scale, size=n) * 10.0 ** draw(st.floats(-3.0, 6.0))
    noise = scale * 10.0 ** draw(st.floats(-16.0, -2.0))
    states = [np.tile(shift, N)]  # all agents at one point: the circle members tie
    for a in range(T):  # equidistant from two members, up to the noise
        x = (pos[a] + pos[(a + 1) % T]) / 2 + shift
        states.append((x + rng.normal(scale=noise, size=(N, n))).ravel())
    member = pos[rng.integers(T)] + shift + rng.normal(scale=noise, size=(N, n))
    states.append(member.ravel())
    # a near-tie and the member translated far from the origin, up to 1e9
    # times the family's scale, where the margin's 2N x.x term dominates
    far = np.tile(rng.normal(scale=scale, size=n) * 10.0 ** draw(st.floats(0.0, 9.0)), N)
    states += [states[1] + far, states[-1] + far]
    states.append(rng.normal(scale=scale * 10.0 ** draw(st.floats(-1.0, 1.0)), size=N * n))
    states.append(states[-1].copy())
    states[-1][rng.integers(N * n)] = np.nan
    r = float(np.linalg.norm(member))
    l1 = max(r + draw(st.integers(-3, 3)) * np.spacing(r), 1e-300)
    return payload, states, l1


# tenfold: the formation certificate is sound only by a rounding argument,
# and only planted formation ties reach its margin
@pytest.mark.tenfold
@given(_rendezvous_cases())
@settings(deadline=None)
def test_certified_rendezvous_matches_reference(case):
    # make_objective_fn binds hard-minimum rendezvous to an evaluator that
    # ranks the formations by one product and computes only a certified
    # winner's row; every value must carry the reference's bits, and J's
    # those of the barrier around it, with |x| near l1 or far inside it
    payload, states, l1 = case
    task = partial(reference.rendezvous, payload)
    for radius in (l1, 1e300):
        spec = ObjectiveSpec(payload, l1=radius, l2=2.0 * radius)
        J = make_objective_fn(spec)
        for x in states:
            assert _certified_rendezvous(payload, x, float(x.dot(x))).hex() == task(x).hex()
            assert J(x).hex() == reference.evaluate(spec, task, x).hex()


def test_certified_rendezvous_scans_only_near_ties(monkeypatch):
    # off a tie the certificate computes one row; where every member ties it
    # falls back to the full scan, which then runs once
    payload = circle_family(15)
    scans = []

    def counted(p, x):
        scans.append(1)
        return _formation_sq_errors(p, x)

    monkeypatch.setattr(objectives_mod, "_formation_sq_errors", counted)
    near = (payload.positions[4] + 0.3 + 1e-3 * np.cos(np.arange(30.0)).reshape(15, 2)).ravel()
    assert hard_rendezvous(payload, near) == reference.rendezvous(payload, near)
    assert scans == []
    together = np.tile([0.3, -0.1], 15)
    assert hard_rendezvous(payload, together) == reference.rendezvous(payload, together)
    assert scans == [1]


def test_certified_rendezvous_scans_a_rival_within_the_margin(monkeypatch):
    # the last step of the certificate's proof: a rival is excluded only
    # when its score exceeds the leader's by more than the margin, which
    # covers both rows' and both scores' rounding (margin >= 2a + 2b).  The
    # planted rival's computed score is 3/4 of the margin above the
    # leader's, so the full scan runs; half the margin would skip it
    payload = circle_formation(3, 0.2, (1, 2))
    v = payload._rank_rows[1] - payload._rank_rows[0]
    k_quad, k_0 = payload._margin
    lead = payload._sq_offsets[1] - payload._sq_offsets[0]
    x = (0.75 * k_0 - lead) / v.dot(v) * v
    scores = payload._rank_rows.dot(x) + payload._sq_offsets
    margin = k_quad * float(x.dot(x)) + k_0
    assert margin / 2 < scores[1] - scores[0] < margin
    scans = []

    def counted(p, x):
        scans.append(1)
        return _formation_sq_errors(p, x)

    monkeypatch.setattr(objectives_mod, "_formation_sq_errors", counted)
    assert hard_rendezvous(payload, x) == reference.rendezvous(payload, x)
    assert scans == [1]


def test_circle_formation_is_built_once_and_read_only():
    family = circle_formation(7, radius=0.3, thetas=(1, 2, 3))
    assert circle_formation(7, radius=0.3, thetas=(1, 2, 3)) is family
    assert family._rank_rows.shape == (3, 14)  # one row per formation
    for arr in (family.positions, family._offsets, family._rank_rows, family._sq_offsets):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # the payload copies what it is given; the caller's array stays writable
    pos = np.zeros((1, 2, 2))
    RendezvousPayload(positions=pos)
    pos[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# assignment and the assignment solver


def test_assignment_identity_zero():
    targets = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    payload = AssignmentPayload(targets=targets)
    assert assignment_objective(payload, targets.ravel()) == 0.0
    # the optimal pairing is the identity: freezing keeps the targets' order
    assert np.array_equal(freeze_assignment(payload, targets.ravel()).targets, targets)


def test_assignment_swap_example():
    # x = (0, 10), y = (9, 1): swapping costs (0-1)^2 + (10-9)^2 = 2,
    # identity costs 81 + 81 = 162
    payload = AssignmentPayload(targets=np.array([[9.0], [1.0]]))
    x = np.array([0.0, 10.0])
    assert assignment_objective(payload, x) == pytest.approx(2.0, abs=1e-15)
    # the pairing [1, 0]: agent 0 takes target 1, agent 1 target 0
    frozen = freeze_assignment(payload, x)
    assert np.array_equal(frozen.targets, payload.targets[[1, 0]])
    assert assignment_objective(frozen, x) == pytest.approx(2.0, abs=1e-15)


def test_assignment_matches_brute_force(rng):
    N = 7
    for _ in range(5):
        targets = rng.normal(size=(N, 2))
        x = rng.normal(size=2 * N)
        value = assignment_objective(AssignmentPayload(targets=targets), x)
        pts = x.reshape(N, 2)
        best = min(
            sum(float(np.sum((pts[i] - targets[p[i]]) ** 2)) for i in range(N))
            for p in itertools.permutations(range(N))
        )
        assert value == pytest.approx(best, rel=1e-12)


def test_assignment_once_at_start_freezes_pairing():
    targets = np.array([[0.0], [10.0]])
    payload = freeze_assignment(
        AssignmentPayload(targets=targets),
        np.array([0.1, 9.9]),
    )
    # the pairing (0, 1): the targets stay in their order, fixed
    assert payload.fixed
    assert np.array_equal(payload.targets, targets)
    # agents later cross over; the frozen pairing keeps the original match
    assert assignment_objective(payload, np.array([10.0, 0.0])) == pytest.approx(200.0)
    # the every-step pairing would re-pair to zero cost
    value = assignment_objective(AssignmentPayload(targets=targets), np.array([10.0, 0.0]))
    assert value == 0.0


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


def test_hungarian_tie_oracle_small_integer_costs(rng):
    # costs in {0, 1, 2} make many optimal permutations; integer sums are exact
    for n in range(2, 7):
        for _ in range(40):
            C = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            assert list(hungarian(C)) == reference.lexicographic_optimum(C)


def test_hungarian_does_not_mutate_input(rng):
    for C in (
        rng.uniform(size=(15, 15)),
        rng.integers(0, 3, size=(6, 6)).astype(np.float64),
        np.array([[0.0, 0.0], [0.0, 1e-12]]),
    ):
        before = C.copy()
        hungarian(C)
        assert np.array_equal(C, before)


def _counting_solver(monkeypatch):
    """Patch the solver ``hungarian`` loads with one that records the shape
    of each matrix it solves; returns the record and the solver."""
    calls = []
    solve = objectives_mod._assignment_solver()

    def counting(C):
        calls.append(C.shape)
        return solve(C)

    monkeypatch.setattr(objectives_mod, "_assignment_solver", lambda: counting)
    return calls, solve


def test_hungarian_unique_optimum_skips_refinement(rng, monkeypatch):
    # a generic squared-distance matrix has a unique optimum: the one solve,
    # then the minimum-cycle certificate, which solves nothing
    calls, solve = _counting_solver(monkeypatch)
    N = 15
    diff = rng.uniform(size=(N, 1, 2)) - rng.uniform(size=(1, N, 2))
    C = np.einsum("ijd,ijd->ij", diff, diff)
    perm = hungarian(C)
    assert calls == [(N, N)]
    assert np.array_equal(perm, solve(C)[1])


def test_hungarian_refinement_solves_through_the_loader(monkeypatch):
    # an all-tied matrix takes the refinement: after the first solve, one
    # sub-solve per row, the last row's completion being 0 x 0
    calls, _ = _counting_solver(monkeypatch)
    assert hungarian(np.zeros((3, 3))).tolist() == [0, 1, 2]
    assert calls == [(3, 3), (2, 2), (1, 1), (0, 0)]


@pytest.mark.parametrize(
    "M, solves",
    [(np.nextafter(2.0**500, 0), [(2, 2)]), (2.0**500, [(2, 2), (1, 1), (0, 0)])],
    ids=["below", "at"],
)
def test_hungarian_certificate_stops_at_its_overflow_guard(M, solves, monkeypatch):
    # the one rival costs 2M more: below 2**500 the certificate proves it
    # after the one solve; from 2**500, where a cycle sum could overflow, it
    # certifies nothing and the refinement solves each row's completion
    calls, _ = _counting_solver(monkeypatch)
    assert hungarian(np.array([[0.0, M], [M, 0.0]])).tolist() == [0, 1]
    assert calls == solves


def test_assignment_solver_gives_scipy_optimize_results(rng, monkeypatch):
    # the solver loaded from scipy's extension file alone returns, array for
    # array, what scipy.optimize.linear_sum_assignment does: on generic
    # matrices, on integer ties and on the refinement's 0 x 0 last row
    from scipy.optimize import linear_sum_assignment

    # scipy.optimize registered the module; without that entry the loader
    # reads the file, and takes the entry back out
    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
    solve = objectives_mod._assignment_solver.__wrapped__()
    assert "scipy.optimize._lsap" not in sys.modules
    matrices = [rng.uniform(size=(N, N)) for N in range(1, 41)]
    matrices += [rng.integers(0, 3, size=(N, N)).astype(np.float64) for N in range(1, 16)]
    matrices.append(np.zeros((0, 0)))
    for C in matrices:
        for got, want in zip(solve(C), linear_sum_assignment(C)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_assignment_solver_falls_back_to_scipy_optimize(monkeypatch):
    # a scipy laid out without optimize/_lsap.<suffix> has only the public
    # route
    import scipy.optimize

    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
    solve = objectives_mod._assignment_solver.__wrapped__()
    assert solve is scipy.optimize.linear_sum_assignment


def _planted_near_tie(N, scale, k, seed):
    """Costs of order ``scale`` whose unique optimum ``p`` has a rival, one
    exchange cycle of ``L`` rows, that costs ``k * tol`` more (to rounding).

    Any other exchange cycle takes an edge off ``p`` and off the planted
    cycle, which adds at least ``scale / 2`` (the entries of ``p`` lie in
    ``scale * [0, 0.5]``, the others in ``scale * [1, 2]``), while the
    planted edges it shares subtract under ``0.4 * scale``: it costs over
    ``scale / 10`` more."""
    rng = np.random.default_rng(seed)
    p = rng.permutation(N)
    C = scale * rng.uniform(1.0, 2.0, size=(N, N))
    C[np.arange(N), p] = scale * rng.uniform(0.0, 0.5, size=N)
    tol = 1e-9 * max(1.0, float(C[np.arange(N), p].sum()))
    L = int(rng.integers(2, N + 1))
    rows = rng.permutation(N)[:L]
    excess = k * tol
    for a, b in zip(rows[:-1], rows[1:]):
        step = scale * rng.uniform(0.0, 0.4 / L)
        C[a, p[b]] = C[a, p[a]] + step
        excess -= step
    C[rows[-1], p[rows[0]]] = C[rows[-1], p[rows[-1]]] + excess
    return C


_ULP = 2.0**-52
_NEAR_TIE_KS = (0.0, 1.0, 2.0, 2.0 * (1 - 4 * _ULP), 2.0 * (1 + 4 * _ULP), 2.01, 3.0)


# tenfold: the minimum-cycle certificate is sound only by a rounding
# argument, and only planted near-ties reach its margin
@pytest.mark.tenfold
@settings(deadline=None)
@given(
    N=st.integers(2, 8),
    log_scale=st.floats(-6.0, 6.0),
    k=st.sampled_from(_NEAR_TIE_KS),
    seed=st.integers(0, 2**32 - 1),
)
def test_hungarian_certificate_against_runner_up_solves(N, log_scale, k, seed):
    # the minimum-cycle certificate is sound only by a rounding argument:
    # it must never pass where Murty's N-solve check fails, and in the band
    # where only that check passes the refinement must return the same
    # optimum, so hungarian's permutations are the reference solver's
    from scipy.optimize import linear_sum_assignment

    C = _planted_near_tie(N, 10.0**log_scale, k, seed)
    rows, cols = linear_sum_assignment(C)
    best = float(C[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    if _unique_optimum(C, cols, tol):
        assert reference.runner_up_exceeds(C, cols, best + 2.0 * tol)
    assert np.array_equal(hungarian(C), reference.hungarian(C))


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
        smooth_min([], -1.0)


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_examples():
    eye = np.eye(2)
    assert quadratic_objective(eye, np.array([1.0, 1.0])) == 2.0
    assert quadratic_objective(eye, np.zeros(2)) == 0.0
    diag = np.diag([1.0, 4.0])
    assert quadratic_objective(diag, np.array([1.0, 1.0])) == 5.0
    assert quadratic_objective(np.array([[0.5]]), np.array([2.0])) == 2.0


@given(
    d=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
    strided=st.booleans(),
)
def test_quadratic_objective_has_the_bits_of_matmul(d, seed, log_scale, strided):
    # x.dot(H).dot(x) makes the BLAS calls of x @ H @ x without its dispatch
    rng = np.random.default_rng(seed)
    H = random_spd_matrix(rng, d) * 10.0**log_scale
    x = rng.normal(scale=10.0**-log_scale, size=2 * d)
    x = x[::2] if strided else x[:d]
    assert quadratic_objective(H, x).hex() == float(x @ H @ x).hex()


@given(seed=st.integers(0, 2**32 - 1))
def test_random_spd_matrix_is_symmetric_bit_for_bit(seed):
    # quadratic_objective's gradient is 2Hx only for a symmetric H, and no
    # payload checks it: 0.5 * (H + H.T) is symmetric because IEEE addition
    # commutes
    rng = np.random.default_rng(seed)
    for d in range(1, 31):
        H = random_spd_matrix(rng, d)
        assert H.tobytes() == H.T.tobytes()
