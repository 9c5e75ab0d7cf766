"""The verification suite behind ``broadcast-control verify``.

Each check pairs a claim about the laws with an independent measurement:
exact enumeration for the estimator and probe-count claims, paired
trajectories for the twice-speed and distance claims, Monte Carlo for the
empirical descent trend.  A check row reports its bound, the measured value,
and PASS/FAIL.  The oracles fold over seeds themselves: a paired check runs
its pairs into a list and hands the list to one oracle call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import LAW_PAIRED, LAW_PBC, ExperimentConfig
from .engine import _aggregate, run_monte_carlo, run_paired
from .objectives import quadratic_objective
from .oracle import (
    _DESCENT_WINDOW,
    check_distance_dominance,
    check_k_monotonicity,
    check_twice_speed,
    descent_fraction,
    enumerate_estimator_variance,
    enumerate_expected_gradient,
    random_spd_matrix,
)


@dataclass
class CheckResult:
    name: str
    bound: str
    measured: str
    passed: bool
    note: str = ""


# a check over no pairs or no finished trials fails: a bound that holds on no
# evidence shows nothing
_NO_EVIDENCE = "no evidence: 0 paired seeds"
_NO_TRIALS = "no evidence: 0 finished trials"


def _pairs(seeds: int) -> list:
    """One ``(rec_bc, rec_pbc)`` pair of theorem-mode rendezvous runs per seed."""
    config = ExperimentConfig(law=LAW_PAIRED, mode="theorem")
    return [run_paired(replace(config, master_seed=s)) for s in range(seeds)]


def _sci(v: float) -> str:
    """``v`` in ``%g`` form without the exponent's leading zero: ``1e-6``, not ``1e-06``."""
    return f"{v:g}".replace("e-0", "e-")


def _quadratic_instance(rng, d: int, log_c_min: float):
    """A random SPD ``H`` in ``d`` dimensions, a state ``x`` in the unit box, a
    probe radius ``c`` log-uniform in ``[10**log_c_min, 1]`` and ``J(v) = v.Hv``."""
    H = random_spd_matrix(rng, d)
    x, c = rng.uniform(-1.0, 1.0, size=d), 10.0 ** rng.uniform(log_c_min, 0)
    return H, x, c, lambda v: quadratic_objective(H, v)


def check_estimator(**_) -> list:
    """Enumerated expectation of the probe estimate equals the exact gradient
    on quadratics; on a quartic the leftover bias decays like c**2."""
    rng = np.random.default_rng(2024)
    tol, instances = 1e-12, 100
    worst = 0.0
    for _ in range(instances):
        K = int(rng.integers(1, 4))
        H, x, c, J = _quadratic_instance(rng, int(rng.integers(1, 12 // K + 1)), -3)
        est = enumerate_expected_gradient(x, c, K, J)
        worst = max(worst, float(np.abs(est - 2.0 * H @ x).max()))

    x = np.array([1.0])
    J4 = lambda v: float(v[0] ** 4)
    # each radius half the one before, exactly in binary64; bias(c) ~ c**2
    # makes each ratio near 4
    radii, (lo, hi) = (0.2, 0.1, 0.05, 0.025), (3.5, 4.5)
    bias = [abs(enumerate_expected_gradient(x, c, 1, J4)[0] - 4.0) for c in radii]
    ratios = [b1 / b2 for b1, b2 in zip(bias, bias[1:])]
    return [
        CheckResult(
            name="estimator-unbiased-quadratic",
            bound=f"max |E[g] - 2Hx| <= {_sci(tol)}",
            measured=f"{worst:.3e}",
            passed=worst <= tol,
            note=f"{instances} enumerated quadratic instances",
        ),
        CheckResult(
            name="estimator-bias-decay",
            bound=f"bias(c)/bias(c/2) in [{lo}, {hi}]",
            measured=", ".join(f"{r:.3f}" for r in ratios),
            passed=all(lo <= r <= hi for r in ratios),
            note="quartic objective, halving probe radius",
        ),
    ]


def check_variance(**_) -> list:
    """Variance of the K-probe mean is exactly 1/K of the single-probe
    variance, component by component."""
    rng = np.random.default_rng(7)
    tol, Ks = 1e-12, (1, 2, 3, 4)
    worst = 0.0
    for _ in range(5):
        _, x, c, J = _quadratic_instance(rng, 2, -2)
        var = [enumerate_estimator_variance(x, c, K, J) for K in Ks]
        for K, varK in zip(Ks, var):
            worst = max(worst, float(np.abs(varK - var[0] / K).max()))
    return [
        CheckResult(
            name="variance-scaling",
            bound=f"max |Var_K - Var_1/K| <= {_sci(tol)}",
            measured=f"{worst:.3e}",
            passed=worst <= tol,
            note=f"K in {{{','.join(map(str, Ks))}}}, enumerated product space",
        )
    ]


def _twice_speed_row(pairs) -> CheckResult:
    """Judge the twice-speed claim on a list of ``(rec_bc, rec_pbc)`` pairs."""
    rep = check_twice_speed(pairs)
    worst_x, worst_j = rep.max_state_deviation, rep.max_objective_deviation
    tol = 1e-6
    return CheckResult(
        name="twice-speed",
        bound=f"sup_t |x_pbc(t) - x_bc(2t)| <= {_sci(tol)}",
        measured=f"state {worst_x:.3e}, objective {worst_j:.3e}",
        passed=bool(pairs) and worst_x <= tol and worst_j <= tol,
        note=(
            f"{len(pairs)} paired rendezvous seeds, {pairs[0][1].steps} steps"
            if pairs else _NO_EVIDENCE
        ),
    )


def _distance_row(rep, pairs: int) -> CheckResult:
    """Judge distance dominance on its report over ``pairs`` paired runs."""
    floor = -1e-9
    return CheckResult(
        name="distance-dominance",
        bound=f"min_t (D_bc(2t) - D_pbc(t)) >= {_sci(floor)}",
        measured=f"min margin {rep.min_margin:.3e}, strict at T {rep.strict}/{pairs}",
        passed=pairs > 0 and rep.min_margin >= floor,
        note="path-wise comparison on shared sample paths" if pairs else _NO_EVIDENCE,
    )


def _descent_row(task: str, traces) -> CheckResult:
    """Judge the descent trend on the objective traces of a run's finished trials."""
    frac = descent_fraction(traces) if len(traces) else math.nan
    least, window = 0.95, _DESCENT_WINDOW
    return CheckResult(
        name=f"descent-{task}",
        bound=f"trailing-{window} mean < leading-{window} mean in >= {least:.0%}",
        measured=f"{frac:.2%}",
        passed=frac >= least,
        note=f"{len(traces)} trials" if len(traces) else _NO_TRIALS,
    )


def check_twice_speed_runs(*, seeds: int, **_) -> list:
    """Paired runs: the single-stage law at t retraces the two-stage law at 2t."""
    return [_twice_speed_row(_pairs(seeds))]


def check_distance_runs(*, seeds: int, **_) -> list:
    """Paired runs: the two-stage law never travels less, on any sample path."""
    pairs = _pairs(seeds)
    return [_distance_row(check_distance_dominance(pairs), len(pairs))]


# the scalar enumeration instance under each curvature: its objective, the
# sign of the costs' strict order in K, the costs known exactly, whether the
# kappa=2 power falls strictly, and the row's texts, formatted from the costs
# and from the instance's x, a and c
_K_STEP = {
    False: (lambda v: float(v[0]) ** 2, -1.0, (0.6425, 0.64125), True,
            "{} exact; strictly decreasing", "scalar quadratic, x={:g}, a={:g}, c={:g}"),
    True: (lambda v: 10.0 - float(v[0]) ** 2, 1.0, (), False,
           "E[J(next)] strictly increasing in K", "concave instance; reversed ordering expected"),
}


def _rises(values, sign: float = 1.0) -> bool:
    """Each of ``sign * values`` strictly above the one before."""
    return all(sign * u < sign * v for u, v in zip(values, values[1:]))


def _non_increasing(values) -> bool:
    """Each value at most the one before, up to rounding."""
    return all(v <= u + 1e-12 * (1 + abs(u)) for u, v in zip(values, values[1:]))


def check_k_step(concave: bool = False, **_) -> list:
    """Per-step probe-count ordering on the scalar enumeration instance: the
    cost strictly ordered in K by curvature, and the move never longer."""
    J, sign, exact, strict_d2, bound, note = _K_STEP[concave]
    x, a, c = 1.0, 0.1, 0.5
    rep = check_k_monotonicity(np.array([x]), a, c, (1, 2, 3), J)
    costs, d1, d2 = rep.cost_values, rep.distance_values[1.0], rep.distance_values[2.0]
    passed = (
        all(abs(v - e) <= 1e-12 for v, e in zip(costs, exact))
        and _rises(costs, sign)
        and _non_increasing(d1)
        and _non_increasing(d2)
        and (not strict_d2 or _rises(d2, -1.0))
    )
    bound, note = bound.format(", ".join(map(str, exact))), note.format(x, a, c)
    measured = ", ".join(f"{v:.6f}" for v in costs)
    return [CheckResult("k-step-ordering", bound, measured, passed, note)]


def check_k_multistep(*, trials: int, **_) -> list:
    """More probes never hurt over a whole run of the convex quadratic task,
    compared on the trials that finished at every K."""
    config = ExperimentConfig(task="quadratic", law=LAW_PBC, trials=trials, master_seed=11)
    Ks = (1, 3, 10)
    runs = [run_monte_carlo(replace(config, K=K)).records for K in Ks]
    common = set.intersection(*({r.trial for r in records} for records in runs))
    finals = [
        float(_aggregate([r for r in records if r.trial in common]).j_mean[-1])
        if common else math.nan
        for records in runs
    ]
    slack = 1.02  # Monte Carlo noise allowance on an inequality of means
    # NaN means, with no trial finished at every K, fail every comparison
    ok = all(v <= u * slack for u, v in zip(finals, finals[1:]))
    return [
        CheckResult(
            name="k-multistep-ordering",
            bound=f"mean J(T) non-increasing in K ({slack - 1:.0%} MC slack)",
            measured=", ".join(f"{v:.4e}" for v in finals),
            passed=ok,
            note=f"quadratic task, K in {Ks}, {len(common)} trials" if common else _NO_TRIALS,
        )
    ]


def check_descent(*, trials: int, **_) -> list:
    """Objective traces trend downward on every task.

    The assignment objective is an unnormalized sum of squares; its stable
    step-size scale at nN = 30 is smaller, so that task runs with a matching
    (still valid) a0.
    """
    out = []
    for task, a0 in (("coverage", 2.0), ("rendezvous", 2.0), ("assignment", 0.2)):
        config = ExperimentConfig(task=task, law=LAW_PBC, K=1, trials=trials, master_seed=5, a0=a0)
        out.append(_descent_row(task, [r.j_trace for r in run_monte_carlo(config).records]))
    return out


VERIFY_CHECKS = {
    "estimator": check_estimator,
    "variance": check_variance,
    "twice-speed": check_twice_speed_runs,
    "distance": check_distance_runs,
    "k-step": check_k_step,
    "k-multistep": check_k_multistep,
    "descent": check_descent,
}


def run_verify(names, concave: bool = False, seeds: int = 3, trials: int = 20):
    """Run the named checks and format the report table.

    Returns ``(report_text, all_passed)``.
    """
    results: list = []
    for name in names:
        results.extend(VERIFY_CHECKS[name](concave=concave, seeds=seeds, trials=trials))
    width = max((len(r.name) for r in results), default=0)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  bound: {r.bound}")
        lines.append(f"{'':<{width}}        measured: {r.measured}")
        if r.note:
            lines.append(f"{'':<{width}}        note: {r.note}")
    # no check run is no evidence
    all_ok = bool(results) and all(r.passed for r in results)
    lines.append("overall: " + ("PASS" if all_ok else "FAIL"))
    return "\n".join(lines) + "\n", all_ok
