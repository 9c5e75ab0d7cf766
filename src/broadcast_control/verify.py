"""The verification suite behind ``broadcast-control verify``.

Each check pairs a claim about the laws with an independent measurement:
exact enumeration for the estimator and probe-count claims, paired
trajectories for the twice-speed and distance claims, Monte Carlo for the
empirical descent trend.  A check row reports its bound, the measured value,
and PASS/FAIL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .engine import run_monte_carlo, run_paired
from .objectives import QuadraticPayload, quadratic_objective
from .oracle import (
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


def _paired_config(seed: int, task: str = "rendezvous") -> ExperimentConfig:
    return ExperimentConfig(
        task=task, law="paired", mode="theorem", master_seed=seed
    ).validate()


def check_estimator(concave: bool = False, **_) -> list:
    """Enumerated expectation of the probe estimate equals the exact gradient
    on quadratics; on a quartic the leftover bias decays like c**2."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 12 // K + 1))
        H = random_spd_matrix(rng, d)
        x = rng.uniform(-1.0, 1.0, size=d)
        c = 10.0 ** rng.uniform(-3, 0)
        J = lambda v, P=QuadraticPayload(H): quadratic_objective(P, v)
        est = enumerate_expected_gradient(x, c, K, J)
        worst = max(worst, float(np.abs(est - 2.0 * H @ x).max()))
    results = [
        CheckResult(
            name="estimator-unbiased-quadratic",
            bound="max |E[g] - 2Hx| <= 1e-12",
            measured=f"{worst:.3e}",
            passed=worst <= 1e-12,
            note="100 enumerated quadratic instances",
        )
    ]

    x = np.array([1.0])
    J4 = lambda v: float(v[0] ** 4)
    ratios = []
    for c in (0.2, 0.1, 0.05):
        b1 = abs(enumerate_expected_gradient(x, c, 1, J4)[0] - 4.0)
        b2 = abs(enumerate_expected_gradient(x, c / 2, 1, J4)[0] - 4.0)
        ratios.append(b1 / b2)
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    results.append(
        CheckResult(
            name="estimator-bias-decay",
            bound="bias(c)/bias(c/2) in [3.5, 4.5]",
            measured=", ".join(f"{r:.3f}" for r in ratios),
            passed=ok,
            note="quartic objective, halving probe radius",
        )
    )
    return results


def check_variance(**_) -> list:
    """Variance of the K-probe mean is exactly 1/K of the single-probe
    variance, component by component."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        d = 2
        H = random_spd_matrix(rng, d)
        x = rng.uniform(-1.0, 1.0, size=d)
        c = 10.0 ** rng.uniform(-2, 0)
        J = lambda v, P=QuadraticPayload(H): quadratic_objective(P, v)
        var1 = enumerate_estimator_variance(x, c, 1, J)
        for K in (1, 2, 3, 4):
            varK = enumerate_estimator_variance(x, c, K, J)
            worst = max(worst, float(np.abs(varK - var1 / K).max()))
    return [
        CheckResult(
            name="variance-scaling",
            bound="max |Var_K - Var_1/K| <= 1e-12",
            measured=f"{worst:.3e}",
            passed=worst <= 1e-12,
            note="K in {1,2,3,4}, enumerated product space",
        )
    ]


def check_twice_speed_runs(seeds: int = 3, **_) -> list:
    """Paired runs: the single-stage law at t retraces the two-stage law at 2t."""
    worst_x = 0.0
    worst_j = 0.0
    for s in range(seeds):
        rec_bc, rec_pbc = run_paired(_paired_config(s))
        rep = check_twice_speed(rec_bc, rec_pbc)
        worst_x = max(worst_x, rep.max_state_deviation)
        worst_j = max(worst_j, rep.max_objective_deviation)
    return [
        CheckResult(
            name="twice-speed",
            bound="sup_t |x_pbc(t) - x_bc(2t)| <= 1e-6",
            measured=f"state {worst_x:.3e}, objective {worst_j:.3e}",
            passed=worst_x <= 1e-6 and worst_j <= 1e-6,
            note=f"{seeds} paired rendezvous seeds, 300 steps",
        )
    ]


def check_distance_runs(seeds: int = 3, **_) -> list:
    """Paired runs: the two-stage law never travels less, on any sample path."""
    worst = np.inf
    strict = 0
    for s in range(seeds):
        rec_bc, rec_pbc = run_paired(_paired_config(s))
        rep = check_distance_dominance(rec_bc, rec_pbc)
        worst = min(worst, rep.min_margin)
        strict += rep.final_margin > 0
    return [
        CheckResult(
            name="distance-dominance",
            bound="min_t (D_bc(2t) - D_pbc(t)) >= -1e-9",
            measured=f"min margin {worst:.3e}, strict at T {strict}/{seeds}",
            passed=worst >= -1e-9,
            note="path-wise comparison on shared sample paths",
        )
    ]


def check_k_step(concave: bool = False, **_) -> list:
    """Per-step probe-count ordering on the scalar enumeration instance."""
    x = np.array([1.0])
    if concave:
        J = lambda v: 10.0 - float(v[0]) ** 2
        rep = check_k_monotonicity(x, 0.1, 0.5, (1, 2, 3), J, direction="concave")
        strict = rep.cost_values[0] < rep.cost_values[1] < rep.cost_values[2]
        return [
            CheckResult(
                name="k-step-ordering",
                bound="E[J(next)] strictly increasing in K",
                measured=", ".join(f"{v:.6f}" for v in rep.cost_values),
                passed=bool(rep.verdict) and strict,
                note="concave instance; reversed ordering expected",
            )
        ]
    J = lambda v: float(v[0]) ** 2
    rep = check_k_monotonicity(x, 0.1, 0.5, (1, 2, 3), J, direction="convex")
    exact = (
        abs(rep.cost_values[0] - 0.6425) <= 1e-12
        and abs(rep.cost_values[1] - 0.64125) <= 1e-12
    )
    strict = rep.cost_values[2] < rep.cost_values[1] < rep.cost_values[0]
    d2 = rep.distance_values[2.0]
    strict_d = all(b < a for a, b in zip(d2, d2[1:]))
    return [
        CheckResult(
            name="k-step-ordering",
            bound="0.6425, 0.64125 exact; strictly decreasing",
            measured=", ".join(f"{v:.6f}" for v in rep.cost_values),
            passed=bool(rep.verdict) and exact and strict and strict_d,
            note="scalar quadratic, x=1, a=0.1, c=0.5",
        )
    ]


def check_k_multistep(trials: int = 20, **_) -> list:
    """More probes never hurt over a whole run of the convex quadratic task."""
    finals = []
    for K in (1, 3, 10):
        config = ExperimentConfig(
            task="quadratic", law="pbc", K=K, trials=trials, master_seed=11
        ).validate()
        res = run_monte_carlo(config)
        finals.append(float(res.stats.j_mean[-1]))
    slack = 1.02  # Monte Carlo noise allowance on an inequality of means
    ok = finals[1] <= finals[0] * slack and finals[2] <= finals[1] * slack
    return [
        CheckResult(
            name="k-multistep-ordering",
            bound="mean J(T) non-increasing in K (2% MC slack)",
            measured=", ".join(f"{v:.4e}" for v in finals),
            passed=ok,
            note=f"quadratic task, K in (1, 3, 10), {trials} trials",
        )
    ]


def check_descent(trials: int = 20, **_) -> list:
    """Objective traces trend downward on every task.

    The assignment objective is an unnormalized sum of squares; its stable
    step-size scale at nN = 30 is smaller, so that task runs with a matching
    (still valid) a0.
    """
    out = []
    for task, a0 in (("coverage", 2.0), ("rendezvous", 2.0), ("assignment", 0.2)):
        config = ExperimentConfig(
            task=task, law="pbc", K=1, trials=trials, master_seed=5, a0=a0
        ).validate()
        res = run_monte_carlo(config)
        frac = descent_fraction(np.stack([r.j_trace for r in res.records]))
        out.append(
            CheckResult(
                name=f"descent-{task}",
                bound="trailing-50 mean < leading-50 mean in >= 95%",
                measured=f"{frac:.2%}",
                passed=frac >= 0.95,
                note=f"{trials} trials",
            )
        )
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
    width = max(len(r.name) for r in results)
    lines = []
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        lines.append(f"{r.name:<{width}}  {status}  bound: {r.bound}")
        lines.append(f"{'':<{width}}        measured: {r.measured}")
        if r.note:
            lines.append(f"{'':<{width}}        note: {r.note}")
    lines.append("overall: " + ("PASS" if all_ok else "FAIL"))
    return "\n".join(lines) + "\n", all_ok
