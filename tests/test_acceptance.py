"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to watch the lines appear;
the heavy Monte Carlo fixtures are shared across criteria.
"""

import itertools
import math

import numpy as np
import pytest

from broadcast_control import (
    ExperimentConfig,
    check_distance_dominance,
    hungarian,
    run_monte_carlo,
)
from broadcast_control.cli import main
from broadcast_control.objectives import smooth_min
from broadcast_control.verify import (
    _descent_row,
    _distance_row,
    _pairs,
    _twice_speed_row,
    check_estimator,
    check_k_step,
    check_variance,
)

PAIRED_SEEDS = 100
TREND_TRIALS = 100


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:2d}] {status}: {detail}")


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def paired_runs():
    """100 paired rendezvous runs on the standard setup (theorem pairing),
    the pairs that ``verify``'s paired checks build."""
    return _pairs(PAIRED_SEEDS)


def _trend_mc(task: str, K: int, **overrides):
    config = ExperimentConfig(
        task=task, law="pbc", K=K, trials=TREND_TRIALS, master_seed=1000 + K,
        workers=2, **overrides,
    )
    return run_monte_carlo(config)


@pytest.fixture(scope="module")
def rendezvous_mc():
    return {K: _trend_mc("rendezvous", K) for K in (1, 3, 10)}


@pytest.fixture(scope="module")
def coverage_mc():
    return {K: _trend_mc("coverage", K) for K in (1, 3, 10)}


@pytest.fixture(scope="module")
def assignment_mc():
    # The assignment objective is an unnormalized sum of squares, so the
    # usual step sizes are unstable at nN = 30 (a(0) * 2 * nN >> 2); a
    # smaller, still-valid a0 matches the task scale.
    return _trend_mc("assignment", 1, a0=0.2)


# ---------------------------------------------------------------------------
# criteria


def _verify_rows(num: int, rows, own=()) -> None:
    """Report and assert the rows of one ``broadcast-control verify`` check,
    and the criterion's ``own`` bounds that no row states, as (text, held)."""
    ok = all(r.passed for r in rows) and all(held for _, held in own)
    detail = [f"{r.name} {r.measured} ({r.note})" for r in rows]
    detail += [f"{text}: {'yes' if held else 'no'}" for text, held in own]
    _report(num, ok, "; ".join(detail))
    for r in rows:
        assert r.passed, (r.name, r.bound, r.measured)
    for text, held in own:
        assert held, text


def test_criterion_1_twice_speed_equivalence(paired_runs):
    _verify_rows(1, [_twice_speed_row(paired_runs[:10])])


def test_criterion_2_distance_dominance(paired_runs):
    least, strict = check_distance_dominance(paired_runs)
    _verify_rows(
        2, [_distance_row(least, strict, len(paired_runs))],
        [(f"strict at T on >= 95 of {PAIRED_SEEDS}", strict >= 95)],
    )


def test_criterion_3_estimator_exactness():
    _verify_rows(3, check_estimator())


def test_criterion_4_variance_scaling():
    _verify_rows(4, check_variance())


def test_criterion_5_k_monotonicity_enumeration():
    _verify_rows(5, check_k_step() + check_k_step(concave=True))


def test_criterion_6_figure_trends(rendezvous_mc, coverage_mc):
    rd = {K: res.stats.d_mean[-1] for K, res in rendezvous_mc.items()}
    rj = {K: res.stats.j_mean[-1] for K, res in rendezvous_mc.items()}
    cd = {K: res.stats.d_mean[-1] for K, res in coverage_mc.items()}
    cj = {K: res.stats.j_mean[-1] for K, res in coverage_mc.items()}

    rend_d_ok = rd[10] < rd[3] < rd[1]
    rend_j_ok = rj[3] <= 1.05 * rj[1] and rj[10] <= 1.05 * rj[1]
    cov_d_ok = cd[10] < cd[3] < cd[1]
    band = max(cj.values()) / min(cj.values())
    cov_j_ok = band <= 1.2

    ok = rend_d_ok and rend_j_ok and cov_d_ok and cov_j_ok
    _report(
        6, ok,
        f"rendezvous D(300) K1/K3/K10 = {rd[1]:.2f}/{rd[3]:.2f}/{rd[10]:.2f}; "
        f"J(300) ratios K3 {rj[3] / rj[1]:.3f}, K10 {rj[10] / rj[1]:.3f}; "
        f"coverage D(300) = {cd[1]:.2f}/{cd[3]:.2f}/{cd[10]:.2f}; "
        f"coverage J band {band:.3f}",
    )
    assert rend_d_ok, rd
    assert rend_j_ok, rj
    assert cov_d_ok, cd
    assert cov_j_ok, cj


def test_criterion_7_empirical_convergence(rendezvous_mc, coverage_mc, assignment_mc):
    runs = {
        "rendezvous": rendezvous_mc[1],
        "coverage": coverage_mc[1],
        "assignment": assignment_mc,
    }
    rows, down = [], []
    for name, res in runs.items():
        traces = np.stack([r.j_trace for r in res.records])
        rows.append(_descent_row(name, traces))
        down.append((f"{name} median J down", np.median(traces[:, -1]) < np.median(traces[:, 0])))
    _verify_rows(7, rows, down)


def test_criterion_8_hungarian_optimality():
    rng = np.random.default_rng(8)
    checked = 0
    for N in range(2, 8):
        perms = np.array(list(itertools.permutations(range(N))))
        rows = np.arange(N)
        for _ in range(200):
            C = rng.uniform(size=(N, N))
            perm = hungarian(C)
            got = float(C[rows, perm].sum())
            best = float(C[rows, perms].sum(axis=1).min())
            assert got == best, (N, got, best)
            checked += 1
    _report(8, True, f"{checked} instances match exhaustive search cost exactly")


def test_criterion_9_smooth_min_bound():
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(10**5):
        size = int(rng.integers(1, 9))
        vals = rng.uniform(-20, 20, size=size)
        eps = -(10.0 ** rng.uniform(-3, 3))
        got = smooth_min(vals, eps)
        lo = math.log(size) / eps
        if not (lo <= got - vals.min() <= 0.0):
            violations += 1
    _report(9, violations == 0, f"{violations} bound violations in 1e5 draws")
    assert violations == 0


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("task = rendezvous\ntrials = 12\nsteps = 50\nmaster_seed = 4\n")
    outputs = {}
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / tag
        code = main([
            "run", "--config", str(cfg), "--out", str(out),
            "--workers", workers, "--retain-trajectories",
        ])
        assert code == 0
        blobs = {}
        for name in sorted(p.name for p in out.iterdir()):
            with open(out / name, "rb") as fh:
                data = fh.read()
            if name == "manifest":
                data = b"\n".join(
                    line for line in data.split(b"\n")
                    if not line.startswith(b"out_dir")
                    and not line.startswith(b"workers")
                )
            blobs[name] = data
        outputs[tag] = blobs
    same_names = outputs["a"].keys() == outputs["b"].keys() == outputs["c"].keys()
    identical = same_names and all(
        outputs["a"][k] == outputs["b"][k] == outputs["c"][k] for k in outputs["a"]
    )
    _report(
        10, identical,
        f"{len(outputs['a'])} files byte-identical across reruns and worker counts",
    )
    assert identical
