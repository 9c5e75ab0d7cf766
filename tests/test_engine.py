import dataclasses
import functools
import math
import os
import time

import numpy as np
import pytest

import broadcast_control.engine as engine_mod
import broadcast_control.state as state_mod
from broadcast_control.config import ConfigError, ExperimentConfig
from broadcast_control.engine import moving_distance, run_monte_carlo, run_paired, run_trial
from broadcast_control.gains import gain_c
from broadcast_control.state import draw_block


def small_config(**kw) -> ExperimentConfig:
    base = dict(task="rendezvous", law="pbc", K=1, N=4, n=2, steps=20, trials=3,
                master_seed=7, formation_count=4)
    base.update(kw)
    return ExperimentConfig(**base).validate()


def test_moving_distance_examples():
    d = moving_distance(np.array([[3.0, 4.0]]), n=2)
    assert np.array_equal(d, [0.0, 5.0])
    d = moving_distance(np.zeros((4, 6)), n=2)
    assert np.array_equal(d, np.zeros(5))
    assert moving_distance(np.zeros((0, 4)), n=2).tolist() == [0.0]


def test_moving_distance_non_decreasing(rng):
    d = moving_distance(rng.normal(size=(30, 8)), n=2)
    assert np.all(np.diff(d) >= 0)
    assert d[0] == 0.0


def test_bc_even_step_distance_increment():
    # the even probe moves every agent by c*sigma, adding sqrt(n)*N*c
    config = small_config(law="bc", steps=2)
    rec = run_trial(config, 0)
    c0 = gain_c(config.schedule(), 0)
    expected = math.sqrt(config.n) * config.N * c0
    assert rec.d_trace[1] - rec.d_trace[0] == pytest.approx(expected, rel=1e-12)


def test_run_trial_bit_identical():
    config = small_config()
    a = run_trial(config, 1)
    b = run_trial(config, 1)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.j_trace, b.j_trace)
    assert np.array_equal(a.d_trace, b.d_trace)


def test_run_trial_zero_steps():
    rec = run_trial(small_config(steps=0), 0)
    assert rec.states.shape[0] == 1
    assert rec.d_trace.tolist() == [0.0]
    assert rec.inputs.shape == (0, 8)


def test_trials_differ():
    config = small_config()
    a = run_trial(config, 0)
    b = run_trial(config, 1)
    assert not np.array_equal(a.states, b.states)


def test_states_match_inputs_exactly():
    rec = run_trial(small_config(), 0)
    for t in range(rec.steps):
        assert np.array_equal(rec.states[t + 1], rec.states[t] + rec.inputs[t])


def test_objective_evaluation_counts(monkeypatch):
    # one evaluation per state per step: K+1 for the virtual law (plus the
    # final trace point), one per step for the two-stage law
    counts = {"n": 0}
    original = engine_mod.make_objective_fn

    def counting(spec):
        J = original(spec)

        def wrapped(values):
            counts["n"] += 1
            return J(values)

        return wrapped

    monkeypatch.setattr(engine_mod, "make_objective_fn", counting)
    config = small_config(K=3, steps=10)
    run_trial(config, 0)
    assert counts["n"] == 10 * (3 + 1) + 1
    counts["n"] = 0
    run_trial(small_config(law="bc", steps=10), 0)
    assert counts["n"] == 10 + 1


def test_run_paired_shares_initial_state_and_signs():
    config = small_config(law="paired", mode="theorem", steps=10)
    rec_bc, rec_pbc = run_paired(config, 0)
    assert np.array_equal(rec_bc.states[0], rec_pbc.states[0])
    assert rec_bc.steps == 20
    assert rec_pbc.steps == 10
    # even-step probe inputs equal c * (shared k=0 slice)
    sched = config.schedule()
    for tau in range(10):
        sigma = draw_block(config.master_seed, 0, tau, config.n, config.N, 1)[0]
        np.testing.assert_array_equal(
            rec_bc.inputs[2 * tau], gain_c(sched, tau) * sigma
        )


def test_run_paired_requires_k1():
    with pytest.raises(ValueError):
        run_paired(small_config(law="pbc", K=2), 0)


def test_run_paired_figure_mode_same_horizon():
    rec_bc, rec_pbc = run_paired(small_config(law="paired", mode="figure", steps=12), 0)
    assert rec_bc.steps == 12
    assert rec_pbc.steps == 12


def test_twice_speed_small():
    config = small_config(law="paired", mode="theorem", steps=30)
    rec_bc, rec_pbc = run_paired(config, 0)
    dev = np.abs(rec_pbc.states - rec_bc.states[0:61:2]).max()
    assert dev <= 1e-9


def test_single_trial_sd_zero():
    res = run_monte_carlo(small_config(trials=1))
    assert np.array_equal(res.stats.j_sd, np.zeros_like(res.stats.j_sd))
    assert np.array_equal(res.stats.d_sd, np.zeros_like(res.stats.d_sd))
    assert res.stats.trials == 1


def test_forced_identical_randomness_gives_sd_zero(monkeypatch):
    # signs that ignore the trial index make trials degenerate
    monkeypatch.setattr(
        engine_mod,
        "draw_block",
        lambda seed, trial, t, n, N, K: draw_block(99, 0, t, n, N, K),
    )
    res = run_monte_carlo(small_config(trials=2))
    assert np.allclose(res.stats.j_sd, 0.0, atol=0.0)
    assert np.allclose(res.stats.d_sd, 0.0, atol=0.0)


@pytest.mark.parametrize("K", [1, 10])
def test_trial_hashes_signs_once_per_chunk(monkeypatch, K):
    # a trial's signs come from one hash call per chunk of
    # max(1, 4096 // (K*n*N)) steps, not one call per step
    calls = []
    hash_key = state_mod._hash_key

    def counting(*fields):
        calls.append(fields)
        return hash_key(*fields)

    monkeypatch.setattr(state_mod, "_hash_key", counting)
    state_mod._sign_chunk.cache_clear()
    config = ExperimentConfig(task="rendezvous", law="pbc", K=K, steps=60).validate()
    run_trial(config, 0)
    chunk = max(1, 4096 // (K * config.n * config.N))
    assert 1 <= len(calls) <= math.ceil(60 / chunk)


def test_sd_uses_unbiased_denominator():
    config = small_config(trials=3)
    res = run_monte_carlo(config)
    j = np.stack([r.j_trace for r in res.records])
    assert np.allclose(res.stats.j_sd, j.std(axis=0, ddof=1))


def test_divergent_trial_excluded_not_fatal():
    # a state or target far outside the float-safe range overflows the
    # quadratic objective, or the assignment cost matrix, to infinity on the
    # first evaluation; once-at-start solves its pairing from x0 at step 0
    cases = [
        dict(task="quadratic", N=4, x0=(1e200,) * 8),
        dict(task="assignment", N=2, x0=(1e200,) * 4),
        dict(task="assignment", N=2, targets=(1e200,) * 4),
        dict(task="assignment", N=2, x0=(1e200,) * 4, reassignment="once-at-start"),
    ]
    for fields in cases:
        config = ExperimentConfig(
            law="pbc", n=2, steps=5, trials=2, master_seed=3, **fields
        ).validate()
        res = run_monte_carlo(config)
        assert res.stats is None
        assert [idx for idx, _ in res.excluded] == [0, 1]
        for idx, reason in res.excluded:
            assert reason.startswith(f"trial {idx} diverged at step 0: ")


def _objective_from_values(monkeypatch, values):
    """Make every trial's objective return ``values`` call by call, then 1.0."""

    def make(spec):
        calls = iter(values)
        return lambda x: next(calls, 1.0)

    monkeypatch.setattr(engine_mod, "make_objective_fn", make)


def test_divergence_reported_at_first_non_finite_step(monkeypatch):
    # PBC K=1 evaluates J twice a step (base, then probe), so calls 6 and 7
    # are step 3.  A NaN objective ends the trial there; so does a finite
    # pair whose difference overflows, making the input and state infinite.
    config = small_config(trials=1, steps=10)
    _objective_from_values(monkeypatch, [1.0] * 6 + [float("nan")])
    (idx, reason), = run_monte_carlo(config).excluded
    assert idx == 0
    assert reason == "trial 0 diverged at step 3: objective evaluated to nan"

    _objective_from_values(monkeypatch, [1.0] * 6 + [-1e308, 1e308])
    res = run_monte_carlo(config)
    assert res.records == []
    assert res.excluded == [
        (0, "trial 0 diverged at step 3: collective state contains non-finite entries")
    ]


def test_objective_error_propagates_instead_of_excluding(monkeypatch):
    # an objective fed a state of the wrong layout fails with a plain
    # ValueError: a programming error, not a diverged trial
    original = engine_mod.make_objective_fn

    def one_agent_short(spec):
        J = original(spec)
        return lambda values: J(values[: -spec.n])

    monkeypatch.setattr(engine_mod, "make_objective_fn", one_agent_short)
    with pytest.raises(ValueError, match="cannot reshape"):
        run_monte_carlo(small_config(trials=2))


def test_workers_do_not_change_results():
    config = small_config(trials=6, steps=10)
    serial = run_monte_carlo(config)
    parallel = run_monte_carlo(dataclasses.replace(config, workers=3))
    assert serial.stats.trials == parallel.stats.trials == 6
    assert np.array_equal(serial.stats.j_mean, parallel.stats.j_mean)
    assert np.array_equal(serial.stats.j_sd, parallel.stats.j_sd)
    assert np.array_equal(serial.stats.d_mean, parallel.stats.d_mean)
    for a, b in zip(serial.records, parallel.records):
        assert np.array_equal(a.states, b.states)


def _pid_after_rendezvous(meeting_dir, config, trial_index):
    # Record this process and wait (bounded) until another trial has
    # recorded a different one, so a trial holds its worker while the other
    # trial is dispatched.
    (meeting_dir / f"{os.getpid()}-{trial_index}").touch()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if len({f.name.split("-")[0] for f in meeting_dir.iterdir()}) > 1:
            break
        time.sleep(0.01)
    return os.getpid()


def test_two_trials_use_both_workers(tmp_path):
    job = functools.partial(_pid_after_rendezvous, tmp_path)
    pids, excluded = engine_mod._map_trials(job, small_config(trials=2, workers=2))
    assert excluded == []
    assert len(set(pids)) == 2


def test_run_trial_rejects_paired_and_invalid():
    with pytest.raises(ValueError):
        run_trial(small_config(law="paired"), 0)
    with pytest.raises(ConfigError):
        run_trial(ExperimentConfig(task="nope"), 0)
