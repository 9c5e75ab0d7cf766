import dataclasses
import functools
import math
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import broadcast_control.controllers as controllers_mod
import broadcast_control.engine as engine_mod
import broadcast_control.state as state_mod
import reference
from broadcast_control.config import (
    EVERY_STEP,
    MODES,
    ONCE_AT_START,
    TASKS,
    ConfigError,
    ExperimentConfig,
)
from broadcast_control.engine import (
    DivergenceError,
    moving_distance,
    run_monte_carlo,
    run_paired,
    run_trial,
)
from broadcast_control.gains import gain_c
from broadcast_control.oracle import check_twice_speed
from broadcast_control.state import draw_block


def small_config(**kw) -> ExperimentConfig:
    base = dict(task="rendezvous", law="pbc", K=1, N=4, n=2, steps=20, trials=3,
                master_seed=7, formation_count=4)
    base.update(kw)
    return ExperimentConfig(**base)


def record_inputs(monkeypatch) -> list:
    """Collect the input ``u`` of every step, where the step laws apply it."""
    inputs = []
    original = controllers_mod.apply_input

    def recording(x, u):
        inputs.append(u.copy())
        return original(x, u)

    monkeypatch.setattr(controllers_mod, "apply_input", recording)
    return inputs


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
    assert np.array_equal(a.j_trace, b.j_trace)
    assert np.array_equal(a.d_trace, b.d_trace)


def test_run_trial_zero_steps():
    rec = run_trial(small_config(steps=0), 0)
    assert rec.states.shape[0] == 1
    assert rec.d_trace.tolist() == [0.0]
    assert rec.steps == 0
    assert rec.j_trace.shape == (1,)


def test_record_holds_only_the_states_and_traces():
    # what a pool ships back per trial: no input array or other per-step data
    rec = run_trial(ExperimentConfig(), 0)
    traces = rec.states.nbytes + rec.j_trace.nbytes + rec.d_trace.nbytes
    assert len(pickle.dumps(rec)) <= traces + 2048


def test_trials_differ():
    config = small_config()
    a = run_trial(config, 0)
    b = run_trial(config, 1)
    assert not np.array_equal(a.states, b.states)


def test_states_match_inputs_exactly(monkeypatch):
    inputs = record_inputs(monkeypatch)
    rec = run_trial(small_config(), 0)
    assert len(inputs) == rec.steps == 20
    for t in range(rec.steps):
        assert np.array_equal(rec.states[t + 1], rec.states[t] + inputs[t])


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


def test_run_paired_shares_initial_state_and_signs(monkeypatch):
    config = small_config(law="paired", mode="theorem", steps=10)
    inputs = record_inputs(monkeypatch)
    rec_bc, rec_pbc = run_paired(config, 0)
    inputs_bc = inputs[:20]  # the two-stage record runs first
    assert np.array_equal(rec_bc.states[0], rec_pbc.states[0])
    assert rec_bc.steps == 20
    assert rec_pbc.steps == 10
    assert len(inputs) == 30
    # even-step probe inputs equal c * (shared k=0 slice)
    sched = config.schedule()
    for tau in range(10):
        sigma = draw_block(config.master_seed, 0, tau, config.n, config.N, 1)[0]
        np.testing.assert_array_equal(
            inputs_bc[2 * tau], gain_c(sched, tau) * sigma
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
    assert check_twice_speed([run_paired(config, 0)]).max_state_deviation <= 1e-9


def test_single_trial_sd_zero():
    res = run_monte_carlo(small_config(trials=1))
    assert np.array_equal(res.stats.j_sd, np.zeros_like(res.stats.j_sd))
    assert np.array_equal(res.stats.d_sd, np.zeros_like(res.stats.d_sd))
    assert len(res.records) == 1


def test_forced_identical_randomness_gives_sd_zero(monkeypatch):
    # signs that ignore the trial index make trials degenerate
    monkeypatch.setattr(
        engine_mod,
        "draw_block",
        lambda seed, trial, t, n, N, K, horizon: draw_block(99, 0, t, n, N, K, horizon),
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
    config = ExperimentConfig(task="rendezvous", law="pbc", K=K, steps=60)
    run_trial(config, 0)
    chunk = max(1, 4096 // (K * config.n * config.N))
    assert 1 <= len(calls) <= math.ceil(60 / chunk)


@pytest.mark.parametrize(
    "law, mode, sign_steps",
    [("pbc", "figure", 3), ("bc", "figure", 2), ("bc", "theorem", 3)],
)
def test_short_trial_hashes_only_its_steps(monkeypatch, law, mode, sign_steps):
    # a trial shorter than a chunk hashes the signs of its own steps only, not
    # a whole 4096-sign chunk; BC draws on its even steps, of which it runs 3
    # (figure mode) or 6 (theorem mode) for steps = 3
    sizes = []
    hash_key = state_mod._hash_key

    def recording(*fields):
        h = hash_key(*fields)
        sizes.append(h.size)
        return h

    monkeypatch.setattr(state_mod, "_hash_key", recording)
    state_mod._sign_chunk.cache_clear()
    config = small_config(task="quadratic", law=law, n=1, N=2, steps=3, mode=mode)
    run_trial(config, 0)
    assert sizes == [sign_steps * config.n * config.N]


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
        )
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
        return lambda values: J(values[:-2])  # small_config has n = 2

    monkeypatch.setattr(engine_mod, "make_objective_fn", one_agent_short)
    with pytest.raises(ValueError, match="cannot reshape"):
        run_monte_carlo(small_config(trials=2))


def test_workers_do_not_change_results():
    config = small_config(trials=6, steps=10)
    serial = run_monte_carlo(config)
    parallel = run_monte_carlo(dataclasses.replace(config, workers=3))
    assert len(serial.records) == len(parallel.records) == 6
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


def test_two_trials_use_both_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(engine_mod, "_cpus", lambda: 8)  # whatever the host has
    job = functools.partial(_pid_after_rendezvous, tmp_path)
    pids, excluded = engine_mod._map_trials(job, small_config(trials=2, workers=2))
    assert excluded == []
    assert len(set(pids)) == 2


def _count_starts(monkeypatch) -> list:
    """The processes started from now on, as a list that grows."""
    import multiprocessing.process

    starts = []
    original = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        starts.append(self)
        return original(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return starts


@pytest.mark.parametrize("workers, trials, started", [(4, 1, 0), (3, 2, 2)])
def test_pool_has_no_more_workers_than_trials(monkeypatch, workers, trials, started):
    # a forked pool starts every worker at its first submit, so a worker
    # beyond the trial count was a process started for nothing; the CPU
    # count is stubbed above the workers, whatever the host has
    monkeypatch.setattr(engine_mod, "_cpus", lambda: 8)
    starts = _count_starts(monkeypatch)
    result = run_monte_carlo(small_config(trials=trials, workers=workers, steps=2))
    assert len(result.records) == trials
    assert len(starts) == started


@pytest.mark.parametrize("cpus, started", [(1, 0), (2, 2)])
def test_pool_has_no_more_workers_than_cpus(monkeypatch, cpus, started):
    # workers = 2**64 is a valid config; the pool is still bounded by the
    # CPUs the process may run on
    monkeypatch.setattr(engine_mod, "_cpus", lambda: cpus)
    starts = _count_starts(monkeypatch)
    result = run_monte_carlo(small_config(trials=3, workers=2**64, steps=2))
    assert len(result.records) == 3
    assert len(starts) == started


def test_run_trial_rejects_paired_and_invalid():
    with pytest.raises(ValueError):
        run_trial(small_config(law="paired"), 0)
    with pytest.raises(ConfigError):
        run_trial(ExperimentConfig(task="nope"), 0)


@st.composite
def _small_configs(draw):
    """A small config of either single law, and a trial index."""
    task = draw(st.sampled_from(TASKS))
    N = draw(st.integers(1, 4))
    n = 2 if task in ("rendezvous", "assignment") else draw(st.integers(1, 2))
    fields = dict(
        task=task,
        law=draw(st.sampled_from(("bc", "pbc"))),
        K=draw(st.integers(1, 10)),
        N=N,
        n=n,
        steps=draw(st.integers(0, 3)),
        mode=draw(st.sampled_from(MODES)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        smooth_min_eps=draw(st.sampled_from((None, -10.0, -1e3))),
        reassignment=draw(st.sampled_from((EVERY_STEP, ONCE_AT_START))),
        grid_spacing=draw(st.sampled_from((0.25, 0.1))),
        formation_count=draw(st.integers(1, 5)),
        # step sizes that overflow the objective, or the state itself, within
        # a step or two: a diverged trial
        a0=draw(st.sampled_from((2.0, 0.2, 1e300, 1e308))),
    )
    if draw(st.booleans()):
        # a drawn start, which with the radii below may sit in the barrier's
        # blend or beyond it
        fields["x0"] = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * N, max_size=n * N))
    if draw(st.booleans()):
        l1 = draw(st.floats(0.05, 2.0))
        fields.update(l1=l1, l2=l1 * draw(st.sampled_from((1.01, 1.5, 3.0))))
    return ExperimentConfig(**fields), draw(st.integers(0, 5))


# tenfold: small whole trials run every fast path at once, each of which is
# exact only by a rounding argument
@pytest.mark.tenfold
@given(_small_configs())
@settings(deadline=None)
def test_run_trial_matches_reference_trial(case):
    # the whole trial, every fast path at once: the states and the J and D
    # traces equal the plain loop's byte for byte, or both diverge at one step
    config, trial_index = case
    try:
        expected = reference.trial(config, trial_index)
    except reference.Diverged as err:
        with pytest.raises(DivergenceError) as got:
            run_trial(config, trial_index)
        assert got.value.step == err.step
        return
    record = run_trial(config, trial_index)
    got = (record.states, record.j_trace, record.d_trace)
    for array, want in zip(got, expected):
        assert array.shape == want.shape and array.tobytes() == want.tobytes()
