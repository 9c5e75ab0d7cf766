"""Trajectory simulation, metrics, Monte Carlo aggregation, and run outputs.

A trial is fully determined by ``(config, trial_index)``: all randomness is
keyed, so reruns are bit-identical and trials may execute on any number of
workers.  Aggregation always happens in trial-index order, making parallel
and serial runs emit identical bytes.

Divergence (non-finite state or objective) excludes the trial from the
aggregate and is reported, rather than aborting the whole run: the barrier
objective makes divergence pathological, but a misconfigured run must not
poison the statistics silently.  Any other exception is a programming or
input error and propagates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._version import __version__
from .config import LAW_BC, LAW_PAIRED, LAW_PBC, ExperimentConfig
from .controllers import _checked_j, bc_step, pbc_step
from .objectives import make_objective_fn
from .state import SIGN_GENERATOR_ID, NonFiniteError, draw_block


class DivergenceError(RuntimeError):
    def __init__(self, trial: int, step: int, reason: str):
        super().__init__(f"trial {trial} diverged at step {step}: {reason}")
        self.trial = trial
        self.step = step
        self.reason = reason


@dataclass
class TrialRecord:
    """What one seeded run produced: the states and the J and D traces."""

    trial: int
    n: int
    N: int
    states: np.ndarray  # (T+1, nN)
    j_trace: np.ndarray  # (T+1,)
    d_trace: np.ndarray  # (T+1,)

    @property
    def steps(self) -> int:
        return self.j_trace.shape[0] - 1


@dataclass
class SummaryStats:
    """Per-time-step mean and standard deviation across trials.

    The SD uses the unbiased (n-1) denominator and is defined as zero for a
    single trial.
    """

    j_mean: np.ndarray
    j_sd: np.ndarray
    d_mean: np.ndarray
    d_sd: np.ndarray


@dataclass
class MonteCarloResult:
    stats: Optional[SummaryStats]
    records: list
    excluded: list  # (trial_index, reason) pairs


def moving_distance(inputs: np.ndarray, n: int) -> np.ndarray:
    """Cumulative total path length: ``D(t) = sum_{s<t} sum_i |u_i(s)|``.

    ``D(0) = 0`` and the trace is non-decreasing.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    steps = inputs.shape[0]
    per_agent = np.linalg.norm(inputs.reshape(steps, inputs.shape[1] // n, n), axis=2)
    d = np.empty(steps + 1)
    d[0] = 0.0
    np.cumsum(per_agent.sum(axis=1), out=d[1:])
    return d


def _horizon(config: ExperimentConfig, law: str) -> int:
    if law == LAW_BC and config.mode == "theorem":
        return 2 * config.steps
    return config.steps


def _simulate(
    config: ExperimentConfig,
    law: str,
    steps: int,
    trial_index: int,
) -> TrialRecord:
    sched = config.schedule()
    x = config.initial_state()
    nN = x.shape[0]

    states = np.empty((steps + 1, nN))
    inputs = np.empty((steps, nN))
    j_trace = np.empty(steps + 1)
    states[0] = x

    # BC draws a block on even steps only; each odd step reuses the signs
    # and the objective value of the even step before it
    sign_steps = (steps + 1) // 2 if law == LAW_BC else steps
    t = 0
    # overflow shows up as a non-finite state, objective value or assignment
    # cost, which is caught here and reported as the divergence, so numpy need
    # not warn; the once-at-start pairing is solved from x0 inside the guard
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            J = make_objective_fn(config.objective_spec())
            for t in range(steps):
                jx = _checked_j(J, x)
                j_trace[t] = jx
                if law == LAW_BC:
                    if t % 2 == 0:
                        sigma = draw_block(
                            config.master_seed, trial_index, t // 2,
                            config.n, config.N, 1, sign_steps,
                        )[0]
                        j_even = jx
                    x, u = bc_step(x, t, sched, sigma, j_even, jx)
                else:
                    block = draw_block(
                        config.master_seed, trial_index, t,
                        config.n, config.N, config.K, sign_steps,
                    )
                    x, u = pbc_step(x, t, sched, block, J, jx)
                inputs[t] = u
                states[t + 1] = x
            j_trace[steps] = _checked_j(J, x)
    except NonFiniteError as err:
        raise DivergenceError(trial_index, t, str(err)) from err

    return TrialRecord(
        trial=trial_index,
        n=config.n,
        N=config.N,
        states=states,
        j_trace=j_trace,
        d_trace=moving_distance(inputs, config.n),
    )


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Run one seeded trial of the configured law.

    Deterministic in ``(config, trial_index)``.  Raises ``DivergenceError``
    on non-finite state or objective.
    """
    if config.law == LAW_PAIRED:
        raise ValueError("run_trial runs a single law; use run_paired for pairs")
    return _simulate(config, config.law, _horizon(config, config.law), trial_index)


def run_paired(config: ExperimentConfig, trial_index: int = 0):
    """Run both laws on the identical sign stream and stair-stepped gains.

    Requires ``K = 1`` (the pairing is defined for a single perturbation).
    In theorem mode the two-stage law runs ``2T`` steps against ``T``
    single-stage steps, aligning ``x_bc(2t)`` with ``x_pbc(t)``; in figure
    mode both run ``T`` steps for same-axis plots.

    Returns ``(record_bc, record_pbc)``.
    """
    if config.K != 1:
        raise ValueError(f"paired runs require K = 1, got K = {config.K}")
    rec_bc = _simulate(config, LAW_BC, _horizon(config, LAW_BC), trial_index)
    rec_pbc = _simulate(config, LAW_PBC, config.steps, trial_index)
    return rec_bc, rec_pbc


def _aggregate(records: list) -> Optional[SummaryStats]:
    if not records:
        return None
    j = np.stack([r.j_trace for r in records])
    d = np.stack([r.d_trace for r in records])
    if len(records) == 1:
        j_sd = np.zeros(j.shape[1])
        d_sd = np.zeros(d.shape[1])
    else:
        j_sd = j.std(axis=0, ddof=1)
        d_sd = d.std(axis=0, ddof=1)
    return SummaryStats(
        j_mean=j.mean(axis=0),
        j_sd=j_sd,
        d_mean=d.mean(axis=0),
        d_sd=d_sd,
    )


def _trial_job(args):
    job, config, trial_index = args
    try:
        return job(config, trial_index), None
    except DivergenceError as err:
        return None, str(err)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_trials(job, config: ExperimentConfig):
    """Run ``job(config, i)`` for every trial index ``i``, in a process pool
    of ``min(config.workers, config.trials, _cpus())`` when that is more
    than 1.

    Returns the results of the finished trials in index order and the
    ``(trial_index, reason)`` pairs of the diverged ones.
    """
    jobs = [(job, config, i) for i in range(config.trials)]
    # a worker beyond the trial count would get no trial, one beyond the CPUs
    # would only wait for one, and a forked pool starts every worker at its
    # first submit
    workers = min(config.workers, config.trials, _cpus())
    if workers > 1:
        # imported here, not at module level: a workers = 1 run never loads
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # about four chunks per worker: every worker gets work even when
        # trials are few, and large runs still ship trials in batches
        chunksize = max(1, config.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_job, jobs, chunksize=chunksize))
    else:
        outcomes = map(_trial_job, jobs)
    results: list = []
    excluded: list = []
    for i, (result, err) in enumerate(outcomes):
        if err is None:
            results.append(result)
        else:
            excluded.append((i, err))
    return results, excluded


def run_monte_carlo(config: ExperimentConfig) -> MonteCarloResult:
    """Run ``config.trials`` independent trials and aggregate their traces.

    Trials are independent work units; with ``config.workers > 1`` they run in a
    process pool, and the aggregation is keyed by trial index so the result
    is identical at any worker count.  Diverged trials are excluded from the
    aggregate and reported in ``excluded``.
    """
    records, excluded = _map_trials(run_trial, config)
    return MonteCarloResult(
        stats=_aggregate(records), records=records, excluded=excluded
    )


# ---------------------------------------------------------------------------
# file outputs


def write_summary_csv(path: str, stats: SummaryStats) -> None:
    lines = ["t,J_mean,J_sd,D_mean,D_sd"]
    # one row per t; "%.17g" writes a Python float as format(v, ".17g") does
    cols = (stats.j_mean, stats.j_sd, stats.d_mean, stats.d_sd)
    rows = zip(*(c.tolist() for c in cols))
    lines.extend("%d,%.17g,%.17g,%.17g,%.17g" % (t, *v) for t, v in enumerate(rows))
    _write_lines(path, lines)


def write_trajectory_csv(path: str, record: TrialRecord) -> None:
    N, n = record.N, record.n
    lines = ["t,agent," + ",".join(f"x_{d + 1}" for d in range(n))]
    # one row per (t, agent), floats written as in write_summary_csv
    row = "%d,%d," + ",".join(["%.17g"] * n)
    coords = record.states.reshape(-1, n).tolist()
    lines.extend(row % (k // N, k % N, *c) for k, c in enumerate(coords))
    _write_lines(path, lines)


def write_manifest(
    path: str,
    config: ExperimentConfig,
    excluded: list,
    trajectories_written: int,
) -> None:
    """Echo every value that shaped the run.

    ``out_dir`` and ``workers`` are in the echo for completeness but do not
    affect output bytes; ``retain_trajectories`` selects which files exist,
    not their contents.
    """
    lines = ["# run manifest"]
    lines.extend(config.serialize().rstrip("\n").split("\n"))
    lines.append(f"generator = {SIGN_GENERATOR_ID}")
    lines.append(f"package_version = {__version__}")
    lines.append(f"excluded_trials = {len(excluded)}")
    for idx, reason in excluded:
        lines.append(f"excluded_trial_{idx} = {reason}")
    lines.append(f"trajectories_written = {trajectories_written}")
    _write_lines(path, lines)


def _write_lines(path: str, lines: list) -> int:
    """Write each line and a newline, in UTF-8 whatever the locale, as the CLI
    reads a manifest back.  Returns the count of characters written, never
    None, which the CLI's ``_or_unwritable`` reads as a failure."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        return fh.write("\n".join(lines) + "\n")


def _should_retain(config: ExperimentConfig) -> bool:
    if config.retain_trajectories == "true":
        return True
    if config.retain_trajectories == "false":
        return False
    return config.trials <= 10


def _write_set(
    out: str, tag: str, stats: Optional[SummaryStats], records: list, retain: bool
) -> int:
    """Write ``summary<tag>.csv`` and, when retained, ``trajectory<tag>_<trial>.csv``
    for each record.  Returns the number of trajectories written."""
    if stats is not None:
        write_summary_csv(os.path.join(out, f"summary{tag}.csv"), stats)
    if not retain:
        return 0
    for rec in records:
        write_trajectory_csv(os.path.join(out, f"trajectory{tag}_{rec.trial}.csv"), rec)
    return len(records)


def run_and_write(config: ExperimentConfig) -> MonteCarloResult:
    """Execute ``config`` and emit ``summary.csv``, retained trajectories,
    and the ``manifest`` into ``config.out_dir``.

    Paired law writes the single-stage summary as ``summary.csv`` and the
    two-stage partner as ``summary_bc.csv``.
    """
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    retain = _should_retain(config)

    written = 0
    if config.law == LAW_PAIRED:
        pairs, excluded = _map_trials(run_paired, config)
        recs_bc = [rb for rb, _ in pairs]
        written += _write_set(out, "_bc", _aggregate(recs_bc), recs_bc, retain)
        recs_pbc = [rp for _, rp in pairs]
        result = MonteCarloResult(_aggregate(recs_pbc), recs_pbc, excluded)
    else:
        result = run_monte_carlo(config)
    written += _write_set(out, "", result.stats, result.records, retain)
    write_manifest(os.path.join(out, "manifest"), config, result.excluded, written)
    return result
