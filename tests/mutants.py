"""Mutant gate: the tests must catch a broken fast path, step-law kernel,
gain wiring, run statistic or judge.

Each text below is a fast path exact only by a rounding argument, the
arithmetic both step laws share, the engine's reading of the gains, which
only whole-trial tests see, the one path of a run statistic, or a judge of
a claim: an oracle's fold over pairs or a bound of ``verify``, which a
real run passes by a wide margin.  A wrong version of any of them can still
pass most tests.  Each mutant replaces one exact text of one source file, in
one of two copies of ``src/`` and ``tests/`` made once, and runs the tests
named for it there under the ``ci`` hypothesis profile; the file is restored
before that copy takes the next mutant.  The two copies run one mutant each
at a time, and the results print in the order of ``MUTANTS``.  Every named
test must fail.  The gate fails (exit 1) when a named test passes, or when a
mutant's text does not occur exactly once.

Run from anywhere, outside tier-1, since every mutant reruns tests::

    python tests/mutants.py

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the tree copies, and so the mutants under test at once: each runs pytest in
# its own process
COPIES = 2

# file under src/broadcast_control, the exact text, its replacement, and
# the pytest node ids that must fail
Mutant = namedtuple("Mutant", "name file old new tests")

_GOLDEN = "tests/test_golden.py::test_run_outputs_match_golden"
_REFERENCE_TRIAL = "tests/test_engine.py::test_run_trial_matches_reference_trial"
_BIT_FOR_BIT = "tests/test_controllers.py::test_step_law_matches_reference_bit_for_bit"
_PAIRED = "tests/test_oracle.py::test_paired_identities_hold_on_other_tasks[quadratic-2.0]"
_MARGIN = "margin = k_quad * quad + k_0"
_NEAR_TIES = "tests/test_objectives.py::test_hard_coverage_near_ties_bit_for_bit"
_ORACLE = "tests/test_oracle.py"
_WORST_PAIR = f"{_ORACLE}::test_paired_oracles_fold_a_worst_pair_that_is_not_last"
_VERIFY_GOLDEN = "tests/test_golden.py::test_verify_report_matches_golden"
_FIVE_CHECKS = f"{_VERIFY_GOLDEN}[verify-five-checks]"
_TWICE_SPEED_ROW = f"{_ORACLE}::test_twice_speed_row_fails_past_its_bound"
_DISTANCE_ROW = f"{_ORACLE}::test_distance_row_fails_past_its_bound"
_SLACK_ROW = f"{_ORACLE}::test_k_multistep_row_fails_past_its_slack"
_DESCENT_ROW = f"{_ORACLE}::test_descent_row_fails_below_its_bound"

MUTANTS = (
    Mutant(
        "coverage labels certified at one delta, not two",
        "objectives.py",
        "np.greater(self._gap, 2.0 * delta + slack",
        "np.greater(self._gap, 1.0 * delta + slack",
        (
            "tests/test_objectives.py::test_hard_coverage_reuses_labels_bit_for_bit",
            f"{_GOLDEN}[coverage-pbc-1]",
            _NEAR_TIES,
        ),
    ),
    Mutant(
        "coverage certificate without its rounding slack",
        "objectives.py",
        "slack = (4 * self._n + 32) * 2.0**-53 * scale + 2.0**-500",
        "slack = 0.0",
        (
            "tests/test_objectives.py::test_hard_coverage_scans_a_point_whose_gap_is_within_slack",
            _NEAR_TIES,
        ),
    ),
    Mutant(
        "hungarian certificate with a zero margin",
        "objectives.py",
        "W.diagonal().min() > 2.0 * tol + slack",
        "W.diagonal().min() > 0.0",
        ("tests/test_objectives.py::test_hungarian_certificate_against_runner_up_solves",),
    ),
    Mutant(
        "hungarian certificate without its overflow guard",
        "objectives.py",
        "if not M < 2.0**500:",
        "if not M < math.inf:",
        ("tests/test_objectives.py::test_hungarian_certificate_stops_at_its_overflow_guard[at]",),
    ),
    Mutant(
        "rendezvous certificate with a zero margin",
        "objectives.py",
        "scores <= scores[best] + margin",
        "scores <= scores[best]",
        (
            "tests/test_objectives.py::test_certified_rendezvous_matches_reference",
            "tests/test_objectives.py::test_certified_rendezvous_scans_only_near_ties",
        ),
    ),
    Mutant(
        "rendezvous margin without its 2N*x.x term",
        "objectives.py",
        _MARGIN,
        "margin = k_0",
        ("tests/test_objectives.py::test_certified_rendezvous_matches_reference",),
    ),
    Mutant(
        "rendezvous margin halved",
        "objectives.py",
        _MARGIN,
        "margin = 0.5 * (k_quad * quad + k_0)",
        ("tests/test_objectives.py::test_certified_rendezvous_scans_a_rival_within_the_margin",),
    ),
    Mutant(
        "rendezvous multiplying by 1/(N*N)",
        "objectives.py",
        'float(np.einsum("i,i->", err, err) / (N * N))',
        'float(np.einsum("i,i->", err, err) * (1 / (N * N)))',
        ("tests/test_objectives.py::test_certified_rendezvous_matches_reference",),
    ),
    Mutant(
        "apply_input testing only NaN",
        "state.py",
        "if not np.isfinite(out).all():",
        "if np.isnan(out).any():",
        ("tests/test_state.py::test_apply_input_errors", _REFERENCE_TRIAL),
    ),
    Mutant(
        "pbc_local_input multiplying by 1/K",
        "controllers.py",
        "acc /= K",
        "acc *= 1 / K",
        (
            "tests/test_controllers.py::test_pbc_local_input_matches_reference_bit_for_bit[3]",
            _REFERENCE_TRIAL,
        ),
    ),
    Mutant(
        "BC's odd step without the probe's cancellation",
        "controllers.py",
        "u = (-c) * sigma + pbc_local_input(",
        "u = pbc_local_input(",
        (f"{_BIT_FOR_BIT}[bc-odd]", "tests/test_controllers.py::test_bc_step_hand_trace"),
    ),
    Mutant(
        "the shared descent term ascending",
        "controllers.py",
        "acc *= -a",
        "acc *= a",
        (
            f"{_BIT_FOR_BIT}[bc-odd]",
            f"{_BIT_FOR_BIT}[pbc]",
            "tests/test_controllers.py::test_pbc_local_input_matches_reference_bit_for_bit[1]",
        ),
    ),
    Mutant(
        "PBC's gains a and c swapped",
        "engine.py",
        "pbc_step(x, a, c, block, J, jx)",
        "pbc_step(x, c, a, block, J, jx)",
        (_REFERENCE_TRIAL, f"{_GOLDEN}[rendezvous-pbc-1]", _PAIRED),
    ),
    Mutant(
        "BC's gains read at 2 * t",
        "engine.py",
        "controllers.bc_gains_at(config, t)",
        "controllers.bc_gains_at(config, 2 * t)",
        (_REFERENCE_TRIAL, f"{_GOLDEN}[rendezvous-bc-1]", _PAIRED),
    ),
    Mutant(
        "the trial SD with the biased denominator",
        "engine.py",
        "min(1, len(records) - 1)",
        "0",
        ("tests/test_engine.py::test_sd_uses_unbiased_denominator",),
    ),
    Mutant(
        "twice-speed keeping the last pair's state deviation",
        "oracle.py",
        "np.abs(rec_pbc.states - x_bc).max(initial=dev)",
        "np.abs(rec_pbc.states - x_bc).max(initial=0.0)",
        (_WORST_PAIR,),
    ),
    Mutant(
        "distance dominance keeping the last pair's least margin",
        "oracle.py",
        "least = margins.min(initial=least)",
        "least = margins.min(initial=np.inf)",
        (_WORST_PAIR,),
    ),
    Mutant(
        "distance dominance counting a tie at T as strict",
        "oracle.py",
        "strict += bool(margins[-1] > 0)",
        "strict += bool(margins[-1] >= 0)",
        (f"{_ORACLE}::test_distance_dominance_counts_a_tie_at_t_as_not_strict",),
    ),
    Mutant(
        "the twice-speed bound at 1e-3",
        "verify.py",
        "tol = 1e-6",
        "tol = 1e-3",
        (_TWICE_SPEED_ROW, _FIVE_CHECKS),
    ),
    Mutant(
        "the twice-speed state deviation judged strictly",
        "verify.py",
        "worst_x <= tol",
        "worst_x < tol",
        (_TWICE_SPEED_ROW,),
    ),
    Mutant(
        "the twice-speed objective deviation judged strictly",
        "verify.py",
        "worst_j <= tol",
        "worst_j < tol",
        (_TWICE_SPEED_ROW,),
    ),
    Mutant(
        "the distance bound at -1e-3",
        "verify.py",
        "floor = -1e-9",
        "floor = -1e-3",
        (_DISTANCE_ROW, _FIVE_CHECKS),
    ),
    Mutant(
        "the distance margin judged strictly",
        "verify.py",
        "rep.min_margin >= floor",
        "rep.min_margin > floor",
        (_DISTANCE_ROW,),
    ),
    Mutant(
        "the estimator bound at 1e-9",
        "verify.py",
        "tol, instances = 1e-12, 100",
        "tol, instances = 1e-9, 100",
        (f"{_ORACLE}::test_estimator_row_fails_past_its_bound", _FIVE_CHECKS),
    ),
    Mutant(
        "the k-multistep slack at 20%",
        "verify.py",
        "slack = 1.02",
        "slack = 1.2",
        (f"{_SLACK_ROW}[1.05-False]", f"{_VERIFY_GOLDEN}[verify-k-multistep]"),
    ),
    Mutant(
        "the k-multistep means judged strictly",
        "verify.py",
        "v <= u * slack",
        "v < u * slack",
        (f"{_SLACK_ROW}[1.02-True]",),
    ),
    Mutant(
        "the descent bound at 90%",
        "verify.py",
        "least, window = 0.95,",
        "least, window = 0.90,",
        (_DESCENT_ROW,),
    ),
    Mutant(
        "the descent fraction judged strictly",
        "verify.py",
        "passed=frac >= least",
        "passed=frac > least",
        (_DESCENT_ROW,),
    ),
    Mutant(
        "the descent windows of 10 steps",
        "oracle.py",
        "_DESCENT_WINDOW = 50",
        "_DESCENT_WINDOW = 10",
        (f"{_ORACLE}::test_descent_fraction",),
    ),
    Mutant(
        "the k-step orderings within 1e-3",
        "verify.py",
        "v <= u + 1e-12 * (1 + abs(u))",
        "v <= u + 1e-3 * (1 + abs(u))",
        (f"{_ORACLE}::test_k_step_fails_on_a_growing_kappa1_power[convex]",),
    ),
    Mutant(
        "the k-step costs within 1e-3",
        "verify.py",
        "abs(v - e) <= 1e-12",
        "abs(v - e) <= 1e-3",
        (f"{_ORACLE}::test_k_step_fails_a_cost_past_its_tolerance",),
    ),
    Mutant(
        "the variance check keeping only the last K",
        "verify.py",
        "worst = max(worst, float(np.abs(varK - var[0] / K).max()))",
        "worst = float(np.abs(varK - var[0] / K).max())",
        (_FIVE_CHECKS,),
    ),
    Mutant(
        "k-multistep over every trial, not the common ones",
        "verify.py",
        "_aggregate([r for r in records if r.trial in common])",
        "_aggregate(records)",
        (f"{_ORACLE}::test_k_multistep_compares_the_trials_finished_at_every_k",),
    ),
    Mutant(
        "the probe-count pass's distance powers swapped",
        "oracle.py",
        "step.sum(), (step * step).sum()",
        "(step * step).sum(), step.sum()",
        ("tests/test_oracle.py::test_expected_distance_power_quadratic_strict_decrease",),
    ),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
            "--hypothesis-profile=ci", *tests]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)


def check(mutant: Mutant, copy: Path) -> list:
    """What is wrong with ``mutant``'s catch: nothing when every named test fails."""
    path = copy / "src" / "broadcast_control" / mutant.file
    original = path.read_text()
    found = original.count(mutant.old)
    if found != 1:
        return [f"{mutant.old!r} occurs {found} times in {mutant.file}"]
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        proc = _pytest(copy, mutant.tests)
    finally:
        path.write_text(original)
    if proc.returncode not in (0, 1):  # a usage or collection error
        return [f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"]
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return [f"survived {test}" for test in mutant.tests if test not in failed]


def _timed_check(mutant: Mutant, copies: queue.Queue):
    """``check`` on a copy taken from ``copies`` and put back after: its
    problems and its wall time."""
    copy = copies.get()
    try:
        begun = time.perf_counter()
        return check(mutant, copy), time.perf_counter() - begun
    finally:
        copies.put(copy)


def main() -> int:
    start, survivors = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        copies: queue.Queue = queue.Queue()
        for i in range(COPIES):
            copy = Path(tmp) / str(i)
            _copy(copy)
            copies.put(copy)
        with ThreadPoolExecutor(COPIES) as pool:
            outcomes = pool.map(lambda mutant: _timed_check(mutant, copies), MUTANTS)
            for mutant, (problems, seconds) in zip(MUTANTS, outcomes):
                verdict = "caught" if not problems else "FAIL"
                print(f"{verdict:6} {seconds:6.1f} s  {mutant.name}", flush=True)
                for problem in problems:
                    print(f"       {problem}")
                survivors += bool(problems)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught, "
          f"{time.perf_counter() - start:.1f} s wall")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
