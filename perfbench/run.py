"""Benchmark of the broadcast-control package, driven through its public
entry points only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Run it from a checkout: it imports the package from ``src/`` beside this
directory and exits with code 2, printing no result, when that is missing.
``--trace 0`` times the untraced entry point and reports the end-to-end
metrics; ``--trace 1`` adds a traced ``workers = 1`` call and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any excluded trial,
failed check or output-hash mismatch makes ``correct`` false and the exit
code 1.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from spans import (
    LAYERS,
    ORACLE_CHECK,
    ORACLE_ENUMERATE,
    Recorder,
    calls_under,
    patched,
    self_times,
    totals,
)
from workloads import (
    DEFAULT_SEED,
    OUT_ROOT,
    WORKLOADS,
    make_input,
    parts,
    run_call,
    setup_code,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
MIN_CALLS = 3  # timed calls of each part per run, however short --seconds is
SETUP_REPS = 9  # fresh interpreters timed per run for setup_s

END_TO_END = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
VERIFY_NAMES = ("estimator", "variance", "k-step", "twice-speed", "distance")
PER_LAYER = {
    "state.draw_block.calls": "count",
    "state.draw_block.s": "s",
    "state.draw_block.share": "fraction",
    "state.apply_input.s": "s",
    "gains.calls": "count",
    "gains.s": "s",
    "controllers.pbc_local_input.s": "s",
    "controllers.pbc_broadcast.self_s": "s",
    "controllers.bc_step.self_s": "s",
    "objectives.J.calls": "count",
    "objectives.J.s": "s",
    "objectives.J.us_per_call": "us",
    "objectives.J.share": "fraction",
    "objectives.hungarian.calls": "count",
    "objectives.hungarian.s": "s",
    "objectives.hungarian.share": "fraction",
    "config.objective_spec.calls": "count",
    "config.objective_spec.s": "s",
    "engine.write.s": "s",
    "engine.write.bytes": "bytes",
    "engine.run_trial.ms_p50": "ms",
    "engine.run_trial.ms_tail": "ms",
    "engine.run_trial.tail_pct": "%",
    "engine.run_trial.samples": "count",
    "engine.simulate.self_s": "s",
    "engine.run_monte_carlo.self_s": "s",
    "engine.result.bytes": "bytes",
    "engine.run_paired.calls": "count",
    "engine.run_paired.s": "s",
    "oracle.enumerate.s": "s",
    "oracle.J.calls": "count",
    "oracle.check.s": "s",
    **{f"verify.{name}.s": "s" for name in VERIFY_NAMES},
    **{f"layer.{name}.share": "fraction" for name in LAYERS},
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
    "trace.count_mismatches": "count",
}
TAIL_PERMILLE = (999, 990, 950, 900, 750)


class Tally:
    """Attempts and failures: trials, checks and output-hash comparisons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def call(self, c) -> None:
        self.attempted += c.trials + c.checks
        self.failed += c.excluded + c.failed_checks
        if c.excluded or c.failed_checks:
            self.notes.append(f"{c.excluded} trial(s) excluded, {c.failed_checks} check(s) failed")

    def compare(self, what: str, got: dict, want: dict) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            self.notes.append(f"{what} output hashes differ: {', '.join(bad)}")


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run.

    Returns the result object, notes on each failure, and the recorder of
    the fastest traced call (``None`` when ``trace`` is false).
    """
    w = WORKLOADS[workload]
    tally = Tally()
    # Warm-up call at the default seed: fills caches and meets the golden gate.
    warm = run_call(w, make_input(w, DEFAULT_SEED, tiny))
    tally.call(warm)
    golden = None if tiny else _load_golden().get(w.name)
    if golden is not None:
        tally.compare("golden", warm.hashes, golden)

    if trace:
        metrics, recorder = _traced(w, seed, seconds, tiny, tally)
    else:
        metrics, recorder = _untraced(w, seed, seconds, tiny, tally), None
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, tally.notes, recorder


def _untraced(w, seed, seconds, tiny, tally) -> dict:
    inputs = parts(w, make_input(w, seed, tiny))
    calls = [[] for _ in inputs]  # the calls of each part
    deadline = perf_counter() + seconds
    while len(calls[0]) < MIN_CALLS or perf_counter() < deadline:
        for inp, done in zip(inputs, calls):
            done.append(run_call(w, inp))
            tally.call(done[-1])
    for done in calls:
        for c in done[1:]:
            tally.compare("repeated", c.hashes, done[0].hashes)
    # Read before the set-up interpreters run, so only the workload's
    # children (the trial pool) count.
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    fastest = [min(done, key=lambda c: c.wall_s) for done in calls]
    wall = sum(c.wall_s for c in fastest)
    values = {
        "wall_s": wall,
        "trials_per_s": sum(c.trials for c in fastest) / wall,
        "setup_s": statistics.median(_setup_times(w, tiny)),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def _setup_times(w, tiny) -> list:
    code = setup_code(w, tiny)
    times = []
    for _ in range(SETUP_REPS + 1):  # the first one compiles bytecode; untimed
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times[1:]


def _traced(w, seed, seconds, tiny, tally):
    ref = run_call(w, make_input(w, seed, tiny))
    tally.call(ref)
    inp = make_input(w, seed, tiny, workers=1)
    fastest_untraced = math.inf
    best = None  # (wall, metrics, recorder) of the fastest traced call
    mismatches = 0
    deadline = perf_counter() + seconds
    while best is None or perf_counter() < deadline:
        u = run_call(w, inp)
        tally.call(u)
        tally.compare("untraced workers=1", u.hashes, ref.hashes)
        fastest_untraced = min(fastest_untraced, u.wall_s)
        rec = Recorder()
        with patched(rec):
            t = run_call(w, inp, keep_result=True)
        tally.call(t)
        tally.compare("traced", t.hashes, ref.hashes)
        bad = count_mismatches(w, inp, rec, t)
        for line in bad:
            print(f"count identity: {line}", file=sys.stderr)
        mismatches += len(bad)
        if best is None or t.wall_s < best[0]:
            best = (t.wall_s, layer_metrics(rec, t), rec)
    wall, values, rec = best
    values["trace.overhead_frac"] = wall / fastest_untraced - 1.0
    values["trace.count_mismatches"] = mismatches
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, rec


def layer_metrics(rec: Recorder, call) -> dict:
    """Per-layer metrics of one traced call."""
    spans = rec.spans
    selfs = self_times(spans)
    tot = totals(spans, selfs)

    def calls(*names):
        return sum(tot[n][0] for n in names if n in tot)

    def incl(*names):
        return sum(tot[n][1] for n in names if n in tot)

    def excl(*names):
        return sum(tot[n][2] for n in names if n in tot)

    wall = call.wall_s
    gains = ("gains.gain_a", "gains.gain_c", "gains.bc_gains_at")
    enumerate_ = tuple(f"oracle.{n}" for n in ORACLE_ENUMERATE)
    checks = tuple(f"oracle.{n}" for n in ORACLE_CHECK)
    j_calls = calls("objectives.J")
    trial_ms = sorted(
        (end - start) * 1e3 for name, start, end, *_ in spans if name == "engine.run_trial"
    )
    tail = next((p for p in TAIL_PERMILLE if _beyond(len(trial_ms), p) >= 10), 500)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, s) in tot.items():
        layer_self[name.split(".", 1)[0]] += s
    m = {
        "state.draw_block.calls": calls("state.draw_block"),
        "state.draw_block.s": incl("state.draw_block"),
        "state.draw_block.share": incl("state.draw_block") / wall,
        "state.apply_input.s": incl("state.apply_input"),
        "gains.calls": calls(*gains),
        "gains.s": incl(*gains),
        "controllers.pbc_local_input.s": incl("controllers.pbc_local_input"),
        "controllers.pbc_broadcast.self_s": excl("controllers.pbc_broadcast"),
        "controllers.bc_step.self_s": excl("controllers.bc_step"),
        "objectives.J.calls": j_calls,
        "objectives.J.s": incl("objectives.J"),
        "objectives.J.us_per_call": incl("objectives.J") / j_calls * 1e6 if j_calls else 0.0,
        "objectives.J.share": incl("objectives.J") / wall,
        "objectives.hungarian.calls": calls("objectives.hungarian"),
        "objectives.hungarian.s": incl("objectives.hungarian"),
        "objectives.hungarian.share": incl("objectives.hungarian") / wall,
        "config.objective_spec.calls": calls("config.objective_spec"),
        "config.objective_spec.s": incl("config.objective_spec"),
        "engine.write.s": incl("engine.write"),
        "engine.write.bytes": rec.counts.get("engine.write.bytes", 0),
        "engine.run_trial.ms_p50": _percentile(trial_ms, 500),
        "engine.run_trial.ms_tail": _percentile(trial_ms, tail),
        "engine.run_trial.tail_pct": tail / 10.0,
        "engine.run_trial.samples": len(trial_ms),
        "engine.simulate.self_s": excl("engine.simulate"),
        "engine.run_monte_carlo.self_s": excl("engine.run_monte_carlo"),
        "engine.result.bytes": _result_bytes(call.result),
        "engine.run_paired.calls": calls("engine.run_paired"),
        "engine.run_paired.s": incl("engine.run_paired"),
        "oracle.enumerate.s": incl(*enumerate_),
        "oracle.J.calls": rec.counts.get("oracle.J.calls", 0),
        "oracle.check.s": incl(*checks),
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    for name in VERIFY_NAMES:
        m[f"verify.{name}.s"] = incl(f"verify.{name}")
    for name, s in layer_self.items():
        m[f"layer.{name}.share"] = s / wall
    return m


def _beyond(n: int, permille: int) -> int:
    """Samples strictly above the nearest-rank percentile."""
    return n - math.ceil(permille * n / 1000)


def _percentile(sorted_values: list, permille: int) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(permille * len(sorted_values) / 1000))
    return sorted_values[rank - 1]


def _result_bytes(result) -> int:
    """Pickled size of the returned trial records (what a pool ships back)."""
    records = getattr(result, "records", None)
    return 0 if records is None else len(pickle.dumps(records))


def count_mismatches(w, inp, rec: Recorder, call) -> list:
    """Exact objective-evaluation and sign-draw counts the laws imply.

    Every trial costs ``steps*(K+1) + 1`` evaluations under PBC and
    ``steps + 1`` under BC (``2T + 1`` for the theorem-mode half of a pair),
    and PBC draws one sign block per step.
    """
    spans = rec.spans
    out = []
    per_trial = calls_under(spans, "engine.simulate", "objectives.J")
    if len(per_trial) != call.trials:
        out.append(f"{len(per_trial)} traced trials, expected {call.trials}")
    for idx, got in per_trial.items():
        law, steps, K = spans[idx][5].split(":")
        steps, K = int(steps), int(K)
        want = steps + 1 if law == "bc" else steps * (K + 1) + 1
        if got != want:
            out.append(f"trial {spans[idx][4]} ({law}): {got} J calls, expected {want}")
    if not w.is_verify:
        n = collections.Counter(s[0] for s in spans)
        want = {
            "objectives.J": inp.trials * (inp.steps * (inp.K + 1) + 1),
            "state.draw_block": inp.trials * inp.steps,
        }
        if inp.task == "assignment":
            want["objectives.hungarian"] = n["objectives.J"]
        for name, expected in want.items():
            if n[name] != expected:
                out.append(f"{name}.calls = {n[name]}, expected {expected}")
    return out


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def write_golden() -> None:
    """Record the output hashes of every workload at the default seed."""
    golden = {}
    for w in WORKLOADS.values():
        c = run_call(w, make_input(w, DEFAULT_SEED))
        if c.excluded or c.failed_checks:
            raise SystemExit(f"{w.name}: refusing to record hashes of a failing run")
        golden[w.name] = c.hashes
    with open(GOLDEN, "w", newline="\n") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _import_package() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "broadcast_control", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import broadcast_control

    return os.path.dirname(os.path.dirname(broadcast_control.__file__)) == src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record output hashes at the default seed and exit")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if not _import_package():
        print(f"no broadcast_control package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.write_golden:
        write_golden()
        return 0

    os.makedirs(OUT_ROOT, exist_ok=True)
    result, notes, recorder = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if recorder is not None:
        recorder.write(os.path.join(OUT_ROOT, f"spans-{args.workload}.tsv"))
    for note in notes:
        print(f"FAILED: {note}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
