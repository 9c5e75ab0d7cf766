"""The four benchmark workloads and how each drives the package.

Each workload calls one public entry point: ``run_and_write`` for the three
simulation workloads and ``run_verify`` for ``paired-verify``.  A call's
outputs are reduced to sha256 hashes of every file written (or of the
report text), which is what the golden and byte-identity gates compare.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import shutil
from dataclasses import dataclass
from time import perf_counter

OUT_ROOT = ".bench_out"
DEFAULT_SEED = 0
PAIRED_CHECKS = ("twice-speed", "distance")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: dict  # ExperimentConfig fields, or run_verify arguments
    tiny: dict  # the same at smoke-test size

    @property
    def is_verify(self) -> bool:
        return "checks" in self.full

    def params(self, tiny: bool) -> dict:
        return self.tiny if tiny else self.full


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rendezvous-mc",
            "many short PBC K=1 rendezvous trials on a 2-worker pool: sign drawing, "
            "per-step validation, pool shipping and aggregation dominate",
            full=dict(task="rendezvous", law="pbc", K=1, trials=50, steps=60, workers=2),
            tiny=dict(task="rendezvous", law="pbc", K=1, trials=4, steps=5, workers=2),
        ),
        Workload(
            "coverage-k10",
            "few long PBC K=10 coverage trials with trajectory CSVs: objective "
            "evaluation is ~95% of the time",
            full=dict(task="coverage", law="pbc", K=10, trials=2, steps=40, workers=1),
            tiny=dict(task="coverage", law="pbc", K=10, trials=2, steps=3, workers=1),
        ),
        Workload(
            "assignment-k1",
            "PBC K=1 assignment: the hungarian tie-break is ~90% of the time and "
            "every other layer is bypassed",
            full=dict(task="assignment", law="pbc", K=1, a0=0.2, trials=2, steps=40, workers=1),
            tiny=dict(task="assignment", law="pbc", K=1, a0=0.2, trials=1, steps=4, workers=1),
        ),
        Workload(
            "paired-verify",
            "run_verify's exact and paired checks, timed check by check: the only "
            "workload running the BC law and the enumeration oracles",
            full=dict(checks=("estimator", "variance", "k-step") + PAIRED_CHECKS, seeds=3),
            tiny=dict(checks=("k-step",) + PAIRED_CHECKS, seeds=1),
        ),
    )
}


def make_input(w: Workload, seed: int, tiny: bool = False, workers: int | None = None):
    """Build the workload's input from the benchmark seed.

    Simulation workloads take the seed as ``master_seed``.  ``run_verify``
    fixes its own seeds, so ``paired-verify`` reads the same input at every
    benchmark seed.
    """
    from broadcast_control import ExperimentConfig

    p = dict(w.params(tiny))
    if w.is_verify:
        return p
    config = ExperimentConfig(
        **p, master_seed=seed, out_dir=os.path.join(OUT_ROOT, w.name)
    ).validate()
    if workers is not None:
        config = dataclasses.replace(config, workers=workers)
    return config


def parts(w: Workload, inp) -> list:
    """The inputs a timed run calls in turn, one entry-point call each.

    ``run_verify`` runs its checks one after another, so ``paired-verify`` is
    timed check by check: shorter calls are less often hit by a slow stretch
    of the host.  A simulation call is one part.
    """
    if w.is_verify:
        return [dict(inp, checks=(name,)) for name in inp["checks"]]
    return [inp]


def setup_code(w: Workload, tiny: bool = False) -> str:
    """Source of a fresh interpreter's set-up: import, validate, build the spec."""
    if w.is_verify:
        fields = dict(task="rendezvous", law="paired", mode="theorem", master_seed=DEFAULT_SEED)
    else:
        fields = w.params(tiny)
    return (
        "import sys\n"
        "sys.path.insert(0, 'src')\n"
        "from broadcast_control import ExperimentConfig\n"
        f"ExperimentConfig(**{fields!r}).validate().objective_spec()\n"
    )


@dataclass
class Call:
    wall_s: float
    hashes: dict  # output name -> sha256 hex
    trials: int
    excluded: int
    checks: int
    failed_checks: int
    result: object  # MonteCarloResult or report text when kept, else None


def run_call(w: Workload, inp, keep_result: bool = False) -> Call:
    """Run the workload's entry point once; only the entry point is timed.

    The returned records are dropped unless ``keep_result`` is set, so that
    repeated calls do not hold memory that ``peak_rss_mb`` would count.  A
    garbage collection before the call starts every call from the same heap.
    """
    gc.collect()
    if w.is_verify:
        from broadcast_control.verify import run_verify

        t0 = perf_counter()
        report, _ = run_verify(list(inp["checks"]), seeds=inp["seeds"])
        wall = perf_counter() - t0
        rows = [
            line.split()[1]
            for line in report.splitlines()
            if not line.startswith((" ", "overall:"))
        ]
        paired = sum(c in PAIRED_CHECKS for c in inp["checks"])
        return Call(
            wall_s=wall,
            hashes={"verify_report.txt": _sha(report.encode())},
            trials=2 * paired * inp["seeds"],
            excluded=0,
            checks=len(rows),
            failed_checks=sum(r != "PASS" for r in rows),
            result=report if keep_result else None,
        )

    from broadcast_control import run_and_write

    out = inp.out_dir
    shutil.rmtree(out, ignore_errors=True)
    t0 = perf_counter()
    result = run_and_write(inp)
    wall = perf_counter() - t0
    hashes = {name: _sha(_normalized(out, name)) for name in sorted(os.listdir(out))}
    shutil.rmtree(out)
    return Call(
        wall_s=wall,
        hashes=hashes,
        trials=len(result.records) + len(result.excluded),
        excluded=len(result.excluded),
        checks=0,
        failed_checks=0,
        result=result if keep_result else None,
    )


def _normalized(out: str, name: str) -> bytes:
    """File bytes, minus the manifest's ``workers`` echo.

    ``workers`` is the one config value that must not change output bytes,
    so it is the one line the byte-identity gates may ignore.
    """
    with open(os.path.join(out, name), "rb") as fh:
        data = fh.read()
    if name == "manifest":
        data = b"".join(
            line for line in data.splitlines(keepends=True) if not line.startswith(b"workers = ")
        )
    return data


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
