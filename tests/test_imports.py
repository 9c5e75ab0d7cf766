"""Importing the package, running the tasks and solving an assignment load
no scipy module: the first ``hungarian`` call loads scipy's compiled
assignment solver alone.  The process pool is loaded by the first
``workers > 1`` run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAZY = (
    "scipy",
    "scipy.optimize",
    "scipy.optimize._lsap",
    "multiprocessing",
    "concurrent.futures.process",
)

# each step prints the watched modules loaded so far, as one JSON line
SCRIPT = """
import json, sys

def loaded(step):
    names = {watch!r}
    print(json.dumps([step, [m for m in names if m in sys.modules]]))

import broadcast_control
loaded("import")

import numpy as np
from broadcast_control import ExperimentConfig, hungarian, run_and_write
from broadcast_control.verify import run_verify

for fields in (
    dict(task="rendezvous"),
    dict(task="coverage", grid_spacing=0.05),
    dict(task="quadratic"),
    dict(task="assignment", reassignment="every-step"),
):
    ExperimentConfig(**fields).objective_spec()
loaded("objective_spec")

run_and_write(
    ExperimentConfig(task="rendezvous", steps=5, trials=2, workers=1, out_dir={out!r})
)
loaded("run_and_write")

run_verify(["estimator", "variance", "k-step"])
loaded("run_verify")

hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
loaded("hungarian")
"""


def test_scipy_and_the_pool_load_on_first_use(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script = SCRIPT.format(watch=LAZY, out=str(tmp_path / "run"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    steps = dict(json.loads(line) for line in proc.stdout.splitlines())
    for step in ("import", "objective_spec", "run_and_write", "run_verify", "hungarian"):
        assert steps[step] == [], step
