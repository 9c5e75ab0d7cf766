"""Golden-byte gate: sha256 of every output file of short runs.

Each case runs ``steps = 20, trials = 3`` with trajectories retained, at
workers 1 and 2, and the hashes must equal ``golden_outputs.json``.  The
manifest is hashed without its ``workers`` line, the one value that must
not change output bytes.  Three ``verify`` reports are hashed as well.

The hashes change only when output bytes change on purpose; such a change
bumps ``package_version``.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
import hashlib
import json
import os
import sys

import pytest

from broadcast_control.cli import main
from broadcast_control.config import ExperimentConfig
from broadcast_control.engine import run_and_write

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")

BASE = dict(steps=20, trials=3, retain_trajectories="true", master_seed=7)
TASK_FIELDS = {
    "coverage": {},
    "rendezvous": {},
    "assignment": dict(a0=0.2),
    "quadratic": {},
}
LAW_FIELDS = {"bc": {}, "pbc": dict(K=3), "paired": {}}

CASES = {
    f"{task}-{law}": dict(task=task, law=law, **TASK_FIELDS[task], **LAW_FIELDS[law])
    for task in TASK_FIELDS
    for law in LAW_FIELDS
}
CASES.update(
    {
        "rendezvous-bc-theorem": dict(task="rendezvous", law="bc", mode="theorem"),
        "rendezvous-paired-theorem": dict(task="rendezvous", law="paired", mode="theorem"),
        "quadratic-paired-theorem": dict(task="quadratic", law="paired", mode="theorem"),
        "assignment-once-at-start": dict(
            task="assignment", law="pbc", a0=0.2, reassignment="once-at-start"
        ),
        "coverage-smooth-min": dict(task="coverage", law="pbc", K=2, smooth_min_eps=-100.0),
        "rendezvous-smooth-min": dict(task="rendezvous", law="pbc", K=2, smooth_min_eps=-100.0),
        "assignment-excluded": dict(task="assignment", law="pbc", a0=0.2, x0=(1e200,) * 30),
    }
)

VERIFY_CASES = {
    "verify-five-checks": [
        "--check", "estimator", "--check", "variance", "--check", "k-step",
        "--check", "twice-speed", "--check", "distance", "--seeds", "1",
    ],
    "verify-k-step-concave": ["--check", "k-step", "--concave"],
    "verify-k-multistep": ["--check", "k-multistep"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hashes(out: str) -> dict:
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name == "manifest":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith(b"workers = ")
            )
        hashes[name] = _sha(data)
    return hashes


def run_case(name: str, workers: int) -> dict:
    """Run one case into ``out/<name>`` under the current directory."""
    out = os.path.join("out", name)
    config = ExperimentConfig(**BASE, **CASES[name], out_dir=out)
    run_and_write(dataclasses.replace(config, workers=workers))
    return _hashes(out)


def verify_case(name: str) -> dict:
    out = os.path.join("out", name)
    main(["verify", *VERIFY_CASES[name], "--out", out])
    return _hashes(out)


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_run_outputs_match_golden(name, workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, workers) == _load()[name]


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert verify_case(name) == _load()[name]


def test_cases_cover_excluded_and_retained_outputs():
    golden = _load()
    assert sorted(golden) == sorted([*CASES, *VERIFY_CASES])
    assert set(golden["assignment-excluded"]) == {"manifest"}
    assert {"summary_bc.csv", "trajectory_bc_2.csv"} <= set(golden["rendezvous-paired"])
    assert "trajectory_2.csv" in golden["coverage-pbc"]


if __name__ == "__main__":
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for case in sorted(CASES):
            golden[case] = run_case(case, 1)
        for case in sorted(VERIFY_CASES):
            golden[case] = verify_case(case)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
