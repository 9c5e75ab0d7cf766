"""Tests of the benchmark itself: smoke runs, metric names, count identities.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from spans import self_times
from workloads import DEFAULT_SEED, WORKLOADS, make_input, parts, run_call

assert run._import_package()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def _units(rows) -> dict:
    return {row["name"]: row["unit"] for row in rows}


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced(name):
    result, notes, recorder = run.measure(name, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0, notes
    assert result["attempted"] >= 1 and recorder is None
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units(DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_counts(name):
    w = WORKLOADS[name]
    result, notes, recorder = run.measure(name, seed=3, seconds=0, trace=True, tiny=True)
    assert result["correct"], notes
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units(DECLARED["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.count_mismatches"] == 0
    assert recorder.spans and all(recorder.spans)

    if w.is_verify:
        # twice-speed and distance each run `seeds` pairs; a pair is a BC half
        # of 2T steps and a PBC half of T steps, T = 300 in run_verify
        pairs = 2 * w.tiny["seeds"]
        steps = 300
        assert m["engine.run_paired.calls"] == pairs
        assert m["objectives.J.calls"] == pairs * ((2 * steps + 1) + (steps * 2 + 1))
        assert m["oracle.J.calls"] > 0
        return
    p = w.tiny
    assert m["objectives.J.calls"] == p["trials"] * (p["steps"] * (p["K"] + 1) + 1)
    assert m["state.draw_block.calls"] == p["trials"] * p["steps"]
    assert m["config.objective_spec.calls"] == p["trials"]
    assert m["engine.run_trial.samples"] == p["trials"]
    if p["task"] == "assignment":
        assert m["objectives.hungarian.calls"] == m["objectives.J.calls"]
    else:
        assert m["objectives.hungarian.calls"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_golden_hashes_at_default_seed(name):
    w = WORKLOADS[name]
    call = run_call(w, make_input(w, DEFAULT_SEED))
    assert call.hashes == run._load_golden()[name]


def test_verify_parts_cover_the_full_call():
    w = WORKLOADS["paired-verify"]
    inp = make_input(w, DEFAULT_SEED, tiny=True)
    full = run_call(w, inp)
    split = [run_call(w, p) for p in parts(w, inp)]
    assert [p["checks"] for p in parts(w, inp)] == [(name,) for name in inp["checks"]]
    assert sum(c.trials for c in split) == full.trials
    assert sum(c.checks for c in split) == full.checks


def test_self_time_subtracts_child_coverage():
    spans = [
        ("a", 0.0, 10.0, -1, -1, ""),
        ("b", 1.0, 4.0, 0, -1, ""),
        ("c", 2.0, 3.0, 1, -1, ""),
        ("b", 5.0, 6.0, 0, -1, ""),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coverage-k10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
