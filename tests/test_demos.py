import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demos 03 and 04 import their oracles from the top-level package, so they
# also check that the documented public names still exist
DEMOS = {
    "01_rendezvous_formation": "  PBC K=10       0.000003          8.572",
    "05_assignment": "optimal pairing: [1, 0, 2]",
    "03_twice_speed_pairing": "strictly positive margin at T    : 10/10 seeds",
    "04_probe_count_enumeration": "  2       0.6412500000       8.5587500000   0.04125000",
}


@pytest.mark.parametrize("script,expected", DEMOS.items(), ids=list(DEMOS))
def test_demo_runs(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{script}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
