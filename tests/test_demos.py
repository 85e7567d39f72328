"""The demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# each demo and a line it prints near its end
DEMOS = {
    "01_reaction_blowup": "fit quality",
    "02_regime_atlas": "condition ledger",
    "03_barriers": "small-data barrier",
    "04_radial_oracle": "the oracle certifies blow-up",
    "05_transform": "blow-up scenario, the routes must agree",
    "06_cli_tour": "sweep.json",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the scratch directory 06_cli_tour makes under tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
