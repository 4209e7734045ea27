"""The demos run end to end against the library in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the last stdout line of each demo; a demo missing here fails its test
LAST_LINES = {
    # features (1.5 s), then cdcl solves "tricky" in 410 s inside its 500 s slice
    "01_scenario_tour.py": "schedule on tricky: solved True in 411.5 s at step 2; PAR10 411.5, MCP 389.5",
    "02_selector_shootout.py": "baselines: SBS PAR10 1163.3, VBS PAR10 46.3",
    "03_ranking_systems.py": "best single system mean gap: 0.323",
    "04_seed_robustness.py": "  gap <= 0.2644: 82.50% of seeds",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_prints_its_pinned_last_line(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == LAST_LINES.get(demo.name)
