"""The demos run end to end against the library in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scenario_tour_replays_its_schedule():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_scenario_tour.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # features (1.5 s), then cdcl solves "tricky" in 410 s inside its 500 s slice
    assert done.stdout.splitlines()[-1] == (
        "schedule on tricky: EvaluationOutcome(solved=True, time_used=411.5, achieved_value=None, solving_step=2)"
    )
