"""The narrative scripts in demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eamac

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_three_demos_found():
    assert [d.name for d in DEMOS] == ["covert_plan_demo.py", "oracle_crosschecks_demo.py", "rate_region_demo.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_0(demo):
    src_dir = str(Path(eamac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
