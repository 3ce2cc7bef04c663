"""The product path never loads the dense Fock oracle: ``eamac.fock`` and
``eamac.validate`` serve the tests and ``eamac validate`` only.  A region
loads no ``numpy.ma`` either, about 0.6 MB that ``np.unique`` imports.

One fresh interpreter runs this file as a script.  It makes the library
calls and runs the CLI commands below in order, and after each one it
records whether the call's own check held and which oracle modules are
loaded.  Each test reads its own entry of that report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eamac
from eamac import planner as pl
from eamac import region as rg
from eamac.channel import MacParams, ModulationConfig
from eamac.cli import main

ORACLE = ("eamac.fock", "eamac.validate")
P = MacParams(tau=0.6, kappa=0.7, n_b=0.8)
CHANNEL = dict(tau=0.5, kappa=0.5, n_b=1.0)
PLAN = dict(CHANNEL, n=10**6, delta=0.1, alpha=1e-2, beta=1e-2, s=1e-2)
CONFIGS = {
    "region": dict(CHANNEL, n_s=0.1),
    "plan": PLAN,
    "sweep": dict(PLAN, vary="s", start=0.001, stop=0.03, count=9),
    "budget": dict(CHANNEL, n=10**6, delta=0.1, alpha=1e-2, beta=1e-2, s=1e-2),
    "covert-rect": dict(CHANNEL, s=1e-3),
}


def probe(workdir) -> dict:
    """Run every product path in order: name -> (its check held, oracle modules loaded after it)."""
    report = {}

    def record(name, ok):
        report[name] = (bool(ok), [module for module in ORACLE if module in sys.modules])

    for psk_order in (64, 8):
        region = rg.achievable_region(P, ModulationConfig(n_s=0.1), rg.RegionNumerics(psk_order=psk_order))
        record(f"achievable_region[{psk_order}]", region.sum_bound > 0.0)
    record("regions_load_no_numpy_ma", "numpy.ma" not in sys.modules)
    checks = [
        rg.covert_rectangle(P, 1e-3).x_bound > 0.0,
        pl.build_plan(10**6, 1e-2, 1e-2, 1e-2, P, delta=0.1).power > 0.0,
        pl.relent_exact(P, 1e-2, 1e-2, 0.1, "bob", "joint").d > 0.0,
        pl.willie_tv_mc(100, 0.1, 0.1, 0.05, P, samples=1000, seed=1).samples == 1000,
    ]
    record("planner_paths", all(checks))
    for command, entries in sorted(CONFIGS.items()):
        cfg = Path(workdir) / f"{command}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        record(f"cli[{command}]", main([command, "--config", str(cfg), "--out", str(Path(workdir) / "out.txt")]) == 0)
    return report


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    src_dir = str(Path(eamac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    workdir = tmp_path_factory.mktemp("product_path")
    run = subprocess.run([sys.executable, __file__, str(workdir)], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("psk_order", [64, 8])
def test_achievable_region(report, psk_order):
    assert report[f"achievable_region[{psk_order}]"] == [True, []]


def test_regions_load_no_numpy_ma(report):
    # the finite-PSK branch once grouped its block sizes with np.unique
    assert report["regions_load_no_numpy_ma"] == [True, []]


def test_planner_paths(report):
    assert report["planner_paths"] == [True, []]


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_cli_commands(report, command):
    assert report[f"cli[{command}]"] == [True, []]


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1])))
