"""The product path never builds a dense Fock state: the dense oracle is for the tests only."""

import pytest

from eamac import fock
from eamac import planner as pl
from eamac import region as rg
from eamac.channel import MacParams, ModulationConfig
from eamac.cli import main

P = MacParams(tau=0.6, kappa=0.7, n_b=0.8)
DENSE = ["FockDensity", "FockVector", "_thermal_loss_superop", "_hopping_block", "_beamsplitter_amplitudes"]
CHANNEL = dict(tau=0.5, kappa=0.5, n_b=1.0)
PLAN = dict(CHANNEL, n=10**6, delta=0.1, alpha=1e-2, beta=1e-2, s=1e-2)
CONFIGS = {
    "region": dict(CHANNEL, n_s=0.1),
    "plan": PLAN,
    "sweep": dict(PLAN, vary="s", start=0.001, stop=0.03, count=9),
    "budget": dict(CHANNEL, n=10**6, delta=0.1, alpha=1e-2, beta=1e-2, s=1e-2),
    "covert-rect": dict(CHANNEL, s=1e-3),
}


@pytest.fixture(autouse=True)
def no_dense_fock(monkeypatch):
    for name in DENSE:

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"the product path reached the dense Fock oracle: fock.{name}")

        monkeypatch.setattr(fock, name, refuse)


@pytest.mark.parametrize("psk_order", [64, 8])
def test_achievable_region(psk_order):
    region = rg.achievable_region(P, ModulationConfig(n_s=0.1), rg.RegionNumerics(psk_order=psk_order))
    assert region.sum_bound > 0.0


def test_planner_paths():
    assert rg.covert_rectangle(P, 1e-3).x_bound > 0.0
    assert pl.build_plan(10**6, 1e-2, 1e-2, 1e-2, P, delta=0.1).power > 0.0
    assert pl.relent_exact(P, 1e-2, 1e-2, 0.1, "bob", "joint").d > 0.0
    assert pl.willie_tv_mc(100, 0.1, 0.1, 0.05, P, samples=1000, seed=1).samples == 1000


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_cli_commands(command, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in CONFIGS[command].items()))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.txt")]) == 0
