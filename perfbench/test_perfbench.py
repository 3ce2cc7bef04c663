"""Self-tests of the benchmark's own logic.

Run from the checkout root:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
from collections import defaultdict

import pytest

import run

run.use_checkout()

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from eamac import region as rg  # noqa: E402
from eamac.channel import MacParams, ModulationConfig, effective_params  # noqa: E402
from eamac.cli import SCHEMAS, SWEEP_KEYS, parse_config  # noqa: E402

SMALL = rg.RegionNumerics(cutoff=12, psk_order=64, tail_tol=1e-6)
P_SMALL = MacParams(tau=0.3, kappa=0.5, n_b=0.4)
M_SMALL = ModulationConfig(n_s=0.1)


class Stub:
    """A workload whose operation returns a fixed output, or raises."""

    def __init__(self, output, checker, raises=False):
        self.output, self.checker, self.raises = output, checker, raises

    def op(self):
        if self.raises:
            raise RuntimeError("operation failed")
        return 0.5, 1, self.output

    def problems(self, output):
        return self.checker(output)


def take(stream, count):
    return [next(stream) for _ in range(count)]


class TestGenerators:
    def test_grid_points_repeat_for_a_seed(self, tmp_path):
        first = take(wl.RegionGrid(7, tmp_path).points, 12)
        assert first == take(wl.RegionGrid(7, tmp_path).points, 12)
        assert first != take(wl.RegionGrid(8, tmp_path).points, 12)

    def test_probe_points_differ_from_timed_points(self, tmp_path):
        grid = wl.RegionGrid(7, tmp_path)
        assert not set(map(str, take(grid.points, 16))) & set(map(str, take(grid.probes, 16)))

    def test_latin_block_covers_every_stratum(self):
        import numpy as np

        block = take(wl.latin_points(np.random.default_rng(3), {"a": (0.0, 1.0)}, block=8), 8)
        assert sorted(int(p["a"] * 8) for p in block) == list(range(8))

    def test_symmetric_configs_repeat_for_a_seed(self, tmp_path):
        def configs(seed):
            w = wl.RegionSymmetric(seed, tmp_path)
            return [w.config(next(w.points)) for _ in range(5)]

        assert configs(4) == configs(4)
        assert all(c["tau"] == 0.5 and 8 <= c["boundary_points"] <= 32 for c in configs(4))

    @pytest.mark.parametrize("vary", SWEEP_KEYS)
    def test_sweep_config_repeats_and_splits_at_its_share(self, vary):
        import numpy as np

        config = wl.sweep_config(np.random.default_rng(11), vary, rows=400)
        assert config == wl.sweep_config(np.random.default_rng(11), vary, rows=400)
        step = (config["stop"] - config["start"]) / (config["count"] - 1)
        feasible = sum(
            wl.weighted_ref(local) * local["s"] <= wl.budget_ref(local)
            for local in ({**config, vary: config["start"] + i * step} for i in range(config["count"]))
        )
        lo, hi = wl.SWEEP_SHARE
        assert lo - 0.01 <= feasible / config["count"] <= hi + 0.01

    def test_validate_seeds_repeat(self, tmp_path):
        def seeds(seed):
            w = wl.WardenValidate(seed, tmp_path)
            return [w.next_seed() for _ in range(3)]

        assert seeds(5) == seeds(5) != seeds(6)

    def test_superop_sharing_is_an_exact_count(self):
        asym = [effective_params(MacParams(0.3, 0.5, 1.0), M_SMALL, s, c) for s, c in wl.LINKS]
        sym = [effective_params(MacParams(0.5, 0.5, 1.0), M_SMALL, s, c) for s, c in wl.LINKS]
        assert wl.superop_hit_frac(asym) == 0.0
        assert wl.superop_hit_frac(sym) == 0.5


class TestFailuresCount:
    def region(self):
        return rg.achievable_region(P_SMALL, M_SMALL, SMALL)

    def test_correct_region_passes(self):
        reg = self.region()
        assert wl.region_problems(reg) == []
        for link in range(len(wl.LINKS)):
            assert wl.link_mi_problem(P_SMALL, M_SMALL, reg, link, SMALL) == []

    def test_perturbed_region_bound_fails(self):
        reg = self.region()
        wrong = dataclasses.replace(reg, x_bound=reg.x_bound * 1.05)
        assert wl.link_mi_problem(P_SMALL, M_SMALL, wrong, 0, SMALL)
        outcome = run.Outcome()
        outcome.operate(Stub(wrong, lambda r: wl.region_problems(r) + wl.link_mi_problem(P_SMALL, M_SMALL, r, 0, SMALL)))
        assert (outcome.attempted, outcome.failed, outcome.times) == (1, 1, [])

    def test_wrong_sweep_cell_fails(self, tmp_path):
        sweep = wl.CovertSweep(2, tmp_path, rows=30)
        _, _, output = sweep.op()
        assert sweep.problems(output) == []
        code, config, text = output
        lines = text.splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
        wrong = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
        assert sweep.problems((code, config, wrong))
        assert sweep.problems((code, config, "\n".join(lines[:-1]) + "\n"))
        assert sweep.problems((2, config, text))

    def test_region_record_checks(self):
        w = wl.RegionSymmetric.__new__(wl.RegionSymmetric)
        good = "x_bound = 0.1\ny_bound = 0.1\nvertex_0 = 0.0, 0.0\nvertex_1 = 0.1, 0.0\n"
        assert w.problems((0, {}, good)) == []
        assert w.problems((0, {}, good.replace("y_bound = 0.1", "y_bound = 0.1000001")))
        assert w.problems((4, {}, ""))

    def test_validate_report_checks(self):
        w = wl.WardenValidate.__new__(wl.WardenValidate)
        good = "check.willie_tv_mc = pass\ncheck.willie_tv_mc.detail = x\noverall = pass\n"
        assert w.problems((0, 1, good)) == []
        assert w.problems((0, 1, good.replace("overall = pass", "overall = FAIL")))
        assert w.problems((4, 1, good))

    def test_raising_operation_counts_as_failed(self):
        outcome = run.Outcome()
        outcome.operate(Stub(None, lambda r: [], raises=True))
        outcome.operate(Stub("ok", lambda r: []))
        assert (outcome.attempted, outcome.failed, len(outcome.times), outcome.work) == (2, 1, 1, 1)
        assert "operation failed" in outcome.problems[0]


class TestStatistics:
    def test_tail_is_the_named_percentile(self):
        times = [float(t) for t in range(100, 0, -1)]
        assert run.tail(times) == (90, pytest.approx(90.1, abs=1e-12))
        assert run.tail(times[:39]) is None

    @pytest.mark.parametrize("count, tail", [(19, None), (39, None), (40, 75), (100, 90), (199, 90), (200, 95), (1000, 99)])
    def test_tail_percentile_keeps_ten_samples_beyond(self, count, tail):
        assert run.tail_percentile(count) == tail


def test_command_configs_parse(tmp_path):
    import numpy as np

    sym = wl.RegionSymmetric(1, tmp_path)
    outputs = {
        "region-grid": (P_SMALL, M_SMALL, None),
        "region-symmetric": (0, sym.config(next(sym.points)), ""),
        "covert-sweep": (0, wl.sweep_config(np.random.default_rng(1), "tau", rows=10), ""),
        "warden-validate": (0, 1, ""),
    }
    for name, output in outputs.items():
        command, config = wl.WORKLOADS[name](1, tmp_path).command_config(output)
        parsed = parse_config(wl.write_config(tmp_path / f"{name}.cfg", config), SCHEMAS[command])
        assert {k: parsed[k] for k in config} == config


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    lay = layers.Layers(0, None)
    lay.tr.values = defaultdict(lambda: [1.0])
    assert set(lay.metrics(0.0)) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS) == set(run.WORKLOAD_NAMES)
