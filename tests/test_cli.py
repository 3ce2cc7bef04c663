"""Command-line interface: configs, formats, exit codes, determinism."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eamac
from eamac import fock
from eamac.cli import SCHEMAS, main


def write_config(path, **entries):
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(path)


REGION_BASE = dict(tau=0.5, kappa=0.5, n_b=1.0, n_s=0.1, cutoff=12, tail_tol=1e-6)
PLAN_BASE = dict(tau=0.5, kappa=0.5, n_b=1.0, n=10**6, delta=0.1, alpha=1e-2, beta=1e-2, s=1e-2)


def run(argv):
    return main(argv)


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", tau=0.5, bogus=1)
        assert run(["region", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", tau=0.5)
        assert run(["region", "--config", cfg]) == 2
        assert "missing required" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tau = 0.5\ntau = 0.6\n")
        assert run(["region", "--config", str(cfg)]) == 2

    def test_domain_violation_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **{**REGION_BASE, "kappa": 1.5})
        assert run(["region", "--config", str(cfg)]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["region", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_negative_seed_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **REGION_BASE)
        assert run(["region", "--config", cfg, "--seed", "-1"]) == 2


class TestRegionCommand:
    def test_record_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **REGION_BASE)
        out = tmp_path / "region.txt"
        assert run(["region", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "x_bound" in text and "vertex_0 = 0.0, 0.0" in text
        assert "config.tau = 0.5" in text and "# eamac" in text

    def test_no_signal_single_vertex(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **{**REGION_BASE, "n_s": 0.0})
        out = tmp_path / "r.txt"
        assert run(["region", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "vertex_0 = 0.0, 0.0" in text and "vertex_1" not in text

    def test_single_sender_zero_y_bound(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **{**REGION_BASE, "tau": 1.0})
        out = tmp_path / "r.txt"
        assert run(["region", "--config", cfg, "--out", str(out)]) == 0
        assert "y_bound = 0.0" in out.read_text()

    def test_svg_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **REGION_BASE)
        out = tmp_path / "r.svg"
        assert run(["region", "--config", cfg, "--out", str(out), "--format", "svg"]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "<polygon" in text

    def test_csv_not_supported(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **REGION_BASE)
        assert run(["region", "--config", cfg, "--format", "csv"]) == 2

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **REGION_BASE)
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert run(["region", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_region_rejects_small_output_cutoff_before_fock_work(tmp_path, monkeypatch, capsys):
    # n_b = 100 puts about 0.62 of the B output above cutoff 24; the check
    # needs no Kraus laws, so a raising stub shows no Fock work ran
    def no_fock_work(*args):
        raise AssertionError("Kraus laws built before the cutoff check")

    monkeypatch.setattr(fock, "_kraus_laws", no_fock_work)
    cfg = write_config(tmp_path / "c.cfg", tau=0.5, kappa=0.5, n_b=100.0, n_s=0.1)
    assert run(["region", "--config", cfg]) == 4
    assert "need d >=" in capsys.readouterr().err


def test_region_over_hot_environment_finishes(tmp_path):
    # a cold output (mean 1.1) over n_b = 100: the early check passes and the
    # region needs no environment cutoff
    cfg = write_config(tmp_path / "c.cfg", tau=1.0, kappa=0.99, n_b=100.0, n_s=0.1, cutoff=29)
    start = time.perf_counter()
    assert run(["region", "--config", cfg, "--out", str(tmp_path / "r.txt")]) == 0
    assert time.perf_counter() - start < 10.0


class TestRegionInputDomain:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("tail_tol", 0.0),
            ("tail_tol", "nan"),
            ("n_b", "nan"),
            ("n_b", "inf"),
            ("n_s", "nan"),
            ("boundary_points", -3),
            ("cutoff", 100000),
        ],
    )
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.cfg", **{**REGION_BASE, key: value})
        assert run(["region", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err


# a valid config of each planner command
PLANNER_BASES = {
    "budget": PLAN_BASE,
    "plan": PLAN_BASE,
    "sweep": dict(PLAN_BASE, vary="s", start=0.001, stop=0.03, count=9),
}


class TestPlannerInputDomain:
    @pytest.mark.parametrize(
        "command, key, value",
        [
            (command, key, value)
            for command in PLANNER_BASES
            for key, (conv, _) in SCHEMAS[command].items()
            if conv is float
            for value in ("nan", "inf", "-inf")
        ],
    )
    def test_non_finite_float_exits_2_naming_the_key(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path / "c.cfg", **{**PLANNER_BASES[command], key: value})
        assert run([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err

    @pytest.mark.parametrize("given", [("alpha",), ("alpha", "beta"), ("s",), ("beta", "s")])
    def test_budget_with_some_of_alpha_beta_s_exits_2(self, tmp_path, capsys, given):
        entries = dict(tau=0.5, kappa=0.5, n_b=1.0, n=10**6, delta=0.1)
        entries.update({k: 0.1 for k in given})
        cfg = write_config(tmp_path / "c.cfg", **entries)
        assert run(["budget", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert all(k in err.split("missing")[1] for k in ("alpha", "beta", "s") if k not in given)


class TestBudgetAndPlan:
    def test_budget_zero_delta(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", tau=0.5, kappa=0.5, n_b=1.0, n=100, delta=0.0)
        out = tmp_path / "b.txt"
        assert run(["budget", "--config", cfg, "--out", str(out)]) == 0
        assert "budget = 0.0" in out.read_text()

    def test_budget_feasibility_line(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", tau=0.5, kappa=0.5, n_b=1.0, n=10**6, delta=0.1,
            alpha=1e-2, beta=1e-2, s=1e-2,
        )
        out = tmp_path / "b.txt"
        assert run(["budget", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "power = 0.0001" in text and "feasible = true" in text

    def test_budget_and_plan_agree_inside_the_slack(self, tmp_path):
        # power = budget (1 + 5e-13): rounding-level excess, feasible for both
        cfg = write_config(tmp_path / "c.cfg", **{**PLAN_BASE, "s": 0.04353036746012655})
        budget_out, plan_out = tmp_path / "b.txt", tmp_path / "p.txt"
        assert run(["budget", "--config", cfg, "--out", str(budget_out)]) == 0
        assert run(["plan", "--config", cfg, "--out", str(plan_out)]) == 0
        budget_text, plan_text = budget_out.read_text(), plan_out.read_text()
        assert "feasible = true" in budget_text and "feasible = true" in plan_text
        for key in ("power", "budget"):
            line = next(l for l in budget_text.splitlines() if l.startswith(f"{key} = "))
            assert line in plan_text.splitlines()

    def test_plan_matches_library_rates(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **PLAN_BASE)
        out = tmp_path / "p.txt"
        assert run(["plan", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "log_m_x1 = 0.041666666666666664" in text
        assert "log_m_x2 = 69.07755278982135" in text
        assert "l_x = 9000" in text

    def test_plan_bits_flag_converts(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **PLAN_BASE)
        out = tmp_path / "p.txt"
        assert run(["plan", "--config", cfg, "--out", str(out), "--bits"]) == 0
        text = out.read_text()
        assert "units = bits" in text
        assert f"log_m_x1 = {0.041666666666666664 / math.log(2.0)!r}" in text

    def test_infeasible_plan_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **{**PLAN_BASE, "n": 100, "alpha": 0.5, "beta": 0.5, "s": 0.5})
        assert run(["plan", "--config", cfg]) == 3
        assert "covert-budget" in capsys.readouterr().err


class TestSweep:
    def _config(self, tmp_path, **overrides):
        entries = dict(PLAN_BASE, vary="s", start=0.001, stop=0.03, count=9)
        entries.update(overrides)
        return write_config(tmp_path / "s.cfg", **entries)

    def test_csv_shape(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0].startswith("s,budget,power,feasible")
        assert len(lines) == 10

    def test_workers_and_reruns_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        blobs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "4"), ("c.csv", "1")):
            out = tmp_path / name
            assert run(["sweep", "--config", cfg, "--out", str(out), "--seed", "3", "--workers", workers]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("vary, start, stop", [("s", 0.001, 0.03), ("alpha", 0.001, 0.9), ("delta", 0.02, 0.5)])
    def test_one_budget_evaluation_per_row(self, tmp_path, monkeypatch, vary, start, stop):
        # a feasible row's plan reuses the row's budget instead of solving Q^-1 again
        from eamac import planner

        calls = []

        def counted(p):
            calls.append(p)
            return q_inv(p)

        q_inv = planner.q_inv
        monkeypatch.setattr(planner, "q_inv", counted)
        cfg = self._config(tmp_path, vary=vary, start=start, stop=stop, count=25)
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().count(",true,") > 0
        assert len(calls) == 25

    def test_grid_cap(self, tmp_path):
        cfg = self._config(tmp_path, count=200001)
        assert run(["sweep", "--config", cfg]) == 2

    def test_bad_vary_key(self, tmp_path):
        cfg = self._config(tmp_path, vary="n")
        assert run(["sweep", "--config", cfg]) == 2


class TestValidate:
    def test_requires_seed(self, tmp_path):
        cfg = write_config(tmp_path / "v.cfg", samples=1000)
        assert run(["validate", "--config", cfg]) == 2

    def test_report_passes_and_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "v.cfg", samples=50000)
        blobs = []
        for name, workers in (("a.txt", "1"), ("b.txt", "4")):
            out = tmp_path / name
            assert run(["validate", "--config", cfg, "--out", str(out), "--seed", "123", "--workers", workers]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert b"overall = pass" in blobs[0]
        assert blobs[0].count(b"= pass") == 5


def test_cli_loads_no_scipy(tmp_path):
    # the runtime needs numpy only: neither the import nor a region or a
    # validate run loads any scipy module
    src_dir = str(Path(eamac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    region = write_config(tmp_path / "r.cfg", **REGION_BASE)
    validate = write_config(tmp_path / "v.cfg", samples=2000)
    probe = "; ".join([
        "import sys, eamac.cli as cli",
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(loaded())",
        f"assert cli.main(['region', '--config', {region!r}, '--out', {str(tmp_path / 'r.txt')!r}]) == 0",
        f"assert cli.main(['validate', '--config', {validate!r}, '--seed', '1', '--out', {str(tmp_path / 'v.txt')!r}]) == 0",
        "print(loaded())",
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "[]"]
