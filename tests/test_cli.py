"""Command-line interface: configs, formats, exit codes, determinism."""

import math

import pytest

from eamac.cli import main


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
        ],
    )
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.cfg", **{**REGION_BASE, key: value})
        assert run(["region", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err


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
