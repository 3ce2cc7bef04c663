"""Command-line interface: configs, formats, exit codes, determinism."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eamac
from eamac import region as rg
from eamac.cli import REQUIRED, SCHEMAS, SWEEP_KEYS, main


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

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        plain = write_config(tmp_path / "plain.cfg", **REGION_BASE)
        noted = tmp_path / "noted.cfg"
        body = "".join(f"  {k} = {v}\n\n" for k, v in REGION_BASE.items())
        noted.write_text(f"# canonical region\n\n{body}   \n  # trailing note\n")
        outs = [tmp_path / "plain.txt", tmp_path / "noted.txt"]
        for cfg, out in zip((plain, str(noted)), outs):
            assert run(["region", "--config", cfg, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_line_without_equals_exits_2_naming_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# header\ntau = 0.5\nkappa 0.5\n")
        assert run(["region", "--config", str(cfg)]) == 2
        assert f"config error: {cfg}:3: expected 'key = value', got 'kappa 0.5'" in capsys.readouterr().err

    def test_unconvertible_value_exits_2_naming_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **{**PLAN_BASE, "n": "ten"})
        assert run(["plan", "--config", cfg]) == 2
        assert "config error: config key 'n': invalid literal for int() with base 10: 'ten'" in capsys.readouterr().err

    def test_zero_workers_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **REGION_BASE)
        assert run(["region", "--config", cfg, "--workers", "0"]) == 2
        assert "config error: --workers must be an integer in [1, 64], got 0" in capsys.readouterr().err

    def test_workers_past_the_top_exit_2_before_the_suite(self, tmp_path, capsys, monkeypatch):
        # validate at 10^8 samples once started one thread per chunk, up to 1526
        from eamac import planner, validate

        monkeypatch.setattr(validate, "run_suite", lambda *args, **kwargs: pytest.fail("the suite ran"))
        cfg = write_config(tmp_path / "v.cfg", samples=10**8)
        workers = str(planner.MAX_WORKERS + 1)
        assert run(["validate", "--config", cfg, "--seed", "1", "--workers", workers]) == 2
        assert capsys.readouterr().err == f"config error: --workers must be an integer in [1, 64], got {workers}\n"


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

    def test_no_signal_boundary_is_empty(self, tmp_path):
        # the only vertex is the origin, so the boundary chain is empty
        cfg = write_config(tmp_path / "c.cfg", **{**REGION_BASE, "n_s": 0.0, "boundary_points": 5})
        out = tmp_path / "r.txt"
        assert run(["region", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "config.boundary_points = 5" in text and "vertex_0 = 0.0, 0.0" in text
        assert "boundary_0" not in text and "vertex_1" not in text

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

    @pytest.mark.parametrize(
        "command, entries", [("region", REGION_BASE), ("covert-rect", dict(tau=0.5, kappa=0.5, n_b=1.0, s=0.01))]
    )
    def test_svg_header_names_its_command(self, tmp_path, command, entries):
        cfg = write_config(tmp_path / "c.cfg", **entries)
        out = tmp_path / "r.svg"
        assert run([command, "--config", cfg, "--out", str(out), "--format", "svg"]) == 0
        header = out.read_text().split("<!--\n")[1].split("\n-->")[0].splitlines()
        assert header[1] == f"command = {command}"

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

    monkeypatch.setattr(rg, "_kraus_laws", no_fock_work)
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
            ("boundary_points", 100_001),
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

    @pytest.mark.parametrize("command", PLANNER_BASES)
    def test_overflowing_budget_exits_2_naming_n_b(self, tmp_path, capsys, command):
        # b (1 + b) overflows at the warden's background b = kappa n_b = 1.5e154
        cfg = write_config(tmp_path / "c.cfg", **{**PLANNER_BASES[command], "n_b": 3e154})
        assert run([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_b" in err

    @pytest.mark.parametrize("given", [("alpha",), ("alpha", "beta"), ("s",), ("beta", "s")])
    def test_budget_with_some_of_alpha_beta_s_exits_2(self, tmp_path, capsys, given):
        entries = dict(tau=0.5, kappa=0.5, n_b=1.0, n=10**6, delta=0.1)
        entries.update({k: 0.1 for k in given})
        cfg = write_config(tmp_path / "c.cfg", **entries)
        assert run(["budget", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert all(k in err.split("missing")[1] for k in ("alpha", "beta", "s") if k not in given)

    def test_budget_all_or_none_rule_comes_before_the_budget(self, tmp_path, capsys):
        # n = 0 fails the budget, which was computed before the rule was checked
        cfg = write_config(tmp_path / "c.cfg", tau=0.5, kappa=0.5, n_b=1.0, n=0, delta=0.1, alpha=0.1)
        assert run(["budget", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: budget needs all of alpha, beta, s or none; missing beta, s\n"

    @pytest.mark.parametrize("key, value", [("mu_bar", 5.0), ("epsilon", 7.0), ("mu_bar", 0.0), ("epsilon", 1.0)])
    def test_all_infeasible_sweep_checks_plan_parameters(self, tmp_path, capsys, key, value):
        # every row of s in [0.4, 0.5] is infeasible, so no row reaches build_plan's check
        cfg = write_config(tmp_path / "c.cfg", **{**PLANNER_BASES["sweep"], "start": 0.4, "stop": 0.5, key: value})
        assert run(["sweep", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {key} must lie in (0, 1), got {value}\n"


class TestBudgetAndPlan:
    def test_budget_zero_delta(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", tau=0.5, kappa=0.5, n_b=1.0, n=100, delta=0.0)
        out = tmp_path / "b.txt"
        assert run(["budget", "--config", cfg, "--out", str(out)]) == 0
        assert "budget = 0.0" in out.read_text()

    def test_budget_smallest_delta_writes_positive_zero(self, tmp_path):
        # (1 - 5e-324) / 2 rounds to 1/2, where the budget was written as -0.0
        cfg = write_config(tmp_path / "c.cfg", tau=0.5, kappa=0.5, n_b=1.0, n=10, delta=5e-324)
        out = tmp_path / "b.txt"
        assert run(["budget", "--config", cfg, "--out", str(out)]) == 0
        assert "\nbudget = 0.0\n" in out.read_text()

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

    @pytest.mark.parametrize("silent, sender", [("alpha", "x"), ("beta", "y")])
    def test_plan_with_a_silent_sender_gives_it_zero_rates(self, tmp_path, silent, sender):
        # alpha = 0 and beta = 0 are the ends of the covert line, feasible for budget and sweep
        cfg = write_config(tmp_path / "c.cfg", **{**PLAN_BASE, silent: 0.0})
        out = tmp_path / "p.txt"
        assert run(["plan", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        for name in (f"log_m_{sender}1", f"log_m_{sender}1_keys", f"log_m_{sender}2", f"ent_nats_{sender}"):
            assert f"{name} = 0.0" in lines
        assert f"l_{sender} = 0" in lines

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

    def test_sweep_from_a_silent_sender_prints_every_row(self, tmp_path):
        # a feasible alpha = 0 row once exited 2 where an infeasible one printed
        cfg = self._config(tmp_path, vary="alpha", start=0.0, stop=0.02, count=3)
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[-3:]]
        assert [row[0] for row in rows] == ["0.0", "0.01", "0.02"]
        assert all(row[3] == "true" for row in rows)
        assert rows[0][4] == "0.0"  # log_m_x1

    def test_grid_cap(self, tmp_path):
        cfg = self._config(tmp_path, count=200001)
        assert run(["sweep", "--config", cfg]) == 2

    def test_bad_vary_key(self, tmp_path):
        cfg = self._config(tmp_path, vary="n")
        assert run(["sweep", "--config", cfg]) == 2

    def test_overflowing_grid_step_exits_2_naming_start_and_stop(self, tmp_path, capsys):
        # (stop - start) / (count - 1) is inf, and the first point 0 * inf was nan
        cfg = self._config(tmp_path, start=-1e308, stop=1e308)
        assert run(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "start" in err and "stop" in err and "nan" not in err


class TestValidate:
    def test_requires_seed(self, tmp_path):
        cfg = write_config(tmp_path / "v.cfg", samples=1000)
        assert run(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("samples", [-1, 0, 10**8 + 1, 10**20])
    def test_samples_out_of_range_exit_2_before_the_suite(self, tmp_path, capsys, monkeypatch, samples):
        # 10^20 samples listed 1.5e15 chunk sizes (a MemoryError), 10^10 ran for hours
        from eamac import validate

        monkeypatch.setattr(validate, "run_suite", lambda *args, **kwargs: pytest.fail("the suite ran"))
        cfg = write_config(tmp_path / "v.cfg", samples=samples)
        assert run(["validate", "--config", cfg, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "samples" in err

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

    @pytest.mark.parametrize("to_file", [False, True])
    def test_failing_check_writes_full_report_and_exits_4(self, tmp_path, capsys, monkeypatch, to_file):
        from eamac import validate

        failing = validate.CheckResult("oracle", False, 2.5, 1.0, "measured above tolerance")
        monkeypatch.setattr(validate, "run_suite", lambda seed, samples, workers: [failing])
        cfg = write_config(tmp_path / "v.cfg", samples=1000)
        out = tmp_path / "v.txt"
        argv = ["validate", "--config", cfg, "--seed", "5"] + (["--out", str(out)] if to_file else [])
        assert run(argv) == 4
        captured = capsys.readouterr()
        report = out.read_text() if to_file else captured.out
        assert report.endswith(
            "check.oracle = FAIL\n"
            "check.oracle.measured = 2.5\n"
            "check.oracle.tolerance = 1.0\n"
            "check.oracle.detail = measured above tolerance\n"
            "overall = FAIL\n"
        )
        assert report.startswith("# eamac") and "seed = 5\n" in report
        assert captured.out == ("" if to_file else report)
        assert captured.err == "numerical failure: validation suite failed; see report\n"


# extreme finite config values, with in-range draws mixed in; the ints that
# size work stay small unless they are out of range
EXTREME_FLOAT = st.sampled_from([0.0, 5e-324, 1e308, -1e308]) | st.floats(1e-6, 1.0)
SMALL_INT = {"cutoff": 16, "psk_order": 64, "boundary_points": 20, "count": 12, "n": 10**9, "samples": 2000}
VALID_CONFIGS = {
    "region": REGION_BASE,
    "covert-rect": dict(tau=0.5, kappa=0.5, n_b=1.0, s=0.01),
    **PLANNER_BASES,
    "validate": dict(samples=1000),
}
# examples per command: each validate example also runs the suite's fixed checks
EXAMPLES = {"validate": 15}


def key_value(command, key):
    """(key, value) with the value extreme, in range, or None (left out) for an optional key."""
    conv, default = SCHEMAS[command][key]
    if conv is float:
        value = EXTREME_FLOAT
    elif conv is int:
        value = st.sampled_from([-1, 0, 10**20]) | st.integers(1, SMALL_INT[key])
    else:
        value = st.sampled_from(SWEEP_KEYS + ("n",))
    # validate's default of 10^6 samples takes a second, so samples is never left out
    return st.tuples(st.just(key), value if default is REQUIRED or key == "samples" else value | st.none())


def extreme_config(command):
    """A valid config of ``command`` with up to three of its keys redrawn by ``key_value``."""
    entry = st.sampled_from(sorted(SCHEMAS[command])).flatmap(lambda key: key_value(command, key))
    return st.lists(entry, max_size=3).map(lambda changes: {**VALID_CONFIGS[command], **dict(changes)})


def assert_exits_cleanly(command, config, bits, workdir):
    """cli.main exits 0, 2, 3 or 4, and on exit 0 every number it wrote is finite."""
    out = workdir / "out.txt"
    out.unlink(missing_ok=True)
    cfg = write_config(workdir / "c.cfg", **{k: v for k, v in config.items() if v is not None})
    argv = [command, "--config", cfg, "--out", str(out)] + ["--bits"] * bits
    code = run(argv + ["--seed", "1"] * (command == "validate"))
    assert code in (0, 2, 3, 4)
    if code == 0:
        for line in out.read_text().splitlines():
            key, sep, value = line.partition(" = ")
            for cell in value.split(", ") if sep else line.split(","):
                try:
                    number = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(number), line
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_property")


@pytest.mark.parametrize("command", ["region", "covert-rect", "budget", "plan", "sweep", "validate"])
def test_any_extreme_config_exits_cleanly(workdir, command):
    @settings(max_examples=EXAMPLES.get(command, 40), derandomize=True, database=None, deadline=5000)
    @given(config=extreme_config(command), bits=st.booleans())
    def exits_cleanly(config, bits):
        assert_exits_cleanly(command, config, bits, workdir)

    exits_cleanly()


@pytest.mark.parametrize(
    "command, config",
    [
        # 10^20 boundary points never finished before they were bounded
        ("region", {**REGION_BASE, "boundary_points": 10**20}),
        # b (1 + b) overflowed to a budget of inf with exit 0
        ("budget", dict(tau=0.5, kappa=0.5, n_b=3e154, n=100, delta=0.1)),
        # an n no float holds once ended in an OverflowError from sqrt(n), exit 1
        ("budget", dict(PLAN_BASE, n=10**400)),
        ("plan", dict(PLAN_BASE, n=10**400)),
        ("sweep", dict(PLAN_BASE, n=10**400, vary="s", start=0.001, stop=0.03, count=3)),
    ],
)
def test_extreme_config_examples_exit_2(workdir, command, config):
    assert assert_exits_cleanly(command, config, False, workdir) == 2


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


def test_cli_import_loads_no_thread_pool():
    # planner imports its thread pool where willie_tv_mc runs one; a fresh interpreter,
    # since the test process has loaded both modules already
    src_dir = str(Path(eamac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, eamac.cli; print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]"]
