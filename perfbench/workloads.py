"""The four benchmark workloads: seeded inputs, the timed operation, output checks.

Each workload draws its inputs from ``--seed`` only; ``eamac`` receives the
generated inputs and nothing else.  ``op()`` times one operation and returns
``(seconds, work_units, output)``; ``problems(output)`` runs the output
checks, outside the timed region, and returns a list of what failed.
"""

import math
from pathlib import Path
from statistics import NormalDist
from time import perf_counter

import numpy as np

from eamac import cli, fixtures, fock, planner
from eamac import region as rg
from eamac.channel import MacParams, ModulationConfig, effective_params
from eamac.errors import InfeasibleError

# achievable_region evaluates its links in this order; traced passes keep it
# so that the superoperator cache sees the same hit pattern
LINKS = (("x", True), ("y", True), ("x", False), ("y", False))

# criterion-7 parameter ranges and numerics; tail_tol 1e-5 keeps every point
# of the ranges inside the trace-deficit budget at cutoff 24
GRID_RANGES = {"tau": (0.05, 0.95), "kappa": (0.1, 0.9), "n_b": (0.2, 1.2), "n_s": (0.02, 0.3)}
GRID_NUMERICS = rg.RegionNumerics(cutoff=24, psk_order=64, tail_tol=1e-5)
# dense reference (fock.psk_ensemble_mi) minus region link MI is about -1e-4
# at tail_tol 1e-5 over the grid ranges: the truncated environment lowers the
# Fock conditional entropy.  A wrong MI of this size or larger is caught.
LINK_MI_TOL = 5e-4
LINK_CHECK_SHARE = 1.0 / 3.0

SYMMETRIC_CUTOFF = 32
SYMMETRIC_RANGES = {"kappa": (0.1, 0.9), "n_b": (0.2, 1.2), "n_s": (0.02, 0.3)}
SYMMETRIC_NUMERICS = rg.RegionNumerics(cutoff=SYMMETRIC_CUTOFF, psk_order=64)

SWEEP_ROWS = 10_000
SWEEP_CHECK_ROWS = 40
SWEEP_RTOL = 1e-12
# grid of each vary key; the signal photon number is solved so that the
# budget binds at the seeded feasible share of the grid
SWEEP_SPANS = {
    "tau": (0.05, 0.95),
    "kappa": (0.1, 0.9),
    "n_b": (0.2, 2.0),
    "alpha": (0.01, 0.9),
    "beta": (0.01, 0.9),
    "delta": (0.02, 0.5),
}
# keys whose larger values loosen the budget (feasible above the threshold)
SWEEP_FEASIBLE_ABOVE = ("kappa", "n_b", "delta")
SWEEP_SHARE = (0.68, 0.72)

VALIDATE_SAMPLES = 10**6
VALIDATE_WORKERS = 2


def latin_points(rng, ranges, block=8):
    """Endless stream of parameter dicts, Latin-hypercube stratified per block.

    Stratifying keeps the mix of cheap and costly points nearly the same from
    one seed to the next, so per-run medians do not depend on a lucky draw.
    """
    while True:
        cols = {}
        for key, (lo, hi) in ranges.items():
            u = (rng.permutation(block) + rng.random(block)) / block
            cols[key] = lo + u * (hi - lo)
        for i in range(block):
            yield {key: float(col[i]) for key, col in cols.items()}


def write_config(path, config) -> str:
    """Write a ``key = value`` config; str() of a float round-trips exactly."""
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    return str(path)


def link_mis(reg) -> list:
    """The four link MIs of a region, in LINKS order, recovered from its fields."""
    mi_x_unc = reg.sum_candidates[0] - reg.y_bound
    mi_y_unc = reg.sum_candidates[1] - reg.x_bound
    return [reg.x_bound, reg.y_bound, mi_x_unc, mi_y_unc]


def superop_hit_frac(effs) -> float:
    """Share of links whose (kappa_eff, n_t_eff) repeats an earlier link."""
    seen, hits = set(), 0
    for eff in effs:
        key = (eff.kappa_eff, eff.n_t_eff)
        hits += key in seen
        seen.add(key)
    return hits / len(effs)


def region_problems(reg) -> list:
    problems = []
    if any(vx < 0.0 or vy < 0.0 for vx, vy in reg.vertices):
        problems.append(f"negative vertex in {reg.vertices}")
    if not reg.sum_bound >= max(reg.sum_candidates):
        problems.append(f"sum_bound {reg.sum_bound!r} below max of {reg.sum_candidates}")
    x_top = max(vx for vx, _ in reg.vertices)
    y_top = max(vy for _, vy in reg.vertices)
    if x_top != min(reg.x_bound, reg.sum_bound) or y_top != min(reg.y_bound, reg.sum_bound):
        problems.append(f"vertices {reg.vertices} disagree with bounds {reg.constraints()}")
    return problems


def link_mi_problem(p, m, reg, link: int, numerics=GRID_NUMERICS, tol=LINK_MI_TOL) -> list:
    """Compare one link MI of ``reg`` with the independent dense route."""
    eff = effective_params(p, m, *LINKS[link])
    ref = fock.psk_ensemble_mi(eff, numerics.psk_order, numerics.cutoff, tail_tol=numerics.tail_tol)
    got = link_mis(reg)[link]
    if not abs(got - ref) <= tol:
        return [f"link {LINKS[link]} MI {got!r} vs psk_ensemble_mi {ref!r} (tol {tol})"]
    return []


def golden_problems() -> list:
    """The region_canonical golden record at its working cutoff and tolerance."""
    rec = fixtures.load_fixtures()["region_canonical"]
    p = MacParams(tau=rec["tau"], kappa=rec["kappa"], n_b=rec["n_b"])
    reg = rg.achievable_region(p, ModulationConfig(n_s=rec["n_s"]), rg.RegionNumerics(cutoff=int(rec["cutoff"]), psk_order=64))
    return [
        f"golden {key} {getattr(reg, key)!r} vs {rec[key]!r}"
        for key in ("x_bound", "y_bound", "sum_bound")
        if not abs(getattr(reg, key) - rec[key]) <= rec["tolerance"]
    ]


def parse_record(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not line.startswith("#"):
            out[key] = value
    return out


class RegionGrid:
    """Library achievable_region at cutoff 24 over distinct asymmetric channels."""

    name = "region-grid"
    labels = ("region_s.p50", "regions_per_s")
    checks_golden = True

    def __init__(self, seed: int, workdir: Path):
        self.points = latin_points(np.random.default_rng([seed, 0]), GRID_RANGES)
        self.probes = latin_points(np.random.default_rng([seed, 1]), GRID_RANGES)
        self.pick = np.random.default_rng([seed, 2])
        self.numerics = GRID_NUMERICS
        self.done = 0

    @staticmethod
    def split(point):
        p = MacParams(tau=point["tau"], kappa=point["kappa"], n_b=point["n_b"])
        return p, ModulationConfig(n_s=point["n_s"])

    def next_probe(self):
        return self.split(next(self.probes))

    def op(self):
        p, m = self.split(next(self.points))
        t0 = perf_counter()
        reg = rg.achievable_region(p, m, self.numerics)
        return perf_counter() - t0, 1, (p, m, reg)

    def command_config(self, output):
        """The ``eamac region`` config of the same point (the library call reads none)."""
        p, m, _ = output
        return "region", {
            "tau": p.tau, "kappa": p.kappa, "n_b": p.n_b, "n_s": m.n_s,
            "cutoff": self.numerics.cutoff, "psk_order": self.numerics.psk_order, "tail_tol": self.numerics.tail_tol,
        }

    def problems(self, output) -> list:
        p, m, reg = output
        found = region_problems(reg)
        check_link = self.pick.random() < LINK_CHECK_SHARE or self.done == 0
        link = int(self.pick.integers(len(LINKS)))
        if check_link:
            found += link_mi_problem(p, m, reg, link, self.numerics)
        self.done += 1
        return found


class RegionSymmetric:
    """``eamac region`` at cutoff 32 with tau = 0.5 and boundary points."""

    name = "region-symmetric"
    labels = ("region_s.p50", "regions_per_s")
    checks_golden = False

    def __init__(self, seed: int, workdir: Path):
        self.points = latin_points(np.random.default_rng([seed, 0]), SYMMETRIC_RANGES)
        self.probes = latin_points(np.random.default_rng([seed, 1]), SYMMETRIC_RANGES)
        self.boundary = np.random.default_rng([seed, 2])
        self.workdir = workdir
        self.numerics = SYMMETRIC_NUMERICS

    def config(self, point) -> dict:
        return {
            "tau": 0.5,
            **point,
            "cutoff": SYMMETRIC_CUTOFF,
            "psk_order": 64,
            "boundary_points": int(self.boundary.integers(8, 33)),
        }

    def next_probe(self):
        point = next(self.probes)
        return MacParams(tau=0.5, kappa=point["kappa"], n_b=point["n_b"]), ModulationConfig(n_s=point["n_s"])

    def op(self):
        config = self.config(next(self.points))
        path = write_config(self.workdir / "region.cfg", config)
        out = self.workdir / "region.txt"
        t0 = perf_counter()
        code = cli.main(["region", "--config", path, "--out", str(out)])
        seconds = perf_counter() - t0
        return seconds, 1, (code, config, out.read_text() if code == 0 else "")

    @staticmethod
    def command_config(output):
        return "region", output[1]

    def problems(self, output) -> list:
        code, config, text = output
        if code != 0:
            return [f"exit code {code} for {config}"]
        rec = parse_record(text)
        found = []
        if rec.get("x_bound") is None or float(rec["x_bound"]) != float(rec["y_bound"]):
            found.append(f"x_bound {rec.get('x_bound')} != y_bound {rec.get('y_bound')}")
        vertices = [tuple(map(float, v.split(","))) for k, v in rec.items() if k.startswith("vertex_")]
        if not vertices or any(vx < 0.0 or vy < 0.0 for vx, vy in vertices):
            found.append(f"bad vertices {vertices}")
        return found


def q_inv_ref(prob: float) -> float:
    """Inverse normal upper tail, independent of eamac."""
    return NormalDist().inv_cdf(1.0 - prob)


def budget_ref(config: dict) -> float:
    kn = config["kappa"] * config["n_b"]
    coeff = 2.0 * math.sqrt(kn * (1.0 + kn)) / (1.0 - config["kappa"])
    return coeff * q_inv_ref((1.0 - config["delta"]) / 2.0) / math.sqrt(config["n"])


def weighted_ref(config: dict) -> float:
    return config["alpha"] * config["tau"] + config["beta"] * (1.0 - config["tau"])


def sweep_config(rng, vary: str, rows: int = SWEEP_ROWS) -> dict:
    """A sweep whose feasibility threshold falls at a seeded share of the grid.

    The threshold x* of the vary key is placed first; the signal photon number
    s (or, when s itself varies, the grid) is then solved so that the budget
    binds exactly at x*.  The budget is recomputed here without eamac.
    """
    share = float(rng.uniform(*SWEEP_SHARE))
    while True:
        config = {
            "tau": float(rng.uniform(0.2, 0.8)),
            "kappa": float(rng.uniform(0.2, 0.8)),
            "n_b": float(rng.uniform(0.5, 2.0)),
            "n": int(10 ** rng.integers(4, 9)),
            "delta": float(rng.uniform(0.05, 0.3)),
            "alpha": float(rng.uniform(0.05, 0.5)),
            "beta": float(rng.uniform(0.05, 0.5)),
            "s": 0.0,
            "mu_bar": 0.1,
            "epsilon": 0.05,
        }
        if vary == "tau":
            # power must change with tau for the threshold to exist
            config["alpha"] = float(rng.uniform(0.4, 0.6))
            config["beta"] = float(rng.uniform(0.02, 0.15))
        if vary == "s":
            x_star = budget_ref(config) / weighted_ref(config)
            start = 0.05 * x_star
            stop = start + (x_star - start) / share
        else:
            start, stop = SWEEP_SPANS[vary]
            if vary in SWEEP_FEASIBLE_ABOVE:
                x_star = stop - share * (stop - start)
            else:
                x_star = start + share * (stop - start)
            at_star = {**config, vary: x_star}
            config["s"] = budget_ref(at_star) / weighted_ref(at_star)
        config.update(vary=vary, start=float(start), stop=float(stop), count=rows)
        if _sweep_in_domain(config):
            return config


def _sweep_in_domain(config: dict) -> bool:
    """The spans lie inside their keys' domains; s must also lie in (0, 1)."""
    if config["vary"] == "s":
        return config["stop"] < 0.99
    return 0.0 < config["s"] < 0.99


def sweep_rows(text: str):
    """(column header, data rows) of a sweep CSV."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0], lines[1:]


def expected_row(config: dict, value: float) -> list:
    """Re-derive one sweep row from the library, as numbers (None = empty)."""
    local = {**config, config["vary"]: value}
    p = MacParams(tau=local["tau"], kappa=local["kappa"], n_b=local["n_b"])
    budget = planner.covert_budget(local["n"], local["delta"], p)
    try:
        plan = planner.build_plan(
            local["n"], local["alpha"], local["beta"], local["s"], p,
            delta=local["delta"], epsilon=local["epsilon"], mu_bar=local["mu_bar"],
        )
    except InfeasibleError:
        plan = None
    power = plan.power if plan else planner.weighted_power(local["alpha"], local["beta"], local["s"], p)
    rates = [v for _, v in plan.rates()] if plan else [None] * 9
    rect = rg.covert_rectangle(p, local["s"])
    return [value, budget, power, plan is not None] + rates + [rect.x_bound, rect.y_bound]


def row_problems(config: dict, row: str) -> list:
    cells = row.split(",")
    try:
        value = float(cells[0])
    except ValueError:
        return [f"unparsable row {row!r}"]
    want = expected_row(config, value)
    if len(cells) != len(want):
        return [f"row has {len(cells)} cells, expected {len(want)}: {row!r}"]
    for i, (cell, exp) in enumerate(zip(cells, want)):
        if isinstance(exp, bool):
            ok = cell == ("true" if exp else "false")
        elif exp is None:
            ok = cell == ""
        else:
            try:
                ok = math.isclose(float(cell), exp, rel_tol=SWEEP_RTOL, abs_tol=0.0)
            except ValueError:
                ok = False
        if not ok:
            return [f"column {i} of {row!r}: expected {exp!r}"]
    return []


class CovertSweep:
    """``eamac sweep`` of 10^4 rows with one worker, cycling the vary keys."""

    name = "covert-sweep"
    labels = ("sweep_s.p50", "sweep_rows_per_s")
    checks_golden = False

    def __init__(self, seed: int, workdir: Path, rows: int = SWEEP_ROWS):
        self.rng = np.random.default_rng([seed, 0])
        self.pick = np.random.default_rng([seed, 2])
        self.offset = seed % len(cli.SWEEP_KEYS)
        self.calls = 0
        self.rows = rows
        self.workdir = workdir

    def next_config(self) -> dict:
        vary = cli.SWEEP_KEYS[(self.offset + self.calls) % len(cli.SWEEP_KEYS)]
        self.calls += 1
        return sweep_config(self.rng, vary, self.rows)

    def run(self, config: dict, workers: int, name: str = "sweep"):
        path = write_config(self.workdir / f"{name}.cfg", config)
        out = self.workdir / f"{name}.csv"
        t0 = perf_counter()
        code = cli.main(["sweep", "--config", path, "--out", str(out), "--workers", str(workers)])
        seconds = perf_counter() - t0
        return seconds, code, out.read_text() if code == 0 else ""

    def op(self):
        config = self.next_config()
        seconds, code, text = self.run(config, workers=1)
        return seconds, config["count"], (code, config, text)

    @staticmethod
    def command_config(output):
        return "sweep", output[1]

    def problems(self, output) -> list:
        code, config, text = output
        if code != 0:
            return [f"exit code {code} for {config}"]
        header, rows = sweep_rows(text)
        if header != ",".join([config["vary"]] + cli.SWEEP_COLUMNS) or len(rows) != config["count"]:
            return [f"{len(rows)} rows under {header!r}, expected {config['count']}"]
        picks = self.pick.choice(len(rows), size=min(SWEEP_CHECK_ROWS, len(rows)), replace=False)
        return [msg for i in sorted(picks) for msg in row_problems(config, rows[i])]


class WardenValidate:
    """``eamac validate`` at 10^6 Monte Carlo samples with two workers."""

    name = "warden-validate"
    labels = ("validate_s.p50", "mc_samples_per_s")
    checks_golden = False

    def __init__(self, seed: int, workdir: Path, samples: int = VALIDATE_SAMPLES):
        self.rng = np.random.default_rng([seed, 0])
        self.samples = samples
        self.workdir = workdir
        self.config_path = write_config(workdir / "validate.cfg", {"samples": samples})

    def next_seed(self) -> int:
        return int(self.rng.integers(2**63))

    def op(self):
        seed = self.next_seed()
        out = self.workdir / "validate.txt"
        out.unlink(missing_ok=True)
        argv = ["validate", "--config", self.config_path, "--seed", str(seed), "--out", str(out),
                "--workers", str(VALIDATE_WORKERS)]
        t0 = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - t0
        return seconds, self.samples, (code, seed, out.read_text() if out.exists() else "")

    def command_config(self, output):
        return "validate", {"samples": self.samples}

    def problems(self, output) -> list:
        code, seed, text = output
        rec = parse_record(text)
        if code != 0 or rec.get("overall") != "pass":
            return [f"seed {seed}: exit code {code}, overall = {rec.get('overall')}"]
        failed = [k for k, v in rec.items() if k.startswith("check.") and k.count(".") == 1 and v != "pass"]
        return [f"seed {seed}: {failed} failed"] if failed else []


WORKLOADS = {w.name: w for w in (RegionGrid, RegionSymmetric, CovertSweep, WardenValidate)}
