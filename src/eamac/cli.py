"""Command-line front end.

Subcommands: region, covert-rect, budget, plan, sweep, validate.  Every
command reads a key = value config file, validates it against a closed
schema (unknown keys are rejected), and emits a deterministic text file:
identical config and seed give byte-identical output, independent of the
worker count.  Exit codes: 0 success, 2 config error, 3 infeasible plan,
4 numerical or truncation failure (a failing validate still writes its report).
"""

import argparse
import math
import sys
from pathlib import Path

from . import __version__, planner, region as rg
from .channel import MacParams, ModulationConfig
from .errors import ConfigError, DomainError, EamacError, InfeasibleError, ShapeError
from .errors import check_choice, check_count, check_real

LN2 = math.log(2.0)
REQUIRED = object()
# the nine plan rates in output order, with their remainder orders
_RATE_ORDERS = {**planner.Layer1Rates.ORDERS, **planner.Layer2Rates.ORDERS}

# per-command schema: key -> (converter, default or REQUIRED); the key
# order is the order of the missing-key check
_CHANNEL = {
    "tau": (float, REQUIRED),
    "kappa": (float, REQUIRED),
    "n_b": (float, REQUIRED),
}
_PLAN = {
    **_CHANNEL,
    "n": (int, REQUIRED),
    "delta": (float, REQUIRED),
    "alpha": (float, REQUIRED),
    "beta": (float, REQUIRED),
    "s": (float, REQUIRED),
    "mu_bar": (float, 0.1),
    "epsilon": (float, 0.05),
}
SCHEMAS = {
    "region": {
        **_CHANNEL,
        "n_s": (float, REQUIRED),
        "cutoff": (int, rg.RegionNumerics.cutoff),
        "psk_order": (int, rg.RegionNumerics.psk_order),
        "tail_tol": (float, rg.RegionNumerics.tail_tol),
        "boundary_points": (int, 0),
    },
    "covert-rect": {**_CHANNEL, "s": (float, REQUIRED)},
    "budget": {
        **_CHANNEL,
        "n": (int, REQUIRED),
        "delta": (float, REQUIRED),
        "alpha": (float, None),
        "beta": (float, None),
        "s": (float, None),
    },
    "plan": _PLAN,
    "sweep": {
        **_PLAN,
        "vary": (str, REQUIRED),
        "start": (float, REQUIRED),
        "stop": (float, REQUIRED),
        "count": (int, REQUIRED),
    },
    "validate": {
        "samples": (int, 10**6),
    },
}

SWEEP_KEYS = ("tau", "kappa", "n_b", "s", "alpha", "beta", "delta")
# most rows of a sweep, and most boundary points of a region
MAX_POINTS = 100_000

FORMATS = {
    "region": ("record", "svg"),
    "covert-rect": ("record", "svg"),
    "budget": ("record",),
    "plan": ("record",),
    "sweep": ("csv",),
    "validate": ("record",),
}


def parse_config(path: str, schema: dict) -> dict:
    """Read a key = value file and validate it against the schema."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    config = {}
    for key, (conv, default) in schema.items():
        if key in raw:
            try:
                config[key] = conv(raw[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            if conv is float and not math.isfinite(config[key]):
                raise ConfigError(f"config key {key!r} must be finite, got {raw[key]}")
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            config[key] = default
    return config


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _header(command: str, config: dict, args) -> list:
    lines = [
        f"# eamac {__version__}",
        f"command = {command}",
        f"units = {'bits' if args.bits else 'nats'}",
    ]
    if args.seed is not None:
        lines.append(f"seed = {args.seed}")
    for key in sorted(config):
        if config[key] is not None:
            lines.append(f"config.{key} = {_fmt(config[key])}")
    return lines


def _record(command: str, config: dict, args, fields: list) -> str:
    """The record format: the header, then one ``key = value`` line per field."""
    lines = _header(command, config, args) + [f"{key} = {_fmt(value)}" for key, value in fields]
    return "\n".join(lines) + "\n"


def _rate(value: float, args) -> float:
    return value / LN2 if args.bits else value


def _rates(obj, names, args) -> list:
    """Rate fields read off ``obj``, in bits under ``--bits``."""
    return [(name, _rate(getattr(obj, name), args)) for name in names]


def _points(prefix: str, points, args) -> list:
    """Numbered ``prefix_i = x, y`` fields of rate-plane points."""
    return [(f"{prefix}_{i}", (_rate(x, args), _rate(y, args))) for i, (x, y) in enumerate(points)]


def _boundary_polyline(reg, count: int) -> list:
    """Sample the non-axis boundary of the region at ``count`` points."""
    chain = [v for v in reg.vertices if v != (0.0, 0.0)]
    if len(chain) < 2:
        return chain
    lengths = [math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(chain[:-1], chain[1:])]
    total = sum(lengths)
    points = []
    for i in range(count):
        target = total * i / (count - 1) if count > 1 else 0.0
        acc = 0.0
        for (a, b), seg in zip(zip(chain[:-1], chain[1:]), lengths):
            if target <= acc + seg or (a, b) == (chain[-2], chain[-1]):
                frac = min(max((target - acc) / seg, 0.0), 1.0)
                points.append((a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1])))
                break
            acc += seg
    return points


def _region_svg(reg, command: str, config, args) -> str:
    """Minimal standalone SVG of the region polygon, no plotting dependency."""
    span = max(reg.x_bound, reg.y_bound, 1e-12)
    size, margin = 400.0, 40.0
    scale = (size - 2 * margin) / span

    def to_px(vx, vy):
        return margin + vx * scale, size - margin - vy * scale

    points = " ".join(f"{to_px(vx, vy)[0]:.3f},{to_px(vx, vy)[1]:.3f}" for vx, vy in reg.vertices)
    header = "\n".join(_header(command, config, args))
    ox, oy = to_px(0.0, 0.0)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">\n'
        f"<!--\n{header}\n-->\n"
        f'<polygon points="{points}" fill="#9ecae1" stroke="#08519c" stroke-width="1.5"/>\n'
        f'<line x1="{ox:.3f}" y1="{oy:.3f}" x2="{size - margin / 2:.3f}" y2="{oy:.3f}" stroke="#444"/>\n'
        f'<line x1="{ox:.3f}" y1="{oy:.3f}" x2="{ox:.3f}" y2="{margin / 2:.3f}" stroke="#444"/>\n'
        "</svg>\n"
    )


def _mac_params(config) -> MacParams:
    return MacParams(tau=config["tau"], kappa=config["kappa"], n_b=config["n_b"])


def cmd_region(config, args) -> tuple:
    check_count("boundary_points", config["boundary_points"], 0, MAX_POINTS)
    p = _mac_params(config)
    m = ModulationConfig(n_s=config["n_s"])
    numerics = rg.RegionNumerics(cutoff=config["cutoff"], psk_order=config["psk_order"], tail_tol=config["tail_tol"])
    reg = rg.achievable_region(p, m, numerics)
    if args.format == "svg":
        return _region_svg(reg, "region", config, args), 0
    fields = _rates(reg, ("x_bound", "y_bound", "sum_bound"), args)
    fields += [("sum_branch", reg.sum_branch), ("sum_active", reg.sum_active)]
    fields += [(f"validity.{key}", reg.validity[key]) for key in sorted(reg.validity)]
    fields += _points("vertex", reg.vertices, args)
    if config["boundary_points"] > 0:
        fields += _points("boundary", _boundary_polyline(reg, config["boundary_points"]), args)
    return _record("region", config, args, fields), 0


def cmd_covert_rect(config, args) -> tuple:
    rect = rg.covert_rectangle(_mac_params(config), config["s"])
    if args.format == "svg":
        return _region_svg(rect, "covert-rect", config, args), 0
    fields = _rates(rect, ("x_bound", "y_bound"), args) + _points("vertex", rect.vertices, args)
    return _record("covert-rect", config, args, fields), 0


def cmd_budget(config, args) -> tuple:
    p = _mac_params(config)
    missing = [k for k in ("alpha", "beta", "s") if config[k] is None]
    if 0 < len(missing) < 3:
        raise ConfigError(f"budget needs all of alpha, beta, s or none; missing {', '.join(missing)}")
    if missing:
        fields = [("budget", planner.covert_budget(config["n"], config["delta"], p))]
    else:
        power, budget, feasible = planner.covert_feasibility(
            config["n"], config["alpha"], config["beta"], config["s"], p, config["delta"]
        )
        fields = [("budget", budget), ("power", power), ("feasible", feasible)]
    return _record("budget", config, args, fields), 0


def cmd_plan(config, args) -> tuple:
    p = _mac_params(config)
    point = (config["n"], config["alpha"], config["beta"], config["s"], p)
    plan = planner.build_plan(*point, delta=config["delta"], epsilon=config["epsilon"], mu_bar=config["mu_bar"])
    fields = [("power", plan.power), ("budget", plan.budget), ("feasible", True)]
    fields += [(name, _rate(value, args)) for name, value in plan.rates()]
    fields += [(f"order.{name}", order) for name, order in _RATE_ORDERS.items()]
    fields += [("l_x", plan.layer2.l_x), ("l_y", plan.layer2.l_y)]
    fields += _rates(plan.layer2, ("ent_nats_x", "ent_nats_y"), args)
    return _record("plan", config, args, fields), 0


SWEEP_COLUMNS = ["budget", "power", "feasible", *_RATE_ORDERS, "rect_x", "rect_y"]


def _sweep_row(config, args, value) -> str:
    local = dict(config)
    local[config["vary"]] = value
    p = _mac_params(local)
    point = (local["n"], local["alpha"], local["beta"], local["s"], p, local["delta"])
    power, budget, feasible = feasibility = planner.covert_feasibility(*point)
    cells = [repr(float(value)), repr(budget), repr(power), "true" if feasible else "false"]
    if feasible:
        plan = planner._resolve_plan(*point, local["epsilon"], local["mu_bar"], feasibility)
        cells += [repr(_rate(v, args)) for _, v in plan.rates()]
    else:
        cells += [""] * len(_RATE_ORDERS)
    rect = rg.covert_rectangle(p, local["s"])
    cells += [repr(_rate(rect.x_bound, args)), repr(_rate(rect.y_bound, args))]
    return ",".join(cells)


def cmd_sweep(config, args) -> tuple:
    check_choice("vary", config["vary"], SWEEP_KEYS)
    check_count("count", config["count"], 1, MAX_POINTS)
    for name in ("mu_bar", "epsilon"):  # build_plan's rule, checked even where no row is feasible
        check_real(name, config[name], 0, 1, "()")
    count = config["count"]
    step = (config["stop"] - config["start"]) / (count - 1) if count > 1 else 0.0
    if not math.isfinite(step):
        raise ConfigError(f"start = {config['start']} and stop = {config['stop']} give no finite grid step")
    grid = [config["start"] + i * step for i in range(count)]
    rows = [_sweep_row(config, args, v) for v in grid]
    header = [line if line.startswith("#") else f"# {line}" for line in _header("sweep", config, args)]
    columns = ",".join([config["vary"]] + SWEEP_COLUMNS)
    return "\n".join(header + [columns] + rows) + "\n", 0


def cmd_validate(config, args) -> tuple:
    from .validate import run_suite  # the suite runs the dense Fock oracle, which no other command loads

    if args.seed is None:
        raise ConfigError("validate is stochastic; --seed is required")
    check_count("samples", config["samples"], 1, planner.MAX_SAMPLES)
    results = run_suite(args.seed, samples=config["samples"], workers=args.workers)
    fields = []
    for res in results:
        fields += [
            (f"check.{res.name}", "pass" if res.passed else "FAIL"),
            (f"check.{res.name}.measured", res.measured),
            (f"check.{res.name}.tolerance", res.tolerance),
            (f"check.{res.name}.detail", res.detail),
        ]
    all_pass = all(r.passed for r in results)
    fields.append(("overall", "pass" if all_pass else "FAIL"))
    return _record("validate", config, args, fields), 0 if all_pass else 4


COMMANDS = {
    "region": cmd_region,
    "covert-rect": cmd_covert_rect,
    "budget": cmd_budget,
    "plan": cmd_plan,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eamac",
        description="Rate regions and covert throughput for the entanglement-assisted bosonic MAC",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="key = value config file")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", default=FORMATS[name][0], choices=["csv", "record", "svg"])
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--bits", action="store_true", help="report information in bits")
        cmd.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_choice("--format", args.format, FORMATS[args.command])
        check_count("--workers", args.workers, 1, planner.MAX_WORKERS)
        if args.seed is not None:
            check_count("--seed", args.seed, 0, 2**64 - 1)
        config = parse_config(args.config, SCHEMAS[args.command])
        text, code = COMMANDS[args.command](config, args)
    except (ConfigError, DomainError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc} (binding: {exc.binding})", file=sys.stderr)
        return 3
    except EamacError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if code:  # a failing validate report
        print("numerical failure: validation suite failed; see report", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
