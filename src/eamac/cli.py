"""Command-line front end.

Subcommands: region, covert-rect, budget, plan, sweep, validate.  Every
command reads a key = value config file, validates it against a closed
schema (unknown keys are rejected), and emits a deterministic text file:
identical config and seed give byte-identical output, independent of the
worker count.  Exit codes: 0 success, 2 config error, 3 infeasible plan,
4 numerical or truncation failure.
"""

import argparse
import math
import sys
from pathlib import Path

from . import __version__, planner, region as rg, validate as val
from .channel import MacParams, ModulationConfig
from .errors import ConfigError, DomainError, EamacError, InfeasibleError, ShapeError

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
        "cutoff": (int, 24),
        "psk_order": (int, 64),
        "tail_tol": (float, 1e-8),
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
MAX_SWEEP_POINTS = 100_000

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


def _rate(value: float, args) -> float:
    return value / LN2 if args.bits else value


def _region_record(reg, config, args, boundary_points: int) -> str:
    lines = _header("region", config, args)
    lines += [
        f"x_bound = {_fmt(_rate(reg.x_bound, args))}",
        f"y_bound = {_fmt(_rate(reg.y_bound, args))}",
        f"sum_bound = {_fmt(_rate(reg.sum_bound, args))}",
        f"sum_branch = {reg.sum_branch}",
        f"sum_active = {_fmt(reg.sum_active)}",
    ]
    for key in sorted(reg.validity):
        lines.append(f"validity.{key} = {_fmt(reg.validity[key])}")
    for i, (vx, vy) in enumerate(reg.vertices):
        lines.append(f"vertex_{i} = {_fmt(_rate(vx, args))}, {_fmt(_rate(vy, args))}")
    if boundary_points > 0:
        for i, (bx, by) in enumerate(_boundary_polyline(reg, boundary_points)):
            lines.append(f"boundary_{i} = {_fmt(_rate(bx, args))}, {_fmt(_rate(by, args))}")
    return "\n".join(lines) + "\n"


def _boundary_polyline(reg, count: int) -> list:
    """Sample the non-axis boundary of the region at ``count`` points."""
    chain = [v for v in reg.vertices if v != (0.0, 0.0)]
    if len(chain) < 2:
        return chain
    lengths = []
    for a, b in zip(chain[:-1], chain[1:]):
        lengths.append(math.hypot(b[0] - a[0], b[1] - a[1]))
    total = sum(lengths)
    if total == 0.0:
        return [chain[0]]
    points = []
    for i in range(count):
        target = total * i / (count - 1) if count > 1 else 0.0
        acc = 0.0
        for (a, b), seg in zip(zip(chain[:-1], chain[1:]), lengths):
            if target <= acc + seg or (a, b) == (chain[-2], chain[-1]):
                frac = 0.0 if seg == 0.0 else min(max((target - acc) / seg, 0.0), 1.0)
                points.append((a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1])))
                break
            acc += seg
    return points


def _region_svg(reg, config, args) -> str:
    """Minimal standalone SVG of the region polygon, no plotting dependency."""
    span = max(reg.x_bound, reg.y_bound, 1e-12)
    size, margin = 400.0, 40.0
    scale = (size - 2 * margin) / span

    def to_px(vx, vy):
        return margin + vx * scale, size - margin - vy * scale

    points = " ".join(f"{to_px(vx, vy)[0]:.3f},{to_px(vx, vy)[1]:.3f}" for vx, vy in reg.vertices)
    header = "\n".join(_header("region", config, args))
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


def cmd_region(config, args) -> str:
    if config["boundary_points"] < 0:
        raise ConfigError(f"boundary_points must be >= 0, got {config['boundary_points']}")
    p = _mac_params(config)
    m = ModulationConfig(n_s=config["n_s"])
    numerics = rg.RegionNumerics(
        cutoff=config["cutoff"], psk_order=config["psk_order"], tail_tol=config["tail_tol"]
    )
    reg = rg.achievable_region(p, m, numerics)
    if args.format == "svg":
        return _region_svg(reg, config, args)
    return _region_record(reg, config, args, config["boundary_points"])


def cmd_covert_rect(config, args) -> str:
    p = _mac_params(config)
    rect = rg.covert_rectangle(p, config["s"])
    if args.format == "svg":
        return _region_svg(rect, config, args)
    lines = _header("covert-rect", config, args)
    lines += [
        f"x_bound = {_fmt(_rate(rect.x_bound, args))}",
        f"y_bound = {_fmt(_rate(rect.y_bound, args))}",
    ]
    for i, (vx, vy) in enumerate(rect.vertices):
        lines.append(f"vertex_{i} = {_fmt(_rate(vx, args))}, {_fmt(_rate(vy, args))}")
    return "\n".join(lines) + "\n"


def cmd_budget(config, args) -> str:
    p = _mac_params(config)
    lines = _header("budget", config, args)
    missing = [k for k in ("alpha", "beta", "s") if config[k] is None]
    if missing:
        lines.append(f"budget = {_fmt(planner.covert_budget(config['n'], config['delta'], p))}")
        if len(missing) < 3:
            raise ConfigError(f"budget needs all of alpha, beta, s or none; missing {', '.join(missing)}")
    else:
        power, budget, feasible = planner.covert_feasibility(
            config["n"], config["alpha"], config["beta"], config["s"], p, config["delta"]
        )
        lines += [f"budget = {_fmt(budget)}", f"power = {_fmt(power)}", f"feasible = {_fmt(feasible)}"]
    return "\n".join(lines) + "\n"


def _plan_lines(plan, args) -> list:
    lines = [f"power = {_fmt(plan.power)}", f"budget = {_fmt(plan.budget)}", "feasible = true"]
    lines += [f"{name} = {_fmt(_rate(value, args))}" for name, value in plan.rates()]
    lines += [f"order.{name} = {order}" for name, order in _RATE_ORDERS.items()]
    lines += [
        f"l_x = {plan.layer2.l_x}",
        f"l_y = {plan.layer2.l_y}",
        f"ent_nats_x = {_fmt(_rate(plan.layer2.ent_nats_x, args))}",
        f"ent_nats_y = {_fmt(_rate(plan.layer2.ent_nats_y, args))}",
    ]
    return lines


def cmd_plan(config, args) -> str:
    p = _mac_params(config)
    point = (config["n"], config["alpha"], config["beta"], config["s"], p)
    plan = planner.build_plan(*point, delta=config["delta"], epsilon=config["epsilon"], mu_bar=config["mu_bar"])
    return "\n".join(_header("plan", config, args) + _plan_lines(plan, args)) + "\n"


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


def cmd_sweep(config, args) -> str:
    if config["vary"] not in SWEEP_KEYS:
        raise ConfigError(f"vary must be one of {SWEEP_KEYS}, got {config['vary']!r}")
    if config["count"] < 1 or config["count"] > MAX_SWEEP_POINTS:
        raise ConfigError(f"count must lie in [1, {MAX_SWEEP_POINTS}], got {config['count']}")
    count = config["count"]
    step = (config["stop"] - config["start"]) / (count - 1) if count > 1 else 0.0
    grid = [config["start"] + i * step for i in range(count)]
    rows = [_sweep_row(config, args, v) for v in grid]
    header = [line if line.startswith("#") else f"# {line}" for line in _header("sweep", config, args)]
    columns = ",".join([config["vary"]] + SWEEP_COLUMNS)
    return "\n".join(header + [columns] + rows) + "\n"


class _ValidationFailed(EamacError):
    """Carries the report text so it is still written before exiting 4."""

    def __init__(self, report: str):
        super().__init__("validation suite failed; see report")
        self.report = report


def cmd_validate(config, args) -> str:
    if args.seed is None:
        raise ConfigError("validate is stochastic; --seed is required")
    results = val.run_suite(args.seed, samples=config["samples"], workers=args.workers)
    lines = _header("validate", config, args)
    for res in results:
        status = "pass" if res.passed else "FAIL"
        lines.append(f"check.{res.name} = {status}")
        lines.append(f"check.{res.name}.measured = {_fmt(res.measured)}")
        lines.append(f"check.{res.name}.tolerance = {_fmt(res.tolerance)}")
        lines.append(f"check.{res.name}.detail = {res.detail}")
    all_pass = all(r.passed for r in results)
    lines.append(f"overall = {'pass' if all_pass else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    if not all_pass:
        raise _ValidationFailed(report)
    return report


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
        if args.format not in FORMATS[args.command]:
            raise ConfigError(
                f"format {args.format!r} not supported by {args.command}; "
                f"choose from {FORMATS[args.command]}"
            )
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if args.seed is not None and not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
        config = parse_config(args.config, SCHEMAS[args.command])
        text = COMMANDS[args.command](config, args)
    except (ConfigError, DomainError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc} (binding: {exc.binding})", file=sys.stderr)
        return 3
    except _ValidationFailed as exc:
        if args.out:
            Path(args.out).write_text(exc.report)
        else:
            sys.stdout.write(exc.report)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except EamacError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
