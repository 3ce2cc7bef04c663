#!/usr/bin/env python3
"""eamac benchmark: four seeded workloads over fock, region, planner and cli.

Run from the root of a checkout:

    python3 perfbench/run.py --workload region-grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see layers.py).  The metric names and units are those of
BENCHMARK.json at the checkout root.  Every metric is printed on its own line,
and the last line is one JSON object with the keys correct, attempted, failed
and metrics.  eamac is imported from the checkout's src/ directory; without
it the benchmark exits with code 1 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("region-grid", "region-symmetric", "covert-sweep", "warden-validate")
# fresh imports of eamac.cli take about this share of an untraced run's
# window, one after an operation whenever they fall behind it, so that their
# median spans the whole run rather than one moment of the machine's speed
SETUP_SHARE = 0.35
MIN_SETUP = 3
MIN_OPS = 3
CHILD_TIMEOUT_S = 900


def use_checkout():
    """Put the checkout's src/ first on sys.path and make sure eamac comes from it."""
    if not (SRC / "eamac" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no eamac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eamac

    if Path(eamac.__file__).resolve().parent != SRC / "eamac":
        raise SystemExit(f"benchmark: eamac imported from {eamac.__file__}, not from {SRC}")


def tail_percentile(count: int):
    """Highest of p99, p95, p90, p75 with at least ten samples beyond it, or None."""
    for q in (99, 95, 90, 75):
        if count * (100 - q) / 100.0 >= 10:
            return q
    return None


def tail(times):
    """(q, q-th percentile) of ``times`` at ``tail_percentile``, or None."""
    q = tail_percentile(len(times))
    if q is None:
        return None
    return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, read from the library itself."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def setup_time() -> float:
    """Wall time of a fresh interpreter importing eamac.cli from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import eamac.cli"], cwd=ROOT, env=env, check=True, timeout=120)
    return perf_counter() - t0


class Outcome:
    """Operation times, work done and failures of one run."""

    def __init__(self):
        self.times, self.work, self.attempted, self.failed, self.problems = [], 0, 0, 0, []

    def attempt(self, fn):
        """Run ``fn() -> (result, problems)``; it fails if it raises or reports a problem."""
        self.attempted += 1
        try:
            result, found = fn()
        except Exception as exc:  # a raising operation is a failed one, reported below
            result, found = None, [f"{type(exc).__name__}: {exc}"]
        if found:
            self.failed += 1
            self.problems.extend(found)
            return None
        return result

    def operate(self, workload):
        """One timed operation; its output is checked outside the timed region."""
        def op_and_check():
            result = workload.op()
            return result, workload.problems(result[2])

        result = self.attempt(op_and_check)
        if result is not None:
            self.times.append(result[0])
            self.work += result[1]
        return result


def run_ops(workload, outcome, seconds, min_ops=MIN_OPS, each=None):
    """Operations until ``seconds`` have passed, at least ``min_ops`` of them.

    ``each(result)`` runs after every successful operation, outside its timing.
    """
    deadline = perf_counter() + seconds
    count = 0
    while count < min_ops or perf_counter() < deadline:
        count += 1
        result = outcome.operate(workload)
        if result is not None and each is not None:
            each(result)


def untraced(workload, seconds) -> tuple:
    outcome = Outcome()
    if workload.checks_golden:
        import workloads as wl

        outcome.attempt(lambda: (None, wl.golden_problems()))
    setup = []

    def import_once():
        t = outcome.attempt(lambda: (setup_time(), []))
        if t is not None:
            setup.append(t)

    start = perf_counter()

    def interleave(_result):
        if sum(setup) < SETUP_SHARE * (perf_counter() - start):
            import_once()

    run_ops(workload, outcome, seconds, each=interleave)
    for _ in range(MIN_SETUP - len(setup)):
        import_once()
    if not outcome.times or not setup:
        raise SystemExit(f"benchmark: every operation failed: {outcome.problems[:3]}")
    op_label, work_label = workload.labels
    n = len(outcome.times)
    values = {
        "op_s.p50": statistics.median(outcome.times),
        "work_per_s": outcome.work / sum(outcome.times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"{op_label} = {values['op_s.p50']:.6g} s (op_s.p50, n={n})",
        f"{work_label} = {values['work_per_s']:.6g} 1/s (work_per_s, n={n}, {outcome.work} units in {sum(outcome.times):.3f} s)",
        "# op_s: " + " ".join(f"{t:.4f}" for t in outcome.times),
    ]
    tail_q = tail(outcome.times)
    if tail_q is not None:
        lines.append(f"{op_label.replace('p50', f'p{tail_q[0]}')} = {tail_q[1]:.6g} s (n={n})")
    lines += [
        f"setup_s = {values['setup_s']:.6g} s (median, n={len(setup)})",
        "# setup_s: " + " ".join(f"{t:.4f}" for t in setup),
        f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB (n=1)",
    ]
    return outcome, values, lines


def traced(workload, seconds, seed, workdir) -> tuple:
    import layers

    outcome = Outcome()
    lay = layers.Layers(seed, workdir)
    run_ops(workload, outcome, seconds, min_ops=1,
            each=lambda result: outcome.attempt(lambda: (lay.native(workload, result), [])))
    outcome.attempt(lambda: (lay.probes(workload.name), []))
    if not outcome.times or not lay.tr.values["trace.pass_s"]:
        raise SystemExit(f"benchmark: every operation failed: {outcome.problems[:3]}")
    # Timed operations are never wrapped, so tracing adds nothing to them;
    # its cost is the wall time of the layer passes run between them.
    overhead = sum(lay.tr.values["trace.pass_s"]) / sum(outcome.times)
    values = lay.metrics(overhead)
    return outcome, values, []


def run_one(args) -> int:
    use_checkout()
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    (HERE / ".work").mkdir(exist_ok=True)
    seed = args.seed % 2**63  # numpy seeds must be nonnegative
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        workload = wl.WORKLOADS[args.workload](seed, Path(tmp))
        if args.trace:
            outcome, values, lines = traced(workload, args.seconds, seed, Path(tmp))
        else:
            outcome, values, lines = untraced(workload, args.seconds)
    if set(values) != set(units):
        raise SystemExit(f"benchmark: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for line in lines:
        print(line)
    if args.trace:
        for name in units:
            print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"fail_frac = {outcome.failed / outcome.attempted:.6g} ({outcome.failed}/{outcome.attempted})")
    for problem in outcome.problems:
        print(f"# failure: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"benchmark: workload {name} exited {proc.returncode}")
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
