"""Traced run: per-layer timings from the benchmark's own calls into eamac.

Spans are taken here, around calls to each module's public functions;
nothing inside eamac is patched and no private name is used.  Where a layer
is only reachable inside another call (the four link MIs inside
``achievable_region``, the library calls inside ``cli.main``), the benchmark
repeats those calls itself and a layer's self time is the outer call minus
the repeated inner calls.

The superoperator cache (an lru_cache of size 8) is shared by every call in
the process, so each pass draws fresh points from the workload's probe
stream, which has the same distribution as the timed points but never the
same values: the timed region stays cold where it is cold in the untraced
run, and the stage probe's first thermal-loss call is always a cache miss.
"""

from collections import defaultdict
from statistics import fmean, median
from time import perf_counter

from eamac import cli, fock, planner
from eamac import region as rg
from eamac import validate as val
from eamac.channel import MacParams, ModulationConfig, effective_params

import workloads as wl

MC_N = 10**4
MC_SAMPLES = 1 << 19
# sizes used when a workload does not reach a layer and a short probe fills it in
PROBE_MC_SAMPLES = 1 << 17
PARALLEL_ROWS = 2_000
SELF_SLICE_ROWS = 1_000
PROBE_BOUNDARY_POINTS = 16
# repetitions of the cheap twins whose differences give self times, and of
# the config parse
TWIN_REPS = 15
# cheap twin of a region config: cutoff 12 keeps the library work to
# milliseconds while the CLI formats the same record and boundary polyline
CLI_TWIN = {"tau": 0.5, "kappa": 0.5, "n_b": 1.0, "n_s": 0.1, "cutoff": 12, "tail_tol": 1e-6}

# per-layer metrics that are the median of their recorded values
MEDIANS = (
    "fock.tmsv_s", "fock.to_density_s", "fock.thermal_loss.cold_s", "fock.thermal_loss.warm_s",
    "fock.phase_average_s", "fock.entropy_s", "fock.density_dim", "fock.density_bytes",
    "channel.effective_params_s", "region.conditional_entropy_s", "region.mi_s", "region.assemble_self_s",
    "cli.parse_config_s", "cli.region_self_s", "planner.q_inv_s", "planner.covert_budget_s",
    "planner.build_plan_s", "region.covert_rectangle_s", "planner.mc.stderr",
    "validate.gaussian_fock_entropy_s", "validate.schur_consistency_s", "validate.relent_s",
    "validate.willie_tv_mc_s",
)

# which layer passes each workload reaches itself
NATIVE = {
    "region-grid": ("fock",),
    "region-symmetric": ("fock", "cli_region"),
    "covert-sweep": ("sweep",),
    "warden-validate": ("mc", "validate"),
}


class Tracer:
    """Span durations and counts, kept in memory by name."""

    def __init__(self):
        self.values = defaultdict(list)

    def timed(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.values[name].append(perf_counter() - t0)
        return out

    def record(self, name, value):
        self.values[name].append(value)

    def median(self, name):
        return median(self.values[name])

    def ratio(self, num, den):
        return sum(self.values[num]) / sum(self.values[den])


class Layers:
    """The per-layer passes, one method per layer group."""

    def __init__(self, seed, workdir):
        self.tr = Tracer()
        self.seed = seed
        self.workdir = workdir
        self.stage_link = 0

    def fock(self, workload):
        """MI decomposition, dense stages and region self time on probe points."""
        tr, numerics = self.tr, workload.numerics
        p, m = workload.next_probe()
        effs = [tr.timed("channel.effective_params_s", effective_params, p, m, s, c) for s, c in wl.LINKS]
        tr.record("fock.superop_hit_frac", wl.superop_hit_frac(effs))
        t0 = perf_counter()
        for eff in effs:
            rg.continuous_phase_mi(eff, numerics)
        tr.record("region.mi_s", perf_counter() - t0)
        for eff in effs:
            tr.timed("region.conditional_entropy_s", rg.conditional_entropy_term, eff)
        self.region_self(p, numerics)

        p_q, m_q = workload.next_probe()
        eff = effective_params(p_q, m_q, *wl.LINKS[self.stage_link % len(wl.LINKS)])
        self.stage_link += 1
        self.stages(eff, numerics)

    def stages(self, eff, numerics):
        """The six dense stages of one continuous_phase_mi call, one by one."""
        tr, d, tail = self.tr, numerics.cutoff, numerics.tail_tol
        psi = tr.timed("fock.tmsv_s", fock.tmsv_fock, eff.n_s, d, tail)
        rho = tr.timed("fock.to_density_s", psi.to_density)
        n_env = eff.n_t_eff / (1.0 - eff.kappa_eff)
        out = tr.timed("fock.thermal_loss.cold_s", fock.thermal_loss_fock, rho, eff.kappa_eff, n_env, tail_tol=tail)
        tr.timed("fock.thermal_loss.warm_s", fock.thermal_loss_fock, rho, eff.kappa_eff, n_env, tail_tol=tail)
        avg = tr.timed("fock.phase_average_s", fock.phase_average_fock, out, numerics.psk_order)
        tr.timed("fock.entropy_s", fock.entropy_fock, avg)
        tr.record("fock.density_dim", out.matrix.shape[0])
        tr.record("fock.density_bytes", out.matrix.nbytes)

    def region_self(self, p, numerics):
        """achievable_region minus its four continuous_phase_mi calls.

        Taken on the zero-signal twin of the point, where every MI call
        returns at its early exit, so the difference is not buried under the
        noise of four dense evaluations.
        """
        twin = ModulationConfig(n_s=0.0)
        effs = [effective_params(p, twin, s, c) for s, c in wl.LINKS]
        for _ in range(TWIN_REPS):
            t0 = perf_counter()
            rg.achievable_region(p, twin, numerics)
            t1 = perf_counter()
            for eff in effs:
                rg.continuous_phase_mi(eff, numerics)
            t2 = perf_counter()
            self.tr.record("region.assemble_self_s", (t1 - t0) - (t2 - t1))

    def cli_region(self, boundary_points):
        """``eamac region`` minus its achievable_region call, on a cheap twin."""
        tr = self.tr
        config = {**CLI_TWIN, "boundary_points": boundary_points}
        path = wl.write_config(self.workdir / "twin.cfg", config)
        out = self.workdir / "twin.txt"
        p = MacParams(tau=config["tau"], kappa=config["kappa"], n_b=config["n_b"])
        m = ModulationConfig(n_s=config["n_s"])
        numerics = rg.RegionNumerics(cutoff=config["cutoff"], psk_order=64, tail_tol=config["tail_tol"])
        rg.achievable_region(p, m, numerics)  # both timed calls below then find its superoperators cached
        for _ in range(TWIN_REPS):
            t0 = perf_counter()
            code = cli.main(["region", "--config", path, "--out", str(out)])
            t1 = perf_counter()
            rg.achievable_region(p, m, numerics)
            t2 = perf_counter()
            if code != 0:
                raise RuntimeError(f"region twin exited {code}")
            tr.record("cli.region_self_s", (t1 - t0) - (t2 - t1))

    def parse(self, workload, output):
        """``cli.parse_config`` on the config of the workload's own command."""
        command, config = workload.command_config(output)
        path = wl.write_config(self.workdir / "parse.cfg", config)
        for _ in range(TWIN_REPS):
            self.tr.timed("cli.parse_config_s", cli.parse_config, path, cli.SCHEMAS[command])

    def sweep(self, workload, config):
        """Sweep self time, the planner calls per row, and the pool speed-up."""
        tr = self.tr
        head = {**config, "count": min(PARALLEL_ROWS, config["count"])}
        for workers in (1, 2):
            seconds, code, _ = workload.run(head, workers=workers, name=f"sweep-w{workers}")
            if code != 0:
                raise RuntimeError(f"sweep with {workers} workers exited {code}")
            tr.record(f"cli.sweep.w{workers}_s", seconds)

        # The CLI and its library calls alternate slice by slice, so that slow
        # drifts in machine speed cancel, and the median slice sets the rate.
        # Each slice is a sweep call of its own: the fixed cost of one call
        # (a one-row sweep) is taken out of each slice and counted once.
        fixed = median(self.sweep_slice_self(workload, {**config, "count": 1})[0] for _ in range(TWIN_REPS))
        tr.record("cli.sweep_fixed", fixed)
        count, start = config["count"], config["start"]
        step = (config["stop"] - start) / (count - 1) if count > 1 else 0.0
        for a in range(0, count, SELF_SLICE_ROWS):
            b = min(a + SELF_SLICE_ROWS, count)
            piece = {**config, "start": start + a * step, "stop": start + (b - 1) * step, "count": b - a}
            self_time, feasible = self.sweep_slice_self(workload, piece)
            tr.record("cli.sweep_self_per_row", (self_time - fixed) / (b - a))
            tr.record("planner.feasible", feasible)
            tr.record("planner.rows", b - a)

    def sweep_slice_self(self, workload, config):
        """One sweep call minus the library calls it makes, re-made row by row.

        Returns that self time and the number of feasible rows.
        """
        tr = self.tr
        seconds, code, text = workload.run(config, workers=1, name="sweep-slice")
        if code != 0:
            raise RuntimeError(f"sweep slice exited {code}")
        _, rows = wl.sweep_rows(text)
        library, feasible = 0.0, 0
        for row in rows:
            cells = row.split(",", 4)
            local = {**config, config["vary"]: float(cells[0])}
            t0 = perf_counter()
            p = MacParams(tau=local["tau"], kappa=local["kappa"], n_b=local["n_b"])
            t1 = perf_counter()
            planner.covert_budget(local["n"], local["delta"], p)
            t2 = perf_counter()
            planner.weighted_power(local["alpha"], local["beta"], local["s"], p)
            t3 = perf_counter()
            if cells[3] == "true":
                feasible += 1
                planner.build_plan(
                    local["n"], local["alpha"], local["beta"], local["s"], p,
                    delta=local["delta"], epsilon=local["epsilon"], mu_bar=local["mu_bar"],
                )
            t4 = perf_counter()
            rg.covert_rectangle(p, local["s"])
            t5 = perf_counter()
            library += t5 - t0
            tr.record("planner.covert_budget_s", t2 - t1)
            if cells[3] == "true":
                tr.record("planner.build_plan_s", t4 - t3)
            tr.record("region.covert_rectangle_s", t5 - t4)
            tr.timed("planner.q_inv_s", planner.q_inv, (1.0 - local["delta"]) / 2.0)
        if len(rows) != config["count"]:
            raise RuntimeError(f"sweep slice gave {len(rows)} rows, expected {config['count']}")
        return seconds - library, feasible

    def mc(self, samples):
        """willie_tv_mc at the validate experiment, on one and two workers."""
        p, alpha, beta, s = val.tv_experiment_params(0.30, MC_N)
        for workers in (1, 2):
            est = self.tr.timed(
                f"planner.mc.w{workers}_s", planner.willie_tv_mc,
                MC_N, alpha, beta, s, p, samples=samples, seed=self.seed, workers=workers,
            )
        self.tr.record("planner.mc.samples", samples)
        self.tr.record("planner.mc.stderr", est.stderr)

    def validate(self, seed, samples):
        """The four checks of the validate suite, each on its own."""
        tr = self.tr
        tr.timed("validate.gaussian_fock_entropy_s", val.check_gaussian_fock_entropy)
        tr.timed("validate.schur_consistency_s", val.check_schur_consistency)
        tr.timed("validate.relent_s", val.check_relent_leading_vs_exact)
        tr.timed("validate.willie_tv_mc_s", val.check_willie_tv_mc, seed, samples=samples, workers=wl.VALIDATE_WORKERS)

    def native(self, workload, result):
        """The passes a workload reaches itself, after one of its operations."""
        t0 = perf_counter()
        output = result[2]
        self.parse(workload, output)
        passes = {
            "fock": lambda: self.fock(workload),
            "cli_region": lambda: self.cli_region(output[1]["boundary_points"]),
            "sweep": lambda: self.sweep(workload, output[1]),
            "mc": lambda: self.mc(MC_SAMPLES),
            "validate": lambda: self.validate(output[1], workload.samples),
        }
        for group in NATIVE[workload.name]:
            passes[group]()
        self.tr.record("trace.pass_s", perf_counter() - t0)

    def probes(self, name):
        """Short passes for the layers the workload does not reach."""
        sweep = wl.CovertSweep(self.seed, self.workdir)
        passes = {
            "fock": lambda: self.fock(wl.RegionGrid(self.seed, self.workdir)),
            "cli_region": lambda: self.cli_region(PROBE_BOUNDARY_POINTS),
            "sweep": lambda: self.sweep(sweep, sweep.next_config()),
            "mc": lambda: self.mc(PROBE_MC_SAMPLES),
            "validate": lambda: self.validate(self.seed, PROBE_MC_SAMPLES),
        }
        for group, run in passes.items():
            if group not in NATIVE[name]:
                run()

    def metrics(self, overhead):
        tr = self.tr
        out = {name: tr.median(name) for name in MEDIANS}
        out.update({
            "fock.superop_hit_frac": fmean(tr.values["fock.superop_hit_frac"]),
            # self time of one sweep call of the workload's size
            "cli.sweep_self_s": tr.median("cli.sweep_self_per_row") * wl.SWEEP_ROWS + tr.median("cli.sweep_fixed"),
            "planner.feasible_frac": tr.ratio("planner.feasible", "planner.rows"),
            "cli.sweep.parallel_speedup": tr.ratio("cli.sweep.w1_s", "cli.sweep.w2_s"),
            "planner.mc.samples_per_s.w1": tr.ratio("planner.mc.samples", "planner.mc.w1_s"),
            "planner.mc.samples_per_s.w2": tr.ratio("planner.mc.samples", "planner.mc.w2_s"),
            "planner.mc.parallel_speedup": tr.ratio("planner.mc.w1_s", "planner.mc.w2_s"),
            "trace.overhead_frac": overhead,
        })
        return out
