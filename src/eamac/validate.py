"""Oracle cross-check suite.

Each check pits a closed-form route against an independent numerical
route and reports the measured discrepancy next to its tolerance.  The
suite is deterministic given a seed, whatever the worker count.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock, planner
from .channel import MacParams, ModulationConfig, conditioned_cov, conditioned_cov_oracle, effective_params
from .gaussian import entropy_from_cov, thermal_cov

__all__ = ["CheckResult", "run_suite", "tv_experiment_params"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


def check_gaussian_fock_entropy() -> CheckResult:
    """Thermal and TMSV-reduced entropies: covariance route vs spectral route."""
    worst = 0.0
    for n_s in (0.1, 0.5):
        gauss = entropy_from_cov(thermal_cov(n_s))
        direct = fock.entropy_fock(fock.thermal_fock(n_s, 40))
        reduced = fock.entropy_fock(fock.tmsv_fock(n_s, 40).partial_trace([1]))
        worst = max(worst, abs(gauss - direct), abs(gauss - reduced))
    return CheckResult(
        name="gaussian_fock_entropy",
        passed=worst <= 1e-6,
        measured=worst,
        tolerance=1e-6,
        detail="max |entropy_from_cov - entropy_fock| over n_s in {0.1, 0.5}, cutoff 40",
    )


# the random channel draws of the Schur check, fixed so the report is too
_SCHUR_SEED, _SCHUR_DRAWS = 20240, 100


def check_schur_consistency() -> CheckResult:
    """Closed-form conditioning vs the generic Schur complement, plus the
    interference-cancellation identity n_t_eff == n_t."""
    rng = np.random.default_rng(_SCHUR_SEED)
    worst_cov = 0.0
    worst_nt = 0.0
    for _ in range(_SCHUR_DRAWS):
        p = MacParams(
            tau=rng.uniform(0.0, 1.0),
            kappa=rng.uniform(0.05, 0.95),
            n_b=rng.uniform(0.1, 5.0),
        )
        m = ModulationConfig(n_s=rng.uniform(0.0, 3.0))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        for sender in ("x", "y"):
            direct = conditioned_cov(p, m, sender, theta)
            oracle = conditioned_cov_oracle(p, m, sender, theta)
            worst_cov = max(worst_cov, float(np.max(np.abs(direct - oracle))))
            eff = effective_params(p, m, sender, conditioned=True)
            worst_nt = max(worst_nt, abs(eff.n_t_eff - p.n_t))
    measured = max(worst_cov, worst_nt)
    return CheckResult(
        name="schur_consistency",
        passed=measured <= 1e-12,
        measured=measured,
        tolerance=1e-12,
        detail=(
            f"{_SCHUR_DRAWS} random draws; conditioning cancels the interferer exactly (n_t_eff = n_t), "
            "ruling out the alternative reading n_t - kappa n_s (1 - tau)"
        ),
    )


def check_relent_leading_vs_exact() -> CheckResult:
    """Leading-order D against the exact classical evaluation, two scales."""
    p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
    alpha = beta = 1e-3
    s = 1e-2
    lead = planner.relent_leading(p, alpha, beta, s, "bob", "joint")
    exact = planner.relent_exact(p, alpha, beta, s, "bob", "joint")
    err = abs(exact.d - lead.d) / exact.d
    lead_h = planner.relent_leading(p, alpha / 2, beta / 2, s / 2, "bob", "joint")
    exact_h = planner.relent_exact(p, alpha / 2, beta / 2, s / 2, "bob", "joint")
    err_h = abs(exact_h.d - lead_h.d) / exact_h.d
    ratio_h = exact_h.v / exact_h.d
    passed = err <= 0.1 and err_h < err and abs(ratio_h - 2.0) <= 0.2
    return CheckResult(
        name="relent_leading_vs_exact",
        passed=passed,
        measured=err,
        tolerance=0.1,
        detail=f"relative error {err:.3e} -> {err_h:.3e} after halving; V/D = {ratio_h:.4f}",
    )


def tv_experiment_params(target: float = 0.30, n: int = 10**4):
    """Parameters with willie_tv_leading == target at block length n."""
    p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
    alpha = beta = 0.05
    # the leading TV equals delta exactly when the power meets the budget
    s = planner.covert_budget(n, target, p) / planner.weighted_power(alpha, beta, 1.0, p)
    return p, alpha, beta, s


def check_willie_tv_mc(seed: int, samples: int = 10**6, workers: int = 1) -> CheckResult:
    """Monte Carlo total variation against the leading Q-term at tv = 0.30."""
    n = 10**4
    p, alpha, beta, s = tv_experiment_params(0.30, n)
    lead = planner.willie_tv_leading(n, alpha, beta, s, p)
    est = planner.willie_tv_mc(n, alpha, beta, s, p, samples=samples, seed=seed, workers=workers)
    measured = abs(est.value - 0.30)
    return CheckResult(
        name="willie_tv_mc",
        passed=measured <= 0.05,
        measured=measured,
        tolerance=0.05,
        detail=(
            f"leading {lead:.6f}, mc {est.value:.6f} +- {est.stderr:.6f} "
            f"({samples} mixture draws, mean |tanh(LLR / 2)|)"
        ),
    )


def run_suite(seed: int, samples: int = 10**6, workers: int = 1):
    """All four cross-checks, in fixed order."""
    return [
        check_gaussian_fock_entropy(),
        check_schur_consistency(),
        check_relent_leading_vs_exact(),
        check_willie_tv_mc(seed, samples=samples, workers=workers),
    ]
