"""Achievable rate regions: the general two-sender region and its covert limit.

The region is an intersection of three half-planes: per-sender bounds
from the heterodyne-conditioned point-to-point links and a sum bound
that is the better of the two decoding orders.  Each mutual information
is the entropy of the phase-averaged (B, idler) state minus the
closed-form conditional entropy.  That entropy comes from the
photon-number-sector spectrum (fock.phase_averaged_spectrum): the
averaged state splits into small blocks by photon difference and phase
class, so no dense Fock matrix is built.  The dense Fock route
(fock.psk_ensemble_mi) is the oracle the tests compare against.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .channel import EffectiveChannel, MacParams, ModulationConfig, effective_params
from .errors import DomainError, NumericalError
from .gaussian import g_entropy

__all__ = [
    "RegionNumerics",
    "RateRegion",
    "conditional_entropy_term",
    "noise_condition_ok",
    "partial_rate_expansion",
    "continuous_phase_mi",
    "achievable_region",
    "covert_rectangle",
]


@dataclass(frozen=True)
class RegionNumerics:
    """Fock-space settings for the mutual-information evaluations.

    ``psk_order`` of at least twice the cutoff makes the discrete phase
    average equal the continuous one on the truncated space; ``None`` is
    the continuous average.
    """

    cutoff: int = 24
    psk_order: int | None = 64
    tail_tol: float = fock.DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.cutoff < 1:
            raise DomainError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.psk_order is not None and self.psk_order < 1:
            raise DomainError(f"psk_order must be >= 1 or None, got {self.psk_order}")
        if not (math.isfinite(self.tail_tol) and 0.0 < self.tail_tol < 1.0):
            raise DomainError(f"tail_tol must be finite and lie in (0, 1), got {self.tail_tol}")


@dataclass(frozen=True)
class RateRegion:
    """Polygon of achievable rate pairs in nats per channel use."""

    x_bound: float
    y_bound: float
    sum_bound: float
    sum_branch: str
    sum_active: bool
    vertices: list
    validity: dict = field(default_factory=dict)
    sum_candidates: tuple = ()

    def constraints(self):
        return [
            ("X-bound", self.x_bound),
            ("Y-bound", self.y_bound),
            ("sum-bound", self.sum_bound),
        ]


def _symplectic_pair(eff: EffectiveChannel):
    """The two symplectic eigenvalues (as mu = nu/2) of the conditional state."""
    nt, ns, kap = eff.n_t_eff, eff.n_s, eff.kappa_eff
    disc = (nt + (1.0 + kap) * ns + 1.0) ** 2 - 4.0 * kap * ns * (ns + 1.0)
    root = np.sqrt(max(disc, 0.0))
    shift = nt + (kap - 1.0) * ns
    return 0.5 * (root + shift), 0.5 * (root - shift)


def conditional_entropy_term(eff: EffectiveChannel) -> float:
    """Entropy g(mu+ - 1/2) + g(mu- - 1/2) of the conditional Gaussian state."""
    mu_plus, mu_minus = _symplectic_pair(eff)
    # floating-point dips below the pure-state floor are clamped
    lo = max(mu_minus - 0.5, 0.0)
    return float(g_entropy(mu_plus - 0.5) + g_entropy(lo))


def noise_condition_ok(eff: EffectiveChannel) -> bool:
    """Noise floor under which the finite-constellation convergence is stated."""
    kap, ns = eff.kappa_eff, eff.n_s
    lower = max(kap * ns - 1.0, (-(1.0 + 2.0 * kap * ns) + np.sqrt(4.0 * kap * ns**2 + 4.0 * kap * ns + 1.0)) / 2.0)
    return bool(eff.n_t_eff > lower)


def partial_rate_expansion(eff: EffectiveChannel) -> float:
    """Diagnostic only: partial expression, not a bound.

    The closed-form logarithmic terms of the modulated-link rate
    expansion, without the hypergeometric corrections (which have no
    closed form here) and without the conditional entropy.  Useful for
    eyeballing how much of the numerically computed rate the displayed
    terms explain; never used in region assembly.
    """
    ns, nt, kap = eff.n_s, eff.n_t_eff, eff.kappa_eff
    if nt <= kap or ns <= 0.0:
        raise DomainError("partial expansion needs n_t_eff > kappa_eff and n_s > 0")
    value = np.log((ns + 1.0) * nt * (nt - kap + 1.0) / (nt - kap))
    value += ns * np.log((ns + 1.0) / ns)
    value += ns * np.log(nt / (nt - kap))
    value += (kap * ns + nt) * np.log((nt - kap + 1.0) / (nt - kap))
    return float(value)


def continuous_phase_mi(eff: EffectiveChannel, numerics: RegionNumerics = RegionNumerics()) -> float:
    """Mutual information of the uniformly phase-modulated link, in nats.

    Entropy of the phase-averaged joint state, from its photon-number-sector
    spectrum at the numerics' cutoff, minus the closed-form conditional
    entropy.  Equals the dense Fock route (entropy of
    phase_average_fock(conditional_output_density(...))) to rounding.
    Nonnegative up to numerical noise; values above -1e-9 are clamped to
    zero.
    """
    if eff.n_s == 0.0 or eff.kappa_eff == 0.0:
        return 0.0
    eigs, deficit = fock.phase_averaged_spectrum(eff, numerics.cutoff, numerics.psk_order, numerics.tail_tol)
    if deficit > 4.0 * numerics.tail_tol:
        raise fock.TruncationError(
            f"output trace deficit {deficit:.3e} exceeds budget; raise the cutoff"
        )
    value = fock.spectral_entropy(eigs) - conditional_entropy_term(eff)
    if value < -1e-9:
        raise fock.TruncationError(f"mutual information {value:.3e} below -1e-9; numerics inconsistent")
    return max(value, 0.0)


def achievable_region(p: MacParams, m: ModulationConfig, numerics: RegionNumerics = RegionNumerics()) -> RateRegion:
    """Assemble the achievable region from the four link evaluations.

    Per-sender bounds use the interference-cancelled (conditioned)
    links; the sum bound takes the better decoding order, pairing one
    unconditioned link with the other conditioned one.
    """
    eff_x_cond = effective_params(p, m, "x", conditioned=True)
    eff_y_cond = effective_params(p, m, "y", conditioned=True)
    eff_x_unc = effective_params(p, m, "x", conditioned=False)
    eff_y_unc = effective_params(p, m, "y", conditioned=False)

    mi_x_cond = continuous_phase_mi(eff_x_cond, numerics)
    mi_y_cond = continuous_phase_mi(eff_y_cond, numerics)
    mi_x_unc = continuous_phase_mi(eff_x_unc, numerics)
    mi_y_unc = continuous_phase_mi(eff_y_unc, numerics)

    order_x_first = mi_x_unc + mi_y_cond
    order_y_first = mi_y_unc + mi_x_cond
    if order_x_first >= order_y_first:
        sum_bound, branch = order_x_first, "x-unconditioned"
    else:
        sum_bound, branch = order_y_first, "y-unconditioned"
    # the max never falls below either of its arguments unless one is NaN
    if not (sum_bound >= order_x_first - 1e-15 and sum_bound >= order_y_first - 1e-15):
        raise NumericalError(f"sum bound {sum_bound!r} below a decoding order {(order_x_first, order_y_first)}")

    vertices = _assemble_vertices(mi_x_cond, mi_y_cond, sum_bound)
    validity = {
        "x_conditioned": noise_condition_ok(eff_x_cond),
        "y_conditioned": noise_condition_ok(eff_y_cond),
        "x_unconditioned": noise_condition_ok(eff_x_unc),
        "y_unconditioned": noise_condition_ok(eff_y_unc),
    }
    return RateRegion(
        x_bound=mi_x_cond,
        y_bound=mi_y_cond,
        sum_bound=sum_bound,
        sum_branch=branch,
        sum_active=sum_bound < mi_x_cond + mi_y_cond,
        vertices=vertices,
        validity=validity,
        sum_candidates=(order_x_first, order_y_first),
    )


def _assemble_vertices(x_bound: float, y_bound: float, sum_bound: float) -> list:
    """Counterclockwise vertices of the three-constraint polygon."""
    x_cap = min(x_bound, sum_bound)
    y_cap = min(y_bound, sum_bound)
    if x_cap + y_cap <= sum_bound:
        raw = [(0.0, 0.0), (x_cap, 0.0), (x_cap, y_cap), (0.0, y_cap)]
    else:
        raw = [
            (0.0, 0.0),
            (x_cap, 0.0),
            (x_cap, sum_bound - x_cap),
            (sum_bound - y_cap, y_cap),
            (0.0, y_cap),
        ]
    scale = max(x_bound, y_bound, 1e-30)
    vertices = []
    for vx, vy in raw:
        if vertices and abs(vx - vertices[-1][0]) <= 1e-12 * scale and abs(vy - vertices[-1][1]) <= 1e-12 * scale:
            continue
        vertices.append((float(vx), float(vy)))
    while len(vertices) > 1 and vertices[0] == vertices[-1]:
        vertices.pop()
    return vertices


def covert_rectangle(p: MacParams, s: float) -> RateRegion:
    """Low-photon limit of the region: a rectangle with -s ln s scaling.

    Per-sender bound kappa tau / (1 + (1 - kappa) n_b) * s ln(1/s)
    (tau -> 1 - tau for the second sender).
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"signal photon number must lie in (0, 1), got {s}")
    scale = -s * np.log(s) / (1.0 + p.n_t)
    x_bound = float(p.kappa * p.tau * scale)
    y_bound = float(p.kappa * (1.0 - p.tau) * scale)
    return RateRegion(
        x_bound=x_bound,
        y_bound=y_bound,
        sum_bound=x_bound + y_bound,
        sum_branch="rectangle-limit",
        sum_active=False,
        vertices=_assemble_vertices(x_bound, y_bound, x_bound + y_bound),
        validity={},
    )
