"""Achievable rate regions: the general two-sender region and its covert limit.

The region is an intersection of three half-planes: per-sender bounds
from the heterodyne-conditioned point-to-point links and a sum bound
that is the better of the two decoding orders.  Each mutual information
is the entropy of the phase-averaged (B, idler) state minus the
closed-form conditional entropy.  That entropy comes from the
photon-number spectrum of fock.phase_averaged_spectra: the link's
thermal loss is pure loss followed by an amplifier, so no environment is
truncated, and the averaged state splits into small blocks by photon
difference and phase class, so no dense Fock matrix is built.  A
region's four links are one batch (``link_mis``).  The dense Fock route
(fock.psk_ensemble_mi) is the oracle the tests compare against.
"""

import math
from dataclasses import dataclass, field
from numbers import Real

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
    "link_mis",
    "continuous_phase_mi",
    "achievable_region",
    "covert_rectangle",
]


# Largest Fock cutoff a region accepts; it keeps a configured cutoff from
# asking for more memory than the machine has.  At 512, which holds a TMSV
# with n_s up to about 25 within the default tail budget, one link MI takes
# about 1.2 s and 100 MB peak with psk_order 64, and 0.07 s with a
# psk_order of at least twice the cutoff.
MAX_CUTOFF = 512


@dataclass(frozen=True)
class RegionNumerics:
    """Fock-space settings for the mutual-information evaluations.

    ``psk_order`` of at least twice the cutoff makes the discrete phase
    average equal the continuous one on the truncated space.
    """

    cutoff: int = 24
    psk_order: int = 64
    tail_tol: float = fock.DEFAULT_TAIL_TOL

    def __post_init__(self):
        if not (isinstance(self.cutoff, (int, np.integer)) and 1 <= self.cutoff <= MAX_CUTOFF):
            raise DomainError(f"cutoff must be an integer in [1, {MAX_CUTOFF}], got {self.cutoff!r}")
        if not (isinstance(self.psk_order, (int, np.integer)) and self.psk_order >= 1):
            raise DomainError(f"psk_order must be an integer >= 1, got {self.psk_order!r}")
        if not (isinstance(self.tail_tol, Real) and math.isfinite(self.tail_tol) and 0.0 < self.tail_tol < 1.0):
            raise DomainError(f"tail_tol must be a finite real in (0, 1), got {self.tail_tol!r}")


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


def _conditional_entropies(kap, nt, ns) -> np.ndarray:
    """Entropy g(mu+ - 1/2) + g(mu- - 1/2) of each link's conditional Gaussian state,
    mu = nu/2 its symplectic eigenvalues, from columns of kappa_eff, n_t_eff and n_s."""
    disc = (nt + (1.0 + kap) * ns + 1.0) ** 2 - 4.0 * kap * ns * (ns + 1.0)
    root = np.sqrt(np.maximum(disc, 0.0))
    shift = nt + (kap - 1.0) * ns
    # floating-point dips below the pure-state floor are clamped
    return g_entropy(np.maximum(0.5 * (root + np.array([shift, -shift])) - 0.5, 0.0)).sum(axis=0)


def conditional_entropy_term(eff: EffectiveChannel) -> float:
    """Entropy g(mu+ - 1/2) + g(mu- - 1/2) of the conditional Gaussian state."""
    return float(_conditional_entropies(eff.kappa_eff, eff.n_t_eff, eff.n_s))


def noise_condition_ok(eff: EffectiveChannel) -> bool:
    """Noise floor under which the finite-constellation convergence is stated."""
    kap, ns = eff.kappa_eff, eff.n_s
    lower = max(kap * ns - 1.0, (-(1.0 + 2.0 * kap * ns) + np.sqrt(4.0 * kap * ns**2 + 4.0 * kap * ns + 1.0)) / 2.0)
    return bool(eff.n_t_eff > lower)


def link_mis(effs, numerics: RegionNumerics = RegionNumerics()) -> list:
    """Mutual informations of phase-modulated links, in nats, in one batched pass.

    Entropy of each phase-averaged joint state, from its photon-number
    spectrum, minus the closed-form conditional entropy; equal to the dense
    Fock route to rounding once its environment tail is negligible.  Links
    with n_s = 0 or kappa_eff = 0 are 0.0 without any check; the others are
    checked in link order, the cutoff rules before the batch and the
    4 tail_tol deficit and the -1e-9 floor (above which values clamp to 0)
    after it.
    """
    live = [i for i, eff in enumerate(effs) if eff.n_s > 0.0 and eff.kappa_eff > 0.0]
    values = [0.0] * len(effs)
    if not live:
        return values
    links = [effs[i] for i in live]
    spectra, deficits = fock.phase_averaged_spectra(links, numerics.cutoff, numerics.psk_order, numerics.tail_tol)
    columns = np.array([(eff.kappa_eff, eff.n_t_eff, eff.n_s) for eff in links]).T
    mis = fock.spectral_entropy(spectra) - _conditional_entropies(*columns)
    for i, deficit, value in zip(live, deficits.tolist(), mis.tolist()):
        if deficit > 4.0 * numerics.tail_tol:
            raise fock.TruncationError(f"output trace deficit {deficit:.3e} exceeds budget; raise the cutoff")
        if value < -1e-9:
            raise fock.TruncationError(f"mutual information {value:.3e} below -1e-9; numerics inconsistent")
        values[i] = max(value, 0.0)
    return values


def continuous_phase_mi(eff: EffectiveChannel, numerics: RegionNumerics = RegionNumerics()) -> float:
    """Mutual information of the uniformly phase-modulated link, in nats:
    the one-link view of ``link_mis``."""
    return link_mis([eff], numerics)[0]


def achievable_region(p: MacParams, m: ModulationConfig, numerics: RegionNumerics = RegionNumerics()) -> RateRegion:
    """Assemble the achievable region from the four link evaluations.

    Per-sender bounds use the interference-cancelled (conditioned)
    links; the sum bound takes the better decoding order, pairing one
    unconditioned link with the other conditioned one.
    """
    effs = [effective_params(p, m, sender, conditioned) for conditioned in (True, False) for sender in "xy"]
    mi_x_cond, mi_y_cond, mi_x_unc, mi_y_unc = link_mis(effs, numerics)

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
    names = ("x_conditioned", "y_conditioned", "x_unconditioned", "y_unconditioned")
    validity = {name: noise_condition_ok(eff) for name, eff in zip(names, effs)}
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


def _low_photon_coefficients(p: MacParams) -> tuple[float, float]:
    """Each sender's rate per unit s ln(1/s) in the low-photon limit:
    kappa tau / (1 + n_t) for x and kappa (1 - tau) / (1 + n_t) for y."""
    return p.kappa * p.tau / (1.0 + p.n_t), p.kappa * (1.0 - p.tau) / (1.0 + p.n_t)


def covert_rectangle(p: MacParams, s: float) -> RateRegion:
    """Low-photon limit of the region: a rectangle with -s ln s scaling.

    Per-sender bound kappa tau / (1 + (1 - kappa) n_b) * s ln(1/s)
    (tau -> 1 - tau for the second sender).
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"signal photon number must lie in (0, 1), got {s}")
    gain = -s * np.log(s)
    coeff_x, coeff_y = _low_photon_coefficients(p)
    x_bound = float(coeff_x * gain)
    y_bound = float(coeff_y * gain)
    return RateRegion(
        x_bound=x_bound,
        y_bound=y_bound,
        sum_bound=x_bound + y_bound,
        sum_branch="rectangle-limit",
        sum_active=False,
        vertices=_assemble_vertices(x_bound, y_bound, x_bound + y_bound),
        validity={},
    )
