"""Achievable rate regions: the general two-sender region and its covert limit.

The region is an intersection of three half-planes: per-sender bounds
from the heterodyne-conditioned point-to-point links and a sum bound
that is the better of the two decoding orders.  Each mutual information
is the entropy of the phase-averaged (B, idler) state minus the
closed-form conditional entropy.  That entropy comes from the
photon-number spectrum of ``phase_averaged_spectra``: the link's thermal
loss is pure loss followed by an amplifier with closed-form Kraus laws
(``_kraus_laws``), so no environment is truncated, and the averaged state
splits into small blocks by photon difference and phase class, so no dense
Fock matrix is built.  A region's four links are one batch (``link_mis``):
float tail tests, one exp over the Kraus-law grid (the loss rows carry the TMSV
photon law in their exponents) and an entropy unmasked when the spectrum is
positive.  The dense Fock route (fock.psk_ensemble_mi) is the tests' oracle,
and both refuse a truncation by one rule: ``_check_tail`` for each cutoff's geometric
tail and ``_check_deficit`` for the 4 tail_tol trace-deficit budget.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import EffectiveChannel, MacParams, ModulationConfig, effective_params
from .errors import DomainError, NumericalError, PhysicalityError, TruncationError, check_count, check_real
from .gaussian import _g

__all__ = [
    "RegionNumerics",
    "RateRegion",
    "conditional_entropy_term",
    "noise_condition_ok",
    "required_cutoff",
    "photon_distribution_thermal",
    "spectral_entropy",
    "phase_averaged_spectra",
    "link_mis",
    "continuous_phase_mi",
    "achievable_region",
    "covert_rectangle",
]

DEFAULT_TAIL_TOL = 1e-8

# Largest Fock cutoff a region accepts; it keeps a configured cutoff from
# asking for more memory than the machine has.  At 512, which holds a TMSV
# with n_s up to about 25 within the default tail budget, one link MI takes
# about 1.2 s and 100 MB peak with psk_order 64, and 0.07 s with a
# psk_order of at least the cutoff.
MAX_CUTOFF = 512


@dataclass(frozen=True)
class RegionNumerics:
    """Fock-space settings for the mutual-information evaluations.

    ``psk_order`` is the number L >= 2 of PSK phases 2 pi k / L; an L of
    at least the cutoff makes the discrete phase average equal the
    continuous one on the truncated space.
    """

    cutoff: int = 24
    psk_order: int = 64
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        check_count("cutoff", self.cutoff, 1, MAX_CUTOFF)
        check_count("psk_order", self.psk_order, 2)
        check_real("tail_tol", self.tail_tol, 0, 1, "()")


@dataclass(frozen=True)
class RateRegion:
    """Achievable rate pairs x <= x_bound, y <= y_bound, x + y <= sum_bound in nats per channel use."""

    x_bound: float
    y_bound: float
    sum_bound: float
    sum_branch: str
    validity: dict = field(default_factory=dict)
    sum_candidates: tuple = ()

    @property
    def sum_active(self) -> bool:
        """Whether the sum bound cuts the rectangle of the two per-sender bounds."""
        return self.sum_bound < self.x_bound + self.y_bound

    @property
    def vertices(self) -> list:
        """Counterclockwise vertices of the three-constraint polygon."""
        x_cap = min(self.x_bound, self.sum_bound)
        y_cap = min(self.y_bound, self.sum_bound)
        if x_cap + y_cap <= self.sum_bound:
            raw = [(0.0, 0.0), (x_cap, 0.0), (x_cap, y_cap), (0.0, y_cap)]
        else:
            raw = [
                (0.0, 0.0),
                (x_cap, 0.0),
                (x_cap, self.sum_bound - x_cap),
                (self.sum_bound - y_cap, y_cap),
                (0.0, y_cap),
            ]
        scale = max(self.x_bound, self.y_bound, 1e-30)
        vertices = []
        for vx, vy in raw:
            if vertices and abs(vx - vertices[-1][0]) <= 1e-12 * scale and abs(vy - vertices[-1][1]) <= 1e-12 * scale:
                continue
            vertices.append((float(vx), float(vy)))
        while len(vertices) > 1 and vertices[0] == vertices[-1]:
            vertices.pop()
        return vertices

    def constraints(self):
        return [
            ("X-bound", self.x_bound),
            ("Y-bound", self.y_bound),
            ("sum-bound", self.sum_bound),
        ]


def conditional_entropy_term(eff: EffectiveChannel) -> float:
    """Entropy g(mu+ - 1/2) + g(mu- - 1/2) of the conditional Gaussian state,
    mu = nu/2 its symplectic eigenvalues."""
    kap, nt, ns = eff.kappa_eff, eff.n_t_eff, eff.n_s
    total = nt + (1.0 + kap) * ns + 1.0
    root = math.sqrt(max(total * total - 4.0 * kap * ns * (ns + 1.0), 0.0))
    shift = nt + (kap - 1.0) * ns
    # floating-point dips below the pure-state floor are clamped
    return _g(max(0.5 * (root + shift) - 0.5, 0.0)) + _g(max(0.5 * (root - shift) - 0.5, 0.0))


def noise_condition_ok(eff: EffectiveChannel) -> bool:
    """Noise floor under which the finite-constellation convergence is stated."""
    kap, ns = eff.kappa_eff, eff.n_s
    lower = max(kap * ns - 1.0, (-(1.0 + 2.0 * kap * ns) + math.sqrt(4.0 * kap * ns * ns + 4.0 * kap * ns + 1.0)) / 2.0)
    return eff.n_t_eff > lower


def required_cutoff(n_mean: float, tail_tol: float) -> int:
    """Smallest d with thermal/TMSV tail (n/(n+1))^d <= tail_tol, for tail_tol in (0, 1)."""
    check_real("tail_tol", tail_tol, 0, 1, "()")
    check_real("mean photon number", n_mean)
    if n_mean <= 0.0:
        return 1
    need = _tail_length(n_mean, tail_tol)
    if need == math.inf:
        raise DomainError(f"mean photon number {n_mean} is too large for any cutoff")
    return max(1, math.ceil(need))


def _tail_length(n_mean: float, tol: float) -> float:
    """Real d with (n/(n+1))^d = tol for n > 0, not rounding n / (n + 1) to 1 above n = 2^53."""
    return math.log(tol) / -math.log1p(1.0 / n_mean)


def _check_tail(what: str, mean: float, cutoff: int, tail_tol: float, allowance: float = 1.0) -> None:
    """The one truncation rule, for the product and the oracle: reject, in float math on checked
    arguments, a cutoff whose geometric tail (m/(m+1))^cutoff of mean m exceeds allowance tail_tol.
    The error names ``required_cutoff(mean, tail_tol)`` and ``what``, formatted with the mean."""
    if mean > 0.0 and _tail_length(mean, allowance * tail_tol) > cutoff:
        need = required_cutoff(mean, tail_tol)
        msg = f"cutoff {cutoff} keeps {what.format(mean=mean)} above {tail_tol:g}; need d >= {need}"
        raise TruncationError(msg, required_cutoff=need)


def _check_deficit(deficit: float, tail_tol: float) -> None:
    """Reject a state whose trace deficit exceeds its budget of 4 tail_tol."""
    if deficit > 4.0 * tail_tol:
        raise TruncationError(f"output trace deficit {deficit:.3e} exceeds budget {4.0 * tail_tol:g}; raise the cutoff")


# most photon levels of a photon-number law, about 32 MB for a table of four laws
_MAX_LAW_LEVELS = 1 << 20


def photon_distribution_thermal(n_mean, cutoff: int) -> np.ndarray:
    """Geometric photon-number law (n/(n+1))^k / (n+1) for k < cutoff, one row per mean of an
    array of means; a zero mean gives the vacuum row [1, 0, ...] through 0^0 = 1."""
    check_count("cutoff", cutoff, 1, _MAX_LAW_LEVELS)
    n = np.asarray(n_mean, dtype=float)[..., None]
    # two ufunc reductions, which NaN fails, cost about as much as one elementwise sign check
    low, high = np.minimum.reduce(n, axis=None, initial=0.0), np.maximum.reduce(n, axis=None, initial=0.0)
    if not (low >= 0.0 and high < np.inf):
        raise DomainError(f"mean photon number must be {'finite' if low >= 0.0 else '>= 0'}, got {n_mean}")
    return (n / (n1 := n + 1.0)) ** np.arange(cutoff) / n1


def spectral_entropy(eigs: np.ndarray) -> float | np.ndarray:
    """Entropy -sum lambda ln lambda in nats of a density-matrix spectrum, or of each row of a stack."""
    # NaN fails the test, and an empty spectrum passes it with entropy 0
    if not (low := eigs.min(initial=np.inf)) >= -1e-10:
        raise PhysicalityError(f"density matrix has eigenvalue {low:.3e} < -1e-10")
    # 0 ln 0 = 0, and a rounding below 0 counts as 0; a positive spectrum needs no mask
    logs = np.log(eigs) if low > 0.0 else np.log(eigs, out=np.zeros(eigs.shape), where=eigs > 0.0)
    entropy = -np.multiply(logs, eigs, out=logs).sum(axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy


# block-row entries built per batch of equal-size blocks; this bounds the
# scratch memory of a large cutoff with a small PSK period
BLOCK_BATCH = 1 << 20


@lru_cache(maxsize=8)
def _binomial_basis(size: int, d_in: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows [ln C(r, m), m, r - m, 1] over r < size, m < d_in at flat index r d_in + m, 0 where m > r, and
    ``rows`` rows of the 0/1 indicator of m <= r (a same-shape multiply takes about half a broadcast one's time)."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(size)])
    r, m = np.divmod(np.arange(size * d_in), d_in)
    lower = np.tile((m <= r).astype(float), (rows, 1))
    basis = lower[0] * np.array([log_fact[r] - log_fact[m] - log_fact[r - m], m, r - m, np.ones(r.size)])
    basis.flags.writeable = lower.flags.writeable = False
    return basis, lower


def _log(y: float) -> float:
    """ln y, with ln 0 a finite -1e6: 0 ln 0 is then 0 with no mask, and for r < 10^6 any
    count of it from 1 up underflows exp, whatever ln C(r, m) <= r ln 2 it meets."""
    return math.log(y) if y > 0.0 else -1e6


def _kraus_laws(kappa, n_t, d_in: int, d_out: int, n_s=None) -> tuple[np.ndarray, np.ndarray]:
    """Photon-number laws of thermal loss as pure loss, then an amplifier.

    Thermal loss of transmissivity kappa and added noise n_t is pure loss
    eta = kappa / G followed by the quantum-limited amplifier of gain
    G = 1 + n_t (Caruso, Giovannetti & Holevo, NJP 8, 310 (2006)), for
    every kappa in [0, 1].  Returns ``loss[k, m]``, the binomial law
    C(k, m) eta^m (1 - eta)^(k - m) of the m < d_in photons that survive k,
    and ``amp[m, x]`` = C(x, m) G^-(m+1) (1 - 1/G)^(x - m), the amplifier's
    law of x < d_out photons out of m.  These are the squared Kraus
    amplitudes <m|A_j|k> (j = k - m photons lost) and <x|B_i|m>
    (i = x - m photons added) of Ivan, Sabapathy & Simon, PRA 84, 042311
    (2011), all nonnegative.  Both are C(r, m) c a^m b^(r - m) over r >= m,
    (a, b, c) = (eta, 1 - eta, 1) and (1/G, 1 - 1/G, 1/G): each law's
    coefficients [1, ln a, ln b, ln c], from math on its link's floats,
    times one cached basis [ln C(r, m), m, r - m, 1] (``_binomial_basis``) and
    one exp give both laws of every link, the amplifier as its transpose.
    Given the links' TMSV means n_s, ``loss[k, m]`` is weighted by the TMSV's
    photon law p_k = (1 - q) q^k, q = n_s / (1 + n_s): as k = m + (k - m), that is
    (a, b, c) = (eta q, (1 - eta) q, 1 - q) in the same exp.
    The m > r entries have exponent 0, so every exponent is finite (an exp
    of -inf is about four times slower), and the indicator of m <= r zeroes them.
    Arrays of B kappas, n_ts (and n_ss) give laws stacked in front, (B, d, d).
    """
    columns = np.array((kappa, n_t) if n_s is None else (kappa, n_t, n_s), dtype=float)
    kappas, noises, *means = columns.reshape(len(columns), -1).tolist()
    weights = [(_log(n / (1.0 + n)), -math.log1p(n)) for n in means[0]] if means else [(0.0, 0.0)] * len(kappas)
    coefficients = []
    for kap, noise, (ln_q, ln_p) in zip(kappas, noises, weights):
        gain, ln_g = 1.0 + noise, -math.log1p(noise)
        coefficients += [1.0, _log(kap / gain) + ln_q, _log((gain - kap) / gain) + ln_q, ln_p]
        coefficients += [1.0, ln_g, _log(noise / gain), ln_g]
    size = max(d_in, d_out)
    basis, lower = _binomial_basis(size, d_in, 2 * len(kappas))
    law = np.exp(np.array(coefficients, dtype=float).reshape(-1, 4) @ basis)
    law *= lower
    law = law.reshape(*columns.shape[1:], 2, size, d_in)
    return law[..., 0, :d_in, :], law[..., 1, :d_out, :].swapaxes(-1, -2)


def phase_averaged_spectra(effs, cutoff: int, psk_order, tail_tol=DEFAULT_TAIL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and trace deficits of the PSK phase-averaged (B, idler) states of links.

    Row i of the ``(len(effs), cutoff**2)`` spectra and entry i of the
    deficits belong to ``effs[i]``, whose output and TMSV tails meet
    ``_check_tail`` in link order before any Fock work.  Each state is the oracle's
    fock.phase_average_fock(fock.conditional_output_density(eff, cutoff), psk_order),
    never built densely, and with no environment cutoff: the channel is
    pure loss then an amplifier (``_kraus_laws``), whose Kraus operators
    A_j remove and B_i add photons.  So |k, k> (signal, idler) reaches
    |x, k> through the pairs (i, j) with i - j = x - k, and entries of the
    output couple (x, k) and (y, l) only when x - k = y - l.  The phase
    average keeps them only when x = y (mod L).  The state is therefore a
    direct sum of Gram blocks V_B V_B^T, one per (x - k, x mod L), with the
    row V[(x, k), j] = sqrt(p_k) <x|B_i A_j|k>, i = x - k + j, indexed by
    the j <= k < cutoff photons lost and p_k the TMSV's photon law, which
    ``_kraus_laws`` folds into the loss law.  For L >= cutoff every block is
    1 x 1 and the spectrum is p_k P(x|k) = (p loss) @ amp, one batched product.
    The trace deficit is 1 minus the summed block traces: the TMSV tail and
    the output levels x >= cutoff.
    """
    check_count("cutoff", cutoff, 1, MAX_CUTOFF)
    check_count("psk_order", psk_order)
    check_real("tail_tol", tail_tol, 0, 1, "()")
    if not effs:
        return np.zeros((0, cutoff**2)), np.zeros(0)
    for i, eff in enumerate(effs):
        # the B marginal is thermal with mean kappa_eff n_s + n_t_eff, so by data processing the
        # output trace deficit is at least its tail minus tail_tol: a tail beyond 5 tail_tol would
        # fail the 4 tail_tol deficit check (``_check_deficit``) after the full build
        _check_tail("the output tail (mean {mean:.6g})", eff.kappa_eff * eff.n_s + eff.n_t_eff, cutoff, tail_tol, 5.0)
        if i == 0 or eff.n_s != effs[i - 1].n_s:  # a region's links share one n_s and one TMSV test
            _check_tail("TMSV tail", eff.n_s, cutoff, tail_tol)
    kappa, n_t, n_s = zip(*[(eff.kappa_eff, eff.n_t_eff, eff.n_s) for eff in effs])
    loss, amp = _kraus_laws(kappa, n_t, cutoff, cutoff, n_s)
    # law[i, (k, x)] is the squared norm of row (x, k) of link i
    law = (loss @ amp).reshape(len(effs), -1)
    deficits = 1.0 - law.sum(axis=-1)
    period = min(psk_order, cutoff)
    if period == cutoff:
        return law, deficits
    x, k = np.divmod(np.arange(cutoff**2), cutoff)
    key = (x - k + cutoff - 1) * period + x % period
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sizes = np.diff(np.append(starts, order.size))
    k, j = np.ogrid[:cutoff, :cutoff]
    spectra = []
    for loss_link, amp_link in zip(loss, amp):
        # row (x, k) is scale[k, j] sqrt(amp[k - j, x]) over the photons lost j <= k
        scale = np.sqrt(np.where(j <= k, loss_link[k, np.maximum(k - j, 0)], 0.0))
        # window[x, cutoff - 1 - k, j] = sqrt(amp[k - j, x]), zero for j > k
        padded = np.pad(np.sqrt(amp_link[::-1].T), ((0, 0), (0, cutoff - 1)))
        window = np.lib.stride_tricks.sliding_window_view(padded, cutoff, axis=1)
        eigs = []
        for size in sorted(set(sizes.tolist())):
            heads = starts[sizes == size]
            step = max(1, BLOCK_BATCH // (size * cutoff))
            for first in range(0, heads.size, step):
                rows, cols = np.divmod(order[heads[first : first + step, None] + np.arange(size)], cutoff)
                blocks = scale[cols] * window[rows, cutoff - 1 - cols]
                eigs.append(np.linalg.eigvalsh(blocks @ blocks.transpose(0, 2, 1)).ravel())
        spectra.append(np.concatenate(eigs))
    return np.array(spectra), deficits


def link_mis(effs, numerics: RegionNumerics = RegionNumerics()) -> list:
    """Mutual informations of phase-modulated links, in nats, in one batched pass.

    Entropy of each phase-averaged joint state, from its photon-number
    spectrum, minus the closed-form conditional entropy; equal to the dense
    Fock route to rounding once its environment tail is negligible.  Links
    with n_s = 0 or kappa_eff = 0 are 0.0 without any check; the others are
    checked in link order, the output tail (allowed 5 tail_tol) and TMSV
    tail by ``_check_tail`` before the batch, and ``_check_deficit`` and the
    -1e-9 floor (above which values clamp to 0) after it.
    """
    live = [i for i, eff in enumerate(effs) if eff.n_s > 0.0 and eff.kappa_eff > 0.0]
    values = [0.0] * len(effs)
    links = [effs[i] for i in live]
    spectra, deficits = phase_averaged_spectra(links, numerics.cutoff, numerics.psk_order, numerics.tail_tol)
    for i, deficit, entropy in zip(live, deficits.tolist(), spectral_entropy(spectra).tolist()):
        _check_deficit(deficit, numerics.tail_tol)
        value = entropy - conditional_entropy_term(effs[i])
        if value < -1e-9:
            raise TruncationError(f"mutual information {value:.3e} below -1e-9; numerics inconsistent")
        values[i] = max(value, 0.0)
    return values


def continuous_phase_mi(eff: EffectiveChannel, numerics: RegionNumerics = RegionNumerics()) -> float:
    """Mutual information of the uniformly phase-modulated link, in nats: the one-link view of ``link_mis``."""
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

    names = ("x_conditioned", "y_conditioned", "x_unconditioned", "y_unconditioned")
    validity = {name: noise_condition_ok(eff) for name, eff in zip(names, effs)}
    return RateRegion(
        x_bound=mi_x_cond,
        y_bound=mi_y_cond,
        sum_bound=sum_bound,
        sum_branch=branch,
        validity=validity,
        sum_candidates=(order_x_first, order_y_first),
    )


def _low_photon_coefficients(p: MacParams) -> tuple[float, float]:
    """Each sender's rate per unit s ln(1/s) in the low-photon limit:
    kappa tau / (1 + n_t) for x and kappa (1 - tau) / (1 + n_t) for y."""
    return p.kappa * p.tau / (1.0 + p.n_t), p.kappa * (1.0 - p.tau) / (1.0 + p.n_t)


def covert_rectangle(p: MacParams, s: float) -> RateRegion:
    """Low-photon limit of the region: a rectangle with -s ln s scaling.

    Per-sender bound kappa tau / (1 + (1 - kappa) n_b) * s ln(1/s)
    (tau -> 1 - tau for the second sender).
    """
    check_real("s", s, 0, 1, "()")
    gain = -s * np.log(s)
    coeff_x, coeff_y = _low_photon_coefficients(p)
    x_bound = float(coeff_x * gain)
    y_bound = float(coeff_y * gain)
    return RateRegion(
        x_bound=x_bound,
        y_bound=y_bound,
        sum_bound=x_bound + y_bound,
        sum_branch="rectangle-limit",
    )
