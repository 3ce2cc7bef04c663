"""Brute-force ground truth in truncated Fock space, plus the region's spectrum.

The oracle checks the Gaussian closed forms by an independent route:
states are explicit density matrices on a cutoff-d photon-number basis
and entropies come straight from eigenvalues.  One beamsplitter,
exponentiated per whole sector of conserved total photon number
(``_beamsplitter_amplitudes``), is both the MAC's tau combiner and the
thermal-loss channel, where it mixes the mode with a truncated thermal
environment.  Its amplitudes are kept per sector, indexed by the two
inputs and one output: photon conservation fixes the other output, so
no 4-index tensor is built.  Real states stay real; only phase
rotations make them complex.  The states stay dense, but no step holds a
temporary beyond them: ``psk_ensemble_mi`` at cutoff 24 peaks at about
three 576 x 576 densities (8 MB).
The region's spectrum, ``phase_averaged_spectra``, writes thermal loss
as pure loss then a quantum-limited amplifier, whose closed-form Kraus
laws need no environment and no matrix exponential, and never forms a
dense state; a batch of links shares one ``loss @ amp`` product.  The
dense route is its oracle.  The covert layer's per-slot laws belong to
the planner (``planner.slot_laws``), not to this module.

Truncation bookkeeping: each constructor takes a tail budget
``tail_tol`` and raises TruncationError (naming the required cutoff)
when the cutoff cannot hold the state's tail within budget.  The
achieved tail of a state is always available as ``state.tail()``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import EffectiveChannel, MacParams
from .errors import DomainError, PhysicalityError, ShapeError, TruncationError

DEFAULT_TAIL_TOL = 1e-8
# entries of one slab of FockDensity's Hermitian check
HERMITIAN_SLAB = 1 << 16

__all__ = [
    "FockVector",
    "FockDensity",
    "required_cutoff",
    "tmsv_fock",
    "thermal_fock",
    "phase_rotate_fock",
    "thermal_loss_fock",
    "mac_joint_fock",
    "entropy_fock",
    "spectral_entropy",
    "phase_average_fock",
    "conditional_output_density",
    "phase_averaged_spectra",
    "psk_ensemble_mi",
    "photon_distribution_thermal",
    "moments_from_fock",
]


@dataclass(frozen=True)
class FockVector:
    """Pure state on ``modes`` modes, amplitudes indexed by photon numbers."""

    cutoff: int
    modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        # real amplitudes stay real: real products and spectra cost less
        amps = np.asarray(self.amplitudes, dtype=complex if np.iscomplexobj(self.amplitudes) else float)
        object.__setattr__(self, "amplitudes", amps.reshape((self.cutoff,) * self.modes))

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def tail(self) -> float:
        return 1.0 - self.norm_sq()

    def to_density(self) -> "FockDensity":
        flat = self.amplitudes.reshape(-1)
        return FockDensity(self.cutoff, self.modes, np.outer(flat, flat.conj()))

    def partial_trace(self, keep) -> "FockDensity":
        """Reduced density on the ``keep`` modes, straight from the amplitudes.

        With the kept axes first, the amplitudes form a d^k x d^(m-k)
        matrix A and the reduced state is A A^dag, so the d^m x d^m
        density of ``to_density`` is never built.
        """
        keep = sorted(keep)
        traced = [i for i in range(self.modes) if i not in keep]
        dim = self.cutoff ** len(keep)
        amps = self.amplitudes.transpose(keep + traced).reshape(dim, -1)
        return FockDensity(self.cutoff, len(keep), amps @ amps.conj().T)


@dataclass(frozen=True)
class FockDensity:
    """Density matrix on ``modes`` modes with a common cutoff."""

    cutoff: int
    modes: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.cutoff**self.modes
        mat = np.asarray(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        if mat.shape != (dim, dim):
            raise ShapeError(f"density matrix shape {mat.shape}, expected {(dim, dim)}")
        # |rho - rho^dag| over slabs of about HERMITIAN_SLAB entries, so no temporary is
        # the size of rho; NaN entries fail it too
        step = max(1, HERMITIAN_SLAB // dim)
        for first in range(0, dim, step):
            rows = slice(first, first + step)
            if not np.abs(mat[rows] - mat[:, rows].conj().T).max() <= 1e-10:
                raise PhysicalityError("density matrix is not Hermitian to 1e-10")
        object.__setattr__(self, "matrix", mat)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def tail(self) -> float:
        return 1.0 - self.trace()

    def as_tensor(self) -> np.ndarray:
        shape = (self.cutoff,) * self.modes
        return self.matrix.reshape(shape + shape)

    def partial_trace(self, keep) -> "FockDensity":
        keep = sorted(keep)
        traced = [i for i in range(self.modes) if i not in keep]
        tensor = self.as_tensor()
        for count, mode in enumerate(traced):
            axis = mode - sum(1 for t in traced[:count] if t < mode)
            live = tensor.ndim // 2
            tensor = np.trace(tensor, axis1=axis, axis2=axis + live)
        dim = self.cutoff ** len(keep)
        return FockDensity(self.cutoff, len(keep), tensor.reshape(dim, dim))


def required_cutoff(n_mean: float, tail_tol: float) -> int:
    """Smallest d with thermal/TMSV tail (n/(n+1))^d <= tail_tol, for tail_tol in (0, 1)."""
    if not 0.0 < tail_tol < 1.0:  # NaN too
        raise DomainError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if n_mean <= 0.0:
        return 1
    if not n_mean < math.inf:  # NaN too
        raise DomainError(f"mean photon number must be finite, got {n_mean}")
    # ln(n / (n + 1)) without rounding n / (n + 1) to 1 above n = 2^53
    need = math.log(tail_tol) / -math.log1p(1.0 / n_mean)
    if need == math.inf:
        raise DomainError(f"mean photon number {n_mean} is too large for any cutoff")
    return max(1, math.ceil(need))


def _check_tmsv_cutoff(n_s: float, cutoff: int, tail_tol: float) -> None:
    """Reject a cutoff below 1, or one that leaves the TMSV tail (n_s / (n_s + 1))^cutoff above ``tail_tol``."""
    if cutoff < 1:
        raise DomainError(f"cutoff must be >= 1, got {cutoff}")
    need = required_cutoff(n_s, tail_tol)
    if cutoff < need:
        raise TruncationError(
            f"cutoff {cutoff} keeps TMSV tail above {tail_tol:g}; need d >= {need}",
            required_cutoff=need,
        )


def tmsv_fock(n_s: float, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Two-mode squeezed vacuum, amplitudes sqrt(n_s^k / (n_s+1)^(k+1)) on |k,k>."""
    if not 0.0 <= n_s < math.inf:
        raise DomainError(f"n_s must be finite and >= 0, got {n_s}")
    _check_tmsv_cutoff(n_s, cutoff, tail_tol)
    return FockVector(cutoff, 2, np.diag(np.sqrt(photon_distribution_thermal(n_s, cutoff))))


def thermal_fock(n_mean: float, cutoff: int) -> FockDensity:
    """Single-mode thermal state, diagonal geometric distribution."""
    return FockDensity(cutoff, 1, np.diag(photon_distribution_thermal(n_mean, cutoff)))


def photon_distribution_thermal(n_mean, cutoff: int) -> np.ndarray:
    """Geometric photon-number law (n/(n+1))^k / (n+1) for k < cutoff, one row per
    mean of an array of means; a zero mean gives the vacuum row [1, 0, ...]
    through 0^0 = 1."""
    n = np.asarray(n_mean, dtype=float)[..., None]
    # two ufunc reductions, which NaN fails, cost about as much as one elementwise sign check
    low, high = np.minimum.reduce(n, axis=None, initial=0.0), np.maximum.reduce(n, axis=None, initial=0.0)
    if not (low >= 0.0 and high < np.inf):
        raise DomainError(f"mean photon number must be {'finite' if low >= 0.0 else '>= 0'}, got {n_mean}")
    n1 = n + 1.0
    return (n / n1) ** np.arange(cutoff) / n1


def phase_rotate_fock(state, theta: float, mode: int = 0):
    """Apply exp(i 2 theta n_hat) on one mode of a vector or density."""
    if not isinstance(state, (FockVector, FockDensity)):
        raise ShapeError(f"expected FockVector or FockDensity, got {type(state).__name__}")
    if not 0 <= mode < state.modes:
        raise ShapeError(f"mode {mode} out of range for {state.modes} modes")
    if not theta:  # the identity; a real state stays real
        return state
    phases = np.exp(2j * theta * np.arange(state.cutoff))
    shape = [1] * state.modes
    shape[mode] = state.cutoff
    if isinstance(state, FockVector):
        return FockVector(state.cutoff, state.modes, state.amplitudes * phases.reshape(shape))
    ket, bra = phases.reshape(shape + [1] * state.modes), phases.conj().reshape([1] * state.modes + shape)
    dim = state.cutoff**state.modes
    return FockDensity(state.cutoff, state.modes, (state.as_tensor() * ket * bra).reshape(dim, dim))


def _hopping_block(xi: float, total: int) -> np.ndarray:
    """exp(xi (a^dag b - a b^dag)) on the whole sector of ``total`` photons.

    Rows and columns are the first-mode counts k = 0..total of the states
    |k, total - k>.  The generator is D (-i 2 J_x) D^-1 with D = diag(i^k)
    and 2 J_x the real symmetric tridiagonal matrix with off-diagonal
    sqrt((k + 1) (total - k)), whose eigenvalues are total - 2m; with
    2 J_x = V diag(lam) V^T the block is the real D V exp(-i xi lam) V^T D^-1.
    """
    k = np.arange(total)
    val = np.sqrt((k + 1.0) * (total - k))
    lam, vec = np.linalg.eigh(np.diag(val, -1) + np.diag(val, 1))
    phase = np.array([1.0, 1j, -1.0, -1j])[np.arange(total + 1) % 4]
    return ((phase[:, None] * vec * np.exp(-1j * xi * lam)) @ (vec.T * phase.conj())).real


def _beamsplitter_amplitudes(t: float, d_in: int, d_env: int, d_out: int) -> np.ndarray:
    """a[e, x, n] = <x, n + e - x|U|n, e> for e < d_env, x < d_out, n < d_in.

    U is the beamsplitter of transmissivity t, in the mode convention of
    beamsplitter_symplectic: a -> sqrt(t) a + sqrt(1-t) e,
    e -> -sqrt(1-t) a + sqrt(t) e.  U conserves the photon number, so the
    second output mode holds the n + e - x photons the first does not
    (a is zero for x > n + e) and needs no axis of its own.  Each sector
    of n + e photons is exponentiated whole (``_hopping_block``), so
    nothing is clipped but the levels x >= d_out; t = 0 is the swap
    |n, e> -> (-1)^n |e, n>.  Real.
    """
    xi = math.acos(min(1.0, math.sqrt(t)))
    a = np.zeros((d_env, d_out, d_in))
    for total in range(d_in + d_env - 1):
        x = np.arange(min(total + 1, d_out))[:, None]
        n = np.arange(max(0, total - d_env + 1), min(total + 1, d_in))
        a[total - n, x, n] = _hopping_block(xi, total)[x, n]
    return a


def _thermal_loss_superop(kappa: float, n_env: float, d_in: int, d_out: int, d_env: int) -> np.ndarray:
    """Matrix K with vec(rho') = K vec(rho) for the thermal-loss channel.

    K[(x, y), (n, m)] = sum_{e', e} p_e <x, e'|U|n, e> <m, e|U^dag|y, e'>
    with U the beamsplitter of transmissivity kappa and p the thermal law
    of the environment, truncated at d_env and renormalized.  Photon
    conservation fixes e' = n + e - x = m + e - y, so with the per-sector
    amplitudes t[e, x, n] = sqrt(p_e) <x, n + e - x|U|n, e>
    (``_beamsplitter_amplitudes``) K is the Gram sum over e alone, kept
    where x - n = y - m.  Only the output and one Gram of its size are
    ever held.  The environment output absorbs every signal photon, so
    the only truncation losses are the environment input tail and signal
    levels spilling past d_out; both show up in the output trace.  Real
    because U is real.
    """
    p_env = photon_distribution_thermal(n_env, d_env)
    amps = _beamsplitter_amplitudes(kappa, d_in, d_env, d_out) * np.sqrt(p_env / p_env.sum())[:, None, None]
    flat = amps.reshape(d_env, -1)
    gram = (flat.T @ flat).reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3)
    x, y, n, m = np.ogrid[:d_out, :d_out, :d_in, :d_in]
    return np.where(x - n == y - m, gram, 0.0).reshape(d_out * d_out, d_in * d_in)


def _env_cutoff_for(n_env: float, tail_tol: float, d_env) -> int:
    need = required_cutoff(n_env, tail_tol)
    if d_env is None:
        return need
    if d_env < need:
        raise TruncationError(
            f"environment cutoff {d_env} keeps thermal tail above {tail_tol:g}; need {need}",
            required_cutoff=need,
        )
    return int(d_env)


def thermal_loss_fock(
    state,
    kappa: float,
    n_b: float,
    d_env=None,
    mode: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> FockDensity:
    """Thermal-loss channel on one mode of ``state``: mix with a thermal(n_b)
    environment on a beamsplitter of transmissivity ``kappa`` and trace the
    environment out.  A FockVector enters through its amplitudes, so its
    density is never built whole."""
    if not 0.0 <= kappa <= 1.0:
        raise DomainError(f"kappa must lie in [0, 1], got {kappa}")
    if n_b < 0.0:
        raise DomainError(f"n_b must be >= 0, got {n_b}")
    if not 0 <= mode < state.modes:
        raise ShapeError(f"mode {mode} out of range for {state.modes} modes")
    d, modes = state.cutoff, state.modes
    d_env = _env_cutoff_for(n_b, tail_tol, d_env)
    superop = _thermal_loss_superop(kappa, n_b, d, d, d_env)

    # the superoperator acts on the mode's (ket, bra) axes, moved to the front
    if isinstance(state, FockVector):
        amps = np.moveaxis(state.amplitudes, mode, 0).reshape(d, 1, -1, 1)
        operand = (amps * amps.conj().reshape(1, d, 1, -1)).reshape(d * d, -1)
    else:
        operand = np.moveaxis(state.as_tensor(), (mode, modes + mode), (0, 1)).reshape(d * d, -1)
    out = superop @ operand
    del superop, operand  # released before the output copy
    dim = d**modes
    out = np.moveaxis(out.reshape((d,) * (2 * modes)), (0, 1), (mode, modes + mode))
    return FockDensity(d, modes, out.reshape(dim, dim))


def entropy_fock(rho: FockDensity) -> float:
    """Von Neumann entropy in nats from the eigenvalue spectrum."""
    return spectral_entropy(np.linalg.eigvalsh(rho.matrix))


def spectral_entropy(eigs: np.ndarray) -> float | np.ndarray:
    """Entropy -sum lambda ln lambda in nats of a density-matrix spectrum, or of each row of a stack."""
    if eigs.min() < -1e-10:
        raise PhysicalityError(f"density matrix has eigenvalue {eigs.min():.3e} < -1e-10")
    # 0 ln 0 = 0, and a rounding below 0 counts as 0
    entropy = -(eigs * np.log(eigs, out=np.zeros(eigs.shape), where=eigs > 0.0)).sum(axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy


def phase_average_fock(rho: FockDensity, psk_order, mode: int = 0) -> FockDensity:
    """Average ``rho`` over the PSK phase ensemble applied to one mode.

    The constellation is theta_k = 2 pi k / L under exp(i 2 theta n_hat),
    so a coherence between photon numbers n and m survives iff
    2 (n - m) = 0 (mod L); an L of at least twice the cutoff keeps only
    n = m, the continuous average.  This is a pinching, computed exactly.
    """
    if not 0 <= mode < rho.modes:
        raise ShapeError(f"mode {mode} out of range for {rho.modes} modes")
    n = np.arange(rho.cutoff)
    delta = n[:, None] - n[None, :]
    keep = np.mod(2 * delta, int(psk_order)) == 0
    shape = [1] * (2 * rho.modes)
    shape[mode] = rho.cutoff
    shape[rho.modes + mode] = rho.cutoff
    mask = keep.astype(float).reshape(shape)
    dim = rho.cutoff**rho.modes
    return FockDensity(rho.cutoff, rho.modes, (rho.as_tensor() * mask).reshape(dim, dim))


def conditional_output_density(
    eff: EffectiveChannel,
    cutoff: int,
    d_env=None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> FockDensity:
    """(B, idler) state of the point-to-point link for the zero-phase symbol.

    TMSV(n_s) with its signal sent through thermal loss of transmissivity
    kappa_eff and environment mean n_t_eff / (1 - kappa_eff).  Noise at
    kappa_eff = 1 has no finite thermal environment, so the dense route
    rejects it.
    """
    psi = tmsv_fock(eff.n_s, cutoff, tail_tol)
    if eff.kappa_eff >= 1.0:
        if eff.n_t_eff > 0.0:
            raise DomainError(f"kappa_eff = 1 with n_t_eff = {eff.n_t_eff} has no thermal environment")
        return psi.to_density()
    n_env = eff.n_t_eff / (1.0 - eff.kappa_eff)
    return thermal_loss_fock(psi, eff.kappa_eff, n_env, d_env=d_env, mode=0, tail_tol=tail_tol)


def _check_output_cutoff(eff: EffectiveChannel, cutoff: int, tail_tol: float) -> None:
    """Reject, before any Fock work, a cutoff too small for the B output.

    The B marginal is thermal with mean m = kappa_eff n_s + n_t_eff, so by
    data processing the output trace deficit is at least
    (m / (m + 1))^cutoff - tail_tol: beyond 5 tail_tol the 4 tail_tol
    deficit check would fail after the full build."""
    m = eff.kappa_eff * eff.n_s + eff.n_t_eff
    if m > 0.0 and (m / (m + 1.0)) ** cutoff > 5.0 * tail_tol:
        need = required_cutoff(m, tail_tol)
        msg = f"cutoff {cutoff} keeps the output tail (mean {m:.6g}) above {tail_tol:g}; need d >= {need}"
        raise TruncationError(msg, required_cutoff=need)


# block-row entries built per batch of equal-size blocks; this bounds the
# scratch memory of a large cutoff with a small PSK period
BLOCK_BATCH = 1 << 20


@lru_cache(maxsize=8)
def _binomial_basis(size: int, d_in: int) -> np.ndarray:
    """Read-only rows [ln C(r, m) (-inf for m > r), m, r - m, 1] over r < size, m < d_in, flattened."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(size)])
    r, m = np.ogrid[:size, :d_in]
    log_comb = np.where(m <= r, log_fact[r] - log_fact[m] - log_fact[np.abs(r - m)], -np.inf)
    basis = np.array(np.broadcast_arrays(log_comb, m, r - m, 1.0), dtype=float).reshape(4, -1)
    basis.flags.writeable = False
    return basis


def _log(y: float) -> float:
    """ln y, with ln 0 a finite -1e6: 0 ln 0 is then 0 with no mask, and for r < 10^6 any
    count of it from 1 up underflows exp, whatever ln C(r, m) <= r ln 2 it meets."""
    return math.log(y) if y > 0.0 else -1e6


def _kraus_laws(kappa, n_t, d_in: int, d_out: int) -> tuple[np.ndarray, np.ndarray]:
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
    coefficients [1, ln a, ln b, ln c], from math on its link's two floats,
    times one cached basis [ln C(r, m), m, r - m, 1] (``_binomial_basis``) and
    one exp give both laws of every link, the amplifier as its transpose.
    Arrays of B kappas and n_ts give laws stacked in front, (B, d, d).
    """
    links = list(zip(np.ravel(kappa).tolist(), np.ravel(n_t).tolist()))
    rows = [(1.0, _log(kap / (1.0 + noise)), _log((1.0 + noise - kap) / (1.0 + noise)), 0.0) for kap, noise in links]
    rows += [(1.0, -math.log1p(noise), _log(noise / (1.0 + noise)), -math.log1p(noise)) for _, noise in links]
    size = max(d_in, d_out)
    law = np.exp(np.array(rows) @ _binomial_basis(size, d_in)).reshape(2, *np.shape(kappa), size, d_in)
    return law[0, ..., :d_in, :], law[1, ..., :d_out, :].swapaxes(-1, -2)


def phase_averaged_spectra(effs, cutoff: int, psk_order, tail_tol=DEFAULT_TAIL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and trace deficits of the PSK phase-averaged (B, idler) states of links.

    Row i of the ``(len(effs), cutoff**2)`` spectra and entry i of the
    deficits belong to ``effs[i]``, whose output-cutoff and TMSV-tail checks
    run in link order before any Fock work.  Each state is
    phase_average_fock(conditional_output_density(eff, cutoff), psk_order),
    never built densely, and with no environment cutoff: the channel is
    pure loss then an amplifier (``_kraus_laws``), whose Kraus operators
    A_j remove and B_i add photons.  So |k, k> (signal, idler) reaches
    |x, k> through the pairs (i, j) with i - j = x - k, and entries of the
    output couple (x, k) and (y, l) only when x - k = y - l.  The phase
    average keeps them only when 2 (x - y) = 0 (mod L), i.e. x = y modulo
    L / gcd(2, L).  The state is therefore a direct sum of Gram blocks
    V_B V_B^T, one per (x - k, x mod L / gcd(2, L)), with the row
    V[(x, k), j] = sqrt(p_k) <x|B_i A_j|k>, i = x - k + j, indexed by the
    j <= k < cutoff photons lost.  For L / gcd(2, L) >= cutoff every block
    is 1 x 1 and the spectrum is p_k P(x|k) with P = loss @ amp, one
    batched product for all links, and p_k the TMSV's geometric law.
    The trace deficit is 1 minus the summed block traces: the TMSV tail and
    the output levels x >= cutoff.
    """
    for eff in effs:
        _check_output_cutoff(eff, cutoff, tail_tol)
        _check_tmsv_cutoff(eff.n_s, cutoff, tail_tol)
    p_k = photon_distribution_thermal([eff.n_s for eff in effs], cutoff)
    loss, amp = _kraus_laws([eff.kappa_eff for eff in effs], [eff.n_t_eff for eff in effs], cutoff, cutoff)
    # law[i, k, x] is the squared norm of row (x, k) of link i
    law = p_k[:, :, None] * (loss @ amp)
    deficits = 1.0 - law.sum(axis=(1, 2))
    period = min(psk_order // math.gcd(2, psk_order), cutoff)
    if period == cutoff:
        return law.reshape(len(effs), -1), deficits
    x, k = np.divmod(np.arange(cutoff**2), cutoff)
    key = (x - k + cutoff - 1) * period + x % period
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sizes = np.diff(np.append(starts, order.size))
    k, j = np.ogrid[:cutoff, :cutoff]
    spectra = []
    for p_link, loss_link, amp_link in zip(p_k, loss, amp):
        # row (x, k) is scale[k, j] sqrt(amp[k - j, x]) over the photons lost j <= k
        scale = np.sqrt(p_link[:, None] * np.where(j <= k, loss_link[k, np.maximum(k - j, 0)], 0.0))
        # window[x, cutoff - 1 - k, j] = sqrt(amp[k - j, x]), zero for j > k
        padded = np.pad(np.sqrt(amp_link[::-1].T), ((0, 0), (0, cutoff - 1)))
        window = np.lib.stride_tricks.sliding_window_view(padded, cutoff, axis=1)
        eigs = []
        for size in np.unique(sizes):
            heads = starts[sizes == size]
            step = max(1, BLOCK_BATCH // (size * cutoff))
            for first in range(0, heads.size, step):
                rows, cols = np.divmod(order[heads[first : first + step, None] + np.arange(size)], cutoff)
                blocks = scale[cols] * window[rows, cutoff - 1 - cols]
                eigs.append(np.linalg.eigvalsh(blocks @ blocks.transpose(0, 2, 1)).ravel())
        spectra.append(np.concatenate(eigs))
    return np.array(spectra), deficits


def psk_ensemble_mi(
    eff: EffectiveChannel,
    psk_order: int,
    cutoff: int,
    d_env=None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """Holevo information of the L-PSK modulated link, in nats.

    Entropy of the phase-averaged (B, idler) state minus the entropy of a
    single conditional state.  Thermal loss is phase covariant, so the
    modulation commutes past the channel and a single channel application
    plus an exact pinching reproduces the full ensemble.
    """
    return _psk_ensemble_mi_and_tail(eff, psk_order, cutoff, d_env, tail_tol)[0]


def _psk_ensemble_mi_and_tail(eff, psk_order, cutoff, d_env, tail_tol) -> tuple[float, float]:
    """``psk_ensemble_mi`` and the trace deficit of its conditional state, from one build of that state."""
    if psk_order < 1:
        raise DomainError(f"psk_order must be >= 1, got {psk_order}")
    _check_output_cutoff(eff, cutoff, tail_tol)
    rho0 = conditional_output_density(eff, cutoff, d_env=d_env, tail_tol=tail_tol)
    deficit = rho0.tail()
    if deficit > 4.0 * tail_tol:
        raise TruncationError(
            f"output trace deficit {deficit:.3e} exceeds budget {4.0 * tail_tol:g}; raise the cutoff"
        )
    if psk_order == 1:
        return 0.0, deficit
    s_cond = entropy_fock(rho0)
    s_avg = entropy_fock(phase_average_fock(rho0, psk_order, mode=0))
    return s_avg - s_cond, deficit


def mac_joint_fock(
    p: MacParams,
    n_s: float,
    cutoff: int,
    theta: float = 0.0,
    phi: float = 0.0,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> FockDensity:
    """Receiver's joint (B, I_X, I_Y) state of the full MAC, built end to end.

    Both TMSV pairs are created at the cutoff, the signals are phase
    rotated, combined on the tau beamsplitter (second port traced out),
    and the combined mode crosses the thermal-loss channel.
    """
    d = cutoff
    psi = tmsv_fock(n_s, d, tail_tol)
    # a TMSV lives on |k, k>: its diagonal holds the (signal, idler) amplitudes
    c_x = np.diagonal(phase_rotate_fock(psi, theta, mode=0).amplitudes)
    c_y = np.diagonal(phase_rotate_fock(psi, phi, mode=0).amplitudes)
    # amplitudes [a, I_X, I_Y] after the tau beamsplitter on (A_X, A_Y) = (I_X, I_Y) photons;
    # the discarded port holds the other I_X + I_Y - a
    amps = _beamsplitter_amplitudes(p.tau, d, d, d).transpose(1, 2, 0) * c_x[:, None] * c_y
    a, i, j = np.ogrid[:d, :d, :d]
    port = (i + j - a).ravel()
    # tracing the discarded port keeps the pairs with equal photons in it
    rho = np.outer(amps, amps.conj())
    rho *= port[:, None] == port
    return thermal_loss_fock(FockDensity(d, 3, rho), p.kappa, p.n_b, mode=0, tail_tol=tail_tol)


def _quadrature_ops(cutoff: int):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    q = a + a.T
    p = -1j * (a - a.T)
    return q, p


def moments_from_fock(state) -> tuple[np.ndarray, np.ndarray]:
    """Extract (mean, covariance) in the vacuum-equals-identity convention.

    The symmetrised moment tr(rho (Q_i Q_j + Q_j Q_i)) / 2 is
    Re tr(rho Q_i Q_j), a contraction of the one- or two-mode reduced state
    with the single-mode q and p; no multimode operator is formed.
    """
    m = state.modes
    quads = list(_quadrature_ops(state.cutoff)) * m
    singles = [state.partial_trace([a]).matrix for a in range(m)]
    pairs = {(a, b): state.partial_trace([a, b]).as_tensor() for a in range(m) for b in range(a + 1, m)}
    mean = np.array([np.einsum("xu,ux->", singles[i // 2], op).real for i, op in enumerate(quads)])
    cov = np.empty((2 * m, 2 * m))
    for i in range(2 * m):
        for j in range(i, 2 * m):
            a, b = i // 2, j // 2
            if a == b:
                sym = np.einsum("xu,uv,vx->", singles[a], quads[i], quads[j]).real
            else:
                # tr(rho_ab (Q_i (x) Q_j)), kets (x, y) and bras (u, v) of modes a, b
                sym = np.einsum("xyuv,ux,vy->", pairs[a, b], quads[i], quads[j]).real
            cov[i, j] = cov[j, i] = sym - mean[i] * mean[j]
    return mean, cov
