"""Brute-force ground truth in truncated Fock space.

Everything here exists to validate the Gaussian closed forms against an
independent route: states are explicit density matrices on a cutoff-d
photon-number basis, channels are built by exponentiating the two-mode
hopping generator, and entropies come straight from eigenvalues.
The one exception is ``phase_averaged_spectrum``, which the region
uses: it takes the same per-total-photon blocks but never forms a dense
state, and the dense route is its oracle.

Truncation bookkeeping: each constructor takes a tail budget
``tail_tol`` and raises TruncationError (naming the required cutoff)
when the cutoff cannot hold the state's tail within budget.  The
achieved tail of a state is always available as ``state.tail()``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .channel import EffectiveChannel, MacParams
from .errors import DomainError, PhysicalityError, ShapeError, SupportError, TruncationError

DEFAULT_TAIL_TOL = 1e-8

__all__ = [
    "FockVector",
    "FockDensity",
    "PhotonDistribution",
    "required_cutoff",
    "tmsv_fock",
    "thermal_fock",
    "phase_rotate_fock",
    "beamsplitter_fock",
    "thermal_loss_fock",
    "mac_mix_fock",
    "mac_joint_fock",
    "entropy_fock",
    "spectral_entropy",
    "trace_distance_fock",
    "rel_entropy_fock",
    "phase_average_fock",
    "conditional_output_density",
    "phase_averaged_spectrum",
    "psk_ensemble_mi",
    "photon_distribution_thermal",
    "layer1_mode_distributions",
    "moments_from_fock",
]


@dataclass(frozen=True)
class FockVector:
    """Pure state on ``modes`` modes, amplitudes indexed by photon numbers."""

    cutoff: int
    modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape((self.cutoff,) * self.modes)
        object.__setattr__(self, "amplitudes", amps)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def tail(self) -> float:
        return 1.0 - self.norm_sq()

    def to_density(self) -> "FockDensity":
        flat = self.amplitudes.reshape(-1)
        return FockDensity(self.cutoff, self.modes, np.outer(flat, flat.conj()))


@dataclass(frozen=True)
class FockDensity:
    """Density matrix on ``modes`` modes with a common cutoff."""

    cutoff: int
    modes: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.cutoff**self.modes
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ShapeError(f"density matrix shape {mat.shape}, expected {(dim, dim)}")
        if not np.allclose(mat, mat.conj().T, atol=1e-10, rtol=0.0):
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


@dataclass(frozen=True)
class PhotonDistribution:
    """Probabilities over photon counts 0..d-1 for a Fock-diagonal state."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or np.any(probs < -1e-15):
            raise DomainError("photon distribution must be a nonnegative vector")
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))

    def tail(self) -> float:
        return 1.0 - float(self.probs.sum())


def required_cutoff(n_mean: float, tail_tol: float) -> int:
    """Smallest d with thermal/TMSV tail (n/(n+1))^d <= tail_tol."""
    if n_mean <= 0.0:
        return 1
    q = n_mean / (n_mean + 1.0)
    return max(1, math.ceil(math.log(tail_tol) / math.log(q)))


def tmsv_fock(n_s: float, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Two-mode squeezed vacuum, amplitudes sqrt(n_s^k / (n_s+1)^(k+1)) on |k,k>."""
    if n_s < 0.0:
        raise DomainError(f"n_s must be >= 0, got {n_s}")
    if cutoff < 1:
        raise DomainError(f"cutoff must be >= 1, got {cutoff}")
    need = required_cutoff(n_s, tail_tol)
    if cutoff < need:
        raise TruncationError(
            f"cutoff {cutoff} keeps TMSV tail above {tail_tol:g}; need d >= {need}",
            required_cutoff=need,
        )
    k = np.arange(cutoff)
    amps = np.exp(0.5 * (k * np.log(n_s) - (k + 1) * np.log(n_s + 1.0))) if n_s > 0 else np.eye(cutoff)[0]
    tensor = np.zeros((cutoff, cutoff), dtype=complex)
    tensor[k, k] = amps
    return FockVector(cutoff, 2, tensor)


def thermal_fock(n_mean: float, cutoff: int) -> FockDensity:
    """Single-mode thermal state, diagonal geometric distribution."""
    return FockDensity(cutoff, 1, np.diag(photon_distribution_thermal(n_mean, cutoff).probs).astype(complex))


def photon_distribution_thermal(n_mean: float, cutoff: int) -> PhotonDistribution:
    """Geometric photon-number law n^k / (n+1)^(k+1), truncated at ``cutoff``."""
    if n_mean < 0.0:
        raise DomainError(f"mean photon number must be >= 0, got {n_mean}")
    if n_mean == 0.0:
        probs = np.zeros(cutoff)
        probs[0] = 1.0
        return PhotonDistribution(probs)
    k = np.arange(cutoff)
    q = n_mean / (n_mean + 1.0)
    return PhotonDistribution(np.exp(k * np.log(q)) / (n_mean + 1.0))


def phase_rotate_fock(state, theta: float, mode: int = 0):
    """Apply exp(i 2 theta n_hat) on one mode of a vector or density."""
    if isinstance(state, FockVector):
        if not 0 <= mode < state.modes:
            raise ShapeError(f"mode {mode} out of range for {state.modes} modes")
        phases = np.exp(2j * theta * np.arange(state.cutoff))
        shape = [1] * state.modes
        shape[mode] = state.cutoff
        return FockVector(state.cutoff, state.modes, state.amplitudes * phases.reshape(shape))
    if isinstance(state, FockDensity):
        if not 0 <= mode < state.modes:
            raise ShapeError(f"mode {mode} out of range for {state.modes} modes")
        phases = np.exp(2j * theta * np.arange(state.cutoff))
        tensor = state.as_tensor()
        ket_shape = [1] * (2 * state.modes)
        ket_shape[mode] = state.cutoff
        bra_shape = [1] * (2 * state.modes)
        bra_shape[state.modes + mode] = state.cutoff
        tensor = tensor * phases.reshape(ket_shape) * phases.conj().reshape(bra_shape)
        dim = state.cutoff**state.modes
        return FockDensity(state.cutoff, state.modes, tensor.reshape(dim, dim))
    raise ShapeError(f"expected FockVector or FockDensity, got {type(state).__name__}")


@lru_cache(maxsize=8)
def beamsplitter_fock(d1: int, d2: int, transmissivity: float) -> np.ndarray:
    """Two-mode beamsplitter unitary on a (d1 x d2)-truncated Fock space.

    Computed by exponentiating the hopping generator xi (a^dag b - a b^dag)
    with cos(xi) = sqrt(t) blockwise per total photon number, which the
    generator conserves; the result is exactly orthogonal on the truncated
    space.  Mode convention matches beamsplitter_symplectic:
    a -> sqrt(t) a + sqrt(1-t) b,  b -> -sqrt(1-t) a + sqrt(t) b.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise DomainError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    xi = math.acos(min(1.0, math.sqrt(transmissivity)))
    dim = d1 * d2
    if transmissivity == 0.0 and d1 == d2:
        # exact mode swap |n, m> -> (-1)^n |m, n>; the generic block
        # exponential would scramble the levels clipped by the cutoff
        unitary = np.zeros((dim, dim))
        n_idx, m_idx = np.divmod(np.arange(dim), d2)
        unitary[m_idx * d1 + n_idx, np.arange(dim)] = (-1.0) ** n_idx
        return unitary
    unitary = np.zeros((dim, dim))
    for total in range(d1 + d2 - 1):
        ks = np.arange(max(0, total - d2 + 1), min(total, d1 - 1) + 1)
        idx = ks * d2 + (total - ks)
        unitary[np.ix_(idx, idx)] = _hopping_block(xi, total, ks[0], ks[-1])
    return unitary


def _hopping_block(xi: float, total: int, lo: int = 0, hi=None) -> np.ndarray:
    """exp(xi (a^dag b - a b^dag)) on the sector of ``total`` photons.

    Rows and columns are the first-mode counts lo..hi (default: the whole
    sector 0..total) of the states |k, total - k>.  A clipped range
    exponentiates the clipped generator, which keeps the block orthogonal.
    """
    hi = total if hi is None else hi
    k = np.arange(lo, hi)
    val = np.sqrt((k + 1) * (total - k))
    return expm(xi * (np.diag(val, -1) - np.diag(val, 1)))


def _loss_amplitudes(kappa: float, n_env: float, d_in: int, d_out: int, d_env: int) -> np.ndarray:
    """Weighted hopping amplitudes W[x, n, e] = <x, n + e - x|U|n, e> sqrt(p_e).

    U is the beamsplitter of transmissivity kappa and p the thermal(n_env)
    law of the environment input, truncated at d_env and renormalized.
    Each amplitude comes from the whole sector of n + e photons, so the
    environment output absorbs every signal photon and only the levels
    x >= d_out are cut off.  Zero where x > n + e.
    """
    xi = math.acos(min(1.0, math.sqrt(kappa)))
    p_env = photon_distribution_thermal(n_env, d_env).probs
    p_env = p_env / p_env.sum()
    amps = np.zeros((d_out, d_in, d_env))
    for total in range(d_in + d_env - 1):
        block = _hopping_block(xi, total)
        x = np.arange(min(total, d_out - 1) + 1)
        n = np.arange(max(0, total - d_env + 1), min(total, d_in - 1) + 1)
        amps[x[:, None], n[None, :], total - n[None, :]] = block[np.ix_(x, n)]
    return amps * np.sqrt(p_env)


@lru_cache(maxsize=8)
def _thermal_loss_superop(kappa: float, n_env: float, d_in: int, d_out: int, d_env: int) -> np.ndarray:
    """Matrix K with vec(rho') = K vec(rho) for the thermal-loss channel.

    K[(x, y), (n, m)] = sum_{e', e} p_e <x, e'|U|n, e> <m, e|U^dag|y, e'>
    with U the beamsplitter of transmissivity kappa and p the thermal law
    of the environment, truncated at d_env and renormalized.  The unitary
    blocks are built exactly per total photon number with the environment
    output sized to absorb every signal photon, so the only truncation
    losses are the environment input tail and signal levels spilling past
    d_out; both show up in the output trace.  Real because U is real.
    """
    amps = _loss_amplitudes(kappa, n_env, d_in, d_out, d_env)
    # b[x, e_out, n, e_in] over the index ranges that can carry weight
    x, n, e = np.indices(amps.shape)
    live = x <= n + e
    b = np.zeros((d_out, d_in + d_env - 1, d_in, d_env))
    b[x[live], (n + e - x)[live], n[live], e[live]] = amps[live]
    b = b.transpose(0, 2, 1, 3).reshape(d_out * d_in, -1)
    gram = b @ b.T
    k4 = gram.reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(k4.reshape(d_out * d_out, d_in * d_in))


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
    rho: FockDensity,
    kappa: float,
    n_b: float,
    d_env=None,
    mode: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> FockDensity:
    """Thermal-loss channel on one mode of ``rho``: mix with a thermal(n_b)
    environment on a beamsplitter of transmissivity ``kappa`` and trace the
    environment out."""
    if not 0.0 <= kappa <= 1.0:
        raise DomainError(f"kappa must lie in [0, 1], got {kappa}")
    if n_b < 0.0:
        raise DomainError(f"n_b must be >= 0, got {n_b}")
    if not 0 <= mode < rho.modes:
        raise ShapeError(f"mode {mode} out of range for {rho.modes} modes")
    d = rho.cutoff
    d_env = _env_cutoff_for(n_b, tail_tol, d_env)
    superop = _thermal_loss_superop(float(kappa), float(n_b), d, d, d_env)

    tensor = rho.as_tensor()
    ket, bra = mode, rho.modes + mode
    rest = [ax for ax in range(2 * rho.modes) if ax not in (ket, bra)]
    perm = [ket, bra] + rest
    moved = tensor.transpose(perm).reshape(d * d, -1)
    out = (superop @ moved).reshape([d, d] + [d] * len(rest))
    inv = np.argsort(perm)
    dim = d**rho.modes
    return FockDensity(d, rho.modes, out.transpose(inv).reshape(dim, dim))


def mac_mix_fock(rho_x: FockDensity, rho_y: FockDensity, tau: float) -> FockDensity:
    """Combine two single-mode states on a beamsplitter(tau), keep the first port."""
    if rho_x.modes != 1 or rho_y.modes != 1 or rho_x.cutoff != rho_y.cutoff:
        raise ShapeError("mac_mix_fock expects two single-mode densities with equal cutoffs")
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"tau must lie in [0, 1], got {tau}")
    d = rho_x.cutoff
    u = beamsplitter_fock(d, d, tau)
    joint = np.kron(rho_x.matrix, rho_y.matrix)
    mixed = u @ joint @ u.T
    return FockDensity(d, 2, mixed).partial_trace([0])


def entropy_fock(rho: FockDensity) -> float:
    """Von Neumann entropy in nats from the eigenvalue spectrum."""
    return spectral_entropy(np.linalg.eigvalsh(rho.matrix))


def spectral_entropy(eigs: np.ndarray) -> float:
    """Entropy -sum lambda ln lambda in nats of a density-matrix spectrum."""
    if np.min(eigs) < -1e-10:
        raise PhysicalityError(f"density matrix has eigenvalue {np.min(eigs):.3e} < -1e-10")
    eigs = eigs[eigs > 0.0]
    return float(-np.sum(eigs * np.log(eigs)))


def trace_distance_fock(rho: FockDensity, sigma: FockDensity) -> float:
    """(1/2) ||rho - sigma||_1 via the eigenvalues of the difference."""
    if rho.matrix.shape != sigma.matrix.shape:
        raise ShapeError("trace distance requires equal-shape densities")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix))))


def rel_entropy_fock(rho: FockDensity, sigma: FockDensity, support_tol: float = 1e-10) -> float:
    """Quantum relative entropy D(rho || sigma) in nats.

    Raises SupportError when rho puts more than ``support_tol`` weight
    outside the support of sigma.
    """
    if rho.matrix.shape != sigma.matrix.shape:
        raise ShapeError("relative entropy requires equal-shape densities")
    svals, svecs = np.linalg.eigh(sigma.matrix)
    live = svals > max(1e-15, 1e-14 * np.max(svals))
    rho_in_sigma_basis = svecs.conj().T @ rho.matrix @ svecs
    diag = np.maximum(np.diag(rho_in_sigma_basis).real, 0.0)
    escaped = float(np.sum(diag[~live]))
    if escaped > support_tol:
        raise SupportError(f"rho has weight {escaped:.3e} outside supp(sigma)")
    minus_s_rho = -entropy_fock(rho)
    cross = float(np.sum(diag[live] * np.log(svals[live])))
    return minus_s_rho - cross


def phase_average_fock(rho: FockDensity, psk_order, mode: int = 0) -> FockDensity:
    """Average ``rho`` over the PSK phase ensemble applied to one mode.

    The constellation is theta_k = 2 pi k / L under exp(i 2 theta n_hat),
    so a coherence between photon numbers n and m survives iff
    2 (n - m) = 0 (mod L).  ``psk_order=None`` performs the continuous
    average (only n = m survives).  This is a pinching, computed exactly.
    """
    if not 0 <= mode < rho.modes:
        raise ShapeError(f"mode {mode} out of range for {rho.modes} modes")
    n = np.arange(rho.cutoff)
    delta = n[:, None] - n[None, :]
    if psk_order is None:
        keep = delta == 0
    else:
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
    kappa_eff and environment mean n_t_eff / (1 - kappa_eff).
    """
    psi = tmsv_fock(eff.n_s, cutoff, tail_tol)
    if eff.kappa_eff >= 1.0:
        return psi.to_density()
    n_env = eff.n_t_eff / (1.0 - eff.kappa_eff)
    return thermal_loss_fock(psi.to_density(), eff.kappa_eff, n_env, d_env=d_env, mode=0, tail_tol=tail_tol)


def phase_averaged_spectrum(
    eff: EffectiveChannel,
    cutoff: int,
    psk_order,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> tuple[np.ndarray, float]:
    """Spectrum and trace deficit of the PSK phase-averaged (B, idler) state.

    The state is phase_average_fock(conditional_output_density(eff, cutoff),
    psk_order), never built densely.  The channel conserves total photon
    number, so |k, k> (signal, idler) reaches only |x, k> with the photon
    difference x - k carried by the environment; entries of the output
    couple (x, k) and (y, l) only when x - k = y - l.  The phase average
    keeps them only when 2 (x - y) = 0 (mod L), i.e. x = y modulo
    L / gcd(2, L).  The state is therefore a direct sum of Gram blocks
    V_B V_B^T, one per (x - k, x mod L / gcd(2, L)), with
    V[(x, k), e] = sqrt(p_k) <x, k + e - x|U|k, e> sqrt(p_e).  For
    ``psk_order=None`` or L >= 2 cutoff every block is 1 x 1.  The trace
    deficit is 1 minus the summed block traces.
    """
    pair = np.diagonal(tmsv_fock(eff.n_s, cutoff, tail_tol).amplitudes).real
    # kappa_eff = 1 has no environment: the identity law on d_env = 1
    n_env = 0.0 if eff.kappa_eff >= 1.0 else eff.n_t_eff / (1.0 - eff.kappa_eff)
    d_env = _env_cutoff_for(n_env, tail_tol, None)
    rows = _loss_amplitudes(eff.kappa_eff, n_env, cutoff, cutoff, d_env) * pair[None, :, None]
    rows = rows.reshape(cutoff**2, d_env)
    period = cutoff if psk_order is None else min(psk_order // math.gcd(2, psk_order), cutoff)
    x, k = np.divmod(np.arange(cutoff**2), cutoff)
    key = (x - k + cutoff - 1) * period + x % period
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sizes = np.diff(np.append(starts, order.size))
    eigs = []
    for size in np.unique(sizes):
        blocks = rows[order[starts[sizes == size][:, None] + np.arange(size)]]
        eigs.append(np.linalg.eigvalsh(blocks @ blocks.transpose(0, 2, 1)).ravel())
    return np.concatenate(eigs), 1.0 - float(np.einsum("ij,ij->", rows, rows))


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
    if psk_order < 1:
        raise DomainError(f"psk_order must be >= 1, got {psk_order}")
    rho0 = conditional_output_density(eff, cutoff, d_env=d_env, tail_tol=tail_tol)
    deficit = rho0.tail()
    if deficit > 4.0 * tail_tol:
        raise TruncationError(
            f"output trace deficit {deficit:.3e} exceeds budget {4.0 * tail_tol:g}; raise the cutoff"
        )
    if psk_order == 1:
        return 0.0
    s_cond = entropy_fock(rho0)
    s_avg = entropy_fock(phase_average_fock(rho0, psk_order, mode=0))
    return s_avg - s_cond


def mac_joint_fock(
    p: MacParams,
    n_s: float,
    cutoff: int,
    d_env=None,
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
    psi_x = tmsv_fock(n_s, d, tail_tol)
    psi_y = tmsv_fock(n_s, d, tail_tol)
    psi_x = phase_rotate_fock(psi_x, theta, mode=0)
    psi_y = phase_rotate_fock(psi_y, phi, mode=0)
    # joint pure state, axes (A_X, I_X, A_Y, I_Y) -> (A_X, A_Y, I_X, I_Y)
    joint = np.tensordot(psi_x.amplitudes, psi_y.amplitudes, axes=0).transpose(0, 2, 1, 3)
    u = beamsplitter_fock(d, d, p.tau)
    mixed = (u @ joint.reshape(d * d, d * d)).reshape(d, d, d, d)
    # trace the discarded combiner port (axis 1): modes left (a, I_X, I_Y)
    amp = mixed.transpose(0, 2, 3, 1).reshape(d**3, d)
    rho = FockDensity(d, 3, amp @ amp.conj().T)
    return thermal_loss_fock(rho, p.kappa, p.n_b, d_env=d_env, mode=0, tail_tol=tail_tol)


def layer1_mode_distributions(p: MacParams, alpha: float, beta: float, s: float, receiver: str, cutoff=None):
    """Per-slot photon distributions of the sparse layer, as (weight, law) pairs.

    The four on/off input combinations map to thermal outputs with mean
    kappa_recv (tau s 1{x} + (1-tau) s 1{y}) + background, where the
    receiver side fixes (kappa_recv, background) = (kappa, n_t) for Bob
    and (1-kappa, kappa n_b) for Willie.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {value}")
    if s < 0.0:
        raise DomainError(f"s must be >= 0, got {s}")
    if receiver == "bob":
        kappa_recv, background = p.kappa, p.n_t
    elif receiver == "willie":
        kappa_recv, background = 1.0 - p.kappa, p.kappa * p.n_b
    else:
        raise DomainError(f"receiver must be 'bob' or 'willie', got {receiver!r}")
    weights = {
        (0, 0): (1.0 - alpha) * (1.0 - beta),
        (0, 1): (1.0 - alpha) * beta,
        (1, 0): alpha * (1.0 - beta),
        (1, 1): alpha * beta,
    }
    means = {
        (x, y): background + kappa_recv * (p.tau * s * x + (1.0 - p.tau) * s * y)
        for (x, y) in weights
    }
    if cutoff is None:
        cutoff = max(required_cutoff(max(means.values()), 1e-14) + 8, 32)
    return [
        ((x, y), weights[x, y], photon_distribution_thermal(means[x, y], cutoff))
        for (x, y) in sorted(weights)
    ]


def _quadrature_ops(cutoff: int):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    q = a + a.T
    p = -1j * (a - a.T)
    return q, p


def moments_from_fock(state) -> tuple[np.ndarray, np.ndarray]:
    """Extract (mean, covariance) in the vacuum-equals-identity convention."""
    rho = state.to_density() if isinstance(state, FockVector) else state
    d, m = rho.cutoff, rho.modes
    q1, p1 = _quadrature_ops(d)
    quads = []
    for mode in range(m):
        for op in (q1, p1):
            full = np.eye(1)
            for j in range(m):
                full = np.kron(full, op if j == mode else np.eye(d))
            quads.append(full)
    mean = np.array([np.trace(rho.matrix @ op).real for op in quads])
    cov = np.empty((2 * m, 2 * m))
    for i in range(2 * m):
        for j in range(i, 2 * m):
            sym = 0.5 * np.trace(rho.matrix @ (quads[i] @ quads[j] + quads[j] @ quads[i])).real
            cov[i, j] = cov[j, i] = sym - mean[i] * mean[j]
    return mean, cov
