"""Brute-force ground truth in truncated Fock space: an oracle for the tests.

The oracle checks the Gaussian closed forms and the region's Kraus-law
spectrum (``region.phase_averaged_spectra``) by an independent route:
states are explicit density matrices on a cutoff-d photon-number basis
and entropies come straight from eigenvalues.  One beamsplitter,
exponentiated per whole sector of conserved total photon number
(``_beamsplitter_amplitudes``), is both the MAC's tau combiner and the
thermal-loss channel, where it mixes the mode with a truncated thermal
environment.  Its amplitudes are kept per sector, indexed by the two
inputs and one output: photon conservation fixes the other output, so
no 4-index tensor is built.  The channel is their Gram over the
environment, masked to photon conservation (``_masked_gram``); a TMSV's
conditional state is that Gram with the TMSV's amplitudes on the input
axis, so no superoperator product is formed.  Real states stay real; only
phase rotations make them complex.  The states stay dense, but no step
holds a temporary beyond them: ``psk_ensemble_mi`` at cutoff 24 holds one
576 x 576 density, pinched in place once its entropy is taken (3.8 MB
peak).  ``entropy_fock`` diagonalizes one connected component of the
matrix's own nonzero pattern at a time.  The blocks come from the zeros
alone, never from the photon-number keys the region's spectrum is built
on, so the oracle stays an independent route.  The product path
(``region``, ``planner`` and the CLI's commands other than validate)
never imports this module.

Truncation bookkeeping: each constructor takes a tail budget
``tail_tol`` and raises TruncationError (naming the required cutoff)
when the cutoff cannot hold the state's tail within budget, through the
product's own rule (``region._check_tail`` and ``region._check_deficit``).  The
achieved tail of a state is always available as ``state.tail()``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import EffectiveChannel, MacParams
from .errors import DomainError, PhysicalityError, ShapeError, TruncationError, check_count, check_real
from . import region as rg

# entries of one slab of rows, read by FockDensity's Hermitian check and by _components
HERMITIAN_SLAB = 1 << 16
# environment levels the dense oracle builds at most: the per-sector exponentials
# take about 13 s at 512 levels and grow as the fourth power
MAX_ENV_CUTOFF = 512
# basis rows cutoff**modes a dense state may have, checked before it is built: 4096 rows is 134 MB
MAX_DENSE_ROWS = 4096

__all__ = [
    "FockVector",
    "FockDensity",
    "tmsv_fock",
    "thermal_fock",
    "phase_rotate_fock",
    "thermal_loss_fock",
    "mac_joint_fock",
    "entropy_fock",
    "phase_average_fock",
    "conditional_output_density",
    "psk_ensemble_mi",
    "moments_from_fock",
]


@dataclass(frozen=True)
class FockVector:
    """Pure state on ``modes`` modes, amplitudes indexed by photon numbers."""

    cutoff: int
    modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_count("cutoff", self.cutoff)
        check_count("modes", self.modes, 0)  # a trace over every mode leaves zero modes
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
        check_count("cutoff", self.cutoff)
        check_count("modes", self.modes, 0)
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


def tmsv_fock(n_s: float, cutoff: int, tail_tol: float = rg.DEFAULT_TAIL_TOL) -> FockVector:
    """Two-mode squeezed vacuum, amplitudes sqrt(n_s^k / (n_s+1)^(k+1)) on |k,k>."""
    check_real("n_s", n_s, 0)
    check_count("cutoff", cutoff)  # the tail test reads it first
    rg._check_tail("TMSV tail", n_s, cutoff, check_real("tail_tol", tail_tol, 0, 1, "()"))
    check_count("cutoff", cutoff, 1, math.isqrt(MAX_DENSE_ROWS))  # after the tail test, which the product shares
    return FockVector(cutoff, 2, np.diag(np.sqrt(rg.photon_distribution_thermal(n_s, cutoff))))


def thermal_fock(n_mean: float, cutoff: int) -> FockDensity:
    """Single-mode thermal state, diagonal geometric distribution."""
    check_count("cutoff", cutoff)  # the states' rule and message, then the dense cap
    check_count("cutoff", cutoff, 1, MAX_DENSE_ROWS)
    return FockDensity(cutoff, 1, np.diag(rg.photon_distribution_thermal(n_mean, cutoff)))


def phase_rotate_fock(state, theta: float, mode: int = 0):
    """Apply exp(i theta n_hat) on one mode of a vector or density; theta is
    the phase of ``channel.rotation_block(theta)``, one convention for both routes."""
    if not isinstance(state, (FockVector, FockDensity)):
        raise ShapeError(f"expected FockVector or FockDensity, got {type(state).__name__}")
    check_real("theta", theta)
    check_count("mode", mode, 0, state.modes - 1)
    if not theta:  # the identity; a real state stays real
        return state
    phases = np.exp(1j * theta * np.arange(state.cutoff))
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


def _thermal_loss_amplitudes(kappa: float, n_env: float, d_in: int, d_out: int, d_env: int) -> np.ndarray:
    """t[e, x, n] = sqrt(p_e) <x, n + e - x|U|n, e>: the beamsplitter of
    transmissivity kappa (``_beamsplitter_amplitudes``) weighted by the
    thermal law p of the environment, truncated at d_env and renormalized."""
    p_env = rg.photon_distribution_thermal(n_env, d_env)
    return _beamsplitter_amplitudes(kappa, d_in, d_env, d_out) * np.sqrt(p_env / p_env.sum())[:, None, None]


def _masked_gram(amps: np.ndarray) -> np.ndarray:
    """G[(x, n), (y, m)] = sum_e amps[e, x, n] amps[e, y, m] where x - n = y - m, else 0.

    With the amplitudes of ``_thermal_loss_amplitudes`` this is the
    thermal-loss channel in natural order: G[(x, n), (y, m)] =
    sum_{e', e} p_e <x, e'|U|n, e> <m, e|U^dag|y, e'>, since photon
    conservation fixes e' = n + e - x = m + e - y, so the sum runs over e
    alone and the mask keeps the equal e'.  The mask is applied in place,
    one output level x at a time, so only the Gram is held.
    """
    d_env, d_out, d_in = amps.shape
    flat = amps.reshape(d_env, -1)
    gram = flat.T @ flat
    n = np.arange(d_in)
    diff = (np.arange(d_out)[:, None] - n).ravel()
    for x, rows in enumerate(gram.reshape(d_out, d_in, -1)):
        np.copyto(rows, 0.0, where=(x - n)[:, None] != diff)
    return gram


def _thermal_loss_superop(kappa: float, n_env: float, d_in: int, d_out: int, d_env: int) -> np.ndarray:
    """Matrix K with vec(rho') = K vec(rho) for the thermal-loss channel.

    K[(x, y), (n, m)] is ``_masked_gram``'s G[(x, n), (y, m)] for the
    environment-weighted amplitudes, with the axes transposed.  The
    environment output absorbs every signal photon, so the only truncation
    losses are the environment input tail and signal levels spilling past
    d_out; both show up in the output trace.  Real because U is real.
    """
    gram = _masked_gram(_thermal_loss_amplitudes(kappa, n_env, d_in, d_out, d_env))
    return gram.reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3).reshape(d_out * d_out, d_in * d_in)


def _env_cutoff_for(n_env: float, tail_tol: float, d_env) -> int:
    need = rg.required_cutoff(n_env, tail_tol)
    if need > MAX_ENV_CUTOFF:
        raise TruncationError(
            f"thermal environment of mean {n_env:g} needs {need} levels for tail {tail_tol:g}; "
            f"the dense oracle builds at most {MAX_ENV_CUTOFF}",
            required_cutoff=need,
        )
    if d_env is None:
        return need
    rg._check_tail("the environment tail (mean {mean:.6g})", n_env, d_env, tail_tol)
    return int(d_env)


def thermal_loss_fock(
    state,
    kappa: float,
    n_b: float,
    d_env=None,
    mode: int = 0,
    tail_tol: float = rg.DEFAULT_TAIL_TOL,
) -> FockDensity:
    """Thermal-loss channel on one mode of ``state``: mix with a thermal(n_b)
    environment on a beamsplitter of transmissivity ``kappa`` and trace the
    environment out, as the superoperator applied to the mode's (ket, bra)
    axes.  A FockVector enters as its density; ``conditional_output_density``
    builds a TMSV's output without this product."""
    check_real("kappa", kappa, 0, 1)
    check_real("n_b", n_b, 0)
    check_count("mode", mode, 0, state.modes - 1)
    if d_env is not None:
        check_count("d_env", d_env)
    if isinstance(state, FockVector):
        state = state.to_density()
    d, modes = state.cutoff, state.modes
    d_env = _env_cutoff_for(n_b, tail_tol, d_env)
    superop = _thermal_loss_superop(kappa, n_b, d, d, d_env)
    operand = np.moveaxis(state.as_tensor(), (mode, modes + mode), (0, 1)).reshape(d * d, -1)
    out = superop @ operand
    del superop, operand  # released before the output copy
    dim = d**modes
    out = np.moveaxis(out.reshape((d,) * (2 * modes)), (0, 1), (mode, modes + mode))
    return FockDensity(d, modes, out.reshape(dim, dim))


def _components(mat: np.ndarray) -> list:
    """Index arrays of the connected components of a Hermitian ``mat``'s nonzero pattern.

    An index whose row holds nothing off the diagonal is a component of its
    own; every other component is grown breadth first from its lowest
    index.  Rows are read in slabs of about HERMITIAN_SLAB entries.  Only
    the zeros of ``mat`` decide the blocks, never the photon numbers of its
    basis.
    """
    dim = len(mat)
    step = max(1, HERMITIAN_SLAB // dim)
    slabs = range(0, dim, step)
    row_nonzeros = np.concatenate([np.count_nonzero(mat[first : first + step], axis=1) for first in slabs])
    alone = row_nonzeros <= (np.diagonal(mat) != 0)
    components = list(np.flatnonzero(alone)[:, None])
    reached = alone.copy()
    for seed in np.flatnonzero(~alone):
        if reached[seed]:
            continue
        reached[seed] = True
        members = frontier = np.array([seed])
        while frontier.size:
            hit = np.zeros(dim, dtype=bool)
            for first in range(0, frontier.size, step):
                hit |= (mat[frontier[first : first + step]] != 0).any(axis=0)
            frontier = np.flatnonzero(hit & ~reached)
            reached[frontier] = True
            members = np.concatenate((members, frontier))
        components.append(np.sort(members))
    return components


def entropy_fock(rho: FockDensity) -> float:
    """Von Neumann entropy in nats from the eigenvalue spectrum.

    A density that is block diagonal under a permutation is diagonalized
    one block at a time (``_components``), equal-size blocks in one stacked
    ``eigvalsh`` call; a matrix with one component goes to ``eigvalsh``
    whole.
    """
    mat = rho.matrix
    components = _components(mat)
    if len(components) == 1:
        return rg.spectral_entropy(np.linalg.eigvalsh(mat))
    spectra = []
    for size in sorted({len(c) for c in components}):
        idx = np.stack([c for c in components if len(c) == size])
        spectra.append(np.linalg.eigvalsh(mat[idx[:, :, None], idx[:, None, :]]).ravel())
    return rg.spectral_entropy(np.concatenate(spectra))


def _pinch(rho: FockDensity, psk_order, mode: int) -> None:
    """Zero, in place, the coherences of ``rho`` on ``mode`` between photon
    numbers n and m with n - m != 0 (mod psk_order).  ``rho.matrix``
    must be C-contiguous, as both callers build it, so that ``as_tensor``
    is a view of it."""
    check_count("psk_order", psk_order)
    check_count("mode", mode, 0, rho.modes - 1)
    n = np.arange(rho.cutoff)
    keep = np.mod(n[:, None] - n, psk_order) == 0
    shape = [1] * (2 * rho.modes)
    shape[mode] = shape[rho.modes + mode] = rho.cutoff
    tensor = rho.as_tensor()
    tensor *= keep.astype(float).reshape(shape)


def phase_average_fock(rho: FockDensity, psk_order, mode: int = 0) -> FockDensity:
    """Average ``rho`` over the PSK phase ensemble applied to one mode.

    The constellation is the L phases theta_k = 2 pi k / L under
    exp(i theta n_hat), so a coherence between photon numbers n and m
    survives iff n - m = 0 (mod L); an L of at least the cutoff keeps only
    n = m, the continuous average.  This is a pinching, computed exactly
    on a copy of ``rho``.
    """
    pinched = FockDensity(rho.cutoff, rho.modes, rho.matrix.copy())
    _pinch(pinched, psk_order, mode)
    return pinched


def conditional_output_density(
    eff: EffectiveChannel,
    cutoff: int,
    d_env=None,
    tail_tol: float = rg.DEFAULT_TAIL_TOL,
) -> FockDensity:
    """(B, idler) state of the point-to-point link for the zero-phase symbol.

    TMSV(n_s) with its signal sent through thermal loss of transmissivity
    kappa_eff and environment mean n_t_eff / (1 - kappa_eff).  The TMSV is
    sum_k c_k |k, k>, so the state is rho[(x, k), (y, l)] =
    c_k c_l K[(x, y), (k, l)] with K the channel's superoperator: the masked
    Gram of the environment-weighted beamsplitter amplitudes with c
    weighting their input axis (``_masked_gram``), and no superoperator
    product.  Noise at kappa_eff = 1 has no finite thermal environment, so
    the dense route rejects it.
    """
    if d_env is not None:
        check_count("d_env", d_env)
    psi = tmsv_fock(eff.n_s, cutoff, tail_tol)
    if eff.kappa_eff >= 1.0:
        if eff.n_t_eff > 0.0:
            raise DomainError(f"kappa_eff = 1 with n_t_eff = {eff.n_t_eff} has no thermal environment")
        return psi.to_density()
    n_env = eff.n_t_eff / (1.0 - eff.kappa_eff)
    d_env = _env_cutoff_for(n_env, tail_tol, d_env)
    amps = _thermal_loss_amplitudes(eff.kappa_eff, n_env, cutoff, cutoff, d_env) * np.diagonal(psi.amplitudes)
    return FockDensity(cutoff, 2, _masked_gram(amps))


def psk_ensemble_mi(
    eff: EffectiveChannel,
    psk_order: int,
    cutoff: int,
    d_env=None,
    tail_tol: float = rg.DEFAULT_TAIL_TOL,
) -> float:
    """Holevo information of the L-PSK modulated link, in nats.

    Entropy of the phase-averaged (B, idler) state minus the entropy of a
    single conditional state.  Thermal loss is phase covariant, so the
    modulation commutes past the channel and a single channel application
    plus an exact pinching reproduces the full ensemble.  One density is
    held: once the conditional state's entropy is taken, that same matrix,
    private to this call, is pinched in place.
    """
    check_count("psk_order", psk_order)
    check_count("cutoff", cutoff)
    check_real("tail_tol", tail_tol, 0, 1, "()")
    # the product's output test (region.phase_averaged_spectra), before any Fock work
    rg._check_tail("the output tail (mean {mean:.6g})", eff.kappa_eff * eff.n_s + eff.n_t_eff, cutoff, tail_tol, 5.0)
    rho0 = conditional_output_density(eff, cutoff, d_env=d_env, tail_tol=tail_tol)
    rg._check_deficit(rho0.tail(), tail_tol)
    s_cond = entropy_fock(rho0)
    _pinch(rho0, psk_order, mode=0)
    return entropy_fock(rho0) - s_cond


def mac_joint_fock(
    p: MacParams,
    n_s: float,
    cutoff: int,
    theta: float = 0.0,
    phi: float = 0.0,
    tail_tol: float = rg.DEFAULT_TAIL_TOL,
) -> FockDensity:
    """Receiver's joint (B, I_X, I_Y) state of the full MAC, built end to end.

    Both TMSV pairs are created at the cutoff, the signals are phase
    rotated, combined on the tau beamsplitter (second port traced out),
    and the combined mode crosses the thermal-loss channel.
    """
    d = cutoff
    psi = tmsv_fock(n_s, d, tail_tol)
    check_count("cutoff", d, 1, round(MAX_DENSE_ROWS ** (1 / 3)))
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
