"""Symplectic and Gaussian-state algebra on quadrature covariance matrices.

Convention used throughout the package: quadrature ordering
(q1, p1, ..., qm, pm), vacuum covariance equal to the identity, so a
thermal state with mean photon number ``nbar`` has covariance
``(2*nbar + 1) * I`` and a symplectic eigenvalue ``nu`` corresponds to
``(nu - 1) / 2`` photons per mode.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EamacError, PhysicalityError, ShapeError, ChannelValidityError, check_count, check_real

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
# largest mean photon number n of a covariance: its entries, up to 2 sqrt(n (n + 1)), fit in a float
MAX_PHOTONS = 1e154
MAX_MODES = 1024  # most modes of a state or form built here: a 2048 x 2048 float matrix is 32 MB


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form, block diagonal in [[0, 1], [-1, 0]]."""
    check_count("n_modes", n_modes, 1, MAX_MODES)
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _check_cov_shape(cov: np.ndarray) -> int:
    """Validate a covariance matrix array and return its mode count."""
    cov = np.asarray(cov)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ShapeError(f"covariance matrix must be square, got shape {cov.shape}")
    if cov.shape[0] % 2 != 0 or cov.shape[0] == 0:
        raise ShapeError(f"covariance matrix must be 2m x 2m, got {cov.shape[0]} rows")
    if not np.allclose(cov, cov.T, atol=SYMMETRY_TOL, rtol=0.0):
        raise ShapeError("covariance matrix is not symmetric to 1e-12")
    return cov.shape[0] // 2


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state given by its mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray
    n_modes: int = field(init=False)

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        m = _check_cov_shape(cov)
        if mean.shape != (2 * m,):
            raise ShapeError(f"mean has length {mean.shape}, expected ({2 * m},)")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "n_modes", m)


def vacuum_state(n_modes: int) -> GaussianState:
    check_count("n_modes", n_modes, 1, MAX_MODES)
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal_cov(nbar, n_modes: int = 1) -> np.ndarray:
    """Covariance of an ``n_modes``-fold thermal state with mean photon ``nbar``."""
    check_real("nbar", nbar, 0, MAX_PHOTONS)
    check_count("n_modes", n_modes, 1, MAX_MODES)
    return (2.0 * nbar + 1.0) * np.eye(2 * n_modes)


def _g(x: float) -> float:
    """g(x) = (x+1) ln(x+1) - x ln x for a finite x >= 0, as written up to x = 1, where both terms
    are nonnegative, and above it as log1p(x) + x log1p(1/x), which does not cancel."""
    if x > 1.0:
        return math.log1p(x) + x * math.log1p(1.0 / x)
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log1p(x) - x * math.log(x)


def g_entropy(x):
    """Entropy of a thermal state with mean photon number ``x``, in nats.

    g(x) = (x+1) ln(x+1) - x ln x, extended by continuity to g(0) = 0.
    Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    if not (arr >= 0.0).all():  # NaN too
        raise DomainError(f"g_entropy requires x >= 0, got {x}")
    if not (arr < math.inf).all():
        raise DomainError(f"g_entropy is not finite at x = {x}")
    out = np.array([_g(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    The spectrum is read off from the eigenvalues of ``i Omega cov``,
    which come in pairs ``+/- nu``; the m pair magnitudes are returned.
    """
    cov = np.asarray(cov, dtype=float)
    m = _check_cov_shape(cov)
    omega = symplectic_form(m)
    eigs = np.linalg.eigvals(1j * omega @ cov)
    mags = np.sort(np.abs(eigs))
    pairs = mags.reshape(m, 2)
    spread = np.max(np.abs(pairs[:, 1] - pairs[:, 0]) / np.maximum(1.0, pairs[:, 1]))
    if spread > 1e-9:
        raise EamacError(f"symplectic eigenvalue pairing failed (spread {spread:.2e})")
    return pairs.mean(axis=1)


def entropy_from_cov(cov: np.ndarray) -> float:
    """Von Neumann entropy (nats) of the Gaussian state with this covariance.

    Computes ``sum_i g((nu_i - 1)/2)`` over the symplectic spectrum.
    Eigenvalues within the physicality tolerance below 1 are clamped to 1
    so that pure states do not produce NaN from floating-point dips.
    """
    nus = symplectic_eigenvalues(cov)
    if np.min(nus) < 1.0 - PHYSICALITY_TOL:
        raise PhysicalityError(
            f"unphysical covariance: min symplectic eigenvalue {np.min(nus):.12g} < 1"
        )
    nus = np.maximum(nus, 1.0)
    return float(np.sum(g_entropy((nus - 1.0) / 2.0)))


def beamsplitter_symplectic(t: float) -> np.ndarray:
    """Two-mode beamsplitter of transmissivity ``t`` as a 4x4 symplectic matrix.

    Blocks [[sqrt(t) I, sqrt(1-t) I], [-sqrt(1-t) I, sqrt(t) I]].
    """
    check_real("t", t, 0, 1)
    c = np.sqrt(t) * np.eye(2)
    s = np.sqrt(1.0 - t) * np.eye(2)
    return np.block([[c, s], [-s, c]])


def mode_rotation_symplectic(psi: float) -> np.ndarray:
    """Single-mode phase-space rotation by angle ``psi`` (2x2 symplectic)."""
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s], [s, c]])


def apply_gaussian_channel(state: GaussianState, x_mat: np.ndarray, y_mat: np.ndarray) -> GaussianState:
    """Apply the Gaussian channel cov -> X cov X^T + Y, mean -> X mean.

    ``x_mat`` may be rectangular (2m' x 2m), which drops or embeds modes.
    Raises ChannelValidityError when Y + i(Omega' - X Omega X^T) has an
    eigenvalue below -1e-9, i.e. the map is not completely positive.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    y_mat = np.asarray(y_mat, dtype=float)
    if x_mat.ndim != 2 or x_mat.shape[1] != 2 * state.n_modes or x_mat.shape[0] % 2 != 0:
        raise ShapeError(f"X must be 2m' x {2 * state.n_modes}, got {x_mat.shape}")
    m_out = x_mat.shape[0] // 2
    if y_mat.shape != (2 * m_out, 2 * m_out):
        raise ShapeError(f"Y must be {2 * m_out} x {2 * m_out}, got {y_mat.shape}")
    omega_in = symplectic_form(state.n_modes)
    omega_out = symplectic_form(m_out)
    cp_matrix = y_mat + 1j * (omega_out - x_mat @ omega_in @ x_mat.T)
    min_eig = np.min(np.linalg.eigvalsh((cp_matrix + cp_matrix.conj().T) / 2.0))
    if min_eig < -PHYSICALITY_TOL:
        raise ChannelValidityError(
            f"(X, Y) violate complete positivity (min eigenvalue {min_eig:.3e})"
        )
    cov = x_mat @ state.cov @ x_mat.T + y_mat
    return GaussianState(x_mat @ state.mean, (cov + cov.T) / 2.0)


def _mode_indices(modes, n_modes: int) -> np.ndarray:
    """Quadrature indices for a collection of mode indices."""
    modes = sorted(set(int(i) for i in modes))
    if not modes:
        raise ShapeError("mode index set must be nonempty")
    if modes[0] < 0 or modes[-1] >= n_modes:
        raise ShapeError(f"mode indices {modes} out of range for {n_modes} modes")
    return np.array([2 * i + off for i in modes for off in (0, 1)])


def schur_condition_heterodyne(state: GaussianState, measured_modes, outcome) -> GaussianState:
    """Condition a Gaussian state on an ideal heterodyne measurement.

    Heterodyne detection of the measured modes with outcome vector
    ``outcome`` (length 2 per measured mode) leaves the retained modes in
    a Gaussian state with

        cov' = A - C (M + I)^{-1} C^T
        mean' = mu_A + C (M + I)^{-1} (outcome - mu_M)

    where A, M, C are the retained/measured/cross blocks.  The unit matrix
    added to M is the vacuum penalty of measuring both quadratures at
    once; cov' does not depend on the outcome.
    """
    meas = _mode_indices(measured_modes, state.n_modes)
    kept_modes = [i for i in range(state.n_modes) if i not in set(int(j) for j in measured_modes)]
    if not kept_modes:
        raise ShapeError("heterodyne conditioning must retain at least one mode")
    kept = _mode_indices(kept_modes, state.n_modes)
    outcome = np.asarray(outcome, dtype=float)
    if outcome.shape != (len(meas),):
        raise ShapeError(f"outcome has shape {outcome.shape}, expected ({len(meas)},)")

    a_blk = state.cov[np.ix_(kept, kept)]
    m_blk = state.cov[np.ix_(meas, meas)]
    c_blk = state.cov[np.ix_(kept, meas)]
    gain = c_blk @ np.linalg.inv(m_blk + np.eye(len(meas)))
    cov = a_blk - gain @ c_blk.T
    mean = state.mean[kept] + gain @ (outcome - state.mean[meas])
    return GaussianState(mean, (cov + cov.T) / 2.0)
