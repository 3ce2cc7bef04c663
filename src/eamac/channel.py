"""Gaussian states of the two-sender bosonic MAC.

Two senders hold the signal halves of independent two-mode squeezed
vacuum pairs whose idlers sit with the receiver.  The signals are
combined on a beamsplitter of transmissivity ``tau`` and the combined
mode crosses a thermal-loss channel of transmissivity ``kappa`` with
environment mean photon number ``n_b``.  This module builds every
covariance matrix of that chain plus the point-to-point reductions used
by the rate computations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussian import GaussianState, schur_condition_heterodyne

__all__ = [
    "MacParams",
    "ModulationConfig",
    "EffectiveChannel",
    "tmsv_cov",
    "rotation_block",
    "bob_joint_cov",
    "willie_joint_cov",
    "conditioned_cov",
    "effective_params",
    "effective_cov",
]


def _require_finite(params, *names):
    """NaN passes every range comparison, so finiteness is checked first."""
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class MacParams:
    """Channel triple (tau, kappa, n_b); n_t is always derived."""

    tau: float
    kappa: float
    n_b: float

    def __post_init__(self):
        _require_finite(self, "tau", "kappa", "n_b")
        if not 0.0 <= self.tau <= 1.0:
            raise DomainError(f"tau must lie in [0, 1], got {self.tau}")
        if not 0.0 < self.kappa < 1.0:
            raise DomainError(f"kappa must lie in (0, 1), got {self.kappa}")
        if self.n_b <= 0.0:
            raise DomainError(f"n_b must be positive, got {self.n_b}")

    @property
    def n_t(self) -> float:
        return (1.0 - self.kappa) * self.n_b


@dataclass(frozen=True)
class ModulationConfig:
    """Signal mean photon number and PSK constellation size."""

    n_s: float
    psk_order: int = 64

    def __post_init__(self):
        _require_finite(self, "n_s")
        if self.n_s < 0.0:
            raise DomainError(f"n_s must be >= 0, got {self.n_s}")
        if self.psk_order < 1:
            raise DomainError(f"psk_order must be >= 1, got {self.psk_order}")


@dataclass(frozen=True)
class EffectiveChannel:
    """Point-to-point reduction (kappa_eff, n_t_eff) of one sender's link."""

    kappa_eff: float
    n_t_eff: float
    n_s: float

    def __post_init__(self):
        _require_finite(self, "kappa_eff", "n_t_eff", "n_s")
        if not 0.0 <= self.kappa_eff <= 1.0:
            raise DomainError(f"kappa_eff must lie in [0, 1], got {self.kappa_eff}")
        if self.n_t_eff < 0.0:
            raise DomainError(f"n_t_eff must be >= 0, got {self.n_t_eff}")
        if self.n_s < 0.0:
            raise DomainError(f"n_s must be >= 0, got {self.n_s}")


def _s_param(n_s: float) -> float:
    return 2.0 * n_s + 1.0


def _c_q(n_s: float) -> float:
    return 2.0 * np.sqrt(n_s * (n_s + 1.0))


def rotation_block(theta: float) -> np.ndarray:
    """Correlation rotation block [[cos, sin], [sin, -cos]] (symmetric, det -1)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]])


def tmsv_cov(n_s: float) -> np.ndarray:
    """4x4 covariance of a two-mode squeezed vacuum with ``n_s`` photons/mode."""
    if n_s < 0.0:
        raise DomainError(f"n_s must be >= 0, got {n_s}")
    s = _s_param(n_s) * np.eye(2)
    c = _c_q(n_s) * rotation_block(0.0)
    return np.block([[s, c], [c, s]])


def bob_joint_cov(p: MacParams, m: ModulationConfig, theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """6x6 covariance of the receiver's joint state on modes (B, I_X, I_Y).

    The B block is (S kappa + N (1 - kappa)) I with S = 2 n_s + 1 and
    N = 2 n_t / (1 - kappa) + 1; the B-idler correlations carry the
    beamsplitter weights sqrt(kappa tau) and sqrt(kappa (1 - tau)) and
    the phase rotations of the two senders.
    """
    s = _s_param(m.n_s)
    cq = _c_q(m.n_s)
    n = 2.0 * p.n_t / (1.0 - p.kappa) + 1.0
    b_var = s * p.kappa + n * (1.0 - p.kappa)
    bx = cq * np.sqrt(p.kappa * p.tau) * rotation_block(theta)
    by = cq * np.sqrt(p.kappa * (1.0 - p.tau)) * rotation_block(phi)
    i2 = np.eye(2)
    z2 = np.zeros((2, 2))
    return np.block(
        [
            [b_var * i2, bx, by],
            [bx, s * i2, z2],
            [by, z2, s * i2],
        ]
    )


def willie_joint_cov(p: MacParams, m: ModulationConfig, theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """6x6 covariance of the eavesdropper's joint state on modes (W, I_X, I_Y).

    Same structure as the receiver's with kappa <-> 1 - kappa and the
    correlation sign flipped by the reflected port convention.
    """
    s = _s_param(m.n_s)
    cq = _c_q(m.n_s)
    w_var = s * (1.0 - p.kappa) + p.kappa * (2.0 * p.n_b + 1.0)
    wx = -cq * np.sqrt((1.0 - p.kappa) * p.tau) * rotation_block(theta)
    wy = -cq * np.sqrt((1.0 - p.kappa) * (1.0 - p.tau)) * rotation_block(phi)
    i2 = np.eye(2)
    z2 = np.zeros((2, 2))
    return np.block(
        [
            [w_var * i2, wx, wy],
            [wx, s * i2, z2],
            [wy, z2, s * i2],
        ]
    )


def conditioned_cov(p: MacParams, m: ModulationConfig, sender: str, theta: float = 0.0) -> np.ndarray:
    """4x4 covariance of (B, idler) after heterodyning the other idler.

    For sender "x" the interfering idler I_Y is measured, subtracting
    C_q^2 kappa (1 - tau) / (S + 1) from the B variance; sender "y" is
    the mirror image with tau <-> 1 - tau.  Equals the generic Schur
    complement of the joint 6x6 covariance exactly.
    """
    s = _s_param(m.n_s)
    cq = _c_q(m.n_s)
    n = 2.0 * p.n_t / (1.0 - p.kappa) + 1.0
    if sender == "x":
        own, other = p.tau, 1.0 - p.tau
    elif sender == "y":
        own, other = 1.0 - p.tau, p.tau
    else:
        raise DomainError(f"sender must be 'x' or 'y', got {sender!r}")
    b_var = s * p.kappa + n * (1.0 - p.kappa) - cq**2 * p.kappa * other / (s + 1.0)
    cross = cq * np.sqrt(p.kappa * own) * rotation_block(theta)
    i2 = np.eye(2)
    return np.block([[b_var * i2, cross], [cross, s * i2]])


def unconditioned_cov(p: MacParams, m: ModulationConfig, sender: str, theta: float = 0.0) -> np.ndarray:
    """4x4 marginal covariance of (B, idler) with the other idler discarded."""
    if sender not in ("x", "y"):
        raise DomainError(f"sender must be 'x' or 'y', got {sender!r}")
    joint = bob_joint_cov(p, m, theta, theta)
    idx = [0, 1, 2, 3] if sender == "x" else [0, 1, 4, 5]
    return joint[np.ix_(idx, idx)]


def conditioned_cov_oracle(p: MacParams, m: ModulationConfig, sender: str, theta: float = 0.0) -> np.ndarray:
    """Same reduction as conditioned_cov via the generic Schur complement."""
    phi = theta  # the measured idler's phase does not survive conditioning
    joint = GaussianState(np.zeros(6), bob_joint_cov(p, m, theta, phi))
    measured = [2] if sender == "x" else [1]
    return schur_condition_heterodyne(joint, measured, np.zeros(2)).cov


def effective_params(p: MacParams, m: ModulationConfig, sender: str, conditioned: bool) -> EffectiveChannel:
    """Map one sender's MAC link to point-to-point parameters.

    kappa_eff is kappa tau (sender "x") or kappa (1 - tau) (sender "y").
    Without conditioning, the other sender's signal acts as extra thermal
    noise, n_t_eff = n_t + kappa n_s (1 - tau) (resp. tau).  After
    heterodyne conditioning the interference cancels exactly and
    n_t_eff = n_t; this is the variance-matched value, fixed by requiring
    the rebuilt covariance to equal the conditioned block.
    """
    if sender == "x":
        own, other = p.tau, 1.0 - p.tau
    elif sender == "y":
        own, other = 1.0 - p.tau, p.tau
    else:
        raise DomainError(f"sender must be 'x' or 'y', got {sender!r}")
    kappa_eff = p.kappa * own
    if conditioned:
        n_t_eff = p.n_t
    else:
        n_t_eff = p.n_t + p.kappa * m.n_s * other
    return EffectiveChannel(kappa_eff=kappa_eff, n_t_eff=n_t_eff, n_s=m.n_s)


def effective_cov(eff: EffectiveChannel, theta: float = 0.0) -> np.ndarray:
    """Rebuild the 4x4 (B, idler) covariance from effective parameters."""
    s = _s_param(eff.n_s)
    cq = _c_q(eff.n_s)
    b_var = 2.0 * eff.kappa_eff * eff.n_s + 2.0 * eff.n_t_eff + 1.0
    cross = cq * np.sqrt(eff.kappa_eff) * rotation_block(theta)
    i2 = np.eye(2)
    return np.block([[b_var * i2, cross], [cross, s * i2]])
