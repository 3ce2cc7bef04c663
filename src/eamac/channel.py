"""Gaussian states of the two-sender bosonic MAC.

Two senders hold the signal halves of independent two-mode squeezed
vacuum pairs whose idlers sit with the receiver.  The signals are
combined on a beamsplitter of transmissivity ``tau`` and the combined
mode crosses a thermal-loss channel of transmissivity ``kappa`` with
environment mean photon number ``n_b``.  This module builds every
covariance matrix of that chain plus the point-to-point reductions used
by the rate computations.

A receiver enters only through its pair (kappa_r, background) from
``MacParams.receiver``: (kappa, n_t) for the receiver Bob and
(1 - kappa, kappa n_b) for the warden Willie on the reflected port.  One
function, ``_joint_cov``, gives both joint covariances from that pair,
and the conditioned (B, idler) covariance is the rebuilt covariance of
the conditioned effective link, ``effective_cov(effective_params(...))``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import check_choice, check_real
from .gaussian import MAX_PHOTONS, GaussianState, schur_condition_heterodyne

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


_SENDERS = ("x", "y")


@dataclass(frozen=True)
class MacParams:
    """Channel triple (tau, kappa, n_b); n_t is always derived."""

    tau: float
    kappa: float
    n_b: float

    def __post_init__(self):
        check_real("tau", self.tau, 0, 1)
        check_real("kappa", self.kappa, 0, 1, "()")
        check_real("n_b", self.n_b, 0, ends="(]")

    @property
    def n_t(self) -> float:
        return (1.0 - self.kappa) * self.n_b

    def receiver(self, name: str) -> tuple[float, float]:
        """(kappa_r, background): the signal coupling and thermal background at
        receiver "bob" (kappa, n_t) or at the warden "willie" (1 - kappa, kappa n_b)."""
        check_choice("receiver", name, ("bob", "willie"))
        if name == "bob":
            return self.kappa, self.n_t
        return 1.0 - self.kappa, self.kappa * self.n_b


@dataclass(frozen=True)
class ModulationConfig:
    """Signal mean photon number per TMSV mode."""

    n_s: float

    def __post_init__(self):
        check_real("n_s", self.n_s, 0)


@dataclass(frozen=True)
class EffectiveChannel:
    """Point-to-point reduction (kappa_eff, n_t_eff) of one sender's link."""

    kappa_eff: float
    n_t_eff: float
    n_s: float

    def __post_init__(self):
        check_real("kappa_eff", self.kappa_eff, 0, 1)
        check_real("n_t_eff", self.n_t_eff, 0)
        check_real("n_s", self.n_s, 0)


def _s_param(n_s: float) -> float:
    return 2.0 * n_s + 1.0


def _c_q(n_s: float) -> float:
    return 2.0 * np.sqrt(n_s * (n_s + 1.0))


def rotation_block(theta: float) -> np.ndarray:
    """Correlation rotation block [[cos, sin], [sin, -cos]] (symmetric, det -1)."""
    check_real("theta", theta)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]])


def _output_idler_cov(out_var: float, idler_var: float, crosses) -> np.ndarray:
    """Covariance of one output mode against mutually independent idlers: output
    block out_var I, idler blocks idler_var I, output-idler blocks ``crosses``."""
    cov = idler_var * np.eye(2 + 2 * len(crosses))
    cov[:2, :2] = out_var * np.eye(2)
    cov[:2, 2:] = np.hstack(crosses)
    cov[2:, :2] = cov[:2, 2:].T
    return cov


def tmsv_cov(n_s: float) -> np.ndarray:
    """4x4 covariance of a two-mode squeezed vacuum with ``n_s`` photons/mode."""
    check_real("n_s", n_s, 0, MAX_PHOTONS)
    return _output_idler_cov(_s_param(n_s), _s_param(n_s), [_c_q(n_s) * rotation_block(0.0)])


def _joint_cov(p: MacParams, m: ModulationConfig, receiver: str, sign: float, theta: float, phi: float) -> np.ndarray:
    """6x6 covariance on (R, I_X, I_Y) of a receiver with (kappa_r, background).

    The R variance is 2 (kappa_r n_s + background) + 1; the R-idler
    correlations are sign C_q sqrt(kappa_r tau) R(theta) and
    sign C_q sqrt(kappa_r (1 - tau)) R(phi).
    """
    kappa_r, background = p.receiver(receiver)
    cq = sign * _c_q(m.n_s)
    crosses = (
        cq * np.sqrt(kappa_r * p.tau) * rotation_block(theta),
        cq * np.sqrt(kappa_r * (1.0 - p.tau)) * rotation_block(phi),
    )
    return _output_idler_cov(2.0 * (kappa_r * m.n_s + background) + 1.0, _s_param(m.n_s), crosses)


def bob_joint_cov(p: MacParams, m: ModulationConfig, theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """6x6 covariance of the receiver's joint state on modes (B, I_X, I_Y):
    ``_joint_cov`` at p.receiver("bob") = (kappa, n_t), sign +1."""
    return _joint_cov(p, m, "bob", 1.0, theta, phi)


def willie_joint_cov(p: MacParams, m: ModulationConfig, theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """6x6 covariance of the eavesdropper's joint state on modes (W, I_X, I_Y):
    ``_joint_cov`` at p.receiver("willie") = (1 - kappa, kappa n_b), sign -1,
    because the reflected port flips the correlations."""
    return _joint_cov(p, m, "willie", -1.0, theta, phi)


def conditioned_cov(p: MacParams, m: ModulationConfig, sender: str, theta: float = 0.0) -> np.ndarray:
    """4x4 covariance of (B, idler) after heterodyning the other idler.

    Heterodyning the interfering idler subtracts C_q^2 kappa (1 - tau) / (S + 1)
    = 2 kappa n_s (1 - tau) (sender "x"; tau <-> 1 - tau for "y") from the B
    variance, which cancels the other sender's signal exactly, so this is
    the rebuilt covariance of the conditioned effective link.
    ``conditioned_cov_oracle`` is the generic Schur complement it is checked against.
    """
    return effective_cov(effective_params(p, m, sender, True), theta)


def unconditioned_cov(p: MacParams, m: ModulationConfig, sender: str, theta: float = 0.0) -> np.ndarray:
    """4x4 marginal covariance of (B, idler) with the other idler discarded."""
    check_choice("sender", sender, _SENDERS)
    joint = bob_joint_cov(p, m, theta, theta)
    idx = [0, 1, 2, 3] if sender == "x" else [0, 1, 4, 5]
    return joint[np.ix_(idx, idx)]


def conditioned_cov_oracle(p: MacParams, m: ModulationConfig, sender: str, theta: float = 0.0) -> np.ndarray:
    """Same reduction as conditioned_cov via the generic Schur complement."""
    check_choice("sender", sender, _SENDERS)
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
    check_choice("sender", sender, _SENDERS)
    own, other = (p.tau, 1.0 - p.tau) if sender == "x" else (1.0 - p.tau, p.tau)
    kappa_eff = p.kappa * own
    if conditioned:
        n_t_eff = p.n_t
    else:
        n_t_eff = p.n_t + p.kappa * m.n_s * other
    return EffectiveChannel(kappa_eff=kappa_eff, n_t_eff=n_t_eff, n_s=m.n_s)


def effective_cov(eff: EffectiveChannel, theta: float = 0.0) -> np.ndarray:
    """Rebuild the 4x4 (B, idler) covariance from effective parameters."""
    b_var = 2.0 * eff.kappa_eff * eff.n_s + 2.0 * eff.n_t_eff + 1.0
    cross = _c_q(eff.n_s) * np.sqrt(eff.kappa_eff) * rotation_block(theta)
    return _output_idler_cov(b_var, _s_param(eff.n_s), [cross])
