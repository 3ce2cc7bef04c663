"""Rate regions and covert throughput for the entanglement-assisted bosonic MAC.

Layers, bottom up:

- ``gaussian``: covariance-matrix algebra (symplectic spectra, entropies,
  Gaussian channels, heterodyne conditioning).
- ``channel``: the two-sender channel's states and point-to-point reductions.
- ``region``: rate regions from the links' photon-number laws, and their rectangle limit.
- ``planner``: covert power budget, two-layer throughput, detection bounds.
- ``fock``: truncated Fock-space oracle for everything above; off the product path.
- ``validate``: cross-check suite pitting closed forms against the oracle.
"""

__version__ = "0.1.0"

from .channel import EffectiveChannel, MacParams, ModulationConfig
from .gaussian import GaussianState, entropy_from_cov, g_entropy, symplectic_eigenvalues
from .planner import CovertPlan, build_plan, covert_budget, q_inv
from .region import RateRegion, RegionNumerics, covert_rectangle, achievable_region

__all__ = [
    "__version__",
    "MacParams",
    "ModulationConfig",
    "EffectiveChannel",
    "GaussianState",
    "g_entropy",
    "entropy_from_cov",
    "symplectic_eigenvalues",
    "RateRegion",
    "RegionNumerics",
    "achievable_region",
    "covert_rectangle",
    "CovertPlan",
    "build_plan",
    "covert_budget",
    "q_inv",
]
