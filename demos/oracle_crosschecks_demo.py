"""Every closed form in the package checked against an independent route.

The Gaussian layer works with 2m x 2m covariance matrices; the Fock
layer rebuilds the same states as explicit density matrices on a
truncated photon-number basis and recomputes everything spectrally.
This script narrates the main agreements.

Run:  python demos/oracle_crosschecks_demo.py
"""

import numpy as np

from eamac import EffectiveChannel, MacParams, ModulationConfig, g_entropy
from eamac.channel import bob_joint_cov, conditioned_cov, conditioned_cov_oracle, effective_params
from eamac.fock import (
    conditional_output_density,
    entropy_fock,
    mac_joint_fock,
    moments_from_fock,
    psk_ensemble_mi,
    tmsv_fock,
)
from eamac.region import conditional_entropy_term
from eamac.validate import run_suite

print("=== 1. Entropy: covariance route vs spectral route ===")
for n_s in (0.1, 0.5):
    gauss = g_entropy(n_s)
    spectral = entropy_fock(tmsv_fock(n_s, 40).partial_trace([1]))
    print(f"n_s = {n_s}: g({n_s}) = {gauss:.12f}, TMSV reduced-mode entropy = {spectral:.12f}")

print("\n=== 2. Heterodyne conditioning vs generic Schur complement ===")
p = MacParams(tau=0.37, kappa=0.62, n_b=1.4)
m = ModulationConfig(n_s=0.8)
gap = np.max(np.abs(conditioned_cov(p, m, "x", 0.9) - conditioned_cov_oracle(p, m, "x", 0.9)))
print(f"closed-form conditioned covariance vs Schur oracle: max gap {gap:.2e}")
eff = effective_params(p, m, "x", conditioned=True)
print(f"conditioned effective noise = {eff.n_t_eff} (equals the background n_t = {p.n_t})")

print("\n=== 3. The full channel, rebuilt photon by photon ===")
p2 = MacParams(tau=0.6, kappa=0.6, n_b=0.5)
rho = mac_joint_fock(p2, 0.12, 10, tail_tol=1e-6)
_, cov = moments_from_fock(rho)
ref = bob_joint_cov(p2, ModulationConfig(n_s=0.12))
print(f"joint (B, I_X, I_Y) covariance from the Fock state vs closed form: max gap {np.max(np.abs(cov - ref)):.2e}")

print("\n=== 4. Conditional entropy formula vs Fock spectrum ===")
eff = EffectiveChannel(0.25, 0.525, 0.1)
closed = conditional_entropy_term(eff)
spectral = entropy_fock(conditional_output_density(eff, 28, tail_tol=1e-10))
print(f"closed form {closed:.9f} vs Fock spectrum {spectral:.9f}")

print("\n=== 5. Phase-ensemble information, discrete vs continuous ===")
for order in (8, 16, 32, 64, 128):
    print(f"L = {order:4d}: MI = {psk_ensemble_mi(eff, order, 24):.9f} nats")
print("once L >= 2d the discrete average equals the continuous one exactly")

print("\n=== 6. The packaged validation suite ===")
for res in run_suite(seed=1234, samples=200000):
    status = "pass" if res.passed else "FAIL"
    print(f"[{status}] {res.name}: measured {res.measured:.3e} vs tolerance {res.tolerance:.0e}")
    print(f"        {res.detail}")
