"""Planning a covert transmission: budget, two-layer rates, resource ledger.

The warden watches n channel uses; staying below a detection budget
delta forces the weighted power (alpha tau + beta (1-tau)) s under a
ceiling that shrinks like 1/sqrt(n).  Within that ceiling, the sparse
layer carries key-assisted messages at O(n alpha s^2) nats while the
modulated layer rides the shared entanglement to O(sqrt(n) log n).

Run:  python demos/covert_plan_demo.py
"""

import math

from eamac import MacParams, build_plan, covert_budget
from eamac.planner import (
    chernoff_truncation,
    scaling_limits,
    scaling_plan,
    relent_exact,
    relent_leading,
    second_order_rate,
    weighted_power,
    willie_tv_leading,
    willie_tv_mc,
)
from eamac.validate import tv_experiment_params

p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
n, delta = 10**6, 0.1

print("=== Covert power budget ===")
budget = covert_budget(n, delta, p)
print(f"n = {n:.0e}, delta = {delta}: (alpha tau + beta (1-tau)) s <= {budget:.4e}")
print(f"check the scaling: budget(4n) = {covert_budget(4 * n, delta, p):.4e} (exactly half)")

alpha = beta = s = 1e-2
print(f"\nchosen operating point alpha = beta = s = {alpha}")
print(f"weighted power = {weighted_power(alpha, beta, s, p):.4e} (feasible)")

print("\n=== Full plan ===")
plan = build_plan(n, alpha, beta, s, p, delta=delta)
for name, value in plan.rates():
    print(f"{name:>18} = {value:12.6f} nats")
print(f"{'l_x':>18} = {plan.layer2.l_x} TMSV pairs, consuming {plan.layer2.ent_nats_x:.1f} entangled nats")
print(f"{'l_y':>18} = {plan.layer2.l_y} TMSV pairs, consuming {plan.layer2.ent_nats_y:.1f} entangled nats")
print("note the modulated layer dwarfs the sparse layer: that is the sqrt(n) log n gain")

print("\n=== Light-codeword truncation risk ===")
bound = chernoff_truncation(n, alpha, beta, plan.mu_bar)
print(f"P(either codeword atypically light) <= {bound:.3e} at mu_bar = {plan.mu_bar}")

print("\n=== The warden's view ===")
tv = willie_tv_leading(n, alpha, beta, s, p)
print(f"leading detection advantage: {tv:.4e} (well inside delta = {delta})")
small_n = 10**4
p_loud, alpha_loud, beta_loud, s_loud = tv_experiment_params(0.30, small_n)
est = willie_tv_mc(small_n, alpha_loud, beta_loud, s_loud, p_loud, samples=200000, seed=7)
print(
    f"at a deliberately loud point (n = {small_n}, tv_leading = 0.30): "
    f"Monte Carlo gives {est.value:.4f} +- {est.stderr:.4f}"
)

print("\n=== Second-order sparse-layer rate ===")
stats_lead = relent_leading(p, alpha, beta, s, "bob", "joint")
stats_exact = relent_exact(p, alpha, beta, s, "bob", "joint")
print(f"per-slot D: leading {stats_lead.d:.4e}, exact {stats_exact.d:.4e}")
rate = second_order_rate(n, stats_exact, eps=0.1)
print(f"n D - sqrt(n V) Q^-1(eps^2) = {rate:.4f} nats at eps = 0.1")
print("(negative here: at this power, n = 1e6 is still inside the finite-block penalty)")

print("\n=== Scaling limits along the n^(gamma - 1/2) schedule ===")
gamma = 0.25
alpha_c = beta_c = 0.5
s_c = covert_budget(1, delta, p) / weighted_power(alpha_c, beta_c, 1.0, p)
lim = scaling_limits(gamma, alpha_c, beta_c, s_c, p, delta=delta)
print(f"layer-1 constants: {lim.layer1_x:.6f}, {lim.layer1_y:.6f}  (per n^(1/2 - gamma))")
print(f"layer-2 constants: {lim.layer2_x:.6f}, {lim.layer2_y:.6f}  (per sqrt(n) log n)")
print(f"entangled nats:    {lim.ent_nats_x:.6f}, {lim.ent_nats_y:.6f}  (per sqrt(n) log n)")
for n_k in (10**4, 10**6, 10**8):
    plan_k = scaling_plan(n_k, gamma, alpha_c, beta_c, s_c, p, delta)
    norm = math.sqrt(n_k) * math.log(n_k)
    print(
        f"n = {n_k:.0e}: layer-2 X normalized = {plan_k.layer2.log_m_x2 / norm:.6f} "
        f"(limit {lim.layer2_x:.6f})"
    )
