"""Covert throughput planning: power budget, two-layer rates, and oracles.

All quantities are leading-order evaluations of the covert coding
scheme's guarantees; the little-o corrections are attached as order
strings rather than silently estimated.  A receiver enters only through
its pair (kappa_r, b) from ``MacParams.receiver``: the budget through
the warden's, and the sparse layer's rates as n times the leading
chi-square divergence weight kappa_r^2 / (2 b (1+b)) (``relent_leading``),
at the receiver for messages and at the warden for keys.
``covert_feasibility`` is the one feasibility rule, used by
``build_plan`` and the CLI.  The sparse layer is one 2 x 2 table of
photon-number-diagonal thermal laws over the senders' on/off inputs
(``slot_laws``), which the exact evaluators relent_exact and
willie_tv_mc measure classically.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import MacParams
from .errors import ConfigError, DomainError, InfeasibleError, check_choice, check_count, check_real
from .gaussian import _g
from .region import _low_photon_coefficients, photon_distribution_thermal, required_cutoff

__all__ = [
    "q_func",
    "q_inv",
    "covert_budget",
    "weighted_power",
    "covert_feasibility",
    "Layer1Rates",
    "Layer2Rates",
    "CovertPlan",
    "layer1_throughput",
    "layer2_throughput",
    "build_plan",
    "ScalingLimits",
    "scaling_limits",
    "scaling_plan",
    "RelEntStats",
    "slot_laws",
    "relent_leading",
    "relent_exact",
    "willie_tv_leading",
    "McEstimate",
    "willie_tv_mc",
    "chernoff_truncation",
    "second_order_rate",
]


_STANDARD_NORMAL = NormalDist()


def q_func(z: float) -> float:
    """Standard normal upper-tail probability Q(z)."""
    check_real("z", z)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def q_inv(p: float) -> float:
    """Inverse of the Q function, to |Q(q_inv(p)) - p| <= 1e-12.

    The seed is -Phi^{-1}(p) from Wichura's rational approximation AS241
    (Appl. Stat. 37, 477 (1988)), as ``statistics.NormalDist.inv_cdf``
    implements it; up to three Halley steps on Q(z) - p, with Q' = -phi and
    Q'' = z phi, then pin the round trip to the erfc evaluation itself.
    """
    check_real("p", p, 0, 1, "()")
    z = 0.0 - _STANDARD_NORMAL.inv_cdf(p)  # +0.0 at p = 1/2, where -inv_cdf gives -0.0
    for _ in range(3):
        miss = q_func(z) - p
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        # an exact seed, or a density below the smallest double, ends the polish
        if miss == 0.0 or density == 0.0:
            break
        z += 2.0 * miss / (2.0 * density - z * miss)
    return z


def covert_budget(n: int, delta: float, p: MacParams) -> float:
    """Largest admissible weighted power (alpha tau + beta (1-tau)) s at
    block length n and detection budget delta."""
    check_real("n", n, 1)
    check_real("delta", delta, 0, 1, "[)")
    if delta == 0.0:
        return 0.0
    budget = _willie_coeff(p) * q_inv((1.0 - delta) / 2.0) / math.sqrt(n)
    if not math.isfinite(budget):  # b (1 + b) overflows at the warden's b = kappa n_b
        raise DomainError(f"n_b = {p.n_b} is too large for a finite covert budget")
    return budget


def _willie_coeff(p: MacParams) -> float:
    """Weighted power per unit Q^{-1} at n = 1: 2 sqrt(b (1+b)) / kappa_r at Willie."""
    kappa_r, b = p.receiver("willie")
    return 2.0 * math.sqrt(b * (1.0 + b)) / kappa_r


def _leading_tv(n: float, power: float, p: MacParams) -> float:
    """Leading detection advantage 1 - 2 Q(sqrt(n) power / c) at weighted power ``power``."""
    check_real("the warden's background kappa n_b", p.receiver("willie")[1], 0, ends="(]")
    z = check_real("sqrt(n) (alpha tau + beta (1 - tau)) s / c", math.sqrt(n) * power / _willie_coeff(p))
    return 1.0 - 2.0 * q_func(z)


def _chi2_rate(p: MacParams, receiver: str, weight: float) -> float:
    """Leading chi-square divergence weight kappa_r^2 / (2 b (1+b)) at ``receiver``,
    whose signal coupling is kappa_r and thermal background b; a background that
    rounds to 0, or a weight that overflows the rate, is a DomainError."""
    kappa_r, b = p.receiver(receiver)
    return check_real("leading divergence", weight * kappa_r**2 / (2.0 * b * (1.0 + b)) if b > 0.0 else math.inf)


def weighted_power(alpha: float, beta: float, s: float, p: MacParams) -> float:
    """The quantity the warden's test responds to: (alpha tau + beta (1-tau)) s; alpha and
    beta are on-probabilities, or schedule constants above 1 that can overflow it."""
    check_real("alpha", alpha, 0)
    check_real("beta", beta, 0)
    check_real("s", s, 0)
    return check_real("weighted power", (alpha * p.tau + beta * (1.0 - p.tau)) * s)


def covert_feasibility(n: int, alpha: float, beta: float, s: float, p: MacParams, delta: float):
    """(power, budget, feasible): the weighted power, the covert budget at (n, delta),
    and whether power <= budget up to a relative 1e-12 slack for the budget's rounding."""
    check_real("alpha", alpha, 0, 1)
    check_real("beta", beta, 0, 1)
    power = weighted_power(alpha, beta, s, p)
    budget = covert_budget(n, delta, p)
    return power, budget, power <= budget * (1.0 + 1e-12)


@dataclass(frozen=True)
class Layer1Rates:
    """Leading-order sparse-layer rates, message and key-stuffed, in nats."""

    log_m_x1: float
    log_m_y1: float
    log_m_xy1: float
    log_m_x1_keys: float
    log_m_y1_keys: float
    log_m_keys_total: float

    ORDERS = {
        "log_m_x1": "o(n*alpha*s^2)",
        "log_m_y1": "o(n*beta*s^2)",
        "log_m_xy1": "o(n*(alpha+beta)*s^2)",
        "log_m_x1_keys": "o(n*alpha*s^2)",
        "log_m_y1_keys": "o(n*beta*s^2)",
        "log_m_keys_total": "o(n*(alpha+beta)*s^2)",
    }


@dataclass(frozen=True)
class Layer2Rates:
    """Leading-order modulation-layer rates plus the entanglement ledger."""

    log_m_x2: float
    log_m_y2: float
    log_m_xy2: float
    l_x: int
    l_y: int
    ent_nats_x: float
    ent_nats_y: float

    ORDERS = {
        "log_m_x2": "O(n*alpha*s)",
        "log_m_y2": "O(n*beta*s)",
        "log_m_xy2": "O(n*(alpha+beta)*s)",
    }


def layer1_throughput(n: int, alpha: float, beta: float, s: float, p: MacParams) -> Layer1Rates:
    """Sparse-layer message and key budgets at leading order.

    Each rate is n times the leading divergence of ``relent_leading``: the
    message rates at the receiver (kappa, n_t) for the x, y and joint
    marginals, the key-stuffed ceilings at the warden (1 - kappa, kappa n_b).
    ``build_plan`` checks the budget.
    """
    check_real("n", n, 1)
    check_real("alpha", alpha, 0, 1)
    check_real("beta", beta, 0, 1)
    check_real("s", s, 0, 1)
    # this product order fixes the printed digits of plan and sweep
    x_weight = n * alpha * p.tau**2 * s**2
    y_weight = n * beta * (1.0 - p.tau) ** 2 * s**2
    weights = (x_weight, y_weight, x_weight + y_weight)
    return Layer1Rates(*(_chi2_rate(p, receiver, w) for receiver in ("bob", "willie") for w in weights))


def layer2_throughput(n: int, alpha: float, beta: float, s: float, p: MacParams, mu_bar: float) -> Layer2Rates:
    """Modulation-layer rates (1-mu_bar) scaled, plus TMSV pair counts."""
    check_real("n", n, 1)
    check_real("alpha", alpha, 0, 1)
    check_real("beta", beta, 0, 1)
    check_real("mu_bar", mu_bar, 0, 1, "()")
    check_real("s", s, 0, 1, "()")  # the -s log s expansion
    scale = (1.0 - mu_bar) * n * (-s * math.log(s))
    coeff_x, coeff_y = _low_photon_coefficients(p)
    l_x = math.ceil(n * alpha * (1.0 - mu_bar))
    l_y = math.ceil(n * beta * (1.0 - mu_bar))
    ent_per_pair = _g(s)
    return Layer2Rates(
        log_m_x2=scale * coeff_x * alpha,
        log_m_y2=scale * coeff_y * beta,
        log_m_xy2=scale * (coeff_x * alpha + coeff_y * beta),
        l_x=l_x,
        l_y=l_y,
        ent_nats_x=l_x * ent_per_pair,
        ent_nats_y=l_y * ent_per_pair,
    )


@dataclass(frozen=True)
class CovertPlan:
    """A fully resolved covert transmission plan."""

    n: int
    alpha: float
    beta: float
    s: float
    mu_bar: float
    delta: float
    epsilon: float
    power: float
    budget: float
    layer1: Layer1Rates
    layer2: Layer2Rates

    def rates(self):
        """The nine rate outputs as (name, value) pairs, in nats."""
        return [(name, getattr(layer, name)) for layer in (self.layer1, self.layer2) for name in layer.ORDERS]


def build_plan(
    n: int,
    alpha: float,
    beta: float,
    s: float,
    p: MacParams,
    delta: float,
    epsilon: float = 0.05,
    mu_bar: float = 0.1,
) -> CovertPlan:
    """Resolve a full plan; raises InfeasibleError when the budget fails."""
    return _resolve_plan(n, alpha, beta, s, p, delta, epsilon, mu_bar)


def _resolve_plan(n, alpha, beta, s, p, delta, epsilon, mu_bar, feasibility=None) -> CovertPlan:
    """``build_plan``, reusing the (power, budget, feasible) of ``covert_feasibility`` when given;
    alpha and beta take that function's rule, [0, 1]."""
    for name, value in (("s", s), ("mu_bar", mu_bar), ("epsilon", epsilon)):
        check_real(name, value, 0, 1, "()")
    power, budget, feasible = feasibility or covert_feasibility(n, alpha, beta, s, p, delta)
    if not feasible:
        raise InfeasibleError(
            f"covert power budget violated: (alpha*tau + beta*(1-tau))*s = {power:.6g} "
            f"> budget {budget:.6g} at n={n}, delta={delta}",
            binding="covert-budget",
        )
    return CovertPlan(
        n=n,
        alpha=alpha,
        beta=beta,
        s=s,
        mu_bar=mu_bar,
        delta=delta,
        epsilon=epsilon,
        power=power,
        budget=budget,
        layer1=layer1_throughput(n, alpha, beta, s, p),
        layer2=layer2_throughput(n, alpha, beta, s, p, mu_bar),
    )


def scaling_plan(
    n: int, gamma: float, alpha: float, beta: float, s: float, p: MacParams, delta: float, mu_bar=None
) -> CovertPlan:
    """Plan at the equal-sparsity-order schedule alpha_n = alpha n^(gamma-1/2),
    beta_n likewise, s_n = s n^(-gamma).

    ``mu_bar`` defaults to 1/log n, which vanishes while keeping the
    light-codeword probability negligible (mu_bar^2 n alpha_n -> infinity).
    """
    check_real("n", n, 1, ends="(]")
    check_real("gamma", gamma, 0, 0.5, "()")
    for name, value in (("alpha", alpha), ("beta", beta), ("s", s)):
        check_real(name, value, 0)
    alpha_n = alpha * n ** (gamma - 0.5)
    beta_n = beta * n ** (gamma - 0.5)
    s_n = s * n ** (-gamma)
    if mu_bar is None:
        mu_bar = 1.0 / math.log(n)
    return build_plan(n, alpha_n, beta_n, s_n, p, delta=delta, mu_bar=mu_bar)


@dataclass(frozen=True)
class ScalingLimits:
    """Limit constants of the equal-sparsity-order scaling regime."""

    layer1_x: float
    layer1_y: float
    layer2_x: float
    layer2_y: float
    ent_nats_x: float
    ent_nats_y: float
    implied_delta: float


def scaling_limits(
    gamma: float, alpha: float, beta: float, s: float, p: MacParams, delta=None
) -> ScalingLimits:
    """The five limit constants of the n^(gamma - 1/2) sparsity schedule.

    Layer 1 rates are normalized by n^(1/2 - gamma); Layer 2 rates and
    entangled-nats consumption by sqrt(n) log n.  When ``delta`` is
    given, (alpha tau + beta (1-tau)) s must equal the covert budget
    constant for that delta; otherwise the implied delta is derived from
    exact equality.  The schedule's constants alpha and beta may exceed 1.
    """
    check_real("gamma", gamma, 0, 0.5, "()")
    power = weighted_power(alpha, beta, s, p)
    if delta is not None:
        target = covert_budget(1, delta, p)
        if not math.isclose(power, target, rel_tol=1e-9, abs_tol=0.0):
            raise InfeasibleError(
                f"(alpha*tau + beta*(1-tau))*s = {power:.9g} does not match the budget "
                f"constant {target:.9g} for delta={delta}",
                binding="budget-constant",
            )
        implied = delta
    else:
        implied = _leading_tv(1, power, p)
        if not 0.0 < implied < 1.0:
            raise InfeasibleError(
                f"power {power:.6g} implies no detection budget in (0, 1)", binding="budget-constant"
            )
    coeff_x, coeff_y = _low_photon_coefficients(p)
    return ScalingLimits(
        layer1_x=_chi2_rate(p, "bob", alpha * p.tau**2 * (s * s)),
        layer1_y=_chi2_rate(p, "bob", beta * (1.0 - p.tau) ** 2 * (s * s)),
        layer2_x=gamma * coeff_x * alpha * s,
        layer2_y=gamma * coeff_y * beta * s,
        ent_nats_x=gamma * alpha * s,
        ent_nats_y=gamma * beta * s,
        implied_delta=float(implied),
    )


@dataclass(frozen=True)
class RelEntStats:
    """Relative entropy, its variance, and the declared remainder order."""

    d: float
    v: float
    r_order: str


_MARGINALS = ("joint", "x", "y")


def relent_leading(p: MacParams, alpha: float, beta: float, s: float, receiver: str, marginal: str) -> RelEntStats:
    """Leading-order D and V of the sparse layer's per-slot divergences.

    D is the chi-square divergence (alpha tau^2 + beta (1-tau)^2) s^2 kappa_r^2
    / (2 b (1+b)) at the receiver (kappa_r, b), keeping the alpha term for
    the x marginal and the beta term for y.  V equals 2 D at this order.
    Valid as an approximation only for small alpha, beta, s.
    """
    check_choice("marginal", marginal, _MARGINALS)
    check_real("alpha", alpha, 0, 1)
    check_real("beta", beta, 0, 1)
    check_real("s", s, 0)
    x_weight, y_weight = alpha * p.tau**2, beta * (1.0 - p.tau) ** 2
    weight, order = {
        "joint": (x_weight + y_weight, "O((alpha+beta)*s^4)"),
        "x": (x_weight, "O(alpha*s^4)"),
        "y": (y_weight, "O(beta*s^4)"),
    }[marginal]
    d = _chi2_rate(p, receiver, weight * (s * s))  # s * s is inf, where s**2 raises, past 1e154
    return RelEntStats(d=d, v=2.0 * d, r_order=order)


def slot_laws(p: MacParams, alpha: float, beta: float, s: float, receiver: str):
    """The sparse layer's per-slot table at ``receiver``: ``weights`` (2, 2), the
    P(x) P(y) of the on/off inputs x ~ Bern(alpha), y ~ Bern(beta), and ``laws``
    (2, 2, cutoff), thermal of mean b + kappa_r (tau s x + (1 - tau) s y) with
    (kappa_r, b) = p.receiver(receiver).  The cutoff keeps the tail of mean
    b + kappa_r s below 1e-18, plus 16 levels, and is at least 32: then no
    willie_tv_mc draw over n * samples slots is likely to reach it."""
    check_real("alpha", alpha, 0, 1)
    check_real("beta", beta, 0, 1)
    check_real("s", s, 0)
    kappa_r, background = p.receiver(receiver)
    check_real(f"background at {receiver}", background, 0, ends="(]")  # a zero law has no log-likelihood
    weights = np.outer([1.0 - alpha, alpha], [1.0 - beta, beta])
    x, y = np.ogrid[:2, :2]
    means = background + kappa_r * (p.tau * s * x + (1.0 - p.tau) * s * y)
    cutoff = max(required_cutoff(background + kappa_r * s, 1e-18) + 16, 32)
    return weights, photon_distribution_thermal(means, cutoff)


def relent_exact(p: MacParams, alpha: float, beta: float, s: float, receiver: str, marginal: str) -> RelEntStats:
    """Exact classical D and V over the per-slot law table (``slot_laws``).

    The per-slot states are simultaneously Fock-diagonal, so the quantum
    divergences reduce to classical ones: each law against its reference,
    the table mixed over the axes the marginal averages out (both for
    joint, x for x, y for y), weighted by the table's weights.
    """
    check_choice("marginal", marginal, _MARGINALS)
    weights, laws = slot_laws(p, alpha, beta, s, receiver)
    # (axes the reference mixes over, axes summed out of its mixing weights)
    mixed, summed = {"joint": ((0, 1), ()), "x": ((0,), (1,)), "y": ((1,), (0,))}[marginal]
    share = weights.sum(axis=summed, keepdims=True)
    ref = np.broadcast_to((share[..., None] * laws).sum(axis=mixed, keepdims=True), laws.shape)
    live = weights != 0.0
    law, ref, w = laws[live], ref[live], weights[live]
    # a level that a tiny mean or weight underflows to 0 adds nothing above rounding
    pos = (law > 0.0) & (ref > 0.0)
    llr = np.log(law, out=np.zeros(law.shape), where=pos) - np.log(ref, out=np.zeros(law.shape), where=pos)
    d = float(sum(w * np.sum(law * llr, axis=-1), 0.0))
    v = float(sum(w * np.sum(law * (llr - d) ** 2, axis=-1), 0.0))
    return RelEntStats(d=d, v=v, r_order="exact")


def willie_tv_leading(n: int, alpha: float, beta: float, s: float, p: MacParams) -> float:
    """Leading term of the warden's detection advantage (trace distance)."""
    check_real("n", n, 1)
    check_real("alpha", alpha, 0, 1)
    check_real("beta", beta, 0, 1)
    return _leading_tv(n, weighted_power(alpha, beta, s, p), p)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    samples: int


# rows per spawned seed, which fixes the random stream
_MC_CHUNK = 1 << 16
# rows scored at once, which fixes the summation order of f and f^2
_MC_BLOCK = 1 << 12
# most bytes of int64 counts one multinomial call holds, whatever the table width
_MC_DRAW_BYTES = 1 << 19
MAX_SAMPLES = 10**8  # most Monte Carlo samples of one estimate, about a minute on two workers
# most Monte Carlo threads: the estimate never depends on the count, and each thread
# holds up to _MC_DRAW_BYTES of counts, so the pool's counts stay within 32 MB
MAX_WORKERS = 64


def willie_tv_mc(
    n: int,
    alpha: float,
    beta: float,
    s: float,
    p: MacParams,
    samples: int,
    seed=None,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of the warden's n-slot total variation.

    With P = q1^n (some sender may transmit), Q = q0^n (both silent), the
    mixture M = (P + Q) / 2 and S the n-slot log-likelihood ratio,
    TV(P, Q) = E_M[|p - q| / (p + q)] = E_M[|tanh(S / 2)|].  The estimate
    is the mean of f = |tanh(S / 2)| in [0, 1] over ``samples`` i.i.d.
    draws from M in total (not per hypothesis), with the plug-in standard
    error sqrt(Var(f) / samples).  Slots are i.i.d., so each n-slot draw
    reduces to a multinomial count vector over photon numbers, and S is
    that vector dotted with the per-slot llr.

    Samples are split into chunks of ``_MC_CHUNK`` rows, the unit of
    seeding: chunk seeds are spawned from ``seed`` independently of the
    worker count, chunks run on a pool of ``workers`` threads, and
    aggregation is a plain sum in chunk order.  A chunk of m rows draws
    k ~ Binomial(m, 1/2), then k rows from q1 and m - k from q0, which is
    m exact draws from M.  Rows are scored in groups of ``_MC_BLOCK``
    rows, which fix the summation order, and each group is drawn as
    consecutive multinomial calls of at most ``_MC_DRAW_BYTES`` of counts,
    so the count memory per worker does not grow with the law table's
    width; consecutive draws from one generator equal a single draw of
    the whole chunk.  The result therefore depends only on (seed,
    samples), not on ``workers``.
    """
    if seed is None:
        raise ConfigError("willie_tv_mc requires an explicit seed for reproducibility")
    check_count("seed", seed, 0)
    check_count("n", n, 1, 2**63 - 1)  # multinomial draws int64 counts
    check_count("samples", samples, 1, MAX_SAMPLES)
    check_count("workers", workers, 1, MAX_WORKERS)
    weights, laws = slot_laws(p, alpha, beta, s, "willie")
    q0 = laws[0, 0]
    # q1 is q0 plus the weighted shifts of the other keys, so it equals q0
    # bit for bit when the senders are silent or s = 0 (then S = 0 exactly)
    q1 = q0 + sum((weights[..., None] * (laws - q0)).reshape(4, -1))
    q1 = q1 / q1.sum()
    q0 = q0 / q0.sum()
    llr = np.log(q1) - np.log(q0)

    chunk_sizes = [min(_MC_CHUNK, samples - start) for start in range(0, samples, _MC_CHUNK)]
    seeds = np.random.SeedSequence(seed).spawn(len(chunk_sizes))
    draw_rows = max(1, _MC_DRAW_BYTES // (8 * llr.size))  # 8 bytes of count per level

    def run_chunk(args):
        chunk_seed, size = args
        rng = np.random.default_rng(chunk_seed)
        from_q1 = int(rng.binomial(size, 0.5))
        total = total_sq = 0.0
        for q, rows in ((q1, from_q1), (q0, size - from_q1)):
            # multinomial consumes the stream row by row: consecutive draws equal one.
            # einsum casts the counts to float through a small buffer where `@`
            # would copy them, and each draw's counts are freed as soon as they
            # are scored, so draws of varying size reuse the allocator's space.
            for start in range(0, rows, _MC_BLOCK):
                block = min(_MC_BLOCK, rows - start)
                llr_sums = np.concatenate([
                    np.einsum("ij,j->i", rng.multinomial(n, q, size=min(draw_rows, block - i)), llr)
                    for i in range(0, block, draw_rows)
                ])
                f = np.abs(np.tanh(0.5 * llr_sums))
                total += float(f.sum())
                total_sq += float(f @ f)
        return total, total_sq

    from concurrent.futures import ThreadPoolExecutor  # loads logging too: about 7 ms that importing eamac.cli skips

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run_chunk, zip(seeds, chunk_sizes)))
    mean = sum(r[0] for r in results) / samples
    var = max(sum(r[1] for r in results) / samples - mean * mean, 0.0)
    return McEstimate(value=mean, stderr=math.sqrt(var / samples), samples=samples)


def chernoff_truncation(n: int, alpha: float, beta: float, mu_bar: float) -> float:
    """Chernoff bound on the probability either sender's codeword is atypically light."""
    check_real("n", n, 1)
    check_real("alpha", alpha, 0, 1)
    check_real("beta", beta, 0, 1)
    check_real("mu_bar", mu_bar, 0, 1, "()")
    return 2.0 * math.exp(-0.5 * mu_bar**2 * n * alpha) + 2.0 * math.exp(-0.5 * mu_bar**2 * n * beta)


def second_order_rate(n: int, stats: RelEntStats, eps: float, direction: str = "lower") -> float:
    """Gaussian-approximation rate n D -/+ sqrt(n V) Q^{-1}(eps^2).

    ``direction="lower"`` is the achievability sign (minus);
    ``direction="upper"`` the resolvability ceiling (plus).
    """
    check_real("n", n, 1)
    check_real("stats.d", stats.d)
    check_real("stats.v", stats.v, 0)
    eps2 = check_real("eps**2", check_real("eps", eps, 0, 1, "()") ** 2, 0, 1, "()")  # 0 for eps below about 1.6e-162
    check_choice("direction", direction, ("lower", "upper"))
    sign = -1.0 if direction == "lower" else 1.0
    return check_real("second-order rate", n * stats.d + sign * math.sqrt(n * stats.v) * q_inv(eps2))
