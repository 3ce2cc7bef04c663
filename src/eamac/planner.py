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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import fock
from .channel import MacParams
from .errors import ConfigError, DomainError, InfeasibleError
from .gaussian import g_entropy
from .region import _low_photon_coefficients

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
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def q_inv(p: float) -> float:
    """Inverse of the Q function, to |Q(q_inv(p)) - p| <= 1e-12.

    The seed is -Phi^{-1}(p) from Wichura's rational approximation AS241
    (Appl. Stat. 37, 477 (1988)), as ``statistics.NormalDist.inv_cdf``
    implements it; up to three Halley steps on Q(z) - p, with Q' = -phi and
    Q'' = z phi, then pin the round trip to the erfc evaluation itself.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"q_inv requires p in (0, 1), got {p}")
    z = -_STANDARD_NORMAL.inv_cdf(p)
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
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 <= delta < 1.0:
        raise DomainError(f"delta must lie in [0, 1), got {delta}")
    if delta == 0.0:
        return 0.0
    return _willie_coeff(p) * q_inv((1.0 - delta) / 2.0) / math.sqrt(n)


def _willie_coeff(p: MacParams) -> float:
    """Weighted power per unit Q^{-1} at n = 1: 2 sqrt(b (1+b)) / kappa_r at Willie."""
    kappa_r, b = p.receiver("willie")
    return 2.0 * math.sqrt(b * (1.0 + b)) / kappa_r


def _chi2_rate(p: MacParams, receiver: str, weight: float) -> float:
    """Leading chi-square divergence weight kappa_r^2 / (2 b (1+b)) at ``receiver``,
    whose signal coupling is kappa_r and thermal background b."""
    kappa_r, b = p.receiver(receiver)
    return weight * kappa_r**2 / (2.0 * b * (1.0 + b))


def weighted_power(alpha: float, beta: float, s: float, p: MacParams) -> float:
    """The quantity the warden's test responds to: (alpha tau + beta (1-tau)) s."""
    return (alpha * p.tau + beta * (1.0 - p.tau)) * s


def covert_feasibility(n: int, alpha: float, beta: float, s: float, p: MacParams, delta: float):
    """(power, budget, feasible): the weighted power, the covert budget at (n, delta),
    and whether power <= budget up to a relative 1e-12 slack for the budget's rounding."""
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
    # this product order fixes the printed digits of plan and sweep
    x_weight = n * alpha * p.tau**2 * s**2
    y_weight = n * beta * (1.0 - p.tau) ** 2 * s**2
    weights = (x_weight, y_weight, x_weight + y_weight)
    return Layer1Rates(*(_chi2_rate(p, receiver, w) for receiver in ("bob", "willie") for w in weights))


def layer2_throughput(n: int, alpha: float, beta: float, s: float, p: MacParams, mu_bar: float) -> Layer2Rates:
    """Modulation-layer rates (1-mu_bar) scaled, plus TMSV pair counts."""
    if not 0.0 < mu_bar < 1.0:
        raise DomainError(f"mu_bar must lie in (0, 1), got {mu_bar}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1) for the -s log s expansion, got {s}")
    scale = (1.0 - mu_bar) * n * (-s * math.log(s))
    coeff_x, coeff_y = _low_photon_coefficients(p)
    l_x = math.ceil(n * alpha * (1.0 - mu_bar))
    l_y = math.ceil(n * beta * (1.0 - mu_bar))
    ent_per_pair = g_entropy(s)
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
    """``build_plan``, reusing the (power, budget, feasible) of ``covert_feasibility`` when given."""
    for name, value in (("alpha", alpha), ("beta", beta), ("s", s), ("mu_bar", mu_bar)):
        if not 0.0 < value < 1.0:
            raise DomainError(f"{name} must lie in (0, 1), got {value}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
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
    if not 0.0 < gamma < 0.5:
        raise DomainError(f"gamma must lie in (0, 1/2), got {gamma}")
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
    exact equality.
    """
    if not 0.0 < gamma < 0.5:
        raise DomainError(f"gamma must lie in (0, 1/2), got {gamma}")
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
        implied = willie_tv_leading(1, alpha, beta, s, p)
        if not 0.0 < implied < 1.0:
            raise InfeasibleError(
                f"power {power:.6g} implies no detection budget in (0, 1)", binding="budget-constant"
            )
    coeff_x, coeff_y = _low_photon_coefficients(p)
    return ScalingLimits(
        layer1_x=_chi2_rate(p, "bob", alpha * p.tau**2 * s**2),
        layer1_y=_chi2_rate(p, "bob", beta * (1.0 - p.tau) ** 2 * s**2),
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
    if marginal not in _MARGINALS:
        raise DomainError(f"marginal must be one of {_MARGINALS}, got {marginal!r}")
    x_weight, y_weight = alpha * p.tau**2, beta * (1.0 - p.tau) ** 2
    weight, order = {
        "joint": (x_weight + y_weight, "O((alpha+beta)*s^4)"),
        "x": (x_weight, "O(alpha*s^4)"),
        "y": (y_weight, "O(beta*s^4)"),
    }[marginal]
    d = _chi2_rate(p, receiver, weight * s**2)
    return RelEntStats(d=d, v=2.0 * d, r_order=order)


def slot_laws(p: MacParams, alpha: float, beta: float, s: float, receiver: str, cutoff=None):
    """The sparse layer's per-slot table at ``receiver``: ``weights`` (2, 2), the
    P(x) P(y) of the on/off inputs x ~ Bern(alpha), y ~ Bern(beta), and ``laws``
    (2, 2, cutoff), thermal of mean b + kappa_r (tau s x + (1 - tau) s y) with
    (kappa_r, b) = p.receiver(receiver).  The default cutoff holds every law's
    tail below 1e-14, plus 8 levels, and is at least 32."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {value}")
    if not s >= 0.0:
        raise DomainError(f"s must be >= 0, got {s}")
    kappa_r, background = p.receiver(receiver)
    weights = np.outer([1.0 - alpha, alpha], [1.0 - beta, beta])
    x, y = np.ogrid[:2, :2]
    means = background + kappa_r * (p.tau * s * x + (1.0 - p.tau) * s * y)
    if cutoff is None:
        cutoff = max(fock.required_cutoff(float(means.max()), 1e-14) + 8, 32)
    return weights, fock.photon_distribution_thermal(means, cutoff)


def relent_exact(p: MacParams, alpha: float, beta: float, s: float, receiver: str, marginal: str) -> RelEntStats:
    """Exact classical D and V over the per-slot law table (``slot_laws``).

    The per-slot states are simultaneously Fock-diagonal, so the quantum
    divergences reduce to classical ones: each law against its reference,
    the table mixed over the axes the marginal averages out (both for
    joint, x for x, y for y), weighted by the table's weights.
    """
    if marginal not in _MARGINALS:
        raise DomainError(f"marginal must be one of {_MARGINALS}, got {marginal!r}")
    weights, laws = slot_laws(p, alpha, beta, s, receiver)
    # (axes the reference mixes over, axes summed out of its mixing weights)
    mixed, summed = {"joint": ((0, 1), ()), "x": ((0,), (1,)), "y": ((1,), (0,))}[marginal]
    share = weights.sum(axis=summed, keepdims=True)
    ref = np.broadcast_to((share[..., None] * laws).sum(axis=mixed, keepdims=True), laws.shape)
    live = weights != 0.0
    law, w = laws[live], weights[live]
    llr = np.log(law) - np.log(ref[live])
    d = float(sum(w * np.sum(law * llr, axis=-1), 0.0))
    v = float(sum(w * np.sum(law * (llr - d) ** 2, axis=-1), 0.0))
    return RelEntStats(d=d, v=v, r_order="exact")


def willie_tv_leading(n: int, alpha: float, beta: float, s: float, p: MacParams) -> float:
    """Leading term of the warden's detection advantage (trace distance)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return 1.0 - 2.0 * q_func(math.sqrt(n) * weighted_power(alpha, beta, s, p) / _willie_coeff(p))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    samples: int


# rows per spawned seed, which fixes the random stream
_MC_CHUNK = 1 << 16
# rows drawn and scored at once, which bounds the memory (about 2 MB of
# counts per worker at the validate cutoff) and leaves the stream alone
_MC_BLOCK = 1 << 12


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

    Uses TV = P(A) - Q(A) on the likelihood-ratio event A = {LLR > 0}.
    Slots are i.i.d., so each n-slot sample reduces to a multinomial
    count vector over photon numbers; sampling counts is exactly
    equivalent to sampling slots.

    Samples are split into chunks of ``_MC_CHUNK`` rows, the unit of
    seeding: chunk seeds are spawned from ``seed`` independently of the
    worker count, and aggregation is a plain sum.  Within a chunk, rows
    are drawn and scored in blocks of ``_MC_BLOCK`` rows, which bounds
    the memory per worker; consecutive block draws from one generator
    equal a single draw of the whole chunk.  The result therefore
    depends only on (seed, samples), not on the block size or ``workers``.
    """
    if seed is None:
        raise ConfigError("willie_tv_mc requires an explicit seed for reproducibility")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if not s >= 0.0:  # NaN too, before it sizes the cutoff
        raise DomainError(f"s must be >= 0, got {s}")
    # cutoff sized so the chance of any draw beyond it over all n*samples
    # slots is negligible
    kappa_r, background = p.receiver("willie")
    cutoff = max(fock.required_cutoff(background + kappa_r * s, 1e-18) + 16, 32)
    weights, laws = slot_laws(p, alpha, beta, s, "willie", cutoff=cutoff)
    # q1 adds the weighted laws in key order 00, 01, 10, 11, which fixes the stream's bits
    q1 = sum((weights[..., None] * laws).reshape(4, -1))
    q1 = q1 / q1.sum()
    q0 = laws[0, 0] / laws[0, 0].sum()
    llr = np.log(q1) - np.log(q0)

    chunk_sizes = [min(_MC_CHUNK, samples - start) for start in range(0, samples, _MC_CHUNK)]
    seeds = np.random.SeedSequence(seed).spawn(len(chunk_sizes))

    def count_hits(rng, q, size):
        # multinomial consumes the stream row by row: blocks equal one draw
        hits = 0
        for start in range(0, size, _MC_BLOCK):
            counts = rng.multinomial(n, q, size=min(_MC_BLOCK, size - start))
            hits += int(np.count_nonzero(counts @ llr > 0.0))
        return hits

    def run_chunk(args):
        chunk_seed, size = args
        rng = np.random.default_rng(chunk_seed)
        hits_p = count_hits(rng, q1, size)
        hits_q = count_hits(rng, q0, size)
        return hits_p, hits_q

    jobs = list(zip(seeds, chunk_sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, jobs))
    else:
        results = [run_chunk(job) for job in jobs]
    hits_p = sum(r[0] for r in results)
    hits_q = sum(r[1] for r in results)
    p_hat = hits_p / samples
    q_hat = hits_q / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples + q_hat * (1.0 - q_hat) / samples)
    return McEstimate(value=p_hat - q_hat, stderr=stderr, samples=samples)


def chernoff_truncation(n: int, alpha: float, beta: float, mu_bar: float) -> float:
    """Chernoff bound on the probability either sender's codeword is atypically light."""
    if not 0.0 < mu_bar < 1.0:
        raise DomainError(f"mu_bar must lie in (0, 1), got {mu_bar}")
    return 2.0 * math.exp(-0.5 * mu_bar**2 * n * alpha) + 2.0 * math.exp(-0.5 * mu_bar**2 * n * beta)


def second_order_rate(n: int, stats: RelEntStats, eps: float, direction: str = "lower") -> float:
    """Gaussian-approximation rate n D -/+ sqrt(n V) Q^{-1}(eps^2).

    ``direction="lower"`` is the achievability sign (minus);
    ``direction="upper"`` the resolvability ceiling (plus).
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if direction not in ("lower", "upper"):
        raise DomainError(f"direction must be 'lower' or 'upper', got {direction!r}")
    sign = -1.0 if direction == "lower" else 1.0
    return n * stats.d + sign * math.sqrt(n * stats.v) * q_inv(eps**2)
