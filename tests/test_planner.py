"""Covert planning: budget, layer rates, divergences, detection bounds."""

import dataclasses
import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamac import channel as ch
from eamac import gaussian as g
from eamac import planner as pl
from eamac import region as rg
from eamac import validate
from eamac.channel import MacParams
from eamac.errors import ConfigError, DomainError, EamacError, InfeasibleError

P_CANON = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
# the warden's background kappa n_b = 50 widens its law table to about 2100 levels
P_WIDE = MacParams(tau=0.5, kappa=0.5, n_b=100.0)


class TestQInv:
    def test_symmetry_point(self):
        assert pl.q_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_point_is_positive_zero(self):
        # negating inv_cdf(0.5) = 0.0 gave -0.0
        assert math.copysign(1.0, pl.q_inv(0.5)) == 1.0

    def test_unit_quantile(self):
        assert pl.q_inv(0.1586553) == pytest.approx(1.0, abs=1e-6)

    def test_round_trip_grid(self):
        for p in np.linspace(0.01, 0.99, 99):
            assert abs(pl.q_func(pl.q_inv(p)) - p) <= 1e-12

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                pl.q_inv(bad)

    def test_polish_pins_round_trip(self):
        # rounding z / sqrt 2 inside Q costs about z^2 ulps of p; the
        # polished inverse stays within 1.9 such units here, its seed alone reaches 3.8
        rng = np.random.default_rng(5)
        grid = np.concatenate([rng.uniform(0.001, 0.999, 3000), np.logspace(-300.0, -3.0, 2000)])
        for p in grid:
            z = pl.q_inv(p)
            assert abs(pl.q_func(z) - p) <= 3.0 * np.finfo(float).eps * p * max(1.0, z * z)


def _q_ref(z):
    """Q(z) at the exact double z, to 50 digits."""
    return mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestQAgainstMpmath:
    """q_func and q_inv against 50-digit references."""

    @pytest.fixture(autouse=True)
    def digits(self):
        with mpmath.workdps(50):
            yield

    def test_q_func_relative_error(self):
        for z in np.linspace(-5.0, 25.0, 3001):
            exact = _q_ref(z)
            # rounding z / sqrt 2 to a double moves Q by about z^2 times its
            # relative error; 1e-13 holds to |z| = 22, and 1.04e-13 is the worst on this grid
            assert abs(pl.q_func(z) - exact) / exact <= max(1e-13, 2e-16 * z * z)

    def test_q_inv_relative_error_up_to_the_median(self):
        grid = np.concatenate([np.logspace(-15.0, math.log10(0.5), 400), np.linspace(0.4, 0.5, 101)])
        for p in grid:
            z = pl.q_inv(p)
            if p == 0.5:
                assert z == 0.0
                continue
            exact = mpmath.findroot(lambda t: _q_ref(t) - mpmath.mpf(p), mpmath.mpf(z))
            assert abs(z - exact) / exact <= 1e-15

    def test_q_inv_deep_tail_round_trip(self):
        for p in np.logspace(-300.0, -15.0, 300):
            assert abs(pl.q_func(pl.q_inv(p)) - p) / p <= 1e-12

    def test_q_inv_upper_half_round_trip(self):
        # Q^{-1} is ill-conditioned towards p = 1, so only the round trip is checked
        grid = np.concatenate([np.linspace(0.5, 0.999, 300), 1.0 - np.logspace(-15.0, -3.0, 300)])
        for p in grid:
            assert abs(pl.q_func(pl.q_inv(p)) - p) / p <= 1e-12


class TestCovertBudget:
    def test_zero_delta_zero_budget(self):
        assert pl.covert_budget(100, 0.0, P_CANON) == 0.0

    def test_smallest_delta_gives_positive_zero(self):
        # (1 - 5e-324) / 2 rounds to 1/2, where the budget wrote -0.0
        budget = pl.covert_budget(10, 5e-324, P_CANON)
        assert budget == 0.0 and math.copysign(1.0, budget) == 1.0

    def test_worked_value(self):
        budget = pl.covert_budget(10**6, 0.1, P_CANON)
        expected = 2.0 * math.sqrt(0.75) / 0.5 * pl.q_inv(0.45) * 1e-3
        assert budget == pytest.approx(expected, rel=1e-12)
        assert budget == pytest.approx(4.3533e-4, rel=1e-4)

    def test_exact_inverse_sqrt_scaling(self):
        for n in (10, 10**4, 10**7):
            b1 = pl.covert_budget(n, 0.2, P_CANON)
            b4 = pl.covert_budget(4 * n, 0.2, P_CANON)
            assert b4 == pytest.approx(b1 / 2.0, rel=1e-15)

    def test_full_delta_rejected(self):
        with pytest.raises(DomainError):
            pl.covert_budget(100, 1.0, P_CANON)

    @pytest.mark.parametrize("n", [math.nan, 0])
    def test_bad_block_length_rejected(self, n):
        with pytest.raises(DomainError, match=f"n must be >= 1, got {n}"):
            pl.covert_budget(n, 0.1, P_CANON)

    @pytest.mark.parametrize("delta", [0.1, 5e-324])
    def test_overflowing_budget_names_n_b(self, delta):
        # the warden's b (1 + b) overflows at b = 1.5e154; 5e-324 gives inf * 0 = nan
        with pytest.raises(DomainError, match="n_b = 3e\\+154"):
            pl.covert_budget(100, delta, MacParams(tau=0.5, kappa=0.5, n_b=3e154))


class TestLayer1Throughput:
    def test_silent_sender(self):
        rates = pl.layer1_throughput(10**6, 0.0, 1e-2, 1e-2, P_CANON)
        assert rates.log_m_x1 == 0.0

    def test_worked_value(self):
        rates = pl.layer1_throughput(10**6, 1e-2, 1e-2, 1e-2, P_CANON)
        assert rates.log_m_x1 == pytest.approx(4.1667e-2, rel=1e-4)
        assert rates.log_m_xy1 == pytest.approx(rates.log_m_x1 + rates.log_m_y1, rel=1e-12)

    def test_key_vs_message_coefficient_comparison(self):
        # which side wins follows the printed coefficients, evaluated directly
        for kappa in (0.3, 0.5, 0.7):
            p = MacParams(tau=0.5, kappa=kappa, n_b=1.0)
            rates = pl.layer1_throughput(10**5, 1e-3, 1e-3, 1e-3, p)
            msg_coeff = kappa**2 / ((1 - kappa) * p.n_b * (1 + (1 - kappa) * p.n_b))
            key_coeff = (1 - kappa) ** 2 / (kappa * p.n_b * (1 + kappa * p.n_b))
            assert (rates.log_m_x1 <= rates.log_m_x1_keys) == (msg_coeff <= key_coeff)

    def test_rates_are_n_times_leading_divergence(self):
        # messages at the receiver, keys at the warden, one rate per marginal
        pairs = {
            "log_m_x1": ("bob", "x"),
            "log_m_y1": ("bob", "y"),
            "log_m_xy1": ("bob", "joint"),
            "log_m_x1_keys": ("willie", "x"),
            "log_m_y1_keys": ("willie", "y"),
            "log_m_keys_total": ("willie", "joint"),
        }
        n, alpha, beta, s = 10**6, 3e-3, 2e-2, 4e-3
        for p in (P_CANON, MacParams(tau=0.3, kappa=0.8, n_b=2.5), MacParams(tau=0.9, kappa=0.1, n_b=40.0)):
            rates = pl.layer1_throughput(n, alpha, beta, s, p)
            for name, (receiver, marginal) in pairs.items():
                lead = pl.relent_leading(p, alpha, beta, s, receiver, marginal)
                assert getattr(rates, name) == pytest.approx(n * lead.d, rel=1e-14), name



class TestLayer2Throughput:
    def test_vanishing_share_kills_rates(self):
        rates = pl.layer2_throughput(10**6, 1e-2, 1e-2, 1e-2, P_CANON, 1.0 - 1e-12)
        assert rates.log_m_x2 == pytest.approx(0.0, abs=1e-9)

    def test_worked_value(self):
        rates = pl.layer2_throughput(10**6, 1e-2, 1e-2, 1e-2, P_CANON, 0.1)
        expected = 0.9 * 10**6 * 0.5 * 0.5 * 1e-2 * 1e-2 * math.log(100.0) / 1.5
        assert rates.log_m_x2 == pytest.approx(expected, rel=1e-12)
        assert rates.l_x == math.ceil(10**6 * 1e-2 * 0.9)

    def test_entanglement_matches_rate_asymptotically(self):
        # l g(s) and -l s ln s agree as s -> 0
        for s, tol in ((1e-2, 0.3), (1e-4, 0.12)):
            rates = pl.layer2_throughput(10**8, 1e-3, 1e-3, s, P_CANON, 0.1)
            ratio = rates.ent_nats_x / (-rates.l_x * s * math.log(s))
            assert ratio == pytest.approx(1.0, abs=tol)


class TestBuildPlan:
    def test_budget_violation_names_constraint(self):
        with pytest.raises(InfeasibleError) as err:
            pl.build_plan(100, 0.5, 0.5, 0.5, P_CANON, delta=0.01)
        assert err.value.binding == "covert-budget"

    def test_evaluates_covert_budget_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return budget(*args)

        budget = pl.covert_budget
        monkeypatch.setattr(pl, "covert_budget", counted)
        pl.build_plan(10**6, 1e-2, 1e-2, 1e-2, P_CANON, delta=0.1)
        assert len(calls) == 1

    @pytest.mark.parametrize("excess, feasible", [(0.0, True), (5e-13, True), (2e-12, False)])
    def test_feasibility_slack_is_shared(self, excess, feasible):
        # power a relative `excess` above the budget, through the weighted power's s
        budget = pl.covert_budget(10**6, 0.1, P_CANON)
        s = budget * (1.0 + excess) / pl.weighted_power(1e-2, 1e-2, 1.0, P_CANON)
        power, got_budget, got = pl.covert_feasibility(10**6, 1e-2, 1e-2, s, P_CANON, 0.1)
        assert (got_budget, got) == (budget, feasible)
        assert power == pytest.approx(budget * (1.0 + excess), rel=1e-15)
        if feasible:
            assert pl.build_plan(10**6, 1e-2, 1e-2, s, P_CANON, delta=0.1).budget == budget
        else:
            with pytest.raises(InfeasibleError):
                pl.build_plan(10**6, 1e-2, 1e-2, s, P_CANON, delta=0.1)


class TestScalingLimits:
    def test_single_sender_side(self):
        p = MacParams(tau=1.0, kappa=0.5, n_b=1.0)
        lim = pl.scaling_limits(0.25, 0.1, 0.1, 0.05, p)
        assert lim.layer1_y == 0.0
        assert lim.layer2_y == 0.0

    def test_entangled_nats_constants(self):
        lim = pl.scaling_limits(0.25, 0.2, 0.3, 0.05, P_CANON)
        assert lim.ent_nats_x == pytest.approx(0.25 * 0.2 * 0.05, rel=1e-15)
        assert lim.ent_nats_y == pytest.approx(0.25 * 0.3 * 0.05, rel=1e-15)

    def test_layer2_constant_form(self):
        delta = 0.1
        coeff = 2.0 * math.sqrt(0.75) / 0.5
        alpha = beta = 0.25
        s = coeff * pl.q_inv(0.45) / (alpha * 0.5 + beta * 0.5)
        lim = pl.scaling_limits(0.25, alpha, beta, s, P_CANON, delta=delta)
        assert lim.layer2_x == pytest.approx(0.25 * 0.25 / 1.5 * alpha * s, rel=1e-12)
        assert lim.implied_delta == pytest.approx(delta, rel=1e-12)

    def test_budget_constant_mismatch_rejected(self):
        with pytest.raises(InfeasibleError) as err:
            pl.scaling_limits(0.25, 0.1, 0.1, 0.05, P_CANON, delta=0.1)
        assert err.value.binding == "budget-constant"


class TestRelEnt:
    def test_silent_senders_zero(self):
        lead = pl.relent_leading(P_CANON, 0.0, 0.0, 1e-2, "bob", "joint")
        assert lead.d == 0.0 and lead.v == 0.0
        exact = pl.relent_exact(P_CANON, 0.0, 0.0, 1e-2, "bob", "joint")
        assert exact.d == pytest.approx(0.0, abs=1e-14)

    def test_worked_value_and_v_ratio(self):
        lead = pl.relent_leading(P_CANON, 1e-3, 1e-3, 1e-2, "bob", "joint")
        assert lead.d == pytest.approx(8.3333e-9, rel=1e-4)
        assert lead.v == pytest.approx(2.0 * lead.d, rel=1e-15)

    @pytest.mark.parametrize("s, bound", [(math.nan, ">= 0"), (-0.1, ">= 0"), (math.inf, "finite")])
    def test_leading_rejects_bad_power(self, s, bound):
        with pytest.raises(DomainError, match=f"s must be {bound}, got {s}"):
            pl.relent_leading(P_CANON, 1e-3, 1e-3, s, "bob", "joint")

    def test_exact_identical_hypotheses_zero(self):
        exact = pl.relent_exact(P_CANON, 0.3, 0.2, 0.0, "willie", "joint")
        assert exact.d == pytest.approx(0.0, abs=1e-14)

    def test_exact_agrees_within_ten_percent(self):
        for marginal in ("joint", "x", "y"):
            for receiver in ("bob", "willie"):
                lead = pl.relent_leading(P_CANON, 1e-3, 1e-3, 1e-2, receiver, marginal)
                exact = pl.relent_exact(P_CANON, 1e-3, 1e-3, 1e-2, receiver, marginal)
                assert abs(exact.d - lead.d) / exact.d < 0.1

    def test_error_shrinks_with_parameters(self):
        lead = pl.relent_leading(P_CANON, 1e-3, 1e-3, 1e-2, "bob", "joint")
        exact = pl.relent_exact(P_CANON, 1e-3, 1e-3, 1e-2, "bob", "joint")
        lead_h = pl.relent_leading(P_CANON, 5e-4, 5e-4, 5e-3, "bob", "joint")
        exact_h = pl.relent_exact(P_CANON, 5e-4, 5e-4, 5e-3, "bob", "joint")
        assert abs(exact_h.d - lead_h.d) / exact_h.d < abs(exact.d - lead.d) / exact.d

    @pytest.mark.parametrize("receiver", ["bob", "willie"])
    def test_exact_marginals_match_per_key_reference(self, receiver):
        # tau != 1/2 and alpha != beta, so swapped x and y axes fail
        p, alpha, beta, s, cutoff = MacParams(tau=0.3, kappa=0.5, n_b=1.0), 0.2, 0.05, 0.5, 64
        coupling, background = p.receiver(receiver)
        p_x, p_y = {0: 1.0 - alpha, 1: alpha}, {0: 1.0 - beta, 1: beta}
        law = {
            (x, y): rg.photon_distribution_thermal(background + coupling * s * (p.tau * x + (1.0 - p.tau) * y), cutoff)
            for x in (0, 1)
            for y in (0, 1)
        }
        refs = {
            "x": {(x, y): p_x[0] * law[0, y] + p_x[1] * law[1, y] for (x, y) in law},
            "y": {(x, y): p_y[0] * law[x, 0] + p_y[1] * law[x, 1] for (x, y) in law},
        }
        for marginal, ref in refs.items():
            llr = {key: np.log(law[key] / ref[key]) for key in law}
            d = sum(p_x[x] * p_y[y] * np.sum(law[x, y] * llr[x, y]) for (x, y) in law)
            v = sum(p_x[x] * p_y[y] * np.sum(law[x, y] * (llr[x, y] - d) ** 2) for (x, y) in law)
            exact = pl.relent_exact(p, alpha, beta, s, receiver, marginal)
            assert exact.d == pytest.approx(d, rel=1e-12)
            assert exact.v == pytest.approx(v, rel=1e-12)

    def test_exact_rejects_nan_power(self):
        with pytest.raises(DomainError, match="s must be >= 0, got nan"):
            pl.relent_exact(P_CANON, 1e-3, 1e-3, math.nan, "bob", "joint")

    def test_v_over_d_approaches_two(self):
        big = pl.relent_exact(P_CANON, 1e-2, 1e-2, 5e-2, "bob", "joint")
        small = pl.relent_exact(P_CANON, 1e-3, 1e-3, 5e-3, "bob", "joint")
        assert abs(small.v / small.d - 2.0) < abs(big.v / big.d - 2.0)
        assert small.v / small.d == pytest.approx(2.0, abs=0.05)


class TestSlotLaws:
    def test_silent_senders_single_background(self):
        p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        weights, laws = pl.slot_laws(p, 0.0, 0.0, 0.01, "bob")
        assert weights.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]
        background = rg.photon_distribution_thermal(p.n_t, laws.shape[-1])
        np.testing.assert_allclose(laws[0, 0], background)

    def test_distributions_normalized(self):
        p = MacParams(tau=0.4, kappa=0.6, n_b=1.3)
        _, laws = pl.slot_laws(p, 0.1, 0.2, 0.05, "willie")
        assert laws.shape[:2] == (2, 2)
        assert np.all(1.0 - laws.sum(axis=-1) <= 1e-12)

    def test_willie_active_x_mean(self):
        p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        _, laws = pl.slot_laws(p, 0.1, 0.1, 0.01, "willie")
        mean = float(np.sum(np.arange(laws.shape[-1]) * laws[1, 0]))
        assert mean == pytest.approx(0.5 * 1.0 + 0.5 * 0.5 * 0.01, abs=1e-10)


class TestWillieTv:
    def test_leading_zero_without_transmission(self):
        assert pl.willie_tv_leading(100, 0.0, 0.0, 0.1, P_CANON) == pytest.approx(0.0, abs=1e-15)

    def test_leading_constructed_tenth(self):
        # choose s so the Q argument equals q_inv(0.45), giving 1 - 0.9 = 0.1
        n, alpha = 10**4, 0.05
        weighted = alpha * P_CANON.tau
        s = pl.q_inv(0.45) * 2.0 * math.sqrt(0.75) / (math.sqrt(n) * weighted * (1.0 - P_CANON.kappa))
        assert pl.willie_tv_leading(n, alpha, 0.0, s, P_CANON) == pytest.approx(0.1, abs=1e-12)

    def test_leading_monotone(self):
        base = pl.willie_tv_leading(10**4, 0.01, 0.01, 0.05, P_CANON)
        assert pl.willie_tv_leading(4 * 10**4, 0.01, 0.01, 0.05, P_CANON) > base
        assert pl.willie_tv_leading(10**4, 0.02, 0.01, 0.05, P_CANON) > base
        assert pl.willie_tv_leading(10**4, 0.01, 0.02, 0.05, P_CANON) > base
        assert pl.willie_tv_leading(10**4, 0.01, 0.01, 0.10, P_CANON) > base
        assert 0.0 <= base <= 1.0

    @pytest.mark.parametrize(
        "n, s, match",
        [
            (100, math.nan, "s must be >= 0, got nan"),
            (100, -0.1, "s must be >= 0"),
            (100, math.inf, "s must be finite"),
            (math.nan, 0.1, "n must be >= 1, got nan"),
        ],
    )
    def test_leading_rejects_non_finite_inputs(self, n, s, match):
        with pytest.raises(DomainError, match=match):
            pl.willie_tv_leading(n, 0.1, 0.1, s, P_CANON)

    def test_leading_names_n_and_s_when_their_statistic_overflows(self):
        # sqrt(n) times the weighted power is inf, which q_func once reported as its own z
        match = r"sqrt\(n\) \(alpha tau \+ beta \(1 - tau\)\) s / c must be finite, got inf"
        with pytest.raises(DomainError, match=match):
            pl.willie_tv_leading(1e300, 1.0, 1.0, 1e300, P_CANON)

    def test_mc_rejects_samples_past_the_top_before_any_work(self):
        # the check runs before the chunk list, whose length grows with samples
        match = rf"samples must be an integer in \[1, {pl.MAX_SAMPLES}\], got {pl.MAX_SAMPLES + 1}"
        with pytest.raises(DomainError, match=match):
            pl.willie_tv_mc(100, 0.1, 0.1, 0.01, P_CANON, samples=pl.MAX_SAMPLES + 1, seed=1)

    @pytest.mark.parametrize("value", [math.nan, -0.1, 1.5])
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_leading_evaluators_reject_bad_fractions(self, field, value):
        # a NaN alpha or beta once came back as a NaN divergence or advantage
        fractions = {"alpha": 0.1, "beta": 0.1, field: value}
        match = rf"{field} must lie in \[0, 1\], got {value}"
        with pytest.raises(DomainError, match=match):
            pl.willie_tv_leading(100, s=0.1, p=P_CANON, **fractions)
        with pytest.raises(DomainError, match=match):
            pl.relent_leading(P_CANON, s=0.1, receiver="bob", marginal="joint", **fractions)

    def test_mc_zero_signal(self):
        # silent senders or s = 0 make q1 equal q0 bit for bit, so every |tanh(S/2)| is 0
        for alpha, beta, s in ((0.1, 0.1, 0.0), (0.0, 0.0, 0.1)):
            est = pl.willie_tv_mc(200, alpha, beta, s, P_CANON, samples=20000, seed=5)
            assert (est.value, est.stderr) == (0.0, 0.0)

    def test_mc_requires_seed(self):
        with pytest.raises(ConfigError):
            pl.willie_tv_mc(100, 0.1, 0.1, 0.01, P_CANON, samples=100)

    def test_mc_rejects_nan_power(self):
        with pytest.raises(DomainError, match="s must be >= 0, got nan"):
            pl.willie_tv_mc(100, 0.1, 0.1, math.nan, P_CANON, samples=100, seed=1)

    def test_mc_rejects_no_workers(self):
        with pytest.raises(DomainError, match=rf"workers must be an integer in \[1, {pl.MAX_WORKERS}\], got 0"):
            pl.willie_tv_mc(100, 0.1, 0.1, 0.01, P_CANON, samples=100, seed=1, workers=0)

    def test_mc_rejects_workers_past_the_top_before_any_pool(self, monkeypatch):
        # 10^8 samples are 1526 chunks, and the pool once started min(workers, chunks) threads
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda **kwargs: pytest.fail("a pool started"))
        match = rf"workers must be an integer in \[1, {pl.MAX_WORKERS}\], got {pl.MAX_WORKERS + 1}"
        with pytest.raises(DomainError, match=match):
            pl.willie_tv_mc(100, 0.1, 0.1, 0.01, P_CANON, samples=pl.MAX_SAMPLES, seed=1, workers=pl.MAX_WORKERS + 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 0),
            ("n", 2.5),
            ("n", math.nan),
            ("samples", 0),
            ("samples", 2.5),
            ("samples", math.nan),
            ("workers", 1.5),
            # a bool once ran as the count 1, and n >= 2^63 ended in an OverflowError from multinomial
            ("n", True),
            ("n", 2**63),
            ("samples", True),
            ("workers", True),
        ],
    )
    def test_mc_rejects_bad_counts(self, field, value):
        tops = {"n": 2**63 - 1, "samples": pl.MAX_SAMPLES, "workers": pl.MAX_WORKERS}
        bound = rf"in \[1, {tops[field]}\]"
        kwargs = {"n": 100, "samples": 100, "workers": 1, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer {bound}, got {value}"):
            pl.willie_tv_mc(alpha=0.1, beta=0.1, s=0.01, p=P_CANON, seed=1, **kwargs)

    def test_mc_stderr_scaling(self):
        est1 = pl.willie_tv_mc(1000, 0.05, 0.05, 0.05, P_CANON, samples=20000, seed=11)
        est2 = pl.willie_tv_mc(1000, 0.05, 0.05, 0.05, P_CANON, samples=40000, seed=11)
        assert est2.stderr == pytest.approx(est1.stderr / math.sqrt(2.0), rel=0.12)

    def test_mc_worker_count_invariance(self):
        kwargs = dict(samples=70000, seed=21)
        serial = pl.willie_tv_mc(1000, 0.05, 0.05, 0.05, P_CANON, workers=1, **kwargs)
        threaded = pl.willie_tv_mc(1000, 0.05, 0.05, 0.05, P_CANON, workers=4, **kwargs)
        assert serial == threaded

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "samples, p",
        [(1, P_CANON), (4095, P_CANON), (4097, P_CANON), (65537, P_CANON), (70000, P_CANON), (1000, P_WIDE)],
        ids=["1", "4095", "4097", "65537", "70000", "wide-1000"],
    )
    def test_mc_stream_matches_whole_chunk_draws(self, samples, p, workers):
        # blocks must not change the stream: one draw per chunk is the reference;
        # the wide table (2111 levels) draws 31 rows per multinomial call
        args = (1000, 0.05, 0.05, 0.05, p)
        expected = _whole_chunk_tv_mc(*args, samples=samples, seed=2718)
        assert pl.willie_tv_mc(*args, samples=samples, seed=2718, workers=workers) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mc_within_four_stderr_of_exact(self, n, seed):
        # exact: 1/2 sum |q1^n - q0^n| over every tuple of n slots (76^n terms)
        args = (0.5, 0.3, 1.0, P_CANON)
        q1, q0 = _warden_laws(*args)
        joint1, joint0 = q1, q0
        for _ in range(n - 1):
            joint1, joint0 = np.multiply.outer(joint1, q1), np.multiply.outer(joint0, q0)
        exact = 0.5 * float(np.abs(joint1 - joint0).sum())
        est = pl.willie_tv_mc(n, *args, samples=10**5, seed=seed)
        assert abs(est.value - exact) <= 4.0 * est.stderr

    def test_mc_precision_at_the_validate_point(self):
        # 0.29938121245: Gil-Pelaez inversion of the n-slot LLR's characteristic
        # function (trapezoid on [0, 12 / sigma_n], 1001 and 4001 nodes agree to 1e-14)
        n = 10**4
        p, alpha, beta, s = validate.tv_experiment_params(0.30, n)
        est = pl.willie_tv_mc(n, alpha, beta, s, p, samples=10**6, seed=42, workers=2)
        assert est.stderr <= 2.5e-4
        assert abs(est.value - 0.29938121245) <= 4.0 * est.stderr


def _warden_laws(alpha, beta, s, p):
    """willie_tv_mc's normalised (q1, q0), with its laws built per key at the
    warden (1 - kappa, kappa n_b) and q1 summed as q0 plus each key's shift."""
    coupling, background = 1.0 - p.kappa, p.kappa * p.n_b
    cutoff = max(rg.required_cutoff(background + coupling * s, 1e-18) + 16, 32)
    weight = {0: (1.0 - alpha, 1.0 - beta), 1: (alpha, beta)}
    q0 = rg.photon_distribution_thermal(background, cutoff)
    q1 = q0 + sum(
        weight[x][0] * weight[y][1]
        * (rg.photon_distribution_thermal(background + coupling * (p.tau * s * x + (1.0 - p.tau) * s * y), cutoff) - q0)
        for x in (0, 1)
        for y in (0, 1)
    )
    return q1 / q1.sum(), q0 / q0.sum()


def _whole_chunk_tv_mc(n, alpha, beta, s, p, samples, seed):
    """willie_tv_mc drawing each hypothesis's rows of a 2^16-row seed chunk in
    one multinomial call, then summing f = |tanh(S/2)| per 2^12-row block."""
    q1, q0 = _warden_laws(alpha, beta, s, p)
    llr = np.log(q1) - np.log(q0)
    chunk, block = 1 << 16, 1 << 12
    sizes = [min(chunk, samples - start) for start in range(0, samples, chunk)]
    total = total_sq = 0.0
    for chunk_seed, size in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        rng = np.random.default_rng(chunk_seed)
        from_q1 = int(rng.binomial(size, 0.5))
        chunk_total = chunk_sq = 0.0
        for q, rows in ((q1, from_q1), (q0, size - from_q1)):
            f = np.abs(np.tanh(0.5 * np.einsum("ij,j->i", rng.multinomial(n, q, size=rows), llr)))
            for start in range(0, rows, block):
                part = f[start : start + block]
                chunk_total += float(part.sum())
                chunk_sq += float(part @ part)
        total += chunk_total
        total_sq += chunk_sq
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return pl.McEstimate(value=mean, stderr=math.sqrt(var / samples), samples=samples)


class TestChernoff:
    def test_vacuous_limit(self):
        assert pl.chernoff_truncation(100, 0.1, 0.1, 1e-9) == pytest.approx(4.0, rel=1e-9)

    def test_worked_value(self):
        bound = pl.chernoff_truncation(10**4, 1e-2, 1e-2, 0.5)
        assert bound == pytest.approx(4.0 * math.exp(-12.5), rel=1e-12)
        assert bound == pytest.approx(1.4907e-5, rel=1e-3)

    def test_exact_tail_below_chernoff(self):
        for n in (50, 200, 1000):
            for prob in (0.05, 0.2):
                for mu_bar in (0.3, 0.6):
                    # P(Bin(n, prob) < (1 - mu_bar) n prob), summed exactly
                    below = math.ceil((1.0 - mu_bar) * n * prob)
                    exact = sum(math.comb(n, k) * prob**k * (1.0 - prob) ** (n - k) for k in range(below))
                    single = math.exp(-0.5 * mu_bar**2 * n * prob)
                    assert exact <= single + 1e-15


class TestSecondOrderRate:
    def test_median_epsilon_gives_nd(self):
        stats = pl.RelEntStats(d=2e-6, v=4e-6, r_order="test")
        eps = math.sqrt(0.5)
        assert pl.second_order_rate(100, stats, eps) == pytest.approx(100 * stats.d, rel=1e-9)

    def test_zero_variance_gives_nd(self):
        stats = pl.RelEntStats(d=2e-6, v=0.0, r_order="test")
        assert pl.second_order_rate(100, stats, 0.3) == 100 * stats.d

    def test_eps_whose_square_underflows_is_named(self):
        # eps**2 = 0 once reached q_inv, which reported it as its own p
        stats = pl.RelEntStats(d=2e-6, v=4e-6, r_order="test")
        with pytest.raises(DomainError, match=r"eps\*\*2 must lie in \(0, 1\), got 0.0"):
            pl.second_order_rate(100, stats, eps=5e-324)

    def test_worked_value(self):
        stats = pl.RelEntStats(d=8.3333e-9, v=1.6667e-8, r_order="test")
        n = 10**6
        expected = n * stats.d - math.sqrt(n * stats.v) * pl.q_inv(0.1**2)
        got = pl.second_order_rate(n, stats, 0.1)
        assert got == pytest.approx(expected, rel=1e-12)
        upper = pl.second_order_rate(n, stats, 0.1, direction="upper")
        assert upper == pytest.approx(n * stats.d + math.sqrt(n * stats.v) * pl.q_inv(0.01), rel=1e-12)


class TestPlanProperties:
    def test_tradeoff_frontier_is_linear(self):
        # feasibility boundary: alpha tau + beta (1-tau) = budget / s
        n, delta, s = 10**6, 0.1, 1e-2
        budget = pl.covert_budget(n, delta, P_CANON)
        limit = budget / s
        rng = np.random.default_rng(17)
        for _ in range(1000):
            alpha = rng.uniform(0.0, 2.0 * limit / P_CANON.tau)
            beta = rng.uniform(0.0, 2.0 * limit / (1.0 - P_CANON.tau))
            lhs = alpha * P_CANON.tau + beta * (1.0 - P_CANON.tau)
            feasible = pl.weighted_power(alpha, beta, s, P_CANON) <= budget
            assert feasible == (lhs <= limit)

    def test_higher_order_sparsity_dominates_budget(self):
        # beta_n of higher order than alpha_n dominates the weighted power
        for n in (10**4, 10**6, 10**8):
            alpha_n = 0.3 * n**-0.4
            beta_n = 0.3 * n**-0.2
            ratio = (beta_n * 0.5) / (alpha_n * 0.5)
            assert ratio == pytest.approx(n**0.2, rel=1e-12)
        assert 0.3 * (10**8) ** -0.2 / (0.3 * (10**8) ** -0.4) > 10.0

    def test_layer2_dominates_layer1(self):
        delta, gamma = 0.1, 0.25
        coeff = 2.0 * math.sqrt(0.75) / 0.5
        s = coeff * pl.q_inv(0.45) / 0.5
        ratios = []
        for n in (10**4, 10**6, 10**8):
            plan = pl.scaling_plan(n, gamma, 0.5, 0.5, s, P_CANON, delta)
            ratios.append(plan.layer2.log_m_x2 / plan.layer1.log_m_x1)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_build_plan_collects_everything(self):
        plan = pl.build_plan(10**6, 1e-2, 1e-2, 1e-2, P_CANON, delta=0.1)
        names = [name for name, _ in plan.rates()]
        assert len(names) == 9
        assert plan.power <= plan.budget
        assert plan.layer2.l_x == math.ceil(10**6 * 1e-2 * 0.9)


# every numeric argument of the library property is one of these or an in-range value
EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 5e-324, 1e308, 10**400, True, 2.5])
IN_RANGE = {
    "n": st.integers(1, 10**8),
    "s": st.floats(0.0, 0.5),
    "gamma": st.floats(0.0, 0.5),
    "z": st.floats(-40.0, 40.0),
    "samples": st.integers(1, 64),  # so no Monte Carlo call draws more than 64 rows
    "workers": st.integers(1, 2),
    "n_modes": st.integers(1, 3),
}
# valid channels, from the canonical one to a subnormal and the largest background
CHANNELS = st.sampled_from([
    MacParams(tau=0.5, kappa=0.5, n_b=1.0),
    MacParams(tau=0.3, kappa=0.8, n_b=0.2),
    MacParams(tau=0.9, kappa=0.1, n_b=40.0),
    MacParams(tau=1.0, kappa=1e-9, n_b=5e-324),
    MacParams(tau=0.0, kappa=1.0 - 1e-9, n_b=1e308),
])
NAMES = {
    "receiver": st.sampled_from(["bob", "willie", "eve", None]),
    "marginal": st.sampled_from(["joint", "x", "y", "xy"]),
    "direction": st.sampled_from(["lower", "upper", "both"]),
    "seed": st.sampled_from([7, -1, 2.5, True, "7"]),
}


def numeric(name):
    """An extreme value or an in-range one; samples and n_modes are never a huge valid count."""
    if name in ("samples", "workers", "n_modes"):
        return IN_RANGE[name] | st.sampled_from([0, -1, True, 2.5, math.nan, None])
    in_range = IN_RANGE.get(name, st.floats(0.0, 1.0))
    return st.one_of(EXTREMES, in_range, in_range, in_range)  # most examples then pass the checks


def arguments(function):
    """Keyword arguments for ``function``, one strategy per parameter name and annotation."""
    drawn = {}
    for name, param in inspect.signature(function).parameters.items():
        if param.annotation is MacParams:
            drawn[name] = CHANNELS
        elif name == "stats":
            drawn[name] = st.builds(pl.RelEntStats, d=numeric("d"), v=numeric("v"), r_order=st.just("exact"))
        else:
            drawn[name] = NAMES[name] if name in NAMES else numeric(name)
        if param.default is None:
            drawn[name] = drawn[name] | st.none()
    return st.fixed_dictionaries(drawn)


def assert_finite(value):
    """Every number in a result, its arrays, tuples and dataclass fields is finite."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            assert_finite(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_finite(item)
    elif isinstance(value, np.ndarray):
        assert np.isfinite(value).all()
    elif not isinstance(value, (str, dict)):
        assert math.isfinite(value), value


LIBRARY = [getattr(pl, name) for name in pl.__all__ if inspect.isfunction(getattr(pl, name))]
LIBRARY += [ch.MacParams, ch.ModulationConfig, ch.EffectiveChannel, ch.tmsv_cov, g.thermal_cov]


@pytest.mark.parametrize("function", LIBRARY, ids=lambda function: function.__name__)
def test_library_result_is_finite_or_an_eamac_error(function):
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(kwargs=arguments(function))
    def finite_or_eamac_error(kwargs):
        try:
            result = function(**kwargs)
        except EamacError:
            return
        assert_finite(result)

    finite_or_eamac_error()
