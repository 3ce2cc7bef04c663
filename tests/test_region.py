"""Rate-region assembly, conditional entropy formula, covert rectangle."""

import dataclasses
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamac import fixtures
from eamac import fock as fk
from eamac import gaussian as g
from eamac import region as rg
from eamac.channel import EffectiveChannel, MacParams, ModulationConfig, bob_joint_cov, effective_cov, effective_params
from eamac.errors import DomainError, EamacError, NumericalError, PhysicalityError, TruncationError

# unit-test numerics: small cutoff, budget matched to its tail size
FAST = rg.RegionNumerics(cutoff=16, psk_order=64, tail_tol=1e-7)


class TestRegionNumerics:
    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"cutoff": 0}, "cutoff"),
            ({"psk_order": 0}, "psk_order"),
            ({"tail_tol": 0.0}, "tail_tol"),
            ({"tail_tol": 1.0}, "tail_tol"),
            ({"tail_tol": float("nan")}, "tail_tol"),
            ({"tail_tol": float("inf")}, "tail_tol"),
            ({"cutoff": rg.MAX_CUTOFF + 1}, "cutoff"),
            ({"cutoff": 100000}, "cutoff"),
            ({"psk_order": None}, "psk_order"),
            ({"cutoff": 24.5}, "cutoff"),
            ({"cutoff": None}, "cutoff"),
            ({"tail_tol": None}, "tail_tol"),
            ({"cutoff": True}, "cutoff"),  # once accepted as cutoff 1
            ({"psk_order": True}, "psk_order"),
            ({"psk_order": 1}, "psk_order"),  # once an all-zero region
        ],
    )
    def test_rejects_out_of_domain(self, kwargs, key):
        with pytest.raises(DomainError, match=key):
            rg.RegionNumerics(**kwargs)


class TestPhaseAveragedSpectraArguments:
    LINKS = [EffectiveChannel(0.3, 0.2, 0.1)]

    @pytest.mark.parametrize(
        "cutoff, psk_order, key",
        [
            (24, 0, "psk_order"),  # once entropy 0.29 with a divide-by-zero warning
            (24, -2, "psk_order"),  # once equal to psk_order 2
            (24, 2.5, "psk_order"),  # once a bare TypeError
            (24, None, "psk_order"),
            (24.0, 8, "cutoff"),
            (True, 8, "cutoff"),
            (rg.MAX_CUTOFF + 1, 8, "cutoff"),
        ],
    )
    def test_counts_raise_a_domain_error_naming_them(self, cutoff, psk_order, key):
        with pytest.raises(DomainError, match=f"{key} must be an integer"):
            rg.phase_averaged_spectra(self.LINKS, cutoff, psk_order)

    @pytest.mark.parametrize("psk_order", [24, 8], ids=["continuous", "finite-psk"])
    def test_empty_batch_gives_empty_arrays(self, psk_order):
        # once a bare ValueError on both branches
        spectra, deficits = rg.phase_averaged_spectra([], 24, psk_order)
        assert spectra.shape == (0, 576) and deficits.shape == (0,)

    def test_empty_batch_still_checks_its_arguments(self):
        with pytest.raises(DomainError, match="psk_order must be an integer"):
            rg.phase_averaged_spectra([], 24, 0)


def _region_links(p, n_s):
    """The four links of a region, in achievable_region's order."""
    m = ModulationConfig(n_s=n_s)
    return [effective_params(p, m, sender, conditioned) for conditioned in (True, False) for sender in "xy"]


class TestLinkMis:
    """The batched pass over a region's links against its one-link view."""

    @staticmethod
    def seeded_regions(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            p = MacParams(tau=rng.uniform(0.05, 0.95), kappa=rng.uniform(0.1, 0.9), n_b=rng.uniform(0.2, 1.2))
            yield _region_links(p, rng.uniform(0.02, 0.3))

    @pytest.mark.parametrize("psk_order", [64, 8])
    def test_batch_equals_one_link_bit_for_bit(self, psk_order):
        numerics = rg.RegionNumerics(cutoff=16, psk_order=psk_order, tail_tol=1e-5)
        for effs in self.seeded_regions(31, 12):
            assert rg.link_mis(effs, numerics) == [rg.continuous_phase_mi(eff, numerics) for eff in effs]

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_decoupled_sender_links_are_exact_zeros(self, tau):
        # tau in {0, 1} silences one sender: kappa_eff = 0 on its links
        effs = _region_links(MacParams(tau=tau, kappa=0.5, n_b=1.0), 0.1)
        values = rg.link_mis(effs, FAST)
        assert values == [rg.continuous_phase_mi(eff, FAST) for eff in effs]
        assert [v == 0.0 for v in values] == [eff.kappa_eff == 0.0 for eff in effs]
        assert all(v > 0.0 for v, eff in zip(values, effs) if eff.kappa_eff > 0.0)

    def test_dead_links_skip_every_check(self):
        # no signal, or no transmission, is 0.0 even where the cutoff could not hold the output
        hot = EffectiveChannel(0.0, 100.0, 0.2)
        silent = EffectiveChannel(0.5, 100.0, 0.0)
        live = EffectiveChannel(0.25, 0.525, 0.1)
        values = rg.link_mis([hot, live, silent], FAST)
        assert values == [0.0, rg.continuous_phase_mi(live, FAST), 0.0]
        assert rg.link_mis([hot, silent], FAST) == [0.0, 0.0]
        assert rg.link_mis([], FAST) == []

    def test_noise_at_unit_transmissivity_in_a_batch(self):
        effs = [EffectiveChannel(1.0, 0.3, 0.2), EffectiveChannel(0.25, 0.525, 0.1), EffectiveChannel(1.0, 0.0, 0.2)]
        values = rg.link_mis(effs, FAST)
        assert values == [rg.continuous_phase_mi(eff, FAST) for eff in effs]
        assert all(math.isfinite(v) and v > 0.0 for v in values)

    def test_hot_environment_region(self):
        start = time.perf_counter()
        reg = rg.achievable_region(
            MacParams(tau=1.0, kappa=0.99, n_b=100.0), ModulationConfig(n_s=0.1), rg.RegionNumerics(cutoff=29)
        )
        assert time.perf_counter() - start < 1.0
        assert reg.y_bound == 0.0 and 0.0 < reg.x_bound < math.inf
        assert reg.sum_bound == pytest.approx(reg.x_bound, abs=1e-15)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize(
        "bad",
        [
            EffectiveChannel(0.5, 2.0, 0.05),  # output tail above the budget
            EffectiveChannel(0.1, 0.0, 0.5),  # TMSV tail only: the output fits
        ],
    )
    def test_required_cutoff_of_a_failing_link_in_any_position(self, position, bad):
        numerics = rg.RegionNumerics(cutoff=10, psk_order=64, tail_tol=1e-10)
        good = EffectiveChannel(0.25, 0.0, 0.01)
        with pytest.raises(TruncationError) as alone:
            rg.continuous_phase_mi(bad, numerics)
        effs = [good] * 4
        effs[position] = bad
        with pytest.raises(TruncationError) as batch:
            rg.link_mis(effs, numerics)
        assert batch.value.required_cutoff == alone.value.required_cutoff is not None
        assert str(batch.value) == str(alone.value)

    def test_first_failing_link_in_link_order_is_reported(self):
        numerics = rg.RegionNumerics(cutoff=10, psk_order=64, tail_tol=1e-10)
        good, tmsv_only, output = (
            EffectiveChannel(0.25, 0.0, 0.01),
            EffectiveChannel(0.1, 0.0, 0.5),
            EffectiveChannel(0.5, 2.0, 0.05),
        )
        for effs, first in (([good, tmsv_only, good, output], tmsv_only), ([output, good, tmsv_only, good], output)):
            with pytest.raises(TruncationError) as alone:
                rg.continuous_phase_mi(first, numerics)
            with pytest.raises(TruncationError) as batch:
                rg.link_mis(effs, numerics)
            assert str(batch.value) == str(alone.value)

    def test_deficit_past_the_output_check_is_caught_after_the_batch(self):
        # the output check lets an output tail of up to 5 tail_tol through; this link's is
        # 4.55 tail_tol, so only the 4 tail_tol deficit check after the batch rejects it
        numerics = rg.RegionNumerics(cutoff=24, psk_order=64, tail_tol=1e-5)
        with pytest.raises(TruncationError, match="output trace deficit 4.547e-05 exceeds budget"):
            rg.link_mis([EffectiveChannel(0.98, 1.2, 0.75)], numerics)


class TestTailChecks:
    """The pre-batch tail tests refuse exactly where required_cutoff says, with its message and value."""

    @pytest.mark.parametrize(
        "n_s, tail_tol",
        [(1.0, 2.0**-10), (0.3, 1e-5), (0.05, 1e-8), (0.823, 1e-8), (2.0, 1e-3), (4.0, 1e-6), (1e-3, 0.5),
         (0.1, 1e-12)],
    )
    def test_tmsv_tail(self, n_s, tail_tol):
        # kappa_eff = n_t_eff = 0 leaves the output in vacuum, so only the TMSV tail is tested
        need = rg.required_cutoff(n_s, tail_tol)
        for cutoff in (need - 1, need):
            if cutoff < 1:
                continue
            links = [EffectiveChannel(0.0, 0.0, n_s)] * 2
            if cutoff == need:
                rg.phase_averaged_spectra(links, cutoff, 64, tail_tol)
                fk.tmsv_fock(n_s, cutoff, tail_tol)
                continue
            message = f"cutoff {cutoff} keeps TMSV tail above {tail_tol:g}; need d >= {need}"
            with pytest.raises(TruncationError) as batch:
                rg.phase_averaged_spectra(links, cutoff, 64, tail_tol)
            with pytest.raises(TruncationError) as oracle:
                fk.tmsv_fock(n_s, cutoff, tail_tol)
            for refused in (batch, oracle):
                assert str(refused.value) == message and refused.value.required_cutoff == need

    @pytest.mark.parametrize(
        "kappa_eff, n_t_eff, tail_tol",
        [(0.5, 2.0, 1e-8), (0.9, 0.05, 1e-5), (0.2, 0.7, 1e-10), (0.98, 1.2, 1e-5), (0.0, 3.0, 1e-3)],
    )
    def test_output_tail(self, kappa_eff, n_t_eff, tail_tol):
        # n_s = 1e-6 keeps the TMSV tail inside every cutoff; the output test allows a tail of 5 tail_tol
        link = EffectiveChannel(kappa_eff, n_t_eff, 1e-6)
        mean = kappa_eff * 1e-6 + n_t_eff
        passes = next(d for d in range(1, rg.MAX_CUTOFF) if (mean / (mean + 1.0)) ** d <= 5.0 * tail_tol)
        need = rg.required_cutoff(mean, tail_tol)
        with pytest.raises(TruncationError) as refused:
            rg.phase_averaged_spectra([link], passes - 1, 64, tail_tol)
        message = f"cutoff {passes - 1} keeps the output tail (mean {mean:.6g}) above {tail_tol:g}; need d >= {need}"
        assert str(refused.value) == message and refused.value.required_cutoff == need
        rg.phase_averaged_spectra([link], passes, 64, tail_tol)

    def test_output_tail_inside_the_window_reaches_the_batch(self):
        # 4.55 tail_tol passes the output test; the deficit check after the batch refuses it
        (_,), (deficit,) = rg.phase_averaged_spectra([EffectiveChannel(0.98, 1.2, 0.75)], 24, 64, 1e-5)
        assert 4e-5 < deficit <= 5e-5


class TestRefusalParity:
    """The product (link_mis) and the oracle (fock.psk_ensemble_mi) refuse a link through one rule:
    the same message and required_cutoff, at TestTailChecks's points."""

    @staticmethod
    def refusals(eff, cutoff, tail_tol):
        with pytest.raises(TruncationError) as product:
            rg.link_mis([eff], rg.RegionNumerics(cutoff=cutoff, psk_order=64, tail_tol=tail_tol))
        with pytest.raises(TruncationError) as oracle:
            fk.psk_ensemble_mi(eff, 64, cutoff, tail_tol=tail_tol)
        return product.value, oracle.value

    @pytest.mark.parametrize(
        "n_s, tail_tol",
        [(1.0, 2.0**-10), (0.3, 1e-5), (0.05, 1e-8), (0.823, 1e-8), (2.0, 1e-3), (4.0, 1e-6), (0.1, 1e-12)],
    )
    def test_tmsv_tail(self, n_s, tail_tol):
        # kappa_eff = 0.5 with no noise halves the output mean, so the TMSV test refuses first
        need = rg.required_cutoff(n_s, tail_tol)
        product, oracle = self.refusals(EffectiveChannel(0.5, 0.0, n_s), need - 1, tail_tol)
        assert str(product) == str(oracle) == f"cutoff {need - 1} keeps TMSV tail above {tail_tol:g}; need d >= {need}"
        assert product.required_cutoff == oracle.required_cutoff == need

    # link_mis gives kappa_eff = 0 a value of 0 unchecked, so TestTailChecks's (0.0, 3.0) point is left out
    @pytest.mark.parametrize(
        "kappa_eff, n_t_eff, tail_tol", [(0.5, 2.0, 1e-8), (0.9, 0.05, 1e-5), (0.2, 0.7, 1e-10), (0.98, 1.2, 1e-5)]
    )
    def test_output_tail(self, kappa_eff, n_t_eff, tail_tol):
        mean = kappa_eff * 1e-6 + n_t_eff
        passes = next(d for d in range(1, rg.MAX_CUTOFF) if (mean / (mean + 1.0)) ** d <= 5.0 * tail_tol)
        product, oracle = self.refusals(EffectiveChannel(kappa_eff, n_t_eff, 1e-6), passes - 1, tail_tol)
        assert str(product) == str(oracle) and str(product).startswith(f"cutoff {passes - 1} keeps the output tail")
        assert product.required_cutoff == oracle.required_cutoff == rg.required_cutoff(mean, tail_tol)

    def test_deficit(self):
        # both tail tests pass; the product's deficit is 4.919e-4 and the oracle's 4.361e-4
        product, oracle = self.refusals(EffectiveChannel(0.7, 1.5, 0.2), 16, 1e-4)
        message = r"output trace deficit 4\.\d{3}e-04 exceeds budget 0\.0004; raise the cutoff"
        assert re.fullmatch(message, str(product)) and re.fullmatch(message, str(oracle))


class TestAgainstDenseOracle:
    """The region's four link MIs against the dense Fock route (fock.psk_ensemble_mi)."""

    # kappa_eff = 0 (decoupled), kappa_eff = 1 with n_t_eff = 0 (identity), n_t_eff = 0 (pure loss)
    EDGE_LINKS = [EffectiveChannel(0.0, 0.3, 0.1), EffectiveChannel(1.0, 0.0, 0.1), EffectiveChannel(0.4, 0.0, 0.1)]

    @pytest.mark.parametrize("psk_order", [64, 8])
    def test_link_mis_match_dense_psk_ensemble_mi(self, psk_order):
        # cutoff 12: psk_order 64 takes the 1 x 1 spectrum branch, 8 the Gram blocks.
        # The dense environment tail is 1e-15; what is left is the TMSV tail of
        # the dense conditional state at cutoff 12, which puts the two routes up
        # to 1.1e-8 apart over this grid.
        numerics = rg.RegionNumerics(cutoff=12, psk_order=psk_order, tail_tol=1e-5)
        rng = np.random.default_rng(15)
        for _ in range(12):
            p = MacParams(tau=rng.uniform(0.05, 0.95), kappa=rng.uniform(0.1, 0.9), n_b=rng.uniform(0.02, 0.3))
            effs = _region_links(p, rng.uniform(0.02, 0.2)) + self.EDGE_LINKS
            for eff, value in zip(effs, rg.link_mis(effs, numerics)):
                n_env = eff.n_t_eff / (1.0 - eff.kappa_eff) if eff.kappa_eff < 1.0 else 0.0
                dense = fk.psk_ensemble_mi(eff, psk_order, 12, d_env=rg.required_cutoff(n_env, 1e-15), tail_tol=1e-5)
                assert abs(value - dense) <= 5e-8


# any float, the edges drawn often; in-range draws mixed in so that many
# examples get past MacParams to the Fock work
ANY_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, 1e308, 5e-324, -1.0]) | st.floats()
UNIT_OR_ANY = st.floats(0.0, 1.0) | ANY_FLOAT
NONNEGATIVE_OR_ANY = st.floats(0.0) | ANY_FLOAT


@settings(max_examples=60, derandomize=True, database=None, deadline=500)
@given(tau=UNIT_OR_ANY, kappa=UNIT_OR_ANY, n_b=NONNEGATIVE_OR_ANY, n_s=NONNEGATIVE_OR_ANY)
def test_region_is_finite_or_raises_eamac_error(tau, kappa, n_b, n_s):
    try:
        reg = rg.achievable_region(MacParams(tau=tau, kappa=kappa, n_b=n_b), ModulationConfig(n_s=n_s))
    except EamacError:
        return
    bounds = [reg.x_bound, reg.y_bound, reg.sum_bound, *reg.sum_candidates, *(v for vertex in reg.vertices for v in vertex)]
    assert all(math.isfinite(v) for v in bounds)


# links over the criterion-7 ranges, with n_s log-uniform in [1e-4, 10^-0.5]
CEILING_LINKS = st.builds(
    EffectiveChannel,
    kappa_eff=st.floats(0.0, 1.0),
    n_t_eff=st.floats(0.0, 1.2),
    n_s=st.floats(-4.0, -0.5).map(lambda e: 10.0**e),
)
# Hypothesis mixes the literals of every loaded module into its draws, so its examples move
# with what is collected and with any edit to the package; each test's guard that enough
# examples were checked runs on a seeded NumPy sample of the same ranges instead
GUARD_SEED = 2026


@pytest.mark.parametrize("psk_order", [64, 8], ids=["continuous", "finite-psk"])
def test_link_mi_is_below_the_entanglement_assisted_capacity(psk_order):
    # C_E = g(n_s) + g(kappa_eff n_s + n_t_eff) - S(conditional) of thermal loss at input n_s
    # (Holevo & Werner, PRA 63, 032312 (2001)) bounds every phase-modulated link's MI, since
    # S(averaged) <= S(B) + S(idler) by subadditivity; no cutoff enters the ceiling
    numerics = rg.RegionNumerics(cutoff=24, psk_order=psk_order, tail_tol=1e-5)

    def below_capacity(eff) -> bool:
        try:
            (mi,) = rg.link_mis([eff], numerics)
        except TruncationError:  # a near-decoupled link the -1e-9 floor refuses (ROADMAP item 7b)
            return False
        output = eff.kappa_eff * eff.n_s + eff.n_t_eff
        capacity = g.g_entropy(eff.n_s) + g.g_entropy(output) - rg.conditional_entropy_term(eff)
        assert mi <= capacity + 1e-12, (eff, mi - capacity)
        return True

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(eff=CEILING_LINKS)
    def below_capacity_anywhere(eff):
        below_capacity(eff)

    below_capacity_anywhere()
    draws = np.random.default_rng(GUARD_SEED).uniform((0.0, 0.0, -4.0), (1.0, 1.2, -0.5), (300, 3)).tolist()
    checked = [below_capacity(EffectiveChannel(kappa, n_t, 10.0**e)) for kappa, n_t, e in draws]
    assert sum(checked) >= 250


# channels with n_b log-uniform in [1e-3, 10^0.3], for signals over CEILING_LINKS's n_s
CEILING_REGIONS = st.builds(
    lambda tau, kappa, n_b, n_s: (MacParams(tau=tau, kappa=kappa, n_b=n_b), ModulationConfig(n_s=n_s)),
    tau=st.floats(0.0, 1.0),
    kappa=st.floats(0.1, 0.9),
    n_b=st.floats(-3.0, 0.3).map(lambda e: 10.0**e),
    n_s=st.floats(-4.0, -0.5).map(lambda e: 10.0**e),
)


@pytest.mark.parametrize("psk_order", [64, 5], ids=["continuous", "finite-psk"])
def test_sum_bound_is_below_the_gaussian_joint_information(psk_order):
    """sum_bound <= 2 g(n_s) + g(kappa n_s + n_t) - S(bob_joint_cov), the Gaussian I(B; I_X I_Y).

    Each branch's sum is chi(first; B I_first) + chi(second; B I_second M | first), with M the
    heterodyne outcome on the first idler: by data processing each term is at most its value on
    R = (B, I_X, I_Y), so by the chain rule the sum is at most chi(X Y; R) = S(average) - S(rho).
    The phases act on the idlers as local unitaries, so S(rho) is that of bob_joint_cov at zero
    phase, and the average keeps the B and idler marginals, so by subadditivity
    S(average) <= g(kappa n_s + n_t) + 2 g(n_s).  Regions the numerics refuse are skipped.
    """
    numerics = rg.RegionNumerics(cutoff=24, psk_order=psk_order, tail_tol=1e-5)

    def below_joint_information(p, m) -> bool:
        try:
            reg = rg.achievable_region(p, m, numerics)
        except TruncationError:
            return False
        output = p.kappa * m.n_s + p.n_t
        joint = 2.0 * g.g_entropy(m.n_s) + g.g_entropy(output) - g.entropy_from_cov(bob_joint_cov(p, m))
        assert reg.sum_bound <= joint + 1e-12, (p, m, reg.sum_bound - joint)
        return True

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(channel=CEILING_REGIONS)
    def below_joint_information_anywhere(channel):
        below_joint_information(*channel)

    below_joint_information_anywhere()
    draws = np.random.default_rng(GUARD_SEED).uniform((0.0, 0.1, -3.0, -4.0), (1.0, 0.9, 0.3, -0.5), (200, 4)).tolist()
    checked = [below_joint_information(MacParams(t, k, 10.0**b), ModulationConfig(10.0**e)) for t, k, b, e in draws]
    assert sum(checked) >= 180


class TestConditionalEntropyTerm:
    def test_no_signal_reduces_to_background(self):
        eff = EffectiveChannel(0.25, 0.525, 0.0)
        assert rg.conditional_entropy_term(eff) == pytest.approx(g.g_entropy(0.525), abs=1e-12)

    def test_pure_conditional_state(self):
        eff = EffectiveChannel(1.0, 0.0, 0.6)
        assert rg.conditional_entropy_term(eff) == pytest.approx(0.0, abs=1e-12)

    def test_pure_loss_has_one_pure_mode(self):
        # n_t_eff = 0: one symplectic eigenvalue sits at the pure-state floor,
        # where rounding may land just below it; the rest is g((1 - kappa) n_s)
        rng = np.random.default_rng(5)
        for _ in range(50):
            kappa, n_s = rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0)
            term = rg.conditional_entropy_term(EffectiveChannel(kappa, 0.0, n_s))
            assert term == pytest.approx(g.g_entropy((1.0 - kappa) * n_s), abs=1e-12)

    def test_matches_symplectic_spectrum_route(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            eff = EffectiveChannel(
                kappa_eff=rng.uniform(0.01, 0.99),
                n_t_eff=rng.uniform(0.0, 3.0),
                n_s=rng.uniform(0.0, 2.0),
            )
            via_cov = g.entropy_from_cov(effective_cov(eff, rng.uniform(0, 2 * np.pi)))
            assert rg.conditional_entropy_term(eff) == pytest.approx(via_cov, abs=1e-10)

    def test_noise_condition_flag(self):
        assert rg.noise_condition_ok(EffectiveChannel(0.25, 0.525, 0.1))
        # zero noise with nonzero signal violates the stated floor
        assert not rg.noise_condition_ok(EffectiveChannel(0.9, 0.0, 1.0))


class TestRegenerateFixtures:
    def test_reproduces_checked_in_records(self, tmp_path):
        package = fixtures._data_path()
        before = (package.read_bytes(), package.stat().st_mtime_ns)
        written = tmp_path / "golden.txt"
        fixtures.regenerate(written)
        assert (package.read_bytes(), package.stat().st_mtime_ns) == before
        fresh, golden = fixtures.load_fixtures(written), fixtures.load_fixtures()
        assert fresh.keys() == golden.keys()
        for name, rec in golden.items():
            assert fresh[name].keys() == rec.keys()
            for key, value in rec.items():
                assert fresh[name][key] == pytest.approx(value, abs=rec["tolerance"]), (name, key)


class TestSpectralEntropy:
    @pytest.mark.parametrize("eigs", [[1.0, -1e-9], [[1.0, 0.0], [1.0 + 1e-9, -1e-9]]], ids=["spectrum", "stack"])
    def test_eigenvalue_below_rounding_is_unphysical(self, eigs):
        with pytest.raises(PhysicalityError, match=r"density matrix has eigenvalue -1\.000e-09 < -1e-10"):
            rg.spectral_entropy(np.array(eigs))

    @pytest.mark.parametrize("eigs", [[0.5, math.nan], [[1.0, 0.0], [math.nan, 1.0]]], ids=["spectrum", "stack"])
    def test_nan_eigenvalue_is_unphysical(self, eigs):
        # once a NaN entropy
        with pytest.raises(PhysicalityError, match="density matrix has eigenvalue nan"):
            rg.spectral_entropy(np.array(eigs))

    def test_empty_spectrum_has_zero_entropy(self):
        # once a bare ValueError
        assert rg.spectral_entropy(np.zeros(0)) == 0.0


class TestLoadFixtures:
    @pytest.mark.parametrize("version", [0, 2])
    def test_other_version_is_refused(self, tmp_path, version):
        path = tmp_path / "golden.txt"
        path.write_text(f"version = {version}\n[record]\nvalue = 1.0\n")
        with pytest.raises(ValueError, match=f"fixture file version {version} != {fixtures.VERSION}"):
            fixtures.load_fixtures(path)

    @pytest.mark.parametrize(
        "text, value", [("24", 24), ("0.25", 0.25), ("1e-8", 1e-8), ("psk", "psk"), ("1.2.3", "1.2.3")]
    )
    def test_value_is_int_float_or_string(self, tmp_path, text, value):
        path = tmp_path / "golden.txt"
        path.write_text(f"version = {fixtures.VERSION}\n[record]\nkey = {text}\n")
        parsed = fixtures.load_fixtures(path)["record"]["key"]
        assert parsed == value and type(parsed) is type(value)


class TestContinuousPhaseMi:
    def test_no_signal_zero(self):
        assert rg.continuous_phase_mi(EffectiveChannel(0.25, 0.5, 0.0), FAST) == 0.0

    def test_decoupled_channel_zero(self):
        assert rg.continuous_phase_mi(EffectiveChannel(0.0, 0.5, 0.3), FAST) == 0.0

    def test_golden_fixture(self):
        rec = fixtures.load_fixtures()["continuous_mi_conditioned"]
        eff = EffectiveChannel(rec["kappa_eff"], rec["n_t_eff"], rec["n_s"])
        numerics = rg.RegionNumerics(cutoff=int(rec["cutoff"]), psk_order=64)
        assert rg.continuous_phase_mi(eff, numerics) == pytest.approx(rec["value"], abs=rec["tolerance"])

    def test_eight_phases_reach_the_continuous_average(self):
        # the canonical x link at cutoff 24: psk_order L is L phases, so 8 already
        # matches the continuous average while 3 falls measurably short
        eff = EffectiveChannel(0.25, 0.5, 0.1)
        mi = {order: rg.link_mis([eff], rg.RegionNumerics(cutoff=24, psk_order=order))[0] for order in (3, 8, 24)}
        assert abs(mi[8] - mi[24]) <= 1e-12
        assert mi[24] - mi[3] > 1e-5

    def test_conditioning_never_hurts(self):
        p = MacParams(tau=0.6, kappa=0.5, n_b=0.8)
        m = ModulationConfig(n_s=0.15)
        for sender in ("x", "y"):
            cond = rg.continuous_phase_mi(effective_params(p, m, sender, True), FAST)
            unc = rg.continuous_phase_mi(effective_params(p, m, sender, False), FAST)
            assert cond >= unc - 1e-9


class TestAchievableRegion:
    def test_no_signal_collapses_to_origin(self):
        p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        reg = rg.achievable_region(p, ModulationConfig(n_s=0.0), FAST)
        assert reg.vertices == [(0.0, 0.0)]

    def test_single_sender_degenerates_to_segment(self):
        p = MacParams(tau=1.0, kappa=0.5, n_b=1.0)
        reg = rg.achievable_region(p, ModulationConfig(n_s=0.1), FAST)
        assert reg.y_bound == 0.0
        assert len(reg.vertices) == 2
        assert reg.vertices[0] == (0.0, 0.0)
        assert reg.vertices[1][1] == 0.0

    def test_golden_canonical_region(self):
        rec = fixtures.load_fixtures()["region_canonical"]
        p = MacParams(tau=rec["tau"], kappa=rec["kappa"], n_b=rec["n_b"])
        reg = rg.achievable_region(
            p, ModulationConfig(n_s=rec["n_s"]), rg.RegionNumerics(cutoff=int(rec["cutoff"]), psk_order=64)
        )
        assert reg.x_bound == pytest.approx(rec["x_bound"], abs=rec["tolerance"])
        assert reg.y_bound == pytest.approx(rec["y_bound"], abs=rec["tolerance"])
        assert reg.sum_bound == pytest.approx(rec["sum_bound"], abs=rec["tolerance"])

    def test_vertices_nonnegative_and_max_branch(self):
        p = MacParams(tau=0.35, kappa=0.55, n_b=0.7)
        reg = rg.achievable_region(p, ModulationConfig(n_s=0.12), FAST)
        assert all(vx >= 0.0 and vy >= 0.0 for vx, vy in reg.vertices)
        assert reg.sum_bound >= max(reg.sum_candidates) - 1e-15

    def test_replaced_bound_gives_its_own_polygon(self):
        # the vertices and sum_active flag were once stored, so a replaced bound kept the old polygon
        reg = rg.achievable_region(MacParams(tau=0.35, kappa=0.55, n_b=0.7), ModulationConfig(n_s=0.12), FAST)
        assert reg.sum_active and len(reg.vertices) == 5
        x = (reg.sum_bound - reg.y_bound) / 2.0
        rect = dataclasses.replace(reg, x_bound=x)
        assert not rect.sum_active
        assert rect.vertices == [(0.0, 0.0), (x, 0.0), (x, reg.y_bound), (0.0, reg.y_bound)]

    def test_monotone_in_signal_power(self):
        p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        bounds = []
        for n_s in (0.02, 0.05, 0.1):
            reg = rg.achievable_region(p, ModulationConfig(n_s=n_s), FAST)
            bounds.append((reg.x_bound, reg.y_bound, reg.sum_bound))
        for a, b in zip(bounds, bounds[1:]):
            assert all(hi >= lo - 1e-12 for lo, hi in zip(a, b))

    def test_monotone_in_psk_order(self):
        # more phases never shrink the canonical region's x bound, up to rounding once they
        # reach the continuous average
        p, m = MacParams(tau=0.5, kappa=0.5, n_b=1.0), ModulationConfig(n_s=0.1)
        bounds = [rg.achievable_region(p, m, rg.RegionNumerics(psk_order=order)).x_bound for order in range(2, 13)]
        assert bounds[0] > 0.0
        assert all(hi >= lo - 1e-15 for lo, hi in zip(bounds, bounds[1:])), bounds

    def test_noise_condition_violation_flags_but_computes(self):
        # low-noise channel: the convergence condition fails, values still come out
        p = MacParams(tau=0.5, kappa=0.9, n_b=0.01)
        reg = rg.achievable_region(p, ModulationConfig(n_s=0.5), rg.RegionNumerics(cutoff=16, tail_tol=1e-5))
        assert not reg.validity["x_conditioned"]
        assert reg.x_bound > 0.0 and math.isfinite(reg.sum_bound)

    def test_nan_link_raises_numerical_error(self, monkeypatch):
        # the decoding-order check is explicit, so it also holds under python -O
        monkeypatch.setattr(rg, "link_mis", lambda effs, numerics: [float("nan")] * len(effs))
        with pytest.raises(NumericalError) as err:
            rg.achievable_region(MacParams(tau=0.5, kappa=0.5, n_b=1.0), ModulationConfig(n_s=0.1), FAST)
        assert isinstance(err.value, EamacError)

    def test_interference_free_point_reports_inactive_sum(self):
        # at tau = 1 the decoding orders tie and the sum adds nothing
        p = MacParams(tau=1.0, kappa=0.5, n_b=1.0)
        reg = rg.achievable_region(p, ModulationConfig(n_s=0.1), FAST)
        assert not reg.sum_active
        assert reg.sum_bound == pytest.approx(reg.x_bound + reg.y_bound, abs=1e-15)


class TestCovertRectangle:
    def test_worked_coefficient(self):
        p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        rect = rg.covert_rectangle(p, 0.01)
        assert rect.x_bound == pytest.approx((1.0 / 6.0) * 0.01 * math.log(100.0), abs=1e-10)
        assert rect.x_bound == pytest.approx(0.0076753, abs=1e-7)

    def test_silent_sender_has_zero_bound(self):
        p = MacParams(tau=0.0, kappa=0.5, n_b=1.0)
        assert rg.covert_rectangle(p, 0.01).x_bound == 0.0

    def test_single_sender_matches_point_to_point_coefficient(self):
        p = MacParams(tau=1.0, kappa=0.5, n_b=1.0)
        rect = rg.covert_rectangle(p, 0.01)
        point_to_point = p.kappa / (1.0 + p.n_t) * 0.01 * math.log(100.0)
        assert rect.x_bound == pytest.approx(point_to_point, abs=1e-15)

    def test_domain(self):
        p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        with pytest.raises(DomainError):
            rg.covert_rectangle(p, 1.0)
        with pytest.raises(DomainError):
            rg.covert_rectangle(p, 0.0)

    def test_rectangle_convergence_trend_small(self):
        # light-weight version of the acceptance check, cutoff 16
        p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        numerics = rg.RegionNumerics(cutoff=16, psk_order=64)
        ratios = []
        for s in (0.1, 0.02):
            eff = effective_params(p, ModulationConfig(n_s=s), "x", conditioned=True)
            ratios.append(rg.continuous_phase_mi(eff, numerics) / rg.covert_rectangle(p, s).x_bound)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
