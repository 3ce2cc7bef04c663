"""Rate-region assembly, conditional entropy formula, covert rectangle."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamac import fixtures
from eamac import fock as fk
from eamac import gaussian as g
from eamac import region as rg
from eamac.channel import EffectiveChannel, MacParams, ModulationConfig, effective_cov, effective_params
from eamac.errors import DomainError, EamacError, NumericalError, TruncationError

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

    def test_monotone_in_signal_power(self):
        p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        bounds = []
        for n_s in (0.02, 0.05, 0.1):
            reg = rg.achievable_region(p, ModulationConfig(n_s=n_s), FAST)
            bounds.append((reg.x_bound, reg.y_bound, reg.sum_bound))
        for a, b in zip(bounds, bounds[1:]):
            assert all(hi >= lo - 1e-12 for lo, hi in zip(a, b))

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
