"""Rate-region assembly, conditional entropy formula, covert rectangle."""

import math

import numpy as np
import pytest

from eamac import fixtures
from eamac import gaussian as g
from eamac import region as rg
from eamac.channel import EffectiveChannel, MacParams, ModulationConfig, effective_cov, effective_params
from eamac.errors import DomainError, EamacError, NumericalError

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
        ],
    )
    def test_rejects_out_of_domain(self, kwargs, key):
        with pytest.raises(DomainError, match=key):
            rg.RegionNumerics(**kwargs)

    def test_continuous_average_allowed(self):
        numerics = rg.RegionNumerics(cutoff=16, psk_order=None, tail_tol=1e-7)
        eff = EffectiveChannel(0.25, 0.5, 0.1)
        assert rg.continuous_phase_mi(eff, numerics) == pytest.approx(rg.continuous_phase_mi(eff, FAST), abs=1e-15)


class TestConditionalEntropyTerm:
    def test_no_signal_reduces_to_background(self):
        eff = EffectiveChannel(0.25, 0.525, 0.0)
        assert rg.conditional_entropy_term(eff) == pytest.approx(g.g_entropy(0.525), abs=1e-12)

    def test_pure_conditional_state(self):
        eff = EffectiveChannel(1.0, 0.0, 0.6)
        assert rg.conditional_entropy_term(eff) == pytest.approx(0.0, abs=1e-12)

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

    def test_partial_expansion_diagnostic(self):
        # diagnostic log terms: defined only above the n_t_eff > kappa_eff line
        value = rg.partial_rate_expansion(EffectiveChannel(0.25, 0.5, 0.1))
        assert math.isfinite(value) and value > 0.0
        with pytest.raises(DomainError):
            rg.partial_rate_expansion(EffectiveChannel(0.6, 0.5, 0.1))
        with pytest.raises(DomainError):
            rg.partial_rate_expansion(EffectiveChannel(0.25, 0.5, 0.0))


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
        monkeypatch.setattr(rg, "continuous_phase_mi", lambda eff, numerics: float("nan"))
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
