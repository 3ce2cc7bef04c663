"""Truncated Fock-space oracle: states, channels, entropies, ensembles."""

import math

import numpy as np
import pytest

from eamac import channel as ch
from eamac import fock as fk
from eamac import gaussian as g
from eamac.errors import SupportError, TruncationError


class TestTmsvFock:
    def test_vacuum_pair(self):
        v = fk.tmsv_fock(0.0, 4)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(v.amplitudes.real, expected)

    def test_captured_weight_geometric(self):
        v = fk.tmsv_fock(1.0, 20, tail_tol=1e-5)
        assert v.norm_sq() == pytest.approx(1.0 - 2.0**-20, abs=1e-15)

    def test_truncation_error_reports_required_cutoff(self):
        with pytest.raises(TruncationError) as err:
            fk.tmsv_fock(1.0, 20, tail_tol=1e-8)
        assert err.value.required_cutoff == fk.required_cutoff(1.0, 1e-8)
        assert fk.tmsv_fock(1.0, err.value.required_cutoff).tail() <= 1e-8

    def test_reduced_mode_entropy_matches_gaussian(self):
        # independent route: diagonalize the traced-out density matrix
        reduced = fk.tmsv_fock(0.5, 40).to_density().partial_trace([0])
        assert fk.entropy_fock(reduced) == pytest.approx(g.g_entropy(0.5), abs=1e-9)


class TestPhaseRotate:
    def test_identity_angles(self):
        v = fk.FockVector(4, 1, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        for theta in (0.0, math.pi):
            out = fk.phase_rotate_fock(v, theta)
            np.testing.assert_allclose(out.amplitudes, v.amplitudes, atol=1e-12)

    def test_half_pi_flips_single_photon(self):
        v = fk.FockVector(3, 1, np.array([0.0, 1.0, 0.0], dtype=complex))
        out = fk.phase_rotate_fock(v, math.pi / 2)
        np.testing.assert_allclose(out.amplitudes[1], -1.0, atol=1e-12)

    def test_density_rotation_matches_vector_rotation(self):
        v = fk.tmsv_fock(0.3, 8, tail_tol=1e-3)
        via_vector = fk.phase_rotate_fock(v, 0.7, mode=0).to_density()
        via_density = fk.phase_rotate_fock(v.to_density(), 0.7, mode=0)
        np.testing.assert_allclose(via_vector.matrix, via_density.matrix, atol=1e-14)


class TestBeamsplitterFock:
    def test_orthogonal_on_truncated_space(self):
        u = fk.beamsplitter_fock(6, 6, 0.37)
        np.testing.assert_allclose(u @ u.T, np.eye(36), atol=1e-12)

    def test_heisenberg_convention_single_photon(self):
        # |1,0> -> cos(xi)|1,0> - sin(xi)|0,1>
        t = 0.64
        u = fk.beamsplitter_fock(2, 2, t)
        out = u @ np.array([0.0, 0.0, 1.0, 0.0])
        assert out[2] == pytest.approx(math.sqrt(t))
        assert out[1] == pytest.approx(-math.sqrt(1.0 - t))


class TestThermalLoss:
    def test_full_transmission_is_identity(self):
        th = fk.thermal_fock(1.0, 30)
        out = fk.thermal_loss_fock(th, 1.0, 0.8)
        np.testing.assert_allclose(out.matrix, th.matrix, atol=1e-14)

    def test_vacuum_through_pure_loss(self):
        vac = fk.thermal_fock(0.0, 4)
        out = fk.thermal_loss_fock(vac, 0.3, 0.0)
        np.testing.assert_allclose(out.matrix, vac.matrix, atol=1e-14)

    def test_single_photon_loss(self):
        one = fk.FockDensity(4, 1, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
        out = fk.thermal_loss_fock(one, 0.3, 0.0)
        np.testing.assert_allclose(np.diag(out.matrix).real, [0.7, 0.3, 0.0, 0.0], atol=1e-14)

    def test_moments_match_gaussian_channel(self):
        kappa, n_b = 0.45, 0.9
        x_mat = math.sqrt(kappa) * np.eye(2)
        y_mat = (1.0 - kappa) * (2.0 * n_b + 1.0) * np.eye(2)
        th_in = g.GaussianState(np.zeros(2), g.thermal_cov(0.7))
        expected = g.apply_gaussian_channel(th_in, x_mat, y_mat).cov
        out = fk.thermal_loss_fock(fk.thermal_fock(0.7, 36), kappa, n_b, tail_tol=1e-10)
        _, cov = fk.moments_from_fock(out)
        np.testing.assert_allclose(cov, expected, atol=1e-6)

    def test_tmsv_signal_moments_match_gaussian_channel(self):
        kappa, n_b, n_s = 0.5, 0.667, 0.4
        psi = fk.tmsv_fock(n_s, 28, tail_tol=1e-9)
        out = fk.thermal_loss_fock(psi.to_density(), kappa, n_b, mode=0, tail_tol=1e-9)
        x_mat = np.diag([math.sqrt(kappa), math.sqrt(kappa), 1.0, 1.0])
        y_mat = np.diag([(1.0 - kappa) * (2.0 * n_b + 1.0)] * 2 + [0.0, 0.0])
        expected = g.apply_gaussian_channel(
            g.GaussianState(np.zeros(4), ch.tmsv_cov(n_s)), x_mat, y_mat
        ).cov
        _, cov = fk.moments_from_fock(out)
        np.testing.assert_allclose(cov, expected, atol=1e-6)
        assert abs(out.tail()) <= 2e-9

    def test_env_cutoff_validation(self):
        th = fk.thermal_fock(0.5, 8)
        with pytest.raises(TruncationError):
            fk.thermal_loss_fock(th, 0.5, 2.0, d_env=3)


class TestMacMix:
    def test_pass_through_ports(self):
        # a truncated input is subnormalized; the pass-through port carries
        # the partner's trace as an overall factor
        a = fk.thermal_fock(0.3, 15)
        b = fk.thermal_fock(0.7, 15)
        np.testing.assert_allclose(fk.mac_mix_fock(a, b, 1.0).matrix, a.matrix * b.trace(), atol=1e-12)
        np.testing.assert_allclose(fk.mac_mix_fock(a, b, 0.0).matrix, b.matrix * a.trace(), atol=1e-12)

    def test_vacuum_stays_vacuum(self):
        vac = fk.thermal_fock(0.0, 6)
        out = fk.mac_mix_fock(vac, vac, 0.42)
        np.testing.assert_allclose(np.diag(out.matrix).real, [1.0, 0, 0, 0, 0, 0], atol=1e-13)


class TestInformationFunctionals:
    def test_pure_state_entropy_zero(self):
        psi = fk.tmsv_fock(0.5, 24)
        assert fk.entropy_fock(psi.to_density()) == pytest.approx(0.0, abs=1e-10)

    def test_trace_distance_self(self):
        rho = fk.thermal_fock(0.4, 12)
        assert fk.trace_distance_fock(rho, rho) == 0.0

    def test_rel_entropy_matches_geometric_kl(self):
        rho = fk.thermal_fock(0.1, 60)
        sigma = fk.thermal_fock(0.2, 60)
        p1 = fk.photon_distribution_thermal(0.1, 60).probs
        p2 = fk.photon_distribution_thermal(0.2, 60).probs
        kl = float(np.sum(p1 * (np.log(p1) - np.log(p2))))
        assert fk.rel_entropy_fock(rho, sigma) == pytest.approx(kl, abs=1e-10)

    def test_rel_entropy_support_violation(self):
        rho = fk.thermal_fock(0.5, 6)
        vac = fk.thermal_fock(0.0, 6)
        with pytest.raises(SupportError):
            fk.rel_entropy_fock(rho, vac)


class TestPskEnsembleMi:
    def test_single_symbol_zero(self):
        eff = ch.EffectiveChannel(0.25, 0.5, 0.1)
        assert fk.psk_ensemble_mi(eff, 1, 16) == 0.0

    def test_no_signal_zero(self):
        eff = ch.EffectiveChannel(0.25, 0.5, 0.0)
        assert fk.psk_ensemble_mi(eff, 64, 16) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_constellation_size(self):
        eff = ch.EffectiveChannel(0.3, 0.4, 0.15)
        values = [fk.psk_ensemble_mi(eff, L, 16) for L in (2, 4, 8, 16, 32, 64)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_mask_average_equals_literal_ensemble(self):
        # rotate-then-transmit, averaged by hand, against the pinched state
        eff = ch.EffectiveChannel(0.3, 0.2, 0.1)
        d, order = 8, 4
        rho0 = fk.conditional_output_density(eff, d, tail_tol=1e-4)
        masked = fk.phase_average_fock(rho0, order, mode=0)
        acc = np.zeros_like(rho0.matrix)
        n_env = eff.n_t_eff / (1.0 - eff.kappa_eff)
        for k in range(order):
            rotated = fk.phase_rotate_fock(fk.tmsv_fock(eff.n_s, d), 2 * math.pi * k / order, mode=0)
            out = fk.thermal_loss_fock(rotated.to_density(), eff.kappa_eff, n_env, tail_tol=1e-4)
            acc += out.matrix / order
        np.testing.assert_allclose(masked.matrix, acc, atol=1e-12)

    def test_truncation_budget_enforced(self):
        eff = ch.EffectiveChannel(0.5, 2.0, 0.5)
        with pytest.raises(TruncationError):
            fk.psk_ensemble_mi(eff, 64, 10, tail_tol=1e-10)

    def test_golden_fixture(self):
        from eamac import fixtures

        rec = fixtures.load_fixtures()["psk_mi_unconditioned"]
        eff = ch.EffectiveChannel(rec["kappa_eff"], rec["n_t_eff"], rec["n_s"])
        value = fk.psk_ensemble_mi(eff, int(rec["psk_order"]), int(rec["cutoff"]))
        assert value == pytest.approx(rec["value"], abs=rec["tolerance"])


def _dense_spectrum_entropy(eff, cutoff, psk_order, tail_tol):
    rho0 = fk.conditional_output_density(eff, cutoff, tail_tol=tail_tol)
    return fk.entropy_fock(fk.phase_average_fock(rho0, psk_order, mode=0)), rho0.tail()


def _criterion7_links(seed, count):
    """Effective links of seeded MAC points over the criterion-7 ranges."""
    rng = np.random.default_rng(seed)
    links = []
    for _ in range(count):
        p = ch.MacParams(tau=rng.uniform(0.05, 0.95), kappa=rng.uniform(0.1, 0.9), n_b=rng.uniform(0.2, 1.2))
        m = ch.ModulationConfig(n_s=rng.uniform(0.02, 0.3))
        sender, conditioned = ("x", "y")[rng.integers(2)], bool(rng.integers(2))
        links.append(ch.effective_params(p, m, sender, conditioned))
    return links


class TestPhaseAveragedSpectrum:
    """The photon-number-sector route against the dense Fock oracle."""

    EDGE_LINKS = [
        ch.EffectiveChannel(0.3, 0.0, 0.2),  # pure loss
        ch.EffectiveChannel(0.4, 0.3, 0.0),  # no signal
        ch.EffectiveChannel(1.0, 0.0, 0.2),  # identity channel
        ch.EffectiveChannel(0.0, 0.5, 0.2),  # decoupled signal
    ]

    @pytest.mark.parametrize("psk_order", [2, 4, 6, 10, 64, None])
    def test_matches_dense_on_seeded_grid(self, psk_order):
        for eff in _criterion7_links(2024, 6) + self.EDGE_LINKS:
            eigs, deficit = fk.phase_averaged_spectrum(eff, 14, psk_order, tail_tol=1e-5)
            s_dense, tail_dense = _dense_spectrum_entropy(eff, 14, psk_order, 1e-5)
            assert abs(fk.spectral_entropy(eigs) - s_dense) <= 1e-12
            assert abs(deficit - tail_dense) <= 1e-12

    @pytest.mark.parametrize("name", ["psk_mi_unconditioned", "continuous_mi_conditioned"])
    def test_matches_dense_at_golden_points(self, name):
        from eamac import fixtures

        rec = fixtures.load_fixtures()[name]
        eff = ch.EffectiveChannel(rec["kappa_eff"], rec["n_t_eff"], rec["n_s"])
        eigs, deficit = fk.phase_averaged_spectrum(eff, int(rec["cutoff"]), 64)
        s_dense, tail_dense = _dense_spectrum_entropy(eff, int(rec["cutoff"]), 64, fk.DEFAULT_TAIL_TOL)
        assert abs(fk.spectral_entropy(eigs) - s_dense) <= 1e-12
        assert abs(deficit - tail_dense) <= 1e-12

    def test_blocks_are_one_by_one_for_large_order(self):
        # L >= 2d leaves a diagonal state: d^2 eigenvalues, one per (x, k)
        eff = ch.EffectiveChannel(0.25, 0.525, 0.1)
        eigs, deficit = fk.phase_averaged_spectrum(eff, 12, 24, tail_tol=1e-5)
        diag, _ = fk.phase_averaged_spectrum(eff, 12, None, tail_tol=1e-5)
        assert eigs.size == 144
        np.testing.assert_array_equal(np.sort(eigs), np.sort(diag))
        assert abs(eigs.sum() - (1.0 - deficit)) <= 1e-14

    @pytest.mark.parametrize(
        "eff, cutoff, tail_tol",
        [
            (ch.EffectiveChannel(0.5, 2.0, 0.5), 10, 1e-10),  # TMSV tail check
            (ch.EffectiveChannel(0.5, 2.0, 0.05), 10, 1e-8),  # output trace deficit
        ],
    )
    def test_both_routes_reject_the_same_small_cutoff(self, eff, cutoff, tail_tol):
        from eamac import region as rg

        numerics = rg.RegionNumerics(cutoff=cutoff, psk_order=64, tail_tol=tail_tol)
        with pytest.raises(TruncationError) as sector:
            rg.continuous_phase_mi(eff, numerics)
        with pytest.raises(TruncationError) as dense:
            fk.psk_ensemble_mi(eff, 64, cutoff, tail_tol=tail_tol)
        assert sector.value.required_cutoff == dense.value.required_cutoff


class TestLayer1Distributions:
    def test_silent_senders_single_background(self):
        p = ch.MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        entries = fk.layer1_mode_distributions(p, 0.0, 0.0, 0.01, "bob")
        weights = [w for _, w, _ in entries]
        assert weights == [1.0, 0.0, 0.0, 0.0]
        background = fk.photon_distribution_thermal(p.n_t, entries[0][2].probs.size)
        np.testing.assert_allclose(entries[0][2].probs, background.probs)

    def test_distributions_normalized(self):
        p = ch.MacParams(tau=0.4, kappa=0.6, n_b=1.3)
        for _, _, dist in fk.layer1_mode_distributions(p, 0.1, 0.2, 0.05, "willie"):
            assert dist.tail() <= 1e-12

    def test_willie_active_x_mean(self):
        p = ch.MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        entries = fk.layer1_mode_distributions(p, 0.1, 0.1, 0.01, "willie", cutoff=64)
        by_key = {key: dist for key, _, dist in entries}
        mean = float(np.sum(np.arange(64) * by_key[1, 0].probs))
        assert mean == pytest.approx(0.5 * 1.0 + 0.5 * 0.5 * 0.01, abs=1e-10)

    def test_quantum_equals_classical_for_diagonal_states(self):
        p = ch.MacParams(tau=0.5, kappa=0.5, n_b=0.8)
        entries = fk.layer1_mode_distributions(p, 0.2, 0.1, 0.05, "bob", cutoff=48)
        mix = sum(w * dist.probs for _, w, dist in entries)
        rho = fk.FockDensity(48, 1, np.diag(entries[3][2].probs).astype(complex))
        sigma = fk.FockDensity(48, 1, np.diag(mix).astype(complex))
        quantum = fk.rel_entropy_fock(rho, sigma)
        classical = float(np.sum(entries[3][2].probs * (np.log(entries[3][2].probs) - np.log(mix))))
        assert quantum == pytest.approx(classical, abs=1e-10)


class TestMacJointFock:
    """Full end-to-end channel state, checked against the Gaussian layer."""

    def setup_method(self):
        self.p = ch.MacParams(tau=0.6, kappa=0.6, n_b=0.5)
        self.n_s = 0.12
        self.d = 10
        self.rho = fk.mac_joint_fock(self.p, self.n_s, self.d, tail_tol=1e-6)

    def test_moments_match_joint_covariance(self):
        # accuracy is tail-limited at this cutoff (output weight above d=10)
        _, cov = fk.moments_from_fock(self.rho)
        ref = ch.bob_joint_cov(self.p, ch.ModulationConfig(n_s=self.n_s))
        np.testing.assert_allclose(cov, ref, atol=5e-5)

    def test_signal_rotation_equals_idler_rotation(self):
        rotated = fk.mac_joint_fock(self.p, self.n_s, self.d, theta=0.37, phi=1.1, tail_tol=1e-6)
        alt = fk.phase_rotate_fock(fk.phase_rotate_fock(self.rho, 0.37, mode=1), 1.1, mode=2)
        np.testing.assert_allclose(rotated.matrix, alt.matrix, atol=1e-12)

    def test_chain_rule_lower_bound(self):
        # joint decoding beats the heterodyne-decoupled sum, up to numerics
        order = 8
        m = ch.ModulationConfig(n_s=self.n_s, psk_order=order)
        masked = fk.phase_average_fock(
            fk.phase_average_fock(self.rho, order, mode=1), order, mode=2
        )
        lhs = fk.entropy_fock(masked) - fk.entropy_fock(self.rho)
        rhs = max(
            fk.psk_ensemble_mi(ch.effective_params(self.p, m, "x", False), order, self.d, tail_tol=1e-6)
            + fk.psk_ensemble_mi(ch.effective_params(self.p, m, "y", True), order, self.d, tail_tol=1e-6),
            fk.psk_ensemble_mi(ch.effective_params(self.p, m, "y", False), order, self.d, tail_tol=1e-6)
            + fk.psk_ensemble_mi(ch.effective_params(self.p, m, "x", True), order, self.d, tail_tol=1e-6),
        )
        assert lhs >= rhs - 1e-6

    def test_marginal_matches_effective_channel(self):
        # tracing the other idler reproduces the unconditioned reduction
        order = 8
        m = ch.ModulationConfig(n_s=self.n_s, psk_order=order)
        marginal = self.rho.partial_trace([0, 1])
        direct = fk.entropy_fock(fk.phase_average_fock(marginal, order, mode=1)) - fk.entropy_fock(marginal)
        via_eff = fk.psk_ensemble_mi(
            ch.effective_params(self.p, m, "x", False), order, self.d, tail_tol=1e-6
        )
        assert direct == pytest.approx(via_eff, abs=1e-6)
