"""States of the two-sender channel and their point-to-point reductions."""

import math

import numpy as np
import pytest

from eamac import channel as ch
from eamac import gaussian as g
from eamac.errors import DomainError


def compose_joint_covs(p, n_s, theta=0.0, phi=0.0):
    """Build (Bob, Willie) joint covariances through the public channel ops.

    Five modes (A_X, I_X, A_Y, I_Y, E): rotate the signals, combine them
    on the tau splitter, mix the combined mode with the thermal
    environment on the kappa splitter, then select the relevant modes.
    The second kappa port is exactly the eavesdropper's mode.
    """
    cov0 = np.zeros((10, 10))
    cov0[0:4, 0:4] = ch.tmsv_cov(n_s)
    cov0[4:8, 4:8] = ch.tmsv_cov(n_s)
    cov0[8:10, 8:10] = g.thermal_cov(p.n_b)
    state = g.GaussianState(np.zeros(10), cov0)

    rot = np.eye(10)
    rot[0:2, 0:2] = g.mode_rotation_symplectic(theta)
    rot[4:6, 4:6] = g.mode_rotation_symplectic(phi)
    state = g.apply_gaussian_channel(state, rot, np.zeros((10, 10)))

    def embed_bs(t, mode_a, mode_b):
        bs = g.beamsplitter_symplectic(t)
        full = np.eye(10)
        sl_a, sl_b = slice(2 * mode_a, 2 * mode_a + 2), slice(2 * mode_b, 2 * mode_b + 2)
        full[sl_a, sl_a] = bs[0:2, 0:2]
        full[sl_a, sl_b] = bs[0:2, 2:4]
        full[sl_b, sl_a] = bs[2:4, 0:2]
        full[sl_b, sl_b] = bs[2:4, 2:4]
        return full

    state = g.apply_gaussian_channel(state, embed_bs(p.tau, 0, 2), np.zeros((10, 10)))
    state = g.apply_gaussian_channel(state, embed_bs(p.kappa, 0, 4), np.zeros((10, 10)))

    def select(modes):
        rows = np.zeros((2 * len(modes), 10))
        for i, mode in enumerate(modes):
            rows[2 * i, 2 * mode] = 1.0
            rows[2 * i + 1, 2 * mode + 1] = 1.0
        return g.apply_gaussian_channel(state, rows, np.zeros((2 * len(modes),) * 2)).cov

    return select([0, 1, 3]), select([4, 1, 3])


class TestParamValidation:
    def test_mac_params_domains(self):
        for bad in (dict(tau=-0.1), dict(tau=1.1), dict(kappa=0.0), dict(kappa=1.0), dict(n_b=0.0)):
            with pytest.raises(DomainError):
                ch.MacParams(**{**dict(tau=0.5, kappa=0.5, n_b=1.0), **bad})

    def test_n_t_is_derived(self):
        p = ch.MacParams(tau=0.5, kappa=0.25, n_b=2.0)
        assert p.n_t == 0.75 * 2.0

    def test_modulation_domains(self):
        with pytest.raises(DomainError):
            ch.ModulationConfig(n_s=-0.1)
        # the constellation size lives in region.RegionNumerics only
        assert not hasattr(ch.ModulationConfig(n_s=0.1), "psk_order")

    def test_receiver_table(self):
        p = ch.MacParams(tau=0.5, kappa=0.25, n_b=2.0)
        assert p.receiver("bob") == (0.25, p.n_t)
        assert p.receiver("willie") == (0.75, 0.25 * 2.0)

    @pytest.mark.parametrize("name", ["eve", "Bob", ""])
    def test_receiver_rejects_unknown_name(self, name):
        with pytest.raises(DomainError):
            ch.MacParams(tau=0.5, kappa=0.5, n_b=1.0).receiver(name)

    def test_effective_channel_domains(self):
        with pytest.raises(DomainError):
            ch.EffectiveChannel(kappa_eff=1.2, n_t_eff=0.1, n_s=0.1)
        with pytest.raises(DomainError):
            ch.EffectiveChannel(kappa_eff=0.5, n_t_eff=-0.1, n_s=0.1)


class TestTmsvCov:
    def test_vacuum_pair(self):
        np.testing.assert_allclose(ch.tmsv_cov(0.0), np.eye(4))

    def test_closed_form(self):
        cov = ch.tmsv_cov(1.0)
        assert cov[0, 0] == 3.0
        assert cov[0, 2] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)

    def test_pure_for_any_photon_number(self):
        for n_s in (0.05, 0.7, 4.2):
            np.testing.assert_allclose(g.symplectic_eigenvalues(ch.tmsv_cov(n_s)), [1.0, 1.0], atol=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            ch.tmsv_cov(-0.2)


class TestRotationBlock:
    def test_values(self):
        np.testing.assert_allclose(ch.rotation_block(0.0), np.diag([1.0, -1.0]))
        np.testing.assert_allclose(ch.rotation_block(math.pi / 2), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(ch.rotation_block(math.pi), np.diag([-1.0, 1.0]), atol=1e-15)

    def test_symmetric_orthogonal_det(self):
        r = ch.rotation_block(0.37)
        np.testing.assert_allclose(r, r.T)
        np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(-1.0, abs=1e-15)


class TestJointCovs:
    def setup_method(self):
        self.p = ch.MacParams(tau=0.5, kappa=0.5, n_b=1.0)

    def test_no_signal_diagonal(self):
        m0 = ch.ModulationConfig(n_s=0.0)
        expected = np.diag([2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(ch.bob_joint_cov(self.p, m0), expected)
        np.testing.assert_allclose(ch.willie_joint_cov(self.p, m0), np.diag([2.0, 2.0, 1.0, 1.0, 1.0, 1.0]))

    def test_b_variance_worked_point(self):
        cov = ch.bob_joint_cov(self.p, ch.ModulationConfig(n_s=1.0))
        assert cov[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_composition_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = ch.MacParams(tau=rng.uniform(), kappa=rng.uniform(0.1, 0.9), n_b=rng.uniform(0.2, 3.0))
            n_s = rng.uniform(0.0, 2.0)
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            bob, willie = compose_joint_covs(p, n_s, theta, phi)
            m = ch.ModulationConfig(n_s=n_s)
            np.testing.assert_allclose(bob, ch.bob_joint_cov(p, m, theta, phi), atol=1e-12)
            np.testing.assert_allclose(willie, ch.willie_joint_cov(p, m, theta, phi), atol=1e-12)

    def test_willie_full_transmission_limit(self):
        p = ch.MacParams(tau=0.5, kappa=1.0 - 1e-12, n_b=1.0)
        cov = ch.willie_joint_cov(p, ch.ModulationConfig(n_s=0.8))
        np.testing.assert_allclose(cov[0:2, 0:2], 3.0 * np.eye(2), atol=1e-5)
        assert abs(cov[0, 2]) < 1e-5

    def test_willie_is_kappa_swap_of_bob(self):
        p = ch.MacParams(tau=0.3, kappa=0.7, n_b=1.5)
        swapped = ch.MacParams(tau=0.3, kappa=0.3, n_b=1.5)
        m = ch.ModulationConfig(n_s=0.4)
        bob_swapped = ch.bob_joint_cov(swapped, m, 0.2, 0.9)
        willie = ch.willie_joint_cov(p, m, 0.2, 0.9)
        flip = np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(willie, flip @ bob_swapped @ flip, atol=1e-12)


class TestConditionedCov:
    def test_no_interferer_matches_unconditioned(self):
        p = ch.MacParams(tau=1.0, kappa=0.5, n_b=1.0)
        m = ch.ModulationConfig(n_s=0.8)
        np.testing.assert_allclose(
            ch.conditioned_cov(p, m, "x", 0.4), ch.unconditioned_cov(p, m, "x", 0.4), atol=1e-14
        )

    def test_no_signal_diagonal(self):
        p = ch.MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        np.testing.assert_allclose(
            ch.conditioned_cov(p, ch.ModulationConfig(n_s=0.0), "x"), np.diag([2.0, 2.0, 1.0, 1.0])
        )

    def test_subtraction_term(self):
        p = ch.MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        m = ch.ModulationConfig(n_s=1.0)
        unconditioned = ch.unconditioned_cov(p, m, "x")
        conditioned = ch.conditioned_cov(p, m, "x")
        assert unconditioned[0, 0] - conditioned[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_matches_schur_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = ch.MacParams(tau=rng.uniform(), kappa=rng.uniform(0.05, 0.95), n_b=rng.uniform(0.1, 5.0))
            m = ch.ModulationConfig(n_s=rng.uniform(0.0, 3.0))
            theta = rng.uniform(0, 2 * np.pi)
            for sender in ("x", "y"):
                np.testing.assert_allclose(
                    ch.conditioned_cov(p, m, sender, theta),
                    ch.conditioned_cov_oracle(p, m, sender, theta),
                    atol=1e-12,
                )


class TestEffectiveParams:
    def test_single_user_reduction(self):
        p = ch.MacParams(tau=1.0, kappa=0.6, n_b=1.0)
        eff = ch.effective_params(p, ch.ModulationConfig(n_s=0.3), "x", conditioned=False)
        assert eff.kappa_eff == pytest.approx(0.6)
        assert eff.n_t_eff == pytest.approx(p.n_t)

    def test_worked_values(self):
        p = ch.MacParams(tau=0.5, kappa=0.5, n_b=1.0)
        m = ch.ModulationConfig(n_s=0.1)
        unc = ch.effective_params(p, m, "x", conditioned=False)
        assert (unc.kappa_eff, unc.n_t_eff) == (pytest.approx(0.25), pytest.approx(0.525))
        cond = ch.effective_params(p, m, "x", conditioned=True)
        assert (cond.kappa_eff, cond.n_t_eff) == (pytest.approx(0.25), pytest.approx(0.5))

    def test_round_trip_rebuild(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = ch.MacParams(tau=rng.uniform(), kappa=rng.uniform(0.05, 0.95), n_b=rng.uniform(0.1, 5.0))
            m = ch.ModulationConfig(n_s=rng.uniform(0.0, 3.0))
            theta = rng.uniform(0, 2 * np.pi)
            for sender in ("x", "y"):
                unc = ch.effective_params(p, m, sender, conditioned=False)
                np.testing.assert_allclose(
                    ch.effective_cov(unc, theta), ch.unconditioned_cov(p, m, sender, theta), atol=1e-12
                )
                cond = ch.effective_params(p, m, sender, conditioned=True)
                np.testing.assert_allclose(
                    ch.effective_cov(cond, theta), ch.conditioned_cov(p, m, sender, theta), atol=1e-12
                )

    def test_conditioning_never_adds_noise(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = ch.MacParams(tau=rng.uniform(), kappa=rng.uniform(0.05, 0.95), n_b=rng.uniform(0.1, 5.0))
            m = ch.ModulationConfig(n_s=rng.uniform(0.0, 3.0))
            for sender in ("x", "y"):
                cond = ch.effective_params(p, m, sender, conditioned=True)
                unc = ch.effective_params(p, m, sender, conditioned=False)
                assert cond.n_t_eff <= unc.n_t_eff + 1e-15

    def test_outputs_physical_over_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            p = ch.MacParams(
                tau=rng.uniform(0.01, 0.99), kappa=rng.uniform(0.05, 0.95), n_b=rng.uniform(0.01, 10.0)
            )
            m = ch.ModulationConfig(n_s=rng.uniform(0.0, 5.0))
            for cov in (ch.bob_joint_cov(p, m, 0.3, 1.1), ch.willie_joint_cov(p, m, 0.3, 1.1)):
                assert np.min(g.symplectic_eigenvalues(cov)) >= 1.0 - 1e-9

    def test_energy_bookkeeping_no_signal(self):
        p = ch.MacParams(tau=0.4, kappa=0.3, n_b=2.0)
        m = ch.ModulationConfig(n_s=0.0)
        np.testing.assert_allclose(
            ch.bob_joint_cov(p, m), np.diag([2 * p.n_t + 1] * 2 + [1.0] * 4), atol=1e-14
        )
        np.testing.assert_allclose(
            ch.willie_joint_cov(p, m), np.diag([2 * p.kappa * p.n_b + 1] * 2 + [1.0] * 4), atol=1e-14
        )
