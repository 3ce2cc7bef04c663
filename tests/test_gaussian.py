"""Covariance-matrix algebra: spectra, entropies, channels, conditioning."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from eamac import gaussian as g
from eamac.channel import MacParams, ModulationConfig, bob_joint_cov, tmsv_cov
from eamac.errors import ChannelValidityError, DomainError, PhysicalityError, ShapeError


class TestGEntropy:
    def test_limit_at_zero(self):
        assert g.g_entropy(0.0) == 0.0

    def test_closed_forms(self):
        assert g.g_entropy(1.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
        assert g.g_entropy(0.5) == pytest.approx(1.5 * math.log(3.0) - math.log(2.0), abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            g.g_entropy(-0.1)

    @pytest.mark.parametrize("x", [math.nan, -math.inf, [0.5, math.nan], np.array([[0.1, math.nan]])])
    def test_nan_rejected(self, x):
        # (x < 0).any() once let NaN through
        with pytest.raises(DomainError, match="g_entropy requires x >= 0, got"):
            g.g_entropy(x)

    @pytest.mark.parametrize("x", [math.inf, [0.5, math.inf], np.array([[0.1, math.inf]])])
    def test_non_finite_g_rejected(self, x):
        # inf - inf once returned NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="g_entropy is not finite at x = "):
                g.g_entropy(x)

    @staticmethod
    def g_ref(x: float):
        """g at 40 digits, in the form without cancellation."""
        with mpmath.workdps(40):
            big = mpmath.mpf(x)
            return mpmath.log1p(big) + big * mpmath.log1p(1 / big)

    @pytest.mark.parametrize("x", [1e306, np.array([[0.1, 1e306]])])
    def test_huge_x_is_finite(self, x):
        # (x + 1) ln(x + 1) once overflowed here and raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = np.max(g.g_entropy(x))
        assert abs(value - self.g_ref(1e306)) <= 4e-16 * value

    def test_matches_mpmath_from_subnormal_to_1e300(self):
        # measured: at most 2.3e-16 relative on these points (2.5e-16 on 4000
        # log-spaced ones); below about 3e-311 g itself is subnormal, and the
        # bound there is one subnormal step
        xs = np.geomspace(5e-324, 1e300, 1000).tolist() + [1.0, math.nextafter(1.0, 2.0), 1e12, 1e16]
        for x, value in zip(xs, g.g_entropy(np.array(xs)).tolist()):
            ref = self.g_ref(x)
            assert abs(value - ref) <= max(4e-16 * ref, 5e-324)

    def test_increasing_and_concave(self):
        # finite differences on a grid
        xs = np.linspace(0.0, 5.0, 201)
        vals = g.g_entropy(xs)
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(diffs) < 0.0)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        np.testing.assert_allclose(g.symplectic_eigenvalues(np.eye(2)), [1.0])

    def test_thermal(self):
        np.testing.assert_allclose(g.symplectic_eigenvalues(3.0 * np.eye(2)), [3.0])

    def test_tmsv_pure(self):
        np.testing.assert_allclose(g.symplectic_eigenvalues(tmsv_cov(1.0)), [1.0, 1.0], atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            g.symplectic_eigenvalues(np.eye(3))
        with pytest.raises(ShapeError):
            g.symplectic_eigenvalues(np.ones((2, 4)))
        skew = np.eye(2) + np.array([[0.0, 1e-6], [-1e-6, 0.0]])
        with pytest.raises(ShapeError):
            g.symplectic_eigenvalues(skew)

    def test_symplectic_invariance(self):
        rng = np.random.default_rng(7)
        base = np.diag([1.7, 1.7, 3.1, 3.1])
        for _ in range(20):
            bs = g.beamsplitter_symplectic(rng.uniform(0.0, 1.0))
            rot = np.block(
                [
                    [g.mode_rotation_symplectic(rng.uniform(0, 2 * np.pi)), np.zeros((2, 2))],
                    [np.zeros((2, 2)), g.mode_rotation_symplectic(rng.uniform(0, 2 * np.pi))],
                ]
            )
            s_mat = bs @ rot
            transformed = s_mat @ base @ s_mat.T
            np.testing.assert_allclose(
                g.symplectic_eigenvalues(transformed),
                g.symplectic_eigenvalues(base),
                atol=1e-9,
            )


class TestEntropyFromCov:
    def test_vacuum_zero(self):
        assert g.entropy_from_cov(np.eye(2)) == 0.0

    def test_thermal(self):
        assert g.entropy_from_cov(g.thermal_cov(1.0)) == pytest.approx(g.g_entropy(1.0), abs=1e-12)

    def test_tmsv_pure(self):
        assert g.entropy_from_cov(tmsv_cov(0.7)) == pytest.approx(0.0, abs=1e-9)

    def test_unphysical_rejected(self):
        with pytest.raises(PhysicalityError):
            g.entropy_from_cov(0.5 * np.eye(2))

    def test_random_physical_states_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            nus = 1.0 + rng.uniform(0.0, 3.0, size=2)
            base = np.diag(np.repeat(nus, 2))
            bs = g.beamsplitter_symplectic(rng.uniform(0, 1))
            cov = bs @ base @ bs.T
            assert np.min(g.symplectic_eigenvalues(cov)) >= 1.0 - 1e-9
            assert g.entropy_from_cov(cov) >= -1e-9


class TestBeamsplitter:
    def test_identity(self):
        np.testing.assert_allclose(g.beamsplitter_symplectic(1.0), np.eye(4))

    def test_swap_with_sign(self):
        expected = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
        )
        np.testing.assert_allclose(g.beamsplitter_symplectic(0.0), expected)

    def test_balanced(self):
        s = g.beamsplitter_symplectic(0.5)
        np.testing.assert_allclose(np.abs(s), np.full((4, 4), 1.0 / math.sqrt(2.0)) * np.kron(np.ones((2, 2)), np.eye(2)))

    def test_symplectic_identity(self):
        omega = g.symplectic_form(2)
        for t in (0.0, 0.3, 0.5, 0.9, 1.0):
            s = g.beamsplitter_symplectic(t)
            np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            g.beamsplitter_symplectic(1.2)
        with pytest.raises(DomainError):
            g.beamsplitter_symplectic(-0.1)


class TestApplyGaussianChannel:
    def test_identity(self):
        state = g.GaussianState(np.array([0.2, -0.1]), 1.5 * np.eye(2))
        out = g.apply_gaussian_channel(state, np.eye(2), np.zeros((2, 2)))
        np.testing.assert_allclose(out.cov, state.cov)
        np.testing.assert_allclose(out.mean, state.mean)

    def test_pure_loss_on_vacuum(self):
        vac = g.vacuum_state(1)
        kappa = 0.4
        out = g.apply_gaussian_channel(vac, math.sqrt(kappa) * np.eye(2), (1.0 - kappa) * np.eye(2))
        np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-15)

    def test_thermal_loss_moments(self):
        nbar, kappa, n_b = 0.8, 0.35, 1.2
        state = g.GaussianState(np.zeros(2), g.thermal_cov(nbar))
        out = g.apply_gaussian_channel(
            state, math.sqrt(kappa) * np.eye(2), (1.0 - kappa) * (2.0 * n_b + 1.0) * np.eye(2)
        )
        np.testing.assert_allclose(out.cov, g.thermal_cov(kappa * nbar + (1.0 - kappa) * n_b), atol=1e-14)

    def test_composition_law(self):
        rng = np.random.default_rng(3)
        state = g.GaussianState(rng.normal(size=4), tmsv_cov(0.6))
        k1, k2 = 0.7, 0.5
        x1 = math.sqrt(k1) * np.eye(4)
        y1 = (1.0 - k1) * 3.0 * np.eye(4)
        x2 = math.sqrt(k2) * np.eye(4)
        y2 = (1.0 - k2) * 1.4 * np.eye(4)
        stepwise = g.apply_gaussian_channel(g.apply_gaussian_channel(state, x1, y1), x2, y2)
        fused = g.apply_gaussian_channel(state, x2 @ x1, x2 @ y1 @ x2.T + y2)
        np.testing.assert_allclose(stepwise.cov, fused.cov, atol=1e-12)
        np.testing.assert_allclose(stepwise.mean, fused.mean, atol=1e-12)

    def test_cp_violation_rejected(self):
        state = g.vacuum_state(1)
        # pure attenuation without the compensating noise is not a channel
        with pytest.raises(ChannelValidityError):
            g.apply_gaussian_channel(state, math.sqrt(0.5) * np.eye(2), np.zeros((2, 2)))


class TestHeterodyneConditioning:
    def _joint(self, n_s=1.0, kappa=0.5, tau=0.5, n_b=1.0, theta=0.0, phi=0.0):
        p = MacParams(tau=tau, kappa=kappa, n_b=n_b)
        cov = bob_joint_cov(p, ModulationConfig(n_s=n_s), theta, phi)
        return g.GaussianState(np.zeros(6), cov)

    def test_uncorrelated_mode_untouched(self):
        cov = np.diag([3.0, 3.0, 2.0, 2.0])
        state = g.GaussianState(np.zeros(4), cov)
        out = g.schur_condition_heterodyne(state, [1], np.array([1.3, -0.4]))
        np.testing.assert_allclose(out.cov, 3.0 * np.eye(2))
        np.testing.assert_allclose(out.mean, np.zeros(2))

    def test_conditional_mean_coefficient(self):
        # measure I_Y of the joint three-mode state at the worked point
        state = self._joint()
        k_coeff = 2.0 * math.sqrt(0.5 * 0.5 * 1.0 * 2.0) / 4.0
        assert k_coeff == pytest.approx(0.3535534, abs=1e-7)
        out = g.schur_condition_heterodyne(state, [2], np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.mean[:2], [k_coeff, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.mean[2:], [0.0, 0.0], atol=1e-12)
        out2 = g.schur_condition_heterodyne(state, [2], np.array([0.0, 1.0]))
        np.testing.assert_allclose(out2.mean[:2], [0.0, -k_coeff], atol=1e-12)

    def test_b_block_variance(self):
        out = g.schur_condition_heterodyne(self._joint(), [2], np.zeros(2))
        assert out.cov[0, 0] == pytest.approx(2.0 * 1.0 * 0.5 * 0.5 + 2.0 * 0.5 + 1.0, abs=1e-12)

    def test_outcome_independence(self):
        state = self._joint(theta=0.3, phi=1.2)
        rng = np.random.default_rng(5)
        reference = g.schur_condition_heterodyne(state, [2], np.zeros(2)).cov
        for _ in range(100):
            out = g.schur_condition_heterodyne(state, [2], rng.normal(size=2, scale=3.0))
            assert np.array_equal(out.cov, reference)

    def test_requires_kept_mode(self):
        state = self._joint()
        with pytest.raises(ShapeError):
            g.schur_condition_heterodyne(state, [0, 1, 2], np.zeros(6))
        with pytest.raises(ShapeError):
            g.schur_condition_heterodyne(state, [], np.zeros(0))
