"""Truncated Fock-space oracle: states, channels, entropies, ensembles."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamac import channel as ch
from eamac import fock as fk
from eamac import gaussian as g
from eamac import region as rg
from eamac.errors import DomainError, EamacError, PhysicalityError, TruncationError


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
        assert err.value.required_cutoff == rg.required_cutoff(1.0, 1e-8)
        assert fk.tmsv_fock(1.0, err.value.required_cutoff).tail() <= 1e-8

    def test_reduced_mode_entropy_matches_gaussian(self):
        # independent route: diagonalize the traced-out density matrix
        reduced = fk.tmsv_fock(0.5, 40).to_density().partial_trace([0])
        assert fk.entropy_fock(reduced) == pytest.approx(g.g_entropy(0.5), abs=1e-9)


class TestVectorPartialTrace:
    """FockVector.partial_trace against the dense route through to_density."""

    @staticmethod
    def assert_matches_dense(psi, keep):
        fast = psi.partial_trace(keep)
        dense = psi.to_density().partial_trace(keep)
        assert (fast.cutoff, fast.modes) == (dense.cutoff, dense.modes)
        assert np.max(np.abs(fast.matrix - dense.matrix)) <= 1e-15

    @pytest.mark.parametrize("keep", [[0], [1]])
    @pytest.mark.parametrize("cutoff", [10, 40])
    def test_tmsv(self, cutoff, keep):
        for n_s in (0.1, 0.5):
            self.assert_matches_dense(fk.tmsv_fock(n_s, cutoff, tail_tol=1e-3), keep)

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_random_three_mode_state(self, size):
        rng = np.random.default_rng(77)
        amps = rng.normal(size=(5, 5, 5)) + 1j * rng.normal(size=(5, 5, 5))
        psi = fk.FockVector(5, 3, amps / np.linalg.norm(amps))
        for keep in itertools.combinations(range(3), size):
            self.assert_matches_dense(psi, list(keep))


class TestPhaseRotate:
    def test_identity_angles(self):
        v = fk.FockVector(4, 1, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        for theta in (0.0, 2 * math.pi):
            out = fk.phase_rotate_fock(v, theta)
            np.testing.assert_allclose(out.amplitudes, v.amplitudes, atol=1e-12)

    def test_pi_flips_single_photon(self):
        v = fk.FockVector(3, 1, np.array([0.0, 1.0, 0.0], dtype=complex))
        out = fk.phase_rotate_fock(v, math.pi)
        np.testing.assert_allclose(out.amplitudes[1], -1.0, atol=1e-12)

    def test_density_rotation_matches_vector_rotation(self):
        v = fk.tmsv_fock(0.3, 8, tail_tol=1e-3)
        via_vector = fk.phase_rotate_fock(v, 0.7, mode=0).to_density()
        via_density = fk.phase_rotate_fock(v.to_density(), 0.7, mode=0)
        np.testing.assert_allclose(via_vector.matrix, via_density.matrix, atol=1e-14)


class TestBeamsplitterFock:
    """The one whole-sector beamsplitter behind the tau combiner and thermal loss."""

    @staticmethod
    def dense_amplitudes(t, d_in, d_env, d_out):
        """b[x, e_out, n, e] = <x, e_out|U|n, e>, the per-sector a[e, x, n] placed at e_out = n + e - x."""
        b = np.zeros((d_out, d_in + d_env - 1, d_in, d_env))
        e, x, n = np.indices((d_env, d_out, d_in))
        live = n + e >= x
        b[x[live], (n + e - x)[live], n[live], e[live]] = fk._beamsplitter_amplitudes(t, d_in, d_env, d_out)[live]
        return b

    def test_orthogonal_on_truncated_space(self):
        # e_out and x of size d_in + d_env - 1 hold every photon: U restricted to the input is an isometry
        for t in (0.0, 0.37, 0.64, 1.0):
            b = self.dense_amplitudes(t, 6, 5, 10).reshape(10 * 10, 6 * 5)
            assert np.abs(b.T @ b - np.eye(30)).max() <= 1e-12

    def test_heisenberg_convention_single_photon(self):
        # |1,0> -> cos(xi)|1,0> - sin(xi)|0,1>, indexed a[e, x, n] with e_out = n + e - x
        t = 0.64
        a = fk._beamsplitter_amplitudes(t, 2, 2, 2)
        assert a[0, 1, 1] == pytest.approx(math.sqrt(t))
        assert a[0, 0, 1] == pytest.approx(-math.sqrt(1.0 - t))

    def test_zero_transmissivity_swaps_the_modes(self):
        # |n, e> -> (-1)^n |e, n>, with no special case for t = 0
        d_in, d_env = 7, 5
        e, x, n = np.ogrid[:d_env, :d_env, :d_in]
        swap = np.where(x == e, (-1.0) ** n, 0.0)
        assert np.abs(fk._beamsplitter_amplitudes(0.0, d_in, d_env, d_env) - swap).max() <= 1e-14

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hopping_blocks_match_the_matrix_exponential(self):
        # the eigenbasis route against scipy's expm of the same whole-sector generator
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(11)
        for xi in [0.0, math.pi / 2, *rng.uniform(0.0, math.pi / 2, 200)]:
            total = int(rng.integers(0, 50))
            k = np.arange(total)
            val = np.sqrt((k + 1) * (total - k))
            generator = np.diag(val, -1) - np.diag(val, 1)
            assert np.abs(fk._hopping_block(xi, total) - expm(xi * generator)).max() <= 1e-12

    @staticmethod
    def weighted_per_sector_superop(kappa, n_env, d_in, d_out, d_env):
        """The thermal-loss superoperator as the Gram of the dense 4-index amplitudes b[x, e_out, n, e]."""
        xi = math.acos(min(1.0, math.sqrt(kappa)))
        p_env = rg.photon_distribution_thermal(n_env, d_env)
        weight = np.sqrt(p_env / p_env.sum())
        b = np.zeros((d_out, d_in + d_env - 1, d_in, d_env))
        for total in range(d_in + d_env - 1):
            x = np.arange(min(total + 1, d_out))[:, None]
            n = np.arange(max(0, total - d_env + 1), min(total + 1, d_in))
            b[x, total - x, n, total - n] = fk._hopping_block(xi, total)[x, n] * weight[total - n]
        b = b.transpose(0, 2, 1, 3).reshape(d_out * d_in, -1)
        k4 = (b @ b.T).reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3)
        return k4.reshape(d_out * d_out, d_in * d_in)

    def test_thermal_loss_superop_is_bitwise_the_per_sector_construction(self):
        # the same nonzero products as the dense 4-index Gram; without its zero columns BLAS groups
        # the sums differently, so the two agree to rounding (measured 2.8e-16), not bit for bit
        rng = np.random.default_rng(12)
        grid = [(0.0, 0.7), (1.0, 0.4), (0.3, 0.0), (0.0, 0.0), (1.0, 0.0)]
        grid += [(float(rng.uniform()), float(rng.uniform(0.0, 2.0))) for _ in range(10)]
        for kappa, n_env in grid:
            d_in, d_out, d_env = 12, int(rng.integers(8, 16)), rg.required_cutoff(n_env, 1e-8)
            superop = fk._thermal_loss_superop(kappa, n_env, d_in, d_out, d_env)
            dense = self.weighted_per_sector_superop(kappa, n_env, d_in, d_out, d_env)
            assert np.abs(superop - dense).max() <= 1e-15

    @settings(max_examples=40, derandomize=True, database=None, deadline=500)
    @given(
        kappa=st.floats(0.0, 1.0),
        n_env=st.floats(0.0, 2.0),
        d_in=st.integers(2, 12),
        d_out=st.integers(2, 12),
    )
    def test_per_sector_superop_matches_the_dense_gram(self, kappa, n_env, d_in, d_out):
        d_env = rg.required_cutoff(n_env, 1e-8)
        superop = fk._thermal_loss_superop(kappa, n_env, d_in, d_out, d_env)
        dense = self.weighted_per_sector_superop(kappa, n_env, d_in, d_out, d_env)
        assert np.abs(superop - dense).max() <= 1e-15


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

    @pytest.mark.parametrize("modes, mode", [(1, 0), (2, 0), (2, 1), (3, 2)])
    def test_vector_input_is_bitwise_its_density(self, modes, mode):
        # a vector enters as its density
        rng = np.random.default_rng(modes + mode)
        amps = rng.normal(size=(5,) * modes) + 1j * rng.normal(size=(5,) * modes)
        psi = fk.FockVector(5, modes, amps / np.linalg.norm(amps))
        via_vector = fk.thermal_loss_fock(psi, 0.6, 0.3, mode=mode, tail_tol=1e-6)
        via_density = fk.thermal_loss_fock(psi.to_density(), 0.6, 0.3, mode=mode, tail_tol=1e-6)
        np.testing.assert_array_equal(via_vector.matrix, via_density.matrix)


class TestHermitianCheck:
    """FockDensity's slab-by-slab check of rho = rho^dag."""

    @staticmethod
    def density():
        # 576 x 576: several slabs of rows
        return fk.tmsv_fock(0.3, 24).to_density().matrix.astype(complex)

    @pytest.mark.parametrize("row, col", [(0, 1), (575, 3), (3, 575), (300, 301)])
    def test_asymmetry_in_any_slab_fails(self, row, col):
        mat = self.density()
        mat[row, col] += 1e-9
        with pytest.raises(PhysicalityError, match="not Hermitian"):
            fk.FockDensity(24, 2, mat)

    @pytest.mark.parametrize("row, col", [(0, 0), (575, 575), (10, 400)])
    def test_nan_fails(self, row, col):
        mat = self.density()
        mat[row, col] = mat[col, row] = np.nan
        with pytest.raises(PhysicalityError, match="not Hermitian"):
            fk.FockDensity(24, 2, mat)


class TestThermalLaw:
    def test_array_means_give_each_scalar_law_bit_for_bit(self):
        means = np.array([[0.0, 0.3], [1.2, 5.0]])
        laws = rg.photon_distribution_thermal(means, 40)
        assert laws.shape == (2, 2, 40)
        for idx in np.ndindex(2, 2):
            assert np.array_equal(laws[idx], rg.photon_distribution_thermal(float(means[idx]), 40))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_mean_is_exactly_the_vacuum(self):
        vacuum = np.zeros(40)
        vacuum[0] = 1.0
        assert np.array_equal(rg.photon_distribution_thermal(0.0, 40), vacuum)
        assert np.array_equal(rg.photon_distribution_thermal([0.3, 0.0], 40)[1], vacuum)

    @pytest.mark.parametrize("n_mean", [-0.1, [0.2, -1e-9]])
    def test_negative_mean_rejected(self, n_mean):
        with pytest.raises(DomainError, match="mean photon number"):
            rg.photon_distribution_thermal(n_mean, 8)

    def test_nan_mean_rejected(self):
        # a NaN mean once passed the sign check and gave the vacuum law
        with pytest.raises(DomainError, match="mean photon number must be >= 0, got nan"):
            rg.photon_distribution_thermal(math.nan, 8)

    @pytest.mark.parametrize("cutoff", [2.5, -1, 0, True, "8", (1 << 20) + 1])
    def test_cutoff_is_a_count_up_to_the_law_table_cap(self, cutoff):
        # 2.5 once gave three levels and -1 an empty law
        message = re.escape(f"cutoff must be an integer in [1, 1048576], got {cutoff}")
        with pytest.raises(DomainError, match=message):
            rg.photon_distribution_thermal(0.5, cutoff)
        with pytest.raises(DomainError, match="cutoff must be an integer"):
            fk.thermal_fock(0.5, cutoff)


class TestNonFiniteInputs:
    """NaN and inf end in a DomainError naming the argument, not a wrong law or a bare ValueError."""

    @pytest.mark.parametrize("n_mean", [math.inf, math.nan, [0.2, math.inf], [math.nan, 0.1]])
    def test_photon_distribution_thermal(self, n_mean):
        with pytest.raises(DomainError, match="mean photon number must be"):
            rg.photon_distribution_thermal(n_mean, 8)

    @pytest.mark.parametrize("n_mean", [math.inf, math.nan])
    def test_thermal_fock(self, n_mean):
        # an infinite mean once gave the vacuum law, so thermal_fock(inf, 4) was the vacuum
        with pytest.raises(DomainError, match="mean photon number must be"):
            fk.thermal_fock(n_mean, 4)

    @pytest.mark.parametrize("n_mean", [math.inf, math.nan])
    def test_required_cutoff(self, n_mean):
        with pytest.raises(DomainError, match=f"mean photon number must be finite, got {n_mean}"):
            rg.required_cutoff(n_mean, 1e-8)

    def test_required_cutoff_of_huge_means(self):
        # n / (n + 1) rounds to 1 above 2^53, and ln 1 = 0 once divided by zero
        assert rg.required_cutoff(1e17, 1e-8) == pytest.approx(-math.log(1e-8) * 1e17, rel=1e-15)
        assert rg.required_cutoff(5e-324, 1e-8) == 1
        with pytest.raises(DomainError, match="mean photon number 1e[+]308 is too large for any cutoff"):
            rg.required_cutoff(1e308, 1e-8)

    @pytest.mark.parametrize("n_s", [math.inf, math.nan, -math.inf])
    def test_tmsv_fock(self, n_s):
        bound = "finite" if n_s == math.inf else ">= 0"
        with pytest.raises(DomainError, match=f"n_s must be {bound}, got {n_s}"):
            fk.tmsv_fock(n_s, 8)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda tol: rg.required_cutoff(1.0, tol),
            lambda tol: rg.required_cutoff(0.0, tol),
            lambda tol: fk.tmsv_fock(0.5, 20, tail_tol=tol),
            lambda tol: fk.thermal_loss_fock(fk.thermal_fock(0.5, 10), 0.5, 1.0, tail_tol=tol),
            lambda tol: fk.psk_ensemble_mi(ch.EffectiveChannel(0.3, 0.2, 0.1), 4, 8, tail_tol=tol),
        ],
        ids=["required_cutoff", "required_cutoff_vacuum", "tmsv_fock", "thermal_loss_fock", "psk_ensemble_mi"],
    )
    @pytest.mark.parametrize("tail_tol", [0.0, -1e-8, 1.0, 2.0, math.nan])
    def test_tail_tol_outside_unit_interval(self, entry, tail_tol):
        # once a bare math domain error, or a silent cutoff of 1 for tol >= 1
        with pytest.raises(DomainError, match=rf"tail_tol must lie in \(0, 1\), got {tail_tol}"):
            entry(tail_tol)


class TestIntegerArguments:
    """A non-integer psk_order or cutoff raises a DomainError naming it, the rule of RegionNumerics."""

    EFF = ch.EffectiveChannel(0.3, 0.2, 0.1)

    @pytest.mark.parametrize("psk_order", [2.5, math.nan])
    def test_psk_ensemble_mi_psk_order(self, psk_order):
        # 2.5 once ran as int(2.5) and NaN ended in a bare ValueError
        with pytest.raises(DomainError, match=f"psk_order must be an integer >= 1, got {psk_order}"):
            fk.psk_ensemble_mi(self.EFF, psk_order, 12)

    @pytest.mark.parametrize("psk_order", [2.5, math.nan])
    def test_phase_average_fock_psk_order(self, psk_order):
        rho = fk.thermal_fock(0.3, 8)
        with pytest.raises(DomainError, match=f"psk_order must be an integer >= 1, got {psk_order}"):
            fk.phase_average_fock(rho, psk_order)

    def test_psk_ensemble_mi_cutoff(self):
        # once a bare TypeError from the TMSV build
        with pytest.raises(DomainError, match="cutoff must be an integer >= 1, got 12.5"):
            fk.psk_ensemble_mi(self.EFF, 4, 12.5)

    def test_conditional_output_density_cutoff(self):
        with pytest.raises(DomainError, match="cutoff must be an integer >= 1, got 12.5"):
            fk.conditional_output_density(self.EFF, 12.5)

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda: fk.thermal_fock(0.1, 0), 0),  # once a ZeroDivisionError from the Hermitian check
            (lambda: fk.tmsv_fock(0.1, 2.5, tail_tol=0.5), 2.5),  # once a TypeError from reshape
            (lambda: fk.thermal_fock(0.1, math.nan), math.nan),
            (lambda: fk.FockDensity(0, 1, np.zeros((0, 0))), 0),
            (lambda: fk.FockVector(3.0, 1, np.ones(3)), 3.0),
            (lambda: fk.tmsv_fock(0.0, True), True),  # once a TypeError from reshape
        ],
    )
    def test_state_cutoff(self, build, value):
        with pytest.raises(DomainError, match=f"cutoff must be an integer >= 1, got {value}"):
            build()

    @pytest.mark.parametrize("modes", [-1, 1.5])
    def test_state_modes(self, modes):
        # a scalar once reshaped to a state of -1 modes
        with pytest.raises(DomainError, match=f"modes must be an integer >= 0, got {modes}"):
            fk.FockVector(3, modes, np.ones(1))

    @pytest.mark.parametrize("d_env", [2.5, True, "8", 0])
    def test_environment_cutoff(self, d_env):
        # "8" once ended in a bare TypeError, and 2.5 and True ran as levels
        with pytest.raises(DomainError, match=f"d_env must be an integer >= 1, got {d_env}"):
            fk.psk_ensemble_mi(self.EFF, 4, 16, d_env=d_env, tail_tol=1e-5)
        with pytest.raises(DomainError, match=f"d_env must be an integer >= 1, got {d_env}"):
            fk.thermal_loss_fock(fk.thermal_fock(0.1, 8), 0.5, 0.1, d_env=d_env, tail_tol=1e-5)

    def test_environment_beyond_the_oracle_is_a_truncation_error(self):
        # kappa_eff near 1 with noise: the environment mean is 1e8, and its
        # cutoff of 1.8e9 levels was once allocated and exponentiated
        eff = ch.EffectiveChannel(1.0 - 1e-9, 0.1, 0.1)
        need = rg.required_cutoff(eff.n_t_eff / (1.0 - eff.kappa_eff), 1e-8)
        with pytest.raises(TruncationError, match=f"needs {need} levels") as err:
            fk.psk_ensemble_mi(eff, 4, 12)
        assert err.value.required_cutoff == need


class TestDenseStateCap:
    """A dense state whose basis has more than MAX_DENSE_ROWS = 4096 rows is refused before it is built."""

    @staticmethod
    def refusal(cap, cutoff):
        return re.escape(f"cutoff must be an integer in [1, {cap}], got {cutoff}")

    @pytest.mark.parametrize(
        "build, cap",
        [(lambda: fk.thermal_fock(0.5, 100000), 4096), (lambda: fk.tmsv_fock(0.0, 100000), 64)],
        ids=["thermal_fock", "tmsv_fock"],
    )
    def test_refused_before_any_allocation(self, build, cap, monkeypatch):
        # each once ended in a bare MemoryError from a 100000 x 100000 matrix
        monkeypatch.setattr(rg, "photon_distribution_thermal", lambda *args: pytest.fail("the state's law was built"))
        with pytest.raises(DomainError, match=self.refusal(cap, 100000)):
            build()

    def test_tmsv_cap_is_64_levels(self):
        assert fk.tmsv_fock(0.0, 64).amplitudes.shape == (64, 64)
        with pytest.raises(DomainError, match=self.refusal(64, 65)):
            fk.tmsv_fock(0.0, 65)

    def test_mac_joint_state_refused_before_the_beamsplitter(self, monkeypatch):
        monkeypatch.setattr(fk, "_beamsplitter_amplitudes", lambda *args: pytest.fail("the beamsplitter was built"))
        with pytest.raises(DomainError, match=self.refusal(16, 17)):
            fk.mac_joint_fock(ch.MacParams(tau=0.5, kappa=0.5, n_b=1.0), 0.1, 17)


VALID_MEANS = st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 5.0, 1e6, 1e300]))
EXTREME_MEANS = st.one_of(VALID_MEANS, st.sampled_from([math.inf, -math.inf, math.nan, -1e-9]))
EXTREME_CUTOFFS = st.one_of(st.integers(1, 48), st.sampled_from([0, -2, 2.5, 3.0, math.nan, math.inf, True]))


class TestExtremeInputs:
    """Every oracle call ends in a finite result or an EamacError, whatever the cutoff and means."""

    @staticmethod
    def finite_or_eamac_error(call):
        try:
            value = call()
        except EamacError:
            return
        assert np.isfinite(value).all()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(mean=EXTREME_MEANS, cutoff=EXTREME_CUTOFFS, tail_tol=st.sampled_from([1e-12, 1e-5, 0.5]))
    def test_states_and_entropies(self, mean, cutoff, tail_tol):
        self.finite_or_eamac_error(lambda: fk.tmsv_fock(mean, cutoff, tail_tol).amplitudes)
        self.finite_or_eamac_error(lambda: fk.thermal_fock(mean, cutoff).matrix)
        self.finite_or_eamac_error(lambda: fk.entropy_fock(fk.thermal_fock(mean, cutoff)))
        self.finite_or_eamac_error(lambda: fk.entropy_fock(fk.tmsv_fock(mean, cutoff, tail_tol).partial_trace([0])))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        kappa_eff=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-300, 1.0 - 1e-12, 1.0])),
        n_t_eff=VALID_MEANS,
        n_s=VALID_MEANS,
        psk_order=st.one_of(st.integers(1, 30), st.sampled_from([0, -1, 2.5, math.nan, 10**6])),
        cutoff=st.one_of(st.integers(1, 12), st.sampled_from([0, -2, 2.5, math.nan, math.inf])),
        tail_tol=st.sampled_from([1e-12, 1e-5, 0.5]),
    )
    def test_psk_ensemble_mi(self, kappa_eff, n_t_eff, n_s, psk_order, cutoff, tail_tol):
        eff = ch.EffectiveChannel(kappa_eff, n_t_eff, n_s)
        self.finite_or_eamac_error(lambda: fk.psk_ensemble_mi(eff, psk_order, cutoff, tail_tol=tail_tol))


class TestInformationFunctionals:
    def test_rounding_below_zero_adds_no_entropy(self):
        assert rg.spectral_entropy(np.array([0.5, 0.5, -1e-12])) == rg.spectral_entropy(np.array([0.5, 0.5]))

    def test_pure_state_entropy_zero(self):
        psi = fk.tmsv_fock(0.5, 24)
        assert fk.entropy_fock(psi.to_density()) == pytest.approx(0.0, abs=1e-10)


def _hidden_blocks(sizes, seed, is_complex):
    """A trace-one Hermitian PSD matrix, block diagonal with dense random blocks of
    ``sizes`` under a random permutation, and the blocks' index sets."""
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    mat = np.zeros((dim, dim), dtype=complex if is_complex else float)
    perm = rng.permutation(dim)
    blocks, first = [], 0
    for size in sizes:
        a = rng.normal(size=(size, size)) + (1j * rng.normal(size=(size, size)) if is_complex else 0.0)
        idx = perm[first : first + size]
        mat[np.ix_(idx, idx)] = a @ a.conj().T
        blocks.append(sorted(idx.tolist()))
        first += size
    return mat / np.trace(mat).real, blocks


class TestBlockEntropy:
    """entropy_fock diagonalizes by connected component of the zero pattern; the dense eigvalsh is the reference."""

    @staticmethod
    def dense_entropy(mat):
        return rg.spectral_entropy(np.linalg.eigvalsh(mat))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 7), min_size=1, max_size=10),
        seed=st.integers(0, 2**32 - 1),
        is_complex=st.booleans(),
    )
    def test_matches_the_dense_spectrum_on_hidden_blocks(self, sizes, seed, is_complex):
        mat, blocks = _hidden_blocks(sizes, seed, is_complex)
        assert sorted(c.tolist() for c in fk._components(mat)) == sorted(blocks)
        value = fk.entropy_fock(fk.FockDensity(len(mat), 1, mat))
        assert abs(value - self.dense_entropy(mat)) <= 1e-13

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_a_dense_matrix_is_one_whole_eigensolve(self, is_complex):
        mat, _ = _hidden_blocks([36], 5, is_complex)
        assert fk.entropy_fock(fk.FockDensity(6, 2, mat)) == self.dense_entropy(mat)

    def test_a_diagonal_matrix_is_one_by_one_blocks(self):
        diag = np.random.default_rng(6).dirichlet(np.ones(49))
        diag[[3, 17]] = 0.0
        mat = np.diag(diag)
        assert len(fk._components(mat)) == 49
        value = fk.entropy_fock(fk.FockDensity(7, 2, mat))
        assert abs(value - self.dense_entropy(mat)) <= 1e-13

    @pytest.mark.parametrize("psk_order", [3, 8, 48])
    def test_link_states_match_the_dense_spectrum(self, psk_order):
        eff = ch.EffectiveChannel(0.35, 0.3, 0.2)
        rho = fk.conditional_output_density(eff, 12, tail_tol=1e-5)
        for state in (rho, fk.phase_average_fock(rho, psk_order)):
            assert abs(fk.entropy_fock(state) - self.dense_entropy(state.matrix)) <= 1e-13

    def test_phase_average_leaves_its_input_alone(self):
        rho = fk.conditional_output_density(ch.EffectiveChannel(0.35, 0.3, 0.2), 8, tail_tol=1e-4)
        before = rho.matrix.copy()
        pinched = fk.phase_average_fock(rho, 4)
        assert np.array_equal(rho.matrix, before)
        assert not np.array_equal(pinched.matrix, before)


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
        # rho0 is real; the rotated copies are complex
        acc = np.zeros_like(rho0.matrix, dtype=complex)
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


def _env_cutoff(eff, env_tail=1e-15):
    """Environment cutoff of the dense oracle with its thermal tail at ``env_tail``.

    The Kraus route has no environment to truncate; a tail this small keeps
    the oracle's own truncation far inside the 1e-12 comparisons.
    """
    return rg.required_cutoff(eff.n_t_eff / (1.0 - eff.kappa_eff) if eff.kappa_eff < 1.0 else 0.0, env_tail)


def _dense_spectrum_entropy(eff, cutoff, psk_order, tail_tol):
    rho0 = fk.conditional_output_density(eff, cutoff, d_env=_env_cutoff(eff), tail_tol=tail_tol)
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


def _kraus_superop(kappa, n_t, d):
    """K = sum_ij (B_i A_j) (x) (B_i A_j) on cutoff d from region._kraus_laws.

    A_j removes j photons and B_i adds i; their amplitudes are the square
    roots of the loss and amplifier laws.  Row-major vec, as in
    fock._thermal_loss_superop.
    """
    loss, amp = rg._kraus_laws(kappa, n_t, d, d)
    lose = [np.diag(np.sqrt(np.diagonal(loss, -j)), j) for j in range(d)]
    add = [np.diag(np.sqrt(np.diagonal(amp, i)), -i) for i in range(d)]
    return sum(np.kron(b @ a, b @ a) for b in add for a in lose)


class TestConditionalGram:
    """The link's conditional state, read off the masked Gram, against the superoperator product."""

    @staticmethod
    def assert_matches_product(eff, cutoff, d_env=None, tail_tol=1e-5):
        gram = fk.conditional_output_density(eff, cutoff, d_env=d_env, tail_tol=tail_tol)
        n_env = eff.n_t_eff / (1.0 - eff.kappa_eff)
        psi = fk.tmsv_fock(eff.n_s, cutoff, tail_tol)
        product = fk.thermal_loss_fock(psi.to_density(), eff.kappa_eff, n_env, d_env=d_env, tail_tol=tail_tol)
        assert np.abs(gram.matrix - product.matrix).max() <= 1e-15

    def test_seeded_criterion7_links(self):
        for eff in _criterion7_links(31, 8):
            self.assert_matches_product(eff, 12)

    @pytest.mark.parametrize(
        "eff",
        [ch.EffectiveChannel(0.0, 0.5, 0.2), ch.EffectiveChannel(0.4, 0.0, 0.2)],
        ids=["kappa_eff=0", "n_env=0"],
    )
    def test_edges(self, eff):
        self.assert_matches_product(eff, 12)

    def test_explicit_environment_cutoff(self):
        eff = ch.EffectiveChannel(0.45, 0.35, 0.15)
        self.assert_matches_product(eff, 10, d_env=rg.required_cutoff(0.35 / 0.55, 1e-5) + 7)

    @settings(max_examples=30, derandomize=True, database=None, deadline=2000)
    @given(
        kappa_eff=st.floats(0.0, 0.9),
        n_env=st.floats(0.0, 2.0),
        n_s=st.floats(0.0, 0.5),
        cutoff=st.integers(2, 12),
    )
    def test_matches_the_product_on_random_links(self, kappa_eff, n_env, n_s, cutoff):
        # a loose tail budget lets every cutoff hold the TMSV; the environment keeps 1e-8 of its tail
        eff = ch.EffectiveChannel(kappa_eff, n_env * (1.0 - kappa_eff), n_s)
        d_env = rg.required_cutoff(eff.n_t_eff / (1.0 - kappa_eff), 1e-8)
        self.assert_matches_product(eff, cutoff, d_env=d_env, tail_tol=0.5)


class TestPhaseAveragedSpectrum:
    """The photon-number-sector route against the dense Fock oracle."""

    EDGE_LINKS = [
        ch.EffectiveChannel(0.3, 0.0, 0.2),  # pure loss
        ch.EffectiveChannel(0.4, 0.3, 0.0),  # no signal
        ch.EffectiveChannel(1.0, 0.0, 0.2),  # identity channel
        ch.EffectiveChannel(0.0, 0.5, 0.2),  # decoupled signal
    ]

    @pytest.mark.parametrize("psk_order", [2, 4, 6, 10, 28, 64])
    def test_matches_dense_on_seeded_grid(self, psk_order):
        for eff in _criterion7_links(2024, 6) + self.EDGE_LINKS:
            (eigs,), (deficit,) = rg.phase_averaged_spectra([eff], 14, psk_order, tail_tol=1e-5)
            s_dense, tail_dense = _dense_spectrum_entropy(eff, 14, psk_order, 1e-5)
            assert abs(rg.spectral_entropy(eigs) - s_dense) <= 1e-12
            assert abs(deficit - tail_dense) <= 1e-12

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        kappa_eff=st.floats(0.0, 0.9),
        n_env=st.floats(0.0, 2.0),
        n_s=st.floats(0.0, 0.5),
        cutoff=st.integers(1, 10),
        blocks=st.booleans(),
        data=st.data(),
    )
    def test_matches_dense_on_random_links(self, kappa_eff, n_env, n_s, cutoff, blocks, data):
        # psk_order below the cutoff takes the Gram blocks (cutoff 1 has none), from the cutoff on
        # the 1 x 1 spectrum; a loose tail budget lets every cutoff hold the TMSV and the output
        psk_order = data.draw(st.integers(1, max(cutoff - 1, 1)) if blocks else st.integers(cutoff, 4 * cutoff))
        eff = ch.EffectiveChannel(kappa_eff, n_env * (1.0 - kappa_eff), n_s)
        (eigs,), (deficit,) = rg.phase_averaged_spectra([eff], cutoff, psk_order, tail_tol=0.5)
        s_dense, tail_dense = _dense_spectrum_entropy(eff, cutoff, psk_order, 0.5)
        assert abs(rg.spectral_entropy(eigs) - s_dense) <= 1e-12
        assert deficit >= 0.0 and abs(deficit - tail_dense) <= 1e-12

    @staticmethod
    def unweighted_reference(effs, cutoff, psk_order):
        """Each link's spectrum and deficit from its unweighted laws times the TMSV photon law,
        the Gram blocks (x - k, x mod L) built entry by entry."""
        period = min(psk_order, cutoff)
        spectra, deficits = [], []
        for eff in effs:
            loss, amp = rg._kraus_laws(eff.kappa_eff, eff.n_t_eff, cutoff, cutoff)
            p_k = rg.photon_distribution_thermal(eff.n_s, cutoff)
            deficits.append(1.0 - (p_k[:, None] * (loss @ amp)).sum())
            blocks = {}
            for x, k in itertools.product(range(cutoff), repeat=2):
                row = [math.sqrt(p_k[k] * loss[k, k - j] * amp[k - j, x]) for j in range(k + 1)]
                blocks.setdefault((x - k, x % period), []).append(row + [0.0] * (cutoff - k - 1))
            eigs = [np.linalg.eigvalsh(np.array(v) @ np.array(v).T) for v in blocks.values()]
            spectra.append(np.sort(np.concatenate(eigs)))
        return spectra, deficits

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        links=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0)), min_size=1, max_size=3),
        cutoff=st.integers(1, 9),
        blocks=st.booleans(),
        data=st.data(),
    )
    def test_both_branches_match_unweighted_laws(self, links, cutoff, blocks, data):
        # psk_order below the cutoff takes the Gram blocks, from the cutoff on the 1 x 1 spectrum;
        # tail_tol 0.5 lets cutoff 1 hold an n_s of 1, and the links of a batch may differ in n_s
        psk_order = data.draw(st.integers(1, max(cutoff - 1, 1)) if blocks else st.integers(cutoff, 4 * cutoff))
        effs = [ch.EffectiveChannel(*link) for link in links]
        spectra, deficits = rg.phase_averaged_spectra(effs, cutoff, psk_order, tail_tol=0.5)
        expected, expected_deficits = self.unweighted_reference(effs, cutoff, psk_order)
        for row, want in zip(spectra, expected):
            assert np.abs(np.sort(row) - want).max() <= 1e-14
        assert np.abs(deficits - expected_deficits).max() <= 1e-14

    @pytest.mark.parametrize("psk_order", [4, 6, 8, 64])
    def test_batch_matches_dense_psk_ensemble_mi(self, psk_order):
        # cutoff 14: L in {4, 6, 8} gives Gram blocks (L < d), L = 64 the 1 x 1 branch
        links = _criterion7_links(7, 5) + [ch.EffectiveChannel(0.4, 0.3, 0.0), ch.EffectiveChannel(0.3, 0.0, 0.2)]
        spectra, deficits = rg.phase_averaged_spectra(links, 14, psk_order, tail_tol=1e-5)
        entropies = rg.spectral_entropy(spectra)
        for eff, entropy, deficit in zip(links, entropies, deficits):
            rho0 = fk.conditional_output_density(eff, 14, d_env=_env_cutoff(eff, 1e-14), tail_tol=1e-5)
            dense_mi = fk.psk_ensemble_mi(eff, psk_order, 14, d_env=_env_cutoff(eff, 1e-14), tail_tol=1e-5)
            assert abs(entropy - fk.entropy_fock(rho0) - dense_mi) <= 1e-12
            assert abs(deficit - rho0.tail()) <= 1e-12

    @pytest.mark.parametrize("psk_order", [6, 24])
    def test_batch_rows_equal_one_link_views(self, psk_order):
        links = _criterion7_links(11, 4) + self.EDGE_LINKS
        spectra, deficits = rg.phase_averaged_spectra(links, 12, psk_order, tail_tol=1e-5)
        for eff, row, deficit in zip(links, spectra, deficits):
            (one,), (one_deficit,) = rg.phase_averaged_spectra([eff], 12, psk_order, tail_tol=1e-5)
            np.testing.assert_array_equal(row, one)
            assert deficit == one_deficit

    @staticmethod
    def assert_kraus_superop_matches_expm(links):
        for eff in links:
            n_env = eff.n_t_eff / (1.0 - eff.kappa_eff) if eff.kappa_eff < 1.0 else 0.0
            dense = fk._thermal_loss_superop(eff.kappa_eff, n_env, 12, 12, _env_cutoff(eff))
            assert np.abs(_kraus_superop(eff.kappa_eff, eff.n_t_eff, 12) - dense).max() <= 1e-12

    def test_kraus_superop_matches_expm_on_seeded_grid(self):
        self.assert_kraus_superop_matches_expm(_criterion7_links(2024, 6))

    def test_kraus_superop_matches_expm_at_edges(self):
        # kappa = 0 (the oracle's full swap), kappa = 1 and n_env = 0
        self.assert_kraus_superop_matches_expm(self.EDGE_LINKS)

    @pytest.mark.parametrize("name", ["psk_mi_unconditioned", "continuous_mi_conditioned"])
    def test_matches_dense_at_golden_points(self, name):
        from eamac import fixtures

        rec = fixtures.load_fixtures()[name]
        eff = ch.EffectiveChannel(rec["kappa_eff"], rec["n_t_eff"], rec["n_s"])
        (eigs,), (deficit,) = rg.phase_averaged_spectra([eff], int(rec["cutoff"]), 64)
        s_dense, tail_dense = _dense_spectrum_entropy(eff, int(rec["cutoff"]), 64, rg.DEFAULT_TAIL_TOL)
        assert abs(rg.spectral_entropy(eigs) - s_dense) <= 1e-12
        assert abs(deficit - tail_dense) <= 1e-12

    def test_blocks_are_one_by_one_for_large_order(self):
        # L >= 2d leaves a diagonal state: d^2 eigenvalues, one per (x, k)
        eff = ch.EffectiveChannel(0.25, 0.525, 0.1)
        (eigs,), (deficit,) = rg.phase_averaged_spectra([eff], 12, 24, tail_tol=1e-5)
        (diag,), _ = rg.phase_averaged_spectra([eff], 12, 64, tail_tol=1e-5)
        assert eigs.size == 144
        np.testing.assert_array_equal(np.sort(eigs), np.sort(diag))
        assert abs(eigs.sum() - (1.0 - deficit)) <= 1e-14

    @pytest.mark.parametrize(
        "eff, cutoff, tail_tol",
        [
            (ch.EffectiveChannel(0.5, 2.0, 0.5), 10, 1e-10),  # TMSV tail check
            (ch.EffectiveChannel(0.5, 2.0, 0.05), 10, 1e-8),  # output trace deficit
            (ch.EffectiveChannel(0.1, 0.0, 0.5), 10, 1e-10),  # TMSV tail only: the output fits
        ],
    )
    def test_both_routes_reject_the_same_small_cutoff(self, eff, cutoff, tail_tol):
        numerics = rg.RegionNumerics(cutoff=cutoff, psk_order=64, tail_tol=tail_tol)
        with pytest.raises(TruncationError) as sector:
            rg.continuous_phase_mi(eff, numerics)
        with pytest.raises(TruncationError) as dense:
            fk.psk_ensemble_mi(eff, 64, cutoff, tail_tol=tail_tol)
        assert sector.value.required_cutoff == dense.value.required_cutoff


class TestKrausLaws:
    """The loss-then-amplifier laws against closed forms, hot environments included."""

    @pytest.mark.parametrize("kappa", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("n_t", [0.0, 0.3, 5.0, 100.0])
    def test_output_marginal_is_thermal(self, kappa, n_t):
        # a thermal(n_s) input leaves thermal(kappa n_s + n_t); the input tail is below 1e-16
        n_s, d_in, d_out = 0.5, 34, 60
        loss, amp = rg._kraus_laws(kappa, n_t, d_in, d_out)
        p_in = rg.photon_distribution_thermal(n_s, d_in)
        expected = rg.photon_distribution_thermal(kappa * n_s + n_t, d_out)
        assert np.abs(p_in @ loss @ amp - expected).max() <= 1e-14

    @pytest.mark.parametrize("kappa", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("n_t", [0.0, 0.3, 5.0, 100.0])
    def test_output_mean_is_kappa_k_plus_noise(self, kappa, n_t):
        # 6000 output levels hold the law of k < 8 to below 1e-16 at n_t = 100
        law = np.matmul(*rg._kraus_laws(kappa, n_t, 8, 6000))
        k = np.arange(8)
        assert np.abs(law.sum(axis=1) - 1.0).max() <= 1e-14
        assert np.abs(law @ np.arange(6000) - (kappa * k + n_t)).max() <= 1e-12 * (1.0 + n_t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("n_t", [0.0, 0.2, 3.0])
    def test_rows_equal_direct_binomial_laws(self, kappa, n_t):
        # C(r, m) a_m b^(r - m) for m <= r, with 0^0 = 1
        def law(r, m, a_m, b):
            return math.comb(r, m) * a_m * b ** (r - m) if m <= r else 0.0

        d_in, d_out = 12, 30
        gain = 1.0 + n_t
        eta = kappa / gain
        loss, amp = rg._kraus_laws(kappa, n_t, d_in, d_out)
        direct_loss = [[law(k, m, eta**m, 1.0 - eta) for m in range(d_in)] for k in range(d_in)]
        direct_amp = [[law(x, m, gain ** -(m + 1), 1.0 - 1.0 / gain) for x in range(d_out)] for m in range(d_in)]
        assert np.abs(loss - direct_loss).max() <= 1e-13
        assert np.abs(amp - direct_amp).max() <= 1e-13

    @staticmethod
    def assert_weight_is_the_photon_law(kappa, n_t, n_s, d=24):
        weighted, amp_weighted = rg._kraus_laws(kappa, n_t, d, d, n_s)
        loss, amp = rg._kraus_laws(kappa, n_t, d, d)
        expected = rg.photon_distribution_thermal(n_s, d)[:, None] * loss
        assert np.isfinite(weighted).all() and (weighted >= 0.0).all()
        np.testing.assert_array_equal(weighted > 0.0, expected > 0.0)
        # 1e-15 relative on entries near 1; an exp's rounding grows with its exponent, -ln(entry)
        nonzero = expected > 0.0
        error = np.abs(weighted - expected)[nonzero] / expected[nonzero]
        assert (error <= 1e-15 * (1.0 - np.log(expected[nonzero]))).all()
        np.testing.assert_array_equal(amp_weighted, amp)

    def test_tmsv_weight_is_the_photon_law_on_seeded_links(self):
        for eff in _criterion7_links(27, 12):
            self.assert_weight_is_the_photon_law(eff.kappa_eff, eff.n_t_eff, eff.n_s)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "kappa, n_t, n_s",
        [(1.0, 0.0, 0.2), (0.4, 0.0, 0.2), (0.4, 0.3, 1e-12), (0.4, 0.3, 20.0)],
        ids=["eta=1", "n_t=0", "n_s=1e-12", "n_s=20"],
    )
    def test_tmsv_weight_is_the_photon_law_at_edges(self, kappa, n_t, n_s):
        self.assert_weight_is_the_photon_law(kappa, n_t, n_s)

    def test_kappa_one_keeps_the_noise(self):
        # the noise at kappa_eff = 1 is an amplifier after no loss, continuous with kappa_eff < 1
        at_one = rg.continuous_phase_mi(ch.EffectiveChannel(1.0, 0.3, 0.2))
        near_one = rg.continuous_phase_mi(ch.EffectiveChannel(0.999999, 0.3, 0.2))
        assert math.isfinite(near_one) and abs(at_one - near_one) <= 1e-6
        with pytest.raises(DomainError, match="no thermal environment"):
            fk.conditional_output_density(ch.EffectiveChannel(1.0, 0.3, 0.2), 24)


class TestMacJointFock:
    """Full end-to-end channel state, checked against the Gaussian layer."""

    p = ch.MacParams(tau=0.6, kappa=0.6, n_b=0.5)
    n_s = 0.12
    d = 10

    @pytest.fixture(scope="class", autouse=True)
    def joint_state(self, request):
        # one build (about half a second) shared by every test of the class
        request.cls.rho = fk.mac_joint_fock(self.p, self.n_s, self.d, tail_tol=1e-6)
        yield
        del request.cls.rho

    def test_moments_match_joint_covariance(self):
        # accuracy is tail-limited at this cutoff (output weight above d=10)
        _, cov = fk.moments_from_fock(self.rho)
        ref = ch.bob_joint_cov(self.p, ch.ModulationConfig(n_s=self.n_s))
        np.testing.assert_allclose(cov, ref, atol=5e-5)

    def test_moments_match_anticommutator_formula(self):
        # reference: every symmetrised moment from dense operator products
        rng = np.random.default_rng(5)
        g_mat = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        rho = g_mat @ g_mat.conj().T
        state = fk.FockDensity(4, 3, rho / np.trace(rho).real)
        q1, p1 = fk._quadrature_ops(4)
        eye = np.eye(4)
        quads = [
            np.kron(np.kron(op if mode == 0 else eye, op if mode == 1 else eye), op if mode == 2 else eye)
            for mode in range(3)
            for op in (q1, p1)
        ]
        mean = np.array([np.trace(state.matrix @ op).real for op in quads])
        sym = np.array([[0.5 * np.trace(state.matrix @ (a @ b + b @ a)).real for b in quads] for a in quads])
        got_mean, got_cov = fk.moments_from_fock(state)
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_cov, sym - np.outer(mean, mean), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("theta, phi", [(0.37, 1.1), (2.9, -0.8)])
    def test_rotated_moments_match_rotated_joint_covariance(self, theta, phi):
        # theta and phi are channel.rotation_block's phases in both routes
        rotated = fk.mac_joint_fock(self.p, self.n_s, self.d, theta=theta, phi=phi, tail_tol=1e-6)
        _, cov = fk.moments_from_fock(rotated)
        ref = ch.bob_joint_cov(self.p, ch.ModulationConfig(n_s=self.n_s), theta, phi)
        np.testing.assert_allclose(cov, ref, atol=5e-5)

    def test_signal_rotation_equals_idler_rotation(self):
        rotated = fk.mac_joint_fock(self.p, self.n_s, self.d, theta=0.37, phi=1.1, tail_tol=1e-6)
        alt = fk.phase_rotate_fock(fk.phase_rotate_fock(self.rho, 0.37, mode=1), 1.1, mode=2)
        np.testing.assert_allclose(rotated.matrix, alt.matrix, atol=1e-12)

    def test_chain_rule_lower_bound(self):
        # joint decoding beats the heterodyne-decoupled sum, up to numerics
        order = 8
        m = ch.ModulationConfig(n_s=self.n_s)
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
        m = ch.ModulationConfig(n_s=self.n_s)
        marginal = self.rho.partial_trace([0, 1])
        direct = fk.entropy_fock(fk.phase_average_fock(marginal, order, mode=1)) - fk.entropy_fock(marginal)
        via_eff = fk.psk_ensemble_mi(
            ch.effective_params(self.p, m, "x", False), order, self.d, tail_tol=1e-6
        )
        assert direct == pytest.approx(via_eff, abs=1e-6)
