"""Peak traced allocations of the validate path and the dense Fock oracle."""

import tracemalloc

import pytest

from eamac import fock, planner, validate
from eamac import region as rg
from eamac.channel import EffectiveChannel, MacParams, ModulationConfig, effective_params


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_willie_tv_mc_draws_in_small_blocks():
    # a whole 2^16-row chunk per worker would peak near 90 MB, a 4096-row draw
    # of the 60-level table at 5.0 MB; 0.5 MB draws peak at 2.1 MB
    n = 10**4
    p, alpha, beta, s = validate.tv_experiment_params(0.30, n)
    peak = traced_peak_mb(lambda: planner.willie_tv_mc(n, alpha, beta, s, p, samples=10**5, seed=3, workers=2))
    assert peak < 3.0


def test_willie_tv_mc_count_memory_does_not_grow_with_the_table():
    # at n_b = 100 the warden's table has 2111 levels: a 4096-row draw of it
    # peaked at 69.4 MB, 0.5 MB draws (31 rows each) at 0.8 MB
    p = MacParams(tau=0.5, kappa=0.5, n_b=100.0)
    peak = traced_peak_mb(lambda: planner.willie_tv_mc(100, 0.05, 0.05, 0.05, p, samples=8192, seed=1))
    assert peak < 3.0


def test_gaussian_fock_entropy_never_builds_the_pair_density():
    # the 1600 x 1600 two-mode density alone would be 41 MB
    peak = traced_peak_mb(validate.check_gaussian_fock_entropy)
    assert peak < 4.0


def test_psk_ensemble_mi_at_the_largest_grid_environment():
    # the criterion-7 corner whose link needs the most environment levels (19 at tail_tol 1e-5);
    # each 576 x 576 density is 2.7 MB: one density, pinched in place and diagonalized one
    # block at a time, peaks at 3.8 MB, where a pinched copy and whole-matrix eigensolves
    # peaked at 6.4 MB, the superoperator product at 8.0 MB and the dense 4-index
    # beamsplitter tensor with full-size temporaries at 15.9 MB
    p, m = MacParams(tau=0.95, kappa=0.1, n_b=1.2), ModulationConfig(n_s=0.3)
    eff = effective_params(p, m, "x", False)
    assert rg.required_cutoff(eff.n_t_eff / (1.0 - eff.kappa_eff), 1e-5) == 19
    peak = traced_peak_mb(lambda: fock.psk_ensemble_mi(eff, 64, 24, tail_tol=1e-5))
    assert peak < 4.5


def test_psk_ensemble_mi_at_the_fixture_link():
    # the golden record's link at cutoff 48: its 2304 x 2304 density is 40.5 MiB and is the
    # only one held (42.1 MiB peak); a pinched copy and whole-matrix eigensolves took 82.0 MiB
    eff = EffectiveChannel(0.25, 0.525, 0.1)
    peak = traced_peak_mb(lambda: fock.psk_ensemble_mi(eff, 64, 48, tail_tol=1e-12))
    assert peak * 1e6 / 2**20 < 55.0


@pytest.mark.parametrize("cutoff, n_env", [(24, 1.2), (24, 2.0), (32, 2.0)])
def test_thermal_loss_superop_holds_about_two_outputs(cutoff, n_env):
    # the output and the masked Gram it is copied from (2.0 outputs measured); the dense 4-index build took 3.4
    d_env = rg.required_cutoff(n_env, 1e-8)
    superop = fock._thermal_loss_superop(0.3, n_env, cutoff, cutoff, d_env)
    peak = traced_peak_mb(lambda: fock._thermal_loss_superop(0.3, n_env, cutoff, cutoff, d_env))
    assert peak < 2.5 * superop.nbytes / 1e6
