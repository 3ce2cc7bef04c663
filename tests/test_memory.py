"""Peak traced allocations of the validate path."""

import tracemalloc

from eamac import planner, validate


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_willie_tv_mc_draws_in_small_blocks():
    # a whole 2^16-row chunk per worker would peak near 90 MB
    n = 10**4
    p, alpha, beta, s = validate.tv_experiment_params(0.30, n)
    peak = traced_peak_mb(lambda: planner.willie_tv_mc(n, alpha, beta, s, p, samples=10**5, seed=3, workers=2))
    assert peak < 16.0


def test_gaussian_fock_entropy_never_builds_the_pair_density():
    # the 1600 x 1600 two-mode density alone would be 41 MB
    peak = traced_peak_mb(validate.check_gaussian_fock_entropy)
    assert peak < 4.0
