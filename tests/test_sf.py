import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slrlab import sf


def test_constant_moments_and_sample():
    spec = sf.constant(2.0)
    rng = np.random.default_rng(0)
    assert sf.support_bounds(spec, 0) == (2.0, 2.0)
    prof = sf.moment_profile(spec, 5)
    assert prof.mean[5] == 2.0
    assert prof.variance[5] == 0.0
    assert sf.sample(spec, 3, rng) == 2.0
    # Near the double range; the midpoint written as 0.5 * (lo + hi) would overflow.
    huge = sf.moment_profile(sf.constant(1.7e308), 10)
    assert (huge.mean == 1.7e308).all() and (huge.variance == 0.0).all()
    assert huge.sup_support_limit == 1.7e308
    # The least subnormal, which halves to 0.
    tiny = sf.moment_profile(sf.constant(5e-324), 10)
    assert (tiny.mean == 5e-324).all() and (tiny.variance == 0.0).all()


@pytest.mark.parametrize("c1, c2, mean", [(1e308, 1.5e308, 1.25e308), (5e-324, 1e-323, 5e-324)])
def test_uniform_root_mean_halves_each_bound_first(c1, c2, mean):
    # 0.5 * (c1 + c2) would read inf, with an overflow warning, and 1e-323.
    assert sf.moment_profile(sf.uniform_root(c1, c2), 1).mean[0] == mean


def test_uniform_root_bounds_k0_are_the_roots():
    spec = sf.uniform_root(0.3, 0.8)
    lo, hi = sf.support_bounds(spec, 0)
    assert lo == 0.3 and hi == 0.8
    prof = sf.moment_profile(spec, 1)
    assert prof.mean[0] == pytest.approx(0.55, rel=1e-15)
    assert prof.variance[0] == pytest.approx(0.5**2 / 12.0, rel=1e-15)


def test_uniform_root_closed_forms_at_k1():
    # mean = (sqrt(c1) + sqrt(c2)) / 2, variance = (sqrt(c2) - sqrt(c1))^2 / 12
    spec = sf.uniform_root(0.3, 0.8)
    lo, hi = np.sqrt(0.3), np.sqrt(0.8)
    prof = sf.moment_profile(spec, 1)
    assert prof.mean[1] == pytest.approx((lo + hi) / 2, rel=1e-15)
    assert prof.variance[1] == pytest.approx((hi - lo) ** 2 / 12, rel=1e-15)


def test_moments_match_monte_carlo():
    # Monte-Carlo oracle: draw u_1 a million times and compare both moments.
    spec = sf.uniform_root(0.3, 0.8)
    rng = np.random.default_rng(12345)
    lo, hi = sf.support_bounds(spec, 1)
    draws = lo + (hi - lo) * rng.random(1_000_000)
    se_mean = draws.std(ddof=1) / np.sqrt(len(draws))
    prof = sf.moment_profile(spec, 1)
    assert abs(draws.mean() - prof.mean[1]) < 3 * se_mean
    assert abs(draws.mean() - prof.mean[1]) < 1e-3
    assert abs(draws.var(ddof=1) - prof.variance[1]) < 1e-3


def test_sample_uses_one_uniform_and_is_deterministic():
    spec = sf.uniform_root(0.3, 0.8)
    a = sf.sample(spec, 4, np.random.default_rng(7))
    b = sf.sample(spec, 4, np.random.default_rng(7))
    assert a == b
    # constant consumes no randomness: the stream state is untouched
    rng = np.random.default_rng(7)
    sf.sample(sf.constant(1.0), 0, rng)
    assert rng.random() == np.random.default_rng(7).random()


@settings(max_examples=200, deadline=None)
@given(
    c1=st.floats(1e-3, 10.0),
    width=st.floats(1e-3, 5.0),
    k=st.integers(0, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_within_support(c1, width, k, seed):
    spec = sf.uniform_root(c1, c1 + width)
    lo, hi = sf.support_bounds(spec, k)
    u = sf.sample(spec, k, np.random.default_rng(seed))
    assert lo <= u <= hi
    assert u > 0


# A profile is built from k = 0, so k is drawn below 10**4 and checked at
# 10**6 once; the bounds near 10**6 are pinned bit for bit by
# test_block_bounds_match_support_bounds_bit_for_bit.
@settings(max_examples=100, deadline=None)
@given(c1=st.floats(1e-3, 10.0), width=st.floats(1e-3, 5.0), k=st.integers(0, 10**4))
@example(c1=0.3, width=0.5, k=10**6)
def test_moment_identities(c1, width, k):
    spec = sf.uniform_root(c1, c1 + width)
    lo, hi = sf.support_bounds(spec, k)
    prof = sf.moment_profile(spec, max(k, 1))
    assert prof.mean[k] == pytest.approx((lo + hi) / 2, rel=1e-15)
    assert prof.variance[k] == pytest.approx((hi - lo) ** 2 / 12, rel=1e-15)


@pytest.mark.parametrize("k0, n", [(0, 1), (0, 9), (1, 5), (1020, 8), (1023, 2), (2047, 3), (10**6 - 4, 9)])
@pytest.mark.parametrize("c1, c2", [(0.3, 0.8), (0.001, 4.0), (0.5, 1.3043511789010365), (1.5, 7.25)])
def test_block_bounds_match_support_bounds_bit_for_bit(k0, n, c1, c2):
    # Near k = 0, across the edges of 1024-step blocks and near 10**6.
    spec = sf.uniform_root(c1, c2)
    lo, hi = sf._block_bounds(spec, k0, n)
    want = np.array([sf.support_bounds(spec, k) for k in range(k0, k0 + n)]).reshape(n, 2).T
    assert lo.tobytes() == want[0].tobytes()
    assert hi.tobytes() == want[1].tobytes()
    # Drawn one step at a time, a block gives the same bits.
    block = sf.sample_block(spec, k0, n, [np.random.default_rng(3)])[0]
    rng = np.random.default_rng(3)
    assert block.tobytes() == np.array([sf.sample(spec, k, rng) for k in range(k0, k0 + n)]).tobytes()


@pytest.mark.parametrize("k0, n", [(0, 1), (0, 9), (1023, 2), (10**6 - 4, 9)])
@pytest.mark.parametrize("value", [1.0, 0.7, 1.7e308])
def test_constant_block_bounds_match_support_bounds(k0, n, value):
    spec = sf.constant(value)
    lo, hi = sf._block_bounds(spec, k0, n)
    assert lo.tolist() == hi.tolist() == [sf.support_bounds(spec, k)[0] for k in range(k0, k0 + n)] == [value] * n


@pytest.mark.parametrize("spec", [sf.uniform_root(0.3, 0.8), sf.uniform_root(0.5, 1.5), sf.uniform_root(2.0, 4.0),
                                  sf.constant(0.7)], ids=["sub-one", "mixed", "super-one", "constant"])
def test_moments_read_the_sampler_supports_bit_for_bit(spec):
    # One closed form: the moments come from the supports the sampler
    # draws from, not from a second power of their own.
    prof = sf.moment_profile(spec, 3000)
    lo, hi = np.array([sf.support_bounds(spec, k) for k in range(3001)]).T
    assert prof.mean.tobytes() == (0.5 * (lo + hi)).tobytes()
    assert prof.variance.tobytes() == ((hi - lo) ** 2 / 12.0).tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        sf.uniform_root(0.8, 0.3)
    with pytest.raises(ValueError):
        sf.uniform_root(0.5, 0.5)
    with pytest.raises(ValueError):
        sf.uniform_root(0.0, 0.5)
    with pytest.raises(ValueError):
        sf.constant(0.0)
    with pytest.raises(ValueError):
        sf.constant(-1.0)
    with pytest.raises(ValueError):
        sf.SFSpec("triangular", value=1.0)
    with pytest.raises(ValueError):
        sf.SFSpec("constant", value=1.0, c1=0.3)
    with pytest.raises(ValueError):
        sf.support_bounds(sf.constant(1.0), -1)


def test_profile_directions_sub_one_roots():
    prof = sf.moment_profile(sf.uniform_root(0.3, 0.8), 10_000)
    assert prof.mean_direction is sf.Direction.INCREASING
    assert (np.diff(prof.variance) < 0).all()
    # mean below 1 and variance below mean, every k
    assert (prof.mean < 1.0).all()
    assert (prof.variance < prof.mean).all()


def test_profile_directions_super_one_roots():
    prof = sf.moment_profile(sf.uniform_root(2.0, 4.0), 10_000)
    assert prof.mean_direction is sf.Direction.DECREASING
    assert (np.diff(prof.variance) < 0).all()
    assert prof.sup_support_limit == 4.0


def test_profile_constant_direction():
    prof = sf.moment_profile(sf.constant(1.5), 100)
    assert prof.mean_direction is sf.Direction.CONSTANT
    assert (prof.variance == 0.0).all()
    assert (prof.mean == 1.5).all()
    assert prof.sup_support_limit == 1.5


def test_profile_mixed_roots_non_monotone_mean():
    # c1 < 1 < c2 off the balanced curve: interior extremum in the mean
    prof = sf.moment_profile(sf.uniform_root(0.5, 1.5), 10_000)
    assert prof.mean_direction is sf.Direction.NON_MONOTONE


def test_profile_invariants():
    for spec in (sf.uniform_root(0.3, 0.8), sf.uniform_root(2.0, 4.0), sf.constant(0.7)):
        prof = sf.moment_profile(spec, 500)
        assert (prof.variance >= 0).all()
        assert (prof.mean <= prof.sup_support_limit + 1e-15).all()
        assert len(prof.mean) == 501 and len(prof.variance) == 501


def test_profile_sup_support_limit_sub_one():
    # bounds rise toward 1 but never attain it: finite max < analytic sup
    spec = sf.uniform_root(0.3, 0.8)
    prof = sf.moment_profile(spec, 1000)
    assert sf.support_bounds(spec, 1000)[1] < 1.0
    assert prof.sup_support_limit == 1.0


def test_limits_at_k_one_million():
    for c1, c2 in ((0.25, 0.9), (0.25, 3.0)):
        spec = sf.uniform_root(c1, c2)
        _, hi = sf.support_bounds(spec, 10**6)
        assert abs(hi - 1.0) < 1e-3
        assert abs(sf.moment_profile(spec, 10**6).mean[10**6] - 1.0) < 1e-3


def test_profile_rejects_degenerate_horizon():
    with pytest.raises(ValueError):
        sf.moment_profile(sf.constant(1.0), 0)
