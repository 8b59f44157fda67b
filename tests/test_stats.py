import math
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slrlab import optimizer, problems, sf, stats
from slrlab.optimizer import StepSizeSchedule


def test_betainc_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(0.1, 50.0)
        x = rng.uniform(0.0, 1.0)
        ours = stats.betainc_reg(a, b, x)
        ref = scipy.special.betainc(a, b, x)
        assert ours == pytest.approx(ref, abs=1e-12)
    assert stats.betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert stats.betainc_reg(2.0, 3.0, 1.0) == 1.0
    # 1 - 1e-17 rounds to 1.0, yet I_x(2, 3) ~ 6 x^2 there.
    assert stats.betainc_reg(2.0, 3.0, 1e-17) == pytest.approx(6e-34, rel=1e-12)
    with pytest.raises(ValueError, match="a > 0 and b > 0"):
        stats.betainc_reg(0.0, 3.0, 0.5)
    with pytest.raises(ValueError, match="0 <= x <= 1"):
        stats.betainc_reg(2.0, 3.0, 1.5)
    with pytest.raises(ValueError, match="df must be > 0"):
        stats.t_two_sided_p(1.0, 0.0)


def test_t_zero_gives_exactly_one():
    for df in (1.0, 2.5, 10.0, 200.0):
        assert stats.t_two_sided_p(0.0, df) == 1.0
        assert stats.t_two_sided_p(-0.0, df) == 1.0


def _betacf_half_steps(a, b, x):
    """The continued fraction with each iteration's even and odd steps written out one after the other."""
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise RuntimeError("no convergence")


def test_betacf_bits_equal_the_written_out_steps():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a, b = (float(v) for v in 10.0 ** rng.uniform(-2.0, 4.0, size=2))
        x = float(rng.uniform(0.0, (a + 1.0) / (a + b + 2.0)))
        assert stats._betacf(a, b, x) == _betacf_half_steps(a, b, x), (a, b, x)


def test_t_p_below_the_switch_point_keeps_the_front_factor_and_fraction_on_x():
    # Below x = (a + 1) / (a + b + 2) (|t| above about 1.2) p is the front
    # factor on log1p(-x) times the fraction on x, bit for bit; compare's
    # p-values lie there.
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(10_000):
        t = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.5))
        df = float(10.0 ** rng.uniform(-0.3, 4.0))
        a, b, x = 0.5 * df, 0.5, df / (df + t * t)
        if x >= (a + 1.0) / (a + b + 2.0):
            continue
        front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
        assert stats.t_two_sided_p(t, df) == front * _betacf_half_steps(a, b, x) / a, (t, df)
        checked += 1
    assert checked > 4000


def test_t_p_near_one_keeps_its_low_bits():
    # Near p = 1 the fraction runs on t^2 / (df + t^2), not on 1 - x,
    # whose low bits rounding took; the reference's own error is below
    # 8e-17 at the fixed points (mpmath, 40 digits).  Up to df = 1e3: past
    # it the front factor's lgamma error, scaled by 1 - p, exceeds 1e-15
    # (7.6e-15 at t = 1e-3, df = 1e4).
    rng = np.random.default_rng(9)
    points = [(1e-7, 1e3), (1e-7, 78.0), (1e-5, 1e3), (1e-8, 2.5), (1e-3, 1e3), (-1e-7, 1e3)]
    points += [(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -3.0)), float(10.0 ** rng.uniform(-0.3, 3.0)))
               for _ in range(2000)]
    for t, df in points:
        ref = 1.0 - scipy.special.betainc(0.5, 0.5 * df, t * t / (df + t * t))
        assert stats.t_two_sided_p(t, df) == pytest.approx(ref, rel=1e-15, abs=0.0), (t, df)


def test_t_p_monotone_in_magnitude():
    df = 7.0
    ts = np.linspace(0.0, 6.0, 40)
    ps = [stats.t_two_sided_p(t, df) for t in ts]
    assert all(ps[i] >= ps[i + 1] for i in range(len(ps) - 1))
    assert stats.t_two_sided_p(3.0, df) == stats.t_two_sided_p(-3.0, df)


def test_t_p_matches_scipy():
    # The stats docstring's bound: the lgamma cancellation in the front
    # factor grows the relative error with df, to 1e-10 at df = 1e4.
    rng = np.random.default_rng(5)
    for _ in range(400):
        t = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 8.0)
        df = 10.0 ** rng.uniform(0.0, 4.0)
        ref = 2.0 * scipy.stats.t.sf(abs(t), df)
        assert stats.t_two_sided_p(t, df) == pytest.approx(ref, rel=2e-14 * max(df, 10.0), abs=0.0)


def test_welch_worked_example():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 3.0, 4.0])
    t, df, p = stats.welch_t(a, b)
    assert t == pytest.approx(-np.sqrt(1.5), rel=1e-15)
    assert df == pytest.approx(4.0, rel=1e-12)
    assert p == pytest.approx(0.287864, abs=1e-3)
    ref_t, ref_p = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert t == pytest.approx(ref_t, rel=1e-12)
    assert p == pytest.approx(ref_p, rel=1e-10)


def test_welch_swap_negates_t():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(10)
    b = rng.standard_normal(14) + 0.3
    t1, df1, p1 = stats.welch_t(a, b)
    t2, df2, p2 = stats.welch_t(b, a)
    assert t1 == -t2
    assert df1 == df2
    assert p1 == p2


def test_welch_random_pairs_against_scipy():
    rng = np.random.default_rng(13)
    for _ in range(100):
        na, nb = rng.integers(3, 30, size=2)
        a = rng.standard_normal(na) * rng.uniform(0.5, 3.0)
        b = rng.standard_normal(nb) * rng.uniform(0.5, 3.0) + rng.uniform(-1, 1)
        t, df, p = stats.welch_t(a, b)
        res = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(res.statistic, rel=1e-10)
        assert df == pytest.approx(res.df, rel=1e-10)
        assert p == pytest.approx(res.pvalue, rel=1e-8, abs=1e-12)


def test_welch_zero_variance_conventions():
    a = np.array([2.0, 2.0, 2.0])
    b = np.array([2.0, 2.0, 2.0, 2.0])
    t, df, p = stats.welch_t(a, b)
    assert t == 0.0 and p == 1.0 and df == 5.0
    c = np.array([3.0, 3.0, 3.0])
    with pytest.warns(UserWarning):
        t, df, p = stats.welch_t(a, c)
    assert t == -np.inf and p == 0.0 and df == 4.0
    with pytest.warns(UserWarning):
        t, df, p = stats.welch_t(c, a)
    assert t == np.inf and p == 0.0


@pytest.mark.parametrize("x, y, n_b", [(0.1, 0.7, 3), (0.1, 0.1, 4), (1.0 / 3.0, 2.0, 3)])
def test_welch_zero_variance_is_all_values_equal(x, y, n_b):
    # Three copies of 0.1 compute a variance of 2.9e-34 and a mean of
    # 0.10000000000000002, four a mean of 0.1: the convention must not
    # hang on how the computed moments round.
    a, b = np.full(3, x), np.full(n_b, y)
    if x == y:
        assert stats.welch_t(a, b) == (0.0, 5.0, 1.0)
    else:
        with pytest.warns(UserWarning, match="zero variances"):
            assert stats.welch_t(a, b) == (-np.inf, 4.0, 0.0)
    # One constant side has zero variance, so only the other's enters.
    t, df, _ = stats.welch_t(a, np.array([0.0, 1.0, 2.0]))
    assert t == (x - 1.0) / math.sqrt(1.0 / 3.0) and df == 2.0


# Values whose products with 2**e, e in [-900, 900], stay normal doubles.
_WELCH_SAMPLES = st.lists(st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-30),
                          min_size=2, max_size=12)


# Equal values on each side take the zero-variance convention, which warns.
@pytest.mark.filterwarnings("ignore:welch_t. zero variances")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_WELCH_SAMPLES, b=_WELCH_SAMPLES, e=st.integers(-900, 900))
@example(a=[0.1, 0.3], b=[0.2, 0.7], e=-900)  # unscaled, the variances underflow
def test_welch_t_is_unchanged_bit_for_bit_by_a_common_power_of_two_scale(a, b, e):
    a, b = np.array(a), np.array(b)
    got = stats.welch_t(a * 2.0**e, b * 2.0**e)
    assert [x.hex() for x in got] == [x.hex() for x in stats.welch_t(a, b)]


def test_welch_needs_two_samples():
    with pytest.raises(ValueError):
        stats.welch_t(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        stats.welch_t(np.array([1.0, 2.0]), np.array([]))
    with pytest.raises(ValueError, match="finite samples"):
        stats.welch_t(np.array([1.0, np.inf]), np.array([1.0, 2.0]))


def test_bonferroni_boundary_inclusive():
    assert stats.bonferroni([0.05], fwer=0.05) == [True]
    assert stats.bonferroni([0.025, 0.026], fwer=0.05) == [True, False]
    assert stats.bonferroni([0.025, 0.025], fwer=0.05) == [True, True]
    with pytest.raises(ValueError):
        stats.bonferroni([], fwer=0.05)
    with pytest.raises(ValueError):
        stats.bonferroni([0.5], fwer=0.0)
    with pytest.raises(ValueError):
        stats.bonferroni([1.5], fwer=0.05)


def test_auto_checkpoints():
    cps = stats.auto_checkpoints(10_000, 10)
    assert cps == stats.auto_checkpoints(10_000, 10)
    assert len(cps) == 10
    assert cps[0] >= 10 and cps[-1] == 10_000
    assert all(c % 10 == 0 for c in cps)
    assert all(b > a for a, b in zip(cps, cps[1:]))
    short = stats.auto_checkpoints(30, 10)
    assert short == [10, 20, 30]


def test_run_multi_seed_deterministic_and_distinct():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    rs1 = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100,
                               n_seeds=4, master_seed=3, eval_every=10)
    rs2 = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100,
                               n_seeds=4, master_seed=3, eval_every=10)
    assert [t.seed for t in rs1] == [t.seed for t in rs2]
    assert len({t.seed for t in rs1}) == 4
    for t1, t2 in zip(rs1, rs2):
        np.testing.assert_array_equal(t1.loss, t2.loss)
        np.testing.assert_array_equal(t1.u_eval, t2.u_eval)
    # distinct seeds draw distinct factor sequences
    for i in range(3):
        assert not np.array_equal(rs1[i].u_eval, rs1[i + 1].u_eval, equal_nan=True)
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        stats.run_multi_seed(pb, sched, sf.constant(1.0), 100, n_seeds=0, master_seed=0)


def test_run_multi_seed_takes_one_seed():
    # run and envelope run a single seed through the same path as compare.
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    rs = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100, n_seeds=1, master_seed=3, eval_every=10)
    alone = optimizer.run(pb, sched, sf.uniform_root(0.3, 0.8), 100, eval_every=10, seed=optimizer.split_seed(3, 0))
    assert [t.seed for t in rs] == [alone.seed]
    np.testing.assert_array_equal(rs[0].min_grad_sq, alone.min_grad_sq)


@pytest.mark.parametrize("checkpoints, reason", [
    # A repeated k was tested twice and counted twice in the Bonferroni
    # divisor, which is the number of distinct tests.
    ([100, 100, 50], "checkpoints must be distinct, got 100 twice"),
    ([101], "checkpoints must be multiples of eval_every (10) in [0, 100], got 101"),
    ([10, 55], "checkpoints must be multiples of eval_every (10) in [0, 100], got 55"),
    ([], "need at least one checkpoint"),
], ids=["repeated", "past-horizon", "off-grid", "empty"])
def test_compare_checks_its_checkpoints(checkpoints, reason):
    # compare states the run-shape rule in optimizer.argument_error's text.
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    a, b = optimizer.run_paired(pb, sched, [sf.uniform_root(0.3, 0.8), sf.constant(1.0)], 100,
                                n_seeds=3, master_seed=3, eval_every=10)
    if checkpoints:
        assert optimizer.argument_error("checkpoints", checkpoints, 10, 100) == reason
    with pytest.raises(ValueError, match=re.escape(reason)):
        stats.compare(a, b, checkpoints=checkpoints)


def test_compare_checks_its_sides():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    a, b = optimizer.run_paired(pb, sched, [sf.uniform_root(0.3, 0.8), sf.constant(1.0)], 100,
                                n_seeds=3, master_seed=3, eval_every=10)
    mixed = [a[0], b[1], a[2]]
    with pytest.raises(ValueError, match="side a must hold the runs of one config"):
        stats.compare(mixed, b)
    with pytest.raises(ValueError, match="side b must hold the runs of one config"):
        stats.compare(a, mixed)
    with pytest.raises(ValueError, match="side b must hold the runs of one config"):
        stats.compare(a, [])
    # A repeated seed counted one run twice in n and in the Welch df.
    with pytest.raises(ValueError, match="requires distinct seeds"):
        stats.compare([a[0], a[0], a[1]], [b[0], b[0], b[1]])


def test_compare_identical_sets_all_ones():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    rs = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100,
                              n_seeds=4, master_seed=3, eval_every=10)
    rep = stats.compare(rs, rs, metric="loss")
    assert rep.checkpoints == stats.auto_checkpoints(100, 10)
    assert all(p == 1.0 for p in rep.p)
    assert all(t == 0.0 for t in rep.t)
    assert not any(rep.significant)


def test_compare_requires_matching_shapes():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    rs_a = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100,
                                n_seeds=3, master_seed=3, eval_every=10)
    rs_long = stats.run_multi_seed(pb, sched, sf.constant(1.0), 200,
                                   n_seeds=3, master_seed=3, eval_every=10)
    with pytest.raises(ValueError):
        stats.compare(rs_a, rs_long)
    rs_other_seed = stats.run_multi_seed(pb, sched, sf.constant(1.0), 100,
                                         n_seeds=3, master_seed=4, eval_every=10)
    with pytest.raises(ValueError):
        stats.compare(rs_a, rs_other_seed)
    with pytest.raises(ValueError):
        stats.compare(rs_a, rs_a, metric="final_x")


def test_compare_excludes_diverged_runs():
    # eta * L = 10 >> 2 blows the iterate up within a few steps
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    hot = StepSizeSchedule("constant", 1.0)
    cool = StepSizeSchedule("constant", 0.01)
    rs_hot = stats.run_multi_seed(pb, hot, sf.constant(1.0), 100,
                                  n_seeds=3, master_seed=1, eval_every=10)
    assert all(t.diverged for t in rs_hot)
    rs_cool = stats.run_multi_seed(pb, cool, sf.constant(1.0), 100,
                                   n_seeds=3, master_seed=1, eval_every=10)
    with pytest.raises(ValueError, match="non-diverged"):
        stats.compare(rs_hot, rs_cool)


def test_compare_golden_regression():
    # frozen end-to-end reference for the paired pipeline
    pb = problems.make_quadratic(dim=5, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    a = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 400,
                             n_seeds=6, master_seed=11, eval_every=10)
    b = stats.run_multi_seed(pb, sched, sf.constant(1.0), 400,
                             n_seeds=6, master_seed=11, eval_every=10)
    rep = stats.compare(a, b, metric="min_grad_sq", checkpoints=[100, 400])
    assert rep.checkpoints == [100, 400]
    np.testing.assert_allclose(rep.t, [7.4981074281180176, 7.6428881905110675], rtol=1e-10)
    np.testing.assert_allclose(rep.df, [6.3649484825689457, 6.4097613008391017], rtol=1e-10)
    np.testing.assert_allclose(rep.p, [0.0002194887229270692, 0.00018974543581746239], rtol=1e-8)
    np.testing.assert_allclose(rep.mean_a, [0.31851753263669835, 0.15177705512666817], rtol=1e-12)
    np.testing.assert_allclose(rep.mean_b, [0.18809514870905855, 0.095587603380527589], rtol=1e-12)
    assert rep.significant == [True, True]
    assert rep.wins_a == [0, 0]
    assert rep.n_a == 6 and rep.n_b == 6
    assert rep.excluded_a == 0 and rep.excluded_b == 0


def test_compare_paired_streams_verified():
    # Sides run separately on one problem, or on an equal problem built
    # twice, step on one gradient stream per seed: the pairing holds.
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    a = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100,
                             n_seeds=3, master_seed=7, eval_every=10)
    for problem in (pb, problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)):
        b = stats.run_multi_seed(problem, sched, sf.constant(1.0), 100,
                                 n_seeds=3, master_seed=7, eval_every=10)
        assert stats.compare(a, b).n_b == 3


@pytest.mark.parametrize("pb, other", [
    (problems.make_quadratic(dim=2, cond=10.0, sigma=0.1), problems.make_quadratic(dim=2, cond=10.0, sigma=0.2)),
    (problems.make_logreg_nonconvex(n=30, d=2, reg=0.1, seed=2),
     problems.make_logreg_nonconvex(n=30, d=2, reg=0.1, seed=3)),
], ids=["quadratic-sigma", "logreg-data"])
def test_compare_refuses_sides_run_on_another_problem(pb, other):
    # Sides run separately on problems that differ only in the gradient
    # noise (sigma) or in the data (logreg's seed, with the same n and so
    # the same summand indices) share their seeds, not their gradient noise.
    sched = StepSizeSchedule("inverse_k", 0.1)
    spec = sf.uniform_root(0.3, 0.8)
    a = stats.run_multi_seed(pb, sched, spec, 100, n_seeds=3, master_seed=7, eval_every=10)
    b = stats.run_multi_seed(other, sched, spec, 100, n_seeds=3, master_seed=7, eval_every=10)
    with pytest.raises(ValueError, match="one problem") as err:
        stats.compare(a, b)
    assert str(pb.params) in str(err.value) and str(other.params) in str(err.value)
    # The problem is checked before the count of runs to test.
    with pytest.raises(ValueError, match="one problem"):
        stats.compare(a[:1], b[:1])
