import numpy as np
import pytest
import scipy.special
import scipy.stats

from slrlab import problems, sf, stats
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


def test_t_zero_gives_exactly_one():
    for df in (1.0, 2.5, 10.0, 200.0):
        assert stats.t_two_sided_p(0.0, df) == 1.0


def test_t_p_monotone_in_magnitude():
    df = 7.0
    ts = np.linspace(0.0, 6.0, 40)
    ps = [stats.t_two_sided_p(t, df) for t in ts]
    assert all(ps[i] >= ps[i + 1] for i in range(len(ps) - 1))
    assert stats.t_two_sided_p(3.0, df) == stats.t_two_sided_p(-3.0, df)


def test_t_p_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = rng.uniform(-8.0, 8.0)
        df = rng.uniform(1.0, 100.0)
        ref = 2.0 * scipy.stats.t.sf(abs(t), df)
        assert stats.t_two_sided_p(t, df) == pytest.approx(ref, abs=1e-10)


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


def test_welch_needs_two_samples():
    with pytest.raises(ValueError):
        stats.welch_t(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        stats.welch_t(np.array([1.0, 2.0]), np.array([]))


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
    assert rs1.seeds == rs2.seeds
    assert len(set(rs1.seeds)) == 4
    for t1, t2 in zip(rs1.trajectories, rs2.trajectories):
        np.testing.assert_array_equal(t1.loss, t2.loss)
        np.testing.assert_array_equal(t1.u_series, t2.u_series)
    # distinct seeds draw distinct factor sequences
    for i in range(3):
        assert not np.array_equal(rs1.trajectories[i].u_series,
                                  rs1.trajectories[i + 1].u_series)
    with pytest.raises(ValueError):
        stats.run_multi_seed(pb, sched, sf.constant(1.0), 100, n_seeds=1, master_seed=0)
    with pytest.raises(ValueError):
        stats.run_multi_seed(pb, sched, sf.constant(1.0), 100, n_seeds=2,
                             master_seed=0, checkpoints=[101])
    with pytest.raises(ValueError, match="checkpoints must be distinct, got 100 twice"):
        stats.run_paired(pb, sched, [sf.constant(1.0)], 100, n_seeds=2, master_seed=0,
                         checkpoints=[100, 100, 50])


def test_compare_rejects_a_repeated_checkpoint():
    # A repeated k was tested twice and counted twice in the Bonferroni
    # divisor, which is the number of distinct tests.
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    a, b = stats.run_paired(pb, sched, [sf.uniform_root(0.3, 0.8), sf.constant(1.0)], 100,
                            n_seeds=3, master_seed=3, eval_every=10, checkpoints=[50, 100])
    a.checkpoints = b.checkpoints = [100, 100, 50]
    with pytest.raises(ValueError, match="checkpoints must be distinct, got 100 twice"):
        stats.compare(a, b)


def test_compare_identical_sets_all_ones():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    rs = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100,
                              n_seeds=4, master_seed=3, eval_every=10)
    rep = stats.compare(rs, rs, metric="loss")
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
    assert all(t.diverged for t in rs_hot.trajectories)
    rs_cool = stats.run_multi_seed(pb, cool, sf.constant(1.0), 100,
                                   n_seeds=3, master_seed=1, eval_every=10)
    with pytest.raises(ValueError, match="non-diverged"):
        stats.compare(rs_hot, rs_cool)


def test_compare_golden_regression():
    # frozen end-to-end reference for the paired pipeline
    pb = problems.make_quadratic(dim=5, cond=10.0, sigma=0.2, seed=0)
    sched = StepSizeSchedule("inverse_k", 0.2)
    a = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 400,
                             n_seeds=6, master_seed=11, eval_every=10,
                             checkpoints=[100, 400])
    b = stats.run_multi_seed(pb, sched, sf.constant(1.0), 400,
                             n_seeds=6, master_seed=11, eval_every=10,
                             checkpoints=[100, 400])
    rep = stats.compare(a, b, metric="min_grad_sq")
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
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    a = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100,
                             n_seeds=3, master_seed=7, eval_every=10)
    b = stats.run_multi_seed(pb, sched, sf.constant(1.0), 100,
                             n_seeds=3, master_seed=7, eval_every=10)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert ta.grad_stream_digest == tb.grad_stream_digest
