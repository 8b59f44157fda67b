import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slrlab import cli_io, harness, optimizer, problems, sf, validator
from slrlab.harness import Verdict
from slrlab.optimizer import StepSizeSchedule
from slrlab.validator import TheoremCase


def test_gk_single_observation():
    g = harness.gk_sequence(np.array([4.0]), StepSizeSchedule("inverse_k", 1.0))
    np.testing.assert_array_equal(g, [4.0, 4.0])


def test_gk_two_observations_exact():
    # w_0 = 2 forces g_1 = y_0; w_1 = 2*(1/2)/(3/2) = 2/3 gives
    # g_2 = (1/3)*4 + (2/3)*1 = 2 exactly
    g = harness.gk_sequence(np.array([4.0, 1.0]), StepSizeSchedule("inverse_k", 1.0))
    np.testing.assert_array_equal(g, [4.0, 4.0, 2.0])


def test_gk_first_weight_is_two_regardless_of_schedule():
    for sched in (StepSizeSchedule("constant", 0.3),
                  StepSizeSchedule("inverse_k", 2.0),
                  StepSizeSchedule("inverse_sqrt_k", 0.7)):
        g = harness.gk_sequence(np.array([7.0, 3.0, 5.0]), sched)
        assert g[0] == 7.0 and g[1] == 7.0


def test_gk_dominates_running_min():
    rng = np.random.default_rng(0)
    y = rng.uniform(0.1, 5.0, size=200)
    g = harness.gk_sequence(y, StepSizeSchedule("inverse_k", 1.0))
    for k in range(1, len(g)):
        assert g[k] >= y[:k].min() - 1e-12


def test_gk_invariant_under_schedule_rescale():
    rng = np.random.default_rng(1)
    y = rng.uniform(0.1, 5.0, size=300)
    a = harness.gk_sequence(y, StepSizeSchedule("inverse_k", 0.1))
    b = harness.gk_sequence(y, StepSizeSchedule("inverse_k", 1.0))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_gk_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        harness.gk_sequence(np.array([]), StepSizeSchedule("inverse_k", 1.0))
    with pytest.raises(ValueError):
        harness.gk_sequence(np.array([1.0, np.nan]), StepSizeSchedule("inverse_k", 1.0))
    with pytest.raises(ValueError, match="must be >= 0"):
        harness.gk_sequence(np.array([1.0, -0.5]), StepSizeSchedule("inverse_k", 1.0))


def test_attach_gk_on_run():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    traj = optimizer.run(pb, sched, sf.uniform_root(0.3, 0.8),
                         iterations=400, eval_every=10, seed=6)
    g = harness.attach_gk(traj, sched)
    assert g.shape == traj.grad_norm_sq.shape
    assert np.isfinite(g).all()
    # at recorded points past the first, the average dominates the best seen
    for i in range(1, len(g)):
        assert g[i] >= traj.grad_norm_sq[:i].min() - 1e-12


def gk_per_point(values, ks, schedule):
    """The g-recurrence one point at a time, on numpy scalars."""
    eta = optimizer.step_sizes(schedule, int(ks[-1]) + 1)
    csum = np.cumsum(eta)
    g = np.empty(len(values) + 1)
    g[0] = values[0]
    for i, k in enumerate(ks):
        w = 2.0 * eta[k] / csum[k]
        g[i + 1] = (1.0 - w) * g[i] + w * values[i]
    return g


@pytest.mark.parametrize("family", optimizer.SCHEDULE_FAMILIES)
@pytest.mark.parametrize("eval_every", [1, 7])
def test_gk_bits_equal_the_per_point_recurrence(family, eval_every):
    # Values over six decades: another order of the same operations, such
    # as g + w * (y - g), rounds differently and fails this.
    sched = StepSizeSchedule(family, 0.37)
    rng = np.random.default_rng(eval_every)
    y = rng.uniform(0.1, 5.0, size=700) * 10.0 ** rng.integers(-3, 3, size=700)
    assert harness.gk_sequence(y, sched).tobytes() == gk_per_point(y, np.arange(700), sched).tobytes()
    ks = np.arange(700) * eval_every
    assert harness.gk_sequence(y, sched, ks).tobytes() == gk_per_point(y, ks, sched).tobytes()

    traj = optimizer.run(problems.make_quadratic(dim=3, cond=10.0, sigma=0.5), sched,
                         sf.uniform_root(0.3, 0.8), iterations=70 * eval_every, eval_every=eval_every, seed=2)
    # The trailing rows, as after divergence, are non-finite and excluded.
    traj.grad_norm_sq = traj.grad_norm_sq.copy()
    traj.grad_norm_sq[-2:] = [np.inf, np.nan]
    want = np.full(len(traj.grad_norm_sq), np.nan)
    want[:-2] = gk_per_point(traj.grad_norm_sq[:-2], traj.eval_points[:-2], sched)[:-1]
    assert harness.attach_gk(traj, sched).tobytes() == want.tobytes()


# Every finite eta > 0, subnormals included.
DOUBLE_MAX = np.finfo(float).max
any_eta = st.floats(min_value=5e-324, max_value=DOUBLE_MAX, allow_subnormal=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eta=any_eta, value=any_eta, family=st.sampled_from(optimizer.SCHEDULE_FAMILIES),
       case=st.sampled_from(list(TheoremCase)))
@example(eta=1e308, value=1e-300, family="constant", case=TheoremCase.CASE_11B)
@example(eta=5e-324, value=5e-324, family="inverse_k", case=TheoremCase.CASE_11A)
@example(eta=1e160, value=1.0, family="constant", case=TheoremCase.CASE_12)
def test_step_size_series_warn_nowhere_in_the_double_range(eta, value, family, case):
    # Beyond the range of a double a sum or an envelope reads inf or 0,
    # the value it stands for, and nothing warns.
    sched = StepSizeSchedule(family, eta)
    ks = np.arange(1, 301)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimizer.step_sums(sched, 300)
        g = harness.gk_sequence(np.linspace(0.1, 5.0, 300), sched)
        validator.check_assumption2(sched, 300)
        harness.envelope_series(case, sf.constant(value), sched, ks)
    assert np.isfinite(g).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eta=st.floats(0.5, 1.0, exclude_max=True), shift=st.integers(-1030, 1024),
       family=st.sampled_from(optimizer.SCHEDULE_FAMILIES))
@example(eta=math.frexp(1e308)[0], shift=0, family="constant")
def test_gk_bits_do_not_depend_on_the_scale_of_eta(eta, shift, family):
    ks = np.arange(0, 3000, 10)
    y = np.random.default_rng(3).uniform(0.1, 5.0, size=len(ks))
    g = harness.gk_sequence(y, StepSizeSchedule(family, eta), ks)
    # In the top binade, 1e308 included, S_k overflows from k = 2; the
    # weights do not.
    assert g.tobytes() == harness.gk_sequence(y, StepSizeSchedule(family, math.ldexp(eta, 1024)), ks).tobytes()
    # Scaling eta by 2^shift is exact: where every eta_k and S_k stays a
    # normal double, the weights and so g_k keep their bits.
    scaled = StepSizeSchedule(family, math.ldexp(eta, shift))
    assume(optimizer.step_sizes(scaled, 3000).min() >= np.finfo(float).tiny
           and optimizer.step_sums(scaled, 3000)[-1] < math.inf)
    assert harness.gk_sequence(y, scaled, ks).tobytes() == g.tobytes()
    assert gk_per_point(y, ks, scaled).tobytes() == g.tobytes()


def test_envelope_deterministic_case_is_inverse_sum():
    sched = StepSizeSchedule("inverse_k", 1.0)
    spec = sf.constant(1.0)
    # S_3 = 1 + 1/2 + 1/3
    val = harness.envelope_series(TheoremCase.DETERMINISTIC, spec, sched, [3]).values[0]
    assert val == pytest.approx(1.0 / (1 + 0.5 + 1 / 3), rel=1e-15)


def test_envelope_constant_unit_factor_collapses_to_baseline():
    sched = StepSizeSchedule("inverse_k", 0.5)
    ks = np.arange(1, 200)
    base = harness.envelope_series(TheoremCase.DETERMINISTIC, sf.constant(1.0), sched, ks)
    for case in (TheoremCase.CASE_11B, TheoremCase.CASE_12):
        env = harness.envelope_series(case, sf.constant(1.0), sched, ks)
        np.testing.assert_array_equal(env.values, base.values)


def test_envelope_case12_worked_value():
    # k = 2, eta = 1/(k+1), roots of (0.3, 0.8):
    # S_2 = 1 + 1/2, E[u_2] and V[u_2] from the closed forms
    spec = sf.uniform_root(0.3, 0.8)
    sched = StepSizeSchedule("inverse_k", 1.0)
    lo, hi = 0.3 ** (1 / 3), 0.8 ** (1 / 3)
    mean = (lo + hi) / 2
    var = (hi - lo) ** 2 / 12
    expected = (mean - var) / 1.5
    val = harness.envelope_series(TheoremCase.CASE_12, spec, sched, [2]).values[0]
    assert val == pytest.approx(expected, rel=1e-15)
    assert val == pytest.approx(0.5288601640300792, rel=1e-12)


def test_envelope_case12_beats_baseline():
    spec = sf.uniform_root(0.3, 0.8)
    sched = StepSizeSchedule("inverse_k", 1.0)
    ks = np.arange(1, 1000)
    env = harness.envelope_series(TheoremCase.CASE_12, spec, sched, ks)
    base = harness.envelope_series(TheoremCase.DETERMINISTIC, spec, sched, ks)
    assert (env.values < base.values).all()


def test_envelope_case11b_divides_by_mean():
    spec = sf.uniform_root(2.0, 4.0)
    sched = StepSizeSchedule("constant", 0.1)
    k = 5
    prof = sf.moment_profile(spec, k)
    expected = 1.0 / (prof.mean[k] * (0.1 * 5))
    val = harness.envelope_series(TheoremCase.CASE_11B, spec, sched, [k]).values[0]
    assert val == pytest.approx(expected, rel=1e-15)


def test_envelope_case11a_gap_formula():
    # wide super-one roots early on keep mean - variance > 0
    spec = sf.uniform_root(2.0, 3.0)
    sched = StepSizeSchedule("constant", 0.05)
    k = 4
    prof = sf.moment_profile(spec, k)
    gap = prof.mean[k] - prof.variance[k]
    expected = 1.0 / (gap * (0.05 * 4))
    val = harness.envelope_series(TheoremCase.CASE_11A, spec, sched, [k]).values[0]
    assert val == pytest.approx(expected, rel=1e-15)


def test_envelope_rejects_nonpositive_gap():
    # at k = 1 the support (0.01, 10) has variance far above the mean
    spec = sf.uniform_root(0.0001, 100.0)
    sched = StepSizeSchedule("inverse_k", 1.0)
    with pytest.raises(ValueError, match="k="):
        harness.envelope_series(TheoremCase.CASE_11A, spec, sched, [1])
    with pytest.raises(ValueError, match="k="):
        harness.envelope_series(TheoremCase.CASE_12, spec, sched, [1])


def test_envelope_requires_positive_k():
    spec = sf.constant(1.0)
    sched = StepSizeSchedule("inverse_k", 1.0)
    with pytest.raises(ValueError):
        harness.envelope_series(TheoremCase.DETERMINISTIC, spec, sched, [0])
    with pytest.raises(ValueError):
        harness.envelope_series(TheoremCase.DETERMINISTIC, spec, sched, np.array([0, 1]))
    with pytest.raises(ValueError, match="ks must be non-empty"):
        harness.envelope_series(TheoremCase.DETERMINISTIC, spec, sched, [])


@pytest.mark.parametrize("case", list(TheoremCase))
def test_envelope_from_a_longer_profile_has_the_same_bits(case):
    spec = sf.uniform_root(0.3, 0.8)
    sched = StepSizeSchedule("inverse_sqrt_k", 0.4)
    ks = np.arange(1, 3000, 7)
    want = harness.envelope_series(case, spec, sched, ks)
    got = harness.envelope_series(case, sf.moment_profile(spec, 5000), sched, ks)
    assert got.values.tobytes() == want.values.tobytes()
    with pytest.raises(ValueError, match="moment profile ends at k=2000"):
        harness.envelope_series(case, sf.moment_profile(spec, 2000), sched, ks)


def test_trajectory_envelope_alignment(tmp_path):
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    spec = sf.uniform_root(0.3, 0.8)
    traj = optimizer.run(pb, sched, spec, iterations=100, eval_every=10, seed=2)
    env = harness.trajectory_envelope(traj, TheoremCase.CASE_12, spec, sched)
    np.testing.assert_array_equal(env.ks, traj.eval_points[1:])
    # The CSV's step sums are the envelope's own: its 1 / S_k column is the
    # deterministic envelope, bit for bit.
    cli_io.write_trajectory_csv(traj, tmp_path / "t.csv", sched)
    det = harness.trajectory_envelope(traj, TheoremCase.DETERMINISTIC, spec, sched)
    assert cli_io.read_trajectory_csv(tmp_path / "t.csv")["envelope_det"][1:].tobytes() == det.values.tobytes()


def _flat_env(ks):
    return harness.RateEnvelope(ks=ks, values=np.ones(len(ks)))


def test_little_o_flat_ratios_inconclusive():
    ks = np.arange(1, 2001)
    diag = harness.little_o_diagnostic(np.ones(2000), _flat_env(ks), 100, 2000)
    assert diag.verdict is Verdict.INCONCLUSIVE
    assert diag.window_slope == pytest.approx(0.0, abs=1e-12)


def test_little_o_decaying_ratios_consistent():
    ks = np.arange(1, 2001)
    vals = 1.0 / ks  # ratio = min_grad / env = 1/k
    diag = harness.little_o_diagnostic(vals.astype(float), _flat_env(ks), 100, 2000)
    assert diag.verdict is Verdict.CONSISTENT
    assert diag.window_slope == pytest.approx(-1.0, abs=1e-6)
    assert diag.r_hi < diag.r_lo


def test_little_o_growing_ratios_violation():
    ks = np.arange(1, 2001)
    vals = ks.astype(float)  # ratio grows linearly
    diag = harness.little_o_diagnostic(vals, _flat_env(ks), 100, 2000)
    assert diag.verdict is Verdict.VIOLATION
    assert diag.r_hi > 2 * diag.r_lo


def test_little_o_mild_growth_stays_inconclusive():
    ks = np.arange(1, 2001)
    vals = ks.astype(float) ** 0.01
    diag = harness.little_o_diagnostic(vals, _flat_env(ks), 100, 2000)
    assert diag.verdict is Verdict.INCONCLUSIVE


def test_little_o_window_validation():
    ks = np.arange(1, 101)
    env = _flat_env(ks)
    with pytest.raises(ValueError):
        harness.little_o_diagnostic(np.ones(100), env, 50, 40)  # k_lo >= k_hi
    with pytest.raises(ValueError):
        harness.little_o_diagnostic(np.ones(100), env, 200, 300)  # outside grid
    with pytest.raises(ValueError):
        harness.little_o_diagnostic(np.ones(99), env, 10, 90)  # misaligned lengths


def test_little_o_on_real_run():
    pb = problems.make_quadratic(dim=5, cond=10.0, sigma=0.0)
    sched = StepSizeSchedule("inverse_k", 0.1)
    spec = sf.uniform_root(0.3, 0.8)
    traj = optimizer.run(pb, sched, spec, iterations=20_000, eval_every=10, seed=1)
    env = harness.trajectory_envelope(traj, TheoremCase.CASE_12, spec, sched)
    diag = harness.little_o_diagnostic(traj.min_grad_sq[1:], env, 200, 20_000)
    assert diag.verdict is Verdict.CONSISTENT
