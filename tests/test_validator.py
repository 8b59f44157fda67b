import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrlab import lambert, sf, validator
from slrlab.optimizer import StepSizeSchedule
from slrlab.validator import TheoremCase


def test_classify_regimes():
    assert validator.classify_prop1(2.0, 4.0).label == "a"
    assert validator.classify_prop1(0.3, 0.8).label == "b"
    assert validator.classify_prop1(0.5, 0.9).label == "b"
    assert validator.classify_prop1(0.4, 3.0).label == "d"  # 3 > 1/0.4
    assert validator.classify_prop1(0.5, 1.5).label == "none"  # between 1 and 1/c1, off curve
    boundary = lambert.umslr_case_c_c2(0.5)
    assert validator.classify_prop1(0.5, boundary).label == "c"
    # just off the curve the label collapses to none
    assert validator.classify_prop1(0.5, boundary + 1e-6).label == "none"


def test_classify_reports_numeric_direction_not_the_label():
    res = validator.classify_prop1(2.0, 4.0)
    assert res.mean_direction is sf.Direction.DECREASING
    res = validator.classify_prop1(0.3, 0.8)
    assert res.mean_direction is sf.Direction.INCREASING
    # regime d with c1*c2 > 1: monotone as the regime promises, direction
    # measured from the closed forms
    res = validator.classify_prop1(0.4, 3.0)
    assert res.mean_direction in (sf.Direction.INCREASING, sf.Direction.DECREASING)


def test_mean_direction_allows_equal_neighbours_unlike_the_strict_gates():
    assert sf._direction(np.array([1.0, 2.0, 2.0, 3.0])) is sf.Direction.INCREASING
    # Over 10000 steps the mean of uniform_root(1, 1 + 1e-12) never rises
    # and mostly stays put: the direction reads decreasing, but case11b's
    # strict gate fails at the first equal pair.
    c2 = 1.0 + 1e-12
    assert validator.classify_prop1(1.0, c2).mean_direction is sf.Direction.DECREASING
    profile = sf.moment_profile(sf.uniform_root(1.0, c2), validator.PROP1_HORIZON)
    steps = np.diff(profile.mean)
    assert len(steps) == 10000 and (steps == 0).sum() == 9907 and not (steps > 0).any()
    gate = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_11B, 1.0, 1.0,
                                                 StepSizeSchedule("inverse_k", 0.1)))["mean_decreasing"]
    assert not gate.holds and gate.first_violation_k == 51


def test_classify_rejects_bad_pairs():
    with pytest.raises(ValueError):
        validator.classify_prop1(0.5, 0.5)
    with pytest.raises(ValueError):
        validator.classify_prop1(0.8, 0.3)
    with pytest.raises(ValueError):
        validator.classify_prop1(0.0, 0.5)


def _by_name(reports):
    return {r.condition_name: r for r in reports}


def test_assumption2_inverse_k_all_hold():
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        validator.check_assumption2(StepSizeSchedule("inverse_k", 0.5), 1)
    reports = validator.check_assumption2(StepSizeSchedule("inverse_k", 0.5), 1000)
    assert len(reports) == 4
    assert all(r.holds for r in reports)


def test_assumption2_constant_fails_decrease_and_square_sum():
    by = _by_name(validator.check_assumption2(StepSizeSchedule("constant", 0.1), 1000))
    assert not by["step_decreasing"].holds
    assert by["step_decreasing"].first_violation_k == 1
    assert by["step_sum_diverges"].holds
    assert not by["step_square_sum_converges"].holds
    assert by["step_ratio_sum_diverges"].holds


def test_pairwise_report_prints_plain_floats():
    # numpy 2 reprs a numpy scalar as np.float64(0.1); the detail must not
    # depend on the numpy version.
    rep = _by_name(validator.check_assumption2(StepSizeSchedule("constant", 0.1), 1000))["step_decreasing"]
    assert "(value 0.1 after 0.1)" in rep.detail
    assert "np." not in rep.detail


def test_assumption2_inverse_sqrt_fails_square_sum_only():
    by = _by_name(validator.check_assumption2(StepSizeSchedule("inverse_sqrt_k", 1.0), 1000))
    assert by["step_decreasing"].holds
    assert by["step_sum_diverges"].holds
    assert not by["step_square_sum_converges"].holds
    assert by["step_ratio_sum_diverges"].holds


def test_theorem_case12_uniform_root_passes():
    profile = sf.moment_profile(sf.uniform_root(0.3, 0.8), 2000)
    sched = StepSizeSchedule("inverse_k", 1.0)
    reports = validator.check_theorem_case(profile, TheoremCase.CASE_12, B=1.0, L=1.0, schedule=sched)
    assert len(reports) == 5
    assert all(r.holds for r in reports)


def test_theorem_case12_constant_sf_fails_mean_increasing():
    profile = sf.moment_profile(sf.constant(1.0), 100)
    sched = StepSizeSchedule("inverse_k", 1.0)
    by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_12, 1.0, 1.0, sched))
    assert not by["mean_increasing"].holds
    assert by["mean_increasing"].first_violation_k == 1


def test_theorem_case11a_uniform_root_fails_with_first_k():
    # no uniform-root pair has increasing variance alongside decreasing mean
    profile = sf.moment_profile(sf.uniform_root(0.3, 0.8), 100)
    sched = StepSizeSchedule("inverse_k", 1.0)
    by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_11A, 1.0, 1.0, sched))
    assert not by["mean_decreasing"].holds
    assert by["mean_decreasing"].first_violation_k == 1
    assert not by["mean_exceeds_variance_plus_one"].holds
    assert by["mean_exceeds_variance_plus_one"].first_violation_k == 0


# Factor values log-spaced over [1e-300, 1e300].
_LOG_SPACED = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(c=st.lists(_LOG_SPACED, min_size=2, max_size=2, unique=True).map(sorted), value=_LOG_SPACED,
       horizon=st.integers(1, 30))
def test_no_factor_law_passes_both_case11a_moment_gates(c, value, horizon):
    # With w_k = c2^(1/(k+1)) - c1^(1/(k+1)), Var increases from k = 0 to 1
    # only if sqrt(c1) + sqrt(c2) < 1; then c2 < 1, so E[u_0] < 1 fails
    # E > Var + 1.  A constant's variance is 0 at every k, never increasing.
    sched = StepSizeSchedule("constant", 1e-301)  # below every step bound
    for spec in (sf.uniform_root(*c), sf.constant(value)):
        profile = sf.moment_profile(spec, horizon)
        by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_11A, 1.0, 1.0, sched))
        assert by["step_bound_mean"].holds
        assert not (by["variance_increasing"].holds and by["mean_exceeds_variance_plus_one"].holds)


def test_theorem_case_counts_on_a_log_grid_of_uniform_root_laws():
    # Every pair c1 < c2 of a 60-point log grid over [1e-6, 1e3], horizon
    # 200, B = L = 1 and eta 1e-9, so that no step bound binds: the number
    # of laws for which every gate of each case holds.
    grid = np.logspace(-6, 3, 60)
    sched = StepSizeSchedule("inverse_k", 1e-9)
    counts = dict.fromkeys(TheoremCase, 0)
    for i, c1 in enumerate(grid):
        for c2 in grid[i + 1:]:
            profile = sf.moment_profile(sf.uniform_root(c1, c2), 200)
            for case in TheoremCase:
                counts[case] += all(r.holds for r in validator.check_theorem_case(profile, case, 1.0, 1.0, sched))
    assert {case.value: n for case, n in counts.items()} == {
        "case11a": 0, "case11b": 407, "case12": 35, "deterministic": 1770}


def test_theorem_case11b_super_one_roots():
    profile = sf.moment_profile(sf.uniform_root(2.0, 4.0), 1000)
    # sup over all k of the support upper bound is c2 = 4
    sched_ok = StepSizeSchedule("constant", 1.0 / (1.0 * 2.0 * 4.0))
    by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_11B, 1.0, 2.0, sched_ok))
    assert by["mean_decreasing"].holds
    assert by["step_bound_sup_support"].holds
    sched_hot = StepSizeSchedule("constant", 0.2)
    by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_11B, 1.0, 2.0, sched_hot))
    assert not by["step_bound_sup_support"].holds
    assert by["step_bound_sup_support"].first_violation_k == 0


def test_theorem_case11b_sub_one_roots_use_analytic_sup():
    # upper bounds rise toward 1, so the bound divides by 1, not the
    # finite-horizon max
    profile = sf.moment_profile(sf.uniform_root(0.3, 0.8), 100)
    sched = StepSizeSchedule("constant", 1.0)  # eta = 1/(B*L*1) exactly
    by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_11B, 1.0, 1.0, sched))
    assert by["step_bound_sup_support"].holds


def test_theorem_step_bound_violation_indexed():
    profile = sf.moment_profile(sf.uniform_root(0.3, 0.8), 100)
    sched = StepSizeSchedule("inverse_k", 2.0)  # eta_0 = 2 > 1/(B*L) = 1
    by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_12, 1.0, 1.0, sched))
    assert not by["step_bound_global"].holds
    assert by["step_bound_global"].first_violation_k == 0


def test_theorem_deterministic_case():
    profile = sf.moment_profile(sf.constant(1.0), 100)
    sched = StepSizeSchedule("inverse_k", 1.0)
    reports = validator.check_theorem_case(profile, TheoremCase.DETERMINISTIC, 1.0, 1.0, sched)
    assert len(reports) == 1 and reports[0].holds


def test_theorem_horizon_must_fit_profile():
    profile = sf.moment_profile(sf.uniform_root(0.3, 0.8), 50)
    with pytest.raises(ValueError):
        validator.check_theorem_case(profile, TheoremCase.CASE_12, 1.0, 1.0,
                                     StepSizeSchedule("inverse_k", 1.0), horizon=100)


@pytest.mark.parametrize("horizon", [-5, 0, 101])
def test_theorem_horizon_outside_the_profile_is_rejected(horizon):
    # A negative horizon used to check mean[:horizon + 1] against an empty
    # step series and report every gate as holding.
    profile = sf.moment_profile(sf.uniform_root(0.3, 0.8), 100)
    for family in ("inverse_k", "constant"):
        with pytest.raises(ValueError, match=f"got horizon={horizon}$"):
            validator.check_theorem_case(profile, TheoremCase.CASE_12, 1.0, 1.0,
                                         StepSizeSchedule(family, 1.0), horizon=horizon)
    assert len(validator.check_theorem_case(profile, TheoremCase.CASE_12, 1.0, 1.0,
                                            StepSizeSchedule("inverse_k", 1.0), horizon=1)) == 5


@pytest.mark.parametrize("B, L", [
    (1e-200, 1e-200), (1e-200, 1e-180), (np.nan, 1.0), (1.0, np.nan),
    (np.inf, 1.0), (1.0, np.inf), (0.0, 1.0), (1.0, -1.0),
])
@pytest.mark.parametrize("case", list(TheoremCase), ids=lambda c: c.value)
def test_theorem_case_rejects_bad_B_L(case, B, L):
    # Every step bound divides by B * L: a product that underflows to 0, or
    # a nan or inf, is an input error, not a failed gate.
    profile = sf.moment_profile(sf.uniform_root(0.3, 0.8), 50)
    sched = StepSizeSchedule("inverse_k", 1.0)
    with pytest.raises(ValueError, match=r"^B and L must be finite and > 0, with B \* L > 0; got B="):
        validator.check_theorem_case(profile, case, B, L, sched)
    # A small pair whose product is still positive is accepted.
    assert validator.check_theorem_case(profile, case, 1e-150, 1e-150, sched)


def test_case11a_consistency_guard_on_synthetic_profile():
    # hand-built profile satisfying all case11a moment conditions
    k = np.arange(101.0)
    mean = 2.5 - 0.5 * k / 100.0
    var = 0.1 + 0.5 * k / 100.0
    profile = sf.MomentProfile(
        k_max=100, mean=mean, variance=var, sup_support_limit=3.0, mean_direction=sf.Direction.DECREASING,
    )
    sched = StepSizeSchedule("inverse_k", 0.1)
    reports = validator.check_theorem_case(profile, TheoremCase.CASE_11A, 1.0, 1.0, sched)
    assert all(r.holds for r in reports)
    # the guard the checker asserts internally must hold here too
    assert (var < mean).all() and (mean >= 1.0).all()


# A case11a profile on which every gate holds, as in the test above; the
# tests below break it so that each check first fails at k = 37, deeper
# than any failure in the golden theorem cases.
_K = np.arange(101.0)


def _profile(mean=2.5 - 0.005 * _K, variance=0.1 + 0.005 * _K):
    return sf.MomentProfile(k_max=100, mean=mean, variance=variance, sup_support_limit=3.0,
                            mean_direction=sf.Direction.DECREASING)


def test_neighbour_conditions_fail_at_the_right_element_of_the_first_bad_pair():
    # From k = 37 on the mean is raised and the variance lowered: the pair (36, 37) breaks both trends.
    profile = _profile(2.5 - 0.005 * _K + 0.01 * (_K >= 37), 0.1 + 0.005 * _K - 0.02 * (_K >= 37))
    by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_11A, 1.0, 1.0,
                                               StepSizeSchedule("inverse_k", 0.1)))
    m, v = profile.mean.tolist(), profile.variance.tolist()
    assert by["mean_decreasing"] == validator.ConditionReport(
        "mean_decreasing", False, 37, f"strictly decreasing fails at k=37 (value {m[37]!r} after {m[36]!r})")
    assert by["variance_increasing"] == validator.ConditionReport(
        "variance_increasing", False, 37, f"strictly increasing fails at k=37 (value {v[37]!r} after {v[36]!r})")
    assert validator.increment_check(profile, TheoremCase.CASE_11A) == validator.ConditionReport(
        "increment_alternative_case11a", False, 37,
        "informational; Var[u_{k+1}] - Var[u_k] > E[u_{k+1}] - E[u_k] first fails at k=37")


def test_pointwise_conditions_fail_at_the_first_bad_k():
    # mean[37] = variance[37] + 1 breaks the strict inequality there only.
    mean = 2.5 - 0.005 * _K
    mean[37] = 0.1 + 0.005 * 37 + 1.0
    profile = _profile(mean)
    by = _by_name(validator.check_theorem_case(profile, TheoremCase.CASE_11A, 1.0, 1.0,
                                               StepSizeSchedule("inverse_k", 0.1)))
    assert by["mean_exceeds_variance_plus_one"] == validator.ConditionReport(
        "mean_exceeds_variance_plus_one", False, 37, "mean[k] <= variance[k] + 1 at k=37")
    assert validator.acceleration_check(profile, TheoremCase.CASE_11A) == validator.ConditionReport(
        "acceleration_case11a", False, 37,
        "mean[k] > variance[k] + 1 holds on k=0..36; fails at k=37 (100/101 k values hold)")


@pytest.mark.parametrize("case, name, fails", [
    (TheoremCase.CASE_11A, "step_bound_mean", "eta_k > 1/(B*L*mean[k])"),
    (TheoremCase.CASE_11B, "step_bound_sup_support", "eta_k > 1/(B*L*3)"),
    (TheoremCase.CASE_12, "step_bound_global", "eta_k > 1/(B*L) = 1"),
])
def test_step_bounds_fail_at_the_first_bad_k(monkeypatch, case, name, fails):
    # No schedule family rises, so the steps are built by hand: 0.1, under
    # every bound here (1/3 at least), but 10 at k = 37.
    monkeypatch.setattr(validator, "step_sizes", lambda schedule, n: np.where(np.arange(n) == 37, 10.0, 0.1))
    reports = validator.check_theorem_case(_profile(), case, 1.0, 1.0, StepSizeSchedule("constant", 0.1))
    assert reports[-1] == validator.ConditionReport(name, False, 37, f"{fails} at k=37")


def test_case12_check_implies_acceleration():
    rng = np.random.default_rng(3)
    for _ in range(25):
        c1 = rng.uniform(0.05, 0.9)
        c2 = rng.uniform(c1 + 0.01, 0.99)
        profile = sf.moment_profile(sf.uniform_root(c1, c2), 500)
        sched = StepSizeSchedule("inverse_k", 1.0)
        reports = validator.check_theorem_case(profile, TheoremCase.CASE_12, 1.0, 1.0, sched)
        if all(r.holds for r in reports):
            assert validator.acceleration_check(profile, TheoremCase.CASE_12).holds


def test_acceleration_checks():
    prof_sub = sf.moment_profile(sf.uniform_root(0.3, 0.8), 1000)
    assert validator.acceleration_check(prof_sub, TheoremCase.CASE_12).holds
    prof_super = sf.moment_profile(sf.uniform_root(2.0, 4.0), 10_000)
    assert validator.acceleration_check(prof_super, TheoremCase.CASE_11B).holds
    # the constant unit factor accelerates nothing: every predicate is strict
    prof_const = sf.moment_profile(sf.constant(1.0), 100)
    for case in (TheoremCase.CASE_11A, TheoremCase.CASE_11B, TheoremCase.CASE_12):
        rep = validator.acceleration_check(prof_const, case)
        assert not rep.holds
        assert rep.first_violation_k == 0
    assert not validator.acceleration_check(prof_const, TheoremCase.DETERMINISTIC).holds


def test_acceleration_report_names_failing_k():
    # mean > variance + 1 fails immediately for sub-one roots
    prof = sf.moment_profile(sf.uniform_root(0.3, 0.8), 100)
    rep = validator.acceleration_check(prof, TheoremCase.CASE_11A)
    assert not rep.holds and rep.first_violation_k == 0
    assert "fails at k=0" in rep.detail


def test_increment_alternative_informational():
    prof = sf.moment_profile(sf.uniform_root(0.3, 0.8), 1000)
    rep = validator.increment_check(prof, TheoremCase.CASE_12)
    assert rep.holds
    assert "informational" in rep.detail
    rep = validator.increment_check(prof, TheoremCase.CASE_11A)
    assert not rep.holds
    rep = validator.increment_check(prof, TheoremCase.CASE_11B)
    assert not rep.holds and "no increment-based variant" in rep.detail


def test_reports_deterministic():
    sched = StepSizeSchedule("inverse_k", 1.0)
    a = validator.format_reports(validator.check_assumption2(sched, 500))
    b = validator.format_reports(validator.check_assumption2(sched, 500))
    assert a == b
    profile = sf.moment_profile(sf.uniform_root(0.3, 0.8), 200)
    ra = validator.check_theorem_case(profile, TheoremCase.CASE_12, 1.0, 1.0, sched)
    rb = validator.check_theorem_case(profile, TheoremCase.CASE_12, 1.0, 1.0, sched)
    assert ra == rb
    assert validator.format_reports(ra) == validator.format_reports(rb)
