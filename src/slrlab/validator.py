"""Precondition checking for the convergence-rate cases.

Everything here is a pure function from closed-form moment series and
step-size schedules to ConditionReports.  A report never guesses: it
states whether a condition holds over the checked horizon and, when it
fails, the first iteration index at which it does.

The uniform-root family with both roots below 1 behaves differently
from the family with both roots above 1, and the boundary between the
mixed regimes is the curve c2*ln(c2) + c1*ln(c1) = 0.
:func:`classify_prop1` places a (c1, c2) pair into one of the four
analytic regimes (or none) and reports the empirical mean direction
alongside, computed from the closed forms rather than asserted from the
regime label.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import lambert
from . import sf as sfmod
from .optimizer import StepSizeSchedule, step_sizes

CASE_C_TOL = 1e-9
PROP1_HORIZON = 10_000


class TheoremCase(Enum):
    CASE_11A = "case11a"
    CASE_11B = "case11b"
    CASE_12 = "case12"
    DETERMINISTIC = "deterministic"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one checked condition.

    ``first_violation_k`` is the first iteration index at which the
    condition fails (for pairwise monotonicity conditions, the right
    element of the first bad pair); None when the condition holds or is
    not indexed by iteration.
    """

    condition_name: str
    holds: bool
    first_violation_k: int | None
    detail: str


def format_reports(reports: list[ConditionReport]) -> str:
    """Deterministic line-oriented rendering of a report list."""
    lines = []
    for r in reports:
        where = "-" if r.first_violation_k is None else str(r.first_violation_k)
        lines.append(
            f"{r.condition_name} | holds={'yes' if r.holds else 'no'} | first_violation_k={where} | {r.detail}"
        )
    return "\n".join(lines) + "\n"


def _pairwise_report(name: str, series: np.ndarray, want: str, extra: str = "") -> ConditionReport:
    """Strict pairwise monotonicity condition on a series."""
    d = np.diff(series)
    if want == "decreasing":
        bad = d >= 0
    elif want == "increasing":
        bad = d <= 0
    else:
        raise ValueError(want)
    if bad.any():
        k = int(np.argmax(bad)) + 1
        detail = f"strictly {want} fails at k={k} (value {float(series[k])!r} after {float(series[k - 1])!r})"
        if extra:
            detail += "; " + extra
        return ConditionReport(name, False, k, detail)
    detail = f"strictly {want} over k=0..{len(series) - 1}"
    if extra:
        detail += "; " + extra
    return ConditionReport(name, True, None, detail)


def _pointwise_report(name: str, ok: np.ndarray, detail_ok: str, detail_bad: str) -> ConditionReport:
    if ok.all():
        return ConditionReport(name, True, None, detail_ok)
    k = int(np.argmax(~ok))
    return ConditionReport(name, False, k, f"{detail_bad} at k={k}")


@dataclass(frozen=True)
class Prop1Result:
    """Regime label for a uniform-root pair plus the observed direction."""

    label: str  # one of "a", "b", "c", "d", "none"
    mean_direction: sfmod.Direction


def classify_prop1(c1: float, c2: float) -> Prop1Result:
    """Analytic regime of a uniform-root (c1, c2) pair.

    a: c1 >= 1 and c2 > 1          b: c1 < 1 and c2 <= 1
    c: 0 < c1 < 1 and c2 on the balanced-root curve (tol 1e-9)
    d: 0 < c1 < 1 and c2 > 1/c1    none: anything else

    The mean direction is evaluated numerically from the closed forms
    over PROP1_HORIZON steps rather than inferred from the label; the
    two are reported side by side so disagreements stay visible.
    """
    spec = sfmod.uniform_root(c1, c2)
    direction = sfmod.moment_profile(spec, PROP1_HORIZON).mean_direction
    if c1 >= 1.0 and c2 > 1.0:
        label = "a"
    elif c1 < 1.0 and c2 <= 1.0:
        label = "b"
    elif c1 < 1.0 and abs(c2 - lambert.umslr_case_c_c2(c1)) <= CASE_C_TOL:
        label = "c"
    elif c1 < 1.0 and c2 > 1.0 / c1:
        label = "d"
    else:
        label = "none"
    return Prop1Result(label=label, mean_direction=direction)


def check_assumption2(schedule: StepSizeSchedule, horizon: int = 10_000) -> list[ConditionReport]:
    """The four step-size conditions for the supported families.

    (i) is checked pairwise over the horizon; (ii)-(iv) are series
    convergence statements, so the verdicts are analytic per family
    with numeric partial sums over the horizon attached as detail.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    eta = step_sizes(schedule, horizon + 1)
    s1 = float(eta.sum())
    s2 = float((eta**2).sum())
    # sum over k >= 1 of eta_k / sum_{j<k} eta_j; the k=0 term has an
    # empty denominator and is excluded.
    csum = np.cumsum(eta)
    s3 = float((eta[1:] / csum[:-1]).sum())

    fam = schedule.family
    reports = [_pairwise_report("step_decreasing", eta, "decreasing")]

    div_sum = True  # all three families have divergent eta sums
    reports.append(
        ConditionReport(
            "step_sum_diverges",
            div_sum,
            None,
            f"analytic for {fam}; partial sum over {horizon + 1} terms = {s1:.6g}",
        )
    )
    sq_converges = fam == "inverse_k"
    reports.append(
        ConditionReport(
            "step_square_sum_converges",
            sq_converges,
            None,
            f"analytic for {fam}; partial sum of squares = {s2:.6g}",
        )
    )
    ratio_diverges = True  # eta_k / sum_{j<k} eta_j ~ c/k for all three
    reports.append(
        ConditionReport(
            "step_ratio_sum_diverges",
            ratio_diverges,
            None,
            f"analytic for {fam}; partial sum from k=1 = {s3:.6g}",
        )
    )
    return reports


def check_theorem_case(
    profile: sfmod.MomentProfile,
    case: TheoremCase,
    B: float,
    L: float,
    schedule: StepSizeSchedule,
    horizon: int | None = None,
) -> list[ConditionReport]:
    """One ConditionReport per precondition of the requested case.

    The profile must cover the horizon (default: the profile's own
    k_max).  Step bounds use B and L from the problem; case11b bounds
    the step by the supremum of the SF support over all k, which for
    sub-1 roots is the analytic limit 1 rather than any finite-horizon
    maximum.
    """
    if horizon is None:
        horizon = profile.k_max
    if horizon > profile.k_max:
        raise ValueError("profile horizon too short for requested check")
    if B <= 0 or L <= 0:
        raise ValueError("B and L must be > 0")
    m = profile.mean[: horizon + 1]
    v = profile.variance[: horizon + 1]
    eta = step_sizes(schedule, horizon + 1)
    reports: list[ConditionReport] = []

    if case is TheoremCase.CASE_11A:
        reports.append(_pairwise_report("mean_decreasing", m, "decreasing"))
        reports.append(_pairwise_report("variance_increasing", v, "increasing"))
        reports.append(
            _pointwise_report(
                "mean_exceeds_variance_plus_one",
                m > v + 1.0,
                "mean[k] > variance[k] + 1 over the horizon",
                "mean[k] <= variance[k] + 1",
            )
        )
        with np.errstate(over="ignore"):  # B*L*mean[k] may overflow to inf: the bound is then 0
            bound = 1.0 / (B * L * m)
        reports.append(
            _pointwise_report(
                "step_bound_mean",
                eta <= bound,
                f"eta_k <= 1/(B*L*mean[k]) with B={B:g}, L={L:g}",
                "eta_k > 1/(B*L*mean[k])",
            )
        )
        if all(r.holds for r in reports):
            # Internal consistency of the case: these follow from the
            # conditions above, so a failure means a checker bug.
            assert (v < m).all() and (m >= 1.0).all()
    elif case is TheoremCase.CASE_11B:
        reports.append(_pairwise_report("mean_decreasing", m, "decreasing"))
        sup = profile.sup_support_limit
        reports.append(
            _pointwise_report(
                "step_bound_sup_support",
                eta <= 1.0 / (B * L * sup),
                f"eta_k <= 1/(B*L*sup_k u_k) with sup = {sup:g}",
                f"eta_k > 1/(B*L*{sup:g})",
            )
        )
    elif case is TheoremCase.CASE_12:
        reports.append(_pairwise_report("mean_increasing", m, "increasing"))
        reports.append(_pairwise_report("variance_decreasing", v, "decreasing"))
        reports.append(
            _pointwise_report(
                "mean_below_one",
                m < 1.0,
                "mean[k] < 1 over the horizon",
                "mean[k] >= 1",
            )
        )
        reports.append(
            _pointwise_report(
                "variance_mean_ratio_below_one",
                v / m < 1.0,
                "variance[k]/mean[k] < 1 over the horizon",
                "variance[k]/mean[k] >= 1",
            )
        )
        reports.append(
            _pointwise_report(
                "step_bound_global",
                eta <= 1.0 / (B * L),
                f"eta_k <= 1/(B*L) = {1.0 / (B * L):g}",
                f"eta_k > 1/(B*L) = {1.0 / (B * L):g}",
            )
        )
    elif case is TheoremCase.DETERMINISTIC:
        reports.append(
            _pointwise_report(
                "step_bound_global",
                eta <= 1.0 / (B * L),
                f"eta_k <= 1/(B*L) = {1.0 / (B * L):g}",
                f"eta_k > 1/(B*L) = {1.0 / (B * L):g}",
            )
        )
    else:
        raise ValueError(f"unknown case {case!r}")
    return reports


def acceleration_check(profile: sfmod.MomentProfile, case: TheoremCase) -> ConditionReport:
    """Strict faster-than-baseline predicate for a case, every k.

    case11a: E > Var + 1;  case11b: E > 1;  case12: E - Var < 1.
    The baseline case has no predicate and always reports False.  The
    detail names the k-prefix on which strictness holds, so a finite
    precision failure deep into the horizon stays visible.
    """
    m = profile.mean
    v = profile.variance
    if case is TheoremCase.CASE_11A:
        ok = m > v + 1.0
        desc = "mean[k] > variance[k] + 1"
    elif case is TheoremCase.CASE_11B:
        ok = m > 1.0
        desc = "mean[k] > 1"
    elif case is TheoremCase.CASE_12:
        ok = (m - v) < 1.0
        desc = "mean[k] - variance[k] < 1"
    elif case is TheoremCase.DETERMINISTIC:
        return ConditionReport(
            "acceleration_deterministic",
            False,
            None,
            "the deterministic baseline is the reference; no acceleration predicate",
        )
    else:
        raise ValueError(f"unknown case {case!r}")

    name = f"acceleration_{case.value}"
    n = len(ok)
    if ok.all():
        return ConditionReport(name, True, None, f"{desc} holds strictly for k=0..{n - 1}")
    first_bad = int(np.argmax(~ok))
    prefix = f"k=0..{first_bad - 1}" if first_bad > 0 else "no prefix"
    return ConditionReport(
        name,
        False,
        first_bad,
        f"{desc} holds on {prefix}; fails at k={first_bad} ({int(ok.sum())}/{n} k values hold)",
    )


def increment_check(profile: sfmod.MomentProfile, case: TheoremCase) -> ConditionReport:
    """Informational increment-based variant of the monotonicity gates.

    For case11a the variance increments must exceed the mean increments
    at every k; for case12 the reverse.  Weaker than the primary gates
    and never used as one.
    """
    dm = np.diff(profile.mean)
    dv = np.diff(profile.variance)
    if case is TheoremCase.CASE_11A:
        ok = dv > dm
        desc = "Var[u_{k+1}] - Var[u_k] > E[u_{k+1}] - E[u_k]"
    elif case is TheoremCase.CASE_12:
        ok = dv < dm
        desc = "Var[u_{k+1}] - Var[u_k] < E[u_{k+1}] - E[u_k]"
    else:
        return ConditionReport(
            f"increment_alternative_{case.value}",
            False,
            None,
            "informational; no increment-based variant for this case",
        )
    name = f"increment_alternative_{case.value}"
    if ok.all():
        return ConditionReport(name, True, None, f"informational; {desc} for all checked k")
    k = int(np.argmax(~ok)) + 1
    return ConditionReport(name, False, k, f"informational; {desc} first fails at k={k}")
