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

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import lambert
from . import sf as sfmod
from .optimizer import StepSizeSchedule, step_sizes, step_sums

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
    condition fails (for a condition on neighbours, the right element of
    the first bad pair), as :func:`_first_failure` sets it; None when the
    condition holds or is not indexed by iteration.
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


def _first_failure(name: str, ok: np.ndarray, holds: str, fails: Callable[[int], str],
                   pairs: bool = False) -> ConditionReport:
    """The report of a condition checked elementwise: ``ok[i]`` says whether it holds at k = i,
    or with ``pairs`` (``ok`` compares neighbours) at the pair (k - 1, k) for k = i + 1.

    It holds, with detail ``holds``, when every element is true; otherwise it
    fails at the first k whose element is false, with detail ``fails(k)``.
    """
    if ok.all():
        return ConditionReport(name, True, None, holds)
    k = int(np.argmax(~ok)) + int(pairs)
    return ConditionReport(name, False, k, fails(k))


def _pairwise_report(name: str, series: np.ndarray, want: str) -> ConditionReport:
    """Strict pairwise monotonicity condition on a series; ``want`` is "decreasing" or "increasing"."""
    d = np.diff(series)
    bad = d >= 0 if want == "decreasing" else d <= 0
    return _first_failure(
        name, ~bad, f"strictly {want} over k=0..{len(series) - 1}",
        lambda k: f"strictly {want} fails at k={k} (value {float(series[k])!r} after {float(series[k - 1])!r})",
        pairs=True)


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
    two are reported side by side so disagreements stay visible.  It
    allows equal neighbours (:class:`sf.Direction`), unlike the strict
    monotone gates of :func:`check_theorem_case`: (1.0, 1 + 1e-12) reads
    DECREASING though 9907 of its 10000 neighbour pairs are equal, and
    case11b's mean_decreasing gate fails at k = 51.
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
    sums = step_sums(schedule, horizon + 1)
    fam = schedule.family
    # Analytic verdicts: every family's eta sum diverges, and so does its
    # ratio sum (eta_k / S_k ~ c/k, from k = 1: S_0 = 0); only inverse_k's squares converge.
    series = (
        ("step_sum_diverges", True, f"partial sum over {horizon + 1} terms = {float(sums[-1]):.6g}"),
        ("step_square_sum_converges", fam == "inverse_k", f"partial sum of squares = {float((eta**2).sum()):.6g}"),
        ("step_ratio_sum_diverges", True, f"partial sum from k=1 = {float((eta[1:] / sums[1:-1]).sum()):.6g}"),
    )
    return [_pairwise_report("step_decreasing", eta, "decreasing")] + [
        ConditionReport(name, verdict, None, f"analytic for {fam}; {detail}") for name, verdict, detail in series
    ]


_Moments = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CaseDefinition:
    """One theorem case as the paper states it; every check and the envelope read it.

    The gates, in report order:

    * ``monotone``: (series, direction) pairs, each a strict pairwise
      condition on ``"mean"`` or ``"variance"`` over the horizon, reported
      as ``<series>_<direction>``;
    * ``moment_gates``: (name, predicate on (mean, variance), the
      condition, its negation), checked at every k of the horizon;
    * ``step_bound``: (name, bound from (B, L, mean, sup_k u_k), the
      condition, its negation), checked as eta_k <= bound; both texts are
      formatted with B, L, sup and bound.

    ``implied`` follows from the gates, so it is asserted when they all
    hold.  ``acceleration`` is the strict faster-than-baseline predicate on
    (mean, variance) with its text, None for the baseline; ``increment`` the
    informational increment variant of the monotonicity gates on
    (diff(mean), diff(variance)), or None.  ``envelope`` is the decay curve
    from (mean, variance, S_k); ``positive_gap`` says it needs
    mean - variance > 0.  README's theorem-case table mirrors
    :data:`THEOREM_CASES`.
    """

    monotone: tuple[tuple[str, str], ...]
    moment_gates: tuple[tuple[str, _Moments, str, str], ...]
    step_bound: tuple[str, Callable[..., float | np.ndarray], str, str]
    acceleration: tuple[_Moments, str] | None
    increment: tuple[_Moments, str] | None
    envelope: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    positive_gap: bool = False
    implied: _Moments | None = None


_GLOBAL_STEP_BOUND = ("step_bound_global", lambda B, L, m, sup: 1.0 / (B * L),
                      "eta_k <= 1/(B*L) = {bound:g}", "eta_k > 1/(B*L) = {bound:g}")

THEOREM_CASES: dict[TheoremCase, CaseDefinition] = {
    TheoremCase.CASE_11A: CaseDefinition(
        monotone=(("mean", "decreasing"), ("variance", "increasing")),
        moment_gates=(("mean_exceeds_variance_plus_one", lambda m, v: m > v + 1.0,
                       "mean[k] > variance[k] + 1", "mean[k] <= variance[k] + 1"),),
        step_bound=("step_bound_mean", lambda B, L, m, sup: 1.0 / (B * L * m),
                    "eta_k <= 1/(B*L*mean[k]) with B={B:g}, L={L:g}", "eta_k > 1/(B*L*mean[k])"),
        implied=lambda m, v: (v < m) & (m >= 1.0),
        acceleration=(lambda m, v: m > v + 1.0, "mean[k] > variance[k] + 1"),
        increment=(lambda dm, dv: dv > dm, "Var[u_{k+1}] - Var[u_k] > E[u_{k+1}] - E[u_k]"),
        envelope=lambda m, v, s: 1.0 / ((m - v) * s),
        positive_gap=True,
    ),
    TheoremCase.CASE_11B: CaseDefinition(
        monotone=(("mean", "decreasing"),),
        moment_gates=(),
        # The supremum over all k: for sub-1 roots the analytic limit 1,
        # not any finite-horizon maximum.
        step_bound=("step_bound_sup_support", lambda B, L, m, sup: 1.0 / (B * L * sup),
                    "eta_k <= 1/(B*L*sup_k u_k) with sup = {sup:g}", "eta_k > 1/(B*L*{sup:g})"),
        acceleration=(lambda m, v: m > 1.0, "mean[k] > 1"),
        increment=None,
        envelope=lambda m, v, s: 1.0 / (m * s),
    ),
    TheoremCase.CASE_12: CaseDefinition(
        monotone=(("mean", "increasing"), ("variance", "decreasing")),
        moment_gates=(
            ("mean_below_one", lambda m, v: m < 1.0, "mean[k] < 1", "mean[k] >= 1"),
            ("variance_mean_ratio_below_one", lambda m, v: v / m < 1.0,
             "variance[k]/mean[k] < 1", "variance[k]/mean[k] >= 1"),
        ),
        step_bound=_GLOBAL_STEP_BOUND,
        acceleration=(lambda m, v: (m - v) < 1.0, "mean[k] - variance[k] < 1"),
        increment=(lambda dm, dv: dv < dm, "Var[u_{k+1}] - Var[u_k] < E[u_{k+1}] - E[u_k]"),
        envelope=lambda m, v, s: (m - v) / s,
        positive_gap=True,
    ),
    TheoremCase.DETERMINISTIC: CaseDefinition(
        monotone=(),
        moment_gates=(),
        step_bound=_GLOBAL_STEP_BOUND,
        acceleration=None,
        increment=None,
        envelope=lambda m, v, s: 1.0 / s,
    ),
}


def check_theorem_case(
    profile: sfmod.MomentProfile,
    case: TheoremCase,
    B: float,
    L: float,
    schedule: StepSizeSchedule,
    horizon: int | None = None,
) -> list[ConditionReport]:
    """One ConditionReport per gate of the requested case (see :data:`THEOREM_CASES`).

    The horizon (default: the profile's own k_max) must be in
    1..profile.k_max.  Step bounds use B and L from the problem.
    """
    if horizon is None:
        horizon = profile.k_max
    if not 1 <= horizon <= profile.k_max:
        raise ValueError(f"horizon must be in 1..{profile.k_max} (the profile's k_max), got horizon={horizon}")
    # Written so that nan fails it; B * L must not underflow to 0, as every
    # step bound divides by it.
    if not (0.0 < B < math.inf and 0.0 < L < math.inf and B * L > 0.0):
        raise ValueError(f"B and L must be finite and > 0, with B * L > 0; got B={B!r}, L={L!r}")
    moments = {"mean": profile.mean[: horizon + 1], "variance": profile.variance[: horizon + 1]}
    m, v = moments["mean"], moments["variance"]
    eta = step_sizes(schedule, horizon + 1)
    definition = THEOREM_CASES[case]

    reports = [_pairwise_report(f"{series}_{want}", moments[series], want) for series, want in definition.monotone]
    reports += [_first_failure(name, ok(m, v), f"{holds} over the horizon", lambda k: f"{fails} at k={k}")
                for name, ok, holds, fails in definition.moment_gates]
    name, bound, holds, fails = definition.step_bound
    sup = profile.sup_support_limit
    with np.errstate(over="ignore"):  # B*L*mean[k] may overflow to inf: the bound is then 0
        b = bound(B, L, m, sup)
    text = {"B": B, "L": L, "sup": sup, "bound": b}
    reports.append(_first_failure(name, eta <= b, holds.format(**text), lambda k: f"{fails.format(**text)} at k={k}"))
    if definition.implied is not None and all(r.holds for r in reports):
        # Internal consistency of the case: this follows from the gates,
        # so a failure means a checker bug.
        assert definition.implied(m, v).all()
    return reports


def acceleration_check(profile: sfmod.MomentProfile, case: TheoremCase) -> ConditionReport:
    """The case's strict faster-than-baseline predicate, every k.

    The baseline case has no predicate and always reports False.  The
    detail names the k-prefix on which strictness holds, so a finite
    precision failure deep into the horizon stays visible.
    """
    name = f"acceleration_{case.value}"
    acceleration = THEOREM_CASES[case].acceleration
    if acceleration is None:
        return ConditionReport(name, False, None, "the deterministic baseline is the reference; no acceleration predicate")
    predicate, desc = acceleration
    ok = predicate(profile.mean, profile.variance)
    return _first_failure(
        name, ok, f"{desc} holds strictly for k=0..{len(ok) - 1}",
        lambda k: f"{desc} holds on {f'k=0..{k - 1}' if k > 0 else 'no prefix'}; "
                  f"fails at k={k} ({int(ok.sum())}/{len(ok)} k values hold)")


def increment_check(profile: sfmod.MomentProfile, case: TheoremCase) -> ConditionReport:
    """Informational increment-based variant of the case's monotonicity gates.

    Weaker than the primary gates and never used as one.
    """
    name = f"increment_alternative_{case.value}"
    increment = THEOREM_CASES[case].increment
    if increment is None:
        return ConditionReport(name, False, None, "informational; no increment-based variant for this case")
    predicate, desc = increment
    ok = predicate(np.diff(profile.mean), np.diff(profile.variance))
    return _first_failure(name, ok, f"informational; {desc} for all checked k",
                          lambda k: f"informational; {desc} first fails at k={k}", pairs=True)
