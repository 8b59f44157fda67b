"""Convergence-rate bookkeeping: the g_k recurrence, envelopes, and a
little-o trend diagnostic.

The g_k sequence is the weighted gradient-norm average driving the
nonconvex rate argument: with w_k = 2*eta_k / sum_{t<=k} eta_t,

    g_0 = y_0,    g_{k+1} = (1 - w_k) g_k + w_k y_k,

where y_k = ||grad f(x_k)||^2.  Note w_0 = 2 exactly, so g_1 = y_0,
and for k >= 1 a decreasing schedule gives w_k <= 1, making every later
g_k a convex combination of past y's; hence g_k >= min_{t<k} y_t.  The
weights depend only on step-size ratios, so rescaling the schedule
leaves the sequence unchanged.

Envelopes are the theoretical decay curves for min_t ||grad f(x_t)||^2
up to the unknown problem constant, one per theorem case, evaluated
from the SF moment closed forms and the step sums S_k = sum_{t<k} eta_t
(:func:`optimizer.step_sums`).  Each case's formula is its ``envelope``
entry in :data:`slrlab.validator.THEOREM_CASES` (mirrored by README's
theorem-case table).  With the constant factor u = 1 every case
collapses to the baseline 1 / S_k.

The little-o diagnostic is an honest surrogate for the asymptotic
statement min_grad = o(envelope): it fits the log-log slope of the
ratio over the trailing half of the window and reports one of
ConsistentWithLittleO / Inconclusive / Violation.  A finite horizon
cannot prove a limit; the verdict is a trend call, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import sf as sfmod
from .optimizer import StepSizeSchedule, Trajectory, step_sizes, step_sums, unit_schedule
from .validator import THEOREM_CASES, TheoremCase


class Verdict(Enum):
    CONSISTENT = "ConsistentWithLittleO"
    INCONCLUSIVE = "Inconclusive"
    VIOLATION = "Violation"


def gk_sequence(grad_norm_sq: np.ndarray, schedule: StepSizeSchedule, ks: np.ndarray | None = None) -> np.ndarray:
    """The recurrence over gradient norms observed at iteration indices ``ks`` (default 0, 1, 2, ...); len+1 values.

    g[0] = grad_norm_sq[0], and because w_0 = 2 the recurrence forces
    g[1] = grad_norm_sq[0] as well (no clamping is applied).
    """
    values = np.asarray(grad_norm_sq, dtype=float)
    ks = np.arange(len(values)) if ks is None else np.asarray(ks, dtype=int)
    if len(values) == 0:
        raise ValueError("gradient-norm series must be non-empty")
    if not np.isfinite(values).all():
        raise ValueError("gradient norms must be finite")
    if (values < 0).any():
        raise ValueError("gradient norms must be >= 0")
    k_max = int(ks[-1]) + 1
    # w_k = 2 eta_k / S_{k+1}, a ratio: from the unit schedule it keeps its
    # bits where eta_k and S_{k+1} are normal, and stays finite where they
    # would overflow.
    unit = unit_schedule(schedule)
    w = 2.0 * step_sizes(unit, k_max)[ks] / step_sums(unit, k_max)[ks + 1]
    # Only the recurrence itself is sequential.  It runs on Python floats,
    # which round each product and sum once as numpy does, in this order.
    g = [float(values[0])]
    for a, b in zip((1.0 - w).tolist(), (w * values).tolist()):
        g.append(a * g[-1] + b)
    return np.array(g)


def attach_gk(traj: Trajectory, schedule: StepSizeSchedule) -> np.ndarray:
    """The g_k series of a trajectory's recorded gradient norms, one value per eval point.

    When eval_every > 1 the recurrence runs over the recorded points
    using the true weights w_k at their iteration indices; this is the
    documented cadence surrogate and coincides with the exact sequence
    at eval_every = 1.  Rows recorded after divergence (non-finite
    gradient norms) are excluded; a run with no finite norm, such as one
    whose gradient norm overflows at x0, gets an all-nan series.
    """
    vals = traj.grad_norm_sq
    ks = traj.eval_points
    good = np.isfinite(vals)
    out = np.full(len(vals), np.nan)
    if good.any():
        out[good] = gk_sequence(vals[good], schedule, ks[good])[: good.sum()]
    return out


@dataclass(eq=False)
class RateEnvelope:
    """Envelope values over iteration indices ks (all >= 1)."""

    ks: np.ndarray
    values: np.ndarray


def envelope_series(
    case: TheoremCase,
    factor: sfmod.SFSpec | sfmod.MomentProfile,
    schedule: StepSizeSchedule,
    ks: np.ndarray,
) -> RateEnvelope:
    """Envelope over a sorted array of iteration indices, each >= 1.

    ``factor`` is the SF law, or a moment profile of it that reaches the
    last k; a profile's entry at k does not depend on its horizon, so a
    caller that has one already passes it and gets the same bits.
    """
    ks = np.asarray(ks, dtype=int)
    if len(ks) == 0:
        raise ValueError("ks must be non-empty")
    if (ks < 1).any():
        raise ValueError("envelope requires k >= 1")
    k_max = int(ks.max())
    if isinstance(factor, sfmod.MomentProfile):
        if factor.k_max < k_max:
            raise ValueError(f"moment profile ends at k={factor.k_max}, before k={k_max}")
        profile = factor
    else:
        profile = sfmod.moment_profile(factor, k_max)
    mean = profile.mean[ks]
    var = profile.variance[ks]
    s = step_sums(schedule, k_max)[ks]

    definition = THEOREM_CASES[case]
    if definition.positive_gap:
        bad = mean - var <= 0
        if bad.any():
            raise ValueError(f"mean - variance <= 0 at k={int(ks[np.argmax(bad)])}; envelope undefined for {case.value}")
    # Over a subnormal step sum an envelope overflows to inf, and where a
    # product with the step sum underflows to 0 it divides by 0: either
    # inf stands for the value.
    with np.errstate(over="ignore", divide="ignore"):
        values = definition.envelope(mean, var, s)
    return RateEnvelope(ks=ks, values=values)


def trajectory_envelope(
    traj: Trajectory,
    case: TheoremCase,
    factor: sfmod.SFSpec | sfmod.MomentProfile,
    schedule: StepSizeSchedule,
) -> RateEnvelope:
    """Envelope aligned with a trajectory's recorded points at k >= 1 (``factor`` as in :func:`envelope_series`)."""
    ks = traj.eval_points[traj.eval_points >= 1]
    return envelope_series(case, factor, schedule, ks)


@dataclass(eq=False)
class LittleODiagnostic:
    """Trend report for ratios min_grad_sq / envelope over a window."""

    k_lo: int
    k_hi: int
    r_lo: float
    r_hi: float
    window_slope: float
    verdict: Verdict


def little_o_diagnostic(
    min_grad_sq: np.ndarray,
    env: RateEnvelope,
    k_lo: int,
    k_hi: int,
) -> LittleODiagnostic:
    """Classify the trend of r_k = min_grad_sq / envelope on [k_lo, k_hi].

    min_grad_sq must be aligned with env.ks.  The slope is the least
    squares fit of log r against log k over the trailing half
    [k_hi/2, k_hi].  Verdicts:

    * ConsistentWithLittleO: slope <= -0.05 and r(k_hi) < r(k_lo)
    * Violation: slope >= +0.05 and r(k_hi) > 2 * r(k_lo)
    * Inconclusive otherwise (including too few usable points)
    """
    min_grad_sq = np.asarray(min_grad_sq, dtype=float)
    if min_grad_sq.shape != env.ks.shape:
        raise ValueError("min_grad_sq must align with the envelope grid")
    if not (0 < k_lo < k_hi):
        raise ValueError("need 0 < k_lo < k_hi")

    # An envelope at or near 0 or inf gives a ratio of inf, 0 or nan; the
    # fit below skips the points that are not positive and finite.
    with np.errstate(all="ignore"):
        ratios = min_grad_sq / env.values
    window = (env.ks >= k_lo) & (env.ks <= k_hi)
    if window.sum() < 2:
        raise ValueError("window [k_lo, k_hi] covers fewer than 2 recorded points")
    wks = env.ks[window]
    wr = ratios[window]
    k_lo_eff = int(wks[0])
    k_hi_eff = int(wks[-1])
    r_lo = float(wr[0])
    r_hi = float(wr[-1])

    tail = (wks >= k_hi_eff / 2) & (wr > 0) & np.isfinite(wr)
    if tail.sum() >= 2:
        slope = float(np.polyfit(np.log(wks[tail]), np.log(wr[tail]), 1)[0])
    else:
        slope = np.nan

    verdict = Verdict.INCONCLUSIVE
    if np.isfinite(slope):
        if slope <= -0.05 and r_hi < r_lo:
            verdict = Verdict.CONSISTENT
        elif slope >= 0.05 and r_hi > 2.0 * r_lo:
            verdict = Verdict.VIOLATION

    return LittleODiagnostic(
        k_lo=k_lo_eff,
        k_hi=k_hi_eff,
        r_lo=r_lo,
        r_hi=r_hi,
        window_slope=slope,
        verdict=verdict,
    )
