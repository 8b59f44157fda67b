"""Statistical comparison of paired multi-seed runs.

Two sides, each the runs of one configuration, are compared checkpoint
by checkpoint with Welch's unequal variance t-test and a Bonferroni
family-wise correction at :data:`FWER`.  The sides are paired: run on one
problem under the same seeds (:func:`optimizer.run_paired`), they share
per-seed gradient streams, which isolates the effect of the stochasticity
factor.

The two-sided p-value uses the exact identity
p = I_x(df/2, 1/2) with x = df/(df + t^2), where I is the regularized
incomplete beta function, evaluated here with the standard continued
fraction (Lentz's algorithm).  No statistics library is involved, which
keeps the p-values reproducible to the last bit across environments.
Over |t| in [0.01, 8] the relative error against ``scipy.stats.t.sf``
is within 2e-14 * max(df, 10), from lgamma cancellation in the front
factor: 1.7e-13 at df = 78 (40 seeds a side), 1e-10 at df = 1e4.  Near
p = 1 that error shrinks with 1 - p, since 1 - x comes in unrounded, as
t^2/(df + t^2): within 1e-15 for |t| <= 1e-3 and df <= 1e3 (7.6e-15 at 1e4).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import problems as pb
from . import sf as sfmod
from .optimizer import METRICS, StepSizeSchedule, Trajectory, check_arguments, run_paired

_BETA_EPS = 1e-14
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 300


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (Numerical Recipes form,
    # modified Lentz evaluation): each iteration steps through its even
    # coefficient, then its odd one.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _BETA_FPMIN:
                d = _BETA_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETA_FPMIN:
                c = _BETA_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def _betainc(a: float, b: float, x: float, y: float) -> float:
    # I_x(a, b), given x and its complement y = 1 - x as exactly as the
    # caller knows it: above the switch point the fraction runs on y.
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    below = x < (a + 1.0) / (a + b + 2.0)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x)
                     + b * (math.log1p(-x) if below else math.log(y)))
    if below:
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, 0 <= x <= 1."""
    if a <= 0 or b <= 0:
        raise ValueError("betainc_reg requires a > 0 and b > 0")
    if x < 0.0 or x > 1.0:
        raise ValueError("betainc_reg requires 0 <= x <= 1")
    return _betainc(a, b, x, 1.0 - x)


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t; exactly 1.0 at t = 0."""
    if df <= 0:
        raise ValueError("df must be > 0")
    return _betainc(0.5 * df, 0.5, df / (df + t * t), t * t / (df + t * t))


def welch_t(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """Welch's t statistic, Welch-Satterthwaite df, two-sided p.

    Both samples are first scaled by the power of two that brings their
    largest |value| into [0.5, 1).  That is exact and leaves t and df as
    they are, so moments that stay normal keep their bits, and samples
    whose moments would under- or overflow (a variance of values near
    1e-197) get a finite t.

    Degenerate inputs follow fixed conventions: a sample whose values are
    all equal has that value as its mean and zero variance, whatever its
    computed moments round to (three copies of 0.1 give a mean of
    0.10000000000000002 and a variance of 2.9e-34).  Two such samples with
    equal values give (0, n_a+n_b-2, 1); with different values, p = 0
    with an infinite t and a warning, because the test statistic is off
    its support.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("welch_t requires at least 2 samples per side")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("welch_t requires finite samples")
    na, nb = len(a), len(b)
    e = math.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    (ma, va), (mb, vb) = ((float(x[0]), 0.0) if x.min() == x.max() else (float(x.mean()), float(x.var(ddof=1)))
                          for x in (a, b))
    if va == 0.0 and vb == 0.0:
        df_conv = float(na + nb - 2)
        if ma == mb:
            return 0.0, df_conv, 1.0
        warnings.warn("welch_t: zero variances with unequal means; p = 0 by convention")
        return math.copysign(math.inf, ma - mb), df_conv, 0.0
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, df, t_two_sided_p(t, df)


def bonferroni(p_values: list[float], fwer: float = 0.05) -> list[bool]:
    """Significance flags p_i <= fwer / m (boundary inclusive)."""
    m = len(p_values)
    if m == 0:
        raise ValueError("bonferroni requires at least one p-value")
    if not (0.0 < fwer < 1.0):
        raise ValueError("fwer must be in (0, 1)")
    if any(not (0.0 <= p <= 1.0) for p in p_values):
        raise ValueError("p-values must lie in [0, 1]")
    thresh = fwer / m
    return [p <= thresh for p in p_values]


def auto_checkpoints(iterations: int, eval_every: int) -> list[int]:
    """10 log-spaced eval points in [eval_every, iterations], deduplicated."""
    check_arguments(eval_every, iterations)
    targets = sfmod.scalar_power(10.0, np.linspace(math.log10(eval_every), math.log10(iterations), 10))
    ks = []
    for t in targets:
        k = int(round(t / eval_every)) * eval_every
        k = min(max(k, eval_every), iterations)
        if k not in ks:
            ks.append(k)
    return ks


def run_multi_seed(
    problem: pb.ProblemSpec,
    schedule: StepSizeSchedule,
    sf_spec: sfmod.SFSpec,
    iterations: int,
    n_seeds: int = 40,
    master_seed: int = 0,
    eval_every: int = 10,
) -> list[Trajectory]:
    """The one-arm case of :func:`optimizer.run_paired`, kept here because ``perfbench/tracer.py`` names it."""
    return run_paired(problem, schedule, [sf_spec], iterations, n_seeds, master_seed, eval_every)[0]


# Family-wise error rate of the Bonferroni correction in :func:`compare`.
FWER = 0.05


@dataclass
class ComparisonReport:
    """Checkpointed Welch/Bonferroni comparison of two paired sides of runs; ``notes`` derive from the counts."""

    metric: str
    checkpoints: list[int]
    mean_a: list[float]
    mean_b: list[float]
    t: list[float]
    df: list[float]
    p: list[float]
    significant: list[bool]
    wins_a: list[int]
    n_a: int
    n_b: int
    excluded_a: int
    excluded_b: int
    config_digest_a: str
    config_digest_b: str

    @property
    def notes(self) -> list[str]:
        """The line that counts the diverged runs excluded from each side, when either side excluded one."""
        if self.excluded_a or self.excluded_b:
            return [f"excluded diverged runs: {self.excluded_a} from a, {self.excluded_b} from b"]
        return []


def compare(
    a: list[Trajectory],
    b: list[Trajectory],
    metric: str = "loss",
    checkpoints: list[int] | None = None,
) -> ComparisonReport:
    """Welch-compare two paired sides, each the runs of one configuration, at ``checkpoints``.

    ``checkpoints`` defaults to :func:`auto_checkpoints` of the runs'
    horizon and cadence.  The sides must share horizon, cadence and their
    seed list, and no seed may appear twice.  Diverged trajectories are
    excluded from the tests and counted in the report.  Direction (who is
    ahead) is reported via the means and win counts, never gated on.

    Both sides must have run on one problem (equal family and params), else
    ValueError.  A problem and a seed give one gradient stream, and the
    runner (:func:`optimizer.run_arms`) checks that every run stepped on its
    seed's stream, so shared seeds then mean shared gradient noise.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    for side, runs in (("a", a), ("b", b)):
        digests = sorted({t.config_digest for t in runs})
        if len(digests) != 1:
            raise ValueError(f"side {side} must hold the runs of one config, got config digests {digests}")
    iterations, eval_every = a[0].iterations, a[0].eval_every
    if b[0].iterations != iterations or b[0].eval_every != eval_every:
        raise ValueError("both sides must share horizon and eval cadence")
    (fam_a, params_a), (fam_b, params_b) = ((t.problem.family, t.problem.params) for t in (a[0], b[0]))
    if (fam_a, params_a) != (fam_b, params_b):
        raise ValueError(f"both sides must run on one problem, got {fam_a} {params_a} and {fam_b} {params_b}")
    seeds = [t.seed for t in a]
    if [t.seed for t in b] != seeds:
        raise ValueError("paired comparison requires identical seed lists")
    if len(set(seeds)) != len(seeds):
        raise ValueError("paired comparison requires distinct seeds")
    checkpoints = auto_checkpoints(iterations, eval_every) if checkpoints is None else list(checkpoints)
    if len(checkpoints) == 0:
        raise ValueError("need at least one checkpoint")
    check_arguments(eval_every, iterations, checkpoints=checkpoints)

    ok_a = [t for t in a if not t.diverged]
    ok_b = [t for t in b if not t.diverged]
    col_a = {t.seed: i for i, t in enumerate(ok_a)}
    col_b = {t.seed: i for i, t in enumerate(ok_b)}
    shared = [(col_a[s], col_b[s]) for s in seeds if s in col_a and s in col_b]
    if len(ok_a) < 2 or len(ok_b) < 2:
        raise ValueError("fewer than 2 non-diverged runs on one side; nothing to test")

    # One row per checkpoint, one column per run.  A non-diverged run's grid
    # is complete, so checkpoint k is row k // eval_every; each series is
    # read once, since ``min_grad_sq`` is computed on each read.
    rows = [k // eval_every for k in checkpoints]
    at_a = np.column_stack([getattr(t, metric)[rows] for t in ok_a])
    at_b = np.column_stack([getattr(t, metric)[rows] for t in ok_b])
    wins: list[int] = []
    mean_a, mean_b, ts, dfs, ps = [], [], [], [], []
    for xs, ys in zip(at_a, at_b):
        t_stat, df, p = welch_t(xs, ys)
        mean_a.append(float(xs.mean()))
        mean_b.append(float(ys.mean()))
        ts.append(t_stat)
        dfs.append(df)
        ps.append(p)
        wins.append(sum(1 for i, j in shared if xs[i] < ys[j]))

    return ComparisonReport(
        metric=metric,
        checkpoints=checkpoints,
        mean_a=mean_a,
        mean_b=mean_b,
        t=ts,
        df=dfs,
        p=ps,
        significant=bonferroni(ps, FWER),
        wins_a=wins,
        n_a=len(ok_a),
        n_b=len(ok_b),
        excluded_a=len(a) - len(ok_a),
        excluded_b=len(b) - len(ok_b),
        config_digest_a=a[0].config_digest,
        config_digest_b=b[0].config_digest,
    )
