"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass line with its runtime; a pytest failure is
the fail line.  Tolerances are pinned in the assertions, never computed.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from slrlab import cli_io, harness, lambert, optimizer, problems, sf, stats, validator
from slrlab.harness import Verdict
from slrlab.optimizer import StepSizeSchedule
from slrlab.validator import TheoremCase


def _done(num: int, name: str, t0: float, budget: float) -> None:
    dt = time.time() - t0
    assert dt < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({dt:.1f}s)"
    print(f"criterion {num:02d} {name}: PASS ({dt:.2f}s)")


def test_criterion_01_moment_monotonicity_grid():
    # 50 sub-one pairs; c1 stays above 1/e so c*ln(c) ordering holds at
    # every exponent (pairs with both roots deep below 1/e have variance
    # that rises before falling and are out of scope here)
    t0 = time.time()
    k_max = 100_000
    pairs = [(float(c1), float(c1 + (1 - c1) * f))
             for c1 in np.linspace(0.37, 0.93, 10)
             for f in (0.15, 0.35, 0.55, 0.75, 0.95)]
    assert len(pairs) == 50
    for c1, c2 in pairs:
        prof = sf.moment_profile(sf.uniform_root(c1, c2), k_max)
        dm = np.diff(prof.mean)
        dv = np.diff(prof.variance)
        assert (dm > 0).all() and prof.mean_direction is sf.Direction.INCREASING
        assert (dv < 0).all()
        assert (prof.mean < 1.0).all()
        assert (prof.variance < prof.mean).all()
        assert prof.mean[0] == (c1 + c2) / 2
    _done(1, "factor moments strictly monotone on 50-pair grid", t0, 10.0)


def test_criterion_02_lambert_round_trips():
    t0 = time.time()
    xs = -1.0 / math.e + np.logspace(-9, np.log10(1e6 + 1.0 / math.e), 200)
    for x in xs:
        w = lambert.lambert_w0(float(x))
        resid = abs(w * math.exp(w) - x)
        assert resid <= 1e-12 * max(1.0, abs(x))
    assert abs(lambert.lambert_w0(-1.0 / math.e) + 1.0) <= 1e-6
    for c1 in np.linspace(0.03, 0.98, 20):
        c2 = lambert.umslr_case_c_c2(float(c1))
        resid = abs(c2 * math.log(c2) + c1 * math.log(c1))
        assert resid <= 1e-10
        assert 1.0 < c2 < 1.0 / c1
    _done(2, "lambert round-trips and boundary curve residuals", t0, 1.0)


def _reference_sgd(pb_spec, sched, iterations, eval_every, seed, x0):
    rng = optimizer.stream_generator(seed, optimizer.GRAD_STREAM)
    x = x0.copy()
    losses, grads = [], []
    for k in range(iterations):
        if k % eval_every == 0:
            g = problems.full_gradient(pb_spec, x)
            losses.append(problems.loss(pb_spec, x))
            grads.append(float(g @ g))
        gs = problems.stochastic_gradient(pb_spec, x, rng)
        x = x - optimizer.step_size(sched, k) * gs.vector
    g = problems.full_gradient(pb_spec, x)
    losses.append(problems.loss(pb_spec, x))
    grads.append(float(g @ g))
    return np.array(losses), np.array(grads)


def test_criterion_03_unit_factor_is_plain_sgd_bitwise():
    t0 = time.time()
    cases = [
        (problems.make_quadratic(dim=5, cond=10.0, sigma=0.1),
         {"constant": 0.05, "inverse_k": 0.1, "inverse_sqrt_k": 0.05},
         np.ones(5)),
        (problems.make_rosenbrock(sigma=0.0),
         {"constant": 1e-4, "inverse_k": 1e-3, "inverse_sqrt_k": 1e-4},
         np.array([-1.2, 1.0])),
        (problems.make_logreg_nonconvex(n=40, d=5, reg=0.1, seed=2),
         {"constant": 0.5, "inverse_k": 0.5, "inverse_sqrt_k": 0.3},
         np.ones(5)),
    ]
    for pb_spec, etas, x0 in cases:
        for family, eta in etas.items():
            sched = StepSizeSchedule(family, eta)
            for seed in (0, 1):
                traj = optimizer.run(pb_spec, sched, sf.constant(1.0), iterations=500,
                                     eval_every=10, x0=x0, seed=seed)
                ref_loss, ref_grad = _reference_sgd(pb_spec, sched, 500, 10, seed, x0)
                assert not traj.diverged
                np.testing.assert_array_equal(traj.loss, ref_loss)
                np.testing.assert_array_equal(traj.grad_norm_sq, ref_grad)
                np.testing.assert_array_equal(traj.min_grad_sq,
                                              np.minimum.accumulate(ref_grad))
    _done(3, "unit factor reproduces plain SGD bitwise (3 problems x 3 schedules x 2 seeds)", t0, 30.0)


def test_criterion_04_weighted_average_invariants():
    t0 = time.time()
    pb_spec = problems.make_quadratic(dim=5, cond=10.0, sigma=0.2)
    for family, eta in (("inverse_k", 0.1), ("inverse_sqrt_k", 0.05), ("constant", 0.02)):
        sched = StepSizeSchedule(family, eta)
        traj = optimizer.run(pb_spec, sched, sf.uniform_root(0.3, 0.8),
                             iterations=2000, eval_every=10, seed=11)
        g = harness.attach_gk(traj, sched)
        assert g[1] == traj.grad_norm_sq[0]  # first weight is exactly 2
        for i in range(1, len(g)):
            assert g[i] >= traj.grad_norm_sq[:i].min() - 1e-12
        scaled = StepSizeSchedule(family, eta * 10.0)
        g_scaled = harness.gk_sequence(traj.grad_norm_sq, scaled)
        g_base = harness.gk_sequence(traj.grad_norm_sq, sched)
        np.testing.assert_allclose(g_scaled, g_base, rtol=1e-12)
    _done(4, "weighted-average series: exact start, min domination, scale invariance", t0, 10.0)


def test_criterion_05_envelope_orderings():
    t0 = time.time()
    sched = StepSizeSchedule("inverse_k", 0.1)
    ks = np.arange(1, 100_001)
    case12 = harness.envelope_series(TheoremCase.CASE_12, sf.uniform_root(0.3, 0.8), sched, ks)
    base = harness.envelope_series(TheoremCase.DETERMINISTIC, sf.uniform_root(0.3, 0.8), sched, ks)
    assert (case12.values < base.values).all()
    for case in (TheoremCase.CASE_11A, TheoremCase.CASE_11B, TheoremCase.CASE_12):
        unit = harness.envelope_series(case, sf.constant(1.0), sched, ks)
        np.testing.assert_allclose(unit.values, base.values, rtol=1e-15)
        np.testing.assert_array_equal(unit.values, base.values)
    _done(5, "case envelope beats baseline at every k in [1, 1e5]; unit factor collapses", t0, 5.0)


_C6_CONFIG = None  # (trajectory, envelope) shared with criterion 7


def _criterion6_run():
    global _C6_CONFIG
    if _C6_CONFIG is None:
        pb_spec = problems.make_quadratic(dim=10, cond=10.0, sigma=0.0)
        sched = StepSizeSchedule("inverse_k", 0.1)
        spec = sf.uniform_root(0.3, 0.8)
        traj = optimizer.run(pb_spec, sched, spec, iterations=100_000, eval_every=10, seed=77)
        _C6_CONFIG = (pb_spec, sched, spec, traj)
    return _C6_CONFIG


def test_criterion_06_little_o_diagnostic_consistent():
    t0 = time.time()
    pb_spec, sched, spec, traj = _criterion6_run()
    assert not traj.diverged
    env = harness.trajectory_envelope(traj, TheoremCase.CASE_12, spec, sched)
    diag = harness.little_o_diagnostic(traj.min_grad_sq[1:], env, 1000, 100_000)
    assert diag.verdict is Verdict.CONSISTENT
    assert diag.window_slope <= -0.05
    assert diag.r_hi < diag.r_lo
    _done(6, "noiseless run decays strictly inside the case envelope", t0, 60.0)


def test_criterion_07_theorem_conditions_hold_for_diagnostic_config():
    t0 = time.time()
    pb_spec, sched, spec, _ = _criterion6_run()
    profile = sf.moment_profile(spec, 100_000)
    reports = validator.check_theorem_case(profile, TheoremCase.CASE_12,
                                           pb_spec.B, pb_spec.L, sched, 100_000)
    for r in reports:
        assert r.holds, f"{r.condition_name} failed: {r.detail}"
        assert r.first_violation_k is None
    _done(7, "diagnostic config satisfies every stated condition with zero violations", t0, 5.0)


def test_criterion_08_welch_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(88)
    for _ in range(100):
        na, nb = rng.integers(3, 40, size=2)
        a = rng.standard_normal(na) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
        b = rng.standard_normal(nb) * rng.uniform(0.5, 2.0)
        t, df, p = stats.welch_t(a, b)
        va, vb = a.var(ddof=1), b.var(ddof=1)
        se2 = va / na + vb / nb
        t_ref = (a.mean() - b.mean()) / math.sqrt(se2)
        df_ref = se2**2 / (va**2 / (na**2 * (na - 1)) + vb**2 / (nb**2 * (nb - 1)))
        assert t == pytest.approx(t_ref, rel=1e-10)
        assert df == pytest.approx(df_ref, rel=1e-10)
        assert p == pytest.approx(2 * scipy.stats.t.sf(abs(t_ref), df_ref), rel=1e-8, abs=1e-12)
    t, df, p = stats.welch_t(np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0]))
    assert t == pytest.approx(-math.sqrt(1.5), rel=1e-15)
    assert df == pytest.approx(4.0, rel=1e-12)
    assert p == pytest.approx(0.287864, abs=1e-3)
    assert stats.bonferroni([0.05], fwer=0.05) == [True]
    assert stats.bonferroni([0.0125, 0.0126], fwer=0.025) == [True, False]
    _done(8, "welch statistics match direct formulas and the worked example", t0, 5.0)


_C9_BASE = """\
problem = quadratic
problem.dim = 10
problem.cond = 10.0
problem.sigma = 0.1
schedule = inverse_k
schedule.eta = 0.1
iterations = 10000
eval_every = 10
n_seeds = 40
master_seed = 2024
"""


def test_criterion_09_full_paired_comparison_protocol(tmp_path, monkeypatch):
    t0 = time.time()
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    cfg_a = tmp_path / "a.txt"
    cfg_a.write_text(_C9_BASE + "sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 0.8\n")
    cfg_b = tmp_path / "b.txt"
    cfg_b.write_text(_C9_BASE + "sf = constant\nsf.value = 1.0\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["compare", "--config-a", str(cfg_a), "--config-b", str(cfg_b),
            "--metric", "min_grad_sq"]
    assert cli_io.main(args + ["--out", str(out1)]) == 0
    assert cli_io.main(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert "paired gradient streams verified identical per seed" in \
        (out1 / "report.txt").read_text()
    report = cli_io.read_report(out1 / "report.csv")
    assert len(report.checkpoints) == 10  # log-spaced eval points
    assert report.checkpoints[-1] == 10_000
    assert len(report.t) == len(report.df) == len(report.p) == len(report.significant) == 10
    assert all(math.isfinite(v) for v in report.t)
    assert all(v > 0 for v in report.df)
    assert all(0.0 <= v <= 1.0 for v in report.p)
    assert report.wins_a is not None and all(0 <= w <= 40 for w in report.wins_a)
    assert report.n_a == 40 and report.n_b == 40
    assert report.excluded_a == 0 and report.excluded_b == 0
    _done(9, "40-seed paired comparison with identical gradient streams and stable report", t0, 300.0)


def test_criterion_10_cli_byte_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    cfg = """\
problem = quadratic
problem.dim = 5
problem.cond = 10.0
problem.sigma = 0.1
schedule = inverse_k
schedule.eta = 0.1
sf = uniform_root
sf.c1 = 0.3
sf.c2 = 0.8
iterations = 500
eval_every = 10
n_seeds = 3
master_seed = 7
"""
    path = tmp_path / "cfg.txt"
    path.write_text(cfg)
    monkeypatch.setenv("SLRLAB_SEED", "4242")
    assert cli_io.main(["run", "--config", str(path), "--out", str(tmp_path / "o1")]) == 0
    assert cli_io.main(["run", "--config", str(path), "--out", str(tmp_path / "o2")]) == 0
    names = sorted(f.name for f in (tmp_path / "o1").iterdir())
    assert names == ["metadata.txt", "run_seed000.csv", "run_seed001.csv", "run_seed002.csv"]
    for name in names:
        a = (tmp_path / "o1" / name).read_bytes()
        b = (tmp_path / "o2" / name).read_bytes()
        assert a == b, f"{name} differs between identical invocations"
    assert "master_seed = 4242" in (tmp_path / "o1" / "metadata.txt").read_text()
    _done(10, "repeated cli runs with a pinned seed are byte-identical", t0, 60.0)
