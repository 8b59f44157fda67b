import re

import numpy as np
import pytest

from slrlab import optimizer, problems, sf
from slrlab.optimizer import StepSizeSchedule


def test_step_size_values():
    assert optimizer.step_size(StepSizeSchedule("constant", 0.3), 5) == 0.3
    assert optimizer.step_size(StepSizeSchedule("inverse_k", 1.0), 0) == 1.0
    assert optimizer.step_size(StepSizeSchedule("inverse_k", 1.0), 3) == 0.25
    assert optimizer.step_size(StepSizeSchedule("inverse_sqrt_k", 2.0), 3) == pytest.approx(1.0)
    series = optimizer.step_sizes(StepSizeSchedule("inverse_k", 0.5), 10)
    np.testing.assert_allclose(series, 0.5 / (np.arange(10) + 1.0))


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSizeSchedule("linear", 0.1)
    with pytest.raises(ValueError):
        StepSizeSchedule("constant", 0.0)
    with pytest.raises(ValueError):
        StepSizeSchedule("constant", -1.0)
    with pytest.raises(ValueError):
        optimizer.step_size(StepSizeSchedule("constant", 0.1), -1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, name", [
    (lambda v: StepSizeSchedule("constant", v), "eta"),
    (sf.constant, "value"),
    (lambda v: sf.uniform_root(v, 0.8), "c1"),
    (lambda v: sf.uniform_root(0.3, v), "c2"),
], ids=["eta", "constant-value", "uniform_root-c1", "uniform_root-c2"])
def test_parameters_reject_non_finite_values(make, name, value):
    # 'eta > 0' and '0 < c1 < c2' hold for inf, and a run on it diverges
    # at k = 1 instead of failing here, naming the parameter.
    with pytest.raises(ValueError, match=re.escape(f"{name}={value!r}")):
        make(value)


def test_sgd_step_formula():
    x = np.array([1.0, 2.0])
    g = np.array([0.5, -1.0])
    out = optimizer.sgd_step(x, g, eta_k=0.1, u_k=2.0)
    np.testing.assert_allclose(out, [0.9, 2.2])
    with pytest.raises(ValueError):
        optimizer.sgd_step(x, g, eta_k=0.0, u_k=1.0)
    with pytest.raises(ValueError):
        optimizer.sgd_step(x, g, eta_k=0.1, u_k=-1.0)


def test_run_quadratic_contraction_closed_form():
    # f = x^2/2, eta = 0.5, u = 1: the iterate halves each step
    pb = problems.make_quadratic(dim=1, cond=1.0, sigma=0.0)
    traj = optimizer.run(pb, StepSizeSchedule("constant", 0.5), sf.constant(1.0),
                         iterations=3, eval_every=1, x0=np.array([1.0]))
    np.testing.assert_allclose(traj.grad_norm_sq, [1.0, 0.25, 0.0625, 0.015625], atol=0)
    np.testing.assert_allclose(traj.loss, [0.5, 0.125, 0.03125, 0.0078125], atol=0)
    np.testing.assert_array_equal(traj.eval_points, [0, 1, 2, 3])
    assert traj.u_series[0] == 1.0
    assert np.isnan(traj.u_eval[-1])


def test_run_unit_factor_two_jumps_to_zero():
    pb = problems.make_quadratic(dim=1, cond=1.0, sigma=0.0)
    traj = optimizer.run(pb, StepSizeSchedule("constant", 0.5), sf.constant(2.0),
                         iterations=1, eval_every=1, x0=np.array([1.0]))
    assert traj.grad_norm_sq[-1] == 0.0
    assert traj.loss[-1] == 0.0


def test_default_x0_is_ones():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.0)
    traj = optimizer.run(pb, StepSizeSchedule("constant", 0.01), sf.constant(1.0),
                         iterations=10, eval_every=10)
    x0 = np.ones(3)
    g0 = problems.full_gradient(pb, x0)
    assert traj.grad_norm_sq[0] == pytest.approx(float(g0 @ g0), abs=0)


def test_min_grad_sq_running_minimum():
    pb = problems.make_quadratic(dim=5, cond=10.0, sigma=0.3)
    traj = optimizer.run(pb, StepSizeSchedule("inverse_k", 0.2), sf.uniform_root(0.3, 0.8),
                         iterations=500, eval_every=10, seed=4)
    assert (np.diff(traj.min_grad_sq) <= 0).all()
    np.testing.assert_array_equal(traj.min_grad_sq, np.minimum.accumulate(traj.grad_norm_sq))


def test_u_series_within_per_step_support():
    spec = sf.uniform_root(0.3, 0.8)
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
    traj = optimizer.run(pb, StepSizeSchedule("inverse_k", 0.1), spec,
                         iterations=200, eval_every=1, seed=9)
    for k in range(200):
        lo, hi = sf.support_bounds(spec, k)
        assert lo <= traj.u_series[k] <= hi


def test_sum_eta_snapshots_before_step():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    sched = StepSizeSchedule("inverse_k", 1.0)
    traj = optimizer.run(pb, sched, sf.constant(1.0), iterations=4, eval_every=1)
    # sum over t < k of eta_t
    np.testing.assert_allclose(traj.sum_eta, [0.0, 1.0, 1.5, 1.5 + 1 / 3, 1.5 + 1 / 3 + 0.25])
    np.testing.assert_allclose(traj.eta_eval[:-1], [1.0, 0.5, 1 / 3, 0.25])


def test_within_run_determinism():
    pb = problems.make_quadratic(dim=4, cond=10.0, sigma=0.2)
    args = (pb, StepSizeSchedule("inverse_k", 0.1), sf.uniform_root(0.3, 0.8))
    a = optimizer.run(*args, iterations=300, eval_every=10, seed=7)
    b = optimizer.run(*args, iterations=300, eval_every=10, seed=7)
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.grad_norm_sq, b.grad_norm_sq)
    np.testing.assert_array_equal(a.u_series, b.u_series)
    assert a.grad_stream_digest == b.grad_stream_digest
    c = optimizer.run(*args, iterations=300, eval_every=10, seed=8)
    assert c.grad_stream_digest != a.grad_stream_digest
    assert not np.array_equal(a.u_series, c.u_series)


def test_paired_arms_share_gradient_stream():
    # same seed, different u factors: the gradient noise must be identical
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    a = optimizer.run(pb, sched, sf.uniform_root(0.3, 0.8), iterations=200, eval_every=10, seed=5)
    b = optimizer.run(pb, sched, sf.constant(1.0), iterations=200, eval_every=10, seed=5)
    assert a.grad_stream_digest == b.grad_stream_digest
    assert not np.array_equal(a.u_series, b.u_series)
    # logreg pairs through the summand index stream the same way
    pbl = problems.make_logreg_nonconvex(n=30, d=3, reg=0.1, seed=2)
    al = optimizer.run(pbl, sched, sf.uniform_root(0.3, 0.8), iterations=100, eval_every=10, seed=5)
    bl = optimizer.run(pbl, sched, sf.constant(1.0), iterations=100, eval_every=10, seed=5)
    assert al.grad_stream_digest == bl.grad_stream_digest


def test_constant_unit_factor_matches_plain_sgd_bitwise():
    pb = problems.make_quadratic(dim=4, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    traj = optimizer.run(pb, sched, sf.constant(1.0), iterations=50, eval_every=1, seed=3)
    # independent loop, no u factor anywhere
    rng = optimizer.stream_generator(3, optimizer.GRAD_STREAM)
    x = np.ones(4)
    losses = [problems.loss(pb, x)]
    for k in range(50):
        gs = problems.stochastic_gradient(pb, x, rng)
        x = x - optimizer.step_size(sched, k) * gs.vector
        losses.append(problems.loss(pb, x))
    np.testing.assert_array_equal(traj.loss, np.array(losses))


def test_divergence_flagged_not_raised():
    pb = problems.make_rosenbrock(sigma=0.0)
    traj = optimizer.run(pb, StepSizeSchedule("constant", 10.0), sf.constant(1.0),
                         iterations=100, eval_every=1, x0=np.array([-1.5, 1.5]))
    assert traj.diverged
    assert traj.truncated_at is not None
    assert not traj.certified
    assert len(traj.eval_points) < 101
    assert np.isfinite(traj.loss[:-1]).all() or traj.loss.size <= 1


def test_box_exit_drops_certificate_without_divergence():
    pb = problems.make_rosenbrock(sigma=0.0)
    traj = optimizer.run(pb, StepSizeSchedule("constant", 0.0002), sf.constant(1.0),
                         iterations=50, eval_every=1, x0=np.array([1.999, -1.999]))
    if not traj.certified:
        assert not traj.diverged or traj.truncated_at is not None


def test_iterations_must_align_with_cadence():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    with pytest.raises(ValueError):
        optimizer.run(pb, StepSizeSchedule("constant", 0.1), sf.constant(1.0),
                      iterations=55, eval_every=10)
    with pytest.raises(ValueError):
        optimizer.run(pb, StepSizeSchedule("constant", 0.1), sf.constant(1.0),
                      iterations=0, eval_every=10)


def test_split_seed_deterministic_and_distinct():
    seeds = [optimizer.split_seed(2024, i) for i in range(100)]
    assert seeds == [optimizer.split_seed(2024, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert optimizer.split_seed(2024, 0) != optimizer.split_seed(2025, 0)


def test_stream_generators_are_independent():
    g0 = optimizer.stream_generator(99, optimizer.GRAD_STREAM)
    g1 = optimizer.stream_generator(99, optimizer.SF_STREAM)
    a = g0.random(1000)
    b = g1.random(1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1
    assert not np.array_equal(a, b)


def test_config_digest_sensitivity():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    a = optimizer.run(pb, sched, sf.constant(1.0), iterations=10, eval_every=10, seed=1)
    b = optimizer.run(pb, sched, sf.constant(1.0), iterations=10, eval_every=10, seed=1)
    c = optimizer.run(pb, sched, sf.constant(1.0), iterations=10, eval_every=10, seed=2)
    d = optimizer.run(pb, sched, sf.uniform_root(0.3, 0.8), iterations=10, eval_every=10, seed=1)
    assert a.config_digest == b.config_digest
    # the digest names the configuration, not the draw: paired seeds share it
    assert a.config_digest == c.config_digest
    assert a.config_digest != d.config_digest
    assert a.rng_algorithm == "pcg64-seedseq-v1"


def test_long_run_regression():
    # frozen reference for the noisy quadratic workload; guards numerics
    # and stream layout against silent drift
    pb = problems.make_quadratic(dim=10, cond=10.0, sigma=0.1, seed=0)
    traj = optimizer.run(pb, StepSizeSchedule("inverse_k", 0.1), sf.uniform_root(0.3, 0.8),
                         iterations=100_000, eval_every=100, seed=2024)
    assert traj.min_grad_sq[-1] == pytest.approx(0.34279713645709803, rel=1e-10)
    assert traj.loss[-1] == pytest.approx(0.12844812651790491, rel=1e-10)
    assert traj.grad_stream_digest == (
        "ad226ec41f0e42b2914be4aa1a8e1d189ede1399c4bd9b5e57a505776cd8fe24")
    assert not traj.diverged and traj.certified
