import re
import tracemalloc

import numpy as np
import pytest

from slrlab import cli_io, optimizer, problems, sf
from slrlab.optimizer import StepSizeSchedule


def test_step_size_values():
    assert optimizer.step_size(StepSizeSchedule("constant", 0.3), 5) == 0.3
    assert optimizer.step_size(StepSizeSchedule("inverse_k", 1.0), 0) == 1.0
    assert optimizer.step_size(StepSizeSchedule("inverse_k", 1.0), 3) == 0.25
    assert optimizer.step_size(StepSizeSchedule("inverse_sqrt_k", 2.0), 3) == pytest.approx(1.0)
    series = optimizer.step_sizes(StepSizeSchedule("inverse_k", 0.5), 10)
    np.testing.assert_allclose(series, 0.5 / (np.arange(10) + 1.0))


@pytest.mark.parametrize("family", optimizer.SCHEDULE_FAMILIES)
def test_step_sizes_reject_a_negative_length_with_one_message(family):
    schedule = StepSizeSchedule(family, 0.5)
    with pytest.raises(ValueError, match=re.escape("k_max must be >= 0, got k_max=-4")):
        optimizer.step_sizes(schedule, -4)
    assert len(optimizer.step_sizes(schedule, 0)) == 0


# 1e-309 is subnormal, and so are its early step sums (the CSV tests' edge schedule).
@pytest.mark.parametrize("eta", [0.3, 1e-309])
@pytest.mark.parametrize("family", optimizer.SCHEDULE_FAMILIES)
def test_step_sums_add_the_step_sizes_one_by_one(family, eta):
    schedule = StepSizeSchedule(family, eta)
    want, s = [0.0], 0.0
    for t in range(1000):
        s += optimizer.step_size(schedule, t)
        want.append(s)
    assert optimizer.step_sums(schedule, 1000).tobytes() == np.array(want).tobytes()
    assert optimizer.step_sums(schedule, 0).tolist() == [0.0]
    with pytest.raises(ValueError, match=re.escape("k_max must be >= 0, got k_max=-4")):
        optimizer.step_sums(schedule, -4)


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
    np.testing.assert_array_equal(traj.u_eval, [1.0, 1.0, 1.0, np.nan])


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


def test_min_grad_sq_running_minimum(tmp_path):
    pb = problems.make_quadratic(dim=5, cond=10.0, sigma=0.3)
    traj = optimizer.run(pb, StepSizeSchedule("inverse_k", 0.2), sf.uniform_root(0.3, 0.8),
                         iterations=500, eval_every=10, seed=4)
    assert (np.diff(traj.min_grad_sq) <= 0).all()
    np.testing.assert_array_equal(traj.min_grad_sq, np.minimum.accumulate(traj.grad_norm_sq))
    # The start's loss overflows: the run stops at k = 0 with a nan norm,
    # and the running minimum over no finite norm reads inf, not nan.
    traj = optimizer.run_arms(problems.make_quadratic(dim=3, cond=10.0, sigma=0.1),
                              StepSizeSchedule("inverse_k", 0.1), [sf.uniform_root(0.3, 0.8)],
                              20, 5, np.full(3, 1e200), seeds=[0])[0][0]
    assert traj.truncated_at == 0 and traj.loss.tolist() == [np.inf]
    assert np.isnan(traj.grad_norm_sq).tolist() == [True]
    assert traj.min_grad_sq.tolist() == [np.inf]
    path = tmp_path / "t.csv"
    cli_io.write_trajectory_csv(traj, path, StepSizeSchedule("inverse_k", 0.1))
    header, row = path.read_text().splitlines()
    assert row.split(",")[header.split(",").index("min_grad_sq")] == "inf"


def test_u_eval_within_per_step_support():
    # eval_every = 1 records the factor of every step; the final iterate has none
    spec = sf.uniform_root(0.3, 0.8)
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
    traj = optimizer.run(pb, StepSizeSchedule("inverse_k", 0.1), spec,
                         iterations=200, eval_every=1, seed=9)
    assert len(traj.u_eval) == 201 and np.isnan(traj.u_eval[-1])
    for k in range(200):
        lo, hi = sf.support_bounds(spec, k)
        assert lo <= traj.u_eval[k] <= hi


def test_sum_eta_snapshots_before_step(tmp_path):
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    sched = StepSizeSchedule("inverse_k", 1.0)
    traj = optimizer.run(pb, sched, sf.constant(1.0), iterations=4, eval_every=1)
    path = tmp_path / "t.csv"
    cli_io.write_trajectory_csv(traj, path, sched)
    cols = cli_io.read_trajectory_csv(path)
    # sum over t < k of eta_t
    np.testing.assert_allclose(cols["sum_eta"], [0.0, 1.0, 1.5, 1.5 + 1 / 3, 1.5 + 1 / 3 + 0.25])
    np.testing.assert_allclose(cols["eta_k"], [1.0, 0.5, 1 / 3, 0.25, 0.2])


def test_within_run_determinism():
    pb = problems.make_quadratic(dim=4, cond=10.0, sigma=0.2)
    args = (pb, StepSizeSchedule("inverse_k", 0.1), sf.uniform_root(0.3, 0.8))
    a = optimizer.run(*args, iterations=300, eval_every=10, seed=7)
    b = optimizer.run(*args, iterations=300, eval_every=10, seed=7)
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.grad_norm_sq, b.grad_norm_sq)
    np.testing.assert_array_equal(a.u_eval, b.u_eval)
    assert a.grad_stream_digest == b.grad_stream_digest
    c = optimizer.run(*args, iterations=300, eval_every=10, seed=8)
    assert c.grad_stream_digest != a.grad_stream_digest
    assert not np.array_equal(a.u_eval, c.u_eval, equal_nan=True)


def test_paired_arms_share_gradient_stream():
    # same seed, different u factors: the gradient noise must be identical
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    a = optimizer.run(pb, sched, sf.uniform_root(0.3, 0.8), iterations=200, eval_every=10, seed=5)
    b = optimizer.run(pb, sched, sf.constant(1.0), iterations=200, eval_every=10, seed=5)
    assert a.grad_stream_digest == b.grad_stream_digest
    assert not np.array_equal(a.u_eval, b.u_eval, equal_nan=True)
    # logreg pairs through the summand index stream the same way
    pbl = problems.make_logreg_nonconvex(n=30, d=3, reg=0.1, seed=2)
    al = optimizer.run(pbl, sched, sf.uniform_root(0.3, 0.8), iterations=100, eval_every=10, seed=5)
    bl = optimizer.run(pbl, sched, sf.constant(1.0), iterations=100, eval_every=10, seed=5)
    assert al.grad_stream_digest == bl.grad_stream_digest


def test_stream_digest_covers_the_draws_a_row_stepped_on(monkeypatch):
    # Three blocks of steps at eta 0.202: the second arm's rows stop in the
    # first block, the first arm's in the first or the second, the third
    # arm's run on.  Every row's digest, a stopped row's prefix digest too,
    # is that of its seed's single run.
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("constant", 0.202)
    specs = [sf.uniform_root(0.3, 0.8), sf.uniform_root(0.9, 1.1), sf.constant(0.5)]
    seeds = [11, 12, 13]
    arms = optimizer.run_arms(pb, sched, specs, 3000, 100, seeds=seeds)
    assert [[t.truncated_at for t in arm] for arm in arms] == [[1000, 1100, 1200], [700] * 3, [None] * 3]
    for spec, arm in zip(specs, arms):
        alone = [optimizer.run(pb, sched, spec, 3000, 100, seed=s) for s in seeds]
        assert [t.grad_stream_digest for t in arm] == [t.grad_stream_digest for t in alone]
    assert len({t.grad_stream_digest for arm in arms for t in arm}) == 9

    # A row fed another seed's draws stops the run, whether it is fed them
    # in the first block or only in the second, after rows have stopped.
    stack = optimizer._stack_draws
    for first_fed in (9, 5):
        def shifted(seed_draws, pos):
            # from the block with first_fed live rows on, each row of the
            # second half gets the next seed's block
            if len(pos) > first_fed:
                return stack(seed_draws, pos)
            half = len(pos) // 2
            return stack(seed_draws, np.concatenate([pos[:half], (pos[half:] + 1) % seed_draws.shape[1]]))

        monkeypatch.setattr(optimizer, "_stack_draws", shifted)
        with pytest.raises(RuntimeError, match=optimizer.PAIRING_ERROR):
            optimizer.run_arms(pb, sched, specs, 3000, 100, seeds=seeds)


def test_run_memory_follows_the_eval_grid_not_the_step_count():
    # Both runs record 201 eval points of 40 seeds; the first takes ten
    # times the steps of the second.
    pb = problems.make_quadratic(dim=10, cond=10.0, sigma=0.1)
    args = (pb, StepSizeSchedule("inverse_k", 0.1), [sf.uniform_root(0.3, 0.8)])
    seeds = list(range(40))
    optimizer.run_arms(*args, 20, 10, seeds=seeds)  # the first call's imports are not the run's

    def peak(iterations, eval_every):
        tracemalloc.start()
        try:
            optimizer.run_arms(*args, iterations, eval_every, seeds=seeds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20000, 100) <= peak(2000, 10)


def test_run_holds_three_series_per_row():
    # Loss, gradient norm and factor per eval point; the running minimum
    # of the norm is computed when read, not held.  What else the run
    # keeps (the eval grid, the quadratic's tiled eigenvalues) is
    # about a fifth of a series at this length.
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
    args = (pb, StepSizeSchedule("inverse_k", 0.1), [sf.uniform_root(0.3, 0.8)])
    seeds = list(range(40))
    optimizer.run_arms(*args, 20, 1, seeds=seeds)  # the first call's imports are not the run's
    tracemalloc.start()
    try:
        batch = optimizer.run_arms(*args, 10000, 1, seeds=seeds)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(batch[0]) == 40
    assert held < 3.5 * 40 * 10001 * 8


def test_eval_grid_is_a_shared_read_only_view():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.1)
    batch = optimizer.run_arms(pb, StepSizeSchedule("inverse_k", 2.5), [sf.uniform_root(0.001, 4.0)],
                               200, 10, seeds=range(8))[0]
    (diverged,) = [t for t in batch if t.diverged]
    full, *others = [t for t in batch if not t.diverged]
    assert others
    column = full.eval_points
    assert len(column) == 21
    for t in batch:
        with pytest.raises(ValueError, match="read-only"):
            t.eval_points[0] = 1
    for t in others:
        assert t.eval_points is not column and np.shares_memory(t.eval_points, column)
    prefix = diverged.eval_points
    assert 0 < len(prefix) < len(column) and np.shares_memory(prefix, column)
    assert prefix.tobytes() == column[:len(prefix)].tobytes()


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


@pytest.mark.parametrize("x0, sf_specs, reason", [
    (np.ones(3), [sf.constant(1.0)], "x0 must have shape (2,)"),
    (np.array([1.0, np.nan]), [sf.constant(1.0)], "x0 must be finite"),
    (None, [], "need at least one SF spec"),
], ids=["x0-shape", "x0-nonfinite", "no-sf-spec"])
def test_run_arms_rejects_a_bad_start_or_no_arm(x0, sf_specs, reason):
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    with pytest.raises(ValueError, match=re.escape(reason)):
        optimizer.run_arms(pb, StepSizeSchedule("constant", 0.1), sf_specs, 100, 10, x0, seeds=[0])


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
