"""A seed's run does not depend on the batch it is stepped in.

``run_arms`` steps every (arm, seed) pair as one row of an array, with
each seed's gradient randomness drawn once per block of steps and shared
by its row in every arm.  Each trajectory must be bitwise the one
``run_arms`` gives for its arm alone, the one ``run(seed=s)`` gives, and
the one a plain scalar loop gives: one ``sf.sample``, one
``stochastic_gradient`` and one update ``x - (eta_k * u_k) * g`` per
step.  The batches below mix seeds that
finish, seeds that diverge (by the loss limit at an eval point, or by a
non-finite iterate) and, on Rosenbrock, seeds that leave the certified
box.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from slrlab import optimizer, problems, sf
from slrlab.optimizer import StepSizeSchedule

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

def scalar_reference(problem, schedule, spec, iterations, eval_every, x0, seed):
    """One seed, one step at a time: the runner before seeds were batched."""
    x = np.ones(problem.dim) if x0 is None else np.array(x0, dtype=float)
    grad_rng = optimizer.stream_generator(seed, optimizer.GRAD_STREAM)
    sf_rng = optimizer.stream_generator(seed, optimizer.SF_STREAM)
    digest = hashlib.sha256()
    rec = {name: [] for name in ("eval_points", "loss", "grad_norm_sq", "min_grad_sq", "sum_eta")}
    u_series = []
    sum_eta, running_min = 0.0, np.inf
    certified, truncated_at = True, None
    lo, hi = problem.domain_box or (-np.inf, np.inf)

    def record(k):
        nonlocal running_min, truncated_at
        f = problems.loss(problem, x)
        g2 = np.nan
        if np.isfinite(f):
            g = problems.full_gradient(problem, x)
            g2 = float(g @ g)
            running_min = min(running_min, g2)
        for name, v in zip(rec, (k, f, g2, running_min, sum_eta)):
            rec[name].append(v)
        if not np.isfinite(f) or f > optimizer.LOSS_DIVERGENCE_LIMIT:
            truncated_at = k
        return truncated_at is None

    for k in range(iterations):
        if k % eval_every == 0 and not record(k):
            break
        eta_k = optimizer.step_size(schedule, k)
        u_k = sf.sample(spec, k, sf_rng)
        gs = problems.stochastic_gradient(problem, x, grad_rng)
        if isinstance(gs.draw, np.ndarray):
            digest.update(gs.draw.tobytes())
        elif gs.draw is not None:
            digest.update(struct.pack("<q", gs.draw))
        x = x - (eta_k * u_k) * gs.vector
        u_series.append(u_k)
        sum_eta += eta_k
        if (x < lo).any() or (x > hi).any():
            certified = False
        if not np.isfinite(x).all():
            truncated_at = k + 1
            break
    else:
        record(iterations)

    ks = np.array(rec["eval_points"], dtype=int)
    u = np.array(u_series, dtype=float)
    return dict(
        eval_points=ks,
        loss=np.array(rec["loss"]),
        grad_norm_sq=np.array(rec["grad_norm_sq"]),
        min_grad_sq=np.array(rec["min_grad_sq"]),
        sum_eta=np.array(rec["sum_eta"]),
        eta_eval=np.array([optimizer.step_size(schedule, int(k)) for k in ks]),
        u_eval=np.array([u[k] if k < len(u) else np.nan for k in ks]),
        u_series=u,
        seed=seed,
        certified=certified and truncated_at is None,
        diverged=truncated_at is not None,
        truncated_at=truncated_at,
        grad_stream_digest=digest.hexdigest(),
    )


def assert_bitwise(traj, expected):
    for name, want in expected.items():
        got = getattr(traj, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), f"{name} differs for seed {traj.seed}"
        else:
            assert got == want, f"{name} differs for seed {traj.seed}"


def outcome(traj):
    if traj.diverged:
        return "loss_limit" if traj.eval_points[-1] == traj.truncated_at else "nonfinite_iterate"
    return "finished" if traj.certified else "left_box"


# (problem, schedule, factor, x0, outcomes over seeds 0..7).  The factor's
# support is wide in the first steps, so whether a seed blows up depends
# on its draws.
CASES = {
    "quadratic": (problems.make_quadratic(dim=3, cond=10.0, sigma=0.1),
                  StepSizeSchedule("inverse_k", 2.5), sf.uniform_root(0.001, 4.0), None,
                  {"finished", "loss_limit"}),
    "quadratic_noiseless": (problems.make_quadratic(dim=3, cond=10.0, sigma=0.0),
                            StepSizeSchedule("inverse_k", 2.5), sf.uniform_root(0.001, 4.0), None,
                            {"finished", "loss_limit"}),
    "rosenbrock": (problems.make_rosenbrock(sigma=0.5),
                   StepSizeSchedule("inverse_k", 0.01), sf.uniform_root(0.01, 2.0), np.array([-1.2, 1.0]),
                   {"finished", "left_box", "loss_limit", "nonfinite_iterate"}),
    "logreg": (problems.make_logreg_nonconvex(n=30, d=3, reg=0.1, seed=1),
               StepSizeSchedule("inverse_k", 1e13), sf.uniform_root(0.001, 4.0), None,
               {"finished", "loss_limit"}),
}
SEEDS = list(range(8))


def check_batch(case, iterations, eval_every, outcomes=None):
    problem, schedule, spec, x0, case_outcomes = CASES[case]
    batch = optimizer.run_arms(problem, schedule, [spec], iterations, eval_every, x0, seeds=SEEDS)[0]
    assert [t.seed for t in batch] == SEEDS
    assert {outcome(t) for t in batch} == (case_outcomes if outcomes is None else outcomes)
    for seed, traj in zip(SEEDS, batch):
        alone = optimizer.run(problem, schedule, spec, iterations, eval_every, x0, seed=seed)
        expected = scalar_reference(problem, schedule, spec, iterations, eval_every, x0, seed)
        assert_bitwise(traj, expected)
        assert_bitwise(alone, expected)
        assert traj.config_digest == alone.config_digest
    return batch


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_single_runs_and_scalar_loop(case):
    # 2500 steps: two full blocks of the module's length and a partial third.
    assert 2500 % optimizer.BLOCK_STEPS != 0 and 2500 > 2 * optimizer.BLOCK_STEPS
    check_batch(case, 2500, 10)


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_with_short_blocks_off_the_eval_cadence(case, monkeypatch):
    # Blocks of 7 steps against evals every 10: the eval points and the
    # divergences land at every offset inside a block.
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", 7)
    check_batch(case, 200, 10)


@pytest.mark.parametrize("block", [8, 10])
def test_divergence_exactly_at_a_block_boundary(block, monkeypatch):
    # On the Rosenbrock case one seed's iterate turns non-finite at step
    # 7 (truncated_at 8, the last step of an 8-step block) and another
    # crosses the loss limit at the eval point k = 10 (the first step of
    # the second 10-step block).
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", block)
    batch = check_batch("rosenbrock", 200, 10)
    assert block in {t.truncated_at for t in batch}


def first_events(case, iterations, eval_every, seed):
    """(first eval k over the loss limit, first k with a non-finite iterate)
    of a scalar run that never stops; None where there is none."""
    problem, schedule, spec, x0, _ = CASES[case]
    return events(problem, schedule, spec, x0, iterations, eval_every, seed)


def events(problem, schedule, spec, x0, iterations, eval_every, seed):
    """:func:`first_events` for any configuration."""
    x = np.ones(problem.dim) if x0 is None else np.array(x0, dtype=float)
    grad_rng = optimizer.stream_generator(seed, optimizer.GRAD_STREAM)
    sf_rng = optimizer.stream_generator(seed, optimizer.SF_STREAM)
    k_loss = k_nonfinite = None
    for k in range(iterations + 1):
        if k_nonfinite is None and not np.isfinite(x).all():
            k_nonfinite = k
        if k_loss is None and k % eval_every == 0:
            f = problem.value_and_gradient(x[None])[0][0]
            if not f <= optimizer.LOSS_DIVERGENCE_LIMIT:
                k_loss = k
        if k == iterations:
            break
        u_k = sf.sample_block(spec, k, 1, [sf_rng])[0, 0]
        g = problem.step_gradient(x[None], problem.draw_block(grad_rng, 1))[0]
        x = x - (optimizer.step_size(schedule, k) * u_k) * g
    return k_loss, k_nonfinite


@pytest.mark.parametrize("case, outcomes", [
    ("quadratic", {"finished", "loss_limit"}),
    ("rosenbrock", {"finished", "left_box", "loss_limit"}),
    ("logreg", {"finished", "loss_limit"}),
])
def test_eval_every_step_with_short_blocks(case, outcomes, monkeypatch):
    # Every k is an eval point, so a block of 7 steps buffers 7 iterates
    # (8 on the last block, which carries the final point).
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", 7)
    check_batch(case, 200, 1, outcomes)


@pytest.mark.parametrize("case", ["quadratic", "logreg"])
@pytest.mark.parametrize("iterations", [10, 200])
def test_loss_limit_at_the_last_eval_point_of_a_block(case, iterations, monkeypatch):
    # Blocks of 11 steps hold the eval points 0 and 10; a seed crosses the
    # loss limit at k = 10.  With 10 iterations, k = 10 is also the final
    # point, which the last block evaluates after its steps.
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", 11)
    assert any(first_events(case, iterations, 10, s)[0] == 10 for s in SEEDS)
    batch = check_batch(case, iterations, 10)
    assert 10 in {t.truncated_at for t in batch if outcome(t) == "loss_limit"}


@pytest.mark.parametrize("eval_every, order", [
    (10, "loss limit first"), (10, "non-finite first"), (8, "tied"), (9, "tied"),
])
def test_loss_limit_and_nonfinite_iterate_in_one_block(eval_every, order, monkeypatch):
    # A seed meets both events inside one 16-step block: the loss limit
    # at an eval point and a non-finite iterate.  The earlier one stops
    # the run; on a tie the non-finite iterate wins and that eval is not
    # recorded.
    block = 16
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", block)
    iterations = 16 * eval_every
    relation = {"loss limit first": lambda kl, kn: kl < kn,
                "non-finite first": lambda kl, kn: kn < kl,
                "tied": lambda kl, kn: kl == kn}[order]
    events = [first_events("rosenbrock", iterations, eval_every, s) for s in SEEDS]
    assert any(kl is not None and kn is not None and kl // block == (kn - 1) // block and relation(kl, kn)
               for kl, kn in events)
    batch = check_batch("rosenbrock", iterations, eval_every)
    for (kl, kn), traj in zip(events, batch):
        if kn is not None and kn <= kl:
            assert outcome(traj) == "nonfinite_iterate" and traj.truncated_at == kn
            assert traj.eval_points[-1] < kn


# ---------------------------------------------------------------------------
# Several arms in one stack


def check_arms(problem, schedule, specs, iterations, eval_every, x0=None, seeds=SEEDS):
    """run_arms against run_arms per arm and the scalar loop per row."""
    arms = optimizer.run_arms(problem, schedule, specs, iterations, eval_every, x0, seeds=seeds)
    assert len(arms) == len(specs)
    for spec, arm in zip(specs, arms):
        alone = optimizer.run_arms(problem, schedule, [spec], iterations, eval_every, x0, seeds=seeds)[0]
        assert [t.seed for t in arm] == list(seeds)
        for seed, traj, single in zip(seeds, arm, alone):
            expected = scalar_reference(problem, schedule, spec, iterations, eval_every, x0, seed)
            assert_bitwise(traj, expected)
            assert_bitwise(single, expected)
            assert traj.config_digest == single.config_digest
    return arms


EXTRA_ARMS = [sf.constant(0.05), sf.uniform_root(0.3, 0.8)]


@pytest.mark.parametrize("n_arms", [2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_arms_match_per_arm_runs_and_scalar_loop(case, n_arms, monkeypatch):
    # Blocks of 7 steps against evals every 10.  The case's own factor
    # makes some seeds diverge; the same seeds go on in the other arms.
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", 7)
    problem, schedule, spec, x0, outcomes = CASES[case]
    arms = check_arms(problem, schedule, [spec, *EXTRA_ARMS][:n_arms], 200, 10, x0)
    assert {outcome(t) for t in arms[0]} == outcomes
    assert any(a.diverged and not b.diverged for a, b in zip(arms[0], arms[1]))


def test_arms_with_full_blocks_and_a_partial_last_block():
    problem, schedule, spec, x0, _ = CASES["rosenbrock"]
    check_arms(problem, schedule, [sf.constant(1.0), spec], 2500, 10, x0)


def test_compare_config_where_one_arm_diverges():
    # The config that once made `compare` exit 2: every seed diverges with
    # the unit factor and none with the factor 0.001.
    problem = problems.make_quadratic(dim=4, cond=10.0, sigma=0.1)
    seeds = [optimizer.split_seed(0, i) for i in range(4)]
    arms = check_arms(problem, StepSizeSchedule("inverse_k", 50.0), [sf.constant(1.0), sf.constant(0.001)],
                      1000, 10, seeds=seeds)
    assert all(t.diverged for t in arms[0]) and not any(t.diverged for t in arms[1])


@pytest.mark.parametrize("position", ["first", "last"])
def test_an_arm_in_which_every_seed_diverges(position, monkeypatch):
    # The arm runs out of rows in the first blocks; the other arms step
    # on without it, on both sides of it in the stack.
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", 7)
    problem, schedule, _, _, _ = CASES["quadratic"]
    doomed = sf.uniform_root(50.0, 60.0)
    specs = [doomed, *EXTRA_ARMS] if position == "first" else [*EXTRA_ARMS, doomed]
    arms = check_arms(problem, schedule, specs, 200, 10)
    by_spec = dict(zip(specs, arms))
    assert all(t.diverged and t.truncated_at < 14 for t in by_spec[doomed])
    assert not any(t.diverged for spec in EXTRA_ARMS for t in by_spec[spec])


# A one-dimensional quadratic with unit curvature and x0 = 100: a constant
# factor u = 10**e (eta = 1) multiplies the iterate by about -10**e per
# step, so the first non-finite iterate is x_t for the first t with
# 2 + e * t > 308.25.
BLOW_UP = (problems.make_quadratic(dim=1, cond=1.0, sigma=0.1), StepSizeSchedule("constant", 1.0),
           np.array([100.0]))
BLOW_UP_AT = {1: 307.0, 8: 41.0, 11: 29.0, 14: 22.7}


def blow_up_arms():
    return [sf.constant(10.0 ** e) for e in BLOW_UP_AT.values()] + [sf.constant(0.5)]


def test_first_nonfinite_iterate_at_each_offset_of_a_block(monkeypatch):
    # With 7-step blocks the iterate first turns non-finite at the first
    # step of the first block (t = 1), the first step of the second (t = 8),
    # a middle step (t = 11) and its last step (t = 14).  The only eval
    # points are k = 0 and the final k = 21, so the loss limit plays no part.
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", 7)
    problem, schedule, x0 = BLOW_UP
    specs = blow_up_arms()
    for t, spec in zip(BLOW_UP_AT, specs):
        assert events(problem, schedule, spec, x0, 21, 21, 0) == (21, t)
    arms = check_arms(problem, schedule, specs, 21, 21, x0, seeds=SEEDS[:3])
    for t, arm in zip(BLOW_UP_AT, arms):
        assert [(outcome(tr), tr.truncated_at) for tr in arm] == [("nonfinite_iterate", t)] * 3
    assert not any(tr.diverged for tr in arms[-1])


def test_first_nonfinite_iterate_decided_by_each_seeds_own_draws(monkeypatch):
    # With a noise scale of 1e308 (past what make_quadratic certifies, so
    # set on the object) a draw overflows to inf when |xi| > 1.797, and
    # the iterate turns non-finite at that step: each seed's first event
    # falls at its own offset of a 7-step block, so a replay that read
    # another row's draws would find another k.
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", 7)
    problem = problems.make_quadratic(dim=1, cond=1.0, sigma=1.0)
    problem = dataclasses.replace(problem, sigma=1e308)
    schedule = StepSizeSchedule("constant", 1.0)
    arms = check_arms(problem, schedule, [sf.constant(1.0), sf.uniform_root(0.3, 0.8)], 21, 21)
    stops = [t.truncated_at for arm in arms for t in arm]
    assert all(outcome(t) == "nonfinite_iterate" for arm in arms for t in arm if t.diverged)
    assert len({k % 7 for k in stops if k is not None}) >= 3


@pytest.mark.parametrize("eval_every, scenario", [
    (7, "loss limit first"), (3, "non-finite first"), (1, "tied"),
])
def test_loss_limit_and_nonfinite_iterate_in_one_block_across_arms(eval_every, scenario, monkeypatch):
    # In 7-step blocks, rows of different arms meet both events in one
    # block: the loss limit at an eval point and a non-finite iterate.
    # The earlier one stops the row; on a tie the non-finite iterate wins.
    monkeypatch.setattr(optimizer, "BLOCK_STEPS", 7)
    problem, schedule, x0 = BLOW_UP
    specs = blow_up_arms()
    arms = check_arms(problem, schedule, specs, 21, eval_every, x0, seeds=SEEDS[:3])
    in_one_block = set()
    for spec, arm in zip(specs[:-1], arms):
        kl, kn = events(problem, schedule, spec, x0, 21, eval_every, 0)
        if kl // 7 == (kn - 1) // 7:
            in_one_block.add("tied" if kl == kn else "loss limit first" if kl < kn else "non-finite first")
        want = ("nonfinite_iterate", kn) if kn <= kl else ("loss_limit", kl)
        assert {(outcome(t), t.truncated_at) for t in arm} == {want}
    assert in_one_block == {scenario}
