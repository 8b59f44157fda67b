"""SGD with a multiplicative stochastic learning rate.

The iterate update is x_{k+1} = x_k - eta_k * u_k * g_k where eta_k is
a deterministic step-size schedule, u_k a stochasticity-factor draw,
and g_k a stochastic gradient.  Iteration counting starts at k = 0.

Randomness discipline: each run owns a 64-bit seed.  Two independent
sub-streams are derived from it by spawn-key splitting (stream 0 feeds
the gradient noise, stream 1 the stochasticity factor), so changing the
SF family leaves the gradient draw sequence untouched.  Runs sharing a
seed are therefore exactly paired across SF arms.  The generator is
numpy PCG64 seeded through SeedSequence; within-version determinism is
what the trajectories rely on, and the algorithm tag is recorded on
every trajectory.

All seeds of a configuration are stepped together (:func:`run_batch`),
with each seed's randomness drawn in blocks of steps from its own
streams, and each block's eval points evaluated together.  Block draws
equal per-step draws bit for bit, the eval oracle's rows are bitwise
independent of the stack, and every row is checked on its own, so a
seed's trajectory does not depend on the batch it runs in; :func:`run`
is the one-seed case.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import problems as pb
from . import sf as sfmod

CONSTANT = "constant"
INVERSE_K = "inverse_k"
INVERSE_SQRT_K = "inverse_sqrt_k"
SCHEDULE_FAMILIES = (CONSTANT, INVERSE_K, INVERSE_SQRT_K)

RNG_ALGORITHM = "pcg64-seedseq-v1"
GRAD_STREAM = 0
SF_STREAM = 1

LOSS_DIVERGENCE_LIMIT = 1e12


def split_seed(master_seed: int, index: int) -> int:
    """Child seed i of a master seed: split(master, i).

    Implemented as the first 64-bit word of
    SeedSequence(master, spawn_key=(i,)), so distinct indices give
    statistically independent children and the rule is reproducible
    from the documented constants alone.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """PCG64 generator for one named sub-stream of a run seed."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class StepSizeSchedule:
    """Deterministic positive step sizes eta_k, k >= 0.

    families: constant (eta), inverse_k (eta/(k+1)),
    inverse_sqrt_k (eta/sqrt(k+1)).
    """

    family: str
    eta: float

    def __post_init__(self) -> None:
        if self.family not in SCHEDULE_FAMILIES:
            raise ValueError(f"unknown schedule family: {self.family!r}")
        if not (self.eta > 0):
            raise ValueError("eta must be > 0")


def step_size(schedule: StepSizeSchedule, k: int) -> float:
    """eta_k for k >= 0."""
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    if schedule.family == CONSTANT:
        return schedule.eta
    if schedule.family == INVERSE_K:
        return schedule.eta / (k + 1.0)
    return float(schedule.eta / np.sqrt(k + 1.0))


def step_sizes(schedule: StepSizeSchedule, k_max: int) -> np.ndarray:
    """Vector of eta_k for k = 0..k_max-1."""
    ks = np.arange(float(k_max))
    if schedule.family == CONSTANT:
        return np.full(k_max, schedule.eta)
    if schedule.family == INVERSE_K:
        return schedule.eta / (ks + 1.0)
    return schedule.eta / np.sqrt(ks + 1.0)


def sgd_step(x: np.ndarray, g: np.ndarray, eta_k: float, u_k: float) -> np.ndarray:
    """One update x - eta_k * u_k * g."""
    if not (eta_k > 0 and u_k > 0):
        raise ValueError("eta_k and u_k must be > 0")
    return x - (eta_k * u_k) * g


def config_digest(
    problem: pb.ProblemSpec,
    schedule: StepSizeSchedule,
    sf_spec: sfmod.SFSpec,
    iterations: int,
    eval_every: int,
) -> str:
    """Short stable digest of everything that defines a run but the seed."""
    blob = json.dumps(
        {
            "problem": problem.family,
            "params": problem.params,
            "schedule": [schedule.family, repr(schedule.eta)],
            "sf": [sf_spec.kind, repr(sf_spec.value), repr(sf_spec.c1), repr(sf_spec.c2)],
            "iterations": int(iterations),
            "eval_every": int(eval_every),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(eq=False)
class Trajectory:
    """Everything recorded about one run.

    Full-objective quantities (loss, gradient norm) are evaluated every
    ``eval_every`` iterations; the running minimum of the squared
    gradient norm is updated at those eval points only.  ``u_series``
    covers every executed iteration (eta_k follows from the schedule,
    :func:`step_sizes`).  ``u_eval`` holds the draw used at each
    recorded iterate; its final entry is nan because no step leaves the
    last iterate.
    """

    eval_points: np.ndarray
    loss: np.ndarray
    grad_norm_sq: np.ndarray
    min_grad_sq: np.ndarray
    sum_eta: np.ndarray
    eta_eval: np.ndarray
    u_eval: np.ndarray
    u_series: np.ndarray
    iterations: int
    eval_every: int
    seed: int
    config_digest: str
    certified: bool
    diverged: bool
    truncated_at: int | None
    rng_algorithm: str = RNG_ALGORITHM
    grad_stream_digest: str = ""
    g_series: np.ndarray | None = field(default=None)


# Steps whose randomness is drawn in one block.  Block draws equal the
# per-step draws bit for bit, so the length trades speed for memory and
# never changes a result; the pre-drawn gradient randomness is further
# capped at _BLOCK_VALUES doubles per arm.
BLOCK_STEPS = 1024
_BLOCK_VALUES = 1 << 17


def run(
    problem: pb.ProblemSpec,
    schedule: StepSizeSchedule,
    sf_spec: sfmod.SFSpec,
    iterations: int,
    eval_every: int = 10,
    x0: np.ndarray | None = None,
    seed: int = 0,
) -> Trajectory:
    """Run SGD with multiplicative stochastic learning rate.

    Divergence (non-finite iterate, or loss above 1e12 at an eval
    point) truncates the run and flags the trajectory instead of
    raising.  ``certified`` drops to False if the problem declares a
    domain box and any iterate leaves it, or if the run diverges.
    This is the one-seed case of :func:`run_batch`.
    """
    return run_batch(problem, schedule, sf_spec, iterations, eval_every, x0, seeds=[seed])[0]


def run_batch(
    problem: pb.ProblemSpec,
    schedule: StepSizeSchedule,
    sf_spec: sfmod.SFSpec,
    iterations: int,
    eval_every: int = 10,
    x0: np.ndarray | None = None,
    *,
    seeds: Sequence[int],
) -> list[Trajectory]:
    """Run one configuration under every seed, stepping all seeds together.

    The iterates form an (S, d) array, one row per seed.  Each row draws
    from its own seed's streams, in blocks of steps, and is checked on
    its own.  The iterates at a block's eval points are buffered and
    evaluated in one oracle call after the block's steps.  A row that
    diverges is truncated at its earliest event and dropped from the
    batch at the end of the block while the others go on.  Trajectory s is therefore bitwise
    the one ``run(..., seed=seeds[s])`` returns, whatever the other
    seeds are.  ``x0`` (default: ones) must be finite.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    if iterations % eval_every != 0:
        raise ValueError("eval_every must divide iterations")
    x = np.ones(problem.dim) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 must have shape ({problem.dim},)")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")

    S = len(seeds)
    d = problem.dim
    n_evals = iterations // eval_every + 1
    # A block's eval buffer holds up to block + 1 iterates per row (the
    # final point rides on the last block); both stay within the cap.
    block = max(1, min(BLOCK_STEPS, _BLOCK_VALUES // (S * d) - 1))
    grad_rngs = [stream_generator(s, GRAD_STREAM) for s in seeds]
    sf_rngs = [stream_generator(s, SF_STREAM) for s in seeds]
    digests = [hashlib.sha256() for _ in seeds]
    box = problem.domain_box
    etas = step_sizes(schedule, iterations + 1)

    # Per seed: recorded evals, executed steps, truncation point, box status.
    losses = np.empty((n_evals, S))
    gnorms = np.empty((n_evals, S))
    mins = np.empty((n_evals, S))
    u_series = np.empty((S, iterations))
    n_rec = np.full(S, n_evals)
    executed = np.full(S, iterations)
    truncated_at: list[int | None] = [None] * S
    certified = np.ones(S, dtype=bool)

    # The live batch: seed indices, iterates and running minima.  ``cols``
    # addresses the live seeds' columns; a plain slice while all live.
    live = np.arange(S)
    cols: slice | np.ndarray = slice(None)
    X = np.tile(x, (S, 1))
    running_min = np.full(S, np.inf)
    never = iterations + 1

    for k0 in range(0, iterations, block):
        n = min(block, iterations - k0)
        # The per-seed list is dropped once stacked, so only one copy of
        # the block's draws is held while it steps.
        draws = [pb.draw_block(problem, grad_rngs[s], n) for s in live]
        draws = None if draws[0] is None else np.stack(draws)
        u = sfmod.sample_block(sf_spec, k0, n, [sf_rngs[s] for s in live])
        u_series[cols, k0:k0 + n] = u
        steps = etas[k0:k0 + n] * u
        # The block's eval points k0 <= k < k0 + n, plus the final point
        # on the last block.  Their iterates are buffered as the block
        # steps and evaluated together after it.
        last = k0 + n == iterations
        e0 = -(-k0 // eval_every)
        e1 = (k0 + n - (not last)) // eval_every + 1
        E = np.empty((e1 - e0, len(live), d))
        # First k whose iterate is non-finite, per row.  A row steps on
        # past its event to the end of the block; that work is discarded.
        nonfinite_at = np.full(len(live), never)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n):
                k = k0 + j
                if k % eval_every == 0:
                    E[k // eval_every - e0] = X
                g = pb.stochastic_gradient_rows(problem, X, None if draws is None else draws[:, j])
                X = X - steps[:, j, None] * g
                if box is not None and ((X < box[0]).any() or (X > box[1]).any()):
                    certified[live[((X < box[0]) | (X > box[1])).any(axis=1)]] = False
                if not np.isfinite(X).all():
                    nonfinite_at[~np.isfinite(X).all(axis=1) & (nonfinite_at == never)] = k + 1
            if last:
                E[-1] = X
            # One oracle call for the block's eval points; each row's bits
            # do not depend on the stack.
            f, G = pb.value_and_gradient_rows(problem, E.reshape(-1, d))
            g2 = pb.row_dot(G, G)
        loss_at = np.full(len(live), never)
        if e1 > e0:
            f, g2 = f.reshape(E.shape[:2]), g2.reshape(E.shape[:2])
            ok = np.isfinite(f)
            g2[~ok] = np.nan
            run_mins = np.fmin.accumulate(np.vstack([running_min, g2]), axis=0)[1:]
            losses[e0:e1, cols], gnorms[e0:e1, cols], mins[e0:e1, cols] = f, g2, run_mins
            running_min = run_mins[-1]  # carried into the next block
            over = ~ok | (f > LOSS_DIVERGENCE_LIMIT)
            hit = over.any(axis=0)
            loss_at[hit] = eval_every * (e0 + over[:, hit].argmax(axis=0))
        # A row stops at its earliest event: the first eval over the loss
        # limit, or the first non-finite iterate, which wins a tie (an
        # eval at that k is not recorded).
        stop = np.minimum(nonfinite_at, loss_at)
        for i in range(len(live)):
            s, k = live[i], int(stop[i])
            m = n if k == never else k - k0
            if draws is not None and m > 0:
                digests[s].update(draws[i, :m].astype("<i8").tobytes()
                                  if draws.dtype.kind == "i" else draws[i, :m].tobytes())
            if k < never:
                truncated_at[s], executed[s], certified[s] = k, k, False
                n_rec[s] = (k - 1) // eval_every + 1 if nonfinite_at[i] == k else k // eval_every + 1
        keep = stop == never
        if not keep.all():
            live, X, running_min = live[keep], X[keep], running_min[keep]
            cols = live
            if not len(live):
                break

    ks = np.arange(0, iterations + 1, eval_every)
    sum_eta = np.concatenate(([0.0], np.cumsum(etas[:iterations])))[ks]
    digest = config_digest(problem, schedule, sf_spec, iterations, eval_every)
    out = []
    for s, seed in enumerate(seeds):
        c, ex = n_rec[s], executed[s]
        u_eval = np.full(c, np.nan)
        stepped = ks[:c] < ex
        u_eval[stepped] = u_series[s, ks[:c][stepped]]
        out.append(Trajectory(
            eval_points=ks[:c].copy(),
            loss=losses[:c, s].copy(),
            grad_norm_sq=gnorms[:c, s].copy(),
            min_grad_sq=mins[:c, s].copy(),
            sum_eta=sum_eta[:c].copy(),
            eta_eval=etas[ks[:c]],
            u_eval=u_eval,
            u_series=u_series[s, :ex],
            iterations=iterations,
            eval_every=eval_every,
            seed=seed,
            config_digest=digest,
            certified=bool(certified[s]),
            diverged=truncated_at[s] is not None,
            truncated_at=truncated_at[s],
            grad_stream_digest=digests[s].hexdigest(),
        ))
    return out
