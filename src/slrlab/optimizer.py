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

All seeds of every arm (one SF spec each) are stepped together
(:func:`run_arms`), with each seed's randomness drawn in blocks of steps
from its own streams, and each block's eval points evaluated together.
A seed's gradient draws are drawn once and shared by its row in every
arm, so paired arms consume the same gradient noise by construction.
Block draws equal per-step draws bit for bit, the oracles' rows are
bitwise independent of the stack, and every row is checked on its own,
so a run does not depend on the batch it runs in; :func:`run` is the
one-arm, one-seed case.  A run's memory follows its eval grid, not its
step count: factors are kept at the eval points only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

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
PAIRING_ERROR = "paired gradient streams diverged between arms; stream split broken"


# The least value of each integer argument that shapes a run.
_RUN_MINIMA = {"iterations": 1, "eval_every": 1, "n_seeds": 1, "master_seed": 0}


def argument_error(name: str, value, eval_every: int = 1, iterations: int = 0) -> str | None:
    """Why ``value`` is out of range for the run-shape argument ``name``, or None if it is in range.

    ``iterations``, ``eval_every`` and ``n_seeds`` must be >= 1 and
    ``master_seed`` >= 0; ``iterations`` must be a multiple of
    ``eval_every``, and ``checkpoints`` distinct eval points, multiples
    of ``eval_every`` in [0, ``iterations``].  :func:`run_arms`,
    :func:`split_seed`, :func:`run_paired` and ``stats.compare`` (for
    ``checkpoints``) raise ValueError with this text; the config parser
    checks each key with it.
    """
    if name == "checkpoints":
        for i, k in enumerate(value):
            if k % eval_every or not 0 <= k <= iterations:
                return f"checkpoints must be multiples of eval_every ({eval_every}) in [0, {iterations}], got {k}"
            if k in value[:i]:
                return f"checkpoints must be distinct, got {k} twice"
        return None
    low = _RUN_MINIMA[name]
    if value < low:
        return f"{name} must be >= {low}, got {value}"
    if name == "iterations" and value % eval_every:
        return f"iterations must be a multiple of eval_every ({eval_every}), got {value}"
    return None


def check_arguments(eval_every: int, iterations: int, **args) -> None:
    """Raise ValueError with :func:`argument_error`'s text for the first bad argument, ``eval_every`` first."""
    for name, value in {"eval_every": eval_every, "iterations": iterations, **args}.items():
        why = argument_error(name, value, eval_every, iterations)
        if why is not None:
            raise ValueError(why)


def split_seed(master_seed: int, index: int) -> int:
    """Child seed i of a master seed: split(master, i).

    Implemented as the first 64-bit word of
    SeedSequence(master, spawn_key=(i,)), so distinct indices give
    statistically independent children and the rule is reproducible
    from the documented constants alone.
    """
    why = argument_error("master_seed", master_seed)
    if why is not None:
        raise ValueError(why)
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
        # Written so that nan and inf fail it too.
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got eta={self.eta!r}")


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
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got k_max={k_max}")
    ks = np.arange(float(k_max))
    if schedule.family == CONSTANT:
        return np.full(k_max, schedule.eta)
    if schedule.family == INVERSE_K:
        return schedule.eta / (ks + 1.0)
    return schedule.eta / np.sqrt(ks + 1.0)


def step_sums(schedule: StepSizeSchedule, k_max: int) -> np.ndarray:
    """The partial sums S_k = sum_{t<k} eta_t for k = 0..k_max, with S_0 = 0.

    One cumulative sum in step order, so S_k has the bits of adding the
    step sizes one by one; every step sum in the package is an entry of it.
    """
    return np.concatenate(([0.0], np.cumsum(step_sizes(schedule, k_max))))


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
    import hashlib  # imported here, as in run_arms: `validate` and `plot` hash nothing
    import json  # imported here: only the digest's canonical text is JSON

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


# The trajectory series that runs are compared on (``stats.compare``).
METRICS = ("loss", "min_grad_sq")


@dataclass(eq=False)
class Trajectory:
    """Everything recorded about one run.

    Full-objective quantities (loss, gradient norm) are evaluated every
    ``eval_every`` iterations; ``min_grad_sq``, the running minimum of
    the squared gradient norm over those eval points, is computed from
    ``grad_norm_sq`` when read.  ``u_eval`` holds the draw used at each
    recorded iterate, nan where no step left it (the final iterate, and
    any point at or past a truncation), so ``eval_every = 1`` records
    every factor.  Only the eval grid is shared: ``eval_points`` is a
    read-only view of one column common to every run of a batch (a
    truncated run's is a prefix).  The CSV writer computes the schedule's
    columns (eta_k and the step sums) and g_k; a run does not hold them.
    """

    eval_points: np.ndarray
    loss: np.ndarray
    grad_norm_sq: np.ndarray
    u_eval: np.ndarray
    iterations: int
    eval_every: int
    seed: int
    config_digest: str
    certified: bool
    truncated_at: int | None
    rng_algorithm: str = RNG_ALGORITHM
    grad_stream_digest: str = ""

    @property
    def diverged(self) -> bool:
        """Whether the run was truncated by divergence."""
        return self.truncated_at is not None

    @property
    def min_grad_sq(self) -> np.ndarray:
        """Running minimum of ``grad_norm_sq``.

        The nan norms recorded where the loss was not finite are skipped;
        it reads inf until the first finite norm.
        """
        return np.fmin.accumulate(np.concatenate(([np.inf], self.grad_norm_sq)))[1:]


# Steps whose randomness is drawn in one block.  Block draws equal the
# per-step draws bit for bit, so the length trades speed for memory and
# never changes a result; the pre-drawn gradient randomness is further
# capped at _BLOCK_VALUES doubles for the whole stack of rows.
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
    This is the one-arm, one-seed case of :func:`run_arms`.
    """
    return run_arms(problem, schedule, [sf_spec], iterations, eval_every, x0, seeds=[seed])[0][0]


def _draw_bytes(draws: np.ndarray) -> bytes:
    # What the stream digest hashes: indices as little-endian int64.
    return (draws.astype("<i8") if draws.dtype.kind == "i" else draws).tobytes()


def _stack_draws(seed_draws: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Step j's draws for every row, (n, rows, ...): row i gets column pos[i] of the seeds' (n, seeds, ...)."""
    return np.take(seed_draws, pos, axis=1)


def _paired(draws: np.ndarray, seed_draws: np.ndarray, pos: np.ndarray, edges: np.ndarray) -> bool:
    """Whether every row i of ``draws`` holds column pos[i] of ``seed_draws``, checked one arm at a time."""
    whole = seed_draws.shape[1]
    return all(np.array_equal(draws[:, lo:hi], seed_draws if hi - lo == whole else seed_draws[:, pos[lo:hi]])
               for lo, hi in zip(edges[:-1], edges[1:]))


def run_arms(
    problem: pb.ProblemSpec,
    schedule: StepSizeSchedule,
    sf_specs: Sequence[sfmod.SFSpec],
    iterations: int,
    eval_every: int = 10,
    x0: np.ndarray | None = None,
    *,
    seeds: Sequence[int],
) -> list[list[Trajectory]]:
    """Run every arm (one SF spec each) under every seed, all as one stack.

    The iterates form an (A * S, d) array with one row per (arm, seed)
    pair, arm-major.  Each seed's gradient randomness is drawn once per
    block of steps and feeds that seed's row in every arm; each row
    draws its factors from its own SF stream and is checked on its own.
    Each block guards that pairing: a row fed other draws raises
    RuntimeError, so every command that runs fails on a broken split.
    The iterates at a block's eval points are buffered and evaluated in
    one oracle call after the block's steps.  A row that diverges is
    truncated at its earliest event and dropped from the stack at the
    end of the block while the others go on.  Trajectory ``[a][s]`` is
    therefore bitwise the one ``run(..., sf_specs[a], seed=seeds[s])``
    returns, whatever the other rows are.  ``x0`` (default: ones) must
    be finite.
    """
    import hashlib  # imported here, as in config_digest: `validate` and `plot` hash nothing

    seeds = [int(s) for s in seeds]
    check_arguments(eval_every, iterations, n_seeds=len(seeds))
    x = np.ones(problem.dim) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 must have shape ({problem.dim},)")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    sf_specs = list(sf_specs)
    if not sf_specs:
        raise ValueError("need at least one SF spec")

    S = len(seeds)
    R = len(sf_specs) * S
    d = problem.dim
    n_evals = iterations // eval_every + 1
    # A block's eval buffer holds up to block + 1 iterates per row (the
    # final point rides on the last block).  Both stay within the cap unless
    # R * d > _BLOCK_VALUES / 2: the 1-step block's buffer of 2 iterates per
    # row then exceeds it, and past R * d = _BLOCK_VALUES a quadratic's draws do.
    block = max(1, min(BLOCK_STEPS, _BLOCK_VALUES // (R * d) - 1))
    seed_of = np.tile(np.arange(S), len(sf_specs))
    grad_rngs = [stream_generator(s, GRAD_STREAM) for s in seeds]
    sf_rngs = [stream_generator(seeds[s], SF_STREAM) for s in seed_of]
    # Each row's digest covers the gradient draws it stepped on: a live row
    # reads its seed's, a stopped row a copy plus its last block's prefix.
    seed_digests = [hashlib.sha256() for _ in seeds]
    stopped_digests = {}  # row -> its digest, once it stops
    box = problem.domain_box
    etas = step_sizes(schedule, iterations)

    # Per row: recorded evals and factors, truncation point, box status.
    # One row per (arm, seed), so a trajectory's series are views of it.
    losses = np.empty((R, n_evals))
    gnorms = np.empty((R, n_evals))
    u_evals = np.full((R, n_evals), np.nan)
    n_rec = np.full(R, n_evals)
    truncated_at: list[int | None] = [None] * R
    certified = np.ones(R, dtype=bool)

    # The live stack: row indices (sorted, so each arm's rows are one
    # run) and iterates.
    live = np.arange(R)
    X = np.tile(x, (R, 1))
    never = iterations + 1
    step_gradient = problem.step_gradient
    # Each block's per-row step sizes, expanded to the iterates' shape in
    # one buffer that every block reuses: on small stacks numpy multiplies
    # same-shape operands faster than it broadcasts, with the same products.
    step_buf = np.empty(block * R * d)

    for k0 in range(0, iterations, block):
        n = min(block, iterations - k0)
        # Each live seed's block, (n, seeds, ...), and each row's copy of
        # its seed's block, (n, rows, ...).
        live_seeds = sorted(set(seed_of[live].tolist()))
        blocks = [problem.draw_block(grad_rngs[s], n) for s in live_seeds]
        seed_draws = np.stack(blocks, axis=1)
        pos = np.searchsorted(live_seeds, seed_of[live])
        draws = _stack_draws(seed_draws, pos)
        edges = np.searchsorted(live, S * np.arange(len(sf_specs) + 1))
        if not _paired(draws, seed_draws, pos, edges):
            raise RuntimeError(PAIRING_ERROR)
        del seed_draws
        u = np.empty((len(live), n))
        for spec, lo, hi in zip(sf_specs, edges[:-1], edges[1:]):
            if hi > lo:
                u[lo:hi] = sfmod.sample_block(spec, k0, n, [sf_rngs[r] for r in live[lo:hi]])
        steps = step_buf[:n * len(live) * d].reshape(n, len(live), d)
        steps[...] = (etas[k0:k0 + n] * u).T[:, :, None]
        # The block's eval points k0 <= k < k0 + n, plus the final point
        # on the last block.  Their iterates are buffered as the block
        # steps and evaluated together after it; the factors drawn at
        # them are kept (the final point takes no step).
        last = k0 + n == iterations
        e0 = -(-k0 // eval_every)
        e1 = (k0 + n - (not last)) // eval_every + 1
        u_at = u[:, e0 * eval_every - k0::eval_every]
        u_evals[live, e0:e0 + u_at.shape[1]] = u_at
        E = np.empty((e1 - e0, len(live), d))
        X_start = X
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n):
                k = k0 + j
                if k % eval_every == 0:
                    E[k // eval_every - e0] = X
                X = X - steps[j] * step_gradient(X, draws[j])
                if box is not None and ((X < box[0]).any() or (X > box[1]).any()):
                    certified[live[((X < box[0]) | (X > box[1])).any(axis=1)]] = False
            # First k whose iterate is non-finite, per row.  A non-finite
            # entry stays non-finite under x - s * g whatever g is, so a
            # row finite at the block's end was finite at every step.  The
            # others are replayed from the block's start on the same draws,
            # checked every step; the oracles treat each row on its own, so
            # the replay gives the same bits.  The steps a row took past
            # its event are discarded.
            nonfinite_at = np.full(len(live), never)
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
            Y = X_start[bad]
            for j in range(n):
                if not len(bad):
                    break
                Y = Y - steps[j, bad] * step_gradient(Y, draws[j, bad])
                hit = ~np.isfinite(Y).all(axis=1)
                nonfinite_at[bad[hit]] = k0 + j + 1
                bad, Y = bad[~hit], Y[~hit]
            if last:
                E[-1] = X
            # One oracle call for the block's eval points; each row's bits
            # do not depend on the stack.
            f, G = problem.value_and_gradient(E.reshape(-1, d))
            g2 = pb.row_dot(G, G)
        loss_at = np.full(len(live), never)
        if e1 > e0:
            f, g2 = f.reshape(E.shape[:2]), g2.reshape(E.shape[:2])
            ok = np.isfinite(f)
            g2[~ok] = np.nan
            losses[live, e0:e1], gnorms[live, e0:e1] = f.T, g2.T
            over = ~ok | (f > LOSS_DIVERGENCE_LIMIT)
            hit = over.any(axis=0)
            loss_at[hit] = eval_every * (e0 + over[:, hit].argmax(axis=0))
        # A row stops at its earliest event: the first eval over the loss
        # limit, or the first non-finite iterate, which wins a tie (an
        # eval at that k is not recorded).
        stop = np.minimum(nonfinite_at, loss_at)
        keep = stop == never
        for i in np.flatnonzero(~keep):
            r, k = live[i], int(stop[i])
            truncated_at[r], certified[r] = k, False
            n_rec[r] = (k - 1) // eval_every + 1 if nonfinite_at[i] == k else k // eval_every + 1
            u_evals[r, -(-k // eval_every):] = np.nan  # no step was taken there
            stopped_digests[r] = seed_digests[seed_of[r]].copy()
            stopped_digests[r].update(_draw_bytes(draws[:k - k0, i]))
        # A seed's digest takes its whole block once if a row of it goes on.
        for p in set(pos[keep].tolist()):
            seed_digests[live_seeds[p]].update(_draw_bytes(blocks[p]))
        del draws, blocks  # freed before the next block's draws
        if not keep.all():
            live, X = live[keep], X[keep]
            if not len(live):
                break

    # The eval grid is the same for every row: one read-only copy.
    ks = np.arange(0, iterations + 1, eval_every)
    ks.setflags(write=False)
    out = []
    for a, sf_spec in enumerate(sf_specs):
        digest = config_digest(problem, schedule, sf_spec, iterations, eval_every)
        arm = []
        for s, seed in enumerate(seeds):
            r = a * S + s
            c = n_rec[r]
            arm.append(Trajectory(
                eval_points=ks[:c],
                loss=losses[r, :c],
                grad_norm_sq=gnorms[r, :c],
                u_eval=u_evals[r, :c],
                iterations=iterations,
                eval_every=eval_every,
                seed=seed,
                config_digest=digest,
                certified=bool(certified[r]),
                truncated_at=truncated_at[r],
                grad_stream_digest=stopped_digests.get(r, seed_digests[s]).hexdigest(),
            ))
        out.append(arm)
    return out


def run_paired(
    problem: pb.ProblemSpec,
    schedule: StepSizeSchedule,
    sf_specs: list[sfmod.SFSpec],
    iterations: int,
    n_seeds: int = 40,
    master_seed: int = 0,
    eval_every: int = 10,
) -> list[list[Trajectory]]:
    """One list of trajectories per SF spec, in seed order, all under the same n_seeds (>= 1) split seeds.

    The arms step as one batch (:func:`run_arms`) on one gradient draw
    per seed, so seed i sees the same gradient noise in every arm.  Seed
    i is split_seed(master_seed, i); the split is collision-checked so
    the set never silently contains duplicate streams.
    """
    check_arguments(eval_every, iterations, n_seeds=n_seeds)
    seeds = [split_seed(master_seed, i) for i in range(n_seeds)]
    if len(set(seeds)) != n_seeds:
        raise ValueError("seed split collision; choose a different master_seed")
    return run_arms(problem, schedule, sf_specs, iterations, eval_every=eval_every, seeds=seeds)
