"""Synthetic objectives with certified smoothness and noise constants.

Each problem declares the constants the theory consumes: a smoothness
bound L, the optimal value f_star where known, and expected-smoothness
constants (A, B, C) bounding the second moment of the stochastic
gradient by A*(f(x) - f_star) + B*||grad f(x)||^2 + C.  The constants
are exact by construction, not estimated.  Each family is one subclass
of :class:`ProblemSpec` that holds its own arrays:

* :class:`Quadratic`: f(x) = 0.5 x'Qx with Q diagonal, eigenvalues
  log-spaced in [1, cond]; stochastic gradient adds N(0, sigma^2 I), so
  A=0, B=1, C = sigma^2 * dim and L = cond.
* :class:`Rosenbrock`: the classic 2-d valley plus N(0, sigma^2 I)
  noise.  L is certified only on the box [-2, 2]^2 (row-sum bound on the
  Hessian); runs whose iterates leave the box are flagged uncertified
  rather than aborted.
* :class:`LogReg`: finite-sum logistic loss on synthetic labels with 10%
  flips, plus the bounded nonconvex penalty reg * sum_j x_j^2/(1+x_j^2)
  inside every summand.  L comes from the data matrix, f_star is unknown
  (recorded as absent; the loss is bounded below by 0).  The data rows are
  stored signed, as z_i = -y_i x_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from .sf import scalar_power

# max |d/dt (t^2/(1+t^2))| = 9/(8*sqrt(3)), attained at t = 1/sqrt(3)
_PENALTY_GRAD_MAX = 9.0 / (8.0 * math.sqrt(3.0))

# The logreg eval reads the data in chunks of this many values (2621 rows
# at d = 50), small enough to stay in cache, and serves groups of this many
# eval rows, as the columns of products that are always this wide.  Each
# product reads a data tile of at most _EVAL_TILE_VALUES values and
# _EVAL_TILE_COLS columns, so m*n*k <= 2**18 in every GEMM.
_EVAL_CHUNK_VALUES = 2**17
_EVAL_GROUP = 16
_EVAL_TILE_VALUES = 2**14
_EVAL_TILE_COLS = 128


def _eval_tiling(n: int, d: int) -> tuple[int, int, int, int]:
    """The logreg eval's rows per chunk, tile columns, tile rows and most groups per batch.

    A batch of groups goes through the loss stage together, on at most
    _EVAL_TILE_VALUES values (groups * tile rows * 16), as many as a data
    tile holds: 3 groups at n = 20000, d = 50, 8 at n = 5000, d = 500, and
    one group where a tile has more than 512 rows (d < 32 and n > 512).
    """
    rows = max(1, _EVAL_CHUNK_VALUES // d)
    tc = min(d, _EVAL_TILE_COLS)
    tr = min(_EVAL_TILE_VALUES // tc, rows, n)
    return rows, tc, tr, max(1, _EVAL_TILE_VALUES // (_EVAL_GROUP * tr))


@dataclass(eq=False, kw_only=True)
class ProblemSpec:
    """A synthetic objective plus the constants the theory needs.

    Each family is a subclass that holds its own arrays and provides the
    oracles below on an (S, d) stack of iterates, one row per seed.  Each
    row's result is bitwise independent of the other rows and of S, so a
    batch of runs reproduces each run alone.  The single-point functions
    further down are their S = 1 case.
    """

    family: ClassVar[str]
    # Tags how f and its gradient are computed when a change of method
    # moves their last bits, so old and new results cannot be confused;
    # None for the closed forms, which have not changed.
    eval_algorithm: ClassVar[str | None] = None
    dim: int
    L: float
    f_star: float | None
    A: float
    B: float
    C: float
    params: dict
    # Per-coordinate box on which L is certified; None means everywhere.
    domain_box: tuple[float, float] | None = None
    # Lower bound on f, used by witnesses when f_star is absent.
    f_lower: float = 0.0

    def draw_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The randomness n successive stochastic gradients consume, drawn at once, shape (n, ...).

        It equals n single draws bit for bit, however the steps are split
        into blocks, and does not depend on the query points.
        """
        raise NotImplementedError

    def step_gradient(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Stochastic gradient at each row of X given that row's draw, shape (S, d).

        ``draws`` holds one step of :meth:`draw_block` output per row.
        """
        raise NotImplementedError

    def value_and_gradient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full objective f, shape (S,), and its exact gradient, shape (S, d), at each row of X."""
        raise NotImplementedError


@dataclass(eq=False, kw_only=True)
class _AdditiveNoise(ProblemSpec):
    """Exact gradient plus N(0, sigma^2 I) noise: the draws are (n, d) noise, or (n, 0) when sigma = 0.

    A subclass gives the exact gradient alone as ``gradient(X)``: a step
    does not need the value.
    """

    sigma: float

    def draw_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # A noiseless problem consumes no randomness: its (n, 0) draws
        # hash to nothing and add nothing.
        if self.sigma == 0.0:
            return np.empty((n, 0))
        return self.sigma * rng.standard_normal((n, self.dim))

    def step_gradient(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        g = self.gradient(X)
        return g if not draws.size else g + draws


@dataclass(eq=False, kw_only=True)
class Quadratic(_AdditiveNoise):
    family: ClassVar[str] = "quadratic"
    eigs: np.ndarray
    # eigs tiled to the shape of the last stack: on small stacks numpy
    # multiplies same-shape operands faster than it broadcasts a row, and
    # every product is the same.  Tiled again when the height changes.
    _eigs_stack: np.ndarray = field(init=False, repr=False, default_factory=lambda: np.empty((0, 0)))

    def gradient(self, X: np.ndarray) -> np.ndarray:
        if self._eigs_stack.shape != X.shape:
            self._eigs_stack = np.tile(self.eigs, (len(X), 1))
        return self._eigs_stack * X

    def value_and_gradient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        G = self.gradient(X)
        return 0.5 * row_dot(G, X), G


@dataclass(eq=False, kw_only=True)
class Rosenbrock(_AdditiveNoise):
    family: ClassVar[str] = "rosenbrock"

    def gradient(self, X: np.ndarray) -> np.ndarray:
        a = X[:, 0]
        r = X[:, 1] - a * a  # the valley residual
        return np.stack([-2.0 * (1.0 - a) - 400.0 * a * r, 200.0 * r], axis=1)

    def value_and_gradient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = X[:, 0]
        return (1.0 - a) ** 2 + 100.0 * (X[:, 1] - a * a) ** 2, self.gradient(X)


@dataclass(eq=False, kw_only=True)
class LogReg(ProblemSpec):
    """Finite sum over the data rows x_i with labels y_i = +-1: the draws are (n,) summand indices.

    The rows are stored signed, z_i = -y_i x_i, in ``signed``.  Rounding is
    symmetric in sign, so a product on z_i is bit for bit -y_i times the
    same product on x_i, and no pass multiplies by -y.
    """

    family: ClassVar[str] = "logreg"
    eval_algorithm: ClassVar[str | None] = "logreg-chunked-v2"
    signed: np.ndarray
    y: np.ndarray
    reg: float

    @property
    def data(self) -> np.ndarray:
        """The rows x_i = -y_i z_i, exactly."""
        return -self.y[:, None] * self.signed

    def draw_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(len(self.y), size=n)

    def step_gradient(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        z = self.signed[draws]
        return _expit(row_dot(z, X))[:, None] * z + _penalty_gradient(self.reg, X)

    def value_and_gradient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The data go in fixed chunks of rows, and each batch of eval rows
        # reads a chunk once, from cache, for both its margins and its
        # gradients.  Each row's loss and gradient are per-chunk sums added
        # in chunk order.  A group of up to 16 rows is the columns of a
        # (d, 16) block, zero where it has fewer rows, and every product is
        # a GEMM over fixed data tiles with the data on the left.  A batch
        # (sized by _eval_tiling) stacks the blocks of its groups, never
        # merging them into one wider operand, and one stacked matmul runs
        # that same GEMM on each block.  A column's bits then depend
        # neither on its slot, nor on the other columns, nor on the batch,
        # nor on the BLAS thread count: a width that follows the number of
        # rows, or an untiled product, gives none of that.
        signed, n, d = self.signed, len(self.y), self.dim
        rows, tc, tr, batch = _eval_tiling(n, d)
        width = _EVAL_GROUP
        groups = -(-len(X) // width)
        batch = min(batch, max(1, groups))
        # The rows, zero-padded to whole groups, and their sums.
        padded = np.zeros((groups * width, d))
        padded[:len(X)] = X
        total = np.zeros(groups * width)
        G = np.zeros_like(padded)
        W = np.empty((batch, d, width))
        acc = np.empty((batch, d, width))
        prod = np.empty((batch, tc, width))
        # Flat, so that a tile's buffers are one contiguous block whatever
        # its height; they are shaped once per height.
        t, e, p, q = (np.empty(batch * tr * width) for _ in range(4))
        views = {}
        # Transposed, so that each row's pairwise sum runs over a whole chunk.
        terms = np.empty((batch, width, min(rows, n)))
        for g0 in range(0, groups, batch):
            nb = min(batch, groups - g0)
            part = slice(g0 * width, (g0 + nb) * width)
            Wb, accb, prodb, termsb = W[:nb], acc[:nb], prod[:nb], terms[:nb]
            Wb[...] = padded[part].reshape(nb, width, d).transpose(0, 2, 1)
            total_b, G_b = total[part].reshape(nb, width), G[part].reshape(nb, width, d)
            for c0 in range(0, n, rows):
                chunk = signed[c0:c0 + rows]
                for i in range(0, len(chunk), tr):
                    tile = chunk[i:i + tr]
                    shape = (nb, len(tile), width)
                    if shape not in views:
                        views[shape] = [a[:math.prod(shape)].reshape(shape) for a in (t, e, p, q)]
                    ti, ei, pi, qi = views[shape]
                    np.matmul(tile[:, :tc], Wb[:, :tc], out=ti)  # t = -y * margin
                    for j in range(tc, d, tc):
                        ti += np.matmul(tile[:, j:j + tc], Wb[:, j:j + tc], out=qi)
                    np.negative(np.abs(ti, out=ei), out=ei)
                    np.exp(ei, out=ei)
                    # log(1 + exp(t)) without overflow, formed in a
                    # contiguous buffer: a ufunc writes strided output slowly
                    np.add(np.maximum(ti, 0.0, out=qi), np.log1p(ei, out=pi), out=pi)
                    termsb[:, :, i:i + len(tile)] = pi.transpose(0, 2, 1)
                    _expit(ti, ei, out=pi)  # the loss derivative in t
                    for j in range(0, d, tc):
                        aj = accb[:, j:j + tc]
                        if i == 0:
                            np.matmul(tile[:, j:j + tc].T, pi, out=aj)
                        else:
                            aj += np.matmul(tile[:, j:j + tc].T, pi, out=prodb[:, :aj.shape[1]])
                total_b += termsb[:, :, :len(chunk)].sum(axis=2)
                G_b += accb.transpose(0, 2, 1)
        S = len(X)
        pen = self.reg * np.sum(X * X / (1.0 + X * X), axis=1)
        return total[:S] / n + pen, G[:S] / n + _penalty_gradient(self.reg, X)


@dataclass(eq=False)
class GradientSample:
    """One stochastic gradient: the vector and the realized draw.

    ``draw`` is the raw randomness consumed (summand index for finite
    sums, noise vector for additive-noise problems, None when the
    gradient is exact), independent of the query point.
    """

    vector: np.ndarray
    draw: Any


def make_quadratic(dim: int, cond: float, sigma: float, seed: int = 0) -> Quadratic:
    """Diagonal quadratic with eigenvalues ``cond ** linspace(0, 1, dim)`` by :func:`sf.scalar_power`.

    They do not decrease and run from exactly 1 to exactly ``cond`` (dim = 1:
    the one eigenvalue ``cond``), so L = cond bounds the spectrum.  ``seed``
    is recorded for configuration digests but does not affect the construction.
    """
    _check_arguments(dim=dim, cond=cond, sigma=sigma, seed=seed)
    return Quadratic(
        dim=dim,
        L=float(cond),
        f_star=0.0,
        A=0.0,
        B=1.0,
        C=float(sigma) ** 2 * dim,
        params={"dim": int(dim), "cond": float(cond), "sigma": float(sigma), "seed": int(seed)},
        eigs=np.array([float(cond)]) if dim == 1 else scalar_power(cond, np.linspace(0.0, 1.0, dim)),
        sigma=float(sigma),
    )


# Row-sum bound on the Rosenbrock Hessian over [-2, 2]^2:
# |2 - 400y + 1200x^2| + |400x| <= 5602 + 800.
_ROSENBROCK_L = 6402.0


def make_rosenbrock(sigma: float) -> Rosenbrock:
    """2-d Rosenbrock valley with additive Gaussian gradient noise."""
    _check_arguments(sigma=sigma)
    return Rosenbrock(
        dim=2,
        L=_ROSENBROCK_L,
        f_star=0.0,
        A=0.0,
        B=1.0,
        C=2.0 * float(sigma) ** 2,
        params={"sigma": float(sigma)},
        domain_box=(-2.0, 2.0),
        sigma=float(sigma),
    )


def make_logreg_nonconvex(n: int, d: int, reg: float, seed: int = 0) -> LogReg:
    """Finite-sum logistic regression with a bounded nonconvex penalty.

    Labels come from a random linear teacher with 10% flips; degenerate
    draws (a single label class) are regenerated from seed+1, noted in
    the log, so every instance has both classes.
    """
    _check_arguments(n=n, d=d, reg=reg, seed=seed)
    use_seed = int(seed)
    for _ in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(use_seed))
        w_true = rng.standard_normal(d)
        X = rng.standard_normal((n, d))
        y = np.where(X @ w_true >= 0.0, 1.0, -1.0)
        flip = rng.random(n) < 0.1
        y[flip] = -y[flip]
        if not (np.all(y == y[0])):
            break
        import logging  # imported here: only this rare retry logs

        logging.getLogger(__name__).warning("logreg data degenerate for seed %d; retrying with seed %d",
                                            use_seed, use_seed + 1)
        use_seed += 1
    else:
        raise ValueError("could not generate non-degenerate logreg data")

    # Logistic second derivative <= 1/4; penalty second derivative <= 2.
    l_data = float(np.linalg.eigvalsh(X.T @ X).max()) / (4.0 * n)
    L = l_data + 2.0 * float(reg)
    # The largest squared row norm, over the eval's chunks of rows, so that
    # the data are the one full-size array the build holds.
    rows = _eval_tiling(n, d)[0]
    chunks = (X[i:i + rows] for i in range(0, n, rows))
    row_sq = max(float((c * c).sum(axis=1).max()) for c in chunks)
    C = 2.0 * row_sq + 2.0 * (float(reg) * math.sqrt(d) * _PENALTY_GRAD_MAX) ** 2
    X *= -y[:, None]  # the signed rows, in place
    return LogReg(
        dim=d,
        L=L,
        f_star=None,
        A=0.0,
        B=1.0,
        C=C,
        params={"n": int(n), "d": int(d), "reg": float(reg), "seed": int(seed)},
        f_lower=0.0,
        signed=X,
        y=y,
        reg=float(reg),
    )


# The least value of each maker argument; a float argument must also be
# finite.
_ARGUMENT_MINIMA = {"dim": 1, "n": 2, "d": 1, "seed": 0, "cond": 1.0, "sigma": 0.0, "reg": 0.0}


def argument_error(name: str, value: float) -> str | None:
    """Why ``value`` is out of range for the maker argument ``name``, or None if it is in range.

    The makers raise ValueError with this text; the config parser checks
    each ``problem.*`` key with it, without building the problem.
    """
    low = _ARGUMENT_MINIMA[name]
    if isinstance(low, int):
        return None if value >= low else f"must be >= {low}, got {value!r}"
    # Written so that nan and inf fail it too.
    return None if low <= value < math.inf else f"must be finite and >= {low:g}, got {value!r}"


def _check_arguments(**args: float) -> None:
    for name, value in args.items():
        why = argument_error(name, value)
        if why is not None:
            raise ValueError(f"{name} {why}")


def _check_x(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x must have shape ({problem.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


def _expit(t: np.ndarray, e: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic 1/(1+exp(-t)) without overflow, into ``out`` if given.

    ``e`` is exp(-|t|), computed if not given; it is overwritten with 1 + e.
    The quotient is bitwise 1/(1+exp(-t)) for t >= 0 and exp(t)/(1+exp(t))
    for t < 0.  Its numerator exp(min(t, 0)) is max(e, t >= 0) bit for bit,
    since e <= 1 and -|t| is t where t < 0, so one exp serves both.
    """
    if e is None:
        e = np.exp(-np.abs(t))
    out = np.maximum(e, np.greater_equal(t, 0.0, out=out), out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, shape (S,).

    Equal bit for bit to ``np.dot`` on each row pair; ``einsum`` and
    ``(a * b).sum(axis=1)`` reduce in another order and are not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _penalty_gradient(reg: float, X: np.ndarray) -> np.ndarray:
    return reg * 2.0 * X / (1.0 + X * X) ** 2


def loss(problem: ProblemSpec, x: np.ndarray) -> float:
    """Full objective value f(x)."""
    return float(problem.value_and_gradient(_check_x(problem, x)[None])[0][0])


def full_gradient(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Exact gradient of the full objective."""
    return problem.value_and_gradient(_check_x(problem, x)[None])[1][0]


def stochastic_gradient(problem: ProblemSpec, x: np.ndarray, rng: np.random.Generator) -> GradientSample:
    """One unbiased stochastic gradient at x.

    The randomness consumed per call is fixed by the problem family
    alone (one index for finite sums, one noise vector for additive
    noise with sigma > 0, none otherwise), so paired runs sharing a
    generator see identical draw sequences regardless of where their
    iterates wander.
    """
    x = _check_x(problem, x)
    draws = problem.draw_block(rng, 1)
    vector = problem.step_gradient(x[None], draws)[0]
    if not draws.size:
        return GradientSample(vector=vector, draw=None)
    return GradientSample(vector=vector, draw=draws[0] if draws.ndim == 2 else int(draws[0]))
