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
  (recorded as absent; the loss is bounded below by 0).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

log = logging.getLogger(__name__)

# max |d/dt (t^2/(1+t^2))| = 9/(8*sqrt(3)), attained at t = 1/sqrt(3)
_PENALTY_GRAD_MAX = 9.0 / (8.0 * np.sqrt(3.0))


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
    name: str
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

    def gradient(self, X: np.ndarray) -> np.ndarray:
        return self.eigs * X

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
    """Finite sum over the rows of ``data``: the draws are (n,) summand indices."""

    family: ClassVar[str] = "logreg"
    data: np.ndarray
    y: np.ndarray
    reg: float

    def draw_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(len(self.y), size=n)

    def step_gradient(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        rows, yi = self.data[draws], self.y[draws]
        coeff = -yi * _expit(-(yi * row_dot(rows, X)))
        return coeff[:, None] * rows + _penalty_gradient(self.reg, X)

    def value_and_gradient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One margin z per row feeds both outputs, so each row reads the
        # data matrix twice: once for z, once for the gradient.  The rows
        # go one GEMV at a time: a product across rows would round
        # differently and tie a row's bits to S.
        data, y, reg = self.data, self.y, self.reg
        f = np.empty(len(X))
        G = np.empty_like(X)
        for s, x in enumerate(X):
            z = y * (data @ x)
            f[s] = float(np.logaddexp(0.0, -z).mean()) + float(reg * np.sum(x * x / (1.0 + x * x)))
            G[s] = data.T @ (-y * _expit(-z)) / len(y)
        return f, G + _penalty_gradient(reg, X)


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
    """Diagonal quadratic with eigenvalues log-spaced in [1, cond].

    ``seed`` is recorded for configuration digests but does not affect
    the construction; the eigenstructure is deterministic.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    # The range tests are written so that nan and inf fail them too.
    if not 1.0 <= cond < math.inf:
        raise ValueError(f"cond must be finite and >= 1, got {cond!r}")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    return Quadratic(
        name=f"quadratic(dim={dim},cond={cond:g},sigma={sigma:g})",
        dim=dim,
        L=float(cond),
        f_star=0.0,
        A=0.0,
        B=1.0,
        C=float(sigma) ** 2 * dim,
        params={"dim": int(dim), "cond": float(cond), "sigma": float(sigma), "seed": int(seed)},
        eigs=np.array([float(cond)]) if dim == 1 else np.logspace(0.0, np.log10(cond), dim),
        sigma=float(sigma),
    )


# Row-sum bound on the Rosenbrock Hessian over [-2, 2]^2:
# |2 - 400y + 1200x^2| + |400x| <= 5602 + 800.
_ROSENBROCK_L = 6402.0


def make_rosenbrock(sigma: float) -> Rosenbrock:
    """2-d Rosenbrock valley with additive Gaussian gradient noise."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    return Rosenbrock(
        name=f"rosenbrock(sigma={sigma:g})",
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
    if n < 2:
        raise ValueError("n must be >= 2")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 <= reg < math.inf:
        raise ValueError(f"reg must be finite and >= 0, got {reg!r}")
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
        log.warning("logreg data degenerate for seed %d; retrying with seed %d", use_seed, use_seed + 1)
        use_seed += 1
    else:
        raise ValueError("could not generate non-degenerate logreg data")

    # Logistic second derivative <= 1/4; penalty second derivative <= 2.
    l_data = float(np.linalg.eigvalsh(X.T @ X).max()) / (4.0 * n)
    L = l_data + 2.0 * float(reg)
    row_sq = float((X * X).sum(axis=1).max())
    C = 2.0 * row_sq + 2.0 * (float(reg) * np.sqrt(d) * _PENALTY_GRAD_MAX) ** 2
    return LogReg(
        name=f"logreg(n={n},d={d},reg={reg:g})",
        dim=d,
        L=L,
        f_star=None,
        A=0.0,
        B=1.0,
        C=C,
        params={"n": int(n), "d": int(d), "reg": float(reg), "seed": int(seed)},
        f_lower=0.0,
        data=X,
        y=y,
        reg=float(reg),
    )


def _check_x(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x must have shape ({problem.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


def _expit(t: np.ndarray) -> np.ndarray:
    # Overflow-safe logistic function with one exp: exp(-|t|) never
    # overflows, and the quotient is bitwise 1/(1+exp(-t)) for t >= 0
    # and exp(t)/(1+exp(t)) for t < 0.
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


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
