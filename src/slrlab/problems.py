"""Synthetic objectives with certified smoothness and noise constants.

Each problem declares the constants the theory consumes: a smoothness
bound L, the optimal value f_star where known, and expected-smoothness
constants (A, B, C) bounding the second moment of the stochastic
gradient by A*(f(x) - f_star) + B*||grad f(x)||^2 + C.  The constants
are exact by construction, not estimated:

* quadratic: f(x) = 0.5 x'Qx with Q diagonal, eigenvalues log-spaced in
  [1, cond]; stochastic gradient adds N(0, sigma^2 I), so A=0, B=1,
  C = sigma^2 * dim and L = cond.
* rosenbrock: the classic 2-d valley plus N(0, sigma^2 I) noise.  L is
  certified only on the box [-2, 2]^2 (row-sum bound on the Hessian);
  runs whose iterates leave the box are flagged uncertified rather than
  aborted.
* logreg: finite-sum logistic loss on synthetic labels with 10% flips,
  plus the bounded nonconvex penalty reg * sum_j x_j^2/(1+x_j^2) inside
  every summand.  L comes from the data matrix, f_star is unknown
  (recorded as absent; the loss is bounded below by 0).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any

import numpy as np

log = logging.getLogger(__name__)

QUADRATIC = "quadratic"
ROSENBROCK = "rosenbrock"
LOGREG = "logreg"

# max |d/dt (t^2/(1+t^2))| = 9/(8*sqrt(3)), attained at t = 1/sqrt(3)
_PENALTY_GRAD_MAX = 9.0 / (8.0 * np.sqrt(3.0))


@dataclass(eq=False)
class ProblemSpec:
    """A synthetic objective plus the constants the theory needs."""

    name: str
    family: str
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
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(eq=False)
class GradientSample:
    """One stochastic gradient: the vector and the realized draw.

    ``draw`` is the raw randomness consumed (summand index for finite
    sums, noise vector for additive-noise problems, None when the
    gradient is exact), independent of the query point.
    """

    vector: np.ndarray
    draw: Any


def make_quadratic(dim: int, cond: float, sigma: float, seed: int = 0) -> ProblemSpec:
    """Diagonal quadratic with eigenvalues log-spaced in [1, cond].

    ``seed`` is recorded for configuration digests but does not affect
    the construction; the eigenstructure is deterministic.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if dim == 1:
        eigs = np.array([float(cond)])
    else:
        eigs = np.logspace(0.0, np.log10(cond), dim)
    return ProblemSpec(
        name=f"quadratic(dim={dim},cond={cond:g},sigma={sigma:g})",
        family=QUADRATIC,
        dim=dim,
        L=float(cond),
        f_star=0.0,
        A=0.0,
        B=1.0,
        C=float(sigma) ** 2 * dim,
        params={"dim": int(dim), "cond": float(cond), "sigma": float(sigma), "seed": int(seed)},
        payload={"eigs": eigs, "sigma": float(sigma)},
    )


# Row-sum bound on the Rosenbrock Hessian over [-2, 2]^2:
# |2 - 400y + 1200x^2| + |400x| <= 5602 + 800.
_ROSENBROCK_L = 6402.0


def make_rosenbrock(sigma: float) -> ProblemSpec:
    """2-d Rosenbrock valley with additive Gaussian gradient noise."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    return ProblemSpec(
        name=f"rosenbrock(sigma={sigma:g})",
        family=ROSENBROCK,
        dim=2,
        L=_ROSENBROCK_L,
        f_star=0.0,
        A=0.0,
        B=1.0,
        C=2.0 * float(sigma) ** 2,
        params={"sigma": float(sigma)},
        domain_box=(-2.0, 2.0),
        payload={"sigma": float(sigma)},
    )


def make_logreg_nonconvex(n: int, d: int, reg: float, seed: int = 0) -> ProblemSpec:
    """Finite-sum logistic regression with a bounded nonconvex penalty.

    Labels come from a random linear teacher with 10% flips; degenerate
    draws (a single label class) are regenerated from seed+1, noted in
    the log, so every instance has both classes.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if d < 1:
        raise ValueError("d must be >= 1")
    if reg < 0.0:
        raise ValueError("reg must be >= 0")
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
    return ProblemSpec(
        name=f"logreg(n={n},d={d},reg={reg:g})",
        family=LOGREG,
        dim=d,
        L=L,
        f_star=None,
        A=0.0,
        B=1.0,
        C=C,
        params={"n": int(n), "d": int(d), "reg": float(reg), "seed": int(seed)},
        f_lower=0.0,
        payload={"X": X, "y": y, "reg": float(reg)},
    )


def _check_x(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x must have shape ({problem.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


def _expit(t: np.ndarray) -> np.ndarray:
    # Overflow-safe logistic function.
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, shape (S,).

    Equal bit for bit to ``np.dot`` on each row pair; ``einsum`` and
    ``(a * b).sum(axis=1)`` reduce in another order and are not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _penalty_gradient(reg: float, X: np.ndarray) -> np.ndarray:
    return reg * 2.0 * X / (1.0 + X * X) ** 2


# The oracles below work on an (S, d) stack of iterates, one row per
# seed.  Each row's result is bitwise independent of the other rows and
# of S, so a batch of runs reproduces each run alone.  The single-point
# functions further down are their S = 1 case.


def loss_rows(problem: ProblemSpec, X: np.ndarray) -> np.ndarray:
    """Full objective f at each row of X, shape (S,)."""
    p = problem.payload
    if problem.family == QUADRATIC:
        return 0.5 * row_dot(p["eigs"] * X, X)
    if problem.family == ROSENBROCK:
        a, b = X[:, 0], X[:, 1]
        return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    if problem.family == LOGREG:
        # One data pass per row: a product across rows would round
        # differently and tie a row's value to S.
        data, y, reg = p["X"], p["y"], p["reg"]
        out = np.empty(len(X))
        for s, x in enumerate(X):
            z = y * (data @ x)
            out[s] = float(np.logaddexp(0.0, -z).mean()) + float(reg * np.sum(x * x / (1.0 + x * x)))
        return out
    raise ValueError(f"unknown family {problem.family!r}")


def gradient_rows(problem: ProblemSpec, X: np.ndarray) -> np.ndarray:
    """Exact gradient of the full objective at each row of X, shape (S, d)."""
    p = problem.payload
    if problem.family == QUADRATIC:
        return p["eigs"] * X
    if problem.family == ROSENBROCK:
        a, b = X[:, 0], X[:, 1]
        da = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a)
        db = 200.0 * (b - a * a)
        return np.stack([da, db], axis=1)
    if problem.family == LOGREG:
        data, y, reg = p["X"], p["y"], p["reg"]
        out = np.empty_like(X)
        for s, x in enumerate(X):
            z = y * (data @ x)
            out[s] = data.T @ (-y * _expit(-z)) / len(y)
        return out + _penalty_gradient(reg, X)
    raise ValueError(f"unknown family {problem.family!r}")


def summand_gradient_rows(problem: ProblemSpec, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Gradient of summand idx[s] at row s of X; finite-sum problems only."""
    if problem.family != LOGREG:
        raise ValueError("summand_gradient applies to finite-sum problems only")
    data, y, reg = problem.payload["X"], problem.payload["y"], problem.payload["reg"]
    rows, yi = data[idx], y[idx]
    coeff = -yi * _expit(-(yi * row_dot(rows, X)))
    return coeff[:, None] * rows + _penalty_gradient(reg, X)


def draw_block(problem: ProblemSpec, rng: np.random.Generator, n: int) -> np.ndarray | None:
    """The randomness n successive stochastic gradients consume, drawn at once.

    An (n,) array of summand indices for finite sums, an (n, d) array of
    additive noise when sigma > 0, None when the gradient is exact.  It
    equals n single draws bit for bit, however the steps are split into
    blocks.
    """
    if problem.family == LOGREG:
        return rng.integers(summand_count(problem), size=n)
    sigma = problem.payload["sigma"]
    if sigma == 0.0:
        return None
    return sigma * rng.standard_normal((n, problem.dim))


def stochastic_gradient_rows(problem: ProblemSpec, X: np.ndarray, draws: np.ndarray | None) -> np.ndarray:
    """Stochastic gradient at each row of X given that row's draw, shape (S, d).

    ``draws`` holds one step of :func:`draw_block` output per row: (S,)
    summand indices, (S, d) noise, or None.
    """
    if problem.family == LOGREG:
        return summand_gradient_rows(problem, X, draws)
    g = gradient_rows(problem, X)
    return g if draws is None else g + draws


def summand_count(problem: ProblemSpec) -> int:
    """Number of summands for finite-sum problems (1 otherwise)."""
    if problem.family == LOGREG:
        return len(problem.payload["y"])
    return 1


def loss(problem: ProblemSpec, x: np.ndarray) -> float:
    """Full objective value f(x)."""
    return float(loss_rows(problem, _check_x(problem, x)[None])[0])


def full_gradient(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Exact gradient of the full objective."""
    return gradient_rows(problem, _check_x(problem, x)[None])[0]


def summand_gradient(problem: ProblemSpec, x: np.ndarray, i: int) -> np.ndarray:
    """Gradient of summand i; finite-sum problems only."""
    return summand_gradient_rows(problem, _check_x(problem, x)[None], np.array([i]))[0]


def stochastic_gradient(problem: ProblemSpec, x: np.ndarray, rng: np.random.Generator) -> GradientSample:
    """One unbiased stochastic gradient at x.

    The randomness consumed per call is fixed by the problem family
    alone (one index for finite sums, one noise vector for additive
    noise with sigma > 0, none otherwise), so paired runs sharing a
    generator see identical draw sequences regardless of where their
    iterates wander.
    """
    x = _check_x(problem, x)
    draws = draw_block(problem, rng, 1)
    vector = stochastic_gradient_rows(problem, x[None], draws)[0]
    if draws is None:
        return GradientSample(vector=vector, draw=None)
    return GradientSample(vector=vector, draw=int(draws[0]) if problem.family == LOGREG else draws[0])
