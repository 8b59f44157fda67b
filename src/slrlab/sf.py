"""Stochasticity factors: per-iteration random step-size multipliers.

A stochasticity factor (SF) is the random multiplier u_k applied to the
step size at iteration k of the optimizer.  Two families are supported:

* ``constant`` -- u_k = value for every k (value 1.0 recovers plain SGD).
* ``uniform_root`` -- u_k drawn uniformly from the closed interval
  [c1**(1/(k+1)), c2**(1/(k+1))] with 0 < c1 < c2.  The exponent uses
  k+1 throughout so that k starts at 0 like the optimizer's iteration
  counter.

Because the law at each k is uniform on a known interval, the mean is
the interval midpoint and the variance is width**2 / 12.  All
monotonicity questions about the moment sequences therefore reduce to
exact comparisons of closed-form series, which is what
:func:`moment_profile` provides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

CONSTANT = "constant"
UNIFORM_ROOT = "uniform_root"


class Direction(Enum):
    """Strict monotonicity classification of a finite series."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"
    NON_MONOTONE = "non_monotone"


@dataclass(frozen=True)
class SFSpec:
    """Declarative description of a stochasticity-factor family.

    ``kind`` selects the family; ``value`` applies to ``constant`` only,
    ``c1``/``c2`` to ``uniform_root`` only.
    """

    kind: str
    value: float | None = None
    c1: float | None = None
    c2: float | None = None

    def __post_init__(self) -> None:
        # The range tests are written so that nan and inf fail them too.
        if self.kind == CONSTANT:
            if self.value is None or not 0.0 < self.value < math.inf:
                raise ValueError(f"constant SF requires finite value > 0, got value={self.value!r}")
            if self.c1 is not None or self.c2 is not None:
                raise ValueError("constant SF takes no c1/c2")
        elif self.kind == UNIFORM_ROOT:
            if self.value is not None:
                raise ValueError("uniform_root SF takes no value")
            if self.c1 is None or self.c2 is None:
                raise ValueError("uniform_root SF requires c1 and c2")
            if not 0.0 < self.c1 < self.c2 < math.inf:
                raise ValueError(f"uniform_root SF requires 0 < c1 < c2 < inf, got c1={self.c1!r}, c2={self.c2!r}")
        else:
            raise ValueError(f"unknown SF kind: {self.kind!r}")


def constant(value: float) -> SFSpec:
    return SFSpec(CONSTANT, value=float(value))


def uniform_root(c1: float, c2: float) -> SFSpec:
    return SFSpec(UNIFORM_ROOT, c1=float(c1), c2=float(c2))


def support_bounds(spec: SFSpec, k: int) -> tuple[float, float]:
    """Closed support [lo, hi] of u_k at iteration k >= 0."""
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    if spec.kind == CONSTANT:
        return spec.value, spec.value
    e = 1.0 / (k + 1.0)
    return spec.c1**e, spec.c2**e


def _block_bounds(spec: SFSpec, k0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """uniform_root supports for k = k0..k0+n-1, bitwise :func:`support_bounds`.

    The exponents 1/(k+1) are exact divisions either way; the powers
    are the scalar ``float.__pow__`` (C ``pow``) mapped over them,
    because a numpy array power may use a vector routine that rounds
    differently.
    """
    e = (1.0 / np.arange(k0 + 1.0, k0 + n + 1.0)).tolist()
    return tuple(np.fromiter(map(float(c).__pow__, e), float, n) for c in (spec.c1, spec.c2))


def sample_block(spec: SFSpec, k0: int, n: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """Draws of u_k for k = k0..k0+n-1, one row per generator, shape (len(rngs), n).

    The constant family consumes no randomness.  The uniform_root family
    consumes one double-precision uniform per draw, mapped onto the
    support by inverse transform, so each row equals n successive
    single draws from its generator bit for bit and always lies inside
    the closed support.
    """
    if spec.kind == CONSTANT:
        return np.full((len(rngs), n), spec.value)
    lo, hi = _block_bounds(spec, k0, n)
    return lo + (hi - lo) * np.array([rng.random(n) for rng in rngs])


def sample(spec: SFSpec, k: int, rng: np.random.Generator) -> float:
    """Draw one realization of u_k (see :func:`sample_block`)."""
    return float(sample_block(spec, k, 1, [rng])[0, 0])


@dataclass(frozen=True, eq=False)
class MomentProfile:
    """Exact moment series of an SF over iterations 0..k_max.

    ``sup_support`` is the max of the support upper bound over the finite
    horizon; ``sup_support_limit`` is the supremum over all k >= 0 (for
    uniform_root with c2 < 1 the bounds increase toward 1, so the
    supremum is the limit 1 and is never attained).
    """

    spec: SFSpec
    k_max: int
    mean: np.ndarray
    variance: np.ndarray
    mu1: float
    sup_support: float
    sup_support_limit: float
    mean_direction: Direction
    variance_direction: Direction


def _direction(series: np.ndarray) -> Direction:
    d = np.diff(series)
    up = bool((d > 0).any())
    down = bool((d < 0).any())
    if up and down:
        return Direction.NON_MONOTONE
    if up:
        return Direction.INCREASING
    if down:
        return Direction.DECREASING
    return Direction.CONSTANT


def moment_profile(spec: SFSpec, k_max: int) -> MomentProfile:
    """Mean/variance series over k = 0..k_max with direction summaries.

    k_max must be >= 1 so that directions are well defined.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if spec.kind == CONSTANT:
        m = np.full(k_max + 1, spec.value)
        v = np.zeros(k_max + 1)
        upper_max = spec.value
        upper_lim = spec.value
    else:
        inv = 1.0 / np.arange(1.0, k_max + 2.0)
        lo = spec.c1**inv
        hi = spec.c2**inv
        m = 0.5 * (lo + hi)
        v = (hi - lo) ** 2 / 12.0
        upper_max = float(hi.max())
        # c2 >= 1: upper bound max sits at k = 0; c2 < 1: bounds rise to 1.
        upper_lim = max(spec.c2, 1.0)
    return MomentProfile(
        spec=spec,
        k_max=k_max,
        mean=m,
        variance=v,
        mu1=float(m.min()),
        sup_support=upper_max,
        sup_support_limit=float(upper_lim),
        mean_direction=_direction(m),
        variance_direction=_direction(v),
    )
