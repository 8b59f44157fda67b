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
    """Monotonicity classification of a finite series that allows equal neighbours.

    So [1, 2, 2, 3] is INCREASING.  The theorem cases' monotone gates in
    :mod:`validator` are strict instead: an equal pair fails them.
    """

    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"
    NON_MONOTONE = "non_monotone"


# The arguments each kind takes, in config order.
KIND_ARGUMENTS = {CONSTANT: ("value",), UNIFORM_ROOT: ("c1", "c2")}


def argument_error(name: str, value: float, c1: float | None = None) -> str | None:
    """Why ``value`` is out of range for the SF argument ``name``, or None if it is in range.

    ``value`` and ``c1`` must be finite and > 0, ``c2`` finite and > ``c1``.
    :class:`SFSpec` raises ValueError with this text; the config parser
    checks each ``sf.*`` key with it.
    """
    low, low_name = (c1, "c1") if name == "c2" else (0.0, "0")
    # Written so that nan and inf fail it too.
    return None if low < value < math.inf else f"{name} must be finite and > {low_name}, got {name}={value!r}"


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
        if self.kind not in KIND_ARGUMENTS:
            raise ValueError(f"unknown SF kind: {self.kind!r}")
        takes = KIND_ARGUMENTS[self.kind]
        for name in ("value", "c1", "c2"):
            given = getattr(self, name)
            if (given is not None) != (name in takes):
                raise ValueError(f"{self.kind} SF {'requires' if name in takes else 'takes no'} {name}")
            if given is not None and (why := argument_error(name, given, self.c1)) is not None:
                raise ValueError(why)


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


def scalar_power(base: float, exponents: np.ndarray) -> np.ndarray:
    """``base ** e`` for each exponent by C ``pow``: numpy's array power gives bits that vary with its SIMD dispatch."""
    return np.fromiter(map(math.pow, [float(base)] * len(exponents), exponents.tolist()), float, len(exponents))


def _block_bounds(spec: SFSpec, k0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Supports [lo, hi] of u_k for k = k0..k0+n-1, bitwise :func:`support_bounds`.

    The one closed form of the law, read by the sampler and the moments.
    """
    if spec.kind == CONSTANT:
        return np.full(n, spec.value), np.full(n, spec.value)
    e = 1.0 / np.arange(k0 + 1.0, k0 + n + 1.0)
    return scalar_power(spec.c1, e), scalar_power(spec.c2, e)


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

    ``sup_support_limit`` is the supremum of the support over all k >= 0
    (for uniform_root with c2 < 1 the bounds increase toward 1, so the
    supremum is the limit 1 and is never attained).
    """

    k_max: int
    mean: np.ndarray
    variance: np.ndarray
    sup_support_limit: float
    mean_direction: Direction


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
    """Mean/variance series over k = 0..k_max with the mean's direction.

    k_max must be >= 1 so that the direction is well defined.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lo, hi = _block_bounds(spec, 0, k_max + 1)
    # Not 0.5 * (lo + hi): past the largest double it reads inf where this
    # reads 1.25e308 (uniform_root(1e308, 1.5e308) at k = 0), and among
    # subnormals it reads 1e-323 where this reads 5e-324 (uniform_root(5e-324,
    # 1e-323)).  A constant is its own mean: halving the least subnormal rounds to 0.
    m = lo if spec.kind == CONSTANT else 0.5 * lo + 0.5 * hi
    with np.errstate(over="ignore"):  # a width past ~1.3e154 squares to inf, as the gates expect
        v = (hi - lo) ** 2 / 12.0
    return MomentProfile(
        k_max=k_max,
        mean=m,
        variance=v,
        # uniform_root: with c2 < 1 the bounds rise toward 1, never attained.
        sup_support_limit=float(spec.value if spec.kind == CONSTANT else max(spec.c2, 1.0)),
        mean_direction=_direction(m),
    )
