"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of one CPU drifts by up to a
factor of two within minutes, so two runs of the same code can differ
by more than any useful regression bound.  The benchmark therefore
stops the measured command every SLICE_S seconds (SIGSTOP), times a
fixed kernel that uses no slrlab code on the same CPU, and resumes it
(SIGCONT).  Each slice's running time is scaled by the kernel's nominal
time over its mean time just before and just after the slice, which
gives the command's time at the reference speed.  A kernel tracks the
drift only for code that stresses the machine in the same way, so each
workload names the kernel that matches its hot path: SGD steps on a
small quadratic, looped and batched over seeds, or matrix-vector
products over a 20000 x 50 design matrix.
"""

from __future__ import annotations

import time

import numpy as np

SLICE_S = 0.25


def small_ops() -> float:
    """SGD steps on a small quadratic, both one 10-vector per step and batched over 40 seeds.

    The two halves take about the same time, so a program whose step loop
    moves from the first form to the second is still timed against a
    kernel that runs its hot path.  In two four-minute trials on the
    2-vCPU machine, the speed of the loop relative to the batched form,
    in 2-second blocks, had a quartile spread of up to 0.10; relative to
    this blend, each form's spread was at most 0.05.
    """
    rng = np.random.default_rng(0)
    a = np.linspace(1.0, 10.0, 10)
    x = np.ones(10)
    total = 0.0
    for k in range(1500):
        g = a * x + 0.1 * rng.standard_normal(10)
        x = x - (0.1 / (k + 1.0)) * g
        total += float(g @ g)
    xs = np.ones((40, 10))
    for k in range(550):
        gs = a * xs + 0.1 * rng.standard_normal((40, 10))
        xs = xs - (0.1 / (k + 1.0)) * gs
        total += float(np.einsum("ij,ij->", gs, gs))
    return total


class MatVec:
    """Full-data passes of a logistic model, like the logreg eval points."""

    def __init__(self) -> None:
        self.x = np.random.default_rng(2).standard_normal((20000, 50))
        self.w = np.full(50, 0.01)

    def __call__(self) -> float:
        total = 0.0
        for _ in range(8):
            z = self.x @ self.w
            total += float((self.x.T @ z).sum()) + float(np.logaddexp(0.0, -z).mean())
        return total


# Seconds one call of each kernel takes at the reference speed: about its
# median on the 2-vCPU machine where the benchmark was written.
NOMINAL_S = {"small_ops": 0.025, "matvec": 0.016}


class Calibration:
    """Times a fixed kernel and converts measured seconds to reference-speed seconds."""

    def __init__(self, kind: str) -> None:
        self.kernel = MatVec() if kind == "matvec" else small_ops
        self.nominal_s = NOMINAL_S[kind]

    def sample(self) -> float:
        """Seconds one kernel call takes now."""
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def scale(self, seconds: float, before: float, after: float) -> float:
        """`seconds` measured between kernel samples `before` and `after`, at the reference speed."""
        return seconds * self.nominal_s / ((before + after) / 2)
