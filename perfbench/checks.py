"""Correctness checks on the artifacts of each CLI command.

Every seed is checked against invariants that hold for any seed: exit
0, all runs included, finite values, a non-increasing running minimum,
and ``sum_eta`` equal to the cumulative schedule.  Each check also
returns the values that were recorded as references at the seed commit
(``references.json``, default workload seed only); ``mismatches`` compares
them with a relative tolerance, because reduction order and BLAS
threading move the last digits of these values without changing the
result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REL_TOL = 1e-6
# Columns of the trajectory CSV, as documented in the package README.
COLUMNS = ("k", "loss", "grad_norm_sq", "min_grad_sq", "g_k", "eta_k", "u_k", "sum_eta",
           "envelope_det", "envelope_case")
DIAGNOSTIC = re.compile(
    r"^diagnostic = (\w+) \| window k in \[(\d+), (\d+)\] \| slope = (\S+) \| r_lo = (\S+) \| r_hi = (\S+)$",
    re.M,
)


@dataclass
class Outcome:
    """What one command produced: problems found, SGD steps executed, reference values."""

    problems: list[str] = field(default_factory=list)
    steps: int = 0
    observed: dict = field(default_factory=dict)


def schedule_sizes(family: str, eta: float, n: int) -> np.ndarray:
    """eta_k for k = 0..n-1, written out from the schedule definitions."""
    ks = np.arange(float(n))
    if family == "inverse_k":
        return eta / (ks + 1.0)
    if family == "inverse_sqrt_k":
        return eta / np.sqrt(ks + 1.0)
    return np.full(n, eta)


def read_trajectory(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != ",".join(COLUMNS):
        raise ValueError(f"{path.name}: bad trajectory header")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: table[:, i] for i, name in enumerate(COLUMNS)}


def config_params(text: str) -> dict[str, str]:
    """The ``key = value`` pairs of a generated config."""
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def trajectory_problems(t: dict[str, np.ndarray], cfg: dict[str, str]) -> list[str]:
    """Invariants of one complete (non-diverged) trajectory of the config `cfg`."""
    out = []
    iterations, eval_every = int(cfg["iterations"]), int(cfg["eval_every"])
    ks = np.arange(0, iterations + 1, eval_every)
    if len(t["k"]) != len(ks) or not np.array_equal(t["k"], ks):
        return [f"recorded k is not 0, {eval_every}, ..., {iterations}"]
    for name in ("loss", "grad_norm_sq", "min_grad_sq", "eta_k", "sum_eta"):
        if not np.isfinite(t[name]).all():
            out.append(f"non-finite {name}")
    if not (np.isfinite(t["u_k"][:-1]).all() and np.isnan(t["u_k"][-1])):
        out.append("u_k must be finite except the final nan")
    if (np.diff(t["min_grad_sq"]) > 0).any():
        out.append("min_grad_sq increases")
    etas = schedule_sizes(cfg["schedule"], float(cfg["schedule.eta"]), iterations + 1)
    cum = np.concatenate(([0.0], np.cumsum(etas[:-1])))[ks]
    if not np.allclose(t["sum_eta"], cum, rtol=1e-12, atol=0.0):
        out.append("sum_eta differs from the cumulative schedule")
    if not np.allclose(t["eta_k"], etas[ks], rtol=1e-15, atol=0.0):
        out.append("eta_k differs from the schedule")
    return out


def check_compare(d: Path, stdout: str, cfg: dict[str, str]) -> Outcome:
    """compare-c9: report.csv of two arms, every seed included."""
    o = Outcome()
    n_seeds = cfg["n_seeds"]
    if "paired gradient streams verified identical per seed" not in stdout:
        o.problems.append("missing the paired-streams line")
    lines = (d / "cmp" / "report.csv").read_text().splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    for key, want in (("n_a", n_seeds), ("n_b", n_seeds), ("excluded_a", "0"), ("excluded_b", "0")):
        if meta.get(key) != want:
            o.problems.append(f"{key} = {meta.get(key)}, want {want}")
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    table = np.array([[float(v) for v in r[:6]] for r in rows])
    if not np.isfinite(table).all():
        o.problems.append("non-finite report value")
    for col, name in ((1, "mean_a"), (2, "mean_b")):
        if (np.diff(table[:, col]) > 0).any():
            o.problems.append(f"{name} of min_grad_sq increases")
    o.steps = (int(meta.get("n_a", 0)) + int(meta.get("n_b", 0))) * int(cfg["iterations"])
    o.observed = {"k": table[:, 0].tolist(), "mean_a": table[:, 1].tolist(),
                  "mean_b": table[:, 2].tolist(), "p": table[:, 5].tolist()}
    return o


def check_run(d: Path, stdout: str, cfg: dict[str, str]) -> Outcome:
    """run-logreg-wide: one trajectory CSV per seed plus metadata.txt."""
    o = Outcome()
    files = sorted((d / "runs").glob("run_seed*.csv"))
    if len(files) != int(cfg["n_seeds"]) or not (d / "runs" / "metadata.txt").is_file():
        o.problems.append(f"expected {cfg['n_seeds']} trajectories and metadata.txt, found {len(files)} CSVs")
    finals = []
    for f in files:
        t = read_trajectory(f)
        o.problems += [f"{f.name}: {p}" for p in trajectory_problems(t, cfg)]
        o.steps += int(t["k"][-1])
        finals.append((t["loss"][-1], t["min_grad_sq"][-1]))
    o.observed = {"final_loss": [f[0] for f in finals], "final_min_grad_sq": [f[1] for f in finals]}
    return o


def check_validate(d: Path, stdout: str, cfg: dict[str, str]) -> Outcome:
    o = Outcome()
    # Regime b when both roots lie below 1, as in uniform_root(0.3, 0.8);
    # the workloads' only pair with c2 > 1 sits on the balanced-root curve.
    c1, c2 = cfg["sf.c1"], cfg["sf.c2"]
    want = "b" if float(c2) <= 1.0 else "c"
    if f"prop1_regime = {want} |" not in stdout:
        o.problems.append(f"validate did not classify ({c1}, {c2}) as regime {want}")
    return o


def check_envelope(d: Path, stdout: str, cfg: dict[str, str]) -> Outcome:
    """envelope-session: one seed, recorded every step."""
    o = Outcome()
    m = DIAGNOSTIC.search((d / "env" / "diagnostic.txt").read_text())
    if m is None:
        o.problems.append("no diagnostic line")
    else:
        slope, r_lo, r_hi = (float(v) for v in m.group(4, 5, 6))
        if not all(map(math.isfinite, (slope, r_lo, r_hi))):
            o.problems.append("non-finite diagnostic value")
        o.observed = {"verdict": m.group(1), "window": [int(m.group(2)), int(m.group(3))],
                      "slope": slope, "r_lo": r_lo, "r_hi": r_hi}
    t = read_trajectory(d / "env" / "trajectory.csv")
    o.problems += trajectory_problems(t, cfg)
    o.steps = int(t["k"][-1])
    o.observed["final_row"] = [float(t[c][-1]) for c in COLUMNS]
    return o


def check_plot(d: Path, stdout: str, cfg: dict[str, str]) -> Outcome:
    o = Outcome()
    svg = (d / "env" / "plot.svg").read_text()
    # One polyline each for the trajectory, the deterministic and the case envelope.
    if not svg.startswith("<svg") or svg.count("<polyline") != 3:
        o.problems.append("plot.svg is not an SVG with 3 polylines")
    return o


CHECKS = {"compare": check_compare, "run": check_run, "validate": check_validate,
          "envelope": check_envelope, "plot": check_plot}


def check(command: str, d: Path, stdout: str, config: str) -> Outcome:
    """Check one command's artifacts against the config text it ran.

    A missing or malformed artifact is a problem, not a crash.
    """
    try:
        return CHECKS[command](d, stdout, config_params(config))
    except (OSError, ValueError, IndexError) as exc:
        return Outcome(problems=[f"unreadable artifact: {exc}"])


def mismatches(observed, reference, where: str = "") -> list[str]:
    """Differences between observed and reference values: strings and ints exact, floats by REL_TOL."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or observed.keys() != reference.keys():
            return [f"{where}: keys differ"]
        return [m for k in reference for m in mismatches(observed[k], reference[k], f"{where}.{k}")]
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return [f"{where}: length differs"]
        return [m for i, (a, b) in enumerate(zip(observed, reference))
                for m in mismatches(a, b, f"{where}[{i}]")]
    if isinstance(reference, float):
        a = float(observed)
        same = (math.isnan(a) and math.isnan(reference)) or math.isclose(a, reference, rel_tol=REL_TOL)
        return [] if same else [f"{where}: {a!r} != reference {reference!r}"]
    return [] if observed == reference else [f"{where}: {observed!r} != reference {reference!r}"]
