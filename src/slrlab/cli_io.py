"""Config files, CSV serialization, SVG plots, and the command line.

Config files are line-oriented ``key = value`` text: '#' starts a
comment, blank lines are ignored, unknown keys are rejected with the
offending line number.  Serialization is canonical (fixed key order,
repr floats), so parse(format(cfg)) is the identity and formatted
configs are byte-stable.

Trajectory CSVs carry the exact header

    k,loss,grad_norm_sq,min_grad_sq,g_k,eta_k,u_k,sum_eta,envelope_det,envelope_case

one row per recorded eval point, with floats printed to 17 significant
digits so values round-trip exactly.  The last row's u_k is nan (no
step leaves the final iterate) and the k=0 row's envelopes are inf/nan
(the partial step-size sum is empty there).  All writers are
deterministic byte for byte for identical inputs.

Exit codes: 0 success, 1 invalid configuration or failed validation,
2 runtime error.  The environment variable SLRLAB_SEED, when set,
overrides master_seed for every command that runs the optimizer.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import problems, sf, validator
from .optimizer import (METRICS, SCHEDULE_FAMILIES, RNG_ALGORITHM, StepSizeSchedule, argument_error, run_paired,
                        step_sizes, step_sums)
from .validator import TheoremCase

# Names used only in annotations.  The functions that call `stats` and
# `harness` import them: only `compare` loads `stats`, only `run` and
# `envelope` load `harness`.
if TYPE_CHECKING:
    from typing import NoReturn

    from .harness import LittleODiagnostic, RateEnvelope
    from .optimizer import Trajectory
    from .stats import ComparisonReport
    from .validator import ConditionReport

TRAJECTORY_HEADER = "k,loss,grad_norm_sq,min_grad_sq,g_k,eta_k,u_k,sum_eta,envelope_det,envelope_case"
SEEDS_HEADER = "seed,verdict,slope,r_lo,r_hi,truncated_at"


def _as_int(raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _as_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _as_checkpoints(raw: str) -> tuple[int, ...] | str:
    if raw == "auto":
        return raw
    try:
        return tuple(int(part, 10) for part in raw.split(","))
    except ValueError:
        raise ValueError("expected 'auto' or comma-separated integers") from None


def _known(choices, what: str):
    return lambda v: None if v in choices else f"unknown {what} {v!r}, expected one of {sorted(choices)}"


# Each problem family's maker and its config fields: the maker's argument
# names, each with its parser and default (MISSING: the key is required).
_PROBLEMS = {
    "quadratic": (problems.make_quadratic, {"dim": (_as_int, MISSING), "cond": (_as_float, 1.0),
                                            "sigma": (_as_float, 0.0)}),
    "rosenbrock": (problems.make_rosenbrock, {"sigma": (_as_float, 0.0)}),
    "logreg": (problems.make_logreg_nonconvex, {"n": (_as_int, MISSING), "d": (_as_int, MISSING),
                                                "reg": (_as_float, 0.0), "seed": (_as_int, 0)}),
}
_CASE_TOKENS = {c.value: c for c in TheoremCase}


class ConfigError(ValueError):
    """Invalid configuration; the message names the line and the key.

    A config read by :func:`load_config` is also named, first:
    ``<path>: line <n>: <key>: <why>``.  A bad SLRLAB_SEED gives
    ``SLRLAB_SEED: <why>``.
    """


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    problem_family: str
    problem_params: tuple[tuple[str, int | float], ...]
    schedule: StepSizeSchedule
    sf: sf.SFSpec
    # The run keys, in file order, with the file's defaults (none: required).
    iterations: int
    eval_every: int = 10
    n_seeds: int = 40
    master_seed: int
    checkpoints: tuple[int, ...] | str = "auto"
    theorem_case: TheoremCase | None = None


_RUN_FIELDS = fields(ExperimentConfig)[4:]  # the fields after sf
_RUN_DEFAULTS = {f.name: f.default for f in _RUN_FIELDS}
# The run keys whose rule is optimizer.argument_error (checkpoints = auto
# needs none), in the order the rules depend on: iterations' rule reads
# eval_every, and checkpoints' reads both.
_RUN_SHAPE = {"eval_every": _as_int, "iterations": _as_int, "n_seeds": _as_int, "master_seed": _as_int,
              "checkpoints": _as_checkpoints}


def _read(raw: str, parse, rule, where: str):
    """``parse(raw)``, or ConfigError ``<where>: <why>`` with the parser's ValueError or the rule's reason."""
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    why = rule(value)
    if why is not None:
        raise ConfigError(f"{where}: {why}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; rejects unknown keys, bad types, bad values.

    Every range rule is the library's: the reason a value is refused is
    the text the library raises for it.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (eq and key and value):
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)

    def read(key: str, parse=str, rule=lambda v: None, default=MISSING, needed_for: str = ""):
        got = entries.pop(key, None)
        if got is None:
            default = _RUN_DEFAULTS.get(key, default)
            if default is MISSING:
                raise ConfigError(f"missing required key {key!r}{needed_for}")
            return default
        return _read(got[0], parse, rule, f"line {got[1]}: {key}")

    family = read("problem", rule=_known(_PROBLEMS, "family"))
    problem_params = tuple(
        (name, read(f"problem.{name}", parse, partial(problems.argument_error, name), default,
                    f" for problem = {family}"))
        for name, (parse, default) in _PROBLEMS[family][1].items()
    )
    schedule_family = read("schedule", rule=_known(SCHEDULE_FAMILIES, "family"))
    schedule = read("schedule.eta", lambda raw: StepSizeSchedule(schedule_family, _as_float(raw)))
    sf_kind = read("sf", rule=_known(sf.KIND_ARGUMENTS, "kind"))
    sf_args: dict[str, float] = {}
    for name in sf.KIND_ARGUMENTS[sf_kind]:
        sf_args[name] = read(f"sf.{name}", _as_float, partial(sf.argument_error, name, c1=sf_args.get("c1")),
                             needed_for=f" for sf = {sf_kind}")
    run: dict = {}
    for key, parse in _RUN_SHAPE.items():
        run[key] = read(key, parse, lambda v, key=key: None if v == "auto" else
                        argument_error(key, v, run.get("eval_every", 1), run.get("iterations", 0)))
    run["theorem_case"] = _CASE_TOKENS.get(read("theorem_case", rule=_known(_CASE_TOKENS, "case")))
    if entries:
        key = min(entries, key=lambda k: entries[k][1])
        raise ConfigError(f"line {entries[key][1]}: unknown key {key!r}")
    return ExperimentConfig(problem_family=family, problem_params=problem_params, schedule=schedule,
                            sf=sf.SFSpec(sf_kind, **sf_args), **run)


def _fmt_value(v) -> str:
    if isinstance(v, tuple):  # the checkpoints
        return ",".join(map(str, v))
    if isinstance(v, TheoremCase):
        return v.value
    return repr(v) if isinstance(v, float) else str(v)


def _config_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """Each key of the config's file, in file order, and the text of its value; an unset key is left out."""
    items = [("problem", cfg.problem_family), *((f"problem.{name}", v) for name, v in cfg.problem_params),
             ("schedule", cfg.schedule.family), ("schedule.eta", cfg.schedule.eta), ("sf", cfg.sf.kind),
             *((f"sf.{name}", getattr(cfg.sf, name)) for name in sf.KIND_ARGUMENTS[cfg.sf.kind]),
             *((f.name, getattr(cfg, f.name)) for f in _RUN_FIELDS)]
    return [(key, _fmt_value(v)) for key, v in items if v is not None]


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text for a config; parse(format(cfg)) == cfg."""
    return "".join(f"{key} = {text}\n" for key, text in _config_items(cfg))


def build_problem(cfg: ExperimentConfig) -> problems.ProblemSpec:
    return _PROBLEMS[cfg.problem_family][0](**dict(cfg.problem_params))


# The config's own objects, under the names perfbench/setup_probe.py calls.
def build_schedule(cfg: ExperimentConfig) -> StepSizeSchedule:
    return cfg.schedule


def build_sf(cfg: ExperimentConfig) -> sf.SFSpec:
    return cfg.sf


def _read_utf8(path: str | Path, error: type[ValueError] = ValueError) -> str:
    """A file's text as UTF-8, after a leading byte-order mark; a byte that is not UTF-8 raises ``error``."""
    raw = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((raw[:exc.start].decode("utf-8") + "_").splitlines())
        raise error(f"{path}: line {lineno}: byte {raw[exc.start]:#04x} is not UTF-8 ({exc.reason})") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a config file, applying the SLRLAB_SEED override.

    Every error in the file is a ConfigError whose message starts with
    the file's path.  The file is read as UTF-8, after a leading byte-order
    mark if it has one: an undecodable byte names its line.
    """
    text = _read_utf8(path, ConfigError)
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    env = os.environ.get("SLRLAB_SEED")
    if env is not None:
        seed = _read(env, _as_int, partial(argument_error, "master_seed"), "SLRLAB_SEED")
        cfg = replace(cfg, master_seed=seed)
    return cfg


# ---------------------------------------------------------------------------
# CSV serialization


def _f17(x: float) -> str:
    return f"{float(x):.17g}"


# Trajectory rows formatted at once, through fmt17.rows, so no per-value
# Python call is made and a long text is never held at once.  fmt17 holds
# ~1.5 kB of working arrays per row of 10 values: at 1024 rows,
# `envelope`'s own peak RSS on a 50,001-row trajectory is ~50.7 MB, where
# a % formatter had it.
_FORMAT_CHUNK = 1024


class NotTrajectoryCSVError(ValueError):
    """A CSV whose header is not the trajectory header."""


def write_trajectory_csv(traj, path: str | Path, schedule: StepSizeSchedule,
                         case_env: RateEnvelope | None = None) -> None:
    """Write one trajectory with the fixed 10-column schema.

    The columns that depend only on the run's ``schedule`` are computed
    here: eta_k, the step sum S_k from :func:`optimizer.step_sums`, the
    baseline envelope 1 / S_k, and g_k from :func:`harness.attach_gk`.
    ``case_env`` covers the run's eval grid after k = 0 as far as the run
    recorded (a truncated run records a prefix of it), in that order.
    """
    from . import fmt17, harness  # imported here: only `run` and `envelope` write trajectories

    ks = traj.eval_points
    etas = step_sizes(schedule, traj.iterations + 1)
    sum_eta = step_sums(schedule, traj.iterations)[ks]
    # 1 / S_0 is inf, and a subnormal step sum's reciprocal overflows to inf, the value it stands for.
    with np.errstate(divide="ignore", over="ignore"):
        env_det = 1.0 / sum_eta
    case_vals = np.full(len(ks), np.nan)
    if case_env is not None:
        if not np.array_equal(case_env.ks[:len(ks) - 1], ks[1:]):
            raise ValueError("the case envelope does not cover the trajectory's eval grid")
        case_vals[1:] = case_env.values[:len(ks) - 1]
    cols = np.column_stack([ks, traj.loss, traj.grad_norm_sq, traj.min_grad_sq, harness.attach_gk(traj, schedule),
                            etas[ks], traj.u_eval, sum_eta, env_det, case_vals])
    with open(path, "w") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for i in range(0, len(cols), _FORMAT_CHUNK):
            fh.write(fmt17.rows(cols[i:i + _FORMAT_CHUNK]))


def read_trajectory_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into column arrays.

    The file is read as UTF-8 (a leading byte-order mark is dropped) with
    undecodable bytes replaced, so a binary file fails the header check
    and a bad byte fails its row.
    Raises :class:`NotTrajectoryCSVError` if the header is not the
    trajectory header, and ValueError naming the file and the first
    bad row if a row does not hold 10 numbers or its k is not an
    integer in [0, 2**63).

    The lines after the header go to one ``np.loadtxt``; if it refuses
    them, or skips a blank one, the same lines are parsed row by row,
    which names the first bad row.
    """
    text = Path(path).read_text(encoding="utf-8-sig", errors="replace")
    if text[:len(TRAJECTORY_HEADER) + 1].splitlines()[:1] != [TRAJECTORY_HEADER]:
        raise NotTrajectoryCSVError(f"{path}: not a trajectory CSV (bad header)")
    body = text.splitlines()[1:]
    del text
    names = TRAJECTORY_HEADER.split(",")
    data = None
    if any(body):  # loadtxt warns on lines that are all empty
        try:
            data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape != (len(body), len(names)):
        rows = []
        for lineno, line in enumerate(body, start=2):
            try:
                row = [float(p) for p in line.split(",")]
            except ValueError:
                row = []
            if len(row) != len(names):
                raise ValueError(f"{path}: line {lineno}: malformed row {line!r}")
            rows.append(row)
        data = np.array(rows).reshape(-1, len(names))
    k = data[:, 0]
    bad = np.flatnonzero(~((k >= 0) & (k < 2.0**63) & (np.floor(k) == k)))  # nan fails each test
    if len(bad):
        raise ValueError(f"{path}: line {bad[0] + 2}: k is not an integer in [0, 2**63) in row {body[bad[0]]!r}")
    out = {n: data[:, i].copy() for i, n in enumerate(names)}
    out["k"] = out["k"].astype(int)
    return out


def _as_flag(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw == "true"


def _as_count(raw: str) -> int:
    value = _as_int(raw)
    if value < 0:
        raise ValueError(f"expected a count >= 0, got {raw!r}")
    return value


# report.csv's layout, which write_report writes and read_report reads back.
# The metadata keys that read back, in order, each a ComparisonReport field
# and its parser.  The test's settings, written after the metric, are fixed,
# and the notes, written last as JSON, follow from the exclusion counts:
# neither is read back.
_REPORT_KEYS = (("metric", str), ("n_a", _as_count), ("n_b", _as_count), ("excluded_a", _as_count),
                ("excluded_b", _as_count), ("config_digest_a", str), ("config_digest_b", str))
# The columns, in order: the header name, the ComparisonReport field, the
# text of a value and its parser.
_REPORT_COLUMNS = (
    ("k", "checkpoints", str, _as_int),
    *((name, name, _f17, float) for name in ("mean_a", "mean_b", "t", "df", "p")),
    ("significant", "significant", lambda flag: "true" if flag else "false", _as_flag),
    ("wins_a", "wins_a", str, _as_int),
)
REPORT_HEADER = ",".join(header for header, *_ in _REPORT_COLUMNS)


def write_report(report: ComparisonReport, path: str | Path) -> None:
    """Comparison report as CSV with '#'-prefixed metadata lines."""
    import json  # imported here: only a report's notes are JSON

    from . import stats  # imported here: only `compare` writes a report

    meta = [(key, getattr(report, key)) for key, _ in _REPORT_KEYS] + [("notes", json.dumps(report.notes))]
    settings = [("correction", "bonferroni"), ("fwer", repr(stats.FWER)), ("paired", "true")]
    lines = [f"# {k} = {v}" for k, v in meta[:1] + settings + meta[1:]]
    lines.append(REPORT_HEADER)
    columns = [[text(value) for value in getattr(report, field)] for _, field, text, _ in _REPORT_COLUMNS]
    lines += [",".join(row) for row in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_report(path: str | Path) -> ComparisonReport:
    """Inverse of write_report.

    The file is read as UTF-8, after a leading byte-order mark if it has
    one.  Raises ValueError naming the file and the line of a byte that is
    not UTF-8 or of a row that does not hold the report's 8 fields, or the
    metadata key that is missing or does not parse.
    """
    from . import stats  # imported here: no command reads a report back

    lines = _read_utf8(path).splitlines()
    meta: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].strip().partition(" = ")
        meta[key] = value
        i += 1
    if i >= len(lines) or lines[i] != REPORT_HEADER:
        raise ValueError(f"{path}: not a comparison report CSV")
    rows = []
    for lineno, line in enumerate(lines[i + 1:], start=i + 2):
        try:  # a row of other than 8 fields fails the strict zip
            rows.append([parse(part) for part, (*_, parse) in zip(line.split(","), _REPORT_COLUMNS, strict=True)])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed row {line!r}") from None
    values = {field: [row[j] for row in rows] for j, (_, field, *_) in enumerate(_REPORT_COLUMNS)}
    for key, parse in _REPORT_KEYS:
        try:
            values[key] = parse(meta[key])
        except (KeyError, ValueError):
            raise ValueError(f"{path}: metadata key {key!r} is missing or malformed") from None
    return stats.ComparisonReport(**values)


def report_text(report: ComparisonReport) -> str:
    """Human-readable comparison summary."""
    from . import stats  # imported here: only `compare` prints a report

    lines = [
        f"metric: {report.metric}   correction: bonferroni (fwer={stats.FWER:g})   paired: yes",
        f"arms: a={report.config_digest_a} (n={report.n_a}, excluded {report.excluded_a})   "
        f"b={report.config_digest_b} (n={report.n_b}, excluded {report.excluded_b})",
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    n_sig = sum(report.significant)
    a_ahead = sum(1 for x, y in zip(report.mean_a, report.mean_b) if x < y)
    lines.append(
        f"direction (not a gate): arm a has the lower mean at {a_ahead} of {len(report.checkpoints)} checkpoints"
    )
    lines.append(f"significant after correction: {n_sig} of {len(report.checkpoints)} checkpoints")
    lines.append("")
    lines.append(f"{'k':>10} {'mean_a':>13} {'mean_b':>13} {'t':>10} {'df':>8} {'p':>12} {'sig':>4} {'wins_a':>7}")
    for i, k in enumerate(report.checkpoints):
        lines.append(
            f"{k:>10d} {report.mean_a[i]:>13.6g} {report.mean_b[i]:>13.6g} {report.t[i]:>10.4g} "
            f"{report.df[i]:>8.4g} {report.p[i]:>12.6g} {'yes' if report.significant[i] else 'no':>4} {report.wins_a[i]:>7}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering

# Where fl(100 v) has a fraction this close to a half, '%.2f' % v decides
# the rounding.  For v in [0, 1000), 100 v < 2**17, so fl(100 v) lies
# within 2**-37 of 100 v and any other fraction rounds as 100 v does.
_TIE_MARGIN = 1e-6


def _hundredths(v: np.ndarray) -> np.ndarray:
    """``'%.2f' % v`` for each v in [0, 1000), exactly, as an int64 count of hundredths."""
    w = 100.0 * v
    q = np.floor(w)
    f = w - q  # exact
    q = q.astype(np.int64) + (f > 0.5)
    near = np.flatnonzero(np.abs(f - 0.5) < _TIE_MARGIN)
    q[near] = [int(("%.2f" % x).replace(".", "")) for x in v[near].tolist()]
    return q


def _points_text(qx: np.ndarray, qy: np.ndarray) -> str:
    """The polyline text ``x,y x,y ...`` of points given as counts of hundredths >= 0, each with two decimals.

    Each point is one row of a byte matrix, a column per character: its
    numbers' digits, as wide as the widest, their points and separators.
    A leading zero is a NUL byte, removed from the matrix's bytes.
    """
    columns = []
    for q, sep in ((qx, ","), (qy, " ")):
        whole, frac = np.divmod(q, 100)
        power = 10 ** (len(str(int(whole.max(initial=0)))) - 1)
        while power > 1:
            columns.append((whole // power % 10 + ord("0")) * (whole >= power))
            power //= 10
        columns += [whole % 10 + ord("0"), ord("."), frac // 10 + ord("0"), frac % 10 + ord("0"), ord(sep)]
    chars = np.empty((len(qx), len(columns)), dtype=np.uint8)
    for i, column in enumerate(columns):
        chars[:, i] = column
    return chars.tobytes().replace(b"\0", b"")[:-1].decode("ascii")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]
_W, _H = 840, 520
_ML, _MR, _MT, _MB = 72, 24, 40, 52


def render_svg(series: dict[str, tuple[np.ndarray, np.ndarray]], path: str | Path) -> None:
    """Render line series on log-log axes to a standalone SVG: one polyline per series.

    The title and axis labels are fixed text, which needs no escaping;
    the series names are XML-escaped.  Points that are not finite and positive are dropped
    per series.  Each vertex is written as ``'%.2f,%.2f'`` of its pixel
    coordinates, computed exactly from integer hundredths
    (:func:`_hundredths`), and a vertex whose text equals the previous
    one's is left out: it would only add a zero-length segment, so the
    drawn path is the same.  Output is deterministic for identical inputs.
    """
    # Imported here: html.entities adds ~0.4 MB and ~2 ms to every command
    # that imports this module, and only plotting needs it.
    from html import escape

    if not series:
        raise ValueError("render_svg requires at least one series")

    # The log10 of each kept point.  That of a finite positive double lies
    # in [-323.3, 308.3], so no span below can overflow.
    cleaned: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, (xs, ys) in series.items():
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError(f"series {name!r}: x and y lengths differ")
        keep = np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)
        if keep.sum() >= 1:
            cleaned[name] = (np.log10(xs[keep]), np.log10(ys[keep]))
    if not cleaned:
        raise ValueError("no plottable points in any series")

    all_x = np.concatenate([v[0] for v in cleaned.values()])
    all_y = np.concatenate([v[1] for v in cleaned.values()])
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x0 == x1:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y0 == y1:
        y0, y1 = y0 - 1.0, y1 + 1.0

    # Pixel coordinates, for a float or a whole array of log10 values.
    def px(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" font-size="15">'
        "trajectories and envelopes</text>",
        # Axes box and ticks.
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" fill="none" stroke="#333"/>',
    ]
    for t in np.linspace(x0, x1, 5):
        xp = px(float(t))
        parts.append(f'<line x1="{xp:.2f}" y1="{_H - _MB}" x2="{xp:.2f}" y2="{_H - _MB + 5}" stroke="#333"/>')
        parts.append(
            f'<text x="{xp:.2f}" y="{_H - _MB + 18}" text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{10.0 ** float(t):.3g}</text>"
        )
    for t in np.linspace(y0, y1, 5):
        yp = py(float(t))
        parts.append(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" y2="{yp:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{yp + 4:.2f}" text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{10.0 ** float(t):.3g}</text>"
        )
    parts += [
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">iteration k</text>',
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">min grad norm^2 / envelope</text>',
    ]
    for i, (name, (xs, ys)) in enumerate(cleaned.items()):
        color = _PALETTE[i % len(_PALETTE)]
        qx, qy = _hundredths(px(xs)), _hundredths(py(ys))
        moved = np.ones(len(qx), dtype=bool)
        moved[1:] = (qx[1:] != qx[:-1]) | (qy[1:] != qy[:-1])
        pts = _points_text(qx[moved], qy[moved])
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{_ML + 40}" y="{ly}" font-family="sans-serif" font-size="12">{escape(name, quote=False)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Commands


def _traj_filename(i: int) -> str:
    return f"run_seed{i:03d}.csv"


def _validation(cfg: ExperimentConfig, command: str, problem: problems.ProblemSpec | None = None
                ) -> tuple[list[ConditionReport], str, sf.MomentProfile | None]:
    """The gating reports of ``cfg`` over its ``iterations``, the text `validate` prints, and the moment profile.

    The gates are Assumption 2's four schedule reports and, when the
    config sets ``theorem_case``, that case's gates on ``problem``
    (default: built from ``cfg``) over a moment profile of those
    iterations (None without a case).  The text adds the uniform_root regime line
    after the schedule's reports and the case's informational lines
    last.  Fewer than 2 iterations is a ConfigError that names ``command``.
    """
    horizon, case = cfg.iterations, cfg.theorem_case
    if horizon < 2:
        raise ConfigError(f"{command}: iterations must be >= 2 to give a horizon to check (got {horizon})")
    gating = validator.check_assumption2(cfg.schedule, horizon)
    text = validator.format_reports(gating)
    if cfg.sf.kind == sf.UNIFORM_ROOT:
        res = validator.classify_prop1(cfg.sf.c1, cfg.sf.c2)
        text += f"prop1_regime = {res.label} | mean_direction = {res.mean_direction.value}\n"
    profile = None
    if case is not None:
        profile = sf.moment_profile(cfg.sf, horizon)
        problem = build_problem(cfg) if problem is None else problem
        checks = validator.check_theorem_case(profile, case, problem.B, problem.L, cfg.schedule, horizon)
        gating += checks
        text += validator.format_reports(checks + [validator.acceleration_check(profile, case),
                                                   validator.increment_check(profile, case)])
    return gating, text.rstrip("\n"), profile


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    gating, text, _ = _validation(cfg, "validate")
    print(text)
    return 1 if any(not r.holds for r in gating) else 0


def _run_all(cfg: ExperimentConfig, problem: problems.ProblemSpec, sf_specs: list[sf.SFSpec]) -> list[list[Trajectory]]:
    """Each SF spec's runs on ``problem`` under the config's seeds (:func:`optimizer.run_paired`)."""
    return run_paired(problem, cfg.schedule, sf_specs, cfg.iterations, n_seeds=cfg.n_seeds,
                      master_seed=cfg.master_seed, eval_every=cfg.eval_every)


def _metadata_text(cfg: ExperimentConfig, problem: problems.ProblemSpec, digest: str, seeds: list[int]) -> str:
    lines = [
        "# run metadata",
        f"config_digest = {digest}",
        f"rng_algorithm = {RNG_ALGORITHM}",
        *([f"eval_algorithm = {problem.eval_algorithm}"] if problem.eval_algorithm else []),
        "seeds = " + ",".join(str(s) for s in seeds),
        "",
        format_config(cfg).rstrip("\n"),
    ]
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    (trajs,) = _run_all(cfg, problem, [cfg.sf])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, t in enumerate(trajs):
        write_trajectory_csv(t, out / _traj_filename(i), cfg.schedule)
    (out / "metadata.txt").write_text(_metadata_text(cfg, problem, trajs[0].config_digest, [t.seed for t in trajs]))
    diverged = sum(t.diverged for t in trajs)
    print(f"wrote {len(trajs)} trajectories to {out}" + (f" ({diverged} diverged)" if diverged else ""))
    return 0


def _shared_keys(cfg: ExperimentConfig) -> dict[str, str]:
    """The canonical text of each key the arms of ``compare`` must share: all but sf* and theorem_case."""
    return {key: text for key, text in _config_items(cfg) if key.partition(".")[0] not in ("sf", "theorem_case")}


def _cmd_compare(args) -> int:
    from . import stats  # imported here: only `compare` tests runs

    cfg_a = load_config(args.config_a)
    cfg_b = load_config(args.config_b)
    a, b = _shared_keys(cfg_a), _shared_keys(cfg_b)
    for key in {**a, **b}:
        if a.get(key) != b.get(key):
            raise ConfigError(f"compare: configs must agree on {key} (a: {a.get(key)}, b: {b.get(key)}); "
                              "only the sf block may differ")
    if cfg_a.n_seeds < 2:
        raise ConfigError(f"compare: n_seeds must be >= 2 to give each arm a variance (got {cfg_a.n_seeds})")

    # Both arms step as one batch on one gradient draw per seed; the runner
    # raises if any row, a diverged one too, steps off its seed's draws.
    runs_a, runs_b = _run_all(cfg_a, build_problem(cfg_a), [cfg_a.sf, cfg_b.sf])
    checkpoints = None if cfg_a.checkpoints == "auto" else list(cfg_a.checkpoints)
    report = stats.compare(runs_a, runs_b, metric=args.metric, checkpoints=checkpoints)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out / "report.csv")
    text = "paired gradient streams verified identical per seed\n" + report_text(report)
    (out / "report.txt").write_text(text)
    print(text.rstrip("\n"))
    return 0


def _cmd_envelope(args) -> int:
    cfg = load_config(args.config)
    case = cfg.theorem_case
    if case is None:
        raise ConfigError("envelope: set theorem_case in the config")

    from . import harness  # imported here: only `envelope` builds a case envelope

    problem = build_problem(cfg)
    schedule = cfg.schedule
    gating, text, profile = _validation(cfg, "envelope", problem)
    gates_hold = all(r.holds for r in gating)
    # The case envelope depends only on the eval grid and the schedule, so
    # one serves every seed; a diverged run's rows take its values at the
    # points they reach.  It is built before the runs, so a case whose
    # envelope is undefined stops the command before any step is taken.
    env = harness.envelope_series(case, profile, schedule,
                                  np.arange(cfg.eval_every, cfg.iterations + 1, cfg.eval_every))
    (trajs,) = _run_all(cfg, problem, [cfg.sf])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(trajs[0], out / "trajectory.csv", schedule, case_env=env)

    k_lo = max(cfg.eval_every, cfg.iterations // 100)

    def outcome(t: Trajectory) -> tuple[str, LittleODiagnostic | None, str]:
        """A seed's verdict label, its little-o diagnostic (None without one) and its ``diagnostic =`` line."""
        if t.diverged:
            return "diverged", None, f"diagnostic = unavailable (run diverged at k={t.truncated_at})"
        if k_lo >= cfg.iterations:
            return "unavailable", None, (f"diagnostic = unavailable (window k in [{k_lo}, {cfg.iterations}] "
                                         "is empty: needs eval_every < iterations)")
        d = harness.little_o_diagnostic(t.min_grad_sq[t.eval_points >= 1], env, k_lo, cfg.iterations)
        return d.verdict.value, d, (f"diagnostic = {d.verdict.value} | window k in [{d.k_lo}, {d.k_hi}] | "
                                    f"slope = {d.window_slope:.4g} | r_lo = {d.r_lo:.6g} | r_hi = {d.r_hi:.6g}")

    labels, diags, diag_lines = zip(*map(outcome, trajs))
    certified = [gates_hold and t.certified for t in trajs]
    lines = [f"case = {case.value}", f"certified = {'yes' if certified[0] else 'no'}", "", text, diag_lines[0]]
    if len(trajs) > 1:
        counts = [f"{name} = {labels.count(name)}" for name in [v.value for v in harness.Verdict] + ["diverged"]]
        counts.append(f"uncertified = {certified.count(False)}")
        lines.append(f"tally over {len(trajs)} seeds: " + " | ".join(counts))
        # One row per seed: its label, the diagnostic's slope and ratios (nan without one), where it diverged.
        rows = [SEEDS_HEADER]
        for t, label, d in zip(trajs, labels, diags):
            values = (math.nan,) * 3 if d is None else (d.window_slope, d.r_lo, d.r_hi)
            rows.append(",".join([str(t.seed), label, *map(_f17, values),
                                  "" if t.truncated_at is None else str(t.truncated_at)]))
        (out / "seeds.csv").write_text("\n".join(rows) + "\n")
    (out / "diagnostic.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# The series `plot` draws from the first trajectory's envelope columns.
_REFERENCE_SERIES = ("envelope_det", "envelope_case")


def _cmd_plot(args) -> int:
    in_dir = Path(args.input)
    files = sorted(in_dir.glob("*.csv"))
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    first = True
    for f in files:
        try:
            cols = read_trajectory_csv(f)
        except NotTrajectoryCSVError:
            continue  # not a trajectory file (e.g. report.csv)
        if f.stem in _REFERENCE_SERIES:
            raise ConfigError(f"plot: {f}: a trajectory file may not be named after the reference series {f.stem!r}")
        series[f.stem] = (cols["k"].astype(float), cols["min_grad_sq"])
        if first:
            series["envelope_det"] = (cols["k"].astype(float), cols["envelope_det"])
            if np.isfinite(cols["envelope_case"]).any():
                series["envelope_case"] = (cols["k"].astype(float), cols["envelope_case"])
            first = False
    if not series:
        raise ConfigError(f"plot: no trajectory CSVs found in {in_dir}")
    render_svg(series, args.out)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slrlab",
        description="SGD with a multiplicative stochastic learning rate: runs, validation, envelopes, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check schedule and theorem-case conditions for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run the configured experiment and write trajectory CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="paired multi-seed comparison of two configs")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metric", default="loss", choices=list(METRICS))
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("envelope", help="run n_seeds paths and compare each against a theorem-case envelope")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("plot", help="render trajectory CSVs from a directory to SVG")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> NoReturn:
    """Run `main` and end the process with its exit code.

    After flushing stdout and stderr, the process ends with `os._exit`,
    skipping the interpreter's teardown (module clean-up and full garbage
    collections over objects the OS reclaims anyway, ~30 ms per command).
    Nothing is lost: every command writes and closes its files before
    `main` returns, and slrlab registers no `atexit` work.  If a flush
    fails (a closed pipe), the process exits the normal way.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    entry()
