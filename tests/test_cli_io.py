import builtins
import io
import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrlab import cli_io, harness, optimizer, problems, sf, stats
from slrlab.cli_io import ConfigError
from slrlab.optimizer import StepSizeSchedule
from slrlab.validator import TheoremCase

GOOD_CONFIG = """\
problem = quadratic
problem.dim = 5
problem.cond = 10.0
problem.sigma = 0.1
schedule = inverse_k
schedule.eta = 0.1
sf = uniform_root
sf.c1 = 0.3
sf.c2 = 0.8
iterations = 100
eval_every = 10
n_seeds = 3
master_seed = 7
theorem_case = case12
"""


def test_parse_good_config():
    cfg = cli_io.parse_config(GOOD_CONFIG)
    assert cfg.problem_family == "quadratic"
    assert dict(cfg.problem_params)["dim"] == 5
    assert dict(cfg.problem_params)["sigma"] == 0.1
    assert cfg.schedule.family == "inverse_k" and cfg.schedule.eta == 0.1
    assert cfg.sf.kind == "uniform_root"
    assert cfg.sf.c1 == 0.3 and cfg.sf.c2 == 0.8
    assert cfg.iterations == 100 and cfg.eval_every == 10
    assert cfg.n_seeds == 3 and cfg.master_seed == 7
    assert cfg.theorem_case is TheoremCase.CASE_12
    assert cfg.checkpoints == "auto"


def test_defaults():
    text = """\
problem = quadratic
problem.dim = 2
problem.cond = 10.0
schedule = constant
schedule.eta = 0.01
sf = constant
sf.value = 1.0
iterations = 100
master_seed = 0
"""
    cfg = cli_io.parse_config(text)
    assert cfg.eval_every == 10
    assert cfg.n_seeds == 40
    assert cfg.checkpoints == "auto"
    assert cfg.theorem_case is None
    assert dict(cfg.problem_params)["sigma"] == 0.0  # omitted optional problem field


def test_comments_and_blank_lines_ignored():
    cfg = cli_io.parse_config("# header\n\n" + GOOD_CONFIG + "\n# trailer\n")
    assert cfg.problem_family == "quadratic"


def test_format_parse_round_trip():
    cfg = cli_io.parse_config(GOOD_CONFIG)
    text = cli_io.format_config(cfg)
    again = cli_io.parse_config(text)
    assert again == cfg
    assert cli_io.format_config(again) == text


def test_parse_errors_name_key_and_line():
    bad = GOOD_CONFIG.replace("sf.c2 = 0.8", "sf.c2 = 0.2")
    with pytest.raises(ConfigError, match="sf.c2"):
        cli_io.parse_config(bad)
    with pytest.raises(ConfigError, match="line 3"):
        cli_io.parse_config(GOOD_CONFIG.replace("problem.cond = 10.0", "problem.cond = fast"))
    with pytest.raises(ConfigError, match="unknown key"):
        cli_io.parse_config(GOOD_CONFIG + "momentum = 0.9\n")
    with pytest.raises(ConfigError, match="duplicate"):
        cli_io.parse_config(GOOD_CONFIG + "schedule.eta = 0.2\n")
    with pytest.raises(ConfigError, match="schedule.eta"):
        cli_io.parse_config(GOOD_CONFIG.replace("schedule.eta = 0.1\n", ""))
    with pytest.raises(ConfigError, match="multiple"):
        cli_io.parse_config(GOOD_CONFIG.replace("iterations = 100", "iterations = 105"))
    with pytest.raises(ConfigError, match="theorem_case"):
        cli_io.parse_config(GOOD_CONFIG.replace("theorem_case = case12",
                                                "theorem_case = case99"))
    with pytest.raises(ConfigError, match="key = value"):
        cli_io.parse_config("problem quadratic\n")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value', got 'problem ='"):
        cli_io.parse_config("problem =\n")
    with pytest.raises(ConfigError, match="problem.dim"):
        cli_io.parse_config(GOOD_CONFIG.replace("problem.dim = 5\n", ""))


def test_checkpoint_validation():
    cfg = cli_io.parse_config(GOOD_CONFIG + "checkpoints = 10, 50, 100\n")
    assert cfg.checkpoints == (10, 50, 100)
    with pytest.raises(ConfigError, match="checkpoints"):
        cli_io.parse_config(GOOD_CONFIG + "checkpoints = 10, 55\n")
    with pytest.raises(ConfigError, match="checkpoints"):
        cli_io.parse_config(GOOD_CONFIG + "checkpoints = 10, 200\n")
    with pytest.raises(ConfigError, match="checkpoints: expected 'auto' or comma-separated integers"):
        cli_io.parse_config(GOOD_CONFIG + "checkpoints = 10, fifty\n")
    cfg = cli_io.parse_config(GOOD_CONFIG + "checkpoints = auto\n")
    assert cfg.checkpoints == "auto"


def test_cli_compare_rejects_a_repeated_checkpoint(tmp_path, capsys):
    # A repeated k was written twice and counted twice in the Bonferroni
    # divisor, which is the number of distinct tests.
    with pytest.raises(ConfigError, match=r"line 15: checkpoints: checkpoints must be distinct, got 100 twice"):
        cli_io.parse_config(GOOD_CONFIG + "checkpoints = 100,100,50\n")
    base = GOOD_CONFIG + "checkpoints = 100,100,50\n"
    pa = _write_cfg(tmp_path, base, "a.txt")
    pb_ = _write_cfg(tmp_path, base.replace("sf.c2 = 0.8", "sf.c2 = 0.9"), "b.txt")
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(tmp_path / "cmp")]) == 1
    err = capsys.readouterr().err
    assert "checkpoints" in err and "line 15" in err
    assert not (tmp_path / "cmp").exists()


def test_builders():
    cfg = cli_io.parse_config(GOOD_CONFIG)
    pb = cli_io.build_problem(cfg)
    assert pb.family == "quadratic" and pb.dim == 5
    sched = cli_io.build_schedule(cfg)
    assert sched == StepSizeSchedule("inverse_k", 0.1)


@pytest.mark.parametrize("lines, want", [
    ("sf = constant\nsf.value = 2\n", sf.constant(2.0)),
    ("sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 1\n", sf.uniform_root(0.3, 1.0)),
], ids=["constant", "uniform_root"])
def test_build_sf_equals_the_kind_constructor(lines, want):
    # build_sf passes the parsed sf.* values to SFSpec by name; they are
    # floats, as the constructors make them, even when written as integers.
    text = GOOD_CONFIG.replace("sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 0.8\n", lines)
    spec = cli_io.build_sf(cli_io.parse_config(text))
    assert spec == want and repr(spec) == repr(want)


def test_load_config_env_seed_override(tmp_path, monkeypatch):
    p = tmp_path / "cfg.txt"
    p.write_text(GOOD_CONFIG)
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    cfg = cli_io.load_config(p)
    assert cfg.master_seed == 7
    monkeypatch.setenv("SLRLAB_SEED", "123")
    cfg2 = cli_io.load_config(p)
    assert cfg2.master_seed == 123
    assert cfg2 == cli_io.ExperimentConfig(**{**cfg.__dict__, "master_seed": 123})
    monkeypatch.setenv("SLRLAB_SEED", "not-a-seed")
    with pytest.raises(ConfigError, match="SLRLAB_SEED"):
        cli_io.load_config(p)


def _small_traj():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    spec = sf.uniform_root(0.3, 0.8)
    traj = optimizer.run(pb, sched, spec, iterations=50, eval_every=10, seed=3)
    env = harness.trajectory_envelope(traj, TheoremCase.CASE_12, spec, sched)
    return traj, env, sched


def test_trajectory_csv_schema_and_determinism(tmp_path):
    traj, env, sched = _small_traj()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli_io.write_trajectory_csv(traj, p1, sched, case_env=env)
    cli_io.write_trajectory_csv(traj, p2, sched, case_env=env)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == ("k,loss,grad_norm_sq,min_grad_sq,g_k,eta_k,u_k,"
                        "sum_eta,envelope_det,envelope_case")
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[8] == "inf"
    assert first[9] == "nan"
    last = lines[-1].split(",")
    assert last[6] == "nan"  # no factor drawn past the final step
    assert len(lines) == 1 + len(traj.eval_points)


def test_trajectory_csv_round_trip(tmp_path):
    traj, env, sched = _small_traj()
    p = tmp_path / "t.csv"
    cli_io.write_trajectory_csv(traj, p, sched, case_env=env)
    cols = cli_io.read_trajectory_csv(p)
    np.testing.assert_array_equal(cols["k"], traj.eval_points)
    np.testing.assert_array_equal(cols["loss"], traj.loss)
    np.testing.assert_array_equal(cols["min_grad_sq"], traj.min_grad_sq)
    np.testing.assert_array_equal(cols["g_k"], harness.attach_gk(traj, sched))
    np.testing.assert_array_equal(cols["envelope_case"][1:], env.values)
    assert np.isinf(cols["envelope_det"][0]) and np.isnan(cols["envelope_case"][0])


def test_trajectory_csv_without_envelope(tmp_path):
    traj, _, sched = _small_traj()
    p = tmp_path / "t.csv"
    cli_io.write_trajectory_csv(traj, p, sched)
    cols = cli_io.read_trajectory_csv(p)
    assert np.isnan(cols["envelope_case"]).all()
    assert np.isfinite(cols["envelope_det"][1:]).all()


def test_read_trajectory_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("k,loss\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        cli_io.read_trajectory_csv(p)


# Values whose text or bits are easy to get wrong: signed zeros, the
# smallest normal and subnormal doubles, the extremes, inf and nan, the
# points where %g switches notation (1e-5, 1e-4) and decade bounds.
EDGE_VALUES = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308,
               np.inf, -np.inf, np.nan, 1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-17,
               1e-5, 1e-4, 1e16, 1e17, 9.9999999999999984e16]


def _edge_columns(n, seed=0, limit=np.inf):
    rng = np.random.default_rng(seed)
    pool = np.array(EDGE_VALUES + list(rng.standard_normal(6) * 10.0 ** rng.integers(-20, 20, 6)))
    pool = pool[~(np.abs(pool) > limit)]
    return lambda: pool[rng.integers(len(pool), size=n)]


# Subnormal step sizes: the early step sums are subnormal too, so their
# reciprocals overflow to inf, while the later ones are normal.
EDGE_SCHEDULE = StepSizeSchedule("inverse_sqrt_k", 1e-309)


def _edge_traj(n, monkeypatch):
    """A trajectory of edge values, its case envelope, and its g_k column (patched into ``attach_gk``)."""
    col = _edge_columns(n)
    ks = np.arange(n) * 3
    traj = SimpleNamespace(eval_points=ks, loss=col(), grad_norm_sq=col(), min_grad_sq=col(), u_eval=col(),
                           iterations=3 * n)
    g_k = col()
    monkeypatch.setattr(harness, "attach_gk", lambda t, schedule: g_k)
    # The envelope covers the eval grid after k = 0, as `envelope` builds it.
    env = SimpleNamespace(ks=ks[1:], values=_edge_columns(max(n - 1, 0), seed=1)())
    return traj, env, g_k


def _reference_trajectory_csv(traj, case_env, g_k):
    """The writer one value at a time: step sums added step by step, one f-string per value."""
    def f17(x):
        return f"{float(x):.17g}"
    ks = traj.eval_points
    eta = [optimizer.step_size(EDGE_SCHEDULE, t) for t in range(traj.iterations + 1)]
    sum_eta = [0.0]
    for e in eta[:-1]:
        sum_eta.append(sum_eta[-1] + e)
    sum_eta = np.array(sum_eta)[ks]
    # A subnormal step sum's reciprocal overflows to inf (Python floats do not warn).
    env_det = np.array([1.0 / s if s > 0 else np.inf for s in sum_eta.tolist()])
    case_vals = np.full(len(ks), np.nan)
    lookup = {int(k): float(v) for k, v in zip(case_env.ks, case_env.values)}
    for i, k in enumerate(ks):
        if int(k) in lookup:
            case_vals[i] = lookup[int(k)]
    lines = [cli_io.TRAJECTORY_HEADER]
    for i, k in enumerate(ks):
        lines.append(",".join([str(int(k))] + [f17(c[i]) for c in (
            traj.loss, traj.grad_norm_sq, traj.min_grad_sq, g_k, np.array(eta)[ks],
            traj.u_eval, sum_eta, env_det, case_vals)]))
    return "\n".join(lines) + "\n"


def _reference_read(path):
    """The reader before the one-call parse: float() per field."""
    lines = Path(path).read_text().splitlines()
    names = lines[0].split(",")
    rows = [[float(p) for p in line.split(",")] for line in lines[1:]]
    return {n: np.array([r[i] for r in rows]) for i, n in enumerate(names)}


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 22])
def test_trajectory_csv_io_matches_per_value_code(n, tmp_path, monkeypatch):
    # Chunks of 7 rows: row counts below, at and off a multiple of the chunk.
    monkeypatch.setattr(cli_io, "_FORMAT_CHUNK", 7)
    traj, env, g_k = _edge_traj(n, monkeypatch)
    p = tmp_path / "t.csv"
    cli_io.write_trajectory_csv(traj, p, EDGE_SCHEDULE, case_env=env)
    assert p.read_text() == _reference_trajectory_csv(traj, env, g_k)
    got, want = cli_io.read_trajectory_csv(p), _reference_read(p)
    assert list(got) == list(want)
    assert got["k"].dtype == int and got["k"].tolist() == want["k"].astype(int).tolist()
    for name in list(want)[1:]:
        assert got[name].dtype == np.float64 and got[name].tobytes() == want[name].tobytes(), name


def test_trajectory_csv_io_at_the_default_chunk(tmp_path, monkeypatch):
    traj, env, g_k = _edge_traj(cli_io._FORMAT_CHUNK + 5, monkeypatch)
    p = tmp_path / "t.csv"
    cli_io.write_trajectory_csv(traj, p, EDGE_SCHEDULE, case_env=env)
    text = p.read_text()
    assert text == _reference_trajectory_csv(traj, env, g_k)
    det = cli_io.read_trajectory_csv(p)["envelope_det"]
    assert np.isinf(det[1]) and np.isfinite(det[-1])  # the edge schedule's step sums cross into normal
    got, want = cli_io.read_trajectory_csv(p), _reference_read(p)
    for name in list(want)[1:]:
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("env_ks", [
    lambda ks: np.concatenate([ks[1::2], [10**9]]),  # every other k, then one off the grid
    lambda ks: ks[2:],  # starts a point late
    lambda ks: ks[1:-1],  # ends before the run does
    lambda ks: ks[1:] + 1,  # each k one past its grid point
], ids=["sparse", "late", "short", "shifted"])
def test_trajectory_csv_refuses_a_case_envelope_off_the_eval_grid(env_ks, tmp_path, monkeypatch):
    traj, _, _ = _edge_traj(8, monkeypatch)
    ks = env_ks(traj.eval_points)
    env = SimpleNamespace(ks=ks, values=np.ones(len(ks)))
    with pytest.raises(ValueError, match="does not cover the trajectory's eval grid"):
        cli_io.write_trajectory_csv(traj, tmp_path / "t.csv", EDGE_SCHEDULE, case_env=env)


def test_trajectory_csv_of_a_truncated_run_takes_a_prefix_of_the_grid_envelope(tmp_path):
    # Seed 1 of four diverges at k = 8 and records k = 0, 2, ..., 8; the
    # envelope covers the whole grid, as `envelope` passes it for every seed.
    cfg = cli_io.parse_config(DIVERGING_ARM.format(eta=3, sf="sf = uniform_root\nsf.c1 = 0.01\nsf.c2 = 2.0")
                              .replace("eval_every = 10", "eval_every = 2"))
    ((full, traj, *_),) = cli_io._run_all(cfg, cli_io.build_problem(cfg), [cfg.sf])
    assert traj.truncated_at == 8 and traj.eval_points.tolist() == [0, 2, 4, 6, 8]
    env = harness.envelope_series(TheoremCase.CASE_12, cfg.sf, cfg.schedule,
                                  np.arange(cfg.eval_every, cfg.iterations + 1, cfg.eval_every))
    for t in (traj, full):
        cli_io.write_trajectory_csv(t, tmp_path / "t.csv", cfg.schedule, case_env=env)
        case = cli_io.read_trajectory_csv(tmp_path / "t.csv")["envelope_case"]
        assert np.isnan(case[0]) and case[1:].tobytes() == env.values[:len(t.eval_points) - 1].tobytes()
    assert len(full.eval_points) == len(env.ks) + 1


@pytest.mark.parametrize("k", ["nan", "1e30", "1.5", "-3"])
def test_read_trajectory_csv_rejects_a_k_that_is_not_an_iteration_index(k, tmp_path, capsys):
    row = k + ",1,1,1,1,1,1,1,1,1"
    (tmp_path / "t.csv").write_text("\n".join([cli_io.TRAJECTORY_HEADER, "0,1,1,1,1,1,1,1,inf,nan", row]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"t.csv: line 3: k is not an integer in [0, 2**63) in row {row!r}")):
        cli_io.read_trajectory_csv(tmp_path / "t.csv")
    capsys.readouterr()
    assert cli_io.main(["plot", "--in", str(tmp_path), "--out", str(tmp_path / "fig.svg")]) == 1
    assert "t.csv: line 3" in capsys.readouterr().err
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("row", ["1,2", "0,1,1,1,1,1,1,1,1,1,1", "0,1,1,1,x,1,1,1,1,1", "", "0,1,1,1,1,1,1,1,1,"])
def test_read_trajectory_csv_names_the_file_and_the_bad_row(row, tmp_path):
    good = "0,1,1,1,1,1,1,1,inf,nan"
    p = tmp_path / "t.csv"
    p.write_text("\n".join([cli_io.TRAJECTORY_HEADER, good, row, good]) + "\n")
    with pytest.raises(ValueError, match=f"t.csv: line 3: malformed row {row!r}"):
        cli_io.read_trajectory_csv(p)


def test_read_trajectory_csv_names_a_row_with_a_byte_that_is_not_utf8(tmp_path):
    good = b"0,1,1,1,1,1,1,1,inf,nan"
    p = tmp_path / "t.csv"
    p.write_bytes(b"\n".join([cli_io.TRAJECTORY_HEADER.encode(), good, b"1,1,1,1,1,1,1,1,1,\xff", good]) + b"\n")
    with pytest.raises(ValueError, match=re.escape(f"t.csv: line 3: malformed row '1,1,1,1,1,1,1,1,1,\ufffd'")):
        cli_io.read_trajectory_csv(p)


def test_read_trajectory_csv_with_no_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(cli_io.TRAJECTORY_HEADER + "\n")
    cols = cli_io.read_trajectory_csv(p)
    assert all(len(v) == 0 for v in cols.values()) and cols["k"].dtype == int


def test_read_trajectory_csv_names_a_blank_row_of_a_body_with_no_numbers(tmp_path):
    # loadtxt warns on a file with no row, and skips a blank line.
    p = tmp_path / "t.csv"
    p.write_text(cli_io.TRAJECTORY_HEADER + "\n\n  \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t.csv: line 2: malformed row ''"):
            cli_io.read_trajectory_csv(p)


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\f", "\x1e", "\u2028"])
def test_read_trajectory_csv_splits_lines_as_splitlines_does(newline, tmp_path):
    # Each line break that str.splitlines knows ends a row, whether or
    # not loadtxt would read the file.
    rows = ["0,1,1,1,1,1,1,1,inf,nan", "3,0.5,2,1,1,1,0.25,1,1,nan"]
    p = tmp_path / "t.csv"
    p.write_bytes(newline.join([cli_io.TRAJECTORY_HEADER, *rows, ""]).encode())
    got, want = cli_io.read_trajectory_csv(p), _reference_read(p)
    assert got["k"].tolist() == [0, 3]
    for name in list(want)[1:]:
        assert got[name].tobytes() == want[name].tobytes(), name
    p.write_bytes(newline.join([cli_io.TRAJECTORY_HEADER, rows[0], rows[1].replace(",0.25,", newline)]).encode())
    with pytest.raises(ValueError, match="t.csv: line 3: malformed row '3,0.5,2,1,1,1'"):
        cli_io.read_trajectory_csv(p)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_read_trajectory_csv_reads_a_plain_file_named_like_an_archive(suffix, tmp_path):
    # np.loadtxt given such a path would open it as an archive; the file is
    # read as text whatever its name.
    p = tmp_path / f"t.csv{suffix}"
    p.write_text(cli_io.TRAJECTORY_HEADER + "\n0,1,1,1,1,1,1,1,inf,nan\n")
    assert cli_io.read_trajectory_csv(p)["k"].tolist() == [0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_read_trajectory_csv_reads_a_fifo(tmp_path, monkeypatch):
    # A pipe can be read once: a second open would wait for a writer that has
    # gone, so the read runs in a child that the timeout kills.
    p = tmp_path / "t.csv"
    os.mkfifo(p)
    child = f"""
import threading
from slrlab import cli_io

def write():
    with open({str(p)!r}, "w") as f:
        f.write(cli_io.TRAJECTORY_HEADER + "\\n0,1,1,1,1,1,1,1,inf,nan\\n3,0.5,2,1,1,1,0.25,1,1,nan\\n")

threading.Thread(target=write, daemon=True).start()
cols = cli_io.read_trajectory_csv({str(p)!r})
print(cols["k"].tolist(), cols["u_k"].tolist())
"""
    src = str(Path(cli_io.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 3] [1.0, 0.25]\n"


def _small_report():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    a, b = optimizer.run_paired(pb, sched, [sf.uniform_root(0.3, 0.8), sf.constant(1.0)], 100,
                                n_seeds=3, master_seed=5, eval_every=10)
    return stats.compare(a, b, metric="min_grad_sq", checkpoints=[50, 100])


def test_report_round_trip_lossless(tmp_path):
    rep = _small_report()
    p = tmp_path / "report.csv"
    cli_io.write_report(rep, p)
    back = cli_io.read_report(p)
    assert back == rep
    cli_io.write_report(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()


def test_read_report_reads_a_file_with_a_byte_order_mark_as_the_plain_file(tmp_path):
    plain, marked = tmp_path / "report.csv", tmp_path / "bom.csv"
    cli_io.write_report(_small_report(), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert cli_io.read_report(marked) == cli_io.read_report(plain)


def test_read_report_names_the_file_and_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # It once raised a bare UnicodeDecodeError, naming neither.
    golden = (Path(__file__).parent / "data" / "golden" / "compare" / "report.csv").read_bytes()
    assert golden.count(b"# metric") == 1
    p = tmp_path / "report.csv"
    p.write_bytes(golden.replace(b"# metric", b"# \xffetric"))
    line = golden[:golden.index(b"# metric")].count(b"\n") + 1
    with pytest.raises(ValueError, match=re.escape(f"{p}: line {line}: byte 0xff is not UTF-8 (invalid start byte)")):
        cli_io.read_report(p)


# Each metadata key read_report reads back.
REPORT_KEYS = ("metric", "n_a", "n_b", "excluded_a", "excluded_b", "config_digest_a", "config_digest_b")


@pytest.mark.parametrize("edit, error", [
    (lambda lines: lines[:-1] + [lines[-1].rsplit(",", 2)[0]], "line 14: malformed row '100,"),
    (lambda lines: lines + [""], "line 15: malformed row ''"),
    (lambda lines: lines[:-1] + [re.sub(",(true|false),", ",no,", lines[-1])], "line 14: malformed row '100,"),
    *[(lambda lines, key=key: [line for line in lines if not line.startswith(f"# {key} = ")],
       f"metadata key {key!r} is missing") for key in REPORT_KEYS],
    (lambda lines: [line.replace("# n_a = 3", "# n_a = three") for line in lines], "metadata key 'n_a' is"),
    (lambda lines: [line for line in lines if line != cli_io.REPORT_HEADER], "not a comparison report CSV"),
    (lambda lines: [line.replace("# n_a = 3", "# n_a = -5") for line in lines], "metadata key 'n_a' is"),
], ids=["row-missing-two-fields", "trailing-blank-line", "significance-not-a-flag",
        *[f"missing-{key}" for key in REPORT_KEYS], "n_a-not-an-integer", "no-header", "n_a-negative"])
def test_read_report_names_the_file_and_the_bad_line_or_key(tmp_path, edit, error):
    p = tmp_path / "report.csv"
    cli_io.write_report(_small_report(), p)
    lines = p.read_text().splitlines()
    assert len(lines) == 14 and lines[-1].startswith("100,") and "# n_a = 3" in lines
    p.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: {error}")):
        cli_io.read_report(p)


def test_report_text_mentions_direction_and_counts():
    rep = _small_report()
    text = cli_io.report_text(rep)
    assert "min_grad_sq" in text
    assert "bonferroni" in text
    assert "direction (not a gate)" in text
    assert f"n={rep.n_a}" in text


def test_render_svg_one_polyline_per_series(tmp_path):
    p = tmp_path / "plot.svg"
    xs = np.array([1.0, 10.0])
    cli_io.render_svg({"alpha": (xs, np.array([1.0, 2.0])),
                       "beta": (xs, np.array([3.0, 4.0]))},
                      p)
    body = p.read_text()
    assert body.count("<polyline") == 2
    assert body.count("</svg>") == 1
    assert "alpha" in body and "beta" in body
    cli_io.render_svg({"alpha": (xs, np.array([1.0, 2.0])),
                       "beta": (xs, np.array([3.0, 4.0]))},
                      tmp_path / "again.svg")
    assert (tmp_path / "again.svg").read_bytes() == p.read_bytes()


def test_render_svg_drops_nonpositive_on_log_axes(tmp_path):
    p = tmp_path / "plot.svg"
    xs = np.array([0.0, 1.0, 10.0])
    cli_io.render_svg({"a": (xs, np.array([0.5, 1.0, 2.0]))}, p)
    assert p.read_text().count("<polyline") == 1
    with pytest.raises(ValueError):
        cli_io.render_svg({}, tmp_path / "empty.svg")
    with pytest.raises(ValueError):
        cli_io.render_svg({"a": (np.array([-1.0]), np.array([-1.0]))},
                          tmp_path / "neg.svg")
    with pytest.raises(ValueError, match="series 'a': x and y lengths differ"):
        cli_io.render_svg({"a": (xs, np.array([1.0, 2.0]))}, tmp_path / "ragged.svg")


def _reference_points(xs, ys, bounds):
    """Polyline points before the array form: scalar pixel maps, one f-string per point, and a point
    whose text repeats the one before it dropped."""
    x0, x1, y0, y1 = bounds

    def px(v):
        return cli_io._ML + (v - x0) / (x1 - x0) * (cli_io._W - cli_io._ML - cli_io._MR)

    def py(v):
        return cli_io._H - cli_io._MB - (v - y0) / (y1 - y0) * (cli_io._H - cli_io._MT - cli_io._MB)

    points = [f"{px(v):.2f},{py(w):.2f}" for v, w in zip(xs, ys)]
    return " ".join(p for i, p in enumerate(points) if i == 0 or p != points[i - 1])


def _polylines(path):
    return re.findall(r'<polyline [^>]* points="([^"]*)"/>', Path(path).read_text())


@pytest.mark.parametrize("n", [1, 6, 7, 8, 22])
def test_render_svg_points_match_per_point_code(n, tmp_path):
    # Two finite points pin the ranges; the rest are edge values over the
    # whole double range, of which render_svg keeps the finite positive ones.
    col = _edge_columns(n + 2, seed=n)
    series = {}
    for name in ("a", "b"):
        xs, ys = col(), col()
        xs[:2], ys[:2] = [1e-3, 1e3], [1e-6, 1e6]
        series[name] = (xs, ys)
    p = tmp_path / "plot.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli_io.render_svg(series, p)
    kept = {}
    for name, (xs, ys) in series.items():
        keep = np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)
        kept[name] = [np.log10(v[keep]) for v in (xs, ys)]
    all_x = np.concatenate([v[0] for v in kept.values()])
    all_y = np.concatenate([v[1] for v in kept.values()])
    bounds = (float(all_x.min()), float(all_x.max()), float(all_y.min()), float(all_y.max()))
    got = _polylines(p)
    assert got == [_reference_points(xs, ys, bounds) for xs, ys in kept.values()]
    coords = np.array([float(c) for pts in got for c in re.split("[ ,]", pts)]).reshape(-1, 2)
    assert ((coords[:, 0] >= cli_io._ML) & (coords[:, 0] <= cli_io._W - cli_io._MR)).all()
    assert ((coords[:, 1] >= cli_io._MT) & (coords[:, 1] <= cli_io._H - cli_io._MB)).all()


def test_render_svg_drops_a_repeated_vertex_as_the_text_rule_does(tmp_path):
    # A 50,000-step path recorded at every step: on log-x axes its late
    # steps share pixel columns, and many repeat the vertex before them.
    pb = problems.make_quadratic(dim=10, cond=10.0, sigma=0.1)
    sched = StepSizeSchedule("inverse_k", 0.1)
    traj = optimizer.run(pb, sched, sf.uniform_root(0.3, 0.8), iterations=50_000, eval_every=1, seed=0)
    ks = traj.eval_points[1:].astype(float)  # k = 0 has no place on log axes
    series = {"run": (ks, traj.min_grad_sq[1:]), "envelope_det": (ks, 1.0 / optimizer.step_sums(sched, 50_000)[1:])}
    p = tmp_path / "plot.svg"
    cli_io.render_svg(series, p)
    kept = [np.log10(v) for xs, ys in series.values() for v in (xs, ys)]
    bounds = (min(kept[0].min(), kept[2].min()), max(kept[0].max(), kept[2].max()),
              min(kept[1].min(), kept[3].min()), max(kept[1].max(), kept[3].max()))
    got = _polylines(p)
    assert got == [_reference_points(kept[0], kept[1], bounds), _reference_points(kept[2], kept[3], bounds)]
    # Vertices were dropped, and some kept ones share their x text with the
    # one before: the rule compares both coordinates.
    for pts in got:
        xs = [v.split(",")[0] for v in pts.split(" ")]
        assert len(xs) < 50_000
        assert any(a == b for a, b in zip(xs, xs[1:]))


# A pixel coordinate of the plot: any in [0, 1000), or a %.2f tie m + j/8
# (a multiple of 1/200 that is a double), or a double next to one.
_TIE_INDEX = st.integers(1, 7999)
_PIXELS = st.one_of(
    st.floats(0.0, 1000.0, exclude_max=True),
    _TIE_INDEX.map(lambda i: i / 8),
    st.tuples(_TIE_INDEX, st.sampled_from([-np.inf, np.inf])).map(lambda t: float(np.nextafter(t[0] / 8, t[1]))),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(_PIXELS, _PIXELS), min_size=1, max_size=64))
def test_hundredths_text_is_the_percent_2f_text(points):
    xs, ys = (np.array(v) for v in zip(*points))
    got = cli_io._points_text(cli_io._hundredths(xs), cli_io._hundredths(ys))
    assert got == " ".join("%.2f,%.2f" % p for p in points)


def test_hundredths_text_at_every_tie_below_1000_and_its_neighbours():
    ties = np.arange(8000) / 8
    v = np.concatenate([ties, np.nextafter(ties[1:], -np.inf), np.nextafter(ties, np.inf)])
    got = cli_io._points_text(cli_io._hundredths(v), cli_io._hundredths(v[::-1]))
    assert got == " ".join("%.2f,%.2f" % p for p in zip(v.tolist(), v[::-1].tolist()))


def test_render_svg_escapes_text(tmp_path):
    p = tmp_path / "plot.svg"
    xs = np.array([1.0, 2.0])
    cli_io.render_svg({"a&b": (xs, xs), "<c>": (xs, xs + 1)}, p)
    root = ET.parse(p).getroot()
    texts = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
    assert {"a&b", "<c>", "trajectories and envelopes", "iteration k", "min grad norm^2 / envelope"} <= texts


def _write_cfg(tmp_path, text=GOOD_CONFIG, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_validate_exit_codes(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    assert cli_io.main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "prop1_regime = b" in out
    # a constant schedule cannot meet the divergent-sum conditions
    bad = GOOD_CONFIG.replace("schedule = inverse_k", "schedule = constant")
    assert cli_io.main(["validate", "--config", _write_cfg(tmp_path, bad, "bad.txt")]) == 1
    assert cli_io.main(["validate", "--config", str(tmp_path / "missing.txt")]) == 2
    broken = GOOD_CONFIG.replace("sf.c2 = 0.8", "sf.c2 = 0.1")
    assert cli_io.main(["validate", "--config", _write_cfg(tmp_path, broken, "broken.txt")]) == 1


@pytest.mark.parametrize("command", ["validate", "compare"])
def test_cli_names_the_config_and_line_of_an_undecodable_byte(tmp_path, capsys, command):
    bad = tmp_path / "b.txt"
    bad.write_bytes(GOOD_CONFIG.replace("problem.cond = 10.0", "problem.cond = 10.0  # \xff").encode("latin-1"))
    configs = ["--config", str(bad)]
    if command == "compare":
        configs = ["--config-a", _write_cfg(tmp_path), "--config-b", str(bad), "--out", str(tmp_path / "out")]
    assert cli_io.main([command, *configs]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_cli_reads_a_config_with_a_byte_order_mark_as_the_plain_file(tmp_path, capsys):
    # Read with its mark, line 1 once held the key '\ufeffproblem', and
    # the config failed for a missing 'problem'.
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + GOOD_CONFIG.encode())
    outcomes = []
    for path in (_write_cfg(tmp_path), str(bom)):
        outcomes.append((cli_io.main(["validate", "--config", path]), *capsys.readouterr()))
    assert outcomes[1] == outcomes[0] and outcomes[0][0] == 0 and outcomes[0][2] == ""
    # After the mark, an undecodable byte still names its line.
    bom.write_bytes(b"\xef\xbb\xbf" + GOOD_CONFIG.replace("problem.cond = 10.0", "problem.cond = 10.0  # \xff")
                    .encode("latin-1"))
    assert cli_io.main(["validate", "--config", str(bom)]) == 1
    assert capsys.readouterr().err == f"error: {bom}: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_cli_refuses_a_seed_for_the_quadratic(tmp_path, capsys, command):
    # A quadratic's build draws nothing: problem.seed is not one of its keys.
    bad = _write_cfg(tmp_path, GOOD_CONFIG.replace("problem.sigma = 0.1\n", "problem.sigma = 0.1\nproblem.seed = 0\n"),
                     "b.txt")
    out = tmp_path / "out"
    argv = {"validate": ["validate", "--config", bad], "run": ["run", "--config", bad, "--out", str(out)],
            "compare": ["compare", "--config-a", _write_cfg(tmp_path), "--config-b", bad, "--out", str(out)]}
    assert cli_io.main(argv[command]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: line 5: unknown key 'problem.seed'\n")
    assert not out.exists()


@pytest.mark.parametrize("text, why", [
    (GOOD_CONFIG.replace("problem.sigma =", "problem.sigmaa ="), "line 4: unknown key 'problem.sigmaa'"),
    (GOOD_CONFIG.replace("problem.dim = 5\n", ""), "missing required key 'problem.dim' for problem = quadratic"),
], ids=["unknown-key", "missing-key"])
def test_compare_names_the_config_at_fault(tmp_path, capsys, monkeypatch, text, why):
    monkeypatch.setenv("SLRLAB_SEED", "3")  # a good override leaves the file's error as it is
    bad = _write_cfg(tmp_path, text, "b.txt")
    argv = ["compare", "--config-a", _write_cfg(tmp_path, name="a.txt"), "--config-b", bad,
            "--out", str(tmp_path / "out")]
    assert cli_io.main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: {why}\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_outputs(tmp_path):
    cfg = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 2")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli_io.main(["run", "--config", path, "--out", str(out)]) == 0
    files = sorted(f.name for f in out.iterdir())
    assert files == ["metadata.txt", "run_seed000.csv", "run_seed001.csv"]
    meta = (out / "metadata.txt").read_text()
    assert "config_digest" in meta and "rng_algorithm = pcg64-seedseq-v1" in meta
    # Only a family whose eval method changed carries an eval tag.
    assert "eval_algorithm" not in meta
    header = (out / "run_seed000.csv").read_text().splitlines()[0]
    assert header == cli_io.TRAJECTORY_HEADER


def test_cli_run_needs_out(tmp_path, capsys, monkeypatch):
    # `--out` is the only place that says where `run` writes.
    monkeypatch.chdir(tmp_path)
    assert cli_io.main(["run", "--config", _write_cfg(tmp_path)]) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.txt"]


def test_config_out_dir_is_an_unknown_key(tmp_path, capsys):
    # The config once named a default output directory that metadata.txt
    # recorded even when `--out` sent the files elsewhere.
    path = _write_cfg(tmp_path, GOOD_CONFIG + "out_dir = x\n")
    out = tmp_path / "out"
    assert cli_io.main(["run", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 15: unknown key 'out_dir'\n"
    assert not out.exists()


def test_cli_run_byte_deterministic(tmp_path):
    cfg = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 2")
    path = _write_cfg(tmp_path, cfg)
    assert cli_io.main(["run", "--config", path, "--out", str(tmp_path / "o1")]) == 0
    assert cli_io.main(["run", "--config", path, "--out", str(tmp_path / "o2")]) == 0
    a = (tmp_path / "o1" / "run_seed000.csv").read_bytes()
    b = (tmp_path / "o2" / "run_seed000.csv").read_bytes()
    assert a == b
    assert (tmp_path / "o1" / "metadata.txt").read_bytes() == \
        (tmp_path / "o2" / "metadata.txt").read_bytes()


def test_cli_env_seed_changes_runs(tmp_path, monkeypatch):
    cfg = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 2")
    path = _write_cfg(tmp_path, cfg)
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    assert cli_io.main(["run", "--config", path, "--out", str(tmp_path / "e1")]) == 0
    monkeypatch.setenv("SLRLAB_SEED", "999")
    assert cli_io.main(["run", "--config", path, "--out", str(tmp_path / "e2")]) == 0
    a = (tmp_path / "e1" / "run_seed000.csv").read_bytes()
    b = (tmp_path / "e2" / "run_seed000.csv").read_bytes()
    assert a != b
    meta = (tmp_path / "e2" / "metadata.txt").read_text()
    assert "master_seed = 999" in meta


def test_cli_compare_and_report(tmp_path):
    base = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 4")
    cfg_b = base.replace("sf = uniform_root", "sf = constant") \
                .replace("sf.c1 = 0.3\nsf.c2 = 0.8", "sf.value = 1.0")
    pa = _write_cfg(tmp_path, base, "a.txt")
    pb_ = _write_cfg(tmp_path, cfg_b, "b.txt")
    out = tmp_path / "cmp"
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_,
                        "--out", str(out), "--metric", "min_grad_sq"]) == 0
    assert (out / "report.csv").exists()
    txt = (out / "report.txt").read_text()
    assert "paired gradient streams verified identical per seed" in txt
    rep = cli_io.read_report(out / "report.csv")
    assert rep.metric == "min_grad_sq"
    assert rep.n_a == 4 and rep.n_b == 4
    # anything outside the sf block must agree between the arms
    cfg_c = base.replace("iterations = 100", "iterations = 200")
    pc = _write_cfg(tmp_path, cfg_c, "c.txt")
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pc,
                        "--out", str(out)]) == 1


@pytest.mark.filterwarnings("ignore:welch_t:UserWarning")
def test_cli_compare_of_noiseless_arms_reads_an_infinite_t_at_every_checkpoint(tmp_path):
    # Without gradient noise, under constant factors, every seed runs the
    # same path, so each side's values at a checkpoint are all equal.
    noiseless = GOOD_CONFIG.replace("problem.sigma = 0.1", "problem.sigma = 0.0") \
                           .replace("sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 0.8", "sf = constant\nsf.value = 1.0")
    pa = _write_cfg(tmp_path, noiseless, "a.txt")
    pb_ = _write_cfg(tmp_path, noiseless.replace("sf.value = 1.0", "sf.value = 0.5"), "b.txt")
    out = tmp_path / "cmp"
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(out)]) == 0
    rep = cli_io.read_report(out / "report.csv")
    assert set(rep.t) == {-np.inf} and set(rep.df) == {4.0} and set(rep.p) == {0.0}


@pytest.mark.parametrize("old, new, key, a, b", [
    ("problem = quadratic\nproblem.dim = 5\nproblem.cond = 10.0\nproblem.sigma = 0.1\n",
     "problem = rosenbrock\nproblem.sigma = 0.1\n", "problem", "quadratic", "rosenbrock"),
    ("problem.cond = 10.0", "problem.cond = 20", "problem.cond", "10.0", "20.0"),
    ("schedule.eta = 0.1", "schedule.eta = 0.2", "schedule.eta", "0.1", "0.2"),
    ("eval_every = 10", "eval_every = 20", "eval_every", "10", "20"),
    ("master_seed = 7", "master_seed = 7\ncheckpoints = 50,100", "checkpoints", "auto", "50,100"),
    ("schedule = inverse_k", "schedule = constant", "schedule", "inverse_k", "constant"),
    ("iterations = 100", "iterations = 200", "iterations", "100", "200"),
    ("n_seeds = 3", "n_seeds = 4", "n_seeds", "3", "4"),
    ("master_seed = 7", "master_seed = 8", "master_seed", "7", "8"),
    ("problem.d = 3\n", "problem.d = 3\nproblem.reg = 0.5\n", "problem.reg", "0.0", "0.5"),
], ids=["problem", "problem-param", "eta", "eval_every", "checkpoints", "schedule", "iterations", "n_seeds",
        "master_seed", "logreg-param"])
def test_cli_compare_names_the_key_the_configs_disagree_on(tmp_path, capsys, old, new, key, a, b):
    base = GOOD_CONFIG if old in GOOD_CONFIG else GOOD_CONFIG.replace(QUADRATIC_BLOCK, LOGREG_BLOCK)
    assert old in base
    pa = _write_cfg(tmp_path, base, "a.txt")
    pb_ = _write_cfg(tmp_path, base.replace(old, new).replace("sf.c2 = 0.8", "sf.c2 = 0.9"), "b.txt")
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == (f"error: compare: configs must agree on {key} (a: {a}, b: {b}); "
                                       "only the sf block may differ\n")
    assert not (tmp_path / "cmp").exists()


QUADRATIC_BLOCK = "problem = quadratic\nproblem.dim = 5\nproblem.cond = 10.0\nproblem.sigma = 0.1\n"
LOGREG_BLOCK = "problem = logreg\nproblem.n = 40\nproblem.d = 3\n"


def test_cli_compare_lets_the_sf_block_and_theorem_case_differ(tmp_path):
    pa = _write_cfg(tmp_path, GOOD_CONFIG, "a.txt")
    b = GOOD_CONFIG.replace("sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 0.8", "sf = constant\nsf.value = 0.5") \
                   .replace("theorem_case = case12", "theorem_case = case11a")
    pb_ = _write_cfg(tmp_path, b, "b.txt")
    a_cfg, b_cfg = cli_io.load_config(pa), cli_io.load_config(pb_)
    assert a_cfg.sf != b_cfg.sf and a_cfg.theorem_case != b_cfg.theorem_case
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(tmp_path / "cmp")]) == 0
    # And with no theorem_case in one arm.
    pc = _write_cfg(tmp_path, b.replace("theorem_case = case11a\n", ""), "c.txt")
    assert cli_io.load_config(pc).theorem_case is None
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pc, "--out", str(tmp_path / "cmp2")]) == 0


# A noise-free quadratic under a constant step: by k = 1000 every value is
# near 1e-92 and by k = 2150 near 1e-197, so the samples' moments under-
# flow unless welch_t scales them first.  Once this exited 2 on a float
# division by zero at k = 1000, and read t = inf at k = 2150.
TINY_VALUES = """\
problem = quadratic
problem.dim = 2
problem.cond = 10
problem.sigma = 0
schedule = constant
schedule.eta = 0.1
iterations = 10000
eval_every = 10
n_seeds = 10
master_seed = 0
{checkpoints}
"""


@pytest.mark.parametrize("checkpoints", ["auto", "2150,4000"])
def test_cli_compare_of_tiny_values_reads_a_finite_t(tmp_path, checkpoints):
    text = TINY_VALUES.format(checkpoints=f"checkpoints = {checkpoints}")
    pa = _write_cfg(tmp_path, text + "sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 0.8\n", "a.txt")
    pb_ = _write_cfg(tmp_path, text + "sf = constant\nsf.value = 1.0\n", "b.txt")
    out = tmp_path / "cmp"
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(out),
                        "--metric", "min_grad_sq"]) == 0
    rep = cli_io.read_report(out / "report.csv")
    t = dict(zip(rep.checkpoints, rep.t))
    assert t[2150] == pytest.approx(51.49, abs=0.01)
    if checkpoints == "auto":
        assert t[1000] == pytest.approx(49.49, abs=0.01)
    assert all(math.isfinite(v) for v in rep.t)


DIVERGING_ARM = """\
problem = quadratic
problem.dim = 4
problem.cond = 10
problem.sigma = 0.1
schedule = inverse_k
schedule.eta = {eta}
{sf}
iterations = 1000
eval_every = 10
n_seeds = 4
master_seed = 0
"""


def test_cli_compare_all_seeds_of_one_arm_diverged_exits_one(tmp_path, capsys):
    # eta 50 with u = 1 blows up on every seed; u = 0.001 never does.  The
    # diverged arm hashed only a prefix of each gradient stream, which once
    # failed the pairing check and exited 2.
    pa = _write_cfg(tmp_path, DIVERGING_ARM.format(eta=50, sf="sf = constant\nsf.value = 1.0"), "a.txt")
    pb_ = _write_cfg(tmp_path, DIVERGING_ARM.format(eta=50, sf="sf = constant\nsf.value = 0.001"), "b.txt")
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(tmp_path / "cmp")]) == 1
    assert "fewer than 2 non-diverged runs" in capsys.readouterr().err


def test_cli_compare_excludes_seeds_with_a_diverged_arm(tmp_path):
    # One of four seeds diverges in arm a: its pair is excluded from the
    # tests, and the head line still holds, since the runner checked the
    # diverged row's draws before each block it stepped.
    pa = _write_cfg(tmp_path, DIVERGING_ARM.format(eta=3, sf="sf = uniform_root\nsf.c1 = 0.01\nsf.c2 = 2.0"), "a.txt")
    pb_ = _write_cfg(tmp_path, DIVERGING_ARM.format(eta=3, sf="sf = constant\nsf.value = 0.001"), "b.txt")
    out = tmp_path / "cmp"
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(out)]) == 0
    txt = (out / "report.txt").read_text()
    assert txt.startswith("paired gradient streams verified identical per seed\n")
    assert "excluded diverged runs: 1 from a, 0 from b" in txt
    rep = cli_io.read_report(out / "report.csv")
    assert (rep.n_a, rep.excluded_a, rep.n_b, rep.excluded_b) == (3, 1, 4, 0)
    # The notes follow from the counts read back, and are written again byte for byte.
    assert rep.notes == ["excluded diverged runs: 1 from a, 0 from b"]
    cli_io.write_report(rep, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (out / "report.csv").read_bytes()


def test_cli_compare_exits_two_when_an_arm_steps_on_another_seeds_draws(tmp_path, capsys, monkeypatch):
    # Each row of arm b is fed the next seed's gradient draws: the pairing
    # check must fail as a fault instead of printing the verified line.
    stack = optimizer._stack_draws

    def shifted(seed_draws, pos):
        half = len(pos) // 2
        return stack(seed_draws, np.concatenate([pos[:half], (pos[half:] + 1) % seed_draws.shape[1]]))

    monkeypatch.setattr(optimizer, "_stack_draws", shifted)
    base = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 4")
    cfg_b = base.replace("sf = uniform_root", "sf = constant").replace("sf.c1 = 0.3\nsf.c2 = 0.8", "sf.value = 1.0")
    pa = _write_cfg(tmp_path, base, "a.txt")
    pb_ = _write_cfg(tmp_path, cfg_b, "b.txt")
    out = tmp_path / "cmp"
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: paired gradient streams diverged between arms; stream split broken\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "envelope"])
def test_cli_exits_two_when_a_row_steps_on_another_seeds_draws(tmp_path, capsys, monkeypatch, command):
    # Each row is fed the next seed's gradient draws: the runner's pairing
    # guard fails as a fault before any output is written.
    stack = optimizer._stack_draws
    monkeypatch.setattr(optimizer, "_stack_draws",
                        lambda seed_draws, pos: stack(seed_draws, (pos + 1) % seed_draws.shape[1]))
    out = tmp_path / "out"
    assert cli_io.main([command, "--config", _write_cfg(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: paired gradient streams diverged between arms; stream split broken\n")
    assert not out.exists()


def test_cli_envelope_outputs(tmp_path):
    cfg = GOOD_CONFIG.replace("iterations = 100", "iterations = 2000") \
                     .replace("n_seeds = 3", "n_seeds = 2")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", path, "--out", str(out)]) == 0
    names = {f.name for f in out.iterdir()}
    assert names == {"trajectory.csv", "diagnostic.txt", "seeds.csv"}
    diag = (out / "diagnostic.txt").read_text()
    assert "case = case12" in diag
    assert "diagnostic = " in diag and "slope = " in diag
    cols = cli_io.read_trajectory_csv(out / "trajectory.csv")
    assert np.isfinite(cols["envelope_case"][1:]).all()


def test_cli_envelope_with_one_eval_interval_reports_diagnostic_unavailable(tmp_path):
    # eval_every = iterations leaves the diagnostic window [k_lo, k_hi] empty.
    cfg = GOOD_CONFIG.replace("iterations = 100", "iterations = 10")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", path, "--out", str(out)]) == 0
    lines = (out / "diagnostic.txt").read_text().splitlines()
    assert lines[-2] == ("diagnostic = unavailable (window k in [10, 10] is empty: "
                         "needs eval_every < iterations)")
    assert lines[-1] == ("tally over 3 seeds: ConsistentWithLittleO = 0 | Inconclusive = 0 | Violation = 0 | "
                         "diverged = 0 | uncertified = 0")
    assert [row.split(",")[1] for row in (out / "seeds.csv").read_text().splitlines()[1:]] == ["unavailable"] * 3
    assert len(cli_io.read_trajectory_csv(out / "trajectory.csv")["k"]) == 2


def test_cli_envelope_on_a_run_diverged_before_its_second_eval_point(tmp_path):
    # eta = 1e300 overflows the iterate at k = 2, before the eval point
    # k = 10, so only k = 0 is recorded and no envelope point exists.
    cfg = (GOOD_CONFIG.replace("schedule.eta = 0.1", "schedule.eta = 1e300")
           .replace("sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 0.8", "sf = constant\nsf.value = 1.0"))
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert "diagnostic = unavailable (run diverged at k=2)" in (out / "diagnostic.txt").read_text()
    cols = cli_io.read_trajectory_csv(out / "trajectory.csv")
    assert cols["k"].tolist() == [0] and np.isnan(cols["envelope_case"]).all()


def test_cli_envelope_without_a_case_envelope_fails_before_any_run(tmp_path, capsys, monkeypatch):
    # This law's mean - variance is <= 0 from k = 1, so case12 has no
    # envelope there: the command says so without running a seed.
    calls = []
    monkeypatch.setattr(cli_io, "run_paired", lambda *args, **kwargs: calls.append(args))
    cfg = (GOOD_CONFIG.replace("sf.c1 = 0.3", "sf.c1 = 1e-300").replace("sf.c2 = 0.8", "sf.c2 = 100")
           .replace("eval_every = 10", "eval_every = 1"))
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: mean - variance <= 0 at k=1; envelope undefined for case12\n")
    assert not out.exists() and calls == []


def test_cli_envelope_gates_on_everything_validate_checks(tmp_path, capsys):
    # A constant schedule breaks Assumption 2 and passes every case12 gate:
    # `validate` fails, so no seed of `envelope` is certified, and the
    # envelope's report block is `validate`'s output.
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("schedule = inverse_k\nschedule.eta = 0.1",
                                                    "schedule = constant\nschedule.eta = 0.05")
                      .replace("iterations = 100", "iterations = 2000").replace("n_seeds = 3", "n_seeds = 2"))
    assert cli_io.main(["validate", "--config", path]) == 1
    report = capsys.readouterr().out
    assert "step_decreasing | holds=no | first_violation_k=1 |" in report
    assert "step_square_sum_converges | holds=no |" in report
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout == (out / "diagnostic.txt").read_text()
    head, _, rest = stdout.partition("\n\n")
    assert head == "case = case12\ncertified = no"
    assert rest.startswith(report)
    assert rest.endswith(" | uncertified = 2\n")


# This law's mean first fails to decrease at k = 123149, past the
# 100,000 steps that `validate` once stopped at while `envelope` checked
# every step: `validate` passed the config that `envelope` refused.
PAST_THE_OLD_CAP = """\
problem = quadratic
problem.dim = 2
problem.cond = 10
schedule = inverse_k
schedule.eta = 0.05
sf = uniform_root
sf.c1 = 1.0
sf.c2 = 1.00001
iterations = 130000
eval_every = 1000
n_seeds = 1
master_seed = 0
theorem_case = case11b
"""


def test_cli_validate_and_envelope_check_every_iteration(tmp_path, capsys):
    path = _write_cfg(tmp_path, PAST_THE_OLD_CAP)
    assert cli_io.main(["validate", "--config", path]) == 1
    report = capsys.readouterr().out
    assert "mean_decreasing | holds=no | first_violation_k=123149 |" in report
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", path, "--out", str(out)]) == 0
    head, _, rest = capsys.readouterr().out.partition("\n\n")
    assert head == "case = case11b\ncertified = no"
    assert rest.rpartition("diagnostic = ")[0] == report


ENVELOPE_SEEDS = GOOD_CONFIG.replace("iterations = 100", "iterations = 2000")


def _seed_rows(out):
    lines = (out / "seeds.csv").read_text().splitlines()
    assert lines[0] == "seed,verdict,slope,r_lo,r_hi,truncated_at"
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def test_cli_envelope_diagnoses_every_seed_as_its_own_run(tmp_path, monkeypatch):
    # Each row of seeds.csv is the diagnostic of that seed's run on its own,
    # against the envelope at the run's recorded points.
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    cfg = cli_io.parse_config(ENVELOPE_SEEDS.replace("n_seeds = 3", "n_seeds = 4"))
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", _write_cfg(tmp_path, cli_io.format_config(cfg)),
                        "--out", str(out)]) == 0
    rows = _seed_rows(out)
    assert [int(r["seed"]) for r in rows] == [optimizer.split_seed(cfg.master_seed, i) for i in range(4)]
    problem = cli_io.build_problem(cfg)
    k_lo = max(cfg.eval_every, cfg.iterations // 100)
    for row in rows:
        traj = optimizer.run(problem, cfg.schedule, cfg.sf, cfg.iterations, eval_every=cfg.eval_every,
                             seed=int(row["seed"]))
        env = harness.trajectory_envelope(traj, cfg.theorem_case, cfg.sf, cfg.schedule)
        diag = harness.little_o_diagnostic(traj.min_grad_sq[1:], env, k_lo, cfg.iterations)
        assert row["verdict"] == diag.verdict.value
        assert [float(row[k]) for k in ("slope", "r_lo", "r_hi")] == [diag.window_slope, diag.r_lo, diag.r_hi]
        assert row["truncated_at"] == ""


def test_cli_envelope_seed_zero_artifacts_do_not_depend_on_n_seeds(tmp_path):
    outs = {}
    for n in (1, 3):
        outs[n] = tmp_path / f"env{n}"
        path = _write_cfg(tmp_path, ENVELOPE_SEEDS.replace("n_seeds = 3", f"n_seeds = {n}"), f"cfg{n}.txt")
        assert cli_io.main(["envelope", "--config", path, "--out", str(outs[n])]) == 0
    assert (outs[1] / "trajectory.csv").read_bytes() == (outs[3] / "trajectory.csv").read_bytes()
    one, three = ((outs[n] / "diagnostic.txt").read_text() for n in (1, 3))
    head, tally, _ = three.rsplit("\n", 2)
    assert head + "\n" == one
    assert tally.startswith("tally over 3 seeds: ")
    assert not (outs[1] / "seeds.csv").exists() and len(_seed_rows(outs[3])) == 3


def test_cli_envelope_counts_a_diverged_seed_and_exits_zero(tmp_path, capsys):
    # Seed 1 of four diverges at k = 10; seed 0 does not.  eta = 3 breaks
    # the step bound, so no seed is certified.
    cfg = DIVERGING_ARM.format(eta=3, sf="sf = uniform_root\nsf.c1 = 0.01\nsf.c2 = 2.0") + "theorem_case = case12\n"
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    tally = ("tally over 4 seeds: ConsistentWithLittleO = 3 | Inconclusive = 0 | Violation = 0 | "
             "diverged = 1 | uncertified = 4")
    assert capsys.readouterr().out.splitlines()[-1] == tally
    assert (out / "diagnostic.txt").read_text().splitlines()[-1] == tally
    rows = _seed_rows(out)
    assert [(r["verdict"], r["truncated_at"]) for r in rows] == \
        [("ConsistentWithLittleO", ""), ("diverged", "10"), ("ConsistentWithLittleO", ""),
         ("ConsistentWithLittleO", "")]
    assert [rows[1][k] for k in ("slope", "r_lo", "r_hi")] == ["nan"] * 3


@pytest.mark.parametrize("command", ["run", "envelope"])
def test_cli_seed_split_collision_exits_one_before_any_output(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(optimizer, "split_seed", lambda master_seed, index: 12345)
    out = tmp_path / "out"
    assert cli_io.main([command, "--config", _write_cfg(tmp_path), "--out", str(out)]) == 1
    assert "seed split collision" in capsys.readouterr().err
    assert not out.exists()


def test_cli_compare_needs_two_seeds_before_any_run(tmp_path, capsys, monkeypatch):
    # run and envelope take one seed; a Welch test needs two per arm.
    monkeypatch.setattr(cli_io, "run_paired", lambda *args, **kwargs: pytest.fail("compare ran"))
    one = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 1")
    pa = _write_cfg(tmp_path, one, "a.txt")
    pb_ = _write_cfg(tmp_path, one.replace("sf.c2 = 0.8", "sf.c2 = 0.9"), "b.txt")
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == "error: compare: n_seeds must be >= 2 to give each arm a variance (got 1)\n"
    assert not (tmp_path / "cmp").exists()


def test_cli_validate_with_one_iteration_names_the_key(tmp_path, capsys):
    cfg = GOOD_CONFIG.replace("iterations = 100", "iterations = 1").replace("eval_every = 10", "eval_every = 1")
    assert cli_io.main(["validate", "--config", _write_cfg(tmp_path, cfg)]) == 1
    assert "iterations" in capsys.readouterr().err


def test_cli_envelope_with_one_iteration_names_the_key_before_any_run(tmp_path, capsys, monkeypatch):
    # `envelope` checks `validate`'s gates, which need a horizon of 2.
    monkeypatch.setattr(cli_io, "run_paired", lambda *args, **kwargs: pytest.fail("envelope ran"))
    cfg = GOOD_CONFIG.replace("iterations = 100", "iterations = 1").replace("eval_every = 10", "eval_every = 1")
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: envelope: iterations must be >= 2 to give a horizon to check (got 1)\n")
    assert not out.exists()


LOGREG_CONFIG = GOOD_CONFIG.replace(
    "problem = quadratic\nproblem.dim = 5\nproblem.cond = 10.0\nproblem.sigma = 0.1\n",
    "problem = logreg\nproblem.n = 20\nproblem.d = 3\nproblem.reg = 0.1\n")
CONSTANT_SF_CONFIG = GOOD_CONFIG.replace("sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 0.8\n",
                                         "sf = constant\nsf.value = 1.0\n")


@pytest.mark.parametrize("base, line, raw", [
    (GOOD_CONFIG, "problem.cond = 10.0", "nan"),
    (GOOD_CONFIG, "problem.sigma = 0.1", "nan"),
    (LOGREG_CONFIG, "problem.reg = 0.1", "nan"),
    (GOOD_CONFIG, "schedule.eta = 0.1", "inf"),
    (GOOD_CONFIG, "sf.c2 = 0.8", "inf"),
    (CONSTANT_SF_CONFIG, "sf.value = 1.0", "inf"),
    (GOOD_CONFIG, "problem.cond = 10.0", "-inf"),
])
@pytest.mark.parametrize("command", ["run", "envelope"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, base, line, raw, command):
    # A range test written as 'x < bound' lets nan through, and inf passes
    # every lower bound, so the parser itself must reject both, naming the
    # key, before any run diverges on them.
    assert line in base
    key = line.split(" = ")[0]
    path = _write_cfg(tmp_path, base.replace(line, f"{key} = {raw}"))
    assert cli_io.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["config", "SLRLAB_SEED", "problem.seed-logreg", "problem.seed-quadratic"])
@pytest.mark.parametrize("command", ["run", "envelope"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, monkeypatch, source, command):
    # numpy's seeding refuses a negative seed with a message that names no
    # key, after `run` has made its output directory.  The quadratic has no
    # seed: its problem.seed is an unknown key.
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    if source == "config":
        path = _write_cfg(tmp_path, GOOD_CONFIG.replace("master_seed = 7", "master_seed = -1"))
        key = "master_seed"
    elif source == "SLRLAB_SEED":
        monkeypatch.setenv("SLRLAB_SEED", "-3")
        path = _write_cfg(tmp_path)
        key = "SLRLAB_SEED"
    else:
        base, line = ((LOGREG_CONFIG, "problem.reg = 0.1") if source.endswith("logreg")
                      else (GOOD_CONFIG, "problem.sigma = 0.1"))
        path = _write_cfg(tmp_path, base.replace(line, line + "\nproblem.seed = -1"))
        key = "seed"
    assert cli_io.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    if source.endswith("quadratic"):
        assert "unknown key 'problem.seed'" in err
    else:
        assert key in err and ">= 0" in err
    assert not (tmp_path / "out").exists()


ROSENBROCK_CONFIG = GOOD_CONFIG.replace(
    "problem = quadratic\nproblem.dim = 5\nproblem.cond = 10.0\nproblem.sigma = 0.1\n",
    "problem = rosenbrock\nproblem.sigma = 0.1\n")


@pytest.mark.parametrize("base, key, raw", [
    (GOOD_CONFIG, "dim", "0"),
    (GOOD_CONFIG, "cond", "0.5"),
    (GOOD_CONFIG, "sigma", "-0.1"),
    (ROSENBROCK_CONFIG, "sigma", "-1.0"),
    (LOGREG_CONFIG, "n", "1"),
    (LOGREG_CONFIG, "d", "0"),
    (LOGREG_CONFIG, "reg", "-0.1"),
    (LOGREG_CONFIG, "seed", "-1"),
], ids=["quadratic-dim", "quadratic-cond", "quadratic-sigma", "rosenbrock-sigma",
        "logreg-n", "logreg-d", "logreg-reg", "logreg-seed"])
def test_validate_and_run_reject_a_bad_problem_value_alike(tmp_path, capsys, base, key, raw):
    # validate never built the problem without a theorem_case, so it
    # passed values that run then rejected with a message naming neither
    # the key nor its line.
    lines = [line for line in base.splitlines() if not line.startswith(("theorem_case", f"problem.{key} "))]
    lines.insert(1, f"problem.{key} = {raw}")
    path = _write_cfg(tmp_path, "\n".join(lines) + "\n")
    errs = []
    for argv in (["validate", "--config", path], ["run", "--config", path, "--out", str(tmp_path / "out")]):
        assert cli_io.main(argv) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"error: {path}: line 2: problem.{key}: must be ") and raw in errs[0]
    assert not (tmp_path / "out").exists()


_SHAPE_PROBLEM = problems.make_quadratic(dim=2, cond=10.0, sigma=0.1)
_SHAPE_SCHEDULE = StepSizeSchedule("inverse_k", 0.1)
RUN_SHAPE_KEYS = ("iterations", "eval_every", "n_seeds", "master_seed", "checkpoints")


def _run_arms(iterations=100, eval_every=10, n_seeds=1):
    optimizer.run_arms(_SHAPE_PROBLEM, _SHAPE_SCHEDULE, [sf.constant(1.0)], iterations, eval_every,
                       seeds=list(range(n_seeds)))


def _run_paired(**kwargs):
    optimizer.run_paired(_SHAPE_PROBLEM, _SHAPE_SCHEDULE, [sf.constant(1.0)], 100, n_seeds=2, eval_every=10, **kwargs)


def _compare(checkpoints):
    a, b = optimizer.run_paired(_SHAPE_PROBLEM, _SHAPE_SCHEDULE, [sf.constant(1.0)] * 2, 100, n_seeds=2,
                                eval_every=10)
    stats.compare(a, b, checkpoints=checkpoints)


@pytest.mark.parametrize("base, key, raw, make", [
    (GOOD_CONFIG, "schedule.eta", "0", lambda v: StepSizeSchedule("inverse_k", v)),
    (GOOD_CONFIG, "schedule.eta", "-0.5", lambda v: StepSizeSchedule("inverse_k", v)),
    (CONSTANT_SF_CONFIG, "sf.value", "0", sf.constant),
    (CONSTANT_SF_CONFIG, "sf.value", "-1", sf.constant),
    (GOOD_CONFIG, "sf.c1", "0", lambda v: sf.uniform_root(v, 0.8)),
    (GOOD_CONFIG, "sf.c1", "-0.3", lambda v: sf.uniform_root(v, 0.8)),
    (GOOD_CONFIG, "sf.c2", "0", lambda v: sf.uniform_root(0.3, v)),
    (GOOD_CONFIG, "sf.c2", "-0.8", lambda v: sf.uniform_root(0.3, v)),
    (GOOD_CONFIG, "sf.c2", "0.3", lambda v: sf.uniform_root(0.3, v)),
    (GOOD_CONFIG, "iterations", "0", lambda v: _run_arms(iterations=v)),
    (GOOD_CONFIG, "iterations", "105", lambda v: _run_arms(iterations=v)),
    (GOOD_CONFIG, "eval_every", "0", lambda v: _run_arms(eval_every=v)),
    (GOOD_CONFIG, "n_seeds", "0", lambda v: _run_arms(n_seeds=v)),
    (GOOD_CONFIG, "master_seed", "-1", lambda v: _run_paired(master_seed=v)),
    (GOOD_CONFIG + "checkpoints = auto\n", "checkpoints", "50,100,100", _compare),
    (GOOD_CONFIG + "checkpoints = auto\n", "checkpoints", "10,55", _compare),
], ids=["eta-0", "eta-neg", "value-0", "value-neg", "c1-0", "c1-neg", "c2-0", "c2-neg", "c2-eq-c1",
        "iterations-0", "iterations-off-cadence", "eval_every-0", "n_seeds-0", "master_seed-neg",
        "checkpoints-repeated", "checkpoints-off-grid"])
def test_schedule_and_sf_rules_are_the_library_rules(tmp_path, capsys, monkeypatch, base, key, raw, make):
    # The parser checks each value with the library's rules, so validate,
    # run and the library calls give one reason.
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    lines = base.splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if text.startswith(f"{key} = "))
    lines[line - 1] = f"{key} = {raw}"
    path = _write_cfg(tmp_path, "\n".join(lines) + "\n")
    if key in RUN_SHAPE_KEYS:
        value = [int(k) for k in raw.split(",")] if key == "checkpoints" else int(raw)
        shown = raw.split(",")[-1]
    else:
        value = float(raw)
        shown = repr(value)
    with pytest.raises(ValueError) as exc:
        make(value)
    reason = str(exc.value)
    assert shown in reason and key.rpartition(".")[2] in reason
    errs = []
    for argv in (["validate", "--config", path], ["run", "--config", path, "--out", str(tmp_path / "out")]):
        assert cli_io.main(argv) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == f"error: {path}: line {line}: {key}: {reason}\n"
    assert not (tmp_path / "out").exists()
    if key == "master_seed":
        # The override is held to the same rule.
        monkeypatch.setenv("SLRLAB_SEED", raw)
        assert cli_io.main(["run", "--config", _write_cfg(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: SLRLAB_SEED: {reason}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("c2", [1e200, 1.7976931348623157e308])
@pytest.mark.parametrize("case", [c.value for c in TheoremCase])
def test_validate_and_envelope_near_the_double_range_do_not_warn(tmp_path, capsys, c2, case):
    # The factor variance and the case11a step bound overflow to inf, the
    # IEEE result the gates read, and once printed numpy's overflow warning.
    # The suite turns a RuntimeWarning into an error, and exit 2.
    text = GOOD_CONFIG.replace("sf.c2 = 0.8", f"sf.c2 = {c2!r}").replace("theorem_case = case12",
                                                                       f"theorem_case = {case}")
    path = _write_cfg(tmp_path, text)
    for argv in (["validate", "--config", path], ["envelope", "--config", path, "--out", str(tmp_path / "env")]):
        assert cli_io.main(argv) in (0, 1)
        assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "envelope"])
def test_cli_subnormal_step_size_does_not_warn(tmp_path, capsys, command):
    # 1 / S_k and the case12 envelope (m - v) / S_k overflow to inf, the
    # value they stand for; the overflow warning once made the command exit 2.
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("schedule.eta = 0.1", "schedule.eta = 1e-310"))
    assert cli_io.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    name = "run_seed000.csv" if command == "run" else "trajectory.csv"
    cols = cli_io.read_trajectory_csv(tmp_path / "out" / name)
    assert np.isinf(cols["envelope_det"]).all()
    if command == "envelope":
        assert np.isinf(cols["envelope_case"][1:]).all()


@pytest.mark.parametrize("command", ["run", "envelope"])
def test_cli_gradient_norm_overflow_at_x0_is_a_divergence(tmp_path, capsys, command):
    # At cond = 1e200 the gradient norm at x0 = ones overflows, so every
    # seed diverges at k = 0 and no recorded norm is finite: the runs are
    # truncated and flagged like any other divergence.
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("problem.cond = 10.0", "problem.cond = 1e200"))
    out = tmp_path / "out"
    assert cli_io.main([command, "--config", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    if command == "run":
        assert "wrote 3 trajectories" in stdout and "(3 diverged)" in stdout
        names = ["metadata.txt", "run_seed000.csv", "run_seed001.csv", "run_seed002.csv"]
        assert sorted(f.name for f in out.iterdir()) == names
        cols = cli_io.read_trajectory_csv(out / "run_seed000.csv")
    else:
        assert "diagnostic = unavailable (run diverged at k=0)" in stdout
        cols = cli_io.read_trajectory_csv(out / "trajectory.csv")
    assert cols["k"].tolist() == [0]
    assert np.isinf(cols["grad_norm_sq"]).all() and np.isnan(cols["g_k"]).all()


def test_cli_envelope_takes_its_case_from_the_config_only(tmp_path, capsys):
    # A --case flag once overrode the config's case, so `envelope`
    # certified a case that `validate` never checked.
    out = tmp_path / "env"
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("theorem_case = case12\n", ""))
    assert cli_io.main(["envelope", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: envelope: set theorem_case in the config\n")
    # On a case11b config that `validate` fails, --case case12 once printed certified = yes.
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("case12", "case11b"), "case11b.txt")
    assert cli_io.main(["envelope", "--config", path, "--case", "case12", "--out", str(out)]) == 2
    assert "unrecognized arguments: --case case12" in capsys.readouterr().err
    assert not out.exists()


def test_cli_plot_from_directory(tmp_path):
    cfg = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 2")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "runs"
    assert cli_io.main(["run", "--config", path, "--out", str(out)]) == 0
    dst = tmp_path / "fig.svg"
    assert cli_io.main(["plot", "--in", str(out), "--out", str(dst)]) == 0
    body = dst.read_text()
    assert body.count("<polyline") == 3  # two runs plus the baseline envelope
    # a directory with no trajectory files is an input error
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli_io.main(["plot", "--in", str(empty), "--out", str(dst)]) == 1


def test_cli_plot_skips_the_seeds_csv_of_an_envelope(tmp_path):
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", _write_cfg(tmp_path, ENVELOPE_SEEDS), "--out", str(out)]) == 0
    assert (out / "seeds.csv").exists()
    dst = tmp_path / "fig.svg"
    assert cli_io.main(["plot", "--in", str(out), "--out", str(dst)]) == 0
    # The trajectory, envelope_det and envelope_case.
    assert dst.read_text().count("<polyline") == 3


def test_cli_plot_draws_a_trajectory_csv_with_a_byte_order_mark(tmp_path):
    # plot once skipped it, with the mark read as part of the header, and
    # found no trajectory in the directory.
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 1"))
    out, bom = tmp_path / "runs", tmp_path / "bom"
    assert cli_io.main(["run", "--config", path, "--out", str(out)]) == 0
    bom.mkdir()
    (bom / "run_seed000.csv").write_bytes(b"\xef\xbb\xbf" + (out / "run_seed000.csv").read_bytes())
    plain, marked = (cli_io.read_trajectory_csv(d / "run_seed000.csv") for d in (out, bom))
    assert list(marked) == list(plain) and all(marked[n].tobytes() == plain[n].tobytes() for n in plain)
    dst = tmp_path / "fig.svg"
    assert cli_io.main(["plot", "--in", str(bom), "--out", str(dst)]) == 0
    assert dst.read_text().count("<polyline") == 2  # the run and the baseline envelope


def test_cli_plot_skips_a_csv_that_is_not_utf8_text(tmp_path):
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 1"))
    out = tmp_path / "runs"
    assert cli_io.main(["run", "--config", path, "--out", str(out)]) == 0
    (out / "img.csv").write_bytes(b"\x89PNG\x00\xff")
    dst = tmp_path / "fig.svg"
    assert cli_io.main(["plot", "--in", str(out), "--out", str(dst)]) == 0
    assert dst.read_text().count("<polyline") == 2  # the run and the baseline envelope


def test_cli_plot_fails_on_a_malformed_trajectory_csv(tmp_path, capsys):
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 2"))
    out = tmp_path / "runs"
    assert cli_io.main(["run", "--config", path, "--out", str(out)]) == 0
    bad = out / "run_seed001.csv"
    lines = bad.read_text().splitlines()
    lines[3] += ",1"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_io.main(["plot", "--in", str(out), "--out", str(tmp_path / "fig.svg")]) == 1
    err = capsys.readouterr().err
    assert "run_seed001.csv" in err and "line 4" in err
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("stem", ["envelope_det", "envelope_case"])
def test_cli_plot_refuses_a_trajectory_named_after_a_reference_series(tmp_path, capsys, stem):
    # Its series would take the name of the envelope drawn from the first
    # file, and one of the two would vanish from the figure.
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", _write_cfg(tmp_path), "--out", str(out)]) == 0
    (out / f"{stem}.csv").write_bytes((out / "trajectory.csv").read_bytes())
    capsys.readouterr()
    dst = tmp_path / "fig.svg"
    assert cli_io.main(["plot", "--in", str(out), "--out", str(dst)]) == 1
    err = capsys.readouterr().err
    assert f"{stem}.csv" in err and "reference series" in err
    assert not dst.exists()


def test_cli_plot_escapes_file_names(tmp_path):
    path = _write_cfg(tmp_path, GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 1"))
    out = tmp_path / "runs"
    assert cli_io.main(["run", "--config", path, "--out", str(out)]) == 0
    (out / "run_seed000.csv").rename(out / "a&b.csv")
    dst = tmp_path / "fig.svg"
    assert cli_io.main(["plot", "--in", str(out), "--out", str(dst)]) == 0
    root = ET.parse(dst).getroot()
    assert "a&b" in {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}


def test_cli_usage_errors_exit_two():
    assert cli_io.main(["frobnicate"]) == 2
    assert cli_io.main(["run"]) == 2  # --config is required


def _compare_argv(tmp_path):
    """A 2-seed compare of uniform_root against a constant factor."""
    base = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 2")
    cfg_b = base.replace("sf = uniform_root", "sf = constant").replace("sf.c1 = 0.3\nsf.c2 = 0.8", "sf.value = 1.0")
    return ["compare", "--config-a", _write_cfg(tmp_path, base, "a.txt"),
            "--config-b", _write_cfg(tmp_path, cfg_b, "b.txt"), "--out", str(tmp_path / "cmp")]


@pytest.mark.parametrize("case, code", [
    ("validate", 0), ("bad value", 1), ("missing config", 2), ("help", 0), ("compare", 0),
])
def test_cli_process_flushes_its_output_and_keeps_the_exit_code(tmp_path, capsys, monkeypatch, case, code):
    # `python -m slrlab.cli_io` ends through `entry`, which skips the
    # interpreter's teardown.  Piped stdout is block-buffered, so output
    # that `entry` did not flush would be missing here.
    if case == "compare":
        argv = _compare_argv(tmp_path)
    elif case == "help":
        argv = ["--help"]
    elif case == "missing config":
        argv = ["validate", "--config", str(tmp_path / "missing.txt")]
    else:
        text = GOOD_CONFIG if case == "validate" else GOOD_CONFIG.replace("sf.c2 = 0.8", "sf.c2 = high")
        argv = ["validate", "--config", _write_cfg(tmp_path, text)]
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    src = str(Path(cli_io.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "slrlab.cli_io", *argv], capture_output=True, timeout=300)
    assert cli_io.main(argv) == code
    out, err = capsys.readouterr()
    assert proc.returncode == code
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode()
    assert proc.stdout or proc.stderr
    if case == "bad value":
        assert re.fullmatch(rf"error: {re.escape(argv[2])}: line 9: sf\.c2: .+\n", err)


def test_no_command_leaves_a_file_open(tmp_path, monkeypatch):
    # `entry` ends the process without the interpreter's teardown, so a
    # writer still open when `main` returns would lose its buffered tail.
    opened = []

    def recording(real):
        def record(*args, **kwargs):
            fh = real(*args, **kwargs)
            opened.append(fh)
            return fh
        return record

    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(io, "open", recording(io.open))
    # Python 3.10's pathlib holds its own reference to io.open.
    monkeypatch.setattr(Path, "open", recording(Path.open))
    cfg = _write_cfg(tmp_path, ENVELOPE_SEEDS.replace("n_seeds = 3", "n_seeds = 2"))
    env = tmp_path / "env"
    for argv in (["run", "--config", cfg, "--out", str(tmp_path / "runs")],
                 _compare_argv(tmp_path),
                 ["envelope", "--config", cfg, "--out", str(env)],
                 ["plot", "--in", str(env), "--out", str(tmp_path / "fig.svg")],
                 ["validate", "--config", cfg]):
        before = len(opened)
        assert cli_io.main(argv) == 0
        assert len(opened) > before, argv[0]
    assert (env / "seeds.csv").exists()
    assert [fh.name for fh in opened if not fh.closed] == []
