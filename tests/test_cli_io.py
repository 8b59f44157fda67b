from pathlib import Path

import numpy as np
import pytest

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
    assert cfg.problem_param("dim") == 5
    assert cfg.problem_param("sigma") == 0.1
    assert cfg.schedule_family == "inverse_k" and cfg.eta == 0.1
    assert cfg.sf_kind == "uniform_root"
    assert cfg.sf_param("c1") == 0.3 and cfg.sf_param("c2") == 0.8
    assert cfg.iterations == 100 and cfg.eval_every == 10
    assert cfg.n_seeds == 3 and cfg.master_seed == 7
    assert cfg.theorem_case is TheoremCase.CASE_12
    assert cfg.checkpoints == "auto"
    assert cfg.out_dir == "out"


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
    assert cfg.out_dir == "out"
    assert cfg.theorem_case is None
    assert cfg.problem_param("sigma") == 0.0  # omitted optional problem field


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
    with pytest.raises(ConfigError, match="problem.dim"):
        cli_io.parse_config(GOOD_CONFIG.replace("problem.dim = 5\n", ""))


def test_checkpoint_validation():
    cfg = cli_io.parse_config(GOOD_CONFIG + "checkpoints = 10, 50, 100\n")
    assert cfg.checkpoints == (10, 50, 100)
    with pytest.raises(ConfigError, match="checkpoints"):
        cli_io.parse_config(GOOD_CONFIG + "checkpoints = 10, 55\n")
    with pytest.raises(ConfigError, match="checkpoints"):
        cli_io.parse_config(GOOD_CONFIG + "checkpoints = 10, 200\n")
    cfg = cli_io.parse_config(GOOD_CONFIG + "checkpoints = auto\n")
    assert cfg.checkpoints == "auto"


def test_builders():
    cfg = cli_io.parse_config(GOOD_CONFIG)
    pb = cli_io.build_problem(cfg)
    assert pb.family == "quadratic" and pb.dim == 5
    sched = cli_io.build_schedule(cfg)
    assert sched == StepSizeSchedule("inverse_k", 0.1)
    spec = cli_io.build_sf(cfg)
    assert spec == sf.uniform_root(0.3, 0.8)


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
    harness.attach_gk(traj, sched)
    env = harness.trajectory_envelope(traj, TheoremCase.CASE_12, spec, sched)
    return traj, env


def test_trajectory_csv_schema_and_determinism(tmp_path):
    traj, env = _small_traj()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli_io.write_trajectory_csv(traj, p1, case_env=env)
    cli_io.write_trajectory_csv(traj, p2, case_env=env)
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
    traj, env = _small_traj()
    p = tmp_path / "t.csv"
    cli_io.write_trajectory_csv(traj, p, case_env=env)
    cols = cli_io.read_trajectory_csv(p)
    np.testing.assert_array_equal(cols["k"], traj.eval_points)
    np.testing.assert_array_equal(cols["loss"], traj.loss)
    np.testing.assert_array_equal(cols["min_grad_sq"], traj.min_grad_sq)
    np.testing.assert_array_equal(cols["g_k"], traj.g_series)
    np.testing.assert_array_equal(cols["envelope_case"][1:], env.values)
    assert np.isinf(cols["envelope_det"][0]) and np.isnan(cols["envelope_case"][0])


def test_trajectory_csv_without_envelope(tmp_path):
    traj, _ = _small_traj()
    traj.g_series = None
    p = tmp_path / "t.csv"
    cli_io.write_trajectory_csv(traj, p)
    cols = cli_io.read_trajectory_csv(p)
    assert np.isnan(cols["envelope_case"]).all()
    assert np.isnan(cols["g_k"]).all()
    assert np.isfinite(cols["envelope_det"][1:]).all()


def test_read_trajectory_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("k,loss\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        cli_io.read_trajectory_csv(p)


def _small_report():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.2)
    sched = StepSizeSchedule("inverse_k", 0.2)
    a = stats.run_multi_seed(pb, sched, sf.uniform_root(0.3, 0.8), 100,
                             n_seeds=3, master_seed=5, eval_every=10, checkpoints=[50, 100])
    b = stats.run_multi_seed(pb, sched, sf.constant(1.0), 100,
                             n_seeds=3, master_seed=5, eval_every=10, checkpoints=[50, 100])
    return stats.compare(a, b, metric="min_grad_sq")


def test_report_round_trip_lossless(tmp_path):
    rep = _small_report()
    p = tmp_path / "report.csv"
    cli_io.write_report(rep, p)
    back = cli_io.read_report(p)
    assert back == rep
    cli_io.write_report(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()


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
                      p, xlabel="k", ylabel="v", logx=True)
    body = p.read_text()
    assert body.count("<polyline") == 2
    assert body.count("</svg>") == 1
    assert "alpha" in body and "beta" in body
    cli_io.render_svg({"alpha": (xs, np.array([1.0, 2.0])),
                       "beta": (xs, np.array([3.0, 4.0]))},
                      tmp_path / "again.svg", xlabel="k", ylabel="v", logx=True)
    assert (tmp_path / "again.svg").read_bytes() == p.read_bytes()


def test_render_svg_drops_nonpositive_on_log_axes(tmp_path):
    p = tmp_path / "plot.svg"
    xs = np.array([0.0, 1.0, 10.0])
    cli_io.render_svg({"a": (xs, np.array([0.5, 1.0, 2.0]))}, p, logx=True, logy=True)
    assert p.read_text().count("<polyline") == 1
    with pytest.raises(ValueError):
        cli_io.render_svg({}, tmp_path / "empty.svg")
    with pytest.raises(ValueError):
        cli_io.render_svg({"a": (np.array([-1.0]), np.array([-1.0]))},
                          tmp_path / "neg.svg", logx=True, logy=True)


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


def test_cli_run_outputs(tmp_path):
    cfg = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 2")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli_io.main(["run", "--config", path, "--out", str(out)]) == 0
    files = sorted(f.name for f in out.iterdir())
    assert files == ["metadata.txt", "run_seed000.csv", "run_seed001.csv"]
    meta = (out / "metadata.txt").read_text()
    assert "config_digest" in meta and "rng_algorithm = pcg64-seedseq-v1" in meta
    header = (out / "run_seed000.csv").read_text().splitlines()[0]
    assert header == cli_io.TRAJECTORY_HEADER


def test_cli_run_respects_config_out_dir(tmp_path):
    cfg = GOOD_CONFIG.replace("n_seeds = 3", "n_seeds = 2") + f"out_dir = {tmp_path}/from_cfg\n"
    path = _write_cfg(tmp_path, cfg)
    assert cli_io.main(["run", "--config", path]) == 0
    assert (tmp_path / "from_cfg" / "run_seed000.csv").exists()


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
    # One of four seeds diverges in arm a: its pair is excluded and not
    # digest-checked, the other three are.
    pa = _write_cfg(tmp_path, DIVERGING_ARM.format(eta=3, sf="sf = uniform_root\nsf.c1 = 0.01\nsf.c2 = 2.0"), "a.txt")
    pb_ = _write_cfg(tmp_path, DIVERGING_ARM.format(eta=3, sf="sf = constant\nsf.value = 0.001"), "b.txt")
    out = tmp_path / "cmp"
    assert cli_io.main(["compare", "--config-a", pa, "--config-b", pb_, "--out", str(out)]) == 0
    txt = (out / "report.txt").read_text()
    assert txt.startswith("paired gradient streams verified identical for 3 of 4 seeds; "
                          "seeds with a diverged arm are not checked\n")
    assert "excluded diverged runs: 1 from a, 0 from b" in txt
    rep = cli_io.read_report(out / "report.csv")
    assert (rep.n_a, rep.excluded_a, rep.n_b, rep.excluded_b) == (3, 1, 4, 0)


def test_cli_envelope_outputs(tmp_path):
    cfg = GOOD_CONFIG.replace("iterations = 100", "iterations = 2000") \
                     .replace("n_seeds = 3", "n_seeds = 2")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "env"
    assert cli_io.main(["envelope", "--config", path, "--out", str(out)]) == 0
    names = {f.name for f in out.iterdir()}
    assert names == {"trajectory.csv", "diagnostic.txt"}
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
    last = (out / "diagnostic.txt").read_text().splitlines()[-1]
    assert last == ("diagnostic = unavailable (window k in [10, 10] is empty: "
                    "needs eval_every < iterations)")
    assert len(cli_io.read_trajectory_csv(out / "trajectory.csv")["k"]) == 2


def test_cli_envelope_case_flag_overrides_config(tmp_path):
    cfg = GOOD_CONFIG.replace("theorem_case = case12\n", "")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "env2"
    # without a case anywhere the command refuses
    assert cli_io.main(["envelope", "--config", path, "--out", str(out)]) == 1
    assert cli_io.main(["envelope", "--config", path, "--case", "case12",
                        "--out", str(out)]) == 0
    assert "case = case12" in (out / "diagnostic.txt").read_text()


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


def test_cli_usage_errors_exit_two():
    assert cli_io.main(["frobnicate"]) == 2
    assert cli_io.main(["run"]) == 2  # --config is required
