"""The CLI contract over generated configs.

For every valid config, ``validate``, ``run``, ``envelope`` and ``plot``
exit 0 or 1, never 2 (2 means a usage error or a fault).  An exit 1
says why: a condition report with ``holds=no`` on stdout, or an error
message that names a config key or the cause.  ``envelope`` prints
``validate``'s report and certifies no seed where ``validate`` fails.
``compare`` gets pairs of configs that differ only in the sf block,
including pairs where one arm diverges and the other does not.
"""

import contextlib
import dataclasses
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slrlab import cli_io, sf
from slrlab.optimizer import SCHEDULE_FAMILIES, StepSizeSchedule, run_arms, split_seed
from slrlab.validator import TheoremCase

KEYS = ("problem", "schedule", "sf", "iterations", "eval_every", "n_seeds", "master_seed",
        "checkpoints", "theorem_case")
# Causes an exit-1 message may name instead of a key.
CAUSES = ("diverged", "no trajectory CSVs", "non-degenerate", "no plottable points", "malformed row")

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def sf_blocks(draw):
    if draw(st.booleans()):
        c1 = draw(st.floats(0.01, 2.0, **finite))
        return sf.uniform_root(c1, c1 + draw(st.floats(0.01, 3.0, **finite)))
    return sf.constant(draw(st.floats(0.01, 3.0, **finite)))


@st.composite
def configs(draw):
    family = draw(st.sampled_from(["quadratic", "rosenbrock", "logreg"]))
    if family == "quadratic":
        params = [("dim", draw(st.integers(1, 4))), ("cond", draw(st.floats(1.0, 100.0, **finite))),
                  ("sigma", draw(st.floats(0.0, 1.0, **finite)))]
    elif family == "rosenbrock":
        params = [("sigma", draw(st.floats(0.0, 1.0, **finite)))]
    else:
        params = [("n", draw(st.integers(8, 40))), ("d", draw(st.integers(1, 4))),
                  ("reg", draw(st.floats(0.0, 1.0, **finite))), ("seed", draw(st.integers(0, 3)))]
    spec = draw(sf_blocks())
    eval_every = draw(st.integers(1, 20))
    iterations = eval_every * draw(st.integers(1, 200 // eval_every))
    return cli_io.ExperimentConfig(
        problem_family=family,
        problem_params=tuple(params),
        schedule=StepSizeSchedule(draw(st.sampled_from(SCHEDULE_FAMILIES)),
                                  draw(st.floats(1e-4, 20.0, **finite))),
        sf=spec,
        iterations=iterations,
        eval_every=eval_every,
        n_seeds=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**32)),
        theorem_case=draw(st.sampled_from(list(TheoremCase))),
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_io.main(argv)
    return code, out.getvalue(), err.getvalue()


def _says_why(stdout, stderr):
    if "holds=no" in stdout:
        return True
    message = stderr.removeprefix("error: ")
    return any(re.search(rf"\b{re.escape(key)}\b", message) for key in KEYS) or any(c in message for c in CAUSES)


def _edge(eta, value):
    return cli_io.ExperimentConfig(
        problem_family="quadratic", problem_params=(("dim", 2), ("cond", 1.0), ("sigma", 0.0)),
        schedule=StepSizeSchedule("constant", eta), sf=sf.constant(value), iterations=100, eval_every=10,
        n_seeds=2, master_seed=0, theorem_case=TheoremCase.CASE_11B)


# A case12 config whose gates all hold, and the same with a constant
# schedule, which fails Assumption 2 alone.
CASE12 = cli_io.ExperimentConfig(
    problem_family="quadratic", problem_params=(("dim", 5), ("cond", 10.0), ("sigma", 0.1)),
    schedule=StepSizeSchedule("inverse_k", 0.1), sf=sf.uniform_root(0.3, 0.8), iterations=200, eval_every=10,
    n_seeds=2, master_seed=7, theorem_case=TheoremCase.CASE_12)


# Step sizes, step sums and envelopes beyond the range of a double, which
# read inf or 0: once a numpy warning each, and exit 2 where it is an error.
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs())
@example(cfg=_edge(1e160, 1e-170))  # Assumption 2's square sum overflows
@example(cfg=_edge(1e200, 1e200))  # the step sizes eta_k * u_k overflow
@example(cfg=_edge(1e-300, 1e-300))  # mean * S_k underflows to 0 in the envelope
@example(cfg=_edge(1e307, 1e-308))  # S_k overflows
@example(cfg=CASE12)
@example(cfg=dataclasses.replace(CASE12, schedule=StepSizeSchedule("constant", 0.05)))
def test_valid_configs_exit_zero_or_one_with_a_reason(cfg):
    text = cli_io.format_config(cfg)
    assert cli_io.parse_config(text) == cfg
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "cfg.txt"
        path.write_text(text)
        commands = [
            ["validate", "--config", str(path)],
            ["run", "--config", str(path), "--out", str(tmp / "runs")],
            ["plot", "--in", str(tmp / "runs"), "--out", str(tmp / "runs.svg")],
            ["envelope", "--config", str(path), "--out", str(tmp / "env")],
            ["plot", "--in", str(tmp / "env"), "--out", str(tmp / "env.svg")],
        ]
        results = [_run(argv) for argv in commands]
    for argv, (code, stdout, stderr) in zip(commands, results):
        assert code in (0, 1), (argv[0], text, stderr)
        if code == 1:
            assert _says_why(stdout, stderr), (argv[0], text, stdout, stderr)
    # Every config has a case: `envelope`'s report block is `validate`'s
    # stdout, and a seed is certified only where `validate` exits 0.
    (validate_code, validate_out, _), (code, stdout, _) = results[0], results[3]
    if code == 0:
        lines = stdout.splitlines(keepends=True)
        end = next(i for i, line in enumerate(lines) if line.startswith("diagnostic = "))
        assert lines[2] == "\n" and "".join(lines[3:end]) == validate_out, text
        assert lines[1] == "certified = no\n" or validate_code == 0, text


@st.composite
def compare_pairs(draw):
    a = dataclasses.replace(draw(configs()), n_seeds=draw(st.integers(2, 4)))
    # Arm b's factors, scaled down or up so that often one arm diverges
    # and the other does not.
    spec = draw(sf_blocks())
    scale = draw(st.sampled_from([1e-3, 1.0, 1e2]))
    scaled = {name: getattr(spec, name) * scale for name in sf.KIND_ARGUMENTS[spec.kind]}
    return a, dataclasses.replace(a, sf=sf.SFSpec(spec.kind, **scaled))


# The config that once made `compare` exit 2: inverse_k with eta 50 on a
# quadratic, the unit factor (every seed diverges) against 0.001 (none do).
ONE_ARM_DIVERGES = cli_io.ExperimentConfig(
    problem_family="quadratic",
    problem_params=(("dim", 4), ("cond", 10.0), ("sigma", 0.1)),
    schedule=StepSizeSchedule("inverse_k", 50.0), sf=sf.constant(1.0),
    iterations=1000, eval_every=10, n_seeds=4, master_seed=0,
)
# A factor support that is wide in the first steps: some seeds diverge.
SOME_SEEDS_DIVERGE = dataclasses.replace(
    ONE_ARM_DIVERGES, schedule=StepSizeSchedule("inverse_k", 2.5), sf=sf.uniform_root(0.001, 4.0),
    iterations=200, n_seeds=4)


def _diverged(path):
    """Per seed, whether the run of the config in ``path`` diverges."""
    cfg = cli_io.load_config(path)
    seeds = [split_seed(cfg.master_seed, i) for i in range(cfg.n_seeds)]
    trajs = run_arms(cli_io.build_problem(cfg), cli_io.build_schedule(cfg), [cli_io.build_sf(cfg)],
                     cfg.iterations, cfg.eval_every, seeds=seeds)[0]
    return [t.diverged for t in trajs]


# A noise-free problem gives equal runs per arm: Welch's zero-variance
# convention applies and warns.
@pytest.mark.filterwarnings("ignore:welch_t. zero variances")
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(pair=compare_pairs())
@example(pair=(ONE_ARM_DIVERGES, dataclasses.replace(ONE_ARM_DIVERGES, sf=sf.constant(0.001))))
@example(pair=(dataclasses.replace(ONE_ARM_DIVERGES, sf=sf.constant(0.001)), ONE_ARM_DIVERGES))
@example(pair=(SOME_SEEDS_DIVERGE, dataclasses.replace(SOME_SEEDS_DIVERGE, sf=sf.constant(0.05))))
def test_compare_exits_zero_or_one_and_states_its_pairing(pair):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [tmp / "a.txt", tmp / "b.txt"]
        for cfg, path in zip(pair, paths):
            path.write_text(cli_io.format_config(cfg))
        code, stdout, stderr = _run(["compare", "--config-a", str(paths[0]), "--config-b", str(paths[1]),
                                     "--out", str(tmp / "cmp")])
        div_a, div_b = (_diverged(p) for p in paths)
    assert code in (0, 1), (pair, stderr)
    too_few = min(div_a.count(False), div_b.count(False)) < 2
    assert (code == 1) == too_few, (pair, stdout, stderr)
    if code == 1:
        assert stderr.startswith("error: fewer than 2 non-diverged runs"), stderr
        return
    # The README's rule: the runner checks every row's draws, a diverged
    # arm's too, so the first line is the same whoever diverged.
    assert stdout.splitlines()[0] == "paired gradient streams verified identical per seed"
