"""The CLI contract over generated configs.

For every valid config, ``validate``, ``run``, ``envelope`` and ``plot``
exit 0 or 1, never 2 (2 means a usage error or a fault).  An exit 1
says why: a condition report with ``holds=no`` on stdout, or an error
message that names a config key or the cause.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slrlab import cli_io
from slrlab.optimizer import SCHEDULE_FAMILIES
from slrlab.validator import TheoremCase

KEYS = ("problem", "schedule", "sf", "iterations", "eval_every", "n_seeds", "master_seed",
        "checkpoints", "theorem_case", "out_dir")
# Causes an exit-1 message may name instead of a key.
CAUSES = ("diverged", "no trajectory CSVs", "non-degenerate", "no plottable points", "malformed row")

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    family = draw(st.sampled_from(["quadratic", "rosenbrock", "logreg"]))
    if family == "quadratic":
        params = [("dim", draw(st.integers(1, 4))), ("cond", draw(st.floats(1.0, 100.0, **finite))),
                  ("sigma", draw(st.floats(0.0, 1.0, **finite))), ("seed", draw(st.integers(0, 3)))]
    elif family == "rosenbrock":
        params = [("sigma", draw(st.floats(0.0, 1.0, **finite)))]
    else:
        params = [("n", draw(st.integers(8, 40))), ("d", draw(st.integers(1, 4))),
                  ("reg", draw(st.floats(0.0, 1.0, **finite))), ("seed", draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        sf_kind, c1 = "uniform_root", draw(st.floats(0.01, 2.0, **finite))
        sf_params = [("c1", c1), ("c2", c1 + draw(st.floats(0.01, 3.0, **finite)))]
    else:
        sf_kind, sf_params = "constant", [("value", draw(st.floats(0.01, 3.0, **finite)))]
    eval_every = draw(st.integers(1, 20))
    iterations = eval_every * draw(st.integers(1, 200 // eval_every))
    return cli_io.ExperimentConfig(
        problem_family=family,
        problem_params=tuple(params),
        schedule_family=draw(st.sampled_from(SCHEDULE_FAMILIES)),
        eta=draw(st.floats(1e-4, 20.0, **finite)),
        sf_kind=sf_kind,
        sf_params=tuple(sf_params),
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


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs())
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
        for argv in commands:
            code, stdout, stderr = _run(argv)
            assert code in (0, 1), (argv[0], text, stderr)
            if code == 1:
                assert _says_why(stdout, stderr), (argv[0], text, stdout, stderr)
