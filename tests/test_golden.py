"""CLI outputs pinned byte for byte.

``tests/data/golden`` holds small configs and the files the CLI wrote
for them.  Rerunning the same commands must reproduce every file
exactly: a change that moves a single bit of a trajectory, a report or
a plot fails here.  The quadratic compare and envelope files were
re-recorded when the factor supports, the moments and the quadratic's
eigenvalues moved to one scalar power, and ``envelope/diagnostic.txt``
again when ``envelope`` began to print ``validate``'s report (five
inserted lines, every other byte kept); the quadratic and Rosenbrock
files do not depend on the SIMD level numpy dispatches to, and
:func:`test_quadratic_and_rosenbrock_bytes_do_not_depend_on_numpy_simd`
checks that.  Every file does follow the OpenBLAS kernel, though:
``problems.row_dot``, which gives the recorded squared gradient norms and
the quadratic's loss, is a BLAS dot that sums in the kernel's own order.
So the golden bytes hold only where OpenBLAS runs the kernel they were
recorded with (SkylakeX); under ``OPENBLAS_CORETYPE=Haswell`` all four
CLI golden tests fail, and a failure names the kernel that ran.  The
logreg run was re-recorded when its eval moved to fixed data chunks (tag
``eval_algorithm = logreg-chunked-v1``), and again when the products
moved to 16-wide GEMMs over fixed data tiles (``logreg-chunked-v2``;
values within ~1.1e-15 relative of v1).  Its ``exp`` and ``log1p`` are
numpy's SIMD loops, so its bytes also need numpy to dispatch to its
AVX-512 routines; CI prints the SIMD level and the OpenBLAS core.  Its
data fit in one chunk, so it does not exercise the BLAS thread count;
``tests/test_problems.py::test_logreg_eval_bits_do_not_depend_on_blas_threads``
and its per-kernel twin do, on data large enough for BLAS to use threads.
The two ``run`` commands' ``metadata.txt`` files each lost their
``out_dir = out`` line when the config's ``out_dir`` key was removed.
``compare/report.csv`` and ``compare/report.txt`` were re-recorded when
the quadratic lost its ``seed`` parameter, which only its params (and so
its config digest) held: the two ``config_digest`` values are all that
moved.

To re-record after an intended change of results, run from that
directory (with no SLRLAB_SEED set)::

    python -m slrlab.cli_io compare --config-a compare_a.txt --config-b compare_b.txt \\
        --out compare --metric min_grad_sq
    python -m slrlab.cli_io run --config logreg.txt --out run
    python -m slrlab.cli_io run --config rosenbrock.txt --out rosenbrock
    python -m slrlab.cli_io envelope --config envelope.txt --out envelope
    python -m slrlab.cli_io plot --in envelope --out envelope/plot.svg

``theorem_cases.txt`` pins every theorem case on six factor laws and two
schedules through the library: the gating, acceleration and increment
reports, and the envelope's bytes or its error.  Re-record it with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import ctypes
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slrlab import cli_io, harness, optimizer, problems, sf, validator
from slrlab.optimizer import StepSizeSchedule

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "compare": [["compare", "--config-a", "compare_a.txt", "--config-b", "compare_b.txt",
                 "--out", "compare", "--metric", "min_grad_sq"]],
    "run": [["run", "--config", "logreg.txt", "--out", "run"]],
    # Four seeds: one diverges at k = 8, two leave the [-2, 2]^2 box.
    "rosenbrock": [["run", "--config", "rosenbrock.txt", "--out", "rosenbrock"]],
    "envelope": [["envelope", "--config", "envelope.txt", "--out", "envelope"],
                 ["plot", "--in", "envelope", "--out", "envelope/plot.svg"]],
}


def _openblas_core() -> str:
    """The core numpy's OpenBLAS runs, looked up as CI's log step does, or "unknown"."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*"))
    get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
    if get is None:
        return "unknown"
    get.restype = ctypes.c_char_p
    return get().decode()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_outputs_match_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    for cfg in GOLDEN.glob("*.txt"):
        shutil.copy(cfg, tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS[name]:
        assert cli_io.main(argv) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in (tmp_path / name).iterdir()) == expected
    for fname in expected:
        got = (tmp_path / name / fname).read_bytes()
        assert got == (GOLDEN / name / fname).read_bytes(), (
            f"{name}/{fname} differs from the golden file (recorded under the SkylakeX OpenBLAS core; "
            f"this run's is {_openblas_core()})")


# numpy's dispatch targets above the x86-64 baseline: numpy 2.4 names the
# first four, older versions the others.  numpy ignores a name it does
# not know, with an ImportWarning.
_NO_SIMD = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR AVX512F AVX512_SKX AVX512_CLX AVX512_CNL AVX2 FMA3"
_RUN_COMMANDS = "import json, sys\nfrom slrlab import cli_io\nsys.exit(any(cli_io.main(a) for a in json.loads(sys.argv[1])))"


def _outputs(workdir, names, env):
    workdir.mkdir()
    for cfg in GOLDEN.glob("*.txt"):
        shutil.copy(cfg, workdir)
    argvs = [argv for name in names for argv in COMMANDS[name]]
    subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(argvs)], cwd=workdir, env=env,
                   capture_output=True, check=True, timeout=120)
    return {str(p.relative_to(workdir)): p.read_bytes() for name in names for p in (workdir / name).iterdir()}


def test_quadratic_and_rosenbrock_bytes_do_not_depend_on_numpy_simd(tmp_path):
    # Once with numpy's default dispatch, once with its SIMD routines off.
    names = ["compare", "envelope", "rosenbrock"]
    src = str(Path(cli_io.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("SLRLAB_SEED", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    default = _outputs(tmp_path / "default", names, env)
    baseline = _outputs(tmp_path / "baseline", names, dict(env, NPY_DISABLE_CPU_FEATURES=_NO_SIMD))
    assert sorted(default) == sorted(baseline)
    assert len(default) == sum(len(list((GOLDEN / name).iterdir())) for name in names)
    differ = [fname for fname in sorted(default) if default[fname] != baseline[fname]]
    assert not differ, f"these files depend on numpy's SIMD dispatch: {differ}"


# The last law's mean - variance is <= 0 from k = 0, so case11a and
# case12 have no envelope for it.
_LAWS = {
    "uniform_root(0.3, 0.8)": sf.uniform_root(0.3, 0.8),
    "uniform_root(2.0, 4.0)": sf.uniform_root(2.0, 4.0),
    "uniform_root(0.5, 1.3043511789010365)": sf.uniform_root(0.5, 1.3043511789010365),
    "constant(1.0)": sf.constant(1.0),
    "constant(0.5)": sf.constant(0.5),
    "uniform_root(0.01, 100.0)": sf.uniform_root(0.01, 100.0),
}
_SCHEDULES = (StepSizeSchedule("inverse_k", 0.5), StepSizeSchedule("constant", 0.05))


def theorem_case_text() -> str:
    """Every case's reports and envelope on each law and schedule, as text."""
    blocks = []
    ks = np.arange(1, 301)
    for case in validator.TheoremCase:
        for name, law in _LAWS.items():
            profile = sf.moment_profile(law, 300)
            for schedule in _SCHEDULES:
                reports = validator.check_theorem_case(profile, case, 1.5, 2.0, schedule, horizon=200)
                reports += [validator.acceleration_check(profile, case), validator.increment_check(profile, case)]
                try:
                    values = harness.envelope_series(case, law, schedule, ks).values
                    env = (f"envelope sha256={hashlib.sha256(values.tobytes()).hexdigest()} "
                           f"first={float(values[0])!r} last={float(values[-1])!r}")
                except ValueError as e:
                    env = f"envelope ValueError: {e}"
                blocks.append(f"== {case.value} | {name} | {schedule.family} eta={schedule.eta!r}\n"
                              + validator.format_reports(reports) + env + "\n")
    return "".join(blocks)


def test_every_theorem_case_matches_golden_text():
    assert theorem_case_text() == (GOLDEN / "theorem_cases.txt").read_text()


def test_envelope_verdict_does_not_tell_the_cases_apart():
    # Every case envelope of a uniform_root law is (1/S_k)(1 + O(1/k)), and
    # a constant law's is a multiple of 1/S_k: on one trajectory the trend
    # fit reads each case as it reads the deterministic envelope.
    sched = StepSizeSchedule("inverse_k", 0.1)
    traj = optimizer.run(problems.make_quadratic(dim=5, cond=10.0, sigma=0.1), sched, sf.uniform_root(0.3, 0.8),
                         20_000, eval_every=10, seed=0)
    min_grad_sq = traj.min_grad_sq[traj.eval_points >= 1]
    for name, law in {**_LAWS, "uniform_root(1.0, 1.2)": sf.uniform_root(1.0, 1.2)}.items():
        base = harness.little_o_diagnostic(
            min_grad_sq, harness.trajectory_envelope(traj, validator.TheoremCase.DETERMINISTIC, law, sched), 200, 20_000)
        for case in validator.TheoremCase:
            try:
                env = harness.trajectory_envelope(traj, case, law, sched)
            except ValueError:  # no envelope for this case and law
                continue
            diag = harness.little_o_diagnostic(min_grad_sq, env, 200, 20_000)
            assert diag.verdict is base.verdict, f"{case.value} on {name}"
            assert abs(diag.window_slope - base.window_slope) < 1e-3, f"{case.value} on {name}"


if __name__ == "__main__":
    (GOLDEN / "theorem_cases.txt").write_text(theorem_case_text())
