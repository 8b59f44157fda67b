"""Mutation gate: every mutant of ``src/slrlab`` must fail the tests named with it.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py [NAME ...]

Each mutant is one exact-text patch of one file under ``src/``: its old
text must occur exactly once in that file.  It is applied to a fresh
temporary copy of ``src/`` (the working tree is never changed), and its
test files run with ``pytest -x`` against that copy.  The tests first run
once on an unpatched copy, where they must pass.  A mutant that the tests
pass survives, and the gate exits 1 unless its entry is marked equivalent
with a reason; an entry marked equivalent that the tests kill also fails
the gate, since it is not equivalent.  Each mutant's line gives the
seconds its run took.  Names select mutants; none runs them all.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # under src/slrlab
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root
    equivalent: str | None = None  # why no test can tell the mutant from the code


RUNNER_TESTS = ("tests/test_batching.py", "tests/test_optimizer.py")
LOGREG_TESTS = ("tests/test_problems.py", "tests/test_batching.py")
STATS_TESTS = ("tests/test_stats.py",)
# The exhaustive tie test runs first: a failing hypothesis test spends its time shrinking.
PLOT_TESTS = ("tests/test_cli_io.py::test_hundredths_text_at_every_tie_below_1000_and_its_neighbours",
              "tests/test_cli_io.py::test_render_svg_drops_a_repeated_vertex_as_the_text_rule_does",
              "tests/test_cli_io.py::test_hundredths_text_is_the_percent_2f_text")
READER_TESTS = ("tests/test_cli_io.py::test_read_trajectory_csv_names_the_file_and_the_bad_row",)

MUTANTS = (
    # The runner (optimizer.run_arms).  A block's steps overwrite its
    # step sizes with its iterates, which are then read once.
    Mutant("eval-buffer-write-dropped", "optimizer.py", "            E[len(E) - len(at):] = at\n", "", RUNNER_TESTS),
    Mutant("eval-at-block-start-dropped", "optimizer.py", "            E[:len(E) - len(at)] = X_start\n", "",
           RUNNER_TESTS),
    Mutant("block-end-iterate-not-copied", "optimizer.py", "X = X.copy()  #", "X = X  #", RUNNER_TESTS),
    Mutant("nonfinite-event-one-step-early", "optimizer.py",
           "nonfinite_at[bad] = k0 + 1 + (", "nonfinite_at[bad] = k0 + (", RUNNER_TESTS),
    Mutant("nonfinite-event-n-rec", "optimizer.py",
           "n_rec[r] = (k - 1) // eval_every + 1 if nonfinite_at[i] == k else k // eval_every + 1",
           "n_rec[r] = k // eval_every + 1", RUNNER_TESTS),
    Mutant("box-exit-never-uncertifies", "optimizer.py",
           "certified[live[((steps < box[0]) | (steps > box[1])).any(axis=(0, 2))]] = False", "pass", RUNNER_TESTS),
    Mutant("box-check-block-end-only", "optimizer.py",
           "((steps < box[0]) | (steps > box[1])).any(axis=(0, 2))", "((X < box[0]) | (X > box[1])).any(axis=1)",
           RUNNER_TESTS),
    Mutant("loss-limit-x10", "optimizer.py",
           "LOSS_DIVERGENCE_LIMIT = 1e12", "LOSS_DIVERGENCE_LIMIT = 1e13", RUNNER_TESTS),
    Mutant("step-loop-view-keeps-block-draws", "optimizer.py", "del draws, draw  #", "del draws  #", RUNNER_TESTS),
    Mutant("pairing-guard-always-true", "optimizer.py",
           "if not _paired(draws, seed_draws, pos, edges):", "if False:", RUNNER_TESTS),
    # The runner's divergence events, eval indices and stack indexing.
    Mutant("tie-won-by-loss-limit", "optimizer.py", "if nonfinite_at[i] == k else",
           "if nonfinite_at[i] == k and loss_at[i] > k else", RUNNER_TESTS),
    Mutant("loss-limit-beats-earlier-nonfinite", "optimizer.py", "stop = np.minimum(nonfinite_at, loss_at)",
           "stop = np.where(loss_at < never, loss_at, nonfinite_at)", RUNNER_TESTS),
    Mutant("final-point-dropped", "optimizer.py", "last = k0 + n == iterations", "last = False", RUNNER_TESTS),
    Mutant("loss-event-one-eval-late", "optimizer.py", "eval_every * (e0 + over[:, hit].argmax(axis=0))",
           "eval_every * (e0 + 1 + over[:, hit].argmax(axis=0))", RUNNER_TESTS),
    Mutant("last-nonfinite-step", "optimizer.py", "(~np.isfinite(steps[:, bad]).all(axis=2)).argmax(axis=0)",
           "(n - 1 - (~np.isfinite(steps[::-1, bad]).all(axis=2)).argmax(axis=0))", RUNNER_TESTS),
    Mutant("running-minimum-keeps-nan", "optimizer.py", "np.fmin.accumulate(", "np.minimum.accumulate(",
           RUNNER_TESTS),
    Mutant("last-eval-index-of-a-middle-block", "optimizer.py", "e1 = (k0 + n - (not last)) // eval_every + 1",
           "e1 = (k0 + n) // eval_every + 1", RUNNER_TESTS),
    Mutant("block-end-finite-check-dropped", "optimizer.py", "bad = np.flatnonzero(~np.isfinite(X).all(axis=1))",
           "bad = np.flatnonzero(np.zeros(len(X), dtype=bool))", RUNNER_TESTS),
    Mutant("factor-streams-indexed-by-position", "optimizer.py", "[sf_rngs[r] for r in live[lo:hi]]",
           "[sf_rngs[r] for r in range(lo, hi)]", RUNNER_TESTS),
    Mutant("shared-draws-indexed-by-live-position", "optimizer.py",
           "pos = np.searchsorted(live_seeds, seed_of[live])", "pos = np.searchsorted(live_seeds, seed_of[:len(live)])",
           RUNNER_TESTS),
    Mutant("arm-with-no-live-rows-sampled", "optimizer.py", "            if hi > lo:\n", "            if True:\n",
           RUNNER_TESTS),
    # A factor law's mean: 0.5 * (lo + hi) overflows at the top of the double range.
    Mutant("uniform-root-mean-sums-first", "sf.py",
           "0.5 * lo + 0.5 * hi", "0.5 * (lo + hi)", ("tests/test_sf.py",)),
    # The logreg eval's group layout (problems.LogReg.value_and_gradient).
    Mutant("logreg-accumulator-zeroed-once-per-batch", "problems.py",
           "            for c0 in range(0, n, rows):\n                chunk = signed[c0:c0 + rows]\n"
           "                accb.fill(0.0)\n",
           "            accb.fill(0.0)\n            for c0 in range(0, n, rows):\n"
           "                chunk = signed[c0:c0 + rows]\n", LOGREG_TESTS),
    Mutant("logreg-gradient-not-transposed", "problems.py",
           "G = G.transpose(0, 2, 1).reshape(-1, d)[:S]", "G = G.reshape(-1, d)[:S]", LOGREG_TESTS),
    Mutant("logreg-batch-one-group-short", "problems.py",
           "part = slice(g0, g0 + batch)", "part = slice(g0, g0 + batch - 1)", LOGREG_TESTS),
    # The %.17g kernel (fmt17.decimal17).
    Mutant("fmt17-ties-rounded-half-up", "fmt17.py",
           "    exact &= np.abs(lo - 0.5) >= MARGIN\n    d += lo > 0.5\n", "    d += lo >= 0.5\n",
           ("tests/test_fmt17.py",)),
    Mutant("fmt17-carry-dropped", "fmt17.py",
           "    carry = d == 10**17\n    d[carry] = 10**16\n    p += carry\n", "", ("tests/test_fmt17.py",)),
    Mutant("fmt17-margin-zero", "fmt17.py", "MARGIN = 2.0**-40", "MARGIN = 0.0", ("tests/test_fmt17.py",)),
    # A report's notes (stats.ComparisonReport.notes).
    Mutant("report-notes-need-both-sides-excluded", "stats.py",
           "if self.excluded_a or self.excluded_b:", "if self.excluded_a and self.excluded_b:",
           ("tests/test_cli_io.py",)),
    # The statistics (stats).
    Mutant("bonferroni-uncorrected", "stats.py", "thresh = fwer / m", "thresh = fwer", STATS_TESTS),
    Mutant("bonferroni-boundary-exclusive", "stats.py",
           "return [p <= thresh for p in p_values]", "return [p < thresh for p in p_values]", STATS_TESTS),
    Mutant("welch-power-of-two-scaling-dropped", "stats.py", "    a, b = np.ldexp(a, -e), np.ldexp(b, -e)\n", "",
           ("tests/test_stats.py::test_welch_t_is_unchanged_bit_for_bit_by_a_common_power_of_two_scale",)),
    Mutant("welch-df-with-nb", "stats.py", "(vb / nb) ** 2 / (nb - 1))", "(vb / nb) ** 2 / nb)", STATS_TESTS),
    Mutant("compare-one-problem-check-off", "stats.py", "if (fam_a, params_a) != (fam_b, params_b):", "if False:",
           STATS_TESTS),
    # A condition's first failing k (validator._first_failure).
    Mutant("first-failure-neighbour-offset-dropped", "validator.py",
           "k = int(np.argmax(~ok)) + int(pairs)", "k = int(np.argmax(~ok))", ("tests/test_validator.py",)),
    # The plot's exact %.2f text and its repeat rule (cli_io.render_svg).
    Mutant("svg-tie-fallback-dropped", "cli_io.py", "_TIE_MARGIN = 1e-6", "_TIE_MARGIN = 0.0", PLOT_TESTS),
    Mutant("svg-repeat-rule-x-only", "cli_io.py", "moved[1:] = (qx[1:] != qx[:-1]) | (qy[1:] != qy[:-1])",
           "moved[1:] = qx[1:] != qx[:-1]", PLOT_TESTS),
    # The trajectory reader's fall-back to the row-by-row parse (cli_io.read_trajectory_csv).
    Mutant("trajectory-blank-row-kept", "cli_io.py", "if data is None or data.shape != (len(body), len(names)):",
           "if data is None:", READER_TESTS),
    Mutant("trajectory-refused-rows-not-reparsed", "cli_io.py",
           "ndmin=2)\n        except ValueError:\n            pass\n",
           "ndmin=2)\n        except ValueError:\n            raise\n", READER_TESTS),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _env(src: Path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(src: Path, tests: tuple[str, ...]) -> tuple[int | None, float, str]:
    """pytest's exit code on ``tests`` against the package in ``src`` (None on timeout), its seconds, and its
    first failure line ("" if none)."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=_env(src), capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, ""
    failures = (line.split(" - ")[0] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR ")))
    return done.returncode, time.perf_counter() - start, next(failures, "")


def _patched(mutant: Mutant) -> str:
    text = (ROOT / "src" / "slrlab" / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its old text occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not names or m.name in names]
    patched = [_patched(m) for m in mutants]  # every old text is checked before any run
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        where = subprocess.run([sys.executable, "-c", "import slrlab; print(slrlab.__file__)"], env=_env(src),
                               capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            raise SystemExit(f"slrlab imports from {where}, not from the copy of src/")
        tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        code, seconds, first = _pytest(src, tests)
        if code != 0:
            print(f"the tests fail on the unpatched copy (pytest exit {code}): {first or ' '.join(tests)}")
            return 1
        print(f"unpatched: {len(tests)} test files pass in {seconds:.1f} s")
    failed = 0
    for mutant, text in zip(mutants, patched):
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            (src / "slrlab" / mutant.file).write_text(text)
            code, seconds, first = _pytest(src, mutant.tests)
        if code == 1 or code is None:
            outcome = f"killed ({first})" if code == 1 else "timed out"
            if mutant.equivalent is not None:
                outcome += " but marked equivalent"
                failed += 1
        elif code == 0:
            outcome = "survived" if mutant.equivalent is None else f"equivalent: {mutant.equivalent}"
            failed += mutant.equivalent is None
        else:
            outcome = f"did not run (pytest exit {code})"
            failed += 1
        print(f"{seconds:7.1f} s  {mutant.name}: {outcome}", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants pass the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
