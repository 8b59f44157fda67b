"""CLI outputs pinned byte for byte.

``tests/data/golden`` holds small configs and the files the CLI wrote
for them before the optimizer stepped seeds as one batch (the Rosenbrock
run: before each problem family became one class).  Rerunning the
same commands must reproduce every file exactly: a change that moves a
single bit of a trajectory, a report or a plot fails here.  The logreg
run was re-recorded when its eval moved to fixed data chunks (tag
``eval_algorithm = logreg-chunked-v1``).  Its data fit in one chunk, so
it does not exercise the BLAS thread count;
``tests/test_problems.py::test_logreg_eval_bits_do_not_depend_on_blas_threads``
does, on data large enough for BLAS to use threads.

To re-record after an intended change of results, run from that
directory (with no SLRLAB_SEED set)::

    python -m slrlab.cli_io compare --config-a compare_a.txt --config-b compare_b.txt \\
        --out compare --metric min_grad_sq
    python -m slrlab.cli_io run --config logreg.txt --out run
    python -m slrlab.cli_io run --config rosenbrock.txt --out rosenbrock
    python -m slrlab.cli_io envelope --config envelope.txt --out envelope
    python -m slrlab.cli_io plot --in envelope --out envelope/plot.svg
"""

import shutil
from pathlib import Path

import pytest

from slrlab import cli_io

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
        assert got == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} differs from the golden file"
