"""Each command loads only the modules it runs, and nothing from outside
the standard library, numpy and slrlab.

The package root resolves its names on first use, and ``cli_io`` imports
``stats``, ``harness`` and ``fmt17`` in the functions that call them.
Each check runs in a fresh interpreter, since this test process has
loaded the whole package already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slrlab

SRC = Path(slrlab.__file__).resolve().parents[1]
SUBMODULES = ("cli_io", "harness", "lambert", "optimizer", "problems", "sf", "stats", "validator")
WATCHED = ("slrlab.stats", "slrlab.harness", "slrlab.fmt17", "logging")

CONFIG = """\
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
n_seeds = 2
master_seed = 7
theorem_case = case12
"""

# Runs one command through cli_io.main and prints its exit code and the
# watched modules it loaded, as JSON.
COMMAND = f"""
import json, sys
from slrlab import cli_io
code = cli_io.main(sys.argv[1:])
print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))
"""


# Runs every command through cli_io.main in one interpreter and prints, as
# JSON, each module loaded since just before `cli_io` whose file lies
# outside the standard library, numpy and slrlab.  A module with no file
# (a built-in, or a Cython module numpy makes at run time) passes; so does
# one that `site` loaded before the snapshot.
RUNTIME = """
import json, os, site, sys, sysconfig
before = set(sys.modules)
from slrlab import cli_io
for argv in (["validate", "--config", "cfg.txt"], ["run", "--config", "cfg.txt", "--out", "run"],
             ["compare", "--config-a", "cfg.txt", "--config-b", "cfg.txt", "--out", "cmp"],
             ["envelope", "--config", "cfg.txt", "--out", "env"], ["plot", "--in", "env", "--out", "fig.svg"]):
    assert cli_io.main(argv) == 0, argv
import numpy, slrlab

def under(path, roots):
    return any(os.path.commonpath([path, root]) == root for root in roots)

paths = sysconfig.get_paths()
stdlib = {os.path.realpath(paths[key]) for key in ("stdlib", "platstdlib")}
sites = {os.path.realpath(p) for p in (paths["purelib"], paths["platlib"], site.getusersitepackages(),
                                       *site.getsitepackages())}
own = {os.path.dirname(os.path.realpath(m.__file__)) for m in (numpy, slrlab)}
files = {name: os.path.realpath(f) for name in set(sys.modules) - before
         if (f := getattr(sys.modules[name], "__file__", None)) is not None}
print(json.dumps(sorted(name for name, f in files.items()
                        if not (under(f, own) or under(f, stdlib) and not under(f, sites)))))
"""


def _interpreter(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, this package first on its path; asserts exit 0."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("SLRLAB_SEED", None)
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, cwd=cwd, env=env)
    assert done.returncode == 0, done.stderr
    return done


def _python(code: str, *argv: str, cwd: Path) -> str:
    return _interpreter("-c", code, *argv, cwd=cwd).stdout.splitlines()[-1]


def _loaded(tmp_path: Path, *argv: str) -> list[str]:
    code, loaded = json.loads(_python(COMMAND, *argv, cwd=tmp_path))
    assert code == 0, argv
    return loaded


def test_importing_the_package_loads_no_submodule(tmp_path):
    got = _python("import sys, slrlab; print(sorted(m for m in sys.modules if m.startswith('slrlab.')))",
                  cwd=tmp_path)
    assert got == "[]"


@pytest.fixture
def cfg(tmp_path):
    (tmp_path / "cfg.txt").write_text(CONFIG)
    return "cfg.txt"


def test_validate_loads_neither_statistics_nor_envelopes_nor_logging(tmp_path, cfg):
    assert _loaded(tmp_path, "validate", "--config", cfg) == []


def test_plot_loads_neither_statistics_nor_envelopes_nor_logging(tmp_path, cfg):
    from slrlab import cli_io

    assert cli_io.main(["envelope", "--config", str(tmp_path / cfg), "--out", str(tmp_path / "env")]) == 0
    assert _loaded(tmp_path, "plot", "--in", "env", "--out", "fig.svg") == []


def test_run_loads_neither_statistics_nor_logging(tmp_path, cfg):
    # The seeds come from the runner; only the trajectory writer needs
    # `harness` (its g_k column) and `fmt17` (its text).
    assert _loaded(tmp_path, "run", "--config", cfg, "--out", "run") == ["slrlab.harness", "slrlab.fmt17"]


def test_envelope_loads_envelopes_but_not_statistics(tmp_path, cfg):
    assert _loaded(tmp_path, "envelope", "--config", cfg, "--out", "env") == ["slrlab.harness", "slrlab.fmt17"]


def test_compare_loads_neither_envelopes_nor_logging(tmp_path, cfg):
    assert _loaded(tmp_path, "compare", "--config-a", cfg, "--config-b", cfg, "--out", "cmp") == ["slrlab.stats"]


def test_the_commands_load_only_the_standard_library_numpy_and_slrlab(tmp_path, cfg):
    # The runtime dependency is numpy alone, though tests install more
    # (scipy), which a command could import unnoticed.
    assert json.loads(_python(RUNTIME, cwd=tmp_path)) == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_submodule_resolves_through_the_package_before_it_is_imported(tmp_path, name):
    # As perfbench/tracer.py resolves it: getattr on the package, in a
    # fresh interpreter where nothing has imported the submodule yet.
    got = _python(f"import slrlab; print(getattr(slrlab, {name!r}).__name__)", cwd=tmp_path)
    assert got == f"slrlab.{name}"


def test_every_public_name_resolves_through_the_package(tmp_path):
    code = ("import json, slrlab\n"
            "print(json.dumps([[n, getattr(slrlab, n).__module__, n in dir(slrlab)] for n in slrlab.__all__]))")
    for name, module, listed in json.loads(_python(code, cwd=tmp_path)):
        assert listed, name
        assert getattr(importlib.import_module(module), name) is getattr(slrlab, name), name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        slrlab.nonexistent  # noqa: B018


def test_the_import_time_log_shows_the_modules_validate_loads(tmp_path, cfg):
    # `python -X importtime` logs only imports that go through the import
    # statement's path, so the package root must load submodules that way.
    log = _interpreter("-X", "importtime", "-m", "slrlab.cli_io", "validate", "--config", cfg, cwd=tmp_path).stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in log.splitlines() if line.startswith("import time:")}
    assert {"slrlab.problems", "slrlab.validator", "slrlab.lambert"} <= logged
