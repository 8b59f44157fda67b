"""The package surface the benchmark under ``perfbench/`` calls still exists.

``perfbench/tracer.py`` wraps each ``module.function`` in its ``TARGETS``,
and ``perfbench/setup_probe.py`` calls ``load_config``, ``build_problem``,
``build_schedule`` and ``build_sf``.  A refactor that removes one of these
names passes every other test and fails only the benchmark.  The perfbench
files are read here, never imported or changed.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _tracer_targets() -> dict[str, tuple[str, ...]]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = _tracer_targets()
    assert targets
    missing = [f"{module}.{name}" for module, names in targets.items() for name in names
               if not callable(getattr(importlib.import_module(f"slrlab.{module}"), name, None))]
    assert not missing, missing


def test_setup_probe_prints_seconds(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic\nproblem.dim = 3\nschedule = inverse_k\nschedule.eta = 0.1\n"
                   "sf = uniform_root\nsf.c1 = 0.3\nsf.c2 = 0.8\niterations = 10\nmaster_seed = 0\n")
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(cfg)],
                          capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 0.0
