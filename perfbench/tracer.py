"""Traced in-process run of one workload, for the per-layer metrics.

Usage (from a directory holding the workload's configs, with the
package's ``src`` on PYTHONPATH)::

    python perfbench/tracer.py <workload> <out.json>

The public functions of each slrlab module listed in TARGETS are
wrapped by reassigning every module attribute that refers to them, so
callers that imported a function by name (``run`` in ``stats`` and
``cli_io``, ``step_size`` in ``harness``) see the wrapper too.  No file
of the package changes.  The workload's commands then run one after
another through ``slrlab.cli_io.main`` in this process.

Per-step functions are called millions of times, so spans are
aggregated in memory as they close (calls, total time, self time per
name) and written out once at the end.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

TARGETS = {
    "problems": ("stochastic_gradient", "full_gradient", "loss"),
    "sf": ("sample", "moment_profile"),
    "optimizer": ("run", "sgd_step", "step_size"),
    "stats": ("run_multi_seed", "compare", "welch_t"),
    "harness": ("attach_gk", "trajectory_envelope", "little_o_diagnostic"),
    "validator": ("check_theorem_case", "check_assumption2", "classify_prop1"),
    "lambert": ("umslr_case_c_c2",),
    "cli_io": ("load_config", "write_trajectory_csv", "read_trajectory_csv", "render_svg", "write_report"),
}
# Where the file a cli_io function reads or writes is passed: (position, keyword).
FILE_ARG = {
    "cli_io.write_trajectory_csv": (1, "path"),
    "cli_io.read_trajectory_csv": (0, "path"),
    "cli_io.render_svg": (1, "path"),
}


class Tracer:
    """Aggregated spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.draws: dict[int, list[int]] = {}  # run seed -> steps executed by each run with it
        self._children: list[float] = []  # time covered by child spans, one entry per open span

    def wrap(self, name: str, fn, on_return=None):
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - children.pop()
                if children:
                    children[-1] += dt
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def on_run(self, args, kwargs, traj) -> None:
        steps = len(traj.u_series)
        self.count("optimizer.steps", steps)
        self.count("optimizer.evals", len(traj.eval_points))
        self.count("optimizer.runs", 1)
        self.count("optimizer.diverged_runs", traj.diverged)
        self.count("optimizer.traj_bytes", sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray)))
        self.draws.setdefault(traj.seed, []).append(steps)

    def file_hook(self, name: str):
        pos, key = FILE_ARG[name]

        def hook(args, kwargs, result) -> None:
            self.count(name + ".bytes", os.path.getsize(kwargs[key] if key in kwargs else args[pos]))

        return hook

    def install(self) -> None:
        """Wrap every target in every slrlab module that holds a reference to it."""
        import slrlab
        from slrlab import cli_io  # noqa: F401 - loads every module the CLI uses

        modules = [m for n, m in sys.modules.items() if n == "slrlab" or n.startswith("slrlab.")]
        hooks = {"optimizer.run": self.on_run, **{name: self.file_hook(name) for name in FILE_ARG}}
        for mod_name, funcs in TARGETS.items():
            for func in funcs:
                name = f"{mod_name}.{func}"
                orig = getattr(getattr(slrlab, mod_name), func)
                wrapper = self.wrap(name, orig, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def dump(self) -> dict:
        # A (seed, k) gradient draw repeats when an earlier run with the same seed already drew it.
        draws = sum(sum(v) for v in self.draws.values())
        unique = sum(max(v) for v in self.draws.values())
        counters = dict(self.counters, **{"stats.grad_draws.total": draws, "stats.grad_draws.unique": unique})
        return {"spans": self.spans, "counters": counters}


def layer_metrics(dump: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced run, split into exact counts and times."""
    spans, c = dump["spans"], dump["counters"]
    counts: dict[str, float] = {}
    times: dict[str, float] = {}
    for name, (calls, _, self_s) in spans.items():
        counts[f"{name}.calls"] = calls
        times[f"{name}.self_s"] = self_s
    for name in ("optimizer.steps", "optimizer.evals", "optimizer.traj_bytes", "optimizer.diverged_runs"):
        counts[name] = c.get(name, 0)
    for name in FILE_ARG:
        counts[name + ".bytes"] = c.get(name + ".bytes", 0)
    runs = c.get("optimizer.runs", 0)
    counts["stats.included_frac"] = (runs - c.get("optimizer.diverged_runs", 0)) / runs if runs else 0.0
    draws = c["stats.grad_draws.total"]
    counts["stats.grad_draws.dup_frac"] = (draws - c["stats.grad_draws.unique"]) / draws if draws else 0.0
    sg_calls = spans["problems.stochastic_gradient"][0]
    times["problems.stochastic_gradient.us_per_call"] = (
        1e6 * spans["problems.stochastic_gradient"][2] / sg_calls if sg_calls else 0.0)
    steps = c.get("optimizer.steps", 0)
    times["optimizer.us_per_step"] = 1e6 * spans["optimizer.run"][1] / steps if steps else 0.0
    return counts, times


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    workload, out = WORKLOADS[argv[0]], Path(argv[1])
    tracer = Tracer()
    tracer.install()
    from slrlab import cli_io

    commands = []
    for cmd in workload.commands:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli_io.main(list(cmd.argv))
        commands.append({"name": cmd.name, "exit": code, "wall_s": time.perf_counter() - t0,
                         "stdout": buf.getvalue()})
    out.write_text(json.dumps(dict(tracer.dump(), commands=commands)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
