"""slrlab benchmark: runs the CLI on fixed workloads and reports its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each workload's commands run as ``python -m
slrlab.cli_io ...``, one fresh subprocess per command, and the
end-to-end metrics of BENCHMARK.json are reported; times are scaled to
a reference machine speed measured during the run (``calibration.py``),
and the summary line also gives the uncalibrated wall, CPU and set-up
times.
With ``--trace 1`` the workload runs once untraced and twice in the
traced process of ``tracer.py``, all three without calibration; the
per-layer metrics are reported, with the tracing overhead, and every
count must repeat exactly between the two traced runs.  Every command's
artifacts are checked (``checks.py``).  Without ``--workload`` every
workload runs in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (for all
workloads, one such object per workload name).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

# Every process, this one included, runs with one BLAS/OpenMP thread: the
# setting moves both the logreg wall time and the last digits of its outputs.
# It must be set before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

from calibration import SLICE_S, Calibration  # noqa: E402
from checks import check, mismatches  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_PROBES = 9


@dataclass
class Rep:
    """One pass over a workload's command sequence."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0
    optimizer_wall_s: float = 0.0
    steps: int = 0
    peak_rss_kb: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


class Ran(NamedTuple):
    code: int
    seconds: float  # at the reference speed when calibrated, else equal to raw_seconds
    raw_seconds: float
    cpu_seconds: float  # the child's user plus system time
    rss_kb: int
    stderr: str


def program_env(seed: int) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), SLRLAB_SEED=str(seed))


def spawn(argv: list[str], cwd: Path, env: dict[str, str], stdout: Path, cal: Calibration | None = None) -> Ran:
    """Run argv to completion.

    With `cal`, the child is stopped every SLICE_S seconds while a
    calibration sample runs (see calibration.py), and its running time is
    also reported at the reference speed.  os.wait4 gives the child's own
    resource usage, where getrusage(RUSAGE_CHILDREN) would give the maximum
    over every child waited for so far.
    """
    with open(stdout, "w") as out, tempfile.TemporaryFile("w+") as err:
        before = cal.sample() if cal else 0.0
        raw = scaled = 0.0
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                t0 = time.perf_counter()
                if cal is None or select.select([pidfd], [], [], SLICE_S)[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                else:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                dt = time.perf_counter() - t0
                raw += dt
                if not os.WIFSTOPPED(status):
                    proc.returncode = os.waitstatus_to_exitcode(status)
                if cal is not None:
                    after = cal.sample()
                    scaled += cal.scale(dt, before, after)
                    before = after
                if proc.returncode is not None:
                    break
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)
            if proc.returncode is None:  # interrupted: the child may be stopped
                proc.kill()
                proc.wait()
        err.seek(0)
        return Ran(proc.returncode, scaled if cal else raw, raw, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   err.read())


def prepare(workload: Workload, d: Path) -> Path:
    d.mkdir(parents=True)
    for name, text in workload.configs.items():
        (d / name).write_text(text)
    return d


def judge(rep: Rep, workload: Workload, d: Path, cmd: Command, code: int, stdout: str, stderr: str,
          reference: dict | None) -> None:
    """Check one command's exit code and artifacts and account for it in rep."""
    name = cmd.name
    rep.attempted += 1
    if code != 0:
        rep.failures.append(f"{workload.name}/{name}: exit {code}: {stderr.strip()[-300:]}")
        return
    outcome = check(name, d, stdout, workload.configs[cmd.config or workload.config])
    problems = list(outcome.problems)
    if reference is not None:
        problems += mismatches(outcome.observed, reference.get(name), name)
    if problems:
        rep.failures.append(f"{workload.name}/{name}: " + "; ".join(problems[:5]))
    if cmd.runs_optimizer:
        rep.steps += outcome.steps


def run_rep(workload: Workload, d: Path, env: dict[str, str], reference: dict | None,
            cal: Calibration | None) -> Rep:
    rep = Rep()
    prepare(workload, d)
    for i, cmd in enumerate(workload.commands):
        out = d / f"stdout{i}.txt"
        ran = spawn([sys.executable, "-m", "slrlab.cli_io", *cmd.argv], d, env, out, cal)
        rep.wall_s += ran.seconds
        rep.raw_wall_s += ran.raw_seconds
        rep.cpu_s += ran.cpu_seconds
        rep.peak_rss_kb = max(rep.peak_rss_kb, ran.rss_kb)
        if cmd.runs_optimizer:
            rep.optimizer_wall_s += ran.seconds
        judge(rep, workload, d, cmd, ran.code, out.read_text(), ran.stderr, reference)
    shutil.rmtree(d)
    return rep


def setup_times(workload: Workload, d: Path, env: dict[str, str], cal: Calibration) -> tuple[list[float], list[float]]:
    """Set-up seconds at the reference speed and as measured, after one untimed probe that fills the bytecode cache.

    The probe times itself, so it is not stopped; the calibration samples
    taken just before and after it give its speed.
    """
    prepare(workload, d)
    times, raw = [], []
    before = cal.sample()
    for i in range(SETUP_PROBES + 1):
        ran = spawn([sys.executable, str(HERE / "setup_probe.py"), workload.config], d, env, d / "probe.txt")
        after = cal.sample()
        if ran.code != 0:
            raise RuntimeError(f"set-up probe failed with exit {ran.code}: {ran.stderr.strip()[-300:]}")
        if i > 0:
            raw.append(float((d / "probe.txt").read_text()))
            times.append(cal.scale(raw[-1], before, after))
        before = after
    shutil.rmtree(d)
    return times, raw


def measure(workload: Workload, seed: int, seconds: float, work: Path, reference: dict | None) -> dict:
    """End-to-end run: set-up probes, then passes until the next one would overrun `seconds`."""
    env = program_env(seed)
    cal = Calibration(workload.kernel)
    start = time.perf_counter()
    setups, raw_setups = setup_times(workload, work / "setup", env, cal)
    reps: list[Rep] = []
    while True:
        t0 = time.perf_counter()
        reps.append(run_rep(workload, work / f"rep{len(reps)}", env, reference, cal))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return {
        "attempted": sum(r.attempted for r in reps),
        "failures": [f for r in reps for f in r.failures],
        "metrics": {
            "wall_s": statistics.median(r.wall_s for r in reps),
            "setup_s": statistics.median(setups),
            "steps_per_s": sum(r.steps for r in reps) / sum(r.optimizer_wall_s for r in reps),
            "peak_rss_mb": max(r.peak_rss_kb for r in reps) / 1024.0,
        },
        "uncalibrated": {
            "wall_s": statistics.median(r.raw_wall_s for r in reps),
            "cpu_s": statistics.median(r.cpu_s for r in reps),
            "setup_s": statistics.median(raw_setups),
        },
        "samples": {"setup_probes": len(setups), "passes": len(reps),
                    "raw_wall_s": [round(r.raw_wall_s, 3) for r in reps], "cpu_s": [round(r.cpu_s, 3) for r in reps]},
    }


def traced_pass(workload: Workload, d: Path, env: dict[str, str], reference: dict | None) -> tuple[dict, Rep]:
    prepare(workload, d)
    argv = [sys.executable, str(HERE / "tracer.py"), workload.name, "spans.json"]
    ran = spawn(argv, d, env, d / "tracer.txt")
    if ran.code != 0:
        raise RuntimeError(f"traced run failed with exit {ran.code}: {ran.stderr.strip()[-300:]}")
    dump = json.loads((d / "spans.json").read_text())
    rep = Rep(wall_s=ran.seconds)
    for cmd, res in zip(workload.commands, dump["commands"]):
        judge(rep, workload, d, cmd, res["exit"], res["stdout"], "", reference)
    shutil.rmtree(d)
    return dump, rep


def measure_traced(workload: Workload, seed: int, work: Path, reference: dict | None) -> dict:
    """One untraced pass, then two traced passes whose counts must agree exactly."""
    env = program_env(seed)
    plain = run_rep(workload, work / "plain", env, reference, None)
    passes = [traced_pass(workload, work / f"traced{i}", env, reference) for i in range(2)]
    (counts, times), (counts2, times2) = (layer_metrics(dump) for dump, _ in passes)
    failures = plain.failures + [f for _, rep in passes for f in rep.failures]
    differ = [f"{k} ({counts[k]} vs {counts2.get(k)})" for k in counts if counts2.get(k) != counts[k]]
    if differ:
        failures.append(f"{workload.name}: counts differ between the traced runs: " + ", ".join(differ))
    traced_wall = statistics.mean(rep.wall_s for _, rep in passes)
    metrics = dict(counts, **{k: (v + times2[k]) / 2 for k, v in times.items()})
    metrics["trace.overhead_s"] = traced_wall - plain.wall_s
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain.wall_s
    return {
        "attempted": plain.attempted + sum(rep.attempted for _, rep in passes),
        "failures": failures,
        "metrics": metrics,
        "samples": {"untraced_wall_s": plain.wall_s, "traced_wall_s": [rep.wall_s for _, rep in passes]},
    }


def environment() -> dict:
    try:
        import numpy as np

        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
        numpy_version = np.__version__
    except (ImportError, KeyError, TypeError):
        numpy_version, blas = "unknown", "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.split()
        commit = top[1] if Path(top[0]).resolve() == ROOT else "unknown (not a git checkout)"
    except (OSError, subprocess.CalledProcessError, IndexError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        **THREAD_ENV,
    }


def result(res: dict, specs: list[dict]) -> dict:
    metrics = {}
    for spec in specs:
        if spec["name"] not in res["metrics"]:
            raise RuntimeError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": res["metrics"][spec["name"]], "unit": spec["unit"]}
    failed = len(res["failures"])
    return {"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, passed as SLRLAB_SEED (references are checked for {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"], help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--references", type=Path, default=HERE / "references.json",
                        help="reference values for the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slrlab" / "cli_io.py").is_file():
        print(f"error: no slrlab sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    use_refs = args.seed == DEFAULT_SEED
    references = json.loads(args.references.read_text()) if use_refs else {}
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    env_block = environment()
    # The measured commands and the calibration kernel share one CPU, so that
    # the kernel sees the speed the commands saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    results = {}
    try:
        for name in [args.workload] if args.workload else names:
            ref = references.get(name) if use_refs else None
            if use_refs and ref is None:
                raise RuntimeError(f"{args.references} has no reference values for {name}")
            if args.trace:
                res = measure_traced(WORKLOADS[name], args.seed, work / name, ref)
            else:
                res = measure(WORKLOADS[name], args.seed, args.seconds, work / name, ref)
            results[name] = res
    finally:
        shutil.rmtree(work)

    out = {n: result(r, specs) for n, r in results.items()}
    print("environment: " + json.dumps(env_block))
    for name, res in results.items():
        for failure in res["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        err = f"{len(res['failures'])}/{res['attempted']}"
        shown = " | ".join(f"{s['name']} {res['metrics'][s['name']]:.6g} {s['unit']}" for s in specs)
        if "uncalibrated" in res:
            shown += " | uncalibrated: " + ", ".join(f"{k} {v:.6g} s" for k, v in res["uncalibrated"].items())
        print(f"{name} (seed {args.seed}): {shown} | error_frac {len(res['failures']) / res['attempted']:.3g} "
              f"({err}) | samples {json.dumps(res['samples'])}")
    print(json.dumps(out[args.workload] if args.workload else out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
