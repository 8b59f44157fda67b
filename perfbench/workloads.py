"""The benchmark's workloads: generated configs and CLI command sequences.

Every workload is a fixed list of ``slrlab`` commands run from a work
directory that holds the generated config files.  The configs carry a
placeholder ``master_seed = 0``; the workload seed reaches the program
only through the ``SLRLAB_SEED`` override, which replaces master_seed at
load time.
"""

from __future__ import annotations

from dataclasses import dataclass

QUAD = """\
problem = quadratic
problem.dim = 10
problem.cond = 10
problem.sigma = 0.1
schedule = inverse_k
schedule.eta = 0.1
"""
UNIFORM_ROOT = """\
sf = uniform_root
sf.c1 = 0.3
sf.c2 = 0.8
"""

C9_RUN = """\
iterations = 10000
eval_every = 10
n_seeds = 40
master_seed = 0
"""
LOGREG = """\
problem = logreg
problem.n = 20000
problem.d = 50
problem.reg = 0.01
schedule = inverse_sqrt_k
schedule.eta = 0.5
""" + UNIFORM_ROOT + """\
iterations = 5000
eval_every = 10
n_seeds = 8
master_seed = 0
"""
ENVELOPE = QUAD + UNIFORM_ROOT + """\
iterations = 50000
eval_every = 1
n_seeds = 1
master_seed = 0
theorem_case = case12
"""
# A factor family that straddles 1 (0 < c1 < 1 < c2), with c2 on the
# balanced-root curve, lambert.umslr_case_c_c2(0.5): classify_prop1 needs
# the Lambert-W boundary map to settle it, as regime c.
BALANCED_C2 = 1.3043511789010365
STRADDLE = QUAD + f"""\
sf = uniform_root
sf.c1 = 0.5
sf.c2 = {BALANCED_C2!r}
iterations = 50000
eval_every = 1
n_seeds = 1
master_seed = 0
"""


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m slrlab.cli_io <argv>``."""

    argv: tuple[str, ...]
    runs_optimizer: bool

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def config(self) -> str | None:
        """The config file the command reads, if it takes one."""
        return self.argv[self.argv.index("--config") + 1] if "--config" in self.argv else None


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, str]
    commands: tuple[Command, ...]
    config: str  # the config whose set-up is timed; the checks use it for commands without --config
    kernel: str  # the calibration kernel that matches the workload's hot path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-c9",
            configs={
                "a.txt": QUAD + UNIFORM_ROOT + C9_RUN,
                "b.txt": QUAD + "sf = constant\nsf.value = 1.0\n" + C9_RUN,
            },
            commands=(
                Command(
                    ("compare", "--config-a", "a.txt", "--config-b", "b.txt", "--out", "cmp",
                     "--metric", "min_grad_sq"),
                    True,
                ),
            ),
            config="a.txt",
            kernel="small_ops",
        ),
        Workload(
            name="run-logreg-wide",
            configs={"logreg.txt": LOGREG},
            commands=(Command(("run", "--config", "logreg.txt", "--out", "runs"), True),),
            config="logreg.txt",
            kernel="matvec",
        ),
        Workload(
            name="envelope-session",
            configs={"env.txt": ENVELOPE, "straddle.txt": STRADDLE},
            commands=(
                Command(("validate", "--config", "env.txt"), False),
                Command(("validate", "--config", "straddle.txt"), False),
                Command(("envelope", "--config", "env.txt", "--out", "env"), True),
                Command(("plot", "--in", "env", "--out", "env/plot.svg"), False),
            ),
            config="env.txt",
            kernel="small_ops",
        ),
    )
}
