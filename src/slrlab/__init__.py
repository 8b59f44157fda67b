"""slrlab: SGD with a multiplicative stochastic learning rate.

The update rule is x_{k+1} = x_k - eta_k * u_k * grad_k, where u_k is
a per-iteration random multiplier (the stochasticity factor).  The
package bundles the SF families and their exact moments, precondition
validation for the convergence-rate cases, synthetic problems with
certified constants, the optimizer with paired randomness streams,
rate envelopes with a trend diagnostic, and multi-seed statistical
comparison, all behind a deterministic CLI.
"""

import sys

__version__ = "0.1.0"

# The public names of each module.  A name loads its module on first use,
# so a command imports only the modules it runs.
_EXPORTS = {
    "harness": ("LittleODiagnostic", "RateEnvelope", "Verdict", "envelope_series", "gk_sequence",
                "little_o_diagnostic"),
    "lambert": ("lambert_w0", "umslr_case_c_c2"),
    "optimizer": ("StepSizeSchedule", "Trajectory", "run", "run_arms", "run_paired", "split_seed", "step_size"),
    "problems": ("GradientSample", "ProblemSpec", "make_logreg_nonconvex", "make_quadratic", "make_rosenbrock"),
    "sf": ("Direction", "MomentProfile", "SFSpec", "moment_profile", "sample"),
    "stats": ("ComparisonReport", "bonferroni", "compare", "run_multi_seed", "welch_t"),
    "validator": ("ConditionReport", "TheoremCase", "acceleration_check", "check_assumption2", "check_theorem_case",
                  "classify_prop1"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

# Each name resolved on first use, and its module; a submodule is its own.
_MODULE_OF = {m: m for m in ("cli_io", *_EXPORTS)} | {n: m for m, names in _EXPORTS.items() for n in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # the import statement's path, which `python -X importtime` logs
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
