"""slrlab: SGD with a multiplicative stochastic learning rate.

The update rule is x_{k+1} = x_k - eta_k * u_k * grad_k, where u_k is
a per-iteration random multiplier (the stochasticity factor).  The
package bundles the SF families and their exact moments, precondition
validation for the convergence-rate cases, synthetic problems with
certified constants, the optimizer with paired randomness streams,
rate envelopes with a trend diagnostic, and multi-seed statistical
comparison, all behind a deterministic CLI.
"""

from .harness import LittleODiagnostic, RateEnvelope, Verdict, envelope_series, gk_sequence, little_o_diagnostic
from .lambert import lambert_w0, umslr_case_c_c2
from .optimizer import StepSizeSchedule, Trajectory, run, run_arms, split_seed, step_size
from .problems import GradientSample, ProblemSpec, make_logreg_nonconvex, make_quadratic, make_rosenbrock
from .sf import Direction, MomentProfile, SFSpec, moment_profile, sample
from .stats import ComparisonReport, bonferroni, compare, run_multi_seed, run_paired, welch_t
from .validator import ConditionReport, TheoremCase, acceleration_check, check_assumption2, check_theorem_case, classify_prop1

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConditionReport",
    "Direction",
    "GradientSample",
    "LittleODiagnostic",
    "MomentProfile",
    "ProblemSpec",
    "RateEnvelope",
    "SFSpec",
    "StepSizeSchedule",
    "TheoremCase",
    "Trajectory",
    "Verdict",
    "acceleration_check",
    "bonferroni",
    "check_assumption2",
    "check_theorem_case",
    "classify_prop1",
    "compare",
    "envelope_series",
    "gk_sequence",
    "lambert_w0",
    "little_o_diagnostic",
    "make_logreg_nonconvex",
    "make_quadratic",
    "make_rosenbrock",
    "moment_profile",
    "run",
    "run_arms",
    "run_multi_seed",
    "run_paired",
    "sample",
    "split_seed",
    "step_size",
    "umslr_case_c_c2",
    "welch_t",
]
