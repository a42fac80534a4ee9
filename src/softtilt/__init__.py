"""Exponential-tilt updates over discrete joint tables.

Exact-rational probability tables, closed-form KL-regularized solvers,
interaction extraction with reward calibration, gauge-class comparison,
cross-direction coherence audits, and certified countable-support
log-normalizers. See the README for the JSON formats and the CLI.

`_HOMES` is the one list of public names, each under the module that
defines it. A name is imported from its home on first use (PEP 562) and
then kept here, so `import softtilt` loads no submodule, and a program that
never uses `countable` never loads it.
"""

import importlib

_HOMES = {
    "coherence": (
        "DirectionPair", "EventValueFunction", "OrderIndependenceReport", "build_problem",
        "commutativity_residual", "order_independence_check",
    ),
    "countable": (
        "CertificateStatus", "CountableFamily", "TruncatedTilt", "TruncationCertificate",
        "log_normalizer_truncated", "tilt_truncated",
    ),
    "dist": (
        "Assignment", "DistVector", "JointTable", "VariableSpec", "as_assignment", "conditional",
        "iter_group_assignments", "marginal", "pmi", "total_variation",
    ),
    "errors": (
        "CoverageMismatch", "DegenerateProblem", "InadmissibleSignal", "InfiniteInteraction",
        "InvalidBounds", "MissingContext", "MissingEventValue", "NotFinite", "OutputError",
        "SchemaError", "SoftTiltError", "SupportViolation", "UndefinedPMI", "ValidationError",
        "ZeroMassContext",
    ),
    "fixtures": ("fixture_path", "joint_f1", "joint_f3"),
    "identify": (
        "CalibrationResult", "Direction", "GaugeComparison", "GaugeShift", "InteractionTable",
        "RewardTable", "apply_gauge", "calibrate_rewards", "check_admissibility",
        "construct_posterior", "default_direction", "gauge_equivalent", "identify_interaction",
    ),
    "tilt": (
        "SoftSolution", "SoftUpdateProblem", "SolverConfig", "kl_decomposition_residual",
        "kl_divergence", "logsumexp", "objective_value", "soft_value", "solve_tilt",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _HOMES:  # a submodule, which its import binds here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})
