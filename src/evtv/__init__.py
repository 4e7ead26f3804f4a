"""E-value sensitivity analysis for treatments at multiple time points.

The package has three layers.  `evalue` holds the closed-form robustness
algebra: bias factors for joint unmeasured confounding, E-values for a
point estimate or confidence limit, the equal-split and single-timepoint
summaries, and the two-timepoint trade-off curve.  `estimation` and
`simulation` provide the validation engine: a marginal structural model
fit by stabilized inverse-probability weighting, and a fully specified
two-timepoint generating process with known truth.  `report` and `cli`
handle cohort CSV files, JSON reports, and curve export.

Only `estimation`, `simulation` and their helpers `_kernels` and `_rng`
load numpy.  The names below are resolved on first access (PEP 562), so
`import evtv`, `import evtv.cli` and the `evalue`, `convert` and `curve`
commands never load numpy.  The first access to an estimation or
simulation name, a call of `read_cohort_csv` or `write_cohort_csv` (numpy
columns), or a `simulate` or `analyze` command does.
"""

import importlib

__version__ = "0.1.0"

# where each public name is defined; a name is imported on first access
_HOMES = {
    "errors": ("BootstrapFailure", "EstimationError", "PositivityViolation",
               "SingularDesign", "WeightDiagnosticWarning"),
    "estimation": ("Cohort", "MsmResult", "analyze_cohort"),
    "evalue": ("BiasFactor", "ConfounderStrength", "EffectEstimate", "EValueReport",
               "Measure", "NormalizedEstimate", "TradeoffPoint", "adjusted_rr",
               "bias_factor", "build_report", "ci_evalue", "combined_bias",
               "equal_split_evalue", "evalue_from_rr", "normalize_estimate",
               "residual_evalue", "tradeoff_curve"),
    "report": ("CurveDocument", "EmptyFile", "MissingColumn", "NonBinaryValue",
               "curve_document", "read_cohort_csv", "write_cohort_csv", "write_curve",
               "write_report_json"),
    "simulation": ("ExperimentRecord", "GeneratedCohort", "ReplicationResult",
                   "SimulationParams", "generate_cohort", "run_experiment",
                   "run_replications", "true_rr_enumerate", "true_rr_mc"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name in _HOMES:  # `evtv.estimation` after a bare `import evtv`
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
