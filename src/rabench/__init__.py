"""Rational-agent benchmarks and loss decomposition for decision experiments.

Compute what an optimal agent would earn in a decision experiment with and
without its signals (baseline, per-strategy optima, benchmark, value of
information) before running it, and decompose observed behavioral
performance into belief and optimization losses afterwards.

A public name, or a submodule such as ``rabench.model``, is imported on its
first use (PEP 562), so a process loads only the modules it uses: building
a case never compiles the trial-file coder or the config reader.
"""

from importlib import import_module

#: Each module and the public names it gives the package.
_EXPORTS = {
    "agents": ("AgentSpec", "simulate"),
    "behavioral": (
        "EmpiricalJoint", "LossReport", "decisions_from_beliefs", "decompose",
        "ingest", "loss_report", "pooled_loss_report",
    ),
    "cases": ("CaseStudy", "PinnedValue", "build_case", "build_fernandes",
              "build_kale", "build_weather"),
    "config_io": ("design_from_config", "design_to_config", "load_design_config",
                  "save_design_config"),
    "errors": ("ConfigError", "DimensionError", "InvalidModelError", "RabenchError",
               "TrialDataError"),
    "generative": (
        "BoxCoxTDist", "DiscretizedDistribution", "GaussianThresholdDGM",
        "TwoTeamDGM", "discretize", "kale_joint", "pos_to_win_probability",
        "weather_joint", "win_probability_to_pos",
    ),
    "model": ("ActionSpace", "Belief", "ExperimentDesign", "InformationStructure",
              "MatrixRule", "ReportMap", "StateSpace", "TransitRule"),
    "payment": ("AffineConversion", "ConversionRule", "FlooredAffineConversion",
                "IncentiveTable", "incentive_table"),
    "rational": ("RationalReport", "rational_report"),
    "trials": ("TrialTable", "read_trials_csv", "write_trials_csv"),
}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "floattext"})
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # which binds it here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list(__all__)
