"""The package imports scipy only where a design needs a special function,
and exports a pinned set of public names."""

import json
import subprocess
import sys

import pytest

SCIPY_MODULES = ("import sys, json; "
                 "print(json.dumps(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')))")


def loaded_scipy_modules(code: str, cwd) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{SCIPY_MODULES}"],
                          capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_weather_runs_without_scipy(tmp_path):
    code = "\n".join([
        "import rabench",
        "from rabench import cli",
        "rabench.build_case('weather')",
        "assert cli.main(['pre', '--case', 'weather', '--out', 'pre.json']) == 0",
        "assert cli.main(['simulate', '--case', 'weather', '--agent', 'noisy:k=0.8',"
        " '--strategy', 'CI', '--n', '2000', '--out', 'trials.csv']) == 0",
        "assert cli.main(['post', '--case', 'weather', '--trials', 'trials.csv',"
        " '--out', 'post.json']) == 0",
    ])
    assert loaded_scipy_modules(code, tmp_path) == []


def test_kale_loads_neither_stats_nor_optimize(tmp_path):
    loaded = loaded_scipy_modules("import rabench\nrabench.build_case('kale2020')",
                                  tmp_path)
    assert not [m for m in loaded
                if m.startswith(("scipy.stats", "scipy.optimize"))]


#: Every public name of ``rabench`` (submodules excluded). ``perfbench/run.py``
#: calls ``build_case``, ``AgentSpec``, ``rational_report``,
#: ``incentive_table``, ``simulate``, ``write_trials_csv``,
#: ``read_trials_csv`` and ``loss_report`` through it.
PUBLIC_NAMES = {
    "ActionSpace", "AffineConversion", "AgentSpec", "Belief", "BoxCoxTDist",
    "CaseStudy", "ConfigError", "ConversionRule", "DimensionError",
    "DiscretizedDistribution", "EmpiricalJoint", "ExperimentDesign", "FlooredAffineConversion", "GaussianThresholdDGM",
    "IncentiveTable", "InformationStructure", "InvalidModelError", "LossReport",
    "MatrixRule", "PinnedValue", "RabenchError", "RationalReport", "ReportMap",
    "StateSpace", "TransitRule", "TrialDataError", "TrialTable", "TwoTeamDGM",
    "behavioral_score", "behavioral_value_of_information",
    "belief_loss", "build_case", "build_fernandes", "build_kale", "build_weather",
    "calibrate", "decisions_from_beliefs", "design_from_config",
    "design_to_config", "discretize", "incentive_table", "ingest", "kale_joint",
    "load_design_config", "loss_report", "monte_carlo_score",
    "optimization_loss", "pooled_loss_report", "pos_to_win_probability", "prior",
    "rational_baseline", "rational_report", "read_trials_csv",
    "save_design_config", "simulate", "weather_joint",
    "win_probability_to_pos", "write_trials_csv",
}


def test_public_names_are_pinned():
    import types

    import rabench

    public = {name for name, value in vars(rabench).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PUBLIC_NAMES


@pytest.mark.parametrize("function, keyword", [
    ("incentive_table", "report"), ("incentive_table", "rule"),
    ("loss_report", "report"), ("kale_joint", "check_marginal"),
    ("build_kale", "levels"), ("build_fernandes", "text_partition"),
    ("cases.quantile_text_partition", "rounding"), ("InformationStructure", "check"),
    *[("TwoTeamDGM", field) for field in ("baseline_mean", "win_threshold", "sigmas")],
    ("EmpiricalJoint", "bin_width"), ("ActionSpace", "bin_width"),
    ("decisions_from_beliefs", "report_map"),
])
def test_removed_options_raise_type_error(function, keyword):
    import rabench

    owner, _, name = function.rpartition(".")
    fn = getattr(getattr(rabench, owner) if owner else rabench, name)
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        fn(**{keyword: None})


def test_removed_names_are_gone():
    import rabench

    assert not hasattr(rabench.errors, "ZeroMassSignalError")
    assert not hasattr(rabench.ActionSpace, "probability_reports")
