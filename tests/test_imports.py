"""The package imports scipy only where a design needs a special function,
and numpy.ma nowhere on the weather case's commands; it imports a module on
first use of one of its names; it exports a pinned set of public names."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rabench"


def loaded_modules(code: str, cwd) -> list[str]:
    """The modules loaded after ``code`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys, json\n"
                           "print(json.dumps(sorted(sys.modules)))"],
                          capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_lazy_modules(code: str, cwd) -> list[str]:
    """The loaded modules of scipy and of numpy.ma, which numpy loads on
    first use (``np.unique`` of a plain array, in numpy 2.4, is one)."""
    return [m for m in loaded_modules(code, cwd)
            if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]]


def loaded_rabench_modules(code: str, cwd) -> list[str]:
    """The loaded ``rabench`` submodules, and numpy if loaded."""
    return [m for m in loaded_modules(code, cwd)
            if m.startswith("rabench.") or m == "numpy"]


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
    assert loaded_lazy_modules(code, tmp_path) == []


def test_float_text_tables_wait_for_first_use(tmp_path):
    code = "\n".join([
        "import rabench, rabench.cli",
        "from rabench import floattext",
        "assert floattext._ryu_tables.cache_info().currsize == 0",
        "assert floattext._text_tables.cache_info().currsize == 0",
    ])
    assert loaded_lazy_modules(code, tmp_path) == []


def test_kale_loads_neither_stats_nor_optimize(tmp_path):
    loaded = loaded_lazy_modules("import rabench\nrabench.build_case('kale2020')",
                                 tmp_path)
    assert not [m for m in loaded
                if m.startswith(("scipy.stats", "scipy.optimize"))]


def test_importing_the_package_loads_no_module(tmp_path):
    assert loaded_rabench_modules("import rabench", tmp_path) == []


def test_building_a_case_loads_no_trial_file_code(tmp_path):
    loaded = loaded_rabench_modules("import rabench\nrabench.build_case('weather')",
                                    tmp_path)
    assert "rabench.cases" in loaded
    assert not {f"rabench.{m}" for m in ("trials", "floattext", "agents", "behavioral",
                                         "config_io", "cli")} & set(loaded)


def test_the_cli_loads_every_traced_layer(tmp_path):
    """perfbench's tracer wraps each of its ``LAYERS`` from ``sys.modules``
    after ``import rabench.cli``, so the cli imports them all up front."""
    tree = ast.parse((ROOT / "perfbench" / "traced_cli.py").read_text(encoding="utf-8"))
    layers, = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["LAYERS"]]
    assert set(layers) >= {"cli", "cases", "agents", "behavioral"}
    loaded = loaded_rabench_modules("import rabench.cli", tmp_path)
    assert {f"rabench.{layer}" for layer in layers} <= set(loaded)


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
    "build_case", "build_fernandes", "build_kale", "build_weather",
    "decisions_from_beliefs", "decompose", "design_from_config",
    "design_to_config", "discretize", "incentive_table", "ingest", "kale_joint",
    "load_design_config", "loss_report",
    "pooled_loss_report", "pos_to_win_probability", "rational_report",
    "read_trials_csv",
    "save_design_config", "simulate", "weather_joint",
    "win_probability_to_pos", "write_trials_csv",
}


def test_public_names_are_pinned():
    import types

    import rabench

    assert set(rabench.__all__) == PUBLIC_NAMES
    assert sorted(dir(rabench)) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:  # each resolves, to a name and not a module
        assert not isinstance(getattr(rabench, name), types.ModuleType), name
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        rabench.nope


@pytest.mark.parametrize("function, keyword", [
    ("incentive_table", "report"), ("incentive_table", "rule"),
    ("loss_report", "report"), ("kale_joint", "check_marginal"),
    ("build_kale", "levels"), ("build_fernandes", "text_partition"),
    ("cases.quantile_text_partition", "rounding"), ("InformationStructure", "check"),
    *[("TwoTeamDGM", field) for field in ("baseline_mean", "win_threshold", "sigmas")],
    ("EmpiricalJoint", "bin_width"), ("ActionSpace", "bin_width"),
    ("ActionSpace", "kind"), ("StateSpace", "labels"),
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
    assert not hasattr(rabench, "monte_carlo_score")
    assert not hasattr(rabench.generative, "monte_carlo_score")
    for owner, name in [(rabench.rational, "prior"),
                        (rabench.rational, "rational_baseline"),
                        (rabench.payment, "experiment_score"),
                        (rabench.ExperimentDesign, "strategy_names"),
                        (rabench.EmpiricalJoint, "action_marginal")]:
        assert not hasattr(owner, name), name


def imported_names(module: str) -> list[tuple[str, str]]:
    """(module, name) of each name that a package module imports, a relative
    module with its leading dots; ``import m`` gives (m, "")."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                # from . import behavioral: the module itself
                names.append((base + alias.name, "") if node.module is None
                             else (base, alias.name))
    return names


def test_the_trial_file_format_has_its_own_module():
    for module in ("agents", "cases", "trials"):
        assert ".behavioral" not in {m for m, _ in imported_names(module)}, module
    behavioral = imported_names("behavioral")
    assert not {m for m, _ in behavioral} & {"csv", "io", "re"}
    assert [name for m, name in behavioral if m == ".trials"] == ["TrialTable"]
    for path in PACKAGE.glob("*.py"):
        private = [name for m, name in imported_names(path.stem)
                   if m == ".behavioral" and name.startswith("_")]
        assert private == [], path.name
