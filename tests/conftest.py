import csv
import os
from pathlib import Path

import numpy as np
import pytest

from rabench import behavioral
from rabench.model import (
    ActionSpace,
    Belief,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    StateSpace,
    TransitRule,
    joint_violations,
    optimal_action_indices,
    rule_violations,
)
from rabench.rational import rational_report

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session", autouse=True)
def source_tree_on_subprocess_path():
    """CLI tests run ``python -m rabench.cli`` as a child process; let it
    import the package from this source tree, as pytest's ``pythonpath``
    setting does for the test process itself."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


# The running example: decide whether to salt a parking lot against a
# possibly-freezing night. Scores: no-salt costs -100 if it freezes,
# salting costs -10 if it does not.
SALTING_SCORES = [[0.0, -100.0], [-10.0, 0.0]]

# Four-signal joint over (forecast spread, freezing state); columns each
# carry signal mass 0.25 and the freezing marginal is 0.0796.
WEATHER_JOINT = [
    [0.24845, 0.00155],
    [0.23805, 0.01195],
    [0.22360, 0.02640],
    [0.21030, 0.03970],
]


@pytest.fixture
def weather_states() -> StateSpace:
    return StateSpace(ids=("not-freezing", "freezing"))


# The fixtures and helpers named ``*_problem`` build one-strategy designs
# whose one strategy is named ``s``.


@pytest.fixture
def weather_problem(weather_states) -> ExperimentDesign:
    structure = InformationStructure(
        signals=("sigma=2", "sigma=3", "sigma=4", "sigma=5"),
        joint=np.array(WEATHER_JOINT),
    )
    return ExperimentDesign(
        states=weather_states,
        actions=ActionSpace.finite(("no-salt", "salt")),
        rule=MatrixRule(np.array(SALTING_SCORES)),
        strategies={"s": structure},
    )


@pytest.fixture
def transit_scenario2_problem() -> ExperimentDesign:
    """Second transit scenario: 14/min activity, -14/min waiting, 14/min at
    destination for up to 60 minutes, on an integer arrival grid."""
    minutes = list(range(0, 31))
    states = StateSpace(
        ids=tuple(str(m) for m in minutes),
        values=tuple(float(m) for m in minutes),
    )
    # placeholder uniform joint; rule-level tests supply their own beliefs
    joint = np.full((1, len(minutes)), 1.0 / len(minutes))
    return ExperimentDesign(
        states=states,
        actions=ActionSpace.integer_grid(0, 30),
        rule=TransitRule(
            activity_rate=14.0,
            waiting_rate=-14.0,
            destination_rate=14.0,
            max_destination_minutes=60.0,
        ),
        strategies={"s": InformationStructure(signals=("only",), joint=joint)},
    )


def weather_design() -> ExperimentDesign:
    """The full four-strategy forecast comparison used across the tests."""
    states = StateSpace(ids=("not-freezing", "freezing"))
    joint = np.array(WEATHER_JOINT)
    uncertainty = InformationStructure(
        signals=("sigma=2", "sigma=3", "sigma=4", "sigma=5"), joint=joint
    )
    mean_only = InformationStructure(
        signals=("mu=5",), joint=joint.sum(axis=0, keepdims=True)
    )
    return ExperimentDesign(
        states=states,
        actions=ActionSpace.finite(("no-salt", "salt")),
        rule=MatrixRule(np.array(SALTING_SCORES)),
        strategies={
            "mean": mean_only,
            "CI": uncertainty,
            "gradient": uncertainty,
            "HOPs": uncertainty,
        },
        name="weather",
    )


def posterior(structure: InformationStructure, signal_id: str) -> Belief:
    """Bayesian update on one signal, q(theta) = pi(v, theta) / pi(v): the
    one-signal oracle that ``InformationStructure.posteriors()`` must match
    bit for bit. A repeated signal id finds its first row."""
    row = structure.joint[structure.signals.index(signal_id)]
    return Belief(row / row.sum())


def violations(design: ExperimentDesign) -> list[str]:
    """Every fault of a design's parts: each strategy's joint against the
    state space, then the rule against the spaces."""
    return ([v for s in design.strategies.values()
             for v in joint_violations(s.signals, s.joint, design.states)]
            + rule_violations(design.states, design.actions, design.rule))


def optimum(design: ExperimentDesign, strategy: str = "s") -> float:
    """The strategy's visualization optimum, read from ``rational_report``."""
    return rational_report(design).strategies[strategy].visualization_optimal


def rational_actions(design: ExperimentDesign, strategy: str = "s") -> np.ndarray:
    """Action indices of an agent who plays the optimum on each posterior."""
    return optimal_action_indices(design, design.strategies[strategy].posteriors())


def constant_actions(design: ExperimentDesign, action_id: str,
                     strategy: str = "s") -> np.ndarray:
    """Action indices of an agent who plays ``action_id`` on every signal."""
    return np.full(len(design.strategies[strategy]), design.actions.index(action_id))


def random_matrix_problem(rng: np.random.Generator, n_states=None, n_actions=None,
                          n_signals=None) -> ExperimentDesign:
    """Small random one-strategy design for property checks."""
    n_states = n_states or int(rng.integers(2, 6))
    n_actions = n_actions or int(rng.integers(2, 6))
    n_signals = n_signals or int(rng.integers(1, 7))
    joint = rng.random((n_signals, n_states)) + 1e-3
    joint /= joint.sum()
    scores = rng.uniform(-10.0, 10.0, size=(n_actions, n_states))
    return ExperimentDesign(
        states=StateSpace(ids=tuple(f"s{i}" for i in range(n_states))),
        actions=ActionSpace.finite(tuple(f"a{i}" for i in range(n_actions))),
        rule=MatrixRule(scores),
        strategies={"s": InformationStructure(
            signals=tuple(f"v{i}" for i in range(n_signals)), joint=joint
        )},
    )


def random_belief(rng: np.random.Generator, n: int) -> Belief:
    p = rng.random(n) + 1e-9
    return Belief(p / p.sum())


def write_generated_dists(path: Path, n: int, seed: int) -> None:
    """``n`` Box-Cox t arrival distributions, each column uniform within the
    bundled demo file's own min/max, drawn from ``seed``: the transit-1000
    workload's trial file of ``perfbench/run.py`` at n=1000, seed=7."""
    from rabench.cases import bundled_demo_trials_path

    with open(bundled_demo_trials_path(), newline="", encoding="utf-8") as fh:
        demo = list(csv.DictReader(fh))
    rng = np.random.default_rng(seed)
    columns = [rng.uniform(min(float(r[c]) for r in demo),
                           max(float(r[c]) for r in demo), size=n)
               for c in ("mu", "sigma", "nu", "tau")]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("trial_id", "mu", "sigma", "nu", "tau"))
        for i, row in enumerate(np.column_stack(columns)):
            writer.writerow([f"g{i:04d}"] + [repr(float(v)) for v in row])


@pytest.fixture(scope="session")
def transit_dists_1000(tmp_path_factory) -> Path:
    """The 1000-row generated arrival distribution file, seed 7."""
    path = tmp_path_factory.mktemp("dists") / "transit-1000.csv"
    write_generated_dists(path, 1000, seed=7)
    return path


def trial_table(rows) -> behavioral.TrialTable:
    """A trial table of rows given as (trial id, strategy, signal, state,
    response kind, response) tuples, coded as the CSV reader codes them."""
    builder = behavioral._TableBuilder()
    builder.add(*(list(map(list, zip(*rows))) or [[]] * 6))
    return builder.table()


def trial_rows(table: behavioral.TrialTable) -> list[tuple]:
    """The rows of a trial table as tuples of the fields written to its CSV."""
    return list(zip(*table._columns()))
