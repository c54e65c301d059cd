import csv
import os
import re
from pathlib import Path

import numpy as np
import pytest

from rabench import trials
from rabench.behavioral import decompose
from rabench.errors import InvalidModelError
from rabench.generative import sample_cells
from rabench.model import (
    ActionSpace,
    Belief,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    StateSpace,
    TransitRule,
    _check_count,
    _check_seed,
    _is_integer,
    _resolve_report_map,
    _shown,
    design_violations,
    optimal_action_indices,
    outcome_scores,
    score_table,
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


#: Random seeds that are not non-negative integers, each with its repr.
BAD_SEEDS = [(True, "True"), (1.5, "1.5"), ("3", "'3'"), (-1, "-1"),
             (np.float64(2.0), "np.float64(2.0)"), (None, "None")]
#: Random seeds that are: numpy integers and ints past 64 bits.
GOOD_SEEDS = [0, np.int64(7), np.uint64(2**64 - 1), 2**100]


def seed_refusal(shown: str) -> str:
    """The pattern of the refusal of a seed whose repr is ``shown``."""
    return f"^seed must be a non-negative integer, not {re.escape(shown)}$"


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
    """Every misfit of a design's parts, as ``design_violations`` finds it;
    a design that was built has none."""
    return design_violations(design.states, design.actions, design.rule,
                             design.strategies, design.report_map)


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


def monte_carlo_score(design: ExperimentDesign, strategy: str, actions,
                      n: int, seed: int) -> tuple[float, float]:
    """Estimate the expected score of playing action index ``actions[i]``
    on signal i of ``strategy``, by sampling (signal, state) pairs from its joint.

    Returns (mean, standard error); the draws come from a child seed derived
    from ``seed``, so the result depends only on (seed, n). Cells score as in
    :func:`outcome_scores`: a transit cell takes its signal's posterior mean,
    as the exact analysis does.
    """
    _check_count(n, "draw")
    _check_seed(seed)
    if strategy not in design.strategies:
        raise InvalidModelError(f"unknown strategy {strategy!r}")
    structure = design.strategies[strategy]
    if len(actions) != len(structure):
        raise InvalidModelError("need one action index per signal")
    n_actions = len(design.actions)
    idx = np.asarray(actions)
    bad = [a for a in actions if not _is_integer(a)]
    if bad:
        raise InvalidModelError("action indices must be integers, "
                                f"not {_shown(bad[0])}")
    if ((idx < 0) | (idx >= n_actions)).any():
        raise InvalidModelError(f"action indices must lie in [0, {n_actions})")
    table = outcome_scores(design, actions, structure.posteriors())
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    scores = table[sample_cells(structure.joint, n, rng)]
    mean = scores.sum() / n
    var = max((scores ** 2).sum() / n - mean ** 2, 0.0)
    return float(mean), float(np.sqrt(var / n))


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


def kernel_scores(joint, design: ExperimentDesign, smoothing_alpha: float = 0.0):
    """The behavioral and calibrated scores of ``joint`` read from the kernel
    as ``decompose`` reads them, on any design: an action joint's observed
    actions, a report joint's bin-midpoint best responses, and each row's
    best response to its (smoothed) conditional."""
    marginal = joint.masses.sum(axis=1)
    rows = np.flatnonzero(marginal > 0)
    if joint.kind == "action":
        ev = score_table(design, joint.conditionals(rows))
        actions = [design.actions.index(joint.action_ids[i]) for i in rows]
        behavioral = marginal[rows] @ ev[np.arange(len(rows)), actions]
    else:
        beliefs = _resolve_report_map(design).to_beliefs(
            np.asarray(joint.action_values)[rows])
        scores = outcome_scores(design, optimal_action_indices(design, beliefs), beliefs)
        behavioral = (joint.masses[rows] * scores).sum()
    ev = score_table(design, joint.conditionals(rows, smoothing_alpha))
    return float(behavioral), float(marginal[rows] @ ev.max(axis=1))


def behavioral_and_calibrated(joint, design: ExperimentDesign, strategy: str,
                              smoothing_alpha: float = 0.0):
    """The behavioral and calibrated scores of ``joint``: ``decompose``'s,
    checked against ``kernel_scores``."""
    report = decompose(joint, design, strategy, smoothing_alpha)
    scores = kernel_scores(joint, design, smoothing_alpha)
    assert (report.behavioral, report.calibrated) == pytest.approx(scores, rel=1e-9, abs=1e-9)
    return report.behavioral, report.calibrated


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


def array_searches(monkeypatch, searched=None) -> list:
    """The sizes of the draw arrays that ``np.searchsorted`` is given from
    here on, and the arrays themselves in ``searched`` if it is a list;
    ``_cdf``'s search for its scalar total is not counted."""
    sizes, search = [], np.searchsorted

    def recording_search(a, v, *args, **kwargs):
        if np.ndim(v):
            sizes.append(np.size(v))
            if searched is not None:
                searched.append(np.array(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", recording_search)
    return sizes


class FixedUniforms:
    """A generator stand-in whose ``uniform`` returns the given draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, size):
        assert size == len(self.u)
        return self.u.copy()


def trial_table(rows) -> trials.TrialTable:
    """A trial table of rows given as (trial id, strategy, signal, state,
    response kind, response) tuples, coded as the CSV reader codes them."""
    builder = trials._TableBuilder()
    builder.add(*(list(map(list, zip(*rows))) or [[]] * 6))
    return builder.table()


def trial_rows(table: trials.TrialTable) -> list[tuple]:
    """The rows of a trial table as tuples of the fields written to its CSV:
    integer trial ids as ``str`` of them, and responses as action ids or
    ``repr`` of probability reports."""
    def decode(ids, codes):
        return np.array(ids, dtype=object)[codes].tolist()

    trial_ids = table.trial_ids.tolist()
    if table.trial_ids.dtype.kind in "iu":
        trial_ids = list(map(str, trial_ids))
    is_action = table.action >= 0
    # code -1 picks the placeholder id appended at the end
    actions = decode(table.action_ids + ("",), table.action)
    responses = [a if k else repr(r) for k, a, r in
                 zip(is_action.tolist(), actions, table.report.tolist())]
    return list(zip(trial_ids, decode(table.strategy_ids, table.strategy),
                    decode(table.signal_ids, table.signal),
                    decode(table.state_ids, table.state),
                    decode(("probability", "action"), is_action.astype(np.intp)),
                    responses))
