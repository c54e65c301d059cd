"""Ready-made experiment designs for three published decision studies.

Each builder returns a :class:`CaseStudy`: the full design plus a map of
pinned expected quantities with tolerances and provenance tags, so the
analysis pipeline can be checked against the numbers the original write-ups
printed.

* ``weather``: a hypothetical freeze/salt forecast task comparing a
  mean-only display against three uncertainty displays.
* ``kale2020``: the fantasy-sports hire/no-hire study with superiority
  judgments (Kale et al. 2020).
* ``fernandes2018``: the bus-departure timing study with per-trial arrival
  distributions (Fernandes et al. 2018). Its published score tables depend
  on arrival-model parameters that were never printed, so those values ship
  as reference-only; the shipped demo parameter file exercises the identical
  pipeline shape.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidModelError
from .generative import (
    BoxCoxTDist,
    TWO_TEAM_STATE_IDS,
    TwoTeamDGM,
    discretize,
    kale_joint,
    two_team_report_map,
    two_team_rows,
)
from .model import (
    ActionSpace,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    StateSpace,
    TransitRule,
    _is_finite_number,
    _shown,
)
from .payment import AffineConversion, FlooredAffineConversion

CASE_NAMES = ("weather", "kale2020", "fernandes2018")


@dataclass(frozen=True)
class PinnedValue:
    """One expected quantity with its tolerance and provenance.

    provenance: ``published`` (printed in the study write-up), ``derived``
    (follows analytically from the setup), or ``reference-only`` (printed
    but not reproducible without unpublished inputs).
    """

    value: float
    tol: float
    provenance: str
    note: str = ""


@dataclass(frozen=True)
class CaseStudy:
    name: str
    design: ExperimentDesign
    expected: dict[str, PinnedValue]


# ---------------------------------------------------------------------------
# Weather forecast case


#: Published signal/state joint for the uncertainty displays. Columns are
#: forecast spreads (sigma 2..5, each shown with probability 1/4), rows the
#: freeze outcome; entries sum to 1 exactly.
WEATHER_TABLE = np.array([
    [0.24845, 0.00155],
    [0.23805, 0.01195],
    [0.22360, 0.02640],
    [0.21030, 0.03970],
])

SALTING_SCORES = np.array([
    [0.0, -100.0],   # no salt: free unless it freezes
    [-10.0, 0.0],    # salt: costs 10 unless it freezes
])


def build_weather() -> CaseStudy:
    """Freeze/salt forecast comparison: mean-only vs CI, gradient, HOPs."""
    states = StateSpace(ids=("not-freezing", "freezing"))
    uncertainty = InformationStructure(
        signals=("sigma=2", "sigma=3", "sigma=4", "sigma=5"),
        joint=WEATHER_TABLE,
    )
    mean_only = InformationStructure(
        signals=("mu=5",),
        joint=WEATHER_TABLE.sum(axis=0, keepdims=True),
    )
    design = ExperimentDesign(
        states=states,
        actions=ActionSpace.finite(("no-salt", "salt")),
        rule=MatrixRule(SALTING_SCORES),
        strategies={
            "mean": mean_only,
            "CI": uncertainty,
            "gradient": uncertainty,
            "HOPs": uncertainty,
        },
        conversion=AffineConversion(base=1.0, rate=0.01),
        name="weather",
    )
    expected = {
        "baseline": PinnedValue(-7.96, 0.005, "published"),
        "visualization_optimal:CI": PinnedValue(-5.69, 0.005, "published"),
        "visualization_optimal:gradient": PinnedValue(-5.69, 0.005, "published"),
        "visualization_optimal:HOPs": PinnedValue(-5.69, 0.005, "published"),
        "visualization_optimal:mean": PinnedValue(-7.96, 0.005, "published"),
        "value_of_information": PinnedValue(2.27, 0.01, "published"),
        "information_loss:mean": PinnedValue(1.0, 1e-9, "published"),
        "information_loss:CI": PinnedValue(0.0, 1e-9, "published"),
        "prior_positive": PinnedValue(0.0796, 1e-6, "published"),
        "payment_baseline": PinnedValue(0.920, 0.001, "published"),
        "payment_optimal": PinnedValue(0.943, 0.001, "published"),
        "incentive": PinnedValue(0.023, 0.001, "published"),
        "incentive_ratio": PinnedValue(0.025, 0.001, "published"),
    }
    return CaseStudy(name="weather", design=design, expected=expected)


# ---------------------------------------------------------------------------
# Two-team hire/no-hire case


KALE_SCORES = np.array([
    [0.0, 0.0, 3.17, 3.17],    # keep the roster: paid on the incumbent win
    [-1.0, 2.17, -1.0, 2.17],  # hire: paid on the new-player win, fee of 1
])


def two_team_decision_threshold(rule: MatrixRule) -> float:
    """New-player win probability at which hiring overtakes standing pat.

    The two-team belief is affine in the win probability w, so the
    hire-minus-keep gap is too, and its root is g(0) / (g(0) - g(1)). Rules
    whose gap keeps one sign on (0, 1), where one action dominates, have no
    threshold and are refused.
    """
    ev = two_team_rows(np.array([0.0, 1.0])) @ rule.scores.T
    g0, g1 = (ev[:, 1] - ev[:, 0]).tolist()
    if not (g0 < 0.0 < g1 or g1 < 0.0 < g0):
        raise InvalidModelError(
            f"no hire/no-hire threshold: the hire-minus-keep gap runs from "
            f"{g0:g} at w=0 to {g1:g} at w=1 without changing sign"
        )
    return g0 / (g0 - g1)


def build_kale() -> CaseStudy:
    """Hire/no-hire decisions over eight superiority levels."""
    structure = kale_joint(TwoTeamDGM())
    # every display format carries the full distribution, so all four
    # strategies share one information structure
    design = ExperimentDesign(
        states=StateSpace(ids=TWO_TEAM_STATE_IDS),
        actions=ActionSpace.finite(("no-hire", "hire")),
        rule=MatrixRule(KALE_SCORES),
        strategies={
            "interval": structure,
            "HOPs": structure,
            "density": structure,
            "QDP": structure,
        },
        conversion=FlooredAffineConversion(base=1.0, rate=0.08, floor=150.0),
        trials_per_experiment=32,
        initial_score=108.0,
        report_map=two_team_report_map(),
        name="kale2020",
    )
    expected = {
        "prior_win": PinnedValue(0.805, 0.005, "published"),
        "decision_threshold": PinnedValue(0.8155, 0.0005, "published"),
        "baseline": PinnedValue(1.585, 0.015, "derived",
                                note="3.17/2 from the fixed incumbent side"),
        "baseline_published": PinnedValue(
            1.57, 0.02, "reference-only",
            note="published value; simulation noise around the 1.585 analytic one",
        ),
        "visualization_optimal": PinnedValue(1.77, 0.03, "published"),
        "value_of_information": PinnedValue(0.20, 0.03, "published"),
        "information_loss": PinnedValue(0.0, 1e-9, "published"),
        "payment_baseline": PinnedValue(1.66, 1.66 * 0.05, "published"),
        "payment_optimal": PinnedValue(2.17, 2.17 * 0.05, "published"),
        "incentive": PinnedValue(0.51, 0.51 * 0.05, "published"),
        "incentive_ratio": PinnedValue(0.3072, 0.3072 * 0.05, "published"),
    }
    return CaseStudy(name="kale2020", design=design, expected=expected)


# ---------------------------------------------------------------------------
# Transit departure case


#: Per-scenario payoff rates: (activity, waiting, destination, max minutes).
TRANSIT_SCENARIOS = {
    1: (8.0, -14.0, 14.0, 90.0),
    2: (14.0, -14.0, 14.0, 60.0),
    3: (8.0, -17.0, 17.0, 120.0),
}

#: Per-scenario dollars per 1000 coins.
TRANSIT_DOLLARS_PER_KILOCOIN = {1: 0.01698, 2: 0.08228, 3: 0.016076}

TRANSIT_BASE_PAYMENT = 1.25
TRANSIT_TRIALS = 40

#: Reference-only score tables from the original write-up; they require the
#: unpublished arrival-model parameters and are not asserted anywhere.
#: ``baseline_ratio`` is the share of the benchmark the no-signal agent
#: already achieves.
TRANSIT_REFERENCE_SCORES = {
    1: {"baseline": 1078.7, "benchmark": 1171.8, "value_of_information": 93.1,
        "baseline_ratio": 0.921},
    2: {"baseline": 767.5, "benchmark": 852.0, "value_of_information": 84.6,
        "baseline_ratio": 0.901},
    3: {"baseline": 1850.2, "benchmark": 1919.4, "value_of_information": 69.3,
        "baseline_ratio": 0.964},
}


#: Parameter columns of a trial distribution file, after ``trial_id``.
_DIST_COLUMNS = ("mu", "sigma", "nu", "tau")


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def read_trial_distributions(path: str | Path) -> tuple[tuple[str, ...], BoxCoxTDist]:
    """Load per-trial arrival distributions from a CSV with columns
    trial_id, mu, sigma, nu, tau; a leading byte-order mark is skipped.

    Returns the trial ids in file order and one :class:`BoxCoxTDist` whose
    parameter arrays hold a row per trial. A duplicate id, a field that is
    not a number or a parameter ``BoxCoxTDist`` refuses raises
    ``ConfigError`` naming the first such row by its trial id.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trial distribution file {path} does not exist")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # restval: a missing field reads as an empty one, not as None
        reader = csv.DictReader(fh, restval="")
        required = {"trial_id", *_DIST_COLUMNS}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(
                "trial distribution file needs columns trial_id,mu,sigma,nu,tau"
            )
        rows = [(row["trial_id"].strip(), [row[c] for c in _DIST_COLUMNS])
                for row in reader]
    if not rows:
        raise ConfigError("trial distribution file contains no trials")
    ids = tuple(tid for tid, _ in rows)
    first_row: dict[str, int] = {}
    duplicate = np.array([first_row.setdefault(tid, i) != i
                          for i, tid in enumerate(ids)])
    cells = np.array([[_float_or_none(t) for t in texts] for _, texts in rows],
                     dtype=object)
    unparsed = np.equal(cells, None)
    values = np.where(unparsed, np.nan, cells).astype(float)
    # the rows BoxCoxTDist refuses (nan is neither finite nor positive)
    refused = ~(np.isfinite(values[:, :3]).all(axis=1)
                & (values[:, [0, 1, 3]] > 0.0).all(axis=1))
    faulty = duplicate | unparsed.any(axis=1) | refused
    if faulty.any():
        first = int(faulty.argmax())
        tid, texts = rows[first]
        if duplicate[first]:
            raise ConfigError(f"duplicate trial id {tid!r}")
        try:  # the scalar distribution gives the row's own error text
            BoxCoxTDist(*map(float, texts))
        except (ValueError, InvalidModelError) as err:
            raise ConfigError(f"trial {tid!r}: {err}") from None
    return ids, BoxCoxTDist(*values.T)


def bundled_demo_trials_path() -> Path:
    return Path(resources.files("rabench.data") / "fernandes_demo_trials.csv")


def quantile_text_partition(trial_ids: Sequence[str], dists: BoxCoxTDist,
                            level: float) -> dict[str, str]:
    """Example text-display coarsening: trials whose ``level``-quantile
    rounds to the same displayed minute share a signal. ``dists`` holds a
    row per trial, in the order of ``trial_ids``."""
    return {
        tid: f"within {round(q):g} min at {level:.0%}"
        for tid, q in zip(trial_ids, dists.quantile(level).tolist())
    }


def _coarsen(full: InformationStructure,
             partition: dict[str, str]) -> InformationStructure:
    """Sum the rows of trials that share a display class; classes sorted
    by name. Rows are added in trial order, as a running sum would."""
    labels = [partition.get(tid, tid) for tid in full.signals]
    names = tuple(sorted(set(labels)))
    code = {name: i for i, name in enumerate(names)}
    joint = np.zeros((len(names), full.joint.shape[1]))
    np.add.at(joint, [code[label] for label in labels], full.joint)
    return InformationStructure(signals=names, joint=joint)


def build_fernandes(scenario: int = 2,
                    trial_dists: str | Path | None = None,
                    grid_step: float = 0.25) -> CaseStudy:
    """Bus-departure timing for one payoff scenario.

    Arrival distributions come from ``trial_dists`` (defaults to the bundled
    demo file). The full-information strategy gives one signal per trial;
    text strategies coarsen trials into display-equivalence classes by
    quantile display rounding at 60/85/99%.
    """
    if scenario not in TRANSIT_SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; pick one of 1, 2, 3")
    if not (_is_finite_number(grid_step) and grid_step > 0.0):
        raise ConfigError(f"grid_step must be positive and finite, "
                          f"not {_shown(grid_step)}")
    trial_ids, dists = read_trial_distributions(
        trial_dists or bundled_demo_trials_path())

    grid = np.arange(0.0, 30.0 + 1e-9, grid_step)
    states = StateSpace(
        ids=tuple(f"{g:g}" for g in grid),
        values=tuple(float(g) for g in grid),
    )
    weight = 1.0 / len(trial_ids)
    full = InformationStructure(signals=trial_ids,
                                joint=discretize(dists, grid).masses * weight)

    strategies = {"full": full}
    for level in (0.60, 0.85, 0.99):
        strategies[f"text{int(level * 100)}"] = _coarsen(
            full, quantile_text_partition(trial_ids, dists, level))

    r0, rw, rd, T = TRANSIT_SCENARIOS[scenario]
    d = TRANSIT_DOLLARS_PER_KILOCOIN[scenario]
    design = ExperimentDesign(
        states=states,
        actions=ActionSpace.integer_grid(0, 30),
        rule=TransitRule(activity_rate=r0, waiting_rate=rw,
                         destination_rate=rd, max_destination_minutes=T),
        strategies=strategies,
        conversion=AffineConversion(base=TRANSIT_BASE_PAYMENT, rate=d / 1000.0),
        trials_per_experiment=TRANSIT_TRIALS,
        name=f"fernandes2018-s{scenario}",
    )
    reference = TRANSIT_REFERENCE_SCORES[scenario]
    expected = {
        "conversion_base": PinnedValue(TRANSIT_BASE_PAYMENT, 1e-12, "published"),
        "conversion_rate": PinnedValue(d / 1000.0, 1e-15, "published"),
        "baseline_reference": PinnedValue(
            reference["baseline"], 0.0, "reference-only",
            note="requires the original arrival distributions",
        ),
        "benchmark_reference": PinnedValue(
            reference["benchmark"], 0.0, "reference-only",
            note="requires the original arrival distributions",
        ),
        "value_of_information_reference": PinnedValue(
            reference["value_of_information"], 0.0, "reference-only",
            note="requires the original arrival distributions",
        ),
        "baseline_ratio_reference": PinnedValue(
            reference["baseline_ratio"], 0.0, "reference-only",
            note="share of the benchmark achieved without the signal; "
                 "requires the original arrival distributions",
        ),
    }
    return CaseStudy(name=f"fernandes2018-s{scenario}", design=design,
                     expected=expected)


def build_case(name: str, scenario: int = 2,
               trial_dists: str | Path | None = None,
               grid_step: float = 0.25) -> CaseStudy:
    """Builder dispatch for the CLI's --case flag."""
    if name == "weather":
        return build_weather()
    if name == "kale2020":
        return build_kale()
    if name == "fernandes2018":
        return build_fernandes(scenario=scenario, trial_dists=trial_dists,
                               grid_step=grid_step)
    raise ConfigError(
        f"unknown case {name!r}; available: {', '.join(CASE_NAMES)}"
    )
