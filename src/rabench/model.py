"""Core domain types for decision experiments.

An experiment design couples a finite state space, a finite action space, a
scoring rule S(a, theta), and one information structure (a joint
distribution over signals and states) per strategy. Everything downstream --
rational baselines and benchmarks, behavioral calibration, payments -- is
built from two batched kernels defined here, which read only the design's
states, actions and rule:

* ``score_table(design, beliefs)``: the expected score of every action
  under each belief row, shape (beliefs, actions);
* ``outcome_scores(design, action_idx, beliefs)``: the realized score of
  each row's action in every state, shape (rows, states), with the row's
  belief as the context of the transit rule's second bus.

Beliefs are the rows of an (n, states) matrix, so one belief is a
(1, states) matrix, and ``optimal_action_indices`` gives each row's best
action; ``InformationStructure.posteriors()`` gives every signal's posterior
as one such matrix. ``Belief`` is only the checked one-vector type of a
prior.

All types are immutable after construction and all operations are pure, so
values can be shared freely across workers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import DimensionError, InvalidModelError

#: Probability vectors whose mass deviates from 1 by at most this much are
#: renormalized; anything worse is rejected.
NORMALIZATION_TOL = 1e-9

#: The narrowest probability-report bin: any two bins at least this wide
#: have distinct ``.6g`` ids.
MIN_BIN_WIDTH = 1e-5

#: Tolerance used when experiment strategies must share a common state prior.
PRIOR_MATCH_TOL = 1e-6


def _is_integer(value) -> bool:
    """True for an int or numpy integer; a bool is not an integer here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_unique(ids: Sequence[str], what: str) -> None:
    if len(ids) == 0:
        raise InvalidModelError(f"{what} must be non-empty")
    if len(set(ids)) != len(ids):
        raise InvalidModelError(f"{what} identifiers must be unique")


@dataclass(frozen=True)
class StateSpace:
    """Finite, ordered collection of payoff-relevant states.

    ``values`` optionally attaches a numeric interpretation to each state
    (e.g. arrival minutes); rules that integrate over state magnitudes
    require it.
    """

    ids: tuple[str, ...]
    labels: tuple[str, ...] = ()
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(str(s) for s in self.ids))
        _check_unique(self.ids, "state space")
        if self.labels:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.ids):
                raise InvalidModelError("state labels must match states 1:1")
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            if len(vals) != len(self.ids):
                raise InvalidModelError("state values must match states 1:1")
            object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, state_id: str) -> int:
        try:
            return self.ids.index(str(state_id))
        except ValueError:
            raise InvalidModelError(f"unknown state {state_id!r}") from None

    def numeric_values(self) -> np.ndarray:
        if self.values is None:
            raise InvalidModelError(
                "state space has no numeric values; supply values= to use "
                "magnitude-based rules"
            )
        return np.asarray(self.values)


@dataclass(frozen=True)
class ActionSpace:
    """Finite action menu, possibly produced by expanding a grid or by
    binning probability reports.

    kind is one of ``finite`` (explicit ids), ``grid`` (numeric grid expanded
    to one action per step), or ``report`` (probability reports over a binary
    state space, discretized into bins; each action's value is its bin
    midpoint).
    """

    ids: tuple[str, ...]
    kind: str = "finite"
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(str(a) for a in self.ids))
        _check_unique(self.ids, "action space")
        if self.kind not in ("finite", "grid", "report"):
            raise InvalidModelError(f"unknown action space kind {self.kind!r}")
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            if len(vals) != len(self.ids):
                raise InvalidModelError("action values must match actions 1:1")
            object.__setattr__(self, "values", vals)

    @staticmethod
    def finite(ids: Sequence[str]) -> "ActionSpace":
        return ActionSpace(ids=tuple(ids), kind="finite")

    @staticmethod
    def integer_grid(low: int, high: int, step: int = 1) -> "ActionSpace":
        for name, value in (("low", low), ("high", high), ("step", step)):
            if not _is_integer(value):
                raise InvalidModelError(f"grid {name} must be an integer, "
                                        f"not {value!r}")
        if step <= 0:
            raise InvalidModelError("grid step must be positive")
        if high < low:
            raise InvalidModelError("grid upper bound below lower bound")
        vals = range(low, high + 1, step)
        return ActionSpace(
            ids=tuple(str(v) for v in vals),
            kind="grid",
            values=tuple(float(v) for v in vals),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, action_id: str) -> int:
        try:
            return self.ids.index(str(action_id))
        except ValueError:
            raise InvalidModelError(f"unknown action {action_id!r}") from None

    def numeric_values(self) -> np.ndarray:
        if self.values is None:
            raise InvalidModelError(
                "action space has no numeric values; magnitude-based rules "
                "need a grid or report space"
            )
        return np.asarray(self.values)


def report_bins(bin_width: float) -> tuple[np.ndarray, tuple[str, ...]]:
    """Midpoints and ids of the probability-report bins of width ``bin_width``.

    Bin k covers [k w, (k + 1) w). When w does not divide 1 the last bin is
    cut off at 1 and its midpoint is that of [lo, 1]; widths that divide 1
    up to rounding have no partial bin. Widths below ``MIN_BIN_WIDTH`` are
    refused: their bins' ids would collide.
    """
    if not (MIN_BIN_WIDTH <= bin_width <= 1.0):
        raise InvalidModelError(f"bin width must lie in [{MIN_BIN_WIDTH:g}, 1], "
                                f"not {bin_width!r}")
    n_bins = int(np.ceil(1.0 / bin_width - NORMALIZATION_TOL))
    mids = (np.arange(n_bins) + 0.5) * bin_width
    if n_bins * bin_width > 1.0 + NORMALIZATION_TOL:
        mids[-1] = ((n_bins - 1) * bin_width + 1.0) / 2.0
    return mids, tuple(f"{m:.6g}" for m in mids)


def _normalized_beliefs(p: np.ndarray) -> np.ndarray:
    """Check and renormalize belief vectors along the last axis.

    Entries must be finite and no lower than ``-NORMALIZATION_TOL``, and each
    vector's mass must be within ``NORMALIZATION_TOL`` of 1; negative
    entries are clipped to 0 and the vector divided by its clipped mass.
    A 1-D input is one belief, a 2-D input one belief per row.
    """
    # array methods rather than np.any/np.clip: Belief runs this on every
    # construction, and the functions' dispatch costs more than the work
    if (p < -NORMALIZATION_TOL).any() or not np.isfinite(p).all():
        raise InvalidModelError("belief entries must be finite and non-negative")
    total = p.sum(axis=-1)
    off = abs(total - 1.0) > NORMALIZATION_TOL
    if off.any():
        first = total[off][0] if p.ndim > 1 else total
        raise InvalidModelError(f"belief mass {first!r} is not 1 within tolerance")
    clipped = p.clip(0.0, None)
    return clipped / clipped.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability vector over a state space.

    Inputs whose mass is within ``NORMALIZATION_TOL`` of 1 are renormalized;
    anything further off is rejected rather than silently fixed.
    """

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidModelError("belief must be a non-empty vector")
        p = _normalized_beliefs(p)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True, eq=False)
class MatrixRule:
    """Scoring rule given as an explicit (action x state) score table."""

    scores: np.ndarray

    def __post_init__(self):
        s = np.array(self.scores, dtype=float)
        if s.ndim != 2 or s.size == 0:
            raise InvalidModelError("score matrix must be 2-d and non-empty")
        if not np.all(np.isfinite(s)):
            raise InvalidModelError("score matrix entries must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)

    @property
    def n_actions(self) -> int:
        return self.scores.shape[0]

    @property
    def n_states(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class TransitRule:
    """Catch-or-miss payoff for timing a bus departure.

    Actions and states are minutes. Arriving at minute ``a`` against a bus
    arriving at minute ``theta`` earns ``activity_rate`` per minute of
    activity before leaving, ``waiting_rate`` (non-positive) per minute spent
    waiting, and ``destination_rate`` per minute at the destination, capped at
    ``max_destination_minutes``. Missing the bus (a > theta) means riding a
    second bus that arrives ``second_bus_offset`` minutes after a fresh draw
    from the same arrival distribution; expectations plug in the belief's own
    mean arrival m for that draw, which is exact because the payoff is linear
    in the second arrival time.
    """

    activity_rate: float
    waiting_rate: float
    destination_rate: float
    max_destination_minutes: float
    second_bus_offset: float = 30.0

    def __post_init__(self):
        for name in ("activity_rate", "waiting_rate", "destination_rate",
                     "max_destination_minutes", "second_bus_offset"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidModelError(f"transit parameter {name} must be finite")
        if self.max_destination_minutes <= 0:
            raise InvalidModelError("max destination time must be positive")
        if self.waiting_rate > 0:
            raise InvalidModelError("waiting rate must be non-positive")

    def score_terms(self, action_values, state_values
                    ) -> tuple[np.ndarray, np.ndarray, float]:
        """(fixed, miss, slope) with S(a, theta; m) = fixed + slope * m * miss.

        ``fixed`` and ``miss`` are (actions, states): the score without the
        second-bus term, and 1.0 where the bus is missed (a > theta). ``slope``
        is ``waiting_rate - destination_rate``, the score per minute of the
        second bus's mean arrival m.
        """
        a = np.asarray(action_values, dtype=float)[:, None]
        theta = np.asarray(state_values, dtype=float)[None, :]
        r0, rw, rd = self.activity_rate, self.waiting_rate, self.destination_rate
        T, off = self.max_destination_minutes, self.second_bus_offset
        miss = a > theta
        fixed = np.where(miss, r0 * a + rw * (off - a) + rd * T + rd * theta,
                         r0 * a + rw * (theta - a) + rd * T)
        return fixed, miss.astype(float), rw - rd


ScoringRule = Union[MatrixRule, TransitRule]


@dataclass(frozen=True, eq=False)
class InformationStructure:
    """Joint distribution over (signal, state) induced by one visualization
    or communication strategy.

    Construction refuses every :func:`structure_violations` fault at once
    and renormalizes the joint, so every signal has positive mass.
    """

    signals: tuple[str, ...]
    joint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(str(v) for v in self.signals))
        j = np.array(self.joint, dtype=float)
        problems = structure_violations(self.signals, j)
        if problems:
            raise InvalidModelError(problems)
        j = j / j.sum()
        j.setflags(write=False)
        object.__setattr__(self, "joint", j)

    @property
    def n_states(self) -> int:
        return self.joint.shape[1]

    def __len__(self) -> int:
        return len(self.signals)

    def signal_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    def state_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    def posteriors(self) -> np.ndarray:
        """Posterior over states given each signal, one row per signal:
        row i is the joint's row i divided by its mass, checked and
        renormalized as :class:`Belief` is.
        """
        return _normalized_beliefs(self.joint / self.joint.sum(axis=1, keepdims=True))


def structure_violations(signals: Sequence[str], joint: np.ndarray) -> list[str]:
    """All invariant violations of a would-be information structure."""
    out = []
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2 or j.size == 0:
        return ["joint must be a non-empty (signal x state) matrix"]
    if len(signals) != j.shape[0]:
        out.append("signal list does not match joint rows")
    if len(set(signals)) != len(signals):
        out.append("signal identifiers must be unique")
    if not np.all(np.isfinite(j)):
        out.append("joint entries must be finite")
        return out
    if np.any(j < -NORMALIZATION_TOL):
        out.append("joint entries must be non-negative")
    total = float(j.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        out.append(f"joint mass is {total!r}, not 1 within tolerance")
    if np.any(j.sum(axis=1) <= 0.0):
        out.append("every signal row needs positive total mass")
    return out


@dataclass(frozen=True)
class ExperimentDesign:
    """A base decision task plus the set of strategies being compared.

    All strategies must share the same data-generating process, i.e. their
    joints must marginalize to one common state prior.
    """

    states: StateSpace
    actions: ActionSpace
    rule: ScoringRule
    strategies: Mapping[str, InformationStructure]
    conversion: object | None = None
    trials_per_experiment: int = 1
    initial_score: float = 0.0
    report_map: "ReportMap | None" = None
    name: str = "design"

    def __post_init__(self):
        object.__setattr__(self, "strategies", dict(self.strategies))
        trials = self.trials_per_experiment
        if not _is_integer(trials) or trials < 1:
            raise InvalidModelError(f"trials_per_experiment must be a positive "
                                    f"integer, not {trials!r}")
        score = self.initial_score
        # isfinite converts to a float, which an int beyond its range cannot
        if (isinstance(score, bool)
                or not isinstance(score, (int, float, np.integer, np.floating))
                or isinstance(score, int) and abs(score) > sys.float_info.max
                or not math.isfinite(score)):
            raise InvalidModelError(f"initial_score must be a finite number, "
                                    f"not {score!r}")
        object.__setattr__(self, "initial_score", float(score))
        if not self.strategies:
            raise InvalidModelError("an experiment design needs at least one strategy")
        priors = {k: s.state_marginal() for k, s in self.strategies.items()}
        ref_name = next(iter(priors))
        ref = priors[ref_name]
        for k, p in priors.items():
            if p.shape != ref.shape:
                raise InvalidModelError("strategies disagree on the state space size")
            if np.max(np.abs(p - ref)) > PRIOR_MATCH_TOL:
                raise InvalidModelError(
                    f"strategy {k!r} marginalizes to a different state prior "
                    f"than {ref_name!r}"
                )

    def strategy_names(self) -> list[str]:
        return list(self.strategies)


@dataclass(frozen=True)
class ReportMap:
    """Named, invertible mapping between scalar reports and belief rows.

    Belief-report tasks sometimes elicit a quantity that is not literally a
    state probability (e.g. a probability-of-superiority judgment); the map
    carries report -> belief and belief -> report conversions plus a stable
    name for config round-trips.

    ``belief_rows`` maps a 1-D array of reports to one unnormalized belief
    row per report, element by element, and raises ``InvalidModelError`` for
    reports outside the map's domain; ``to_beliefs`` checks and renormalizes
    its rows as :class:`Belief` does. ``from_beliefs`` maps an (n, states)
    matrix of belief rows back to n reports.
    """

    name: str
    belief_rows: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    from_beliefs: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    def to_beliefs(self, reports) -> np.ndarray:
        """One belief row per report: an (n reports, n states) matrix."""
        rows = self.belief_rows(np.asarray(reports, dtype=float).reshape(-1))
        return _normalized_beliefs(rows)


def binary_report_map(n_states: int = 2) -> ReportMap:
    if n_states != 2:
        raise InvalidModelError("the default report map needs a binary state space")
    return ReportMap(
        name="binary",
        belief_rows=lambda r: np.column_stack([1.0 - r, r]),
        from_beliefs=lambda P: P[:, 1],
    )


# ---------------------------------------------------------------------------
# Scoring kernel


def _checked_beliefs(design: ExperimentDesign, beliefs) -> np.ndarray:
    """``beliefs`` as an (n, states) float matrix that fits the design's rule."""
    P = np.asarray(beliefs, dtype=float)
    rule = design.rule
    matrix = isinstance(rule, MatrixRule)
    if matrix and rule.n_actions != len(design.actions):
        raise DimensionError(f"rule scores {rule.n_actions} actions but the "
                             f"space has {len(design.actions)}")
    n_states = rule.n_states if matrix else len(design.states)
    if P.ndim != 2 or P.shape[1] != n_states:
        raise DimensionError(
            f"beliefs of shape {P.shape} do not match the rule's {n_states} states"
        )
    return P


def score_table(design: ExperimentDesign, beliefs) -> np.ndarray:
    """Expected score of every action under each belief row: (n, actions).

    A transit row plugs in its own mean arrival for the second bus, so the
    table is quadratic in the belief: P fixed' + slope (P theta) (P miss').
    """
    P = _checked_beliefs(design, beliefs)
    rule = design.rule
    if isinstance(rule, MatrixRule):
        # einsum sums each row in state order, whatever the batch around it
        return np.einsum("ns,as->na", P, rule.scores)
    theta = design.states.numeric_values()
    fixed, miss, slope = rule.score_terms(design.actions.numeric_values(), theta)
    return P @ fixed.T + slope * (P @ theta)[:, None] * (P @ miss.T)


def outcome_scores(design: ExperimentDesign, action_idx,
                   beliefs=None) -> np.ndarray:
    """Realized score of action ``action_idx[i]`` in every state: (n, states).

    A matrix rule reads its table rows. The transit rule takes row i's
    second-bus mean from ``beliefs[i]`` (the belief in scope when the action
    was chosen) and needs ``beliefs``.
    """
    idx = np.asarray(action_idx, dtype=np.intp)
    rule = design.rule
    if isinstance(rule, MatrixRule):
        if rule.scores.shape != (len(design.actions), len(design.states)):
            raise DimensionError("score matrix does not match the action/state spaces")
        return rule.scores[idx]
    if beliefs is None:
        raise InvalidModelError("transit scores need a context belief for the second bus")
    P = _checked_beliefs(design, beliefs)
    theta = design.states.numeric_values()
    fixed, miss, slope = rule.score_terms(design.actions.numeric_values(), theta)
    return fixed[idx] + slope * (P @ theta)[:, None] * miss[idx]


def optimal_action_indices(design: ExperimentDesign, beliefs) -> np.ndarray:
    """Argmax action index for each belief row, ties to the lowest index."""
    return np.argmax(score_table(design, beliefs), axis=1)


def joint_violations(signals: Sequence[str], joint: np.ndarray,
                     states: StateSpace) -> list[str]:
    """All invariant violations of a would-be strategy of a design on
    ``states``: :func:`structure_violations`, then a joint whose state count
    is not the space's."""
    j = np.asarray(joint, dtype=float)
    out = structure_violations(signals, j)
    if j.ndim == 2 and j.shape[1] != len(states):
        out.append(f"dimension: joint has {j.shape[1]} states but the space "
                   f"has {len(states)}")
    return out


def rule_violations(states: StateSpace, actions: ActionSpace,
                    rule: ScoringRule) -> list[str]:
    """All violations of a rule that does not fit a design's spaces."""
    if isinstance(rule, MatrixRule):
        return [f"dimension: score matrix has {n} {what} but the space has {len(space)}"
                for n, what, space in ((rule.n_actions, "actions", actions),
                                       (rule.n_states, "states", states))
                if n != len(space)]
    return [f"transit rule needs numeric {what} values"
            for what, space in (("action", actions), ("state", states))
            if space.values is None]
