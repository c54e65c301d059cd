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

A design is valid by construction: ``ExperimentDesign`` refuses every
misfit among its parts that ``design_violations`` lists (a joint or rule of
the wrong size, a transit rule over spaces without values, a report map of
the wrong width), so the kernels check only the beliefs they are given:
their shape, and the entries and mass of each row, as ``Belief`` does.

Beliefs are the rows of an (n, states) matrix, so one belief is a
(1, states) matrix, and ``optimal_action_indices`` gives each row's best
action; ``InformationStructure.posteriors()`` gives every signal's posterior
as one such matrix, built on first use and then shared read-only by every
caller. ``Belief`` is only the checked one-vector type of
``RationalReport.prior``, and of the prior agent's belief. A belief
matrix or score table narrower than 8 columns is summed and ranked by
passes over its columns, which give the same bits as numpy's row
reductions without their cost per row.

All types are immutable after construction (a structure's cached posterior
matrix is read-only) and all operations are pure, so values can be shared
freely across workers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
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

#: The largest ``trials_per_experiment``: 2**53, the largest integer a float
#: holds exactly, since payments multiply it by a float score.
MAX_TRIALS_PER_EXPERIMENT = 2**53


def _is_integer(value) -> bool:
    """True for an int or numpy integer; a bool is not an integer here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(n, noun: str) -> None:
    """Refuse a count of ``noun``s that is not a positive integer."""
    if not _is_integer(n):
        raise InvalidModelError(f"{noun} count must be an integer, not {_shown(n)}")
    if n < 1:
        raise InvalidModelError(f"need at least one {noun}")


def _check_seed(seed) -> None:
    """Refuse a random seed that is not a non-negative integer: a bool, a
    float or a string is not taken for one."""
    if not _is_integer(seed) or seed < 0:
        raise InvalidModelError(f"seed must be a non-negative integer, "
                                f"not {_shown(seed)}")


def _is_finite_number(value) -> bool:
    """True for an int or float (numpy's too, but not a bool) that a float
    holds finitely; ``math.isfinite`` alone overflows on a huge int."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) > sys.float_info.max)
            and math.isfinite(value))


def _shown(value) -> str:
    """``repr(value)`` for a refusal message, or the digit count of an int
    too long for Python to print (over 4300 digits by default)."""
    try:
        return repr(value)
    except ValueError:
        n = abs(int(value))
        digits = int(n.bit_length() * math.log10(2)) + 1
        digits += (10 ** digits <= n) - (10 ** (digits - 1) > n)
        return f"an integer of {digits} digits"


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
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(str(s) for s in self.ids))
        _check_unique(self.ids, "state space")
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


@dataclass(frozen=True)
class ActionSpace:
    """Finite action menu.

    ``values`` optionally attaches a number to each action: the minute of
    each step of an ``integer_grid``, or the midpoint of each
    probability-report bin (``report_bins``).
    """

    ids: tuple[str, ...]
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(str(a) for a in self.ids))
        _check_unique(self.ids, "action space")
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            if len(vals) != len(self.ids):
                raise InvalidModelError("action values must match actions 1:1")
            object.__setattr__(self, "values", vals)

    @staticmethod
    def finite(ids: Sequence[str]) -> "ActionSpace":
        return ActionSpace(ids=tuple(ids))

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
        return ActionSpace(ids=tuple(str(v) for v in vals),
                           values=tuple(float(v) for v in vals))

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, action_id: str) -> int:
        try:
            return self.ids.index(str(action_id))
        except ValueError:
            raise InvalidModelError(f"unknown action {action_id!r}") from None


def report_bins(bin_width: float) -> tuple[np.ndarray, tuple[str, ...]]:
    """Midpoints and ids of the probability-report bins of width ``bin_width``.

    Bin k covers [k w, (k + 1) w). When w does not divide 1 the last bin is
    cut off at 1 and its midpoint is that of [lo, 1]; widths that divide 1
    up to rounding have no partial bin. Widths below ``MIN_BIN_WIDTH`` are
    refused: their bins' ids would collide.
    """
    if not (MIN_BIN_WIDTH <= bin_width <= 1.0):
        raise InvalidModelError(f"bin width must lie in [{MIN_BIN_WIDTH:g}, 1], "
                                f"not {_shown(bin_width)}")
    n_bins = int(np.ceil(1.0 / bin_width - NORMALIZATION_TOL))
    mids = (np.arange(n_bins) + 0.5) * bin_width
    if n_bins * bin_width > 1.0 + NORMALIZATION_TOL:
        mids[-1] = ((n_bins - 1) * bin_width + 1.0) / 2.0
    return mids, tuple(f"{m:.6g}" for m in mids)


#: Matrices narrower than this are reduced by passes over their columns,
#: not by numpy's reductions along rows, which pay a set-up per row: on
#: (100k, 2) beliefs a row sum costs ~20x the two-column add. The width is
#: exact for sums, since numpy adds a row of fewer than 8 entries left to
#: right (its pairwise summation starts at 8), as the passes do; at 7
#: columns the argmax pass is no longer faster than ``np.argmax``.
_NARROW = 8


def _row_sums(p: np.ndarray) -> np.ndarray:
    """``p.sum(axis=-1)``, bit for bit; a 2-D ``p`` narrower than
    ``_NARROW`` is summed by column passes."""
    if p.ndim != 2 or not 0 < p.shape[1] < _NARROW:
        return p.sum(axis=-1)
    total = p[:, 0].copy()
    for j in range(1, p.shape[1]):
        total += p[:, j]
    return total


def _row_argmax(S: np.ndarray) -> np.ndarray:
    """``np.argmax(S, axis=1)`` of a 2-D ``S`` without NaN: each row's first
    largest index. An ``S`` narrower than ``_NARROW`` is ranked by a column
    pass: column j takes the rows whose best so far it beats strictly, and
    j is above every earlier index, so a running maximum of j where it wins
    is each row's first best index."""
    n_columns = S.shape[1]
    if n_columns >= _NARROW:
        return np.argmax(S, axis=1)
    best, idx = S[:, 0], np.zeros(len(S), dtype=np.int8)
    for j in range(1, n_columns):
        column = S[:, j]
        np.maximum(idx, (column > best).view(np.int8) * np.int8(j), out=idx)
        if j < n_columns - 1:
            best = np.maximum(best, column)
    return idx.astype(np.intp)


def _check_beliefs(p: np.ndarray) -> None:
    """Refuse belief vectors along the last axis unless their entries are
    finite and no lower than ``-NORMALIZATION_TOL`` and each vector's mass
    is within ``NORMALIZATION_TOL`` of 1. A 1-D input is one belief, a 2-D
    input one belief per row."""
    # array methods rather than np.any/np.clip: the scoring kernels and
    # ReportMap.to_beliefs run this on every call, and the functions'
    # dispatch costs more than the work
    total = _row_sums(p)
    # min and max make no temporary array and give NaN if an item is NaN;
    # a NaN or infinite entry makes its vector's mass NaN or infinite
    if (total.max(initial=1.0) - 1.0 <= NORMALIZATION_TOL
            and 1.0 - total.min(initial=1.0) <= NORMALIZATION_TOL
            and p.min(initial=0.0) >= -NORMALIZATION_TOL):
        return
    if (p < -NORMALIZATION_TOL).any() or not np.isfinite(p).all():
        raise InvalidModelError("belief entries must be finite and non-negative")
    off = abs(total - 1.0) > NORMALIZATION_TOL
    if off.any():
        first = float(total[off][0] if p.ndim > 1 else total)
        raise InvalidModelError(f"belief mass {first!r} is not 1 within tolerance")


def _normalized_beliefs(p: np.ndarray) -> np.ndarray:
    """Check belief vectors as ``_check_beliefs`` does, and renormalize
    them: negative entries are clipped to 0 and each vector divided by its
    clipped mass."""
    _check_beliefs(p)
    clipped = p.clip(0.0, None)
    clipped /= _row_sums(clipped)[..., None]
    return clipped


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

    def __len__(self) -> int:
        return len(self.signals)

    def signal_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    def state_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    def posteriors(self) -> np.ndarray:
        """Posterior over states given each signal, one row per signal:
        row i is the joint's row i divided by its mass, checked and
        renormalized as :class:`Belief` is. The matrix is built on the first
        call; every call returns that same read-only array, so ``.copy()``
        it to modify it.
        """
        return self._posteriors

    @cached_property
    def _posteriors(self) -> np.ndarray:
        P = _normalized_beliefs(self.joint / self.joint.sum(axis=1, keepdims=True))
        P.setflags(write=False)
        return P

    def __getstate__(self):
        # unpickled arrays are writeable: a copy freezes its joint again and
        # builds its own posterior matrix rather than carrying this one's
        return {"signals": self.signals, "joint": self.joint}

    def __setstate__(self, state):
        state["joint"].setflags(write=False)
        self.__dict__.update(state)


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


def design_violations(states: StateSpace, actions: ActionSpace, rule: ScoringRule,
                      strategies: Mapping, report_map: "ReportMap | None" = None
                      ) -> list[str]:
    """Every misfit among a would-be design's parts: each strategy's
    :func:`structure_violations` and state count, prefixed ``strategy 'name': ``
    (a strategy is a raw ``(signals, joint)`` pair, or an
    :class:`InformationStructure` whose joint is valid, so only its shape is
    read); then the rule's type and fit to the spaces, prefixed ``rule: ``;
    then the report map's type and belief width at the report 0.5, prefixed
    ``report_map: ``."""
    out = []
    for name, strategy in strategies.items():
        if isinstance(strategy, InformationStructure):
            faults, shape = [], strategy.joint.shape
        else:
            signals, joint = strategy
            joint = np.asarray(joint, dtype=float)
            faults, shape = structure_violations(signals, joint), joint.shape
        if len(shape) == 2 and shape[1] != len(states):
            faults.append(f"dimension: joint has {shape[1]} states but the space "
                          f"has {len(states)}")
        out += [f"strategy {name!r}: {p}" for p in faults]
    if isinstance(rule, MatrixRule):
        out += [f"rule: dimension: score matrix has {n} {what} but the space has {k}"
                for n, what, k in zip(rule.scores.shape, ("actions", "states"),
                                      (len(actions), len(states))) if n != k]
    elif isinstance(rule, TransitRule):
        out += [f"rule: transit rule needs numeric {what} values"
                for what, space in (("action", actions), ("state", states))
                if space.values is None]
    else:
        out.append(f"rule: must be a MatrixRule or TransitRule, not "
                   f"{type(rule).__name__}")
    if isinstance(report_map, ReportMap):
        width = report_map.belief_rows(np.array([0.5])).shape[1]
        if width != len(states):
            out.append(f"report_map: dimension: map {report_map.name!r} gives "
                       f"{width} states but the space has {len(states)}")
    elif report_map is not None:
        out.append(f"report_map: must be a ReportMap, not {type(report_map).__name__}")
    return out


@dataclass(frozen=True)
class ExperimentDesign:
    """A base decision task plus the set of strategies being compared.

    Construction refuses a ``conversion`` without a ``convert`` method, then
    every strategy that is not an :class:`InformationStructure` and every
    :func:`design_violations` misfit at once. All strategies must share the
    same data-generating process, i.e. their joints must marginalize to one
    common state prior.
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
                                    f"integer, not {_shown(trials)}")
        if trials > MAX_TRIALS_PER_EXPERIMENT:
            raise InvalidModelError(f"trials_per_experiment must be at most 2**53, "
                                    f"not {_shown(trials)}")
        score = self.initial_score
        if not _is_finite_number(score):
            raise InvalidModelError(f"initial_score must be a finite number, "
                                    f"not {_shown(score)}")
        object.__setattr__(self, "initial_score", float(score))
        conversion = self.conversion
        if conversion is not None and not callable(getattr(conversion, "convert", None)):
            raise InvalidModelError(f"conversion must be None or a conversion rule, "
                                    f"not {type(conversion).__name__}")
        if not self.strategies:
            raise InvalidModelError("an experiment design needs at least one strategy")
        # design_violations also reads raw (signals, joint) pairs; a design
        # holds structures only
        structures = {k: s for k, s in self.strategies.items()
                      if isinstance(s, InformationStructure)}
        problems = [f"strategy {k!r}: must be an InformationStructure, not "
                    f"{type(s).__name__}"
                    for k, s in self.strategies.items() if k not in structures]
        problems += design_violations(self.states, self.actions, self.rule,
                                      structures, self.report_map)
        if problems:
            raise InvalidModelError(problems)
        priors = {k: s.state_marginal() for k, s in self.strategies.items()}
        ref_name = next(iter(priors))
        ref = priors[ref_name]
        for k, p in priors.items():
            if np.max(np.abs(p - ref)) > PRIOR_MATCH_TOL:
                raise InvalidModelError(
                    f"strategy {k!r} marginalizes to a different state prior "
                    f"than {ref_name!r}"
                )


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
    return ReportMap(name="binary", belief_rows=_binary_rows,
                     from_beliefs=lambda P: P[:, 1])


def _resolve_report_map(design: ExperimentDesign) -> ReportMap:
    if design.report_map is not None:
        return design.report_map
    return binary_report_map(len(design.states))


def _binary_rows(reports: np.ndarray) -> np.ndarray:
    """The belief row (1 - r, r) of each probability report r in [0, 1]."""
    # NaN fails both comparisons
    inside = (reports >= 0.0) & (reports <= 1.0)
    if not inside.all():
        raise InvalidModelError(f"probability report {float(reports[~inside][0])!r} "
                                f"must lie in [0, 1]")
    return np.column_stack([1.0 - reports, reports])


# ---------------------------------------------------------------------------
# Scoring kernel


def _checked_beliefs(design: ExperimentDesign, beliefs) -> np.ndarray:
    """``beliefs`` as an (n, states) float matrix over the design's states,
    refused as ``_check_beliefs`` refuses them and not renormalized."""
    P = np.asarray(beliefs, dtype=float)
    n_states = len(design.states)
    if P.ndim != 2 or P.shape[1] != n_states:
        raise DimensionError(
            f"beliefs of shape {P.shape} do not match the design's {n_states} states"
        )
    _check_beliefs(P)
    return P


def score_table(design: ExperimentDesign, beliefs) -> np.ndarray:
    """Expected score of every action under each belief row: (n, actions).

    A transit row plugs in its own mean arrival for the second bus, so the
    table is quadratic in the belief: P fixed' + slope (P theta) (P miss').
    """
    return _score_table(design, _checked_beliefs(design, beliefs))


def _score_table(design: ExperimentDesign, P: np.ndarray) -> np.ndarray:
    """``score_table`` of an (n, states) matrix known to pass its checks,
    such as a structure's posteriors: on a small design the check costs
    more than the table."""
    rule = design.rule
    if isinstance(rule, MatrixRule):
        # einsum sums each row in state order, whatever the batch around it
        return np.einsum("ns,as->na", P, rule.scores)
    theta = np.asarray(design.states.values)
    fixed, miss, slope = rule.score_terms(design.actions.values, theta)
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
        return rule.scores[idx]
    if beliefs is None:
        raise InvalidModelError("transit scores need a context belief for the second bus")
    P = _checked_beliefs(design, beliefs)
    theta = np.asarray(design.states.values)
    fixed, miss, slope = rule.score_terms(design.actions.values, theta)
    return fixed[idx] + slope * (P @ theta)[:, None] * miss[idx]


def optimal_action_indices(design: ExperimentDesign, beliefs) -> np.ndarray:
    """Argmax action index for each belief row, ties to the lowest index."""
    # score tables are finite (beliefs and scores are checked finite), so
    # argmax's rule that the first NaN wins never comes up
    return _row_argmax(score_table(design, beliefs))

