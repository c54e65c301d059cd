"""Synthetic behavioral agents with known ground-truth loss structure.

These agents are test fixtures for the decomposition pipeline, not cognitive
models: the rational agent recovers zero losses, the prior agent pure belief
loss, and the noisy-belief agent a belief loss that grows with its noise.

Per trial, the rational agent holds its signal's posterior and the prior
agent the prior; the decision task plays the belief's optimal action, the
belief task reports the report map's ``from_beliefs`` of it. The
uniform-random agent plays a uniform action or reports a uniform number in
[0, 1). The noisy-belief agent adds normal noise of sd ``noise_sd`` to the
posterior's log-odds: on the report map's axis when the design has one
(binary designs do), bounded to [1e-12, 1 - 1e-12], that noisy report
being the belief task's response and its ``to_beliefs`` row the decision
task's belief; otherwise (decision task only) on each state, renormalized.
The clipped log-odds are computed once per signal and gathered per trial,
and the noise is one ``rng.normal`` draw over the trials (times states), in
trial order: the same draws and responses as jittering each trial's own
posterior.
The lapse agent swaps its inner agent's response for a uniform-random one
on a seeded ``lapse_rate`` fraction of trials.

Simulation is deterministic per seed. Stimuli are drawn first and response
noise afterwards, so agents that ignore their noise draws (zero noise, zero
lapse) reproduce the corresponding noiseless agent's records exactly under
the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidModelError
from .generative import _cdf, _search, sample_cells
from .model import (Belief, ExperimentDesign, _check_count, _check_seed,
                    _is_finite_number, _resolve_report_map, _row_argmax, _score_table,
                    _shown)

if TYPE_CHECKING:
    from .trials import TrialTable

#: Noisy beliefs stay this far inside (0, 1).
_BOUND = 1e-12


@dataclass(frozen=True)
class AgentSpec:
    """What kind of synthetic agent (see the module docstring) to run on
    which task. A kind is refused a nonzero ``noise_sd`` or ``lapse_rate``,
    or an ``inner``, that it does not use.
    """

    kind: str
    task: str = "decision"  # "decision" | "belief"
    noise_sd: float = 0.0
    lapse_rate: float = 0.0
    inner: "AgentSpec | None" = None

    def __post_init__(self):
        if self.kind not in ("rational", "prior", "uniform-random",
                             "noisy-belief", "lapse"):
            raise InvalidModelError(f"unknown agent kind {self.kind!r}")
        if self.task not in ("decision", "belief"):
            raise InvalidModelError(f"unknown task {self.task!r}")
        if not (_is_finite_number(self.noise_sd) and self.noise_sd >= 0.0):
            raise InvalidModelError("noise sd must be non-negative and finite, "
                                    f"not {_shown(self.noise_sd)}")
        if not (_is_finite_number(self.lapse_rate) and 0.0 <= self.lapse_rate <= 1.0):
            raise InvalidModelError("lapse rate must lie in [0, 1], "
                                    f"not {_shown(self.lapse_rate)}")
        for name, owner in (("noise_sd", "noisy-belief"), ("lapse_rate", "lapse"),
                            ("inner", "lapse")):
            if self.kind != owner and getattr(self, name):
                raise InvalidModelError(f"a {self.kind!r} agent takes no {name}")
        if self.kind == "lapse":
            if self.inner is None:
                raise InvalidModelError("lapse agents need an inner agent")
            if self.inner.task != self.task:
                raise InvalidModelError("inner agent must share the lapse task")

    @staticmethod
    def rational(task: str = "decision") -> "AgentSpec":
        return AgentSpec(kind="rational", task=task)

    @staticmethod
    def prior_only(task: str = "decision") -> "AgentSpec":
        return AgentSpec(kind="prior", task=task)

    @staticmethod
    def uniform_random(task: str = "decision") -> "AgentSpec":
        return AgentSpec(kind="uniform-random", task=task)

    @staticmethod
    def noisy_belief(noise_sd: float, task: str = "decision") -> "AgentSpec":
        return AgentSpec(kind="noisy-belief", task=task, noise_sd=noise_sd)

    @staticmethod
    def lapsing(lapse_rate: float, inner: "AgentSpec") -> "AgentSpec":
        return AgentSpec(kind="lapse", task=inner.task, lapse_rate=lapse_rate,
                         inner=inner)


def _jittered(p: np.ndarray, v_idx: np.ndarray, noise_sd: float, rng) -> np.ndarray:
    """``p[v_idx]``, clipped to the bound, with normal noise added to its
    log-odds. ``p`` has one row per signal, whose log-odds are taken once."""
    p = np.clip(p, _BOUND, 1.0 - _BOUND)
    x = np.log(p / (1.0 - p))[v_idx]
    x += rng.normal(0.0, noise_sd, size=x.shape)
    # the sigmoid 1 / (1 + exp(-x)), in place; exp = inf gives its limit 0
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _draw_stimuli(structure, n_trials: int, rng: np.random.Generator,
                  balanced: bool) -> tuple[np.ndarray, np.ndarray]:
    """(signal index, state index) per trial.

    Default draws i.i.d. from the joint; balanced mode cycles signals in
    blocks and draws states from each signal's conditional.
    """
    joint = structure.joint
    if not balanced:
        return sample_cells(joint, n_trials, rng)
    n_signals = joint.shape[0]
    v_idx = np.arange(n_trials) % n_signals
    t_idx = np.empty(n_trials, dtype=int)
    conditionals = joint / joint.sum(axis=1, keepdims=True)
    u = rng.uniform(size=n_trials)
    # signal v is shown on trials v, v + n_signals, ...
    for v in range(min(n_signals, n_trials)):
        t_idx[v::n_signals] = _search(_cdf(conditionals[v]), u[v::n_signals])
    return v_idx, t_idx


def simulate(design: ExperimentDesign, strategy: str, agent: AgentSpec,
             n_trials: int, seed: int, balanced: bool = False) -> TrialTable:
    """Run a synthetic agent through ``n_trials`` draws of one strategy.

    Returns the trials in draw order; identical inputs give identical
    trials. The trial ids are the row numbers, an integer array 0, 1, ...,
    written to a trial CSV as "0", "1", ....
    """
    from .trials import TrialTable

    _check_count(n_trials, "trial")
    _check_seed(seed)
    if strategy not in design.strategies:
        raise InvalidModelError(f"unknown strategy {strategy!r}")
    structure = design.strategies[strategy]
    rng = np.random.default_rng(seed)
    v_idx, t_idx = _draw_stimuli(structure, n_trials, rng, balanced)
    responses = _responses(design, structure, agent, v_idx, rng)
    decision = agent.task == "decision"
    return TrialTable(
        trial_ids=np.arange(n_trials),
        strategy_ids=(strategy,), strategy=np.zeros(n_trials, dtype=np.intp),
        signal_ids=structure.signals, signal=v_idx,
        state_ids=design.states.ids, state=t_idx,
        action_ids=design.actions.ids if decision else (),
        action=responses if decision else np.full(n_trials, -1),
        report=np.full(n_trials, np.nan) if decision else responses,
    )


def _responses(design, structure, agent, v_idx, rng) -> np.ndarray:
    """Each trial's response: an action index on the decision task, a
    report on the belief task."""
    n = len(v_idx)
    decision = agent.task == "decision"
    # the task picks how a belief row becomes a response, and a uniform pick;
    # every row given to respond is checked already, or normalized here
    respond = ((lambda P: _row_argmax(_score_table(design, P))) if decision
               else _resolve_report_map(design).from_beliefs)
    pick = (partial(rng.integers, 0, len(design.actions), size=n) if decision
            else partial(rng.uniform, size=n))

    if agent.kind == "rational" or agent.kind == "noisy-belief" and not agent.noise_sd:
        return respond(structure.posteriors())[v_idx]
    if agent.kind == "prior":
        p = Belief(structure.state_marginal()).probabilities
        return np.full(n, respond(p[None, :])[0])
    if agent.kind == "uniform-random":
        return pick()
    if agent.kind == "lapse":
        # inner responses first, then replace a seeded fraction
        inner = _responses(design, structure, agent.inner, v_idx, rng)
        lapsed = rng.uniform(size=n) < agent.lapse_rate
        return np.where(lapsed, pick(), inner)

    posteriors = structure.posteriors()
    try:
        report_map = _resolve_report_map(design)
    except InvalidModelError:  # no belief axis: jitter each state
        bumped = _jittered(posteriors, v_idx, agent.noise_sd, rng)
        bumped /= bumped.sum(axis=1, keepdims=True)
        return respond(bumped)
    reports = _jittered(report_map.from_beliefs(posteriors), v_idx, agent.noise_sd, rng)
    np.clip(reports, _BOUND, 1.0 - _BOUND, out=reports)
    return respond(report_map.to_beliefs(reports)) if decision else reports
