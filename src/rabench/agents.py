"""Synthetic behavioral agents with known ground-truth loss structure.

These agents are test fixtures for the decomposition pipeline, not cognitive
models: the rational agent recovers zero losses, the prior agent pure belief
loss, and the noisy-belief agent a belief loss that grows with its noise.

Simulation is deterministic per seed. Stimuli are drawn first and response
noise afterwards, so agents that ignore their noise draws (zero noise, zero
lapse) reproduce the corresponding noiseless agent's records exactly under
the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .behavioral import TrialTable, _resolve_report_map
from .errors import InvalidModelError
from .generative import sample_cells
from .model import ExperimentDesign, _is_finite_number, _shown, optimal_action_indices
from .rational import prior


@dataclass(frozen=True)
class AgentSpec:
    """What kind of synthetic agent to run and on which task.

    kind: rational | prior | uniform-random | noisy-belief | lapse.
    ``noise_sd`` is the log-odds noise of the noisy-belief agent;
    ``lapse_rate`` mixes ``inner`` with a uniform-random response. A kind
    is refused a nonzero parameter, or an ``inner``, that it does not use.
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


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.log(p / (1.0 - p))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


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
    cum = np.cumsum(joint / joint.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    u = rng.uniform(size=n_trials)
    # signal v is shown on trials v, v + n_signals, ...
    for v in range(min(n_signals, n_trials)):
        t_idx[v::n_signals] = np.searchsorted(cum[v], u[v::n_signals], side="right")
    return v_idx, t_idx


def simulate(design: ExperimentDesign, strategy: str, agent: AgentSpec,
             n_trials: int, seed: int, balanced: bool = False) -> TrialTable:
    """Run a synthetic agent through ``n_trials`` draws of one strategy.

    Returns the trials in draw order, with ids "0", "1", ...; identical
    inputs give identical trials.
    """
    if n_trials < 1:
        raise InvalidModelError("need at least one trial")
    if strategy not in design.strategies:
        raise InvalidModelError(f"unknown strategy {strategy!r}")
    structure = design.strategies[strategy]
    rng = np.random.default_rng(seed)
    v_idx, t_idx = _draw_stimuli(structure, n_trials, rng, balanced)

    if agent.task == "decision":
        action = _decision_responses(design, structure, agent, v_idx, rng)
        action_ids, report = design.actions.ids, np.full(n_trials, np.nan)
    else:
        report = _belief_responses(design, structure, agent, v_idx, rng)
        action_ids, action = (), np.full(n_trials, -1)
    return TrialTable(
        trial_ids=[str(i) for i in range(n_trials)],
        strategy_ids=(strategy,), strategy=np.zeros(n_trials, dtype=np.intp),
        signal_ids=structure.signals, signal=v_idx,
        state_ids=design.states.ids, state=t_idx,
        action_ids=action_ids, action=action, report=report,
    )


def _decision_responses(design, structure, agent, v_idx, rng) -> np.ndarray:
    """Index of each trial's action in the design's action space."""
    n = len(v_idx)
    n_actions = len(design.actions)

    if agent.kind == "rational":
        return optimal_action_indices(design, structure.posteriors())[v_idx]

    if agent.kind == "prior":
        p = prior(structure).probabilities
        return np.full(n, optimal_action_indices(design, p[None, :])[0])

    if agent.kind == "uniform-random":
        return rng.integers(0, n_actions, size=n)

    if agent.kind == "noisy-belief":
        beliefs = _noisy_beliefs(design, structure, v_idx, agent.noise_sd, rng)
        return optimal_action_indices(design, beliefs)

    # lapse: inner responses first, then replace a seeded fraction
    inner = _decision_responses(design, structure, agent.inner, v_idx, rng)
    mask = rng.uniform(size=n) < agent.lapse_rate
    picks = rng.integers(0, n_actions, size=n)
    return np.where(mask, picks, inner)


def _belief_responses(design, structure, agent, v_idx, rng) -> np.ndarray:
    """Each trial's probability report."""
    from_beliefs = _resolve_report_map(design).from_beliefs
    n = len(v_idx)

    if agent.kind in ("rational", "noisy-belief"):
        reports = from_beliefs(structure.posteriors())[v_idx]
        if agent.noise_sd > 0:
            noise = rng.normal(0.0, agent.noise_sd, size=n)
            reports = _sigmoid(_logit(reports) + noise)
        return reports

    if agent.kind == "prior":
        p = prior(structure).probabilities
        return np.full(n, from_beliefs(p[None, :])[0])

    if agent.kind == "uniform-random":
        return rng.uniform(size=n)

    inner = _belief_responses(design, structure, agent.inner, v_idx, rng)
    mask = rng.uniform(size=n) < agent.lapse_rate
    uniform = rng.uniform(size=n)
    return np.where(mask, uniform, inner)


def _noisy_beliefs(design, structure, v_idx, noise_sd, rng) -> np.ndarray:
    """Posterior beliefs perturbed in log-odds, one row per trial.

    Designs with a scalar belief axis (binary states, or an explicit report
    map) are perturbed along that axis, which keeps structured state spaces
    coherent; otherwise each component's log-odds is jittered independently
    and the vector renormalized.
    """
    n = len(v_idx)
    posteriors = structure.posteriors()
    if noise_sd == 0.0:
        return posteriors[v_idx]
    try:
        report_map = _resolve_report_map(design)
    except InvalidModelError:
        raw = posteriors[v_idx]
        bumped = _sigmoid(_logit(raw) + rng.normal(0.0, noise_sd, size=raw.shape))
        return bumped / bumped.sum(axis=1, keepdims=True)
    axis = report_map.from_beliefs(posteriors)[v_idx]
    bumped = _sigmoid(_logit(axis) + rng.normal(0.0, noise_sd, size=n))
    return report_map.to_beliefs(bumped)
