"""Parametric data-generating processes and sampling utilities.

Builds information structures from the generative models behind the shipped
case studies (Gaussian-threshold forecasts, the two-team score game, Box-Cox
t arrival times), plus the discretization and Monte Carlo plumbing that
connects continuous models to the finite-state analysis.

Every stochastic operation takes an explicit seed and is reproducible.

Distribution functions call the ``scipy.special`` ufuncs that
``scipy.stats.norm`` and ``scipy.stats.t`` call internally (``ndtr``,
``ndtri``, ``stdtr``, ``stdtrit``), so results match those to the bit. The
import sits inside the functions that need it: designs built only from
matrix rules and fixed joints never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidModelError
from .model import Belief, DecisionProblem, InformationStructure
from .rational import posterior

_SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# Gaussian threshold model (forecast-style binary states)


@dataclass(frozen=True)
class GaussianThresholdDGM:
    """Fine-grained value x ~ N(mean, sigma^2) with sigma drawn from a small
    menu; the payoff state is whether x falls past ``threshold``.

    ``direction`` selects which side counts as the positive state:
    ``below`` means state 1 iff x <= threshold, ``above`` the reverse.
    """

    mean: float
    sigma_levels: tuple[tuple[float, float], ...]  # (sigma, selection prob)
    threshold: float = 0.0
    direction: str = "below"

    def __post_init__(self):
        if not self.sigma_levels:
            raise InvalidModelError("at least one sigma level is required")
        sigmas = [s for s, _ in self.sigma_levels]
        probs = [p for _, p in self.sigma_levels]
        if any(s <= 0 for s in sigmas):
            raise InvalidModelError("sigma levels must be positive")
        if abs(sum(probs) - 1.0) > 1e-9 or any(p < 0 for p in probs):
            raise InvalidModelError("sigma selection probabilities must sum to 1")
        if self.direction not in ("below", "above"):
            raise InvalidModelError("direction must be 'below' or 'above'")
        object.__setattr__(
            self,
            "sigma_levels",
            tuple((float(s), float(p)) for s, p in self.sigma_levels),
        )

    @staticmethod
    def uniform_sigmas(mean: float, sigmas: Sequence[float],
                       threshold: float = 0.0,
                       direction: str = "below") -> "GaussianThresholdDGM":
        w = 1.0 / len(sigmas)
        return GaussianThresholdDGM(
            mean=mean,
            sigma_levels=tuple((s, w) for s in sigmas),
            threshold=threshold,
            direction=direction,
        )

    def positive_probability(self, sigma: float) -> float:
        from scipy.special import ndtr

        z = (self.threshold - self.mean) / sigma
        tail = ndtr(z)
        return float(tail if self.direction == "below" else 1.0 - tail)


def weather_joint(dgm: GaussianThresholdDGM) -> InformationStructure:
    """One signal per sigma level; each row splits the level's selection
    probability between the two threshold states."""
    rows = []
    signals = []
    for sigma, p_sigma in dgm.sigma_levels:
        p1 = dgm.positive_probability(sigma)
        rows.append([p_sigma * (1.0 - p1), p_sigma * p1])
        signals.append(f"sigma={sigma:g}")
    return InformationStructure(signals=tuple(signals), joint=np.array(rows))


# ---------------------------------------------------------------------------
# Two-team score game (hire/no-hire)


def pos_to_win_probability(pos: float) -> float:
    """Map a probability-of-superiority judgment to the probability that the
    new-player score clears the fixed 100 threshold.

    With both scores Gaussian at a shared sigma and the incumbent mean pinned
    to the threshold, the difference has sqrt(2) times the sigma of a single
    score, giving win = Phi(sqrt(2) * Phi^-1(pos)).
    """
    return float(_pos_to_win(np.array([float(pos)]))[0])


def _pos_to_win(pos: np.ndarray) -> np.ndarray:
    """:func:`pos_to_win_probability` element by element."""
    from scipy.special import ndtr, ndtri

    outside = ~((pos > 0.0) & (pos < 1.0))
    if np.any(outside):
        raise InvalidModelError(
            f"superiority probability {float(pos[outside][0])!r} must lie "
            f"strictly inside (0, 1)"
        )
    return ndtr(_SQRT2 * ndtri(pos))


def win_probability_to_pos(win: float) -> float:
    """Inverse of :func:`pos_to_win_probability`."""
    from scipy.special import ndtr, ndtri

    win = float(win)
    if not (0.0 < win < 1.0):
        raise InvalidModelError(
            f"win probability {win!r} must lie strictly inside (0, 1)"
        )
    return float(ndtr(ndtri(win) / _SQRT2))


#: Default superiority levels: a warped geometric grid over [0.55, 0.95]
#: (exponent warp s = 1 - (1 - t^a)^b with a=1.349868, b=1.652009),
#: calibrated so the implied win probabilities average exactly 0.805 and the
#: hire/no-hire game's per-trial information value is exactly 0.200.
DEFAULT_POS_LEVELS: tuple[float, ...] = (
    0.55,
    0.586198656357,
    0.642980183948,
    0.710860179066,
    0.784363687986,
    0.856660188620,
    0.917771131099,
    0.95,
)

#: Tolerance on the average win probability of a two-team model.
WIN_PRIOR_TARGET = 0.805
WIN_PRIOR_TOL = 0.005


@dataclass(frozen=True)
class TwoTeamDGM:
    """Two fantasy-sports scores around a 100-point win threshold.

    The incumbent roster scores N(100, sigma^2), so it wins with probability
    1/2 regardless of sigma. The new-player score's mean is set per trial to
    realize one of eight superiority levels, drawn uniformly. Both sigmas in
    ``sigmas`` realize the same superiority-to-win mapping, so they do not
    enter the joint.
    """

    pos_levels: tuple[float, ...] = DEFAULT_POS_LEVELS
    baseline_mean: float = 100.0
    win_threshold: float = 100.0
    sigmas: tuple[float, ...] = (5.0, 15.0)

    def __post_init__(self):
        levels = tuple(float(p) for p in self.pos_levels)
        if any(not (0.5 <= p < 1.0) for p in levels):
            raise InvalidModelError("superiority levels must lie in [0.5, 1)")
        object.__setattr__(self, "pos_levels", levels)

    def win_probabilities(self) -> np.ndarray:
        return np.array([pos_to_win_probability(p) for p in self.pos_levels])


#: State order for the two-team game: (incumbent outcome, new-player outcome).
TWO_TEAM_STATE_IDS = ("lose-lose", "lose-win", "win-lose", "win-win")


def two_team_belief(win_probability: float) -> Belief:
    """Belief over the four (incumbent, new-player) outcomes implied by a
    new-player win probability; the incumbent side stays at 1/2."""
    return Belief(_two_team_rows(np.array([float(win_probability)]))[0])


def _two_team_rows(win: np.ndarray) -> np.ndarray:
    """:func:`two_team_belief` for each win probability, one row each."""
    lose_half, win_half = 0.5 * (1.0 - win), 0.5 * win
    return np.column_stack([lose_half, win_half, lose_half, win_half])


def two_team_report_map() -> "ReportMap":
    """Report map for superiority judgments in the two-team game: a reported
    superiority probability pins down the new-player win probability, and
    with it the full four-state belief."""
    from .model import ReportMap

    def from_belief(belief: Belief) -> float:
        w = float(belief.probabilities[1] + belief.probabilities[3])
        return win_probability_to_pos(w)

    return ReportMap(name="pos-to-win",
                     belief_rows=lambda r: _two_team_rows(_pos_to_win(r)),
                     from_belief=from_belief)


def kale_joint(dgm: TwoTeamDGM, check_marginal: bool = True) -> InformationStructure:
    """Equally likely signals (one per superiority level) over the four
    (incumbent, new-player) win/lose combinations.

    The two outcomes are independent given the trial: the incumbent wins with
    probability 1/2 and the new player with the level's mapped probability.
    With ``check_marginal`` set (the default, and required for the shipped
    case study), level sets whose average win probability strays from 0.805
    are refused, since that indicates a level-derivation bug.
    """
    wins = dgm.win_probabilities()
    marginal_win = float(wins.mean())
    if check_marginal and abs(marginal_win - WIN_PRIOR_TARGET) > WIN_PRIOR_TOL:
        raise InvalidModelError(
            f"average win probability {marginal_win:.4f} misses the "
            f"{WIN_PRIOR_TARGET} +- {WIN_PRIOR_TOL} design target"
        )
    n = len(wins)
    rows = []
    for w in wins:
        rows.append([
            0.5 * (1.0 - w) / n,  # lose-lose
            0.5 * w / n,          # lose-win
            0.5 * (1.0 - w) / n,  # win-lose
            0.5 * w / n,          # win-win
        ])
    signals = tuple(
        f"pos{i + 1}={p:.4f}" for i, p in enumerate(dgm.pos_levels)
    )
    return InformationStructure(signals=signals, joint=np.array(rows))


# ---------------------------------------------------------------------------
# Box-Cox t distribution (GAMLSS parameterization)


@dataclass(frozen=True)
class BoxCoxTDist:
    """Box-Cox t distribution on (0, inf).

    The transformed variable z = ((x/mu)^nu - 1) / (nu sigma) for nu != 0
    (log(x/mu)/sigma at nu = 0) follows a t distribution with tau degrees of
    freedom, truncated so that x stays positive when nu > 0.
    """

    mu: float
    sigma: float
    nu: float
    tau: float

    def __post_init__(self):
        if self.mu <= 0 or self.sigma <= 0 or self.tau <= 0:
            raise InvalidModelError("mu, sigma, and tau must be positive")

    def _z(self, x: np.ndarray) -> np.ndarray:
        ratio = x / self.mu
        if self.nu == 0.0:
            return np.log(ratio) / self.sigma
        return (ratio ** self.nu - 1.0) / (self.nu * self.sigma)

    def _truncation(self) -> tuple[float, float]:
        """(lower tail mass, normalizing mass) of the latent t variable.

        Positive nu truncates the latent variable below at -1/(sigma nu);
        negative nu caps it above at 1/(sigma |nu|); nu = 0 needs neither.
        """
        from scipy.special import stdtr

        if self.nu == 0.0:
            return 0.0, 1.0
        edge = 1.0 / (self.sigma * abs(self.nu))
        if self.nu < 0.0:
            return 0.0, float(stdtr(self.tau, edge))
        return float(stdtr(self.tau, -edge)), float(stdtr(self.tau, edge))

    def cdf(self, x) -> np.ndarray | float:
        from scipy.special import stdtr

        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        out = np.zeros_like(x_arr)
        pos = x_arr > 0.0
        if np.any(pos):
            lower, norm_mass = self._truncation()
            z = self._z(x_arr[pos])
            out[pos] = (stdtr(self.tau, z) - lower) / norm_mass
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out

    def quantile(self, p) -> np.ndarray | float:
        from scipy.special import stdtrit

        p_arr = np.asarray(p, dtype=float)
        scalar = p_arr.ndim == 0
        p_arr = np.atleast_1d(p_arr)
        if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
            raise InvalidModelError("quantile levels must lie strictly inside (0, 1)")
        lower, norm_mass = self._truncation()
        z = stdtrit(self.tau, p_arr * norm_mass + lower)
        if self.nu == 0.0:
            x = self.mu * np.exp(self.sigma * z)
        else:
            x = self.mu * (self.nu * self.sigma * z + 1.0) ** (1.0 / self.nu)
        return float(x[0]) if scalar else x

    def sample(self, rng: np.random.Generator, size: int | None = None):
        u = rng.uniform(size=size)
        if size is None:
            return float(self.quantile(u))
        return self.quantile(u)


# ---------------------------------------------------------------------------
# Discretization


@dataclass(frozen=True, eq=False)
class DiscretizedDistribution:
    """Probability masses on an ordered grid of cell-center values."""

    grid: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        m = np.array(self.masses, dtype=float)
        if g.ndim != 1 or g.shape != m.shape or g.size == 0:
            raise InvalidModelError("grid and masses must be matching 1-d arrays")
        if np.any(np.diff(g) <= 0):
            raise InvalidModelError("grid values must be strictly increasing")
        if np.any(m < -1e-12) or abs(m.sum() - 1.0) > 1e-9:
            raise InvalidModelError("masses must be non-negative and sum to 1")
        m = np.clip(m, 0.0, None)
        m = m / m.sum()
        g.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "masses", m)

    def mean(self) -> float:
        return float(self.masses @ self.grid)

    def belief(self) -> Belief:
        return Belief(self.masses)


def discretize(dist, grid: Sequence[float]) -> DiscretizedDistribution:
    """Bin a continuous distribution onto cell centers ``grid``.

    Cell edges sit halfway between neighboring centers; the end cells absorb
    the tails, so the masses always sum to one. ``dist`` needs only a
    ``cdf`` callable.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise InvalidModelError("grid must be a non-empty 1-d array")
    if np.any(np.diff(g) <= 0):
        raise InvalidModelError("grid must be sorted strictly ascending")
    if g.size == 1:
        return DiscretizedDistribution(grid=g, masses=np.array([1.0]))
    edges = (g[1:] + g[:-1]) / 2.0
    cdf_vals = np.asarray(dist.cdf(edges), dtype=float)
    masses = np.concatenate([
        [cdf_vals[0]],
        np.diff(cdf_vals),
        [1.0 - cdf_vals[-1]],
    ])
    masses = np.clip(masses, 0.0, None)
    total = masses.sum()
    if total <= 0:
        raise InvalidModelError("distribution has no mass on the grid")
    return DiscretizedDistribution(grid=g, masses=masses / total)


def quarter_minute_grid(low: float = 0.0, high: float = 30.0) -> np.ndarray:
    """Default transit arrival grid: quarter-minute cells over [low, high]."""
    return np.arange(low, high + 1e-9, 0.25)


# ---------------------------------------------------------------------------
# Monte Carlo scoring


def _derive_batch_seeds(seed: int, n_batches: int) -> list[np.random.Generator]:
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n_batches)]


def monte_carlo_score(problem: DecisionProblem,
                      policy: Callable[[str], str],
                      n: int, seed: int,
                      n_batches: int = 1) -> tuple[float, float]:
    """Estimate the expected score of ``policy`` by sampling (signal, state)
    pairs from the joint.

    Returns (mean, standard error). Batches draw from independently derived
    child seeds and merge deterministically, so the result depends only on
    (seed, n, n_batches). Transit outcomes plug in the drawn signal's
    posterior mean for the second bus, matching the exact tabular analysis.
    """
    if n < 1:
        raise InvalidModelError("need at least one draw")
    structure = problem.structure
    n_signals, n_states = structure.joint.shape
    flat = structure.joint.reshape(-1)
    cum = np.cumsum(flat)
    cum[-1] = 1.0

    action_index = {a: i for i, a in enumerate(problem.actions.ids)}
    per_signal_action = np.array(
        [action_index[str(policy(v))] for v in structure.signals]
    )

    from .model import MatrixRule, tabulate_rule

    if isinstance(problem.rule, MatrixRule):
        score_for_signal = [problem.rule.scores] * n_signals
    else:
        score_for_signal = [
            tabulate_rule(problem, posterior(structure, v)).scores
            for v in structure.signals
        ]
    # (signal, state) -> realized score of the policy action
    score_table = np.empty((n_signals, n_states))
    for vi in range(n_signals):
        score_table[vi] = score_for_signal[vi][per_signal_action[vi]]

    sizes = [n // n_batches] * n_batches
    sizes[-1] += n - sum(sizes)
    total, total_sq, count = 0.0, 0.0, 0
    for rng, size in zip(_derive_batch_seeds(seed, n_batches), sizes):
        if size == 0:
            continue
        u = rng.uniform(size=size)
        cells = np.searchsorted(cum, u, side="right")
        v_idx, t_idx = np.unravel_index(cells, (n_signals, n_states))
        scores = score_table[v_idx, t_idx]
        total += scores.sum()
        total_sq += (scores ** 2).sum()
        count += size
    mean = total / count
    var = max(total_sq / count - mean ** 2, 0.0)
    se = float(np.sqrt(var / count))
    return float(mean), se


def rational_policy(problem: DecisionProblem) -> Callable[[str], str]:
    """Policy of an agent who plays the optimal action on each posterior."""
    from .model import optimal_action

    table = {
        v: optimal_action(problem, posterior(problem.structure, v))[0]
        for v in problem.structure.signals
    }
    return lambda v: table[str(v)]


def constant_policy(action_id: str) -> Callable[[str], str]:
    return lambda v: action_id
