"""Parametric data-generating processes and sampling utilities.

Builds information structures from the generative models behind the shipped
case studies (Gaussian-threshold forecasts, the two-team score game, Box-Cox
t arrival times) by discretizing them onto the finite states, and holds one
sampler, ``sample_cells``, which draws cells of a joint.

Every stochastic operation takes an explicit seed and is reproducible.

Distribution functions call the ``scipy.special`` ufuncs that
``scipy.stats.norm`` and ``scipy.stats.t`` call internally (``ndtr``,
``ndtri``, ``stdtr``, ``stdtrit``), so results match those to the bit. The
import sits inside the functions that need it: designs built only from
matrix rules and fixed joints never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidModelError
from .model import InformationStructure

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


def pos_to_win_probability(pos):
    """Map a probability-of-superiority judgment to the probability that the
    new-player score clears the fixed 100 threshold, for a number or element
    by element for an array.

    With both scores Gaussian at a shared sigma and the incumbent mean pinned
    to the threshold, the difference has sqrt(2) times the sigma of a single
    score, giving win = Phi(sqrt(2) * Phi^-1(pos)).
    """
    from scipy.special import ndtr, ndtri

    pos = np.asarray(pos, dtype=float)
    outside = ~((pos > 0.0) & (pos < 1.0))
    if np.any(outside):
        raise InvalidModelError(
            f"superiority probability {float(pos[outside][0])!r} must lie "
            f"strictly inside (0, 1)"
        )
    return ndtr(_SQRT2 * ndtri(pos))


def win_probability_to_pos(win):
    """Inverse of :func:`pos_to_win_probability`, for a number or an array."""
    from scipy.special import ndtr, ndtri

    win = np.asarray(win, dtype=float)
    outside = ~((win > 0.0) & (win < 1.0))
    if np.any(outside):
        raise InvalidModelError(
            f"win probability {float(win[outside][0])!r} must lie strictly "
            f"inside (0, 1)"
        )
    return ndtr(ndtri(win) / _SQRT2)


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
    realize one of eight superiority levels, drawn uniformly. Every sigma
    (the study used 5 and 15) realizes the same superiority-to-win mapping,
    so neither the sigmas nor the means enter the joint: the levels are the
    model's only parameters.
    """

    pos_levels: tuple[float, ...] = DEFAULT_POS_LEVELS

    def __post_init__(self):
        levels = tuple(float(p) for p in self.pos_levels)
        if any(not (0.5 <= p < 1.0) for p in levels):
            raise InvalidModelError("superiority levels must lie in [0.5, 1)")
        object.__setattr__(self, "pos_levels", levels)

    def win_probabilities(self) -> np.ndarray:
        return pos_to_win_probability(self.pos_levels)


#: State order for the two-team game: (incumbent outcome, new-player outcome).
TWO_TEAM_STATE_IDS = ("lose-lose", "lose-win", "win-lose", "win-win")


def two_team_rows(win: np.ndarray) -> np.ndarray:
    """Belief over the four (incumbent, new-player) outcomes implied by each
    new-player win probability, one row each; the incumbent side stays at
    1/2."""
    lose_half, win_half = 0.5 * (1.0 - win), 0.5 * win
    return np.column_stack([lose_half, win_half, lose_half, win_half])


def two_team_report_map() -> "ReportMap":
    """Report map for superiority judgments in the two-team game: a reported
    superiority probability pins down the new-player win probability, and
    with it the full four-state belief."""
    from .model import ReportMap

    return ReportMap(name="pos-to-win",
                     belief_rows=lambda r: two_team_rows(pos_to_win_probability(r)),
                     from_beliefs=lambda P: win_probability_to_pos(P[:, 1] + P[:, 3]))


def kale_joint(dgm: TwoTeamDGM) -> InformationStructure:
    """Equally likely signals (one per superiority level) over the four
    (incumbent, new-player) win/lose combinations.

    The two outcomes are independent given the trial: the incumbent wins with
    probability 1/2 and the new player with the level's mapped probability.
    Level sets whose average win probability strays from 0.805 are refused,
    since that indicates a level-derivation bug.
    """
    wins = dgm.win_probabilities()
    marginal_win = float(wins.mean())
    if abs(marginal_win - WIN_PRIOR_TARGET) > WIN_PRIOR_TOL:
        raise InvalidModelError(
            f"average win probability {marginal_win:.4f} misses the "
            f"{WIN_PRIOR_TARGET} +- {WIN_PRIOR_TOL} design target"
        )
    signals = tuple(
        f"pos{i + 1}={p:.4f}" for i, p in enumerate(dgm.pos_levels)
    )
    return InformationStructure(signals=signals,
                                joint=two_team_rows(wins) / len(wins))


# ---------------------------------------------------------------------------
# Box-Cox t distribution (GAMLSS parameterization)


@dataclass(frozen=True)
class BoxCoxTDist:
    """Box-Cox t distribution on (0, inf).

    The transformed variable z = ((x/mu)^nu - 1) / (nu sigma) for nu != 0
    (log(x/mu)/sigma at nu = 0) follows a t distribution with tau degrees of
    freedom, truncated so that x stays positive when nu > 0.

    mu, sigma and nu must be finite; tau may be inf (the normal limit).
    Each parameter is a number, or a 1-d array with one entry per
    distribution; scalars and arrays broadcast against each other. With
    arrays, ``cdf`` and ``quantile`` return one row per distribution, and
    each row equals that distribution's own scalar result bit for bit,
    except where nu is exactly 0.5, 2 or -1 (see ``_shaped``).
    """

    mu: float | np.ndarray
    sigma: float | np.ndarray
    nu: float | np.ndarray
    tau: float | np.ndarray

    def __post_init__(self):
        params = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in
                                       (self.mu, self.sigma, self.nu, self.tau)))
        if params[0].ndim > 1:
            raise InvalidModelError("Box-Cox t parameters must be numbers or 1-d arrays")
        mu, sigma, nu, tau = params
        if not np.isfinite([mu, sigma, nu]).all():
            raise InvalidModelError("mu, sigma and nu must be finite")
        if not ((mu > 0) & (sigma > 0) & (tau > 0)).all():
            raise InvalidModelError("mu, sigma, and tau must be positive")
        if params[0].ndim:
            for name, value in zip(("mu", "sigma", "nu", "tau"), params):
                value = value.copy()
                value.setflags(write=False)
                object.__setattr__(self, name, value)

    @staticmethod
    def _shaped(value, ndim: int):
        """A parameter, or a per-distribution value, with ``ndim`` trailing
        axes of length 1, so that it broadcasts against an argument of
        ``ndim`` dimensions to (distributions, *argument shape). A scalar
        stays a scalar: numpy's power rounds a scalar exponent of 2, 0.5 or
        -1 differently from the same exponent in an array."""
        if np.ndim(value) == 0:
            return value
        return np.reshape(value, np.shape(value) + (1,) * ndim)

    def _z(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mu, sigma, nu = (self._shaped(v, x.ndim) for v in (self.mu, self.sigma, self.nu))
        # in place where it can be: two (distributions, x) arrays at a time
        z = x / mu
        with np.errstate(divide="ignore", invalid="ignore"):
            log = np.log(z)
            log /= sigma
            z **= nu
            z -= 1.0
            z /= nu * sigma
        np.copyto(z, log, where=nu == 0.0)
        return z

    def _truncation(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower tail mass, normalizing mass) of the latent t variable.

        Positive nu truncates the latent variable below at -1/(sigma nu);
        negative nu caps it above at 1/(sigma |nu|); nu = 0 needs neither.
        """
        from scipy.special import stdtr

        nu = np.asarray(self.nu)
        with np.errstate(divide="ignore"):
            edge = 1.0 / (self.sigma * np.abs(nu))
        lower = np.where(nu > 0.0, stdtr(self.tau, -edge), 0.0)
        return lower, np.where(nu == 0.0, 1.0, stdtr(self.tau, edge))

    def cdf(self, x) -> np.ndarray | float:
        from scipy.special import stdtr

        xs = np.atleast_1d(np.asarray(x, dtype=float))
        lower, norm_mass = (self._shaped(v, xs.ndim) for v in self._truncation())
        out = stdtr(self._shaped(self.tau, xs.ndim), self._z(xs))
        out -= lower
        out /= norm_mass
        np.copyto(out, 0.0, where=~(xs > 0.0))
        return self._result(np.clip(out, 0.0, 1.0, out=out), np.ndim(x))

    def quantile(self, p) -> np.ndarray | float:
        from scipy.special import stdtrit

        ps = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any((ps <= 0.0) | (ps >= 1.0)):
            raise InvalidModelError("quantile levels must lie strictly inside (0, 1)")
        mu, sigma, nu, tau = (self._shaped(v, ps.ndim) for v in
                              (self.mu, self.sigma, self.nu, self.tau))
        lower, norm_mass = (self._shaped(v, ps.ndim) for v in self._truncation())
        level = ps * norm_mass + lower
        z = stdtrit(tau, level)
        # stdtrit gives +inf for some tiny levels (stdtrit(6, 1e-300)) where
        # the quantile is a large negative number
        z[(z == np.inf) & (level < 0.5)] = -np.inf
        # at extreme levels z can land just past the truncation edge;
        # clamping the base there gives the support edge (0 for nu > 0,
        # inf for nu < 0) instead of NaN. np.divide: where nu is 0 the
        # power is not used, and a Python float nu of 0 must not raise
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            base = np.maximum(nu * sigma * z + 1.0, 0.0)
            x = mu * np.where(nu == 0.0, np.exp(sigma * z), base ** np.divide(1.0, nu))
        return self._result(x, np.ndim(p))

    @staticmethod
    def _result(out: np.ndarray, ndim: int) -> np.ndarray | float:
        """``out``, computed for the argument as an array of at least one
        dimension (numpy's scalar math can round differently from its array
        loops), given back in the shape of an ``ndim``-d argument; a float
        for a scalar argument and scalar parameters."""
        if ndim == 0:
            out = out[..., 0]
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Discretization


@dataclass(frozen=True, eq=False)
class DiscretizedDistribution:
    """Probability masses on an ordered grid of cell-center values: one
    distribution as a 1-d ``masses``, or several as its rows."""

    grid: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        m = np.array(self.masses, dtype=float)
        if g.ndim != 1 or g.size == 0 or m.ndim not in (1, 2) or m.shape[-1:] != g.shape:
            raise InvalidModelError("grid must be a 1-d array and masses one row, "
                                    "or rows, of its length")
        if np.any(np.diff(g) <= 0):
            raise InvalidModelError("grid values must be strictly increasing")
        if np.any(m < -1e-12) or np.any(abs(m.sum(axis=-1) - 1.0) > 1e-9):
            raise InvalidModelError("masses must be non-negative and sum to 1")
        np.clip(m, 0.0, None, out=m)
        m /= m.sum(axis=-1, keepdims=True)
        g.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "masses", m)


def discretize(dist, grid: Sequence[float]) -> DiscretizedDistribution:
    """Bin a continuous distribution onto cell centers ``grid``.

    Cell edges sit halfway between neighboring centers; the end cells absorb
    the tails, so the masses always sum to one. ``dist`` needs only a
    ``cdf`` callable; one that returns a row per distribution (an
    array-valued :class:`BoxCoxTDist`) gives a row of masses for each.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise InvalidModelError("grid must be a non-empty 1-d array")
    if np.any(np.diff(g) <= 0):
        raise InvalidModelError("grid must be sorted strictly ascending")
    if g.size == 1:
        return DiscretizedDistribution(grid=g, masses=np.ones_like(dist.cdf(g)))
    edges = (g[1:] + g[:-1]) / 2.0
    masses = np.diff(np.asarray(dist.cdf(edges), dtype=float), axis=-1,
                     prepend=0.0, append=1.0)
    np.clip(masses, 0.0, None, out=masses)
    total = masses.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise InvalidModelError("distribution has no mass on the grid")
    masses /= total
    return DiscretizedDistribution(grid=g, masses=masses)


# ---------------------------------------------------------------------------
# Sampling (signal, state) cells


#: ``_search`` counts the draws in a CDF of at most ``_PASS_CELLS`` entries
#: by int8 passes, given ``_PASS_DRAWS`` draws per entry, since a pass costs
#: a few us whatever the draw count. ``BENCH_sampler.json`` (written by
#: ``tools/sampler_crossover.py``): the passes beat the sorted search from 1k
#: draws on 8 entries, 10k on 64, and up to 128 entries at 100k draws.
_PASS_CELLS = 64  # the counts are int8: at most 128
_PASS_DRAWS = 128


def _cdf(masses: np.ndarray) -> np.ndarray:
    """Running sum of 1-d ``masses`` for an inverse-CDF search. Every entry
    from the first one that reaches the total on is exactly 1.0, so no
    uniform in [0, 1) lands on a zero-mass cell after the last positive one."""
    cum = np.cumsum(masses)
    cum[np.searchsorted(cum, cum[-1]):] = 1.0
    return cum


def _search(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of each uniform of ``u`` in ``cum``, a CDF from ``_cdf``: exactly
    ``np.searchsorted(cum, u, side="right")`` for u in [0, 1).

    By passes (see ``_PASS_CELLS``) into int8 counts of the entries at or
    below each draw, if the CDF does not fall; no uniform reaches the last
    entry, 1.0. Any other search, a tolerated negative mass's dip included,
    takes the uniforms in sorted order, which keeps the CDF's lookups in
    cache.
    """
    if (cum.size <= _PASS_CELLS and cum.size * _PASS_DRAWS <= len(u)
            and (cum[1:] >= cum[:-1]).all()):
        cells = np.zeros(len(u), dtype=np.int8)
        for edge in cum[:-1]:
            cells += (u >= edge).view(np.int8)
        return cells
    order = np.argsort(u)
    cells = np.empty(len(u), dtype=np.intp)
    cells[order] = np.searchsorted(cum, u[order], side="right")
    return cells


def sample_cells(joint: np.ndarray, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(row index, column index) of ``n`` i.i.d. draws from a 2-d joint,
    one uniform variate per draw.

    Each draw is the exact inverse-CDF search of its uniform by ``_search``:
    by passes on weather's 8 cells and kale2020's 32, in sorted order on
    transit-1000's 121k. Cells counted by passes get their rows by passes.
    """
    n_columns = joint.shape[1]
    cells = _search(_cdf(joint.reshape(-1)), rng.uniform(size=n))
    if cells.dtype != np.int8:
        return np.divmod(cells, n_columns)
    rows = np.zeros(n, dtype=np.int8)
    for start in range(n_columns, joint.size, n_columns):
        rows += (cells >= start).view(np.int8)
    cells -= rows * np.int8(n_columns)
    return rows.astype(np.intp), cells.astype(np.intp)
