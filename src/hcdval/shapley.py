"""Shapley values for coalition games: exact enumeration and Monte-Carlo sampling.

A coalition game wraps a list of disjoint player point-sets and a payoff
function evaluated on unions of selected players. The Monte-Carlo estimator
averages marginal contributions over sampled permutations; in the default
prefix mode one shared permutation serves every player per sweep, so the
player-sum telescopes to v(full) - v(empty) exactly, for any number of
permutations. Permutation logs store one 63-bit seed per permutation and can
be replayed to reproduce an estimate bit for bit; a replayed log may hold any
integer seed in [0, 2^64).

Permutation t is ``np.random.default_rng(seed_t).permutation(K)``, drawn for
all seeds of a call at once, as array arithmetic and with no generator built,
by ``permutations.draw_permutations``; the rows are numpy's bit for bit.

Every estimator asks for payoffs as an (R, K) 0/1 player matrix, one row per
coalition, through ``_distinct_row_values``, which drops duplicate rows and
hands the distinct ones to ``CoalitionGame.values_of_rows`` in one call:
``exact_shapley`` asks for all 2^K coalitions at once (for several games
that share a payoff, for all their coalitions in one call), prefix sweeps turn
their permutations into prefix rows (a chunk at a time), and independent
sampling (``independent_player_estimate`` and ``sampling="independent"``)
turns each listed player's T permutations into 2T rows, predecessors without
and with the player, and asks for all players' rows together. A payoff with
an ``evaluate_coalitions`` method (``CharacteristicFn``) scores the whole
matrix in one call through its cache, and its payoffs do not depend on the
batch, so the estimates equal one-coalition-at-a-time play bit for bit; a
plain callable is called once per distinct row.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import EMPTY_SET, LabeledDataset, PointSet, RngStream, union
from .permutations import draw_permutations as _permutations

EXACT_PLAYER_LIMIT = 12
_PREFIX_ROW_BUDGET = 1 << 20  # (rows, K) prefix-matrix elements built at once


class CoalitionGame:
    """Players (disjoint point sets) plus a payoff over unions of players.

    :param players: disjoint PointSets, one per player
    :param payoff: a CharacteristicFn-like object (``evaluate(PointSet)`` and
        ``evaluate_coalitions(blocks, rows)``) or a plain callable
        PointSet -> float
    :param bound: payoff bound B such that marginal contributions lie in
        [-2B, 2B]; taken from ``payoff.B`` when present
    """

    def __init__(self, players: Sequence[PointSet], payoff, bound: Optional[float] = None):
        self.players = list(players)
        if not self.players:
            raise ValueError("a game needs at least one player")
        points = np.concatenate([p.indices for p in self.players])
        points.sort()
        if (points[1:] == points[:-1]).any():  # each PointSet is duplicate-free
            raise ValueError("player point sets must be disjoint")
        self._eval: Callable[[PointSet], float] = getattr(payoff, "evaluate", payoff)
        self._batch = getattr(payoff, "evaluate_coalitions", self._call_per_row)
        self.payoff = payoff
        if bound is None:
            bound = getattr(payoff, "B", None)
        self.bound = None if bound is None else float(bound)

    @property
    def K(self) -> int:
        return len(self.players)

    def value_of_ids(self, player_ids) -> float:
        """Payoff of the coalition formed by the given player ids."""
        ids = np.asarray(player_ids, dtype=np.int64)
        if ids.size == 0:
            return self._eval(EMPTY_SET)
        arrays = [self.players[int(i)].indices for i in ids]
        return self._eval(PointSet._from_sorted(np.unique(np.concatenate(arrays))))

    def value_of_mask(self, mask: np.ndarray) -> float:
        """Payoff of the coalition of points flagged in a boolean mask."""
        return self._eval(PointSet._from_sorted(np.flatnonzero(mask).astype(np.int64)))

    def values_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Payoffs of the coalitions flagged by the rows of an (R, K) 0/1 player matrix.

        The payoff's ``evaluate_coalitions(players, rows)`` scores all rows in
        one call; a plain callable is called once per row, in row order.
        """
        return self._batch(self.players, rows)

    def _call_per_row(self, players: Sequence[PointSet], rows: np.ndarray) -> np.ndarray:
        return np.array([self.value_of_ids(np.flatnonzero(row)) for row in rows], dtype=np.float64)


@dataclass(frozen=True)
class ShapleyEstimate:
    """Per-player Shapley values plus how they were obtained."""

    values: np.ndarray
    T: int
    mode: str
    permutation_log: Optional[list] = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.mode not in ("exact", "prefix", "independent"):
            raise ValueError(f"unknown estimate mode {self.mode!r}")


def _values_of_games(games: Sequence[CoalitionGame], rows: Sequence[np.ndarray]) -> list:
    """Payoffs of each game's player rows, all games in one call to their shared payoff.

    A payoff with an ``evaluate_games`` method (``CharacteristicFn``) scores
    every game's rows in that one call; any other payoff is asked game by
    game through ``values_of_rows``.
    """
    payoff = games[0].payoff
    if any(game.payoff is not payoff for game in games):
        raise ValueError("games played together must share one payoff")
    evaluate_games = getattr(payoff, "evaluate_games", None)
    if evaluate_games is None:
        return [game.values_of_rows(r) for game, r in zip(games, rows)]
    return evaluate_games([(game.players, r) for game, r in zip(games, rows)])


def exact_shapley(game):
    """Exact Shapley values by subset enumeration.

    phi_i = sum over coalitions S not containing i of
            |S|! (K - |S| - 1)! / K! * [v(S + i) - v(S)]

    Guarded to K <= 12 players (2^K payoff evaluations); larger games belong
    to monte_carlo_shapley.

    ``game`` may also be a sequence of games that share one payoff. Their
    coalitions are then all scored in one payoff call and the result is a
    list of estimates, bit for bit those of playing the games one at a time
    in order, since payoffs do not depend on their batch.
    """
    single = isinstance(game, CoalitionGame)
    games = [game] if single else list(game)
    if not games:
        return []
    for g in games:
        if g.K > EXACT_PLAYER_LIMIT:
            raise ValueError(
                f"exact_shapley enumerates 2^K coalitions and is capped at K={EXACT_PLAYER_LIMIT}; "
                f"got K={g.K} — use monte_carlo_shapley"
            )
    plans = {K: _exact_plan(K) for K in {g.K for g in games}}
    payoffs = _values_of_games(games, [plans[g.K][0] for g in games])
    estimates = [_exact_values(plans[g.K][1], v) for g, v in zip(games, payoffs)]
    return estimates[0] if single else estimates


def _exact_plan(K: int) -> tuple:
    """The 2^K coalition rows of a K-player game, in mask order, and per player
    the masks without it, the same masks with it, and their Shapley weights."""
    masks = np.arange(1 << K, dtype=np.int64)
    rows = ((masks[:, None] >> np.arange(K)) & 1).astype(bool)
    popcount = rows.sum(axis=1)
    fact = [math.factorial(s) for s in range(K + 1)]
    weight = np.array([fact[s] * fact[K - 1 - s] / fact[K] for s in range(K)])
    terms = []
    for i in range(K):
        without = masks[(masks >> i) & 1 == 0]
        terms.append((without, without | (1 << i), weight[popcount[without]]))
    return rows, terms


def _exact_values(terms: list, v: np.ndarray) -> ShapleyEstimate:
    """Exact Shapley values from the payoffs ``v`` of all 2^K coalitions, in mask order."""
    values = np.empty(len(terms))
    for i, (without, with_i, weight) in enumerate(terms):
        values[i] = float((v[with_i] - v[without]) @ weight)
    total = math.fsum(values.tolist())
    surplus = v[-1] - v[0]
    if not abs(total - surplus) <= 1e-9:
        raise AssertionError(f"exact Shapley must satisfy efficiency: sum {total} vs surplus {surplus}")
    return ShapleyEstimate(values=values, T=0, mode="exact", permutation_log=None)


def _resolve_generator(rng) -> tuple[np.random.Generator, int]:
    if isinstance(rng, RngStream):
        return rng.generator(), rng.root_seed
    if isinstance(rng, np.random.Generator):
        return rng, -1
    if isinstance(rng, (int, np.integer)):
        stream = RngStream(int(rng))
        return stream.generator(), int(rng)
    raise TypeError(f"rng must be an RngStream, Generator or int, got {type(rng)!r}")


def _check_gains(gains: np.ndarray, bound: Optional[float]) -> None:
    """Raise for the first gain, in C order, outside [-2B, 2B] (NaN included)."""
    if bound is None:
        return
    bad = ~(np.abs(gains) <= 2.0 * bound + 1e-9)
    if bad.any():
        raise AssertionError(f"marginal contribution {float(gains[bad][0])} escapes [-2B, 2B] with B={bound}")


def _sums_in_order(gains: np.ndarray) -> np.ndarray:
    """Each row of a (P, T) gain array summed left to right from 0.0, as a running total: (P,)."""
    sums = np.zeros(gains.shape[0])
    for column in gains.T:
        sums += column
    return sums


def _prefix_values(game: CoalitionGame, perms: np.ndarray) -> np.ndarray:
    """Payoffs of every prefix of every permutation, empty prefix first: (T, K + 1).

    Prefix rows are built a chunk at a time (so memory stays bounded for
    any K), and each chunk's distinct rows are scored in one call.
    """
    T, K = perms.shape
    position = np.argsort(perms, axis=1)  # position[t, j]: where player j sits in permutation t
    flat = np.empty(T * (K + 1))
    step = max(1, _PREFIX_ROW_BUDGET // K)
    for start in range(0, flat.size, step):
        r = np.arange(start, min(start + step, flat.size))
        flat[r] = _distinct_row_values(game, position[r // (K + 1)] < (r % (K + 1))[:, None])
    return flat.reshape(T, K + 1)


def _distinct_row_values(game: CoalitionGame, rows: np.ndarray) -> np.ndarray:
    """Payoffs of the rows of a 0/1 player matrix, scoring each distinct row once."""
    packed = np.packbits(rows, axis=1)
    _, first, inverse = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True)
    return game.values_of_rows(rows[first])[inverse]


def _player_gains(game: CoalitionGame, players: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Each listed player's marginal contribution in each of its seeded permutations: (P, T).

    Row k of the (P, T) ``seeds`` holds the seeds of player ``players[k]``'s
    permutations; all P·T permutations are drawn in one call. Permutation t
    of player k contributes two coalitions, the player's predecessors and the
    predecessors plus the player, as rows 2(kT + t) and 2(kT + t) + 1 of one
    0/1 player matrix, whose distinct rows are scored in one call. Payoffs
    do not depend on their batch, so the gains equal P one-player calls' bit
    for bit. Every gain is checked against the payoff bound, player by
    player and in permutation order.
    """
    P, T = seeds.shape
    who = np.repeat(players, T)
    draw = np.arange(P * T)
    position = np.argsort(_permutations(seeds, game.K), axis=1)
    rows = np.repeat(position < position[draw, who][:, None], 2, axis=0)
    rows[2 * draw + 1, who] = True
    v = _distinct_row_values(game, rows)
    gains = (v[1::2] - v[0::2]).reshape(P, T)
    _check_gains(gains, game.bound)
    return gains


def _replay_seeds(permutation_log: Sequence[int]) -> np.ndarray:
    """A permutation log's seeds as uint64, rejecting entries no seed can be."""
    seeds = list(permutation_log)
    for i, seed in enumerate(seeds):
        if not isinstance(seed, numbers.Integral) or not 0 <= int(seed) < 2**64:
            raise ValueError(f"permutation log entry {i} is {seed!r}, not an integer in [0, 2^64)")
    return np.array([int(seed) for seed in seeds], dtype=np.uint64)


def monte_carlo_shapley(
    game: CoalitionGame,
    T: int,
    rng,
    sampling: str = "prefix",
    permutation_log: Optional[Sequence[int]] = None,
) -> ShapleyEstimate:
    """Monte-Carlo Shapley over T sampled permutations.

    In "prefix" mode each permutation is swept once and every player's
    marginal contribution is read off the running prefix union (K payoff
    evaluations per sweep, shared permutation). In "independent" mode each
    player gets its own T permutations (2 evaluations each); that matches the
    one-player-at-a-time concentration analysis but forgoes the telescoping
    player-sum identity.

    Passing ``permutation_log`` (prefix mode only) replays exactly those
    per-permutation seeds and reproduces the estimate bit for bit. Every
    entry must be an integer in [0, 2^64).
    """
    K = game.K
    if sampling not in ("prefix", "independent"):
        raise ValueError(f"unknown sampling mode {sampling!r}")
    if permutation_log is not None:
        if sampling != "prefix":
            raise ValueError("permutation logs are only defined for prefix sweeps")
        seeds = _replay_seeds(permutation_log)
        T = seeds.size
        if T < 1:
            raise ValueError("permutation log is empty")
    else:
        if T < 1:
            raise ValueError("need at least one permutation (T >= 1)")
        gen, _ = _resolve_generator(rng)
        seeds = gen.integers(0, 2**63, size=T if sampling == "prefix" else (K, T), dtype=np.uint64)

    if sampling == "independent":
        totals = _sums_in_order(_player_gains(game, np.arange(K), seeds))
        return ShapleyEstimate(values=totals / T, T=T, mode=sampling, permutation_log=None)
    perms = _permutations(seeds, K)
    gains = np.diff(_prefix_values(game, perms), axis=1)
    _check_gains(gains, game.bound)
    totals = np.zeros(K)
    for perm, gain in zip(perms, gains):
        totals[perm] += gain
    return ShapleyEstimate(values=totals / T, T=T, mode=sampling, permutation_log=seeds.tolist())


def independent_player_estimate(game: CoalitionGame, player, T: int, rng) -> float | np.ndarray:
    """Monte-Carlo marginal estimate for one player only (2T evaluations).

    Samples T permutations of the player set and averages the player's
    marginal contribution against its random predecessors. Used by streaming
    refreshes that must re-roll a single dirty node without touching its
    siblings' cached estimates.

    ``player`` may also be a sequence of distinct players, with ``rng`` a
    sequence of as many streams. The result is then an array whose entry k
    equals ``independent_player_estimate(game, player[k], T, rng[k])`` bit for
    bit; the permutations of all the players are drawn together.
    """
    if T < 1:
        raise ValueError("need at least one permutation (T >= 1)")
    single = isinstance(player, (int, np.integer))
    players = [int(player)] if single else [int(p) for p in player]
    streams = [rng] if single else rng
    if not players:
        raise ValueError("need at least one player")
    if isinstance(streams, (RngStream, np.random.Generator, int, np.integer)) or len(streams) != len(players):
        raise ValueError(f"{len(players)} players need a sequence of as many random streams")
    if len(set(players)) != len(players):
        raise ValueError(f"players must be distinct, got {players}")
    for p in players:
        if not 0 <= p < game.K:
            raise ValueError(f"player {p} out of range for K={game.K}")
    seeds = np.stack([_resolve_generator(r)[0].integers(0, 2**63, size=T, dtype=np.uint64) for r in streams])
    means = _sums_in_order(_player_gains(game, np.array(players), seeds)) / T
    return float(means[0]) if single else means


def _per_point_from_groups(
    data: LabeledDataset, cf, groups: Sequence[PointSet], T: int, rng
) -> tuple[np.ndarray, ShapleyEstimate]:
    merged = union(groups)
    if len(merged) != data.n or sum(len(g) for g in groups) != data.n:
        raise ValueError("groups must partition the train split")
    game = CoalitionGame(groups, cf)
    est = monte_carlo_shapley(game, T, rng)
    values = np.empty(data.n)
    for g, group in enumerate(groups):
        values[group.indices] = est.values[g] / len(group)
    return values, est


def flat_mcds(data: LabeledDataset, cf, T: int, rng) -> "ValueVector":
    """Flat Monte-Carlo data Shapley: every point is its own player."""
    from .core import ValueVector

    start = time.perf_counter()
    groups = [PointSet._from_sorted(np.asarray([i], dtype=np.int64)) for i in range(data.n)]
    values, est = _per_point_from_groups(data, cf, groups, T, rng)
    _, seed = _resolve_generator(rng)
    return ValueVector(
        values=values,
        method_tag="mcds",
        seed=seed,
        permutations_T=est.T,
        wallclock_ms=(time.perf_counter() - start) * 1000.0,
    )


def group_shapley(data: LabeledDataset, cf, groups: Sequence[PointSet], T: int, rng) -> "ValueVector":
    """Grouped Shapley baseline: groups are players, group value splits evenly."""
    from .core import ValueVector

    start = time.perf_counter()
    values, est = _per_point_from_groups(data, cf, groups, T, rng)
    _, seed = _resolve_generator(rng)
    return ValueVector(
        values=values,
        method_tag="gs",
        seed=seed,
        permutations_T=est.T,
        wallclock_ms=(time.perf_counter() - start) * 1000.0,
    )


def leave_one_out(data: LabeledDataset, cf) -> "ValueVector":
    """Leave-one-out values: phi_i = v(D) - v(D without i)."""
    from .core import ValueVector

    start = time.perf_counter()
    full = data.all_points()
    v_full = cf.evaluate(full)
    values = np.empty(data.n)
    for i in range(data.n):
        values[i] = v_full - cf.evaluate(full.without(i))
    return ValueVector(
        values=values,
        method_tag="loo",
        seed=0,
        permutations_T=0,
        wallclock_ms=(time.perf_counter() - start) * 1000.0,
    )


def random_values(n: int, rng) -> "ValueVector":
    """Uniform random scores in [0, 1): the null baseline."""
    from .core import ValueVector

    start = time.perf_counter()
    gen, seed = _resolve_generator(rng)
    return ValueVector(
        values=gen.random(n),
        method_tag="random",
        seed=seed,
        permutations_T=0,
        wallclock_ms=(time.perf_counter() - start) * 1000.0,
    )
