"""Shapley values for coalition games: exact enumeration and Monte-Carlo sampling.

A coalition game wraps a list of disjoint player point-sets and a payoff
function evaluated on unions of selected players. The Monte-Carlo estimator
averages marginal contributions over sampled permutations; in the default
prefix mode one shared permutation serves every player per sweep, so the
player-sum telescopes to v(full) - v(empty) exactly, for any number of
permutations. Permutation logs store one 63-bit seed per permutation and can
be replayed to reproduce an estimate bit for bit; a replayed log may hold any
integer seed in [0, 2^64).

Permutation t orders the K players by the keys mix64(seed_t + (i + 1) gamma),
i = 0 .. K - 1: splitmix64's outputs 1 .. K seeded with seed_t (``core.mix64``).
The keys are distinct, since mix64 is a bijection and the K states differ
(gamma is odd), so the order does not depend on the sort; ``_permutations``
draws all the seeds of a call at once. Estimators draw their seeds with
``RngStream.seeds``.

Every estimator asks for payoffs as an (R, K) 0/1 player matrix, one row per
coalition. ``exact_shapley`` asks for all 2^K coalitions, prefix sweeps turn
their permutations into prefix rows, and independent sampling
(``independent_player_estimate`` and ``sampling="independent"``) turns each
listed player's T permutations into 2T rows, predecessors without and with
the player. All three also take a sequence of games that share one payoff,
such as the leaves or the families of one tree level, and score the rows of
all the games together (``_values_of_pieces``), in payoff calls of at most
``core.TEMP_BYTES`` bytes of player matrix, a game's prefix rows cut into
pieces of that size; the Monte-Carlo estimators draw the permutations of
every game with the same K in one call. A payoff with an ``evaluate_games``
method (``CharacteristicFn``) scores a call's games in one pass through its
cache, each distinct coalition once, and its payoffs do not depend on the
batch, so every estimate equals one-game, one-coalition-at-a-time play bit
for bit; any other payoff, such as a plain callable, is asked once per
distinct row of a game's matrix through ``CoalitionGame.value_of_ids``.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .core import EMPTY_SET, SPLITMIX_GAMMA, TEMP_BYTES, LabeledDataset, PointSet, RngStream, mix64, union

EXACT_PLAYER_LIMIT = 12


class CoalitionGame:
    """Players (disjoint point sets) plus a payoff over unions of players.

    :param players: disjoint PointSets, one per player
    :param payoff: a CharacteristicFn-like object (``evaluate(PointSet)`` and
        ``evaluate_games(games)``) or a plain callable PointSet -> float
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
    every game's rows in that one call; any other payoff is asked for one
    distinct row at a time through ``value_of_ids``, game by game.
    """
    payoff = games[0].payoff
    if any(game.payoff is not payoff for game in games):
        raise ValueError("games played together must share one payoff")
    evaluate_games = getattr(payoff, "evaluate_games", None)
    if evaluate_games is None:
        return [_asked_once(game, r) for game, r in zip(games, rows)]
    return evaluate_games([(game.players, r) for game, r in zip(games, rows)])


def _asked_once(game: CoalitionGame, rows: np.ndarray) -> np.ndarray:
    """A game's payoffs of the rows of a 0/1 player matrix, asked once per distinct row."""
    packed = np.packbits(rows, axis=1)
    _, first, inverse = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True)
    return np.array([game.value_of_ids(np.flatnonzero(row)) for row in rows[first]], dtype=np.float64)[inverse]


def exact_shapley(game):
    """Exact Shapley values by subset enumeration.

    phi_i = sum over coalitions S not containing i of
            |S|! (K - |S| - 1)! / K! * [v(S + i) - v(S)]

    Guarded to K <= 12 players (2^K payoff evaluations); larger games belong
    to monte_carlo_shapley.

    ``game`` may also be a sequence of games that share one payoff. Their
    coalitions are then scored together (``_values_of_pieces``) and the result
    is a list of estimates, bit for bit those of playing the games one at a
    time in order, since payoffs do not depend on their batch.
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
    payoffs = _values_of_pieces([(g, plans[g.K][0].size, plans[g.K][0].view) for g in games])
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


def _stream(rng) -> RngStream:
    """An ``rng`` argument as a stream: an int stands for ``RngStream(int)``."""
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, numbers.Integral):
        return RngStream(int(rng))
    raise TypeError(f"rng must be an RngStream or int, got {type(rng)!r}")


def _check_gains(gains: np.ndarray, bound: Optional[float]) -> None:
    """Raise for the first gain, in C order, outside [-2B, 2B] (NaN included)."""
    if bound is None:
        return
    bad = ~(np.abs(gains) <= 2.0 * bound + 1e-9)
    if bad.any():
        raise AssertionError(f"marginal contribution {float(gains[bad][0])} escapes [-2B, 2B] with B={bound}")


def _sums_in_order(gains: Sequence[np.ndarray]) -> list:
    """Each row of each (P_g, T_g) gain array summed left to right from 0.0: one (P_g,) array per array.

    All rows advance together, one column per step. Past its own last
    column a row adds zeros, which leave a running total unchanged: one that
    starts at +0.0 is never -0.0.
    """
    offsets = list(accumulate((g.shape[0] for g in gains), initial=0))
    stacked = np.zeros((offsets[-1], max(g.shape[1] for g in gains)))
    for g, start in zip(gains, offsets):
        stacked[start : start + g.shape[0], : g.shape[1]] = g
    sums = np.zeros(offsets[-1])
    for column in stacked.T:
        sums += column
    return [sums[start:end] for start, end in zip(offsets, offsets[1:])]


def _values_of_pieces(pieces: Sequence[tuple]) -> list:
    """Payoffs of the rows of (game, size, rows) pieces, one array per piece.

    ``rows()`` gives a piece's 0/1 player matrix, of ``size`` bytes, when its
    call comes. Consecutive pieces share one ``_values_of_games`` call while
    their sizes add up to at most ``TEMP_BYTES`` (a larger piece has a call of
    its own).
    """
    out: list = []
    start = 0
    while start < len(pieces):
        stop, size = start + 1, pieces[start][1]
        while stop < len(pieces) and size + pieces[stop][1] <= TEMP_BYTES:
            size += pieces[stop][1]
            stop += 1
        out += _values_of_games([game for game, _, _ in pieces[start:stop]], [rows() for _, _, rows in pieces[start:stop]])
        start = stop
    return out


def _permutations(seeds, K: int) -> np.ndarray:
    """Permutation t of each seed s_t: (seeds.size, K), the argsort of mix64(s_t + (i + 1) gamma) over i."""
    steps = np.arange(1, K + 1, dtype=np.uint64) * np.uint64(SPLITMIX_GAMMA)
    return np.argsort(mix64(np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) + steps), axis=1)


def _positions(seeds: Sequence[np.ndarray], Ks: Sequence[int]) -> list:
    """Where each player sits in each seeded permutation, per game: (seeds_g.size, K_g).

    The seeds of all the games with one K are drawn in one call.
    """
    out: list = [None] * len(seeds)
    for K in dict.fromkeys(Ks):
        games = [g for g, k in enumerate(Ks) if k == K]
        position = np.argsort(_permutations(np.concatenate([seeds[g].reshape(-1) for g in games]), K), axis=1)
        offsets = list(accumulate((seeds[g].size for g in games), initial=0))
        for g, start, end in zip(games, offsets, offsets[1:]):
            out[g] = position[start:end]
    return out


def _prefix_rows(position: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start .. stop - 1 of the prefix matrix: row t (K + 1) + i holds the first i players of permutation t."""
    K = position.shape[1]
    r = np.arange(start, stop)
    return position[r // (K + 1)] < (r % (K + 1))[:, None]


def _independent_rows(position: np.ndarray, who: np.ndarray) -> np.ndarray:
    """Rows 2d and 2d + 1: the predecessors of player ``who[d]`` in permutation d, without and with it."""
    draw = np.arange(who.size)
    rows = np.repeat(position < position[draw, who][:, None], 2, axis=0)
    rows[2 * draw + 1, who] = True
    return rows


def _prefix_totals(games: Sequence[CoalitionGame], seeds: Sequence[np.ndarray]) -> list:
    """Each game's summed prefix-sweep gains per player over its seeded permutations: (K_g,) per game.

    Every prefix of every permutation is one row, empty prefix first; a
    game's rows are cut into pieces of at most ``TEMP_BYTES`` bytes (so
    memory stays bounded for any K), and the pieces of all the
    games are scored in as few calls as that budget allows. Each game's
    gains are checked against its bound in sweep order, game by game, and
    added per player in permutation order.
    """
    positions = _positions(seeds, [game.K for game in games])
    pieces, owner = [], []
    for g, (game, position) in enumerate(zip(games, positions)):
        rows = position.shape[0] * (game.K + 1)
        step = max(1, TEMP_BYTES // game.K)
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            pieces.append((game, (stop - start) * game.K, functools.partial(_prefix_rows, position, start, stop)))
            owner.append(g)
    values: list = [[] for _ in games]
    for g, v in zip(owner, _values_of_pieces(pieces)):
        values[g].append(v)
    by_player = []
    for game, position, v in zip(games, positions, values):
        gains = np.diff(np.concatenate(v).reshape(position.shape[0], game.K + 1), axis=1)
        _check_gains(gains, game.bound)
        by_player.append(np.take_along_axis(gains, position, axis=1).T)
    return _sums_in_order(by_player)


def _player_totals(games: Sequence[CoalitionGame], players: Sequence[np.ndarray], seeds: Sequence[np.ndarray]) -> list:
    """Each listed player's summed marginal contributions over its seeded permutations: (P_g,) per game.

    Row k of game g's (P_g, T) ``seeds`` holds the seeds of player
    ``players[g][k]``'s permutations. Permutation t of player k contributes
    two coalitions, the player's predecessors and the predecessors plus the
    player (``_independent_rows``); a game's rows are one piece for
    ``_values_of_pieces``. Every gain is checked against its game's bound,
    game by game, player by player and in permutation order.
    """
    positions = _positions(seeds, [game.K for game in games])
    pieces = []
    for game, who, s, position in zip(games, players, seeds, positions):
        who = np.repeat(who, s.shape[1])
        pieces.append((game, 2 * who.size * game.K, functools.partial(_independent_rows, position, who)))
    gains = []
    for game, s, v in zip(games, seeds, _values_of_pieces(pieces)):
        gains.append((v[1::2] - v[0::2]).reshape(s.shape))
        _check_gains(gains[-1], game.bound)
    return _sums_in_order(gains)


def _replay_seeds(permutation_log: Sequence[int]) -> np.ndarray:
    """A permutation log's seeds as uint64, rejecting entries no seed can be."""
    seeds = list(permutation_log)
    for i, seed in enumerate(seeds):
        if not isinstance(seed, numbers.Integral) or not 0 <= int(seed) < 2**64:
            raise ValueError(f"permutation log entry {i} is {seed!r}, not an integer in [0, 2^64)")
    return np.array([int(seed) for seed in seeds], dtype=np.uint64)


def _one_per_game(items, count: int, what: str) -> list:
    """A sequence of ``count`` items, one per game of a several-game call."""
    if isinstance(items, (RngStream, numbers.Integral)) or len(items) != count:
        raise ValueError(f"{count} games need a sequence of as many {what}")
    return list(items)


def monte_carlo_shapley(
    game,
    T: int,
    rng,
    sampling: str = "prefix",
    permutation_log: Optional[Sequence[int]] = None,
):
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

    ``game`` may also be a sequence of games that share one payoff, with
    ``rng`` a sequence of as many streams (or ``permutation_log`` a sequence
    of as many logs). The result is then a list whose entry g equals
    ``monte_carlo_shapley(game[g], T, rng[g], sampling, permutation_log[g])``
    bit for bit: the permutations of all the games are drawn together, one
    draw per distinct K, and their coalitions are scored together, since
    payoffs do not depend on their batch.
    """
    if sampling not in ("prefix", "independent"):
        raise ValueError(f"unknown sampling mode {sampling!r}")
    single = isinstance(game, CoalitionGame)
    games = [game] if single else list(game)
    if permutation_log is not None:
        if sampling != "prefix":
            raise ValueError("permutation logs are only defined for prefix sweeps")
        logs = [permutation_log] if single else _one_per_game(permutation_log, len(games), "permutation logs")
        seeds = [_replay_seeds(log) for log in logs]
        if any(s.size < 1 for s in seeds):
            raise ValueError("permutation log is empty")
    else:
        if T < 1:
            raise ValueError("need at least one permutation (T >= 1)")
        streams = [rng] if single else _one_per_game(rng, len(games), "random streams")
        seeds = [_stream(r).seeds(T if sampling == "prefix" else (g.K, T)) for g, r in zip(games, streams)]
    if not games:
        return []
    if sampling == "independent":
        totals = _player_totals(games, [np.arange(g.K) for g in games], seeds)
        estimates = [ShapleyEstimate(values=t / T, T=T, mode=sampling, permutation_log=None) for t in totals]
    else:
        totals = _prefix_totals(games, seeds)
        estimates = [
            ShapleyEstimate(values=t / s.size, T=s.size, mode=sampling, permutation_log=s.tolist())
            for t, s in zip(totals, seeds)
        ]
    return estimates[0] if single else estimates


def independent_player_estimate(game, player, T: int, rng):
    """Monte-Carlo marginal estimate for one player only (2T evaluations).

    Samples T permutations of the player set and averages the player's
    marginal contribution against its random predecessors. Used by streaming
    refreshes that must re-roll a single dirty node without touching its
    siblings' cached estimates.

    ``player`` may also be a sequence of distinct players, with ``rng`` a
    sequence of as many streams. The result is then an array whose entry k
    equals ``independent_player_estimate(game, player[k], T, rng[k])`` bit for
    bit.

    ``game`` may also be a sequence of games that share one payoff, with
    ``player`` and ``rng`` sequences of one such argument per game. The
    result is then a list whose entry g equals
    ``independent_player_estimate(game[g], player[g], T, rng[g])`` bit for
    bit. The permutations of all the players are drawn together, and their
    coalitions are scored together.
    """
    if T < 1:
        raise ValueError("need at least one permutation (T >= 1)")
    single_game = isinstance(game, CoalitionGame)
    games = [game] if single_game else list(game)
    if single_game:
        player, rng = [player], [rng]
    else:
        player = _one_per_game(player, len(games), "player arguments")
        rng = _one_per_game(rng, len(games), "random streams")
    singles, players, seeds = [], [], []
    for g, p, r in zip(games, player, rng):
        single = isinstance(p, numbers.Integral)
        ids = [int(p)] if single else [int(k) for k in p]
        streams = [r] if single else r
        if not ids:
            raise ValueError("need at least one player")
        if isinstance(streams, (RngStream, numbers.Integral)) or len(streams) != len(ids):
            raise ValueError(f"{len(ids)} players need a sequence of as many random streams")
        if len(set(ids)) != len(ids):
            raise ValueError(f"players must be distinct, got {ids}")
        for k in ids:
            if not 0 <= k < g.K:
                raise ValueError(f"player {k} out of range for K={g.K}")
        singles.append(single)
        players.append(np.array(ids))
        seeds.append(np.stack([_stream(s).seeds(T) for s in streams]))
    if not games:
        return []
    means = [t / T for t in _player_totals(games, players, seeds)]
    out = [float(m[0]) if single else m for m, single in zip(means, singles)]
    return out[0] if single_game else out


def flat_mcds(data: LabeledDataset, cf, T: int, rng) -> "ValueVector":
    """Flat Monte-Carlo data Shapley: every point is its own player."""
    groups = [PointSet._from_sorted(np.asarray([i], dtype=np.int64)) for i in range(data.n)]
    return _group_values(data, cf, groups, T, rng, "mcds")


def group_shapley(data: LabeledDataset, cf, groups: Sequence[PointSet], T: int, rng) -> "ValueVector":
    """Grouped Shapley baseline: groups are players, group value splits evenly."""
    return _group_values(data, cf, groups, T, rng, "gs")


def _group_values(data: LabeledDataset, cf, groups: Sequence[PointSet], T: int, rng, method_tag: str) -> "ValueVector":
    """Prefix-sweep Shapley values of the groups of a partition of the train split, each split evenly over its points."""
    from .core import ValueVector

    start = time.perf_counter()
    stream = _stream(rng)
    merged = union(groups)
    if len(merged) != data.n or sum(len(g) for g in groups) != data.n:
        raise ValueError("groups must partition the train split")
    est = monte_carlo_shapley(CoalitionGame(groups, cf), T, stream)
    values = np.empty(data.n)
    for g, group in enumerate(groups):
        values[group.indices] = est.values[g] / len(group)
    return ValueVector(
        values=values,
        method_tag=method_tag,
        seed=stream.root_seed,
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
    stream = _stream(rng)
    return ValueVector(
        values=stream.generator().random(n),
        method_tag="random",
        seed=stream.root_seed,
        permutations_T=0,
        wallclock_ms=(time.perf_counter() - start) * 1000.0,
    )
