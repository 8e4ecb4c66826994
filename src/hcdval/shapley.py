"""Shapley values for coalition games: exact enumeration and Monte-Carlo sampling.

A coalition game wraps a list of disjoint player point-sets and a payoff
function evaluated on unions of selected players. The Monte-Carlo estimator
averages marginal contributions over sampled permutations; in the default
prefix mode one shared permutation serves every player per sweep, so the
player-sum telescopes to v(full) - v(empty) exactly, for any number of
permutations. Permutation logs store one 63-bit seed per permutation and can
be replayed to reproduce an estimate bit for bit.

Payoffs with a batched form (``CharacteristicFn`` with the nearest-centroid
learner, flagged by its ``batched`` property) are scored a whole coalition
matrix at a time: ``exact_shapley`` makes one ``evaluate_coalitions`` call for
all 2^K coalitions, and prefix sweeps turn their permutations into prefix rows,
drop duplicate rows and score the distinct ones together, and independent
sampling (``independent_player_estimate`` and ``sampling="independent"``)
turns one player's T permutations into 2T rows, predecessors without and
with the player, and scores their distinct rows in one call. Plain callables
and the ridge-logistic learner are called once per coalition, in the same
order as always. Either way every coalition goes through the payoff's cache,
so evaluation counts do not depend on the path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import EMPTY_SET, LabeledDataset, PointSet, RngStream, union

EXACT_PLAYER_LIMIT = 12
_PREFIX_ROW_BUDGET = 1 << 20  # (rows, K) prefix-matrix elements built at once


class CoalitionGame:
    """Players (disjoint point sets) plus a payoff over unions of players.

    :param players: disjoint PointSets, one per player
    :param payoff: a CharacteristicFn-like object (``evaluate(PointSet)``) or a
        plain callable PointSet -> float
    :param bound: payoff bound B such that marginal contributions lie in
        [-2B, 2B]; taken from ``payoff.B`` when present
    """

    def __init__(self, players: Sequence[PointSet], payoff, bound: Optional[float] = None):
        self.players = list(players)
        if not self.players:
            raise ValueError("a game needs at least one player")
        merged = union(self.players)
        if sum(len(p) for p in self.players) != len(merged):
            raise ValueError("player point sets must be disjoint")
        self._eval: Callable[[PointSet], float] = getattr(payoff, "evaluate", payoff)
        self._batch = payoff.evaluate_coalitions if getattr(payoff, "batched", False) else None
        self.payoff = payoff
        if bound is None:
            bound = getattr(payoff, "B", None)
        self.bound = None if bound is None else float(bound)
        size = int(merged.indices[-1]) + 1 if len(merged) else 1
        self._mask_size = size

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

        A batched payoff scores all rows in one call; any other payoff is
        called once per row, in row order.
        """
        if self._batch is not None:
            return self._batch(self.players, rows)
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


def exact_shapley(game: CoalitionGame) -> ShapleyEstimate:
    """Exact Shapley values by subset enumeration.

    phi_i = sum over coalitions S not containing i of
            |S|! (K - |S| - 1)! / K! * [v(S + i) - v(S)]

    Guarded to K <= 12 players (2^K payoff evaluations); larger games belong
    to monte_carlo_shapley.
    """
    K = game.K
    if K > EXACT_PLAYER_LIMIT:
        raise ValueError(
            f"exact_shapley enumerates 2^K coalitions and is capped at K={EXACT_PLAYER_LIMIT}; "
            f"got K={K} — use monte_carlo_shapley"
        )
    n_masks = 1 << K
    masks = np.arange(n_masks, dtype=np.int64)
    rows = (masks[:, None] >> np.arange(K)) & 1
    v = game.values_of_rows(rows)
    popcount = rows.sum(axis=1)
    fact = [math.factorial(s) for s in range(K + 1)]
    weight = np.array([fact[s] * fact[K - 1 - s] / fact[K] for s in range(K)])
    values = np.empty(K)
    for i in range(K):
        without = masks[(masks >> i) & 1 == 0]
        gains = v[without | (1 << i)] - v[without]
        values[i] = float(gains @ weight[popcount[without]])
    total = math.fsum(values.tolist())
    surplus = v[n_masks - 1] - v[0]
    if not abs(total - surplus) <= 1e-9:
        raise AssertionError(f"exact Shapley must satisfy efficiency: sum {total} vs surplus {surplus}")
    return ShapleyEstimate(values=values, T=0, mode="exact", permutation_log=None)


def _permutation_from_seed(seed: int, K: int) -> np.ndarray:
    return np.random.default_rng(int(seed)).permutation(K)


def _resolve_generator(rng) -> tuple[np.random.Generator, int]:
    if isinstance(rng, RngStream):
        return rng.generator(), rng.root_seed
    if isinstance(rng, np.random.Generator):
        return rng, -1
    if isinstance(rng, (int, np.integer)):
        stream = RngStream(int(rng))
        return stream.generator(), int(rng)
    raise TypeError(f"rng must be an RngStream, Generator or int, got {type(rng)!r}")


def _check_marginal(gain: float, bound: Optional[float]) -> None:
    if bound is not None and not abs(gain) <= 2.0 * bound + 1e-9:
        raise AssertionError(f"marginal contribution {gain} escapes [-2B, 2B] with B={bound}")


def _prefix_values(game: CoalitionGame, perms: np.ndarray) -> np.ndarray:
    """Payoffs of every prefix of every permutation, empty prefix first: (T, K + 1).

    Prefix rows are built a chunk at a time (so memory stays bounded for
    any K), duplicate rows are dropped, and each chunk's distinct rows are
    scored in one call.
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


def _player_gains(game: CoalitionGame, player: int, seeds) -> np.ndarray:
    """One player's marginal contribution in each seeded permutation: (T,).

    Permutation t contributes two coalitions, the player's predecessors and
    the predecessors plus the player, as rows 2t and 2t + 1 of one 0/1 player
    matrix. A batched payoff scores the distinct rows in one call; any other
    payoff is called once per row, in row order. Every gain is checked
    against the payoff bound, in permutation order.
    """
    perms = np.stack([_permutation_from_seed(int(seed), game.K) for seed in seeds])
    position = np.argsort(perms, axis=1)
    rows = np.repeat(position < position[:, player : player + 1], 2, axis=0)
    rows[1::2, player] = True
    v = _distinct_row_values(game, rows) if game._batch is not None else game.values_of_rows(rows)
    gains = v[1::2] - v[0::2]
    for gain in gains.tolist():
        _check_marginal(gain, game.bound)
    return gains


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
    per-permutation seeds and reproduces the estimate bit for bit.
    """
    K = game.K
    if sampling not in ("prefix", "independent"):
        raise ValueError(f"unknown sampling mode {sampling!r}")
    if permutation_log is not None:
        if sampling != "prefix":
            raise ValueError("permutation logs are only defined for prefix sweeps")
        seeds = [int(s) for s in permutation_log]
        T = len(seeds)
        if T < 1:
            raise ValueError("permutation log is empty")
    else:
        if T < 1:
            raise ValueError("need at least one permutation (T >= 1)")
        gen, _ = _resolve_generator(rng)
        if sampling == "prefix":
            seeds = [int(s) for s in gen.integers(0, 2**63, size=T, dtype=np.uint64)]
        else:
            seeds = gen.integers(0, 2**63, size=(K, T), dtype=np.uint64)

    totals = np.zeros(K)
    if sampling == "prefix" and game._batch is not None:
        perms = np.stack([_permutation_from_seed(seed, K) for seed in seeds])
        gains = np.diff(_prefix_values(game, perms), axis=1)
        if game.bound is not None:
            bad = ~(np.abs(gains) <= 2.0 * game.bound + 1e-9)
            if bad.any():
                _check_marginal(float(gains[bad][0]), game.bound)
        for perm, gain in zip(perms, gains):
            totals[perm] += gain
        log = list(seeds)
    elif sampling == "prefix":
        mask = np.zeros(game._mask_size, dtype=bool)
        v_empty = game.value_of_mask(mask)
        for seed in seeds:
            perm = _permutation_from_seed(seed, K)
            mask[:] = False
            prev = v_empty
            for player in perm:
                mask[game.players[player].indices] = True
                cur = game.value_of_mask(mask)
                gain = cur - prev
                _check_marginal(gain, game.bound)
                totals[player] += gain
                prev = cur
        log = list(seeds)
    else:
        for i in range(K):
            for gain in _player_gains(game, i, seeds[i]).tolist():
                totals[i] += gain
        log = None
    return ShapleyEstimate(values=totals / T, T=T, mode=sampling, permutation_log=log)


def independent_player_estimate(game: CoalitionGame, player: int, T: int, rng) -> float:
    """Monte-Carlo marginal estimate for one player only (2T evaluations).

    Samples T permutations of the player set and averages the player's
    marginal contribution against its random predecessors. Used by streaming
    refreshes that must re-roll a single dirty node without touching its
    siblings' cached estimates.
    """
    if T < 1:
        raise ValueError("need at least one permutation (T >= 1)")
    if not 0 <= player < game.K:
        raise ValueError(f"player {player} out of range for K={game.K}")
    gen, _ = _resolve_generator(rng)
    seeds = gen.integers(0, 2**63, size=T, dtype=np.uint64)
    total = 0.0
    for gain in _player_gains(game, player, seeds).tolist():
        total += gain
    return total / T


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
