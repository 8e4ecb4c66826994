"""The batched payoff against the per-point reference and the generic path.

``CharacteristicFn.evaluate_coalitions`` scores many coalitions over disjoint
point blocks, and ``evaluate`` one, both through ``_score_rows``. These tests
hold it to the per-point reference ``coalition_utility`` +
lambda * ``normalized_dispersion`` (values) and to ``evaluate`` (bytes, cache
keys, miss counts), its certified nearest-centroid argmin to the direct
distance formula, and the Shapley solvers that use it to a plain callable.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval import (
    EMPTY_SET,
    CharacteristicFn,
    CoalitionGame,
    LabeledDataset,
    PointSet,
    RngStream,
    coalition_utility,
    exact_shapley,
    independent_player_estimate,
    make_synthetic,
    monte_carlo_shapley,
    normalized_dispersion,
    union,
)
from hcdval import utility
from hcdval.core import point_words

TOL = 1e-12


def random_dataset(seed: int, C: int, D: int, on_grid: bool) -> tuple:
    """A small dataset plus an embedding with zero-norm rows.

    On the grid, features are multiples of 0.5: their sums are exact in any
    order, so validation points often sit at exactly equal distances from
    two centroids and the argmin tie-break is exercised.
    """
    gen = np.random.default_rng(seed)
    n, n_val = int(gen.integers(6, 15)), int(gen.integers(3, 9))
    if on_grid:
        feats = 0.5 * gen.integers(-3, 4, size=(n + n_val, D))
    else:
        feats = gen.normal(size=(n + n_val, D))
    labels = gen.integers(0, C, size=n + n_val)
    data = LabeledDataset(feats[:n], labels[:n], feats[n:], labels[n:], C)
    emb = gen.normal(size=(n, 3))
    emb[gen.random(n) < 0.25] = 0.0
    return data, emb


def random_blocks(gen: np.random.Generator, n: int) -> list:
    """Disjoint blocks of one to three points covering a random subset."""
    order = gen.permutation(n)[: int(gen.integers(2, n + 1))]
    cuts = np.sort(gen.choice(np.arange(1, order.size), size=min(order.size - 1, int(gen.integers(1, 6))), replace=False))
    return [PointSet(part) for part in np.split(order, cuts) if part.size]


def reference_payoff(data, emb, lam, metric, learner, points) -> float:
    """The per-point payoff: the learner fitted on the coalition's rows, plus the dispersion bonus."""
    value = coalition_utility(data, points, metric, learner)
    if lam:
        value = value + lam * normalized_dispersion(emb, data.labels, points).value
    return value


def test_cache_key_is_a_16_byte_digest():
    assert len(PointSet(range(1000)).key()) == 16
    assert PointSet([1, 2]).key() != PointSet([1, 3]).key()


def splitmix64(k: int) -> int:
    """Output k of the splitmix64 generator seeded with 0, in Python integers: the reference."""
    z = (k + 1) * 0x9E3779B97F4A7C15 % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def test_cache_key_is_the_xor_of_splitmix64_point_words():
    points = [0, 1, 7, 4095, 2**40 + 3]
    assert point_words(points).tolist() == [[splitmix64(2 * i), splitmix64(2 * i + 1)] for i in points]
    words = [0, 0]
    for i in points:
        words = [words[0] ^ splitmix64(2 * i), words[1] ^ splitmix64(2 * i + 1)]
    assert PointSet(points).key() == b"".join(w.to_bytes(8, sys.byteorder) for w in words)


def test_evaluate_keys_from_a_point_word_table_that_grows_with_the_corpus():
    data = make_synthetic(30, seed=2)
    cf = CharacteristicFn(data, data.features)
    assert cf._words.shape == (0, 2)  # built by the first lookup, not the constructor
    sets = [EMPTY_SET, PointSet([0]), PointSet([3, 7, 11]), PointSet(range(data.n))]
    for S in sets:
        assert cf._key(S) == S.key()
    assert cf._words.shape == (data.n, 2)
    # a payoff over the grown corpus reuses the table and appends the new points' words
    grown = make_synthetic(50, seed=2)
    bigger = CharacteristicFn(grown, grown.features)
    bigger._words = cf._words
    assert [bigger._key(S) for S in sets + [PointSet([data.n, grown.n - 1])]] == [
        S.key() for S in sets + [PointSet([data.n, grown.n - 1])]
    ]
    assert bigger._words.shape == (grown.n, 2) and cf._words.shape == (data.n, 2)
    assert bigger._words.tolist() == point_words(np.arange(grown.n)).tolist()
    # evaluate and evaluate_games share cache entries
    S = PointSet([1, 4, 9])
    value = bigger.evaluate(S)
    got = bigger.evaluate_games([([PointSet([9]), PointSet([1, 4])], np.ones((1, 2), bool))])
    assert got[0].tolist() == [value] and bigger.evaluations == 1 and list(bigger._cache) == [S.key()]
    # a batched lookup builds the same table and reads its words from it
    fresh = CharacteristicFn(data, data.features)
    fresh.evaluate_games([([PointSet([2]), PointSet([5, 8])], np.ones((1, 2), bool))])
    assert fresh._words.tolist() == point_words(np.arange(data.n)).tolist()
    fresh._words = fresh._words[::-1].copy()  # reversed words: a batched key that read them differs
    fresh._cache.clear()
    fresh.evaluate_games([([PointSet([2]), PointSet([5, 8])], np.ones((1, 2), bool))])
    assert list(fresh._cache) == [np.bitwise_xor.reduce(fresh._words[[2, 5, 8]], axis=0).tobytes()]


def test_the_empty_set_key_is_all_zeros():
    assert EMPTY_SET.key() == PointSet([]).key() == bytes(16)
    data = make_synthetic(30, seed=2)
    cf = CharacteristicFn(data, data.features)
    got = cf.evaluate_games([([PointSet([0, 1]), PointSet([2])], np.zeros((2, 2), bool))])
    assert list(cf._cache) == [bytes(16)] and cf.evaluations == 1
    assert got[0].tolist() == [cf.evaluate(EMPTY_SET)] * 2


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    C=st.sampled_from([2, 3]),
    metric=st.sampled_from(["accuracy", "balanced_accuracy", "auc"]),
    lam=st.sampled_from([0.0, 0.5]),
    on_grid=st.booleans(),
    D=st.sampled_from([1, 2, 8]),
)
def test_batched_payoffs_match_per_coalition_evaluate(seed, C, metric, lam, on_grid, D):
    if metric == "auc" and C != 2:
        C = 2
    if metric == "auc" and D == 1:
        # with one feature every validation point outside the centroid
        # segment has the same margin in exact arithmetic, so off the grid
        # the auc ranks those ties by rounding noise, and the per-point
        # centroids, whose last bits differ from the per-block ones, rank
        # them differently
        D = 2
    data, emb = random_dataset(seed, C, D=D, on_grid=on_grid)
    gen = np.random.default_rng(seed + 1)
    blocks = random_blocks(gen, data.n)
    K = len(blocks)
    # empty, every singleton, the full set, random rows, and a repeat
    rows = np.vstack([np.zeros(K, bool), np.eye(K, dtype=bool), np.ones(K, bool), gen.random((8, K)) < 0.5])
    rows = np.vstack([rows, rows[-1]])
    batched = CharacteristicFn(data, emb, lam=lam, metric=metric)
    single = CharacteristicFn(data, emb, lam=lam, metric=metric)
    got = batched.evaluate_coalitions(blocks, rows)
    coalitions = [union([b for b, on in zip(blocks, row) if on]) for row in rows]
    want = np.array([reference_payoff(data, emb, lam, metric, "nearest_centroid", S) for S in coalitions])
    assert np.abs(got - want).max() <= TOL
    for S in coalitions:
        single.evaluate(S)
    assert batched.evaluations == single.evaluations
    assert set(batched._cache) == set(single._cache)
    # a second pass, batched or not, is served from the cache
    again = batched.evaluate_coalitions(blocks, rows)
    assert np.array_equal(again, got)
    batched.evaluate(union(blocks))
    assert batched.evaluations == single.evaluations


# Offsets of the tie case: around 1.23e8 the squared norms carry more than
# 53 bits, and at this one the expanded distances put validation point 0
# nearer class 1; near 1e160 they overflow. Both must take the direct formula.
TIE_OFFSETS = [(0.0, 1.0), (123000001.5, 1.0), (1e160, 4.0 * np.spacing(1e160))]


@pytest.mark.parametrize("metric", ["accuracy", "balanced_accuracy", "auc"])
def test_equidistant_validation_point_breaks_the_tie_the_same_way(metric):
    # class-0 centroid at -1, class-1 centroid at +1 (in units, around the
    # offset); validation point 0 is equidistant and goes to the lower class
    # on both paths
    expected = {"accuracy": 2.0 / 3.0, "balanced_accuracy": 0.75, "auc": 1.0}[metric]
    for offset, unit in TIE_OFFSETS:
        feats = offset + unit * np.array([[-1.0], [-1.0], [1.0], [1.0]])
        labels = np.array([0, 0, 1, 1])
        val = offset + unit * np.array([[0.0], [-2.0], [2.0]])
        data = LabeledDataset(feats, labels, val, np.array([1, 0, 1]), 2)
        blocks = [PointSet([i]) for i in range(4)]
        rows = np.array([[1, 0, 1, 0], [1, 1, 1, 1], [0, 1, 0, 1]], dtype=bool)
        got = CharacteristicFn(data, feats, lam=0.0, metric=metric).evaluate_coalitions(blocks, rows)
        single = CharacteristicFn(data, feats, lam=0.0, metric=metric)
        want = [single.evaluate(PointSet(np.flatnonzero(row))) for row in rows]
        assert got.tolist() == want == [expected] * 3, offset


def direct_nearest_centroids(centroids, present, val_X):
    """Argmin of the direct squared distances, absent classes at infinity: the reference."""
    d2 = ((val_X[None, :, None, :] - centroids[:, None, :, :]) ** 2).sum(axis=3)
    return np.where(present[:, None, :], d2, np.inf).argmin(axis=2)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    C=st.sampled_from([2, 3, 4]),
    D=st.sampled_from([1, 2, 8]),
    offset=st.sampled_from(TIE_OFFSETS),
    on_grid=st.booleans(),
)
def test_certified_argmin_equals_the_direct_formula(seed, C, D, offset, on_grid):
    gen = np.random.default_rng(seed)
    base, unit = offset
    R, n_val = 6, 12
    if on_grid:  # half-integer grids: many exact ties
        centroids = 0.5 * gen.integers(-3, 4, size=(R, C, D))
        val_X = 0.5 * gen.integers(-3, 4, size=(n_val, D))
    else:
        centroids, val_X = gen.normal(size=(R, C, D)), gen.normal(size=(n_val, D))
    centroids, val_X = base + unit * centroids, base + unit * val_X
    present = np.ones((R, C), dtype=bool)
    if C > 2:  # drop up to C - 2 classes per row
        present[gen.random((R, C)) < 0.3] = False
        present[:, :2] = True
        present = np.take_along_axis(present, gen.permutation(np.tile(np.arange(C), (R, 1)), axis=1), axis=1)
    got = utility._nearest_centroids(centroids, present, val_X)
    assert np.array_equal(got, direct_nearest_centroids(centroids, present, val_X))


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 1_000),
    metric=st.sampled_from(["accuracy", "balanced_accuracy", "auc"]),
    lam=st.sampled_from([0.0, 0.5]),
)
def test_a_payoff_does_not_depend_on_its_batch(seed, metric, lam):
    data = make_synthetic(200, overlap=0.4, seed=seed)
    gen = np.random.default_rng(seed)
    blocks = [PointSet(part) for part in np.split(gen.permutation(data.n)[:120], 8)]
    rows = gen.random((40, 8)) < 0.5
    subset = gen.permutation(rows.shape[0])[: int(gen.integers(2, rows.shape[0]))]

    def score(batch):
        return CharacteristicFn(data, data.features, lam=lam, metric=metric).evaluate_coalitions(blocks, batch)

    together = score(rows)
    alone = np.concatenate([score(row[None]) for row in rows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(utility, "_DISTANCE_BUDGET", 1)  # one-row chunks
        chunked = score(rows)
    assert together.tobytes() == alone.tobytes() == chunked.tobytes()
    assert score(rows[subset]).tobytes() == together[subset].tobytes()


def ridge_case(lam: float):
    data = make_synthetic(30, seed=2)
    blocks = [PointSet(range(i, data.n, 3)) for i in range(3)]
    return data, blocks, CharacteristicFn(data, data.features, lam=lam, learner="ridge_logistic")


def test_blocks_must_be_disjoint_and_learner_batchable():
    rows = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
    for lam in (0.0, 0.5):
        data, blocks, ridge = ridge_case(lam)
        for cf in (CharacteristicFn(data, data.features, lam=lam), ridge):
            with pytest.raises(ValueError, match="disjoint"):
                cf.evaluate_coalitions([PointSet([0, 1]), PointSet([1, 2])], np.ones((1, 2), bool))
        # the ridge learner is fitted once per coalition, as the per-point reference fits it
        got = ridge.evaluate_coalitions(blocks, rows)
        for row, value in zip(rows, got.tolist()):
            S = union([b for b, on in zip(blocks, row) if on])
            assert value == reference_payoff(data, data.features, lam, "accuracy", "ridge_logistic", S)


def test_ridge_misses_count_distinct_coalitions():
    data, blocks, ridge = ridge_case(0.5)
    rows = np.array([[1, 0, 0], [0, 1, 1], [1, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
    got = ridge.evaluate_coalitions(blocks, rows)
    assert ridge.evaluations == 3 and ridge.lookups == 5
    assert got[0] == got[2] and got[1] == got[3]
    # a later lookup of a scored coalition, one at a time or batched, is a hit
    assert ridge.evaluate(union(blocks)) == got[4]
    assert ridge.evaluate_coalitions(blocks, rows[:2]).tobytes() == got[:2].tobytes()
    assert ridge.evaluations == 3 and ridge.lookups == 8


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    C=st.sampled_from([2, 3]),
    metric=st.sampled_from(["accuracy", "balanced_accuracy", "auc"]),
    lam=st.sampled_from([0.0, 0.5]),
    learner=st.sampled_from(["nearest_centroid", "nearest_centroid", "nearest_centroid", "ridge_logistic"]),
    D=st.sampled_from([1, 2, 8]),
)
def test_evaluate_is_a_one_block_batch(seed, C, metric, lam, learner, D):
    if metric == "auc":
        C = 2
    data, emb = random_dataset(seed, C, D=D, on_grid=bool(seed % 2))
    gen = np.random.default_rng(seed + 1)
    S = PointSet(np.flatnonzero(gen.random(data.n) < gen.random()))
    one = CharacteristicFn(data, emb, lam=lam, metric=metric, learner=learner).evaluate(S)
    batch = CharacteristicFn(data, emb, lam=lam, metric=metric, learner=learner).evaluate_coalitions([S], [[True]])
    assert np.float64(one).tobytes() == batch.tobytes()


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 10_000),
    C=st.sampled_from([2, 3]),
    metric=st.sampled_from(["accuracy", "balanced_accuracy", "auc"]),
    lam=st.sampled_from([0.0, 0.5]),
    learner=st.sampled_from(["nearest_centroid", "nearest_centroid", "nearest_centroid", "ridge_logistic"]),
    D=st.sampled_from([1, 2, 8]),
    n_games=st.integers(1, 4),
)
def test_several_games_in_one_call_match_one_game_calls(seed, C, metric, lam, learner, D, n_games):
    if metric == "auc":
        C = 2
    data, emb = random_dataset(seed, C, D=D, on_grid=bool(seed % 2))
    gen = np.random.default_rng(seed + 1)
    games = []
    for _ in range(n_games):  # blocks of one to three points; games overlap
        blocks = random_blocks(gen, data.n)
        games.append((blocks, gen.random((int(gen.integers(1, 8)), len(blocks))) < 0.5))
    blocks, rows = games[0]
    games[0] = (blocks, np.vstack([np.ones(len(blocks), bool), rows]))
    # the first game's full set again, as one-point blocks
    points = union(blocks).indices
    games.append(([PointSet([i]) for i in points], np.ones((1, points.size), bool)))
    together = CharacteristicFn(data, emb, lam=lam, metric=metric, learner=learner)
    apart = CharacteristicFn(data, emb, lam=lam, metric=metric, learner=learner)
    got = together.evaluate_games(games)
    want = [apart.evaluate_coalitions(blocks, rows) for blocks, rows in games]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert got[-1][0] == got[0][0]
    assert together._cache == apart._cache
    assert together.lookups == apart.lookups == sum(rows.shape[0] for _, rows in games)
    # one miss per distinct coalition across all the games
    coalitions = {union([b for b, on in zip(blocks, row) if on]) for blocks, rows in games for row in rows}
    assert together.evaluations == apart.evaluations == len(coalitions)
    assert set(together._cache) == {S.key() for S in coalitions}


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 12))
def test_one_set_split_two_ways_is_one_coalition(seed, size):
    data = make_synthetic(40, seed=seed % 5)
    gen = np.random.default_rng(seed)
    S = PointSet(gen.permutation(data.n)[:size])

    def split():
        order = gen.permutation(S.indices)
        cuts = np.sort(gen.choice(np.arange(1, size + 1), size=int(gen.integers(0, size)), replace=False))
        return [PointSet(part) for part in np.split(order, cuts) if part.size]

    a, b = split(), split()
    cf = CharacteristicFn(data, data.features)
    got = cf.evaluate_games([(a, np.ones((1, len(a)), bool)), (b, np.ones((1, len(b)), bool))])
    assert cf.evaluations == 1 and list(cf._cache) == [S.key()]
    assert got[0].tobytes() == got[1].tobytes()


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), C=st.sampled_from([2, 3]), lam=st.sampled_from([0.0, 0.5]))
def test_one_point_blocks_take_the_group_sums_exactly(seed, C, lam):
    # a game of one-point blocks reads each point's statistics row instead of
    # summing the game's points, and must get the sums' values
    data, emb = random_dataset(seed, C, D=3, on_grid=False)
    points = np.random.default_rng(seed).permutation(data.n)[: int(seed % data.n) + 1]
    cf = CharacteristicFn(data, emb, lam=lam)
    got = cf._block_stats([[PointSet([i]) for i in points]], points.size + 2)
    order = np.argsort(points)
    sums = utility._group_sums(cf._point_stats[points[order]], order * C + data.labels[points[order]], points.size * C)
    assert np.array_equal(got[0, : points.size], sums.reshape(points.size, -1))
    assert not got[0, points.size :].any()


def _games(seed: int, lam: float, metric: str, sizes) -> tuple:
    """The same game twice: batched, and through a plain callable (generic path)."""
    data = make_synthetic(80, subclusters=3, overlap=0.3, seed=seed)
    order = np.random.default_rng(seed).permutation(data.n)
    players = [PointSet(part) for part in np.split(order[: sum(sizes)], np.cumsum(sizes)[:-1])]
    batched = CharacteristicFn(data, data.features, lam=lam, metric=metric)
    generic = CharacteristicFn(data, data.features, lam=lam, metric=metric)
    plain = CoalitionGame(players, lambda points: generic.evaluate(points), bound=generic.B)
    return CoalitionGame(players, batched), plain, batched, generic


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 1_000),
    lam=st.sampled_from([0.0, 0.5]),
    metric=st.sampled_from(["accuracy", "balanced_accuracy", "auc"]),
)
def test_solvers_match_the_generic_path(seed, lam, metric):
    game, plain, batched, generic = _games(seed, lam, metric, [1, 2, 1, 3, 1, 1, 2])
    exact = exact_shapley(game).values
    assert np.abs(exact - exact_shapley(plain).values).max() <= TOL
    assert batched.evaluations == generic.evaluations == 2**7

    game, plain, batched, generic = _games(seed, lam, metric, [9, 4, 12, 7, 1])
    est = monte_carlo_shapley(game, 12, RngStream(seed, "batched"))
    ref = monte_carlo_shapley(plain, 12, RngStream(seed, "batched"))
    assert est.permutation_log == ref.permutation_log
    assert np.abs(est.values - ref.values).max() <= TOL
    assert batched.evaluations == generic.evaluations


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 1_000),
    lam=st.sampled_from([0.0, 0.5]),
    metric=st.sampled_from(["accuracy", "balanced_accuracy", "auc"]),
)
def test_independent_sampling_matches_the_generic_path(seed, lam, metric):
    game, plain, batched, generic = _games(seed, lam, metric, [9, 4, 12, 7, 1, 3])
    for player in range(game.K):
        est = independent_player_estimate(game, player, 16, RngStream(seed, f"independent-{player}"))
        ref = independent_player_estimate(plain, player, 16, RngStream(seed, f"independent-{player}"))
        assert abs(est - ref) <= TOL
    assert batched.evaluations == generic.evaluations
    assert set(batched._cache) == set(generic._cache)

    game, plain, batched, generic = _games(seed + 1, lam, metric, [2, 5, 1, 8, 6])
    est = monte_carlo_shapley(game, 12, RngStream(seed, "ind"), sampling="independent")
    ref = monte_carlo_shapley(plain, 12, RngStream(seed, "ind"), sampling="independent")
    assert np.abs(est.values - ref.values).max() <= TOL
    assert batched.evaluations == generic.evaluations
    assert set(batched._cache) == set(generic._cache)


def _old_independent_sequence(players, player, seeds) -> list:
    """Coalitions in the order the per-permutation loop asks for them."""
    seen = []
    for seed in seeds:
        perm = np.random.default_rng(int(seed)).permutation(len(players))
        before = perm[: int(np.flatnonzero(perm == player)[0])]
        seen.append(union([players[j] for j in before]))
        seen.append(union([players[j] for j in before] + [players[player]]))
    return seen


def asked_once(seen: list, sequence: list) -> None:
    """A plain payoff was asked for each distinct coalition of ``sequence`` exactly once."""
    assert len(seen) == len(set(seen))
    assert set(seen) == set(sequence)


def test_plain_payoffs_see_the_same_coalition_sequence():
    players = [PointSet([0, 1]), PointSet([2]), PointSet([3, 4, 5]), PointSet([6]), PointSet([7, 8])]
    seen = []

    def recording(points):
        seen.append(points)
        return float(len(points) % 3)

    game = CoalitionGame(players, recording)
    independent_player_estimate(game, 2, 9, RngStream(4, "record"))
    seeds = RngStream(4, "record").generator().integers(0, 2**63, size=9, dtype=np.uint64)
    asked_once(seen, _old_independent_sequence(players, 2, seeds))

    seen.clear()
    monte_carlo_shapley(game, 3, RngStream(5, "record"), sampling="independent")
    seeds = RngStream(5, "record").generator().integers(0, 2**63, size=(5, 3), dtype=np.uint64)
    asked_once(seen, [ps for i in range(5) for ps in _old_independent_sequence(players, i, seeds[i])])


def _recording(score, seen: list):
    """A game's row scorer that also keeps every row matrix it is asked to score."""

    def record(blocks, rows):
        seen.append(rows.copy())
        return score(blocks, rows)

    return record


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 1_000),
    lam=st.sampled_from([0.0, 0.5]),
    metric=st.sampled_from(["accuracy", "balanced_accuracy", "auc"]),
)
def test_several_players_at_once_match_one_at_a_time(seed, lam, metric):
    sizes = [9, 4, 12, 7, 1, 3]
    players = [4, 0, 2]

    def streams():
        return [RngStream(seed, "several", bytes([p])) for p in players]

    together = _games(seed, lam, metric, sizes)
    alone = _games(seed, lam, metric, sizes)
    for g in (0, 1):  # CharacteristicFn payoff, then plain callable
        calls = []
        together[g]._batch = _recording(together[g]._batch, calls)
        est = independent_player_estimate(together[g], players, 16, streams())
        ref = [independent_player_estimate(alone[g], p, 16, r) for p, r in zip(players, streams())]
        assert est.tobytes() == np.array(ref).tobytes()
        # all players' distinct rows in one call
        assert len(calls) == 1
        assert len(np.unique(calls[0], axis=0)) == len(calls[0])
    for k in (2, 3):  # the batched payoff's cache, then the plain callable's
        assert together[k].evaluations == alone[k].evaluations
        assert set(together[k]._cache) == set(alone[k]._cache)


def test_plain_payoffs_see_each_players_sequence_in_player_order():
    players = [PointSet([0, 1]), PointSet([2]), PointSet([3, 4, 5]), PointSet([6]), PointSet([7, 8])]
    seen = []

    def payoff(points):
        return math.sin(1.0 + points.indices.sum()) / (1 + len(points))

    def recording(points):
        seen.append(points)
        return payoff(points)

    game = CoalitionGame(players, recording)
    order = [3, 0, 2]
    streams = [RngStream(8, "record", bytes([p])) for p in order]
    est = independent_player_estimate(game, order, 24, streams)
    want, means = [], []
    for p, stream in zip(order, streams):
        coalitions = _old_independent_sequence(players, p, stream.seeds(24))
        want += coalitions
        total = 0.0  # the per-permutation running total, as before batching
        for without, with_p in zip(coalitions[0::2], coalitions[1::2]):
            total += payoff(with_p) - payoff(without)
        means.append(total / 24)
    asked_once(seen, want)
    assert est.tobytes() == np.array(means).tobytes()


def test_batched_permutation_log_replays_bit_for_bit():
    game, _, batched, _ = _games(5, 0.5, "accuracy", [6, 3, 8, 2, 5, 4])
    est = monte_carlo_shapley(game, 20, RngStream(3, "replay"))
    warm = monte_carlo_shapley(game, 0, None, permutation_log=est.permutation_log)
    cold_cf = CharacteristicFn(batched.dataset, batched.vectors, lam=0.5)
    cold = monte_carlo_shapley(CoalitionGame(game.players, cold_cf), 0, None, permutation_log=est.permutation_log)
    assert warm.values.tobytes() == est.values.tobytes() == cold.values.tobytes()


CHECKS_UNDER_O = """
import numpy as np
from hcdval import (
    CharacteristicFn, CoalitionGame, LabeledDataset, PointSet, RngStream, independent_player_estimate,
    make_synthetic, monte_carlo_shapley,
)

assert False, "asserts are stripped under -O"

def raises(fn):
    try:
        fn()
    except AssertionError as err:
        return str(err)
    return "no error"

plain = CoalitionGame([PointSet([i]) for i in range(3)], lambda pts: 5.0 * len(pts), bound=0.5)
print(raises(lambda: monte_carlo_shapley(plain, 4, RngStream(0, "bound"))))
data = make_synthetic(40, seed=1)
players = [PointSet(range(i, data.n, 4)) for i in range(4)]
batched = CoalitionGame(players, CharacteristicFn(data, data.features), bound=1e-3)
print(raises(lambda: monte_carlo_shapley(batched, 4, RngStream(0, "bound"))))
print(raises(lambda: monte_carlo_shapley(batched, 4, RngStream(0, "bound"), sampling="independent")))
print(raises(lambda: independent_player_estimate(batched, 1, 4, RngStream(0, "bound"))))
print(raises(lambda: independent_player_estimate(batched, [3, 1], 4, [RngStream(0, "a"), RngStream(0, "b")])))

class Tight(CharacteristicFn):
    B = 0.01

print(raises(lambda: Tight(data, data.features).evaluate(PointSet(range(data.n)))))
print(raises(lambda: Tight(data, data.features).evaluate_coalitions(players, np.ones((1, 4), bool))))
tight_ridge = Tight(data, data.features, learner="ridge_logistic")
print(raises(lambda: tight_ridge.evaluate_coalitions(players, np.ones((1, 4), bool))))
games = [(players, np.eye(4, dtype=bool)), (players[:2], np.ones((1, 2), bool))]
print(raises(lambda: Tight(data, data.features).evaluate_games(games)))

# the offset tie case: the expanded distances put point 0 nearer class 1
feats = 123000001.5 + np.array([[-1.0], [-1.0], [1.0], [1.0]])
tie = LabeledDataset(feats, np.array([0, 0, 1, 1]), 123000001.5 + np.array([[0.0], [-2.0], [2.0]]), np.array([1, 0, 1]), 2)
rows = np.array([[1, 0, 1, 0], [1, 1, 1, 1]], bool)
print("tie", CharacteristicFn(tie, feats, lam=0.0).evaluate_coalitions([PointSet([i]) for i in range(4)], rows).tolist())
"""


def test_invariant_checks_survive_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O], env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("marginal contribution") for line in lines[:5])
    assert all(line.startswith("payoff") for line in lines[5:9])
    assert lines[9] == f"tie {[2.0 / 3.0] * 2}"

