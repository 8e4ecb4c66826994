"""The batched payoff against the per-point reference and the generic path.

``CharacteristicFn.evaluate_games`` scores many coalitions over disjoint
point blocks, and ``evaluate`` one, both through ``_score_rows``. These tests
hold it to the per-point reference ``coalition_utility`` +
lambda * ``normalized_dispersion`` (values) and to ``evaluate`` (bytes, cache
keys, miss counts), its certified nearest-centroid argmin to the direct
distance formula, and the Shapley solvers that use it to a plain callable.
"""

import math
import os
from dataclasses import replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from hcdval import shapley, utility
from hcdval.core import point_words

from conftest import reference_permutation, splitmix64

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


def test_cache_key_is_the_xor_of_splitmix64_point_words():
    points = [0, 1, 7, 4095, 2**40 + 3]
    assert point_words(points).tolist() == [[splitmix64(0, 2 * i + 1), splitmix64(0, 2 * i + 2)] for i in points]
    words = [0, 0]
    for i in points:
        words = [words[0] ^ splitmix64(0, 2 * i + 1), words[1] ^ splitmix64(0, 2 * i + 2)]
    assert PointSet(points).key() == b"".join(w.to_bytes(8, sys.byteorder) for w in words)


def test_evaluate_keys_from_a_point_word_table_that_grows_with_the_corpus():
    data = make_synthetic(30, seed=2)
    cf = CharacteristicFn(data, data.features)
    assert cf._words.shape == (0, 2)  # built by the first lookup, not the constructor
    sets = [EMPTY_SET, PointSet([0]), PointSet([3, 7, 11]), PointSet(range(data.n))]
    for S in sets:
        cf.evaluate(S)
    assert list(cf._cache) == [S.key() for S in sets]
    assert cf._words.shape == (data.n, 2)
    # a payoff over the grown corpus shares the cache and the table, appends the new points' words,
    # and counts its own evaluations
    extra = make_synthetic(20, seed=3)
    grown = replace(data, features=np.vstack([data.features, extra.features]), labels=np.concatenate([data.labels, extra.labels]))
    bigger = cf.grown(grown, grown.features)
    assert bigger._cache is cf._cache and bigger._words is cf._words and bigger.evaluations == 0
    sets.append(PointSet([data.n, grown.n - 1]))
    for S in sets:
        bigger.evaluate(S)
    assert list(cf._cache) == [S.key() for S in sets] and bigger.evaluations == 1 and cf.evaluations == 4
    assert bigger._words.shape == (grown.n, 2) and cf._words.shape == (data.n, 2)
    assert bigger._words.tolist() == point_words(np.arange(grown.n)).tolist()
    # evaluate and evaluate_games share cache entries
    S = PointSet([1, 4, 9])
    value = bigger.evaluate(S)
    got = bigger.evaluate_games([([PointSet([9]), PointSet([1, 4])], np.ones((1, 2), bool))])
    assert got[0].tolist() == [value] and bigger.evaluations == 2 and cf.evaluations == 4
    assert list(cf._cache) == [P.key() for P in sets + [S]]
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
    got = batched.evaluate_games([(blocks, rows)])[0]
    coalitions = [union([b for b, on in zip(blocks, row) if on]) for row in rows]
    want = np.array([reference_payoff(data, emb, lam, metric, "nearest_centroid", S) for S in coalitions])
    assert np.abs(got - want).max() <= TOL
    for S in coalitions:
        single.evaluate(S)
    assert batched.evaluations == single.evaluations
    assert set(batched._cache) == set(single._cache)
    # a second pass, batched or not, is served from the cache
    again = batched.evaluate_games([(blocks, rows)])[0]
    assert np.array_equal(again, got)
    batched.evaluate(union(blocks))
    assert batched.evaluations == single.evaluations


# Offsets of the tie case: around 1.23e8 the squared norms carry more than
# 53 bits, and at this one the expanded distances put validation point 0
# nearer class 1; near 1e160 they overflow. Both must take the direct formula.
# At the scale 1e-160 every product is subnormal, so only the bound's
# subnormal spacings certify a gap. At 2^509 (1 -+ 2^-10) one-dimensional
# |x|^2 + M sits just below and just above the 2^1019 overflow limit.
TIE_OFFSETS = [
    (0.0, 1.0),
    (123000001.5, 1.0),
    (1e160, 4.0 * np.spacing(1e160)),
    (0.0, 1e-160),
    (2.0**509 * (1.0 - 2.0**-10), 2.0**489),
    (2.0**509 * (1.0 + 2.0**-10), 2.0**489),
]


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
        got = CharacteristicFn(data, feats, lam=0.0, metric=metric).evaluate_games([(blocks, rows)])[0]
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
    # the first R validation points sit midway between their row's first two
    # centroids: on the grid, exact ties, which go to the lower class
    val_X[:R] = 0.5 * (centroids[:, 0] + centroids[:, 1])
    centroids, val_X = base + unit * centroids, base + unit * val_X
    present = np.ones((R, C), dtype=bool)
    if C > 2:  # drop up to C - 2 classes per row
        present[gen.random((R, C)) < 0.3] = False
        present[:, :2] = True
        present = np.take_along_axis(present, gen.permutation(np.tile(np.arange(C), (R, 1)), axis=1), axis=1)
    got = utility._nearest_centroids(centroids, present, val_X)
    assert np.array_equal(got, direct_nearest_centroids(centroids, present, val_X))
    assert utility._nearest_centroids(centroids[:0], present[:0], val_X).shape == (0, n_val)


@pytest.mark.parametrize("offset", TIE_OFFSETS)
@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 10_000),
    B=st.integers(1, 16),
    K=st.integers(2, 12),
    m=st.sampled_from([1, 2, 7, 30]),
    D=st.sampled_from([1, 2, 8]),
    on_grid=st.booleans(),
)
def test_nearest_on_per_node_blocks_equals_the_direct_formula(offset, seed, B, K, m, D, on_grid):
    # (B, m, D) blocks, one per node, as Lloyd's steps pass them, with
    # duplicated, absent and tied centroids
    gen = np.random.default_rng(seed)
    base, unit = offset
    if on_grid:  # half-integer grids: many exact ties
        X, centroids = 0.5 * gen.integers(-3, 4, size=(B, m, D)), 0.5 * gen.integers(-3, 4, size=(B, K, D))
    else:
        X, centroids = gen.normal(size=(B, m, D)), gen.normal(size=(B, K, D))
    duplicated = gen.random(B) < 0.3
    centroids[duplicated, 1] = centroids[duplicated, 0]
    X[:, 0] = 0.5 * (centroids[:, 0] + centroids[:, 1])  # midway between the first two
    X[:, -1] = centroids[:, -1]  # on a centroid
    X, centroids = base + unit * X, base + unit * centroids
    present = gen.random((B, K)) >= 0.3
    present[np.arange(B), gen.integers(0, K, size=B)] = True
    with np.errstate(over="ignore"):  # |x|^2 overflows near 1e160
        xx = np.einsum("bmd,bmd->bm", X, X)
        want = np.where(present[:, None, :], ((X[:, :, None, :] - centroids[:, None]) ** 2).sum(axis=3), np.inf).argmin(axis=2)
    assert np.array_equal(utility._nearest(X, xx, centroids, present), want)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), D=st.sampled_from([1, 2, 8]), norms=st.sampled_from(["per row", "shared", "flat"]))
def test_the_row_check_keeps_the_pairs_of_the_per_pair_bound(seed, D, norms):
    # gaps just below, at and just above each pair's own bound, far above it,
    # zero and NaN, with |x|^2 spread over six decades and up to the overflow
    # limit: skipping the rows whose smallest gap clears the bound at their
    # largest |x|^2 must leave the same uncertified pairs
    gen = np.random.default_rng(seed)
    R, m = 8, 11
    xx = 10.0 ** gen.uniform(-3.0, 3.0, size=(R if norms == "per row" else 1, m))
    xx[:, 0] = gen.choice([1.0, 2.0**1018, 2.0**1019, np.inf])
    mm = 10.0 ** gen.uniform(-3.0, 3.0, size=(R, 3))
    bound = utility._gap_bound(np.broadcast_to(xx, (R, m)) + mm.max(axis=1)[:, None], D)
    # per row: every gap far above its bound, all but one, or a random mix
    factor = np.full((R, m), 1e6)
    one = gen.random(R) < 0.4
    factor[one, gen.integers(0, m, size=int(one.sum()))] = gen.choice([0.999, 1.0, 1.001], size=int(one.sum()))
    mixed = gen.random(R) < 0.3
    factor[mixed] = gen.choice([0.0, 0.999, 1.0, 1.001, 1e6], size=(int(mixed.sum()), m))
    gap = np.where(np.isfinite(bound), bound, 1.0) * factor
    gap[gen.random((R, m)) < 0.05] = np.nan
    got = utility._uncertified(gap, xx[0] if norms == "flat" else xx, mm, D)
    want = (~(gap > bound)).nonzero()
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 1_000),
    metric=st.sampled_from(["accuracy", "balanced_accuracy", "auc"]),
    lam=st.sampled_from([0.0, 0.5]),
)
@example(seed=2, metric="balanced_accuracy", lam=0.5)
def test_a_payoff_does_not_depend_on_its_batch(seed, metric, lam):
    data = make_synthetic(200, overlap=0.4, seed=seed)
    gen = np.random.default_rng(seed)
    blocks = [PointSet(part) for part in np.split(gen.permutation(data.n)[:120], 8)]
    rows = gen.random((40, 8)) < 0.5
    subset = gen.permutation(rows.shape[0])[: int(gen.integers(2, rows.shape[0]))]

    def score(batch):
        return CharacteristicFn(data, data.features, lam=lam, metric=metric).evaluate_games([(blocks, batch)])[0]

    together = score(rows)
    alone = np.concatenate([score(row[None]) for row in rows])
    assert together.tobytes() == alone.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(utility, "TEMP_BYTES", 1)  # one-row scoring chunks
        assert score(rows).tobytes() == together.tobytes()
        assert np.concatenate([score(row[None]) for row in rows]).tobytes() == together.tobytes()
    assert score(rows[subset]).tobytes() == together[subset].tobytes()


@pytest.mark.parametrize(
    "C, metric, per_point",  # elements per (row, validation point) of the largest array a chunk forms:
    [(2, "accuracy", 1), (3, "balanced_accuracy", 3), (2, "auc", 3)],  # the gap, C distances, one class's D differences
)
@pytest.mark.parametrize("budget", [1 << 15, 100])  # float64 elements
def test_chunks_fill_the_distance_budget_of_the_array_they_form(C, metric, per_point, budget, monkeypatch):
    gen = np.random.default_rng(C)
    n, n_val, D = 8 * C, 300, 3
    data = LabeledDataset(
        gen.normal(size=(n, D)), np.arange(n) % C, gen.normal(size=(n_val, D)), np.arange(n_val) % C, C
    )
    cf = CharacteristicFn(data, data.features, lam=0.5, metric=metric)
    blocks = [PointSet(range(j * C, (j + 1) * C)) for j in range(8)]  # each block holds every class
    rows = gen.random((500, 8)) < 0.5
    rows[:, 0] = True  # so every row is scored in its chunk's one call
    chunks = []
    scorer = utility._nearest_centroid_utility

    def record(counts, sums, val_X, *args):
        chunks.append((counts.shape[0], val_X.shape[0]))
        return scorer(counts, sums, val_X, *args)

    monkeypatch.setattr(utility, "_nearest_centroid_utility", record)
    monkeypatch.setattr(utility, "TEMP_BYTES", 8 * budget)
    cf._score_rows(utility._lay_out([blocks]), np.zeros(len(rows), np.intp), rows)
    step = max(1, budget // (n_val * per_point))
    assert [r for r, _ in chunks] == [step] * (len(rows) // step) + [len(rows) % step] * bool(len(rows) % step)
    for r, v in chunks:  # within the budget, or one row whose array alone exceeds it
        assert r * v * per_point <= budget or (r == 1 and v * per_point > budget)


def ridge_case(lam: float):
    data = make_synthetic(30, seed=2)
    blocks = [PointSet(range(i, data.n, 3)) for i in range(3)]
    return data, blocks, CharacteristicFn(data, data.features, lam=lam, learner="ridge_logistic")


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_a_grown_payoff_equals_a_fresh_one_over_the_grown_corpus(lam):
    full = make_synthetic(90, seed=3)
    gen = np.random.default_rng(3)
    emb = gen.normal(size=(full.n, 5))
    emb[::7] = 0.0  # zero-norm rows: unit row 0 and flag 0
    emb[3, 0] = -0.0

    def prefix(n):
        return replace(full, features=full.features[:n], labels=full.labels[:n]), emb[:n]

    cf = CharacteristicFn(*prefix(40), lam=lam)
    for n in (41, 57, full.n):  # one row, then several
        cf = cf.grown(*prefix(n))
        fresh = CharacteristicFn(*prefix(n), lam=lam)
        assert cf._point_stats.tobytes() == fresh._point_stats.tobytes()
        blocks = [PointSet(part) for part in np.array_split(gen.permutation(n), 6)]
        rows = gen.random((30, 6)) < 0.5
        got = cf.evaluate_games([(blocks, rows)])[0]
        assert got.tobytes() == fresh.evaluate_games([(blocks, rows)])[0].tobytes()
    with pytest.raises(ValueError, match="grown corpus"):
        cf.grown(*prefix(50))


def test_a_grown_corpus_must_keep_the_old_rows_and_validation_split():
    full = make_synthetic(60, seed=3)
    emb = np.random.default_rng(3).normal(size=(full.n, 4))
    cf = CharacteristicFn(replace(full, features=full.features[:40], labels=full.labels[:40]), emb[:40], lam=0.5)

    def edited(array):
        array = array.copy()
        array[0] = array[0] + 1 if array.dtype.kind == "f" else (array[0] + 1) % full.num_classes
        return array

    assert cf.grown(full, emb).dataset is full
    for field in ("features", "labels", "val_features", "val_labels"):
        with pytest.raises(ValueError, match="grown corpus"):
            cf.grown(replace(full, **{field: edited(getattr(full, field))}), emb)
    with pytest.raises(ValueError, match="grown corpus"):
        cf.grown(full, edited(emb))


def test_blocks_must_be_disjoint_and_learner_batchable():
    rows = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
    for lam in (0.0, 0.5):
        data, blocks, ridge = ridge_case(lam)
        for cf in (CharacteristicFn(data, data.features, lam=lam), ridge):
            with pytest.raises(ValueError, match="disjoint"):
                cf.evaluate_games([([PointSet([0, 1]), PointSet([1, 2])], np.ones((1, 2), bool))])[0]
        # the ridge learner is fitted once per coalition, as the per-point reference fits it
        got = ridge.evaluate_games([(blocks, rows)])[0]
        for row, value in zip(rows, got.tolist()):
            S = union([b for b, on in zip(blocks, row) if on])
            assert value == reference_payoff(data, data.features, lam, "accuracy", "ridge_logistic", S)


def test_ridge_misses_count_distinct_coalitions():
    data, blocks, ridge = ridge_case(0.5)
    rows = np.array([[1, 0, 0], [0, 1, 1], [1, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
    got = ridge.evaluate_games([(blocks, rows)])[0]
    assert ridge.evaluations == 3 and ridge.lookups == 5
    assert got[0] == got[2] and got[1] == got[3]
    # a later lookup of a scored coalition, one at a time or batched, is a hit
    assert ridge.evaluate(union(blocks)) == got[4]
    assert ridge.evaluate_games([(blocks, rows[:2])])[0].tobytes() == got[:2].tobytes()
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
    batch = CharacteristicFn(data, emb, lam=lam, metric=metric, learner=learner).evaluate_games([([S], [[True]])])[0]
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
    want = [apart.evaluate_games([(blocks, rows)])[0] for blocks, rows in games]
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


_SUM_TERMS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


@settings(deadline=None, max_examples=100)
@given(
    data=st.data(),
    m=st.integers(0, 12),
    F=st.integers(1, 4),
    n_groups=st.integers(1, 6),
    extra=st.integers(0, 3),
)
def test_group_sums_add_each_groups_rows_left_to_right(data, m, F, n_groups, extra):
    # groups past n_groups hold rows only in the second call; groups without rows stay +0.0
    values = np.array(data.draw(st.lists(st.lists(_SUM_TERMS, min_size=F, max_size=F), min_size=m, max_size=m)))
    values = values.reshape(m, F)
    groups = np.array(data.draw(st.lists(st.integers(0, n_groups - 1), min_size=m, max_size=m)), dtype=np.int64)
    want = np.zeros((n_groups, F))
    for row, g in zip(values, groups.tolist()):
        want[g] = want[g] + row
    got = utility._group_sums(values, groups, n_groups)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    k = data.draw(st.integers(0, 6))
    other = np.array(data.draw(st.lists(_SUM_TERMS, min_size=k * F, max_size=k * F))).reshape(k, F)
    at = np.sort(np.array(data.draw(st.lists(st.integers(0, m), min_size=k, max_size=k)), dtype=np.intp))
    more_groups = n_groups + extra + 1
    mixed = utility._group_sums(
        np.insert(values, at, other, axis=0),
        np.insert(groups, at, n_groups + np.arange(k) % (extra + 1)),
        more_groups,
    )
    assert mixed[:n_groups].tobytes() == want.tobytes()


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), C=st.sampled_from([2, 3]), lam=st.sampled_from([0.0, 0.5]))
def test_one_point_blocks_take_the_group_sums_exactly(seed, C, lam):
    # a game of one-point blocks reads each point's statistics row instead of
    # summing the game's points, and must get the sums' values
    data, emb = random_dataset(seed, C, D=3, on_grid=False)
    points = np.random.default_rng(seed).permutation(data.n)[: int(seed % data.n) + 1]
    cf = CharacteristicFn(data, emb, lam=lam)
    wider = [EMPTY_SET] * (points.size + 2)  # a second game pads the first one's blocks with two slots
    got = cf._block_stats(utility._lay_out([[PointSet([i]) for i in points], wider]))
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
        perm = reference_permutation(seed, len(players))
        before = perm[: perm.index(player)]
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


def _recording_ids(value_of_ids, seen: list):
    """A game's one-coalition payoff that also keeps the player ids of every coalition it is asked for."""

    def record(ids):
        seen.append(tuple(np.asarray(ids).tolist()))
        return value_of_ids(ids)

    return record


def _recording_games(evaluate_games, seen: list):
    """A payoff's several-game scorer that also keeps, per call, the row matrices it is asked to score."""

    def record(games):
        seen.append(np.concatenate([rows for _, rows in games]))
        return evaluate_games(games)

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
        if g == 0:  # a CharacteristicFn scores games through its several-game call
            together[2].evaluate_games = _recording_games(together[2].evaluate_games, calls)
        else:  # a plain callable is asked for one coalition at a time
            together[g].value_of_ids = _recording_ids(together[g].value_of_ids, calls)
        est = independent_player_estimate(together[g], players, 16, streams())
        ref = [independent_player_estimate(alone[g], p, 16, r) for p, r in zip(players, streams())]
        assert est.tobytes() == np.array(ref).tobytes()
        if g == 0:  # all players' rows in one call, each distinct coalition one miss (below)
            assert len(calls) == 1
        else:  # each distinct coalition once
            assert calls and len(set(calls)) == len(calls)
    for k in (2, 3):  # the batched payoff's cache, then the plain callable's
        assert together[k].evaluations == alone[k].evaluations
        assert set(together[k]._cache) == set(alone[k]._cache)


def _families(seed: int, lam: float, plain: bool) -> tuple:
    """Disjoint games of different sizes over one dataset, sharing one payoff, and that payoff."""
    data = make_synthetic(80, subclusters=3, overlap=0.3, seed=seed)
    order = np.random.default_rng(seed).permutation(data.n)
    cf = CharacteristicFn(data, data.features, lam=lam)
    payoff = (lambda points: cf.evaluate(points)) if plain else cf
    games, start = [], 0
    for sizes in ([3, 1, 4], [2, 2], [1, 5, 2, 3], [4, 1], [2, 1, 1, 3, 2]):
        players = [PointSet(part) for part in np.split(order[start : start + sum(sizes)], np.cumsum(sizes)[:-1])]
        games.append(CoalitionGame(players, payoff, bound=cf.B))
        start += sum(sizes)
    return games, cf


@settings(deadline=None, max_examples=8)
@given(
    seed=st.integers(0, 1_000),
    lam=st.sampled_from([0.0, 0.5]),
    plain=st.booleans(),
    budget=st.sampled_from([7, 40, 1 << 20]),
)
def test_several_games_at_once_match_one_at_a_time(seed, lam, plain, budget):
    """Level play: every game of a call equals its own one-game call, bit for bit and miss for miss.

    Small row budgets cut a game's prefix rows into pieces and pack pieces
    of several games into one payoff call.
    """
    with pytest.MonkeyPatch.context() as m:
        m.setattr(shapley, "TEMP_BYTES", budget)
        together, cf = _families(seed, lam, plain)
        alone, cf_alone = _families(seed, lam, plain)

        def streams(tag):
            return [RngStream(seed, tag, bytes([g])) for g in range(len(together))]

        est = monte_carlo_shapley(together, 9, streams("prefix"))
        ref = [monte_carlo_shapley(g, 9, r) for g, r in zip(alone, streams("prefix"))]
        assert [e.values.tobytes() for e in est] == [r.values.tobytes() for r in ref]
        assert [e.permutation_log for e in est] == [r.permutation_log for r in ref]
        logs = [r.permutation_log[: 3 + g] for g, r in enumerate(ref)]  # logs of several lengths
        replayed = monte_carlo_shapley(together, 0, None, permutation_log=logs)
        assert [e.values.tobytes() for e in replayed] == [
            monte_carlo_shapley(g, 0, None, permutation_log=log).values.tobytes() for g, log in zip(alone, logs)
        ]
        est = monte_carlo_shapley(together, 5, streams("ind"), sampling="independent")
        ref = [monte_carlo_shapley(g, 5, r, sampling="independent") for g, r in zip(alone, streams("ind"))]
        assert [e.values.tobytes() for e in est] == [r.values.tobytes() for r in ref]
        players = [[2, 0], 1, [1, 3, 0], [1], 4]
        rngs = [[RngStream(seed, "one", bytes([g, k])) for k in range(len(p))] if isinstance(p, list) else RngStream(seed, "one", bytes([g])) for g, p in enumerate(players)]
        est = independent_player_estimate(together, players, 6, rngs)
        ref = [independent_player_estimate(g, p, 6, r) for g, p, r in zip(alone, players, rngs)]
        assert [np.asarray(e).tobytes() for e in est] == [np.asarray(r).tobytes() for r in ref]
        assert isinstance(est[1], float) and isinstance(est[0], np.ndarray)
        assert cf.evaluations == cf_alone.evaluations
        assert set(cf._cache) == set(cf_alone._cache)
        if budget == 1 << 20 and not plain:  # one payoff call per several-game call
            calls = []
            evaluate_games = cf.evaluate_games
            cf.evaluate_games = lambda games: calls.append(len(games)) or evaluate_games(games)
            monte_carlo_shapley(together, 9, streams("once"))
            independent_player_estimate(together, players, 6, rngs)
            assert calls == [len(together)] * 2


def test_several_game_calls_validate_their_arguments():
    games, _ = _families(3, 0.5, False)
    assert monte_carlo_shapley([], 4, []) == [] and independent_player_estimate([], [], 4, []) == []
    with pytest.raises(ValueError, match="as many random streams"):
        monte_carlo_shapley(games, 4, [RngStream(0, "a")])
    with pytest.raises(ValueError, match="as many random streams"):
        monte_carlo_shapley(games, 4, RngStream(0, "a"))
    with pytest.raises(ValueError, match="as many permutation logs"):
        monte_carlo_shapley(games, 0, None, permutation_log=[[1, 2]])
    with pytest.raises(ValueError, match="as many player arguments"):
        independent_player_estimate(games, [0], 4, [RngStream(0, "a")] * len(games))
    with pytest.raises(ValueError, match="share one payoff"):
        other, _ = _families(3, 0.5, False)
        monte_carlo_shapley([games[0], other[1]], 4, [RngStream(0, "a"), RngStream(0, "b")])


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
    CharacteristicFn, CoalitionGame, HcdvConfig, LabeledDataset, PointSet, RngStream, build_tree, evaluation, hcdv,
    identity_embeddings, independent_player_estimate, ingest_batch, init_stream, make_synthetic, monte_carlo_shapley,
    run_hcdv, synthetic_rows,
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
print(raises(lambda: Tight(data, data.features).evaluate_games([(players, np.ones((1, 4), bool))])[0]))
tight_ridge = Tight(data, data.features, learner="ridge_logistic")
print(raises(lambda: tight_ridge.evaluate_games([(players, np.ones((1, 4), bool))])[0]))
games = [(players, np.eye(4, dtype=bool)), (players[:2], np.ones((1, 2), bool))]
print(raises(lambda: Tight(data, data.features).evaluate_games(games)))

# the offset tie case: the expanded distances put point 0 nearer class 1
feats = 123000001.5 + np.array([[-1.0], [-1.0], [1.0], [1.0]])
tie = LabeledDataset(feats, np.array([0, 0, 1, 1]), 123000001.5 + np.array([[0.0], [-2.0], [2.0]]), np.array([1, 0, 1]), 2)
rows = np.array([[1, 0, 1, 0], [1, 1, 1, 1]], bool)
print("tie", CharacteristicFn(tie, feats, lam=0.0).evaluate_games([([PointSet([i]) for i in range(4)], rows)])[0].tolist())

# a mass split that leaks: the batch run and the stream step both fail propagate's conservation check
data = make_synthetic(80, subclusters=2, overlap=0.2, seed=4)
emb = identity_embeddings(data)
tree = build_tree(emb, (2, 3), 8, seed=4)
cfg = HcdvConfig(T=4, leaf_cap=8, seed=4)
state = init_stream(data, emb, tree, CharacteristicFn(data, emb), cfg)
split = hcdv._split_mass
hcdv._split_mass = lambda pot, estimates: split(pot, estimates) + 0.01
print(raises(lambda: run_hcdv(data, emb, tree, CharacteristicFn(data, emb), cfg)))
print(raises(lambda: ingest_batch(state, *synthetic_rows(6, subclusters=2, overlap=0.2, seed=40, purpose="stream"))))

# a top-k that picks the worst k: the reference selection loses to the surrogate's
evaluation.topk_select = lambda values, k: PointSet(np.argsort(np.asarray(values))[:k])
print(raises(lambda: evaluation.surrogate_regret(np.arange(4.0), np.arange(4.0)[::-1], 1)))
"""


def test_invariant_checks_survive_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O], env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("marginal contribution") for line in lines[:5])
    assert all(line.startswith("payoff") for line in lines[5:9])
    assert lines[9] == f"tie {[2.0 / 3.0] * 2}"
    assert all(line.startswith("value mass escaped during propagation") for line in lines[10:12])
    assert lines[12] == "top-k by reference values cannot lose to any other k-set"

