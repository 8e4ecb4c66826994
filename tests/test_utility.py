import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval import CharacteristicFn, EMPTY_SET, LabeledDataset, PointSet, make_synthetic, normalized_dispersion
from hcdval.core import dataset_from_arrays
from hcdval.utility import D_MAX, _rank_auc, chance_level, coalition_utility


def brute_force_dispersion(vectors, labels, idx):
    """Definitional oracle: loop every cross-label pair."""
    idx = list(idx)
    total, pairs = 0.0, 0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = idx[a], idx[b]
            if labels[i] == labels[j]:
                continue
            ni = np.linalg.norm(vectors[i])
            nj = np.linalg.norm(vectors[j])
            if ni == 0.0 or nj == 0.0:
                d = D_MAX
            else:
                d = 1.0 - float(vectors[i] @ vectors[j]) / (ni * nj)
            total += d
            pairs += 1
    return (total / pairs if pairs else 0.0), pairs


def test_dispersion_hand_case():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 4.0]])
    labels = np.array([0, 0, 1])
    res = normalized_dispersion(vectors, labels, PointSet([0, 1, 2]))
    # pairs (0,2) and (1,2): distances 1 - 3/5 and 1 - 4/5
    assert res.pair_count == 2
    assert res.value == pytest.approx(0.3, abs=1e-12)


def test_dispersion_zero_norm_rows_sit_at_max_distance():
    vectors = np.array([[0.0, 0.0], [1.0, 0.0]])
    labels = np.array([0, 1])
    res = normalized_dispersion(vectors, labels, PointSet([0, 1]))
    assert res.value == pytest.approx(D_MAX)
    assert res.pair_count == 1


def test_dispersion_single_label_is_zero():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([1, 1])
    res = normalized_dispersion(vectors, labels, PointSet([0, 1]))
    assert res.value == 0.0
    assert res.pair_count == 0


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14), d=st.integers(1, 4))
def test_dispersion_matches_pair_loop_oracle(seed, n, d):
    gen = np.random.default_rng(seed)
    vectors = gen.normal(size=(n, d))
    if n > 3:
        vectors[gen.integers(n)] = 0.0  # exercise the zero-norm rule
    labels = gen.integers(0, 3, size=n)
    idx = np.flatnonzero(gen.random(n) < 0.7)
    res = normalized_dispersion(vectors, labels, PointSet(idx))
    want, want_pairs = brute_force_dispersion(vectors, labels, idx.tolist())
    assert res.pair_count == want_pairs
    assert res.value == pytest.approx(want, abs=1e-9)


def test_chance_levels():
    assert chance_level("accuracy", 2) == 0.5
    assert chance_level("accuracy", 4) == 0.25
    assert chance_level("balanced_accuracy", 3) == pytest.approx(1 / 3)
    assert chance_level("auc", 2) == 0.5


def test_binary_auc_hand_cases():
    y = np.array([0, 0, 1, 1])
    auc = _rank_auc(np.array([[0.1, 0.4, 0.35, 0.8], [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], np.zeros(4)]), y)
    assert auc[0] == pytest.approx(0.75)
    assert auc[1] == 1.0
    assert auc[2] == 0.0
    # all-tied scores average to chance
    assert auc[3] == pytest.approx(0.5)


def loop_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank AUC with tie-averaged ranks, one run of equal scores at a time: the reference."""
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30), levels=st.integers(1, 6))
def test_rank_auc_equals_binary_auc_on_tied_grids(seed, n, levels):
    gen = np.random.default_rng(seed)
    scores = 0.25 * gen.integers(-levels, levels, size=(5, n), endpoint=True)
    scores[0] = -scores[0] * 0.0  # signed zeros tie with each other
    scores[1, gen.random(n) < 0.3] = np.nan  # NaN ranks last, each in a run of its own
    labels = gen.integers(0, 2, size=n)
    want = np.array([loop_auc(row, labels) for row in scores])
    assert _rank_auc(scores, labels).tobytes() == want.tobytes()


def test_auc_payoff_memory_grows_with_the_validation_split_not_its_pairs():
    gen = np.random.default_rng(0)
    n_val = 4000
    data = LabeledDataset(
        gen.normal(size=(40, 2)), np.arange(40) % 2, gen.normal(size=(n_val, 2)), np.arange(n_val) % 2, 2
    )
    cf = CharacteristicFn(data, data.features, lam=0.0, metric="auc")
    blocks = [PointSet(range(i, 40, 4)) for i in range(4)]
    rows = np.array([[1, 1, 0, 0], [1, 1, 1, 1], [0, 1, 1, 1], [1, 0, 1, 0]], dtype=bool)
    tracemalloc.start()
    try:
        cf.evaluate_games([(blocks, rows)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # (rows, n_pos, n_neg) comparison temporaries took 8.4 MB here
    assert peak < 2_000_000


def _two_blob_data(n=40, seed=0):
    return make_synthetic(n, subclusters=1, overlap=0.1, seed=seed, dim=3)


def test_coalition_utility_conventions():
    data = _two_blob_data()
    assert coalition_utility(data, EMPTY_SET) == chance_level("accuracy", data.num_classes)
    single_label = PointSet(np.flatnonzero(data.labels == 0)[:3])
    assert coalition_utility(data, single_label) == chance_level("accuracy", data.num_classes)
    full = coalition_utility(data, data.all_points())
    assert full > 0.9  # well-separated blobs are easy


def test_coalition_utility_learners_agree_on_easy_data():
    data = _two_blob_data()
    full = data.all_points()
    for learner in ("nearest_centroid", "ridge_logistic"):
        for metric in ("accuracy", "balanced_accuracy", "auc"):
            score = coalition_utility(data, full, metric=metric, learner=learner)
            assert score > 0.9


def test_auc_needs_a_binary_dataset():
    gen = np.random.default_rng(0)
    data = dataset_from_arrays(gen.normal(size=(60, 3)), np.arange(60) % 3, seed=0)
    for learner in ("nearest_centroid", "ridge_logistic"):
        with pytest.raises(ValueError, match="binary"):
            coalition_utility(data, data.all_points(), metric="auc", learner=learner)
    with pytest.raises(ValueError, match="binary"):
        CharacteristicFn(data, data.features, metric="auc")


def test_characteristic_bounds_and_conventions():
    data = _two_blob_data()
    emb = data.features
    cf = CharacteristicFn(data, emb, lam=0.5)
    assert cf.B == 1.0 + 0.5 * D_MAX
    assert cf.evaluate_games([([PointSet([0])], np.zeros((1, 1), bool))])[0][0] == cf.evaluate(EMPTY_SET)
    gen = np.random.default_rng(1)
    for _ in range(25):
        pts = PointSet(np.flatnonzero(gen.random(data.n) < 0.4))
        v = cf.evaluate(pts)
        assert abs(v) <= cf.B + 1e-12


def test_characteristic_memoises_by_content():
    data = _two_blob_data()
    cf = CharacteristicFn(data, data.features, lam=0.5)
    pts = PointSet([0, 3, 5])
    first = cf.evaluate(pts)
    misses = cf.evaluations
    again = cf.evaluate(PointSet([5, 0, 3]))
    assert again == first
    assert cf.evaluations == misses  # served from cache
    assert cf.lookups > misses


def test_characteristic_decomposes_into_utility_and_dispersion():
    data = _two_blob_data()
    cf = CharacteristicFn(data, data.features, lam=0.7)
    pts = PointSet(range(8))
    expected = coalition_utility(data, pts) + 0.7 * normalized_dispersion(data.features, data.labels, pts).value
    assert cf.evaluate(pts) == pytest.approx(expected, abs=1e-12)
    lam0 = CharacteristicFn(data, data.features, lam=0.0)
    assert lam0.evaluate(pts) == pytest.approx(coalition_utility(data, pts), abs=1e-15)


def test_characteristic_validation():
    data = _two_blob_data()
    with pytest.raises(ValueError):
        CharacteristicFn(data, data.features, lam=-0.1)
    with pytest.raises(ValueError):
        CharacteristicFn(data, data.features, lam=0.5, metric="f1")
    with pytest.raises(ValueError):
        CharacteristicFn(data, data.features, lam=0.5, learner="svm")


def test_auc_restricted_to_binary_labels():
    gen = np.random.default_rng(0)
    feats = gen.normal(size=(30, 3))
    feats[:10] += 4.0
    feats[10:20] -= 4.0
    labels = np.repeat([0, 1, 2], 10)
    from hcdval import dataset_from_arrays

    data = dataset_from_arrays(feats, labels, seed=3)
    with pytest.raises(ValueError, match="binary"):
        CharacteristicFn(data, data.features, lam=0.5, metric="auc")
