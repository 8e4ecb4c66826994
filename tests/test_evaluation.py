"""Tests for the evaluation harness: fixtures, regret, stability, budgets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval.core import RngStream
from hcdval.evaluation import (
    SPUR_ANGLE,
    SPUR_RADIUS,
    concentration_check,
    efficiency_check,
    flip_labels,
    hierarchical_error_budget,
    make_synthetic,
    stability_report,
    surrogate_regret,
    synthetic_rows,
    topk_select,
)
from hcdval.hcdv import HcdvConfig, run_hcdv
from hcdval.hierarchy import build_tree
from hcdval.utility import CharacteristicFn

from conftest import random_table_game


# ------------------------------------------------------------- synthetic


def test_synthetic_rows_label_counts_and_shapes():
    X, y = synthetic_rows(n=101, subclusters=3, overlap=0.1, seed=0)
    assert X.shape == (101, 8)
    assert int((y == 0).sum()) == 51  # class 0 takes the extra row
    assert int((y == 1).sum()) == 50


def loop_synthetic_rows(n, subclusters, overlap, seed, dim, purpose):
    """The reference draw: one standard_normal(dim) call per row, classes in order, subclusters round-robin."""
    cores = subclusters if subclusters == 1 else subclusters - 1
    place = {(y, j): (math.pi * y + math.pi * (j + 0.5) / cores, 1.0) for y in (0, 1) for j in range(cores)}
    if subclusters > 1:
        place[(0, subclusters - 1)] = (SPUR_ANGLE, SPUR_RADIUS)
        place[(1, subclusters - 1)] = (math.pi + SPUR_ANGLE, SPUR_RADIUS)
    means = {k: np.array([r * math.cos(a), r * math.sin(a)]) for k, (a, r) in place.items()}
    gap = min(float(np.linalg.norm(means[(0, i)] - means[(1, j)])) for i in range(cores) for j in range(cores))
    sigma = (0.05 + 0.45 * overlap) * gap
    gen = RngStream(seed, purpose).generator()
    rows, labels = [], []
    for y, count in ((0, (n + 1) // 2), (1, n // 2)):
        for i in range(count):
            x = gen.standard_normal(dim) * sigma
            x[:2] += means[(y, i % subclusters)]
            rows.append(x)
            labels.append(y)
    return np.array(rows), np.array(labels, dtype=np.int64)


@pytest.mark.parametrize(
    "n,subclusters,overlap,seed,dim,purpose",
    [
        (301, 1, 0.0, 0, 8, "synthetic"),
        (300, 2, 0.4, 3, 8, "synthetic"),
        (1260, 4, 0.3, 5, 8, "synthetic"),
        (9, 3, 0.0, 1, 2, "synthetic"),
        (1261, 3, 1.0, 11, 5, "synthetic-stream"),
    ],
)
def test_synthetic_rows_equal_the_per_row_draw(n, subclusters, overlap, seed, dim, purpose):
    X, y = synthetic_rows(n, subclusters, overlap, seed=seed, dim=dim, purpose=purpose)
    want_X, want_y = loop_synthetic_rows(n, subclusters, overlap, seed, dim, purpose)
    assert X.tobytes() == want_X.tobytes()
    assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes()


def test_make_synthetic_splits_and_standardises():
    data = make_synthetic(n=200, subclusters=3, overlap=0.2, seed=1)
    assert data.n == 160  # floor(200 * 0.2) rows go to validation
    assert data.val_features.shape[0] == 40
    assert np.allclose(data.features.mean(axis=0), 0.0, atol=1e-9)
    assert set(np.unique(data.labels)) == {0, 1}


def test_make_synthetic_is_deterministic():
    a = make_synthetic(n=120, subclusters=2, overlap=0.3, seed=5)
    b = make_synthetic(n=120, subclusters=2, overlap=0.3, seed=5)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    c = make_synthetic(n=120, subclusters=2, overlap=0.3, seed=6)
    assert a.features.tobytes() != c.features.tobytes()


def test_zero_overlap_two_blob_set_is_linearly_separable():
    data = make_synthetic(n=400, subclusters=1, overlap=0.0, seed=2)
    cf = CharacteristicFn(data, data.features, lam=0.0)
    acc = cf.evaluate(data.all_points())
    assert acc >= 0.99


def test_spur_mixture_separates_under_margin_sensitive_fit():
    # the deep mirrored spurs defeat a pure centroid rule by design, but the
    # mixture stays rankable by the gradient-trained linear model
    data = make_synthetic(n=400, subclusters=3, overlap=0.0, seed=2)
    cf = CharacteristicFn(data, data.features, lam=0.0, learner="ridge_logistic", metric="auc")
    assert cf.evaluate(data.all_points()) >= 0.95


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        synthetic_rows(n=4, subclusters=3)
    with pytest.raises(ValueError):
        synthetic_rows(n=50, overlap=1.5)
    with pytest.raises(ValueError):
        synthetic_rows(n=50, overlap=-0.1)


def test_flip_labels_plants_exact_noise():
    data = make_synthetic(n=200, subclusters=2, overlap=0.2, seed=3)
    noisy, flipped = flip_labels(data, 0.2, seed=9)
    assert len(flipped) == round(0.2 * data.n)
    changed = np.nonzero(noisy.labels != data.labels)[0]
    assert sorted(changed.tolist()) == sorted(int(i) for i in flipped)
    # validation split untouched
    assert noisy.val_labels.tobytes() == data.val_labels.tobytes()
    assert noisy.val_features.tobytes() == data.val_features.tobytes()
    # deterministic
    noisy2, flipped2 = flip_labels(data, 0.2, seed=9)
    assert noisy2.labels.tobytes() == noisy.labels.tobytes()
    assert list(flipped2) == list(flipped)


def test_flip_labels_edge_fractions():
    data = make_synthetic(n=60, subclusters=2, overlap=0.2, seed=4)
    same, flipped = flip_labels(data, 0.0)
    assert len(flipped) == 0
    assert same.labels.tobytes() == data.labels.tobytes()
    with pytest.raises(ValueError):
        flip_labels(data, 1.2)


# ------------------------------------------------------------------ top-k


def test_topk_hand_cases():
    assert list(topk_select([3.0, 1.0, 2.0], 2).indices) == [0, 2]
    # ties broken by ascending index
    assert list(topk_select([1.0, 1.0, 1.0], 2).indices) == [0, 1]
    assert list(topk_select([5.0, -1.0], 2).indices) == [0, 1]
    with pytest.raises(ValueError):
        topk_select([1.0], 0)
    with pytest.raises(ValueError):
        topk_select([1.0], 2)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_topk_selects_largest_multiset(seed, n):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n).round(2)  # rounding forces ties
    k = int(rng.integers(1, n + 1))
    picked = topk_select(vals, k)
    chosen = sorted(vals[list(picked.indices)].tolist(), reverse=True)
    best = sorted(vals.tolist(), reverse=True)[:k]
    assert chosen == best


# ----------------------------------------------------------------- regret


def test_regret_hand_case():
    ref = [10.0, 5.0, 1.0]
    test = [1.0, 5.0, 10.0]  # reversed ranking
    rep = surrogate_regret(ref, test, 1)
    assert rep.regret == pytest.approx(9.0)
    assert rep.eps_inf == pytest.approx(9.0)
    assert rep.bound == pytest.approx(18.0)


def test_regret_is_zero_for_identical_valuations():
    vals = [3.0, -1.0, 2.0, 0.5]
    for k in range(1, 5):
        rep = surrogate_regret(vals, vals, k)
        assert rep.regret == 0.0


def test_regret_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        surrogate_regret([1.0, 2.0], [1.0], 1)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000))
def test_regret_lies_in_its_bracket(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    ref = rng.normal(size=n)
    test = ref + rng.normal(scale=float(rng.uniform(0.0, 1.0)), size=n)
    k = int(rng.integers(1, n + 1))
    rep = surrogate_regret(ref, test, k)
    assert 0.0 <= rep.regret <= rep.bound + 1e-12


# -------------------------------------------------------------- stability


def test_stability_identical_runs_have_zero_cv():
    rep = stability_report([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    assert np.allclose(rep.cv, 0.0)
    assert rep.mean_cv == 0.0
    assert rep.R == 3


def test_stability_hand_case():
    # two runs (1, 3): std with R-1 denominator is sqrt(2), mean is 2
    rep = stability_report([[1.0], [3.0]], epsilon_guard=0.0)
    assert rep.cv[0] == pytest.approx(math.sqrt(2.0) / 2.0)


def test_stability_guard_keeps_cv_finite_near_zero_mean():
    rep = stability_report([[1e-12], [-1e-12]], epsilon_guard=1e-6)
    assert np.isfinite(rep.cv).all()


def test_stability_needs_two_runs():
    with pytest.raises(ValueError):
        stability_report([[1.0, 2.0]])


# ---------------------------------------------------------- concentration


def test_concentration_small_grid_passes():
    game, _ = random_table_game(4, seed=0)
    rng = RngStream(123, "concentration-test")
    rep = concentration_check(game, T_grid=(16, 64), trials=40, delta=0.05, rng=rng)
    assert rep.passed
    assert rep.exceed_ok and rep.slope_ok
    assert set(rep.eta) == {16, 64}
    for T in (16, 64):
        assert rep.eta[T] == pytest.approx(math.sqrt(8 * math.log(2 * 4 / 0.05) / T))
        assert 0.0 <= rep.exceed_rate[T] <= 1.0
    # quadrupling the budget should halve the typical deviation
    ratio = rep.median_deviation[16] / rep.median_deviation[64]
    assert 1.4 <= ratio <= 2.8


def test_concentration_degenerate_game_is_vacuous():
    # all marginals equal: every estimate is exact, deviations are zero
    from hcdval.core import PointSet
    from hcdval.shapley import CoalitionGame

    players = [PointSet([i]) for i in range(3)]

    class CountGame:
        bound = 1.0

        def value_of_ids(self, ids):
            return 0.25 * len(ids)

    base = CountGame()

    def payoff(pts):
        return base.value_of_ids(list(pts.indices))

    game = CoalitionGame(players, payoff, bound=1.0)
    rep = concentration_check(
        game, T_grid=(8, 32), trials=10, delta=0.05, rng=RngStream(7, "degenerate")
    )
    assert rep.passed
    assert math.isnan(rep.slope)
    assert all(m <= 1e-12 for m in rep.median_deviation.values())


def test_concentration_is_deterministic():
    game, _ = random_table_game(4, seed=3)
    a = concentration_check(game, (16,), trials=20, delta=0.05, rng=RngStream(1, "c"))
    b = concentration_check(game, (16,), trials=20, delta=0.05, rng=RngStream(1, "c"))
    assert a.median_deviation == b.median_deviation
    assert a.exceed_rate == b.exceed_rate


# ----------------------------------------------------------- error budget


def small_run(seed=11, n=24, T=24):
    data = make_synthetic(n=n, subclusters=2, overlap=0.2, seed=seed)
    emb = data.features
    tree = build_tree(emb, branching=(2, 3), leaf_cap=6, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=0.5)
    cfg = HcdvConfig(T=T, leaf_cap=6, seed=seed)
    return data, emb, tree, cf, cfg


def test_efficiency_check_matches_run():
    data, emb, tree, cf, cfg = small_run()
    phi = run_hcdv(data, emb, tree, cf, cfg)
    assert efficiency_check(phi, cf) <= 1e-6


def test_error_budget_diagnostic_is_satisfied():
    data, emb, tree, cf, cfg = small_run(seed=11)
    rep = hierarchical_error_budget(data, emb, tree, cf, cfg)
    assert rep.satisfied
    assert rep.deviation <= rep.bound
    assert len(rep.eps_mc) == len(tree.levels) - 1
    assert all(e >= 0.0 for e in rep.eps_mc)
    assert rep.eps_leaf >= 0.0
    assert rep.deviation == pytest.approx(abs(rep.total_value - rep.surplus), abs=1e-12)


def test_error_budget_requires_small_levels():
    data = make_synthetic(n=200, subclusters=2, overlap=0.2, seed=0)
    emb = data.features
    tree = build_tree(emb, branching=(15,), leaf_cap=16, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=0.5)
    cfg = HcdvConfig(T=8, leaf_cap=16, seed=0)
    with pytest.raises(ValueError):
        hierarchical_error_budget(data, emb, tree, cf, cfg)
