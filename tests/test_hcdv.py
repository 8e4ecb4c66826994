"""Tests for hierarchical mass propagation: conservation, budgets, counts."""

import math

import numpy as np
import pytest

from hcdval import hcdv, shapley
from hcdval.core import EMPTY_SET, LabeledDataset, PointSet
from hcdval.encoder import identity_embeddings
from hcdval.evaluation import diagnostic_hcdv, hierarchical_error_budget, make_synthetic, synthetic_rows
from hcdval.hcdv import (
    HcdvConfig,
    evaluation_counter,
    last_run_report,
    propagation_weights,
    run_hcdv,
)
from hcdval.hierarchy import build_tree
from hcdval.streaming import ingest_batch, init_stream
from hcdval.utility import CharacteristicFn


def small_pipeline(n=40, branching=(2, 3), leaf_cap=8, seed=3, lam=0.5):
    data = make_synthetic(n=n, subclusters=2, overlap=0.2, seed=seed)
    emb = data.features
    tree = build_tree(emb, branching=branching, leaf_cap=leaf_cap, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=lam)
    return data, emb, tree, cf


# ---------------------------------------------------------------- weights


def test_propagation_weights_hand_case():
    w = propagation_weights([3.0, -1.0, 1.0])
    assert np.allclose(w, [0.75, 0.0, 0.25])
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_propagation_weights_all_nonpositive_falls_back_to_uniform():
    w = propagation_weights([-2.0, 0.0, -0.5, 0.0])
    assert np.allclose(w, 0.25)


def test_propagation_weights_rejects_bad_shapes():
    with pytest.raises(ValueError):
        propagation_weights([])
    with pytest.raises(ValueError):
        propagation_weights([[1.0, 2.0]])


# ------------------------------------------------------------ conservation


def test_point_values_sum_to_surplus():
    data, emb, tree, cf = small_pipeline()
    cfg = HcdvConfig(T=16, leaf_cap=8, seed=7)
    phi = run_hcdv(data, emb, tree, cf, cfg)
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    assert abs(math.fsum(phi.values.tolist()) - surplus) <= 1e-6 * max(1.0, abs(surplus))


def test_family_masses_conserve_parent_mass():
    data, emb, tree, cf = small_pipeline(n=60, branching=(3, 2), leaf_cap=6)
    cfg = HcdvConfig(T=12, leaf_cap=6, seed=1)
    run_hcdv(data, emb, tree, cf, cfg)
    report = last_run_report()
    for node_id in tree.nodes:
        kids = tree.node(node_id).children
        if not kids:
            continue
        handed = math.fsum(report.masses[k] for k in kids)
        assert handed == pytest.approx(report.masses[node_id], abs=1e-9)


def test_budget_map_conserves_and_uses_singleton_weights():
    data, emb, tree, cf = small_pipeline(n=48, branching=(2, 2), leaf_cap=8)
    cfg = HcdvConfig(T=8, leaf_cap=8, seed=2)
    run_hcdv(data, emb, tree, cf, cfg)
    report = last_run_report()
    for node_id in tree.nodes:
        kids = tree.node(node_id).children
        if not kids:
            continue
        # Each family's budgets split the parent's *mass* pot through the
        # classic singleton-payoff weights.
        pot = report.masses[node_id]
        assert math.fsum(report.budget_map[k] for k in kids) == pytest.approx(pot, abs=1e-9)
        payoffs = [cf.evaluate(tree.node(k).members) for k in kids]
        w = propagation_weights(payoffs)
        for weight, k in zip(w, kids):
            assert report.budget_map[k] == pytest.approx(weight * pot, abs=1e-9)


def test_leaf_mass_spreads_over_members():
    data, emb, tree, cf = small_pipeline(n=30, branching=(3,), leaf_cap=10)
    cfg = HcdvConfig(T=8, leaf_cap=10, seed=4, leaf_mode="always_uniform")
    phi = run_hcdv(data, emb, tree, cf, cfg)
    report = last_run_report()
    for node_id in tree.nodes:
        node = tree.node(node_id)
        if node.children:
            continue
        share = report.masses[node_id] / len(node.members)
        for idx in node.members.indices:
            assert phi.values[idx] == pytest.approx(share, abs=1e-12)


def test_exact_leaf_mode_sums_to_leaf_mass():
    data, emb, tree, cf = small_pipeline(n=24, branching=(2,), leaf_cap=12)
    cfg = HcdvConfig(T=8, leaf_cap=12, seed=5, leaf_mode="exact_if_small")
    phi = run_hcdv(data, emb, tree, cf, cfg)
    report = last_run_report()
    for node_id in tree.nodes:
        node = tree.node(node_id)
        if node.children:
            continue
        total = math.fsum(float(phi.values[i]) for i in node.members.indices)
        assert total == pytest.approx(report.masses[node_id], abs=1e-9)


def test_single_leaf_tree_costs_two_evaluations():
    # Everything fits in one leaf: no family games, no leaf game under
    # always_uniform, so the run touches the payoff function exactly twice
    # (full set and empty set).
    data = make_synthetic(n=16, subclusters=2, overlap=0.2, seed=0)
    emb = data.features
    tree = build_tree(emb, branching=(4,), leaf_cap=16, gamma=0.25)
    assert len(tree.levels) == 1  # root only
    cf = CharacteristicFn(data, emb, lam=0.5)
    cfg = HcdvConfig(T=8, leaf_cap=16, seed=0, leaf_mode="always_uniform")
    phi = run_hcdv(data, emb, tree, cf, cfg)
    assert evaluation_counter() == 2
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    assert np.allclose(phi.values, surplus / data.n)


# ------------------------------------------------------------- determinism


def test_rerun_is_bit_identical_with_fresh_cache():
    data, emb, tree, cf = small_pipeline(seed=11)
    cfg = HcdvConfig(T=16, leaf_cap=8, seed=13)
    first = run_hcdv(data, emb, tree, cf, cfg)
    cf2 = CharacteristicFn(data, emb, lam=0.5)
    second = run_hcdv(data, emb, tree, cf2, cfg)
    assert first.values.tobytes() == second.values.tobytes()


def test_seed_changes_values():
    data, emb, tree, cf = small_pipeline(seed=11)
    a = run_hcdv(data, emb, tree, cf, HcdvConfig(T=16, leaf_cap=8, seed=13))
    b = run_hcdv(data, emb, tree, cf, HcdvConfig(T=16, leaf_cap=8, seed=14))
    assert a.values.tobytes() != b.values.tobytes()


# ------------------------------------------------------------ bookkeeping


@pytest.mark.parametrize("leaf_mode", ["exact_if_small", "always_uniform"])
def test_counter_matches_phases_and_bound(leaf_mode):
    data, emb, tree, cf = small_pipeline(n=36, branching=(3,), leaf_cap=8, seed=6)
    cfg = HcdvConfig(T=6, leaf_cap=8, seed=8, leaf_mode=leaf_mode)
    before = cf.evaluations
    run_hcdv(data, emb, tree, cf, cfg)
    report = last_run_report()
    assert report.eval_count == cf.evaluations - before
    assert report.eval_count == sum(report.phase_counts.values())
    assert report.eval_count <= report.eval_bound
    # the phases are disjoint spans of the run
    assert report.phase_ms.keys() == report.phase_counts.keys()
    assert 0.0 <= sum(report.phase_ms.values()) <= report.wallclock_ms


def test_bound_formula_matches_report():
    data, emb, tree, cf = small_pipeline(n=36, branching=(3,), leaf_cap=8, seed=6)
    cfg = HcdvConfig(T=6, leaf_cap=8, seed=8)
    run_hcdv(data, emb, tree, cf, cfg)
    report = last_run_report()
    per_player = cfg.T + 1  # prefix sweeps: T marginals plus the base point
    expected = 2 + sum(k * (per_player + 1) for k in report.level_player_counts)
    for node_id in tree.nodes:
        node = tree.node(node_id)
        if node.children:
            continue
        g = len(node.members)
        if g <= min(cfg.leaf_cap, 12):
            expected += 2 ** g
    assert report.eval_bound == expected


def test_counter_requires_a_run(monkeypatch):
    import hcdval.hcdv as mod

    monkeypatch.setattr(mod, "_LAST_REPORT", None)
    with pytest.raises(RuntimeError):
        evaluation_counter()
    with pytest.raises(RuntimeError):
        last_run_report()


# -------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ValueError):
        HcdvConfig(T=0)
    with pytest.raises(ValueError):
        HcdvConfig(lam=-0.1)
    with pytest.raises(ValueError):
        HcdvConfig(leaf_cap=0)
    with pytest.raises(ValueError):
        HcdvConfig(leaf_mode="sometimes")


def test_run_rejects_mismatched_inputs():
    data, emb, tree, cf = small_pipeline()
    with pytest.raises(ValueError, match="lambda"):
        run_hcdv(data, emb, tree, cf, HcdvConfig(T=4, lam=0.25, leaf_cap=8))
    with pytest.raises(ValueError, match="capacity"):
        run_hcdv(data, emb, tree, cf, HcdvConfig(T=4, leaf_cap=16))
    with pytest.raises(ValueError, match="embedding rows"):
        run_hcdv(data, emb[:-1], tree, cf, HcdvConfig(T=4, leaf_cap=8))
    short_tree = build_tree(emb[:-1], branching=(2,), leaf_cap=8, gamma=0.25)
    with pytest.raises(ValueError, match="cover"):
        run_hcdv(data, emb, short_tree, cf, HcdvConfig(T=4, leaf_cap=8))


# ------------------------------------------------------- negative surplus


def test_negative_surplus_warns_and_still_conserves():
    # Train labels are crossed relative to the validation geometry, so the
    # learner scores below chance and the surplus goes negative.
    features = np.array(
        [[-1.0, 0.0], [-1.0, 0.1], [1.0, 0.0], [1.0, 0.1]] * 3
        + [[-1.0, 0.05], [1.0, 0.05]] * 2,
        dtype=np.float64,
    )
    labels = np.array([1, 1, 0, 0] * 3 + [0, 1] * 2, dtype=np.int64)
    data = LabeledDataset(
        features=features[:12],
        labels=labels[:12],
        val_features=np.array([[-1.0, 0.05], [1.0, 0.05]] * 2),
        val_labels=np.array([0, 1] * 2, dtype=np.int64),
        num_classes=2,
    )
    emb = data.features
    tree = build_tree(emb, branching=(2,), leaf_cap=8, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=0.0)
    cfg = HcdvConfig(T=8, lam=0.0, leaf_cap=8, seed=0, leaf_mode="always_uniform")
    with pytest.warns(UserWarning, match="negative"):
        phi = run_hcdv(data, emb, tree, cf, cfg)
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    assert surplus < 0
    assert math.fsum(phi.values.tolist()) == pytest.approx(surplus, abs=1e-9)


# ------------------------------------------------------- diagnostic modes


@pytest.mark.parametrize("leaf_mode", ["exact_if_small", "always_uniform"])
def test_diagnostic_parent_prefix_equals_run_hcdv_bit_for_bit(leaf_mode):
    data, emb, tree, cf = small_pipeline(n=60, branching=(3, 2), leaf_cap=6, seed=21)
    cfg = HcdvConfig(T=12, leaf_cap=6, seed=3, leaf_mode=leaf_mode)
    production = run_hcdv(data, emb, tree, cf, cfg)
    cf2 = CharacteristicFn(data, emb, lam=0.5)
    diagnostic = diagnostic_hcdv(data, emb, tree, cf2, cfg, "parent", "prefix")
    assert diagnostic.values.tobytes() == production.values.tobytes()


def test_diagnostic_rejects_unknown_modes():
    data, emb, tree, cf = small_pipeline()
    cfg = HcdvConfig(T=4, leaf_cap=8)
    with pytest.raises(ValueError, match="game_scope"):
        diagnostic_hcdv(data, emb, tree, cf, cfg, "local", "prefix")
    with pytest.raises(ValueError, match="sampling"):
        diagnostic_hcdv(data, emb, tree, cf, cfg, "parent", "antithetic")


def test_global_scope_conserves_and_differs_from_parent_scope():
    data, emb, tree, cf = small_pipeline(n=60, branching=(3, 2), leaf_cap=6, seed=21)
    cfg = HcdvConfig(T=12, leaf_cap=6, seed=3)
    parent_phi = run_hcdv(data, emb, tree, cf, cfg)
    global_phi = diagnostic_hcdv(data, emb, tree, cf, cfg, "global", "prefix")
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    for phi in (parent_phi, global_phi):
        assert math.fsum(phi.values.tolist()) == pytest.approx(surplus, abs=1e-6)
    assert parent_phi.values.tobytes() != global_phi.values.tobytes()


def test_no_normalize_drops_conservation_guarantee_but_runs():
    data, emb, tree, cf = small_pipeline(n=40, branching=(2, 3), leaf_cap=6, seed=17)
    rep = hierarchical_error_budget(data, emb, tree, cf, HcdvConfig(T=8, leaf_cap=6, seed=5))
    assert rep.total_value != rep.surplus  # raw estimates do not telescope
    assert rep.deviation == abs(rep.total_value - rep.surplus)


def test_value_vector_metadata():
    data, emb, tree, cf = small_pipeline(n=24, branching=(2,), leaf_cap=8, seed=2)
    cfg = HcdvConfig(T=4, leaf_cap=8, seed=42)
    phi = run_hcdv(data, emb, tree, cf, cfg)
    assert phi.method_tag == "hcdv"
    assert phi.seed == 42
    assert len(phi.values) == data.n


# ------------------------------------------------------------- leaf games


class LeafGameSpy:
    """Wraps propagate's ``exact_shapley``: per call, the leaf games and the payoff calls made inside it.

    With ``per_leaf`` it plays every leaf game in its own call instead, the
    reference.
    """

    def __init__(self, monkeypatch, per_leaf: bool):
        self.calls = []
        self.payoff_calls = 0
        evaluate_games = CharacteristicFn.evaluate_games

        def counted(cf, games):
            self.payoff_calls += 1
            return evaluate_games(cf, games)

        def spy(games):
            before = self.payoff_calls
            out = [shapley.exact_shapley(g) for g in games] if per_leaf else shapley.exact_shapley(games)
            self.calls.append((len(games), self.payoff_calls - before))
            return out

        monkeypatch.setattr(CharacteristicFn, "evaluate_games", counted)
        monkeypatch.setattr(hcdv, "exact_shapley", spy)


def batch_and_stream_run() -> list:
    """Value bytes and evaluation counts of a batch run and a three-step stream, with leaf_cap 8."""
    data = make_synthetic(n=80, subclusters=2, overlap=0.2, seed=4)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(2, 3), leaf_cap=8, gamma=0.25, seed=4)
    cfg = HcdvConfig(T=6, leaf_cap=8, seed=4)
    cf = CharacteristicFn(data, emb, lam=0.5)
    out = [run_hcdv(data, emb, tree, cf, cfg).values.tobytes(), cf.evaluations]
    state = init_stream(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), cfg, rebalance_period=2)
    for step in range(3):
        X, y = synthetic_rows(6, subclusters=2, overlap=0.2, seed=40 + step, purpose="stream")
        state = ingest_batch(state, X, y)
        out += [state.values.tobytes(), state.metrics[-1].eval_count, state.metrics[-1].evals_leaves]
    return out


def test_propagate_plays_all_dirty_exact_leaves_in_one_payoff_call(monkeypatch):
    with monkeypatch.context() as m:
        reference = LeafGameSpy(m, per_leaf=True)
        want = batch_and_stream_run()
    spy = LeafGameSpy(monkeypatch, per_leaf=False)
    assert batch_and_stream_run() == want
    # one exact_shapley call per propagate: the batch run, init_stream's run, three steps
    assert [n for n, _ in spy.calls] == [n for n, _ in reference.calls]
    assert len(spy.calls) == 5 and all(n > 0 for n, _ in spy.calls)
    assert [calls for _, calls in spy.calls] == [1] * 5
    assert [calls for _, calls in reference.calls] == [n for n, _ in reference.calls]
