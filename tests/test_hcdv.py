"""Tests for hierarchical mass propagation: conservation, counts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval import evaluation, hcdv, shapley, streaming
from hcdval.core import EMPTY_SET, LabeledDataset, PointSet
from hcdval.encoder import identity_embeddings
from hcdval.evaluation import diagnostic_hcdv, hierarchical_error_budget, make_synthetic, synthetic_rows
from hcdval.hcdv import HcdvConfig, last_run_report, run_hcdv
from hcdval.hierarchy import build_tree
from hcdval.streaming import ingest_batch, init_stream
from hcdval.utility import CharacteristicFn


def small_pipeline(n=40, branching=(2, 3), leaf_cap=8, seed=3, lam=0.5):
    data = make_synthetic(n=n, subclusters=2, overlap=0.2, seed=seed)
    emb = data.features
    tree = build_tree(emb, branching=branching, leaf_cap=leaf_cap, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=lam)
    return data, emb, tree, cf


# ------------------------------------------------------------ conservation


def test_point_values_sum_to_surplus():
    data, emb, tree, cf = small_pipeline()
    cfg = HcdvConfig(T=16, leaf_cap=8, seed=7)
    phi = run_hcdv(data, emb, tree, cf, cfg)
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    assert abs(math.fsum(phi.values.tolist()) - surplus) <= 1e-6 * max(1.0, abs(surplus))


@pytest.mark.parametrize("run", ["batch", "diagnostic", "stream"])
def test_propagate_fails_every_run_whose_split_leaks_mass(run, monkeypatch):
    data = make_synthetic(n=80, subclusters=2, overlap=0.2, seed=4)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(2, 3), leaf_cap=8, gamma=0.25, seed=4)
    cfg = HcdvConfig(T=6, leaf_cap=8, seed=4)
    state = init_stream(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), cfg)  # before the leak
    split = hcdv._split_mass
    monkeypatch.setattr(hcdv, "_split_mass", lambda pot, estimates: split(pot, estimates) + 0.01)
    with pytest.raises(AssertionError, match="value mass escaped during propagation"):
        if run == "batch":
            run_hcdv(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), cfg)
        elif run == "diagnostic":
            diagnostic_hcdv(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), cfg, "parent", "prefix")
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the leaked masses may leave negative residuals
                ingest_batch(state, *synthetic_rows(6, subclusters=2, overlap=0.2, seed=40, purpose="stream"))


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


# ------------------------------------------------- additive efficient split


def test_split_adds_an_equal_share_of_the_gap_to_each_signed_estimate():
    # the gap 1.0 - 0.25 is shared equally, and each share keeps its estimate's sign
    shares = hcdv._split_mass(1.0, np.array([0.5, -0.25, 0.125, -0.125]))
    assert shares.tolist() == [0.6875, -0.0625, 0.3125, 0.0625]


finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(
    pot=finite,
    other_pot=finite,
    ests=st.lists(st.tuples(finite, finite), min_size=1, max_size=12),
    a=st.floats(-4.0, 4.0),
    b=st.floats(-4.0, 4.0),
    perm_seed=st.integers(0, 2**32 - 1),
)
def test_split_is_efficient_affine_and_symmetric(pot, other_pot, ests, a, b, perm_seed):
    x = np.array([e for e, _ in ests])
    y = np.array([e for _, e in ests])
    split = hcdv._split_mass
    shares = split(pot, x)
    scale = abs(pot) + float(np.abs(x).sum())
    assert math.fsum(shares.tolist()) == pytest.approx(pot, abs=1e-13 * len(ests) * scale)
    mixed = split(a * pot + b * other_pot, a * x + b * y)
    tol = 1e-13 * len(ests) * (1.0 + abs(a) * scale + abs(b) * (abs(other_pot) + float(np.abs(y).sum())))
    assert np.allclose(mixed, a * shares + b * split(other_pot, y), rtol=0.0, atol=tol)
    perm = np.random.default_rng(perm_seed).permutation(len(ests))
    assert split(pot, x[perm]).tobytes() == shares[perm].tobytes()
    even = split(pot, np.full(len(ests), x[0]))
    assert np.all(even == even[0]) and even[0] == pytest.approx(pot / len(ests), abs=1e-13 * scale)
    assert split(pot, x[:1]).tolist() == [pot]


def test_exact_leaf_point_keeps_its_negative_shapley_value_plus_the_shared_gap():
    data, emb, tree, cf = small_pipeline(n=60, branching=(3, 2), leaf_cap=6, seed=1)
    cfg = HcdvConfig(T=8, leaf_cap=6, seed=1)
    phi = run_hcdv(data, emb, tree, cf, cfg)
    masses = last_run_report().masses
    checked = 0
    for lid in tree.leaf_ids():
        members = tree.node(lid).members
        if not hcdv._plays_exact_leaf(cfg, len(members)):
            continue
        est = shapley.exact_shapley(hcdv._leaf_game(members, cf)).values
        want = est + (masses[lid] - math.fsum(est.tolist())) / len(members)
        assert phi.values[members.indices] == pytest.approx(want, rel=1e-12, abs=1e-15)
        checked += int(np.sum((est < 0.0) & (want < 0.0)))
    assert checked > 0  # some point has a negative exact estimate and a negative value


def test_sole_child_takes_its_parents_mass_bit_for_bit():
    data, emb, tree, cf = small_pipeline(n=60, branching=(3, 2), leaf_cap=6, seed=1)
    run_hcdv(data, emb, tree, cf, HcdvConfig(T=8, leaf_cap=6, seed=1))
    masses = last_run_report().masses
    sole = {pid: kids[0] for level in range(1, len(tree.levels)) for pid, kids in tree.families(level) if len(kids) == 1}
    assert any(kid in sole for kid in sole.values())  # a chain of at least two sole children
    for pid, kid in sole.items():
        assert masses[kid] == masses[pid]


def test_a_run_is_additive_across_payoffs_like_its_games():
    # gate 4's additivity survives the hand-down: on one tree and seed, the
    # run on v1 + v2 gives the sum of the runs on v1 and on v2
    data, emb, tree, _ = small_pipeline(n=60, branching=(3, 2), leaf_cap=6, seed=1)
    cfg = HcdvConfig(T=8, leaf_cap=6, seed=1)
    cfs = [CharacteristicFn(data, emb, lam=0.5), CharacteristicFn(data, emb, lam=0.5, metric="balanced_accuracy")]

    class Summed:
        def evaluate(self, points):
            return cfs[0].evaluate(points) + cfs[1].evaluate(points)

    parts = [run_hcdv(data, emb, tree, cf, cfg).values for cf in cfs]
    both = run_hcdv(data, emb, tree, Summed(), cfg).values
    assert np.allclose(both, parts[0] + parts[1], rtol=0.0, atol=1e-12)


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
    assert last_run_report().eval_count == 2
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
    assert report.phase_counts["singletons"] == report.phase_ms["singletons"] == 0
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


@pytest.mark.parametrize("field", ["T", "leaf_cap", "seed"])
@pytest.mark.parametrize("value", [2.5, 8.0, True, "8"])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        HcdvConfig(**{field: value})
    assert getattr(HcdvConfig(**{field: np.int64(8)}), field) == 8


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_config_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="finite"):
        HcdvConfig(lam=lam)


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
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(2,), leaf_cap=8, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=0.0)
    cfg = HcdvConfig(T=8, lam=0.0, leaf_cap=8, seed=0, leaf_mode="always_uniform")
    with pytest.warns(UserWarning, match="^total surplus is negative"):  # the prefix perfbench/worker.py counts
        phi = run_hcdv(data, emb, tree, cf, cfg)
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    assert surplus < 0
    assert math.fsum(phi.values.tolist()) == pytest.approx(surplus, abs=1e-9)
    # a stream step over four more crossed rows warns with its own prefix
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = init_stream(data, emb, tree, CharacteristicFn(data, emb, lam=0.0), cfg)
        state = ingest_batch(state, features[:4], labels[:4])
    messages = [str(w.message) for w in caught]
    assert sum(m.startswith("total surplus is negative") for m in messages) == 1  # init_stream's batch run
    assert sum(m.startswith("refreshed total surplus is negative") for m in messages) == 1
    assert state.surplus < 0
    assert math.fsum(state.values.tolist()) == pytest.approx(state.surplus, abs=1e-9)


# ------------------------------------------------------- diagnostic modes


@pytest.mark.parametrize("leaf_mode", ["exact_if_small", "always_uniform"])
def test_diagnostic_parent_prefix_equals_run_hcdv_bit_for_bit(leaf_mode):
    data, emb, tree, cf = small_pipeline(n=60, branching=(3, 2), leaf_cap=6, seed=21)
    cfg = HcdvConfig(T=12, leaf_cap=6, seed=3, leaf_mode=leaf_mode)
    production = run_hcdv(data, emb, tree, cf, cfg)
    cf2 = CharacteristicFn(data, emb, lam=0.5)
    diagnostic = diagnostic_hcdv(data, emb, tree, cf2, cfg, "parent", "prefix")
    assert diagnostic.values.tobytes() == production.values.tobytes()


@pytest.mark.parametrize("sampling", ["prefix", "independent"])
def test_diagnostic_parent_scope_plays_each_level_in_one_call(monkeypatch, sampling):
    data, emb, tree, cf = small_pipeline(n=60, branching=(3, 2), leaf_cap=6, seed=21)
    cfg = HcdvConfig(T=12, leaf_cap=6, seed=3)
    play = evaluation.monte_carlo_shapley
    calls = []

    def per_family(games, T, streams, sampling):
        calls.append(len(games))
        return [play(game, T, stream, sampling=sampling) for game, stream in zip(games, streams)]

    batched = diagnostic_hcdv(data, emb, tree, cf, cfg, "parent", sampling)
    monkeypatch.setattr(evaluation, "monte_carlo_shapley", per_family)
    reference = diagnostic_hcdv(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), cfg, "parent", sampling)
    assert batched.values.tobytes() == reference.values.tobytes()
    assert len(calls) == len(tree.levels) - 1 and max(calls) > 1


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
    """Value bytes and evaluation counts of a batch run and a three-step stream, with leaf_cap 8.

    The stream's steps hand some leaves a negative residual mass, and warn of it.
    """
    data = make_synthetic(n=80, subclusters=2, overlap=0.2, seed=4)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(2, 3), leaf_cap=8, gamma=0.25, seed=4)
    cfg = HcdvConfig(T=6, leaf_cap=8, seed=4)
    cf = CharacteristicFn(data, emb, lam=0.5)
    out = [run_hcdv(data, emb, tree, cf, cfg).values.tobytes(), cf.evaluations]
    state = init_stream(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), cfg, rebalance_period=2)
    with pytest.warns(UserWarning, match="negative residual mass"):
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


def exact_leaf_run(monkeypatch, budget: int) -> tuple:
    """A batch run at a given TEMP_BYTES: its exact_shapley calls as LeafGameSpy records them, and its results."""
    with monkeypatch.context() as m:
        m.setattr(shapley, "TEMP_BYTES", budget)
        spy = LeafGameSpy(m, per_leaf=False)
        data = make_synthetic(n=80, subclusters=2, overlap=0.2, seed=4)
        emb = identity_embeddings(data)
        tree = build_tree(emb, branching=(2, 3), leaf_cap=8, gamma=0.25, seed=4)
        cf = CharacteristicFn(data, emb, lam=0.5)
        values = run_hcdv(data, emb, tree, cf, HcdvConfig(T=6, leaf_cap=8, seed=4)).values
    return spy.calls, (values.tobytes(), cf.evaluations, set(cf._cache))


def test_exact_leaves_past_the_byte_budget_take_several_payoff_calls(monkeypatch):
    one_call, want = exact_leaf_run(monkeypatch, shapley.TEMP_BYTES)
    several, got = exact_leaf_run(monkeypatch, 2**8 * 8)  # the player matrix of one 8-point leaf
    assert len(one_call) == len(several) == 1 and one_call[0][1] == 1
    assert several[0][0] == one_call[0][0] and several[0][1] > 1
    assert got == want


# ------------------------------------------------------------ family games


class LevelGameSpy:
    """Wraps the level estimates ``propagate`` asks for: per level, the traced calls and payoff calls made.

    Each record is (families of two or more children, [(traced name, games)],
    payoff calls). With ``per_family`` the traced names play one family per
    call instead, the reference.
    """

    def __init__(self, monkeypatch, per_family: bool):
        self.levels = []
        self.payoff_calls = 0
        evaluate_games = CharacteristicFn.evaluate_games

        def counted(cf, games):
            self.payoff_calls += 1
            return evaluate_games(cf, games)

        def traced(module, name):
            play = getattr(shapley, name)

            def spy(games, *args):
                self.levels[-1][1].append((f"{module.__name__}.{name}", len(games)))
                if not per_family:
                    return play(games, *args)
                if name == "monte_carlo_shapley":
                    T, streams = args
                    return [play(game, T, stream) for game, stream in zip(games, streams)]
                players, T, streams = args
                return [play(game, p, T, s) for game, p, s in zip(games, players, streams)]

            monkeypatch.setattr(module, name, spy)

        propagate = hcdv.propagate

        def spied(tree, cf, cfg, values, masses, level_estimates, dirty=None):
            def recorded(level, families):
                self.levels.append([sum(len(kids) > 1 for _, kids, _ in families), [], self.payoff_calls])
                out = level_estimates(level, families)
                self.levels[-1][2] = self.payoff_calls - self.levels[-1][2]
                return out

            return propagate(tree, cf, cfg, values, masses, recorded, dirty)

        monkeypatch.setattr(CharacteristicFn, "evaluate_games", counted)
        traced(hcdv, "monte_carlo_shapley")
        traced(hcdv, "independent_player_estimate")
        monkeypatch.setattr(hcdv, "propagate", spied)
        monkeypatch.setattr(streaming, "propagate", spied)


def test_propagate_plays_each_level_of_family_games_in_one_payoff_call_per_traced_name(monkeypatch):
    with monkeypatch.context() as m:
        reference = LevelGameSpy(m, per_family=True)
        want = batch_and_stream_run()
    spy = LevelGameSpy(monkeypatch, per_family=False)
    assert batch_and_stream_run() == want
    assert [(n, calls) for n, calls, _ in spy.levels] == [(n, calls) for n, calls, _ in reference.levels]
    # per-family play: one payoff call per family of two or more children
    assert [payoff for _, _, payoff in reference.levels] == [n for n, _, _ in reference.levels]
    played = [(n, calls, payoff) for n, calls, payoff in spy.levels if n]
    assert sum(n for n, _, _ in played) > len(played)  # some level plays several families
    for n, calls, payoff in played:
        names = [name for name, _ in calls]
        assert len(set(names)) == len(names) and sum(games for _, games in calls) == n
        assert payoff == len(calls)  # one payoff call per traced call
    # a batch level, and a stream level whose families are all fully or all
    # partly dirty, makes exactly one payoff call
    assert sum(payoff == 1 for _, _, payoff in played) > 0
    assert all(payoff == 1 for _, calls, payoff in played if len(calls) == 1)
