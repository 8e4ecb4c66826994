"""Tests for the incremental (streaming) valuation pipeline."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval.core import EMPTY_SET, LabeledDataset, PointSet, dataset_from_arrays
from hcdval.encoder import EmbeddingMatrix, EncoderConfig, identity_embeddings, smoothness_penalty
from hcdval.evaluation import synthetic_rows
from hcdval.hcdv import HcdvConfig, last_run_report, run_hcdv
from hcdval import streaming
from hcdval.hierarchy import balanced_split, build_tree
from hcdval.streaming import StreamState, full_recompute, ingest_batch, init_stream
from hcdval.utility import CharacteristicFn


def two_blob_rows(n_per, seed, centers=((6.0, 0.0), (-6.0, 0.0)), sigma=0.5):
    """Two well-separated blobs on opposite sides of the origin.

    Opposite directions keep cosine assignment unambiguous.
    """
    rng = np.random.default_rng(seed)
    feats, labs = [], []
    for label, c in enumerate(centers):
        feats.append(rng.normal(0.0, sigma, size=(n_per, 2)) + np.asarray(c))
        labs.append(np.full(n_per, label, dtype=np.int64))
    X = np.vstack(feats)
    y = np.concatenate(labs)
    order = rng.permutation(len(y))
    return X[order], y[order]


def blob_stream_state(n_per=20, leaf_cap=12, T=8, seed=0, **stream_kw):
    X, y = two_blob_rows(n_per, seed=seed)
    data = dataset_from_arrays(X, y, val_fraction=0.2, seed=seed, standardise=False)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(2,), leaf_cap=leaf_cap, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=0.5)
    cfg = HcdvConfig(T=T, leaf_cap=leaf_cap, seed=seed, leaf_mode="always_uniform")
    return init_stream(data, emb, tree, cf, cfg, **stream_kw)


def batch_near(center, size, seed, label):
    rng = np.random.default_rng(seed)
    feats = rng.normal(0.0, 0.4, size=(size, 2)) + np.asarray(center)
    return feats, np.full(size, label, dtype=np.int64)


# ------------------------------------------------------------------ init


def test_init_matches_batch_run():
    state = blob_stream_state(seed=1)
    data, emb = state.data, state.embedding
    tree = build_tree(emb, branching=(2,), leaf_cap=12, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=0.5)
    direct = run_hcdv(data, emb, tree, cf, state.cfg)
    assert state.values.tobytes() == direct.values.tobytes()
    assert state.epoch == 0
    assert state.value_vector().method_tag == "hcdv-stream"


def test_init_rejects_non_default_pipelines():
    X, y = two_blob_rows(10, seed=2)
    data = dataset_from_arrays(X, y, standardise=False)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(2,), leaf_cap=12, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=0.5)
    good = HcdvConfig(T=4, leaf_cap=12)
    with pytest.raises(ValueError, match="rebalance"):
        init_stream(data, emb, tree, cf, good, rebalance_period=0)
    with pytest.raises(ValueError, match="threshold"):
        init_stream(data, emb, tree, cf, good, assign_threshold=-0.1)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_init_rejects_a_non_finite_assignment_threshold(threshold):
    X, y = two_blob_rows(10, seed=2)
    data = dataset_from_arrays(X, y, standardise=False)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(2,), leaf_cap=12, gamma=0.25)
    cf = CharacteristicFn(data, emb, lam=0.5)
    with pytest.raises(ValueError, match="threshold"):
        init_stream(data, emb, tree, cf, HcdvConfig(T=4, leaf_cap=12), assign_threshold=threshold)


def test_init_rejects_an_embedding_it_cannot_extend_before_the_valuation(monkeypatch):
    X, y = two_blob_rows(10, seed=2)
    data = dataset_from_arrays(X, y, standardise=False)
    emb = EmbeddingMatrix(vectors=data.features, source="precomputed")  # no transform for new rows
    tree = build_tree(emb, branching=(2,), leaf_cap=12, gamma=0.25)
    monkeypatch.setattr(streaming, "run_hcdv", None)  # the valuation must not start
    with pytest.raises(ValueError, match="identity embedding or a stored linear transform"):
        init_stream(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), HcdvConfig(T=4, leaf_cap=12))


# ---------------------------------------------------------------- ingest


def test_untouched_leaves_keep_bit_identical_values():
    state = blob_stream_state(n_per=24, seed=3, assign_threshold=0.35)
    feats, labs = batch_near((6.0, 0.0), 6, seed=30, label=0)
    new = ingest_batch(state, feats, labs)

    untouched = 0
    for lid in new.tree.leaf_ids():
        leaf = new.tree.node(lid)
        if lid in state.tree.nodes and state.tree.node(lid).members == leaf.members:
            # same leaf, same members: the batch never reached it, so its
            # point values must survive bit for bit
            idx = leaf.members.indices
            assert state.values[idx].tobytes() == new.values[idx].tobytes()
            untouched += 1
    assert untouched >= 1
    # and the batch really did move the values somewhere
    assert new.values[: state.data.n].tobytes() != state.values.tobytes()


def test_values_conserve_refreshed_surplus():
    state = blob_stream_state(n_per=16, seed=4)
    feats, labs = batch_near((-6.0, 0.0), 5, seed=41, label=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sign-flow warnings are fine here
        new = ingest_batch(state, feats, labs)
    surplus = new.cf.evaluate(new.tree.node(new.tree.root_id).members) - new.cf.evaluate(
        EMPTY_SET
    )
    assert new.surplus == pytest.approx(surplus, abs=1e-12)
    assert math.fsum(new.values.tolist()) == pytest.approx(surplus, abs=1e-9)


def test_input_state_is_left_intact():
    state = blob_stream_state(n_per=12, seed=5)
    before_values = state.values.copy()
    before_leaves = list(state.tree.leaf_ids())
    feats, labs = batch_near((6.0, 0.0), 4, seed=50, label=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ingest_batch(state, feats, labs)
    assert np.array_equal(state.values, before_values)
    assert list(state.tree.leaf_ids()) == before_leaves
    assert state.epoch == 0


def test_the_smoothness_penalty_clips_to_the_grown_corpus_range():
    state = blob_stream_state(n_per=12, seed=5)
    feats, labs = batch_near((12.0, 3.0), 4, seed=51, label=0)  # beyond the initial feature range
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grown = ingest_batch(state, feats, labs).data
    assert (grown.features.max(axis=0) > state.data.features.max(axis=0)).all()
    fresh = LabeledDataset(grown.features, grown.labels, grown.val_features, grown.val_labels, grown.num_classes)
    cfg = EncoderConfig(d=2, fd_step=3.0, fd_draws=3, seed=5)  # large steps, so the clipping binds
    W = np.array([[1.0, 0.3], [-0.2, 0.8]])
    batch = grown.all_points()
    assert smoothness_penalty(grown, batch, W, cfg) == smoothness_penalty(fresh, batch, W, cfg)


def test_far_away_batch_spawns_a_leaf():
    state = blob_stream_state(n_per=16, seed=6, assign_threshold=0.2)
    leaves_before = len(state.tree.leaf_ids())
    # orthogonal direction: cosine distance to every prototype is about 1
    feats = np.array([[0.0, 8.0]])
    labs = np.array([0], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = ingest_batch(state, feats, labs)
    assert new.metrics[-1].spawned == 1
    assert len(new.tree.leaf_ids()) == leaves_before + 1
    spawned = [
        lid for lid in new.tree.leaf_ids() if lid not in state.tree.nodes
    ]
    assert len(spawned) == 1
    assert list(new.tree.node(spawned[0]).members.indices) == [state.data.n]


def test_amortized_refresh_cost_stays_under_bound():
    state = blob_stream_state(n_per=30, leaf_cap=10, T=8, seed=7)
    rng = np.random.default_rng(70)
    for step in range(4):
        center = (6.0, 0.0) if step % 2 == 0 else (-6.0, 0.0)
        feats, labs = batch_near(center, 5, seed=700 + step, label=step % 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = ingest_batch(state, feats, labs)
        m = state.metrics[-1]
        bound = 2 * state.cfg.T * m.dirty_count + m.dirty_count + 2
        assert m.evals_refresh + m.evals_root <= bound
        assert m.eval_count == m.evals_refresh + m.evals_root + m.evals_leaves
        assert m.epoch == step + 1
        assert 0.0 < m.refresh_ms and 0.0 < m.leaves_ms and m.refresh_ms + m.leaves_ms < m.latency_ms
    assert len(state.metrics) == 4
    _ = rng  # reserved for future per-step jitter


def test_rebalance_splits_oversize_leaves():
    # rebalance_period=1 makes every epoch a rebalance epoch
    state = blob_stream_state(n_per=12, leaf_cap=8, seed=8, rebalance_period=1)
    feats, labs = batch_near((6.0, 0.0), 10, seed=80, label=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = ingest_batch(state, feats, labs)
    assert new.metrics[-1].rebalanced
    for lid in new.tree.leaf_ids():
        assert len(new.tree.node(lid).members) <= new.tree.leaf_cap
    new.tree.validate(check_leaf_cap=False)


def test_rebalance_splits_the_root_of_a_one_node_tree_into_a_leaf_level():
    # 16 train points under a leaf cap of 20: the tree is its root alone
    X, y = synthetic_rows(60, 2, 0.3, seed=1, dim=4)
    order = np.random.default_rng(1).permutation(60)
    X, y = X[order], y[order]
    data = dataset_from_arrays(X[:20], y[:20], seed=1)
    emb = identity_embeddings(data)
    tree = build_tree(emb, (2,), leaf_cap=20)
    assert data.n == 16 and tree.depth == 0
    cfg = HcdvConfig(T=8, leaf_cap=20, seed=1)
    state = init_stream(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), cfg, rebalance_period=1)
    new = ingest_batch(state, X[20:50], y[20:50])
    assert new.metrics[-1].rebalanced and new.tree.depth == 1 and state.tree.depth == 0
    assert new.tree.node(new.tree.root_id).children == new.tree.leaf_ids()
    assert all(len(new.tree.node(lid).members) <= new.tree.leaf_cap for lid in new.tree.leaf_ids())
    new.tree.validate()
    assert abs(math.fsum(new.values.tolist()) - new.surplus) <= 1e-6 * max(1.0, abs(new.surplus))


def test_rebalance_splits_its_oversize_leaves_as_one_at_a_time(monkeypatch):
    state = blob_stream_state(n_per=12, leaf_cap=8, seed=8, rebalance_period=1)
    right, left = batch_near((6.0, 0.0), 8, seed=81, label=0), batch_near((-6.0, 0.0), 8, seed=82, label=1)
    feats, labs = np.vstack([right[0], left[0]]), np.concatenate([right[1], left[1]])
    sizes = []

    def one_at_a_time(embedding, problems, gamma):
        sizes.append(len(problems))
        return [balanced_split(embedding, members, K, gamma, stream) for members, K, stream in problems]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        together = ingest_batch(state, feats, labs)
        monkeypatch.setattr(streaming, "split_nodes", one_at_a_time)
        apart = ingest_batch(state, feats, labs)
    assert sizes[0] >= 2
    assert together.tree.to_json() == apart.tree.to_json()
    assert together.values.tobytes() == apart.values.tobytes()


def test_partition_invariant_survives_steps():
    state = blob_stream_state(n_per=14, leaf_cap=10, seed=9, rebalance_period=2)
    for step in range(3):
        feats, labs = batch_near((6.0, 0.0), 4, seed=90 + step, label=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = ingest_batch(state, feats, labs)
        state.tree.validate(check_leaf_cap=False)
        members = state.tree.node(state.tree.root_id).members
        assert len(members) == state.data.n
        leaf_union = sorted(
            i for lid in state.tree.leaf_ids() for i in state.tree.node(lid).members.indices
        )
        assert leaf_union == list(range(state.data.n))


def test_family_masses_conserve_after_ingest():
    state = blob_stream_state(n_per=20, leaf_cap=10, seed=10)
    feats, labs = batch_near((-6.0, 0.0), 6, seed=100, label=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = ingest_batch(state, feats, labs)
    for nid in state.tree.nodes:
        kids = state.tree.node(nid).children
        if not kids:
            continue
        assert math.fsum(state.masses[k] for k in kids) == pytest.approx(
            state.masses[nid], abs=1e-9
        )


def test_ingest_is_deterministic():
    a = blob_stream_state(n_per=14, seed=11)
    b = blob_stream_state(n_per=14, seed=11)
    feats, labs = batch_near((6.0, 0.0), 5, seed=110, label=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ra = ingest_batch(a, feats, labs)
        rb = ingest_batch(b, feats, labs)
    assert ra.values.tobytes() == rb.values.tobytes()
    assert ra.masses == rb.masses


def test_bad_batches_are_rejected():
    state = blob_stream_state(n_per=10, seed=12)
    with pytest.raises(ValueError, match="empty"):
        ingest_batch(state, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="unseen label"):
        ingest_batch(state, np.zeros((1, 2)), np.array([7], dtype=np.int64))
    with pytest.raises(ValueError, match="dimension"):
        ingest_batch(state, np.zeros((1, 3)), np.array([0], dtype=np.int64))
    with pytest.raises(ValueError, match="align"):
        ingest_batch(state, np.zeros((2, 2)), np.array([0], dtype=np.int64))


def test_non_integer_batch_labels_are_rejected():
    state = blob_stream_state(n_per=10, seed=12)
    # used to truncate silently to classes [0, 1]
    with pytest.raises(ValueError, match="row 0 is 0.9"):
        ingest_batch(state, np.zeros((2, 2)), np.array([0.9, 1.2]))
    with pytest.raises(ValueError, match="row 1 is inf"):
        ingest_batch(state, np.zeros((2, 2)), np.array([1.0, np.inf]))
    new = ingest_batch(state, np.full((2, 2), 6.0), np.array([0.0, 1.0]))
    assert new.data.labels[-2:].tolist() == [0, 1]


def test_full_recompute_conserves_on_current_corpus():
    state = blob_stream_state(n_per=16, seed=13)
    feats, labs = batch_near((6.0, 0.0), 5, seed=130, label=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = ingest_batch(state, feats, labs)
    vec = full_recompute(state)
    assert len(vec.values) == state.data.n
    cf = CharacteristicFn(state.data, state.embedding, lam=state.cf.lam)
    full = cf.evaluate(state.tree.node(state.tree.root_id).members)
    empty = cf.evaluate(EMPTY_SET)
    assert math.fsum(vec.values.tolist()) == pytest.approx(full - empty, abs=1e-6)


def test_full_recompute_is_a_fresh_batch_run_that_leaves_the_state_alone():
    features, labels = synthetic_rows(140, 3, 0.3, seed=9, dim=6)
    data = dataset_from_arrays(features[:100], labels[:100], seed=9)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(3, 2), leaf_cap=10, gamma=0.2, seed=5)
    cf = CharacteristicFn(data, emb, lam=0.3, metric="balanced_accuracy")
    state = init_stream(data, emb, tree, cf, HcdvConfig(T=8, lam=0.3, leaf_cap=10, seed=2), tree_seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = ingest_batch(state, features[100:], labels[100:])
    values, tree_json, evaluations = state.values.copy(), state.tree.to_json(), state.cf.evaluations

    vec = full_recompute(state)
    surplus = last_run_report().surplus
    direct = run_hcdv(
        state.data,
        state.embedding,
        build_tree(state.embedding, (3, 2), 10, 0.2, seed=5),
        CharacteristicFn(state.data, state.embedding, lam=0.3, metric="balanced_accuracy"),
        state.cfg,
    )
    assert vec.values.tobytes() == direct.values.tobytes()
    assert math.fsum(vec.values.tolist()) == pytest.approx(surplus, abs=1e-9)
    assert state.values.tobytes() == values.tobytes()
    assert state.tree.to_json() == tree_json
    assert state.cf.evaluations == evaluations


def test_stream_surplus_equals_fresh_recompute_bit_for_bit():
    # The stream scores its root surplus first, with a single-coalition
    # evaluate, as a batch run on a fresh cache does. Taking it from the cache
    # after the refresh sweeps (which score the root coalition inside a batch
    # of rows) moved it by an ulp at step 2 of this stream.
    features, labels = synthetic_rows(200, 3, 0.3, seed=4, dim=8)
    data = dataset_from_arrays(features[:160], labels[:160], seed=4)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(4, 4), leaf_cap=12, gamma=0.25, seed=4)
    cfg = HcdvConfig(T=8, leaf_cap=12, seed=4)
    state = init_stream(data, emb, tree, CharacteristicFn(data, emb), cfg, rebalance_period=2, tree_seed=4)
    for lo in range(160, 200, 10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = ingest_batch(state, features[lo : lo + 10], labels[lo : lo + 10])
        full_recompute(state)
        assert state.surplus.hex() == last_run_report().surplus.hex()


def _assert_family_conservation(state):
    # every node has a mass, and no id a rebalance deleted keeps one
    assert set(state.masses) == set(state.tree.nodes)
    for nid, node in state.tree.nodes.items():
        if not node.children:
            continue
        pot = state.masses[nid]
        tol = 1e-12 * max(1.0, abs(pot))
        assert math.fsum(state.masses[k] for k in node.children) == pytest.approx(pot, abs=tol)


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**16),
    period=st.integers(1, 3),
    batches=st.lists(
        st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0), st.integers(1, 6), st.integers(0, 1)),
        min_size=2,
        max_size=4,
    ),
)
def test_propagation_conserves_and_confines_over_random_streams(seed, period, batches):
    # the corpus is fixed (a random split may leave one class out of validation);
    # the seed drives the tree and every game
    X, y = two_blob_rows(18, seed=0)
    data = dataset_from_arrays(X, y, val_fraction=0.2, seed=0, standardise=False)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(3, 2), leaf_cap=6, gamma=0.25, seed=seed)
    cfg = HcdvConfig(T=4, leaf_cap=6, seed=seed)
    state = init_stream(data, emb, tree, CharacteristicFn(data, emb, lam=0.5), cfg, rebalance_period=period, tree_seed=seed)
    _assert_family_conservation(state)
    for k, (cx, cy, size, label) in enumerate(batches):
        feats, labs = batch_near((cx, cy), size, seed=seed + k, label=label)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            new = ingest_batch(state, feats, labs)
        # partition and prototype means always; the leaf cap once a rebalance is due
        new.tree.validate(new.embedding, check_leaf_cap=new.epoch % period == 0)
        _assert_family_conservation(new)
        surplus = new.surplus
        assert math.fsum(new.values.tolist()) == pytest.approx(surplus, abs=1e-9 * max(1.0, abs(surplus)))
        for lid in new.tree.leaf_ids():
            members = new.tree.node(lid).members
            if lid in state.tree.nodes and state.tree.node(lid).members == members:
                idx = members.indices
                assert new.values[idx].tobytes() == state.values[idx].tobytes()
        state = new


def _reference_assign_rows(tree, first, Z, threshold):
    """Row-by-row assignment that re-stacks and re-norms every prototype for each row,
    and appends each row to its node and every ancestor as it goes."""

    def cosine(z, protos):
        zn, pn = float(np.linalg.norm(z)), np.linalg.norm(protos, axis=1)
        out = np.full(protos.shape[0], 2.0)
        if zn == 0.0:
            return out
        ok = pn > 0.0
        out[ok] = 1.0 - (protos[ok] @ z) / (pn[ok] * zn)
        return out

    def grow(nid, point, z):
        while nid is not None:
            node = tree.node(nid)
            node.members = PointSet._from_sorted(np.append(node.members.indices, point))
            node.prototype = node.prototype + (z - node.prototype) / len(node.members)
            nid = node.parent

    def mark(nid):
        while nid is not None:
            dirty.add(nid)
            nid = tree.node(nid).parent

    dirty, spawned, depth = set(), 0, tree.depth
    for i, z in enumerate(Z, start=first):
        leaf_ids = tree.leaf_ids()
        dists = cosine(z, np.stack([tree.node(l).prototype for l in leaf_ids]))
        best = int(np.argmin(dists))
        if depth >= 1 and float(dists[best]) > threshold:
            parent_ids = tree.levels[depth - 1]
            pbest = parent_ids[int(np.argmin(cosine(z, np.stack([tree.node(p).prototype for p in parent_ids]))))]
            leaf = tree._new_node(depth, pbest, PointSet([i]), z)
            tree.levels[depth].append(leaf.id)
            grow(pbest, i, z)
            spawned += 1
            mark(leaf.id)
        else:
            grow(leaf_ids[best], i, z)
            mark(leaf_ids[best])
    return dirty, spawned


def _assert_same_nodes(got, want):
    assert got.levels == want.levels and sorted(got.nodes) == sorted(want.nodes)
    for nid, node in want.nodes.items():
        assert got.node(nid).members.indices.tobytes() == node.members.indices.tobytes()
        assert got.node(nid).prototype.tobytes() == node.prototype.tobytes()
        assert (got.node(nid).parent, got.node(nid).children) == (node.parent, node.children)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assignment_equals_the_per_row_loop_over_a_random_stream(seed, monkeypatch):
    X, y = two_blob_rows(18, seed=0)
    data = dataset_from_arrays(X, y, val_fraction=0.2, seed=0, standardise=False)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(3, 2), leaf_cap=6, gamma=0.25, seed=seed)
    cfg = HcdvConfig(T=4, leaf_cap=6, seed=seed)
    cf = CharacteristicFn(data, emb, lam=0.5)
    # a low threshold spawns leaves, and every step rebalances the oversize ones
    state = init_stream(data, emb, tree, cf, cfg, assign_threshold=0.002, rebalance_period=1, tree_seed=seed)
    rng = np.random.default_rng(seed)
    spawned = assigned = 0
    for step in range(6):
        if step % 2 == 0:  # a new centre, then more rows near it, which fill its leaf past the cap
            centre = rng.uniform(-7.0, 7.0, size=2)
        feats, labs = batch_near(centre, int(rng.integers(1, 9)), seed=10 * seed + step, label=step % 2)
        # the assignment alone, on copies of the step's input tree
        got, want = state.tree.copy(), state.tree.copy()
        result = streaming._assign_rows(got, state.data.n, feats, state.assign_threshold)
        assert result == _reference_assign_rows(want, state.data.n, feats, state.assign_threshold)
        _assert_same_nodes(got, want)
        spawned += result[1]
        assigned += len(feats) - result[1]
        # and the whole step, rebalance and valuation included
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            new = ingest_batch(state, feats, labs)
            with monkeypatch.context() as mp:
                mp.setattr(streaming, "_assign_rows", _reference_assign_rows)
                ref = ingest_batch(state, feats, labs)
        _assert_same_nodes(new.tree, ref.tree)
        assert new.tree.to_json() == ref.tree.to_json()
        assert new.values.tobytes() == ref.values.tobytes()
        assert (new.metrics[-1].dirty_count, new.metrics[-1].spawned) == (ref.metrics[-1].dirty_count, ref.metrics[-1].spawned)
        state = new
    assert spawned > 0 and assigned > 0 and any(m.rebalanced for m in state.metrics)
