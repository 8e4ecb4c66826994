import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval import HierarchyTree, PointSet, RngStream, balanced_split, build_tree, capacity_window, hierarchy, make_synthetic, union


def test_capacity_window_hand_cases():
    assert capacity_window(10, 2, 0.2) == (4, 6, 5)
    assert capacity_window(7, 3, 0.25) == (2, 4, 3)
    assert capacity_window(12, 4, 0.0) == (3, 3, 3)


def test_balanced_split_two_way():
    gen = np.random.default_rng(0)
    emb = gen.normal(size=(10, 3))
    parts = balanced_split(emb, PointSet(range(10)), K=2, gamma=0.2, seed=1)
    assert len(parts) == 2
    sizes = sorted(len(p) for p in parts)
    assert sum(sizes) == 10
    assert sizes[0] >= 4 and sizes[1] <= 6
    assert union(parts) == PointSet(range(10))


def test_balanced_split_edge_cases():
    gen = np.random.default_rng(1)
    emb = gen.normal(size=(6, 2))
    members = PointSet(range(6))
    assert balanced_split(emb, members, K=1, gamma=0.2, seed=0) == [members]
    singletons = balanced_split(emb, members, K=6, gamma=0.0, seed=0)
    assert sorted(len(p) for p in singletons) == [1] * 6
    with pytest.raises(ValueError):
        balanced_split(emb, members, K=7, gamma=0.2, seed=0)


def test_balanced_split_is_deterministic():
    gen = np.random.default_rng(3)
    emb = gen.normal(size=(20, 4))
    members = PointSet(range(20))
    a = balanced_split(emb, members, K=3, gamma=0.25, seed=5)
    b = balanced_split(emb, members, K=3, gamma=0.25, seed=5)
    assert [p.indices.tolist() for p in a] == [p.indices.tolist() for p in b]


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 5_000),
    m=st.integers(4, 40),
    K=st.integers(2, 5),
    gamma=st.floats(0.0, 0.4),
)
def test_balanced_split_invariants(seed, m, K, gamma):
    if K > m:
        return
    gen = np.random.default_rng(seed)
    emb = gen.normal(size=(m, 3))
    members = PointSet(range(m))
    parts = balanced_split(emb, members, K=K, gamma=gamma, seed=seed)
    assert len(parts) == K
    assert union(parts) == members
    assert sum(len(p) for p in parts) == m
    s_min, s_max, _ = capacity_window(m, K, gamma)
    s_min_eff = max(1, min(s_min, m // K))
    for p in parts:
        assert s_min_eff <= len(p) <= s_max


def _embedding(n, d=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def test_build_tree_basic_shape():
    emb = _embedding(40)
    tree = build_tree(emb, (4,), leaf_cap=12, gamma=0.25, seed=0)
    tree.validate(embedding=emb, check_window=True)
    assert tree.depth >= 1
    assert tree.levels[0] == [tree.root_id]
    assert all(len(tree.node(l).members) <= 12 for l in tree.leaf_ids())
    # leaves all live on the deepest level
    assert sorted(tree.leaf_ids()) == sorted(tree.levels[-1])


def test_build_tree_partitions_every_level():
    emb = _embedding(60, seed=2)
    tree = build_tree(emb, (3, 2), leaf_cap=8, gamma=0.25, seed=2)
    everything = PointSet(range(60))
    for level_ids in tree.levels:
        assert union([tree.node(i).members for i in level_ids]) == everything
    for level in range(1, len(tree.levels)):
        for pid, kids in tree.families(level):
            assert union([tree.node(k).members for k in kids]) == tree.node(pid).members


def test_build_tree_extends_branching_when_exhausted():
    emb = _embedding(100, seed=4)
    tree = build_tree(emb, (2,), leaf_cap=5, gamma=0.25, seed=4)
    tree.validate(embedding=emb)
    assert tree.depth > 1  # one factor of 2 cannot reach a cap of 5 from 100
    assert all(len(tree.node(l).members) <= 5 for l in tree.leaf_ids())


def test_build_tree_small_input_stays_at_root():
    emb = _embedding(6, seed=5)
    tree = build_tree(emb, (4,), leaf_cap=10, gamma=0.25, seed=5)
    assert tree.depth == 0
    assert tree.leaf_ids() == [tree.root_id]


def test_build_tree_chains_keep_small_nodes():
    # 2 tight blobs of very different size: the small side stays under the cap
    gen = np.random.default_rng(6)
    emb = np.vstack([gen.normal(0, 0.1, size=(30, 2)), gen.normal(8, 0.1, size=(10, 2))])
    tree = build_tree(emb, (2,), leaf_cap=16, gamma=0.25, seed=6)
    tree.validate(embedding=emb)
    # every leaf sits at the same depth even if one side finished early
    leaf_levels = {tree.node(l).level for l in tree.leaf_ids()}
    assert len(leaf_levels) == 1


def test_build_tree_prototypes_are_member_means():
    emb = _embedding(30, seed=7)
    tree = build_tree(emb, (3,), leaf_cap=6, gamma=0.25, seed=7)
    for node in tree.nodes.values():
        want = emb[node.members.indices].mean(axis=0)
        assert np.allclose(node.prototype, want, atol=1e-9)


def test_build_tree_determinism():
    emb = _embedding(50, seed=8)
    a = build_tree(emb, (3,), leaf_cap=8, gamma=0.25, seed=9)
    b = build_tree(emb, (3,), leaf_cap=8, gamma=0.25, seed=9)
    assert a.to_json() == b.to_json()


# a tree.json in the older format, whose nodes also carried two per-node
# annotations that from_json now ignores
OLD_FORMAT_TREE_JSON = """{
 "branching": [2], "leaf_cap": 2, "gamma": 0.25, "levels": [[0], [1, 2]],
 "nodes": [
  {"id": 0, "level": 0, "parent": null, "children": [1, 2], "members": [0, 1, 2],
   "prototype": [0.5, 1.0], "cached_shapley": 0.3, "budget": 0.3},
  {"id": 1, "level": 1, "parent": 0, "children": [], "members": [0, 1],
   "prototype": [0.0, 1.5], "cached_shapley": 0.25, "budget": 0.1},
  {"id": 2, "level": 1, "parent": 0, "children": [], "members": [2],
   "prototype": [1.5, 0.0], "cached_shapley": null, "budget": null}
 ]
}"""


def test_tree_json_roundtrip_preserves_annotations():
    built = build_tree(_embedding(25, seed=10), (3,), leaf_cap=6, gamma=0.25, seed=10)
    old = HierarchyTree.from_json(OLD_FORMAT_TREE_JSON)
    assert (old.branching, old.leaf_cap, old.gamma, old.levels) == ([2], 2, 0.25, [[0], [1, 2]])
    assert old.node(1).members == PointSet([0, 1]) and old.node(1).prototype.tolist() == [0.0, 1.5]
    assert old._next_id == 3
    for tree in (built, old):
        clone = HierarchyTree.from_json(tree.to_json())
        assert clone.to_json() == tree.to_json()
        for nid, node in tree.nodes.items():
            other = clone.node(nid)
            assert (other.level, other.parent, other.children) == (node.level, node.parent, node.children)
            assert other.members == node.members
            assert np.allclose(other.prototype, node.prototype)


def test_tree_copy_equals_a_json_round_trip_and_is_independent():
    tree = build_tree(_embedding(90, seed=6), (3, 2), leaf_cap=12, gamma=0.25, seed=6)
    gone = tree.levels[-1].pop()  # the newest node goes, as in a rebalance: ids now have a gap at the top
    tree.node(tree.node(gone).parent).children.remove(gone)
    del tree.nodes[gone]
    clone, ref = tree.copy(), HierarchyTree.from_json(tree.to_json())
    assert clone.to_json() == ref.to_json()
    assert clone._next_id == ref._next_id
    assert list(clone.nodes) == list(ref.nodes)
    assert (clone.branching, clone.leaf_cap, clone.gamma, clone.levels) == (ref.branching, ref.leaf_cap, ref.gamma, ref.levels)
    for nid, want in ref.nodes.items():
        got = clone.node(nid)
        assert (got.id, got.level, got.parent, got.children) == (want.id, want.level, want.parent, want.children)
        assert got.members == want.members
        assert got.prototype.tobytes() == want.prototype.tobytes()

    before = tree.to_json()
    for node in clone.nodes.values():
        node.prototype += 1.0
        node.children.append(-1)
        node.members = PointSet([0])
    clone.levels[0].append(-1)
    clone.levels.append([])
    clone.nodes.clear()
    assert tree.to_json() == before


def test_family_and_node_tokens_track_content():
    emb = _embedding(30, seed=11)
    a = build_tree(emb, (3,), leaf_cap=6, gamma=0.25, seed=11)
    b = a.copy()
    pid, kids = a.families(1)[0]
    assert a.family_token(pid) == b.family_token(pid)
    assert a.node_token(kids[0]) == b.node_token(kids[0])
    assert a.node_token(kids[0]) != a.node_token(kids[1])


def test_build_tree_validation_errors():
    emb = _embedding(20, seed=12)
    with pytest.raises(ValueError):
        build_tree(emb, (1,), leaf_cap=5, gamma=0.25, seed=0)
    with pytest.raises(ValueError):
        build_tree(emb, (), leaf_cap=5, gamma=0.25, seed=0)
    with pytest.raises(ValueError):
        build_tree(emb, (2,), leaf_cap=0, gamma=0.25, seed=0)
    with pytest.raises(ValueError):
        build_tree(emb, (2,), leaf_cap=5, gamma=1.0, seed=0)


# ------------------------------------------------- splits against the direct formula


def reference_lloyd(X, centroids, max_iter=50, tol=1e-6):
    """Lloyd iterations with broadcast direct distances and a per-cluster mean loop."""
    K = centroids.shape[0]
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        moved = 0.0
        new_centroids = centroids.copy()
        for k in range(K):
            mask = assign == k
            if mask.any():
                new_centroids[k] = X[mask].mean(axis=0)
                moved = max(moved, float(np.linalg.norm(new_centroids[k] - centroids[k])))
        centroids = new_centroids
        if moved <= tol:
            break
    return centroids


def reference_balanced_split(embedding, members, K, gamma=0.25, seed=0):
    """``balanced_split`` with ``reference_lloyd``, a NumPy-scalar fill and a point-by-point repair scan."""
    m = len(members)
    if K == 1:
        return [members]
    X = np.asarray(embedding, dtype=np.float64)[members.indices]
    gen = seed.generator() if isinstance(seed, RngStream) else RngStream(int(seed), "balanced-split").generator()
    centroids = reference_lloyd(X, hierarchy._kmeans_pp_init(X, K, gen))
    dists = np.sqrt(((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
    nearest_two = np.sort(dists, axis=1)[:, :2]
    order = np.lexsort((np.arange(m), -(nearest_two[:, 1] - nearest_two[:, 0])))
    s_min, s_max, _ = capacity_window(m, K, gamma)
    s_min_eff = max(1, min(s_min, m // K))
    pref = np.argsort(dists, axis=1, kind="stable")
    assign = np.full(m, -1, dtype=np.int64)
    counts = np.zeros(K, dtype=np.int64)
    for p in order:
        for k in pref[p]:
            if counts[k] < s_max:
                assign[p] = k
                counts[k] += 1
                break
    while counts.min() < s_min_eff:
        recipient = int(np.argmin(counts))
        donors = np.flatnonzero(counts > s_min_eff)
        best_point, best_dist = -1, np.inf
        for p in range(m):
            if assign[p] in donors:
                d = dists[p, recipient]
                if d < best_dist:
                    best_point, best_dist = p, d
        counts[assign[best_point]] -= 1
        assign[best_point] = recipient
        counts[recipient] += 1
    parts = [PointSet._from_sorted(members.indices[assign == k]) for k in range(K)]
    parts.sort(key=lambda ps: int(ps.indices[0]))
    return parts


def _rows(gen, m, D, layout):
    if layout == "normal":
        return gen.normal(size=(m, D))
    if layout == "grid":  # coarse grid: many equal distances and tied margins
        return np.round(gen.normal(size=(m, D)) * 2.0) / 2.0
    return gen.normal(size=(3, D))[gen.integers(0, 3, size=m)]  # three distinct rows, duplicated


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(2, 48),
    D=st.integers(1, 9),
    K_share=st.floats(0.0, 1.0),
    gamma=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    layout=st.sampled_from(["normal", "grid", "duplicates"]),
)
def test_split_equals_the_direct_formula_reference(seed, m, D, K_share, gamma, layout):
    gen = np.random.default_rng(seed)
    X = _rows(gen, m, D, layout)
    K = 1 + min(m - 1, int(K_share * m))
    members = PointSet(range(m))
    got = balanced_split(X, members, K, gamma, seed)
    want = reference_balanced_split(X, members, K, gamma, seed)
    assert [p.indices.tolist() for p in got] == [p.indices.tolist() for p in want]
    if K >= 2:
        # start from data rows, repeats allowed, and one far centroid: clusters empty
        init = X[gen.integers(0, m, size=K)]
        init[-1] = X.max(axis=0) + 100.0
        assert hierarchy._lloyd(X, init.copy()).tobytes() == reference_lloyd(X, init.copy()).tobytes()


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), D=st.integers(1, 9), ulps=st.integers(-6, 6))
def test_lloyd_stops_as_the_norm_decides_at_the_tolerance(seed, D, ulps):
    gen = np.random.default_rng(seed)
    unit = gen.normal(size=(3, D))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    step = unit * (1e-6 * (1.0 + ulps * np.finfo(np.float64).eps))
    for row in step:
        assert hierarchy._moved_beyond(row[None], 1e-6) == (np.linalg.norm(row) > 1e-6)
    assert hierarchy._moved_beyond(step, 1e-6) == any(np.linalg.norm(row) > 1e-6 for row in step)


def test_tree_equals_the_direct_formula_reference(monkeypatch):
    emb = make_synthetic(600).features
    got = build_tree(emb, (4, 4), leaf_cap=12, gamma=0.25, seed=3).to_json()
    monkeypatch.setattr(hierarchy, "balanced_split", reference_balanced_split)
    assert got == build_tree(emb, (4, 4), leaf_cap=12, gamma=0.25, seed=3).to_json()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_embedding_rows_are_named(bad):
    emb = _embedding(30, seed=13)
    emb[12, 0] = bad
    emb[7, 2] = bad
    with pytest.raises(ValueError, match="embedding row 7 is not finite"):
        build_tree(emb, (3,), leaf_cap=8, gamma=0.25, seed=0)
    with pytest.raises(ValueError, match="embedding row 12 is not finite"):
        balanced_split(emb, PointSet(range(10, 30)), K=3, gamma=0.25, seed=0)
    with pytest.raises(ValueError, match="embedding row 0 is not finite"):
        build_tree(np.full((10, 2), bad), (2,), leaf_cap=4, gamma=0.25, seed=0)
    with pytest.raises(ValueError, match="embedding row 7 is not finite"):  # a root that needs no split
        build_tree(emb[:10], (3,), leaf_cap=12, gamma=0.25, seed=0)
