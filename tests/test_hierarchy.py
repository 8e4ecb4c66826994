import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcdval import HierarchyTree, PointSet, RngStream, balanced_split, build_tree, capacity_window, hierarchy, make_synthetic, union
from hcdval.core import content_token


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



@pytest.mark.parametrize(
    "field, value, match",
    [
        ("leaf_cap", 8.5, "leaf_cap must be an integer"),
        ("leaf_cap", True, "leaf_cap must be an integer"),
        ("leaf_cap", 0, "leaf cap must be positive"),
        ("branching", [2.5], "branching must be an integer"),
        ("branching", [1], "branching factors must all be >= 2"),
        ("gamma", 1.5, r"gamma must lie in \[0, 1\)"),
        ("gamma", float("nan"), r"gamma must lie in \[0, 1\)"),
    ],
)
def test_tree_parameters_are_checked_when_built_and_when_loaded(field, value, match):
    emb = _embedding(30, seed=13)
    params = {"branching": [3], "leaf_cap": 8, "gamma": 0.25}
    payload = json.loads(build_tree(emb, seed=13, **params).to_json())
    payload[field] = value
    with pytest.raises(ValueError, match=match):
        HierarchyTree.from_json(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        build_tree(emb, seed=13, **{**params, field: value})

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


def reference_kmeans_pp_init(X, K, gen):
    """k-means++ seeds drawn with ``gen.choice``."""
    n = X.shape[0]
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[int(gen.integers(n))]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = float(d2.sum())
        choice = int(gen.integers(n)) if total <= 0.0 else int(gen.choice(n, p=d2 / total))
        centroids[k] = X[choice]
        d2 = np.minimum(d2, ((X - centroids[k]) ** 2).sum(axis=1))
    return centroids


@pytest.mark.parametrize("sizes", [[30, 30, 30], [30, 17, 30, 5, 17], [12]])
def test_seeding_a_level_equals_node_by_node_seeding(sizes):
    # equal and unequal node sizes, K_b up to the node size, and one node of
    # two distinct rows, so that its remaining distances go all zero after
    # two seeds and its later seeds take the uniform draw
    gen = np.random.default_rng(len(sizes))
    blocks = [gen.normal(size=(m, 3)) for m in sizes]
    blocks[0] = blocks[0][np.arange(sizes[0]) % 2]
    Ks = np.array([min(m, 2 + b) for b, m in enumerate(sizes)])
    Ks[0] = 5
    X, _ = hierarchy._pad(np.concatenate(blocks), np.array(sizes))
    streams = [RngStream(b, "seeding") for b in range(len(sizes))]
    got = hierarchy._kmeans_pp_init(X, np.array(sizes), Ks, [s.generator() for s in streams])
    for b, (rows, K) in enumerate(zip(blocks, Ks.tolist())):
        want = reference_kmeans_pp_init(rows, K, streams[b].generator())
        assert got[b, :K].tobytes() == want.tobytes()
        assert (got[b, K:] == want[0]).all()
    assert len(np.unique(got[0, :5], axis=0)) == 2  # the uniform draws ran


@pytest.mark.parametrize("split", ["tree", "balanced_split"])
def test_overflowing_distances_raise_the_value_error(split):
    # finite rows whose squared distances overflow: the documented ValueError,
    # not a RuntimeWarning (which a warnings-as-errors caller would see first)
    X = np.random.default_rng(14).normal(size=(40, 3)) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared distances between embedding rows overflow"):
            if split == "tree":
                build_tree(X, (4,), 12)
            else:
                balanced_split(X, PointSet(range(40)), K=4)


def reference_balanced_split(embedding, members, K, gamma=0.25, seed=0):
    """``balanced_split`` with ``reference_lloyd``, a NumPy-scalar fill and a point-by-point repair scan."""
    m = len(members)
    if K == 1:
        return [members]
    X = np.asarray(embedding, dtype=np.float64)[members.indices]
    gen = seed.generator() if isinstance(seed, RngStream) else RngStream(int(seed), "balanced-split").generator()
    centroids = reference_lloyd(X, reference_kmeans_pp_init(X, K, gen))
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


def _segmented(blocks):
    """The padded (B, m, D) stack and row mask that ``_segmented_lloyd`` takes."""
    return hierarchy._pad(np.concatenate(blocks), np.array([len(b) for b in blocks]))


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
    # several problems in one segmented call: this one and up to three more of
    # other sizes and K, each started from data rows, repeats allowed, and
    # with one far centroid, so that clusters go empty
    blocks, inits = [X], []
    for _ in range(int(gen.integers(0, 4))):
        blocks.append(_rows(gen, int(gen.integers(2, 49)), D, layout))
    for rows in blocks:
        init = rows[gen.integers(0, len(rows), size=int(gen.integers(2, len(rows) + 1)))]
        init[-1] = rows.max(axis=0) + 100.0
        inits.append(init)
    centroids, present = _segmented(inits)
    got = hierarchy._segmented_lloyd(*_segmented(blocks), centroids, present)
    for b, (rows, init) in enumerate(zip(blocks, inits)):
        assert got[b, : len(init)].tobytes() == reference_lloyd(rows, init.copy()).tobytes()


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), D=st.integers(1, 9), ulps=st.integers(-6, 6))
def test_lloyd_stops_as_the_norm_decides_at_the_tolerance(seed, D, ulps):
    gen = np.random.default_rng(seed)
    unit = gen.normal(size=(3, D))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    step = unit * (1e-6 * (1.0 + ulps * np.finfo(np.float64).eps))
    assert hierarchy._moved_beyond(step, 1e-6).tolist() == [bool(np.linalg.norm(row) > 1e-6) for row in step]


def _draw(gen, p):
    """One ``_weighted_draws`` row, drawn with ``gen``."""
    return int(hierarchy._weighted_draws(p[None], np.array([gen.random()]))[0])


def test_kmeans_pp_draw_equals_generator_choice():
    gen = np.random.default_rng(17)
    for case in range(3_000):
        n = int(gen.integers(1, 40))
        p = gen.random(n) * (gen.random(n) < 0.7)  # zeros included
        p[gen.integers(n)] += 1e-3  # one positive entry at least
        p /= p.sum()
        a = RngStream(case, "draw").generator()
        b = RngStream(case, "draw").generator()
        for _ in range(3):
            assert _draw(a, p) == int(b.choice(n, p=p))
    # p may sum to 1 within 1.5e-8; choice then scales the cumulative sum, and
    # here the first boundary falls between u and that boundary unscaled
    for case in range(20):
        u = RngStream(case, "draw").generator().random()
        p = np.array([u * (1.0 + 5e-9), 1.0 + 1e-8 - u * (1.0 + 5e-9)])
        draw = _draw(RngStream(case, "draw").generator(), p)
        assert draw == int(RngStream(case, "draw").generator().choice(2, p=p)) == 1


def reference_build_tree(embedding, branching, leaf_cap, gamma, seed):
    """``build_tree`` node by node with ``reference_balanced_split``."""
    vectors = np.asarray(embedding, dtype=np.float64)
    tree = HierarchyTree(branching, leaf_cap, gamma)
    root = tree._new_node(0, None, PointSet(range(len(vectors))), vectors.mean(axis=0))
    tree.levels.append([root.id])
    level = 0
    while any(len(tree.nodes[i].members) > leaf_cap for i in tree.levels[-1]):
        K = tree.branching[min(level, len(tree.branching) - 1)]
        next_ids = []
        for nid in tree.levels[-1]:
            node = tree.nodes[nid]
            if len(node.members) <= leaf_cap:
                next_ids.append(tree._new_node(level + 1, nid, node.members, node.prototype).id)
                continue
            stream = RngStream(seed, "split", content_token(level, node.members.indices))
            for part in reference_balanced_split(vectors, node.members, min(K, len(node.members)), gamma, stream):
                next_ids.append(tree._new_node(level + 1, nid, part, vectors[part.indices].mean(axis=0)).id)
        tree.levels.append(next_ids)
        level += 1
    return tree


def test_tree_equals_the_direct_formula_reference():
    emb = make_synthetic(600).features
    got = build_tree(emb, (4, 4), leaf_cap=12, gamma=0.25, seed=3).to_json()
    assert got == reference_build_tree(emb, (4, 4), 12, 0.25, 3).to_json()


def _split_counts(tree):
    """Per level, the part count K_eff of each split node and the number of chained nodes."""
    out = []
    for level in range(1, len(tree.levels)):
        families = [len(kids) for _, kids in tree.families(level)]
        out.append(({k for k in families if k > 1}, families.count(1)))
    return out


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(2, 120),
    D=st.integers(1, 9),
    branching=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    leaf_cap=st.integers(1, 12),
    gamma=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    layout=st.sampled_from(["normal", "grid", "duplicates"]),
)
@example(seed=0, m=20, D=3, branching=[5], leaf_cap=3, gamma=0.5, layout="normal")
def test_tree_equals_the_node_by_node_reference(seed, m, D, branching, leaf_cap, gamma, layout):
    X = _rows(np.random.default_rng(seed), m, D, layout)
    got = build_tree(X, branching, leaf_cap, gamma, seed)
    assert got.to_json() == reference_build_tree(X, branching, leaf_cap, gamma, seed).to_json()


def test_tree_reference_property_covers_uneven_levels():
    # the explicit example above splits some level into different part
    # counts (K_eff = min(K, |node|)) next to chained nodes
    tree = build_tree(_rows(np.random.default_rng(0), 20, 3, "normal"), [5], 3, 0.5, 0)
    assert any(len(ks) > 1 and chained for ks, chained in _split_counts(tree))


@pytest.mark.parametrize("D", [2, 9])
def test_fill_distances_in_chunks_of_a_few_bytes_build_the_same_tree(D, monkeypatch):
    X = _rows(np.random.default_rng(D), 300, D, "normal")
    want = build_tree(X, (4, 3), leaf_cap=12, gamma=0.25, seed=D).to_json()
    monkeypatch.setattr(hierarchy, "TEMP_BYTES", 8)  # one point per chunk
    assert build_tree(X, (4, 3), leaf_cap=12, gamma=0.25, seed=D).to_json() == want


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), B=st.integers(1, 3), K=st.integers(1, 5), m=st.integers(1, 40), D=st.integers(1, 12),
       budget=st.sampled_from([1, 64, 1000, 1 << 20]))
def test_direct_distances_do_not_depend_on_the_chunks(seed, B, K, m, D, budget):
    gen = np.random.default_rng(seed)
    X, centroids = gen.normal(size=(B, m, D)), gen.normal(size=(B, K, D))
    want = np.sqrt(((X[:, None, :, :] - centroids[:, :, None, :]) ** 2).sum(axis=3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hierarchy, "TEMP_BYTES", budget)
        assert hierarchy._direct_distances(X, centroids).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("D", [1, 2, 5])
def test_part_means_keep_the_mean_of_negative_zero_columns(D):
    gen = np.random.default_rng(D)
    X = gen.normal(size=(40, D))
    X[:, 0] = -0.0  # -0.0 in every row of every part
    X[:20, -1] = -0.0  # -0.0 in every row of the first two parts
    X[20:25, -1] = [-0.0, 0.0, -0.0, -0.0, -0.0]  # a +0.0 among them
    X[25:28] = -0.0
    parts = [PointSet(range(0, 10)), PointSet(range(10, 20)), PointSet(range(20, 25)), PointSet(range(25, 40)), PointSet([27])]
    for part, mean in zip(parts, hierarchy.part_means(X, parts)):
        assert mean.tobytes() == X[part.indices].mean(axis=0).tobytes()
    tree = build_tree(X, (2, 2), leaf_cap=5, gamma=0.25, seed=D)
    for node in tree.nodes.values():
        assert node.prototype.tobytes() == X[node.members.indices].mean(axis=0).tobytes()
