import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval import HierarchyTree, PointSet, balanced_split, build_tree, capacity_window, union


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


def test_tree_json_roundtrip_preserves_annotations():
    emb = _embedding(25, seed=10)
    tree = build_tree(emb, (3,), leaf_cap=6, gamma=0.25, seed=10)
    for i, node in enumerate(tree.nodes.values()):
        node.cached_shapley = 0.1 * i
        node.budget = 0.2 * i
    clone = tree.copy()
    assert clone.to_json() == tree.to_json()
    for nid, node in tree.nodes.items():
        other = clone.node(nid)
        assert other.members == node.members
        assert other.cached_shapley == node.cached_shapley
        assert other.budget == node.budget
        assert np.allclose(other.prototype, node.prototype)


def test_tree_copy_equals_a_json_round_trip_and_is_independent():
    tree = build_tree(_embedding(90, seed=6), (3, 2), leaf_cap=12, gamma=0.25, seed=6)
    for i, nid in enumerate(tree.nodes):
        node = tree.node(nid)
        node.cached_shapley = np.float64(0.1 * i) if i % 3 else None
        node.budget = 0.2 * i if i % 2 else None
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
        for field in ("cached_shapley", "budget"):
            value = getattr(got, field)
            assert value == getattr(want, field) and type(value) is type(getattr(want, field))

    before = tree.to_json()
    for node in clone.nodes.values():
        node.prototype += 1.0
        node.children.append(-1)
        node.cached_shapley = 7.0
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
