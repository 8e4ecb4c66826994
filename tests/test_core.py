import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval import (
    EMPTY_SET,
    CharacteristicFn,
    EncoderConfig,
    HcdvConfig,
    HierarchyTree,
    LabeledDataset,
    PointSet,
    RngStream,
    ValueVector,
    build_tree,
    content_token,
    dataset_from_arrays,
    identity_embeddings,
    init_stream,
    load_dataset,
    make_synthetic,
    read_matrix_binary,
    union,
    write_dataset_csv,
    write_matrix_binary,
)


def test_pointset_sorts_and_dedupes():
    s = PointSet([5, 1, 3, 1, 5])
    assert s.indices.tolist() == [1, 3, 5]
    assert len(s) == 3
    assert 3 in s and 2 not in s


def test_pointset_is_immutable():
    s = PointSet([1, 2])
    with pytest.raises(ValueError):
        s.indices[0] = 9


def test_pointset_without_and_union():
    s = PointSet([1, 2, 3])
    assert s.without(2).indices.tolist() == [1, 3]
    assert s.without(9).indices.tolist() == [1, 2, 3]
    merged = union([PointSet([1, 2]), PointSet([2, 4]), EMPTY_SET])
    assert merged.indices.tolist() == [1, 2, 4]


def test_pointset_equality_and_hash():
    assert PointSet([2, 1]) == PointSet([1, 2])
    assert hash(PointSet([1, 2])) == hash(PointSet([2, 1]))
    assert PointSet([1]) != PointSet([1, 2])
    assert len({PointSet([1, 2]), PointSet([2, 1])}) == 1


def test_pointset_key_distinguishes_sets():
    assert PointSet([1, 2]).key() != PointSet([1, 3]).key()
    assert EMPTY_SET.key() == PointSet([]).key()


@pytest.mark.parametrize(
    "indices, first",
    [([1.5, 2.7], "1.5"), ([0, 3, float("nan")], "nan"), ([2.0, float("-inf")], "-inf"), (np.array([4.0, 0.25]), "0.25")],
)
def test_pointset_rejects_non_integral_indices(indices, first):
    with pytest.raises(ValueError, match=f" is {first}, not an integer"):
        PointSet(indices)


def test_pointset_takes_integral_floats_and_trees_reject_fractional_members():
    assert PointSet([3.0, 1.0, np.float64(2)]) == PointSet([1, 2, 3])
    tree = build_tree(np.arange(12.0).reshape(6, 2), branching=[2], leaf_cap=3)
    assert HierarchyTree.from_json(tree.to_json()).node(1).members == tree.node(1).members
    doc = json.loads(tree.to_json())
    doc["nodes"][1]["members"][0] += 0.5
    with pytest.raises(ValueError, match="not an integer"):
        HierarchyTree.from_json(json.dumps(doc))


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=12))
def test_pointset_roundtrips_any_index_list(ids):
    s = PointSet(ids)
    assert s.indices.tolist() == sorted(set(ids))


def test_content_token_separates_parts():
    a = content_token("x", 1)
    assert a == content_token("x", 1)
    assert a != content_token("x", 2)
    assert a != content_token("x1")
    assert content_token(np.array([1, 2])) != content_token(np.array([1, 3]))
    assert len(a) == 16


def test_rng_stream_is_reproducible_and_forks():
    root = RngStream(7, "test")
    a = root.generator().random(4)
    b = RngStream(7, "test").generator().random(4)
    assert np.array_equal(a, b)
    forked = root.derive("child").generator().random(4)
    assert not np.array_equal(a, forked)
    epoch = root.derive("child", epoch=1).generator().random(4)
    assert not np.array_equal(forked, epoch)


def test_rng_stream_seeds_are_63_bit():
    seeds = RngStream(3, "seeds").seeds(100)
    assert seeds.shape == (100,)
    assert seeds.dtype == np.uint64
    assert int(seeds.max()) < 2**63
    # a shape draws the generator's integers in C order
    grid = RngStream(3, "seeds").seeds((4, 25))
    assert grid.shape == (4, 25) and grid.tobytes() == seeds.tobytes()


def _reference_generator(stream: RngStream) -> np.random.Generator:
    """The generator a key digests to, with the digest's words passed as a list of Python ints."""
    h = hashlib.blake2b(digest_size=32)
    h.update(int(stream.root_seed).to_bytes(16, "little", signed=True))
    h.update(stream.purpose.encode("utf-8"))
    h.update(b"\x00")
    h.update(len(stream.node).to_bytes(8, "little"))
    h.update(stream.node)
    h.update(int(stream.epoch).to_bytes(16, "little", signed=True))
    words = np.frombuffer(h.digest(), dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy=words.tolist()))


@pytest.mark.parametrize("root_seed", [0, 7, -3, -(2**70), 2**64 + 5, 2**100])
@pytest.mark.parametrize("node", [b"", b"\x00", bytes(range(256)) * 4])
def test_rng_stream_draws_equal_the_generator_and_bounded_integers(root_seed, node):
    for epoch in (0, 1, 12, -2):
        stream = RngStream(root_seed, "refresh-node", node, epoch)
        assert stream.generator().bit_generator.state == _reference_generator(stream).bit_generator.state
        for shape in (0, 1, 7, 64, (3, 5), (2, 0), (0,), (4, 1, 3), ()):
            want = _reference_generator(stream).integers(0, 2**63, size=shape, dtype=np.uint64)
            got = stream.seeds(shape)
            assert got.dtype == want.dtype == np.uint64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_matrix_binary_roundtrip(tmp_path):
    path = tmp_path / "m.bin"
    mat = np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0
    labels = np.array([0, 1, 1, 0])
    write_matrix_binary(path, mat, labels)
    got, got_labels = read_matrix_binary(path, with_labels=True)
    # storage is float32, so round-trip through the quantised values
    assert np.array_equal(got, mat.astype(np.float32).astype(np.float64))
    assert np.array_equal(got_labels, labels)


def test_matrix_binary_size_errors(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix_binary(path, np.ones((2, 2)))
    with pytest.raises(ValueError, match="expected"):
        read_matrix_binary(path, with_labels=True)
    path.write_bytes(b"\x01\x02")
    with pytest.raises(ValueError, match="truncated"):
        read_matrix_binary(path, with_labels=False)


def test_dataset_csv_roundtrip(tmp_path):
    path = tmp_path / "d.csv"
    gen = np.random.default_rng(2)
    feats = gen.normal(size=(20, 2))
    labels = np.array([0, 1] * 10)
    write_dataset_csv(path, feats, labels)
    data = load_dataset(path, val_fraction=0.25, seed=0)
    assert data.val_features.shape[0] == 5  # floor(20 * 0.25)
    assert data.n == 15


def test_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label\n1.0,2.0,0\n1.0,nan,1\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_dataset(path, seed=0)
    path.write_text("1.0,2.0,0\n1.0,3.0,0.5\n")
    with pytest.raises(ValueError, match="integer"):
        load_dataset(path, seed=0)
    path.write_text("1.0,2.0,0\n1.0,0\n")
    with pytest.raises(ValueError, match="columns"):
        load_dataset(path, seed=0)


def test_dataset_split_sizes_and_standardisation():
    gen = np.random.default_rng(0)
    feats = gen.normal(3.0, 2.0, size=(50, 4))
    labels = (gen.random(50) < 0.5).astype(int)
    data = dataset_from_arrays(feats, labels, val_fraction=0.2, seed=1)
    assert data.val_features.shape[0] == 10  # floor(50 * 0.2)
    assert data.n == 40
    assert np.allclose(data.features.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(data.features.std(axis=0, ddof=0), 1.0, atol=1e-9)


def test_dataset_constant_column_divides_by_one():
    feats = np.ones((20, 2))
    feats[:, 1] = np.arange(20)
    labels = np.array([0, 1] * 10)
    data = dataset_from_arrays(feats, labels, val_fraction=0.2, seed=0)
    assert np.all(np.isfinite(data.features))
    assert np.allclose(data.features[:, 0], 0.0)


def test_dataset_split_is_deterministic():
    gen = np.random.default_rng(5)
    feats = gen.normal(size=(30, 3))
    labels = (gen.random(30) < 0.5).astype(int)
    a = dataset_from_arrays(feats, labels, seed=9)
    b = dataset_from_arrays(feats, labels, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.val_labels, b.val_labels)
    c = dataset_from_arrays(feats, labels, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_dataset_requires_two_classes_per_split():
    feats = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError):
        dataset_from_arrays(feats, np.zeros(10, dtype=int), seed=0)


def test_dataset_rejects_non_integer_labels():
    feats = np.random.default_rng(0).normal(size=(30, 2))
    labels = np.array([0, 1] * 15, dtype=np.float64)
    labels[3] = 0.6  # used to truncate silently to class 0
    with pytest.raises(ValueError, match="row 3 is 0.6"):
        dataset_from_arrays(feats, labels, seed=0)
    labels[3] = np.nan
    with pytest.raises(ValueError, match="row 3 is nan"):
        dataset_from_arrays(feats, labels, seed=0)
    labels[3] = 1.0  # integral floats are class codes
    data = dataset_from_arrays(feats, labels, seed=0)
    assert data.labels.dtype == np.int64
    with pytest.raises(ValueError, match="row 1 is 0.6"):
        LabeledDataset(feats[:2], np.array([1.0, 0.6]), feats[2:4], np.array([0, 1]), num_classes=2)


def test_value_vector_total_and_validation():
    vv = ValueVector(
        values=np.array([0.1, 0.2, 0.3]),
        method_tag="t",
        seed=0,
        permutations_T=1,
        wallclock_ms=0.0,
    )
    assert vv.total() == pytest.approx(0.6)
    with pytest.raises(ValueError):
        ValueVector(
            values=np.array([np.inf]),
            method_tag="t",
            seed=0,
            permutations_T=1,
            wallclock_ms=0.0,
        )


def test_labeled_dataset_validation():
    feats = np.ones((4, 2))
    labels = np.array([0, 1, 0, 1])
    val_x = np.ones((2, 2))
    val_y = np.array([0, 1])
    with pytest.raises(ValueError):
        LabeledDataset(feats, np.array([0, 1, 0, 5]), val_x, val_y, num_classes=2)
    with pytest.raises(ValueError):
        LabeledDataset(feats, labels, np.empty((0, 2)), np.empty(0, dtype=int), num_classes=2)


@pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
@pytest.mark.parametrize(
    "target, name",
    [("build_tree", name) for name in ("branching", "leaf_cap", "seed")]
    + [("EncoderConfig", name) for name in ("d", "epochs", "batch_size", "partners_per_anchor", "fd_draws", "seed")]
    + [("init_stream", name) for name in ("rebalance_period", "tree_seed")],
)
def test_library_integer_arguments_reject_bools_and_non_integers(target, name, value):
    data = make_synthetic(30, seed=1)
    emb = identity_embeddings(data)

    def call(v):
        if target == "build_tree":
            args = {"branching": (2,), "leaf_cap": 8, "seed": 0}
            args[name] = (v,) if name == "branching" else v
            return build_tree(emb, **args)
        if target == "EncoderConfig":
            return EncoderConfig(**{name: v})
        tree = build_tree(emb, (2,), 8)
        return init_stream(data, emb, tree, CharacteristicFn(data, emb), HcdvConfig(T=4, leaf_cap=8), **{name: v})

    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(value)
    call(np.int64(4))  # integral NumPy ints stay accepted
