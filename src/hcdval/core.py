"""Core data structures: point sets, labelled datasets, value vectors, RNG streams."""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np


# Bytes per temporary of batched payoff play: a payoff call's player matrix and a scoring
# chunk's largest array each take max(1, TEMP_BYTES // bytes_per_row) rows.
TEMP_BYTES = 1 << 20


def check_integer(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer; bools are not integers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


# splitmix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): output k of the generator seeded with s is
# mix64(s + k * gamma mod 2^64), k = 1, 2, ...
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_WORD_STRIDE = np.uint64(2 * SPLITMIX_GAMMA % 2**64)
_WORD_STATES = np.array([SPLITMIX_GAMMA, 2 * SPLITMIX_GAMMA % 2**64], dtype=np.uint64)


def mix64(states: np.ndarray) -> np.ndarray:
    """splitmix64's output function of each uint64 state, as a new array.

    It is a bijection of [0, 2^64), so distinct states give distinct outputs.
    """
    z = states ^ (states >> np.uint64(30))
    z *= _SPLITMIX_MIX[0]
    z ^= z >> np.uint64(27)
    z *= _SPLITMIX_MIX[1]
    z ^= z >> np.uint64(31)
    return z


def point_words(indices: np.ndarray) -> np.ndarray:
    """The two 64-bit set-hash words of each point index: (m, 2) uint64.

    Point i gets outputs 2i + 1 and 2i + 2 of splitmix64 seeded with 0. The
    words depend on the index alone, so keys stay valid while a corpus grows
    by appending points.
    """
    return mix64(np.asarray(indices, dtype=np.int64).view(np.uint64)[:, None] * _WORD_STRIDE + _WORD_STATES)


def coalition_key(indices: np.ndarray) -> bytes:
    """16-byte set hash of a coalition: the XOR of its points' two words each.

    Payoff caches key coalitions by this hash (Zobrist hashing), 16 bytes per
    coalition. XOR makes the key of a union of disjoint blocks the XOR of the
    blocks' keys, so a batch is keyed block by block, and any split of one set
    gets one key; the empty set's key is all zeros. Since h(A) XOR h(B) =
    h(A symmetric-difference B), two distinct coalitions collide only when a
    non-empty set of points has words XOR-ing to zero: probability 2^-128 per
    pair, on the assumption that the splitmix64 words of distinct points
    behave as independent uniform words.
    """
    return np.bitwise_xor.reduce(point_words(indices), axis=0).tobytes()


class PointSet:
    """An immutable, sorted, duplicate-free set of dataset point indices.

    ``key()`` is the 16-byte set hash that payoff caches memoise by (see
    ``coalition_key``), so two PointSets holding the same indices always
    produce the same key.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int] = ()):
        arr = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices))
        if arr.dtype.kind not in "biu":
            values = arr.astype(np.float64)
            bad = np.flatnonzero(~(np.isfinite(values) & (values == np.floor(values))))
            if bad.size:
                raise ValueError(f"point index at position {bad[0]} is {float(values.flat[bad[0]])!r}, not an integer")
        arr = np.unique(arr.astype(np.int64))
        if arr.size and arr[0] < 0:
            raise ValueError("point indices must be non-negative")
        arr.setflags(write=False)
        self.indices = arr

    @classmethod
    def _from_sorted(cls, arr: np.ndarray) -> "PointSet":
        """Trusted constructor: ``arr`` must already be sorted unique int64."""
        ps = cls.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        ps.indices = arr
        return ps

    def key(self) -> bytes:
        return coalition_key(self.indices)

    def without(self, index: int) -> "PointSet":
        mask = self.indices != index
        return PointSet._from_sorted(self.indices[mask])

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        return iter(self.indices.tolist())

    def __contains__(self, index: int) -> bool:
        pos = int(np.searchsorted(self.indices, index))
        return pos < self.indices.size and self.indices[pos] == index

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.indices.size == other.indices.size and bool(np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if len(self) > 8:
            head = ", ".join(str(i) for i in self.indices[:8])
            return f"PointSet([{head}, ...] n={len(self)})"
        return f"PointSet({self.indices.tolist()})"


EMPTY_SET = PointSet()


def union(sets: Iterable[PointSet]) -> PointSet:
    """Union of point sets; the union of nothing is the empty set."""
    arrays = [s.indices for s in sets]
    if not arrays:
        return EMPTY_SET
    return PointSet._from_sorted(np.unique(np.concatenate(arrays)))


@dataclass(frozen=True)
class LabeledDataset:
    """A train/validation split with integer-coded labels.

    :param features: train features, shape (n, D), float64
    :param labels: train labels, shape (n,), values in 0..num_classes-1
    :param val_features: validation features, shape (n_val, D)
    :param val_labels: validation labels, shape (n_val,)
    :param num_classes: number of label classes (>= 2)
    :param feature_mean: per-feature mean removed by standardisation (or None)
    :param feature_std: per-feature scale removed by standardisation (or None)
    """

    features: np.ndarray
    labels: np.ndarray
    val_features: np.ndarray
    val_labels: np.ndarray
    num_classes: int
    feature_mean: Optional[np.ndarray] = None
    feature_std: Optional[np.ndarray] = None

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.ascontiguousarray(class_codes(self.labels))
        vfeats = np.ascontiguousarray(self.val_features, dtype=np.float64)
        vlabs = np.ascontiguousarray(class_codes(self.val_labels))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "val_features", vfeats)
        object.__setattr__(self, "val_labels", vlabs)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-d array")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must align with features")
        if vfeats.ndim != 2 or vfeats.shape[0] < 1:
            raise ValueError("validation split must be non-empty")
        if vlabs.shape != (vfeats.shape[0],):
            raise ValueError("validation labels must align with validation features")
        if vfeats.shape[1] != feats.shape[1]:
            raise ValueError("train and validation feature dimensions differ")
        if self.num_classes < 2:
            raise ValueError("need at least two label classes")
        for name, lab in (("labels", labs), ("val_labels", vlabs)):
            if lab.min() < 0 or lab.max() >= self.num_classes:
                raise ValueError(f"{name} must be integer-coded in 0..{self.num_classes - 1}")
        if not np.isfinite(feats).all() or not np.isfinite(vfeats).all():
            raise ValueError("features must be finite")

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def all_points(self) -> PointSet:
        return PointSet._from_sorted(np.arange(self.n, dtype=np.int64))


@dataclass(frozen=True)
class ValueVector:
    """Per-point values produced by one valuation method."""

    values: np.ndarray
    method_tag: str
    seed: int
    permutations_T: int
    wallclock_ms: float

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("values must be a 1-d array")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return int(self.values.size)

    def total(self) -> float:
        import math

        return math.fsum(self.values.tolist())


def _encode_token(part) -> bytes:
    if isinstance(part, bytes):
        return b"b" + part
    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    if isinstance(part, (int, np.integer)):
        return b"i" + int(part).to_bytes(16, "little", signed=True)
    if isinstance(part, np.ndarray):
        return b"a" + np.ascontiguousarray(part).tobytes()
    raise TypeError(f"cannot encode {type(part)!r} into an RNG token")


def content_token(*parts) -> bytes:
    """Digest arbitrary (int/str/bytes/ndarray) parts into a stable node token."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        enc = _encode_token(part)
        h.update(len(enc).to_bytes(8, "little"))
        h.update(enc)
    return h.digest()


@dataclass(frozen=True)
class RngStream:
    """A deterministic random stream keyed by (root seed, purpose, node, epoch).

    Distinct keys give independent generators; the same key always reproduces
    the same generator, so incremental pipelines can re-roll exactly the nodes
    they touch and nothing else. The key is digested by BLAKE2b into eight
    32-bit words that seed NumPy's ``SeedSequence`` and a PCG64 generator.
    """

    root_seed: int
    purpose: str = "root"
    node: bytes = b""
    epoch: int = 0

    def derive(self, purpose: str, node: bytes = b"", epoch: int = 0) -> "RngStream":
        return RngStream(self.root_seed, purpose, node, epoch)

    def generator(self) -> np.random.Generator:
        """The generator of this key.

        ``SeedSequence`` takes the digest's uint32 words as an array. It reads
        them exactly as it reads the same words given as a list of Python ints,
        and skips converting each one.
        """
        h = hashlib.blake2b(digest_size=32)
        h.update(int(self.root_seed).to_bytes(16, "little", signed=True))
        h.update(self.purpose.encode("utf-8"))
        h.update(b"\x00")
        h.update(len(self.node).to_bytes(8, "little"))
        h.update(self.node)
        h.update(int(self.epoch).to_bytes(16, "little", signed=True))
        words = np.frombuffer(h.digest(), dtype=np.uint32)
        return np.random.default_rng(np.random.SeedSequence(entropy=words))

    def seeds(self, shape) -> np.ndarray:
        """Draw a uint64 array of 63-bit seeds of the given shape (an int or a tuple), e.g. one per sampled permutation.

        The seeds are the generator's raw 64-bit outputs shifted right by one
        bit, which is exactly ``generator().integers(0, 2**63, size=shape,
        dtype=np.uint64)``: for a range of r = 2^63 values, Lemire's method
        returns the high word of x * r, that is x >> 1, and rejects a draw
        only when the low word is below 2^64 mod r = 0, which never happens.
        So no output is skipped, and the raw draw saves the bounded-integer
        call.
        """
        return self.generator().bit_generator.random_raw(shape) >> np.uint64(1)


# ---------------------------------------------------------------------------
# file formats


def write_matrix_binary(path, matrix: np.ndarray, labels: Optional[np.ndarray] = None) -> None:
    """Write the binary matrix format: uint32-LE (n, D) header, float32 rows
    in row-major order, then int32 labels when given."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    n, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(np.asarray([n, d], dtype="<u4").tobytes())
        fh.write(matrix.astype("<f4").tobytes())
        if labels is not None:
            labels = np.ascontiguousarray(labels, dtype="<i4")
            if labels.shape != (n,):
                raise ValueError("labels must have one entry per row")
            fh.write(labels.tobytes())


def read_matrix_binary(path, with_labels: bool):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header")
    n, d = (int(x) for x in np.frombuffer(raw[:8], dtype="<u4"))
    feat_bytes = 4 * n * d
    expected = 8 + feat_bytes + (4 * n if with_labels else 0)
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for n={n}, D={d}, found {len(raw)}")
    matrix = np.frombuffer(raw[8 : 8 + feat_bytes], dtype="<f4").reshape(n, d).astype(np.float64)
    if not with_labels:
        return matrix
    labels = np.frombuffer(raw[8 + feat_bytes :], dtype="<i4").astype(np.int64)
    return matrix, labels


def write_dataset_csv(path, features: np.ndarray, labels: np.ndarray, header: bool = True) -> None:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = features.shape
    with open(path, "w") as fh:
        if header:
            fh.write(",".join([f"x{j}" for j in range(d)] + ["label"]) + "\n")
        for i in range(n):
            fh.write(",".join(repr(v) for v in features[i].tolist()) + f",{labels[i]}\n")


def _parse_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    start = 0
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        start = 1  # header row
    rows = []
    labels = []
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise ValueError(f"{path}: need at least one feature column plus a label")
        elif len(cells) != width:
            raise ValueError(f"{path}: row {lineno} has {len(cells)} columns, expected {width}")
        vals = []
        for col, cell in enumerate(cells[:-1]):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {lineno}, column {col}: not a number: {cell!r}")
            if not np.isfinite(v):
                raise ValueError(f"{path}: row {lineno}, column {col}: non-finite feature value")
            vals.append(v)
        lab_cell = cells[-1]
        try:
            lab = float(lab_cell)
        except ValueError:
            raise ValueError(f"{path}: row {lineno}: label is not a number: {lab_cell!r}")
        if not np.isfinite(lab) or abs(lab - round(lab)) > 1e-9:
            raise ValueError(f"{path}: row {lineno}: label {lab_cell!r} is not an integer code")
        rows.append(vals)
        labels.append(int(round(lab)))
    return np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def class_codes(labels) -> np.ndarray:
    """Labels as int64 class codes; a non-finite or non-integral label raises, naming its row."""
    labels = np.asarray(labels)
    if labels.dtype.kind in "biu":
        return labels.astype(np.int64, copy=False)
    codes = labels.astype(np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails the test below
        bad = np.flatnonzero(~(np.abs(codes - np.round(codes)) <= 1e-9))
    if bad.size:
        raise ValueError(f"label at row {bad[0]} is {float(codes.flat[bad[0]])!r}, not an integer class code")
    return np.round(codes).astype(np.int64)


def dataset_from_arrays(
    features: np.ndarray,
    labels: np.ndarray,
    val_fraction: float = 0.2,
    seed: int = 0,
    standardise: bool = True,
) -> LabeledDataset:
    """Split raw arrays into train/validation and standardise by train stats.

    The validation split takes floor(n * val_fraction) rows chosen by a seeded
    shuffle; standardisation uses the train split's mean and per-feature
    standard deviation (features with zero spread are left unscaled).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = class_codes(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels must align")
    if not np.isfinite(features).all():
        bad = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(f"non-finite feature at row {bad[0]}, column {bad[1]}")
    n = features.shape[0]
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    n_val = int(np.floor(n * val_fraction))
    if n_val < 1 or n - n_val < 1:
        raise ValueError(f"val_fraction={val_fraction} leaves an empty split for n={n}")
    perm = RngStream(seed, "dataset-split").generator().permutation(n)
    train_idx, val_idx = perm[n_val:], perm[:n_val]
    train_X, train_y = features[train_idx], labels[train_idx]
    val_X, val_y = features[val_idx], labels[val_idx]
    for name, ys in (("train", train_y), ("validation", val_y)):
        if np.unique(ys).size < 2:
            raise ValueError(f"{name} split contains fewer than two classes")
    if standardise:
        mean = train_X.mean(axis=0)
        std = train_X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        train_X = (train_X - mean) / std
        val_X = (val_X - mean) / std
    else:
        mean = np.zeros(features.shape[1])
        std = np.ones(features.shape[1])
    num_classes = int(max(train_y.max(), val_y.max())) + 1
    return LabeledDataset(
        features=train_X,
        labels=train_y,
        val_features=val_X,
        val_labels=val_y,
        num_classes=num_classes,
        feature_mean=mean,
        feature_std=std,
    )


def load_dataset(path, format: str = "csv", val_fraction: float = 0.2, seed: int = 0) -> LabeledDataset:
    """Load a labelled dataset file and split it.

    :param path: dataset file
    :param format: "csv" (feature columns + integer label column, optional
        header) or "binary" (uint32-LE (n, D) header, float32 rows, int32
        labels)
    :param val_fraction: fraction of rows moved to the validation split
        (floor(n * val_fraction) rows, seeded shuffle)
    :param seed: split seed
    """
    if format == "csv":
        features, labels = _parse_csv(path)
    elif format == "binary":
        features, labels = read_matrix_binary(path, with_labels=True)
        if not np.isfinite(features).all():
            bad = np.argwhere(~np.isfinite(features))[0]
            raise ValueError(f"{path}: non-finite feature at row {bad[0]}, column {bad[1]}")
    else:
        raise ValueError(f"unknown dataset format: {format!r} (expected 'csv' or 'binary')")
    return dataset_from_arrays(features, labels, val_fraction=val_fraction, seed=seed)
