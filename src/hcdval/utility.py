"""Bounded coalition payoff: learner utility plus a cosine dispersion bonus.

The payoff of a coalition S is

    v(S) = utility(S) + lambda * dispersion(S)

where utility(S) trains a small deterministic learner on the coalition's rows
and scores it on the validation split (empty or single-class coalitions score
chance level), and dispersion(S) is the mean cosine distance between
cross-label pairs inside S measured in the embedding space. Both terms are
bounded, so |v| <= B = 1 + lambda * d_max with d_max = 2 for cosine.

With the nearest-centroid learner both terms depend on S only through
per-class sufficient statistics: counts, feature sums, sums of unit
embedding rows and counts of nonzero-norm rows. ``_nearest_centroid_utility``
and ``_dispersion_from_stats`` score coalitions from those statistics, one row
per coalition; the one-coalition functions below call them with a single row,
and ``CharacteristicFn.evaluate_coalitions`` with many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import EMPTY_SET, LabeledDataset, PointSet, coalition_key

METRICS = ("accuracy", "balanced_accuracy", "auc")
LEARNERS = ("nearest_centroid", "ridge_logistic")

D_MAX = 2.0  # largest cosine distance between any two embedding rows

# Batched scoring works in chunks: the (rows, points) membership matrix, the
# (groups, points) one-hot matrix and the (rows, n_val, C, D) distance
# temporary stay within these element counts, whatever the number of players.
_MEMBER_BUDGET = 1 << 20
_ONEHOT_BUDGET = 1 << 17
_DISTANCE_BUDGET = 1 << 15


def chance_level(metric: str, num_classes: int) -> float:
    """Score of an uninformed predictor: 0.5 AUC, 1/num_classes otherwise."""
    if metric == "auc":
        return 0.5
    return 1.0 / num_classes


def _fit_ridge_logistic(X: np.ndarray, y: np.ndarray, num_classes: int,
                        steps: int = 200, lr: float = 0.1, ridge: float = 1e-3):
    n, d = X.shape
    W = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(steps):
        logits = X @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        err = (p - onehot) / n
        W -= lr * (err.T @ X + ridge * W)
        b -= lr * err.sum(axis=0)
    return W, b


def _predict_ridge_logistic(model, val_X: np.ndarray):
    W, b = model
    logits = val_X @ W.T + b
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    pred = np.argmax(p, axis=1)
    score = p[:, 1] if W.shape[0] == 2 else None
    return pred, score, np.arange(W.shape[0])


def binary_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC with tie-averaged ranks; labels must be 0/1."""
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


def _score(metric: str, pred, score, val_y: np.ndarray, num_classes: int) -> float:
    if metric == "accuracy":
        return float(np.mean(pred == val_y))
    if metric == "balanced_accuracy":
        recalls = []
        for c in np.unique(val_y):
            mask = val_y == c
            recalls.append(float(np.mean(pred[mask] == c)))
        return float(np.mean(recalls))
    if metric == "auc":
        if score is None:
            return 0.5
        return binary_auc(np.asarray(score, dtype=np.float64), val_y)
    raise ValueError(f"unknown metric {metric!r}")


def _group_sums(values: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Sums of the rows of ``values`` per group id: one-hot matmuls over chunks of groups."""
    out = np.empty((n_groups, values.shape[1]))
    step = max(1, _ONEHOT_BUDGET // max(1, groups.size))
    for start in range(0, n_groups, step):
        ids = np.arange(start, min(start + step, n_groups))
        out[ids] = (groups == ids[:, None]).astype(np.float64) @ values
    return out


def _unit_rows(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (last axis) scaled to unit norm (zero-norm rows stay zero), plus the nonzero-norm flags."""
    norms = np.linalg.norm(Z, axis=-1)
    nonzero = norms > 0.0
    unit = np.zeros_like(Z)
    unit[nonzero] = Z[nonzero] / norms[nonzero, None]
    return unit, nonzero


def _pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """binary_auc of every row of ``scores``.

    Counts positive-over-negative wins plus half the ties, which is the same
    half-integer as binary_auc's rank sum, over the same product, so the two
    agree exactly.
    """
    pos = scores[:, labels == 1][:, :, None]
    neg = scores[:, labels != 1][:, None, :]
    n_pairs = pos.shape[1] * neg.shape[2]
    if n_pairs == 0:
        return np.full(scores.shape[0], 0.5)
    wins = (pos > neg).sum(axis=(1, 2)) + 0.5 * (pos == neg).sum(axis=(1, 2))
    return wins / n_pairs


def _nearest_centroid_utility(
    counts: np.ndarray,
    sums: np.ndarray,
    val_X: np.ndarray,
    val_y: np.ndarray,
    metric: str,
    chance: float,
) -> np.ndarray:
    """Nearest-centroid validation score of coalitions given by class statistics.

    :param counts: (R, C) class counts of each coalition row
    :param sums: (R, C, D) class feature sums of each coalition row
    :returns: (R,) scores; rows with fewer than two classes, or a non-finite
        score, get ``chance``

    A class absent from a row has no centroid (an infinite distance), so the
    argmin picks the lowest present class on ties, as a model fitted on the
    present classes alone does. The binary AUC score is the margin of the
    class-1 centroid over the class-0 centroid.
    """
    present = counts > 0
    ok = present.sum(axis=1) >= 2
    if not ok.all():
        out = np.full(counts.shape[0], chance)
        if ok.any():
            out[ok] = _nearest_centroid_utility(counts[ok], sums[ok], val_X, val_y, metric, chance)
        return out
    centroids = sums / np.maximum(counts, 1.0)[:, :, None]
    d2 = ((val_X[None, :, None, :] - centroids[:, None, :, :]) ** 2).sum(axis=3)
    if not present.all():
        d2 = np.where(present[:, None, :], d2, np.inf)
    if metric == "auc":
        scores = _pairwise_auc(np.sqrt(d2[:, :, 0]) - np.sqrt(d2[:, :, 1]), val_y)
    else:
        pred = d2.argmin(axis=2)
        if metric == "accuracy":
            scores = (pred == val_y).sum(axis=1) / val_y.size
        else:
            recalls = [
                ((pred == c) & (val_y == c)).sum(axis=1) / np.count_nonzero(val_y == c)
                for c in np.unique(val_y)
            ]
            scores = np.stack(recalls, axis=1).mean(axis=1)
    return np.where(np.isfinite(scores), scores, chance)


def _dispersion_from_stats(
    counts: np.ndarray, unit_sums: np.ndarray, nonzero: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-label cosine distance of coalitions given by class statistics.

    :param counts: (R, C) class counts
    :param unit_sums: (R, C, d) class sums of unit embedding rows
    :param nonzero: (R, C) class counts of nonzero-norm embedding rows
    :returns: (R,) values and (R,) cross-label pair counts; rows without a
        cross-label pair get value 0

    Class-wise unit-vector sums turn the pairwise dot-product sum into a few
    d-dimensional dots; pairs involving a zero-norm row count as distance 2.
    """
    total = counts.sum(axis=1)
    pair_count = 0.5 * (total * total - (counts * counts).sum(axis=1))
    m_total = nonzero.sum(axis=1)
    cross_nonzero = 0.5 * (m_total * m_total - (nonzero * nonzero).sum(axis=1))
    grand = unit_sums.sum(axis=1)
    dot_sum = 0.5 * ((grand * grand).sum(axis=1) - (unit_sums * unit_sums).sum(axis=2).sum(axis=1))
    dist_sum = 2.0 * (pair_count - cross_nonzero) + (cross_nonzero - dot_sum)
    values = np.where(pair_count > 0, dist_sum / np.maximum(pair_count, 1.0), 0.0)
    return values, pair_count


def coalition_utility(
    data: LabeledDataset,
    points: PointSet,
    metric: str = "accuracy",
    learner: str = "nearest_centroid",
    val_X: Optional[np.ndarray] = None,
    val_y: Optional[np.ndarray] = None,
) -> float:
    """Train the requested learner on the coalition's rows, score on validation.

    Coalitions that cannot produce a discriminative model (empty, or carrying
    fewer than two distinct labels) score chance level, as does a learner that
    fails numerically. The nearest-centroid learner is scored from the
    coalition's class counts and feature sums (``_nearest_centroid_utility``).
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if learner not in LEARNERS:
        raise ValueError(f"unknown learner {learner!r}")
    if val_X is None:
        val_X, val_y = data.val_features, data.val_labels
    idx = points.indices
    if idx.size and idx[-1] >= data.n:
        raise IndexError(f"point index {int(idx[-1])} out of range for n={data.n}")
    chance = chance_level(metric, data.num_classes)
    if idx.size == 0:
        return chance
    X, y = data.features[idx], data.labels[idx]
    if np.unique(y).size < 2:
        return chance
    try:
        if learner == "nearest_centroid":
            stats = _group_sums(np.column_stack([np.ones(idx.size), X]), y, data.num_classes)
            return float(_nearest_centroid_utility(stats[None, :, 0], stats[None, :, 1:], val_X, val_y, metric, chance)[0])
        model = _fit_ridge_logistic(X, y, data.num_classes)
        if not (np.isfinite(model[0]).all() and np.isfinite(model[1]).all()):
            return chance
        pred, score, _ = _predict_ridge_logistic(model, val_X)
        out = _score(metric, pred, score, val_y, data.num_classes)
    except FloatingPointError:
        return chance
    if not np.isfinite(out):
        return chance
    return float(out)


@dataclass(frozen=True)
class DispersionResult:
    value: float
    pair_count: int


def normalized_dispersion(
    embedding_vectors: np.ndarray, labels: np.ndarray, points: PointSet
) -> DispersionResult:
    """Mean cosine distance over cross-label pairs inside the coalition.

    The mean divides by max(1, pair count), so coalitions with no cross-label
    pair (empty, singleton, single-class) get value 0. A zero-norm embedding
    row is treated as lying at the maximum cosine distance (2) from every
    other row.
    """
    idx = points.indices
    if idx.size < 2:
        return DispersionResult(0.0, 0)
    y = labels[idx]
    class_counts = np.bincount(y)
    if np.count_nonzero(class_counts) < 2:
        return DispersionResult(0.0, 0)
    unit, nonzero = _unit_rows(embedding_vectors[idx])
    stats = _group_sums(np.column_stack([np.ones(idx.size), unit, nonzero]), y, class_counts.size)
    values, pairs = _dispersion_from_stats(stats[None, :, 0], stats[None, :, 1:-1], stats[None, :, -1])
    return DispersionResult(float(values[0]), int(pairs[0]))


class CharacteristicFn:
    """Memoised bounded payoff v(S) = utility(S) + lambda * dispersion(S).

    :param dataset: the labelled dataset being valued
    :param embedding: embedding rows aligned with the train split (an
        EmbeddingMatrix or a raw (n, d) array)
    :param lam: dispersion weight lambda >= 0
    :param metric: "accuracy" | "balanced_accuracy" | "auc" (binary only)
    :param learner: "nearest_centroid" | "ridge_logistic"

    Payoffs are cached by ``coalition_key``, a 16-byte BLAKE2b digest of
    the sorted index array (16 bytes per coalition, on the assumption that
    no two coalitions collide in 128 bits); ``evaluations`` counts cache
    misses only. Evaluation is deterministic: both learners are closed-form
    or fixed-step full-batch, so no RNG is consumed.

    With the nearest-centroid learner (``batched``), ``evaluate_coalitions``
    scores whole batches of coalitions over disjoint point blocks from
    per-block class statistics, through the same cache and checks.
    """

    def __init__(
        self,
        dataset: LabeledDataset,
        embedding,
        lam: float = 0.5,
        metric: str = "accuracy",
        learner: str = "nearest_centroid",
    ):
        vectors = getattr(embedding, "vectors", embedding)
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != dataset.n:
            raise ValueError("embedding rows must align with the train split")
        if lam < 0:
            raise ValueError("lambda must be non-negative")
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        if learner not in LEARNERS:
            raise ValueError(f"unknown learner {learner!r}")
        if metric == "auc" and dataset.num_classes != 2:
            raise ValueError("auc metric requires a binary dataset")
        self.dataset = dataset
        self.vectors = vectors
        self.lam = float(lam)
        self.metric = metric
        self.learner = learner
        self._cache: dict[bytes, float] = {}
        self.evaluations = 0  # cache misses: actual payoff computations
        self.lookups = 0
        if self.batched:
            # per-point columns of the sufficient statistics: count, features
            # and, for the dispersion term, unit embedding and nonzero flag
            columns = [np.ones(dataset.n), dataset.features]
            if self.lam:
                unit, nonzero = _unit_rows(vectors)
                columns += [unit, nonzero]
            self._point_stats = np.column_stack(columns)

    @property
    def batched(self) -> bool:
        """Whether ``evaluate_coalitions`` is available (nearest-centroid learner)."""
        return self.learner == "nearest_centroid"

    @property
    def d_max(self) -> float:
        return D_MAX

    @property
    def B(self) -> float:
        """Payoff bound: |v(S)| <= 1 + lambda * d_max."""
        return 1.0 + self.lam * D_MAX

    def empty_value(self) -> float:
        return self.evaluate(EMPTY_SET)

    def base_utility(self, points: PointSet) -> float:
        return coalition_utility(self.dataset, points, self.metric, self.learner)

    def normalized_dispersion(self, points: PointSet) -> DispersionResult:
        return normalized_dispersion(self.vectors, self.dataset.labels, points)

    def evaluate(self, points: PointSet) -> float:
        self.lookups += 1
        key = points.key()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        value = self.base_utility(points)
        if self.lam:
            value = value + self.lam * self.normalized_dispersion(points).value
        self._store(key, value)
        return value

    def _store(self, key: bytes, value: float) -> None:
        if not abs(value) <= self.B + 1e-12:
            raise AssertionError(f"payoff {value} escapes the bound B={self.B}")
        self._cache[key] = value
        self.evaluations += 1

    def evaluate_coalitions(self, blocks: Sequence[PointSet], rows: np.ndarray) -> np.ndarray:
        """Payoffs of coalitions given as 0/1 rows over disjoint point blocks.

        Row r is the union of the blocks j with ``rows[r, j]`` set. Every
        coalition is looked up in, and its payoff stored into, the cache that
        ``evaluate`` uses, with the same bound check; a coalition repeated
        within the batch counts as one miss. The misses are scored together:
        per-(block, class) counts and sums are formed once, one matmul of the
        miss rows against them gives every coalition's class statistics, and
        the whole validation split is predicted in one array pass per chunk
        of rows.
        """
        if not self.batched:
            raise ValueError(f"no batched payoff for learner {self.learner!r}")
        rows = np.asarray(rows, dtype=bool)
        points = np.concatenate([b.indices for b in blocks])
        owner = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        order = np.argsort(points)
        points, owner = points[order], owner[order]
        if np.any(points[1:] == points[:-1]):
            raise ValueError("coalition blocks must be disjoint")
        values = np.empty(rows.shape[0])
        misses: dict[bytes, list] = {}
        step = max(1, _MEMBER_BUDGET // max(1, points.size))
        for start in range(0, rows.shape[0], step):
            members = rows[start : start + step][:, owner]
            for r, selected in enumerate(members, start):
                key = coalition_key(points[selected])
                hit = self._cache.get(key)
                if hit is None:
                    misses.setdefault(key, []).append(r)
                else:
                    values[r] = hit
        self.lookups += rows.shape[0]
        if misses:
            first = [at[0] for at in misses.values()]
            scored = self._score_rows(points, owner, len(blocks), rows[first])
            for (key, at), value in zip(misses.items(), scored.tolist()):
                self._store(key, value)
                values[at] = value
        return values

    def _score_rows(self, points: np.ndarray, owner: np.ndarray, n_blocks: int, rows: np.ndarray) -> np.ndarray:
        data = self.dataset
        C = data.num_classes
        stats = _group_sums(self._point_stats[points], owner * C + data.labels[points], n_blocks * C)
        stats = stats.reshape(n_blocks, -1)
        val_X, val_y = data.val_features, data.val_labels
        D = val_X.shape[1]
        chance = chance_level(self.metric, C)
        out = np.empty(rows.shape[0])
        step = max(1, _DISTANCE_BUDGET // (val_y.size * C * D))
        for start in range(0, rows.shape[0], step):
            coalition = (rows[start : start + step].astype(np.float64) @ stats).reshape(-1, C, stats.shape[1] // C)
            counts = coalition[:, :, 0]
            value = _nearest_centroid_utility(counts, coalition[:, :, 1 : 1 + D], val_X, val_y, self.metric, chance)
            if self.lam:
                dispersion, _ = _dispersion_from_stats(counts, coalition[:, :, 1 + D : -1], coalition[:, :, -1])
                value = value + self.lam * dispersion
            out[start : start + step] = value
        return out
