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
per coalition. The per-point reference functions ``coalition_utility`` and
``normalized_dispersion`` call them with a single row; ``CharacteristicFn``
scores every coalition it caches in ``_score_rows``, whether ``evaluate`` asks
for one coalition or ``evaluate_coalitions`` for many.

The nearest-centroid prediction takes every squared distance from one GEMM,
|x|^2 - 2 x.mu + |mu|^2, and recomputes with the direct sum_k (x_k - mu_k)^2
the (row, validation point) pairs whose top-two gap is within a proven
rounding bound, so the argmin is certified equal to the direct formula's.
Apart from that GEMM, whose rounding the certificate absorbs, each row is
scored by elementwise arithmetic, and batched coalition statistics add block
statistics in a fixed order, so a coalition's payoff does not depend on which
other coalitions share its call.
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
# (groups, points) one-hot matrix and the (rows, n_val, C) distance array
# stay within these element counts, whatever the number of players. The auc
# metric keeps the direct (rows, n_val, C, D) difference temporary, so its
# chunks hold D times fewer rows. Payoffs do not depend on the chunking.
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


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """binary_auc of every row of ``scores``, from one sort per row.

    Each row's tie-averaged ranks are the mean of the first and last sorted
    position of their run of equal scores, as in binary_auc. The rank sum of
    the positives is a sum of half-integers, exact in any order, so the two
    agree bit for bit. Memory is O(rows * n_val), not O(rows * n_pos * n_neg).
    """
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return np.full(scores.shape[0], 0.5)
    order = np.argsort(scores, axis=1, kind="mergesort")
    ranked = np.take_along_axis(scores, order, axis=1)
    n = labels.size
    at = np.arange(n)
    starts = np.ones(ranked.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    ends = np.ones(ranked.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, at, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, at, n)[:, ::-1], axis=1)[:, ::-1]
    ranks = 0.5 * (first + last) + 1.0
    rank_sum = np.where(pos[order], ranks, 0.0).sum(axis=1)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _direct_sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """sum_k (x_k - mu_ck)^2 for x (..., D) against centroids (..., C, D): (..., C)."""
    return ((x[..., None, :] - centroids) ** 2).sum(axis=-1)


# Certified argmin. Both formulas score the same (computed) centroids mu, so
# let d_c = |x - mu_c|^2 exactly, u = 2^-53 and gamma_n = n u / (1 - n u).
# A dot product of D terms errs by at most gamma_D * sum_k |a_k b_k| in any
# summation order, with or without FMA (Higham, "Accuracy and Stability of
# Numerical Algorithms", 2nd ed., sec. 3.1), so with no overflow or underflow:
# - direct, sum_k (x_k - mu_ck)^2: one rounded difference, one rounded square
#   and D - 1 additions of non-negative terms per class, so
#   |direct_c - d_c| <= gamma_{D+2} d_c <= gamma_{D+2} (|x| + |mu_c|)^2;
# - expanded, (|x|^2 - 2 x.mu_c) + |mu_c|^2: three dot products (doubling is
#   exact) and two additions, so |expanded_c - d_c| <= gamma_{D+2} (|x| + |mu_c|)^2.
# If the expanded values of classes a and b differ by more than these four
# errors together, the direct values order a and b the same way, strictly.
# With (|x| + |mu|)^2 <= 2 (|x|^2 + |mu|^2) and M = max_c |mu_c|^2 the four
# are at most 8 gamma_{D+2} (|x|^2 + M). The bound takes 9 (D + 2) u times
# the computed |x|^2 + M, which also covers the rounding of the norms, the gap
# and the bound while (D + 2) u < 1e-3. Underflow adds at most half a
# subnormal spacing per product (twice that for the doubled x.mu), 5 D
# spacings over the four values, so 8 D spacings cover them. While
# |x|^2 + M < 2^1019 no step of either formula overflows (each is at most
# about 2 (|x|^2 + M)); above that, or for a NaN, the bound is infinite. A
# pair whose gap is not above the bound (NaN gaps included) is scored by the
# direct formula.
_GAP_ULPS = 9.0 * (np.finfo(np.float64).eps / 2.0)
_GAP_SPACINGS = 8.0 * np.finfo(np.float64).smallest_subnormal
_GAP_SCALE_LIMIT = 2.0**1019


def _nearest_centroids(centroids: np.ndarray, present: np.ndarray, val_X: np.ndarray) -> np.ndarray:
    """(R, n_val) class of the present centroid nearest to each validation point.

    :param centroids: (R, C, D) class centroids of each row; every row has at
        least two present classes
    :param present: (R, C) which classes the row holds

    Equals the argmin of the direct squared distances (absent classes at
    infinity, ties to the lowest class) bit for bit: one GEMM gives every
    expanded distance, and the pairs whose top-two gap is within the
    rounding bound above are recomputed with the direct formula.
    """
    R, C, D = centroids.shape
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing pairs take the direct formula
        xx = np.einsum("vk,vk->v", val_X, val_X)
        mm = np.einsum("rck,rck->rc", centroids, centroids)
        xm = (centroids.reshape(R * C, D) @ val_X.T).reshape(R, C, -1)
        d2 = (xx - 2.0 * xm) + mm[:, :, None]
        if C == 2:  # both classes present: the gap is one subtraction
            diff = d2[:, 1] - d2[:, 0]
            pred = (diff < 0.0).astype(np.intp)
            gap = np.abs(diff)
        else:
            if not present.all():
                d2 = np.where(present[:, :, None], d2, np.inf)
            pred = d2.argmin(axis=1)
            two = np.partition(d2, 1, axis=1)
            gap = two[:, 1] - two[:, 0]
        scale = xx + mm.max(axis=1)[:, None]
        bound = np.where(scale < _GAP_SCALE_LIMIT, ((D + 2) * _GAP_ULPS) * scale + D * _GAP_SPACINGS, np.inf)
    r, v = np.nonzero(~(gap > bound))
    if r.size:
        direct = _direct_sq_distances(val_X[v], centroids[r])
        if not present.all():
            direct = np.where(present[r], direct, np.inf)
        pred[r, v] = direct.argmin(axis=1)
    return pred


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
    present classes alone does. The argmin is certified (``_nearest_centroids``).
    The binary AUC score is the margin of the class-1 centroid over the
    class-0 centroid, from the direct (R, n_val, C, D) distance temporary.
    """
    present = counts > 0
    ok = present.sum(axis=1) >= 2
    if not ok.all():
        out = np.full(counts.shape[0], chance)
        if ok.any():
            out[ok] = _nearest_centroid_utility(counts[ok], sums[ok], val_X, val_y, metric, chance)
        return out
    centroids = sums / np.maximum(counts, 1.0)[:, :, None]
    if metric == "auc":
        d2 = _direct_sq_distances(val_X[None], centroids[:, None])
        if not present.all():
            d2 = np.where(present[:, None, :], d2, np.inf)
        scores = _rank_auc(np.sqrt(d2[:, :, 0]) - np.sqrt(d2[:, :, 1]), val_y)
    else:
        pred = _nearest_centroids(centroids, present, val_X)
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

    ``evaluate`` scores one coalition, ``evaluate_coalitions`` a batch of
    coalitions over disjoint point blocks; both go through one cache, one
    bound check and one scorer, ``_score_rows``, which ``evaluate`` calls
    with one row of one block. The nearest-centroid learner is scored from
    per-block class statistics and is batch-invariant: a coalition scored
    alone, inside any batch or in any chunk gives the same bytes, and its
    argmin is certified to equal the direct distance formula's. A payoff's
    last bits can still depend on how its coalition is split into blocks,
    which orders the statistics' sums; the cache keeps the first scoring.
    The ridge-logistic learner is fitted once per coalition.
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
        if learner == "nearest_centroid":
            # per-point columns of the sufficient statistics: count, features
            # and, for the dispersion term, unit embedding and nonzero flag
            columns = [np.ones(dataset.n), dataset.features]
            if self.lam:
                unit, nonzero = _unit_rows(vectors)
                columns += [unit, nonzero]
            self._point_stats = np.column_stack(columns)

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
        value = float(self._score_rows(points.indices, np.zeros(len(points), np.intp), 1, np.ones((1, 1), bool))[0])
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
        within the batch counts as one miss. The misses are scored together
        by ``_score_rows``: for the nearest-centroid learner, per-(block,
        class) counts and sums are formed once, each coalition's class
        statistics add its blocks' in block order, and the whole validation
        split is predicted in one array pass per chunk of rows.
        """
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
        """Payoffs of the rows of a 0/1 block matrix, blocks given by sorted ``points`` and their ``owner``."""
        if self.learner == "ridge_logistic":  # no sufficient statistics: one fit per row
            out = []
            for row in rows:
                coalition = PointSet._from_sorted(points[row[owner]])
                value = self.base_utility(coalition)
                if self.lam:
                    value = value + self.lam * self.normalized_dispersion(coalition).value
                out.append(value)
            return np.array(out, dtype=np.float64)
        data = self.dataset
        C = data.num_classes
        stats = _group_sums(self._point_stats[points], owner * C + data.labels[points], n_blocks * C)
        stats = stats.reshape(n_blocks, -1)
        val_X, val_y = data.val_features, data.val_labels
        D = val_X.shape[1]
        chance = chance_level(self.metric, C)
        out = np.empty(rows.shape[0])
        per_row = val_y.size * C * (D if self.metric == "auc" else 1)
        step = max(1, _DISTANCE_BUDGET // per_row)
        for start in range(0, rows.shape[0], step):
            chunk = rows[start : start + step]
            # selected blocks added in block order: no BLAS reduction whose
            # rounding depends on how many rows share the call
            coalition = np.zeros((chunk.shape[0], stats.shape[1]))
            for j in range(n_blocks):
                np.add(coalition, stats[j], out=coalition, where=chunk[:, j, None])
            coalition = coalition.reshape(-1, C, stats.shape[1] // C)
            counts = coalition[:, :, 0]
            value = _nearest_centroid_utility(counts, coalition[:, :, 1 : 1 + D], val_X, val_y, self.metric, chance)
            if self.lam:
                dispersion, _ = _dispersion_from_stats(counts, coalition[:, :, 1 + D : -1], coalition[:, :, -1])
                value = value + self.lam * dispersion
            out[start : start + step] = value
        return out
