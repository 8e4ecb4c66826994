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
for one coalition, ``evaluate_coalitions`` for the rows of one game or
``evaluate_games`` for those of several games at once.

The cache keys a coalition by a set hash (Zobrist hashing): each point index
has two fixed 64-bit splitmix64 words, and a coalition's 16-byte key is the
XOR of its points' words. A batch is keyed without listing its members, as
the XOR of its selected blocks' keys, in one array pass over all rows. Two
distinct coalitions share a key only when the words of their symmetric
difference XOR to zero, with probability 2^-128 per pair on the assumption
that distinct points' words behave as independent uniform words.

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
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .core import EMPTY_SET, LabeledDataset, PointSet, point_words, union

METRICS = ("accuracy", "balanced_accuracy", "auc")
LEARNERS = ("nearest_centroid", "ridge_logistic")

D_MAX = 2.0  # largest cosine distance between any two embedding rows

# Batched scoring works in chunks: the (groups, points) one-hot matrix and
# the (rows, n_val, C) distance array stay within these element counts,
# whatever the number of players. The auc metric keeps the direct
# (rows, n_val, C, D) difference temporary, so its chunks hold D times fewer
# rows. Payoffs do not depend on the chunking.
_ONEHOT_BUDGET = 1 << 17
_DISTANCE_BUDGET = 1 << 15

_KEY = np.dtype((np.void, 16))  # a coalition_key as one array element


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
    return float(_rank_auc(scores[None], labels)[0])


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
    """Rank-based AUC of every row of ``scores`` against 0/1 labels, from one sort per row.

    Each row's tie-averaged ranks are the mean of the first and last sorted
    position of their run of equal scores (NaN scores sort last, each in a
    run of its own). The rank sum of the positives is a sum of half-integers,
    exact in any order. Memory is O(rows * n_val), not O(rows * n_pos * n_neg).
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
        # (|x|^2 - 2 x.mu) + |mu|^2, formed in place: negating and doubling
        # are exact and IEEE addition commutes, so the bits are the same
        d2 = (centroids.reshape(R * C, D) @ val_X.T).reshape(R, C, -1)
        d2 *= -2.0
        d2 += xx
        d2 += mm[:, :, None]
        if C == 2:  # both classes present: the gap is one subtraction
            gap = d2[:, 1] - d2[:, 0]
            del d2
            pred = (gap < 0.0).astype(np.intp)
            np.abs(gap, out=gap)
        else:
            if not present.all():
                d2 = np.where(present[:, :, None], d2, np.inf)
            pred = d2.argmin(axis=1)
            two = np.partition(d2, 1, axis=1)
            gap = two[:, 1] - two[:, 0]
        bound = xx + mm.max(axis=1)[:, None]
        overflows = ~(bound < _GAP_SCALE_LIMIT)
        bound *= (D + 2) * _GAP_ULPS
        bound += D * _GAP_SPACINGS
        bound[overflows] = np.inf
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


def _block_key_table(blocks: Sequence[Sequence[PointSet]], width: int, words: Callable) -> np.ndarray:
    """(games, width, 2) uint64 set-hash keys of every game's blocks, zero past its last block.

    A block's key is the XOR of its points' words (``coalition_key``; the
    payoff's ``words(indices)`` gives them), read off a running XOR over all
    blocks' points. Raises ValueError when two blocks of one game share a point.
    """
    counts = [len(game_blocks) for game_blocks in blocks]
    flat = [b for game_blocks in blocks for b in game_blocks]
    sizes = np.array([len(b) for b in flat], dtype=np.intp)
    points = np.concatenate([b.indices for b in flat])
    block_game = np.repeat(np.arange(len(blocks)), counts)
    # points offset by their game: one sort puts a point repeated within a game next to itself
    in_game = np.repeat(block_game, sizes) * (int(points.max(initial=0)) + 1) + points
    in_game.sort()
    if (in_game[1:] == in_game[:-1]).any():
        raise ValueError("coalition blocks must be disjoint")
    running = np.zeros((points.size + 1, 2), np.uint64)
    np.bitwise_xor.accumulate(words(points), axis=0, out=running[1:])
    ends = sizes.cumsum()
    slot = np.arange(sizes.size) - np.repeat(list(accumulate(counts[:-1], initial=0)), counts)  # within its game
    table = np.zeros((len(blocks), width, 2), np.uint64)
    table[block_game, slot] = running[ends] ^ running[ends - sizes]
    return table


def _distinct_rows(blocks: Sequence[Sequence[PointSet]], rows: Sequence[np.ndarray], words: Callable) -> tuple:
    """The distinct coalitions among the 0/1 block rows of several games.

    Returns their 16-byte keys (``bytes``), the game and the block row
    (padded with zeros to the widest game) of the first row that holds each,
    and for every row, games in order, the index of its coalition. A row's
    key is the XOR of its selected blocks' keys, built column by column, so
    no (rows, blocks, 2) temporary is formed.
    """
    width = max(len(game_blocks) for game_blocks in blocks)
    n_rows = [game_rows.shape[0] for game_rows in rows]
    row_game = np.repeat(np.arange(len(blocks)), n_rows)
    member = np.zeros((row_game.size, width), bool)
    for start, game_rows in zip(accumulate(n_rows, initial=0), rows):
        member[start : start + game_rows.shape[0], : game_rows.shape[1]] = game_rows
    table = _block_key_table(blocks, width, words)
    keys = np.zeros((row_game.size, 2), np.uint64)
    for j in range(width):
        np.bitwise_xor(keys, table[row_game, j], out=keys, where=member[:, j, None])
    distinct, first, inverse = np.unique(keys.view(_KEY).ravel(), return_index=True, return_inverse=True)
    return distinct.tolist(), row_game[first], member[first], inverse


class CharacteristicFn:
    """Memoised bounded payoff v(S) = utility(S) + lambda * dispersion(S).

    :param dataset: the labelled dataset being valued
    :param embedding: embedding rows aligned with the train split (an
        EmbeddingMatrix or a raw (n, d) array)
    :param lam: dispersion weight lambda >= 0
    :param metric: "accuracy" | "balanced_accuracy" | "auc" (binary only)
    :param learner: "nearest_centroid" | "ridge_logistic"

    Payoffs are cached by ``coalition_key``, a 16-byte XOR set hash of the
    coalition's points (16 bytes per coalition, on the assumption that the
    points' splitmix64 words behave as independent uniform words, so two
    distinct coalitions collide with probability 2^-128);
    ``evaluations`` counts cache misses only. Evaluation is deterministic:
    both learners are closed-form or fixed-step full-batch, so no RNG is
    consumed.

    ``evaluate`` scores one coalition, ``evaluate_games`` the coalition rows
    of several games over disjoint point blocks, and
    ``evaluate_coalitions`` those of one game; all go through one cache, one
    bound check and one scorer, ``_score_rows``, which ``evaluate`` calls
    with one row of one block. The nearest-centroid learner is scored from
    per-block class statistics and is batch-invariant: a coalition scored
    alone, inside any batch or game, or in any chunk gives the same bytes,
    and its argmin is certified to equal the direct distance formula's. A
    payoff's last bits can still depend on how its coalition is split into
    blocks, which orders the statistics' sums; the cache keeps the first
    scoring.
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
        self._words = np.zeros((0, 2), np.uint64)  # point_words of points 0, 1, ..., filled on demand
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

    def _point_words(self, indices: np.ndarray) -> np.ndarray:
        """``point_words(indices)``, read from this payoff's table of point words.

        The table covers the dataset once a lookup needs it. A payoff over a
        grown corpus, handed the table by a stream step, appends the words of
        the new points. Single lookups and batched ones both read it.
        """
        if indices.size and indices.max() >= self._words.shape[0]:
            grown = np.arange(self._words.shape[0], self.dataset.n)
            self._words = np.concatenate([self._words, point_words(grown)])
        return self._words[indices]

    def _key(self, points: PointSet) -> bytes:
        """``points.key()``: the XOR of the points' rows of the word table."""
        return np.bitwise_xor.reduce(self._point_words(points.indices), axis=0).tobytes()

    def evaluate(self, points: PointSet) -> float:
        self.lookups += 1
        key = self._key(points)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        value = self._score_rows([[points]], np.zeros(1, np.intp), np.ones((1, 1), bool))
        self._store([key], value)
        return float(value[0])

    def _store(self, keys: list, values: np.ndarray) -> None:
        """Cache freshly scored payoffs once every one of them is within the bound."""
        bad = ~(np.abs(values) <= self.B + 1e-12)
        if bad.any():
            raise AssertionError(f"payoff {float(values[bad][0])} escapes the bound B={self.B}")
        self._cache.update(zip(keys, values.tolist()))
        self.evaluations += len(keys)

    def evaluate_coalitions(self, blocks: Sequence[PointSet], rows: np.ndarray) -> np.ndarray:
        """Payoffs of coalitions given as 0/1 rows over disjoint point blocks.

        Row r is the union of the blocks j with ``rows[r, j]`` set. This is
        the one-game case of ``evaluate_games``.
        """
        return self.evaluate_games([(blocks, rows)])[0]

    def evaluate_games(self, games: Sequence[tuple]) -> list:
        """Payoffs of several coalition games' rows in one call: one (R_g,) array per game.

        Game g is a pair (blocks, rows): disjoint point blocks, and an
        (R_g, K_g) 0/1 matrix whose row r is the union of the blocks j with
        ``rows[r, j]`` set; the blocks of different games may overlap. All
        rows are keyed in one pass: a block's key is the XOR of its points'
        words and a row's the XOR of its selected blocks' keys, which is the
        ``coalition_key`` of its union however a game splits it. Each
        distinct key is looked up once in the cache that ``evaluate`` uses,
        so a coalition repeated within the call, in one game or in several,
        counts as one miss and is scored with the blocks of the first game
        and row that hold it. The misses are scored together by
        ``_score_rows``, bound-checked, and stored. Each coalition adds its
        own game's blocks in block order, so every payoff equals a one-game
        call's bit for bit.
        """
        if not games:
            return []
        blocks = [list(b) for b, _ in games]
        rows = [np.asarray(r, dtype=bool) for _, r in games]
        for game_blocks, game_rows in zip(blocks, rows):
            if game_rows.ndim != 2 or game_rows.shape[1] != len(game_blocks):
                raise ValueError(f"{len(game_blocks)} blocks need an (R, {len(game_blocks)}) row matrix, got {game_rows.shape}")
        keys, game, member, inverse = _distinct_rows(blocks, rows, self._point_words)
        cached = self._cache.get
        values = np.array([cached(key, np.nan) for key in keys])  # stored payoffs are never NaN
        self.lookups += inverse.size
        missed = np.flatnonzero(np.isnan(values))
        if missed.size:
            scored = self._score_rows(blocks, game[missed], member[missed])
            self._store([keys[k] for k in missed.tolist()], scored)
            values[missed] = scored
        values = values[inverse]
        offsets = list(accumulate((game_rows.shape[0] for game_rows in rows), initial=0))
        return [values[start:end] for start, end in zip(offsets, offsets[1:])]

    def _block_stats(self, games: Sequence[Sequence[PointSet]], width: int) -> np.ndarray:
        """(games, width, C * F) per-class statistics of each game's blocks, zero past its last block.

        A game of one-point blocks takes each point's ``_point_stats`` row in
        its class slot. That is what summing the game's points gives, exactly:
        the other terms are zeros, and their signs cannot reach a coalition's
        statistics, which add blocks onto +0.0. Any other game's blocks are
        summed by one ``_group_sums`` call over that game's sorted points, the
        call a one-game batch makes, so they round the same way.
        """
        labels = self.dataset.labels
        C = self.dataset.num_classes
        F = self._point_stats.shape[1]
        stats = np.zeros((len(games), width, C, F))
        single = []
        for g, blocks in enumerate(games):
            if all(len(b) == 1 for b in blocks):
                single.append(g)
                continue
            points = np.concatenate([b.indices for b in blocks])
            owner = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
            order = np.argsort(points)
            points, owner = points[order], owner[order]
            sums = _group_sums(self._point_stats[points], owner * C + labels[points], len(blocks) * C)
            stats[g, : len(blocks)] = sums.reshape(len(blocks), C, F)
        if single:
            g = np.repeat(single, [len(games[g]) for g in single])
            j = np.concatenate([np.arange(len(games[g])) for g in single])
            p = np.concatenate([b.indices for g in single for b in games[g]])
            stats[g, j, labels[p]] = self._point_stats[p]
        return stats.reshape(len(games), width, C * F)

    def _score_rows(self, games: Sequence[Sequence[PointSet]], game: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Payoffs of the rows of a 0/1 block matrix; row r selects blocks of ``games[game[r]]``."""
        if self.learner == "ridge_logistic":  # no sufficient statistics: one fit per row
            out = []
            for g, row in zip(game.tolist(), rows):
                coalition = union(games[g][j] for j in np.flatnonzero(row).tolist())
                value = self.base_utility(coalition)
                if self.lam:
                    value = value + self.lam * self.normalized_dispersion(coalition).value
                out.append(value)
            return np.array(out, dtype=np.float64)
        data = self.dataset
        C = data.num_classes
        stats = self._block_stats(games, rows.shape[1])
        val_X, val_y = data.val_features, data.val_labels
        D = val_X.shape[1]
        chance = chance_level(self.metric, C)
        out = np.empty(rows.shape[0])
        per_row = val_y.size * C * (D if self.metric == "auc" else 1)
        step = max(1, _DISTANCE_BUDGET // per_row)
        for start in range(0, rows.shape[0], step):
            chunk = rows[start : start + step]
            chunk_game = game[start : start + step]
            # selected blocks added in block order: no BLAS reduction whose
            # rounding depends on how many rows share the call
            coalition = np.zeros((chunk.shape[0], stats.shape[2]))
            for j in range(rows.shape[1]):
                np.add(coalition, stats[chunk_game, j], out=coalition, where=chunk[:, j, None])
            coalition = coalition.reshape(-1, C, stats.shape[2] // C)
            counts = coalition[:, :, 0]
            value = _nearest_centroid_utility(counts, coalition[:, :, 1 : 1 + D], val_X, val_y, self.metric, chance)
            if self.lam:
                dispersion, _ = _dispersion_from_stats(counts, coalition[:, :, 1 + D : -1], coalition[:, :, -1])
                value = value + self.lam * dispersion
            out[start : start + step] = value
        return out
