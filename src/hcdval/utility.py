"""Bounded coalition payoff: learner utility plus a cosine dispersion bonus.

The payoff of a coalition S is

    v(S) = utility(S) + lambda * dispersion(S)

where utility(S) trains a small deterministic learner on the coalition's rows
and scores it on the validation split (empty or single-class coalitions score
chance level), and dispersion(S) is the mean cosine distance between
cross-label pairs inside S measured in the embedding space. Both terms are
bounded, so |v| <= B = 1 + lambda * D_MAX with D_MAX = 2 for cosine.

With the nearest-centroid learner both terms depend on S only through
per-class sufficient statistics: counts, feature sums, sums of unit
embedding rows and counts of nonzero-norm rows. ``_nearest_centroid_utility``
and ``_dispersion_from_stats`` score coalitions from those statistics, one row
per coalition. The per-point reference functions ``coalition_utility`` and
``normalized_dispersion`` call them with a single row; ``CharacteristicFn``
scores every coalition it caches in ``_score_rows``, through
``evaluate_games``, which takes the coalition rows of one or more games at
once (``evaluate`` asks it for one coalition).

The cache keys a coalition by a set hash (Zobrist hashing): each point index
has two fixed 64-bit splitmix64 words, and a coalition's 16-byte key is the
XOR of its points' words. Two distinct coalitions share a key only when the
words of their symmetric difference XOR to zero, with probability 2^-128 per
pair on the assumption that distinct points' words behave as independent
uniform words. A payoff call keys its rows without listing their members, and
keys each distinct coalition pattern once. The call's blocks are laid out once
(``_Layout``), for the block keys, the disjointness check and the block
statistics. Each row gets one 64-bit code, its game's offset plus its block
bits; the codes are deduped first, so only one row of each distinct (game,
pattern) pair is keyed, as the XOR of its selected blocks' keys. The keys are
then deduped by sorting their first words, and by both words only when two
distinct keys share a first word.

The nearest-centroid prediction takes its distances from one GEMM. With two
classes it is the sign of the discriminant x.w + h, with w = -2 (mu_1 - mu_0)
and h = |mu_1|^2 - |mu_0|^2, from one (rows, D) @ (D, n_val) product, and
accuracy and balanced accuracy are counted straight from the signs. With
more classes each squared distance is |x|^2 - 2 x.mu + |mu|^2, from one
batched product. Either way the (row, validation point) pairs whose gap is
within a proven rounding bound are recomputed with the direct
sum_k (x_k - mu_k)^2, so the argmin is certified equal to the direct
formula's. Apart from that GEMM, whose rounding the certificate absorbs,
each row is scored by elementwise arithmetic. Block statistics are
sequential group sums (``_group_sums``) and a coalition adds its blocks'
statistics in block order, so a coalition's payoff depends neither on which
other coalitions share its call nor on the chunk budget.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import TEMP_BYTES, LabeledDataset, PointSet, point_words, union

METRICS = ("accuracy", "balanced_accuracy", "auc")
LEARNERS = ("nearest_centroid", "ridge_logistic")

D_MAX = 2.0  # largest cosine distance between any two embedding rows

# Batched scoring works in chunks: the largest float64 array a chunk's
# prediction forms, the (rows, n_val) gap of two classes, the (rows, n_val, C)
# distances of more or the auc metric's direct (rows, n_val, D) differences,
# stays within TEMP_BYTES (one row at least). Payoffs do not depend on the
# scoring chunks.

_KEY = np.dtype((np.void, 16))  # a coalition_key as one array element


def chance_level(metric: str, num_classes: int) -> float:
    """Score of an uninformed predictor: 0.5 AUC, 1/num_classes otherwise."""
    if metric == "auc":
        return 0.5
    return 1.0 / num_classes


def _fit_ridge_logistic(X: np.ndarray, y: np.ndarray, num_classes: int):
    """Softmax regression with an L2 ridge of 1e-3: 200 full-batch gradient steps of rate 0.1."""
    n, d = X.shape
    W = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(200):
        logits = X @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        err = (p - onehot) / n
        W -= 0.1 * (err.T @ X + 1e-3 * W)
        b -= 0.1 * err.sum(axis=0)
    return W, b


def _predict_ridge_logistic(model, val_X: np.ndarray):
    """(1, n_val) predicted classes and class-1 probabilities (None unless binary): one ``_metric_scores`` row."""
    W, b = model
    logits = val_X @ W.T + b
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return np.argmax(p, axis=1)[None], p[None, :, 1] if W.shape[0] == 2 else None


def _metric_scores(metric: str, pred, score, val_y: np.ndarray) -> np.ndarray:
    """(R,) validation scores of R predictors from their (R, n_val) predicted
    classes ``pred`` or, for auc, class-1 scores ``score``; ``metric`` is one of
    METRICS, which ``coalition_utility`` and ``CharacteristicFn`` check.

    A bool ``pred`` (two classes) predicts class 1 where it is set, and one
    product counts its class-1 predictions among each class's validation
    points. Accuracy and balanced accuracy are both read off the per-class
    counts of correct predictions.
    """
    if metric == "auc":
        if score is None:  # a model without class-1 scores
            return np.full(pred.shape[0], 0.5)
        return _rank_auc(score, val_y)
    sizes = np.bincount(val_y)
    classes = sizes.nonzero()[0]
    sizes = sizes[classes]
    if pred.dtype == bool:
        ones = pred.view(np.uint8) @ (val_y == classes[:, None]).T.astype(np.float64)
        hits = np.where(classes == 1, ones, sizes - ones)
    else:
        hits = np.stack([((pred == c) & (val_y == c)).sum(axis=1) for c in classes], axis=1)
    if metric == "accuracy":
        return hits.sum(axis=1) / val_y.size
    return (hits / sizes).mean(axis=1)


def _group_sums(values: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, F) float64 sums of the rows of the (m, F) ``values`` per group id in ``groups``.

    One ``np.bincount`` over the (group, column) bins adds each group's rows
    one after another, in row order, onto 0.0. So a group's sum depends on
    its own rows alone, not on the other groups of the call.
    """
    F = values.shape[1]
    bins = (groups * F)[:, None] + np.arange(F)
    sums = np.bincount(bins.ravel(), weights=values.ravel(), minlength=n_groups * F)
    return sums.astype(np.float64, copy=False).reshape(n_groups, F)  # bincount of no rows gives int zeros


def _unit_rows(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (last axis) scaled to unit norm (zero-norm rows stay zero), plus the nonzero-norm flags."""
    norms = np.linalg.norm(Z, axis=-1)
    nonzero = norms > 0.0
    unit = np.zeros_like(Z)
    unit[nonzero] = Z[nonzero] / norms[nonzero, None]
    return unit, nonzero


def _point_stat_rows(features: np.ndarray, vectors: np.ndarray, lam: float) -> np.ndarray:
    """Per-point columns of the sufficient statistics, one row per point: count,
    features and, for the dispersion term (``lam`` > 0), unit embedding and
    nonzero flag. Each row depends on its own point alone."""
    columns = [np.ones(features.shape[0]), features]
    if lam:
        columns += list(_unit_rows(vectors))
    return np.column_stack(columns)


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
# - expanded, (|x|^2 + x.(-2 mu_c)) + |mu_c|^2: three dot products (doubling is
#   exact) and two additions, so |expanded_c - d_c| <= gamma_{D+2} (|x| + |mu_c|)^2.
# If the expanded values of classes a and b differ by more than these four
# errors together, the direct values order a and b the same way, strictly.
# With (|x| + |mu|)^2 <= 2 (|x|^2 + |mu|^2) and M = max_c |mu_c|^2 the four
# are at most 8 gamma_{D+2} (|x|^2 + M).
# Two classes: the discriminant gap = x.w + h, with w = -2 (mu_1 - mu_0) and
# h = |mu_1|^2 - |mu_0|^2, equals d_1 - d_0 exactly, and class 1 is nearer
# when it is negative. Computed, w carries one rounding per entry (the
# difference; doubling is exact), so x.w errs by at most
# gamma_{D+1} sum_k 2 |x_k| (|mu_1k| + |mu_0k|) <= 2 gamma_{D+1} (|x|^2 + M);
# h errs by at most gamma_{D+1} (|mu_1|^2 + |mu_0|^2) <= 2 gamma_{D+1} M; and
# the final addition by u (|x.w| + |h|) plus second-order terms, under
# 4 u (|x|^2 + M). So the computed gap errs by at most about
# (2 gamma_{D+1} + 2 gamma_{D+1} + 4 u)(|x|^2 + M) = 4 (D + 2) u (|x|^2 + M),
# and the two direct values by at most 4 gamma_{D+2} (|x|^2 + M): together
# within the same 8 gamma_{D+2} (|x|^2 + M).
# The bound takes 9 (D + 2) u times the computed |x|^2 + M, which also covers
# the rounding of the norms, the gap and the bound while (D + 2) u < 1e-3.
# Underflow adds at most half a subnormal spacing per product (at most twice
# that for x.mu doubled, before or after rounding): 5 D spacings over the
# four expanded and direct values, and under 3 D over the discriminant (D / 2
# in x.w, D in the two norms of h) and the two direct values (D), so 8 D
# spacings cover either. While |x|^2 + M < 2^1019 no step of any formula
# overflows (each is at most about 3 (|x|^2 + M)); above that, or for a NaN,
# the bound is infinite. A pair whose gap is not above the bound (NaN gaps
# included) is scored by the direct formula.
# The K-centroid argmin (``_nearest``) tests this gap by a count: it subtracts
# the smallest expanded value, first, from every entry and certifies the pair
# when exactly K - 1 entries lie above the bound. fl(d - first) is
# non-decreasing in d, so the least entry other than the minimum's is
# fl(second - first), the gap itself: the count reaches K - 1 exactly when the
# gap is above the bound (the minimum's own entry is 0, or NaN, never above).
_GAP_ULPS = 9.0 * (np.finfo(np.float64).eps / 2.0)
_GAP_SPACINGS = 8.0 * np.finfo(np.float64).smallest_subnormal
_GAP_SCALE_LIMIT = 2.0**1019


def _gap_bound(scale: np.ndarray, D: int) -> np.ndarray:
    """The bound above for ``scale`` = the computed |x|^2 + M, formed in place in ``scale``."""
    overflows = ~(scale < _GAP_SCALE_LIMIT)
    scale *= (D + 2) * _GAP_ULPS
    scale += D * _GAP_SPACINGS
    scale[overflows] = np.inf
    return scale


@functools.lru_cache(maxsize=None)
def _count_weights(K: int) -> np.ndarray:
    """(2, K) rows that turn K 0/1 flags into their count and the sum of their indices; read-only, as it is shared."""
    weights = np.vstack((np.ones(K), np.arange(K, dtype=np.float64)))
    weights.flags.writeable = False
    return weights


def _uncertified(gap: np.ndarray, xx: np.ndarray, mm: np.ndarray, D: int) -> tuple:
    """(row, point) indices of the pairs whose gap is not above the bound above.

    :param gap: (R, m) non-negative gaps, NaN allowed
    :param xx: (R, m), (1, m) or (m,) computed squared norms of the points
    :param mm: (R, C) computed squared norms of each row's centroids

    The bound grows with the scale, and so does its computed value, so a row
    whose smallest gap is above the bound at its largest |x|^2 has every
    gap above its own bound; only the other rows form the (rows, m) bound.
    """
    M = mm.max(axis=1)
    check = (~(gap.min(axis=1) > _gap_bound(xx.max(axis=-1) + M, D))).nonzero()[0]
    if not check.size:
        return check, check
    scale = np.broadcast_to(xx, gap.shape)[check] + M[check, None]
    r, v = (~(gap[check] > _gap_bound(scale, D))).nonzero()
    return check[r], v


def _nearest(X: np.ndarray, xx: np.ndarray, centroids: np.ndarray, present: np.ndarray) -> np.ndarray:
    """(B, m) index of the present centroid of ``centroids[b]`` nearest to each row of ``X[b]``.

    :param X: (B, m, D) rows of each centroid set, or one (1, m, D) block
        that all B sets share
    :param xx: (B, m) or (1, m) squared norms of the rows
    :param centroids: (B, K, D)
    :param present: (B, K) which centroids each set holds

    Equals the argmin of the direct sum_k (x_k - c_k)^2, absent centroids at
    infinity and ties to the lower centroid, bit for bit. One batched GEMM in
    the (set, centroid, row) layout gives every expanded distance, so the
    minimum over the K centroids is K passes along rows. A pair is certified
    when all K - 1 of its other distances exceed the minimum by more than the
    bound above, which one (2, K) GEMM counts and locates; any other pair is
    scored by the direct formula.
    """
    B, K, D = centroids.shape
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing pairs take the direct formula
        mm = np.einsum("bkd,bkd->bk", centroids, centroids)
        d2 = (-2.0 * centroids) @ X.transpose(0, 2, 1)
        d2 += xx[:, None, :]
        d2 += mm[:, :, None]
        if not present.all():
            d2[~present] = np.inf
        d2 -= np.minimum.reduce(d2, axis=1)[:, None, :]
        np.greater(d2, _gap_bound(xx + mm.max(axis=1)[:, None], D)[:, None, :], out=d2)
    counts = _count_weights(K) @ d2  # (B, 2, m): entries above, sum of their indices
    assign = (K * (K - 1) // 2 - counts[:, 1]).astype(np.intp)
    uncertified = counts[:, 0] != K - 1
    if uncertified.any():
        b, r = uncertified.nonzero()
        rows = np.broadcast_to(X, (B,) + X.shape[1:])[b, r]
        direct = _direct_sq_distances(rows, centroids[b])
        assign[b, r] = np.where(present[b], direct, np.inf).argmin(axis=1)
    return assign


def _nearest_centroids(centroids: np.ndarray, present: np.ndarray, val_X: np.ndarray) -> np.ndarray:
    """(R, n_val) class of the present centroid nearest to each validation point.

    :param centroids: (R, C, D) class centroids of each row; every row has at
        least two present classes
    :param present: (R, C) which classes the row holds
    :returns: for C = 2, a bool array, set where class 1 is the nearer; for
        C > 2, the class index

    Equals the argmin of the direct squared distances (absent classes at
    infinity, ties to the lowest class) bit for bit. Two classes take the
    sign of the discriminant gap above from one (R, D) @ (D, n_val) GEMM;
    more classes take ``_nearest`` with the validation split as one shared
    block. Either way a pair whose gap is not above ``_gap_bound`` is scored
    by the direct formula.
    """
    C, D = centroids.shape[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing pairs take the direct formula
        xx = np.einsum("vk,vk->v", val_X, val_X)
        if C > 2:
            return _nearest(val_X[None], xx[None], centroids, present)
        mm = np.einsum("rck,rck->rc", centroids, centroids)
        w = centroids[:, 1] - centroids[:, 0]
        w *= -2.0
        gap = w @ val_X.T
        gap += (mm[:, 1] - mm[:, 0])[:, None]
        nearer = gap < 0.0
        np.abs(gap, out=gap)
        r, v = _uncertified(gap, xx, mm, D)
    if r.size:
        nearer[r, v] = _direct_sq_distances(val_X[v], centroids[r]).argmin(axis=1) == 1
    return nearer


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
    class-0 centroid, from one direct (R, n_val, D) difference temporary per
    class.
    """
    present = counts > 0
    ok = present.sum(axis=1) >= 2
    if not ok.all():
        out = np.full(counts.shape[0], chance)
        if ok.any():
            out[ok] = _nearest_centroid_utility(counts[ok], sums[ok], val_X, val_y, metric, chance)
        return out
    centroids = sums / np.maximum(counts, 1.0)[:, :, None]
    if metric == "auc":  # binary, so both classes are present
        far0, far1 = (np.sqrt(((val_X - centroids[:, c, None]) ** 2).sum(axis=-1)) for c in (0, 1))
        scores = _metric_scores(metric, None, far0 - far1, val_y)
    else:
        scores = _metric_scores(metric, _nearest_centroids(centroids, present, val_X), None, val_y)
    return np.where(np.isfinite(scores), scores, chance)


def _cross_pair_counts(counts: np.ndarray) -> np.ndarray:
    """(R,) cross-label pair counts of (R, C) class counts."""
    total = counts.sum(axis=1)
    return 0.5 * (total * total - (counts * counts).sum(axis=1))


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
    pair_count = _cross_pair_counts(counts)
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
    if metric == "auc" and data.num_classes != 2:
        raise ValueError("auc metric requires a binary dataset")
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
        out = float(_metric_scores(metric, *_predict_ridge_logistic(model, val_X), val_y)[0])
    except FloatingPointError:
        return chance
    return out if np.isfinite(out) else chance


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


class _Layout(NamedTuple):
    """The blocks of a payoff call's games, laid out once for keying, the disjointness check and scoring."""

    games: list  # each game's blocks (PointSets)
    width: int  # the most blocks of any game
    points: np.ndarray  # every block's points, games and blocks in order
    sizes: np.ndarray  # each block's number of points
    slots: np.ndarray  # each block's slot g * width + j: game g's block j


def _lay_out(games: Sequence[Sequence[PointSet]]) -> _Layout:
    """The ``_Layout`` of several games' blocks. Raises ValueError when two blocks of one game share a point."""
    counts = [len(blocks) for blocks in games]
    width = max(counts, default=0)
    arrays = [b.indices for blocks in games for b in blocks]
    sizes = np.array([a.size for a in arrays], dtype=np.intp)
    points = np.concatenate(arrays or [np.zeros(0, np.int64)])
    block_game = np.repeat(np.arange(len(games)), counts)
    within = np.arange(sizes.size) - np.repeat(list(accumulate(counts[:-1], initial=0)), counts)
    # points offset by their game: one sort puts a point repeated within a game next to itself
    in_game = np.repeat(block_game, sizes) * (int(points.max(initial=0)) + 1) + points
    in_game.sort()
    if (in_game[1:] == in_game[:-1]).any():
        raise ValueError("coalition blocks must be disjoint")
    return _Layout(list(games), width, points, sizes, block_game * width + within)


def _block_keys(layout: _Layout, words: Callable) -> np.ndarray:
    """(games * width + 1, 2) uint64 set-hash keys of the blocks by slot: zero in empty slots and in the last row.

    A block's key is the XOR of its points' words (``coalition_key``; the
    payoff's ``words(indices)`` gives them), read off a running XOR over all
    blocks' points.
    """
    running = np.zeros((layout.points.size + 1, 2), np.uint64)
    np.bitwise_xor.accumulate(words(layout.points), axis=0, out=running[1:])
    ends = layout.sizes.cumsum()
    table = np.zeros((len(layout.games) * layout.width + 1, 2), np.uint64)
    table[layout.slots] = running[ends] ^ running[ends - layout.sizes]
    return table


def _pattern_codes(member: np.ndarray, row_game: np.ndarray, widths: Sequence[int]):
    """One uint64 per block row, equal exactly for equal (game, pattern) pairs; None when they do not fit in one word.

    A row's code is its game's offset plus its block bits, bit j for block j:
    game g's codes fill [offset_g, offset_g + 2^K_g), which fits while the
    2^K_g of all games add up to at most 2^64.
    """
    offsets = list(accumulate((1 << K for K in widths), initial=0))
    if offsets[-1] > 1 << 64:
        return None
    codes = np.array(offsets[:-1], np.uint64)[row_game]
    for j in range(member.shape[1]):
        codes += member[:, j].astype(np.uint64) << np.uint64(j)
    return codes


def _distinct(words: np.ndarray, first_of: np.ndarray) -> tuple:
    """The distinct rows of an (N, W) uint64 array.

    Returns, for each distinct row, the index of one row that holds it and
    the least ``first_of`` over the rows that hold it, and for every row the
    index of its distinct row. Rows are sorted by their first word; only when
    two distinct rows share a first word are they sorted by every word.
    """
    if words.shape[0] < 2:  # nothing to dedupe: a one-coalition lookup
        every = np.arange(words.shape[0])
        return every, first_of[every], every
    order = np.argsort(words[:, 0])
    ranked = words.take(order, axis=0)  # take: far faster than fancy indexing of rows
    starts = np.ones(order.size, bool)
    np.not_equal(ranked[1:, 0], ranked[:-1, 0], out=starts[1:])
    tied = np.flatnonzero(~starts[1:])
    if (ranked[tied, 1:] != ranked[tied + 1, 1:]).any():
        order = np.lexsort(words.T[::-1])
        ranked = words.take(order, axis=0)
        starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    heads = np.flatnonzero(starts)
    inverse = np.empty(order.size, np.intp)
    inverse[order] = starts.cumsum() - 1
    return order[heads], np.minimum.reduceat(first_of[order], heads), inverse


def _distinct_rows(layout: _Layout, rows: Sequence[np.ndarray], words: Callable) -> tuple:
    """The distinct coalitions among the 0/1 block rows of several games.

    Returns their 16-byte keys (``bytes``), the game and the block row
    (padded with zeros to the widest game) of the first row that holds each,
    and for every row, games in order, the index of its coalition.

    Rows are deduped by ``_pattern_codes`` first (every row, if the codes do
    not fit in one word), so one row of each distinct (game, pattern) pair is
    keyed: the XOR of its selected blocks' keys, built column by column, so
    no (rows, blocks, 2) temporary is formed. The keys are then deduped by
    ``_distinct``; a coalition held by several (game, pattern) pairs is
    scored from the first row that holds it.
    """
    width = layout.width
    n_rows = [game_rows.shape[0] for game_rows in rows]
    row_game = np.repeat(np.arange(len(rows)), n_rows)
    member = np.zeros((row_game.size, width), bool)
    for start, game_rows in zip(accumulate(n_rows, initial=0), rows):
        member[start : start + game_rows.shape[0], : game_rows.shape[1]] = game_rows
    every = np.arange(row_game.size)
    codes = _pattern_codes(member, row_game, [game_rows.shape[1] for game_rows in rows])
    pattern, pattern_of = (every, every) if codes is None else _distinct(codes[:, None], every)[1:]
    slot, chosen = row_game[pattern] * width, member.take(pattern, axis=0)
    table = _block_keys(layout, words)
    keys = np.zeros((pattern.size, 2), np.uint64)
    for j in range(width):  # an unselected block reads the zero last row
        keys ^= table.take(np.where(chosen[:, j], slot + j, -1), axis=0)
    held, first, key_of = _distinct(keys, pattern)
    distinct = keys.take(held, axis=0).view(_KEY).ravel().tolist()
    return distinct, row_game[first], member.take(first, axis=0), key_of[pattern_of]


def _aligned_vectors(dataset: LabeledDataset, embedding) -> np.ndarray:
    """The embedding's rows (an EmbeddingMatrix or a raw array) as float64, one per train point."""
    vectors = np.ascontiguousarray(getattr(embedding, "vectors", embedding), dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] != dataset.n:
        raise ValueError("embedding rows must align with the train split")
    return vectors


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

    ``evaluate_games`` scores the coalition rows of one or more games over
    disjoint point blocks, through one cache, one bound check and one
    scorer, ``_score_rows``; ``evaluate`` scores one coalition as one row of
    one block of an ``evaluate_games`` call. The nearest-centroid
    learner is scored from per-block class statistics and is
    batch-invariant: a coalition scored alone, inside any batch or game, or
    in any chunk gives the same bytes, and its argmin is certified to equal
    the direct distance formula's. A payoff's last bits can still depend on
    how its coalition is split into blocks, which orders the statistics'
    sums; the cache keeps the first scoring.
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
        vectors = _aligned_vectors(dataset, embedding)
        if not 0 <= lam < np.inf:
            raise ValueError("lambda must be non-negative and finite")
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
            self._point_stats = _point_stat_rows(dataset.features, vectors, self.lam)

    @property
    def B(self) -> float:
        """Payoff bound: |v(S)| <= 1 + lambda * D_MAX."""
        return 1.0 + self.lam * D_MAX

    def grown(self, dataset: LabeledDataset, embedding) -> "CharacteristicFn":
        """This payoff over ``dataset``, a corpus grown from this one by appending points.

        The new payoff has the same settings and shares this one's cache and
        table of point words: both stay valid, since a point keeps its index.
        Its per-point statistics are this payoff's, followed by those of the
        appended points alone; each row depends on its own point only, so they
        equal a fresh payoff's bit for bit. It counts its own ``evaluations``
        and ``lookups``, from zero. A corpus that drops or edits a point, a
        class or a validation row raises ValueError.
        """
        old, n = self.dataset, self.dataset.n
        vectors = _aligned_vectors(dataset, embedding)
        same = [(dataset.features[:n], old.features), (dataset.labels[:n], old.labels), (vectors[:n], self.vectors),
                (dataset.val_features, old.val_features), (dataset.val_labels, old.val_labels)]
        if dataset.n < n or dataset.num_classes != old.num_classes or not all(np.array_equal(a, b) for a, b in same):
            raise ValueError("a grown corpus keeps every point and class of this one")
        cf = copy.copy(self)
        cf.dataset = dataset
        cf.vectors = vectors
        cf.evaluations = cf.lookups = 0
        if self.learner == "nearest_centroid":
            fresh = _point_stat_rows(dataset.features[n:], cf.vectors[n:], self.lam)
            cf._point_stats = np.concatenate([self._point_stats, fresh])
        return cf

    def _point_words(self, indices: np.ndarray) -> np.ndarray:
        """``point_words(indices)``, read from this payoff's table of point words.

        The table covers the dataset once a lookup needs it. A payoff over a
        grown corpus (``grown``) appends the words of the new points. Every
        lookup reads it.
        """
        if indices.size and indices.max() >= self._words.shape[0]:
            grown = np.arange(self._words.shape[0], self.dataset.n)
            self._words = np.concatenate([self._words, point_words(grown)])
        return self._words[indices]

    def evaluate(self, points: PointSet) -> float:
        """The payoff of one coalition: ``evaluate_games`` on one row of one block."""
        return float(self.evaluate_games([([points], np.ones((1, 1), bool))])[0][0])

    def evaluate_games(self, games: Sequence[tuple]) -> list:
        """Payoffs of several coalition games' rows in one call: one (R_g,) array per game.

        Game g is a pair (blocks, rows): disjoint point blocks, and an
        (R_g, K_g) 0/1 matrix whose row r is the union of the blocks j with
        ``rows[r, j]`` set; the blocks of different games may overlap. A
        game of no blocks has rows of the empty coalition. Rows repeating a
        (game, row) pattern of the call are keyed once (``_distinct_rows``):
        a block's key is the XOR of its points' words and a row's the XOR of
        its selected blocks' keys, which is the ``coalition_key`` of its union
        however a game splits it. Each distinct key is looked up once in the
        payoff cache, so a coalition repeated within the call, in one game or
        in several, counts as one miss and is scored with the blocks of the
        first game and row that hold it; ``lookups`` counts every row. The
        misses are scored together by ``_score_rows``, and stored once every
        one of them is within the bound B. Each coalition adds its own game's
        blocks in block order, so every payoff equals a one-game call's bit
        for bit.
        """
        if not games:
            return []
        blocks = [list(b) for b, _ in games]
        rows = [np.asarray(r, dtype=bool) for _, r in games]
        for game_blocks, game_rows in zip(blocks, rows):
            if game_rows.ndim != 2 or game_rows.shape[1] != len(game_blocks):
                raise ValueError(f"{len(game_blocks)} blocks need an (R, {len(game_blocks)}) row matrix, got {game_rows.shape}")
        layout = _lay_out(blocks)
        keys, game, member, inverse = _distinct_rows(layout, rows, self._point_words)
        # NaN marks a miss: stored payoffs are never NaN
        values = np.fromiter(map(self._cache.get, keys, repeat(np.nan)), np.float64, len(keys))
        self.lookups += inverse.size
        missed = np.flatnonzero(np.isnan(values))
        if missed.size:
            scored = self._score_rows(layout, game[missed], member[missed])
            bad = ~(np.abs(scored) <= self.B + 1e-12)
            if bad.any():
                raise AssertionError(f"payoff {float(scored[bad][0])} escapes the bound B={self.B}")
            self._cache.update(zip([keys[k] for k in missed.tolist()], scored.tolist()))
            self.evaluations += missed.size
            values[missed] = scored
        values = values[inverse]
        offsets = list(accumulate((game_rows.shape[0] for game_rows in rows), initial=0))
        return [values[start:end] for start, end in zip(offsets, offsets[1:])]

    def _block_stats(self, layout: _Layout) -> np.ndarray:
        """(games, width, C * F) per-class statistics of each game's blocks, zero past its last block.

        One ``_group_sums`` call adds every game's points into (game, block,
        class) bins. A block's points are sorted, so each bin adds its rows in
        ascending point order onto 0.0, whichever games share the call.
        """
        C = self.dataset.num_classes
        points, F = layout.points, self._point_stats.shape[1]
        groups = np.repeat(layout.slots, layout.sizes) * C + self.dataset.labels[points]
        stats = _group_sums(self._point_stats[points], groups, len(layout.games) * layout.width * C)
        return stats.reshape(len(layout.games), layout.width, C * F)

    def _score_rows(self, layout: _Layout, game: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Payoffs of the rows of a 0/1 block matrix; row r selects blocks of ``layout.games[game[r]]``."""
        if self.learner == "ridge_logistic":  # no sufficient statistics: one fit per row
            out = []
            for g, row in zip(game.tolist(), rows):
                coalition = union(layout.games[g][j] for j in np.flatnonzero(row).tolist())
                value = coalition_utility(self.dataset, coalition, self.metric, self.learner)
                if self.lam:
                    value = value + self.lam * normalized_dispersion(self.vectors, self.dataset.labels, coalition).value
                out.append(value)
            return np.array(out, dtype=np.float64)
        data = self.dataset
        C = data.num_classes
        stats = self._block_stats(layout)
        val_X, val_y = data.val_features, data.val_labels
        D = val_X.shape[1]
        chance = chance_level(self.metric, C)
        out = np.empty(rows.shape[0])
        per_row = val_y.size * (D if self.metric == "auc" else 1 if C == 2 else C)
        step = max(1, TEMP_BYTES // (8 * per_row))
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
