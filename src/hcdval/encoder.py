"""Linear contrastive encoder trained with finite-difference gradients.

The encoder is a single matrix W mapping raw features (dimension D) to an
embedding space (dimension d). Training ascends a per-batch objective

    J(W; batch) = utility(batch) + lambda * dispersion(batch) - alpha * penalty(batch)

where utility fits a nearest-centroid classifier on the batch embeddings and
scores accuracy on a fixed validation subsample, dispersion is the mean
cosine distance between cross-label pairs of batch embeddings, and the
penalty discourages embeddings that amplify small input perturbations.
Gradients are central finite differences over the entries of W — the model is
deliberately tiny (D * d is capped), so derivative-free training keeps the
whole pipeline dependency-light and exactly reproducible.

The objective is a function of a stack of matrices, (P, d, D) -> (P,): each
gradient step builds all 2 * d * D perturbed matrices and scores them in one
array pass (embedding, nearest-centroid accuracy, dispersion from per-class
unit sums, and the smoothness probes of every pair and draw), and the
snapshots of a run are scored as one stack per batch. Stacks are scored in
chunks so that no temporary exceeds ``_STACK_BUDGET`` elements, for any
d * D up to MAX_PARAMS and up to VAL_SUBSAMPLE validation rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import LabeledDataset, PointSet, RngStream, content_token, read_matrix_binary, write_matrix_binary
from .utility import D_MAX, _dispersion_from_stats, _unit_rows

EMBED_SOURCES = ("precomputed", "identity", "trained_linear")
MAX_PARAMS = 4096
VAL_SUBSAMPLE = 256

# Stacked scoring works in chunks of matrices: the perturbation stack and each
# temporary of the objective (embedded batch, centroid distances of the
# validation rows, embedded probes) stay within this element count.
_STACK_BUDGET = 1 << 19


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Embedding rows aligned with the train split.

    :param vectors: (n, d) float64 embedding rows
    :param source: "precomputed" | "identity" | "trained_linear"
    :param transform: the trained (d, D) matrix when source is trained_linear,
        kept so streaming ingest can embed new raw rows
    :param training_trace: the objective of each snapshot (the init first,
        then one per epoch) averaged over the fixed epoch-0 batch partition;
        the returned transform is the snapshot with the highest score
    """

    vectors: np.ndarray
    source: str
    transform: Optional[np.ndarray] = None
    training_trace: Optional[tuple] = None

    def __post_init__(self):
        vecs = np.ascontiguousarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", vecs)
        if vecs.ndim != 2:
            raise ValueError("embedding vectors must be 2-d")
        if not np.isfinite(vecs).all():
            raise ValueError("embedding vectors must be finite")
        if self.source not in EMBED_SOURCES:
            raise ValueError(f"unknown embedding source {self.source!r}")

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 4
    lam: float = 0.5
    alpha: float = 0.1
    epochs: int = 5
    batch_size: int = 32
    partners_per_anchor: int = 2
    fd_step: float = 0.05
    fd_draws: int = 1
    lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.epochs < 0 or self.batch_size < 2:
            raise ValueError("need d >= 1, epochs >= 0, batch_size >= 2")
        if self.partners_per_anchor < 1 or self.fd_draws < 1:
            raise ValueError("need at least one partner per anchor and one draw")
        if self.fd_step <= 0 or self.lr <= 0:
            raise ValueError("fd_step and lr must be positive")
        if self.lam < 0 or self.alpha < 0:
            raise ValueError("lam and alpha must be non-negative")


def identity_embeddings(data: LabeledDataset) -> EmbeddingMatrix:
    return EmbeddingMatrix(vectors=data.features.copy(), source="identity")


def save_embeddings(path, emb: EmbeddingMatrix) -> None:
    write_matrix_binary(path, emb.vectors)


def load_embeddings(path, expected_n: Optional[int] = None) -> EmbeddingMatrix:
    vectors = read_matrix_binary(path, with_labels=False)
    if expected_n is not None and vectors.shape[0] != expected_n:
        raise ValueError(f"{path}: embedding has {vectors.shape[0]} rows, dataset has {expected_n}")
    return EmbeddingMatrix(vectors=vectors, source="precomputed")


def _feature_bounds(data: LabeledDataset):
    low = data.feature_low if data.feature_low is not None else data.features.min(axis=0)
    high = data.feature_high if data.feature_high is not None else data.features.max(axis=0)
    return low, high


def _sample_pairs(labels: np.ndarray, idx: np.ndarray, partners: int, gen: np.random.Generator):
    """For each anchor, up to ``partners`` cross-label partners from the batch."""
    pairs = []
    y = labels[idx]
    for a_local, a in enumerate(idx):
        cands = np.flatnonzero(y != y[a_local])
        if cands.size == 0:
            continue
        take = min(partners, cands.size)
        chosen = gen.choice(cands, size=take, replace=False)
        for c in np.sort(chosen):
            pairs.append((int(a), int(idx[c])))
    return pairs


def _probe_inputs(data: LabeledDataset, pairs: Sequence[tuple], directions, eps: float):
    """Anchor rows (n, D), partner rows (n, D) and clipped shifted anchors (n, k, D).

    Directions are scaled to unit norm (a zero direction stays zero) and the
    shifted anchors ``x_p + eps * r`` are clipped to the train-split feature
    range. None of this depends on W, so it is done once per batch.
    """
    directions = np.asarray(directions, dtype=np.float64)
    n, D = len(pairs), data.dim
    if directions.ndim != 3 or directions.shape[0] != n or directions.shape[1] < 1 or directions.shape[2] != D:
        raise ValueError(f"directions must have shape ({n}, k, {D}) with k >= 1, got {directions.shape}")
    norms = np.linalg.norm(directions, axis=2, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions = directions / norms
    low, high = _feature_bounds(data)
    p, q = np.asarray(pairs, dtype=np.int64).T
    anchors = data.features[p]
    return anchors, data.features[q], np.clip(anchors[:, None, :] + eps * directions, low, high)


def _cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine distance between matching rows of ``a`` and ``b`` (last axis); D_MAX where either has zero norm."""
    na = np.sqrt((a * a).sum(axis=-1))
    nb = np.sqrt((b * b).sum(axis=-1))
    zero = (na == 0.0) | (nb == 0.0)
    return np.where(zero, D_MAX, 1.0 - (a * b).sum(axis=-1) / np.where(zero, 1.0, na * nb))


def _stacked_penalty(Ws: np.ndarray, probes, eps: float) -> np.ndarray:
    """Smoothness penalty of every matrix of a (P, d, D) stack, as a (P,) array."""
    if probes is None:
        return np.zeros(len(Ws))
    anchors, partners, shifted = probes
    Wt = Ws.transpose(0, 2, 1)
    z_q = partners @ Wt
    base = _cosine_distances(anchors @ Wt, z_q)
    n, k, D = shifted.shape
    z_s = (shifted.reshape(n * k, D) @ Wt).reshape(len(Ws), n, k, -1)
    slopes = ((_cosine_distances(z_s, z_q[:, :, None, :]) - base[:, :, None]) / eps) ** 2
    return slopes.mean(axis=2).mean(axis=1)


def smoothness_penalty(
    data: LabeledDataset,
    batch: PointSet,
    W: np.ndarray,
    cfg: EncoderConfig,
    pairs: Optional[Sequence[tuple]] = None,
    directions: Optional[np.ndarray] = None,
) -> float:
    """Finite-difference smoothness penalty of the encoder on one batch.

    For sampled cross-label pairs (p, q) and unit directions r, measures how
    much a small input perturbation of the anchor moves the embedded pair
    distance:

        penalty = mean over pairs, mean over draws of (delta / fd_step)^2
        delta = dist(f(clip(x_p + fd_step * r)), f(x_q)) - dist(f(x_p), f(x_q))

    Perturbed inputs are clipped to the train-split feature range. Batches
    with no cross-label pair give 0. Passing explicit ``pairs`` and
    ``directions`` freezes the sampling (used by the trainer so the penalty is
    a deterministic function of W inside one gradient step); ``directions``
    must then have shape (len(pairs), k, D) with k >= 1, or ValueError is
    raised.
    """
    W = np.asarray(W, dtype=np.float64)
    idx = batch.indices
    if pairs is None:
        gen = RngStream(cfg.seed, "fd-pairs", content_token(idx)).generator()
        pairs = _sample_pairs(data.labels, idx, cfg.partners_per_anchor, gen)
        directions = None
    if not pairs:
        return 0.0
    if directions is None:
        gen = RngStream(cfg.seed, "fd-directions", content_token(idx)).generator()
        directions = gen.standard_normal((len(pairs), cfg.fd_draws, data.dim))
    probes = _probe_inputs(data, pairs, directions, cfg.fd_step)
    return float(_stacked_penalty(W[None], probes, cfg.fd_step)[0])


def _batch_objective(data, idx, cfg, val_X, val_y, pairs, directions):
    """The batch objective J as a function of a (P, d, D) stack of matrices.

    Everything that does not depend on W (batch rows, class masks, probe
    inputs) is prepared here once; the returned function scores a stack in
    chunks so that no per-chunk temporary exceeds ``_STACK_BUDGET`` elements
    (beyond a single matrix's own), and returns a (P,) array.
    """
    X, y = data.features[idx], data.labels[idx]
    classes = np.unique(y)
    members = [y == c for c in classes]
    onehot = np.array(members, dtype=np.float64)
    counts = onehot.sum(axis=1)
    probes = _probe_inputs(data, pairs, directions, cfg.fd_step) if pairs else None
    n_probes = 0 if probes is None else probes[2].shape[0] * probes[2].shape[1]
    widest = max(len(idx), val_y.size * classes.size, n_probes)

    def objective(Ws: np.ndarray) -> np.ndarray:
        Ws = np.asarray(Ws, dtype=np.float64)
        out = np.empty(len(Ws))
        step = max(1, _STACK_BUDGET // (Ws.shape[1] * widest))
        for start in range(0, len(Ws), step):
            chunk = Ws[start : start + step]
            Wt = chunk.transpose(0, 2, 1)
            Z = X @ Wt
            # nearest-centroid accuracy of the embedded batch on the embedded subsample
            if classes.size >= 2:
                # masked means, as a one-matrix fit takes them, so argmin ties break the same way
                centroids = np.stack([Z[:, m].mean(axis=1) for m in members], axis=1)
                vz = val_X @ Wt
                d2 = ((vz[:, :, None, :] - centroids[:, None, :, :]) ** 2).sum(axis=3)
                utility = np.mean(classes[d2.argmin(axis=2)] == val_y, axis=1)
            else:
                utility = np.full(len(chunk), 1.0 / data.num_classes)
            unit, nonzero = _unit_rows(Z)
            chunk_counts = np.broadcast_to(counts, (len(chunk), classes.size))
            disp, _ = _dispersion_from_stats(chunk_counts, onehot @ unit, nonzero @ onehot.T)
            penalty = _stacked_penalty(chunk, probes, cfg.fd_step)
            out[start : start + step] = utility + cfg.lam * disp - cfg.alpha * penalty
        return out

    return objective


def fd_gradient(fn, W: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a function over a parameter matrix.

    Entry k moves by h_k = rel_step * (1 + |W_k|) up and down, and its
    derivative is (f(W + h_k e_k) - f(W - h_k e_k)) / (2 h_k). The 2 * W.size
    perturbed matrices (up then down, entry by entry) are built in chunks of
    at most ``_STACK_BUDGET`` elements, or one entry's pair if a matrix is
    larger. ``fn`` maps a (P, *W.shape) stack to P values and receives each
    chunk in one call. W is not modified.
    """
    W = np.asarray(W, dtype=np.float64)
    flat = W.ravel()
    h = rel_step * (1.0 + np.abs(flat))
    values = np.empty(2 * flat.size)
    step = max(1, _STACK_BUDGET // (2 * flat.size))
    for start in range(0, flat.size, step):
        entries = np.arange(start, min(start + step, flat.size))
        stack = np.tile(flat, (2 * entries.size, 1))
        at = 2 * np.arange(entries.size)
        stack[at, entries] = flat[entries] + h[entries]
        stack[at + 1, entries] = flat[entries] - h[entries]
        stack = stack.reshape(-1, *W.shape)
        values[2 * start : 2 * start + len(stack)] = fn(stack)
    return ((values[0::2] - values[1::2]) / (2.0 * h)).reshape(W.shape)


def _epoch_batches(n: int, batch_size: int, gen: np.random.Generator):
    order = gen.permutation(n)
    batches = []
    for start in range(0, n, batch_size):
        chunk = order[start : start + batch_size]
        if chunk.size >= 2:
            batches.append(np.sort(chunk))
    return batches


def train_linear_encoder(data: LabeledDataset, cfg: EncoderConfig) -> EmbeddingMatrix:
    """Train the linear encoder and embed the train split.

    The seeded Gaussian init W ~ N(0, 1/D) is returned unchanged when
    epochs=0. Each epoch ascends the batch objective with central
    finite-difference gradients; afterwards every epoch-end snapshot (and the
    init) is scored on one fixed batch partition and the best one wins, so the
    returned encoder's averaged objective never falls below the init's.
    """
    D = data.dim
    if cfg.d * D > MAX_PARAMS:
        raise ValueError(f"encoder size d*D = {cfg.d * D} exceeds the {MAX_PARAMS}-parameter cap")
    init_gen = RngStream(cfg.seed, "encoder-init").generator()
    W = init_gen.standard_normal((cfg.d, D)) / np.sqrt(D)

    val_gen = RngStream(cfg.seed, "encoder-val").generator()
    n_val = data.val_features.shape[0]
    take = min(VAL_SUBSAMPLE, n_val)
    val_idx = np.sort(val_gen.choice(n_val, size=take, replace=False))
    val_X, val_y = data.val_features[val_idx], data.val_labels[val_idx]

    def batch_objectives(epoch: int):
        gen = RngStream(cfg.seed, "encoder-batches", b"", epoch).generator()
        objectives = []
        for b, idx in enumerate(_epoch_batches(data.n, cfg.batch_size, gen)):
            pg = RngStream(cfg.seed, "encoder-pairs", content_token(epoch, b)).generator()
            pairs = _sample_pairs(data.labels, idx, cfg.partners_per_anchor, pg)
            dirs = pg.standard_normal((len(pairs), cfg.fd_draws, D)) if pairs else None
            objectives.append(_batch_objective(data, idx, cfg, val_X, val_y, pairs, dirs))
        return objectives

    scoring = batch_objectives(0)
    snapshots = [W]
    for epoch in range(1, cfg.epochs + 1):
        for objective in batch_objectives(epoch):
            W = W + cfg.lr * fd_gradient(objective, W)
        snapshots.append(W)

    stack = np.stack(snapshots)
    if scoring:
        per_batch = np.stack([objective(stack) for objective in scoring], axis=1)
        scores = [float(np.mean(row)) for row in per_batch]
    else:
        scores = [0.0] * len(snapshots)
    best = int(np.argmax(scores))
    W_best = snapshots[best]
    return EmbeddingMatrix(
        vectors=data.features @ W_best.T,
        source="trained_linear",
        transform=W_best,
        training_trace=tuple(scores),
    )
