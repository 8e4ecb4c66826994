"""Linear contrastive encoder trained by gradient ascent.

The encoder is a single matrix W mapping raw features (dimension D) to an
embedding space (dimension d). Training ascends a per-batch objective

    J(W; batch) = utility(batch) + lambda * dispersion(batch) - alpha * penalty(batch)

where utility fits a nearest-centroid classifier on the batch embeddings and
scores accuracy on a fixed validation subsample, dispersion is the mean
cosine distance between cross-label pairs of batch embeddings, and the
penalty discourages embeddings that amplify small input perturbations.

Each batch's objective has two passes over one W: the value pass gives J,
which scores the epoch snapshots, and the ascent pass gives its gradient in
W in closed form, which the training steps follow. The accuracy is
piecewise constant in W, so its gradient is zero almost everywhere and only
the dispersion and the penalty move W; the ascent pass forms neither the
accuracy nor any value, and the value pass forms no gradient. Rows of zero
norm, in the embedded batch or in a probe pair, are constant pieces of J
and add nothing to the gradient. ``fd_gradient`` (central differences)
checks the closed form.

The penalty's probe pairs are drawn once per batch: each anchor gets a
uniform random subset of min(partners_per_anchor, m) of its m other-label
batch positions. ``_sample_pairs`` draws them for all anchors at once, in at
most partners_per_anchor generator calls whatever the batch size, and in
O(batch x partners) memory, so a large ``batch_size`` costs no (batch, batch)
array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import LabeledDataset, PointSet, RngStream, check_integer, content_token, read_matrix_binary, write_matrix_binary
from .utility import D_MAX, _cross_pair_counts, _dispersion_from_stats, _unit_rows

EMBED_SOURCES = ("precomputed", "identity", "trained_linear")
VAL_SUBSAMPLE = 256


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
        for name in ("d", "epochs", "batch_size", "partners_per_anchor", "fd_draws", "seed"):
            check_integer(name, getattr(self, name))
        if self.d < 1 or self.epochs < 0 or self.batch_size < 2:
            raise ValueError("need d >= 1, epochs >= 0, batch_size >= 2")
        if self.partners_per_anchor < 1 or self.fd_draws < 1:
            raise ValueError("need at least one partner per anchor and one draw")
        if not (0 < self.fd_step < np.inf and 0 < self.lr < np.inf):
            raise ValueError("fd_step and lr must be positive and finite")
        if not (0 <= self.lam < np.inf and 0 <= self.alpha < np.inf):
            raise ValueError("lam and alpha must be non-negative and finite")


def identity_embeddings(data: LabeledDataset) -> EmbeddingMatrix:
    return EmbeddingMatrix(vectors=data.features.copy(), source="identity")


def save_embeddings(path, emb: EmbeddingMatrix) -> None:
    write_matrix_binary(path, emb.vectors)


def load_embeddings(path, expected_n: Optional[int] = None) -> EmbeddingMatrix:
    vectors = read_matrix_binary(path, with_labels=False)
    if expected_n is not None and vectors.shape[0] != expected_n:
        raise ValueError(f"{path}: embedding has {vectors.shape[0]} rows, dataset has {expected_n}")
    return EmbeddingMatrix(vectors=vectors, source="precomputed")


def _feature_bounds(data: LabeledDataset) -> tuple:
    """Per-feature minimum and maximum of the train split: the range probe inputs are clipped to."""
    return data.features.min(axis=0), data.features.max(axis=0)


def _sample_pairs(labels: np.ndarray, idx: np.ndarray, partners: int, gen: np.random.Generator):
    """For each anchor, a uniform random subset of min(partners, m) of its m other-label batch positions.

    Partners are drawn as ranks among the anchor's other-label positions,
    one rank s at a time for all anchors with more than s of them: one
    ``gen.integers`` call with per-anchor bounds m - s, each draw stepped past
    the anchor's earlier ranks in ascending order (sequential sampling without
    replacement). A batch thus takes at most ``partners`` generator calls. Rank
    r maps to batch position r + t, where t counts the anchor's own-label
    positions before it, read by one ``searchsorted`` over the label-sorted
    positions. Memory is O(batch x partners). Returns (anchor, partner) tuples
    of ints in anchor order, each anchor's partners in ascending batch
    position; a one-class batch gives none.
    """
    y = labels[idx]
    b = y.size
    sizes = np.bincount(y)
    m = b - sizes[y]
    k = np.minimum(m, partners)
    ranks = np.empty((b, int(k.max(initial=0))), dtype=np.int64)
    for s in range(ranks.shape[1]):
        live = np.flatnonzero(k > s)
        r = gen.integers(0, m[live] - s)
        earlier = ranks[live, :s]  # ascending
        for t in range(s):
            r += r >= earlier[:, t]
        ranks[live, : s + 1] = np.sort(np.column_stack([earlier, r]), axis=1)
    anchor = np.repeat(np.arange(b), k)
    r = ranks[np.arange(ranks.shape[1]) < k[:, None]]
    # the label-sorted positions p_i, keyed label * (b + 1) + (other-label positions before p_i)
    starts = np.cumsum(sizes) - sizes
    keys = np.repeat(np.arange(sizes.size) * (b + 1) + starts, sizes) + np.argsort(y, kind="stable") - np.arange(b)
    c = y[anchor]
    partner = r + np.searchsorted(keys, c * (b + 1) + r, side="right") - starts[c]
    return list(zip(idx[anchor].tolist(), idx[partner].tolist()))


def _probe_inputs(data: LabeledDataset, pairs: Sequence[tuple], directions, eps: float, bounds: tuple):
    """Anchor rows (n, D), partner rows (n, D) and clipped shifted anchors (n, k, D).

    Directions are scaled to unit norm (a zero direction stays zero) and the
    shifted anchors ``x_p + eps * r`` are clipped to ``bounds``, the
    train-split feature range (``_feature_bounds``). None of this depends on
    W, so it is done once per batch.
    """
    directions = np.asarray(directions, dtype=np.float64)
    n, D = len(pairs), data.dim
    if directions.ndim != 3 or directions.shape[0] != n or directions.shape[1] < 1 or directions.shape[2] != D:
        raise ValueError(f"directions must have shape ({n}, k, {D}) with k >= 1, got {directions.shape}")
    norms = np.linalg.norm(directions, axis=2, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions = directions / norms
    p, q = np.asarray(pairs, dtype=np.int64).T
    anchors = data.features[p]
    return anchors, data.features[q], np.clip(anchors[:, None, :] + eps * directions, *bounds)


def _cosine_distances(a: np.ndarray, b: np.ndarray):
    """Cosine distance between matching rows of ``a`` and ``b`` (last axis), and a function giving its gradients.

    Returns the distances and ``gradients``, whose call forms the gradients
    in ``a`` and in ``b``, each of the broadcast shape of the inputs. Where
    either row has zero norm the distance is D_MAX and both gradients are
    zero.
    """
    a, b = np.broadcast_arrays(a, b)
    na = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    nb = np.sqrt((b * b).sum(axis=-1, keepdims=True))
    live = (na > 0.0) & (nb > 0.0)
    na, nb = np.where(live, na, 1.0), np.where(live, nb, 1.0)
    cos = (a * b).sum(axis=-1, keepdims=True) / (na * nb)

    def gradients():
        return np.where(live, (cos * a / na - b / nb) / na, 0.0), np.where(live, (cos * b / nb - a / na) / nb, 0.0)

    return np.where(live, 1.0 - cos, D_MAX)[..., 0], gradients


def _penalty(W: np.ndarray, probes, eps: float):
    """Functions giving the smoothness penalty of one (d, D) matrix and its (d, D) gradient.

    Both read the probe distances and slopes formed here; each forms the rest
    of its own result only when called.
    """
    anchors, partners, shifted = probes
    n, k, _ = shifted.shape
    z_q = partners @ W.T
    base, base_gradients = _cosine_distances(anchors @ W.T, z_q)
    moved, moved_gradients = _cosine_distances(shifted @ W.T, z_q[:, None, :])
    slopes = (moved - base[:, None]) / eps

    def value():
        return float((slopes**2).mean(axis=1).mean())

    def gradient():
        g_p, g_q_base = base_gradients()
        g_s, g_q_moved = moved_gradients()
        # d penalty / d moved = 2 * slope / (eps * n * k), and base enters every draw with the opposite sign
        w = 2.0 * slopes / (eps * n * k)
        w_base = w.sum(axis=1)[:, None]
        return (
            np.tensordot(w[..., None] * g_s, shifted, axes=([0, 1], [0, 1]))
            + ((w[..., None] * g_q_moved).sum(axis=1) - w_base * g_q_base).T @ partners
            - (w_base * g_p).T @ anchors
        )

    return value, gradient


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
    return _penalty(W, _probe_inputs(data, pairs, directions, cfg.fd_step, _feature_bounds(data)), cfg.fd_step)[0]()


def _batch_objective(data, idx, cfg, val_X, val_y, pairs, directions, bounds):
    """The batch objective as two passes over one (d, D) matrix: ``value(W) -> J`` and ``ascent(W) -> grad J``.

    Everything that does not depend on W (batch rows, class masks, the
    cross-label pair count, probe inputs clipped to ``bounds``) is prepared
    here once. The gradient is lambda times the dispersion's minus alpha
    times the penalty's; the accuracy adds nothing, so the ascent pass skips
    it, and it forms no value either.
    The dispersion's sum of cross-label unit dots is (|G|^2 - sum_c |U_c|^2) / 2
    for class sums U_c of unit rows and G = sum_c U_c, so its gradient in unit
    row i is -(G - U_c(i)) / pairs, taken through the unit map's Jacobian
    (I - u u^T) / |z_i| back to z_i = W x_i.
    """
    X, y = data.features[idx], data.labels[idx]
    classes, inverse = np.unique(y, return_inverse=True)
    members = [y == c for c in classes]
    onehot = np.array(members, dtype=np.float64)
    counts = onehot.sum(axis=1)
    pair_count = max(float(_cross_pair_counts(counts[None])[0]), 1.0)
    probes = _probe_inputs(data, pairs, directions, cfg.fd_step, bounds) if pairs else None

    def value(W: np.ndarray) -> float:
        Z = X @ W.T
        # nearest-centroid accuracy of the embedded batch on the embedded subsample
        if classes.size >= 2:
            centroids = np.stack([Z[m].mean(axis=0) for m in members])
            d2 = (((val_X @ W.T)[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            utility = float(np.mean(classes[d2.argmin(axis=1)] == val_y))
        else:
            utility = 1.0 / data.num_classes
        unit, nonzero = _unit_rows(Z)
        disp, _ = _dispersion_from_stats(counts[None], (onehot @ unit)[None], (nonzero @ onehot.T)[None])
        penalty = _penalty(W, probes, cfg.fd_step)[0]() if probes is not None else 0.0
        return utility + cfg.lam * float(disp[0]) - cfg.alpha * penalty

    def ascent(W: np.ndarray) -> np.ndarray:
        Z = X @ W.T
        unit, _ = _unit_rows(Z)
        sums = onehot @ unit
        g_unit = (sums[inverse] - sums.sum(axis=0)) / pair_count
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
        inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
        g_Z = (g_unit - (g_unit * unit).sum(axis=1, keepdims=True) * unit) * inv_norms
        g_penalty = _penalty(W, probes, cfg.fd_step)[1]() if probes is not None else np.zeros_like(W)
        return cfg.lam * (g_Z.T @ X) - cfg.alpha * g_penalty

    return value, ascent


def fd_gradient(fn, W: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of one parameter matrix.

    Entry k moves by h_k = rel_step * (1 + |W_k|) up and down, and its
    derivative is (f(W + h_k e_k) - f(W - h_k e_k)) / (2 h_k). W is not
    modified.
    """
    W = np.asarray(W, dtype=np.float64)
    grad = np.empty_like(W)
    for k in np.ndindex(W.shape):
        h = rel_step * (1.0 + abs(W[k]))
        up, down = W.copy(), W.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


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
    epochs=0. Each epoch takes one gradient-ascent step of size ``lr`` per
    batch; afterwards every epoch-end snapshot (and the init) is scored on one
    fixed batch partition and the best one wins, so the returned encoder's
    averaged objective never falls below the init's.
    """
    D = data.dim
    init_gen = RngStream(cfg.seed, "encoder-init").generator()
    W = init_gen.standard_normal((cfg.d, D)) / np.sqrt(D)

    val_gen = RngStream(cfg.seed, "encoder-val").generator()
    n_val = data.val_features.shape[0]
    take = min(VAL_SUBSAMPLE, n_val)
    val_idx = np.sort(val_gen.choice(n_val, size=take, replace=False))
    val_X, val_y = data.val_features[val_idx], data.val_labels[val_idx]
    bounds = _feature_bounds(data)

    def batch_objectives(epoch: int):
        gen = RngStream(cfg.seed, "encoder-batches", b"", epoch).generator()
        objectives = []
        for b, idx in enumerate(_epoch_batches(data.n, cfg.batch_size, gen)):
            pg = RngStream(cfg.seed, "encoder-pairs", content_token(epoch, b)).generator()
            pairs = _sample_pairs(data.labels, idx, cfg.partners_per_anchor, pg)
            dirs = pg.standard_normal((len(pairs), cfg.fd_draws, D)) if pairs else None
            objectives.append(_batch_objective(data, idx, cfg, val_X, val_y, pairs, dirs, bounds))
        return objectives

    scoring = batch_objectives(0)
    snapshots = [W]
    for epoch in range(1, cfg.epochs + 1):
        for _, ascent in batch_objectives(epoch):
            W = W + cfg.lr * ascent(W)
        snapshots.append(W)

    scores = [float(np.mean([value(S) for value, _ in scoring])) if scoring else 0.0 for S in snapshots]
    best = int(np.argmax(scores))
    W_best = snapshots[best]
    return EmbeddingMatrix(
        vectors=data.features @ W_best.T,
        source="trained_linear",
        transform=W_best,
        training_trace=tuple(scores),
    )
