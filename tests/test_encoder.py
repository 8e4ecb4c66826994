import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcdval.encoder as encoder
from hcdval import (
    EncoderConfig,
    LabeledDataset,
    PointSet,
    RngStream,
    content_token,
    fd_gradient,
    identity_embeddings,
    load_embeddings,
    make_synthetic,
    normalized_dispersion,
    save_embeddings,
    smoothness_penalty,
    train_linear_encoder,
)


def test_identity_embeddings_pass_features_through():
    data = make_synthetic(30, subclusters=1, overlap=0.2, seed=0, dim=4)
    emb = identity_embeddings(data)
    assert emb.source == "identity"
    assert np.array_equal(emb.vectors, data.features)


def test_embeddings_file_roundtrip(tmp_path):
    data = make_synthetic(30, subclusters=1, overlap=0.2, seed=1, dim=4)
    emb = identity_embeddings(data)
    path = tmp_path / "emb.bin"
    save_embeddings(path, emb)
    back = load_embeddings(path, expected_n=emb.n)
    assert back.source == "precomputed"
    assert np.array_equal(back.vectors, emb.vectors.astype(np.float32).astype(np.float64))
    with pytest.raises(ValueError, match="rows"):
        load_embeddings(path, expected_n=emb.n + 1)


def test_encoder_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(d=0)
    with pytest.raises(ValueError):
        EncoderConfig(lam=-1.0)
    with pytest.raises(ValueError):
        EncoderConfig(epochs=-1)
    with pytest.raises(ValueError):
        EncoderConfig(fd_step=0.0)


@pytest.mark.parametrize("field", ["lam", "alpha", "fd_step", "lr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_encoder_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        EncoderConfig(**{field: value})


def _two_point_data():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    return LabeledDataset(feats, labels, feats.copy(), labels.copy(), num_classes=2)


def test_smoothness_penalty_hand_case():
    # identity transform, orthogonal unit pair, perturbation along x_q:
    # base distance 1, perturbed distance 1 - eps/sqrt(1+eps^2), so the
    # squared slope is exactly 1/(1+eps^2)
    data = _two_point_data()
    cfg = EncoderConfig(d=2, fd_step=0.5, seed=0)
    W = np.eye(2)
    pairs = [(0, 1)]
    directions = np.array([[[0.0, 1.0]]])
    got = smoothness_penalty(data, PointSet([0, 1]), W, cfg, pairs=pairs, directions=directions)
    assert got == pytest.approx(1.0 / 1.25, abs=1e-12)


def test_smoothness_penalty_is_nonnegative_on_random_probes():
    gen = np.random.default_rng(0)
    data = make_synthetic(40, subclusters=2, overlap=0.5, seed=2, dim=3)
    cfg = EncoderConfig(d=2, fd_step=0.05, seed=2)
    batch = PointSet(range(12))
    for _ in range(50):
        W = gen.normal(size=(2, 3))
        assert smoothness_penalty(data, batch, W, cfg) >= 0.0


def test_smoothness_penalty_vanishes_without_cross_label_pairs():
    data = make_synthetic(20, subclusters=1, overlap=0.2, seed=3, dim=3)
    cfg = EncoderConfig(d=2, seed=3)
    single_label = PointSet(np.flatnonzero(data.labels == 0)[:4])
    W = np.eye(2, 3)
    assert smoothness_penalty(data, single_label, W, cfg) == 0.0


def test_smoothness_penalty_rejects_directions_that_do_not_match_the_pairs():
    data = make_synthetic(40, subclusters=1, overlap=0.3, seed=8, dim=3)
    cfg = EncoderConfig(d=2, seed=8)
    zeros = np.flatnonzero(data.labels == 0)[:2]
    ones = np.flatnonzero(data.labels == 1)[:2]
    pairs = [(int(zeros[0]), int(ones[0])), (int(zeros[1]), int(ones[1]))]
    batch = PointSet(np.concatenate([zeros, ones]))
    W = np.eye(2, 3)
    for shape in [(1, 1, 3), (3, 1, 3), (2, 0, 3), (2, 1, 2), (2, 3)]:
        with pytest.raises(ValueError, match="directions"):
            smoothness_penalty(data, batch, W, cfg, pairs=pairs, directions=np.ones(shape))
    assert smoothness_penalty(data, batch, W, cfg, pairs=pairs, directions=np.ones((2, 2, 3))) >= 0.0


def test_fd_gradient_matches_analytic_gradient():
    W = np.array([[0.3, -0.7], [1.1, 0.2]])

    def f(M):
        return float(np.sin(M.sum()))

    before = W.copy()
    got = fd_gradient(f, W)
    want = np.cos(W.sum()) * np.ones_like(W)
    assert got == pytest.approx(want, rel=1e-6)
    assert np.array_equal(W, before)


def test_fd_gradient_is_exact_on_quadratics():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    W = np.array([[0.4, 1.2], [-0.3, 0.8]])

    def f(M):
        return float((a * M * M).sum())

    got = fd_gradient(f, W)
    assert got == pytest.approx(2.0 * a * W, rel=1e-6)
    assert np.array_equal(got, _reference_fd_gradient(f, W.copy()))


def test_train_with_zero_epochs_returns_the_initial_matrix():
    data = make_synthetic(40, subclusters=1, overlap=0.2, seed=4, dim=3)
    cfg = EncoderConfig(d=2, epochs=0, seed=4)
    emb = train_linear_encoder(data, cfg)
    assert emb.source == "trained_linear"
    assert emb.training_trace is not None and len(emb.training_trace) == 1
    assert emb.transform.shape == (2, 3)
    assert np.allclose(emb.vectors, data.features @ emb.transform.T)


def test_training_trace_never_ends_below_start():
    data = make_synthetic(60, subclusters=1, overlap=0.3, seed=5, dim=3)
    cfg = EncoderConfig(d=2, lam=1.0, alpha=0.05, epochs=3, batch_size=16, seed=5)
    emb = train_linear_encoder(data, cfg)
    trace = emb.training_trace
    assert len(trace) == 4  # initial snapshot plus one per epoch
    assert max(trace) >= trace[0]


def test_training_is_deterministic():
    data = make_synthetic(40, subclusters=1, overlap=0.3, seed=6, dim=3)
    cfg = EncoderConfig(d=2, epochs=2, batch_size=10, seed=6)
    a = train_linear_encoder(data, cfg)
    b = train_linear_encoder(data, cfg)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.training_trace == b.training_trace


# --- batch objective and its gradient against per-matrix references ---------

TOL = 1e-12


def _reference_cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 2.0
    return float(1.0 - (a @ b) / (na * nb))


def _reference_penalty(data, W, eps, pairs, directions) -> float:
    """The smoothness penalty of one matrix, one pair and one draw at a time."""
    if not pairs:
        return 0.0
    norms = np.linalg.norm(directions, axis=2, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions = directions / norms
    low, high = data.features.min(axis=0), data.features.max(axis=0)
    total = 0.0
    for (p, q), dirs in zip(pairs, directions):
        x_p, x_q = data.features[p], data.features[q]
        z_p, z_q = W @ x_p, W @ x_q
        base = _reference_cosine_distance(z_p, z_q)
        acc = 0.0
        for r in dirs:
            x_shift = np.clip(x_p + eps * r, low, high)
            acc += ((_reference_cosine_distance(W @ x_shift, z_q) - base) / eps) ** 2
        total += acc / dirs.shape[0]
    return total / len(pairs)


def _reference_objective(data, idx, W, cfg, val_X, val_y, pairs, directions) -> float:
    """The batch objective of one matrix, computed per matrix."""
    Z = data.features[idx] @ W.T
    y = data.labels[idx]
    classes = np.unique(y)
    if classes.size >= 2:
        centroids = np.stack([Z[y == c].mean(axis=0) for c in classes])
        vz = val_X @ W.T
        d2 = ((vz[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        utility = float(np.mean(classes[np.argmin(d2, axis=1)] == val_y))
    else:
        utility = 1.0 / data.num_classes
    disp = normalized_dispersion(Z, y, PointSet(range(len(idx)))).value
    penalty = _reference_penalty(data, W, cfg.fd_step, pairs, directions)
    return utility + cfg.lam * disp - cfg.alpha * penalty


def _reference_fd_gradient(fn, W, rel_step=1e-4):
    """Central differences perturbing W in place, one entry at a time."""
    grad = np.zeros_like(W)
    flat, gflat = W.ravel(), grad.ravel()
    for k in range(flat.size):
        h = rel_step * (1.0 + abs(flat[k]))
        orig = flat[k]
        flat[k] = orig + h
        up = fn(W)
        flat[k] = orig - h
        down = fn(W)
        flat[k] = orig
        gflat[k] = (up - down) / (2.0 * h)
    return grad


def _objective_case(seed: int, C: int, draws: int, one_class: bool, fd_step: float):
    """A small dataset with zero feature rows, one batch, its probes, and six matrices (a zero one, one with a zero row)."""
    gen = np.random.default_rng(seed)
    n, n_val, D, d = 24, 9, 3, 2
    feats = gen.normal(size=(n, D))
    feats[gen.random(n) < 0.2] = 0.0
    labels = np.arange(n) % C
    val_y = gen.integers(0, C, size=n_val)
    data = LabeledDataset(feats, labels, gen.normal(size=(n_val, D)), val_y, C)
    if one_class:
        idx = np.flatnonzero(labels == 0)[:6]
    else:
        idx = np.sort(gen.choice(n, size=10, replace=False))
    cfg = EncoderConfig(d=d, lam=0.7, alpha=0.3, fd_step=fd_step, fd_draws=draws, seed=seed)
    pairs = encoder._sample_pairs(data.labels, idx, cfg.partners_per_anchor, gen)
    dirs = gen.standard_normal((len(pairs), draws, D)) if pairs else None
    Ws = gen.normal(size=(6, d, D))
    Ws[0] = 0.0
    Ws[1, 0] = 0.0
    return data, idx, cfg, data.val_features, data.val_labels, pairs, dirs, Ws


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    C=st.sampled_from([2, 3]),
    draws=st.sampled_from([1, 3]),
    one_class=st.booleans(),
    fd_step=st.sampled_from([0.05, 3.0]),
)
def test_stacked_objective_matches_the_per_matrix_formula(seed, C, draws, one_class, fd_step):
    data, idx, cfg, val_X, val_y, pairs, dirs, Ws = _objective_case(seed, C, draws, one_class, fd_step)
    assert (not pairs) == one_class
    value, _ = encoder._batch_objective(data, idx, cfg, val_X, val_y, pairs, dirs, encoder._feature_bounds(data))
    for W in Ws:
        assert abs(value(W) - _reference_objective(data, idx, W, cfg, val_X, val_y, pairs, dirs)) <= TOL
        penalty = smoothness_penalty(data, PointSet(idx), W, cfg, pairs=pairs, directions=dirs)
        assert abs(penalty - _reference_penalty(data, W, cfg.fd_step, pairs, dirs)) <= TOL


def test_large_fd_step_clips_the_shifted_anchors():
    data, idx, cfg, _, _, pairs, dirs, _ = _objective_case(3, 2, 3, False, 3.0)
    _, _, shifted = encoder._probe_inputs(data, pairs, dirs, cfg.fd_step, encoder._feature_bounds(data))
    anchors = data.features[[p for p, _ in pairs]]
    unit = dirs / np.linalg.norm(dirs, axis=2, keepdims=True)
    assert not np.array_equal(shifted, anchors[:, None, :] + cfg.fd_step * unit)
    assert (shifted >= data.features.min(axis=0)).all() and (shifted <= data.features.max(axis=0)).all()


def _smooth_reference(data, idx, cfg, pairs, dirs):
    """lambda * dispersion - alpha * penalty of one matrix: the part of J that moves W."""

    def smooth(W):
        Z = data.features[idx] @ W.T
        disp = normalized_dispersion(Z, data.labels[idx], PointSet(range(len(idx)))).value
        return cfg.lam * disp - cfg.alpha * _reference_penalty(data, W, cfg.fd_step, pairs, dirs)

    return smooth


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    C=st.sampled_from([2, 3]),
    draws=st.sampled_from([1, 3]),
    one_class=st.booleans(),
    fd_step=st.sampled_from([0.05, 3.0]),
)
def test_objective_gradient_matches_fd_gradient_of_the_smooth_part(seed, C, draws, one_class, fd_step):
    data, idx, cfg, val_X, val_y, pairs, dirs, Ws = _objective_case(seed, C, draws, one_class, fd_step)
    _, ascent = encoder._batch_objective(data, idx, cfg, val_X, val_y, pairs, dirs, encoder._feature_bounds(data))
    smooth = _smooth_reference(data, idx, cfg, pairs, dirs)
    # Ws[0] is the zero matrix, where J is not differentiable; the rest embed
    # each nonzero feature row to a nonzero row (a zero feature row stays zero
    # under every W, a constant piece of J)
    for W in Ws[1:]:
        nonzero = np.linalg.norm(data.features[idx] @ W.T, axis=1) > 0.0
        assert np.array_equal(nonzero, data.features[idx].any(axis=1))
        grad = ascent(W)
        assert grad.shape == W.shape
        want = fd_gradient(smooth, W, rel_step=1e-6)
        assert np.max(np.abs(grad - want)) <= 1e-5 * max(np.max(np.abs(want)), 1e-12)
        if one_class:
            assert np.array_equal(grad, np.zeros_like(W))


def test_training_steps_along_the_closed_form_gradient(monkeypatch):
    monkeypatch.setattr(encoder, "fd_gradient", None)  # training takes no finite differences
    data = make_synthetic(40, subclusters=1, overlap=0.3, seed=10, dim=3)
    cfg = EncoderConfig(d=2, epochs=1, batch_size=64, seed=10)
    assert data.n <= cfg.batch_size and data.val_labels.size <= encoder.VAL_SUBSAMPLE
    idx = np.arange(data.n)  # each epoch is one batch, and the validation subsample is the whole split

    def objective(epoch):
        gen = RngStream(cfg.seed, "encoder-pairs", content_token(epoch, 0)).generator()
        pairs = encoder._sample_pairs(data.labels, idx, cfg.partners_per_anchor, gen)
        dirs = gen.standard_normal((len(pairs), cfg.fd_draws, data.dim))
        bounds = encoder._feature_bounds(data)
        return encoder._batch_objective(data, idx, cfg, data.val_features, data.val_labels, pairs, dirs, bounds)

    W0 = train_linear_encoder(data, EncoderConfig(d=2, epochs=0, seed=10)).transform
    W1 = W0 + cfg.lr * objective(1)[1](W0)
    trained = train_linear_encoder(data, cfg)
    value = objective(0)[0]
    assert trained.training_trace == (value(W0), value(W1))
    assert np.array_equal(trained.transform, W1 if trained.training_trace[1] > trained.training_trace[0] else W0)


def _one_call_cosine_distances(a, b):
    """Cosine distances of matching rows with both gradients, formed together in one call."""
    a, b = np.broadcast_arrays(a, b)
    na = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    nb = np.sqrt((b * b).sum(axis=-1, keepdims=True))
    live = (na > 0.0) & (nb > 0.0)
    na, nb = np.where(live, na, 1.0), np.where(live, nb, 1.0)
    cos = (a * b).sum(axis=-1, keepdims=True) / (na * nb)
    grad_a = np.where(live, (cos * a / na - b / nb) / na, 0.0)
    grad_b = np.where(live, (cos * b / nb - a / na) / nb, 0.0)
    return np.where(live, 1.0 - cos, 2.0)[..., 0], grad_a, grad_b


def _one_call_penalty(W, probes, eps):
    if probes is None:
        return 0.0, np.zeros_like(W)
    anchors, partners, shifted = probes
    n, k, _ = shifted.shape
    z_q = partners @ W.T
    base, g_p, g_q_base = _one_call_cosine_distances(anchors @ W.T, z_q)
    moved, g_s, g_q_moved = _one_call_cosine_distances(shifted @ W.T, z_q[:, None, :])
    slopes = (moved - base[:, None]) / eps
    w = 2.0 * slopes / (eps * n * k)
    w_base = w.sum(axis=1)[:, None]
    grad = (
        np.tensordot(w[..., None] * g_s, shifted, axes=([0, 1], [0, 1]))
        + ((w[..., None] * g_q_moved).sum(axis=1) - w_base * g_q_base).T @ partners
        - (w_base * g_p).T @ anchors
    )
    return float((slopes**2).mean(axis=1).mean()), grad


def _one_call_objective(data, idx, cfg, val_X, val_y, pairs, directions, bounds):
    """The batch objective as one function ``W -> (J, grad J)`` that forms every piece on every call."""
    X, y = data.features[idx], data.labels[idx]
    classes, inverse = np.unique(y, return_inverse=True)
    members = [y == c for c in classes]
    onehot = np.array(members, dtype=np.float64)
    counts = onehot.sum(axis=1)
    probes = encoder._probe_inputs(data, pairs, directions, cfg.fd_step, bounds) if pairs else None

    def objective(W):
        Z = X @ W.T
        if classes.size >= 2:
            centroids = np.stack([Z[m].mean(axis=0) for m in members])
            d2 = (((val_X @ W.T)[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            utility = float(np.mean(classes[d2.argmin(axis=1)] == val_y))
        else:
            utility = 1.0 / data.num_classes
        norms = np.linalg.norm(Z, axis=1)
        nonzero = norms > 0.0
        unit = np.zeros_like(Z)
        unit[nonzero] = Z[nonzero] / norms[nonzero, None]
        sums = onehot @ unit
        nz = nonzero @ onehot.T
        pair_count = 0.5 * (counts.sum() ** 2 - (counts * counts).sum())
        cross_nonzero = 0.5 * (nz.sum() ** 2 - (nz * nz).sum())
        grand = sums.sum(axis=0)
        dot_sum = 0.5 * ((grand * grand).sum() - (sums * sums).sum(axis=1).sum())
        dist_sum = 2.0 * (pair_count - cross_nonzero) + (cross_nonzero - dot_sum)
        disp = dist_sum / max(pair_count, 1.0) if pair_count > 0 else 0.0
        g_unit = (sums[inverse] - grand) / max(pair_count, 1.0)
        col = norms[:, None]
        inv_norms = np.divide(1.0, col, out=np.zeros_like(col), where=col > 0.0)
        g_Z = (g_unit - (g_unit * unit).sum(axis=1, keepdims=True) * unit) * inv_norms
        penalty, g_penalty = _one_call_penalty(W, probes, cfg.fd_step)
        return utility + cfg.lam * float(disp) - cfg.alpha * penalty, cfg.lam * (g_Z.T @ X) - cfg.alpha * g_penalty

    return objective


def _reference_train(data, cfg):
    """The trainer on the one-call objective: (training_trace, transform, vectors)."""
    D = data.dim
    W = RngStream(cfg.seed, "encoder-init").generator().standard_normal((cfg.d, D)) / np.sqrt(D)
    n_val = data.val_features.shape[0]
    val_idx = np.sort(RngStream(cfg.seed, "encoder-val").generator().choice(n_val, size=min(encoder.VAL_SUBSAMPLE, n_val), replace=False))
    val_X, val_y = data.val_features[val_idx], data.val_labels[val_idx]
    bounds = encoder._feature_bounds(data)

    def objectives(epoch):
        batches = encoder._epoch_batches(data.n, cfg.batch_size, RngStream(cfg.seed, "encoder-batches", b"", epoch).generator())
        out = []
        for b, idx in enumerate(batches):
            pg = RngStream(cfg.seed, "encoder-pairs", content_token(epoch, b)).generator()
            pairs = encoder._sample_pairs(data.labels, idx, cfg.partners_per_anchor, pg)
            dirs = pg.standard_normal((len(pairs), cfg.fd_draws, D)) if pairs else None
            out.append(_one_call_objective(data, idx, cfg, val_X, val_y, pairs, dirs, bounds))
        return out

    scoring = objectives(0)
    snapshots = [W]
    for epoch in range(1, cfg.epochs + 1):
        for objective in objectives(epoch):
            W = W + cfg.lr * objective(W)[1]
        snapshots.append(W)
    scores = tuple(float(np.mean([objective(S)[0] for objective in scoring])) if scoring else 0.0 for S in snapshots)
    W_best = snapshots[int(np.argmax(scores))]
    return scores, W_best, data.features @ W_best.T


def _has_one_class_batch(data, cfg):
    for epoch in range(cfg.epochs + 1):
        gen = RngStream(cfg.seed, "encoder-batches", b"", epoch).generator()
        if any(np.unique(data.labels[idx]).size == 1 for idx in encoder._epoch_batches(data.n, cfg.batch_size, gen)):
            return True
    return False


@pytest.mark.parametrize("epochs", [0, 1, 3])
@pytest.mark.parametrize("seed", [3, 21])
@pytest.mark.parametrize("batch_size", [16, 3])
def test_trainer_matches_the_one_call_reference_bit_for_bit(epochs, seed, batch_size):
    data = make_synthetic(60, subclusters=2, overlap=0.4, seed=seed, dim=3)
    cfg = EncoderConfig(d=2, lam=0.8, alpha=0.2, epochs=epochs, batch_size=batch_size, fd_draws=2, seed=seed)
    # batches of 3 rows from two classes: the partition holds one-class batches, which have no probe pairs
    assert _has_one_class_batch(data, cfg) == (batch_size == 3)
    trace, transform, vectors = _reference_train(data, cfg)
    trained = train_linear_encoder(data, cfg)
    assert len(trained.training_trace) == epochs + 1
    assert np.array(trained.training_trace).tobytes() == np.array(trace).tobytes()
    assert trained.transform.tobytes() == transform.tobytes()
    assert trained.vectors.tobytes() == vectors.tobytes()


def test_gradient_step_memory_is_bounded():
    # d = D = 64 with a full validation subsample of 256 rows: the value pass
    # holds the (256, C, d) centroid distances and the batch and probe
    # embeddings, the ascent pass the batch and probe embeddings and their
    # gradients, a few hundred kB each
    gen = np.random.default_rng(11)
    d = D = 64
    n, n_val = 64, encoder.VAL_SUBSAMPLE
    data = LabeledDataset(gen.normal(size=(n, D)), np.arange(n) % 2, gen.normal(size=(n_val, D)), np.arange(n_val) % 2, 2)
    cfg = EncoderConfig(d=d, batch_size=8, seed=11)
    idx = np.arange(cfg.batch_size)
    pairs = encoder._sample_pairs(data.labels, idx, cfg.partners_per_anchor, gen)
    assert len(pairs) == cfg.batch_size * cfg.partners_per_anchor
    dirs = gen.standard_normal((len(pairs), cfg.fd_draws, D))
    bounds = encoder._feature_bounds(data)
    value, ascent = encoder._batch_objective(data, idx, cfg, data.val_features, data.val_labels, pairs, dirs, bounds)
    W = gen.normal(size=(d, D)) / np.sqrt(D)
    tracemalloc.start()
    try:
        W = W + cfg.lr * ascent(W)
        J = value(W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(W).all() and np.isfinite(J)
    assert peak < 2 * 2**20


def _check_pairs(labels, idx, partners, pairs):
    """The sampler's contract on one batch: min(partners, m) distinct cross-label partners per anchor, in order."""
    assert all(type(a) is int and type(q) is int for a, q in pairs)
    assert all(labels[a] != labels[q] for a, q in pairs)
    position = {a: i for i, a in enumerate(idx.tolist())}
    # anchor order, each anchor's partners distinct and in ascending batch position
    assert pairs == sorted(set(pairs), key=lambda pair: (position[pair[0]], position[pair[1]]))
    y = labels[idx]
    for i, a in enumerate(idx.tolist()):
        assert sum(p == a for p, _ in pairs) == min(partners, int((y != y[i]).sum()))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    C=st.integers(1, 4),
    size=st.integers(1, 24),
    partners=st.integers(1, 6),
)
def test_pair_sampling_contract(seed, C, size, partners):
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, C, size=60)  # C = 1: a one-class batch, which yields no pairs
    idx = np.sort(gen.choice(60, size=size, replace=False))
    state = gen.bit_generator.state
    pairs = encoder._sample_pairs(labels, idx, partners, gen)
    _check_pairs(labels, idx, partners, pairs)
    if np.unique(labels[idx]).size == 1:
        assert pairs == []
    gen.bit_generator.state = state
    assert encoder._sample_pairs(labels, idx, partners, gen) == pairs


def test_pair_sampling_is_uniform():
    # class-0 anchors have two candidates (fewer than the partners), the
    # others six; each anchor should get every candidate with probability
    # k / m and every k-subset with probability 1 / C(m, k), for k =
    # min(partners, m), and each observed count must lie within 5 binomial
    # standard deviations of its expectation
    labels = np.array([0, 0, 1, 0, 0, 2, 0, 0, 1, 0])
    idx = np.array([0, 2, 3, 4, 5, 7, 9])  # rows 1, 6 and 8 are outside the batch
    partners, draws = 3, 6000
    y = labels[idx]
    subsets = {}
    gen = np.random.default_rng(2024)
    for _ in range(draws):
        pairs = encoder._sample_pairs(labels, idx, partners, gen)
        chosen = {}
        for a, q in pairs:
            chosen.setdefault(a, []).append(q)
        for a, qs in chosen.items():
            subsets.setdefault(a, Counter())[tuple(qs)] += 1

    def within(count, p):
        return abs(count - draws * p) <= 5.0 * np.sqrt(draws * p * (1.0 - p)) + 1e-9

    for i, a in enumerate(idx.tolist()):
        cands = idx[y != y[i]].tolist()
        m, k = len(cands), min(partners, len(cands))
        seen = subsets[a]
        assert sum(seen.values()) == draws
        assert set(seen) <= set(combinations(cands, k))
        for c in cands:
            assert within(sum(n for qs, n in seen.items() if c in qs), k / m)
        for qs in combinations(cands, k):
            assert within(seen[qs], 1.0 / comb(m, k))


class _CountingGenerator:
    """A generator proxy that counts every method call."""

    def __init__(self, gen):
        self._gen, self.calls = gen, 0

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("size", [8, 4096])
@pytest.mark.parametrize("partners", [1, 2, 5])
def test_pair_sampling_calls_do_not_grow_with_the_batch(size, partners):
    labels = np.arange(size) % 3
    idx = np.arange(size)
    gen = _CountingGenerator(np.random.default_rng(size + partners))
    pairs = encoder._sample_pairs(labels, idx, partners, gen)
    assert len(pairs) == size * partners
    assert 1 <= gen.calls <= partners


def test_pair_sampling_memory_is_linear_in_the_batch():
    # 4,096 anchors with two partners each: the 8,192 returned tuples take
    # about 1 MB, the draws a few hundred kB; a (batch, batch) matrix of even
    # one byte per entry would take 16 MB
    labels = np.arange(4096) % 2
    idx = np.arange(4096)
    gen = np.random.default_rng(5)
    tracemalloc.start()
    try:
        pairs = encoder._sample_pairs(labels, idx, 2, gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 8192
    assert peak < 3 * 2**20
