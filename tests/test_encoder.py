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
    objective = encoder._batch_objective(data, idx, cfg, val_X, val_y, pairs, dirs)
    for W in Ws:
        value, _ = objective(W)
        assert abs(value - _reference_objective(data, idx, W, cfg, val_X, val_y, pairs, dirs)) <= TOL
        penalty = smoothness_penalty(data, PointSet(idx), W, cfg, pairs=pairs, directions=dirs)
        assert abs(penalty - _reference_penalty(data, W, cfg.fd_step, pairs, dirs)) <= TOL


def test_large_fd_step_clips_the_shifted_anchors():
    data, idx, cfg, _, _, pairs, dirs, _ = _objective_case(3, 2, 3, False, 3.0)
    _, _, shifted = encoder._probe_inputs(data, pairs, dirs, cfg.fd_step)
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
    objective = encoder._batch_objective(data, idx, cfg, val_X, val_y, pairs, dirs)
    smooth = _smooth_reference(data, idx, cfg, pairs, dirs)
    # Ws[0] is the zero matrix, where J is not differentiable; the rest embed
    # each nonzero feature row to a nonzero row (a zero feature row stays zero
    # under every W, a constant piece of J)
    for W in Ws[1:]:
        nonzero = np.linalg.norm(data.features[idx] @ W.T, axis=1) > 0.0
        assert np.array_equal(nonzero, data.features[idx].any(axis=1))
        _, grad = objective(W)
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
        return encoder._batch_objective(data, idx, cfg, data.val_features, data.val_labels, pairs, dirs)

    W0 = train_linear_encoder(data, EncoderConfig(d=2, epochs=0, seed=10)).transform
    W1 = W0 + cfg.lr * objective(1)(W0)[1]
    trained = train_linear_encoder(data, cfg)
    assert trained.training_trace == (objective(0)(W0)[0], objective(0)(W1)[0])
    assert np.array_equal(trained.transform, W1 if trained.training_trace[1] > trained.training_trace[0] else W0)


def test_gradient_step_memory_is_bounded():
    # d = D = 64 with a full validation subsample of 256 rows: one objective
    # call holds the (256, C, d) centroid distances and the batch and probe
    # embeddings, a few hundred kB
    gen = np.random.default_rng(11)
    d = D = 64
    n, n_val = 64, encoder.VAL_SUBSAMPLE
    data = LabeledDataset(gen.normal(size=(n, D)), np.arange(n) % 2, gen.normal(size=(n_val, D)), np.arange(n_val) % 2, 2)
    cfg = EncoderConfig(d=d, batch_size=8, seed=11)
    idx = np.arange(cfg.batch_size)
    pairs = encoder._sample_pairs(data.labels, idx, cfg.partners_per_anchor, gen)
    assert len(pairs) == cfg.batch_size * cfg.partners_per_anchor
    dirs = gen.standard_normal((len(pairs), cfg.fd_draws, D))
    objective = encoder._batch_objective(data, idx, cfg, data.val_features, data.val_labels, pairs, dirs)
    W = gen.normal(size=(d, D)) / np.sqrt(D)
    tracemalloc.start()
    try:
        W = W + cfg.lr * objective(W)[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(W).all()
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
