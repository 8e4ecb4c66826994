"""End-to-end acceptance gates for the whole valuation engine.

Each test below is one numbered gate; the terminal summary prints one
PASS/FAIL line per gate (see conftest). The gates pin the load-bearing
guarantees: oracle axioms, Monte-Carlo concentration, surplus conservation,
estimator additivity and regret, tree balance, streaming reuse, noisy-label
selection quality, evaluation-cost accounting, and encoder sanity.
"""

import math
import time

import numpy as np
import pytest

from hcdval import (
    CharacteristicFn,
    CoalitionGame,
    EncoderConfig,
    HcdvConfig,
    PointSet,
    RngStream,
    build_tree,
    concentration_check,
    content_token,
    dataset_from_arrays,
    diagnostic_hcdv,
    efficiency_check,
    exact_shapley,
    flat_mcds,
    flip_labels,
    hierarchical_error_budget,
    identity_embeddings,
    ingest_batch,
    init_stream,
    last_run_report,
    make_synthetic,
    monte_carlo_shapley,
    normalized_dispersion,
    random_values,
    run_hcdv,
    smoothness_penalty,
    surrogate_regret,
    topk_select,
    train_linear_encoder,
)

from conftest import random_table_game


def make_game(K, payoff_fn, bound=1.0):
    return CoalitionGame([PointSet([i]) for i in range(K)], payoff_fn, bound=bound)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_exact_oracle_and_axioms():
    start = time.perf_counter()

    # the one-odd-glove game: player 0 completes a pair with either partner
    def glove(points):
        ids = set(points.indices.tolist())
        return 1.0 if 0 in ids and (1 in ids or 2 in ids) else 0.0

    est = exact_shapley(make_game(3, glove))
    assert est.values == pytest.approx([2 / 3, 1 / 6, 1 / 6], abs=1e-9)

    master = RngStream(2024, "axiom-games").generator()
    for trial in range(100):
        K = int(master.integers(2, 7))
        base, _ = random_table_game(K, seed=int(master.integers(0, 2**31)))
        phi = exact_shapley(base).values

        # efficiency: the values split exactly the full-coalition surplus
        surplus = base.value_of_ids(range(K)) - base.value_of_ids([])
        assert abs(phi.sum() - surplus) <= 1e-9

        # symmetry: averaging the game over an index swap equalises the pair
        i, j = sorted(master.choice(K, size=2, replace=False).tolist())

        def swapped(points, i=i, j=j):
            ids = [j if p == i else i if p == j else p for p in points.indices.tolist()]
            return base._eval(PointSet(ids))

        sym = exact_shapley(make_game(K, lambda pts: 0.5 * (base._eval(pts) + swapped(pts))))
        assert abs(sym.values[i] - sym.values[j]) <= 1e-9

        # dummy: a player the payoff ignores is worth exactly zero
        def ignores_last(points, K=K):
            return base._eval(PointSet([p for p in points.indices.tolist() if p != K]))

        dummy = exact_shapley(make_game(K + 1, ignores_last))
        assert abs(dummy.values[K]) <= 1e-9

        # additivity: values of a sum game are the sums of values
        other, _ = random_table_game(K, seed=int(master.integers(0, 2**31)))
        combined = exact_shapley(
            make_game(K, lambda pts: base._eval(pts) + other._eval(pts), bound=2.0)
        )
        assert combined.values == pytest.approx(
            phi + exact_shapley(other).values, abs=1e-9
        )

    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------- criterion 2


def test_criterion_2_monte_carlo_concentration():
    start = time.perf_counter()
    game, _ = random_table_game(5, seed=77)
    report = concentration_check(
        game, T_grid=(64, 256, 1024), trials=200, delta=0.05, rng=RngStream(77, "acc-conc")
    )
    assert report.exceed_ok, f"exceedance {report.exceed_rate} over budget {report.exceed_budget}"
    assert report.slope_ok and -0.7 <= report.slope <= -0.3, f"slope {report.slope}"
    assert report.passed
    assert time.perf_counter() - start < 120.0


# --------------------------------------------------------------- criterion 3


def test_criterion_3_efficiency_and_error_budget():
    start = time.perf_counter()

    # normalised runs conserve the surplus in every configuration
    data = make_synthetic(n=200, subclusters=3, overlap=0.4, seed=13)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(3, 2), leaf_cap=8, seed=13)
    for scope in ("parent", "global"):
        for sampling in ("prefix", "independent"):
            for leaf_mode in ("exact_if_small", "always_uniform"):
                for lam in (0.0, 0.5):
                    cf = CharacteristicFn(data, emb, lam=lam)
                    cfg = HcdvConfig(
                        T=16,
                        lam=lam,
                        leaf_cap=8,
                        leaf_mode=leaf_mode,
                        seed=13,
                    )
                    if (scope, sampling) == ("parent", "prefix"):
                        phi = run_hcdv(data, emb, tree, cf, cfg)
                    else:
                        phi = diagnostic_hcdv(data, emb, tree, cf, cfg, scope, sampling)
                    gap = efficiency_check(phi, cf)
                    assert gap <= 1e-6, (
                        f"scope={scope} sampling={sampling} leaf_mode={leaf_mode} "
                        f"lam={lam}: efficiency gap {gap}"
                    )

    # the raw (no-normalisation) diagnostic stays inside its measured budget
    # on a 2-level tree whose level games have at most 6 coalitions
    small = make_synthetic(n=24, subclusters=2, overlap=0.2, seed=11)
    emb_s = identity_embeddings(small)
    tree_s = build_tree(emb_s, branching=(2, 3), leaf_cap=6, seed=11)
    assert len(tree_s.levels) == 3  # root plus two played levels
    assert all(len(tree_s.levels[lvl]) <= 6 for lvl in range(1, len(tree_s.levels)))
    cf_s = CharacteristicFn(small, emb_s, lam=0.5)
    budget = hierarchical_error_budget(
        small, emb_s, tree_s, cf_s, HcdvConfig(T=24, lam=0.5, leaf_cap=6, seed=11)
    )
    assert budget.satisfied, (
        f"deviation {budget.deviation} exceeds measured bound {budget.bound}"
    )
    assert budget.deviation == abs(budget.total_value - budget.surplus)
    assert time.perf_counter() - start < 300.0


# --------------------------------------------------------------- criterion 4


def test_criterion_4_shared_log_additivity():
    master = RngStream(404, "log-pairs").generator()
    for trial in range(50):
        K = int(master.integers(2, 9))
        g1, t1 = random_table_game(K, seed=int(master.integers(0, 2**31)))
        g2, t2 = random_table_game(K, seed=int(master.integers(0, 2**31)))

        def summed(points):
            return t1[points.key()] + t2[points.key()]

        g12 = make_game(K, summed, bound=2.0)
        first = monte_carlo_shapley(g1, T=8, rng=RngStream(404, "sweep", content_token(trial)))
        log = first.permutation_log
        second = monte_carlo_shapley(g2, T=8, rng=None, permutation_log=log)
        both = monte_carlo_shapley(g12, T=8, rng=None, permutation_log=log)
        assert np.allclose(both.values, first.values + second.values, rtol=0.0, atol=1e-12)


# --------------------------------------------------------------- criterion 5


def test_criterion_5_topk_regret_bound():
    gen = RngStream(505, "regret-triples").generator()
    for trial in range(1000):
        n = int(gen.integers(2, 31))
        ref = gen.uniform(-1.0, 1.0, size=n)
        scale = float(gen.uniform(0.0, 0.5))
        test = ref + gen.uniform(-scale, scale, size=n)
        k = int(gen.integers(1, n + 1))
        report = surrogate_regret(ref, test, k)
        assert 0.0 <= report.regret <= 2.0 * k * report.eps_inf + 1e-12
        assert report.bound == 2.0 * k * report.eps_inf


# --------------------------------------------------------------- criterion 6


def test_criterion_6_tree_balance_and_partition():
    gen = RngStream(606, "tree-draws").generator()
    for trial in range(100):
        n = int(gen.integers(24, 121))
        d = int(gen.integers(2, 5))
        depth = int(gen.integers(1, 3))
        branching = tuple(int(gen.integers(2, 6)) for _ in range(depth))
        leaf_cap = int(gen.integers(max(branching), 16))
        emb = gen.normal(size=(n, d))
        tree = build_tree(emb, branching, leaf_cap=leaf_cap, gamma=0.25, seed=trial)
        # raises on any capacity-window or partition violation
        tree.validate(embedding=emb, check_leaf_cap=True, check_window=True)
        root = tree.node(tree.root_id).members
        assert len(root) == n
        leaf_union = np.sort(
            np.concatenate([tree.node(l).members.indices for l in tree.leaf_ids()])
        )
        assert np.array_equal(leaf_union, np.arange(n))


# --------------------------------------------------------------- criterion 7


def _ring_blobs(n_per_blob, n_blobs=16, radius=8.0, sigma=0.4, seed=0):
    """Equal blobs on a ring of directions; labels alternate around the ring."""
    rng = np.random.default_rng(seed)
    feats, labs = [], []
    for b in range(n_blobs):
        a = 2.0 * math.pi * b / n_blobs
        center = np.array([radius * math.cos(a), radius * math.sin(a)])
        feats.append(rng.normal(0.0, sigma, size=(n_per_blob, 2)) + center)
        labs.append(np.full(n_per_blob, b % 2, dtype=np.int64))
    X = np.vstack(feats)
    y = np.concatenate(labs)
    order = rng.permutation(len(y))
    return X[order], y[order], rng


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_7_streaming_reuse():
    X, y, rng = _ring_blobs(n_per_blob=25, seed=70)
    data = dataset_from_arrays(X, y, val_fraction=0.2, seed=70, standardise=False)
    emb = identity_embeddings(data)
    # 16 one-blob leaves; the cap leaves room for each leaf to absorb a batch
    tree = build_tree(emb, branching=(4, 4), leaf_cap=60, gamma=0.25, seed=70)
    cf = CharacteristicFn(data, emb, lam=0.5)
    cfg = HcdvConfig(T=32, lam=0.5, leaf_cap=60, leaf_mode="always_uniform", seed=70)
    state = init_stream(
        data, emb, tree, cf, cfg, assign_threshold=0.35, rebalance_period=10**6
    )

    incremental_evals = 0
    full_evals = 0
    for step in range(10):
        # each batch lands in one ring blob, so only that subtree goes dirty
        a = 2.0 * math.pi * step / 16
        center = np.array([8.0 * math.cos(a), 8.0 * math.sin(a)])
        feats = rng.normal(0.0, 0.4, size=(150, 2)) + center
        labs = np.full(150, step % 2, dtype=np.int64)

        before = {
            l: (tuple(state.tree.node(l).members.indices.tolist()), state.values[state.tree.node(l).members.indices].tobytes())
            for l in state.tree.leaf_ids()
        }
        state = ingest_batch(state, feats, labs)
        metrics = state.metrics[-1]

        # the ingest touches a strict subset of leaves and spawns no rebuild
        assert not metrics.rebalanced
        assert 0 < metrics.dirty_count < metrics.leaf_count

        untouched = 0
        for leaf_id in state.tree.leaf_ids():
            node = state.tree.node(leaf_id)
            prior = before.get(leaf_id)
            if prior is None:
                continue
            members, payload = prior
            if tuple(node.members.indices.tolist()) == members:
                assert state.values[node.members.indices].tobytes() == payload
                untouched += 1
        assert untouched >= 1

        incremental_evals += metrics.eval_count
        assert metrics.latency_ms < 10_000.0

        # a from-scratch run on the very same stream state, counted fresh
        cf_full = CharacteristicFn(state.data, state.embedding, lam=0.5)
        t_full = time.perf_counter()
        run_hcdv(state.data, state.embedding, state.tree, cf_full, state.cfg)
        assert time.perf_counter() - t_full < 10.0
        full_evals += last_run_report().eval_count

    assert incremental_evals < 0.5 * full_evals, (
        f"incremental {incremental_evals} vs full {full_evals}"
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_noisy_selection_beats_random():
    start = time.perf_counter()
    gaps = []
    for seed in (0, 1, 2):
        data = make_synthetic(n=3000, subclusters=3, overlap=0.4, seed=seed)
        noisy, _ = flip_labels(data, fraction=0.2, seed=seed + 100)
        emb = identity_embeddings(noisy)
        cf = CharacteristicFn(noisy, emb, lam=0.0, learner="nearest_centroid", metric="accuracy")
        tree = build_tree(emb, branching=(6, 6, 6), leaf_cap=12, seed=seed)
        phi = run_hcdv(noisy, emb, tree, cf, HcdvConfig(T=32, lam=0.0, leaf_cap=12, seed=seed))

        k = int(0.3 * noisy.n)
        chosen = topk_select(phi.values, k)
        control = topk_select(random_values(noisy.n, RngStream(seed, "rand-base")).values, k)

        scorer = CharacteristicFn(noisy, emb, lam=0.0, learner="ridge_logistic", metric="auc")
        gaps.append(scorer.evaluate(chosen) - scorer.evaluate(control))

    mean_gap = float(np.mean(gaps))
    assert mean_gap >= 0.03, f"mean AUC gap {mean_gap:+.4f} from per-seed gaps {gaps}"
    assert time.perf_counter() - start < 900.0


# --------------------------------------------------------------- criterion 9


def test_criterion_9_evaluation_cost_accounting():
    data = make_synthetic(n=300, subclusters=3, overlap=0.4, seed=90)
    emb = identity_embeddings(data)
    T = 64

    cf_h = CharacteristicFn(data, emb, lam=0.5)
    tree = build_tree(emb, branching=(6,), leaf_cap=60, seed=90)
    before = cf_h.evaluations
    run_hcdv(data, emb, tree, cf_h, HcdvConfig(T=T, lam=0.5, leaf_cap=60, seed=90))
    report = last_run_report()

    # instrumentation: the counter, the phase ledger, and the payoff-store
    # delta agree exactly, and stay within the closed-form ceiling
    measured = cf_h.evaluations - before
    assert report.eval_count == measured
    assert report.eval_count == sum(report.phase_counts.values())
    per_player = T + 1
    leaf_term = sum(
        2 ** len(tree.node(l).members)
        for l in tree.leaf_ids()
        if 2 <= len(tree.node(l).members) <= min(tree.leaf_cap, 12)
    )
    ceiling = 2 + sum(k * (per_player + 1) for k in report.level_player_counts) + leaf_term
    assert report.eval_bound == ceiling
    assert report.eval_count <= report.eval_bound

    # the hierarchy needs under 20% of the flat estimator's evaluations
    cf_flat = CharacteristicFn(data, emb, lam=0.5)
    before_flat = cf_flat.evaluations
    flat_mcds(data, cf_flat, T=T, rng=RngStream(90, "flat"))
    flat_evals = cf_flat.evaluations - before_flat
    assert report.eval_count < 0.2 * flat_evals, (
        f"hierarchical {report.eval_count} vs flat {flat_evals}"
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_encoder_sanity():
    data = make_synthetic(n=80, subclusters=1, overlap=0.3, seed=101, dim=3)
    cfg = EncoderConfig(
        d=2, lam=1.0, alpha=0.05, epochs=3, batch_size=16, partners_per_anchor=2, seed=101
    )
    init = train_linear_encoder(data, EncoderConfig(
        d=2, lam=1.0, alpha=0.05, epochs=0, batch_size=16, partners_per_anchor=2, seed=101
    ))
    trained = train_linear_encoder(data, cfg)

    everything = data.all_points()
    disp_init = normalized_dispersion(init.vectors, data.labels, everything).value
    disp_trained = normalized_dispersion(trained.vectors, data.labels, everything).value
    assert disp_trained >= disp_init - 1e-12

    # snapshot selection never hands back an encoder scoring below the init
    trace = trained.training_trace
    assert max(trace) >= trace[0]

    # the finite-difference smoothness penalty is a mean of squares
    gen = RngStream(1010, "penalty-probes").generator()
    probe_cfg = EncoderConfig(d=2, fd_step=0.05, seed=1010)
    for _ in range(1000):
        W = gen.normal(scale=float(gen.uniform(0.1, 3.0)), size=(2, 3))
        batch = PointSet(np.sort(gen.choice(data.n, size=12, replace=False)))
        assert smoothness_penalty(data, batch, W, probe_cfg) >= 0.0
