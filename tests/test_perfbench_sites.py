"""The benchmark tracer's patch sites must all exist in the library.

``perfbench/tracer.py`` wraps library functions on the names their callers
look up, reading each one with ``owner.__dict__[attr]``. A renamed or removed
name breaks every traced benchmark run, so each site is resolved here the
same way, without running the benchmark. A site the library never calls
reads 0, so the set of such sites is pinned too.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patch_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_SITES


@pytest.mark.parametrize("name,module_name,path", _patch_sites())
def test_patch_site_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr]), f"{name}: {module_name}.{path} is not a function"


def test_stream_refresh_calls_the_traced_name_once_per_level_with_partly_dirty_families(monkeypatch):
    """Stream refreshes look up ``hcdval.hcdv.independent_player_estimate``.

    A stream step must look that name up once per level that has a family
    with some but not all children dirty, passing every dirty child of every
    such family of the level, so that a tracer span on that name counts
    levels.
    """
    from hcdval import hcdv, streaming
    from hcdval.core import dataset_from_arrays
    from hcdval.encoder import identity_embeddings
    from hcdval.evaluation import synthetic_rows
    from hcdval.hcdv import HcdvConfig
    from hcdval.hierarchy import build_tree
    from hcdval.utility import CharacteristicFn

    features, labels = synthetic_rows(160, 3, 0.3, seed=4, dim=4)
    data = dataset_from_arrays(features[:120], labels[:120], seed=4)
    emb = identity_embeddings(data)
    tree = build_tree(emb, branching=(3, 3), leaf_cap=20, gamma=0.0)
    cfg = HcdvConfig(T=8, leaf_cap=20, seed=4)
    # no spawned leaves and no rebalance: a node is dirty exactly when its members grew
    state = streaming.init_stream(data, emb, tree, CharacteristicFn(data, emb), cfg, assign_threshold=2.0, rebalance_period=100)

    calls = []
    traced = hcdv.independent_player_estimate

    def counting(games, players, T, rng):
        calls.append({frozenset(tuple(g.players[k].indices.tolist()) for k in ks) for g, ks in zip(games, players)})
        return traced(games, players, T, rng)

    monkeypatch.setattr(hcdv, "independent_player_estimate", counting)
    new = streaming.ingest_batch(state, features[120:128], labels[120:128])

    before = {nid: tuple(node.members.indices.tolist()) for nid, node in state.tree.nodes.items()}
    want = []
    for level in range(1, len(new.tree.levels)):
        partly = set()
        for _, kids in new.tree.families(level):
            members = [tuple(new.tree.node(c).members.indices.tolist()) for c in kids]
            dirty = [m for c, m in zip(kids, members) if before[c] != m]
            if 0 < len(dirty) < len(kids):
                partly.add(frozenset(dirty))
        if partly:
            want.append(partly)
    assert calls == want
    assert max(len(families) for families in calls) >= 2
    assert max(len(players) for families in calls for players in families) >= 2


def test_the_library_never_calls_exactly_these_patch_sites(monkeypatch):
    """A site the library never calls reads 0 in every traced run.

    Each site is wrapped with a call counter, on the name the tracer wraps.
    Then a batch run with a trained encoder and stream steps with a rebalance
    go through the package's names, as the benchmark's pipeline does. A
    refactor that moves a call away from its traced name shows here as one
    more dead site.
    """
    import hcdval as H

    calls = Counter()

    def counting(site, fn):
        def counted(*args, **kwargs):
            calls[site] += 1
            return fn(*args, **kwargs)

        return counted

    sites = set()
    for _, module_name, path in _patch_sites():
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        site = f"{module_name}.{path}"
        sites.add(site)
        monkeypatch.setattr(owner, attr, counting(site, owner.__dict__[attr]))

    features, labels = H.synthetic_rows(160, 3, 0.3, seed=4, dim=4)
    data = H.dataset_from_arrays(features[:120], labels[:120], seed=4)
    emb = H.train_linear_encoder(data, H.EncoderConfig(d=3, epochs=1, seed=4))
    tree = H.build_tree(emb, branching=(3, 3), leaf_cap=20, gamma=0.0)
    cfg = H.HcdvConfig(T=4, leaf_cap=20, seed=4)
    H.run_hcdv(data, emb, tree, H.CharacteristicFn(data, emb), cfg)
    state = H.init_stream(data, emb, tree, H.CharacteristicFn(data, emb), cfg, rebalance_period=2)
    for step in range(2):
        rows = slice(120 + 20 * step, 140 + 20 * step)
        state = H.ingest_batch(state, features[rows], labels[rows])
    assert state.metrics[-1].rebalanced

    assert {site for site in sites if not calls[site]} == {
        "hcdval.encoder.fd_gradient",  # training steps along the closed-form gradient
        "hcdval.hierarchy.balanced_split",  # trees split a level at a time, by split_nodes
        "hcdval.streaming.balanced_split",
        "hcdval.shapley.CoalitionGame.value_of_mask",  # games are scored in batched payoff calls
        "hcdval.shapley.CoalitionGame.value_of_ids",
        "hcdval.utility.coalition_utility",  # payoffs are scored by CharacteristicFn._score_rows
        "hcdval.utility.normalized_dispersion",
        "hcdval.streaming.monte_carlo_shapley",  # stream steps play their games in hcdval.hcdv
        "hcdval.streaming.independent_player_estimate",
    }
