"""The benchmark tracer's patch sites must all exist in the library.

``perfbench/tracer.py`` wraps library functions on the names their callers
look up, reading each one with ``owner.__dict__[attr]``. A renamed or removed
name breaks every traced benchmark run, so each site is resolved here the
same way, without running the benchmark.
"""

import importlib
import importlib.util
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


def test_stream_refresh_calls_the_traced_name_once_per_partly_dirty_family(monkeypatch):
    """The tracer times refreshes through ``hcdval.streaming.independent_player_estimate``.

    ``ingest_batch`` must look that name up once per family with some but
    not all children dirty, passing all of that family's dirty children, so
    the benchmark's ``shapley.independent_*`` spans count families.
    """
    from hcdval import streaming
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
    traced = streaming.independent_player_estimate

    def counting(game, players, T, rng):
        calls.append(frozenset(tuple(game.players[k].indices.tolist()) for k in players))
        return traced(game, players, T, rng)

    monkeypatch.setattr(streaming, "independent_player_estimate", counting)
    new = streaming.ingest_batch(state, features[120:128], labels[120:128])

    before = {nid: tuple(node.members.indices.tolist()) for nid, node in state.tree.nodes.items()}
    want = []
    for level in range(1, len(new.tree.levels)):
        for _, kids in new.tree.families(level):
            members = [tuple(new.tree.node(c).members.indices.tolist()) for c in kids]
            dirty = [m for c, m in zip(kids, members) if before[c] != m]
            if 0 < len(dirty) < len(kids):
                want.append(frozenset(dirty))
    assert sorted(map(sorted, calls)) == sorted(map(sorted, want))
    assert max(len(players) for players in calls) >= 2
