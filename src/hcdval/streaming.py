"""Incremental valuation over a growing corpus.

Each ingested batch is embedded with the frozen encoder, assigned to the
nearest leaf by cosine distance (or spawned as a new singleton leaf when no
prototype is close enough), and only the touched leaves plus their ancestors
— the dirty set — are re-valued, by the batch run's own engine
(``hcdv.propagate``) restricted to the dirty path:

* the refreshed root surplus is scored first, as a batch run scores it;
* then one pass per level, from the root down, over the families under
  dirty parents:

  - a family whose children are all dirty re-runs one shared prefix sweep;
  - a family with a mix refreshes just the dirty children, each with its
    own independent permutation draws, in one ``independent_player_estimate``
    call (the permutations of all dirty children are drawn together, and
    the distinct ones of their 2T coalitions each are scored in one payoff
    call), keeping clean siblings' estimates bit-exact;
  - clean children keep their cached masses unchanged and the dirty children
    split the residual (parent mass minus the clean children's share), so
    value drift stays confined to the dirty subtree while the point values
    still sum to the refreshed total surplus. A negative residual is split
    by the same rule, so the dirty children's shares turn negative, and a
    warning names the parent;
* last, only the dirty leaves spread their new mass over their points.

The tree is copied node by node on every batch (member sets are shared, as
they are immutable), so the input state stays a consistent pre-ingest view.

Every few steps (the rebalance period) leaves that outgrew the capacity cap
are split in place under their parent and valued within the same pass.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from .core import EMPTY_SET, LabeledDataset, PointSet, RngStream, ValueVector, class_codes, content_token
from .encoder import EmbeddingMatrix
from .hcdv import HcdvConfig, propagate, run_hcdv
from .hierarchy import HierarchyTree, balanced_split, build_tree, capacity_window
from .shapley import CoalitionGame, independent_player_estimate, monte_carlo_shapley
from .utility import CharacteristicFn


@dataclass
class StepMetrics:
    epoch: int
    latency_ms: float
    dirty_count: int
    eval_count: int
    evals_refresh: int
    evals_root: int
    evals_leaves: int
    leaf_count: int
    spawned: int
    rebalanced: bool

    @property
    def evals_masses(self) -> int:
        """The old name of ``evals_root``, still read by ``perfbench/worker.py``."""
        return self.evals_root


@dataclass
class StreamState:
    """Everything the incremental pipeline carries between batches."""

    epoch: int
    data: LabeledDataset
    embedding: EmbeddingMatrix
    tree: HierarchyTree
    cf: CharacteristicFn
    cfg: HcdvConfig
    values: np.ndarray
    masses: Dict[int, float]
    surplus: float
    assign_threshold: float
    rebalance_period: int
    tree_seed: int
    metrics: List[StepMetrics] = field(default_factory=list)

    def value_vector(self) -> ValueVector:
        return ValueVector(
            values=self.values.copy(),
            method_tag="hcdv-stream",
            seed=self.cfg.seed,
            permutations_T=self.cfg.T,
            wallclock_ms=0.0,
        )


def init_stream(
    data: LabeledDataset,
    emb: EmbeddingMatrix,
    tree: HierarchyTree,
    cf: CharacteristicFn,
    cfg: HcdvConfig,
    assign_threshold: float = 0.35,
    rebalance_period: int = 3,
    tree_seed: int = 0,
) -> StreamState:
    """Run the batch valuation once and wrap the result as stream state."""
    from .hcdv import last_run_report

    if rebalance_period < 1:
        raise ValueError("rebalance period must be positive")
    if assign_threshold < 0:
        raise ValueError("assignment threshold must be non-negative")
    tree = tree.copy()
    vec = run_hcdv(data, emb, tree, cf, cfg)
    report = last_run_report()
    return StreamState(
        epoch=0,
        data=data,
        embedding=emb,
        tree=tree,
        cf=cf,
        cfg=cfg,
        values=np.array(vec.values),
        masses=dict(report.masses),
        surplus=report.surplus,
        assign_threshold=assign_threshold,
        rebalance_period=rebalance_period,
        tree_seed=tree_seed,
    )


def _cosine_to_prototypes(z: np.ndarray, protos: np.ndarray) -> np.ndarray:
    zn = float(np.linalg.norm(z))
    pn = np.linalg.norm(protos, axis=1)
    out = np.full(protos.shape[0], 2.0)
    if zn == 0.0:
        return out
    ok = pn > 0.0
    out[ok] = 1.0 - (protos[ok] @ z) / (pn[ok] * zn)
    return out


def _grow_membership(tree: HierarchyTree, node_id: int, point: int, z: np.ndarray) -> None:
    """Append a (strictly larger) point index to a node and all its ancestors."""
    nid = node_id
    while nid is not None:
        node = tree.node(nid)
        node.members = PointSet._from_sorted(np.append(node.members.indices, point))
        m = len(node.members)
        node.prototype = node.prototype + (z - node.prototype) / m
        nid = node.parent


def _mark_dirty(tree: HierarchyTree, node_id: int, dirty: set) -> None:
    nid = node_id
    while nid is not None:
        dirty.add(nid)
        nid = tree.node(nid).parent


def ingest_batch(state: StreamState, features: np.ndarray, labels: np.ndarray) -> StreamState:
    """Ingest one batch of raw rows and return the refreshed stream state.

    The input state is left intact (readers keep a consistent pre-ingest
    view); the returned state shares only the append-only payoff cache.
    """
    t_start = time.perf_counter()
    features = np.asarray(features, dtype=np.float64)
    labels = class_codes(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("batch features and labels must align")
    if features.shape[0] == 0:
        raise ValueError("batch is empty")
    bad = labels[(labels < 0) | (labels >= state.data.num_classes)]
    if bad.size:
        raise ValueError(f"batch contains unseen label {int(bad[0])}")
    old = state.data
    if features.shape[1] != (old.feature_mean.shape[0] if old.feature_mean is not None else old.dim):
        raise ValueError("batch feature dimension does not match the corpus")

    # frozen preprocessing + frozen encoder
    if old.feature_mean is not None:
        Xb = (features - old.feature_mean) / old.feature_std
    else:
        Xb = features
    if state.embedding.transform is not None:
        Zb = Xb @ state.embedding.transform.T
    elif state.embedding.source == "identity":
        Zb = Xb
    else:
        raise ValueError("streaming needs an identity embedding or a stored linear transform")

    epoch = state.epoch + 1
    tree = state.tree.copy()
    n_old = old.n
    batch_ids = np.arange(n_old, n_old + features.shape[0], dtype=np.int64)

    new_vectors = np.vstack([state.embedding.vectors, Zb])
    data = replace(old, features=np.vstack([old.features, Xb]), labels=np.concatenate([old.labels, labels]))
    embedding = replace(state.embedding, vectors=new_vectors)
    cf = CharacteristicFn(data, embedding, lam=state.cf.lam, metric=state.cf.metric, learner=state.cf.learner)
    cf._cache = state.cf._cache  # old keys stay valid: indices are append-only
    cf._words = state.cf._words  # and so do the point words keys are made of
    evals_at_start = cf.evaluations

    # -- assignment ---------------------------------------------------------
    dirty: set = set()
    spawned = 0
    depth = tree.depth
    for i, z in zip(batch_ids.tolist(), np.asarray(Zb)):
        leaf_ids = tree.leaf_ids()
        protos = np.stack([tree.node(l).prototype for l in leaf_ids])
        dists = _cosine_to_prototypes(z, protos)
        best = int(np.argmin(dists))
        if depth >= 1 and float(dists[best]) > state.assign_threshold:
            parent_ids = tree.levels[depth - 1]
            pprotos = np.stack([tree.node(p).prototype for p in parent_ids])
            pbest = parent_ids[int(np.argmin(_cosine_to_prototypes(z, pprotos)))]
            leaf = tree._new_node(depth, pbest, PointSet._from_sorted(np.asarray([i], dtype=np.int64)), z)
            tree.levels[depth].append(leaf.id)
            _grow_membership(tree, pbest, i, z)  # the spawn parent and its ancestors
            spawned += 1
            _mark_dirty(tree, leaf.id, dirty)
        else:
            _grow_membership(tree, leaf_ids[best], i, z)
            _mark_dirty(tree, leaf_ids[best], dirty)

    # -- rebalance (due every rebalance_period steps, on capacity violation) --
    rebalanced = False
    if epoch % state.rebalance_period == 0:
        oversize = [l for l in tree.leaf_ids() if len(tree.node(l).members) > tree.leaf_cap]
        for lid in oversize:
            leaf = tree.node(lid)
            g = len(leaf.members)
            # smallest split count whose capacity window fits under the leaf cap
            K_split = max(2, -(-g // tree.leaf_cap))
            while capacity_window(g, K_split, tree.gamma)[1] > tree.leaf_cap and K_split < g:
                K_split += 1
            parts = balanced_split(
                new_vectors,
                leaf.members,
                K_split,
                tree.gamma,
                RngStream(state.tree_seed, "rebalance-split", content_token(epoch, leaf.members.indices)),
            )
            parent = leaf.parent
            tree.node(parent).children.remove(lid)
            tree.levels[depth].remove(lid)
            dirty.discard(lid)
            del tree.nodes[lid]
            for part in parts:
                child = tree._new_node(depth, parent, part, new_vectors[part.indices].mean(axis=0))
                tree.levels[depth].append(child.id)
                _mark_dirty(tree, child.id, dirty)
            rebalanced = True

    # -- hand the refreshed surplus down the dirty path ---------------------
    cfg = state.cfg
    masses = {nid: m for nid, m in state.masses.items() if nid in tree.nodes}
    marks = cf.evaluations
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    evals_root = cf.evaluations - marks
    if surplus < 0.0:
        warnings.warn(f"refreshed total surplus is negative ({surplus})")

    def refresh(level: int, families) -> Dict[int, Optional[float]]:
        estimates: Dict[int, Optional[float]] = {}
        for pid, kids in families:
            if len(kids) == 1:
                estimates[kids[0]] = None
                continue
            dirty_kids = [c for c in kids if c in dirty]
            game = CoalitionGame([tree.node(c).members for c in kids], cf)
            if len(dirty_kids) == len(kids):
                stream = RngStream(cfg.seed, "refresh-family", tree.family_token(pid), epoch)
                estimates.update(zip(kids, monte_carlo_shapley(game, cfg.T, stream).values.tolist()))
            else:
                streams = [RngStream(cfg.seed, "refresh-node", tree.node_token(c), epoch) for c in dirty_kids]
                ests = independent_player_estimate(game, [kids.index(c) for c in dirty_kids], cfg.T, streams)
                estimates.update(zip(dirty_kids, ests.tolist()))
        return estimates

    values = np.concatenate([state.values, np.zeros(features.shape[0])])
    phase, _ = propagate(tree, cf, cfg, surplus, values, masses, refresh, dirty)

    metrics = StepMetrics(
        epoch=epoch,
        latency_ms=(time.perf_counter() - t_start) * 1000.0,
        dirty_count=len(dirty),
        eval_count=cf.evaluations - evals_at_start,
        evals_refresh=phase["sweeps"],
        evals_root=evals_root,
        evals_leaves=phase["leaves"],
        leaf_count=len(tree.leaf_ids()),
        spawned=spawned,
        rebalanced=rebalanced,
    )
    return StreamState(
        epoch=epoch,
        data=data,
        embedding=embedding,
        tree=tree,
        cf=cf,
        cfg=state.cfg,
        values=values,
        masses=masses,
        surplus=surplus,
        assign_threshold=state.assign_threshold,
        rebalance_period=state.rebalance_period,
        tree_seed=state.tree_seed,
        metrics=state.metrics + [metrics],
    )


def full_recompute(state: StreamState) -> ValueVector:
    """Rebuild the tree over the current corpus and re-run the batch valuation.

    Uses a fresh payoff cache so its evaluation count is directly comparable
    with the incremental path's per-step counts.
    """
    tree = build_tree(
        state.embedding,
        state.tree.branching,
        state.tree.leaf_cap,
        state.tree.gamma,
        seed=state.tree_seed,
    )
    cf = CharacteristicFn(
        state.data,
        state.embedding,
        lam=state.cf.lam,
        metric=state.cf.metric,
        learner=state.cf.learner,
    )
    return run_hcdv(state.data, state.embedding, tree, cf, state.cfg)
