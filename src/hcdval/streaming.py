"""Incremental valuation over a growing corpus.

Each ingested batch is embedded with the frozen encoder, assigned to the
nearest leaf by cosine distance (or spawned as a new singleton leaf when no
prototype is close enough), and only the touched leaves plus their ancestors
— the dirty set — are re-valued, by the batch run's own engine
(``hcdv.propagate``) restricted to the dirty path.

Assignment (``_assign_rows``) is sequential, as each row sees the running-mean
prototypes its predecessors left, but a row costs O(leaves x d) array work
and a few small updates per ancestor: the leaf prototypes and their norms
are stacked once per step, each row refreshes only its leaf's row, and each
node's new points are appended once, after the last row. The payoff over
the grown corpus (``CharacteristicFn.grown``) computes the per-point
statistics of the new rows only.

The step's family games are the batch run's (``hcdv.level_estimator``),
keyed by the step's epoch. Clean children keep their masses and only dirty
ones are re-estimated, so value drift stays confined to the dirty subtree
while the point values still sum to the refreshed root surplus.

The tree is copied node by node on every batch (member sets are shared, as
they are immutable), so the input state stays a consistent pre-ingest view.

Every few steps (the rebalance period) leaves that outgrew the capacity cap
are split in place under their parent and valued within the same pass; the
root of a one-node tree splits into a new leaf level under it.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from .core import LabeledDataset, PointSet, RngStream, ValueVector, check_integer, class_codes, content_token
from .encoder import EmbeddingMatrix
from .hcdv import HcdvConfig, level_estimator, propagate, run_hcdv
from .hierarchy import HierarchyTree, build_tree, capacity_window, part_means, split_nodes
from .hierarchy import balanced_split  # noqa: F401  perfbench/tracer.py wraps this name
from .shapley import independent_player_estimate, monte_carlo_shapley  # noqa: F401  perfbench/tracer.py wraps these names
from .utility import CharacteristicFn


@dataclass
class StepMetrics:
    """Counters of one ingest step. ``refresh_ms`` and ``leaves_ms`` are the
    wall-clock milliseconds of its family refreshes and of its leaf games."""

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
    refresh_ms: float
    leaves_ms: float

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

    _check_streamable(emb)
    check_integer("rebalance_period", rebalance_period)
    check_integer("tree_seed", tree_seed)
    if rebalance_period < 1:
        raise ValueError("rebalance period must be positive")
    if not 0 <= assign_threshold < np.inf:
        raise ValueError("assignment threshold must be non-negative and finite")
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


def _check_streamable(emb: EmbeddingMatrix) -> None:
    """Raise unless new raw rows can be embedded: by the identity or a stored linear transform."""
    if emb.transform is None and emb.source != "identity":
        raise ValueError("streaming needs an identity embedding or a stored linear transform")


def _cosine_to_prototypes(z: np.ndarray, protos: np.ndarray, pn: np.ndarray) -> np.ndarray:
    """Cosine distance of ``z`` to each prototype row, given the rows' norms ``pn``; 2 where either norm is 0."""
    zn = float(np.linalg.norm(z))
    out = np.full(protos.shape[0], 2.0)
    if zn == 0.0:
        return out
    ok = pn > 0.0
    out[ok] = 1.0 - (protos[ok] @ z) / (pn[ok] * zn)
    return out


def _mark_dirty(tree: HierarchyTree, node_id: int, dirty: set) -> None:
    """Add a node and its ancestors to ``dirty``, which holds the ancestors of each of its nodes."""
    nid = node_id
    while nid is not None and nid not in dirty:
        dirty.add(nid)
        nid = tree.node(nid).parent


def _assign_rows(tree: HierarchyTree, first: int, Z: np.ndarray, threshold: float) -> tuple[set, int]:
    """Add embedded rows ``Z``, points ``first``, ``first + 1``, ..., to the tree in place.

    Each row goes to the leaf of the smallest cosine distance, or, past
    ``threshold``, to a new singleton leaf under the nearest parent. Rows are
    assigned one at a time, each against the prototypes its predecessors
    left, and every node that gains a row takes a running-mean step. The
    leaf prototypes and their norms are stacked once; after each row only
    the chosen leaf's row and norm are refreshed, and a spawn re-stacks.
    Members are appended once per node, after the last row.

    :returns: the dirty set (the touched leaves and their ancestors) and the
        number of spawned leaves
    """
    dirty: set = set()
    spawned = 0
    depth = tree.depth
    gained: Dict[int, List[int]] = {}  # node id -> the points it gains, in order

    def gain(nid: Optional[int], point: int, z: np.ndarray) -> None:
        while nid is not None:
            node = tree.node(nid)
            points = gained.setdefault(nid, [])
            points.append(point)
            node.prototype = node.prototype + (z - node.prototype) / (len(node.members) + len(points))
            nid = node.parent

    def stack(ids: List[int]) -> tuple:
        protos = np.stack([tree.node(nid).prototype for nid in ids])
        return protos, np.linalg.norm(protos, axis=1)

    leaf_ids = tree.leaf_ids()
    protos, norms = stack(leaf_ids)
    for i, z in enumerate(Z, start=first):
        dists = _cosine_to_prototypes(z, protos, norms)
        best = int(np.argmin(dists))
        if depth >= 1 and float(dists[best]) > threshold:
            parent_ids = tree.levels[depth - 1]
            pbest = parent_ids[int(np.argmin(_cosine_to_prototypes(z, *stack(parent_ids))))]
            leaf = tree._new_node(depth, pbest, PointSet._from_sorted(np.asarray([i], dtype=np.int64)), z)
            tree.levels[depth].append(leaf.id)
            gain(pbest, i, z)  # the spawn parent and its ancestors
            spawned += 1
            _mark_dirty(tree, leaf.id, dirty)
            leaf_ids = tree.leaf_ids()
            protos, norms = stack(leaf_ids)
        else:
            gain(leaf_ids[best], i, z)
            _mark_dirty(tree, leaf_ids[best], dirty)
            protos[best] = tree.node(leaf_ids[best]).prototype
            norms[best] = np.linalg.norm(protos[best : best + 1], axis=1)[0]  # the stacked call's reduction
    for nid, points in gained.items():
        node = tree.node(nid)
        node.members = PointSet._from_sorted(np.concatenate([node.members.indices, points]))
    return dirty, spawned


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
    _check_streamable(state.embedding)
    Zb = Xb if state.embedding.transform is None else Xb @ state.embedding.transform.T

    epoch = state.epoch + 1
    tree = state.tree.copy()

    new_vectors = np.vstack([state.embedding.vectors, Zb])
    data = replace(old, features=np.vstack([old.features, Xb]), labels=np.concatenate([old.labels, labels]))
    embedding = replace(state.embedding, vectors=new_vectors)
    cf = state.cf.grown(data, embedding)  # counts this step's evaluations from zero

    # -- assignment ---------------------------------------------------------
    dirty, spawned = _assign_rows(tree, old.n, np.asarray(Zb), state.assign_threshold)
    depth = tree.depth

    # -- rebalance (due every rebalance_period steps, on capacity violation) --
    rebalanced = False
    if epoch % state.rebalance_period == 0:
        oversize = [l for l in tree.leaf_ids() if len(tree.node(l).members) > tree.leaf_cap]
        problems = []
        for lid in oversize:
            members = tree.node(lid).members
            g = len(members)
            # smallest split count whose capacity window fits under the leaf cap
            K_split = max(2, -(-g // tree.leaf_cap))
            while capacity_window(g, K_split, tree.gamma)[1] > tree.leaf_cap and K_split < g:
                K_split += 1
            problems.append((members, K_split, RngStream(state.tree_seed, "rebalance-split", content_token(epoch, members.indices))))
        split_parts = split_nodes(new_vectors, problems, tree.gamma)
        prototypes = iter(part_means(new_vectors, [part for parts in split_parts for part in parts]))
        for lid, parts in zip(oversize, split_parts):
            parent = tree.node(lid).parent
            if parent is None:  # a one-node tree: its parts form a new leaf level under it, as in build_tree
                parent, depth = lid, depth + 1
                tree.levels.append([])
            else:
                tree.node(parent).children.remove(lid)
                tree.levels[depth].remove(lid)
                dirty.discard(lid)
                del tree.nodes[lid]
            for part in parts:
                child = tree._new_node(depth, parent, part, next(prototypes))
                tree.levels[depth].append(child.id)
                _mark_dirty(tree, child.id, dirty)
            rebalanced = True

    # -- score the refreshed surplus and hand it down the dirty path ---------
    cfg = state.cfg
    masses = {nid: m for nid, m in state.masses.items() if nid in tree.nodes}
    values = np.concatenate([state.values, np.zeros(features.shape[0])])
    surplus, phase, phase_ms = propagate(tree, cf, cfg, values, masses, level_estimator(tree, cf, cfg, epoch), dirty)
    if surplus < 0.0:
        warnings.warn(f"refreshed total surplus is negative ({surplus})")

    metrics = StepMetrics(
        epoch=epoch,
        latency_ms=(time.perf_counter() - t_start) * 1000.0,
        dirty_count=len(dirty),
        eval_count=cf.evaluations,
        evals_refresh=phase["sweeps"],
        evals_root=phase["root"],
        evals_leaves=phase["leaves"],
        leaf_count=len(tree.leaf_ids()),
        spawned=spawned,
        rebalanced=rebalanced,
        refresh_ms=phase_ms["sweeps"],
        leaves_ms=phase_ms["leaves"],
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
