"""Balanced cluster hierarchy over embedding rows.

The tree is built top-down: any node larger than the leaf cap is split with
balanced k-means into K parts whose sizes stay inside a capacity window
around the even share s = ceil(|parent| / K); nodes already at or under the
cap are carried down as single-child chains so every level partitions the
full index set and all final leaves sit at the bottom level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import PointSet, RngStream, content_token, union
from .utility import _nearest_centroids


def _as_vectors(embedding) -> np.ndarray:
    vectors = getattr(embedding, "vectors", embedding)
    return np.ascontiguousarray(vectors, dtype=np.float64)


def _check_finite(X: np.ndarray, rows: np.ndarray) -> None:
    """Reject embedding rows ``X`` (row i is embedding row ``rows[i]``) holding a NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"embedding row {int(rows[bad[0]])} is not finite")


def _kmeans_pp_init(X: np.ndarray, K: int, gen: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((K, X.shape[1]))
    first = int(gen.integers(n))
    centroids[0] = X[first]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass sits on already-chosen points; fall back to uniform
            choice = int(gen.integers(n))
        else:
            choice = int(gen.choice(n, p=d2 / total))
        centroids[k] = X[choice]
        d2 = np.minimum(d2, ((X - centroids[k]) ** 2).sum(axis=1))
    return centroids


def _cluster_sums(X: np.ndarray, assign: np.ndarray, K: int) -> np.ndarray:
    """(K, D) sums of each cluster's rows, added as ``X[assign == k].sum(axis=0)`` adds them.

    numpy sums the rows of a matrix one after another from index 0, as
    ``np.bincount`` adds its weights, here each entry of X into bin
    (cluster, column); but it sums a single column pairwise, which only its
    own sum repeats.
    """
    D = X.shape[1]
    if D == 1:
        return np.array([[X[assign == k, 0].sum()] for k in range(K)])
    bins = (assign * D)[:, None] + np.arange(D)
    return np.bincount(bins.ravel(), weights=X.ravel(), minlength=K * D).reshape(K, D)


def _moved_beyond(step: np.ndarray, tol: float) -> bool:
    """Whether ``np.linalg.norm`` of some row of ``step`` exceeds ``tol``.

    Any two summation orders of the D squares agree to within a relative
    2 gamma_D (Higham, sec. 3.1), so a squared length outside a relative
    4 (D + 2) u window around tol^2 decides alone; rows inside it are measured
    with ``np.linalg.norm`` itself.
    """
    squares = np.einsum("kd,kd->k", step, step)
    limit = tol * tol
    slack = 4.0 * (step.shape[1] + 2) * np.finfo(np.float64).eps * limit
    if (squares > limit + slack).any():
        return True
    near = np.flatnonzero(squares >= limit - slack)
    return any(float(np.linalg.norm(step[k])) > tol for k in near.tolist())


def _lloyd(X: np.ndarray, centroids: np.ndarray, max_iter: int = 50, tol: float = 1e-6):
    """Lloyd iterations from the given centroids until none moves by more than ``tol``.

    Each point goes to its nearest centroid by the certified GEMM kernel of
    the payoff (``_nearest_centroids``), whose argmin equals that of the
    direct sum_k (x_k - c_k)^2, ties to the lower centroid. A non-empty
    cluster's centroid becomes its members' mean, rounded as
    ``X[assign == k].mean(axis=0)``; an empty cluster keeps its centroid.
    """
    K = centroids.shape[0]
    every = np.ones((1, K), dtype=bool)
    for _ in range(max_iter):
        assign = _nearest_centroids(centroids[None], every, X)[0]
        counts = np.bincount(assign, minlength=K)
        filled = counts > 0
        new_centroids = centroids.copy()
        new_centroids[filled] = _cluster_sums(X, assign, K)[filled] / counts[filled, None]
        moved = _moved_beyond(new_centroids - centroids, tol)
        centroids = new_centroids
        if not moved:
            break
    return centroids


def capacity_window(size: int, K: int, gamma: float) -> tuple[int, int, int]:
    """Even share s = ceil(size / K) and the window [floor((1-gamma)s), ceil((1+gamma)s)]."""
    s = -(-size // K)
    return int(np.floor((1.0 - gamma) * s)), int(np.ceil((1.0 + gamma) * s)), s


def balanced_split(embedding, members: PointSet, K: int, gamma: float = 0.25, seed=0) -> List[PointSet]:
    """Split a point set into K non-empty parts of near-even size.

    Runs seeded k-means (k-means++ init, Lloyd iterations) on the members'
    embedding rows, then reassigns points greedily in descending margin order
    (distance to second-closest centroid minus closest, ties by ascending
    index) under a hard per-part cap of ceil((1+gamma) * s). A final repair
    pass tops up parts that fall below the window minimum by pulling the
    closest points from parts with slack, so every part is non-empty even when
    K equals the member count.

    Parts are returned ordered by their smallest member index.
    """
    m = len(members)
    if K < 1:
        raise ValueError("K must be positive")
    if K > m:
        raise ValueError(f"cannot split {m} points into {K} non-empty parts")
    X = _as_vectors(embedding)[members.indices]
    _check_finite(X, members.indices)
    if K == 1:
        return [members]
    if isinstance(seed, RngStream):
        gen = seed.generator()
    else:
        gen = RngStream(int(seed), "balanced-split").generator()
    centroids = _lloyd(X, _kmeans_pp_init(X, K, gen))

    dists = np.sqrt(((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
    nearest_two = np.sort(dists, axis=1)[:, :2]
    margin = nearest_two[:, 1] - nearest_two[:, 0]
    order = np.lexsort((np.arange(m), -margin))

    s_min, s_max, s = capacity_window(m, K, gamma)
    s_min_eff = max(1, min(s_min, m // K))
    pref = np.argsort(dists, axis=1, kind="stable").tolist()
    part_of = [-1] * m
    sizes = [0] * K
    for p in order.tolist():
        for k in pref[p]:
            if sizes[k] < s_max:
                part_of[p] = k
                sizes[k] += 1
                break
    assign = np.array(part_of, dtype=np.int64)
    counts = np.array(sizes, dtype=np.int64)

    # repair: no part may sit below the effective minimum (and none may be
    # empty); the recipient takes the first point, by index, at the smallest
    # distance among the points of parts above the minimum
    while counts.min() < s_min_eff:
        recipient = int(np.argmin(counts))
        donor_held = counts[assign] > s_min_eff
        best_point = int(np.argmin(np.where(donor_held, dists[:, recipient], np.inf)))
        counts[assign[best_point]] -= 1
        assign[best_point] = recipient
        counts[recipient] += 1

    parts = [PointSet._from_sorted(members.indices[assign == k]) for k in range(K)]
    parts.sort(key=lambda ps: int(ps.indices[0]))
    return parts


@dataclass
class TreeNode:
    id: int
    level: int
    parent: Optional[int]
    children: List[int]
    members: PointSet
    prototype: np.ndarray


class HierarchyTree:
    """A balanced hierarchy: levels[0] = [root], levels[-1] = the leaves."""

    def __init__(self, branching: Sequence[int], leaf_cap: int, gamma: float):
        self.branching = [int(k) for k in branching]
        self.leaf_cap = int(leaf_cap)
        self.gamma = float(gamma)
        self.nodes: Dict[int, TreeNode] = {}
        self.levels: List[List[int]] = []
        self._next_id = 0

    # -- construction -----------------------------------------------------

    def _new_node(self, level: int, parent: Optional[int], members: PointSet, prototype: np.ndarray) -> TreeNode:
        node = TreeNode(
            id=self._next_id,
            level=level,
            parent=parent,
            children=[],
            members=members,
            prototype=np.asarray(prototype, dtype=np.float64),
        )
        self._next_id += 1
        self.nodes[node.id] = node
        if parent is not None:
            self.nodes[parent].children.append(node.id)
        return node

    # -- views ------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of split levels L; the tree has L+1 node layers."""
        return len(self.levels) - 1

    @property
    def root_id(self) -> int:
        return self.levels[0][0]

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def leaf_ids(self) -> List[int]:
        return list(self.levels[-1])

    def families(self, level: int) -> List[tuple[int, List[int]]]:
        """(parent, children) pairs whose children live at the given level."""
        out = []
        for pid in self.levels[level - 1]:
            kids = self.nodes[pid].children
            if kids:
                out.append((pid, list(kids)))
        return out

    def family_token(self, parent_id: int) -> bytes:
        """Content digest of a family: child level plus each child's members."""
        parent = self.nodes[parent_id]
        parts: list = [parent.level + 1]
        for cid in parent.children:
            parts.append(self.nodes[cid].members.indices)
        return content_token(*parts)

    def node_token(self, node_id: int) -> bytes:
        node = self.nodes[node_id]
        return content_token(node.level, node.members.indices)

    # -- invariants ---------------------------------------------------------

    def validate(self, embedding=None, check_leaf_cap: bool = True, check_window: bool = False) -> None:
        root = self.nodes[self.root_id]
        for level_ids in self.levels:
            merged = union([self.nodes[i].members for i in level_ids])
            if len(merged) != len(root.members) or sum(len(self.nodes[i].members) for i in level_ids) != len(root.members):
                raise AssertionError(f"level does not partition the corpus: {level_ids}")
        for node in self.nodes.values():
            if node.children:
                kids = [self.nodes[c].members for c in node.children]
                if union(kids) != node.members or sum(len(k) for k in kids) != len(node.members):
                    raise AssertionError(f"children of node {node.id} do not partition it")
                for c in node.children:
                    if self.nodes[c].parent != node.id or self.nodes[c].level != node.level + 1:
                        raise AssertionError(f"bad parent/level links under node {node.id}")
        if check_leaf_cap:
            for lid in self.leaf_ids():
                if len(self.nodes[lid].members) > self.leaf_cap:
                    raise AssertionError(f"leaf {lid} exceeds the leaf cap")
        if embedding is not None:
            vectors = _as_vectors(embedding)
            for node in self.nodes.values():
                mean = vectors[node.members.indices].mean(axis=0)
                if np.max(np.abs(mean - node.prototype)) > 1e-6:
                    raise AssertionError(f"prototype of node {node.id} drifted from member mean")
        if check_window:
            for level in range(1, len(self.levels)):
                for pid, kids in self.families(level):
                    if len(kids) < 2:
                        continue
                    parent = self.nodes[pid]
                    s_min, s_max, _ = capacity_window(len(parent.members), len(kids), self.gamma)
                    s_min = max(1, min(s_min, len(parent.members) // len(kids)))
                    for cid in kids:
                        size = len(self.nodes[cid].members)
                        if not s_min <= size <= s_max:
                            raise AssertionError(
                                f"family under node {pid}: child size {size} outside [{s_min}, {s_max}]"
                            )

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "branching": self.branching,
            "leaf_cap": self.leaf_cap,
            "gamma": self.gamma,
            "levels": self.levels,
            "nodes": [
                {
                    "id": n.id,
                    "level": n.level,
                    "parent": n.parent,
                    "children": n.children,
                    "members": n.members.indices.tolist(),
                    "prototype": n.prototype.tolist(),
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
            ],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "HierarchyTree":
        payload = json.loads(text)
        tree = cls(payload["branching"], payload["leaf_cap"], payload["gamma"])
        tree.levels = [list(ids) for ids in payload["levels"]]
        for spec in payload["nodes"]:
            node = TreeNode(
                id=spec["id"],
                level=spec["level"],
                parent=spec["parent"],
                children=list(spec["children"]),
                members=PointSet(spec["members"]),
                prototype=np.asarray(spec["prototype"], dtype=np.float64),
            )
            tree.nodes[node.id] = node
        tree._next_id = 1 + max(tree.nodes) if tree.nodes else 0
        return tree

    def copy(self) -> "HierarchyTree":
        """An independent copy, equal to ``from_json(to_json())`` node by node.

        Member sets are immutable and shared; prototypes, child lists and
        level lists are copied.
        """
        tree = HierarchyTree(self.branching, self.leaf_cap, self.gamma)
        tree.levels = [list(ids) for ids in self.levels]
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            tree.nodes[nid] = TreeNode(
                id=n.id,
                level=n.level,
                parent=n.parent,
                children=list(n.children),
                members=n.members,
                prototype=n.prototype.copy(),
            )
        tree._next_id = 1 + max(tree.nodes) if tree.nodes else 0
        return tree


def build_tree(embedding, branching: Sequence[int], leaf_cap: int, gamma: float = 0.25, seed: int = 0) -> HierarchyTree:
    """Build the balanced hierarchy over all embedding rows.

    :param embedding: (n, d) embedding rows (EmbeddingMatrix or array)
    :param branching: per-level split factors K_1, K_2, ...; if every leaf has
        not reached the cap when the list runs out, the last factor repeats
    :param leaf_cap: maximum leaf size M; splitting stops once a node fits
    :param gamma: capacity window slack
    :param seed: split seed (each family splits under its own derived stream)
    """
    vectors = _as_vectors(embedding)
    n = vectors.shape[0]
    if n < 1:
        raise ValueError("cannot build a tree over zero rows")
    if leaf_cap < 1:
        raise ValueError("leaf cap must be positive")
    if not branching or any(int(k) < 2 for k in branching):
        raise ValueError("branching factors must all be >= 2")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    _check_finite(vectors, np.arange(n))

    tree = HierarchyTree(branching, leaf_cap, gamma)
    all_points = PointSet._from_sorted(np.arange(n, dtype=np.int64))
    root = tree._new_node(0, None, all_points, vectors.mean(axis=0))
    tree.levels.append([root.id])

    level = 0
    current = [root.id]
    while any(len(tree.nodes[i].members) > leaf_cap for i in current):
        K = tree.branching[level] if level < len(tree.branching) else tree.branching[-1]
        next_ids: List[int] = []
        for nid in current:
            node = tree.nodes[nid]
            if len(node.members) <= leaf_cap:
                child = tree._new_node(level + 1, nid, node.members, node.prototype)
                next_ids.append(child.id)
                continue
            K_eff = min(K, len(node.members))
            stream = RngStream(seed, "split", content_token(level, node.members.indices))
            for part in balanced_split(vectors, node.members, K_eff, gamma, stream):
                child = tree._new_node(level + 1, nid, part, vectors[part.indices].mean(axis=0))
                next_ids.append(child.id)
        tree.levels.append(next_ids)
        current = next_ids
        level += 1
    return tree
