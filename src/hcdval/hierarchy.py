"""Balanced cluster hierarchy over embedding rows.

The tree is built top-down: any node larger than the leaf cap is split with
balanced k-means into K parts whose sizes stay inside a capacity window
around the even share s = ceil(|parent| / K); nodes already at or under the
cap are carried down as single-child chains so every level partitions the
full index set and all final leaves sit at the bottom level.

All the nodes that one level splits are split together (``split_nodes``):
their rows are stacked, each Lloyd step is a few NumPy calls for the whole
level, and each node still draws from its own seeded stream, stops on its
own and gets the parts that splitting it alone (``balanced_split``) gives.
Distances are laid out (node, centroid, point), so a minimum over the K
centroids is K passes along the points of every node at once: the Lloyd
assignment (``utility._nearest``), and the fill's preferences. The nodes of
one size draw each k-means++ seed together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import TEMP_BYTES, PointSet, RngStream, check_integer, content_token, union
from .utility import _group_sums, _nearest


def _as_vectors(embedding) -> np.ndarray:
    vectors = getattr(embedding, "vectors", embedding)
    return np.ascontiguousarray(vectors, dtype=np.float64)


def _check_finite(X: np.ndarray, rows: np.ndarray) -> None:
    """Reject embedding rows ``X`` (row i is embedding row ``rows[i]``) holding a NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"embedding row {int(rows[bad[0]])} is not finite")


def _pad(X: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of ``sizes`` stacked row-wise in ``X`` as one (B, max size, D) array, and its (B, max size) row mask.

    A short block is padded with copies of its last row, so any arithmetic on
    the padding is arithmetic on real rows and can neither overflow nor warn
    where the real rows do not.
    """
    starts = np.cumsum(sizes) - sizes
    rows = np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
    return X[starts[:, None] + rows], np.arange(sizes.max()) < sizes[:, None]


def _weighted_draws(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each row of ``p``, the index ``gen.choice(len(row), p=row)`` draws when ``gen.random()`` gives u.

    choice draws the first index past u on the cumulative sum of p scaled to
    end at 1, without its checks on p. That sum never decreases, so the index
    ``searchsorted`` finds is the count of its entries at or below u, which
    every row takes in one pass.
    """
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


def _kmeans_pp_init(X: np.ndarray, sizes: np.ndarray, Ks: np.ndarray, gens: Sequence[np.random.Generator]) -> np.ndarray:
    """(B, max K, D) k-means++ seeds of every node: node b draws K_b of its first m_b rows of ``X``.

    Node b draws with its own generator, in the order a node-by-node loop
    draws, each draw as ``gen.choice(m_b, p=d2 / total)`` would draw it
    (``_weighted_draws``). The nodes of one size draw each seed together:
    their totals, cumulative sums and draws are one array each, taken row
    by row as for one node. A node's seeds past K_b repeat its first.
    """
    B, Kmax = len(gens), int(Ks.max())
    first = [int(gen.integers(m)) for gen, m in zip(gens, sizes.tolist())]
    centroids = np.repeat(X[np.arange(B), first][:, None], Kmax, axis=1)
    groups = [((sizes == m).nonzero()[0], m) for m in np.unique(sizes).tolist()]
    # squared distances that overflow give an infinite total, rejected below;
    # a zero total divides into NaN, which the uniform draw replaces
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = ((X - centroids[:, :1]) ** 2).sum(axis=2)
        for k in range(1, Kmax):
            for nodes, m in groups:
                nodes = nodes[Ks[nodes] > k]
                if not nodes.size:
                    continue
                d2_nodes = d2[nodes, :m]
                totals = d2_nodes.sum(axis=1)
                if (totals == np.inf).any():
                    raise ValueError("squared distances between embedding rows overflow")
                # all remaining mass on already-chosen points: a uniform draw
                uniform = ~(totals > 0.0)
                u = np.array([gens[b].integers(m) if flat else gens[b].random() for b, flat in zip(nodes.tolist(), uniform.tolist())])
                choice = np.where(uniform, u, _weighted_draws(d2_nodes / totals[:, None], u)).astype(np.intp)
                centroids[nodes, k] = X[nodes, choice]
            d2 = np.minimum(d2, ((X - centroids[:, k : k + 1]) ** 2).sum(axis=2))
    return centroids


def _cluster_sums(X: np.ndarray, assign: np.ndarray, K: int) -> np.ndarray:
    """(K, D) sums of each cluster's rows, added as ``X[assign == k].sum(axis=0)`` adds them.

    numpy sums the rows of a matrix one after another from index 0, as
    ``utility._group_sums`` adds them; but it sums a single column pairwise,
    which only its own sum repeats.
    """
    if X.shape[1] == 1:
        return np.array([[X[assign == k, 0].sum()] for k in range(K)])
    return _group_sums(X, assign, K)


def _moved_beyond(step: np.ndarray, tol: float) -> np.ndarray:
    """Whether ``np.linalg.norm`` of each row of ``step`` exceeds ``tol``.

    Any two summation orders of the D squares agree to within a relative
    2 gamma_D (Higham, sec. 3.1), so a squared length outside a relative
    4 (D + 2) u window around tol^2 decides alone; rows inside it are measured
    with ``np.linalg.norm`` itself.
    """
    squares = np.einsum("kd,kd->k", step, step)
    limit = tol * tol
    slack = 4.0 * (step.shape[1] + 2) * np.finfo(np.float64).eps * limit
    moved = squares > limit + slack
    for k in (~moved & (squares >= limit - slack)).nonzero()[0].tolist():
        moved[k] = float(np.linalg.norm(step[k])) > tol
    return moved


def _segmented_lloyd(
    X: np.ndarray, rows: np.ndarray, centroids: np.ndarray, present: np.ndarray, max_iter: int = 50, tol: float = 1e-6
) -> np.ndarray:
    """Lloyd iterations of every node until none of its centroids moves by more than ``tol``.

    :param X: (B, m, D) rows of each node, padded as ``_pad`` pads them
    :param rows: (B, m) which rows are real
    :param centroids: (B, K, D) starting centroids
    :param present: (B, K) which centroids each node holds
    :returns: (B, K, D) final centroids

    Each node stops on its own, after at most ``max_iter`` steps, and its
    centroids then stay frozen while the other nodes go on. Each point goes
    to its node's nearest centroid (``utility._nearest``). A non-empty cluster's
    centroid becomes its members' mean, rounded as
    ``X[assign == k].mean(axis=0)``; an empty cluster keeps its centroid. The
    sums of all clusters come from one ``_group_sums`` call (``_cluster_sums``):
    the clusters of different nodes are different bins, so each bin adds
    the same rows in the same order as a call for its node alone.
    """
    B, K, D = centroids.shape
    out = centroids.copy()
    xx = np.einsum("bmd,bmd->bm", X, X)
    padded = not rows.all()
    live, cur = np.arange(B), out
    Xl, xxl, held, kept = X, xx, present, rows  # the live nodes' arrays,
    offsets, real = live[:, None] * K, X[rows]  # bin offsets and real rows
    for _ in range(max_iter):
        L = live.size
        bins = offsets + _nearest(Xl, xxl, cur, held)
        bins = bins[kept] if padded else bins.ravel()
        counts = np.bincount(bins, minlength=L * K).reshape(L, K, 1)
        new = _cluster_sums(real, bins, L * K).reshape(L, K, D)
        if counts.all():
            new /= counts
        else:
            new = np.divide(new, counts, out=cur.copy(), where=counts > 0)
        moved = _moved_beyond((new - cur).reshape(L * K, D), tol).reshape(L, K).any(axis=1)
        cur = new
        if moved.all():
            continue
        out[live] = new
        live, cur = live[moved], new[moved]
        if not live.size:
            return out
        Xl, xxl, held, kept = X[live], xx[live], present[live], rows[live]
        offsets, real = np.arange(live.size)[:, None] * K, Xl[kept]
    out[live] = cur
    return out


def part_means(vectors: np.ndarray, parts: Sequence[PointSet]) -> List[np.ndarray]:
    """Each part's ``vectors[part.indices].mean(axis=0)``, bit for bit, from one ``utility._group_sums`` call.

    For d >= 2 columns, NumPy's mean over the rows of an (m, d) array adds the
    rows one after another, as ``_group_sums`` adds each part's rows, and both
    divide by m. Two cases can differ. A column that is -0.0 in every row of a
    part: ``_group_sums`` adds it onto +0.0, and whether the mean keeps -0.0
    depends on how the NumPy release starts its sum, so such a part takes the
    mean itself. And with d = 1 the mean reduces a contiguous axis pairwise,
    so it is called as it is.
    """
    d = vectors.shape[1]
    if d == 1 or not parts:
        return [vectors[part.indices].mean(axis=0) for part in parts]
    rows = vectors[np.concatenate([part.indices for part in parts])]
    sizes = np.array([len(part) for part in parts])
    owner = np.repeat(np.arange(len(parts)), sizes)
    sums = _group_sums(rows, owner, len(parts))
    means = list(sums / sizes[:, None])
    zero = sums == 0.0
    if zero.any():
        negative_zeros = _group_sums((rows == 0.0) & np.signbit(rows), owner, len(parts))
        for k in np.flatnonzero((zero & (negative_zeros == sizes[:, None])).any(axis=1)).tolist():
            means[k] = vectors[parts[k].indices].mean(axis=0)
    return means


def capacity_window(size: int, K: int, gamma: float) -> tuple[int, int, int]:
    """Even share s = ceil(size / K) and the window [floor((1-gamma)s), ceil((1+gamma)s)]."""
    s = -(-size // K)
    return int(np.floor((1.0 - gamma) * s)), int(np.ceil((1.0 + gamma) * s)), s


def _direct_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(B, K, m) direct distances sqrt(sum_k (x_k - c_k)^2) from each row of ``X`` (B, m, D) to each centroid (B, K, D).

    The (B, K, points, D) difference is formed a few points at a time, within
    ``TEMP_BYTES`` (one point at least). Each distance sums its own D squares
    along one contiguous row, so it does not depend on the chunks.
    """
    (B, m, D), K = X.shape, centroids.shape[1]
    out = np.empty((B, K, m))
    step = max(1, TEMP_BYTES // (8 * B * K * D))
    for start in range(0, m, step):
        part = (X[:, None, start : start + step, :] - centroids[:, :, None, :]) ** 2
        np.sqrt(part.sum(axis=3), out=out[:, :, start : start + step])
    return out


def _segmented_fill(
    X: np.ndarray, rows: np.ndarray, centroids: np.ndarray, present: np.ndarray, gamma: float
) -> np.ndarray:
    """(B, m) part of every real row of ``X``: each node's greedy capped fill and repair.

    Takes the arrays of ``_segmented_lloyd`` and its final centroids.

    Points are placed in descending margin order (distance to the second-closest
    centroid minus the closest, ties by ascending index), each into its nearest
    part that is still under the hard cap ceil((1+gamma) * s). Then a repair
    pass tops up parts below the window minimum from parts with slack, so every
    part is non-empty even when K equals the member count. One Python loop
    places the points of every node, each node with its own counters; a
    point reads its sorted parts past the nearest only when that one is full.
    """
    B, K = present.shape
    dists = _direct_distances(X, centroids)
    dists[~present] = np.inf
    pref = np.argsort(dists, axis=1, kind="stable")  # each point's parts, nearest first
    two = np.take_along_axis(dists, pref[:, :2], axis=1)
    margin = (two[:, 1] - two[:, 0])[rows]
    node, index = rows.nonzero()
    order = np.lexsort((index, -margin))  # interleaves the nodes, each in its own order

    sizes = rows.sum(axis=1).tolist()
    Ks = present.sum(axis=1).tolist()
    windows = [capacity_window(m, k, gamma) for m, k in zip(sizes, Ks)]
    caps = [w[1] for w in windows]
    part_of = pref[:, 0][rows].tolist()
    counts = [0] * (B * K)
    node_of, index_of = node.tolist(), index.tolist()
    for p in order.tolist():
        b = node_of[p]
        base, cap = b * K, caps[b]
        if counts[base + part_of[p]] < cap:
            counts[base + part_of[p]] += 1
            continue
        # the nearest part is full: the nearest with room, ties to the lower part
        for k in pref[b, :, index_of[p]].tolist():
            if counts[base + k] < cap:
                part_of[p] = k
                counts[base + k] += 1
                break
    assign = np.zeros(rows.shape, dtype=np.int64)
    assign[rows] = part_of
    counts = np.array(counts, dtype=np.int64).reshape(B, K)

    # repair: no part may sit below the effective minimum (and none may be
    # empty); the recipient takes the first point, by index, at the smallest
    # distance among the points of parts above the minimum
    for b, (m, k, (s_min, _, _)) in enumerate(zip(sizes, Ks, windows)):
        s_min_eff = max(1, min(s_min, m // k))
        held, part = counts[b, :k], assign[b, :m]
        while held.min() < s_min_eff:
            recipient = int(np.argmin(held))
            donor_held = held[part] > s_min_eff
            best_point = int(np.argmin(np.where(donor_held, dists[b, recipient, :m], np.inf)))
            held[part[best_point]] -= 1
            part[best_point] = recipient
            held[recipient] += 1
    return assign


def split_nodes(embedding, problems: Sequence[tuple[PointSet, int, RngStream]], gamma: float) -> List[List[PointSet]]:
    """Split several point sets together, each into its own number of parts.

    :param embedding: (n, d) embedding rows (EmbeddingMatrix or array)
    :param problems: (members, K, stream) per node, 2 <= K <= |members|; each
        node draws from its own stream
    :param gamma: capacity window slack
    :returns: each node's K parts, ordered by their smallest member index

    Every node gets what ``balanced_split`` alone gives it: seeded k-means
    (k-means++ init, Lloyd iterations), then the greedy capped fill and
    repair. The nodes' rows are stacked, so each Lloyd step and the fill's
    distances cost a few NumPy calls for all nodes instead of for each.
    """
    if not problems:
        return []
    vectors = _as_vectors(embedding)
    members = [p[0].indices for p in problems]
    sizes = np.array([len(idx) for idx in members])
    Ks = np.array([p[1] for p in problems])
    stacked = np.concatenate(members)
    X_all = vectors[stacked]
    _check_finite(X_all, stacked)
    X, rows = _pad(X_all, sizes)
    present = np.arange(Ks.max()) < Ks[:, None]
    init = _kmeans_pp_init(X, sizes, Ks, [p[2].generator() for p in problems])
    assign = _segmented_fill(X, rows, _segmented_lloyd(X, rows, init, present), present, gamma)
    out = []
    for b, idx in enumerate(members):
        part = assign[b, : len(idx)]
        parts = [PointSet._from_sorted(idx[part == k]) for k in range(int(Ks[b]))]
        parts.sort(key=lambda ps: int(ps.indices[0]))
        out.append(parts)
    return out


def balanced_split(embedding, members: PointSet, K: int, gamma: float = 0.25, seed=0) -> List[PointSet]:
    """Split a point set into K non-empty parts of near-even size.

    The one-node call of ``split_nodes``, which tree levels and stream
    rebalances call for all their nodes at once: seeded k-means (k-means++
    init, Lloyd iterations) on the members' embedding rows, then points are
    reassigned greedily in descending margin order (distance to second-closest
    centroid minus closest, ties by ascending index) under a hard per-part
    cap of ceil((1+gamma) * s). A final repair pass tops up parts that fall
    below the window minimum by pulling the closest points from parts with
    slack, so every part is non-empty even when K equals the member count.

    Parts are returned ordered by their smallest member index.
    """
    m = len(members)
    if K < 1:
        raise ValueError("K must be positive")
    if K > m:
        raise ValueError(f"cannot split {m} points into {K} non-empty parts")
    vectors = _as_vectors(embedding)
    if K == 1:
        _check_finite(vectors[members.indices], members.indices)
        return [members]
    stream = seed if isinstance(seed, RngStream) else RngStream(int(seed), "balanced-split")
    return split_nodes(vectors, [(members, K, stream)], gamma)[0]


@dataclass
class TreeNode:
    id: int
    level: int
    parent: Optional[int]
    children: List[int]
    members: PointSet
    prototype: np.ndarray


class HierarchyTree:
    """A balanced hierarchy: levels[0] = [root], levels[-1] = the leaves.

    The constructor checks its parameters, for ``build_tree`` and
    ``from_json`` alike: integer branching factors of at least 2, an integer
    leaf cap of at least 1, and gamma in [0, 1).
    """

    def __init__(self, branching: Sequence[int], leaf_cap: int, gamma: float):
        for k in branching:
            check_integer("branching", k)
        check_integer("leaf_cap", leaf_cap)
        if leaf_cap < 1:
            raise ValueError("leaf cap must be positive")
        if not branching or any(k < 2 for k in branching):
            raise ValueError("branching factors must all be >= 2")
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
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
    tree = HierarchyTree(branching, leaf_cap, gamma)
    check_integer("seed", seed)
    _check_finite(vectors, np.arange(n))

    all_points = PointSet._from_sorted(np.arange(n, dtype=np.int64))
    root = tree._new_node(0, None, all_points, vectors.mean(axis=0))
    tree.levels.append([root.id])

    level = 0
    current = [root.id]
    while any(len(tree.nodes[i].members) > leaf_cap for i in current):
        K = tree.branching[level] if level < len(tree.branching) else tree.branching[-1]
        split = [nid for nid in current if len(tree.nodes[nid].members) > leaf_cap]
        problems = []
        for nid in split:
            members = tree.nodes[nid].members
            problems.append((members, min(K, len(members)), RngStream(seed, "split", content_token(level, members.indices))))
        split_parts = split_nodes(vectors, problems, gamma)
        parts_of = dict(zip(split, split_parts))
        prototypes = iter(part_means(vectors, [part for parts in split_parts for part in parts]))
        next_ids: List[int] = []
        for nid in current:
            node = tree.nodes[nid]
            if nid not in parts_of:
                child = tree._new_node(level + 1, nid, node.members, node.prototype)
                next_ids.append(child.id)
                continue
            for part in parts_of[nid]:
                child = tree._new_node(level + 1, nid, part, next(prototypes))
                next_ids.append(child.id)
        tree.levels.append(next_ids)
        current = next_ids
        level += 1
    return tree
