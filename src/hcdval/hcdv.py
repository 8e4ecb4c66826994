"""Hierarchical data valuation: tree-guided Shapley mass propagation.

One run works root-down. The total surplus v(D) - v(empty) enters at the
root; every family (children of one parent) plays a small coalition game
whose Monte-Carlo Shapley estimates decide how the parent's mass splits among
the children (negative estimates are clipped; an all-zero family splits
evenly); leaves finally spread their own mass over member points, exactly
(rescaled within-leaf Shapley) when the leaf is small enough, evenly
otherwise. Because each family hands down exactly its parent's mass, the
point values sum to the root surplus by construction.

``propagate`` is the one hand-down engine, for the batch run and for
streaming ingest alike; each caller brings its own level estimator. Given a
``dirty`` set (the nodes whose members changed), it re-splits only families
under dirty parents and redistributes only dirty leaves; ``dirty=None``
marks every node dirty, which is the batch run.

A parallel audit map propagates budgets through the classic singleton-payoff
weights; it satisfies the same per-family conservation invariant but does not
feed the returned values.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .core import EMPTY_SET, LabeledDataset, PointSet, RngStream, ValueVector, content_token
from .hierarchy import HierarchyTree
from .shapley import CoalitionGame, EXACT_PLAYER_LIMIT, exact_shapley, monte_carlo_shapley

LEAF_MODES = ("exact_if_small", "always_uniform")
GAME_SCOPES = ("parent", "global")
SAMPLING_MODES = ("prefix", "independent")


@dataclass(frozen=True)
class HcdvConfig:
    """Run configuration for the hierarchical valuation.

    :param T: permutations per level game
    :param lam: dispersion weight (must match the characteristic function)
    :param leaf_cap: leaf capacity the tree was built with
    :param leaf_mode: "exact_if_small" plays an exact within-leaf game when
        the leaf has at most min(leaf_cap, 12) points; "always_uniform"
        spreads leaf mass evenly
    :param seed: root seed for every derived stream
    :param game_scope: "parent" plays one game per family (default);
        "global" plays one game per level over all level nodes (diagnostics)
    :param normalize: rescale estimates so each family hands down exactly its
        parent's mass (default); False keeps raw estimates (diagnostics)
    :param sampling: "prefix" shared-permutation sweeps (default) or
        "independent" per-player permutations (diagnostics)
    """

    T: int = 256
    lam: float = 0.5
    leaf_cap: int = 64
    leaf_mode: str = "exact_if_small"
    seed: int = 0
    game_scope: str = "parent"
    normalize: bool = True
    sampling: str = "prefix"

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("need at least one permutation per game")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.leaf_cap < 1:
            raise ValueError("leaf_cap must be positive")
        if self.leaf_mode not in LEAF_MODES:
            raise ValueError(f"unknown leaf_mode {self.leaf_mode!r}")
        if self.game_scope not in GAME_SCOPES:
            raise ValueError(f"unknown game_scope {self.game_scope!r}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")


@dataclass
class HcdvReport:
    """Bookkeeping from one valuation run (also backs evaluation_counter)."""

    surplus: float
    eval_count: int
    phase_counts: Dict[str, int]
    eval_bound: int
    masses: Dict[int, float]
    raw_estimates: Dict[int, Optional[float]]
    budget_map: Dict[int, float]
    level_player_counts: List[int]
    T: int
    wallclock_ms: float


_LAST_REPORT: Optional[HcdvReport] = None


def propagation_weights(parent_payoffs) -> np.ndarray:
    """Non-negative weights from singleton payoffs: clip at zero, normalise.

    An all-non-positive family falls back to even weights, so the result
    always sums to one.
    """
    w = np.clip(np.asarray(parent_payoffs, dtype=np.float64), 0.0, None)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("need a non-empty 1-d payoff vector")
    total = w.sum()
    if total > 0.0:
        return w / total
    return np.full(w.size, 1.0 / w.size)


def _split_mass(pot: float, estimates: np.ndarray) -> np.ndarray:
    clipped = np.clip(estimates, 0.0, None)
    total = clipped.sum()
    if total > 0.0:
        return pot * clipped / total
    return np.full(estimates.size, pot / estimates.size)


def _plays_exact_leaf(cfg: HcdvConfig, g: int) -> bool:
    """Whether a leaf of g points plays an exact within-leaf game."""
    return cfg.leaf_mode == "exact_if_small" and 2 <= g <= min(cfg.leaf_cap, EXACT_PLAYER_LIMIT)


def _distribute_leaf(values: np.ndarray, leaf_members: PointSet, mass: float, cfg: HcdvConfig, cf) -> None:
    """Spread one leaf's mass over its points."""
    g = len(leaf_members)
    if _plays_exact_leaf(cfg, g):
        players = [PointSet._from_sorted(leaf_members.indices[i : i + 1]) for i in range(g)]
        est = exact_shapley(CoalitionGame(players, cf))
        values[leaf_members.indices] = _split_mass(mass, est.values)
    else:
        values[leaf_members.indices] = mass / g


Families = List[Tuple[int, List[int]]]


def propagate(
    tree: HierarchyTree,
    cf,
    cfg: HcdvConfig,
    surplus: float,
    values: np.ndarray,
    masses: Dict[int, float],
    raw: Dict[int, Optional[float]],
    budget: Dict[int, float],
    level_estimates: Callable[[int, Families], Dict[int, Optional[float]]],
    dirty: Optional[Set[int]] = None,
) -> Dict[str, int]:
    """Hand the root surplus down the tree into ``values``, family by family.

    Level by level from the root, ``level_estimates(level, families)`` gets
    that level's families under dirty parents and returns raw estimates for
    (at least) their dirty children; a sole child mapped to None inherits
    its parent's whole mass. Clean children keep their masses; dirty ones
    split the residual, the parent's mass minus the clean children's, by
    their clipped estimates. Singleton payoffs set the audit budgets. Then
    every dirty leaf spreads its mass over its points, and every node is
    annotated. ``dirty=None`` marks every node dirty: the batch run. The
    maps and ``values`` are updated in place; returns the payoff evaluations
    of the estimates ("sweeps"), the singletons and the leaf games.
    """

    def evals() -> int:
        return getattr(cf, "evaluations", 0)

    if dirty is None:
        dirty = set(tree.nodes)
    phase = {"sweeps": 0, "singletons": 0, "leaves": 0}
    root = tree.root_id
    masses[root] = raw[root] = budget[root] = surplus

    for level in range(1, len(tree.levels)):
        families = [(pid, kids) for pid, kids in tree.families(level) if pid in dirty]
        marks = evals()
        raw.update(level_estimates(level, families))
        phase["sweeps"] += evals() - marks
        for pid, kids in families:
            pot = masses[pid]
            if len(kids) == 1 and raw[kids[0]] is None:
                masses[kids[0]] = budget[kids[0]] = pot
                continue
            clean_kids = [c for c in kids if c not in dirty]
            dirty_kids = [c for c in kids if c in dirty]
            residual = pot - math.fsum(masses[c] for c in clean_kids)
            if residual < 0.0 and clean_kids:
                warnings.warn(f"negative residual mass {residual} under node {pid}")
            ests = np.asarray([raw[c] for c in dirty_kids], dtype=np.float64)
            shares = _split_mass(residual, ests) if cfg.normalize else ests
            masses.update(zip(dirty_kids, shares.tolist()))
            marks = evals()
            singles = [cf.evaluate(tree.node(c).members) for c in kids]
            phase["singletons"] += evals() - marks
            for c, w in zip(kids, propagation_weights(singles).tolist()):
                budget[c] = w * pot

    marks = evals()
    for lid in tree.leaf_ids():
        if lid in dirty:
            _distribute_leaf(values, tree.node(lid).members, masses[lid], cfg, cf)
    phase["leaves"] = evals() - marks

    for nid, node in tree.nodes.items():
        node.cached_shapley = masses.get(nid)
        node.budget = budget.get(nid)
    return phase


def run_hcdv(
    data: LabeledDataset, emb, tree: HierarchyTree, cf, cfg: HcdvConfig
) -> ValueVector:
    """Value every train point by hierarchical Shapley mass propagation."""
    vectors = getattr(emb, "vectors", emb)
    if vectors.shape[0] != data.n:
        raise ValueError("embedding rows must align with the train split")
    if len(tree.node(tree.root_id).members) != data.n:
        raise ValueError("tree must cover the whole train split")
    if abs(getattr(cf, "lam", cfg.lam) - cfg.lam) > 1e-12:
        raise ValueError("characteristic lambda differs from the run config")
    if tree.leaf_cap != cfg.leaf_cap:
        raise ValueError("tree leaf capacity differs from the run config")

    start = time.perf_counter()
    before = getattr(cf, "evaluations", 0)
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    evals_root = getattr(cf, "evaluations", 0) - before
    if surplus < 0.0:
        warnings.warn(f"total surplus is negative ({surplus}); value mass will be negative")

    level_player_counts: List[int] = []
    eval_bound = 2
    per_player = 2 * cfg.T if cfg.sampling == "independent" else cfg.T + 1
    for level in range(1, len(tree.levels)):
        players = sum(len(kids) for _, kids in tree.families(level) if len(kids) > 1 or cfg.game_scope == "global")
        level_player_counts.append(players)
        eval_bound += players * per_player + players
    for lid in tree.leaf_ids():
        g = len(tree.node(lid).members)
        if _plays_exact_leaf(cfg, g):
            eval_bound += 1 << g

    def level_games(level: int, families: Families) -> Dict[int, Optional[float]]:
        if cfg.game_scope == "global":
            return _estimate_level_global(tree, [c for _, kids in families for c in kids], level, cf, cfg)
        estimates: Dict[int, Optional[float]] = {}
        for pid, kids in families:
            if len(kids) == 1:
                estimates[kids[0]] = None
                continue
            game = CoalitionGame([tree.node(c).members for c in kids], cf)
            stream = RngStream(cfg.seed, "level-game", tree.family_token(pid))
            est = monte_carlo_shapley(game, cfg.T, stream, sampling=cfg.sampling)
            estimates.update(zip(kids, est.values.tolist()))
        return estimates

    masses: Dict[int, float] = {}
    raw: Dict[int, Optional[float]] = {}
    budget: Dict[int, float] = {}
    values = np.zeros(data.n)
    phase = {"root": evals_root, **propagate(tree, cf, cfg, surplus, values, masses, raw, budget, level_games)}

    report = HcdvReport(
        surplus=surplus,
        eval_count=getattr(cf, "evaluations", 0) - before,
        phase_counts=phase,
        eval_bound=eval_bound,
        masses=masses,
        raw_estimates=raw,
        budget_map=budget,
        level_player_counts=level_player_counts,
        T=cfg.T,
        wallclock_ms=(time.perf_counter() - start) * 1000.0,
    )
    global _LAST_REPORT
    _LAST_REPORT = report

    if cfg.normalize:
        drift = abs(math.fsum(values.tolist()) - surplus)
        if not drift <= 1e-6 * max(1.0, abs(surplus)):
            raise AssertionError(f"value mass escaped during propagation: drift {drift}")

    return ValueVector(
        values=values,
        method_tag="hcdv",
        seed=cfg.seed,
        permutations_T=cfg.T,
        wallclock_ms=report.wallclock_ms,
    )


def _estimate_level_global(tree: HierarchyTree, node_ids: List[int], level: int, cf, cfg: HcdvConfig):
    """One game over every node of a level (diagnostic game scope)."""
    players = [tree.node(c).members for c in node_ids]
    token_parts: list = [level]
    for c in node_ids:
        token_parts.append(tree.node(c).members.indices)
    stream = RngStream(cfg.seed, "level-game-global", content_token(*token_parts))
    est = monte_carlo_shapley(CoalitionGame(players, cf), cfg.T, stream, sampling=cfg.sampling)
    return {c: v for c, v in zip(node_ids, est.values.tolist())}


def evaluation_counter() -> int:
    """Payoff evaluations consumed by the most recent run_hcdv call."""
    if _LAST_REPORT is None:
        raise RuntimeError("no hierarchical valuation has run yet")
    return _LAST_REPORT.eval_count


def last_run_report() -> HcdvReport:
    if _LAST_REPORT is None:
        raise RuntimeError("no hierarchical valuation has run yet")
    return _LAST_REPORT
