"""Hierarchical data valuation: tree-guided Shapley mass propagation.

One run works root-down. The total surplus v(D) - v(empty) enters at the
root; every family (children of one parent) plays a small coalition game
whose Monte-Carlo Shapley estimates decide how the parent's mass splits among
the children (negative estimates are clipped; an all-zero family splits
evenly); leaves finally spread their own mass over member points, exactly
(rescaled within-leaf Shapley) when the leaf is small enough, evenly
otherwise. Because each family hands down exactly its parent's mass, the
point values sum to the root surplus by construction.

A parallel audit map propagates budgets through the classic singleton-payoff
weights; it satisfies the same per-family conservation invariant but does not
feed the returned values.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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


def _distribute_leaf(values: np.ndarray, leaf_members: PointSet, mass: float, cfg: HcdvConfig, cf) -> int:
    """Spread one leaf's mass over its points; returns payoff evaluations used."""
    g = len(leaf_members)
    exact_cap = min(cfg.leaf_cap, EXACT_PLAYER_LIMIT)
    if cfg.leaf_mode == "exact_if_small" and 2 <= g <= exact_cap:
        before = getattr(cf, "evaluations", 0)
        players = [PointSet._from_sorted(leaf_members.indices[i : i + 1]) for i in range(g)]
        est = exact_shapley(CoalitionGame(players, cf))
        used = getattr(cf, "evaluations", 0) - before
        values[leaf_members.indices] = _split_mass(mass, est.values)
        return used
    values[leaf_members.indices] = mass / g
    return 0


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
    phase = {"root": 0, "sweeps": 0, "singletons": 0, "leaves": 0}
    before = getattr(cf, "evaluations", 0)

    root = tree.root_id
    surplus = cf.evaluate(tree.node(root).members) - cf.evaluate(EMPTY_SET)
    phase["root"] = getattr(cf, "evaluations", 0) - before
    if surplus < 0.0:
        warnings.warn(f"total surplus is negative ({surplus}); value mass will be negative")

    masses: Dict[int, float] = {root: surplus}
    raw: Dict[int, Optional[float]] = {root: surplus}
    budget: Dict[int, float] = {root: surplus}
    level_player_counts: List[int] = []
    eval_bound = 2

    for level in range(1, len(tree.levels)):
        families = tree.families(level)
        if cfg.game_scope == "global":
            level_players = sum(len(kids) for _, kids in families)
        else:
            level_players = sum(len(kids) for _, kids in families if len(kids) > 1)
        level_player_counts.append(level_players)
        per_player = 2 * cfg.T if cfg.sampling == "independent" else cfg.T + 1
        eval_bound += level_players * per_player + level_players

        if cfg.game_scope == "global":
            node_ids = [cid for _, kids in families for cid in kids]
            marks = getattr(cf, "evaluations", 0)
            estimates = _estimate_level_global(tree, node_ids, level, cf, cfg)
            phase["sweeps"] += getattr(cf, "evaluations", 0) - marks
        else:
            estimates = {}
            for pid, kids in families:
                if len(kids) == 1:
                    estimates[kids[0]] = None
                    continue
                players = [tree.node(c).members for c in kids]
                stream = RngStream(cfg.seed, "level-game", tree.family_token(pid))
                marks = getattr(cf, "evaluations", 0)
                est = monte_carlo_shapley(CoalitionGame(players, cf), cfg.T, stream, sampling=cfg.sampling)
                phase["sweeps"] += getattr(cf, "evaluations", 0) - marks
                for c, v in zip(kids, est.values.tolist()):
                    estimates[c] = v

        for pid, kids in families:
            pot = masses[pid]
            if len(kids) == 1 and cfg.game_scope == "parent":
                cid = kids[0]
                raw[cid] = None
                masses[cid] = pot
                budget[cid] = pot
                continue
            ests = np.asarray([estimates[c] for c in kids], dtype=np.float64)
            for c, v in zip(kids, ests.tolist()):
                raw[c] = v
            if cfg.normalize:
                shares = _split_mass(pot, ests)
            else:
                shares = ests
            for c, share in zip(kids, shares.tolist()):
                masses[c] = share
            marks = getattr(cf, "evaluations", 0)
            singles = [cf.evaluate(tree.node(c).members) for c in kids]
            phase["singletons"] += getattr(cf, "evaluations", 0) - marks
            weights = propagation_weights(singles)
            for c, w in zip(kids, weights.tolist()):
                budget[c] = w * pot

    values = np.zeros(data.n)
    for lid in tree.leaf_ids():
        leaf = tree.node(lid)
        used = _distribute_leaf(values, leaf.members, masses[lid], cfg, cf)
        phase["leaves"] += used
        if cfg.leaf_mode == "exact_if_small" and 2 <= len(leaf.members) <= min(cfg.leaf_cap, EXACT_PLAYER_LIMIT):
            eval_bound += 1 << len(leaf.members)

    for nid, mass in masses.items():
        tree.node(nid).cached_shapley = mass
    for nid, b in budget.items():
        tree.node(nid).budget = b

    total_evals = getattr(cf, "evaluations", 0) - before
    report = HcdvReport(
        surplus=surplus,
        eval_count=total_evals,
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
