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
marks every node dirty, which is the batch run. The exact within-leaf games
of all the leaves it redistributes are played in one ``exact_shapley`` call,
so their coalitions are scored in one payoff call.

``run_hcdv`` has one configuration: family games by prefix sweeps, mass
handed down normalised. The diagnostic game modes live in ``evaluation.py``.

A parallel audit map propagates budgets through the classic singleton-payoff
weights; it satisfies the same per-family conservation invariant but does not
feed the returned values.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .core import EMPTY_SET, LabeledDataset, PointSet, RngStream, ValueVector
from .hierarchy import HierarchyTree
from .shapley import CoalitionGame, EXACT_PLAYER_LIMIT, exact_shapley, monte_carlo_shapley

LEAF_MODES = ("exact_if_small", "always_uniform")


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

    The diagnostic game modes are arguments of ``evaluation.diagnostic_hcdv``.
    """

    T: int = 256
    lam: float = 0.5
    leaf_cap: int = 64
    leaf_mode: str = "exact_if_small"
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("need at least one permutation per game")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.leaf_cap < 1:
            raise ValueError("leaf_cap must be positive")
        if self.leaf_mode not in LEAF_MODES:
            raise ValueError(f"unknown leaf_mode {self.leaf_mode!r}")


@dataclass
class HcdvReport:
    """Bookkeeping from one valuation run (also backs evaluation_counter).

    ``phase_counts`` and ``phase_ms`` hold the payoff evaluations and the
    wall-clock milliseconds of each phase: root surplus, family sweeps,
    singleton payoffs and leaf games.
    """

    surplus: float
    eval_count: int
    phase_counts: Dict[str, int]
    phase_ms: Dict[str, float]
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


def _leaf_game(members: PointSet, cf) -> CoalitionGame:
    """A leaf's within-leaf game: every point is a player."""
    return CoalitionGame([PointSet._from_sorted(members.indices[i : i + 1]) for i in range(len(members))], cf)


def _distribute_leaves(values: np.ndarray, leaves: List[Tuple[PointSet, float]], cfg: HcdvConfig, cf) -> None:
    """Spread each (members, mass) leaf's mass over its points.

    The leaves that play exact within-leaf games play them in one
    ``exact_shapley`` call, so their coalitions are scored in one payoff call;
    the others split their mass evenly.
    """
    exact = [(members, mass) for members, mass in leaves if _plays_exact_leaf(cfg, len(members))]
    estimates = exact_shapley([_leaf_game(members, cf) for members, _ in exact])
    for (members, mass), est in zip(exact, estimates):
        values[members.indices] = _split_mass(mass, est.values)
    for members, mass in leaves:
        if not _plays_exact_leaf(cfg, len(members)):
            values[members.indices] = mass / len(members)


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
) -> Tuple[Dict[str, int], Dict[str, float]]:
    """Hand the root surplus down the tree into ``values``, family by family.

    Level by level from the root, ``level_estimates(level, families)`` gets
    that level's families under dirty parents and returns raw estimates for
    (at least) their dirty children; a sole child mapped to None inherits
    its parent's whole mass. Clean children keep their masses; dirty ones
    split the residual, the parent's mass minus the clean children's, by
    their clipped estimates. Singleton payoffs set the audit budgets. Then
    every dirty leaf spreads its mass over its points, the exact leaves'
    games all in one payoff call, and every node is annotated.
    ``dirty=None`` marks every node dirty: the batch run. The maps and
    ``values`` are updated in place. Returns the payoff evaluations and the
    wall-clock milliseconds of each phase: the estimates ("sweeps"), the
    singletons and the leaf games.
    """
    counts = {"sweeps": 0, "singletons": 0, "leaves": 0}
    ms = dict.fromkeys(counts, 0.0)

    @contextmanager
    def phase(name: str):
        marks, start = getattr(cf, "evaluations", 0), time.perf_counter()
        yield
        ms[name] += (time.perf_counter() - start) * 1000.0
        counts[name] += getattr(cf, "evaluations", 0) - marks

    if dirty is None:
        dirty = set(tree.nodes)
    root = tree.root_id
    masses[root] = raw[root] = budget[root] = surplus

    for level in range(1, len(tree.levels)):
        families = [(pid, kids) for pid, kids in tree.families(level) if pid in dirty]
        with phase("sweeps"):
            raw.update(level_estimates(level, families))
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
            masses.update(zip(dirty_kids, _split_mass(residual, ests).tolist()))
            with phase("singletons"):
                singles = [cf.evaluate(tree.node(c).members) for c in kids]
            for c, w in zip(kids, propagation_weights(singles).tolist()):
                budget[c] = w * pot

    with phase("leaves"):
        leaves = [(tree.node(lid).members, masses[lid]) for lid in tree.leaf_ids() if lid in dirty]
        _distribute_leaves(values, leaves, cfg, cf)

    for nid, node in tree.nodes.items():
        node.cached_shapley = masses.get(nid)
        node.budget = budget.get(nid)
    return counts, ms


def _check_run_inputs(data: LabeledDataset, emb, tree: HierarchyTree, cf, cfg: HcdvConfig) -> None:
    """Reject a run whose embedding, tree or payoff disagree with the data or config."""
    vectors = getattr(emb, "vectors", emb)
    if vectors.shape[0] != data.n:
        raise ValueError("embedding rows must align with the train split")
    if len(tree.node(tree.root_id).members) != data.n:
        raise ValueError("tree must cover the whole train split")
    if abs(getattr(cf, "lam", cfg.lam) - cfg.lam) > 1e-12:
        raise ValueError("characteristic lambda differs from the run config")
    if tree.leaf_cap != cfg.leaf_cap:
        raise ValueError("tree leaf capacity differs from the run config")


def run_hcdv(
    data: LabeledDataset, emb, tree: HierarchyTree, cf, cfg: HcdvConfig
) -> ValueVector:
    """Value every train point by hierarchical Shapley mass propagation."""
    _check_run_inputs(data, emb, tree, cf, cfg)
    start = time.perf_counter()
    before = getattr(cf, "evaluations", 0)
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    evals_root = getattr(cf, "evaluations", 0) - before
    root_ms = (time.perf_counter() - start) * 1000.0
    if surplus < 0.0:
        warnings.warn(f"total surplus is negative ({surplus}); value mass will be negative")

    level_player_counts: List[int] = []
    eval_bound = 2
    for level in range(1, len(tree.levels)):
        players = sum(len(kids) for _, kids in tree.families(level) if len(kids) > 1)
        level_player_counts.append(players)
        # a prefix sweep scores T + 1 coalitions per player, plus its singleton
        eval_bound += players * (cfg.T + 1) + players
    for lid in tree.leaf_ids():
        g = len(tree.node(lid).members)
        if _plays_exact_leaf(cfg, g):
            eval_bound += 1 << g

    def level_games(level: int, families: Families) -> Dict[int, Optional[float]]:
        estimates: Dict[int, Optional[float]] = {}
        for pid, kids in families:
            if len(kids) == 1:
                estimates[kids[0]] = None
                continue
            game = CoalitionGame([tree.node(c).members for c in kids], cf)
            stream = RngStream(cfg.seed, "level-game", tree.family_token(pid))
            est = monte_carlo_shapley(game, cfg.T, stream)
            estimates.update(zip(kids, est.values.tolist()))
        return estimates

    masses: Dict[int, float] = {}
    raw: Dict[int, Optional[float]] = {}
    budget: Dict[int, float] = {}
    values = np.zeros(data.n)
    counts, ms = propagate(tree, cf, cfg, surplus, values, masses, raw, budget, level_games)

    report = HcdvReport(
        surplus=surplus,
        eval_count=getattr(cf, "evaluations", 0) - before,
        phase_counts={"root": evals_root, **counts},
        phase_ms={"root": root_ms, **ms},
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


def evaluation_counter() -> int:
    """Payoff evaluations consumed by the most recent run_hcdv call."""
    if _LAST_REPORT is None:
        raise RuntimeError("no hierarchical valuation has run yet")
    return _LAST_REPORT.eval_count


def last_run_report() -> HcdvReport:
    if _LAST_REPORT is None:
        raise RuntimeError("no hierarchical valuation has run yet")
    return _LAST_REPORT
