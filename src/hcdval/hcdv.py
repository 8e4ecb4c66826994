"""Hierarchical data valuation: tree-guided Shapley mass propagation.

One run works root-down. The total surplus v(D) - v(empty) enters at the
root; every family (children of one parent) plays a small coalition game
whose Monte-Carlo Shapley estimates decide how the parent's mass splits among
the children; leaves finally spread their own mass over member points, by
exact within-leaf Shapley when the leaf is small enough, evenly otherwise.
Both splits are the additive efficient rule (``_split_mass``), so a child or
point keeps the sign of its estimate: a negative value means the point lowers
the payoff of its leaf or family. Because each family hands down exactly its
parent's mass, the point values sum to the root surplus by construction.

``propagate`` is the one run engine, for the batch run, the diagnostic modes
and streaming ingest alike. It scores the root surplus, hands it down, checks
that the point values sum to it, and returns it with the run's phase ledger.
Given a ``dirty`` set (the nodes whose members changed), it re-splits only
families under dirty parents and redistributes only dirty leaves;
``dirty=None`` marks every node dirty, which is the batch run. Its level
estimator gets a whole level's families at once, each with its dirty
children. ``level_estimator`` is the one production estimator, for the batch
run and stream steps alike: the families whose children are all dirty (every
family, in a batch run) play in one ``monte_carlo_shapley`` call, so a level
costs one draw per distinct family size and one payoff call, and a stream
step's partly dirty families in one ``independent_player_estimate`` call.
The exact within-leaf games of all the leaves it redistributes are played in
one ``exact_shapley`` call, so their coalitions are scored together, in
payoff calls of at most ``core.TEMP_BYTES`` bytes.

``run_hcdv`` has one configuration: family games by prefix sweeps, mass
split additively. The diagnostic game modes live in ``evaluation.py``.
The per-node masses are the budgets the paper propagates down the tree.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .core import EMPTY_SET, LabeledDataset, PointSet, RngStream, ValueVector, check_integer
from .hierarchy import HierarchyTree
from .shapley import CoalitionGame, EXACT_PLAYER_LIMIT, exact_shapley, independent_player_estimate, monte_carlo_shapley

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
        for name in ("T", "leaf_cap", "seed"):
            check_integer(name, getattr(self, name))
        if self.T < 1:
            raise ValueError("need at least one permutation per game")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lambda must be non-negative and finite")
        if self.leaf_cap < 1:
            raise ValueError("leaf_cap must be positive")
        if self.leaf_mode not in LEAF_MODES:
            raise ValueError(f"unknown leaf_mode {self.leaf_mode!r}")


@dataclass
class HcdvReport:
    """Bookkeeping from one valuation run.

    ``phase_counts`` and ``phase_ms`` are ``propagate``'s ledger: the payoff
    evaluations and the wall-clock milliseconds of each phase.
    """

    surplus: float
    eval_count: int
    phase_counts: Dict[str, int]
    phase_ms: Dict[str, float]
    eval_bound: int
    masses: Dict[int, float]
    level_player_counts: List[int]
    T: int
    wallclock_ms: float


_LAST_REPORT: Optional[HcdvReport] = None


def _split_mass(pot: float, estimates: np.ndarray) -> np.ndarray:
    """est_i + (pot - sum(est)) / K: the additive efficient split, signed and
    linear (the least-squares efficient values of Ruiz, Valenciano & Zarzuelo
    1998). Written as pot / K + (est_i - mean), a sole share is the pot exactly."""
    return pot / estimates.size + (estimates - math.fsum(estimates.tolist()) / estimates.size)


def _plays_exact_leaf(cfg: HcdvConfig, g: int) -> bool:
    """Whether a leaf of g points plays an exact within-leaf game."""
    return cfg.leaf_mode == "exact_if_small" and 2 <= g <= min(cfg.leaf_cap, EXACT_PLAYER_LIMIT)


def _leaf_game(members: PointSet, cf) -> CoalitionGame:
    """A leaf's within-leaf game: every point is a player."""
    return CoalitionGame([PointSet._from_sorted(members.indices[i : i + 1]) for i in range(len(members))], cf)


def _distribute_leaves(values: np.ndarray, leaves: List[Tuple[PointSet, float]], cfg: HcdvConfig, cf) -> None:
    """Spread each (members, mass) leaf's mass over its points.

    The leaves that play exact within-leaf games play them in one
    ``exact_shapley`` call, so their coalitions are scored together, and
    split their mass by ``_split_mass``; the others split it evenly.
    """
    exact = [(members, mass) for members, mass in leaves if _plays_exact_leaf(cfg, len(members))]
    estimates = exact_shapley([_leaf_game(members, cf) for members, _ in exact])
    for (members, mass), est in zip(exact, estimates):
        values[members.indices] = _split_mass(mass, est.values)
    for members, mass in leaves:
        if not _plays_exact_leaf(cfg, len(members)):
            values[members.indices] = mass / len(members)


Families = List[Tuple[int, List[int], List[int]]]  # (parent, children, dirty children)
LevelEstimator = Callable[[int, Families], Dict[int, float]]  # (level, families) -> raw estimates


def level_estimator(tree: HierarchyTree, cf, cfg: HcdvConfig, epoch: int) -> LevelEstimator:
    """The production level estimator, of the batch run (epoch 0) and of stream step ``epoch`` alike.

    A sole child maps to 0.0. A level's families whose children are all
    dirty play one prefix sweep each, all in one ``monte_carlo_shapley``
    call, keyed "level-game" at epoch 0 and "refresh-family" with the epoch
    after. A partly dirty family re-rolls only its dirty children, each on
    its own "refresh-node" stream, so clean siblings keep their masses; the
    level's such families are played in one ``independent_player_estimate``
    call. A batch run is the case in which every child is dirty.
    """
    purpose = "refresh-family" if epoch else "level-game"

    def level_games(level: int, families: Families) -> Dict[int, float]:
        estimates = {kids[0]: 0.0 for _, kids, _ in families if len(kids) == 1}
        swept = [(pid, kids) for pid, kids, dirty_kids in families if len(kids) > 1 and dirty_kids == kids]
        partly = [(kids, dirty_kids) for _, kids, dirty_kids in families if len(kids) > 1 and dirty_kids != kids]
        if swept:
            games = [CoalitionGame([tree.node(c).members for c in kids], cf) for _, kids in swept]
            streams = [RngStream(cfg.seed, purpose, tree.family_token(pid), epoch) for pid, _ in swept]
            for (_, kids), est in zip(swept, monte_carlo_shapley(games, cfg.T, streams)):
                estimates.update(zip(kids, est.values.tolist()))
        if partly:
            games = [CoalitionGame([tree.node(c).members for c in kids], cf) for kids, _ in partly]
            players = [[kids.index(c) for c in dirty_kids] for kids, dirty_kids in partly]
            streams = [
                [RngStream(cfg.seed, "refresh-node", tree.node_token(c), epoch) for c in dirty_kids]
                for _, dirty_kids in partly
            ]
            for (_, dirty_kids), ests in zip(partly, independent_player_estimate(games, players, cfg.T, streams)):
                estimates.update(zip(dirty_kids, ests.tolist()))
        return estimates

    return level_games


def propagate(
    tree: HierarchyTree,
    cf,
    cfg: HcdvConfig,
    values: np.ndarray,
    masses: Dict[int, float],
    level_estimates: LevelEstimator,
    dirty: Optional[Set[int]] = None,
) -> Tuple[float, Dict[str, int], Dict[str, float]]:
    """Score the root surplus v(D) - v(empty) and hand it down into ``values``, family by family.

    Level by level from the root, ``level_estimates(level, families)`` gets
    that level's families under dirty parents, each as (parent, children,
    dirty children), and returns raw estimates for (at least) their dirty
    children. Clean children keep their masses; dirty ones split the
    residual, the parent's mass minus the clean children's, by
    ``_split_mass``. A negative residual is an ordinary signed mass; a warning
    names its parent. Then every dirty leaf spreads its mass over its points,
    the exact leaves' games all in one ``exact_shapley`` call.
    ``dirty=None`` marks every node dirty: the batch run. ``masses`` and
    ``values`` are updated in place. Unless ``values`` then sum to the
    surplus within 1e-6 * max(1, |surplus|), an AssertionError is raised,
    under ``python -O`` too.

    Returns the surplus, and the payoff evaluations and wall-clock
    milliseconds of each phase: the surplus ("root"), the estimates
    ("sweeps") and the leaf games. A ``"singletons"`` phase stays at 0 for
    the benchmark's reader (``perfbench/worker.py``).
    """
    counts = {"root": 0, "sweeps": 0, "singletons": 0, "leaves": 0}  # "singletons": 0 for perfbench/worker.py
    ms = dict.fromkeys(counts, 0.0)

    @contextmanager
    def phase(name: str):
        marks, start = getattr(cf, "evaluations", 0), time.perf_counter()
        yield
        ms[name] += (time.perf_counter() - start) * 1000.0
        counts[name] += getattr(cf, "evaluations", 0) - marks

    if dirty is None:
        dirty = set(tree.nodes)
    with phase("root"):
        surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    masses[tree.root_id] = surplus

    for level in range(1, len(tree.levels)):
        families = [(pid, kids, [c for c in kids if c in dirty]) for pid, kids in tree.families(level) if pid in dirty]
        with phase("sweeps"):
            raw = level_estimates(level, families)
        for pid, kids, dirty_kids in families:
            clean_kids = [c for c in kids if c not in dirty]
            residual = masses[pid] - math.fsum(masses[c] for c in clean_kids)
            if residual < 0.0 and clean_kids:
                warnings.warn(f"negative residual mass {residual} under node {pid}")
            ests = np.asarray([raw[c] for c in dirty_kids], dtype=np.float64)
            masses.update(zip(dirty_kids, _split_mass(residual, ests).tolist()))

    with phase("leaves"):
        leaves = [(tree.node(lid).members, masses[lid]) for lid in tree.leaf_ids() if lid in dirty]
        _distribute_leaves(values, leaves, cfg, cf)

    drift = abs(math.fsum(values.tolist()) - surplus)
    if not drift <= 1e-6 * max(1.0, abs(surplus)):
        raise AssertionError(f"value mass escaped during propagation: drift {drift}")
    return surplus, counts, ms


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
    level_player_counts: List[int] = []
    eval_bound = 2
    for level in range(1, len(tree.levels)):
        players = sum(len(kids) for _, kids in tree.families(level) if len(kids) > 1)
        level_player_counts.append(players)
        # a prefix sweep scores T + 1 coalitions per player; the pinned bound adds one more
        eval_bound += players * (cfg.T + 1) + players
    for lid in tree.leaf_ids():
        g = len(tree.node(lid).members)
        if _plays_exact_leaf(cfg, g):
            eval_bound += 1 << g

    masses: Dict[int, float] = {}
    values = np.zeros(data.n)
    surplus, counts, ms = propagate(tree, cf, cfg, values, masses, level_estimator(tree, cf, cfg, epoch=0))
    if surplus < 0.0:
        warnings.warn(f"total surplus is negative ({surplus}); value mass will be negative")

    report = HcdvReport(
        surplus=surplus,
        eval_count=sum(counts.values()),
        phase_counts=counts,
        phase_ms=ms,
        eval_bound=eval_bound,
        masses=masses,
        level_player_counts=level_player_counts,
        T=cfg.T,
        wallclock_ms=(time.perf_counter() - start) * 1000.0,
    )
    global _LAST_REPORT
    _LAST_REPORT = report

    return ValueVector(
        values=values,
        method_tag="hcdv",
        seed=cfg.seed,
        permutations_T=cfg.T,
        wallclock_ms=report.wallclock_ms,
    )


def last_run_report() -> HcdvReport:
    if _LAST_REPORT is None:
        raise RuntimeError("no hierarchical valuation has run yet")
    return _LAST_REPORT
