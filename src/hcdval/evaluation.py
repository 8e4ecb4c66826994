"""Synthetic data, selection metrics, and the theorem-check suites.

Everything here is seeded and deterministic: the checks compare measured
quantities (Monte-Carlo deviations, efficiency drift, regret) against the
bounds the estimator is supposed to satisfy, using exact Shapley oracles on
small games as ground truth.

The diagnostic game modes (one game per level, per-player independent
permutations, raw estimates) live here too, not in ``hcdv.run_hcdv``:
``diagnostic_hcdv`` and ``hierarchical_error_budget`` play them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from .core import (
    EMPTY_SET,
    LabeledDataset,
    PointSet,
    RngStream,
    ValueVector,
    content_token,
    dataset_from_arrays,
)
from .hcdv import (
    Families, HcdvConfig, LevelEstimator, _check_run_inputs, _distribute_leaves, _leaf_game, _split_mass, propagate,
)
from .hierarchy import HierarchyTree
from .shapley import CoalitionGame, EXACT_PLAYER_LIMIT, exact_shapley, monte_carlo_shapley


GAME_SCOPES = ("parent", "global")

SPUR_ANGLE = math.radians(95.0)
SPUR_RADIUS = 7.0


def synthetic_rows(
    n: int,
    subclusters: int = 3,
    overlap: float = 0.0,
    seed: int = 0,
    dim: int = 8,
    purpose: str = "synthetic",
):
    """Raw (unstandardised) rows from the two-class subcluster mixture.

    Component means live in the first two feature dimensions; remaining
    dimensions carry pure noise. With a single subcluster per class the two
    components face each other across the origin (a plain 2-blob set). With
    two or more, each class spreads its core components over its own unit
    semicircle and pushes its last component out to a deep "spur" at three
    times the radius, with the two classes' spurs mirrored through the
    origin. The spurs sit far from the class boundary, so mislabelled rows
    landing in them make maximally confident mistakes — exactly the rows a
    margin-sensitive learner is most distorted by.

    ``overlap`` in [0, 1] scales the component spread relative to the
    smallest cross-class gap between core means: 0 keeps cores linearly
    separable, 1 mixes heavily. Class counts are exactly balanced up to
    rounding and subclusters are filled round-robin. Returns
    ``(features, labels)``.
    """
    if subclusters < 1 or n < 2 * subclusters:
        raise ValueError("need n >= 2 * subclusters")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    if dim < 2:
        raise ValueError("need at least two feature dimensions")
    cores = subclusters if subclusters == 1 else subclusters - 1
    placements = {
        (y, j): (math.pi * y + math.pi * (j + 0.5) / cores, 1.0)
        for y in (0, 1)
        for j in range(cores)
    }
    if subclusters > 1:
        placements[(0, subclusters - 1)] = (SPUR_ANGLE, SPUR_RADIUS)
        placements[(1, subclusters - 1)] = (math.pi + SPUR_ANGLE, SPUR_RADIUS)
    means = {
        k: np.array([r * math.cos(a), r * math.sin(a)])
        for k, (a, r) in placements.items()
    }
    gap = min(
        float(np.linalg.norm(means[(0, i)] - means[(1, j)]))
        for i in range(cores)
        for j in range(cores)
    )
    sigma = (0.05 + 0.45 * overlap) * gap

    counts = ((n + 1) // 2, n // 2)
    labels = np.repeat(np.arange(2, dtype=np.int64), counts)
    sub = np.concatenate([np.arange(c) % subclusters for c in counts])
    table = np.array([[means[(y, j)] for j in range(subclusters)] for y in (0, 1)])
    features = RngStream(seed, purpose).generator().standard_normal((n, dim)) * sigma
    features[:, :2] += table[labels, sub]
    return features, labels


def make_synthetic(
    n: int,
    subclusters: int = 3,
    overlap: float = 0.0,
    seed: int = 0,
    dim: int = 8,
    val_fraction: float = 0.2,
) -> LabeledDataset:
    """Standardised train/val dataset drawn from the subcluster mixture."""
    features, labels = synthetic_rows(n, subclusters, overlap, seed=seed, dim=dim)
    return dataset_from_arrays(features, labels, val_fraction=val_fraction, seed=seed)


def flip_labels(data: LabeledDataset, fraction: float, seed: int = 0):
    """Flip a fraction of train labels to a different class (planted noise).

    Returns the noisy dataset plus the flipped row indices.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    gen = RngStream(seed, "label-noise").generator()
    k = int(round(fraction * data.n))
    flipped = np.sort(gen.choice(data.n, size=k, replace=False))
    labels = data.labels.copy()
    for i in flipped:
        offset = 1 if data.num_classes == 2 else int(gen.integers(1, data.num_classes))
        labels[i] = (labels[i] + offset) % data.num_classes
    return replace(data, labels=labels), flipped


def topk_select(values, k: int) -> PointSet:
    """Indices of the k largest values; ties broken by ascending index."""
    vals = np.asarray(getattr(values, "values", values), dtype=np.float64)
    n = vals.size
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    order = np.lexsort((np.arange(n), -vals))
    return PointSet(order[:k])


@dataclass(frozen=True)
class RegretReport:
    k: int
    eps_inf: float
    regret: float
    bound: float


def surrogate_regret(phi_ref, phi_test, k: int) -> RegretReport:
    """Reference-utility regret of selecting top-k by a surrogate valuation.

    With additive utility U(S) = sum of reference values over S, the regret
    U(top-k by reference) - U(top-k by surrogate) always lies in
    [0, 2k * max-abs-difference]; an AssertionError is raised, under
    ``python -O`` too, if either side fails.
    """
    ref = np.asarray(getattr(phi_ref, "values", phi_ref), dtype=np.float64)
    test = np.asarray(getattr(phi_test, "values", phi_test), dtype=np.float64)
    if ref.shape != test.shape:
        raise ValueError("valuations must have equal length")
    eps_inf = float(np.max(np.abs(ref - test))) if ref.size else 0.0
    s_ref = topk_select(ref, k)
    s_test = topk_select(test, k)
    u_ref = math.fsum(ref[s_ref.indices].tolist())
    u_test = math.fsum(ref[s_test.indices].tolist())
    regret = u_ref - u_test
    bound = 2.0 * k * eps_inf
    if not regret >= 0.0:
        raise AssertionError("top-k by reference values cannot lose to any other k-set")
    if not regret <= bound + 1e-12:
        raise AssertionError(f"regret {regret} escapes the 2k*eps bound {bound}")
    return RegretReport(k=k, eps_inf=eps_inf, regret=regret, bound=bound)


@dataclass(frozen=True)
class StabilityReport:
    cv: np.ndarray
    mean_cv: float
    R: int
    epsilon_guard: float


def stability_report(runs: Sequence, epsilon_guard: float = 1e-9) -> StabilityReport:
    """Point-wise coefficient of variation over repeated valuation runs.

    CV_i = sample std (R-1 denominator) / (|mean| + guard), per point.
    """
    mats = [np.asarray(getattr(r, "values", r), dtype=np.float64) for r in runs]
    if len(mats) < 2:
        raise ValueError("need at least two runs")
    if len({m.shape for m in mats}) != 1:
        raise ValueError("runs must have equal length")
    stack = np.stack(mats)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1)
    cv = std / (np.abs(mean) + epsilon_guard)
    return StabilityReport(cv=cv, mean_cv=float(cv.mean()), R=len(mats), epsilon_guard=epsilon_guard)


def efficiency_check(phi, cf) -> float:
    """|sum of point values - (v(full) - v(empty))|."""
    values = np.asarray(getattr(phi, "values", phi), dtype=np.float64)
    full = cf.dataset.all_points()
    surplus = cf.evaluate(full) - cf.evaluate(EMPTY_SET)
    return abs(math.fsum(values.tolist()) - surplus)


@dataclass(frozen=True)
class ConcentrationReport:
    T_grid: tuple
    trials: int
    delta: float
    eta: Dict[int, float]
    exceed_rate: Dict[int, float]
    exceed_budget: float
    median_deviation: Dict[int, float]
    slope: float
    exceed_ok: bool
    slope_ok: bool
    passed: bool


def concentration_check(
    game: CoalitionGame, T_grid: Sequence[int], trials: int, delta: float, rng: RngStream
) -> ConcentrationReport:
    """Empirical check of the Monte-Carlo deviation bound.

    For each permutation budget T, runs ``trials`` independent estimates and
    compares the worst per-player deviation from the exact values against the
    radius eta(T) = sqrt(8 B^2 ln(2K/delta) / T); the exceedance fraction must
    stay within delta plus three standard errors, and the median deviation
    must shrink like 1/sqrt(T) (log-log slope in [-0.7, -0.3]).
    """
    if game.bound is None:
        raise ValueError("concentration check needs a payoff bound on the game")
    if trials < 2 or not T_grid:
        raise ValueError("need trials >= 2 and a non-empty T grid")
    exact = exact_shapley(game).values
    B = game.bound
    K = game.K
    eta = {int(T): math.sqrt(8.0 * B * B * math.log(2.0 * K / delta) / T) for T in T_grid}
    budget = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    exceed_rate: Dict[int, float] = {}
    median_dev: Dict[int, float] = {}
    for T in T_grid:
        T = int(T)
        devs = np.empty(trials)
        for r in range(trials):
            stream = rng.derive("concentration", content_token(T, r))
            est = monte_carlo_shapley(game, T, stream)
            devs[r] = float(np.max(np.abs(est.values - exact)))
        exceed_rate[T] = float(np.mean(devs >= eta[T]))
        median_dev[T] = float(np.median(devs))
    degenerate = all(m <= 1e-12 for m in median_dev.values())
    if len(T_grid) > 1 and not degenerate:
        logs_T = np.log(np.asarray([float(T) for T in T_grid]))
        logs_m = np.log(np.asarray([max(median_dev[int(T)], 1e-300) for T in T_grid]))
        slope = float(np.polyfit(logs_T, logs_m, 1)[0])
        slope_ok = -0.7 <= slope <= -0.3
    else:
        # a single budget, or a game whose marginals never deviate, gives the
        # scaling law nothing to measure
        slope = float("nan")
        slope_ok = True
    exceed_ok = all(rate <= budget for rate in exceed_rate.values())
    return ConcentrationReport(
        T_grid=tuple(int(T) for T in T_grid),
        trials=trials,
        delta=delta,
        eta=eta,
        exceed_rate=exceed_rate,
        exceed_budget=budget,
        median_deviation=median_dev,
        slope=slope,
        exceed_ok=exceed_ok,
        slope_ok=slope_ok,
        passed=exceed_ok and slope_ok,
    )


@dataclass(frozen=True)
class ErrorBudgetReport:
    """Measured efficiency deviation vs the per-level error budget."""

    deviation: float
    eps_mc: tuple
    eps_leaf: float
    bound: float
    satisfied: bool
    surplus: float
    total_value: float


def _diagnostic_level_estimator(
    tree: HierarchyTree, cf, cfg: HcdvConfig, game_scope: str, sampling: str
) -> LevelEstimator:
    """A ``propagate`` level estimator for the diagnostic game modes.

    ``game_scope="parent"`` plays one game per family on ``run_hcdv``'s
    streams (a sole child maps to 0.0), all of a level's in one
    ``monte_carlo_shapley`` call; "global" plays one game over all the
    families' children. ``sampling`` is "prefix" or "independent". Every
    child is played, whatever the families' dirty children.
    """
    if game_scope not in GAME_SCOPES:
        raise ValueError(f"unknown game_scope {game_scope!r}")

    def level_estimates(level: int, families: Families) -> Dict[int, float]:
        if game_scope == "global":
            node_ids = [c for _, kids, _ in families for c in kids]
            token = content_token(level, *(tree.node(c).members.indices for c in node_ids))
            game = CoalitionGame([tree.node(c).members for c in node_ids], cf)
            est = monte_carlo_shapley(game, cfg.T, RngStream(cfg.seed, "level-game-global", token), sampling=sampling)
            return dict(zip(node_ids, est.values.tolist()))
        estimates = {kids[0]: 0.0 for _, kids, _ in families if len(kids) == 1}
        played = [(pid, kids) for pid, kids, _ in families if len(kids) > 1]
        games = [CoalitionGame([tree.node(c).members for c in kids], cf) for _, kids in played]
        streams = [RngStream(cfg.seed, "level-game", tree.family_token(pid)) for pid, _ in played]
        for (_, kids), est in zip(played, monte_carlo_shapley(games, cfg.T, streams, sampling=sampling)):
            estimates.update(zip(kids, est.values.tolist()))
        return estimates

    return level_estimates


def diagnostic_hcdv(
    data: LabeledDataset, emb, tree: HierarchyTree, cf, cfg: HcdvConfig, game_scope: str, sampling: str
) -> ValueVector:
    """``run_hcdv``'s hand-down with the level games played the given way.

    ``propagate`` checks that the values still sum to the root surplus;
    ("parent", "prefix") equals ``run_hcdv`` bit for bit. No run report is
    kept.
    """
    _check_run_inputs(data, emb, tree, cf, cfg)
    level_estimates = _diagnostic_level_estimator(tree, cf, cfg, game_scope, sampling)
    values = np.zeros(data.n)
    propagate(tree, cf, cfg, values, {}, level_estimates)
    tag = f"hcdv-{game_scope}-{sampling}"
    return ValueVector(values=values, method_tag=tag, seed=cfg.seed, permutations_T=cfg.T, wallclock_ms=0.0)


def hierarchical_error_budget(
    data: LabeledDataset, emb, tree: HierarchyTree, cf, cfg: HcdvConfig
) -> ErrorBudgetReport:
    """Run the no-normalisation diagnostic and measure its error budget.

    The diagnostic plays one global game per level with per-player
    independent permutations and keeps the raw estimates: each leaf spreads
    its own, so the point values no longer sum to the root surplus by
    construction. The gap must instead stay within the sum over levels of the
    worst per-coalition Monte-Carlo error (measured against exact level
    oracles) plus the leaf allocation gap of oversize leaves.
    """
    _check_run_inputs(data, emb, tree, cf, cfg)
    level_estimates = _diagnostic_level_estimator(tree, cf, cfg, "global", "independent")
    surplus = cf.evaluate(tree.node(tree.root_id).members) - cf.evaluate(EMPTY_SET)
    raw = {tree.root_id: surplus}
    for level in range(1, len(tree.levels)):
        n_nodes = len(tree.levels[level])
        if n_nodes > EXACT_PLAYER_LIMIT:  # checked before the level's game is played
            raise ValueError(f"level {level} has {n_nodes} coalitions; exact oracle capped at {EXACT_PLAYER_LIMIT}")
        raw.update(level_estimates(level, [(pid, kids, kids) for pid, kids in tree.families(level)]))
    values = np.zeros(data.n)
    _distribute_leaves(values, [(tree.node(lid).members, raw[lid]) for lid in tree.leaf_ids()], cfg, cf)

    eps_mc: List[float] = []
    for level in range(1, len(tree.levels)):
        node_ids = tree.levels[level]
        players = [tree.node(c).members for c in node_ids]
        exact = exact_shapley(CoalitionGame(players, cf)).values
        errs = [abs(raw[c] - e) for c, e in zip(node_ids, exact.tolist())]
        eps_mc.append(max(errs))

    oversize = []
    for lid in tree.leaf_ids():
        g = len(tree.node(lid).members)
        if g <= tree.leaf_cap:
            continue
        if g > EXACT_PLAYER_LIMIT:
            raise ValueError(f"oversize leaf of {g} points exceeds the exact-game cap")
        oversize.append(lid)
    eps_leaf = 0.0
    for lid, est in zip(oversize, exact_shapley([_leaf_game(tree.node(lid).members, cf) for lid in oversize])):
        g, mass = est.values.size, raw[lid]
        exact_alloc = _split_mass(mass, est.values)
        uniform = np.full(g, mass / g)
        eps_leaf += float(np.abs(exact_alloc - uniform).sum())

    total = math.fsum(values.tolist())
    deviation = abs(total - surplus)
    bound = math.fsum(eps_mc) + eps_leaf
    return ErrorBudgetReport(
        deviation=deviation,
        eps_mc=tuple(eps_mc),
        eps_leaf=eps_leaf,
        bound=bound,
        satisfied=bool(deviation <= bound),
        surplus=surplus,
        total_value=total,
    )
