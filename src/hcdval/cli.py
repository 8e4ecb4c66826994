"""Command-line interface.

Subcommands: embed, tree, value, stream, check, baseline. Every run resolves
a single RunConfig from defaults, an optional YAML config file, and explicit
flags (later sources win), validates it up front, and writes its outputs
under ``--out`` together with a manifest recording the config hash and the
git revision. Apart from measured latency columns in the streaming metrics,
outputs are a pure function of (input files, config, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from .core import (
    LabeledDataset,
    PointSet,
    RngStream,
    ValueVector,
    load_dataset,
    read_matrix_binary,
    _parse_csv,
)
from .encoder import (
    EmbeddingMatrix,
    EncoderConfig,
    identity_embeddings,
    load_embeddings,
    save_embeddings,
    train_linear_encoder,
)
from .evaluation import (
    concentration_check,
    efficiency_check,
    make_synthetic,
    stability_report,
    surrogate_regret,
    synthetic_rows,
)
from .hcdv import LEAF_MODES, HcdvConfig, last_run_report, run_hcdv
from .hierarchy import build_tree
from .shapley import CoalitionGame, exact_shapley, flat_mcds, group_shapley, leave_one_out, random_values
from .streaming import ingest_batch, init_stream
from .utility import LEARNERS, METRICS, CharacteristicFn

SUBCOMMANDS = ("embed", "tree", "value", "stream", "check", "baseline")
DATA_FORMATS = ("csv", "binary", "synthetic")
BASELINE_METHODS = ("mcds", "gs", "loo", "random")
CHECK_SUITES = ("concentration", "efficiency", "regret", "stability")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    seed: int
    out: str = "out"
    # dataset
    data: Optional[str] = None
    data_format: str = "csv"
    val_fraction: float = 0.2
    synthetic_n: int = 300
    synthetic_subclusters: int = 3
    synthetic_overlap: float = 0.3
    # embedding
    embedding_source: str = "identity"
    embedding_path: Optional[str] = None
    embed_dim: int = 4
    embed_epochs: int = 5
    embed_batch: int = 32
    embed_lr: float = 0.05
    embed_lam: float = 0.5
    embed_alpha: float = 0.1
    embed_partners: int = 2
    embed_fd_step: float = 0.05
    embed_fd_draws: int = 1
    # hierarchy
    branching: tuple = (4,)
    leaf_cap: int = 64
    gamma: float = 0.25
    # valuation
    permutations: int = 256
    lam: float = 0.5
    leaf_mode: str = "exact_if_small"
    metric: str = "accuracy"
    learner: str = "nearest_centroid"
    # baselines
    method: str = "mcds"
    # streaming
    stream_data: Optional[str] = None
    batch_rows: int = 64
    assign_threshold: float = 0.35
    rebalance_period: int = 3
    steps: int = 0
    # check suites
    suites: tuple = CHECK_SUITES
    trials: int = 200
    delta: float = 0.05
    t_grid: tuple = (64, 256, 1024)
    check_n: int = 60


def _int_list(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(int(x) for x in text)
    return tuple(int(x) for x in str(text).split(",") if x.strip())


def _suite_list(text) -> tuple:
    if isinstance(text, (list, tuple)):
        names = tuple(str(x) for x in text)
    elif str(text) == "all":
        return CHECK_SUITES
    else:
        names = tuple(x.strip() for x in str(text).split(",") if x.strip())
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hcdval", description="Hierarchical contrastive data valuation")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("embed", "train or materialise point embeddings"),
        ("tree", "build the balanced cluster hierarchy"),
        ("value", "run the full hierarchical valuation pipeline"),
        ("stream", "replay a file as an incremental stream"),
        ("check", "run the estimator property-check suites"),
        ("baseline", "run a flat valuation baseline"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="YAML file with RunConfig keys; flags override it")
        p.add_argument("--seed", type=int, default=None, help="root seed (required here or in the config file)")
        p.add_argument("--out", default=None, help="output directory (default: out)")
        p.add_argument("--data", default=None, help="dataset file (csv or binary)")
        p.add_argument("--data-format", dest="data_format", choices=DATA_FORMATS, default=None)
        p.add_argument("--val-fraction", dest="val_fraction", type=float, default=None)
        p.add_argument("--synthetic-n", dest="synthetic_n", type=int, default=None)
        p.add_argument("--synthetic-subclusters", dest="synthetic_subclusters", type=int, default=None)
        p.add_argument("--synthetic-overlap", dest="synthetic_overlap", type=float, default=None)
        p.add_argument("--embedding-source", dest="embedding_source", choices=("identity", "train", "load"), default=None)
        p.add_argument("--embedding-path", dest="embedding_path", default=None)
        p.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
        p.add_argument("--embed-epochs", dest="embed_epochs", type=int, default=None)
        p.add_argument("--embed-batch", dest="embed_batch", type=int, default=None)
        p.add_argument("--embed-lr", dest="embed_lr", type=float, default=None)
        p.add_argument("--embed-lam", dest="embed_lam", type=float, default=None)
        p.add_argument("--embed-alpha", dest="embed_alpha", type=float, default=None)
        p.add_argument("--embed-partners", dest="embed_partners", type=int, default=None)
        p.add_argument("--embed-fd-step", dest="embed_fd_step", type=float, default=None)
        p.add_argument("--embed-fd-draws", dest="embed_fd_draws", type=int, default=None)
        p.add_argument("--branching", type=_int_list, default=None, help="comma list, e.g. 8,8")
        p.add_argument("--leaf-cap", dest="leaf_cap", type=int, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--permutations", "-T", dest="permutations", type=int, default=None)
        p.add_argument("--lam", type=float, default=None, help="dispersion weight in the characteristic")
        p.add_argument("--leaf-mode", dest="leaf_mode", choices=LEAF_MODES, default=None)
        p.add_argument("--metric", choices=tuple(METRICS), default=None)
        p.add_argument("--learner", choices=tuple(LEARNERS), default=None)
        p.add_argument("--method", choices=BASELINE_METHODS, default=None)
        p.add_argument("--stream-data", dest="stream_data", default=None)
        p.add_argument("--batch-rows", dest="batch_rows", type=int, default=None)
        p.add_argument("--assign-threshold", dest="assign_threshold", type=float, default=None)
        p.add_argument("--rebalance-period", dest="rebalance_period", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--suites", type=_suite_list, default=None, help="comma list or 'all'")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--t-grid", dest="t_grid", type=_int_list, default=None)
        p.add_argument("--check-n", dest="check_n", type=int, default=None)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    merged = {}
    if args.config is not None:
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise ConfigError(f"config file not found: {cfg_path}")
        loaded = yaml.safe_load(cfg_path.read_text()) or {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a mapping of RunConfig keys")
        for key, value in loaded.items():
            if key not in names or key == "subcommand":
                raise ConfigError(f"unknown config key: {key}")
            merged[key] = value
    for key, value in vars(args).items():
        if key in names and key != "subcommand" and value is not None:
            merged[key] = value
    if "branching" in merged:
        merged["branching"] = _int_list(merged["branching"])
    if "t_grid" in merged:
        merged["t_grid"] = _int_list(merged["t_grid"])
    if "suites" in merged:
        merged["suites"] = _suite_list(merged["suites"])
    if merged.get("seed") is None:
        raise ConfigError("--seed is required (flag or config file)")
    cfg = RunConfig(subcommand=args.subcommand, **merged)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand: {cfg.subcommand}")
    if cfg.data_format not in DATA_FORMATS:
        raise ConfigError(f"data_format must be one of {DATA_FORMATS}")
    if cfg.data_format == "synthetic":
        if cfg.synthetic_n < 2 * cfg.synthetic_subclusters:
            raise ConfigError("synthetic_n must be at least 2 * synthetic_subclusters")
        if not 0.0 <= cfg.synthetic_overlap <= 1.0:
            raise ConfigError("synthetic_overlap must lie in [0, 1]")
    elif cfg.subcommand != "check":  # check builds its own fixtures
        if cfg.data is None:
            raise ConfigError("--data is required for csv/binary datasets")
        if not Path(cfg.data).is_file():
            raise ConfigError(f"dataset file not found: {cfg.data}")
    if not 0.0 < cfg.val_fraction < 1.0:
        raise ConfigError("val_fraction must lie in (0, 1)")
    if cfg.embedding_source not in ("identity", "train", "load"):
        raise ConfigError("embedding_source must be identity, train, or load")
    if cfg.embedding_source == "load":
        if cfg.embedding_path is None:
            raise ConfigError("--embedding-path is required with --embedding-source load")
        if not Path(cfg.embedding_path).is_file():
            raise ConfigError(f"embedding file not found: {cfg.embedding_path}")
    if not cfg.branching or any(k < 2 for k in cfg.branching):
        raise ConfigError("branching must be a non-empty list of factors >= 2")
    if cfg.leaf_cap < 1:
        raise ConfigError("leaf_cap must be >= 1")
    if not 0.0 <= cfg.gamma < 1.0:
        raise ConfigError("gamma must lie in [0, 1)")
    if cfg.permutations < 1:
        raise ConfigError("permutations must be >= 1")
    if cfg.lam < 0.0:
        raise ConfigError("lam must be >= 0")
    if cfg.leaf_mode not in LEAF_MODES:
        raise ConfigError(f"leaf_mode must be one of {LEAF_MODES}")
    if cfg.metric not in METRICS:
        raise ConfigError(f"metric must be one of {tuple(METRICS)}")
    if cfg.learner not in LEARNERS:
        raise ConfigError(f"learner must be one of {tuple(LEARNERS)}")
    if cfg.subcommand == "baseline" and cfg.method not in BASELINE_METHODS:
        raise ConfigError(f"method must be one of {BASELINE_METHODS}")
    if cfg.subcommand == "stream":
        if cfg.batch_rows < 1:
            raise ConfigError("batch_rows must be >= 1")
        if cfg.rebalance_period < 1:
            raise ConfigError("rebalance_period must be >= 1")
        if cfg.assign_threshold <= 0.0:
            raise ConfigError("assign_threshold must be positive")
        if cfg.steps < 0:
            raise ConfigError("steps must be >= 0")
        if cfg.data_format != "synthetic":
            if cfg.stream_data is None:
                raise ConfigError("--stream-data is required for csv/binary streams")
            if not Path(cfg.stream_data).is_file():
                raise ConfigError(f"stream file not found: {cfg.stream_data}")
    if cfg.subcommand == "check":
        bad = [s for s in cfg.suites if s not in CHECK_SUITES]
        if bad:
            raise ConfigError(f"unknown check suites: {bad}")
        if cfg.trials < 2:
            raise ConfigError("trials must be >= 2")
        if not 0.0 < cfg.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if not cfg.t_grid or any(t < 1 for t in cfg.t_grid):
            raise ConfigError("t_grid must be a non-empty list of positive budgets")
        if cfg.check_n < 20:
            raise ConfigError("check_n must be >= 20")


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _load_data(cfg: RunConfig) -> LabeledDataset:
    if cfg.data_format == "synthetic":
        return make_synthetic(
            cfg.synthetic_n,
            subclusters=cfg.synthetic_subclusters,
            overlap=cfg.synthetic_overlap,
            seed=cfg.seed,
            val_fraction=cfg.val_fraction,
        )
    return load_dataset(cfg.data, format=cfg.data_format, val_fraction=cfg.val_fraction, seed=cfg.seed)


def _encoder_config(cfg: RunConfig) -> EncoderConfig:
    return EncoderConfig(
        d=cfg.embed_dim,
        lam=cfg.embed_lam,
        alpha=cfg.embed_alpha,
        epochs=cfg.embed_epochs,
        batch_size=cfg.embed_batch,
        partners_per_anchor=cfg.embed_partners,
        fd_step=cfg.embed_fd_step,
        fd_draws=cfg.embed_fd_draws,
        lr=cfg.embed_lr,
        seed=cfg.seed,
    )


def _embeddings(cfg: RunConfig, data: LabeledDataset) -> EmbeddingMatrix:
    if cfg.embedding_source == "identity":
        return identity_embeddings(data)
    if cfg.embedding_source == "load":
        return load_embeddings(cfg.embedding_path, expected_n=data.n)
    return train_linear_encoder(data, _encoder_config(cfg))


def _hcdv_config(cfg: RunConfig) -> HcdvConfig:
    return HcdvConfig(
        T=cfg.permutations,
        lam=cfg.lam,
        leaf_cap=cfg.leaf_cap,
        leaf_mode=cfg.leaf_mode,
        seed=cfg.seed,
    )


def write_valuation_csv(path, vv: ValueVector) -> None:
    lines = ["index,value,method,seed"]
    for i, v in enumerate(vv.values.tolist()):
        lines.append(f"{i},{v!r},{vv.method_tag},{vv.seed}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _git_revision() -> Optional[str]:
    """HEAD of the git checkout holding this package, or None outside one."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _write_manifest(out: Path, cfg: RunConfig) -> None:
    payload = asdict(cfg)
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True, default=list).encode()).hexdigest()
    _write_json(
        out / "manifest.json",
        {"config": payload, "config_sha256": digest, "git_revision": _git_revision()},
    )


def _write_error(out: Optional[Path], exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_json(out / "error.json", payload)
        except OSError:
            pass
    print(json.dumps(payload), file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_embed(cfg: RunConfig, out: Path) -> int:
    data = _load_data(cfg)
    emb = _embeddings(cfg, data)
    target = Path(cfg.embedding_path) if cfg.embedding_source != "load" and cfg.embedding_path else out / "embeddings.bin"
    save_embeddings(target, emb)
    metrics = {
        "n": data.n,
        "d": emb.d,
        "source": emb.source,
        "training_trace": list(emb.training_trace) if emb.training_trace else None,
        "path": str(target),
    }
    _write_json(out / "metrics.json", metrics)
    print(f"embedded {data.n} points into {emb.d} dimensions ({emb.source}) -> {target}")
    return 0


def cmd_tree(cfg: RunConfig, out: Path) -> int:
    data = _load_data(cfg)
    emb = _embeddings(cfg, data)
    tree = build_tree(emb, cfg.branching, cfg.leaf_cap, gamma=cfg.gamma, seed=cfg.seed)
    (out / "tree.json").write_text(tree.to_json())
    sizes = [len(tree.node(l).members) for l in tree.leaf_ids()]
    _write_json(
        out / "metrics.json",
        {"n": data.n, "depth": tree.depth, "leaves": len(sizes), "leaf_sizes": sizes},
    )
    print(f"tree: depth {tree.depth}, {len(sizes)} leaves, sizes {min(sizes)}..{max(sizes)}")
    return 0


def cmd_value(cfg: RunConfig, out: Path) -> int:
    data = _load_data(cfg)
    emb = _embeddings(cfg, data)
    tree = build_tree(emb, cfg.branching, cfg.leaf_cap, gamma=cfg.gamma, seed=cfg.seed)
    cf = CharacteristicFn(data, emb, lam=cfg.lam, metric=cfg.metric, learner=cfg.learner)
    vv = run_hcdv(data, emb, tree, cf, _hcdv_config(cfg))
    report = last_run_report()
    write_valuation_csv(out / "valuation.csv", vv)
    _write_json(
        out / "budget.json",
        {
            "surplus": report.surplus,
            "masses": {str(k): v for k, v in sorted(report.masses.items())},
            "budgets": {str(k): v for k, v in sorted(report.budget_map.items())},
        },
    )
    _write_json(
        out / "metrics.json",
        {
            "n": data.n,
            "method": vv.method_tag,
            "permutations": report.T,
            "evaluation_count": report.eval_count,
            "phase_counts": dict(report.phase_counts),
            "phase_ms": dict(report.phase_ms),
            "eval_bound": report.eval_bound,
            "surplus": report.surplus,
        },
    )
    print(
        f"hcdv: n={data.n} T={report.T} evaluations={report.eval_count}"
        f" (bound {report.eval_bound}) in {vv.wallclock_ms:.0f} ms"
    )
    return 0


def cmd_baseline(cfg: RunConfig, out: Path) -> int:
    data = _load_data(cfg)
    if cfg.method == "random":
        vv = random_values(data.n, RngStream(cfg.seed, "baseline-random"))
        eval_count = 0
    else:
        emb = _embeddings(cfg, data)
        cf = CharacteristicFn(data, emb, lam=cfg.lam, metric=cfg.metric, learner=cfg.learner)
        if cfg.method == "mcds":
            vv = flat_mcds(data, cf, cfg.permutations, RngStream(cfg.seed, "baseline-mcds"))
        elif cfg.method == "gs":
            groups = [
                PointSet(np.flatnonzero(data.labels == c))
                for c in range(data.num_classes)
                if np.any(data.labels == c)
            ]
            vv = group_shapley(data, cf, groups, cfg.permutations, RngStream(cfg.seed, "baseline-gs"))
        else:
            vv = leave_one_out(data, cf)
        eval_count = cf.evaluations
    write_valuation_csv(out / "valuation.csv", vv)
    _write_json(
        out / "metrics.json",
        {
            "n": data.n,
            "method": vv.method_tag,
            "permutations": vv.permutations_T,
            "evaluation_count": eval_count,
        },
    )
    print(f"{vv.method_tag}: n={data.n} evaluations={eval_count} in {vv.wallclock_ms:.0f} ms")
    return 0


def _stream_rows(cfg: RunConfig, data: LabeledDataset):
    if cfg.data_format == "synthetic":
        steps = cfg.steps if cfg.steps > 0 else 5
        return synthetic_rows(
            max(cfg.batch_rows * steps, 2 * cfg.synthetic_subclusters),
            subclusters=cfg.synthetic_subclusters,
            overlap=cfg.synthetic_overlap,
            seed=cfg.seed,
            purpose="synthetic-stream",
        )
    if cfg.data_format == "binary":
        return read_matrix_binary(cfg.stream_data, with_labels=True)
    return _parse_csv(cfg.stream_data)


def cmd_stream(cfg: RunConfig, out: Path) -> int:
    data = _load_data(cfg)
    emb = _embeddings(cfg, data)
    tree = build_tree(emb, cfg.branching, cfg.leaf_cap, gamma=cfg.gamma, seed=cfg.seed)
    cf = CharacteristicFn(data, emb, lam=cfg.lam, metric=cfg.metric, learner=cfg.learner)
    state = init_stream(
        data,
        emb,
        tree,
        cf,
        _hcdv_config(cfg),
        assign_threshold=cfg.assign_threshold,
        rebalance_period=cfg.rebalance_period,
        tree_seed=cfg.seed,
    )
    features, labels = _stream_rows(cfg, data)
    n_batches = math.ceil(features.shape[0] / cfg.batch_rows)
    if cfg.steps > 0:
        n_batches = min(n_batches, cfg.steps)
    for b in range(n_batches):
        lo, hi = b * cfg.batch_rows, min((b + 1) * cfg.batch_rows, features.shape[0])
        state = ingest_batch(state, features[lo:hi], labels[lo:hi])
    header = (
        "epoch,latency_ms,dirty_count,eval_count,evals_refresh,evals_masses,"
        "evals_leaves,leaf_count,spawned,rebalanced"
    )
    lines = [header]
    for m in state.metrics:
        lines.append(
            f"{m.epoch},{m.latency_ms:.3f},{m.dirty_count},{m.eval_count},{m.evals_refresh},"
            f"{m.evals_masses},{m.evals_leaves},{m.leaf_count},{m.spawned},{m.rebalanced}"
        )
    (out / "stream_metrics.csv").write_text("\n".join(lines) + "\n")
    write_valuation_csv(out / "valuation.csv", state.value_vector())
    _write_json(
        out / "metrics.json",
        {
            "initial_n": data.n,
            "final_n": state.data.n,
            "steps": len(state.metrics),
            "evaluation_count": sum(m.eval_count for m in state.metrics),
            "leaves": len(state.tree.leaf_ids()),
            "surplus": state.surplus,
        },
    )
    print(
        f"stream: {len(state.metrics)} steps, {data.n} -> {state.data.n} points,"
        f" {len(state.tree.leaf_ids())} leaves"
    )
    return 0


def _table_game(K: int, seed: int) -> CoalitionGame:
    """A deterministic random bounded game on K singleton players."""
    players = [PointSet([i]) for i in range(K)]
    gen = RngStream(seed, "check-table-game").generator()
    table = {}
    for mask in range(2 ** K):
        ids = PointSet([i for i in range(K) if mask >> i & 1])
        table[ids.key()] = float(gen.random())
    empty_key = PointSet([]).key()
    table[empty_key] = 0.0

    def payoff(points: PointSet) -> float:
        return table[points.key()]

    return CoalitionGame(players, payoff, bound=1.0)


def _check_pipeline(cfg: RunConfig):
    data = make_synthetic(cfg.check_n, subclusters=2, overlap=0.3, seed=cfg.seed)
    emb = identity_embeddings(data)
    leaf_cap = max(4, cfg.check_n // 8)
    tree = build_tree(emb, (4,), leaf_cap, gamma=0.25, seed=cfg.seed)
    return data, emb, tree, leaf_cap


def _suite_concentration(cfg: RunConfig) -> dict:
    game = _table_game(5, cfg.seed)
    rep = concentration_check(
        game, cfg.t_grid, cfg.trials, cfg.delta, RngStream(cfg.seed, "check-concentration")
    )
    return {
        "T_grid": list(rep.T_grid),
        "trials": rep.trials,
        "delta": rep.delta,
        "eta": {str(k): v for k, v in rep.eta.items()},
        "exceed_rate": {str(k): v for k, v in rep.exceed_rate.items()},
        "exceed_budget": rep.exceed_budget,
        "median_deviation": {str(k): v for k, v in rep.median_deviation.items()},
        "slope": rep.slope,
        "passed": rep.passed,
    }


def _suite_efficiency(cfg: RunConfig) -> dict:
    game = _table_game(6, cfg.seed + 1)
    exact = exact_shapley(game)
    surplus = game.value_of_ids(list(range(6))) - game.value_of_ids([])
    exact_gap = abs(math.fsum(exact.values.tolist()) - surplus)

    data, emb, tree, leaf_cap = _check_pipeline(cfg)
    cf = CharacteristicFn(data, emb, lam=cfg.lam, metric=cfg.metric, learner=cfg.learner)
    hcfg = replace(_hcdv_config(cfg), T=min(cfg.permutations, 64), leaf_cap=leaf_cap)
    vv = run_hcdv(data, emb, tree, cf, hcfg)
    report = last_run_report()
    hcdv_gap = efficiency_check(vv, cf)

    budget_gap = 0.0
    for level in range(1, len(tree.levels)):
        for pid, kids in tree.families(level):
            total = math.fsum(report.budget_map[k] for k in kids)
            budget_gap = max(budget_gap, abs(total - report.masses[pid]))
    passed = exact_gap <= 1e-9 and hcdv_gap <= 1e-6 and budget_gap <= 1e-9
    return {
        "exact_gap": exact_gap,
        "hcdv_gap": hcdv_gap,
        "budget_gap": budget_gap,
        "tolerances": {"exact": 1e-9, "hcdv": 1e-6, "budget": 1e-9},
        "passed": passed,
    }


def _suite_regret(cfg: RunConfig) -> dict:
    data = make_synthetic(24, subclusters=2, overlap=0.3, seed=cfg.seed)
    emb = identity_embeddings(data)
    cf = CharacteristicFn(data, emb, lam=cfg.lam, metric=cfg.metric, learner=cfg.learner)
    ref = flat_mcds(data, cf, 32, RngStream(cfg.seed, "check-regret"))
    noise = RngStream(cfg.seed, "check-regret-noise").generator().normal(0.0, 0.01, data.n)
    entries = []
    for k in (3, 8):
        rep = surrogate_regret(ref.values, ref.values + noise, k)
        entries.append({"k": rep.k, "eps_inf": rep.eps_inf, "regret": rep.regret, "bound": rep.bound})
    zero = surrogate_regret(ref.values, ref.values, 5)
    passed = zero.regret == 0.0 and all(e["regret"] <= e["bound"] + 1e-12 for e in entries)
    return {"cases": entries, "self_regret": zero.regret, "passed": passed}


def _suite_stability(cfg: RunConfig) -> dict:
    data, emb, tree, leaf_cap = _check_pipeline(cfg)
    runs = []
    for s in range(3):
        cf = CharacteristicFn(data, emb, lam=cfg.lam, metric=cfg.metric, learner=cfg.learner)
        hcfg = replace(_hcdv_config(cfg), T=min(cfg.permutations, 32), leaf_cap=leaf_cap, seed=cfg.seed + s)
        runs.append(run_hcdv(data, emb, tree, cf, hcfg))
    rep = stability_report(runs, epsilon_guard=1e-9)
    passed = bool(np.all(np.isfinite(rep.cv)) and np.all(rep.cv >= 0.0))
    return {"R": rep.R, "mean_cv": rep.mean_cv, "max_cv": float(rep.cv.max()), "passed": passed}


def cmd_check(cfg: RunConfig, out: Path) -> int:
    suites = {}
    runners = {
        "concentration": _suite_concentration,
        "efficiency": _suite_efficiency,
        "regret": _suite_regret,
        "stability": _suite_stability,
    }
    for name in cfg.suites:
        suites[name] = runners[name](cfg)
    passed = all(s["passed"] for s in suites.values())
    _write_json(out / "check_report.json", {"seed": cfg.seed, "suites": suites, "passed": passed})
    width = max(len(n) for n in suites)
    for name, rep in suites.items():
        print(f"{name:<{width}}  {'PASS' if rep['passed'] else 'FAIL'}")
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


_HANDLERS = {
    "embed": cmd_embed,
    "tree": cmd_tree,
    "value": cmd_value,
    "stream": cmd_stream,
    "check": cmd_check,
    "baseline": cmd_baseline,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_hint = Path(args.out) if args.out else None
    try:
        cfg = resolve_config(args)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        _write_error(out_hint, exc)
        return 2
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out, cfg)
        return _HANDLERS[cfg.subcommand](cfg, out)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        _write_error(out, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
