"""Workload definitions, seeded inputs, the timed pipelines and their checks.

Every workload draws its datasets from ``--seed`` through the library's own
synthetic generator (two classes, three subclusters, overlap 0.3, a 20%
validation split) and flips a tenth of the train labels, so each run has
planted noise to find. The pipelines call only the public ``hcdval`` API and
look every entry point up on the package at call time, so the tracer can
wrap them.

A value workload values ``parts`` independent datasets of one size, each
drawn from its own seed derived from ``--seed``, one after another. Each part
is one timed step of a few hundred milliseconds. The stream's steps are its
``ingest_batch`` calls. The speed probe (``speed.py``) runs before the first
timed unit and after every one, so each unit has a probe reading on either
side that tells how fast the machine was while it ran.

Only exact within-leaf games can tell a flipped row from its leaf mates
(larger leaves get uniform shares), and with a dispersion weight of 0.5 the
flipped row is what gives a one-class leaf its cross-label pairs, so it is
rewarded. value-leafgames, the workload where the noisy-row AUC is judged,
therefore plays with ``lam=0``; the others keep 0.5 and run the dispersion
term.

Every tree is built with ``gamma=0`` (exactly even splits). With the default
window of 0.25 the leaf sizes, and with them the 2^g cost of the exact
within-leaf games, swing with the seed by more than any bound the benchmark
could enforce; even splits make the tree shape depend on n alone. The stream
never spawns a leaf (an assign threshold of 2.0 is the largest cosine
distance): spawned singletons grow into small leaves whose exact games made
the stream's cost swing by seed in the same way. The stream's leaf cap of 40
sits just above its initial leaves of 37-38 points, so they split within the
first few steps and the stream runs on about twice as many leaves for most
of its steps. With a cap of 48, the splits came at steps that varied with
the seed, and the median step, which fell among them, spread by 0.28 in
payoff evaluations between seeds (0.05 with the cap of 40).
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from speed import probe_ms

SUBCLUSTERS = 3
OVERLAP = 0.3
FLIP_FRACTION = 0.10

WORKLOADS = {
    "value-leafgames": {
        "why": "exact within-leaf games make ~93% of the payoff evaluations: exercises the payoff kernel on small coalitions; the noisy-row AUC is judged here",
        "kind": "value",
        "embed": "identity",
        "parts": 8,
        "n": 480,
        "branching": (4, 4),
        "leaf_cap": 12,
        "gamma": 0.0,
        "T": 64,
        "lam": 0.0,
    },
    "value-sweeps": {
        "why": "leaves above the exact limit: every evaluation is a prefix sweep over coalitions of tens to a thousand points",
        "kind": "value",
        "embed": "identity",
        "parts": 4,
        "n": 1260,
        "branching": (12, 6),
        "leaf_cap": 80,
        "gamma": 0.0,
        "T": 64,
        "lam": 0.5,
    },
    "stream-ingest": {
        "why": "40 ingest steps mixing corpus appends, tree copies and rebalance splits with refresh games over dirty families",
        "kind": "stream",
        "embed": "identity",
        "parts": 1,
        "n": 750,
        "branching": (4, 4),
        "leaf_cap": 40,
        "gamma": 0.0,
        "T": 64,
        "lam": 0.5,
        "batch_rows": 15,
        "steps": 40,
        "rebalance_period": 3,
        "assign_threshold": 2.0,
    },
    "value-embedded": {
        "why": "finite-difference encoder training, run by no other workload, followed by a cheap valuation",
        "kind": "value",
        "embed": "trained",
        "encoder_d": 4,
        "encoder_epochs": 1,
        "parts": 8,
        "n": 190,
        "branching": (4, 4),
        "leaf_cap": 100,
        "gamma": 0.0,
        "T": 64,
        "lam": 0.5,
    },
}

# Small versions of every workload for the smoke test: same code paths, seconds to run.
TOY = {
    "value-leafgames": {"parts": 2, "n": 100},
    "value-sweeps": {"parts": 2, "n": 600, "T": 8},
    "stream-ingest": {"n": 300, "leaf_cap": 12, "steps": 4, "batch_rows": 10},
    "value-embedded": {"parts": 2, "n": 150, "leaf_cap": 40, "T": 4},
}


def spec_for(name: str, toy: bool = False) -> dict:
    spec = dict(WORKLOADS[name])
    if toy:
        spec.update(TOY[name])
    return spec


def make_inputs(H, spec: dict, seed: int) -> dict:
    """Seeded inputs: ``parts`` noisy train/val datasets and, for streams, the rows to ingest."""
    parts = []
    for k in range(spec["parts"]):
        s = seed * 1000 + k
        data = H.make_synthetic(spec["n"], subclusters=SUBCLUSTERS, overlap=OVERLAP, seed=s)
        noisy, flipped = H.flip_labels(data, FLIP_FRACTION, seed=s)
        parts.append({"data": noisy, "flipped": np.asarray(flipped, dtype=np.int64), "seed": s})
    inputs = {"parts": parts}
    if spec["kind"] == "stream":
        part = parts[0]
        rows = spec["batch_rows"] * spec["steps"]
        features, labels = H.synthetic_rows(
            rows, subclusters=SUBCLUSTERS, overlap=OVERLAP, seed=part["seed"], purpose="synthetic-stream"
        )
        gen = np.random.default_rng([part["seed"], 1])
        stream_flips = np.sort(gen.choice(rows, size=round(FLIP_FRACTION * rows), replace=False))
        labels = labels.copy()
        labels[stream_flips] = 1 - labels[stream_flips]
        inputs["stream"] = (features, labels)
        part["flipped"] = np.concatenate([part["flipped"], part["data"].n + stream_flips])
    return inputs


def pooled_flips(inputs: dict) -> np.ndarray:
    """Flipped row indices into the concatenation of every part's values."""
    out, offset = [], 0
    for part in inputs["parts"]:
        out.append(part["flipped"] + offset)
        offset += part["data"].n
    return np.concatenate(out)


def _config(H, spec: dict, seed: int):
    return H.HcdvConfig(T=spec["T"], lam=spec["lam"], leaf_cap=spec["leaf_cap"], seed=seed)


def _embed(H, spec: dict, data, seed: int):
    if spec["embed"] == "trained":
        return H.train_linear_encoder(data, H.EncoderConfig(d=spec["encoder_d"], epochs=spec["encoder_epochs"], seed=seed))
    return H.identity_embeddings(data)


def _value_part(H, spec: dict, part: dict) -> dict:
    data, seed = part["data"], part["seed"]
    start = time.perf_counter()
    emb = _embed(H, spec, data, seed)
    tree = H.build_tree(emb, spec["branching"], spec["leaf_cap"], gamma=spec["gamma"], seed=seed)
    cf = H.CharacteristicFn(data, emb, lam=spec["lam"])
    vector = H.run_hcdv(data, emb, tree, cf, _config(H, spec, seed))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = H.last_run_report()
    return {
        "values": np.asarray(vector.values),
        "n": data.n,
        "surplus": report.surplus,
        "report": report,
        "ms": elapsed_ms,
        "evals": cf.evaluations,
        "final": (data, emb, tree, cf),
        "seed": seed,
    }


def run_value(H, spec: dict, inputs: dict) -> dict:
    """Values every part in turn; each part's pipeline is one timed step."""
    probes = [probe_ms()]
    parts = []
    for part in inputs["parts"]:
        parts.append(_value_part(H, spec, part))
        probes.append(probe_ms())
    return {
        "parts": parts,
        "reports": [p["report"] for p in parts],
        "step_metrics": [],
        "prefix_ms": [],
        "steps_ms": [p["ms"] for p in parts],
        "probe_ms": probes,
        "points": sum(p["n"] for p in parts),
        "payoff_evals": sum(p["evals"] for p in parts),
    }


def run_stream(H, spec: dict, inputs: dict) -> dict:
    """Embed, tree and ``init_stream`` are one timed prefix; each ``ingest_batch`` is a step."""
    part = inputs["parts"][0]
    data, seed = part["data"], part["seed"]
    features, labels = inputs["stream"]
    rows = spec["batch_rows"]
    probes = [probe_ms()]
    start = time.perf_counter()
    emb = _embed(H, spec, data, seed)
    tree = H.build_tree(emb, spec["branching"], spec["leaf_cap"], gamma=spec["gamma"], seed=seed)
    cf = H.CharacteristicFn(data, emb, lam=spec["lam"])
    state = H.init_stream(
        data, emb, tree, cf, _config(H, spec, seed),
        assign_threshold=spec["assign_threshold"],
        rebalance_period=spec["rebalance_period"],
        tree_seed=seed,
    )
    init_ms = (time.perf_counter() - start) * 1000.0
    report = H.last_run_report()
    probes.append(probe_ms())
    steps_ms = []
    for b in range(spec["steps"]):
        t = time.perf_counter()
        state = H.ingest_batch(state, features[b * rows : (b + 1) * rows], labels[b * rows : (b + 1) * rows])
        steps_ms.append((time.perf_counter() - t) * 1000.0)
        probes.append(probe_ms())
    streamed = {
        "values": np.array(state.values),
        "n": data.n + features.shape[0],
        "surplus": state.surplus,
        "final": (state.data, state.embedding, state.tree, state.cf),
        "seed": seed,
    }
    return {
        "parts": [streamed],
        "reports": [report],
        "step_metrics": state.metrics,
        "prefix_ms": [init_ms],
        "steps_ms": steps_ms,
        "probe_ms": probes,
        "points": features.shape[0],
        "payoff_evals": cf.evaluations + sum(m.eval_count for m in state.metrics),
    }


def run_pipeline(H, spec: dict, inputs: dict) -> dict:
    """The timed pipeline; the speed probe runs before the first timed unit and after each one."""
    return (run_stream if spec["kind"] == "stream" else run_value)(H, spec, inputs)


def efficiency_ok(values, surplus: float) -> bool:
    """Point values must sum to the surplus they split: |sum - surplus| <= 1e-6 * max(1, |surplus|)."""
    drift = abs(math.fsum(np.asarray(values, dtype=np.float64).tolist()) - surplus)
    return drift <= 1e-6 * max(1.0, abs(surplus))


def output_checks(values, n_expected: int, surplus: float) -> dict:
    """Count, finiteness and efficiency of one part's value vector."""
    values = np.asarray(values, dtype=np.float64)
    return {
        "count": values.shape == (n_expected,),
        "finite": bool(np.isfinite(values).all()),
        "efficiency": efficiency_ok(values, surplus),
    }


def value_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def average_ranks(x) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def flag_auc(scores, positives) -> float:
    """AUC of ``scores`` at ranking the rows in ``positives`` first (Mann-Whitney)."""
    ranks = average_ranks(scores)
    is_pos = np.zeros(ranks.size, dtype=bool)
    is_pos[positives] = True
    n_pos, n_neg = int(is_pos.sum()), int((~is_pos).sum())
    return float((ranks[is_pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def spearman(a, b) -> float:
    return float(np.corrcoef(average_ranks(a), average_ranks(b))[0, 1])


def reference_rank_corr(H, spec: dict, result: dict) -> float:
    """Spearman of the run's values against an independent valuation of its final trees.

    The reference is ``run_hcdv`` on a copy of each part's final tree under MC
    seed + 1. It reuses the part's payoff function: payoffs are deterministic,
    so the cache changes only what the reference costs, not its values.
    """
    ref = []
    for part in result["parts"]:
        data, emb, tree, cf = part["final"]
        ref.append(H.run_hcdv(data, emb, tree.copy(), cf, _config(H, spec, part["seed"] + 1)).values)
    return spearman(np.concatenate([p["values"] for p in result["parts"]]), np.concatenate(ref))
