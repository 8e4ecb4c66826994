"""One repetition of one workload, in a fresh interpreter.

Prints one JSON object on its last stdout line. ``ready`` is the monotonic
clock reading (system-wide on Linux) at the moment the inputs exist, so the
parent process turns it into a set-up time that includes interpreter start.
``ready_probe_ms`` is the speed probe right after that (following one warm-up
probe), which scales the set-up time.

    python3 perfbench/worker.py --workload value-sweeps --seed 3 [--trace 1]
        [--reference 1] [--setup-only 1] [--toy 1] [--spans PATH]
"""

import argparse
import json
import resource
import sys
import time
import warnings

import hcdval as H
import numpy as np

import workloads as W
from speed import probe_ms

WARNING_PREFIXES = {
    "hcdv.negative_surplus_warnings": "total surplus is negative",
    "streaming.negative_surplus_warnings": "refreshed total surplus is negative",
    "streaming.negative_residual_warnings": "negative residual mass",
}


def report_layers(result: dict) -> dict:
    """Per-layer numbers the library reports itself: the hcdv phase ledgers and stream step metrics."""
    reports = result["reports"]
    steps = result["step_metrics"]
    out = {f"hcdv.evals_{phase}": sum(r.phase_counts[phase] for r in reports)
           for phase in ("root", "sweeps", "singletons", "leaves")}
    out.update({
        "hcdv.level_players": sum(sum(r.level_player_counts) for r in reports),
        "hcdv.evals_over_bound": sum(r.eval_count for r in reports) / sum(r.eval_bound for r in reports),
        "streaming.evals_refresh": sum(m.evals_refresh for m in steps),
        "streaming.evals_masses": sum(m.evals_masses for m in steps),
        "streaming.evals_leaves": sum(m.evals_leaves for m in steps),
        "streaming.dirty_nodes": sum(m.dirty_count for m in steps),
        "streaming.spawned": sum(m.spawned for m in steps),
        "streaming.rebalances": sum(bool(m.rebalanced) for m in steps),
        "streaming.leaf_count_final": steps[-1].leaf_count if steps else 0,
    })
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--reference", type=int, default=0)
    p.add_argument("--setup-only", type=int, default=0)
    p.add_argument("--toy", type=int, default=0)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    spec = W.spec_for(args.workload, toy=bool(args.toy))
    inputs = W.make_inputs(H, spec, args.seed)
    ready = time.monotonic()
    probe_ms()
    ready_probe_ms = probe_ms()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_probe_ms": ready_probe_ms}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = W.run_pipeline(H, spec, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    parts = result["parts"]
    values = np.concatenate([p["values"] for p in parts])
    checks = {}
    for k, part in enumerate(parts):
        for name, ok in W.output_checks(part["values"], part["n"], part["surplus"]).items():
            checks[f"{name}[{k}]"] = ok
    out = {
        "ready": ready,
        "ready_probe_ms": ready_probe_ms,
        "prefix_ms": result["prefix_ms"],
        "steps_ms": result["steps_ms"],
        "probe_ms": result["probe_ms"],
        "points": result["points"],
        "payoff_evals": result["payoff_evals"],
        "peak_rss_mb": peak_rss_mb,
        "noisy_auc": W.flag_auc(-values, W.pooled_flips(inputs)),
        "sha256": W.value_digest(values),
        "checks": checks,
        "layers": report_layers(result),
    }
    for name, prefix in WARNING_PREFIXES.items():
        out["layers"][name] = sum(str(w.message).startswith(prefix) for w in caught)
    if tracer is not None:
        from tracer import layer_metrics

        out["layers"].update(layer_metrics(tracer))
        if args.spans:
            tracer.write(args.spans)
    if args.reference:
        out["rank_corr"] = W.reference_rank_corr(H, spec, result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
