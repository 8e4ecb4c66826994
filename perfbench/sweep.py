"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/sweep.py --seeds 1-10 [--trace-seed 1] [--out FILE]

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one process at
a time, with the run length from BENCHMARK.json. The runs go round-robin
(seed 1 of every workload, then seed 2, ...), so a slow spell of the machine
lasting minutes spreads over all workloads instead of shifting the median of
one. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound; a spread at or above a third
of the bound is marked. ``--trace-seed`` adds one traced run per workload for
the per-layer numbers. ``--out`` writes everything, with the git revision
when there is one, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMING_NOTE = ("Counts, memory and AUC medians can be compared with later runs directly. Timing medians are "
               "scaled to a reference speed by the speed probe, which steadies them on one machine but does "
               "not carry them across machines: judge a timing change against parent runs interleaved with "
               "the change's runs on the same machine.")


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - started
    return result


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    summary = {"git_revision": git_revision(), "run_seconds": spec["run_seconds"], "seeds": seeds,
               "order": "round-robin", "note": TIMING_NOTE, "workloads": {}}
    runs_of = {name: [] for name in names}
    for s in seeds:
        for name in names:
            runs_of[name].append(bench(name, s, spec["run_seconds"], 0))
    for name in names:
        runs = runs_of[name]
        rows = {}
        print(f"\n{name}: {len(runs)} runs, {statistics.mean(r['run_s'] for r in runs):.1f} s per run,"
              f" checks failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {metric['name']:14s} median {med:14.6g} {metric['unit']:9s} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f" spread {spread:7.4f} bound {metric['bound']}{flag}")
            rows[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": metric["bound"], "values": values}
        entry = {"end_to_end": rows, "run_s": [r["run_s"] for r in runs]}
        if args.trace_seed is not None:
            traced = bench(name, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.trace_seed
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
