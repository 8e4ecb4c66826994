"""Benchmark entry point for hcdval.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as repeated fresh worker processes (one repetition each, one
at a time, single-threaded BLAS) until the next repetition would overrun
``--seconds``; at least one always runs. Every time is scaled to a reference
machine speed by the speed probe timed next to it (``speed.py``). Times are
per-unit medians over the repetitions (see ``unit_times``); set-up time is
the median over at least ``SETUP_SAMPLES`` processes. With ``--trace 0`` it
reports the end-to-end metrics named in BENCHMARK.json, with ``--trace 1``
the per-layer ones: each traced repetition is paired with an untraced one,
which gives the tracing overhead and the rank-correlation reference. Every
repetition's output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Run it from the
repository root or anywhere else: paths resolve from this file. Raw
per-repetition results and span dumps go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from speed import scale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11  # set-up is timed in at least this many fresh processes per run
HARD_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list, deadline: float) -> dict:
    """Run one worker process to completion and return its parsed result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the next repetition")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - started
    record["process_s"] = time.monotonic() - started
    return record


def percentile(samples, q: int) -> float:
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def scaled_units(rep: dict) -> list:
    """One repetition's timed units (prefix, then steps), each scaled by the mean probe on its two sides."""
    probes = rep["probe_ms"]
    units = rep["prefix_ms"] + rep["steps_ms"]
    return [scale(ms, (probes[i] + probes[i + 1]) / 2.0) for i, ms in enumerate(units)]


def unit_times(reps: list):
    """Wall time and step times of a run: each timed unit's median over the repetitions.

    Every repetition replays the same units on the same inputs. Each unit is
    scaled by the probes around it, which removes most of the machine's speed
    swings, and the median over repetitions drops what the probes missed.
    """
    medians = [statistics.median(col) for col in zip(*(scaled_units(r) for r in reps))]
    steps = medians[len(reps[0]["prefix_ms"]):]
    return sum(medians) / 1000.0, steps


def setup_time(record: dict) -> float:
    return scale(record["setup_s"], record["ready_probe_ms"])


def end_to_end(reps: list, setups: list) -> dict:
    wall_s, steps = unit_times(reps)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "points_per_s": reps[0]["points"] / (sum(steps) / 1000.0),
        "payoff_evals": median_of(reps, "payoff_evals"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "noisy_auc": median_of(reps, "noisy_auc"),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p75": percentile(steps, 75),
    }


def per_layer(plain: list, traced: list, units: dict) -> dict:
    """Medians over the traced repetitions; ms figures scaled by each repetition's median probe."""
    def value(rep, name):
        raw = rep["layers"][name]
        return scale(raw, statistics.median(rep["probe_ms"])) if units.get(name) == "ms" else raw

    out = {name: statistics.median(value(r, name) for r in traced) for name in traced[0]["layers"]}
    base = unit_times(plain)[0]
    out["trace.untraced_wall_s"] = base
    out["trace.overhead_ratio"] = unit_times(traced)[0] / base
    out["trace.probe_ms"] = statistics.median(p for r in plain + traced for p in r["probe_ms"])
    out["quality.rank_corr"] = plain[0]["rank_corr"]
    return out


def count_checks(reps: list):
    """Every repetition's output checks, plus byte-identical values across repetitions."""
    results = [ok for r in reps for ok in r["checks"].values()]
    results += [r["sha256"] == reps[0]["sha256"] for r in reps[1:]]
    return len(results), sum(not ok for ok in results)


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hcdval" / "__init__.py").is_file():
        raise BenchError(f"no hcdval sources under {ROOT / 'src'}")
    if not spec_path.is_file():
        raise BenchError(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}{'-toy' if toy else ''}"
    common = ["--workload", workload, "--seed", str(seed), "--toy", str(int(toy))]
    plain, traced = [], []
    while True:
        began = time.monotonic()
        plain.append(spawn(common + ["--reference", str(int(trace and not plain))], deadline))
        if trace:
            spans = OUT_DIR / f"spans-{tag}-rep{len(traced)}.csv.gz"
            traced.append(spawn(common + ["--trace", "1", "--spans", str(spans)], deadline))
        if time.monotonic() - start + (time.monotonic() - began) > seconds:
            break
    reps = plain + traced
    setups = [setup_time(r) for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_time(spawn(common + ["--setup-only", "1"], deadline)))

    units = {m["name"]: m["unit"] for m in wanted}
    metrics = per_layer(plain, traced, units) if trace else end_to_end(plain, setups)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    attempted, failed = count_checks(reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (OUT_DIR / f"{tag}-trace{int(trace)}.json").write_text(
        json.dumps({"result": result, "all_metrics": metrics, "setups": setups, "reps": reps}, indent=1)
    )
    print(f"# {workload} seed={seed} repetitions={len(plain)}{'+traced ' + str(len(traced)) if trace else ''}"
          f" steps={len(plain[0]['steps_ms'])} (each the median of {len(plain)}) set-ups={len(setups)}"
          f" checks={attempted - failed}/{attempted}")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", type=int, choices=(0, 1), default=0, help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), bool(args.toy))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
