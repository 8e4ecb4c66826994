"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench``.

Runs every workload at toy size, traced and untraced, and checks that each
metric BENCHMARK.json names comes back with its unit; checks that the output
checks catch a perturbed value vector; checks that a degenerate uniform value
vector fails the noisy-row AUC guard against the recorded baseline; checks
that probe scaling reads the same times on a machine running at half speed;
and checks that the benchmark refuses to run without the library sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert NAMES == list(W.WORKLOADS)
    assert all(w["why"] == W.WORKLOADS[w["name"]]["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_reported_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric["name"]


def test_a_slower_machine_reads_the_same_scaled_times():
    import run

    fast = {"prefix_ms": [100.0], "steps_ms": [50.0, 30.0], "probe_ms": [20.0, 20.0, 10.0, 30.0]}
    slow = {key: [2.0 * ms for ms in values] for key, values in fast.items()}
    assert run.scaled_units(fast) == [100.0, 50.0 * 20.0 / 15.0, 30.0]
    assert run.unit_times([fast, slow, fast]) == run.unit_times([fast])


def test_perturbed_values_trip_the_checks():
    import hcdval as H

    spec = W.spec_for("value-leafgames", toy=True)
    inputs = W.make_inputs(H, spec, 3)
    part = W.run_pipeline(H, spec, inputs)["parts"][0]
    values, n, surplus = part["values"], part["n"], part["surplus"]
    assert all(W.output_checks(values, n, surplus).values())

    shifted = values.copy()
    shifted[0] += 1e-3
    assert not W.output_checks(shifted, n, surplus)["efficiency"]
    assert W.value_digest(shifted) != W.value_digest(values)
    broken = values.copy()
    broken[1] = math.nan
    assert not W.output_checks(broken, n, surplus)["finite"]
    assert not W.output_checks(values[:-1], n, surplus)["count"]


def test_uniform_values_fail_the_quality_guard():
    baseline = json.loads((BENCH_DIR / "baseline.json").read_text())
    guard = baseline["workloads"]["value-leafgames"]["end_to_end"]["noisy_auc"]
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "noisy_auc")
    assert guard["bound"] == bound

    import hcdval as H

    inputs = W.make_inputs(H, W.spec_for("value-leafgames"), 1)
    n = sum(part["data"].n for part in inputs["parts"])
    uniform = W.flag_auc(-np.full(n, 1.0 / n), W.pooled_flips(inputs))
    assert uniform == 0.5
    assert uniform < guard["median"] * (1.0 - bound)


def test_refuses_to_run_without_library_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, NAMES[0], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
