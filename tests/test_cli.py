"""End-to-end command-line tests (driven in process through main)."""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

import hcdval
from hcdval.cli import main
from hcdval.core import write_dataset_csv, write_matrix_binary
from hcdval.evaluation import synthetic_rows


def run_cli(*argv):
    return main(list(argv))


def value_args(out, seed="3", n="60", T="16"):
    return [
        "value",
        "--seed",
        seed,
        "--out",
        str(out),
        "--data-format",
        "synthetic",
        "--synthetic-n",
        n,
        "--permutations",
        T,
        "--branching",
        "3",
        "--leaf-cap",
        "12",
    ]


# ----------------------------------------------------------------- value


def test_value_outputs_are_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*value_args(a)) == 0
    assert run_cli(*value_args(b)) == 0
    for name in ("valuation.csv", "budget.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # metrics.json equal but for the wall-clock phase times
    metrics_a, metrics_b = (json.loads((out / "metrics.json").read_text()) for out in (a, b))
    assert metrics_a.pop("phase_ms").keys() == metrics_b.pop("phase_ms").keys()
    assert metrics_a == metrics_b


def test_value_metrics_schema(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*value_args(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {
        "n", "method", "permutations", "evaluation_count", "phase_counts", "phase_ms", "eval_bound", "surplus"
    }
    assert metrics["method"] == "hcdv"
    assert metrics["evaluation_count"] == sum(metrics["phase_counts"].values())
    assert set(metrics["phase_ms"]) == set(metrics["phase_counts"]) == {"root", "sweeps", "singletons", "leaves"}
    assert all(ms >= 0.0 for ms in metrics["phase_ms"].values())
    assert metrics["evaluation_count"] <= metrics["eval_bound"]
    budget = json.loads((out / "budget.json").read_text())
    assert set(budget) == {"surplus", "masses"}


def test_valuation_csv_shape(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*value_args(out, n="50")) == 0
    lines = (out / "valuation.csv").read_text().strip().splitlines()
    assert lines[0] == "index,value,method,seed"
    assert len(lines) == 1 + 40  # train split of a 50-row synthetic corpus
    first = lines[1].split(",")
    assert first[2] == "hcdv"
    float(first[1])  # parses


def test_seed_is_required(tmp_path):
    out = tmp_path / "run"
    rc = main(["value", "--out", str(out), "--data-format", "synthetic"])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert "seed" in err["message"]


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 1\nbranching_factor: 4\n")
    out = tmp_path / "run"
    rc = main(["value", "--config", str(cfg), "--out", str(out), "--data-format", "synthetic"])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert "branching_factor" in err["message"]


@pytest.mark.parametrize("key", ["workers: 2", "game_scope: global", "normalize: false", "sampling: independent"])
def test_removed_diagnostic_keys_are_rejected(tmp_path, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 1\n{key}\n")
    out = tmp_path / "run"
    rc = main(["value", "--config", str(cfg), "--out", str(out), "--data-format", "synthetic"])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert key.split(":")[0] in err["message"]


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 3\ndata_format: synthetic\nsynthetic_n: 60\npermutations: 16\nbranching: [3]\nleaf_cap: 12\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["value", "--config", str(cfg), "--out", str(a)]) == 0
    # flag beats the file: different seed must change the values
    assert main(["value", "--config", str(cfg), "--out", str(b), "--seed", "4"]) == 0
    assert (a / "valuation.csv").read_bytes() != (b / "valuation.csv").read_bytes()
    man_a = json.loads((a / "manifest.json").read_text())
    man_b = json.loads((b / "manifest.json").read_text())
    assert man_a["config"]["seed"] == 3
    assert man_b["config"]["seed"] == 4
    assert man_a["config_sha256"] != man_b["config_sha256"]


def test_manifest_records_git_revision(tmp_path, monkeypatch):
    # the revision is the package's own checkout's, whatever the working directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert run_cli(*value_args(out)) == 0
    man = json.loads((out / "manifest.json").read_text())
    package = Path(hcdval.__file__).resolve().parent
    res = subprocess.run(["git", "-C", str(package), "rev-parse", "HEAD"], capture_output=True, text=True)
    assert man["git_revision"] == (res.stdout.strip() if res.returncode == 0 else None)
    assert man["config"]["subcommand"] == "value"


def test_runtime_error_reports_and_exits_one(tmp_path):
    # embedding file with the wrong number of rows passes config validation
    # (the file exists) and fails inside the pipeline
    emb_path = tmp_path / "emb.bin"
    write_matrix_binary(emb_path, np.zeros((7, 3)))
    out = tmp_path / "run"
    rc = main(
        value_args(out)
        + ["--embedding-source", "load", "--embedding-path", str(emb_path)]
    )
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"


# -------------------------------------------------------------- baseline


def test_baseline_random_skips_model_evaluations(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "baseline",
            "--seed",
            "2",
            "--out",
            str(out),
            "--data-format",
            "synthetic",
            "--synthetic-n",
            "80",
            "--method",
            "random",
        ]
    )
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["method"] == "random"
    assert metrics["evaluation_count"] == 0


def test_baseline_loo_runs(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "baseline",
            "--seed",
            "2",
            "--out",
            str(out),
            "--data-format",
            "synthetic",
            "--synthetic-n",
            "40",
            "--method",
            "loo",
        ]
    )
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["method"] == "loo"
    assert metrics["evaluation_count"] > 0


# ------------------------------------------------------------------ data


def test_csv_dataset_roundtrips_through_value(tmp_path):
    X, y = synthetic_rows(n=60, subclusters=2, overlap=0.2, seed=5)
    data_path = tmp_path / "rows.csv"
    write_dataset_csv(data_path, X, y)
    out = tmp_path / "run"
    rc = main(
        [
            "value",
            "--seed",
            "1",
            "--out",
            str(out),
            "--data",
            str(data_path),
            "--data-format",
            "csv",
            "--permutations",
            "8",
            "--branching",
            "3",
            "--leaf-cap",
            "12",
        ]
    )
    assert rc == 0
    lines = (out / "valuation.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 48  # floor(60 * 0.2) rows held out


def test_missing_data_file_is_a_config_error(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "value",
            "--seed",
            "1",
            "--out",
            str(out),
            "--data",
            str(tmp_path / "nope.csv"),
            "--data-format",
            "csv",
        ]
    )
    assert rc == 2


# ---------------------------------------------------------------- stream


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_stream_synthetic_writes_metrics_and_values(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "stream",
            "--seed",
            "6",
            "--out",
            str(out),
            "--data-format",
            "synthetic",
            "--synthetic-n",
            "80",
            "--permutations",
            "8",
            "--branching",
            "3",
            "--leaf-cap",
            "16",
            "--batch-rows",
            "20",
            "--steps",
            "3",
        ]
    )
    assert rc == 0
    lines = (out / "stream_metrics.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "epoch,latency_ms,dirty_count,eval_count,evals_refresh,evals_root,"
        "evals_leaves,leaf_count,spawned,rebalanced,refresh_ms,leaves_ms"
    )
    assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines)
    assert len(lines) == 1 + 3
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"initial_n", "final_n", "steps", "evaluation_count", "leaves", "surplus"}
    assert metrics["steps"] == 3
    assert metrics["final_n"] == metrics["initial_n"] + 60
    values = (out / "valuation.csv").read_text().strip().splitlines()
    assert len(values) == 1 + metrics["final_n"]
    assert values[1].split(",")[2] == "hcdv-stream"


def test_stream_with_malformed_rows_exits_one(tmp_path):
    X, y = synthetic_rows(n=40, subclusters=2, overlap=0.2, seed=7)
    base = tmp_path / "base.csv"
    write_dataset_csv(base, X, y)
    bad = tmp_path / "stream.csv"
    bad.write_text("f0,f1,f2,f3,f4,f5,f6,f7,label\n1,2,3,4,5,6,7,not_a_number,0\n")
    out = tmp_path / "run"
    rc = main(
        [
            "stream",
            "--seed",
            "1",
            "--out",
            str(out),
            "--data",
            str(base),
            "--data-format",
            "csv",
            "--stream-data",
            str(bad),
            "--batch-rows",
            "10",
            "--permutations",
            "8",
            "--branching",
            "2",
            "--leaf-cap",
            "16",
        ]
    )
    assert rc == 1
    assert (out / "error.json").exists()


# ----------------------------------------------------------------- check


def check_args(out, suites="efficiency", extra=()):
    return [
        "check",
        "--seed",
        "1",
        "--out",
        str(out),
        "--suites",
        suites,
        "--check-n",
        "40",
        "--permutations",
        "16",
        *extra,
    ]


def test_check_report_schema(tmp_path):
    out = tmp_path / "run"
    rc = main(check_args(out, suites="efficiency,regret,stability"))
    assert rc == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["passed"] is True
    assert set(report["suites"]) == {"efficiency", "regret", "stability"}
    for rep in report["suites"].values():
        assert rep["passed"] is True


def test_check_concentration_suite_small_budget(tmp_path):
    out = tmp_path / "run"
    rc = main(
        check_args(
            out,
            suites="concentration",
            extra=("--trials", "40", "--t-grid", "16,64"),
        )
    )
    assert rc == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["suites"]["concentration"]["passed"] is True


def test_check_catches_broken_mass_splitting(tmp_path, monkeypatch):
    import hcdval.hcdv as hmod

    def broken(pot, estimates):
        return np.clip(np.asarray(estimates, dtype=np.float64), 0.0, None) + 0.01

    monkeypatch.setattr(hmod, "_split_mass", broken)
    out = tmp_path / "run"
    rc = main(check_args(out))
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert "mass" in err["message"]


def test_check_catches_unbalanced_family_masses(tmp_path, monkeypatch):
    # 0.01 moves from the first family split to the second; the second family
    # hands it down, so the point values still sum to the surplus and only the
    # per-family mass check can see it
    import hcdval.hcdv as hmod

    true_split = hmod._split_mass
    shifts = [-0.01, 0.01]

    def unbalanced(pot, estimates):
        shares = true_split(pot, estimates)
        if shifts:
            shares[0] += shifts.pop(0)
        return shares

    monkeypatch.setattr(hmod, "_split_mass", unbalanced)
    out = tmp_path / "run"
    rc = main(check_args(out))
    assert rc == 1
    report = json.loads((out / "check_report.json").read_text())
    suite = report["suites"]["efficiency"]
    assert suite["passed"] is False
    assert suite["hcdv_gap"] <= suite["tolerances"]["hcdv"]
    assert suite["mass_gap"] == pytest.approx(0.01, abs=1e-9)


# ------------------------------------------------------------- embed/tree


def test_embed_and_tree_commands(tmp_path):
    emb_out = tmp_path / "emb"
    rc = main(
        [
            "embed",
            "--seed",
            "4",
            "--out",
            str(emb_out),
            "--data-format",
            "synthetic",
            "--synthetic-n",
            "40",
            "--embedding-source",
            "train",
            "--embed-dim",
            "3",
            "--embed-epochs",
            "2",
        ]
    )
    assert rc == 0
    assert (emb_out / "embeddings.bin").exists()
    metrics = json.loads((emb_out / "metrics.json").read_text())
    assert metrics["d"] == 3
    assert metrics["source"] == "trained_linear"

    tree_out = tmp_path / "tree"
    rc = main(
        [
            "tree",
            "--seed",
            "4",
            "--out",
            str(tree_out),
            "--data-format",
            "synthetic",
            "--synthetic-n",
            "40",
            "--branching",
            "2,2",
            "--leaf-cap",
            "8",
        ]
    )
    assert rc == 0
    tree_doc = json.loads((tree_out / "tree.json").read_text())
    assert tree_doc["leaf_cap"] == 8
