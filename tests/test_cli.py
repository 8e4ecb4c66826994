"""End-to-end command-line tests (driven in process through main)."""

import argparse
import json
import subprocess
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

import hcdval
from hcdval.cli import RunConfig, build_parser, main
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


@pytest.mark.parametrize(
    "flags",
    [
        ["value", "--lam", "nan"],
        ["value", "--lam", "inf"],
        ["stream", "--assign-threshold", "nan"],
        ["stream", "--assign-threshold", "inf"],
    ],
)
def test_non_finite_settings_are_config_errors(tmp_path, flags):
    out = tmp_path / "run"
    rc = main([*flags, "--seed", "1", "--out", str(out), "--data-format", "synthetic"])
    assert rc == 2
    assert not (out / "manifest.json").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and flags[1].lstrip("-").replace("-", "_") in err["message"]


@pytest.mark.parametrize(
    "flags", [["--embed-dim", "0"], ["--embed-lr", "-1"], ["--embed-lam", "nan"], ["--embed-fd-step", "inf"]]
)
def test_bad_encoder_flags_are_config_errors(tmp_path, flags):
    out = tmp_path / "run"
    argv = ["embed", "--seed", "1", "--out", str(out), "--data-format", "synthetic", "--embedding-source", "train"]
    rc = main([*argv, *flags])
    assert rc == 2
    assert not (out / "manifest.json").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "encoder" in err["message"]


@pytest.mark.parametrize("key", ["permutations: 2.5", "leaf_cap: 12.5", "permutations: true"])
def test_non_integer_counts_in_a_config_file_are_config_errors(tmp_path, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 1\nsynthetic_n: 60\n{key}\n")
    out = tmp_path / "run"
    rc = main(["value", "--config", str(cfg), "--out", str(out), "--data-format", "synthetic"])
    assert rc == 2
    assert not (out / "manifest.json").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "must be an integer" in err["message"]


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


def test_a_successful_run_removes_an_earlier_runs_error(tmp_path):
    out = tmp_path / "run"
    assert main(value_args(out, T="abc")) == 2
    assert (out / "error.json").exists() and not (out / "manifest.json").exists()
    assert main(value_args(out)) == 0
    assert not (out / "error.json").exists()
    assert (out / "manifest.json").exists() and (out / "valuation.csv").exists()


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


def test_stream_over_a_loaded_embedding_is_a_config_error(tmp_path):
    emb_path = tmp_path / "emb.bin"
    write_matrix_binary(emb_path, np.zeros((96, 8)))
    out = tmp_path / "run"
    argv = ["stream", "--seed", "1", "--out", str(out), "--data-format", "synthetic", "--synthetic-n", "120"]
    rc = main([*argv, "--embedding-source", "load", "--embedding-path", str(emb_path)])
    assert rc == 2
    assert not (out / "manifest.json").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "linear transform" in err["message"]


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


# ---------------------------------------------------------------- config

# (setting, a wrongly typed config file value, a wrongly typed flag value or
# None where every flag string is a valid value)
BAD_SETTINGS = [
    ("seed", 1.5, "1.5"),
    ("out", ["a"], None),
    ("data", 5, None),
    ("data_format", "parquet", "parquet"),
    ("val_fraction", "half", "half"),
    ("synthetic_n", 60.5, "60.5"),
    ("synthetic_subclusters", True, "three"),
    ("synthetic_overlap", [0.3], "x"),
    ("embedding_source", "random", "random"),
    ("embedding_path", 7, None),
    ("embed_dim", 2.5, "2.5"),
    ("embed_epochs", "five", "five"),
    ("embed_batch", 32.0, "32.0"),
    ("embed_lr", True, "fast"),
    ("embed_lam", "x", "x"),
    ("embed_alpha", {"a": 1}, "x"),
    ("embed_partners", 1.5, "1.5"),
    ("embed_fd_step", "x", "x"),
    ("embed_fd_draws", False, "one"),
    ("branching", [2.5], "2.5"),
    ("leaf_cap", 12.5, "abc"),
    ("gamma", "x", "x"),
    ("permutations", "abc", "abc"),
    ("lam", None, "heavy"),
    ("leaf_mode", "sometimes", "sometimes"),
    ("metric", "bogus", "bogus"),
    ("learner", "svm", "svm"),
    ("method", "shap", "shap"),
    ("stream_data", 3, None),
    ("batch_rows", 6.4, "6.4"),
    ("assign_threshold", "x", "x"),
    ("rebalance_period", 2.5, "2.5"),
    ("steps", "x", "x"),
    ("suites", ["bogus"], "bogus"),
    ("trials", 2.5, "2.5"),
    ("delta", "x", "x"),
    ("t_grid", [16.7], "16.7"),
    ("check_n", 60.5, "60.5"),
]


@pytest.mark.parametrize(
    "field, source, value",
    [(f, "file", v) for f, v, _ in BAD_SETTINGS] + [(f, "flag", v) for f, _, v in BAD_SETTINGS if v is not None],
)
def test_a_wrongly_typed_setting_is_a_config_error(tmp_path, monkeypatch, capsys, field, source, value):
    monkeypatch.chdir(tmp_path)  # the default output directory
    out = tmp_path / "run"
    settings = {"seed": 1, "out": str(out), "data_format": "synthetic", "synthetic_n": 60}
    flags = []
    if source == "file":
        settings[field] = value
    else:
        flags = ["--" + field.replace("_", "-"), value]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(settings))
    assert main(["value", "--config", str(cfg), *flags]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and err["message"].startswith(f"{field} must be")
    if field != "out":  # the error goes to the output directory the file names
        assert json.loads((out / "error.json").read_text()) == err
    assert not list(tmp_path.rglob("manifest.json"))


def test_each_subcommand_takes_one_flag_per_setting():
    names = {f.name for f in fields(RunConfig)} - {"subcommand"}
    assert {f for f, _, _ in BAD_SETTINGS} == names
    expected = {"--" + name.replace("_", "-") for name in names} | {"-T", "--config", "-h", "--help"}
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"embed", "tree", "value", "stream", "check", "baseline"}
    for parser in subparsers.choices.values():
        assert {s for a in parser._actions for s in a.option_strings} == expected
        assert all(a.type is None and a.choices is None for a in parser._actions)


def test_flags_and_a_config_file_give_the_same_manifest(tmp_path):
    out = tmp_path / "run"
    flags = [
        "--seed", "3", "--data-format", "synthetic", "--synthetic-n", "60", "-T", "16",
        "--branching", "3", "--leaf-cap", "12", "--lam", "1", "--metric", "balanced_accuracy",
        "--t-grid", "16,64", "--suites", "all", "--out", str(out),
    ]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "seed: 3\ndata_format: synthetic\nsynthetic_n: 60\npermutations: 16\nbranching: [3]\nleaf_cap: 12\n"
        f"lam: 1\nmetric: balanced_accuracy\nt_grid: [16, 64]\nsuites: all\nout: {out}\n"
    )
    assert main(["value", *flags]) == 0
    by_flags = json.loads((out / "manifest.json").read_text())
    assert main(["value", "--config", str(cfg)]) == 0
    by_file = json.loads((out / "manifest.json").read_text())
    assert by_file["config"] == by_flags["config"]
    assert by_file["config_sha256"] == by_flags["config_sha256"]
    assert isinstance(by_file["config"]["lam"], float)


@pytest.mark.parametrize("subcommand, line, word", [("value", "lam: -1", "lambda"), ("check", "suites: []", "suites")])
def test_a_config_error_reaches_the_output_directory_of_the_config_file(tmp_path, subcommand, line, word):
    out = tmp_path / "runs" / "x"
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"seed: 1\ndata_format: synthetic\nout: {out}\n{line}\n")
    assert main([subcommand, "--config", str(cfg)]) == 2
    assert not (out / "manifest.json").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and word in err["message"]
