"""CLI contract: flags, files, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hgcl import checks, kernels
from hgcl import pipeline as pl
from hgcl.cli import CONFIG_KEYS, HPC_KEYS, RUNTIME_EXIT, build_parser, main
from hgcl.hpc import HpcConfig
from hgcl.pipeline import TrainConfig

FAST_TRAIN = ["--epochs", "15", "--patience", "15", "--hidden-dim", "8",
              "--embed-dim", "8"]


def run_main(argv, capsys=None):
    rc = main(argv)
    return rc


class TestTrainCommand:
    def test_three_seeds_produce_three_summaries_and_aggregate(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2,4,8,0.3", "--out", str(out),
                   "--seeds", "0,1,2"] + FAST_TRAIN)
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        for s in (0, 1, 2):
            assert f"summary_seed{s}.json" in names
            assert f"metrics_seed{s}.jsonl" in names
            assert f"model_seed{s}.npz" in names
        assert "aggregate.json" in names
        assert "manifest.json" in names
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["n_seeds"] == 3
        assert len(agg["per_seed_test"]) == 3
        assert 0.0 <= agg["mean"] <= 1.0

    def test_metric_stream_is_line_delimited_json(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--synthetic", "2,4,8,0.3", "--out", str(out)] + FAST_TRAIN)
        lines = (out / "metrics_seed0.jsonl").read_text().strip().splitlines()
        assert len(lines) == 15
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["epoch"] == i
            assert set(rec) == {"epoch", "task_loss", "hpc_loss", "total_loss", "val_metric"}

    def test_identical_invocations_byte_identical_outputs(self, tmp_path):
        args = ["train", "--synthetic", "2,4,8,0.3", "--seeds", "0,1"] + FAST_TRAIN
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("aggregate.json", "metrics_seed0.jsonl", "metrics_seed1.jsonl",
                     "summary_seed0.json", "summary_seed1.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_echoes_config_and_hash(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--synthetic", "2,4,8,0.3", "--out", str(out),
              "--lambda-contrast", "0.5"] + FAST_TRAIN)
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["lambda_contrast"] == 0.5
        assert man["config"]["hpc"]["num_negatives"] == 5
        assert "input_sha256" in man["source"]
        assert man["duration_sec"] >= 0

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 15, "patience": 10, "lr": 0.5,
                                        "hidden_dim": 8, "embed_dim": 8}))
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out),
                   "--config", str(cfg_file), "--lr", "0.01"])
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["lr"] == 0.01       # flag wins
        assert man["config"]["epochs"] == 15     # file beats default
        assert man["config"]["patience"] == 10

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        rc = main(["train", "--synthetic", "2,3,8,0.2", "--out", str(tmp_path / "o"),
                   "--config", str(cfg_file)])
        assert rc == 1

    def test_dataset_dir_mode(self, tmp_path, triangle_dir):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(triangle_dir), "--out", str(out),
                   "--epochs", "5", "--patience", "5", "--hidden-dim", "4",
                   "--embed-dim", "4", "--num-negatives", "1"])
        assert rc == 2  # triangle: every anchor's negative pool is empty

        from hgcl.data import save_graph, synthetic_tree, split, Graph
        g = synthetic_tree(2, 4, d_feat=8, noise=0.3, seed=0)
        tr, va, te = split(g, seed=0)
        save_graph(tmp_path / "tree", Graph(g.n_nodes, g.edges, g.features,
                                            g.labels, tr, va, te))
        rc = main(["train", "--data", str(tmp_path / "tree"), "--out", str(out)]
                  + FAST_TRAIN)
        assert rc == 0

    def test_outputs_are_complete_with_no_temp_files(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out),
                   "--seeds", "0,1"] + FAST_TRAIN)
        assert rc == 0
        assert list(out.glob("*.tmp")) == []
        expected = ["aggregate.json"] + [f"{stem}_seed{s}.{ext}" for s in (0, 1)
                                         for stem, ext in (("metrics", "jsonl"), ("model", "npz"),
                                                           ("summary", "json"))]
        man = json.loads((out / "manifest.json").read_text())
        assert man["outputs"] == sorted(expected)
        assert sorted(p.name for p in out.iterdir()) == sorted(expected + ["manifest.json"])

    def test_writes_stay_under_out(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "designated"
        main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out)] + FAST_TRAIN)
        assert list(workdir.iterdir()) == []


class TestFlagTable:
    @staticmethod
    def _fields():
        train = [f for f in dataclasses.fields(TrainConfig) if f.name not in ("seed", "hpc")]
        hpc = [f for f in dataclasses.fields(HpcConfig) if f.name != "similarity"]
        return train + hpc

    def test_every_config_field_is_a_train_flag_of_its_type(self):
        fields = self._fields()
        argv = ["train", "--out", "o"]
        for f in fields:
            argv += [f"--{f.name.replace('_', '-')}", str(f.default)]
        args = build_parser().parse_args(argv)
        for f in fields:
            value = getattr(args, f.name)
            assert type(value) is type(f.default), f.name
            assert value == f.default, f.name

    def test_flags_keep_field_order(self):
        assert list({**CONFIG_KEYS, **HPC_KEYS}) == [f.name for f in self._fields()]


class TestOtherCommands:
    def test_delta_tree_is_zero(self, capsys):
        rc = main(["delta", "--synthetic", "3,3"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec == {"delta": 0.0, "mode": "exact", "n_nodes": 40, "sources": 40}

    def test_delta_reports_the_component_it_ran_on(self, tmp_path, capsys):
        from hgcl.data import Graph, gromov_delta, save_graph
        cycle = [(i, (i + 1) % 50) for i in range(50)]
        path = [(i, i + 1) for i in range(50, 79)]
        labels = np.arange(80) % 2
        save_graph(tmp_path / "two", Graph(80, np.array(cycle + path), np.eye(80, 4), labels))
        comp = Graph(50, np.array(cycle), np.eye(50, 4), labels[:50])
        with pytest.warns(UserWarning, match="2 components"):
            rc = main(["delta", "--data", str(tmp_path / "two")])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec == {"delta": gromov_delta(comp, exact=True), "mode": "exact", "n_nodes": 50,
                       "sources": 50}

    def test_delta_exact_refused_above_limit(self, capsys):
        rc = main(["delta", "--synthetic", "2,6", "--exact"])
        assert rc == 2
        assert "sampling" in capsys.readouterr().err

    def test_delta_sampled_below_exact(self, capsys):
        main(["delta", "--synthetic", "2,4", "--exact"])
        exact = json.loads(capsys.readouterr().out.strip())["delta"]
        main(["delta", "--synthetic", "2,4", "--samples", "500"])
        sampled = json.loads(capsys.readouterr().out.strip())["delta"]
        assert sampled <= exact

    def test_delta_with_a_sample_covering_every_node_is_unchanged(self, capsys):
        # 2000 quadruples draw from s = 155 >= n = 121 nodes: every node is a
        # BFS source and the output is the one read before sources were sampled
        main(["delta", "--synthetic", "3,4", "--samples", "2000", "--seed", "4"])
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec == {"delta": 0.0, "mode": "sampled", "n_nodes": 121, "sources": 121}

    def test_gradcheck_scope_listing_and_exit(self, capsys):
        rc = main(["gradcheck", "--scope", "encoder"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        expected = len(checks.gradient_check_cases(scope="encoder"))
        assert len(lines) == expected

    def test_gradcheck_all_covers_every_registered_check(self, capsys):
        rc = main(["gradcheck", "--scope", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(checks.gradient_check_cases(scope="all"))
        scopes = {c.scope for c in checks.gradient_check_cases(scope="all")}
        assert scopes == {"manifold", "encoder", "hpc"}

    def test_manifold_test_zero_trials_vacuous_pass(self, capsys):
        rc = main(["manifold-test", "--trials", "0"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "vacuous" in err

    def test_manifold_test_small_run_passes(self, capsys):
        rc = main(["manifold-test", "--trials", "30"])
        assert rc == 0

    def test_heatmap_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--synthetic", "2,4,8,0.3", "--out", str(out)] + FAST_TRAIN)
        csv_path = tmp_path / "heat.csv"
        rc = main(["heatmap", "--synthetic", "2,4,8,0.3",
                   "--model", str(out / "model_seed0.npz"),
                   "--nodes", "0,1,2,3", "--view", "beta", "--out", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["id", "0", "1", "2", "3", "label"]
        assert len(lines) == 5

    def test_heatmap_bad_nodes_spec(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out)] + FAST_TRAIN)
        rc = main(["heatmap", "--synthetic", "2,3,8,0.2",
                   "--model", str(out / "model_seed0.npz"),
                   "--nodes", "zap", "--out", str(tmp_path / "h.csv")])
        assert rc == 1

    @pytest.mark.parametrize("spec, code, message", [
        ("per_class:x", 1, "--nodes wants"),
        ("per_class:0", RUNTIME_EXIT, "per_class must be >= 1, got 0"),
        ("per_class:-2", RUNTIME_EXIT, "per_class must be >= 1, got -2"),
    ], ids=["unparsed", "zero", "negative"])
    def test_heatmap_bad_per_class_writes_nothing(self, tmp_path, capsys, spec, code, message):
        out = tmp_path / "run"
        main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out)] + FAST_TRAIN)
        capsys.readouterr()
        csv_path = tmp_path / "h.csv"
        rc = main(["heatmap", "--synthetic", "2,3,8,0.2",
                   "--model", str(out / "model_seed0.npz"),
                   "--nodes", spec, "--out", str(csv_path)])
        assert rc == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not csv_path.exists()


    def test_heatmap_feature_width_mismatch_names_both_widths(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out)] + FAST_TRAIN)
        capsys.readouterr()
        csv_path = tmp_path / "h.csv"
        rc = main(["heatmap", "--synthetic", "2,3,12,0.2",
                   "--model", str(out / "model_seed0.npz"), "--out", str(csv_path)])
        assert rc == RUNTIME_EXIT
        assert capsys.readouterr().err == ("error: PipelineError: the model takes 8-wide "
                                           "features, the graph has 12-wide features\n")
        assert not csv_path.exists()


class TestExitCodes:
    def test_usage_error_is_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hgcl.cli", "train"],  # missing --out
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        assert proc.returncode == 1

    def test_missing_dataset_is_usage_error(self, tmp_path):
        rc = main(["train", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_out_of_range_option_is_exit_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out),
                   "--num-layers", "0"] + FAST_TRAIN)
        assert rc == RUNTIME_EXIT
        assert "num_layers must be >= 1" in capsys.readouterr().err
        assert not list(out.glob("metrics_seed*"))

    @pytest.mark.parametrize("flag, value, message", [
        ("--patience", "0", "patience must be >= 1"),
        ("--lambda-contrast", "nan", "lambda_contrast must be finite"),
        ("--bias", "nan", "bias must be finite"),
        ("--temperature", "inf", "temperature must be finite"),
        ("--lambda-neg", "nan", "lambda_neg must be finite"),
    ])
    def test_value_that_breaks_training_is_exit_2_before_any_output(self, tmp_path, capsys,
                                                                      flag, value, message):
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out)] + FAST_TRAIN
                  + [flag, value])
        assert rc == RUNTIME_EXIT
        assert message in capsys.readouterr().err
        assert not list(out.glob("metrics_seed*"))

    @pytest.mark.parametrize("seeds, message", [
        ("a", "--seeds wants comma-separated integers, got 'a'"),
        ("0,-1", "--seeds must be non-negative, got '0,-1'"),
        ("0,0", "--seeds names a seed twice, got '0,0'"),
    ])
    def test_bad_seeds_are_usage_errors_before_any_training(self, tmp_path, capsys,
                                                              monkeypatch, seeds, message):
        def no_training(*args):
            raise AssertionError("training ran")

        monkeypatch.setattr(pl, "train", no_training)
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out),
                   "--seeds", seeds] + FAST_TRAIN)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not list(out.glob("metrics_seed*"))

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_delta_samples_below_one_is_exit_2_before_any_bfs(self, capsys, monkeypatch,
                                                               samples):
        def no_bfs(*args):
            raise AssertionError("BFS ran")

        monkeypatch.setattr(kernels, "bfs_all_pairs", no_bfs)
        rc = main(["delta", "--synthetic", "2,6", "--samples", samples])
        assert rc == RUNTIME_EXIT
        captured = capsys.readouterr()
        assert f"num_quadruples must be >= 1, got {samples}" in captured.err
        assert captured.out == ""

    def test_manifold_test_negative_trials_is_exit_2(self, capsys):
        rc = main(["manifold-test", "--trials", "-5"])
        assert rc == RUNTIME_EXIT
        captured = capsys.readouterr()
        assert "trials must be >= 0, got -5" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("epochs", 12.9), ("epochs", 15.0), ("hidden_dim", True), ("lr", False),
        ("activation", 3), ("num_negatives", 2.5),
    ])
    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out),
                   "--config", str(cfg_file)] + FAST_TRAIN)
        assert rc == 1
        assert f"config key {key!r} wants" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_config_int_for_float_accepted_and_echoed_exactly(self, tmp_path):
        requested = {"lr": 1, "lambda_contrast": 2, "bias": 3, "epochs": 4, "patience": 4,
                     "hidden_dim": 8, "embed_dim": 8}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(requested))
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2,3,8,0.2", "--out", str(out),
                   "--config", str(cfg_file)])
        assert rc == 0
        echoed = json.loads((out / "manifest.json").read_text())["config"]
        for key, value in requested.items():
            got = echoed["hpc"][key] if key in HPC_KEYS else echoed[key]
            assert got == value and type(got) is CONFIG_KEYS.get(key, HPC_KEYS.get(key))

    def test_runtime_error_is_exit_2(self, tmp_path):
        rc = main(["delta", "--data", str(tmp_path / "missing")])
        assert rc == 2

    def test_star_hub_fails_before_training_with_named_error(self, tmp_path, capsys):
        from hgcl.data import Graph, save_graph, split
        n = 30  # hub 0 has no non-neighbour, so no m=5 negatives
        g = Graph(n, np.array([(0, j) for j in range(1, n)]),
                  np.random.default_rng(0).standard_normal((n, 4)), np.arange(n) % 2)
        save_graph(tmp_path / "star", Graph(n, g.edges, g.features, g.labels,
                                            *split(g, seed=0)))
        out = tmp_path / "run"
        rc = main(["train", "--data", str(tmp_path / "star"), "--out", str(out),
                   "--epochs", "3", "--patience", "3", "--hidden-dim", "4",
                   "--embed-dim", "4"])
        assert rc == RUNTIME_EXIT
        err = capsys.readouterr().err
        assert "SamplingError" in err
        assert "anchor 0: negative pool has 0 nodes < m=5; 1 of 30 anchors are short" in err
        assert list(out.glob("metrics_seed*")) == []
        assert list(out.glob("model_seed*")) == []
