import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abusenet.cli import main
from abusenet.data import EmptyDatasetError, SchemaError, load_corpus
from abusenet.evaluation import encode_fold
from abusenet.model import load_checkpoint
from abusenet.tensor import ContractError
from abusenet.training import predict_probs


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    run(["synth", "--task", "groups", "--samples", "160", "--seed", "3", "--out", out])
    return out


TINY = ["--batch-size", "16", "--max-epochs", "4", "--patience", "3",
        "--folds", "2", "--embed-dim", "5", "--units", "6",
        "--metadata-sizes", "8", "--fusion-dim", "6", "--recurrent-dropout", "0.25"]


def copy_without_column(src, dst, column):
    with src.open(newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(column)
    with dst.open("w", newline="") as fh:
        csv.writer(fh).writerows([[c for i, c in enumerate(r) if i != drop] for r in rows])


def copy_with_user_column(src, dst, n_users):
    with src.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[0].append("user")
    for i, row in enumerate(rows[1:]):
        row.append(f"u{i % n_users}")
    with dst.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def train_args(synth_dir, out, strategy="naive", seed="0", mask="WV+TF+UF"):
    return (["train", "--dataset", synth_dir / "dataset.csv", "--schema", synth_dir / "schema.json",
             "--strategy", strategy, "--mask", mask, "--seed", seed, "--out", out] + TINY)


class TestSynthCommand:
    def test_writes_dataset_and_schema(self, tmp_path):
        out = tmp_path / "xor"
        assert run(["synth", "--task", "xor", "--samples", "30", "--out", out]) == 0
        assert (out / "dataset.csv").exists()
        schema = json.loads((out / "schema.json").read_text())
        assert schema["classes"] == ["benign", "flagged"]
        assert schema["columns"]["signal"]["group"] == "UF"


class TestTrainCommand:
    def test_report_and_checkpoint(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(synth_dir, out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["model"] == "combined"
        assert len(report["cv"]["folds"]) == 2
        assert "auc" in report["cv"]["mean"]
        assert report["config"]["training"]["strategy"] == "naive"
        assert (out / "model.ckpt").exists()
        assert report["parameter_count"]["trainable"] > 0

    def test_interleaved_strategy_report(self, synth_dir, tmp_path):
        out = tmp_path / "inter"
        assert run(train_args(synth_dir, out, strategy="interleaved")) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["training"]["strategy"] == "interleaved"

    def test_transfer_ft_emits_three_stage_history(self, synth_dir, tmp_path):
        out = tmp_path / "tft"
        assert run(train_args(synth_dir, out, strategy="transfer-ft")) == 0
        report = json.loads((out / "report.json").read_text())
        stages = report["final_fit"]["stages"]
        assert set(stages) == {"text_pretrain", "metadata_pretrain", "fusion"}

    def test_reproducible_modulo_timing(self, synth_dir, tmp_path):
        reports, checkpoints = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            run(train_args(synth_dir, out, seed="7"))
            payload = json.loads((out / "report.json").read_text())
            payload.pop("timing")
            payload["config"].pop("dataset")
            payload["config"].pop("schema")
            payload.pop("checkpoint")
            reports.append(payload)
            checkpoints.append((out / "model.ckpt").read_bytes())
        assert reports[0] == reports[1]
        assert checkpoints[0] == checkpoints[1]

    @pytest.mark.parametrize("folds", ["1", "0"])
    def test_fewer_than_two_folds_rejected(self, synth_dir, tmp_path, folds):
        with pytest.raises(ContractError, match=f"k={folds}"):
            run(train_args(synth_dir, tmp_path / "run") + ["--folds", folds])
        assert not (tmp_path / "run").exists()


class TestEvaluateCommand:
    def test_evaluate_after_train(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        run(train_args(synth_dir, out))
        result = tmp_path / "eval.json"
        assert run(["evaluate", "--checkpoint", out / "model.ckpt",
                    "--dataset", synth_dir / "dataset.csv",
                    "--schema", synth_dir / "schema.json", "--out", result]) == 0
        payload = json.loads(result.read_text())
        assert 0.0 <= payload["metrics"]["auc"] <= 1.0

    def test_scores_only_mode(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        run(train_args(synth_dir, out))
        unlabeled = tmp_path / "unlabeled.csv"
        copy_without_column(synth_dir / "dataset.csv", unlabeled, "label")
        result = tmp_path / "scores.json"
        assert run(["evaluate", "--checkpoint", out / "model.ckpt",
                    "--dataset", unlabeled, "--schema", synth_dir / "schema.json",
                    "--out", result]) == 0
        payload = json.loads(result.read_text())
        assert "metrics" not in payload
        assert len(payload["scores"]) == 160

    def test_scores_equal_training_encoding_bitwise(self, synth_dir, tmp_path):
        # the checkpoint path re-encodes raw rows from stored vocabulary and
        # pipeline; it must reproduce the fitted full-corpus encoding exactly
        out = tmp_path / "run"
        run(train_args(synth_dir, out))
        unlabeled = tmp_path / "unlabeled.csv"
        copy_without_column(synth_dir / "dataset.csv", unlabeled, "label")
        result = tmp_path / "scores.json"
        run(["evaluate", "--checkpoint", out / "model.ckpt",
             "--dataset", unlabeled, "--schema", synth_dir / "schema.json", "--out", result])
        scores = json.loads(result.read_text())["scores"]

        model, _ = load_checkpoint(out / "model.ckpt")
        corpus = load_corpus(synth_dir / "dataset.csv", synth_dir / "schema.json")
        idx = np.arange(len(corpus))
        full, _, _ = encode_fold(corpus, idx, idx[:0], "WV+TF+UF")
        expected = predict_probs(model, full).astype(np.float64)
        got = np.array([scores[cid] for cid in corpus.ids])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_schema_mismatch_is_explicit(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        run(train_args(synth_dir, out))
        # retrain schema names a different numeric column
        other = tmp_path / "other"
        other.mkdir()
        schema = json.loads((synth_dir / "schema.json").read_text())
        schema["columns"]["uf_signal"] = schema["columns"].pop("uf_noise")
        (other / "schema.json").write_text(json.dumps(schema))
        copy_without_column(synth_dir / "dataset.csv", other / "dataset.csv", "uf_noise")
        with pytest.raises(SchemaError):
            run(["evaluate", "--checkpoint", out / "model.ckpt",
                 "--dataset", other / "dataset.csv", "--schema", other / "schema.json"])


    def test_network_features_checkpoint(self, synth_dir, tmp_path):
        # a checkpoint trained with the NF group needs the same graph at evaluation
        dataset = tmp_path / "users.csv"
        copy_with_user_column(synth_dir / "dataset.csv", dataset, n_users=20)
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"u{i} u{(i + 1) % 20}\nu{i} u{(i * 7 + 3) % 20}\n"
                                 for i in range(20)))
        graph = ["--edges", edges, "--user-column", "user"]
        io = ["--dataset", dataset, "--schema", synth_dir / "schema.json"]
        out = tmp_path / "run"
        assert run(["train", *io, *graph, "--strategy", "naive", "--mask", "WV+TF+UF+NF",
                    "--out", out] + TINY) == 0
        _, meta = load_checkpoint(out / "model.ckpt")
        assert "NF" in meta.mask
        result = tmp_path / "eval.json"
        assert run(["evaluate", "--checkpoint", out / "model.ckpt", *io, *graph,
                    "--out", result]) == 0
        assert 0.0 <= json.loads(result.read_text())["metrics"]["auc"] <= 1.0
        with pytest.raises(SchemaError, match="nf_"):
            run(["evaluate", "--checkpoint", out / "model.ckpt", *io])

    @pytest.mark.parametrize("flag, value", [("--user-column", "user"), ("--nodes", "nodes.txt")])
    def test_network_flag_without_edges_rejected(self, synth_dir, tmp_path, flag, value):
        out = tmp_path / "run"
        with pytest.raises(SchemaError, match=f"{flag} needs --edges"):
            run(train_args(synth_dir, out) + [flag, value])
        assert not out.exists()

    def test_recurrent_dropout_of_one_rejected(self, synth_dir, tmp_path):
        with pytest.raises(ContractError, match="recurrent_dropout"):
            run(train_args(synth_dir, tmp_path / "run", mask="WV") + ["--recurrent-dropout", "1.0"])

    def test_header_only_dataset_has_no_rows(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        run(train_args(synth_dir, out))
        header_only = tmp_path / "header_only.csv"
        with (synth_dir / "dataset.csv").open(newline="") as fh:
            header_only.write_text(fh.readline())
        with pytest.raises(EmptyDatasetError, match="no data rows"):
            run(["evaluate", "--checkpoint", out / "model.ckpt",
                 "--dataset", header_only, "--schema", synth_dir / "schema.json"])


# the configuration is checked before the dataset is opened: these runs name
# a dataset that does not exist and still fail on the flag
@pytest.mark.parametrize("flags, match", [
    (["--learning-rate", "-1"], "learning_rate must be finite and > 0, got -1.0"),
    (["--learning-rate", "0"], "learning_rate must be finite and > 0, got 0.0"),
    (["--learning-rate", "nan"], "learning_rate must be finite and > 0, got nan"),
    (["--embed-dim", "0"], "embed_dim must be >= 1, got 0"),
    (["--units", "0", "--fusion-dim", "0"], "units must be >= 1, got 0"),
    (["--metadata-sizes", "8,0"], r"hidden\[1\] must be >= 1, got 0"),
    (["--units", "8", "--fusion-dim", "6"], r"--units \(8\) must equal --fusion-dim \(6\)"),
    (["--folds", "1"], "cross-validation needs k >= 2 folds, got k=1"),
    (["--validation-fraction", "-1"], r"validation_fraction must be in \(0, 1\), got -1.0"),
    (["--validation-fraction", "0"], r"validation_fraction must be in \(0, 1\), got 0.0"),
    (["--recurrent-dropout", "1"], r"recurrent_dropout must be in \[0, 1\), got 1.0"),
], ids=["negative_lr", "zero_lr", "nan_lr", "zero_embed_dim", "zero_units", "zero_hidden",
        "units_not_fusion_dim", "one_fold", "negative_validation_fraction",
        "zero_validation_fraction", "recurrent_dropout_of_one"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_bad_configuration_rejected_before_data_is_read(tmp_path, command, flags, match):
    io = ["--dataset", tmp_path / "missing.csv", "--schema", tmp_path / "missing.json",
          "--out", tmp_path / "run"]
    masks = ["--mask", "WV+TF+UF"] if command == "train" else ["--masks", "UF;WV+UF"]
    with pytest.raises(ContractError, match=match):
        run([command, *io, *masks, *TINY, *flags])
    assert not (tmp_path / "run").exists()


def test_baseline_fold_count_rejected_before_data_is_read(tmp_path):
    with pytest.raises(ContractError, match="cross-validation needs k >= 2 folds, got k=1"):
        run(["baseline", "--dataset", tmp_path / "missing.csv", "--schema", tmp_path / "missing.json",
             "--folds", "1", "--out", tmp_path / "baseline.json"])
    assert not (tmp_path / "baseline.json").exists()


def test_unequal_path_widths_allowed_without_fusion(synth_dir, tmp_path):
    # a text-only mask builds no fused head, so --units need not match --fusion-dim
    assert run(train_args(synth_dir, tmp_path / "run", mask="WV") + ["--units", "8"]) == 0


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "abusenet", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: abusenet")
    for command in ("train", "evaluate", "ablate", "baseline", "synth"):
        assert command in done.stdout


class TestAblateCommand:
    def test_custom_masks_and_sorting(self, synth_dir, tmp_path):
        result = tmp_path / "ablation.json"
        args = ["ablate", "--dataset", synth_dir / "dataset.csv",
                "--schema", synth_dir / "schema.json",
                "--masks", "UF;WV+TF+UF", "--out", result] + TINY
        assert run(args) == 0
        payload = json.loads(result.read_text())
        assert [r["mask"] for r in payload["rows"]] == sorted(
            [r["mask"] for r in payload["rows"]],
            key=lambda m: [row["mask"] for row in payload["rows"]].index(m))
        aucs = [r["auc"] for r in payload["rows"]]
        assert aucs == sorted(aucs)
        assert len(payload["rows"]) == 2


class TestBaselineCommand:
    def test_report_marks_model(self, synth_dir, tmp_path):
        result = tmp_path / "nb.json"
        assert run(["baseline", "--dataset", synth_dir / "dataset.csv",
                    "--schema", synth_dir / "schema.json", "--folds", "3",
                    "--top-k", "500", "--out", result]) == 0
        payload = json.loads(result.read_text())
        assert payload["model"] == "naive-bayes-tfidf"
        assert len(payload["cv"]["folds"]) == 3

    def test_top_k_below_one_rejected(self, synth_dir):
        with pytest.raises(ValueError, match="top_k must be at least 1, got 0"):
            run(["baseline", "--dataset", synth_dir / "dataset.csv",
                 "--schema", synth_dir / "schema.json", "--folds", "3", "--top-k", "0"])

    def test_deterministic_under_seed(self, synth_dir, tmp_path):
        outs = []
        for name in ("x", "y"):
            result = tmp_path / f"{name}.json"
            run(["baseline", "--dataset", synth_dir / "dataset.csv",
                 "--schema", synth_dir / "schema.json", "--folds", "3",
                 "--top-k", "500", "--seed", "4", "--out", result])
            payload = json.loads(result.read_text())
            payload.pop("timing")
            outs.append(payload)
        assert outs[0] == outs[1]
