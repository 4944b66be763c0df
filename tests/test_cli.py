import csv
import importlib
import inspect
import json
import os
import pkgutil
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import abusenet
from abusenet import cli, evaluation, layers
from abusenet.cli import _configs, build_parser, main
from abusenet.data import EmptyDatasetError, SchemaError, load_corpus, synth_groups, write_corpus
from abusenet.evaluation import build_and_fit, encode_fold
from abusenet.features import ConfigurationError
from abusenet.model import ModelConfig, load_checkpoint
from abusenet.tensor import ContractError
from abusenet.text import load_embeddings
from abusenet.training import TrainingConfig, predict_probs


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    run(["synth", "--task", "groups", "--samples", "160", "--seed", "3", "--out", out])
    return out


TINY = ["--batch-size", "16", "--max-epochs", "4", "--patience", "3",
        "--folds", "2", "--embed-dim", "5", "--units", "6",
        "--metadata-sizes", "8", "--recurrent-dropout", "0.25"]


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

    def test_left_out_flags_keep_the_task_defaults(self, tmp_path):
        # synth_groups() makes 3000 rows at noise 0 and seed 0, unlike synth_xor()
        assert run(["synth", "--task", "groups", "--out", tmp_path / "cli"]) == 0
        write_corpus(synth_groups(), tmp_path / "direct.csv", tmp_path / "direct.json")
        assert (tmp_path / "cli" / "dataset.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
        assert (tmp_path / "cli" / "schema.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    @pytest.mark.parametrize("flags, match", [
        (["--samples", "0"], "--samples must be >= 1, got 0"),
        (["--samples", "-5"], "--samples must be >= 1, got -5"),
        (["--noise", "7"], r"--noise is a label-flip probability in \[0, 1\], got 7.0"),
        (["--noise", "-0.5"], r"--noise is a label-flip probability in \[0, 1\], got -0.5"),
    ], ids=["zero_samples", "negative_samples", "noise_above_one", "negative_noise"])
    def test_bad_size_rejected_before_anything_is_written(self, tmp_path, flags, match):
        with pytest.raises(ContractError, match=match):
            run(["synth", "--task", "xor", *flags, "--out", tmp_path / "out"])
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_report_records_what_decides_the_gru_split(self, synth_dir, tmp_path, workers):
        # the count OpenBLAS reports after cli.run pins it; two folds run in
        # at most two processes
        out = tmp_path / "run"
        assert cli.run([str(a) for a in train_args(synth_dir, out) + ["--workers", workers]]) == 0
        cpus = len(os.sched_getaffinity(0))
        lib = layers.openblas()
        assert json.loads((out / "report.json").read_text())["environment"] == {
            "numpy": np.__version__, "blas": lib and Path(lib[0]).name, "blas_threads": lib and 1,
            "cpus": cpus, "block_cap": max(1, cpus // min(workers, 2))}

    def test_checkpoint_header_records_the_reports_environment(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(synth_dir, out)) == 0
        environment = json.loads((out / "report.json").read_text())["environment"]
        _, meta = load_checkpoint(out / "model.ckpt")
        assert meta.extra == {"strategy": "naive", "seed": 0, "environment": environment}

    def test_train_without_openblas_or_cpu_affinity(self, synth_dir, tmp_path, run_snippet):
        # without /proc no OpenBLAS is found, and only Linux has
        # os.sched_getaffinity: nothing splits, the pin leaves OpenBLAS at
        # its count, and the report is still written
        out = tmp_path / "run"
        snippet = textwrap.dedent(f"""
            import builtins, json, os
            from abusenet import layers
            from abusenet.cli import run
            found = layers.openblas()  # the real one, read while /proc is there
            threads = found and found[1]()
            layers.openblas.cache_clear()
            open_ = builtins.open

            def no_proc(file, *args, **kwargs):
                if file == "/proc/self/maps":
                    raise FileNotFoundError(file)
                return open_(file, *args, **kwargs)

            builtins.open = no_proc
            del os.sched_getaffinity
            assert layers.openblas() is None and layers.blas_threads() is None
            assert layers.recurrence_blocks(4096, 128) == 1
            assert run({[str(a) for a in train_args(synth_dir, out)]!r}) == 0
            assert (found and found[1]()) == threads
            print(json.dumps(json.load(open({str(out / "report.json")!r}))["environment"]))
        """)
        environment = json.loads(run_snippet(snippet, blas_threads=2).splitlines()[-1])
        assert environment["blas"] is None and environment["blas_threads"] is None
        assert environment["cpus"] == os.cpu_count()

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


@pytest.mark.skipif(layers.cpu_count() < 2, reason="OpenBLAS's default is one thread on one CPU")
def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # the CLI pins OpenBLAS to one thread: a paper-width train writes the
    # checkpoint of OPENBLAS_NUM_THREADS=1 under OpenBLAS's default too,
    # which is one thread per CPU
    assert run(["synth", "--task", "groups", "--samples", "800", "--seed", "1", "--out", tmp_path]) == 0
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    checkpoints = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"run{len(checkpoints)}"
        argv = ["train", "--dataset", tmp_path / "dataset.csv", "--schema", tmp_path / "schema.json",
                "--batch-size", "512", "--folds", "2", "--max-epochs", "2", "--patience", "1",
                "--mask", "WV+TF+UF", "--out", out]
        done = subprocess.run([sys.executable, "-m", "abusenet", *map(str, argv)], env={**env, **threads},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        checkpoints.append((out / "model.ckpt").read_bytes())
    assert checkpoints[0] == checkpoints[1]


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


    def test_columns_of_groups_outside_the_mask_not_demanded(self, synth_dir, tmp_path):
        # a WV+TF checkpoint scores a dataset without the UF columns, with the
        # bits it gives the full dataset; also when its header, as older ones
        # do, lists the UF columns in its pipeline
        out = tmp_path / "run"
        run(train_args(synth_dir, out, mask="WV+TF"))
        full, reduced = tmp_path / "full", tmp_path / "reduced"
        full.mkdir()
        reduced.mkdir()
        schema = json.loads((synth_dir / "schema.json").read_text())
        (full / "schema.json").write_text(json.dumps(schema))
        (reduced / "schema.json").write_text(json.dumps({**schema, "columns": {}}))
        copy_without_column(synth_dir / "dataset.csv", full / "dataset.csv", "label")
        copy_without_column(full / "dataset.csv", tmp_path / "one.csv", "uf_noise")
        copy_without_column(tmp_path / "one.csv", reduced / "dataset.csv", "uf_signal")
        older = tmp_path / "older.ckpt"
        rewrite_header(out / "model.ckpt", older, lambda header: header["pipeline"]["columns"].update(
            uf_noise=["UF", "numeric"], uf_signal=["UF", "numeric"]))
        scores = {}
        for ckpt in (out / "model.ckpt", older):
            for d in (full, reduced):
                result = tmp_path / f"{ckpt.stem}-{d.name}.json"
                assert run(["evaluate", "--checkpoint", ckpt, "--dataset", d / "dataset.csv",
                            "--schema", d / "schema.json", "--out", result]) == 0
                scores[ckpt.stem, d.name] = json.loads(result.read_text())["scores"]
        expected = json.dumps(scores["model", "full"])
        assert all(json.dumps(s) == expected for s in scores.values())

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
    (["--units", "0"], "units must be >= 1, got 0"),
    (["--metadata-sizes", "8,0"], r"hidden\[1\] must be >= 1, got 0"),
    (["--folds", "1"], "cross-validation needs k >= 2 folds, got k=1"),
    (["--validation-fraction", "-1"], r"validation_fraction must be in \(0, 1\), got -1.0"),
    (["--validation-fraction", "0"], r"validation_fraction must be in \(0, 1\), got 0.0"),
    (["--recurrent-dropout", "1"], r"recurrent_dropout must be in \[0, 1\), got 1.0"),
    (["--metadata-sizes", "8,x"], "--metadata-sizes item 'x' is not an integer"),
    (["--workers", "0"], "--workers must be >= 1, got 0"),
    (["--workers", "-1"], "--workers must be >= 1, got -1"),
], ids=["negative_lr", "zero_lr", "nan_lr", "zero_embed_dim", "zero_units", "zero_hidden",
        "one_fold", "negative_validation_fraction",
        "zero_validation_fraction", "recurrent_dropout_of_one", "non_integer_hidden",
        "zero_workers", "negative_workers"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_bad_configuration_rejected_before_data_is_read(tmp_path, command, flags, match):
    io = ["--dataset", tmp_path / "missing.csv", "--schema", tmp_path / "missing.json",
          "--out", tmp_path / "run"]
    masks = ["--mask", "WV+TF+UF"] if command == "train" else ["--masks", "UF;WV+UF"]
    with pytest.raises(ContractError, match=match):
        run([command, *io, *masks, *TINY, *flags])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, match", [
    (["--folds", "1"], "cross-validation needs k >= 2 folds, got k=1"),
    (["--top-k", "0"], "top_k must be at least 1, got 0"),
], ids=["one_fold", "zero_top_k"])
def test_baseline_configuration_rejected_before_data_is_read(tmp_path, flags, match):
    with pytest.raises(ContractError, match=match):
        run(["baseline", "--dataset", tmp_path / "missing.csv", "--schema", tmp_path / "missing.json",
             *flags, "--out", tmp_path / "baseline.json"])
    assert not (tmp_path / "baseline.json").exists()


def test_ablate_without_a_mask_rejected_before_data_is_read(tmp_path):
    with pytest.raises(ConfigurationError, match="--masks ';' names no mask"):
        run(["ablate", "--dataset", tmp_path / "missing.csv", "--schema", tmp_path / "missing.json",
             "--masks", ";", *TINY])


@pytest.mark.parametrize("command", ["train", "baseline"])
def test_fold_with_a_single_class_is_one_error_line(tmp_path, capsys, command):
    # 25 benign and 4 flagged rows in 5 folds: fold 4 tests benign rows only
    rows = [f"r{i},word{i % 7} story,{'flagged' if i < 4 else 'benign'}" for i in range(29)]
    (tmp_path / "d.csv").write_text("id,text,label\n" + "\n".join(rows) + "\n")
    (tmp_path / "s.json").write_text('{"classes": ["benign", "flagged"]}')
    io = ["--dataset", tmp_path / "d.csv", "--schema", tmp_path / "s.json", "--folds", "5"]
    flags = {"train": ["--mask", "WV", "--out", tmp_path / "run", *TINY[:6]], "baseline": []}[command]
    with pytest.warns(UserWarning, match="stratification degrades"):
        assert cli.run([str(a) for a in [command, *io, *flags]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("abusenet: error: fold 4: the test split holds a single class")
    assert err.count("\n") == 1


def single_class_fold_case(tmp_path):
    """25 benign and 4 flagged rows in 5 folds: fold 4 tests benign rows only."""
    rows = [f"r{i},word{i % 7} story,{'flagged' if i < 4 else 'benign'}" for i in range(29)]
    (tmp_path / "d.csv").write_text("id,text,label\n" + "\n".join(rows) + "\n")
    (tmp_path / "s.json").write_text('{"classes": ["benign", "flagged"]}')
    return ["baseline", "--dataset", tmp_path / "d.csv", "--schema", tmp_path / "s.json", "--folds", "5"]


def test_warning_is_one_stderr_line_before_the_error(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "abusenet", *map(str, single_class_fold_case(tmp_path))],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [
        "abusenet: warning: some class has only 4 samples for 5 folds; "
        "stratification degrades to best effort",
        "abusenet: error: fold 4: the test split holds a single class, so its AUC is undefined "
        "(some class has fewer than 5 samples)",
    ]


def test_run_restores_the_warning_format(tmp_path):
    before = warnings.formatwarning
    with pytest.warns(UserWarning, match="stratification degrades"):
        assert cli.run([str(a) for a in single_class_fold_case(tmp_path)]) == 2
    assert warnings.formatwarning is before


# exceptions that mean a bug in the program, not bad input: the CLI lets them
# reach the user with their traceback
PROGRAMMING_ERRORS = {"ShapeError", "NumericError"}


def package_exceptions() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(abusenet.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"abusenet.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == module.__name__:
                found[name] = obj
    return found


def test_programming_errors_are_package_exceptions():
    assert PROGRAMMING_ERRORS <= set(package_exceptions())


@pytest.mark.parametrize("name", sorted(package_exceptions()))
def test_every_input_error_is_one_cli_line(monkeypatch, capsys, name):
    # a new input-error class fails here until cli.run reports it
    error = package_exceptions()[name]

    def fail(argv=None):
        raise error("bad input")

    monkeypatch.setattr(cli, "main", fail)
    if name in PROGRAMMING_ERRORS:
        with pytest.raises(error):
            cli.run([])
    else:
        assert cli.run([]) == 2
        assert capsys.readouterr().err == "abusenet: error: bad input\n"


@pytest.mark.parametrize("reader", ["dataset", "edges", "nodes", "embeddings"])
def test_non_utf8_input_is_one_cli_line_naming_file_and_line(synth_dir, tmp_path, capsys, reader):
    files = {"dataset": tmp_path / "users.csv", "edges": tmp_path / "edges.txt",
             "nodes": tmp_path / "nodes.txt", "embeddings": tmp_path / "vectors.txt"}
    copy_with_user_column(synth_dir / "dataset.csv", files["dataset"], n_users=4)
    files["edges"].write_text("u0 u1\nu1 u2\nu2 u3\n")
    files["nodes"].write_text("u0 5 3\nu1 2 2\n")
    files["embeddings"].write_text("alert 0.1 0.2 0.3 0.4 0.5\ngame 0.5 0.4 0.3 0.2 0.1\n")
    bad = files[reader]
    first, rest = bad.read_bytes().split(b"\n", 1)
    bad.write_bytes(first + b"\n\xff" + rest)
    argv = ["train", "--dataset", files["dataset"], "--schema", synth_dir / "schema.json",
            "--edges", files["edges"], "--nodes", files["nodes"], "--user-column", "user",
            "--embeddings", files["embeddings"], "--mask", "WV+TF+UF+NF",
            "--out", tmp_path / "run"] + TINY
    assert cli.run([str(a) for a in argv]) == 2
    kind = {"edges": "edge file ", "nodes": "attribute file "}.get(reader, "")
    assert capsys.readouterr().err == f"abusenet: error: {bad}: {kind}line 2: bytes that are not UTF-8\n"


@pytest.mark.parametrize("mask", ["UF", "WV+UF"])
def test_metadata_path_ends_at_units_width(synth_dir, tmp_path, mask):
    # the metadata path's last layer is --units wide, fused with the text path or not
    assert run(train_args(synth_dir, tmp_path / "run", mask=mask) + ["--units", "7"]) == 0
    model, meta = load_checkpoint(tmp_path / "run" / "model.ckpt")
    assert meta.config.fusion_dim == 7
    assert model.metadata_path.feature_dim == 7


def test_train_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["train", "--dataset", "d.csv", "--schema", "s.json", "--out", "run"])
    assert _configs(args) == (TrainingConfig(), ModelConfig())


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "abusenet", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: abusenet")
    for command in ("train", "evaluate", "ablate", "baseline", "synth"):
        assert command in done.stdout


@pytest.mark.parametrize("case", ["missing_dataset", "junk_checkpoint"])
def test_input_error_is_one_stderr_line_and_exit_2(synth_dir, tmp_path, case):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint")
    named, argv = {
        "missing_dataset": (tmp_path / "absent.csv",
                            ["train", "--dataset", tmp_path / "absent.csv",
                             "--schema", synth_dir / "schema.json", "--out", tmp_path / "out"]),
        "junk_checkpoint": (junk, ["evaluate", "--checkpoint", junk, "--dataset", synth_dir / "dataset.csv",
                                   "--schema", synth_dir / "schema.json"]),
    }[case]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "abusenet", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("abusenet: error: "), done.stderr
    assert str(named) in lines[0]


@pytest.fixture(scope="module")
def trained_checkpoint(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run(train_args(synth_dir, out)) == 0
    return out / "model.ckpt"


def rewrite_header(src, dst, change) -> None:
    """Copy the checkpoint ``src`` to ``dst`` with ``change`` applied to its
    header (a function that edits the parsed header in place)."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[7:11])
    header = json.loads(raw[11:11 + hlen])
    change(header)
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:7] + struct.pack("<I", len(blob)) + blob + raw[11 + hlen:])


def evaluate_in_subprocess(checkpoint, synth_dir):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "abusenet", "evaluate", "--checkpoint", str(checkpoint),
                           "--dataset", str(synth_dir / "dataset.csv"),
                           "--schema", str(synth_dir / "schema.json")],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("field", ["mask", "pipeline", "vocab_tokens", "schema"])
def test_wrong_typed_checkpoint_field_is_one_stderr_line_and_exit_2(synth_dir, tmp_path,
                                                                     trained_checkpoint, field):
    def change(header):
        # a list of integers as long as the tokens keeps the parameter sizes
        header[field] = list(range(len(header[field]))) if field == "vocab_tokens" else 7

    bad = tmp_path / "bad.ckpt"
    rewrite_header(trained_checkpoint, bad, change)
    done = evaluate_in_subprocess(bad, synth_dir)
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"abusenet: error: {bad}: "), done.stderr
    assert field in lines[0]


@pytest.mark.parametrize("pipeline", [{"x": 1}, {"columns": 7}, {"columns": {}, "encoders": {"lang": 3}}],
                         ids=["no_columns", "columns_int", "encoder_int"])
def test_malformed_checkpoint_pipeline_is_one_stderr_line_and_exit_2(synth_dir, tmp_path,
                                                                      trained_checkpoint, pipeline):
    bad = tmp_path / "bad.ckpt"
    rewrite_header(trained_checkpoint, bad, lambda header: header.update(pipeline=pipeline))
    done = evaluate_in_subprocess(bad, synth_dir)
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"abusenet: error: {bad}: "), done.stderr
    assert "pipeline" in lines[0]


@pytest.mark.parametrize("command, affect", [("baseline", [1]), ("train", {"sentiment": ["uf_signal"]})],
                         ids=["affect_list_under_baseline", "affect_column_list_under_train"])
def test_malformed_affect_is_one_cli_line(synth_dir, tmp_path, capsys, command, affect):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({**json.loads((synth_dir / "schema.json").read_text()), "affect": affect}))
    io = ["--dataset", synth_dir / "dataset.csv", "--schema", schema]
    argv = {"baseline": ["baseline", *io, "--folds", "2"],
            "train": ["train", *io, "--mask", "TF", "--out", tmp_path / "run", *TINY]}[command]
    assert cli.run([str(a) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"abusenet: error: {schema}: "), lines
    assert ("'sentiment'" if isinstance(affect, dict) else "'affect'") in lines[0]
    assert not (tmp_path / "run").exists()


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
        assert "mask" not in payload["config"]  # each row carries its own
        assert payload["environment"]["block_cap"] == len(os.sched_getaffinity(0))

    def test_mask_flag_refused(self, synth_dir, tmp_path, capsys):
        # ablate runs the masks of --masks; a --mask it would ignore is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.run([str(a) for a in ["ablate", "--dataset", synth_dir / "dataset.csv",
                                      "--schema", synth_dir / "schema.json", "--masks", "UF;WV",
                                      "--mask", "NF", "--out", tmp_path / "ablation.json"]])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mask NF" in capsys.readouterr().err
        assert not (tmp_path / "ablation.json").exists()


class TestDatasetWithoutUnreadColumn:
    """The training schema declares uf_noise; a run that reads no UF column
    does not demand it, and one that does names the file."""

    @pytest.fixture
    def reduced(self, synth_dir, tmp_path):
        path = tmp_path / "no_uf_noise.csv"
        copy_without_column(synth_dir / "dataset.csv", path, "uf_noise")
        return path

    def test_evaluate_scores_it_as_the_full_dataset(self, synth_dir, tmp_path, reduced):
        out = tmp_path / "run"
        run(train_args(synth_dir, out, mask="WV+TF"))
        scores = []
        for dataset in (synth_dir / "dataset.csv", reduced):
            unlabeled, result = tmp_path / "unlabeled.csv", tmp_path / "scores.json"
            copy_without_column(dataset, unlabeled, "label")
            assert run(["evaluate", "--checkpoint", out / "model.ckpt", "--dataset", unlabeled,
                        "--schema", synth_dir / "schema.json", "--out", result]) == 0
            scores.append(json.loads(result.read_text())["scores"])
        assert len(scores[0]) == 160
        assert json.dumps(scores[0]) == json.dumps(scores[1])

    def test_baseline_reads_no_metadata_column(self, synth_dir, reduced):
        assert run(["baseline", "--dataset", reduced, "--schema", synth_dir / "schema.json",
                    "--folds", "2"]) == 0

    def test_ablate_checks_every_mask_before_any_fold_trains(self, synth_dir, tmp_path, reduced,
                                                              monkeypatch, capsys):
        io = ["--dataset", reduced, "--schema", synth_dir / "schema.json", *TINY]
        assert run(["ablate", *io, "--masks", "WV+TF"]) == 0
        fits = []
        monkeypatch.setattr(evaluation, "build_and_fit", lambda *args, **kwargs: fits.append(args))
        capsys.readouterr()
        assert cli.run([str(a) for a in ["ablate", *io, "--masks", "WV+TF;WV+UF"]]) == 2
        assert fits == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"abusenet: error: {reduced}: "), lines
        assert "'uf_noise'" in lines[0]


def test_train_reads_embeddings_once(synth_dir, tmp_path, monkeypatch):
    vectors = tmp_path / "vectors.txt"
    rng = np.random.default_rng(5)
    words = ["alert", "game", "night", "tag1", "not_in_corpus", "<hashtag>"]
    vectors.write_text("".join(f"{w} {' '.join(f'{v:.5f}' for v in rng.normal(size=5))}\n" for w in words))
    opened = []
    builtin_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(vectors):
            opened.append(file)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    argv = [str(a) for a in train_args(synth_dir, tmp_path / "run") + ["--embeddings", vectors, "--folds", "3"]]
    assert main(argv) == 0
    assert len(opened) == 1
    # the checkpoint is the one a final fit on the one-off reader's table makes
    training, model_cfg = _configs(build_parser().parse_args(argv))
    corpus = load_corpus(synth_dir / "dataset.csv", synth_dir / "schema.json")
    idx = np.arange(len(corpus))
    train_all, _, artifacts = encode_fold(corpus, idx, idx[:0], "WV+TF+UF")
    artifacts["embedding"] = load_embeddings(vectors, artifacts["vocab"], model_cfg.embed_dim, training.seed)
    expected, _ = build_and_fit(train_all, training, model_cfg, artifacts)
    got, _ = load_checkpoint(tmp_path / "run" / "model.ckpt")
    assert [p.name for p in got.parameters()] == [p.name for p in expected.parameters()]
    assert all(p.data.tobytes() == q.data.tobytes() for p, q in zip(got.parameters(), expected.parameters()))


def test_report_spells_the_mask_in_group_order(synth_dir, tmp_path):
    assert run(train_args(synth_dir, tmp_path / "run", mask="UF+TF+WV")) == 0
    assert json.loads((tmp_path / "run" / "report.json").read_text())["config"]["mask"] == "WV+TF+UF"


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
