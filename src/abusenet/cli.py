"""Command-line surface: train, evaluate, ablate, baseline, synth.

Every command is reproducible bit-for-bit in its metric values under a fixed
seed on any CPU count (`run` pins OpenBLAS to one thread); reports echo the
full effective configuration with defaults materialized. Timing fields are
informational and excluded from any reproducibility comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from .baseline import TfidfModel, baseline_terms, nb_fit, nb_predict
from .data import (
    SYNTH_TASKS,
    EmptyDatasetError,
    SchemaError,
    attach_network_features,
    check_synth_size,
    load_corpus,
    write_corpus,
)
from .evaluation import (
    DEFAULT_ABLATION_MASKS,
    DEFAULT_FOLDS,
    DEFAULT_MASK,
    MetricsReport,
    build_and_fit,
    check_fold_count,
    checkpoint_meta,
    classification_metrics,
    cv_folds,
    encode_fold,
    encode_for_checkpoint,
    fold_block_cap,
    fold_split,
    run_ablation,
    run_cv,
)
from .features import ConfigurationError, NonFiniteFeatureError, mask_name, parse_mask
from .graph import DegenerateGraphError, SocialGraph
from . import layers
from .metrics import UndefinedMetricError
from .model import ModelConfig, load_checkpoint, parameter_count, save_checkpoint
from .tensor import ContractError
from .text import FormatError, ParseError, parse_embedding_file
from .training import STRATEGIES, DegenerateLabelsError, TrainingConfig, predict_probs

# flag spelling -> TrainingConfig.strategy
STRATEGY_FLAGS = {s.replace("_", "-"): s for s in STRATEGIES}

# what `run` reports as bad input: one error line and exit status 2
INPUT_ERRORS = (OSError, SchemaError, EmptyDatasetError, ParseError, FormatError,
                NonFiniteFeatureError, ConfigurationError, ContractError, DegenerateGraphError,
                DegenerateLabelsError, UndefinedMetricError)


def _add_common_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="delimited dataset file")
    p.add_argument("--schema", required=True, help="JSON schema descriptor")


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embeddings", default=None, help="pretrained embedding text file")
    p.add_argument("--strategy", default=TrainingConfig.strategy.replace("_", "-"),
                   choices=sorted(STRATEGY_FLAGS))
    p.add_argument("--seed", type=int, default=TrainingConfig.seed)
    p.add_argument("--batch-size", type=int, default=TrainingConfig.batch_size)
    p.add_argument("--max-epochs", type=int, default=TrainingConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainingConfig.patience)
    p.add_argument("--validation-fraction", type=float, default=TrainingConfig.validation_fraction)
    p.add_argument("--learning-rate", type=float, default=TrainingConfig.learning_rate)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--embed-dim", type=int, default=ModelConfig.embed_dim)
    p.add_argument("--units", type=int, default=ModelConfig.units,
                   help="GRU units; the metadata path ends at the same width")
    p.add_argument("--metadata-sizes", default=",".join(map(str, ModelConfig.hidden)),
                   help="comma list of dense widths (swap 245 for 256 here if wanted)")
    p.add_argument("--recurrent-dropout", type=float, default=ModelConfig.recurrent_dropout)
    p.add_argument("--attention-threshold", type=int, default=ModelConfig.attention_threshold)


def _add_network_flags(p: argparse.ArgumentParser) -> None:
    """The social-graph inputs `_load` attaches as the NF feature group."""
    p.add_argument("--edges", default=None, help="edge-list file for NF enrichment")
    p.add_argument("--nodes", default=None, help="node-attribute file for NF enrichment")
    p.add_argument("--user-column", default=None, help="column naming the posting user")


def _configs(args) -> tuple[TrainingConfig, ModelConfig]:
    check_fold_count(args.folds)
    if args.workers < 1:
        raise ContractError(f"--workers must be >= 1, got {args.workers}")
    hidden = []
    for item in filter(None, args.metadata_sizes.split(",")):
        try:
            hidden.append(int(item))
        except ValueError:
            raise ContractError(f"--metadata-sizes item {item!r} is not an integer") from None
    training = TrainingConfig(
        strategy=STRATEGY_FLAGS[args.strategy],
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        learning_rate=args.learning_rate,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
    )
    model = ModelConfig(
        embed_dim=args.embed_dim,
        units=args.units,
        recurrent_dropout=args.recurrent_dropout,
        hidden=tuple(hidden),
        fusion_dim=args.units,
        attention_threshold=args.attention_threshold,
    )
    return training, model


def _load(args):
    corpus = load_corpus(args.dataset, args.schema)
    for flag, value in (("--nodes", args.nodes), ("--user-column", args.user_column)):
        if value and not args.edges:
            raise SchemaError(f"{flag} needs --edges: network features come from an edge list")
    if args.edges:
        if not args.user_column:
            raise SchemaError("--edges needs --user-column to join samples to nodes")
        graph = SocialGraph.from_files(args.edges, args.nodes)
        corpus = attach_network_features(corpus, graph, args.user_column)
    return corpus


def _vectors(args, corpus, masks, dim: int):
    """The corpus's ``--embeddings`` vectors, read once for every fold; None if no mask reads text."""
    if args.embeddings is None or not any("WV" in m for m in masks):
        return None
    return parse_embedding_file(args.embeddings, dim, keep=set(chain.from_iterable(corpus.tokenized())))


def _write_json(path, payload) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(args, training: TrainingConfig, model_cfg: ModelConfig) -> dict:
    return {
        "training": asdict(training),
        "model": asdict(model_cfg),
        "folds": args.folds,
        "workers": args.workers,
        "embeddings": args.embeddings,
        "dataset": str(args.dataset),
        "schema": str(args.schema),
    }


def _environment(args) -> dict:
    """What decided whether the GRU ran blocks of rows on threads of their
    own (``layers.recurrence_blocks``); the bits do not depend on it."""
    return {"numpy": np.__version__, "blas": layers.openblas() and layers.openblas()[0],
            "blas_threads": layers.blas_threads(), "cpus": layers.cpu_count(),
            "block_cap": fold_block_cap(min(args.workers, args.folds))}


def cmd_train(args) -> int:
    training, model_cfg = _configs(args)
    mask = parse_mask(args.mask)
    corpus = _load(args)
    vectors = _vectors(args, corpus, [mask], model_cfg.embed_dim)
    t0 = time.monotonic()
    report = run_cv(corpus, training, model_cfg, mask=mask, n_folds=args.folds,
                    vectors=vectors, workers=args.workers)
    cv_seconds = time.monotonic() - t0

    # final model on the full corpus for the checkpoint
    t1 = time.monotonic()
    all_idx = np.arange(len(corpus))
    train_all, _, artifacts = encode_fold(corpus, all_idx, all_idx[:0], mask, vectors=vectors,
                                          embed_dim=model_cfg.embed_dim, seed=training.seed)
    model, final_history = build_and_fit(train_all, training, model_cfg, artifacts)
    fit_seconds = time.monotonic() - t1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "model.ckpt"
    environment = _environment(args)
    save_checkpoint(ckpt_path, model, checkpoint_meta(
        model, model_cfg, artifacts,
        extra={"strategy": training.strategy, "seed": training.seed, "environment": environment}))

    payload = {
        "command": "train",
        "model": model.kind,
        "config": {**_echo_config(args, training, model_cfg), "mask": mask_name(args.mask)},
        "dataset_summary": {
            "samples": len(corpus),
            "classes": corpus.classes,
            "class_counts": np.bincount(corpus.labels, minlength=len(corpus.classes)).tolist(),
        },
        "cv": report.to_dict(),
        "final_fit": final_history.to_dict(),
        "parameter_count": {
            "trainable": parameter_count(model, include_embeddings=True),
            "trainable_excluding_embeddings": parameter_count(model, include_embeddings=False),
        },
        "checkpoint": str(ckpt_path),
        "environment": environment,
        "timing": {"cv_seconds": cv_seconds, "final_fit_seconds": fit_seconds},
    }
    _write_json(out_dir / "report.json", payload)
    for fold in report.folds:
        print(f"fold {fold['fold']}: auc={fold['auc']:.4f} acc={fold['accuracy']:.4f} f1={fold['f1']:.4f}")
    mean = report.mean
    print(f"mean: auc={mean['auc']:.4f} acc={mean['accuracy']:.4f} f1={mean['f1']:.4f}")
    print(f"wrote {out_dir / 'report.json'} and {ckpt_path}")
    return 0


def cmd_evaluate(args) -> int:
    model, meta = load_checkpoint(args.checkpoint)
    corpus = _load(args)
    data = encode_for_checkpoint(corpus, meta)
    probs = predict_probs(model, data)
    payload = {"command": "evaluate", "checkpoint": str(args.checkpoint),
               "model": meta.kind, "samples": len(corpus)}
    if corpus.labels is not None:
        payload["metrics"] = classification_metrics(probs, probs.argmax(axis=1), data.labels)
        print(" ".join(f"{k}={v:.4f}" for k, v in payload["metrics"].items()))
    else:
        # scores-only mode: no label column in the dataset
        payload["scores"] = {cid: probs[i].tolist() for i, cid in enumerate(corpus.ids)}
        print(f"scored {len(corpus)} samples (no labels present)")
    if args.out:
        _write_json(args.out, payload)
    return 0


def cmd_ablate(args) -> int:
    training, model_cfg = _configs(args)
    if args.masks is None:
        masks = list(DEFAULT_ABLATION_MASKS)
    else:
        masks = [parse_mask(m) for m in args.masks.split(";") if m.strip()]
        if not masks:
            raise ConfigurationError(f"--masks {args.masks!r} names no mask")
    corpus = _load(args)
    vectors = _vectors(args, corpus, masks, model_cfg.embed_dim)
    t0 = time.monotonic()
    rows = run_ablation(corpus, masks, training, model_cfg, n_folds=args.folds,
                        vectors=vectors, workers=args.workers)
    payload = {
        "command": "ablate",
        "config": _echo_config(args, training, model_cfg),
        "rows": rows,
        "environment": _environment(args),
        "timing": {"seconds": time.monotonic() - t0},
    }
    if args.out:
        _write_json(args.out, payload)
    width = max(len(r["mask"]) for r in rows)
    for r in rows:
        print(f"{r['mask']:<{width}}  auc={r['auc']:.4f}")
    return 0


def cmd_baseline(args) -> int:
    check_fold_count(args.folds)
    tfidf = TfidfModel(top_k=args.top_k)  # each fold's fit replaces all it learned
    corpus = load_corpus(args.dataset, args.schema)
    if corpus.labels is None:
        raise SchemaError("baseline needs labels")
    t0 = time.monotonic()
    folds = cv_folds(corpus.labels, args.folds, args.seed)
    docs = [baseline_terms(tokens) for tokens in corpus.tokenized()]
    report = MetricsReport()
    for i in range(len(folds)):
        train_idx, test_idx = fold_split(folds, i)
        train_matrix = tfidf.fit_transform([docs[j] for j in train_idx])
        test_matrix = tfidf.transform([docs[j] for j in test_idx])
        nb = nb_fit(train_matrix, corpus.labels[train_idx], n_classes=len(corpus.classes))
        preds, posteriors = nb_predict(nb, test_matrix)
        metrics = classification_metrics(posteriors, preds, corpus.labels[test_idx])
        report.folds.append({"fold": i, **metrics})
    payload = {
        "command": "baseline",
        "model": "naive-bayes-tfidf",
        "config": {"top_k": args.top_k, "folds": args.folds, "seed": args.seed,
                   "dataset": str(args.dataset), "schema": str(args.schema)},
        "cv": report.to_dict(),
        "timing": {"seconds": time.monotonic() - t0},
    }
    if args.out:
        _write_json(args.out, payload)
    mean = report.mean
    print(f"naive-bayes-tfidf mean: auc={mean['auc']:.4f} acc={mean['accuracy']:.4f} f1={mean['f1']:.4f}")
    return 0


def cmd_synth(args) -> int:
    check_synth_size(args.samples, args.noise, names=("--samples", "--noise"))
    maker = SYNTH_TASKS[args.task]
    given = {"n": args.samples, "noise": args.noise, "seed": args.seed}
    # flags left out keep the task's own defaults
    corpus = maker(**{k: v for k, v in given.items() if v is not None})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = out_dir / "dataset.csv"
    schema = out_dir / "schema.json"
    write_corpus(corpus, dataset, schema)
    print(f"wrote {dataset} and {schema} ({len(corpus)} samples, task={args.task})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abusenet",
                                     description="two-path abusive-behavior classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="cross-validate a strategy and write a checkpoint")
    _add_common_io(p)
    _add_training_flags(p)
    _add_network_flags(p)
    p.add_argument("--mask", default=DEFAULT_MASK, help="feature groups, e.g. WV+TF+UF")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a dataset with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_common_io(p)
    _add_network_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    # no abbreviations: train's --mask would otherwise be read as --masks
    p = sub.add_parser("ablate", help="feature-group ablation grid", allow_abbrev=False)
    _add_common_io(p)
    _add_training_flags(p)
    _add_network_flags(p)
    p.add_argument("--masks", default=None, help="semicolon-separated masks; default: all 15")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("baseline", help="naive bayes + tf-idf reference")
    _add_common_io(p)
    p.add_argument("--seed", type=int, default=TrainingConfig.seed)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--top-k", type=int, default=TfidfModel.top_k)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("synth", help="generate a synthetic fusion dataset")
    p.add_argument("--task", default="xor", choices=sorted(SYNTH_TASKS))
    p.add_argument("--samples", type=int, default=None, help="default: the task's own size")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"abusenet: warning: {message}\n"


def run(argv=None) -> int:
    """The ``abusenet`` entry point: `main` after ``layers.pin_blas`` (the process stays pinned),
    with bad input reported in one ``abusenet: error: ...`` line and exit status 2,
    as argparse reports a bad flag, and each warning in one ``abusenet: warning: ...`` line."""
    layers.pin_blas()
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        return main(argv)
    except INPUT_ERRORS as e:
        print(f"abusenet: error: {e}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(run())
