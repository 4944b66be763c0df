"""Cross-validation, the feature-group ablation runner, and the one path from
raw corpus rows to model inputs.

Each fold rebuilds the whole pipeline from its training split: vocabulary
(with hapax removal), sequence length (95th percentile), categorical
encoders and, if requested, pretrained embeddings. Folds are independently
seeded, so results do not depend on execution order or worker count. A
checkpoint's stored vocabulary and pipeline encode new data through the same
``encode_inputs`` step.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from . import text as text_mod
from .data import Corpus, EmptyDatasetError, SchemaError
from .features import MASK_GROUPS, FeaturePipeline, assemble, mask_columns, mask_name, parse_mask, parsed_columns
from .layers import block_cap, cpu_count, set_block_cap
from .metrics import UndefinedMetricError, prf1, roc_auc
from .model import CheckpointMeta, ModelConfig, build_combined, build_metadata_path, build_text_path
from .tensor import ContractError
from .training import (
    INFERENCE_BATCH,
    EncodedDataset,
    TrainingConfig,
    fit,
    fit_interleaved,
    fit_naive,
    fit_transfer,
    predict_probs,
)
from .utils import derive_rng

METRIC_NAMES = ("auc", "accuracy", "precision", "recall", "f1")

DEFAULT_MASK = "WV+TF+UF+NF"
DEFAULT_FOLDS = 10

# all nonempty subsets of {WV, TF, UF, NF}, smallest first: the default
# ablation grid (15 rows)
DEFAULT_ABLATION_MASKS = tuple(
    frozenset(c)
    for size in range(1, 5)
    for c in combinations(MASK_GROUPS, size)
)


@dataclass
class MetricsReport:
    folds: list[dict] = field(default_factory=list)

    @property
    def mean(self) -> dict:
        return {name: float(np.mean([f[name] for f in self.folds])) for name in METRIC_NAMES}

    def to_dict(self) -> dict:
        return {"folds": self.folds, "mean": self.mean}


def check_fold_count(k: int) -> None:
    if k < 2:
        raise ContractError(f"cross-validation needs k >= 2 folds, got k={k}")


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint folds covering every index, class proportions within one."""
    check_fold_count(k)
    labels = np.asarray(labels)
    counts = np.bincount(labels)
    low = counts[counts > 0]
    if low.min() < k:
        warnings.warn(
            f"some class has only {int(low.min())} samples for {k} folds; "
            "stratification degrades to best effort", stacklevel=2)
    rng = derive_rng(seed, "kfold")
    buckets: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        for j, sample in enumerate(idx):
            buckets[j % k].append(int(sample))
    return [np.sort(np.array(b, dtype=np.int64)) for b in buckets]


def cv_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """``stratified_kfold``'s folds, refused before any training when a fold's
    test split holds a single class, whose AUC is undefined."""
    folds = stratified_kfold(labels, k, seed)
    for i, fold in enumerate(folds):
        if np.unique(np.asarray(labels)[fold]).size < 2:
            raise UndefinedMetricError(f"fold {i}: the test split holds a single class, so its AUC "
                                       f"is undefined (some class has fewer than {k} samples)")
    return folds


def check_columns(corpus: Corpus, columns: dict, affect: dict) -> None:
    """Refuse, naming its file, a corpus without a column a pipeline over ``columns`` and ``affect`` reads."""
    missing = sorted({*columns, *parsed_columns(columns, affect)} - set(corpus.column_names()))
    if missing:
        raise SchemaError(f"{corpus.path or 'in-memory corpus'}: dataset is missing metadata "
                          f"columns {missing}, which the feature pipeline reads")


def encode_inputs(corpus: Corpus, vocab, spec, pipeline, groups):
    """Encode every row of a corpus with already fitted text and feature pipelines.

    ``vocab``/``spec`` are None for a model without the text path, ``pipeline``
    None for one without metadata. Returns (text block, metadata block, schema).
    """
    text = None if vocab is None else text_mod.encode_corpus(corpus.tokenized(), vocab, spec)
    if pipeline is None:
        return text, None, []
    check_columns(corpus, pipeline.columns, pipeline.affect)
    values = corpus.row_values(parsed_columns(pipeline.columns, pipeline.affect))
    table, _ = assemble(pipeline.transform(corpus.records, corpus.texts, values), groups)
    return text, table.values, [(c.name, c.group) for c in table.schema]


def encode_fold(corpus: Corpus, train_idx: np.ndarray, test_idx: np.ndarray, mask,
                vectors=None, embed_dim: int = ModelConfig.embed_dim, seed: int = 0):
    """Fit the text and feature pipelines on the training split and encode both.

    Returns (train, test, artifacts); artifacts carries vocab, spec, pipeline,
    schema and, given pretrained ``vectors``, an embedding layer for the model builder.
    """
    mask = parse_mask(mask)
    vocab = spec = pipeline = embedding = None
    if "WV" in mask:
        tokens = corpus.tokenized()
        train_tokens = [tokens[i] for i in train_idx]
        vocab = text_mod.Vocabulary.build(train_tokens)
        spec = text_mod.choose_seq_len([len(t) for t in train_tokens])
        if vectors is not None:
            embedding = text_mod.embedding_table(vectors, vocab, embed_dim, seed)
    groups = mask - {"WV"}
    if groups:
        pipeline = FeaturePipeline(*mask_columns(corpus.columns, corpus.affect, groups))
        pipeline.fit([corpus.records[i] for i in train_idx])
    text, meta, schema = encode_inputs(corpus, vocab, spec, pipeline, groups)
    full = EncodedDataset(labels=corpus.labels, classes=corpus.classes, text=text, meta=meta)
    artifacts = {
        "vocab": vocab,
        "spec": spec,
        "pipeline": pipeline,
        "schema": schema,
        "embedding": embedding,
        "mask": mask,
    }
    return full.subset(train_idx), full.subset(test_idx), artifacts


def encode_for_checkpoint(corpus: Corpus, meta: CheckpointMeta) -> EncodedDataset:
    """Encode a corpus with the pipelines a checkpoint was trained with.

    The dataset must carry the checkpoint's classes and every column its
    pipeline reads for the mask's groups, have a data row, and yield the
    same feature schema. An unlabelled corpus gets zero placeholder labels.
    """
    if corpus.classes != meta.classes:
        raise SchemaError(f"class lists differ: checkpoint {meta.classes} vs dataset {corpus.classes}")
    vocab = spec = pipeline = None
    groups = set(meta.mask) - {"WV"}
    if meta.seq_len is not None:
        vocab = text_mod.Vocabulary.from_tokens(meta.vocab_tokens)
        spec = text_mod.SequenceSpec(meta.seq_len)
    if meta.pipeline is not None:
        pipeline = FeaturePipeline.from_config(meta.pipeline)
        pipeline.columns, pipeline.affect = mask_columns(pipeline.columns, pipeline.affect, groups)
    if len(corpus) == 0:
        raise EmptyDatasetError("dataset has a header but no data rows to score")
    text, meta_block, schema = encode_inputs(corpus, vocab, spec, pipeline, groups)
    if schema != list(meta.schema):
        missing = [c for c in meta.schema if c not in schema]
        extra = [c for c in schema if c not in meta.schema]
        raise SchemaError(
            f"feature schema mismatch; missing from dataset: {missing}; unexpected: {extra}")
    labels = np.zeros(len(corpus), dtype=np.int64) if corpus.labels is None else corpus.labels
    return EncodedDataset(labels=labels, classes=corpus.classes, text=text, meta=meta_block)


def checkpoint_meta(model, config: ModelConfig, artifacts: dict, extra: dict | None = None):
    """What a checkpoint stores besides the weights of a model fitted on
    ``encode_fold``'s artifacts: the reverse of ``encode_for_checkpoint``."""
    vocab, spec, pipeline = artifacts["vocab"], artifacts["spec"], artifacts["pipeline"]
    md = model.metadata_path
    return CheckpointMeta(
        model.classes, model.kind, config, seq_len=None if spec is None else spec.seq_len,
        vocab_tokens=[] if vocab is None else vocab.tokens(),
        feature_dim=None if md is None else md.bn.features, schema=artifacts["schema"],
        pipeline=None if pipeline is None else pipeline.to_config(),
        mask=sorted(artifacts["mask"]), extra=extra or {})


def build_and_fit(train: EncodedDataset, config: TrainingConfig, model_cfg: ModelConfig,
                  artifacts: dict, step_callback=None):
    """Build the model form the mask calls for and train it with the strategy."""
    classes = train.classes
    seed = config.seed
    text_model = meta_model = None
    if train.text is not None:
        text_model = build_text_path(artifacts["vocab"], artifacts["spec"], classes,
                                     config=model_cfg, rng=derive_rng(seed, "init", "text"),
                                     embedding=artifacts.get("embedding"))
    if train.meta is not None:
        meta_model = build_metadata_path(train.meta.shape[1], classes, config=model_cfg,
                                         rng=derive_rng(seed, "init", "meta"))

    if meta_model is None:
        return text_model, fit(text_model, train, config, stream="text-only",
                               step_callback=step_callback)
    if text_model is None:
        return meta_model, fit(meta_model, train, config, stream="meta-only",
                               step_callback=step_callback)
    if config.strategy in ("transfer", "transfer_ft"):
        return fit_transfer(text_model, meta_model, train, config,
                            fine_tune=config.strategy == "transfer_ft",
                            fusion_callback=step_callback)
    combined = build_combined(text_model, meta_model, rng=derive_rng(seed, "init", "head"))
    if config.strategy == "interleaved":
        return combined, fit_interleaved(combined, train, config, step_callback=step_callback)
    return combined, fit_naive(combined, train, config, step_callback=step_callback)


def classification_metrics(probs: np.ndarray, preds: np.ndarray, labels: np.ndarray) -> dict:
    """AUC from class scores, accuracy and weighted P/R/F1 from predictions."""
    quality = prf1(preds, labels, probs.shape[1])
    return {"auc": float(roc_auc(probs, labels)),
            **{name: quality[name] for name in METRIC_NAMES[1:]}}


def evaluate_model(model, data: EncodedDataset, batch_size: int = INFERENCE_BATCH) -> dict:
    probs = predict_probs(model, data, batch_size)
    return classification_metrics(probs, probs.argmax(axis=1), data.labels)


def fold_split(folds: list[np.ndarray], fold_id: int) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, test_idx): every other fold, sorted, against this one."""
    train_idx = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != fold_id]))
    return train_idx, folds[fold_id]


def _run_fold(args) -> tuple[int, dict]:
    (corpus, config, model_cfg, mask, fold_id, folds, vectors) = args
    train_idx, test_idx = fold_split(folds, fold_id)
    fold_config = replace(config, seed=int(derive_rng(
        config.seed, "fold", fold_id).integers(0, 2**31 - 1)))
    train, test, artifacts = encode_fold(corpus, train_idx, test_idx, mask,
                                         vectors=vectors, embed_dim=model_cfg.embed_dim,
                                         seed=fold_config.seed)
    model, _ = build_and_fit(train, fold_config, model_cfg, artifacts)
    return fold_id, evaluate_model(model, test, config.batch_size)


def fold_block_cap(workers: int) -> int:
    """The most blocks a fold's GRU recurrences run as when
    ``workers`` folds run at once: with more than one, each fold process
    gets its share of the CPUs, at least one."""
    return max(1, cpu_count() // workers) if workers > 1 else block_cap()


def fold_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` fold processes, each capped at ``fold_block_cap``."""
    return ProcessPoolExecutor(max_workers=workers, initializer=set_block_cap,
                               initargs=(fold_block_cap(workers),))


def run_cv(corpus: Corpus, config: TrainingConfig, model_cfg: ModelConfig | None = None,
           mask=DEFAULT_MASK, n_folds: int = DEFAULT_FOLDS, vectors=None,
           workers: int = 1) -> MetricsReport:
    """Stratified k-fold cross validation with a fresh model per fold."""
    if corpus.labels is None:
        raise ContractError("cross validation needs labels")
    model_cfg = model_cfg or ModelConfig()
    mask = parse_mask(mask)
    folds = cv_folds(corpus.labels, n_folds, config.seed)
    # the corpus's fold-independent row work, done once here: workers receive it pickled
    if "WV" in mask:
        corpus.tokenized()
    if mask - {"WV"}:
        corpus.row_values(parsed_columns(*mask_columns(corpus.columns, corpus.affect, mask)))
    jobs = [(corpus, config, model_cfg, mask, i, folds, vectors)
            for i in range(n_folds)]
    results: list[tuple[int, dict]] = []
    workers = min(workers, n_folds)  # a fork pool starts all its processes at its first submit
    if workers > 1:
        with fold_pool(workers) as pool:
            results = list(pool.map(_run_fold, jobs))
    else:
        results = [_run_fold(j) for j in jobs]
    results.sort(key=lambda r: r[0])
    report = MetricsReport()
    for fold_id, metrics in results:
        report.folds.append({"fold": fold_id, **metrics})
    return report


def run_ablation(corpus: Corpus, masks, config: TrainingConfig,
                 model_cfg: ModelConfig | None = None, n_folds: int = DEFAULT_FOLDS,
                 vectors=None, workers: int = 1) -> list[dict]:
    """One cross-validated run per feature-group mask.

    The model form follows the mask: text-only for {WV}, metadata-only for
    masks without WV, combined otherwise. Every mask's columns are checked
    before the first run. Rows come back sorted by mean AUC ascending.
    """
    masks = [parse_mask(m) for m in masks]
    for mask in masks:
        check_columns(corpus, *mask_columns(corpus.columns, corpus.affect, mask))
    rows = []
    for mask in masks:
        report = run_cv(corpus, config, model_cfg, mask=mask, n_folds=n_folds,
                        vectors=vectors, workers=workers)
        rows.append({
            "mask": mask_name(mask),
            "auc": report.mean["auc"],
            "metrics": report.mean,
        })
    rows.sort(key=lambda r: r["auc"])
    return rows
