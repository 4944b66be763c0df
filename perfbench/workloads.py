"""The three benchmark workloads, run without tracing.

Each workload is a closed loop: this process is the only client and issues
the next call only after the previous one returns. Set-up is repeated
``SETUP_REPEATS`` times and reported as the median, so that work moved into
set-up shows. Between set-ups and operations each workload runs the fixed reference
computation of `reference.py`; the gated timing metrics relate every
operation to the reference runs around it, and the report lines give the
wall times themselves. Calls go through the program's public entry points
(loaders, `encode_fold`, `build_and_fit`, `fit_interleaved`, `predict_probs`,
`evaluate_model`, the baseline functions) so the benchmark keeps working
across internal refactors.
"""

from __future__ import annotations

import gc
from pathlib import Path

import numpy as np

from abusenet import (
    FeaturePipeline,
    ModelConfig,
    SequenceSpec,
    SocialGraph,
    Tape,
    TrainingConfig,
    Vocabulary,
    assemble,
    build_combined,
    build_metadata_path,
    build_text_path,
    cross_entropy,
    fit_interleaved,
    load_checkpoint,
    roc_auc,
    save_checkpoint,
    tokenize,
)
from abusenet.baseline import TfidfModel, nb_fit, nb_predict, preprocess_baseline
from abusenet.data import attach_network_features, load_corpus
from abusenet.evaluation import build_and_fit, encode_fold, evaluate_model, stratified_kfold
from abusenet.model import CheckpointMeta
from abusenet.text import encode_corpus
from abusenet.training import EncodedDataset, predict_probs

from common import Run, median, now, peak_rss_mb, probs_ok, tail
from reference import Reference, Shape

SETUP_REPEATS = 5
BATCH = 512
SHORT_MASK = "WV+TF+UF"
CV_MASK = "WV+TF+UF+NF"
CV_FOLDS = 10
CV_EPOCHS = 6
# desk-scale batches: more steps per epoch, so the per-op tape overhead at
# small tensor sizes shows and batch norm's running statistics settle enough
# for the fold's inference-mode AUC to be a learning guard
CV_BATCH = 64
CV_EPOCH_STEPS = 26  # 1620 training rows after the fold and validation carve-outs
CV_TOP_K = 10000
DESK = ModelConfig(embed_dim=16, units=16, hidden=(32, 16), fusion_dim=16)
# train-short does fixed work: one epoch (8 steps + validation, 3-4.5 s on a
# 2-CPU x86_64 machine with OpenBLAS) per NOMINAL_EPOCH_S of --seconds
NOMINAL_EPOCH_S = 4.0
# Quality guards the generated task guarantees (measured values sit well
# clear of them); a change that breaks learning fails the run. train-short
# guards on training loss: inference-mode batch norm normalizes with running
# statistics (momentum 0.99) that lag far behind after a few epochs, so its
# early validation loss tracks that lag more than learning.
SHORT_TRAIN_LOSS_CEILING = 0.55
CV_AUC_FLOOR = 0.75
CV_BASELINE_AUC_FLOOR = 0.75
# The reference computation each workload runs between its operations
# (reference.py), at the batch, length, widths and vocabulary of the
# workload's text path, with the table update where the workload trains.
# The nominal run times are medians on a 2-CPU x86_64 machine with one
# OpenBLAS thread.
SHORT_REF = Shape(batch=BATCH, seq_len=30, embed_dim=200, units=128, vocab=20000, repeats=1,
                  update=True, nominal_s=0.100)
SCORE_REF = Shape(batch=BATCH, seq_len=101, embed_dim=200, units=128, vocab=20000, repeats=1,
                  update=False, nominal_s=0.230)
CV_REF = Shape(batch=CV_BATCH, seq_len=29, embed_dim=16, units=16, vocab=7500, repeats=50,
               update=True, nominal_s=0.100)


def dataset(work: Path) -> tuple[Path, Path]:
    return work / "dataset.csv", work / "schema.json"


def build_fused(train: EncodedDataset, artifacts: dict, cfg: ModelConfig, seed: int):
    """The combined model, built the way `build_and_fit` builds it."""
    text = build_text_path(artifacts["vocab"], artifacts["spec"], train.classes, config=cfg,
                           rng=np.random.default_rng([seed, 1]))
    meta = build_metadata_path(train.meta.shape[1], train.classes, config=cfg,
                               rng=np.random.default_rng([seed, 2]))
    return build_combined(text, meta, rng=np.random.default_rng([seed, 3]))


def repeat_setup(setup, run: Run, ref: Reference):
    """Run ``setup`` SETUP_REPEATS times, each between two reference runs.

    setup_s is the median of each set-up's time over the reference time
    around it, times the reference's nominal run time: set-up seconds at the
    speed the benchmark's machine had when its nominal times were taken, so
    that the shared machine's drift between runs does not move it. The wall
    times themselves are a report line.
    """
    times, ratios, state = [], [], None
    ref.run()
    for _ in range(SETUP_REPEATS):
        state = None  # the previous set-up's objects go before the next starts
        gc.collect()
        t0 = now()
        state = setup()
        t1 = now()
        ref.run()
        times.append(t1 - t0)
        ratios.append(ref.ratio(t0, t1))
    setup_s = median(ratios) * ref.shape.nominal_s
    run.metric("setup_s", setup_s, "s")
    run.show("setup_s", setup_s, "s", "lower",
             f"median of {len(times)} set-ups, in seconds at the reference's nominal speed")
    run.show("setup_wall_s", median(times), "s", "lower", f"median of {len(times)} set-ups")
    return state


def report_ops(run: Run, name: str, samples_ms: list[float], ratios: list[float],
               what: str) -> None:
    """Wall times of the workload's unit operation and, gated, their ratios
    to the reference time around each."""
    p50 = median(samples_ms)
    value, pct, beyond = tail(samples_ms)
    run.show(f"{name}_ms_p50", p50, "ms", "lower", f"{what}, n={len(samples_ms)}")
    run.show(f"{name}_ms_tail", value, "ms", "lower",
             f"p{pct:.1f}, {beyond} samples beyond, n={len(samples_ms)}")
    rel = median(ratios)
    rel_tail, pct, beyond = tail(ratios)
    run.metric("op_vs_ref", rel, "ratio")
    run.metric("op_vs_ref_tail", rel_tail, "ratio")
    run.show("op_vs_ref", rel, "ratio", "lower", f"{name}_ms over the reference around it, median")
    run.show("op_vs_ref_tail", rel_tail, "ratio", "lower",
             f"p{pct:.1f}, {beyond} samples beyond, n={len(ratios)}")


def report_passes(run: Run, ref: Reference, spans: list[tuple[float, float]], what: str) -> None:
    """The gated pass ratio: program time of each pass over the reference
    time around it, median over the run's passes."""
    rel = median([ref.ratio(t0, t1) for t0, t1 in spans])
    run.metric("pass_vs_ref", rel, "ratio")
    run.show("pass_vs_ref", rel, "ratio", "lower", f"{what} over the reference around it, "
             f"median of {len(spans)}")
    run.show("reference_ms", median([e - s for s, e in zip(ref.starts, ref.ends)]) * 1e3, "ms",
             "", f"one reference run, median of {len(ref.starts)}")


def cycles(step_ms: list[float]) -> list[float]:
    """Mean step time per interleaved cycle of one view-A and one view-B step.

    The views alternate step by step and update different parameters (view B
    runs Adam over the embedding table), so single-step times are bimodal and
    their median jumps between the modes. Epochs hold an even number of
    batches in both training workloads, so consecutive pairs are cycles.
    """
    return [(a + b) / 2 for a, b in zip(step_ms[::2], step_ms[1::2])]


def finish(run: Run) -> None:
    rss = peak_rss_mb()
    run.metric("peak_rss_mb", rss, "MB")
    run.show("peak_rss_mb", rss, "MB", "lower", "getrusage of this process")
    run.show("error_rate", run.failed / max(run.attempted, 1), "ratio", "lower",
             f"{run.failed} of {run.attempted} operations and checks failed")


class StepTimer:
    """`fit` step callback that records wall time and epoch per mini-batch step.

    With a ``reference``, it runs the reference before every ``pace_every``-th
    step of an epoch, outside the step's timed interval.
    """

    def __init__(self, reference: Reference | None = None, pace_every: int = 2):
        self.ms: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.epochs: list[int] = []
        self.epoch_starts: list[float] = []  # when each epoch's first step began
        self.reference = reference
        self.pace_every = pace_every
        self._t0 = 0.0

    def __call__(self, event: dict) -> None:
        if event["phase"] == "pre":
            if self.reference is not None and event["batch"] % self.pace_every == 0:
                self.reference.run()
            self._t0 = now()
            if event["batch"] == 0:
                self.epoch_starts.append(self._t0)
        else:
            t1 = now()
            self.ms.append((t1 - self._t0) * 1e3)
            self.spans.append((self._t0, t1))
            self.epochs.append(event["epoch"])

    def epoch_sums(self, start: int = 0) -> list[float]:
        """Total step time of each epoch among the steps recorded since ``start``."""
        sums: dict[int, float] = {}
        for epoch, ms in zip(self.epochs[start:], self.ms[start:]):
            sums[epoch] = sums.get(epoch, 0.0) + ms
        return list(sums.values())

    def epoch_spans(self, start: int = 0) -> list[tuple[float, float]]:
        """(first step's start, last step's end) of each epoch since ``start``."""
        spans: dict[int, tuple[float, float]] = {}
        for epoch, (t0, t1) in zip(self.epochs[start:], self.spans[start:]):
            spans[epoch] = (spans.get(epoch, (t0, t1))[0], t1)
        return list(spans.values())


# ---------------------------------------------------------------------------
# train-short


def setup_train_short(work: Path, seed: int):
    corpus = load_corpus(*dataset(work))
    idx = np.arange(len(corpus))
    train, _, artifacts = encode_fold(corpus, idx, idx[:0], SHORT_MASK, seed=seed)
    model = build_fused(train, artifacts, ModelConfig(), seed)
    return corpus, train, artifacts, model


def single_tape_step(model, text, meta, labels, rng, tags):
    """Forward and backward of one mini-batch on one tape, as `fit` runs them;
    gradients accumulate in the parameters. Returns the loss."""
    with Tape() as tape:
        probs = model.forward(text, meta, train=True, rng=rng, stats_tags=tags)
        loss = cross_entropy(probs, labels)
    tape.backward(loss)
    tape.clear()
    return loss


def warm_up(model, train: EncodedDataset) -> None:
    """Two forward+backward passes that change no weight and no batch-norm
    statistic, so lazy first-call costs are paid before timing."""
    sl = slice(0, BATCH)
    for i in range(2):
        single_tape_step(model, train.text[sl], train.meta[sl], train.labels[sl],
                         np.random.default_rng(i), set())
        model.zero_grads()


def short_epochs(seconds: float) -> int:
    """Fixed work per run length: one epoch per NOMINAL_EPOCH_S, at least 2."""
    return max(2, round(seconds / NOMINAL_EPOCH_S))


def run_train_short(work: Path, seed: int, seconds: float, run: Run) -> None:
    ref = Reference(SHORT_REF, seed)
    corpus, train, artifacts, model = repeat_setup(lambda: setup_train_short(work, seed), run,
                                                   ref)
    run.facts.update(rows=len(corpus), T=artifacts["spec"].seq_len,
                     vocab=len(artifacts["vocab"]) - 2, metadata_width=int(train.meta.shape[1]),
                     attention=model.text_path.attention is not None)
    warm_up(model, train)
    epochs = short_epochs(seconds)
    config = TrainingConfig(strategy="interleaved", batch_size=BATCH, max_epochs=epochs,
                            patience=epochs - 1, seed=seed)
    timer = StepTimer(ref)  # a reference run before each A+B cycle
    t0 = now()
    history = fit_interleaved(model, train, config, step_callback=timer)
    bounds = [t0] + timer.epoch_starts[1:] + [now()]
    ref.run()
    epoch_spans = list(zip(bounds, bounds[1:]))
    epoch_s = [b - a - ref.seconds_within(a, b) for a, b in epoch_spans]
    run.op(len(timer.ms))
    n_train = len(train) - len(history.val_indices)

    # medians over epochs: a few seconds of interference on the shared
    # machine then move one epoch, not the whole run's figure
    rate = median([n_train / e for e in epoch_s])
    run.show("train_samples_per_s", rate, "1/s", "higher",
             f"{n_train} rows / epoch wall with its validation sweep, median of {len(epoch_s)}")
    pairs = [(a[0], b[1]) for a, b in zip(timer.spans[::2], timer.spans[1::2])]
    report_ops(run, "step", cycles(timer.ms), [ref.ratio(*p) for p in pairs],
               "mean step of each interleaved A+B cycle")
    run.show("epoch_s", median(epoch_s), "s", "lower", "one epoch with its validation sweep")
    report_passes(run, ref, epoch_spans, "epoch_s")
    losses = history.train_loss + history.val_loss
    run.check(bool(np.isfinite(losses).all()), f"non-finite training or validation loss: {losses}")
    last = history.train_loss[-1]
    run.check(last < SHORT_TRAIN_LOSS_CEILING,
              f"last-epoch training loss {last:.4f} >= ceiling {SHORT_TRAIN_LOSS_CEILING}")
    run.show("train_loss", last, "nats", "lower",
             f"last epoch, quality guard: < {SHORT_TRAIN_LOSS_CEILING}")
    run.show("val_loss", history.best_val_loss(), "nats", "lower", "best epoch")
    finish(run)


# ---------------------------------------------------------------------------
# score-long


def score_inputs(model, vocab, spec, pipeline, groups):
    """Bundle what scoring needs from a model and its fitted artifacts."""
    return {"model": model, "vocab": vocab, "spec": spec, "pipeline": pipeline, "groups": groups}


def score_chunk(s: dict, texts: list[str], records: list[dict], labels, classes):
    """Raw rows to probabilities: (probs, table schema, (start, end) of the model forward)."""
    ids = encode_corpus([tokenize(t) for t in texts], s["vocab"], s["spec"])
    table, _ = assemble(s["pipeline"].transform(records, texts), s["groups"])
    data = EncodedDataset(labels=labels, classes=classes, text=ids, meta=table.values)
    t0 = now()
    probs = predict_probs(s["model"], data, BATCH)
    return probs, [(c.name, c.group) for c in table.schema], (t0, now())


def chunks(n: int) -> list[slice]:
    return [slice(i, min(i + BATCH, n)) for i in range(0, n, BATCH)]


def make_score_inputs(work: Path, seed: int) -> dict:
    """Write a paper-default checkpoint and the in-memory model's probabilities
    for the first scoring batch."""
    corpus = load_corpus(*dataset(work))
    idx = np.arange(len(corpus))
    train, _, art = encode_fold(corpus, idx, idx[:0], SHORT_MASK, seed=seed)
    cfg = ModelConfig()
    model = build_fused(train, art, cfg, seed)
    save_checkpoint(work / "model.ckpt", model, CheckpointMeta(
        classes=corpus.classes, kind=model.kind, config=cfg, seq_len=art["spec"].seq_len,
        vocab_tokens=art["vocab"].tokens(), feature_dim=int(train.meta.shape[1]),
        schema=art["schema"], pipeline=art["pipeline"].to_config(), mask=sorted(art["mask"])))
    s = score_inputs(model, art["vocab"], art["spec"], art["pipeline"], set(art["mask"]) - {"WV"})
    sl = chunks(len(corpus))[0]
    probs, _, _ = score_chunk(s, corpus.texts[sl], corpus.records[sl], corpus.labels[sl],
                              corpus.classes)
    np.save(work / "reference_probs.npy", probs)
    return {"T": art["spec"].seq_len, "vocab": len(art["vocab"]) - 2,
            "metadata_width": int(train.meta.shape[1]),
            "attention": model.text_path.attention is not None}


def setup_score_long(work: Path):
    model, meta = load_checkpoint(work / "model.ckpt")
    corpus = load_corpus(*dataset(work))
    if corpus.classes != meta.classes:
        raise ValueError("checkpoint and dataset disagree on classes")
    s = score_inputs(model, Vocabulary.from_tokens(meta.vocab_tokens), SequenceSpec(meta.seq_len),
                     FeaturePipeline.from_config(meta.pipeline), set(meta.mask) - {"WV"})
    return corpus, meta, s


def run_score_long(work: Path, seed: int, seconds: float, run: Run) -> None:
    ref = Reference(SCORE_REF, seed)
    corpus, meta, s = repeat_setup(lambda: setup_score_long(work), run, ref)
    run.facts.update(rows=len(corpus), T=meta.seq_len, vocab=len(meta.vocab_tokens),
                     metadata_width=meta.feature_dim,
                     attention=s["model"].text_path.attention is not None)
    reference = np.load(work / "reference_probs.npy")
    expected_schema = [tuple(c) for c in meta.schema]
    batch_ms, fwd_spans, passes = [], [], []
    t_start = now()
    ref.run()
    while not passes or now() - t_start < seconds:
        t_pass = now()
        for sl in chunks(len(corpus)):
            run.op()
            probs, schema, fwd = score_chunk(s, corpus.texts[sl], corpus.records[sl],
                                             corpus.labels[sl], corpus.classes)
            ref.run()  # between chunks, outside every forward
            batch_ms.append((fwd[1] - fwd[0]) * 1e3)
            fwd_spans.append(fwd)
            if not probs_ok(probs) or schema != expected_schema:
                run.failed += 1
                run.failures.append(f"rows {sl.start}-{sl.stop}: bad probabilities or schema")
            if not passes and sl.start == 0:
                run.check(np.array_equal(probs, reference), "reloaded checkpoint's "
                          "probabilities differ from the in-memory model's")
        passes.append((t_pass, ref.ends[-1]))
    pass_s = [b - a - ref.seconds_within(a, b) for a, b in passes]

    rate = median([len(corpus) / p for p in pass_s])
    run.show("infer_samples_per_s", rate, "1/s", "higher",
             f"raw rows -> tokenize, encode, features, predict_probs; median of {len(pass_s)} passes")
    report_ops(run, "batch", batch_ms, [ref.ratio(*f) for f in fwd_spans],
               "predict_probs on one 512-row batch")
    run.show("pass_s", median(pass_s), "s", "lower", f"one pass over {len(corpus)} rows")
    report_passes(run, ref, passes, "pass_s")
    finish(run)


# ---------------------------------------------------------------------------
# cv-pipeline


def setup_cv(work: Path):
    corpus = load_corpus(*dataset(work))
    graph = SocialGraph.from_files(work / "edges.txt", work / "nodes.txt")
    corpus = attach_network_features(corpus, graph, "user")
    corpus.tokenized()  # lazy per-corpus work, done once per CV run
    return corpus, graph


def fold_config(seed: int, fold: int) -> TrainingConfig:
    return TrainingConfig(strategy="interleaved", batch_size=CV_BATCH, max_epochs=CV_EPOCHS,
                          patience=CV_EPOCHS - 1, seed=seed * CV_FOLDS + fold)


def split(folds: list[np.ndarray], fold: int):
    train = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != fold]))
    return train, folds[fold]


def neural_fold(corpus, folds, fold: int, seed: int, step_callback=None):
    """One fold through the calls `run_cv` makes: encode, build and fit, evaluate."""
    train_idx, test_idx = split(folds, fold)
    config = fold_config(seed, fold)
    t0 = now()
    train, test, artifacts = encode_fold(corpus, train_idx, test_idx, CV_MASK,
                                         embed_dim=DESK.embed_dim, seed=config.seed)
    t1 = now()
    model, history = build_and_fit(train, config, DESK, artifacts, step_callback=step_callback)
    t2 = now()
    scores = evaluate_model(model, test, BATCH)
    t3 = now()
    return {"model": model, "history": history, "train": train, "test": test,
            "artifacts": artifacts, "scores": scores, "fit": (t1, t2), "wall": (t0, t3)}


def baseline_fold(corpus, folds, fold: int, top_k: int = CV_TOP_K):
    """The NB+TF-IDF reference on the same fold, as `abusenet baseline` runs it."""
    train_idx, test_idx = split(folds, fold)
    t0 = now()
    docs = [preprocess_baseline(t) for t in corpus.texts]
    tfidf = TfidfModel(top_k=top_k)
    train_m = tfidf.fit_transform([docs[j] for j in train_idx])
    test_m = tfidf.transform([docs[j] for j in test_idx])
    nb = nb_fit(train_m, corpus.labels[train_idx], n_classes=len(corpus.classes))
    _, posteriors = nb_predict(nb, test_m)
    auc = float(roc_auc(posteriors, corpus.labels[test_idx]))
    return {"auc": auc, "posteriors": posteriors, "wall_s": now() - t0,
            "terms": len(tfidf.vocabulary)}


def check_fold(run: Run, nf: dict, bf: dict, fold: int) -> None:
    h = nf["history"]
    run.check(bool(np.isfinite(h.train_loss + h.val_loss).all()), f"fold {fold}: non-finite loss")
    probs = predict_probs(nf["model"], nf["test"], BATCH)
    run.check(probs_ok(probs) and probs_ok(bf["posteriors"]), f"fold {fold}: bad probabilities")


def check_aucs(run: Run, aucs: list[float], baseline_aucs: list[float]) -> None:
    """Learning guards: the median AUC over the run's folds clears each floor.

    Single folds vary: one fold of seed 407 reached 0.64 while the run's
    median was 0.95, so a floor per fold would fail by chance.
    """
    run.check(median(aucs) >= CV_AUC_FLOOR, f"median fold auc {median(aucs):.4f} < {CV_AUC_FLOOR}")
    run.check(median(baseline_aucs) >= CV_BASELINE_AUC_FLOOR,
              f"median baseline auc {median(baseline_aucs):.4f} < {CV_BASELINE_AUC_FLOOR}")


def run_cv_pipeline(work: Path, seed: int, seconds: float, run: Run) -> None:
    ref = Reference(CV_REF, seed)
    corpus, graph = repeat_setup(lambda: setup_cv(work), run, ref)
    folds = stratified_kfold(corpus.labels, CV_FOLDS, seed)
    fold_s, base_s, rates, vals, aucs, baucs, epoch_ms = [], [], [], [], [], [], []
    epoch_spans, fold_spans = [], []
    timer = StepTimer(ref, pace_every=CV_EPOCH_STEPS)  # a reference run before each epoch
    t_start = now()
    ref.run()
    fold = 0
    while not fold_s or now() - t_start < seconds:
        run.op()
        first_step = len(timer.ms)
        nf = neural_fold(corpus, folds, fold % CV_FOLDS, seed, step_callback=timer)
        epoch_ms += timer.epoch_sums(first_step)
        epoch_spans += timer.epoch_spans(first_step)
        ref.run()
        run.op()
        bf = baseline_fold(corpus, folds, fold % CV_FOLDS)
        fold_spans.append((nf["wall"][0], now()))
        ref.run()
        fold_s.append(nf["wall"][1] - nf["wall"][0] - ref.seconds_within(*nf["wall"]))
        base_s.append(bf["wall_s"])
        h = nf["history"]
        fit_s = nf["fit"][1] - nf["fit"][0] - ref.seconds_within(*nf["fit"])
        rates.append((len(nf["train"]) - len(h.val_indices)) * h.epochs_run / fit_s)
        vals.append(h.best_val_loss())
        aucs.append(nf["scores"]["auc"])
        baucs.append(bf["auc"])
        check_fold(run, nf, bf, fold % CV_FOLDS)
        if fold == 0:
            art = nf["artifacts"]
            run.facts.update(rows=len(corpus), T=art["spec"].seq_len,
                             vocab=len(art["vocab"]) - 2,
                             metadata_width=int(nf["train"].meta.shape[1]),
                             graph_nodes=len(graph), graph_edges=graph.n_edges(),
                             tfidf_terms=bf["terms"])
        fold += 1
    run.op(len(timer.ms))

    rate = median(rates)
    run.show("train_samples_per_s", rate, "1/s", "higher",
             f"training rows x epochs / build_and_fit wall, median of {len(rates)} folds")
    # single desk-size steps last ~10-20 ms and their tail follows every
    # scheduling hiccup of a shared machine; an epoch's steps are the unit
    report_ops(run, "epoch_steps", epoch_ms, [ref.ratio(*e) for e in epoch_spans],
               f"training steps of one epoch ({CV_EPOCH_STEPS} batches of {CV_BATCH})")
    run.show("step_ms_p50", median(timer.ms), "ms", "lower", f"single steps, n={len(timer.ms)}")
    run.show("fold_wall_s", median(fold_s), "s", "lower",
             f"encode_fold + build_and_fit + evaluate_model, median of {len(fold_s)} folds")
    run.show("baseline_fold_s", median(base_s), "s", "lower", "NB+TF-IDF on the same fold")
    report_passes(run, ref, fold_spans, "fold_wall_s + baseline_fold_s")
    run.show("val_loss", median(vals), "nats", "lower", "best per fold, median")
    check_aucs(run, aucs, baucs)
    run.show("auc", median(aucs), "ratio", "higher", f"median of folds, floor {CV_AUC_FLOOR}")
    run.show("baseline_auc", median(baucs), "ratio", "higher",
             f"median of folds, floor {CV_BASELINE_AUC_FLOOR}")
    finish(run)


RUNNERS = {"train-short": run_train_short, "score-long": run_score_long,
           "cv-pipeline": run_cv_pipeline}
