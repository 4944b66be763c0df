"""Traced runs: per-layer numbers, kept apart from the untimed end-to-end run.

Spans are recorded from outside the package, around calls into each
module's public functions; where the program makes the call itself (inside
`encode_fold`, `fit`, `predict_probs`, ...) the public function or method is
wrapped for the duration of the traced region and restored afterwards.

Backward time per layer comes from a segmented training step built from
public ops only: each layer segment records on its own `Tape`, the input of
each segment is a fresh leaf `Tensor`, and each upstream tape is replayed
with the surrogate loss ``sum_all(mul(out, Tensor(grad_of_leaf)))``, whose
gradient with respect to ``out`` is exactly ``grad_of_leaf``. The run checks
that the segmented step's loss and parameter gradients equal those of one
single-tape step on the same batch and seed.

Per-layer times are medians per unit of work: per training step, per 512-row
scoring batch, per fold, or per set-up.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

import abusenet
from abusenet import Adam, Tape, Tensor, TrainingConfig, cross_entropy, tokenize
from abusenet import data as data_mod
from abusenet import evaluation as evaluation_mod
from abusenet import text as text_mod
from abusenet.baseline import TfidfModel, nb_fit, nb_predict, preprocess_baseline
from abusenet.data import attach_network_features, load_corpus
from abusenet.evaluation import build_and_fit, encode_fold, evaluate_model, stratified_kfold
from abusenet.features import assemble
from abusenet.model import MetadataPath
from abusenet.tensor import active_tape, concat_last, mul, sum_all
from abusenet.training import EncodedDataset, evaluate_loss, predict_probs

import workloads as wl
from common import Run, median, now

# The per-layer metrics every workload reports, with trace.coverage and
# trace.overhead, and the span each reads. A layer's fwd_ms is its forward
# call per batch in the mode the workload runs it ({mode}): a training
# forward on a tape for train-short and cv-pipeline, inference for
# score-long (the `*.infer_ms` lines of its report).
PER_LAYER = {
    "data.load_corpus_ms": "data.load_corpus",
    "text.tokenize_ms": "text.tokenize",
    "text.encode_corpus_ms": "text.encode_corpus",
    "features.transform_ms": "features.transform",
    "layers.embedding.fwd_ms": "layers.embedding.{mode}",
    "layers.gru.fwd_ms": "layers.gru.{mode}",
    "layers.batchnorm.fwd_ms": "layers.batchnorm.{mode}",
    "layers.dense.fwd_ms": "layers.dense.{mode}",
    "model.head.fwd_ms": "model.head.{mode}",
}


class Tracer:
    """Spans accumulate into the current unit of work; ``flush`` closes the unit."""

    def __init__(self):
        self.units: dict[str, list[float]] = defaultdict(list)
        self.acc: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        t0 = now()
        try:
            yield
        finally:
            self.acc[name] += (now() - t0) * 1e3

    def add(self, name: str, value: float) -> None:
        self.acc[name] += value

    def flush(self, names=None) -> dict[str, float]:
        names = list(self.acc) if names is None else [n for n in names if n in self.acc]
        out = {n: self.acc.pop(n) for n in names}
        for n, v in out.items():
            self.units[n].append(v)
        return out

    def value(self, name: str) -> float:
        return median(self.units[name])

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)`` until ``unwrap``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name_of) -> None:
        """Time every call of ``owner.attr`` under ``name_of(args)`` until ``unwrap``."""

        def make(original):
            def timed(*args, **kwargs):
                t0 = now()
                try:
                    return original(*args, **kwargs)
                finally:
                    name = name_of(args)
                    if name:
                        self.acc[name] += (now() - t0) * 1e3
            return timed

        self.replace(owner, attr, make)

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _mode(layer: str):
    return lambda args: f"{layer}.{'fwd' if active_tape() is not None else 'infer'}"


def wrap_layers(tr: Tracer) -> None:
    """Time each layer's forward; the combined model's head is the DenseLayer named "head"."""
    tr.wrap(abusenet.EmbeddingLayer, "forward", _mode("layers.embedding"))
    tr.wrap(abusenet.GRULayer, "forward", _mode("layers.gru"))
    tr.wrap(abusenet.AttentionLayer, "forward", _mode("layers.attention"))
    tr.wrap(abusenet.BatchNormLayer, "forward", _mode("layers.batchnorm"))
    tr.wrap(MetadataPath, "features", _mode("model.metadata_path"))
    dense, head = _mode("layers.dense"), _mode("model.head")
    tr.wrap(abusenet.DenseLayer, "forward",
            lambda args: head(args) if args[0].W.name == "head.W" else dense(args))


def wrap_pipeline(tr: Tracer) -> None:
    tr.wrap(text_mod, "encode_corpus", lambda args: "text.encode_corpus")
    tr.wrap(abusenet.FeaturePipeline, "transform", lambda args: "features.transform")


def report(run: Run, tr: Tracer, lines, moves: str) -> None:
    """Show per-layer lines named as the workload's report names them."""
    for shown, source, unit in lines:
        value = tr.value(source) if isinstance(source, str) else source
        run.show(shown, value, unit, "", f"moves {moves}")


def emit(run: Run, tr: Tracer, mode: str, coverage: float, overhead_: float) -> None:
    for name, span in PER_LAYER.items():
        run.metric(name, tr.value(span.format(mode=mode)), "ms")
    run.metric("trace.coverage", coverage, "ratio")
    run.metric("trace.overhead", overhead_, "ratio")


def overhead(traced: list[float], untraced: list[float]) -> float:
    return median(traced) / median(untraced) - 1.0


# ---------------------------------------------------------------------------
# segmented training step


def _leaf(t: Tensor) -> Tensor:
    return Tensor(t.data, requires_grad=True)


class SegmentedStep:
    """One training step of the combined model, one tape per layer segment."""

    def __init__(self, model):
        self.model = model
        self.fwd: dict[str, float] = {}
        self.bwd: dict[str, float] = {}
        self.ops: dict[str, int] = {}

    def _segment(self, name: str, fn, *leaves):
        tape = Tape()
        t0 = now()
        with tape:
            out = fn(*leaves)
        self.fwd[name] = (now() - t0) * 1e3
        self.ops[name] = len(tape)
        return tape, out

    def forward_backward(self, text, meta, labels, rng, tags):
        """Returns the loss Tensor; parameter gradients are accumulated."""
        m = self.model
        tp, mp = m.text_path, m.metadata_path
        mask = np.asarray(text) != 0
        segs = []  # (name, tape, out, leaf fed by out)

        t_emb, emb = self._segment("layers.embedding", lambda: tp.embedding.forward(text))
        x = _leaf(emb)
        attention = tp.attention is not None

        def gru(x):
            states, last = tp.gru.forward(x, mask=mask, train=not tp.frozen, rng=rng)
            return states if attention else last

        t_gru, g_out = self._segment("layers.gru", gru, x)
        segs.append(("layers.embedding", t_emb, emb, x))
        text_feat, t_text, text_name = g_out, t_gru, "layers.gru"
        if attention:
            s = _leaf(g_out)
            t_att, ctx = self._segment("layers.attention", lambda s: tp.attention.forward(s, mask)[0], s)
            segs.append(("layers.gru", t_gru, g_out, s))
            text_feat, t_text, text_name = ctx, t_att, "layers.attention"

        update = tags is None or "metadata" in tags
        t_bn, bn_out = self._segment(
            "layers.batchnorm",
            lambda: mp.bn.forward(Tensor(np.asarray(meta)), train=True,
                                  update_stats=update and not mp.frozen))
        d = _leaf(bn_out)

        def dense(h):
            for layer in mp.stack:
                h = layer.forward(h)
            return mp.out_layer.forward(h)

        t_dense, meta_feat = self._segment("layers.dense", dense, d)
        segs.append(("layers.batchnorm", t_bn, bn_out, d))
        lt, lm = _leaf(text_feat), _leaf(meta_feat)
        t_head, probs = self._segment("model.head", lambda a, b: m.head.forward(concat_last(a, b)),
                                      lt, lm)
        segs.append((text_name, t_text, text_feat, lt))
        segs.append(("layers.dense", t_dense, meta_feat, lm))
        p = _leaf(probs)
        t_loss, loss = self._segment("training.loss", lambda p: cross_entropy(p, labels), p)
        segs.append(("model.head", t_head, probs, p))

        t0 = now()
        t_loss.backward(loss)
        self.bwd["training.loss"] = (now() - t0) * 1e3
        # each segment was appended after the segment reading its output ran,
        # so in reverse order every consumer is replayed before its producer
        # and the leaf's gradient is complete when the producer replays
        for name, tape, out, leaf in reversed(segs):
            t0 = now()
            with tape:
                surrogate = sum_all(mul(out, Tensor(leaf.grad)))
            tape.backward(surrogate)
            self.bwd[name] = (now() - t0) * 1e3
            tape.clear()
        t_loss.clear()
        return loss


def check_segmented(run: Run, model, text, meta, labels, seed: int) -> None:
    """Segmented and single-tape steps give equal loss and gradients, bitwise."""
    tags = {"text", "head"}
    snap = model.snapshot()
    results = []
    for step in (partial(wl.single_tape_step, model), SegmentedStep(model).forward_backward):
        loss = step(text, meta, labels, np.random.default_rng(seed), tags)
        results.append((loss.data, [p.grad for p in model.parameters()]))
        model.zero_grads()  # drops the references; the arrays in results stay intact
        model.restore(snap)
    (l1, g1), (l2, g2) = results
    same = np.array_equal(l1, l2) and all(
        (a is None) == (b is None) and (a is None or np.array_equal(a, b)) for a, b in zip(g1, g2))
    run.check(same, "segmented step's loss or gradients differ from the single-tape step")
    run.show("trace.segmented_equals_single_tape", bool(same), "bool", "", "gradient check")


# ---------------------------------------------------------------------------
# train-short


def traced_train_short(work: Path, seed: int, seconds: float, run: Run) -> None:
    tr = Tracer()
    wrap_pipeline(tr)
    try:
        with tr.span("data.load_corpus"):
            corpus = load_corpus(*wl.dataset(work))
        with tr.span("text.tokenize"):
            corpus.tokenized()
        idx = np.arange(len(corpus))
        train, _, artifacts = encode_fold(corpus, idx, idx[:0], wl.SHORT_MASK, seed=seed)
    finally:
        tr.unwrap()
    tr.flush()
    model = wl.build_fused(train, artifacts, wl.ModelConfig(), seed)
    run.facts.update(rows=len(corpus), T=artifacts["spec"].seq_len)
    check_segmented(run, model, train.text[:wl.BATCH], train.meta[:wl.BATCH],
                    train.labels[:wl.BATCH], seed)
    wl.warm_up(model, train)

    # Pairs of steps on consecutive batches with the same interleaved tags:
    # first an untraced single-tape step (fit's inner loop), then a traced
    # segmented one. Their ratio is the tracing overhead.
    rng = np.random.default_rng(seed)
    val_n = len(train) // 10
    order = rng.permutation(len(train))
    val, fit_idx = train.subset(np.sort(order[:val_n])), order[val_n:]
    optimizer = Adam.from_config(TrainingConfig())
    params = model.parameters()
    plain_ms, step_ms, t_start, epoch = [], [], now(), 0
    while epoch < 1 or now() - t_start < seconds:
        perm = rng.permutation(fit_idx)
        for pair, start in enumerate(range(0, perm.size - 2 * wl.BATCH + 1, 2 * wl.BATCH)):
            tags = {"metadata", "head"} if (pair + epoch) % 2 == 0 else {"text", "head"}
            take = perm[start:start + wl.BATCH]
            t0 = now()
            loss = wl.single_tape_step(model, train.text[take], train.meta[take],
                                       train.labels[take],
                                       np.random.default_rng([seed, epoch, 2 * pair]), tags)
            optimizer.step(params, allowed_tags=tags)
            model.zero_grads()
            plain_ms.append((now() - t0) * 1e3)
            run.op()
            run.check(bool(np.isfinite(loss.data)), f"non-finite loss at epoch {epoch} pair {pair}")

            take = perm[start + wl.BATCH:start + 2 * wl.BATCH]
            seg = SegmentedStep(model)
            t0 = now()
            loss = seg.forward_backward(train.text[take], train.meta[take], train.labels[take],
                                        np.random.default_rng([seed, epoch, 2 * pair + 1]), tags)
            with tr.span("training.adam.step"):
                optimizer.step(params, allowed_tags=tags)
            with tr.span("training.zero_grads"):
                model.zero_grads()
            step_ms.append((now() - t0) * 1e3)
            run.op()
            run.check(bool(np.isfinite(loss.data)), f"non-finite loss at epoch {epoch} pair {pair}")
            for name, v in seg.fwd.items():
                tr.add(f"{name}.fwd", v)
            for name, v in seg.bwd.items():
                tr.add(f"{name}.bwd", v)
            tr.add("tensor.tape_ops", sum(seg.ops.values()))
            tr.add("layers.gru.tape_ops", seg.ops["layers.gru"])
            spans = tr.flush()
            tr.units["covered"].append(sum(v for k, v in spans.items() if k.endswith(
                (".fwd", ".bwd", ".step", "zero_grads"))) / step_ms[-1])
        with tr.span("training.validation"):
            evaluate_loss(model, val, wl.BATCH)
        tr.flush(["training.validation"])
        epoch += 1

    cov, ovh = tr.value("covered"), overhead(step_ms, plain_ms)
    emit(run, tr, "fwd", cov, ovh)
    step = "train_samples_per_s, step_ms_*"
    report(run, tr, [("tensor.tape_ops", "tensor.tape_ops", "count"),
                     ("layers.gru.tape_ops", "layers.gru.tape_ops", "count")]
           + [(f"{layer}.{ph}_ms", f"{layer}.{ph}", "ms") for ph in ("fwd", "bwd")
              for layer in ("layers.embedding", "layers.gru", "layers.batchnorm", "layers.dense",
                            "model.head", "training.loss")]
           + [("training.adam.step_ms", "training.adam.step", "ms"),
              ("training.zero_grads_ms", "training.zero_grads", "ms"),
              ("training.validation_ms", "training.validation", "ms"),
              ("trace.coverage", cov, "ratio"), ("trace.overhead", ovh, "ratio")], step)
    report(run, tr, [("data.load_corpus_ms", "data.load_corpus", "ms"),
                     ("text.tokenize_ms", "text.tokenize", "ms"),
                     ("text.encode_corpus_ms", "text.encode_corpus", "ms"),
                     ("features.transform_ms", "features.transform", "ms")], "setup_s")
    run.show("trace.steps", len(step_ms), "count", "", "traced and untraced each")


# ---------------------------------------------------------------------------
# score-long


def traced_chunk(tr: Tracer, s: dict, texts, records, labels, classes):
    with tr.span("text.tokenize"):
        tokens = [tokenize(t) for t in texts]
    with tr.span("text.encode_corpus"):
        ids = text_mod.encode_corpus(tokens, s["vocab"], s["spec"])
    with tr.span("features.transform"):
        table = s["pipeline"].transform(records, texts)
    table, _ = assemble(table, s["groups"])
    data = EncodedDataset(labels=labels, classes=classes, text=ids, meta=table.values)
    return predict_probs(s["model"], data, wl.BATCH)


def traced_score_long(work: Path, seed: int, seconds: float, run: Run) -> None:
    tr = Tracer()
    with tr.span("model.load_checkpoint"):
        model, meta = abusenet.load_checkpoint(work / "model.ckpt")
    with tr.span("data.load_corpus"):
        corpus = load_corpus(*wl.dataset(work))
    tr.flush()
    s = wl.score_inputs(model, abusenet.Vocabulary.from_tokens(meta.vocab_tokens),
                        abusenet.SequenceSpec(meta.seq_len),
                        abusenet.FeaturePipeline.from_config(meta.pipeline),
                        set(meta.mask) - {"WV"})
    run.facts.update(rows=len(corpus), T=meta.seq_len)
    layers = ("text.tokenize", "text.encode_corpus", "features.transform", "layers.embedding.infer",
              "layers.gru.infer", "layers.attention.infer", "model.metadata_path.infer",
              "model.head.infer")
    plain, traced = [], []
    t_start = now()
    while not traced or now() - t_start < seconds:
        for sl in wl.chunks(len(corpus)):
            args = (corpus.texts[sl], corpus.records[sl], corpus.labels[sl], corpus.classes)
            t0 = now()
            wl.score_chunk(s, *args)
            plain.append(now() - t0)
            wrap_layers(tr)
            try:
                t0 = now()
                probs = traced_chunk(tr, s, *args)
                traced.append(now() - t0)
            finally:
                tr.unwrap()
            run.op(2)
            run.check(wl.probs_ok(probs), f"rows {sl.start}-{sl.stop}: bad probabilities")
            spans = tr.flush()
            tr.units["covered"].append(sum(spans[k] for k in layers) / (traced[-1] * 1e3))

    cov, ovh = tr.value("covered"), overhead(traced, plain)
    emit(run, tr, "infer", cov, ovh)
    report(run, tr, [("model.load_checkpoint_ms", "model.load_checkpoint", "ms"),
                     ("data.load_corpus_ms", "data.load_corpus", "ms")], "setup_s")
    report(run, tr, [("text.tokenize_ms", "text.tokenize", "ms"),
                     ("text.encode_corpus_ms", "text.encode_corpus", "ms"),
                     ("features.transform_ms", "features.transform", "ms")], "infer_samples_per_s")
    report(run, tr, [(f"{n}_ms", n, "ms") for n in (
        "layers.embedding.infer", "layers.gru.infer", "layers.attention.infer",
        "model.metadata_path.infer", "model.head.infer")]
        + [("trace.coverage", cov, "ratio"), ("trace.overhead", ovh, "ratio")], "batch_ms_*")
    run.show("trace.batches", len(traced), "count", "", "per 512-row chunk, traced and untraced")


# ---------------------------------------------------------------------------
# cv-pipeline


def traced_setup_cv(tr: Tracer, work: Path):
    def sized(adjacency):
        def sized_adjacency(self):
            a, order = adjacency(self)
            tr.acc["graph.adjacency_mb"] = max(tr.acc["graph.adjacency_mb"], a.nbytes / 2**20)
            return a, order
        return sized_adjacency

    tr.wrap(data_mod, "hits", lambda args: "graph.hits")
    tr.wrap(data_mod, "eigenvector_centrality", lambda args: "graph.eigenvector")
    tr.replace(abusenet.SocialGraph, "adjacency", sized)
    try:
        with tr.span("data.load_corpus"):
            corpus = load_corpus(*wl.dataset(work))
        with tr.span("graph.from_files"):
            graph = abusenet.SocialGraph.from_files(work / "edges.txt", work / "nodes.txt")
        with tr.span("data.attach_network_features"):
            corpus = attach_network_features(corpus, graph, "user")
        with tr.span("text.tokenize"):
            corpus.tokenized()
    finally:
        tr.unwrap()
    return corpus, graph


def traced_fold(tr: Tracer, corpus, folds, fold: int, seed: int, timer):
    """One neural fold plus the baseline fold, with spans; returns (wall seconds, aucs)."""
    train_idx, test_idx = wl.split(folds, fold)
    config = wl.fold_config(seed, fold)

    def count_ops(args):
        tr.add("tensor.tape_ops", len(args[0]))
        return None

    wrap_pipeline(tr)
    wrap_layers(tr)
    tr.wrap(Tape, "backward", count_ops)
    tr.wrap(evaluation_mod, "fit_interleaved", lambda args: "training.fit")
    tr.wrap(evaluation_mod, "roc_auc", lambda args: "metrics.roc_auc")
    try:
        t0 = now()
        with tr.span("evaluation.encode_fold"):
            train, test, artifacts = encode_fold(corpus, train_idx, test_idx, wl.CV_MASK,
                                                 embed_dim=wl.DESK.embed_dim, seed=config.seed)
        with tr.span("evaluation.build_and_fit"):
            model, history = build_and_fit(train, config, wl.DESK, artifacts, step_callback=timer)
        with tr.span("evaluation.evaluate_model"):
            scores = evaluate_model(model, test, wl.BATCH)
    finally:
        tr.unwrap()
    with tr.span("baseline.preprocess"):
        docs = [preprocess_baseline(t) for t in corpus.texts]
    tfidf = TfidfModel(top_k=wl.CV_TOP_K)
    tracemalloc.start()
    try:
        with tr.span("baseline.tfidf_fit"):
            tfidf.fit([docs[j] for j in train_idx])
        with tr.span("baseline.tfidf_transform"):
            train_m = tfidf.transform([docs[j] for j in train_idx])
            test_m = tfidf.transform([docs[j] for j in test_idx])
        tr.add("baseline.tfidf.peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    tr.add("baseline.tfidf_matrix_mb", (train_m.nbytes + test_m.nbytes) / 2**20)
    with tr.span("baseline.nb_fit"):
        nb = nb_fit(train_m, corpus.labels[train_idx], n_classes=len(corpus.classes))
    with tr.span("baseline.nb_predict"):
        _, posteriors = nb_predict(nb, test_m)
    with tr.span("metrics.roc_auc"):
        base_auc = float(abusenet.roc_auc(posteriors, corpus.labels[test_idx]))
    wall = now() - t0
    finite = bool(np.isfinite(history.train_loss + history.val_loss).all())
    return wall, scores["auc"], base_auc, finite


def traced_cv_pipeline(work: Path, seed: int, seconds: float, run: Run) -> None:
    tr = Tracer()
    corpus, graph = traced_setup_cv(tr, work)
    tr.flush()
    folds = stratified_kfold(corpus.labels, wl.CV_FOLDS, seed)
    run.facts.update(rows=len(corpus), graph_nodes=len(graph), graph_edges=graph.n_edges())
    step_layers = ("layers.embedding.fwd", "layers.gru.fwd", "layers.batchnorm.fwd",
                   "layers.dense.fwd", "model.head.fwd", "tensor.tape_ops")

    class FlushingTimer(wl.StepTimer):
        def __call__(self, event):
            super().__call__(event)
            if event["phase"] == "post":
                tr.flush(step_layers)

    top = ("evaluation.encode_fold", "evaluation.build_and_fit", "evaluation.evaluate_model",
           "baseline.preprocess", "baseline.tfidf_fit", "baseline.tfidf_transform",
           "baseline.nb_fit", "baseline.nb_predict")
    plain, traced, aucs, base_aucs, fold = [], [], [], [], 0
    timer = FlushingTimer()
    t_start = now()
    while not traced or now() - t_start < seconds:
        f = fold % wl.CV_FOLDS
        t0 = now()
        wl.neural_fold(corpus, folds, f, seed)
        wl.baseline_fold(corpus, folds, f)
        plain.append(now() - t0)
        wall, auc, base_auc, finite = traced_fold(tr, corpus, folds, f, seed, timer)
        traced.append(wall)
        aucs.append(auc)
        base_aucs.append(base_auc)
        for name in ("layers.embedding.infer", "layers.gru.infer", "layers.batchnorm.infer",
                     "layers.dense.infer", "model.head.infer", "model.metadata_path.infer",
                     "model.metadata_path.fwd", "layers.attention.infer", "layers.attention.fwd"):
            tr.acc.pop(name, None)
        spans = tr.flush()
        tr.units["covered"].append(sum(spans.get(k, 0.0) for k in top) / (wall * 1e3))
        run.op(2)
        run.check(finite, f"fold {f}: non-finite loss")
        fold += 1
    wl.check_aucs(run, aucs, base_aucs)

    cov, ovh = tr.value("covered"), overhead(traced, plain)
    emit(run, tr, "fwd", cov, ovh)
    report(run, tr, [(f"{n}_ms", n, "ms") for n in (
        "data.load_corpus", "graph.from_files", "graph.hits", "graph.eigenvector",
        "data.attach_network_features")], "setup_s")
    report(run, tr, [("evaluation.encode_fold_ms", "evaluation.encode_fold", "ms"),
                     ("training.fit_ms", "training.fit", "ms"),
                     ("training.step_ms_p50", median(wl.cycles(timer.ms)), "ms"),
                     ("tensor.tape_ops", "tensor.tape_ops", "count"),
                     ("evaluation.evaluate_model_ms", "evaluation.evaluate_model", "ms"),
                     ("metrics.roc_auc_ms", "metrics.roc_auc", "ms"),
                     ("trace.coverage", cov, "ratio"), ("trace.overhead", ovh, "ratio")],
           "fold_wall_s")
    report(run, tr, [(f"{n}_ms", n, "ms") for n in (
        "baseline.preprocess", "baseline.tfidf_fit", "baseline.tfidf_transform", "baseline.nb_fit",
        "baseline.nb_predict")], "baseline_fold_s")
    report(run, tr, [("graph.adjacency_mb", "graph.adjacency_mb", "MB"),
                     ("baseline.tfidf_matrix_mb", "baseline.tfidf_matrix_mb", "MB"),
                     ("baseline.tfidf.peak_mb", "baseline.tfidf.peak_mb", "MB")], "peak_rss_mb")
    run.show("trace.folds", len(traced), "count", "", "traced and untraced each")


TRACED = {"train-short": traced_train_short, "score-long": traced_score_long,
          "cv-pipeline": traced_cv_pipeline}
