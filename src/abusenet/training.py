"""Loss, optimizer, early stopping, and the four ways to train the combined model.

Strategies:
  naive        - one optimizer over every parameter, whole network at once.
  transfer     - pretrain each path standalone, strip the softmax layers,
                 freeze the paths, train a fresh fusion head.
  transfer_ft  - same, but the paths stay trainable during fusion.
  interleaved  - train the whole network while alternating which path the
                 optimizer may touch per mini-batch: two views share one
                 parameter store, view A freezes the text path, view B the
                 metadata path, and view A is active when
                 (batch_number + epoch_number) is even. The head updates
                 every step. The loss always flows through the whole network; the
                 backward pass skips the frozen path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import ClassifierModel, build_combined
from .tensor import ContractError, Parameter, Tape, Tensor, op_output, _accum
from .utils import batch_slices, derive_rng

STRATEGIES = ("naive", "transfer", "transfer_ft", "interleaved")

LOSS_FLOOR = 1e-12

# rows per forward call when a whole dataset is scored
INFERENCE_BATCH = 512


class DegenerateLabelsError(ValueError):
    """Training data carries fewer than two classes."""


@dataclass
class TrainingConfig:
    strategy: str = "interleaved"
    batch_size: int = 512
    max_epochs: int = 100
    patience: int = 10
    learning_rate: float = 1e-3
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}")
        if not 0 <= self.patience < self.max_epochs:
            raise ContractError(f"patience must sit in [0, max_epochs), got {self.patience}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.validation_fraction < 1:
            raise ContractError(f"validation_fraction must be in (0, 1), got {self.validation_fraction}")


@dataclass
class EncodedDataset:
    """Model-ready arrays; either input block may be absent."""

    labels: np.ndarray
    classes: list[str]
    text: np.ndarray | None = None
    meta: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.labels.shape[0]
        if self.text is not None and self.text.shape[0] != n:
            raise ContractError("text block does not align with labels")
        if self.meta is not None and self.meta.shape[0] != n:
            raise ContractError("metadata block does not align with labels")
        if self.text is None and self.meta is None:
            raise ContractError("dataset needs at least one input block")

    def __len__(self) -> int:
        return self.labels.shape[0]

    def subset(self, idx) -> "EncodedDataset":
        return EncodedDataset(
            labels=self.labels[idx],
            classes=self.classes,
            text=None if self.text is None else self.text[idx],
            meta=None if self.meta is None else self.meta[idx],
        )


def cross_entropy(pred: Tensor, labels) -> Tensor:
    """Mean over the batch of -log(pred[label]), with pred clamped at 1e-12."""
    labels = np.asarray(labels)
    if pred.data.ndim != 2:
        raise ContractError(f"cross_entropy expects [batch, classes] probabilities, got {pred.shape}")
    n, c = pred.shape
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise IndexError(f"label {bad} out of range for {c} classes")
    rows = np.arange(n)
    picked = pred.data[rows, labels]
    clamped = np.maximum(picked, LOSS_FLOOR)
    value = np.asarray(-np.log(clamped).mean(), dtype=pred.data.dtype)

    def back(g):
        if not pred.requires_grad:
            return
        gp = np.zeros_like(pred.data)
        live = picked >= LOSS_FLOOR  # no gradient through the clamp floor
        gp[rows[live], labels[live]] = -(g / n) / clamped[live]
        _accum(pred, gp)

    return op_output(value, (pred,), back)


def updates(p: Parameter, allowed_tags: set[str] | None) -> bool:
    """Whether an optimizer step limited to ``allowed_tags`` (None: all) changes ``p``."""
    return p.trainable and (allowed_tags is None or p.tag in allowed_tags)


# Elements per block of Adam's update: the largest desk-size parameter fits
# one block, and the scratch pair stays 1 MiB in float32.
BLOCK = 131072


class Adam:
    """Adam with bias correction; skips every parameter ``updates`` rules out.

    Dense: every updated parameter's moments decay each step, also where its
    gradient is zero. Per parameter it keeps only the moments m and v, a
    flat [2, size] slot of an arena. The parameters smaller than ``BLOCK``
    share one arena per dtype, laid out in the first step's parameter
    order; a later step may list fewer of them, but no new ones. A larger
    parameter's arena is its own, made at its first update. Updated
    parameters side by side in one arena form a run, and a run of up to
    ``BLOCK`` elements is updated in one block: its gradients are packed
    into the scratch pair, so the moment arithmetic costs the same numpy
    calls for twenty parameters as for one. A larger parameter, a run on
    its own, is updated over its flat view in blocks of ``BLOCK`` elements.
    Every block works in one scratch pair per dtype, shared by all
    parameters, in the float-op order of the textbook expression, so
    results equal it bit for bit, and a step allocates nothing after the
    first.
    """

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self._slots: dict[str, tuple[np.ndarray, int, int]] | None = None  # per parameter: (arena, offset, size)
        self._scratch: dict[np.dtype, np.ndarray] = {}  # per dtype: [2, BLOCK]

    @classmethod
    def from_config(cls, config: TrainingConfig) -> "Adam":
        return cls(config.learning_rate)

    def _lay_out(self, params: list[Parameter]) -> None:
        offsets: dict[np.dtype, int] = {}
        placed = []
        for p in params:
            if p.data.size < BLOCK:
                at = offsets.get(p.data.dtype, 0)
                placed.append((p, at))
                offsets[p.data.dtype] = at + p.data.size
        arenas = {dt: np.zeros((2, total), dtype=dt) for dt, total in offsets.items()}
        self._slots = {p.name: (arenas[p.data.dtype], at, p.data.size) for p, at in placed}

    def step(self, params: list[Parameter], allowed_tags: set[str] | None = None) -> None:
        """Update every parameter ``updates`` allows that has a gradient; a
        parameter that cannot be updated raises ContractError before any is."""
        if self._slots is None:
            self._lay_out(params)
        blocks: list[tuple[list, np.ndarray]] = []  # (run, its moments), checked before any update
        run: list[tuple[np.ndarray, np.ndarray]] = []  # (flat value, flat gradient) of the open run
        arena, lo, hi = None, 0, 0  # the open run's moments: arena[:, lo:hi]
        for p in params:
            if not updates(p, allowed_tags) or p.grad is None:
                continue
            g = p.grad
            if g.shape != p.data.shape:
                raise ContractError(f"gradient shape {g.shape} mismatches {p.name} {p.data.shape}")
            if not (p.data.flags.c_contiguous and p.data.flags.writeable):
                # so that its flat view is not a copy, and a read-only
                # (loaded) array is copied on its first write
                p.data = np.array(p.data, order="C")
            x, g = p.data.reshape(-1), g.reshape(-1)
            slot = self._slots.get(p.name)
            if slot is None and x.size >= BLOCK:
                slot = self._slots[p.name] = (np.zeros((2, x.size), dtype=x.dtype), 0, x.size)
            if slot is None or slot[0].dtype != x.dtype or slot[2] != x.size:
                raise ContractError(f"parameter {p.name!r} is not one of the {x.dtype} parameters "
                                    f"of size {x.size} this optimizer laid out at its first step")
            at_arena, at, size = slot
            if run and (at_arena is not arena or at != hi or hi + size - lo > BLOCK):
                blocks.append((run, arena[:, lo:hi]))
                run = []
            if not run:
                arena, lo = at_arena, at
            run.append((x, g))
            hi = at + size
        if run:
            blocks.append((run, arena[:, lo:hi]))
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for run, moments in blocks:
            if moments.shape[1] <= BLOCK:
                self._update(run, moments, bias1, bias2)
                continue
            (x, g), = run  # a large parameter, in blocks of BLOCK elements
            for start in range(0, x.size, BLOCK):
                block = slice(start, start + BLOCK)
                self._update([(x[block], g[block])], moments[:, block], bias1, bias2)

    def _update(self, run, moments, bias1, bias2) -> None:
        """One block: the flat (value, gradient) pairs of ``run``, whose m and
        v are the rows of ``moments``, side by side."""
        b1, b2 = self.beta1, self.beta2
        scratch = self._scratch.get(moments.dtype)
        if scratch is None:
            scratch = self._scratch[moments.dtype] = np.empty((2, BLOCK), dtype=moments.dtype)
        m, v = moments
        s, q = scratch[:, :moments.shape[1]]
        if len(run) == 1:
            g = run[0][1]
        else:
            g, at = q, 0  # q is free until the v / bias2 divide, after the last read of g
            for _, gp in run:
                g[at:at + gp.size] = gp
                at += gp.size
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v += s
        # p -= lr (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(m, bias1, out=s)
        s *= self.lr
        np.divide(v, bias2, out=q)
        np.sqrt(q, out=q)
        q += self.epsilon
        s /= q
        at = 0
        for x, _ in run:
            x -= s[at:at + x.size]
            at += x.size


class EarlyStopping:
    """Stop after `patience` consecutive epochs without a validation-loss drop."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = -1
        self.bad_epochs = 0

    def update(self, epoch: int, loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if loss < self.best:
            self.best = loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience


@dataclass
class History:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0
    val_indices: np.ndarray | None = None
    stages: dict[str, "History"] = field(default_factory=dict)

    def best_val_loss(self) -> float:
        return min(self.val_loss) if self.val_loss else np.inf

    def to_dict(self) -> dict:
        out = {
            "train_loss": self.train_loss,
            "val_loss": self.val_loss,
            "best_epoch": self.best_epoch,
            "epochs_run": self.epochs_run,
        }
        if self.stages:
            out["stages"] = {k: v.to_dict() for k, v in self.stages.items()}
        return out


def stratified_split(labels: np.ndarray, fraction: float, rng: np.random.Generator):
    """(train_idx, held_idx) with per-class proportions preserved."""
    labels = np.asarray(labels)
    held: list[int] = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        k = max(1, int(round(idx.size * fraction))) if idx.size > 1 else 0
        held.extend(idx[:k])
    held_arr = np.sort(np.array(held, dtype=np.int64))
    mask = np.ones(labels.size, dtype=bool)
    mask[held_arr] = False
    return np.flatnonzero(mask), held_arr


def predict_probs(model: ClassifierModel, data: EncodedDataset,
                  batch_size: int = INFERENCE_BATCH) -> np.ndarray:
    """Inference-mode class probabilities for a whole dataset."""
    chunks = []
    for sl in batch_slices(len(data), batch_size):
        text = None if data.text is None else data.text[sl]
        meta = None if data.meta is None else data.meta[sl]
        chunks.append(model.forward(text, meta, train=False).data)
    return np.concatenate(chunks, axis=0)


def evaluate_loss(model: ClassifierModel, data: EncodedDataset,
                  batch_size: int = INFERENCE_BATCH) -> float:
    return float(cross_entropy(Tensor(predict_probs(model, data, batch_size)), data.labels).data)


def _interleaved_schedule(epoch: int, batch_number: int):
    """Parity rule: even (batch + epoch) -> view A, whose text path is frozen."""
    view = "A" if (batch_number + epoch) % 2 == 0 else "B"
    return view, {"text", "metadata", "head"} - {InterleavedViews.FROZEN[view]}


class InterleavedViews:
    """Two trainability views over one shared parameter store.

    View A freezes the text path, view B the metadata path. Because the
    store is shared, the "copy weights to the unused model" step of the
    two-model formulation is a no-op; ``synchronized`` checks it.
    """

    FROZEN = {"A": "text", "B": "metadata"}

    def __init__(self, model: ClassifierModel):
        self.model = model

    def view_params(self, view: str) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.model.parameters()}

    def synchronized(self) -> bool:
        a, b = self.view_params("A"), self.view_params("B")
        return all(np.array_equal(a[k], b[k]) for k in a)


def fit(model: ClassifierModel, data: EncodedDataset, config: TrainingConfig, *,
        schedule=None, step_callback=None, stream: str = "fit") -> History:
    """Mini-batch training with early stopping and best-weight restore.

    A stratified validation split is carved from the training data; training
    stops at max_epochs or after `patience` epochs without a validation-loss
    drop, and the best epoch's weights are restored. ``schedule`` maps
    (epoch, batch_number) to (view_name, updatable_tags) for interleaving.
    Each step records the tape only through parameters the optimizer step
    ``updates``; every ``requires_grad`` flag is restored right after the
    step's backward pass (or its error), so step callbacks see the flags
    fit was called with.
    """
    if np.unique(data.labels).size < 2:
        raise DegenerateLabelsError("training data contains a single class")
    rng_split = derive_rng(config.seed, stream, "split")
    train_idx, val_idx = stratified_split(data.labels, config.validation_fraction, rng_split)
    if val_idx.size == 0 or train_idx.size == 0:
        raise ContractError("dataset too small to carve a validation split")
    train, val = data.subset(train_idx), data.subset(val_idx)

    optimizer = Adam.from_config(config)
    stopper = EarlyStopping(config.patience)
    history = History(val_indices=val_idx)
    params = model.parameters()
    best = model.snapshot()

    grad_flags = [p.requires_grad for p in params]
    batches = batch_slices(len(train), config.batch_size)
    if len(batches) > 1 and len(train) % config.batch_size == 1:
        # train-mode batch norm needs two rows: a one-row last batch joins the one before
        batches[-2:] = [slice(batches[-2].start, len(train))]
    for epoch in range(config.max_epochs):
        shuffle_rng = derive_rng(config.seed, stream, "shuffle", epoch)
        order = shuffle_rng.permutation(len(train))
        epoch_losses = []
        for batch_number, sl in enumerate(batches):
            take = order[sl]
            text = None if train.text is None else train.text[take]
            meta = None if train.meta is None else train.meta[take]
            labels = train.labels[take]
            view, tags = schedule(epoch, batch_number) if schedule else (None, None)
            if step_callback is not None:
                step_callback({"phase": "pre", "epoch": epoch, "batch": batch_number,
                               "view": view, "tags": tags, "model": model})
            # no backward through a path this step does not update
            for p, flag in zip(params, grad_flags):
                p.requires_grad = flag and updates(p, tags)
            drop_rng = derive_rng(config.seed, stream, "dropout", epoch, batch_number)
            try:
                with Tape() as tape:
                    probs = model.forward(text, meta, train=True, rng=drop_rng, stats_tags=tags)
                    loss = cross_entropy(probs, labels)
                tape.backward(loss)
            finally:
                for p, flag in zip(params, grad_flags):
                    p.requires_grad = flag
            optimizer.step(params, allowed_tags=tags)
            model.zero_grads()
            tape.clear()
            epoch_losses.append(float(loss.data))
            if step_callback is not None:
                step_callback({"phase": "post", "epoch": epoch, "batch": batch_number,
                               "view": view, "tags": tags, "model": model})

        val_loss = evaluate_loss(model, val, config.batch_size)
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_loss.append(val_loss)
        history.epochs_run = epoch + 1
        if val_loss < stopper.best:
            best = model.snapshot()
        if stopper.update(epoch, val_loss):
            break

    history.best_epoch = stopper.best_epoch
    model.restore(best)
    return history


def fit_naive(model: ClassifierModel, data: EncodedDataset, config: TrainingConfig,
              step_callback=None) -> History:
    """Whole network at once; every path updates on every step."""
    return fit(model, data, config, step_callback=step_callback, stream="naive")


def fit_interleaved(model: ClassifierModel, data: EncodedDataset, config: TrainingConfig,
                    step_callback=None) -> History:
    """Alternating-path training over one shared parameter store."""
    if model.kind != "combined":
        raise ContractError("interleaved training needs a combined model")
    return fit(model, data, config, schedule=_interleaved_schedule,
               step_callback=step_callback, stream="interleaved")


def fit_transfer(text_model: ClassifierModel, metadata_model: ClassifierModel,
                 data: EncodedDataset, config: TrainingConfig, fine_tune: bool = False,
                 fusion_callback=None):
    """Pretrain both paths, fuse them, then train the head (and, with
    fine-tuning, the paths as well). Returns (combined_model, history)."""
    if data.text is None or data.meta is None:
        raise ContractError("transfer learning needs both input blocks")
    history = History()
    text_data = EncodedDataset(labels=data.labels, classes=data.classes, text=data.text)
    meta_data = EncodedDataset(labels=data.labels, classes=data.classes, meta=data.meta)
    history.stages["text_pretrain"] = fit(text_model, text_data, config, stream="transfer-text")
    history.stages["metadata_pretrain"] = fit(metadata_model, meta_data, config, stream="transfer-meta")

    combined = build_combined(text_model, metadata_model,
                              rng=derive_rng(config.seed, "transfer", "head"))
    if not fine_tune:
        combined.set_path_trainable("text", False)
        combined.set_path_trainable("metadata", False)
    history.stages["fusion"] = fit(combined, data, config, stream="transfer-fusion",
                                   step_callback=fusion_callback)
    # the run's own curves and best epoch are the fusion stage's
    return combined, replace(history.stages["fusion"], stages=history.stages)
