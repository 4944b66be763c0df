"""Model assembly: text path, metadata path, and the fused combined classifier.

The text path reads token ids through an embedding and a GRU (plus additive
attention once sequences are long enough to need it) into a fixed-width
feature vector. The metadata path batch-normalizes the numeric features and
pushes them through a bottleneck dense stack into a feature vector of the
same width. A standalone classifier puts a softmax layer on one path; the
combined model concatenates both feature vectors under a single softmax head.

Every parameter carries exactly one path tag in {text, metadata, head}; the
training strategies key off those tags.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .features import check_pipeline_config, is_string_list
from .layers import AttentionLayer, BatchNormLayer, DenseLayer, EmbeddingLayer, GRULayer, ZeroDraws
from .tensor import ContractError, Parameter, ShapeError, Tensor, active_tape, check_index, concat_last
from .text import FormatError

CHECKPOINT_MAGIC = b"ABNET1\x00"


@dataclass
class ModelConfig:
    """Architecture knobs; defaults are the sizes used throughout."""

    embed_dim: int = 200
    units: int = 128
    recurrent_dropout: float = 0.5
    hidden: tuple = (512, 245, 128, 64, 32)
    fusion_dim: int = 128
    attention_threshold: int = 100

    def __post_init__(self):
        self.hidden = tuple(self.hidden)  # a JSON header stores it as a list
        if not 0.0 <= self.recurrent_dropout < 1.0:
            raise ContractError(f"recurrent_dropout must be in [0, 1), got {self.recurrent_dropout}")
        widths = {"embed_dim": self.embed_dim, "units": self.units, "fusion_dim": self.fusion_dim,
                  **{f"hidden[{i}]": w for i, w in enumerate(self.hidden)}}
        for name, width in widths.items():
            if width < 1:
                raise ContractError(f"{name} must be >= 1, got {width}")


class TextPath:
    """embedding -> GRU -> (attention | last state) feature readout.

    Each batch's distinct live ids are embedded and projected onto the
    GRU's gates once; they come from a presence table over the vocabulary,
    not a sort. Without attention the GRU keeps only its last state, the
    one state the readout reads; with it, the GRU's states come packed,
    one row per live position, batch-major, and attention reads them as
    they are. While the table and the GRU's input weights are read-only
    arrays, as a loaded checkpoint's are, a forward with no tape active
    reads each live position's gate inputs by token id from one projection
    of the whole table, built on the first such forward and kept while
    those arrays stay the same objects. It holds the bits of the per-batch
    projection it replaces, since a gemm row's bits do not depend on the
    call's other rows. Such a forward embeds no row and gathers no
    distinct ids.

    Every product on the path gives each row its own bits, so at one BLAS
    thread a row's features do not depend on the other rows of its batch
    (``GRULayer._recurrence``, ``AttentionLayer``). This was checked on
    x86_64 with OpenBLAS 0.3.31 only; the head after the path is not
    covered.

    With attention on, a forward with no tape active writes the GRU's
    packed [n, units] states, its largest per-batch array, into a workspace
    the path owns, so that scoring batch after batch reuses the same memory
    instead of asking the allocator for it again. Per dtype it is one flat
    buffer of ``n*units`` floats for the batch's n live positions. It fits
    the largest batch scored so far: it grows to fit a larger batch and
    never shrinks, and it lives as long as the path, so dropping the model
    is what frees it. Attention needs no [n, units] array of its own there:
    it scores the states in blocks of ``layers.SCORE_BLOCK`` rows. Embedding
    rows are never workspace memory, nor is any array that ``features``
    returns. A taped forward, and any forward without attention, allocates
    its arrays afresh.
    """

    def __init__(self, embedding: EmbeddingLayer, gru: GRULayer, attention: AttentionLayer | None):
        self.embedding = embedding
        self.gru = gru
        self.attention = attention
        self._projection: tuple[list[np.ndarray], np.ndarray] | None = None  # (its sources, P)
        self._workspace: dict[np.dtype, np.ndarray] = {}  # dtype -> flat buffer

    @property
    def feature_dim(self) -> int:
        return self.gru.units

    @property
    def frozen(self) -> bool:
        """No parameter is trainable: training runs the path without dropout."""
        return not any(p.trainable for p in self.parameters())

    def parameters(self) -> list[Parameter]:
        params = self.embedding.parameters() + self.gru.parameters()
        if self.attention is not None:
            params += self.attention.parameters()
        return params

    def features(self, token_ids: np.ndarray, train: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ShapeError(f"text path expects [batch, T] token ids, got shape {token_ids.shape}")
        mask = token_ids != 0
        untaped = active_tape() is None
        P = self.projected_table() if untaped else None
        if P is None:
            # each distinct live id is embedded and projected onto the GRU's
            # gates once; the GRU reads it back through index
            ids, index = distinct_ids(token_ids, mask, self.embedding.vocab_size)
        else:
            check_index(token_ids, self.embedding.vocab_size, "token id")
            # embeds no row; the call stays, as perfbench/traced.py sums every chunk's embedding span
            ids, index = np.empty(0, dtype=np.intp), token_ids
        states_out = None
        if untaped and self.attention is not None:
            states_out = self._workspace_states(mask)
        states, last = self.gru.forward(self.embedding.forward(ids), mask=mask, index=index,
                                        train=train and not self.frozen, rng=rng, projected=P,
                                        keep_states=self.attention is not None, out=states_out)
        if self.attention is not None:
            context, _ = self.attention.forward(states, mask)
            return context
        return last

    def _workspace_states(self, mask: np.ndarray) -> np.ndarray:
        """One batch's view of the workspace: the GRU's packed states,
        [n live, units].

        The buffer is an anonymous memory map, unmapped before a larger one
        is made: a buffer taken from the heap could leave its old pages
        resident, since the allocator keeps a freed block between live
        ones, and growing the workspace that way held 15 MB more at
        score-long. Dropping the path hands every page back."""
        n, u = int(np.count_nonzero(mask)), self.gru.units
        dtype = self.embedding.table.data.dtype
        if dtype not in self._workspace or self._workspace[dtype].size < n * u:
            self._workspace.pop(dtype, None)
            self._workspace[dtype] = np.frombuffer(mmap.mmap(-1, max(n * u, 1) * dtype.itemsize), dtype=dtype)
        return self._workspace[dtype][:n * u].reshape(n, u)

    def projected_table(self) -> np.ndarray | None:
        """``gru.project`` of the whole table, or None (and the kept one
        dropped) unless the table and the GRU's input weights are read-only
        arrays that own their data."""
        sources = [p.data for p in (self.embedding.table, *self.gru.input_parameters())]
        if any(a.flags.writeable or a.base is not None for a in sources):
            self._projection = None
            return None
        if self._projection is None or any(a is not b for a, b in zip(self._projection[0], sources)):
            self._projection = (sources, self.gru.project(sources[0]))
        return self._projection[1]


def distinct_ids(token_ids: np.ndarray, mask: np.ndarray, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct live (mask True) ids in ascending order, and an index of
    token_ids' shape giving each live position's place among them (0 at
    padded positions): ``np.unique``'s values and inverse, from a presence
    table over the vocabulary instead of a sort. The live ids are checked
    by ``check_index``."""
    live = token_ids[mask]
    check_index(live, vocab_size, "token id")
    present = np.zeros(vocab_size, dtype=bool)
    present[live] = True
    ids = np.flatnonzero(present)
    rank = np.empty(vocab_size, dtype=np.intp)
    rank[ids] = np.arange(ids.size)
    index = np.zeros(token_ids.shape, dtype=np.intp)
    index[mask] = rank[live]
    return ids, index


class MetadataPath:
    """batch norm -> bottleneck dense stack -> fusion-width tanh layer."""

    def __init__(self, bn: BatchNormLayer, stack: list[DenseLayer], out_layer: DenseLayer):
        self.bn = bn
        self.stack = stack
        self.out_layer = out_layer

    @property
    def feature_dim(self) -> int:
        return self.out_layer.out_dim

    @property
    def frozen(self) -> bool:
        """No parameter is trainable: training folds no batch statistics in."""
        return not any(p.trainable for p in self.parameters())

    def parameters(self) -> list[Parameter]:
        params = self.bn.parameters()
        for layer in self.stack:
            params += layer.parameters()
        return params + self.out_layer.parameters()

    def features(self, meta: np.ndarray, train: bool = False, update_stats: bool = True) -> Tensor:
        h = self.bn.forward(Tensor(meta), train=train,
                            update_stats=update_stats and train and not self.frozen)
        for layer in self.stack:
            h = layer.forward(h)
        return self.out_layer.forward(h)


class ClassifierModel:
    """A softmax classifier over one path or the concatenation of both."""

    def __init__(self, classes: list[str], head: DenseLayer,
                 text_path: TextPath | None = None, metadata_path: MetadataPath | None = None):
        if text_path is None and metadata_path is None:
            raise ContractError("a classifier needs at least one input path")
        self.classes = list(classes)
        self.head = head
        self.text_path = text_path
        self.metadata_path = metadata_path
        self._tag_params()

    def _tag_params(self) -> None:
        for p in self.head.parameters():
            p.tag = "head"
        if self.text_path is not None:
            for p in self.text_path.parameters():
                p.tag = "text"
        if self.metadata_path is not None:
            for p in self.metadata_path.parameters():
                p.tag = "metadata"
        names = [p.name for p in self.parameters()]
        if len(names) != len(set(names)):
            raise ContractError("duplicate parameter names in model")

    @property
    def kind(self) -> str:
        if self.text_path is not None and self.metadata_path is not None:
            return "combined"
        return "text" if self.text_path is not None else "metadata"

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        if self.text_path is not None:
            params += self.text_path.parameters()
        if self.metadata_path is not None:
            params += self.metadata_path.parameters()
        return params + self.head.parameters()

    def forward(self, text_ids: np.ndarray | None, meta: np.ndarray | None,
                train: bool = False, rng: np.random.Generator | None = None,
                stats_tags: set[str] | None = None) -> Tensor:
        """Class probabilities [batch, n_classes].

        ``stats_tags`` limits which paths fold batch statistics into their
        running averages this step (None means every unfrozen path does).
        """
        feats: Tensor | None = None
        if self.text_path is not None:
            if text_ids is None:
                raise ContractError("model has a text path but no token ids were given")
            feats = self.text_path.features(text_ids, train=train, rng=rng)
        if self.metadata_path is not None:
            if meta is None:
                raise ContractError("model has a metadata path but no metadata was given")
            update = stats_tags is None or "metadata" in stats_tags
            m = self.metadata_path.features(meta, train=train, update_stats=update)
            feats = m if feats is None else concat_last(feats, m)
        return self.head.forward(feats)

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.parameters()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            p.data = snap[p.name].copy()

    def set_path_trainable(self, tag: str, trainable: bool) -> None:
        """Freeze or unfreeze a path; state that takes no gradient, such as
        batch norm's running statistics, stays untrainable."""
        tagged = [p for p in self.parameters() if p.tag == tag]
        if not tagged:
            raise KeyError(f"no parameters tagged {tag!r}")
        for p in tagged:
            if p.requires_grad:
                p.trainable = trainable


def parameter_count(model: ClassifierModel, include_embeddings: bool = False) -> int:
    """Total element count over trainable parameters."""
    total = 0
    for p in model.parameters():
        if not p.trainable:
            continue
        if not include_embeddings and p.name.endswith("embedding.table"):
            continue
        total += p.data.size
    return total


def build_text_path(vocab, spec, classes: list[str], *, config: ModelConfig | None = None,
                    rng: np.random.Generator | None = None,
                    embedding: EmbeddingLayer | None = None) -> ClassifierModel:
    """Standalone text classifier; attention switches on for long sequences.

    ``vocab`` may be a Vocabulary or a plain vocabulary size; ``spec`` a
    SequenceSpec or a plain sequence length.
    """
    classes = list(classes)
    if len(classes) < 2:
        raise ContractError(f"need at least 2 classes, got {len(classes)}")
    config = config or ModelConfig()
    rng = rng or np.random.default_rng(0)
    vocab_size = vocab if isinstance(vocab, int) else len(vocab)
    seq_len = spec if isinstance(spec, int) else spec.seq_len

    if embedding is None:
        embedding = EmbeddingLayer.random(vocab_size, config.embed_dim, rng=rng, name="text.embedding")
    else:
        embedding.table.name = "text.embedding.table"
    gru = GRULayer(embedding.dim, config.units, recurrent_dropout=config.recurrent_dropout,
                   rng=rng, name="text.gru")
    attention = None
    if seq_len > config.attention_threshold:
        attention = AttentionLayer(config.units, rng=rng, name="text.attention")
    head = DenseLayer(config.units, len(classes), activation="softmax", rng=rng, name="head")
    return ClassifierModel(classes, head, text_path=TextPath(embedding, gru, attention))


def build_metadata_path(feature_dim: int, classes: list[str], *,
                        config: ModelConfig | None = None,
                        rng: np.random.Generator | None = None) -> ClassifierModel:
    """Standalone metadata classifier: batch norm, bottleneck stack, softmax."""
    classes = list(classes)
    if feature_dim < 1:
        raise ContractError(f"metadata path needs feature_dim >= 1, got {feature_dim}")
    if len(classes) < 2:
        raise ContractError(f"need at least 2 classes, got {len(classes)}")
    config = config or ModelConfig()
    rng = rng or np.random.default_rng(0)

    bn = BatchNormLayer(feature_dim, name="meta.bn")
    stack: list[DenseLayer] = []
    in_dim = feature_dim
    for i, width in enumerate(config.hidden, start=1):
        stack.append(DenseLayer(in_dim, width, activation="tanh", rng=rng, name=f"meta.dense{i}"))
        in_dim = width
    out_layer = DenseLayer(in_dim, config.fusion_dim, activation="tanh", rng=rng, name="meta.fusion")
    head = DenseLayer(config.fusion_dim, len(classes), activation="softmax", rng=rng, name="head")
    return ClassifierModel(classes, head, metadata_path=MetadataPath(bn, stack, out_layer))


def build_combined(text_model: ClassifierModel, metadata_model: ClassifierModel, *,
                   rng: np.random.Generator | None = None) -> ClassifierModel:
    """Fuse two standalone classifiers at their penultimate layers.

    The classification layers of both inputs are dropped; a fresh softmax
    head over their common classes reads the concatenated feature vectors.
    The paths must expose equal feature widths (128 each in the default
    configuration, fusing into a 256-wide head input).
    """
    if text_model.text_path is None:
        raise ContractError("first argument must be a text classifier")
    if metadata_model.metadata_path is None:
        raise ContractError("second argument must be a metadata classifier")
    classes = text_model.classes
    if classes != metadata_model.classes:
        raise ContractError("path classifiers disagree on the class list")
    rng = rng or np.random.default_rng(0)

    text_path = text_model.text_path
    meta_path = metadata_model.metadata_path
    wt, wm = text_path.feature_dim, meta_path.feature_dim
    if wt != wm:
        raise ContractError(f"penultimate widths disagree: text {wt} vs metadata {wm}")
    head = DenseLayer(wt + wm, len(classes), activation="softmax", rng=rng, name="head")
    return ClassifierModel(classes, head, text_path=text_path, metadata_path=meta_path)


# ---------------------------------------------------------------------------
# checkpointing


@dataclass
class CheckpointMeta:
    """What a checkpoint stores besides the weights: its JSON header is these
    fields plus ``format_version``, and a field a v1 header lacks loads as its default."""

    classes: list[str]
    kind: str
    config: ModelConfig
    seq_len: int | None = None
    vocab_tokens: list[str] = field(default_factory=list)
    feature_dim: int | None = None
    schema: list[tuple[str, str]] = field(default_factory=list)
    pipeline: dict | None = None
    mask: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        """Embedding rows: the stored tokens plus the padding and unknown rows."""
        return len(self.vocab_tokens) + 2


def _check_describes(model: ClassifierModel, meta: CheckpointMeta) -> None:
    """Refuse a header that would rebuild a model other than ``model``: by kind,
    classes, and the parameter bytes the loader sizes from it."""
    try:
        described = _stored_bytes(meta)
    except ValueError as e:
        raise ContractError(f"checkpoint meta does not size a model: {e}") from None
    for what, given, actual in (("kind", meta.kind, model.kind), ("classes", list(meta.classes), model.classes),
                                ("parameter bytes", described, 4 * sum(p.data.size for p in model.parameters()))):
        if given != actual:
            raise ContractError(f"checkpoint meta gives {what} {given!r} but the model has {actual!r}")


def save_checkpoint(path, model: ClassifierModel, meta: CheckpointMeta) -> None:
    """Self-describing container: JSON header, then raw parameter records.

    Per-parameter record: name, path tag, trainable flag, shape, then the
    values as little-endian float32.
    """
    _check_describes(model, meta)
    header = {**asdict(meta), "format_version": 1, "mask": sorted(meta.mask)}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        params = model.parameters()
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            tag = (p.tag or "").encode("utf-8")
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<H", len(tag)))
            fh.write(tag)
            fh.write(struct.pack("<B", 1 if p.trainable else 0))
            shape = p.data.shape
            fh.write(struct.pack("<B", len(shape)))
            for dim in shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(p.data, dtype="<f4"))


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("checkpoint truncated")
    return data


def load_checkpoint(path) -> tuple[ClassifierModel, CheckpointMeta]:
    """Rebuild the model named in the header and read each stored array into its
    parameter's own (C-contiguous float32) array; a file that is not a loadable
    checkpoint is a FormatError naming ``path``.

    The arrays are read-only: training replaces each one it updates with a
    writable copy, so the text path may keep what it computes from them.
    """
    try:
        return _read_checkpoint(path)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def _read_checkpoint(path) -> tuple[ClassifierModel, CheckpointMeta]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("not a model checkpoint (bad magic)")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4))
        if hlen > size - fh.tell():  # refused before a byte is read, as records are
            raise ValueError("checkpoint truncated")
        try:
            header = json.loads(_read_exact(fh, hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValueError("checkpoint header is not valid JSON") from None
        if not isinstance(header, dict):
            raise ValueError("checkpoint header is not a JSON object")
        if header.get("format_version") != 1:
            raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
        try:
            meta = CheckpointMeta(**{f.name: header[f.name] for f in fields(CheckpointMeta) if f.name in header})
            meta.config = ModelConfig(**meta.config)
        except TypeError as e:
            raise ValueError(f"checkpoint header does not describe a model: {e}") from None
        _check_field_types(meta)
        meta.schema = [tuple(c) for c in meta.schema]
        stored = _stored_bytes(meta)
        if stored > size - fh.tell():  # refused before the model is built
            raise ValueError(f"checkpoint truncated: its header describes {stored} bytes of "
                             f"parameters, {size - fh.tell()} bytes follow it")
        model = _rebuild(meta)
        params = {p.name: p for p in model.parameters()}
        missing, unknown = dict(params), []
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4))
        for _ in range(n_params):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, nlen).decode("utf-8")
            (tlen,) = struct.unpack("<H", _read_exact(fh, 2))
            _read_exact(fh, tlen)  # tag is re-derived at build
            trainable, ndim = struct.unpack("<BB", _read_exact(fh, 2))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            nbytes = 4 * math.prod(shape)
            if nbytes > size - fh.tell():  # refused before a byte is read
                raise ValueError("checkpoint truncated")
            p = missing.pop(name, None)
            if p is None and name in params:
                raise ValueError(f"checkpoint stores parameter {name!r} twice")
            if p is None:
                unknown.append(name)
                fh.seek(nbytes, os.SEEK_CUR)
                continue
            if shape != p.data.shape:
                raise ValueError(f"parameter {name!r} shape {shape} != expected {p.data.shape}")
            if fh.readinto(p.data) != nbytes:
                raise ValueError("checkpoint truncated")
            if not np.little_endian:
                p.data.byteswap(inplace=True)
            p.data.flags.writeable = False
            p.trainable = bool(trainable)

    if missing:
        raise ValueError(f"checkpoint missing parameter {next(iter(missing))!r}")
    if unknown:
        raise ValueError(f"checkpoint holds parameters the {meta.kind} model its header describes "
                         f"does not have: {sorted(unknown)}")
    return model, meta


def _check_field_types(meta: CheckpointMeta) -> None:
    """Refuse a header field of the wrong type among those the rebuild and
    ``encode_for_checkpoint`` read, so that a checkpoint that loads can be scored."""
    for name in ("classes", "vocab_tokens", "mask"):
        if not is_string_list(getattr(meta, name)):
            raise ValueError(f"checkpoint header's {name} is not a list of strings")
    if not isinstance(meta.schema, list) or not all(is_string_list(c) and len(c) == 2 for c in meta.schema):
        raise ValueError("checkpoint header's schema is not a list of string pairs")
    if meta.pipeline is not None:
        check_pipeline_config(meta.pipeline, "checkpoint header's pipeline")


def _stored_bytes(meta: CheckpointMeta) -> int:
    """The bytes of parameter values a checkpoint of the model ``meta``
    describes holds: every parameter is stored, as float32."""
    c = meta.config
    if meta.kind not in ("text", "metadata", "combined"):
        raise ValueError(f"unknown model kind {meta.kind!r}")
    text, metadata = meta.kind != "metadata", meta.kind != "text"
    sizes = [c.embed_dim, c.units, c.fusion_dim, c.attention_threshold, *c.hidden]
    sizes += [meta.seq_len] * text + [meta.feature_dim] * metadata
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in sizes):
        raise ValueError("checkpoint header gives a width or length that is not an integer")
    elements, head_in = 0, 0
    if text:
        # embedding, W, U and b per gate, attention's W_a and v_a
        elements += meta.vocab_size * c.embed_dim + 3 * (c.embed_dim + c.units + 1) * c.units
        if meta.seq_len > c.attention_threshold:
            elements += c.units * (c.units + 1)
        head_in += c.units
    if metadata:
        elements += 4 * meta.feature_dim  # batch norm: gamma, beta and the running statistics
        for fan_in, fan_out in zip((meta.feature_dim, *c.hidden), (*c.hidden, c.fusion_dim)):
            elements += (fan_in + 1) * fan_out
        head_in += c.fusion_dim
    return 4 * (elements + (head_in + 1) * len(meta.classes))


def _rebuild(meta: CheckpointMeta) -> ClassifierModel:
    """The model a header describes, its weights zero placeholders for the stored ones."""
    zeros = ZeroDraws()

    def text() -> ClassifierModel:
        table = np.zeros((meta.vocab_size, meta.config.embed_dim), dtype=np.float32)
        return build_text_path(meta.vocab_size, meta.seq_len, meta.classes, config=meta.config,
                               rng=zeros, embedding=EmbeddingLayer(table))

    def metadata() -> ClassifierModel:
        return build_metadata_path(meta.feature_dim, meta.classes, config=meta.config, rng=zeros)

    if meta.kind == "text":
        return text()
    if meta.kind == "metadata":
        return metadata()
    return build_combined(text(), metadata(), rng=zeros)
