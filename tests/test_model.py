import json
import math
import re
import struct
import textwrap
import tracemalloc

import numpy as np
import pytest

from abusenet import model as model_mod
from abusenet.layers import SCORE_BLOCK, DenseLayer, EmbeddingLayer, GRULayer
from abusenet.model import (
    CheckpointMeta,
    ModelConfig,
    build_combined,
    build_metadata_path,
    build_text_path,
    distinct_ids,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from abusenet import tensor as T
from abusenet.tensor import ContractError, ShapeError, Tape, Tensor
from abusenet.text import FormatError
from abusenet.training import Adam, EncodedDataset, TrainingConfig, cross_entropy, fit, fit_interleaved

SMALL = ModelConfig(embed_dim=6, units=5, hidden=(8, 7), fusion_dim=5, recurrent_dropout=0.0)


def small_combined(classes=("a", "b"), feature_dim=4, vocab_size=20, seq_len=6, seed=0):
    rng = np.random.default_rng(seed)
    text = build_text_path(vocab_size, seq_len, list(classes), config=SMALL, rng=rng)
    meta = build_metadata_path(feature_dim, list(classes), config=SMALL, rng=rng)
    return build_combined(text, meta, rng=rng)


class TestModelConfig:
    @pytest.mark.parametrize("field, kwargs", [
        ("embed_dim", {"embed_dim": 0}),
        ("units", {"units": -1}),
        ("fusion_dim", {"fusion_dim": 0}),
        (r"hidden\[1\]", {"hidden": (8, 0)}),
    ])
    def test_width_below_one_rejected(self, field, kwargs):
        with pytest.raises(ContractError, match=f"{field} must be >= 1"):
            ModelConfig(**kwargs)


class TestTextPath:
    def test_tweet_config_disables_attention(self):
        m = build_text_path(50, 30, ["a", "b"], config=SMALL)
        assert m.text_path.attention is None

    def test_long_text_config_enables_attention(self):
        m = build_text_path(50, 2500, ["a", "b"], config=SMALL)
        assert m.text_path.attention is not None

    def test_forward_softmax_rows(self):
        m = build_text_path(50, 8, ["a", "b", "c"], config=SMALL)
        ids = np.random.default_rng(0).integers(0, 50, size=(4, 8))
        out = m.forward(ids, None)
        assert out.shape == (4, 3)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-6)

    def test_too_few_classes(self):
        with pytest.raises(ContractError):
            build_text_path(50, 8, ["only"], config=SMALL)

    @pytest.mark.parametrize("shape", [(64, 29), (512, 31), (3, 4)], ids=["desk", "train_short", "small"])
    def test_distinct_ids_equal_np_unique(self, shape):
        rng = np.random.default_rng(shape[0])
        vocab = 2000
        ids = np.minimum(rng.zipf(1.3, size=shape), vocab - 1)
        ids[rng.random(shape) < 0.3] = 0
        mask = ids != 0
        distinct, index = distinct_ids(ids, mask, vocab)
        expected, inverse = np.unique(ids[mask], return_inverse=True)
        assert distinct.tolist() == expected.tolist()
        assert index[mask].tolist() == inverse.tolist()
        assert not index[~mask].any()
        distinct, index = distinct_ids(ids, np.zeros(shape, dtype=bool), vocab)
        assert distinct.size == 0 and not index.any()

    @pytest.mark.parametrize("bad", [-1, -50, 50, 10**6])
    def test_features_reject_an_id_outside_the_vocabulary(self, bad):
        m = build_text_path(50, 6, ["a", "b"], config=SMALL)
        ids = np.random.default_rng(8).integers(1, 50, size=(3, 6))
        ids[1, 2] = bad
        with pytest.raises(IndexError, match=f"token id {bad} out of range"):
            m.text_path.features(ids)
        with pytest.raises(ContractError, match="integers"):
            m.text_path.features(ids.astype(np.float64))

    @pytest.mark.parametrize("seq_len", [6, 9], ids=["last_state", "attention"])
    def test_features_equal_embedding_then_dense_gru_bitwise(self, seq_len):
        # the distinct-id path gives the loss and every gradient of the
        # dense embedding -> GRU composition, as perfbench's segmented step runs it
        config = ModelConfig(embed_dim=24, units=5, recurrent_dropout=0.5, attention_threshold=8)
        m = build_text_path(12, seq_len, ["a", "b"], config=config, rng=np.random.default_rng(3))
        tp = m.text_path
        assert (tp.attention is not None) == (seq_len > 8)
        rng = np.random.default_rng(4)
        ids = rng.integers(1, 12, size=(7, seq_len))
        ids[rng.random(ids.shape) < 0.3] = 0
        ids[:, :2] = 0  # left padding
        ids[2, :-1] = 0  # a one-token text
        coef = Tensor(rng.normal(size=(7, 5)).astype(np.float32))

        def dense_features(token_ids, train, rng):
            mask = token_ids != 0
            states, last = tp.gru.forward(tp.embedding.forward(token_ids), mask=mask,
                                          train=train, rng=rng)
            return last if tp.attention is None else tp.attention.forward(states, mask)[0]

        results = []
        for features in (tp.features, dense_features):
            m.zero_grads()
            with Tape() as tape:
                loss = T.sum_all(T.mul(features(ids, True, np.random.default_rng(5)), coef))
            tape.backward(loss)
            results.append((loss.data.tobytes(), [p.grad.tobytes() for p in m.parameters()
                                                  if p.grad is not None]))
        (loss_a, grads_a), (loss_b, grads_b) = results
        assert loss_a == loss_b
        assert len(grads_a) == len(tp.parameters()) and grads_a == grads_b


    def test_attention_scores_a_batch_with_an_empty_text(self):
        config = ModelConfig(embed_dim=6, units=5, recurrent_dropout=0.5, attention_threshold=8)
        m = build_text_path(12, 9, ["a", "b"], config=config, rng=np.random.default_rng(6))
        tp = m.text_path
        assert tp.attention is not None
        ids = np.random.default_rng(7).integers(1, 12, size=(4, 9))
        ids[:, :3] = 0
        ids[1] = 0  # a text that tokenized to nothing
        probs = m.forward(ids, None).data
        assert np.isfinite(probs).all()
        # the empty row reads zero features, as the last-state readout's zero h0 does
        attention, tp.attention = tp.attention, None
        try:
            last_state = m.forward(ids, None).data
        finally:
            tp.attention = attention
        assert probs[1].tobytes() == last_state[1].tobytes()

        m.zero_grads()
        with Tape() as tape:
            loss = cross_entropy(m.forward(ids, None, train=True, rng=np.random.default_rng(8)),
                                 np.array([0, 1, 0, 1]))
        tape.backward(loss)
        assert np.isfinite(loss.data)
        assert all(np.isfinite(p.grad).all() for p in m.parameters() if p.grad is not None)


class TestMetadataPath:
    def test_default_stack_shapes(self):
        m = build_metadata_path(30, ["a", "b"])
        shapes = {p.name: p.data.shape for p in m.parameters()}
        assert shapes["meta.dense1.W"] == (30, 512)
        assert shapes["meta.dense2.W"] == (512, 245)
        assert shapes["meta.dense3.W"] == (245, 128)
        assert shapes["meta.dense4.W"] == (128, 64)
        assert shapes["meta.dense5.W"] == (64, 32)
        assert shapes["meta.fusion.W"] == (32, 128)
        assert shapes["head.W"] == (128, 2)

    def test_forward_rows_sum_to_one(self):
        m = build_metadata_path(4, ["a", "b"], config=SMALL)
        x = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)
        out = m.forward(None, x)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-6)

    def test_inference_deterministic(self):
        m = build_metadata_path(4, ["a", "b"], config=SMALL)
        x = np.random.default_rng(2).normal(size=(3, 4)).astype(np.float32)
        np.testing.assert_array_equal(m.forward(None, x).data, m.forward(None, x).data)

    def test_zero_feature_dim_rejected(self):
        with pytest.raises(ContractError):
            build_metadata_path(0, ["a", "b"])


class TestCombined:
    def test_default_fusion_widths(self):
        rng = np.random.default_rng(0)
        text = build_text_path(50, 30, ["a", "b"], rng=rng)
        meta = build_metadata_path(10, ["a", "b"], rng=rng)
        combined = build_combined(text, meta, rng=rng)
        assert text.text_path.feature_dim == 128
        assert meta.metadata_path.feature_dim == 128
        assert {p.name: p for p in combined.parameters()}["head.W"].data.shape == (256, 2)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        text = build_text_path(20, 6, ["a", "b"], config=SMALL, rng=rng)
        meta = build_metadata_path(4, ["a", "b"],
                                   config=ModelConfig(hidden=(8,), fusion_dim=9), rng=rng)
        with pytest.raises(ContractError):
            build_combined(text, meta)

    def test_path_tags_exhaustive_and_exclusive(self):
        m = small_combined()
        tags = {p.name: p.tag for p in m.parameters()}
        assert set(tags.values()) == {"text", "metadata", "head"}
        for name, tag in tags.items():
            prefix = name.split(".")[0]
            assert {"text": "text", "meta": "metadata", "head": "head"}[prefix] == tag

    def test_zeroed_metadata_path_reduces_to_text_affine(self):
        m = small_combined()
        params = {p.name: p for p in m.parameters()}
        params["meta.fusion.W"].data[:] = 0.0
        params["meta.fusion.b"].data[:] = 0.0
        ids = np.random.default_rng(3).integers(0, 20, size=(4, 6))
        meta = np.random.default_rng(4).normal(size=(4, 4)).astype(np.float32)
        full = m.forward(ids, meta)

        feats = m.text_path.features(ids)
        w = params["head.W"].data
        b = params["head.b"].data
        logits = feats.data @ w[: feats.shape[1]] + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(full.data, expected, atol=1e-6)

    @pytest.mark.parametrize("seq_len", [6, 120], ids=["last_state", "attention"])
    def test_one_tape_op_per_layer(self, seq_len):
        m = small_combined(seq_len=seq_len)
        tp, mp = m.text_path, m.metadata_path
        layers = [tp.embedding, tp.gru, tp.attention, mp.bn, *mp.stack, mp.out_layer, m.head]
        layers = [layer for layer in layers if layer is not None]
        assert (tp.attention is not None) == (seq_len == 120)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 20, size=(4, seq_len))
        meta = rng.normal(size=(4, 4)).astype(np.float32)
        with Tape() as tape:
            probs = m.forward(ids, meta, train=True, rng=rng)
            cross_entropy(probs, np.array([0, 1, 1, 0]))
        # plus concat_last and the loss; with attention also the GRU's
        # last-state readout (without it, the GRU's op is that readout)
        assert len(tape) == len(layers) + (3 if tp.attention is not None else 2)

    def test_forward_needs_both_inputs(self):
        m = small_combined()
        with pytest.raises(ContractError):
            m.forward(np.zeros((2, 6), dtype=np.int32), None)


class TestParameterCount:
    def test_dense_2_3(self):
        layer = DenseLayer(2, 3)
        assert sum(p.data.size for p in layer.parameters()) == 9

    def test_gru_closed_form(self):
        gru = GRULayer(200, 128, 0.5)
        assert sum(p.data.size for p in gru.parameters()) == 3 * (200 * 128 + 128 * 128 + 128)

    def test_freezing_removes_from_count(self):
        m = small_combined()
        full = parameter_count(m)
        text_trainable = sum(p.data.size for p in m.parameters()
                             if p.tag == "text" and p.trainable
                             and not p.name.endswith("embedding.table"))
        m.set_path_trainable("text", False)
        assert parameter_count(m) == full - text_trainable

    def test_unfreezing_keeps_running_stats_untrainable(self):
        m = small_combined()
        full = parameter_count(m)
        m.set_path_trainable("metadata", True)
        assert parameter_count(m) == full
        params = {p.name: p for p in m.parameters()}
        assert not params["meta.bn.running_mean"].trainable
        assert not params["meta.bn.running_var"].trainable

    def test_default_combined_order_of_magnitude(self):
        rng = np.random.default_rng(0)
        text = build_text_path(5000, 30, ["a", "b", "c"], rng=rng)
        meta = build_metadata_path(30, ["a", "b", "c"], rng=rng)
        combined = build_combined(text, meta, rng=rng)
        n = parameter_count(combined, include_embeddings=False)
        assert 1e5 <= n < 1e6
        assert parameter_count(combined, include_embeddings=True) == n + 5000 * 200


def v1_bytes(header: dict, records) -> bytes:
    """A format-v1 checkpoint assembled field by field, without save_checkpoint:
    magic, header length and JSON, record count, then per record the name,
    path tag, trainable flag, shape and little-endian float32 values."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [b"ABNET1\x00", struct.pack("<I", len(blob)), blob, struct.pack("<I", len(records))]
    for name, tag, trainable, values in records:
        values = np.asarray(values, dtype="<f4")
        out += [struct.pack("<H", len(name)), name.encode("utf-8"),
                struct.pack("<H", len(tag)), tag.encode("utf-8"),
                struct.pack("<BB", trainable, values.ndim),
                struct.pack(f"<{values.ndim}I", *values.shape), values.tobytes()]
    return b"".join(out)


V1_HEADER = {
    "format_version": 1, "classes": ["a", "b"], "kind": "text",
    "config": {"embed_dim": 2, "units": 2, "recurrent_dropout": 0.5, "hidden": [3],
               "fusion_dim": 2, "attention_threshold": 100},
    "seq_len": 3, "vocab_tokens": ["x", "y"], "feature_dim": None, "schema": [],
    "pipeline": None, "mask": ["TF", "WV"], "extra": {"seed": 7, "strategy": "naive"},
}


def v1_text_records():
    """Records of V1_HEADER's model (vocabulary 4, width 2, 2 GRU units) in
    parameter order; the head is stored frozen."""
    rng = np.random.default_rng(30)
    table = rng.normal(size=(4, 2))
    table[0] = 0.0
    gru = ([(f"text.gru.{w}_{g}", (2, 2)) for w in "WU" for g in "zrh"]
           + [(f"text.gru.b_{g}", (2,)) for g in "zrh"])
    return ([("text.embedding.table", "text", 1, table)]
            + [(name, "text", 1, rng.normal(size=shape)) for name, shape in gru]
            + [("head.W", "head", 0, rng.normal(size=(2, 2))), ("head.b", "head", 0, rng.normal(size=2))])


class TestCheckpoint:
    def test_format_v1_pinned_both_ways(self, tmp_path):
        records = v1_text_records()
        raw = v1_bytes(V1_HEADER, records)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(raw)
        model, meta = load_checkpoint(path)
        assert meta == CheckpointMeta(
            classes=["a", "b"], kind="text",
            config=ModelConfig(embed_dim=2, units=2, hidden=(3,), fusion_dim=2),
            seq_len=3, vocab_tokens=["x", "y"], mask=["TF", "WV"], extra={"seed": 7, "strategy": "naive"})
        for (name, tag, trainable, values), p in zip(records, model.parameters(), strict=True):
            assert (p.name, p.tag, p.trainable) == (name, tag, bool(trainable))
            np.testing.assert_array_equal(p.data, np.asarray(values, dtype=np.float32))
        again = tmp_path / "again.ckpt"
        meta.mask = ["WV", "TF"]  # the writer sorts the mask
        save_checkpoint(again, model, meta)
        assert again.read_bytes() == raw

    def test_v1_header_without_optional_keys_loads(self, tmp_path):
        header = {key: V1_HEADER[key] for key in
                  ("format_version", "classes", "kind", "seq_len", "vocab_tokens")}
        header["config"] = {"embed_dim": 2, "units": 2}
        path = tmp_path / "old.ckpt"
        path.write_bytes(v1_bytes(header, v1_text_records()))
        model, meta = load_checkpoint(path)
        assert meta.config == ModelConfig(embed_dim=2, units=2)
        assert meta.config.hidden == ModelConfig.hidden
        assert (meta.feature_dim, meta.schema, meta.pipeline, meta.mask, meta.extra) == (None, [], None, [], {})
        assert model.kind == "text" and model.text_path.attention is None

    def test_header_without_a_required_key_rejected(self, tmp_path):
        header = {k: v for k, v in V1_HEADER.items() if k != "classes"}
        path = tmp_path / "bad.ckpt"
        path.write_bytes(v1_bytes(header, v1_text_records()))
        with pytest.raises(ValueError, match="classes"):
            load_checkpoint(path)

    def test_records_the_header_does_not_describe_rejected(self, tmp_path):
        # attention weights stored under a header whose seq_len rebuilds no attention
        extra = [("text.attention.W_a", "text", 1, np.ones((2, 2))),
                 ("text.attention.v_a", "text", 1, np.ones((2, 1)))]
        path = tmp_path / "extra.ckpt"
        path.write_bytes(v1_bytes(V1_HEADER, v1_text_records() + extra))
        with pytest.raises(ValueError, match="'text.attention.W_a', 'text.attention.v_a'"):
            load_checkpoint(path)

    # kind and classes are compared as such; every other fact by the parameter
    # bytes the loader would size from it, and a fact it cannot size is refused
    @pytest.mark.parametrize("change, what", [
        ({"kind": "text"}, "kind"),
        ({"classes": ["a", "c"]}, "classes"),
        ({"feature_dim": 5}, "parameter bytes"),
        ({"feature_dim": None}, "does not size a model"),
        ({"vocab_tokens": [f"t{i}" for i in range(17)]}, "parameter bytes"),
        ({"seq_len": 200}, "parameter bytes"),
        ({"seq_len": None}, "does not size a model"),
        ({"config": ModelConfig(embed_dim=6, units=5, hidden=(8, 6), fusion_dim=5)}, "parameter bytes"),
    ], ids=["kind", "classes", "feature_dim", "no_feature_dim", "vocabulary_size", "attention",
            "no_seq_len", "hidden_widths"])
    def test_save_rejects_meta_that_disagrees_with_model(self, tmp_path, change, what):
        m = small_combined()
        described = dict(classes=m.classes, kind="combined", config=SMALL, seq_len=6,
                         vocab_tokens=[f"t{i}" for i in range(18)], feature_dim=4)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContractError, match=what):
            save_checkpoint(path, m, CheckpointMeta(**{**described, **change}))
        assert not path.exists()

    def test_save_refuses_widths_the_loader_would_refuse(self, tmp_path):
        config = ModelConfig(embed_dim=6, units=16, hidden=(32, 16), fusion_dim=16)
        rng = np.random.default_rng(0)
        m = build_combined(build_text_path(20, 6, ["a", "b"], config=config, rng=rng),
                           build_metadata_path(4, ["a", "b"], config=config, rng=rng), rng=rng)
        described = CheckpointMeta(classes=["a", "b"], kind="combined", seq_len=6, feature_dim=4,
                                   config=ModelConfig(embed_dim=6, units=16, hidden=(32, 8), fusion_dim=16),
                                   vocab_tokens=[f"t{i}" for i in range(18)])
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContractError, match="parameter bytes"):
            save_checkpoint(path, m, described)
        assert not path.exists()

    def test_load_draws_no_random_embedding_table(self, tmp_path, monkeypatch):
        m = small_combined(seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, CheckpointMeta(
            classes=m.classes, kind="combined", config=SMALL, seq_len=6,
            vocab_tokens=[f"t{i}" for i in range(18)], feature_dim=4))

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random embedding table")

        monkeypatch.setattr(EmbeddingLayer, "random", classmethod(refuse))
        # no Generator can be made during the load, so none draws placeholder weights
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)
        clone, _ = load_checkpoint(path)
        monkeypatch.undo()
        for p, q in zip(m.parameters(), clone.parameters(), strict=True):
            assert p.name == q.name
            np.testing.assert_array_equal(q.data, p.data)

    def test_round_trip_bit_identical_forward(self, tmp_path):
        m = small_combined(seed=5)
        # nudge running stats away from defaults so they must round-trip too
        ids = np.random.default_rng(6).integers(0, 20, size=(8, 6))
        meta = np.random.default_rng(7).normal(size=(8, 4)).astype(np.float32)
        m.forward(ids, meta, train=True, rng=np.random.default_rng(0))

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, CheckpointMeta(
            classes=m.classes, kind="combined", config=SMALL, seq_len=6,
            vocab_tokens=[f"t{i}" for i in range(18)], feature_dim=4))
        clone, meta_out = load_checkpoint(path)
        assert meta_out.classes == m.classes
        np.testing.assert_array_equal(clone.forward(ids, meta).data, m.forward(ids, meta).data)

    def test_trainable_flags_round_trip(self, tmp_path):
        m = small_combined(seed=8)
        m.set_path_trainable("text", False)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, CheckpointMeta(
            classes=m.classes, kind="combined", config=SMALL, seq_len=6,
            vocab_tokens=[f"t{i}" for i in range(18)], feature_dim=4))
        clone, _ = load_checkpoint(path)
        assert all(not p.trainable for p in clone.parameters() if p.tag == "text")

    def test_frozen_paths_stay_frozen_after_reload(self, tmp_path):
        m = small_combined(seed=9)
        m.set_path_trainable("text", False)
        m.set_path_trainable("metadata", False)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, CheckpointMeta(
            classes=m.classes, kind="combined", config=SMALL, seq_len=6,
            vocab_tokens=[f"t{i}" for i in range(18)], feature_dim=4))
        clone, _ = load_checkpoint(path)
        assert clone.text_path.frozen and clone.metadata_path.frozen
        rng = np.random.default_rng(10)
        data = EncodedDataset(labels=np.arange(20) % 2, classes=clone.classes,
                              text=rng.integers(0, 20, size=(20, 6)),
                              meta=rng.normal(size=(20, 4)).astype(np.float32))
        running_mean = {p.name: p for p in clone.parameters()}["meta.bn.running_mean"]
        before = running_mean.data.copy()
        # one step: 18 training rows in one batch of 32
        fit(clone, data, TrainingConfig(strategy="naive", batch_size=32, max_epochs=1, patience=0))
        np.testing.assert_array_equal(running_mean.data, before)

    def test_oversized_record_shape_rejected_before_allocating(self, tmp_path):
        raw = v1_bytes(V1_HEADER, [("text.embedding.table", "text", 1, np.zeros((1, 1)))])
        # the one record's shape is 1 x 1; claim 2**32-1 x 2**32-1 (64 EiB) instead
        dims = struct.pack("<2I", 1, 1)
        at = raw.rindex(dims)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(raw[:at] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + raw[at + 8:])
        with pytest.raises(ValueError, match="checkpoint truncated"):
            load_checkpoint(path)

    def test_oversized_header_length_rejected_before_allocating(self, tmp_path):
        # 32 bytes that claim a 64 MiB header
        path = tmp_path / "huge_header.ckpt"
        path.write_bytes(b"ABNET1\x00" + struct.pack("<I", 64 * 2**20) + b"{}".ljust(21))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: checkpoint truncated"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_header_describing_more_parameter_bytes_than_follow_rejected_before_rebuild(self, tmp_path):
        # an 880-byte file whose config asks for 1000 GRU units: 12,044,040 bytes of parameters
        header = {**V1_HEADER, "config": {**V1_HEADER["config"], "units": 1000}}
        path = tmp_path / "wide.ckpt"
        path.write_bytes(v1_bytes(header, v1_text_records()))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: checkpoint truncated: "
                                                  "its header describes 12044040 bytes of parameters"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.parametrize("kind", ["text", "text_attention", "metadata", "combined"])
    def test_described_parameter_bytes_are_the_stored_ones(self, tmp_path, kind):
        config = ModelConfig(embed_dim=6, units=5, hidden=(8, 7), fusion_dim=5, attention_threshold=4)
        rng = np.random.default_rng(13)
        seq_len = 6 if kind == "text_attention" else 3
        text = build_text_path(20, seq_len, ["a", "b", "c"], config=config, rng=rng)
        meta = build_metadata_path(4, ["a", "b", "c"], config=config, rng=rng)
        m = {"metadata": meta, "combined": build_combined(text, meta, rng=rng)}.get(kind, text)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, CheckpointMeta(
            classes=m.classes, kind=m.kind, config=config, seq_len=seq_len,
            vocab_tokens=[f"t{i}" for i in range(18)], feature_dim=None if kind.startswith("text") else 4))
        load_checkpoint(path)
        stored = sum(p.data.nbytes for p in m.parameters())
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[7:11])
        path.write_bytes(raw[:11 + hlen + stored // 2])  # cut inside the records
        with pytest.raises(FormatError, match=f"its header describes {stored} bytes of parameters"):
            load_checkpoint(path)

    def test_parameter_stored_twice_rejected(self, tmp_path):
        records = v1_text_records()
        path = tmp_path / "twice.ckpt"
        path.write_bytes(v1_bytes(V1_HEADER, records + [records[2]]))
        with pytest.raises(FormatError, match="checkpoint stores parameter 'text.gru.W_r' twice"):
            load_checkpoint(path)

    def test_load_holds_one_copy_of_each_array(self, tmp_path):
        # a 20k-token table is nearly all of this model's bytes; the rebuilt
        # model's own arrays take the stored values, with no second copy
        config = ModelConfig(embed_dim=200, units=4, hidden=(4,), fusion_dim=4)
        tokens = [f"w{i}" for i in range(20000)]
        m = build_text_path(len(tokens) + 2, 6, ["a", "b"], config=config, rng=np.random.default_rng(11))
        path = tmp_path / "table.ckpt"
        save_checkpoint(path, m, CheckpointMeta(classes=m.classes, kind="text", config=config,
                                                seq_len=6, vocab_tokens=tokens))
        nbytes = sum(p.data.nbytes for p in m.parameters())
        tracemalloc.start()
        try:
            clone, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * nbytes, (peak, nbytes)
        for p, q in zip(m.parameters(), clone.parameters(), strict=True):
            np.testing.assert_array_equal(q.data, p.data)

    def test_truncated_record_rejected(self, tmp_path):
        records = v1_text_records()
        raw = v1_bytes(V1_HEADER, records)
        table = np.asarray(records[0][3], dtype="<f4").tobytes()
        path = tmp_path / "short.ckpt"
        # inside the last record's values, then 5 bytes into the first record's
        for end in (len(raw) - 1, len(raw) - 3, raw.index(table) + 5):
            path.write_bytes(raw[:end])
            with pytest.raises(ValueError, match="checkpoint truncated"):
                load_checkpoint(path)

    @pytest.mark.parametrize("blob, message", [
        (b"{not json", "checkpoint header is not valid JSON"),
        (b"\xff\xfe{}", "checkpoint header is not valid JSON"),
        (b"[1]", "checkpoint header is not a JSON object"),
    ], ids=["not_json", "not_utf8", "not_object"])
    def test_junk_header_rejected(self, tmp_path, blob, message):
        path = tmp_path / "junk_header.ckpt"
        path.write_bytes(b"ABNET1\x00" + struct.pack("<I", len(blob)) + blob + struct.pack("<I", 0))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: b"not a checkpoint at all", "not a model checkpoint (bad magic)"),
        (lambda raw: raw[:-1], "checkpoint truncated"),
        (lambda raw: raw.replace(b'"format_version": 1', b'"format_version": 2'),
         "unsupported checkpoint version 2"),
        (lambda raw: raw.replace(b"text.gru.b_z", b"text.gru.b_q"), "checkpoint missing parameter"),
        (lambda raw: raw.replace(b"head.W", b"head.\xff"), "'utf-8' codec can't decode byte 0xff"),
    ], ids=["bad_magic", "truncated", "version", "missing_parameter", "name_not_utf8"])
    def test_bad_file_is_a_format_error_naming_the_path(self, tmp_path, damage, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(damage(v1_bytes(V1_HEADER, v1_text_records())))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)


def saved_and_loaded(tmp_path, m, seq_len, n_tokens, feature_dim=None, config=SMALL):
    """(path, the model load_checkpoint rebuilds) for ``m`` saved with a fitting header."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, CheckpointMeta(
        classes=m.classes, kind=m.kind, config=config, seq_len=seq_len,
        vocab_tokens=[f"t{i}" for i in range(n_tokens)], feature_dim=feature_dim))
    return path, load_checkpoint(path)[0]


@pytest.fixture
def projections(monkeypatch):
    """The row count of every GRULayer.project call."""
    rows = []
    project = GRULayer.project

    def spy(self, x, out=None):
        rows.append(x.shape[0])
        return project(self, x, out=out)

    monkeypatch.setattr(GRULayer, "project", spy)
    return rows


class TestLoadedModel:
    """A loaded checkpoint's arrays are read-only, and its text path projects
    the vocabulary onto the GRU's gates once."""

    def test_paper_width_cached_probabilities_equal_per_batch_bitwise(self, tmp_path, projections):
        config = ModelConfig()
        vocab, seq_len = 600, 104
        m = build_text_path(vocab, seq_len, ["a", "b"], config=config, rng=np.random.default_rng(21))
        assert m.text_path.attention is not None
        path, clone = saved_and_loaded(tmp_path, m, seq_len, vocab - 2, config=config)
        rng = np.random.default_rng(22)
        ids = rng.integers(1, vocab, size=(48, seq_len))
        lengths = rng.integers(1, seq_len - 1, size=48)
        lengths[5] = seq_len  # the only row live at step 0: a one-row step
        ids[np.arange(seq_len)[None, :] < (seq_len - lengths)[:, None]] = 0  # left padding
        for batch in (ids, ids[:9], ids[5:6]):
            # the features too: a last-bit difference there can round away in the probabilities
            np.testing.assert_array_equal(clone.text_path.features(batch).data,
                                          m.text_path.features(batch).data)
            np.testing.assert_array_equal(clone.forward(batch, None).data, m.forward(batch, None).data)
        assert projections.count(vocab) == 1  # the loaded model projected its table once

    @pytest.mark.parametrize("batch", ["one_row_steps", "no_one_row_steps", "no_padding"])
    def test_cached_attention_features_equal_a_writable_copy_bitwise(self, tmp_path, monkeypatch, batch):
        # a loaded checkpoint reads every live position's gate inputs from its
        # projected table by token id, one-row steps' too, and embeds no id;
        # the writable model gathers and projects the batch's distinct ids;
        # both give the same bits
        config = ModelConfig(embed_dim=64, units=16, recurrent_dropout=0.5, attention_threshold=8)
        m = build_text_path(300, 20, ["a", "b"], config=config, rng=np.random.default_rng(31))
        _, clone = saved_and_loaded(tmp_path, m, 20, 298, config=config)
        rng = np.random.default_rng(32)
        ids = rng.integers(1, 300, size=(24, 20))
        if batch != "no_padding":
            lengths = rng.integers(2, 18, size=24)
            lengths[:2] = 20, 19  # at least two rows are live from step 1 on
            lengths[0] = 20 if batch == "one_row_steps" else 19  # row 0 alone is live at step 0
            ids[np.arange(20)[None, :] < (20 - lengths)[:, None]] = 0
            ids[3, 7] = ids[4, 9] = 0  # holes
        mask = ids != 0
        one_row = np.flatnonzero(mask.sum(axis=0) == 1)
        assert one_row.size == (batch == "one_row_steps")
        embedded, distinct = [], []
        forward, distinct_of = model_mod.EmbeddingLayer.forward, model_mod.distinct_ids
        monkeypatch.setattr(model_mod.EmbeddingLayer, "forward",
                            lambda self, token_ids: embedded.append(token_ids.tolist())
                            or forward(self, token_ids))
        monkeypatch.setattr(model_mod, "distinct_ids",
                            lambda *args: distinct.append(1) or distinct_of(*args))
        got = clone.text_path.features(ids).data
        assert embedded == [[]] and not distinct
        expected = m.text_path.features(ids).data
        assert len(embedded) == 2 and distinct == [1]
        assert got.tobytes() == expected.tobytes()
        assert clone.forward(ids, None).data.tobytes() == m.forward(ids, None).data.tobytes()

    @pytest.mark.parametrize("bad", [-1, 300, 10**6])
    def test_cached_path_rejects_an_id_outside_the_vocabulary(self, tmp_path, bad):
        config = ModelConfig(embed_dim=8, units=4, recurrent_dropout=0.0, attention_threshold=8)
        m = build_text_path(300, 12, ["a", "b"], config=config, rng=np.random.default_rng(33))
        _, clone = saved_and_loaded(tmp_path, m, 12, 298, config=config)
        ids = np.random.default_rng(34).integers(1, 300, size=(5, 12))
        clone.text_path.features(ids)
        assert clone.text_path.projected_table() is not None
        ids[2, 3] = bad
        for path in (clone.text_path, m.text_path):
            with pytest.raises(IndexError, match=f"token id {bad} out of range"):
                path.features(ids)
            with pytest.raises(ContractError, match="integers"):
                path.features(ids.astype(np.float64))
            with pytest.raises(ShapeError, match=r"\[batch, T\] token ids"):
                path.features(ids[0])

    def test_desk_width_cached_probabilities_equal_per_batch_bitwise(self, tmp_path, projections):
        config = ModelConfig(embed_dim=16, units=16, hidden=(32, 16), fusion_dim=16)
        rng = np.random.default_rng(23)
        text = build_text_path(300, 29, ["a", "b"], config=config, rng=rng)
        m = build_combined(text, build_metadata_path(4, ["a", "b"], config=config, rng=rng), rng=rng)
        _, clone = saved_and_loaded(tmp_path, m, 29, 298, feature_dim=4, config=config)
        assert clone.text_path.attention is None
        ids = rng.integers(0, 300, size=(64, 29))
        distinct = np.arange(1, 61).reshape(4, 15)  # every id read once: no per-batch projection
        for batch in (ids, distinct):
            meta = rng.normal(size=(len(batch), 4)).astype(np.float32)
            np.testing.assert_array_equal(clone.text_path.features(batch).data,
                                          m.text_path.features(batch).data)
            np.testing.assert_array_equal(clone.forward(batch, meta).data, m.forward(batch, meta).data)
        assert projections.count(300) == 1

    def test_in_place_write_to_a_loaded_parameter_raises(self, tmp_path):
        _, clone = saved_and_loaded(tmp_path, small_combined(seed=24), 6, 18, feature_dim=4)
        for p in clone.parameters():
            with pytest.raises(ValueError, match="read-only"):
                p.data.reshape(-1)[0] = 1.0

    @pytest.mark.parametrize("strategy", ["naive", "interleaved"])
    def test_fit_on_loaded_model_equals_fit_on_the_saved_one_bitwise(self, tmp_path, strategy):
        m = small_combined(seed=25)
        _, clone = saved_and_loaded(tmp_path, m, 6, 18, feature_dim=4)
        rng = np.random.default_rng(26)
        data = EncodedDataset(labels=np.arange(60) % 2, classes=m.classes,
                              text=rng.integers(0, 20, size=(60, 6)),
                              meta=rng.normal(size=(60, 4)).astype(np.float32))
        config = TrainingConfig(strategy=strategy, batch_size=16, max_epochs=3, patience=2, seed=27)
        train = fit_interleaved if strategy == "interleaved" else fit
        histories = [train(model, data, config) for model in (m, clone)]
        assert histories[0].val_loss == histories[1].val_loss
        for p, q in zip(m.parameters(), clone.parameters(), strict=True):
            np.testing.assert_array_equal(q.data, p.data)

    def test_replaced_arrays_drop_the_projection(self, tmp_path, projections):
        m = small_combined(seed=28)
        _, clone = saved_and_loaded(tmp_path, m, 6, 18, feature_dim=4)
        rng = np.random.default_rng(29)
        ids = rng.integers(1, 20, size=(8, 6))
        meta = rng.normal(size=(8, 4)).astype(np.float32)
        clone.forward(ids, meta)
        assert projections == [20] and clone.text_path.projected_table() is not None
        clone.restore(clone.snapshot())  # writable copies
        assert clone.text_path.projected_table() is None
        np.testing.assert_array_equal(clone.forward(ids, meta).data, m.forward(ids, meta).data)
        assert 20 not in projections[1:]  # projected per batch again

        projections.clear()
        _, clone = saved_and_loaded(tmp_path, m, 6, 18, feature_dim=4)
        clone.forward(ids, meta)
        w_z = {p.name: p for p in clone.parameters()}["text.gru.W_z"]
        w_z.grad = np.ones_like(w_z.data)
        Adam(1e-3).step([w_z])  # a copy on write
        assert w_z.data.flags.writeable and clone.text_path.projected_table() is None
        m_w_z = {p.name: p for p in m.parameters()}["text.gru.W_z"]
        m_w_z.grad = np.ones_like(m_w_z.data)
        Adam(1e-3).step([m_w_z])
        np.testing.assert_array_equal(clone.forward(ids, meta).data, m.forward(ids, meta).data)
        assert projections.count(20) == 1

    def test_saving_a_loaded_model_reproduces_the_checkpoint(self, tmp_path):
        m = small_combined(seed=30)
        path, clone = saved_and_loaded(tmp_path, m, 6, 18, feature_dim=4)
        clone.forward(np.random.default_rng(31).integers(0, 20, size=(4, 6)),
                      np.zeros((4, 4), dtype=np.float32))  # builds the projection
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, clone, load_checkpoint(path)[1])
        assert again.read_bytes() == path.read_bytes()


ATTENTION = ModelConfig(embed_dim=6, units=5, recurrent_dropout=0.5, attention_threshold=8)


def attention_model(seed, dtype=np.float32, vocab=40, seq_len=12):
    m = build_text_path(vocab, seq_len, ["a", "b"], config=ATTENTION, rng=np.random.default_rng(seed))
    assert m.text_path.attention is not None
    for p in m.parameters():
        p.data = p.data.astype(dtype)
    return m


def text_batch(rng, b, steps, vocab=40):
    """Left-padded ids whose first row alone is live at step 0: a one-row step."""
    ids = rng.integers(1, vocab, size=(b, steps))
    lengths = rng.integers(1, steps, size=b)
    lengths[0] = steps
    ids[np.arange(steps)[None, :] < (steps - lengths)[:, None]] = 0
    return ids


class TestBatchInvariance:
    """At one BLAS thread a row's text features do not depend on the other
    rows of its batch."""

    def test_features_equal_those_of_chunks_and_single_rows_bitwise(self, run_snippet):
        # paper widths, a left-padded batch whose first two steps have one
        # live row, with and without attention, for a writable model (the
        # batch's distinct ids projected) and a loaded checkpoint (the
        # whole table projected), at 1 and 2 row blocks; the same rows in
        # chunks of 64 and scored alone give the batch's bits
        snippet = textwrap.dedent("""
            import json, os, tempfile
            import numpy as np
            from abusenet import layers
            from abusenet.model import CheckpointMeta, ModelConfig, build_text_path, load_checkpoint, save_checkpoint

            layers.blas_threads, layers.cpu_count = (lambda: 1), (lambda: 2)
            split, row_blocks = [], layers.row_blocks
            layers.row_blocks = lambda mask, units: split.append(len(row_blocks(mask, units)) - 1) or row_blocks(mask, units)
            b, steps, vocab = 160, 24, 500
            rng = np.random.default_rng(61)
            ids = rng.integers(1, vocab, size=(b, steps))
            lengths = rng.integers(1, steps - 1, size=b)
            lengths[0] = steps
            ids[np.arange(steps)[None, :] < (steps - lengths)[:, None]] = 0
            live_rows = np.count_nonzero(ids, axis=0)
            differ = {}
            with tempfile.TemporaryDirectory() as tmp:
                for attention in (False, True):
                    config = ModelConfig(attention_threshold=steps - 1 if attention else steps)
                    m = build_text_path(vocab, steps, ["a", "b"], config=config, rng=np.random.default_rng(62))
                    assert (m.text_path.attention is not None) == attention
                    path = os.path.join(tmp, "model.ckpt")
                    save_checkpoint(path, m, CheckpointMeta(
                        classes=m.classes, kind=m.kind, config=config, seq_len=steps,
                        vocab_tokens=[f"t{i}" for i in range(vocab - 2)]))
                    loaded = load_checkpoint(path)[0]
                    for name, model in (("writable", m), ("loaded", loaded)):
                        text = model.text_path
                        for blocks, cells in ((1, 10 ** 12), (2, 1)):
                            layers.MIN_BLOCK_CELLS = cells
                            split.clear()
                            whole = text.features(ids).data
                            assert split == [blocks], split
                            assert (name == "loaded") == (text.projected_table() is not None)
                            chunks = np.concatenate([text.features(ids[i:i + 64]).data for i in range(0, b, 64)])
                            alone = np.concatenate([text.features(ids[i:i + 1]).data for i in range(b)])
                            differ[f"{attention} {name} {blocks}"] = [
                                int((chunks != whole).any(axis=1).sum()), int((alone != whole).any(axis=1).sum())]
            print(json.dumps({"one_row_steps": int((live_rows == 1).sum()), "differ": differ}))
        """)
        done = json.loads(run_snippet(snippet, blas_threads=1))
        assert done["one_row_steps"] == 2
        assert done["differ"] == {f"{attention} {name} {blocks}": [0, 0] for attention in (False, True)
                                  for name in ("writable", "loaded") for blocks in (1, 2)}


class TestWorkspace:
    """An attention text path scores through buffers it owns; nothing it
    returns lives there, and a taped forward does not use them."""

    def test_batches_of_any_shape_score_as_on_a_fresh_load_bitwise(self, tmp_path):
        path, loaded = saved_and_loaded(tmp_path, attention_model(41), 12, 38, config=ATTENTION)
        rng = np.random.default_rng(42)
        batches = [text_batch(rng, 32, 14), text_batch(rng, 3, 5), text_batch(rng, 32, 14)]
        got = [loaded.forward(ids, None).data for ids in batches]  # big, small, big
        assert loaded.text_path._workspace
        for ids, probs in zip(batches, got):
            alone = load_checkpoint(path)[0].forward(ids, None).data
            assert probs.tobytes() == alone.tobytes()

    def test_no_returned_array_is_workspace_memory(self, tmp_path):
        _, loaded = saved_and_loaded(tmp_path, attention_model(43), 12, 38, config=ATTENTION)
        tp = loaded.text_path
        rng = np.random.default_rng(44)
        previous: list[np.ndarray] = []
        for ids in (text_batch(rng, 16, 12), text_batch(rng, 16, 12)):
            mask = ids != 0
            returned = [tp.features(ids).data, loaded.forward(ids, None).data]
            states, last = tp.gru.forward(tp.embedding.forward(ids), mask=mask)
            returned += [states.data, last.data, *(t.data for t in tp.attention.forward(states, mask))]
            work = list(tp._workspace.values()) + list(tp.attention._blocks.values())
            assert len(work) == 2
            for a in returned:
                assert not any(np.shares_memory(a, b) for b in work + previous)
            previous += returned

    def test_float32_and_float64_paths_keep_their_own_buffers(self):
        rng = np.random.default_rng(45)
        batches = [text_batch(rng, 16, 12), text_batch(rng, 4, 9), text_batch(rng, 16, 12)]
        models = {dt: attention_model(46, dtype=dt) for dt in (np.float32, np.float64)}
        for ids in batches:  # the two models take turns
            for dt, m in models.items():
                probs = m.forward(ids, None).data
                assert probs.dtype == dt
                assert probs.tobytes() == attention_model(46, dtype=dt).forward(ids, None).data.tobytes()
        # one buffer per dtype, holding the largest batch's packed states;
        # attention keeps one score block per dtype and thread of its own,
        # and these batches score on one thread
        n = max(int(np.count_nonzero(ids)) for ids in batches)
        for dt, m in models.items():
            (key, buf), = m.text_path._workspace.items()
            assert key == np.dtype(dt) and buf.dtype == dt and buf.size == n * ATTENTION.units
            (key, block), = m.text_path.attention._blocks.items()
            assert key == (np.dtype(dt), 0) and block.dtype == dt and block.shape == (SCORE_BLOCK, ATTENTION.units)
        work32, work64 = (list(m.text_path._workspace.values()) for m in models.values())
        assert not any(np.shares_memory(a, b) for a in work32 for b in work64)

        # one path whose weights change dtype keeps a workspace per dtype
        m = models[np.float32]
        for p in m.parameters():
            p.data = p.data.astype(np.float64)
        probs = m.forward(batches[0], None).data
        assert probs.tobytes() == models[np.float64].forward(batches[0], None).data.tobytes()
        assert set(m.text_path._workspace) == {np.dtype(np.float32), np.dtype(np.float64)}

    def test_taped_forward_leaves_the_workspace_alone(self):
        rng = np.random.default_rng(47)
        ids, labels = text_batch(rng, 12, 12), rng.integers(0, 2, size=12)

        def train_step(m):
            m.zero_grads()
            with Tape() as tape:
                loss = cross_entropy(m.forward(ids, None, train=True, rng=np.random.default_rng(48)), labels)
            tape.backward(loss)
            return [p.grad.tobytes() for p in m.parameters()]

        fresh = attention_model(49)
        expected = train_step(fresh)
        assert fresh.text_path._workspace == {} and fresh.text_path.attention._blocks == {}

        m = attention_model(49)
        m.forward(text_batch(rng, 20, 14), None)  # a larger batch fills the workspace first
        before = {key: (buf, buf.copy()) for key, buf in m.text_path._workspace.items()}
        assert train_step(m) == expected
        assert m.text_path._workspace.keys() == before.keys()
        for key, (buf, copy) in before.items():
            assert m.text_path._workspace[key] is buf and buf.tobytes() == copy.tobytes()

    def test_path_without_attention_has_no_workspace(self):
        m = small_combined(seed=50)
        assert m.text_path.attention is None
        m.forward(np.random.default_rng(51).integers(0, 20, size=(8, 6)), np.zeros((8, 4), dtype=np.float32))
        assert m.text_path._workspace == {}


MUTATION_TOKENS = (b'"', b",", b":", b"{", b"}", b"[", b"]", b"null", b"true", b"-1", b"0", b"7",
                   b"2.5", b'"x"', b"\xff")
MUTATION_VALUES = (None, True, -1, 0, 1, 7, 2.5, "x", [], [7], {}, {"x": 1})
# the most bytes a mutant may claim, so that a loader without checks
# cannot exhaust memory
MAX_CLAIM = 64 * 2**20


def replace_header_value(raw: bytes, rng: np.random.Generator) -> bytes:
    """``raw`` with one value of its (valid) header, at any depth, replaced by
    another JSON value, and the header length field updated to match."""
    (hlen,) = struct.unpack("<I", raw[7:11])
    header = json.loads(raw[11:11 + hlen])
    holder = header
    while True:
        keys = list(holder) if isinstance(holder, dict) else range(len(holder))
        key = keys[int(rng.integers(len(keys)))]
        if not (isinstance(holder[key], (dict, list)) and holder[key]) or rng.random() < 0.5:
            break
        holder = holder[key]
    holder[key] = MUTATION_VALUES[int(rng.integers(len(MUTATION_VALUES)))]
    blob = json.dumps(header).encode("utf-8")
    return raw[:7] + struct.pack("<I", len(blob)) + blob + raw[11 + hlen:]


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One to three seeded edits of ``raw``: a bit flip, a deletion, an
    insertion of random bytes, a truncation, a JSON token injected into the
    header, or (as the first edit) one header value replaced."""
    edits = int(rng.integers(1, 4))
    if rng.random() < 0.3:
        raw = replace_header_value(raw, rng)
        edits -= 1
    out = bytearray(raw)
    for _ in range(edits):
        at = int(rng.integers(len(out) + 1))
        kind = int(rng.integers(5))
        if kind == 0 and at < len(out):
            out[at] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            del out[at:at + int(rng.integers(1, 9))]
        elif kind == 2:
            out[at:at] = rng.bytes(int(rng.integers(1, 9)))
        elif kind == 3:
            del out[at:]
        else:
            at = int(rng.integers(11, max(12, min(len(out), 11 + struct.unpack("<I", raw[7:11])[0]))))
            out[at:at] = MUTATION_TOKENS[int(rng.integers(len(MUTATION_TOKENS)))]
    return bytes(out)


def claimed_bytes(raw: bytes) -> float:
    """A generous bound, worked out apart from the loader, on what ``raw``'s
    header length, header widths and record shapes could make a loader
    allocate."""
    if len(raw) < 11:
        return 0
    (hlen,) = struct.unpack("<I", raw[7:11])
    claims = [hlen]
    try:
        header = json.loads(raw[11:11 + hlen])
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        header = None
    numbers, todo = [], [header]
    while todo:
        item = todo.pop()
        if isinstance(item, dict):
            todo += item.values()
        elif isinstance(item, list):
            numbers.append(len(item) + 2)
            todo += item
        elif isinstance(item, (int, float)):
            numbers.append(abs(item))
    width = max(numbers, default=0)
    claims.append(4 * (len(numbers) + 16) * width ** 2 if math.isfinite(width) else math.inf)
    at = 11 + hlen + 4  # the records: name, tag, trainable flag and ndim, shape, values
    while at + 2 <= len(raw):
        at += 2 + struct.unpack_from("<H", raw, at)[0]
        if at + 2 > len(raw):
            break
        at += 2 + struct.unpack_from("<H", raw, at)[0] + 2
        if at > len(raw) or at + 4 * raw[at - 1] > len(raw):
            break
        shape = struct.unpack_from(f"<{raw[at - 1]}I", raw, at)
        at += 4 * len(shape) + 4 * math.prod(shape)
        claims.append(4 * math.prod(shape))
    return max(claims)


class TestCheckpointMutation:
    # header values of the wrong type or structure for fields encode_for_checkpoint reads
    WRONG_TYPED = {
        "mask_int": ("mask", 7),
        "mask_of_ints": ("mask", [7]),
        "pipeline_int": ("pipeline", 7),
        "pipeline_list": ("pipeline", [{"x": 1}]),
        "pipeline_without_columns": ("pipeline", {"x": 1}),
        "pipeline_columns_int": ("pipeline", {"columns": 7}),
        "pipeline_encoder_int": ("pipeline", {"columns": {}, "encoders": {"lang": 3}}),
        "vocab_tokens_of_ints": ("vocab_tokens", [7, 8]),
        "schema_int": ("schema", 7),
        "schema_of_strings": ("schema", ["ab"]),
        "schema_of_triples": ("schema", [["a", "b", "c"]]),
        "schema_of_int_pairs": ("schema", [[1, 2]]),
    }

    @pytest.mark.parametrize("field, value", WRONG_TYPED.values(), ids=WRONG_TYPED.keys())
    def test_wrong_typed_header_field_refused(self, tmp_path, field, value):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(v1_bytes({**V1_HEADER, field: value}, v1_text_records()))
        with pytest.raises(FormatError, match=f"checkpoint header's {field} is not"):
            load_checkpoint(path)

    def sources(self, tmp_path) -> list[bytes]:
        """A v1 text checkpoint and a combined one with attention."""
        config = ModelConfig(embed_dim=6, units=5, hidden=(8, 7), fusion_dim=5, attention_threshold=4)
        rng = np.random.default_rng(12)
        text = build_text_path(20, 6, ["a", "b"], config=config, rng=rng)
        combined = build_combined(text, build_metadata_path(4, ["a", "b"], config=config, rng=rng), rng=rng)
        path = tmp_path / "combined.ckpt"
        save_checkpoint(path, combined, CheckpointMeta(
            classes=["a", "b"], kind="combined", config=config, seq_len=6,
            vocab_tokens=[f"t{i}" for i in range(18)], feature_dim=4))
        return [v1_bytes(V1_HEADER, v1_text_records()), path.read_bytes()]

    def test_every_mutant_loads_or_is_refused_as_input_error_in_linear_memory(self, tmp_path):
        from abusenet.cli import INPUT_ERRORS

        rng = np.random.default_rng(2024)
        sources = self.sources(tmp_path)
        path = tmp_path / "mutant.ckpt"
        outcomes, faults, drawn = {"loaded": 0, "refused": 0}, [], 0
        tracemalloc.start()
        try:
            while sum(outcomes.values()) + len(faults) < 300:
                raw = sources[drawn % len(sources)]
                drawn += 1
                mutant = mutate(raw, rng)
                if claimed_bytes(mutant) > MAX_CLAIM:
                    continue
                path.write_bytes(mutant)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    load_checkpoint(path)
                    outcomes["loaded"] += 1
                except INPUT_ERRORS:
                    outcomes["refused"] += 1
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if peak > 2**16 + 16 * len(mutant):
                        faults.append(f"mutant {drawn} ({len(mutant)} bytes) refused at a {peak}-byte peak")
                except Exception as e:  # noqa: BLE001 - every other class is the fault looked for
                    faults.append(f"mutant {drawn}: {type(e).__name__}: {e}")
        finally:
            tracemalloc.stop()
        assert not faults, faults[:10]
        assert drawn - sum(outcomes.values()) < 60  # few mutants claim too much to be tried
        assert outcomes["refused"] > 100 and outcomes["loaded"] > 0, outcomes
