import json
import struct

import numpy as np
import pytest

from abusenet.layers import DenseLayer, EmbeddingLayer, GRULayer
from abusenet.model import (
    DEFAULT_HIDDEN,
    CheckpointMeta,
    ModelConfig,
    build_combined,
    build_metadata_path,
    build_text_path,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from abusenet import tensor as T
from abusenet.tensor import ContractError, Tape, Tensor
from abusenet.training import EncodedDataset, TrainingConfig, cross_entropy, fit

SMALL = ModelConfig(embed_dim=6, units=5, hidden=(8, 7), fusion_dim=5, recurrent_dropout=0.0)


def small_combined(classes=("a", "b"), feature_dim=4, vocab_size=20, seq_len=6, seed=0):
    rng = np.random.default_rng(seed)
    text = build_text_path(vocab_size, seq_len, list(classes), config=SMALL, rng=rng)
    meta = build_metadata_path(feature_dim, list(classes), config=SMALL, rng=rng)
    return build_combined(text, meta, list(classes), rng=rng)


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
        assert combined.param("head.W").data.shape == (256, 2)

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
        m.param("meta.fusion.W").data[:] = 0.0
        m.param("meta.fusion.b").data[:] = 0.0
        ids = np.random.default_rng(3).integers(0, 20, size=(4, 6))
        meta = np.random.default_rng(4).normal(size=(4, 4)).astype(np.float32)
        full = m.forward(ids, meta)

        feats = m.text_path.features(ids)
        w = m.param("head.W").data
        b = m.param("head.b").data
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
        # plus the GRU's last-state readout, concat_last and the loss
        assert len(tape) == len(layers) + 3

    def test_forward_needs_both_inputs(self):
        m = small_combined()
        with pytest.raises(ContractError):
            m.forward(np.zeros((2, 6), dtype=np.int32), None)


class TestParameterCount:
    def test_dense_2_3(self):
        layer = DenseLayer(2, 3)
        assert sum(p.data.size for p in layer.parameters()) == 9

    def test_gru_closed_form(self):
        gru = GRULayer(200, 128)
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
        assert not m.param("meta.bn.running_mean").trainable
        assert not m.param("meta.bn.running_var").trainable

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
        assert meta.config.hidden == DEFAULT_HIDDEN
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

    @pytest.mark.parametrize("change, what", [
        ({"kind": "text"}, "kind"),
        ({"classes": ["a", "c"]}, "classes"),
        ({"feature_dim": 5}, "feature_dim"),
        ({"feature_dim": None}, "feature_dim"),
        ({"vocab_tokens": [f"t{i}" for i in range(17)]}, "vocabulary size"),
        ({"seq_len": 200}, "attention"),
        ({"seq_len": None}, "seq_len"),
    ])
    def test_save_rejects_meta_that_disagrees_with_model(self, tmp_path, change, what):
        m = small_combined()
        described = dict(classes=m.classes, kind="combined", config=SMALL, seq_len=6,
                         vocab_tokens=[f"t{i}" for i in range(18)], feature_dim=4)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContractError, match=what):
            save_checkpoint(path, m, CheckpointMeta(**{**described, **change}))
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
        clone, _ = load_checkpoint(path)
        for p in m.parameters():
            np.testing.assert_array_equal(clone.param(p.name).data, p.data)

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
        before = clone.param("meta.bn.running_mean").data.copy()
        # one step: 18 training rows in one batch of 32
        fit(clone, data, TrainingConfig(strategy="naive", batch_size=32, max_epochs=1, patience=0))
        np.testing.assert_array_equal(clone.param("meta.bn.running_mean").data, before)

    def test_oversized_record_shape_rejected_before_allocating(self, tmp_path):
        raw = v1_bytes(V1_HEADER, [("text.embedding.table", "text", 1, np.zeros((1, 1)))])
        # the one record's shape is 1 x 1; claim 2**32-1 x 2**32-1 (64 EiB) instead
        dims = struct.pack("<2I", 1, 1)
        at = raw.rindex(dims)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(raw[:at] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + raw[at + 8:])
        with pytest.raises(ValueError, match="checkpoint truncated"):
            load_checkpoint(path)

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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)
