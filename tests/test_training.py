import math

import numpy as np
import pytest

from abusenet import tensor as T
from abusenet.layers import DenseLayer
from abusenet.model import ModelConfig, TextPath, build_combined, build_metadata_path, build_text_path
from abusenet.tensor import ContractError, Parameter, Tensor, grad_check
from abusenet.training import (
    Adam,
    DegenerateLabelsError,
    EarlyStopping,
    EncodedDataset,
    TrainingConfig,
    cross_entropy,
    evaluate_loss,
    fit_interleaved,
    fit_naive,
    fit_transfer,
    predict_probs,
    stratified_split,
)

SMALL = ModelConfig(embed_dim=5, units=6, hidden=(8,), fusion_dim=6, recurrent_dropout=0.25)
VOCAB, SEQ = 12, 5


def toy_dataset(n=80, seed=0):
    """Separable two-class task: token 2 vs token 3, metadata sign flips."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    text = rng.integers(4, VOCAB, size=(n, SEQ)).astype(np.int32)
    text[:, 0] = 0  # keep one pad position
    text[np.arange(n), rng.integers(1, SEQ, size=n)] = np.where(labels == 0, 2, 3)
    meta = rng.normal(size=(n, 3)).astype(np.float32)
    meta[:, 0] += np.where(labels == 0, -1.5, 1.5)
    return EncodedDataset(labels=labels, classes=["neg", "pos"], text=text, meta=meta)


def quick_config(**kw):
    base = dict(strategy="naive", batch_size=16, max_epochs=12, patience=4,
                validation_fraction=0.15, seed=0)
    base.update(kw)
    return TrainingConfig(**base)


def build_pair(seed=1):
    rng = np.random.default_rng(seed)
    text = build_text_path(VOCAB, SEQ, ["neg", "pos"], config=SMALL, rng=rng)
    meta = build_metadata_path(3, ["neg", "pos"], config=SMALL, rng=rng)
    return text, meta


def build_fused(seed=1):
    text, meta = build_pair(seed)
    return build_combined(text, meta, rng=np.random.default_rng(seed + 100))


class TestCrossEntropy:
    def test_confident_correct_is_zero(self):
        pred = Tensor(np.array([[1.0, 0.0]]))
        assert float(cross_entropy(pred, np.array([0])).data) == 0.0

    def test_uniform_three_classes(self):
        pred = Tensor(np.full((2, 3), 1 / 3))
        assert float(cross_entropy(pred, np.array([0, 2])).data) == pytest.approx(math.log(3), rel=1e-6)

    def test_mixed_batch_matches_hand_mean(self):
        rows = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        labels = np.array([0, 1, 1])
        expected = -(math.log(0.7) + math.log(0.8) + math.log(0.5)) / 3
        got = float(cross_entropy(Tensor(rows, dtype=np.float64), labels).data)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.full((1, 2), 0.5)), np.array([2]))

    def test_softmax_head_grad_check(self):
        rng = np.random.default_rng(2)
        head = DenseLayer(4, 3, activation="softmax", rng=rng, name="head", dtype=np.float64)
        head.W.data[:] = rng.normal(size=(4, 3))
        x = Tensor(rng.normal(size=(6, 4)).astype(np.float64))
        labels = np.array([0, 1, 2, 1, 0, 2])

        def forward():
            return cross_entropy(head.forward(x), labels)

        assert grad_check(forward, head.parameters()) < 1e-6

    def test_evaluate_loss_is_the_loss_op_on_inference_probs(self):
        model, data = build_fused(seed=3), toy_dataset(n=40, seed=4)
        probs = predict_probs(model, data, batch_size=16)
        rows = np.arange(len(data))
        expected = -np.log(np.maximum(probs[rows, data.labels], 1e-12)).mean()
        got = evaluate_loss(model, data, batch_size=16)
        assert got == float(np.float32(expected))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = Parameter("p", np.array([1.0, -2.0], dtype=np.float32))
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        Adam().step([p])
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_matches_scalar_reference(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        g = 0.37
        # scalar Adam, one step from zero state
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        mhat = m / (1 - b1)
        vhat = v / (1 - b2)
        expected_delta = lr * mhat / (math.sqrt(vhat) + eps)

        p = Parameter("p", np.array([0.5], dtype=np.float64))
        p.grad = np.array([g], dtype=np.float64)
        Adam(lr, b1, b2, eps).step([p])
        assert float(0.5 - p.data[0]) == pytest.approx(expected_delta, rel=1e-9)
        assert expected_delta == pytest.approx(lr, rel=1e-4)  # near lr per coordinate

    def test_frozen_parameter_bit_identical(self):
        p = Parameter("p", np.array([1.0, 2.0], dtype=np.float32), trainable=False)
        p.grad = np.ones(2, dtype=np.float32)
        before = p.data.copy()
        Adam().step([p])
        np.testing.assert_array_equal(p.data, before)

    def test_matches_textbook_bitwise_over_steps(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(5)
        # starts at zero so that the last bits of each update stay visible
        live = Parameter("live", np.zeros((30, 4), dtype=np.float32))
        frozen = Parameter("frozen", rng.normal(size=(3,)).astype(np.float32), trainable=False)
        no_grad = Parameter("no_grad", rng.normal(size=(2, 2)).astype(np.float32))
        before = {p.name: p.data.copy() for p in (frozen, no_grad)}
        value = live.data.copy()
        m = np.zeros_like(value)
        v = np.zeros_like(value)
        opt = Adam(lr, b1, b2, eps)
        for t in range(1, 5):
            g = (rng.normal(size=value.shape) * 10.0 ** rng.uniform(-6, 2)).astype(np.float32)
            g[t] = 0.0  # dense: a zero gradient row still decays its moments
            live.grad = g.copy()
            frozen.grad = np.ones(3, dtype=np.float32)
            no_grad.grad = None
            opt.step([live, frozen, no_grad])
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            value = value - (lr * (m / (1.0 - b1 ** t))) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            assert value.dtype == np.float32
            assert live.data.tobytes() == value.tobytes()
        for p in (frozen, no_grad):
            assert p.data.tobytes() == before[p.name].tobytes()

    def test_tag_filter(self):
        a = Parameter("a", np.ones(2, dtype=np.float32), tag="text")
        b = Parameter("b", np.ones(2, dtype=np.float32), tag="head")
        a.grad = np.ones(2, dtype=np.float32)
        b.grad = np.ones(2, dtype=np.float32)
        Adam().step([a, b], allowed_tags={"head"})
        np.testing.assert_array_equal(a.data, np.ones(2))
        assert (b.data != np.ones(2)).all()


class TestEarlyStopping:
    def test_always_improving_never_stops(self):
        stopper = EarlyStopping(patience=10)
        for epoch in range(100):
            assert not stopper.update(epoch, 1.0 / (epoch + 1))
        assert stopper.best_epoch == 99

    def test_best_at_three_stops_at_thirteen(self):
        # 1-indexed epochs: drops at 1..3, flat after; halt at epoch 13
        losses = [0.9, 0.8, 0.7] + [0.7] * 20
        stopper = EarlyStopping(patience=10)
        stopped_at = None
        for epoch, loss in enumerate(losses):
            if stopper.update(epoch, loss):
                stopped_at = epoch + 1  # 1-indexed
                break
        assert stopped_at == 13
        assert stopper.best_epoch == 2  # epoch 3, 1-indexed
        assert stopper.best == pytest.approx(0.7)

    def test_plateau_counts_as_no_improvement(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(0, 1.0)
        assert not stopper.update(1, 1.0)
        assert stopper.update(2, 1.0)


class TestFit:
    def test_restored_model_achieves_min_val_loss(self):
        data = toy_dataset()
        model = build_fused()
        config = quick_config(max_epochs=8, patience=3)
        history = fit_naive(model, data, config)
        val = data.subset(history.val_indices)
        recomputed = evaluate_loss(model, val, config.batch_size)
        assert recomputed == min(history.val_loss)

    def test_single_class_rejected(self):
        data = toy_dataset()
        one = data.subset(np.flatnonzero(data.labels == 1))
        with pytest.raises(DegenerateLabelsError):
            fit_naive(build_fused(), one, quick_config())

    def test_deterministic_under_seed(self):
        data = toy_dataset()
        runs = []
        for _ in range(2):
            model = build_fused(seed=3)
            fit_naive(model, data, quick_config(max_epochs=4, patience=3))
            runs.append(model.snapshot())
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])

    def test_loss_decreases_every_strategy(self):
        data = toy_dataset(n=100, seed=4)
        config = quick_config(max_epochs=10, patience=9)

        naive = build_fused(seed=5)
        history = fit_naive(naive, data, config)
        assert history.train_loss[-1] < history.train_loss[0]

        inter = build_fused(seed=6)
        history = fit_interleaved(inter, data, config)
        assert history.train_loss[-1] < history.train_loss[0]

        for ft in (False, True):
            text, meta = build_pair(seed=7)
            _, history = fit_transfer(text, meta, data, config, fine_tune=ft)
            fusion = history.stages["fusion"]
            assert fusion.train_loss[-1] < history.stages["text_pretrain"].train_loss[0]

    def test_stratified_split_proportions(self):
        labels = np.array([0] * 40 + [1] * 20)
        train, held = stratified_split(labels, 0.1, np.random.default_rng(0))
        assert np.intersect1d(train, held).size == 0
        assert train.size + held.size == 60
        assert (labels[held] == 0).sum() == 4
        assert (labels[held] == 1).sum() == 2


class TestTransferInvariants:
    def test_frozen_paths_bit_identical_across_fusion(self):
        data = toy_dataset(n=90, seed=8)
        text, meta = build_pair(seed=9)
        config = quick_config(max_epochs=5, patience=4)
        at_fusion_start = {}

        def capture(event):
            if not at_fusion_start and event["phase"] == "pre":
                at_fusion_start.update({p.name: p.data.copy() for p in event["model"].parameters()
                                        if p.tag in ("text", "metadata")})

        combined, history = fit_transfer(text, meta, data, config, fine_tune=False,
                                         fusion_callback=capture)
        assert at_fusion_start
        for p in combined.parameters():
            if p.tag in ("text", "metadata"):
                np.testing.assert_array_equal(p.data, at_fusion_start[p.name])
        assert "fusion" in history.stages and "text_pretrain" in history.stages

    def test_fine_tuning_moves_path_parameters(self):
        data = toy_dataset(n=90, seed=10)
        text, meta = build_pair(seed=11)
        config = quick_config(max_epochs=5, patience=4)

        pre = None

        def capture(event):
            nonlocal pre
            if pre is None and event["phase"] == "pre":
                pre = {p.name: p.data.copy() for p in event["model"].parameters()}

        combined, _ = fit_transfer(text, meta, data, config, fine_tune=True)
        assert all(p.trainable for p in combined.parameters()
                   if "running_" not in p.name)
        # at least one path parameter moved during fusion: compare against a
        # fresh pretrain of the same seeds
        text2, meta2 = build_pair(seed=11)
        fit_transfer(text2, meta2, data, config, fine_tune=False)
        changed = False
        frozen_ref = {p.name: p.data for p in text2.text_path.parameters()}
        frozen_ref.update({p.name: p.data for p in meta2.metadata_path.parameters()})
        for p in combined.parameters():
            if p.tag in ("text", "metadata") and not np.array_equal(p.data, frozen_ref[p.name]):
                changed = True
        assert changed


class TestInterleavedInvariants:
    def test_parity_frozen_paths_and_synchrony(self):
        data = toy_dataset(n=64, seed=12)
        model = build_fused(seed=13)
        config = quick_config(max_epochs=3, patience=2, batch_size=16)

        trace = []
        pre_state = {}

        def callback(event):
            tagged = {p.name: p.data.copy() for p in event["model"].parameters()
                      if p.tag in ("text", "metadata")}
            if event["phase"] == "pre":
                pre_state["params"] = tagged
                pre_state["view"] = event["view"]
            else:
                frozen_tag = "text" if event["view"] == "A" else "metadata"
                for p in event["model"].parameters():
                    if p.tag == frozen_tag:
                        np.testing.assert_array_equal(p.data, pre_state["params"][p.name])
                trace.append((event["epoch"], event["batch"], event["view"]))

        fit_interleaved(model, data, config, step_callback=callback)
        assert len(trace) >= 9
        for epoch, batch, view in trace:
            expected = "A" if (epoch + batch) % 2 == 0 else "B"
            assert view == expected

    def test_epoch_parity_flips_first_batch_view(self):
        data = toy_dataset(n=40, seed=14)
        model = build_fused(seed=15)
        config = quick_config(max_epochs=2, patience=1, batch_size=20)
        views = []

        def callback(event):
            if event["phase"] == "pre" and event["batch"] == 0:
                views.append(event["view"])

        fit_interleaved(model, data, config, step_callback=callback)
        assert views[0] == "A" and views[1] == "B"

    def test_head_updates_every_step(self):
        data = toy_dataset(n=40, seed=16)
        model = build_fused(seed=17)
        config = quick_config(max_epochs=1, patience=0, batch_size=20)
        moved = []
        state = {}

        def callback(event):
            head = event["model"].param("head.W").data
            if event["phase"] == "pre":
                state["head"] = head.copy()
            else:
                moved.append(not np.array_equal(head, state["head"]))

        fit_interleaved(model, data, config, step_callback=callback)
        assert moved and all(moved)

    def test_requires_combined_model(self):
        text, _ = build_pair()
        with pytest.raises(ContractError):
            fit_interleaved(text, toy_dataset(), quick_config())

    def test_view_a_step_records_no_text_path_ops(self, monkeypatch):
        data = toy_dataset(n=64, seed=20)
        model = build_fused(seed=21)
        config = quick_config(max_epochs=2, patience=1, batch_size=16)
        views, ops = [], []
        features = TextPath.features

        def counted(self, *args, **kwargs):
            tape = T.active_tape()
            if tape is None:  # validation sweep
                return features(self, *args, **kwargs)
            before = len(tape)
            out = features(self, *args, **kwargs)
            ops.append(len(tape) - before)
            return out

        def callback(event):
            if event["phase"] == "pre":
                views.append(event["view"])

        monkeypatch.setattr(TextPath, "features", counted)
        fit_interleaved(model, data, config, step_callback=callback)
        assert len(ops) == len(views) and set(views) == {"A", "B"}
        for view, n in zip(views, ops):
            assert (n == 0) if view == "A" else (n > 0), (view, n)

    def test_fit_restores_requires_grad_flags(self):
        data = toy_dataset(n=64, seed=22)
        model = build_fused(seed=23)
        config = quick_config(max_epochs=2, patience=1, batch_size=16)

        def flags():
            return {p.name: p.requires_grad for p in model.parameters()}

        before = flags()
        assert not all(before.values())  # batch-norm running statistics stay off
        fit_interleaved(model, data, config)
        assert flags() == before

        during = {}

        def fail_on_second_step(event):
            if event["phase"] == "pre" and event["batch"] == 1:
                during.update(flags())
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            fit_interleaved(model, data, config, step_callback=fail_on_second_step)
        assert during == before  # the first (view A) step's flags were restored after it
        assert flags() == before

    def test_step_callback_can_freeze_a_path_after_a_view_a_step(self):
        data = toy_dataset(n=64, seed=22)
        model = build_fused(seed=23)
        config = quick_config(max_epochs=2, patience=1, batch_size=16)
        text = [p for p in model.parameters() if p.tag == "text"]
        frozen_at = {}

        def freeze_text_at_second_step(event):
            if event["phase"] == "pre" and (event["epoch"], event["batch"]) == (0, 1):
                model.set_path_trainable("text", False)
                frozen_at.update({p.name: p.data.copy() for p in text})

        fit_interleaved(model, data, config, step_callback=freeze_text_at_second_step)
        assert not any(p.trainable for p in text)
        # fit restores the best epoch's weights, taken after the freeze
        for p in text:
            np.testing.assert_array_equal(p.data, frozen_at[p.name])


class TestPredict:
    def test_probability_rows(self):
        data = toy_dataset(n=30, seed=18)
        model = build_fused(seed=19)
        probs = predict_probs(model, data, batch_size=7)
        assert probs.shape == (30, 2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(30), atol=1e-5)

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainingConfig(strategy="bogus")
        with pytest.raises(ContractError):
            TrainingConfig(patience=100, max_epochs=100)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ContractError, match="learning_rate"):
            TrainingConfig(learning_rate=lr)
