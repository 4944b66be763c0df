import math

import numpy as np
import pytest

from abusenet import tensor as T
from abusenet.layers import (
    AttentionLayer,
    BatchNormLayer,
    DenseLayer,
    EmbeddingLayer,
    GRULayer,
)
from abusenet.tensor import ContractError, Parameter, Tensor, grad_check


def make_gru(d, u, dtype=np.float64, p=0.0, seed=1):
    return GRULayer(d, u, recurrent_dropout=p, rng=np.random.default_rng(seed), dtype=dtype)


class TestEmbedding:
    def test_pad_row_zero_at_init(self):
        emb = EmbeddingLayer.random(10, 4, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(emb.table.data[0], np.zeros(4))

    def test_forward_shape_and_lookup(self):
        table = np.arange(20.0).reshape(5, 4)
        emb = EmbeddingLayer(table)
        out = emb.forward(np.array([[1, 2], [3, 0]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out.data[0, 0], table[1])
        np.testing.assert_array_equal(out.data[1, 1], np.zeros(4))  # pad row zeroed

    def test_grad_check(self):
        rng = np.random.default_rng(3)
        emb = EmbeddingLayer(rng.normal(size=(6, 3)).astype(np.float64))
        ids = np.array([[1, 2, 2], [5, 0, 3]])
        coef = rng.normal(size=(2, 3, 3))

        def forward():
            return T.sum_all(T.mul(emb.forward(ids), Tensor(coef, dtype=np.float64)))

        assert grad_check(forward, emb.parameters()) < 1e-6


class TestGRU:
    def test_zero_weights_fixed_point(self):
        gru = make_gru(3, 4)
        for p in gru.parameters():
            p.data[:] = 0.0
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 3)).astype(np.float64))
        states, last = gru.forward(x)
        np.testing.assert_array_equal(states.data, np.zeros((2, 5, 4)))
        np.testing.assert_array_equal(last.data, np.zeros((2, 4)))

    def test_single_step_matches_hand_recurrence(self):
        gru = make_gru(1, 1)
        wz, uz, bz = 0.5, -0.3, 0.1
        wr, ur, br = 0.4, 0.2, -0.2
        wh, uh, bh = 0.9, 0.6, 0.05
        gru.W_z.data[:] = wz
        gru.U_z.data[:] = uz
        gru.b_z.data[:] = bz
        gru.W_r.data[:] = wr
        gru.U_r.data[:] = ur
        gru.b_r.data[:] = br
        gru.W_h.data[:] = wh
        gru.U_h.data[:] = uh
        gru.b_h.data[:] = bh
        x_val, h0_val = 0.7, 0.3

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        z = sig(x_val * wz + h0_val * uz + bz)
        r = sig(x_val * wr + h0_val * ur + br)
        c = math.tanh(x_val * wh + (r * h0_val) * uh + bh)
        expected = (1.0 - z) * h0_val + z * c

        x = Tensor(np.array([[[x_val]]], dtype=np.float64))
        h0 = Tensor(np.array([[h0_val]], dtype=np.float64))
        _, last = gru.forward(x, h0=h0)
        assert abs(float(last.data[0, 0]) - expected) < 1e-12

    def test_states_match_plain_recurrence(self):
        # reference: the gate equations of the class docstring, step by step
        gru = make_gru(3, 4, seed=10, p=0.5)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5, 3))
        h0 = rng.normal(size=(3, 4))
        mask = rng.random((3, 5)) < 0.6
        states, last = gru.forward(Tensor(x), mask=mask, h0=Tensor(h0), train=True,
                                   rng=np.random.default_rng(12))
        keep = 0.5
        drop = (np.random.default_rng(12).random((3, 4)) < keep) / keep

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        w = {name: p.data for name, p in zip(("Wz", "Wr", "Wh", "Uz", "Ur", "Uh", "bz", "br", "bh"),
                                             gru.parameters())}
        h = h0
        for t in range(5):
            hm = h * drop
            z = sig(x[:, t] @ w["Wz"] + hm @ w["Uz"] + w["bz"])
            r = sig(x[:, t] @ w["Wr"] + hm @ w["Ur"] + w["br"])
            c = np.tanh(x[:, t] @ w["Wh"] + (r * hm) @ w["Uh"] + w["bh"])
            h = np.where(mask[:, t, None], (1.0 - z) * h + z * c, h)
            np.testing.assert_allclose(states.data[:, t], h, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(last.data, states.data[:, -1])

    def test_fully_padded_sample_passes_h0_through(self):
        gru = make_gru(3, 4)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float64))
        h0 = Tensor(rng.normal(size=(2, 4)).astype(np.float64))
        mask = np.zeros((2, 5), dtype=bool)
        mask[1] = True  # second sample is real, first fully padded
        _, last = gru.forward(x, mask=mask, h0=h0)
        np.testing.assert_array_equal(last.data[0], h0.data[0])

    def test_pad_prefix_invariance_bit_exact(self):
        gru = make_gru(3, 4, dtype=np.float32, p=0.5)
        rng = np.random.default_rng(2)
        body = rng.normal(size=(2, 6, 3)).astype(np.float32)
        mask = np.ones((2, 6), dtype=bool)
        _, last_plain = gru.forward(Tensor(body), mask=mask)

        k = 3
        padded = np.concatenate([np.zeros((2, k, 3), dtype=np.float32), body], axis=1)
        pmask = np.concatenate([np.zeros((2, k), dtype=bool), mask], axis=1)
        _, last_padded = gru.forward(Tensor(padded), mask=pmask)
        np.testing.assert_array_equal(last_plain.data, last_padded.data)

    def test_inference_dropout_is_noop(self):
        gru = make_gru(3, 4, p=0.5)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 3)).astype(np.float64))
        _, a = gru.forward(x, train=False)
        _, b = gru.forward(x, train=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_dropout_needs_rng(self):
        gru = make_gru(2, 2, p=0.5)
        x = Tensor(np.zeros((1, 2, 2), dtype=np.float64))
        with pytest.raises(ContractError):
            gru.forward(x, train=True)

    def test_empty_sequence_rejected(self):
        gru = make_gru(2, 2)
        with pytest.raises(ContractError):
            gru.forward(Tensor(np.zeros((1, 0, 2), dtype=np.float64)))

    def test_grad_check(self):
        gru = make_gru(3, 4, seed=4)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 3)).astype(np.float64))
        coef = Tensor(rng.normal(size=(2, 4)).astype(np.float64))

        def forward():
            _, last = gru.forward(x)
            return T.sum_all(T.mul(last, coef))

        assert grad_check(forward, gru.parameters()) < 1e-4

    def test_grad_check_with_recurrent_dropout(self):
        gru = make_gru(3, 4, seed=6, p=0.5)
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 3)).astype(np.float64))
        coef = Tensor(rng.normal(size=(2, 4)).astype(np.float64))

        def forward():
            # fresh rng each call keeps the dropout mask identical
            _, last = gru.forward(x, train=True, rng=np.random.default_rng(99))
            return T.sum_all(T.mul(last, coef))

        assert grad_check(forward, gru.parameters()) < 1e-4

    def test_grad_check_all_states_masked_dropout_x_and_h0(self):
        # the loss reads every state, as attention does; x and h0 are checked
        # too, and one row is fully padded
        gru = make_gru(3, 4, seed=8, p=0.5)
        rng = np.random.default_rng(9)
        x = Parameter("x", rng.normal(size=(3, 4, 3)))
        h0 = Parameter("h0", rng.normal(size=(3, 4)))
        mask = np.array([[False, False, True, True],
                         [False, False, False, False],
                         [True, True, False, True]])
        coef = Tensor(rng.normal(size=(3, 4, 4)))

        def forward():
            states, _ = gru.forward(x.tensor, mask=mask, h0=h0.tensor, train=True,
                                    rng=np.random.default_rng(99))
            return T.sum_all(T.mul(states, coef))

        assert grad_check(forward, gru.parameters() + [x, h0]) < 1e-4


class TestAttention:
    def test_single_step_returns_state(self):
        att = AttentionLayer(3, rng=np.random.default_rng(0), dtype=np.float64)
        state = np.random.default_rng(1).normal(size=(2, 1, 3))
        out, w = att.forward(Tensor(state), np.ones((2, 1), dtype=bool))
        np.testing.assert_allclose(out.data, state[:, 0, :], rtol=1e-12)
        np.testing.assert_array_equal(w.data, np.ones((2, 1)))

    def test_identical_states_give_uniform_weights(self):
        att = AttentionLayer(3, rng=np.random.default_rng(0), dtype=np.float64)
        one = np.random.default_rng(2).normal(size=3)
        states = np.tile(one, (1, 4, 1))
        out, w = att.forward(Tensor(states), np.ones((1, 4), dtype=bool))
        np.testing.assert_allclose(w.data, np.full((1, 4), 0.25), atol=1e-12)
        np.testing.assert_allclose(out.data[0], one, rtol=1e-12)

    def test_two_step_matches_direct_computation(self):
        att = AttentionLayer(2, rng=np.random.default_rng(3), dtype=np.float64)
        states = np.array([[[0.5, -1.0], [1.5, 0.25]]])
        # direct evaluation of e_t = v . tanh(h_t W), softmax, weighted sum
        W = att.W_a.data
        v = att.v_a.data[:, 0]
        e = np.array([np.tanh(states[0, t] @ W) @ v for t in range(2)])
        alpha = np.exp(e - e.max())
        alpha /= alpha.sum()
        expected = alpha[0] * states[0, 0] + alpha[1] * states[0, 1]

        out, w = att.forward(Tensor(states), np.ones((1, 2), dtype=bool))
        np.testing.assert_allclose(w.data[0], alpha, rtol=1e-12)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)

    def test_masked_positions_zero_and_sum_one(self):
        att = AttentionLayer(3, rng=np.random.default_rng(4), dtype=np.float64)
        states = np.random.default_rng(5).normal(size=(3, 5, 3))
        mask = np.ones((3, 5), dtype=bool)
        mask[:, :2] = False
        _, w = att.forward(Tensor(states), mask)
        assert (w.data[:, :2] == 0.0).all()
        assert (w.data >= 0.0).all()
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones(3), atol=1e-6)

    def test_all_masked_sample_rejected(self):
        att = AttentionLayer(2, rng=np.random.default_rng(6), dtype=np.float64)
        with pytest.raises(ContractError):
            att.forward(Tensor(np.zeros((1, 3, 2), dtype=np.float64)), np.zeros((1, 3), dtype=bool))

    def test_grad_check(self):
        att = AttentionLayer(3, rng=np.random.default_rng(7), dtype=np.float64)
        rng = np.random.default_rng(8)
        states = Tensor(rng.normal(size=(2, 4, 3)).astype(np.float64))
        mask = np.array([[True, True, True, False], [True, False, True, True]])
        coef = Tensor(rng.normal(size=(2, 3)).astype(np.float64))

        def forward():
            out, _ = att.forward(states, mask)
            return T.sum_all(T.mul(out, coef))

        assert grad_check(forward, att.parameters()) < 1e-4


class TestDense:
    def test_affine_grad_check_tight(self):
        layer = DenseLayer(3, 2, rng=np.random.default_rng(0), dtype=np.float64)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)).astype(np.float64))

        def forward():
            return T.mean_all(layer.forward(x))

        assert grad_check(forward, layer.parameters()) < 1e-6

    def test_tanh_and_softmax_outputs(self):
        x = Tensor(np.random.default_rng(2).normal(size=(4, 3)).astype(np.float64))
        soft = DenseLayer(3, 5, activation="softmax", rng=np.random.default_rng(3), dtype=np.float64)
        out = soft.forward(x)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-9)
        tan = DenseLayer(3, 5, activation="tanh", rng=np.random.default_rng(4), dtype=np.float64)
        assert (np.abs(tan.forward(x).data) <= 1.0).all()

    def test_unknown_activation(self):
        with pytest.raises(ContractError):
            DenseLayer(2, 2, activation="relu")


class TestBatchNorm:
    def test_constant_column_maps_to_beta(self):
        bn = BatchNormLayer(2, dtype=np.float64)
        bn.beta.data[:] = [0.5, -1.0]
        x = Tensor(np.full((4, 2), 3.0, dtype=np.float64))
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.data, np.tile([0.5, -1.0], (4, 1)), atol=1e-12)

    def test_two_point_column(self):
        bn = BatchNormLayer(1, dtype=np.float64)
        out = bn.forward(Tensor(np.array([[1.0], [3.0]])), train=True)
        expected = 1.0 / math.sqrt(1.0 + bn.eps)
        np.testing.assert_allclose(out.data[:, 0], [-expected, expected], rtol=1e-12)

    def test_train_batch_statistics_normalize(self):
        bn = BatchNormLayer(3, dtype=np.float64)
        x = Tensor(np.random.default_rng(0).normal(5.0, 2.0, size=(64, 3)))
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=0), np.ones(3), atol=1e-4)

    def test_inference_identity_under_unit_stats(self):
        bn = BatchNormLayer(2, dtype=np.float64)
        x = Tensor(np.random.default_rng(1).normal(size=(5, 2)))
        out = bn.forward(x, train=False)
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)

    def test_running_stats_update_rule(self):
        bn = BatchNormLayer(1, dtype=np.float64)
        x = np.array([[1.0], [3.0]])
        bn.forward(Tensor(x), train=True)
        np.testing.assert_allclose(bn.running_mean.data, [0.99 * 0.0 + 0.01 * 2.0], rtol=1e-12)
        np.testing.assert_allclose(bn.running_var.data, [0.99 * 1.0 + 0.01 * 1.0], rtol=1e-12)
        bn2 = BatchNormLayer(1, dtype=np.float64)
        bn2.forward(Tensor(x), train=True, update_stats=False)
        np.testing.assert_array_equal(bn2.running_mean.data, [0.0])
        np.testing.assert_array_equal(bn2.running_var.data, [1.0])

    def test_small_batch_rejected(self):
        bn = BatchNormLayer(2)
        with pytest.raises(ContractError):
            bn.forward(Tensor(np.zeros((1, 2))), train=True)

    def test_grad_check_train_mode(self):
        bn = BatchNormLayer(3, dtype=np.float64)
        rng = np.random.default_rng(2)
        bn.gamma.data[:] = rng.normal(1.0, 0.1, size=3)
        bn.beta.data[:] = rng.normal(size=3)
        x = Tensor(rng.normal(size=(6, 3)).astype(np.float64), requires_grad=True)
        coef = Tensor(rng.normal(size=(6, 3)).astype(np.float64))

        def forward():
            return T.sum_all(T.mul(bn.forward(x, train=True, update_stats=False), coef))

        assert grad_check(forward, [bn.gamma, bn.beta]) < 1e-4

    def test_grad_check_inference_affine(self):
        bn = BatchNormLayer(3, dtype=np.float64)
        rng = np.random.default_rng(3)
        bn.running_mean.data[:] = rng.normal(size=3)
        bn.running_var.data[:] = rng.uniform(0.5, 2.0, size=3)
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float64))
        coef = Tensor(rng.normal(size=(4, 3)).astype(np.float64))

        def forward():
            return T.sum_all(T.mul(bn.forward(x, train=False), coef))

        assert grad_check(forward, [bn.gamma, bn.beta]) < 1e-6
