import io
import json
import math
import os
import sys
import textwrap
import threading
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from abusenet import layers
from abusenet import tensor as T
from abusenet.layers import (
    SCORE_BLOCK,
    AttentionLayer,
    BatchNormLayer,
    DenseLayer,
    EmbeddingLayer,
    GRULayer,
)
from abusenet.tensor import ContractError, NumericError, Parameter, ShapeError, Tape, Tensor, grad_check


def make_gru(d, u, dtype=np.float64, p=0.0, seed=1):
    return GRULayer(d, u, recurrent_dropout=p, rng=np.random.default_rng(seed), dtype=dtype)


# rows of [batch, T] masks ("x" live, "." padded) whose steps mix the three
# kinds the GRU tells apart: no padded row, some padded rows, all padded
PACKED_MASKS = {
    "interior_gaps": ["x.x.xx", ".xx..x", "xxxxxx", "..xx.x"],
    "padded_leading_steps": ["..xxxx", "...xxx", ".....x", "..x.xx"],
    "padded_middle_step": ["xx.xxx", ".x.x.x", "xx..xx", "xx.xxx"],
}


def mask_of(rows):
    return np.array([[c == "x" for c in row] for row in rows])


def check_plain_recurrence(mask):
    """States equal a plain loop of the GRU docstring's gate equations to 1e-12."""
    b, steps = mask.shape
    gru = make_gru(3, 4, seed=10, p=0.5)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(b, steps, 3))
    h0 = rng.normal(size=(b, 4))
    states, last = gru.forward(Tensor(x), mask=mask, h0=Tensor(h0), train=True,
                               rng=np.random.default_rng(12))
    keep = 0.5
    drop = (np.random.default_rng(12).random((b, 4)) < keep) / keep

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    w = {name: p.data for name, p in zip(("Wz", "Wr", "Wh", "Uz", "Ur", "Uh", "bz", "br", "bh"),
                                         gru.parameters())}
    h, dense = h0, np.empty((b, steps, 4))
    for t in range(steps):
        hm = h * drop
        z = sig(x[:, t] @ w["Wz"] + hm @ w["Uz"] + w["bz"])
        r = sig(x[:, t] @ w["Wr"] + hm @ w["Ur"] + w["br"])
        c = np.tanh(x[:, t] @ w["Wh"] + (r * hm) @ w["Uh"] + w["bh"])
        h = dense[:, t] = np.where(mask[:, t, None], (1.0 - z) * h + z * c, h)
    # the packed states are the live positions' rows, batch-major
    assert states.shape == (int(mask.sum()), 4)
    np.testing.assert_allclose(states.data, dense[mask], rtol=0, atol=1e-12)
    np.testing.assert_allclose(last.data, h, rtol=0, atol=1e-12)
    # last is each row's last packed state, or h0 for a row with none
    has, at = mask.any(axis=1), np.cumsum(mask.sum(axis=1)) - 1
    np.testing.assert_array_equal(last.data[has], states.data[at[has]])
    np.testing.assert_array_equal(last.data[~has], h0[~has])


def check_all_states_gradient(mask):
    """Float64 grad check of a loss over every state, as attention reads them,
    with recurrent dropout; x and h0 are checked parameters too."""
    b, steps = mask.shape
    gru = make_gru(3, 4, seed=8, p=0.5)
    rng = np.random.default_rng(9)
    x = Parameter("x", rng.normal(size=(b, steps, 3)))
    h0 = Parameter("h0", rng.normal(size=(b, 4)))
    coef = Tensor(rng.normal(size=(int(mask.sum()), 4)))

    def forward():
        states, _ = gru.forward(x, mask=mask, h0=h0, train=True,
                                rng=np.random.default_rng(99))
        return T.sum_all(T.mul(states, coef))

    assert grad_check(forward, gru.parameters() + [x, h0]) < 1e-4


def index_case(mask, m, d, seed, dtype=np.float32):
    """Rows [m, d], an index [b, T] reading them with repeats (padded
    positions hold an arbitrary row), and the dense input ``rows[index]``
    whose padded positions hold values that must never be read. With ``m``
    None there is one row per live position, each read once."""
    rng = np.random.default_rng(seed)
    if m is None:
        m = int(mask.sum())
        rows = rng.normal(size=(m, d)).astype(dtype)
        index = np.zeros(mask.shape, dtype=np.intp)
        index[mask] = rng.permutation(m)
    else:
        rows = rng.normal(size=(m, d)).astype(dtype)
        index = rng.integers(0, m, size=mask.shape)
    dense = rows[index]
    dense[~mask] = rng.normal(size=(int((~mask).sum()), d))
    return rows, index, dense


def gru_step(gru, x, mask, h0, index=None, dropout_seed=5):
    """Packed states, last and every gradient of a loss over all states and the last state."""
    rng = np.random.default_rng(dropout_seed + 1)
    coef = Tensor(rng.normal(size=(int(mask.sum()), gru.units)).astype(x.dtype))
    coef_last = Tensor(rng.normal(size=(mask.shape[0], gru.units)).astype(x.dtype))
    for p in gru.parameters():
        p.zero_grad()
    with Tape() as tape:
        states, last = gru.forward(x, mask=mask, h0=h0, train=True, index=index,
                                   rng=np.random.default_rng(dropout_seed))
        loss = T.add(T.sum_all(T.mul(states, coef)), T.sum_all(T.mul(last, coef_last)))
    tape.backward(loss)
    grads = {p.name: p.grad for p in gru.parameters()}
    return states.data, last.data, grads


def per_step_states(gru, x, mask, h0, drop):
    """States [b, T, u] of every position, padded ones included, from a plain
    loop that multiplies each step's live inputs by [W_z|W_r|W_h] itself,
    with the fused op's float operations in its order; every product is a
    gemm, a one-row step's a doubled-row one (``layers._gemm_rows``). The
    GRU's packed states are its ``[mask]``."""
    u = gru.units
    W = np.concatenate([gru.W_z.data, gru.W_r.data, gru.W_h.data], axis=1)
    bias = np.concatenate([gru.b_z.data, gru.b_r.data, gru.b_h.data])
    U_zr = np.concatenate([gru.U_z.data, gru.U_r.data], axis=1)
    h = h0.copy()
    states = np.empty((*mask.shape, u), dtype=x.dtype)
    for t in range(mask.shape[1]):
        sel = np.flatnonzero(mask[:, t])
        if sel.size:
            hm = h[sel] * drop[sel]
            a = layers._gemm_rows(x[sel, t], W)
            a += bias
            zr = (np.tanh((a[:, :2 * u] + layers._gemm_rows(hm, U_zr)) * 0.5) + 1.0) * 0.5
            z, r = zr[:, :u], zr[:, u:]
            c = np.tanh(a[:, 2 * u:] + layers._gemm_rows(r * hm, gru.U_h.data))
            h[sel] = (c - h[sel]) * z + h[sel]
        states[:, t] = h
    return states


def per_step_grads(gru, x, mask, h0, drop, g):
    """Gradients of a plain BPTT for the upstream gradient ``g`` [n, u] of
    the packed states, with the fused op's float operations in its order:
    the live positions packed time-major, one [k, .] product per step, each
    step adding its live rows' state gradients and padded rows passing dh
    through untouched, and the weight and input gradients one product over
    all packed positions; every step's product is a gemm
    (``layers._gemm_rows``) by C-order copies of U_h^T and U_zr^T.
    ``drop`` is the dropout mask or None. Returns the
    W, U and b gradients by parameter name, the h0 gradient and the dense
    input's gradient."""
    u = gru.units
    b, steps = mask.shape
    W = np.concatenate([gru.W_z.data, gru.W_r.data, gru.W_h.data], axis=1)
    bias = np.concatenate([gru.b_z.data, gru.b_r.data, gru.b_h.data])
    U_zr = np.concatenate([gru.U_z.data, gru.U_r.data], axis=1)
    U_h = gru.U_h.data
    h, sels, xs, zs, rs, cs, hms, rhs, h_prevs = h0.copy(), [], [], [], [], [], [], [], []
    for t in range(steps):
        sel = np.flatnonzero(mask[:, t])
        sels.append(sel)
        if not sel.size:
            continue
        h_prev = h[sel]
        hm = h_prev if drop is None else h_prev * drop[sel]
        a = layers._gemm_rows(x[sel, t], W)
        a += bias
        zr = (np.tanh((a[:, :2 * u] + layers._gemm_rows(hm, U_zr)) * 0.5) + 1.0) * 0.5
        z, r = zr[:, :u], zr[:, u:]
        rh = r * hm
        c = np.tanh(a[:, 2 * u:] + layers._gemm_rows(rh, U_h))
        h[sel] = (c - h_prev) * z + h_prev
        for buf, val in zip((xs, zs, rs, cs, hms, rhs, h_prevs), (x[sel, t], z, r, c, hm, rh, h_prev)):
            buf.append(val)
    X, Z, R, C, HM, RH, H_prev = (np.concatenate(buf) for buf in (xs, zs, rs, cs, hms, rhs, h_prevs))
    da = np.empty((X.shape[0], 3 * u), dtype=x.dtype)
    ends = np.cumsum([sel.size for sel in sels]).tolist()
    dh = np.zeros((b, u), dtype=x.dtype)
    g_dense = np.zeros((b, steps, u), dtype=x.dtype)
    g_dense[mask] = g
    for t in range(steps - 1, -1, -1):
        sel = sels[t]
        if not sel.size:
            continue
        lo, hi = ends[t] - sel.size, ends[t]
        dh_t = dh[sel] + g_dense[sel, t]
        z, r, c = Z[lo:hi], R[lo:hi], C[lo:hi]
        da[lo:hi, 2 * u:] = (dh_t * z) * (1.0 - c * c)
        drh = layers._gemm_rows(da[lo:hi, 2 * u:], U_h.T.copy())
        da[lo:hi, :u] = (dh_t * (c - H_prev[lo:hi])) * (z * (1.0 - z))
        da[lo:hi, u:2 * u] = (drh * HM[lo:hi]) * (r * (1.0 - r))
        dhm = drh * r
        dhm += layers._gemm_rows(da[lo:hi, :2 * u], U_zr.T.copy())
        if drop is not None:
            dhm *= drop[sel]
        dhm += dh_t * (1.0 - z)
        dh[sel] = dhm
    dW, db, dU_zr = X.T @ da, da.sum(axis=0), HM.T @ da[:, :2 * u]
    grads = [dW[:, :u], dW[:, u:2 * u], dW[:, 2 * u:], dU_zr[:, :u], dU_zr[:, u:],
             RH.T @ da[:, 2 * u:], db[:u], db[u:2 * u], db[2 * u:]]
    packed = np.empty((b, steps), dtype=np.intp)
    for t, sel in enumerate(sels):
        packed[sel, t] = np.arange(ends[t] - sel.size, ends[t])
    dx = np.zeros_like(x)
    dx[mask] += (da @ W.T)[packed[mask]]  # added to zero, as a scatter adds
    return {p.name: grad for p, grad in zip(gru.parameters(), grads)}, dh, dx


# masks for the rows+index form, on top of PACKED_MASKS: steps where one row
# is live (a one-row product) and a batch with no padding
INDEX_MASKS = {
    **PACKED_MASKS,
    "one_live_row_steps": ["...xxx", "....xx", "x....x", ".....x"],
    "no_padding": ["xxxxxx", "xxxxxx", "xxxxxx", "xxxxxx"],
}

# masks for the packed states' contract: left padding, gaps inside rows,
# right padding, rows with no live position, and steps with one live row
PACKED_STATE_MASKS = {
    "left_padding": ["..xxxx", "...xxx", "xxxxxx", ".....x"],
    "holes": ["x.x.xx", "xx..xx", "x.xxx.", "xxxxxx"],
    "right_padding": ["xxxx..", "xxx...", "xxxxxx", "x....."],
    "all_padding_rows": ["......", "xx.xxx", "......", ".x.x.x"],
    "one_row_steps": ["...xxx", "....xx", "x....x", ".....x"],
}

# masks for the last-state form: left padding, steps with one live row, and
# rows with no live position (their last state is h0)
LAST_STATE_MASKS = {
    "left_padding": ["..xxxx", "...xxx", "xxxxxx", ".....x"],
    "one_live_row_steps": ["...xxx", "....xx", "x....x", ".....x"],
    "all_padded_rows": ["......", "xx.xxx", "......", ".x.x.x"],
}


class TestEmbedding:
    def test_pad_row_zero_at_init(self):
        emb = EmbeddingLayer.random(10, 4, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(emb.table.data[0], np.zeros(4))

    def test_keeps_the_table_it_is_given(self):
        table = np.ones((5, 4), dtype=np.float32)
        emb = EmbeddingLayer(table)
        assert emb.table.data is table
        np.testing.assert_array_equal(table[0], np.zeros(4))

    def test_forward_shape_and_lookup(self):
        table = np.arange(20.0).reshape(5, 4)
        emb = EmbeddingLayer(table)
        out = emb.forward(np.array([[1, 2], [3, 0]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out.data[0, 0], table[1])
        np.testing.assert_array_equal(out.data[1, 1], np.zeros(4))  # pad row zeroed

    def test_forward_flat_ids(self):
        table = np.arange(20.0).reshape(5, 4)
        emb = EmbeddingLayer(table)
        ids = np.array([3, 0, 1, 3])
        with Tape() as tape:
            out = emb.forward(ids)
            loss = T.sum_all(T.mul(out, Tensor(np.arange(16.0).reshape(4, 4))))
        tape.backward(loss)
        assert out.shape == (4, 4)
        np.testing.assert_array_equal(out.data, [table[3], np.zeros(4), table[1], table[3]])
        expected = np.zeros((5, 4))
        np.add.at(expected, ids[ids != 0], np.arange(16.0).reshape(4, 4)[ids != 0])
        np.testing.assert_array_equal(emb.table.grad, expected)

    def test_grad_check(self):
        rng = np.random.default_rng(3)
        emb = EmbeddingLayer(rng.normal(size=(6, 3)).astype(np.float64))
        ids = np.array([[1, 2, 2], [5, 0, 3]])
        coef = rng.normal(size=(2, 3, 3))

        def forward():
            return T.sum_all(T.mul(emb.forward(ids), Tensor(coef, dtype=np.float64)))

        assert grad_check(forward, emb.parameters()) < 1e-6

    def test_pad_positions_take_no_gradient(self):
        # the upstream gradient is non-zero at pad positions too
        rng = np.random.default_rng(4)
        V, d = 30, 5
        emb = EmbeddingLayer(rng.normal(size=(V, d)).astype(np.float32))
        ids = rng.integers(1, V, size=(8, 40))
        ids[rng.random(ids.shape) < 0.3] = emb.pad_index
        g = rng.normal(size=(8, 40, d)) * 10.0 ** rng.uniform(-4, 4, size=(8, 40, 1))
        g = g.astype(np.float32)
        expected = np.zeros((V, d), np.float32)
        np.add.at(expected, ids.reshape(-1), g.reshape(-1, d))
        with Tape() as tape:
            loss = T.sum_all(T.mul(emb.forward(ids), Tensor(g)))
        tape.backward(loss)
        grad = emb.table.grad
        assert grad[0].tobytes() == np.zeros(d, np.float32).tobytes()
        assert grad[1:].tobytes() == expected[1:].tobytes()


class TestGRU:
    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan")])
    def test_recurrent_dropout_outside_unit_interval_rejected(self, p):
        # keep probability 1 - p: at p = 1 every state would be 0 * inf
        with pytest.raises(ContractError, match="recurrent_dropout"):
            make_gru(3, 4, p=p)

    def test_zero_weights_fixed_point(self):
        gru = make_gru(3, 4)
        for p in gru.parameters():
            p.data[:] = 0.0
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 3)).astype(np.float64))
        states, last = gru.forward(x)
        np.testing.assert_array_equal(states.data, np.zeros((10, 4)))
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
        mask = np.random.default_rng(11).random((3, 5)) < 0.6
        check_plain_recurrence(mask)

    @pytest.mark.parametrize("mask", PACKED_MASKS.values(), ids=PACKED_MASKS.keys())
    def test_packed_steps_match_plain_recurrence(self, mask):
        check_plain_recurrence(mask_of(mask))

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
        # one row is fully padded
        check_all_states_gradient(np.array([[False, False, True, True],
                                            [False, False, False, False],
                                            [True, True, False, True]]))

    @pytest.mark.parametrize("mask", PACKED_MASKS.values(), ids=PACKED_MASKS.keys())
    def test_grad_check_packed_steps(self, mask):
        check_all_states_gradient(mask_of(mask))

    @pytest.mark.parametrize("m", [1, 3, 9, None], ids=["one_row", "three_rows", "nine_rows", "all_distinct"])
    @pytest.mark.parametrize("mask", INDEX_MASKS.values(), ids=INDEX_MASKS.keys())
    def test_index_form_equals_dense_form_bitwise(self, mask, m):
        # d and 3u wide enough that numpy's one-row product (gemv) rounds
        # differently from a gemm row on common BLAS builds
        mask = mask_of(mask)
        gru = make_gru(64, 16, dtype=np.float32, p=0.5, seed=20)
        rows, index, dense = index_case(mask, m, 64, seed=21)
        h0 = np.random.default_rng(22).normal(size=(mask.shape[0], 16)).astype(np.float32)
        r, x, h0_r, h0_x = (Tensor(a, requires_grad=True) for a in (rows, dense, h0, h0.copy()))
        states_r, last_r, grads_r = gru_step(gru, r, mask, h0_r, index=index)
        states_x, last_x, grads_x = gru_step(gru, x, mask, h0_x)
        assert states_r.tobytes() == states_x.tobytes()
        assert last_r.tobytes() == last_x.tobytes()
        for name in grads_r:
            assert grads_r[name].tobytes() == grads_x[name].tobytes(), name
        assert h0_r.grad.tobytes() == h0_x.grad.tobytes()
        # the rows' gradient adds the dense input's position gradients in
        # batch-major order, as np.add.at over the flat positions does
        expected = np.zeros_like(rows)
        np.add.at(expected, index[mask], x.grad[mask])
        assert r.grad.tobytes() == expected.tobytes()
        assert not x.grad[~mask].any()

    @pytest.mark.parametrize("m", [1, 9, None], ids=["one_row", "nine_rows", "all_distinct"])
    @pytest.mark.parametrize("mask", INDEX_MASKS.values(), ids=INDEX_MASKS.keys())
    def test_index_form_equals_per_step_products_bitwise(self, mask, m):
        # projecting each distinct row once gives every step the bits of its
        # own x_t @ W, including a one-row step's
        mask = mask_of(mask)
        b = mask.shape[0]
        gru = make_gru(64, 16, dtype=np.float32, p=0.5, seed=26)
        rows, index, dense = index_case(mask, m, 64, seed=27)
        h0 = np.random.default_rng(28).normal(size=(b, 16)).astype(np.float32)
        states, _ = gru.forward(Tensor(rows), mask=mask, h0=Tensor(h0), index=index, train=True,
                                rng=np.random.default_rng(5))
        drop = (np.random.default_rng(5).random((b, 16)) < 0.5).astype(np.float32) / np.float32(0.5)
        assert states.data.tobytes() == per_step_states(gru, dense, mask, h0, drop)[mask].tobytes()

    @pytest.mark.parametrize("form", ["dense", "index"])
    @pytest.mark.parametrize("p", [0.5, 0.0], ids=["dropout", "no_dropout"])
    @pytest.mark.parametrize("mask", INDEX_MASKS.values(), ids=INDEX_MASKS.keys())
    def test_gradients_equal_per_step_bptt_bitwise(self, mask, p, form):
        mask = mask_of(mask)
        b = mask.shape[0]
        gru = make_gru(64, 16, dtype=np.float32, p=p, seed=34)
        rows, index, dense = index_case(mask, 9, 64, seed=35)
        rng = np.random.default_rng(36)
        h0_data = rng.normal(size=(b, 16)).astype(np.float32)
        g = rng.normal(size=(int(mask.sum()), 16)).astype(np.float32)
        drop = None
        if p:
            drop = (np.random.default_rng(5).random((b, 16)) < 0.5).astype(np.float32) / np.float32(0.5)
        grads, dh0, dx = per_step_grads(gru, dense, mask, h0_data, drop, g)
        if form == "index":
            expected = np.zeros_like(rows)
            np.add.at(expected, index[mask], dx[mask])
            dx = expected
        h0 = Tensor(h0_data, requires_grad=True)
        x, idx = (rows, index) if form == "index" else (dense, None)
        x = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            states, _ = gru.forward(x, mask=mask, h0=h0, train=True, index=idx,
                                    rng=np.random.default_rng(5))
            loss = T.sum_all(T.mul(states, Tensor(g)))
        tape.backward(loss)
        for param in gru.parameters():
            assert param.grad.tobytes() == grads[param.name].tobytes(), param.name
        assert h0.grad.tobytes() == dh0.tobytes()
        assert x.grad.tobytes() == dx.tobytes()

    def test_second_backward_over_one_recorded_op_rejected(self):
        gru = make_gru(3, 4, p=0.5)
        rng = np.random.default_rng(37)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        with Tape() as tape:
            states, _ = gru.forward(x, train=True, rng=np.random.default_rng(38))
            loss = T.sum_all(T.mul(states, Tensor(rng.normal(size=(10, 4)))))
        tape.backward(loss)
        with pytest.raises(ContractError, match="backward runs once"):
            tape.backward(loss)

    @pytest.mark.parametrize("mask", PACKED_MASKS.values(), ids=PACKED_MASKS.keys())
    def test_grad_check_index_form(self, mask):
        mask = mask_of(mask)
        gru = make_gru(3, 4, seed=23, p=0.5)
        rng = np.random.default_rng(24)
        rows, index, _ = index_case(mask, 5, 3, seed=25, dtype=np.float64)
        r = Parameter("rows", rows)
        h0 = Parameter("h0", rng.normal(size=(mask.shape[0], 4)))
        coef = Tensor(rng.normal(size=(int(mask.sum()), 4)))

        def forward():
            states, _ = gru.forward(r, mask=mask, h0=h0, index=index, train=True,
                                    rng=np.random.default_rng(99))
            return T.sum_all(T.mul(states, coef))

        assert grad_check(forward, gru.parameters() + [r, h0]) < 1e-4

    @pytest.mark.parametrize("form", ["taped", "untaped", "projected"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mask", PACKED_STATE_MASKS.values(), ids=PACKED_STATE_MASKS.keys())
    def test_packed_states_equal_per_step_states_of_live_positions_bitwise(self, mask, dtype, form):
        # the states are the live positions' rows of every position's state,
        # batch-major, and last is the state after the last step; the
        # projected form reads every gate input from a projected table and
        # is given no row
        mask = mask_of(mask)
        b = mask.shape[0]
        gru = make_gru(64, 16, dtype=dtype, p=0.5, seed=70)
        rows, index, dense = index_case(mask, 9, 64, seed=71, dtype=dtype)
        h0 = np.random.default_rng(72).normal(size=(b, 16)).astype(dtype)
        kwargs = dict(mask=mask, h0=Tensor(h0), train=True, rng=np.random.default_rng(5))
        if form == "taped":
            with Tape() as tape:
                states, last = gru.forward(Tensor(rows, requires_grad=True), index=index, **kwargs)
            assert len(tape) == 2
        elif form == "untaped":
            states, last = gru.forward(Tensor(rows), index=index, **kwargs)
        else:
            table = np.random.default_rng(73).normal(size=(20, 64)).astype(dtype)
            ids = np.random.default_rng(74).choice(np.arange(1, 20), size=9, replace=False)
            table[ids] = rows
            states, last = gru.forward(Tensor(table[:0]), index=ids[index], projected=gru.project(table),
                                       **kwargs)
        drop = (np.random.default_rng(5).random((b, 16)) < 0.5).astype(dtype) / dtype(0.5)
        every = per_step_states(gru, dense, mask, h0, drop)
        assert states.dtype == dtype and states.shape == (int(mask.sum()), 16)
        assert states.data.tobytes() == every[mask].tobytes()
        assert last.data.tobytes() == every[:, -1].tobytes()

    @pytest.mark.parametrize("train", [True, False], ids=["dropout", "inference"])
    @pytest.mark.parametrize("form", ["dense", "index"])
    @pytest.mark.parametrize("mask", ["left_padding", "no_padding"])
    def test_paper_width_states_equal_per_step_states_bitwise(self, mask, form, train):
        # d=200, u=128 as the model runs; in inference with no padding the
        # recurrent products read h itself, not a masked or dropped-out copy
        b, steps, d, u = 12, 7, 200, 128
        if mask == "no_padding":
            mask = np.ones((b, steps), dtype=bool)
        else:
            lengths = np.random.default_rng(30).integers(0, steps + 1, size=b)
            lengths[:2] = steps, 1
            mask = np.arange(steps) >= steps - lengths[:, None]
        gru = make_gru(d, u, dtype=np.float32, p=0.5, seed=31)
        rows, index, dense = index_case(mask, 40, d, seed=32)
        h0 = np.random.default_rng(33).normal(size=(b, u)).astype(np.float32)
        x, idx = (Tensor(rows), index) if form == "index" else (Tensor(dense), None)
        states, last = gru.forward(x, mask=mask, h0=Tensor(h0), index=idx, train=train,
                                   rng=np.random.default_rng(5))
        if train:
            drop = (np.random.default_rng(5).random((b, u)) < 0.5).astype(np.float32) / np.float32(0.5)
        else:
            drop = np.ones((b, u), dtype=np.float32)
        every = per_step_states(gru, dense, mask, h0, drop)
        assert states.data.tobytes() == every[mask].tobytes()
        assert last.data.tobytes() == every[:, -1].tobytes()

    def test_index_form_validates_its_index(self):
        gru = make_gru(3, 4)
        rows = Tensor(np.zeros((2, 3)))
        mask = np.array([[True, False]])
        with pytest.raises(IndexError):
            gru.forward(rows, mask=mask, index=np.array([[2, 0]]))
        with pytest.raises(ShapeError):
            gru.forward(rows, mask=mask, index=np.array([[0, 1, 1]]))
        with pytest.raises(ContractError):
            gru.forward(rows, mask=mask, index=np.array([[0.0, 1.0]]))
        # a padded position may hold any index
        _, last = gru.forward(rows, mask=mask, index=np.array([[1, 7]]))
        assert last.shape == (1, 4)
        # a projected table's rows are checked as the input's are
        P = gru.project(np.zeros((3, 3)))
        with pytest.raises(IndexError, match="projected table"):
            gru.forward(Tensor(np.zeros((0, 3))), mask=mask, index=np.array([[3, 0]]), projected=P)

    @pytest.mark.parametrize("form", ["dense", "index", "projected"])
    @pytest.mark.parametrize("train", [True, False], ids=["dropout", "inference"])
    @pytest.mark.parametrize("width", [(16, 16), (200, 128)], ids=["desk", "paper"])
    @pytest.mark.parametrize("mask", LAST_STATE_MASKS.values(), ids=LAST_STATE_MASKS.keys())
    def test_last_state_form_equals_last_of_states_bitwise(self, mask, width, train, form):
        # the op that keeps only the last state gives states[:, -1] of the
        # states form and, through a tape, every gradient of a loss on it;
        # the projected table is read only by a forward without a tape
        mask = mask_of(mask)
        b, (d, u) = mask.shape[0], width
        gru = make_gru(d, u, dtype=np.float32, p=0.5, seed=40)
        rows, index, dense = index_case(mask, 9, d, seed=41)
        rng = np.random.default_rng(42)
        h0 = rng.normal(size=(b, u)).astype(np.float32)
        coef = Tensor(rng.normal(size=(b, u)).astype(np.float32))
        projected, x_rows, x_index = None, dense if form == "dense" else rows, None if form == "dense" else index
        if form == "projected":  # the rows are the rows `ids` of a larger table, and x holds none
            table = rng.normal(size=(20, d)).astype(np.float32)
            ids = rng.choice(20, size=9, replace=False)
            table[ids] = rows
            projected, x_rows, x_index = gru.project(table), table[:0], ids[index]
        results = []
        for keep_states in (True, False):
            x = Tensor(x_rows.copy(), requires_grad=True)
            h = Tensor(h0.copy(), requires_grad=True)
            for param in gru.parameters():
                param.zero_grad()
            kwargs = dict(mask=mask, h0=h, train=train, rng=np.random.default_rng(5),
                          index=x_index, keep_states=keep_states)
            if projected is not None:
                states, last = gru.forward(x, projected=projected, **kwargs)
                results.append([last.data])
            else:
                with Tape() as tape:
                    states, last = gru.forward(x, **kwargs)
                    loss = T.sum_all(T.mul(last, coef))
                assert len(tape) == 3 + keep_states  # the states form adds its readout op
                tape.backward(loss)
                results.append([last.data, x.grad, h.grad, *(p.grad for p in gru.parameters())])
            assert (states is None) == (not keep_states)
        for expected, got in zip(*results):
            assert expected.tobytes() == got.tobytes()

    @pytest.mark.parametrize("mask", LAST_STATE_MASKS.values(), ids=LAST_STATE_MASKS.keys())
    def test_grad_check_last_state_form(self, mask):
        mask = mask_of(mask)
        gru = make_gru(3, 4, seed=44, p=0.5)
        rng = np.random.default_rng(45)
        rows, index, _ = index_case(mask, 5, 3, seed=46, dtype=np.float64)
        r = Parameter("rows", rows)
        h0 = Parameter("h0", rng.normal(size=(mask.shape[0], 4)))
        coef = Tensor(rng.normal(size=(mask.shape[0], 4)))

        def forward():
            _, last = gru.forward(r, mask=mask, h0=h0, index=index, train=True,
                                  rng=np.random.default_rng(99), keep_states=False)
            return T.sum_all(T.mul(last, coef))

        assert grad_check(forward, gru.parameters() + [r, h0]) < 1e-4


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_states_written_into_out_equal_fresh_ones_bitwise(self, dtype):
        mask = mask_of(PACKED_MASKS["interior_gaps"])
        rows, index, _ = index_case(mask, 5, 3, seed=61, dtype=dtype)
        gru = make_gru(3, 4, dtype=dtype, seed=62)
        fresh, last = gru.forward(Tensor(rows), mask=mask, index=index)
        out = np.full((int(mask.sum()), 4), np.nan, dtype=dtype)  # what a reused buffer held before
        states, last_out = gru.forward(Tensor(rows), mask=mask, index=index, out=out)
        assert states.data is out and not np.shares_memory(last_out.data, out)
        assert states.data.tobytes() == fresh.data.tobytes()
        assert last_out.data.tobytes() == last.data.tobytes()
        # without out every call's arrays are its own
        again, last_again = gru.forward(Tensor(rows), mask=mask, index=index)
        for a in (again.data, last_again.data):
            assert not any(np.shares_memory(a, b) for b in (fresh.data, last.data, out, last_out.data))

    def test_out_refused_unless_it_fits_an_untaped_call(self):
        mask = mask_of(PACKED_MASKS["interior_gaps"])
        rows, index, _ = index_case(mask, 5, 3, seed=63, dtype=np.float64)
        gru = make_gru(3, 4, seed=64)
        out = np.zeros((int(mask.sum()), 4))
        with Tape(), pytest.raises(ContractError, match="fresh array"):
            gru.forward(Tensor(rows), mask=mask, index=index, out=out)
        for bad, kwargs in ((out, {"keep_states": False}), (out[1:], {}), (out[:, 1:], {}),
                            (out.astype(np.float32), {})):
            with pytest.raises(ShapeError, match="states out"):
                gru.forward(Tensor(rows), mask=mask, index=index, out=bad, **kwargs)
        assert not out.any()


def split_case(b=16, steps=20, seed=70):
    """A left-padded [b, T] mask whose longest row is the last one, alone
    live at step 0, and whose second longest is row 0: at step 1 the
    batch has two live rows, in the first and the last block."""
    lengths = np.random.default_rng(seed).integers(3, steps - 1, size=b)
    lengths[-1], lengths[0] = steps, steps - 1
    return np.arange(steps)[None, :] >= (steps - lengths)[:, None]


class TestGRUBlocks:
    """A GRU call split into row blocks on threads gives the bits of the
    unsplit call, recorded or not."""

    @pytest.mark.parametrize("form", ["index", "projected"])
    @pytest.mark.parametrize("keep_states", [True, False], ids=["states", "last"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_block_count_gives_the_unsplit_bits(self, blocks, dtype, keep_states, form):
        mask = split_case()
        b, steps = mask.shape
        d, u = 48, 64
        gru = make_gru(d, u, dtype=dtype, seed=71)
        rows, index, _ = index_case(mask, 30, d, seed=72, dtype=dtype)
        h0 = Tensor(np.random.default_rng(73).normal(size=(b, u)).astype(dtype))
        kwargs = dict(mask=mask, h0=h0, index=index, keep_states=keep_states)
        if form == "projected":  # the gate inputs by table row; x holds no row
            kwargs["projected"] = gru.project(rows)
            rows = rows[:0]
        results = {}
        for k in (1, 2, 3, 4):
            blocks(k, b, u)
            bounds = layers.row_blocks(mask, u)
            assert len(bounds) == k + 1
            per_step = [np.count_nonzero(mask[r0:r1], axis=0) for r0, r1 in zip(bounds, bounds[1:])]
            total = mask.sum(axis=0)
            # the batch's only live row at step 0 lies in the last block, and
            # at step 1 a block has one live row where the batch has two
            assert total[0] == 1 and per_step[-1][0] == 1
            assert k == 1 or any(c[1] == 1 for c in per_step) and total[1] == 2
            out = np.full((int(mask.sum()), u), np.nan, dtype=dtype) if keep_states else None
            before = threading.active_count()
            states, last = gru.forward(Tensor(rows), out=out, **kwargs)
            assert threading.active_count() == before
            assert out is None or states.data is out
            results[k] = (None if states is None else states.data.tobytes(), last.data.tobytes())
        assert results[2] == results[1] and results[3] == results[1] and results[4] == results[1]

    def test_blocks_agree_under_a_short_switch_interval(self, blocks):
        # more blocks than the machine may have CPUs, switching threads
        # often: a lost or misplaced row write would change the states
        mask = split_case(b=64, steps=30, seed=78)
        gru = make_gru(12, 32, dtype=np.float32, seed=79)
        rows, index, _ = index_case(mask, 50, 12, seed=80)
        blocks(1, 64, 32)
        states, last = gru.forward(Tensor(rows), mask=mask, index=index)
        blocks(4, 64, 32)
        assert len(layers.row_blocks(mask, 32)) == 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                again, last_again = gru.forward(Tensor(rows), mask=mask, index=index)
                assert again.data.tobytes() == states.data.tobytes()
                assert last_again.data.tobytes() == last.data.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("p", [0.0, 0.3], ids=["no_dropout", "dropout"])
    @pytest.mark.parametrize("keep_states", [True, False], ids=["states", "last"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recorded_call_any_block_count_gives_the_unsplit_bits(self, blocks, pools, dtype,
                                                                   keep_states, p):
        mask = split_case()
        b, u = mask.shape[0], 64
        gru = make_gru(48, u, dtype=dtype, p=p, seed=81)
        rows, index, _ = index_case(mask, 30, 48, seed=82, dtype=dtype)
        rng = np.random.default_rng(83)
        h0 = rng.normal(size=(b, u)).astype(dtype)
        coef = Tensor(rng.normal(size=(int(mask.sum()), u)).astype(dtype))
        coef_last = Tensor(rng.normal(size=(b, u)).astype(dtype))
        results = {}
        for k in (1, 2, 3, 4):
            blocks(k, b, u)
            assert len(layers.row_blocks(mask, u)) == k + 1
            for prm in gru.parameters():
                prm.zero_grad()
            x, h = Tensor(rows, requires_grad=True), Tensor(h0, requires_grad=True)
            pools.clear()
            before = threading.active_count()
            with Tape() as tape:
                states, last = gru.forward(x, mask=mask, h0=h, index=index, train=True,
                                           rng=np.random.default_rng(84), keep_states=keep_states)
                loss = T.sum_all(T.mul(last, coef_last))
                if keep_states:
                    loss = T.add(loss, T.sum_all(T.mul(states, coef)))
            tape.backward(loss)
            assert threading.active_count() == before
            assert pools == ([] if k == 1 else [k - 1, k - 1])  # the forward's and the backward's
            results[k] = [None if states is None else states.data.tobytes(), last.data.tobytes(),
                          x.grad.tobytes(), h.grad.tobytes(), *(prm.grad.tobytes() for prm in gru.parameters())]
        assert results[2] == results[1] and results[3] == results[1] and results[4] == results[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recorded_few_row_block_steps_give_the_unsplit_bits(self, blocks, dtype):
        # at 128 units, steps of 12 and 24 live rows whose blocks hold 2-12
        # of them: OpenBLAS's sgemm rounds a product of up to 9 rows by a
        # transposed view unlike the same rows of a larger product, which
        # the backward's recurrent products must not depend on
        b, d, u = 48, 8, 128
        mask = np.ones((b, 5), dtype=bool)
        mask[:, 0] = np.arange(b) % 4 == 0
        mask[:, 1] = np.arange(b) % 2 == 0
        mask[1, :3] = False  # a step of two live rows, in the first and second blocks
        gru = make_gru(d, u, dtype=dtype, p=0.3, seed=86)
        rows, index, _ = index_case(mask, 30, d, seed=87, dtype=dtype)
        coef = Tensor(np.random.default_rng(88).normal(size=(int(mask.sum()), u)).astype(dtype))
        results = {}
        for k in (1, 2, 3, 4):
            blocks(k, b, u)
            for prm in gru.parameters():
                prm.zero_grad()
            x = Tensor(rows, requires_grad=True)
            with Tape() as tape:
                states, _ = gru.forward(x, mask=mask, index=index, train=True, rng=np.random.default_rng(89))
                loss = T.sum_all(T.mul(states, coef))
            tape.backward(loss)
            results[k] = [x.grad.tobytes(), *(prm.grad.tobytes() for prm in gru.parameters())]
        assert results[2] == results[1] and results[3] == results[1] and results[4] == results[1]

    def test_taped_call_that_records_nothing_splits(self, blocks, pools):
        # the interleaved schedule's metadata steps run the text path under
        # a tape with its gradients off
        mask = split_case()
        gru = make_gru(6, 8, dtype=np.float32, p=0.3, seed=74)
        for prm in gru.parameters():
            prm.requires_grad = False
        rows, index, _ = index_case(mask, 10, 6, seed=75)
        results = []
        for k in (1, 2):
            blocks(k, mask.shape[0], 8)
            with Tape() as tape:
                states, last = gru.forward(Tensor(rows), mask=mask, index=index, train=True,
                                           rng=np.random.default_rng(76))
            assert len(tape) == 0
            results.append((states.data.tobytes(), last.data.tobytes()))
        assert pools == [1] and results[0] == results[1]

    @pytest.mark.parametrize("form", ["index", "projected", "recorded"])
    def test_out_of_range_index_raises_the_unsplit_error(self, blocks, form):
        mask = split_case()
        b, u = mask.shape[0], 8
        gru = make_gru(6, u, dtype=np.float32, seed=76)
        rows, index, _ = index_case(mask, 10, 6, seed=77)
        index[b - 1, 5] = 10  # a live position of the last block
        kwargs = dict(mask=mask, index=index)
        if form == "projected":
            kwargs["projected"] = gru.project(rows)
        errors = []
        for k in (1, 3):
            blocks(k, b, u)
            before = threading.active_count()
            with pytest.raises(IndexError) as raised, Tape() if form == "recorded" else nullcontext():
                gru.forward(Tensor(rows, requires_grad=True), **kwargs)
            assert threading.active_count() == before
            errors.append(str(raised.value))
        assert errors[0] == errors[1] and "out of range" in errors[0]

    @pytest.mark.parametrize("form", ["index", "projected"])
    @pytest.mark.parametrize("keep_states", [True, False], ids=["states", "last"])
    @pytest.mark.parametrize("recorded", [False, True], ids=["untaped", "recorded"])
    @pytest.mark.parametrize("empty", ["leading", "trailing", "all"])
    def test_rows_without_live_positions_give_the_unsplit_bits(self, blocks, empty, recorded,
                                                                keep_states, form):
        # split_case's rows all have live positions; here some or all have
        # none, so a block holds rows that no step reads
        mask = split_case()
        mask[{"leading": slice(None, 4), "trailing": slice(-4, None), "all": slice(None)}[empty]] = False
        b, u = mask.shape[0], 64
        gru = make_gru(48, u, dtype=np.float32, p=0.3, seed=85)
        rows, index, _ = index_case(mask, 30, 48, seed=86)
        rng = np.random.default_rng(87)
        h0 = rng.normal(size=(b, u)).astype(np.float32)
        coef = Tensor(rng.normal(size=(int(mask.sum()), u)).astype(np.float32))
        coef_last = Tensor(rng.normal(size=(b, u)).astype(np.float32))
        kwargs = dict(mask=mask, index=index, keep_states=keep_states)
        if form == "projected":  # a recorded call ignores projected and reads x by index
            kwargs["projected"] = gru.project(rows)
            if not recorded:
                rows = rows[:0]
        results = {}
        for k in (1, 2, 3):
            blocks(k, b, u)
            assert empty == "all" or len(layers.row_blocks(mask, u)) == k + 1
            for prm in gru.parameters():
                prm.zero_grad()
            x, h = Tensor(rows, requires_grad=recorded), Tensor(h0, requires_grad=recorded)
            before = threading.active_count()
            with Tape() if recorded else nullcontext() as tape:
                states, last = gru.forward(x, h0=h, train=True, rng=np.random.default_rng(88), **kwargs)
                loss = T.sum_all(T.mul(last, coef_last))
                if keep_states:
                    loss = T.add(loss, T.sum_all(T.mul(states, coef)))
            if recorded:
                tape.backward(loss)
            assert threading.active_count() == before
            grads = [x.grad, h.grad, *(prm.grad for prm in gru.parameters())] if recorded else []
            results[k] = [None if states is None else states.data.tobytes(), last.data.tobytes(),
                          *(g.tobytes() for g in grads)]
        assert results[2] == results[1] and results[3] == results[1]

    def test_a_batch_without_live_positions_runs_as_one_block(self, blocks, pools):
        mask = np.zeros((16, 20), dtype=bool)
        gru = make_gru(6, 8, dtype=np.float32, seed=89)
        rows, index, _ = index_case(mask, 10, 6, seed=90)
        blocks(2, 16, 8)
        assert layers.row_blocks(mask, 8) == [0, 16]
        h0 = Tensor(np.random.default_rng(91).normal(size=(16, 8)).astype(np.float32))
        states, last = gru.forward(Tensor(rows), mask=mask, h0=h0, index=index)
        assert pools == [] and states.shape == (0, 8) and last.data.tobytes() == h0.data.tobytes()


class TestRecurrenceBlocks:
    """When an untaped GRU recurrence splits, and into how many blocks."""

    @pytest.fixture
    def pinned(self, monkeypatch):
        """OpenBLAS at one thread, 4 CPUs, no cap."""
        monkeypatch.setattr(layers, "blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(layers, "_block_cap", None)
        return monkeypatch

    def test_width_constant_both_sides(self, pinned):
        cells = layers.MIN_BLOCK_CELLS
        assert layers.recurrence_blocks(2 * cells // 128 - 1, 128) == 1
        assert layers.recurrence_blocks(2 * cells // 128, 128) == 2
        assert layers.recurrence_blocks(3 * cells // 64, 64) == 3
        assert layers.recurrence_blocks(100 * cells, 1) == 4  # at most one block per CPU

    def test_desk_widths_never_split(self, pinned):
        # cv-pipeline's batches (64 rows at 16 units) and the CLI's inference
        # batch of 512 rows at desk widths, without asking OpenBLAS
        pinned.setattr(layers, "blas_threads", lambda: pytest.fail("asked OpenBLAS"))
        assert layers.recurrence_blocks(64, 16) == 1
        assert layers.recurrence_blocks(512, 16) == 1
        assert layers.recurrence_blocks(512, 32) == 1

    @pytest.mark.parametrize("threads, expected", [(1, 2), (2, 1), (4, 1), (None, 1)])
    def test_paper_width_batch_splits_at_one_blas_thread(self, pinned, threads, expected):
        # None: no OpenBLAS found
        pinned.setattr(layers, "blas_threads", lambda: threads)
        assert layers.recurrence_blocks(512, 128) == expected

    def test_a_count_set_at_run_time_is_seen(self, monkeypatch, openblas):
        # blas_threads asks OpenBLAS on every call
        if openblas is None or layers.cpu_count() < 2:
            pytest.skip("needs OpenBLAS and 2 CPUs")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(layers, "_block_cap", None)
        openblas[2](2)
        assert layers.blas_threads() == 2 and layers.recurrence_blocks(512, 128) == 1
        layers.pin_blas()
        assert layers.blas_threads() == 1 and layers.recurrence_blocks(512, 128) == 2

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, expected):
        # sched_getaffinity exists only on Linux
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert layers.cpu_count() == expected

    @pytest.mark.parametrize("cpus, cap, expected", [(1, None, 1), (2, None, 2), (3, None, 3),
                                                     (4, 1, 1), (4, 2, 2), (2, 8, 2)])
    def test_cpus_and_cap_bound_the_blocks(self, pinned, cpus, cap, expected):
        pinned.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pinned.setattr(layers, "_block_cap", cap)
        assert layers.block_cap() == min(cpus, cap or cpus)
        assert layers.recurrence_blocks(4096, 128) == expected

    def test_blocks_hold_about_equal_live_counts(self, pinned):
        mask = np.zeros((1024, 10), dtype=bool)
        mask[:256] = True  # a quarter of the rows hold half the live positions
        mask[256:, -2:] = True
        bounds = layers.row_blocks(mask, 128)
        assert bounds[0] == 0 and bounds[-1] == 1024 and len(bounds) == 5
        live = [int(mask[r0:r1].sum()) for r0, r1 in zip(bounds, bounds[1:])]
        assert max(live) - min(live) <= 10

    @pytest.mark.parametrize("variable, setup", [
        ("1", ""),
        ("2", ""),
        ("", ""),  # OpenBLAS's default: one thread per CPU
        ("2", "layers.pin_blas()"),
        ("", "layers.openblas()[2](1)"),  # OpenBLAS's own setter, as threadpoolctl calls it
    ], ids=["variable_1", "variable_2", "default", "pinned", "set_after_import"])
    def test_split_at_paper_width_in_a_fresh_process(self, run_snippet, variable, setup):
        # a 512-row, 128-unit attention batch splits on 2 or more CPUs
        # wherever OpenBLAS reports one thread, and keeps its probabilities;
        # at 2 threads, or at the default of one per CPU, it does not split.
        # The GRU and attention each ask row_blocks once per forward
        snippet = textwrap.dedent(f"""
            import json, os
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
                os.environ.pop(name, None)
            if {variable!r}:
                os.environ["OPENBLAS_NUM_THREADS"] = {variable!r}
            import numpy as np
            from abusenet import layers
            from abusenet.model import ModelConfig, build_text_path

            {setup}
            m = build_text_path(3000, 106, ["a", "b"], config=ModelConfig(),
                                rng=np.random.default_rng(80))
            assert m.text_path.attention is not None
            rng = np.random.default_rng(81)
            ids = rng.integers(1, 3000, size=(512, 106))
            lengths = rng.integers(35, 107, size=512)
            ids[np.arange(106)[None, :] < (106 - lengths)[:, None]] = 0
            split, row_blocks = [], layers.row_blocks
            layers.row_blocks = lambda mask, units: split.append(len(row_blocks(mask, units)) - 1) or row_blocks(mask, units)
            probs = m.forward(ids, None).data
            layers.MIN_BLOCK_CELLS = 10 ** 12
            unsplit = m.forward(ids, None).data
            print(json.dumps({{"cpus": len(os.sched_getaffinity(0)), "threads": layers.blas_threads(),
                               "blocks": split, "equal": probs.tobytes() == unsplit.tobytes()}}))
        """)
        done = json.loads(run_snippet(snippet))
        cpus, threads = done["cpus"], done["threads"]
        assert done["equal"]
        split = min(2, cpus) if threads == 1 else 1
        assert done["blocks"] == [split, split, 1, 1]
        if setup or variable == "1":
            assert threads == 1
        elif cpus >= 2:  # OpenBLAS runs no more threads than CPUs
            assert threads == 2 if variable else threads >= 2

    def test_recorded_step_splits_at_paper_width_in_a_fresh_process(self, run_snippet):
        # one interleaved view-B step (the text path recorded, the metadata
        # path frozen) of a paper-width fused model at T 31 splits its GRU's
        # forward and backward at one BLAS thread on 2 or more CPUs, and
        # leaves the parameters of the unsplit step
        snippet = textwrap.dedent("""
            import json, os
            import numpy as np
            from abusenet import layers
            from abusenet.model import ModelConfig, build_combined, build_metadata_path, build_text_path
            from abusenet.tensor import Tape
            from abusenet.training import Adam, TrainingConfig, cross_entropy

            rng = np.random.default_rng(91)
            ids = rng.integers(1, 3000, size=(512, 31))
            lengths = rng.integers(3, 32, size=512)
            ids[np.arange(31)[None, :] < (31 - lengths)[:, None]] = 0
            meta = rng.normal(size=(512, 8)).astype(np.float32)
            labels = rng.integers(0, 2, size=512)
            split, row_blocks = [], layers.row_blocks

            def counted(mask, units):
                split.append(len(row_blocks(mask, units)) - 1)
                return row_blocks(mask, units)

            layers.row_blocks = counted

            def view_b_step():
                config, build = ModelConfig(), np.random.default_rng(92)
                text = build_text_path(3000, 31, ["a", "b"], config=config, rng=build)
                m = build_combined(text, build_metadata_path(8, ["a", "b"], config=config, rng=build), rng=build)
                assert m.text_path.attention is None
                for p in m.parameters():
                    p.requires_grad = p.requires_grad and p.tag != "metadata"
                with Tape() as tape:
                    probs = m.forward(ids, meta, train=True, rng=np.random.default_rng(93),
                                      stats_tags={"text", "head"})
                    loss = cross_entropy(probs, labels)
                tape.backward(loss)
                Adam.from_config(TrainingConfig()).step(m.parameters(), allowed_tags={"text", "head"})
                return b"".join(p.data.tobytes() for p in m.parameters())

            stepped = view_b_step()
            layers.MIN_BLOCK_CELLS = 10 ** 12
            print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "blocks": split,
                              "equal": stepped == view_b_step()}))
        """)
        done = json.loads(run_snippet(snippet, blas_threads=1))
        assert done["equal"]
        assert done["blocks"] == [min(2, done["cpus"]), 1]

    def test_recorded_attention_step_splits_at_paper_width_in_a_fresh_process(self, run_snippet):
        # one interleaved view-B step of a paper-width fused model at T 106,
        # so that attention is on and taped: the GRU's forward, attention's
        # row blocks, the GRU's backward and Adam's update of the
        # embedding table (4 whole blocks) run on threads at one BLAS
        # thread on 2 or more CPUs, and leave the parameters of the step
        # with MIN_BLOCK_CELLS = 10**12, where only Adam splits, and of the
        # step where nothing does
        snippet = textwrap.dedent("""
            import json, os
            import numpy as np
            from abusenet import layers
            from abusenet.model import ModelConfig, build_combined, build_metadata_path, build_text_path
            from abusenet.tensor import Tape
            from abusenet.training import Adam, TrainingConfig, cross_entropy

            rng = np.random.default_rng(94)
            ids = rng.integers(1, 3000, size=(384, 106))
            lengths = rng.integers(3, 107, size=384)
            ids[np.arange(106)[None, :] < (106 - lengths)[:, None]] = 0
            meta = rng.normal(size=(384, 8)).astype(np.float32)
            labels = rng.integers(0, 2, size=384)
            split = []

            class Pool(layers.ThreadPoolExecutor):
                def __init__(self, workers):
                    split[-1].append(workers + 1)
                    super().__init__(workers)

            layers.ThreadPoolExecutor = Pool

            def view_b_step():
                split.append([])
                config, build = ModelConfig(), np.random.default_rng(95)
                text = build_text_path(3000, 106, ["a", "b"], config=config, rng=build)
                m = build_combined(text, build_metadata_path(8, ["a", "b"], config=config, rng=build), rng=build)
                assert m.text_path.attention is not None
                for p in m.parameters():
                    p.requires_grad = p.requires_grad and p.tag != "metadata"
                with Tape() as tape:
                    probs = m.forward(ids, meta, train=True, rng=np.random.default_rng(96),
                                      stats_tags={"text", "head"})
                    loss = cross_entropy(probs, labels)
                tape.backward(loss)
                Adam.from_config(TrainingConfig()).step(m.parameters(), allowed_tags={"text", "head"})
                return b"".join(p.data.tobytes() for p in m.parameters())

            stepped = view_b_step()
            layers.MIN_BLOCK_CELLS = 10 ** 12
            unsplit = view_b_step()
            layers.set_block_cap(1)
            one = view_b_step()
            print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "threads": split,
                              "equal": stepped == unsplit == one}))
        """)
        done = json.loads(run_snippet(snippet, blas_threads=1))
        assert done["equal"]
        # the threads of each pool: the GRU's forward, attention's forward,
        # the GRU's backward and Adam's update of the table
        split = [2, 2, 2, min(4, done["cpus"])] if done["cpus"] > 1 else []
        assert done["threads"] == [split, split[3:], []]


class TestOpenBLASLookup:
    """``layers.openblas`` finds the OpenBLAS in /proc/self/maps and its
    thread-count getter and setter under each spelling of their symbols."""

    @pytest.fixture
    def mapped(self, monkeypatch, tmp_path):
        """``mapped(name, symbols)`` maps a library file ``name`` under
        tmp_path (" (deleted)" appended: replaced since it was loaded) that
        exports ``symbols``, a getter and setter of one count that starts at 3."""

        def map_library(name, symbols):
            path = tmp_path / name.removesuffix(" (deleted)")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"")
            maps = ("55d0-55d1 r-xp 00000000 08:01 7                 /usr/bin/python3\n"
                    "7f02-7f03 rw-p 00000000 00:00 0 \n"
                    + f"7f00-7f01 r-xp 00000000 08:01 42                {tmp_path / name}\n" * 2)
            threads = [3]
            handle = SimpleNamespace(**{
                symbol: (lambda: threads[0]) if "get" in symbol else (lambda n: threads.__setitem__(0, n))
                for symbol in symbols})
            monkeypatch.setattr(layers, "open", lambda file, *args, **kwargs: io.StringIO(maps), raising=False)
            monkeypatch.setattr(layers.ctypes, "CDLL", {str(path): handle}.__getitem__)
            layers.openblas.cache_clear()

        yield map_library
        layers.openblas.cache_clear()

    @pytest.mark.parametrize("name, spelling", [
        ("libscipy_openblas64_-32a4b2a6.so", "scipy_openblas_{}64_"),
        ("libopenblas64_.so.0", "openblas_{}64_"),
        ("libopenblasp-r0.3.21.so", "openblas_{}"),
        ("a dir/libopenblas.so.0", "openblas_{}"),
    ])
    def test_each_spelling_is_found(self, mapped, name, spelling):
        mapped(name, [spelling.format("get_num_threads"), spelling.format("set_num_threads")])
        assert layers.openblas()[0] == Path(name).name and layers.blas_threads() == 3
        layers.pin_blas()
        assert layers.blas_threads() == 1

    @pytest.mark.parametrize("name, symbols", [
        ("libopenblas.so.0 (deleted)", ["openblas_get_num_threads", "openblas_set_num_threads"]),
        ("libopenblas.so.0", ["dgemm_", "sgemm_"]),
    ], ids=["replaced_file", "no_thread_symbols"])
    def test_nothing_found_leaves_the_blas_alone(self, mapped, name, symbols):
        mapped(name, symbols)
        assert layers.openblas() is None and layers.blas_threads() is None
        layers.pin_blas()

    def test_no_proc(self, mapped, monkeypatch):
        mapped("libopenblas.so.0", ["openblas_get_num_threads", "openblas_set_num_threads"])

        def no_proc(file, *args, **kwargs):
            raise FileNotFoundError(file)

        monkeypatch.setattr(layers, "open", no_proc, raising=False)
        assert layers.openblas() is None and layers.blas_threads() is None


# attention masks: gaps inside a row, left padding, and an all-padded row
ATTENTION_MASKS = {
    "interior_gaps": ["x.x.xx", ".xx..x", "xxxxxx"],
    "left_padding": ["..xxxx", "...xxx", ".....x"],
    "all_padded_row": ["xx.xxx", "......", ".x.x.x"],
}


def packed(states, mask, **kwargs):
    """The live positions' rows of [b, T, u] states, batch-major: the form
    the GRU returns and attention reads."""
    return Tensor(states[mask], **kwargs)


def attention_oracle(states, mask, W, v):
    """Plain loop of e_t = v . tanh(h_t W), softmax over live steps, weighted sum."""
    b, steps, u = states.shape
    context, weights = np.zeros((b, u)), np.zeros((b, steps))
    for i in range(b):
        live = [t for t in range(steps) if mask[i, t]]
        if not live:
            continue
        e = np.array([np.tanh(states[i, t] @ W) @ v for t in live])
        alpha = np.exp(e - e.max())
        alpha /= alpha.sum()
        for a, t in zip(alpha, live):
            weights[i, t] = a
            context[i] += a * states[i, t]
    return context, weights


class TestAttention:
    def test_single_step_returns_state(self):
        att = AttentionLayer(3, rng=np.random.default_rng(0), dtype=np.float64)
        state = np.random.default_rng(1).normal(size=(2, 1, 3))
        out, w = att.forward(packed(state, np.ones((2, 1), dtype=bool)), np.ones((2, 1), dtype=bool))
        np.testing.assert_allclose(out.data, state[:, 0, :], rtol=1e-12)
        np.testing.assert_array_equal(w.data, np.ones((2, 1)))

    def test_identical_states_give_uniform_weights(self):
        att = AttentionLayer(3, rng=np.random.default_rng(0), dtype=np.float64)
        one = np.random.default_rng(2).normal(size=3)
        states = np.tile(one, (4, 1))
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

        out, w = att.forward(Tensor(states[0]), np.ones((1, 2), dtype=bool))
        np.testing.assert_allclose(w.data[0], alpha, rtol=1e-12)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)

    def test_masked_positions_zero_and_sum_one(self):
        att = AttentionLayer(3, rng=np.random.default_rng(4), dtype=np.float64)
        states = np.random.default_rng(5).normal(size=(3, 5, 3))
        mask = np.ones((3, 5), dtype=bool)
        mask[:, :2] = False
        _, w = att.forward(packed(states, mask), mask)
        assert (w.data[:, :2] == 0.0).all()
        assert (w.data >= 0.0).all()
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones(3), atol=1e-6)

    def test_interior_masked_positions_exactly_zero(self):
        att = AttentionLayer(2, rng=np.random.default_rng(9), dtype=np.float64)
        states = np.random.default_rng(10).normal(size=(2, 3, 2))
        mask = np.array([[True, False, True], [True, True, False]])
        _, w = att.forward(packed(states, mask), mask)
        assert w.data[0, 1] == 0.0
        assert w.data[1, 2] == 0.0
        np.testing.assert_allclose(w.data.sum(axis=1), [1.0, 1.0], atol=1e-6)

    def test_context_is_weighted_state_sum(self):
        att = AttentionLayer(3, rng=np.random.default_rng(11), dtype=np.float64)
        states = np.arange(12.0).reshape(1, 4, 3) / 12.0
        out, w = att.forward(Tensor(states[0]), np.ones((1, 4), dtype=bool))
        np.testing.assert_allclose(out.data, (states * w.data[:, :, None]).sum(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("rows", ATTENTION_MASKS.values(), ids=ATTENTION_MASKS.keys())
    def test_matches_plain_oracle(self, rows):
        mask = mask_of(rows)
        att = AttentionLayer(4, rng=np.random.default_rng(12), dtype=np.float64)
        states = np.random.default_rng(13).normal(size=(*mask.shape, 4))
        context, weights = attention_oracle(states, mask, att.W_a.data, att.v_a.data[:, 0])
        out, w = att.forward(packed(states, mask), mask)
        assert out.dtype == w.dtype == np.float64
        np.testing.assert_allclose(w.data, weights, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.data, context, rtol=1e-12, atol=1e-12)

    def test_all_padded_row_gives_zero_context_and_gradient(self):
        # an empty text is an all-padded row: like the last-state readout's
        # zero h0, it reads as zeros and sends back no gradient
        att = AttentionLayer(2, rng=np.random.default_rng(6), dtype=np.float64)
        rng = np.random.default_rng(14)
        mask = np.zeros((1, 3), dtype=bool)
        states = packed(rng.normal(size=(1, 3, 2)), mask, requires_grad=True)
        coef = Tensor(rng.normal(size=(1, 2)))
        with Tape() as tape:
            out, w = att.forward(states, mask)
            loss = T.sum_all(T.mul(out, coef))
        tape.backward(loss)
        assert (out.data == 0.0).all() and (w.data == 0.0).all()
        for grad in (states.grad, att.W_a.grad, att.v_a.grad):
            assert grad is not None and (grad == 0.0).all()
        assert states.grad.shape == (0, 2)

    def test_all_padded_row_leaves_other_rows_unchanged(self):
        att = AttentionLayer(3, rng=np.random.default_rng(15), dtype=np.float64)
        states = np.random.default_rng(16).normal(size=(3, 4, 3))
        mask = mask_of(["x.xx", "....", ".xxx"])
        out, w = att.forward(packed(states, mask), mask)
        alone, w_alone = att.forward(packed(states[[0, 2]], mask[[0, 2]]), mask[[0, 2]])
        assert (out.data[1] == 0.0).all() and (w.data[1] == 0.0).all()
        np.testing.assert_allclose(out.data[[0, 2]], alone.data, rtol=1e-12)
        np.testing.assert_allclose(w.data[[0, 2]], w_alone.data, rtol=1e-12)

    def test_rejects_bad_input(self):
        att = AttentionLayer(2, rng=np.random.default_rng(17), dtype=np.float64)
        states = np.zeros((2, 3, 2))
        mask = np.ones((2, 3), dtype=bool)
        with pytest.raises(ShapeError):
            att.forward(Tensor(states[0]), mask)  # 3 rows for 6 live positions
        with pytest.raises(ShapeError):
            att.forward(Tensor(states), mask)  # not packed
        with pytest.raises(ShapeError):
            att.forward(packed(states, mask), mask[0])
        with pytest.raises(ContractError):
            att.forward(packed(states, mask, dtype=np.float32), mask)
        # an Inf among zero states keeps every score finite (tanh saturates),
        # so only the context shows it; the suite turns RuntimeWarning into
        # an error, so a warning from numpy would surface instead
        for bad in (np.nan, np.inf, -np.inf):
            states[1, 2, 0] = bad
            with pytest.raises(NumericError):
                att.forward(packed(states, mask), mask)
        mask[1, 2] = False  # a padded position has no row
        out, _ = att.forward(packed(states, mask), mask)
        assert np.isfinite(out.data).all()

    def test_batch_over_128_rows_equals_a_plain_packed_computation_bitwise(self):
        # one product over every packed state at the paper's width and one
        # row-wise score reduction, for more rows than any block size; the
        # context and weights keep the bits of the plain per-row computation
        # over the same packed rows
        att = AttentionLayer(128, rng=np.random.default_rng(19))
        rng = np.random.default_rng(20)
        b, steps = 133, 40
        states = rng.normal(size=(b, steps, 128)).astype(np.float32)
        mask = np.arange(steps)[None, :] >= rng.integers(0, steps + 1, size=b)[:, None]  # left padding
        mask[3] = rng.random(steps) < 0.5  # interior gaps
        mask[7] = False  # an all-padded row
        live = states[mask]
        e = np.einsum("nu,u->n", np.tanh(live @ att.W_a.data), att.v_a.data[:, 0])
        counts = np.count_nonzero(mask, axis=1)
        starts = (np.cumsum(counts) - counts)[counts > 0]
        e -= np.repeat(np.maximum.reduceat(e, starts), counts[counts > 0])
        w = np.exp(e)
        w /= np.repeat(np.add.reduceat(w, starts), counts[counts > 0])
        weights = np.zeros((b, steps), dtype=np.float32)
        weights[mask] = w
        context = np.zeros((b, 128), dtype=np.float32)
        for i, lo in enumerate(np.cumsum(counts) - counts):
            if counts[i]:
                context[i] = w[lo:lo + counts[i]] @ live[lo:lo + counts[i]].copy()
        out, out_weights = att.forward(Tensor(live), mask)
        with Tape():
            recorded, _ = att.forward(Tensor(live, requires_grad=True), mask)
        for got in (out, recorded):
            np.testing.assert_array_equal(got.data, context)
        np.testing.assert_array_equal(out_weights.data, weights)

    def test_warm_untaped_forward_allocates_less_than_dense_states(self):
        # the forward reads the packed states where they are: it makes no
        # [b, T, units] array, nor a gathered copy of the live states, nor
        # an [n, units] score input
        att = AttentionLayer(128, rng=np.random.default_rng(25))
        rng = np.random.default_rng(26)
        b, steps = 64, 60
        mask = np.arange(steps)[None, :] >= rng.integers(0, steps // 2, size=b)[:, None]
        states = packed(rng.normal(size=(b, steps, 128)).astype(np.float32), mask)
        att.forward(states, mask)  # warm-up
        tracemalloc.start()
        try:
            att.forward(states, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = b * steps * 128 * 4
        scores_in = int(mask.sum()) * 128 * 4
        assert peak < dense, f"peak {peak} bytes, one [b, T, units] array {dense}"
        assert peak < scores_in, f"peak {peak} bytes, one [n, units] array {scores_in}"

    def test_blocked_scores_equal_one_product_bitwise_at_one_blas_thread(self, run_snippet):
        # below, at and above the block size, with a last block of one row
        # and one of several; the scores are compared through the weights,
        # each a function of its row's scores alone
        out = run_snippet(textwrap.dedent("""
            import numpy as np
            from abusenet.layers import SCORE_BLOCK, AttentionLayer
            from abusenet.tensor import Tape, Tensor

            for dtype in (np.float32, np.float64):
                att = AttentionLayer(128, rng=np.random.default_rng(30), dtype=dtype)
                rng = np.random.default_rng(31)
                for n in (SCORE_BLOCK - 3, SCORE_BLOCK, SCORE_BLOCK + 1, 2 * SCORE_BLOCK + 6):
                    counts = np.full(40, n // 40)
                    counts[:n % 40] += 1
                    counts = np.insert(counts, 7, 0)  # an all-padded row
                    steps = int(counts.max())
                    mask = np.arange(steps)[None, :] >= (steps - counts)[:, None]
                    live = rng.normal(size=(n, 128)).astype(dtype)
                    e = np.einsum("nu,u->n", np.tanh(live @ att.W_a.data), att.v_a.data[:, 0])
                    ends = np.cumsum(counts)
                    starts = (ends - counts)[counts > 0]
                    e -= np.repeat(np.maximum.reduceat(e, starts), counts[counts > 0])
                    w = np.exp(e)
                    w /= np.repeat(np.add.reduceat(w, starts), counts[counts > 0])
                    weights = np.zeros(mask.shape, dtype=dtype)
                    weights[mask] = w
                    context = np.zeros((len(counts), 128), dtype=dtype)
                    for i, (lo, hi) in enumerate(zip(ends - counts, ends)):
                        if hi > lo:
                            context[i] = w[lo:hi] @ live[lo:hi]
                    got, got_weights = att.forward(Tensor(live), mask)
                    with Tape():
                        recorded, _ = att.forward(Tensor(live, requires_grad=True), mask)
                    print(np.dtype(dtype).name, n - SCORE_BLOCK,
                          got_weights.data.tobytes() == weights.tobytes(),
                          got.data.tobytes() == context.tobytes(),
                          recorded.data.tobytes() == context.tobytes())
        """))
        assert out.splitlines() == [f"{dt} {k} True True True" for dt in ("float32", "float64")
                                    for k in (-3, 0, 1, SCORE_BLOCK + 6)]

    def test_taped_and_untaped_contexts_are_equal_bitwise_above_the_block(self):
        # at the default BLAS thread count: both calls score in the same blocks
        att = AttentionLayer(128, rng=np.random.default_rng(32))
        rng = np.random.default_rng(33)
        mask = rng.random((6, SCORE_BLOCK // 2)) < 0.9
        live = rng.normal(size=(int(mask.sum()), 128)).astype(np.float32)
        assert len(live) > 2 * SCORE_BLOCK and len(live) % SCORE_BLOCK
        context, weights = att.forward(Tensor(live), mask)
        with Tape():
            recorded, recorded_weights = att.forward(Tensor(live, requires_grad=True), mask)
        assert recorded.data.tobytes() == context.data.tobytes()
        assert recorded_weights.data.tobytes() == weights.data.tobytes()

    def test_records_one_tape_op(self):
        att = AttentionLayer(3, rng=np.random.default_rng(18))
        states = Tensor(np.zeros((8, 3), dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            att.forward(states, np.ones((2, 4), dtype=bool))
        assert len(tape) == 1

    def test_grad_check(self):
        att = AttentionLayer(3, rng=np.random.default_rng(7), dtype=np.float64)
        rng = np.random.default_rng(8)
        every = rng.normal(size=(2, 4, 3)).astype(np.float64)
        mask = np.array([[True, True, True, False], [True, False, True, True]])
        states = packed(every, mask)
        coef = Tensor(rng.normal(size=(2, 3)).astype(np.float64))

        def forward():
            out, _ = att.forward(states, mask)
            return T.sum_all(T.mul(out, coef))

        assert grad_check(forward, att.parameters()) < 1e-4

    @pytest.mark.parametrize("rows", ATTENTION_MASKS.values(), ids=ATTENTION_MASKS.keys())
    def test_grad_check_states(self, rows):
        mask = mask_of(rows)
        att = AttentionLayer(3, rng=np.random.default_rng(19), dtype=np.float64)
        rng = np.random.default_rng(20)
        states = Parameter("states", packed(rng.normal(size=(*mask.shape, 3)), mask, dtype=np.float64))
        coef = Tensor(rng.normal(size=(mask.shape[0], 3)))

        def forward():
            out, _ = att.forward(states, mask)
            return T.sum_all(T.mul(out, coef))

        assert grad_check(forward, [*att.parameters(), states]) < 1e-4
        with Tape() as tape:
            loss = forward()
        tape.backward(loss)
        assert states.grad.shape == (int(mask.sum()), 3)  # one row per live position, padded ones have none

    def test_consecutive_untaped_forwards_give_a_fresh_layers_bits(self):
        # over batches of fewer and of more rows than one score block; the
        # layer keeps nothing but its parameters from call to call, and
        # no two returned arrays share memory
        rng = np.random.default_rng(21)
        masks = [mask_of(rows) for rows in ATTENTION_MASKS.values()]
        masks.insert(1, rng.random((5, SCORE_BLOCK // 2)) < 0.9)
        att = AttentionLayer(3, rng=np.random.default_rng(22))
        returned = []
        for mask in masks:
            states = packed(rng.normal(size=(*mask.shape, 3)).astype(np.float32), mask)
            got = [t.data for t in att.forward(states, mask)]
            fresh = AttentionLayer(3, rng=np.random.default_rng(22)).forward(states, mask)
            assert [a.tobytes() for a in got] == [t.data.tobytes() for t in fresh]
            returned += got
            assert vars(att).keys() == {"units", "W_a", "v_a"}
        for i, a in enumerate(returned):
            assert not any(np.shares_memory(a, b) for b in returned[:i] + returned[i + 1:])

    # live positions below one score block, two whole blocks, and three
    # blocks with a one-row tail block
    SPLIT_SIZES = {"below_a_block": SCORE_BLOCK - 5, "two_blocks": 2 * SCORE_BLOCK,
                   "one_row_tail": 3 * SCORE_BLOCK + 1}

    @staticmethod
    def split_batch(n, dtype=np.float32):
        """A [40, T] mask with n live positions, left-padded, row 7 all
        padded, and packed [n, 16] states."""
        counts = np.full(39, n // 39)
        counts[:n % 39] += 1
        counts = np.insert(counts, 7, 0)
        steps = int(counts.max())
        mask = np.arange(steps)[None, :] >= (steps - counts)[:, None]
        live = np.random.default_rng(n).normal(size=(n, 16)).astype(dtype)
        return mask, live

    @staticmethod
    def pin_one_blas_thread(openblas):
        # the split runs only where OpenBLAS reports one thread
        if openblas:
            openblas[2](1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", SPLIT_SIZES.values(), ids=SPLIT_SIZES.keys())
    def test_untaped_score_blocks_on_threads_give_the_one_thread_bits(self, blocks, pools, openblas, n, dtype):
        self.pin_one_blas_thread(openblas)
        mask, live = self.split_batch(n, dtype)
        results = {}
        for k in (1, 2, 3, 4):
            blocks(k, len(mask), 16)
            assert len(layers.row_blocks(mask, 16)) == k + 1
            pools.clear()
            att = AttentionLayer(16, rng=np.random.default_rng(40), dtype=dtype)
            before = threading.active_count()
            first = [t.data.tobytes() for t in att.forward(Tensor(live), mask)]
            assert threading.active_count() == before
            second = [t.data.tobytes() for t in att.forward(Tensor(live), mask)]
            assert threading.active_count() == before
            assert pools == ([k - 1] * 2 if k > 1 else [])  # the GRU's row blocks, whatever the score blocks
            assert vars(att).keys() == {"units", "W_a", "v_a"}
            assert second == first
            results[k] = first
        assert results[2] == results[1] and results[3] == results[1] and results[4] == results[1]

    @pytest.mark.parametrize("n", SPLIT_SIZES.values(), ids=SPLIT_SIZES.keys())
    def test_taped_score_blocks_on_threads_give_the_one_thread_gradients(self, blocks, pools, openblas, n):
        self.pin_one_blas_thread(openblas)
        mask, live = self.split_batch(n)
        coef = Tensor(np.random.default_rng(41).normal(size=(len(mask), 16)).astype(np.float32))
        results = {}
        for k in (1, 2, 3, 4):
            blocks(k, len(mask), 16)
            pools.clear()
            att = AttentionLayer(16, rng=np.random.default_rng(42))
            states = Tensor(live.copy(), requires_grad=True)
            before = threading.active_count()
            with Tape() as tape:
                out, weights = att.forward(states, mask)
                loss = T.sum_all(T.mul(out, coef))
            assert threading.active_count() == before
            tape.backward(loss)
            assert pools == ([k - 1] if k > 1 else [])  # the backward runs on the calling thread
            results[k] = [a.tobytes() for a in (out.data, weights.data, states.grad, att.W_a.grad, att.v_a.grad)]
        assert results[2] == results[1] and results[3] == results[1] and results[4] == results[1]

    def test_score_blocks_agree_under_a_short_switch_interval(self, blocks, openblas):
        # more threads than the machine may have CPUs, switching often: a
        # lost or misplaced score or score-input row would change the
        # context or the gradients
        self.pin_one_blas_thread(openblas)
        mask, live = self.split_batch(3 * SCORE_BLOCK + 1)
        coef = Tensor(np.random.default_rng(43).normal(size=(len(mask), 16)).astype(np.float32))

        def taped():
            att = AttentionLayer(16, rng=np.random.default_rng(44))
            states = Tensor(live.copy(), requires_grad=True)
            with Tape() as tape:
                out, _ = att.forward(states, mask)
                loss = T.sum_all(T.mul(out, coef))
            tape.backward(loss)
            return [a.tobytes() for a in (out.data, states.grad, att.W_a.grad, att.v_a.grad)]

        blocks(1, len(mask), 16)
        want = taped()
        blocks(4, len(mask), 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert taped() == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_in_any_block_raises_one_numeric_error(self, blocks, openblas, bad, taped):
        # each block checks its own scores and contexts on its own thread:
        # a NaN shows in the scores, an Inf only in the context (tanh
        # saturates it); wherever it lies, the call raises the one error
        # of the unsplit call, and every thread it started has ended
        self.pin_one_blas_thread(openblas)
        mask, live = self.split_batch(2 * SCORE_BLOCK)
        ends = np.cumsum(np.count_nonzero(mask, axis=1))
        errors = set()
        for k in (1, 2, 3, 4):
            blocks(k, len(mask), 16)
            bounds = layers.row_blocks(mask, 16)
            assert len(bounds) == k + 1
            for r1 in bounds[1:]:
                states = live.copy()
                states[ends[r1 - 1] - 1, 3] = bad  # the block's last live position
                att = AttentionLayer(16, rng=np.random.default_rng(45))
                before = threading.active_count()
                with pytest.raises(NumericError) as raised, Tape() if taped else nullcontext():
                    att.forward(Tensor(states, requires_grad=taped), mask)
                assert threading.active_count() == before
                errors.add(str(raised.value))
        assert len(errors) == 1
        assert ("scores" if np.isnan(bad) else "context") in errors.pop()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("activation", ["identity", "tanh"])
    def test_non_finite_input_rejected(self, activation, bad):
        layer = DenseLayer(3, 2, activation=activation, rng=np.random.default_rng(7), name="meta.dense1")
        x = np.zeros((2, 3), np.float32)
        x[1, 0] = bad
        with pytest.raises(NumericError, match=f"'meta.dense1': {activation} input contains NaN or Inf"):
            layer.forward(Tensor(x))

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "no_x_grad"])
    @pytest.mark.parametrize("activation", DenseLayer.ACTIVATIONS)
    def test_fused_op_equals_numpy_chain_bitwise(self, activation, x_grad):
        rng = np.random.default_rng(5)
        layer = DenseLayer(7, 4, activation=activation, rng=rng)
        layer.b.data[:] = rng.normal(size=4).astype(np.float32)
        x = Tensor(rng.normal(size=(9, 7)).astype(np.float32), requires_grad=x_grad)
        g = rng.normal(size=(9, 4)).astype(np.float32)
        with Tape() as tape:
            out = layer.forward(x)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        tape.backward(loss)
        assert len(tape) == 3  # the layer, mul and sum_all

        W, b = layer.W.data, layer.b.data
        y = x.data @ W + b
        if activation == "tanh":
            y = np.tanh(y)
            gz = g * (1.0 - y * y)
        elif activation == "softmax":
            e = np.exp(y - y.max(axis=-1, keepdims=True))
            y = e / e.sum(axis=-1, keepdims=True)
            gz = y * (g - (g * y).sum(axis=-1, keepdims=True))
        else:
            gz = g
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == y.tobytes()
        assert layer.b.grad.tobytes() == gz.sum(axis=0).tobytes()
        assert layer.W.grad.tobytes() == (x.data.T @ gz).tobytes()
        if x_grad:
            assert x.grad.tobytes() == (gz @ W.T).tobytes()
        else:
            assert x.grad is None

    def test_frozen_weights_take_no_gradient(self):
        layer = DenseLayer(3, 2, activation="tanh", rng=np.random.default_rng(6))
        layer.W.requires_grad = False
        x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(layer.forward(x))
        tape.backward(loss)
        assert layer.W.grad is None
        assert layer.b.grad is not None and x.grad is not None

    def test_wrong_width_names_layer_and_shape(self):
        layer = DenseLayer(3, 2, name="meta.dense1")
        with pytest.raises(ShapeError, match=r"'meta.dense1' takes \[batch, 3\] input, got shape \(4, 5\)"):
            layer.forward(Tensor(np.zeros((4, 5), np.float32)))
        with pytest.raises(ShapeError, match=r"got shape \(3,\)"):
            layer.forward(Tensor(np.zeros(3, np.float32)))

    def test_mixed_dtypes_rejected(self):
        layer = DenseLayer(3, 2, dtype=np.float32)
        with pytest.raises(ContractError, match="mixed dtypes"):
            layer.forward(Tensor(np.zeros((1, 3), np.float64)))


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

    @pytest.mark.parametrize("train", [True, False], ids=["train", "inference"])
    def test_grad_check_includes_x(self, train):
        bn = BatchNormLayer(3, dtype=np.float64)
        rng = np.random.default_rng(4)
        bn.gamma.data[:] = rng.normal(1.0, 0.1, size=3)
        bn.beta.data[:] = rng.normal(size=3)
        bn.running_mean.data[:] = rng.normal(size=3)
        bn.running_var.data[:] = rng.uniform(0.5, 2.0, size=3)
        x = Parameter("x", Tensor(rng.normal(size=(6, 3)), dtype=np.float64))
        coef = Tensor(rng.normal(size=(6, 3)))

        def forward():
            return T.sum_all(T.mul(bn.forward(x, train=train, update_stats=False), coef))

        assert grad_check(forward, [x, bn.gamma, bn.beta]) < 1e-4

    def test_inference_equals_four_op_chain_bitwise(self):
        # the chain it replaces: + (-mean), * invstd, * gamma, + beta
        rng = np.random.default_rng(5)
        bn = BatchNormLayer(30)
        bn.gamma.data[:] = rng.normal(1.0, 0.2, size=30)
        bn.beta.data[:] = rng.normal(size=30)
        bn.running_mean.data[:] = rng.normal(size=30)
        bn.running_var.data[:] = rng.uniform(0.1, 3.0, size=30)
        x = Parameter("x", Tensor(rng.normal(2.0, 3.0, size=(512, 30)).astype(np.float32)))
        g = rng.normal(size=(512, 30)).astype(np.float32)
        with Tape() as tape:
            out = bn.forward(x, train=False)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        assert len(tape) == 3  # batch norm, mul, sum
        tape.backward(loss)

        invstd = (1.0 / np.sqrt(bn.running_var.data + bn.eps)).astype(np.float32)
        scaled = (x.data + (-bn.running_mean.data)) * invstd
        expected = scaled * bn.gamma.data + bn.beta.data
        assert out.dtype == np.float32
        assert out.data.tobytes() == expected.tobytes()
        assert x.grad.tobytes() == ((g * bn.gamma.data) * invstd).tobytes()
        assert bn.gamma.grad.tobytes() == (g * scaled).sum(axis=0).tobytes()
        assert bn.beta.grad.tobytes() == g.sum(axis=0).tobytes()
