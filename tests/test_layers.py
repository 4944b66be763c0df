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
    h = h0
    for t in range(steps):
        hm = h * drop
        z = sig(x[:, t] @ w["Wz"] + hm @ w["Uz"] + w["bz"])
        r = sig(x[:, t] @ w["Wr"] + hm @ w["Ur"] + w["br"])
        c = np.tanh(x[:, t] @ w["Wh"] + (r * hm) @ w["Uh"] + w["bh"])
        h = np.where(mask[:, t, None], (1.0 - z) * h + z * c, h)
        np.testing.assert_allclose(states.data[:, t], h, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(last.data, states.data[:, -1])


def check_all_states_gradient(mask):
    """Float64 grad check of a loss over every state, as attention reads them,
    with recurrent dropout; x and h0 are checked parameters too."""
    b, steps = mask.shape
    gru = make_gru(3, 4, seed=8, p=0.5)
    rng = np.random.default_rng(9)
    x = Parameter("x", rng.normal(size=(b, steps, 3)))
    h0 = Parameter("h0", rng.normal(size=(b, 4)))
    coef = Tensor(rng.normal(size=(b, steps, 4)))

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
    """States, last and every gradient of a loss over all states and the last state."""
    rng = np.random.default_rng(dropout_seed + 1)
    coef = Tensor(rng.normal(size=(*mask.shape, gru.units)).astype(x.dtype))
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
    """States of a plain loop that multiplies each step's live inputs by
    [W_z|W_r|W_h] itself, with the fused op's float operations in its order."""
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
            a = x[sel, t] @ W
            a += bias
            zr = (np.tanh((a[:, :2 * u] + hm @ U_zr) * 0.5) + 1.0) * 0.5
            z, r = zr[:, :u], zr[:, u:]
            c = np.tanh(a[:, 2 * u:] + (r * hm) @ gru.U_h.data)
            h[sel] = (c - h[sel]) * z + h[sel]
        states[:, t] = h
    return states


def per_step_grads(gru, x, mask, h0, drop, g):
    """Gradients of a plain BPTT for the upstream state gradient ``g``
    [b, T, u], with the fused op's float operations in its order: the live
    positions packed time-major, one [k, .] product per step, and the
    weight and input gradients one product over all packed positions.
    ``drop`` is the dropout mask or None. Returns the W, U and b gradients
    by parameter name, the h0 gradient and the dense input's gradient."""
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
        a = x[sel, t] @ W
        a += bias
        zr = (np.tanh((a[:, :2 * u] + hm @ U_zr) * 0.5) + 1.0) * 0.5
        z, r = zr[:, :u], zr[:, u:]
        rh = r * hm
        c = np.tanh(a[:, 2 * u:] + rh @ U_h)
        h[sel] = (c - h_prev) * z + h_prev
        for buf, val in zip((xs, zs, rs, cs, hms, rhs, h_prevs), (x[sel, t], z, r, c, hm, rh, h_prev)):
            buf.append(val)
    X, Z, R, C, HM, RH, H_prev = (np.concatenate(buf) for buf in (xs, zs, rs, cs, hms, rhs, h_prevs))
    da = np.empty((X.shape[0], 3 * u), dtype=x.dtype)
    ends = np.cumsum([sel.size for sel in sels]).tolist()
    dh = np.zeros((b, u), dtype=x.dtype)
    for t in range(steps - 1, -1, -1):
        dh += g[:, t]
        sel = sels[t]
        if not sel.size:
            continue
        lo, hi = ends[t] - sel.size, ends[t]
        dh_t = dh[sel]
        z, r, c = Z[lo:hi], R[lo:hi], C[lo:hi]
        da[lo:hi, 2 * u:] = (dh_t * z) * (1.0 - c * c)
        drh = da[lo:hi, 2 * u:] @ U_h.T
        da[lo:hi, :u] = (dh_t * (c - H_prev[lo:hi])) * (z * (1.0 - z))
        da[lo:hi, u:2 * u] = (drh * HM[lo:hi]) * (r * (1.0 - r))
        dhm = drh * r
        dhm += da[lo:hi, :2 * u] @ U_zr.T
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
        assert states.data.tobytes() == per_step_states(gru, dense, mask, h0, drop).tobytes()

    @pytest.mark.parametrize("form", ["dense", "index"])
    @pytest.mark.parametrize("p", [0.5, 0.0], ids=["dropout", "no_dropout"])
    @pytest.mark.parametrize("mask", INDEX_MASKS.values(), ids=INDEX_MASKS.keys())
    def test_gradients_equal_per_step_bptt_bitwise(self, mask, p, form):
        mask = mask_of(mask)
        b = mask.shape[0]
        gru = make_gru(64, 16, dtype=np.float32, p=p, seed=34)
        rows, index, dense = index_case(mask, 9, 64, seed=35)
        rng = np.random.default_rng(36)
        h0 = Tensor(rng.normal(size=(b, 16)).astype(np.float32), requires_grad=True)
        g = rng.normal(size=(*mask.shape, 16)).astype(np.float32)
        x, idx = (rows, index) if form == "index" else (dense, None)
        x = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            states, _ = gru.forward(x, mask=mask, h0=h0, train=True, index=idx,
                                    rng=np.random.default_rng(5))
            loss = T.sum_all(T.mul(states, Tensor(g)))
        tape.backward(loss)
        drop = None
        if p:
            drop = (np.random.default_rng(5).random((b, 16)) < 0.5).astype(np.float32) / np.float32(0.5)
        grads, dh0, dx = per_step_grads(gru, dense, mask, h0.data, drop, g)
        for param in gru.parameters():
            assert param.grad.tobytes() == grads[param.name].tobytes(), param.name
        assert h0.grad.tobytes() == dh0.tobytes()
        if form == "index":
            expected = np.zeros_like(rows)
            np.add.at(expected, index[mask], dx[mask])
            dx = expected
        assert x.grad.tobytes() == dx.tobytes()

    def test_second_backward_over_one_recorded_op_rejected(self):
        gru = make_gru(3, 4, p=0.5)
        rng = np.random.default_rng(37)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        with Tape() as tape:
            states, _ = gru.forward(x, train=True, rng=np.random.default_rng(38))
            loss = T.sum_all(T.mul(states, Tensor(rng.normal(size=(2, 5, 4)))))
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
        coef = Tensor(rng.normal(size=(*mask.shape, 4)))

        def forward():
            states, _ = gru.forward(r, mask=mask, h0=h0, index=index, train=True,
                                    rng=np.random.default_rng(99))
            return T.sum_all(T.mul(states, coef))

        assert grad_check(forward, gru.parameters() + [r, h0]) < 1e-4

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
        assert states.data.tobytes() == per_step_states(gru, dense, mask, h0, drop).tobytes()
        assert last.data.tobytes() == states.data[:, -1].tobytes()

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
        projected = None
        if form == "projected":  # the rows are the rows `ids` of a larger table
            table = rng.normal(size=(20, d)).astype(np.float32)
            ids = rng.choice(20, size=9, replace=False)
            table[ids] = rows
            projected = (gru.project(table), ids)
        results = []
        for keep_states in (True, False):
            x = Tensor((dense if form == "dense" else rows).copy(), requires_grad=True)
            h = Tensor(h0.copy(), requires_grad=True)
            for param in gru.parameters():
                param.zero_grad()
            kwargs = dict(mask=mask, h0=h, train=train, rng=np.random.default_rng(5),
                          index=None if form == "dense" else index, keep_states=keep_states)
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


# attention masks: gaps inside a row, left padding, and an all-padded row
ATTENTION_MASKS = {
    "interior_gaps": ["x.x.xx", ".xx..x", "xxxxxx"],
    "left_padding": ["..xxxx", "...xxx", ".....x"],
    "all_padded_row": ["xx.xxx", "......", ".x.x.x"],
}


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

    def test_interior_masked_positions_exactly_zero(self):
        att = AttentionLayer(2, rng=np.random.default_rng(9), dtype=np.float64)
        states = np.random.default_rng(10).normal(size=(2, 3, 2))
        mask = np.array([[True, False, True], [True, True, False]])
        _, w = att.forward(Tensor(states), mask)
        assert w.data[0, 1] == 0.0
        assert w.data[1, 2] == 0.0
        np.testing.assert_allclose(w.data.sum(axis=1), [1.0, 1.0], atol=1e-6)

    def test_context_is_weighted_state_sum(self):
        att = AttentionLayer(3, rng=np.random.default_rng(11), dtype=np.float64)
        states = np.arange(12.0).reshape(1, 4, 3) / 12.0
        out, w = att.forward(Tensor(states), np.ones((1, 4), dtype=bool))
        np.testing.assert_allclose(out.data, (states * w.data[:, :, None]).sum(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("rows", ATTENTION_MASKS.values(), ids=ATTENTION_MASKS.keys())
    def test_matches_plain_oracle(self, rows):
        mask = mask_of(rows)
        att = AttentionLayer(4, rng=np.random.default_rng(12), dtype=np.float64)
        states = np.random.default_rng(13).normal(size=(*mask.shape, 4))
        context, weights = attention_oracle(states, mask, att.W_a.data, att.v_a.data[:, 0])
        out, w = att.forward(Tensor(states), mask)
        assert out.dtype == w.dtype == np.float64
        np.testing.assert_allclose(w.data, weights, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.data, context, rtol=1e-12, atol=1e-12)

    def test_all_padded_row_gives_zero_context_and_gradient(self):
        # an empty text is an all-padded row: like the last-state readout's
        # zero h0, it reads as zeros and sends back no gradient
        att = AttentionLayer(2, rng=np.random.default_rng(6), dtype=np.float64)
        rng = np.random.default_rng(14)
        states = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        coef = Tensor(rng.normal(size=(1, 2)))
        with Tape() as tape:
            out, w = att.forward(states, np.zeros((1, 3), dtype=bool))
            loss = T.sum_all(T.mul(out, coef))
        tape.backward(loss)
        assert (out.data == 0.0).all() and (w.data == 0.0).all()
        for grad in (states.grad, att.W_a.grad, att.v_a.grad):
            assert grad is not None and (grad == 0.0).all()

    def test_all_padded_row_leaves_other_rows_unchanged(self):
        att = AttentionLayer(3, rng=np.random.default_rng(15), dtype=np.float64)
        states = np.random.default_rng(16).normal(size=(3, 4, 3))
        mask = mask_of(["x.xx", "....", ".xxx"])
        out, w = att.forward(Tensor(states), mask)
        alone, w_alone = att.forward(Tensor(states[[0, 2]]), mask[[0, 2]])
        assert (out.data[1] == 0.0).all() and (w.data[1] == 0.0).all()
        np.testing.assert_allclose(out.data[[0, 2]], alone.data, rtol=1e-12)
        np.testing.assert_allclose(w.data[[0, 2]], w_alone.data, rtol=1e-12)

    def test_rejects_bad_input(self):
        att = AttentionLayer(2, rng=np.random.default_rng(17), dtype=np.float64)
        states = np.zeros((2, 3, 2))
        mask = np.ones((2, 3), dtype=bool)
        with pytest.raises(ShapeError):
            att.forward(Tensor(states[0]), mask)
        with pytest.raises(ShapeError):
            att.forward(Tensor(states), mask[:, :2])
        with pytest.raises(ContractError):
            att.forward(Tensor(states, dtype=np.float32), mask)
        # an Inf among zero states keeps every score finite (tanh saturates),
        # so only the context shows it; the suite turns RuntimeWarning into
        # an error, so a warning from numpy would surface instead
        for bad in (np.nan, np.inf, -np.inf):
            states[1, 2, 0] = bad
            with pytest.raises(NumericError):
                att.forward(Tensor(states), mask)
        mask[1, 2] = False  # a padded position is never read
        out, _ = att.forward(Tensor(states), mask)
        assert np.isfinite(out.data).all()

    def test_blocked_gather_equals_one_gather_bitwise(self):
        # the forward gathers the live states a block of rows at a time; the
        # context and weights keep the bits of one gather of all of them
        att = AttentionLayer(128, rng=np.random.default_rng(19))
        rng = np.random.default_rng(20)
        b, steps = 2 * AttentionLayer.GATHER_ROWS + 5, 40
        states = rng.normal(size=(b, steps, 128)).astype(np.float32)
        mask = np.arange(steps)[None, :] >= rng.integers(0, steps + 1, size=b)[:, None]  # left padding
        mask[3] = rng.random(steps) < 0.5  # interior gaps
        mask[7] = False  # an all-padded row
        live = states[mask]
        e = (np.tanh(live @ att.W_a.data) @ att.v_a.data)[:, 0]
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
                context[i] = w[lo:lo + counts[i]] @ live[lo:lo + counts[i]]
        out, out_weights = att.forward(Tensor(states), mask)
        with Tape():
            recorded, _ = att.forward(Tensor(states, requires_grad=True), mask)
        for got in (out, recorded):
            np.testing.assert_array_equal(got.data, context)
        np.testing.assert_array_equal(out_weights.data, weights)

    def test_records_one_tape_op(self):
        att = AttentionLayer(3, rng=np.random.default_rng(18))
        states = Tensor(np.zeros((2, 4, 3), dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            att.forward(states, np.ones((2, 4), dtype=bool))
        assert len(tape) == 1

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

    @pytest.mark.parametrize("rows", ATTENTION_MASKS.values(), ids=ATTENTION_MASKS.keys())
    def test_grad_check_states(self, rows):
        mask = mask_of(rows)
        att = AttentionLayer(3, rng=np.random.default_rng(19), dtype=np.float64)
        rng = np.random.default_rng(20)
        states = Parameter("states", Tensor(rng.normal(size=(*mask.shape, 3)), dtype=np.float64))
        coef = Tensor(rng.normal(size=(mask.shape[0], 3)))

        def forward():
            out, _ = att.forward(states, mask)
            return T.sum_all(T.mul(out, coef))

        assert grad_check(forward, [*att.parameters(), states]) < 1e-4
        with Tape() as tape:
            loss = forward()
        tape.backward(loss)
        assert (states.grad[~mask] == 0.0).all()


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
