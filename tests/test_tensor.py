import tracemalloc

import numpy as np
import pytest

from abusenet import tensor as T
from abusenet.layers import DenseLayer
from abusenet.tensor import (
    ContractError,
    NumericError,
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    grad_check,
)


def matmul_oracle(a, b):
    # independent triple-loop product
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += float(a[i, l]) * float(b[l, j])
            out[i, j] = acc
    return out


def softmax_oracle(row):
    row = np.asarray(row, dtype=np.float64)
    e = np.exp(row)
    return e / e.sum()


def dense(W, b=None, activation="identity", name="dense"):
    """A DenseLayer holding ``W`` and ``b`` (zero when None), in W's dtype."""
    W = np.asarray(W)
    layer = DenseLayer(*W.shape, activation=activation, name=name, dtype=W.dtype)
    layer.W.data[...] = W
    if b is not None:
        layer.b.data[...] = b
    return layer


def softmax(x, shift=None):
    """Rows of ``x`` through a softmax DenseLayer with W = I, so y = softmax(x + shift)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return dense(np.eye(x.shape[1]), shift, activation="softmax").forward(Tensor(x)).data


class TestMatmul:
    """The x @ W product inside DenseLayer's fused op (identity activation, zero bias)."""

    def test_identity(self):
        a = Tensor(np.eye(2))
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(dense(b).forward(a).data, b)

    def test_zeros_annihilate(self):
        a = Tensor(np.zeros((2, 3)))
        b = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(dense(b).forward(a).data, np.zeros((2, 2)))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        got = dense(b).forward(Tensor(a, dtype=np.float64)).data
        np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            dense(np.zeros((2, 3))).forward(Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(e.value) and "[batch, 2]" in str(e.value)

    def test_backward(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        layer = dense(rng.normal(size=(3, 4)))
        with Tape() as tape:
            c = layer.forward(a)
            loss = T.sum_all(c)
        tape.backward(loss)
        g = np.ones((2, 4))
        np.testing.assert_allclose(a.grad, g @ layer.W.data.T, rtol=1e-6)
        np.testing.assert_allclose(layer.W.grad, a.data.T @ g, rtol=1e-6)
        np.testing.assert_array_equal(layer.b.grad, g.sum(axis=0))


class TestSoftmax:
    """The softmax activation of DenseLayer's fused op, read through W = I."""

    def test_uniform_on_equal_inputs(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [[1 / 3] * 3], atol=1e-7)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 2.0], dtype=np.float64)
        np.testing.assert_allclose(softmax(x), softmax(x, shift=5.0), atol=1e-7)

    def test_matches_direct_formula(self):
        got = softmax([1.0, 2.0, 3.0])[0]
        np.testing.assert_allclose(got, softmax_oracle([1.0, 2.0, 3.0]), rtol=1e-14)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_rejects_nonfinite(self):
        # the non-finite value arrives through the bias, past a finite product
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericError, match="softmax input contains NaN or Inf"):
                softmax([0.0, 1.0], shift=[bad, 0.0])

    def test_deterministic(self):
        x = np.random.default_rng(9).normal(size=(4, 4))
        np.testing.assert_array_equal(softmax(x), softmax(x))


class TestCheckIndex:
    @pytest.mark.parametrize("idx", [np.array([0.0, 1.0]), np.array([True]), np.array([], dtype=np.float32)],
                             ids=["float", "bool", "empty_float"])
    def test_non_integers_rejected(self, idx):
        with pytest.raises(ContractError, match="row array must hold integers"):
            T.check_index(idx, 4, "row")

    @pytest.mark.parametrize("idx, bad", [
        (np.array([[0, 3], [-2, 4]]), -2),
        (np.array([1, 5, -1, 9]), 5),
        (np.array([[3, 3], [3, 7]], dtype=np.int8), 7),
        (np.array([2**40, -1]), 2**40),
    ], ids=["negative", "first_of_two", "too_large", "first_of_huge"])
    def test_names_the_first_offender_row_major(self, idx, bad):
        with pytest.raises(IndexError, match=rf"^row {bad} out of range \[0, 4\)$"):
            T.check_index(idx, 4, "row")

    @pytest.mark.parametrize("idx", [np.array([], dtype=np.int64), np.zeros((2, 0), dtype=np.int32),
                                     np.array([[0, 3], [1, 2]], dtype=np.uint8)],
                             ids=["empty", "empty_2d", "in_range"])
    def test_integer_ids_in_range_pass(self, idx):
        T.check_index(idx, 4, "row")
        T.check_index(idx[:0], 0, "row")  # nothing to index into an empty table


class TestGatherRows:
    def test_first_row(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(table, np.array([0]))
        np.testing.assert_array_equal(out.data, table.data[:1])

    def test_repeated_index_accumulates(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with Tape() as tape:
            out = T.gather_rows(table, np.array([3, 3]))
            loss = T.sum_all(out)
        tape.backward(loss)
        np.testing.assert_array_equal(table.grad[3], np.full(3, 2.0))
        np.testing.assert_array_equal(table.grad[:3], np.zeros((3, 3)))

    def test_out_of_range_reports_value(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError) as e:
            T.gather_rows(table, np.array([1, 9]))
        assert "9" in str(e.value)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        p = Parameter("table", Tensor(rng.normal(size=(5, 3)), dtype=np.float64))
        idx = np.array([0, 2, 2, 4])
        coef = rng.normal(size=(4, 3))

        def forward():
            out = T.gather_rows(p, idx)
            return T.sum_all(T.mul(out, Tensor(coef, dtype=np.float64)))

        assert grad_check(forward, [p]) < 1e-7


    @pytest.mark.parametrize("existing_grad", [False, True])
    def test_backward_equals_add_at_bitwise(self, existing_grad):
        # rows summed in another order than np.add.at's would differ in float32
        rng = np.random.default_rng(12)
        V, d, n = 40, 6, 300
        idx = rng.integers(1, V, size=n)
        idx[rng.random(n) < 0.4] = 0  # heavily repeated pad index
        g = (rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))).astype(np.float32)
        g[::13] = -0.0
        table = Tensor(rng.normal(size=(V, d)).astype(np.float32), requires_grad=True)
        start = rng.normal(size=(V, d)).astype(np.float32) if existing_grad else np.zeros((V, d), np.float32)
        expected = start.copy()
        np.add.at(expected, idx, g)
        if existing_grad:
            table.grad = start.copy()
        with Tape() as tape:
            out = T.gather_rows(table, idx)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        tape.backward(loss)
        assert table.grad.dtype == np.float32
        assert table.grad.tobytes() == expected.tobytes()

    def test_nd_ids_roundtrip(self):
        # ids of any rank give [*ids.shape, d]; backward scatters the same rows
        rng = np.random.default_rng(13)
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = np.array([[[1, 0], [5, 1]], [[0, 0], [2, 5]]])
        coef = rng.normal(size=(*ids.shape, 3))
        with Tape() as tape:
            out = T.gather_rows(table, ids, padding_idx=0)
            loss = T.sum_all(T.mul(out, Tensor(coef)))
        tape.backward(loss)
        assert out.shape == (2, 2, 2, 3)
        expected = np.where((ids == 0)[..., None], 0.0, table.data[ids])
        np.testing.assert_array_equal(out.data, expected)
        grad = np.zeros((6, 3))
        np.add.at(grad, ids[ids != 0], coef[ids != 0])
        np.testing.assert_array_equal(table.grad, grad)

    @pytest.mark.parametrize("ids", [np.zeros((2, 3), dtype=np.intp), np.zeros(0, dtype=np.intp)],
                             ids=["all_padding", "empty"])
    def test_no_live_ids_leave_the_grad_zero(self, ids):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            out = T.gather_rows(table, ids, padding_idx=0)
            loss = T.sum_all(T.mul(out, Tensor(np.ones((*ids.shape, 2)))))
        tape.backward(loss)
        assert table.grad.tobytes() == np.zeros((3, 2)).tobytes()

    def test_rejects_table_not_2d(self):
        with pytest.raises(ShapeError, match="2-d table"):
            T.gather_rows(Tensor(np.zeros(6)), np.array([[1, 2]]))


class TestScatterAddRows:
    """``scatter_add_rows`` against ``np.add.at`` as the oracle, byte for byte."""

    @staticmethod
    def grads(rng, n, d, dtype):
        # magnitudes spread wide, so rows summed in another order would differ
        g = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))
        g = g.astype(dtype)
        g[rng.random(g.shape) < 0.1] = -0.0
        return g

    @staticmethod
    def start(rng, V, d, dtype, existing):
        out = (rng.normal(size=(V, d)) if existing else np.zeros((V, d))).astype(dtype)
        out[0] = -0.0  # an untouched or touched row holding signed zeros
        return out

    def check(self, out, idx, g, rows=None):
        expected = out.copy()
        np.add.at(expected, idx, g if rows is None else g[rows])
        T.scatter_add_rows(out, idx, g, rows=rows)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 3, 40])
    @pytest.mark.parametrize("existing", [False, True], ids=["zero", "existing"])
    @pytest.mark.parametrize("mapped", [False, True], ids=["in_order", "rows_map"])
    def test_equals_add_at_bitwise(self, dtype, d, existing, mapped):
        rng = np.random.default_rng(d)
        V = 12
        # index 3 is repeated many times, the rest are drawn at random
        idx = np.concatenate([np.full(53, 3), rng.integers(0, V, size=60)])
        idx = idx[rng.permutation(idx.size)]
        g = self.grads(rng, idx.size + 7, d, dtype)
        # a map reads the positions' rows out of order, and not all of them
        rows = rng.permutation(g.shape[0])[:idx.size] if mapped else None
        self.check(self.start(rng, V, d, dtype, existing), idx, g if mapped else g[:idx.size], rows)

    @pytest.mark.parametrize("d", [1, 3, 40])
    def test_chunks_add_in_position_order(self, d):
        # two chunk boundaries; index 5 repeats on both sides of the first
        rng = np.random.default_rng(30 + d)
        step = T.SCATTER_CHUNK // d
        V = 50
        idx = rng.integers(0, V, size=2 * step + 9)
        idx[step - 3:step + 3] = 5
        g = self.grads(rng, idx.size, d, np.float32)
        self.check(self.start(rng, V, d, np.float32, True), idx, g)

    def test_int32_ids(self):
        rng = np.random.default_rng(33)
        idx = rng.integers(0, 9, size=200).astype(np.int32)
        g = self.grads(rng, 200, 5, np.float32)
        self.check(self.start(rng, 9, 5, np.float32, True), idx, g, rows=rng.permutation(200))

    @pytest.mark.parametrize("mapped", [False, True], ids=["in_order", "rows_map"])
    def test_increasing_ids_onto_existing_rows(self, mapped):
        # distinct ids in ascending order: one fancy add, same bits
        rng = np.random.default_rng(34)
        idx = np.array([0, 2, 3, 7, 11])
        g = self.grads(rng, 8, 6, np.float32)
        rows = np.array([7, 0, 4, 1, 5]) if mapped else None
        self.check(self.start(rng, 12, 6, np.float32, True), idx, g if mapped else g[:5], rows)

    def test_rejects_out_not_c_contiguous(self):
        out = np.zeros((3, 4), order="F")
        with pytest.raises(ContractError, match="C-contiguous"):
            T.scatter_add_rows(out, np.array([1, 1]), np.ones((2, 4)))

    def test_peak_memory_at_train_short_size(self):
        # a view-B GRU input gradient at train-short's size: 11.7k positions
        # on 6.8k distinct rows of 200 float32, through a map of their rows;
        # one unchunked flat np.add.at would hold 26.8 MiB here
        rng = np.random.default_rng(35)
        V, n, d = 6800, 11700, 200
        idx = rng.permutation(np.concatenate([np.arange(V), rng.integers(0, V, size=n - V)]))
        rows = rng.permutation(n)
        g = rng.normal(size=(n, d)).astype(np.float32)
        out = np.zeros((V, d), dtype=np.float32)
        tracemalloc.start()
        try:
            T.scatter_add_rows(out, idx, g, rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestConcatLast:
    def test_simple(self):
        out = T.concat_last(Tensor([[1.0, 2.0]]), Tensor([[3.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_empty_right_is_neutral(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = T.concat_last(x, Tensor(np.zeros((2, 0))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_128_plus_128(self):
        a = Tensor(np.zeros((4, 128)))
        b = Tensor(np.ones((4, 128)))
        assert T.concat_last(a, b).shape == (4, 256)

    def test_backward_splits_at_offset(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            out = T.concat_last(a, b)
            loss = T.sum_all(T.mul(out, Tensor(np.arange(10.0).reshape(2, 5))))
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])

    def test_leading_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat_last(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-6)

    def test_unused_parameter_gets_no_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        p = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        assert p.grad is None  # treated as zero

    def test_nontrainable_parameters_still_receive_grads(self):
        p = Parameter("w", np.ones(3), trainable=False)
        with Tape() as tape:
            loss = T.sum_all(T.mul(p, p))
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0 * np.ones(3))

    def test_scalar_loss_required(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            y = T.add(x, x)
            loss = T.sum_all(y)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_cleared_tape_is_empty(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            T.mul(x, x)
        assert len(tape) == 1
        tape.clear()
        assert len(tape) == 0

    def test_out_of_order_exit_is_a_contract_error(self):
        outer, inner = Tape(), Tape()
        outer.__enter__()
        inner.__enter__()
        try:
            with pytest.raises(ContractError, match="reverse order"):
                outer.__exit__(None, None, None)
            assert T.active_tape() is inner  # the stack is left as it was
        finally:
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)
        assert T.active_tape() is None

    def test_inference_records_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        T.mul(x, x)  # no tape entered
        x2 = Tensor(np.ones(3))
        with Tape() as tape:
            T.mul(x2, x2)  # no grads required anywhere
        assert len(tape) == 0


class TestGradCheck:
    def test_linear_layer_tight(self):
        rng = np.random.default_rng(5)
        layer = dense(rng.normal(size=(3, 2)))
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float64))

        def forward():
            return T.mean_all(layer.forward(x))

        assert grad_check(forward, layer.parameters()) < 1e-7

    def test_nonlinear_chain(self):
        rng = np.random.default_rng(6)
        hidden = dense(rng.normal(size=(3, 3)), activation="tanh", name="hidden")
        out = dense(rng.normal(size=(3, 3)), rng.normal(size=3), activation="softmax", name="out")
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float64))

        def forward():
            s = out.forward(hidden.forward(x))
            return T.mean_all(T.mul(s, s))

        assert grad_check(forward, hidden.parameters() + out.parameters()) < 1e-6

    def test_rejects_float32(self):
        w = Parameter("w", Tensor(np.zeros((2, 2)), dtype=np.float32))
        with pytest.raises(ContractError):
            grad_check(lambda: T.sum_all(w), [w])


class TestShapeAlgebra:
    def test_mixed_dtype_rejected(self):
        with pytest.raises(ContractError):
            T.add(Tensor(np.zeros(2), dtype=np.float32), Tensor(np.zeros(2), dtype=np.float64))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
