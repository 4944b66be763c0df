"""Neural layers: word embedding, GRU, additive attention, dense, batch norm.

Layers own Parameters and record each forward call as one fused tape op
(the GRU adds a second for its last-state readout); a layer instance is
single-threaded. Weight init is Glorot-uniform with zero biases, drawn from a
caller-supplied numpy Generator so builds are reproducible.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ContractError,
    NumericError,
    Parameter,
    ShapeError,
    Tensor,
    _accum,
    _check_dtypes,
    _scatter_add_rows,
    active_tape,
    gather_rows,
    op_output,
)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None, dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out)).astype(dtype, copy=False)


class ZeroDraws:
    """Takes a weight ``Generator``'s place where every weight is about to be
    overwritten, as a checkpoint's read does: each draw is zeros."""

    @staticmethod
    def uniform(low, high, size) -> np.ndarray:
        return np.zeros(size, dtype=np.float32)


class EmbeddingLayer:
    """Token-index lookup table. Row 0 is the padding row, zero at init.

    Padding positions read a zero vector and take no part in the backward
    scatter, so the padding row's gradient is exactly zero and the row stays
    zero under training. The layer keeps the ``table`` it is given, not a
    copy, and zeroes its padding row: every caller passes a fresh array.
    """

    pad_index = 0

    def __init__(self, table: np.ndarray, name: str = "embedding"):
        table[self.pad_index] = 0.0
        self.table = Parameter(f"{name}.table", table)

    @classmethod
    def random(cls, vocab_size: int, dim: int, rng: np.random.Generator | None = None,
               name: str = "embedding") -> "EmbeddingLayer":
        rng = rng or np.random.default_rng(0)
        table = rng.uniform(-0.05, 0.05, size=(vocab_size, dim)).astype(np.float32)
        return cls(table, name=name)

    @property
    def dim(self) -> int:
        return self.table.data.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.table.data.shape[0]

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Rows of integer ids of any shape: [n] -> [n, dim], [batch, T] -> [batch, T, dim]."""
        return gather_rows(self.table, token_ids, padding_idx=self.pad_index)

    def parameters(self) -> list[Parameter]:
        return [self.table]


class GRULayer:
    """GRU over [batch, T, d] input with variational recurrent dropout.

    Gate convention:
        z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
        r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
        c_t = tanh(x_t W_h + (r_t * h_{t-1}) U_h + b_h)
        h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    In training mode a single per-sample dropout mask (keep prob 1-p, scaled
    by 1/(1-p)) multiplies h_{t-1} inside the three recurrent products; the
    mask is identical across timesteps. Padding positions (mask False) carry
    the state through unchanged, so left-padding can never perturb the state.
    """

    def __init__(self, input_dim: int, units: int, recurrent_dropout: float,
                 rng: np.random.Generator | None = None, name: str = "gru", dtype=np.float32):
        if not 0.0 <= recurrent_dropout < 1.0:
            raise ContractError(f"recurrent_dropout must be in [0, 1), got {recurrent_dropout}")
        rng = rng or np.random.default_rng(0)
        self.units = units
        self.input_dim = input_dim
        self.recurrent_dropout = float(recurrent_dropout)

        def w(gate):
            return Parameter(f"{name}.W_{gate}", glorot_uniform(rng, input_dim, units, dtype=dtype))

        def u(gate):
            return Parameter(f"{name}.U_{gate}", glorot_uniform(rng, units, units, dtype=dtype))

        def bias(gate):
            return Parameter(f"{name}.b_{gate}", np.zeros(units, dtype=dtype))

        self.W_z, self.W_r, self.W_h = w("z"), w("r"), w("h")
        self.U_z, self.U_r, self.U_h = u("z"), u("r"), u("h")
        self.b_z, self.b_r, self.b_h = bias("z"), bias("r"), bias("h")

    def parameters(self) -> list[Parameter]:
        return [self.W_z, self.W_r, self.W_h, self.U_z, self.U_r, self.U_h,
                self.b_z, self.b_r, self.b_h]

    def input_parameters(self) -> list[Parameter]:
        """The parameters ``project`` reads."""
        return [self.W_z, self.W_r, self.W_h, self.b_z, self.b_r, self.b_h]

    def project(self, rows: np.ndarray) -> np.ndarray:
        """Each row's gate inputs, ``rows @ [W_z|W_r|W_h] + [b_z|b_r|b_h]``
        [m, 3 units], every row by gemm."""
        P = _gemm_rows(rows, np.concatenate([self.W_z.data, self.W_r.data, self.W_h.data], axis=1))
        P += np.concatenate([self.b_z.data, self.b_r.data, self.b_h.data])
        return P

    def forward(self, x: Tensor, mask: np.ndarray | None = None, h0: Tensor | None = None,
                train: bool = False, rng: np.random.Generator | None = None,
                index: np.ndarray | None = None, projected: tuple | None = None,
                keep_states: bool = True):
        """Run the recurrence; returns (all_states [b,T,units], last [b,units]).

        With ``keep_states`` off it returns (None, last): the recurrence is
        one op whose output is the last state, and no [b, T, units] states
        or gradient for them exist. A readout that reads only the last
        state, as the text path's does without attention, asks for that.

        ``x`` is the input [b, T, d]; or, with ``index`` [b, T], a table of
        rows [m, d] that position (i, t) reads as ``x[index[i, t]]``. Only
        live (mask True) positions are read, so padded ones may hold any
        index. Each row (in the dense form, each position's) is projected
        onto the gates once. ``projected``, with ``index``, is ``(P, ids)``:
        ``P`` is ``project`` of a larger table whose row ``ids[j]`` is ``x``'s
        row j. A call that records no tape then reads its steps' gate inputs
        from ``P`` instead of projecting ``x``; a call that records ignores it.
        """
        if index is None:
            if x.data.ndim != 3:
                raise ShapeError(f"gru expects [batch, T, d] input, got {x.shape}")
            b, steps, d = x.shape
            index = np.arange(b * steps).reshape(b, steps)  # each position reads its own row
        else:
            index = np.asarray(index)
            if x.data.ndim != 2 or index.ndim != 2:
                raise ShapeError(f"gru expects [m, d] rows and a [batch, T] index, "
                                 f"got {x.shape} and {index.shape}")
            if not np.issubdtype(index.dtype, np.integer):
                raise ContractError("gru index must hold integers")
            (b, steps), d = index.shape, x.shape[1]
        if steps == 0:
            raise ContractError("gru received an empty sequence (T=0)")
        if d != self.input_dim:
            raise ShapeError(f"gru built for input dim {self.input_dim}, got {d}")
        if mask is None:
            mask = np.ones((b, steps), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (b, steps):
                raise ShapeError(f"gru mask shape {mask.shape} does not match input {(b, steps)}")

        h = h0 if h0 is not None else Tensor(np.zeros((b, self.units), dtype=x.dtype))
        if h.shape != (b, self.units):
            raise ShapeError(f"h0 shape {h.shape} does not match [batch, units]={(b, self.units)}")

        drop = None
        if train and self.recurrent_dropout > 0.0:
            if rng is None:
                raise ContractError("training-mode gru with dropout needs an rng")
            keep = 1.0 - self.recurrent_dropout
            drop = (rng.random((b, self.units)) < keep).astype(x.dtype) / x.dtype.type(keep)

        states = self._recurrence(x, index, mask, h, drop, projected, keep_states)
        if not keep_states:
            return None, states

        def back_last(g):
            full = np.zeros_like(states.data)
            full[:, -1] = g
            _accum(states, full, owned=True)

        return states, op_output(states.data[:, -1].copy(), (states,), back_last)

    def _recurrence(self, x: Tensor, index: np.ndarray, mask: np.ndarray, h0: Tensor,
                    drop: np.ndarray | None, projected: tuple | None, keep_states: bool) -> Tensor:
        """The whole recurrence as one tape op returning the states [b, T, units],
        or with ``keep_states`` off the last state [b, units].

        Every row is projected once, ``P = rows @ [W_z|W_r|W_h] + b`` (a call
        that records no tape reads a given ``projected`` table instead), and
        a step with more than one live (mask True) row gathers its rows of P.
        A one-row step multiplies its own row: numpy sends a one-row product
        to gemv, which rounds differently from P's gemm rows. A step without
        padding works on whole [b, .] slices, a step with some padded rows
        gathers the live ones, one with none is skipped, and padded rows
        carry h unchanged. Per step: one recurrent matmul against [U_z|U_r],
        and (r * h * drop) U_h. Each product is a contiguous [k, .] array
        that accumulates its columns of the gathered [k, 3u] projection, and
        the sigmoid, tanh and state update run in place on it: passes over a
        column view of the projection cost 2-4x, and IEEE addition commutes,
        so the bits are those of adding the product into the view.
        When a tape records the op, the live rows' inputs, gates and products
        are kept packed time-major, z and r in their own [n, u] buffers so
        that backward's per-step arithmetic reads contiguous rows; h * drop,
        the sigmoid's last halving (z and r), r * h * drop, its U_h product
        and c - h are computed straight into their packed rows.
        Backward is a reverse loop with two recurrent matmuls per step, after
        which the gradients of the packed inputs, W, U_z|U_r and U_h are one
        matmul each; the inputs' gradient is then scatter-added into the rows
        straight from the packed product, through a map of its rows. Backward
        first turns the recorded c into 1 - c^2 in one pass, so it runs once:
        a second run raises ContractError.
        """
        inputs = (x, h0, *self.parameters())
        _check_dtypes(*inputs)
        b, steps = mask.shape
        u, d = self.units, self.input_dim
        rows = x.data.reshape(-1, d)
        W = np.concatenate([self.W_z.data, self.W_r.data, self.W_h.data], axis=1)
        bias = np.concatenate([self.b_z.data, self.b_r.data, self.b_h.data])
        U_zr = np.concatenate([self.U_z.data, self.U_r.data], axis=1)
        U_h = self.U_h.data
        record = active_tape() is not None and any(t.requires_grad for t in inputs)
        # live (mask True) positions in time-major order; step t's live rows
        # are live_b[start[t]:start[t + 1]], its slice of the packed buffers
        live_t, live_b = np.nonzero(mask.T)
        start = np.searchsorted(live_t, np.arange(steps + 1)).tolist()
        n = live_b.size
        src = index[live_b, live_t]  # the input row each live position reads
        if n and (src.min() < 0 or src.max() >= rows.shape[0]):
            raise IndexError(f"gru index outside the {rows.shape[0]} input rows")

        states = np.empty((b, steps, u), dtype=x.dtype) if keep_states else None
        if record:
            x_all = rows[src]
            z_all = np.empty((n, u), dtype=x.dtype)
            r_all = np.empty((n, u), dtype=x.dtype)
            c_all = np.empty((n, u), dtype=x.dtype)
            ch_all = np.empty((n, u), dtype=x.dtype)  # c - h
            hm_all = np.empty((n, u), dtype=x.dtype)  # h * drop
            rh_all = np.empty((n, u), dtype=x.dtype)  # r * h * drop
        if projected is not None and not record:
            P, src_p = projected[0], projected[1][src]  # the table row each live position reads
        else:
            P, src_p = self.project(rows), src
        h = h0.data.copy()
        for t in range(steps):
            lo, hi = start[t], start[t + 1]
            if lo == hi:
                if keep_states:
                    states[:, t] = h
                continue
            if hi - lo == b:
                sel, h_t, drop_t = None, h, drop
            else:
                sel = live_b[lo:hi]
                h_t = h[sel]
                drop_t = None if drop is None else drop[sel]
            if hi - lo > 1:
                a = P[src_p[lo:hi]]
            else:  # by gemv, as numpy computes a one-row product
                a = rows[src[lo:hi]] @ W
                a += bias
            if drop_t is not None:
                hm = np.multiply(h_t, drop_t, out=hm_all[lo:hi] if record else None)
            else:
                hm = h_t
                if record:
                    hm_all[lo:hi] = h_t
            zr = hm @ U_zr
            zr += a[:, :2 * u]
            z, r = _sigmoid(zr, into=(z_all[lo:hi], r_all[lo:hi]) if record else None)
            rh = np.multiply(r, hm, out=rh_all[lo:hi] if record else None)
            c = np.matmul(rh, U_h, out=c_all[lo:hi] if record else None)
            c += a[:, 2 * u:]
            np.tanh(c, out=c)
            ch = np.subtract(c, h_t, out=ch_all[lo:hi] if record else c)
            h_new = np.multiply(ch, z, out=None if record else c)  # reuse c: a fresh array cost 4% at score-long
            h_new += h_t
            if sel is None:
                h = h_new
            else:
                h[sel] = h_new  # padded rows keep h exactly
            if keep_states:
                states[:, t] = h

        used = False

        def back(g):
            nonlocal used
            if used:
                raise ContractError("a gru op's backward runs once: it overwrites what its forward recorded")
            used = True
            np.multiply(c_all, c_all, out=c_all)
            np.subtract(1.0, c_all, out=c_all)  # 1 - c^2, tanh's derivative
            da = np.empty((n, 3 * u), dtype=g.dtype)  # packed pre-activation gradients
            dh = np.zeros((b, u), dtype=g.dtype)
            if not keep_states:
                dh += g  # added to zeros, as the states gradient's last column is
            for t in range(steps - 1, -1, -1):
                if keep_states:
                    dh += g[:, t]
                lo, hi = start[t], start[t + 1]
                if lo == hi:
                    continue
                if hi - lo == b:
                    sel, dh_t, drop_t = None, dh, drop
                else:
                    sel = live_b[lo:hi]
                    dh_t = dh[sel]
                    drop_t = None if drop is None else drop[sel]
                z, r = z_all[lo:hi], r_all[lo:hi]
                one_minus_z = 1.0 - z
                da_t = da[lo:hi]
                np.multiply(dh_t * z, c_all[lo:hi], out=da_t[:, 2 * u:])
                drh = da_t[:, 2 * u:] @ U_h.T
                np.multiply(dh_t * ch_all[lo:hi], z * one_minus_z, out=da_t[:, :u])
                np.multiply(drh * hm_all[lo:hi], r * (1.0 - r), out=da_t[:, u:2 * u])
                dhm = drh * r
                dhm += da_t[:, :2 * u] @ U_zr.T
                if drop_t is not None:
                    dhm *= drop_t
                dhm += dh_t * one_minus_z
                if sel is None:
                    dh = dhm
                else:
                    dh[sel] = dhm  # padded rows pass dh through
            _accum(h0, dh)
            if x.requires_grad:
                # each row sums its positions' gradients in batch-major
                # order, the order a scatter over the flat ids adds them in
                packed = np.empty((steps, b), dtype=np.intp)
                packed[live_t, live_b] = np.arange(n)
                bm = packed.T[mask]  # packed positions, batch-major
                dx = np.zeros(x.shape, dtype=g.dtype)
                _scatter_add_rows(dx.reshape(-1, d), src[bm], da @ W.T, row_map=bm)
                _accum(x, dx, owned=True)
            dW = x_all.T @ da
            db = da.sum(axis=0)
            dU_zr = hm_all.T @ da[:, :2 * u]
            for k, (w, bk) in enumerate(((self.W_z, self.b_z), (self.W_r, self.b_r),
                                         (self.W_h, self.b_h))):
                _accum(w, dW[:, k * u:(k + 1) * u])
                _accum(bk, db[k * u:(k + 1) * u])
            _accum(self.U_z, dU_zr[:, :u])
            _accum(self.U_r, dU_zr[:, u:])
            _accum(self.U_h, rh_all.T @ da[:, 2 * u:])

        return op_output(states if keep_states else h, inputs, back)


def _gemm_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` with every row computed by gemm, so each row's bits do not
    depend on the other rows; numpy sends a one-row product to gemv."""
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ w)[:1]
    return a @ w


def _sigmoid(a: np.ndarray, into: tuple | None) -> tuple[np.ndarray, np.ndarray]:
    """The logistic function in the one-transcendental form 0.5 * (1 + tanh(a / 2)),
    in place on ``a``; returns its two column halves. With ``into``, two
    arrays as wide as a half, the last halving writes the halves there."""
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    k = a.shape[1] // 2
    if into is None:
        a *= 0.5
        return a[:, :k], a[:, k:]
    return np.multiply(a[:, :k], 0.5, out=into[0]), np.multiply(a[:, k:], 0.5, out=into[1])


class AttentionLayer:
    """Additive attention over GRU states: e_t = v . tanh(h_t W), softmax over
    unmasked steps, output is the weighted state sum."""

    GATHER_ROWS = 64  # batch rows whose live states the forward gathers at once

    def __init__(self, units: int, rng: np.random.Generator | None = None,
                 name: str = "attention", dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.units = units
        self.W_a = Parameter(f"{name}.W_a", glorot_uniform(rng, units, units, dtype=dtype))
        self.v_a = Parameter(f"{name}.v_a", glorot_uniform(rng, units, 1, shape=(units, 1), dtype=dtype))

    def parameters(self) -> list[Parameter]:
        return [self.W_a, self.v_a]

    def forward(self, states: Tensor, mask: np.ndarray):
        """Returns (context [b,units], weights [b,T]) as one tape op.

        Only live (mask True) positions are scored: padded ones get weight
        exactly 0 and gradient exactly 0, and a row with no live position
        gets a zero context. ``weights`` is a readout and takes no gradient.
        """
        if states.data.ndim != 3:
            raise ShapeError(f"attention expects [batch, T, units], got {states.shape}")
        b, steps, u = states.shape
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (b, steps):
            raise ShapeError(f"attention mask shape {mask.shape} does not match states {(b, steps)}")
        W, v = self.W_a, self.v_a
        _check_dtypes(states, W, v)
        # live positions row-major: those of rows[k] are live[starts[k]:ends[k]],
        # and those of batch row i start at at[i]
        per_row = np.count_nonzero(mask, axis=1)
        rows = np.flatnonzero(per_row)
        counts = per_row[rows]
        ends = np.cumsum(counts)
        starts = ends - counts
        at = [0, *np.cumsum(per_row).tolist()]
        # a non-finite live state is reported once, as a NumericError: tanh
        # can saturate it into finite scores, but every live state reaches
        # its row's context with a nonnegative weight
        with np.errstate(invalid="ignore", over="ignore"):
            # the live states are gathered a block of rows at a time, so
            # that no [n, u] copy of them sits beside a; backward gathers
            # them once
            a = np.empty((at[-1], u), dtype=states.dtype)
            for i in range(0, b, self.GATHER_ROWS):
                j = min(i + self.GATHER_ROWS, b)
                np.matmul(states.data[i:j][mask[i:j]], W.data, out=a[at[i]:at[j]])
            np.tanh(a, out=a)
            e = (a @ v.data)[:, 0]
            if not np.isfinite(e).all():
                raise NumericError("attention scores contain NaN or Inf")
            e -= np.repeat(np.maximum.reduceat(e, starts), counts)
            w = np.exp(e)
            w /= np.repeat(np.add.reduceat(w, starts), counts)
            context = np.zeros((b, u), dtype=states.dtype)
            # a product per row: np.add.reduceat over the rows of w * live is
            # many times slower
            for i, lo, hi in zip(rows.tolist(), starts.tolist(), ends.tolist()):
                context[i] = w[lo:hi] @ states.data[i, mask[i]]
        if not np.isfinite(context).all():
            raise NumericError("attention context contains NaN or Inf: a live GRU state is not finite")
        weights = np.zeros((b, steps), dtype=states.dtype)
        weights[mask] = w

        def back(g):
            live = states.data[mask]
            g_live = np.repeat(g[rows], counts, axis=0)
            dw = np.einsum("nu,nu->n", live, g_live)
            dw -= np.repeat(np.add.reduceat(w * dw, starts), counts)
            de = w * dw
            _accum(v, a.T @ de[:, None], owned=True)
            dpre = de[:, None] * v.data[:, 0]
            dpre *= 1.0 - a * a
            _accum(W, live.T @ dpre, owned=True)
            if states.requires_grad:
                dstates = np.zeros_like(states.data)
                dlive = dpre @ W.data.T
                dlive += w[:, None] * g_live
                dstates[mask] = dlive
                _accum(states, dstates, owned=True)

        return op_output(context, (states, W, v), back), Tensor(weights)


class DenseLayer:
    """Fully connected layer with activation in {identity, tanh, softmax}."""

    ACTIVATIONS = ("identity", "tanh", "softmax")

    def __init__(self, in_dim: int, out_dim: int, activation: str = "identity",
                 rng: np.random.Generator | None = None, name: str = "dense", dtype=np.float32):
        if activation not in self.ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.name = name
        self.in_dim, self.out_dim = in_dim, out_dim
        self.activation = activation
        self.W = Parameter(f"{name}.W", glorot_uniform(rng, in_dim, out_dim, dtype=dtype))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim, dtype=dtype))

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]

    def forward(self, x: Tensor) -> Tensor:
        """One tape op: y = x @ W, y += b, then the activation in place on y.

        Softmax subtracts each row's max before exponentiating. Backward
        turns the output gradient g into the pre-activation one, g (1 - y^2)
        for tanh and y (g - sum(g y)) for softmax, then gives db = sum(g),
        dW = x^T g and dx = g W^T to whichever of b, W, x takes gradients.
        """
        W, b = self.W, self.b
        _check_dtypes(x, W, b)
        if x.data.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"dense layer {self.name!r} takes [batch, {self.in_dim}] input, "
                             f"got shape {x.shape}")
        # numpy's warnings on a non-finite operand are silenced: the check
        # below reports it as one NumericError, whatever the activation
        with np.errstate(invalid="ignore", over="ignore"):
            y = x.data @ W.data
            y += b.data
        if not np.isfinite(y).all():
            raise NumericError(f"dense layer {self.name!r}: {self.activation} input contains NaN or Inf")
        if self.activation == "tanh":
            np.tanh(y, out=y)
        elif self.activation == "softmax":
            y -= y.max(axis=-1, keepdims=True)
            np.exp(y, out=y)
            y /= y.sum(axis=-1, keepdims=True)

        def back(g):
            if self.activation == "tanh":
                g = g * (1.0 - y * y)
            elif self.activation == "softmax":
                g = y * (g - (g * y).sum(axis=-1, keepdims=True))
            if b.requires_grad:
                _accum(b, g.sum(axis=0), owned=True)
            if W.requires_grad:
                _accum(W, x.data.T @ g, owned=True)
            if x.requires_grad:
                _accum(x, g @ W.data.T, owned=True)

        return op_output(y, (x, W, b), back)


def _batchnorm(x: Tensor, gamma: Parameter, beta: Parameter, mean: np.ndarray,
               invstd: np.ndarray, batch_stats: bool) -> Tensor:
    """Fused batch norm, (x - mean) * invstd * gamma + beta, as one tape op.

    With ``batch_stats`` set, ``mean`` and ``invstd`` are the batch's own and
    backward differentiates through them; otherwise they are constants and
    backward is affine.
    """
    _check_dtypes(x, gamma, beta)
    d = x.data
    n = d.shape[0]
    xhat = (d - mean) * invstd
    out_data = xhat * gamma.data[None, :] + beta.data[None, :]

    def back(g):
        _accum(beta, g.sum(axis=0))
        _accum(gamma, (g * xhat).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data[None, :]
            if batch_stats:
                dx = (invstd / n) * (n * dxhat - dxhat.sum(axis=0)
                                     - xhat * (dxhat * xhat).sum(axis=0))
            else:
                dx = dxhat * invstd
            _accum(x, dx.astype(d.dtype, copy=False))

    return op_output(out_data.astype(d.dtype, copy=False), (x, gamma, beta), back)


class BatchNormLayer:
    """Per-feature batch normalization.

    Train mode normalizes with the current batch statistics (requires batch
    size >= 2) and, when ``update_stats`` is set, folds them into the running
    averages as running = momentum * running + (1 - momentum) * batch.
    Inference normalizes with the running statistics only. Running stats are
    non-trainable parameters so checkpoints carry them.
    """

    momentum = 0.99
    eps = 1e-5

    def __init__(self, features: int, name: str = "bn", dtype=np.float32):
        self.features = features
        self.gamma = Parameter(f"{name}.gamma", np.ones(features, dtype=dtype))
        self.beta = Parameter(f"{name}.beta", np.zeros(features, dtype=dtype))
        self.running_mean = Parameter(f"{name}.running_mean", np.zeros(features, dtype=dtype),
                                      trainable=False)
        self.running_var = Parameter(f"{name}.running_var", np.ones(features, dtype=dtype),
                                     trainable=False)
        self.running_mean.requires_grad = False
        self.running_var.requires_grad = False

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta, self.running_mean, self.running_var]

    def forward(self, x: Tensor, train: bool = False, update_stats: bool = True) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.features:
            raise ShapeError(f"batchnorm built for {self.features} features, got {x.shape}")
        if train:
            if x.shape[0] < 2:
                raise ContractError(f"train-mode batchnorm needs batch >= 2, got {x.shape[0]}")
            mean, var = x.data.mean(axis=0), x.data.var(axis=0)
            out = _batchnorm(x, self.gamma, self.beta, mean, 1.0 / np.sqrt(var + self.eps),
                             batch_stats=True)
            if update_stats:
                # assigned, not written in place: a loaded checkpoint's arrays are read-only
                m = self.momentum
                self.running_mean.data = m * self.running_mean.data + (1.0 - m) * mean
                self.running_var.data = m * self.running_var.data + (1.0 - m) * var
            return out
        invstd = (1.0 / np.sqrt(self.running_var.data + self.eps)).astype(x.dtype, copy=False)
        return _batchnorm(x, self.gamma, self.beta, self.running_mean.data, invstd,
                          batch_stats=False)
