"""Neural layers: word embedding, GRU, additive attention, dense, batch norm.

Layers own Parameters and compose tape ops from `tensor`; a layer instance is
single-threaded. Weight init is Glorot-uniform with zero biases, drawn from a
caller-supplied numpy Generator so builds are reproducible.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ContractError,
    Parameter,
    ShapeError,
    Tensor,
    _accum,
    _check_dtypes,
    active_tape,
    add_bias,
    gather_rows,
    masked_softmax,
    matmul,
    op_output,
    reshape,
    scale_cols,
    softmax,
    tanh,
    weighted_sum_time,
)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None, dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out)).astype(dtype)


class EmbeddingLayer:
    """Token-index lookup table. Row 0 is the padding row, zero at init."""

    pad_index = 0

    def __init__(self, table: np.ndarray, name: str = "embedding", trainable: bool = True):
        table = np.array(table, copy=True)
        table[self.pad_index] = 0.0
        self.table = Parameter(f"{name}.table", Tensor(table), trainable=trainable)

    @classmethod
    def random(cls, vocab_size: int, dim: int = 200, rng: np.random.Generator | None = None,
               name: str = "embedding", dtype=np.float32) -> "EmbeddingLayer":
        rng = rng or np.random.default_rng(0)
        table = rng.uniform(-0.05, 0.05, size=(vocab_size, dim)).astype(dtype)
        return cls(table, name=name)

    @property
    def dim(self) -> int:
        return self.table.data.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.table.data.shape[0]

    def forward(self, token_ids: np.ndarray) -> Tensor:
        ids = np.asarray(token_ids)
        if ids.ndim != 2:
            raise ShapeError(f"embedding expects [batch, T] token ids, got {ids.shape}")
        b, t = ids.shape
        flat = gather_rows(self.table.tensor, ids.reshape(-1))
        return reshape(flat, (b, t, self.dim))

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

    def __init__(self, input_dim: int, units: int = 128, recurrent_dropout: float = 0.5,
                 rng: np.random.Generator | None = None, name: str = "gru", dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.units = units
        self.input_dim = input_dim
        self.recurrent_dropout = float(recurrent_dropout)
        self._dtype = np.dtype(dtype)

        def w(gate):
            return Parameter(f"{name}.W_{gate}", Tensor(glorot_uniform(rng, input_dim, units, dtype=dtype)))

        def u(gate):
            return Parameter(f"{name}.U_{gate}", Tensor(glorot_uniform(rng, units, units, dtype=dtype)))

        def bias(gate):
            return Parameter(f"{name}.b_{gate}", Tensor(np.zeros(units, dtype=dtype)))

        self.W_z, self.W_r, self.W_h = w("z"), w("r"), w("h")
        self.U_z, self.U_r, self.U_h = u("z"), u("r"), u("h")
        self.b_z, self.b_r, self.b_h = bias("z"), bias("r"), bias("h")

    def parameters(self) -> list[Parameter]:
        return [self.W_z, self.W_r, self.W_h, self.U_z, self.U_r, self.U_h,
                self.b_z, self.b_r, self.b_h]

    def forward(self, x: Tensor, mask: np.ndarray | None = None, h0: Tensor | None = None,
                train: bool = False, rng: np.random.Generator | None = None):
        """Run the recurrence; returns (all_states [b,T,units], last [b,units])."""
        if x.data.ndim != 3:
            raise ShapeError(f"gru expects [batch, T, d] input, got {x.shape}")
        b, steps, d = x.shape
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

        states = self._recurrence(x, mask, h, drop)

        def back_last(g):
            full = np.zeros_like(states.data)
            full[:, -1] = g
            _accum(states, full)

        return states, op_output(states.data[:, -1].copy(), (states,), back_last)

    def _recurrence(self, x: Tensor, mask: np.ndarray, h0: Tensor,
                    drop: np.ndarray | None) -> Tensor:
        """The whole recurrence as one tape op returning the states [b, T, units].

        Per step: one input matmul against [W_z|W_r|W_h], one recurrent
        matmul against [U_z|U_r], and (r * h * drop) U_h. The per-step
        gates and products are kept only when a tape records the op.
        Backward is a reverse loop with two recurrent matmuls per step, after
        which the gradients of x, W, U_z|U_r and U_h are one matmul each over
        all T*b rows.
        """
        inputs = (x, h0, *(p.tensor for p in self.parameters()))
        _check_dtypes(*inputs)
        b, steps, d = x.shape
        u = self.units
        W = np.concatenate([self.W_z.data, self.W_r.data, self.W_h.data], axis=1)
        bias = np.concatenate([self.b_z.data, self.b_r.data, self.b_h.data])
        U_zr = np.concatenate([self.U_z.data, self.U_r.data], axis=1)
        U_h = self.U_h.data
        unpadded = mask.all(axis=0)  # steps with no padded row skip the row select
        record = active_tape() is not None and any(t.requires_grad for t in inputs)

        xd = x.data
        states = np.empty((b, steps, u), dtype=xd.dtype)
        if record:
            zr_all = np.empty((steps, b, 2 * u), dtype=xd.dtype)
            c_all = np.empty((steps, b, u), dtype=xd.dtype)
            hm_all = np.empty((b, steps, u), dtype=xd.dtype)  # h * drop
            rh_all = np.empty((b, steps, u), dtype=xd.dtype)  # r * h * drop
        h = h0.data
        for t in range(steps):
            a = xd[:, t] @ W
            a += bias
            hm = h if drop is None else h * drop
            zr = a[:, :2 * u]
            zr += hm @ U_zr
            _sigmoid(zr)
            r = zr[:, u:]
            rh = r * hm
            c = a[:, 2 * u:]
            c += rh @ U_h
            np.tanh(c, out=c)
            h_new = c - h
            h_new *= zr[:, :u]
            h_new += h
            if not unpadded[t]:
                h_new = np.where(mask[:, t, None], h_new, h)  # padded rows: exact copy
            states[:, t] = h_new
            if record:
                zr_all[t] = zr
                c_all[t] = c
                hm_all[:, t] = hm
                rh_all[:, t] = rh
            h = h_new

        def back(g):
            da = np.empty((b, steps, 3 * u), dtype=g.dtype)  # pre-activation gradients
            dh = np.zeros((b, u), dtype=g.dtype)
            for t in range(steps - 1, -1, -1):
                dh += g[:, t]
                z, r, c = zr_all[t, :, :u], zr_all[t, :, u:], c_all[t]
                h_prev = states[:, t - 1] if t else h0.data
                live = dh if unpadded[t] else dh * mask[:, t, None]
                da_t = da[:, t]
                np.multiply(live * z, 1.0 - c * c, out=da_t[:, 2 * u:])
                drh = da_t[:, 2 * u:] @ U_h.T
                np.multiply(live * (c - h_prev), z * (1.0 - z), out=da_t[:, :u])
                np.multiply(drh * hm_all[:, t], r * (1.0 - r), out=da_t[:, u:2 * u])
                dhm = drh * r
                dhm += da_t[:, :2 * u] @ U_zr.T
                if drop is not None:
                    dhm *= drop
                dhm += live * (1.0 - z)
                dh = dhm if unpadded[t] else np.where(mask[:, t, None], dhm, dh)
            _accum(h0, dh)
            rows = da.reshape(b * steps, 3 * u)
            if x.requires_grad:
                _accum(x, (rows @ W.T).reshape(b, steps, d))
            dW = xd.reshape(b * steps, d).T @ rows
            db = rows.sum(axis=0)
            dU_zr = hm_all.reshape(b * steps, u).T @ rows[:, :2 * u]
            for k, (w, bk) in enumerate(((self.W_z, self.b_z), (self.W_r, self.b_r),
                                         (self.W_h, self.b_h))):
                _accum(w.tensor, dW[:, k * u:(k + 1) * u])
                _accum(bk.tensor, db[k * u:(k + 1) * u])
            _accum(self.U_z.tensor, dU_zr[:, :u])
            _accum(self.U_r.tensor, dU_zr[:, u:])
            _accum(self.U_h.tensor, rh_all.reshape(b * steps, u).T @ rows[:, 2 * u:])

        return op_output(states, inputs, back)


def _sigmoid(a: np.ndarray) -> None:
    """In-place logistic function in the one-transcendental form 0.5 * (1 + tanh(a / 2))."""
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


class AttentionLayer:
    """Additive attention over GRU states: e_t = v . tanh(h_t W), softmax over
    unmasked steps, output is the weighted state sum."""

    def __init__(self, units: int, rng: np.random.Generator | None = None,
                 name: str = "attention", dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.units = units
        self.W_a = Parameter(f"{name}.W_a", Tensor(glorot_uniform(rng, units, units, dtype=dtype)))
        self.v_a = Parameter(f"{name}.v_a", Tensor(glorot_uniform(rng, units, 1, shape=(units, 1), dtype=dtype)))

    def parameters(self) -> list[Parameter]:
        return [self.W_a, self.v_a]

    def forward(self, states: Tensor, mask: np.ndarray):
        """Returns (context [b,units], weights [b,T])."""
        if states.data.ndim != 3:
            raise ShapeError(f"attention expects [batch, T, units], got {states.shape}")
        b, steps, u = states.shape
        flat = reshape(states, (b * steps, u))
        scores = matmul(tanh(matmul(flat, self.W_a.tensor)), self.v_a.tensor)
        scores = reshape(scores, (b, steps))
        weights = masked_softmax(scores, mask)
        return weighted_sum_time(states, weights), weights


class DenseLayer:
    """Fully connected layer with activation in {identity, tanh, softmax}."""

    ACTIVATIONS = ("identity", "tanh", "softmax")

    def __init__(self, in_dim: int, out_dim: int, activation: str = "identity",
                 rng: np.random.Generator | None = None, name: str = "dense", dtype=np.float32):
        if activation not in self.ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.in_dim, self.out_dim = in_dim, out_dim
        self.activation = activation
        self.W = Parameter(f"{name}.W", Tensor(glorot_uniform(rng, in_dim, out_dim, dtype=dtype)))
        self.b = Parameter(f"{name}.b", Tensor(np.zeros(out_dim, dtype=dtype)))

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]

    def forward(self, x: Tensor) -> Tensor:
        out = add_bias(matmul(x, self.W.tensor), self.b.tensor)
        if self.activation == "tanh":
            return tanh(out)
        if self.activation == "softmax":
            return softmax(out)
        return out


def _batchnorm_train(x: Tensor, gamma: Parameter, beta: Parameter, eps: float):
    """Fused train-mode batch norm; returns (out, batch_mean, batch_var)."""
    d = x.data
    n = d.shape[0]
    mu = d.mean(axis=0)
    var = d.var(axis=0)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (d - mu) * invstd
    out_data = xhat * gamma.data[None, :] + beta.data[None, :]

    def back(g):
        from .tensor import _accum

        _accum(beta.tensor, g.sum(axis=0))
        _accum(gamma.tensor, (g * xhat).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data[None, :]
            dx = (invstd / n) * (n * dxhat - dxhat.sum(axis=0)
                                 - xhat * (dxhat * xhat).sum(axis=0))
            _accum(x, dx.astype(d.dtype, copy=False))

    out = op_output(out_data.astype(d.dtype, copy=False), (x, gamma.tensor, beta.tensor), back)
    return out, mu, var


class BatchNormLayer:
    """Per-feature batch normalization.

    Train mode normalizes with the current batch statistics (requires batch
    size >= 2) and, when ``update_stats`` is set, folds them into the running
    averages as running = momentum * running + (1 - momentum) * batch.
    Inference normalizes with the running statistics only. Running stats are
    non-trainable parameters so checkpoints carry them.
    """

    def __init__(self, features: int, momentum: float = 0.99, eps: float = 1e-5,
                 name: str = "bn", dtype=np.float32):
        self.features = features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", Tensor(np.ones(features, dtype=dtype)))
        self.beta = Parameter(f"{name}.beta", Tensor(np.zeros(features, dtype=dtype)))
        self.running_mean = Parameter(f"{name}.running_mean", Tensor(np.zeros(features, dtype=dtype)),
                                      trainable=False)
        self.running_var = Parameter(f"{name}.running_var", Tensor(np.ones(features, dtype=dtype)),
                                     trainable=False)
        self.running_mean.tensor.requires_grad = False
        self.running_var.tensor.requires_grad = False

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta, self.running_mean, self.running_var]

    def forward(self, x: Tensor, train: bool = False, update_stats: bool = True) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.features:
            raise ShapeError(f"batchnorm built for {self.features} features, got {x.shape}")
        if train:
            if x.shape[0] < 2:
                raise ContractError(f"train-mode batchnorm needs batch >= 2, got {x.shape[0]}")
            out, mu, var = _batchnorm_train(x, self.gamma, self.beta, self.eps)
            if update_stats:
                m = self.momentum
                self.running_mean.data[:] = m * self.running_mean.data + (1.0 - m) * mu
                self.running_var.data[:] = m * self.running_var.data + (1.0 - m) * var
            return out
        invstd = (1.0 / np.sqrt(self.running_var.data + self.eps)).astype(x.dtype, copy=False)
        centered = add_bias(x, Tensor(-self.running_mean.data))
        return add_bias(scale_cols(scale_cols(centered, Tensor(invstd)), self.gamma.tensor),
                        self.beta.tensor)
