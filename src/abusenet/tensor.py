"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

Every forward operation records a backward closure on the active Tape;
``Tape.backward`` replays the closures in exact reverse execution order and
accumulates gradients additively into each tensor that requires them.
Training code runs in float32; gradient checking requires float64, where
central finite differences are meaningful.

Broadcasting is deliberately restricted: the only implicit broadcast is a
bias vector over the batch axis (``add_bias``) and a per-column scale
(``scale_cols``). Everything else must match shapes exactly.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ValueError):
    """Non-finite values arrived where finite ones are required."""


class ContractError(ValueError):
    """An API precondition was violated."""


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape():
    """Tape currently recording on this thread, or None (inference)."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense row-major float array plus an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # Small amount of operator sugar; the explicit functions below are the API.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return mul_scalar(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter:
    """Named, optionally trainable tensor. ``tag`` marks the model path."""

    __slots__ = ("name", "tensor", "trainable", "tag")

    def __init__(self, name: str, value, trainable: bool = True, tag: str | None = None):
        if isinstance(value, Tensor):
            tensor = value
        else:
            tensor = Tensor(value)
        tensor.requires_grad = True
        self.name = name
        self.tensor = tensor
        self.trainable = bool(trainable)
        self.tag = tag

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> np.ndarray | None:
        return self.tensor.grad

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape}, trainable={self.trainable})"


class Tape:
    """Ordered record of executed operations.

    Acts as a context manager; entered tapes form a thread-local stack and
    all ops executed inside record onto the innermost one. ``clear`` drops
    the recorded closures, releasing the intermediate activations they hold.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        assert stack and stack[-1] is self
        stack.pop()

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._ops.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._ops)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and propagate in reverse execution order."""
        if loss.shape != ():
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for out, fn in reversed(self._ops):
            if out.grad is not None:
                fn(out.grad)

    def clear(self) -> None:
        self._ops.clear()


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {t.data.shape}")
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def op_output(data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Create an op result and record its backward closure if a tape is live.

    Extension point: layers outside this module register fused ops through
    the same path.
    """
    rg = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=rg)
    if rg:
        tape = active_tape()
        if tape is not None:
            tape.record(out, backward_fn)
    return out


def _check_dtypes(*tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ContractError(f"mixed dtypes in one op: {sorted(str(d) for d in dtypes)}")


# ---------------------------------------------------------------------------
# elementwise and affine ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add requires equal shapes, got {a.shape} and {b.shape}")

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return op_output(a.data + b.data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"sub requires equal shapes, got {a.shape} and {b.shape}")

    def back(g):
        _accum(a, g)
        _accum(b, -g)

    return op_output(a.data - b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul requires equal shapes, got {a.shape} and {b.shape}")

    def back(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return op_output(a.data * b.data, (a, b), back)


def mul_scalar(x: Tensor, c: float) -> Tensor:
    def back(g):
        _accum(x, g * c)

    return op_output(x.data * c, (x,), back)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[batch, n] + b[n]; the one sanctioned broadcast."""
    _check_dtypes(x, b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias expects [batch, n] + [n], got {x.shape} and {b.shape}")

    def back(g):
        _accum(x, g)
        _accum(b, g.sum(axis=0))

    return op_output(x.data + b.data[None, :], (x, b), back)


def scale_cols(x: Tensor, s: Tensor) -> Tensor:
    """x[batch, n] * s[n] column-wise."""
    _check_dtypes(x, s)
    if x.data.ndim != 2 or s.data.ndim != 1 or x.shape[1] != s.shape[0]:
        raise ShapeError(f"scale_cols expects [batch, n] * [n], got {x.shape} and {s.shape}")

    def back(g):
        _accum(x, g * s.data[None, :])
        _accum(s, (g * x.data).sum(axis=0))

    return op_output(x.data * s.data[None, :], (x, s), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

    def back(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return op_output(a.data @ b.data, (a, b), back)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def back(g):
        _accum(x, g * (1.0 - y * y))

    return op_output(y, (x,), back)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the trailing axis, computed with max subtraction."""
    d = x.data
    if d.ndim < 1 or d.shape[-1] < 1:
        raise ShapeError(f"softmax needs at least one trailing element, got {x.shape}")
    if not np.all(np.isfinite(d)):
        raise NumericError("softmax input contains NaN or Inf")
    shifted = d - d.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - inner))

    return op_output(y, (x,), back)


# ---------------------------------------------------------------------------
# structural ops


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a [V, d] table; backward scatter-adds into the table."""
    idx = np.asarray(indices)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-d table, got {table.shape}")
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows expects flat indices, got shape {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("gather_rows indices must be integers")
    V = table.shape[0]
    if idx.size:
        bad = (idx < 0) | (idx >= V)
        if bad.any():
            offender = int(idx[bad][0])
            raise IndexError(f"gather_rows index {offender} out of range [0, {V})")

    def back(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return op_output(table.data[idx], (table,), back)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.data.ndim != b.data.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_last requires equal leading dimensions, got {a.shape} and {b.shape}")
    p = a.shape[-1]

    def back(g):
        _accum(a, g[..., :p])
        _accum(b, g[..., p:])

    return op_output(np.concatenate([a.data, b.data], axis=-1), (a, b), back)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape

    def back(g):
        _accum(x, g.reshape(old))

    return op_output(x.data.reshape(shape), (x,), back)


def masked_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over positions where mask is True; masked weights are exactly 0."""
    d = scores.data
    if d.ndim != 2:
        raise ShapeError(f"masked_softmax expects [batch, T] scores, got {scores.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != d.shape:
        raise ShapeError(f"mask shape {mask.shape} does not match scores {d.shape}")
    if not mask.any(axis=1).all():
        raise ContractError("masked_softmax: some sample has no unmasked positions")
    if not np.all(np.isfinite(d[mask])):
        raise NumericError("masked_softmax scores contain NaN or Inf")
    neg = np.finfo(d.dtype).min
    shifted = d - np.where(mask, d, neg).max(axis=1, keepdims=True)
    e = np.where(mask, np.exp(np.where(mask, shifted, 0.0)), 0.0)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        _accum(scores, y * (g - inner))

    return op_output(y, (scores,), back)


def weighted_sum_time(states: Tensor, weights: Tensor) -> Tensor:
    """sum_t weights[b, t] * states[b, t, :] -> [b, d]."""
    _check_dtypes(states, weights)
    if states.data.ndim != 3 or weights.data.ndim != 2:
        raise ShapeError(f"weighted_sum_time expects [b,T,d] and [b,T], got {states.shape} and {weights.shape}")
    if states.shape[:2] != weights.shape:
        raise ShapeError(f"leading dims disagree: {states.shape} vs {weights.shape}")

    def back(g):
        if states.requires_grad:
            _accum(states, weights.data[:, :, None] * g[:, None, :])
        if weights.requires_grad:
            _accum(weights, np.einsum("btd,bd->bt", states.data, g))

    return op_output(np.einsum("btd,bt->bd", states.data, weights.data), (states, weights), back)


def sum_all(x: Tensor) -> Tensor:
    def back(g):
        _accum(x, np.full_like(x.data, g))

    return op_output(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), back)


def mean_all(x: Tensor) -> Tensor:
    n = x.size

    def back(g):
        _accum(x, np.full_like(x.data, g / n))

    return op_output(np.asarray(x.data.mean(), dtype=x.data.dtype), (x,), back)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(forward: Callable[[], Tensor], params: Iterable[Parameter], eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central finite differences.

    ``forward`` must be a deterministic closure returning a scalar loss; it is
    re-evaluated with each parameter entry perturbed by +/- eps. Error per
    entry is |analytic - fd| / max(1, |analytic|, |fd|). Requires float64
    parameters; finite differences are meaningless at float32.
    """
    if eps <= 0:
        raise ContractError("grad_check eps must be positive")
    params = list(params)
    for p in params:
        if p.tensor.dtype != np.float64:
            raise ContractError(f"grad_check requires float64 parameters ({p.name} is {p.tensor.dtype})")
        p.tensor.zero_grad()

    with Tape() as tape:
        loss = forward()
    if loss.shape != ():
        raise ContractError(f"grad_check forward must return a scalar, got {loss.shape}")
    tape.backward(loss)
    analytic = {
        p.name: (p.tensor.grad.copy() if p.tensor.grad is not None else np.zeros_like(p.data))
        for p in params
    }
    for p in params:
        p.tensor.zero_grad()

    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        flat_a = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(forward().data)
            flat[i] = orig - eps
            f_minus = float(forward().data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite loss while perturbing {p.name}[{i}]")
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = flat_a[i]
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            if err > worst:
                worst = err
    return worst
