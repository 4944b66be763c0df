"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

Every forward operation records a backward closure on the active Tape;
``Tape.backward`` replays the closures in exact reverse execution order and
accumulates gradients additively into each tensor that requires them.
Training code runs in float32; gradient checking requires float64, where
central finite differences are meaningful.

The generic ops here broadcast nothing: their operands' shapes must match
exactly. Each layer records itself as one fused op through ``op_output``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ValueError):
    """Non-finite values arrived where finite ones are required."""


class ContractError(ValueError):
    """An API precondition was violated."""


# entered tapes, innermost last
_TAPES: list = []


def active_tape():
    """Tape currently recording, or None (inference)."""
    return _TAPES[-1] if _TAPES else None


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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class Parameter(Tensor):
    """A tensor that takes gradients, named, with a model-path ``tag`` and a
    ``trainable`` flag: the optimizer updates only trainable parameters."""

    __slots__ = ("name", "trainable", "tag")

    def __init__(self, name: str, value, trainable: bool = True, tag: str | None = None):
        super().__init__(value.data if isinstance(value, Tensor) else value, requires_grad=True)
        self.name = name
        self.trainable = bool(trainable)
        self.tag = tag

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, trainable={self.trainable})"


class Tape:
    """Ordered record of executed operations.

    Acts as a context manager; entered tapes form one stack per process and
    all ops executed inside record onto the innermost one. ``clear`` drops
    the recorded closures, releasing the intermediate activations they hold.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _TAPES or _TAPES[-1] is not self:
            raise ContractError("tapes must be exited in the reverse order they were entered")
        _TAPES.pop()

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


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``. With ``owned`` set, ``g`` is a fresh array of
    ``t``'s dtype that nothing else holds, and becomes the gradient uncopied."""
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {t.data.shape}")
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=t.data.dtype, copy=True)
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
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add requires equal shapes, got {a.shape} and {b.shape}")

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return op_output(a.data + b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul requires equal shapes, got {a.shape} and {b.shape}")

    def back(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return op_output(a.data * b.data, (a, b), back)


# ---------------------------------------------------------------------------
# structural ops


def check_index(idx: np.ndarray, count: int, what: str) -> None:
    """Refuse an index array that is not integer-typed (ContractError), or
    one holding a value outside [0, count): an IndexError that names the
    first such value in row-major order as ``what``."""
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError(f"{what} array must hold integers, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= count):
        bad = idx[(idx < 0) | (idx >= count)][0]
        raise IndexError(f"{what} {bad} out of range [0, {count})")


def gather_rows(table: Tensor, indices, padding_idx: int | None = None) -> Tensor:
    """Rows of a [V, d] table for integer ids of any shape: [*ids.shape, d].

    Backward scatter-adds the gradient into the table. With ``padding_idx``
    set, positions holding that index read a zero row and are left out of
    the scatter, so that table row takes no gradient from this op
    (PyTorch's ``padding_idx`` rule, with the row's value fixed at zero so
    the gradient is the derivative of what the op computes).
    """
    idx = np.asarray(indices)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-d table, got {table.shape}")
    V, d = table.shape
    check_index(idx, V, "gather_rows index")
    rows = table.data[idx]
    pad = None
    if padding_idx is not None:
        pad = idx == padding_idx
        if table.data[padding_idx].any():  # a zero row is already read as zero
            rows[pad] = 0.0

    def back(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros(table.shape, dtype=table.dtype)
        ids, keep = idx.reshape(-1), None
        if pad is not None and pad.any():
            keep = np.flatnonzero(~pad.reshape(-1))
            ids = ids[keep]
        scatter_add_rows(table.grad, ids, g.reshape(-1, d), rows=keep)

    return op_output(rows, (table,), back)


# The most cells (positions x row width) one flat ``np.add.at`` call of
# ``scatter_add_rows`` takes, so its np.intp offsets hold at most 512 KiB.
SCATTER_CHUNK = 1 << 16


def scatter_add_rows(out: np.ndarray, idx: np.ndarray, g: np.ndarray, rows: np.ndarray | None = None) -> None:
    """``np.add.at(out, idx, g[rows])`` into a C-contiguous [V, d] ``out``,
    bit for bit: position j adds row ``rows[j]`` of ``g`` (row j without a
    map) to row ``idx[j]``. Strictly increasing ids repeat none, so one
    fancy add serves; otherwise each chunk of positions, in order, is one
    flat 1-D ``np.add.at`` call (numpy's fast path since 1.25) over np.intp
    offsets, so int32 ids cannot overflow them."""
    if not out.flags.c_contiguous:
        raise ContractError("scatter_add_rows adds into a C-contiguous array")
    if (idx[1:] > idx[:-1]).all():
        out[idx] += g if rows is None else g[rows]
        return
    d = out.shape[1]
    step = max(1, SCATTER_CHUNK // d)
    cols = np.arange(d, dtype=np.intp)
    for s in range(0, idx.size, step):
        at = idx[s:s + step].astype(np.intp)[:, None] * d + cols
        src = g[s:s + step] if rows is None else g[rows[s:s + step]]
        np.add.at(out.reshape(-1), at.reshape(-1), src.reshape(-1))


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.data.ndim != b.data.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_last requires equal leading dimensions, got {a.shape} and {b.shape}")
    p = a.shape[-1]

    def back(g):
        _accum(a, g[..., :p])
        _accum(b, g[..., p:])

    return op_output(np.concatenate([a.data, b.data], axis=-1), (a, b), back)


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


GRAD_CHECK_EPS = 1e-5


def grad_check(forward: Callable[[], Tensor], params: Iterable[Parameter]) -> float:
    """Max relative error between analytic gradients and central finite differences.

    ``forward`` must be a deterministic closure returning a scalar loss; it is
    re-evaluated with each parameter entry perturbed by +/- GRAD_CHECK_EPS.
    Error per entry is |analytic - fd| / max(1, |analytic|, |fd|). Requires
    float64 parameters; finite differences are meaningless at float32.
    """
    eps = GRAD_CHECK_EPS
    params = list(params)
    for p in params:
        if p.dtype != np.float64:
            raise ContractError(f"grad_check requires float64 parameters ({p.name} is {p.dtype})")
        p.zero_grad()

    with Tape() as tape:
        loss = forward()
    if loss.shape != ():
        raise ContractError(f"grad_check forward must return a scalar, got {loss.shape}")
    tape.backward(loss)
    analytic = {
        p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for p in params
    }
    for p in params:
        p.zero_grad()

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
