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
        if not stack or stack[-1] is not self:
            raise ContractError("tapes must be exited in the reverse order they were entered")
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
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("gather_rows indices must be integers")
    V, d = table.shape
    if idx.size:
        bad = (idx < 0) | (idx >= V)
        if bad.any():
            offender = int(idx[bad][0])
            raise IndexError(f"gather_rows index {offender} out of range [0, {V})")
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
            table.grad = np.zeros_like(table.data)
        _scatter_add_rows(table.grad, idx.reshape(-1), g.reshape(-1, d),
                          skip=None if pad is None else pad.reshape(-1))

    return op_output(rows, (table,), back)


# Occurrences of an index that _scatter_add_rows adds in vectorized rounds;
# an index repeated more often adds the rest with one ``np.cumsum``.
SCATTER_ROUNDS = 16


def _scatter_add_rows(out: np.ndarray, idx: np.ndarray, g: np.ndarray,
                      skip: np.ndarray | None = None) -> None:
    """``np.add.at(out, idx, g)``, bit for bit, without ``np.add.at``.

    ``np.add.at`` adds the rows of ``g`` one at a time in position order, so
    each touched row of ``out`` ends as its value plus its occurrences added
    left to right. A stable sort groups the positions by index in that
    order, and the indices are ranked by occurrence count, most first, so
    that those with more than k occurrences form a prefix. Their rows are
    gathered into ``acc``; round k adds every index's k-th occurrence to a
    prefix of ``acc`` in one vectorized add. After ``SCATTER_ROUNDS``
    rounds, each index with more occurrences adds the rest with one
    ``np.cumsum`` seeded with its running sum, and ``acc`` is written back.
    Positions where the boolean mask ``skip`` is True are left out.
    """
    src = None if skip is None or not skip.any() else np.flatnonzero(~skip)
    keys = idx if src is None else idx[src]
    if not keys.size:
        return
    if (keys[1:] > keys[:-1]).all():  # increasing, so no index repeats
        out[keys] += g if src is None else g[src]
        return
    # numpy's stable sort is a radix sort for integers of 16 bits or fewer
    narrow = 0 <= keys.min() and keys.max() < 2**16
    order = np.argsort(keys.astype(np.uint16) if narrow else keys, kind="stable")
    keys, src = keys[order], order if src is None else src[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=keys.size)
    most = np.argsort(-counts, kind="stable")
    starts, counts = starts[most], counts[most]
    rows = keys[starts]
    acc = out[rows]
    rounds = min(SCATTER_ROUNDS, int(counts[0]))
    # widths[k]: how many indices have more than k occurrences
    widths = np.searchsorted(-counts, -np.arange(rounds), side="left").tolist()
    for k, m in enumerate(widths):
        acc[:m] += g[src[starts[:m] + k]]
    for j in range(int(np.count_nonzero(counts > SCATTER_ROUNDS))):
        rest = g[src[starts[j] + SCATTER_ROUNDS:starts[j] + counts[j]]]
        rest[0] += acc[j]  # addition commutes bit for bit
        acc[j] = np.cumsum(rest, axis=0, out=rest)[-1]
    out[rows] = acc


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
