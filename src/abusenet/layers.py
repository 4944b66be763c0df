"""Neural layers: word embedding, GRU, additive attention, dense, batch norm.

Layers own Parameters and record each forward call as one fused tape op
(the GRU adds a second for its last-state readout). A layer instance is
called from one thread at a time; at one OpenBLAS thread (``pin_blas``) a
GRU call, a recorded GRU op's backward and an attention call may run
blocks of their rows on threads of their own, all joined before they
return.
Weight init is Glorot-uniform with zero biases, drawn from a caller-supplied
numpy Generator so builds are reproducible.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import cache, partial

import numpy as np

from .tensor import (
    ContractError,
    NumericError,
    Parameter,
    ShapeError,
    Tensor,
    _accum,
    _check_dtypes,
    active_tape,
    check_index,
    gather_rows,
    op_output,
    scatter_add_rows,
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

    def project(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Each row's gate inputs, ``rows @ [W_z|W_r|W_h] + [b_z|b_r|b_h]``
        [m, 3 units], every row by gemm; into ``out`` when given."""
        P = _gemm_rows(rows, np.concatenate([self.W_z.data, self.W_r.data, self.W_h.data], axis=1), out=out)
        P += np.concatenate([self.b_z.data, self.b_r.data, self.b_h.data])
        return P

    def forward(self, x: Tensor, mask: np.ndarray | None = None, h0: Tensor | None = None,
                train: bool = False, rng: np.random.Generator | None = None,
                index: np.ndarray | None = None, projected: np.ndarray | None = None,
                keep_states: bool = True, out: np.ndarray | None = None):
        """Run the recurrence; returns (states [n live, units], last [b, units]).

        The states are packed batch-major: one row per live (mask True)
        position, in the order ``dense[mask]`` lists them for the [b, T,
        units] array of every position's state. A padded position carries
        its row's state through unchanged and has no row. ``last`` is each
        row's state after the last step: that of its last live position, or
        h0 for a row with none. With ``keep_states`` off it returns (None,
        last): the recurrence is one op whose output is the last state, and
        no states or gradient for them exist. A readout that reads only the
        last state, as the text path's does without attention, asks for that.

        ``out``, an [n live, units] array of the input's dtype, receives the
        states, and the returned states are it; ``last`` is still a fresh
        array. Only a call that records no tape may pass it: a recorded
        op's backward would read states the next call overwrites. Without
        it the states are a fresh array.

        ``x`` is the input [b, T, d]; or, with ``index`` [b, T], a table of
        rows [m, d] that position (i, t) reads as ``x[index[i, t]]``. Only
        live positions are read, so padded ones may hold any index. Each
        row (in the dense form, each position's) is projected onto the gates
        once. ``projected``, with ``index``, is ``project`` of a table whose
        rows ``index`` gives. A call that records no tape then takes every
        gate input from it and reads no row of ``x``, which may be empty. A
        call that records ignores ``projected`` and reads ``x`` by ``index``.

        A call may run blocks of its rows on threads of their own, in
        training as in inference, and so may a recorded call's backward;
        ``recurrence_blocks`` says when, and why the bits stay.
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
        n = int(np.count_nonzero(mask))
        if out is not None and (not keep_states or out.shape != (n, self.units) or out.dtype != x.dtype):
            raise ShapeError(f"gru states out must be a kept [n live, units]={(n, self.units)} "
                             f"{x.dtype} array, got {out.shape} {out.dtype}")

        h = h0 if h0 is not None else Tensor(np.zeros((b, self.units), dtype=x.dtype))
        if h.shape != (b, self.units):
            raise ShapeError(f"h0 shape {h.shape} does not match [batch, units]={(b, self.units)}")

        drop = None
        if train and self.recurrent_dropout > 0.0:
            if rng is None:
                raise ContractError("training-mode gru with dropout needs an rng")
            keep = 1.0 - self.recurrent_dropout
            drop = (rng.random((b, self.units)) < keep).astype(x.dtype) / x.dtype.type(keep)

        states = self._recurrence(x, index, mask, h, drop, projected, keep_states, out)
        if not keep_states:
            return None, states
        # each row's last live position in the packed states; a row with
        # none keeps h0
        per_row = np.count_nonzero(mask, axis=1)
        has, at = per_row > 0, np.cumsum(per_row) - 1
        last = h.data.copy()
        last[has] = states.data[at[has]]

        def back_last(g):
            gs = np.zeros_like(states.data)
            gs[at[has]] = g[has]
            _accum(states, gs, owned=True)
            if not has.all():
                _accum(h, np.where(has[:, None], g.dtype.type(0), g), owned=True)

        return states, op_output(last, (states, h), back_last)

    def _recurrence(self, x: Tensor, index: np.ndarray, mask: np.ndarray, h0: Tensor,
                    drop: np.ndarray | None, projected: np.ndarray | None, keep_states: bool,
                    out: np.ndarray | None) -> Tensor:
        """The whole recurrence as one tape op returning the packed states
        [n, units], or with ``keep_states`` off the last state [b, units].

        Every row is projected once, ``P = rows @ [W_z|W_r|W_h] + b`` (a call
        that records no tape reads a given ``projected`` table instead), and
        each step gathers its live (mask True) rows of P. Every product is a
        gemm (``_gemm_rows``), a one-row one too, so a row's bits do not
        depend on the other rows of its batch. A step without padding works
        on whole [b, .] slices, a step with some padded rows gathers the live
        ones, one with none is skipped, and padded rows carry h unchanged.
        Each step scatters its new live rows to their packed (batch-major)
        state rows. Per step: one recurrent matmul
        against [U_z|U_r], and (r * h * drop) U_h. Each product is a
        contiguous [k, .] array that accumulates its columns of the gathered
        [k, 3u] projection, and the sigmoid, tanh and state update run in
        place on it: passes over a column view of the projection cost 2-4x,
        and IEEE addition commutes, so the bits are those of adding the
        product into the view.
        The rows may run as blocks on threads (``recurrence_blocks``), in
        the projection, the steps and, when recorded, the backward's steps;
        one body (``run``, ``run_back``) serves a block and the whole batch.
        The batch's live positions are listed once, time-major and by row
        within a step, so a block is rows r0:r1 and, at each step, their
        contiguous run of that order: it reads the batch's inputs there and
        writes the states, recorded buffers and gradients of those positions.
        When a tape records the op, the live rows' inputs, gates and products
        are kept packed time-major, z and r in their own [n, u] buffers so
        that backward's per-step arithmetic reads contiguous rows; h * drop,
        the sigmoid's last halving (z and r), r * h * drop, its U_h product
        and c - h are computed straight into their packed rows.
        Backward is a reverse loop with two recurrent matmuls per step; each
        step adds its live rows' packed state gradients into dh, and padded
        rows pass dh through untouched. The gradients of the packed inputs,
        W, U_z|U_r and U_h are then one matmul each over all positions, the
        weights' beside the inputs' when the rows run as blocks; the inputs'
        gradient is scatter-added into the rows straight from the packed
        product, through a map of its rows (``scatter_add_rows``, in
        batch-major order). Backward first turns the recorded c into 1 - c^2
        in one pass, so it runs once: a second run raises ContractError.
        """
        inputs = (x, h0, *self.parameters())
        _check_dtypes(*inputs)
        b, steps = mask.shape
        u, d = self.units, self.input_dim
        rows = x.data.reshape(-1, d)
        U_zr = np.concatenate([self.U_z.data, self.U_r.data], axis=1)
        U_h = self.U_h.data
        record = active_tape() is not None and any(t.requires_grad for t in inputs)
        if record and out is not None:
            raise ContractError("a gru call that records a tape keeps its states in a fresh array, not in out")
        P = None if record else projected
        # the batch's live positions in time-major order: step t's live rows
        # are live_b[start[t]:start[t + 1]], and src_p and pos give each
        # one's row of P (unprojected, of x) and its packed (batch-major)
        # state row
        live_t, live_b = np.nonzero(mask.T)
        start = np.searchsorted(live_t, np.arange(steps + 1)).tolist()
        src_p = index[live_b, live_t]
        pos = (np.cumsum(mask.reshape(-1)) - 1).reshape(b, steps)[live_b, live_t]
        n = live_b.size
        if P is None:
            check_index(src_p, rows.shape[0], "gru input row")
        else:
            check_index(src_p, P.shape[0], "gru projected table row")
        # a block (r0, r1, los, his): rows r0:r1, whose live rows at step t
        # are the run los[t]:his[t] of the batch's time-major order
        bounds = row_blocks(mask, u)
        runs = [start[:-1], *((np.asarray(start[:-1]) + np.count_nonzero(mask[:r], axis=0)).tolist()
                              for r in bounds[1:-1]), start[1:]]
        blocks = list(zip(bounds, bounds[1:], runs, runs[1:]))
        states = out if out is not None or not keep_states else np.empty((n, u), dtype=x.dtype)
        if record:
            W = np.concatenate([self.W_z.data, self.W_r.data, self.W_h.data], axis=1)
            x_all = rows[src_p]
            z_all = np.empty((n, u), dtype=x.dtype)
            r_all = np.empty((n, u), dtype=x.dtype)
            c_all = np.empty((n, u), dtype=x.dtype)
            ch_all = np.empty((n, u), dtype=x.dtype)  # c - h
            hm_all = np.empty((n, u), dtype=x.dtype)  # h * drop
            rh_all = np.empty((n, u), dtype=x.dtype)  # r * h * drop
            # U_h^T and U_zr^T in C order for the backward's products:
            # OpenBLAS's sgemm (0.3.31, x86_64) rounds a product of up to 9
            # rows by a transposed view unlike the same rows of a larger
            # product, and one by a C-order operand alike at every row count
            U_h_rows, U_zr_rows = np.ascontiguousarray(U_h.T), np.ascontiguousarray(U_zr.T)

        def run(r0: int, r1: int, los: list, his: list) -> np.ndarray:
            """A block's rows through every step; returns their last state."""
            h = h0.data[r0:r1].copy()
            drop_b, in_block = None if drop is None else drop[r0:r1], live_b - r0
            for t in range(steps):
                lo, hi = los[t], his[t]
                if lo == hi:
                    continue
                if hi - lo == r1 - r0:
                    sel, h_t, drop_t = None, h, drop_b
                else:
                    sel = in_block[lo:hi]
                    h_t = h[sel]
                    drop_t = None if drop_b is None else drop_b[sel]
                a = P[src_p[lo:hi]]
                if drop_t is not None:
                    hm = np.multiply(h_t, drop_t, out=hm_all[lo:hi] if record else None)
                else:
                    hm = h_t
                    if record:
                        hm_all[lo:hi] = h_t
                zr = _gemm_rows(hm, U_zr)
                zr += a[:, :2 * u]
                z, r = _sigmoid(zr, into=(z_all[lo:hi], r_all[lo:hi]) if record else None)
                rh = np.multiply(r, hm, out=rh_all[lo:hi] if record else None)
                c = _gemm_rows(rh, U_h, out=c_all[lo:hi] if record else None)
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
                    states[pos[lo:hi]] = h_new
            return h

        with _threads(len(blocks) - 1) as pool:
            if P is None:
                # as many blocks of the rows: a gemm row's bits do not
                # depend on the call's other rows
                cuts = [rows.shape[0] * i // len(blocks) for i in range(len(blocks) + 1)]
                P = np.empty((rows.shape[0], 3 * u), dtype=x.dtype)
                _on_threads(pool, [partial(self.project, rows[r0:r1], out=P[r0:r1])
                                   for r0, r1 in zip(cuts, cuts[1:])])
            last = _on_threads(pool, [partial(run, *blk) for blk in blocks])
        h = last[0] if len(last) == 1 else np.concatenate(last)

        used = False

        def run_back(r0: int, r1: int, los: list, his: list, g: np.ndarray, da: np.ndarray) -> np.ndarray:
            """A block's rows through the reverse loop: writes their rows of
            da and returns their gradient of h0."""
            dh = np.zeros((r1 - r0, u), dtype=g.dtype)
            if not keep_states:
                dh += g[r0:r1]  # added to zeros, as the states form adds each row's last state gradient
            drop_b, in_block = None if drop is None else drop[r0:r1], live_b - r0
            for t in range(steps - 1, -1, -1):
                lo, hi = los[t], his[t]
                if lo == hi:
                    continue
                if hi - lo == r1 - r0:
                    sel, dh_t, drop_t = None, dh, drop_b
                else:
                    sel = in_block[lo:hi]
                    dh_t = dh[sel]
                    drop_t = None if drop_b is None else drop_b[sel]
                if keep_states:
                    dh_t += g[pos[lo:hi]]
                z, r = z_all[lo:hi], r_all[lo:hi]
                one_minus_z = 1.0 - z
                da_t = da[lo:hi]
                np.multiply(dh_t * z, c_all[lo:hi], out=da_t[:, 2 * u:])
                drh = _gemm_rows(da_t[:, 2 * u:], U_h_rows)
                np.multiply(dh_t * ch_all[lo:hi], z * one_minus_z, out=da_t[:, :u])
                np.multiply(drh * hm_all[lo:hi], r * (1.0 - r), out=da_t[:, u:2 * u])
                dhm = drh * r
                dhm += _gemm_rows(da_t[:, :2 * u], U_zr_rows)
                if drop_t is not None:
                    dhm *= drop_t
                dhm += dh_t * one_minus_z
                if sel is None:
                    dh = dhm
                else:
                    dh[sel] = dhm  # padded rows pass dh through
            return dh

        def input_grad(da: np.ndarray) -> np.ndarray | None:
            """The gradient of x: each row sums its positions' gradients in
            batch-major order, the order a scatter over the flat ids adds
            them in."""
            if not x.requires_grad:
                return None
            bm = np.empty(n, dtype=np.intp)
            bm[pos] = np.arange(n)  # time-major positions, batch-major
            dx = np.zeros(x.shape, dtype=da.dtype)
            scatter_add_rows(dx.reshape(-1, d), src_p[bm], da @ W.T, rows=bm)
            return dx

        def weight_grads(da: np.ndarray) -> tuple:
            return x_all.T @ da, da.sum(axis=0), hm_all.T @ da[:, :2 * u], rh_all.T @ da[:, 2 * u:]

        def back(g):
            nonlocal used
            if used:
                raise ContractError("a gru op's backward runs once: it overwrites what its forward recorded")
            used = True
            np.multiply(c_all, c_all, out=c_all)
            np.subtract(1.0, c_all, out=c_all)  # 1 - c^2, tanh's derivative
            da = np.empty((n, 3 * u), dtype=g.dtype)  # packed pre-activation gradients
            with _threads(len(blocks) - 1) as pool:
                dh = _on_threads(pool, [partial(run_back, *blk, g, da) for blk in blocks])
                # input_grad runs here, so its large dx comes from this
                # thread's heap, whose freed pages later steps reuse
                dx, (dW, db, dU_zr, dU_h) = _on_threads(pool, [partial(input_grad, da),
                                                               partial(weight_grads, da)])
            _accum(h0, dh[0] if len(dh) == 1 else np.concatenate(dh))
            if dx is not None:
                _accum(x, dx, owned=True)
            for k, (w, bk) in enumerate(((self.W_z, self.b_z), (self.W_r, self.b_r),
                                         (self.W_h, self.b_h))):
                _accum(w, dW[:, k * u:(k + 1) * u])
                _accum(bk, db[k * u:(k + 1) * u])
            _accum(self.U_z, dU_zr[:, :u])
            _accum(self.U_r, dU_zr[:, u:])
            _accum(self.U_h, dU_h)

        return op_output(states if keep_states else h, inputs, back)


# The fewest rows x units a block of a GRU recurrence takes to its
# own thread. Timed at one BLAS thread on a shared 2-CPU x86_64 VM (T 106,
# lengths uniform in [35, 106], gate inputs from a projected table), two
# blocks of 8192-16384 cells were slower than one (2048 x 16: 44.6 -> 52.6
# ms, 1024 x 32: 35.1 -> 41.3 ms, 128 x 128: 21.3 -> 29.6 ms) but at 256 x
# 128, 7% faster (42.0 -> 38.9 ms), while two blocks of 24576 cells or
# more were faster at every width tried (384 x 128: 62.8 -> 44.3 ms, 512 x
# 128: 83.5 -> 59.9 ms, 1536 x 32: 75.1 -> 58.2 ms, 3072 x 16: 93.0 -> 68.8
# ms). Below that a block's per-step numpy calls, which hold the
# interpreter lock, cost more than its share of the products saves.
MIN_BLOCK_CELLS = 192 * 128

_block_cap: int | None = None  # set_block_cap's cap; None: the CPU count


def set_block_cap(cap: int | None) -> None:
    """Caps the blocks this process's GRU recurrences split into
    (None: the CPU count). Cross-validation runs it in each fold process,
    so that the folds' threads together do not outnumber the CPUs."""
    global _block_cap
    _block_cap = cap


@cache
def openblas() -> tuple | None:
    """(file name, thread-count getter, setter) of the OpenBLAS numpy
    loaded, read from ``/proc/self/maps``; None without ``/proc`` or one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in filter(os.path.isfile, libs):  # a file replaced since it loaded reads "<path> (deleted)"
        handle = ctypes.CDLL(lib)
        for spelling in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            if hasattr(handle, spelling.format("get_num_threads")):
                get, put = (getattr(handle, spelling.format(f"{verb}_num_threads")) for verb in ("get", "set"))
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return os.path.basename(lib), get, put
    return None


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports now; None where ``openblas`` finds none."""
    return openblas() and openblas()[1]()


def pin_blas() -> None:
    """Sets OpenBLAS to one thread where ``openblas`` finds it: no bit then depends on the CPU count."""
    if openblas():
        openblas()[2](1)


def cpu_count() -> int:
    """The CPUs this process may run on; all of them where the OS reports no affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def block_cap() -> int:
    """The most blocks a GRU recurrence runs as in this process."""
    cpus = cpu_count()
    return cpus if _block_cap is None else min(_block_cap, cpus)


def recurrence_blocks(rows: int, units: int) -> int:
    """How many blocks of rows, each on its own thread, a GRU recurrence
    over ``rows`` rows of ``units`` runs as, recorded (training) or not
    (inference): as many as hold ``MIN_BLOCK_CELLS`` rows x units each, up
    to ``block_cap``, but one unless OpenBLAS reports one thread now
    (``blas_threads``, so a count set at run time is seen too). With more
    BLAS threads each product already runs on every CPU, and a split only
    adds calls; the CLI pins one (``pin_blas``). ``GRULayer._recurrence``
    says what runs in the blocks.

    Blocks are contiguous and hold about equal live-position counts
    (``row_blocks``). A block is rows r0:r1 and, at each step, their
    contiguous run of the batch's time-major live order, which the
    recorded buffers follow; its states are one contiguous slice of the
    packed states. A row's bits do not depend on its block: every index
    is checked and the dropout mask drawn before the split; every product
    of a step is a gemm, a lone live row's too (``_gemm_rows``), forward
    and backward; each weight gradient is one product over all positions,
    as unsplit; and OpenBLAS gives a gemm row the same bits whatever the
    call's other rows, when the other operand is C-ordered.
    With a transposed view it does not: a product of up to 9 rows (at 128
    columns) by one takes a small-matrix kernel, so the backward's
    recurrent products multiply by C-order copies of U^T. Both properties
    were checked only on x86_64 with OpenBLAS 0.3.31 (scipy-openblas,
    DYNAMIC_ARCH, SkylakeX kernels); another build may pick other kernels
    by matrix size. On a new host, run
    ``TestGRUBlocks``, ``test_split_at_paper_width_in_a_fresh_process``,
    ``test_recorded_step_splits_at_paper_width_in_a_fresh_process`` and
    ``test_recorded_attention_step_splits_at_paper_width_in_a_fresh_process``
    in tests/test_layers.py and ``TestBatchInvariance`` in tests/test_model.py."""
    return thread_count(rows * units // MIN_BLOCK_CELLS)


def thread_count(most: int) -> int:
    """How many threads a phase that could use ``most`` runs on: ``most``
    up to ``block_cap``, but one unless OpenBLAS reports one thread now.
    The GRU's and attention's row blocks and Adam's blocks of a large
    parameter all split by it."""
    if most < 2 or blas_threads() != 1:
        return 1
    return max(1, min(most, block_cap()))


def row_blocks(mask: np.ndarray, units: int) -> list[int]:
    """Bounds [0, ..., b] of the contiguous row blocks a GRU
    recurrence over a [b, T] mask, and attention over its states, run as,
    with about equal live (mask True) position counts; [0, b] is one
    block, as is a batch without a live position."""
    b = mask.shape[0]
    k = recurrence_blocks(b, units)
    if k == 1:
        return [0, b]
    ends = np.cumsum(np.count_nonzero(mask, axis=1))
    if not ends[-1]:
        return [0, b]
    cuts = np.searchsorted(ends, ends[-1] * np.arange(1, k) / k) + 1
    return sorted({0, *cuts.tolist(), b})


def _gemm_rows(a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ w`` with every row computed by gemm, so each row's bits do not
    depend on the other rows; numpy sends a one-row product to gemv. Into
    ``out`` when given."""
    if a.shape[0] != 1:
        return np.matmul(a, w, out=out)
    row = (np.concatenate([a, a]) @ w)[:1]
    if out is None:
        return row
    out[...] = row
    return out


def _threads(count: int):
    """A pool of ``count`` threads for a ``with``, joined when it is left,
    also on an error; for none, a context that gives None."""
    return ThreadPoolExecutor(count) if count else nullcontext()


def _on_threads(pool: ThreadPoolExecutor | None, jobs: list) -> list:
    """Runs each of ``jobs``, calls without arguments: the first on the
    calling thread and the rest in ``pool``, or all on the calling thread
    without one. Returns their results in order."""
    if pool is None:
        return [job() for job in jobs]
    rest = [pool.submit(job) for job in jobs[1:]]
    return [jobs[0]()] + [f.result() for f in rest]


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


# Packed rows per block of attention's score input: 1 MB at 128 float32
# units, so that a block stays in L2.
SCORE_BLOCK = 2048


class AttentionLayer:
    """Additive attention over GRU states: e_t = v . tanh(h_t W), softmax over
    unmasked steps, output is the weighted state sum.

    The scores are computed ``SCORE_BLOCK`` packed rows at a time, in taped
    and untaped calls alike, a bound on the untaped call's memory. Each
    row's score has its own bits, whatever the other rows of its block or
    batch: ``h_t W`` is a gemm row (``_gemm_rows``), and v . tanh(h_t W) a
    per-row ``einsum`` reduction, where a gemv would round a row by its
    position in the call. At more than one BLAS thread, as in a library
    caller that never runs ``pin_blas``, the threads split each gemm's rows,
    so a row's bits may depend on its batch there.

    A forward runs in the row blocks of the GRU call that made its states
    (``row_blocks``), each on its own thread, all joined before it returns.
    A block's live positions are one contiguous run of the packed states:
    it scores them, checks the scores, normalizes them and computes its
    rows' contexts, and writes only its own rows. Every op is row-wise, so
    the bits do not depend on the block count. The backward runs on the
    calling thread. The layer keeps nothing but its parameters.
    """

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

        ``states`` are the GRU's packed states [n live, units]: one row per
        live (mask True) position of the [b, T] mask, batch-major, as
        ``GRULayer.forward`` returns them. Only live positions are scored:
        padded ones get weight exactly 0, and a row with no live position
        gets a zero context. ``weights`` is a readout and takes no gradient.

        The score input tanh(h_t W) has one [units] row per live position.
        A call that records a tape keeps all n rows, which backward reads;
        any other call reduces one block of them at a time to its scores,
        through scratch of at most [SCORE_BLOCK, units] per row block, made
        for the call. Context and weights are always fresh arrays.
        """
        mask = np.asarray(mask, dtype=bool)
        if states.data.ndim != 2 or mask.ndim != 2:
            raise ShapeError(f"attention expects packed [n live, units] states and a [batch, T] mask, "
                             f"got {states.shape} and {mask.shape}")
        (b, steps), (n, u) = mask.shape, states.shape
        # live positions row-major: those of rows[k] are states[starts[k]:ends[k]]
        per_row = np.count_nonzero(mask, axis=1)
        if per_row.sum() != n:
            raise ShapeError(f"attention mask has {per_row.sum()} live positions, states have {n} rows")
        W, v = self.W_a, self.v_a
        _check_dtypes(states, W, v)
        taped = active_tape() is not None and any(t.requires_grad for t in (states, W, v))
        rows = np.flatnonzero(per_row)
        counts = per_row[rows]
        ends = np.cumsum(counts)
        starts = ends - counts
        live = states.data
        a = np.empty((n, u), dtype=states.dtype) if taped else None
        w = np.empty(n, dtype=states.dtype)  # the scores, then in place the weights
        context = np.zeros((b, u), dtype=states.dtype)

        def attend(k0: int, k1: int) -> None:
            """Rows rows[k0:k1], whose live positions are the run p0:p1:
            their scores, weights and contexts."""
            if k0 == k1:
                return
            p0, p1 = int(starts[k0]), int(ends[k1 - 1])
            e, at, count = w[p0:p1], starts[k0:k1] - p0, counts[k0:k1]
            buf = None if taped else np.empty((min(SCORE_BLOCK, p1 - p0), u), dtype=states.dtype)
            with np.errstate(invalid="ignore", over="ignore"):  # numpy's error state is per thread
                for lo in range(p0, p1, SCORE_BLOCK):
                    hi = min(lo + SCORE_BLOCK, p1)
                    block = a[lo:hi] if taped else buf[:hi - lo]
                    _gemm_rows(live[lo:hi], W.data, out=block)
                    np.tanh(block, out=block)
                    np.einsum("nu,u->n", block, v.data[:, 0], out=w[lo:hi])
                # a non-finite live state is reported once, as a NumericError:
                # tanh can saturate it into finite scores, but every live
                # state reaches its row's context with a nonnegative weight
                if not np.isfinite(e).all():
                    raise NumericError("attention scores contain NaN or Inf")
                e -= np.repeat(np.maximum.reduceat(e, at), count)
                np.exp(e, out=e)
                e /= np.repeat(np.add.reduceat(e, at), count)
                # a product per row: np.add.reduceat over the rows of w * live
                # is many times slower
                for i, lo, hi in zip(rows[k0:k1].tolist(), starts[k0:k1].tolist(), ends[k0:k1].tolist()):
                    context[i] = w[lo:hi] @ live[lo:hi]
                if not np.isfinite(context[rows[k0:k1]]).all():
                    raise NumericError("attention context contains NaN or Inf: a live GRU state is not finite")

        # row block j holds rows[edges[j]:edges[j + 1]]
        edges = np.searchsorted(rows, row_blocks(mask, u)).tolist()
        with _threads(len(edges) - 2) as pool:
            _on_threads(pool, [partial(attend, k0, k1) for k0, k1 in zip(edges, edges[1:])])
        weights = np.zeros((b, steps), dtype=states.dtype)
        weights[mask] = w

        def back(g):
            g_live = np.repeat(g[rows], counts, axis=0)
            dw = np.einsum("nu,nu->n", live, g_live)
            dw -= np.repeat(np.add.reduceat(w * dw, starts), counts)
            de = w * dw
            _accum(v, a.T @ de[:, None], owned=True)
            dpre = de[:, None] * v.data[:, 0]
            dpre *= 1.0 - a * a
            _accum(W, live.T @ dpre, owned=True)
            if states.requires_grad:
                dlive = dpre @ W.data.T
                dlive += w[:, None] * g_live
                _accum(states, dlive, owned=True)

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
