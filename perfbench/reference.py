"""A fixed plain-numpy computation timed next to the program's operations.

The machine the benchmark runs on is shared: its speed drifts by a quarter
and more over tens of seconds, so wall times of the same code differ between
runs by more than the benchmark's bounds. Two identical numpy processes
timed turn about, on the other hand, agree within about a tenth. Each
workload therefore runs this computation between its operations and relates
every operation's time to the reference times measured just before and just
after it; the gated metrics are those ratios. The reference depends on numpy
alone and never changes with the program, so only a change to the program
moves a ratio.

The computation follows the shape of the model's text path at the
workload's sizes: an embedding gather, a GRU recurrence and, where the
workload trains, an Adam-style update of the embedding table. It runs in the
workload's own process: driven turn about from a second process, its runs
took up to 1.5 times as long as in the workload's process. Its arrays stay
allocated for the whole run, so they add a constant to the
workload's peak RSS (16 MB per 20000 x 200 table, 48 MB with the update's
moment arrays).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from common import median, now

UPDATE_BLOCK = 2048  # table rows per step of the update


@dataclass(frozen=True)
class Shape:
    batch: int
    seq_len: int
    embed_dim: int
    units: int
    vocab: int
    repeats: int  # recurrences per reference run
    update: bool  # whether each recurrence is followed by the table update
    nominal_s: float  # one run's median on the machine the benchmark was built on


class Reference:
    """Runs the reference and keeps the (start, end) of every run."""

    def __init__(self, shape: Shape, seed: int):
        rng = np.random.default_rng([seed, 99])
        f32 = np.float32
        self.shape = shape
        self.ids = rng.integers(0, shape.vocab, size=(shape.batch, shape.seq_len))
        self.table = (rng.standard_normal((shape.vocab, shape.embed_dim)) * 0.1).astype(f32)
        if shape.update:
            self.m = np.zeros_like(self.table)
            self.v = np.zeros_like(self.table)
        self.w = (rng.standard_normal((shape.embed_dim, 3 * shape.units)) * 0.1).astype(f32)
        self.u = (rng.standard_normal((shape.units, 3 * shape.units)) * 0.1).astype(f32)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._once()  # warm-up, untimed

    # Temporaries stay small (one time step, one block of table rows), so
    # that the reference does not raise the workload's peak RSS by a varying
    # amount.

    def _recurrence(self) -> np.ndarray:
        n = self.shape.units
        h = np.zeros((self.shape.batch, n), np.float32)
        for t in range(self.shape.seq_len):
            g = self.table[self.ids[:, t]] @ self.w
            zr = 1.0 / (1.0 + np.exp(-(g[:, :2 * n] + h @ self.u[:, :2 * n])))
            z, r = zr[:, :n], zr[:, n:]
            cand = np.tanh(g[:, 2 * n:] + (r * h) @ self.u[:, 2 * n:])
            h = (1.0 - z) * cand + z * h
        return h

    def _update(self, h: np.ndarray) -> None:
        for i in range(0, len(self.table), UPDATE_BLOCK):
            rows = slice(i, i + UPDATE_BLOCK)
            m, v, p = self.m[rows], self.v[rows], self.table[rows]
            grad = np.full_like(p, float(h.mean()) * 1e-3)
            m *= 0.9
            m += 0.1 * grad
            v *= 0.999
            v += 0.001 * grad * grad
            p -= 1e-6 * m / (np.sqrt(v) + 1e-8)

    def _once(self) -> None:
        h = self._recurrence()
        if self.shape.update:
            self._update(h)

    def run(self) -> float:
        """One reference run; returns its wall time in seconds."""
        t0 = now()
        for _ in range(self.shape.repeats):
            self._once()
        t1 = now()
        self.starts.append(t0)
        self.ends.append(t1)
        return t1 - t0

    def seconds_within(self, t0: float, t1: float) -> float:
        """Time the reference ran inside [t0, t1]."""
        return sum(e - s for s, e in zip(self.starts, self.ends) if s >= t0 and e <= t1)

    def around(self, t0: float, t1: float) -> float:
        """Median time of the reference runs that bracket or fall inside [t0, t1]:
        the last run that ended by t0, the first that started at or after t1,
        and every run between them."""
        first = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        last = min(bisect.bisect_left(self.starts, t1), len(self.starts) - 1)
        return median([e - s for s, e in zip(self.starts[first:last + 1],
                                             self.ends[first:last + 1])])

    def ratio(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1], reference runs inside it excluded, over
        the reference time around it."""
        return ((t1 - t0) - self.seconds_within(t0, t1)) / self.around(t0, t1)
