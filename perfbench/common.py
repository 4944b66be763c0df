"""Statistics, the environment record and the per-run result shared by all workloads."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

now = time.perf_counter


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest nearest-rank
    percentile that leaves at least ``beyond`` samples above it.

    With too few samples for any such percentile the maximum is returned and
    the count beyond it is 0.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return float(xs[-1]), 100.0, 0
    rank = n - beyond
    return float(xs[rank - 1]), 100.0 * rank / n, beyond


def peak_rss_mb() -> float:
    """Peak resident set size of this process alone (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "seed": seed,
    }


class Run:
    """Operations, checks and metrics of one workload run.

    Every timed operation and every correctness check counts as attempted;
    a check that does not hold, or an operation that raises, counts as
    failed. ``error_rate`` is failed / attempted.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.report: list[dict] = []
        self.facts: dict = {}

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def show(self, name: str, value, unit: str, better: str = "", note: str = "") -> None:
        """A line of the human-readable report under the metric's own name."""
        self.report.append({"name": name, "value": value, "unit": unit, "better": better,
                            "note": note})

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures,
                "metrics": self.metrics, "report": self.report, "facts": self.facts}


def probs_ok(probs: np.ndarray) -> bool:
    """Finite probabilities whose rows each sum to 1 within float32 tolerance."""
    return bool(np.isfinite(probs).all()
                and np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-5))
