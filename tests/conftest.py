import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Pieces the exactness fuzz concatenates. Whitespace appears several times so
# that texts split into many chunks; the Unicode pieces are the ones where
# case folding, letter tests or whitespace tests differ between code paths.
_ASCII_PIECES = (
    "a", "word", "Hello", "WOW", "OK", "XD", "xD", ":)", ":-(", "<3",
    "http://", "https://", "HTTP://", "hTTpS://", "www.", "WWW.", "Www.", "t.co/x",
    "@", "@sam", "#", "#Tag", "0", "42", "3.14", "1,000", "'", "don't", "O'NEIL",
    ".", ",", "!", "?", "_", "-", "/", ":", "$",
    " ", " ", " ", "  ", "\t", "\n", "\x1c",
)
_UNICODE_PIECES = (
    "http\u017f://", "HTTP\u017f://", "\u0130", "\u00df", "\u212a", "\u0138", "\u01c5", "\u01c4",
    "\u0301", "e\u0301", "\u00e9", "\u00c9COLE", "\u6f22\u5b57", "\u0939\u093f\u0928\u094d\u0926\u0940",
    "\u0663", "\u3000", "\u3000", "\u00a0", "\u2003",
)


@pytest.fixture(scope="session")
def fuzz_texts() -> list[str]:
    """20k seeded texts; even ones are pure ASCII, odd ones mix in Unicode."""
    rng = random.Random(20240615)
    mixed = _ASCII_PIECES + _UNICODE_PIECES
    texts = []
    for i in range(20_000):
        pool = _ASCII_PIECES if i % 2 == 0 else mixed
        texts.append("".join(rng.choice(pool) for _ in range(rng.randint(0, 14))))
    return texts


@pytest.fixture(scope="session")
def all_code_points() -> str:
    """Every code point, surrogates included, in order."""
    return "".join(map(chr, range(0x110000)))


@pytest.fixture(scope="session")
def run_snippet():
    """Runs a Python snippet in a fresh interpreter that imports the package
    from src/, under OPENBLAS_NUM_THREADS=``blas_threads`` (OpenBLAS reads
    it when numpy loads, so a variable's effect needs its own process);
    returns the snippet's stdout and fails the test if it exits non-zero."""

    def run(snippet: str, blas_threads: int = 1) -> str:
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(blas_threads)}
        done = subprocess.run([sys.executable, "-c", snippet], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture
def blocks(monkeypatch):
    """``blocks(k, rows, units)`` makes a GRU recurrence over ``rows`` rows
    of ``units`` split into ``k`` blocks: OpenBLAS pinned to one thread, k
    CPUs, and ``MIN_BLOCK_CELLS`` a k-th of its cells."""
    from abusenet import layers

    def force(k, rows, units):
        monkeypatch.setattr(layers, "blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(layers, "_block_cap", None)
        monkeypatch.setattr(layers, "MIN_BLOCK_CELLS", rows * units // k if k > 1 else rows * units + 1)

    return force


@pytest.fixture
def openblas():
    """``layers.openblas()``, None where none is found; its thread count is
    set back after the test."""
    from abusenet import layers

    lib = layers.openblas()
    threads = lib and lib[1]()
    yield lib
    if lib:
        lib[2](threads)


@pytest.fixture
def pools(monkeypatch):
    """The thread count of every pool ``abusenet.layers`` makes, in order."""
    from abusenet import layers

    made = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, workers):
            made.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(layers, "ThreadPoolExecutor", Pool)
    return made
