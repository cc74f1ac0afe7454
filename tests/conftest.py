"""Shared test helpers."""

import tracemalloc

import numpy as np
import pytest

from circlaw import spectral
from circlaw.ensemble import write_matrix_csv


@pytest.fixture
def traced_peak():
    """Peak bytes tracemalloc sees above the starting level while a call
    runs; numpy reports its array buffers to tracemalloc."""

    def measure(fn, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def shifted():
    """The copy-based oracle for the in-place shift: a new complex128 array
    a - z*I, with a left as it was."""

    def shift(a, z):
        out = np.array(a, dtype=np.complex128)
        idx = np.arange(out.shape[0])
        out[idx, idx] -= z
        return out

    return shift


@pytest.fixture
def at_ambient_threads():
    """at(count, fn): fn() run at an ambient OpenBLAS thread count of count,
    with the ambient count restored after. Skips where the count cannot be
    set: without numpy's OpenBLAS thread symbols, or with fewer cores."""
    openblas = spectral._openblas()
    if openblas is None:
        pytest.skip("numpy's OpenBLAS thread-count symbols are not available")
    get_threads, set_threads = openblas
    ambient = get_threads()

    def at(count, fn):
        set_threads(count)
        try:
            if get_threads() != count:
                pytest.skip(f"OpenBLAS does not run {count} threads here")
            return fn()
        finally:
            set_threads(ambient)

    return at


@pytest.fixture
def rank3_csv(tmp_path):
    """The path of a dense rank-3 complex n-by-n matrix written as
    ``j,k,re,im`` rows."""

    def write(n):
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal((2, n, 3)) + 1j * rng.standard_normal((2, n, 3))
        path = tmp_path / "rank3.csv"
        write_matrix_csv(path, u @ v.conj().T)
        return path

    return write
