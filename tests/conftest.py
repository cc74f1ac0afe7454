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
def lane_nbytes():
    """of(n): a lane's n-by-n working buffer and the workspace its SVD
    holds beside it, in bytes; no workspace on numpy's route, which
    allocates its own untraced."""

    def of(n):
        lane = spectral._Lane(n, spectral._lapack())
        return lane.a.nbytes, lane.workspace_nbytes() if lane.lapack else 0

    return of


@pytest.fixture
def lapack_calls(monkeypatch):
    """on(record): each zgesdd and zgetrf call of shifted's LAPACK route is
    reported first as record("svd", a) or record("slogdet", a), with a the
    n-by-n working buffer handed to LAPACK, from the lane that makes it;
    the lwork query is not a call. Where that route is missing, nothing is
    patched: numpy's route is then the test's own np.linalg patches."""

    def on(record):
        real = spectral._lapack()
        if real is None:
            return

        def zgesdd(*args):
            if args[11].value != -1:
                record("svd", args[3])
            return real.zgesdd(*args)

        def zgetrf(*args):
            record("slogdet", args[2])
            return real.zgetrf(*args)

        handle = spectral._Lapack(zgesdd, zgetrf)
        monkeypatch.setattr(spectral, "_lapack", lambda: handle)

    return on


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
