"""Shared test helpers."""

import tracemalloc

import numpy as np
import pytest


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
