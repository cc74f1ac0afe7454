"""Shared test helpers."""

import tracemalloc

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
