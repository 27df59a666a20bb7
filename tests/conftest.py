"""Shared test helpers."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` and returns its result with the peak
    of the memory it allocated on top of what was live before, in bytes, as
    tracemalloc counts it (NumPy reports its array buffers there)."""
    def run(fn):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
    return run
