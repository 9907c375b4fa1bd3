"""Fixtures shared by the test modules."""

import gc
import tracemalloc

import pytest


def _traced_peak(run):
    """``run()`` and the most memory it held at once, as tracemalloc (numpy too) counts it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``traced_peak(run)`` -> (``run()``, its peak traced bytes above the start)."""
    return _traced_peak
