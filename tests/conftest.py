import threading
from concurrent.futures import Future

import pytest
from hypothesis import settings

from hnttmark import watermark

# Examples are derived from each test's source rather than drawn at random,
# so every run checks the same cases, and no deadline fails a slow example
# on a busy host.
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the banded driver's thread pool with one that runs each call
    as it is submitted, so no thread starts.  Returns the lists it records:
    the pool sizes asked for and the argument tuples submitted."""
    sizes, submitted = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(watermark, "ThreadPoolExecutor", InlinePool)
    return sizes, submitted


@pytest.fixture
def failing_bands(monkeypatch):
    """Cut every route into one-block-row bands on two CPUs, whatever the
    host has, and make the transform kernel's shared entry, _column_pairs,
    raise a MemoryError when a band reaches it (bands run on pool
    threads); calls made before the fan-out still work.  Every band that
    transforms goes through _column_pairs: _transform calls it, and
    verify with a cell reference calls it alone.  Returns the error
    raised."""
    error = MemoryError("band out of memory")
    column_pairs = watermark._column_pairs

    def failing(a):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return column_pairs(a)

    monkeypatch.setattr(watermark, "_BAND_PIXELS", 1)
    monkeypatch.setattr(watermark.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(watermark, "_column_pairs", failing)
    return error
