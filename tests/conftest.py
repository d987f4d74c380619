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
    """Replace the banded driver's helper pool with one that runs each task
    as it is submitted, so no thread starts, and record every _run_bands
    call as (threads, bands): the threads it used, the caller plus one per
    helper task, and the (lo, hi) bands it ran, sorted.  Returns the list
    of calls."""
    calls, helpers = [], []

    class InlinePool:
        def submit(self, fn, *args):
            helpers.append(args)
            future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as error:
                future.set_exception(error)
            return future

    run_bands = watermark._run_bands

    def recorded(work, *args):
        helpers.clear()
        ran = []

        def band(lo, hi):
            ran.append((lo, hi))
            work(lo, hi)

        run_bands(band, *args)
        calls.append((1 + len(helpers), sorted(ran)))

    monkeypatch.setattr(watermark, "_pool", InlinePool())
    monkeypatch.setattr(watermark, "_run_bands", recorded)
    return calls


@pytest.fixture
def failing_bands(monkeypatch):
    """Cut every route into one-block-row bands on two CPUs, whatever the
    host has, and make the transform kernel's shared entry, _column_pairs,
    raise a MemoryError when a helper's band reaches it (helper bands run
    on pool threads, the caller's on the main thread); calls made before
    the fan-out, and the caller's own bands, still work.  Every band that
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
    monkeypatch.setattr(watermark, "_cpus", lambda: 2)
    monkeypatch.setattr(watermark, "_column_pairs", failing)
    return error
