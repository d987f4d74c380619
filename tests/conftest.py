import threading
import warnings
from concurrent.futures import Future

import pytest
from hypothesis import settings

from hnttmark import watermark

# Examples are derived from each test's source rather than drawn at random,
# so every run checks the same cases, and no deadline fails a slow example
# on a busy host.
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    """Let a failing property test be reported under -W error.  On a failure
    hypothesis's own report hook imports hypothesis.extra._patching; where
    libcst is installed, that import warns that mypy_extensions.TypedDict is
    deprecated, and -W error would raise the warning inside the hook and end
    the run.  That one warning is ignored while reports are made; every
    other warning keeps its filter."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
        yield


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the banded driver's helper pool with one that runs each task
    as it is submitted, so no thread starts, and record every _run_bands
    call as (threads, bands): the threads it used, the caller plus one per
    helper task, and the pixel-row bands it ran as (start, stop), sorted.
    Returns the list of calls."""
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

        def band(rows):
            ran.append((rows.start, rows.stop))
            work(rows)

        run_bands(band, *args)
        calls.append((1 + len(helpers), sorted(ran)))

    monkeypatch.setattr(watermark, "_pool", InlinePool())
    monkeypatch.setattr(watermark, "_run_bands", recorded)
    return calls


@pytest.fixture
def failing_bands(monkeypatch):
    """Cut every route into one-block-row bands on two CPUs, whatever the
    host has, and make the transform kernel, _transform_sums, raise a
    MemoryError when a helper's band reaches it (helper bands run on pool
    threads, the caller's on the main thread); calls made before the
    fan-out, such as a cell's transform, and the caller's own bands, still
    work.  Every band that transforms calls _transform_sums: embed with a
    grid, extract, and verify against a cell or a grid.  Returns the error
    raised."""
    error = MemoryError("band out of memory")
    transform_sums = watermark._transform_sums

    def failing(a):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return transform_sums(a)

    monkeypatch.setattr(watermark, "_BAND_PIXELS", 1)
    monkeypatch.setattr(watermark, "_cpus", lambda: 2)
    monkeypatch.setattr(watermark, "_transform_sums", failing)
    return error
