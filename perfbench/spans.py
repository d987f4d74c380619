"""Spans around the package's public functions, and the self time of each.

A `Tracer` replaces public functions at their module or class attributes with
timing wrappers, so calls the package makes through those attributes are
seen too, and puts the originals back on exit; it may be entered once per
request.  Spans stay in memory, each with its request id and the id of the
span that caused it, until the run ends.  A function that no longer exists
is not wrapped; like a function a workload never calls, it reads 0 calls.
"""

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict, namedtuple
from statistics import median

Span = namedtuple("Span", "id request name start end parent")

# The layer boundaries of the package, as "<module>.<attribute path>".
SPANS = (
    "cli.main",
    "imageio.load_pgm",
    "imageio.read_pgm",
    "imageio.save_pgm",
    "imageio.write_pgm",
    "imageio.load_watermark",
    "watermark.embed_image",
    "watermark.extract_image",
    "watermark.verify",
    "watermark.expand_pattern",
    "watermark.TamperReport.to_text",
    "watermark.TamperReport.to_dict",
    "engine.process_blocks",
)


def _bytes_in(args, result):
    return {"imageio.bytes_in": len(args[0])}


def _bytes_out(args, result):
    return {"imageio.bytes_out": len(result)}


def _verify_blocks(args, result):
    return {
        "watermark.verify.blocks": int(result.tampered.size),
        "watermark.verify.tampered_blocks": int(result.tampered.sum()),
    }


# Counts taken from a span's arguments or result, where the work happens.
COUNTERS = {
    "imageio.read_pgm": _bytes_in,
    "imageio.write_pgm": _bytes_out,
    "watermark.verify": _verify_blocks,
}


class Tracer:
    """Context manager that installs the span wrappers and restores the originals."""

    def __init__(self, names=SPANS):
        self.names = names
        self.installed = []
        self.spans = []
        self.counts = defaultdict(int)  # (request, count name) -> total
        self.request = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals = []

    def count(self, name, value):
        if value:
            self.counts[self.request, name] += value

    def __enter__(self):
        self.installed = []
        for name in self.names:
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module("hnttmark." + module_name)
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                continue
            self._originals.append((owner, path[-1], original))
            setattr(owner, path[-1], self._wrap(name, original, COUNTERS.get(name)))
            self.installed.append(name)
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(Span(span_id, tracer.request, name, start, end, parent))
            if counter is not None:
                for key, value in counter(args, result).items():
                    tracer.count(key, value)
            return result

        return wrapper

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def covered_ns(intervals, lo, hi):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that its child spans cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.end - s.start - covered_ns(children[s.id], s.start, s.end) for s in spans}


def root_gaps_ns(spans, name, latencies_ns):
    """Request id -> measured latency minus the duration of the top-level span
    called `name` in that request, for the requests that have one.  A gap
    near zero means the span accounts for the time the client waited."""
    durations = {s.request: s.end - s.start for s in spans if s.name == name and s.parent < 0}
    return {r: latencies_ns[r] - d for r, d in durations.items() if r in latencies_ns}


def layer_metrics(spans, counts, requests, names, count_names):
    """Per-layer metrics of one traced run over `requests` requests.

    S.self_ms is the median, over the requests that call S, of S's total
    self time in the request; S.calls and every count are means per request.
    Every name gets a value: a span never called reads 0 ms and 0 calls, and
    a count never taken reads 0, meaning the workload's path does not reach
    that layer.
    """
    selfs = self_times(spans)
    per_request = defaultdict(lambda: defaultdict(int))
    calls = defaultdict(int)
    for s in spans:
        per_request[s.name][s.request] += selfs[s.id]
        calls[s.name] += 1
    metrics = {}
    for name in names:
        values = list(per_request[name].values())
        metrics[name + ".self_ms"] = median(values) / 1e6 if values else 0.0
        metrics[name + ".calls"] = calls[name] / requests
    totals = defaultdict(int)
    for (_, key), value in counts.items():
        totals[key] += value
    for key in count_names:
        metrics[key] = totals[key] / requests
    return metrics
