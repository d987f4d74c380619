"""Run one workload as a closed loop with one client, in a fresh interpreter.

    python3 perfbench/worker.py MANIFEST SECONDS TRACE RESULT

The process holds only the program, its inputs' paths and the checker's
digests and truth arrays, so its peak resident memory is the program's.
CLI requests call `cli.main(argv)` in-process with stdout sent to a
byte-counting sink; engine requests call `engine.process_blocks`.  Each
request is timed end to end, then its output is checked outside the timed
interval.  An untraced run also times fresh interpreters set up the
program, spread over the run.  The raw results go to RESULT as JSON.
"""

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from hnttmark import cli, engine  # noqa: E402

import checker  # noqa: E402
import spans  # noqa: E402

MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
MIN_TRACED_ROUNDS = 20
WARMUP_REQUESTS = 2
SETUP_RUNS = 25  # fresh interpreters per untraced run; their median is setup_s
# numpy is imported before the clock starts: its import is most of the total,
# is not the package's work, and swings by +-70% with the state of this kind
# of shared VM, which would hide the package's own set-up cost.
SETUP_CODE = (
    "import time\n"
    "import numpy\n"
    "t = time.perf_counter()\n"
    "import hnttmark\n"
    "hnttmark.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)
COUNT_NAMES = (
    "imageio.bytes_in",
    "imageio.bytes_out",
    "cli.stdout_bytes",
    "cli.report_bytes",
    "watermark.verify.blocks",
    "watermark.verify.tampered_blocks",
)


def nproc():
    return len(os.sched_getaffinity(0))


class ByteSink:
    """Stands in for stdout and counts the bytes written to it."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return len(text)

    def flush(self):
        pass


class CliRequest:
    def __init__(self, spec):
        self.spec = spec
        self.argv = spec["argv"]
        self.output = spec.get("output") or spec["report"]
        self.truth = np.load(spec["truth"]) if "truth" in spec else None
        self.sink = ByteSink()

    def prepare(self):
        # A stale output from an earlier request must not pass the check.
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.output)
        self.sink.bytes = 0

    def run(self, workers):
        with contextlib.redirect_stdout(self.sink):
            return cli.main(self.argv)

    def check(self, exit_code, tracer):
        if tracer is not None:
            tracer.count("cli.stdout_bytes", self.sink.bytes)
            if "report" in self.spec and os.path.exists(self.output):
                tracer.count("cli.report_bytes", os.path.getsize(self.output))
        if self.truth is not None:
            return checker.check_verify_file(self.output, exit_code, self.truth)
        if exit_code != 0:
            return ["exit code %r, expected 0" % exit_code]
        try:
            with open(self.output, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return ["output unreadable: %s" % exc]
        return checker.check_bytes(data, self.spec["digest"])


class EngineRequest:
    def __init__(self, spec):
        self.spec = spec
        self.stack = np.load(spec["stack"])
        self.cells = np.load(spec["cells"])

    def prepare(self):
        pass

    def run(self, workers):
        return engine.process_blocks(self.stack, self.cells, workers=workers)

    def check(self, out, tracer):
        return checker.check_bytes(np.ascontiguousarray(out).tobytes(), self.spec["digest"])


def setup_time():
    """Seconds a fresh interpreter that has imported numpy takes to import
    hnttmark and build the CLI parser."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout)


class SetupSampler:
    """Times `count` fresh interpreters at even intervals through a closed
    loop, between requests, so their median covers the whole run rather than
    one moment of the machine."""

    def __init__(self, count, seconds):
        self.count = count
        self.seconds = seconds
        self.times = []

    def __call__(self, elapsed):
        if len(self.times) < self.count and elapsed >= len(self.times) * self.seconds / self.count:
            self.times.append(setup_time())

    def median(self):
        while len(self.times) < self.count:
            self.times.append(setup_time())
        return median(self.times)


class Phase:
    """Outcome of the requests sent in one mode."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.blocks = 0
        self.problems = []

    def median_ms(self):
        return median(self.latencies) * 1e3


def send(request, phase, round_id, workers, tracer):
    """Send one request, time it end to end, then check its output."""
    request.prepare()
    if tracer is not None:
        tracer.request = round_id
    # The tracer installs its wrappers before t0 and removes them after t1.
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = request.run(workers)
            problems = None
        except Exception:  # a crash is a failed request, not the end of the run
            problems = ["raised: %s" % traceback.format_exc().strip().splitlines()[-1]]
        phase.latencies.append(time.perf_counter() - t0)
    if problems is None:
        problems = request.check(result, tracer)
    if problems:
        phase.failed += 1
        phase.problems.extend(problems[: 5 - len(phase.problems)])
    else:
        phase.blocks += request.spec["blocks"]


def closed_loop(requests, seconds, min_rounds, modes, between=None):
    """Send each request only after the previous one completed, cycling the
    inputs, until `seconds` have passed and at least `min_rounds` ran.

    A round sends one input once in each mode, a (workers, tracer) pair, in
    an order that rotates every round, so the modes are compared on the same
    inputs at the same moments of the machine.  Returns one Phase per mode.
    """
    phases = [Phase() for _ in modes]
    start = time.perf_counter()
    i = 0
    while i < min_rounds or time.perf_counter() - start < seconds:
        request = requests[i % len(requests)]
        for k in range(len(modes)):
            m = (i + k) % len(modes)
            send(request, phases[m], i, *modes[m])
        if between is not None:
            between(time.perf_counter() - start)
        i += 1
    return phases


def main(manifest_path, seconds, trace, result_path):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    workers = nproc()
    engine_run = manifest["workload"] == "engine_blocks"
    if engine_run:
        requests = [EngineRequest(spec) for spec in manifest["requests"]]
    else:
        requests = [CliRequest(spec) for spec in manifest["requests"]]
    closed_loop(requests, 0, WARMUP_REQUESTS, [(workers, None)])

    layers = setup_s = root_gap = None
    if not trace:
        setup_time()  # warm-up, not counted
        sampler = SetupSampler(SETUP_RUNS, seconds)
        phases = closed_loop(requests, seconds, MIN_REQUESTS, [(workers, None)], sampler)
        setup_s = sampler.median()
    else:
        # Untraced and traced (and, for the engine, workers=1) in turn on
        # each input; the untraced mode is the base for the tracing overhead
        # and the fan-out speed-up.
        tracer = spans.Tracer()
        modes = [(workers, None), (workers, tracer)] + ([(1, None)] if engine_run else [])
        phases = closed_loop(requests, seconds, MIN_TRACED_ROUNDS, modes)
        base, traced = phases[0], phases[1]
        layers = spans.layer_metrics(tracer.spans, tracer.counts, len(traced.latencies),
                                     spans.SPANS, COUNT_NAMES)
        layers["trace.overhead_frac"] = traced.median_ms() / base.median_ms() - 1
        # The CLI never reaches the engine: its fan-out figures read 0 there.
        w1_ms = phases[2].median_ms() if engine_run else 0.0
        layers["engine.process_blocks.w1_ms"] = w1_ms
        layers["engine.fanout_speedup"] = w1_ms / base.median_ms()
        root = "engine.process_blocks" if engine_run else "cli.main"
        latencies_ns = {r: int(t * 1e9) for r, t in enumerate(traced.latencies)}
        gaps = spans.root_gaps_ns(tracer.spans, root, latencies_ns)
        if gaps:
            r = max(gaps, key=lambda k: abs(gaps[k]))
            root_gap = {"span": root, "gap_ns": gaps[r], "latency_ns": latencies_ns[r],
                        "median_gap_ns": median(gaps.values())}

    result = {
        "latencies_s": phases[0].latencies,
        "blocks": phases[0].blocks,
        "attempted": sum(len(p.latencies) for p in phases),
        "failed": sum(p.failed for p in phases),
        "problems": [msg for p in phases for msg in p.problems][:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "workers": workers if engine_run else None,
        "layers": layers,
        "root_gap": root_gap,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
