"""The hnttmark benchmark: one workload per call, from the root of a checkout.

    python3 perfbench/run.py --workload embed_cli --seed 1 --seconds 20 --trace 0

Each call writes the workload's seeded inputs and their expected outputs
under .perfbench_work/run-<pid>/, then runs the workload as a closed loop with
one client in a fresh worker process (see worker.py), checking every output
and, between requests, timing fresh interpreters set up the program.  It
prints each metric by name and unit, the environment, and as its last line
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run gives the per-layer ones (names in BENCHMARK.json).
The program is imported from src/ of the checkout; there is nothing to build.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / ("run-%d" % os.getpid())  # one per run, so runs cannot collide

WORKER_TIMEOUT_S = 170


def end_to_end(result):
    latencies_ms = sorted(t * 1e3 for t in result["latencies_s"])
    p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
    return {
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": p90,
        # blocks of correct responses per second spent inside requests
        "throughput_mblocks_s": result["blocks"] / sum(latencies_ms) / 1e3,
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }, sum(t > p90 for t in latencies_ms)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(inputs.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hnttmark" / "__init__.py").is_file():
        print("error: no hnttmark source at %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))  # inputs checks itself against the package's block oracles

    try:
        manifest = inputs.make(args.workload, args.seed, WORK)
        result_path = WORK / "result.json"
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(WORK / "manifest.json"),
             str(args.seconds), str(args.trace), str(result_path)],
            env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
        if worker.returncode != 0:
            print("error: worker exited with %d" % worker.returncode, file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()

    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "image": "%dx%d" % (manifest["size"], manifest["size"]),
        "requests": len(result["latencies_s"]),
        "distinct_inputs": len(manifest["requests"]),
        "engine_workers": result["workers"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    print("environment: %s" % json.dumps(env_record))
    print("note: the %d requests cycle over input files written just before the run, so they are "
          "read from the page cache; disk behaviour is not measured" % len(manifest["requests"]))
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print("check failed: %s" % problem)

    notes = {}
    if args.trace:
        values = result["layers"]
        gap = result["root_gap"]
        if gap is not None:
            print("trace: request latency - %s span duration, median %d ns, largest %d ns of %d ns"
                  % (gap["span"], gap["median_gap_ns"], gap["gap_ns"], gap["latency_ns"]))
    else:
        values, beyond = end_to_end(result)
        samples = len(result["latencies_s"])
        notes["latency_p90_ms"] = "(n=%d, %d beyond)" % (samples, beyond)
        # The median is printed for reading, not put in the result: a shared
        # host switches between speed states ~30% apart for seconds at a time,
        # and the median of a single-threaded CLI run follows the share of the
        # run spent in each, so two runs of the same code differ by more than
        # any bound allows.  p90 falls in the slow state in every run.
        print("%-40s %14.6f ms (n=%d, not in the result)" % ("latency_p50_ms", values["latency_p50_ms"], samples))
    print("failed_frac %.6f (%d of %d requests)" % (failed / attempted, failed, attempted))
    # Names and units come from BENCHMARK.json; the result must hold every one.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print("error: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6f %s %s" % (name, value, unit, notes.get(name, "")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
