"""Self-tests of the benchmark's own parts: self-time arithmetic, the seeded
input generator, the output checker and the tracer.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

SMALL = 64


def test_self_time_subtracts_the_union_of_children():
    # parent 0..100 with children 10..30 and 20..50 (overlapping) and 90..120
    # (clipped at the parent's end); a grandchild does not count for the parent.
    trace = [
        Span(0, 0, "p", 0, 100, -1),
        Span(1, 0, "a", 10, 30, 0),
        Span(2, 0, "b", 20, 50, 0),
        Span(3, 0, "c", 90, 120, 0),
        Span(4, 0, "g", 12, 18, 1),
    ]
    selfs = spans.self_times(trace)
    assert selfs == {0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6}


def test_self_time_plus_sequential_children_is_the_duration():
    trace = [Span(0, 0, "cli.main", 0, 100, -1), Span(1, 0, "x", 5, 25, 0), Span(2, 0, "y", 25, 70, 0)]
    selfs = spans.self_times(trace)
    assert selfs[0] + 20 + 45 == 100 and selfs[1] + selfs[2] == 65


def test_root_gap_compares_the_top_span_with_the_measured_latency():
    trace = [Span(0, 0, "cli.main", 0, 100, -1), Span(1, 0, "cli.main", 10, 20, 0),
             Span(2, 1, "cli.main", 200, 260, -1), Span(3, 2, "other", 0, 5, -1)]
    assert spans.root_gaps_ns(trace, "cli.main", {0: 103, 1: 90, 2: 9}) == {0: 3, 1: 30}


def test_layer_metrics_take_medians_over_calling_requests():
    trace = [Span(i, i, "s", 0, (i + 1) * 1_000_000, -1) for i in range(3)]
    metrics = spans.layer_metrics(trace, {(0, "n"): 6}, 4, ["s", "never_called"], ["n", "never_counted"])
    assert metrics == {"s.self_ms": 2.0, "s.calls": 0.75, "n": 1.5,
                       "never_called.self_ms": 0.0, "never_called.calls": 0.0, "never_counted": 0.0}


def test_tracer_records_nested_spans_and_restores_originals(tmp_path):
    from hnttmark import imageio

    path = tmp_path / "x.pgm"
    path.write_bytes(inputs.pgm_bytes(np.zeros((4, 4), dtype=np.uint8)))
    original = imageio.load_pgm
    tracer = spans.Tracer(names=("imageio.load_pgm", "imageio.read_pgm", "imageio.no_such_function"))
    with tracer:
        assert imageio.load_pgm is not original
        tracer.request = 7
        imageio.load_pgm(path)
    assert imageio.load_pgm is original
    assert tracer.installed == ["imageio.load_pgm", "imageio.read_pgm"]
    child, parent = tracer.spans
    assert (parent.name, parent.request, parent.parent) == ("imageio.load_pgm", 7, -1)
    assert (child.name, child.request, child.parent) == ("imageio.read_pgm", 7, parent.id)
    assert parent.start <= child.start <= child.end <= parent.end
    assert tracer.counts == {(7, "imageio.bytes_in"): path.stat().st_size}
    with tracer:  # entered again for the next request: spans accumulate
        tracer.request = 8
        imageio.load_pgm(path)
    assert imageio.load_pgm is original
    assert tracer.installed == ["imageio.load_pgm", "imageio.read_pgm"]
    assert [s.request for s in tracer.spans] == [7, 7, 8, 8]


@pytest.mark.parametrize("workload", list(inputs.SIZES))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    def files(seed, name):
        inputs.make(workload, seed, tmp_path / name, size=SMALL)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir()) if p.name != "manifest.json"}

    first, again, other = files(1, "a"), files(1, "b"), files(2, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_cover_images_hold_every_grey_value():
    image = inputs.cover_image(np.random.default_rng(0), 256)
    assert len(np.unique(image)) == 256


def test_reference_embedding_matches_the_block_oracle():
    from hnttmark import watermark

    rng = np.random.default_rng(3)
    image = inputs.cover_image(rng, 16)
    grid = rng.integers(0, 3, (16, 16), dtype=np.uint8)
    marked = inputs.embed_image(image, grid)
    for y in range(0, 16, 4):
        for x in range(0, 16, 4):
            want = watermark.embed_block(image[y:y + 4, x:x + 4].tolist(), grid[y:y + 4, x:x + 4].tolist())
            assert marked[y:y + 4, x:x + 4].tolist() == want


def test_checker_flags_one_changed_pixel():
    rng = np.random.default_rng(4)
    marked = inputs.embed_image(inputs.cover_image(rng, SMALL), inputs.CHECKER)
    expected = inputs.digest(inputs.pgm_bytes(marked))
    assert checker.check_bytes(inputs.pgm_bytes(marked), expected) == []
    marked[5, 9] ^= 1
    assert checker.check_bytes(inputs.pgm_bytes(marked), expected)


def test_checker_flags_one_toggled_tampered_entry(tmp_path):
    manifest = inputs.make("verify_local", 5, tmp_path, size=SMALL)
    from hnttmark import cli

    for spec in manifest["requests"]:
        truth = np.load(spec["truth"])
        code = cli.main(spec["argv"])
        report = json.loads(Path(spec["report"]).read_text())
        assert checker.check_verify_report(report, code, truth) == []
        report["tampered"][0] = not report["tampered"][0]
        assert checker.check_verify_report(report, code, truth)
