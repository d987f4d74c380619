"""CLI surface: flag handling, exit codes, end-to-end file workflows."""

import argparse
import io
import json
import os
import subprocess
import sys

import numpy as np

import hnttmark
from hnttmark import cli, imageio
from hnttmark.cli import EXIT_ERROR, EXIT_OK, EXIT_TAMPERED, build_parser, main
from hnttmark.watermark import checkerboard_cell


def _make_image(path, seed=0, shape=(32, 32)):
    img = np.random.RandomState(seed).randint(0, 256, shape, dtype=np.uint8)
    imageio.save_pgm(path, img)
    return img


def test_params_output(capsys):
    assert main(["params"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "p = 3\n"
        "zeta = j\n"
        "N = 4\n"
        "p is an odd prime with p % 4 == 3: yes\n"
        "zeta is unimodular: yes\n"
        "multiplicative order of zeta = 4: yes\n"
        "cas table: 1 1 2 2\n"
        "H4:\n"
        "1 1 1 1\n"
        "1 1 2 2\n"
        "1 2 1 2\n"
        "1 2 2 1\n"
    )


def test_python_dash_m_runs_the_cli_quietly():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hnttmark.__file__)))
    proc = subprocess.run([sys.executable, "-m", "hnttmark", "params"], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert "cas table: 1 1 2 2" in proc.stdout


def test_transform_forward(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0"))
    assert main(["transform"]) == EXIT_OK
    assert capsys.readouterr().out == "1 1 1 1\n1 1 1 1\n1 1 1 1\n1 1 1 1\n"


def test_transform_inverse(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1"))
    assert main(["transform", "--inverse"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "1 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"


def test_transform_full(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0"))
    assert main(["transform", "--full"]) == EXIT_OK
    assert capsys.readouterr().out == "1 1 1 1\n1 1 1 1\n1 1 1 1\n1 1 1 1\n"


def test_transform_bad_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
    assert main(["transform"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    for flags in ([], ["--inverse"], ["--full"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(["5"] * 16)))
        assert main(["transform"] + flags) == EXIT_ERROR
        assert capsys.readouterr() == ("", "error: block values must be in {0, 1, 2}, found 5\n")
    # values past 64 bits, which numpy holds only as objects or floats, get
    # the same range message, naming the value
    for value in ["9" * 20 + "0" * 15, "-" + "9" * 20 + "0" * 15, str(2**63), str(-(2**63) - 1)]:
        monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(["0"] * 15 + [value])))
        assert main(["transform"]) == EXIT_ERROR
        assert capsys.readouterr() == ("", "error: block values must be in {0, 1, 2}, found %s\n" % value)


def test_embed_extract_round_trip_is_byte_identical(tmp_path):
    original = tmp_path / "orig.pgm"
    marked = tmp_path / "marked.pgm"
    wm_in = tmp_path / "wm.pgm"
    wm_out = tmp_path / "extracted.pgm"
    _make_image(original, seed=1)
    grid = np.random.RandomState(2).randint(0, 3, (32, 32), dtype=np.uint8)
    imageio.save_watermark(wm_in, grid)

    assert main(["embed", "--input", str(original), "--output", str(marked), "--watermark", str(wm_in)]) == EXIT_OK
    assert main(["extract", "--original", str(original), "--suspect", str(marked), "--output", str(wm_out)]) == EXIT_OK
    assert wm_in.read_bytes() == wm_out.read_bytes()


def test_verify_clean_and_tampered(tmp_path, capsys):
    original = tmp_path / "orig.pgm"
    marked = tmp_path / "marked.pgm"
    report_path = tmp_path / "report.json"
    _make_image(original, seed=3)
    assert main(["embed", "--input", str(original), "--output", str(marked), "--pattern", "checker"]) == EXIT_OK

    assert main(["verify", "--original", str(original), "--suspect", str(marked)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "total_tampered=0" in out

    # flip one pixel LSB inside block (2, 5)
    img = imageio.load_pgm(marked)
    img[9, 21] ^= 1
    tampered = tmp_path / "tampered.pgm"
    imageio.save_pgm(tampered, img)
    code = main(
        [
            "verify",
            "--original", str(original),
            "--suspect", str(tampered),
            "--pattern", "checker",
            "--report", str(report_path),
        ]
    )
    assert code == EXIT_TAMPERED
    out = capsys.readouterr().out
    assert "total_tampered=1" in out
    assert "\nregion=0 x=5..5 y=2..2 blocks=1\n" in out
    assert "block=" not in out
    text = report_path.read_text()
    assert ": " not in text and "\n" not in text.rstrip("\n")  # written compactly
    doc = json.loads(text)
    want = hnttmark.verify(imageio.load_pgm(original), img, checkerboard_cell()).to_dict()
    assert report_path.read_bytes() == (json.dumps(want, separators=(",", ":")) + "\n").encode()
    assert doc["total_tampered"] == 1
    assert doc["grid_width"] == 8 and doc["grid_height"] == 8
    assert doc["tampered"][2 * 8 + 5] is True
    assert sum(doc["tampered"]) == 1


def test_an_error_in_a_band_exits_1_with_one_line(tmp_path, capsys, failing_bands):
    original = tmp_path / "orig.pgm"
    grid = tmp_path / "grid.pgm"
    _make_image(original, seed=4)
    imageio.save_watermark(grid, np.random.RandomState(5).randint(0, 3, (32, 32), dtype=np.uint8))
    for argv in (
        ["embed", "--input", str(original), "--output", str(tmp_path / "marked.pgm"), "--watermark", str(grid)],
        ["verify", "--original", str(original), "--suspect", str(original)],
    ):
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: band out of memory\n"
        assert captured.out == ""


def test_verify_threshold_suppresses_flags(tmp_path):
    original = tmp_path / "orig.pgm"
    _make_image(original, seed=4)
    # suspect == original, checker reference: every distance is exactly 8
    code = main(["verify", "--original", str(original), "--suspect", str(original), "--threshold", "8"])
    assert code == EXIT_OK
    code = main(["verify", "--original", str(original), "--suspect", str(original), "--threshold", "7"])
    assert code == EXIT_TAMPERED


def test_verify_negative_threshold_exits_1_with_one_line(tmp_path, capsys):
    original = tmp_path / "orig.pgm"
    report = tmp_path / "report.json"
    _make_image(original, seed=4)
    argv = ["verify", "--original", str(original), "--suspect", str(original), "--threshold", "-1",
            "--report", str(report)]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: threshold must be >= 0, got -1\n"
    assert captured.out == ""
    assert not report.exists()


def test_attack_runs_are_byte_identical(tmp_path, capsys):
    source = tmp_path / "in.pgm"
    out1 = tmp_path / "a.pgm"
    out2 = tmp_path / "b.pgm"
    _make_image(source, seed=5)
    args = ["attack", "--input", str(source), "--type", "lsb_flip", "--prob", "0.05", "--seed", "11"]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert "flipped" in capsys.readouterr().out


def test_attack_quantize_and_shift(tmp_path):
    source = tmp_path / "in.pgm"
    img = _make_image(source, seed=6)
    out = tmp_path / "out.pgm"
    assert main(["attack", "--input", str(source), "--output", str(out), "--type", "quantize", "--step", "4"]) == EXIT_OK
    assert imageio.load_pgm(out).max() <= 255
    assert main(["attack", "--input", str(source), "--output", str(out), "--type", "intensity_shift", "--delta", "-3"]) == EXIT_OK
    shifted = imageio.load_pgm(out)
    assert np.array_equal(shifted, np.clip(img.astype(int) - 3, 0, 255).astype(np.uint8))


def test_attack_huge_step_and_delta_clamp(tmp_path, capsys):
    source = tmp_path / "in.pgm"
    _make_image(source, seed=6)
    out = tmp_path / "out.pgm"
    base = ["attack", "--input", str(source), "--output", str(out)]
    huge = "99999999999"
    assert main(base + ["--type", "quantize", "--step", huge]) == EXIT_OK
    assert not imageio.load_pgm(out).any()
    assert main(base + ["--type", "intensity_shift", "--delta", huge]) == EXIT_OK
    assert (imageio.load_pgm(out) == 255).all()
    assert main(base + ["--type", "intensity_shift", "--delta", "-" + huge]) == EXIT_OK
    assert not imageio.load_pgm(out).any()
    assert capsys.readouterr().err == ""


def test_attack_region_replace(tmp_path):
    source = tmp_path / "in.pgm"
    patch = tmp_path / "patch.pgm"
    out = tmp_path / "out.pgm"
    _make_image(source, seed=7)
    imageio.save_pgm(patch, np.zeros((4, 4), dtype=np.uint8))
    code = main(
        [
            "attack",
            "--input", str(source),
            "--output", str(out),
            "--type", "region_replace",
            "--rect", "8,4,4,4",
            "--source", str(patch),
        ]
    )
    assert code == EXIT_OK
    assert not imageio.load_pgm(out)[4:8, 8:12].any()


def test_attack_region_replace_requires_rect_and_source(tmp_path):
    source = tmp_path / "in.pgm"
    _make_image(source, seed=8)
    code = main(["attack", "--input", str(source), "--output", str(tmp_path / "o.pgm"), "--type", "region_replace"])
    assert code == EXIT_ERROR


def test_attack_rejects_malformed_rect(tmp_path):
    source = tmp_path / "in.pgm"
    patch = tmp_path / "patch.pgm"
    _make_image(source, seed=8)
    imageio.save_pgm(patch, np.zeros((4, 4), dtype=np.uint8))
    base = ["attack", "--input", str(source), "--output", str(tmp_path / "o.pgm"),
            "--type", "region_replace", "--source", str(patch)]
    assert main(base + ["--rect", "1,2,3"]) == EXIT_ERROR
    assert main(base + ["--rect", "a,b,c,d"]) == EXIT_ERROR


def test_embed_pad_allows_odd_sizes(tmp_path):
    original = tmp_path / "odd.pgm"
    marked = tmp_path / "marked.pgm"
    _make_image(original, seed=9, shape=(13, 11))
    assert main(["embed", "--input", str(original), "--output", str(marked)]) == EXIT_ERROR
    assert main(["embed", "--input", str(original), "--output", str(marked), "--pad"]) == EXIT_OK
    assert imageio.load_pgm(marked).shape == (16, 12)


def test_pgm_integers_must_be_ascii_decimal(tmp_path, capsys):
    header = tmp_path / "header.pgm"
    header.write_bytes(b"P2\n4 1\n2_5_5\n1_0 +2 0 1_1\n")
    samples = tmp_path / "samples.pgm"
    samples.write_bytes(b"P2\n4 1\n255\n1_0 +2 0 1_1\n")
    for path in (header, samples):
        assert main(["embed", "--input", str(path), "--output", str(tmp_path / "o.pgm")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: malformed") and err.count("\n") == 1
    assert not (tmp_path / "o.pgm").exists()


def test_a_pgm_too_large_for_any_array_exits_1_with_one_line(tmp_path, capsys):
    digits = b"9" * 4300  # the product of two such dimensions has 8600 digits
    original = tmp_path / "original.pgm"
    _make_image(original)
    for magic in (b"P2", b"P5"):
        suspect = tmp_path / "suspect.pgm"
        suspect.write_bytes(b"%s %s %s 255 1" % (magic, digits, digits))
        args = ["verify", "--original", str(original), "--suspect", str(suspect), "--pattern", "checker"]
        assert main(args) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: invalid PGM dimensions %sx%s\n" % (digits.decode(), digits.decode())


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["embed", "--input", "x.pgm"]) == EXIT_ERROR  # missing --output
    assert main(["nosuchcommand"]) == EXIT_ERROR
    assert main(["params", "--bogus"]) == EXIT_ERROR
    assert main(["attack", "--input", "x.pgm", "--output", "o.pgm", "--type", "rotate"]) == EXIT_ERROR
    assert main(["embed", "--input", str(tmp_path / "missing.pgm"), "--output", str(tmp_path / "o.pgm")]) == EXIT_ERROR
    # a 2^23 x 2^23 frame exceeds the address space, so its allocation is refused
    assert main(["bench", "--width", "8388608", "--height", "8388608", "--iters", "1"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error:" in err


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_a_lone_subparser_matches_the_full_parser(monkeypatch, capsys):
    full = _subparsers(build_parser())
    assert list(full) == ["params", "transform", "embed", "extract", "verify", "attack", "bench"]
    for command, want in full.items():
        lone = _subparsers(build_parser(command))
        assert list(lone) == [command]
        assert lone[command].format_help() == want.format_help()
        assert lone[command].format_usage() == want.format_usage()
    # main builds the lone subparser for a known command, the full one otherwise
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build_parser(command))
    for argv, command in ((["params"], "params"), (["nosuchcommand"], None), ([], None), (["--help"], None)):
        try:
            main(argv)
        except SystemExit:  # --help exits after printing the listing
            pass
        assert built.pop() == command
    out, err = capsys.readouterr()
    assert "{params,transform,embed,extract,verify,attack,bench}" in out + err


def test_watermark_and_pattern_are_exclusive(tmp_path):
    original = tmp_path / "orig.pgm"
    _make_image(original, seed=10)
    wm = tmp_path / "wm.pgm"
    imageio.save_watermark(wm, checkerboard_cell())
    code = main(
        [
            "embed",
            "--input", str(original),
            "--output", str(tmp_path / "out.pgm"),
            "--watermark", str(wm),
            "--pattern", "checker",
        ]
    )
    assert code == EXIT_ERROR


def test_bench_json(capsys):
    assert main(["bench", "--width", "64", "--height", "64", "--iters", "1", "--workers", "2", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["blocks_processed"] == 256
    assert doc["worker_count"] == 2
    assert doc["blocks_per_second"] > 0


def test_bench_text(capsys):
    assert main(["bench", "--width", "64", "--height", "64", "--iters", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "blocks_per_second" in out
    assert "equivalent_frame_rate" in out
