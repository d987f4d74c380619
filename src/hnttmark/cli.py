"""Command-line interface: params, transform, embed, extract, verify, attack, bench.

Exit status convention: 0 success, 1 usage/IO/validation error, 2 means
verify found at least one tampered block.  All computation lives in the
library modules; this file only parses arguments, loads files, calls and
prints.

embed, extract and verify open each input file first (imageio.open_pgm
and open_watermark judge it up to its raster), then run the route, which
reads a regular P5 file's raster band by band; an output is written only
once the route has succeeded, so an error leaves no output file changed.
"""

import argparse
import contextlib
import sys

from . import attacks, engine, galois, hntt, imageio, watermark

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TAMPERED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code convention."""

    def error(self, message):
        raise _UsageError(message)


def integer(text: str | bytes, message: str = "not an integer") -> int:
    """An optional '-' and then ASCII decimal digits, in str or bytes,
    the PGM reader's rule (imageio._decimal), as an int; else
    ValueError(message).  As the type of an integer flag, argparse
    reports the flag instead."""
    minus = b"-" if isinstance(text, bytes) else "-"
    value = imageio._decimal(text.removeprefix(minus), message)
    return -value if text.startswith(minus) else value


def fraction(text: str) -> float:
    """ASCII decimal digits with at most one '.' and at least one digit
    ('0.5', '.5', '1', '1.'), by imageio._decimal with the '.' removed,
    as a float; else ValueError, which argparse reports for the flag."""
    imageio._decimal(text.replace(".", "", 1), "not a fraction")
    return float(text)


def _open_pattern(args):
    if args.watermark:
        return imageio.open_watermark(args.watermark)
    return contextlib.nullcontext(watermark.checkerboard_cell())


def _cmd_params(args) -> int:
    order = galois.multiplicative_order(galois.ZETA)
    print("p = %d" % galois.P)
    print("zeta = %s" % galois.ZETA)
    print("N = %d" % galois.N)
    print("p is an odd prime with p %% 4 == 3: %s" % _yesno(galois.is_odd_prime(galois.P) and galois.P % 4 == 3))
    print("zeta is unimodular: %s" % _yesno(galois.ZETA.is_unimodular()))
    print("multiplicative order of zeta = %d: %s" % (order, _yesno(order == galois.N)))
    print("cas table: %s" % " ".join(str(v) for v in galois.cas_table()))
    print("H4:")
    for row in hntt.H4:
        print(" ".join(str(v) for v in row))
    return EXIT_OK


def _yesno(flag: bool) -> str:
    return "yes" if flag else "NO"


def _cmd_transform(args) -> int:
    # Python sets sys.stdin to None when fd 0 is closed.  The bytes split
    # on ASCII whitespace only, as the PGM reader splits its samples.
    if sys.stdin is None:
        raise ValueError("stdin is closed, expected 16 block values")
    values = [integer(t, "block values must be integers") for t in sys.stdin.buffer.read().split()]
    if len(values) != 16:
        raise ValueError("expected 16 block values on stdin, got %d" % len(values))
    block = [values[i : i + 4] for i in range(0, 16, 4)]
    # Both transforms are involutions, so --inverse changes nothing.
    if args.full:
        out = hntt.full_hntt_2d(block)
    else:
        out = hntt.special_hntt_2d(block)
    for row in out:
        print(" ".join(str(v) for v in row))
    return EXIT_OK


def _cmd_embed(args) -> int:
    with imageio.open_pgm(args.input) as image, _open_pattern(args) as pattern:
        if args.pad:
            image = imageio.pad_to_multiple(image[:])  # the whole image, read and judged
        marked = watermark.embed_image(image, pattern)
    imageio.save_pgm(args.output, marked)
    return EXIT_OK


def _cmd_extract(args) -> int:
    with imageio.open_pgm(args.original) as original, imageio.open_pgm(args.suspect) as suspect:
        pattern = watermark.extract_image(original, suspect)
    imageio.save_watermark(args.output, pattern)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with (
        imageio.open_pgm(args.original) as original,
        imageio.open_pgm(args.suspect) as suspect,
        _open_pattern(args) as pattern,
    ):
        report = watermark.verify(original, suspect, pattern, args.threshold)
    print(report.to_text())
    if args.report:
        with open(args.report, "wb") as fh:
            fh.writelines((report.to_json(), b"\n"))  # no joined copy of the document
    return EXIT_TAMPERED if report.total_tampered else EXIT_OK


def _parse_rect(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--rect must be X,Y,W,H")
    return tuple(integer(p, "--rect values must be integers") for p in parts)


def _cmd_attack(args) -> int:
    image = imageio.load_pgm(args.input)
    if args.type == "region_replace":
        if not args.rect or not args.source:
            raise ValueError("region_replace needs --rect and --source")
        # Arguments evaluate left to right: a malformed --rect is reported before a missing --source.
        attacked = attacks.region_replace(image, _parse_rect(args.rect), imageio.load_pgm(args.source))
    elif args.type == "lsb_flip":
        attacked = attacks.lsb_flip(image, args.prob, args.seed)
        print("flipped %d of %d pixels" % (int((attacked != image).sum()), image.size))
    elif args.type == "quantize":
        attacked = attacks.quantize(image, args.step)
    else:
        attacked = attacks.intensity_shift(image, args.delta)
    imageio.save_pgm(args.output, attacked)
    return EXIT_OK


def _cmd_bench(args) -> int:
    result = engine.benchmark(args.width, args.height, args.iters, args.workers)
    if args.json:
        import json  # only here, so that the other commands do not load it

        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result)
    return EXIT_OK


def _pattern_arguments(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--watermark", help="ternary watermark PGM (4x4 cell or full grid)")
    group.add_argument("--pattern", choices=["checker"], help="use the built-in checkerboard cell")


def _transform_arguments(p) -> None:
    p.add_argument("--inverse", action="store_true", help="apply the inverse transform (same matrix)")
    p.add_argument("--full", action="store_true", help="apply the full 2-D transform instead of the separable one")


def _embed_arguments(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _pattern_arguments(p)
    p.add_argument("--pad", action="store_true", help="edge-pad to multiple-of-4 dimensions first")


def _extract_arguments(p) -> None:
    p.add_argument("--original", required=True)
    p.add_argument("--suspect", required=True)
    p.add_argument("--output", required=True, help="where to write the extracted pattern PGM")


def _verify_arguments(p) -> None:
    p.add_argument("--original", required=True)
    p.add_argument("--suspect", required=True)
    _pattern_arguments(p)
    p.add_argument("--threshold", type=integer, default=0, help="flag blocks with distance > K (default 0)")
    p.add_argument("--report", help="also write the report as JSON to this path")


def _attack_arguments(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--type", required=True, choices=list(attacks.ATTACK_KINDS))
    p.add_argument("--prob", type=fraction, default=0.01, help="lsb_flip probability (default 0.01)")
    p.add_argument("--step", type=integer, default=2, help="quantize step (default 2)")
    p.add_argument("--delta", type=integer, default=1, help="intensity_shift amount (default 1)")
    p.add_argument("--rect", help="region_replace rectangle X,Y,W,H")
    p.add_argument("--source", help="region_replace replacement PGM (same size as rect)")
    p.add_argument("--seed", type=integer, default=0, help="generator seed (default 0)")


def _bench_arguments(p) -> None:
    p.add_argument("--width", type=integer, default=1024)
    p.add_argument("--height", type=integer, default=1024)
    p.add_argument("--iters", type=integer, default=5)
    p.add_argument("--workers", type=integer, default=1)
    p.add_argument("--json", action="store_true", help="print the result as JSON")


# Each command's help line, handler and argument builder, in listing order.
_COMMANDS = {
    "params": ("print transform parameters, cas table and matrix", _cmd_params, None),
    "transform": ("transform a 4x4 GF(3) block read as 16 integers on stdin", _cmd_transform, _transform_arguments),
    "embed": ("embed a watermark into a PGM image", _cmd_embed, _embed_arguments),
    "extract": ("extract the embedded watermark from an image pair", _cmd_extract, _extract_arguments),
    "verify": ("flag tampered 4x4 blocks against a reference watermark", _cmd_verify, _verify_arguments),
    "attack": ("apply a deterministic tamper simulation", _cmd_attack, _attack_arguments),
    "bench": ("measure embedding throughput", _cmd_bench, _bench_arguments),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The argument parser with every command, or with only `command`'s
    subparser: that one parses and formats its help exactly as in the full
    parser, at a fraction of the cost of building all of them."""
    parser = _Parser(prog="hnttmark", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (text, func, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            if add_arguments:
                add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A known command needs only its own subparser; help, no arguments and
    # unknown commands get the full parser and its listing.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError, ZeroDivisionError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
