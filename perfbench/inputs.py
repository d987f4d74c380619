"""Seeded benchmark inputs and their expected outputs, computed independently.

The scheme is restated here with plain numpy, apart from the package's own
routes, so the checker never trusts the code under test:

    x' = d + ((r + T(w)) mod 3),   r = x mod 3,   d = min(x - r, 252)

where T(a) = H a H mod 3 is the separable 4x4 Hartley transform over GF(3).
Because T is a bijection, a block of a suspect is damaged exactly when any of
its residues differs from the marked image, and its verify distance is the
number of nonzeros of T(error).  Each time inputs are made, the restatement
is checked against the package's pure-Python block oracles
(`watermark.embed_block`, `hntt.special_hntt_2d`) on a seeded sample of
blocks; those oracles cost ~31 us per block, too slow for whole images.

`make(workload, seed, out_dir)` writes every input file and a manifest that
lists the requests to cycle and what each must return.  The same seed gives
byte-identical files.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

H = np.array([[1, 1, 1, 1], [1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]], dtype=np.int32)
CHECKER = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.uint8)

# Image side per workload.  verify runs at 1024 because a 2048 verify spends
# most of its ~0.8 s rendering the report.
SIZES = {"embed_cli": 2048, "verify_local": 1024, "engine_blocks": 2048}
FILES_PER_WORKLOAD = 4
ORACLE_SAMPLE = 32


def blockify(arr):
    h, w = arr.shape
    return arr.reshape(h // 4, 4, w // 4, 4).swapaxes(1, 2)


def unblockify(blocks):
    by, bx = blocks.shape[:2]
    return blocks.swapaxes(1, 2).reshape(by * 4, bx * 4)


def transform(blocks):
    """T over a stack (..., 4, 4) of GF(3) blocks."""
    return (H @ blocks.astype(np.int32) @ H) % 3


def embed_blocks(blocks, cells):
    """Reference embedding of (..., 4, 4) pixel blocks; cells broadcast."""
    x = blocks.astype(np.int32)
    r = x % 3
    d = np.minimum(x - r, 252)
    return (d + (r + transform(cells)) % 3).astype(np.uint8)


def embed_image(image, pattern):
    """Reference embedding of a whole image with a 4x4 cell or a full grid."""
    cells = pattern if pattern.shape == (4, 4) else blockify(pattern)
    return unblockify(embed_blocks(blockify(image), cells))


def block_errors(marked, suspect):
    """Per-block residue error (suspect - marked) mod 3, shape (by, bx, 4, 4)."""
    return (blockify(suspect).astype(np.int32) - blockify(marked)) % 3


def verify_truth(marked, suspect):
    """Per-block tamper mask and verify distances at threshold 0."""
    error = block_errors(marked, suspect)
    mask = error.any(axis=(2, 3))
    distances = np.count_nonzero(transform(error), axis=(2, 3))
    return mask, distances


def pgm_bytes(image, maxval=255):
    h, w = image.shape
    return b"P5\n%d %d\n%d\n" % (w, h, maxval) + np.ascontiguousarray(image, dtype=np.uint8).tobytes()


def digest(data):
    return hashlib.sha256(data).hexdigest()


def cover_image(rng, size):
    """A smooth gradient in a random direction plus noise; clipping and the
    full 0..255 ramp make every grey value and residue occur."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / max(size - 1, 1)
    angle = rng.uniform(0, 2 * np.pi)
    ramp = np.cos(angle) * xx + np.sin(angle) * yy
    ramp = (ramp - ramp.min()) / (ramp.max() - ramp.min()) * 300 - 22
    noisy = ramp + rng.normal(0, 12, (size, size))
    return np.clip(np.rint(noisy), 0, 255).astype(np.uint8)


def local_tamper(rng, marked):
    """One or two replaced rectangles plus a few single-pixel flips (~1% of blocks)."""
    out = marked.copy()
    size = out.shape[0]
    for _ in range(rng.integers(1, 3)):
        side = max(4, size // int(rng.integers(14, 20)))
        y, x = rng.integers(0, size - side, 2)
        out[y : y + side, x : x + side] = rng.integers(0, 256, (side, side), dtype=np.uint8)
    for y, x in rng.integers(0, size, (int(rng.integers(3, 9)), 2)):
        out[y, x] ^= 1
    return out


def check_oracle(rng, image, pattern, marked):
    """Hold the restatement to the package's block oracle on sampled blocks."""
    from hnttmark import watermark

    img_blocks = blockify(image)
    mark_blocks = blockify(marked)
    by, bx = img_blocks.shape[:2]
    for y, x in zip(rng.integers(0, by, ORACLE_SAMPLE), rng.integers(0, bx, ORACLE_SAMPLE)):
        cell = pattern if pattern.shape == (4, 4) else blockify(pattern)[y, x]
        want = watermark.embed_block(img_blocks[y, x].tolist(), cell.tolist())
        if want != mark_blocks[y, x].tolist():
            raise RuntimeError("reference embedding disagrees with embed_block at block (%d, %d)" % (y, x))


def check_distance_oracle(rng, marked, suspect, distances):
    """Hold sampled flagged distances to nnz(hntt.special_hntt_2d(error))."""
    from hnttmark import hntt

    error = block_errors(marked, suspect)
    flagged = np.argwhere(error.any(axis=(2, 3)))
    if len(flagged) == 0:
        return
    for y, x in flagged[rng.integers(0, len(flagged), ORACLE_SAMPLE)]:
        t = hntt.special_hntt_2d(error[y, x].tolist())
        if sum(v != 0 for row in t for v in row) != distances[y, x]:
            raise RuntimeError("reference distance disagrees with special_hntt_2d at block (%d, %d)" % (y, x))


def _write(path, data):
    path.write_bytes(data)
    return str(path)


def _save(path, array):
    np.save(path, np.ascontiguousarray(array))
    return str(path)


def make(workload, seed, out_dir, size=None):
    """Write the inputs of one workload under out_dir and return its manifest.

    The manifest lists the requests to cycle, in order; each carries what
    the checker needs to judge its output, and the 4x4 blocks it processes.
    """
    if workload not in SIZES:
        raise ValueError("unknown workload %r" % workload)
    size = size or SIZES[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(SIZES).index(workload)])
    blocks = (size // 4) ** 2
    grid = rng.integers(0, 3, (size, size), dtype=np.uint8)
    wm_path = _write(out / "watermark.pgm", pgm_bytes(grid, maxval=2))
    patterns = [(CHECKER, ["--pattern", "checker"]), (grid, ["--watermark", wm_path])]
    requests = []

    if workload == "embed_cli":
        images = [cover_image(rng, size) for _ in range(FILES_PER_WORKLOAD)]
        paths = [_write(out / ("cover%d.pgm" % i), pgm_bytes(img)) for i, img in enumerate(images)]
        output = str(out / "marked.pgm")
        # Every (image, pattern) pair once, the pattern alternating per request.
        for i in range(2 * FILES_PER_WORKLOAD):
            k = (i % FILES_PER_WORKLOAD) ^ (i // FILES_PER_WORKLOAD)
            pattern, flags = patterns[i % 2]
            marked = embed_image(images[k], pattern)
            check_oracle(rng, images[k], pattern, marked)
            requests.append({
                "argv": ["embed", "--input", paths[k], "--output", output] + flags,
                "output": output,
                "digest": digest(pgm_bytes(marked)),
                "blocks": blocks,
            })

    elif workload == "verify_local":
        report = str(out / "report.json")
        for k in range(FILES_PER_WORKLOAD):
            cover = cover_image(rng, size)
            pattern, flags = patterns[k % 2]
            marked = embed_image(cover, pattern)
            check_oracle(rng, cover, pattern, marked)
            if k % 4 == 3:
                suspect = marked  # every fourth suspect is untouched
            else:
                suspect = local_tamper(rng, marked)
            mask, distances = verify_truth(marked, suspect)
            check_distance_oracle(rng, marked, suspect, distances)
            truth = _save(out / ("truth%d.npy" % k), np.stack([mask, distances]).astype(np.uint8))
            requests.append({
                "argv": ["verify", "--original", _write(out / ("cover%d.pgm" % k), pgm_bytes(cover)),
                         "--suspect", _write(out / ("suspect%d.pgm" % k), pgm_bytes(suspect)),
                         "--report", report] + flags,
                "report": report,
                "truth": truth,
                "exit_code": 2 if mask.any() else 0,
                "blocks": blocks,
            })

    else:  # engine_blocks
        cell = rng.integers(0, 3, (4, 4), dtype=np.uint8)
        per_block = blockify(grid).reshape(-1, 4, 4)
        cell_files = [(cell, cell, _save(out / "cell.npy", cell)),
                      (grid, per_block, _save(out / "cells.npy", per_block))]
        images = [cover_image(rng, size) for _ in range(2)]
        stacks = [blockify(img).reshape(-1, 4, 4) for img in images]
        stack_paths = [_save(out / ("stack%d.npy" % k), stack) for k, stack in enumerate(stacks)]
        # Every (stack, cells) pair once, single and per-block cells alternating.
        for i in range(4):
            k = (i % 2) ^ (i // 2)
            pattern, cells, cells_path = cell_files[i % 2]
            marked = embed_blocks(stacks[k], cells)
            check_oracle(rng, images[k], pattern, unblockify(marked.reshape(size // 4, size // 4, 4, 4)))
            requests.append({
                "stack": stack_paths[k],
                "cells": cells_path,
                "digest": digest(marked.tobytes()),
                "blocks": blocks,
            })

    manifest = {"workload": workload, "seed": seed, "size": size, "requests": requests}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
