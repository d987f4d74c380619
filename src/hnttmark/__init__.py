"""Exact fragile image watermarking on the 4x4 Hartley NTT over GF(3).

All arithmetic runs in finite fields, so embedding and extraction are
error-free: the extracted watermark equals the embedded one exactly on
untouched blocks and is damaged by any residue-changing modification,
which is what makes the scheme fragile and tamper-localizing.
"""

from . import attacks, cli, engine, galois, hntt, imageio, watermark
from .attacks import intensity_shift, lsb_flip, quantize, region_replace
from .engine import BenchResult, benchmark, frame_rate_equivalent, process_blocks
from .galois import GaussInt, cas_table
from .hntt import (
    H4,
    build_matrix,
    full_hntt_2d,
    full_hntt_2d_direct,
    hntt_1d,
    hntt_1d_fast,
    inverse_hntt_1d,
    inverse_special_hntt_2d,
    special_hntt_2d,
)
from .imageio import pad_to_multiple, read_pgm, read_watermark, write_pgm, write_watermark
from .watermark import (
    ResidueDecomposition,
    TamperReport,
    checkerboard_cell,
    decompose,
    embed_block,
    embed_image,
    extract_block,
    extract_image,
    verify,
)

__version__ = "0.1.0"
