"""LBP and multi-scale-block LBP codes, uniform patterns and histograms.

The 8-bit code compares the 8 neighbors of a site against its center,
clockwise from the top-left neighbor, most-significant bit first: a bit is 1
when neighbor >= center. MB-LBP replaces single pixels with the means of
equal-sized blocks in a 3x3 grid; since all nine blocks share one size, the
mean comparison is performed on exact integer block sums.

MB-LBP features take one path, code map -> rank map -> site counts
(mb_lbp_code_map, RankTable, mb_lbp_histogram). The scalar per-footprint
code over an integral image is a test oracle (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import Rect

# (dx, dy, bit shift) for the 8 neighbors in clockwise order TL,T,TR,R,BR,B,BL,L;
# offsets are in block units, the center block sits at (1, 1). The shifts run
# from bit 7 down, the order in which _codes_from_grid packs the code.
_NEIGHBORS = (
    (0, 0, 7),
    (1, 0, 6),
    (2, 0, 5),
    (2, 1, 4),
    (2, 2, 3),
    (1, 2, 2),
    (0, 2, 1),
    (0, 1, 0),
)

UNIFORM_OVERFLOW_BIN = 58
LBP_HISTOGRAM_BINS = 59
RANK_HISTOGRAM_BINS = 64
RANKED_CODES = 63
RANK_OVERFLOW_BIN = 63


@dataclass(frozen=True)
class BlockGeometry:
    """Size of one cell of the 3x3 comparison grid; footprint is 3*cell each way."""

    cell_w: int
    cell_h: int

    def __post_init__(self):
        if self.cell_w < 1 or self.cell_h < 1:
            raise ValueError(f"cell size must be >= 1, got {self.cell_w}x{self.cell_h}")

    @property
    def footprint_w(self) -> int:
        return 3 * self.cell_w

    @property
    def footprint_h(self) -> int:
        return 3 * self.cell_h


def _circular_transitions(code: int) -> int:
    prev = code & 1
    count = 0
    for i in range(1, 9):
        bit = (code >> (i % 8)) & 1
        if bit != prev:
            count += 1
        prev = bit
    return count


def is_uniform(code: int) -> bool:
    """True iff the circular 8-bit string has at most two 0<->1 transitions."""
    return _circular_transitions(code) <= 2


def _build_uniform_bins() -> np.ndarray:
    bins = np.full(256, UNIFORM_OVERFLOW_BIN, dtype=np.int64)
    uniform = [c for c in range(256) if is_uniform(c)]
    for slot, code in enumerate(uniform):
        bins[code] = slot
    return bins


# 58 uniform codes, ascending code value -> bins 0..57; the rest share bin 58
UNIFORM_BINS = _build_uniform_bins()


def _codes_from_grid(values: np.ndarray, step_x: int, step_y: int) -> np.ndarray:
    """Codes for all footprints over a value grid with block stride (step_x, step_y).

    `values` holds one scalar per block position (pixels for plain LBP,
    block sums for MB-LBP) in its last two axes; leading axes are kept.
    The last two output axes count the valid footprint top-left positions.
    Codes are packed in Horner form, neighbours in _NEIGHBORS order from
    bit 7 down: each compares into one reused bool buffer, the codes double
    and the bits are added.
    """
    h, w = values.shape[-2:]
    out_h = h - 2 * step_y
    out_w = w - 2 * step_x
    if out_h < 1 or out_w < 1:
        raise ValueError("grid too small for a 3x3 footprint")
    center = values[..., step_y : step_y + out_h, step_x : step_x + out_w]
    codes = np.zeros(values.shape[:-2] + (out_h, out_w), dtype=np.uint8)
    bits = np.empty(codes.shape, dtype=bool)
    for dx, dy, _shift in _NEIGHBORS:
        block = values[..., dy * step_y : dy * step_y + out_h, dx * step_x : dx * step_x + out_w]
        np.greater_equal(block, center, out=bits)
        np.add(codes, codes, out=codes)
        np.add(codes, bits.view(np.uint8), out=codes)
    return codes


def lbp_code(pixels: np.ndarray, x: int, y: int) -> int:
    """8-bit LBP code at pixel (x, y); the pixel must not lie on the border."""
    if not (1 <= x <= pixels.shape[1] - 2 and 1 <= y <= pixels.shape[0] - 2):
        raise ValueError(f"({x},{y}) is on the border of a frame of shape {pixels.shape}")
    center = pixels[y, x]
    code = 0
    for dx, dy, shift in _NEIGHBORS:
        if pixels[y - 1 + dy, x - 1 + dx] >= center:
            code |= 1 << shift
    return code


def _block_sums(pixels: np.ndarray, g: BlockGeometry) -> np.ndarray:
    """Sums of all cell_w x cell_h blocks of (..., h, w) uint8 pixels that hold
    at least one block; entry (..., y, x) covers [x, x + cell_w) x [y, y + cell_h).

    Shifted adds, first along rows then along columns, in the narrowest
    unsigned dtype that holds 255 * cell_w * cell_h, so every sum is exact.
    1x1 blocks are the pixels themselves.
    """
    dtype = np.min_scalar_type(255 * g.cell_w * g.cell_h)
    sums = pixels
    if g.cell_w > 1:
        n = sums.shape[-1] - g.cell_w + 1
        rows = sums[..., :n].astype(dtype)
        for dx in range(1, g.cell_w):
            rows += sums[..., dx : dx + n]
        sums = rows
    if g.cell_h > 1:
        n = sums.shape[-2] - g.cell_h + 1
        cols = sums[..., :n, :].astype(dtype)
        for dy in range(1, g.cell_h):
            cols += sums[..., dy : dy + n, :]
        sums = cols
    return sums


def mb_lbp_code_map(pixels: np.ndarray, g: BlockGeometry) -> np.ndarray:
    """MB-LBP codes of every valid footprint top-left position of a frame's
    (h, w) uint8 pixels or of an (n, h, w) uint8 stack of equal-size images.

    The nine blocks of a footprint are compared by their exact sums, which
    come straight from the pixels (_block_sums); no integral image is built.
    The codes equal those of the scalar test oracle at every position.
    """
    if pixels.dtype != np.uint8:
        raise ValueError(f"code maps take uint8 pixels, got {pixels.dtype}")
    h, w = pixels.shape[-2:]
    if g.footprint_w > w or g.footprint_h > h:
        raise ValueError(f"footprint {g.footprint_w}x{g.footprint_h} exceeds {w}x{h} image")
    return _codes_from_grid(_block_sums(pixels, g), g.cell_w, g.cell_h)


def lbp_histogram(pixels: np.ndarray, region: Rect) -> np.ndarray:
    """59-bin histogram of uniform LBP codes over the interior of region.

    Bins 0..57 hold the 58 uniform codes in ascending code order; bin 58
    collects all non-uniform codes. Bin sum equals (w-2)*(h-2).
    """
    sub = pixels[region.y : region.bottom, region.x : region.right]
    if sub.shape != (region.h, region.w):
        raise ValueError(f"region {region} exceeds a frame of shape {pixels.shape}")
    if region.w < 3 or region.h < 3:
        raise ValueError(f"region {region.w}x{region.h} has no interior code site")
    codes = _codes_from_grid(sub, 1, 1)
    return np.bincount(UNIFORM_BINS[codes.ravel()], minlength=LBP_HISTOGRAM_BINS)


class RankTable:
    """Maps each MB-LBP code to a histogram bin by occurrence rank.

    The most frequent codes get dedicated bins 0..62 (ties broken by
    ascending code value); every other code shares overflow bin 63. Only
    codes actually observed are ranked, so with fewer than 63 distinct
    observed codes some dedicated bins stay unused. Bins are stored as
    uint8, so `bins[code_map]` is a compact rank map.
    """

    def __init__(self, bins: np.ndarray):
        bins = np.asarray(bins, dtype=np.int64)
        if bins.shape != (256,):
            raise ValueError(f"rank table needs 256 entries, got shape {bins.shape}")
        if bins.min() < 0 or bins.max() > RANK_OVERFLOW_BIN:
            raise ValueError("rank table bins must lie in [0, 63]")
        self.bins = bins.astype(np.uint8)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankTable):
            return NotImplemented
        return bool(np.array_equal(self.bins, other.bins))

    def to_text(self) -> str:
        return "".join(f"{code} {self.bins[code]}\n" for code in range(256))

    @classmethod
    def from_text(cls, text: str) -> "RankTable":
        bins: dict[int, int] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            code_s, bin_s = line.split()
            code = int(code_s)
            if not 0 <= code <= 255:
                raise ValueError(f"rank table code {code} is outside 0..255")
            if code in bins:
                raise ValueError(f"rank table code {code} is given twice")
            bins[code] = int(bin_s)
        if len(bins) != 256:
            raise ValueError("rank table text does not cover all 256 codes")
        return cls([bins[code] for code in range(256)])


def build_rank_table(code_sets) -> RankTable:
    """Build a RankTable from raw code multisets (arrays of codes in [0, 255]).

    Observed codes are sorted by (frequency descending, code ascending); the
    top 63 get bins 0..62, everything else bin 63.
    """
    counts = np.zeros(256, dtype=np.int64)
    for codes in code_sets:
        arr = np.asarray(codes).ravel()
        # bincount takes an intp copy of its input: count in pieces of 2**20
        for start in range(0, arr.size, 1 << 20):
            counts += np.bincount(arr[start : start + (1 << 20)], minlength=256)
    if counts.sum() == 0:
        raise ValueError("no codes observed; cannot rank")
    observed = np.flatnonzero(counts)
    order = observed[np.lexsort((observed, -counts[observed]))]
    bins = np.full(256, RANK_OVERFLOW_BIN, dtype=np.int64)
    for slot, code in enumerate(order[:RANKED_CODES]):
        bins[code] = slot
    return RankTable(bins)


def mb_lbp_histogram(rank_map: np.ndarray, region: Rect, g: BlockGeometry) -> np.ndarray:
    """64-bin rank histogram of the geometry-g footprints inside region.

    `rank_map` is rt.bins[mb_lbp_code_map(pixels, g)] of one image or of an
    (n, h, w) stack of them; leading axes are kept. Footprints slide with
    stride 1, so each histogram sums to (w - 3*cell_w + 1) * (h - 3*cell_h + 1).
    Every image's sites are counted by one bincount, offset by 64 per image.
    """
    h = rank_map.shape[-2] + g.footprint_h - 1
    w = rank_map.shape[-1] + g.footprint_w - 1
    if region.right > w or region.bottom > h:
        raise ValueError(f"region {region} exceeds {w}x{h} image")
    if region.w < g.footprint_w or region.h < g.footprint_h:
        raise ValueError(
            f"region {region.w}x{region.h} too small for footprint "
            f"{g.footprint_w}x{g.footprint_h}"
        )
    sites = rank_map[
        ...,
        region.y : region.bottom - g.footprint_h + 1,
        region.x : region.right - g.footprint_w + 1,
    ]
    lead = sites.shape[:-2]
    n = math.prod(lead)
    keys = sites.reshape(n, -1) + np.arange(n)[:, None] * RANK_HISTOGRAM_BINS
    counts = np.bincount(keys.ravel(), minlength=n * RANK_HISTOGRAM_BINS)
    return counts.reshape(lead + (RANK_HISTOGRAM_BINS,))
