"""Rectangles, PGM I/O and downscaling of grayscale frames.

A frame is an (h, w) uint8 array of 8-bit grayscale pixels, row-major. No
integral image is built: MB-LBP code maps take their block sums straight
from the pixels (features._block_sums).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np


class PgmError(ValueError):
    """Raised for malformed or unsupported PGM data."""


def round_half_up(x: float) -> int:
    """Round half away from zero (0.5 -> 1, -0.5 -> -1)."""
    if x >= 0:
        return int(x + 0.5)
    return -int(-x + 0.5)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned pixel rectangle, top-left anchored, w/h >= 1."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect must have positive size, got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rect origin must be non-negative, got ({self.x},{self.y})")

    @property
    def right(self) -> int:
        return self.x + self.w

    @property
    def bottom(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def intersection_area(self, other: "Rect") -> int:
        iw = min(self.right, other.right) - max(self.x, other.x)
        ih = min(self.bottom, other.bottom) - max(self.y, other.y)
        if iw <= 0 or ih <= 0:
            return 0
        return iw * ih

    def overlaps(self, other: "Rect") -> bool:
        """Positive-area overlap; touching edges do not count."""
        return self.intersection_area(other) > 0


def downscale(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Block-mean downscale of (h, w) uint8 pixels by an integer factor dividing
    both dimensions; a copy at factor 1.

    Each output pixel is the mean of its factor x factor source block,
    rounded half away from zero.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return pixels.copy()
    height, width = pixels.shape
    if width % factor or height % factor:
        raise ValueError(f"factor {factor} does not divide {width}x{height}")
    h, w = height // factor, width // factor
    sums = (
        pixels.astype(np.int64)
        .reshape(h, factor, w, factor)
        .sum(axis=(1, 3))
    )
    # exact half-up rounding of sums / factor^2 in integer arithmetic
    n = factor * factor
    out = (2 * sums + n) // (2 * n)
    return out.astype(np.uint8)


_WS = b" \t\r\n\v\f"


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c in _WS:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in _WS and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def load_pgm(path: str | os.PathLike) -> np.ndarray:
    """Load a binary PGM (P5, maxval 255) file byte-exactly as (h, w) uint8 pixels."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise PgmError(f"wrong magic in {path!s}: expected P5")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(data, pos)
        if not tok:
            raise PgmError(f"truncated PGM header in {path!s}")
        if not re.fullmatch(rb"\d+", tok):
            raise PgmError(f"non-numeric PGM header token {tok!r} in {path!s}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} in {path!s}: only 8-bit PGM supported")
    if width < 1 or height < 1:
        raise PgmError(f"bad PGM dimensions {width}x{height} in {path!s}")
    if data[pos : pos + 1] == b"#":
        raise PgmError(f"comment right after maxval in {path!s}: expected one whitespace byte")
    pos += 1  # exactly one whitespace byte separates header and payload
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise PgmError(
            f"truncated PGM payload in {path!s}: "
            f"expected {width * height} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def save_pgm(pixels: np.ndarray, path: str | os.PathLike) -> None:
    """Write (h, w) uint8 pixels as a binary PGM (P5, maxval 255); reload is bit-exact."""
    if pixels.ndim != 2 or pixels.size == 0 or pixels.dtype != np.uint8:
        raise ValueError(
            f"PGM pixels must be non-empty 2-D uint8, got {pixels.dtype} {pixels.shape}"
        )
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())


def frame_filename(index: int) -> str:
    """Canonical on-disk name for a sequence frame (zero-padded, from 0)."""
    return f"frame_{index:06d}.pgm"


def sequence_paths(directory: str | os.PathLike) -> list[str]:
    """Paths of all frame_NNNNNN.pgm files in a directory, in index order."""
    names = [n for n in os.listdir(directory) if re.fullmatch(r"frame_\d{6}\.pgm", n)]
    return [os.path.join(directory, n) for n in sorted(names)]
