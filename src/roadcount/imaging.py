"""Grayscale frame representation, PGM I/O and downscaling.

Frames are 8-bit grayscale only. No integral image is built: MB-LBP code
maps take their block sums straight from the pixels (features._block_sums).
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


class Frame:
    """8-bit grayscale raster, pixels stored row-major as a (h, w) uint8 array."""

    def __init__(self, pixels: np.ndarray):
        pixels = np.asarray(pixels)
        if pixels.ndim != 2:
            raise ValueError(f"frame pixels must be 2-D, got shape {pixels.shape}")
        if pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ValueError(f"frame must be at least 1x1, got shape {pixels.shape}")
        if pixels.dtype != np.uint8:
            if pixels.min() < 0 or pixels.max() > 255:
                raise ValueError("frame intensities must lie in [0, 255]")
            pixels = pixels.astype(np.uint8)
        self.pixels = pixels

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def contains(self, r: Rect) -> bool:
        return r.right <= self.width and r.bottom <= self.height

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:
        return f"Frame({self.width}x{self.height})"


def downscale(frame: Frame, factor: int) -> Frame:
    """Block-mean downscale by an integer factor dividing both dimensions.

    Each output pixel is the mean of its factor x factor source block,
    rounded half away from zero.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return Frame(frame.pixels.copy())
    if frame.width % factor or frame.height % factor:
        raise ValueError(
            f"factor {factor} does not divide {frame.width}x{frame.height}"
        )
    h, w = frame.height // factor, frame.width // factor
    sums = (
        frame.pixels.astype(np.int64)
        .reshape(h, factor, w, factor)
        .sum(axis=(1, 3))
    )
    # exact half-up rounding of sums / factor^2 in integer arithmetic
    n = factor * factor
    out = (2 * sums + n) // (2 * n)
    return Frame(out.astype(np.uint8))


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
    if start == pos:
        raise PgmError("truncated PGM header")
    return data[start:pos], pos


def load_pgm(path: str | os.PathLike) -> Frame:
    """Load a binary PGM (P5, maxval 255) file byte-exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise PgmError(f"wrong magic in {path!s}: expected P5")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(data, pos)
        if not re.fullmatch(rb"\d+", tok):
            raise PgmError(f"non-numeric PGM header token {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} (only 8-bit PGM supported)")
    if width < 1 or height < 1:
        raise PgmError(f"bad PGM dimensions {width}x{height}")
    pos += 1  # exactly one whitespace byte separates header and payload
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise PgmError(
            f"truncated PGM payload: expected {width * height} bytes, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return Frame(pixels.copy())


def save_pgm(frame: Frame, path: str | os.PathLike) -> None:
    """Write a binary PGM (P5, maxval 255); reload is bit-exact."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frame.pixels.tobytes())


def frame_filename(index: int) -> str:
    """Canonical on-disk name for a sequence frame (zero-padded, from 0)."""
    return f"frame_{index:06d}.pgm"


def sequence_paths(directory: str | os.PathLike) -> list[str]:
    """Paths of all frame_NNNNNN.pgm files in a directory, in index order."""
    names = [n for n in os.listdir(directory) if re.fullmatch(r"frame_\d{6}\.pgm", n)]
    return [os.path.join(directory, n) for n in sorted(names)]
