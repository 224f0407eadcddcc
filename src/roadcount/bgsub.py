"""Background-subtraction detector: running-average model, mask, blobs.

The background is a per-pixel exponential running average, updated in
place; a pixel is foreground when its absolute difference from the
background reaches the threshold. Masks are cleaned with a morphological
opening (erosion, then dilation, with a square element) made of logical
and/or over shifted slices of a padded bool array, windows doubling in
length; the border counts as foreground for the erosion and as background
for the dilation. Blob bounding rects come from run-based 8-connected
labeling: the mask's row runs are joined by union-find, and each
component's box and area are taken over its own runs.
"""

from __future__ import annotations

import numpy as np

from .imaging import Rect

DEFAULT_LEARNING_RATE = 0.05
DEFAULT_MIN_AREA = 25


class BackgroundModel:
    """Per-pixel EMA background estimate; updates must arrive in frame order."""

    def __init__(self, width: int, height: int, learning_rate: float = DEFAULT_LEARNING_RATE):
        if not 0.0 < learning_rate < 1.0:
            raise ValueError(f"learning_rate must lie in (0, 1), got {learning_rate}")
        if width < 1 or height < 1:
            raise ValueError(f"model must be at least 1x1, got {width}x{height}")
        self.width = width
        self.height = height
        self.learning_rate = learning_rate
        self.background: np.ndarray | None = None

    def _check_dims(self, pixels: np.ndarray) -> None:
        if pixels.shape != (self.height, self.width):
            h, w = pixels.shape
            raise ValueError(f"frame {w}x{h} does not match model {self.width}x{self.height}")

    @property
    def initialized(self) -> bool:
        return self.background is not None


def update_background(model: BackgroundModel, pixels: np.ndarray) -> BackgroundModel:
    """B <- (1-lambda)*B + lambda*pixels per pixel; the first frame sets B = pixels.

    B is updated in place with the same two roundings as the two-temporary
    formula, so the result is bit-identical to it.
    """
    model._check_dims(pixels)
    if model.background is None:
        model.background = pixels.astype(np.float64)
    else:
        lam = model.learning_rate
        model.background *= 1.0 - lam
        model.background += lam * pixels
    return model


def subtract(model: BackgroundModel, pixels: np.ndarray, th: float) -> np.ndarray:
    """Binary foreground mask: 1 where |pixels - B| >= th (boundary inclusive)."""
    model._check_dims(pixels)
    if model.background is None:
        raise ValueError("background model is not initialized")
    diff = np.subtract(pixels, model.background)
    np.abs(diff, out=diff)
    return (diff >= th).view(np.uint8)


def _window_reduce(padded: np.ndarray, radius: int, axis: int, op: np.ufunc) -> np.ndarray:
    """op over every (2*radius+1) window along axis of an array padded by radius.

    Windows double in length (1, 2, 4, ...) while they fit; two overlapping
    windows of the last length then cover each full one, so a radius costs
    O(log radius) array operations.
    """

    def cut(a: np.ndarray, start: int, n: int) -> np.ndarray:
        return a[:, start:start + n] if axis else a[start:start + n]

    size, span, out = 2 * radius + 1, 1, padded
    while 2 * span <= size:
        n = out.shape[axis] - span
        out = op(cut(out, 0, n), cut(out, span, n))
        span *= 2
    if span < size:
        n = padded.shape[axis] - size + 1
        out = op(cut(out, 0, n), cut(out, size - span, n))
    return out


def morphological_open(mask: np.ndarray, radius: int) -> np.ndarray:
    """Erosion then dilation with a (2*radius+1) square element; radius 0 is identity.

    During erosion pixels outside the image count as foreground, during
    dilation as background, so solid blobs touching the frame edge survive
    instead of being eaten from the border. The square element is separable:
    each step is logical and (or) over shifted slices of one padded bool
    array, along each axis in turn. A window of radius n - 1 already covers
    an axis of n pixels from every position, so the radius is clamped to
    that per axis and larger radii cost no more.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return mask.copy()
    h, w = mask.shape
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    out = mask
    for cval, op in ((True, np.logical_and), (False, np.logical_or)):
        padded = np.full((h + 2 * ry, w + 2 * rx), cval)
        padded[ry:ry + h, rx:rx + w] = out  # any nonzero value is foreground
        out = _window_reduce(_window_reduce(padded, ry, 0, op), rx, 1, op)
    return out.view(np.uint8)


def extract_blobs(mask: np.ndarray, min_area: int = DEFAULT_MIN_AREA) -> list[Rect]:
    """Tight bounding rects of 8-connected components with >= min_area pixels.

    Run-based two-scan labeling (He, Chao & Suzuki, IEEE TIP 2008): the
    foreground runs of every row come from one scan of the mask padded by a
    zero column; a run [s', e') joins each run [s, e) of the row above with
    s <= e' and s' <= e (half-open ends, so diagonal contact counts), by
    union-find over run indices whose roots are each component's first run.
    The second scan takes each component's box as the min/max over its runs
    and its area as the sum of their lengths, so the area never counts
    another component's pixels inside the box. Output is sorted by (y, x) of
    the rect's top-left corner, ties in raster order of each component's
    first pixel.
    """
    h, w = mask.shape
    stride = w + 1
    flat = np.zeros(h * stride + 1, dtype=bool)  # a leading zero, then rows + zero column
    flat[1:].reshape(h, stride)[:, :w] = mask  # any nonzero value is foreground
    edges = np.flatnonzero(flat[1:] != flat[:-1])  # run starts and ends, alternating
    if edges.size == 0:
        return []
    starts, ends = edges[0::2], edges[1::2]
    rows = starts // stride
    x0 = (starts - rows * stride).tolist()
    x1 = (ends - rows * stride).tolist()
    rows = rows.tolist()

    # first scan: parent[i] <= i always, so each root is its component's first run
    parent = list(range(len(rows)))
    row, row_start, above_end, j = -2, 0, 0, 0
    for i, r in enumerate(rows):
        if r != row:  # first run of row r; runs j .. above_end - 1 lie on the row above
            j, above_end = (row_start, i) if r == row + 1 else (i, i)
            row, row_start = r, i
        s, e = x0[i], x1[i]
        while j < above_end and x1[j] < s:
            j += 1  # ends left of this run, so left of every later run on the row too
        root, k = i, j
        while k < above_end and x0[k] <= e:
            other = k
            while parent[other] != other:
                parent[other] = other = parent[parent[other]]
            if other < root:
                parent[root], root = other, other
            elif other > root:
                parent[other] = root
            k += 1

    # second scan: flatten parents in index order, grow each root's box
    boxes: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        p = parent[i] = parent[parent[i]]
        if p == i:
            boxes[i] = [x0[i], r, x1[i], r, x1[i] - x0[i]]
        else:
            box = boxes[p]
            if x0[i] < box[0]:
                box[0] = x0[i]
            if x1[i] > box[2]:
                box[2] = x1[i]
            box[3] = r
            box[4] += x1[i] - x0[i]
    rects = [
        Rect(bx0, by0, bx1 - bx0, by1 - by0 + 1)
        for bx0, by0, bx1, by1, area in boxes.values()
        if area >= min_area
    ]
    rects.sort(key=lambda r: (r.y, r.x))
    return rects
