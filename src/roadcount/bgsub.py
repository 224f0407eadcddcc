"""Background-subtraction detector: running-average model, mask, blobs.

The background is a per-pixel exponential running average, updated in
place; a pixel is foreground when its absolute difference from the
background reaches the threshold. Masks are cleaned with a morphological
opening (erosion, then dilation, with a square element) made of logical
and/or over shifted slices of a padded bool array, windows doubling in
length; the border counts as foreground for the erosion and as background
for the dilation. Blob bounding rects come from 8-connected component
labeling, each component's area counted inside its own box.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .imaging import Frame, Rect

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

    def _check_dims(self, frame: Frame) -> None:
        if frame.width != self.width or frame.height != self.height:
            raise ValueError(
                f"frame {frame.width}x{frame.height} does not match model "
                f"{self.width}x{self.height}"
            )

    @property
    def initialized(self) -> bool:
        return self.background is not None


def update_background(model: BackgroundModel, frame: Frame) -> BackgroundModel:
    """B <- (1-lambda)*B + lambda*frame per pixel; the first frame sets B = frame.

    B is updated in place with the same two roundings as the two-temporary
    formula, so the result is bit-identical to it.
    """
    model._check_dims(frame)
    if model.background is None:
        model.background = frame.pixels.astype(np.float64)
    else:
        lam = model.learning_rate
        model.background *= 1.0 - lam
        model.background += lam * frame.pixels
    return model


def subtract(model: BackgroundModel, frame: Frame, th: float) -> np.ndarray:
    """Binary foreground mask: 1 where |frame - B| >= th (boundary inclusive)."""
    model._check_dims(frame)
    if model.background is None:
        raise ValueError("background model is not initialized")
    diff = np.subtract(frame.pixels, model.background)
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


_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


def extract_blobs(mask: np.ndarray, min_area: int = DEFAULT_MIN_AREA) -> list[Rect]:
    """Tight bounding rects of 8-connected components with >= min_area pixels.

    Each component's area is counted inside its own bounding box only.
    Output is sorted by (y, x) of the rect's top-left corner.
    """
    labels, count = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    rects = []
    for label, slices in enumerate(ndimage.find_objects(labels, count), start=1):
        if np.count_nonzero(labels[slices] == label) < min_area:
            continue
        ys, xs = slices
        rects.append(Rect(xs.start, ys.start, xs.stop - xs.start, ys.stop - ys.start))
    rects.sort(key=lambda r: (r.y, r.x))
    return rects
