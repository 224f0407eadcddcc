"""Background-subtraction detector: running-average model, mask, blobs.

The background is a per-pixel exponential running average; a pixel is
foreground when its absolute difference from the background reaches the
threshold. Masks are cleaned with a morphological opening and turned into
blob bounding rects via 8-connected component labeling.
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
    """B <- (1-lambda)*B + lambda*frame per pixel; the first frame sets B = frame."""
    model._check_dims(frame)
    pixels = frame.pixels.astype(np.float64)
    if model.background is None:
        model.background = pixels
    else:
        lam = model.learning_rate
        model.background = (1.0 - lam) * model.background + lam * pixels
    return model


def subtract(model: BackgroundModel, frame: Frame, th: float) -> np.ndarray:
    """Binary foreground mask: 1 where |frame - B| >= th (boundary inclusive)."""
    model._check_dims(frame)
    if model.background is None:
        raise ValueError("background model is not initialized")
    diff = np.abs(frame.pixels.astype(np.float64) - model.background)
    return (diff >= th).astype(np.uint8)


def morphological_open(mask: np.ndarray, radius: int) -> np.ndarray:
    """Erosion then dilation with a (2*radius+1) square element; radius 0 is identity.

    During erosion pixels outside the image count as foreground, during
    dilation as background, so solid blobs touching the frame edge survive
    instead of being eaten from the border. The square element is separable,
    so each step is a 1-D minimum (maximum) filter along both axes.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return mask.copy()
    size = 2 * radius + 1
    out = mask.astype(bool).view(np.uint8)
    for axis in (0, 1):
        out = ndimage.minimum_filter1d(out, size, axis=axis, mode="constant", cval=1)
    for axis in (0, 1):
        out = ndimage.maximum_filter1d(out, size, axis=axis, mode="constant", cval=0)
    return out


def extract_blobs(mask: np.ndarray, min_area: int = DEFAULT_MIN_AREA) -> list[Rect]:
    """Tight bounding rects of 8-connected components with >= min_area pixels.

    Output is sorted by (y, x) of the rect's top-left corner.
    """
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if count == 0:
        return []
    areas = np.bincount(labels.ravel(), minlength=count + 1)
    rects = []
    for label, slices in enumerate(ndimage.find_objects(labels), start=1):
        if slices is None or areas[label] < min_area:
            continue
        ys, xs = slices
        rects.append(Rect(xs.start, ys.start, xs.stop - xs.start, ys.stop - ys.start))
    rects.sort(key=lambda r: (r.y, r.x))
    return rects

