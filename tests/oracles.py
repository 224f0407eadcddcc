"""Scalar reference code kept as test oracles: MB-LBP over integral images,
and the per-attempt training-crop sampler.

The package computes MB-LBP features on one path: code map -> rank map ->
site counts (features.mb_lbp_code_map, features.mb_lbp_histogram). The
helpers here compute the same codes and histograms from an int64 integral
image, one footprint at a time, so tests can check that path against them.
Integral images accumulate in int64, which holds exact sums for frames up to
4096x4096 (4096*4096*255 < 2^63). site_views, the strided per-window site
view the detector used to read, builds the reference feature vectors.
reference_training_set is the scalar rejection loop that
synthgen.sample_crops replaced with block draws.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from roadcount.features import (
    _NEIGHBORS,
    RANK_HISTOGRAM_BINS,
    BlockGeometry,
    RankTable,
    _codes_from_grid,
)
from roadcount.imaging import Rect, round_half_up
from roadcount.synthgen import PURPOSE_CROPS, _clamp_crop, _resample_nearest, _rng


class IntegralImage:
    """Cumulative-sum table; entry (j, i) = sum of pixels with row < j, col < i.

    The table has shape (..., h+1, w+1) with a zero first row and column, so
    any rectangle sum costs four lookups. Leading axes, if any, index a stack
    of equal-size images.
    """

    def __init__(self, table: np.ndarray):
        self.table = table

    @property
    def width(self) -> int:
        return self.table.shape[-1] - 1

    @property
    def height(self) -> int:
        return self.table.shape[-2] - 1

    def rect_sum(self, r: Rect) -> int:
        if r.right > self.width or r.bottom > self.height:
            raise ValueError(f"rect {r} exceeds {self.width}x{self.height} image")
        t = self.table
        return int(t[r.bottom, r.right] - t[r.y, r.right] - t[r.bottom, r.x] + t[r.y, r.x])

    def block_sums(self, bw: int, bh: int, dtype=np.int64) -> np.ndarray:
        """Sums of all bw x bh blocks; entry (..., y, x) covers [x, x+bw) x [y, y+bh).
        A narrower integer dtype gives the sums modulo its range."""
        if bw < 1 or bh < 1 or bw > self.width or bh > self.height:
            raise ValueError(f"block {bw}x{bh} does not fit {self.width}x{self.height}")
        t = self.table
        sums = np.subtract(t[..., bh:, bw:], t[..., :-bh, bw:], dtype=dtype, casting="unsafe")
        np.subtract(sums, t[..., bh:, :-bw], out=sums, dtype=dtype, casting="unsafe")
        return np.add(sums, t[..., :-bh, :-bw], out=sums, dtype=dtype, casting="unsafe")


def integral(pixels: np.ndarray) -> IntegralImage:
    """Integral image of a frame's (h, w) pixels, or of a (..., h, w) stack of equal-size ones."""
    h, w = pixels.shape[-2:]
    table = np.zeros(pixels.shape[:-2] + (h + 1, w + 1), dtype=np.int64)
    sums = table[..., 1:, 1:]
    sums[...] = pixels
    np.cumsum(sums, axis=-2, out=sums)
    np.cumsum(sums, axis=-1, out=sums)
    return IntegralImage(table)


def mb_lbp_code(ii: IntegralImage, x: int, y: int, g: BlockGeometry) -> int:
    """MB-LBP code for the footprint whose top-left corner is (x, y).

    Block means are compared via exact integer block sums (all nine blocks
    share one size). A 1x1 geometry reduces to lbp_code at (x+1, y+1).
    """
    if x < 0 or y < 0 or x + g.footprint_w > ii.width or y + g.footprint_h > ii.height:
        raise ValueError(
            f"footprint {g.footprint_w}x{g.footprint_h} at ({x},{y}) exceeds "
            f"{ii.width}x{ii.height} image"
        )
    center = ii.rect_sum(Rect(x + g.cell_w, y + g.cell_h, g.cell_w, g.cell_h))
    code = 0
    for dx, dy, shift in _NEIGHBORS:
        s = ii.rect_sum(Rect(x + dx * g.cell_w, y + dy * g.cell_h, g.cell_w, g.cell_h))
        if s >= center:
            code |= 1 << shift
    return code


def integral_histogram(
    ii: IntegralImage, region: Rect, g: BlockGeometry, rt: RankTable
) -> np.ndarray:
    """64-bin rank histogram of MB-LBP codes over all footprints inside region,
    coded from the integral image's block sums.

    Footprints slide with stride 1; bin sum equals
    (w - 3*cell_w + 1) * (h - 3*cell_h + 1).
    """
    if region.right > ii.width or region.bottom > ii.height:
        raise ValueError(f"region {region} exceeds {ii.width}x{ii.height} image")
    if region.w < g.footprint_w or region.h < g.footprint_h:
        raise ValueError(
            f"region {region.w}x{region.h} too small for footprint "
            f"{g.footprint_w}x{g.footprint_h}"
        )
    sums = ii.block_sums(g.cell_w, g.cell_h)
    sub = sums[
        region.y : region.y + region.h - g.cell_h + 1,
        region.x : region.x + region.w - g.cell_w + 1,
    ]
    codes = _codes_from_grid(sub, g.cell_w, g.cell_h)
    return np.bincount(rt.bins[codes.ravel()], minlength=RANK_HISTOGRAM_BINS)


def site_views(rank_map: Callable[[BlockGeometry], np.ndarray]):
    """sites(cell, g): cell's geometry-g footprint-site bins at every window origin.

    The result is a view of shape stack + (origin_y, origin_x, span_h, span_w);
    [..., y, x, :, :] holds the bins of the window whose origin is (x, y).
    `rank_map(g)`, the C-contiguous rank map of one image or a stack, runs
    once per g, and each (g, span) strided view is built once, read-only,
    straight over the rank map's buffer.
    """
    rank_map = functools.cache(rank_map)

    @functools.cache
    def view(g: BlockGeometry, span: tuple[int, int]) -> np.ndarray:
        bins = rank_map(g)
        h, w = bins.shape[-2:]
        shape = bins.shape[:-2] + (h - span[0] + 1, w - span[1] + 1) + span
        out = np.ndarray(shape, bins.dtype, bins, 0, bins.strides + bins.strides[-2:])
        out.flags.writeable = False
        return out

    def sites(cell: Rect, g: BlockGeometry) -> np.ndarray:
        span = (cell.h - g.footprint_h + 1, cell.w - g.footprint_w + 1)
        return view(g, span)[..., cell.y :, cell.x :, :, :]

    return sites


def reference_training_set(config, scene, n_pos, n_neg, window_w, window_h, perturbation=0.1):
    """synthgen.sample_crops one crop at a time, with its negatives stacked:
    the negatives draw from the generator's state after the first positive,
    and per negative attempt make three scalar `integers` draws (frame, x, y)
    and a Rect.overlaps test against every box of the frame."""
    frames, gt = scene
    boxes_by_frame: dict[int, list[Rect]] = {}
    for frame_idx, _, rect in gt.boxes:
        boxes_by_frame.setdefault(frame_idx, []).append(rect)
    full_boxes = [
        (frame_idx, rect)
        for frame_idx, vid, rect in gt.boxes
        if rect.w == config.spawns[vid].w and rect.h == config.spawns[vid].h
    ]
    rng = _rng(config.seed, PURPOSE_CROPS)
    positives = np.empty((n_pos, window_h, window_w), dtype=np.uint8)
    for i in range(n_pos):
        frame_idx, box = full_boxes[int(rng.integers(len(full_boxes)))]
        cover = max(box.w / window_w, box.h / window_h)
        scale = cover * (1.0 + rng.uniform(-perturbation, perturbation))
        crop_w = max(1, round_half_up(window_w * scale))
        crop_h = max(1, round_half_up(window_h * scale))
        cx, cy = box.center()
        cx += rng.uniform(-perturbation, perturbation) * crop_w
        cy += rng.uniform(-perturbation, perturbation) * crop_h
        crop = _clamp_crop(
            round_half_up(cx - crop_w / 2.0),
            round_half_up(cy - crop_h / 2.0),
            crop_w,
            crop_h,
            config.width,
            config.height,
        )
        positives[i] = _resample_nearest(frames[frame_idx], crop, window_w, window_h)
        if i == 0:
            fork = rng.bit_generator.state
    rng.bit_generator.state = fork
    negatives = []
    attempts = 0
    while len(negatives) < n_neg:
        attempts += 1
        if attempts > 1000 * n_neg:
            raise ValueError("could not sample vehicle-free negative crops")
        frame_idx = int(rng.integers(config.frames))
        x = int(rng.integers(config.width - window_w + 1))
        y = int(rng.integers(config.height - window_h + 1))
        rect = Rect(x, y, window_w, window_h)
        if any(rect.overlaps(b) for b in boxes_by_frame.get(frame_idx, [])):
            continue
        negatives.append(frames[frame_idx, y : y + window_h, x : x + window_w])
    return positives, np.stack(negatives)
