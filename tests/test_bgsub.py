"""Background model recursion, mask thresholding, opening and blob extraction."""

import numpy as np
import pytest
from scipy import ndimage

from roadcount.bgsub import (
    BackgroundModel,
    extract_blobs,
    morphological_open,
    subtract,
    update_background,
)
from roadcount.imaging import Frame, Rect


def test_model_validation():
    with pytest.raises(ValueError):
        BackgroundModel(4, 4, learning_rate=0.0)
    with pytest.raises(ValueError):
        BackgroundModel(4, 4, learning_rate=1.0)
    with pytest.raises(ValueError):
        BackgroundModel(0, 4)
    model = BackgroundModel(4, 4)
    assert not model.initialized
    with pytest.raises(ValueError):
        update_background(model, Frame(np.zeros((4, 5), dtype=np.uint8)))
    with pytest.raises(ValueError):
        subtract(model, Frame(np.zeros((4, 4), dtype=np.uint8)), 10.0)


def test_update_recursion_matches_closed_form():
    rng = np.random.default_rng(103)
    lam = 0.25
    model = BackgroundModel(6, 5, learning_rate=lam)
    frames = [Frame(rng.integers(0, 256, (5, 6)).astype(np.uint8)) for _ in range(8)]
    expected = frames[0].pixels.astype(np.float64)
    update_background(model, frames[0])
    assert model.initialized
    assert np.array_equal(model.background, expected)
    for frame in frames[1:]:
        update_background(model, frame)
        expected = (1.0 - lam) * expected + lam * frame.pixels
        assert np.allclose(model.background, expected, atol=1e-12)


def test_subtract_threshold_boundary_inclusive():
    model = BackgroundModel(3, 1, learning_rate=0.5)
    update_background(model, Frame(np.array([[100, 100, 100]])))
    mask = subtract(model, Frame(np.array([[109, 110, 111]])), 10.0)
    assert mask.tolist() == [[0, 1, 1]]
    mask = subtract(model, Frame(np.array([[91, 90, 89]])), 10.0)
    assert mask.tolist() == [[0, 1, 1]]


def test_open_radius_zero_is_identity():
    rng = np.random.default_rng(107)
    mask = (rng.random((12, 14)) < 0.4).astype(np.uint8)
    out = morphological_open(mask, 0)
    assert np.array_equal(out, mask)
    assert out is not mask
    with pytest.raises(ValueError):
        morphological_open(mask, -1)


def test_open_removes_isolated_pixel_keeps_solid_square():
    mask = np.zeros((12, 12), dtype=np.uint8)
    mask[2, 2] = 1
    mask[5:10, 5:10] = 1
    opened = morphological_open(mask, 1)
    assert opened[2, 2] == 0
    assert np.array_equal(opened[5:10, 5:10], np.ones((5, 5), dtype=np.uint8))
    assert opened.sum() == 25


def test_open_keeps_solid_blob_at_frame_edge():
    mask = np.zeros((10, 10), dtype=np.uint8)
    mask[0:4, 0:4] = 1
    opened = morphological_open(mask, 1)
    assert np.array_equal(opened, mask)


def test_open_is_anti_extensive_inside():
    rng = np.random.default_rng(109)
    for _ in range(20):
        mask = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        opened = morphological_open(mask, 1)
        inner = np.s_[1:-1, 1:-1]
        assert np.all(opened[inner] <= mask[inner])


def _oracle_open(mask: np.ndarray, radius: int) -> np.ndarray:
    """2-D binary erosion then dilation with the full square element."""
    if radius == 0:
        return mask.copy()
    structure = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    eroded = ndimage.binary_erosion(mask.astype(bool), structure=structure, border_value=1)
    opened = ndimage.binary_dilation(eroded, structure=structure, border_value=0)
    return opened.astype(np.uint8)


def test_open_matches_2d_oracle():
    rng = np.random.default_rng(113)
    masks = []
    for _ in range(40):
        h, w = (int(n) for n in rng.integers(1, 30, size=2))
        masks.append((rng.random((h, w)) < rng.random()).astype(np.uint8))
    for y, x, bh, bw in ((0, 0, 5, 7), (3, 12, 9, 4), (8, 0, 6, 6), (0, 9, 14, 7)):
        mask = np.zeros((14, 16), dtype=np.uint8)
        mask[y:y + bh, x:x + bw] = 1  # blobs touching the top, right, left and bottom edges
        mask[rng.random(mask.shape) < 0.05] ^= 1
        masks.append(mask)
    masks.append(np.full((6, 9), 3, dtype=np.uint8))  # any nonzero value is foreground
    for radius in range(4):
        for mask in masks:
            opened = morphological_open(mask, radius)
            assert opened.dtype == np.uint8
            assert np.array_equal(opened, _oracle_open(mask, radius)), (radius, mask.shape)


def _flood_blobs(mask: np.ndarray, min_area: int) -> list[Rect]:
    """Pure-python 8-connected labeling oracle."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    rects = []
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            stack = [(sy, sx)]
            seen[sy, sx] = True
            cells = []
            while stack:
                y, x = stack.pop()
                cells.append((y, x))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
            if len(cells) >= min_area:
                ys = [c[0] for c in cells]
                xs = [c[1] for c in cells]
                rects.append(Rect(min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1))
    rects.sort(key=lambda r: (r.y, r.x))
    return rects


def test_extract_blobs_matches_flood_fill_oracle():
    rng = np.random.default_rng(113)
    for _ in range(30):
        mask = (rng.random((20, 24)) < 0.35).astype(np.uint8)
        for min_area in (1, 3, 6):
            assert extract_blobs(mask, min_area) == _flood_blobs(mask, min_area)
    assert extract_blobs(np.zeros((5, 5), dtype=np.uint8), 1) == []


def test_extract_blobs_diagonal_connectivity():
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[1, 1] = 1
    mask[2, 2] = 1  # touches only diagonally
    blobs = extract_blobs(mask, 1)
    assert blobs == [Rect(1, 1, 2, 2)]


def test_extract_blobs_sorted_and_filtered():
    mask = np.zeros((12, 12), dtype=np.uint8)
    mask[8:11, 1:4] = 1  # 9 px, lower left
    mask[1:3, 6:10] = 1  # 8 px, upper right
    blobs = extract_blobs(mask, 1)
    assert blobs == [Rect(6, 1, 4, 2), Rect(1, 8, 3, 3)]
    assert extract_blobs(mask, 9) == [Rect(1, 8, 3, 3)]
