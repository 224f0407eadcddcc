"""Background model recursion, mask thresholding, opening and blob extraction."""

import time
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from roadcount import synthgen
from roadcount.bgsub import (
    BackgroundModel,
    extract_blobs,
    morphological_open,
    subtract,
    update_background,
)
from roadcount.imaging import Rect


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
        update_background(model, np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        subtract(model, np.zeros((4, 4), dtype=np.uint8), 10.0)


def test_update_recursion_matches_closed_form():
    rng = np.random.default_rng(103)
    lam = 0.25
    model = BackgroundModel(6, 5, learning_rate=lam)
    frames = [rng.integers(0, 256, (5, 6)).astype(np.uint8) for _ in range(50)]
    expected = frames[0].astype(np.float64)
    update_background(model, frames[0])
    assert model.initialized
    assert np.array_equal(model.background, expected)
    for frame in frames[1:]:
        update_background(model, frame)
        # the two-temporary formula, bit for bit
        expected = (1.0 - lam) * expected + lam * frame.astype(np.float64)
        assert np.array_equal(model.background, expected)


def test_subtract_matches_float_formula_bit_for_bit():
    rng = np.random.default_rng(127)
    model = BackgroundModel(40, 30, learning_rate=0.37)
    for _ in range(12):
        update_background(model, rng.integers(0, 256, (30, 40)).astype(np.uint8))
    pixels = rng.integers(0, 256, (30, 40)).astype(np.uint8)
    background = model.background
    assert not np.array_equal(background, np.round(background))  # fractional
    th = 10.25
    near = rng.random(pixels.shape) < 0.4
    # |pixel - B| is th, or th less about 6e-10, which float32 arithmetic
    # would round up to th; B stays inside [0, 255]
    sides = np.where(pixels[near] < 128, 1.0, -1.0)
    background[near] = pixels[near] + sides * rng.choice((th, th * (1.0 - 2**-34)), size=sides.size)
    diff = np.abs(pixels - background)
    assert np.count_nonzero(diff == th) > 100
    assert np.count_nonzero((diff < th) & (diff > th - 1e-8)) > 100
    for t in (th, 0.5, 3.75, 100.0):
        mask = subtract(model, pixels, t)
        expected = (np.abs(pixels.astype(np.float64) - background) >= t).astype(np.uint8)
        assert mask.dtype == np.uint8
        assert np.array_equal(mask, expected)


def test_subtract_threshold_boundary_inclusive():
    model = BackgroundModel(3, 1, learning_rate=0.5)
    update_background(model, np.array([[100, 100, 100]], dtype=np.uint8))
    mask = subtract(model, np.array([[109, 110, 111]], dtype=np.uint8), 10.0)
    assert mask.tolist() == [[0, 1, 1]]
    mask = subtract(model, np.array([[91, 90, 89]], dtype=np.uint8), 10.0)
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
    for radius in (0, 1, 2, 3, 4, 5, 8, 13):
        for mask in masks:
            opened = morphological_open(mask, radius)
            assert opened.dtype == np.uint8
            assert np.array_equal(opened, _oracle_open(mask, radius)), (radius, mask.shape)


def _step_scene_masks(count: int) -> list[np.ndarray]:
    """The raw th=10 masks of the first frames of the 1600-frame step scene.

    Its +50 illumination step comes at frame 800, so the first frames render
    the same without it.
    """
    scenario = synthgen.ScenarioConfig(
        width=240, height=135, frames=count + 1,
        markers=synthgen.default_markers(240, 135),
        spawns=synthgen.spawn_schedule(104, 15, 2, 4.0, 30, 30),
        seed=11, background_seed=4, noise_sigma=0.0,
    )
    frames, _ = synthgen.generate_scene(scenario)
    model = update_background(BackgroundModel(240, 135), frames[0])
    masks = []
    for frame in frames[1:]:
        masks.append(subtract(model, frame, 10.0))
        update_background(model, frame)
    return masks


@pytest.fixture(scope="module")
def step_scene_masks() -> list[np.ndarray]:
    return _step_scene_masks(200)


def test_open_matches_2d_oracle_on_step_scene_masks(step_scene_masks):
    masks = step_scene_masks
    assert len(masks) == 200 and sum(int(m.any()) for m in masks) > 150
    assert all(mask.shape == (135, 240) for mask in masks)
    for radius in range(4):
        for index, mask in enumerate(masks):
            assert np.array_equal(morphological_open(mask, radius), _oracle_open(mask, radius)), (
                radius, index
            )


def test_open_radius_beyond_mask_sides():
    rng = np.random.default_rng(131)
    masks = []
    for h, w in ((1, 9), (9, 1), (2, 2), (1, 1), (3, 2)):
        for p in (0.5, 1.0):
            masks.append((rng.random((h, w)) < p).astype(np.uint8))
    for mask in masks:
        for radius in range(1, max(mask.shape) + 3):
            opened = morphological_open(mask, radius)
            assert np.array_equal(opened, _oracle_open(mask, radius)), (radius, mask.tolist())


def test_open_radius_is_clamped_per_axis():
    full = np.ones((5, 7), dtype=np.uint8)
    holed = full.copy()
    holed[4, 6] = 0
    tracemalloc.start()
    try:
        morphological_open(holed, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_000  # an unclamped pad is 2007 x 2005 bytes
    for mask in (full, holed, np.zeros((5, 7), dtype=np.uint8)):
        t0 = time.perf_counter()
        opened = morphological_open(mask, 10**6)
        assert time.perf_counter() - t0 < 0.5
        # every window covers the whole mask: all ones if and only if the mask is
        assert np.array_equal(opened, np.full((5, 7), int(mask.all()), dtype=np.uint8))


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


def test_extract_blobs_more_components_than_uint8_labels():
    mask = np.zeros((41, 43), dtype=np.uint8)
    mask[::2, ::2] = 1  # 21 x 22 isolated pixels
    mask[20, 10:19] = 1  # five of them joined into a single component
    blobs = extract_blobs(mask, 1)
    assert len(blobs) == 21 * 22 - 4 > 255
    assert blobs == _flood_blobs(mask, 1)
    assert extract_blobs(mask, 2) == _flood_blobs(mask, 2) == [Rect(10, 20, 9, 1)]


def test_extract_blobs_min_area_zero():
    rng = np.random.default_rng(137)
    for _ in range(10):
        mask = (rng.random((15, 18)) < 0.3).astype(np.uint8)
        assert extract_blobs(mask, 0) == _flood_blobs(mask, 0) == _flood_blobs(mask, 1)
    assert extract_blobs(np.zeros((4, 4), dtype=np.uint8), 0) == []


def test_extract_blobs_area_counts_only_its_own_label():
    mask = np.zeros((10, 10), dtype=np.uint8)
    mask[1:9, 1] = 1
    mask[1:9, 8] = 1
    mask[8, 1:9] = 1  # a U of 22 px whose 8x8 box holds 64 px
    mask[3:6, 3:6] = 1  # a 9 px square inside the U's box
    u_rect, square = Rect(1, 1, 8, 8), Rect(3, 3, 3, 3)
    assert extract_blobs(mask, 1) == _flood_blobs(mask, 1) == [u_rect, square]
    assert extract_blobs(mask, 22) == _flood_blobs(mask, 22) == [u_rect]
    # counted with the square, the U would read 31 px and pass 23
    assert extract_blobs(mask, 23) == _flood_blobs(mask, 23) == []


def _ndimage_blobs(mask: np.ndarray, min_area: int) -> list[Rect]:
    """scipy labeling oracle: 8-connected labels, each area counted inside its own box."""
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    rects = []
    for label, (ys, xs) in enumerate(ndimage.find_objects(labels, count), start=1):
        if np.count_nonzero(labels[ys, xs] == label) >= min_area:
            rects.append(Rect(xs.start, ys.start, xs.stop - xs.start, ys.stop - ys.start))
    rects.sort(key=lambda r: (r.y, r.x))
    return rects


def test_extract_blobs_matches_ndimage_on_opened_step_scene_masks(step_scene_masks):
    blobs = 0
    for radius in range(4):
        for index, raw in enumerate(step_scene_masks):
            mask = morphological_open(raw, radius)
            for min_area in (0, 1, 5, 25):
                found = extract_blobs(mask, min_area)
                assert found == _ndimage_blobs(mask, min_area), (radius, index, min_area)
                blobs += len(found)
    assert blobs > 1000


def _serpentine(h: int, w: int) -> np.ndarray:
    """One component snaking down the mask: full rows joined at alternating ends."""
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[::2] = 1
    mask[1::4, -1] = 1
    mask[3::4, 0] = 1
    return mask


def test_extract_blobs_matches_flood_fill_on_dense_and_long_components():
    rng = np.random.default_rng(139)
    noise = (rng.random((135, 240)) < 0.5).astype(np.uint8)
    serpentine = _serpentine(41, 37)
    assert len(_flood_blobs(serpentine, 0)) == 1
    for mask in (noise, serpentine, np.ones((135, 240), dtype=np.uint8)):
        for min_area in (0, 1, 5, 25):
            assert extract_blobs(mask, min_area) == _flood_blobs(mask, min_area)


def test_extract_blobs_more_components_than_uint16_labels():
    mask = np.zeros((512, 512), dtype=np.uint8)
    mask[::2, ::2] = 1  # 256 x 256 isolated pixels
    blobs = extract_blobs(mask, 0)
    assert len(blobs) == 65_536 > 65_535
    assert blobs == _flood_blobs(mask, 0)
