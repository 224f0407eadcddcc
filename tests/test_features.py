"""LBP / MB-LBP codes, uniform patterns, rank tables and histograms."""

import re

import numpy as np
import pytest

from roadcount.features import (
    LBP_HISTOGRAM_BINS,
    RANK_HISTOGRAM_BINS,
    RANK_OVERFLOW_BIN,
    UNIFORM_BINS,
    UNIFORM_OVERFLOW_BIN,
    BlockGeometry,
    RankTable,
    build_rank_table,
    is_uniform,
    lbp_code,
    lbp_histogram,
    mb_lbp_code_map,
    mb_lbp_histogram,
)
from roadcount.imaging import Rect

from oracles import integral, mb_lbp_code


def _uniform_oracle(code: int) -> bool:
    bits = format(code, "08b")
    return sum(bits[i] != bits[(i + 1) % 8] for i in range(8)) <= 2


def _sorted_uniform_codes() -> list[int]:
    return [c for c in range(256) if _uniform_oracle(c)]


def test_lbp_code_worked_example():
    # clockwise neighbors TL,T,TR,R,BR,B,BL,L = 120,150,80,110,60,70,100,200
    frame = np.array([[120, 150, 80], [200, 100, 110], [100, 70, 60]], dtype=np.uint8)
    assert lbp_code(frame, 1, 1) == 0b11010011 == 211


def test_lbp_code_degenerate_cases():
    assert lbp_code(np.full((3, 3), 77, dtype=np.uint8), 1, 1) == 255  # >= includes equality
    peak = np.full((3, 3), 10, dtype=np.uint8)
    peak[1, 1] = 11
    assert lbp_code(peak, 1, 1) == 0


def test_lbp_code_bit_layout():
    # one bit per neighbor, MSB first, clockwise from top-left
    positions = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    for i, (dx, dy) in enumerate(positions):
        px = np.zeros((3, 3), dtype=np.uint8)
        px[1, 1] = 100
        px[dy, dx] = 200
        assert lbp_code(px, 1, 1) == 1 << (7 - i)


def test_lbp_code_border_errors():
    frame = np.zeros((4, 5), dtype=np.uint8)
    for x, y in [(0, 1), (1, 0), (4, 1), (1, 3)]:
        with pytest.raises(ValueError):
            lbp_code(frame, x, y)
    lbp_code(frame, 1, 1)
    lbp_code(frame, 3, 2)


def test_exactly_58_uniform_patterns():
    oracle = _sorted_uniform_codes()
    assert len(oracle) == 58
    for code in range(256):
        assert is_uniform(code) == _uniform_oracle(code)
    assert is_uniform(0b11110000)
    assert not is_uniform(0b10101010)


def test_uniform_bins_ascending_code_order():
    oracle = _sorted_uniform_codes()
    for rank, code in enumerate(oracle):
        assert UNIFORM_BINS[code] == rank
    for code in range(256):
        if not _uniform_oracle(code):
            assert UNIFORM_BINS[code] == UNIFORM_OVERFLOW_BIN


def test_mb_lbp_unit_blocks_reduce_to_lbp():
    rng = np.random.default_rng(23)
    frame = rng.integers(0, 256, (20, 30)).astype(np.uint8)
    ii = integral(frame)
    g = BlockGeometry(1, 1)
    for _ in range(500):
        x = int(rng.integers(0, 30 - 2))
        y = int(rng.integers(0, 20 - 2))
        assert mb_lbp_code(ii, x, y, g) == lbp_code(frame, x + 1, y + 1)
    code_map = mb_lbp_code_map(frame, g)
    assert code_map.shape == (20 - 2, 30 - 2)
    for j in range(20 - 2):
        for i in range(30 - 2):
            assert code_map[j, i] == lbp_code(frame, i + 1, j + 1)


def _naive_mb_lbp(pixels: np.ndarray, x: int, y: int, g: BlockGeometry) -> int:
    def cell_mean(cx, cy):
        return pixels[cy : cy + g.cell_h, cx : cx + g.cell_w].astype(float).mean()

    center = cell_mean(x + g.cell_w, y + g.cell_h)
    order = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    code = 0
    for i, (dx, dy) in enumerate(order):
        if cell_mean(x + dx * g.cell_w, y + dy * g.cell_h) >= center:
            code |= 1 << (7 - i)
    return code


def test_mb_lbp_matches_naive_cell_means():
    rng = np.random.default_rng(29)
    for _ in range(50):
        px = rng.integers(0, 256, (10, 10)).astype(np.uint8)
        ii = integral(px)
        for g in (BlockGeometry(2, 2), BlockGeometry(3, 2), BlockGeometry(2, 3)):
            for x in range(10 - g.footprint_w + 1):
                for y in range(10 - g.footprint_h + 1):
                    assert mb_lbp_code(ii, x, y, g) == _naive_mb_lbp(px, x, y, g)


def test_mb_lbp_constant_frame_and_bounds():
    ii = integral(np.full((12, 12), 50, dtype=np.uint8))
    for g in (BlockGeometry(1, 1), BlockGeometry(2, 2), BlockGeometry(4, 4)):
        assert mb_lbp_code(ii, 0, 0, g) == 255
    with pytest.raises(ValueError):
        mb_lbp_code(ii, 7, 0, BlockGeometry(2, 2))
    with pytest.raises(ValueError):
        mb_lbp_code(ii, 0, 11, BlockGeometry(1, 1))
    with pytest.raises(ValueError):
        BlockGeometry(0, 1)


def test_mb_lbp_code_map_matches_pointwise():
    rng = np.random.default_rng(31)
    frame = rng.integers(0, 256, (15, 19)).astype(np.uint8)
    ii = integral(frame)
    for g in (BlockGeometry(1, 1), BlockGeometry(2, 2), BlockGeometry(3, 3)):
        grid = mb_lbp_code_map(frame, g)
        assert grid.shape == (15 - g.footprint_h + 1, 19 - g.footprint_w + 1)
        for y in range(grid.shape[0]):
            for x in range(grid.shape[1]):
                assert grid[y, x] == mb_lbp_code(ii, x, y, g)
    # stacked images: one code map per image along the leading axis
    stack = np.stack([frame, frame[::-1], 255 - frame])
    for g in (BlockGeometry(1, 1), BlockGeometry(2, 2)):
        maps = mb_lbp_code_map(stack, g)
        for k in range(3):
            assert np.array_equal(maps[k], mb_lbp_code_map(stack[k], g))
    # the footprint must fit, and pixels are 8-bit
    with pytest.raises(ValueError, match="^footprint 21x6 exceeds 19x15 image$"):
        mb_lbp_code_map(frame, BlockGeometry(7, 2))
    with pytest.raises(ValueError, match="^code maps take uint8 pixels, got int64$"):
        mb_lbp_code_map(frame.astype(np.int64), BlockGeometry(1, 1))


def test_mb_lbp_code_map_bit_order():
    # one block above the centre and every other one below sets exactly the
    # neighbour's bit, MSB first, clockwise from top-left; all nine equal
    # gives 255, every neighbour lower gives 0
    positions = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    for cw, ch in ((1, 1), (2, 2)):
        g = BlockGeometry(cw, ch)
        patches, want = [], []
        for i, (dx, dy) in enumerate(positions):
            blocks = np.full((3, 3), 50, dtype=np.uint8)
            blocks[1, 1] = 100
            blocks[dy, dx] = 150
            patches.append(blocks)
            want.append(1 << (7 - i))
        patches.append(np.full((3, 3), 77, dtype=np.uint8))
        want.append(255)
        lower = np.full((3, 3), 99, dtype=np.uint8)
        lower[1, 1] = 100
        patches.append(lower)
        want.append(0)
        # each block value fills a cw x ch cell of the footprint-size patch
        stack = np.stack([np.kron(b, np.ones((ch, cw), dtype=np.uint8)) for b in patches])
        assert stack.shape == (10, g.footprint_h, g.footprint_w)
        for pixels, code in zip(stack, want):
            assert mb_lbp_code_map(pixels, g).tolist() == [[code]]
        assert mb_lbp_code_map(stack, g)[:, 0, 0].tolist() == want


def test_lbp_histogram_constant_region():
    frame = np.full((10, 10), 128, dtype=np.uint8)
    hist = lbp_histogram(frame, Rect(0, 0, 10, 10))
    assert hist.sum() == 8 * 8
    assert hist[UNIFORM_BINS[255]] == 64


def test_lbp_histogram_naive_recount():
    rng = np.random.default_rng(37)
    frame = rng.integers(0, 256, (24, 24)).astype(np.uint8)
    uniform_codes = _sorted_uniform_codes()
    for _ in range(40):
        w = int(rng.integers(3, 12))
        h = int(rng.integers(3, 12))
        x = int(rng.integers(0, 24 - w + 1))
        y = int(rng.integers(0, 24 - h + 1))
        region = Rect(x, y, w, h)
        hist = lbp_histogram(frame, region)
        assert hist.shape == (LBP_HISTOGRAM_BINS,)
        assert hist.sum() == (w - 2) * (h - 2)
        naive = np.zeros(LBP_HISTOGRAM_BINS, dtype=np.int64)
        crop = frame[y : y + h, x : x + w].copy()
        for cy in range(1, h - 1):
            for cx in range(1, w - 1):
                code = lbp_code(crop, cx, cy)
                if _uniform_oracle(code):
                    naive[uniform_codes.index(code)] += 1
                else:
                    naive[UNIFORM_OVERFLOW_BIN] += 1
        assert np.array_equal(hist, naive)


def test_lbp_histogram_region_errors():
    frame = np.zeros((10, 10), dtype=np.uint8)
    with pytest.raises(ValueError):
        lbp_histogram(frame, Rect(0, 0, 2, 5))
    with pytest.raises(ValueError):
        lbp_histogram(frame, Rect(8, 0, 5, 5))


def test_rank_table_two_codes():
    rt = build_rank_table([np.array([5] * 100 + [9] * 50)])
    assert rt.bins[5] == 0
    assert rt.bins[9] == 1
    for code in range(256):
        if code not in (5, 9):
            assert rt.bins[code] == RANK_OVERFLOW_BIN


def test_rank_table_tie_breaks_by_code_value():
    rt = build_rank_table([np.array([40] * 10 + [7] * 10 + [200] * 30)])
    assert rt.bins[200] == 0
    assert rt.bins[7] == 1
    assert rt.bins[40] == 2


def test_rank_table_matches_sort_oracle():
    from collections import Counter

    rng = np.random.default_rng(41)
    codes = rng.integers(0, 256, 10_000)
    rt = build_rank_table([codes[:4000], codes[4000:]])
    counts = Counter(codes.tolist())
    ranked = sorted(counts, key=lambda c: (-counts[c], c))[:63]
    for slot, code in enumerate(ranked):
        assert rt.bins[code] == slot
    for code in range(256):
        if code not in ranked:
            assert rt.bins[code] == RANK_OVERFLOW_BIN


def test_rank_table_empty_input():
    with pytest.raises(ValueError):
        build_rank_table([np.array([], dtype=np.int64)])


def test_rank_table_text_round_trip():
    rng = np.random.default_rng(43)
    rt = build_rank_table([rng.integers(0, 256, 5000)])
    text = rt.to_text()
    lines = text.splitlines()
    assert len(lines) == 256
    assert all(len(line.split()) == 2 for line in lines)
    assert RankTable.from_text(text) == rt
    with pytest.raises(ValueError):
        RankTable.from_text("0 0\n1 1\n")
    with pytest.raises(ValueError):
        RankTable(np.full(256, 64))


def _rank_map(pixels, g, rt):
    return rt.bins[mb_lbp_code_map(pixels, g)]


def test_mb_lbp_histogram_constant_region():
    pixels = np.full((20, 20), 99, dtype=np.uint8)
    rt = build_rank_table([np.array([255] * 10 + [0] * 5)])
    g = BlockGeometry(2, 2)
    hist = mb_lbp_histogram(_rank_map(pixels, g, rt), Rect(0, 0, 20, 20), g)
    assert hist.shape == (RANK_HISTOGRAM_BINS,)
    assert hist.sum() == (20 - 6 + 1) * (20 - 6 + 1)
    assert hist[rt.bins[255]] == hist.sum()


def test_mb_lbp_histogram_naive_recount():
    rng = np.random.default_rng(47)
    frame = rng.integers(0, 256, (26, 26)).astype(np.uint8)
    ii = integral(frame)
    rt = build_rank_table([rng.integers(0, 256, 3000)])
    for g in (BlockGeometry(1, 1), BlockGeometry(2, 2), BlockGeometry(3, 3)):
        rank_map = _rank_map(frame, g, rt)
        for _ in range(15):
            w = int(rng.integers(g.footprint_w, 16))
            h = int(rng.integers(g.footprint_h, 16))
            x = int(rng.integers(0, 26 - w + 1))
            y = int(rng.integers(0, 26 - h + 1))
            hist = mb_lbp_histogram(rank_map, Rect(x, y, w, h), g)
            sites_x = w - g.footprint_w + 1
            sites_y = h - g.footprint_h + 1
            assert hist.sum() == sites_x * sites_y
            naive = np.zeros(RANK_HISTOGRAM_BINS, dtype=np.int64)
            for sy in range(sites_y):
                for sx in range(sites_x):
                    code = mb_lbp_code(ii, x + sx, y + sy, g)
                    naive[rt.bins[code]] += 1
            assert np.array_equal(hist, naive)


def test_mb_lbp_histogram_region_errors():
    pixels = np.zeros((10, 10), dtype=np.uint8)
    rt = build_rank_table([np.array([0])])
    g = BlockGeometry(2, 2)
    rank_map = _rank_map(pixels, g, rt)
    with pytest.raises(ValueError):
        mb_lbp_histogram(rank_map, Rect(0, 0, 5, 5), g)
    g = BlockGeometry(1, 1)
    rank_map = _rank_map(pixels, g, rt)
    with pytest.raises(ValueError):
        mb_lbp_histogram(rank_map, Rect(6, 6, 5, 5), g)


def test_mb_lbp_histogram_stack_matches_per_image():
    # an (n, h, w) stack gives one histogram per image, each the per-image
    # call's, and every histogram sums to the region's footprint count
    rng = np.random.default_rng(53)
    stack = rng.integers(0, 256, (5, 21, 17)).astype(np.uint8)
    rt = build_rank_table([rng.integers(0, 256, 3000)])
    for g in (BlockGeometry(1, 1), BlockGeometry(2, 2), BlockGeometry(3, 2)):
        rank_maps = _rank_map(stack, g, rt)
        for _ in range(10):
            w = int(rng.integers(g.footprint_w, 18))
            h = int(rng.integers(g.footprint_h, 22))
            x = int(rng.integers(0, 17 - w + 1))
            y = int(rng.integers(0, 21 - h + 1))
            region = Rect(x, y, w, h)
            hists = mb_lbp_histogram(rank_maps, region, g)
            assert hists.shape == (5, RANK_HISTOGRAM_BINS)
            sites = (w - g.footprint_w + 1) * (h - g.footprint_h + 1)
            assert (hists.sum(axis=1) == sites).all()
            for k in range(5):
                assert np.array_equal(hists[k], mb_lbp_histogram(rank_maps[k], region, g))
        # more leading axes are kept as they are
        grid = mb_lbp_histogram(rank_maps[:4].reshape((2, 2) + rank_maps.shape[1:]), region, g)
        assert np.array_equal(grid.reshape(4, RANK_HISTOGRAM_BINS), hists[:4])


def test_mb_lbp_histogram_refuses_region_outside_or_smaller_than_footprint():
    rt = build_rank_table([np.array([0])])
    g = BlockGeometry(2, 3)
    rank_maps = _rank_map(np.zeros((3, 12, 10), dtype=np.uint8), g, rt)
    assert rank_maps.shape == (3, 12 - 9 + 1, 10 - 6 + 1)
    # the region may touch the image's right and bottom edges, not pass them
    assert (mb_lbp_histogram(rank_maps, Rect(4, 3, 6, 9), g)[:, rt.bins[255]] == 1).all()
    for region in (Rect(5, 3, 6, 9), Rect(4, 4, 6, 9)):
        with pytest.raises(ValueError, match=f"^region {re.escape(str(region))} exceeds 10x12"):
            mb_lbp_histogram(rank_maps, region, g)
    for region in (Rect(0, 0, 5, 9), Rect(0, 0, 6, 8)):
        with pytest.raises(
            ValueError, match=f"^region {region.w}x{region.h} too small for footprint 6x9$"
        ):
            mb_lbp_histogram(rank_maps, region, g)
