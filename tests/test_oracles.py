"""The scalar integral-image oracles, and the code map's exactness against them."""

import numpy as np
import pytest

from roadcount.features import BlockGeometry, mb_lbp_code_map
from roadcount.imaging import Rect

from oracles import IntegralImage, integral, mb_lbp_code


def test_integral_matches_brute_force():
    rng = np.random.default_rng(11)
    frame = rng.integers(0, 256, (17, 23)).astype(np.uint8)
    ii = integral(frame)
    assert ii.width == 23 and ii.height == 17
    assert ii.table[0].sum() == 0 and ii.table[:, 0].sum() == 0
    px = frame.astype(np.int64)
    for _ in range(300):
        x, y = int(rng.integers(0, 23)), int(rng.integers(0, 17))
        w = int(rng.integers(1, 23 - x + 1))
        h = int(rng.integers(1, 17 - y + 1))
        r = Rect(x, y, w, h)
        assert ii.rect_sum(r) == px[y : y + h, x : x + w].sum()


def test_integral_rect_sum_bounds():
    ii = integral(np.zeros((5, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        ii.rect_sum(Rect(3, 0, 3, 2))
    with pytest.raises(ValueError):
        ii.rect_sum(Rect(0, 3, 2, 3))


def test_block_sums_matches_rect_sum():
    rng = np.random.default_rng(13)
    frame = rng.integers(0, 256, (9, 12)).astype(np.uint8)
    ii = integral(frame)
    for bw, bh in [(1, 1), (2, 3), (4, 2), (12, 9)]:
        sums = ii.block_sums(bw, bh)
        assert sums.shape == (9 - bh + 1, 12 - bw + 1)
        assert sums.dtype == np.int64
        narrow = ii.block_sums(bw, bh, np.int32)
        assert narrow.dtype == np.int32 and np.array_equal(narrow, sums)
        # in int8 the sums come out modulo 2**8
        assert np.array_equal(ii.block_sums(bw, bh, np.int8).view(np.uint8), sums % 256)
        for y in range(sums.shape[0]):
            for x in range(sums.shape[1]):
                assert sums[y, x] == ii.rect_sum(Rect(x, y, bw, bh))
    with pytest.raises(ValueError):
        ii.block_sums(13, 1)
    with pytest.raises(ValueError):
        ii.block_sums(0, 1)
    # a stack of images keeps its leading axis through integral and block_sums
    stack = rng.integers(0, 256, (3, 9, 12)).astype(np.uint8)
    stacked = integral(stack)
    assert stacked.width == 12 and stacked.height == 9
    for k in range(3):
        single = integral(stack[k])
        assert np.array_equal(stacked.table[k], single.table)
        assert np.array_equal(stacked.block_sums(2, 3)[k], single.block_sums(2, 3))


def test_mb_lbp_code_map_exact_on_offset_table():
    # adding f(row) + g(col) to an integral table leaves every block sum
    # unchanged, with entries past 2**40; the scalar codes on that table must
    # equal the code map the pixels give, single frame or stack
    rng = np.random.default_rng(37)
    # bright 12x12 and 13x11 block sums straddle 2**15 and 17x16 ones 2**16,
    # so sums in a signed or narrower dtype would wrap some blocks only
    for lo, size, geometries, bound in (
        (0, (40, 45), [(1, 1), (2, 1), (3, 3)], 0),
        (200, (40, 45), [(12, 12), (13, 11)], 2**15),
        (227, (50, 54), [(17, 16)], 2**16),
    ):
        frame = rng.integers(lo, 256, size).astype(np.uint8)
        ii = integral(frame)
        rows = np.arange(size[0] + 1)[:, None] * 3**25
        cols = np.arange(size[1] + 1)[None, :] * 7**15
        offset = IntegralImage(ii.table + 2**40 + rows + cols)
        assert offset.table.min() >= 2**40
        stack = np.stack([frame, frame[::-1], frame[:, ::-1]])
        for g in (BlockGeometry(w, h) for w, h in geometries):
            sums = ii.block_sums(g.cell_w, g.cell_h)
            assert bound == 0 or sums.min() < bound < sums.max()
            want = mb_lbp_code_map(frame, g)
            for y in range(want.shape[0]):
                for x in range(want.shape[1]):
                    assert want[y, x] == mb_lbp_code(offset, x, y, g)
            maps = mb_lbp_code_map(stack, g)
            assert np.array_equal(maps[0], want)
            for k in (1, 2):
                stacked_ii = integral(stack[k])
                for y in range(want.shape[0]):
                    for x in range(want.shape[1]):
                        assert maps[k, y, x] == mb_lbp_code(stacked_ii, x, y, g)
