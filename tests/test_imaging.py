"""Rect, downscaling and PGM round-trip checks."""

import numpy as np
import pytest

from roadcount.imaging import (
    PgmError,
    Rect,
    downscale,
    frame_filename,
    load_pgm,
    round_half_up,
    save_pgm,
    sequence_paths,
)


def test_round_half_up_half_away_from_zero():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.5) == -1
    assert round_half_up(-2.5) == -3
    assert round_half_up(2.4) == 2
    assert round_half_up(-2.4) == -2
    assert round_half_up(3.0) == 3
    assert round_half_up(-3.0) == -3
    assert round_half_up(0.0) == 0


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 5)
    with pytest.raises(ValueError):
        Rect(0, 0, 5, 0)
    with pytest.raises(ValueError):
        Rect(-1, 0, 5, 5)
    with pytest.raises(ValueError):
        Rect(0, -1, 5, 5)


def test_rect_accessors():
    r = Rect(2, 3, 4, 5)
    assert r.right == 6
    assert r.bottom == 8
    assert r.area == 20
    assert r.center() == (4.0, 5.5)


def test_rect_intersection_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = Rect(*rng.integers(0, 12, 2), *rng.integers(1, 10, 2))
        b = Rect(*rng.integers(0, 12, 2), *rng.integers(1, 10, 2))
        cells = sum(
            1
            for y in range(a.y, a.bottom)
            for x in range(a.x, a.right)
            if b.x <= x < b.right and b.y <= y < b.bottom
        )
        assert a.intersection_area(b) == cells
        assert b.intersection_area(a) == cells
        assert a.overlaps(b) == (cells > 0)


def test_rect_overlap_edge_touching_is_not_overlap():
    assert not Rect(0, 0, 4, 4).overlaps(Rect(4, 0, 4, 4))
    assert not Rect(0, 0, 4, 4).overlaps(Rect(0, 4, 4, 4))


def test_save_pgm_refuses_non_frame_pixels(tmp_path):
    path = tmp_path / "x.pgm"
    for pixels in (
        np.zeros((3, 3, 3), dtype=np.uint8),  # 3-D
        np.array([[1, 2], [3, 4]]),  # int64, even with every value in [0, 255]
        np.array([[1.0, 2.0]]),
        np.zeros((0, 4), dtype=np.uint8),  # empty
        np.zeros((4, 0), dtype=np.uint8),
    ):
        with pytest.raises(ValueError, match="^PGM pixels must be non-empty 2-D uint8, got "):
            save_pgm(pixels, path)
        assert not path.exists()


def test_downscale_block_mean():
    out = downscale(np.array([[1, 2], [3, 4]], dtype=np.uint8), 2)
    assert out.dtype == np.uint8
    assert np.array_equal(out, [[3]])  # mean 2.5 rounds up

    rng = np.random.default_rng(17)
    src = rng.integers(0, 256, (12, 18)).astype(np.uint8)
    for factor in (2, 3, 6):
        out = downscale(src, factor)
        assert out.dtype == np.uint8 and out.shape == (12 // factor, 18 // factor)
        px = src.astype(np.int64)
        for y in range(out.shape[0]):
            for x in range(out.shape[1]):
                block = px[y * factor : (y + 1) * factor, x * factor : (x + 1) * factor]
                assert out[y, x] == round_half_up(block.mean())


def test_downscale_validation():
    frame = np.zeros((6, 6), dtype=np.uint8)
    same = downscale(frame, 1)
    assert same.dtype == np.uint8 and np.array_equal(same, frame)
    assert not np.shares_memory(same, frame)
    with pytest.raises(ValueError):
        downscale(frame, 0)
    with pytest.raises(ValueError):
        downscale(frame, 4)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    frame = rng.integers(0, 256, (7, 11)).astype(np.uint8)
    path = tmp_path / "a.pgm"
    save_pgm(frame, path)
    loaded = load_pgm(path)
    assert loaded.dtype == np.uint8 and np.array_equal(loaded, frame)
    save_pgm(frame, path)
    assert np.array_equal(load_pgm(path), frame)  # overwrite is stable


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 # inline\n2\n255\n" + payload)
    frame = load_pgm(path)
    assert frame.shape == (2, 3)
    assert frame.ravel().tolist() == list(payload)


def test_pgm_errors(tmp_path):
    path = tmp_path / "bad.pgm"
    cases = [
        (b"P6\n2 2\n255\n" + bytes(12), "wrong magic"),
        (b"P5\n2 2\n65535\n" + bytes(8), "unsupported maxval 65535"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated PGM payload"),
        (b"P5\n2 x\n255\n" + bytes(4), "non-numeric PGM header token b'x'"),
        (b"P5\n2", "truncated PGM header"),
        (b"P5\n0 2\n255\n", "bad PGM dimensions 0x2"),
        # a comment right after maxval would leave its bytes to be read as pixels
        (b"P5\n4 2\n255#ab\n" + bytes(range(8)), "comment right after maxval"),
    ]
    for data, what in cases:
        path.write_bytes(data)
        with pytest.raises(PgmError, match=what) as err:
            load_pgm(path)
        # each message names the file, on one line
        assert str(path) in str(err.value) and "\n" not in str(err.value)


def test_sequence_paths(tmp_path):
    frame = np.zeros((2, 2), dtype=np.uint8)
    for idx in (2, 0, 10):
        save_pgm(frame, tmp_path / frame_filename(idx))
    (tmp_path / "junk.txt").write_text("x")
    (tmp_path / "frame_01.pgm").write_bytes(b"")
    paths = sequence_paths(tmp_path)
    names = [p.rsplit("/", 1)[-1] for p in paths]
    assert names == ["frame_000000.pgm", "frame_000002.pgm", "frame_000010.pgm"]
    assert frame_filename(7) == "frame_000007.pgm"
