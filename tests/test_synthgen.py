"""Synthetic scene generation: determinism, ground truth and training crops."""

import numpy as np
import pytest

from roadcount.imaging import Rect, load_pgm
from roadcount.synthgen import (
    BACKGROUND_RANGE,
    ScenarioConfig,
    VehicleSpawn,
    config_from_text,
    config_to_text,
    default_markers,
    generate_scene,
    generate_training_set,
    load_gt_events,
    load_scene_config,
    parse_flat_config,
    save_scene,
    spawn_schedule,
    spawn_rect,
    vehicle_rect,
    vehicle_texture,
)


def _scenario(**overrides) -> ScenarioConfig:
    base = dict(
        width=64,
        height=48,
        frames=80,
        markers=default_markers(64, 48),
        spawns=spawn_schedule(6, 8, 2, 4.0, 12, 12),
        seed=5,
        background_seed=3,
        noise_sigma=0.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_spawn_validation():
    with pytest.raises(ValueError):
        VehicleSpawn(-1, 0, 4.0, 10, 10)
    with pytest.raises(ValueError):
        VehicleSpawn(0, 0, 0.0, 10, 10)
    with pytest.raises(ValueError):
        VehicleSpawn(0, 0, 4.0, 0, 10)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(markers=())
    with pytest.raises(ValueError):
        _scenario(illumination=((200, 50),))  # beyond the last frame
    with pytest.raises(ValueError):
        _scenario(illumination=((10, 400),))
    with pytest.raises(ValueError):
        _scenario(spawns=(VehicleSpawn(0, 5, 4.0, 12, 12),))
    with pytest.raises(ValueError):
        _scenario(spawns=(VehicleSpawn(0, 0, 4.0, 80, 12),))  # wider than the frame
    with pytest.raises(ValueError):
        _scenario(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        _scenario(jitter_amplitude=-1)


def test_default_markers_layout():
    markers = default_markers(240, 135)
    assert markers == (Rect(4, 113, 112, 22), Rect(124, 113, 112, 22))
    assert all(m.bottom == 135 for m in markers)
    assert not markers[0].overlaps(markers[1])


def test_spawn_schedule_round_robin():
    spawns = spawn_schedule(5, 10, 2, 4.0, 12, 12, start=7)
    assert [s.frame for s in spawns] == [7, 17, 27, 37, 47]
    assert [s.lane for s in spawns] == [0, 1, 0, 1, 0]
    assert all(s.speed == 4.0 and (s.w, s.h) == (12, 12) for s in spawns)


def test_vehicle_rect_motion():
    config = _scenario()
    assert vehicle_rect(config, 1, 7) is None  # spawns at frame 8
    first = vehicle_rect(config, 0, 0)
    assert first.y == 0 and first.w == 12 and first.h == 12
    lane_cx = config.markers[0].center()[0]
    assert first.x == round(lane_cx - 6)
    assert vehicle_rect(config, 0, 3).y == 12  # speed 4, three frames in
    assert vehicle_rect(config, 0, 12) is None  # y = 48 is fully below the frame
    clipped = spawn_rect(config, 0, 10)  # y = 40, 8 px still visible
    assert clipped == Rect(first.x, 40, 12, 8)
    assert spawn_rect(config, 0, 12) is None


def test_generate_scene_deterministic():
    config = _scenario()
    frames_a, gt_a = generate_scene(config)
    frames_b, gt_b = generate_scene(config)
    assert gt_a == gt_b
    assert len(frames_a) == config.frames
    for fa, fb in zip(frames_a, frames_b):
        assert np.array_equal(fa.pixels, fb.pixels)
    frames_c, _ = generate_scene(_scenario(seed=6))
    assert any(
        not np.array_equal(fa.pixels, fc.pixels) for fa, fc in zip(frames_a, frames_c)
    )


def test_ground_truth_boxes_and_events():
    config = _scenario()
    frames, gt = generate_scene(config)
    per_vehicle: dict[int, list[tuple[int, Rect]]] = {}
    for frame_idx, vid, rect in gt.boxes:
        assert 0 <= rect.x and rect.right <= config.width
        assert 0 <= rect.y and rect.bottom <= config.height
        per_vehicle.setdefault(vid, []).append((frame_idx, rect))
    for vid, entries in per_vehicle.items():
        ys = [rect.y for _, rect in sorted(entries)]
        assert ys == sorted(ys)  # vehicles only move down
    # every vehicle crosses its marker exactly once, on the first overlap frame
    assert len(gt.events) == len(config.spawns)
    seen = set()
    for frame_idx, vid, marker in gt.events:
        assert vid not in seen
        seen.add(vid)
        assert marker == config.spawns[vid].lane
        box = spawn_rect(config, vid, frame_idx)
        assert box.overlaps(config.markers[marker])
        before = spawn_rect(config, vid, frame_idx - 1)
        assert before is None or not before.overlaps(config.markers[marker])


def test_rendered_vehicle_matches_texture():
    config = _scenario()
    frames, gt = generate_scene(config)
    frame_idx, vid, rect = next(
        (f, v, r) for f, v, r in gt.boxes if r.w == 12 and r.h == 12
    )
    want = np.floor(vehicle_texture(config, vid) + 0.5).astype(np.uint8)
    got = frames[frame_idx].pixels[rect.y : rect.bottom, rect.x : rect.right]
    assert np.array_equal(got, want)


def test_illumination_step_adds_exactly():
    base = _scenario()
    stepped = _scenario(illumination=((40, 50),))
    frames_a, gt_a = generate_scene(base)
    frames_b, gt_b = generate_scene(stepped)
    assert gt_a == gt_b  # ground truth ignores illumination
    for idx in range(base.frames):
        if idx < 40:
            assert np.array_equal(frames_b[idx].pixels, frames_a[idx].pixels)
        else:
            diff = frames_b[idx].pixels.astype(int) - frames_a[idx].pixels.astype(int)
            assert np.all(diff == 50)  # the step persists and never clips


def test_illumination_events_accumulate():
    double = _scenario(illumination=((20, 30), (40, -10)))
    frames_a, _ = generate_scene(_scenario())
    frames_b, _ = generate_scene(double)
    assert np.all(frames_b[25].pixels.astype(int) - frames_a[25].pixels.astype(int) == 30)
    assert np.all(frames_b[45].pixels.astype(int) - frames_a[45].pixels.astype(int) == 20)


def test_jitter_shifts_frames_not_ground_truth():
    calm = _scenario()
    shaky = _scenario(jitter_amplitude=3)
    frames_a, gt_a = generate_scene(calm)
    frames_b, gt_b = generate_scene(shaky)
    assert gt_a == gt_b
    assert all(f.width == 64 and f.height == 48 for f in frames_b)
    assert any(
        not np.array_equal(fa.pixels, fb.pixels) for fa, fb in zip(frames_a, frames_b)
    )


def test_empty_scene_is_static_background():
    config = _scenario(spawns=(), frames=10)
    frames, gt = generate_scene(config)
    assert gt.boxes == () and gt.events == ()
    for frame in frames[1:]:
        assert np.array_equal(frame.pixels, frames[0].pixels)
    with pytest.raises(ValueError, match="no fully visible vehicle"):
        generate_training_set(config, (frames, gt), 1, 1, 12, 12)


def test_training_set_shapes_and_determinism():
    config = _scenario()
    scene = generate_scene(config)
    pos_a, neg_a = generate_training_set(config, scene, 20, 30, 12, 14)
    pos_b, neg_b = generate_training_set(config, generate_scene(config), 20, 30, 12, 14)
    assert pos_a.dtype == neg_a.dtype == np.uint8
    assert pos_a.shape == (20, 14, 12) and neg_a.shape == (30, 14, 12)
    assert np.array_equal(pos_a, pos_b) and np.array_equal(neg_a, neg_b)


def test_training_positives_zero_perturbation_recover_textures():
    config = _scenario()
    textures = [
        np.floor(vehicle_texture(config, vid) + 0.5).astype(np.uint8)
        for vid in range(len(config.spawns))
    ]
    positives, _ = generate_training_set(
        config, generate_scene(config), 50, 1, 12, 12, perturbation=0.0
    )
    for crop in positives:
        assert any(np.array_equal(crop, t) for t in textures)


def test_training_negatives_never_contain_vehicle_pixels():
    # vehicle texture lies outside the background intensity band, so a clean
    # background-only crop is exactly characterized by its intensity range
    config = _scenario()
    lo, hi = BACKGROUND_RANGE
    _, negatives = generate_training_set(config, generate_scene(config), 1, 200, 12, 12)
    for crop in negatives:
        assert crop.min() >= lo
        assert crop.max() <= hi


def test_training_set_validation():
    config = _scenario()
    scene = generate_scene(config)
    with pytest.raises(ValueError):
        generate_training_set(config, scene, 0, 1, 12, 12)
    with pytest.raises(ValueError):
        generate_training_set(config, scene, 1, 0, 12, 12)
    with pytest.raises(ValueError):
        generate_training_set(config, scene, 1, 1, 12, 12, perturbation=0.5)
    with pytest.raises(ValueError):
        generate_training_set(config, scene, 1, 1, 12, 12, perturbation=-0.1)


def test_config_text_round_trip():
    config = _scenario(illumination=((40, 50),), jitter_amplitude=2, noise_sigma=1.5)
    assert config_from_text(config_to_text(config)) == config
    plain = _scenario()
    assert config_from_text(config_to_text(plain)) == plain


def test_parse_flat_config_rules():
    values = parse_flat_config("a = 1\n# comment\n\nb = two words # trailing\n")
    assert values == {"a": "1", "b": "two words"}
    with pytest.raises(ValueError):
        parse_flat_config("a = 1\na = 2\n")
    with pytest.raises(ValueError):
        parse_flat_config("not a pair\n")
    with pytest.raises(ValueError):
        config_from_text(config_to_text(_scenario()) + "mystery = 1\n")
    with pytest.raises(ValueError):
        config_from_text("width = 10\n")


def test_save_scene_round_trip(tmp_path):
    config = _scenario(frames=12)
    gt = save_scene(tmp_path / "scene", config)
    assert load_scene_config(tmp_path / "scene") == config
    assert load_gt_events(tmp_path / "scene") == list(gt.events)
    boxes_text = (tmp_path / "scene" / "gt_boxes.txt").read_text(encoding="ascii")
    boxes = [tuple(int(p) for p in line.split()) for line in boxes_text.splitlines()]
    assert boxes == [(f, vid, r.x, r.y, r.w, r.h) for f, vid, r in gt.boxes]
    frames, _ = generate_scene(config)
    on_disk = load_pgm(tmp_path / "scene" / "frames" / "frame_000000.pgm")
    assert on_disk == frames[0]


def test_save_scene_byte_determinism(tmp_path):
    config = _scenario(frames=15, jitter_amplitude=1, illumination=((5, 25),))
    save_scene(tmp_path / "a", config)
    save_scene(tmp_path / "b", config)
    for name in ("scenario.cfg", "gt_boxes.txt", "gt_events.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for idx in range(15):
        name = f"frames/frame_{idx:06d}.pgm"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
