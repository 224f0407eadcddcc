"""Synthetic scene generation: determinism, ground truth and training crops."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from roadcount import synthgen
from roadcount.imaging import Rect, load_pgm
from roadcount.synthgen import (
    BACKGROUND_RANGE,
    ScenarioConfig,
    VehicleSpawn,
    config_from_text,
    config_to_text,
    default_markers,
    generate_scene,
    ground_truth,
    load_gt_events,
    load_scene_config,
    parse_flat_config,
    parse_rects,
    render_frames,
    sample_crops,
    save_scene,
    spawn_schedule,
    spawn_rect,
    vehicle_rect,
    vehicle_texture,
)

import oracles
from oracles import reference_training_set


def _training_set(config, scene, n_pos, n_neg, window_w, window_h, perturbation=0.1):
    """sample_crops' positives, and all of its negatives as one stack."""
    positives, blocks = sample_crops(config, scene, n_pos, n_neg, window_w, window_h, perturbation)
    return positives, np.concatenate(list(blocks))


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
    assert frames_a.shape == (config.frames, config.height, config.width)
    assert frames_a.dtype == np.uint8
    assert np.array_equal(frames_a, frames_b)
    frames_c, _ = generate_scene(_scenario(seed=6))
    assert not np.array_equal(frames_a, frames_c)


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


def test_ground_truth_matches_per_frame_scan():
    # spawns listed out of frame order, one vehicle overtaking another
    spawns = (
        VehicleSpawn(30, 1, 4.0, 12, 12), VehicleSpawn(0, 0, 2.5, 12, 12),
        VehicleSpawn(10, 0, 6.0, 12, 10), VehicleSpawn(79, 1, 4.0, 12, 12),
    )
    config = _scenario(spawns=spawns)
    boxes = [
        (frame_idx, vid, spawn_rect(config, vid, frame_idx))
        for frame_idx in range(config.frames)
        for vid in range(len(spawns))
        if spawn_rect(config, vid, frame_idx) is not None
    ]
    events = []
    for frame_idx, vid, rect in boxes:
        lane = spawns[vid].lane
        if rect.overlaps(config.markers[lane]) and vid not in {e[1] for e in events}:
            events.append((frame_idx, vid, lane))
    gt = ground_truth(config)
    assert gt.boxes == tuple(boxes) and gt.events == tuple(events)
    assert len(gt.events) == 3  # the frame-79 spawn never reaches its marker


def test_rendered_vehicle_matches_texture():
    config = _scenario()
    frames, gt = generate_scene(config)
    frame_idx, vid, rect = next(
        (f, v, r) for f, v, r in gt.boxes if r.w == 12 and r.h == 12
    )
    want = np.floor(vehicle_texture(config, vid) + 0.5).astype(np.uint8)
    got = frames[frame_idx, rect.y : rect.bottom, rect.x : rect.right]
    assert np.array_equal(got, want)


def test_illumination_step_adds_exactly():
    base = _scenario()
    stepped = _scenario(illumination=((40, 50),))
    frames_a, gt_a = generate_scene(base)
    frames_b, gt_b = generate_scene(stepped)
    assert gt_a == gt_b  # ground truth ignores illumination
    assert np.array_equal(frames_b[:40], frames_a[:40])
    diff = frames_b[40:].astype(int) - frames_a[40:].astype(int)
    assert np.all(diff == 50)  # the step persists and never clips


def test_illumination_events_accumulate():
    double = _scenario(illumination=((20, 30), (40, -10)))
    frames_a, _ = generate_scene(_scenario())
    frames_b, _ = generate_scene(double)
    assert np.all(frames_b[25].astype(int) - frames_a[25].astype(int) == 30)
    assert np.all(frames_b[45].astype(int) - frames_a[45].astype(int) == 20)


def test_jitter_shifts_frames_not_ground_truth():
    calm = _scenario()
    shaky = _scenario(jitter_amplitude=3)
    frames_a, gt_a = generate_scene(calm)
    frames_b, gt_b = generate_scene(shaky)
    assert gt_a == gt_b
    assert frames_b.shape == frames_a.shape == (80, 48, 64)
    assert not np.array_equal(frames_a, frames_b)


@pytest.mark.parametrize("dy, dx", [(0, 0), (3, -2), (-5, 7), (9, 14), (-20, -30)])
def test_jitter_shift_replicates_edges(dy, dx):
    canvas = np.arange(9 * 14, dtype=np.float64).reshape(9, 14)
    want = [[canvas[min(max(y - dy, 0), 8), min(max(x - dx, 0), 13)] for x in range(14)]
            for y in range(9)]
    assert np.array_equal(synthgen._shift_edge(canvas, dy, dx), want)


def test_empty_scene_is_static_background():
    config = _scenario(spawns=(), frames=10)
    frames, gt = generate_scene(config)
    assert gt.boxes == () and gt.events == ()
    assert np.all(frames == frames[0])
    with pytest.raises(ValueError, match="no fully visible vehicle"):
        _training_set(config, (frames, gt), 1, 1, 12, 12)


def test_training_set_shapes_and_determinism():
    config = _scenario()
    scene = generate_scene(config)
    pos_a, neg_a = _training_set(config, scene, 20, 30, 12, 14)
    pos_b, neg_b = _training_set(config, generate_scene(config), 20, 30, 12, 14)
    assert pos_a.dtype == neg_a.dtype == np.uint8
    assert pos_a.shape == (20, 14, 12) and neg_a.shape == (30, 14, 12)
    assert np.array_equal(pos_a, pos_b) and np.array_equal(neg_a, neg_b)


def test_negative_blocks_do_not_depend_on_positive_count():
    config = _scenario()
    scene = generate_scene(config)
    one, seven = (list(sample_crops(config, scene, k, 2000, 12, 14)[1]) for k in (1, 7))
    assert len(one) == len(seven) > 1
    for a, b in zip(one, seven):
        assert np.array_equal(a, b)


def test_training_positives_zero_perturbation_recover_textures():
    config = _scenario()
    textures = [
        np.floor(vehicle_texture(config, vid) + 0.5).astype(np.uint8)
        for vid in range(len(config.spawns))
    ]
    positives, _ = _training_set(
        config, generate_scene(config), 50, 1, 12, 12, perturbation=0.0
    )
    for crop in positives:
        assert any(np.array_equal(crop, t) for t in textures)


def test_training_negatives_never_contain_vehicle_pixels():
    # vehicle texture lies outside the background intensity band, so a clean
    # background-only crop is exactly characterized by its intensity range
    config = _scenario()
    lo, hi = BACKGROUND_RANGE
    _, negatives = _training_set(config, generate_scene(config), 1, 200, 12, 12)
    for crop in negatives:
        assert crop.min() >= lo
        assert crop.max() <= hi


def test_training_set_validation():
    config = _scenario()
    scene = generate_scene(config)
    with pytest.raises(ValueError):
        _training_set(config, scene, 0, 1, 12, 12)
    with pytest.raises(ValueError):
        _training_set(config, scene, 1, 0, 12, 12)
    with pytest.raises(ValueError):
        _training_set(config, scene, 1, 1, 12, 12, perturbation=0.5)
    with pytest.raises(ValueError):
        _training_set(config, scene, 1, 1, 12, 12, perturbation=-0.1)


def _dense_scenario() -> ScenarioConfig:
    """About 1 % of 12x12 windows miss every box: most attempts are rejected."""
    return _scenario(spawns=spawn_schedule(40, 2, 2, 3.0, 26, 40))


def _blocked_scenario(frames: int, speed: float) -> ScenarioConfig:
    """One 60x44 vehicle on a 64x48 one-lane scene from frame 0.

    At speed 0.1 it stays at the top, and every 12x12 window overlaps it on
    every frame. At speed 1.0 over 13 frames only the top row of frame 12
    is free, 53 of the 25 493 candidate windows.
    """
    return _scenario(
        frames=frames, markers=default_markers(64, 48, lanes=1),
        spawns=(VehicleSpawn(0, 0, speed, 60, 44),),
    )


@pytest.mark.parametrize(
    "bounds", [(260, 211, 106), (7, 2**31 + 1, 3), (1, 5, 2**40 + 7)],
    ids=["ten-scene", "two-pow-31-plus-1", "unit-and-wide"],
)
def test_block_draws_match_scalar_draws(bounds):
    # the negative sampler's contract with numpy: one integers() call over
    # tiled bounds draws what one scalar call per bound draws, in order
    block = synthgen._rng(3, 4)
    scalar = synthgen._rng(3, 4)
    drawn = block.integers(np.tile(bounds, 5000)).reshape(5000, 3)
    expected = [[int(scalar.integers(bound)) for bound in bounds] for _ in range(5000)]
    assert np.array_equal(drawn, expected)
    assert block.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize(
    "scene, n_neg, window",
    [("ten", 1500, (30, 30)), ("shaky", 400, (12, 14)), ("dense", 150, (12, 12))],
)
def test_training_set_matches_reference_sampler(ten_vehicle_scenario, scene, n_neg, window):
    config = {
        "ten": ten_vehicle_scenario,
        "shaky": _scenario(jitter_amplitude=3, noise_sigma=2.0, illumination=((30, 40),)),
        "dense": _dense_scenario(),
    }[scene]
    rendered = generate_scene(config)
    positives, negatives = _training_set(config, rendered, 60, n_neg, *window)
    want_pos, want_neg = reference_training_set(config, rendered, 60, n_neg, *window)
    assert np.array_equal(positives, want_pos)
    assert np.array_equal(negatives, want_neg)


def _recorded_rngs(monkeypatch, module=synthgen) -> list:
    """Every generator module._rng makes from now on, in order."""
    made = []
    rng = module._rng
    monkeypatch.setattr(module, "_rng", lambda *key: made.append(rng(*key)) or made[-1])
    return made


def test_negative_exhaustion_is_exact(monkeypatch):
    # fewer than n_neg free among the first 1000 * n_neg candidates raises,
    # and the sampler has then drawn exactly as far as the scalar loop
    outcomes = []
    for seed in range(12):
        config = replace(_blocked_scenario(13, 1.0), seed=seed)
        scene = generate_scene(config)
        made = _recorded_rngs(monkeypatch)
        made_oracle = _recorded_rngs(monkeypatch, oracles)
        # the first generator of each is the negatives' stream, forked after positive 0
        try:
            want = reference_training_set(config, scene, 3, 1, 12, 12)[1]
        except ValueError:
            with pytest.raises(ValueError, match="^could not sample vehicle-free negative crops$"):
                _training_set(config, scene, 3, 1, 12, 12)
            assert made[0].bit_generator.state == made_oracle[0].bit_generator.state
            outcomes.append("raised")
        else:
            assert np.array_equal(_training_set(config, scene, 3, 1, 12, 12)[1], want)
            outcomes.append("sampled")
        monkeypatch.undo()
    assert set(outcomes) == {"raised", "sampled"}


def test_fully_covered_scene_raises():
    config = _blocked_scenario(6, 0.1)
    scene = generate_scene(config)
    with pytest.raises(ValueError, match="^could not sample vehicle-free negative crops$"):
        _training_set(config, scene, 5, 3, 12, 12)
    with pytest.raises(ValueError, match="^could not sample vehicle-free negative crops$"):
        reference_training_set(config, scene, 5, 3, 12, 12)


@pytest.mark.parametrize("window", [(70, 20), (0, 5), (5, 0), (64, 49), (-3, 12)])
def test_training_set_refuses_window_outside_scene(monkeypatch, window):
    config = _scenario()
    scene = generate_scene(config)
    made = _recorded_rngs(monkeypatch)
    message = f"^window {window[0]}x{window[1]} does not fit the 64x48 scene$"
    with pytest.raises(ValueError, match=message):
        _training_set(config, scene, 5, 5, *window)
    assert made == []  # refused before any draw
    positives, negatives = _training_set(config, scene, 2, 1, 64, 48)
    assert positives.shape == (2, 48, 64) and negatives.shape == (1, 48, 64)


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


def test_parse_rects_names_a_wrong_arity_entry():
    assert parse_rects("1,2,3,4;;5,6,7,8;") == (Rect(1, 2, 3, 4), Rect(5, 6, 7, 8))
    with pytest.raises(ValueError, match=r"^markers entry '5,6,7': expected 4 fields, got 3$"):
        parse_rects("1,2,3,4;5,6,7")
    with pytest.raises(ValueError, match=r"^markers entry '1,2,3,4,5': expected 4 fields"):
        parse_rects("1,2,3,4,5")


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
    assert np.array_equal(on_disk, frames[0])


def test_load_gt_events_names_malformed_line(tmp_path):
    scene = tmp_path / "scene"
    save_scene(scene, _scenario(frames=12))
    path = scene / "gt_events.txt"
    for number, text in ((1, "3 0 x\n"), (2, "3 0 1\n3 0\n"), (3, "\n3 0 1\n3 0 1 4\n"),
                         (1, "3 -1 0\n")):
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line {number}: "):
            load_gt_events(scene)


def test_save_scene_streams_the_rendered_frames(tmp_path):
    config = _scenario(frames=400, jitter_amplitude=2, noise_sigma=1.5, illumination=((50, 30),))
    frames, _ = generate_scene(config)
    tracemalloc.start()
    try:
        save_scene(tmp_path / "scene", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frames.nbytes / 4  # one frame at a time, not the 1.2 MB scene
    for idx in range(0, 400, 57):
        on_disk = load_pgm(tmp_path / "scene" / "frames" / f"frame_{idx:06d}.pgm")
        assert np.array_equal(on_disk, frames[idx])


def test_first_frame_of_a_long_scenario_renders_in_little_memory():
    # one list per frame before the first would take about 64 MiB here
    config = _scenario(frames=10**6)
    gt = ground_truth(config)
    frames = render_frames(config, gt)
    tracemalloc.start()
    try:
        first = next(frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.array_equal(first, generate_scene(replace(config, frames=1))[0][0])


def test_save_scene_byte_determinism(tmp_path):
    config = _scenario(frames=15, jitter_amplitude=1, illumination=((5, 25),))
    save_scene(tmp_path / "a", config)
    save_scene(tmp_path / "b", config)
    for name in ("scenario.cfg", "gt_boxes.txt", "gt_events.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for idx in range(15):
        name = f"frames/frame_{idx:06d}.pgm"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
