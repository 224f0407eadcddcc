"""Deterministic synthetic traffic scenes with exact ground truth.

Scenes are top-down vertical lanes: textured rectangles travel straight down
over a smooth background toward per-lane markers at the frame bottom. Every
random quantity is drawn from numpy's PCG64 generator seeded through
SeedSequence((seed, purpose, index)), so frames, ground truth and training
crops are reproducible byte for byte from the scenario config alone.

Intensity design keeps the detectors honest: background lattice noise spans
[70, 120], vehicle texture blocks span [20, 45] (dark) and [160, 190]
(bright), and pixel noise is clipped to +-3 sigma. With the default sigma
and thresholds every vehicle pixel clears the background-subtraction
threshold, and a +50 global illumination step never clips, which preserves
LBP codes exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .imaging import Rect, frame_filename, round_half_up, save_pgm

PURPOSE_BACKGROUND = 0
PURPOSE_VEHICLE = 1
PURPOSE_NOISE = 2
PURPOSE_JITTER = 3
PURPOSE_CROPS = 4

BACKGROUND_CELL = 16
BACKGROUND_RANGE = (70, 120)
DARK_RANGE = (20, 45)
BRIGHT_RANGE = (160, 190)
TEXTURE_BLOCK = 3


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class VehicleSpawn:
    """One vehicle: enters at the top of its lane on `frame`, moves down."""

    frame: int
    lane: int
    speed: float
    w: int
    h: int

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError(f"spawn frame must be >= 0, got {self.frame}")
        if not (self.speed > 0.0 and np.isfinite(self.speed)):
            raise ValueError(f"speed must be positive and finite, got {self.speed}")
        if self.w < 1 or self.h < 1:
            raise ValueError(f"vehicle size must be >= 1x1, got {self.w}x{self.h}")


@dataclass(frozen=True)
class ScenarioConfig:
    width: int
    height: int
    frames: int
    markers: tuple[Rect, ...]
    spawns: tuple[VehicleSpawn, ...] = ()
    seed: int = 0
    background_seed: int = 0
    noise_sigma: float = 0.0
    illumination: tuple[tuple[int, int], ...] = ()
    jitter_amplitude: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.frames < 1:
            raise ValueError("scenario needs positive frame dims and frame count")
        if not self.markers:
            raise ValueError("scenario needs at least one lane marker")
        if not (self.noise_sigma >= 0.0 and np.isfinite(self.noise_sigma)):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.jitter_amplitude < 0:
            raise ValueError(f"jitter amplitude must be >= 0, got {self.jitter_amplitude}")
        for frame_idx, delta in self.illumination:
            if not 0 <= frame_idx < self.frames:
                raise ValueError(f"illumination event at frame {frame_idx} outside scene")
            if abs(delta) > 255:
                raise ValueError(f"illumination delta {delta} cannot be clamped onto [0,255]")
        for i, spawn in enumerate(self.spawns):
            if not 0 <= spawn.lane < len(self.markers):
                raise ValueError(f"spawn {i} references lane {spawn.lane}")
            x = _spawn_x(self, spawn)
            if x < 0 or x + spawn.w > self.width or spawn.h > self.height:
                raise ValueError(f"spawn {i} does not fit inside {self.width}x{self.height}")


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-frame boxes and marker-exit events."""

    boxes: tuple[tuple[int, int, Rect], ...]
    events: tuple[tuple[int, int, int], ...]


def default_markers(width: int, height: int, lanes: int = 2, thickness: int = 22) -> tuple[Rect, ...]:
    """Evenly spaced lane markers touching the bottom edge of the frame."""
    lane_w = width // lanes
    marker_w = max(1, lane_w - 8)
    return tuple(
        Rect(i * lane_w + (lane_w - marker_w) // 2, height - thickness, marker_w, thickness)
        for i in range(lanes)
    )


def spawn_schedule(
    count: int,
    interval: int,
    lanes: int,
    speed: float,
    w: int,
    h: int,
    start: int = 0,
) -> tuple[VehicleSpawn, ...]:
    """Fixed-interval schedule cycling through the lanes round-robin."""
    return tuple(
        VehicleSpawn(frame=start + i * interval, lane=i % lanes, speed=speed, w=w, h=h)
        for i in range(count)
    )


def _spawn_x(config: ScenarioConfig, spawn: VehicleSpawn) -> int:
    """The spawn's fixed column: its rect centred on its lane's marker."""
    return round_half_up(config.markers[spawn.lane].center()[0] - spawn.w / 2.0)


def vehicle_rect(config: ScenarioConfig, vehicle_id: int, frame_idx: int) -> Rect | None:
    """Unclipped vehicle rect at a frame, or None if not spawned yet / fully gone."""
    spawn = config.spawns[vehicle_id]
    if frame_idx < spawn.frame:
        return None
    x = _spawn_x(config, spawn)
    y = round_half_up(spawn.speed * (frame_idx - spawn.frame))
    if y >= config.height:
        return None
    return Rect(x, y, spawn.w, spawn.h)


def spawn_rect(config: ScenarioConfig, vehicle_id: int, frame_idx: int) -> Rect | None:
    """Visible (frame-clipped) vehicle rect at a frame, or None when off-scene."""
    rect = vehicle_rect(config, vehicle_id, frame_idx)
    if rect is None:
        return None
    w = min(rect.right, config.width) - rect.x
    h = min(rect.bottom, config.height) - rect.y
    if w < 1 or h < 1:
        return None
    return Rect(rect.x, rect.y, w, h)


def background_texture(config: ScenarioConfig) -> np.ndarray:
    """Smooth value-noise field: a coarse random lattice interpolated bilinearly."""
    rng = _rng(config.background_seed, PURPOSE_BACKGROUND)
    cells_y = config.height // BACKGROUND_CELL + 2
    cells_x = config.width // BACKGROUND_CELL + 2
    lattice = rng.uniform(*BACKGROUND_RANGE, size=(cells_y, cells_x))
    ys = np.arange(config.height) / BACKGROUND_CELL
    xs = np.arange(config.width) / BACKGROUND_CELL
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    tl = lattice[np.ix_(y0, x0)]
    tr = lattice[np.ix_(y0, x0 + 1)]
    bl = lattice[np.ix_(y0 + 1, x0)]
    br = lattice[np.ix_(y0 + 1, x0 + 1)]
    return tl * (1 - fy) * (1 - fx) + tr * (1 - fy) * fx + bl * fy * (1 - fx) + br * fy * fx


def vehicle_texture(config: ScenarioConfig, vehicle_id: int) -> np.ndarray:
    """Checkerboard of 3x3-px blocks alternating dark and bright random values."""
    spawn = config.spawns[vehicle_id]
    rng = _rng(config.seed, PURPOSE_VEHICLE, vehicle_id)
    blocks_y = -(-spawn.h // TEXTURE_BLOCK)
    blocks_x = -(-spawn.w // TEXTURE_BLOCK)
    dark = rng.uniform(*DARK_RANGE, size=(blocks_y, blocks_x))
    bright = rng.uniform(*BRIGHT_RANGE, size=(blocks_y, blocks_x))
    checker = (np.add.outer(np.arange(blocks_y), np.arange(blocks_x)) % 2).astype(bool)
    blocks = np.where(checker, bright, dark)
    full = np.repeat(np.repeat(blocks, TEXTURE_BLOCK, axis=0), TEXTURE_BLOCK, axis=1)
    return full[: spawn.h, : spawn.w]


def _illumination_offset(config: ScenarioConfig, frame_idx: int) -> int:
    """Cumulative intensity shift: every event persists from its frame onward."""
    return sum(delta for event_frame, delta in config.illumination if frame_idx >= event_frame)


def _shift_edge(canvas: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Integer translation with edge replication (camera jitter)."""
    h, w = canvas.shape
    rows = canvas.take(np.arange(-dy, h - dy), axis=0, mode="clip")
    return rows.take(np.arange(-dx, w - dx), axis=1, mode="clip")


def ground_truth(config: ScenarioConfig) -> GroundTruth:
    """The exact boxes and exit events of a scene, from geometry alone.

    Boxes are the frame-clipped vehicle rects before jitter, ordered by
    frame and then vehicle; the exit event of a vehicle fires on the first
    frame its box overlaps its lane marker. Each vehicle is visited only on
    the frames from its spawn until it leaves the bottom edge.
    """
    boxes: list[tuple[int, int, Rect]] = []
    events: list[tuple[int, int, int]] = []
    for vid, spawn in enumerate(config.spawns):
        exited = False
        for frame_idx in range(spawn.frame, config.frames):
            visible = spawn_rect(config, vid, frame_idx)
            if visible is None:
                break  # vehicles only move down: once gone, gone for good
            boxes.append((frame_idx, vid, visible))
            if not exited and visible.overlaps(config.markers[spawn.lane]):
                events.append((frame_idx, vid, spawn.lane))
                exited = True
    boxes.sort(key=lambda box: box[:2])
    events.sort()
    return GroundTruth(boxes=tuple(boxes), events=tuple(events))


def render_frames(config: ScenarioConfig, gt: GroundTruth):
    """Yield each frame's (h, w) uint8 pixels in order, rendered one at a time.

    `gt` is ground_truth(config): every frame paints the vehicles of its
    boxes, in vehicle order, then applies jitter, illumination and noise
    from the generators keyed by (seed, purpose, frame).
    """
    background = background_texture(config)
    textures = [vehicle_texture(config, vid) for vid in range(len(config.spawns))]
    cursor = 0
    for frame_idx in range(config.frames):
        canvas = background.copy()
        while cursor < len(gt.boxes) and gt.boxes[cursor][0] == frame_idx:
            _, vid, rect = gt.boxes[cursor]
            cursor += 1
            # only the bottom clips: ScenarioConfig rejects spawns that overflow sideways
            canvas[rect.y : rect.bottom, rect.x : rect.right] = textures[vid][: rect.h, : rect.w]
        if config.jitter_amplitude > 0:
            jitter = _rng(config.seed, PURPOSE_JITTER, frame_idx)
            dx, dy = jitter.integers(-config.jitter_amplitude, config.jitter_amplitude + 1, size=2)
            canvas = _shift_edge(canvas, int(dy), int(dx))
        offset = _illumination_offset(config, frame_idx)
        if offset:
            canvas = canvas + offset
        if config.noise_sigma > 0.0:
            noise_rng = _rng(config.seed, PURPOSE_NOISE, frame_idx)
            noise = noise_rng.normal(0.0, config.noise_sigma, size=canvas.shape)
            bound = 3.0 * config.noise_sigma
            canvas = canvas + np.clip(noise, -bound, bound)
        yield np.floor(np.clip(canvas, 0.0, 255.0) + 0.5).astype(np.uint8)


def generate_scene(config: ScenarioConfig) -> tuple[np.ndarray, GroundTruth]:
    """All frames as one (frames, h, w) uint8 array, and their ground truth."""
    gt = ground_truth(config)
    frames = np.empty((config.frames, config.height, config.width), dtype=np.uint8)
    for frame_idx, pixels in enumerate(render_frames(config, gt)):
        frames[frame_idx] = pixels
    return frames, gt


def _resample_nearest(pixels: np.ndarray, rect: Rect, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor crop resampling; identity when sizes already match."""
    ys = rect.y + ((np.arange(out_h) + 0.5) * rect.h / out_h).astype(int)
    xs = rect.x + ((np.arange(out_w) + 0.5) * rect.w / out_w).astype(int)
    return pixels[np.ix_(ys, xs)]


def _clamp_crop(x: int, y: int, w: int, h: int, frame_w: int, frame_h: int) -> Rect:
    w = min(w, frame_w)
    h = min(h, frame_h)
    return Rect(min(max(x, 0), frame_w - w), min(max(y, 0), frame_h - h), w, h)


def sample_crops(
    config: ScenarioConfig,
    scene: tuple[np.ndarray, GroundTruth],
    n_pos: int,
    n_neg: int,
    window_w: int,
    window_h: int,
    perturbation: float = 0.1,
):
    """(n_pos, h, w) vehicle-centered uint8 crops, and a generator of vehicle-free
    ones as (k, h, w) blocks in candidate order that yields n_neg in all.

    `scene` is generate_scene(config). All draws come from the stream keyed
    by (seed, PURPOSE_CROPS), and the negatives take it up where the first
    positive left it, whatever n_pos is: the later positives draw from a
    copy. Positives sample fully visible ground-truth boxes, cover them with
    a window-shaped region perturbed by +-perturbation in scale and position,
    and resample to the window size. Each negative attempt draws frame, x
    and y, in that order, whether or not it is kept: the candidates are
    fixed before any overlap test. The negatives are the first n_neg
    candidate windows that overlap no box of their frame (positive area;
    touching edges do not count); the generator raises ValueError if fewer
    than n_neg of the first 1000 * n_neg are free. A caller may stop it
    early, and draws it is never asked for are never made. A window smaller
    than 1 px or larger than the scene is refused before any draw.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError("need at least one positive and one negative crop")
    if not 0.0 <= perturbation < 0.5:
        raise ValueError(f"perturbation must lie in [0, 0.5), got {perturbation}")
    if not (1 <= window_w <= config.width and 1 <= window_h <= config.height):
        raise ValueError(
            f"window {window_w}x{window_h} does not fit the {config.width}x{config.height} scene"
        )
    frames, gt = scene
    full_boxes = [
        (frame_idx, rect)
        for frame_idx, vid, rect in gt.boxes
        if rect.w == config.spawns[vid].w and rect.h == config.spawns[vid].h
    ]
    if not full_boxes:
        raise ValueError("scenario produced no fully visible vehicle boxes")
    negatives_rng = rng = _rng(config.seed, PURPOSE_CROPS)
    positives = np.empty((n_pos, window_h, window_w), dtype=np.uint8)
    for i in range(n_pos):
        if i == 1:
            rng = _rng(config.seed, PURPOSE_CROPS)
            rng.bit_generator.state = negatives_rng.bit_generator.state
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
    return positives, _negative_blocks(frames, gt, negatives_rng, n_neg, window_w, window_h)


def _negative_blocks(frames: np.ndarray, gt: GroundTruth, rng, n_neg, window_w, window_h):
    """Yield the first n_neg vehicle-free windows of rng's candidates, in blocks.

    Up to 1024 candidates at a time come from one `integers` call over the
    tiled bounds, which numpy draws element by element exactly as a scalar
    call per bound would. Each is tested against its frame's row of a
    (frames, K, 4) table of box corners, zero-padded (a zero box overlaps
    no window); gt.boxes is ordered by frame.
    """
    n_frames, height, width = frames.shape
    frame_of = np.array([box[0] for box in gt.boxes], dtype=np.intp)
    slot = np.arange(len(frame_of)) - np.searchsorted(frame_of, frame_of)
    table = np.zeros((n_frames, slot.max(initial=-1) + 1, 4), dtype=np.int64)
    table[frame_of, slot] = [(r.x, r.y, r.right, r.bottom) for _, _, r in gt.boxes]
    windows = np.lib.stride_tricks.sliding_window_view(frames, (window_h, window_w), (1, 2))
    bounds = np.array([n_frames, width - window_w + 1, height - window_h + 1])
    wanted = n_neg
    left = 1000 * n_neg
    while wanted:
        k = min(left, 2 * wanted + 64, 1024)
        if k == 0:
            raise ValueError("could not sample vehicle-free negative crops")
        left -= k
        f, x, y = rng.integers(np.tile(bounds, k)).reshape(k, 3).T
        boxes = table[f]
        hit = (
            (x[:, None] < boxes[..., 2])
            & (boxes[..., 0] < x[:, None] + window_w)
            & (y[:, None] < boxes[..., 3])
            & (boxes[..., 1] < y[:, None] + window_h)
        ).any(axis=1)
        free = np.flatnonzero(~hit)[:wanted]
        wanted -= len(free)
        yield windows[f[free], y[free], x[free]]


def config_to_text(config: ScenarioConfig) -> str:
    """Flat key = value echo of the scenario; floats keep full precision."""
    markers = ";".join(f"{m.x},{m.y},{m.w},{m.h}" for m in config.markers)
    spawns = ";".join(
        f"{s.frame},{s.lane},{s.speed:.17g},{s.w},{s.h}" for s in config.spawns
    )
    illumination = ";".join(f"{f}:{d}" for f, d in config.illumination)
    lines = [
        f"width = {config.width}",
        f"height = {config.height}",
        f"frames = {config.frames}",
        f"seed = {config.seed}",
        f"background_seed = {config.background_seed}",
        f"noise_sigma = {config.noise_sigma:.17g}",
        f"jitter_amplitude = {config.jitter_amplitude}",
        f"illumination = {illumination}",
        f"markers = {markers}",
        f"spawns = {spawns}",
    ]
    return "\n".join(lines) + "\n"


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse flat `key = value` text with # comments into an ordered dict."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _entries(key: str, text: str, sep: str, types: tuple) -> list[tuple]:
    """The `;`-separated entries of a list value, each split at sep into exactly
    len(types) fields converted by types; ValueError names the key and a bad entry."""
    entries = []
    for entry in text.split(";"):
        if not entry:
            continue
        parts = entry.split(sep)
        try:
            if len(parts) != len(types):
                raise ValueError(f"expected {len(types)} fields, got {len(parts)}")
            entries.append(tuple(convert(part) for convert, part in zip(types, parts)))
        except ValueError as exc:
            raise ValueError(f"{key} entry {entry!r}: {exc}") from None
    return entries


def parse_rects(text: str) -> tuple[Rect, ...]:
    """Rects of an `x,y,w,h;...` markers list; ValueError names any malformed entry."""
    return tuple(Rect(*fields) for fields in _entries("markers", text, ",", (int,) * 4))


def config_from_values(values: dict[str, str]) -> ScenarioConfig:
    known = {
        "width", "height", "frames", "seed", "background_seed", "noise_sigma",
        "jitter_amplitude", "illumination", "markers", "spawns",
    }
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    missing = known - set(values)
    if missing:
        raise ValueError(f"missing scenario keys: {sorted(missing)}")
    spawns = _entries("spawns", values["spawns"], ",", (int, int, float, int, int))
    return ScenarioConfig(
        width=int(values["width"]),
        height=int(values["height"]),
        frames=int(values["frames"]),
        markers=parse_rects(values["markers"]),
        spawns=tuple(VehicleSpawn(*fields) for fields in spawns),
        seed=int(values["seed"]),
        background_seed=int(values["background_seed"]),
        noise_sigma=float(values["noise_sigma"]),
        illumination=tuple(_entries("illumination", values["illumination"], ":", (int, int))),
        jitter_amplitude=int(values["jitter_amplitude"]),
    )


def config_from_text(text: str) -> ScenarioConfig:
    return config_from_values(parse_flat_config(text))


def save_scene(directory: str | os.PathLike, config: ScenarioConfig) -> GroundTruth:
    """Write a scene directory: frames/, GT files, config echo.

    Frames are written as they are rendered, so only one is held at a time.
    """
    gt = ground_truth(config)
    frames = render_frames(config, gt)
    pixels = next(frames)  # frames that do not fit in memory fail here, before any file is made
    frame_dir = os.path.join(directory, "frames")
    os.makedirs(frame_dir, exist_ok=True)
    for idx in range(config.frames):
        save_pgm(pixels, os.path.join(frame_dir, frame_filename(idx)))
        pixels = next(frames, None)
    with open(os.path.join(directory, "gt_boxes.txt"), "w", encoding="ascii") as fh:
        for frame_idx, vid, rect in gt.boxes:
            fh.write(f"{frame_idx} {vid} {rect.x} {rect.y} {rect.w} {rect.h}\n")
    with open(os.path.join(directory, "gt_events.txt"), "w", encoding="ascii") as fh:
        for frame_idx, vid, marker in gt.events:
            fh.write(f"{frame_idx} {vid} {marker}\n")
    with open(os.path.join(directory, "scenario.cfg"), "w", encoding="ascii") as fh:
        fh.write(config_to_text(config))
    return gt


def load_scene_config(directory: str | os.PathLike) -> ScenarioConfig:
    with open(os.path.join(directory, "scenario.cfg"), "r", encoding="ascii") as fh:
        return config_from_text(fh.read())


def load_gt_events(directory: str | os.PathLike) -> list[tuple[int, int, int]]:
    """Read gt_events.txt: one `frame vehicle marker` line per event, blank lines skipped.

    Raises ValueError naming the first line that is not three integers >= 0.
    """
    path = os.path.join(directory, "gt_events.txt")
    events = []
    with open(path, "r", encoding="ascii") as fh:
        for number, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                event = tuple(int(p) for p in parts)
            except ValueError:
                event = ()
            if len(event) != 3 or min(event) < 0:
                raise ValueError(
                    f"{path} line {number}: expected 'frame vehicle marker' as three "
                    f"integers >= 0, got {line.strip()!r}"
                )
            events.append(event)
    return events
