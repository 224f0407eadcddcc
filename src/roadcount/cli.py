"""Command-line pipeline: configuration, orchestration, sweeps and timing.

Subcommands: synth, train, detect, track, count, sweep, bench, eval. Each
reads one flat `key = value` config file plus `--key value` overrides, each
key at most once. detect, track, count, sweep and bench are loops over one
decode -> detect -> track pass per scene, which yields a record per frame;
the pass reads `_PASS_KEYS` plus its detector's `_DETECTOR_KEYS`, and
counting its finished tracks reads `_COUNT_KEYS`. count and sweep count and
score through one routine, `_reports`, which reads markers and ground truth
before a pass runs; bench alone times frames.
Exit codes: 0 success, 1 usage error (bad flags, bad config keys/values),
2 input/data error (missing or malformed scene, model, or image files).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import bgsub, synthgen
from .boostcascade import (
    DEFAULT_GRID,
    CascadeModel,
    detect,
    load_model,
    save_model,
    scaled_window,
    train_cascade,
)
from .counting import (
    DEFAULT_DISTANCE_FRACTION,
    PHI_MAX,
    PHI_MIN,
    CountingPolicy,
    CountingReport,
    MarkerSet,
    accuracy_fields,
    count_tracks,
    make_report,
    report_text,
    result_line,
)
from .imaging import Frame, PgmError, Rect, downscale, load_pgm, sequence_paths
from .tracking import DEFAULT_GATE_FRACTION, DEFAULT_MAX_MISSES, Track, Tracker, track_log_line


class DataError(Exception):
    """Missing or malformed input data (exit code 2)."""


class UsageError(Exception):
    """Bad command line or configuration (exit code 1)."""


# Which part of the program reads each config field. A pass reads
# _PASS_KEYS and its own detector's keys; counting and scoring a pass's
# finished tracks read _COUNT_KEYS. Training and `count`'s events file read
# the rest.
_PASS_KEYS = (
    "scene", "detector", "tracker", "resolution_factor", "frame_dt", "gate_fraction", "max_misses",
)
_DETECTOR_KEYS = {
    "bgsub": ("th", "learning_rate", "open_radius", "min_area"),
    "feature": ("model", "scales", "stride", "mcc"),
}
_COUNT_KEYS = frozenset({
    "tfc", "phi_min", "phi_max", "distance_fraction", "require_marker_overlap",
    "markers", "match_tol",
})


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline; all fields have defaults and flat-text form."""

    scene: str = ""
    model: str = ""
    events_out: str = ""
    detector: str = "bgsub"
    tracker: str = "ekf"
    resolution_factor: int = 1
    th: float = 10.0
    tfc: int = 8
    mhr: float = 0.995
    stages: int = 5
    mcc: int = 2
    scales: tuple[float, ...] = (1.0,)
    stride: int = 7
    markers: str = "auto"
    frame_dt: float = 1.0
    learning_rate: float = bgsub.DEFAULT_LEARNING_RATE
    open_radius: int = 1
    min_area: int = bgsub.DEFAULT_MIN_AREA
    gate_fraction: float = DEFAULT_GATE_FRACTION
    max_misses: int = DEFAULT_MAX_MISSES
    match_tol: int = 25
    distance_fraction: float = DEFAULT_DISTANCE_FRACTION
    require_marker_overlap: bool = False
    phi_min: float = PHI_MIN
    phi_max: float = PHI_MAX
    window_w: int = 30
    window_h: int = 30
    train_pos: int = 1000
    train_neg: int = 5000
    train_hard: int = 6000

    def __post_init__(self):
        """Reject every value a pipeline stage would fail on or silently misuse."""
        if self.detector not in _DETECTOR_KEYS:
            names = " or ".join(map(repr, _DETECTOR_KEYS))
            raise ValueError(f"detector must be {names}, got {self.detector!r}")
        if self.tracker not in ("ekf", "none"):
            raise ValueError(f"tracker must be 'ekf' or 'none', got {self.tracker!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            parts = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in parts):
                raise ValueError(f"{f.name} must be finite, got {_format_value(value)}")
        min_window = 3 * DEFAULT_GRID
        rules = (
            ("resolution_factor", self.resolution_factor >= 1, ">= 1"),
            ("tfc", self.tfc >= 0, ">= 0"),
            ("mhr", 0.0 < self.mhr <= 1.0, "in (0, 1]"),
            ("stages", self.stages >= 1, ">= 1"),
            ("mcc", self.mcc >= 1, ">= 1"),
            ("scales", bool(self.scales) and self.scales[0] >= 1.0
             and all(a < b for a, b in zip(self.scales, self.scales[1:])),
             "nonempty, strictly ascending and >= 1"),
            ("stride", self.stride >= 1, ">= 1"),
            ("frame_dt", self.frame_dt > 0.0, "> 0"),
            ("learning_rate", 0.0 < self.learning_rate < 1.0, "in (0, 1)"),
            ("open_radius", self.open_radius >= 0, ">= 0"),
            ("min_area", self.min_area >= 0, ">= 0"),
            ("gate_fraction", self.gate_fraction > 0.0, "> 0"),
            ("max_misses", self.max_misses >= 0, ">= 0"),
            ("match_tol", self.match_tol >= 0, ">= 0"),
            ("distance_fraction", 0.0 < self.distance_fraction <= 1.0, "in (0, 1]"),
            ("phi_max", self.phi_max >= self.phi_min, ">= phi_min"),
            ("window_w", self.window_w >= min_window, f">= {min_window}"),
            ("window_h", self.window_h >= min_window, f">= {min_window}"),
            ("train_pos", self.train_pos >= 1, ">= 1"),
            ("train_neg", self.train_neg >= 1, ">= 1"),
            ("train_hard", self.train_hard >= 0, ">= 0"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {_format_value(getattr(self, name))}")


@dataclass(frozen=True)
class BenchRecord:
    """Wall-clock per-frame timing of one pipeline stage."""

    stage: str
    mean_ms: float
    p50_ms: float
    p95_ms: float
    frames: int

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")


def bench_line(record: BenchRecord) -> str:
    return (
        f"BENCH stage={record.stage} mean_ms={record.mean_ms:.3f} "
        f"p50_ms={record.p50_ms:.3f} p95_ms={record.p95_ms:.3f} frames={record.frames}"
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    return str(value)


def _coerce(key: str, default, raw: str):
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(float(part) for part in raw.split(",") if part.strip())
        return raw
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {exc}") from exc


def config_to_text(config: PipelineConfig) -> str:
    """Flat echo of the config; parse(print(config)) round-trips exactly."""
    return "".join(
        f"{f.name} = {_format_value(getattr(config, f.name))}\n" for f in fields(config)
    )


_FIELD_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}


def config_from_text(text: str) -> PipelineConfig:
    try:
        values = synthgen.parse_flat_config(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return apply_overrides(PipelineConfig(), values)


def apply_overrides(config: PipelineConfig, overrides: dict[str, str]) -> PipelineConfig:
    unknown = set(overrides) - set(_FIELD_DEFAULTS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    changes = {
        key: _coerce(key, _FIELD_DEFAULTS[key], raw)
        for key, raw in overrides.items()
    }
    try:
        return replace(config, **changes)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _scale_rect(rect: Rect, factor: int) -> Rect:
    """Map a rect into downscaled coordinates, keeping at least 1 px extent."""
    if factor == 1:
        return rect
    x = rect.x // factor
    y = rect.y // factor
    right = -(-rect.right // factor)
    bottom = -(-rect.bottom // factor)
    return Rect(x, y, max(right - x, 1), max(bottom - y, 1))


def _resolve_markers(config: PipelineConfig, width: int, height: int) -> MarkerSet:
    """Markers from the config string, or from scenario.cfg when set to auto.

    Auto markers live in native scene resolution and are scaled down by the
    resolution factor; explicit markers are taken to be in working
    (post-downscale) coordinates already.
    """
    if config.markers == "auto":
        try:
            scenario = synthgen.load_scene_config(config.scene)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot derive auto markers from {config.scene}: {exc}") from exc
        rects = [_scale_rect(m, config.resolution_factor) for m in scenario.markers]
    else:
        try:
            rects = synthgen.parse_rects(config.markers)
        except ValueError as exc:
            raise UsageError(f"bad markers value {config.markers!r}: {exc}") from exc
    try:
        markers = MarkerSet.from_rects(rects)
        markers.check_bottom_third(width, height)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return markers


def _scene_frame_paths(scene_dir: str) -> list[str]:
    try:
        paths = sequence_paths(f"{scene_dir}/frames")
    except OSError as exc:
        raise DataError(f"cannot list scene frames in {scene_dir}: {exc}") from exc
    if not paths:
        raise DataError(f"no frames found under {scene_dir}/frames")
    return paths


def _working_size(config: PipelineConfig, first: Frame) -> tuple[int, int]:
    """The scene's frame size after downscaling by resolution_factor, which must divide it."""
    factor = config.resolution_factor
    if first.width % factor or first.height % factor:
        raise UsageError(
            f"resolution_factor {factor} does not divide the scene's "
            f"{first.width}x{first.height} frames"
        )
    return first.width // factor, first.height // factor


def _load_cascade(config: PipelineConfig) -> CascadeModel:
    if not config.model:
        raise UsageError("detector=feature requires a model path")
    try:
        return load_model(config.model)
    except FileNotFoundError as exc:
        raise DataError(f"model file not found: {config.model}") from exc
    except ValueError as exc:
        raise DataError(f"malformed model file {config.model}: {exc}") from exc


def _pass_key(config: PipelineConfig) -> tuple:
    """The fields a pass reads; configs with equal keys make identical passes."""
    return tuple(getattr(config, k) for k in _PASS_KEYS + _DETECTOR_KEYS[config.detector])


def _detector(
    config: PipelineConfig, width: int, height: int
) -> Callable[[Frame], list[tuple[Rect, float]]]:
    """The pass's detector, as a function from a frame to its [(rect, score)].

    bgsub owns a background model that every call updates; feature loads
    the cascade here, so a bad model, or one whose smallest window does not
    fit the working frames, fails before the scene is decoded.
    """
    if config.detector == "feature":
        cascade = _load_cascade(config)
        scale = config.scales[0]
        if scaled_window(cascade, scale, width, height) is None:
            w, h = cascade.window_w, cascade.window_h
            raise DataError(
                f"model window {w}x{h} at scale {scale:g} ({w * scale:g}x{h * scale:g}) "
                f"does not fit the {width}x{height} frames"
            )

        def detect_vehicles(frame: Frame) -> list[tuple[Rect, float]]:
            found = detect(cascade, frame, scales=config.scales, stride=config.stride, mcc=config.mcc)
            return [(d.rect, d.score) for d in found]

        return detect_vehicles
    background = bgsub.BackgroundModel(width, height, config.learning_rate)

    def detect_foreground(frame: Frame) -> list[tuple[Rect, float]]:
        if background.initialized:
            mask = bgsub.subtract(background, frame, config.th)
            mask = bgsub.morphological_open(mask, config.open_radius)
            blobs = bgsub.extract_blobs(mask, config.min_area)
        else:
            blobs = []
        bgsub.update_background(background, frame)
        return [(rect, 0.0) for rect in blobs]

    return detect_foreground


class _FrameRecord(NamedTuple):
    """What one frame of a pass produced, with the seconds each step took.

    live and finished hold the tracker's own Track objects: a live track
    changes as later frames are tracked, a finished one never does.
    """

    index: int
    detections: list[tuple[Rect, float]]
    live: list[Track]
    finished: list[Track]
    detect_s: float
    track_s: float


class _Pass:
    """One single-use decode -> detect -> track pass over a scene directory.

    Construction lists the frames, decodes the first one for the frame size,
    checks that resolution_factor divides it, and builds the detector
    (loading the cascade) and the tracker, so set-up errors surface before
    the rest of the scene is decoded. `frames` yields one
    record per frame; `tracker.flush()` then returns the tracks still
    live after the last one.
    """

    def __init__(self, config: PipelineConfig):
        if not config.scene:
            raise UsageError("a scene directory is required (key: scene)")
        self.config = config
        self.paths = _scene_frame_paths(config.scene)
        first = load_pgm(self.paths[0])
        self.native = (first.width, first.height)
        self.width, self.height = _working_size(config, first)
        self.detect = _detector(config, self.width, self.height)
        self.tracker = Tracker(
            kind=config.tracker,
            gate=config.gate_fraction * max(self.width, self.height),
            max_misses=config.max_misses,
        )

    def frames(self, limit: int | None = None) -> Iterator[_FrameRecord]:
        """Decode, detect and track the first `limit` frames (all by default)."""
        factor = self.config.resolution_factor
        for index, path in enumerate(self.paths[:limit]):
            frame = load_pgm(path)
            if (frame.width, frame.height) != self.native:
                raise DataError(
                    f"frame {path} is {frame.width}x{frame.height}, "
                    f"the scene's first frame is {self.native[0]}x{self.native[1]}"
                )
            if factor > 1:
                frame = downscale(frame, factor)
            t0 = time.perf_counter()
            detections = self.detect(frame)
            t1 = time.perf_counter()
            live, finished = self.tracker.step([r for r, _ in detections], self.config.frame_dt)
            t2 = time.perf_counter()
            yield _FrameRecord(index, detections, live, finished, t1 - t0, t2 - t1)


def _policy(config: PipelineConfig) -> CountingPolicy:
    return CountingPolicy(
        mode=config.detector,
        tfc=config.tfc,
        phi_min=config.phi_min,
        phi_max=config.phi_max,
        distance_fraction=config.distance_fraction,
        require_marker_overlap=config.require_marker_overlap,
    )


def _check_events(
    events: list[tuple[int, int]], n_markers: int, what: str, n_frames: int | None = None
) -> None:
    """Refuse a (frame, marker) event naming a marker the scene does not have or,
    given n_frames, a frame outside [0, n_frames)."""
    for frame_idx, marker in events:
        if n_frames is not None and not 0 <= frame_idx < n_frames:
            raise DataError(f"{what} names frame {frame_idx}, but the scene has {n_frames} frames")
        if not 0 <= marker < n_markers:
            raise DataError(
                f"{what} at frame {frame_idx} names marker {marker}, "
                f"but the scene has {n_markers} markers"
            )


def _gt_pairs(scene: str, n_markers: int, required: bool = False) -> list[tuple[int, int]]:
    """The scene's ground-truth (frame, marker) events; none without a file unless required."""
    try:
        gt_events = synthgen.load_gt_events(scene)
    except FileNotFoundError as exc:
        if required:
            raise DataError(f"scene has no gt_events.txt: {scene}") from exc
        gt_events = []
    except ValueError as exc:
        raise DataError(f"malformed ground truth: {exc}") from exc
    gt_pairs = [(frame_idx, marker) for frame_idx, _, marker in gt_events]
    _check_events(gt_pairs, n_markers, "ground-truth event")
    return gt_pairs


def _bench_records(times: dict[str, list[float]], warmup: int) -> list[BenchRecord]:
    records = []
    for stage in ("detect", "track", "count"):
        samples = np.array(times[stage][warmup:]) * 1000.0
        records.append(
            BenchRecord(
                stage=stage,
                mean_ms=float(samples.mean()),
                p50_ms=float(np.percentile(samples, 50)),
                p95_ms=float(np.percentile(samples, 95)),
                frames=len(samples),
            )
        )
    return records


def _reports(points: list[PipelineConfig]) -> list[CountingReport]:
    """Count and score every point; points with equal `_pass_key` share one pass.

    Every pass is set up, and every point's markers and ground truth are
    read, before any frame past a pass's first is decoded. Each pass then
    runs once, and its finished tracks, the flushed ones last, are counted
    under each of its points' policies.
    """
    passes: dict[tuple, tuple[_Pass, list[int]]] = {}
    truths = []
    for i, point in enumerate(points):
        key = _pass_key(point)
        if key not in passes:
            passes[key] = (_Pass(point), [])
        run, members = passes[key]
        members.append(i)
        markers = _resolve_markers(point, run.width, run.height)
        truths.append((markers, _gt_pairs(point.scene, len(markers.markers))))
    reports: list[CountingReport | None] = [None] * len(points)
    for run, members in passes.values():
        finished = [track for record in run.frames() for track in record.finished]
        finished += run.tracker.flush()
        for i in members:
            markers, gt_pairs = truths[i]
            counted = count_tracks(finished, _policy(points[i]), markers, run.width, run.height)
            reports[i] = make_report(counted, gt_pairs, points[i].match_tol, len(markers.markers))
    return reports


def run_pipeline(config: PipelineConfig) -> CountingReport:
    """Count the whole scene and score it against its ground truth (none without a file)."""
    return _reports([config])[0]


def bench(config: PipelineConfig, warmup: int, measured: int) -> list[BenchRecord]:
    """Time the pipeline stages over `measured` frames after `warmup` frames."""
    if measured < 1:
        raise UsageError(f"measured frames must be >= 1, got {measured}")
    if warmup < 0:
        raise UsageError(f"warmup must be >= 0, got {warmup}")
    run = _Pass(config)
    if warmup + measured > len(run.paths):
        raise UsageError(f"warmup {warmup} + measured {measured} frames exceed "
                         f"the scene's {len(run.paths)} frames")
    markers = _resolve_markers(config, run.width, run.height)
    policy = _policy(config)
    times: dict[str, list[float]] = {"detect": [], "track": [], "count": []}
    for record in run.frames(warmup + measured):
        t0 = time.perf_counter()
        count_tracks(record.finished, policy, markers, run.width, run.height)
        times["count"].append(time.perf_counter() - t0)
        times["detect"].append(record.detect_s)
        times["track"].append(record.track_s)
    return _bench_records(times, warmup)


def sweep(config: PipelineConfig, grid: dict[str, list[str]]) -> tuple[list[str], list[list[str]]]:
    """Run the Cartesian product of the grid; returns (header, rows).

    Keys are ordered alphabetically, values in the order given, and the
    product iterates with the rightmost key fastest, so rows come out in
    lexicographic parameter order. A key that no point's pass, detector or
    count reads is rejected. Every point is validated before any pass is
    set up; `_reports` then counts them, one pass per distinct `_pass_key`.
    """
    if not grid:
        raise UsageError("sweep needs a nonempty grid")
    keys = sorted(grid)
    for key, values in grid.items():
        if not values:
            raise UsageError(f"sweep grid for {key} is empty")
    detectors = [apply_overrides(config, {"detector": d}).detector
                 for d in grid.get("detector", [config.detector])]
    read = _COUNT_KEYS.union(_PASS_KEYS, *(_DETECTOR_KEYS[d] for d in detectors))
    for key in keys:
        if key in _FIELD_DEFAULTS and key not in read:
            raise UsageError(f"sweep key {key} does not affect counting")
    combos = list(itertools.product(*(grid[k] for k in keys)))
    points = [apply_overrides(config, dict(zip(keys, combo))) for combo in combos]
    header = keys + ["fp", "fn", "gt", "acc_real", "acc_int"]
    rows = []
    for combo, report in zip(combos, _reports(points)):
        counts = [str(report.fp), str(report.fn), str(report.gt)]
        rows.append(list(combo) + counts + list(accuracy_fields(report)))
    return header, rows


# Hard negatives come from a jitter-displaced clone of the scenario: the
# rendered vehicles shift away from their (unjittered) ground-truth boxes, so
# zero-GT-overlap crops can legally contain partial vehicle views. The margin
# keeps the displaced vehicle overlapping its own box, so no negative ever
# shows a complete vehicle.
_HARD_JITTER_MARGIN = 4
_HARD_POOL_FACTOR = 10
_HARD_TEXTURE_STD = 12.0


def _hard_negatives(scenario, count: int, window_w: int, window_h: int) -> np.ndarray:
    shifted = replace(scenario, jitter_amplitude=max(window_w, window_h) - _HARD_JITTER_MARGIN)
    _, pool = synthgen.generate_training_set(
        shifted, synthgen.generate_scene(shifted), 1, count * _HARD_POOL_FACTOR, window_w, window_h
    )
    stds = np.concatenate(
        [pool[i : i + 1024].std(axis=(1, 2)) for i in range(0, len(pool), 1024)]
    )
    textured = np.flatnonzero(stds > _HARD_TEXTURE_STD)[:count]
    if len(textured) < count:
        note = f"only {len(textured)} of {count} hard negatives passed the texture filter"
        print(f"roadcount: warning: {note} (pixel std > {_HARD_TEXTURE_STD:g})", file=sys.stderr)
    return pool[textured]


def _check_out_path(key: str, path: str) -> None:
    """Refuse an output path naming a directory or inside a missing one; creates nothing."""
    if os.path.isdir(path):
        raise DataError(f"{key} path is a directory: {path}")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise DataError(f"{key} path is in a missing directory: {path}")


def train(config: PipelineConfig) -> CascadeModel:
    """Train a cascade from crops sampled out of the scene's own scenario.

    Negatives mix plain background crops with textured crops harvested from
    a jittered clone of the scenario (partial vehicle views that still have
    zero ground-truth overlap); the later cascade stages train almost
    exclusively on those, which keeps the detector from firing on windows
    that only graze a vehicle. Stage s gets 2*s + 4 boosting rounds.
    """
    if not config.scene:
        raise UsageError("training requires a scene directory (key: scene)")
    if not config.model:
        raise UsageError("training requires an output model path (key: model)")
    _check_out_path("model", config.model)
    try:
        scenario = synthgen.load_scene_config(config.scene)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load scenario from {config.scene}: {exc}") from exc
    if config.window_w > scenario.width or config.window_h > scenario.height:
        raise UsageError(
            f"window {config.window_w}x{config.window_h} does not fit the "
            f"{scenario.width}x{scenario.height} scene"
        )
    scene = synthgen.generate_scene(scenario)
    try:
        # two calls, each restarting the crop generator: every model depends
        # on these streams, so the dummy count of 1 stays
        positives, _ = synthgen.generate_training_set(
            scenario, scene, config.train_pos, 1, config.window_w, config.window_h
        )
        _, negatives = synthgen.generate_training_set(
            scenario, scene, 1, config.train_neg, config.window_w, config.window_h
        )
        if config.train_hard:
            hard = _hard_negatives(scenario, config.train_hard, config.window_w, config.window_h)
            negatives = np.concatenate([negatives, hard])
    except ValueError as exc:
        raise DataError(f"cannot sample training crops from {config.scene}: {exc}") from exc
    rounds = tuple(2 * s + 4 for s in range(1, config.stages + 1))
    model = train_cascade(positives, negatives, config.stages, config.mhr, rounds=rounds)
    save_model(model, config.model)
    return model


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_overrides(rest: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    i = 0
    while i < len(rest):
        arg = rest[i]
        if not arg.startswith("--"):
            raise UsageError(f"unexpected argument {arg!r} (overrides are --key value)")
        if "=" in arg:
            key, value = arg[2:].split("=", 1)
            i += 1
        else:
            key = arg[2:]
            if i + 1 >= len(rest):
                raise UsageError(f"override {arg!r} is missing a value")
            value = rest[i + 1]
            i += 2
        if key in overrides:
            raise UsageError(f"override --{key} is given more than once")
        overrides[key] = value
    return overrides


def _load_config(args, overrides: dict[str, str]) -> PipelineConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="ascii") as fh:
                config = config_from_text(fh.read())
        except FileNotFoundError as exc:
            raise DataError(f"config file not found: {args.config}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"config file {args.config} is not ASCII: {exc}") from exc
    else:
        config = PipelineConfig()
    return apply_overrides(config, overrides)


def _cmd_synth(args, overrides: dict[str, str]) -> int:
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            values = synthgen.parse_flat_config(fh.read())
    except FileNotFoundError as exc:
        raise DataError(f"scenario file not found: {args.config}") from exc
    except ValueError as exc:
        raise DataError(f"malformed scenario file {args.config}: {exc}") from exc
    values.update(overrides)
    try:
        scenario = synthgen.config_from_values(values)
    except ValueError as exc:
        raise UsageError(f"bad scenario: {exc}") from exc
    gt = synthgen.save_scene(args.out, scenario)
    print(f"wrote {scenario.frames} frames, {len(gt.boxes)} boxes, "
          f"{len(gt.events)} events to {args.out}")
    return 0


def _cmd_train(args, overrides: dict[str, str]) -> int:
    config = _load_config(args, overrides)
    model = train(config)
    stumps = sum(len(s.stumps) for s in model.stages)
    print(f"trained {len(model.stages)} stages ({stumps} stumps) -> {config.model}")
    return 0


def _open_out(path: str | None):
    """The --out file, or stdout when none is given, for a `with` block."""
    return open(path, "w", encoding="ascii") if path else contextlib.nullcontext(sys.stdout)


def _cmd_detect(args, overrides: dict[str, str]) -> int:
    run = _Pass(_load_config(args, overrides))
    with _open_out(args.out) as out:
        for record in run.frames():
            for rect, score in record.detections:
                out.write(f"{record.index} {rect.x} {rect.y} {rect.w} {rect.h} {score:.6g}\n")
    return 0


def _cmd_track(args, overrides: dict[str, str]) -> int:
    run = _Pass(_load_config(args, overrides))
    with _open_out(args.out) as out:
        for record in run.frames():
            for track in record.live:
                out.write(track_log_line(record.index, track) + "\n")
    return 0


def _cmd_count(args, overrides: dict[str, str]) -> int:
    config = _load_config(args, overrides)
    if config.events_out:
        _check_out_path("events_out", config.events_out)
    report = run_pipeline(config)
    if config.events_out:
        with open(config.events_out, "w", encoding="ascii") as fh:
            for frame_idx, marker in report.events:
                fh.write(f"{frame_idx} {marker}\n")
    print(report_text(report))
    print(result_line(report))
    return 0


def _cmd_sweep(args, overrides: dict[str, str]) -> int:
    config = _load_config(args, overrides)
    grid: dict[str, list[str]] = {}
    for item in args.grid:
        if "=" not in item:
            raise UsageError(f"grid entries must be key=v1,v2,..., got {item!r}")
        key, values = (part.strip() for part in item.split("=", 1))
        if key in grid:
            raise UsageError(f"sweep key {key} is given in more than one --grid entry")
        grid[key] = [v.strip() for v in values.split(",") if v.strip()]
    header, rows = sweep(config, grid)
    print("\t".join(header))
    for row in rows:
        print("\t".join(row))
    return 0


def _cmd_bench(args, overrides: dict[str, str]) -> int:
    config = _load_config(args, overrides)
    for record in bench(config, args.warmup, args.frames):
        print(bench_line(record))
    return 0


def _cmd_eval(args, overrides: dict[str, str]) -> int:
    config = _load_config(args, overrides)
    if not config.scene:
        raise UsageError("eval requires a scene directory (key: scene)")
    counted = []
    try:
        with open(args.events, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                frame_idx, marker = (int(p) for p in line.split())
                counted.append((frame_idx, marker))
    except FileNotFoundError as exc:
        raise DataError(f"events file not found: {args.events}") from exc
    except ValueError as exc:
        raise DataError(f"malformed events file {args.events}: {exc}") from exc
    frame_paths = _scene_frame_paths(config.scene)
    width, height = _working_size(config, load_pgm(frame_paths[0]))
    n_markers = len(_resolve_markers(config, width, height).markers)
    _check_events(counted, n_markers, f"counted event in {args.events}", len(frame_paths))
    gt_pairs = _gt_pairs(config.scene, n_markers, required=True)
    report = make_report(counted, gt_pairs, config.match_tol, n_markers)
    print(result_line(report))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="roadcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="render a synthetic scene directory")
    synth.add_argument("--config", required=True, help="scenario config file")
    synth.add_argument("--out", required=True, help="output scene directory")
    synth.set_defaults(func=_cmd_synth)

    for name, func, help_text in (
        ("train", _cmd_train, "train a cascade model from a scene's scenario"),
        ("detect", _cmd_detect, "run the detector and emit per-frame detections"),
        ("track", _cmd_track, "run detector+tracker and emit track log lines"),
        ("count", _cmd_count, "run the full pipeline and report counts"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="pipeline config file")
        if name in ("detect", "track"):
            cmd.add_argument("--out", help="output file (default stdout)")
        cmd.set_defaults(func=func)

    swp = sub.add_parser("sweep", help="run a parameter grid")
    swp.add_argument("--config", help="pipeline config file")
    swp.add_argument("--grid", action="append", required=True,
                     help="key=v1,v2,... (repeatable)")
    swp.set_defaults(func=_cmd_sweep)

    bch = sub.add_parser("bench", help="time pipeline stages per frame")
    bch.add_argument("--config", help="pipeline config file")
    bch.add_argument("--warmup", type=int, default=5)
    bch.add_argument("--frames", type=int, default=50)
    bch.set_defaults(func=_cmd_bench)

    evl = sub.add_parser("eval", help="evaluate a counted-events file against GT")
    evl.add_argument("--config", help="pipeline config file")
    evl.add_argument("--events", required=True, help="counted events file (frame marker)")
    evl.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    try:
        overrides = _parse_overrides(rest)
        return args.func(args, overrides)
    except UsageError as exc:
        print(f"roadcount: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, PgmError, OSError) as exc:
        print(f"roadcount: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
