"""Virtual-marker vehicle counting policies and accuracy evaluation.

A finished track is counted when it satisfies the active rule set: the
background-subtraction rules (seen long enough, final rect on a marker,
and, when filter headings exist, moving inside the downward direction
interval) or the feature-detector rules (seen long enough and travelled far
enough). Accuracy is (1 - (FP+FN)/GT) * 100 with the integer form rounded
half away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .imaging import Rect, round_half_up
from .tracking import Track, greedy_pairs, normalize_angle

PHI_MIN = 9.0 * math.pi / 8.0
PHI_MAX = 15.0 * math.pi / 8.0
DEFAULT_DISTANCE_FRACTION = 0.2


@dataclass(frozen=True)
class MarkerSet:
    """Counting markers, one per lane, pairwise non-overlapping."""

    markers: tuple[Rect, ...]

    def __post_init__(self):
        if not self.markers:
            raise ValueError("marker set must not be empty")
        for i, a in enumerate(self.markers):
            for b in self.markers[i + 1 :]:
                if a.overlaps(b):
                    raise ValueError(f"markers {a} and {b} overlap")

    @classmethod
    def from_rects(cls, rects) -> "MarkerSet":
        return cls(tuple(rects))

    def check_bottom_third(self, frame_w: int, frame_h: int) -> None:
        """Markers must overlap the bottom third of the frame."""
        top = frame_h - frame_h // 3
        band = Rect(0, top, frame_w, frame_h - top)
        for marker in self.markers:
            if not marker.overlaps(band):
                raise ValueError(f"marker {marker} misses the bottom third of {frame_w}x{frame_h}")


@dataclass(frozen=True)
class CountingPolicy:
    """Rule set selector plus its thresholds.

    mode "bgsub": count iff frames_seen > tfc, the last rect overlaps a
    marker, and (when the track has a valid heading) the heading lies in
    [phi_min, phi_max]. mode "feature": count iff frames_seen > tfc and
    total_distance > distance_fraction * max(frame dims); marker overlap is
    only required when require_marker_overlap is set.
    """

    mode: str
    tfc: int
    phi_min: float = PHI_MIN
    phi_max: float = PHI_MAX
    distance_fraction: float = DEFAULT_DISTANCE_FRACTION
    require_marker_overlap: bool = False

    def __post_init__(self):
        if self.mode not in ("bgsub", "feature"):
            raise ValueError(f"mode must be 'bgsub' or 'feature', got {self.mode!r}")
        if self.tfc < 0:
            raise ValueError(f"TFC must be >= 0, got {self.tfc}")
        if not 0.0 < self.distance_fraction <= 1.0:
            raise ValueError(f"distance_fraction must lie in (0, 1], got {self.distance_fraction}")


def direction_in_interval(phi: float, phi_min: float = PHI_MIN, phi_max: float = PHI_MAX) -> bool:
    """True iff phi (normalized to [0, 2pi)) lies in the closed interval."""
    return phi_min <= normalize_angle(phi) <= phi_max


def _overlapped_marker(rect: Rect, markers: MarkerSet) -> int | None:
    """Index of the marker with the largest positive overlap, ties to the lowest index."""
    best = None
    best_area = 0
    for i, marker in enumerate(markers.markers):
        area = rect.intersection_area(marker)
        if area > best_area:
            best = i
            best_area = area
    return best


def _nearest_marker(rect: Rect, markers: MarkerSet) -> int:
    cx, cy = rect.center()
    distances = [
        (math.hypot(cx - mx, cy - my), i)
        for i, (mx, my) in enumerate(m.center() for m in markers.markers)
    ]
    return min(distances)[1]


def should_count(
    track: Track,
    policy: CountingPolicy,
    markers: MarkerSet,
    frame_w: int,
    frame_h: int,
) -> tuple[bool, int | None]:
    """Decide whether a finished track is a counted vehicle, and on which marker."""
    if track.frames_seen <= policy.tfc:
        return False, None
    if policy.mode == "bgsub":
        marker = _overlapped_marker(track.last_rect, markers)
        if marker is None:
            return False, None
        if track.heading_valid and not direction_in_interval(
            track.state.phi, policy.phi_min, policy.phi_max
        ):
            return False, None
        return True, marker
    if track.total_distance <= policy.distance_fraction * max(frame_w, frame_h):
        return False, None
    if policy.require_marker_overlap:
        marker = _overlapped_marker(track.last_rect, markers)
        if marker is None:
            return False, None
        return True, marker
    return True, _nearest_marker(track.last_rect, markers)


def count_tracks(
    finished: list[Track],
    policy: CountingPolicy,
    markers: MarkerSet,
    frame_w: int,
    frame_h: int,
) -> list[tuple[int, int]]:
    """Counted (last seen frame, marker) events of finished tracks, in track order."""
    counted = []
    for track in finished:
        ok, marker = should_count(track, policy, markers, frame_w, frame_h)
        if ok:
            counted.append((track.last_seen_frame, marker))
    return counted


def accuracy(fp: int, fn: int, gt: int) -> tuple[float, int]:
    """(real percent, integer percent) of (1 - (FP+FN)/GT) * 100."""
    if gt <= 0:
        raise ValueError(f"GT must be positive, got {gt}")
    real = (1.0 - (fp + fn) / gt) * 100.0
    return real, round_half_up(real)


def evaluate_counts(
    counted: list[tuple[int, int]], gt: list[tuple[int, int]], tol: int
) -> tuple[int, int]:
    """Greedy nearest-first matching (greedy_pairs) of counted to GT (frame, marker) events.

    Events match only on the same marker within |frame difference| <= tol;
    unmatched counted events are FP, unmatched GT events are FN.
    """
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    matched = len(greedy_pairs(
        (abs(cf - gf), ci, gi)
        for ci, (cf, cm) in enumerate(counted)
        for gi, (gf, gm) in enumerate(gt)
        if cm == gm and abs(cf - gf) <= tol
    ))
    return len(counted) - matched, len(gt) - matched


@dataclass(frozen=True)
class CountingReport:
    """Counted events with their evaluation against ground truth.

    accuracy fields are None when GT is empty (accuracy undefined).
    """

    counted_per_marker: tuple[int, ...]
    counted_total: int
    fp: int
    fn: int
    gt: int
    accuracy_real: float | None
    accuracy_int: int | None
    events: tuple[tuple[int, int], ...]


def make_report(
    counted_events: list[tuple[int, int]],
    gt_events: list[tuple[int, int]],
    tol: int,
    n_markers: int,
) -> CountingReport:
    """Evaluate counted (frame, marker) events against ground truth."""
    fp, fn = evaluate_counts(counted_events, gt_events, tol)
    per_marker = [0] * n_markers
    for _, marker in counted_events:
        per_marker[marker] += 1
    gt = len(gt_events)
    if gt > 0:
        real, rounded = accuracy(fp, fn, gt)
    else:
        real, rounded = None, None
    return CountingReport(
        counted_per_marker=tuple(per_marker),
        counted_total=len(counted_events),
        fp=fp,
        fn=fn,
        gt=gt,
        accuracy_real=real,
        accuracy_int=rounded,
        events=tuple(counted_events),
    )


def accuracy_fields(report: CountingReport) -> tuple[str, str]:
    """acc_real to two decimals and acc_int, both NA when GT is empty."""
    if report.accuracy_real is None:
        return "NA", "NA"
    return f"{report.accuracy_real:.2f}", str(report.accuracy_int)


def result_line(report: CountingReport) -> str:
    """Machine-readable one-liner; accuracy printed as NA when GT is empty."""
    acc_real, acc_int = accuracy_fields(report)
    return (
        f"RESULT fp={report.fp} fn={report.fn} gt={report.gt} "
        f"acc_real={acc_real} acc_int={acc_int} counted={report.counted_total}"
    )


def report_text(report: CountingReport) -> str:
    """Human-readable report block."""
    lines = [f"counted total: {report.counted_total}"]
    for i, n in enumerate(report.counted_per_marker):
        lines.append(f"counted marker {i}: {n}")
    lines.append(f"false positives: {report.fp}")
    lines.append(f"false negatives: {report.fn}")
    lines.append(f"ground truth: {report.gt}")
    if report.accuracy_real is None:
        lines.append("accuracy: undefined (no ground-truth events)")
    else:
        lines.append(f"accuracy: {report.accuracy_real:.2f}% ({report.accuracy_int}%)")
    return "\n".join(lines)
