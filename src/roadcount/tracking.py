"""Per-vehicle extended Kalman filtering, association and track lifecycle.

State is (x, y, v, a, phi, omega) in image coordinates: position in px,
speed px/s, acceleration px/s^2, heading rad in [0, 2pi), turn rate rad/s.
Rows grow downward, so headings negate the row axis: the bootstrap takes
atan2(-dy, dx), the transition and its Jacobian move y by -v t sin(phi), and
straight-down motion has phi = 3pi/2, inside counting's direction interval.
Only positions are observed; speed and heading are bootstrapped from a
track's first two observations and then inferred by the filter.

Tracker.step runs the filter in place through the kernels _predict,
_bootstrap, _update and _observed, and matches by greedy_pairs over
(distance, track position, detection index); tracks stay in ascending id
order, so ties go to the older track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .imaging import Rect

DEFAULT_Q = np.diag([1.0, 1.0, 4.0, 1.0, 0.01, 0.001])
DEFAULT_R = np.diag([4.0, 4.0])
DEFAULT_P0 = np.diag([25.0, 25.0, 100.0, 25.0, 1.0, 0.1])
DEFAULT_GATE_FRACTION = 0.25
DEFAULT_MAX_MISSES = 5

_EYE6 = np.eye(6)


def normalize_angle(phi: float) -> float:
    """Map an angle to [0, 2pi)."""
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi < 0.0:
        phi += 2.0 * math.pi
    return phi if phi < 2.0 * math.pi else 0.0


@dataclass(frozen=True)
class StateVector:
    x: float
    y: float
    v: float
    a: float
    phi: float
    omega: float


@dataclass
class Track:
    """One tracked vehicle: filter state plus lifecycle bookkeeping.

    anchor is the filtered position at the latest observation; per-step
    displacement between consecutive anchors accumulates into
    total_distance. last_seen_frame is the frame of that observation (or spawn).
    """

    id: int
    state: StateVector
    covariance: np.ndarray
    last_rect: Rect
    frames_seen: int = 1
    total_distance: float = 0.0
    last_seen_frame: int = 0
    anchor: tuple[float, float] = field(default=(0.0, 0.0))


def _transition(state: StateVector, c: float, s: float, t: float) -> StateVector:
    """Constant-turn-rate/constant-acceleration step of length t seconds,
    given c, s = cos(state.phi), sin(state.phi)."""
    return StateVector(
        x=state.x + state.v * t * c,
        y=state.y - state.v * t * s,
        v=state.v + state.a * t,
        a=state.a,
        phi=normalize_angle(state.phi + state.omega * t),
        omega=state.omega,
    )


def _jacobian(v: float, c: float, s: float, t: float) -> np.ndarray:
    """Analytic Jacobian of _transition at speed v, given c, s = cos(phi), sin(phi)."""
    f = _EYE6.copy()
    f[0, 2] = t * c
    f[0, 4] = -v * t * s
    f[1, 2] = -t * s
    f[1, 4] = -v * t * c
    f[2, 3] = t
    f[4, 5] = t
    return f


def _predict(
    state: StateVector, p: np.ndarray, t: float, q: np.ndarray
) -> tuple[StateVector, np.ndarray]:
    """EKF time-update kernel: (state, P) -> (f(state), F*P*F^T + q*t), q per second."""
    c = math.cos(state.phi)
    s = math.sin(state.phi)
    f = _jacobian(state.v, c, s, t)
    return _transition(state, c, s, t), f @ p @ f.T + q * t


def _update(
    state: StateVector, p: np.ndarray, zx: float, zy: float, r: np.ndarray
) -> tuple[StateVector, np.ndarray]:
    """EKF measurement-update kernel for an observed position (zx, zy).

    H selects (x, y), so P*H^T is P[:, :2] and S = H*P*H^T + R is
    P[:2, :2] + R exactly. S is inverted in closed form, the gain
    K = P*H^T*S^-1 is formed in scalars, and P becomes P - K*P[:2, :],
    symmetrised.
    """
    ph = p[:, :2].tolist()
    (r00, r01), (r10, r11) = r.tolist()
    s00, s01 = ph[0][0] + r00, ph[0][1] + r01
    s10, s11 = ph[1][0] + r10, ph[1][1] + r11
    det = s00 * s11 - s01 * s10
    if det == 0.0 or not math.isfinite(det):
        s = np.array([[s00, s01], [s10, s11]])
        raise ValueError(f"singular innovation covariance {s!r}")
    i00, i01, i10, i11 = s11 / det, -s01 / det, -s10 / det, s00 / det
    gain = [(c0 * i00 + c1 * i10, c0 * i01 + c1 * i11) for c0, c1 in ph]
    dx = zx - state.x
    dy = zy - state.y
    x, y, v, a, phi, omega = [
        m + (k0 * dx + k1 * dy)
        for m, (k0, k1) in zip((state.x, state.y, state.v, state.a, state.phi, state.omega), gain)
    ]
    p = p - np.array(gain) @ p[:2]
    p += p.T
    p /= 2.0
    return StateVector(x, y, v, a, normalize_angle(phi), omega), p


def _bootstrap(state: StateVector, zx: float, zy: float, t: float) -> StateVector:
    """Speed and heading from the displacement to (zx, zy) over t seconds; zero
    displacement keeps the heading and sets speed to zero."""
    dx = zx - state.x
    dy = zy - state.y
    if dx == 0.0 and dy == 0.0:
        return StateVector(state.x, state.y, 0.0, state.a, state.phi, state.omega)
    return StateVector(
        state.x, state.y, math.hypot(dx, dy) / t, state.a,
        normalize_angle(math.atan2(-dy, dx)), state.omega,
    )


def _observed(track: Track, rect: Rect) -> None:
    """Lifecycle bookkeeping, in place, after track.state took in an observation of rect."""
    x, y = track.state.x, track.state.y
    track.total_distance += math.hypot(x - track.anchor[0], y - track.anchor[1])
    track.anchor = (x, y)
    track.frames_seen += 1
    track.last_rect = rect


def greedy_pairs(candidates: Iterable[tuple[float, int, int]]) -> list[tuple[int, int]]:
    """Greedy nearest-first matching: the (a, b) of each candidate (cost, a, b), taken
    in ascending (cost, a, b) order, whose a and b no earlier pair holds."""
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs = []
    for _, a, b in sorted(candidates):
        if a not in used_a and b not in used_b:
            pairs.append((a, b))
            used_a.add(a)
            used_b.add(b)
    return pairs


class Tracker:
    """Sequential multi-object EKF tracker over a frame stream."""

    def __init__(self, gate: float = 60.0, max_misses: int = DEFAULT_MAX_MISSES):
        if gate <= 0.0:
            raise ValueError(f"gate must be positive, got {gate}")
        if max_misses < 0:
            raise ValueError(f"max_misses must be >= 0, got {max_misses}")
        self.gate = gate
        self.max_misses = max_misses
        self.tracks: list[Track] = []
        self.frame_idx = -1
        self._next_id = 0

    def _spawn(self, rect: Rect) -> Track:
        cx, cy = rect.center()
        track = Track(
            id=self._next_id,
            state=StateVector(cx, cy, 0.0, 0.0, 0.0, 0.0),
            covariance=DEFAULT_P0.copy(),
            last_rect=rect,
            frames_seen=1,
            last_seen_frame=self.frame_idx,
            anchor=(cx, cy),
        )
        self._next_id += 1
        return track

    def step(self, detections: Sequence[Rect], t: float = 1.0) -> tuple[list[Track], list[Track]]:
        """Advance one frame; returns (live tracks, tracks finished this frame).

        Tracks match detection centers within the gate, nearest first; one
        unseen for more than max_misses frames finishes. The tracks are the
        tracker's own objects, updated in place: a live track returned here
        changes with later steps, while a finished track (here or from
        flush) is never touched again.
        """
        if t <= 0.0:
            raise ValueError(f"time step must be positive, got {t}")
        self.frame_idx += 1
        for track in self.tracks:
            track.state, track.covariance = _predict(track.state, track.covariance, t, DEFAULT_Q)
        centers = [rect.center() for rect in detections]
        pairs = greedy_pairs(
            (distance, i, j)
            for i, track in enumerate(self.tracks)
            for j, (cx, cy) in enumerate(centers)
            if (distance := math.hypot(track.state.x - cx, track.state.y - cy)) <= self.gate
        )
        for i, j in pairs:
            track = self.tracks[i]
            zx, zy = centers[j]
            state = track.state
            if track.frames_seen == 1:
                state = _bootstrap(state, zx, zy, (self.frame_idx - track.last_seen_frame) * t)
            track.state, track.covariance = _update(state, track.covariance, zx, zy, DEFAULT_R)
            _observed(track, detections[j])
            track.last_seen_frame = self.frame_idx
        oldest = self.frame_idx - self.max_misses
        live = [track for track in self.tracks if track.last_seen_frame >= oldest]
        finished = [track for track in self.tracks if track.last_seen_frame < oldest]
        matched = {j for _, j in pairs}
        live += [self._spawn(rect) for j, rect in enumerate(detections) if j not in matched]
        self.tracks = live
        return live, finished

    def flush(self) -> list[Track]:
        """Finish every remaining track (end of the frame stream)."""
        finished = self.tracks
        self.tracks = []
        return finished


def track_log_line(frame_idx: int, track: Track) -> str:
    """One text-log line: frame_idx track_id x y v a phi omega frames_seen total_distance."""
    s = track.state
    return (
        f"{frame_idx} {track.id} {s.x:.6g} {s.y:.6g} {s.v:.6g} {s.a:.6g} "
        f"{s.phi:.6g} {s.omega:.6g} {track.frames_seen} {track.total_distance:.6g}"
    )
