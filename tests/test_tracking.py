"""EKF state propagation, association and track lifecycle."""

import copy
import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np
import pytest

from roadcount import cli
from roadcount.imaging import Rect
from roadcount.tracking import (
    DEFAULT_P0,
    DEFAULT_Q,
    DEFAULT_R,
    StateVector,
    Track,
    Tracker,
    _bootstrap,
    _jacobian,
    _observed,
    _predict,
    _transition,
    _update,
    greedy_pairs,
    normalize_angle,
    track_log_line,
)

TWO_PI = 2.0 * math.pi


def _mk_track(track_id: int, x: float, y: float, **kwargs) -> Track:
    rect = Rect(max(0, int(x) - 5), max(0, int(y) - 5), 10, 10)
    defaults = dict(
        id=track_id,
        state=StateVector(x, y, 0.0, 0.0, 0.0, 0.0),
        covariance=DEFAULT_P0.copy(),
        last_rect=rect,
        anchor=(x, y),
    )
    defaults.update(kwargs)
    return Track(**defaults)


def _step(state: StateVector, t: float) -> StateVector:
    return _transition(state, math.cos(state.phi), math.sin(state.phi), t)


def _predicted(track: Track, t: float) -> Track:
    """A copy of track after the time update Tracker.step makes."""
    state, covariance = _predict(track.state, track.covariance, t, DEFAULT_Q)
    return replace(track, state=state, covariance=covariance)


def _updated(track: Track, rect: Rect) -> Track:
    """A copy of track after the measurement update and bookkeeping of an observed rect."""
    state, covariance = _update(track.state, track.covariance, *rect.center(), DEFAULT_R)
    track = replace(track, state=state, covariance=covariance)
    _observed(track, rect)
    return track


def _bootstrapped(track: Track, rect: Rect, t: float) -> Track:
    """A copy of track with speed and heading bootstrapped from an observed rect."""
    return replace(track, state=_bootstrap(track.state, *rect.center(), t))


def test_normalize_angle():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(TWO_PI) == 0.0
    assert normalize_angle(-math.pi / 2) == pytest.approx(1.5 * math.pi)
    assert normalize_angle(5 * math.pi) == pytest.approx(math.pi)
    rng = np.random.default_rng(127)
    for phi in rng.uniform(-50, 50, 500):
        out = normalize_angle(float(phi))
        assert 0.0 <= out < TWO_PI
        assert math.isclose(math.cos(out), math.cos(phi), abs_tol=1e-9)
        assert math.isclose(math.sin(out), math.sin(phi), abs_tol=1e-9)


def test_transition_hand_cases():
    s = StateVector(10.0, 20.0, 4.0, 0.0, 0.0, 0.0)
    assert _step(s, 1.0) == StateVector(14.0, 20.0, 4.0, 0.0, 0.0, 0.0)
    s = StateVector(10.0, 20.0, 4.0, 0.5, math.pi / 2, 0.1)
    out = _step(s, 2.0)
    assert out.x == pytest.approx(10.0)
    assert out.y == pytest.approx(12.0)  # phi = pi/2 heads up the image: y shrinks
    assert out.v == pytest.approx(5.0)
    assert out.a == 0.5 and out.omega == 0.1
    assert out.phi == pytest.approx(math.pi / 2 + 0.2)
    # turn rate wraps the heading back into [0, 2pi)
    spin = StateVector(0.0, 0.0, 0.0, 0.0, 6.0, 1.0)
    assert _step(spin, 1.0).phi == pytest.approx(7.0 - TWO_PI)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(131)
    t = 0.7
    h = 1e-6
    for _ in range(100):
        base = np.array(
            [
                rng.uniform(-50, 50),
                rng.uniform(-50, 50),
                rng.uniform(-20, 20),
                rng.uniform(-5, 5),
                rng.uniform(0.2, 6.0),  # keep phi clear of the wrap seam
                rng.uniform(-0.05, 0.05),
            ]
        )
        state = StateVector(*base)
        analytic = _jacobian(state.v, math.cos(state.phi), math.sin(state.phi), t)
        fd = np.empty((6, 6))
        for j in range(6):
            hi, lo = base.copy(), base.copy()
            hi[j] += h
            lo[j] -= h
            fd[:, j] = (
                np.array(astuple(_step(StateVector(*hi), t)))
                - np.array(astuple(_step(StateVector(*lo), t)))
            ) / (2 * h)
        scale = max(1.0, np.abs(analytic).max())
        assert np.abs(analytic - fd).max() / scale < 1e-6


def test_predict_covariance_rule():
    rng = np.random.default_rng(137)
    a = rng.normal(size=(6, 6))
    p = a @ a.T + np.eye(6)
    state = StateVector(30.0, 40.0, 3.0, 0.1, 1.0, 0.01)
    for t in (1.0, 2.5):
        out_state, out_p = _predict(state, p, t, DEFAULT_Q)
        f = _jacobian(state.v, math.cos(state.phi), math.sin(state.phi), t)
        assert np.allclose(out_p, f @ p @ f.T + DEFAULT_Q * t, atol=1e-12)
        assert out_state == _step(state, t)


def test_update_zero_innovation_keeps_mean():
    track = _mk_track(0, 55.0, 25.0)
    rect = Rect(50, 20, 10, 10)  # center exactly (55, 25)
    out = _updated(track, rect)
    assert out.state == track.state  # innovation is exactly zero
    assert out.frames_seen == track.frames_seen + 1
    assert out.last_seen_frame == track.last_seen_frame  # the tracker sets the frame
    assert out.total_distance == 0.0
    assert out.anchor == (55.0, 25.0)
    assert out.last_rect == rect
    assert np.array_equal(out.covariance, out.covariance.T)


def test_update_accumulates_distance_from_anchor():
    track = _mk_track(0, 10.0, 10.0, covariance=np.diag([1e-9] * 6))
    out = _updated(track, Rect(8, 16, 10, 10))  # center (13, 21)
    # with a near-certain prior the mean barely moves, so the accumulated
    # step is the anchor-to-new-mean distance, not anchor-to-measurement
    step = math.hypot(out.state.x - 10.0, out.state.y - 10.0)
    assert out.total_distance == pytest.approx(step)
    assert out.anchor == (out.state.x, out.state.y)


def test_covariance_stays_symmetric_positive_definite():
    rng = np.random.default_rng(139)
    state, p = StateVector(120.0, 60.0, 4.0, 0.0, 4.7, 0.0), DEFAULT_P0.copy()
    for i in range(1000):
        state, p = _predict(state, p, 1.0, DEFAULT_Q)
        cx = state.x + rng.normal(0.0, 1.0)
        cy = state.y + rng.normal(0.0, 1.0)
        x = min(max(0, int(round(cx - 5))), 10_000)
        y = min(max(0, int(round(cy - 5))), 10_000)
        state, p = _update(state, p, *Rect(x, y, 10, 10).center(), DEFAULT_R)
        assert np.abs(p - p.T).max() <= 1e-9
        np.linalg.cholesky(p)


def test_derive_kinematics_directions():
    cases = [
        ((4.0, 0.0), 0.0),  # right
        ((0.0, 4.0), 1.5 * math.pi),  # down the image
        ((0.0, -4.0), 0.5 * math.pi),  # up the image
        ((-4.0, 0.0), math.pi),  # left
        ((3.0, 3.0), 1.75 * math.pi),  # down-right diagonal
    ]
    start = StateVector(50.0, 50.0, 0.0, 0.0, 0.0, 0.0)
    for (dx, dy), want_phi in cases:
        out = _bootstrap(start, 50.0 + dx, 50.0 + dy, 1.0)
        assert out.phi == pytest.approx(want_phi)
        assert out.v == pytest.approx(math.hypot(dx, dy))
    moving = StateVector(50.0, 50.0, 3.0, 0.0, 1.0, 0.0)
    out = _bootstrap(moving, 50.0, 50.0, 1.0)
    assert out.v == 0.0 and out.phi == 1.0  # zero displacement
    out = _bootstrap(moving, 50.0, 58.0, 2.0)
    assert out.v == pytest.approx(4.0)  # displacement spread over t=2


def _matched_rects(tracker: Tracker, detections: list[Rect]) -> dict[int, Rect]:
    """Step tracker over detections; each live track's id and its latest rect."""
    live, _ = tracker.step(detections, 1.0)
    return {track.id: track.last_rect for track in live}


def test_step_matches_greedy_nearest_first():
    tracker = Tracker(gate=50.0)
    tracker.step([Rect(5, 5, 10, 10), Rect(25, 5, 10, 10)], 1.0)  # tracks at (10,10), (30,10)
    detections = [Rect(25, 5, 10, 10), Rect(7, 5, 10, 10)]  # centers (30,10), (12,10)
    # track 1 takes its 0 px detection first; track 0 then takes the 2 px one
    assert _matched_rects(tracker, detections) == {0: detections[1], 1: detections[0]}


def test_step_gate_and_ties():
    tracker = Tracker(gate=20.0)
    tracker.step([Rect(5, 5, 10, 10)], 1.0)  # track 0 at (10, 10)
    far = Rect(95, 5, 10, 10)  # 90 px away: beyond the gate, so it spawns track 1
    assert _matched_rects(tracker, [far]) == {0: Rect(5, 5, 10, 10), 1: far}
    assert tracker.tracks[0].last_seen_frame == 0
    # two detections equidistant from two tracks: ties go to the lower id
    tracker = Tracker(gate=50.0)
    tracker.step([Rect(15, 5, 10, 10), Rect(15, 5, 10, 10)], 1.0)  # tracks 0 and 1 at (20, 10)
    detections = [Rect(5, 5, 10, 10), Rect(25, 5, 10, 10)]  # both 10 px away
    assert _matched_rects(tracker, detections) == {0: detections[0], 1: detections[1]}


def test_greedy_pairs_take_candidates_in_cost_a_b_order():
    # equal costs break by a, then by b, whatever order the candidates come in
    candidates = [(1.0, 2, 0), (1.0, 1, 1), (1.0, 1, 0), (0.5, 3, 1), (2.0, 2, 2)]
    assert greedy_pairs(candidates) == [(3, 1), (1, 0), (2, 2)]
    assert greedy_pairs(reversed(candidates)) == [(3, 1), (1, 0), (2, 2)]
    assert greedy_pairs([]) == []


def test_tracker_straight_line_convergence():
    tracker = Tracker(gate=40.0)
    live = []
    for i in range(30):
        live, finished = tracker.step([Rect(50, 4 * i, 10, 10)], 1.0)
        assert finished == []
    assert len(live) == 1
    track = live[0]
    assert track.frames_seen == 30
    assert track.state.phi == pytest.approx(1.5 * math.pi, abs=1e-2)
    assert track.state.v == pytest.approx(4.0, abs=0.01)
    assert track.state.y == pytest.approx(121.0, abs=0.01)
    assert track.total_distance == pytest.approx(116.0, abs=0.1)
    assert track.last_seen_frame == 29


def test_tracker_miss_lifecycle():
    tracker = Tracker(gate=40.0, max_misses=2)
    tracker.step([Rect(50, 0, 10, 10)], 1.0)
    tracker.step([Rect(50, 4, 10, 10)], 1.0)
    live, finished = tracker.step([], 1.0)
    assert len(live) == 1 and tracker.frame_idx - live[0].last_seen_frame == 1
    assert finished == []
    live, finished = tracker.step([], 1.0)
    assert tracker.frame_idx - live[0].last_seen_frame == 2 and finished == []
    live, finished = tracker.step([], 1.0)
    assert live == [] and len(finished) == 1
    assert tracker.frame_idx - finished[0].last_seen_frame == 3
    assert finished[0].last_seen_frame == 1  # last frame with an observation


def test_tracker_spawns_and_flushes():
    tracker = Tracker(gate=20.0)
    live, _ = tracker.step([Rect(0, 0, 10, 10), Rect(100, 0, 10, 10)], 1.0)
    assert sorted(t.id for t in live) == [0, 1]
    live, _ = tracker.step([Rect(0, 4, 10, 10), Rect(100, 4, 10, 10), Rect(200, 0, 10, 10)], 1.0)
    assert sorted(t.id for t in live) == [0, 1, 2]
    flushed = tracker.flush()
    assert sorted(t.id for t in flushed) == [0, 1, 2]
    assert tracker.tracks == []
    live, _ = tracker.step([Rect(50, 50, 10, 10)], 1.0)
    assert live[0].id == 3  # ids never recycle


def test_tracker_validation():
    with pytest.raises(ValueError):
        Tracker(max_misses=-1)
    with pytest.raises(ValueError):
        Tracker(gate=0.0)
    tracker = Tracker()
    with pytest.raises(ValueError):
        tracker.step([], 0.0)


def test_track_log_line_format():
    track = _mk_track(3, 10.0, 20.0, frames_seen=7, total_distance=12.5)
    line = track_log_line(42, track)
    tokens = line.split()
    assert len(tokens) == 10
    assert tokens[0] == "42" and tokens[1] == "3"
    assert tokens[8] == "7" and float(tokens[9]) == 12.5


def test_update_matches_textbook_form():
    rng = np.random.default_rng(149)
    h = np.zeros((2, 6))
    h[0, 0] = h[1, 1] = 1.0
    for _ in range(500):
        a = rng.normal(size=(6, 6)) * rng.uniform(0.1, 10.0)
        p = a @ a.T + rng.uniform(1e-3, 1.0) * np.eye(6)
        b = rng.normal(size=(2, 2))
        r = b @ b.T + rng.uniform(0.1, 5.0) * np.eye(2)
        # an antisymmetric part keeps x^T R x > 0 and tells S^-1 from its transpose
        r += rng.normal() * np.array([[0.0, 1.0], [-1.0, 0.0]])
        state = StateVector(*rng.uniform(-50.0, 50.0, 4), rng.uniform(0.0, TWO_PI), rng.normal())
        zx, zy = state.x + rng.normal(0.0, 5.0), state.y + rng.normal(0.0, 5.0)
        got_state, got_p = _update(state, p, zx, zy, r)

        x = np.array(astuple(state))
        gain = p @ h.T @ np.linalg.inv(h @ p @ h.T + r)
        want_mean = x + gain @ (np.array([zx, zy]) - h @ x)
        want_p = (np.eye(6) - gain @ h) @ p
        want_p = (want_p + want_p.T) / 2.0

        got_mean = np.array(astuple(got_state))
        scale = np.abs(want_mean).max()
        # phi is compared modulo 2pi: the kernel maps it into [0, 2pi)
        got_mean[4] = want_mean[4] + math.remainder(got_mean[4] - want_mean[4], TWO_PI)
        assert np.abs(got_mean - want_mean).max() <= 1e-12 * scale
        assert np.abs(got_p - want_p).max() <= 1e-12 * np.abs(want_p).max()
        assert np.array_equal(got_p, got_p.T)


def test_update_singular_innovation_covariance_raises():
    state = StateVector(10.0, 10.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="singular innovation covariance"):
        _update(state, np.zeros((6, 6)), 13.0, 21.0, np.zeros((2, 2)))
    # rank-one S: the determinant cancels to exactly zero
    with pytest.raises(ValueError, match="singular innovation covariance"):
        _update(state, np.zeros((6, 6)), 13.0, 21.0, np.ones((2, 2)))
    # a non-finite determinant is refused as well
    with pytest.raises(ValueError, match="singular innovation covariance"):
        _update(state, np.diag([np.inf] * 6), 13.0, 21.0, DEFAULT_R)
    with pytest.raises(ValueError, match="singular innovation covariance"):
        _update(state, np.full((6, 6), np.nan), 13.0, 21.0, DEFAULT_R)


@dataclass
class _OracleTracker:
    gate: float
    max_misses: int
    tracks: list = field(default_factory=list)
    frame_idx: int = -1
    next_id: int = 0
    misses: dict = field(default_factory=dict)  # track id -> frames missed in a row


def _oracle_step(oracle: _OracleTracker, detections, t: float):
    """The functional tracker step: every track rebuilt each frame with
    dataclasses.replace, by _predicted, _bootstrapped and _updated. Tracks
    are matched by id and aged by a per-id miss count."""
    oracle.frame_idx += 1
    oracle.tracks = [_predicted(track, t) for track in oracle.tracks]
    centers = [rect.center() for rect in detections]
    pairs = greedy_pairs(
        (distance, track.id, det_idx)
        for track in oracle.tracks
        for det_idx, (cx, cy) in enumerate(centers)
        if (distance := math.hypot(track.state.x - cx, track.state.y - cy)) <= oracle.gate
    )
    by_id = {track.id: track for track in oracle.tracks}
    for track_id, det_idx in pairs:
        track = by_id[track_id]
        rect = detections[det_idx]
        if track.frames_seen == 1:
            track = _bootstrapped(track, rect, (oracle.misses[track_id] + 1) * t)
        track = _updated(track, rect)
        by_id[track_id] = replace(track, last_seen_frame=oracle.frame_idx)
    matched_ids = {track_id for track_id, _ in pairs}
    for track_id in by_id:
        oracle.misses[track_id] = 0 if track_id in matched_ids else oracle.misses[track_id] + 1
    live, finished = [], []
    for track in oracle.tracks:
        misses = oracle.misses[track.id]
        (finished if misses > oracle.max_misses else live).append(by_id[track.id])
    matched_dets = {det_idx for _, det_idx in pairs}
    for det_idx in [i for i in range(len(detections)) if i not in matched_dets]:
        rect = detections[det_idx]
        cx, cy = rect.center()
        live.append(Track(
            id=oracle.next_id,
            state=StateVector(cx, cy, 0.0, 0.0, 0.0, 0.0),
            covariance=DEFAULT_P0.copy(),
            last_rect=rect,
            last_seen_frame=oracle.frame_idx,
            anchor=(cx, cy),
        ))
        oracle.misses[oracle.next_id] = 0
        oracle.next_id += 1
    oracle.tracks = live
    return live, finished


def _fields(track: Track) -> dict:
    out = {f.name: getattr(track, f.name) for f in fields(track)}
    out["covariance"] = track.covariance.tolist()  # exact floats, element by element
    return out


def _assert_matches_oracle(frames, gate: float, max_misses: int, t: float) -> None:
    tracker = Tracker(gate=gate, max_misses=max_misses)
    oracle = _OracleTracker(gate, max_misses)
    n_finished = 0
    for index, detections in enumerate(frames):
        live, finished = tracker.step(detections, t)
        want_live, want_finished = _oracle_step(oracle, detections, t)
        assert [track_log_line(index, tr) for tr in live] == [
            track_log_line(index, tr) for tr in want_live
        ], f"frame {index}"
        assert [_fields(tr) for tr in live] == [_fields(tr) for tr in want_live]
        assert [_fields(tr) for tr in finished] == [_fields(tr) for tr in want_finished]
        n_finished += len(finished)
    assert [_fields(tr) for tr in tracker.flush()] == [_fields(tr) for tr in oracle.tracks]
    assert n_finished > 0


def _crafted_stream() -> list[list[Rect]]:
    frames = [
        [Rect(0, 0, 10, 10), Rect(100, 0, 10, 10)],  # spawn 0 and 1
        [Rect(0, 0, 10, 10), Rect(100, 4, 10, 10)],  # 0 bootstraps with zero displacement
        [Rect(0, 4, 10, 10), Rect(100, 8, 10, 10), Rect(50, 50, 10, 10), Rect(70, 50, 10, 10)],
        # one detection 10 px from both fresh tracks 2 and 3: the tie goes to id 2
        [Rect(0, 8, 10, 10), Rect(60, 50, 10, 10)],
        [],  # every track misses
        [Rect(100, 20, 10, 10)],  # 1 comes back after two misses
        [Rect(200, 100, 10, 10)],
        [],
        # track 4 bootstraps after a miss, over 2 * t
        [Rect(200, 108, 10, 10)],
        [Rect(300, 200, 10, 10)],
        # fresh track 5, two detections 5 px away: the lower index wins
        [Rect(295, 200, 10, 10), Rect(305, 200, 10, 10)],
        [], [], [], [],  # tracks past max_misses finish one by one
    ]
    rng = np.random.default_rng(151)
    cars = [(20.0, 0.0, 3.0), (140.0, 130.0, -4.0), (80.0, 40.0, 2.5)]
    for i in range(120):
        dets = []
        for x0, y0, vy in cars:
            if rng.uniform() < 0.8:
                y = y0 + vy * i + rng.normal(0.0, 1.5)
                dets.append(Rect(int(x0 + rng.normal(0.0, 1.5)), int(y) % 400, 10, 10))
        if rng.uniform() < 0.2:  # clutter
            dets.append(Rect(int(rng.uniform(0, 300)), int(rng.uniform(0, 400)), 8, 8))
        rng.shuffle(dets)
        frames.append(dets)
    return frames


@pytest.mark.parametrize("t", [1.0, 0.5])
def test_tracker_step_matches_functional_oracle_on_crafted_stream(t):
    _assert_matches_oracle(_crafted_stream(), gate=20.0, max_misses=2, t=t)


def test_tracker_step_matches_functional_oracle_on_scene(ten_vehicle_scene):
    run = cli._Pass(cli.PipelineConfig(scene=ten_vehicle_scene, detector="bgsub"))
    frames = [[rect for rect, _ in record.detections] for record in run.frames()]
    assert sum(map(len, frames)) > 100
    _assert_matches_oracle(frames, gate=run.tracker.gate,
                           max_misses=run.tracker.max_misses, t=1.0)


def test_finished_tracks_are_not_changed_by_later_steps():
    tracker = Tracker(gate=40.0, max_misses=1)
    tracker.step([Rect(50, 0, 10, 10), Rect(150, 0, 10, 10)], 1.0)
    live, _ = tracker.step([Rect(50, 4, 10, 10), Rect(150, 4, 10, 10)], 1.0)
    first = live[0]
    assert first is tracker.tracks[0]  # live tracks are the tracker's own objects
    tracker.step([Rect(150, 8, 10, 10)], 1.0)
    live, finished = tracker.step([Rect(150, 12, 10, 10)], 1.0)
    assert [tr.id for tr in finished] == [0] and finished[0] is first
    finished_fields = copy.deepcopy(_fields(first))
    live_track = live[0]
    before = live_track.state
    # detections where the finished track would match if it were still live
    for i in range(4):
        tracker.step([Rect(50, 16 + 4 * i, 10, 10), Rect(150, 16 + 4 * i, 10, 10)], 1.0)
    assert live_track.state != before  # a live track moves on in place
    flushed = tracker.flush()
    flushed_fields = [copy.deepcopy(_fields(tr)) for tr in flushed]
    for i in range(3):
        tracker.step([Rect(150, 32 + 4 * i, 10, 10)], 1.0)
    assert _fields(first) == finished_fields
    assert [_fields(tr) for tr in flushed] == flushed_fields
