"""Marker counting rules, accuracy arithmetic and event evaluation."""

import math

import numpy as np
import pytest

from roadcount.counting import (
    PHI_MAX,
    PHI_MIN,
    CountingPolicy,
    CountingReport,
    MarkerSet,
    accuracy,
    direction_in_interval,
    evaluate_counts,
    make_report,
    result_line,
    should_count,
)
from roadcount.imaging import Rect
from roadcount.tracking import StateVector, Track

# (fp, fn, gt) -> integer accuracy, spanning the operating points of both
# detector variants at several thresholds and track-length cutoffs
ACCURACY_ROWS = [
    (4, 2, 133, 95),
    (2, 6, 133, 94),
    (5, 6, 133, 92),
    (5, 8, 133, 90),
    (4, 4, 133, 94),
    (3, 6, 133, 93),
    (4, 6, 133, 92),
    (4, 8, 133, 91),
    (0, 6, 133, 95),
    (0, 7, 133, 95),
    (0, 7, 133, 95),
    (3, 5, 133, 94),
    (3, 6, 133, 93),
    (0, 9, 133, 93),
    (0, 9, 133, 93),
    (0, 9, 133, 93),
    (0, 9, 133, 93),
    (0, 9, 133, 93),
]


def _mk_track(
    frames_seen=20,
    last_rect=Rect(10, 110, 30, 20),
    phi=1.5 * math.pi,
    total_distance=100.0,
):
    return Track(
        id=0,
        state=StateVector(25.0, 120.0, 4.0, 0.0, phi, 0.0),
        covariance=np.eye(6),
        last_rect=last_rect,
        frames_seen=frames_seen,
        total_distance=total_distance,
    )


MARKERS = MarkerSet.from_rects([Rect(4, 113, 112, 22), Rect(124, 113, 112, 22)])


def test_accuracy_reference_rows():
    for fp, fn, gt, want in ACCURACY_ROWS:
        real, integer = accuracy(fp, fn, gt)
        assert integer == want
        assert real == pytest.approx((1 - (fp + fn) / gt) * 100)


def test_accuracy_rounding_half_away_from_zero():
    assert accuracy(0, 0, 100) == (100.0, 100)
    assert accuracy(5, 0, 200)[1] == 98  # 97.5 rounds up
    assert accuracy(60, 63, 100)[1] == -23
    real, integer = accuracy(150, 55, 100)
    assert real == pytest.approx(-105.0) and integer == -105
    with pytest.raises(ValueError):
        accuracy(0, 0, 0)
    with pytest.raises(ValueError):
        accuracy(1, 1, -5)


def test_marker_set_validation():
    with pytest.raises(ValueError):
        MarkerSet.from_rects([])
    with pytest.raises(ValueError):
        MarkerSet.from_rects([Rect(0, 0, 10, 10), Rect(5, 5, 10, 10)])
    MarkerSet.from_rects([Rect(0, 0, 10, 10), Rect(10, 0, 10, 10)])  # touching is fine
    MARKERS.check_bottom_third(240, 135)
    with pytest.raises(ValueError):
        MarkerSet.from_rects([Rect(0, 0, 10, 10)]).check_bottom_third(240, 135)


def test_direction_interval_is_closed():
    assert direction_in_interval(PHI_MIN)
    assert direction_in_interval(PHI_MAX)
    assert direction_in_interval(1.5 * math.pi)
    assert not direction_in_interval(math.nextafter(PHI_MIN, 0.0))
    assert not direction_in_interval(math.nextafter(PHI_MAX, 7.0))
    assert not direction_in_interval(0.0)
    assert not direction_in_interval(math.pi / 2)
    assert direction_in_interval(1.5 * math.pi - 2 * math.pi)  # normalized first


def test_counting_policy_validation():
    with pytest.raises(ValueError):
        CountingPolicy(mode="other", tfc=8)
    with pytest.raises(ValueError):
        CountingPolicy(mode="bgsub", tfc=-1)
    with pytest.raises(ValueError):
        CountingPolicy(mode="feature", tfc=8, distance_fraction=0.0)
    with pytest.raises(ValueError):
        CountingPolicy(mode="feature", tfc=8, distance_fraction=1.5)


def test_should_count_bgsub_rules():
    policy = CountingPolicy(mode="bgsub", tfc=8)
    ok, marker = should_count(_mk_track(), policy, MARKERS, 240, 135)
    assert ok and marker == 0
    # frames_seen must strictly exceed TFC
    assert should_count(_mk_track(frames_seen=8), policy, MARKERS, 240, 135) == (False, None)
    ok, _ = should_count(_mk_track(frames_seen=9), policy, MARKERS, 240, 135)
    assert ok
    # the last rect must overlap some marker
    off = _mk_track(last_rect=Rect(10, 10, 30, 20))
    assert should_count(off, policy, MARKERS, 240, 135) == (False, None)
    # the heading must lie in the direction interval
    sideways = _mk_track(phi=0.0)
    assert should_count(sideways, policy, MARKERS, 240, 135) == (False, None)


def test_should_count_bgsub_marker_choice():
    policy = CountingPolicy(mode="bgsub", tfc=0)
    # the marker with the larger overlap wins
    right_heavy = _mk_track(last_rect=Rect(110, 113, 40, 20))  # 6 px vs 26 px
    ok, marker = should_count(right_heavy, policy, MARKERS, 240, 135)
    assert ok and marker == 1
    left_heavy = _mk_track(last_rect=Rect(90, 113, 40, 20))
    ok, marker = should_count(left_heavy, policy, MARKERS, 240, 135)
    assert ok and marker == 0
    # equal overlap (16 px each side) ties to the lower index
    tied = _mk_track(last_rect=Rect(100, 113, 40, 20))
    ok, marker = should_count(tied, policy, MARKERS, 240, 135)
    assert ok and marker == 0


def test_should_count_feature_rules():
    policy = CountingPolicy(mode="feature", tfc=8, distance_fraction=0.2)
    ok, marker = should_count(_mk_track(total_distance=48.1), policy, MARKERS, 240, 135)
    assert ok and marker == 0
    # travel must strictly exceed fraction * max(frame dims) = 48
    short = _mk_track(total_distance=48.0)
    assert should_count(short, policy, MARKERS, 240, 135) == (False, None)
    # off-marker tracks fall back to the nearest marker
    drifted = _mk_track(last_rect=Rect(130, 90, 30, 20), total_distance=60.0)
    ok, marker = should_count(drifted, policy, MARKERS, 240, 135)
    assert ok and marker == 1
    strict = CountingPolicy(
        mode="feature", tfc=8, distance_fraction=0.2, require_marker_overlap=True
    )
    assert should_count(drifted, strict, MARKERS, 240, 135) == (False, None)
    on_marker = _mk_track(total_distance=60.0)
    ok, marker = should_count(on_marker, strict, MARKERS, 240, 135)
    assert ok and marker == 0
    # heading never matters in feature mode
    sideways = _mk_track(phi=0.0, total_distance=60.0)
    assert should_count(sideways, policy, MARKERS, 240, 135)[0]


def test_evaluate_counts_greedy_matching():
    gt = [(100, 0), (150, 1), (200, 0)]
    assert evaluate_counts([(100, 0), (150, 1), (200, 0)], gt, 0) == (0, 0)
    assert evaluate_counts([(110, 0), (160, 1), (190, 0)], gt, 25) == (0, 0)
    # wrong marker never matches, whatever the frame distance
    assert evaluate_counts([(100, 1)], [(100, 0)], 1000) == (1, 1)
    # tolerance boundary is inclusive
    assert evaluate_counts([(125, 0)], [(100, 0)], 25) == (0, 0)
    assert evaluate_counts([(126, 0)], [(100, 0)], 25) == (1, 1)
    # each GT event absorbs at most one counted event
    assert evaluate_counts([(100, 0), (101, 0)], [(100, 0)], 25) == (1, 0)
    assert evaluate_counts([(100, 0)], [(100, 0), (101, 0)], 25) == (0, 1)
    # nearest pairs win: the 105 event takes the 104 GT, leaving 90 for 91
    assert evaluate_counts([(105, 0), (91, 0)], [(104, 0), (90, 0)], 3) == (0, 0)
    with pytest.raises(ValueError):
        evaluate_counts([], [], -1)


def test_make_report_and_result_line():
    report = make_report([(100, 0), (300, 1), (500, 0)], [(100, 0), (300, 1)], 25, 2)
    assert report.counted_per_marker == (2, 1)
    assert report.counted_total == 3
    assert report.fp == 1 and report.fn == 0 and report.gt == 2
    assert report.accuracy_real == pytest.approx(50.0)
    assert report.accuracy_int == 50
    assert result_line(report) == "RESULT fp=1 fn=0 gt=2 acc_real=50.00 acc_int=50 counted=3"


def test_make_report_empty_gt():
    report = make_report([(10, 0)], [], 25, 1)
    assert report.gt == 0
    assert report.accuracy_real is None and report.accuracy_int is None
    assert result_line(report) == "RESULT fp=1 fn=0 gt=0 acc_real=NA acc_int=NA counted=1"
    empty = make_report([], [], 25, 2)
    assert empty.counted_total == 0 and empty.counted_per_marker == (0, 0)
    assert isinstance(empty, CountingReport)
