"""End-to-end tests for the command line interface and pipeline driver."""

import itertools
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from roadcount import cli, synthgen
from roadcount.cli import PipelineConfig, UsageError
from roadcount.counting import CountingReport, result_line


PERFECT = "RESULT fp=0 fn=0 gt=10 acc_real=100.00 acc_int=100 counted=10"


def _small_scenario_text() -> str:
    from roadcount import synthgen

    scenario = synthgen.ScenarioConfig(
        width=64,
        height=48,
        frames=16,
        markers=synthgen.default_markers(64, 48),
        spawns=synthgen.spawn_schedule(2, 4, 2, 4.0, 12, 12),
        seed=3,
        background_seed=1,
    )
    return synthgen.config_to_text(scenario)


def test_config_text_round_trip_defaults():
    config = PipelineConfig()
    assert cli.config_from_text(cli.config_to_text(config)) == config


def test_config_text_round_trip_custom():
    config = PipelineConfig(
        scene="/some/scene",
        model="/some/model.txt",
        detector="feature",
        th=12.5,
        tfc=9,
        scales=(1.0, 1.25, 1.6),
        require_marker_overlap=True,
        markers="4,113,112,22;124,113,112,22",
    )
    assert cli.config_from_text(cli.config_to_text(config)) == config


def test_apply_overrides_coercion():
    config = cli.apply_overrides(
        PipelineConfig(),
        {
            "th": "12.5",
            "tfc": "9",
            "scales": "1.1, 1.25",
            "detector": "feature",
            "require_marker_overlap": "yes",
        },
    )
    assert config.th == 12.5
    assert config.tfc == 9
    assert config.scales == (1.1, 1.25)
    assert config.detector == "feature"
    assert config.require_marker_overlap is True
    for raw, expected in (
        ("true", True), ("1", True), ("YES", True),
        ("false", False), ("0", False), ("no", False),
    ):
        out = cli.apply_overrides(PipelineConfig(), {"require_marker_overlap": raw})
        assert out.require_marker_overlap is expected


def test_apply_overrides_rejects_unknown_key():
    with pytest.raises(UsageError, match="unknown config keys"):
        cli.apply_overrides(PipelineConfig(), {"threshold": "10"})


def test_apply_overrides_rejects_bad_values():
    with pytest.raises(UsageError, match="bad value for th"):
        cli.apply_overrides(PipelineConfig(), {"th": "abc"})
    with pytest.raises(UsageError, match="boolean"):
        cli.apply_overrides(PipelineConfig(), {"require_marker_overlap": "maybe"})
    with pytest.raises(UsageError, match="detector"):
        cli.apply_overrides(PipelineConfig(), {"detector": "sonar"})
    for key, raw in (
        ("mhr", "0"), ("stages", "0"), ("tfc", "-1"), ("mcc", "0"), ("scales", ""),
        ("scales", "1.5,1.2"), ("open_radius", "-1"), ("gate_fraction", "0"),
        ("distance_fraction", "1.5"), ("phi_min", "6.0"), ("window_w", "8"),
        ("train_neg", "0"), ("train_hard", "-1"), ("match_tol", "-3"), ("phi_max", "-inf"),
    ):
        with pytest.raises(UsageError, match=key):
            cli.apply_overrides(PipelineConfig(), {key: raw})


def test_config_from_text_rejects_malformed_input():
    for text in ("not_a_key = 3\n", "seed = 0\n"):
        with pytest.raises(UsageError, match="unknown config keys"):
            cli.config_from_text(text)
    with pytest.raises(UsageError):
        cli.config_from_text("just some words\n")


def test_count_command_bgsub(ten_vehicle_scene, tmp_path, capsys):
    events_path = tmp_path / "events.txt"
    rc = cli.main([
        "count", "--scene", ten_vehicle_scene, "--events_out", str(events_path),
    ])
    assert rc == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[-1] == PERFECT

    events = [tuple(int(p) for p in line.split()) for line in events_path.read_text().split("\n") if line]
    assert len(events) == 10
    frames = [frame for frame, _ in events]
    assert frames == sorted(frames)
    markers = [marker for _, marker in events]
    assert sorted(set(markers)) == [0, 1]
    assert markers.count(0) == 5 and markers.count(1) == 5


def test_count_command_reads_config_file(ten_vehicle_scene, tmp_path, capsys):
    config = PipelineConfig(scene=ten_vehicle_scene)
    path = tmp_path / "pipeline.cfg"
    path.write_text(cli.config_to_text(config), encoding="ascii")
    rc = cli.main(["count", "--config", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == PERFECT


def test_count_rejects_non_ascii_config(ten_vehicle_scene, tmp_path, capsys):
    path = tmp_path / "pipeline.cfg"
    text = "# caf\u00e9\n" + cli.config_to_text(PipelineConfig(scene=ten_vehicle_scene))
    path.write_text(text, encoding="utf-8")
    rc = cli.main(["count", "--config", str(path)])
    _one_line_failure(
        capsys, rc, 1,
        f"roadcount: error: config file {path} is not ASCII: 'ascii' codec can't decode "
        "byte 0xc3 in position 5: ordinal not in range(128)",
    )


def test_feature_pipeline_close_to_bgsub(ten_vehicle_scene, small_cascade):
    base = PipelineConfig(scene=ten_vehicle_scene)
    bgsub_report = cli.run_pipeline(base)
    feature_report = cli.run_pipeline(
        replace(base, detector="feature", model=small_cascade)
    )
    assert feature_report.accuracy_int >= 90
    assert abs(feature_report.accuracy_int - bgsub_report.accuracy_int) <= 10


def test_tracker_none_still_counts(ten_vehicle_scene):
    report = cli.run_pipeline(
        PipelineConfig(scene=ten_vehicle_scene, tracker="none")
    )
    assert result_line(report) == PERFECT


def test_resolution_factor_smoke(ten_vehicle_scene):
    report = cli.run_pipeline(
        PipelineConfig(scene=ten_vehicle_scene, resolution_factor=3)
    )
    assert report.gt == 10
    assert 0 <= report.counted_total <= 10
    expected = (1.0 - (report.fp + report.fn) / 10.0) * 100.0
    assert report.accuracy_real == pytest.approx(expected)


def test_tfc_increase_never_raises_counts(ten_vehicle_scene):
    counts = []
    for tfc in (5, 15, 30):
        report = cli.run_pipeline(PipelineConfig(scene=ten_vehicle_scene, tfc=tfc))
        counts.append(report.counted_total)
    assert counts == sorted(counts, reverse=True)


def test_detect_command_output_format(ten_vehicle_scene, tmp_path):
    out_path = tmp_path / "detections.txt"
    rc = cli.main([
        "detect", "--out", str(out_path), "--scene", ten_vehicle_scene,
    ])
    assert rc == 0
    lines = [line for line in out_path.read_text().split("\n") if line]
    assert lines
    frames_seen = set()
    for line in lines:
        parts = line.split()
        assert len(parts) == 6
        frame_idx, x, y, w, h = (int(p) for p in parts[:5])
        float(parts[5])
        assert 0 <= frame_idx < 260
        assert w > 0 and h > 0
        frames_seen.add(frame_idx)
    assert len(frames_seen) > 50


def test_track_command_output_format(ten_vehicle_scene, tmp_path):
    out_path = tmp_path / "tracks.txt"
    rc = cli.main(["track", "--out", str(out_path), "--scene", ten_vehicle_scene])
    assert rc == 0
    lines = [line for line in out_path.read_text().split("\n") if line]
    assert lines
    for line in lines:
        parts = line.split()
        assert len(parts) == 10
        int(parts[0])
        int(parts[1])
        for value in parts[2:]:
            float(value)


def test_sweep_grid_rows(ten_vehicle_scene):
    config = PipelineConfig(scene=ten_vehicle_scene)
    header, rows = cli.sweep(config, {"th": ["8", "10"], "tfc": ["10", "30"]})
    assert header == ["tfc", "th", "fp", "fn", "gt", "acc_real", "acc_int"]
    assert len(rows) == 4
    assert [row[:2] for row in rows] == [
        ["10", "8"], ["10", "10"], ["30", "8"], ["30", "10"],
    ]
    for row in rows:
        fp, fn, gt = int(row[2]), int(row[3]), int(row[4])
        assert gt == 10
        expected = (1.0 - (fp + fn) / gt) * 100.0
        assert float(row[5]) == pytest.approx(expected, abs=0.005)


def test_sweep_single_point_matches_run_pipeline(ten_vehicle_scene):
    config = PipelineConfig(scene=ten_vehicle_scene)
    header, rows = cli.sweep(config, {"th": ["10"]})
    report = cli.run_pipeline(replace(config, th=10.0))
    assert header == ["th", "fp", "fn", "gt", "acc_real", "acc_int"]
    assert rows == [[
        "10",
        str(report.fp),
        str(report.fn),
        str(report.gt),
        f"{report.accuracy_real:.2f}",
        str(report.accuracy_int),
    ]]


def test_sweep_command_prints_tsv(ten_vehicle_scene, capsys):
    rc = cli.main([
        "sweep", "--grid", "th=8,10", "--grid", "tfc=10,30",
        "--scene", ten_vehicle_scene,
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tfc\tth\tfp\tfn\tgt\tacc_real\tacc_int"
    assert len(lines) == 5
    assert all(len(line.split("\t")) == 7 for line in lines)


def test_sweep_validation(ten_vehicle_scene):
    config = PipelineConfig(scene=ten_vehicle_scene)
    with pytest.raises(UsageError, match="nonempty grid"):
        cli.sweep(config, {})
    with pytest.raises(UsageError, match="empty"):
        cli.sweep(config, {"th": []})
    for key in ("threshold", "seed"):
        with pytest.raises(UsageError, match="unknown config keys"):
            cli.sweep(config, {key: ["1"]})
    for key in ("mhr", "stages", "window_w", "window_h",
                "train_pos", "train_neg", "train_hard", "events_out"):
        with pytest.raises(UsageError, match=f"^sweep key {key} does not affect counting$"):
            cli.sweep(config, {"th": ["8", "10"], key: ["1", "2"]})


def test_sweep_rejects_last_point_before_decoding(
    ten_vehicle_scene, small_cascade, monkeypatch, capsys
):
    decoded = []
    load_pgm = cli.load_pgm
    monkeypatch.setattr(cli, "load_pgm", lambda path: decoded.append(path) or load_pgm(path))
    for args, message in (
        (["--grid", "th=8,10", "--grid", "tfc=4,-1"], "tfc must be >= 0, got -1"),
        # a detector key that no point's detector reads
        (["--detector", "feature", "--model", small_cascade, "--grid", "th=8,10"],
         "sweep key th does not affect counting"),
        (["--grid", "stride=4,7"], "sweep key stride does not affect counting"),
        (["--grid", "th=8", "--grid", " th =9"],
         "sweep key th is given in more than one --grid entry"),
    ):
        rc = cli.main(["sweep", "--scene", ten_vehicle_scene] + args)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"roadcount: error: {message}\n"
        assert decoded == []


def test_sweep_reuses_detect_track_pass(ten_vehicle_scene, monkeypatch):
    config = PipelineConfig(scene=ten_vehicle_scene)
    grid = {
        "th": ["8", "10"],
        "tfc": ["4", "36"],
        "phi_min": ["3.0", "4.72"],
        "match_tol": ["3", "25"],
    }
    expected = []
    for match_tol, phi_min, tfc, th in itertools.product(
        grid["match_tol"], grid["phi_min"], grid["tfc"], grid["th"]
    ):
        report = cli.run_pipeline(replace(
            config, th=float(th), tfc=int(tfc), phi_min=float(phi_min), match_tol=int(match_tol),
        ))
        expected.append([match_tol, phi_min, tfc, th] + result_line(report).split()[1:6])

    trackers = []

    class CountedTracker(cli.Tracker):
        def __init__(self, *args, **kwargs):
            trackers.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "Tracker", CountedTracker)
    header, rows = cli.sweep(config, grid)
    assert header == ["match_tol", "phi_min", "tfc", "th", "fp", "fn", "gt", "acc_real", "acc_int"]
    assert [row[:4] + [f"{k}={v}" for k, v in zip(header[4:], row[4:])] for row in rows] == expected
    assert len(trackers) == 2
    for j in range(3):  # each counting key changes some row
        assert any(
            a[j] != b[j] and a[:j] + a[j + 1:4] == b[:j] + b[j + 1:4] and a[4:] != b[4:]
            for a, b in itertools.combinations(rows, 2)
        ), header[j]


def test_sweep_shares_passes_per_detector(ten_vehicle_scene, small_cascade, monkeypatch):
    config = PipelineConfig(scene=ten_vehicle_scene, model=small_cascade)
    grid = {"detector": ["bgsub", "feature"], "th": ["8", "10"]}
    expected = []
    for detector, th in itertools.product(grid["detector"], grid["th"]):
        report = cli.run_pipeline(replace(config, detector=detector, th=float(th)))
        expected.append([detector, th] + result_line(report).split()[1:6])

    trackers = []

    class CountedTracker(cli.Tracker):
        def __init__(self, *args, **kwargs):
            trackers.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "Tracker", CountedTracker)
    header, rows = cli.sweep(config, grid)
    assert [row[:2] + [f"{k}={v}" for k, v in zip(header[2:], row[2:])] for row in rows] == expected
    assert len(trackers) == 3  # th is a bgsub key: both feature points share one pass


# A valid value other than the default for every field but scene and detector.
# Each one changes a pass's frame records when the pass reads its field.
_OTHER_VALUES = {
    "model": "elsewhere.txt", "events_out": "events.txt", "tracker": "none",
    "resolution_factor": 3, "th": 14.0, "tfc": 30, "mhr": 0.9, "stages": 2, "mcc": 3,
    "scales": (1.0, 1.25), "stride": 4, "markers": "not parsed by a pass", "frame_dt": 0.5,
    "learning_rate": 0.2, "open_radius": 2, "min_area": 1000, "gate_fraction": 0.01,
    "max_misses": 0, "match_tol": 3, "distance_fraction": 0.5, "require_marker_overlap": True,
    "phi_min": 1.0, "phi_max": 2.0, "window_w": 24, "window_h": 24, "train_pos": 5,
    "train_neg": 5, "train_hard": 5,
}


def _frame_records(config: PipelineConfig, limit: int) -> list[tuple]:
    def state(track):
        return {**vars(track), "covariance": track.covariance.tobytes()}

    return [
        (r.index, r.detections, [state(t) for t in r.live], [state(t) for t in r.finished])
        for r in cli._Pass(config).frames(limit)
    ]


@pytest.mark.parametrize("detector", ["bgsub", "feature"])
def test_pass_reads_only_its_keys(ten_vehicle_scene, small_cascade, detector):
    assert set(_OTHER_VALUES) == {f.name for f in fields(PipelineConfig)} - {"scene", "detector"}
    base = PipelineConfig(scene=ten_vehicle_scene, detector=detector, model=small_cascade)
    read = cli._PASS_KEYS + cli._DETECTOR_KEYS[detector]
    limit = 100  # vehicles enter at frame 60
    want = _frame_records(base, limit)
    assert any(finished for *_, finished in want)
    unread = {k: v for k, v in _OTHER_VALUES.items() if k not in read}
    assert _frame_records(replace(base, **unread), limit) == want
    for key in read:
        # another model would need a second trained cascade
        if key in _OTHER_VALUES and key != "model":
            assert _frame_records(replace(base, **{key: _OTHER_VALUES[key]}), limit) != want, key


def test_bench_records(ten_vehicle_scene):
    config = PipelineConfig(scene=ten_vehicle_scene)
    records = cli.bench(config, warmup=1, measured=4)
    assert [record.stage for record in records] == ["detect", "track", "count"]
    for record in records:
        assert record.frames == 4
        assert record.mean_ms >= 0.0
        assert record.p50_ms >= 0.0
        assert record.p95_ms >= record.p50_ms
    with pytest.raises(UsageError, match="measured frames"):
        cli.bench(config, warmup=1, measured=0)
    with pytest.raises(UsageError, match="warmup"):
        cli.bench(config, warmup=-1, measured=4)


def test_bench_command_line_format(ten_vehicle_scene, capsys):
    rc = cli.main([
        "bench", "--warmup", "1", "--frames", "4", "--scene", ten_vehicle_scene,
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    pattern = re.compile(
        r"^BENCH stage=(detect|track|count) mean_ms=\d+\.\d{3} "
        r"p50_ms=\d+\.\d{3} p95_ms=\d+\.\d{3} frames=4$"
    )
    for line in lines:
        assert pattern.match(line), line


def test_eval_round_trips_counted_events(ten_vehicle_scene, tmp_path, capsys):
    events_path = tmp_path / "events.txt"
    assert cli.main([
        "count", "--scene", ten_vehicle_scene, "--events_out", str(events_path),
    ]) == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--events", str(events_path), "--scene", ten_vehicle_scene])
    assert rc == 0
    assert capsys.readouterr().out.strip() == PERFECT


@pytest.mark.parametrize("frame", [-5, 259, 260])
def test_eval_refuses_counted_frame_outside_scene(ten_vehicle_scene, tmp_path, capsys, frame):
    events = tmp_path / "events.txt"
    events.write_text(f"{frame} 0\n", encoding="ascii")
    rc = cli.main(["eval", "--events", str(events), "--scene", ten_vehicle_scene])
    if frame == 259:  # the scene's last frame
        assert rc == 0
        want = "RESULT fp=1 fn=10 gt=10 acc_real=-10.00 acc_int=-10 counted=1\n"
        assert capsys.readouterr().out == want
    else:
        _one_line_failure(
            capsys, rc, 2,
            f"roadcount: data error: counted event in {events} names frame {frame}, "
            "but the scene has 260 frames",
        )


def test_eval_error_paths(ten_vehicle_scene, tmp_path, capsys):
    rc = cli.main(["eval", "--events", str(tmp_path / "missing.txt"),
                   "--scene", ten_vehicle_scene])
    assert rc == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("12 zero\n", encoding="ascii")
    assert cli.main(["eval", "--events", str(bad), "--scene", ten_vehicle_scene]) == 2
    good = tmp_path / "good.txt"
    good.write_text("12 0\n", encoding="ascii")
    assert cli.main(["eval", "--events", str(good)]) == 1
    capsys.readouterr()


def _model_lines(path):
    with open(path, encoding="ascii") as fh:
        return fh.readlines()


@pytest.mark.parametrize(
    "line, old, new, message",
    [
        (0, " 1,2,3 ", " 1,-2,3 ", "geometries must be >= 1, got 1,-2,3"),
        (0, " 1,2,3 ", " 0,2,3 ", "geometries must be >= 1, got 0,2,3"),
        (258, None, "nan", "stump threshold must be finite, got nan"),
        (257, None, "nan", "stage threshold must be finite, got nan"),
        (1, "0 ", "300 ", "rank table code 300 is outside 0..255"),
    ],
    ids=[
        "geometry-negative", "geometry-zero", "stump-threshold-nan", "stage-threshold-nan",
        "rank-code-too-large",
    ],
)
def test_count_rejects_model_that_would_count_wrongly(
    ten_vehicle_scene, small_cascade, tmp_path, capsys, line, old, new, message
):
    lines = _model_lines(small_cascade)
    if old is None:  # the threshold field of a stage line or of its first stump line
        fields = lines[line].split()
        fields[2 if line == 257 else 1] = new
        lines[line] = " ".join(fields) + "\n"
    else:
        assert old in lines[line]
        lines[line] = lines[line].replace(old, new)
    model = tmp_path / "model.txt"
    model.write_text("".join(lines), encoding="ascii")
    events = tmp_path / "events.txt"
    rc = cli.main(["count", "--scene", ten_vehicle_scene, "--detector", "feature",
                   "--model", str(model), "--events_out", str(events)])
    _one_line_failure(
        capsys, rc, 2, f"roadcount: data error: malformed model file {model}: {message}"
    )
    assert not events.exists()


def test_count_rejects_model_window_larger_than_frames(
    ten_vehicle_scene, small_cascade, tmp_path, monkeypatch, capsys
):
    lines = _model_lines(small_cascade)
    assert lines[0].startswith("mblbp-cascade v1 30 30 ")
    model = tmp_path / "model.txt"
    model.write_text(lines[0].replace(" 30 30 ", " 300 300 ") + "".join(lines[1:]))
    decoded = []
    load_pgm = cli.load_pgm
    monkeypatch.setattr(cli, "load_pgm", lambda path: decoded.append(path) or load_pgm(path))
    for scales, window in (("1.0", "at scale 1 (300x300)"), ("1.5,2", "at scale 1.5 (450x450)")):
        decoded.clear()
        rc = cli.main(["count", "--scene", ten_vehicle_scene, "--detector", "feature",
                       "--model", str(model), "--scales", scales])
        _one_line_failure(
            capsys, rc, 2,
            f"roadcount: data error: model window 300x300 {window} does not fit "
            "the 240x135 frames",
        )
        assert len(decoded) == 1  # only the first frame, for the frame size
    # a window that fits only after downscaling by resolution_factor fails too
    rc = cli.main(["count", "--scene", ten_vehicle_scene, "--detector", "feature",
                   "--model", small_cascade, "--resolution_factor", "5", "--scales", "1.0"])
    _one_line_failure(
        capsys, rc, 2,
        "roadcount: data error: model window 30x30 at scale 1 (30x30) does not fit "
        "the 48x27 frames",
    )


@pytest.mark.parametrize("command", ["count", "detect"])
def test_huge_scale_is_refused_first_and_skipped_later(
    ten_vehicle_scene, small_cascade, capsys, command
):
    args = [command, "--scene", ten_vehicle_scene, "--detector", "feature",
            "--model", small_cascade]
    rc = cli.main(args + ["--scales", "1e308"])
    _one_line_failure(
        capsys, rc, 2,
        "roadcount: data error: model window 30x30 at scale 1e+308 (infxinf) does not fit "
        "the 240x135 frames",
    )
    assert cli.main(args + ["--scales", "1"]) == 0
    want = capsys.readouterr()
    assert want.out
    assert cli.main(args + ["--scales", "1,1e308"]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("command", ["detect", "track"])
def test_out_file_left_alone_on_setup_error(tmp_path, capsys, command):
    out_path = tmp_path / "out.txt"
    rc = cli.main([command, "--scene", str(tmp_path / "missing"), "--out", str(out_path)])
    assert rc == 2
    assert not out_path.exists()
    assert capsys.readouterr().err.startswith("roadcount: data error: ")


def test_synth_command_writes_scene(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(_small_scenario_text(), encoding="ascii")
    out_dir = tmp_path / "scene"
    rc = cli.main(["synth", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    assert "wrote 16 frames" in capsys.readouterr().out
    assert (out_dir / "scenario.cfg").is_file()
    assert (out_dir / "gt_boxes.txt").is_file()
    assert (out_dir / "gt_events.txt").is_file()
    frames = sorted(p.name for p in (out_dir / "frames").iterdir())
    assert len(frames) == 16
    assert frames[0] == "frame_000000.pgm"


def test_synth_command_honors_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(_small_scenario_text(), encoding="ascii")
    out_dir = tmp_path / "scene"
    rc = cli.main([
        "synth", "--config", str(cfg_path), "--out", str(out_dir), "--frames", "12",
    ])
    assert rc == 0
    capsys.readouterr()
    assert len(list((out_dir / "frames").iterdir())) == 12


def test_exit_codes(ten_vehicle_scene, tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(_small_scenario_text(), encoding="ascii")

    rc = cli.main(["synth", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "s")])
    assert rc == 2

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("width 64\n", encoding="ascii")
    rc = cli.main(["synth", "--config", str(bad_cfg), "--out", str(tmp_path / "s")])
    assert rc == 2

    partial = tmp_path / "partial.cfg"
    partial.write_text("width = 64\n", encoding="ascii")
    rc = cli.main(["synth", "--config", str(partial), "--out", str(tmp_path / "s")])
    assert rc == 1

    rc = cli.main(["count", "--scene", str(tmp_path / "nowhere")])
    assert rc == 2

    rc = cli.main(["count", "--scene", str(tmp_path), "--bogus_key", "3"])
    assert rc == 1

    rc = cli.main(["count"])
    assert rc == 1

    rc = cli.main(["count", "--scene", ten_vehicle_scene, "--detector", "feature"])
    assert rc == 1

    with pytest.raises(SystemExit) as exc_info:
        cli.main(["synth", "--config", str(cfg_path)])
    assert exc_info.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["train", "--model", "{dir}"],
        ["count", "--detector", "feature", "--model", "{dir}"],
        ["count", "--events_out", "{dir}"],
        ["detect", "--out", "{dir}"],
        ["count", "--config", "{dir}"],
    ],
    ids=["train-model", "count-model", "count-events_out", "detect-out", "count-config"],
)
def test_directory_path_is_a_data_error(ten_vehicle_scene, tmp_path, monkeypatch, capsys, args):
    sampled = []
    generate_training_set = synthgen.generate_training_set
    monkeypatch.setattr(
        synthgen, "generate_training_set",
        lambda *a: sampled.append(a) or generate_training_set(*a),
    )
    rc = cli.main([arg.format(dir=tmp_path) for arg in args] + ["--scene", ten_vehicle_scene])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("roadcount: data error: ")
    assert captured.err.count("\n") == 1 and str(tmp_path) in captured.err
    assert sampled == []  # train refuses the path before it samples any crop


@pytest.mark.parametrize(
    "args",
    [["train", "--model"], ["count", "--events_out"]],
    ids=["train-model", "count-events_out"],
)
def test_output_in_missing_directory_fails_before_work(
    ten_vehicle_scene, tmp_path, monkeypatch, capsys, args
):
    started = []
    for module, name in ((cli, "_Pass"), (synthgen, "generate_scene")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original: started.append(a) or _f(*a))
    path = tmp_path / "missing" / "out.txt"
    rc = cli.main(args + [str(path), "--scene", ten_vehicle_scene])
    message = f"roadcount: data error: {args[1][2:]} path is in a missing directory: {path}"
    _one_line_failure(capsys, rc, 2, message)
    assert started == []  # no pass started, no scene rendered
    assert not path.parent.exists()


def test_override_value_forms(ten_vehicle_scene, capsys):
    rc = cli.main(["count", f"--scene={ten_vehicle_scene}", "--th=10"])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == PERFECT

    rc = cli.main(["count", "--scene", ten_vehicle_scene, "--th"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "key, value, detector",
    [
        ("frame_dt", "0", "bgsub"),
        ("stride", "0", "feature"),
        ("learning_rate", "1.5", "bgsub"),
        ("scales", "0.5", "feature"),
        ("scales", "1.0,1.0", "feature"),
        ("scales", "1.0,1.25,1.25", "feature"),
        ("th", "nan", "bgsub"),
        ("th", "inf", "bgsub"),
    ],
)
def test_count_rejects_bad_config_value(
    ten_vehicle_scene, small_cascade, capsys, key, value, detector
):
    rc = cli.main([
        "count", "--scene", ten_vehicle_scene, "--detector", detector,
        "--model", small_cascade, f"--{key}", value,
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"roadcount: error: {key} must be ")
    assert len(captured.err.splitlines()) == 1  # one message, no traceback


@pytest.mark.parametrize("detector", ["bgsub", "feature"])
def test_count_rejects_odd_sized_frame(tmp_path, small_cascade, capsys, detector):
    from roadcount import synthgen
    from roadcount.imaging import Frame, load_pgm, save_pgm, sequence_paths

    scene = str(tmp_path / "scene")
    synthgen.save_scene(scene, synthgen.config_from_text(_small_scenario_text()))
    odd = sequence_paths(f"{scene}/frames")[5]
    save_pgm(Frame(load_pgm(odd).pixels[:, :-2]), odd)
    rc = cli.main([
        "count", "--scene", scene, "--detector", detector, "--model", small_cascade,
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"roadcount: data error: frame {odd} is 62x48, the scene's first frame is 64x48\n"
    )


def test_hard_negatives_texture_filter(ten_vehicle_scenario, capsys, monkeypatch):
    # oracle: the same jittered pool, filtered crop by crop
    shifted = replace(ten_vehicle_scenario, jitter_amplitude=30 - cli._HARD_JITTER_MARGIN)
    _, pool = synthgen.generate_training_set(
        shifted, synthgen.generate_scene(shifted), 1, 100 * cli._HARD_POOL_FACTOR, 30, 30
    )

    def textured(min_std):
        return np.stack([crop for crop in pool if crop.std() > min_std])

    # fewer crops pass than asked for: all of them are kept, and one line says so
    assert 10 < len(textured(cli._HARD_TEXTURE_STD)) < 100
    assert np.array_equal(cli._hard_negatives(ten_vehicle_scenario, 100, 30, 30), textured(12.0))
    assert capsys.readouterr().err == (
        f"roadcount: warning: only {len(textured(12.0))} of 100 hard negatives passed "
        "the texture filter (pixel std > 12)\n"
    )
    monkeypatch.setattr(cli, "_HARD_TEXTURE_STD", 6.0)
    assert 100 < len(textured(6.0)) < len(pool)
    assert np.array_equal(
        cli._hard_negatives(ten_vehicle_scenario, 100, 30, 30), textured(6.0)[:100]
    )
    assert capsys.readouterr().err == ""


def test_train_renders_each_scene_once(ten_vehicle_scene, tmp_path, monkeypatch, capsys):
    rendered = []
    generate_scene = synthgen.generate_scene
    monkeypatch.setattr(
        synthgen, "generate_scene", lambda config: rendered.append(config) or generate_scene(config)
    )
    config = PipelineConfig(
        scene=ten_vehicle_scene, model=str(tmp_path / "m.txt"),
        stages=1, train_pos=20, train_neg=40, train_hard=10,
    )
    cli.train(config)
    scenario = synthgen.load_scene_config(ten_vehicle_scene)
    # the scene itself, then its jittered clone for the hard negatives
    assert rendered == [scenario, replace(scenario, jitter_amplitude=30 - cli._HARD_JITTER_MARGIN)]
    capsys.readouterr()


def _one_line_failure(capsys, rc, expected_rc, message):
    assert rc == expected_rc
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_resolution_factor_must_divide_frames(ten_vehicle_scene, tmp_path, monkeypatch, capsys):
    decoded = []
    load_pgm = cli.load_pgm
    monkeypatch.setattr(cli, "load_pgm", lambda path: decoded.append(path) or load_pgm(path))
    first = cli.sequence_paths(f"{ten_vehicle_scene}/frames")[0]
    out = tmp_path / "out.txt"
    # a sweep sets up every pass before it decodes any frame past a pass's first
    for args, first_frames in (
        (["count", "--resolution_factor", "2", "--events_out", str(out)], 1),
        (["detect", "--resolution_factor", "2", "--out", str(out)], 1),
        (["sweep", "--grid", "resolution_factor=1,2"], 2),
    ):
        decoded.clear()
        rc = cli.main(args + ["--scene", ten_vehicle_scene])
        _one_line_failure(
            capsys, rc, 1,
            "roadcount: error: resolution_factor 2 does not divide the scene's 240x135 frames",
        )
        assert not out.exists()
        assert decoded == [first] * first_frames


@pytest.mark.parametrize(
    "key, value, size", [("window_w", "300", "300x30"), ("window_h", "140", "30x140")]
)
def test_train_rejects_window_larger_than_scene(
    ten_vehicle_scene, tmp_path, capsys, key, value, size
):
    model = tmp_path / "m.txt"
    rc = cli.main(["train", "--scene", ten_vehicle_scene, "--model", str(model), f"--{key}", value])
    _one_line_failure(
        capsys, rc, 1, f"roadcount: error: window {size} does not fit the 240x135 scene"
    )
    assert not model.exists()


def test_train_rejects_scene_without_full_vehicle(tmp_path, capsys):
    scene = tmp_path / "empty"
    scenario = replace(synthgen.config_from_text(_small_scenario_text()), spawns=())
    synthgen.save_scene(str(scene), scenario)
    model = tmp_path / "m.txt"
    rc = cli.main(["train", "--scene", str(scene), "--model", str(model)])
    _one_line_failure(
        capsys, rc, 2,
        f"roadcount: data error: cannot sample training crops from {scene}: "
        "scenario produced no fully visible vehicle boxes",
    )
    assert not model.exists()


def test_empty_ground_truth_reads_na_in_result_line_and_sweep_rows(tmp_path):
    scene = tmp_path / "empty"
    scenario = replace(synthgen.config_from_text(_small_scenario_text()), spawns=())
    synthgen.save_scene(str(scene), scenario)
    config = PipelineConfig(scene=str(scene))
    report = cli.run_pipeline(config)
    assert result_line(report) == "RESULT fp=0 fn=0 gt=0 acc_real=NA acc_int=NA counted=0"
    header, rows = cli.sweep(config, {"th": ["10", "12"]})
    assert header == ["th", "fp", "fn", "gt", "acc_real", "acc_int"]
    assert rows == [["10", "0", "0", "0", "NA", "NA"], ["12", "0", "0", "0", "NA", "NA"]]


def _small_scene(tmp_path) -> str:
    scene = tmp_path / "small"
    synthgen.save_scene(str(scene), synthgen.config_from_text(_small_scenario_text()))
    return str(scene)


@pytest.mark.parametrize("command", ["count", "eval"])
@pytest.mark.parametrize("line", ["7 1 zero", "7 1"], ids=["non-integer", "two-columns"])
def test_malformed_gt_events_is_a_data_error(tmp_path, capsys, command, line):
    scene = _small_scene(tmp_path)
    gt_path = os.path.join(scene, "gt_events.txt")
    with open(gt_path, "w", encoding="ascii") as fh:
        fh.write(f"5 0 0\n\n{line}\n")
    events = tmp_path / "events.txt"
    events.write_text("5 0\n", encoding="ascii")
    extra = ["--events", str(events)] if command == "eval" else []
    rc = cli.main([command, "--scene", scene] + extra)
    _one_line_failure(
        capsys, rc, 2,
        f"roadcount: data error: malformed ground truth: {gt_path} line 3: expected "
        f"'frame vehicle marker' as three integers >= 0, got {line!r}",
    )


@pytest.mark.parametrize("command", ["count", "sweep"])
def test_gt_marker_outside_scene_markers_is_a_data_error(tmp_path, capsys, command):
    scene = _small_scene(tmp_path)
    with open(os.path.join(scene, "gt_events.txt"), "w", encoding="ascii") as fh:
        fh.write("5 0 1\n9 1 2\n")  # the scene has markers 0 and 1
    extra = ["--grid", "tfc=4,8"] if command == "sweep" else []
    rc = cli.main([command, "--scene", scene] + extra)
    _one_line_failure(
        capsys, rc, 2,
        "roadcount: data error: ground-truth event at frame 9 names marker 2, "
        "but the scene has 2 markers",
    )


@pytest.mark.parametrize("command", ["count", "sweep"])
def test_ground_truth_errors_end_before_a_pass_runs(tmp_path, monkeypatch, capsys, command):
    scene = _small_scene(tmp_path)
    gt_path = os.path.join(scene, "gt_events.txt")
    first = cli.sequence_paths(f"{scene}/frames")[0]
    decoded = []
    load_pgm = cli.load_pgm
    monkeypatch.setattr(cli, "load_pgm", lambda path: decoded.append(path) or load_pgm(path))
    extra = ["--grid", "th=8,10"] if command == "sweep" else []  # two passes
    for text, message in (
        ("5 0 1\n9 1 2\n",
         "ground-truth event at frame 9 names marker 2, but the scene has 2 markers"),
        ("5 0 0\n7 1\n",
         f"malformed ground truth: {gt_path} line 2: expected 'frame vehicle marker' "
         "as three integers >= 0, got '7 1'"),
    ):
        with open(gt_path, "w", encoding="ascii") as fh:
            fh.write(text)
        decoded.clear()
        rc = cli.main([command, "--scene", scene] + extra)
        _one_line_failure(capsys, rc, 2, f"roadcount: data error: {message}")
        assert decoded == [first]  # the first pass's first frame, for the frame size


def test_repeated_override_is_a_usage_error(ten_vehicle_scene, monkeypatch, capsys):
    decoded = []
    load_pgm = cli.load_pgm
    monkeypatch.setattr(cli, "load_pgm", lambda path: decoded.append(path) or load_pgm(path))
    for args in (["--tfc", "8", "--tfc", "300"], ["--tfc=300", "--tfc", "8"],
                 ["--tfc=8", "--tfc=8"]):
        rc = cli.main(["count", "--scene", ten_vehicle_scene] + args)
        _one_line_failure(
            capsys, rc, 1, "roadcount: error: override --tfc is given more than once"
        )
    assert decoded == []


def test_bench_frame_budget_is_checked_at_set_up(ten_vehicle_scene, monkeypatch, capsys):
    n = len(cli.sequence_paths(f"{ten_vehicle_scene}/frames"))
    decoded = []
    load_pgm = cli.load_pgm
    monkeypatch.setattr(cli, "load_pgm", lambda path: decoded.append(path) or load_pgm(path))
    rc = cli.main(["bench", "--warmup", "5", "--frames", str(n - 4), "--scene", ten_vehicle_scene])
    _one_line_failure(
        capsys, rc, 1,
        f"roadcount: error: warmup 5 + measured {n - 4} frames exceed the scene's {n} frames",
    )
    assert len(decoded) == 1
    records = cli.bench(PipelineConfig(scene=ten_vehicle_scene), warmup=5, measured=n - 5)
    assert [record.frames for record in records] == [n - 5] * 3


def test_run_pipeline_returns_a_counting_report(ten_vehicle_scene):
    report = cli.run_pipeline(PipelineConfig(scene=ten_vehicle_scene))
    assert isinstance(report, CountingReport)
    assert result_line(report) == PERFECT


def test_eval_gt_marker_outside_scene_markers_is_a_data_error(tmp_path, capsys):
    scene = _small_scene(tmp_path)  # 64x48, markers 0 and 1
    with open(os.path.join(scene, "gt_events.txt"), "w", encoding="ascii") as fh:
        fh.write("5 0 7\n")
    events = tmp_path / "events.txt"
    events.write_text("5 0\n", encoding="ascii")
    rc = cli.main(["eval", "--scene", scene, "--events", str(events)])
    _one_line_failure(
        capsys, rc, 2,
        "roadcount: data error: ground-truth event at frame 5 names marker 7, "
        "but the scene has 2 markers",
    )


def test_eval_counted_marker_outside_scene_markers_is_a_data_error(tmp_path, capsys):
    scene = _small_scene(tmp_path)
    with open(os.path.join(scene, "gt_events.txt"), "w", encoding="ascii") as fh:
        fh.write("5 0 0\n")
    events = tmp_path / "events.txt"
    events.write_text("5 0\n9 2\n", encoding="ascii")
    rc = cli.main(["eval", "--scene", scene, "--events", str(events)])
    _one_line_failure(
        capsys, rc, 2,
        f"roadcount: data error: counted event in {events} at frame 9 names marker 2, "
        "but the scene has 2 markers",
    )
    events.write_text("5 -1\n", encoding="ascii")
    rc = cli.main(["eval", "--scene", scene, "--events", str(events)])
    _one_line_failure(
        capsys, rc, 2,
        f"roadcount: data error: counted event in {events} at frame 5 names marker -1, "
        "but the scene has 2 markers",
    )
    # the marker count comes from the scene, not from the events it scores
    events.write_text("5 1\n", encoding="ascii")
    assert cli.main(["eval", "--scene", scene, "--events", str(events)]) == 0
    assert capsys.readouterr().out == (
        "RESULT fp=1 fn=1 gt=1 acc_real=-100.00 acc_int=-100 counted=1\n"
    )


@pytest.mark.parametrize("command", ["count", "sweep", "eval", "train", "synth"])
@pytest.mark.parametrize(
    "key, value, detail",
    [
        ("markers", "4,26,24,22;36,26,24", "'36,26,24': expected 4 fields, got 3"),
        ("spawns", "0,0,4,12,12;4,1,4", "'4,1,4': expected 5 fields, got 3"),
        ("illumination", "5", "'5': expected 2 fields, got 1"),
        ("illumination", "5:1:2", "'5:1:2': expected 2 fields, got 3"),
    ],
    ids=["markers", "spawns", "illumination-1", "illumination-3"],
)
def test_malformed_scenario_list_entry(tmp_path, capsys, command, key, value, detail):
    scene = _small_scene(tmp_path)
    cfg = os.path.join(scene, "scenario.cfg")
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", _small_scenario_text(), flags=re.M)
    with open(cfg, "w", encoding="ascii") as fh:
        fh.write(text)
    events = tmp_path / "events.txt"
    events.write_text("5 0\n", encoding="ascii")
    extra = {
        "sweep": ["--grid", "tfc=4,8"],
        "eval": ["--events", str(events)],
        "train": ["--model", str(tmp_path / "m.txt")],
    }.get(command, [])
    if command == "synth":
        rc = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "out")])
        rc_want, prefix = 1, "roadcount: error: bad scenario: "
    else:
        rc = cli.main([command, "--scene", scene] + extra)
        what = "cannot load scenario" if command == "train" else "cannot derive auto markers"
        rc_want, prefix = 2, f"roadcount: data error: {what} from {scene}: "
    _one_line_failure(capsys, rc, rc_want, f"{prefix}{key} entry {detail}")


def test_malformed_markers_key_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["count", "--scene", _small_scene(tmp_path), "--markers", "4,26,24;36,26,24,22"])
    _one_line_failure(
        capsys, rc, 1,
        "roadcount: error: bad markers value '4,26,24;36,26,24,22': "
        "markers entry '4,26,24': expected 4 fields, got 3",
    )


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-m", "roadcount", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("usage: roadcount ")


# Runs roadcount's entry point with every import of scipy failing, lazy ones included.
_WITHOUT_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} is blocked")
        return None

sys.meta_path.insert(0, _NoScipy())
from roadcount.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_runtime_runs_without_scipy(ten_vehicle_scene, small_cascade, tmp_path, capsys):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    model = tmp_path / "cascade.txt"
    for args in (
        ["count", "--detector", "bgsub"],
        ["sweep", "--grid", "th=8,10"],
        ["train", "--model", str(model), "--stages", "3", "--train_pos", "400",
         "--train_neg", "1500", "--train_hard", "2000"],
    ):
        args = args + ["--scene", ten_vehicle_scene]
        child = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY] + args,
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert cli.main(args) == 0
        assert child.stdout == capsys.readouterr().out
    with open(model, "rb") as fh, open(small_cascade, "rb") as fixture:
        assert fh.read() == fixture.read()
