"""Acceptance gate: the guarantees the package ships with, one test each.

Every test prints a `ACCEPTANCE <n> <name>: PASS|FAIL` verdict on the real
stdout (capture suspended) so the verdicts survive into piped test logs even
when every test passes.
"""

import contextlib
import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from roadcount import bgsub, cli, synthgen
from roadcount.boostcascade import (
    StrongClassifier,
    Stump,
    calibrate_stage,
    detect,
    load_model,
    train_strong,
    train_stump,
)
from roadcount.counting import accuracy, result_line
from roadcount.features import (
    LBP_HISTOGRAM_BINS,
    RANK_HISTOGRAM_BINS,
    BlockGeometry,
    build_rank_table,
    is_uniform,
    lbp_code,
    lbp_histogram,
    mb_lbp_code_map,
    mb_lbp_histogram,
)
from roadcount.imaging import Frame, Rect
from roadcount.tracking import (
    DEFAULT_P0,
    DEFAULT_Q,
    DEFAULT_R,
    StateVector,
    _jacobian,
    _predict,
    _transition,
    _update,
)

from oracles import integral, mb_lbp_code


def _emit(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")


@contextlib.contextmanager
def _gate(capsys, num: int, name: str):
    info: dict[str, str] = {}
    try:
        yield info
    except BaseException:
        _emit(capsys, num, name, False, info.get("detail", ""))
        raise
    _emit(capsys, num, name, True, info.get("detail", ""))


# Reference (FP, FN, GT, accuracy) operating points covering both detector
# variants across their threshold / frame-count / hit-rate settings.
ACCURACY_ROWS = (
    (4, 2, 133, 95), (2, 6, 133, 94), (5, 6, 133, 92), (5, 8, 133, 90),
    (4, 4, 133, 94), (3, 6, 133, 93), (4, 6, 133, 92), (4, 8, 133, 91),
    (0, 6, 133, 95), (0, 7, 133, 95), (0, 7, 133, 95), (3, 5, 133, 94),
    (3, 6, 133, 93), (0, 9, 133, 93), (0, 9, 133, 93), (0, 9, 133, 93),
    (0, 9, 133, 93), (0, 9, 133, 93),
)


def test_accuracy_table_replay(capsys):
    with _gate(capsys, 1, "accuracy-table-replay") as info:
        t0 = time.perf_counter()
        assert len(ACCURACY_ROWS) == 18
        for fp, fn, gt, expected in ACCURACY_ROWS:
            real, rounded = accuracy(fp, fn, gt)
            assert rounded == expected, (fp, fn, gt, rounded, expected)
            assert real == pytest.approx((1.0 - (fp + fn) / gt) * 100.0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        info["detail"] = f"18 rows in {elapsed * 1000.0:.1f} ms"


def _bit_transitions(code: int) -> int:
    bits = f"{code:08b}"
    return sum(bits[i] != bits[(i + 1) % 8] for i in range(8))


def test_feature_layer_oracles(capsys):
    with _gate(capsys, 2, "feature-layer-oracles") as info:
        t0 = time.perf_counter()
        expected_uniform = [c for c in range(256) if _bit_transitions(c) <= 2]
        assert len(expected_uniform) == 58
        assert [c for c in range(256) if is_uniform(c)] == expected_uniform

        rng = np.random.default_rng(2024)
        frame = Frame(rng.integers(0, 256, (150, 150), dtype=np.uint8))
        unit_codes = mb_lbp_code_map(frame.pixels, BlockGeometry(1, 1))

        for _ in range(10_000):
            x = int(rng.integers(0, frame.width - 2))
            y = int(rng.integers(0, frame.height - 2))
            assert unit_codes[y, x] == lbp_code(frame, x + 1, y + 1)

        from roadcount.features import UNIFORM_BINS

        for _ in range(100):
            w = int(rng.integers(5, 40))
            h = int(rng.integers(5, 40))
            region = Rect(int(rng.integers(0, frame.width - w)),
                          int(rng.integers(0, frame.height - h)), w, h)
            naive = np.zeros(LBP_HISTOGRAM_BINS, dtype=np.int64)
            for y in range(region.y + 1, region.bottom - 1):
                for x in range(region.x + 1, region.right - 1):
                    naive[UNIFORM_BINS[lbp_code(frame, x, y)]] += 1
            assert np.array_equal(lbp_histogram(frame, region), naive)

        geometries = (BlockGeometry(1, 1), BlockGeometry(2, 2), BlockGeometry(3, 2))
        tables = {
            g: build_rank_table([mb_lbp_code_map(frame.pixels, g).ravel()]) for g in geometries
        }
        rank_maps = {g: tables[g].bins[mb_lbp_code_map(frame.pixels, g)] for g in geometries}
        ii = integral(frame)  # the naive recount's scalar oracle only
        for i in range(100):
            g = geometries[i % len(geometries)]
            w = int(rng.integers(3 * g.cell_w + 2, 40))
            h = int(rng.integers(3 * g.cell_h + 2, 40))
            region = Rect(int(rng.integers(0, frame.width - w)),
                          int(rng.integers(0, frame.height - h)), w, h)
            rt = tables[g]
            naive = np.zeros(RANK_HISTOGRAM_BINS, dtype=np.int64)
            for y in range(region.y, region.bottom - g.footprint_h + 1):
                for x in range(region.x, region.right - g.footprint_w + 1):
                    naive[rt.bins[mb_lbp_code(ii, x, y, g)]] += 1
            assert np.array_equal(mb_lbp_histogram(rank_maps[g], region, g), naive)

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        info["detail"] = f"{elapsed:.1f} s"


def test_illumination_step_invariance(capsys, small_cascade):
    with _gate(capsys, 3, "illumination-step-invariance") as info:
        t0 = time.perf_counter()
        k = 80
        base = synthgen.ScenarioConfig(
            width=240, height=135, frames=160,
            markers=synthgen.default_markers(240, 135),
            spawns=synthgen.spawn_schedule(2, 60, 2, 4.0, 30, 30, start=60),
            seed=11, background_seed=4, noise_sigma=0.0,
        )
        stepped = replace(base, illumination=((k, 50),))
        clean_frames, _ = synthgen.generate_scene(base)
        step_frames, _ = synthgen.generate_scene(stepped)

        model = load_model(small_cascade)
        for idx in (k, k + 1):
            found_clean = detect(model, clean_frames[idx], scales=(1.0,), stride=7, mcc=2)
            found_step = detect(model, step_frames[idx], scales=(1.0,), stride=7, mcc=2)
            assert found_clean, f"no detections at frame {idx}"
            assert found_clean == found_step

        background = bgsub.BackgroundModel(base.width, base.height, 0.05)
        for i in range(k):
            bgsub.update_background(background, step_frames[i])
        mask = bgsub.subtract(background, step_frames[k], 10.0)
        fraction = float(mask.mean())
        assert fraction >= 0.99

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        info["detail"] = f"mask foreground {fraction * 100.0:.1f}%, {elapsed:.1f} s"


def _transition_array(values: np.ndarray, t: float) -> np.ndarray:
    state = StateVector(*values.tolist())
    return np.array(astuple(_transition(state, math.cos(state.phi), math.sin(state.phi), t)))


def _fd_jacobian(state: StateVector, t: float, h: float = 1e-6) -> np.ndarray:
    base = np.array(astuple(state))
    out = np.zeros((6, 6))
    for j in range(6):
        plus = base.copy()
        minus = base.copy()
        plus[j] += h
        minus[j] -= h
        out[:, j] = (_transition_array(plus, t) - _transition_array(minus, t)) / (2.0 * h)
    return out


def test_ekf_numerics(capsys):
    with _gate(capsys, 4, "ekf-numerics") as info:
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            state = StateVector(
                x=float(rng.uniform(-50.0, 50.0)),
                y=float(rng.uniform(-50.0, 50.0)),
                v=float(rng.uniform(-10.0, 10.0)),
                a=float(rng.uniform(-2.0, 2.0)),
                phi=float(rng.uniform(0.2, 6.0)),
                omega=float(rng.uniform(-0.5, 0.5)),
            )
            t = float(rng.uniform(0.5, 2.0))
            analytic = _jacobian(state.v, math.cos(state.phi), math.sin(state.phi), t)
            numeric = _fd_jacobian(state, t)
            rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
            worst = max(worst, float(rel.max()))
        assert worst < 1e-6

        state, p = StateVector(55.0, 25.0, 4.0, 0.0, 4.71, 0.0), DEFAULT_P0.copy()
        for cycle in range(1000):
            state, p = _predict(state, p, 1.0, DEFAULT_Q)
            cx = 55.0 + 3.0 * math.sin(cycle / 25.0)
            cy = 25.0 + 0.1 * cycle
            z_rect = Rect(int(cx) - 5, int(cy) - 5, 10, 10)
            state, p = _update(state, p, *z_rect.center(), DEFAULT_R)
            assert float(np.abs(p - p.T).max()) <= 1e-9
            np.linalg.cholesky(p)

        still = StateVector(55.0, 25.0, 0.0, 0.0, 0.0, 0.0)
        zx, zy = Rect(50, 20, 10, 10).center()  # exactly (55, 25): zero innovation
        updated, _ = _update(still, DEFAULT_P0.copy(), zx, zy, DEFAULT_R)
        assert np.array(astuple(updated)).tobytes() == np.array(astuple(still)).tobytes()

        info["detail"] = f"max Jacobian rel err {worst:.2e}"


def _oracle_stump(xs: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> Stump:
    n, d = xs.shape
    best = None
    for fi in range(d):
        svals = np.sort(xs[:, fi])
        candidates = [svals[0] - 1.0, svals[-1] + 1.0]
        candidates += [
            (svals[k - 1] + svals[k]) / 2.0 for k in range(1, n) if svals[k - 1] != svals[k]
        ]
        for thr in candidates:
            base = np.where(xs[:, fi] < thr, -1, 1)
            for polarity in (1, -1):
                err = float(weights[polarity * base != labels].sum())
                key = (err, fi, thr, 0 if polarity == 1 else 1)
                if best is None or key < best[0]:
                    best = (key, Stump(fi, float(thr), polarity))
    return best[1]


def _lattice_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    weights = rng.integers(1, 16, n) / 16.0
    weights /= weights.sum()
    weights = np.round(weights * 64) / 64.0
    weights[0] += 1.0 - weights.sum()
    return weights


def test_boosting_correctness(capsys):
    with _gate(capsys, 5, "boosting-correctness") as info:
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(4, 14))
            d = int(rng.integers(1, 5))
            xs = np.round(rng.normal(size=(n, d)), 2)
            labels = rng.choice([-1, 1], n)
            if np.all(labels == labels[0]):
                labels[0] = -labels[0]
            weights = _lattice_weights(rng, n)
            assert train_stump(xs, labels, weights) == _oracle_stump(xs, labels, weights)

        xs = rng.normal(size=(60, 4))
        labels = np.where(xs[:, 0] + 0.5 * xs[:, 2] + 0.1 * rng.normal(size=60) > 0, 1, -1)
        rounds = 12
        h = train_strong(xs, labels, rounds)
        weights = np.full(60, 1.0 / 60.0)
        for r in range(rounds):
            stump = train_stump(xs, labels, weights)
            got_stump, got_alpha = h.stumps[r]
            assert got_stump == stump
            preds = np.array([
                stump.polarity * (-1 if xs[i, stump.feature_index] < stump.threshold else 1)
                for i in range(60)
            ])
            err = float(weights[preds != labels].sum())
            err = min(max(err, 1e-10), 1.0 - 1e-10)
            alpha = 0.5 * math.log((1.0 - err) / err)
            assert got_alpha == pytest.approx(alpha, rel=1e-12)
            weights = weights * np.exp(-alpha * labels * preds)
            weights /= weights.sum()
            assert abs(float(weights.sum()) - 1.0) <= 1e-12

        scores = rng.normal(size=1000)
        ensemble = StrongClassifier(stumps=((Stump(0, 0.0, 1), 1.0),))
        calibrated = calibrate_stage(ensemble, scores.tolist(), 0.995)
        thr = calibrated.stage_threshold
        passed = float(np.mean(scores >= thr))
        assert passed >= 0.995
        eligible = [s for s in scores if np.mean(scores >= s) >= 0.995]
        assert thr == max(eligible)

        info["detail"] = f"calibrated pass rate {passed * 100.0:.2f}%"


def test_end_to_end_counting(capsys, tmp_path):
    with _gate(capsys, 6, "end-to-end-counting") as info:
        t0 = time.perf_counter()
        clean = synthgen.ScenarioConfig(
            width=240, height=135, frames=1600,
            markers=synthgen.default_markers(240, 135),
            spawns=synthgen.spawn_schedule(104, 15, 2, 4.0, 30, 30),
            seed=11, background_seed=4, noise_sigma=0.0,
        )
        stepped = replace(clean, illumination=((800, 50),))
        clean_dir = tmp_path / "clean"
        step_dir = tmp_path / "step"
        synthgen.save_scene(str(clean_dir), clean)
        synthgen.save_scene(str(step_dir), stepped)

        model_path = tmp_path / "cascade.txt"
        cli.train(cli.PipelineConfig(scene=str(clean_dir), model=str(model_path), stages=5))

        def run(scene, detector):
            config = cli.PipelineConfig(scene=str(scene), detector=detector)
            if detector == "feature":
                config = replace(config, model=str(model_path))
            report = cli.run_pipeline(config)
            return report

        bgsub_clean = run(clean_dir, "bgsub")
        feature_clean = run(clean_dir, "feature")
        bgsub_step = run(step_dir, "bgsub")
        feature_step = run(step_dir, "feature")

        for report in (bgsub_clean, feature_clean, bgsub_step, feature_step):
            assert report.gt >= 100
        assert bgsub_clean.accuracy_int >= 90
        assert feature_clean.accuracy_int >= 90
        assert feature_step.accuracy_real >= bgsub_step.accuracy_real

        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        info["detail"] = (
            f"clean bgsub {bgsub_clean.accuracy_real:.2f} / feature "
            f"{feature_clean.accuracy_real:.2f}, step bgsub {bgsub_step.accuracy_real:.2f}"
            f" / feature {feature_step.accuracy_real:.2f}, {elapsed:.0f} s"
        )


def test_determinism(capsys, tmp_path):
    with _gate(capsys, 7, "determinism") as info:
        scenario = synthgen.ScenarioConfig(
            width=240, height=135, frames=200,
            markers=synthgen.default_markers(240, 135),
            spawns=synthgen.spawn_schedule(4, 15, 2, 4.0, 30, 30, start=60),
            seed=7, background_seed=2, noise_sigma=0.0,
        )

        def build(run_dir):
            scene = run_dir / "scene"
            model = run_dir / "model.txt"
            synthgen.save_scene(str(scene), scenario)
            cli.train(cli.PipelineConfig(
                scene=str(scene), model=str(model),
                stages=3, train_pos=400, train_neg=1500, train_hard=2000,
            ))
            report = cli.run_pipeline(cli.PipelineConfig(
                scene=str(scene), detector="feature", model=str(model),
            ))
            return scene, model, result_line(report)

        scene_a, model_a, result_a = build(tmp_path / "a")
        scene_b, model_b, result_b = build(tmp_path / "b")

        for name in ("gt_boxes.txt", "gt_events.txt", "scenario.cfg"):
            assert (scene_a / name).read_bytes() == (scene_b / name).read_bytes()
        assert model_a.read_bytes() == model_b.read_bytes()
        assert result_a == result_b

        info["detail"] = result_a


BENCH_PATTERN = (
    r"^BENCH stage=(detect|track|count) mean_ms=\d+\.\d{3} "
    r"p50_ms=\d+\.\d{3} p95_ms=\d+\.\d{3} frames=\d+$"
)


def test_bench_throughput(capsys, ten_vehicle_scene):
    import re

    with _gate(capsys, 8, "bench-throughput") as info:
        records = cli.bench(cli.PipelineConfig(scene=ten_vehicle_scene), 5, 50)
        assert [r.stage for r in records] == ["detect", "track", "count"]
        pattern = re.compile(BENCH_PATTERN)
        for record in records:
            assert pattern.match(cli.bench_line(record)), cli.bench_line(record)
            assert record.frames == 50
        detect_ms = records[0].mean_ms
        assert detect_ms < 500.0
        info["detail"] = f"bgsub detect {detect_ms:.2f} ms/frame at 240x135"
