"""Stump training, AdaBoost stages, cascade calibration and window detection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from roadcount import boostcascade
from roadcount.boostcascade import (
    CascadeModel,
    Detection,
    StrongClassifier,
    Stump,
    _best_stump,
    _cell_rects,
    _classify_grid,
    _cluster_hits,
    _histogram_keys,
    _presort,
    _scaled_geometries,
    _shortlist,
    _site_gatherer,
    _stage_scores,
    _stump_predict,
    calibrate_stage,
    detect,
    load_model,
    save_model,
    train_cascade,
    train_strong,
    train_stump,
    window_features,
)
from roadcount.features import (
    RANK_HISTOGRAM_BINS,
    BlockGeometry,
    RankTable,
    build_rank_table,
    mb_lbp_code_map,
    mb_lbp_histogram,
)
from roadcount.imaging import Frame, Rect, integral, round_half_up


def weak_classify(s, x):
    """Scalar reference stump: -1 if x[feature] < threshold else +1, times polarity."""
    if s.feature_index >= len(x):
        raise IndexError(f"feature_index {s.feature_index} out of range for D={len(x)}")
    base = -1 if x[s.feature_index] < s.threshold else 1
    return s.polarity * base


def strong_classify(h, x):
    """Scalar reference stage: (score, label), label +1 iff score >= stage_threshold."""
    score = 0.0
    for stump, alpha in h.stumps:
        score += alpha * weak_classify(stump, x)
    label = 1 if score >= h.stage_threshold else -1
    return score, label


def _oracle_window_features(model, ii, window):
    """Scalar reference: one mb_lbp_histogram per (cell, geometry) of one window."""
    if window.right > ii.width or window.bottom > ii.height:
        raise ValueError(f"window {window} exceeds {ii.width}x{ii.height} image")
    vec = []
    for cell in _cell_rects(window, model.grid):
        for g in _scaled_geometries(model, window.w, window.h):
            hist = mb_lbp_histogram(ii, cell, g, model.rank_table)
            sites = (cell.w - g.footprint_w + 1) * (cell.h - g.footprint_h + 1)
            vec.append(hist / sites)
    return np.concatenate(vec)


def _oracle_classify(model, ii, window):
    """Scalar reference cascade: (accepted, score, stages evaluated) of one window."""
    x = _oracle_window_features(model, ii, window)
    score = 0.0
    evaluated = 0
    for stage in model.stages:
        score, label = strong_classify(stage, x)
        evaluated += 1
        if label < 0:
            return False, score, evaluated
    return True, score, evaluated


def _rank_maps(model, ii, win_w, win_h):
    geoms = _scaled_geometries(model, win_w, win_h)
    return {g: model.rank_table.bins[mb_lbp_code_map(ii, g)] for g in geoms}


def _oracle_stump(xs, labels, weights):
    """Exhaustive stump search mirroring the documented candidate set and
    tie-break (error, feature_index, threshold, polarity +1 first)."""
    n, d = xs.shape
    best = None
    for fi in range(d):
        svals = np.sort(xs[:, fi])
        candidates = [svals[0] - 1.0, svals[-1] + 1.0]
        candidates += [
            (svals[k - 1] + svals[k]) / 2.0
            for k in range(1, n)
            if svals[k - 1] != svals[k]
        ]
        for thr in candidates:
            base = np.where(xs[:, fi] < thr, -1, 1)
            for polarity in (1, -1):
                err = float(weights[polarity * base != labels].sum())
                key = (err, fi, thr, 0 if polarity == 1 else 1)
                if best is None or key < best[0]:
                    best = (key, Stump(fi, float(thr), polarity))
    return best[1]


def test_stump_validation():
    with pytest.raises(ValueError):
        Stump(-1, 0.0, 1)
    with pytest.raises(ValueError):
        Stump(0, 0.0, 0)


def test_weak_classify_boundary():
    s = Stump(0, 0.5, 1)
    assert weak_classify(s, np.array([0.4])) == -1
    assert weak_classify(s, np.array([0.5])) == 1  # equality sits on the +1 side
    assert weak_classify(s, np.array([0.6])) == 1
    flipped = Stump(0, 0.5, -1)
    assert weak_classify(flipped, np.array([0.4])) == 1
    assert weak_classify(flipped, np.array([0.6])) == -1
    with pytest.raises(IndexError):
        weak_classify(Stump(3, 0.5, 1), np.array([0.1]))
    # the production column predictor agrees with the scalar reference
    values = np.array([0.4, 0.5, 0.6])
    for stump in (s, flipped):
        want = [weak_classify(stump, np.array([v])) for v in values]
        assert _stump_predict(stump, values).tolist() == want


def test_strong_classify_weighted_vote_and_tie():
    h = StrongClassifier(
        stumps=((Stump(0, 0.5, 1), 1.0), (Stump(1, 0.5, -1), 2.0)),
        stage_threshold=3.0,
    )
    score, label = strong_classify(h, np.array([0.5, 0.4]))
    assert score == 3.0 and label == 1  # score == threshold passes
    score, label = strong_classify(h, np.array([0.4, 0.6]))
    assert score == -3.0 and label == -1
    empty = StrongClassifier(stumps=(), stage_threshold=0.0)
    assert strong_classify(empty, np.array([1.0])) == (0.0, 1)
    # the production stage scorer gives the same scores for a batch
    xs = np.array([[0.5, 0.4], [0.4, 0.6], [0.9, 0.9]])
    assert _stage_scores(h, xs).tolist() == [strong_classify(h, x)[0] for x in xs]
    assert _stage_scores(empty, xs[:, :1]).tolist() == [0.0, 0.0, 0.0]


def test_train_stump_matches_exhaustive_oracle():
    # weights on a power-of-two lattice make both error accumulations exact,
    # so tie-breaks are comparable bit for bit
    rng = np.random.default_rng(53)
    for _ in range(50):
        n = int(rng.integers(4, 14))
        d = int(rng.integers(1, 5))
        xs = np.round(rng.normal(size=(n, d)), 2)
        labels = rng.choice([-1, 1], n)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        weights = rng.integers(1, 16, n) / 16.0
        weights /= weights.sum()
        weights = np.round(weights * 64) / 64.0
        weights[0] += 1.0 - weights.sum()  # keep the exact-lattice property
        got = train_stump(xs, labels, weights)
        want = _oracle_stump(xs, labels, weights)
        assert got == want


def test_train_stump_single_class_sentinels():
    xs = np.array([[1.0], [2.0]])
    all_pos = train_stump(xs, np.array([1, 1]), np.array([0.5, 0.5]))
    assert weak_classify(all_pos, xs[0]) == 1 and weak_classify(all_pos, xs[1]) == 1
    all_neg = train_stump(xs, np.array([-1, -1]), np.array([0.5, 0.5]))
    assert weak_classify(all_neg, xs[0]) == -1 and weak_classify(all_neg, xs[1]) == -1
    with pytest.raises(ValueError):
        train_stump(xs, np.array([1, -1]), np.array([0.0, 0.0]))


def test_train_strong_separable_single_round():
    xs = np.array([[0.0], [0.1], [0.9], [1.0]])
    labels = np.array([-1, -1, 1, 1])
    h = train_strong(xs, labels, 1)
    assert len(h.stumps) == 1
    for x, y in zip(xs, labels):
        assert strong_classify(h, x)[1] == y
    with pytest.raises(ValueError):
        train_strong(xs, np.ones(4, dtype=np.int64), 1)
    with pytest.raises(ValueError):
        train_strong(xs, labels, 0)


def test_train_strong_weight_recursion_replay():
    rng = np.random.default_rng(59)
    xs = rng.normal(size=(24, 3))
    labels = rng.choice([-1, 1], 24)
    labels[0], labels[1] = 1, -1
    rounds = 6
    h = train_strong(xs, labels, rounds)
    assert len(h.stumps) == rounds
    weights = np.full(24, 1.0 / 24)
    for stump, alpha in h.stumps:
        base = np.where(xs[:, stump.feature_index] < stump.threshold, -1, 1)
        preds = stump.polarity * base
        err = float(weights[preds != labels].sum())
        err = min(max(err, 1e-10), 1.0 - 1e-10)
        assert alpha == pytest.approx(0.5 * math.log((1.0 - err) / err), rel=1e-12)
        weights = weights * np.exp(-alpha * labels * preds)
        weights /= weights.sum()
        assert abs(weights.sum() - 1.0) <= 1e-12
    # round 1 runs under exactly uniform weights: stump must match the oracle
    assert h.stumps[0][0] == _oracle_stump(xs, labels, np.full(24, 1.0 / 24))


def test_train_strong_more_rounds_not_worse():
    rng = np.random.default_rng(61)
    xs = np.concatenate([rng.normal(0.0, 1.0, (40, 2)), rng.normal(1.2, 1.0, (40, 2))])
    labels = np.concatenate([-np.ones(40, dtype=np.int64), np.ones(40, dtype=np.int64)])

    def training_error(h):
        return sum(strong_classify(h, x)[1] != y for x, y in zip(xs, labels))

    assert training_error(train_strong(xs, labels, 9)) <= training_error(
        train_strong(xs, labels, 1)
    )


def _dense_boost(xs, labels, rounds):
    """AdaBoost whose every round runs _best_stump over all columns.

    Returns the (stump, alpha) pairs and each round's shortlist; train_stump
    must pick the dense stump under every round's weights as well.
    """
    n = len(xs)
    weights = np.full(n, 1.0 / n)
    binned = _histogram_keys(xs, labels)
    stumps, shortlists = [], []
    for _ in range(rounds):
        stump, err = _best_stump(*_presort(xs), labels, weights)
        assert train_stump(xs, labels, weights) == stump
        if binned is not None:
            shortlists.append(_shortlist(*binned, weights).tolist())
        err = min(max(err, 1e-10), 1.0 - 1e-10)
        alpha = 0.5 * math.log((1.0 - err) / err)
        stumps.append((stump, alpha))
        predictions = stump.polarity * np.where(xs[:, stump.feature_index] < stump.threshold, -1, 1)
        weights = weights * np.exp(-alpha * labels * predictions)
        weights /= weights.sum()
    return tuple(stumps), shortlists


def test_train_strong_shortlist_matches_full_search():
    # features quantized like MB-LBP histograms (k/64, k/25, k/4): the
    # histogram shortlist runs, and after round 1 the weights are no
    # longer dyadic, so the two searches round differently
    rng = np.random.default_rng(17)
    n = 240
    labels = rng.choice([-1, 1], n)

    def sided(side, low, high):
        return np.where(side > 0, rng.choice(high, n), rng.choice(low, n)) / 64

    strong_side = np.where(rng.random(n) < 0.05, -labels, labels)
    strong = sided(strong_side, np.arange(25), np.arange(40, 65))
    side = np.where(rng.random(n) < 0.3, -labels, labels)
    # a and b split the samples identically but sort them differently within
    # each side: their side-split errors tie up to rounding
    a = sided(side, [4, 16], [40, 52])
    b = sided(side, [4, 16], [40, 52])
    noise = [rng.integers(0, s + 1, n) / s for s in (64, 25, 4, 64, 25, 4)]
    # column 6 duplicates column 1
    xs = np.column_stack([noise[0], a, noise[1], strong, noise[2], b, a, noise[3]])
    assert _histogram_keys(xs, labels) is not None
    want, shortlists = _dense_boost(xs, labels, 8)
    assert train_strong(xs, labels, 8).stumps == want
    # in round 2 b wins on rounding while a ties with it in exact
    # arithmetic; the histogram sums rank a lower by one ulp
    assert want[1][0].feature_index == 5 and 1 in shortlists[1]

    # only the trivial split is left: every column ties and is searched
    xs = np.tile([0.25, 0.5, 0.0], (n, 1))
    want, shortlists = _dense_boost(xs, labels, 3)
    assert train_strong(xs, labels, 3).stumps == want
    assert shortlists == [[0, 1, 2]] * 3

    # more distinct values than samples: no histogram, every column searched
    xs = rng.normal(size=(40, 3))
    labels = np.where(xs[:, 0] + 0.3 * rng.normal(size=40) > 0, 1, -1)
    assert _histogram_keys(xs, labels) is None
    want, _ = _dense_boost(xs, labels, 6)
    assert train_strong(xs, labels, 6).stumps == want


def test_calibrate_stage_order_statistic():
    h = StrongClassifier(stumps=(), stage_threshold=0.0)
    assert calibrate_stage(h, [1.0, 2.0, 3.0, 4.0], 0.75).stage_threshold == 2.0
    assert calibrate_stage(h, [1.0, 2.0, 3.0, 4.0], 1.0).stage_threshold == 1.0
    assert calibrate_stage(h, [1.0, 2.0, 3.0, 4.0], 0.25).stage_threshold == 4.0
    assert calibrate_stage(h, [5.0], 0.5).stage_threshold == 5.0
    with pytest.raises(ValueError):
        calibrate_stage(h, [], 0.5)
    with pytest.raises(ValueError):
        calibrate_stage(h, [1.0], 0.0)
    with pytest.raises(ValueError):
        calibrate_stage(h, [1.0], 1.5)


def test_calibrate_stage_maximal_threshold_property():
    rng = np.random.default_rng(67)
    h = StrongClassifier(stumps=(), stage_threshold=0.0)
    for _ in range(100):
        scores = rng.normal(size=int(rng.integers(1, 40)))
        mhr = float(rng.uniform(0.05, 1.0))
        thr = calibrate_stage(h, scores.tolist(), mhr).stage_threshold
        assert thr in scores
        passed = np.count_nonzero(scores >= thr)
        assert passed / len(scores) >= mhr
        higher = scores[scores > thr]
        if len(higher):
            nxt = higher.min()
            assert np.count_nonzero(scores >= nxt) / len(scores) < mhr


def _noise_crops(rng, n, w, h, lo=0, hi=256):
    """(n, h, w) uint8 stack, drawn one crop at a time."""
    return np.stack([rng.integers(lo, hi, (h, w)).astype(np.uint8) for _ in range(n)])


def _block_crops(rng, n, w, h):
    """Noise crops with a bright solid center block (a learnable signature)."""
    crops = _noise_crops(rng, n, w, h, lo=0, hi=90)
    crops[:, h // 4 : h - h // 4, w // 4 : w - w // 4] = 220
    return crops


def test_cascade_model_validation():
    rt = RankTable(np.zeros(256))
    with pytest.raises(ValueError):
        CascadeModel(stages=(), window_w=6, window_h=30, rank_table=rt)
    with pytest.raises(ValueError):
        CascadeModel(stages=(), window_w=30, window_h=30, rank_table=rt, grid=0)
    with pytest.raises(ValueError):
        CascadeModel(stages=(), window_w=30, window_h=30, rank_table=rt, geometries=())
    two = StrongClassifier(stumps=((Stump(0, 0.0, 1), 1.0), (Stump(0, 0.0, 1), 1.0)))
    one = StrongClassifier(stumps=((Stump(0, 0.0, 1), 1.0),))
    with pytest.raises(ValueError):
        CascadeModel(stages=(two, one), window_w=30, window_h=30, rank_table=rt)


def test_scaled_geometries_formula():
    rt = RankTable(np.zeros(256))
    model = CascadeModel(
        stages=(), window_w=30, window_h=30, rank_table=rt, geometries=(1, 2, 3)
    )
    assert [(g.cell_w, g.cell_h) for g in _scaled_geometries(model, 30, 30)] == [
        (1, 1),
        (2, 2),
        (3, 3),
    ]
    # doubled window: cells scale 2x, clamped at (min cell width) // 3
    assert [(g.cell_w, g.cell_h) for g in _scaled_geometries(model, 60, 60)] == [
        (2, 2),
        (4, 4),
        (6, 6),
    ]
    assert [(g.cell_w, g.cell_h) for g in _scaled_geometries(model, 45, 30)] == [
        (2, 1),
        (3, 2),
        (5, 3),
    ]
    with pytest.raises(ValueError):
        _scaled_geometries(model, 8, 30)


def test_window_features_layout():
    rng = np.random.default_rng(71)
    rt = build_rank_table([rng.integers(0, 256, 4000)])
    model = CascadeModel(
        stages=(), window_w=18, window_h=18, rank_table=rt, geometries=(1, 2)
    )
    crops = rng.integers(0, 256, (5, 18, 18)).astype(np.uint8)
    origin = np.zeros(1, dtype=np.intp)
    stack_ii = integral(crops)
    vecs = window_features(model, _rank_maps(model, stack_ii, 18, 18), 18, 18, origin, origin)
    assert vecs.shape == (5, 1, 1, model.feature_count) == (5, 1, 1, 9 * 2 * 64)
    assert vecs.min() >= 0.0 and vecs.max() <= 1.0
    # each (cell, geometry) chunk is one normalized histogram
    assert np.allclose(vecs.reshape(-1, 64).sum(axis=1), 1.0)
    for crop, vec in zip(crops, vecs[:, 0, 0]):
        oracle = _oracle_window_features(model, integral(Frame(crop)), Rect(0, 0, 18, 18))
        assert np.array_equal(vec, oracle)

    # one frame, windows at nonzero origins, at the canonical size and at a
    # size where _scaled_geometries changes the cell sizes
    frame = Frame(rng.integers(0, 256, (40, 52)).astype(np.uint8))
    ii = integral(frame)
    for win_w, win_h in ((18, 18), (27, 36)):
        geoms = _scaled_geometries(model, win_w, win_h)
        xs = np.array([0, 5, frame.width - win_w])
        ys = np.array([3, frame.height - win_h])
        vecs = window_features(model, _rank_maps(model, ii, win_w, win_h), win_w, win_h, xs, ys)
        assert vecs.shape == (2, 3, model.feature_count)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                window = Rect(int(x), int(y), win_w, win_h)
                chunks = vecs[j, i].reshape(-1, RANK_HISTOGRAM_BINS)
                for c, cell in enumerate(_cell_rects(window, model.grid)):
                    for k, g in enumerate(geoms):
                        sites = (cell.w - g.footprint_w + 1) * (cell.h - g.footprint_h + 1)
                        want = mb_lbp_histogram(ii, cell, g, rt) / sites
                        assert np.array_equal(chunks[c * len(geoms) + k], want)
    assert [(g.cell_w, g.cell_h) for g in _scaled_geometries(model, 27, 36)] == [(2, 2), (3, 4)]
    with pytest.raises(ValueError):
        _oracle_window_features(model, ii, Rect(40, 0, 18, 18))


def test_train_cascade_separable_accepts_positives():
    rng = np.random.default_rng(73)
    positives = _block_crops(rng, 24, 18, 18)
    negatives = _noise_crops(rng, 24, 18, 18, lo=0, hi=90)
    model = train_cascade(positives, negatives, stages=2, mhr=1.0, geometries=(1, 2))
    assert 1 <= len(model.stages) <= 2
    for crop in positives:
        accepted, _, _ = _oracle_classify(model, integral(crop), Rect(0, 0, 18, 18))
        assert accepted
    counts = [len(s.stumps) for s in model.stages]
    assert counts == sorted(counts)


def test_train_cascade_stage_one_hit_rate_and_subset():
    # positives and negatives share one distribution: no real signal, so the
    # structural guarantees are all that can hold
    rng = np.random.default_rng(79)
    positives = _noise_crops(rng, 30, 18, 18)
    negatives = _noise_crops(rng, 30, 18, 18)
    mhr = 0.9
    model = train_cascade(
        positives, negatives, stages=2, mhr=mhr, rounds=(2, 3), geometries=(1, 2)
    )
    window = Rect(0, 0, 18, 18)
    stage1 = model.stages[0]
    hits = 0
    for crop in positives:
        x = _oracle_window_features(model, integral(crop), window)
        score, label = strong_classify(stage1, x)
        hits += label == 1
    assert hits / len(positives) >= mhr
    for crop in negatives:
        x = _oracle_window_features(model, integral(crop), window)
        accepted, _, evaluated = _oracle_classify(model, integral(crop), window)
        _, stage1_label = strong_classify(stage1, x)
        if accepted:
            assert stage1_label == 1  # cascade acceptance implies stage-1 acceptance
            assert evaluated == len(model.stages)
        if stage1_label == -1:
            assert evaluated == 1


def test_train_cascade_validation():
    rng = np.random.default_rng(83)
    crops = _noise_crops(rng, 4, 18, 18)
    with pytest.raises(ValueError):
        train_cascade(crops[:0], crops, 1, 0.9)
    with pytest.raises(ValueError):
        train_cascade(crops, crops[:0], 1, 0.9)
    with pytest.raises(ValueError, match="^all crops must share one size, got 12x18 vs 18x18$"):
        train_cascade(crops, _noise_crops(rng, 2, 12, 18), 1, 0.9, geometries=(1, 2))
    with pytest.raises(ValueError, match="^all crops must share one size, got 18x17 vs 18x18$"):
        train_cascade(crops, _noise_crops(rng, 2, 18, 17), 1, 0.9, geometries=(1, 2))
    with pytest.raises(ValueError):
        train_cascade(crops, crops, 0, 0.9)
    with pytest.raises(ValueError):
        train_cascade(crops, crops, 3, 0.9, rounds=(2,))


def _frame_gatherer(model, ii, requested=None):
    """Fresh site gatherer of one integral image; `requested` collects the
    geometries whose rank map it builds."""

    def rank_map(g):
        if requested is not None:
            requested.append(g)
        return model.rank_table.bins[mb_lbp_code_map(ii, g)]

    return _site_gatherer(rank_map)


def _quantile_cascade(base, x, stage_features, keep):
    """Cascade on base's layout over the feature rows x of a window grid.

    Stage s reads stage_features[s]; each stump is thresholded at its
    feature's median, polarities alternate, and the stage threshold passes
    the top keep[s] share of the rows every earlier stage passed (ties at
    the threshold pass).
    """
    alive = np.ones(len(x), dtype=bool)
    stages = []
    for features, share in zip(stage_features, keep):
        stumps = tuple(
            (Stump(f, float(np.median(x[:, f])), 1 - 2 * (k % 2)), 1.0 + k / 4)
            for k, f in enumerate(features)
        )
        scores = _stage_scores(StrongClassifier(stumps), x)
        passed = np.sort(scores[alive])
        threshold = float(passed[int(len(passed) * (1 - share))])
        alive &= scores >= threshold
        stages.append(StrongClassifier(stumps, stage_threshold=threshold))
    return replace(base, stages=tuple(stages))


def _grid_against_oracle(model, ii, win_w, win_h, xs, ys):
    """Check _classify_grid against the scalar cascade on every window of the
    grid; returns the decisions and how many stages the oracle ran per window."""
    alive, scores = _classify_grid(model, _frame_gatherer(model, ii), win_w, win_h, xs, ys)
    x = window_features(model, _rank_maps(model, ii, win_w, win_h), win_w, win_h, xs, ys)
    evaluated = np.zeros(alive.shape, dtype=int)
    for j, y in enumerate(ys):
        for i, x0 in enumerate(xs):
            window = Rect(int(x0), int(y), win_w, win_h)
            accepted, score, evaluated[j, i] = _oracle_classify(model, ii, window)
            assert accepted == bool(alive[j, i])
            # the score of the rejecting (or last) stage, same float arithmetic
            assert score == scores[j, i]
            oracle_x = _oracle_window_features(model, ii, window)
            for stage in model.stages:
                assert _stage_scores(stage, x[j, i]) == strong_classify(stage, oracle_x)[0]
    return alive, evaluated


def test_grid_evaluation_matches_scalar_classifier():
    rng = np.random.default_rng(89)
    positives = _block_crops(rng, 20, 18, 18)
    negatives = _noise_crops(rng, 20, 18, 18, lo=0, hi=90)
    trained = train_cascade(positives, negatives, stages=2, mhr=0.95, geometries=(1, 2))
    frame = Frame(rng.integers(0, 256, (40, 52)).astype(np.uint8))
    frame.pixels[5:23, 7:25] = positives[0]
    ii = integral(frame)
    xs = np.arange(0, frame.width - 18 + 1, 3)
    ys = np.arange(0, frame.height - 18 + 1, 3)
    x = window_features(trained, _rank_maps(trained, ii, 18, 18), 18, 18, xs, ys)
    x = x.reshape(-1, trained.feature_count)
    varied = [f for f in range(trained.feature_count) if len(np.unique(x[:, f])) >= 4]
    by_chunk = {}
    for f in varied:
        by_chunk.setdefault(f // RANK_HISTOGRAM_BINS, []).append(f)
    shared = max(by_chunk.values(), key=len)[:3]
    others = [f for f in varied if f // RANK_HISTOGRAM_BINS != shared[0] // RANK_HISTOGRAM_BINS]
    others = others[:: len(others) // 7][:7]
    assert len(shared) == 3 and len({f % 2 for f in others}) == 2  # both geometries read
    # three stages that reject most windows early; the chunk of shared[0]
    # feeds stumps in every stage, shared[0] itself in two
    staged = _quantile_cascade(
        trained,
        x,
        [
            (shared[0], others[0], others[1]),
            (shared[0], shared[1], others[2], others[3]),
            (shared[2], shared[1], others[4], others[5], others[6]),
        ],
        keep=(0.25, 0.5, 0.5),
    )
    # every stump of every stage reads that one chunk
    one_chunk = _quantile_cascade(
        trained, x, [(shared[0],), (shared[1], shared[0]), (shared[2], shared[0])], (0.5, 0.5, 0.5)
    )
    for model in (trained, staged, one_chunk):
        alive, evaluated = _grid_against_oracle(model, ii, 18, 18, xs, ys)
        assert alive.any()
        if model is staged:
            assert np.mean(evaluated == 1) >= 0.7 and np.mean(evaluated == 2) >= 0.1
            assert (~alive & (evaluated == 3)).any()
        # a scaled window whose geometries differ
        _grid_against_oracle(model, ii, 24, 21, np.arange(0, 29, 3), np.arange(0, 20, 3))


def test_grid_evaluation_stage_one_rejects_every_window():
    rng = np.random.default_rng(91)
    frame = Frame(rng.integers(0, 256, (40, 52)).astype(np.uint8))
    ii = integral(frame)
    rt = build_rank_table([mb_lbp_code_map(ii, BlockGeometry(1, 1))])
    # stage 1 reads geometry 1 only and needs more than its stumps can score;
    # stage 2 reads geometry 2 only
    stages = (
        StrongClassifier(
            ((Stump(5, 0.1, 1), 1.0), (Stump(2 * 64 + 6, 0.2, -1), 0.5)), stage_threshold=2.0
        ),
        StrongClassifier(((Stump(3 * 64 + 1, 0.1, 1), 1.0),) * 2, stage_threshold=-5.0),
    )
    model = CascadeModel(stages, 18, 18, rt, geometries=(1, 2))
    xs = np.arange(0, 35, 2)
    ys = np.arange(0, 23, 2)
    requested = []
    alive, scores = _classify_grid(model, _frame_gatherer(model, ii, requested), 18, 18, xs, ys)
    assert not alive.any()
    assert requested == [BlockGeometry(1, 1)]  # stage 2's rank map is never built
    for j, y in enumerate(ys):
        for i, x0 in enumerate(xs):
            accepted, score, evaluated = _oracle_classify(model, ii, Rect(int(x0), int(y), 18, 18))
            assert not accepted and evaluated == 1 and score == scores[j, i]
    assert detect(model, frame, scales=(1.0, 1.5), stride=2) == []


def test_multiscale_detect_matches_per_scale_evaluation(monkeypatch):
    rng = np.random.default_rng(97)
    positives = _block_crops(rng, 30, 18, 18)
    negatives = _noise_crops(rng, 30, 18, 18, lo=0, hi=90)
    model = train_cascade(positives, negatives, stages=2, mhr=1.0, geometries=(1, 2))
    frame = Frame(rng.integers(0, 90, (64, 80)).astype(np.uint8))
    frame.pixels[12:30, 20:38] = positives[5]
    # a pattern upscaled to the 29x29 window of scale 1.6
    near = np.arange(29) * 18 // 29
    frame.pixels[30:59, 44:73] = positives[7][near][:, near]
    scales = (1.0, 1.25, 1.6)
    built = []
    code_map = boostcascade.mb_lbp_code_map
    monkeypatch.setattr(
        boostcascade, "mb_lbp_code_map", lambda ii, g: built.append(g) or code_map(ii, g)
    )
    got = detect(model, frame, scales=scales, stride=2, mcc=1)
    hits, per_scale = [], []
    for scale in scales:
        win = round_half_up(18 * scale)
        xs = np.arange(0, frame.width - win + 1, 2)
        ys = np.arange(0, frame.height - win + 1, 2)
        gather = _frame_gatherer(model, integral(frame), per_scale)
        alive, scores = _classify_grid(model, gather, win, win, xs, ys)
        hits += [(Rect(int(xs[i]), int(ys[j]), win, win), float(scores[j, i]))
                 for j, i in np.argwhere(alive)]
    assert len({rect.w for rect, _ in hits}) >= 2
    assert got == _cluster_hits(hits, 1)
    # scales 1.0 and 1.25 scale to the same geometries: detect builds each
    # rank map once per frame, where per-scale evaluation builds it twice
    assert len(built) == len(set(built)) < len(per_scale) and set(built) == set(per_scale)


def test_cluster_hits_running_mean_and_mcc():
    r1, rmid, r2 = Rect(0, 0, 10, 10), Rect(2, 0, 10, 10), Rect(4, 0, 10, 10)
    # r2 joins only after rmid pulls the cluster mean toward it
    merged = _cluster_hits([(r1, 1.0), (rmid, 3.0), (r2, 2.0)], mcc=1)
    assert len(merged) == 1
    assert merged[0].cluster_count == 3
    assert merged[0].rect == Rect(2, 0, 10, 10)
    assert merged[0].score == 3.0
    # visiting r2 before rmid leaves it too far from the running mean
    split = _cluster_hits([(r1, 1.0), (r2, 2.0), (rmid, 3.0)], mcc=1)
    assert sorted(d.cluster_count for d in split) == [1, 2]
    assert len(_cluster_hits([(r1, 1.0), (r2, 2.0), (rmid, 3.0)], mcc=2)) == 1
    assert _cluster_hits([], mcc=1) == []
    with pytest.raises(ValueError):
        Detection(rect=r1, score=0.0, cluster_count=0)


def test_detect_finds_planted_pattern():
    rng = np.random.default_rng(97)
    positives = _block_crops(rng, 30, 18, 18)
    negatives = _noise_crops(rng, 30, 18, 18, lo=0, hi=90)
    model = train_cascade(positives, negatives, stages=2, mhr=1.0, geometries=(1, 2))
    frame = Frame(rng.integers(0, 90, (48, 64)).astype(np.uint8))
    planted = Rect(20, 12, 18, 18)
    frame.pixels[12:30, 20:38] = positives[5]
    detections = detect(model, frame, scales=(1.0,), stride=2, mcc=2)

    def iou(a: Rect, b: Rect) -> float:
        inter = a.intersection_area(b)
        return inter / (a.area + b.area - inter)

    assert any(iou(d.rect, planted) > 0.4 for d in detections)
    with pytest.raises(ValueError):
        detect(model, frame, stride=0)
    with pytest.raises(ValueError):
        detect(model, frame, scales=())
    with pytest.raises(ValueError):
        detect(model, frame, scales=(2.0, 1.0))
    for repeated in ((1.0, 1.0), (1.0, 1.25, 1.25)):
        with pytest.raises(ValueError, match="strictly ascending"):
            detect(model, frame, scales=repeated)
    with pytest.raises(ValueError):
        detect(model, frame, scales=(0.5,))
    with pytest.raises(ValueError):
        detect(model, frame, mcc=0)


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(101)
    positives = _block_crops(rng, 16, 18, 18)
    negatives = _noise_crops(rng, 16, 18, 18, lo=0, hi=90)
    model = train_cascade(positives, negatives, stages=2, mhr=0.95, geometries=(1, 2))
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.window_w == model.window_w and loaded.window_h == model.window_h
    assert loaded.grid == model.grid and loaded.geometries == model.geometries
    assert loaded.rank_table == model.rank_table
    assert loaded.stages == model.stages
    frame = Frame(rng.integers(0, 256, (30, 30)).astype(np.uint8))
    ii = integral(frame)
    for _ in range(20):
        x, y = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        assert _oracle_classify(model, ii, Rect(x, y, 18, 18)) == _oracle_classify(
            loaded, ii, Rect(x, y, 18, 18)
        )
    save_model(model, path)
    assert load_model(path).stages == model.stages


def test_model_load_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-model v1 30 30 3 1,2,3 1728 0\n")
    with pytest.raises(ValueError):
        load_model(path)
    path.write_text("mblbp-cascade v1 30 30 3 1,2,3 999 0\n" + "".join(f"{c} 63\n" for c in range(256)))
    with pytest.raises(ValueError):
        load_model(path)
    path.write_text("mblbp-cascade v1 30 30\n")
    with pytest.raises(ValueError):
        load_model(path)

    stages = (
        StrongClassifier(((Stump(5, 0.25, 1), 0.5),), stage_threshold=0.1),
        StrongClassifier(((Stump(7, 0.5, -1), 0.75), (Stump(1727, 0.125, 1), 1.5))),
    )
    model = CascadeModel(
        stages=stages, window_w=30, window_h=30, rank_table=RankTable(np.arange(256) % 64)
    )
    save_model(model, path)
    lines = path.read_text().splitlines(keepends=True)
    assert load_model(path) == model
    # empty file
    path.write_text("")
    with pytest.raises(ValueError):
        load_model(path)
    # last stump line dropped: the last stage would silently lose a stump
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ValueError):
        load_model(path)
    # trailing line after the last stage
    path.write_text("".join(lines) + lines[-1])
    with pytest.raises(ValueError):
        load_model(path)
    # feature_index beyond the header's feature count
    path.write_text("".join(lines[:-1]) + "5000 0.125 1 1.5\n")
    with pytest.raises(ValueError):
        load_model(path)
