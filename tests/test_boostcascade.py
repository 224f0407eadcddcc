"""Stump training, AdaBoost stages, cascade calibration and window detection."""

import functools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from roadcount import boostcascade
from roadcount.boostcascade import (
    _BLOCK,
    CascadeModel,
    Detection,
    StrongClassifier,
    Stump,
    _best_stump,
    _boost,
    _bin,
    _cell_rects,
    _chunk_layout,
    _classify_grid,
    _cluster_hits,
    _crop_features,
    _histograms,
    _presort,
    _scaled_geometries,
    _shortlist,
    _site_views,
    _stump_predict,
    calibrate_stage,
    detect,
    load_model,
    save_model,
    scaled_window,
    train_cascade,
    train_strong,
    train_stump,
)
from roadcount.features import (
    RANK_HISTOGRAM_BINS,
    BlockGeometry,
    RankTable,
    _codes_from_grid,
    build_rank_table,
    mb_lbp_code_map,
)
from roadcount.imaging import Frame, Rect, load_pgm, round_half_up, sequence_paths

from oracles import integral, integral_histogram


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


def window_features(model, rank_maps, win_w, win_h, xs, ys):
    """Float feature vectors of the win_w x win_h windows at every origin (xs[i], ys[j]).

    `rank_maps` maps each block geometry to its rank map over one image or a
    stack of them (leading axes). Components [64c, 64c + 64) hold chunk c =
    cell * geometries + geometry: the cell's rank histogram divided by its
    site count. The result has shape stack + (len(ys), len(xs), feature_count).
    """
    sites = _site_views(rank_maps.__getitem__)
    chunks = []
    for cell, g in _chunk_layout(model, win_w, win_h):
        bins = sites(cell, g)[..., ys[:, None], xs[None, :], :, :]
        windows = math.prod(bins.shape[:-2])
        keys = bins.reshape(windows, -1) + np.arange(windows)[:, None] * RANK_HISTOGRAM_BINS
        counts = np.bincount(keys.ravel(), minlength=windows * RANK_HISTOGRAM_BINS)
        hist = counts.reshape(bins.shape[:-2] + (RANK_HISTOGRAM_BINS,))
        chunks.append(hist / math.prod(bins.shape[-2:]))
    return np.concatenate(chunks, axis=-1)


def stage_scores(stage, xs):
    """Float reference of the scores _boost returns: stage score of every vector along xs's
    last axis."""
    scores = np.zeros(xs.shape[:-1])
    for stump, alpha in stage.stumps:
        scores += alpha * _stump_predict(stump, xs[..., stump.feature_index])
    return scores


def _oracle_window_features(model, ii, window):
    """Scalar reference: one integral_histogram per (cell, geometry) of one window."""
    if window.right > ii.width or window.bottom > ii.height:
        raise ValueError(f"window {window} exceeds {ii.width}x{ii.height} image")
    vec = []
    for cell in _cell_rects(window, model.grid):
        for g in _scaled_geometries(model, window.w, window.h):
            hist = integral_histogram(ii, cell, g, model.rank_table)
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


def _rank_maps(model, pixels, win_w, win_h):
    geoms = _scaled_geometries(model, win_w, win_h)
    return {g: model.rank_table.bins[mb_lbp_code_map(pixels, g)] for g in geoms}


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
    # the float reference gives the same scores for a batch of rows
    xs = np.array([[0.5, 0.4], [0.4, 0.6], [0.9, 0.9]])
    want = [strong_classify(h, x)[0] for x in xs]
    assert stage_scores(h, xs).tolist() == want
    assert stage_scores(empty, xs[:, :1]).tolist() == [0.0, 0.0, 0.0]
    # the scores the boosting loop returns are the reference scores of its own classifier
    rng = np.random.default_rng(157)
    xs = rng.integers(0, 6, size=(40, 5)) / 5.0
    labels = np.where(rng.uniform(size=40) < 0.4, 1, -1)
    boosted, scores = _boost(*_bin(xs), labels, 4)
    assert len(boosted.stumps) == 4
    assert scores.tolist() == stage_scores(boosted, xs).tolist()


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


def _single_bincount_histograms(xs, labels, weights):
    """Reference histograms: one weighted bincount over the whole float matrix.

    The key of (sample, column) is (column * 2 + is_positive) * nb + bin,
    with bin b the b-th smallest distinct value of the matrix.
    """
    n, d = xs.shape
    values = np.unique(xs)
    nb = len(values)
    keys = np.searchsorted(values, xs) + 2 * nb * np.arange(d) + (nb * (labels > 0))[:, None]
    hist = np.bincount(keys.ravel(), np.repeat(weights, d), minlength=2 * d * nb)
    return hist.reshape(d, 2, nb)


def _keyed(xs, labels):
    """The (codes, labels, nvalues) arguments _histograms takes for a float matrix."""
    codes, values = _bin(xs)
    return codes, labels, len(values)


def _dense_boost(xs, labels, rounds):
    """AdaBoost whose every round runs _best_stump over all columns.

    Returns the (stump, alpha) pairs and each round's shortlist; train_stump
    must pick the dense stump under every round's weights as well, and the
    blockwise histograms must equal one bincount over the matrix bit for bit.
    """
    n = len(xs)
    weights = np.full(n, 1.0 / n)
    keyed = _keyed(xs, labels)
    stumps, shortlists = [], []
    for _ in range(rounds):
        stump, err = _best_stump(*_presort(xs), labels, weights)
        assert train_stump(xs, labels, weights) == stump
        hist = _histograms(*keyed, weights)
        assert np.array_equal(hist, _single_bincount_histograms(xs, labels, weights))
        shortlists.append(_shortlist(hist, weights).tolist())
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

    # one column more than a histogram block, and fewer than a block: the
    # signal sits in the last column, alone in its block in the first case
    for d in (_BLOCK + 1, _BLOCK - 3):
        xs = np.column_stack([rng.integers(0, s + 1, n) / s for s in rng.choice([4, 25, 64], d)])
        xs[:, -1] = strong
        want, shortlists = _dense_boost(xs, labels, 6)
        assert train_strong(xs, labels, 6).stumps == want
        assert want[0][0].feature_index == d - 1 and d - 1 in shortlists[0]

    # more than 256 distinct values: uint16 codes, and the histogram still runs
    wide = 400
    wide_labels = rng.choice([-1, 1], wide)
    xs = np.column_stack(
        [rng.integers(0, 301, wide) / 300 for _ in range(4)]
        + [(rng.integers(0, 151, wide) + 150 * (wide_labels > 0)) / 300]
    )
    codes, _, nvalues = _keyed(xs, wide_labels)
    assert codes.dtype == np.uint16 and nvalues > 256
    want, shortlists = _dense_boost(xs, wide_labels, 6)
    assert train_strong(xs, wide_labels, 6).stumps == want
    assert want[0][0].feature_index == 4 and len(shortlists) == 6

    # more distinct values than samples: most bins of every column are empty
    xs = rng.normal(size=(40, 3))
    labels = np.where(xs[:, 0] + 0.3 * rng.normal(size=40) > 0, 1, -1)
    assert _keyed(xs, labels)[2] == 120
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
    for geometries, text in (((1, -2, 3), "1,-2,3"), ((0, 2, 3), "0,2,3")):
        with pytest.raises(ValueError, match=f"^geometries must be >= 1, got {text}$"):
            CascadeModel(stages=(), window_w=30, window_h=30, rank_table=rt, geometries=geometries)
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
    vecs = window_features(model, _rank_maps(model, crops, 18, 18), 18, 18, origin, origin)
    assert vecs.shape == (5, 1, 1, model.feature_count) == (5, 1, 1, 9 * 2 * 64)
    assert vecs.min() >= 0.0 and vecs.max() <= 1.0
    # each (cell, geometry) chunk is one normalized histogram
    assert np.allclose(vecs.reshape(-1, 64).sum(axis=1), 1.0)
    for crop, vec in zip(crops, vecs[:, 0, 0]):
        oracle = _oracle_window_features(model, integral(Frame(crop)), Rect(0, 0, 18, 18))
        assert np.array_equal(vec, oracle)
    # training's binned matrix holds the same floats, as uint8 codes
    trained, codes, values = _crop_features(model, crops)
    assert codes.dtype == np.uint8 and codes.shape == (5, model.feature_count)
    assert np.array_equal(values, np.unique(values)) and values[0] == 0.0 and values[-1] == 1.0
    vecs = window_features(trained, _rank_maps(trained, crops, 18, 18), 18, 18, origin, origin)
    assert np.array_equal(values[codes], vecs[:, 0, 0])

    # one frame, windows at nonzero origins, at the canonical size and at a
    # size where _scaled_geometries changes the cell sizes
    frame = Frame(rng.integers(0, 256, (40, 52)).astype(np.uint8))
    ii = integral(frame)
    for win_w, win_h in ((18, 18), (27, 36)):
        geoms = _scaled_geometries(model, win_w, win_h)
        xs = np.array([0, 5, frame.width - win_w])
        ys = np.array([3, frame.height - win_h])
        vecs = window_features(
            model, _rank_maps(model, frame.pixels, win_w, win_h), win_w, win_h, xs, ys
        )
        assert vecs.shape == (2, 3, model.feature_count)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                window = Rect(int(x), int(y), win_w, win_h)
                chunks = vecs[j, i].reshape(-1, RANK_HISTOGRAM_BINS)
                for c, cell in enumerate(_cell_rects(window, model.grid)):
                    for k, g in enumerate(geoms):
                        sites = (cell.w - g.footprint_w + 1) * (cell.h - g.footprint_h + 1)
                        want = integral_histogram(ii, cell, g, rt) / sites
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


def _float_train_cascade(positives, negatives, stages, mhr, rounds, geometries):
    """Reference cascade training on the float feature matrix: the features
    of window_features, one concatenation per stage, train_strong and the
    float stage scores."""
    h, w = positives.shape[1:]
    crops = np.concatenate([positives, negatives])
    probe = CascadeModel((), w, h, RankTable(np.zeros(256)), geometries=geometries)
    geoms = _scaled_geometries(probe, w, h)
    model = replace(probe, rank_table=build_rank_table([mb_lbp_code_map(crops, g) for g in geoms]))
    origin = np.zeros(1, dtype=np.intp)
    x = window_features(model, _rank_maps(model, crops, w, h), w, h, origin, origin)[:, 0, 0]
    x_pos, x_neg = x[: len(positives)], x[len(positives) :]
    trained = []
    for s in range(stages):
        if len(x_neg) == 0:
            break
        xs = np.concatenate([x_pos, x_neg])
        labels = np.concatenate([np.ones(len(x_pos), dtype=np.int64),
                                 -np.ones(len(x_neg), dtype=np.int64)])
        stage = train_strong(xs, labels, rounds[s])
        stage = calibrate_stage(stage, stage_scores(stage, x_pos), mhr)
        trained.append(stage)
        x_neg = x_neg[stage_scores(stage, x_neg) >= stage.stage_threshold]
    return replace(model, stages=tuple(trained))


@pytest.mark.parametrize(
    "size, n_pos, n_neg, dtype", [(18, 60, 120, np.uint8), (60, 150, 250, np.uint16)]
)
def test_train_cascade_matches_float_reference(size, n_pos, n_neg, dtype):
    rng = np.random.default_rng(size)
    # a faint center block: the stages separate the classes only in part
    positives = _noise_crops(rng, n_pos, size, size)
    center = slice(size // 4, size - size // 4)
    positives[:, center, center] //= 2
    negatives = _noise_crops(rng, n_neg, size, size)
    rounds, mhr, geometries = (2, 3, 4), 0.95, (1, 2, 3)
    probe = CascadeModel((), size, size, RankTable(np.zeros(256)), geometries=geometries)
    assert _crop_features(probe, positives[:1])[1].dtype == dtype
    got = train_cascade(positives, negatives, 3, mhr, rounds=rounds, geometries=geometries)
    want = _float_train_cascade(positives, negatives, 3, mhr, rounds, geometries)
    assert len(got.stages) == 3
    assert got == want


def test_train_cascade_memory_stays_below_one_float_matrix():
    # the float64 feature matrix of these crops takes n * d * 8 bytes, and
    # one copy of it alone reaches the bound; the binned training peaks near
    # 0.8 of it, in _crop_features (a training that keeps one float copy
    # beside its codes reads about 1.4, one float copy per stage and an int64
    # key matrix about 4.8)
    rng = np.random.default_rng(107)
    positives = rng.integers(0, 256, (600, 30, 30), dtype=np.uint8)
    negatives = rng.integers(0, 256, (2400, 30, 30), dtype=np.uint8)
    float_bytes = 3000 * 1728 * 8
    tracemalloc.start()
    try:
        model = train_cascade(positives, negatives, stages=2, mhr=0.99)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.stages) == 2
    assert peak < float_bytes


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


def _frame_sites(model, frame, requested=None):
    """Fresh site views of one frame; `requested` collects the geometries
    whose rank map they build."""

    def rank_map(g):
        if requested is not None:
            requested.append(g)
        return model.rank_table.bins[mb_lbp_code_map(frame.pixels, g)]

    return _site_views(rank_map)


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
        scores = stage_scores(StrongClassifier(stumps), x)
        passed = np.sort(scores[alive])
        threshold = float(passed[int(len(passed) * (1 - share))])
        alive &= scores >= threshold
        stages.append(StrongClassifier(stumps, stage_threshold=threshold))
    return replace(base, stages=tuple(stages))


def _grid_against_oracle(model, frame, win_w, win_h, xs, ys):
    """Check _classify_grid against the scalar cascade on every window of the
    grid of origin ranges xs, ys; returns the decisions and how many stages
    the oracle ran per window."""
    ii = integral(frame)
    alive, scores = _classify_grid(model, _frame_sites(model, frame), win_w, win_h, xs, ys)
    x = window_features(
        model, _rank_maps(model, frame.pixels, win_w, win_h), win_w, win_h,
        np.asarray(xs), np.asarray(ys),
    )
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
                assert stage_scores(stage, x[j, i]) == strong_classify(stage, oracle_x)[0]
    return alive, evaluated


def test_grid_evaluation_matches_scalar_classifier():
    rng = np.random.default_rng(89)
    positives = _block_crops(rng, 20, 18, 18)
    negatives = _noise_crops(rng, 20, 18, 18, lo=0, hi=90)
    trained = train_cascade(positives, negatives, stages=2, mhr=0.95, geometries=(1, 2))
    frame = Frame(rng.integers(0, 256, (40, 52)).astype(np.uint8))
    frame.pixels[5:23, 7:25] = positives[0]
    xs = range(0, frame.width - 18 + 1, 3)
    ys = range(0, frame.height - 18 + 1, 3)
    x = window_features(
        trained, _rank_maps(trained, frame.pixels, 18, 18), 18, 18, np.asarray(xs), np.asarray(ys)
    )
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
        alive, evaluated = _grid_against_oracle(model, frame, 18, 18, xs, ys)
        assert alive.any()
        if model is staged:
            assert np.mean(evaluated == 1) >= 0.7 and np.mean(evaluated == 2) >= 0.1
            assert (~alive & (evaluated == 3)).any()
        # a scaled window whose geometries differ
        _grid_against_oracle(model, frame, 24, 21, range(0, 29, 3), range(0, 20, 3))


def test_grid_evaluation_stage_one_rejects_every_window():
    rng = np.random.default_rng(91)
    frame = Frame(rng.integers(0, 256, (40, 52)).astype(np.uint8))
    ii = integral(frame)
    rt = build_rank_table([mb_lbp_code_map(frame.pixels, BlockGeometry(1, 1))])
    # stage 1 reads geometry 1 only and needs more than its stumps can score;
    # stage 2 reads geometry 2 only
    stages = (
        StrongClassifier(
            ((Stump(5, 0.1, 1), 1.0), (Stump(2 * 64 + 6, 0.2, -1), 0.5)), stage_threshold=2.0
        ),
        StrongClassifier(((Stump(3 * 64 + 1, 0.1, 1), 1.0),) * 2, stage_threshold=-5.0),
    )
    model = CascadeModel(stages, 18, 18, rt, geometries=(1, 2))
    xs = range(0, 35, 2)
    ys = range(0, 23, 2)
    requested = []
    alive, scores = _classify_grid(model, _frame_sites(model, frame, requested), 18, 18, xs, ys)
    assert not alive.any()
    assert requested == [BlockGeometry(1, 1)]  # stage 2's rank map is never built
    for j, y in enumerate(ys):
        for i, x0 in enumerate(xs):
            accepted, score, evaluated = _oracle_classify(model, ii, Rect(x0, y, 18, 18))
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
        boostcascade, "mb_lbp_code_map", lambda pixels, g: built.append(g) or code_map(pixels, g)
    )
    got = detect(model, frame, scales=scales, stride=2, mcc=1)
    hits, per_scale = [], []
    for scale in scales:
        win = round_half_up(18 * scale)
        xs = range(0, frame.width - win + 1, 2)
        ys = range(0, frame.height - win + 1, 2)
        sites = _frame_sites(model, frame, per_scale)
        alive, scores = _classify_grid(model, sites, win, win, xs, ys)
        hits += [(Rect(xs[i], ys[j], win, win), float(scores[j, i]))
                 for j, i in np.argwhere(alive)]
    assert len({rect.w for rect, _ in hits}) >= 2
    assert got == _cluster_hits(hits, 1)
    # scales 1.0 and 1.25 scale to the same geometries: detect builds each
    # rank map once per frame, where per-scale evaluation builds it twice
    assert len(built) == len(set(built)) < len(per_scale) and set(built) == set(per_scale)


def test_site_views_match_sliding_window_view():
    rng = np.random.default_rng(101)
    rank_maps = {
        BlockGeometry(1, 1): rng.integers(0, 64, (38, 50)).astype(np.uint8),
        BlockGeometry(2, 1): rng.integers(0, 64, (5, 16, 13)).astype(np.uint8),
    }
    # (cell, geometry): spans 1x1, 4x6, 9x3 and the whole rank map
    cases = [
        (Rect(4, 7, 3, 3), BlockGeometry(1, 1)),
        (Rect(0, 2, 8, 6), BlockGeometry(1, 1)),
        (Rect(3, 0, 5, 11), BlockGeometry(1, 1)),
        (Rect(0, 0, 52, 40), BlockGeometry(1, 1)),
        (Rect(0, 0, 6, 3), BlockGeometry(2, 1)),
        (Rect(2, 1, 9, 7), BlockGeometry(2, 1)),
        (Rect(0, 0, 18, 18), BlockGeometry(2, 1)),
    ]
    sites = _site_views(rank_maps.__getitem__)
    for cell, g in cases:
        bins = rank_maps[g]
        span = (cell.h - g.footprint_h + 1, cell.w - g.footprint_w + 1)
        want = sliding_window_view(bins, span, axis=(-2, -1))[..., cell.y :, cell.x :, :, :]
        got = sites(cell, g)
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)
        assert np.shares_memory(got, bins)
        with pytest.raises(ValueError, match="read-only"):
            got[..., 0, 0] = 0
    assert sites(Rect(0, 0, 52, 40), BlockGeometry(1, 1)).shape == (1, 1, 38, 50)


def test_chunk_layout_cache_keyed_on_geometry(monkeypatch):
    rng = np.random.default_rng(103)
    positives = _block_crops(rng, 30, 18, 18)
    negatives = _noise_crops(rng, 30, 18, 18, lo=0, hi=90)
    model = train_cascade(positives, negatives, stages=2, mhr=1.0, geometries=(1, 2))
    # the same stages and rank table on a layout that reads other chunks
    swapped = replace(model, geometries=(2, 1))
    frame = Frame(rng.integers(0, 90, (64, 80)).astype(np.uint8))
    frame.pixels[12:30, 20:38] = positives[5]
    near = np.arange(29) * 18 // 29
    frame.pixels[30:59, 44:73] = positives[7][near][:, near]
    calls = [(m, scales) for scales in ((1.0,), (1.6,)) for m in (model, swapped)]

    def run(order):
        monkeypatch.setattr(boostcascade, "_LAYOUTS", {})
        return {k: _exact(detect(calls[k][0], frame, calls[k][1], stride=2)) for k in order}

    forward = run(range(len(calls)))
    assert forward == run(reversed(range(len(calls))))
    # every call finds something, and no two find the same
    assert all(forward.values())
    assert len({tuple(found) for found in forward.values()}) == len(calls)


def _oracle_gatherer(model, frame):
    """gather(cell, g, ys, xs) of the earlier detector: each code map comes
    from int32 block sums of an int64 integral image, and the sites of the
    windows at origins (ys, xs) are gathered with index arrays."""
    ii = integral(frame)

    @functools.cache
    def rank_map(g):
        sums = ii.block_sums(g.cell_w, g.cell_h, np.int32)
        return model.rank_table.bins[_codes_from_grid(sums, g.cell_w, g.cell_h)]

    @functools.cache
    def view(g, span):
        return sliding_window_view(rank_map(g), span, axis=(-2, -1))

    def gather(cell, g, ys, xs):
        span = (cell.h - g.footprint_h + 1, cell.w - g.footprint_w + 1)
        return view(g, span)[..., ys + cell.y, xs + cell.x, :, :]

    return gather


def _oracle_grid(model, gather, win_w, win_h, xs, ys):
    """The earlier _classify_grid: every stage, the first included, gathers
    its alive windows; values are int64 counts over the site count, scored
    as alpha * _stump_predict."""
    layout = _chunk_layout(model, win_w, win_h)
    alive = np.arange(len(ys) * len(xs))
    scores = np.zeros(len(alive))
    for stage in model.stages:
        wy, wx = ys[alive // len(xs)], xs[alive % len(xs)]
        stage_scores = np.zeros(len(alive))
        for stump, alpha in stage.stumps:
            chunk, b = divmod(stump.feature_index, RANK_HISTOGRAM_BINS)
            bins = gather(*layout[chunk], wy, wx)
            values = (bins == b).sum(axis=(-2, -1)) / math.prod(bins.shape[-2:])
            stage_scores += alpha * _stump_predict(stump, values)
        scores[alive] = stage_scores
        alive = alive[stage_scores >= stage.stage_threshold]
        if not len(alive):
            break
    accepted = np.bincount(alive, minlength=len(scores)) > 0
    return accepted.reshape(len(ys), len(xs)), scores.reshape(len(ys), len(xs))


def _oracle_detect(model, frame, scales, stride, mcc):
    """The earlier detect, kept as an exactness oracle for detect."""
    gather = _oracle_gatherer(model, frame)
    hits = []
    for scale in scales:
        win_w = round_half_up(model.window_w * scale)
        win_h = round_half_up(model.window_h * scale)
        if win_w > frame.width or win_h > frame.height:
            continue
        xs = np.arange(0, frame.width - win_w + 1, stride)
        ys = np.arange(0, frame.height - win_h + 1, stride)
        alive, scores = _oracle_grid(model, gather, win_w, win_h, xs, ys)
        for j, i in np.argwhere(alive):
            hits.append((Rect(int(xs[i]), int(ys[j]), win_w, win_h), float(scores[j, i])))
    return _cluster_hits(hits, mcc)


def _exact(detections):
    """Detections as comparable tuples, scores bit for bit."""
    return [(d.rect, d.score.hex(), d.cluster_count) for d in detections]


def test_detect_matches_integral_gather_oracle(small_cascade, ten_vehicle_scene):
    model = load_model(small_cascade)
    paths = sequence_paths(f"{ten_vehicle_scene}/frames")
    scene = [load_pgm(paths[k]) for k in (100, 160, 230)]
    rng = np.random.default_rng(113)
    noise = [Frame(rng.integers(0, 256, (100, 120)).astype(np.uint8)) for _ in range(2)]
    first = model.stages[0]
    closed = replace(first, stage_threshold=sum(alpha for _, alpha in first.stumps) + 1.0)
    rejecting = replace(model, stages=(closed,) + model.stages[1:])
    # at scale 3 the cells of geometry 1 hold 22 x 22 = 484 sites
    assert [(g.cell_w, g.cell_h) for g in _scaled_geometries(model, 90, 90)][0] == (3, 3)
    found = 0
    for stride in range(1, 8):
        frames = scene if stride in (2, 7) else scene[stride % 3 : stride % 3 + 1]
        for frame in frames + noise[stride % 2 :]:
            for scales in ((1.0, 1.25, 1.6),) + (((1.0, 3.0),) if stride in (1, 7) else ()):
                for mcc in (1, 2):
                    got = detect(model, frame, scales=scales, stride=stride, mcc=mcc)
                    want = _oracle_detect(model, frame, scales, stride, mcc)
                    assert _exact(got) == _exact(want)
                    found += len(got)
            assert detect(rejecting, frame, (1.0, 1.25), stride) == []
            assert _oracle_detect(rejecting, frame, (1.0, 1.25), stride, 1) == []
    assert found > 0
    # every window's decision and score, rejected ones included, at the
    # 484-site scale and at the canonical size; on a flat patch one bin holds
    # every site of a cell, more than a uint8 count holds
    frame = Frame(scene[1].pixels.copy())
    frame.pixels[:70, :100] = 128
    flat_bin = int(model.rank_table.bins[255])
    flat = replace(model, stages=(
        StrongClassifier(((Stump(flat_bin, 0.75, 1), 1.0), (Stump(flat_bin + 64, 0.5, -1), 0.5))),
    ) + model.stages[1:])
    for win, stride in ((90, 1), (90, 4), (30, 1), (30, 7)):
        xs = range(0, frame.width - win + 1, stride)
        ys = range(0, frame.height - win + 1, stride)
        for m in (model, rejecting, flat):
            alive, scores = _classify_grid(m, _frame_sites(m, frame), win, win, xs, ys)
            want_alive, want_scores = _oracle_grid(
                m, _oracle_gatherer(m, frame), win, win, np.asarray(xs), np.asarray(ys)
            )
            assert np.array_equal(alive, want_alive)
            assert np.array_equal(scores.view(np.int64), want_scores.view(np.int64))


def test_detect_decides_scale_fit_before_rounding(small_cascade, monkeypatch):
    model = load_model(small_cascade)
    assert (model.window_w, model.window_h) == (30, 30)
    # 30 * 1.25 = 37.5 rounds half up to a 38 px window
    assert scaled_window(model, 1.25, 38, 38) == (38, 38)
    assert scaled_window(model, 1.25, 37, 38) is None
    assert scaled_window(model, 1.25, 38, 37) is None
    assert scaled_window(model, 1e308, 240, 135) is None  # 30 * 1e308 overflows to inf
    rng = np.random.default_rng(163)
    for _ in range(500):
        side, extent = int(rng.integers(9, 60)), int(rng.integers(9, 150))
        scale = float(rng.choice([rng.uniform(1.0, 4.0), (extent + 0.5) / side]))
        sized = replace(model, window_w=side, window_h=side)
        fits = round_half_up(side * scale) <= extent
        assert (scaled_window(sized, scale, extent, extent) is not None) == fits
    grids = []
    classify_grid = boostcascade._classify_grid
    monkeypatch.setattr(
        boostcascade, "_classify_grid",
        lambda m, sites, win_w, win_h, xs, ys: grids.append((win_w, win_h))
        or classify_grid(m, sites, win_w, win_h, xs, ys),
    )
    pixels = np.random.default_rng(167).integers(0, 256, (38, 38)).astype(np.uint8)
    for size, want in ((37, [(30, 30)]), (38, [(30, 30), (38, 38)])):
        grids.clear()
        frame = Frame(pixels[:size, :size].copy())
        found = detect(model, frame, scales=(1.0, 1.25), stride=1, mcc=1)
        assert grids == want
        if size == 37:  # the scale that does not fit is skipped
            assert _exact(found) == _exact(detect(model, frame, scales=(1.0,), stride=1, mcc=1))


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


@pytest.mark.parametrize(
    "line, old, new, message",
    [
        (0, " 1,2,3 ", " 1,-2,3 ", "geometries must be >= 1, got 1,-2,3"),
        (0, " 1,2,3 ", " 0,2,3 ", "geometries must be >= 1, got 0,2,3"),
        (258, " 0.25 ", " nan ", "stump threshold must be finite, got nan"),
        (258, " 0.5\n", " -inf\n", "stump alpha must be finite, got -inf"),
        (257, " 0.10000000000000001\n", " nan\n", "stage threshold must be finite, got nan"),
        (1, "0 0\n", "300 0\n", "rank table code 300 is outside 0..255"),
        (256, "255 63\n", "-1 63\n", "rank table code -1 is outside 0..255"),
        (256, "255 63\n", "254 62\n", "rank table code 254 is given twice"),
        (0, " 1728 1\n", " 1728 -1\n", "stage count must be >= 1, got -1"),
        (257, "stage 1 ", "stage 0 ", "stage 1 declares 0 stumps, needs at least 1"),
        (0, " 1728 ", " 999 ", "header feature count 999 does not match layout 1728"),
    ],
    ids=[
        "geometry-negative", "geometry-zero", "stump-threshold-nan", "alpha-inf", "stage-nan",
        "rank-code-too-large", "rank-code-negative", "rank-code-repeated",
        "stage-count-negative", "stage-without-stumps", "feature-count-mismatch",
    ],
)
def test_model_load_rejects_values_that_would_count_wrongly(tmp_path, line, old, new, message):
    stages = (StrongClassifier(((Stump(5, 0.25, 1), 0.5),), stage_threshold=0.1),)
    model = CascadeModel(
        stages=stages, window_w=30, window_h=30, rank_table=RankTable(np.arange(256) % 64)
    )
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines(keepends=True)
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new)
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_model(path)
