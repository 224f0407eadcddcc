"""Decision stumps, boosted strong classifiers, cascade training and detection.

A detection window is described by a fixed-length feature vector: the window
is split into a grid of cells, and for every (cell, block geometry) pair a
64-bin rank histogram of MB-LBP codes is appended, each bin normalized by
the cell's footprint-site count so every component lies in [0, 1]. Stumps
threshold single components; stages are AdaBoost-weighted stump sums with a
calibrated pass threshold; the cascade rejects a window at the first failing
stage.

Training and detection share one site path: an integral image (a stack of
crops, or one frame) gives a rank map per block geometry, and
_site_gatherer gathers a (cell, geometry) chunk's footprint-site bins for
many window origins at once. Training counts them into every histogram of
every crop (window_features). Detection builds no histogram: it runs the
stages over the windows still alive, each stump counting the sites of its
chunk that hold its bin, with rank maps shared across a frame's scales.

Stump search is histogram-shortlisted. Every feature is count / sites, so
the feature matrix holds few distinct values (89 for the default layout).
train_strong bins them once; each boosting round takes one weighted
histogram per (column, class), scans its cumulative sums for each column's
best error, and shortlists the columns within a proved rounding bound of
the minimum. The exact search (_presort/_best_stump, sorted cumulative
sums) then decides among the shortlisted columns only, so the chosen stump
and its error are those of the exact search over every column.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import (
    RANK_HISTOGRAM_BINS,
    BlockGeometry,
    RankTable,
    build_rank_table,
    mb_lbp_code_map,
)
from .imaging import Frame, Rect, integral, round_half_up

MODEL_MAGIC = "mblbp-cascade"
MODEL_VERSION = "v1"

DEFAULT_GRID = 3
DEFAULT_GEOMETRIES = (1, 2, 3)

# weighted error clamp keeps alpha finite on perfectly separated rounds
_EPS_CLAMP = 1e-10


@dataclass(frozen=True)
class Stump:
    """Single-feature threshold test: -1 if x_i < threshold else +1, times polarity."""

    feature_index: int
    threshold: float
    polarity: int

    def __post_init__(self):
        if self.feature_index < 0:
            raise ValueError(f"feature_index must be >= 0, got {self.feature_index}")
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")


@dataclass(frozen=True)
class StrongClassifier:
    """Weighted stump ensemble; label is +1 iff the score reaches stage_threshold."""

    stumps: tuple[tuple[Stump, float], ...]
    stage_threshold: float = 0.0


@dataclass(frozen=True)
class Detection:
    """Cluster of accepted windows merged into one axis-aligned box."""

    rect: Rect
    score: float
    cluster_count: int

    def __post_init__(self):
        if self.cluster_count < 1:
            raise ValueError(f"cluster_count must be >= 1, got {self.cluster_count}")


@dataclass(frozen=True)
class CascadeModel:
    """Ordered rejection stages plus the feature layout they were trained on."""

    stages: tuple[StrongClassifier, ...]
    window_w: int
    window_h: int
    rank_table: RankTable
    grid: int = DEFAULT_GRID
    geometries: tuple[int, ...] = DEFAULT_GEOMETRIES

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError(f"grid must be >= 1, got {self.grid}")
        if not self.geometries:
            raise ValueError("geometry set must not be empty")
        if self.window_w // self.grid < 3 or self.window_h // self.grid < 3:
            raise ValueError(
                f"window {self.window_w}x{self.window_h} too small for a "
                f"{self.grid}x{self.grid} cell grid with 3x3 footprints"
            )
        counts = [len(s.stumps) for s in self.stages]
        if any(a > b for a, b in zip(counts, counts[1:])):
            raise ValueError(f"per-stage stump counts must be nondecreasing, got {counts}")

    @property
    def feature_count(self) -> int:
        return self.grid * self.grid * len(self.geometries) * RANK_HISTOGRAM_BINS


def _presort(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column sample order, candidate thresholds and validity mask.

    Candidate k splits the sorted column after its first k samples; its
    threshold is the midpoint of the straddled values (sentinels one unit
    past the extremes at k=0 and k=n). Midpoints between equal values are
    masked out.
    """
    n, d = xs.shape
    order = np.argsort(xs, axis=0, kind="stable")
    svals = np.take_along_axis(xs, order, axis=0)
    thresholds = np.empty((n + 1, d))
    thresholds[0] = svals[0] - 1.0
    thresholds[n] = svals[n - 1] + 1.0
    valid = np.ones((n + 1, d), dtype=bool)
    if n > 1:
        thresholds[1:n] = (svals[: n - 1] + svals[1:]) / 2.0
        valid[1:n] = svals[: n - 1] != svals[1:]
    return order, thresholds, valid


def _best_stump(
    order: np.ndarray,
    thresholds: np.ndarray,
    valid: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> tuple[Stump, float]:
    """Minimum-weighted-error stump over all (feature, threshold, polarity).

    Ties break by (error, feature_index, threshold, polarity +1 first).
    """
    n, d = order.shape
    sorted_labels = labels[order]
    sorted_weights = weights[order]
    pos_w = np.where(sorted_labels > 0, sorted_weights, 0.0)
    neg_w = sorted_weights - pos_w
    cum_pos = np.zeros((n + 1, d))
    cum_neg = np.zeros((n + 1, d))
    np.cumsum(pos_w, axis=0, out=cum_pos[1:])
    np.cumsum(neg_w, axis=0, out=cum_neg[1:])
    total = cum_pos[n] + cum_neg[n]
    # split k, polarity +1: first k samples labeled -1, the rest +1
    err_plus = np.where(valid, cum_pos + (cum_neg[n] - cum_neg), np.inf)
    err_minus = np.where(valid, total - (cum_pos + (cum_neg[n] - cum_neg)), np.inf)
    errs = np.stack((err_plus, err_minus))
    col_err = errs.min(axis=(0, 1))
    at_err = errs == col_err
    thr_b = np.broadcast_to(thresholds, errs.shape)
    col_thr = np.where(at_err, thr_b, np.inf).min(axis=(0, 1))
    plus_wins = (at_err[0] & (thresholds == col_thr)).any(axis=0)
    col = int(np.argmin(col_err))
    polarity = 1 if plus_wins[col] else -1
    stump = Stump(feature_index=col, threshold=float(col_thr[col]), polarity=polarity)
    return stump, float(col_err[col])


def _histogram_keys(xs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Flat histogram key of every (sample, column) and the number of value bins.

    Bin b holds the b-th smallest distinct value of the whole matrix; the key
    (column * 2 + is_positive) * bins + b is laid out in xs's row-major
    order. None when there are more distinct values than samples: such a
    histogram would be no smaller than the sorted columns.
    """
    n, d = xs.shape
    values = np.unique(xs)
    nb = len(values)
    if nb > n:
        return None
    keys = np.searchsorted(values, xs)
    keys += 2 * nb * np.arange(d)
    keys += (nb * (labels > 0))[:, None]
    return keys.ravel(), nb


def _shortlist(keys: np.ndarray, nb: int, weights: np.ndarray) -> np.ndarray:
    """Columns whose histogram-best error may be the dense search's minimum.

    One weighted bincount gives each column's per-class weight in every
    value bin; their cumsums give the error of a split after every bin, in
    the form _best_stump uses. A split after an empty bin repeats its
    neighbour's error, so in exact arithmetic each column has the same
    error set as in the dense search.

    The two searches round differently. With u = eps / 2, W = sum(weights)
    and m = n + nb, every prefix sum either forms (n sorted samples, or bin
    sums then nb bins) is off by at most m * u (1 + O(m u)) times its exact
    value. One split error reads five such sums whose exact values total at
    most 3 * W, plus four roundings of at most u * W each, so it is off by
    at most (3m + 4) u W. The dense winner's histogram error thus exceeds
    the histogram minimum by at most twice both searches' bounds,
    (12n + 6nb + 16) u W, which the tolerance 8 (n + nb + 1) eps W covers.
    """
    n = len(weights)
    d = len(keys) // n
    hist = np.bincount(keys, np.repeat(weights, d), minlength=2 * d * nb).reshape(d, 2, nb)
    cum = np.zeros((d, 2, nb + 1))
    np.cumsum(hist, axis=2, out=cum[:, :, 1:])
    cum_neg, cum_pos = cum[:, 0], cum[:, 1]
    err_plus = cum_pos + (cum_neg[:, -1:] - cum_neg)
    err_minus = (cum_pos[:, -1:] + cum_neg[:, -1:]) - err_plus
    col_err = np.minimum(err_plus.min(axis=1), err_minus.min(axis=1))
    tol = 8 * (n + nb + 1) * np.finfo(np.float64).eps * weights.sum()
    return np.flatnonzero(col_err <= col_err.min() + tol)


def _search(
    xs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    binned: tuple[np.ndarray, int] | None,
) -> tuple[Stump, float]:
    """_best_stump over all columns, run densely on the shortlisted ones only.

    Each column's dense errors do not depend on the other columns, so the
    stump, its error and the tie-break match the search over every column
    bit for bit. Without histogram keys every column is searched.
    """
    cols = np.arange(xs.shape[1]) if binned is None else _shortlist(*binned, weights)
    stump, err = _best_stump(*_presort(xs[:, cols]), labels, weights)
    return replace(stump, feature_index=int(cols[stump.feature_index])), err


def _stump_predict(stump: Stump, values: np.ndarray) -> np.ndarray:
    """Stump output for each value of its feature."""
    base = np.where(values < stump.threshold, -1, 1)
    return stump.polarity * base


def train_stump(xs: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> Stump:
    """Best single stump under weighted 0/1 error.

    Single-class input returns a sentinel stump classifying everything as
    that class.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.sum() <= 0.0:
        raise ValueError("weights must have positive sum")
    if np.all(labels > 0):
        return Stump(0, float(xs[:, 0].min()) - 1.0, 1)
    if np.all(labels < 0):
        return Stump(0, float(xs[:, 0].max()) + 1.0, 1)
    stump, _ = _search(xs, labels, weights, _histogram_keys(xs, labels))
    return stump


def train_strong(xs: np.ndarray, labels: np.ndarray, rounds: int) -> StrongClassifier:
    """AdaBoost over decision stumps; stage_threshold starts at 0.

    The features are binned once; each round a weighted histogram
    shortlists the columns whose best error is within a rounding bound of
    the minimum, and the dense search decides among them (see _shortlist).
    Stumps and alphas equal those of a dense search over every column.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if np.all(labels > 0) or np.all(labels < 0):
        raise ValueError("training set must contain both classes")
    n = len(xs)
    weights = np.full(n, 1.0 / n)
    binned = _histogram_keys(xs, labels)
    stumps = []
    for _ in range(rounds):
        stump, err = _search(xs, labels, weights, binned)
        err = min(max(err, _EPS_CLAMP), 1.0 - _EPS_CLAMP)
        alpha = 0.5 * math.log((1.0 - err) / err)
        stumps.append((stump, alpha))
        predictions = _stump_predict(stump, xs[:, stump.feature_index])
        weights = weights * np.exp(-alpha * labels * predictions)
        weights /= weights.sum()
    return StrongClassifier(stumps=tuple(stumps), stage_threshold=0.0)


def calibrate_stage(
    h: StrongClassifier, positive_scores: Sequence[float], mhr: float
) -> StrongClassifier:
    """Raise stage_threshold as far as possible while passing >= MHR of positives."""
    scores = sorted(float(s) for s in positive_scores)
    n = len(scores)
    if n == 0:
        raise ValueError("calibration needs at least one positive score")
    if not 0.0 < mhr <= 1.0:
        raise ValueError(f"MHR must lie in (0, 1], got {mhr}")
    k = n - math.ceil(mhr * n)
    while k + 1 < n and (n - (k + 1)) / n >= mhr:
        k += 1
    while k > 0 and (n - k) / n < mhr:
        k -= 1
    return replace(h, stage_threshold=scores[max(k, 0)])


def _cell_rects(window: Rect, grid: int) -> list[Rect]:
    """Row-major grid cells partitioning the window (sizes differ by <= 1 px)."""
    xs = [window.x + (i * window.w) // grid for i in range(grid + 1)]
    ys = [window.y + (j * window.h) // grid for j in range(grid + 1)]
    return [
        Rect(xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j])
        for j in range(grid)
        for i in range(grid)
    ]


def _scaled_geometries(model: CascadeModel, win_w: int, win_h: int) -> list[BlockGeometry]:
    """Block geometries for a window of the given size.

    Cell sizes scale with the window and are clamped so a 3x3 footprint fits
    in the smallest grid cell.
    """
    min_cell_w = win_w // model.grid
    min_cell_h = win_h // model.grid
    if min_cell_w < 3 or min_cell_h < 3:
        raise ValueError(f"window {win_w}x{win_h} too small for grid {model.grid}")
    sx = win_w / model.window_w
    sy = win_h / model.window_h
    out = []
    for g in model.geometries:
        bw = min(max(1, round_half_up(g * sx)), min_cell_w // 3)
        bh = min(max(1, round_half_up(g * sy)), min_cell_h // 3)
        out.append(BlockGeometry(bw, bh))
    return out


def _chunk_layout(model: CascadeModel, win_w: int, win_h: int) -> list[tuple[Rect, BlockGeometry]]:
    """(cell, geometry) of chunk c = cell * geometries + geometry, for each c."""
    geoms = _scaled_geometries(model, win_w, win_h)
    return [(cell, g) for cell in _cell_rects(Rect(0, 0, win_w, win_h), model.grid) for g in geoms]


def _site_gatherer(rank_map: Callable[[BlockGeometry], np.ndarray]):
    """gather(cell, g, ys, xs): rank bins of cell's geometry-g footprint sites.

    Window origins (ys, xs) broadcast and lie inside the image; the result
    has shape stack + origins + (span_h, span_w). `rank_map(g)`, the rank
    map of one image or a stack, runs once per g; each (g, span) view once.
    """
    rank_map = functools.cache(rank_map)

    @functools.cache
    def view(g: BlockGeometry, span: tuple[int, int]) -> np.ndarray:
        return sliding_window_view(rank_map(g), span, axis=(-2, -1))

    def gather(cell: Rect, g: BlockGeometry, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        span = (cell.h - g.footprint_h + 1, cell.w - g.footprint_w + 1)
        return view(g, span)[..., ys + cell.y, xs + cell.x, :, :]

    return gather


def window_features(
    model: CascadeModel,
    rank_maps: Mapping[BlockGeometry, np.ndarray],
    win_w: int,
    win_h: int,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Feature vectors of the win_w x win_h windows at every origin (xs[i], ys[j]).

    `rank_maps` maps each block geometry to its rank map over one image or a
    stack of them (leading axes). Components [64c, 64c + 64) hold chunk c =
    cell * geometries + geometry: the cell's rank histogram divided by its
    site count. The result has shape stack + (len(ys), len(xs), feature_count).
    """
    gather = _site_gatherer(rank_maps.__getitem__)
    chunks = []
    for cell, g in _chunk_layout(model, win_w, win_h):
        bins = gather(cell, g, ys[:, None], xs[None, :])
        windows = math.prod(bins.shape[:-2])
        keys = bins.reshape(windows, -1) + np.arange(windows)[:, None] * RANK_HISTOGRAM_BINS
        counts = np.bincount(keys.ravel(), minlength=windows * RANK_HISTOGRAM_BINS)
        hist = counts.reshape(bins.shape[:-2] + (RANK_HISTOGRAM_BINS,))
        chunks.append(hist / math.prod(bins.shape[-2:]))
    return np.concatenate(chunks, axis=-1)


def _stage_scores(stage: StrongClassifier, xs: np.ndarray) -> np.ndarray:
    """Stage score of every feature vector along the last axis of xs.

    Scores accumulate stump by stump in stage order, so each equals the
    scalar sum of alpha * output over one window's stumps bit for bit.
    """
    scores = np.zeros(xs.shape[:-1])
    for stump, alpha in stage.stumps:
        scores += alpha * _stump_predict(stump, xs[..., stump.feature_index])
    return scores


def _crop_features(probe: CascadeModel, crops: Sequence[Frame]) -> tuple[CascadeModel, np.ndarray]:
    """Rank table of the crop set and the (N, feature_count) feature matrix.

    All crops go through one stacked integral image; each geometry's code
    map feeds both the rank table and the rank map.
    """
    ii = integral(np.stack([c.pixels for c in crops]))
    geoms = _scaled_geometries(probe, probe.window_w, probe.window_h)
    codes = {g: mb_lbp_code_map(ii, g) for g in geoms}
    model = replace(probe, rank_table=build_rank_table([codes[g] for g in geoms]))
    rank_maps = {g: model.rank_table.bins[c] for g, c in codes.items()}
    origin = np.zeros(1, dtype=np.intp)
    x = window_features(model, rank_maps, probe.window_w, probe.window_h, origin, origin)
    return model, x[:, 0, 0]


def train_cascade(
    positives: Sequence[Frame],
    negatives: Sequence[Frame],
    stages: int,
    mhr: float,
    rounds: Sequence[int] | None = None,
    grid: int = DEFAULT_GRID,
    geometries: tuple[int, ...] = DEFAULT_GEOMETRIES,
) -> CascadeModel:
    """Train an S-stage cascade on canonical-size crops.

    Stage s uses rounds[s-1] stumps (default 2*s); after calibration to MHR
    the negatives rejected by the stage are dropped, and training stops
    early once no negatives survive. The rank table is built from the codes
    of the whole crop set, pooled across geometries.
    """
    if not positives or not negatives:
        raise ValueError("need at least one positive and one negative crop")
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    w, h = positives[0].width, positives[0].height
    for crop in list(positives) + list(negatives):
        if crop.width != w or crop.height != h:
            raise ValueError(
                f"all crops must share one size, got {crop.width}x{crop.height} vs {w}x{h}"
            )
    if rounds is None:
        rounds = [2 * s for s in range(1, stages + 1)]
    elif len(rounds) < stages:
        raise ValueError(f"rounds schedule has {len(rounds)} entries for {stages} stages")

    probe = CascadeModel(
        stages=(), window_w=w, window_h=h, rank_table=RankTable(np.zeros(256)),
        grid=grid, geometries=geometries,
    )
    model, x = _crop_features(probe, [*positives, *negatives])
    x_pos, x_neg = x[: len(positives)], x[len(positives) :]

    trained = []
    for s in range(stages):
        if len(x_neg) == 0:
            break
        xs = np.concatenate([x_pos, x_neg])
        labels = np.concatenate([np.ones(len(x_pos), dtype=np.int64),
                                 -np.ones(len(x_neg), dtype=np.int64)])
        stage = train_strong(xs, labels, rounds[s])
        stage = calibrate_stage(stage, _stage_scores(stage, x_pos), mhr)
        trained.append(stage)
        x_neg = x_neg[_stage_scores(stage, x_neg) >= stage.stage_threshold]
    return replace(model, stages=tuple(trained))


def _classify_grid(
    model: CascadeModel,
    gather: Callable[..., np.ndarray],
    win_w: int,
    win_h: int,
    xs: np.ndarray,
    ys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cascade decisions and scores (of the rejecting or last stage) for a grid of window origins.

    Each stage scores only the windows all earlier stages accepted. A stump's value is the
    count of its chunk's sites holding its bin over the site count, as in window_features.
    """
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


def _iou_float(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    ix = max(a[0], b[0])
    iy = max(a[1], b[1])
    iw = min(a[0] + a[2], b[0] + b[2]) - ix
    ih = min(a[1] + a[3], b[1] + b[3]) - iy
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


class _Cluster:
    def __init__(self, rect: Rect, score: float):
        self.sums = np.array([rect.x, rect.y, rect.w, rect.h], dtype=np.float64)
        self.count = 1
        self.score = score

    def mean(self) -> tuple[float, float, float, float]:
        m = self.sums / self.count
        return m[0], m[1], m[2], m[3]

    def add(self, rect: Rect, score: float) -> None:
        self.sums += (rect.x, rect.y, rect.w, rect.h)
        self.count += 1
        self.score = max(self.score, score)


def _cluster_hits(hits: Sequence[tuple[Rect, float]], mcc: int) -> list[Detection]:
    """Greedy clustering: a hit joins the first cluster whose running mean
    rect overlaps it with IoU >= 0.5, else starts a new cluster."""
    clusters: list[_Cluster] = []
    for rect, score in hits:
        box = (float(rect.x), float(rect.y), float(rect.w), float(rect.h))
        for cluster in clusters:
            if _iou_float(box, cluster.mean()) >= 0.5:
                cluster.add(rect, score)
                break
        else:
            clusters.append(_Cluster(rect, score))
    detections = []
    for cluster in clusters:
        if cluster.count < mcc:
            continue
        mx, my, mw, mh = cluster.mean()
        rect = Rect(round_half_up(mx), round_half_up(my), round_half_up(mw), round_half_up(mh))
        detections.append(Detection(rect=rect, score=cluster.score, cluster_count=cluster.count))
    return detections


def detect(
    model: CascadeModel,
    frame: Frame,
    scales: Sequence[float] = (1.0,),
    stride: int = 4,
    mcc: int = 1,
) -> list[Detection]:
    """Multi-scale sliding-window detection with MCC cluster filtering.

    Raw hits are enumerated scale-ascending then row-major and greedily
    clustered; clusters with fewer than MCC members are discarded. Each
    Detection carries the rounded member-mean rect and the max member score.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not scales:
        raise ValueError("scale list must not be empty")
    if any(s < 1.0 for s in scales) or list(scales) != sorted(scales):
        raise ValueError(f"scales must be >= 1.0 and ascending, got {list(scales)}")
    if mcc < 1:
        raise ValueError(f"MCC must be >= 1, got {mcc}")
    ii = integral(frame)
    gather = _site_gatherer(lambda g: model.rank_table.bins[mb_lbp_code_map(ii, g)])
    hits: list[tuple[Rect, float]] = []
    for scale in scales:
        win_w = round_half_up(model.window_w * scale)
        win_h = round_half_up(model.window_h * scale)
        if win_w > frame.width or win_h > frame.height:
            continue
        xs = np.arange(0, frame.width - win_w + 1, stride)
        ys = np.arange(0, frame.height - win_h + 1, stride)
        alive, scores = _classify_grid(model, gather, win_w, win_h, xs, ys)
        for j, i in np.argwhere(alive):
            hits.append((Rect(int(xs[i]), int(ys[j]), win_w, win_h), float(scores[j, i])))
    return _cluster_hits(hits, mcc)


def save_model(model: CascadeModel, path: str | os.PathLike) -> None:
    """Plain-text model file; loading reproduces decisions bit-identically."""
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION} {model.window_w} {model.window_h} "
        f"{model.grid} {','.join(str(g) for g in model.geometries)} "
        f"{model.feature_count} {len(model.stages)}"
    ]
    lines.append(model.rank_table.to_text().rstrip("\n"))
    for stage in model.stages:
        lines.append(f"stage {len(stage.stumps)} {stage.stage_threshold:.17g}")
        for stump, alpha in stage.stumps:
            lines.append(
                f"{stump.feature_index} {stump.threshold:.17g} {stump.polarity} {alpha:.17g}"
            )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str | os.PathLike) -> CascadeModel:
    """Parse a model file; any malformed or truncated content raises ValueError."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError("empty model file")
    header = lines[0].split()
    if len(header) != 8 or header[0] != MODEL_MAGIC or header[1] != MODEL_VERSION:
        raise ValueError(f"unrecognized model header: {lines[0]!r}")
    window_w, window_h, grid = int(header[2]), int(header[3]), int(header[4])
    geometries = tuple(int(g) for g in header[5].split(","))
    feature_count, n_stages = int(header[6]), int(header[7])
    rank_table = RankTable.from_text("\n".join(lines[1:257]))
    stages = []
    pos = 257
    for _ in range(n_stages):
        fields = lines[pos].split() if pos < len(lines) else []
        if len(fields) != 3 or fields[0] != "stage":
            raise ValueError(f"expected stage {len(stages) + 1} of {n_stages} at line {pos + 1}")
        count = int(fields[1])
        stump_lines = lines[pos + 1 : pos + 1 + count]
        if len(stump_lines) != count:
            raise ValueError(
                f"stage {len(stages) + 1} declares {count} stumps, file has {len(stump_lines)}"
            )
        stumps = []
        for line in stump_lines:
            fi, thr, pol, alpha = line.split()
            if int(fi) >= feature_count:
                raise ValueError(f"feature_index {fi} out of range for {feature_count} features")
            stumps.append((Stump(int(fi), float(thr), int(pol)), float(alpha)))
        stages.append(StrongClassifier(stumps=tuple(stumps), stage_threshold=float(fields[2])))
        pos += 1 + count
    if pos != len(lines):
        raise ValueError(f"unexpected line {pos + 1} after the last stage: {lines[pos]!r}")
    model = CascadeModel(
        stages=tuple(stages),
        window_w=window_w,
        window_h=window_h,
        rank_table=rank_table,
        grid=grid,
        geometries=geometries,
    )
    if model.feature_count != feature_count:
        raise ValueError(
            f"header feature count {feature_count} does not match layout "
            f"{model.feature_count}"
        )
    return model
