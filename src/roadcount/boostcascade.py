"""Decision stumps, boosted strong classifiers, cascade training and detection.

A detection window is described by a fixed-length feature vector: the window
is split into a grid of cells, and for every (cell, block geometry) pair a
64-bin rank histogram of MB-LBP codes is appended, each bin normalized by
the cell's footprint-site count so every component lies in [0, 1]. Stumps
threshold single components; stages are AdaBoost-weighted stump sums with a
calibrated pass threshold; the cascade rejects a window at the first failing
stage.

Training and detection share one site path: mb_lbp_code_map turns pixels
(a stack of crops, or one frame) into a code map per block geometry, and
the rank table maps it to a rank map. Training counts every crop's
footprint sites of a (cell, geometry) chunk with mb_lbp_histogram.
Detection builds no histogram: _site_views gives a strided view of a
chunk's footprint-site bins at every window origin, and the stages run
over the windows still alive, each stump counting the sites of its chunk
that hold its bin.
The first stage reads every window of the grid by strided slicing; later
stages gather the alive windows only. Rank maps are built lazily, once per
geometry a reached stage reads, and shared across a frame's scales.

Training stores the features once, binned. Every feature is count / sites,
so the whole crop set holds few distinct values (89 for the default
layout): _crop_features writes each crop's site counts as an (n, d) matrix
of codes into a sorted float64 value table, uint8 when the table has at
most 256 entries (uint16 beyond, e.g. for 324-site chunks). A stage trains
on the rows of the positives and of the negatives every earlier stage
accepted, and float values are gathered only for the columns a step reads.

Stump search is histogram-shortlisted. Each boosting round bins the code
matrix itself into the weight of every (column, class, code) of the value
table, in blocks of _BLOCK columns, so its temporaries stay a few MB; each
key sums its samples in sample order, as one bincount over the whole
matrix would. Their cumulative sums give each column's best error, and the
columns within a proved rounding bound of the minimum are shortlisted. The
exact search (_presort/_best_stump, sorted cumulative sums over the float
values) then decides among the shortlisted columns only, so the chosen
stump and its error are those of the exact search over every column.
train_strong/train_stump bin a float matrix and run the same search.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .features import (
    RANK_HISTOGRAM_BINS,
    BlockGeometry,
    RankTable,
    build_rank_table,
    mb_lbp_code_map,
    mb_lbp_histogram,
)
from .imaging import Frame, Rect, round_half_up

MODEL_MAGIC = "mblbp-cascade"
MODEL_VERSION = "v1"

DEFAULT_GRID = 3
DEFAULT_GEOMETRIES = (1, 2, 3)

# weighted error clamp keeps alpha finite on perfectly separated rounds
_EPS_CLAMP = 1e-10
# columns per histogram block: each round's key and weight temporaries stay
# at a few MB whatever the feature count
_BLOCK = 32


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
        if min(self.geometries) < 1:
            geometries = ",".join(map(str, self.geometries))
            raise ValueError(f"geometries must be >= 1, got {geometries}")
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


def _column_blocks(d: int) -> list[slice]:
    """Column slices of at most _BLOCK columns covering range(d) in order."""
    return [slice(c, min(c + _BLOCK, d)) for c in range(0, d, _BLOCK)]


def _bin(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, values) of a float matrix: xs == values[codes], values sorted and distinct."""
    values, inverse = np.unique(xs, return_inverse=True)
    return inverse.reshape(xs.shape).astype(np.min_scalar_type(len(values) - 1)), values


def _histograms(
    codes: np.ndarray, labels: np.ndarray, nvalues: int, weights: np.ndarray
) -> np.ndarray:
    """(d, 2, nvalues) weight of each column's negatives and positives at each code.

    One weighted bincount per block of columns of the (n, d) code matrix,
    over the flat keys (column * 2 + is_positive) * nvalues + code. Each key
    accumulates its samples in sample order, as one bincount over the whole
    matrix would, so the sums are the same bit for bit; codes no sample of a
    column holds stay exact zeros.
    """
    n, d = codes.shape
    offsets = (2 * np.arange(min(d, _BLOCK))[:, None] + (labels > 0)) * nvalues
    tiled = np.tile(weights, len(offsets))
    hist = np.empty((d, 2, nvalues))
    for cols in _column_blocks(d):
        k = cols.stop - cols.start
        keys = np.add(codes[:, cols].T, offsets[:k], dtype=np.intp, order="C")
        block = np.bincount(keys.ravel(), tiled[: k * n], minlength=2 * k * nvalues)
        hist[cols] = block.reshape(k, 2, nvalues)
    return hist


def _shortlist(hist: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Columns whose histogram-best error may be the dense search's minimum.

    The per-class weights of each column at each code (_histograms) and their
    cumsums give the error of a split after every code, in the form
    _best_stump uses. An empty bin adds an exact zero, so a split after it
    repeats its neighbour's error: in exact arithmetic each column has the
    same error set as in the dense search.

    The two searches round differently. With u = eps / 2, W = sum(weights),
    nb the histogram's bin count and m = n + nb, every prefix sum either forms
    (n sorted samples, or bin sums then nb bins) is off by at most
    m * u (1 + O(m u)) times its exact value. One split error reads five such
    sums whose exact values total at most 3 * W, plus four roundings of at
    most u * W each, so it is off by at most (3m + 4) u W. The dense winner's
    histogram error thus exceeds the histogram minimum by at most twice both
    searches' bounds, (12n + 6nb + 16) u W, which the tolerance
    8 (n + nb + 1) eps W covers.
    """
    n = len(weights)
    d, _, nb = hist.shape
    cum = np.zeros((d, 2, nb + 1))
    np.cumsum(hist, axis=2, out=cum[:, :, 1:])
    cum_neg, cum_pos = cum[:, 0], cum[:, 1]
    err_plus = cum_pos + (cum_neg[:, -1:] - cum_neg)
    err_minus = (cum_pos[:, -1:] + cum_neg[:, -1:]) - err_plus
    col_err = np.minimum(err_plus.min(axis=1), err_minus.min(axis=1))
    tol = 8 * (n + nb + 1) * np.finfo(np.float64).eps * weights.sum()
    return np.flatnonzero(col_err <= col_err.min() + tol)


def _search(
    codes: np.ndarray,
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> tuple[Stump, float]:
    """_best_stump over all columns of values[codes], run densely on the shortlisted ones only.

    Each column's dense errors do not depend on the other columns, so the
    stump, its error and the tie-break match the search over every column
    bit for bit.
    """
    cols = _shortlist(_histograms(codes, labels, len(values), weights), weights)
    stump, err = _best_stump(*_presort(values[codes[:, cols]]), labels, weights)
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
    codes, values = _bin(xs)
    stump, _ = _search(codes, values, labels, weights)
    return stump


def _boost(
    codes: np.ndarray, values: np.ndarray, labels: np.ndarray, rounds: int
) -> tuple[StrongClassifier, np.ndarray]:
    """AdaBoost over decision stumps on the features values[codes]: the strong
    classifier, its stage_threshold at 0, and the stage score of every row.

    Each round a weighted histogram shortlists the columns whose best error
    is within a rounding bound of the minimum, and the dense search decides
    among them (see _shortlist). Stumps and alphas equal those of a dense
    search over every column of the float matrix. Scores accumulate
    alpha * output round by round, so each equals the scalar sum over one
    row's stumps in stage order bit for bit.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if np.all(labels > 0) or np.all(labels < 0):
        raise ValueError("training set must contain both classes")
    n = len(codes)
    weights = np.full(n, 1.0 / n)
    scores = np.zeros(n)
    stumps = []
    for _ in range(rounds):
        stump, err = _search(codes, values, labels, weights)
        err = min(max(err, _EPS_CLAMP), 1.0 - _EPS_CLAMP)
        alpha = 0.5 * math.log((1.0 - err) / err)
        stumps.append((stump, alpha))
        predictions = _stump_predict(stump, values[codes[:, stump.feature_index]])
        scores += alpha * predictions
        weights = weights * np.exp(-alpha * labels * predictions)
        weights /= weights.sum()
    return StrongClassifier(stumps=tuple(stumps), stage_threshold=0.0), scores


def train_strong(xs: np.ndarray, labels: np.ndarray, rounds: int) -> StrongClassifier:
    """AdaBoost over decision stumps on a float feature matrix; stage_threshold starts at 0.

    The features are binned to their distinct values once, then boosted as
    train_cascade boosts its stages (_boost). Each round's histogram holds
    d x 2 x (distinct values) floats, so this suits small or quantized
    matrices: a float matrix of distinct values holds n * d of them.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return _boost(*_bin(xs), labels, rounds)[0]


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


_Layout = tuple[tuple[Rect, BlockGeometry], ...]
_LAYOUTS: dict[tuple, _Layout] = {}


def _chunk_layout(model: CascadeModel, win_w: int, win_h: int) -> _Layout:
    """(cell, geometry) of chunk c = cell * geometries + geometry, for each c.

    The layout depends on the window size and on the model's grid, window
    size and geometries only, so each such key is laid out once.
    """
    key = (model.grid, model.window_w, model.window_h, model.geometries, win_w, win_h)
    if key not in _LAYOUTS:
        geoms = _scaled_geometries(model, win_w, win_h)
        cells = _cell_rects(Rect(0, 0, win_w, win_h), model.grid)
        _LAYOUTS[key] = tuple((cell, g) for cell in cells for g in geoms)
    return _LAYOUTS[key]


def _site_views(rank_map: Callable[[BlockGeometry], np.ndarray]):
    """sites(cell, g): cell's geometry-g footprint-site bins at every window origin.

    The result is a view of shape stack + (origin_y, origin_x, span_h, span_w);
    [..., y, x, :, :] holds the bins of the window whose origin is (x, y).
    `rank_map(g)`, the C-contiguous rank map of one image or a stack, runs
    once per g, and each (g, span) strided view is built once, read-only,
    straight over the rank map's buffer.
    """
    rank_map = functools.cache(rank_map)

    @functools.cache
    def view(g: BlockGeometry, span: tuple[int, int]) -> np.ndarray:
        bins = rank_map(g)
        h, w = bins.shape[-2:]
        shape = bins.shape[:-2] + (h - span[0] + 1, w - span[1] + 1) + span
        out = np.ndarray(shape, bins.dtype, bins, 0, bins.strides + bins.strides[-2:])
        out.flags.writeable = False
        return out

    def sites(cell: Rect, g: BlockGeometry) -> np.ndarray:
        span = (cell.h - g.footprint_h + 1, cell.w - g.footprint_w + 1)
        return view(g, span)[..., cell.y :, cell.x :, :, :]

    return sites


def _crop_features(
    probe: CascadeModel, crops: np.ndarray
) -> tuple[CascadeModel, np.ndarray, np.ndarray]:
    """Rank table, (N, feature_count) code matrix and value table of an (N, h, w) crop stack.

    Feature [64c + b] of a crop is values[code]: the count of chunk c =
    cell * geometries + geometry's footprint sites holding rank bin b, over
    the chunk's site count. The value table holds every such ratio of the
    layout's site counts, sorted; the codes take the smallest unsigned dtype
    that indexes it. Each geometry's code map of the whole stack feeds both
    the rank table and the rank map whose chunk sites mb_lbp_histogram counts.
    """
    geoms = _scaled_geometries(probe, probe.window_w, probe.window_h)
    code_maps = {g: mb_lbp_code_map(crops, g) for g in geoms}
    model = replace(probe, rank_table=build_rank_table([code_maps[g] for g in geoms]))
    # fancy indexing: np.take would copy the whole stack's codes to intp
    rank_maps = {g: model.rank_table.bins[code_maps[g]] for g in geoms}
    layout = _chunk_layout(model, probe.window_w, probe.window_h)
    sites = [(cell.h - g.footprint_h + 1) * (cell.w - g.footprint_w + 1) for cell, g in layout]
    values = np.unique(np.concatenate([np.arange(s + 1) / s for s in set(sites)]))
    dtype = np.min_scalar_type(len(values) - 1)
    code_of = {s: np.searchsorted(values, np.arange(s + 1) / s).astype(dtype) for s in set(sites)}
    codes = np.empty((len(crops), model.feature_count), dtype=dtype)
    for c, (cell, g) in enumerate(layout):
        chunk = slice(c * RANK_HISTOGRAM_BINS, (c + 1) * RANK_HISTOGRAM_BINS)
        codes[:, chunk] = code_of[sites[c]][mb_lbp_histogram(rank_maps[g], cell, g)]
    return model, codes, values


def train_cascade(
    positives: np.ndarray,
    negatives: np.ndarray,
    stages: int,
    mhr: float,
    rounds: Sequence[int] | None = None,
    grid: int = DEFAULT_GRID,
    geometries: tuple[int, ...] = DEFAULT_GEOMETRIES,
) -> CascadeModel:
    """Train an S-stage cascade on (N, h, w) stacks of canonical-size crops.

    Stage s uses rounds[s-1] stumps (default 2*s); after calibration to MHR
    the negatives rejected by the stage are dropped, and training stops
    early once no negatives survive. The rank table is built from the codes
    of the whole crop set, pooled across geometries. Every stage trains on
    the rows of one code matrix (_crop_features): the positives and the
    negatives all earlier stages accepted.
    """
    if not len(positives) or not len(negatives):
        raise ValueError("need at least one positive and one negative crop")
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    h, w = positives.shape[1:]
    if negatives.shape[1:] != (h, w):
        neg_h, neg_w = negatives.shape[1:]
        raise ValueError(f"all crops must share one size, got {neg_w}x{neg_h} vs {w}x{h}")
    if rounds is None:
        rounds = [2 * s for s in range(1, stages + 1)]
    elif len(rounds) < stages:
        raise ValueError(f"rounds schedule has {len(rounds)} entries for {stages} stages")

    probe = CascadeModel(
        stages=(), window_w=w, window_h=h, rank_table=RankTable(np.zeros(256)),
        grid=grid, geometries=geometries,
    )
    model, codes, values = _crop_features(probe, np.concatenate([positives, negatives]))
    n_pos = len(positives)
    negs = np.arange(n_pos, len(codes))

    trained = []
    for s in range(stages):
        if len(negs) == 0:
            break
        stage_codes = codes[np.concatenate([np.arange(n_pos), negs])]
        labels = np.repeat(np.array([1, -1]), [n_pos, len(negs)])
        stage, scores = _boost(stage_codes, values, labels, rounds[s])
        stage = calibrate_stage(stage, scores[:n_pos], mhr)
        trained.append(stage)
        negs = negs[scores[n_pos:] >= stage.stage_threshold]
    return replace(model, stages=tuple(trained))


def _classify_grid(
    model: CascadeModel,
    sites: Callable[[Rect, BlockGeometry], np.ndarray],
    win_w: int,
    win_h: int,
    xs: range,
    ys: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Cascade decisions and scores (of the rejecting or last stage) for the grid of window
    origins (xs[i], ys[j]).

    Each stage scores only the windows all earlier stages accepted. While every window of the
    grid is alive, a stump reads its sites by strided slicing of the site view; later stages
    gather the sites of the alive windows. A stump's value is the count of its chunk's sites
    holding its bin over the site count, the count in an unsigned dtype that holds the site
    count; np.where(value < threshold, -a, a) with a = polarity * alpha equals
    alpha * _stump_predict bit for bit.
    """
    layout = _chunk_layout(model, win_w, win_h)
    n = len(ys) * len(xs)
    alive = np.arange(n)
    scores = np.zeros(n)
    index = (slice(ys.start, ys.stop, ys.step), slice(xs.start, xs.stop, xs.step))
    for stage in model.stages:
        stage_scores = np.zeros(len(alive))
        for stump, alpha in stage.stumps:
            chunk, b = divmod(stump.feature_index, RANK_HISTOGRAM_BINS)
            bins = sites(*layout[chunk])[index]
            site_count = bins.shape[-2] * bins.shape[-1]
            # order="C" keeps each window's sites adjacent for the sum; a strided
            # view's comparison would otherwise be laid out in the view's stride order
            counts = np.equal(bins, b, order="C").sum(
                axis=(-2, -1), dtype=np.min_scalar_type(site_count)
            )
            a = stump.polarity * alpha
            stage_scores += np.where(counts / site_count < stump.threshold, -a, a).ravel()
        scores[alive] = stage_scores
        alive = alive[stage_scores >= stage.stage_threshold]
        if not len(alive):
            break
        if len(alive) < n:
            index = (np.asarray(ys)[alive // len(xs)], np.asarray(xs)[alive % len(xs)])
    accepted = np.bincount(alive, minlength=n) > 0
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
    """Running float64 sums of the member rects' x, y, w, h, and the max score."""

    def __init__(self, rect: Rect, score: float):
        self.x, self.y, self.w, self.h = float(rect.x), float(rect.y), float(rect.w), float(rect.h)
        self.count = 1
        self.score = score

    def mean(self) -> tuple[float, float, float, float]:
        n = self.count
        return self.x / n, self.y / n, self.w / n, self.h / n

    def add(self, rect: Rect, score: float) -> None:
        self.x += rect.x
        self.y += rect.y
        self.w += rect.w
        self.h += rect.h
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


def scaled_window(
    model: CascadeModel, scale: float, width: int, height: int
) -> tuple[int, int] | None:
    """The model window at scale, rounded half up, or None where it does not fit a
    width x height frame.

    The fit is decided before rounding: side * scale >= extent + 0.5 exactly
    when the rounded side exceeds extent, and also when side * scale is inf.
    """
    w, h = model.window_w * scale, model.window_h * scale
    if w >= width + 0.5 or h >= height + 0.5:
        return None
    return round_half_up(w), round_half_up(h)


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
    if scales[0] < 1.0 or any(a >= b for a, b in zip(scales, scales[1:])):
        raise ValueError(f"scales must be >= 1.0 and strictly ascending, got {list(scales)}")
    if mcc < 1:
        raise ValueError(f"MCC must be >= 1, got {mcc}")
    sites = _site_views(lambda g: np.take(model.rank_table.bins, mb_lbp_code_map(frame.pixels, g)))
    hits: list[tuple[Rect, float]] = []
    for scale in scales:
        window = scaled_window(model, scale, frame.width, frame.height)
        if window is None:
            continue
        win_w, win_h = window
        xs = range(0, frame.width - win_w + 1, stride)
        ys = range(0, frame.height - win_h + 1, stride)
        alive, scores = _classify_grid(model, sites, win_w, win_h, xs, ys)
        for j, i in np.argwhere(alive):
            hits.append((Rect(xs[i], ys[j], win_w, win_h), float(scores[j, i])))
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


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {text}")
    return value


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
    if n_stages < 1:
        raise ValueError(f"stage count must be >= 1, got {n_stages}")
    rank_table = RankTable.from_text("\n".join(lines[1:257]))
    stages = []
    pos = 257
    for _ in range(n_stages):
        fields = lines[pos].split() if pos < len(lines) else []
        if len(fields) != 3 or fields[0] != "stage":
            raise ValueError(f"expected stage {len(stages) + 1} of {n_stages} at line {pos + 1}")
        count = int(fields[1])
        if count < 1:
            raise ValueError(f"stage {len(stages) + 1} declares {count} stumps, needs at least 1")
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
            stumps.append((Stump(int(fi), _finite(thr, "stump threshold"), int(pol)),
                           _finite(alpha, "stump alpha")))
        stage_threshold = _finite(fields[2], "stage threshold")
        stages.append(StrongClassifier(stumps=tuple(stumps), stage_threshold=stage_threshold))
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
