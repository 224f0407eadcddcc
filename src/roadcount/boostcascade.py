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
Detection builds no histogram. It runs a plan (_plan) built once per model,
window size and frame width: each stump's cell, site span, integer count
limit (count < limit exactly when count / sites < threshold) and signed
alpha, and the map it counts on. A bin that exactly one code maps to is
counted on the code map as that code; any other bin (the overflow bin, an
unused one) on the rank map, built only then. The stages run over the
windows still alive. While every window is alive, each stump compares its
map once and box-sums the grid's row and column bands; later stages make
one flat gather per map for all of their stumps' sites and split it into
per-stump counts with np.add.reduceat. Maps are built lazily, once per
geometry per frame, and shared across the frame's scales.

Training stores the features once, binned. Every feature is count / sites,
so the whole crop set holds few distinct values (89 for the default
layout): _crop_features writes each crop's site counts as an (n, d) matrix
of codes into a sorted float64 value table, uint8 when the table has at
most 256 entries (uint16 beyond, e.g. for 324-site chunks). A stage reads
the rows of the positives and of the negatives every earlier stage accepted
by index, and gathers float values only for the columns a step reads.

Stump search is histogram-shortlisted, over nonzero codes: a chunk of s
sites fills at most min(s, 64) of its 64 bins, so most codes are 0. One
row-major scan per training lists each nonzero code's key (column, class,
code) and counts them per row (_entries); a stage keeps its rows' keys, and
each round bincounts them. Suffix sums give each column's best error, and the columns
within a proved rounding bound of the minimum are shortlisted. The exact
search (_presort/_best_stump) decides among them only, so the chosen stump
and its error are those of the exact search over every column.
train_strong/train_stump bin a float matrix and run the same search.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .features import (
    RANK_HISTOGRAM_BINS,
    BlockGeometry,
    RankTable,
    build_rank_table,
    mb_lbp_code_map,
    mb_lbp_histogram,
)
from .imaging import Rect, round_half_up

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
    """One group of accepted windows (_merge_windows): the mean box, the best score and
    the group size."""

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

    @functools.cached_property
    def _plans(self) -> dict:
        """Detection plans of this model (_plan), by window size and frame width."""
        return {}


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


def _bin(xs: np.ndarray, labels: np.ndarray) -> tuple:
    """(codes, rows, values, entries) of a float matrix: xs == values[codes[rows]], rows
    all rows, values sorted and distinct, entries the _entries."""
    values, inverse = np.unique(xs, return_inverse=True)
    codes = inverse.reshape(xs.shape).astype(np.min_scalar_type(len(values) - 1))
    return codes, np.arange(len(xs)), values, _entries(codes, labels, len(values))


def _entries(codes: np.ndarray, labels: np.ndarray, nvalues: int) -> tuple:
    """(keys, counts): the keys of an (n, d) code matrix's nonzero codes in row-major order,
    so each key meets its samples in sample order, and each row's count of them. Code c at
    (row, column) has the intp key (2 * column + is_positive) * nvalues + c (np.bincount
    copies any other dtype to intp)."""
    counts = np.count_nonzero(codes, axis=1)
    keys = np.flatnonzero(codes != 0)  # flat positions, made keys in place
    found = np.take(codes, keys)
    keys %= codes.shape[1]
    keys *= 2 * nvalues
    keys += found
    keys += np.repeat(nvalues * (labels > 0), counts)
    return keys, counts


def _nonzero_bins(entries, weights: np.ndarray, d: int, nvalues: int) -> np.ndarray:
    """(d, 2, nvalues) weight of each column's negatives and positives at each code, one
    bincount of the _entries: each nonzero code's bin equals a bincount over the whole
    matrix bit for bit. Code 0 is never summed; its bins stay 0."""
    hist = np.bincount(entries[0], np.repeat(weights, entries[1]), minlength=2 * d * nvalues)
    return hist.reshape(d, 2, nvalues)


def _shortlist(hist: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Columns whose histogram-best error may be the dense search's minimum.

    With T_c the class-c weight and S_c[k] a column's class-c weight at codes >= k (a
    suffix sum of hist for k >= 1; S_c[0] = T_c), the split before code k errs
    (T_pos - S_pos[k]) + S_neg[k] with polarity +1, S_pos[k] + (T_neg - S_neg[k]) with -1;
    k = 0 and k = nb err T_neg or T_pos in every column. An empty bin repeats its
    neighbour's error, so in exact arithmetic each column has the dense error set.

    Rounding, with u = eps / 2, W = sum(weights) and nb bins, to first order: a dense
    prefix sum of n samples is off by n u times its value at most; a dense split error
    reads five, totalling at most 3 W, plus four roundings of u W, so is off by at most
    (3n + 4) u W. Here T_c is off by n u T_c, and S_c[k] (bin sums of n weights at most,
    summed over nb bins at most) by (n + nb) u S_c[k]. A split error reads a T_c <= W and
    S_pos[k] + S_neg[k] <= W plus two roundings: off by (2n + nb + 2) u W. The dense
    winner's error here exceeds the minimum here by at most twice both bounds,
    (10n + 2nb + 12) u W, which the tolerance 8 (n + nb + 1) eps W covers.
    """
    nb = hist.shape[2]
    t_neg, t_pos = np.bincount(labels > 0, weights, minlength=2)
    suffix = np.cumsum(hist[:, :, :0:-1], axis=2)
    s_neg, s_pos = suffix[:, 0], suffix[:, 1]
    err = np.minimum((t_pos - s_pos) + s_neg, s_pos + (t_neg - s_neg))
    col_err = err.min(axis=1, initial=min(t_neg, t_pos))
    tol = 8 * (len(weights) + nb + 1) * np.finfo(np.float64).eps * weights.sum()
    return np.flatnonzero(col_err <= col_err.min() + tol)


def _search(codes, rows, values, entries, labels, weights) -> tuple[Stump, float]:
    """_best_stump over all columns of values[codes[rows]] (entries: the rows' _entries),
    run densely on the shortlisted ones.

    Each column's dense errors do not depend on the other columns, so the stump, its
    error and the tie-break match the search over every column bit for bit.
    """
    hist = _nonzero_bins(entries, weights, codes.shape[1], len(values))
    cols = _shortlist(hist, labels, weights)
    stump, err = _best_stump(*_presort(values[codes[np.ix_(rows, cols)]]), labels, weights)
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
    stump, _ = _search(*_bin(xs, labels), labels, weights)
    return stump


def _boost(codes, rows, values, entries, labels, rounds: int) -> tuple:
    """AdaBoost over decision stumps on the features values[codes[rows]] (entries: the
    rows' _entries): the strong classifier, its stage_threshold at 0, and each row's score.

    Each round runs _search, so stumps and alphas equal those of a dense search over
    every column of the float matrix. Scores accumulate alpha * output round by round,
    so each equals the scalar sum over one row's stumps in stage order bit for bit.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if np.all(labels > 0) or np.all(labels < 0):
        raise ValueError("training set must contain both classes")
    n = len(rows)
    weights = np.full(n, 1.0 / n)
    scores = np.zeros(n)
    stumps = []
    for _ in range(rounds):
        stump, err = _search(codes, rows, values, entries, labels, weights)
        err = min(max(err, _EPS_CLAMP), 1.0 - _EPS_CLAMP)
        alpha = 0.5 * math.log((1.0 - err) / err)
        stumps.append((stump, alpha))
        predictions = _stump_predict(stump, values[codes[rows, stump.feature_index]])
        scores += alpha * predictions
        weights = weights * np.exp(-alpha * labels * predictions)
        weights /= weights.sum()
    return StrongClassifier(stumps=tuple(stumps), stage_threshold=0.0), scores


def train_strong(xs: np.ndarray, labels: np.ndarray, rounds: int) -> StrongClassifier:
    """AdaBoost over decision stumps on a float feature matrix; stage_threshold starts at 0.

    The features are binned to their distinct values once, then boosted as
    train_cascade boosts its stages (_boost). Each round sums only the nonzero
    codes, into d x 2 x (distinct values) bins, so this suits small or
    quantized matrices: a float matrix of distinct values holds n * d of them.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return _boost(*_bin(xs, labels), labels, rounds)[0]


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


def _chunk_layout(model: CascadeModel, win_w: int, win_h: int) -> _Layout:
    """(cell, geometry) of chunk c = cell * geometries + geometry, for each c."""
    geoms = _scaled_geometries(model, win_w, win_h)
    cells = _cell_rects(Rect(0, 0, win_w, win_h), model.grid)
    return tuple((cell, g) for cell in cells for g in geoms)


def _crop_features(
    probe: CascadeModel, crops: np.ndarray
) -> tuple[CascadeModel, np.ndarray, np.ndarray]:
    """Rank table, (N, feature_count) code matrix and value table of an (N, h, w) crop stack.

    Feature [64c + b] of a crop is values[code]: the count of chunk c =
    cell * geometries + geometry's footprint sites holding rank bin b, over
    the chunk's site count. The value table holds every such ratio of the
    layout's site counts, sorted; the codes take the smallest unsigned dtype
    that indexes it. Each geometry's code map of the whole stack feeds the
    rank table, pooled over the layout's geometries (a repeated one counts
    twice), and is then replaced by its rank map, whose chunk sites
    mb_lbp_histogram counts: one map per distinct geometry.
    """
    geoms = _scaled_geometries(probe, probe.window_w, probe.window_h)
    maps = {g: mb_lbp_code_map(crops, g) for g in geoms}
    model = replace(probe, rank_table=build_rank_table([maps[g] for g in geoms]))
    for g in maps:
        # fancy indexing: np.take would copy the whole stack's codes to intp
        maps[g] = model.rank_table.bins[maps[g]]
    layout = _chunk_layout(model, probe.window_w, probe.window_h)
    sites = [(cell.h - g.footprint_h + 1) * (cell.w - g.footprint_w + 1) for cell, g in layout]
    values = np.unique(np.concatenate([np.arange(s + 1) / s for s in set(sites)]))
    dtype = np.min_scalar_type(len(values) - 1)
    code_of = {s: np.searchsorted(values, np.arange(s + 1) / s).astype(dtype) for s in set(sites)}
    codes = np.empty((len(crops), model.feature_count), dtype=dtype)
    for c, (cell, g) in enumerate(layout):
        chunk = slice(c * RANK_HISTOGRAM_BINS, (c + 1) * RANK_HISTOGRAM_BINS)
        codes[:, chunk] = code_of[sites[c]][mb_lbp_histogram(maps[g], cell, g)]
    return model, codes, values


def train_cascade(
    crops: np.ndarray,
    n_pos: int,
    stages: int,
    mhr: float,
    rounds: Sequence[int] | None = None,
    grid: int = DEFAULT_GRID,
    geometries: tuple[int, ...] = DEFAULT_GEOMETRIES,
) -> CascadeModel:
    """Train an S-stage cascade on an (N, h, w) stack of canonical-size crops,
    read in place: the first n_pos are positives, the rest negatives.

    Stage s uses rounds[s-1] stumps (default 2*s); after calibration to MHR
    the negatives rejected by the stage are dropped, and training stops
    early once no negatives survive. Every stage trains on rows of one code
    matrix of the whole stack (_crop_features), by index: the positives and
    the negatives all earlier stages accepted, with their _entries.
    """
    if not 0 < n_pos < len(crops):
        raise ValueError("need at least one positive and one negative crop")
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    if rounds is None:
        rounds = range(2, 2 * stages + 1, 2)
    elif len(rounds) < stages:
        raise ValueError(f"rounds schedule has {len(rounds)} entries for {stages} stages")

    h, w = crops.shape[1:]
    probe = CascadeModel((), w, h, RankTable(np.zeros(256)), grid, geometries)
    model, codes, values = _crop_features(probe, crops)
    labels = np.repeat(np.array([1, -1]), [n_pos, len(crops) - n_pos])
    rows = np.arange(len(codes))
    keys, counts = _entries(codes, labels, len(values))

    trained = []
    for s in range(stages):
        if len(rows) == n_pos:
            break
        stage, scores = _boost(codes, rows, values, (keys, counts), labels[rows], rounds[s])
        stage = calibrate_stage(stage, scores[:n_pos], mhr)
        trained.append(stage)
        keep = scores >= stage.stage_threshold
        keep[:n_pos] = True
        keys, counts, rows = keys[np.repeat(keep, counts)], counts[keep], rows[keep]
    return replace(model, stages=tuple(trained))


class _FrameMaps:
    """One frame's code maps, and the rank maps of those geometries whose stumps read a
    bin (_stump_plan); each is built once per geometry, on first use, and shared by every
    scale of the frame."""

    def __init__(self, pixels: np.ndarray, rank_table: RankTable):
        self.pixels = pixels
        self.bins = rank_table.bins
        self.codes: dict[BlockGeometry, np.ndarray] = {}
        self.ranks: dict[BlockGeometry, np.ndarray] = {}

    def get(self, source: tuple[BlockGeometry, bool]) -> np.ndarray:
        """The code map of geometry g, or its rank map for source (g, True)."""
        g, ranked = source
        if g not in self.codes:
            self.codes[g] = mb_lbp_code_map(self.pixels, g)
        if not ranked:
            return self.codes[g]
        if g not in self.ranks:
            self.ranks[g] = np.take(self.bins, self.codes[g])
        return self.ranks[g]


@dataclass(frozen=True)
class _StumpPlan:
    """One stump as detection reads it: the count of the span_h x span_w footprint sites at
    `cell` of a window whose source map holds `target`; the stump scores -weight if the
    count is below `limit`, else +weight."""

    source: tuple[BlockGeometry, bool]
    cell: Rect
    span: tuple[int, int]
    target: int
    limit: int
    weight: float


@dataclass(frozen=True)
class _Gather:
    """The sites one stage's stumps read from one source map: flat offsets from a window's
    origin in a map of the plan's frame width, the target of each site, where each stump's
    sites start, and those stumps' positions in the stage."""

    source: tuple[BlockGeometry, bool]
    offsets: np.ndarray
    targets: np.ndarray
    starts: np.ndarray
    rows: np.ndarray


@dataclass(frozen=True)
class _StagePlan:
    """One stage's stumps in stage order, grouped by (span_h, span_w) for box counts and by
    source map for gathers."""

    stumps: tuple[_StumpPlan, ...]
    boxes: tuple[tuple[tuple[int, int], np.ndarray], ...]
    gathers: tuple[_Gather, ...]
    limits: np.ndarray  # (stumps, 1)
    weights: np.ndarray  # (stumps, 1)
    threshold: float


def _stump_plan(model: CascadeModel, layout: _Layout, stump: Stump, alpha: float) -> _StumpPlan:
    """Where a stump counts and what: a bin that exactly one code maps to is counted on the
    code map as that code, any other bin (the overflow bin, an unused one) on the rank map.

    Every value count / sites is a float64 division of exact integers, rising with the
    count, so value < threshold exactly when count < limit, the number of counts
    0..sites whose value lies below the threshold.
    """
    chunk, b = divmod(stump.feature_index, RANK_HISTOGRAM_BINS)
    cell, g = layout[chunk]
    span = (cell.h - g.footprint_h + 1, cell.w - g.footprint_w + 1)
    sites = span[0] * span[1]
    codes = np.flatnonzero(model.rank_table.bins == b)
    source, target = ((g, False), int(codes[0])) if len(codes) == 1 else ((g, True), b)
    limit = int(np.searchsorted(np.arange(sites + 1) / sites, stump.threshold))
    return _StumpPlan(source, cell, span, target, limit, stump.polarity * alpha)


def _gather(source, stumps: list[_StumpPlan], rows: list[int], width: int) -> _Gather:
    """The sites of `stumps`, at stage positions `rows`, on one source map."""
    map_w = width - source[0].footprint_w + 1
    offsets = [
        ((s.cell.y + np.arange(s.span[0]))[:, None] * map_w + s.cell.x + np.arange(s.span[1]))
        .ravel()
        for s in stumps
    ]
    sizes = [len(o) for o in offsets]
    return _Gather(
        source,
        np.concatenate(offsets),
        np.repeat(np.array([s.target for s in stumps], dtype=np.uint8), sizes),
        np.cumsum([0] + sizes[:-1]),
        np.array(rows),
    )


def _plan(model: CascadeModel, win_w: int, win_h: int, width: int) -> tuple[_StagePlan, ...]:
    """The stages of model as detection runs them on win_w x win_h windows of frames
    `width` pixels wide; built once per such key and kept with the model."""
    key = (win_w, win_h, width)
    if key not in model._plans:
        layout = _chunk_layout(model, win_w, win_h)
        stages = []
        for stage in model.stages:
            stumps = [_stump_plan(model, layout, s, alpha) for s, alpha in stage.stumps]
            by_span: dict[tuple[int, int], list[int]] = {}
            by_source: dict[tuple[BlockGeometry, bool], list[int]] = {}
            for k, s in enumerate(stumps):
                by_span.setdefault(s.span, []).append(k)
                by_source.setdefault(s.source, []).append(k)
            gathers = tuple(
                _gather(source, [stumps[k] for k in rows], rows, width)
                for source, rows in by_source.items()
            )
            stages.append(_StagePlan(
                tuple(stumps),
                tuple((span, np.array(group)) for span, group in by_span.items()),
                gathers,
                np.array([[s.limit] for s in stumps]),
                np.array([[s.weight] for s in stumps]),
                stage.stage_threshold,
            ))
        model._plans[key] = tuple(stages)
    return model._plans[key]


def _band_sums(a: np.ndarray, span: int, step: int, count: int, dtype) -> np.ndarray:
    """Sums over a's second-to-last axis of its bands [k * step, k * step + span), k < count."""
    stop = (count - 1) * step + 1
    out = a[..., :stop:step, :].astype(dtype)
    for r in range(1, span):
        out += a[..., r : r + stop : step, :]
    return out


def _box_counts(stage: _StagePlan, maps: _FrameMaps, xs: range, ys: range) -> np.ndarray:
    """(stumps, windows) counts of each stump's target at its sites of every window of the grid.

    Each stump compares the part of its map the grid reads once; the stumps of one site
    span then take box sums over the grid's row bands and column bands only, in the
    narrowest unsigned dtype that holds the site count.
    """
    counts = np.empty((len(stage.stumps), len(ys) * len(xs)), dtype=np.intp)
    for (rows, cols), group in stage.boxes:
        h, w = ys[-1] - ys.start + rows, xs[-1] - xs.start + cols
        hits = np.empty((len(group), h, w), dtype=bool)
        for out, k in zip(hits, group):
            s = stage.stumps[k]
            y0, x0 = ys.start + s.cell.y, xs.start + s.cell.x
            np.equal(maps.get(s.source)[y0 : y0 + h, x0 : x0 + w], s.target, out=out)
        dtype = np.min_scalar_type(rows * cols)
        by_rows = _band_sums(hits.view(np.uint8), rows, ys.step, len(ys), dtype)
        boxes = _band_sums(by_rows.swapaxes(-1, -2), cols, xs.step, len(xs), dtype)
        counts[group] = boxes.swapaxes(-1, -2).reshape(len(group), -1)
    return counts


def _gathered_counts(
    stage: _StagePlan, maps: _FrameMaps, wx: np.ndarray, wy: np.ndarray
) -> np.ndarray:
    """(stumps, windows) counts of each stump's target at its sites of the windows whose
    origins are (wx, wy): one flat gather per source map for all of its stumps."""
    counts = np.empty((len(stage.stumps), len(wx)), dtype=np.intp)
    for gather in stage.gathers:
        source_map = maps.get(gather.source)
        origins = wy * source_map.shape[1] + wx
        hits = np.take(source_map, origins[:, None] + gather.offsets) == gather.targets
        counts[gather.rows] = np.add.reduceat(hits, gather.starts, axis=1, dtype=np.intp).T
    return counts


def _classify_grid(
    model: CascadeModel,
    maps: _FrameMaps,
    win_w: int,
    win_h: int,
    xs: range,
    ys: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Cascade decisions and scores (of the rejecting or last stage) for the grid of window
    origins (xs[i], ys[j]) over the frame of `maps`.

    Each stage scores only the windows all earlier stages accepted. While every window is
    alive the stumps count by box sums over the grid's bands (_box_counts); later stages
    gather the alive windows' sites (_gathered_counts). Counts equal those of the stumps'
    features and count < limit decides as value < threshold (_stump_plan), so each stump
    adds alpha * _stump_predict, bit for bit, to a stage score summed in stump order from
    0.0.
    """
    n = len(ys) * len(xs)
    alive = np.arange(n)
    scores = np.zeros(n)
    for stage in _plan(model, win_w, win_h, maps.pixels.shape[1]):
        if len(alive) == n:
            counts = _box_counts(stage, maps, xs, ys)
        else:
            wx, wy = np.asarray(xs)[alive % len(xs)], np.asarray(ys)[alive // len(xs)]
            counts = _gathered_counts(stage, maps, wx, wy)
        stage_scores = np.zeros(len(alive))
        for terms in np.where(counts < stage.limits, -stage.weights, stage.weights):
            stage_scores += terms
        scores[alive] = stage_scores
        alive = alive[stage_scores >= stage.threshold]
        if not len(alive):
            break
    accepted = np.bincount(alive, minlength=n) > 0
    return accepted.reshape(len(ys), len(xs)), scores.reshape(len(ys), len(xs))


def _merge_windows(boxes: np.ndarray, scores: np.ndarray, mcc: int) -> list[Detection]:
    """Merge accepted windows, (k, 4) integer x0, y0, x1, y1 rows with k scores, into
    detections, in integers.

    The windows are taken in descending score order, ties in row order. The first window
    left takes every window left whose IoU with it exceeds 1/5 (6 * overlap > sum of the
    two areas), itself included. A group of at least mcc windows becomes one Detection:
    the group's mean corners, each rounded half up, the taker's score and the group size.
    A smaller group is dropped, and its windows stay taken.
    """
    rows, values = boxes.tolist(), scores.tolist()
    left = sorted(range(len(rows)), key=values.__getitem__, reverse=True)
    detections = []
    while left:
        taker = left[0]
        x0, y0, x1, y1 = rows[taker]
        area = (x1 - x0) * (y1 - y0)
        group, rest = [], []
        for k in left:
            a0, b0, a1, b1 = rows[k]
            w, h = min(x1, a1) - max(x0, a0), min(y1, b1) - max(y0, b0)
            if w > 0 and h > 0 and 6 * w * h > area + (a1 - a0) * (b1 - b0):
                group.append(rows[k])
            else:
                rest.append(k)
        left = rest
        n = len(group)
        if n >= mcc:
            mx0, my0, mx1, my1 = ((2 * sum(c) + n) // (2 * n) for c in zip(*group))
            rect = Rect(mx0, my0, mx1 - mx0, my1 - my0)
            detections.append(Detection(rect=rect, score=values[taker], cluster_count=n))
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
    pixels: np.ndarray,
    scales: Sequence[float] = (1.0,),
    stride: int = 4,
    mcc: int = 1,
) -> list[Detection]:
    """Multi-scale sliding-window detection over a frame's (h, w) uint8 pixels.

    Accepted windows are enumerated scale-ascending then row-major and merged
    (_merge_windows): the best-scoring window left takes every window left with
    IoU > 1/5, and a group of fewer than MCC windows is dropped. Each Detection
    carries the group's mean rect, rounded half up, and the taker's score.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not scales:
        raise ValueError("scale list must not be empty")
    if scales[0] < 1.0 or any(a >= b for a, b in zip(scales, scales[1:])):
        raise ValueError(f"scales must be >= 1.0 and strictly ascending, got {list(scales)}")
    if mcc < 1:
        raise ValueError(f"MCC must be >= 1, got {mcc}")
    height, width = pixels.shape
    maps = _FrameMaps(pixels, model.rank_table)
    boxes, scores = [], []
    for scale in scales:
        window = scaled_window(model, scale, width, height)
        if window is None:
            continue
        win_w, win_h = window
        xs = range(0, width - win_w + 1, stride)
        ys = range(0, height - win_h + 1, stride)
        alive, grid_scores = _classify_grid(model, maps, win_w, win_h, xs, ys)
        j, i = np.nonzero(alive)  # window (i, j) starts at (xs[i], ys[j])
        x, y = np.asarray(xs)[i], np.asarray(ys)[j]
        boxes.append(np.column_stack((x, y, x + win_w, y + win_h)))
        scores.append(grid_scores[j, i])
    if not boxes:
        return []
    return _merge_windows(np.concatenate(boxes), np.concatenate(scores), mcc)


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
