"""Latent-space anomaly detection: thresholds, votes, and scoring.

Detection pipeline per engine: concatenate the latent state and derivative
channels into one [T x n] stream, smooth each node with a trailing moving
average, subtract a trailing-mean baseline (re-anchored per engine), then
compare against global per-node percentile bands fitted on pooled training
streams. A timestep is positive when at least vote_threshold nodes sit
outside their band. Metrics are micro-averaged over pooled timesteps, plus
the critical detection rate over each engine's final 10% of life.

One path decides and scores. Every engine's stream sits back to back in one
packed block with no padding (_Fleet): one segmented trailing mean
normalizes it, and its engines are thresholded and voted at once. Decisions
are scored against the runs' labels as flat masks over the same rows
(_Labels). A single engine is a block of one segment: normalize_stream and
detect are the one-engine case, and score packs finished decisions.

Bands are read off each node's sorted values with numpy's linear
interpolation, and a zero is read as +0.0 (x + 0.0): a band is bitwise
np.percentile(values + 0.0). Normalized streams hold no -0.0 (an engine's
first row is x - x = +0.0, and a later -0.0 needs a window of -0.0
latents), and -0.0 == +0.0 in every vote, so no decision depends on it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import accumulate

import numpy as np

from .dataio import EngineRun, atomic_write_text
from .net import encoder_layer_count
from .tdc import LatentSeries

# rows per chunk of the trailing mean, as cells: a fleet block's [rows x n]
# running sums (512 KB) stay in cache while each shifted row slice is added
MEAN_BLOCK_CELLS = 65_536


@dataclass(frozen=True)
class DetectorConfig:
    upper_percentile: float = 86.0
    lower_percentile: float = 9.0
    moving_average_window: int = 12
    baseline_window: int = 10
    vote_threshold: int = 2
    latent_dim: int = 8

    def __post_init__(self):
        for name in ("moving_average_window", "baseline_window", "vote_threshold", "latent_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if not (0 < self.lower_percentile < self.upper_percentile < 100):
            raise ValueError("need 0 < lower_percentile < upper_percentile < 100")
        if self.moving_average_window < 1 or self.baseline_window < 1:
            raise ValueError("windows must be >= 1")
        if not 1 <= self.vote_threshold <= self.latent_dim:
            raise ValueError("vote_threshold must lie in [1, latent_dim]")


@dataclass(frozen=True)
class Thresholds:
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        if self.upper.shape != self.lower.shape or self.upper.ndim != 1:
            raise ValueError("upper/lower must be aligned vectors")
        if np.any(self.lower > self.upper):
            raise ValueError("lower threshold above upper threshold")

    @property
    def n_nodes(self) -> int:
        return self.upper.shape[0]


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean truncated at the start (causal, no padding).

    Axis 0 is time, and the result has the input's shape: the one-segment
    case of _trailing_mean over the other axes as n columns.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    shape = values.shape
    flat = values.reshape(shape[0], math.prod(shape[1:]))
    return _trailing_mean(flat, np.zeros(1, dtype=np.intp), window).reshape(shape)


def _trailing_mean(values: np.ndarray, starts: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean of each segment of a [N x n] float64 block, truncated at
    the segment's start. Segment k runs from row starts[k] to the next start.

    Row j of a segment is the float64 sum of its rows max(0, j - window + 1)
    ... j, added one after another in time order, divided by their count:
    - every row t >= window - 1 of the block starts as row t - window + 1,
      adds the next window - 1 rows in order, and is divided by window. The
      adds run on whole slices shifted by one row each, MEAN_BLOCK_CELLS // n
      rows (at least one) at a time;
    - then each segment's first window - 1 rows, which hold every row whose
      window crossed into the segment before, are written over by one
      cumulative sum of all segments' first rows gathered side by side (a
      slice for one segment), divided by j + 1.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    rows = values.shape[0]
    out = np.empty_like(values)
    step = max(1, MEAN_BLOCK_CELLS // max(1, values.shape[1]))
    for start in range(window - 1, rows, step):
        sums = out[start:start + step]
        first, length = start - window + 1, sums.shape[0]
        sums[:] = values[first:first + length]
        for k in range(1, window):
            sums += values[first + k:first + k + length]
        sums /= window
    if len(starts) <= 1:
        head = min(window - 1, rows)
        np.cumsum(values[:head], axis=0, out=out[:head])
        out[:head] /= np.arange(1, head + 1)[:, None]
    elif window > 1:
        at = starts[:, None] + np.arange(window - 1)
        inside = at < np.append(starts[1:], rows)[:, None]
        heads = np.cumsum(values[np.minimum(at, rows - 1)], axis=1)
        heads /= np.arange(1, window)[:, None]
        out[at[inside]] = heads[inside]
    return out


def baseline(smoothed: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean of the previous `window` smoothed values.

    b[0] is the first smoothed value itself (nothing precedes it); for t >= 1,
    b[t] is moving_average(smoothed, window)[t - 1], the mean of the up to
    `window` values before t, so early steps average whatever history
    exists. Subtracting this re-anchors every engine at its own operating
    point. A window below 1 raises ValueError, as in moving_average.
    """
    return np.concatenate([smoothed[:1], moving_average(smoothed[:-1], window)])


def normalize_fleet(latents: list[LatentSeries], config: DetectorConfig) -> list[np.ndarray]:
    """Each engine's moving-averaged, baseline-subtracted [T x n] stream, in
    engine order: views of one normalized block (see _Fleet). Every stream
    must be config.latent_dim nodes wide."""
    fleet = _Fleet(latents, config.latent_dim)
    block, bounds = fleet.normalize(config), fleet.bounds
    return [block[start:end] for start, end in zip(bounds, bounds[1:])]


def normalize_stream(latent: LatentSeries, config: DetectorConfig) -> np.ndarray:
    """Moving-averaged, baseline-subtracted latent stream [T x n]: normalize_fleet
    of one engine."""
    return _Fleet([latent], config.latent_dim).normalize(config)


def _normalize(values: np.ndarray, starts: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """Smoothing minus baseline of a fleet's packed raw [N x n] block, each
    engine a segment from its row in starts (see _trailing_mean). A row's
    baseline is the trailing mean of its engine's rows before it, and an
    engine's first row is x - x, so each engine's rows are bitwise its stream
    normalized alone."""
    smoothed = _trailing_mean(values, starts, config.moving_average_window)
    del values  # frees the raw block, which the caller hands over
    # smoothed - baseline(smoothed, window) per engine, in place: no baseline array;
    # a later engine's first row would subtract the engine before it, so it is written over
    later = starts[1:]
    first = smoothed[later]
    smoothed[1:] -= _trailing_mean(smoothed[:-1], starts, config.baseline_window)
    smoothed[later] = first - first
    smoothed[:1] -= smoothed[:1]
    return smoothed


def fit_thresholds(normalized: list[np.ndarray], config: DetectorConfig) -> Thresholds:
    """Per-node percentile bands over streams pooled across engines and time.

    The inputs must already be normalized by the same pipeline used at
    detection time (linear-interpolation percentile convention, see
    _fit_thresholds_each).
    """
    if not normalized:
        raise ValueError("no training streams to fit thresholds on")
    return _fit_thresholds_each(_node_major(np.vstack(normalized)), [config])[0]


def _node_major(block: np.ndarray) -> np.ndarray:
    """[n x N] copy of a time-major [N x n] block, each node's values
    contiguous, with zeros read as +0.0 (x + 0.0)."""
    return np.add(block.T, 0.0, order="C")


def _fit_thresholds_each(nodes: np.ndarray, configs: list[DetectorConfig]) -> list[Thresholds]:
    """fit_thresholds of each config on the same pooled rows, node-major [n x N]
    (see _node_major).

    One np.sort call orders every node's values, and each percentile the
    configs name is read off the sorted rows as np.percentile's linear
    method does (see _percentiles). A percentile's bands do not depend on
    the others asked for with it."""
    if nodes.shape[1] == 0:
        raise ValueError("no training streams to fit thresholds on")
    qs = sorted({q for c in configs for q in (c.upper_percentile, c.lower_percentile)})
    bands = dict(zip(qs, _percentiles(np.sort(nodes, axis=1), qs)))
    return [Thresholds(upper=bands[c.upper_percentile], lower=bands[c.lower_percentile])
            for c in configs]


def _percentiles(ordered: np.ndarray, qs: list[float]) -> np.ndarray:
    """[len(qs) x n] percentiles of each row of an [n x N] array sorted along
    its rows, by numpy's linear method: the value at virtual index
    (N - 1) * q / 100, interpolated between its two neighbours by
    np.percentile's _lerp formula, and NaN for a row that holds a NaN (NaN
    sorts last)."""
    count = ordered.shape[1]
    virtual = (count - 1) * np.true_divide(qs, 100)
    last = virtual >= count - 1  # both neighbours are the last value
    below = np.where(last, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(last, -1, below + 1)
    gamma = virtual - below
    low, high = ordered[:, below], ordered[:, above]
    diff = high - low
    bands = low + diff * gamma
    np.subtract(high, diff * (1 - gamma), out=bands, where=gamma >= 0.5)
    np.copyto(bands, ordered[:, -1:], where=np.isnan(ordered[:, -1:]))
    return bands.T


@dataclass(frozen=True)
class DetectionResult:
    """Per-timestep decisions for one engine."""

    unit_id: int
    votes: np.ndarray
    positives: np.ndarray

    def __post_init__(self):
        if self.votes.shape != self.positives.shape or self.votes.ndim != 1:
            raise ValueError("votes/positives must be aligned vectors")

    def __len__(self) -> int:
        return self.votes.shape[0]


def detect(latent: LatentSeries, thresholds: Thresholds,
           config: DetectorConfig) -> DetectionResult:
    """Vote-based decisions: positive when >= vote_threshold nodes leave their band.

    The decision of a fleet of one engine (see _Fleet.decide)."""
    return _Fleet([latent], config.latent_dim).decide(thresholds, config)[0]


@dataclass(frozen=True)
class MetricsSummary:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    specificity: float
    f1: float
    cdr: float
    n_engines: int

    def as_dict(self) -> dict:
        return asdict(self)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def critical_window(life_length: int) -> int:
    """Cycles in the end-of-life window: ceil(0.1 * T)."""
    return math.ceil(0.1 * life_length)


def score(results: list[DetectionResult], runs: list[EngineRun]) -> MetricsSummary:
    """Micro-averaged confusion metrics over pooled timesteps, plus CDR.

    CDR is the fraction of engines raising at least one positive inside
    their final ceil(0.1 T) cycles. The results' positives are packed back
    to back and summarized against the runs' label masks (see _Labels): a
    KeyError for a unit with no run, a ValueError for a run whose life is
    not as long as its decisions.
    """
    labels = _Labels([(res.unit_id, len(res)) for res in results], runs)
    positives = np.concatenate([res.positives for res in results] or [np.zeros(0, bool)])
    return labels.summary(positives.astype(bool, copy=False))


class _Fleet:
    """Engines back to back in one packed time-major block, to normalize and
    decide them all at once.

    A block is [N x n] with N the fleet's total cycles: engine e's [T_e x n]
    latent stream fills rows bounds[e] ... bounds[e + 1] - 1, and no padding
    sits between engines. Normalization restarts its trailing means at each
    engine's first row (see _trailing_mean), so no row reads another
    engine's cycles.
    """

    def __init__(self, latents: list[LatentSeries], n_nodes: int):
        """n_nodes is the width every stream must have: the config's latent_dim."""
        for latent in latents:
            if len(latent) < 1:
                raise ValueError("empty latent series")
            if 2 * latent.n_pairs != n_nodes:
                raise ValueError(f"unit {latent.unit_id}: stream has {2 * latent.n_pairs} "
                                 f"nodes, expected {n_nodes}")
        self.latents = latents
        self.n_nodes = n_nodes
        self.bounds = list(accumulate((len(latent) for latent in latents), initial=0))

    def normalize(self, config: DetectorConfig) -> np.ndarray:
        """Every engine's normalized stream in one call, as an [N x n] block.

        The raw block is built anew for each call and passed without another
        reference, so _normalize frees it once smoothed: the search holds at
        most two blocks at a time."""
        starts = np.array(self.bounds[:-1], dtype=np.intp)
        return _normalize(self._raw_block(), starts, config)

    def _raw_block(self) -> np.ndarray:
        """The packed latent streams, state then derivative nodes, as one
        [N x n] array."""
        block = np.empty((self.bounds[-1], self.n_nodes))
        for latent, start, end in zip(self.latents, self.bounds, self.bounds[1:]):
            block[start:end, :latent.n_pairs] = latent.z
            block[start:end, latent.n_pairs:] = latent.z_dot
        return block

    def decide(self, thresholds: Thresholds, config: DetectorConfig) -> list[DetectionResult]:
        """Each engine's decisions, in engine order, from one normalization and
        one vote count of the block."""
        if thresholds.n_nodes != self.n_nodes:
            raise ValueError(f"thresholds have {thresholds.n_nodes} nodes, expected {self.n_nodes}")
        nodes = self.normalize(config).T
        outside = nodes > thresholds.upper[:, None]
        outside |= nodes < thresholds.lower[:, None]
        votes = _count_rows(outside).astype(np.intp)
        positives = votes >= config.vote_threshold
        # contiguous views that together cover the fleet's [N] arrays exactly
        return [DetectionResult(unit_id=latent.unit_id, votes=votes[start:end],
                                positives=positives[start:end])
                for latent, start, end in zip(self.latents, self.bounds, self.bounds[1:])]


def _count_rows(hits: np.ndarray) -> np.ndarray:
    """[N] column sums of an [n x N] bool array of any layout, added one row
    at a time, in the smallest unsigned dtype that holds n.

    No node is both above a band and below one no higher (Thresholds keeps
    lower <= upper, and a lower percentile's band is never above a higher
    one's), so a config's count above plus its count below is at most n."""
    rows = hits.view(np.uint8)
    counts = rows[0].astype(np.min_scalar_type(rows.shape[0]))
    for row in rows[1:]:
        counts += row
    return counts


class _Labels:
    """The runs' labels of a fleet's decisions as flat [N] masks, engines back
    to back as in _Fleet, to score them all at once: the anomalous cycles
    (truth) and each engine's final critical_window cycles.
    """

    def __init__(self, engines: list[tuple[int, int]], runs: list[EngineRun]):
        """engines holds each engine's (unit_id, cycles decided), in block order.
        A unit with no run is a KeyError; a run whose life is not as many
        cycles as its engine decided is a ValueError."""
        by_unit = {run.unit_id: run for run in runs}
        truths, lengths = [], []
        for unit_id, length in engines:
            run = by_unit[unit_id]
            if length != run.life_length:
                raise ValueError(f"unit {unit_id}: {length} decisions "
                                 f"for {run.life_length} cycles")
            truths.append(run.labels)
            lengths.append(length)
        bounds = np.cumsum([0] + lengths)
        self.truth = np.concatenate(truths or [np.zeros(0, bool)])
        self.critical = np.zeros(self.truth.shape, dtype=bool)
        for end, length in zip(bounds[1:], lengths):
            self.critical[end - critical_window(length):end] = True
        # an engine with no cycles has no critical cycle, and no segment of its own
        self.starts = bounds[:-1][np.array(lengths, dtype=np.intp) > 0]
        self.n_engines = len(engines)
        self.n_truth = int(np.count_nonzero(self.truth))
        self.n_normal = self.truth.size - self.n_truth

    def summary(self, positives: np.ndarray) -> MetricsSummary:
        """The metrics of [N] decisions; CDR from one logical_or.reduceat over
        the engines' critical cycles."""
        tp = int(np.count_nonzero(positives & self.truth))
        fp = int(np.count_nonzero(positives)) - tp
        tn, fn = self.n_normal - fp, self.n_truth - tp
        hits = np.logical_or.reduceat(positives & self.critical, self.starts)
        critical_hits = int(np.count_nonzero(hits))
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        return MetricsSummary(
            tp=tp, fp=fp, tn=tn, fn=fn,
            accuracy=_safe_div(tp + tn, tp + fp + tn + fn),
            precision=precision,
            recall=recall,
            specificity=_safe_div(tn, tn + fp),
            f1=_safe_div(2 * precision * recall, precision + recall),
            cdr=_safe_div(critical_hits, self.n_engines),
            n_engines=self.n_engines,
        )


def run_detector(latents: list[LatentSeries], runs: list[EngineRun],
                 thresholds: Thresholds, config: DetectorConfig
                 ) -> tuple[list[DetectionResult], MetricsSummary]:
    """detect on every engine, and score of the results against runs: one
    fleet decision (see _Fleet), then score."""
    results = _Fleet(latents, config.latent_dim).decide(thresholds, config)
    return results, score(results, runs)


def optimize_thresholds(latents: list[LatentSeries], runs: list[EngineRun],
                        grid: list[DetectorConfig]) -> DetectorConfig:
    """Grid search maximizing timestep F1 on the training engines.

    The training engines sit back to back in one packed block (see _Fleet).
    Configs sharing their (moving_average_window, baseline_window) share one
    normalization of that block, made once per group and held one group at a
    time, and one sort of its nodes' values that gives every config in the
    group its thresholds (see _fit_thresholds_each). Votes are counted once
    per distinct band, not per config, and each config is scored on the
    block against the 60/40 labels. Ties break toward higher specificity,
    then a smaller smoothing window, then the earlier config in the grid.
    """
    if not grid:
        raise ValueError("empty configuration grid")
    groups: dict[tuple[int, int], list[int]] = {}
    for i, config in enumerate(grid):
        groups.setdefault((config.moving_average_window, config.baseline_window), []).append(i)
    fleet = _Fleet(latents, grid[0].latent_dim)
    labels = _Labels([(latent.unit_id, len(latent)) for latent in latents], runs)
    keys = [None] * len(grid)
    for indices in groups.values():
        configs = [grid[i] for i in indices]
        nodes = _node_major(fleet.normalize(configs[0]))
        thresholds = _fit_thresholds_each(nodes, configs)
        uppers = {c.upper_percentile: th.upper for c, th in zip(configs, thresholds)}
        lowers = {c.lower_percentile: th.lower for c, th in zip(configs, thresholds)}
        above = {q: _count_rows(nodes > band[:, None]) for q, band in uppers.items()}
        below = {q: _count_rows(nodes < band[:, None]) for q, band in lowers.items()}
        for i, config in zip(indices, configs):
            votes = above[config.upper_percentile] + below[config.lower_percentile]
            summary = labels.summary(votes >= config.vote_threshold)
            keys[i] = (summary.f1, summary.specificity, -config.moving_average_window)
        # freed before the next group's normalization, which then holds two blocks at most
        del nodes, above, below, votes
    return grid[max(range(len(grid)), key=keys.__getitem__)]


def config_grid(base: DetectorConfig, uppers, lowers, windows) -> list[DetectorConfig]:
    """All valid (upper, lower, moving-average window) combinations over base."""
    grid = []
    for up in uppers:
        for lo in lowers:
            if not lo < up:
                continue
            for w in windows:
                grid.append(replace(base, upper_percentile=up, lower_percentile=lo,
                                    moving_average_window=w))
    return grid


# --- cost accounting --------------------------------------------------------------

# Externally quoted cost figure for this architecture; it exceeds the exact
# weight-MAC sum (2688) by 672 and matches no per-layer accounting we know of.
REFERENCE_MAC_FIGURE = 3360


def count_macs(params) -> int:
    """Weight multiply-accumulates of one forward pass (bias adds excluded)."""
    return sum(s.in_dim * s.out_dim for s in params.specs)


def count_lstm_macs(steps: int, inputs: int, hidden: int) -> int:
    """Gate multiply-accumulates of an LSTM: four [hidden x (inputs + hidden)] matmuls a step."""
    return 4 * hidden * (inputs + hidden) * steps


def mac_report(params) -> dict:
    """Weight MACs of the autoencoder, of its encoder (all a detection step runs) and of an LSTM."""
    macs = count_macs(params)
    encoder_macs = sum(s.in_dim * s.out_dim for s in params.specs[:encoder_layer_count(params)])
    lstm_macs = count_lstm_macs(steps=48, inputs=24, hidden=16)
    return {
        "weight_macs": macs,
        "encoder_macs": encoder_macs,
        "bias_adds": sum(s.out_dim for s in params.specs),
        "reference_figure": REFERENCE_MAC_FIGURE,
        "reference_note": (
            f"commonly quoted cost is {REFERENCE_MAC_FIGURE} MACs; the exact "
            f"weight-MAC sum is {macs}, a {REFERENCE_MAC_FIGURE - macs} gap "
            "not explained by bias or activation accounting"),
        "lstm_baseline_macs": lstm_macs,
        "lstm_ratio": lstm_macs / encoder_macs,
    }


# --- serialization ------------------------------------------------------------------

DETECTIONS_CSV_HEADER = "unit,cycle,votes,label,truth"


def write_detections_csv(results: list[DetectionResult], runs: list[EngineRun],
                         path) -> None:
    by_unit = {run.unit_id: run for run in runs}
    lines = [DETECTIONS_CSV_HEADER]
    for res in results:
        truth = by_unit[res.unit_id].labels
        for t in range(len(res)):
            label = "positive" if res.positives[t] else "negative"
            actual = "anomalous" if truth[t] else "normal"
            lines.append(f"{res.unit_id},{t + 1},{int(res.votes[t])},{label},{actual}")
    atomic_write_text(path, "\n".join(lines) + "\n")
