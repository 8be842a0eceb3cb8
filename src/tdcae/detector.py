"""Latent-space anomaly detection: thresholds, votes, and scoring.

Detection pipeline per engine: concatenate the latent state and derivative
channels into one [T x n] stream, smooth each node with a trailing moving
average, subtract a trailing-mean baseline (re-anchored per engine), then
compare against global per-node percentile bands fitted on pooled training
streams. A timestep is positive when at least vote_threshold nodes sit
outside their band. Metrics are micro-averaged over pooled timesteps, plus
the critical detection rate over each engine's final 10% of life.
run_detector and the grid search run this pipeline on every engine at once,
on one zero-padded time-major block (_Fleet), bitwise the per-engine path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import EngineRun, atomic_write_text
from .tdc import LatentSeries

# rows per chunk in moving_average, as cells: a fleet block's [rows x E*n]
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
    use_baseline: bool = True

    def __post_init__(self):
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


def _full_latent(latent: LatentSeries) -> np.ndarray:
    return np.hstack([latent.z, latent.z_dot])


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean truncated at the start (causal, no padding).

    Row t is bitwise values[max(0, t - window + 1):t + 1].mean(axis=0), as
    float64. numpy sums the rows of a C-ordered array at least 2 columns wide
    one after another in time order, then divides by the row count, and so
    does this function:
    - rows t < window - 1 are a cumulative sum of the first rows, divided by
      t + 1;
    - each later row starts as the first row of its window, adds the other
      window - 1 rows in order, and is divided by window. The adds run on
      whole slices shifted by one row each, MEAN_BLOCK_CELLS // n rows (at
      least one) at a time for n columns.
    numpy reduces a single column, a 1-D array or a column-major array
    pairwise once a window spans 9 rows or more, so those keep a mean over a
    strided window view, which numpy reduces the same way.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    rows = values.shape[0]
    head = min(window - 1, rows)
    if values.ndim != 2 or values.shape[1] < 2 or not values.flags.c_contiguous:
        for t in range(head):
            out[t] = values[:t + 1].mean(axis=0)
        if head < rows:
            windows = sliding_window_view(values, window, axis=0)
            np.moveaxis(windows, -1, 1).mean(axis=1, out=out[head:])
        return out
    np.cumsum(values[:head], axis=0, out=out[:head])
    out[:head] /= np.arange(1, head + 1)[:, None]
    step = max(1, MEAN_BLOCK_CELLS // values.shape[1])
    for start in range(head, rows, step):
        sums = out[start:start + step]
        first, length = start - window + 1, sums.shape[0]
        sums[:] = values[first:first + length]
        for k in range(1, window):
            sums += values[first + k:first + k + length]
        sums /= window
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


def normalize_stream(latent: LatentSeries, config: DetectorConfig) -> np.ndarray:
    """Moving-averaged, baseline-subtracted latent stream [T x n]."""
    values = _full_latent(latent)
    if values.shape[0] < 1:
        raise ValueError("empty latent series")
    return _normalize(values, config)


def _normalize(values: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """normalize_stream of a time-major array: one engine's [T x n] stream or a
    fleet's raw block [Tmax x n*E]. Both stages are trailing and column-independent,
    so each column of a block is bitwise its engine's stream on the rows the
    engine fills."""
    smoothed = moving_average(values, config.moving_average_window)
    del values  # frees a fleet's raw block, which the caller hands over
    if config.use_baseline:
        # smoothed - baseline(smoothed, window), in place: no baseline array
        smoothed[1:] -= moving_average(smoothed[:-1], config.baseline_window)
        smoothed[:1] -= smoothed[:1]
    return smoothed


def fit_thresholds(normalized: list[np.ndarray], config: DetectorConfig) -> Thresholds:
    """Per-node percentile bands over streams pooled across engines and time.

    The inputs must already be normalized by the same pipeline used at
    detection time (linear-interpolation percentile convention).
    """
    return _fit_thresholds_each(normalized, [config])[0]


def _fit_thresholds_each(normalized: list[np.ndarray],
                         configs: list[DetectorConfig]) -> list[Thresholds]:
    """fit_thresholds of each config on the same streams: they are stacked
    once and np.percentile runs once over every percentile the configs name.
    A percentile's bands do not depend on the others asked for with it."""
    if not normalized:
        raise ValueError("no training streams to fit thresholds on")
    qs = sorted({q for c in configs for q in (c.upper_percentile, c.lower_percentile)})
    bands = dict(zip(qs, np.percentile(np.vstack(normalized), qs, axis=0,
                                       overwrite_input=True)))
    return [Thresholds(upper=bands[c.upper_percentile], lower=bands[c.lower_percentile])
            for c in configs]


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
    """Vote-based decisions: positive when >= vote_threshold nodes leave their band."""
    return _decide(latent.unit_id, normalize_stream(latent, config), thresholds, config)


def _decide(unit_id: int, stream: np.ndarray, thresholds: Thresholds,
            config: DetectorConfig) -> DetectionResult:
    """detect's decisions on a stream normalize_stream already produced."""
    if stream.shape[1] != thresholds.n_nodes:
        raise ValueError(f"stream has {stream.shape[1]} nodes, "
                         f"thresholds have {thresholds.n_nodes}")
    outside = (stream > thresholds.upper) | (stream < thresholds.lower)
    votes = outside.sum(axis=1)
    return DetectionResult(unit_id=unit_id, votes=votes,
                           positives=votes >= config.vote_threshold)


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
    their final ceil(0.1 T) cycles.
    """
    by_unit = {run.unit_id: run for run in runs}
    critical_hits = 0
    for res in results:
        run = _run_of(by_unit, res.unit_id, len(res))
        if res.positives[-critical_window(run.life_length):].any():
            critical_hits += 1
    positives = np.concatenate([res.positives for res in results] or [np.zeros(0, bool)])
    truth = np.concatenate([by_unit[res.unit_id].labels for res in results]
                           or [np.zeros(0, bool)])
    tp = int(np.count_nonzero(positives & truth))
    fp = int(np.count_nonzero(positives)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    tn = positives.size - tp - fp - fn
    return _summary(tp, fp, tn, fn, critical_hits, len(results))


def _run_of(by_unit: dict[int, EngineRun], unit_id: int, n_decisions: int) -> EngineRun:
    """The run that labels unit_id's decisions: a KeyError when there is none,
    a ValueError when its life is not n_decisions cycles long."""
    run = by_unit[unit_id]
    if n_decisions != run.life_length:
        raise ValueError(f"unit {unit_id}: {n_decisions} decisions "
                         f"for {run.life_length} cycles")
    return run


def _summary(tp: int, fp: int, tn: int, fn: int, critical_hits: int,
             n_engines: int) -> MetricsSummary:
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return MetricsSummary(
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=_safe_div(tp + tn, tp + fp + tn + fn),
        precision=precision,
        recall=recall,
        specificity=_safe_div(tn, tn + fp),
        f1=_safe_div(2 * precision * recall, precision + recall),
        cdr=_safe_div(critical_hits, n_engines),
        n_engines=n_engines,
    )


class _Fleet:
    """Engines side by side in one time-major block, to decide and score them
    all at once.

    A block is [Tmax x n x E]: engine e's [T_e x n] latent stream fills rows
    t < T_e of block[:, :, e], and zeros pad the rows after its last cycle.
    Normalization is trailing and column-independent, so no filled row ever
    reads the padding. Nodes before engines in a row let a vote count add up
    E-wide rows. The [Tmax x E] masks are the labels of the filled rows split
    into anomalous (truth) and normal, and each engine's final
    critical_window cycles; all are False on padding.
    """

    def __init__(self, latents: list[LatentSeries], runs: list[EngineRun],
                 n_nodes: int | None = None):
        """n_nodes, the width every stream must have, defaults to the first's."""
        if n_nodes is None:
            n_nodes = 2 * latents[0].n_pairs if latents else 0
        for latent in latents:
            if len(latent) < 1:
                raise ValueError("empty latent series")
            if 2 * latent.n_pairs != n_nodes:
                raise ValueError(f"unit {latent.unit_id}: stream has {2 * latent.n_pairs} "
                                 f"nodes, expected {n_nodes}")
        by_unit = {run.unit_id: run for run in runs}
        labels = [_run_of(by_unit, latent.unit_id, len(latent)).labels for latent in latents]
        self.latents = latents
        self.lengths = [len(latent) for latent in latents]
        rows = max(self.lengths, default=0)
        self.shape = (rows, n_nodes, len(latents))
        self.truth = np.zeros((rows, len(latents)), dtype=bool)
        for e, (latent, truth) in enumerate(zip(latents, labels)):
            self.truth[:len(latent), e] = truth
        t = np.arange(rows)[:, None]
        lengths = np.array(self.lengths, dtype=np.int64)
        tails = np.array([critical_window(n) for n in self.lengths], dtype=np.int64)
        filled = t < lengths
        self.normal = filled & ~self.truth
        self.critical = filled & (t >= lengths - tails)
        self.n_truth = int(np.count_nonzero(self.truth))
        self.n_normal = int(np.count_nonzero(self.normal))

    def normalize(self, config: DetectorConfig) -> np.ndarray:
        """normalize_stream of every engine in one call, as a [Tmax x n x E] block.

        The raw block is built anew for each call and passed without another
        reference, so _normalize frees it once smoothed: the search holds at
        most two blocks at a time."""
        return _normalize(self._raw_block(), config).reshape(self.shape)

    def _raw_block(self) -> np.ndarray:
        """The zero-padded latent streams as one [Tmax x n*E] array."""
        block = np.zeros(self.shape)
        for e, latent in enumerate(self.latents):
            block[:len(latent), :, e] = _full_latent(latent)
        rows, n, engines = self.shape
        return block.reshape(rows, n * engines)

    def streams(self, block: np.ndarray) -> list[np.ndarray]:
        """Each engine's [T_e x n] stream in a [Tmax x n x E] block, in engine order."""
        return [block[:length, :, e] for e, length in enumerate(self.lengths)]

    def summary(self, positives: np.ndarray) -> MetricsSummary:
        """score of [Tmax x E] decisions; rows of padding count for nothing."""
        tp = int(np.count_nonzero(positives & self.truth))
        fp = int(np.count_nonzero(positives & self.normal))
        critical_hits = int(np.count_nonzero((positives & self.critical).any(axis=0)))
        return _summary(tp, fp, self.n_normal - fp, self.n_truth - tp, critical_hits,
                        len(self.lengths))


def _nodes_above(block: np.ndarray, band: np.ndarray) -> np.ndarray:
    """[Tmax x E] count of nodes above their band in a [Tmax x n x E] block."""
    return np.count_nonzero(block > band[:, None], axis=1)


def _nodes_below(block: np.ndarray, band: np.ndarray) -> np.ndarray:
    """[Tmax x E] count of nodes below their band in a [Tmax x n x E] block.

    No node is both above an upper band and below a lower one, because
    Thresholds keeps lower <= upper, so the two counts add up to _decide's
    votes."""
    return np.count_nonzero(block < band[:, None], axis=1)


def run_detector(latents: list[LatentSeries], runs: list[EngineRun],
                 thresholds: Thresholds, config: DetectorConfig
                 ) -> tuple[list[DetectionResult], MetricsSummary]:
    """detect on every engine, and score of the results against runs.

    The engines are normalized, decided and scored together on one
    zero-padded time-major block (see _Fleet); each engine's result is
    bitwise detect's and the summary is score's.
    """
    fleet = _Fleet(latents, runs, thresholds.n_nodes)
    block = fleet.normalize(config)
    votes = _nodes_above(block, thresholds.upper) + _nodes_below(block, thresholds.lower)
    positives = votes >= config.vote_threshold
    results = [DetectionResult(unit_id=latent.unit_id, votes=v[:length], positives=p[:length])
               for latent, length, v, p in zip(latents, fleet.lengths,
                                               np.ascontiguousarray(votes.T),
                                               np.ascontiguousarray(positives.T))]
    return results, fleet.summary(positives)


def optimize_thresholds(latents: list[LatentSeries], runs: list[EngineRun],
                        grid: list[DetectorConfig]) -> DetectorConfig:
    """Grid search maximizing timestep F1 on the training engines.

    The training engines sit side by side in one zero-padded time-major
    block (see _Fleet). Configs sharing their windows and baseline switch
    share one normalization of that block, made once per group and held one
    group at a time, and one percentile pass over its pooled rows that gives
    every config in the group its thresholds. Votes are counted once per
    distinct band, not per config, and each config is scored on the block
    against the 60/40 labels. Ties break toward higher specificity, then a
    smaller smoothing window, then the earlier config in the grid.
    """
    if not grid:
        raise ValueError("empty configuration grid")
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(grid):
        windows = (config.moving_average_window, config.baseline_window, config.use_baseline)
        groups.setdefault(windows, []).append(i)
    fleet = _Fleet(latents, runs)
    keys = {}
    for indices in groups.values():
        keys.update(zip(indices, _group_keys(fleet, [grid[i] for i in indices])))
    return grid[max(range(len(grid)), key=keys.__getitem__)]


def _search_keys(latents: list[LatentSeries], runs: list[EngineRun],
                 configs: list[DetectorConfig]) -> list[tuple]:
    """(f1, specificity, -window) of each config, all sharing configs[0]'s normalization."""
    return _group_keys(_Fleet(latents, runs), configs)


def _group_keys(fleet: _Fleet, configs: list[DetectorConfig]) -> list[tuple]:
    """_search_keys on a fleet already built."""
    block = fleet.normalize(configs[0])
    thresholds = _fit_thresholds_each(fleet.streams(block), configs)
    uppers = {c.upper_percentile: th.upper for c, th in zip(configs, thresholds)}
    lowers = {c.lower_percentile: th.lower for c, th in zip(configs, thresholds)}
    above = {q: _nodes_above(block, band) for q, band in uppers.items()}
    below = {q: _nodes_below(block, band) for q, band in lowers.items()}
    keys = []
    for config in configs:
        votes = above[config.upper_percentile] + below[config.lower_percentile]
        summary = fleet.summary(votes >= config.vote_threshold)
        keys.append((summary.f1, summary.specificity, -config.moving_average_window))
    return keys


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

# Recurrent baseline: 48-step sequence, input 24, hidden 16, gate matmuls only.
LSTM_BASELINE_MACS = 245_760


def count_macs(params) -> int:
    """Weight multiply-accumulates of one forward pass (bias adds excluded)."""
    return sum(s.in_dim * s.out_dim for s in params.specs)


def mac_report(params) -> dict:
    macs = count_macs(params)
    return {
        "weight_macs": macs,
        "bias_adds": sum(s.out_dim for s in params.specs),
        "reference_figure": REFERENCE_MAC_FIGURE,
        "reference_note": (
            f"commonly quoted cost is {REFERENCE_MAC_FIGURE} MACs; the exact "
            f"weight-MAC sum is {macs}, a {REFERENCE_MAC_FIGURE - macs} gap "
            "not explained by bias or activation accounting"),
        "lstm_baseline_macs": LSTM_BASELINE_MACS,
        "lstm_ratio": LSTM_BASELINE_MACS / macs,
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
