"""Latent-space anomaly detection: thresholds, votes, and scoring.

Detection pipeline per engine: concatenate the latent state and derivative
channels into one [T x n] stream, smooth each node with a trailing moving
average, subtract a trailing-mean baseline (re-anchored per engine), then
compare against global per-node percentile bands fitted on pooled training
streams. A timestep is positive when at least vote_threshold nodes sit
outside their band. Metrics are micro-averaged over pooled timesteps, plus
the critical detection rate over each engine's final 10% of life.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import EngineRun, atomic_write_text
from .tdc import LatentSeries


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

    Rows from window - 1 on average full windows, all at once over a strided
    view. Each mean still sums its window's rows in time order, so every row
    is bitwise the mean of values[t - window + 1:t + 1]; a running sum would
    not be.
    """
    out = np.empty_like(values, dtype=np.float64)
    head = min(window - 1, values.shape[0])
    for t in range(head):
        out[t] = values[:t + 1].mean(axis=0)
    if head < values.shape[0]:
        windows = sliding_window_view(values, window, axis=0)
        out[head:] = np.moveaxis(windows, -1, 1).mean(axis=1)
    return out


def baseline(smoothed: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean of the previous `window` smoothed values.

    b[0] is the first smoothed value itself (nothing precedes it); for t >= 1,
    b[t] is moving_average(smoothed, window)[t - 1], the mean of the up to
    `window` values before t, so early steps average whatever history
    exists. Subtracting this re-anchors every engine at its own operating
    point.
    """
    return np.concatenate([smoothed[:1], moving_average(smoothed, window)[:-1]])


def normalize_stream(latent: LatentSeries, config: DetectorConfig) -> np.ndarray:
    """Moving-averaged, baseline-subtracted latent stream [T x n]."""
    values = _full_latent(latent)
    if values.shape[0] < 1:
        raise ValueError("empty latent series")
    smoothed = moving_average(values, config.moving_average_window)
    if not config.use_baseline:
        return smoothed
    return smoothed - baseline(smoothed, config.baseline_window)


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
    bands = dict(zip(qs, np.percentile(np.vstack(normalized), qs, axis=0)))
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
        run = by_unit[res.unit_id]
        if len(res) != run.life_length:
            raise ValueError(f"unit {res.unit_id}: {len(res)} decisions "
                             f"for {run.life_length} cycles")
        if res.positives[-critical_window(run.life_length):].any():
            critical_hits += 1
    positives = np.concatenate([res.positives for res in results] or [np.zeros(0, bool)])
    truth = np.concatenate([by_unit[res.unit_id].labels for res in results]
                           or [np.zeros(0, bool)])
    tp = int(np.count_nonzero(positives & truth))
    fp = int(np.count_nonzero(positives)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    tn = positives.size - tp - fp - fn
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return MetricsSummary(
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=_safe_div(tp + tn, tp + fp + tn + fn),
        precision=precision,
        recall=recall,
        specificity=_safe_div(tn, tn + fp),
        f1=_safe_div(2 * precision * recall, precision + recall),
        cdr=_safe_div(critical_hits, len(results)),
        n_engines=len(results),
    )


def run_detector(latents: list[LatentSeries], runs: list[EngineRun],
                 thresholds: Thresholds, config: DetectorConfig
                 ) -> tuple[list[DetectionResult], MetricsSummary]:
    results = [detect(latent, thresholds, config) for latent in latents]
    return results, score(results, runs)


def optimize_thresholds(latents: list[LatentSeries], runs: list[EngineRun],
                        grid: list[DetectorConfig]) -> DetectorConfig:
    """Grid search maximizing timestep F1 on the training engines.

    Configs sharing their windows and baseline switch share one normalization
    of the streams, made once per group and held one group at a time, and
    one percentile pass over it that gives every config in the group its
    thresholds. Each config is scored against the 60/40 labels. Ties break
    toward higher specificity, then a smaller smoothing window, then the
    earlier config in the grid.
    """
    if not grid:
        raise ValueError("empty configuration grid")
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(grid):
        windows = (config.moving_average_window, config.baseline_window, config.use_baseline)
        groups.setdefault(windows, []).append(i)
    keys = {}
    for indices in groups.values():
        keys.update(zip(indices, _search_keys(latents, runs, [grid[i] for i in indices])))
    return grid[max(range(len(grid)), key=keys.__getitem__)]


def _search_keys(latents: list[LatentSeries], runs: list[EngineRun],
                 configs: list[DetectorConfig]) -> list[tuple]:
    """(f1, specificity, -window) of each config, all sharing configs[0]'s normalization."""
    streams = [normalize_stream(latent, configs[0]) for latent in latents]
    keys = []
    for config, thresholds in zip(configs, _fit_thresholds_each(streams, configs)):
        results = [_decide(latent.unit_id, stream, thresholds, config)
                   for latent, stream in zip(latents, streams)]
        summary = score(results, runs)
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
