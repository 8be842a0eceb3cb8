"""Latent-space anomaly detection: thresholds, votes, and scoring.

Detection pipeline per engine: concatenate the latent state and derivative
channels into one [T x n] stream, smooth each node with a trailing moving
average, subtract a trailing-mean baseline (re-anchored per engine), then
compare against global per-node percentile bands fitted on pooled training
streams. A timestep is positive when at least vote_threshold nodes sit
outside their band. Metrics are micro-averaged over pooled timesteps, plus
the critical detection rate over each engine's final 10% of life.

One path decides and scores. Engines are normalized, thresholded and voted
side by side in one zero-padded time-major block (_Fleet), and decisions are
scored against the runs' labels as [Tmax x E] masks (_Labels). A single
engine is a block one engine wide: normalize_stream and detect are the
one-engine case, and score pads finished decisions into a block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataio import EngineRun, atomic_write_text
from .net import encoder_layer_count
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


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean truncated at the start (causal, no padding).

    Axis 0 is time, and the result has the input's shape. Row t is the
    float64 sum of rows max(0, t - window + 1) ... t, added one after another
    in time order, divided by their count. The other axes are n columns:
    - rows t < window - 1 are a cumulative sum of the first rows, divided by
      t + 1;
    - each later row starts as the first row of its window, adds the other
      window - 1 rows in order, and is divided by window. The adds run on
      whole slices shifted by one row each, MEAN_BLOCK_CELLS // n rows (at
      least one) at a time.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    values = np.ascontiguousarray(values, dtype=np.float64)
    shape, rows = values.shape, values.shape[0]
    values = values.reshape(rows, math.prod(shape[1:]))
    out = np.empty_like(values)
    head = min(window - 1, rows)
    np.cumsum(values[:head], axis=0, out=out[:head])
    out[:head] /= np.arange(1, head + 1)[:, None]
    step = max(1, MEAN_BLOCK_CELLS // max(1, values.shape[1]))
    for start in range(head, rows, step):
        sums = out[start:start + step]
        first, length = start - window + 1, sums.shape[0]
        sums[:] = values[first:first + length]
        for k in range(1, window):
            sums += values[first + k:first + k + length]
        sums /= window
    return out.reshape(shape)


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
    return fleet.streams(fleet.normalize(config))


def normalize_stream(latent: LatentSeries, config: DetectorConfig) -> np.ndarray:
    """Moving-averaged, baseline-subtracted latent stream [T x n]: normalize_fleet
    of one engine."""
    return normalize_fleet([latent], config)[0]


def _normalize(values: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """Smoothing minus baseline of a fleet's raw [Tmax x n*E] block. Both stages
    are trailing and column-independent, so each column is bitwise its engine's
    stream normalized alone on the rows the engine fills."""
    smoothed = moving_average(values, config.moving_average_window)
    del values  # frees the raw block, which the caller hands over
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
    """Vote-based decisions: positive when >= vote_threshold nodes leave their band.

    The decision of a fleet one engine wide (see _Fleet.decide)."""
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
    their final ceil(0.1 T) cycles. The results' positives are zero-padded
    into one [Tmax x E] block and summarized against the runs' label masks
    (see _Labels): a KeyError for a unit with no run, a ValueError for a run
    whose life is not as long as its decisions.
    """
    labels = _Labels([(res.unit_id, len(res)) for res in results], runs)
    positives = np.zeros(labels.truth.shape, dtype=bool)
    for e, res in enumerate(results):
        positives[:len(res), e] = res.positives
    return labels.summary(positives)


class _Fleet:
    """Engines side by side in one time-major block, to normalize and decide
    them all at once.

    A block is [Tmax x n x E]: engine e's [T_e x n] latent stream fills rows
    t < T_e of block[:, :, e], and zeros pad the rows after its last cycle.
    Normalization is trailing and column-independent, so no filled row ever
    reads the padding. Nodes before engines in a row let a vote count add up
    E-wide rows.
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
        self.lengths = [len(latent) for latent in latents]
        self.shape = (max(self.lengths, default=0), n_nodes, len(latents))

    def normalize(self, config: DetectorConfig) -> np.ndarray:
        """Every engine's normalized stream in one call, as a [Tmax x n x E] block.

        The raw block is built anew for each call and passed without another
        reference, so _normalize frees it once smoothed: the search holds at
        most two blocks at a time."""
        return _normalize(self._raw_block(), config).reshape(self.shape)

    def _raw_block(self) -> np.ndarray:
        """The zero-padded latent streams, state then derivative nodes, as one
        [Tmax x n*E] array."""
        block = np.zeros(self.shape)
        for e, latent in enumerate(self.latents):
            block[:len(latent), :latent.n_pairs, e] = latent.z
            block[:len(latent), latent.n_pairs:, e] = latent.z_dot
        rows, n, engines = self.shape
        return block.reshape(rows, n * engines)

    def streams(self, block: np.ndarray) -> list[np.ndarray]:
        """Each engine's [T_e x n] stream in a [Tmax x n x E] block, in engine order."""
        return [block[:length, :, e] for e, length in enumerate(self.lengths)]

    def decide(self, thresholds: Thresholds, config: DetectorConfig) -> list[DetectionResult]:
        """Each engine's decisions, in engine order, from one normalization and
        one vote count of the block."""
        if thresholds.n_nodes != self.shape[1]:
            raise ValueError(f"thresholds have {thresholds.n_nodes} nodes, expected {self.shape[1]}")
        block = self.normalize(config)
        votes = _nodes_above(block, thresholds.upper) + _nodes_below(block, thresholds.lower)
        positives = votes >= config.vote_threshold
        # copies, not views of the [Tmax x E] arrays: a kept result holds its own cycles only
        return [DetectionResult(unit_id=latent.unit_id, votes=votes[:length, e].copy(),
                                positives=positives[:length, e].copy())
                for e, (latent, length) in enumerate(zip(self.latents, self.lengths))]


def _nodes_above(block: np.ndarray, band: np.ndarray) -> np.ndarray:
    """[Tmax x E] count of nodes above their band in a [Tmax x n x E] block."""
    return np.count_nonzero(block > band[:, None], axis=1)


def _nodes_below(block: np.ndarray, band: np.ndarray) -> np.ndarray:
    """[Tmax x E] count of nodes below their band in a [Tmax x n x E] block.

    No node is both above an upper band and below a lower one, because
    Thresholds keeps lower <= upper, so the two counts add up to the number
    of nodes outside their band."""
    return np.count_nonzero(block < band[:, None], axis=1)


class _Labels:
    """The runs' labels of a fleet's decisions as [Tmax x E] masks, to score
    them all at once.

    The masks are the labels of the filled rows split into anomalous (truth)
    and normal, and each engine's final critical_window cycles; all are
    False on the padding after an engine's last cycle.
    """

    def __init__(self, engines: list[tuple[int, int]], runs: list[EngineRun]):
        """engines holds each engine's (unit_id, cycles decided), in block order.
        A unit with no run is a KeyError; a run whose life is not as many
        cycles as its engine decided is a ValueError."""
        by_unit = {run.unit_id: run for run in runs}
        lengths = np.array([length for _, length in engines], dtype=np.int64)
        rows = int(lengths.max(initial=0))
        self.truth = np.zeros((rows, len(engines)), dtype=bool)
        for e, (unit_id, length) in enumerate(engines):
            run = by_unit[unit_id]
            if length != run.life_length:
                raise ValueError(f"unit {unit_id}: {length} decisions "
                                 f"for {run.life_length} cycles")
            self.truth[:length, e] = run.labels
        t = np.arange(rows)[:, None]
        tails = np.array([critical_window(n) for n in lengths], dtype=np.int64)
        filled = t < lengths
        self.normal = filled & ~self.truth
        self.critical = filled & (t >= lengths - tails)
        self.n_truth = int(np.count_nonzero(self.truth))
        self.n_normal = int(np.count_nonzero(self.normal))

    def summary(self, positives: np.ndarray) -> MetricsSummary:
        """The metrics of [Tmax x E] decisions; rows of padding count for nothing."""
        tp = int(np.count_nonzero(positives & self.truth))
        fp = int(np.count_nonzero(positives & self.normal))
        tn, fn = self.n_normal - fp, self.n_truth - tp
        critical_hits = int(np.count_nonzero((positives & self.critical).any(axis=0)))
        n_engines = self.truth.shape[1]
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

    The training engines sit side by side in one zero-padded time-major
    block (see _Fleet). Configs sharing their (moving_average_window,
    baseline_window) share one normalization of that block, made once per
    group and held one group at a time, and one percentile pass over its
    pooled rows that gives every config in the group its thresholds. Votes
    are counted once per distinct band, not per config, and each config is
    scored on the block against the 60/40 labels. Ties break toward higher specificity, then a
    smaller smoothing window, then the earlier config in the grid.
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
        block = fleet.normalize(configs[0])
        thresholds = _fit_thresholds_each(fleet.streams(block), configs)
        uppers = {c.upper_percentile: th.upper for c, th in zip(configs, thresholds)}
        lowers = {c.lower_percentile: th.lower for c, th in zip(configs, thresholds)}
        above = {q: _nodes_above(block, band) for q, band in uppers.items()}
        below = {q: _nodes_below(block, band) for q, band in lowers.items()}
        for i, config in zip(indices, configs):
            votes = above[config.upper_percentile] + below[config.lower_percentile]
            summary = labels.summary(votes >= config.vote_threshold)
            keys[i] = (summary.f1, summary.specificity, -config.moving_average_window)
        # freed before the next group's normalization, which then holds two blocks at most
        del block, above, below, votes
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
