"""Embedding and consistency diagnostics for trained encoders.

Four families:
  * intrinsic dimension of the data manifold (Two-NN maximum likelihood),
  * box-counting dimension of 2-D point sets,
  * encoder geometry (Jacobian rank via SVD, pairwise injectivity ratios),
  * latent consistency: eta (variance ratio of min-max scaled derivative vs
    state channels) and rho (squared gap between the accumulated derivative
    and the re-based state).

All of these are read-only over parameters and data.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import net
from .dataio import EngineRun
from .tdc import LatentSeries

TWO_NN_TRIM = 0.1
RANK_THRESHOLD = 1e-9
INJECTIVITY_DELTA = 1e-6
INJECTIVITY_FLOOR = 1e-5

# Two-NN shortlists this many neighbours per row from Gram-matrix distances
NN_CANDIDATES = 8
# rows per Gram block in _two_nearest, pairs per block in injectivity_ratio_survey;
# a block's gathered [PAIR_BLOCK x 24] differences (1.5 MB) stay in cache
NN_BLOCK_ROWS = 256
PAIR_BLOCK = 8_192
# largest row block of jacobian_rank_survey: [512 x 8 x 24] Jacobians, 0.8 MB
RANK_BLOCK = 512

# log-spaced cell sizes 10^-2 .. 10^-0.4, 17 values, spanning 1.6 decades
DEFAULT_EPSILONS = 10.0 ** np.linspace(-2.0, -0.4, 17)


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    std: float
    method: str
    n_samples: int

    def __post_init__(self):
        if self.method not in ("two_nn", "box_counting"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.value > 0:
            raise ValueError(f"non-positive dimension estimate {self.value}")
        if self.std < 0:
            raise ValueError("negative spread")

    def as_dict(self) -> dict:
        return {"method": self.method, "value": self.value,
                "std": self.std, "n_samples": self.n_samples}


# --- Two-NN intrinsic dimension ------------------------------------------------

def two_nn_dimension(points: np.ndarray) -> DimensionEstimate:
    """Two-nearest-neighbor maximum-likelihood intrinsic dimension.

    For each point, mu = r2/r1 (second vs first neighbor distance). The top
    TWO_NN_TRIM fraction of mu is not simply discarded: the likelihood is
    censored at the trim point,

        d = r / (sum_{i<=r} ln mu_(i) + (N-r) * ln mu_(r)),

    which keeps the estimator unbiased under trimming. Exact duplicate
    points are removed first (warned, since r1=0 breaks the ratios).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array [N x D]")
    deduped = np.unique(pts, axis=0)
    if len(deduped) < len(pts):
        warnings.warn(f"removed {len(pts) - len(deduped)} duplicate points")
    n = len(deduped)
    if n < 20:
        raise ValueError(f"need at least 20 distinct points, got {n}")

    nearest = _two_nearest(deduped)
    log_mu = np.sort(np.log(nearest[:, 1] / nearest[:, 0]))
    r = n - int(math.floor(TWO_NN_TRIM * n))
    kept = log_mu[:r]
    denom = kept.sum() + (n - r) * kept[-1]
    if denom <= 0:
        raise ValueError("degenerate neighbor ratios; cannot estimate dimension")
    return DimensionEstimate(value=r / denom, std=0.0, method="two_nn", n_samples=n)


def _two_nearest(pts: np.ndarray) -> np.ndarray:
    """Distances from each row to its two nearest other rows, ascending [N x 2].

    Squared distances from the Gram matrix of the centred points shortlist
    NN_CANDIDATES neighbours per row; exact np.linalg.norm distances between
    the original rows rank the shortlist. Gram distances carry a rounding
    error of order eps * |c|^2, so a row whose second distance is not clear
    of the nearest unlisted Gram distance by that bound is ranked against
    every row instead. The result equals a brute-force exact search.
    """
    n, dim = pts.shape
    k = min(NN_CANDIDATES, n - 1)
    centred = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    slack = 4 * (dim + 4) * np.finfo(np.float64).eps
    reach = np.sqrt(sq) + np.sqrt(sq.max())
    out = np.empty((n, 2))
    for start in range(0, n, NN_BLOCK_ROWS):
        rows = np.arange(start, min(start + NN_BLOCK_ROWS, n))
        local = np.arange(len(rows))
        d2 = sq[rows, None] + sq[None, :] - 2.0 * (centred[rows] @ centred.T)
        d2[local, rows] = np.inf
        order = np.argpartition(d2, k, axis=1)
        exact = np.linalg.norm(pts[order[:, :k]] - pts[rows, None, :], axis=2)
        exact.sort(axis=1)
        out[rows] = exact[:, :2]
        unlisted = d2[local, order[:, k]]
        unsure = exact[:, 1] ** 2 * (1 + slack) + slack * reach[rows] ** 2 >= unlisted
        for i in rows[unsure]:
            dist = np.linalg.norm(pts - pts[i], axis=1)
            dist[i] = np.inf
            out[i] = np.partition(dist, 1)[:2]
    return out


def two_nn_by_engine(runs: list[EngineRun]) -> DimensionEstimate:
    """Per-engine Two-NN on normal rows, aggregated mean +/- std across engines."""
    values, total = [], 0
    for run in runs:
        try:
            est = two_nn_dimension(run.normal_features())
        except ValueError as exc:
            warnings.warn(f"unit {run.unit_id}: {exc}; skipped")
            continue
        values.append(est.value)
        total += est.n_samples
    if not values:
        raise ValueError("no engine yielded a dimension estimate")
    return DimensionEstimate(value=float(np.mean(values)), std=float(np.std(values)),
                             method="two_nn", n_samples=total)


def recommend_embedding_dim(dimension: float) -> int:
    """Smallest even latent width strictly above twice the intrinsic dimension.

    The embedding bound for fractal sets is strict (n > 2d), hence the
    open inequality: d = 4.0 recommends 10, not 8.
    """
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    n = math.floor(2.0 * dimension) + 1
    return n if n % 2 == 0 else n + 1


# --- box-counting dimension ----------------------------------------------------

def box_counts(points: np.ndarray, epsilons) -> np.ndarray:
    """Occupied-cell counts N(eps) on a grid anchored at the bounding-box corner.

    Coordinates are first mapped to the unit bounding square, so eps is a
    fraction of the set's extent in each axis.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    shifted = pts - pts.min(axis=0)
    span = shifted.max(axis=0)
    if not np.any(span > 0):
        raise ValueError("degenerate point set (all points identical)")
    shifted = shifted / np.where(span > 0, span, 1.0)
    counts = []
    for eps in epsilons:
        if eps <= 0:
            raise ValueError("epsilon values must be positive")
        cells = np.floor(shifted / eps).astype(np.int64)
        counts.append(np.unique(cells, axis=0).shape[0])
    return np.array(counts)


def box_counting_dimension(points: np.ndarray, epsilons=None) -> DimensionEstimate:
    """Least-squares slope of ln N(eps) against ln(1/eps).

    The returned std is the RMS residual of the log-log fit, a goodness
    measure rather than a sampling spread.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 100:
        raise ValueError(f"need at least 100 points, got {len(pts)}")
    eps = DEFAULT_EPSILONS if epsilons is None else np.asarray(epsilons, dtype=np.float64)
    if len(eps) < 4 or eps.max() / eps.min() < 10.0:
        raise ValueError("need at least 4 epsilon values spanning a decade")
    counts = box_counts(pts, eps)
    x = -np.log(eps)
    y = np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DimensionEstimate(value=float(slope), std=residual,
                             method="box_counting", n_samples=len(pts))


# --- encoder geometry ------------------------------------------------------------

@dataclass
class RankReport:
    """Per-sample encoder-Jacobian singular values and ranks at a threshold."""

    singular_values: np.ndarray
    ranks: np.ndarray
    threshold: float
    full_rank: int
    full_rank_fraction: float
    failed: list[int]

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "full_rank": self.full_rank,
            "full_rank_fraction": self.full_rank_fraction,
            "n_samples": int(len(self.ranks)),
            "n_failed": len(self.failed),
            "min_singular_value": float(self.singular_values[:, -1].min())
            if len(self.ranks) else float("nan"),
        }


def jacobian_rank_survey(params: net.NetworkParams, inputs: np.ndarray,
                         threshold: float = RANK_THRESHOLD) -> RankReport:
    """SVD-based rank of the encoder Jacobian at every input row.

    The rows are split by np.array_split into ceil(n / RANK_BLOCK)
    near-equal blocks, never a 1-row block unless n == 1 (a 1-row forward
    takes another BLAS path and can differ in the last ulp). Each block
    gets its Jacobians and one batched SVD, so memory is bounded by the
    block, and the singular values are those of one whole-batch SVD. If a
    block's SVD fails to converge, each of its samples is decomposed alone,
    and those that still fail are flagged by row index in `failed` and
    excluded from the fraction, never silently dropped.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    x = np.asarray(inputs, dtype=np.float64)
    n_blocks = max(1, min(math.ceil(len(x) / RANK_BLOCK), len(x) // 2))
    svs, failed, offset = [], [], 0
    for rows in np.array_split(x, n_blocks):
        jac = net.encoder_jacobian_batch(params, rows)
        try:
            svs.append(np.linalg.svd(jac, compute_uv=False))
        except np.linalg.LinAlgError:
            block_svs, block_failed = _per_sample_singular_values(jac)
            svs.append(block_svs)
            failed += [offset + k for k in block_failed]
        offset += len(rows)
    svs = np.concatenate(svs)
    full = min(jac.shape[1], jac.shape[2])
    ranks = np.sum(svs > threshold, axis=-1, dtype=int)
    fraction = float(np.mean(ranks == full)) if len(ranks) else 0.0
    return RankReport(singular_values=svs, ranks=ranks, threshold=threshold,
                      full_rank=full, full_rank_fraction=fraction, failed=failed)


def _per_sample_singular_values(jac: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Singular values [n_ok x k] of each matrix that converges, and the indices
    of those that do not."""
    svs, failed = [], []
    for i in range(jac.shape[0]):
        try:
            svs.append(np.linalg.svd(jac[i], compute_uv=False))
        except np.linalg.LinAlgError:
            failed.append(i)
    return np.array(svs).reshape(len(svs), min(jac.shape[1:])), failed


def injectivity_ratio_survey(params: net.NetworkParams, inputs: np.ndarray,
                             delta: float = INJECTIVITY_DELTA,
                             floor: float = INJECTIVITY_FLOOR,
                             max_pairs: int = 1_000_000,
                             seed: int = 0) -> tuple[float, int]:
    """Minimum pairwise contraction ratio of the encoder and count below floor.

    Ratios ||E(x1)-E(x2)|| / ||x1-x2|| over all pairs separated by more than
    delta; beyond max_pairs total pairs, a uniform random subsample of
    max_pairs pairs is used instead (see _pair_blocks for its draw order).
    Pairs arrive PAIR_BLOCK at a time and their distances are computed in
    buffers allocated once, so memory is bounded by the block, not by the
    number of pairs; a running minimum and count give the same result as
    one whole-array pass.
    """
    if max_pairs < 1:
        raise ValueError(f"max_pairs must be at least 1, got {max_pairs}")
    x = np.asarray(inputs, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 inputs")
    latent = net.forward(params, x, n_layers=net.encoder_layer_count(params))[0]
    buffers = np.empty((2, PAIR_BLOCK * max(x.shape[1], latent.shape[1])))
    dx_block, dz_block = np.empty((2, PAIR_BLOCK))
    min_ratio, below, surveyed = math.inf, 0, False
    for i, j in _pair_blocks(n, max_pairs, seed):
        dx = _row_distances(x, i, j, buffers, dx_block[:len(i)])
        dz = _row_distances(latent, i, j, buffers, dz_block[:len(i)])
        mask = dx > delta
        if not np.any(mask):
            continue
        ratios = dz[mask] / dx[mask]
        min_ratio = min(min_ratio, float(ratios.min()))
        below += int(np.sum(ratios < floor))
        surveyed = True
    if not surveyed:
        raise ValueError("no pairs separated by more than delta")
    return min_ratio, below


def _pair_blocks(n: int, max_pairs: int,
                 seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The injectivity survey's (i, j) index pairs, in blocks of at most PAIR_BLOCK.

    With n * (n - 1) / 2 <= max_pairs, every pair i < j in row-major order
    (the order of np.triu_indices(n, 1)). Otherwise a seeded sample in the
    order of one whole-array draw: i is default_rng(seed).integers(0, n, m)
    and j the next m draws of the same stream, with m = 1.02 * max_pairs + 16;
    self-pairs are dropped and the first max_pairs pairs kept. Generator
    draws are the same in chunks as in one call, so one generator replays i
    block by block while a second skips i's draws and gives j in lockstep.
    """
    total = n * (n - 1) // 2
    if total <= max_pairs:
        counts = np.arange(n - 1, 0, -1)  # pairs in rows 0 .. n-2
        starts = np.cumsum(counts) - counts
        for lo in range(0, total, PAIR_BLOCK):
            k = np.arange(lo, min(lo + PAIR_BLOCK, total))
            i = np.searchsorted(starts, k, side="right") - 1
            yield i, k - starts[i] + i + 1
        return
    draws = int(max_pairs * 1.02) + 16
    sizes = [min(PAIR_BLOCK, draws - lo) for lo in range(0, draws, PAIR_BLOCK)]
    rng_i, rng_j = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in sizes:
        rng_j.integers(0, n, size=size)
    need = max_pairs
    for size in sizes:
        i, j = rng_i.integers(0, n, size=size), rng_j.integers(0, n, size=size)
        keep = i != j
        i, j = i[keep][:need], j[keep][:need]
        yield i, j
        need -= len(i)
        if need == 0:
            return


def _row_distances(rows: np.ndarray, i: np.ndarray, j: np.ndarray,
                   buffers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """||rows[i] - rows[j]|| per pair, written into out and returned.

    The gathered rows go to the front of the two flat rows of buffers, so no
    block allocates (np.take buffers `out` under its default mode="raise";
    "clip" writes in place, and every index is in range).
    sqrt(add.reduce(d * d, axis=1)) is what np.linalg.norm computes for
    real d, bit for bit.
    """
    shape = (len(i), rows.shape[1])
    a = buffers[0, :shape[0] * shape[1]].reshape(shape)
    b = buffers[1, :shape[0] * shape[1]].reshape(shape)
    np.take(rows, i, axis=0, out=a, mode="clip")
    np.take(rows, j, axis=0, out=b, mode="clip")
    np.subtract(a, b, out=a)
    np.multiply(a, a, out=a)
    np.add.reduce(a, axis=1, out=out)
    return np.sqrt(out, out=out)


# --- consistency metrics ---------------------------------------------------------

def _minmax(series: np.ndarray) -> np.ndarray:
    s = np.asarray(series, dtype=np.float64)
    span = s.max() - s.min()
    if span == 0:
        raise ValueError("constant series has no min-max scale")
    return (s - s.min()) / span


def eta_metric(z_series: np.ndarray, zdot_series: np.ndarray) -> float:
    """Variance of the min-max scaled derivative over that of the state.

    Both series are scaled to [0, 1] independently, which makes the ratio
    invariant to affine maps of either series. Near 1 means the derivative
    channel varies as much as the state channel it annotates.
    """
    if len(z_series) < 2 or len(zdot_series) < 2:
        raise ValueError("series must have length >= 2")
    return float(np.var(_minmax(zdot_series)) / np.var(_minmax(z_series)))


def rho_metric(z_series: np.ndarray, zdot_series: np.ndarray, dt: float = 1.0) -> float:
    """Mean squared gap between the state increment and the accumulated derivative.

    With x_i = z_i - z_0, rho = mean_i (x_i - sum_{j<=i} zdot_j dt)^2 over
    i = 1..N. Re-basing to z_0 keeps rho about the dynamics rather than the
    starting level; a backward-difference derivative gives exactly 0.
    """
    z = np.asarray(z_series, dtype=np.float64)
    zd = np.asarray(zdot_series, dtype=np.float64)
    if z.shape != zd.shape or z.ndim != 1:
        raise ValueError("series must be aligned 1-D arrays")
    if len(z) < 2:
        raise ValueError("series must have length >= 2")
    x = z[1:] - z[0]
    accumulated = np.cumsum(zd[1:]) * dt
    return float(np.mean((x - accumulated) ** 2))


def _pair_etas(latent: LatentSeries, window: tuple[int, int]) -> list[float]:
    """Each pair's eta over one index window of a latent series.

    A pair whose state or derivative channel is constant over the window
    gets eta = nan instead of aborting the whole engine.
    """
    start, stop = window
    if not (0 <= start < stop <= len(latent)) or stop - start < 2:
        raise ValueError(f"bad window ({start}, {stop}) for series of length {len(latent)}")
    etas = []
    for k in range(latent.n_pairs):
        try:
            etas.append(eta_metric(latent.z[start:stop, k], latent.z_dot[start:stop, k]))
        except ValueError:
            etas.append(float("nan"))
    return etas


def eta_table(latents: list[LatentSeries], windows: list[tuple[int, int]]) -> list[dict]:
    """Per-pair eta mean +/- std across engines, each on its own window."""
    per_engine = [_pair_etas(latent, window) for latent, window in zip(latents, windows)]
    rows = []
    for k in range(latents[0].n_pairs):
        values = [etas[k] for etas in per_engine if math.isfinite(etas[k])]
        mean, std = _mean_std(values)
        rows.append({"pair": k, "mean": mean, "std": std, "n_engines": len(values)})
    return rows


def rho_table(latents: list[LatentSeries], labels: list[np.ndarray],
              dt: float = 1.0) -> list[dict]:
    """Per-pair rho over the normal and anomalous segments, across engines.

    Each segment is re-based to its own first sample, so the anomalous rho
    measures consistency decay inside the degraded regime, not the jump
    from the start of life. dt is the step the model was trained with.
    """
    n_pairs = latents[0].n_pairs
    per_pair_normal = [[] for _ in range(n_pairs)]
    per_pair_anom = [[] for _ in range(n_pairs)]
    for latent, lab in zip(latents, labels):
        if len(lab) != len(latent):
            raise ValueError(f"unit {latent.unit_id}: {len(lab)} labels "
                             f"for {len(latent)} latent rows")
        boundary = int(np.argmax(lab)) if lab.any() else len(lab)
        for (start, stop), sink in (((0, boundary), per_pair_normal),
                                    ((boundary, len(lab)), per_pair_anom)):
            if stop - start < 2:
                continue
            for k in range(n_pairs):
                sink[k].append(rho_metric(latent.z[start:stop, k],
                                          latent.z_dot[start:stop, k], dt))
    rows = []
    for k in range(n_pairs):
        normal_mean, normal_std = _mean_std(per_pair_normal[k])
        anomalous_mean, anomalous_std = _mean_std(per_pair_anom[k])
        rows.append({"pair": k, "normal_mean": normal_mean, "normal_std": normal_std,
                     "anomalous_mean": anomalous_mean, "anomalous_std": anomalous_std})
    return rows


def _mean_std(values: list[float]) -> tuple[float, float]:
    """(mean, std) of one pair's values across engines, (nan, nan) if there are none."""
    if not values:
        return math.nan, math.nan
    return float(np.mean(values)), float(np.std(values))
