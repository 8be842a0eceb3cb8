"""Autoencoder training with a temporal differential consistency penalty.

The total loss per batch is

    Rec-Loss + alpha * TDC-Loss

where Rec-Loss is the reconstruction MSE at time t and TDC-Loss is the MSE
between the central difference of the latent state half,
(z_{t+1} - z_{t-1}) / (2 dt), and the latent derivative half z_dot_t. A
training step encodes the stacked (t, t-1, t+1) rows in one pass, decodes
the rows at t, and runs one backward pass through each half. The TDC
gradient reaches all three encoder evaluations by default; a stop-gradient
mode treats the central difference as a constant target.

Inference is single-step: the derivative channels are read off one encoded
measurement, no temporal context needed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import net
from .dataio import EngineRun, atomic_write_text, normal_row_split


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.003
    alpha: float = 100.0
    latent_dim: int = 8
    dt: float = 1.0
    seed: int = 0
    stop_gradient: bool = False
    hidden_dim: int = 24
    input_dim: int = 24

    def __post_init__(self):
        not_finite = [name for name in ("learning_rate", "alpha", "dt")
                      if not math.isfinite(getattr(self, name))]
        if not_finite:
            raise ValueError(f"{', '.join(not_finite)} must be finite")
        if min(self.epochs, self.batch_size, self.latent_dim, self.hidden_dim, self.input_dim) <= 0:
            raise ValueError("epochs, batch_size and dimensions must be positive")
        if self.learning_rate <= 0 or self.dt <= 0:
            raise ValueError("learning_rate and dt must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.latent_dim % 2 != 0:
            raise ValueError("latent_dim must be even (state-derivative pairs)")
        specs = network_specs(self)
        if net.encoder_depth(specs) != len(specs) // 2:  # the latent layer is the bottleneck
            wider = (f"hidden_dim {self.hidden_dim}" if self.latent_dim >= self.hidden_dim
                     else f"the {self.input_dim}-wide output")
            widths = "-".join(str(s.out_dim) for s in specs)
            raise ValueError(f"latent_dim {self.latent_dim} is not narrower than {wider}, so the "
                             f"latent layer of a {self.input_dim}-{widths} network is not its "
                             "unique bottleneck")


# table-row offsets of the rows at t, t-1 and t+1 from a triplet's centre row
_NEIGHBOURS = np.array([[0], [-1], [1]])


@dataclass(frozen=True)
class TripletSet:
    """Triplets over one [R x d] table that holds each scaled row once.

    centre[i] is the table row at t of triplet i; the rows at t-1 and t+1
    are the table rows either side of it, so centre never names the first
    or last row. A batch is the set take returns, over the same table.
    """

    table: np.ndarray
    centre: np.ndarray

    def __len__(self) -> int:
        return len(self.centre)

    def take(self, idx: np.ndarray) -> TripletSet:
        """The triplets at idx, in that order, over the same table: no row is copied."""
        return TripletSet(self.table, self.centre[idx])

    @property
    def rows(self) -> np.ndarray:
        """The rows at t, t-1 and t+1, gathered as one fresh [3 x B x d] array."""
        return self.table.take(self.centre + _NEIGHBOURS, axis=0)

    @property
    def cur(self) -> np.ndarray:
        return self.table[self.centre]

    @property
    def prev(self) -> np.ndarray:
        return self.table[self.centre - 1]

    @property
    def nxt(self) -> np.ndarray:
        return self.table[self.centre + 1]


def make_triplets(runs: list[EngineRun], subset: str = "train") -> TripletSet:
    """Triplets over each engine's normal rows, restricted to one row subset.

    subset "train" uses each engine's leading 90% of normal rows, "val" the
    trailing 10%. Every index with both neighbors inside the chosen
    contiguous range yields one triplet, so triplets never straddle engines
    or the train/val boundary. Engines whose range has fewer than 3 rows are
    skipped with a warning. The chosen ranges are copied once, back to back,
    into the set's table.
    """
    if subset not in ("train", "val"):
        raise ValueError(f"unknown subset {subset!r}")
    ranges = []
    for run in runs:
        train_rows, val_rows = normal_row_split(run)
        rows = train_rows if subset == "train" else val_rows
        if len(rows) < 3:
            warnings.warn(f"unit {run.unit_id}: {subset} range has {len(rows)} rows, "
                          "too short for triplets; skipped")
            continue
        ranges.append(run.features[rows.start:rows.stop])
    table = np.empty((sum(map(len, ranges)), runs[0].features.shape[1] if runs else 0))
    centre = np.empty(len(table) - 2 * len(ranges), dtype=np.intp)
    row = k = 0
    for features in ranges:
        n = len(features)
        table[row:row + n] = features
        centre[k:k + n - 2] = np.arange(row + 1, row + n - 1)
        row += n
        k += n - 2
    table.flags.writeable = False
    return TripletSet(table, centre)


def central_difference(z_prev: np.ndarray, z_next: np.ndarray, dt: float) -> np.ndarray:
    return (z_next - z_prev) / (2.0 * dt)


def _mean_square(x: np.ndarray) -> float:
    """float(np.mean(x ** 2)) without np.mean's wrapper: the same sum, the same bits."""
    return float(np.add.reduce(x * x, axis=None) / x.size)


def tdc_loss(z_prev: np.ndarray, z_next: np.ndarray, z_dot: np.ndarray, dt: float) -> float:
    """MSE between the central difference of z and the predicted derivative."""
    return _mean_square(central_difference(z_prev, z_next, dt) - z_dot)


def rec_loss(reconstruction: np.ndarray, target: np.ndarray) -> float:
    return _mean_square(reconstruction - target)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    rec: float
    tdc: float
    val_rec: float
    val_tdc: float


def _forward(params: net.NetworkParams, batch: TripletSet, dt: float):
    """Encoder over the stacked [cur; prev; nxt] rows, decoder over cur's latents.

    Returns (rec, tdc, e, diff, enc_cache, dec_cache), where e is the TDC
    residual (z_next - z_prev)/(2 dt) - z_dot at the current rows and diff
    the reconstruction error out - cur; rec and tdc are their mean squares.
    """
    rows = batch.rows
    b = len(batch)
    n_enc = net.encoder_layer_count(params)
    half = net.latent_dim(params) // 2
    latent, enc_cache = net.forward(params, rows.reshape(3 * b, rows.shape[2]), n_layers=n_enc)
    out, dec_cache = net.forward(params, latent[:b], start=n_enc)
    e = central_difference(latent[b:2 * b, :half], latent[2 * b:, :half], dt) - latent[:b, half:]
    diff = out - rows[0]
    return _mean_square(diff), _mean_square(e), e, diff, enc_cache, dec_cache


def loss_and_grads(params: net.NetworkParams, batch: TripletSet, config: TrainingConfig,
                   grads: net.Gradients | None = None) -> tuple[float, float, net.Gradients]:
    """(rec, tdc, gradient of rec + alpha * tdc) on a triplet batch.

    One backward through the decoder gives the reconstruction delta at the
    bottleneck. With c = 2 alpha / e.size, the combined bottleneck delta is
    that plus -c e on the derivative half of the current rows, and
    -/+ c e / (2 dt) on the state half of the prev/next rows; one backward
    through the encoder carries it over all 3B rows. Both backwards write
    into grads (default net.zero_gradients(params)), on disjoint slices that
    together cover theta. Stop-gradient mode leaves the neighbour rows at
    zero, so the central difference acts as a constant target. A non-finite
    loss raises ValueError before any backward work.
    """
    rec, tdc, e, diff, enc_cache, dec_cache = _forward(params, batch, config.dt)
    if not math.isfinite(rec + config.alpha * tdc):
        raise ValueError("non-finite loss")

    diff *= 2.0
    diff /= diff.size
    grads = net.backward(params, dec_cache, diff, grads)
    b, half = e.shape
    c = 2.0 * config.alpha / e.size
    ce = c * e
    delta = np.zeros(enc_cache.activations[-1].shape)
    delta[:b] = grads.input_grad
    delta[:b, half:] -= ce
    if not config.stop_gradient:
        ce /= 2.0 * config.dt
        np.negative(ce, out=delta[b:2 * b, :half])
        delta[2 * b:, :half] = ce
    grads = net.backward(params, enc_cache, delta, grads)
    return rec, tdc, grads


def train_step(params: net.NetworkParams, batch: TripletSet, config: TrainingConfig,
               state: net.AdamaxState) -> tuple[float, float]:
    """One Adamax update from loss_and_grads, which writes into state.grads;
    returns (rec, tdc) pre-update."""
    rec, tdc, grads = loss_and_grads(params, batch, config, state.grads)
    net.adamax_step(params, grads, state)
    return rec, tdc


def network_specs(config: TrainingConfig) -> list[net.LayerSpec]:
    """The layers train builds for config, and the only layers a checkpoint of it holds."""
    return net.autoencoder_specs(config.input_dim, config.hidden_dim, config.latent_dim)


def train(train_set: TripletSet, val_set: TripletSet,
          config: TrainingConfig) -> tuple[net.NetworkParams, list[EpochStats]]:
    """Train on make_triplets' "train" set of scaled engine runs.

    Fixed epoch count, no early stopping; the losses on the "val" set
    (trailing 10% of normal rows) are logged for reporting only. Triplets
    are reshuffled across engines every epoch with the seeded RNG, so a
    given (config, seed) reproduces the loss history exactly. The sets are
    only read, so one pair serves every seed.
    """
    if len(train_set) == 0:
        raise ValueError("no training triplets available")

    rng = np.random.default_rng(config.seed)
    params = net.init_params(network_specs(config), rng)
    state = net.init_adamax(params, learning_rate=config.learning_rate)

    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_set))
        rec_sum = tdc_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            try:
                rec, tdc = train_step(params, train_set.take(idx), config, state)
            except ValueError as exc:
                raise ValueError(
                    f"epoch {epoch}, batch {start // config.batch_size}: {exc}") from None
            rec_sum += rec * len(idx)
            tdc_sum += tdc * len(idx)
        if len(val_set) > 0:
            val_rec, val_tdc, *_ = _forward(params, val_set, config.dt)
        else:
            val_rec = val_tdc = float("nan")
        history.append(EpochStats(epoch, rec_sum / len(order), tdc_sum / len(order),
                                  val_rec, val_tdc))
    return params, history


LOSS_CSV_HEADER = "epoch,rec_loss,tdc_loss,val_rec_loss,val_tdc_loss"


def write_loss_history(history: list[EpochStats], path) -> None:
    lines = [LOSS_CSV_HEADER]
    for s in history:
        lines.append(f"{s.epoch},{s.rec!r},{s.tdc!r},{s.val_rec!r},{s.val_tdc!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class LatentSeries:
    """Per-timestep latent trajectory split into state and derivative halves."""

    unit_id: int
    z: np.ndarray
    z_dot: np.ndarray

    def __post_init__(self):
        if self.z.shape != self.z_dot.shape:
            raise ValueError("state and derivative halves must share a shape")

    def __len__(self) -> int:
        return self.z.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.z.shape[1]


def infer_latent(params: net.NetworkParams, run: EngineRun) -> LatentSeries:
    """Encode every row of a scaled run; single-step, no temporal context."""
    z, z_dot = net.encode(params, run.features)
    return LatentSeries(unit_id=run.unit_id, z=z, z_dot=z_dot)
