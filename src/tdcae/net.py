"""Minimal dense feed-forward engine: exact backprop, Adamax, Jacobians.

Everything is float64. The autoencoder this was sized for is the hourglass
24-24-24-8-24-24-24 (6 dense layers, tanh hidden and latent, identity
output), but the engine is shape-agnostic so tests can run micro-nets.

The latent layer of an hourglass network is located structurally: it is the
unique narrowest layer output. Its vector is interpreted as state/derivative
channel pairs: entry i is a state z_i, entry i + n/2 its derivative.

All weights and biases are views into one flat float64 vector, theta (per
layer: the weight matrix row-major, then the bias). backward() writes its
gradient into a vector of the same layout, so an Adamax step on theta and
its two theta-shaped accumulators is four vector operations.

forward() and backward() work on any contiguous range of layers, so a loss
on the latent layer is added between a decoder backward and an encoder
backward rather than hooked into one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .dataio import DatasetSplit, ScalerParams, atomic_write_text, naming, read_json

ACTIVATIONS = ("tanh", "identity")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class NetworkParams:
    """Ordered dense layers: weight matrices [out x in] and bias vectors [out].

    The constructor copies them into the flat vector theta and rebinds them as
    tuples of views into it, so no layer can be replaced apart from theta.
    """

    specs: list[LayerSpec]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    theta: np.ndarray = field(init=False, repr=False)
    # per layer: (weight start, bias start, bias end) offsets into theta
    _offsets: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)
    # encoder_depth(specs): 0 if there is no unique bottleneck
    _encoder_depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.specs) == len(self.weights) == len(self.biases)):
            raise ValueError("specs/weights/biases length mismatch")
        for spec, w, b in zip(self.specs, self.weights, self.biases):
            if np.shape(w) != (spec.out_dim, spec.in_dim) or np.shape(b) != (spec.out_dim,):
                raise ValueError(f"parameter shape mismatch for spec {spec}")
        for prev, cur in zip(self.specs, self.specs[1:]):
            if prev.out_dim != cur.in_dim:
                raise ValueError("consecutive layers are dimension-incompatible")
        self.theta = np.concatenate([np.asarray(a, dtype=np.float64).ravel()
                                     for pair in zip(self.weights, self.biases) for a in pair])
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("non-finite parameter entries")
        offsets, start = [], 0
        for spec in self.specs:
            bias = start + spec.out_dim * spec.in_dim
            offsets.append((start, bias, bias + spec.out_dim))
            start = bias + spec.out_dim
        self._offsets = tuple(offsets)
        views = [self.layer_views(self.theta, l) for l in range(self.n_layers)]
        self.weights = tuple(w for w, _ in views)
        self.biases = tuple(b for _, b in views)
        self._encoder_depth = encoder_depth(self.specs)

    @property
    def n_layers(self) -> int:
        return len(self.specs)

    @property
    def input_dim(self) -> int:
        return self.specs[0].in_dim

    def layer_views(self, vector: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Layer l's (weight [out x in], bias [out]) as views into a theta-shaped vector."""
        w0, b0, b1 = self._offsets[l]
        spec = self.specs[l]
        return vector[w0:b0].reshape(spec.out_dim, spec.in_dim), vector[b0:b1]

    def copy(self) -> "NetworkParams":
        return NetworkParams(specs=self.specs, weights=self.weights, biases=self.biases)


def autoencoder_specs(input_dim: int = 24, hidden_dim: int = 24, latent_dim: int = 8,
                      n_hidden: int = 2) -> list[LayerSpec]:
    """Hourglass layer specs, e.g. defaults give 24-24-24-8-24-24-24.

    Hidden and latent layers use tanh; the output layer is identity so that
    reconstructions of out-of-range (degraded) inputs are not clipped.
    """
    dims = [input_dim] + [hidden_dim] * n_hidden + [latent_dim] + [hidden_dim] * n_hidden + [input_dim]
    specs = [LayerSpec(a, b, "tanh") for a, b in zip(dims[:-2], dims[1:-1])]
    specs.append(LayerSpec(dims[-2], dims[-1], "identity"))
    return specs


def encoder_depth(specs: list[LayerSpec]) -> int:
    """Layers up to and including the unique narrowest output, 0 if there is none."""
    out_dims = [s.out_dim for s in specs]
    narrowest = min(out_dims)
    return out_dims.index(narrowest) + 1 if out_dims.count(narrowest) == 1 else 0


def encoder_layer_count(params: NetworkParams) -> int:
    """Number of layers up to and including the (unique) bottleneck."""
    if not params._encoder_depth:
        raise ValueError("network has no unique bottleneck layer")
    return params._encoder_depth


def latent_dim(params: NetworkParams) -> int:
    return params.specs[encoder_layer_count(params) - 1].out_dim


def _paired_latent_dim(params: NetworkParams) -> int:
    """latent_dim, which must be even: latent node i pairs with node i + n/2."""
    n = latent_dim(params)
    if n % 2 != 0:
        raise ValueError(f"latent dimension {n} must be even to form state-derivative pairs")
    return n


def init_params(specs: list[LayerSpec], rng: np.random.Generator) -> NetworkParams:
    """Glorot-uniform weights (scale-balanced for tanh), zero biases."""
    weights, biases = [], []
    for spec in specs:
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        weights.append(rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim)))
        biases.append(np.zeros(spec.out_dim))
    return NetworkParams(specs=specs, weights=weights, biases=biases)


@dataclass
class ForwardCache:
    """The input and the post-activation of each layer run from `start`, kept 2-D [B x dim]."""

    activations: list[np.ndarray]
    start: int
    squeeze: bool


@dataclass
class Gradients:
    """dLoss/dtheta in the layout of NetworkParams.theta, plus dLoss/d(cache input).

    backward() writes each covered layer's dW and db through `layers`, the
    per-layer (dW, db) views into theta that zero_gradients() makes. input_grad
    is shaped like the cache input; it is what a preceding stack of layers
    needs as its output_grad.
    """

    theta: np.ndarray
    input_grad: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]


def zero_gradients(params: NetworkParams) -> Gradients:
    """A zeroed theta-shaped gradient with its per-layer (dW, db) views."""
    theta = np.zeros_like(params.theta)
    layers = tuple(params.layer_views(theta, l) for l in range(params.n_layers))
    return Gradients(theta, np.zeros(0), layers)


def forward(params: NetworkParams, x: np.ndarray, n_layers: int | None = None,
            start: int = 0) -> tuple[np.ndarray, ForwardCache]:
    """Run layers start..n_layers-1 (default: all) on x, which may be [d] or [B x d].

    Returns (output, cache); the cache feeds backward(). tanh derivatives are
    recovered from post-activations, so pre-activations are not stored.
    Products use ndarray.dot, which makes the BLAS call `@` makes on these
    2-D operands (bitwise the same result) with less work per call.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    n_layers = params.n_layers if n_layers is None else n_layers
    if not 0 <= start < n_layers <= params.n_layers:
        raise ValueError("layer range out of bounds")
    if x.shape[1] != params.specs[start].in_dim:
        raise ValueError(f"input dim {x.shape[1]} != layer {start} input dim "
                         f"{params.specs[start].in_dim}")

    activations = [x]
    y = x
    for l in range(start, n_layers):
        y = y.dot(params.weights[l].T)
        y += params.biases[l]
        if params.specs[l].activation == "tanh":
            np.tanh(y, out=y)
        activations.append(y)
    cache = ForwardCache(activations=activations, start=start, squeeze=squeeze)
    return (y[0] if squeeze else y), cache


def backward(params: NetworkParams, cache: ForwardCache, output_grad: np.ndarray,
             grads: Gradients | None = None) -> Gradients:
    """Exact reverse-mode gradients for the layers covered by the cache.

    output_grad is dLoss/d(post-activation of the last cached layer), shaped
    like that activation. Each covered layer's dW and db are written into its
    slices of grads.theta, and grads.input_grad is replaced; the other slices
    are left as they are. grads defaults to zero_gradients(params); a
    training step passes the one its AdamaxState keeps. A loss on an inner
    layer is handled by splitting the network there: backward() the outer
    part, add the inner loss gradient to its input_grad, and pass the sum to
    backward() of the inner part's cache with the same grads. The two parts
    cover disjoint slices, so grads.theta is then the whole network's
    gradient.
    """
    output_grad = np.asarray(output_grad, dtype=np.float64)
    if cache.squeeze and output_grad.ndim == 1:
        output_grad = output_grad[None, :]
    if output_grad.shape != cache.activations[-1].shape:
        raise ValueError("output_grad shape does not match cached output")

    if grads is None:
        grads = zero_gradients(params)
    delta = output_grad
    for i in range(len(cache.activations) - 2, -1, -1):
        l = cache.start + i
        if params.specs[l].activation == "tanh":
            y = cache.activations[i + 1]
            pre_grad = y * y
            np.subtract(1.0, pre_grad, out=pre_grad)
            pre_grad *= delta
        else:
            pre_grad = delta
        dw, db = grads.layers[l]
        pre_grad.T.dot(cache.activations[i], out=dw)
        np.add.reduce(pre_grad, axis=0, out=db)
        delta = pre_grad.dot(params.weights[l])
    grads.input_grad = delta[0] if cache.squeeze else delta
    return grads


def encode(params: NetworkParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encoder-only pass split into (state z, derivative z_dot) halves.

    The latent pairing is (i, i + n/2); an odd latent width is a
    configuration error.
    """
    n_enc = encoder_layer_count(params)
    n = _paired_latent_dim(params)
    latent, _ = forward(params, x, n_layers=n_enc)
    half = n // 2
    return latent[..., :half], latent[..., half:]


def encoder_jacobian_batch(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Encoder Jacobians dz/dx for a batch of inputs, [B x n x k].

    Reverse mode: each sample's n bottleneck rows start as the last layer's
    weights scaled by its tanh slopes, and every earlier layer is one
    [B*n x out] @ [out x in] product, so the products carry n rows per
    sample rather than k input columns.
    """
    x = np.asarray(x, dtype=np.float64)
    n_layers = encoder_layer_count(params)
    _, cache = forward(params, x, n_layers=n_layers)
    slopes = [1.0 - y * y if spec.activation == "tanh" else None
              for spec, y in zip(params.specs[:n_layers], cache.activations[1:])]
    B, last = len(x), n_layers - 1
    W = params.weights[last]
    J = np.repeat(W[None], B, axis=0) if slopes[last] is None else slopes[last][:, :, None] * W
    n = W.shape[0]
    for l in reversed(range(last)):
        if slopes[l] is not None:
            J *= slopes[l][:, None, :]
        J = J.reshape(B * n, -1).dot(params.weights[l]).reshape(B, n, -1)
    return J


# --- Adamax ------------------------------------------------------------------

ADAMAX_BETA1 = 0.9
ADAMAX_BETA2 = 0.999
ADAMAX_EPS = 1e-8


@dataclass
class AdamaxState:
    """First-moment and infinity-norm accumulators, each shaped like theta,
    and the gradient buffer that backward() writes on every training step."""

    learning_rate: float
    m: np.ndarray
    u: np.ndarray
    grads: Gradients
    step_count: int = 0


def init_adamax(params: NetworkParams, learning_rate: float = 0.003) -> AdamaxState:
    return AdamaxState(learning_rate=learning_rate, m=np.zeros_like(params.theta),
                       u=np.zeros_like(params.theta), grads=zero_gradients(params))


def adamax_step(params: NetworkParams, grads: Gradients, state: AdamaxState) -> None:
    """One Adamax update of theta from the theta-shaped grads.theta, in place:

        m <- b1*m + (1-b1)*g;  u <- max(b2*u, |g|)
        theta <- theta - lr/(1 - b1^t) * m / (u + eps)

    with b1, b2 and eps the ADAMAX_* constants. A non-finite or mis-sized
    gradient rejects the step before any state is touched.
    """
    g = grads.theta
    if g.shape != params.theta.shape or not np.isfinite(g).all():
        raise ValueError("non-finite or mis-sized gradient; step rejected")
    state.step_count += 1
    scale = state.learning_rate / (1.0 - ADAMAX_BETA1**state.step_count)
    state.m *= ADAMAX_BETA1
    state.m += (1.0 - ADAMAX_BETA1) * g
    np.maximum(ADAMAX_BETA2 * state.u, np.abs(g), out=state.u)
    params.theta -= scale * state.m / (state.u + ADAMAX_EPS)


# --- checkpoint format --------------------------------------------------------

CHECKPOINT_FORMAT = "tdcae-checkpoint"
CHECKPOINT_VERSION = 1


CHECKPOINT_FIELDS = ("specs", "weights", "biases", "scaler", "split", "training_config")
# the JSON values a training_config field of each annotated type takes: a bool is no number
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,)}


def save_checkpoint(path: str | Path, params: NetworkParams, *, seed: int,
                    scaler: ScalerParams, split: DatasetSplit, training_config: dict) -> None:
    """Write params with the scaler, split and training config they were trained with.

    training_config is asdict() of a tdc.TrainingConfig. Floats round-trip
    exactly via repr.
    """
    atomic_write_text(path, json.dumps({
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "specs": [[s.in_dim, s.out_dim, s.activation] for s in params.specs],
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "seed": seed,
        "scaler": {"min": scaler.minimum.tolist(), "max": scaler.maximum.tolist()},
        "split": {"train_engines": sorted(split.train_engines),
                  "test_engines": sorted(split.test_engines)},
        "training_config": training_config,
    }, indent=1, allow_nan=False))


def load_checkpoint(path: str | Path) -> dict:
    """Load and check a checkpoint; returns its seed, params, scaler, split and
    training_config.

    Every field in CHECKPOINT_FIELDS must be present and valid. The network's
    layers are tdc.network_specs of 'training_config', which must build a
    tdc.TrainingConfig; the stored 'specs' must list those layers and
    'weights' and 'biases' must have their shapes. 'scaler' and 'split' come
    back as ScalerParams and DatasetSplit, 'training_config' as the stored
    dict. Any error is a ValueError naming the file and the field.
    """
    payload = read_json(path)
    with naming(path):
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
        missing = [key for key in CHECKPOINT_FIELDS if payload.get(key) is None]
        if missing:
            raise ValueError(f"checkpoint lacks {', '.join(missing)}")
        with naming("training_config"):
            specs = _checkpoint_layers(payload["training_config"])
        stored = json.dumps(payload["specs"])  # as text, so a 3.0 or a true is no width
        derived = json.dumps([[s.in_dim, s.out_dim, s.activation] for s in specs])
        if stored != derived:
            raise ValueError(f"specs: stored {stored} are not {derived}, the layers "
                             "training_config describes")
        weights = _checkpoint_arrays("weights", payload["weights"],
                                     [(s.out_dim, s.in_dim) for s in specs])
        biases = _checkpoint_arrays("biases", payload["biases"], [(s.out_dim,) for s in specs])
        params = NetworkParams(specs=specs, weights=weights, biases=biases)
        with naming("scaler"):
            entry = payload["scaler"]
            if not (isinstance(entry, dict) and isinstance(entry.get("min"), list)
                    and isinstance(entry.get("max"), list)):
                raise ValueError(f"expected lists min and max, got {entry!r}")
            scaler = ScalerParams(minimum=_json_numbers(entry["min"]),
                                  maximum=_json_numbers(entry["max"]))
        if scaler.minimum.shape != (params.input_dim,):
            raise ValueError(f"scaler width {scaler.minimum.shape[0]} "
                             f"!= network input dim {params.input_dim}")
        with naming("split"):
            entry, keys = payload["split"], ("train_engines", "test_engines")
            if not (isinstance(entry, dict)
                    and all(isinstance(entry.get(k), list) and all(type(u) is int for u in entry[k])
                            for k in keys)):
                raise ValueError("expected integer lists train_engines and "
                                 f"test_engines, got {entry!r}")
            split = DatasetSplit(*(frozenset(entry[k]) for k in keys))
    return {"seed": payload.get("seed"), "params": params, "scaler": scaler, "split": split,
            "training_config": payload["training_config"]}


def _json_numbers(value) -> np.ndarray:
    """Nested lists of JSON numbers as float64; a bool, a string or null is no number."""
    cells = np.array(value, dtype=object)
    bad = [v for v in cells.flat if type(v) not in (int, float)]
    if bad:
        raise ValueError(f"expected numbers, got {bad[0]!r}")
    return cells.astype(np.float64)  # OverflowError beyond float64's range


def _checkpoint_arrays(key: str, entry, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """A checkpoint's weights or biases as finite arrays of the layers' shapes;
    errors name the entry."""
    if not isinstance(entry, list) or len(entry) != len(shapes):
        got = f"{len(entry)}" if isinstance(entry, list) else f"{entry!r}"
        raise ValueError(f"{key}: expected a list of {len(shapes)} arrays, got {got}")
    arrays = []
    for k, (value, shape) in enumerate(zip(entry, shapes)):
        with naming(f"{key}[{k}]"):
            array = _json_numbers(value)
            if array.shape != shape or not np.all(np.isfinite(array)):
                raise ValueError(f"expected finite numbers of shape {shape}")
        arrays.append(array)
    return arrays


def _checkpoint_layers(entry) -> list[LayerSpec]:
    """The layers of the checkpoint's training config, once every tdc.TrainingConfig
    field is present with a JSON value of its annotated type and the dataclass
    accepts them.

    A missing field fails rather than taking its default, which would pass
    off a config the network was not trained with.
    """
    from .tdc import TrainingConfig, network_specs  # tdc imports this module

    if not isinstance(entry, dict):
        raise ValueError(f"expected an object, got {entry!r}")
    hints = get_type_hints(TrainingConfig)
    missing = [name for name in hints if name not in entry]
    if missing:
        raise ValueError(f"lacks {', '.join(missing)}")
    for name, kind in hints.items():
        with naming(name):
            if type(entry[name]) not in _JSON_TYPES[kind]:
                raise ValueError(f"expected {kind.__name__}, got {entry[name]!r}")
            float(entry[name])  # OverflowError beyond float64's range
    return network_specs(TrainingConfig(**entry))

