"""Shared fixtures: surrogate data, a small trained model, optional real data,
the finite-difference gradient every gradient test compares against, a
TripletSet built from explicit rows, training on a list of runs, and the
per-engine eta that the latent-consistency tests check.

HYPOTHESIS_PROFILE=ci runs each property test that sets no max_examples of
its own on 1000 examples instead of 100, with no deadline; CI selects it.

The real turbofan files are looked up via the CMAPSS_DATA environment
variable or a data/ directory next to the package; data-dependent tests
skip with a notice when the files are absent.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tdcae import dataio, diagnostics, tdc


settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# JSON values to put where outside input holds a number: nothing but -1 and 0.5
# is a finite float64 number, and a bool, a string or 10**400 is not one
JSON_DRAWS = [None, True, False, "x", "0.5", 10 ** 400, -1, 0.5, [], {}]


def cmapss_file(subset: str) -> Path | None:
    candidates = []
    env = os.environ.get("CMAPSS_DATA")
    if env:
        candidates.append(Path(env))
    candidates += [Path("data"), Path(__file__).resolve().parent.parent / "data"]
    for root in candidates:
        path = root / f"train_{subset}.txt"
        if path.is_file():
            return path
    return None


def require_cmapss(subset: str) -> Path:
    path = cmapss_file(subset)
    if path is None:
        pytest.skip(f"train_{subset}.txt not found (set CMAPSS_DATA or add data/); "
                    "skipping data-dependent check")
    return path


def fd_grads(params, loss_fn, h=1e-5) -> np.ndarray:
    """Central differences of loss_fn(params) in each entry of params.theta.

    Returns a flat vector in theta's layout; compare it with the theta of
    an analytic net.Gradients.
    """
    theta = params.theta
    grads = np.empty_like(theta)
    for i in range(theta.size):
        old = theta[i]
        theta[i] = old + h
        up = loss_fn(params)
        theta[i] = old - h
        down = loss_fn(params)
        theta[i] = old
        grads[i] = (up - down) / (2 * h)
    return grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest entrywise |a - n| / max(1e-4, |a|, |n|) of two flat gradients."""
    denom = np.maximum(1e-4, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def triplet_set(prev, cur, nxt) -> tdc.TripletSet:
    """The triplets of explicit [B x d] rows at t-1, t and t+1, as a real TripletSet:
    an interleaved [prev; cur; nxt] table, triplet k centred on table row 3k + 1."""
    table = np.stack([prev, cur, nxt], axis=1).reshape(-1, np.shape(cur)[-1])
    table.flags.writeable = False
    return tdc.TripletSet(table, 3 * np.arange(len(cur)) + 1)


def train_on(runs, config):
    """tdc.train on the "train" and "val" triplet sets of scaled runs, as train builds them."""
    return tdc.train(tdc.make_triplets(runs, "train"), tdc.make_triplets(runs, "val"), config)


def eta_per_engine(latent, window=None) -> float:
    """Mean eta across the latent pairs of one engine, over window (start, stop),
    by default the whole series: nan if a pair's channel is constant there."""
    if window is None:
        window = (0, len(latent))
    rows = diagnostics.eta_table([latent], [window])
    return float(np.mean(np.array([row["mean"] for row in rows], dtype=float)))  # None -> nan


@pytest.fixture(scope="session")
def surrogate_runs():
    return dataio.synthetic_runs(n_engines=8, mean_life=90, seed=11)


@pytest.fixture(scope="session")
def trained_setup(surrogate_runs):
    """Small end-to-end training: (params, history, scaler, split, runs, config)."""
    split = dataio.split_engines(surrogate_runs, 0.25, seed=5)
    train_runs = [r for r in surrogate_runs if r.unit_id in split.train_engines]
    scaler = dataio.fit_scaler(train_runs)
    scaled = [dataio.apply_scaler(r, scaler) for r in train_runs]
    config = tdc.TrainingConfig(epochs=12, seed=3)
    params, history = train_on(scaled, config)
    return params, history, scaler, split, surrogate_runs, config
