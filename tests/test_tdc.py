import math
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcae import dataio, net, tdc
from tdcae.dataio import EngineRun, normal_row_split

from conftest import fd_grads, max_rel_err, train_on, triplet_set


def constant_runs(n_engines=3, life=60):
    return [EngineRun(unit_id=u, features=np.full((life, 24), 0.2 + 0.1 * u))
            for u in range(n_engines)]


def wavy_runs(n_engines=2, life=60, seed=0):
    rng = np.random.default_rng(seed)
    runs = []
    for u in range(n_engines):
        base = 0.5 + 0.3 * np.sin(0.4 * np.arange(life) + u)[:, None]
        runs.append(EngineRun(unit_id=u, features=base + 0.01 * rng.normal(size=(life, 24))))
    return runs


# --- config -----------------------------------------------------------------------

def test_training_config_defaults():
    cfg = tdc.TrainingConfig()
    assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (50, 32, 0.003)
    assert (cfg.alpha, cfg.latent_dim, cfg.dt) == (100.0, 8, 1.0)


@pytest.mark.parametrize("bad", [
    dict(epochs=0), dict(learning_rate=-1.0), dict(alpha=-5.0),
    dict(latent_dim=7), dict(dt=0.0),
    # widths with no unique bottleneck, or with the output narrower than the latent layer
    dict(hidden_dim=8), dict(latent_dim=26, hidden_dim=32),
])
def test_training_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        tdc.TrainingConfig(**bad)


# --- triplets -----------------------------------------------------------------------

def test_triplet_count_is_range_minus_two():
    # 5 usable rows leave 3 interior points with both neighbors present
    run = EngineRun(unit_id=1, features=np.arange(5 * 24, dtype=float).reshape(5, 24),
                    labels=np.zeros(5, bool))
    batch = tdc.make_triplets([run], "train")
    assert len(batch) == 3


def test_triplets_align_neighbors():
    feats = np.arange(8 * 24, dtype=float).reshape(8, 24)
    run = EngineRun(unit_id=1, features=feats, labels=np.zeros(8, bool))
    batch = tdc.make_triplets([run], "train")
    for i in range(len(batch)):
        assert np.array_equal(batch.prev[i], feats[i])
        assert np.array_equal(batch.cur[i], feats[i + 1])
        assert np.array_equal(batch.nxt[i], feats[i + 2])


def test_taken_sets_share_the_read_only_table_and_gather_fresh_rows():
    feats = np.arange(9 * 24, dtype=float).reshape(9, 24)
    run = EngineRun(unit_id=1, features=feats, labels=np.zeros(9, bool))
    triplets = tdc.make_triplets([run], "train")
    for rows, offset in ((triplets.cur, 1), (triplets.prev, 0), (triplets.nxt, 2)):
        assert np.array_equal(rows, feats[offset:offset + 7])
    idx = np.array([4, 0, 4, 2])
    batch = triplets.take(idx)
    with pytest.raises(ValueError, match="read-only"):
        batch.table[0, 0] = 0.0
    rows = batch.rows
    assert rows.shape == (3, 4, 24)
    assert np.array_equal(rows, np.stack([triplets.cur[idx], triplets.prev[idx],
                                          triplets.nxt[idx]]))
    assert not np.shares_memory(rows, triplets.table)  # a fresh gather
    assert not np.shares_memory(rows, batch.rows)
    assert np.shares_memory(rows.reshape(12, 24), rows)  # no copy per step


def test_a_batch_copies_no_rows():
    triplets = tdc.make_triplets(wavy_runs(), "train")
    idx = np.array([7, 3, 3, 0])
    batch = triplets.take(idx)
    assert isinstance(batch, tdc.TripletSet) and batch.table is triplets.table
    assert np.array_equal(batch.centre, triplets.centre[idx])
    assert np.array_equal(batch.take(np.array([2, 0])).centre, triplets.centre[[3, 7]])


def stacked_triplets(runs, subset="train"):
    """Oracle: make_triplets as it was when it materialised every triplet into
    one [3 x N x d] array of its (t, t-1, t+1) rows."""
    ranges = []
    for run in runs:
        train_rows, val_rows = normal_row_split(run)
        rows = train_rows if subset == "train" else val_rows
        if len(rows) < 3:
            warnings.warn(f"unit {run.unit_id}: {subset} range has {len(rows)} rows, "
                          "too short for triplets; skipped")
            continue
        ranges.append((run.features, rows.start, rows.stop))
    out = np.empty((3, sum(b - a - 2 for _, a, b in ranges),
                    runs[0].features.shape[1] if runs else 0))
    k = 0
    for features, a, b in ranges:
        n = b - a - 2
        out[0, k:k + n] = features[a + 1:b - 1]
        out[1, k:k + n] = features[a:b - 2]
        out[2, k:k + n] = features[a + 2:b]
        k += n
    return StackedTriplets(out)


@dataclass(frozen=True)
class StackedTriplets:
    """The oracle's triplets; take gathers along the triplet axis into a TripletSet."""

    rows: np.ndarray

    def __len__(self):
        return self.rows.shape[1]

    def take(self, idx):
        cur, prev, nxt = self.rows.take(idx, axis=1)
        return triplet_set(prev, cur, nxt)


def ragged_runs(seed=0):
    """Engines of 1 to 90 cycles, several with ranges too short for triplets."""
    rng = np.random.default_rng(seed)
    return [EngineRun(unit_id=u, features=rng.uniform(size=(life, 24)))
            for u, life in enumerate([23, 1, 4, 90, 3, 7, 45, 5, 61])]


def warned(make, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        made = make(*args)
    return made, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("subset", ["train", "val"])
def test_take_gathers_the_oracle_rows_on_ragged_engines(subset):
    runs = ragged_runs()
    triplets, warnings_made = warned(tdc.make_triplets, runs, subset)
    oracle, oracle_warnings = warned(stacked_triplets, runs, subset)
    assert warnings_made == oracle_warnings and len(warnings_made) >= 2
    assert len(triplets) == len(oracle) > 0
    rng = np.random.default_rng(1)
    for idx in (np.arange(len(oracle)), rng.permutation(len(oracle)),
                rng.integers(0, len(oracle), 40), np.array([], dtype=int)):
        assert triplets.take(idx).rows.tobytes() == oracle.rows.take(idx, axis=1).tobytes()
    for name, rows in zip(("cur", "prev", "nxt"), oracle.rows):
        assert getattr(triplets, name).tobytes() == rows.tobytes()


def test_make_triplets_traces_about_one_copy_of_the_rows_it_covers():
    runs = dataio.synthetic_runs(n_engines=40, mean_life=200, seed=4)
    covered = sum(len(normal_row_split(run)[0]) for run in runs) * 24 * 8
    tracemalloc.start()
    try:
        triplets = tdc.make_triplets(runs, "train")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * covered  # the stacked [3 x N x 24] oracle takes 2.95x
    assert triplets.table.nbytes == covered


def test_triplets_never_straddle_engines():
    runs = [EngineRun(unit_id=u, features=np.full((6, 24), float(u)),
                      labels=np.zeros(6, bool)) for u in range(3)]
    batch = tdc.make_triplets(runs, "train")
    assert len(batch) == 3 * 4
    for i in range(len(batch)):
        assert batch.prev[i, 0] == batch.cur[i, 0] == batch.nxt[i, 0]


@settings(max_examples=30, deadline=None)
@given(lives=st.lists(st.integers(1, 80), min_size=1, max_size=6))
def test_triplet_total_sums_per_engine(lives):
    rng = np.random.default_rng(5)
    runs = [EngineRun(unit_id=u, features=rng.uniform(size=(T, 24)))
            for u, T in enumerate(lives)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # engines below 3 train rows skip
        batch = tdc.make_triplets(runs, "train")
    normal = [math.ceil(0.6 * T) for T in lives]
    expected = sum(max(0, n - math.floor(0.1 * n) - 2) for n in normal)
    assert len(batch) == expected


def test_triplets_restricted_to_normal_rows():
    feats = np.zeros((10, 24))
    feats[6:] = 99.0  # anomalous tail must never appear
    run = EngineRun(unit_id=1, features=feats)  # normal_count = 6
    batch = tdc.make_triplets([run], "train")
    assert len(batch) == 4
    assert np.all(batch.nxt < 99.0)


def test_train_subset_excludes_validation_tail():
    run = EngineRun(unit_id=1, features=np.arange(100 * 24, dtype=float).reshape(100, 24))
    # normal_count=60, val tail rows 54..59
    train_batch = tdc.make_triplets([run], "train")
    val_batch = tdc.make_triplets([run], "val")
    assert len(train_batch) == 52 and len(val_batch) == 4
    boundary = run.features[54, 0]
    assert np.all(train_batch.nxt[:, 0] < boundary)
    assert np.all(val_batch.prev[:, 0] >= boundary)


def test_short_range_warns_and_skips():
    run = EngineRun(unit_id=7, features=np.zeros((3, 24)))  # normal_count = 2
    with pytest.warns(UserWarning, match="unit 7"):
        batch = tdc.make_triplets([run], "train")
    assert len(batch) == 0


def test_unknown_subset_rejected():
    with pytest.raises(ValueError, match="subset"):
        tdc.make_triplets(constant_runs(), "test")


# --- losses ------------------------------------------------------------------------

def test_tdc_loss_zero_when_consistent():
    # z moves linearly at slope exactly matching z_dot
    z_prev = np.zeros((4, 4))
    z_next = np.full((4, 4), 2.0)
    z_dot = np.ones((4, 4))
    assert tdc.tdc_loss(z_prev, z_next, z_dot, dt=1.0) == 0.0


def test_tdc_loss_unit_mismatch():
    z = np.zeros((2, 3))
    assert tdc.tdc_loss(z, z + 2.0, np.zeros((2, 3)), dt=1.0) == 1.0


def test_tdc_loss_scales_with_dt():
    z_prev, z_next = np.zeros((1, 2)), np.ones((1, 2))
    zero = np.zeros((1, 2))
    assert tdc.tdc_loss(z_prev, z_next, zero, dt=0.5) == 1.0
    assert tdc.tdc_loss(z_prev, z_next, zero, dt=1.0) == 0.25


def test_central_difference_error_is_second_order():
    # halving the step of a smooth signal shrinks the error ~4x
    f, fdot = lambda t: np.sin(1.3 * t), lambda t: 1.3 * np.cos(1.3 * t)
    errs = []
    for dt in (0.1, 0.05):
        t = np.arange(0.0, 6.0, dt)
        approx = tdc.central_difference(f(t - dt), f(t + dt), dt)
        errs.append(float(np.max(np.abs(approx - fdot(t)))))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_rec_loss_is_mse():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert tdc.rec_loss(a, a) == 0.0
    assert tdc.rec_loss(a + 2.0, a) == 4.0


# --- training ------------------------------------------------------------------------

def test_train_constant_dataset_converges():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, history = train_on(constant_runs(), tdc.TrainingConfig(epochs=150, seed=1))
    assert history[0].rec > 1e-2
    assert history[-1].rec < 1e-3
    assert history[-1].tdc < 1e-4
    assert history[-1].val_rec < 1e-3


def test_train_history_shape_and_epoch_numbers():
    params, history = train_on(wavy_runs(), tdc.TrainingConfig(epochs=5, seed=2))
    assert [s.epoch for s in history] == [1, 2, 3, 4, 5]
    assert all(np.isfinite([s.rec, s.tdc, s.val_rec, s.val_tdc]).all() for s in history)


def test_train_is_deterministic_per_seed():
    cfg = tdc.TrainingConfig(epochs=4, seed=9)
    _, h1 = train_on(wavy_runs(), cfg)
    _, h2 = train_on(wavy_runs(), cfg)
    assert h1 == h2
    _, h3 = train_on(wavy_runs(), tdc.TrainingConfig(epochs=4, seed=10))
    assert h1 != h3


def test_stop_gradient_changes_updates():
    _, full = train_on(wavy_runs(), tdc.TrainingConfig(epochs=3, seed=7))
    _, stopped = train_on(wavy_runs(), tdc.TrainingConfig(epochs=3, seed=7, stop_gradient=True))
    assert full[-1].rec != stopped[-1].rec


def test_alpha_zero_still_reports_tdc_loss():
    _, history = train_on(wavy_runs(), tdc.TrainingConfig(epochs=3, seed=7, alpha=0.0))
    assert history[-1].tdc > 0.0
    _, weighted = train_on(wavy_runs(), tdc.TrainingConfig(epochs=3, seed=7))
    assert weighted[-1].tdc < history[-1].tdc


def test_train_requires_triplets():
    run = EngineRun(unit_id=1, features=np.zeros((3, 24)))
    with pytest.warns(UserWarning):
        empty = tdc.make_triplets([run], "train")
    with pytest.raises(ValueError, match="no training triplets"):
        tdc.train(empty, empty, tdc.TrainingConfig(epochs=1))


def test_non_finite_loss_reports_epoch_and_batch():
    # tanh saturates on the 1e200 inputs; the reconstruction error overflows
    runs = [EngineRun(unit_id=u, features=np.full((60, 24), 1e200)) for u in range(2)]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="epoch 1, batch 0: non-finite loss"):
            train_on(runs, tdc.TrainingConfig(epochs=1))


@pytest.mark.parametrize("overrides", [
    dict(), dict(stop_gradient=True), dict(alpha=0.0),
], ids=["default", "stop_gradient", "alpha_zero"])
def test_train_step_gradient_matches_finite_differences(overrides):
    # the production gradient against the objective it claims to differentiate
    rng = np.random.default_rng(3)
    specs = net.autoencoder_specs(6, 7, 4, n_hidden=1)
    params = net.init_params(specs, rng)
    prev, cur, nxt = rng.uniform(0, 1, (3, 5, 6))
    batch = triplet_set(prev, cur, nxt)
    cfg = replace(tdc.TrainingConfig(epochs=1, alpha=3.0, dt=0.7, input_dim=6, hidden_dim=7,
                                     latent_dim=4), **overrides)
    # stop-gradient: the neighbour latents are constants of the unperturbed net
    zp0, _ = net.encode(params, batch.prev)
    zn0, _ = net.encode(params, batch.nxt)

    def objective(p):
        out, _ = net.forward(p, batch.cur)
        zp, _ = net.encode(p, batch.prev)
        zn, _ = net.encode(p, batch.nxt)
        if cfg.stop_gradient:
            zp, zn = zp0, zn0
        _, zdot = net.encode(p, batch.cur)
        return tdc.rec_loss(out, batch.cur) + cfg.alpha * tdc.tdc_loss(zp, zn, zdot, cfg.dt)

    rec, tdc_value, grads = tdc.loss_and_grads(params, batch, cfg)
    assert rec + cfg.alpha * tdc_value == pytest.approx(objective(params), rel=1e-12)
    assert grads.theta.shape == params.theta.shape

    assert max_rel_err(grads.theta, fd_grads(params, objective)) < 1e-5


# --- the training step: one engine, buffers reused across steps ---------------------------

STEP_CONFIGS = {
    # 62 training triplets per epoch in batches of 8: the last batch of each epoch has 6
    "default": dict(),
    "stop_gradient": dict(stop_gradient=True, alpha=3.0, dt=0.5),
    "alpha_zero": dict(alpha=0.0, dt=2.0),
}


def step_config(name, **overrides):
    return replace(tdc.TrainingConfig(epochs=3, batch_size=8, seed=5),
                   **STEP_CONFIGS[name], **overrides)


def replayed_training(runs, config, step, make_triplets=tdc.make_triplets):
    """tdc.train's parameters and loss history, one step(params, batch, config, state)
    call per batch taken with the triplets' take: the loop bench/replay.py runs."""
    train_set, val_set = make_triplets(runs, "train"), make_triplets(runs, "val")
    rng = np.random.default_rng(config.seed)
    params = net.init_params(net.autoencoder_specs(config.input_dim, config.hidden_dim,
                                                   config.latent_dim), rng)
    state = net.init_adamax(params, learning_rate=config.learning_rate)
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_set))
        rec_sum = tdc_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            rec, tdc_value = step(params, train_set.take(idx), config, state)
            rec_sum += rec * len(idx)
            tdc_sum += tdc_value * len(idx)
        val_rec, val_tdc, *_ = tdc._forward(params, val_set, config.dt)
        history.append(tdc.EpochStats(epoch, rec_sum / len(order), tdc_sum / len(order),
                                      val_rec, val_tdc))
    return params, history


def pre_buffer_loss_and_grads(params, batch, config):
    """Oracle: the training gradient as composed before the step kept buffers --
    np.mean losses, a freshly zeroed gradient per backward, then the merge."""
    b = len(batch)
    n_enc = net.encoder_layer_count(params)
    half = net.latent_dim(params) // 2
    latent, enc_cache = net.forward(params, batch.rows.reshape(3 * b, batch.rows.shape[2]),
                                    n_layers=n_enc)
    out, dec_cache = net.forward(params, latent[:b], start=n_enc)
    e = (tdc.central_difference(latent[b:2 * b, :half], latent[2 * b:, :half], config.dt)
         - latent[:b, half:])
    rec, tdc_value = float(np.mean((out - batch.cur) ** 2)), float(np.mean(e * e))
    dec_grads = net.backward(params, dec_cache, 2.0 * (out - batch.cur) / out.size)
    c = 2.0 * config.alpha / e.size
    delta = np.zeros_like(enc_cache.activations[-1])
    delta[:b] = dec_grads.input_grad
    delta[:b, half:] -= c * e
    if not config.stop_gradient:
        neighbour = c * e / (2.0 * config.dt)
        delta[b:2 * b, :half] = -neighbour
        delta[2 * b:, :half] = neighbour
    grads = net.backward(params, enc_cache, delta)
    grads.theta += dec_grads.theta
    return rec, tdc_value, grads


def pre_buffer_train_step(params, batch, config, state):
    rec, tdc_value, grads = pre_buffer_loss_and_grads(params, batch, config)
    net.adamax_step(params, grads, state)
    return rec, tdc_value


@pytest.mark.parametrize("name", STEP_CONFIGS)
def test_train_is_bitwise_the_replayed_step_loop(name):
    runs, config = wavy_runs(), step_config(name)
    assert len(tdc.make_triplets(runs, "train")) % config.batch_size == 6
    params, history = train_on(runs, config)
    replayed, replayed_history = replayed_training(runs, config, tdc.train_step)
    assert params.theta.tobytes() == replayed.theta.tobytes()
    assert history == replayed_history


@pytest.mark.parametrize("name", STEP_CONFIGS)
def test_train_step_is_bitwise_the_pre_buffer_composition(name):
    runs, config = wavy_runs(), step_config(name)
    params, history = replayed_training(runs, config, tdc.train_step)
    oracle, oracle_history = replayed_training(runs, config, pre_buffer_train_step)
    assert params.theta.tobytes() == oracle.theta.tobytes()
    assert history == oracle_history


@pytest.mark.parametrize("stop_gradient", [False, True], ids=["full", "stop_gradient"])
def test_train_is_bitwise_training_on_the_oracle_triplets(stop_gradient):
    runs = ragged_runs(seed=2)
    config = step_config("default", stop_gradient=stop_gradient)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ragged engines' short ranges
        params, history = train_on(runs, config)
        oracle, oracle_history = replayed_training(runs, config, tdc.train_step,
                                                   stacked_triplets)
    assert params.theta.tobytes() == oracle.theta.tobytes()
    assert history == oracle_history


def test_interleaved_trainings_share_no_buffers():
    # one pair of sets serves every seed, as in cli.cmd_train
    runs = wavy_runs()
    sets = tdc.make_triplets(runs, "train"), tdc.make_triplets(runs, "val")
    a, b = step_config("default", seed=1), step_config("stop_gradient", seed=2)
    first, first_history = tdc.train(*sets, a)
    tdc.train(*sets, b)
    again, again_history = tdc.train(*sets, a)
    fresh, fresh_history = train_on(runs, a)
    for params in (again, fresh):
        assert first.theta.tobytes() == params.theta.tobytes()
    assert first_history == again_history == fresh_history


def test_train_step_writes_the_gradient_its_state_keeps():
    runs, config = wavy_runs(), step_config("default")
    batch = tdc.make_triplets(runs, "train").take(np.arange(8))
    params = net.init_params(net.autoencoder_specs(), np.random.default_rng(0))
    state = net.init_adamax(params)
    buffer = state.grads.theta
    _, _, fresh = tdc.loss_and_grads(params, batch, config)
    tdc.train_step(params, batch, config, state)
    assert state.grads.theta is buffer
    assert np.array_equal(buffer, fresh.theta)


def assert_step_rejected(params, batch, config, state, match):
    before = [params.theta.copy(), state.m.copy(), state.u.copy(), state.step_count]
    with pytest.raises(ValueError, match=match):
        tdc.train_step(params, batch, config, state)
    after = [params.theta, state.m, state.u, state.step_count]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_rejected_steps_leave_params_and_state_untouched():
    runs, config = wavy_runs(), step_config("default", alpha=1e6)
    train_set = tdc.make_triplets(runs, "train")
    params = net.init_params(net.autoencoder_specs(), np.random.default_rng(0))
    state = net.init_adamax(params)
    for k in range(3):  # accumulators and step count away from their initial zeros
        tdc.train_step(params, train_set.take(np.arange(8 * k, 8 * k + 8)), config, state)

    batch = train_set.take(np.arange(8))
    with np.errstate(over="ignore", invalid="ignore"):
        huge = triplet_set(*np.full(batch.rows.shape, 1e200))
        assert_step_rejected(params, huge, config, state, "non-finite loss")
        # feature 0 of the neighbour rows is huge but meets only zero weights: the
        # loss stays finite while the first layer's weight gradient overflows
        cur, prev, nxt = batch.rows
        prev[:, 0] = nxt[:, 0] = 1.7e308
        overflowing = triplet_set(prev, cur, nxt)
        params.weights[0][:, 0] = 0.0
        rec, tdc_value, grads = tdc.loss_and_grads(params, overflowing, config)
        assert math.isfinite(rec + config.alpha * tdc_value)
        assert not np.isfinite(grads.theta).all()
        assert_step_rejected(params, overflowing, config, state, "non-finite")


# --- loss history / inference ---------------------------------------------------------

def test_loss_csv_round_trips(tmp_path):
    history = [tdc.EpochStats(1, 0.1, 0.2, 0.3, 0.4),
               tdc.EpochStats(2, 1 / 3, 2 / 3, 0.05, float("nan"))]
    path = tmp_path / "loss.csv"
    tdc.write_loss_history(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == tdc.LOSS_CSV_HEADER
    assert lines[1] == "1,0.1,0.2,0.3,0.4"
    fields = lines[2].split(",")
    assert float(fields[1]) == 1 / 3 and math.isnan(float(fields[4]))


def test_infer_latent_shapes_and_split():
    rng = np.random.default_rng(4)
    params = net.init_params(net.autoencoder_specs(), rng)
    run = EngineRun(unit_id=3, features=rng.uniform(0, 1, (17, 24)))
    series = tdc.infer_latent(params, run)
    assert series.unit_id == 3
    assert series.z.shape == series.z_dot.shape == (17, 4)
    assert series.n_pairs == 4 and len(series) == 17
    full, _ = net.forward(params, run.features, n_layers=net.encoder_layer_count(params))
    assert np.array_equal(series.z, full[:, :4])
    assert np.array_equal(series.z_dot, full[:, 4:])


def test_infer_latent_single_row():
    # inference needs no temporal context
    rng = np.random.default_rng(6)
    params = net.init_params(net.autoencoder_specs(), rng)
    run = EngineRun(unit_id=1, features=rng.uniform(0, 1, (1, 24)))
    series = tdc.infer_latent(params, run)
    assert len(series) == 1
