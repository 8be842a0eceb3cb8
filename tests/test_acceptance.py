"""Acceptance gate: ten go/no-go checks, one line of verdict each.

Each test prints exactly one [PASS]/[FAIL] line; data-dependent checks
print a [SKIP] line instead when the turbofan files are absent (set
CMAPSS_DATA or place train_FD001.txt / train_FD003.txt under data/).
"""

import time

import numpy as np
import pytest

from tdcae import dataio, detector, diagnostics, net, pendulum, tdc

from conftest import (cmapss_file, eta_per_engine, fd_grads, max_rel_err, train_on,
                      triplet_set)


def criterion(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def skip_criterion(num, missing):
    msg = (f"criterion {num}: {missing} not found "
           "(set CMAPSS_DATA or add data/); skipping data-dependent check")
    print(f"[SKIP] {msg}")
    pytest.skip(msg)


# --- 1: gradient correctness ------------------------------------------------------

def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    worst = 0.0
    for _ in range(100):
        w_in = int(rng.integers(3, 9))
        w_hidden = int(rng.integers(3, 9))
        latent = 4 if min(w_in, w_hidden) > 4 else 2
        n_hidden = int(rng.integers(0, 2))  # 2 or 4 layers
        params = net.init_params(net.autoencoder_specs(w_in, w_hidden, latent,
                                                       n_hidden=n_hidden), rng)
        x = rng.uniform(-1, 1, (4, w_in))
        target = rng.uniform(-1, 1, (4, w_in))

        # plain backprop on reconstruction MSE
        out, cache = net.forward(params, x)
        analytic = net.backward(params, cache, 2.0 * (out - target) / out.size)
        worst = max(worst, max_rel_err(analytic.theta, fd_grads(
            params, lambda p: float(np.mean((net.forward(p, x)[0] - target) ** 2)))))

        # the production gradient of the full objective, consistency term included
        cfg = tdc.TrainingConfig(alpha=2.5, dt=0.5, input_dim=w_in, hidden_dim=w_hidden,
                                 latent_dim=latent)
        prev, cur, nxt = rng.uniform(-1, 1, (3, 3, w_in))
        batch = triplet_set(prev, cur, nxt)

        def objective(p):
            o, _ = net.forward(p, batch.cur)
            zp, _ = net.encode(p, batch.prev)
            zn, _ = net.encode(p, batch.nxt)
            _, zdot = net.encode(p, batch.cur)
            return tdc.rec_loss(o, batch.cur) + cfg.alpha * tdc.tdc_loss(zp, zn, zdot, cfg.dt)

        _, _, analytic = tdc.loss_and_grads(params, batch, cfg)
        worst = max(worst, max_rel_err(analytic.theta, fd_grads(params, objective)))
    elapsed = time.monotonic() - started
    criterion(1, worst < 1e-5 and elapsed < 30.0,
              f"100 micro-nets, max rel err {worst:.2e} (< 1e-5), {elapsed:.1f} s (< 30 s)")


# --- 2: central-difference order --------------------------------------------------

def test_criterion_02_central_difference_order():
    errs = []
    for dt in (0.1, 0.05):
        t = np.arange(0.0, 6.0, dt)
        approx = tdc.central_difference(np.sin(1.3 * (t - dt)), np.sin(1.3 * (t + dt)), dt)
        errs.append(float(np.max(np.abs(approx - 1.3 * np.cos(1.3 * t)))))
    ratio = errs[0] / errs[1]
    criterion(2, 3.5 <= ratio <= 4.5,
              f"sin(1.3t) halved-step error ratio {ratio:.3f} in [3.5, 4.5]")


# --- 3: integrator order and drift escape ------------------------------------------

def test_criterion_03_integrator_order_and_escape():
    def endpoint(dt):
        cfg = pendulum.PendulumConfig(gamma=0.0, amplitude=0.0, drift_alpha=0.0,
                                      drift_beta=0.0, dt=dt, t_end=10.0, theta0=0.5)
        return pendulum.simulate(cfg).theta[-1]

    reference = endpoint(0.01 / 8)
    ratio = abs(endpoint(0.02) - reference) / abs(endpoint(0.01) - reference)

    driven = pendulum.simulate(pendulum.PendulumConfig(drift_alpha=0.0, drift_beta=0.0,
                                                       dt=0.01, t_end=250.0))
    early_max = max(np.abs(driven.theta[driven.t <= 100.0]).max(),
                    np.abs(driven.theta_dot[driven.t <= 100.0]).max())
    late_max = max(np.abs(driven.theta[driven.t > 100.0]).max(),
                   np.abs(driven.theta_dot[driven.t > 100.0]).max())
    bounded = late_max <= 1.05 * early_max

    drifted = pendulum.simulate(pendulum.PendulumConfig(dt=0.01, t_end=250.0))
    early = drifted.t <= 20.0
    box = (drifted.theta[early].min(), drifted.theta[early].max(),
           drifted.theta_dot[early].min(), drifted.theta_dot[early].max())
    outside = ((drifted.theta < box[0]) | (drifted.theta > box[1])
               | (drifted.theta_dot < box[2]) | (drifted.theta_dot > box[3]))
    escape_t = float(drifted.t[np.argmax(outside)]) if outside.any() else float("inf")

    criterion(3, 14.0 <= ratio <= 18.0 and bounded and escape_t <= 200.0,
              f"endpoint ratio {ratio:.2f} in [14, 18]; driven case bounded "
              f"(late/early max {late_max / early_max:.3f}); drift escape at "
              f"t = {escape_t:.1f} s (<= 200 s)")


# --- 4: dimension estimator oracles --------------------------------------------------

def test_criterion_04_dimension_estimators():
    started = time.monotonic()
    rng = np.random.default_rng(1004)
    two_nn = {}
    for d in (1, 2):
        frame, _ = np.linalg.qr(rng.normal(size=(24, d)))
        pts = rng.uniform(size=(5000, d)) @ frame.T + rng.normal(size=24)
        two_nn[d] = diagnostics.two_nn_dimension(pts).value

    segment = np.column_stack([rng.uniform(size=5000), np.zeros(5000)])
    seg_slope = diagnostics.box_counting_dimension(segment).value
    square = rng.uniform(size=(50_000, 2))
    sq_slope = diagnostics.box_counting_dimension(square).value
    elapsed = time.monotonic() - started

    ok = (abs(two_nn[1] - 1.0) <= 0.2 and abs(two_nn[2] - 2.0) <= 0.2
          and abs(seg_slope - 1.0) <= 0.1 and abs(sq_slope - 2.0) <= 0.2
          and elapsed < 60.0)
    criterion(4, ok,
              f"two-NN 1-D {two_nn[1]:.3f} (+/-0.2), 2-D {two_nn[2]:.3f} (+/-0.2); "
              f"box slope segment {seg_slope:.3f} (+/-0.1), square {sq_slope:.3f} "
              f"(+/-0.2); {elapsed:.1f} s (< 60 s)")


# --- real-data pipeline (criteria 5-9) -------------------------------------------------

_CACHE = {}

TABLE_METRICS = {
    "FD001": {"accuracy": 0.9649, "precision": 0.9595, "recall": 0.9518, "f1": 0.9556},
    "FD003": {"accuracy": 0.9484, "precision": 0.9381, "recall": 0.9316, "f1": 0.9349},
}


def _scaled_normal_runs(subset):
    """All engines of a subset, min-max scaled on pooled normal rows."""
    key = ("scaled", subset)
    if key not in _CACHE:
        runs = dataio.parse_cmapss(cmapss_file(subset))
        scaler = dataio.fit_scaler(runs)
        _CACHE[key] = [dataio.apply_scaler(r, scaler) for r in runs]
    return _CACHE[key]


def _trained_pipeline(subset, n_seeds=5):
    """Split, scale, train n_seeds models, score each on the test engines."""
    key = ("pipeline", subset)
    if key in _CACHE:
        return _CACHE[key]
    runs = dataio.parse_cmapss(cmapss_file(subset))
    split = dataio.split_engines(runs, 0.2, seed=5)
    train_runs = [r for r in runs if r.unit_id in split.train_engines]
    test_runs = [r for r in runs if r.unit_id in split.test_engines]
    scaler = dataio.fit_scaler(train_runs)
    scaled_train = [dataio.apply_scaler(r, scaler) for r in train_runs]
    scaled_test = [dataio.apply_scaler(r, scaler) for r in test_runs]
    det_cfg = detector.DetectorConfig()

    models = []
    for seed in range(n_seeds):
        started = time.monotonic()
        params, history = train_on(scaled_train, tdc.TrainingConfig(seed=seed))
        seconds = time.monotonic() - started
        latents_train = [tdc.infer_latent(params, r) for r in scaled_train]
        thresholds = detector.fit_thresholds(
            [detector.normalize_stream(lat, det_cfg) for lat in latents_train], det_cfg)
        latents_test = [tdc.infer_latent(params, r) for r in scaled_test]
        _, summary = detector.run_detector(latents_test, test_runs, thresholds, det_cfg)
        models.append({"seed": seed, "params": params, "history": history,
                       "seconds": seconds, "metrics": summary})
    _CACHE[key] = {
        "models": models, "split": split, "scaler": scaler, "det_cfg": det_cfg,
        "train_runs": train_runs, "test_runs": test_runs,
        "scaled_train": scaled_train, "scaled_test": scaled_test,
    }
    return _CACHE[key]


def _best_model(pipeline):
    return max(pipeline["models"], key=lambda m: m["metrics"].f1)


def test_criterion_05_intrinsic_dimension_of_real_data():
    expected = {"FD001": 4.93, "FD003": 4.83}
    available = [s for s in expected if cmapss_file(s) is not None]
    if not available:
        skip_criterion(5, "train_FD001.txt / train_FD003.txt")
    parts, ok = [], True
    for subset in available:
        est = diagnostics.two_nn_by_engine(_scaled_normal_runs(subset))
        inside = abs(est.value - expected[subset]) <= 0.5
        ok = ok and inside
        parts.append(f"{subset} two-NN {est.value:.2f} vs {expected[subset]} +/- 0.5")
    missing = sorted(set(expected) - set(available))
    if missing:
        parts.append(f"({', '.join(missing)} absent)")
    criterion(5, ok, "; ".join(parts))


def test_criterion_06_training_convergence():
    if cmapss_file("FD001") is None:
        skip_criterion(6, "train_FD001.txt")
    pipeline = _trained_pipeline("FD001")
    ok, drops, slowest = True, [], 0.0
    for m in pipeline["models"]:
        h = m["history"]
        rec_drop = h[-1].rec / h[0].rec
        tdc_drop = h[-1].tdc / h[0].tdc
        drops.append(max(rec_drop, tdc_drop))
        slowest = max(slowest, m["seconds"])
        ok = ok and rec_drop < 0.2 and tdc_drop < 0.2 and m["seconds"] < 600.0
    criterion(6, ok, f"5 seeds on FD001, worst final/first loss ratio "
                     f"{max(drops):.3f} (< 0.2), slowest seed {slowest:.0f} s (< 600 s)")


def _metric_check(pipeline, subset, band):
    best = _best_model(pipeline)["metrics"]
    table = TABLE_METRICS[subset]
    within = all(abs(getattr(best, k) - v) <= band for k, v in table.items())
    cdr_all = all(m["metrics"].cdr == 1.0 for m in pipeline["models"])
    detail = (f"{subset} best-of-5: acc {best.accuracy:.4f} prec {best.precision:.4f} "
              f"rec {best.recall:.4f} f1 {best.f1:.4f} (band +/- {band:.2f}); "
              f"CDR every seed: {cdr_all}")
    return within and cdr_all, detail


def test_criterion_07_detection_metrics():
    if cmapss_file("FD001") is None:
        skip_criterion(7, "train_FD001.txt")
    ok1, detail1 = _metric_check(_trained_pipeline("FD001"), "FD001", 0.03)
    if cmapss_file("FD003") is not None:
        ok3, detail3 = _metric_check(_trained_pipeline("FD003"), "FD003", 0.04)
    else:
        ok3, detail3 = True, "(FD003 absent)"
    criterion(7, ok1 and ok3, f"{detail1}; {detail3}")


def test_criterion_08_consistency_structure():
    if cmapss_file("FD001") is None:
        skip_criterion(8, "train_FD001.txt")
    pipeline = _trained_pipeline("FD001")
    params = _best_model(pipeline)["params"]
    etas = []
    for run in pipeline["scaled_train"]:
        latent = tdc.infer_latent(params, run)
        etas.append(eta_per_engine(latent, window=(0, run.normal_count)))
    eta_ok = all(0.6 <= e <= 1.3 for e in etas)

    latents_test = [tdc.infer_latent(params, r) for r in pipeline["scaled_test"]]
    labels = [r.labels for r in pipeline["test_runs"]]
    rows = diagnostics.rho_table(latents_test, labels)
    ordered = sum(1 for row in rows if row["anomalous_mean"] > row["normal_mean"])
    criterion(8, eta_ok and ordered >= 3,
              f"eta per train engine in [{min(etas):.2f}, {max(etas):.2f}] "
              f"(need [0.6, 1.3]); rho anomalous > normal for {ordered}/4 pairs (need >= 3)")


def test_criterion_09_encoder_geometry():
    if cmapss_file("FD001") is None:
        skip_criterion(9, "train_FD001.txt")
    pipeline = _trained_pipeline("FD001")
    params = _best_model(pipeline)["params"]
    rows = np.vstack([r.features for r in pipeline["scaled_test"]])
    rank = diagnostics.jacobian_rank_survey(params, rows, threshold=1e-9)
    _, violations = diagnostics.injectivity_ratio_survey(params, rows,
                                                         floor=1e-5)
    criterion(9, rank.full_rank_fraction >= 0.99 and len(rows) >= 4000 and violations == 0,
              f"full-rank fraction {rank.full_rank_fraction:.4f} (>= 0.99) over "
              f"{len(rows)} samples (>= 4000); injectivity ratios below 1e-5: "
              f"{violations} (need 0)")


# --- 10: cost accounting -----------------------------------------------------------------

def test_criterion_10_mac_accounting():
    params = net.init_params(net.autoencoder_specs(), np.random.default_rng(0))
    report = detector.mac_report(params)
    print(report["reference_note"])
    ok = (report["weight_macs"] == 2688
          and report["reference_figure"] == 3360
          and "2688" in report["reference_note"]
          and report["lstm_ratio"] >= 90.0)
    criterion(10, ok, f"weight MACs {report['weight_macs']} (= 2688); reference figure "
                      f"{report['reference_figure']} printed with discrepancy note; "
                      f"LSTM ratio {report['lstm_ratio']:.1f}x (>= 90x)")
