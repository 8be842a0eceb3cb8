"""End-to-end pipeline checks on the surrogate dataset.

These mirror the full workflow: scale on training engines, train a small
number of epochs, fit latent thresholds on the training engines' lifetime
streams, then score held-out engines and run the geometry diagnostics.
"""

from dataclasses import asdict

import numpy as np
import pytest

from tdcae import dataio, detector, diagnostics, net, tdc

from conftest import eta_per_engine


@pytest.fixture(scope="module")
def pipeline(trained_setup):
    params, history, scaler, split, runs, config = trained_setup
    det_cfg = detector.DetectorConfig()
    train_runs = [r for r in runs if r.unit_id in split.train_engines]
    test_runs = [r for r in runs if r.unit_id in split.test_engines]
    scaled_train = [dataio.apply_scaler(r, scaler) for r in train_runs]
    scaled_test = [dataio.apply_scaler(r, scaler) for r in test_runs]
    latents_train = [tdc.infer_latent(params, r) for r in scaled_train]
    latents_test = [tdc.infer_latent(params, r) for r in scaled_test]
    thresholds = detector.fit_thresholds(
        [detector.normalize_stream(lat, det_cfg) for lat in latents_train], det_cfg)
    return {
        "params": params, "history": history, "scaler": scaler,
        "det_cfg": det_cfg, "thresholds": thresholds,
        "train_runs": train_runs, "test_runs": test_runs,
        "scaled_train": scaled_train, "scaled_test": scaled_test,
        "latents_train": latents_train, "latents_test": latents_test,
    }


def test_both_loss_terms_decrease(pipeline):
    history = pipeline["history"]
    assert history[-1].rec < 0.5 * history[0].rec
    assert history[-1].tdc < 0.1 * history[0].tdc


def test_detection_quality_on_held_out_engines(pipeline):
    _, summary = detector.run_detector(pipeline["latents_test"], pipeline["test_runs"],
                                       pipeline["thresholds"], pipeline["det_cfg"])
    assert summary.f1 >= 0.7
    assert summary.accuracy >= 0.75
    assert summary.cdr == 1.0


def test_detection_quality_on_training_engines(pipeline):
    _, summary = detector.run_detector(pipeline["latents_train"], pipeline["train_runs"],
                                       pipeline["thresholds"], pipeline["det_cfg"])
    assert summary.f1 >= 0.7
    assert summary.cdr == 1.0


def test_threshold_search_never_hurts(pipeline):
    base = pipeline["det_cfg"]
    grid = detector.config_grid(base, uppers=[80.0, 86.0, 92.0], lowers=[5.0, 9.0],
                                windows=[base.moving_average_window])
    grid.append(base)
    best = detector.optimize_thresholds(pipeline["latents_train"], pipeline["train_runs"], grid)
    normalized = [detector.normalize_stream(lat, best) for lat in pipeline["latents_train"]]
    tuned = detector.fit_thresholds(normalized, best)
    _, tuned_summary = detector.run_detector(pipeline["latents_train"], pipeline["train_runs"],
                                             tuned, best)
    _, base_summary = detector.run_detector(pipeline["latents_train"], pipeline["train_runs"],
                                            pipeline["thresholds"], base)
    assert tuned_summary.f1 >= base_summary.f1


def test_encoder_geometry_is_clean(pipeline):
    rows = np.vstack([r.features for r in pipeline["scaled_test"]])
    rank = diagnostics.jacobian_rank_survey(pipeline["params"], rows)
    assert rank.full_rank == 8
    assert rank.full_rank_fraction >= 0.99
    assert rank.failed == []
    min_ratio, violations = diagnostics.injectivity_ratio_survey(pipeline["params"], rows)
    assert violations == 0
    assert min_ratio > diagnostics.INJECTIVITY_FLOOR


def test_eta_near_one_on_training_engines(pipeline):
    for run in pipeline["scaled_train"]:
        latent = tdc.infer_latent(pipeline["params"], run)
        eta = eta_per_engine(latent, window=(0, run.normal_count))
        assert 0.5 < eta < 1.5


def test_two_nn_on_scaled_training_rows(pipeline):
    est = diagnostics.two_nn_by_engine(pipeline["scaled_train"])
    assert 2.0 < est.value < 10.0
    assert diagnostics.recommend_embedding_dim(est.value) >= 6


def test_checkpoint_round_trip_preserves_detections(pipeline, tmp_path, trained_setup):
    _, _, scaler, split, _, config = trained_setup
    path = tmp_path / "ckpt.json"
    net.save_checkpoint(path, pipeline["params"], seed=config.seed, scaler=scaler,
                        split=split, training_config=asdict(config))
    loaded = net.load_checkpoint(path)["params"]
    for run, latent in zip(pipeline["scaled_test"], pipeline["latents_test"]):
        reloaded = tdc.infer_latent(loaded, run)
        assert np.array_equal(reloaded.z, latent.z)
        assert np.array_equal(reloaded.z_dot, latent.z_dot)
    _, before = detector.run_detector(pipeline["latents_test"], pipeline["test_runs"],
                                      pipeline["thresholds"], pipeline["det_cfg"])
    relats = [tdc.infer_latent(loaded, r) for r in pipeline["scaled_test"]]
    _, after = detector.run_detector(relats, pipeline["test_runs"],
                                     pipeline["thresholds"], pipeline["det_cfg"])
    assert before == after
