import hashlib
import json
import math
import warnings
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tdcae import detector as det
from tdcae import net
from tdcae.dataio import EngineRun
from tdcae.tdc import LatentSeries


TWO_NODES = det.DetectorConfig(latent_dim=2, vote_threshold=1)
# windows of 1: a normalized row is the first difference of the raw rows, the first row 0
FIRST_DIFFERENCE = det.DetectorConfig(moving_average_window=1, baseline_window=1,
                                      latent_dim=2, vote_threshold=1)


def two_node_latent(values, unit_id=1):
    """LatentSeries whose two nodes both carry `values` (no smoothing applied)."""
    col = np.asarray(values, dtype=float)[:, None]
    return LatentSeries(unit_id=unit_id, z=col, z_dot=col.copy())


# --- config -----------------------------------------------------------------------

def test_config_defaults():
    cfg = det.DetectorConfig()
    assert (cfg.upper_percentile, cfg.lower_percentile) == (86.0, 9.0)
    assert (cfg.moving_average_window, cfg.baseline_window, cfg.vote_threshold) == (12, 10, 2)


@pytest.mark.parametrize("bad", [
    dict(upper_percentile=9.0, lower_percentile=86.0),
    dict(lower_percentile=0.0),
    dict(upper_percentile=100.0),
    dict(moving_average_window=0),
    dict(vote_threshold=0),
    dict(vote_threshold=9),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        det.DetectorConfig(**bad)


@pytest.mark.parametrize("field", ["moving_average_window", "baseline_window",
                                   "vote_threshold", "latent_dim"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None, np.int64(2)])
def test_config_rejects_a_count_that_is_not_an_int(field, value):
    # 2.5 would otherwise fail deep inside a slice, and a vote_threshold of 1.5
    # would decide as 2; a numpy integer would not serialize with the config
    with pytest.raises(ValueError, match=f"^{field} must be an int, not "):
        det.DetectorConfig(**{field: value})


def test_thresholds_ordering_enforced():
    with pytest.raises(ValueError, match="lower threshold above"):
        det.Thresholds(upper=np.zeros(3), lower=np.ones(3))


# --- stream normalization -----------------------------------------------------------

def test_moving_average_truncates_at_start():
    values = np.array([[1.0], [2.0], [3.0], [4.0]])
    out = det.moving_average(values, window=2)
    assert out[:, 0].tolist() == [1.0, 1.5, 2.5, 3.5]
    out3 = det.moving_average(values, window=3)
    assert out3[:, 0].tolist() == [1.0, 1.5, 2.0, 3.0]


def ordered_mean(rows):
    """The rows added one after another in time order, then divided by their count."""
    total = rows[0].copy()
    for row in rows[1:]:
        total = total + row
    return total / len(rows)


def loop_moving_average(values, window):
    """moving_average's contract as a per-timestep loop, kept as its oracle."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    for t in range(values.shape[0]):
        out[t] = ordered_mean(values[max(0, t - window + 1):t + 1])
    return out


@settings(max_examples=150, deadline=None)
@given(T=st.integers(1, 60), n=st.integers(1, 16), window=st.integers(1, 70),
       seed=st.integers(0, 2**32 - 1))
def test_moving_average_is_bitwise_the_loop(T, n, window, seed):
    # windows up to 70 on streams of 1..60 rows cover window > T and T = 1
    values = np.random.default_rng(seed).normal(scale=100.0, size=(T, n))
    actual = det.moving_average(values, window)
    assert actual.dtype == np.float64
    assert np.array_equal(actual, loop_moving_average(values, window))


def test_moving_average_window_one_is_identity():
    values = np.random.default_rng(0).normal(size=(10, 3))
    assert np.array_equal(det.moving_average(values, 1), values)


@settings(max_examples=40, deadline=None)
@given(raw=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
       window=st.integers(1, 15))
def test_smoothing_stays_within_input_range(raw, window):
    values = np.array(raw)[:, None]
    smoothed = det.moving_average(values, window)
    assert smoothed.min() >= values.min() - 1e-6
    assert smoothed.max() <= values.max() + 1e-6
    b = det.baseline(smoothed, window)
    assert b.min() >= values.min() - 1e-6
    assert b.max() <= values.max() + 1e-6


@settings(max_examples=40, deadline=None)
@given(raw=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
       offset=st.floats(-1e3, 1e3))
def test_normalized_stream_offset_invariance(raw, offset):
    cfg = det.DetectorConfig(latent_dim=2)
    a = det.normalize_stream(two_node_latent(np.array(raw)), cfg)
    b = det.normalize_stream(two_node_latent(np.array(raw) + offset), cfg)
    assert np.allclose(a, b, atol=1e-9)


def test_baseline_starts_at_first_value():
    s = np.array([[1.0], [2.0], [3.0], [4.0]])
    b = det.baseline(s, window=2)
    assert b[:, 0].tolist() == [1.0, 1.0, 1.5, 2.5]


def loop_baseline(smoothed, window):
    """baseline's contract as a per-timestep loop, kept as its oracle."""
    smoothed = np.asarray(smoothed, dtype=np.float64)
    out = smoothed.copy()
    for t in range(1, smoothed.shape[0]):
        out[t] = ordered_mean(smoothed[max(0, t - window):t])
    return out


@settings(max_examples=100, deadline=None)
@given(T=st.integers(1, 30), n=st.integers(1, 4), window=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_baseline_is_bitwise_the_loop(T, n, window, seed):
    # windows up to 40 on streams of 1..30 rows cover window > T and T = 1
    smoothed = np.random.default_rng(seed).normal(scale=100.0, size=(T, n))
    expected = loop_baseline(smoothed, window)
    actual = det.baseline(smoothed, window)
    assert actual.dtype == np.float64
    assert np.array_equal(actual, expected)


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 400), n=st.integers(2, 700), window=st.integers(1, 70),
       decimals=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_fleet_sized_smoothing_is_bitwise_the_loop(T, n, window, decimals, seed):
    # up to 700 columns: a long stream spans several MEAN_BLOCK_CELLS row chunks;
    # rounding makes ties
    values = np.round(np.random.default_rng(seed).normal(scale=100.0, size=(T, n)), decimals)
    assert np.array_equal(det.moving_average(values, window), loop_moving_average(values, window))
    assert np.array_equal(det.baseline(values, window), loop_baseline(values, window))


@settings(deadline=None)
@given(lengths=st.lists(st.integers(1, 30), max_size=6), n=st.integers(1, 5),
       window=st.integers(1, 40), decimals=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_segmented_trailing_mean_is_the_loop_on_each_segment(lengths, n, window, decimals, seed):
    # segments shorter than the window, 1-row segments, windows longer than the
    # whole block and no rows at all; rounding makes ties
    values = np.round(np.random.default_rng(seed).normal(scale=100.0, size=(sum(lengths), n)),
                      decimals)
    bounds = np.cumsum([0] + lengths)
    want = [loop_moving_average(values[a:b], window) for a, b in zip(bounds, bounds[1:])]
    got = det._trailing_mean(values, bounds[:-1].astype(np.intp), window)
    assert got.shape == values.shape and got.dtype == np.float64
    assert np.array_equal(got, np.vstack(want) if want else values)


@pytest.mark.parametrize("layout", ["1-D", "one column", "column-major", "strided columns",
                                    "3-D", "0 rows", "0 rows 1-D", "0 columns", "integer"])
@pytest.mark.parametrize("window", [1, 5, 12, 40])
def test_smoothing_other_layouts_is_bitwise_the_loop(layout, window):
    # every layout takes the one kernel, so windows of 9 rows or more are still
    # summed row after row, where numpy's mean would reduce them pairwise
    rng = np.random.default_rng(window)
    raw = rng.normal(scale=100.0, size=(30, 6))
    values = {"1-D": raw[:, 0], "one column": raw[:, :1], "column-major": np.asfortranarray(raw),
              "strided columns": raw[:, ::2], "3-D": raw.reshape(30, 2, 3),
              "0 rows": raw[:0], "0 rows 1-D": raw[:0, 0], "0 columns": raw[:, :0],
              "integer": rng.integers(-1000, 1000, size=(30, 6))}[layout]
    for stage, oracle in ((det.moving_average, loop_moving_average),
                          (det.baseline, loop_baseline)):
        actual = stage(values, window)
        assert actual.shape == values.shape and actual.dtype == np.float64
        assert np.array_equal(actual, oracle(values, window))


@pytest.mark.parametrize("window", [0, -3])
@pytest.mark.parametrize("stage", [det.moving_average, det.baseline])
def test_smoothing_rejects_window_below_one(stage, window):
    with pytest.raises(ValueError, match="window"):
        stage(np.ones((5, 3)), window)


@settings(max_examples=100, deadline=None)
@given(T=st.integers(1, 40), pairs=st.integers(1, 4), ma_window=st.integers(1, 50),
       base_window=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_normalize_stream_is_smoothing_minus_baseline(T, pairs, ma_window, base_window, seed):
    values = np.random.default_rng(seed).normal(scale=100.0, size=(T, 2 * pairs))
    latent = LatentSeries(unit_id=1, z=values[:, :pairs], z_dot=values[:, pairs:])
    config = det.DetectorConfig(moving_average_window=ma_window, baseline_window=base_window,
                                latent_dim=2 * pairs)
    smoothed = det.moving_average(values, ma_window)
    assert np.array_equal(det.normalize_stream(latent, config),
                          smoothed - det.baseline(smoothed, base_window))


def test_ramp_normalizes_to_constant_offset():
    # steady drift of slope 1: v settles at (window+1)/2
    t = np.arange(60, dtype=float)
    latent = two_node_latent(t)
    cfg = det.DetectorConfig(moving_average_window=1, baseline_window=10,
                             latent_dim=2, vote_threshold=1)
    stream = det.normalize_stream(latent, cfg)
    assert np.allclose(stream[10:], 5.5)


def test_constant_stream_normalizes_to_zero():
    latent = two_node_latent(np.full(30, 7.25))
    stream = det.normalize_stream(latent, det.DetectorConfig(latent_dim=2))
    assert np.all(stream == 0.0)


def test_normalization_is_offset_invariant():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=25)
    cfg = det.DetectorConfig(latent_dim=2)
    a = det.normalize_stream(two_node_latent(vals), cfg)
    b = det.normalize_stream(two_node_latent(vals + 100.0), cfg)
    assert np.allclose(a, b, atol=1e-12)


def test_normalize_stream_rejects_empty():
    latent = LatentSeries(unit_id=1, z=np.empty((0, 1)), z_dot=np.empty((0, 1)))
    with pytest.raises(ValueError, match="empty"):
        det.normalize_stream(latent, det.DetectorConfig(latent_dim=2))


# --- thresholds -----------------------------------------------------------------------

def test_fit_thresholds_linear_percentile():
    pooled = np.arange(100.0)[:, None]
    th = det.fit_thresholds([pooled], det.DetectorConfig(latent_dim=2, vote_threshold=1))
    assert th.upper[0] == pytest.approx(85.14)
    assert th.lower[0] == pytest.approx(8.91)


def test_fit_thresholds_pools_across_engines():
    a = np.zeros((50, 1))
    b = np.ones((50, 1))
    th = det.fit_thresholds([a, b], det.DetectorConfig(latent_dim=2, vote_threshold=1))
    pooled = np.vstack([a, b])
    assert th.upper[0] == np.percentile(pooled, 86.0)


def test_fit_thresholds_constant_node_collapses_band():
    pooled = np.full((40, 2), 3.0)
    th = det.fit_thresholds([pooled], det.DetectorConfig(latent_dim=2))
    assert np.all(th.upper == 3.0) and np.all(th.lower == 3.0)


def test_fit_thresholds_requires_streams():
    with pytest.raises(ValueError, match="no training"):
        det.fit_thresholds([], det.DetectorConfig())


def loop_fit_thresholds(normalized, config):
    """fit_thresholds as two separate percentile calls, one per band."""
    pooled = np.vstack(normalized)
    return det.Thresholds(upper=np.percentile(pooled, config.upper_percentile, axis=0),
                          lower=np.percentile(pooled, config.lower_percentile, axis=0))


@settings(max_examples=100, deadline=None)
@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4), n=st.integers(1, 6),
       lower=st.floats(0.5, 49.5), upper=st.floats(50.5, 99.5), coarse=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_fit_thresholds_is_bitwise_two_percentile_calls(lengths, n, lower, upper, coarse, seed):
    rng = np.random.default_rng(seed)
    streams = [rng.normal(size=(T, n)) for T in lengths]
    if coarse:
        streams = [np.round(s) for s in streams]
    config = det.DetectorConfig(upper_percentile=upper, lower_percentile=lower)
    got, want = det.fit_thresholds(streams, config), loop_fit_thresholds(streams, config)
    assert np.array_equal(got.upper, want.upper)
    assert np.array_equal(got.lower, want.lower)


# values that tie, zeros of both signs, NaN and infinities, then any finite float
band_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]),
                        st.floats(-1e3, 1e3))
band_percentiles = st.lists(st.one_of(st.sampled_from([5, 9, 14, 50.0, 80, 86, 92]),
                                      st.floats(0.01, 99.99)), min_size=1, max_size=6)


def recorded_warnings(call):
    """call()'s result and the messages of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught]


@settings(deadline=None)
@given(pooled=st.tuples(st.integers(1, 40), st.integers(1, 6)).flatmap(
           lambda shape: arrays(np.float64, shape, elements=band_values)),
       qs=band_percentiles)
def test_bands_are_bitwise_percentile_of_the_values_plus_zero(pooled, qs):
    # the sorted reading of the bands is np.percentile's linear method with every
    # zero read as +0.0: the same bytes, NaN for a node that holds one, and the
    # same warnings for infinities
    qs = sorted(set(qs))
    got, got_warnings = recorded_warnings(
        lambda: det._percentiles(np.sort(det._node_major(pooled), axis=1), qs))
    want, want_warnings = recorded_warnings(lambda: np.percentile(pooled + 0.0, qs, axis=0))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_warnings == want_warnings


# --- per-engine oracles: the detector one engine at a time, as it ran before the fleet block

def per_engine_normalize(latent, config):
    """Oracle: normalize_stream on the engine's own [T x n] stream."""
    values = np.hstack([latent.z, latent.z_dot])
    if values.shape[0] < 1:
        raise ValueError("empty latent series")
    smoothed = det.moving_average(values, config.moving_average_window)
    return smoothed - det.baseline(smoothed, config.baseline_window)


def per_engine_decide(unit_id, stream, thresholds, config):
    """Oracle: detect's decisions on a stream per_engine_normalize already produced."""
    if stream.shape[1] != thresholds.n_nodes:
        raise ValueError(f"stream has {stream.shape[1]} nodes, "
                         f"thresholds have {thresholds.n_nodes}")
    outside = (stream > thresholds.upper) | (stream < thresholds.lower)
    votes = outside.sum(axis=1)
    return det.DetectionResult(unit_id=unit_id, votes=votes,
                               positives=votes >= config.vote_threshold)


def per_engine_detect(latent, thresholds, config):
    """Oracle: detect as per_engine_normalize, then per_engine_decide."""
    return per_engine_decide(latent.unit_id, per_engine_normalize(latent, config), thresholds,
                             config)


def run_of(by_unit, unit_id, n_decisions):
    """The run that labels unit_id's decisions: a KeyError when there is none,
    a ValueError when its life is not n_decisions cycles long."""
    run = by_unit[unit_id]
    if n_decisions != run.life_length:
        raise ValueError(f"unit {unit_id}: {n_decisions} decisions "
                         f"for {run.life_length} cycles")
    return run


def metrics_summary(tp, fp, tn, fn, critical_hits, n_engines):
    """The metrics of pooled confusion counts and critical-window hits."""
    precision = det._safe_div(tp, tp + fp)
    recall = det._safe_div(tp, tp + fn)
    return det.MetricsSummary(
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=det._safe_div(tp + tn, tp + fp + tn + fn),
        precision=precision,
        recall=recall,
        specificity=det._safe_div(tn, tn + fp),
        f1=det._safe_div(2 * precision * recall, precision + recall),
        cdr=det._safe_div(critical_hits, n_engines),
        n_engines=n_engines,
    )


def per_engine_score(results, runs):
    """Oracle: score over the results' positives concatenated, engine by engine."""
    by_unit = {run.unit_id: run for run in runs}
    critical_hits = 0
    for res in results:
        run = run_of(by_unit, res.unit_id, len(res))
        if res.positives[-det.critical_window(run.life_length):].any():
            critical_hits += 1
    positives = np.concatenate([res.positives for res in results] or [np.zeros(0, bool)])
    truth = np.concatenate([by_unit[res.unit_id].labels for res in results]
                           or [np.zeros(0, bool)])
    tp = int(np.count_nonzero(positives & truth))
    fp = int(np.count_nonzero(positives)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    tn = positives.size - tp - fp - fn
    return metrics_summary(tp, fp, tn, fn, critical_hits, len(results))


# --- detect ----------------------------------------------------------------------------

def test_detect_votes_and_positives():
    # first differences (0, 0), (2, 0), (2, 2)
    latent = LatentSeries(unit_id=4,
                          z=np.array([[0.0], [2.0], [4.0]]),
                          z_dot=np.array([[0.0], [0.0], [2.0]]))
    th = det.Thresholds(upper=np.array([1.0, 1.0]), lower=np.array([-1.0, -1.0]))
    cfg = replace(FIRST_DIFFERENCE, vote_threshold=2)
    res = det.detect(latent, th, cfg)
    assert res.unit_id == 4
    assert res.votes.tolist() == [0, 1, 2]
    assert res.positives.tolist() == [False, False, True]


def test_detect_rejects_node_mismatch():
    latent = two_node_latent(np.zeros(5))
    th = det.Thresholds(upper=np.zeros(3), lower=np.zeros(3))
    with pytest.raises(ValueError, match="nodes"):
        det.detect(latent, th, TWO_NODES)


@settings(max_examples=80, deadline=None)
@given(T=st.integers(1, 80), k=st.integers(1, 80), ma_window=st.integers(1, 20),
       base_window=st.integers(1, 20), vote_threshold=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_detect_on_a_prefix_is_the_prefix_of_detect(T, k, ma_window, base_window,
                                                    vote_threshold, seed):
    # causality: rows after cycle k never change a decision made at cycle k
    k = min(k, T)
    rng = np.random.default_rng(seed)
    cfg = det.DetectorConfig(moving_average_window=ma_window, baseline_window=base_window,
                             vote_threshold=vote_threshold)
    train = rng.normal(size=(40, 8))
    thresholds = det.fit_thresholds(
        [det.normalize_stream(LatentSeries(2, train[:, :4], train[:, 4:]), cfg)], cfg)
    walk = np.cumsum(rng.normal(size=(T, 8)), axis=0)  # drifts out of the bands
    full = det.detect(LatentSeries(1, walk[:, :4], walk[:, 4:]), thresholds, cfg)
    prefix = det.detect(LatentSeries(1, walk[:k, :4], walk[:k, 4:]), thresholds, cfg)
    assert np.array_equal(prefix.votes, full.votes[:k])
    assert np.array_equal(prefix.positives, full.positives[:k])


def test_wider_bands_never_add_votes():
    rng = np.random.default_rng(2)
    latent = two_node_latent(rng.normal(size=50))
    narrow = det.Thresholds(upper=np.full(2, 0.3), lower=np.full(2, -0.3))
    wide = det.Thresholds(upper=np.full(2, 1.0), lower=np.full(2, -1.0))
    v_narrow = det.detect(latent, narrow, FIRST_DIFFERENCE).votes
    v_wide = det.detect(latent, wide, FIRST_DIFFERENCE).votes
    assert np.all(v_wide <= v_narrow)


# --- scoring ---------------------------------------------------------------------------

def run_with_labels(labels, unit_id=1):
    labels = np.asarray(labels, dtype=bool)
    return EngineRun(unit_id=unit_id, features=np.zeros((len(labels), 24)),
                     labels=labels)


def result_from_positives(positives, unit_id=1):
    positives = np.asarray(positives, dtype=bool)
    return det.DetectionResult(unit_id=unit_id, votes=positives.astype(int),
                               positives=positives)


def test_score_perfect_detector():
    labels = [False] * 6 + [True] * 4
    summary = det.score([result_from_positives(labels)], [run_with_labels(labels)])
    assert (summary.tp, summary.fp, summary.tn, summary.fn) == (4, 0, 6, 0)
    assert summary.accuracy == summary.precision == summary.recall == 1.0
    assert summary.specificity == summary.f1 == summary.cdr == 1.0


def test_score_all_negative_detector():
    labels = [False] * 6 + [True] * 4
    summary = det.score([result_from_positives([False] * 10)], [run_with_labels(labels)])
    assert (summary.tp, summary.fn) == (0, 4)
    assert summary.precision == summary.recall == summary.f1 == 0.0
    assert summary.accuracy == 0.6 and summary.cdr == 0.0


def test_score_pools_counts_across_engines():
    runs = [run_with_labels([False, False, True, True], unit_id=1),
            run_with_labels([False, True, True, True], unit_id=2)]
    results = [result_from_positives([False, True, True, False], unit_id=1),
               result_from_positives([False, True, True, True], unit_id=2)]
    summary = det.score(results, runs)
    assert (summary.tp, summary.fp, summary.tn, summary.fn) == (4, 1, 2, 1)
    p, r = 4 / 5, 4 / 5
    assert summary.f1 == pytest.approx(2 * p * r / (p + r))
    assert summary.n_engines == 2


def loop_score(results, runs):
    """score as a per-engine loop of four confusion counts."""
    by_unit = {run.unit_id: run for run in runs}
    tp = fp = tn = fn = hits = 0
    for res in results:
        run = by_unit[res.unit_id]
        truth = run.labels
        tp += int(np.sum(res.positives & truth))
        fp += int(np.sum(res.positives & ~truth))
        tn += int(np.sum(~res.positives & ~truth))
        fn += int(np.sum(~res.positives & truth))
        hits += bool(res.positives[-det.critical_window(run.life_length):].any())
    return metrics_summary(tp, fp, tn, fn, hits, len(results))


@settings(max_examples=100, deadline=None)
@given(lengths=st.lists(st.integers(0, 40), max_size=5), rate=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_score_is_the_per_engine_loop(lengths, rate, seed):
    rng = np.random.default_rng(seed)
    runs = [run_with_labels(rng.random(T) < 0.4, unit_id=u + 1) for u, T in enumerate(lengths)]
    results = [result_from_positives(rng.random(T) < rate, unit_id=u + 1)
               for u, T in enumerate(lengths)]
    assert det.score(results, runs) == loop_score(results, runs)


def test_score_of_no_engines_is_all_zero():
    summary = det.score([], [])
    assert summary == loop_score([], [])
    assert (summary.tp, summary.fp, summary.tn, summary.fn, summary.n_engines) == (0,) * 5


def test_score_rejects_length_mismatch():
    with pytest.raises(ValueError, match="decisions"):
        det.score([result_from_positives([False] * 3)], [run_with_labels([False] * 4)])


@pytest.mark.parametrize("life,expected", [(100, 10), (101, 11), (5, 1), (9, 1)])
def test_critical_window_is_tail_tenth(life, expected):
    assert det.critical_window(life) == expected


def test_cdr_counts_only_tail_positives():
    labels = [False] * 12 + [True] * 8  # T=20, tail = 2
    early = [False] * 12 + [True] * 6 + [False] * 2
    late = [False] * 18 + [False, True]
    assert det.score([result_from_positives(early)], [run_with_labels(labels)]).cdr == 0.0
    assert det.score([result_from_positives(late)], [run_with_labels(labels)]).cdr == 1.0


# --- threshold search --------------------------------------------------------------------

def drifting_case():
    # two nodes whose first differences are exactly 0 while normal, exactly 1 while
    # anomalous
    labels = np.zeros(100, bool)
    labels[60:] = True
    latent = two_node_latent(np.cumsum(labels, dtype=float))
    run = run_with_labels(labels)
    return [latent], [run]


def test_optimize_thresholds_picks_separating_band():
    latents, runs = drifting_case()
    good = replace(FIRST_DIFFERENCE, upper_percentile=50.0, lower_percentile=9.0)
    blind = replace(FIRST_DIFFERENCE, upper_percentile=99.0, lower_percentile=9.0)
    assert det.optimize_thresholds(latents, runs, [blind, good]) is good
    assert det.optimize_thresholds(latents, runs, [good, blind]) is good


def test_optimize_thresholds_tie_breaks_to_smaller_window():
    latent = two_node_latent(np.full(40, 2.0))
    run = run_with_labels([False] * 24 + [True] * 16)
    grid = det.config_grid(det.DetectorConfig(latent_dim=2, vote_threshold=1),
                           uppers=[86.0], lowers=[9.0], windows=[7, 3, 5])
    best = det.optimize_thresholds([latent], [run], grid)
    assert best.moving_average_window == 3


def loop_optimize_thresholds(latents, runs, grid):
    """optimize_thresholds as one normalization, fit and score per config."""
    best_key, best_config = None, None
    for config in grid:
        normalized = [per_engine_normalize(latent, config) for latent in latents]
        thresholds = loop_fit_thresholds(normalized, config)
        summary = loop_score([per_engine_decide(latent.unit_id, stream, thresholds, config)
                              for latent, stream in zip(latents, normalized)], runs)
        key = (summary.f1, summary.specificity, -config.moving_average_window)
        if best_key is None or key > best_key:
            best_key, best_config = key, config
    return best_config


search_config = st.builds(
    lambda up, lo, w, bw, v: det.DetectorConfig(
        upper_percentile=up, lower_percentile=lo, moving_average_window=w, baseline_window=bw,
        vote_threshold=v, latent_dim=2),
    up=st.sampled_from([60.0, 80.0, 92.0]), lo=st.sampled_from([5.0, 20.0, 40.0]),
    w=st.integers(1, 4), bw=st.integers(1, 3), v=st.integers(1, 2))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), base=st.lists(search_config, min_size=1, max_size=8),
       lengths=st.lists(st.integers(3, 30), min_size=1, max_size=3), coarse=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_optimize_thresholds_is_the_per_config_loop(data, base, lengths, coarse, seed):
    # a copy of a config ties with it, so the first of the two in grid order must win
    grid = data.draw(st.permutations(base + [replace(base[0])]))
    rng = np.random.default_rng(seed)
    latents, runs = [], []
    for u, T in enumerate(lengths):
        values = rng.normal(size=(T, 2)) + np.linspace(0.0, 3.0, T)[:, None]
        if coarse:
            values = np.round(values)
        latents.append(LatentSeries(unit_id=u + 1, z=values[:, :1], z_dot=values[:, 1:]))
        runs.append(EngineRun(unit_id=u + 1, features=np.zeros((T, 24))))
    assert (det.optimize_thresholds(latents, runs, grid)
            is loop_optimize_thresholds(latents, runs, grid))


def test_optimize_thresholds_normalizes_once_per_window(monkeypatch):
    # one normalization of the whole fleet's packed block per window group, none per
    # engine: sum(T_e) rows, each engine's first row in starts
    calls = []
    normalize = det._normalize
    monkeypatch.setattr(det, "_normalize",
                        lambda values, starts, config: calls.append(
                            (values.shape, starts.tolist(), config))
                        or normalize(values, starts, config))
    monkeypatch.setattr(det, "normalize_stream", None)
    rng = np.random.default_rng(4)
    lengths = [30, 24, 30, 17, 29]
    latents = [two_node_latent(rng.normal(size=T), unit_id=u) for u, T in enumerate(lengths)]
    runs = [EngineRun(unit_id=u, features=np.zeros((T, 24))) for u, T in enumerate(lengths)]
    grid = det.config_grid(det.DetectorConfig(latent_dim=2, vote_threshold=1),
                           uppers=[80.0, 86.0, 92.0], lowers=[5.0, 9.0, 14.0], windows=[6, 12, 18])
    assert len(grid) == 27
    det.optimize_thresholds(latents, runs, grid)
    assert len(calls) == 3
    assert all(shape == (sum(lengths), 2) for shape, _, _ in calls)
    assert all(starts == [0, 30, 54, 84, 101] for _, starts, _ in calls)
    assert sorted(c.moving_average_window for _, _, c in calls) == [6, 12, 18]


def search_keys(latents, runs, configs):
    """The (f1, specificity, -window) keys optimize_thresholds ranks configs by, read
    off the summaries it computes; the configs must share one window group."""
    summaries = []
    summary = det._Labels.summary

    def record(labels, positives):
        summaries.append(summary(labels, positives))
        return summaries[-1]

    with mock.patch.object(det._Labels, "summary", record):
        det.optimize_thresholds(latents, runs, configs)
    assert len(summaries) == len(configs)
    return [(s.f1, s.specificity, -c.moving_average_window) for s, c in zip(summaries, configs)]


def per_config_search_keys(latents, runs, configs):
    """Oracle: search_keys with one pooling and np.percentile([up, lo]) call per config."""
    streams = [per_engine_normalize(latent, configs[0]) for latent in latents]
    keys = []
    for config in configs:
        upper, lower = np.percentile(np.vstack(streams),
                                     [config.upper_percentile, config.lower_percentile], axis=0)
        thresholds = det.Thresholds(upper=upper, lower=lower)
        summary = per_engine_score([per_engine_detect(latent, thresholds, config)
                                    for latent in latents], runs)
        keys.append((summary.f1, summary.specificity, -config.moving_average_window))
    return keys


@settings(max_examples=100, deadline=None)
@given(percentiles=st.lists(st.tuples(st.floats(0.5, 49.5), st.floats(50.5, 99.5)),
                            min_size=1, max_size=9),
       votes=st.integers(1, 3), lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       coarse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_one_percentile_pass_per_group_is_the_per_config_fit(percentiles, votes, lengths,
                                                             coarse, seed):
    rng = np.random.default_rng(seed)
    latents, runs = [], []
    for u, T in enumerate(lengths):
        values = rng.normal(size=(T, 4)) + np.linspace(0.0, 2.0, T)[:, None]
        if coarse:
            values = np.round(values)
        latents.append(LatentSeries(unit_id=u, z=values[:, :2], z_dot=values[:, 2:]))
        runs.append(EngineRun(unit_id=u, features=np.zeros((T, 24))))
    configs = [det.DetectorConfig(upper_percentile=up, lower_percentile=lo, latent_dim=4,
                                  moving_average_window=3, vote_threshold=votes)
               for lo, up in percentiles]
    pooled = np.vstack([per_engine_normalize(latent, configs[0]) for latent in latents])
    for config, got in zip(configs, det._fit_thresholds_each(det._node_major(pooled), configs)):
        # every zero read as +0.0 (see detector's module docstring)
        upper, lower = np.percentile(pooled + 0.0,
                                     [config.upper_percentile, config.lower_percentile], axis=0)
        assert got.upper.tobytes() == upper.tobytes()
        assert got.lower.tobytes() == lower.tobytes()
    keys = per_config_search_keys(latents, runs, configs)
    assert search_keys(latents, runs, configs) == keys
    best = configs[max(range(len(configs)), key=keys.__getitem__)]
    assert det.optimize_thresholds(latents, runs, configs) is best


# --- the fleet block: every engine decided at once ---------------------------------------

def per_engine_search_keys(latents, runs, configs):
    """Oracle: search_keys one engine at a time, as it ran before the fleet block:
    normalize per engine, then decide per engine and score per config."""
    streams = [per_engine_normalize(latent, configs[0]) for latent in latents]
    keys = []
    for config in configs:
        thresholds = loop_fit_thresholds(streams, config)
        summary = per_engine_score([per_engine_decide(latent.unit_id, stream, thresholds, config)
                                    for latent, stream in zip(latents, streams)], runs)
        keys.append((summary.f1, summary.specificity, -config.moving_average_window))
    return keys


def per_engine_run_detector(latents, runs, thresholds, config):
    """Oracle: run_detector as detect per engine, then score."""
    results = [per_engine_detect(latent, thresholds, config) for latent in latents]
    return results, per_engine_score(results, runs)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), lengths=st.lists(st.integers(1, 60), min_size=1, max_size=8),
       pairs=st.integers(1, 6), windows=st.tuples(st.integers(1, 70), st.integers(1, 70)),
       base_window=st.integers(1, 70),
       percentiles=st.lists(st.tuples(st.sampled_from([5.0, 9.0, 14.0, 30.0]),
                                      st.sampled_from([70.0, 80.0, 86.0, 92.0])),
                            min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_fleet_block_is_the_per_engine_detector(data, lengths, pairs, windows, base_window,
                                                percentiles, seed):
    # ragged lengths from 1 cycle, windows longer than most engines, rounded values for
    # ties, and runs in an order of their own: score matches labels by unit_id
    rng = np.random.default_rng(seed)
    n = 2 * pairs
    latents, runs = [], []
    for u, T in enumerate(lengths):
        values = np.round(rng.normal(size=(T, n)) + np.linspace(0.0, 3.0, T)[:, None])
        latents.append(LatentSeries(unit_id=100 + u, z=values[:, :pairs], z_dot=values[:, pairs:]))
        runs.append(EngineRun(unit_id=100 + u, features=np.zeros((T, 24))))
    runs = data.draw(st.permutations(runs))
    groups = [[det.DetectorConfig(upper_percentile=up, lower_percentile=lo,
                                  moving_average_window=w, baseline_window=base_window,
                                  latent_dim=n,
                                  vote_threshold=data.draw(st.integers(1, n)))
               for lo, up in percentiles] for w in windows]

    for configs in groups:
        for latent, stream in zip(latents, det.normalize_fleet(latents, configs[0])):
            assert np.array_equal(stream, per_engine_normalize(latent, configs[0]))
        assert search_keys(latents, runs, configs) == per_engine_search_keys(
            latents, runs, configs)
    grid = groups[0] + groups[1]
    assert det.optimize_thresholds(latents, runs, grid) is loop_optimize_thresholds(
        latents, runs, grid)

    config = grid[0]
    thresholds = det.fit_thresholds([per_engine_normalize(latent, config) for latent in latents],
                                    config)
    results, summary = det.run_detector(latents, runs, thresholds, config)
    want_results, want_summary = per_engine_run_detector(latents, runs, thresholds, config)
    assert summary == want_summary
    assert [r.unit_id for r in results] == [r.unit_id for r in want_results]
    for got, want in zip(results, want_results):
        assert got.votes.dtype == np.int64 and got.positives.dtype == bool
        assert np.array_equal(got.votes, want.votes)
        assert np.array_equal(got.positives, want.positives)
        assert got.votes.flags.c_contiguous and got.positives.flags.c_contiguous
    # detect and score are the fleet's one-engine and ready-made-decision cases
    for latent, want in zip(latents, want_results):
        got = det.detect(latent, thresholds, config)
        assert np.array_equal(got.votes, want.votes)
        assert np.array_equal(got.positives, want.positives)
    assert det.score(want_results, runs) == want_summary


THRESHOLDS_2 = det.Thresholds(upper=np.full(2, 0.5), lower=np.full(2, -0.5))


def run_detector_call(latents, runs):
    return det.run_detector(latents, runs, THRESHOLDS_2, TWO_NODES)


def per_engine_call(latents, runs):
    return per_engine_run_detector(latents, runs, THRESHOLDS_2, TWO_NODES)


def optimize_thresholds_call(latents, runs):
    return det.optimize_thresholds(latents, runs, [TWO_NODES])


def normalize_fleet_call(latents, runs):
    return det.normalize_fleet(latents, TWO_NODES)


def detect_call(latents, runs):
    return [det.detect(latent, THRESHOLDS_2, TWO_NODES) for latent in latents]


fleet_calls = pytest.mark.parametrize(
    "call", [run_detector_call, optimize_thresholds_call, per_engine_call])


@fleet_calls
def test_fleet_rejects_an_empty_latent_series(call):
    latents = [two_node_latent(np.zeros(4), unit_id=1),
               LatentSeries(unit_id=2, z=np.empty((0, 1)), z_dot=np.empty((0, 1)))]
    runs = [run_with_labels([False] * 4, unit_id=1), run_with_labels([False] * 4, unit_id=2)]
    with pytest.raises(ValueError, match="empty latent series"):
        call(latents, runs)


@fleet_calls
def test_fleet_rejects_a_run_of_another_length(call):
    latents = [two_node_latent(np.zeros(4), unit_id=1), two_node_latent(np.zeros(5), unit_id=2)]
    runs = [run_with_labels([False] * 4, unit_id=1), run_with_labels([False] * 6, unit_id=2)]
    with pytest.raises(ValueError, match="unit 2: 5 decisions for 6 cycles"):
        call(latents, runs)


@pytest.mark.parametrize("call", [run_detector_call, optimize_thresholds_call, per_engine_call,
                                  normalize_fleet_call, detect_call])
def test_fleet_rejects_a_stream_of_another_width(call):
    wide = LatentSeries(unit_id=2, z=np.zeros((4, 2)), z_dot=np.zeros((4, 2)))
    latents = [two_node_latent(np.zeros(4), unit_id=1), wide]
    runs = [run_with_labels([False] * 4, unit_id=1), run_with_labels([False] * 4, unit_id=2)]
    with pytest.raises(ValueError, match="nodes"):
        call(latents, runs)


@fleet_calls
def test_fleet_rejects_a_unit_without_a_run(call):
    latents = [two_node_latent(np.zeros(4), unit_id=1), two_node_latent(np.zeros(4), unit_id=7)]
    runs = [run_with_labels([False] * 4, unit_id=1)]
    with pytest.raises(KeyError):
        call(latents, runs)


@pytest.mark.parametrize("call", [
    lambda latents, runs, config: det.detect(latents[0], THRESHOLDS_2, config),
    lambda latents, runs, config: det.run_detector(latents, runs, THRESHOLDS_2, config),
    lambda latents, runs, config: det.normalize_fleet(latents, config),
    lambda latents, runs, config: det.optimize_thresholds(latents, runs, [config]),
], ids=["detect", "run_detector", "normalize_fleet", "optimize_thresholds"])
def test_config_width_is_the_streams_width(call):
    # the config's latent_dim (8) bounds its vote_threshold (3); 2-node streams could
    # never reach 3 votes, so they fail naming both widths instead of never firing
    latents = [two_node_latent(np.zeros(4), unit_id=1)]
    runs = [run_with_labels([False] * 4, unit_id=1)]
    with pytest.raises(ValueError, match="unit 1: stream has 2 nodes, expected 8"):
        call(latents, runs, det.DetectorConfig(vote_threshold=3))


@pytest.mark.parametrize("call", [
    lambda latents, runs, thresholds: det.detect(latents[0], thresholds, TWO_NODES),
    lambda latents, runs, thresholds: det.run_detector(latents, runs, thresholds, TWO_NODES),
], ids=["detect", "run_detector"])
def test_thresholds_width_is_the_streams_width(call):
    latents = [two_node_latent(np.zeros(4), unit_id=1)]
    runs = [run_with_labels([False] * 4, unit_id=1)]
    thresholds = det.Thresholds(upper=np.full(3, 0.5), lower=np.full(3, -0.5))
    with pytest.raises(ValueError, match="thresholds have 3 nodes, expected 2"):
        call(latents, runs, thresholds)


def test_fleet_of_no_engines():
    results, summary = run_detector_call([], [])
    assert results == [] and summary == det.score([], [])
    with pytest.raises(ValueError, match="no training streams"):
        optimize_thresholds_call([], [])


def test_grid_search_sorts_once_per_window_group(monkeypatch):
    # one sort of the packed block's node-major rows per window group gives all
    # six bands; np.percentile is not called
    calls = []
    sort = np.sort
    monkeypatch.setattr(np, "sort",
                        lambda a, axis=-1, **kw: calls.append((a.shape, axis)) or sort(a, axis, **kw))
    monkeypatch.setattr(np, "percentile", None)
    rng = np.random.default_rng(4)
    latents = [two_node_latent(rng.normal(size=30), unit_id=u) for u in range(1, 6)]
    runs = [run_with_labels([False] * 18 + [True] * 12, unit_id=u) for u in range(1, 6)]
    grid = det.config_grid(det.DetectorConfig(latent_dim=2, vote_threshold=1),
                           uppers=[80.0, 86.0, 92.0], lowers=[5.0, 9.0, 14.0], windows=[6, 12, 18])
    det.optimize_thresholds(latents, runs, grid)
    assert calls == [((2, 150), 1)] * 3


# sha256 of the golden run's detections.csv and of its config, metrics and thresholds
# as JSON, recorded when the fleet block was zero-padded and np.percentile gave the bands
GOLDEN_DETECTIONS_SHA256 = "a42c26668d66280ef86946c02300f8a2be230dd8dd129cc83e7c723e055eac22"
GOLDEN_JSON_SHA256 = "f98a81c2d085ba1bf751c7db7cf01544498ffa792a2c6063b14a4848ecdb05ad"


def test_golden_grid_search_and_detection(tmp_path):
    # 12 engines of unequal life, one shorter than the grid's largest window, their
    # 8 nodes drawn with PCG64 random() and drifting in the anomalous 40%: no BLAS
    # and no libm call, so the bytes are the same on every platform
    rng = np.random.Generator(np.random.PCG64(32))
    latents, runs = [], []
    for unit, life in enumerate([130, 15, 205, 96, 362, 128, 251, 64, 180, 310, 150, 222],
                                start=1):
        run = EngineRun(unit_id=unit, features=np.zeros((life, 24)))
        values = rng.random((life, 8)) + 0.02 * np.cumsum(run.labels)[:, None] * rng.random(8)
        latents.append(LatentSeries(unit_id=unit, z=values[:, :4], z_dot=values[:, 4:]))
        runs.append(run)
    grid = det.config_grid(det.DetectorConfig(), uppers=[80, 86, 92], lowers=[5, 9, 14],
                           windows=[6, 12, 18])
    best = det.optimize_thresholds(latents[:8], runs[:8], grid)
    thresholds = det.fit_thresholds(det.normalize_fleet(latents[:8], best), best)
    results, summary = det.run_detector(latents[8:], runs[8:], thresholds, best)
    det.write_detections_csv(results, runs[8:], tmp_path / "detections.csv")
    payload = json.dumps({"config": asdict(best), "metrics": summary.as_dict(),
                          "thresholds": {"upper": thresholds.upper.tolist(),
                                         "lower": thresholds.lower.tolist()}}, indent=2)
    assert best.moving_average_window == 18
    assert (hashlib.sha256((tmp_path / "detections.csv").read_bytes()).hexdigest()
            == GOLDEN_DETECTIONS_SHA256)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_JSON_SHA256


def test_optimize_thresholds_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        det.optimize_thresholds([], [], [])


def test_config_grid_filters_invalid_pairs():
    grid = det.config_grid(det.DetectorConfig(), uppers=[80.0, 10.0],
                           lowers=[9.0, 50.0], windows=[1, 12])
    assert len(grid) == 3 * 2  # (80,9) (80,50) (10,9)
    assert all(g.lower_percentile < g.upper_percentile for g in grid)
    assert all(g.vote_threshold == 2 for g in grid)


# --- cost accounting -----------------------------------------------------------------------

def test_count_macs_small_example():
    specs = [net.LayerSpec(3, 4), net.LayerSpec(4, 2)]
    params = net.NetworkParams(specs=specs,
                               weights=[np.zeros((4, 3)), np.zeros((2, 4))],
                               biases=[np.zeros(4), np.zeros(2)])
    assert det.count_macs(params) == 12 + 8


def default_params():
    return net.init_params(net.autoencoder_specs(), np.random.default_rng(0))


def test_count_macs_default_architecture():
    assert det.count_macs(default_params()) == 2688


def test_mac_report_quotes_reference_figure():
    report = det.mac_report(default_params())
    assert report["weight_macs"] == 2688
    assert report["encoder_macs"] == 1344
    assert report["bias_adds"] == 128
    assert report["reference_figure"] == 3360
    assert "3360" in report["reference_note"] and "2688" in report["reference_note"]
    assert report["lstm_baseline_macs"] == 122_880
    # against the encoder, which is all a detection step runs; the same 640/7 as
    # twice the LSTM against the whole autoencoder, bit for bit
    assert report["lstm_ratio"] == 122_880 / 1344 == 245_760 / 2688
    assert report["lstm_ratio"] >= 90.0


def test_lstm_macs_from_shapes():
    # four gates, each an [hidden x (inputs + hidden)] matmul per step
    assert det.count_lstm_macs(steps=1, inputs=1, hidden=1) == 8
    assert det.count_lstm_macs(steps=48, inputs=24, hidden=16) == 4 * 16 * 40 * 48 == 122_880
    assert det.count_lstm_macs(steps=96, inputs=24, hidden=16) == 245_760


# --- serialization ---------------------------------------------------------------------------

def test_detections_csv_format(tmp_path):
    labels = [False, False, True]
    res = det.DetectionResult(unit_id=3, votes=np.array([0, 2, 5]),
                              positives=np.array([False, True, True]))
    path = tmp_path / "detections.csv"
    det.write_detections_csv([res], [run_with_labels(labels, unit_id=3)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == det.DETECTIONS_CSV_HEADER
    assert lines[1] == "3,1,0,negative,normal"
    assert lines[2] == "3,2,2,positive,normal"
    assert lines[3] == "3,3,5,positive,anomalous"
