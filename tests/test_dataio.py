import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcae import dataio


def write_raw(path, rows):
    lines = [" ".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def raw_rows(unit, cycles, value=0.0):
    return [[unit, c] + [value + 0.01 * c + 0.001 * j for j in range(24)] for c in cycles]


# --- parsing -----------------------------------------------------------------

def test_parse_single_engine_60_40(tmp_path):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(1, range(1, 11)))
    runs = dataio.parse_cmapss(path)
    assert len(runs) == 1
    run = runs[0]
    assert run.life_length == 10
    assert run.normal_count == 6
    assert list(run.labels) == [False] * 6 + [True] * 4


def test_parse_labels_switch_at_cycle_61(tmp_path):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(3, range(1, 101)))
    run = dataio.parse_cmapss(path)[0]
    assert run.normal_count == 60
    assert not run.labels[59] and run.labels[60]


def test_parse_orders_shuffled_cycles(tmp_path):
    path = tmp_path / "train.txt"
    rows = raw_rows(2, range(1, 8))
    write_raw(path, rows[::-1])
    run = dataio.parse_cmapss(path)[0]
    assert run.features[0, 0] == rows[0][2]


def test_parse_wrong_field_count_reports_line(tmp_path):
    path = tmp_path / "train.txt"
    rows = raw_rows(1, range(1, 7))
    rows[2] = rows[2][:-1]
    write_raw(path, rows)
    with pytest.raises(dataio.ParseError, match="train.txt:3"):
        dataio.parse_cmapss(path)


def test_parse_non_numeric_reports_line(tmp_path):
    path = tmp_path / "train.txt"
    rows = raw_rows(1, range(1, 7))
    rows[4][5] = "broken"
    write_raw(path, rows)
    with pytest.raises(dataio.ParseError, match="train.txt:5"):
        dataio.parse_cmapss(path)


@pytest.mark.parametrize("column, value", [(7, "nan"), (7, "inf"), (0, "inf")])
def test_parse_non_finite_reports_line(tmp_path, column, value):
    path = tmp_path / "train.txt"
    rows = raw_rows(1, range(1, 7))
    rows[3][column] = value
    write_raw(path, rows)
    with pytest.raises(dataio.ParseError, match="train.txt:4: non-"):
        dataio.parse_cmapss(path)


@pytest.mark.parametrize("rows, line", [
    # unit 2's rows relabelled 1.5 with continuing cycles once parsed as one engine
    (raw_rows(1, range(1, 21)) + raw_rows(1.5, range(21, 46)), 21),
    (raw_rows(1, range(1, 21)) + raw_rows(2, [1, 2, 3, 4.5, 5, 6]), 24),
], ids=["unit", "cycle"])
def test_parse_rejects_non_integer_ids(tmp_path, rows, line):
    path = tmp_path / "train.txt"
    write_raw(path, rows)
    with pytest.raises(dataio.ParseError,
                       match=f"train.txt:{line}: unit and cycle must be integers"):
        dataio.parse_cmapss(path)


def test_parse_accepts_integral_float_ids(tmp_path):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(3.0, [1.0, 2.0, 3.0, 4.0, 5.0]))
    assert [run.unit_id for run in dataio.parse_cmapss(path)] == [3]


def test_parse_cycle_gap_is_integrity_error(tmp_path):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(1, [1, 2, 3, 5, 6, 7]))
    with pytest.raises(dataio.DataIntegrityError, match="unit 1"):
        dataio.parse_cmapss(path)


def test_parse_rejects_runs_shorter_than_5(tmp_path):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(1, range(1, 5)))
    with pytest.raises(dataio.DataIntegrityError, match="fewer than 5"):
        dataio.parse_cmapss(path)


def test_parse_tolerates_blank_lines(tmp_path):
    path = tmp_path / "train.txt"
    lines = [" ".join(str(v) for v in row) for row in raw_rows(1, range(1, 7))]
    lines.insert(3, "")
    path.write_text("\n".join(lines) + "\n")
    assert dataio.parse_cmapss(path)[0].life_length == 6


def test_parse_real_fd001_has_100_engines():
    from conftest import require_cmapss

    path = require_cmapss("FD001")
    runs = dataio.parse_cmapss(path)
    assert len(runs) == 100
    n_lines = sum(1 for line in path.read_text().splitlines() if line.strip())
    assert sum(r.life_length for r in runs) == n_lines


@given(life=st.integers(min_value=1, max_value=500))
def test_label_rule_is_ceil(life):
    labels = dataio.assign_labels(life)
    assert np.count_nonzero(~labels) == math.ceil(0.6 * life)
    # once anomalous, stays anomalous
    assert not np.any(np.diff(labels.astype(int)) < 0)


# --- engine split ------------------------------------------------------------

def make_runs(n, life=6):
    return [dataio.EngineRun(unit_id=u, features=np.full((life, 24), float(u)))
            for u in range(1, n + 1)]


def test_split_100_engines_80_20():
    split = dataio.split_engines(make_runs(100), 0.2, seed=7)
    assert len(split.train_engines) == 80
    assert len(split.test_engines) == 20
    assert not split.train_engines & split.test_engines


def test_split_5_engines_4_1():
    split = dataio.split_engines(make_runs(5), 0.2, seed=1)
    assert len(split.train_engines) == 4
    assert len(split.test_engines) == 1


def test_split_deterministic():
    runs = make_runs(30)
    assert dataio.split_engines(runs, 0.2, seed=9) == dataio.split_engines(runs, 0.2, seed=9)


def test_split_needs_two_engines():
    with pytest.raises(ValueError):
        dataio.split_engines(make_runs(1), 0.2, seed=0)


@given(n=st.integers(2, 40), fraction=st.floats(0.05, 0.95), seed=st.integers(0, 100))
@settings(max_examples=40)
def test_split_partitions_all_engines(n, fraction, seed):
    runs = make_runs(n)
    split = dataio.split_engines(runs, fraction, seed)
    assert split.train_engines | split.test_engines == set(range(1, n + 1))
    assert not split.train_engines & split.test_engines
    assert len(split.train_engines) >= 1 and len(split.test_engines) >= 1


# --- scaling -----------------------------------------------------------------

def test_scaler_single_zero_row():
    run = dataio.EngineRun(unit_id=1, features=np.zeros((1, 24)))
    scaler = dataio.fit_scaler([run])
    assert np.all(scaler.minimum == 0) and np.all(scaler.maximum == 0)
    assert np.all(dataio.apply_scaler(run, scaler).features == 0.0)


def test_scaler_midpoint_scales_to_half():
    features = np.zeros((10, 24))
    features[:, 0] = [1, 3, 2, 1, 3, 2, 1, 3, 2, 1]
    run = dataio.EngineRun(unit_id=1, features=features)
    scaler = dataio.fit_scaler([run])
    assert scaler.minimum[0] == 1 and scaler.maximum[0] == 3
    scaled = dataio.apply_scaler(run, scaler).features
    assert scaled[2, 0] == 0.5


def test_scaler_endpoints_and_linearity():
    features = np.tile(np.linspace(2.0, 4.0, 10)[:, None], (1, 24))
    run = dataio.EngineRun(unit_id=1, features=features)
    scaler = dataio.fit_scaler([run])
    lo, hi = scaler.minimum[0], scaler.maximum[0]
    probe = dataio.EngineRun(unit_id=2, features=np.tile(
        np.array([lo, hi, lo - (hi - lo)])[:, None], (1, 24)))
    scaled = dataio.apply_scaler(probe, scaler).features
    assert scaled[0, 0] == 0.0 and scaled[1, 0] == 1.0 and scaled[2, 0] == -1.0


def test_scaler_uses_only_normal_rows():
    features = np.zeros((10, 24))
    features[:6] = np.linspace(0, 1, 6)[:, None]
    run_a = dataio.EngineRun(unit_id=1, features=features.copy())
    perturbed = features.copy()
    perturbed[6:] = 1e6  # anomalous rows must not leak into the fit
    run_b = dataio.EngineRun(unit_id=1, features=perturbed)
    sa, sb = dataio.fit_scaler([run_a]), dataio.fit_scaler([run_b])
    assert np.array_equal(sa.minimum, sb.minimum)
    assert np.array_equal(sa.maximum, sb.maximum)


def test_scaler_empty_input_errors():
    with pytest.raises(ValueError):
        dataio.fit_scaler([])


def test_apply_scaler_does_not_clip():
    features = np.zeros((10, 24))
    features[:6, 0] = np.linspace(0, 1, 6)
    features[9, 0] = 5.0
    run = dataio.EngineRun(unit_id=1, features=features)
    scaled = dataio.apply_scaler(run, dataio.fit_scaler([run])).features
    assert scaled[9, 0] == 5.0


# --- per-engine row split -----------------------------------------------------

def test_normal_row_split_90_10():
    run = dataio.EngineRun(unit_id=1, features=np.zeros((100, 24)))
    train, val = dataio.normal_row_split(run)
    assert run.normal_count == 60
    assert (train.start, train.stop) == (0, 54)
    assert (val.start, val.stop) == (54, 60)


@given(life=st.integers(5, 400))
@settings(max_examples=40)
def test_normal_row_split_partitions_normal_range(life):
    run = dataio.EngineRun(unit_id=1, features=np.zeros((life, 24)))
    train, val = dataio.normal_row_split(run)
    assert train.start == 0
    assert train.stop == val.start
    assert val.stop == run.normal_count
    assert len(val) == int(math.floor(dataio.VAL_FRACTION * run.normal_count))


# --- serialization -------------------------------------------------------------

def test_write_cmapss_parse_round_trip(tmp_path):
    runs = dataio.synthetic_runs(n_engines=2, mean_life=20, seed=8)
    path = tmp_path / "train_FD00X.txt"
    dataio.write_cmapss(runs, path)
    back = dataio.parse_cmapss(path)
    assert len(back) == len(runs)
    for a, b in zip(runs, back):
        assert a.unit_id == b.unit_id
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


# --- synthetic surrogate ---------------------------------------------------------

def test_synthetic_runs_deterministic():
    a = dataio.synthetic_runs(n_engines=3, seed=2)
    b = dataio.synthetic_runs(n_engines=3, seed=2)
    assert [x.unit_id for x in a] == [y.unit_id for y in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_synthetic_runs_labels_and_shape():
    runs = dataio.synthetic_runs(n_engines=4, mean_life=50, seed=0)
    assert len(runs) == 4
    for run in runs:
        assert run.features.shape == (run.life_length, 24)
        assert run.normal_count == math.ceil(0.6 * run.life_length)
