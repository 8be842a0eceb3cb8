import math
import warnings

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


# --- the vectorised pass against the line loop ------------------------------------

def assert_same_runs(got, want):
    assert [r.unit_id for r in got] == [r.unit_id for r in want]
    for a, b in zip(got, want):
        assert type(a.unit_id) is int
        assert a.features.dtype == b.features.dtype and a.features.flags.c_contiguous
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)


FIELD_FORMATS = [lambda v: repr(float(v)), "{:.6e}".format, "{:.3f}".format, "{:g}".format,
                 "{:+.4E}".format]


@st.composite
def cmapss_files(draw):
    """Text of a valid file: shuffled rows, blank lines, CRLF endings, '3.0'-style ids,
    exponents, negative values and uneven whitespace."""
    units = draw(st.lists(st.integers(-5, 300), min_size=1, max_size=4, unique=True))
    lives = [draw(st.integers(5, 12)) for _ in units]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for unit, life in zip(units, lives):
        for cycle in range(1, life + 1):
            ids = [f"{unit}.0" if draw(st.booleans()) else str(unit),
                   f"{cycle}.0" if draw(st.booleans()) else str(cycle)]
            values = rng.normal(size=24) * 10.0 ** rng.integers(-8, 9, size=24)
            fields = ids + [FIELD_FORMATS[k](v) for k, v in
                            zip(rng.integers(0, len(FIELD_FORMATS), size=24), values)]
            sep = draw(st.sampled_from([" ", "  ", "\t"]))
            lines.append(sep.join(fields) + draw(st.sampled_from(["", "  ", " \t"])))
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=60, deadline=None)
@given(text=cmapss_files())
def test_vectorised_pass_reads_every_valid_file_as_the_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("parse") / "train.txt"
    path.write_bytes(text.encode())
    fast = dataio._parse_table(path)
    assert fast is not None  # the vectorised pass took it
    want = dataio._parse_lines(path)
    assert_same_runs(fast, want)
    assert_same_runs(dataio.parse_cmapss(path), want)


def loop_error(path):
    with pytest.raises(ValueError) as loop:
        dataio._parse_lines(path)
    return type(loop.value), str(loop.value)


@pytest.mark.parametrize("edit, match", [
    (lambda rows: rows[2].append("#"), "train.txt:3: expected 26 fields, got 27"),
    (lambda rows: rows[2].extend(["#", "note"]), "train.txt:3: expected 26 fields, got 28"),
    (lambda rows: rows.insert(0, ["#", "unit", "cycle"]), "train.txt:1: expected 26 fields"),
    (lambda rows: rows[3].__setitem__(7, "1#2"), "train.txt:4: non-numeric field"),
    (lambda rows: rows[1].__setitem__(0, "nan"), "train.txt:2: non-numeric field"),
    (lambda rows: rows[4].__setitem__(1, "nan"), "train.txt:5: non-numeric field"),
    (lambda rows: rows[5].__setitem__(0, "-inf"), "train.txt:6: non-numeric field"),
    (lambda rows: rows[0].__setitem__(1, "inf"), "train.txt:1: non-numeric field"),
], ids=["hash_field", "hash_comment", "hash_header", "hash_in_value", "nan_unit",
        "nan_cycle", "inf_unit", "inf_cycle"])
def test_files_the_vectorised_pass_refuses_fail_as_the_line_loop(tmp_path, edit, match):
    path = tmp_path / "train.txt"
    rows = raw_rows(1, range(1, 7))
    edit(rows)
    write_raw(path, rows)
    assert dataio._parse_table(path) is None
    with pytest.raises(dataio.ParseError, match=match) as fast:
        dataio.parse_cmapss(path)
    assert (type(fast.value), str(fast.value)) == loop_error(path)


def test_unreadable_path_fails_as_the_line_loop(tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        with pytest.raises(OSError) as fast:
            dataio.parse_cmapss(path)
        with pytest.raises(OSError) as loop:
            dataio._parse_lines(path)
        assert (type(fast.value), str(fast.value)) == (type(loop.value), str(loop.value))

def test_underscored_ids_are_read_by_the_line_loop(tmp_path):
    # float() accepts "1_0" as 10.0 and np.loadtxt refuses it: the loop decides
    path = tmp_path / "train.txt"
    rows = raw_rows(10, range(1, 7))
    for row in rows:
        row[0] = "1_0"
    rows[2][1] = "0_3"
    write_raw(path, rows)
    assert dataio._parse_table(path) is None
    runs = dataio.parse_cmapss(path)
    assert [run.unit_id for run in runs] == [10] and runs[0].life_length == 6
    assert_same_runs(runs, dataio._parse_lines(path))


@pytest.mark.parametrize("text", ["", "\n\n", "  \r\n\t\n"], ids=["empty", "blank", "space"])
def test_empty_file_gives_no_runs_and_no_warning(tmp_path, text):
    path = tmp_path / "train.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dataio.parse_cmapss(path) == []


@pytest.mark.parametrize("rows, error", [
    (raw_rows(1, [1, 2, 3, 5, 6, 7]), "unit 1 cycles are not consecutive"),
    (raw_rows(1, [1, 2, 2, 3, 4, 5]), "unit 1 cycles are not consecutive"),
    (raw_rows(1, range(1, 7)) + raw_rows(2, range(1, 5)), "unit 2 has fewer than 5"),
    (raw_rows(2, range(1, 7)) + raw_rows(1, range(2, 8)), "unit 1 cycles are not consecutive"),
], ids=["gap", "repeat", "short", "late_start"])
def test_integrity_errors_come_from_the_line_loop(tmp_path, rows, error):
    path = tmp_path / "train.txt"
    write_raw(path, rows)
    with pytest.raises(dataio.DataIntegrityError, match=error) as fast:
        dataio.parse_cmapss(path)
    assert (type(fast.value), str(fast.value)) == loop_error(path)

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
