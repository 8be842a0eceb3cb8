import errno
import io
import math
import os
import sys
import threading
import warnings
from unittest import mock

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
        with pytest.raises(OSError) as loop:
            dataio._parse_lines(path)
        for read in (dataio.parse_cmapss, dataio.load_cmapss):
            with pytest.raises(OSError) as fast:
                read(path)
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
        assert dataio.load_cmapss(path) == []
    assert [p.name for p in tmp_path.iterdir()] == ["train.txt"]  # nothing to cache


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


# --- the parse cache ---------------------------------------------------------------

def sidecar_of(path):
    return path.with_name(path.name + ".tdcae.npz")


def no_parse(path):
    raise AssertionError(f"{path} parsed; the sidecar should have answered")


@settings(max_examples=40, deadline=None)
@given(text=cmapss_files())
def test_cache_miss_then_hit_give_the_parsed_runs(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cache") / "train.txt"
    path.write_bytes(text.encode())
    want = dataio.parse_cmapss(path)
    assert_same_runs(dataio.load_cmapss(path), want)  # miss: parses and writes
    assert sidecar_of(path).is_file()
    with mock.patch.object(dataio, "parse_cmapss", no_parse):
        assert_same_runs(dataio.load_cmapss(path), want)  # hit


def cached_file(tmp_path):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(1, range(1, 9)) + raw_rows(4, range(1, 7), value=2.0))
    dataio.load_cmapss(path)
    assert sidecar_of(path).is_file()
    return path


def test_edited_file_is_parsed_again(tmp_path):
    path = cached_file(tmp_path)
    old = dataio.load_cmapss(path)
    text = path.read_text()
    assert "\n1 8 0.08 " in text  # unit 1, cycle 8, first setting
    path.write_text(text.replace("\n1 8 0.08 ", "\n1 8 0.09 "))  # same size, one digit
    runs = dataio.load_cmapss(path)
    assert_same_runs(runs, dataio.parse_cmapss(path))
    assert runs[0].features[7, 0] == 0.09 and old[0].features[7, 0] == 0.08
    with mock.patch.object(dataio, "parse_cmapss", no_parse):
        assert_same_runs(dataio.load_cmapss(path), runs)  # the sidecar was rewritten


def saved_bytes(save, *args, **kwargs):
    buffer = io.BytesIO()
    save(buffer, *args, **kwargs)
    return buffer.getvalue()


def rewrite_sidecar(**changes):
    """A sidecar whose arrays are the good ones with `changes` applied."""
    def damage(good):
        with np.load(io.BytesIO(good)) as z:
            arrays = dict(z)
        arrays.update({k: v(arrays) for k, v in changes.items()})
        return saved_bytes(np.savez, **{k: v for k, v in arrays.items() if v is not None})
    return damage


def flip_bytes(seed):
    def damage(good):
        rng = np.random.default_rng(seed)
        bad = bytearray(good)
        for at in rng.integers(0, len(bad), size=3):
            bad[at] ^= 0xFF
        return bytes(bad)
    return damage


SIDECAR_DAMAGE = {
    "empty": lambda good: b"",
    "truncated_head": lambda good: good[:30],
    "truncated_half": lambda good: good[:len(good) // 2],
    "truncated_tail": lambda good: good[:-1],
    "not_an_archive": lambda good: b"C-MAPSS\n" * 64,
    "bare_npy": lambda good: saved_bytes(np.save, np.zeros(3)),
    "wrong_key": rewrite_sidecar(key=lambda a: np.array("0" * 64)),
    "key_array": rewrite_sidecar(key=lambda a: a["key"][None]),
    "no_features": rewrite_sidecar(features=lambda a: None),
    "features_23_wide": rewrite_sidecar(features=lambda a: a["features"][:, :23]),
    "features_float32": rewrite_sidecar(features=lambda a: a["features"].astype(np.float32)),
    "features_nan": rewrite_sidecar(features=lambda a: np.where(a["features"] > 1, np.nan,
                                                                a["features"])),
    "lengths_off_by_one": rewrite_sidecar(lengths=lambda a: a["lengths"] + [1, -2]),
    "lengths_short": rewrite_sidecar(lengths=lambda a: np.array([4, a["lengths"].sum() - 4])),
    "lengths_int32": rewrite_sidecar(lengths=lambda a: a["lengths"].astype(np.int32)),
    "units_unsorted": rewrite_sidecar(units=lambda a: a["units"][::-1].copy()),
    "units_2d": rewrite_sidecar(units=lambda a: a["units"][None]),
    "no_units": rewrite_sidecar(units=lambda a: np.zeros(0, np.int64),
                                lengths=lambda a: np.zeros(0, np.int64),
                                features=lambda a: np.zeros((0, 24))),
    **{f"flipped_{seed}": flip_bytes(seed) for seed in range(6)},
}


@pytest.mark.parametrize("damage", SIDECAR_DAMAGE.values(), ids=SIDECAR_DAMAGE.keys())
def test_damaged_sidecar_is_a_miss_and_is_rewritten(tmp_path, damage):
    path = cached_file(tmp_path)
    sidecar = sidecar_of(path)
    good = sidecar.read_bytes()
    sidecar.write_bytes(damage(good))
    want = dataio.parse_cmapss(path)
    assert_same_runs(dataio.load_cmapss(path), want)
    assert sidecar.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.txt", "train.txt.tdcae.npz"]


def test_sidecar_of_another_cache_format_is_a_miss(tmp_path, monkeypatch):
    path = cached_file(tmp_path)
    monkeypatch.setattr(dataio, "CACHE_FORMAT", dataio.CACHE_FORMAT + b"next\n")
    calls = []
    monkeypatch.setattr(dataio, "parse_cmapss", lambda p: calls.append(p) or [])
    assert dataio.load_cmapss(path) == [] and calls == [path]


def refuse_new_files(monkeypatch):
    """Make every file creation fail as it does in a read-only directory."""
    real_open = os.open

    def read_only_open(file, flags, *args, **kwargs):
        if flags & os.O_CREAT:
            raise PermissionError(errno.EACCES, "Permission denied", str(file))
        return real_open(file, flags, *args, **kwargs)
    monkeypatch.setattr(os, "open", read_only_open)


def test_read_only_directory_parses_and_writes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(2, range(1, 9)))
    mode = tmp_path.stat().st_mode
    tmp_path.chmod(0o555)  # refuses writes unless the tests run as root
    refuse_new_files(monkeypatch)
    try:
        for _ in range(2):
            assert_same_runs(dataio.load_cmapss(path), dataio.parse_cmapss(path))
        assert [p.name for p in tmp_path.iterdir()] == ["train.txt"]
    finally:
        tmp_path.chmod(mode)


@pytest.mark.parametrize("rows, match", [
    (raw_rows(1, range(1, 4)) + [[1, 4, 0.5]] + raw_rows(1, range(5, 9)),
     r"^train\.txt:4: expected 26 fields, got 3$"),
    (raw_rows(1, range(1, 6)) + [[1, 6] + ["x"] * 24], r"^train\.txt:6: non-numeric field"),
    (raw_rows(1, [1, 2, 3, 5, 6, 7]), r"^train\.txt: unit 1 cycles are not consecutive"),
], ids=["field_count", "non_numeric", "cycle_gap"])
def test_malformed_file_fails_the_same_on_every_load_and_is_not_cached(tmp_path, rows, match):
    path = tmp_path / "train.txt"
    write_raw(path, rows)
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            dataio.load_cmapss(path)
    assert [p.name for p in tmp_path.iterdir()] == ["train.txt"]


def test_undecodable_line_fails_naming_it_on_every_load(tmp_path):
    path = tmp_path / "train.txt"
    dataio.write_cmapss(dataio.synthetic_runs(n_engines=4, mean_life=20, seed=2), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[6] = lines[6].rstrip(b"\n") + b" \xe9\n"
    path.write_bytes(b"".join(lines))
    for _ in range(2):
        with pytest.raises(dataio.ParseError, match=r"^train\.txt:7: not UTF-8 text"):
            dataio.load_cmapss(path)
    assert [p.name for p in tmp_path.iterdir()] == ["train.txt"]


def test_unit_id_beyond_int64_is_read_but_not_cached(tmp_path):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(10 ** 19, range(1, 7)))
    assert [run.unit_id for run in dataio.load_cmapss(path)] == [10 ** 19]
    assert [p.name for p in tmp_path.iterdir()] == ["train.txt"]


def test_file_rewritten_during_the_parse_is_not_cached(tmp_path, monkeypatch):
    path = tmp_path / "train.txt"
    write_raw(path, raw_rows(1, range(1, 7)))
    parse = dataio.parse_cmapss

    def parse_then_rewrite(p):
        runs = parse(p)
        write_raw(path, raw_rows(2, range(1, 7)))
        return runs
    monkeypatch.setattr(dataio, "parse_cmapss", parse_then_rewrite)
    assert [run.unit_id for run in dataio.load_cmapss(path)] == [1]
    assert not sidecar_of(path).exists()


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

def test_atomic_write_leaves_no_temp_file_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old\n")

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        dataio.atomic_write_text(path, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert path.read_text() == "old\n"


def test_concurrent_writers_of_one_path_never_expose_a_partial_file(tmp_path):
    # with one shared temp name, a writer could rename another's half-written file
    path = tmp_path / "out.bin"
    payloads = [bytes([k]) * (1 << 20) for k in range(4)]
    path.write_bytes(payloads[0])
    errors = []

    def writer(data):
        try:
            for _ in range(15):
                dataio.atomic_write_bytes(path, data)
        except OSError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            assert path.read_bytes() in payloads
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert path.read_bytes() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


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
