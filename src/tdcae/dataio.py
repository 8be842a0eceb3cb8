"""Turbofan sensor-run parsing, labeling, engine-level splits and scaling.

The on-disk input format is the C-MAPSS plain-text layout: one record per
line, 26 whitespace-separated numeric fields (unit, cycle, 3 operational
settings, 21 sensors), no header. The 3 settings + 21 sensors form the
24-dimensional feature vector; unit and cycle are identifiers.

load_cmapss keeps the table np.loadtxt read of a file in a binary sidecar,
<file>.tdcae.npz, keyed on the file's bytes, so the commands of one
pipeline parse each input file's text once.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
import zipfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

N_SETTINGS = 3
N_SENSORS = 21
N_FEATURES = N_SETTINGS + N_SENSORS
NORMAL_FRACTION = 0.6
VAL_FRACTION = 0.1
# load_cmapss's cache key starts with this tag; bump it whenever the
# sidecar's layout, or what parse_cmapss returns for some file, changes
CACHE_FORMAT = b"tdcae-cmapss-cache-2\n"
CACHE_SUFFIX = ".tdcae.npz"


class ParseError(ValueError):
    """Malformed input line (wrong field count, non-numeric or non-finite value)."""


class DataIntegrityError(ValueError):
    """Structurally valid file with inconsistent content (e.g. cycle gaps)."""


def normal_cycle_count(life_length: int) -> int:
    """Number of leading cycles labeled normal: ceil(0.6 * T)."""
    return math.ceil(NORMAL_FRACTION * life_length)


def assign_labels(life_length: int) -> np.ndarray:
    """Boolean label vector, True = anomalous (the trailing 40% of life)."""
    labels = np.ones(life_length, dtype=bool)
    labels[: normal_cycle_count(life_length)] = False
    return labels


@dataclass(eq=False)
class EngineRun:
    """One engine's cycle-indexed feature series with 60/40 labels.

    features is [T x 24] float64; labels is [T] bool with True marking the
    anomalous trailing 40% of the engine's life. Cycles are implicitly
    1..T (consecutiveness is enforced at parse time).
    """

    unit_id: int
    features: np.ndarray
    labels: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] != N_FEATURES:
            raise ValueError(f"features must be [T x {N_FEATURES}], got {self.features.shape}")
        if self.labels is None:
            self.labels = assign_labels(len(self.features))
        self.labels = np.asarray(self.labels, dtype=bool)
        if len(self.labels) != len(self.features):
            raise ValueError("labels length must match features length")

    @property
    def life_length(self) -> int:
        return len(self.features)

    @property
    def normal_count(self) -> int:
        return int(np.count_nonzero(~self.labels))

    def normal_features(self) -> np.ndarray:
        return self.features[~self.labels]


@dataclass(frozen=True)
class DatasetSplit:
    """Engine-level train/test partition."""

    train_engines: frozenset[int]
    test_engines: frozenset[int]

    def __post_init__(self):
        if self.train_engines & self.test_engines:
            raise ValueError("train and test engine sets overlap")


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min/max fitted on normal-label rows of training engines."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=np.float64))
        if self.minimum.shape != self.maximum.shape:
            raise ValueError("min/max shape mismatch")
        if not (np.all(np.isfinite(self.minimum)) and np.all(np.isfinite(self.maximum))):
            raise ValueError("min/max must be finite")
        if np.any(self.maximum < self.minimum):
            raise ValueError("max < min for some feature")


def parse_cmapss(path: str | Path) -> list[EngineRun]:
    """Parse a C-MAPSS text file into one labeled EngineRun per unit.

    Raises ParseError (with the 1-based line number) on malformed lines,
    non-finite values (nan, inf) or non-integer unit and cycle ids, and
    DataIntegrityError if any unit's cycles are not consecutive from 1.

    The file is read in one vectorised pass. Anything that pass does not
    accept as a whole, an empty file included, is read again line by line
    by _parse_lines, which names the line of the first error. Both give the
    same runs for every file the vectorised pass accepts.
    """
    path = Path(path)
    parsed = _parse_table(path)
    return _parse_lines(path) if parsed is None else parsed[0]


def _parse_table(path: Path) -> tuple[list[EngineRun], np.ndarray] | None:
    """parse_cmapss in one np.loadtxt pass, with its table; None if _parse_lines must decide."""
    try:
        with warnings.catch_warnings():
            # an empty file warns; _parse_lines reads it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=np.float64, ndmin=2, comments=None)
    except (OSError, ValueError):  # _parse_lines raises its own error for the file
        return None
    runs = _table_runs(table)
    return None if runs is None else (runs, table)


def _table_runs(table: np.ndarray) -> list[EngineRun] | None:
    """One EngineRun per unit of a [rows x 26] table, or None if _parse_lines must decide.

    Returns runs only for a non-empty float64 table of 26 finite columns
    whose unit and cycle ids are integers, each unit holding at least 5 rows
    with cycles 1..T once sorted stably by (unit, cycle): tables of files
    _parse_lines accepts, read into the same arrays.
    """
    if (table.dtype != np.float64 or table.ndim != 2 or table.shape[0] == 0
            or table.shape[1] != 2 + N_FEATURES or not np.isfinite(table).all()):
        return None
    ids = table[:, :2]
    if not np.all(ids == np.trunc(ids)):
        return None
    order = np.lexsort((ids[:, 1], ids[:, 0]))
    units, cycles = ids[order, 0], ids[order, 1]
    starts = np.flatnonzero(np.r_[True, units[1:] != units[:-1]])
    counts = np.diff(np.r_[starts, len(units)])
    first_row = np.repeat(starts, counts)
    if counts.min() < 5 or not np.array_equal(cycles, np.arange(len(units)) - first_row + 1):
        return None
    features = np.ascontiguousarray(table[order, 2:])
    return [EngineRun(unit_id=int(u), features=features[start:start + n])
            for u, start, n in zip(units[starts].tolist(), starts.tolist(), counts.tolist())]


def _parse_lines(path: Path) -> list[EngineRun]:
    """parse_cmapss line by line: the reference reader and the error path."""
    by_unit: dict[int, list[tuple[int, int, list[float]]]] = {}  # (cycle, line, values)
    # bytes.splitlines() ends lines where text mode's universal newlines do;
    # decoding each line alone lets an undecodable byte name its line
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            fields = raw.decode("utf-8").split()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path.name}:{lineno}: not UTF-8 text ({exc})") from None
        if not fields:
            continue  # tolerate blank lines
        if len(fields) != 2 + N_FEATURES:
            raise ParseError(f"{path.name}:{lineno}: expected {2 + N_FEATURES} fields, "
                             f"got {len(fields)}")
        try:
            unit_id, cycle_id = float(fields[0]), float(fields[1])
            unit, cycle = int(unit_id), int(cycle_id)
            values = [float(v) for v in fields[2:]]
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path.name}:{lineno}: non-numeric field ({exc})") from None
        if unit != unit_id or cycle != cycle_id:
            raise ParseError(f"{path.name}:{lineno}: unit and cycle must be integers, "
                             f"got {fields[0]} and {fields[1]}")
        by_unit.setdefault(unit, []).append((cycle, lineno, values))

    runs = []
    for unit in sorted(by_unit):
        rows = sorted(by_unit[unit], key=lambda r: r[0])
        features = np.array([v for _, _, v in rows], dtype=np.float64)
        finite = np.isfinite(features)
        if not finite.all():
            bad = rows[int(np.argmin(finite.all(axis=1)))]
            raise ParseError(f"{path.name}:{bad[1]}: non-finite field")
        cycles = [c for c, _, _ in rows]
        if cycles != list(range(1, len(rows) + 1)):
            raise DataIntegrityError(f"{path.name}: unit {unit} cycles are not consecutive from 1")
        if len(rows) < 5:
            # central differences and the smoothing windows need neighbors
            raise DataIntegrityError(f"{path.name}: unit {unit} has fewer than 5 cycles")
        runs.append(EngineRun(unit_id=unit, features=features))
    return runs


# --- parse cache ------------------------------------------------------------------

def load_cmapss(path: str | Path) -> list[EngineRun]:
    """parse_cmapss(path), read from the sidecar <path>.tdcae.npz when that
    holds the table of the file's current bytes.

    The sidecar holds the float64 table np.loadtxt read, keyed on the sha256
    of CACHE_FORMAT followed by the file's bytes, and yields runs only
    through the checks a parse applies to that table. Any other sidecar is
    ignored: the file is parsed, and its table is written to the sidecar if
    the directory takes the write. A file only the line loop reads, or one
    that fails to parse, is never cached. Nothing here raises its own error.
    """
    path = Path(path)
    key = _file_key(path)  # None for an unreadable file, whose parse raises the error
    sidecar = path.with_name(path.name + CACHE_SUFFIX)
    table = _read_cache(sidecar, key)
    runs = None if table is None else _table_runs(table)
    if runs is None:
        runs, table = _parse_table(path) or (_parse_lines(path), None)
        # a file rewritten during the parse must not be cached under the old key
        if table is not None and _file_key(path) == key:
            _write_cache(sidecar, key, table)
    return runs


def _file_key(path: Path) -> str | None:
    """The cache key of the file's bytes, read 1 MB at a time; None if unreadable."""
    import hashlib  # only the commands that read a dataset pay for the import

    digest = hashlib.sha256(CACHE_FORMAT)
    try:
        with path.open("rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def _read_cache(sidecar: Path, key: str | None) -> np.ndarray | None:
    """The table the sidecar holds under key, or None."""
    try:
        with sidecar.open("rb") as fh, np.lib.npyio.NpzFile(fh) as cache:
            if cache["key"].shape != () or str(cache["key"]) != key:
                return None
            return cache["table"]
    except Exception:
        # a damaged archive fails inside zipfile or numpy's .npy reader in many ways
        # (BadZipFile, NotImplementedError, RuntimeError, TokenError, ...): all misses
        return None


def _write_cache(sidecar: Path, key: str, table: np.ndarray) -> None:
    """Best effort: a directory that refuses the write leaves no sidecar, and
    the next load parses the file again.

    The archive is what np.savez writes for key and table, but the table's
    bytes go straight from its array to the file, not through a copy.
    """
    try:
        with atomic_writer(sidecar) as fh, zipfile.ZipFile(fh, "w") as archive:
            for name, array in (("key", np.array(key)), ("table", table)):
                with archive.open(f"{name}.npy", "w", force_zip64=True) as entry:
                    header = np.lib.format.header_data_from_array_1_0(array)
                    np.lib.format.write_array_header_1_0(entry, header)
                    entry.write(memoryview(array).cast("B"))
    except OSError:
        pass


def split_engines(runs: list[EngineRun], test_fraction: float, seed: int) -> DatasetSplit:
    """Partition whole engines into train/test with a seeded shuffle.

    Deterministic for a fixed seed; the test side gets round(n * fraction)
    engines, clamped so both sides are non-empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    units = sorted(run.unit_id for run in runs)
    if len(units) < 2:
        raise ValueError("need at least 2 engines to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(units))
    n_test = int(round(test_fraction * len(units)))
    n_test = min(max(n_test, 1), len(units) - 1)
    shuffled = [units[i] for i in order]
    return DatasetSplit(
        train_engines=frozenset(shuffled[n_test:]),
        test_engines=frozenset(shuffled[:n_test]),
    )


def fit_scaler(runs: list[EngineRun]) -> ScalerParams:
    """Per-feature min/max over the normal-labeled rows of the given runs."""
    normal_rows = [run.normal_features() for run in runs if run.normal_count > 0]
    if not normal_rows:
        raise ValueError("no normal-labeled rows to fit scaler on")
    pooled = np.vstack(normal_rows)
    return ScalerParams(minimum=pooled.min(axis=0), maximum=pooled.max(axis=0))


def apply_scaler(run: EngineRun, scaler: ScalerParams) -> EngineRun:
    """Min-max scale a run: (x - min) / (max - min), constant features to 0.

    Values outside the fitted range are NOT clipped; out-of-range excursions
    during degradation are exactly the signal downstream detection needs.
    """
    span = scaler.maximum - scaler.minimum
    safe = np.where(span > 0, span, 1.0)
    scaled = (run.features - scaler.minimum) / safe
    scaled[:, span == 0] = 0.0
    return EngineRun(unit_id=run.unit_id, features=scaled, labels=run.labels.copy())


def normal_row_split(run: EngineRun) -> tuple[range, range]:
    """Contiguous 90/10 split of a run's normal rows: (train range, val range).

    Contiguity preserves the temporal neighbors that central differences
    need; the validation block is the tail of the normal segment.
    """
    n_normal = run.normal_count
    n_train = n_normal - int(math.floor(VAL_FRACTION * n_normal))
    return range(0, n_train), range(n_train, n_normal)


# --- outside input -------------------------------------------------------------

@contextlib.contextmanager
def naming(where: str | Path) -> Iterator[None]:
    """Re-raise a ValueError, TypeError or OverflowError from the block as
    ValueError(f"{where}: {exc}"): nested from the file down to the field, it
    names where outside input is bad."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_json(path: str | Path):
    """The value a UTF-8 JSON file holds; an undecodable or malformed file
    fails as ValueError("<path>: not JSON: ...")."""
    with naming(f"{path}: not JSON"):
        return json.loads(Path(path).read_text(encoding="utf-8"))


# --- file output ---------------------------------------------------------------

@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file whose bytes replace path when the block ends, so readers
    never see partials.

    Each call writes its own sibling temp file, <name>.<random hex>.tmp, so
    writers of one path that run at once never rename each other's
    unfinished file; the last rename wins. If the block or the rename
    fails, the temp file is removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write the UTF-8 encoded text to path through atomic_writer."""
    with atomic_writer(path) as fh:
        fh.write(text.encode())


def write_cmapss(runs: list[EngineRun], path: str | Path) -> None:
    """Write runs in the raw 26-column C-MAPSS text layout (labels implied by 60/40)."""
    lines = []
    for run in runs:
        for t in range(run.life_length):
            values = " ".join(repr(float(v)) for v in run.features[t])
            lines.append(f"{run.unit_id} {t + 1} {values}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- synthetic surrogate ------------------------------------------------------

def synthetic_runs(
    n_engines: int = 12,
    mean_life: int = 160,
    seed: int = 0,
) -> list[EngineRun]:
    """Generate surrogate engine runs: bounded oscillatory channels plus a
    late-life monotone drift ramping in shortly before the 60/40 boundary.

    Degradation onset is at 55% of life so the labeled-anomalous region
    overlaps real drift, mimicking turbofan degradation data.
    """
    noise, drift_gain = 0.015, 3.0
    rng = np.random.default_rng(seed)
    runs = []
    for unit in range(1, n_engines + 1):
        T = int(rng.integers(int(0.8 * mean_life), int(1.2 * mean_life) + 1))
        t = np.arange(T, dtype=np.float64)
        base = rng.uniform(-1.0, 1.0, N_FEATURES)
        # period 5-12 cycles: inside the detector's smoothing window, so the
        # oscillation is averaged out at detection time yet gives central
        # differences real dynamics to learn at training time
        omega = rng.uniform(0.5, 1.2)
        phase = rng.uniform(0, 2 * np.pi, N_FEATURES)
        amp = rng.uniform(0.2, 0.6, N_FEATURES)
        direction = rng.choice([-1.0, 1.0], N_FEATURES) * rng.uniform(0.5, 1.5, N_FEATURES)
        onset = 0.55 * T
        ramp = np.clip((t - onset) / (T - onset), 0.0, None) ** 2
        features = (
            base
            + amp * np.sin(omega * t[:, None] + phase)
            + drift_gain * direction * ramp[:, None]
            + noise * rng.standard_normal((T, N_FEATURES))
        )
        # settings columns stay near-constant, like single-condition flight data
        features[:, :N_SETTINGS] = base[:N_SETTINGS] + noise * rng.standard_normal((T, N_SETTINGS))
        runs.append(EngineRun(unit_id=unit, features=features))
    return runs
