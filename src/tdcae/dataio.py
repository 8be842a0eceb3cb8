"""Turbofan sensor-run parsing, labeling, engine-level splits and scaling.

The on-disk input format is the C-MAPSS plain-text layout: one record per
line, 26 whitespace-separated numeric fields (unit, cycle, 3 operational
settings, 21 sensors), no header. The 3 settings + 21 sensors form the
24-dimensional feature vector; unit and cycle are identifiers.

load_cmapss keeps what parse_cmapss read of a file in a binary sidecar,
<file>.tdcae.npz, keyed on the file's bytes, so the commands of one
pipeline parse each input file once.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_SETTINGS = 3
N_SENSORS = 21
N_FEATURES = N_SETTINGS + N_SENSORS
NORMAL_FRACTION = 0.6
VAL_FRACTION = 0.1
# load_cmapss's cache key starts with this tag; bump it whenever what
# parse_cmapss returns for some file changes
CACHE_FORMAT = b"tdcae-cmapss-cache-1\n"
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
    runs = _parse_table(path)
    return _parse_lines(path) if runs is None else runs


def _parse_table(path: Path) -> list[EngineRun] | None:
    """parse_cmapss in one np.loadtxt pass, or None if _parse_lines must decide.

    Returns runs only for a non-empty table of 26 finite columns whose unit
    and cycle ids are integers, each unit holding at least 5 rows with
    cycles 1..T once sorted stably by (unit, cycle): files _parse_lines
    accepts, read into the same arrays.
    """
    try:
        with warnings.catch_warnings():
            # an empty file warns; _parse_lines reads it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=np.float64, ndmin=2, comments=None)
    except (OSError, ValueError):  # _parse_lines raises its own error for the file
        return None
    if table.shape[0] == 0 or table.shape[1] != 2 + N_FEATURES or not np.isfinite(table).all():
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
    return _engine_runs(units[starts], counts, np.ascontiguousarray(table[order, 2:]))


def _engine_runs(units: np.ndarray, lengths: np.ndarray, features: np.ndarray) -> list[EngineRun]:
    """One EngineRun per unit, each a view of its consecutive rows of features."""
    ends = np.cumsum(lengths).tolist()
    return [EngineRun(unit_id=int(u), features=features[end - n:end])
            for u, n, end in zip(units.tolist(), lengths.tolist(), ends)]


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
            raise ParseError(
                f"{path.name}:{lineno}: expected {2 + N_FEATURES} fields, got {len(fields)}"
            )
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
            raise DataIntegrityError(
                f"{path.name}: unit {unit} cycles are not consecutive from 1"
            )
        if len(rows) < 5:
            # central differences and the smoothing windows need neighbors
            raise DataIntegrityError(f"{path.name}: unit {unit} has fewer than 5 cycles")
        runs.append(EngineRun(unit_id=unit, features=features))
    return runs


# --- parse cache ------------------------------------------------------------------

def load_cmapss(path: str | Path) -> list[EngineRun]:
    """parse_cmapss(path), read from the sidecar <path>.tdcae.npz when that
    holds the runs of the file's current bytes.

    The sidecar's key is the sha256 of CACHE_FORMAT followed by the file's
    bytes. Any other sidecar (missing, unreadable, stale or inconsistent) is
    ignored: the file is parsed, and its runs are written to the sidecar if
    the directory takes the write. A file that fails to parse raises
    parse_cmapss's error and is never cached. Nothing here raises an error
    of its own.
    """
    path = Path(path)
    key = _file_key(path)
    if key is None:
        return parse_cmapss(path)  # which raises the error that names the path
    sidecar = path.with_name(path.name + CACHE_SUFFIX)
    runs = _read_cache(sidecar, key)
    if runs is None:
        runs = parse_cmapss(path)
        # a file rewritten during the parse must not be cached under the old key
        if runs and _file_key(path) == key:
            _write_cache(sidecar, key, runs)
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


def _read_cache(sidecar: Path, key: str) -> list[EngineRun] | None:
    """The runs the sidecar holds under key, or None unless it holds a
    well-formed set: int64 units strictly increasing, int64 lengths of at
    least 5 rows summing to the rows of one finite [N x 24] float64 table."""
    try:
        with sidecar.open("rb") as fh, np.lib.npyio.NpzFile(fh) as cache:
            if cache["key"].shape != () or str(cache["key"]) != key:
                return None
            units, lengths, features = cache["units"], cache["lengths"], cache["features"]
    except Exception:
        # a damaged archive fails inside zipfile or numpy's .npy reader in many
        # ways (BadZipFile, NotImplementedError, RuntimeError, TokenError, ...);
        # every one of them is a miss
        return None
    ok = (units.dtype == lengths.dtype == np.int64 and features.dtype == np.float64
          and units.ndim == 1 and lengths.shape == units.shape and len(units) > 0
          and features.shape == (int(lengths.sum()), N_FEATURES)
          and lengths.min() >= 5 and np.all(units[1:] > units[:-1])
          and np.isfinite(features).all())
    return _engine_runs(units, lengths, np.ascontiguousarray(features)) if ok else None


def _write_cache(sidecar: Path, key: str, runs: list[EngineRun]) -> None:
    """Best effort: a unit id beyond int64 or a directory that refuses the
    write leaves no sidecar, and the next load parses the file again."""
    try:
        units = np.array([run.unit_id for run in runs], dtype=np.int64)
    except OverflowError:
        return
    buffer = io.BytesIO()
    np.savez(buffer, key=np.array(key), units=units,
             lengths=np.array([run.life_length for run in runs], dtype=np.int64),
             features=np.concatenate([run.features for run in runs]))
    try:
        atomic_write_bytes(sidecar, buffer.getbuffer())
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
    """Re-raise a ValueError or TypeError from the block as ValueError(f"{where}: {exc}").

    Nested from the file down to the field, it names where outside input is bad.
    """
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_json(path: str | Path):
    """The value a UTF-8 JSON file holds; an undecodable or malformed file
    fails as ValueError("<path>: not JSON: ...")."""
    with naming(f"{path}: not JSON"):
        return json.loads(Path(path).read_text(encoding="utf-8"))


# --- file output ---------------------------------------------------------------

def atomic_write_bytes(path: str | Path, data: bytes | memoryview) -> None:
    """Write via a sibling temp file and rename, so readers never see partials.

    Each call writes its own temp file, <name>.<random hex>.tmp, so writers
    of one path that run at once never rename each other's unfinished file;
    the last rename wins. The temp file is removed if the write fails.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """atomic_write_bytes of the UTF-8 encoded text."""
    atomic_write_bytes(path, text.encode())


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
