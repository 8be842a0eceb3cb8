"""Command-line pipeline: simulate, train, detect, diagnose, report.

Config lives in an INI file with sections [run], [training], [detector] and
[pendulum]; every flag overrides its file value. All randomness flows from
one root seed (--seed / [run] seed) expanded per component as

    component_seed(root, name) = SeedSequence([root, crc32(name)]) state[0]

so the engine split, synthetic data and threshold-search order stay fixed
while the training seeds vary. Output files carry no timestamps; a command
rerun with the same config and seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import sys
import warnings
import zlib
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import dataio, detector, diagnostics, net, pendulum, tdc


def component_seed(root_seed: int, name: str) -> int:
    """Derive an independent stream seed for a named component."""
    seq = np.random.SeedSequence([int(root_seed), zlib.crc32(name.encode())])
    return int(seq.generate_state(1)[0])


def write_json(path: Path, payload: dict) -> None:
    """Standard JSON: a NaN or infinity raises, so a value that does not exist is None."""
    dataio.atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True,
                                              allow_nan=False) + "\n")


# --- config assembly -----------------------------------------------------------

SUBSETS = ("FD001", "FD003", "synthetic")


def parse_seeds(text: str) -> tuple[int, ...]:
    """A seed list separated by commas and/or spaces: at least one integer."""
    seeds = tuple(int(s) for s in text.replace(",", " ").split())
    if not seeds:
        raise ValueError("empty seed list")
    return seeds


@dataclass(frozen=True)
class RunConfig:
    """[run]: the root seed, the training seeds (empty: train the root seed),
    the output directory and the data source."""

    seed: int = 0
    seeds: tuple[int, ...] = ()
    out: str = "out"
    subset: str = "synthetic"
    dataset: str | None = None
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must be non-negative, not {min(self.seeds)}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ValueError(f"seeds repeat {', '.join(map(str, repeated))}")
        if self.subset not in SUBSETS:
            raise ValueError(f"subset must be one of {', '.join(SUBSETS)}, not {self.subset!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), not {self.test_fraction}")


# INI section -> (config dataclass, fields a file may not set). A training
# run's seed is derived from each --seeds entry, input_dim is fixed by the
# data, and the detector's latent width comes from the checkpoint.
CONFIG_SECTIONS = {
    "run": (RunConfig, set()),
    "training": (tdc.TrainingConfig, {"seed", "input_dim"}),
    "detector": (detector.DetectorConfig, {"latent_dim"}),
    "pendulum": (pendulum.PendulumConfig, set()),
}

_GETTERS = {int: configparser.ConfigParser.getint, float: configparser.ConfigParser.getfloat,
            bool: configparser.ConfigParser.getboolean, str: configparser.ConfigParser.get,
            str | None: configparser.ConfigParser.get,
            tuple[int, ...]: lambda cp, section, key: parse_seeds(cp.get(section, key))}


def section_fields(section: str) -> dict[str, type]:
    """The keys an INI section accepts, each with the type it is cast to."""
    cls, excluded = CONFIG_SECTIONS[section]
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in excluded}


def load_config(path: str | None) -> configparser.ConfigParser:
    """Read an INI file, rejecting malformed files, unknown sections or keys and
    values that do not cast to their key's type. Values are literal: no % interpolation.
    """
    cp = configparser.ConfigParser(interpolation=None)
    if path is None:
        return cp
    if not Path(path).is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    with dataio.naming(path):
        with open(path, encoding="utf-8") as fh:
            try:
                cp.read_file(fh)
            except configparser.Error as exc:
                raise ValueError(f"malformed config: {exc}") from None
        if cp.defaults():
            raise ValueError(f"unknown section [{cp.default_section}]")
        for section in cp.sections():
            if section not in CONFIG_SECTIONS:
                raise ValueError(f"unknown section [{section}]")
            known = section_fields(section)
            for key in cp.options(section):
                if key not in known:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                with dataio.naming(f"[{section}] {key}"):
                    _GETTERS[known[key]](cp, section, key)
    return cp


@contextlib.contextmanager
def _naming_section(args, section: str):
    """Re-raise a ValueError from the block naming the section, and the --config
    file if one was given."""
    try:
        yield
    except ValueError as exc:
        source = getattr(args, "config", None)
        raise ValueError(f"{source + ': ' if source else ''}[{section}] {exc}") from None


def _section_config(cp: configparser.ConfigParser, section: str, args, **overrides):
    """Build a section's dataclass: its defaults, then file values, then overrides.

    A value the dataclass rejects fails naming the section.
    """
    values = {key: _GETTERS[kind](cp, section, key)
              for key, kind in section_fields(section).items() if cp.has_option(section, key)}
    with _naming_section(args, section):
        return CONFIG_SECTIONS[section][0](**{**values, **overrides})


def training_config(cp: configparser.ConfigParser, args) -> tdc.TrainingConfig:
    """[training] under the flags."""
    flags = {name: getattr(args, name, None) for name in ("epochs", "alpha", "latent_dim")}
    if getattr(args, "stop_gradient", False):
        flags["stop_gradient"] = True
    return _section_config(cp, "training", args,
                           **{k: v for k, v in flags.items() if v is not None})


def detector_config(cp: configparser.ConfigParser, args,
                    latent_dim: int | None = None) -> detector.DetectorConfig:
    """[detector] for a latent space of latent_dim nodes (the dataclass default if None)."""
    width = {} if latent_dim is None else {"latent_dim": latent_dim}
    return _section_config(cp, "detector", args, **width)


def pendulum_config(cp: configparser.ConfigParser, args) -> pendulum.PendulumConfig:
    no_drift = {"drift_alpha": 0.0, "drift_beta": 0.0} if getattr(args, "no_drift", False) else {}
    return _section_config(cp, "pendulum", args, **no_drift)


def run_config(cp: configparser.ConfigParser, args) -> RunConfig:
    """[run] under the --seed, --seeds, --out, --subset and --data (dataset) flags."""
    flags = {"seed": getattr(args, "seed", None), "out": getattr(args, "out", None),
             "subset": getattr(args, "subset", None), "dataset": getattr(args, "data", None)}
    if getattr(args, "seeds", None) is not None:
        with dataio.naming("--seeds"):
            flags["seeds"] = parse_seeds(args.seeds)
    return _section_config(cp, "run", args, **{k: v for k, v in flags.items() if v is not None})


def root_seed(cp, args) -> int:
    return run_config(cp, args).seed


def seed_list(cp, args) -> list[int]:
    """The training seeds: --seeds, else [run] seeds, else the root seed."""
    cfg = run_config(cp, args)
    return list(cfg.seeds) or [cfg.seed]


def output_dir(cp, args) -> Path:
    out = Path(run_config(cp, args).out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def load_runs(run: RunConfig) -> list[dataio.EngineRun]:
    """The engines of [run]'s subset: synthetic ones from its root seed, or a C-MAPSS file."""
    if run.subset == "synthetic":
        if run.dataset is not None:
            raise ValueError(f"dataset {run.dataset} is read only for a C-MAPSS subset; "
                             "add --subset FD001 or FD003 (subset synthetic reads no file)")
        return dataio.synthetic_runs(seed=component_seed(run.seed, "synthetic-data"))
    if run.dataset is None:
        raise FileNotFoundError(
            f"subset {run.subset} needs a dataset path (--data or [run] dataset)")
    path = Path(run.dataset)
    if path.is_dir():
        path = path / f"train_{run.subset}.txt"
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    return dataio.load_cmapss(path)


def select_runs(runs, units) -> list[dataio.EngineRun]:
    chosen = [run for run in runs if run.unit_id in units]
    if len(chosen) != len(units):
        missing = sorted(set(units) - {run.unit_id for run in chosen})
        raise ValueError(f"dataset is missing engines {missing} named by the checkpoint")
    return chosen


# --- subcommands ------------------------------------------------------------------

def cmd_simulate(cp, args) -> int:
    cfg = pendulum_config(cp, args)
    traj = pendulum.simulate(cfg)
    start, stop = 100, min(1000, len(traj) - 1)
    with _naming_section(args, "pendulum"):
        if stop - start < diagnostics.BOX_COUNTING_MIN_POINTS:
            raise ValueError(f"t_end {cfg.t_end} at dt {cfg.dt} is too short for box counting: "
                             f"steps [{start}, {stop}) hold {max(0, stop - start)} points and "
                             f"the fit needs {diagnostics.BOX_COUNTING_MIN_POINTS}")
        points = pendulum.phase_slice(traj, start, stop)
        try:
            est, counts = diagnostics.box_counting_fit(points)
        except ValueError as exc:
            raise ValueError(f"box counting on steps [{start}, {stop}) failed: {exc}") from None
    out = output_dir(cp, args)
    pendulum.write_trajectory_csv(traj, out / "trajectory.csv")
    write_json(out / "box_counting.json", {
        "slope": est.value,
        "fit_residual": est.std,
        "n_points": est.n_samples,
        "window_steps": [start, stop],
        "epsilons": list(diagnostics.DEFAULT_EPSILONS),
        "counts": [int(c) for c in counts],
        "theta_range": [float(traj.theta.min()), float(traj.theta.max())],
        "theta_dot_range": [float(traj.theta_dot.min()), float(traj.theta_dot.max())],
    })
    print(f"wrote {out / 'trajectory.csv'} ({len(traj)} steps) and "
          f"{out / 'box_counting.json'} (slope {est.value:.3f})")
    return 0


def _train_seed(seed: int, base, train_set, val_set, out: Path, scaler, split) -> dict:
    """Train one seed, write its checkpoint and loss CSV, and return its summary entry."""
    cfg = replace(base, seed=component_seed(seed, "training"))
    params, history = tdc.train(train_set, val_set, cfg)
    ckpt = out / f"checkpoint_seed{seed}.json"
    loss_csv = out / f"loss_seed{seed}.csv"
    net.save_checkpoint(ckpt, params, seed=seed, scaler=scaler, split=split,
                        training_config=asdict(cfg))
    tdc.write_loss_history(history, loss_csv)
    last = history[-1]
    return {
        "seed": seed, "checkpoint": ckpt.name, "loss_csv": loss_csv.name,
        "first_rec": history[0].rec, "first_tdc": history[0].tdc,
        "final_rec": last.rec, "final_tdc": last.tdc,
        # null when no engine leaves a validation triplet
        "final_val_rec": None if math.isnan(last.val_rec) else last.val_rec,
        "final_val_tdc": None if math.isnan(last.val_tdc) else last.val_tdc,
    }


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# The OpenBLAS symbol names numpy's wheels export, as (prefix, suffix): numpy
# 2's scipy-openblas, then numpy 1's 64-bit-integer and plain builds.
OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


def openblas_threads():
    """(get, set) for the thread count of the OpenBLAS this process has loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    import ctypes
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in OPENBLAS_NAMES:
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_worker_train = None  # set in each pool worker by _start_worker, never in the parent


def _start_worker(train_one) -> None:
    global _worker_train
    _worker_train = train_one


def _train_in_worker(seed: int) -> tuple:
    """(entry, None, warnings) or (None, error, warnings) of the seed: the
    warnings it raised as (message, category, filename, lineno), shown by no
    one yet."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            entry, error = _worker_train(seed), None
        except Exception as exc:
            from multiprocessing.pool import ExceptionWithTraceback
            # wrapped as Pool wraps what a worker raises: the parent's traceback
            # then shows the worker's stack
            entry, error = None, ExceptionWithTraceback(exc, exc.__traceback__)
    return entry, error, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _show_worker_warnings(caught: list[tuple]) -> None:
    """Re-emit a worker's warnings under this process's filters, each through the
    registry of the module that raised it, as warnings.warn would: one that
    every seed raises prints once, as it does when the seeds train in turn."""
    modules = {getattr(m, "__file__", None): m for m in sys.modules.values()}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno,
                               getattr(module, "__name__", None), registry)


def train_seeds(train_one, seeds: list[int]):
    """train_one(seed) for each seed, yielded in seed order.

    Two or more seeds on two or more usable CPUs train side by side in
    forked workers with one OpenBLAS thread each: a batch-32 matmul gains
    nothing from a second. The parent sets that count around the pool and
    the workers inherit it; set in a worker, OpenBLAS restarts its thread
    pool there, and the new thread spins beside the training. Fork, not
    spawn, so no worker imports the package again or unpickles the data;
    OpenBLAS's own fork handler stops its threads before each fork. Without
    fork or OpenBLAS, the seeds train in turn and write the same bytes. A
    worker records the warnings its seed raises, and the parent shows them
    at that seed, before its entry or its error; a worker's exception is
    raised at its seed and stops the pool.
    """
    workers = min(len(seeds), usable_cpus())
    blas = openblas_threads() if workers > 1 else None
    if blas is not None:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            get_blas_threads, set_blas_threads = blas
            threads = get_blas_threads()
            set_blas_threads(1)
            try:
                # named: Python 3.14 makes another start method the default
                context = multiprocessing.get_context("fork")
                with context.Pool(workers, _start_worker, (train_one,)) as pool:
                    for entry, error, caught in pool.imap(_train_in_worker, seeds):
                        _show_worker_warnings(caught)
                        if error is not None:
                            raise error
                        yield entry
            finally:
                set_blas_threads(threads)
            return
    yield from map(train_one, seeds)


def cmd_train(cp, args) -> int:
    run = run_config(cp, args)
    base = training_config(cp, args)
    runs = load_runs(run)
    out = output_dir(cp, args)
    split = dataio.split_engines(runs, run.test_fraction, component_seed(run.seed, "engine-split"))
    train_runs = select_runs(runs, split.train_engines)
    scaler = dataio.fit_scaler(train_runs)
    scaled_train = [dataio.apply_scaler(r, scaler) for r in train_runs]
    # one pair of triplet sets, built before any fork, serves every seed
    train_set = tdc.make_triplets(scaled_train, "train")
    val_set = tdc.make_triplets(scaled_train, "val")
    del runs, train_runs, scaled_train  # training reads only the sets' tables

    train_one = partial(_train_seed, base=base, train_set=train_set, val_set=val_set, out=out,
                        scaler=scaler, split=split)
    summary = []
    for entry in train_seeds(train_one, seed_list(cp, args)):
        summary.append(entry)
        print(f"seed {entry['seed']}: rec {entry['first_rec']:.5f} -> {entry['final_rec']:.5f}, "
              f"tdc {entry['first_tdc']:.5f} -> {entry['final_tdc']:.5f} "
              f"({out / entry['checkpoint']})")
    write_json(out / "train_summary.json", {
        "n_engines_train": len(split.train_engines),
        "n_engines_test": len(split.test_engines),
        "runs": summary,
    })
    return 0


def _checkpoint_engines(cp, args):
    """--checkpoint's record and its split's train and test engines, scaled by its scaler.

    The split's training engines must refit the checkpoint's scaler bit for
    bit; otherwise the data is not what the checkpoint was trained on.
    """
    ckpt = net.load_checkpoint(args.checkpoint)
    runs = load_runs(run_config(cp, args))
    train_runs, test_runs = (select_runs(runs, units) for units in
                             (ckpt["split"].train_engines, ckpt["split"].test_engines))
    scaler = ckpt["scaler"]
    fitted = dataio.fit_scaler(train_runs)
    if not (np.array_equal(fitted.minimum, scaler.minimum)
            and np.array_equal(fitted.maximum, scaler.maximum)):
        raise ValueError(f"{args.checkpoint}: the data is not what the checkpoint was trained "
                         "on: its training engines fit another scaler (for the surrogate, "
                         "pass the training --seed)")
    return (ckpt, [dataio.apply_scaler(r, scaler) for r in train_runs],
            [dataio.apply_scaler(r, scaler) for r in test_runs])


def cmd_detect(cp, args) -> int:
    ckpt, train_runs, test_runs = _checkpoint_engines(cp, args)
    params = ckpt["params"]
    det_cfg = detector_config(cp, args, latent_dim=net.latent_dim(params))
    out = output_dir(cp, args)

    latents_train = [tdc.infer_latent(params, r) for r in train_runs]
    thresholds = detector.fit_thresholds(detector.normalize_fleet(latents_train, det_cfg), det_cfg)

    if args.engines == "train":
        target_runs, latents = train_runs, latents_train
    else:
        target_runs, latents = test_runs, [tdc.infer_latent(params, r) for r in test_runs]
    results, summary = detector.run_detector(latents, target_runs, thresholds, det_cfg)

    detector.write_detections_csv(results, target_runs, out / "detections.csv")
    write_json(out / "metrics.json", {
        "engines": args.engines,
        "metrics": summary.as_dict(),
        "thresholds": {"upper": list(thresholds.upper), "lower": list(thresholds.lower)},
        "mac": detector.mac_report(params),
    })
    print(f"{args.engines} engines: acc {summary.accuracy:.4f} prec {summary.precision:.4f} "
          f"rec {summary.recall:.4f} f1 {summary.f1:.4f} cdr {summary.cdr:.4f}")
    return 0


def cmd_diagnose(cp, args) -> int:
    ckpt, train_runs, test_runs = _checkpoint_engines(cp, args)
    out = output_dir(cp, args)
    params = ckpt["params"]

    two_nn = diagnostics.two_nn_by_engine(train_runs)
    test_rows = np.vstack([r.features for r in test_runs])
    rank = diagnostics.jacobian_rank_survey(params, test_rows)
    min_ratio, violations = diagnostics.injectivity_ratio_survey(
        params, test_rows, seed=component_seed(root_seed(cp, args), "injectivity"))

    latents_train = [tdc.infer_latent(params, r) for r in train_runs]
    windows = [(0, r.normal_count) for r in train_runs]
    latents_test = [tdc.infer_latent(params, r) for r in test_runs]
    labels_test = [r.labels for r in test_runs]

    write_json(out / "diagnostics.json", {
        "two_nn": two_nn.as_dict(),
        "recommended_latent_dim": diagnostics.recommend_embedding_dim(two_nn.value),
        "jacobian_rank": rank.as_dict(),
        "injectivity": {"min_ratio": min_ratio, "violations": violations,
                        "floor": diagnostics.INJECTIVITY_FLOOR,
                        "n_samples": int(len(test_rows))},
        "eta_train": diagnostics.eta_table(latents_train, windows),
        "rho_test": diagnostics.rho_table(latents_test, labels_test, dt=ckpt["training_config"]["dt"]),
    })
    print(f"two-NN {two_nn.value:.2f} +/- {two_nn.std:.2f}; "
          f"full-rank fraction {rank.full_rank_fraction:.4f}; "
          f"injectivity violations {violations}")
    return 0


REPORT_KEYS = ("accuracy", "precision", "recall", "specificity", "f1", "cdr")


def read_metrics(path: str) -> dict:
    """The "metrics" object of a detect metrics.json: every report key, each a number."""
    payload = dataio.read_json(path)
    with dataio.naming(path):
        metrics = payload.get("metrics") if isinstance(payload, dict) else None
        if not isinstance(metrics, dict):
            raise ValueError('no "metrics" object; expected a metrics.json from detect')
        missing = [k for k in REPORT_KEYS if k not in metrics]
        if missing:
            raise ValueError(f"metrics lack {', '.join(missing)}")
        for key in REPORT_KEYS:
            if isinstance(metrics[key], bool) or not isinstance(metrics[key], (int, float)):
                raise ValueError(f"metrics: {key} must be a number")
            if not abs(metrics[key]) <= sys.float_info.max:  # nan, inf or an int beyond float64
                raise ValueError(f"metrics: {key} must be finite, got {metrics[key]}")
    return metrics


def cmd_report(cp, args) -> int:
    rows = [read_metrics(path) for path in args.metrics]
    out = output_dir(cp, args)
    table = {k: {"mean": float(np.mean([r[k] for r in rows])),
                 "std": float(np.std([r[k] for r in rows])),
                 "values": [r[k] for r in rows]} for k in REPORT_KEYS}
    write_json(out / "report.json", {"n_runs": len(rows), "metrics": table})
    for k in REPORT_KEYS:
        print(f"{k}: {table[k]['mean']:.4f} +/- {table[k]['std']:.4f}")
    return 0


# --- argument parsing ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdcae",
        description="Latent-consistency anomaly detection for bounded dynamical systems")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int, help="root seed (overrides [run] seed)")
    common.add_argument("--out", help="output directory (overrides [run] out)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", help="dataset directory or file")
    data.add_argument("--subset", choices=SUBSETS)
    checkpoint = argparse.ArgumentParser(add_help=False)
    checkpoint.add_argument("--checkpoint", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the pendulum and report box counting")
    p.add_argument("--no-drift", action="store_true", help="disable the linear drift terms")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", parents=[common, data], help="train one autoencoder per seed")
    p.add_argument("--seeds", help="training seeds, comma or space separated")
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float, help="consistency-loss weight")
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--stop-gradient", action="store_true", dest="stop_gradient",
                   help="treat the central difference as a constant target")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", parents=[common, checkpoint, data],
                       help="fit thresholds on training engines and score")
    p.add_argument("--engines", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("diagnose", parents=[common, checkpoint, data],
                       help="dimension, rank, injectivity and consistency report")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("report", parents=[common],
                       help="aggregate per-seed metrics into mean +/- std")
    p.add_argument("metrics", nargs="+", help="metrics.json files from detect runs")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cp = load_config(args.config)
        return args.func(cp, args)
    except (OSError, ValueError, pendulum.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
