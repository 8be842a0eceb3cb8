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
import json
import sys
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import dataio, detector, diagnostics, net, pendulum, tdc


def component_seed(root_seed: int, name: str) -> int:
    """Derive an independent stream seed for a named component."""
    seq = np.random.SeedSequence([int(root_seed), zlib.crc32(name.encode())])
    return int(seq.generate_state(1)[0])


def write_json(path: Path, payload: dict) -> None:
    dataio.atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


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


def _section_config(cp: configparser.ConfigParser, section: str, args, **overrides):
    """Build a section's dataclass: its defaults, then file values, then overrides.

    A value the dataclass rejects fails naming the section, and the --config
    file if one was given.
    """
    values = {key: _GETTERS[kind](cp, section, key)
              for key, kind in section_fields(section).items() if cp.has_option(section, key)}
    try:
        return CONFIG_SECTIONS[section][0](**{**values, **overrides})
    except ValueError as exc:
        source = getattr(args, "config", None)
        raise ValueError(f"{source + ': ' if source else ''}[{section}] {exc}") from None


def training_config(cp: configparser.ConfigParser, args) -> tdc.TrainingConfig:
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
    out = output_dir(cp, args)
    traj = pendulum.simulate(cfg)
    pendulum.write_trajectory_csv(traj, out / "trajectory.csv")

    start, stop = 100, min(1000, len(traj) - 1)
    points = pendulum.phase_slice(traj, start, stop)
    est = diagnostics.box_counting_dimension(points)
    counts = diagnostics.box_counts(points, diagnostics.DEFAULT_EPSILONS)
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


def cmd_train(cp, args) -> int:
    run = run_config(cp, args)
    out = output_dir(cp, args)
    base = training_config(cp, args)
    runs = load_runs(run)
    split = dataio.split_engines(runs, run.test_fraction, component_seed(run.seed, "engine-split"))
    train_runs = select_runs(runs, split.train_engines)
    scaler = dataio.fit_scaler(train_runs)
    scaled_train = [dataio.apply_scaler(r, scaler) for r in train_runs]

    summary = []
    for seed in seed_list(cp, args):
        cfg = replace(base, seed=component_seed(seed, "training"))
        params, history = tdc.train(scaled_train, cfg)
        ckpt = out / f"checkpoint_seed{seed}.json"
        loss_csv = out / f"loss_seed{seed}.csv"
        net.save_checkpoint(ckpt, params, seed=seed, scaler=scaler, split=split,
                            training_config=asdict(cfg))
        tdc.write_loss_history(history, loss_csv)
        last = history[-1]
        summary.append({
            "seed": seed, "checkpoint": ckpt.name, "loss_csv": loss_csv.name,
            "first_rec": history[0].rec, "first_tdc": history[0].tdc,
            "final_rec": last.rec, "final_tdc": last.tdc,
            "final_val_rec": last.val_rec, "final_val_tdc": last.val_tdc,
        })
        print(f"seed {seed}: rec {history[0].rec:.5f} -> {last.rec:.5f}, "
              f"tdc {history[0].tdc:.5f} -> {last.tdc:.5f} ({ckpt})")
    write_json(out / "train_summary.json", {
        "n_engines_train": len(split.train_engines),
        "n_engines_test": len(split.test_engines),
        "runs": summary,
    })
    return 0


def _checkpoint_engines(cp, args):
    """--checkpoint's record and its split's train and test engines, scaled by its scaler."""
    ckpt = net.load_checkpoint(args.checkpoint)
    runs = load_runs(run_config(cp, args))
    return ckpt, *([dataio.apply_scaler(r, ckpt["scaler"]) for r in select_runs(runs, units)]
                   for units in (ckpt["split"].train_engines, ckpt["split"].test_engines))


def cmd_detect(cp, args) -> int:
    out = output_dir(cp, args)
    ckpt, train_runs, test_runs = _checkpoint_engines(cp, args)
    params = ckpt["params"]
    det_cfg = detector_config(cp, args, latent_dim=net.latent_dim(params))

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
    out = output_dir(cp, args)
    ckpt, train_runs, test_runs = _checkpoint_engines(cp, args)
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
    return metrics


def cmd_report(cp, args) -> int:
    out = output_dir(cp, args)
    rows = [read_metrics(path) for path in args.metrics]
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

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, help="root seed (overrides [run] seed)")
        p.add_argument("--out", help="output directory (overrides [run] out)")

    p = sub.add_parser("simulate", help="integrate the pendulum and report box counting")
    common(p)
    p.add_argument("--no-drift", action="store_true", help="disable the linear drift terms")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train one autoencoder per seed")
    common(p)
    p.add_argument("--data", help="dataset directory or file")
    p.add_argument("--subset", choices=SUBSETS)
    p.add_argument("--seeds", help="training seeds, comma or space separated")
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float, help="consistency-loss weight")
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--stop-gradient", action="store_true", dest="stop_gradient",
                   help="treat the central difference as a constant target")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="fit thresholds on training engines and score")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory or file")
    p.add_argument("--subset", choices=SUBSETS)
    p.add_argument("--engines", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("diagnose", help="dimension, rank, injectivity and consistency report")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory or file")
    p.add_argument("--subset", choices=SUBSETS)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("report", help="aggregate per-seed metrics into mean +/- std")
    common(p)
    p.add_argument("metrics", nargs="+", help="metrics.json files from detect runs")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cp = load_config(args.config)
        return args.func(cp, args)
    except (OSError, ValueError, dataio.ParseError, pendulum.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
