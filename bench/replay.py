"""The benchmark's units of work, and traced replays of the CLI commands.

Every function here takes a tracer (tracing.Tracer or tracing.NullTracer)
and wraps each call into a tdcae module in a span named after the module
and function, e.g. "dataio.parse_cmapss". No span is recorded inside the
package itself.

The replay_* functions mirror tdcae.cli's cmd_* functions call for call,
using the same argument parser and config builders, so that they write
byte-identical files. The benchmark checks that they do: if a command
changes and its replay here does not, the traced run reports a mismatch
instead of measuring a different program.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from tdcae import cli, dataio, detector, diagnostics, net, pendulum, tdc
from tracing import NullTracer

NULL = NullTracer()


def data_file(args) -> Path:
    """The input file tdcae.cli.load_runs reads for a --data/--subset pair."""
    path = Path(args.data)
    return path / f"train_{args.subset}.txt" if path.is_dir() else path


def scale(tr, runs, scaler):
    with tr.span("dataio.apply_scaler"):
        return [dataio.apply_scaler(r, scaler) for r in runs]


def infer(tr, params, runs):
    with tr.span("tdc.infer_latent"):
        return [tdc.infer_latent(params, r) for r in runs]


def load_checkpoint(tr, path):
    with tr.span("net.load_checkpoint"):
        return net.load_checkpoint(path)


def parse(tr, path):
    with tr.span("dataio.parse_cmapss"):
        return dataio.parse_cmapss(path)


# --- training -----------------------------------------------------------------

def train_model(tr, runs, config: tdc.TrainingConfig):
    """tdc.train, step by step: one span per epoch and per training step."""
    with tr.span("tdc.make_triplets"):
        train_set = tdc.make_triplets(runs, "train")
        val_set = tdc.make_triplets(runs, "val")
    rng = np.random.default_rng(config.seed)
    specs = net.autoencoder_specs(config.input_dim, config.hidden_dim, config.latent_dim)
    params = net.init_params(specs, rng)
    state = net.init_adamax(params, learning_rate=config.learning_rate)
    history = []
    for epoch in range(1, config.epochs + 1):
        with tr.span("tdc.epoch"):
            order = rng.permutation(len(train_set))
            rec_sum = tdc_sum = 0.0
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                batch = train_set.take(idx)
                with tr.span("tdc.train_step"):
                    rec, tdc_value = tdc.train_step(params, batch, config, state)
                rec_sum += rec * len(idx)
                tdc_sum += tdc_value * len(idx)
            out, _ = net.forward(params, val_set.cur)
            zp, _ = net.encode(params, val_set.prev)
            zn, _ = net.encode(params, val_set.nxt)
            _, zdot = net.encode(params, val_set.cur)
            history.append(tdc.EpochStats(epoch, rec_sum / len(order), tdc_sum / len(order),
                                          tdc.rec_loss(out, val_set.cur),
                                          tdc.tdc_loss(zp, zn, zdot, config.dt)))
    return params, history, len(train_set)


def replay_train(cp, args, tr) -> dict:
    root = cli.root_seed(cp, args)
    out = cli.output_dir(cp, args)
    base = cli.training_config(cp, args)
    runs = parse(tr, data_file(args))
    test_fraction = cp.getfloat("run", "test_fraction", fallback=0.2)
    split = dataio.split_engines(runs, test_fraction, cli.component_seed(root, "engine-split"))
    train_runs = cli.select_runs(runs, split.train_engines)
    with tr.span("dataio.fit_scaler"):
        scaler = dataio.fit_scaler(train_runs)
    scaled_train = scale(tr, train_runs, scaler)

    summary, triplets = [], 0
    for seed in cli.seed_list(cp, args):
        cfg = replace(base, seed=cli.component_seed(seed, "training"))
        params, history, triplets = train_model(tr, scaled_train, cfg)
        ckpt = out / f"checkpoint_seed{seed}.json"
        loss_csv = out / f"loss_seed{seed}.csv"
        with tr.span("net.save_checkpoint"):
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
    cli.write_json(out / "train_summary.json", {
        "n_engines_train": len(split.train_engines),
        "n_engines_test": len(split.test_engines),
        "runs": summary,
    })
    return {"tdc.triplets": triplets}


# --- detection ----------------------------------------------------------------

def compatible_checkpoint(tr, args, det_cfg):
    ckpt = load_checkpoint(tr, args.checkpoint)
    params = ckpt["params"]
    if net.latent_dim(params) != det_cfg.latent_dim:
        raise ValueError(f"checkpoint latent dim {net.latent_dim(params)} "
                         f"!= configured {det_cfg.latent_dim}")
    if ckpt.get("scaler") is None or ckpt.get("split") is None:
        raise ValueError("checkpoint lacks scaler/split metadata")
    return ckpt, params


def fit(tr, latents, config):
    with tr.span("detector.normalize_stream"):
        normalized = [detector.normalize_stream(lat, config) for lat in latents]
    with tr.span("detector.fit_thresholds"):
        return detector.fit_thresholds(normalized, config)


def detect_and_score(tr, latents, runs, thresholds, config):
    """detector.run_detector, with detect and score in separate spans."""
    with tr.span("detector.detect"):
        results = [detector.detect(lat, thresholds, config) for lat in latents]
    with tr.span("detector.score"):
        return results, detector.score(results, runs)


def replay_detect(cp, args, tr) -> dict:
    out = cli.output_dir(cp, args)
    det_cfg = cli.detector_config(cp, args)
    ckpt, params = compatible_checkpoint(tr, args, det_cfg)
    scaler, split = ckpt["scaler"], ckpt["split"]

    runs = parse(tr, data_file(args))
    train_runs = cli.select_runs(runs, split.train_engines)
    latents_train = infer(tr, params, scale(tr, train_runs, scaler))
    thresholds = fit(tr, latents_train, det_cfg)

    target_units = split.train_engines if args.engines == "train" else split.test_engines
    target_runs = cli.select_runs(runs, target_units)
    latents = infer(tr, params, scale(tr, target_runs, scaler))
    results, summary = detect_and_score(tr, latents, target_runs, thresholds, det_cfg)

    with tr.span("detector.write_detections_csv"):
        detector.write_detections_csv(results, target_runs, out / "detections.csv")
    cli.write_json(out / "metrics.json", {
        "engines": args.engines,
        "metrics": summary.as_dict(),
        "thresholds": {"upper": list(thresholds.upper), "lower": list(thresholds.lower)},
        "mac": detector.mac_report(params),
    })
    return {}


# --- diagnostics, simulation and report ----------------------------------------

def replay_diagnose(cp, args, tr) -> dict:
    out = cli.output_dir(cp, args)
    root = cli.root_seed(cp, args)
    det_cfg = cli.detector_config(cp, args)
    ckpt, params = compatible_checkpoint(tr, args, det_cfg)
    scaler, split = ckpt["scaler"], ckpt["split"]

    runs = parse(tr, data_file(args))
    train_runs = scale(tr, cli.select_runs(runs, split.train_engines), scaler)
    test_runs = scale(tr, cli.select_runs(runs, split.test_engines), scaler)

    with tr.span("diagnostics.two_nn_by_engine"):
        two_nn = diagnostics.two_nn_by_engine(train_runs)
    test_rows = np.vstack([r.features for r in test_runs])
    with tr.span("diagnostics.jacobian_rank_survey"):
        rank = diagnostics.jacobian_rank_survey(params, test_rows)
    with tr.span("diagnostics.injectivity_ratio_survey"):
        min_ratio, violations = diagnostics.injectivity_ratio_survey(
            params, test_rows, seed=cli.component_seed(root, "injectivity"))

    latents_train = infer(tr, params, train_runs)
    windows = [(0, r.normal_count) for r in train_runs]
    latents_test = infer(tr, params, test_runs)
    labels_test = [r.labels for r in test_runs]
    with tr.span("diagnostics.eta_table"):
        eta = diagnostics.eta_table(latents_train, windows)
    with tr.span("diagnostics.rho_table"):
        rho = diagnostics.rho_table(latents_test, labels_test)

    cli.write_json(out / "diagnostics.json", {
        "two_nn": two_nn.as_dict(),
        "recommended_latent_dim": diagnostics.recommend_embedding_dim(two_nn.value),
        "jacobian_rank": rank.as_dict(),
        "injectivity": {"min_ratio": min_ratio, "violations": violations,
                        "floor": diagnostics.INJECTIVITY_FLOOR,
                        "n_samples": int(len(test_rows))},
        "eta_train": eta,
        "rho_test": rho,
    })
    n = len(test_rows)
    return {"diagnostics.jacobian_samples": n,
            "diagnostics.injectivity_pairs": min(n * (n - 1) // 2, max_pairs_default())}


def max_pairs_default() -> int:
    return inspect.signature(diagnostics.injectivity_ratio_survey).parameters["max_pairs"].default


def replay_simulate(cp, args, tr) -> dict:
    cfg = cli.pendulum_config(cp, args)
    out = cli.output_dir(cp, args)
    with tr.span("pendulum.simulate"):
        traj = pendulum.simulate(cfg)
    with tr.span("pendulum.write_trajectory_csv"):
        pendulum.write_trajectory_csv(traj, out / "trajectory.csv")

    start, stop = 100, min(1000, len(traj) - 1)
    points = pendulum.phase_slice(traj, start, stop)
    with tr.span("diagnostics.box_counting_dimension"):
        est = diagnostics.box_counting_dimension(points)
    counts = diagnostics.box_counts(points, diagnostics.DEFAULT_EPSILONS)
    cli.write_json(out / "box_counting.json", {
        "slope": est.value,
        "fit_residual": est.std,
        "n_points": est.n_samples,
        "window_steps": [start, stop],
        "epsilons": list(diagnostics.DEFAULT_EPSILONS),
        "counts": [int(c) for c in counts],
        "theta_range": [float(traj.theta.min()), float(traj.theta.max())],
        "theta_dot_range": [float(traj.theta_dot.min()), float(traj.theta_dot.max())],
    })
    return {"pendulum.steps": len(traj)}


def replay_report(cp, args, tr) -> dict:
    out = cli.output_dir(cp, args)
    rows = [json.loads(Path(path).read_text())["metrics"] for path in args.metrics]
    if not rows:
        raise ValueError("no metrics files given")
    keys = ("accuracy", "precision", "recall", "specificity", "f1", "cdr")
    table = {k: {"mean": float(np.mean([r[k] for r in rows])),
                 "std": float(np.std([r[k] for r in rows])),
                 "values": [r[k] for r in rows]} for k in keys}
    cli.write_json(out / "report.json", {"n_runs": len(rows), "metrics": table})
    return {}


REPLAYS = {"simulate": replay_simulate, "train": replay_train, "detect": replay_detect,
           "diagnose": replay_diagnose, "report": replay_report}


def replay_command(argv: list[str], tr) -> dict:
    """Run one `tdcae <command> ...` through its replay; returns its counts."""
    args = cli.build_parser().parse_args(argv)
    cp = cli.load_config(args.config)
    return REPLAYS[args.command](cp, args, tr)


# --- units shared by the timed and the traced runs -------------------------------

class Fixture:
    """A trained checkpoint with the scaled engines of its train/test split."""

    def __init__(self, tr, data_dir, checkpoint):
        ckpt = load_checkpoint(tr, checkpoint)
        self.params = ckpt["params"]
        runs = parse(tr, Path(data_dir) / "train_FD001.txt")
        self.train = scale(tr, cli.select_runs(runs, ckpt["split"].train_engines), ckpt["scaler"])
        self.test = scale(tr, cli.select_runs(runs, ckpt["split"].test_engines), ckpt["scaler"])


def grid_unit(tr, fx: Fixture, grid):
    """Encode the training engines, search the grid, score the test engines."""
    latents = infer(tr, fx.params, fx.train)
    with tr.span("detector.optimize_thresholds"):
        best = detector.optimize_thresholds(latents, fx.train, grid)
    thresholds = fit(tr, latents, best)
    test_latents = infer(tr, fx.params, fx.test)
    results, summary = detect_and_score(tr, test_latents, fx.test, thresholds, best)
    return best, results, summary


def write_grid_outputs(tr, out: Path, fx: Fixture, best, results, summary) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with tr.span("detector.write_detections_csv"):
        detector.write_detections_csv(results, fx.test, out / "detections.csv")
    cli.write_json(out / "metrics.json", {"config": asdict(best), "metrics": summary.as_dict()})


def stream_rows(fx: Fixture) -> list[np.ndarray]:
    """The scaled test rows, one array per cycle, in engine order."""
    return [row for run in fx.test for row in run.features]


def stream_latents(fx: Fixture, latents: list[np.ndarray]) -> list[tdc.LatentSeries]:
    """Regroup per-row latents into one series per test engine."""
    series, start = [], 0
    for run in fx.test:
        block = np.array(latents[start:start + run.life_length])
        half = block.shape[1] // 2
        series.append(tdc.LatentSeries(unit_id=run.unit_id, z=block[:, :half],
                                       z_dot=block[:, half:]))
        start += run.life_length
    return series


def stream_check(fx: Fixture, streamed: list[np.ndarray]) -> dict:
    """Compare single-row latents with batch inference, and their decisions."""
    batch = [tdc.infer_latent(fx.params, run) for run in fx.test]
    series = stream_latents(fx, streamed)
    max_diff = max(float(max(np.max(np.abs(a.z - b.z)), np.max(np.abs(a.z_dot - b.z_dot))))
                   for a, b in zip(series, batch))
    config = detector.DetectorConfig()
    thresholds = fit(NULL, [tdc.infer_latent(fx.params, run) for run in fx.train], config)
    votes = [detector.detect(a, thresholds, config).votes for a in series]
    same = all(np.array_equal(v, detector.detect(b, thresholds, config).votes)
               for v, b in zip(votes, batch))
    return {"max_latent_diff": max_diff, "same_decisions": same,
            "latents": np.array(streamed), "votes": np.concatenate(votes)}


def stream_pass(tr, params, rows, latents) -> None:
    """One closed-loop pass: encode each row alone, as a deployed sensor would."""
    for i, row in enumerate(rows):
        with tr.span("net.encode_b1"):
            latents[i] = net.encode(params, row)


# --- probes: direct calls that split a training step and a step into layers -----

def net_probes(tr, fx: Fixture, batches: int, repeats: int) -> None:
    """Forward, backward and Adamax at batch 32, and each dense layer alone.

    Runs on a copy of the fixture's parameters, so nothing else sees the
    updates.
    """
    triplets = tdc.make_triplets(fx.train, "train")
    order = np.random.default_rng(0).permutation(len(triplets))
    params = fx.params.copy()
    state = net.init_adamax(params)
    for k in range(batches):
        batch = triplets.take(order[32 * k:32 * (k + 1)])
        with tr.span("net.forward_b32"):
            out, cache = net.forward(params, batch.cur)
        grad = 2.0 * (out - batch.cur) / out.size
        with tr.span("net.backward_b32"):
            grads = net.backward(params, cache, grad)
        with tr.span("net.adamax_step"):
            net.adamax_step(params, grads, state)
        with tr.span("net.encode_b32"):
            net.encode(params, batch.cur)

    _, cache = net.forward(fx.params, batch.cur)
    for i, (spec, w, b) in enumerate(zip(fx.params.specs, fx.params.weights, fx.params.biases)):
        layer = net.NetworkParams(specs=[spec], weights=[w], biases=[b])
        x = cache.activations[i]
        for _ in range(repeats):
            with tr.span(f"net.dense{i}_b32"):
                net.forward(layer, x)
            with tr.span(f"net.dense{i}_b1"):
                net.forward(layer, x[0])

    rows = np.vstack([r.features for r in fx.test])
    with tr.span("net.encoder_jacobian_batch"):
        net.encoder_jacobian_batch(fx.params, rows)


def detector_probes(tr, fx: Fixture) -> None:
    """The smoothing and baseline stages of normalize_stream, called alone."""
    config = detector.DetectorConfig()
    streams = [np.hstack([lat.z, lat.z_dot]) for lat in infer(tr, fx.params, fx.train)]
    with tr.span("detector.moving_average"):
        smoothed = [detector.moving_average(v, config.moving_average_window) for v in streams]
    with tr.span("detector.baseline"):
        for s in smoothed:
            detector.baseline(s, config.baseline_window)


def cost_per_step(params) -> dict:
    """MACs from tdcae, FLOPs and bytes computed here from the layer shapes."""
    n_enc = net.encoder_layer_count(params)
    encoder = params.specs[:n_enc]

    def flops(specs):
        # a multiply and an add per weight, one add per bias, one tanh per unit
        return sum(2 * s.in_dim * s.out_dim + s.out_dim
                   + (s.out_dim if s.activation == "tanh" else 0) for s in specs)

    def nbytes(specs):
        # float64 weights and biases read, input read and output written once
        return sum(8 * (s.in_dim * s.out_dim + s.out_dim + s.in_dim + s.out_dim) for s in specs)

    return {
        "detector.count_macs": detector.count_macs(params),
        "net.encoder_macs": sum(s.in_dim * s.out_dim for s in encoder),
        "detector.REFERENCE_MAC_FIGURE": detector.REFERENCE_MAC_FIGURE,
        "computed.encoder_flops_per_step": flops(encoder),
        "computed.encoder_bytes_per_step": nbytes(encoder),
        "computed.autoencoder_flops_per_step": flops(params.specs),
        "computed.autoencoder_bytes_per_step": nbytes(params.specs),
        "note": "a detection step runs the encoder only; FLOPs and bytes are computed "
                "from the layer shapes (float64), not measured",
    }


def finite_losses(out: Path) -> bool:
    """All loss values in every loss_seed*.csv under out are finite."""
    files = sorted(out.rglob("loss_seed*.csv"))
    if not files:
        return False
    for path in files:
        for line in path.read_text().splitlines()[1:]:
            if not all(math.isfinite(float(v)) for v in line.split(",")[1:]):
                return False
    return True
