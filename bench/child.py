"""One process of a benchmark run: python bench/child.py <job.json>.

bench/run.py starts every measurement in a fresh interpreter through this
file, one at a time, and reads back the JSON the job names as "result".
The parent passes BENCH_T0, its time.monotonic() just before the spawn, so
set-up time is counted from a fresh interpreter to the first timed call.

Job kinds:
  fixtures  write the surrogate input file and, if asked, a checkpoint
  work      set up one workload, then run timed units of it untraced
  suite     the traced run: replay the workload's unit with spans, plus
            the calls that give every per-layer metric
  replay    replay one CLI command with spans (the suite's cli stage)
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import replay
from tdcae import cli, dataio, detector, net, tdc
from tracing import Tracer

# the parent's clock just before it started this interpreter: set-up time
# includes the interpreter's start and the imports above
T0 = float(os.environ["BENCH_T0"])


def rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def digest_dir(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Output checks; each one counts as an operation attempted."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok, detail="") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})


def train_argv(job, out: Path) -> list[str]:
    s = job["sizes"]
    return ["train", "--data", job["data"], "--subset", "FD001", "--seeds", s["train_seeds"],
            "--epochs", str(s["train_epochs"]), "--out", str(out)]


def pipeline_argvs(job, out: Path) -> list[tuple[str, list[str]]]:
    data, epochs = job["data"], str(job["sizes"]["pipeline_epochs"])
    ckpt = str(out / "run" / "checkpoint_seed0.json")
    return [
        ("simulate", ["simulate", "--out", str(out / "pendulum"), "--seed", "0"]),
        ("train", ["train", "--data", data, "--subset", "FD001", "--seeds", "0",
                   "--epochs", epochs, "--out", str(out / "run")]),
        ("detect", ["detect", "--checkpoint", ckpt, "--data", data, "--subset", "FD001",
                    "--engines", "test", "--out", str(out / "run" / "det")]),
        ("diagnose", ["diagnose", "--checkpoint", ckpt, "--data", data, "--subset", "FD001",
                      "--out", str(out / "run" / "diag")]),
        ("report", ["report", str(out / "run" / "det" / "metrics.json"),
                    "--out", str(out / "run")]),
    ]


def run_command(argv: list[str], log) -> int:
    """One `python -m tdcae.cli` process, the way a user runs the tool."""
    return subprocess.run([sys.executable, "-m", "tdcae.cli", *argv], stdout=log,
                          stderr=subprocess.STDOUT).returncode


def final_val_loss(out: Path) -> float:
    """Mean over seeds of the last epoch's val_rec + alpha * val_tdc."""
    summary = json.loads((out / "train_summary.json").read_text())
    values = []
    for run in summary["runs"]:
        alpha = json.loads((out / run["checkpoint"]).read_text())["training_config"]["alpha"]
        values.append(run["final_val_rec"] + alpha * run["final_val_tdc"])
    return statistics.fmean(values)


# --- untraced workloads: set-up in __init__, one timed unit per call ------------

class TrainWork:
    """`tdcae train` over several seeds x epochs, called in-process."""

    def __init__(self, job):
        self.job, self.out = job, Path(job["out"])
        self.codes = []

    def unit(self, k: int) -> float:
        argv = train_argv(self.job, self.out / f"u{k}")
        start = time.monotonic()
        self.codes.append(cli.main(argv))
        return time.monotonic() - start

    def finish(self, checks: Checks, times: list[float]) -> tuple[dict, dict]:
        first = self.out / "u0"
        for k, code in enumerate(self.codes):
            checks.add(f"train unit {k} exit code", code == 0, code)
            checks.add(f"train unit {k} losses finite", replay.finite_losses(self.out / f"u{k}"))
        digests = digest_dir(first)
        for k in range(1, len(self.codes)):
            same = digest_dir(self.out / f"u{k}") == digests
            checks.add(f"train unit {k} byte-identical to unit 0", same)
        checkpoint = next(first.glob("checkpoint_seed*.json"))
        fx = replay.Fixture(replay.NULL, self.job["data"], checkpoint)
        triplets = len(tdc.make_triplets(fx.train, "train"))
        s = self.job["sizes"]
        n_seeds = len(s["train_seeds"].split(","))
        detail = {
            "train_triplets_per_s":
                triplets * s["train_epochs"] * n_seeds / statistics.median(times),
            "val_loss": final_val_loss(first),
            "triplets": triplets, "epochs": s["train_epochs"], "seeds": s["train_seeds"],
        }
        return detail, digests


class GridWork:
    """Threshold grid search on a fixture checkpoint, then the test engines."""

    def __init__(self, job):
        self.job, self.out = job, Path(job["out"])
        self.fx = replay.Fixture(replay.NULL, job["data"], job["checkpoint"])
        s = job["sizes"]
        self.grid = detector.config_grid(detector.DetectorConfig(), s["uppers"], s["lowers"],
                                         s["windows"])
        self.outcomes = []

    def unit(self, k: int) -> float:
        start = time.monotonic()
        outcome = replay.grid_unit(replay.NULL, self.fx, self.grid)
        elapsed = time.monotonic() - start
        replay.write_grid_outputs(replay.NULL, self.out / f"u{k}", self.fx, *outcome)
        self.outcomes.append(outcome)
        return elapsed

    def finish(self, checks: Checks, times: list[float]) -> tuple[dict, dict]:
        best, results, summary = self.outcomes[0]
        checks.add("grid choice is a grid config", best in self.grid, best)
        checks.add("test f1 in [0, 1]", 0.0 <= summary.f1 <= 1.0, summary.f1)
        digests = digest_dir(self.out / "u0")
        # detect and score again with the chosen config: same decisions, same file
        train_latents = replay.infer(replay.NULL, self.fx.params, self.fx.train)
        thresholds = replay.fit(replay.NULL, train_latents, best)
        latents = replay.infer(replay.NULL, self.fx.params, self.fx.test)
        again = replay.detect_and_score(replay.NULL, latents, self.fx.test, thresholds, best)
        replay.write_grid_outputs(replay.NULL, self.out / "again", self.fx, best, *again)
        checks.add("detect rerun byte-identical", digest_dir(self.out / "again") == digests)
        for k in range(1, len(self.outcomes)):
            checks.add(f"grid unit {k} byte-identical to unit 0",
                       digest_dir(self.out / f"u{k}") == digests)
        detail = {"grid_search_s": statistics.median(times), "test_f1": summary.f1,
                  "grid_configs": len(self.grid), "chosen": [best.upper_percentile,
                  best.lower_percentile, best.moving_average_window]}
        return detail, digests


class StreamWork:
    """Closed loop, one caller: encode one scaled test row at a time."""

    def __init__(self, job):
        self.fx = replay.Fixture(replay.NULL, job["data"], job["checkpoint"])
        self.rows = replay.stream_rows(self.fx)
        self.latents = [None] * len(self.rows)
        self.steps = []

    def unit(self, k: int) -> float:
        clock, encode, params, latents = time.perf_counter_ns, net.encode, self.fx.params, \
            self.latents
        ns = np.empty(len(self.rows), dtype=np.int64)
        start = time.monotonic()
        for i, row in enumerate(self.rows):
            t = clock()
            latents[i] = encode(params, row)
            ns[i] = clock() - t
        elapsed = time.monotonic() - start
        self.steps.append(ns)
        return elapsed

    def finish(self, checks: Checks, times: list[float]) -> tuple[dict, dict]:
        result = replay.stream_check(self.fx, [np.concatenate(z) for z in self.latents])
        checks.add("single-row latents match batch infer_latent within 1e-12",
                   result["max_latent_diff"] <= 1e-12, result["max_latent_diff"])
        checks.add("single-row latents give the batch detect decisions", result["same_decisions"])
        steps = np.concatenate(self.steps) / 1000.0
        p50, p99 = np.percentile(steps, [50, 99])
        detail = {"step_p50_us": float(p50), "step_p99_us": float(p99),
                  "step_samples": int(steps.size), "samples_beyond_p99": int(np.sum(steps > p99)),
                  "rows_per_pass": len(self.rows)}
        digests = {"latents": digest_bytes(result["latents"].tobytes()),
                   "votes": digest_bytes(result["votes"].tobytes())}
        return detail, digests


class PipelineWork:
    """simulate -> train -> detect -> diagnose -> report, one process each."""

    def __init__(self, job):
        self.job, self.out = job, Path(job["out"])
        self.codes, self.commands = [], []

    def unit(self, k: int) -> float:
        per_command, codes = {}, {}
        with open(self.out / "commands.log", "a") as log:
            start = time.monotonic()
            for name, argv in pipeline_argvs(self.job, self.out / f"u{k}"):
                t = time.monotonic()
                codes[name] = run_command(argv, log)
                per_command[name] = time.monotonic() - t
            elapsed = time.monotonic() - start
        self.codes.append(codes)
        self.commands.append(per_command)
        return elapsed

    def finish(self, checks: Checks, times: list[float]) -> tuple[dict, dict]:
        for k, codes in enumerate(self.codes):
            for name, code in codes.items():
                checks.add(f"pipeline unit {k} {name} exit code", code == 0, code)
            checks.add(f"pipeline unit {k} losses finite", replay.finite_losses(self.out / f"u{k}"))
        digests = digest_dir(self.out / "u0")
        for k in range(1, len(self.codes)):
            checks.add(f"pipeline unit {k} byte-identical to unit 0",
                       digest_dir(self.out / f"u{k}") == digests)
        metrics = json.loads((self.out / "u0" / "run" / "det" / "metrics.json").read_text())
        detail = {"pipeline_s": statistics.median(times), "test_f1": metrics["metrics"]["f1"],
                  "command_s": {name: statistics.median(c[name] for c in self.commands)
                                for name in self.commands[0]}}
        return detail, digests


WORK = {"fd001_train": TrainWork, "fd001_grid": GridWork, "stream_step": StreamWork,
        "cli_pipeline": PipelineWork}


def run_work(job) -> dict:
    work = WORK[job["workload"]](job)
    setup_s = time.monotonic() - T0
    times: list[float] = []
    deadline = time.monotonic() + job["seconds"]
    # whole units until the time is up, and at least two, so that every run
    # can compare a rerun's outputs with the first one's
    while True:
        n = len(times)
        if n >= job["units"] if job["units"] is not None else \
                n >= 2 and time.monotonic() >= deadline:
            break
        times.append(work.unit(n))
    result = {"setup_s": setup_s, "unit_s": times}
    if times:
        checks = Checks()
        result["detail"], result["digests"] = work.finish(checks, times)
        result["checks"] = checks.items
    result["rss_mb"] = max(rss_mb(), rss_mb(resource.RUSAGE_CHILDREN))
    return result


# --- fixtures ------------------------------------------------------------------

def run_fixtures(job) -> dict:
    s = job["sizes"]
    data = Path(job["data"])
    data.mkdir(parents=True, exist_ok=True)
    runs = dataio.synthetic_runs(n_engines=s["n_engines"], mean_life=s["mean_life"],
                                 seed=job["seed"])
    dataio.write_cmapss(runs, data / "train_FD001.txt")
    if job["checkpoint"]:
        argv = ["train", "--data", str(data), "--subset", "FD001", "--seeds", "0",
                "--epochs", str(s["fixture_epochs"]), "--out", str(Path(job["checkpoint"]).parent)]
        if cli.main(argv) != 0:
            raise RuntimeError("fixture training failed")
    params = net.init_params(net.autoencoder_specs(), np.random.default_rng(0))
    return {"rows": sum(r.life_length for r in runs),
            "input_bytes": (data / "train_FD001.txt").stat().st_size,
            "engines": len(runs), "cost": replay.cost_per_step(params)}


# --- traced runs ------------------------------------------------------------------

def spawn(job: dict, kind: str, **fields) -> dict:
    """Run another job of this file in a fresh interpreter and read its result."""
    path = Path(job["out"]) / f"{kind}-{time.monotonic_ns()}.json"
    sub = dict(job, kind=kind, result=str(path), **fields)
    job_path = path.with_suffix(".job")
    job_path.write_text(json.dumps(sub))
    env = dict(os.environ, BENCH_T0=repr(time.monotonic()))
    with open(Path(job["out"]) / "replay.log", "a") as log:
        code = subprocess.run([sys.executable, __file__, str(job_path)], env=env, stdout=log,
                              stderr=subprocess.STDOUT).returncode
    if code != 0:
        raise RuntimeError(f"{kind} child exited with {code}")
    return json.loads(path.read_text())


def run_replay(job) -> dict:
    tr = Tracer()
    counts = replay.replay_command(job["argv"], tr)
    return {"spans": tr.spans, "counts": counts}


def run_suite(job) -> dict:
    W, s = job["workload"], job["sizes"]
    out = Path(job["out"])
    tr, checks, counts = Tracer(), Checks(), dict(job["counts"])
    replayed = out / "traced"
    replay_s, digests = None, {}

    with tr.span("workload." + W):
        with tr.span("stage.setup"):
            fx = replay.Fixture(tr, job["data"], job["checkpoint"])

        if W == "fd001_train":
            start = time.monotonic()
            with tr.span("stage.train"):
                counts.update(replay.replay_command(train_argv(job, replayed), tr))
            replay_s = time.monotonic() - start
            checks.add("traced train losses finite", replay.finite_losses(replayed))
            digests = digest_dir(replayed)

        if W == "fd001_grid":
            grid = detector.config_grid(detector.DetectorConfig(), s["uppers"], s["lowers"],
                                        s["windows"])
        else:
            grid = [detector.DetectorConfig()]
        start = time.monotonic()
        with tr.span("stage.grid"):
            outcome = replay.grid_unit(tr, fx, grid)
        if W == "fd001_grid":
            replay_s = time.monotonic() - start
        replay.write_grid_outputs(tr, out / "traced_grid", fx, *outcome)
        if W == "fd001_grid":
            digests = digest_dir(out / "traced_grid")
        counts["detector.grid_configs"] = len(grid)
        # engine streams scored: every grid config and then the chosen one over the
        # training engines, and the test engines
        counts["detector.streams"] = (len(grid) + 1) * len(fx.train) + len(fx.test)

        rows = replay.stream_rows(fx)
        latents = [None] * len(rows)
        passes = s["trace_passes"] if W == "stream_step" else 1
        start = time.monotonic()
        with tr.span("stage.stream"):
            for _ in range(passes):
                replay.stream_pass(tr, fx.params, rows, latents)
        if W == "stream_step":
            replay_s = time.monotonic() - start
            result = replay.stream_check(fx, [np.concatenate(z) for z in latents])
            digests = {"latents": digest_bytes(result["latents"].tobytes()),
                       "votes": digest_bytes(result["votes"].tobytes())}

        with tr.span("stage.probes"):
            replay.net_probes(tr, fx, s["probe_batches"], s["probe_repeats"])
            replay.detector_probes(tr, fx)

        with tr.span("stage.cli"):
            for _ in range(s["import_probes"]):
                with tr.span("cli.import"):
                    subprocess.run([sys.executable, "-c", "import tdcae.cli"], check=True)
            pipeline = out / "traced_pipeline"
            start = time.monotonic()
            for name, argv in pipeline_argvs(job, pipeline):
                with tr.span("cli." + name):
                    child = spawn(job, "replay", argv=argv)
                    tr.adopt(child["spans"])
                counts.update(child["counts"])
            if W == "cli_pipeline":
                replay_s = time.monotonic() - start
                digests = digest_dir(pipeline)
            checks.add("traced pipeline losses finite", replay.finite_losses(pipeline))

    counts["tdc.steps"] = len(tr.durations("tdc.train_step"))
    metrics = {}
    for name in job["per_layer"]:
        if name in counts:
            metrics[name] = counts[name]
        elif name.endswith("_us"):
            metrics[name] = tr.median(name[:-3]) * 1e6
        elif name.endswith("_s") and name != "trace.overhead_s":
            metrics[name] = tr.median(name[:-2])
    Path(job["spans"]).write_text(json.dumps(tr.as_records()))
    return {"metrics": metrics, "replay_s": replay_s, "digests": digests,
            "checks": checks.items, "self_s_by_module": tr.self_time_by_module()}


KINDS = {"fixtures": run_fixtures, "work": run_work, "suite": run_suite, "replay": run_replay}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    if "out" in job:
        Path(job["out"]).mkdir(parents=True, exist_ok=True)
    result = KINDS[job["kind"]](job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
