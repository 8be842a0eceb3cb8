"""tdcae benchmark: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/. The surrogate input is generated from --seed (FD001-sized: 100
engines, mean life 206, about 20.4k rows in a 9.8 MB train_FD001.txt), so
the program only ever sees the generated file. Every measurement runs in a
fresh interpreter (bench/child.py), one at a time. BLAS threading is left
at its default and the CPU is not pinned.

Workloads (why each exists is in BENCHMARK.json):
  fd001_train   `tdcae train --subset FD001` over 2 seeds x 4 epochs, in-process
  fd001_grid    encode the training engines, 27-config threshold search,
                detect and score the test engines (fixture checkpoint)
  stream_step   net.encode on one scaled test row at a time, many passes
  cli_pipeline  simulate -> train -> detect -> diagnose -> report, each a
                `python -m tdcae.cli` process

--trace 0 measures, untraced, the metrics BENCHMARK.json gates:
  setup_s      median over 5 fresh interpreters of the time from spawn to the
               first timed call (imports; for grid and stream also parsing
               the input and loading the checkpoint)
  peak_rss_mb  ru_maxrss of the measuring process, or of its largest child
               for cli_pipeline
  work_s       median wall time of one unit: the train command, the grid
               search with test scoring, one pass over the test rows, or
               the five-command pipeline
Units repeat until --seconds have passed, and at least twice. Each
workload's own figures (train_triplets_per_s, val_loss, grid_search_s,
test_f1, step_p50_us, step_p99_us, pipeline_s) and error_rate are in the
detailed report.

--trace 1 runs the workload's unit once untraced, then replays it with
spans around calls into each tdcae module (see bench/replay.py) and reports
every per-layer metric: "<module>.<function>_us" and "_s" are the median
span duration per call, other names are counts. Stages of the other
workloads run once, reduced, so that every metric exists on every workload.
The replay must write the same bytes as the untraced run.

Fixtures and outputs go to .bench_work/ (deleted at exit); the detailed
result, with the environment, is kept in .bench_out/. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("fd001_train", "fd001_grid", "stream_step", "cli_pipeline")

FULL = {
    "n_engines": 100, "mean_life": 206, "fixture_epochs": 5,
    "train_seeds": "0,1", "train_epochs": 4, "pipeline_epochs": 2,
    "uppers": [80, 86, 92], "lowers": [5, 9, 14], "windows": [6, 12, 18],
    "setup_probes": 4,
    "trace_passes": 5, "probe_batches": 64, "probe_repeats": 200, "import_probes": 3,
}
# Small sizes for the benchmark's self-test; never used for reported figures.
SHORT = dict(FULL, n_engines=20, mean_life=80, fixture_epochs=1, train_epochs=1,
             pipeline_epochs=1, uppers=[86], lowers=[9], windows=[6, 12], setup_probes=1,
             trace_passes=1, probe_batches=4, probe_repeats=5, import_probes=1)

RUN_BUDGET_S = 170  # every run must end within 180 s

# The end-to-end figures each workload reports in its detailed result, with
# unit and better direction. BENCHMARK.json gates the three every workload
# shares (setup_s, peak_rss_mb, work_s); the rest are read from the report.
REPORTED = {
    "setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"), "error_rate": ("fraction", "lower"),
    "train_triplets_per_s": ("1/s", "higher"), "val_loss": ("loss", "lower"),
    "grid_search_s": ("s", "lower"), "test_f1": ("fraction", "higher"),
    "step_p50_us": ("us", "lower"), "step_p99_us": ("us", "lower"), "pipeline_s": ("s", "lower"),
}
WORKLOAD_REPORTED = {
    "fd001_train": ("train_triplets_per_s", "val_loss"),
    "fd001_grid": ("grid_search_s", "test_f1"),
    "stream_step": ("step_p50_us", "step_p99_us"),
    "cli_pipeline": ("pipeline_s", "test_f1"),
}


class ChildFailed(RuntimeError):
    pass


class Children:
    """Starts the run's child processes one at a time, within its time budget.

    Each child leads its own process group; whatever it started is killed
    with it when it exits, times out or the run is interrupted.
    """

    def __init__(self, work: Path, log, budget_s: float):
        self.work, self.log = work, log
        self.deadline = time.monotonic() + budget_s

    def run(self, job: dict) -> dict:
        n = len(list(self.work.glob("*.job")))
        job_path = self.work / f"{n:02d}-{job['kind']}.job"
        job = dict(job, result=str(job_path.with_suffix(".result.json")))
        job_path.write_text(json.dumps(job))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        env["BENCH_T0"] = repr(time.monotonic())
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                env=env, stdout=self.log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{job['kind']} child ran out of time") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise ChildFailed(f"{job['kind']} child exited with {code}")
        return json.loads(Path(job["result"]).read_text())


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
            "git_commit": commit, "workload_seed": seed}


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def measure(job: dict, children: Children, checks: list) -> tuple[dict, dict]:
    """The untraced run: set-up probes, then timed units until time is up."""
    work = children.work
    setups = [children.run(dict(job, kind="work", units=0, out=str(work / f"setup{i}")))
              for i in range(job["sizes"]["setup_probes"])]
    main = children.run(dict(job, kind="work", units=None, out=str(work / "work")))
    checks += main["checks"]
    setup_s = statistics.median([r["setup_s"] for r in setups + [main]])
    work_s = statistics.median(main["unit_s"])
    metrics = {"setup_s": setup_s, "peak_rss_mb": main["rss_mb"], "work_s": work_s}
    detail = dict(main["detail"], setup_s=setup_s, peak_rss_mb=main["rss_mb"],
                  units=len(main["unit_s"]),
                  unit_s_quartiles=statistics.quantiles(main["unit_s"], n=4)
                  if len(main["unit_s"]) > 1 else main["unit_s"],
                  setup_samples=[r["setup_s"] for r in setups + [main]])
    return metrics, detail


def trace(job: dict, children: Children, checks: list) -> tuple[dict, dict]:
    """The traced run: one untraced unit, then the traced replay of it."""
    W, work = job["workload"], children.work
    units = job["sizes"]["trace_passes"] if W == "stream_step" else 1
    untraced = children.run(dict(job, kind="work", units=units, out=str(work / "untraced")))
    checks += untraced["checks"]
    spans = OUT_DIR / f"spans-{W}.json"
    traced = children.run(dict(job, kind="suite", out=str(work / "traced"), spans=str(spans)))
    checks += traced["checks"]
    for name in sorted(set(untraced["digests"]) | set(traced["digests"])):
        checks.append({"name": f"traced replay writes the same {name}",
                       "ok": untraced["digests"].get(name) == traced["digests"].get(name),
                       "detail": ""})
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = traced["replay_s"] - sum(untraced["unit_s"])
    detail = {"untraced_unit_s": sum(untraced["unit_s"]), "traced_unit_s": traced["replay_s"],
              "self_s_by_module": traced["self_s_by_module"],
              "spans_file": str(spans.relative_to(ROOT))}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small inputs, for the benchmark's self-test only")
    args = parser.parse_args(argv)
    # a terminated run still ends its children (Children.run's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "tdcae" / "__init__.py").is_file():
        print(f"error: no tdcae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    sizes = SHORT if args.short else FULL
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    data = work / "data"
    needs_checkpoint = args.trace == 1 or args.workload in ("fd001_grid", "stream_step")
    checkpoint = work / "fixture" / "checkpoint_seed0.json"
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "sizes": sizes, "data": str(data),
           "checkpoint": str(checkpoint) if needs_checkpoint else None}
    checks: list[dict] = []
    try:
        work.mkdir(parents=True)
        OUT_DIR.mkdir(exist_ok=True)
        with open(work / "children.log", "w") as log:
            try:
                children = Children(work, log, RUN_BUDGET_S)
                fixture = children.run(dict(job, kind="fixtures"))
                job["counts"] = {"dataio.rows": fixture["rows"],
                                 "dataio.input_bytes": fixture["input_bytes"],
                                 "net.weight_macs": fixture["cost"]["detector.count_macs"],
                                 "net.encoder_macs": fixture["cost"]["net.encoder_macs"]}
                job["per_layer"] = names
                run = trace if args.trace else measure
                metrics, detail = run(job, children, checks)
            except ChildFailed as exc:
                log.flush()
                print(f"error: {exc}; log follows", file=sys.stderr)
                print((work / "children.log").read_text()[-4000:], file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    failed = sum(not c["ok"] for c in checks)
    attempted = len(checks)
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    detail.update(error_rate=failed / attempted, failed_checks=[c for c in checks if not c["ok"]])
    if not args.trace:
        detail["reported"] = {
            name: {"value": detail[name], "unit": REPORTED[name][0], "better": REPORTED[name][1]}
            for name in ("setup_s", "peak_rss_mb", "error_rate") + WORKLOAD_REPORTED[args.workload]}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "short": args.short, "environment": environment(args.seed),
              "cost_per_step": fixture["cost"], "input": {k: fixture[k] for k in
                                                          ("rows", "input_bytes", "engines")},
              "detail": detail, "checks": len(checks)}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
