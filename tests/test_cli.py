import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from tdcae import cli, dataio, detector, diagnostics, net, pendulum, tdc

from test_detector import per_engine_detect, per_engine_normalize, per_engine_score


def run_cli(*argv):
    return cli.main(list(argv))


def namespace(**kw):
    return argparse.Namespace(**kw)


# --- seeding / config plumbing -------------------------------------------------------


def test_component_seed_deterministic_and_distinct():
    a = cli.component_seed(0, "training")
    assert a == cli.component_seed(0, "training")
    assert a != cli.component_seed(1, "training")
    assert a != cli.component_seed(0, "engine-split")
    assert 0 <= a < 2**32


def test_training_config_ini_and_flag_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[training]\nepochs = 7\nalpha = 5.0\nstop_gradient = true\n")
    cp = cli.load_config(str(ini))
    args = namespace(epochs=None, alpha=2.5, latent_dim=None, stop_gradient=False)
    cfg = cli.training_config(cp, args)
    assert cfg.epochs == 7          # file value
    assert cfg.alpha == 2.5         # flag beats file
    assert cfg.stop_gradient is True
    assert cfg.batch_size == 32     # untouched default


def test_detector_config_from_ini(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[detector]\nupper_percentile = 90\nvote_threshold = 3\n")
    cfg = cli.detector_config(cli.load_config(str(ini)), namespace(latent_dim=None))
    assert cfg.upper_percentile == 90.0 and cfg.vote_threshold == 3
    assert cfg.lower_percentile == 9.0


# section: (dataclass, builder, flags, the fields the flags set, a valid
# non-default value for every key the section accepts)
CONFIG_CASES = {
    "training": (tdc.TrainingConfig, cli.training_config,
                 dict(epochs=3, alpha=None, latent_dim=6, stop_gradient=True),
                 dict(epochs=3, latent_dim=6, stop_gradient=True),
                 dict(epochs=7, batch_size=16, learning_rate=0.01, alpha=5.0, latent_dim=4,
                      dt=0.5, stop_gradient=True, hidden_dim=12)),
    # detect passes the checkpoint's latent width; no flag sets a detector field
    "detector": (detector.DetectorConfig,
                 lambda cp, args: cli.detector_config(cp, args, getattr(args, "latent_dim", None)),
                 dict(latent_dim=4), dict(latent_dim=4),
                 dict(upper_percentile=90.0, lower_percentile=5.0, moving_average_window=8,
                      baseline_window=6, vote_threshold=3, use_baseline=False)),
    "pendulum": (pendulum.PendulumConfig, cli.pendulum_config,
                 dict(no_drift=True), dict(drift_alpha=0.0, drift_beta=0.0),
                 dict(gamma=0.3, omega0=1.1, amplitude=0.7, omega_drive=1.3, drift_alpha=0.004,
                      drift_beta=0.001, dt=0.02, t_end=40.0, theta0=0.4, theta_dot0=0.1)),
    # --data sets dataset; --seeds is parsed as a seed list
    "run": (cli.RunConfig, cli.run_config,
            dict(seed=3, seeds="1, 2", out="o", subset="FD001", data="d"),
            dict(seed=3, seeds=(1, 2), out="o", subset="FD001", dataset="d"),
            dict(seed=5, seeds=(4, 6), out="results", subset="FD003", dataset="cmapss",
                 test_fraction=0.3)),
}


def ini_value(value):
    return ", ".join(map(str, value)) if isinstance(value, tuple) else value


@pytest.mark.parametrize("section", CONFIG_CASES)
def test_empty_config_is_dataclass_defaults_plus_flags(section):
    cls, build, flags, overrides, _ = CONFIG_CASES[section]
    empty = cli.load_config(None)
    assert build(empty, namespace()) == cls()
    assert build(empty, namespace(**flags)) == cls(**overrides)


@pytest.mark.parametrize("section", CONFIG_CASES)
def test_every_accepted_field_round_trips(section, tmp_path):
    cls, build, _, _, values = CONFIG_CASES[section]
    assert set(values) == set(cli.section_fields(section))
    assert all(values[k] != v for k, v in asdict(cls()).items() if k in values)
    ini = tmp_path / "all.ini"
    ini.write_text(f"[{section}]\n" + "".join(f"{k} = {ini_value(v)}\n" for k, v in values.items()))
    assert build(cli.load_config(str(ini)), namespace()) == cls(**values)


@pytest.mark.parametrize("section,key", [
    ("training", "epoch"), ("training", "seed"), ("training", "input_dim"),
    ("detector", "latent_dim"), ("detector", "min_votes"), ("pendulum", "theta"),
    ("run", "seed_list"), ("model", "epochs"), ("DEFAULT", "seed")])
def test_unknown_section_or_key_names_the_file(section, key, tmp_path, capsys):
    ini = tmp_path / "typo.ini"
    ini.write_text(f"[{section}]\n{key} = 5\n")
    with pytest.raises(ValueError, match=re.escape(f"{ini}: unknown ") + f"(section|key).*{section}"):
        cli.load_config(str(ini))
    assert run_cli("simulate", "--config", str(ini), "--out", str(tmp_path / "o")) == 1
    assert str(ini) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["epochs = 5\n", "[training]\nepochs = 5\nepochs = 6\n"],
                         ids=["no_section_header", "duplicate_key"])
def test_malformed_config_fails_cleanly(text, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert run_cli("simulate", "--config", str(ini), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ini) in err


@pytest.mark.parametrize("section,key,value", [
    ("run", "seed", "seven"), ("run", "test_fraction", "0.2x"), ("training", "epochs", "1.5"),
    ("training", "stop_gradient", "maybe"), ("detector", "upper_percentile", "high"),
    ("pendulum", "t_end", "abc")])
def test_value_that_does_not_cast_names_file_section_and_key(section, key, value, tmp_path,
                                                             capsys):
    ini = tmp_path / "cast.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(f"{ini}: [{section}] {key}: ") + ".*" + value):
        cli.load_config(str(ini))
    assert run_cli("simulate", "--config", str(ini), "--out", str(tmp_path / "o")) == 1
    assert f"error: {ini}: [{section}] {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("command,section,key,value,message", [
    ("simulate", "pendulum", "dt", "-0.5", "dt must be positive"),
    ("train", "training", "epochs", "0", "epochs, batch_size and dimensions must be positive"),
    ("train", "training", "learning_rate", "inf", "learning_rate must be finite"),
    ("train", "training", "alpha", "nan", "alpha must be finite"),
    ("train", "training", "dt", "nan", "dt must be finite"),
    ("simulate", "pendulum", "t_end", "inf", "t_end must be finite"),
    ("simulate", "pendulum", "dt", "nan", "dt must be finite"),
    ("simulate", "pendulum", "theta0", "-inf", "theta0 must be finite")])
def test_value_that_fails_its_check_names_file_and_section(command, section, key, value,
                                                           message, tmp_path, capsys):
    ini = tmp_path / "check.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    assert run_cli(command, "--config", str(ini), "--out", str(tmp_path / "o")) == 1
    assert f"error: {ini}: [{section}] {message}" in capsys.readouterr().err


def test_flag_value_that_fails_its_check_names_the_section():
    with pytest.raises(ValueError, match=r"^\[training\] epochs, batch_size"):
        cli.training_config(cli.load_config(None), namespace(epochs=0))


@pytest.mark.parametrize("value", ["1, x", ",", ""], ids=["non_integer", "comma_only", "empty"])
def test_bad_seed_list_names_its_source(value, tmp_path, capsys):
    ini = tmp_path / "seeds.ini"
    ini.write_text(f"[run]\nseeds = {value}\n")
    with pytest.raises(ValueError, match=re.escape(f"{ini}: [run] seeds: ")):
        cli.load_config(str(ini))
    assert run_cli("train", "--config", str(ini), "--out", str(tmp_path / "a")) == 1
    assert f"error: {ini}: [run] seeds: " in capsys.readouterr().err
    assert run_cli("train", "--seeds", value, "--out", str(tmp_path / "b"), "--epochs", "1") == 1
    assert "error: --seeds: " in capsys.readouterr().err
    assert not (tmp_path / "b" / "train_summary.json").exists()


@pytest.mark.parametrize("setting,message", [
    ("test_fraction = 1.5", "test_fraction must lie in (0, 1)"),
    ("seed = -1", "seed must be non-negative"),
    ("seeds = 1, -2", "seeds must be non-negative"),
    ("seeds = 2, 2", "seeds repeat 2"),
    ("subset = fd001", "subset must be one of FD001, FD003, synthetic"),
    ("--seeds 1,-1", "seeds must be non-negative"),
    ("--seeds 0,0", "seeds repeat 0"),
    ("--seed -1", "seed must be non-negative")],
    ids=["file_test_fraction", "file_negative_seed", "file_negative_seeds", "file_repeated_seeds",
         "file_lowercase_subset", "flag_negative_seeds", "flag_repeated_seeds",
         "flag_negative_seed"])
def test_bad_run_setting_fails_before_training(setting, message, tmp_path, capsys):
    if setting.startswith("--"):
        argv, source = setting.split(), ""
    else:
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\n{setting}\n")
        argv, source = ["--config", str(ini)], f"{ini}: "
    out = tmp_path / "o"
    assert run_cli("train", *argv, "--out", str(out), "--epochs", "1") == 1
    assert capsys.readouterr().err.startswith(f"error: {source}[run] {message}")
    written = [*out.glob("checkpoint_seed*.json"), *out.glob("loss_seed*.csv"),
               *out.glob("train_summary.json")]
    assert written == []


def test_percent_in_a_value_is_literal(tmp_path):
    out = tmp_path / "p50%"
    ini = tmp_path / "pct.ini"
    ini.write_text(f"[run]\nout = {out}\n[pendulum]\nt_end = 30.0\n")
    assert cli.load_config(str(ini)).get("run", "out") == str(out)
    assert run_cli("simulate", "--config", str(ini)) == 0
    assert (out / "trajectory.csv").is_file()


def test_seed_list_sources(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseeds = 4, 5 6\n")
    cp = cli.load_config(str(ini))
    assert cli.seed_list(cp, namespace(seeds=None, seed=None)) == [4, 5, 6]
    assert cli.seed_list(cp, namespace(seeds="1,2", seed=None)) == [1, 2]
    empty = cli.load_config(None)
    assert cli.seed_list(empty, namespace(seeds=None, seed=9)) == [9]
    assert cli.seed_list(empty, namespace(seeds=None, seed=None)) == [0]


def test_missing_config_file_fails(tmp_path, capsys):
    assert run_cli("simulate", "--config", str(tmp_path / "nope.ini")) == 1
    assert "config file not found" in capsys.readouterr().err


# --- simulate -------------------------------------------------------------------------


def simulate_ini(tmp_path, extra=""):
    ini = tmp_path / "sim.ini"
    ini.write_text(f"[pendulum]\nt_end = 30.0\n{extra}")
    return str(ini)


def test_simulate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("simulate", "--config", simulate_ini(tmp_path), "--out", str(out))
    assert code == 0
    assert (out / "trajectory.csv").is_file()
    payload = json.loads((out / "box_counting.json").read_text())
    assert set(payload) >= {"slope", "fit_residual", "counts", "epsilons", "window_steps"}
    assert payload["slope"] > 0
    assert "slope" in capsys.readouterr().out


def test_simulate_reruns_byte_identical(tmp_path):
    ini = simulate_ini(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", ini, "--out", str(a)) == 0
    assert run_cli("simulate", "--config", ini, "--out", str(b)) == 0
    for name in ("trajectory.csv", "box_counting.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_no_drift_changes_trajectory(tmp_path):
    ini = simulate_ini(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", ini, "--out", str(a)) == 0
    assert run_cli("simulate", "--config", ini, "--out", str(b), "--no-drift") == 0
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


def test_simulate_invalid_config_fails_cleanly(tmp_path, capsys):
    ini = simulate_ini(tmp_path, extra="dt = -0.5\n")
    assert run_cli("simulate", "--config", ini, "--out", str(tmp_path / "o")) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--frobnicate")
    assert exc.value.code == 2


# --- train / detect / diagnose / report on the synthetic dataset ------------------------


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One tiny end-to-end CLI run shared by the artifact tests."""
    out = tmp_path_factory.mktemp("pipeline")
    code = run_cli("train", "--out", str(out), "--seed", "0",
                   "--seeds", "0", "--epochs", "2")
    assert code == 0
    return out


def test_train_writes_artifacts(pipeline_dir):
    assert (pipeline_dir / "checkpoint_seed0.json").is_file()
    loss_lines = (pipeline_dir / "loss_seed0.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,rec_loss,tdc_loss,val_rec_loss,val_tdc_loss"
    assert len(loss_lines) == 3  # header + 2 epochs
    summary = json.loads((pipeline_dir / "train_summary.json").read_text())
    assert summary["runs"][0]["seed"] == 0
    assert summary["n_engines_train"] + summary["n_engines_test"] == 12


def test_train_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("train", "--out", str(out), "--seed", "3",
                       "--seeds", "3", "--epochs", "2") == 0
    for name in ("checkpoint_seed3.json", "loss_seed3.csv", "train_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_detect_scores_test_engines(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "det"
    code = run_cli("detect", "--out", str(out), "--seed", "0",
                   "--checkpoint", str(pipeline_dir / "checkpoint_seed0.json"))
    assert code == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["engines"] == "test"
    metrics = payload["metrics"]
    assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] > 0
    assert payload["mac"]["weight_macs"] == 2688
    assert len(payload["thresholds"]["upper"]) == 8
    assert (out / "detections.csv").read_text().startswith("unit,cycle,votes,label,truth")
    assert "f1" in capsys.readouterr().out


def test_detect_on_training_engines(pipeline_dir, tmp_path):
    out = tmp_path / "det"
    code = run_cli("detect", "--out", str(out), "--seed", "0", "--engines", "train",
                   "--checkpoint", str(pipeline_dir / "checkpoint_seed0.json"))
    assert code == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["engines"] == "train"
    assert payload["metrics"]["n_engines"] == 10


def test_detect_and_diagnose_take_latent_width_from_checkpoint(tmp_path):
    out = tmp_path / "w6"
    assert run_cli("train", "--out", str(out), "--seeds", "0", "--epochs", "1",
                   "--latent-dim", "6") == 0
    ckpt = str(out / "checkpoint_seed0.json")
    assert run_cli("detect", "--out", str(out / "det"), "--checkpoint", ckpt) == 0
    assert run_cli("diagnose", "--out", str(out / "diag"), "--checkpoint", ckpt) == 0
    thresholds = json.loads((out / "det" / "metrics.json").read_text())["thresholds"]
    assert len(thresholds["upper"]) == len(thresholds["lower"]) == 6


def test_vote_threshold_is_checked_against_checkpoint_width(tmp_path):
    # vote_threshold 10 exceeds the default width 8 but fits the trained 12
    ini = tmp_path / "wide.ini"
    ini.write_text("[training]\nlatent_dim = 12\nepochs = 1\n[detector]\nvote_threshold = 10\n")
    out = tmp_path / "w12"
    assert run_cli("train", "--config", str(ini), "--out", str(out), "--seeds", "0") == 0
    assert run_cli("detect", "--config", str(ini), "--out", str(out / "det"),
                   "--checkpoint", str(out / "checkpoint_seed0.json")) == 0
    thresholds = json.loads((out / "det" / "metrics.json").read_text())["thresholds"]
    assert len(thresholds["upper"]) == 12


@pytest.mark.parametrize("command", ["detect", "diagnose"])
@pytest.mark.parametrize("key", ["scaler", "split", "training_config", "dt"])
def test_checkpoint_without_metadata_fails_cleanly(key, command, pipeline_dir, tmp_path, capsys):
    payload = json.loads((pipeline_dir / "checkpoint_seed0.json").read_text())
    if key == "dt":
        del payload["training_config"]["dt"]
        message = "training_config: lacks dt"
    else:
        payload[key] = None
        message = f"checkpoint lacks {key}"
    ckpt = tmp_path / "bare.json"
    ckpt.write_text(json.dumps(payload))
    assert run_cli(command, "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def set_fields(**values):
    return lambda payload: payload.update(values)


def set_training(**values):
    return lambda payload: payload["training_config"].update(values)


def set_scaler_min(value):
    return lambda payload: payload["scaler"]["min"].__setitem__(0, value)


def set_weight(value):
    return lambda payload: payload["weights"][2][0].__setitem__(1, value)


def set_bottleneck(width):
    """Resize the default network's 8-wide bottleneck: layer 2's output, layer 3's input."""
    def edit(payload):
        hidden = payload["specs"][2][0]
        payload["specs"][2][1] = payload["specs"][3][0] = width
        payload["weights"][2] = [[0.0] * hidden] * width
        payload["biases"][2] = [0.0] * width
        payload["weights"][3] = [[0.0] * width] * len(payload["weights"][3])
    return edit


# id: (an edit of a valid checkpoint payload, the field its error names)
MALFORMED_CHECKPOINTS = {
    "training_config_int": (set_fields(training_config=3), "training_config"),
    "training_config_list": (set_fields(training_config=[1]), "training_config"),
    "training_config_only_dt": (set_fields(training_config={"dt": "x"}), "training_config"),
    "dt_string": (set_training(dt="x"), "training_config"),
    "dt_negative": (set_training(dt=-1), "training_config"),
    "dt_nan": (set_training(dt=float("nan")), "training_config"),
    "input_dim_other": (set_training(input_dim=12), "training_config"),
    "latent_dim_other": (set_training(latent_dim=4), "training_config"),
    "scaler_nan": (set_scaler_min(float("nan")), "scaler"),
    "weights_int": (set_fields(weights=3), "weights"),
    "weight_string": (set_weight("abc"), "weights[2]"),
    "no_unique_bottleneck": (set_bottleneck(24), "specs"),
    "odd_latent": (set_bottleneck(7), "specs"),
}


@pytest.mark.parametrize("command", ["detect", "diagnose"])
@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_malformed_checkpoint_fails_naming_file_and_field(case, command, pipeline_dir, tmp_path,
                                                          capsys):
    edit, key = MALFORMED_CHECKPOINTS[case]
    payload = json.loads((pipeline_dir / "checkpoint_seed0.json").read_text())
    edit(payload)
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(payload))
    assert run_cli(command, "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)) == 1
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: {key}: ")
    assert not (tmp_path / "o" / "metrics.json").exists()
    assert not (tmp_path / "o" / "diagnostics.json").exists()


def test_diagnose_rho_uses_the_trained_dt(tmp_path):
    ini = tmp_path / "dt.ini"
    ini.write_text("[training]\ndt = 0.5\nepochs = 1\n")
    out = tmp_path / "dt"
    assert run_cli("train", "--config", str(ini), "--out", str(out), "--seeds", "0") == 0
    ckpt_path = out / "checkpoint_seed0.json"
    assert run_cli("diagnose", "--out", str(out / "diag"), "--checkpoint", str(ckpt_path)) == 0
    rho_test = json.loads((out / "diag" / "diagnostics.json").read_text())["rho_test"]

    ckpt = net.load_checkpoint(ckpt_path)
    runs = cli.load_runs(cli.RunConfig())
    test_runs = [dataio.apply_scaler(r, ckpt["scaler"])
                 for r in cli.select_runs(runs, ckpt["split"].test_engines)]
    latents = [tdc.infer_latent(ckpt["params"], r) for r in test_runs]
    labels = [r.labels for r in test_runs]
    assert rho_test == diagnostics.rho_table(latents, labels, dt=0.5)
    assert rho_test != diagnostics.rho_table(latents, labels, dt=1.0)


@pytest.mark.parametrize("engines", ["test", "train"])
def test_detect_writes_the_bytes_of_the_per_engine_oracles(engines, pipeline_dir, tmp_path):
    # detect normalizes, decides and scores on one fleet block; the oracles run one
    # engine at a time and must lead to the same files, byte for byte
    argv = ["detect", "--out", str(tmp_path / "cli"), "--seed", "0", "--engines", engines,
            "--checkpoint", str(pipeline_dir / "checkpoint_seed0.json")]
    assert run_cli(*argv) == 0

    args = cli.build_parser().parse_args(argv)
    cp = cli.load_config(None)
    ckpt = net.load_checkpoint(args.checkpoint)
    params, scaler, split = ckpt["params"], ckpt["scaler"], ckpt["split"]
    runs = cli.load_runs(cli.run_config(cp, args))
    config = cli.detector_config(cp, args, latent_dim=net.latent_dim(params))

    def latents(target_runs):
        return [tdc.infer_latent(params, dataio.apply_scaler(r, scaler)) for r in target_runs]

    train = latents(cli.select_runs(runs, split.train_engines))
    thresholds = detector.fit_thresholds([per_engine_normalize(lat, config) for lat in train],
                                         config)
    target_runs = cli.select_runs(
        runs, split.train_engines if engines == "train" else split.test_engines)
    results = [per_engine_detect(lat, thresholds, config) for lat in latents(target_runs)]
    summary = per_engine_score(results, target_runs)
    out = tmp_path / "oracle"
    out.mkdir()
    detector.write_detections_csv(results, target_runs, out / "detections.csv")
    cli.write_json(out / "metrics.json", {
        "engines": engines,
        "metrics": summary.as_dict(),
        "thresholds": {"upper": list(thresholds.upper), "lower": list(thresholds.lower)},
        "mac": detector.mac_report(params),
    })
    for name in ("detections.csv", "metrics.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (out / name).read_bytes(), name


def test_commands_write_the_same_bytes_with_and_without_the_parse_cache(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    dataio.write_cmapss(dataio.synthetic_runs(n_engines=8, mean_life=60, seed=4),
                        data / "train_FD001.txt")
    sidecar = data / "train_FD001.txt.tdcae.npz"
    for case in ("absent", "present"):
        out = tmp_path / case
        ckpt = str(out / "checkpoint_seed0.json")
        for argv in (["train", "--seeds", "0", "--epochs", "1", "--out", str(out)],
                     ["detect", "--checkpoint", ckpt, "--out", str(out / "det")],
                     ["diagnose", "--checkpoint", ckpt, "--out", str(out / "diag")]):
            if case == "absent":
                sidecar.unlink(missing_ok=True)
            assert run_cli(*argv, "--data", str(data), "--subset", "FD001") == 0
            assert sidecar.is_file()
    files = sorted(p.relative_to(tmp_path / "absent")
                   for p in (tmp_path / "absent").rglob("*") if p.is_file())
    assert len(files) == 6
    for name in files:
        assert (tmp_path / "absent" / name).read_bytes() == \
            (tmp_path / "present" / name).read_bytes(), name
    assert sorted(p.name for p in data.iterdir()) == [
        "train_FD001.txt", "train_FD001.txt.tdcae.npz"]


def test_detect_missing_checkpoint_fails(tmp_path, capsys):
    code = run_cli("detect", "--out", str(tmp_path / "o"),
                   "--checkpoint", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_named_subset_needs_dataset_path(tmp_path, capsys):
    code = run_cli("train", "--out", str(tmp_path / "o"), "--subset", "FD001",
                   "--epochs", "1")
    assert code == 1
    assert "dataset" in capsys.readouterr().err


def test_diagnose_writes_report(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "diag"
    code = run_cli("diagnose", "--out", str(out), "--seed", "0",
                   "--checkpoint", str(pipeline_dir / "checkpoint_seed0.json"))
    assert code == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert set(payload) == {"two_nn", "recommended_latent_dim", "jacobian_rank",
                            "injectivity", "eta_train", "rho_test"}
    assert payload["two_nn"]["value"] > 0
    assert 0.0 <= payload["jacobian_rank"]["full_rank_fraction"] <= 1.0
    assert len(payload["eta_train"]) == 4
    assert "two-NN" in capsys.readouterr().out


def test_diagnose_reruns_byte_identical(pipeline_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("diagnose", "--out", str(out), "--seed", "0",
                       "--checkpoint", str(pipeline_dir / "checkpoint_seed0.json")) == 0
    assert (a / "diagnostics.json").read_bytes() == (b / "diagnostics.json").read_bytes()


def test_report_aggregates_metrics(tmp_path, capsys):
    base = {"accuracy": 0.9, "precision": 0.8, "recall": 0.7,
            "specificity": 0.95, "f1": 0.75, "cdr": 1.0}
    other = {k: v - 0.1 for k, v in base.items()}
    for name, metrics in (("m1.json", base), ("m2.json", other)):
        (tmp_path / name).write_text(json.dumps({"metrics": metrics}))
    out = tmp_path / "rep"
    code = run_cli("report", "--out", str(out),
                   str(tmp_path / "m1.json"), str(tmp_path / "m2.json"))
    assert code == 0
    table = json.loads((out / "report.json").read_text())
    assert table["n_runs"] == 2
    assert table["metrics"]["accuracy"]["mean"] == pytest.approx(0.85)
    assert table["metrics"]["f1"]["values"] == [0.75, 0.65]
    assert "accuracy" in capsys.readouterr().out


def metrics_json(**values):
    base = {"accuracy": 0.9, "precision": 0.8, "recall": 0.7,
            "specificity": 0.95, "f1": 0.75, "cdr": 1.0}
    return json.dumps({"metrics": {**base, **values}})


@pytest.mark.parametrize("text,missing", [
    (json.dumps({"engines": "test"}), '"metrics"'), (json.dumps([1, 2]), '"metrics"'),
    (json.dumps({"metrics": {"accuracy": 0.9, "precision": 0.8, "recall": 0.7, "f1": 0.75}}),
     "specificity, cdr"),
    ("accuracy,f1\n0.9,0.75\n", "not JSON: "),
    (metrics_json(accuracy="x"), "metrics: accuracy must be a number"),
    (metrics_json(accuracy=None), "metrics: accuracy must be a number"),
    (metrics_json(cdr=True), "metrics: cdr must be a number")],
    ids=["no_metrics", "not_an_object", "missing_keys", "not_json", "string_metric",
         "null_metric", "bool_metric"])
def test_report_rejects_foreign_json_by_name(text, missing, tmp_path, capsys):
    path = tmp_path / "foreign.json"
    path.write_text(text)
    assert run_cli("report", "--out", str(tmp_path / "rep"), str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and missing in err
    assert not (tmp_path / "rep" / "report.json").exists()


# ten FD001-layout rows of one engine, line 7 ending in a byte that is not UTF-8
DATASET_LINE_7_NOT_UTF8 = b"".join(b"1 %d" % c + b" 0.5" * 24 + b" \xe9" * (c == 7) + b"\n"
                                   for c in range(1, 11))


# id: (the command that reads the file, what the file holds, how the error names it)
UNDECODABLE_INPUTS = {
    "checkpoint": ("detect --checkpoint", b'{"format": "\xe9"}', "{path}: not JSON: "),
    "config": ("simulate --config", b"[pendulum]\nt_end = 5\xe9\n", "{path}: "),
    "metrics": ("report", b'{"metrics": "\xe9"}', "{path}: not JSON: "),
    "dataset": ("train --subset FD001 --data", DATASET_LINE_7_NOT_UTF8,
                "{name}:7: not UTF-8 text"),
}


@pytest.mark.parametrize("case", UNDECODABLE_INPUTS)
def test_undecodable_input_fails_naming_the_file(case, tmp_path, capsys):
    command, content, named = UNDECODABLE_INPUTS[case]
    path = tmp_path / "input.bad"
    path.write_bytes(content)
    assert run_cli(*command.split(), str(path), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith(
        "error: " + named.format(path=path, name=path.name))


def run_python(*argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)


def test_module_entry_point_runs_without_runtime_warning():
    # importing the package must not import tdcae.cli ahead of runpy
    proc = run_python("-m", "tdcae.cli", "--help")
    assert "usage" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_cli_import_is_numpy_only():
    # every command pays for what tdcae.cli imports; outside the standard
    # library, the package loads numpy and nothing else
    proc = run_python("-c", "import sys; before = set(sys.modules); import tdcae.cli; "
                            "print(*{m.split('.')[0] for m in set(sys.modules) - before}"
                            " - set(sys.stdlib_module_names))")
    assert set(proc.stdout.split()) <= {"numpy", "tdcae"}
