import json
import os
import platform
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from symder import cli, datagen, encoders, recover, train


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end workspace: dataset plus a short training run."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    run = root / "run"
    assert cli.main(["generate", "--preset", "lorenz", "--out", str(data),
                     "--seed", "0", "--n-time", "120"]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--steps", "20", "--width", "8"]) == 0
    return root


def test_generate_refuses_overwrite(workspace, capsys):
    data = workspace / "data"
    code = cli.main(["generate", "--preset", "lorenz", "--out", str(data),
                     "--n-time", "120"])
    assert code == 1
    assert "--force" in capsys.readouterr().err
    assert cli.main(["generate", "--preset", "lorenz", "--out", str(data),
                     "--n-time", "120", "--force"]) == 0


def test_generate_dataset_loads(workspace):
    ds = datagen.Dataset.load(workspace / "data")
    assert ds.preset.name == "lorenz"
    assert ds.visible.shape == (120, 2)


def test_train_artifacts(workspace):
    run = workspace / "run"
    for name in ("model.json", "encoder.ckpt", "history.csv", "config.json"):
        assert (run / name).exists(), name
    hist = train.load_history(run / "history.csv")
    assert len(hist) == 20


def _one_error_line(capsys, says):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err and "Traceback" not in err


@pytest.mark.parametrize("under", ["", "sub"])
@pytest.mark.parametrize("argv", [
    ["train", "--data", "DATA", "--steps", "5"],
    ["generate", "--preset", "lorenz", "--n-time", "120"]])
def test_out_that_is_no_directory_exits_1(workspace, tmp_path, capsys,
                                          monkeypatch, argv, under):
    # a regular file at --out, or at a folder above it, stops the command
    # before it simulates or trains, and the file is left as it was
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    monkeypatch.setattr(recover.EmbeddingRecovery, "fit", None)
    monkeypatch.setattr(cli.datagen, "simulate", None)
    argv = [str(workspace / "data") if a == "DATA" else a for a in argv]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(blocker / under)]) == 1
    _one_error_line(capsys, f"{blocker} is not a directory")
    assert blocker.read_text() == "keep"


def test_eval_out_in_a_missing_folder_exits_1(workspace, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run"), "--out", str(out)]) == 1
    _one_error_line(capsys, f"cannot write {out}")


@pytest.mark.parametrize("generate,flags", [
    (["--preset", "diffusion_source", "--n-time", "24", "--nx", "8"],
     ["--steps", "3"]),
    (["--preset", "lorenz", "--n-time", "120"], ["--steps", "20",
                                                 "--width", "8"])])
def test_train_never_reads_the_truth(tmp_path, capsys, generate, flags):
    """A copy of the dataset without hidden.f64 trains to the same bytes as
    the dataset itself; eval, which needs the truth, exits 2 on it."""
    full, blind = tmp_path / "full", tmp_path / "blind"
    assert cli.main(["generate", "--out", str(full)] + generate) == 0
    shutil.copytree(full, blind)
    (blind / "hidden.f64").unlink()
    runs = {}
    for data in (full, blind):
        runs[data] = tmp_path / f"run-{data.name}"
        assert cli.main(["train", "--data", str(data), "--out",
                         str(runs[data])] + flags) == 0
    for name in ("history.csv", "model.json", "encoder.ckpt"):
        assert (runs[full] / name).read_bytes() == \
            (runs[blind] / name).read_bytes(), name
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(blind), "--run",
                     str(runs[blind])]) == 2
    _one_error_line(capsys, "hidden.f64")


@pytest.mark.parametrize("argv,absent", [
    (["generate", "--preset", "lorenz", "--n-time", "20", "--out", "OUT"],
     {"symder.encoders", "symder.evaluate", "symder.jets", "symder.library",
      "symder.recover", "symder.train"}),
    (["report", "--run", "OUT"],
     {"symder.encoders", "symder.recover", "symder.train"}),
    # a run's encoder is loaded from its checkpoint: no seeded start is
    # drawn, so numpy.random is never imported
    (["eval", "--data", "DATA", "--run", "RUN", "--out", "OUT"],
     {"numpy.random"}),
    (["predict", "--data", "DATA", "--run", "RUN"], {"numpy.random"})])
def test_each_command_imports_what_it_runs(tmp_path, workspace, argv,
                                           absent):
    import subprocess
    import sys
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")]))}
    code = ("import sys\nfrom symder import cli\n"
            "assert cli.main(sys.argv[1:]) in (0, 2)\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.startswith(('symder', 'numpy.random'))))")
    paths = {"OUT": tmp_path / "out", "DATA": workspace / "data",
             "RUN": workspace / "run"}
    argv = [str(paths.get(a, a)) for a in argv]
    proc = subprocess.run([sys.executable, "-c", code] + argv, env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "symder.datagen" in loaded and not loaded & absent, loaded


def test_closed_stdout_exits_1_quietly(tmp_path):
    # the reader of standard output is gone before the program writes
    import os
    import subprocess
    import sys
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "symder.cli", "generate", "--preset",
         "lorenz", "--n-time", "120", "--out", str(tmp_path / "data")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1 and err == b"", err.decode()


def test_train_missing_dataset(tmp_path):
    code = cli.main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "run")])
    assert code == 2


def test_train_deterministic(workspace, tmp_path):
    out2 = tmp_path / "run2"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out2), "--steps", "20", "--width", "8"]) == 0
    a = (workspace / "run" / "model.json").read_bytes()
    assert a == (out2 / "model.json").read_bytes()
    ha = (workspace / "run" / "history.csv").read_bytes()
    assert ha == (out2 / "history.csv").read_bytes()


def test_eval_and_report(workspace, capsys):
    assert cli.main(["eval", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run")]) == 0
    doc = json.loads((workspace / "run" / "report.json").read_text())
    assert "pattern_match" in doc and doc["preset"] == "lorenz"
    capsys.readouterr()
    assert cli.main(["report", "--run", str(workspace / "run")]) == 0
    out = capsys.readouterr().out
    assert "pattern match" in out and "d[" in out
    assert "hidden rel error / best of constant and visible affine" in out


def test_report_before_eval(tmp_path):
    assert cli.main(["report", "--run", str(tmp_path)]) == 2


def test_predict(workspace, capsys):
    assert cli.main(["predict", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run"), "--start", "50"]) == 0
    assert "prediction horizon" in capsys.readouterr().out


def test_predict_horizon_held_to_the_end(workspace, capsys, monkeypatch):
    # a forecast that holds to the last sample prints its horizon as a
    # lower bound
    from symder import evaluate
    monkeypatch.setattr(evaluate, "prediction_horizon",
                        lambda *args: (0.082, True))
    capsys.readouterr()
    assert cli.main(["predict", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run"), "--start", "100"]) == 0
    assert capsys.readouterr().out == (
        "prediction horizon: at least 0.082 Lyapunov times (the data ends "
        "at sample 119, 19 after --start)\n")


def test_predict_bad_start(workspace):
    assert cli.main(["predict", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run"),
                     "--start", "119"]) == 1


def test_corrupt_checkpoint(workspace, tmp_path):
    run2 = tmp_path / "runc"
    run2.mkdir()
    for name in ("model.json", "history.csv", "config.json"):
        (run2 / name).write_bytes((workspace / "run" / name).read_bytes())
    (run2 / "encoder.ckpt").write_bytes(b"garbage")
    assert cli.main(["eval", "--data", str(workspace / "data"),
                     "--run", str(run2)]) == 3


def test_corrupt_model(workspace, tmp_path):
    run2 = tmp_path / "runm"
    run2.mkdir()
    (run2 / "encoder.ckpt").write_bytes(
        (workspace / "run" / "encoder.ckpt").read_bytes())
    (run2 / "model.json").write_text("{broken")
    assert cli.main(["eval", "--data", str(workspace / "data"),
                     "--run", str(run2)]) == 3


def test_eval_missing_run(workspace, tmp_path):
    assert cli.main(["eval", "--data", str(workspace / "data"),
                     "--run", str(tmp_path / "void")]) == 2


def test_nlse_pipeline(tmp_path, capsys):
    data = tmp_path / "nlse"
    run = tmp_path / "nlse_run"
    assert cli.main(["generate", "--preset", "nlse", "--out", str(data),
                     "--n-time", "40", "--nx", "32"]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--steps", "5"]) == 0
    assert cli.main(["eval", "--data", str(data), "--run", str(run)]) == 0
    doc = json.loads((run / "report.json").read_text())
    assert "phase_error" in doc


def test_eval_of_a_flat_phase_gradient_exits_1(tmp_path, capsys):
    # on two grid points the periodic central difference of any phase is
    # zero, so the phase gradient error has no range to divide by
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["generate", "--preset", "nlse", "--out", str(data),
                     "--n-time", "40", "--nx", "2"]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--steps", "2"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eval", "--data", str(data), "--run",
                         str(run)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: cannot evaluate on {data}: truth signal has "
                   "zero range\n")
    assert not (run / "report.json").exists()


@pytest.fixture(scope="module")
def nlse_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("nlse")
    for n_time in (40, 33):
        assert cli.main(["generate", "--preset", "nlse", "--out",
                         str(root / str(n_time)), "--n-time", str(n_time),
                         "--nx", "32"]) == 0
    return root


def test_chunk_time_is_not_read(nlse_data, tmp_path, capsys):
    # the window length follows from the grid (`train.CHUNK_POINTS`)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chunk_time": 10}))
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(nlse_data / "40"), "--out",
                     str(out), "--steps", "2", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the joint path of nlse does not read chunk_time\n"
    assert not out.exists()


def test_windowed_training_matches_one_window(nlse_data, tmp_path,
                                              monkeypatch):
    # interior [1, 32) of the 33-sample wave in windows of 10 frames ends
    # in a one-frame tail; every step's parts match the one-window run's
    runs = []
    for points in (train.CHUNK_POINTS, 10 * 32):
        monkeypatch.setattr(train, "CHUNK_POINTS", points)
        out = tmp_path / str(points)
        assert cli.main(["train", "--data", str(nlse_data / "33"), "--out",
                         str(out), "--steps", "3"]) == 0
        runs.append(train.load_history(out / "history.csv"))
    one, windows = runs
    assert len(windows) == 3 and all(r["reg"] > 0 for r in windows)
    for r1, rw in zip(one, windows):
        for k in ("total_loss", "loss_p1", "loss_p2", "reg"):
            assert rw[k] == pytest.approx(r1[k], rel=1e-12), k


def test_beta_phase_weighs_the_hidden_field(pde_data, tmp_path):
    # the diffusion preset scores no residual by default; beta_phase turns
    # it on for the hidden field v
    for beta, positive in ((None, False), (5.0, True)):
        args = ["train", "--data", str(pde_data), "--out",
                str(tmp_path / str(beta)), "--steps", "2"]
        if beta is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"beta_phase": beta}))
            args += ["--config", str(cfg)]
        assert cli.main(args) == 0
        rows = train.load_history(tmp_path / str(beta) / "history.csv")
        assert all((r["reg"] > 0) == positive for r in rows), rows


def test_spacing_disagreeing_with_the_preset_exits_3(nlse_data, tmp_path,
                                                     capsys):
    # an nlse dataset written when every grid took the spacing 2 pi / 64
    data = tmp_path / "data"
    data.mkdir()
    for f in (nlse_data / "40").iterdir():
        (data / f.name).write_bytes(f.read_bytes())
    meta = json.loads((data / "meta.json").read_text())
    meta["grid"]["spacing"] = [2 * np.pi / 64]
    (data / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run"), "--steps", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt dataset") and "spacing" in err
    assert err.count("\n") == 1, err


# tiny generation sizes per preset
TINY = {"rossler": ["--n-time", "120"], "lorenz": ["--n-time", "120"],
        "diffusion_source": ["--n-time", "24", "--nx", "8"],
        "diffusive_lv": ["--n-time", "24", "--nx", "8"],
        "nlse": ["--n-time", "40", "--nx", "32"]}


@pytest.mark.parametrize("preset", sorted(cli.DEFAULT_CONFIGS))
def test_every_preset_schedule_trains(tmp_path, preset):
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["generate", "--preset", preset, "--out", str(data)]
                    + TINY[preset]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--steps", "2"]) == 0
    for name in ("model.json", "encoder.ckpt", "history.csv", "config.json"):
        assert (run / name).exists(), name


def test_joint_config_records_every_setting(pde_data, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta_phase": 2.0}))
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(pde_data), "--out", str(out),
                     "--config", str(cfg), "--steps", "2", "--seed", "3"]) == 0
    norm = datagen.Dataset.load(pde_data, truth=False).norm
    assert json.loads((out / "config.json").read_text()) == {
        "preset": "diffusion_source", "data_seed": 0,
        "normalization": {**norm.to_json(), "dt": norm.dt},
        **cli.DEFAULT_CONFIGS["diffusion_source"], "beta_phase": 2.0,
        "steps": 2, "seed": 3}


def test_config_override(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 3, "width": 8}))
    out = tmp_path / "run3"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--config", str(cfg)]) == 0
    hist = train.load_history(out / "history.csv")
    assert len(hist) == 3


def test_missing_config(workspace, tmp_path):
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "r"),
                     "--config", str(tmp_path / "none.json")]) == 2


def test_config_not_an_object(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "r"), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: bad config")


def test_config_of_pairs_with_a_number_key(workspace, tmp_path, capsys):
    # a list of pairs reads as a mapping; a key that is not a string is
    # named like any other unknown key
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[[1, 2]]")
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "r"), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "does not read 1" in err


def test_config_width_distills(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 3, "width": 8}))
    out = tmp_path / "run4"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--config", str(cfg)]) == 0
    from symder import encoders, recover
    enc = encoders.load_checkpoint(out / "encoder.ckpt")
    assert enc.spec.kind == "temporal_conv"
    doc = json.loads((out / "config.json").read_text())
    assert doc["distill_width"] == 8
    assert doc["distill_solves"] == recover.DISTILL_SOLVES
    assert doc["events"][-1].startswith("distill:")
    assert len(train.load_history(out / "history.csv")) == 3


def test_staged_lr_changes_history(workspace, tmp_path):
    out = tmp_path / "run_lr"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--steps", "20", "--lr", "1e-2"]) == 0
    assert json.loads((out / "config.json").read_text())[
        "recovery"]["lr"] == 1e-2
    assert (out / "history.csv").read_bytes() != \
        (workspace / "run" / "history.csv").read_bytes()


def test_staged_divergence_exits_1(workspace, tmp_path, capsys):
    code = cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "run_div"), "--steps", "20",
                     "--lr", "1e6"])
    assert code == 1
    assert "training diverged" in capsys.readouterr().err
    assert not (tmp_path / "run_div" / "model.json").exists()


def _copy_workspace(workspace, tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    for src, dst in ((workspace / "data", data), (workspace / "run", run)):
        dst.mkdir()
        for f in src.iterdir():
            (dst / f.name).write_bytes(f.read_bytes())
    return data, run


@pytest.mark.parametrize("name", ["meta.json", "visible.f64", "hidden.f64",
                                  "model.json", "encoder.ckpt"])
@pytest.mark.parametrize("damage,code", [("missing", 2), ("truncated", 3)])
def test_damaged_artifact_exit_code(workspace, tmp_path, capsys, name,
                                    damage, code):
    data, run = _copy_workspace(workspace, tmp_path)
    target = (data if name.endswith((".f64", "meta.json")) else run) / name
    if damage == "missing":
        target.unlink()
    else:
        target.write_bytes(target.read_bytes()[:target.stat().st_size // 2])
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(data), "--run", str(run)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_staged_rejects_joint_only_keys(workspace, tmp_path, capsys):
    # the joint-path keys, the removed joint route and optimizer knobs,
    # and the dataset size: none is read by the staged path
    for user in ({"theta_threshold": 5.0, "sparsify_every": 1,
                  "alphas": [9.0, 9.0]},
                 {"pipeline": "joint"}, {"order": 1}, {"n_time": 100},
                 {"optimizer": "adam"}, {"lr_final": 1e-4}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        out = tmp_path / "run_keys"
        assert cli.main(["train", "--data", str(workspace / "data"),
                         "--out", str(out), "--steps", "20",
                         "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        for key in user:
            assert key in err
        assert not out.exists()


def _nan_in_visible(data, run):
    arr = np.fromfile(data / "visible.f64", dtype="<f8")
    arr[5] = np.nan
    arr.tofile(data / "visible.f64")


def _nan_in_theta(data, run):
    doc = json.loads((run / "model.json").read_text())
    doc["theta"][0][1] = float("nan")
    (run / "model.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("damage", [_nan_in_visible, _nan_in_theta])
def test_non_finite_artifact_exits_3(workspace, tmp_path, capsys, damage):
    data, run = _copy_workspace(workspace, tmp_path)
    (run / "report.json").unlink(missing_ok=True)
    damage(data, run)
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(data), "--run", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "non-finite" in err and "Traceback" not in err
    assert not (run / "report.json").exists()


def test_zero_normalization_std_exits_3(workspace, tmp_path, capsys):
    # the normalization divides by std, so a zero there is as corrupt as a
    # NaN
    data, run = _copy_workspace(workspace, tmp_path)
    meta = json.loads((data / "meta.json").read_text())
    meta["normalization"]["std"][1] = 0.0
    (data / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(data), "--run", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt dataset") and \
        err.count("\n") == 1, err
    assert "std" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit,word", [
    # the preset fixes the sample spacing, as it fixes the grid spacing
    (lambda meta: meta["grid"].update(dt=0.02), "dt"),
    # the loss divides each derivative order by its std
    (lambda meta: meta["normalization"]["deriv_std"]["1"].__setitem__(0, 0),
     "deriv_std 1"),
], ids=["dt", "deriv_std"])
def test_disagreeing_dt_or_zero_deriv_std_exits_3(workspace, tmp_path,
                                                  capsys, command, edit,
                                                  word):
    data, run = _copy_workspace(workspace, tmp_path)
    meta = json.loads((data / "meta.json").read_text())
    edit(meta)
    (data / "meta.json").write_text(json.dumps(meta))
    out = tmp_path / "out"
    argv = {"train": ["--out", str(out), "--steps", "2"],
            "eval": ["--run", str(run), "--out", str(out)]}[command]
    capsys.readouterr()
    assert cli.main([command, "--data", str(data)] + argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt dataset") and \
        err.count("\n") == 1, err
    assert word in err and not out.exists()


def test_unknown_config_key(workspace, tmp_path, capsys):
    pde = tmp_path / "pde"
    assert cli.main(["generate", "--preset", "diffusion_source", "--out",
                     str(pde), "--n-time", "24", "--nx", "8"]) == 0
    for data, key in ((workspace / "data", "stpes"), (pde, "stpes"),
                      (pde, "order")):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({key: 3}))
        out = tmp_path / "run_typo"
        capsys.readouterr()
        assert cli.main(["train", "--data", str(data), "--out", str(out),
                         "--steps", "5", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err, err
        assert not out.exists()


def test_degenerate_embedding_exits_1(workspace, tmp_path, capsys,
                                      monkeypatch):
    from symder import recover
    init = recover.EmbeddingRecovery.__init__

    def constant_start(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.phi.data[...] = 0.0

    monkeypatch.setattr(recover.EmbeddingRecovery, "__init__", constant_start)
    # with the optimizer steps skipped the warmup leaves the embedding
    # constant
    monkeypatch.setattr(train.GradientOptimizer, "step", lambda self: None)
    out = tmp_path / "run_const"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--steps", "20"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged") and \
        err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"preset": "lorenz", "se', '[1]',
                                  '{"preset": "lorenz"}'],
                         ids=["truncated", "not_an_object", "no_seed"])
def test_bad_report_exits_3(tmp_path, capsys, text):
    (tmp_path / "report.json").write_text(text)
    assert cli.main(["report", "--run", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: corrupt report")
    assert captured.err.count("\n") == 1, captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def pde_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("pde") / "data"
    assert cli.main(["generate", "--preset", "diffusion_source", "--out",
                     str(data), "--n-time", "24", "--nx", "8"]) == 0
    return data


@pytest.fixture(scope="module")
def short_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("short") / "data"
    assert cli.main(["generate", "--preset", "lorenz", "--out", str(data),
                     "--n-time", "3"]) == 0
    return data


@pytest.mark.parametrize("dataset,argv,key", [
    ("ode", ["--steps", "-1"], "steps"),
    ("ode", {"steps": -2}, "steps"),
    ("ode", {"steps": "ten"}, "steps"),
    ("ode", {"steps": 2.5}, "steps"),
    ("ode", ["--width", "-3"], "width"),
    ("ode", ["--lr", "-1"], "lr"),
    ("ode", ["--lr", "0"], "lr"),
    ("ode", ["--lr", "nan"], "lr"),
    ("pde", {"alphas": [1.0]}, "alphas"),
    ("pde", {"alphas": [1.0, -1.0]}, "alphas"),
    ("pde", {"sparsify_every": -1}, "sparsify_every"),
    ("pde", {"chunk_time": 1.5}, "chunk_time"),
    ("pde", {"theta_threshold": 0}, "theta_threshold"),
    ("pde", {"divergence_limit": -1}, "divergence_limit"),
    ("pde", {"beta_phase": -1.0}, "beta_phase"),
    ("generate", ["--n-time", "0"], "--n-time"),
    ("generate", ["--nx", "-4"], "--nx"),
    ("short", [], "too short"),
    ("pde", {"alphas": [1.0, 1.0, 1.0], "steps": 2}, "alphas"),
    ("pde", ["--steps", "2", "--width", "0"], "width"),
    ("nlse", ["--steps", "2", "--width", "8"], "width"),
    ("ode", ["--seed", "-1"], "--seed"),
    # a distill normal matrix of about 119 TiB
    ("ode", ["--steps", "20", "--width", "2000"], "width 2000 needs"),
    ("generate", ["--preset", "lorenz", "--seed", "-1"], "--seed"),
    ("generate", ["--preset", "lorenz", "--nx", "7"], "--nx"),
    # one sample, or one grid point at one time: nothing to normalize by
    ("generate", ["--preset", "lorenz", "--n-time", "1"], "is constant"),
    ("generate", ["--n-time", "1", "--nx", "1"], "is constant"),
])
def test_bad_value_exits_1(workspace, pde_data, nlse_data, short_data,
                           tmp_path, capsys, dataset, argv, key):
    """A value no run can use ends in one error line that names it, before
    anything is built or written. A later --preset overrides the first."""
    out = tmp_path / "out"
    if dataset == "generate":
        cmd = ["generate", "--preset", "diffusion_source", "--out", str(out)]
    else:
        data = {"ode": workspace / "data", "pde": pde_data,
                "nlse": nlse_data / "40", "short": short_data}[dataset]
        cmd = ["train", "--data", str(data), "--out", str(out)]
    if isinstance(argv, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv))
        argv = ["--config", str(cfg)]
    capsys.readouterr()
    assert cli.main(cmd + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err and "Traceback" not in err
    assert not out.exists()


def test_width_whose_solve_copy_cannot_fit_exits_1(workspace, tmp_path,
                                                    capsys, monkeypatch):
    # physical memory holds distill's normal matrix once (8 n^2 bytes) but
    # not twice, as np.linalg.solve copies it
    from symder import recover
    n = recover.distill_unknowns(2, 48)
    sysconf = cli.os.sysconf
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 12 * n * n // 4096}
    monkeypatch.setattr(cli.os, "sysconf",
                        lambda name: memory.get(name) or sysconf(name))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(workspace / "data"), "--out",
                     str(out), "--steps", "20", "--width", "48"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config width 48 needs ") and \
        err.count("\n") == 1, err
    assert f"{n}x{n}" in err and not out.exists()


@pytest.fixture(scope="module")
def misfits(workspace, pde_data, short_data, tmp_path_factory):
    """Datasets and runs that do not fit each other, by name."""
    root = tmp_path_factory.mktemp("misfits")
    paths = {"lorenz": workspace / "data", "pde": pde_data,
             "short": short_data, "lorenz_conv": workspace / "run"}
    for name, preset, n_time, seed in (("lorenz_240", "lorenz", 240, 0),
                                       ("lorenz_60", "lorenz", 60, 0),
                                       ("lorenz_seed1", "lorenz", 120, 1),
                                       ("rossler", "rossler", 120, 0)):
        paths[name] = root / name
        assert cli.main(["generate", "--preset", preset, "--out",
                         str(paths[name]), "--n-time", str(n_time),
                         "--seed", str(seed)]) == 0
    for name, data, width in (("lorenz_emb", workspace / "data", "0"),
                              ("pde_run", pde_data, "8")):
        paths[name] = root / name
        assert cli.main(["train", "--data", str(data), "--out",
                         str(paths[name]), "--steps", "20",
                         "--width", width]) == 0
    # the conv run's model with an encoder that reads one visible channel
    one = paths["lorenz_1ch"] = root / "lorenz_1ch"
    one.mkdir()
    (one / "model.json").write_bytes((workspace / "run" / "model.json")
                                     .read_bytes())
    encoders.save_checkpoint(
        encoders.Encoder(encoders.ode_encoder_spec(n_visible=1, width=8)),
        one / "encoder.ckpt")
    return paths


@pytest.mark.parametrize("cmd,data,run,says", [
    ("eval", "pde", "lorenz_conv", "state size ('real', 3)"),
    ("predict", "lorenz", "pde_run", "state size ('real', 2)"),
    ("eval", "lorenz_240", "lorenz_emb", "(120,), the dataset's (240,)"),
    ("eval", "lorenz_60", "lorenz_emb", "series (120,)"),
    ("eval", "short", "lorenz_emb", "series (120,)"),
    ("eval", "short", "lorenz_conv", "too short"),
    ("eval", "lorenz", "lorenz_1ch", "visible channels 1, the dataset's 2"),
    ("eval", "rossler", "lorenz_conv", "preset lorenz, the dataset's rossler"),
    ("predict", "rossler", "lorenz_emb", "preset lorenz, the dataset's rossler"),
    ("eval", "lorenz_seed1", "lorenz_emb", "data seed 0, the dataset's 1"),
    ("predict", "lorenz_seed1", "lorenz_emb", "data seed 0, the dataset's 1"),
])
def test_run_that_does_not_fit_the_data_exits_1(misfits, capsys, cmd, data,
                                                run, says):
    """eval and predict refuse a run trained for other data in one line:
    another system, another series length, a series too short to score,
    another preset or, for a per-sample embedding, another trajectory."""
    capsys.readouterr()
    assert cli.main([cmd, "--data", str(misfits[data]),
                     "--run", str(misfits[run])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err and "Traceback" not in err


def test_conv_encoder_may_score_another_trajectory(misfits, tmp_path):
    assert cli.main(["eval", "--data", str(misfits["lorenz_seed1"]),
                     "--run", str(misfits["lorenz_conv"]),
                     "--out", str(tmp_path / "report.json")]) == 0


def _renormalized_copy(data, dest):
    """A copy of the dataset at `data` whose stored normalization is
    another: every mean shifted, every std scaled."""
    shutil.copytree(data, dest)
    meta = json.loads((dest / "meta.json").read_text())
    nrm = meta["normalization"]
    nrm["mean"] = [m + 0.5 for m in nrm["mean"]]
    nrm["std"] = [1.7 * s for s in nrm["std"]]
    nrm["deriv_std"] = {p: [2.0 * s for s in v]
                        for p, v in nrm["deriv_std"].items()}
    (dest / "meta.json").write_text(json.dumps(meta))
    return dest


def _scores(data, run, out, capsys):
    """What eval (writing its report to `out`) and predict print on the
    dataset at `data`, the line naming the report left out, and the
    report."""
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(data), "--run", str(run),
                     "--out", str(out)]) == 0
    assert cli.main(["predict", "--data", str(data), "--run", str(run),
                     "--start", "50"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"wrote {out}"
    return printed[1:], out.read_text()


def test_run_scores_in_its_training_units(workspace, tmp_path, capsys):
    """eval and predict normalize a dataset by the run's training
    normalization, not by the dataset's own: rewriting the dataset's stored
    normalization changes nothing they print or write."""
    run = workspace / "run"
    other = _renormalized_copy(workspace / "data", tmp_path / "other")
    assert _scores(workspace / "data", run, tmp_path / "own.json",
                   capsys) == _scores(other, run, tmp_path / "other.json",
                                      capsys)


def test_run_without_its_units_takes_the_datasets(workspace, tmp_path,
                                                 capsys):
    """A run saved before runs recorded their normalization is scored in
    the dataset's own: the same numbers on its own data, others on a
    dataset normalized otherwise."""
    run = tmp_path / "run"
    shutil.copytree(workspace / "run", run)
    doc = json.loads((run / "config.json").read_text())
    del doc["normalization"]
    (run / "config.json").write_text(json.dumps(doc))
    other = _renormalized_copy(workspace / "data", tmp_path / "other")
    own = _scores(workspace / "data", run, tmp_path / "own.json", capsys)
    assert own == _scores(workspace / "data", workspace / "run",
                          tmp_path / "with.json", capsys)
    assert own[1] != _scores(other, run, tmp_path / "other.json", capsys)[1]


@pytest.mark.parametrize("cmd", ["eval", "predict"])
def test_run_of_another_time_step_exits_1(workspace, tmp_path, capsys, cmd):
    run = tmp_path / "run"
    shutil.copytree(workspace / "run", run)
    doc = json.loads((run / "config.json").read_text())
    dt = doc["normalization"]["dt"]
    doc["normalization"]["dt"] = 2 * dt
    (run / "config.json").write_text(json.dumps(doc))
    flags = ["--out", str(tmp_path / "r.json")] if cmd == "eval" else []
    capsys.readouterr()
    assert cli.main([cmd, "--data", str(workspace / "data"),
                     "--run", str(run)] + flags) == 1
    _one_error_line(capsys, f"time step {2 * dt}, the dataset's {dt}")
    assert not (tmp_path / "r.json").exists()


def test_run_without_its_record_is_scored(misfits, tmp_path):
    """A run whose config.json is missing, or predates the record of its
    data, is scored on any dataset that fits its shapes."""
    run = tmp_path / "run"
    run.mkdir()
    for name in ("model.json", "encoder.ckpt"):
        (run / name).write_bytes((misfits["lorenz_emb"] / name).read_bytes())
    assert cli.main(["eval", "--data", str(misfits["lorenz_seed1"]),
                     "--run", str(run)]) == 0
    doc = json.loads((misfits["lorenz_emb"] / "config.json").read_text())
    assert (doc["preset"], doc["data_seed"]) == ("lorenz", 0)
    del doc["preset"], doc["data_seed"]
    (run / "config.json").write_text(json.dumps(doc))
    assert cli.main(["eval", "--data", str(misfits["rossler"]),
                     "--run", str(run)]) == 0


def test_eval_of_other_data_keeps_the_run_report(misfits, tmp_path,
                                                capsys):
    """Without --out, eval writes the run's report.json only for the
    dataset its record names: another seed exits 1 in one line asking for
    --out, before any work, and leaves the run's report as it was."""
    run = tmp_path / "run"
    shutil.copytree(misfits["lorenz_conv"], run)
    report = run / "report.json"
    report.write_text("kept")
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(misfits["lorenz_seed1"]),
                     "--run", str(run)]) == 1
    _one_error_line(capsys, "pass --out")
    assert report.read_text() == "kept"
    out = tmp_path / "seed1.json"
    assert cli.main(["eval", "--data", str(misfits["lorenz_seed1"]),
                     "--run", str(run), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 1
    assert report.read_text() == "kept"
    assert cli.main(["eval", "--data", str(misfits["lorenz"]),
                     "--run", str(run)]) == 0
    assert json.loads(report.read_text())["seed"] == 0


@pytest.mark.parametrize("cmd", ["eval", "predict"])
def test_constant_hidden_estimate_exits_1(misfits, tmp_path, capsys, cmd):
    """A zero embedding has no spread to align with the truth: eval and
    predict say so in one line, and eval writes no report."""
    run = tmp_path / "run"
    run.mkdir()
    for name in ("model.json", "config.json"):
        (run / name).write_bytes((misfits["lorenz_emb"] / name).read_bytes())
    enc = encoders.load_checkpoint(misfits["lorenz_emb"] / "encoder.ckpt")
    enc.params["phi"].data[...] = 0.0
    encoders.save_checkpoint(enc, run / "encoder.ckpt")
    capsys.readouterr()
    assert cli.main([cmd, "--data", str(misfits["lorenz"]),
                     "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot evaluate") and \
        err.count("\n") == 1, err
    assert "hidden estimate is constant" in err
    assert not (run / "report.json").exists()


def test_corrupt_run_config_exits_3(misfits, tmp_path, capsys):
    # one that does not parse, and one that parses but is no object
    run = tmp_path / "run"
    run.mkdir()
    for name in ("model.json", "encoder.ckpt"):
        (run / name).write_bytes((misfits["lorenz_emb"] / name).read_bytes())
    # and two normalization records: one without dt, one whose std is not
    # positive
    norm = {"mean": [0.0, 0.0], "std": [1.0, 1.0], "deriv_std": {}}
    for text in ("[1, 2", "[1, 2]", json.dumps({"normalization": norm}),
                 json.dumps({"normalization": {**norm, "std": [1.0, -1.0],
                                               "dt": 0.01}})):
        (run / "config.json").write_text(text)
        capsys.readouterr()
        assert cli.main(["eval", "--data", str(misfits["lorenz"]),
                         "--run", str(run)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt run config") and \
            err.count("\n") == 1, err
        assert not (run / "report.json").exists()



def _edit_checkpoint(path, edit):
    """Rewrite the checkpoint at `path` after edit(header, blob) changes
    its JSON header (a dict) and its f64 parameter blob in place."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    blob = np.frombuffer(raw[16 + hlen:], dtype="<f8").copy()
    edit(header, blob)
    head = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(head).to_bytes(8, "little") + head
                     + blob.tobytes())


def _record(header, name):
    return next(r for r in header["params"] if r["name"] == name)


@pytest.mark.parametrize("edit,says", [
    (lambda h, b: _record(h, "w2").update(offset=10 ** 6),
     "parameter w2 at offset 1000000"),
    (lambda h, b: h["spec"].update(widths=[4, 4, 1]),
     "parameter b0 of shape [8], its spec's [4]"),
    (lambda h, b: b.__setitem__(5, np.nan), "not finite"),
    (lambda h, b: _record(h, "w1").update(shape=[4, 16]),
     "parameter w1 of shape [4, 16], its spec's [8, 8]"),
    (lambda h, b: h["spec"].update(dtype="float16"), "dtype 'float16'"),
    (lambda h, b: _record(h, "b2").update(name="b3"), "parameters ["),
    (lambda h, b: h["spec"].update(widths=[8, -8, 1]), "positive integers"),
    (lambda h, b: h.update(seed=-1), "seed -1"),
], ids=["offset_past_blob", "narrow_spec", "nan_weight", "w1_reshaped",
        "unknown_dtype", "renamed", "negative_width", "negative_seed"])
def test_malformed_checkpoint_exits_3(misfits, tmp_path, capsys, edit,
                                      says):
    # each record is checked against the parameters its spec builds
    run = tmp_path / "run"
    run.mkdir()
    for name in ("model.json", "encoder.ckpt", "config.json"):
        (run / name).write_bytes((misfits["pde_run"] / name).read_bytes())
    _edit_checkpoint(run / "encoder.ckpt", edit)
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(misfits["pde"]),
                     "--run", str(run)]) == 3
    _one_error_line(capsys, says)
    assert not (run / "report.json").exists()


def test_pde_run_checkpoint_records_float32(misfits, tmp_path):
    # the joint PDE encoder trains in float32 and its checkpoint says so;
    # the run scores, and the loaded encoder takes no gradient
    enc = encoders.load_checkpoint(misfits["pde_run"] / "encoder.ckpt")
    assert enc.spec.dtype == "float32"
    assert not any(p.requires_grad for _, p in enc.parameters())
    run = tmp_path / "run"
    run.mkdir()
    for name in ("model.json", "encoder.ckpt", "config.json"):
        (run / name).write_bytes((misfits["pde_run"] / name).read_bytes())
    assert cli.main(["eval", "--data", str(misfits["pde"]),
                     "--run", str(run)]) == 0

def _drop_term_spec(run):
    doc = json.loads((run / "model.json").read_text())
    doc["term_spec"].pop()
    (run / "model.json").write_text(json.dumps(doc))


def _state_dim_2(run):
    doc = json.loads((run / "model.json").read_text())
    doc["state_dim"] = 2
    (run / "model.json").write_text(json.dumps(doc))


def _set(value, *path):
    """A damage that sets the model document's entry at `path` to value."""
    def damage(run):
        doc = json.loads((run / "model.json").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        (run / "model.json").write_text(json.dumps(doc))
    return damage


@pytest.mark.parametrize("damage,message", [
    pytest.param(_drop_term_spec, "theta has shape", id="_drop_term_spec"),
    pytest.param(_state_dim_2, "theta has shape", id="_state_dim_2")] + [
    pytest.param(_set(v, "scales", k), f"scales.{k} is {v!r}, not a "
                 "positive finite number", id=f"{k}={v}")
    for k in ("s_t", "s_x") for v in (0.0, -1.0, float("nan"), "a")] + [
    pytest.param(_set([v], "grid_spacing"), f"grid_spacing[0] is {v!r}",
                 id=f"grid_spacing={v}")
    for v in (0.0, float("inf"), True)] + [
    pytest.param(_set(v, "state_dim"), f"state_dim is {v!r}, not a positive "
                 "integer", id=f"state_dim={v}")
    for v in (3.0, 0)])
def test_inconsistent_model_exits_3(workspace, tmp_path, capsys, damage,
                                    message):
    # a scale of 0 used to end in a ZeroDivisionError traceback, "a" in a
    # numpy UFuncNoLoopError one, and -1 or NaN in a horizon of 0.000; a
    # state size of 3.0 ends in a TypeError where the loss is built
    data, run = _copy_workspace(workspace, tmp_path)
    (run / "report.json").unlink(missing_ok=True)
    damage(run)
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(data), "--run", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt model file"), err
    assert err.count("\n") == 1 and message in err, err
    assert not (run / "report.json").exists()


def test_keep_freed_heap_takes_on_glibc_only():
    assert cli.keep_freed_heap() is (platform.libc_ver()[0] == "glibc")


def test_keep_freed_heap_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli.keep_freed_heap() is False
