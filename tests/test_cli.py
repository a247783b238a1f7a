import json
import platform

import numpy as np
import pytest

from symder import cli, datagen, encoders, train


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


def test_report_before_eval(tmp_path):
    assert cli.main(["report", "--run", str(tmp_path)]) == 2


def test_predict(workspace, capsys):
    assert cli.main(["predict", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run"), "--start", "50"]) == 0
    assert "prediction horizon" in capsys.readouterr().out


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


@pytest.fixture(scope="module")
def nlse_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("nlse")
    for n_time in (40, 33):
        assert cli.main(["generate", "--preset", "nlse", "--out",
                         str(root / str(n_time)), "--n-time", str(n_time),
                         "--nx", "32"]) == 0
    return root


def test_chunk_below_the_residual_stencil_exits_1(nlse_data, tmp_path,
                                                  capsys):
    # the wave's hidden residual spans 3 samples; chunks of 2 cannot hold it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chunk_time": 2}))
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(nlse_data / "40"), "--out",
                     str(out), "--steps", "2", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "chunk_time 2" in err
    assert not out.exists()


def test_short_last_chunk_trains(nlse_data, tmp_path):
    # window [1, 32) in chunks of 10 ends in a 1-sample tail, which joins
    # the chunk before it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chunk_time": 10}))
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(nlse_data / "33"), "--out",
                     str(out), "--steps", "2", "--config", str(cfg)]) == 0
    rows = train.load_history(out / "history.csv")
    assert len(rows) == 2 and all(r["reg"] > 0 for r in rows)


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
    assert doc["distill_steps"] == recover.DISTILL_STEPS
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
])
def test_bad_value_exits_1(workspace, pde_data, short_data, tmp_path, capsys,
                           dataset, argv, key):
    """A value no run can use ends in one error line that names it, before
    anything is built or written."""
    out = tmp_path / "out"
    if dataset == "generate":
        cmd = ["generate", "--preset", "diffusion_source", "--out", str(out)]
    else:
        data = {"ode": workspace / "data", "pde": pde_data,
                "short": short_data}[dataset]
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


@pytest.fixture(scope="module")
def misfits(workspace, pde_data, short_data, tmp_path_factory):
    """Datasets and runs that do not fit each other, by name."""
    root = tmp_path_factory.mktemp("misfits")
    paths = {"lorenz": workspace / "data", "pde": pde_data,
             "short": short_data, "lorenz_conv": workspace / "run"}
    for n_time in (240, 60):
        paths[f"lorenz_{n_time}"] = root / f"lorenz_{n_time}"
        assert cli.main(["generate", "--preset", "lorenz", "--out",
                         str(paths[f"lorenz_{n_time}"]), "--n-time",
                         str(n_time)]) == 0
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
])
def test_run_that_does_not_fit_the_data_exits_1(misfits, capsys, cmd, data,
                                                run, says):
    """eval and predict refuse a run trained for other data in one line:
    another system, another series length, a series too short to score."""
    capsys.readouterr()
    assert cli.main([cmd, "--data", str(misfits[data]),
                     "--run", str(misfits[run])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err and "Traceback" not in err


def _drop_term_spec(run):
    doc = json.loads((run / "model.json").read_text())
    doc["term_spec"].pop()
    (run / "model.json").write_text(json.dumps(doc))


def _state_dim_2(run):
    doc = json.loads((run / "model.json").read_text())
    doc["state_dim"] = 2
    (run / "model.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("damage", [_drop_term_spec, _state_dim_2])
def test_inconsistent_model_exits_3(workspace, tmp_path, capsys, damage):
    data, run = _copy_workspace(workspace, tmp_path)
    (run / "report.json").unlink(missing_ok=True)
    damage(run)
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(data), "--run", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt model file"), err
    assert err.count("\n") == 1 and "theta has shape" in err, err
    assert not (run / "report.json").exists()


def test_keep_freed_heap_takes_on_glibc_only():
    assert cli.keep_freed_heap() is (platform.libc_ver()[0] == "glibc")


def test_keep_freed_heap_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli.keep_freed_heap() is False
