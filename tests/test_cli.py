import json

import numpy as np
import pytest

from symder import cli, datagen, train


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_threshold": 5.0, "sparsify_every": 1,
                               "order": 1, "alphas": [9.0, 9.0]}))
    out = tmp_path / "run_keys"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--steps", "20",
                     "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    for key in ("order", "alphas", "sparsify_every", "theta_threshold"):
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
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"stpes": 3}))
    out = tmp_path / "run_typo"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--steps", "5",
                     "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "stpes" in err
    assert not out.exists()


def test_degenerate_embedding_exits_1(workspace, tmp_path, capsys,
                                      monkeypatch):
    from symder import recover
    init = recover.EmbeddingRecovery.__init__

    def constant_start(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.phi.data[...] = 0.0

    monkeypatch.setattr(recover.EmbeddingRecovery, "__init__", constant_start)
    out = tmp_path / "run_const"
    # at lr 0 the warmup leaves the embedding constant
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--steps", "20", "--lr", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged") and \
        err.count("\n") == 1, err
    assert not out.exists()
