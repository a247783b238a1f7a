import json

import numpy as np
import pytest

from symder import datagen, evaluate, library, train
from test_train import oracle_setup


@pytest.fixture(scope="module")
def lorenz_ds():
    return datagen.simulate(datagen.get_preset("lorenz", n_time=400), seed=0)


@pytest.fixture(scope="module")
def lorenz_oracle(lorenz_ds):
    model, enc = oracle_setup(lorenz_ds)
    align = evaluate.affine_align(enc.hidden[:, 0],
                                  lorenz_ds.hidden_truth[:, 0])
    return model, enc, align


def test_relative_error():
    truth = np.array([0.0, 1.0, 2.0])
    assert evaluate.relative_error(truth, truth) == 0.0
    assert evaluate.relative_error(truth + 0.2, truth) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        evaluate.relative_error(truth, np.ones(3))


def test_affine_align_recovers_gauge():
    rng = np.random.default_rng(0)
    h = rng.normal(size=2000)
    truth = 2.5 * h - 1.25
    al = evaluate.affine_align(h, truth)
    np.testing.assert_allclose(al.a, [2.5], rtol=1e-12)
    np.testing.assert_allclose(al.b, [-1.25], atol=1e-12)
    assert al.rel_error[0] < 1e-12
    with pytest.raises(ValueError):
        evaluate.affine_align(h, truth[:-1])


def test_affine_align_noise_floor():
    rng = np.random.default_rng(1)
    h = rng.normal(size=5000)
    truth = -0.7 * h + 3.0 + 1e-3 * rng.normal(size=5000)
    al = evaluate.affine_align(h, truth)
    np.testing.assert_allclose(al.a, [-0.7], atol=1e-3)
    assert al.rel_error[0] < 1e-3


def test_oracle_tables_match(lorenz_ds, lorenz_oracle):
    model, enc, align = lorenz_oracle
    cmp = evaluate.compare_equations(model, lorenz_ds, align)
    assert cmp["pattern_match"], (cmp["missing"], cmp["spurious"])
    for key, err in cmp["coefficient_errors"].items():
        assert err < 1e-8, (key, err)


def test_pattern_detects_spurious_and_missing(lorenz_ds, lorenz_oracle):
    model, enc, align = lorenz_oracle
    m2 = library.SymbolicModel.from_json(model.to_json())
    # inject a visible-units term well above threshold and drop a true one
    uu = [i for i, t in enumerate(m2.terms) if t.name == "u^2"][0]
    m2.theta[0, uu] = 0.5
    uv = [i for i, t in enumerate(m2.terms) if t.name == "u*v"][0]
    m2.theta[2, uv] = 0.0
    cmp = evaluate.compare_equations(m2, lorenz_ds, align)
    assert not cmp["pattern_match"]
    assert (0, ("mono", (2, 0, 0))) in cmp["spurious"]
    assert (2, ("mono", (1, 1, 0))) in cmp["missing"]


def test_normalized_table_threshold_masks_noise(lorenz_ds, lorenz_oracle):
    model, enc, align = lorenz_oracle
    m2 = library.SymbolicModel.from_json(model.to_json())
    vv = [i for i, t in enumerate(m2.terms) if t.name == "v^2"][0]
    m2.theta[1, vv] = 1e-4   # below the pattern threshold
    cmp = evaluate.compare_equations(m2, lorenz_ds, align)
    assert cmp["pattern_match"]


def test_phase_errors_gauge_invariance():
    rng = np.random.default_rng(0)
    nx = 64
    x = np.arange(nx) * 2 * np.pi / nx
    truth = np.sin(x)[None, :] + 0.3 * rng.normal(size=(20, nx)).cumsum(1) * 0
    truth = np.tile(np.sin(x), (20, 1))
    est = truth + 1.7          # pure global phase offset
    pe, ge = evaluate.phase_errors(est, truth, dx=2 * np.pi / nx)
    assert pe < 1e-12 and ge < 1e-12
    # adding 2*pi to part of the domain must not matter after wrapping
    est2 = est.copy()
    est2[:, : nx // 2] += 2 * np.pi
    pe2, ge2 = evaluate.phase_errors(est2, truth, dx=2 * np.pi / nx)
    assert pe2 < 1e-12 and ge2 < 1e-10


def test_phase_errors_detects_mismatch():
    nx = 64
    x = np.arange(nx) * 2 * np.pi / nx
    truth = np.tile(np.sin(x), (10, 1))
    est = np.tile(np.sin(x + 0.5), (10, 1))
    pe, ge = evaluate.phase_errors(est, truth, dx=2 * np.pi / nx)
    assert pe > 0.01 and ge > 0.01


def _horizon(model, ds, align, hidden_estimate, start=0, to_end=False):
    # with the table `evaluate_run` builds; whether the forecast held to the
    # last sample is checked against `to_end`
    table = evaluate.compare_equations(model, ds, align)["found_physical"]
    horizon, held = evaluate.prediction_horizon(ds, table, align,
                                                hidden_estimate, start)
    assert held == to_end
    return horizon


def test_prediction_horizon_oracle(lorenz_ds, lorenz_oracle):
    model, enc, align = lorenz_oracle
    # the oracle holds through all 400 samples, 3.6 Lyapunov times
    horizon = _horizon(model, lorenz_ds, align, enc.hidden[0], to_end=True)
    assert horizon > 1.0   # Lyapunov times
    assert horizon == pytest.approx(
        399 * lorenz_ds.norm.dt / lorenz_ds.preset.lyapunov_time)


def test_prediction_horizon_held_to_the_last_sample(lorenz_ds,
                                                    lorenz_oracle):
    # from sample 390 of 400 the oracle holds through the 9 samples left:
    # the horizon is all the data allows, a lower bound
    model, enc, align = lorenz_oracle
    horizon = _horizon(model, lorenz_ds, align, enc.hidden[390], start=390,
                       to_end=True)
    tau = lorenz_ds.preset.lyapunov_time
    assert horizon == pytest.approx(9 * lorenz_ds.norm.dt / tau)
    assert _horizon(model, lorenz_ds, align, enc.hidden[399], start=399,
                    to_end=True) == 0.0


def test_prediction_horizon_bad_model(lorenz_ds, lorenz_oracle):
    model, enc, align = lorenz_oracle
    m2 = library.SymbolicModel.from_json(model.to_json())
    m2.theta *= -3.0
    horizon = _horizon(m2, lorenz_ds, align, enc.hidden[0])
    assert horizon < 0.5


def test_blow_up_ends_cleanly(lorenz_ds, lorenz_oracle):
    # du/dt = u^3 from u = 1e3 overflows inside the first sample; on Python
    # floats that must end as a SimulationError, not an OverflowError
    rhs = datagen.table_rhs({0: {("mono", (3,)): 1.0}}, 1)
    with pytest.raises(datagen.SimulationError):
        datagen.integrate(rhs, np.array([1e3]), 10, 0.1)
    model, enc, align = lorenz_oracle
    m2 = library.SymbolicModel.from_json(model.to_json())
    uu = [i for i, t in enumerate(m2.terms) if t.name == "u^2"][0]
    m2.theta[0, uu] = 1e6
    horizon = _horizon(m2, lorenz_ds, align, enc.hidden[0])
    assert horizon == 0.0


def test_report_json(lorenz_ds, lorenz_oracle, tmp_path):
    model, enc, _ = lorenz_oracle
    res = evaluate.evaluate_run(lorenz_ds, model, enc)
    # the phase errors of a wave's result close the report
    doc = evaluate.report(model, lorenz_ds, {**res, "phase_error": 2.0})
    evaluate.write_report(doc, tmp_path / "report.json")
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["pattern_match"] is True
    assert loaded["preset"] == "lorenz"
    assert list(loaded)[-1] == "phase_error" and loaded["phase_error"] == 2.0
    assert "equations" in loaded and "2" in loaded["equations"]


def test_report_hidden_baselines(lorenz_ds, lorenz_oracle):
    # the oracle's hidden error is far below both baselines; a constant
    # estimate scores the constant baseline, about 1 against the smaller
    # of the two (w is nearly uncorrelated with u and v)
    model, enc, _ = lorenz_oracle
    res = evaluate.evaluate_run(lorenz_ds, model, enc)
    doc = evaluate.report(model, lorenz_ds, res)
    hidden = json.loads(json.dumps(doc))["hidden"]
    assert set(hidden) == {"a", "b", "rel_error", "constant_rel_error",
                           "visible_affine_rel_error"}
    assert evaluate.baseline_ratio(hidden)[0] < 1e-6
    lo, hi = res["lo"], res["hi"]
    truth = lorenz_ds.hidden_truth[lo:hi, 0]
    const = evaluate.affine_align(np.zeros(hi - lo), truth)
    hidden["rel_error"] = const.rel_error.tolist()
    assert hidden["rel_error"][0] == pytest.approx(
        hidden["constant_rel_error"][0], rel=1e-12)
    assert evaluate.baseline_ratio(hidden)[0] == pytest.approx(1.0, abs=0.1)


def test_nlse_truth_table_roundtrip():
    ds = datagen.simulate(datagen.get_preset("nlse", n_time=50), seed=0)
    model = train.default_model(ds.preset, seed=0)
    truth_n = evaluate.truth_normalized_table(ds, model)
    model.theta[...] = library.model_theta(model, truth_n)
    align = evaluate.Alignment(a=np.ones(1), b=np.zeros(1),
                               rel_error=np.zeros(1))
    cmp = evaluate.compare_equations(model, ds, align)
    assert cmp["pattern_match"], (cmp["missing"], cmp["spurious"])
    for key, err in cmp["coefficient_errors"].items():
        assert err < 1e-10, (key, err)


def test_staged_run_scored_on_its_training_window():
    from symder import recover
    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)
    rec = recover.EmbeddingRecovery(ds, train.default_model(ds.preset),
                                    recover.RecoveryConfig(20, 2e-3))
    rec.fit()
    enc = rec.emb
    n = ds.visible.shape[0]
    res = evaluate.evaluate_run(ds, rec.model, enc)
    assert (res["lo"], res["hi"]) == (rec.prob.lo, rec.prob.hi) == (2, n - 2)
    # phi[1] and phi[n-2] get no gradient from the staged loss
    rec.phi.data[[1, n - 2]] = 1e3
    again = evaluate.evaluate_run(ds, rec.model, enc)
    np.testing.assert_array_equal(again["align"].rel_error,
                                  res["align"].rel_error)


def test_pde_truth_normalized_over_the_field():
    from dataclasses import replace
    ds = datagen.simulate(datagen.get_preset("diffusion_source", n_time=24,
                                             nx=8), seed=0)
    model = train.default_model(ds.preset, seed=0)
    table = evaluate.truth_normalized_table(ds, model)
    # which grid point comes first does not change the field's statistics
    rolled = replace(ds, hidden_truth=np.roll(ds.hidden_truth, (3, 5),
                                              axis=(1, 2)))
    for eq, row in evaluate.truth_normalized_table(rolled, model).items():
        for key, c in row.items():
            np.testing.assert_allclose(c, table[eq][key], rtol=1e-12,
                                       atol=1e-15)
