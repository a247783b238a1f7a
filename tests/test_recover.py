from dataclasses import asdict

import numpy as np
import pytest

from symder import datagen, fd, recover, train
from symder import tensor as T


@pytest.fixture(scope="module")
def lorenz_ds():
    return datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)


def _recovery(ds, steps):
    model = train.default_model(ds.preset, seed=0)
    cfg = recover.RecoveryConfig.from_budget(steps, seed=0)
    return recover.EmbeddingRecovery(ds, model, cfg)


def test_budget_reproduces_packaged_schedules():
    assert asdict(recover.RecoveryConfig.from_budget(20500)) == \
        asdict(recover.RecoveryConfig())
    assert asdict(recover.RecoveryConfig.from_budget(10000)) == \
        asdict(recover.RecoveryConfig.reduced())
    assert recover.RecoveryConfig.from_budget(10000, seed=3) == \
        recover.RecoveryConfig.reduced(seed=3)


@pytest.mark.parametrize("steps", [0, 1, 3, 20, 9999, 19999, 20000, 50001])
def test_budget_split_is_exact(steps):
    cfg = recover.RecoveryConfig.from_budget(steps)
    assert cfg.descent_steps == steps
    assert min(cfg.warmup_steps, cfg.round_steps, cfg.baseline_steps,
               cfg.polish_steps) >= 0
    assert cfg.eliminate == (steps >= recover.FULL_BUDGET)


def test_fit_writes_one_history_row_per_step(lorenz_ds):
    rec = _recovery(lorenz_ds, 12)
    res = rec.fit()
    assert [row["step"] for row in res.history] == list(range(12))
    for row in res.history:
        assert list(row) == train.HISTORY_FIELDS
        # staged loss = both derivative orders (unit weights) + hidden residual
        assert row["total_loss"] == pytest.approx(
            row["loss_p1"] + row["loss_p2"] + row["reg"], rel=1e-12)
        assert row["reg"] > 0.0
    assert res.events[-1].startswith("polish")


def test_fit_raises_on_divergence(lorenz_ds):
    rec = _recovery(lorenz_ds, 12)
    rec.model.theta[...] = 1e6
    rec.model.sync()
    with pytest.raises(train.TrainingDiverged):
        rec.fit()


def test_diverging_trial_is_rejected(lorenz_ds):
    # the first elimination trial runs at a rate that blows it up; it scores
    # +inf, fails the gate, and elimination carries on
    cfg = recover.RecoveryConfig(warmup_steps=60, gauge_rounds=1,
                                 round_steps=10, baseline_steps=10,
                                 trial_steps=7, polish_steps=10,
                                 eliminate=True, seed=0)
    rec = recover.EmbeddingRecovery(
        lorenz_ds, train.default_model(lorenz_ds.preset, seed=0), cfg)
    run, diverged = rec.run, []

    def run_first_trial_hot(nsteps, lr0=None, **kw):
        if nsteps == cfg.trial_steps and not diverged:
            try:
                return run(nsteps, lr0=1e6, **kw)
            except train.TrainingDiverged:
                diverged.append(nsteps)
                raise
        return run(nsteps, lr0=lr0, **kw)

    rec.run = run_first_trial_hot
    res = rec.fit()
    assert diverged == [cfg.trial_steps]
    assert np.isfinite(res.loss)
    assert res.events[-1].startswith("polish")
    assert np.all(np.isfinite(rec.model.theta))


def test_distill_logs_event(lorenz_ds):
    rec = _recovery(lorenz_ds, 10)
    res = rec.fit()
    n_rows = len(res.history)
    recover.distill(rec, width=8, steps=5)
    assert rec.events[-1].startswith("distill: loss ")
    assert len(res.history) == n_rows


def test_loss_fn_matches_two_pass_formula(lorenz_ds):
    """One jet per staged loss gives the loss (and gradient) of the formula
    that reconstructs the state twice and evaluates the model again."""
    rec = _recovery(lorenz_ds, 10)
    rec.phi.data[...] = np.random.default_rng(3).normal(size=rec.phi.shape)

    def two_pass():
        lo, hi = rec.prob.lo, rec.prob.hi
        base, parts = rec.prob.compute_loss(lo, hi)
        state = rec.prob.reconstruct(lo, hi)
        F = rec.model.evaluate(state)
        dw = fd.apply_stencil(state[:, rec.n_vis:],
                              fd.CENTRAL_STENCILS_4[1] * rec.model.s_t)
        reg = T.tmean(T.square(T.sub(F[lo:-lo, rec.n_vis:], dw)))
        parts["reg"] = reg.item()
        return T.add(base, reg), parts

    out = []
    for loss_fn in (rec.loss_fn, two_pass):
        rec.model.theta_t.zero_grad()
        rec.phi.zero_grad()
        total, parts = loss_fn()
        T.backward(total)
        out.append((float(total.data), parts, rec.model.theta_t.grad.copy(),
                    rec.phi.grad.copy()))
    (v, parts, gth, gphi), (v0, parts0, gth0, gphi0) = out
    assert v == pytest.approx(v0, rel=1e-12)
    for k in parts0:
        assert parts[k] == pytest.approx(parts0[k], rel=1e-12)
    np.testing.assert_allclose(gth, gth0, rtol=1e-10,
                               atol=1e-12 * np.abs(gth0).max())
    np.testing.assert_allclose(gphi, gphi0, rtol=1e-10,
                               atol=1e-12 * np.abs(gphi0).max())


@pytest.mark.parametrize("gauge", ["gauge_standardize", "gauge_orthogonalize"])
@pytest.mark.parametrize("value", [0.0, np.nan])
def test_gauge_refuses_degenerate_embedding(lorenz_ds, gauge, value):
    rec = _recovery(lorenz_ds, 10)
    rec.phi.data[...] = value
    theta = rec.model.theta.copy()
    with pytest.raises(train.TrainingDiverged, match="std"):
        getattr(rec, gauge)()
    np.testing.assert_array_equal(rec.phi.data, value)
    np.testing.assert_array_equal(rec.model.theta, theta)


def _degree(rec):
    return np.array([sum(t.exponents) for t in rec.model.terms])


@pytest.mark.parametrize("gauge,support", [
    ("gauge_standardize", "full"), ("gauge_standardize", "degree<=1"),
    ("gauge_orthogonalize", "full")])
def test_gauge_keeps_derivative_losses(lorenz_ds, gauge, support):
    """The gauge rewrites theta for the new hidden variable in closed form, so
    the visible derivative losses do not move. Orthogonalizing is checked on
    the full mask only, the one it runs on: its linear mixing creates
    quadratics that a sparser mask would zero."""
    rec = _recovery(lorenz_ds, 10)
    rng = np.random.default_rng(7)
    rec.phi.data[...] = rng.normal(0.5, 2.0, rec.phi.shape)
    if support != "full":
        rec.model.mask[...] = (_degree(rec) <= 1)[None, :]
    rec.model.theta[...] = rng.normal(0.0, 0.5, rec.model.theta.shape)
    rec.model.theta[~rec.model.mask] = 0.0
    rec.model.sync()
    before = rec.loss_fn()[1]
    sd = float(rec.phi.data[rec.prob.lo:rec.prob.hi].std())
    getattr(rec, gauge)()
    after = rec.loss_fn()[1]
    for part in ("loss_p1", "loss_p2"):
        assert after[part] == pytest.approx(before[part], rel=1e-12)
    if gauge == "gauge_standardize":
        # the hidden residual is measured in the hidden variable's units
        assert after["reg"] == pytest.approx(before["reg"] / sd ** 2,
                                             rel=1e-10)
