import numpy as np
import pytest

from symder import datagen, fd, jets, recover, train
from symder import tensor as T


@pytest.fixture(scope="module")
def lorenz_ds():
    return datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)


def _recovery(ds, steps):
    model = train.default_model(ds.preset, seed=0)
    cfg = recover.RecoveryConfig(steps, seed=0)
    return recover.EmbeddingRecovery(ds, model, cfg)


@pytest.mark.parametrize("steps,split,eliminate", [
    (1000, (400, 2, 100, 100, 300), False),
    (10000, (4000, 2, 1000, 1000, 3000), False),
    (19999, (7999, 2, 1999, 1999, 6003), False),
    (20000, (5853, 3, 1463, 1951, 7807), True),
    (20500, (6000, 3, 1500, 2000, 8000), True)])
def test_budget_split_in_numbers(steps, split, eliminate):
    # warmup / gauge rounds x round / baseline / polish
    cfg = recover.RecoveryConfig(steps)
    assert tuple(cfg.schedule) == split
    assert cfg.eliminate is eliminate


@pytest.mark.parametrize("steps", [0, 1, 3, 20, 9999, 19999, 20000, 50001])
def test_budget_split_is_exact(steps):
    s = recover.RecoveryConfig(steps).schedule
    assert (s.warmup_steps + s.gauge_rounds * s.round_steps
            + s.baseline_steps + s.polish_steps) == steps
    assert min(s.warmup_steps, s.round_steps, s.baseline_steps,
               s.polish_steps) >= 0
    assert recover.RecoveryConfig(steps).eliminate == \
        (steps >= recover.FULL_BUDGET)


def test_fit_writes_one_history_row_per_step(lorenz_ds):
    rec = _recovery(lorenz_ds, 12)
    rec.fit()
    assert [row["step"] for row in rec.history] == list(range(12))
    for row in rec.history:
        assert list(row) == train.HISTORY_FIELDS
        # staged loss = both derivative orders (unit weights) + hidden residual
        assert row["total_loss"] == pytest.approx(
            row["loss_p1"] + row["loss_p2"] + row["reg"], rel=1e-12)
        assert row["reg"] > 0.0
    assert rec.events[-1].startswith("polish")


def test_fit_keeps_theta_in_its_tape_leaf(lorenz_ds):
    rec = _recovery(lorenz_ds, 12)
    rec.fit()
    m = rec.model
    assert np.shares_memory(m.theta, m.theta_t.data)
    assert not m.mask.all()
    np.testing.assert_array_equal(m.theta[~m.mask], 0.0)


def test_fit_raises_on_divergence(lorenz_ds):
    rec = _recovery(lorenz_ds, 12)
    rec.model.theta[...] = 1e6
    with pytest.raises(train.TrainingDiverged):
        rec.fit()


def test_diverging_trial_is_rejected(lorenz_ds, monkeypatch):
    # the first elimination trial runs at a rate that blows it up; it scores
    # +inf, fails the gate, and elimination carries on. A budget of 200 runs
    # the full schedule, elimination included, at 58 / 3x14 / 19 / 81 steps
    monkeypatch.setattr(recover, "FULL_BUDGET", 200)
    monkeypatch.setattr(recover, "TRIAL_STEPS", 7)
    rec = _recovery(lorenz_ds, 200)
    run, diverged = rec.run, []

    def run_first_trial_hot(nsteps, lr0=None, **kw):
        if nsteps == recover.TRIAL_STEPS and not diverged:
            try:
                return run(nsteps, lr0=1e6, **kw)
            except train.TrainingDiverged:
                diverged.append(nsteps)
                raise
        return run(nsteps, lr0=lr0, **kw)

    rec.run = run_first_trial_hot
    loss = rec.fit()
    assert diverged == [recover.TRIAL_STEPS]
    assert np.isfinite(loss)
    assert rec.events[-1].startswith("polish")
    assert np.all(np.isfinite(rec.model.theta))


def test_distill_logs_event(lorenz_ds, monkeypatch):
    monkeypatch.setattr(recover, "DISTILL_STEPS", 5)
    rec = _recovery(lorenz_ds, 10)
    rec.fit()
    n_rows = len(rec.history)
    recover.distill(rec, 8)
    assert rec.events[-1].startswith("distill: loss ")
    assert len(rec.history) == n_rows


def test_loss_fn_matches_two_pass_formula(lorenz_ds):
    """One jet per staged loss gives the loss (and gradient) of the formula
    that reconstructs the state twice and evaluates the model again."""
    rec = _recovery(lorenz_ds, 10)
    rec.phi.data[...] = np.random.default_rng(3).normal(size=rec.phi.shape)

    # the derivative matching alone, from a problem without the residual
    matching = train.Problem(rec.ds, rec.model, rec.emb)

    def two_pass():
        lo, hi = rec.prob.lo, rec.prob.hi
        base, parts = matching.compute_loss(lo, hi)
        state = rec.prob.reconstruct(lo, hi)
        F = jets.propagate(state, rec.model, 1).coeffs[1]
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


def test_gauge_keeps_fit_on_mask_without_shift_targets():
    """With the u and v columns masked, the shift would move the u*w and
    v*w coefficients onto u and v; the gauge rescales alone instead, and
    the derivative losses hold."""
    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=200), seed=0)
    rec = recover.EmbeddingRecovery(ds, train.default_model(ds.preset,
                                                            seed=0),
                                    recover.RecoveryConfig(10))
    rec.phi.data[...] = np.random.default_rng(1).normal(1.0, 2.0,
                                                        rec.phi.shape)
    for name in ("u", "v"):
        rec.model.mask[:, rec.names.index(name)] = False
    rec.model.theta[~rec.model.mask] = 0.0
    before = rec.loss_fn()[1]
    assert (before["loss_p1"], before["loss_p2"]) == pytest.approx(
        (1.2748, 1.2592), abs=5e-5)
    rec.gauge_standardize()
    after = rec.loss_fn()[1]
    for part in ("loss_p1", "loss_p2"):
        assert after[part] == pytest.approx(before[part], rel=1e-12)
