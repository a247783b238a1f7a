import re

import numpy as np
import pytest

from symder import datagen, encoders, fd, jets, library, recover, train
from symder import tensor as T


@pytest.fixture(scope="module")
def lorenz_ds():
    return datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)


def _recovery(ds, steps):
    model = train.default_model(ds.preset, seed=0)
    cfg = recover.RecoveryConfig(steps, 2e-3, seed=0)
    return recover.EmbeddingRecovery(ds, model, cfg)


@pytest.mark.parametrize("steps,split,eliminate", [
    (1000, (400, 2, 100, 100, 300), False),
    (10000, (4000, 2, 1000, 1000, 3000), False),
    (19999, (7999, 2, 1999, 1999, 6003), False),
    (20000, (5853, 3, 1463, 1951, 7807), True),
    (20500, (6000, 3, 1500, 2000, 8000), True)])
def test_budget_split_in_numbers(steps, split, eliminate):
    # warmup / gauge rounds x round / baseline / polish
    cfg = recover.RecoveryConfig(steps, 2e-3)
    assert tuple(cfg.schedule) == split
    assert cfg.eliminate is eliminate


@pytest.mark.parametrize("steps", [0, 1, 3, 20, 9999, 19999, 20000, 50001])
def test_budget_split_is_exact(steps):
    s = recover.RecoveryConfig(steps, 2e-3).schedule
    assert (s.warmup_steps + s.gauge_rounds * s.round_steps
            + s.baseline_steps + s.polish_steps) == steps
    assert min(s.warmup_steps, s.round_steps, s.baseline_steps,
               s.polish_steps) >= 0
    assert recover.RecoveryConfig(steps, 2e-3).eliminate == \
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
    monkeypatch.setattr(recover, "DISTILL_SOLVES", 5)
    rec = _recovery(lorenz_ds, 10)
    rec.fit()
    n_rows = len(rec.history)
    recover.distill(rec, 8)
    assert re.fullmatch(r"distill: loss \S+ t \d+\.\d\ds", rec.events[-1])
    assert len(rec.history) == n_rows


def _random_conv_encoder(seed):
    enc = encoders.Encoder(encoders.ode_encoder_spec(n_visible=2, width=8))
    rng = np.random.default_rng(seed)
    for _, p in enc.parameters():
        p.data[...] = rng.normal(size=p.shape)
    return enc


def test_distill_forward_matches_tape(lorenz_ds):
    enc = _random_conv_encoder(1)
    vis = lorenz_ds.visible
    patches = recover.conv_patches(vis, enc.receptive_field)
    y = recover.conv_forward([p.data for _, p in enc.parameters()], patches)[2]
    np.testing.assert_allclose(y, enc(T.Tensor(vis)).data[:, 0], rtol=0,
                               atol=1e-13)


@pytest.mark.parametrize("block", [128, 7])
def test_distill_normal_equations_match_tape_gradient(lorenz_ds, block):
    """(2/N) J^T r is the tape gradient of the mean squared error, and
    u^T J^T J v the product of central differences of the output along u
    and v, in any block size."""
    enc = _random_conv_encoder(2)
    vis = lorenz_ds.visible
    rng = np.random.default_rng(3)
    target = rng.normal(size=vis.shape[0] - 8)
    params = [p.data for _, p in enc.parameters()]
    patches = recover.conv_patches(vis, enc.receptive_field)
    jtj, jtr = np.empty((233, 233)), np.full(233, np.nan)
    sse = recover.conv_normal_equations(params, patches, target, jtj, jtr,
                                        block=block)
    loss = T.tmean(T.square(T.sub(enc(T.Tensor(vis)),
                                  T.Tensor(target[:, None]))))
    T.backward(loss)
    assert sse / len(target) == pytest.approx(float(loss.data), rel=1e-13)
    grads = 2.0 / len(target) * jtr
    for name, p in enc.parameters():
        g, grads = grads[:p.size], grads[p.size:]
        np.testing.assert_allclose(g.reshape(p.shape), p.grad, rtol=1e-10,
                                   atol=1e-10 * np.abs(p.grad).max(),
                                   err_msg=name)
    assert grads.size == 0

    def along(d, h=1e-6):
        cuts = np.cumsum([a.size for a in params])[:-1]
        y = [recover.conv_forward(
                 [a + s * h * v.reshape(a.shape)
                  for a, v in zip(params, np.split(d, cuts))], patches)[2]
             for s in (1, -1)]
        return (y[0] - y[1]) / (2 * h)

    u, v = rng.normal(size=(2, len(jtr)))
    assert u @ jtj @ v == pytest.approx(along(u) @ along(v), rel=1e-6)


# the mean squared error of the encoder that 3000 AdaBelief steps from the
# same seeded start fit to this fixture's embedding
DESCENT_DISTILL_LOSS = 0.0002909144432741439


def test_distill_ends_below_the_descent_fit():
    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=300), seed=0)
    rec = _recovery(ds, 1000)
    rec.fit()
    enc = recover.distill(rec, 8)
    r = enc.radius
    loss = T.tmean(T.square(T.sub(enc(T.Tensor(ds.visible)),
                                  T.Tensor(rec.phi.data[r:-r]))))
    assert float(loss.data) < DESCENT_DISTILL_LOSS


def test_loss_fn_matches_two_pass_formula(lorenz_ds):
    """The tape reference's one jet per staged loss gives the loss (and
    gradient) of the formula that reconstructs the state twice and
    evaluates the model again."""
    rec = _recovery(lorenz_ds, 10)
    rec.phi.data[...] = np.random.default_rng(3).normal(size=rec.phi.shape)

    # the derivative matching alone, from a problem without the residual
    matching = train.Problem(rec.ds, rec.model, rec.emb)

    def two_pass():
        lo, hi = rec.prob.lo, rec.prob.hi
        base, parts = matching.tape_loss(lo, hi)
        state = rec.prob.reconstruct(lo, hi)
        F = jets.propagate(state, rec.model, 1).coeffs[1]
        dw = fd.apply_stencil(state[:, rec.n_vis:],
                              fd.CENTRAL_STENCILS_4[1] * rec.model.s_t)
        reg = T.tmean(T.square(T.sub(F[lo:-lo, rec.n_vis:], dw)))
        parts["reg"] = reg.item()
        return T.add(base, reg), parts

    out = []
    for loss_fn in (rec.prob.tape_loss, two_pass):
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
                                    recover.RecoveryConfig(10, 2e-3))
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


def _tape_loss_and_grad(rec):
    """`loss_and_grad` on the tape: the problem's tape reference and its
    backward sweep."""
    total, parts = rec.prob.tape_loss()
    T.backward(total)
    return float(total.data), parts


def _recovery_on_terms(ds, terms):
    """A recovery whose model has the given terms, all active."""
    model = library.SymbolicModel(terms=terms,
                                  theta=np.zeros((3, len(terms))),
                                  mask=np.ones((3, len(terms))),
                                  s_t=library.ode_library().s_t, state_dim=3)
    return recover.EmbeddingRecovery(ds, model, recover.RecoveryConfig(10, 2e-3))


@pytest.mark.parametrize("case", ["full", "partial", "gauged", "linear",
                                  "permuted", "empty_row"])
def test_loss_and_grad_matches_tape(lorenz_ds, case):
    # linear: constant and linear terms only, which the quadratic form takes
    # as pairs with the constant row of [1, state]; permuted: the terms in
    # another order; empty_row: one equation with every term masked
    if case == "linear":
        rec = _recovery_on_terms(lorenz_ds, library.monomial_terms(3, 1))
    elif case == "permuted":
        terms = library.monomial_terms(3)
        order = np.random.default_rng(5).permutation(len(terms))
        rec = _recovery_on_terms(lorenz_ds, [terms[i] for i in order])
    else:
        rec = _recovery(lorenz_ds, 10)
    rng = np.random.default_rng(11)
    rec.phi.data[...] = rng.normal(0.5, 2.0, rec.phi.shape)
    rec.model.theta[...] = rng.normal(0.0, 0.5, rec.model.theta.shape)
    if case == "partial":
        rec.model.mask[:, rec.names.index("u*w")] = False
        rec.model.mask[[0, 2], [rec.names.index("v"), rec.names.index("1")]] \
            = False
        rec.model.theta[~rec.model.mask] = 0.0
    if case == "empty_row":
        rec.model.mask[2] = False
        rec.model.theta[2] = 0.0
    if case == "gauged":
        rec.gauge_standardize()
    out = []
    for loss_and_grad in (rec.loss_and_grad, lambda: _tape_loss_and_grad(rec)):
        rec.model.theta_t.zero_grad()
        rec.phi.zero_grad()
        value, parts = loss_and_grad()
        out.append((value, parts, rec.model.theta_t.grad.copy(),
                    rec.phi.grad.copy()))
    (v, parts, gth, gphi), (v0, parts0, gth0, gphi0) = out
    assert v == pytest.approx(v0, rel=1e-12)
    assert parts.keys() == parts0.keys()
    for k in parts0:
        assert parts[k] == pytest.approx(parts0[k], rel=1e-12)
    np.testing.assert_array_equal(gth[~rec.model.mask], 0.0)
    np.testing.assert_allclose(gth, gth0, rtol=1e-10,
                               atol=1e-12 * np.abs(gth0).max())
    np.testing.assert_allclose(gphi, gphi0, rtol=1e-10,
                               atol=1e-12 * np.abs(gphi0).max())


def _assert_fit_matches_tape_descent(ds, steps):
    """A `fit` of the given budget gives the same history rows and mask as
    one whose `loss_and_grad` is patched to the tape."""
    closed, tape = _recovery(ds, steps), _recovery(ds, steps)
    tape.loss_and_grad = lambda: _tape_loss_and_grad(tape)
    closed.fit()
    tape.fit()
    assert len(closed.history) == len(tape.history) == steps
    for row, row0 in zip(closed.history, tape.history):
        assert row.keys() == row0.keys()
        for k, v in row0.items():
            assert row[k] == pytest.approx(v, rel=1e-10, abs=1e-10), k
    np.testing.assert_array_equal(closed.model.mask, tape.model.mask)


def test_fit_history_matches_tape_descent(lorenz_ds):
    _assert_fit_matches_tape_descent(lorenz_ds, 12)


def test_fit_history_matches_tape_descent_across_a_pin(lorenz_ds):
    # at a budget of 1000 the polish runs 300 steps and re-standardizes w at
    # its step PIN_EVERY = 200, inside the descent
    assert recover.RecoveryConfig(1000, 2e-3).schedule.polish_steps \
        > recover.PIN_EVERY
    _assert_fit_matches_tape_descent(lorenz_ds, 1000)


def test_fit_logs_timed_events(lorenz_ds):
    # each phase event ends with the seconds since the start of `fit`, to
    # 0.01 s, as the distill event does
    rec = _recovery(lorenz_ds, 12)
    rec.fit()
    t = r" t \d+\.\d\ds"
    patterns = [r"warmup: loss \S+" + t, r"round 0: loss \S+" + t,
                r"round 1: loss \S+" + t,
                r"support: \d+ active, loss \S+" + t,
                r"polish: loss \S+ active \d+" + t]
    assert len(rec.events) == len(patterns)
    for pattern, event in zip(patterns, rec.events):
        assert re.fullmatch(pattern, event), event
    times = [float(e.split(" t ")[-1][:-1]) for e in rec.events]
    assert times == sorted(times)


def test_elimination_logs_timed_events(lorenz_ds, monkeypatch):
    # the `eliminate[...]` events are stamped like the other phase events,
    # in seconds since the start of `fit`; a budget of 200 runs the full
    # schedule, elimination included, at 7-step trials
    monkeypatch.setattr(recover, "FULL_BUDGET", 200)
    monkeypatch.setattr(recover, "TRIAL_STEPS", 7)
    rec = _recovery(lorenz_ds, 200)
    rec.fit()
    assert any(e.startswith("eliminate[") for e in rec.events), rec.events
    for event in rec.events:
        assert re.search(r" t \d+\.\d\ds$", event), event
    times = [float(e.split(" t ")[-1][:-1]) for e in rec.events]
    assert times == sorted(times)


@pytest.mark.parametrize("term", [library.Monomial((3, 0, 0)),
                                  library.SpatialDerivative(0, (1, 0))])
def test_recovery_refuses_terms_off_the_closed_form(lorenz_ds, term):
    model = train.default_model(lorenz_ds.preset, seed=0)
    model = library.SymbolicModel(terms=model.terms + [term],
                                  theta=np.zeros((3, len(model.terms) + 1)),
                                  mask=np.ones((3, len(model.terms) + 1)),
                                  s_t=model.s_t, state_dim=3)
    with pytest.raises(ValueError, match=re.escape(term.name)):
        recover.EmbeddingRecovery(lorenz_ds, model,
                                  recover.RecoveryConfig(10, 2e-3))
