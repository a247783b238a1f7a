import dataclasses
import json

import numpy as np
import pytest

from symder import tensor as T
from symder import datagen, encoders, jets, library, train


@pytest.fixture(scope="module")
def lorenz_ds():
    return datagen.simulate(datagen.get_preset("lorenz", n_time=400), seed=0)


# the run settings `train.fit` reads, thresholding off
SETTINGS = {"steps": 10, "lr": 1e-3, "sparsify_every": 0,
            "theta_threshold": 1e-3, "divergence_limit": 1e6}


def settings(**changes):
    return {**SETTINGS, **changes}


def small_problem(ds, alphas=(1.0, 1.0), seed=0):
    model = train.default_model(ds.preset, seed=seed)
    enc = encoders.Encoder(encoders.ode_encoder_spec(n_visible=2, width=8),
                           seed=seed)
    return train.Problem(ds, model, enc, alphas=alphas)


# -- optimizer ---------------------------------------------------------------

def test_adabelief_first_step_hand():
    x = T.Tensor(np.array([1.0]), requires_grad=True)
    opt = train.GradientOptimizer([x], lr=0.1)
    loss = T.square(x)
    T.backward(loss)
    opt.step()
    # by hand: g = 2, m = 0.1*2 = 0.2, s = 0.001*(2-0.2)^2 + 1e-16,
    # mhat = 0.2/0.1 = 2, shat = s/0.001, step = 0.1*2/(sqrt(shat)+1e-16)
    g = 2.0
    m = 0.1 * g
    s = 0.001 * (g - m) ** 2 + 1e-16
    expect = 1.0 - 0.1 * (m / 0.1) / (np.sqrt(s / 0.001) + 1e-16)
    np.testing.assert_allclose(x.data[0], expect, rtol=1e-14)


def test_optimizer_quadratic_convergence():
    x = T.Tensor(np.array([5.0, -4.0]), requires_grad=True)
    target = np.array([3.0, 1.0])
    opt = train.GradientOptimizer([x], lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        loss = T.tsum(T.square(T.sub(x, target)))
        T.backward(loss)
        opt.step()
    np.testing.assert_allclose(x.data, target, atol=1e-3)


def test_optimizer_none_grad_is_zero():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    opt = train.GradientOptimizer([x], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(x.data, [2.0])


def test_flat_adabelief_matches_per_parameter_reference():
    # the per-parameter loop the flat update replaced, op for op
    b1, b2, eps, lr = 0.9, 0.999, 1e-16, 0.05
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (7, 1), ()]
    starts = [rng.standard_normal(s) for s in shapes]
    grads = [[rng.standard_normal(s) for s in shapes] for _ in range(5)]
    ref = [x.copy() for x in starts]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    params = [T.Tensor(x.copy(), requires_grad=True) for x in starts]
    opt = train.GradientOptimizer(params, lr=lr)
    for t in range(1, 6):
        if t == 3:      # an in-place write between steps, as the gauge does
            ref[1][2:] *= -2.0
            params[1].data[2:] *= -2.0
        for i, p in enumerate(params):
            # the middle parameter has no gradient on even steps
            p.grad = None if (i == 1 and t % 2 == 0) else grads[t - 1][i]
        opt.lr = lr
        opt.step()
        for i in range(3):
            g = grads[t - 1][i] if not (i == 1 and t % 2 == 0) \
                else np.zeros(shapes[i])
            m[i] = b1 * m[i] + (1 - b1) * g
            d = g - m[i]
            v[i] = b2 * v[i] + (1 - b2) * d * d + eps
            mhat = m[i] / (1.0 - b1 ** t)
            shat = v[i] / (1.0 - b2 ** t)
            ref[i] = ref[i] - lr * mhat / (np.sqrt(shat) + eps)
        for p, r in zip(params, ref):
            assert p.data.shape == r.shape
            assert p.data.tobytes() == r.tobytes()


# -- problem / loss ----------------------------------------------------------

def test_problem_loss_finite(lorenz_ds):
    prob = small_problem(lorenz_ds)
    total, parts = prob.compute_loss()
    assert np.isfinite(total.item())
    assert set(parts) == {"loss_p1", "loss_p2", "reg"}
    assert parts["reg"] == 0.0
    assert total.item() > 0


def test_problem_interior_alignment(lorenz_ds):
    prob = small_problem(lorenz_ds)
    # encoder radius 4 dominates the FD margins for orders 1-2
    assert prob.lo == 4 and prob.hi == 400 - 4
    state = prob.reconstruct()
    assert state.shape == (392, 3)
    np.testing.assert_array_equal(state.data[:, :2],
                                  lorenz_ds.visible[4:-4])


def test_loss_linear_in_alphas(lorenz_ds):
    a = small_problem(lorenz_ds, alphas=(1.0, 1.0))
    b = small_problem(lorenz_ds, alphas=(2.0, 3.0))
    ta, pa = a.compute_loss()
    tb, pb = b.compute_loss()
    np.testing.assert_allclose(pa["loss_p1"], pb["loss_p1"], rtol=1e-13)
    np.testing.assert_allclose(
        tb.item(), 2 * pa["loss_p1"] + 3 * pa["loss_p2"], rtol=1e-12)
    np.testing.assert_allclose(
        ta.item(), pa["loss_p1"] + pa["loss_p2"], rtol=1e-12)


def test_alphas_too_short(lorenz_ds):
    with pytest.raises(ValueError):
        small_problem(lorenz_ds, alphas=(1.0,))


def test_gradients_flow(lorenz_ds):
    prob = small_problem(lorenz_ds)
    total, _ = prob.compute_loss()
    T.backward(total)
    assert np.any(prob.model.theta_t.grad != 0)
    for _, p in prob.encoder.parameters():
        assert p.grad is not None


# -- fit ----------------------------------------------------------------------

def test_fit_history_and_determinism(lorenz_ds):
    cfg = settings(steps=10)
    h1 = train.fit(small_problem(lorenz_ds), cfg)
    h2 = train.fit(small_problem(lorenz_ds), cfg)
    assert len(h1) == 10
    assert [r["step"] for r in h1] == list(range(10))
    for r1, r2 in zip(h1, h2):
        assert r1 == r2   # bit-exact reproducibility
    assert h1[-1]["total_loss"] < h1[0]["total_loss"]


def test_fit_zero_steps(lorenz_ds):
    prob = small_problem(lorenz_ds)
    before = prob.model.theta_t.data.copy()
    history = train.fit(prob, settings(steps=0))
    assert history == []
    np.testing.assert_array_equal(prob.model.theta_t.data, before)


def test_fit_divergence_guard(lorenz_ds):
    prob = small_problem(lorenz_ds)
    prob.model.theta[...] = 1e6
    with pytest.raises(train.TrainingDiverged):
        train.fit(prob, settings(steps=5))


def test_sparsify_keeps_masked_zero(lorenz_ds):
    prob = small_problem(lorenz_ds)
    cfg = settings(steps=12, sparsify_every=4, theta_threshold=0.05)
    train.fit(prob, cfg)
    m = prob.model
    assert m.active_terms() < m.mask.size
    np.testing.assert_array_equal(m.theta[~m.mask], 0.0)
    np.testing.assert_array_equal(m.theta_t.data[~m.mask], 0.0)
    assert m.theta.shape == m.mask.shape


def test_fit_step_with_sparsify_keeps_theta_in_its_tape_leaf(lorenz_ds):
    prob = small_problem(lorenz_ds)
    train.fit(prob, settings(steps=1, sparsify_every=1,
                             theta_threshold=0.05))
    m = prob.model
    assert np.shares_memory(m.theta, m.theta_t.data)
    assert not m.mask.all()
    np.testing.assert_array_equal(m.theta[~m.mask], 0.0)


def test_save_run_roundtrip(lorenz_ds, tmp_path):
    prob = small_problem(lorenz_ds)
    cfg = settings(steps=5)
    history = train.fit(prob, cfg, out_dir=tmp_path)
    assert (tmp_path / "history.csv").exists()
    assert json.loads((tmp_path / "config.json").read_text()) == {
        "preset": "lorenz", "data_seed": 0, **cfg}
    loaded = train.load_history(tmp_path / "history.csv")
    assert loaded == history
    model = library.SymbolicModel.from_json((tmp_path / "model.json").read_text())
    np.testing.assert_array_equal(model.theta, prob.model.theta)
    enc = encoders.load_checkpoint(tmp_path / "encoder.ckpt")
    for name, p in prob.encoder.parameters():
        np.testing.assert_array_equal(enc.params[name].data, p.data)


def test_chunked_loss_matches_full_batch(lorenz_ds, monkeypatch):
    monkeypatch.setattr(train, "CHUNK_POINTS", 100)
    prob = small_problem(lorenz_ds)
    full, _ = prob.compute_loss()
    chunks = prob.chunks()
    assert len(chunks) == 4
    assert sum(b - a for a, b in chunks) == prob.hi - prob.lo
    acc = sum(prob.compute_loss(a, b)[0].item() for a, b in chunks)
    np.testing.assert_allclose(acc, full.item(), rtol=1e-12)


def test_chunked_gradients_match_full_batch(lorenz_ds, monkeypatch):
    monkeypatch.setattr(train, "CHUNK_POINTS", 100)
    prob = small_problem(lorenz_ds)
    total, _ = prob.compute_loss()
    T.backward(total)
    g_full = prob.model.theta_t.grad.copy()
    prob.model.theta_t.zero_grad()
    for a, b in prob.chunks():
        T.backward(prob.compute_loss(a, b)[0])
    np.testing.assert_allclose(prob.model.theta_t.grad, g_full,
                               rtol=1e-9, atol=1e-12)


def test_fit_chunked_equals_full(lorenz_ds, monkeypatch):
    h_full = train.fit(small_problem(lorenz_ds), settings(steps=5))
    monkeypatch.setattr(train, "CHUNK_POINTS", 100)
    h_chunk = train.fit(small_problem(lorenz_ds), settings(steps=5))
    for rf, rc in zip(h_full, h_chunk):
        np.testing.assert_allclose(rc["total_loss"], rf["total_loss"],
                                   rtol=1e-9)


def test_windows_hold_chunk_points(lorenz_ds, monkeypatch):
    # [4, 396) of a series (one grid point a frame) in windows of 97
    # samples; the tail keeps its 4 samples
    prob = small_problem(lorenz_ds)
    assert prob.chunks() == [(4, 396)]
    monkeypatch.setattr(train, "CHUNK_POINTS", 97)
    assert prob.chunks() == [(4, 101), (101, 198), (198, 295), (295, 392),
                             (392, 396)]
    # an 8x8 field: 64 points a frame, so 97 points make one frame and 128
    # two; fewer points than a frame still make one frame
    pde = field_problem(24, 8, 0.0)
    assert (pde.lo, pde.hi) == (2, 22)
    assert pde.chunks() == [(a, a + 1) for a in range(2, 22)]
    monkeypatch.setattr(train, "CHUNK_POINTS", 128)
    assert pde.chunks() == [(a, a + 2) for a in range(2, 22, 2)]
    monkeypatch.setattr(train, "CHUNK_POINTS", 10)
    assert len(pde.chunks()) == 20


def field_encoder(ds, dtype=None):
    """The joint path's width-4 encoder of a field dataset, its conv stack
    in `dtype` if given, else in the PDE spec's."""
    enc = train.default_encoder(ds, {"width": 4})
    if dtype is None:
        return enc
    return encoders.Encoder(dataclasses.replace(enc.spec, dtype=dtype))


def field_problem(n_time, nx, beta, dtype=None):
    """A diffusion_source Problem with a width-4 encoder (`field_encoder`)."""
    ds = datagen.simulate(datagen.get_preset("diffusion_source",
                                             n_time=n_time, nx=nx), seed=0)
    return train.Problem(ds, train.default_model(ds.preset),
                         field_encoder(ds, dtype), beta=beta)


def nlse_problem():
    """The nlse preset's Problem at 40x32, at the preset's beta_phase."""
    from symder import cli
    ds = datagen.simulate(datagen.get_preset("nlse", n_time=40, nx=32),
                          seed=0)
    cfg = cli.DEFAULT_CONFIGS["nlse"]
    model = train.default_model(ds.preset)
    beta = cfg["beta_phase"] / (model.s_t * ds.norm.dt) ** 2
    return train.Problem(ds, model, train.default_encoder(ds, cfg),
                         alphas=cfg["alphas"], beta=beta)


@pytest.mark.parametrize("make", [
    lambda: field_problem(24, 8, 5.0, "float64"), nlse_problem,
    lambda: masked_ode_problem("lorenz", 1.0, "embedding"),
    lambda: field_problem(24, 8, 5.0)],
    ids=["field", "nlse", "lorenz", "field_float32"])
def test_window_parts_sum_to_the_full_batch(make, monkeypatch):
    # every window length, the hidden residual's seams included: the
    # windows' parts and gradients add up to the full batch's. A float32
    # conv stack gives each point the bits it gives it in the full batch,
    # so the parts and theta's gradient hold to 1e-12 as well; its weight
    # gradients are float32 sums over the points, which a window cuts
    # into other partial sums
    prob = make()
    assert prob.beta > 0
    params = [prob.model.theta_t] + [p for _, p in prob.encoder.parameters()]
    enc_tol = 1e-4 if prob.encoder.spec.dtype == "float32" else 1e-12
    tols = [1e-12] + [enc_tol] * (len(params) - 1)

    def run(windows):
        for q in params:
            q.zero_grad()
        parts = {}
        for a, b in windows:
            total, wparts = prob.compute_loss(a, b)
            T.backward(total)
            for k, v in wparts.items():
                parts[k] = parts.get(k, 0.0) + v
        return parts, [q.grad.copy() for q in params]

    full_parts, full_grads = run([(prob.lo, prob.hi)])
    assert full_parts["reg"] > 0
    frame = prob.dataset.visible[0, ..., 0].size
    for length in range(1, prob.hi - prob.lo + 1):
        monkeypatch.setattr(train, "CHUNK_POINTS", length * frame)
        windows = prob.chunks()
        assert len(windows) == -(-(prob.hi - prob.lo) // length)
        parts, grads = run(windows)
        for k, v in full_parts.items():
            assert parts[k] == pytest.approx(v, rel=1e-12, abs=0), (length, k)
        for g, g0, tol in zip(grads, full_grads, tols):
            np.testing.assert_allclose(g, g0, rtol=0,
                                       atol=tol * np.abs(g0).max())


def test_window_without_residual_samples_scores_no_reg():
    # with the 3-sample first-derivative stencil the full batch scores the
    # residual on [lo + 1, hi - 1): a one-frame window at either end holds
    # none of it
    prob = field_problem(24, 8, 5.0)
    for a in (prob.lo, prob.hi - 1):
        assert prob.compute_loss(a, a + 1)[1]["reg"] == 0.0
    assert prob.compute_loss(prob.lo + 1, prob.lo + 2)[1]["reg"] > 0.0


# -- hidden residual -------------------------------------------------------------

def wave_problem(phase, dt, beta, theta=None):
    """A Problem on the unit-modulus wave e^{i phase}, phase shaped (t, x)
    on the nlse grid and sampled every dt, whose phase embedding holds
    `phase`; theta, if given, sets the model's coefficients."""
    n_time, nx = phase.shape
    preset = datagen.get_preset("nlse", n_time=n_time, nx=nx)
    one = np.ones(1)
    norm = datagen.NormalizationRecord(mean=np.zeros(1), std=one,
                                       deriv_std={1: one, 2: one}, dt=dt)
    ds = datagen.Dataset(preset=preset, seed=0,
                         visible_raw=np.ones((n_time, nx, 1)),
                         hidden_truth=phase[..., None], norm=norm)
    model = library.nlse_library(dx=preset.spacing[0])
    if theta is not None:
        model.theta[:] = theta
    enc = encoders.Encoder(encoders.phase_embedding_spec(phase.shape))
    enc.params["phi"].data[...] = phase
    return train.Problem(ds, model, enc, beta=beta)


def test_hidden_residual_manufactured_decay():
    # plane wave obeying the discrete dispersion of the stencil model:
    # psi = exp(i(kx - w t)), w = (2 - 2 cos(k dx)) / (2 dx^2). For it the
    # symbolic side is the exact time derivative, so the residual is the
    # O(dt^2) central-difference error and the penalty decays as dt^4
    nx = 32
    dx = 2 * np.pi / nx
    x = np.arange(nx) * dx
    k = 1.0
    w = (2 - 2 * np.cos(k * dx)) / (2 * dx ** 2)

    def penalty(dt):
        model = library.nlse_library(dx=dx)
        theta = np.where([isinstance(t, library.WaveDerivative)
                          and t.order == 2 for t in model.terms],
                         0.5 * model.s_t * dt, 0.0)
        ts = np.arange(7) * dt
        prob = wave_problem(k * x[None, :] - w * ts[:, None], dt,
                            1.0 / (model.s_t * dt) ** 2, theta)
        return prob.compute_loss()[1]["reg"]

    p1, p2 = penalty(0.02), penalty(0.01)
    assert p1 < 1e-4
    ratio = p1 / p2
    assert 12.0 < ratio < 20.0   # dt^4 in the squared penalty


def test_hidden_residual_zero_beta():
    phase = np.random.default_rng(0).normal(size=(7, 8))
    theta = np.random.default_rng(1).uniform(-1e-3, 1e-3, 8)
    (total, parts), (total3, parts3) = [
        wave_problem(phase, 0.05, beta, theta).compute_loss()
        for beta in (0.0, 3.0)]
    assert parts["reg"] == 0.0 and parts3["reg"] > 0.0
    assert total.item() == parts["loss_p1"] + parts["loss_p2"]
    # F's window, the stencil, sub, square, the mean's sum and scale, the
    # weight, their two constants and the sum: beta 0 builds none of them
    assert _tape_nodes(total) + 10 == _tape_nodes(total3)


def test_hidden_residual_short_window():
    phase = np.zeros((4, 8))       # window [1, 3): shorter than the stencil
    wave_problem(phase, 0.1, 0.0)
    with pytest.raises(train.SeriesTooShort):
        wave_problem(phase, 0.1, 1.0)


def test_derivative_without_a_std_is_too_short():
    # a dataset records no std for a derivative order of one value per
    # channel (`datagen._make_norm`), so no loss can scale that order
    prob = wave_problem(np.zeros((7, 8)), 0.1, 0.0)
    del prob.dataset.norm.deriv_std[2]
    with pytest.raises(train.SeriesTooShort):
        train.Problem(prob.dataset, prob.model, prob.encoder)


def test_hidden_residual_gradient_reaches_phase():
    phase = np.random.default_rng(0).normal(size=(7, 8))
    theta = np.random.default_rng(1).uniform(-1e-3, 1e-3, 8)
    grads = []
    for beta in (0.0, 10.0):
        prob = wave_problem(phase, 0.05, beta, theta)
        T.backward(prob.compute_loss()[0])
        grads.append(prob.encoder.params["phi"].grad)
    assert np.abs(grads[1] - grads[0]).max() > 0


def test_hidden_residual_on_a_field():
    # diffusion_source: the hidden field v is the last channel of a
    # concatenated state, and the residual reaches the conv3d encoder
    ds = datagen.simulate(datagen.get_preset("diffusion_source", n_time=24,
                                             nx=8), seed=0)
    grads, regs = [], []
    for beta in (0.0, 5.0):
        model = train.default_model(ds.preset)
        enc = train.default_encoder(ds, {"width": 4})
        prob = train.Problem(ds, model, enc, beta=beta)
        total, parts = prob.compute_loss()
        T.backward(total)
        regs.append(parts["reg"])
        grads.append(prob.encoder.params["w0"].grad)
    assert regs[0] == 0.0 and regs[1] > 0.0
    assert np.abs(grads[1] - grads[0]).max() > 0

    # by hand: 5 * mean over the field of (F_v - s_t dv/dn)^2, with dv/dn
    # the central difference per sample
    state = prob.reconstruct()
    jet = jets.propagate(state, model, train.ORDER)
    v = state.data[..., 1]
    dv = (v[2:] - v[:-2]) / 2 * model.s_t
    ref = 5.0 * np.mean((jet.coeffs[1].data[1:-1, ..., 1] - dv) ** 2)
    assert regs[1] == pytest.approx(ref, rel=1e-12)


def test_cosine_lr_endpoints():
    lr = train.cosine_lr(1e-2, 11)
    np.testing.assert_allclose([lr(0), lr(5), lr(10)], [1e-2, 5.5e-3, 1e-3],
                               rtol=1e-12)
    assert train.cosine_lr(1e-2, 1)(0) == 1e-2


# -- plug-in oracle loss floor -------------------------------------------------

class OracleEncoder:
    """Stands in for a trained encoder: emits the normalized hidden truth."""

    def __init__(self, hidden_norm):
        self.hidden = np.asarray(hidden_norm)
        self.spec = None
        self.seed = 0

    receptive_field = 1
    radius = 0

    def __call__(self, visible):
        return T.Tensor(self.hidden)

    def parameters(self):
        return []


def oracle_setup(ds):
    """Model coefficients and hidden states transcribed from the generating
    equations into the normalized training variables."""
    preset = ds.preset
    phys = datagen.true_coefficient_table(preset)
    hid = ds.hidden_truth.reshape(ds.hidden_truth.shape[0], -1)
    h_mean, h_std = hid.mean(axis=0), hid.std(axis=0)
    alpha = np.concatenate([ds.norm.std, h_std])
    gamma = np.concatenate([ds.norm.mean, h_mean])
    model = train.default_model(preset, seed=0)
    # x = alpha * x_normalized + gamma, t = s_t * dt * t_model
    normed = library.change_variables(phys, np.diag(alpha), gamma,
                                      time=model.s_t * ds.norm.dt)
    model.theta[...] = library.model_theta(model, normed)
    hidden_norm = (hid - h_mean) / h_std
    return model, OracleEncoder(hidden_norm)


def test_oracle_loss_floor_lorenz(lorenz_ds):
    model, enc = oracle_setup(lorenz_ds)
    prob = train.Problem(lorenz_ds, model, enc)
    total, parts = prob.compute_loss()
    # residual is pure finite-difference truncation error; pinned floor
    assert total.item() < 2 * PINNED_LORENZ_FLOOR


# floor observed for the exact plug-in above at n_time=400, seed=0, with the
# accuracy-4 stencils of an ODE preset (3.66e-5 with the accuracy-2 ones)
PINNED_LORENZ_FLOOR = 1.16e-8


def _tape_nodes(loss):
    """Nodes of the graph behind `loss`, leaves included."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(p for p, _ in node._parents)
    return len(seen)


def _ops(loss):
    """The ops of the graph behind `loss` that are no leaves, sorted."""
    seen, stack, ops = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._parents:
                ops.append(node._op)
            stack.extend(p for p, _ in node._parents)
    return sorted(ops)


def test_loss_tape_sizes():
    # guards the graph sizes against re-expansion: 118 and 287 nodes before
    # fused encoder layers and one-node stencils, 104 and 106 before one
    # contraction per jet order, 92 on diffusion before one node per encoder
    # stack, whose input is no parent; both counts are the tape
    # reference's. The sweep drops every node's VJPs, so afterwards each
    # loss reaches only itself
    from symder import cli, recover
    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)
    rec = recover.EmbeddingRecovery(ds, train.default_model(ds.preset),
                                    recover.RecoveryConfig(10, 2e-3))
    loss = rec.prob.tape_loss()[0]
    assert _tape_nodes(loss) == 83
    T.backward(loss)
    assert _tape_nodes(loss) == 1
    # the staged loss is the closed form's one node over the embedding's
    assert _ops(rec.loss_fn()[0]) == ["field_loss", "getitem"]

    ds = datagen.simulate(datagen.get_preset("diffusion_source", n_time=24,
                                             nx=8), seed=0)
    prob = train.Problem(ds, train.default_model(ds.preset),
                         train.default_encoder(
                             ds, cli.DEFAULT_CONFIGS["diffusion_source"]),
                         alphas=cli.DEFAULT_CONFIGS["diffusion_source"][
                             "alphas"])
    loss = prob.tape_loss()[0]
    assert _tape_nodes(loss) == 89
    T.backward(loss)
    assert _tape_nodes(loss) == 1
    # the training loss is the closed form's one node over the conv's
    loss = prob.compute_loss()[0]
    assert _ops(loss) == ["conv3d", "field_loss"]


def test_jet_order_builds_only_its_coefficient(monkeypatch):
    # 12 periodic stencils per jet order of the tape reference on the
    # diffusion library (dx, dy, dxx, dyy and the two of dxy, for u and v);
    # order 1 used to rebuild order 0's as well, 36 in all
    from symder import cli
    ds = datagen.simulate(datagen.get_preset("diffusion_source", n_time=24,
                                             nx=8), seed=0)
    settings = cli.DEFAULT_CONFIGS["diffusion_source"]
    prob = train.Problem(ds, train.default_model(ds.preset),
                         train.default_encoder(ds, settings),
                         alphas=settings["alphas"])
    calls = []
    stencil = T.stencil

    def counted(a, w, axis, periodic):
        calls.append(periodic)
        return stencil(a, w, axis, periodic)

    monkeypatch.setattr(T, "stencil", counted)
    prob.tape_loss()
    assert calls == [True] * 24
    # the closed form takes its stencils off the tape
    prob.compute_loss()
    assert calls == [True] * 24


def test_staged_loss_builds_one_lincomb_per_jet_order():
    from symder import recover
    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)
    rec = recover.EmbeddingRecovery(ds, train.default_model(ds.preset),
                                    recover.RecoveryConfig(10, 2e-3))
    seen, stack, ops = set(), [rec.prob.tape_loss()[0]], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node._op)
            stack.extend(p for p, _ in node._parents)
    assert ops.count("lincomb") == train.ORDER


def test_nlse_step0_loss_parts_pinned():
    # the parts before the contraction took one lincomb per jet order
    from symder import cli
    ds = datagen.simulate(datagen.get_preset("nlse", n_time=40, nx=32),
                          seed=0)
    cfg = cli.DEFAULT_CONFIGS["nlse"]
    model = train.default_model(ds.preset)
    beta = cfg["beta_phase"] / (model.s_t * ds.norm.dt) ** 2
    prob = train.Problem(ds, model, train.default_encoder(ds, cfg),
                         alphas=cfg["alphas"], beta=beta)
    parts = prob.compute_loss()[1]
    assert parts == pytest.approx({"loss_p1": 1.0001211309096325,
                                   "loss_p2": 2985.527600457094,
                                   "reg": 3037465.887493094}, rel=1e-12)


# -- the closed-form field loss -------------------------------------------------

def mask_at_random(model, seed):
    """Give `model` a random theta of which about a third is masked."""
    rng = np.random.default_rng(seed)
    model.theta[...] = rng.uniform(-0.3, 0.3, model.theta.shape)
    model.mask[...] = rng.random(model.mask.shape) > 0.35
    model.theta[~model.mask] = 0.0


def masked_field_problem(preset, beta, seed=0, dtype=None):
    """A 24x8x8 Problem of a field preset with a random theta of which
    about a third is masked, and a width-4 encoder (`field_encoder`)."""
    ds = datagen.simulate(datagen.get_preset(preset, n_time=24, nx=8),
                          seed=0)
    model = train.default_model(ds.preset)
    mask_at_random(model, seed)
    return train.Problem(ds, model, field_encoder(ds, dtype),
                         alphas=(1.0, 10.0), beta=beta)


def masked_ode_problem(preset, beta, encoder, seed=0):
    """A 120-sample Problem of an ODE preset with a random theta of which
    about a third is masked, and either a phase embedding of random values,
    the staged path's kind of encoder, or the width-8 conv1d of
    `small_problem`."""
    ds = datagen.simulate(datagen.get_preset(preset, n_time=120), seed=0)
    prob = small_problem(ds)
    mask_at_random(prob.model, seed)
    if encoder == "embedding":
        enc = encoders.Encoder(encoders.phase_embedding_spec((120, 1)))
        enc.params["phi"].data[...] = np.random.default_rng(seed).normal(
            0.5, 2.0, (120, 1))
    else:
        enc = prob.encoder
    return train.Problem(ds, prob.model, enc, alphas=(1.0, 10.0), beta=beta)


def loss_and_grads(prob, loss, lo=None, hi=None):
    """The value, the parts and the gradients of theta and every encoder
    parameter of one `loss` call of `prob` and its backward."""
    params = [prob.model.theta_t] + [p for _, p in prob.encoder.parameters()]
    for p in params:
        p.zero_grad()
    total, parts = loss(lo, hi)
    T.backward(total)
    return total.item(), parts, [p.grad.copy() for p in params]


@pytest.mark.parametrize("make", [
    lambda: masked_field_problem("diffusion_source", 0.0),
    lambda: masked_field_problem("diffusion_source", 5.0),
    lambda: masked_field_problem("diffusive_lv", 0.0),
    lambda: masked_field_problem("diffusive_lv", 5.0),
    lambda: masked_ode_problem("lorenz", 0.0, "embedding"),
    lambda: masked_ode_problem("lorenz", 1.0, "embedding"),
    lambda: masked_ode_problem("rossler", 0.0, "embedding"),
    lambda: masked_ode_problem("rossler", 1.0, "embedding"),
    lambda: masked_ode_problem("lorenz", 0.0, "conv1d")],
    ids=["diffusion_source-0.0", "diffusion_source-5.0", "diffusive_lv-0.0",
         "diffusive_lv-5.0", "lorenz-embedding-0.0", "lorenz-embedding-1.0",
         "rossler-embedding-0.0", "rossler-embedding-1.0",
         "lorenz-conv1d-0.0"])
def test_field_loss_matches_the_tape(make):
    # the whole interior, an inner window, a one-frame window inside and
    # the one-frame tail; a window scores reg when it holds a sample of
    # [lo + r, hi - r), r being the radius of the time stencil
    prob = make()
    assert prob.field_loss is not None
    assert not prob.model.mask.all()
    lo, hi = prob.lo, prob.hi
    r = len(prob.d_t) // 2
    for a, b in [(lo, hi), (lo + 3, lo + 11), (lo + 1, lo + 2), (hi - 1, hi)]:
        value, parts, grads = loss_and_grads(prob, prob.compute_loss, a, b)
        ref, ref_parts, ref_grads = loss_and_grads(prob, prob.tape_loss, a, b)
        assert value == pytest.approx(ref, rel=1e-12, abs=0)
        assert parts.keys() == ref_parts.keys()
        for k in parts:
            assert parts[k] == pytest.approx(ref_parts[k], rel=1e-12, abs=0)
        assert (parts["reg"] > 0) == (prob.beta > 0 and a < hi - r
                                      and b > lo + r)
        for g, g0 in zip(grads, ref_grads):
            np.testing.assert_allclose(g, g0, rtol=0,
                                       atol=1e-12 * np.abs(g0).max())
        # masked (equation, term) pairs get exact zeros
        assert (grads[0][~prob.model.mask] == 0.0).all()


def test_ode_loss_builds_no_patch_rows(monkeypatch):
    # a model without derivative terms skips every stencil step
    calls = []
    monkeypatch.setattr(train, "_patch_rows",
                        lambda *args: calls.append(args))
    prob = masked_ode_problem("lorenz", 1.0, "embedding")
    T.backward(prob.compute_loss()[0])
    assert calls == []
    assert prob.model.theta_t.grad is not None


def test_field_windows_sum_to_the_full_batch(monkeypatch):
    # the tiling, on a float64 conv stack (see
    # test_window_parts_sum_to_the_full_batch for a float32 one)
    prob = masked_field_problem("diffusive_lv", 5.0, dtype="float64")
    full, full_parts, full_grads = loss_and_grads(prob, prob.compute_loss)
    monkeypatch.setattr(train, "CHUNK_POINTS", 3 * 64)
    windows = prob.chunks()
    assert len(windows) == 7 and windows[-1] == (20, 22)
    params = [prob.model.theta_t] + [p for _, p in prob.encoder.parameters()]
    for p in params:
        p.zero_grad()
    value, parts = 0.0, {}
    for a, b in windows:
        total, wparts = prob.compute_loss(a, b)
        T.backward(total)
        value += total.item()
        for k, v in wparts.items():
            parts[k] = parts.get(k, 0.0) + v
    assert value == pytest.approx(full, rel=1e-12, abs=0)
    for k, v in full_parts.items():
        assert parts[k] == pytest.approx(v, rel=1e-12, abs=0)
    for p, g0 in zip(params, full_grads):
        np.testing.assert_allclose(p.grad, g0, rtol=0,
                                   atol=1e-12 * np.abs(g0).max())


def test_field_loss_theta_gradient_central_difference():
    # a step of 1e-5 sits well above the loss's rounding and keeps the
    # central difference's own error near 1e-10 of the gradient
    prob = masked_field_problem("diffusion_source", 5.0, seed=3)
    lo, hi = prob.lo + 2, prob.lo + 6
    _, _, grads = loss_and_grads(prob, prob.compute_loss, lo, hi)
    theta = prob.model.theta
    step = 1e-5
    for idx in zip(*np.nonzero(prob.model.mask)):
        base = theta[idx]
        theta[idx] = base + step
        up = prob.compute_loss(lo, hi)[0].item()
        theta[idx] = base - step
        down = prob.compute_loss(lo, hi)[0].item()
        theta[idx] = base
        fd_grad = (up - down) / (2 * step)
        assert fd_grad == pytest.approx(grads[0][idx], rel=1e-6,
                                        abs=1e-9), idx


def test_nlse_keeps_the_tape():
    prob = nlse_problem()
    assert prob.field_loss is None
    assert _ops(prob.compute_loss()[0]).count("lincomb") == train.ORDER


def test_reconstruct_names_a_window_outside_the_interior():
    prob = field_problem(24, 8, 0.0)
    assert (prob.lo, prob.hi) == (2, 22)
    for lo, hi in [(2, 66), (1, 5), (5, 5), (7, 4)]:
        with pytest.raises(ValueError, match=rf"window \[{lo}, {hi}\) is "
                           r"not a window of the interior \[2, 22\)"):
            prob.reconstruct(lo, hi)
        with pytest.raises(ValueError, match=r"interior \[2, 22\)"):
            prob.compute_loss(lo, hi)
