import numpy as np
import pytest

from symder import tensor as T
from symder import datagen, encoders, library, train


@pytest.fixture(scope="module")
def lorenz_ds():
    return datagen.simulate(datagen.get_preset("lorenz", n_time=400), seed=0)


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
    cfg = train.TrainConfig(steps=10, lr=1e-3, seed=0)
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
    history = train.fit(prob, train.TrainConfig(steps=0))
    assert history == []
    np.testing.assert_array_equal(prob.model.theta_t.data, before)


def test_fit_divergence_guard(lorenz_ds):
    prob = small_problem(lorenz_ds)
    prob.model.theta[...] = 1e6
    with pytest.raises(train.TrainingDiverged):
        train.fit(prob, train.TrainConfig(steps=5))


def test_sparsify_keeps_masked_zero(lorenz_ds):
    prob = small_problem(lorenz_ds)
    cfg = train.TrainConfig(steps=12, lr=1e-3, sparsify_every=4,
                            theta_threshold=0.05)
    train.fit(prob, cfg)
    m = prob.model
    assert m.active_terms() < m.mask.size
    np.testing.assert_array_equal(m.theta[~m.mask], 0.0)
    np.testing.assert_array_equal(m.theta_t.data[~m.mask], 0.0)
    assert m.theta.shape == m.mask.shape


def test_fit_step_with_sparsify_keeps_theta_in_its_tape_leaf(lorenz_ds):
    prob = small_problem(lorenz_ds)
    train.fit(prob, train.TrainConfig(steps=1, sparsify_every=1,
                                      theta_threshold=0.05))
    m = prob.model
    assert np.shares_memory(m.theta, m.theta_t.data)
    assert not m.mask.all()
    np.testing.assert_array_equal(m.theta[~m.mask], 0.0)


def test_save_run_roundtrip(lorenz_ds, tmp_path):
    prob = small_problem(lorenz_ds)
    cfg = train.TrainConfig(steps=5, lr=1e-3)
    history = train.fit(prob, cfg, out_dir=tmp_path)
    assert (tmp_path / "history.csv").exists()
    assert (tmp_path / "config.json").exists()
    loaded = train.load_history(tmp_path / "history.csv")
    assert loaded == history
    model = library.SymbolicModel.from_json((tmp_path / "model.json").read_text())
    np.testing.assert_array_equal(model.theta, prob.model.theta)
    enc = encoders.load_checkpoint(tmp_path / "encoder.ckpt")
    for name, p in prob.encoder.parameters():
        np.testing.assert_array_equal(enc.params[name].data, p.data)


def test_chunked_loss_matches_full_batch(lorenz_ds):
    prob = small_problem(lorenz_ds)
    full, _ = prob.compute_loss()
    chunks = prob.chunks(100)
    assert len(chunks) == 4
    assert sum(b - a for a, b, _ in chunks) == prob.hi - prob.lo
    acc = sum(w * prob.compute_loss(a, b)[0].item() for a, b, w in chunks)
    np.testing.assert_allclose(acc, full.item(), rtol=1e-12)


def test_chunked_gradients_match_full_batch(lorenz_ds):
    prob = small_problem(lorenz_ds)
    from symder import tensor as T
    total, _ = prob.compute_loss()
    T.backward(total)
    g_full = prob.model.theta_t.grad.copy()
    prob.model.theta_t.zero_grad()
    for a, b, w in prob.chunks(100):
        t, _ = prob.compute_loss(a, b)
        T.backward(T.mul(t, w))
    np.testing.assert_allclose(prob.model.theta_t.grad, g_full,
                               rtol=1e-9, atol=1e-12)


def test_fit_chunked_equals_full(lorenz_ds):
    cfg_full = train.TrainConfig(steps=5, lr=1e-3)
    cfg_chunk = train.TrainConfig(steps=5, lr=1e-3, chunk_time=100)
    h_full = train.fit(small_problem(lorenz_ds), cfg_full)
    h_chunk = train.fit(small_problem(lorenz_ds), cfg_chunk)
    for rf, rc in zip(h_full, h_chunk):
        np.testing.assert_allclose(rc["total_loss"], rf["total_loss"],
                                   rtol=1e-9)


def test_short_tail_joins_the_chunk_before(lorenz_ds):
    # [4, 396) in chunks of 97 leaves a 4-sample tail, shorter than the
    # 5-sample stencil of an ODE preset's residual
    prob = small_problem(lorenz_ds)
    chunks = prob.chunks(97)
    assert [(a, b) for a, b, _ in chunks] == [(4, 101), (101, 198),
                                              (198, 295), (295, 396)]
    assert sum(w for _, _, w in chunks) == pytest.approx(1.0, rel=1e-15)
    assert [(a, b) for a, b, _ in prob.chunks(98)][-1] == (298, 396)


def test_chunk_below_the_residual_stencil(lorenz_ds):
    prob = small_problem(lorenz_ds)
    # without the residual any chunk works; the 2-sample tail still joins
    assert len(prob.chunks(2)) == 195
    prob.beta = 1.0
    with pytest.raises(train.SeriesTooShort, match="chunk_time 4"):
        prob.chunks(4)
    assert len(prob.chunks(5)) == 78


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
        prob = train.Problem(ds, model, train.default_encoder(ds, width=4),
                             beta=beta)
        total, parts = prob.compute_loss()
        T.backward(total)
        regs.append(parts["reg"])
        grads.append(prob.encoder.params["w0"].grad)
    assert regs[0] == 0.0 and regs[1] > 0.0
    assert np.abs(grads[1] - grads[0]).max() > 0

    # by hand: 5 * mean over the field of (F_v - s_t dv/dn)^2, with dv/dn
    # the central difference per sample
    state, jet = prob.expand()
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


def test_loss_tape_sizes():
    # guards the graph sizes against re-expansion: 118 and 287 nodes before
    # fused encoder layers and one-node stencils, 104 and 106 before one
    # contraction per jet order. The sweep drops every node's VJPs, so
    # afterwards each loss reaches only itself
    from symder import cli, recover
    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)
    rec = recover.EmbeddingRecovery(ds, train.default_model(ds.preset),
                                    recover.RecoveryConfig(10))
    loss = rec.loss_fn()[0]
    assert _tape_nodes(loss) == 83
    T.backward(loss)
    assert _tape_nodes(loss) == 1

    ds = datagen.simulate(datagen.get_preset("diffusion_source", n_time=24,
                                             nx=8), seed=0)
    prob = train.Problem(ds, train.default_model(ds.preset),
                         train.default_encoder(ds),
                         alphas=cli.DEFAULT_CONFIGS["diffusion_source"][
                             "alphas"])
    loss = prob.compute_loss()[0]
    assert _tape_nodes(loss) == 92
    T.backward(loss)
    assert _tape_nodes(loss) == 1


def test_staged_loss_builds_one_lincomb_per_jet_order():
    from symder import recover
    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)
    rec = recover.EmbeddingRecovery(ds, train.default_model(ds.preset),
                                    recover.RecoveryConfig(10))
    seen, stack, ops = set(), [rec.loss_fn()[0]], []
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
    prob = train.Problem(ds, model, train.default_encoder(ds),
                         alphas=cfg["alphas"], beta=beta)
    parts = prob.compute_loss()[1]
    assert parts == pytest.approx({"loss_p1": 1.0001211309096325,
                                   "loss_p2": 2985.527600457094,
                                   "reg": 3037465.887493094}, rel=1e-12)
