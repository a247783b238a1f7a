"""Jet propagation checked against independent oracles.

Oracles used here:
  * closed forms for exponential / harmonic-oscillator toy systems,
  * complex-step directional derivatives of a test-side reimplementation of
    each library's right-hand side (exact to machine precision),
  * high-accuracy RK4 integration in extended precision followed by central
    finite differences of the sampled trajectory.
"""

import numpy as np
import pytest

from symder import fd, jets
from symder import library as lib
from symder import tensor as T


# ---------------------------------------------------------------------------
# independent RHS evaluation (numpy, any dtype) used by the oracles
# ---------------------------------------------------------------------------

def rhs_numpy(model, state):
    """state (..., ncomp) -> F_theta(state), supporting complex dtype."""
    comps = [state[..., j] for j in range(model.state_dim)]
    geom = model.geometry()

    def term_val(t):
        if isinstance(t, lib.Monomial):
            out = np.ones_like(comps[0])
            for j, e in enumerate(t.exponents):
                if e:
                    out = out * comps[j] ** e
            return out
        if isinstance(t, lib.SpatialDerivative):
            out = comps[t.component]
            for a, o in enumerate(t.orders):
                if o:
                    w = fd.CENTRAL_STENCILS[o] / geom.spacing[a] ** o
                    half = len(w) // 2
                    acc = np.zeros_like(out)
                    for k, wk in enumerate(w):
                        if wk:
                            acc = acc + wk * np.roll(out, half - k,
                                                     axis=geom.axes[a])
                    out = acc
            return out
        if isinstance(t, lib.WaveDerivative):
            w = fd.CENTRAL_STENCILS[t.order] / geom.spacing[0] ** t.order
            half = len(w) // 2
            re, im = comps
            sre = sum(wk * np.roll(re, half - k, axis=geom.axes[0])
                      for k, wk in enumerate(w) if wk)
            sim = sum(wk * np.roll(im, half - k, axis=geom.axes[0])
                      for k, wk in enumerate(w) if wk)
            return sre, sim
        if isinstance(t, lib.WaveNonlinearity):
            re, im = comps
            mag = (re * re + im * im) ** (t.q // 2)
            return mag * re, mag * im
        raise TypeError(t)

    if model.kind == "complex":
        out_re = np.zeros_like(comps[0])
        out_im = np.zeros_like(comps[0])
        for i, t in enumerate(model.terms):
            if not model.mask[i]:
                continue
            vr, vi = term_val(t)
            out_re = out_re - model.theta[i] * vi
            out_im = out_im + model.theta[i] * vr
        return np.stack([out_re, out_im], axis=-1)
    rows = []
    vals = [term_val(t) for t in model.terms]
    for j in range(model.theta.shape[0]):
        acc = np.zeros_like(comps[0])
        for i, v in enumerate(vals):
            if model.mask[j, i]:
                acc = acc + model.theta[j, i] * v
        rows.append(acc)
    return np.stack(rows, axis=-1)


def rk4_fd_derivatives(model, state, order, h, nsub=20, dtype=np.longdouble):
    """d^p x/dt^p for p <= order via RK4 + central differences (oracle)."""
    half = 2 if order >= 3 else 1
    npts = 2 * half + 1
    x0 = np.asarray(state, dtype=dtype)
    sub = h / nsub

    def step(x, dt):
        k1 = rhs_numpy(model, x)
        k2 = rhs_numpy(model, x + 0.5 * dt * k1)
        k3 = rhs_numpy(model, x + 0.5 * dt * k2)
        k4 = rhs_numpy(model, x + dt * k3)
        return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    traj = [x0]
    x = x0
    for _ in range(half * nsub):
        x = step(x, sub)
        traj.append(x)
    x = x0
    back = []
    for _ in range(half * nsub):
        x = step(x, -sub)
        back.append(x)
    samples = np.stack(
        [back[(half - 1 - i) * nsub + nsub - 1] for i in range(half)]
        + [traj[i * nsub] for i in range(half + 1)])
    out = []
    for p in range(1, order + 1):
        w = fd.CENTRAL_STENCILS[p] / h ** p
        wh = len(w) // 2
        c = npts // 2
        acc = np.zeros_like(x0)
        for k, wk in enumerate(w):
            if wk:
                acc = acc + wk * samples[c + k - wh]
        out.append(np.asarray(acc, dtype=np.float64))
    return out


def jvp_complex_step(model, state, v):
    """Exact directional derivative J_F(state) @ v via complex step."""
    h = 1e-100
    out = rhs_numpy(model, state.astype(complex) + 1j * h * v)
    return out.imag / h


# ---------------------------------------------------------------------------
# preset model builders with random or canonical coefficients
# ---------------------------------------------------------------------------

def lorenz_model():
    m = lib.ode_library(s_t=1.0)
    names = [t.name for t in m.terms]
    idx = {n: i for i, n in enumerate(names)}
    m.theta[:] = 0.0
    m.theta[0, idx["u"]], m.theta[0, idx["v"]] = -10.0, 10.0
    m.theta[1, idx["u"]], m.theta[1, idx["v"]] = 28.0, -1.0
    m.theta[1, idx["u*w"]] = -1.0
    m.theta[2, idx["u*v"]], m.theta[2, idx["w"]] = 1.0, -8.0 / 3.0
    return m


def random_models(seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for name in ("rossler", "lorenz"):
        m = lib.ode_library(s_t=1.0)
        m.theta[:] = rng.uniform(-0.6, 0.6, m.theta.shape)
        state = rng.uniform(-0.8, 0.8, (3,))
        out.append((name, m, state))
    for name in ("diffusion_source", "diffusive_lv"):
        m = lib.pde_library(dx=1.0, dy=1.0, s_t=1.0, s_x=1.0)
        m.theta[:] = rng.uniform(-0.4, 0.4, m.theta.shape)
        state = rng.uniform(-0.5, 0.5, (8, 8, 2))
        out.append((name, m, state))
    m = lib.nlse_library(dx=0.5, s_t=1.0)
    m.theta[:] = rng.uniform(-0.3, 0.3, m.theta.shape)
    # high-order stencils amplify; keep them mild for the oracle comparison
    m.theta[2:4] *= 0.1
    x = np.arange(16) * 0.5
    psi = (1.0 + 0.2 * np.cos(2 * np.pi * x / 8.0)) * \
        np.exp(1j * 0.3 * np.sin(2 * np.pi * x / 8.0))
    state = np.stack([psi.real, psi.imag], axis=-1)
    out.append(("nlse", m, state))
    return out


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_exponential_scalar_jet():
    m = lib.SymbolicModel(terms=lib.monomial_terms(1, 1),
                          theta=np.array([[0.0, 1.0]]),
                          mask=np.ones((1, 2), dtype=bool), state_dim=1)
    jet = jets.propagate(T.Tensor([2.0]), m, order=3)
    expect = [2.0, 2.0, 1.0, 1.0 / 3.0]
    for p, c in enumerate(jet.coeffs):
        np.testing.assert_allclose(c.data, [expect[p]], rtol=1e-14)


def test_harmonic_oscillator_jet():
    # du/dt = v, dv/dt = -u from (1, 0)
    m = lib.SymbolicModel(terms=lib.monomial_terms(2, 1),
                          theta=np.array([[0.0, 0.0, 1.0],
                                          [0.0, -1.0, 0.0]]),
                          mask=np.ones((2, 3), dtype=bool), state_dim=2)
    jet = jets.propagate(T.Tensor([1.0, 0.0]), m, order=2)
    np.testing.assert_allclose(jet.coeffs[1].data, [0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(jet.coeffs[2].data, [-0.5, 0.0], atol=1e-15)


def test_order_one_equals_evaluate():
    for name, m, state in random_models(1):
        jet = jets.propagate(T.Tensor(state), m, order=2)
        np.testing.assert_allclose(jet.coeffs[1].data,
                                   jets.propagate(state, m, 1).coeffs[1].data,
                                   rtol=0, atol=0, err_msg=name)


def test_c0_is_input_state():
    for name, m, state in random_models(2):
        st = T.Tensor(state)
        jet = jets.propagate(st, m, order=2)
        assert jet.coeffs[0] is st


def test_order_two_matches_closed_form():
    # d^2x/dt^2 = J_F(x) F(x); complex-step Jacobian-vector product is exact
    for name, m, state in random_models(3):
        jet = jets.propagate(T.Tensor(state), m, order=2)
        f = rhs_numpy(m, np.asarray(state, dtype=float))
        closed = jvp_complex_step(m, np.asarray(state, dtype=float), f)
        d2 = jet.coeffs[2].data * 2.0
        np.testing.assert_allclose(d2, closed, rtol=1e-12, atol=1e-12,
                                   err_msg=name)


def test_lorenz_second_derivative_closed_form_and_rk4():
    m = lorenz_model()
    state = np.array([1.0, 1.0, 1.0])
    jet = jets.propagate(T.Tensor(state), m, order=2)
    f = rhs_numpy(m, state)
    closed = jvp_complex_step(m, state, f)
    d2 = jet.coeffs[2].data * 2.0
    np.testing.assert_allclose(d2, closed, rtol=1e-12)
    oracle = rk4_fd_derivatives(m, state, 2, h=1e-5, dtype=np.float64)
    np.testing.assert_allclose(d2, oracle[1], rtol=1e-6)
    np.testing.assert_allclose(jet.coeffs[1].data, oracle[0],
                               atol=1e-6 * np.abs(oracle[0]).max())


def richardson_oracle(model, state, order, h=2e-2):
    """FD-of-RK4 derivatives with two Richardson steps (removes the h^2 and
    h^4 truncation terms of the central stencils)."""
    o1 = rk4_fd_derivatives(model, state, order, h=h)
    o2 = rk4_fd_derivatives(model, state, order, h=h / 2)
    o3 = rk4_fd_derivatives(model, state, order, h=h / 4)
    r1 = [(4 * b - a) / 3 for a, b in zip(o1, o2)]
    r2 = [(4 * b - a) / 3 for a, b in zip(o2, o3)]
    return [(16 * b - a) / 15 for a, b in zip(r1, r2)]


@pytest.mark.parametrize("order", [3, 4])
def test_rk4_oracle_all_presets(order):
    from math import factorial
    for name, m, state in random_models(4):
        jet = jets.propagate(T.Tensor(state), m, order=order)
        oracle = richardson_oracle(m, state, order)
        for p in range(1, order + 1):
            got = jet.coeffs[p].data * float(factorial(p))
            scale = np.abs(oracle[p - 1]).max() + 1e-12
            np.testing.assert_allclose(
                got, oracle[p - 1], rtol=0, atol=1e-5 * scale,
                err_msg=f"{name} order {p}")


def test_visible_derivatives_lorenz_subset():
    m = lorenz_model()
    state = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
    jet = jets.propagate(T.Tensor(state), m, order=2)
    g = jets.Projection("subset", [0, 1])
    d = jets.visible_derivatives(jet, g)
    u, v, w = state[:, 0], state[:, 1], state[:, 2]
    np.testing.assert_allclose(d[0].data[:, 0], 10.0 * (v - u), rtol=1e-14)
    np.testing.assert_allclose(d[0].data[:, 1], u * (28.0 - w) - v,
                               rtol=1e-14)


def test_identity_projection_returns_scaled_coeffs():
    for name, m, state in random_models(5):
        if m.kind == "complex":
            continue
        jet = jets.propagate(T.Tensor(state), m, order=3)
        g = jets.Projection("subset", list(range(m.state_dim)))
        d = jets.visible_derivatives(jet, g)
        from math import factorial
        for p in range(1, 4):
            np.testing.assert_allclose(d[p - 1].data,
                                       jet.coeffs[p].data * factorial(p),
                                       rtol=0, atol=0)


def test_global_phase_modulus_invariant():
    # dpsi/dt = i |psi|^2 psi on the unit circle: modulus never moves
    m = lib.nlse_library(dx=0.5, s_t=1.0)
    m.theta[:] = 0.0
    m.theta[4] = 1.0  # |psi|^2 psi
    x = np.arange(16) * 0.5
    phi = 0.4 * np.sin(2 * np.pi * x / 8.0)
    state = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    jet = jets.propagate(T.Tensor(state), m, order=2)
    d = jets.visible_derivatives(jet, jets.Projection("modulus"))
    np.testing.assert_allclose(d[0].data, 0.0, atol=1e-13)


def test_modulus_guard():
    m = lib.nlse_library(dx=0.5, s_t=1.0)
    m.theta[4] = 1.0
    state = np.zeros((8, 2))
    state[:, 0] = 1.0
    state[3, 0] = 0.0  # zero-modulus grid point
    jet = jets.propagate(T.Tensor(state), m, order=2)
    with pytest.raises(ValueError, match="modulus"):
        jets.visible_derivatives(jet, jets.Projection("modulus"))


def test_order_validation():
    m = lorenz_model()
    with pytest.raises(ValueError, match="order"):
        jets.propagate(T.Tensor([1.0, 1.0, 1.0]), m, order=0)


def test_gradients_wrt_theta_and_state():
    m = lorenz_model()
    m.theta *= 0.05  # keep higher derivatives tame for FD
    base = m.theta.copy()
    state_data = np.array([0.3, -0.2, 0.5])
    rng = np.random.default_rng(7)
    w2 = rng.standard_normal(3)

    def loss_value(theta, sdata):
        m.theta_t.data[...] = theta
        st = T.Tensor(sdata, requires_grad=True)
        jet = jets.propagate(st, m, order=2)
        return st, T.tsum(T.mul(jet.coeffs[2], w2))

    st, loss = loss_value(base, state_data)
    T.backward(loss)
    gtheta = m.theta_t.grad.copy()
    gstate = st.grad.copy()

    step = 1e-6
    for (j, i) in [(0, 1), (1, 3), (2, 5), (1, 6)]:
        tp = base.copy(); tp[j, i] += step
        tm = base.copy(); tm[j, i] -= step
        num = (float(loss_value(tp, state_data)[1].data)
               - float(loss_value(tm, state_data)[1].data)) / (2 * step)
        assert abs(gtheta[j, i] - num) <= 1e-5 * max(1.0, abs(num))
    for k in range(3):
        sp = state_data.copy(); sp[k] += step
        sm = state_data.copy(); sm[k] -= step
        num = (float(loss_value(base, sp)[1].data)
               - float(loss_value(base, sm)[1].data)) / (2 * step)
        assert abs(gstate[k] - num) <= 1e-5 * max(1.0, abs(num))
