import json
from types import SimpleNamespace

import numpy as np
import pytest

from symder import jets
from symder import library as lib
from symder import tensor as T


def rhs(m, state):
    """sum_i theta_i f_i(state): the first Taylor coefficient of the
    trajectory through `state`."""
    return jets.propagate(state, m, 1).coeffs[1]


def norm_record(mean, std, dt):
    return SimpleNamespace(mean=np.asarray(mean, dtype=float),
                           std=np.asarray(std, dtype=float), dt=dt)


def test_zero_model_evaluates_to_zero():
    m = lib.ode_library()
    m.theta[:] = 0.0
    out = rhs(m, np.ones((5, 3)))
    np.testing.assert_array_equal(out.data, 0.0)


def test_rossler_first_component():
    # du/dt = -v - w at (u,v,w) = (1,2,3) -> -5
    m = lib.ode_library()
    names = [t.name for t in m.terms]
    m.theta[0, names.index("v")] = -1.0
    m.theta[0, names.index("w")] = -1.0
    out = rhs(m, np.array([1.0, 2.0, 3.0]))
    assert out.data[0] == -5.0


def test_laplacian_of_constant_field_is_zero():
    m = lib.pde_library()
    names = [t.name for t in m.terms]
    m.theta[:] = 0.0
    m.theta[0, names.index("dxx(u)")] = 0.1
    m.theta[0, names.index("dyy(u)")] = 0.1
    state = np.full((4, 8, 8, 2), 2.3)
    out = rhs(m, state)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-14)


def test_state_dim_mismatch():
    m = lib.ode_library()
    with pytest.raises(ValueError, match="components"):
        rhs(m, np.ones((5, 2)))


def test_linearity_in_theta():
    rng = np.random.default_rng(0)
    m1 = lib.ode_library()
    m2 = lib.ode_library()
    m12 = lib.ode_library()
    t1 = rng.standard_normal(m1.theta.shape)
    t2 = rng.standard_normal(m1.theta.shape)
    m1.theta[:], m2.theta[:], m12.theta[:] = t1, t2, t1 + t2
    state = rng.standard_normal((7, 3))
    np.testing.assert_allclose(rhs(m12, state).data,
                               rhs(m1, state).data + rhs(m2, state).data,
                               rtol=1e-13)


def test_sparsify_threshold_and_counts():
    m = lib.ode_library()
    m.theta[:] = 0.0
    m.theta[0, 0], m.theta[0, 1] = 0.5, 5e-4
    m.mask[:] = False
    m.mask[0, :2] = True
    n = m.sparsify(1e-3)
    assert n == 1
    assert m.theta[0, 1] == 0.0 and m.theta[0, 0] == 0.5
    assert not m.mask[0, 1]


def test_sparsify_noop_and_idempotent():
    m = lib.ode_library()
    m.theta[:] = 0.0
    m.theta[0, :3] = [0.5, -0.7, 0.2]
    m.mask[:] = False
    m.mask[0, :3] = True
    assert m.sparsify(0.1) == 0
    assert m.sparsify(0.1) == 0  # idempotent at fixed threshold
    # all-zero masked coefficients: nothing newly zeroed
    z = lib.ode_library()
    z.theta[:] = 0.0
    z.mask[:] = False
    assert z.sparsify(1e-3) == 0


def test_masked_coefficients_get_zero_gradient():
    m = lib.ode_library()
    rng = np.random.default_rng(1)
    m.theta[:] = rng.standard_normal(m.theta.shape)
    m.mask[:, ::2] = False
    m.theta[~m.mask] = 0.0
    state = T.Tensor(rng.standard_normal((6, 3)))
    loss = T.tsum(T.square(rhs(m, state)))
    T.backward(loss)
    g = m.theta_t.grad
    if g is None:
        g = np.zeros_like(m.theta)
    np.testing.assert_array_equal(g[~m.mask], 0.0)
    assert np.abs(g[m.mask]).max() > 0


def test_masked_never_revive():
    m = lib.ode_library()
    m.theta[:] = 1.0
    m.sparsify(2.0)  # masks everything
    m.theta[:] = 5.0  # even large values stay masked
    assert m.sparsify(1e-3) == 0
    assert m.active_terms() == 0
    out = rhs(m, np.ones(3))
    np.testing.assert_array_equal(out.data, 0.0)


def test_json_roundtrip_exact():
    rng = np.random.default_rng(2)
    for make in (lib.ode_library,
                 lambda: lib.pde_library(dx=1.5, dy=0.5),
                 lambda: lib.nlse_library(dx=2 * np.pi / 64)):
        m = make()
        m.theta[:] = rng.standard_normal(m.theta.shape)
        m.mask.flat[::3] = False
        m.theta[~m.mask] = 0.0
        m2 = lib.SymbolicModel.from_json(m.to_json())
        np.testing.assert_array_equal(m.theta, m2.theta)
        np.testing.assert_array_equal(m.mask, m2.mask)
        assert [t.name for t in m.terms] == [t.name for t in m2.terms]
        assert (m.s_t, m.s_x, m.state_dim, m.kind) == \
            (m2.s_t, m2.s_x, m2.state_dim, m2.kind)
        assert m.to_json() == m2.to_json()
        json.loads(m.to_json())  # valid JSON document


def test_theta_is_one_array_from_json_on():
    m = lib.ode_library()
    m.theta[:] = np.random.default_rng(4).standard_normal(m.theta.shape)
    m.mask[0, 1:4] = False
    m2 = lib.SymbolicModel.from_json(m.to_json())
    assert np.shares_memory(m2.theta, m2.theta_t.data)
    np.testing.assert_array_equal(m2.theta[~m2.mask], 0.0)
    m2.theta[1, 2] = 7.0
    assert m2.theta_t.data[1, 2] == 7.0


def test_models_built_from_one_array_share_no_memory():
    theta = np.ones((3, 10))
    m1, m2 = (lib.SymbolicModel(terms=lib.monomial_terms(3), theta=theta,
                                mask=np.ones((3, 10), dtype=bool),
                                state_dim=3) for _ in range(2))
    for a in (m1.theta, m1.theta_t.data):
        for b in (theta, m2.theta, m2.theta_t.data):
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kind,theta,state_dim", [
    ("real", np.zeros((3, 9)), 3),     # one term short
    ("real", np.zeros((3, 10)), 2),    # state_dim disagrees
    ("complex", np.zeros((2, 10)), 2),
])
def test_theta_shape_must_fit_terms_and_state(kind, theta, state_dim):
    with pytest.raises(ValueError, match="theta has shape"):
        lib.SymbolicModel(terms=lib.monomial_terms(3), theta=theta,
                          mask=np.ones(theta.shape, dtype=bool),
                          state_dim=state_dim, kind=kind)


def test_physical_coefficients_pure_time_scale():
    m = lib.ode_library(s_t=10.0)
    names = [t.name for t in m.terms]
    m.theta[:] = 0.0
    m.mask[:] = False
    i = names.index("u")
    m.theta[0, i] = 2.84
    m.mask[0, i] = True
    norm = norm_record([0, 0, 0], [1, 1, 1], dt=1.0)
    table = lib.physical_coefficients(m, norm)
    assert table[0][("mono", (1, 0, 0))] == pytest.approx(0.284, rel=1e-12)


def test_physical_coefficients_stencil_and_field_scales():
    # stencils act at spacing s_x * dx: an order-p term divides by s_x^p
    m = lib.pde_library(dx=0.5, dy=0.5, s_t=10.0, s_x=2.0)
    m.theta[0, [t.name for t in m.terms].index("dxx(u)")] = 3.0
    table = lib.physical_coefficients(m, norm_record([0, 0], [1, 1], dt=0.1))
    assert table[0][("deriv", 0, (2, 0))] == pytest.approx(3.0 / 1.0 / 4.0)
    # psi was divided by std, so |psi|^q psi picks up std^-q
    m = lib.nlse_library(dx=0.3, s_t=10.0)
    m.theta[[t.name for t in m.terms].index("|psi|^2*psi")] = 3.0
    m.theta[[t.name for t in m.terms].index("dx^2(psi)")] = 5.0
    table = lib.physical_coefficients(m, norm_record([0], [2.0], dt=0.1))
    assert table[0][("wave_nonlin", 2)] == pytest.approx(3.0 / 1.0 / 4.0)
    assert table[0][("wave_deriv", 2)] == pytest.approx(5.0 / 1.0)


def test_physical_coefficients_identity():
    rng = np.random.default_rng(3)
    m = lib.ode_library(s_t=1.0)
    m.theta[:] = rng.standard_normal(m.theta.shape)
    norm = norm_record([0, 0, 0], [1, 1, 1], dt=1.0)
    table = lib.physical_coefficients(m, norm)
    for j in range(3):
        for i, t in enumerate(m.terms):
            key = ("mono", t.exponents)
            assert table[j][key] == pytest.approx(m.theta[j, i], rel=1e-12)


def test_physical_coefficients_requires_norm():
    m = lib.ode_library()
    with pytest.raises(ValueError, match="normalization"):
        lib.physical_coefficients(m, None)


def test_time_rescale_invariance():
    # scaling s_t -> lam*s_t with theta -> lam*theta reports the same physics
    rng = np.random.default_rng(4)
    theta = rng.standard_normal((3, 10))
    norm = norm_record(rng.standard_normal(3), rng.uniform(0.5, 2.0, 3), 0.01)
    lam = 3.7
    m1 = lib.ode_library(s_t=10.0)
    m1.theta[:] = theta
    m2 = lib.ode_library(s_t=10.0 * lam)
    m2.theta[:] = theta * lam
    t1 = lib.physical_coefficients(m1, norm)
    t2 = lib.physical_coefficients(m2, norm)
    for j in t1:
        for key in t1[j]:
            assert t1[j][key] == pytest.approx(t2[j].get(key, 0.0), rel=1e-12)


def test_physical_coefficients_undo_normalization():
    # generate from known du/dt = 2u - 0.5uv, dv/dt = -v; normalize; invert
    truth = {0: {("mono", (1, 0)): 2.0, ("mono", (1, 1)): -0.5},
             1: {("mono", (0, 1)): -1.0}}
    mean = np.array([1.2, -0.4])
    std = np.array([2.0, 0.7])
    dt = 0.05
    s_t = 10.0
    # forward-map the truth into normalized/model-time coefficients:
    # x = std * X + mean, t = s_t * dt * tau
    fwd = lib.change_variables(truth, np.diag(std), mean, time=s_t * dt)
    m = lib.SymbolicModel(terms=lib.monomial_terms(2), theta=np.zeros((2, 6)),
                          mask=np.ones((2, 6), dtype=bool), s_t=s_t,
                          state_dim=2)
    m.theta[...] = lib.model_theta(m, fwd)
    table = lib.physical_coefficients(m, norm_record(mean, std, dt))
    for j in truth:
        for key, c in table[j].items():
            assert c == pytest.approx(truth[j].get(key, 0.0), abs=1e-12)


def test_nlse_terms_respect_global_phase_symmetry():
    m = lib.nlse_library(dx=0.3)
    geom = m.geometry()
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for alpha in (0.3, 1.7, -2.2):
        rot = psi * np.exp(1j * alpha)
        for t in m.terms:
            fr, fi = t.evaluate([psi.real, psi.imag], geom)
            gr, gi = t.evaluate([rot.real, rot.imag], geom)
            expect = (fr + 1j * fi) * np.exp(1j * alpha)
            np.testing.assert_allclose(gr + 1j * gi, expect, rtol=1e-12,
                                       err_msg=t.name)


def _lower_change(rng):
    """A non-diagonal lower-triangular change of three variables."""
    A = np.tril(rng.normal(size=(3, 3)), -1) + np.diag([1.5, -0.8, 2.5])
    return A, rng.normal(size=3)


def test_affine_substitute_roundtrip():
    """table -> (A, g, time, space) -> its inverse gives the table back, for
    a non-diagonal A mixing monomials and spatial derivatives."""
    rng = np.random.default_rng(6)
    table = {0: {("mono", (0, 0, 0)): 0.3, ("mono", (1, 0, 1)): -1.2,
                 ("mono", (0, 0, 2)): 0.7, ("deriv", 2, (2, 0)): 0.4},
             1: {("deriv", 0, (1, 1)): -0.9},
             2: {("mono", (0, 0, 1)): 2.0, ("mono", (1, 1, 0)): 1.0,
                 ("deriv", 1, (0, 1)): 0.25}}
    A, g = _lower_change(rng)
    change = (A, g, 0.3, 1.7)
    inverse = lib.inverse_change(*change)
    np.testing.assert_allclose(inverse[0], np.linalg.inv(A), atol=1e-14)
    np.testing.assert_allclose(inverse[1], -np.linalg.solve(A, g), atol=1e-14)
    fwd = lib.change_variables(table, *change)
    assert ("deriv", 0, (2, 0)) in fwd[0]     # the derivative mixed through A
    back = lib.change_variables(fwd, *inverse)
    for j in range(3):
        for key in set(table[j]) | set(back[j]):
            assert back[j].get(key, 0.0) == pytest.approx(
                table[j].get(key, 0.0), abs=1e-12)


def test_change_variables_matches_direct_substitution():
    # dx_new/dt_new = time * A^-1 F(A x_new + g), evaluated at random points
    from symder import datagen
    rng = np.random.default_rng(8)
    terms = lib.monomial_terms(3)
    table = {j: {t.key: rng.normal() for t in terms} for j in range(3)}
    A, g = _lower_change(rng)
    new = lib.change_variables(table, A, g, time=0.6)
    old_rhs = datagen.table_rhs(table, 3)
    new_rhs = datagen.table_rhs(new, 3)
    for x in rng.normal(size=(5, 3)):
        expect = 0.6 * np.linalg.solve(A, old_rhs(*(A @ x + g)))
        np.testing.assert_allclose(new_rhs(*x), expect, rtol=1e-12,
                                   atol=1e-12)


def test_gauge_change_keeps_unmixed_rows_exact():
    # the hidden channel's gauge mixes only its own row of A, so visible
    # equations free of w come through bit for bit
    m = lib.ode_library()
    m.theta[...] = np.random.default_rng(9).normal(size=m.theta.shape)
    m.theta[:2, [t.exponents[2] > 0 for t in m.terms]] = 0.0
    A = np.eye(3)
    A[2] = [0.7, -1.3, 2.1]
    new = lib.change_variables(lib.model_table(m), A, [0.0, 0.0, 0.4])
    theta = lib.model_theta(m, new)
    np.testing.assert_array_equal(theta[:2], m.theta[:2])
    assert not np.allclose(theta[2], m.theta[2])


def test_change_variables_rejects_unsupported_changes():
    with pytest.raises(ValueError, match="lower triangular"):
        lib.change_variables({0: {}}, [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="rescaling"):
        lib.change_variables({0: {("wave_nonlin", 2): 1.0}}, [[2.0]], [0.5])
    m = lib.ode_library()
    with pytest.raises(ValueError, match="not a term"):
        lib.model_theta(m, {0: {("mono", (3, 0, 0)): 1.0}})


@pytest.mark.parametrize("library,spec", [
    (lib.ode_library(), ["mono", [0, 0, 0]]),
    (lib.pde_library(), ["deriv", 1, [1, 1]]),
    (lib.nlse_library(dx=0.3), ["wave_nonlin", 8])])
def test_term_keys_invert_and_serialize(library, spec):
    for t in library.terms:
        assert lib.term_from_key(t.key) == t
        assert lib.term_from_key(json.loads(json.dumps(t.key))) == t
    assert spec in json.loads(library.to_json())["term_spec"]


def test_term_names():
    m = lib.pde_library()
    names = [t.name for t in m.terms]
    assert "1" in names and "u*v" in names and "dxy(u)" in names
    assert "u^2" in names and "dyy(v)" in names
    n = lib.nlse_library(dx=0.1)
    assert [t.name for t in n.terms][:2] == ["dx(psi)", "dx^2(psi)"]
    assert "|psi|^6*psi" in [t.name for t in n.terms]


# -- the lincomb contraction against the per-coefficient tape sum ------------

def reference_components(m, comps, order):
    """Per-(equation, term) contraction, one tape node per coefficient, as
    one flat list of order + 1 Taylor coefficients per equation (a float
    0.0 where no term contributes)."""
    geom = m.geometry()
    th = m.masked_theta()
    active = m.mask if m.kind == "complex" else m.mask.any(axis=0)
    values = [t.evaluate(comps, geom) if active[i] else None
              for i, t in enumerate(m.terms)]

    def coeff(v, p):
        # a jet's coefficient p; the constant term's value is the float 1.0
        if isinstance(v, float):
            return v if p == 0 else 0.0
        return v.coeffs[p]

    if m.kind == "complex":
        # re = -sum_i theta_i f_im,i, im = sum_i theta_i f_re,i
        rows = [[(v[1], -1.0 * th[i]) for i, v in enumerate(values)
                 if v is not None],
                [(v[0], th[i]) for i, v in enumerate(values)
                 if v is not None]]
    else:
        rows = [[(v, th[j, i]) for i, v in enumerate(values)
                 if v is not None and m.mask[j, i]]
                for j in range(m.theta.shape[0])]
    flat = []
    for row in rows:
        for p in range(order + 1):
            acc = 0.0
            for v, c in row:
                acc = coeff(v, p) * c + acc
            flat.append(acc)
    return flat


def _oracle_model(kind, rng):
    if kind == "ode":
        m, shape = lib.ode_library(), (40, 3)
    elif kind == "pde":
        m, shape = lib.pde_library(dx=0.7, dy=0.4), (3, 8, 8, 2)
    else:
        m, shape = lib.nlse_library(dx=0.3), (3, 16, 2)
    m.theta[...] = rng.standard_normal(m.theta.shape)
    if kind == "nlse":
        m.mask[[1, 6]] = False
    else:
        m.mask[0] = False              # one fully masked equation
        m.mask[1:-1, 4] = False        # one partly masked term
        m.mask[1:, 2] = False          # one term masked everywhere
    m.theta[~m.mask] = 0.0
    return m, shape


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kind", ["ode", "pde", "nlse"])
def test_lincomb_contraction_matches_reference(kind, order):
    from symder.jets import JetVar
    rng = np.random.default_rng(11)
    m, shape = _oracle_model(kind, rng)
    seeds = [0.5 * rng.standard_normal(shape) for _ in range(order + 1)]
    n_eq = 2 if kind == "nlse" else len(m.theta)
    probes = [rng.standard_normal(shape[:-1])
              for _ in range((order + 1) * n_eq)]
    def contract(comps):
        # one state-shaped tensor per coefficient, split into equations
        cs = [m.evaluate_components(comps, p) for p in range(order + 1)]
        return [c[..., j] for j in range(n_eq) for c in cs]

    results = []
    for contract in (contract,
                     lambda comps: reference_components(m, comps, order)):
        m.theta_t.zero_grad()
        leaves = [T.Tensor(s, requires_grad=True) for s in seeds]
        comps = [JetVar([c[..., j] for c in leaves])
                 for j in range(shape[-1])]
        flat = contract(comps)
        loss = sum((T.tsum(T.mul(c, w)) for c, w in zip(flat, probes)
                    if isinstance(c, T.Tensor)), T.Tensor(0.0))
        T.backward(loss)
        arrs = [np.broadcast_to(c.data if isinstance(c, T.Tensor) else c,
                                shape[:-1]) for c in flat]
        results.append((arrs, m.theta_t.grad, [l.grad for l in leaves]))
    (new, gth, gx), (ref, rth, rx) = results
    for a, b in zip(new, ref):
        np.testing.assert_allclose(a, b, rtol=1e-12,
                                   atol=1e-12 * max(np.abs(b).max(), 1.0))
    np.testing.assert_allclose(gth, rth, rtol=1e-10,
                               atol=1e-10 * np.abs(rth).max())
    for a, b in zip(gx, rx):
        np.testing.assert_allclose(a, b, rtol=1e-10,
                                   atol=1e-10 * np.abs(b).max())
