import numpy as np
import pytest

from symder import tensor as T
from symder import encoders as E
from symder import library


def test_temporal_shapes():
    enc = E.Encoder(E.ode_encoder_spec(n_visible=2, width=16), seed=0)
    x = T.Tensor(np.random.default_rng(0).normal(size=(40, 2)))
    h = enc(x)
    assert h.shape == (32, 1)
    assert enc.receptive_field == 9
    assert enc.radius == 4


def test_temporal_window_too_short():
    enc = E.Encoder(E.ode_encoder_spec(width=8), seed=0)
    with pytest.raises(ValueError):
        enc(T.Tensor(np.zeros((8, 2))))


def test_temporal_translation_equivariance():
    # valid conv: output sample j depends only on inputs j..j+8, so a
    # shifted window yields the same interior values (up to gemm blocking
    # rounding, which depends on the input length)
    enc = E.Encoder(E.ode_encoder_spec(n_visible=2, width=12), seed=3)
    x = np.random.default_rng(1).normal(size=(30, 2))
    full = enc(T.Tensor(x)).data
    shifted = enc(T.Tensor(x[5:])).data
    np.testing.assert_allclose(full[5:], shifted, rtol=0, atol=1e-12)


def test_temporal_locality():
    enc = E.Encoder(E.ode_encoder_spec(n_visible=2, width=12), seed=3)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 2))
    base = enc(T.Tensor(x)).data
    xp = x.copy()
    xp[0] += 10.0   # outside the receptive field of output sample 10
    pert = enc(T.Tensor(xp)).data
    np.testing.assert_array_equal(base[10:], pert[10:])
    assert not np.array_equal(base[0], pert[0])


def test_zero_final_layer_outputs_zero():
    enc = E.Encoder(E.ode_encoder_spec(width=8), seed=0)
    enc.params["w2"].data[:] = 0.0
    h = enc(T.Tensor(np.random.default_rng(0).normal(size=(20, 2))))
    np.testing.assert_array_equal(h.data, 0.0)


def test_init_seeded_and_zero_bias():
    a = E.Encoder(E.ode_encoder_spec(width=8), seed=7)
    b = E.Encoder(E.ode_encoder_spec(width=8), seed=7)
    c = E.Encoder(E.ode_encoder_spec(width=8), seed=8)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
        if name.startswith("b"):
            np.testing.assert_array_equal(a.params[name].data, 0.0)
    assert not np.array_equal(a.params["w0"].data, c.params["w0"].data)
    # uniform fan-in bound for the first conv layer
    assert np.max(np.abs(a.params["w0"].data)) <= 1.0 / np.sqrt(9 * 2)


def test_spatiotemporal_shapes_and_periodicity():
    enc = E.Encoder(E.pde_encoder_spec(n_visible=1, width=6), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 8, 8, 1))
    h = enc(T.Tensor(x)).data
    assert h.shape == (5, 8, 8, 1)
    # periodic space: rolling the input rolls the output
    hr = enc(T.Tensor(np.roll(x, 3, axis=1))).data
    np.testing.assert_allclose(hr, np.roll(h, 3, axis=1), rtol=0, atol=1e-12)


def _layer_chain(enc, visible):
    """The encoder forward as one op per step: conv, then add bias and tanh
    for each hidden layer, then linear, add, tanh ... add."""
    h = visible
    n_layers = len(enc.spec.widths)
    for i in range(n_layers):
        w, b = enc.params[f"w{i}"], enc.params[f"b{i}"]
        if i > 0:
            h = T.linear(h, w)
        elif enc.spec.kind == "temporal_conv":
            h = T.conv1d(h, w)
        else:
            h = T.conv3d(h, w)
        h = T.add(h, b)
        if i < n_layers - 1:
            h = T.tanh(h)
    return h


@pytest.mark.parametrize("spec, shape", [
    (E.ode_encoder_spec(n_visible=2, width=7), (23, 2)),
    (E.pde_encoder_spec(n_visible=2, width=5), (7, 6, 5, 2)),
])
def test_fused_layers_match_op_chain(spec, shape):
    # each layer is one fused node; the per-op chain is the reference
    enc = E.Encoder(spec, seed=2)
    rng = np.random.default_rng(5)
    for p in enc.params.values():
        p.data = rng.normal(0.0, 0.5, p.shape)
    x = rng.normal(size=shape)
    weights = rng.normal(size=enc(T.Tensor(x)).shape)
    results = []
    for forward in (enc, lambda v: _layer_chain(enc, v)):
        visible = T.Tensor(x, requires_grad=True)
        for p in enc.params.values():
            p.zero_grad()
        out = forward(visible)
        T.backward(T.tsum(T.mul(out, weights)))
        results.append((out.data.copy(), visible.grad,
                        {k: p.grad for k, p in enc.params.items()}))
    (fused, gx, grads), (chain, gx_ref, grads_ref) = results
    assert np.array_equal(fused, chain)
    np.testing.assert_allclose(gx, gx_ref, rtol=0, atol=1e-12)
    for name in grads:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=0,
                                   atol=1e-12)


def test_encoder_layers_are_single_nodes():
    enc = E.Encoder(E.pde_encoder_spec(n_visible=1, width=4), seed=0)
    out = enc(T.Tensor(np.zeros((5, 4, 4, 1))))
    ops = []
    while out._parents:
        ops.append(out._op)
        out = out._parents[0][0]
    assert ops == ["linear", "linear", "conv3d"]


def test_phase_embedding():
    enc = E.Encoder(E.phase_embedding_spec((12, 16)), seed=0)
    h = enc(T.Tensor(np.zeros((12, 16, 1))))
    np.testing.assert_array_equal(h.data, 0.0)
    assert h.shape == (12, 16)
    assert enc.radius == 0


def test_aggregate_concat_recovers_visible():
    vis = np.random.default_rng(0).normal(size=(10, 2))
    hid = np.random.default_rng(1).normal(size=(10, 1))
    full = E.aggregate("concat", T.Tensor(vis), T.Tensor(hid)).data
    np.testing.assert_array_equal(full[:, :2], vis)
    np.testing.assert_array_equal(full[:, 2:], hid)


def test_aggregate_modulus_phase():
    rng = np.random.default_rng(0)
    mod = np.abs(rng.normal(size=(6, 8))) + 0.5
    phi = rng.normal(size=(6, 8))
    psi = E.aggregate("modulus_phase", T.Tensor(mod[..., None]),
                      T.Tensor(phi)).data
    np.testing.assert_allclose(np.hypot(psi[..., 0], psi[..., 1]), mod,
                               atol=1e-14)
    np.testing.assert_allclose(np.arctan2(psi[..., 1], psi[..., 0]),
                               np.arctan2(np.sin(phi), np.cos(phi)),
                               atol=1e-12)


def test_aggregate_misaligned_raises():
    with pytest.raises(ValueError):
        E.aggregate("concat", T.Tensor(np.zeros((10, 2))),
                    T.Tensor(np.zeros((9, 1))))


def test_modulus_phase_gauge_invariance():
    # shifting every phase by 2*pi leaves the rebuilt wave unchanged
    rng = np.random.default_rng(4)
    mod = np.abs(rng.normal(size=(5, 8))) + 0.5
    phi = rng.normal(size=(5, 8))
    a = E.aggregate("modulus_phase", T.Tensor(mod[..., None]),
                    T.Tensor(phi)).data
    b = E.aggregate("modulus_phase", T.Tensor(mod[..., None]),
                    T.Tensor(phi + 2 * np.pi)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_phase_regularizer_zero_beta():
    model = library.nlse_library(dx=0.1)
    psi = T.Tensor(np.random.default_rng(0).normal(size=(5, 8, 2)))
    assert E.phase_regularizer(psi, model, 0.0, 0.05).item() == 0.0


def test_phase_regularizer_short_window():
    model = library.nlse_library(dx=0.1)
    with pytest.raises(ValueError):
        E.phase_regularizer(T.Tensor(np.zeros((2, 8, 2))), model, 1.0, 0.1)


def test_phase_regularizer_manufactured_decay():
    # plane wave obeying the discrete dispersion of the stencil model:
    # psi = exp(i(kx - w t)), w = (2 - 2 cos(k dx)) / (2 dx^2). For it the
    # symbolic side is the exact time derivative, so the residual is the
    # O(dt^2) central-difference error and the penalty decays as dt^4.
    nx = 32
    dx = 2 * np.pi / nx
    x = np.arange(nx) * dx
    k = 1.0
    w = (2 - 2 * np.cos(k * dx)) / (2 * dx ** 2)

    def penalty(dt):
        model = library.nlse_library(dx=dx)
        model.theta[:] = 0.0
        for i, t in enumerate(model.terms):
            if isinstance(t, library.WaveDerivative) and t.order == 2:
                model.theta[i] = 0.5 * model.s_t * dt
        model.sync()
        ts = np.arange(7) * dt
        psi = np.exp(1j * (k * x[None, :] - w * ts[:, None]))
        arr = np.stack([psi.real, psi.imag], axis=-1)
        return E.phase_regularizer(T.Tensor(arr), model, 1.0, dt).item()

    p1, p2 = penalty(0.02), penalty(0.01)
    assert p1 < 1e-4
    ratio = p1 / p2
    assert 12.0 < ratio < 20.0   # dt^4 in the squared penalty


def test_phase_regularizer_gradient_flows():
    model = library.nlse_library(dx=0.2)
    psi = T.Tensor(np.random.default_rng(0).normal(size=(5, 8, 2)),
                   requires_grad=True)
    reg = E.phase_regularizer(psi, model, 10.0, 0.05)
    T.backward(reg)
    assert psi.grad is not None and np.any(psi.grad != 0)


def test_checkpoint_roundtrip(tmp_path):
    enc = E.Encoder(E.ode_encoder_spec(n_visible=2, width=8), seed=5)
    for p in enc.params.values():
        p.data += np.random.default_rng(0).normal(size=p.shape)
    path = tmp_path / "enc.ckpt"
    E.save_checkpoint(enc, path)
    loaded = E.load_checkpoint(path)
    assert loaded.spec == enc.spec
    for name in enc.params:
        np.testing.assert_array_equal(loaded.params[name].data,
                                      enc.params[name].data)
    x = T.Tensor(np.random.default_rng(1).normal(size=(20, 2)))
    np.testing.assert_array_equal(enc(x).data, loaded(x).data)


def test_checkpoint_corrupt(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(E.CheckpointError):
        E.load_checkpoint(path)
    enc = E.Encoder(E.phase_embedding_spec((3, 4)), seed=0)
    E.save_checkpoint(enc, path)
    raw = bytearray(path.read_bytes())
    raw[20] = ord("!")  # clobber the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(E.CheckpointError):
        E.load_checkpoint(path)
