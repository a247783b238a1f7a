import dataclasses
import json

import numpy as np
import pytest

from symder import tensor as T
from symder import encoders as E


def test_temporal_shapes():
    enc = E.Encoder(E.ode_encoder_spec(n_visible=2, width=16), seed=0)
    x = T.Tensor(np.random.default_rng(0).normal(size=(40, 2)))
    h = enc(x)
    assert h.shape == (32, 1)
    assert enc.receptive_field == 9
    assert enc.radius == 4


def test_temporal_window_too_short():
    enc = E.Encoder(E.ode_encoder_spec(n_visible=2, width=8), seed=0)
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
    enc = E.Encoder(E.ode_encoder_spec(n_visible=2, width=8), seed=0)
    enc.params["w2"].data[:] = 0.0
    h = enc(T.Tensor(np.random.default_rng(0).normal(size=(20, 2))))
    np.testing.assert_array_equal(h.data, 0.0)


def test_init_seeded_and_zero_bias():
    a = E.Encoder(E.ode_encoder_spec(n_visible=2, width=8), seed=7)
    b = E.Encoder(E.ode_encoder_spec(n_visible=2, width=8), seed=7)
    c = E.Encoder(E.ode_encoder_spec(n_visible=2, width=8), seed=8)
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


def _tanh(a):
    """tanh as a node of its own, for the op-chain reference."""
    out = np.tanh(a.data)
    return T.Tensor(out, _parents=((a, lambda g: g * (1.0 - out * out)),),
                    _op="tanh")


def _per_point(h, w):
    """h[..., Cin] @ w[Cin, Cout] as a node of its own, for the op-chain
    reference. The product is taken as w.T @ h.T, as the stack takes it: a
    `lincomb` takes h @ w, which rounds differently for one output
    channel."""
    cols = h.data.reshape(-1, w.shape[0]).T
    out = (w.data.T @ cols).T.reshape(h.shape[:-1] + (w.shape[1],))

    def rows(g):
        return g.reshape(-1, w.shape[1]).T

    return T.Tensor(out, _parents=(
        (h, lambda g: (w.data @ rows(g)).T.reshape(h.shape)),
        (w, lambda g: cols @ rows(g).T)), _op="per_point")


def _layer_chain(enc, visible):
    """The encoder forward as one op per step: conv, then add bias and tanh
    for each hidden layer, then per_point, add, tanh ... add."""
    h = visible
    n_layers = len(enc.spec.widths)
    for i in range(n_layers):
        w, b = enc.params[f"w{i}"], enc.params[f"b{i}"]
        if i > 0:
            h = _per_point(h, w)
        elif enc.spec.kind == "temporal_conv":
            h = T.conv1d(h, w)
        else:
            h = T.conv3d(h, w)
        h = T.add(h, b)
        if i < n_layers - 1:
            h = _tanh(h)
    return h


def _match_chain(spec, shape):
    enc = E.Encoder(spec, seed=2)
    rng = np.random.default_rng(5)
    for p in enc.params.values():
        p.data = rng.normal(0.0, 0.5, p.shape)
    x = rng.normal(size=shape)
    weights = rng.normal(size=enc(T.Tensor(x)).shape)
    results = []
    for forward in (enc, lambda v: _layer_chain(enc, v)):
        for p in enc.params.values():
            p.zero_grad()
        out = forward(T.Tensor(x))
        value = out.data.copy()
        T.backward(T.tsum(T.mul(out, weights)))
        # the VJP works in place in the activations, never in the value
        assert np.array_equal(out.data, value)
        results.append((value, {k: p.grad for k, p in enc.params.items()}))
    (fused, grads), (chain, grads_ref) = results
    assert np.array_equal(fused, chain)
    for name in grads:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("spec, shape", [
    (E.ode_encoder_spec(n_visible=2, width=7), (88, 2)),
    (dataclasses.replace(E.pde_encoder_spec(n_visible=2, width=5),
                         dtype="float64"), (7, 6, 5, 2)),
])
def test_fused_layers_match_op_chain(spec, shape):
    # the stack is one node; the per-op chain, in float64, is the
    # reference, and the node's value is unchanged by its backward
    _match_chain(spec, shape)


def test_encoder_layers_are_single_nodes():
    # the whole stack is one node, and its parents are the parameters
    enc = E.Encoder(E.pde_encoder_spec(n_visible=1, width=4), seed=0)
    out = enc(T.Tensor(np.zeros((5, 4, 4, 1))))
    assert out._op == "conv3d"
    assert [p for p, _ in out._parents] == [p for _, p in enc.parameters()]


def _field_problem(width):
    """A diffusion_source Problem on 28 frames of 32x32: its interior, 24
    frames, is three encoder windows of 8 frames."""
    from symder import datagen, train
    ds = datagen.simulate(datagen.get_preset("diffusion_source", n_time=28,
                                             nx=32), seed=0)
    prob = train.Problem(ds, train.default_model(ds.preset),
                         train.default_encoder(ds, {"width": width}))
    assert prob.chunks() == [(2, 10), (10, 18), (18, 26)]
    return prob


def _peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stack_peaks_below_its_patch_matrix():
    # the whole interior's loss on the tape, through the jets: the encoder
    # runs window by window, and the whole patch matrix (125 rows of 24
    # frames of 1024 points) would take 23.4 MiB, one window's 7.8 MiB
    prob = _field_problem(4)
    patch_bytes = 125 * 24 * 32 * 32 * 8
    _, peak = _peak(lambda: T.backward(prob.tape_loss()[0]))
    assert peak < patch_bytes, peak / 2 ** 20


def test_no_grad_stack_keeps_no_activations():
    # parameters that take no gradient: no node, and no layer's outputs
    # kept past their window. One width-128 layer over the 24 interior
    # frames holds 24 MiB; one window's patches and two layers' outputs
    # take less
    prob = _field_problem(128)
    layer_bytes = 128 * 24 * 32 * 32 * 8
    with_grad = prob.reconstruct().data
    for _, p in prob.encoder.parameters():
        p.requires_grad = False
    out, peak = _peak(prob.reconstruct)
    assert not out.requires_grad and out._parents == ()
    assert peak < layer_bytes, peak / 2 ** 20
    assert np.array_equal(out.data, with_grad)


def test_windowed_reconstruct_is_one_encoder_call():
    # three windows of 8 frames give the bits of one call on the interior
    prob = _field_problem(4)
    r = prob.encoder.radius
    whole = prob.encoder(prob.vis_t[prob.lo - r:prob.hi + r])
    hidden = prob._encode(prob.lo, prob.hi)
    assert [p._op for p, _ in hidden._parents] == ["conv3d"] * 3
    assert np.array_equal(prob.reconstruct().data[..., 1:], whole.data)


def test_phase_embedding():
    enc = E.Encoder(E.phase_embedding_spec((12, 16)), seed=0)
    h = enc(T.Tensor(np.zeros((12, 16, 1))))
    np.testing.assert_array_equal(h.data, 0.0)
    assert h.shape == (12, 16)
    assert enc.radius == 0


def test_aggregate_concat_recovers_visible():
    vis = np.random.default_rng(0).normal(size=(10, 2))
    hid = np.random.default_rng(1).normal(size=(10, 1))
    full = E.aggregate([0, 1], T.Tensor(vis), T.Tensor(hid)).data
    np.testing.assert_array_equal(full[:, :2], vis)
    np.testing.assert_array_equal(full[:, 2:], hid)


def test_aggregate_modulus_phase():
    rng = np.random.default_rng(0)
    mod = np.abs(rng.normal(size=(6, 8))) + 0.5
    phi = rng.normal(size=(6, 8))
    psi = E.aggregate("modulus", T.Tensor(mod[..., None]),
                      T.Tensor(phi)).data
    np.testing.assert_allclose(np.hypot(psi[..., 0], psi[..., 1]), mod,
                               atol=1e-14)
    np.testing.assert_allclose(np.arctan2(psi[..., 1], psi[..., 0]),
                               np.arctan2(np.sin(phi), np.cos(phi)),
                               atol=1e-12)


def test_aggregate_misaligned_raises():
    with pytest.raises(ValueError):
        E.aggregate([0, 1], T.Tensor(np.zeros((10, 2))),
                    T.Tensor(np.zeros((9, 1))))


def test_modulus_phase_gauge_invariance():
    # shifting every phase by 2*pi leaves the rebuilt wave unchanged
    rng = np.random.default_rng(4)
    mod = np.abs(rng.normal(size=(5, 8))) + 0.5
    phi = rng.normal(size=(5, 8))
    a = E.aggregate("modulus", T.Tensor(mod[..., None]),
                    T.Tensor(phi)).data
    b = E.aggregate("modulus", T.Tensor(mod[..., None]),
                    T.Tensor(phi + 2 * np.pi)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


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


def test_float32_stack_against_float64():
    # the PDE encoder's conv stack runs in float32 over float64 weights;
    # on a fixed input its value and weight gradients stay within 1e-4 of
    # the largest float64 entry, a bound set before measuring
    spec32 = E.pde_encoder_spec(n_visible=2, width=16)
    assert spec32.dtype == "float32"
    spec64 = dataclasses.replace(spec32, dtype="float64")
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.normal(size=(12, 16, 16, 2)))
    weights = rng.normal(size=(8, 16, 16, 1))
    b0 = rng.normal(0.0, 0.1, 16)
    results = []
    for spec in (spec32, spec64):
        enc = E.Encoder(spec, seed=4)
        enc.params["b0"].data[...] = b0
        out = enc(x)
        assert out.data.dtype == np.float64
        T.backward(T.tsum(T.mul(out, weights)))
        grads = [p.grad for _, p in enc.parameters()]
        assert all(g.dtype == np.float64 for g in grads)
        results.append([out.data] + grads)
    for a32, a64 in zip(*results):
        assert np.abs(a32 - a64).max() <= 1e-4 * np.abs(a64).max()
        assert not np.array_equal(a32, a64)


def _perturbed_pde_encoder():
    enc = E.Encoder(E.pde_encoder_spec(n_visible=1, width=6), seed=5)
    for p in enc.params.values():
        p.data += np.random.default_rng(0).normal(0.0, 0.1, size=p.shape)
    return enc


def test_pde_checkpoint_roundtrip_keeps_dtype(tmp_path):
    enc = _perturbed_pde_encoder()
    path = tmp_path / "enc.ckpt"
    E.save_checkpoint(enc, path)
    loaded = E.load_checkpoint(path)
    assert loaded.spec == enc.spec and loaded.spec.dtype == "float32"
    x = T.Tensor(np.random.default_rng(1).normal(size=(9, 8, 8, 1)))
    assert np.array_equal(loaded(x).data, enc(x).data)


def test_checkpoint_without_dtype_loads_as_float64(tmp_path):
    # the header of a checkpoint saved before specs had a dtype, and of a
    # float64 encoder's, names none
    enc = _perturbed_pde_encoder()
    path = tmp_path / "enc.ckpt"
    E.save_checkpoint(enc, path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    assert header["spec"].pop("dtype") == "float32"
    head = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(head).to_bytes(8, "little") + head
                     + raw[16 + hlen:])
    loaded = E.load_checkpoint(path)
    assert loaded.spec == dataclasses.replace(enc.spec, dtype="float64")
    E.save_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
    x = T.Tensor(np.random.default_rng(1).normal(size=(9, 8, 8, 1)))
    enc64 = E.Encoder(loaded.spec)
    for name, p in enc.params.items():
        enc64.params[name].data[...] = p.data
    assert np.array_equal(loaded(x).data, enc64(x).data)


def test_loaded_parameters_take_no_gradient(tmp_path):
    enc = _perturbed_pde_encoder()
    E.save_checkpoint(enc, tmp_path / "enc.ckpt")
    loaded = E.load_checkpoint(tmp_path / "enc.ckpt")
    assert [n for n, _ in loaded.parameters()] == list(enc.params)
    assert not any(p.requires_grad for _, p in loaded.parameters())
    out = loaded(T.Tensor(np.zeros((5, 4, 4, 1))))
    assert not out.requires_grad and out._parents == ()
