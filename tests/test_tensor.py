import weakref

import numpy as np
import pytest

from symder import tensor as T


def fd_grad(f, args, i, step=1e-5):
    """Central finite-difference gradient of scalar f w.r.t. args[i]."""
    base = [a.copy() for a in args]
    g = np.zeros_like(base[i])
    flat = g.reshape(-1)
    xi = base[i].reshape(-1)
    for j in range(xi.size):
        orig = xi[j]
        xi[j] = orig + step
        fp = f(base)
        xi[j] = orig - step
        fm = f(base)
        xi[j] = orig
        flat[j] = (fp - fm) / (2 * step)
    return g


def check_op(fn, shapes, kwargs, rng, positive=False):
    args = [rng.standard_normal(s) for s in shapes]
    if positive:
        args = [np.abs(a) + 0.5 for a in args]
    # random linear functional on the output makes the loss scalar
    out_probe = fn(*[T.Tensor(a) for a in args], **kwargs)
    weights = rng.standard_normal(out_probe.shape)

    def run(arrs):
        ts = [T.Tensor(a, requires_grad=True) for a in arrs]
        return ts, T.tsum(T.mul(fn(*ts, **kwargs), weights))

    ts, loss = run(args)
    T.backward(loss)
    for i, t in enumerate(ts):
        num = fd_grad(lambda arrs: float(
            T.tsum(T.mul(fn(*[T.Tensor(a) for a in arrs], **kwargs),
                         weights)).data), args, i)
        scale = max(np.abs(num).max(), 1.0)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, rtol=1e-6, atol=1e-6 * scale)


POSITIVE_ONLY = {"sqrt", "div"}


@pytest.mark.parametrize("name", sorted(T.OP_REGISTRY))
def test_gradcheck_registered_ops(name):
    fn, shapes, kwargs = T.OP_REGISTRY[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(3):
        check_op(fn, shapes, kwargs, rng, positive=name in POSITIVE_ONLY)


def test_gradcheck_random_compositions():
    # 20 random multi-op compositions, per the autodiff soundness gate
    rng = np.random.default_rng(0)
    mix = np.arange(16.0).reshape(4, 4) / 16.0
    unary = [lambda a: T.lincomb([a[:, i] for i in range(4)], mix),
             T.sin, T.cos,
             T.square, lambda a: T.mul(a, 0.3),
             lambda a: T.add(a, 1.5)]
    binary = [T.add, T.sub, T.mul]
    for trial in range(20):
        depth = rng.integers(2, 6)

        def build(ts):
            a, b = ts
            cur = a
            for _ in range(depth):
                if rng.random() < 0.5:
                    cur = unary[rng.integers(len(unary))](cur)
                else:
                    cur = binary[rng.integers(len(binary))](cur, b)
            return cur

        shapes = [(3, 4), (3, 4)]
        state = rng.bit_generator.state
        args = [rng.standard_normal(s) for s in shapes]
        weights = rng.standard_normal((3, 4))

        def loss_of(arrs):
            rng.bit_generator.state = state  # replay identical op choices
            arrs2 = [T.Tensor(a, requires_grad=True) for a in arrs]
            rngsaved = rng.standard_normal(0)  # noqa: F841
            return arrs2, T.tsum(T.mul(build(arrs2), weights))

        ts, loss = loss_of(args)
        T.backward(loss)
        for i, t in enumerate(ts):
            if t.grad is None:
                continue
            num = fd_grad(lambda arrs: float(loss_of(arrs)[1].data), args, i)
            scale = max(np.abs(num).max(), 1.0)
            np.testing.assert_allclose(t.grad, num, rtol=1e-6,
                                       atol=1e-6 * scale)


def test_add_broadcast():
    out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_mul_broadcast_identity_scale():
    out = T.mul(T.Tensor([2.0]), T.Tensor([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[2.0, 4.0], [6.0, 8.0]])


def test_div_by_zero_is_ieee():
    out = T.div(T.Tensor([1.0]), T.Tensor([0.0]))
    assert np.isinf(out.data[0])


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(3,\).*\(2,\)"):
        T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(2)))




def test_backward_linear_and_quadratic():
    x = T.Tensor([1.0, 2.0])
    theta = T.Tensor([3.0, 4.0], requires_grad=True)
    loss = T.tsum(T.mul(theta, x))
    T.backward(loss)
    np.testing.assert_array_equal(theta.grad, [1.0, 2.0])

    y = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(T.tsum(T.square(y)))
    np.testing.assert_array_equal(y.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar_and_detached():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.backward(T.square(x))
    with pytest.raises(ValueError, match="detached"):
        T.backward(T.tsum(T.Tensor([1.0])))


def test_backward_frees_the_swept_tape():
    x = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    h = T.square(x)
    ref = weakref.ref(h.data)
    loss = T.tsum(T.sin(h))
    del h
    assert ref() is not None
    T.backward(loss)
    assert ref() is None
    assert loss.item() == pytest.approx(np.sin([1.0, 4.0, 0.25]).sum())
    np.testing.assert_allclose(x.grad, 2.0 * x.data * np.cos(x.data ** 2))


def test_second_backward_raises():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    h = T.square(x)
    loss = T.tsum(h)
    T.backward(loss)
    grad = x.grad.copy()
    with pytest.raises(ValueError, match="already swept"):
        T.backward(loss)
    with pytest.raises(ValueError, match="already swept"):
        T.backward(T.tsum(T.mul(h, 3.0)))
    np.testing.assert_array_equal(x.grad, grad)


def test_backward_linearity():
    x = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)

    def grad_of(a, b):
        x.zero_grad()
        l1 = T.tsum(T.square(x))
        l2 = T.tsum(T.mul(T.sin(x), 2.0))
        T.backward(T.add(T.mul(l1, a), T.mul(l2, b)))
        return x.grad.copy()

    g1 = grad_of(1.0, 0.0)
    g2 = grad_of(0.0, 1.0)
    g = grad_of(2.0, -3.0)
    np.testing.assert_allclose(g, 2.0 * g1 - 3.0 * g2, rtol=1e-12)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        loss = T.tsum(T.sin(T.lincomb([x[:, i] for i in range(3)], w)))
        T.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_conv1d_valid_full_kernel():
    # length-9 input with kernel 9 collapses to a single sample
    x = T.Tensor(np.arange(9.0).reshape(9, 1))
    w = T.Tensor(np.ones((9, 1, 1)))
    out = T.conv1d(x, w)
    assert out.shape == (1, 1)
    assert out.data[0, 0] == 36.0


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 1))
    w = np.zeros((3, 1, 1))
    w[1, 0, 0] = 1.0
    out = T.conv1d(T.Tensor(x), T.Tensor(w))
    np.testing.assert_allclose(out.data, x[1:-1])


def test_conv1d_kernel_too_long():
    with pytest.raises(ValueError, match="longer"):
        T.conv1d(T.Tensor(np.ones((3, 1))), T.Tensor(np.ones((5, 1, 1))))


def test_conv3d_shapes_and_brute_force():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4, 4, 1))
    w = rng.standard_normal((3, 3, 3, 1, 2))
    out = T.conv3d(T.Tensor(x), T.Tensor(w))
    assert out.shape == (4, 4, 4, 2)
    # brute-force direct summation at one output point
    t, i, j = 1, 0, 3
    acc = np.zeros(2)
    for dt in range(3):
        for dx in range(3):
            for dy in range(3):
                acc += x[t + dt, (i + dx - 1) % 4, (j + dy - 1) % 4, 0] * \
                    w[dt, dx, dy, 0]
    np.testing.assert_allclose(out.data[t, i, j], acc, rtol=1e-12)


@pytest.mark.parametrize("conv, xshape, wshape", [
    (T.conv1d, (11, 2), (3, 2, 4)),
    (T.conv3d, (5, 4, 4, 2), (2, 3, 3, 2, 3))])
def test_conv_input_with_grad_raises(conv, xshape, wshape):
    x = T.Tensor(np.ones(xshape), requires_grad=True)
    with pytest.raises(ValueError, match="input takes no gradient"):
        conv(x, T.Tensor(np.ones(wshape), requires_grad=True))


def _full_patches(x, ks):
    """The whole patch matrix of a valid-in-time correlation, periodic in
    space, by index arithmetic: one row per (kernel offset, input channel)
    in the order of the kernel's rows, one column per output point."""
    oshape = (x.shape[0] - ks[0] + 1,) + x.shape[1:-1]
    rows = []
    for off in np.ndindex(*ks):
        idx = [np.arange(n)[(slice(None),) + (None,) * (len(oshape) - a - 1)]
               + o - (k // 2 if a else 0)
               for a, (n, o, k) in enumerate(zip(oshape, off, ks))]
        idx = [i % x.shape[a] if a else i for a, i in enumerate(idx)]
        patch = x[tuple(idx)]
        rows += [patch[..., c].reshape(-1) for c in range(x.shape[-1])]
    return np.array(rows)


@pytest.mark.parametrize("conv, xshape, wshape", [
    (T.conv3d, (7, 6, 5, 2), (3, 3, 3, 2, 4)),
    (T.conv1d, (88, 2), (9, 2, 8))])
def test_first_weight_gradient_equals_full_patch_product(conv, xshape,
                                                         wshape):
    # 150 or 80 output points: the VJP's product over the patch matrix it
    # rebuilds gives the bits of the whole patch matrix's, built here by
    # index arithmetic. The bits are the BLAS kernels' for a product this
    # wide; OpenBLAS rounds a one- or two-column weight gradient of few
    # rows differently
    rng = np.random.default_rng(8)
    x = rng.standard_normal(xshape)
    w = T.Tensor(rng.standard_normal(wshape), requires_grad=True)
    out = conv(T.Tensor(x), w)
    g = rng.standard_normal(out.shape)
    T.backward(T.tsum(T.mul(out, g)))
    patches = _full_patches(x, wshape[:-2])
    gt = g.reshape(-1, wshape[-1]).T
    assert np.array_equal(w.grad, (patches @ gt.T).reshape(wshape))
    np.testing.assert_allclose(out.data.reshape(-1, wshape[-1]),
                               (w.data.reshape(-1, wshape[-1]).T
                                @ patches).T, rtol=1e-13)


def test_conv_value_survives_its_backward():
    # a stack that ends in tanh: the VJP's g * (1 - y^2) is formed in place
    # in the hidden layer's output, never in the node's value
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.standard_normal((6, 5, 4, 2)))
    params = [T.Tensor(rng.standard_normal(s), requires_grad=True)
              for s in ((2, 3, 3, 2, 3), (3,), (3, 2), (2,))]
    out = T.conv3d(x, params[0], b=params[1], tanh=True,
                   then=((params[2], params[3], True),))
    value = out.data.copy()
    T.backward(T.tsum(out))
    assert np.array_equal(out.data, value)
    assert all(p.grad is not None for p in params)


def test_one_channel_head_passes_the_matrix_products_bits():
    # through a linear head of one output channel the sweep passes the
    # gradient on as the broadcast product of the weight column and the
    # gradient row; every gradient keeps the bits of the one-term matrix
    # product w @ g, replayed here step by step as the sweep takes them
    # (a conv1d of kernel 1, whose patch matrix is x.T)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, 2))
    w0, b0, w1, b1, w2, b2 = [
        T.Tensor(rng.standard_normal(s), requires_grad=True)
        for s in ((1, 2, 3), (3,), (3, 4), (4,), (4, 1), (1,))]
    out = T.conv1d(T.Tensor(x), w0, b=b0, tanh=True,
                   then=((w1, b1, True), (w2, b2, False)))
    g = rng.standard_normal(out.shape)
    T.backward(T.tsum(T.mul(out, g)))

    patches = np.ascontiguousarray(x.T)
    ys = []
    h = patches
    for w, b in ((w0, b0), (w1, b1)):
        h = np.matmul(w.data.reshape(-1, w.shape[-1]).T, h)
        h += b.data[:, None]
        np.tanh(h, out=h)
        ys.append(h)
    gt = g.reshape(-1, 1).T
    ref = {"w2": ys[1] @ gt.T, "b2": gt.sum(axis=1)}
    gt = w2.data @ gt
    for i, (w, b) in ((1, (w1, b1)), (0, (w0, b0))):
        d = ys[i] * ys[i]
        d = 1.0 - d
        d *= gt
        gt = d
        ref[f"w{i}"] = (ys[i - 1] if i else patches) @ gt.T
        ref[f"b{i}"] = gt.sum(axis=1)
        gt = w.data @ gt
    for name, p in zip(("w0", "b0", "w1", "b1", "w2", "b2"),
                       (w0, b0, w1, b1, w2, b2)):
        assert np.array_equal(p.grad, ref[name].reshape(p.shape)), name


def test_getitem_scatter_repeats_only_where_an_index_can():
    a = T.Tensor(np.arange(4.0), requires_grad=True)
    T.backward(T.tsum(T.mul(T.getitem(a, [1, -3, 2]), [1.0, 2.0, 4.0])))
    np.testing.assert_array_equal(a.grad, [0.0, 3.0, 4.0, 0.0])
    b = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(T.tsum(T.getitem(b, (Ellipsis, np.array([2, 0])))))
    np.testing.assert_array_equal(b.grad, [[1.0, 0.0, 1.0]] * 2)
    assert not T._may_repeat((Ellipsis, np.array([2, 0])))
    assert not T._may_repeat(np.array([True, False, True]))
    assert T._may_repeat([1, 1]) and T._may_repeat([0, -1])
    assert T._may_repeat((np.array([0, 1]), np.array([1, 0])))


def test_tensors_share_readonly():
    x = T.Tensor(np.ones(3))
    y = T.add(x, x)
    np.testing.assert_array_equal(y.data, 2 * np.ones(3))
