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
    unary = [T.tanh, T.sin, T.cos, T.square, lambda a: T.mul(a, 0.3),
             lambda a: T.add(a, 1.5), T.neg]
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


def test_pow_int():
    out = T.pow_int(T.Tensor([3.0]), 2)
    np.testing.assert_array_equal(out.data, [9.0])


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
        w = T.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        loss = T.tsum(T.tanh(T.linear(x, w)))
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


def test_tensors_share_readonly():
    x = T.Tensor(np.ones(3))
    y = T.add(x, x)
    np.testing.assert_array_equal(y.data, 2 * np.ones(3))
