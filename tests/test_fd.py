import numpy as np
import pytest

from symder import fd
from symder import tensor as T


def test_second_derivative_exact_on_quadratic():
    t = np.arange(50) * 0.1
    x = t ** 2
    d2, valid = fd.time_derivative(x, 2, 0.1)
    np.testing.assert_allclose(d2, 2.0, rtol=1e-10)
    assert valid == slice(1, 49)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_constant_series_zero(p):
    x = np.full(20, 3.7)
    d, _ = fd.time_derivative(x, p, 0.05)
    # roundoff only: stencil weights scale like dt^-p
    np.testing.assert_allclose(d, 0.0, atol=1e-12 / 0.05 ** p)


def test_sin_first_derivative_accuracy():
    dt = 1e-2
    t = np.arange(2000) * dt
    d1, valid = fd.time_derivative(np.sin(t), 1, dt)
    assert np.max(np.abs(d1 - np.cos(t[valid]))) <= 2e-5


@pytest.mark.parametrize("p", [1, 2])
def test_convergence_order(p):
    # halving dt should cut the error by >= 3.5x on a smooth signal
    errs = []
    for dt in (2e-2, 1e-2):
        t = np.arange(int(4.0 / dt)) * dt
        x = np.sin(1.3 * t) + 0.2 * np.cos(2.1 * t)
        truth = {1: 1.3 * np.cos(1.3 * t) - 0.42 * np.sin(2.1 * t),
                 2: -1.69 * np.sin(1.3 * t) - 0.882 * np.cos(2.1 * t)}[p]
        d, valid = fd.time_derivative(x, p, dt)
        errs.append(np.max(np.abs(d - truth[valid])))
    assert errs[0] / errs[1] >= 3.5


def test_series_too_short():
    with pytest.raises(ValueError, match="too short"):
        fd.time_derivative(np.ones(3), 3, 0.1)


def test_spatial_second_derivative_sine():
    n, L = 64, 10.0
    dx = L / n
    x = np.arange(n) * dx
    u = np.sin(2 * np.pi * x / L)
    spec = fd.StencilSpec(order=2, axis=0, spacing=dx)
    d2 = fd.spatial_stencil(u, spec)
    truth = -(2 * np.pi / L) ** 2 * u
    assert np.max(np.abs(d2 - truth)) < (2 * np.pi / L) ** 2 * (dx ** 2)


def test_spatial_first_derivative_constant():
    u = np.full((8, 8), 2.5)
    d = fd.spatial_stencil(u, fd.StencilSpec(order=1, axis=0, spacing=1.0))
    np.testing.assert_array_equal(d, 0.0)


def test_cross_derivatives_commute():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((16, 16))
    sx = fd.StencilSpec(order=1, axis=0, spacing=0.5)
    sy = fd.StencilSpec(order=1, axis=1, spacing=0.7)
    a = fd.spatial_stencil(fd.spatial_stencil(u, sx), sy)
    b = fd.spatial_stencil(fd.spatial_stencil(u, sy), sx)
    # identical stencil sums up to scalar rounding order
    np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)


def test_stencils_commute_with_cyclic_shift():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(32)
    spec = fd.StencilSpec(order=2, axis=0, spacing=0.3)
    np.testing.assert_array_equal(
        fd.spatial_stencil(np.roll(u, 5), spec),
        np.roll(fd.spatial_stencil(u, spec), 5))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_periodic_stencil_mean_zero(p):
    rng = np.random.default_rng(p)
    u = rng.standard_normal(64)
    d = fd.spatial_stencil(u, fd.StencilSpec(order=p, axis=0, spacing=0.1))
    assert abs(d.mean()) < 1e-12 * np.abs(d).max()


@pytest.mark.parametrize("p", [1, 2])
def test_stencil_weights_properties(p):
    w = fd.CENTRAL_STENCILS[p]
    assert abs(w.sum()) < 1e-14
    # exact on polynomials up to degree p + 1
    half = len(w) // 2
    k = np.arange(-half, half + 1, dtype=float)
    for deg in range(p + 2):
        val = (w * k ** deg).sum()
        from math import factorial
        expect = factorial(p) if deg == p else 0.0
        assert abs(val - expect) < 1e-12


def test_tensor_paths_match_numpy():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 2))
    d_np, valid = fd.time_derivative(x, 2, 0.1)
    d_t, valid_t = fd.time_derivative(T.Tensor(x), 2, 0.1)
    np.testing.assert_allclose(d_t.data, d_np, rtol=1e-14)
    assert valid == valid_t

    u = rng.standard_normal((8, 8))
    spec = fd.StencilSpec(order=1, axis=-1, spacing=0.2)
    np.testing.assert_allclose(
        fd.spatial_stencil(T.Tensor(u), spec).data,
        fd.spatial_stencil(u, spec), rtol=1e-14)


@pytest.mark.parametrize("p, degree", [(1, 4), (2, 5)])
def test_accuracy4_stencils_exact_on_polynomials(p, degree):
    # order-4 central stencils: exact up to degree p + 3, on both paths
    from math import factorial
    dt = 0.1
    t = 0.3 + np.arange(12) * dt
    w = fd.stencil_weights(p, dt, accuracy=4)
    for deg in range(degree + 1):
        x = t ** deg
        d = fd.apply_stencil(x, w)
        truth = (factorial(deg) / factorial(deg - p) * t[2:-2] ** (deg - p)
                 if deg >= p else np.zeros(8))
        np.testing.assert_allclose(d, truth, rtol=1e-10, atol=1e-10)
        np.testing.assert_array_equal(fd.apply_stencil(T.Tensor(x), w).data,
                                      d)


def test_stencil_accuracy_validated():
    w = fd.stencil_weights(2, 0.5, accuracy=4)
    np.testing.assert_array_equal(w, fd.CENTRAL_STENCILS_4[2] / 0.25)
    fd.StencilSpec(order=1, axis=0, spacing=1.0, accuracy=4)
    with pytest.raises(ValueError):
        fd.StencilSpec(order=3, axis=0, spacing=1.0, accuracy=4)
    with pytest.raises(ValueError):
        fd.stencil_weights(1, 1.0, accuracy=6)


def _per_point(a, w, axis, periodic):
    """The stencil as one roll or slice per point, added onto zeros."""
    if periodic:
        out = np.zeros_like(a)
        for k, wk in enumerate(w):
            if wk != 0.0:
                out += wk * np.roll(a, len(w) // 2 - k, axis=axis)
        return out
    n_out = a.shape[axis] - len(w) + 1
    out = np.zeros(a.shape[:axis] + (n_out,) + a.shape[axis + 1:])
    for k, wk in enumerate(w):
        if wk != 0.0:
            out += wk * np.take(a, np.arange(k, k + n_out), axis=axis)
    return out


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("accuracy", [2, 4])
@pytest.mark.parametrize("p", [1, 2])
def test_stencil_matches_per_point_chain(p, accuracy, periodic):
    rng = np.random.default_rng(10 * p + accuracy)
    a = rng.standard_normal((9, 7, 6))
    w = fd.stencil_weights(p, 0.3, accuracy)
    for axis in range(-a.ndim, a.ndim):
        out = T.stencil(a, w, axis, periodic)
        assert np.array_equal(out.data, _per_point(a, w, axis % a.ndim,
                                                    periodic))
        # adjoint: <S a, g> = <a, S^T g>
        x = T.Tensor(a, requires_grad=True)
        g = rng.standard_normal(out.shape)
        T.backward(T.tsum(T.mul(T.stencil(x, w, axis, periodic), g)))
        np.testing.assert_allclose(np.sum(x.grad * a), np.sum(out.data * g),
                                   rtol=1e-12)


def test_stencil_one_node_per_application():
    u = T.Tensor(np.ones((6, 5)), requires_grad=True)
    spec = fd.StencilSpec(order=2, axis=1, spacing=0.5, accuracy=4)
    out = fd.spatial_stencil(u, spec)
    assert out._op == "stencil" and out._parents[0][0] is u
    d, _ = fd.time_derivative(u, 1, 0.1)
    assert d._op == "stencil" and d._parents[0][0] is u
