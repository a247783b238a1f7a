"""Dense f64 tensors with reverse-mode automatic differentiation.

A small tape engine over numpy: every differentiable operation that touches a
tensor with ``requires_grad`` appends a node (saved inputs + vjp closures) to
the graph, and :func:`backward` replays the nodes in reverse topological order.
Broadcasting follows numpy's trailing-dimension rules; gradients of broadcast
inputs are summed back to the input shape.

Complex values are handled outside this module as paired real channels, so the
tape only ever sees real f64 arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "backward",
    "add", "sub", "mul", "div", "neg", "pow_int", "square",
    "sqrt", "sin", "cos",
    "tsum", "tmean", "getitem", "reshape", "concat", "stencil",
    "linear", "lincomb", "conv1d", "conv3d",
    "OP_REGISTRY",
]

# Registered op names -> builder used by the gradient-check harness.
OP_REGISTRY: dict = {}


def _register(name, builder):
    OP_REGISTRY[name] = builder


class Tensor:
    """A dense real64 array plus optional tape participation.

    Immutable by convention after creation, except for leaf parameters whose
    ``data`` the optimizer writes in place between training steps. A Tensor
    that requires no gradient keeps the patch matrices convolutions build
    from it in ``_patches``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op",
                 "_patches")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf"):
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        if not requires_grad:
            for p, _ in _parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = bool(requires_grad)
        self.grad = None
        # parents: tuple of (Tensor, vjp) where vjp maps upstream grad -> grad
        # contribution for that parent.
        self._parents = _parents if self.requires_grad else ()
        self._op = _op
        self._patches = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, grad={self.requires_grad})"

    # operator sugar; jet polynomials (anything carrying `coeffs`) take over
    def __add__(self, other):
        if hasattr(other, "coeffs"):
            return NotImplemented
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if hasattr(other, "coeffs"):
            return NotImplemented
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        if hasattr(other, "coeffs"):
            return NotImplemented
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return pow_int(self, n)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (undo trailing-dimension broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a, b, opname):
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ValueError(
            f"{opname}: shapes {a.shape} and {b.shape} are not broadcastable"
        ) from None


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    out = a.data + b.data
    return Tensor(out, _parents=(
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ), _op="add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = a.data - b.data
    return Tensor(out, _parents=(
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(-g, b.shape)),
    ), _op="sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = a.data * b.data
    return Tensor(out, _parents=(
        (a, lambda g: _unbroadcast(g * b.data, a.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.shape)),
    ), _op="mul")


def div(a, b):
    """Elementwise division with IEEE semantics (inf/nan)."""
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    return Tensor(out, _parents=(
        (a, lambda g: _unbroadcast(g / b.data, a.shape)),
        (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
    ), _op="div")


def neg(a):
    a = as_tensor(a)
    return Tensor(-a.data, _parents=((a, lambda g: -g),), _op="neg")


def pow_int(a, n):
    a = as_tensor(a)
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"pow_int: exponent must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise ValueError("pow_int: negative exponents unsupported; use div")
    # left-associated repeated multiplication, bit-identical to the jet
    # algebra's truncated-polynomial powers
    out = np.ones_like(a.data)
    for _ in range(n):
        out = out * a.data
    if n == 0:
        return Tensor(out, _parents=((a, lambda g: np.zeros_like(a.data)),),
                      _op="pow_int")
    return Tensor(out, _parents=(
        (a, lambda g: g * n * a.data ** (n - 1)),
    ), _op="pow_int")


def square(a):
    a = as_tensor(a)
    return Tensor(a.data * a.data,
                  _parents=((a, lambda g: g * 2.0 * a.data),), _op="square")


def sqrt(a):
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return Tensor(out, _parents=((a, lambda g: g * 0.5 / out),), _op="sqrt")


def sin(a):
    a = as_tensor(a)
    return Tensor(np.sin(a.data),
                  _parents=((a, lambda g: g * np.cos(a.data)),), _op="sin")


def cos(a):
    a = as_tensor(a)
    return Tensor(np.cos(a.data),
                  _parents=((a, lambda g: -g * np.sin(a.data)),), _op="cos")


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def tsum(a):
    """Sum of every entry."""
    a = as_tensor(a)

    def vjp(g):
        return np.broadcast_to(np.asarray(g), a.shape).copy()

    return Tensor(a.data.sum(), _parents=((a, vjp),), _op="sum")


def tmean(a):
    """Mean of every entry."""
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.size)


def _may_repeat(idx):
    """Whether `idx` can pick one element twice. Only an array index can:
    one integer list or array that holds no value twice and no negative
    one (which could alias a positive one) cannot, nor can a boolean mask;
    two or more array indices are taken to repeat."""
    arrays = [i for i in (idx if isinstance(idx, tuple) else (idx,))
              if isinstance(i, (list, np.ndarray))]
    if not arrays:
        return False
    if len(arrays) > 1:
        return True
    arr = np.asarray(arrays[0])
    if arr.dtype == bool:
        return False
    vals = arr.ravel().tolist()
    return len(set(vals)) < len(vals) or min(vals, default=0) < 0


def getitem(a, idx):
    a = as_tensor(a)
    out = a.data[idx]
    # scattering onto zeros gives np.add.at's bits when nothing repeats
    repeats = _may_repeat(idx)

    def vjp(g):
        full = np.zeros_like(a.data)
        if repeats:
            np.add.at(full, idx, g)
        else:
            full[idx] += g
        return full

    return Tensor(out, _parents=((a, vjp),), _op="getitem")


def reshape(a, shape):
    a = as_tensor(a)
    return Tensor(a.data.reshape(shape),
                  _parents=((a, lambda g: g.reshape(a.shape)),), _op="reshape")


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        return vjp

    parents = tuple((t, make_vjp(i)) for i, t in enumerate(tensors))
    return Tensor(out, _parents=parents, _op="concat")


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def _along(axis, lo, hi):
    """Index selecting [lo, hi) along a non-negative `axis`."""
    return (slice(None),) * axis + (slice(lo, hi),)


def _roll_sum(a, w, offsets, axis):
    """out[i] = sum_k w[k] * a[(i + offsets[k]) mod n] along `axis`, added in
    the order of k; zero weights are skipped."""
    n = a.shape[axis]
    out = np.zeros_like(a)
    for wk, d in zip(w, offsets):
        if wk != 0.0:
            m = d % n
            out[_along(axis, 0, n - m)] += wk * a[_along(axis, m, n)]
            if m:
                out[_along(axis, n - m, n)] += wk * a[_along(axis, 0, m)]
    return out


def stencil(a, w, axis, periodic):
    """sum_k w[k] * (a shifted by k along `axis`) in one node.

    periodic: centered and wrapping, extent kept,
        out[i] = sum_k w[k] * a[(i + k - len(w) // 2) mod n];
    valid: out[i] = sum_k w[k] * a[i + k], extent n - len(w) + 1.
    The points are added in the order of k onto zeros, as the per-point
    roll/slice loop adds them, so the values are bit-identical to it. The
    VJP is the adjoint stencil: the mirrored shifts when periodic, slice
    scatter-adds when valid."""
    a = as_tensor(a)
    w = np.asarray(w, dtype=np.float64)
    axis = axis % a.ndim
    n = a.shape[axis]
    if periodic:
        offsets = np.arange(len(w)) - len(w) // 2
        out = _roll_sum(a.data, w, offsets, axis)
        return Tensor(out, _parents=(
            (a, lambda g: _roll_sum(g, w, -offsets, axis)),), _op="stencil")
    if n < len(w):
        raise ValueError(f"series length {n} too short for a "
                         f"{len(w)}-point stencil")
    nout = n - len(w) + 1
    out = np.zeros(a.shape[:axis] + (nout,) + a.shape[axis + 1:])
    for k, wk in enumerate(w):
        if wk != 0.0:
            out += wk * a.data[_along(axis, k, k + nout)]

    def vjp(g):
        ga = np.zeros(a.shape)
        for k, wk in enumerate(w):
            if wk != 0.0:
                ga[_along(axis, k, k + nout)] += wk * g
        return ga

    return Tensor(out, _parents=((a, vjp),), _op="stencil")


# ---------------------------------------------------------------------------
# dense layers: linear map and convolutions (channels-last layout)
# ---------------------------------------------------------------------------

def _dense(op, x, w, b, tanh, cols, batch, fold):
    """One node for y = act(cols.T @ W + b), act = tanh or the identity.

    `cols` is the (K, N) column matrix of x: its channels for `linear`, its
    patch matrix for a conv. W is w as (K, cout), b is None or (cout,), and
    y is reshaped to batch + (cout,). The product is taken as
    (W.T @ cols).T, so y is the transpose of a C-ordered (cout, N) array,
    which the next layer's `cols` reads without a copy. The bias and tanh
    are applied in place. The VJP forms g * (1 - y^2) once and feeds the x,
    w and b gradients from it; `fold` maps the (K, N) column gradient back
    to x's shape, and runs only when x requires a gradient (it may be None
    when x requires none)."""
    b = None if b is None else as_tensor(b)
    wmat = w.data.reshape(-1, w.shape[-1])
    cout = wmat.shape[1]
    yt = wmat.T @ cols
    if b is not None:
        yt += b.data[:, None]
    if tanh:
        np.tanh(yt, out=yt)

    # dz(g) is made by the first of the parents' VJPs and shared by the
    # rest; the one sweep calls them all with the same g, then drops them
    memo = []

    def dz(g):
        if not memo:
            gt = g.reshape(-1, cout).T
            if tanh:
                d = yt * yt
                np.subtract(1.0, d, out=d)
                d *= gt
                gt = d
            memo.append(gt)
        return memo[0]

    parents = [(x, lambda g: fold(wmat @ dz(g))),
               (w, lambda g: (cols @ dz(g).T).reshape(w.shape))]
    if b is not None:
        parents.append((b, lambda g: dz(g).sum(axis=1)))
    return Tensor(yt.T.reshape(batch + (cout,)), _parents=tuple(parents),
                  _op=op)


def linear(x, w, *, b=None, tanh=False):
    """Per-sample channel map act(x[..., Cin] @ w[Cin, Cout] + b), act =
    tanh when `tanh`, else the identity."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear: {x.shape} incompatible with {w.shape}")
    cin = w.shape[0]
    return _dense("linear", x, w, b, tanh, x.data.reshape(-1, cin).T,
                  x.shape[:-1], lambda gc: gc.T.reshape(x.shape))


def lincomb(values, coef):
    """Contract n fields with a coefficient matrix in one node:
    out[..., j] = sum_i coef[j, i] * values[i]. The values broadcast
    against each other (a float is a constant field); coef is (neq, n)."""
    values = [as_tensor(v) for v in values]
    coef = as_tensor(coef)
    neq, n = coef.shape
    shape = np.broadcast_shapes(*{v.shape for v in values})
    phi = np.empty(shape + (n,))
    for i, v in enumerate(values):
        phi[..., i] = v.data
    out = phi @ coef.data.T

    def make_vjp(i, vshape):
        return lambda g: _unbroadcast(g @ coef.data[:, i], vshape)

    def vjp_coef(g):
        return g.reshape(-1, neq).T @ phi.reshape(-1, n)

    parents = tuple((v, make_vjp(i, v.shape)) for i, v in enumerate(values))
    return Tensor(out, _parents=parents + ((coef, vjp_coef),), _op="lincomb")


def _fold_periodic(g, axis, before, after):
    """Adjoint of np.pad's "wrap" mode along one axis: add each pad back onto
    the edge it copies."""
    n = g.shape[axis] - before - after
    core = g[_along(axis, before, before + n)].copy()
    if before:
        core[_along(axis, n - before, n)] += g[_along(axis, 0, before)]
    if after:
        core[_along(axis, 0, after)] += g[_along(axis, before + n, None)]
    return core


def _conv(op, x, w, b, tanh, periodic):
    """Correlate x[*S, Cin] with w[*K, Cin, Cout] as one `_dense` node.
    periodic[a] picks centered periodic padding for spatial axis a (extent
    kept); otherwise it is valid (extent shrinks by K[a] - 1).

    The patch matrix has one row per (kernel offset, input channel), in the
    order of w's rows, and one column per output point. Each offset's rows
    are one block copy out of the padded, channels-first input. An input
    that requires no gradient keeps its patch matrix, with the output
    extent, for later calls with the same kernel shape; its data must not
    change in place meanwhile."""
    ks, cin = w.shape[:-2], w.shape[-2]
    key = (w.shape[:-1], tuple(periodic))
    if x._patches is not None and key in x._patches:
        return _dense(op, x, w, b, tanh, *x._patches[key], None)
    pads = [(k // 2, k - 1 - k // 2) if per else (0, 0)
            for k, per in zip(ks, periodic)]
    xp = np.pad(np.moveaxis(x.data, -1, 0), [(0, 0)] + pads, mode="wrap")
    oshape = tuple(n - k + 1 for n, k in zip(xp.shape[1:], ks))
    offsets = list(np.ndindex(*ks))

    def window(off):
        return (slice(None),) + tuple(slice(o, o + n)
                                      for o, n in zip(off, oshape))

    patches = np.empty((len(offsets), cin) + oshape)
    for i, off in enumerate(offsets):
        patches[i] = xp[window(off)]
    cols = patches.reshape(len(offsets) * cin, -1)
    if not x.requires_grad:
        x._patches = x._patches or {}
        x._patches[key] = (cols, oshape)

    def fold(gcols):
        gp = gcols.reshape(patches.shape)
        gxp = np.zeros(xp.shape)
        for i, off in enumerate(offsets):
            gxp[window(off)] += gp[i]
        for a, (lo, hi) in enumerate(pads):
            if lo or hi:
                gxp = _fold_periodic(gxp, a + 1, lo, hi)
        return np.moveaxis(gxp, 0, -1)

    return _dense(op, x, w, b, tanh, cols, oshape, fold)


def conv1d(x, w, *, b=None, tanh=False):
    """act(valid correlation of x[T, Cin] with w[K, Cin, Cout] + b), act =
    tanh when `tanh`, else the identity: output length T-K+1,
    out[t] = sum_k w[k]·x[t+k].
    """
    x, w = as_tensor(x), as_tensor(w)
    K, cin, cout = w.shape
    T = x.shape[0]
    if x.shape[1] != cin:
        raise ValueError(f"conv1d: input channels {x.shape[1]} != kernel {cin}")
    if K > T:
        raise ValueError(f"conv1d: kernel {K} longer than input {T}")
    return _conv("conv1d", x, w, b, tanh, (False,))


def conv3d(x, w, *, b=None, tanh=False):
    """act(correlation of x[T, X, Y, Cin] with w[Kt, Kx, Ky, Cin, Cout] +
    b), act = tanh when `tanh`, else the identity.

    The time axis is valid (output shrinks by Kt-1); the spatial axes use
    centered periodic padding (extent preserved).
    """
    x, w = as_tensor(x), as_tensor(w)
    kt, kx, ky, cin, cout = w.shape
    if x.shape[3] != cin:
        raise ValueError(f"conv3d: input channels {x.shape[3]} != kernel {cin}")
    if kt > x.shape[0]:
        raise ValueError(f"conv3d: time kernel {kt} longer than input "
                         f"{x.shape[0]}")
    return _conv("conv3d", x, w, b, tanh, (False, True, True))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Reverse-mode sweep from a real scalar loss.

    Accumulates ``.grad`` on every leaf with requires_grad reachable from
    `loss`; returns None.

    A graph is swept once: each node drops its VJPs, and with them the
    arrays they saved, as soon as they have run, and the sweep drops its own
    reference to the node as it passes. The nodes' values stay readable. A
    second sweep through an already swept node raises ValueError.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward: loss must be a Tensor")
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss is detached from any tape")

    # topological order (iterative DFS; graphs can be deep for long series)
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if not node._parents and node._op != "leaf":
            raise ValueError("backward: graph already swept")
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads = {id(loss): np.ones_like(loss.data)}
    # popping walks the reverse topological order and releases each node
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, vjp in node._parents:
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + contrib
            else:
                grads[id(parent)] = contrib
        node._parents = ()


# ---------------------------------------------------------------------------
# op registry for the gradient-check harness
# ---------------------------------------------------------------------------

def _reg_all():
    rng_shapes = {
        "add": ((3, 4), (4,)), "sub": ((3, 4), (3, 4)), "mul": ((2, 3), (3,)),
        "div": ((3, 4), (3, 4)), "neg": ((5,),),
        "square": ((6,),), "sqrt": ((5,),),
        "sin": ((7,),), "cos": ((7,),),
    }
    fns = {"add": add, "sub": sub, "mul": mul, "div": div, "neg": neg,
           "square": square, "sqrt": sqrt,
           "sin": sin, "cos": cos}
    for name, fn in fns.items():
        _register(name, (fn, rng_shapes[name], {}))
    _register("pow_int", (pow_int, ((4,),), {"n": 3}))
    _register("sum", (tsum, ((3, 4),), {}))
    _register("mean", (tmean, ((3, 4),), {}))
    _register("getitem", (lambda a: a[1:, ::2], ((4, 6),), {}))
    _register("reshape", (lambda a: reshape(a, (2, 6)), ((3, 4),), {}))
    _register("concat", (lambda a, b: concat([a, b], axis=0), ((2, 3), (4, 3)), {}))
    for periodic in (False, True):
        _register(f"stencil_{'periodic' if periodic else 'valid'}", (
            lambda a, periodic=periodic: stencil(
                a, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12], 1, periodic),
            ((3, 7, 2),), {}))
    _register("linear", (linear, ((5, 3), (3, 2)), {}))
    _register("linear_bias_tanh", (lambda x, w, b: linear(x, w, b=b, tanh=True),
                                   ((2, 5, 3), (3, 4), (4,)), {}))
    _register("lincomb", (lambda a, b, c, w: lincomb([a, b, c], w),
                          ((4, 5), (4, 5), (5,), (2, 3)), {}))
    _register("conv1d_valid", (conv1d, ((9, 2), (3, 2, 2)), {}))
    _register("conv1d_valid_bias_tanh", (
        lambda x, w, b: conv1d(x, w, b=b, tanh=True),
        ((7, 2), (3, 2, 3), (3,)), {}))
    _register("conv3d", (conv3d, ((6, 5, 4, 2), (3, 3, 3, 2, 2)), {}))
    _register("conv3d_bias_tanh", (lambda x, w, b: conv3d(x, w, b=b, tanh=True),
                                   ((5, 4, 3, 2), (2, 3, 3, 2, 3), (3,)), {}))


_reg_all()
