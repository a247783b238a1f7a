"""Dense f64 tensors with reverse-mode automatic differentiation.

A small tape engine over numpy: every differentiable operation that touches a
tensor with ``requires_grad`` appends a node (saved inputs + vjp closures) to
the graph, and :func:`backward` replays the nodes in reverse topological order.
Broadcasting follows numpy's trailing-dimension rules; gradients of broadcast
inputs are summed back to the input shape.

Complex values are handled outside this module as paired real channels, so the
tape only ever sees real f64 arrays: every node's value and every gradient
it hands on is f64. Only inside a conv node (`conv1d`, `conv3d`) may the
arithmetic run in another dtype, its encoder's: the node casts its
parameters and input to it on the way in and its value and gradients back
to f64 on the way out.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "backward",
    "add", "sub", "mul", "div", "square",
    "sqrt", "sin", "cos",
    "tsum", "tmean", "getitem", "reshape", "concat", "stencil",
    "lincomb", "conv1d", "conv3d",
    "OP_REGISTRY",
]

# Registered op names -> builder used by the gradient-check harness.
OP_REGISTRY: dict = {}


def _register(name, builder):
    OP_REGISTRY[name] = builder


class Tensor:
    """A dense real64 array plus optional tape participation.

    Immutable by convention after creation, except for leaf parameters whose
    ``data`` the optimizer writes in place between training steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op")

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

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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


def tmean(a, count=None):
    """Mean of every entry; given `count`, their sum over `count`."""
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / (a.size if count is None else count))


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
# contraction of fields with a coefficient matrix
# ---------------------------------------------------------------------------

def lincomb(values, coef):
    """Contract n fields with a coefficient matrix in one node:
    out[..., j] = sum_i coef[j, i] * values[i]. The values broadcast
    against each other (a float is a constant field); coef is (neq, n).
    The fields are stacked by rows, phi[i] = values[i], one contiguous
    copy each, and the product is coef @ phi, (neq, points); the output is
    its transpose, a view, and coef's gradient (phi @ g).T."""
    values = [as_tensor(v) for v in values]
    coef = as_tensor(coef)
    neq, n = coef.shape
    shape = np.broadcast_shapes(*{v.shape for v in values})
    phi = np.empty((n,) + shape)
    for i, v in enumerate(values):
        phi[i] = v.data
    phi = phi.reshape(n, -1)
    out = (coef.data @ phi).T.reshape(shape + (neq,))

    def make_vjp(i, vshape):
        return lambda g: _unbroadcast(g @ coef.data[:, i], vshape)

    def vjp_coef(g):
        return (phi @ g.reshape(-1, neq)).T

    parents = tuple((v, make_vjp(i, v.shape)) for i, v in enumerate(values))
    return Tensor(out, _parents=parents + ((coef, vjp_coef),), _op="lincomb")


# ---------------------------------------------------------------------------
# conv stacks: a convolution and the per-point layers after it in one node
# (channels-last layout)
# ---------------------------------------------------------------------------

def _conv_stack(op, x, layers, periodic, dtype):
    """One node for a correlation of x[*S, Cin] with w[*K, Cin, C1] and the
    per-point layers after it, computed in `dtype`. `layers` holds (w, b,
    tanh) per layer, the conv's first: h = act(h W + b), act = tanh when
    `tanh`, else the identity, b None for no bias; a per-point w is (C_in,
    C_out).
    periodic[a] picks centered periodic padding for spatial axis a (extent
    kept); otherwise it is valid (extent shrinks by K[a] - 1). The input is
    data and no parent of the node: one that requires a gradient raises
    ValueError.

    The node casts its weights, biases and input to `dtype` once, and
    builds its patch rows, layer outputs, tanh and sweep in it; its value
    and its parameters' gradients are cast back to f64. In f64 the casts
    are no copies.

    The node takes the spatial patch rows of its input frames (the first
    axis): one row per (spatial kernel offset, input channel), one column
    per point of the frames. A time offset's patch rows are a window of
    these, so it stacks the windows into the patch matrix, one row per
    (kernel offset, input channel) in the order of w's rows and one column
    per output point, in C order. Each layer's product W.T @ h makes the
    array that then holds the layer's (C_out, points) output, with the
    bias and tanh applied in place; the last layer's is the node's value.
    The node keeps the hidden layers' outputs, and none when no parameter
    takes a gradient: then it is no node. The VJP sweeps the layers back;
    at each tanh layer but the last it forms g * (1 - y^2) in place in the
    output y, and it lets each hidden output go as soon as it has passed
    it. It takes the first layer's weight gradient as one product over the
    patch matrix, which it rebuilds as the forward built it, once the other
    layers' outputs are gone: one product of all its rows runs about twice
    as fast as one per time offset. Through a layer of one output channel
    it passes the gradient on as the broadcast product of the weight
    column and the gradient row, whose entries are those of the one-term
    matrix product. Its memory follows its input: `train.Problem` hands it
    windows of a field."""
    if x.requires_grad:
        raise ValueError(f"{op}: the input takes no gradient")
    ws = [as_tensor(w) for w, _, _ in layers]
    bs = [None if b is None else as_tensor(b) for _, b, _ in layers]
    acts = [tanh for _, _, tanh in layers]
    for w, nxt in zip(ws, ws[1:]):
        if nxt.ndim != 2 or nxt.shape[0] != w.shape[-1]:
            raise ValueError(f"{op}: layer {nxt.shape} does not follow "
                             f"{w.shape}")
    params = [p for w, b in zip(ws, bs) for p in (w, b) if p is not None]
    grad = any(p.requires_grad for p in params)
    wmats = [w.data.reshape(-1, w.shape[-1]).astype(dtype, copy=False)
             for w in ws]
    bias = [None if b is None else b.data.astype(dtype, copy=False)
            for b in bs]
    ks = ws[0].shape[:-2]
    pads = [(k // 2, k - 1 - k // 2) if per else (0, 0)
            for k, per in zip(ks, periodic)]
    xp = np.pad(np.moveaxis(x.data, -1, 0).astype(dtype, copy=False),
                [(0, 0)] + pads, mode="wrap")
    oshape = tuple(n - k + 1 for n, k in zip(xp.shape[1:], ks))
    frame = int(np.prod(oshape[1:]))
    spatial = list(np.ndindex(*ks[1:]))

    def patches():
        """The patch matrix: each time offset's patch rows, a window of the
        spatial ones, stacked."""
        rows = np.empty((len(spatial),) + xp.shape[:2] + oshape[1:],
                        dtype=xp.dtype)
        for i, off in enumerate(spatial):
            rows[i] = xp[(slice(None), slice(None)) + tuple(
                slice(o, o + n) for o, n in zip(off, oshape[1:]))]
        rows = rows.reshape(len(spatial) * len(xp), -1)
        return np.concatenate([rows[:, ot * frame:(ot + oshape[0]) * frame]
                               for ot in range(ks[0])])

    h, ys = patches(), []
    for i, (wm, b, tanh) in enumerate(zip(wmats, bias, acts)):
        if grad and i:
            ys.append(h)
        h = wm.T @ h
        if b is not None:
            h += b[:, None]
        if tanh:
            np.tanh(h, out=h)
    value = h.T.reshape(oshape + (len(h),))
    if not grad:
        return Tensor(value, _op=op)

    def sweep(g):
        """Every parent's gradient, in the order of the parents."""
        gw, gb = [None] * len(ws), [None] * len(ws)
        gt = g.reshape(-1, len(h)).T.astype(dtype, copy=False)
        for i in reversed(range(len(ws))):
            # layer i's output: the value, or a hidden one, popped so that
            # it is freed as soon as the sweep has passed it
            y = h if i == len(ws) - 1 else ys.pop()
            if acts[i]:     # in place in a hidden output, not in the value
                y = np.multiply(y, y, out=None if y is h else y)
                np.subtract(1.0, y, out=y)
                y *= gt
                gt = y
            if bs[i] is not None:
                gb[i] = gt.sum(axis=1)
            if i:
                gw[i] = ys[-1] @ gt.T
                gt = wmats[i] * gt if len(gt) == 1 else wmats[i] @ gt
            else:
                gw[0] = patches() @ gt.T
        return [v.astype(np.float64, copy=False) for i, w in enumerate(ws)
                for v in (gw[i].reshape(w.shape), gb[i]) if v is not None]

    # the first VJP to run makes every gradient; the one sweep calls them
    # all with the same g, then drops them
    memo = []

    def make_vjp(k):
        def vjp(g):
            if not memo:
                memo.extend(sweep(g))
            return memo[k]
        return vjp

    return Tensor(value, _parents=tuple((p, make_vjp(k))
                                        for k, p in enumerate(params)),
                  _op=op)


def conv1d(x, w, *, b=None, tanh=False, then=(), dtype=np.float64):
    """act(valid correlation of x[T, Cin] with w[K, Cin, Cout] + b), act =
    tanh when `tanh`, else the identity: output length T-K+1,
    out[t] = sum_k w[k]·x[t+k]. Each (w, b, tanh) of `then` maps every
    output sample on, act(h @ w + b), in the same node, which computes in
    `dtype` (see `_conv_stack`).
    """
    x, w = as_tensor(x), as_tensor(w)
    K, cin, cout = w.shape
    T = x.shape[0]
    if x.shape[1] != cin:
        raise ValueError(f"conv1d: input channels {x.shape[1]} != kernel {cin}")
    if K > T:
        raise ValueError(f"conv1d: kernel {K} longer than input {T}")
    return _conv_stack("conv1d", x, [(w, b, tanh), *then], (False,), dtype)


def conv3d(x, w, *, b=None, tanh=False, then=(), dtype=np.float64):
    """act(correlation of x[T, X, Y, Cin] with w[Kt, Kx, Ky, Cin, Cout] +
    b), act = tanh when `tanh`, else the identity. Each (w, b, tanh) of
    `then` maps every output point on, act(h @ w + b), in the same node,
    which computes in `dtype` (see `_conv_stack`).

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
    return _conv_stack("conv3d", x, [(w, b, tanh), *then],
                       (False, True, True), dtype)


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
        "div": ((3, 4), (3, 4)),
        "square": ((6,),), "sqrt": ((5,),),
        "sin": ((7,),), "cos": ((7,),),
    }
    fns = {"add": add, "sub": sub, "mul": mul, "div": div,
           "square": square, "sqrt": sqrt,
           "sin": sin, "cos": cos}
    for name, fn in fns.items():
        _register(name, (fn, rng_shapes[name], {}))
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
    _register("lincomb", (lambda a, b, c, w: lincomb([a, b, c], w),
                          ((4, 5), (4, 5), (5,), (2, 3)), {}))
    # a conv's input is data and takes no gradient, so it is the constant
    # keyword `x`, and only w and b are checked; cos(0, 1, 2, ...) stands in
    # for random data without loading numpy.random on import
    def data(shape):
        return np.cos(np.arange(np.prod(shape))).reshape(shape)

    _register("conv1d_valid", (lambda w, x: conv1d(x, w), ((3, 2, 2),),
                               {"x": data((9, 2))}))
    _register("conv1d_valid_bias_tanh", (
        lambda w, b, x: conv1d(x, w, b=b, tanh=True),
        ((3, 2, 3), (3,)), {"x": data((7, 2))}))
    _register("conv3d", (lambda w, x: conv3d(x, w), ((3, 3, 3, 2, 2),),
                         {"x": data((6, 5, 4, 2))}))
    _register("conv3d_bias_tanh", (
        lambda w, b, x: conv3d(x, w, b=b, tanh=True),
        ((2, 3, 3, 2, 3), (3,)), {"x": data((5, 4, 3, 2))}))
    # the encoders' stacks: conv, tanh layer, linear head
    _register("conv1d_stack", (
        lambda w0, b0, w1, b1, w2, b2, x: conv1d(
            x, w0, b=b0, tanh=True, then=((w1, b1, True), (w2, b2, False))),
        ((3, 2, 3), (3,), (3, 4), (4,), (4, 1), (1,)), {"x": data((9, 2))}))
    _register("conv3d_stack", (
        lambda w0, b0, w1, b1, w2, b2, x: conv3d(
            x, w0, b=b0, tanh=True, then=((w1, b1, True), (w2, b2, False))),
        ((2, 3, 3, 2, 3), (3,), (3, 4), (4,), (4, 1), (1,)),
        {"x": data((5, 4, 3, 2))}))


_reg_all()
