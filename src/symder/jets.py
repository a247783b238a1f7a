"""Higher-order symbolic time derivatives by truncated Taylor (jet) arithmetic.

Given a symbolic right-hand side dx/dt = F(x), the trajectory through a state
has a Taylor expansion x(t+eps) = sum_p c_p eps^p with c_0 = x. Lifting every
library term to act on degree-M polynomials in eps and applying the recurrence

    c_{p+1} = (coefficient of eps^p in F applied to the degree-p truncation)
              / (p + 1)

yields all derivatives d^p x/dt^p = p! c_p without integrating the system.
All coefficients are built from tape ops, so gradients with respect to both
the state and the model coefficients come out of the usual backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import tensor as T

MODULUS_FLOOR = 1e-8  # |psi| below this makes d|psi|/dt ill-conditioned


class JetVar:
    """Truncated polynomial in the expansion variable; coefficients are
    Tensors (or scalars, which broadcast)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def apply_linear(self, fn):
        return JetVar([fn(c) for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, JetVar):
            n = min(len(self.coeffs), len(other.coeffs))
            return JetVar([self.coeffs[i] + other.coeffs[i] for i in range(n)])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return JetVar(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rsub__(self, other):
        return (-1.0) * self + other

    def __mul__(self, other):
        if isinstance(other, JetVar):
            n = min(len(self.coeffs), len(other.coeffs))
            out = []
            for p in range(n):
                acc = None
                for j in range(p + 1):
                    term = self.coeffs[j] * other.coeffs[p - j]
                    acc = term if acc is None else acc + term
                out.append(acc)
            return JetVar(out)
        return JetVar([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise TypeError("jet power must be a non-negative integer")
        if n == 0:
            return JetVar([1.0] + [0.0] * self.order)
        out = self
        for _ in range(int(n) - 1):
            out = out * self
        return out


def as_jet(x, order):
    """Coerce a constant (Tensor/scalar) to a degree-`order` jet."""
    if isinstance(x, JetVar):
        return x
    return JetVar([x] + [0.0] * order)


def jet_sqrt(s: JetVar) -> JetVar:
    """Square root of a jet with strictly positive leading coefficient."""
    r0 = T.sqrt(T.as_tensor(s.coeffs[0]))
    out = [r0]
    inv2r0 = T.div(0.5, r0)
    for p in range(1, len(s.coeffs)):
        acc = T.as_tensor(s.coeffs[p])
        for j in range(1, p):
            acc = acc - out[j] * out[p - j]
        out.append(acc * inv2r0)
    return JetVar(out)


@dataclass
class JetSeries:
    """Taylor coefficients c_p = (1/p!) d^p x/dt^p of the state trajectory,
    each shaped like the state (components in the trailing axis)."""

    coeffs: list
    order: int


def _broadcast_to_field(c, field_shape):
    c = T.as_tensor(c)
    if c.shape != tuple(field_shape):
        c = T.mul(c, np.ones(field_shape))
    return c


def propagate(state, model, order):
    """Expand the trajectory of dx/dt = model(x) through `state` to the given
    order. `state` has components along the trailing axis; all leading axes
    are batch/grid axes evaluated simultaneously."""
    if order < 1:
        raise ValueError(f"jet order must be >= 1, got {order}")
    state = T.as_tensor(state)
    ncomp = state.shape[-1]
    if ncomp != model.state_dim:
        raise ValueError(
            f"state has {ncomp} components, model expects {model.state_dim}")
    field_shape = state.shape[:-1]

    comp_jets = [JetVar([state[..., j]]) for j in range(ncomp)]
    for p in range(order):
        rhs = model.evaluate_components(comp_jets)
        for j in range(ncomp):
            f = as_jet(rhs[j], p)
            cp = f.coeffs[p] if p < len(f.coeffs) else 0.0
            comp_jets[j] = JetVar(
                comp_jets[j].coeffs + [T.as_tensor(cp) * (1.0 / (p + 1))])

    coeffs = [state]
    for p in range(1, order + 1):
        fields = [_broadcast_to_field(comp_jets[j].coeffs[p], field_shape)
                  for j in range(ncomp)]
        stacked = T.concat(
            [T.reshape(f, f.shape + (1,)) for f in fields], axis=-1)
        coeffs.append(stacked)
    return JetSeries(coeffs=coeffs, order=order)


class Projection:
    """Registered visible-state projections: a coordinate subset, or the
    modulus of a complex state stored as (re, im) channels."""

    def __init__(self, kind, indices=None):
        if kind not in ("subset", "modulus"):
            raise ValueError(f"unknown projection kind {kind!r}")
        self.kind = kind
        self.indices = list(indices) if indices is not None else None


def visible_derivatives(jet: JetSeries, g: Projection):
    """d^p g(x)/dt^p for p = 1..jet.order, each shaped (..., n_visible)."""
    order = jet.order
    if g.kind == "subset":
        return [T.mul(jet.coeffs[p][..., g.indices], float(factorial(p)))
                for p in range(1, order + 1)]

    # modulus: compose |psi| = sqrt(re^2 + im^2) through the jet
    re = JetVar([jet.coeffs[p][..., 0] for p in range(jet.order + 1)])
    im = JetVar([jet.coeffs[p][..., 1] for p in range(jet.order + 1)])
    m0 = np.sqrt(re.coeffs[0].data ** 2 + im.coeffs[0].data ** 2)
    if m0.min() <= MODULUS_FLOOR:
        raise ValueError(
            f"modulus jet undefined: min |psi| = {m0.min():.3e} <= {MODULUS_FLOOR}")
    mod = jet_sqrt(re * re + im * im)
    out = []
    for p in range(1, order + 1):
        d = T.mul(T.as_tensor(mod.coeffs[p]), float(factorial(p)))
        out.append(T.reshape(d, d.shape + (1,)))
    return out
