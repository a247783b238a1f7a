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

from math import factorial

import numpy as np

from . import tensor as T

MODULUS_FLOOR = 1e-8  # |psi| below this makes d|psi|/dt ill-conditioned


class JetVar:
    """Truncated polynomial in the expansion variable; coefficients are
    Tensors (or scalars, which broadcast). It carries a term's value and,
    from `propagate`, the trajectory itself."""

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

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise TypeError("jet power must be a non-negative integer")
        if n == 0:
            return JetVar([1.0] + [0.0] * self.order)
        out = self
        for _ in range(int(n) - 1):
            out = out * self
        return out


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


def propagate(state, model, order):
    """Expand the trajectory of dx/dt = model(x) through `state` to the given
    order: a JetVar whose coefficients c_p = (1/p!) d^p x/dt^p are each
    shaped like the state. `state` has components along the trailing axis;
    all leading axes are batch/grid axes evaluated simultaneously."""
    if order < 1:
        raise ValueError(f"jet order must be >= 1, got {order}")
    state = T.as_tensor(state)
    ncomp = state.shape[-1]
    if ncomp != model.state_dim:
        raise ValueError(
            f"state has {ncomp} components, model expects {model.state_dim}")

    # coefficient p + 1 is F's coefficient p over p + 1, computed from the
    # per-component jets of coefficients 0..p
    coeffs = [state]
    comps = [JetVar([state[..., j]]) for j in range(ncomp)]
    for p in range(order):
        c = model.evaluate_components(comps, p)
        if p:
            c = T.mul(c, 1.0 / (p + 1))
        if c.shape != state.shape:   # a model that is constant in x
            c = T.mul(c, np.ones(state.shape))
        coeffs.append(c)
        if p + 1 < order:
            comps = [JetVar(cj.coeffs + [c[..., j]])
                     for j, cj in enumerate(comps)]
    return JetVar(coeffs)


class Projection:
    """Registered visible-state projections: a coordinate subset, or the
    modulus of a complex state stored as (re, im) channels."""

    def __init__(self, kind, indices=None):
        if kind not in ("subset", "modulus"):
            raise ValueError(f"unknown projection kind {kind!r}")
        self.kind = kind
        self.indices = list(indices) if indices is not None else None


def visible_derivatives(jet: JetVar, g: Projection):
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
