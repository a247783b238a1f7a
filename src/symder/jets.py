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
    """Truncated polynomial of degree `order` in the expansion variable;
    coefficients are Tensors. It carries a term's value and, from
    `propagate`, the trajectory itself.

    A jet that an operation makes is lazy: `coef(p)` builds its coefficient
    p from the operands' on first use and keeps it. So a term built on the
    jets of orders 0..p gives its coefficient p without rebuilding the
    lower ones; `coeffs` builds them all."""

    __slots__ = ("order", "_coef", "_make")

    def __init__(self, coeffs=(), order=None, make=None):
        self._coef = dict(enumerate(coeffs))
        self.order = len(self._coef) - 1 if make is None else order
        self._make = make

    @property
    def coeffs(self):
        return [self.coef(p) for p in range(self.order + 1)]

    def coef(self, p):
        if p not in self._coef:
            self._coef[p] = self._make(p)
        return self._coef[p]

    def apply_linear(self, fn):
        return JetVar(order=self.order, make=lambda p: fn(self.coef(p)))

    def __add__(self, other):
        return JetVar(order=min(self.order, other.order),
                      make=lambda p: self.coef(p) + other.coef(p))

    def __mul__(self, other):
        def make(p):
            acc = None
            for j in range(p + 1):
                term = self.coef(j) * other.coef(p - j)
                acc = term if acc is None else acc + term
            return acc

        return JetVar(order=min(self.order, other.order), make=make)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise TypeError("jet power must be a positive integer")
        out = self
        for _ in range(int(n) - 1):
            out = out * self
        return out


def jet_sqrt(s: JetVar) -> JetVar:
    """Square root of a jet with strictly positive leading coefficient."""
    r0 = T.sqrt(T.as_tensor(s.coef(0)))
    out = [r0]
    inv2r0 = T.div(0.5, r0)
    for p in range(1, s.order + 1):
        acc = T.as_tensor(s.coef(p))
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


def visible_derivatives(jet: JetVar, observed):
    """d^p g(x)/dt^p for p = 1..jet.order, each shaped (..., n_visible), of
    the `observed` channels g (a preset's `visible`): a list of components,
    or the "modulus" of a complex state stored as (re, im)."""
    order = jet.order
    if observed != "modulus":
        return [T.mul(jet.coeffs[p][..., observed], float(factorial(p)))
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
