"""Sparse symbolic models: term libraries, coefficients, thresholding,
preconditioning scales, and reporting in physical units.

A model represents dx/dt = sum_i theta_i f_i(x) where the f_i are predefined
terms (monomials, periodic spatial-derivative stencils, or phase-symmetric
complex wave terms) and theta is learned. Time is measured in model units of
s_t * dt and stencils use an effective spacing of s_x * dx, so that learned
coefficients come out order one; `physical_coefficients` undoes both scales
and the unit-variance data normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import fd, jets
from . import tensor as T

SUBSCRIPTS = {0: "x", 1: "y"}


def _apply_stencil(value, order, axis, spacing):
    spec = fd.StencilSpec(order=order, axis=axis, spacing=spacing)
    if hasattr(value, "apply_linear"):  # jet polynomial
        return value.apply_linear(lambda c: fd.spatial_stencil(c, spec))
    return fd.spatial_stencil(value, spec)


@dataclass(frozen=True)
class Monomial:
    """Product of state components, e.g. exponents (1,0,1) -> u*w."""

    exponents: tuple

    @property
    def name(self):
        if not any(self.exponents):
            return "1"
        parts = []
        for j, e in enumerate(self.exponents):
            sym = component_symbol(j, len(self.exponents))
            if e == 1:
                parts.append(sym)
            elif e > 1:
                parts.append(f"{sym}^{e}")
        return "*".join(parts)

    @property
    def spatial_order(self):
        return 0

    def evaluate(self, comps, geom):
        out = None
        for j, e in enumerate(self.exponents):
            if e == 0:
                continue
            factor = comps[j] ** e
            out = factor if out is None else out * factor
        return 1.0 if out is None else out


@dataclass(frozen=True)
class SpatialDerivative:
    """Central-stencil derivative of one component, multi-index per spatial
    axis, e.g. orders (1,1) -> d^2/dxdy."""

    component: int
    orders: tuple

    @property
    def name(self):
        sub = "".join(SUBSCRIPTS[a] * o for a, o in enumerate(self.orders))
        return f"d{sub}({component_symbol(self.component, None)})"

    @property
    def spatial_order(self):
        return sum(self.orders)

    def evaluate(self, comps, geom):
        out = comps[self.component]
        for a, o in enumerate(self.orders):
            if o:
                out = _apply_stencil(out, o, geom.axes[a], geom.spacing[a])
        return out


@dataclass(frozen=True)
class WaveDerivative:
    """d^p/dx^p of a complex field stored as (re, im) channels."""

    order: int

    @property
    def name(self):
        return f"dx^{self.order}(psi)" if self.order > 1 else "dx(psi)"

    @property
    def spatial_order(self):
        return self.order

    def evaluate(self, comps, geom):
        re, im = comps
        return (_apply_stencil(re, self.order, geom.axes[0], geom.spacing[0]),
                _apply_stencil(im, self.order, geom.axes[0], geom.spacing[0]))


@dataclass(frozen=True)
class WaveNonlinearity:
    """|psi|^q psi for even q; the only phase-symmetric odd monomials."""

    q: int

    def __post_init__(self):
        if self.q % 2:
            raise ValueError("only even powers keep the global phase symmetry")

    @property
    def name(self):
        return f"|psi|^{self.q}*psi"

    @property
    def spatial_order(self):
        return 0

    def evaluate(self, comps, geom):
        re, im = comps
        mag = (re * re + im * im) ** (self.q // 2)
        return (mag * re, mag * im)


def component_symbol(j, ncomp):
    return "uvw"[j] if j < 3 else f"x{j}"


@dataclass(frozen=True)
class Geometry:
    axes: tuple = ()      # spatial axes within one component field
    spacing: tuple = ()   # effective stencil spacing per axis (s_x * dx)


@dataclass
class SymbolicModel:
    """Linear-in-coefficients model of the governing equations.

    kind "real": theta[j, i] couples term i into equation d x_j/dt.
    kind "complex": a single complex equation d psi/dt = i * sum theta_i f_i
    with real theta (purely imaginary coefficients; follows from the global
    phase symmetry of the wave presets).
    """

    terms: list
    theta: np.ndarray
    mask: np.ndarray
    s_t: float = 1.0
    s_x: float = 1.0
    state_dim: int = 0
    kind: str = "real"
    spatial_axes: tuple = ()
    grid_spacing: tuple = ()
    theta_t: T.Tensor = field(default=None, repr=False)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.theta.shape != self.mask.shape:
            raise ValueError("theta and mask shapes differ")
        self.theta[~self.mask] = 0.0
        if self.theta_t is None:
            self.theta_t = T.Tensor(self.theta.copy(), requires_grad=True)

    # -- geometry -----------------------------------------------------------
    def geometry(self):
        return Geometry(axes=tuple(self.spatial_axes),
                        spacing=tuple(self.s_x * d for d in self.grid_spacing))

    # -- evaluation ---------------------------------------------------------
    def sync(self):
        """Push the master numpy coefficients into the tape leaf."""
        self.theta_t.data = self.theta.copy()

    def masked_theta(self):
        return T.mul(self.theta_t, self.mask.astype(float))

    def evaluate_components(self, comps):
        """Right-hand side per state channel; comps entries may be Tensors,
        ndarrays, or jet polynomials. The active terms are contracted with
        the masked coefficients in one `T.lincomb` per jet coefficient, so
        masked (equation, term) pairs contribute exact zeros."""
        geom = self.geometry()
        # masked-out terms contribute exactly zero with zero gradient; skip
        active = np.flatnonzero(self.mask if self.kind == "complex"
                                else self.mask.any(axis=0))
        if not active.size:
            return [0.0] * (2 if self.kind == "complex" else len(self.theta))
        values = [self.terms[i].evaluate(comps, geom) for i in active]
        th = T.getitem(self.masked_theta(), (Ellipsis, active))
        if self.kind == "complex":
            # d psi/dt = i sum_i theta_i f_i: re += -theta f_im, im += theta f_re
            th = T.reshape(th, (1, active.size))
            return (_contract([v[1] for v in values], T.neg(th))
                    + _contract([v[0] for v in values], th))
        return _contract(values, th)

    def evaluate(self, state):
        """sum_i theta_i f_i(state) as a Tensor shaped like `state`: the
        first Taylor coefficient of the trajectory through `state`."""
        return jets.propagate(state, self, 1).coeffs[1]

    # -- sparsification -----------------------------------------------------
    def sparsify(self, threshold):
        """Zero and permanently mask coefficients with |theta| < threshold.
        Returns the number newly zeroed."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        small = (np.abs(self.theta) < threshold) & self.mask
        self.mask &= ~small
        self.theta[~self.mask] = 0.0
        self.sync()
        return int(small.sum())

    def active_terms(self):
        return int(self.mask.sum())

    # -- serialization ------------------------------------------------------
    def to_json(self):
        doc = {
            "terms": [t.name for t in self.terms],
            "term_spec": [_term_spec(t) for t in self.terms],
            "theta": self.theta.tolist(),
            "mask": self.mask.astype(int).tolist(),
            "scales": {"s_t": self.s_t, "s_x": self.s_x},
            "state_dim": self.state_dim,
            "kind": self.kind,
            "spatial_axes": list(self.spatial_axes),
            "grid_spacing": list(self.grid_spacing),
        }
        return json.dumps(doc, indent=1, sort_keys=False)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        terms = [_term_from_spec(s) for s in doc["term_spec"]]
        theta = np.array(doc["theta"], dtype=float)
        if not np.isfinite(theta).all():
            raise ValueError("theta holds non-finite values")
        return cls(terms=terms, theta=theta,
                   mask=np.array(doc["mask"], dtype=bool),
                   s_t=doc["scales"]["s_t"], s_x=doc["scales"]["s_x"],
                   state_dim=doc["state_dim"], kind=doc["kind"],
                   spatial_axes=tuple(doc["spatial_axes"]),
                   grid_spacing=tuple(doc["grid_spacing"]))


def _contract(values, coef):
    """Per equation j, sum_i coef[j, i] * values[i]: Tensors, or jets built
    from one `T.lincomb` per Taylor coefficient (floats are constants)."""
    lens = [len(v.coeffs) for v in values if isinstance(v, jets.JetVar)]
    cols = [T.lincomb([v.coeffs[p] if isinstance(v, jets.JetVar) else
                       v if p == 0 else 0.0 for v in values], coef)
            for p in range(min(lens, default=1))]
    rows = [[c[..., j] for c in cols] for j in range(coef.shape[0])]
    return [jets.JetVar(r) if lens else r[0] for r in rows]


def _term_spec(t):
    if isinstance(t, Monomial):
        return ["mono", list(t.exponents)]
    if isinstance(t, SpatialDerivative):
        return ["deriv", t.component, list(t.orders)]
    if isinstance(t, WaveDerivative):
        return ["wave_deriv", t.order]
    if isinstance(t, WaveNonlinearity):
        return ["wave_nonlin", t.q]
    raise TypeError(f"unknown term {t!r}")


def _term_from_spec(s):
    kind = s[0]
    if kind == "mono":
        return Monomial(tuple(s[1]))
    if kind == "deriv":
        return SpatialDerivative(s[1], tuple(s[2]))
    if kind == "wave_deriv":
        return WaveDerivative(s[1])
    if kind == "wave_nonlin":
        return WaveNonlinearity(s[1])
    raise ValueError(f"unknown term spec {s!r}")


# ---------------------------------------------------------------------------
# preset libraries
# ---------------------------------------------------------------------------

def monomial_terms(ncomp, max_degree=2):
    """Constant, linear, and quadratic monomials over ncomp components."""
    terms = [Monomial((0,) * ncomp)]
    for deg in range(1, max_degree + 1):
        for combo in combinations_with_replacement(range(ncomp), deg):
            e = [0] * ncomp
            for j in combo:
                e[j] += 1
            terms.append(Monomial(tuple(e)))
    return terms


def ode_library(s_t=10.0):
    """3-component monomial library: 1, u, v, w, u^2, v^2, w^2, uv, uw, vw."""
    terms = monomial_terms(3)
    n = len(terms)
    return SymbolicModel(terms=terms, theta=np.zeros((3, n)),
                         mask=np.ones((3, n), dtype=bool),
                         s_t=s_t, state_dim=3)


def pde_library(dx=1.0, dy=1.0, s_t=10.0, s_x=np.sqrt(10.0)):
    """2-component reaction-diffusion library: monomials up to degree 2 plus
    first/second spatial derivatives of each component."""
    terms = monomial_terms(2)
    for comp in range(2):
        for orders in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
            terms.append(SpatialDerivative(comp, orders))
    n = len(terms)
    return SymbolicModel(terms=terms, theta=np.zeros((2, n)),
                         mask=np.ones((2, n), dtype=bool),
                         s_t=s_t, s_x=s_x, state_dim=2,
                         spatial_axes=(-2, -1), grid_spacing=(dx, dy))


def nlse_library(dx, s_t=10.0):
    """Complex wave library: dx^p(psi) for p in 1..4 and |psi|^q psi for
    q in {2,4,6,8}; coefficients are purely imaginary multiples."""
    terms = [WaveDerivative(p) for p in range(1, 5)]
    terms += [WaveNonlinearity(q) for q in (2, 4, 6, 8)]
    n = len(terms)
    return SymbolicModel(terms=terms, theta=np.zeros(n),
                         mask=np.ones(n, dtype=bool),
                         s_t=s_t, state_dim=2, kind="complex",
                         spatial_axes=(-1,), grid_spacing=(dx,))


# ---------------------------------------------------------------------------
# coefficient tables and unit conversion
# ---------------------------------------------------------------------------

def _basis_key(term):
    if isinstance(term, Monomial):
        return ("mono", term.exponents)
    if isinstance(term, SpatialDerivative):
        return ("deriv", term.component, term.orders)
    if isinstance(term, WaveDerivative):
        return ("wave_deriv", term.order)
    if isinstance(term, WaveNonlinearity):
        return ("wave_nonlin", term.q)
    raise TypeError(f"unknown term {term!r}")


def basis_name(key, ncomp):
    if key[0] == "mono":
        return Monomial(key[1]).name
    if key[0] == "deriv":
        return SpatialDerivative(key[1], key[2]).name
    if key[0] == "wave_deriv":
        return WaveDerivative(key[1]).name
    return WaveNonlinearity(key[1]).name


def _expand_affine_monomial(expos, alpha, gamma):
    """Expand prod_k (alpha_k X_k + gamma_k)^e_k into {exponents: coeff}."""
    table = {tuple([0] * len(expos)): 1.0}
    for k, e in enumerate(expos):
        for _ in range(e):
            new = {}
            for key, c in table.items():
                # multiply by (alpha_k X_k + gamma_k)
                up = list(key)
                up[k] += 1
                new[tuple(up)] = new.get(tuple(up), 0.0) + c * alpha[k]
                if gamma[k] != 0.0:
                    new[key] = new.get(key, 0.0) + c * gamma[k]
            table = new
    return table


def affine_substitute(table, alpha, gamma, row_scale):
    """Rewrite a coefficient table {eq: {basis_key: coeff}} under the change
    of variables X_old_k = alpha_k * X_new_k + gamma_k, scaling each
    equation row by row_scale[eq] (the Jacobian of the substituted variable).
    """
    out = {}
    for eq, row in table.items():
        new_row = {}
        for key, c in row.items():
            c = c * row_scale[eq]
            if key[0] == "mono":
                for expos, w in _expand_affine_monomial(
                        key[1], alpha, gamma).items():
                    k2 = ("mono", expos)
                    new_row[k2] = new_row.get(k2, 0.0) + c * w
            elif key[0] == "deriv":
                k2 = key
                new_row[k2] = new_row.get(k2, 0.0) + c * alpha[key[1]]
            else:
                raise ValueError(
                    f"affine substitution undefined for term {key!r}")
        out[eq] = new_row
    return out


def model_table(model):
    """Raw learned coefficients as {equation index: {basis_key: theta}}."""
    if model.kind == "complex":
        return {0: {_basis_key(t): float(model.theta[i])
                    for i, t in enumerate(model.terms) if model.mask[i]}}
    return {j: {_basis_key(t): float(model.theta[j, i])
                for i, t in enumerate(model.terms) if model.mask[j, i]}
            for j in range(model.theta.shape[0])}


def physical_coefficients(model, norm):
    """Learned equations converted to the original data units.

    `norm` is a NormalizationRecord-like object with per-component `mean` and
    `std` arrays (hidden channels use mean 0, std 1) and grid metadata `dt`.
    Undoes the model-time scale s_t*dt, the effective stencil spacing s_x*dx,
    and the unit-variance state normalization.
    """
    if norm is None:
        raise ValueError("physical_coefficients requires a normalization record")
    dt = norm.dt
    table = model_table(model)
    # model time + stencil spacing: theta / (s_t*dt) / s_x^order
    scaled = {}
    for eq, row in table.items():
        scaled[eq] = {}
        for key, c in row.items():
            order = (sum(key[2]) if key[0] == "deriv"
                     else key[1] if key[0] == "wave_deriv" else 0)
            scaled[eq][key] = c / (model.s_t * dt) / model.s_x ** order
    if model.kind == "complex":
        # psi was divided by std; |psi|^q psi picks up std^q
        std = float(np.asarray(norm.std)[0])
        out = {}
        for key, c in scaled[0].items():
            out[key] = c / std ** key[1] if key[0] == "wave_nonlin" else c
        return {0: out}
    mean = np.asarray(norm.mean, dtype=float)
    std = np.asarray(norm.std, dtype=float)
    return affine_substitute(scaled, alpha=1.0 / std, gamma=-mean / std,
                             row_scale={j: std[j] for j in scaled})
