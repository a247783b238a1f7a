"""Sparse symbolic models: term libraries, coefficients, thresholding,
preconditioning scales, and reporting in physical units.

A model represents dx/dt = sum_i theta_i f_i(x) where the f_i are predefined
terms (monomials, periodic spatial-derivative stencils, or phase-symmetric
complex wave terms) and theta is learned. Time is measured in model units of
s_t * dt and stencils use an effective spacing of s_x * dx, so that learned
coefficients come out order one. Every term has a `key`, which names it in
coefficient tables {equation: {key: coefficient}} and in model.json;
`change_variables` rewrites such a table for an affine change of the state
and a rescaling of time and space, which is how the recovery gauge, the unit
conversion of `physical_coefficients` and evaluation move between variables.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import fd, jets
from . import tensor as T

SUBSCRIPTS = {0: "x", 1: "y"}


def _apply_stencil(value, order, axis, spacing):
    if hasattr(value, "apply_linear"):  # jet polynomial
        return value.apply_linear(
            lambda c: fd.spatial_stencil(c, order, axis, spacing))
    return fd.spatial_stencil(value, order, axis, spacing)


class Term:
    """A library term. Its `key`, the class's KIND followed by its fields,
    names it in coefficient tables and model.json; `term_from_key` inverts
    it. `substitute(A, g)` expands the term of x_old = A x_new + g in terms
    of x_new as {key: weight}."""

    @property
    def key(self):
        return (self.KIND,) + astuple(self)


@dataclass(frozen=True)
class Monomial(Term):
    """Product of state components, e.g. exponents (1,0,1) -> u*w."""

    KIND = "mono"
    exponents: tuple

    @property
    def name(self):
        if not any(self.exponents):
            return "1"
        parts = []
        for j, e in enumerate(self.exponents):
            sym = component_symbol(j)
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

    def substitute(self, A, g):
        """prod_k (A[k] . x + g_k)^e_k expanded into monomials of x."""
        n = len(self.exponents)
        unit = [tuple(int(j == m) for j in range(n)) for m in range(n)]
        out = {(0,) * n: 1.0}
        for k, e in enumerate(self.exponents):
            factor = [(unit[m], A[k, m]) for m in range(n) if A[k, m]]
            if g[k]:
                factor.append(((0,) * n, g[k]))
            for _ in range(e):
                new = {}
                for expo, c in out.items():
                    for step, w in factor:
                        up = tuple(a + b for a, b in zip(expo, step))
                        new[up] = new.get(up, 0.0) + c * w
                out = new
        return {Monomial(expo).key: c for expo, c in out.items()}


@dataclass(frozen=True)
class SpatialDerivative(Term):
    """Central-stencil derivative of one component, multi-index per spatial
    axis, e.g. orders (1,1) -> d^2/dxdy."""

    KIND = "deriv"
    component: int
    orders: tuple

    @property
    def name(self):
        sub = "".join(SUBSCRIPTS[a] * o for a, o in enumerate(self.orders))
        return f"d{sub}({component_symbol(self.component)})"

    @property
    def spatial_order(self):
        return sum(self.orders)

    def evaluate(self, comps, geom):
        out = comps[self.component]
        for a, o in enumerate(self.orders):
            if o:
                out = _apply_stencil(out, o, geom.axes[a], geom.spacing[a])
        return out

    def substitute(self, A, g):
        """The derivative is linear: it mixes through row `component` of A."""
        return {SpatialDerivative(m, self.orders).key: A[self.component, m]
                for m in range(len(A)) if A[self.component, m]}


def _field_scale(A, g):
    """The factor a of psi_old = a psi_new, the one change wave terms allow."""
    if A.shape != (1, 1) or g.any():
        raise ValueError("wave terms allow only a rescaling of the field psi")
    return A[0, 0]


@dataclass(frozen=True)
class WaveDerivative(Term):
    """d^p/dx^p of a complex field stored as (re, im) channels."""

    KIND = "wave_deriv"
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

    def substitute(self, A, g):
        return {self.key: _field_scale(A, g)}


@dataclass(frozen=True)
class WaveNonlinearity(Term):
    """|psi|^q psi for even q; the only phase-symmetric odd monomials."""

    KIND = "wave_nonlin"
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

    def substitute(self, A, g):
        return {self.key: _field_scale(A, g) ** (self.q + 1)}


TERM_KINDS = {cls.KIND: cls for cls in (Monomial, SpatialDerivative,
                                        WaveDerivative, WaveNonlinearity)}


def term_from_key(key):
    """The term a table key, or its JSON list form in model.json, names."""
    kind, *fields = key
    if kind not in TERM_KINDS:
        raise ValueError(f"unknown term {key!r}")
    return TERM_KINDS[kind](*(tuple(f) if isinstance(f, list) else f
                              for f in fields))


def component_symbol(j):
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

    theta is copied once and is then also the data of the tape leaf
    `theta_t`, which the optimizer updates in place. Its shape must fit the
    terms and, for the real kind, state_dim.
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

    def __post_init__(self):
        self.theta = np.array(self.theta, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        shape = ((len(self.terms),) if self.kind == "complex"
                 else (self.state_dim, len(self.terms)))
        if self.theta.shape != shape:
            raise ValueError(
                f"theta has shape {self.theta.shape}, not {shape}")
        if self.mask.shape != shape:
            raise ValueError("theta and mask shapes differ")
        self.theta[~self.mask] = 0.0
        self.theta_t = T.Tensor(self.theta, requires_grad=True)

    # -- geometry -----------------------------------------------------------
    def geometry(self):
        return Geometry(axes=tuple(self.spatial_axes),
                        spacing=tuple(self.s_x * d for d in self.grid_spacing))

    # -- evaluation ---------------------------------------------------------
    def masked_theta(self):
        return T.mul(self.theta_t, self.mask.astype(float))

    def evaluate_components(self, comps, p):
        """Taylor coefficient `p` of the right-hand side as one tensor with
        the state's channels, (re, im) for the complex kind, along its
        trailing axis. comps entries may be Tensors or ndarrays (p = 0) or
        jet polynomials with coefficients up to p. The active terms are
        contracted with the masked coefficients in one `T.lincomb`, so
        masked (equation, term) pairs contribute exact zeros."""
        geom = self.geometry()
        # masked-out terms contribute exactly zero with zero gradient; skip
        active = np.flatnonzero(self.mask if self.kind == "complex"
                                else self.mask.any(axis=0))
        if not active.size:
            return T.Tensor(np.zeros(2 if self.kind == "complex"
                                     else len(self.theta)))
        values = [self.terms[i].evaluate(comps, geom) for i in active]
        if self.kind == "complex":
            # d psi/dt = i sum_i theta_i f_i: re = -sum_i theta_i f_im,i
            # and im = sum_i theta_i f_re,i, over the stacked (f_re, f_im)
            n = active.size
            th = T.getitem(self.masked_theta(), np.concatenate([active,
                                                                active]))
            rot = np.zeros((2, 2 * n))
            rot[0, n:], rot[1, :n] = -1.0, 1.0
            return T.lincomb([_coefficient(v[k], p) for k in (0, 1)
                              for v in values], T.mul(th, rot))
        th = T.getitem(self.masked_theta(), (Ellipsis, active))
        return T.lincomb([_coefficient(v, p) for v in values], th)

    # -- sparsification -----------------------------------------------------
    def sparsify(self, threshold):
        """Zero and permanently mask coefficients with |theta| < threshold.
        Returns the number newly zeroed."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        small = (np.abs(self.theta) < threshold) & self.mask
        self.mask &= ~small
        self.theta[~self.mask] = 0.0
        return int(small.sum())

    def active_terms(self):
        return int(self.mask.sum())

    # -- serialization ------------------------------------------------------
    def to_json(self):
        doc = {
            "terms": [t.name for t in self.terms],
            "term_spec": [t.key for t in self.terms],
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
        terms = [term_from_key(s) for s in doc["term_spec"]]
        theta = np.array(doc["theta"], dtype=float)
        if not np.isfinite(theta).all():
            raise ValueError("theta holds non-finite values")
        return cls(terms=terms, theta=theta,
                   mask=np.array(doc["mask"], dtype=bool),
                   s_t=doc["scales"]["s_t"], s_x=doc["scales"]["s_x"],
                   state_dim=doc["state_dim"], kind=doc["kind"],
                   spatial_axes=tuple(doc["spatial_axes"]),
                   grid_spacing=tuple(doc["grid_spacing"]))


def _coefficient(value, p):
    """Taylor coefficient p of a term's value: a jet's, or for a Tensor or
    a float, which are constant in time, the value itself at p = 0."""
    if isinstance(value, jets.JetVar):
        return value.coeffs[p]
    return value if p == 0 else 0.0


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

def model_table(model):
    """Raw learned coefficients as {equation index: {term key: theta}}."""
    rows = model.theta.reshape(-1, len(model.terms))
    mask = model.mask.reshape(rows.shape)
    return {j: {t.key: float(rows[j, i])
                for i, t in enumerate(model.terms) if mask[j, i]}
            for j in range(rows.shape[0])}


def model_theta(model, table):
    """The theta array of `model` that holds `table`, the inverse of
    `model_table`. Masked entries are zero; a key outside the library
    raises ValueError."""
    index = {t.key: i for i, t in enumerate(model.terms)}
    theta = np.zeros_like(model.theta)
    rows = theta.reshape(-1, len(model.terms))
    for eq, row in table.items():
        for key, c in row.items():
            if key not in index:
                raise ValueError(f"{term_from_key(key).name} is not a term "
                                 "of the library")
            rows[eq, index[key]] = c
    theta[~model.mask] = 0.0
    return theta


def _lower_inverse(A):
    """A^-1 by forward substitution, so that rows of A that mix in nothing
    come out exact."""
    if np.triu(A, 1).any() or not np.diag(A).all():
        raise ValueError("the change of variables needs an invertible lower "
                         "triangular A")
    inv = np.eye(len(A))
    for i in range(len(A)):
        inv[i] = (inv[i] - A[i, :i] @ inv[:i]) / A[i, i]
    return inv


def change_variables(table, A, g, time=1.0, space=1.0):
    """Rewrite a coefficient table {eq: {key: c}} of dx/dt = F(x) for the
    new variables of x_old = A x_new + g, t_old = time * t_new and spatial
    coordinates y_old = space * y_new.

    Each term is expanded in x_new (`Term.substitute`) and scaled by
    time / space**spatial_order, and the equations then mix through the
    Jacobian A^-1. A is lower triangular: each variable mixes in only the
    ones before it, as in the unit conversions (diagonal) and the hidden
    channel's gauge (last row). Returns a row for every equation of A;
    equations the table lacks count as zero.
    """
    A = np.asarray(A, dtype=float)
    g = np.asarray(g, dtype=float)
    jac = _lower_inverse(A)
    expanded = {}
    for j, row in table.items():
        new = expanded[j] = {}
        for key, c in row.items():
            term = term_from_key(key)
            c = c * time / space ** term.spatial_order
            for k, w in term.substitute(A, g).items():
                new[k] = new.get(k, 0.0) + c * w
    out = {}
    for i in range(len(A)):
        new = out[i] = {}
        for j, row in expanded.items():
            if jac[i, j]:
                for k, c in row.items():
                    new[k] = new.get(k, 0.0) + jac[i, j] * c
    return out


def inverse_change(A, g, time, space):
    """Arguments of `change_variables` that undo the given ones."""
    jac = _lower_inverse(np.asarray(A, dtype=float))
    return jac, -(jac @ np.asarray(g, dtype=float)), 1.0 / time, 1.0 / space


def unit_change(model, norm):
    """Arguments of `change_variables` from the model's variables to the
    data's units. The model sees the state normalized as (x - mean) / std,
    measures time in units of s_t * dt and applies its stencils at a
    spacing of s_x * dx. `norm` is a NormalizationRecord-like object with
    per-component `mean` and `std` and the time step `dt`."""
    mean = np.asarray(norm.mean, dtype=float)
    std = np.asarray(norm.std, dtype=float)
    return (np.diag(1.0 / std), -mean / std, 1.0 / (model.s_t * norm.dt),
            model.s_x)


def physical_coefficients(model, norm):
    """Learned equations converted to the original data units (see
    `unit_change`); hidden channels take their mean and std from `norm`."""
    if norm is None:
        raise ValueError("physical_coefficients requires a normalization record")
    return change_variables(model_table(model), *unit_change(model, norm))
