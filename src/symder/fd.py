"""Finite-difference estimators.

Central differences in time (loss targets), of accuracy order 2 or 4, and
periodic central stencils of accuracy order 2 in space (used by the PDE term
libraries). Time derivatives drop boundary samples rather than falling back
to one-sided estimates; the valid index range is returned alongside the
values.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T

# central stencil weights for derivative order p, accuracy order 2
CENTRAL_STENCILS = {
    1: np.array([-0.5, 0.0, 0.5]),
    2: np.array([1.0, -2.0, 1.0]),
    3: np.array([-0.5, 1.0, 0.0, -1.0, 0.5]),
    4: np.array([1.0, -4.0, 6.0, -4.0, 1.0]),
}
# accuracy order 4; the staged ODE pipeline matches derivatives with these so
# that the truncation floor sits well below coefficient-level loss gaps
CENTRAL_STENCILS_4 = {
    1: np.array([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]),
    2: np.array([-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12]),
}
_BY_ACCURACY = {2: CENTRAL_STENCILS, 4: CENTRAL_STENCILS_4}


def stencil_weights(p, spacing, accuracy=2):
    if accuracy not in _BY_ACCURACY:
        raise ValueError(f"no central stencils of accuracy order {accuracy}")
    if p not in _BY_ACCURACY[accuracy]:
        raise ValueError(f"unsupported derivative order {p}")
    return _BY_ACCURACY[accuracy][p] / spacing ** p


def apply_stencil(series, w):
    """sum_k w[k] * series[k:k + n_out] along axis 0, where n_out is the
    length less the stencil's; works on ndarray or Tensor."""
    out = T.stencil(series, w, 0, periodic=False)
    return out if isinstance(series, T.Tensor) else out.data


def time_derivative(series, p, dt, accuracy=2):
    """Central p-th time derivative along axis 0, of an ndarray or a Tensor,
    with the stencil of the given accuracy order.

    Returns (deriv, valid) where `deriv` has the same leading extent as
    `series` with boundary samples excluded, and `valid` is the slice of
    input indices the estimates correspond to.
    """
    w = stencil_weights(p, dt, accuracy)
    half = len(w) // 2
    out = apply_stencil(series, w)
    return out, slice(half, half + out.shape[0])


def spatial_stencil(field, order, axis, spacing):
    """Periodic central `order`-th derivative along `axis` at the given grid
    spacing, with the accuracy-2 stencil; works on ndarray or Tensor."""
    out = T.stencil(field, stencil_weights(order, spacing), axis,
                    periodic=True)
    return out if isinstance(field, T.Tensor) else out.data
