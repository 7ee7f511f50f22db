"""Parametric 2-D field model: value, parameter gradient, parameter Hessian.

The reference model is a Gaussian bell

    G(x, y; theta) = h * exp(-(x - x_c)^2 / (2 rho_x^2) - (y - y_c)^2 / (2 rho_y^2))

with parameter vector theta = [h, rho_x, rho_y, x_c, y_c]: peak amplitude,
spreads along the two axes, and peak location.  Any object exposing the same
``value`` / ``gradient`` / ``hessian`` methods can stand in for
:class:`GaussianBellModel` throughout the package.  The params passed to them
may carry a leading trial axis: ``FieldParams.from_array`` of a ``(T, 5)``
stack gives params whose five fields are ``(T, 1)`` columns, which broadcast
against ``(T, K)`` points, so one call evaluates T trials' fields at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import simpson_2d

N_PARAMS = 5
PARAM_NAMES = ("h", "rho_x", "rho_y", "x_c", "y_c")
# (row, column) indices of the strict lower triangle of a parameter Hessian
_LOWER = np.tril_indices(N_PARAMS, -1)


@dataclass(frozen=True)
class FieldParams:
    """Field parameter vector; the spreads must be strictly positive.

    The fields are floats, or ``(T, 1)`` columns for a stack of T parameter
    vectors (see ``from_array``); every row's spreads are checked.
    """

    h: float
    rho_x: float
    rho_y: float
    x_c: float
    y_c: float

    def __post_init__(self):
        rx, ry = self.rho_x, self.rho_y
        if isinstance(rx, np.ndarray):  # (T, 1) columns: check every row
            rx = ry = np.minimum(rx, ry).min()
        if not (rx > 0 and ry > 0):
            raise ValueError(
                f"field spreads must be positive, got rho_x={self.rho_x}, rho_y={self.rho_y}"
            )

    def as_array(self):
        return np.array([self.h, self.rho_x, self.rho_y, self.x_c, self.y_c])

    @classmethod
    def from_array(cls, theta):
        """Parameters from a 5-vector, or from a ``(T, 5)`` stack of them as
        ``(T, 1)`` columns."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1:] != (N_PARAMS,) or theta.ndim > 2:
            raise ValueError(f"expected {N_PARAMS} parameters, got shape {theta.shape}")
        if theta.ndim == 2:
            return cls(*theta.T.copy()[:, :, None])
        return cls(*theta.tolist())


@dataclass(frozen=True)
class Area:
    """Axis-aligned rectangular deployment region."""

    x_min: float = 0.0
    x_max: float = 8.0
    y_min: float = 0.0
    y_max: float = 8.0

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("area must have positive extent on both axes")

    @property
    def measure(self):
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


class GaussianBellModel:
    """Closed-form evaluator for the Gaussian-bell field.

    All three evaluators broadcast over point arrays: for inputs of shape
    ``(...)``, ``value`` returns shape ``(...)``, ``gradient`` returns
    ``(..., 5)`` and ``hessian`` returns ``(..., 5, 5)``.  Params with
    ``(T, 1)`` columns broadcast the same way, against ``(T, K)`` points.
    """

    # Optimizers probe this model at extreme iterates (spreads near zero or
    # enormous), so the kernels must saturate instead of raising: scalars are
    # widened to float64 before powers, overflow/underflow is left to IEEE
    # arithmetic, and points where the exponential envelope underflowed to
    # zero are forced to the exact limit 0 (the envelope decays faster than
    # any polynomial factor grows, so every entry vanishes there).

    @staticmethod
    def _reduced(params, x, y):
        """Reduced coordinates u, v and the envelope e; callers hold
        np.errstate(all="ignore")."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        u = (x - params.x_c) / np.float64(params.rho_x)
        v = (y - params.y_c) / np.float64(params.rho_y)
        return u, v, np.exp(-0.5 * (u * u + v * v))

    def value(self, params, x, y):
        with np.errstate(all="ignore"):
            _, _, e = self._reduced(params, x, y)
            return params.h * e

    def gradient(self, params, x, y):
        with np.errstate(all="ignore"):
            u, v, e = self._reduced(params, x, y)
            h = np.float64(params.h)
            rx, ry = np.float64(params.rho_x), np.float64(params.rho_y)
            out = np.empty(e.shape + (N_PARAMS,))
            # products are formed left to right, as in h * e * u * u / rx
            he = h * e
            hu, hv = he * u, he * v
            out[..., 0] = e
            out[..., 1] = hu * u / rx
            out[..., 2] = hv * v / ry
            out[..., 3] = hu / rx
            out[..., 4] = hv / ry
        out[e == 0.0] = 0.0
        return out

    def hessian(self, params, x, y):
        with np.errstate(all="ignore"):
            u, v, e = self._reduced(params, x, y)
            h = np.float64(params.h)
            rx, ry = np.float64(params.rho_x), np.float64(params.rho_y)
            out = np.empty(e.shape + (N_PARAMS, N_PARAMS))
            u2, v2 = u * u, v * v
            rx2, ry2, rxy = rx * rx, ry * ry, rx * ry
            # products are formed left to right, as in h * e * u2 * v2 / rxy
            he = h * e
            hu, hu2 = he * u, he * u2
            out[..., 0, 0] = 0.0
            out[..., 0, 1] = e * u2 / rx
            out[..., 0, 2] = e * v2 / ry
            out[..., 0, 3] = e * u / rx
            out[..., 0, 4] = e * v / ry
            out[..., 1, 1] = he * (u2 * u2 - 3.0 * u2) / rx2
            out[..., 1, 2] = hu2 * v2 / rxy
            out[..., 1, 3] = he * (u2 * u - 2.0 * u) / rx2
            out[..., 1, 4] = hu2 * v / rxy
            out[..., 2, 2] = he * (v2 * v2 - 3.0 * v2) / ry2
            out[..., 2, 3] = hu * v2 / rxy
            out[..., 2, 4] = he * (v2 * v - 2.0 * v) / ry2
            out[..., 3, 3] = he * (u2 - 1.0) / rx2
            out[..., 3, 4] = hu * v / rxy
            out[..., 4, 4] = he * (v2 - 1.0) / ry2
        out[e == 0.0] = 0.0
        out[..., _LOWER[0], _LOWER[1]] = out[..., _LOWER[1], _LOWER[0]]
        return out


GAUSSIAN_BELL = GaussianBellModel()


def field_squared_integral(params, area, grid=201, model=GAUSSIAN_BELL):
    """Integral of G(x, y; theta)^2 over the area by 2-D composite Simpson.

    grid is the node count per axis; it must be odd and >= 11.
    """
    grid = int(grid)
    if grid < 11 or grid % 2 == 0:
        raise ValueError(f"grid must be an odd node count >= 11, got {grid}")

    def g2(x, y):
        g = model.value(params, x, y)
        return g * g

    return simpson_2d(g2, area.x_min, area.x_max, area.y_min, area.y_max, grid)
