"""Composite Simpson quadrature on uniform grids and tensor products."""

import numpy as np


def simpson_nodes_weights(lo, hi, n):
    """Nodes and weights of the composite Simpson rule on [lo, hi].

    Parameters
    ----------
    lo, hi : float
        Integration limits, lo < hi.
    n : int
        Number of nodes; must be odd and >= 3 so the interval splits into
        an even number of panels.

    Returns
    -------
    x : (n,) ndarray of nodes
    w : (n,) ndarray of weights, sum(w) = hi - lo
    """
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count >= 3, got {n}")
    if not hi > lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    return _simpson_at(lo, hi, n, np.arange(n))


def _simpson_at(lo, hi, n, i):
    """Nodes and weights of the n-node composite Simpson rule on [lo, hi] at
    the node indices i alone: x_i = i h + lo with the last node set to hi,
    bit for bit what np.linspace(lo, hi, n) holds at i, so a caller can take
    any run of nodes without building all n."""
    h = (hi - lo) / (n - 1)
    x = i * h + lo
    x[i == n - 1] = hi
    w = np.where(i % 2 == 1, 4.0, 2.0)
    w[(i == 0) | (i == n - 1)] = 1.0
    w *= h / 3.0
    return x, w


def simpson_2d(f, x_min, x_max, y_min, y_max, n):
    """Integrate f(x, y) over a rectangle with an n x n Simpson grid.

    f must accept broadcast arrays and return values of the broadcast shape.
    """
    x, wx = simpson_nodes_weights(x_min, x_max, n)
    y, wy = simpson_nodes_weights(y_min, y_max, n)
    vals = f(x[:, None], y[None, :])
    return float(np.einsum("i,j,ij->", wx, wy, vals))
