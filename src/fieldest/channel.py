"""Quantization, bit mapping, and the two forward channels.

Each sensor reading R_k either goes out as-is over one AWGN channel
(amplify-and-forward) or is quantized to one of M = 2^alpha levels whose
index is transmitted as an alpha-bit word over parallel AWGN channels
(quantize-and-forward).  Every channel of the network has the same noise
variance eta2, one float.  Readings and received data are plain arrays:
(K,) readings in, and z of shape (K,) or (K, alpha) out.  Level indices j
are 1-based throughout, matching cell j = [tau_j, tau_{j+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def q_function(x):
    """Standard Gaussian tail probability Q(x) = P[N(0,1) > x].

    SciPy's special functions load at the first call, so the analog channel
    never imports them."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def _positive_finite(a):
    """Whether every entry of a is finite and positive (NaN is neither)."""
    return bool(np.all((a > 0) & (a < np.inf)))


def _channel_variance(eta2):
    """The channel variance eta2, shared by every sensor, as a float; it must
    be one finite, positive number."""
    e = np.asarray(eta2, dtype=float)
    if e.ndim > 0 or not _positive_finite(e):
        raise ValueError(
            "channel variances must be finite and positive, and one number for every sensor"
        )
    return float(e)


def _as_readings(r):
    """The readings r as a (K,) float array."""
    arr = np.asarray(r, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a K-vector of readings, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Quantizer:
    """Scalar quantizer: boundaries (tau_1=-inf < ... < tau_{M+1}=+inf) and
    finite reproduction points nu_j, one per cell.

    M must be a power of two (M = 2^alpha, alpha >= 1); the degenerate M = 1
    quantizer (a single cell covering the whole line) is also accepted, for
    channel-SNR calibration checks only — it cannot be bit-mapped.
    """

    boundaries: np.ndarray
    reproduction: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        v = np.asarray(self.reproduction, dtype=float)
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "reproduction", v)
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size + 1:
            raise ValueError("need M+1 boundaries for M reproduction points")
        m = v.size
        if m < 1 or (m & (m - 1)) != 0:
            raise ValueError(f"level count must be a power of two (or 1), got {m}")
        if not (np.isneginf(b[0]) and np.isposinf(b[-1])):
            raise ValueError("first/last boundaries must be -inf/+inf")
        if not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("reproduction points must be finite")

    @property
    def m(self):
        return self.reproduction.size


@dataclass(frozen=True)
class BitMapper:
    """Natural binary level-to-bits map: level j -> (j-1) as alpha bits, MSB first."""

    alpha: int

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError(f"need at least one bit, got alpha={self.alpha}")

    @property
    def m(self):
        return 2**self.alpha

    @cached_property
    def codebook(self):
        """(M, alpha) array of bit words; row j-1 encodes level j."""
        j = np.arange(self.m)[:, None]
        shifts = np.arange(self.alpha - 1, -1, -1)[None, :]
        return ((j >> shifts) & 1).astype(float)


def make_uniform_quantizer(m, lo, hi):
    """Uniform quantizer with M cells over [lo, hi].

    Interior boundaries split [lo, hi] into M equal pieces; the two unbounded
    edge cells reuse the same cell width, so every reproduction point is the
    midpoint of a width-(hi-lo)/M cell: nu_j = lo + (j - 1/2)(hi-lo)/M.
    """
    m = int(m)
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError(f"level count must be a power of two >= 2, got {m}")
    if not hi > lo:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    delta = (hi - lo) / m
    interior = lo + delta * np.arange(1, m)
    boundaries = np.concatenate(([-np.inf], interior, [np.inf]))
    reproduction = lo + delta * (np.arange(m) + 0.5)
    return Quantizer(boundaries, reproduction)


def quantize(q, r):
    """Level index j in 1..M of reading(s) r; cells are right-open, so a
    reading equal to an interior boundary belongs to the upper cell."""
    r = np.asarray(r, dtype=float)
    j = 1 + np.searchsorted(q.boundaries[1:-1], r, side="right")
    return int(j) if np.isscalar(r) or r.ndim == 0 else j


def level_probabilities(q, g, sigma):
    """Cell probabilities p_j = P[R in cell j] for R ~ N(g, sigma^2).

    p_j = Q((tau_j - g)/sigma) - Q((tau_{j+1} - g)/sigma).  Each boundary's
    Gaussian tail is evaluated once, on g's own side of it: with
    u = (tau - g)/sigma, Q(|u|) is the right tail Q(u) above g and the left
    tail Q(-u) at or below it.  A cell below g is the difference of its two
    left tails, a cell above g of its two right tails, and the one cell that
    straddles g takes one more right tail, at its lower boundary.  So tiny
    probabilities keep relative accuracy, and the total telescopes to 1
    within 1e-12.

    g may have any shape S (returns S + (M,)); sigma is finite and positive,
    a scalar or an array broadcastable against g.
    """
    g_arr = np.asarray(g, dtype=float)
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), g_arr.shape)
    if not _positive_finite(sig):
        raise ValueError("sigma must be finite and positive")
    # boundary-major (M+1, N) tables, so that each elementwise pass runs
    # along g rather than along a row of a few boundaries
    u = (q.boundaries[:, None] - g_arr.reshape(1, -1)) / sig.reshape(1, -1)
    below = u <= 0.0  # False where u is NaN, which takes the right tail
    tail = q_function(np.abs(u))
    lower, upper = tail[:-1], tail[1:]
    cells = lower - upper
    np.subtract(upper, lower, out=cells, where=below[1:])
    straddle = below[:-1] & ~below[1:]
    cells[straddle] = q_function(u[:-1][straddle]) - upper[straddle]
    p = np.empty((g_arr.size, q.m))
    np.maximum(cells.T, 0.0, out=p)
    return p.reshape(g_arr.shape + (q.m,))


def _p_slope(q, g, sigma):
    """First derivative dp/dg in g of the level probabilities of
    R ~ N(g, sigma^2), for field values g and spreads sigma of one shape S:
    dp/dg (S + (M,)), with the standardized boundaries u = (tau - g)/sigma
    and their density phi(u), each S + (M+1,), that ``_p_slopes`` reuses.
    The probabilities themselves are ``level_probabilities(q, g, sigma)``."""
    u = (q.boundaries - g[..., None]) / sigma[..., None]
    phi = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    return (phi[..., :-1] - phi[..., 1:]) / sigma[..., None], u, phi


def _p_slopes(q, g, sigma):
    """First and second derivatives in g of the level probabilities of
    R ~ N(g, sigma^2): returns (dp/dg, d2p/dg2), each S + (M,)."""
    dp_dg, u, phi = _p_slope(q, g, sigma)
    uphi = np.where(np.isfinite(u), u, 0.0) * phi
    return dp_dg, (uphi[..., :-1] - uphi[..., 1:]) / sigma[..., None] ** 2


def bits_of_level(bm, j):
    """Bit word(s) for level index j (1-based); j may be scalar or array."""
    j = np.asarray(j)
    if np.any(j < 1) or np.any(j > bm.m):
        raise ValueError(f"level index out of range 1..{bm.m}")
    return bm.codebook[j - 1]


def amplify_forward(r, eta2, seed):
    """Analog channel: z_k = R_k + N(0, eta2), returned as a (K,) array."""
    readings = _as_readings(r)
    eta = np.sqrt(_channel_variance(eta2))
    rng = np.random.default_rng(seed)
    return readings + rng.standard_normal(readings.shape) * eta


def quantize_forward(r, q, bm, eta2, seed):
    """Quantized channel: quantize each reading, emit its bit word over
    alpha parallel AWGN channels of variance eta2, the same for every sensor
    and bit; returns the received words z as a (K, alpha) array."""
    if q.m != bm.m:
        raise ValueError(f"quantizer has {q.m} levels but bit mapper expects {bm.m}")
    readings = _as_readings(r)
    eta = np.sqrt(_channel_variance(eta2))
    words = bits_of_level(bm, quantize(q, readings))
    rng = np.random.default_rng(seed)
    return words + rng.standard_normal(words.shape) * eta
