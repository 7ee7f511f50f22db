"""Sensor network deployment, observation sampling, and SNR calibration.

Sensors sit at fixed positions in the area and read R_k = G(x_k, y_k) + W_k
with W_k ~ N(0, sigma2_k).  Noise levels are set from target SNRs: the
observation SNR fixes sigma2 against the field's mean squared value over the
area, and the channel SNR fixes eta2 against the mean transmitted power
(analog readings, or quantizer reproduction values for the bit channel).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import _positive_finite, level_probabilities
from .field import Area, field_squared_integral
from ._quadrature import simpson_2d


@dataclass(frozen=True, eq=False)
class SensorNetwork:
    """Sensor positions within an area, plus per-sensor observation-noise
    variances once calibrated (sigma2 is None until then)."""

    positions: np.ndarray
    area: Area
    sigma2: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (K, 2), got {pos.shape}")
        if self.sigma2 is not None:
            s = np.broadcast_to(np.asarray(self.sigma2, dtype=float), (pos.shape[0],)).copy()
            if not _positive_finite(s):
                raise ValueError("observation-noise variances must be finite and positive")
            object.__setattr__(self, "sigma2", s)

    @property
    def k(self):
        return self.positions.shape[0]

    @property
    def x(self):
        return self.positions[:, 0]

    @property
    def y(self):
        return self.positions[:, 1]

    def with_sigma2(self, sigma2):
        """Copy of the network with observation-noise variances attached."""
        return replace(self, sigma2=sigma2)


def deploy_uniform(k, area, seed):
    """K sensors placed independently and uniformly over the area.

    Bit-exact reproducible for a fixed seed: one uniform draw per axis from
    numpy's default generator.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"need at least one sensor, got k={k}")
    rng = np.random.default_rng(seed)
    x = area.x_min + (area.x_max - area.x_min) * rng.random(k)
    y = area.y_min + (area.y_max - area.y_min) * rng.random(k)
    return SensorNetwork(np.column_stack([x, y]), area)


def sample_observations(net, model, params, seed):
    """One draw of the sensor readings R_k = G_k + W_k, a (K,) array."""
    if net.sigma2 is None:
        raise ValueError("network has no calibrated sigma2; call with_sigma2 first")
    rng = np.random.default_rng(seed)
    g = model.value(params, net.x, net.y)
    return g + rng.standard_normal(net.k) * np.sqrt(net.sigma2)


def _mean_square(model, params, area, grid):
    """The field's mean square value over the area, by 2-D Simpson."""
    return field_squared_integral(params, area, grid=grid, model=model) / area.measure


def _at_snr(power, snr_db):
    """The noise variance that puts a signal of mean power ``power`` at snr_db."""
    return power / 10.0 ** (snr_db / 10.0)


def calibrate_sigma(model, params, area, snr_o_db, grid=201):
    """Observation-noise variance hitting a target observation SNR (dB):
    sigma2 = mean-square field value over the area / 10^(SNR_O/10)."""
    return _at_snr(_mean_square(model, params, area, grid), snr_o_db)


def _analog_eta2(mean_sq, sigma2, snr_c_db):
    """The analog channel's noise variance, given the field's mean square:
    the channel carries the raw reading, whose mean power is mean_sq + sigma2."""
    return _at_snr(mean_sq + sigma2, snr_c_db)


def calibrate_eta_analog(model, params, area, sigma2, snr_c_db, grid=201):
    """Channel-noise variance for the analog channel: the transmitted power is
    the mean square of the raw reading, E[R^2] averaged over the area."""
    return _analog_eta2(_mean_square(model, params, area, grid), sigma2, snr_c_db)


# Distinct field values per block of the quantized calibration: each block's
# level probabilities and their matrix-vector product with nu^2 are made
# together.  One product over 40,401 rows of 16 levels is large enough for
# OpenBLAS to split across threads, which made it 8 ms instead of 0.4 ms; and
# probabilities for every value of a 2001-node grid at once take hundreds of
# MB.  The probabilities are elementwise, and the product sums each row alike
# in blocks of a multiple of 4 rows, so such blocks keep every row's bits.
_POWER_ROWS = 4096


def calibrate_eta_quantized(model, params, area, quantizer, sigma2, snr_c_db, grid=201):
    """Channel-noise variance for the quantized channel.

    The transmitted symbol power at a point is E[q(R)^2] = sum_j nu_j^2 p_j
    with R ~ N(G(x, y), sigma2); averaging it over the area by the same
    Simpson grid used elsewhere gives the power that the target channel SNR
    divides.  With many levels this approaches the analog calibration.

    The power depends on the point only through G, so it is evaluated once
    per distinct field value of the grid (a bell centred in the area repeats
    most of its values by symmetry) and scattered back to the grid before
    the Simpson sum.  Nothing is kept between calls.
    """
    grid = int(grid)
    if grid < 11 or grid % 2 == 0:
        raise ValueError(f"grid must be an odd node count >= 11, got {grid}")

    def power(x, y):
        g = model.value(params, x, y)
        values, index = np.unique(g.ravel(), return_inverse=True)
        sigma, nu2 = np.sqrt(sigma2), quantizer.reproduction**2
        per_value = np.concatenate([
            level_probabilities(quantizer, values[i : i + _POWER_ROWS], sigma) @ nu2
            for i in range(0, values.size, _POWER_ROWS)
        ])
        return per_value[index].reshape(g.shape)

    mean_power = simpson_2d(power, area.x_min, area.x_max, area.y_min, area.y_max, grid)
    return _at_snr(mean_power / area.measure, snr_c_db)
