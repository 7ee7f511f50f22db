import math

import numpy as np
import pytest
from scipy import integrate

from fieldest import (
    GAUSSIAN_BELL,
    FieldParams,
    Quantizer,
    SensorNetwork,
    calibrate_eta_analog,
    calibrate_eta_quantized,
    calibrate_sigma,
    deploy_uniform,
    level_probabilities,
    make_uniform_quantizer,
    sample_observations,
)
from fieldest import network
from fieldest._quadrature import simpson_2d


def test_deploy_uniform_bounds_and_determinism(area):
    net = deploy_uniform(200, area, np.random.SeedSequence(31))
    assert net.k == 200
    assert net.positions.shape == (200, 2)
    assert np.all(net.x >= area.x_min) and np.all(net.x <= area.x_max)
    assert np.all(net.y >= area.y_min) and np.all(net.y <= area.y_max)
    again = deploy_uniform(200, area, np.random.SeedSequence(31))
    np.testing.assert_array_equal(net.positions, again.positions)
    other = deploy_uniform(200, area, np.random.SeedSequence(32))
    assert not np.array_equal(net.positions, other.positions)
    with pytest.raises(ValueError):
        deploy_uniform(0, area, np.random.SeedSequence(0))


def test_network_sigma2_rules(area):
    net = deploy_uniform(5, area, np.random.SeedSequence(1))
    assert net.sigma2 is None
    full = net.with_sigma2(0.25)
    np.testing.assert_allclose(full.sigma2, np.full(5, 0.25))
    with pytest.raises(ValueError):
        net.with_sigma2(-0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            net.with_sigma2(np.array([0.25, 0.25, bad, 0.25, 0.25]))
    with pytest.raises(ValueError):
        SensorNetwork(np.zeros((3, 3)), area)


def test_sample_observations(truth, area):
    net = deploy_uniform(20_000, area, np.random.SeedSequence(8)).with_sigma2(0.09)
    obs = sample_observations(net, GAUSSIAN_BELL, truth, np.random.SeedSequence(9))
    assert obs.shape == (net.k,)
    resid = obs - GAUSSIAN_BELL.value(truth, net.x, net.y)
    assert resid.mean() == pytest.approx(0.0, abs=0.01)
    assert resid.var() == pytest.approx(0.09, rel=0.05)
    bare = deploy_uniform(5, area, np.random.SeedSequence(8))
    with pytest.raises(ValueError):
        sample_observations(bare, GAUSSIAN_BELL, truth, np.random.SeedSequence(0))


def test_calibrate_sigma_oracle(truth, area):
    # independent oracle: erf closed form of the squared-field integral,
    # int G^2 over [0,8]^2 = 796.7412018476726 (checked against dblquad)
    mean_sq = 796.7412018476726 / 64.0
    for snr_db in (0.0, 10.0, 15.0, 30.0):
        expected = mean_sq / 10.0 ** (snr_db / 10.0)
        assert calibrate_sigma(GAUSSIAN_BELL, truth, area, snr_db) == pytest.approx(
            expected, rel=1e-8
        )
    # frozen regression anchor at the default operating point
    assert calibrate_sigma(GAUSSIAN_BELL, truth, area, 15.0) == pytest.approx(
        0.3936745161779064, rel=1e-8
    )


def test_calibrate_eta_analog_oracle(truth, area):
    mean_sq = 796.7412018476726 / 64.0
    sigma2 = 0.3936745161779064
    expected = (mean_sq + sigma2) / 10.0**1.5
    got = calibrate_eta_analog(GAUSSIAN_BELL, truth, area, sigma2, 15.0)
    assert got == pytest.approx(expected, rel=1e-8)
    assert got == pytest.approx(0.40612359745677623, rel=1e-8)


def test_calibrate_eta_quantized_degenerate_single_level(truth, area):
    # a quantizer whose only reproduction value is c transmits constant power
    # c^2, so the calibration must return exactly c^2 / 10^(snr/10)
    c = 3.0
    q1 = Quantizer(np.array([-np.inf, np.inf]), np.array([c]))
    got = calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, q1, 0.4, 12.0)
    assert got == pytest.approx(c * c / 10.0**1.2, rel=1e-12)


@pytest.mark.parametrize(
    "m,frozen",
    [
        (2, 0.5468106323343775),
        (8, 0.41200360062465724),
    ],
)
def test_calibrate_eta_quantized_oracle(truth, area, sigma2_15db, m, frozen):
    """Transmitted power is the area mean of E[q(R)^2], R ~ N(G(x,y), sigma2).

    The frozen values come from adaptive quadrature (dblquad, abs err < 3e-8)
    of that defining double integral at 15 dB over [0, 12] quantizers.
    """
    quantizer = make_uniform_quantizer(m, 0.0, 12.0)
    got = calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, quantizer, sigma2_15db, 15.0)
    assert got == pytest.approx(frozen, rel=1e-6)


def test_calibrate_eta_quantized_matches_dblquad(truth, area):
    # same check without frozen numbers, on an off-default configuration
    quantizer = make_uniform_quantizer(4, 1.0, 9.0)
    sigma2 = 0.9

    def power(x, y):
        g = GAUSSIAN_BELL.value(truth, x, y)
        p = level_probabilities(quantizer, float(g), math.sqrt(sigma2))
        return float(p @ (quantizer.reproduction**2))

    val, err = integrate.dblquad(power, 0, 8, 0, 8, epsabs=1e-8, epsrel=1e-8)
    expected = (val / area.measure) / 10.0**0.7
    got = calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, quantizer, sigma2, 7.0)
    assert got == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("m", [2, 16])
@pytest.mark.parametrize("centred", [True, False])
def test_calibrate_eta_quantized_equals_the_full_grid_sum(truth, area, m, centred, monkeypatch):
    """Evaluating the power once per distinct field value, in blocks of
    _POWER_ROWS values, changes no bit: eta2 equals the Simpson sum of
    sum_j nu_j^2 p_j taken at every grid point."""
    params = truth if centred else FieldParams(8.0, 2.0, 1.7, 3.3, 4.6)
    quantizer = make_uniform_quantizer(m, 0.0, 12.0)
    sigma2 = calibrate_sigma(GAUSSIAN_BELL, params, area, 15.0)

    def power(x, y):
        g = GAUSSIAN_BELL.value(params, x, y)
        p = level_probabilities(quantizer, g.ravel(), np.sqrt(sigma2))
        return (p @ quantizer.reproduction**2).reshape(g.shape)

    full = simpson_2d(power, area.x_min, area.x_max, area.y_min, area.y_max, 201)
    expected = full / area.measure / 10.0**1.5
    rows = []

    def counting(q, g, sigma):
        rows.append(np.size(g))
        return level_probabilities(q, g, sigma)

    monkeypatch.setattr(network, "level_probabilities", counting)
    got = calibrate_eta_quantized(GAUSSIAN_BELL, params, area, quantizer, sigma2, 15.0)
    assert float(got).hex() == float(expected).hex()
    assert max(rows) <= network._POWER_ROWS
    if centred:  # the bell centred in the square repeats values by symmetry
        assert sum(rows) == 7192
    else:
        assert sum(rows) < 201 * 201


@pytest.mark.parametrize("m", [2, 16])
def test_calibrate_eta_quantized_keeps_its_bits_in_smaller_blocks(truth, area, m, monkeypatch):
    """The level probabilities are elementwise, so blocks of 7 distinct field
    values give every bit of one call; and blocks of 8 values give every
    eta2 bit of the 4096-value blocks.  Blocks of 7 would move eta2 by an
    ulp at M = 16: OpenBLAS's matrix-vector product sums rows in groups of
    4 and a block's leftover rows in another order."""
    quantizer = make_uniform_quantizer(m, 0.0, 12.0)
    for params in (truth, FieldParams(8.0, 2.0, 1.7, 3.3, 4.6)):
        sigma2 = calibrate_sigma(GAUSSIAN_BELL, params, area, 15.0)
        x, y = np.meshgrid(np.linspace(0.0, 8.0, 101), np.linspace(0.0, 8.0, 101))
        values = np.unique(GAUSSIAN_BELL.value(params, x, y))
        whole = level_probabilities(quantizer, values, np.sqrt(sigma2))
        blocks = [
            level_probabilities(quantizer, values[i : i + 7], np.sqrt(sigma2))
            for i in range(0, values.size, 7)
        ]
        assert np.array_equal(np.concatenate(blocks), whole)
        args = (GAUSSIAN_BELL, params, area, quantizer, sigma2, 15.0)
        want = calibrate_eta_quantized(*args, grid=101)
        monkeypatch.setattr(network, "_POWER_ROWS", 8)
        assert float(calibrate_eta_quantized(*args, grid=101)).hex() == float(want).hex()
        monkeypatch.undo()


def test_calibrate_eta_quantized_many_levels_approach_analog(truth, area):
    # a fine quantizer covering the reading range reproduces E[R^2], so the
    # quantized calibration converges to the analog one
    sigma2 = 0.4
    fine = make_uniform_quantizer(256, -8.0, 20.0)
    quantized = calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, fine, sigma2, 15.0)
    analog = calibrate_eta_analog(GAUSSIAN_BELL, truth, area, sigma2, 15.0)
    assert quantized == pytest.approx(analog, rel=1e-3)


def test_calibrate_eta_quantized_rejects_bad_grid(truth, area):
    q = make_uniform_quantizer(2, 0.0, 12.0)
    with pytest.raises(ValueError):
        calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, q, 0.4, 15.0, grid=10)
