"""Shared fixtures: the default field/area and small calibrated setups."""

import numpy as np
import pytest

from fieldest import (
    Area,
    BitMapper,
    FieldParams,
    GAUSSIAN_BELL,
    calibrate_eta_analog,
    calibrate_eta_quantized,
    calibrate_sigma,
    deploy_uniform,
    make_uniform_quantizer,
)
from fieldest import experiments


@pytest.fixture(scope="session")
def truth():
    return FieldParams(h=8.0, rho_x=2.0, rho_y=2.0, x_c=4.0, y_c=4.0)


@pytest.fixture(scope="session")
def area():
    return Area(0.0, 8.0, 0.0, 8.0)


@pytest.fixture(scope="session")
def sigma2_15db(truth, area):
    return calibrate_sigma(GAUSSIAN_BELL, truth, area, 15.0)


def make_network(k, area, sigma2, seed):
    """Deployed network with per-sensor observation noise attached."""
    net = deploy_uniform(k, area, np.random.SeedSequence(seed))
    return net.with_sigma2(np.full(k, sigma2))


@pytest.fixture()
def small_net(area, sigma2_15db):
    return make_network(12, area, sigma2_15db, seed=77)


@pytest.fixture(scope="session")
def quantized_15db(truth, area, sigma2_15db):
    """(quantizer, bit mapper, eta2) for M=8 over [0, 12] at 15 dB channel SNR."""
    quantizer = make_uniform_quantizer(8, 0.0, 12.0)
    bm = BitMapper(3)
    eta2 = calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, quantizer, sigma2_15db, 15.0)
    return quantizer, bm, eta2


@pytest.fixture(scope="session")
def analog_eta2_15db(truth, area, sigma2_15db):
    return calibrate_eta_analog(GAUSSIAN_BELL, truth, area, sigma2_15db, 15.0)


@pytest.fixture()
def calibration_calls(monkeypatch):
    """Cells passed to the per-cell noise calibration, in call order."""
    calls = []
    real = experiments._cell_calibration

    def counting(cfg, cell):
        calls.append(cell)
        return real(cfg, cell)

    monkeypatch.setattr(experiments, "_cell_calibration", counting)
    return calls
