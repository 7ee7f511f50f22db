"""Shared fixtures (the default field/area and small calibrated setups),
helpers that run one pipeline quantity for the tests, and the independent
references (closed forms and quadrature oracles) that several test files
check against."""

import numpy as np
import pytest
from scipy.integrate import quad

from fieldest import (
    Area,
    BitMapper,
    FieldParams,
    GAUSSIAN_BELL,
    calibrate_eta_analog,
    calibrate_eta_quantized,
    calibrate_sigma,
    deploy_uniform,
    level_probabilities,
    make_uniform_quantizer,
)
from fieldest import experiments
from fieldest.channel import _channel_variance
from fieldest.crlb import _simpson_axis
from fieldest.estimators import (
    _bit_distances,
    _mixture_at,
    _nr_derivs,
    _nr_value,
    _posterior_means,
    _quantized_rows,
)


@pytest.fixture(scope="session")
def truth():
    return FieldParams(h=8.0, rho_x=2.0, rho_y=2.0, x_c=4.0, y_c=4.0)


@pytest.fixture(scope="session")
def area():
    return Area(0.0, 8.0, 0.0, 8.0)


@pytest.fixture(scope="session")
def sigma2_15db(truth, area):
    return calibrate_sigma(GAUSSIAN_BELL, truth, area, 15.0)


def assert_same_outcome(got, alone):
    """Two estimator results are bitwise equal: the same iterate path,
    log-likelihoods, iteration count, flag and reason."""
    assert got.trace.tobytes() == alone.trace.tobytes()
    assert got.loglik_trace.tobytes() == alone.loglik_trace.tobytes()
    assert (got.iterations, got.converged, got.divergence_reason) == (
        alone.iterations, alone.converged, alone.divergence_reason
    )


def quantized_loglik_derivs(zmat, net, quantizer, bm, model, eta2, theta):
    """Gradient and Hessian at theta of the quantized log-likelihood of one
    trial's received words zmat (K, alpha), as Newton-Raphson computes them."""
    data, _ = _quantized_rows([zmat], [net], quantizer, bm, eta2)
    theta = np.asarray(theta, dtype=float)[None]
    ev = _nr_value(quantizer, model, theta, *data)[1]
    grad, hess, *_ = _nr_derivs(quantizer, model, theta, *ev, *data)
    return grad[0], hess[0]


def posterior_mean(z_k, quantizer, bm, g, sigma, eta2):
    """The E-step's posterior mean A = E[R | z_k] of one sensor's latent
    reading R ~ N(g, sigma^2), given its received word z_k, as EM computes it."""
    g, sigma = np.full((1, 1), g, dtype=float), np.full((1, 1), sigma, dtype=float)
    d = _bit_distances(np.reshape(z_k, (1, 1, -1)).astype(float), bm.codebook, eta2)
    _, p, amax = _mixture_at(quantizer, g, d, sigma)
    return float(_posterior_means(quantizer, g, p, amax, d, sigma)[0, 0])


def posterior_quadrature(z_k, quantizer, bm, g, sigma, eta2):
    """Oracle for the E-step: the posterior mean A = E[R | z_k] of a latent
    reading R ~ N(g, sigma^2) and the posterior mass B, by adaptive 1-D
    quadrature over each quantizer cell within 13 sigma of g, each cell
    weighted by its bit likelihood.  B is the quadrature mass over the
    mixture mass sum_j p_j e^{d_j}, which is 1 by math."""
    d = -np.sum((np.asarray(z_k) - bm.codebook) ** 2, axis=1) / (2.0 * eta2)
    e = np.exp(d - d.max())  # a common scale cancels in both ratios
    lo_cut, hi_cut = g - 13.0 * sigma, g + 13.0 * sigma
    i0, i1 = np.zeros(bm.m), np.zeros(bm.m)

    def pdf(r):
        return np.exp(-0.5 * ((r - g) / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))

    for j in range(bm.m):
        a_edge = max(float(quantizer.boundaries[j]), lo_cut)
        b_edge = min(float(quantizer.boundaries[j + 1]), hi_cut)
        if b_edge <= a_edge:
            continue
        i0[j], _ = quad(pdf, a_edge, b_edge, epsabs=1e-13, epsrel=1e-12, limit=200)
        i1[j], _ = quad(lambda r: r * pdf(r), a_edge, b_edge, epsabs=1e-13, epsrel=1e-12, limit=200)
    p = level_probabilities(quantizer, g, sigma)
    return float(e @ i1) / float(e @ i0), float(e @ i0) / float(e @ p)


def lambda_term(ell, j, i, bm, eta2):
    """The series' independent reference for one composition ell: the
    closed form of the Gaussian product integral

        (2 pi eta^2)^(-alpha/2) Int e_j(z) e_i(z) prod_v e_v(z)^{ell_v} dz

    over R^alpha: with c = sum(ell) + 2, m_vec = b_j + b_i + sum_v ell_v b_v
    and S = ||b_j||^2 + ||b_i||^2 + sum_v ell_v ||b_v||^2 it equals
    c^(-alpha/2) * exp((||m_vec||^2 / c - S) / (2 eta^2)).  The series route
    evaluates it per lattice point instead.

    j and i are 1-based level indices.
    """
    ell = np.asarray(ell, dtype=float)
    m = bm.m
    if ell.shape != (m,) or np.any(ell < 0):
        raise ValueError(f"ell must be {m} nonnegative integers")
    if not (1 <= j <= m and 1 <= i <= m):
        raise ValueError(f"level indices must be in 1..{m}")
    eta2 = _channel_variance(eta2)
    book = bm.codebook
    bj = book[j - 1]
    bi = book[i - 1]
    c = float(ell.sum()) + 2.0
    m_vec = bj + bi + ell @ book
    s_val = bj @ bj + bi @ bi + ell @ np.einsum("va,va->v", book, book)
    return float(c ** (-bm.alpha / 2.0) * np.exp((m_vec @ m_vec / c - s_val) / (2.0 * eta2)))


def gaussian_product_integral(ell, j, i, bm, eta2):
    """Oracle for lambda_term: its defining integral
    (2 pi eta^2)^(-alpha/2) Int e_j(z) e_i(z) prod_v e_v(z)^ell_v dz, as a
    product of 1-D adaptive quadratures, one per bit axis (the integrand
    factorizes).  j and i are 1-based level indices."""
    book = bm.codebook
    mult = np.concatenate(([1.0, 1.0], np.asarray(ell, dtype=float)))
    points = np.vstack((book[j - 1], book[i - 1], book))
    total = 1.0
    for a in range(bm.alpha):
        beta = points[:, a]

        def f(z):
            return np.exp(-np.sum(mult * (z - beta) ** 2) / (2.0 * eta2))

        val, _ = quad(f, -np.inf, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
        total *= val / np.sqrt(2.0 * np.pi * eta2)
    return total


def tensor_grid(axes, book):
    """The C-order tensor grid of per-axis tables axes = [(e_a, w_a), ...],
    e_a (n_a, 2) holding e(z, 0) and e(z, 1) at axis a's nodes: its rows
    e_j(z) = prod_a e_a[z_a, b_ja], one column per codeword of the 0/1
    codebook book (M, alpha), and its weights prod_a w_a[z_a]."""
    bits = np.asarray(book).astype(int)
    e, w = np.ones((1, bits.shape[0])), np.ones(1)
    for a, (e_a, w_a) in enumerate(axes):
        e = (e[:, None, :] * e_a[:, bits[:, a]][None]).reshape(-1, bits.shape[0])
        w = (w[:, None] * w_a[None]).ravel()
    return e, w


def grid_gamma(quantizer, bm, g, sigma, eta2, nodes=81):
    """Gamma_j = Int e_j(z) f_Z(z) / x(z) dz on the Simpson grid of the
    quantized Fisher route (its per-axis factors and weights,
    ``_simpson_axis``), with the mixture pdf f_Z = (2 pi eta^2)^(-alpha/2) x
    left unsimplified and the ratio zeroed where x <= 0, as
    ``_info_simpson`` does.  Gamma_j = 1 by math, so its distance from 1 is
    the grid's quadrature error."""
    p = level_probabilities(quantizer, float(g), float(sigma))
    norm = (2.0 * np.pi * eta2) ** (-bm.alpha / 2.0)
    e_axis, w_axis = _simpson_axis(eta2, nodes, 0, nodes)
    gamma = np.zeros(bm.m)
    for i in range(nodes):  # one axis-0 node's inner grid at a time
        lead = [(e_axis[i : i + 1], w_axis[i : i + 1])]
        e_blk, w_blk = tensor_grid(lead + [(e_axis, w_axis)] * (bm.alpha - 1), bm.codebook)
        x = e_blk @ p
        gamma += e_blk.T @ (w_blk * np.divide(norm * x, x, out=np.zeros_like(x), where=x > 0))
    return gamma


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
