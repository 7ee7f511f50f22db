from collections import Counter

import numpy as np
import pytest
from scipy import optimize
from scipy.stats import norm, truncnorm

from fieldest import (
    BitMapper,
    FieldParams,
    GAUSSIAN_BELL,
    SolverConfig,
    amplify_forward,
    em_estimate,
    level_probabilities,
    loglik_analog,
    loglik_quantized,
    make_uniform_quantizer,
    newton_ml_analog,
    newton_ml_analog_batch,
    nr_estimate_quantized,
    q_function,
    quantize_forward,
    sample_observations,
)
from fieldest import estimators, experiments
from fieldest.estimators import (
    _analog_rows,
    _ascent_steps,
    _mixture_at,
    _modified_steps,
    _posterior_means,
    _quantized_rows,
    _wls_derivs,
    _wls_value,
)
from fieldest.experiments import ExperimentConfig, resolve_cells

from conftest import (
    assert_same_outcome,
    make_network,
    posterior_mean,
    posterior_quadrature,
    quantized_loglik_derivs,
)


def _analog_data(truth, area, sigma2, eta2, k=40, seed=100):
    net = make_network(k, area, sigma2, seed)
    obs = sample_observations(net, GAUSSIAN_BELL, truth, np.random.SeedSequence(seed + 1))
    z = amplify_forward(obs, eta2, np.random.SeedSequence(seed + 2))
    return net, z


def _quantized_data(truth, area, sigma2, quantizer, bm, eta2, k=40, seed=200):
    net = make_network(k, area, sigma2, seed)
    obs = sample_observations(net, GAUSSIAN_BELL, truth, np.random.SeedSequence(seed + 1))
    z = quantize_forward(obs, quantizer, bm, eta2, np.random.SeedSequence(seed + 2))
    return net, z


def test_q_function_matches_normal_sf():
    x = np.linspace(-6, 6, 41)
    np.testing.assert_allclose(q_function(x), norm.sf(x), atol=1e-15)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_outer=0)


# ------------------------------------------------------------- analog ML


def test_loglik_analog_oracle(truth, area):
    net, z = _analog_data(truth, area, sigma2=0.3, eta2=0.5, k=25, seed=4)
    got = loglik_analog(z, net, GAUSSIAN_BELL, truth, 0.5)
    g = GAUSSIAN_BELL.value(truth, net.x, net.y)
    expected = -0.5 * np.sum((z - g) ** 2 / (net.sigma2 + 0.5))
    assert got == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        loglik_analog(z, make_network(5, area, 0.3, 1), GAUSSIAN_BELL, truth, 0.5)


def test_newton_analog_recovers_truth_low_noise(truth, area):
    net, z = _analog_data(truth, area, sigma2=1e-4, eta2=1e-4, k=60, seed=55)
    init = FieldParams(9.0, 1.5, 1.5, 3.0, 3.0)
    res = newton_ml_analog(z, net, GAUSSIAN_BELL, 1e-4, init, SolverConfig())
    assert res.converged
    np.testing.assert_allclose(res.theta_hat.as_array(), truth.as_array(), atol=0.02)
    # trace bookkeeping: row 0 is the init, one row per accepted step
    np.testing.assert_array_equal(res.trace[0], init.as_array())
    assert res.trace.shape[0] == res.iterations + 1
    assert res.loglik_trace.shape[0] == res.trace.shape[0]


def test_newton_analog_loglik_monotone(truth, area):
    net, z = _analog_data(truth, area, sigma2=0.4, eta2=0.4, k=40, seed=77)
    init = FieldParams(9.0, 1.5, 1.5, 3.0, 3.0)
    res = newton_ml_analog(z, net, GAUSSIAN_BELL, 0.4, init, SolverConfig())
    assert res.converged
    # the backtracking line search only ever accepts non-decreasing steps
    assert np.all(np.diff(res.loglik_trace) >= -1e-12)


def test_newton_analog_matches_generic_optimizer(truth, area):
    net, z = _analog_data(truth, area, sigma2=0.4, eta2=0.4, k=40, seed=13)
    init = FieldParams(9.0, 1.5, 1.5, 3.0, 3.0)
    res = newton_ml_analog(z, net, GAUSSIAN_BELL, 0.4, init, SolverConfig())
    assert res.converged

    def neg(theta):
        return -loglik_analog(z, net, GAUSSIAN_BELL, FieldParams.from_array(theta), 0.4)

    ref = optimize.minimize(neg, init.as_array(), method="Nelder-Mead",
                            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 20_000})
    assert ref.success
    np.testing.assert_allclose(res.theta_hat.as_array(), ref.x, atol=2e-4)


def test_batch_rows_with_a_singular_hessian_and_an_invalid_first_step_run_as_alone(
    truth, area, sigma2_15db, analog_eta2_15db
):
    eta2, cfg = analog_eta2_15db, SolverConfig()
    data = [_analog_data(truth, area, sigma2_15db, eta2, k=20, seed=s) for s in (5, 6, 7, 8)]
    inits = [
        FieldParams(9.0, 1.5, 1.5, 3.0, 3.0),
        # h = 0: every entry of the Hessian outside row and column 0 is 0
        FieldParams(0.0, 2.0, 2.0, 4.0, 4.0),
        FieldParams(7.0, 0.3, 3.0, 4.0, 8.0),
        FieldParams(7.0, 2.5, 1.8, 5.0, 4.5),
    ]
    # the batch's first Newton systems
    theta = np.array([init.as_array() for init in inits])
    zv, w, x, y = _analog_rows([z for _, z in data], [net for net, _ in data], eta2)
    _, (g,) = _wls_value(GAUSSIAN_BELL, theta, zv, w, x, y)
    grad, hess = _wls_derivs(GAUSSIAN_BELL, theta, g, zv, w, x, y)
    # preconditions: row 1's Hessian is exactly singular, so the stacked
    # solve fails as a whole; row 2's full first step makes a spread
    # non-positive
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hess[1], -grad[1])
    steps = _ascent_steps(grad, hess)
    assert min((theta + steps)[2, 1:3]) <= 0.0
    # the direction rule: a row whose own solve succeeds keeps its Newton
    # step, bit for bit, where that points uphill; every other row, and the
    # singular one, takes the modified step of its own row
    ok = [0, 2, 3]
    newton = np.linalg.solve(hess[ok], -grad[ok, :, None])[:, :, 0]
    uphill = [i for i, p in zip(ok, newton) if grad[i] @ p > 0.0]
    assert uphill == [3]  # precondition: rows 0 and 2 start where -H is indefinite
    for i, p in zip(ok, newton):
        want = p if i in uphill else _modified_steps(grad[i : i + 1], hess[i : i + 1])[0]
        np.testing.assert_array_equal(steps[i], want)
    np.testing.assert_array_equal(steps[1], _modified_steps(grad[1:2], hess[1:2])[0])
    assert (np.einsum("ij,ij->i", grad, steps) > 0.0).all()
    batch = newton_ml_analog_batch(
        [z for _, z in data], [net for net, _ in data], GAUSSIAN_BELL, eta2, inits, cfg
    )
    assert len(batch) == len(data)
    for (net, z), init, got in zip(data, inits, batch):
        assert_same_outcome(got, newton_ml_analog(z, net, GAUSSIAN_BELL, eta2, init, cfg))


def test_batch_input_checks(truth, area, sigma2_15db):
    net, z = _analog_data(truth, area, sigma2_15db, 0.3, k=10, seed=3)
    other, z_other = _analog_data(truth, area, sigma2_15db, 0.3, k=12, seed=4)
    init = FieldParams(9.0, 1.5, 1.5, 3.0, 3.0)
    with pytest.raises(ValueError, match="share the sensor count"):
        newton_ml_analog_batch([z, z_other], [net, other], GAUSSIAN_BELL, 0.3, [init] * 2,
                               SolverConfig())
    with pytest.raises(ValueError, match="K-vector"):
        newton_ml_analog(z_other, net, GAUSSIAN_BELL, 0.3, init, SolverConfig())


# -------------------------------------------------------- quantized loglik


def test_loglik_quantized_oracle(truth, area, quantized_15db, sigma2_15db):
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=30, seed=8)
    got = loglik_quantized(z, net, quantizer, bm, GAUSSIAN_BELL, truth, eta2)
    # independent mixture reimplementation (same dropped constants)
    g = GAUSSIAN_BELL.value(truth, net.x, net.y)
    total = 0.0
    for k in range(net.k):
        p = level_probabilities(quantizer, float(g[k]), float(np.sqrt(net.sigma2[k])))
        e = np.exp(-np.sum((z[k] - bm.codebook) ** 2, axis=1) / (2 * eta2))
        total += np.log(np.sum(p * e))
    assert got == pytest.approx(total, rel=1e-10)


def test_loglik_quantized_shape_checks(truth, area, quantized_15db, sigma2_15db):
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=10, seed=8)
    wrong_net = make_network(11, area, sigma2_15db, 3)
    with pytest.raises(ValueError):
        loglik_quantized(z, wrong_net, quantizer, bm, GAUSSIAN_BELL, truth, eta2)
    with pytest.raises(ValueError):
        loglik_quantized(z, net, make_uniform_quantizer(4, 0, 12), bm, GAUSSIAN_BELL, truth, eta2)
    # a word one bit short of alpha
    with pytest.raises(ValueError, match=r"expected shape \(10, 3\)"):
        loglik_quantized(z[:, :-1], net, quantizer, bm, GAUSSIAN_BELL, truth, eta2)


def test_quantized_loglik_gradient_matches_finite_differences(
    truth, area, quantized_15db, sigma2_15db
):
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=12, seed=19)
    rng = np.random.default_rng(3)
    for _ in range(8):
        theta = np.array([
            rng.uniform(4, 11),
            rng.uniform(1.2, 3.0),
            rng.uniform(1.2, 3.0),
            rng.uniform(2, 6),
            rng.uniform(2, 6),
        ])
        grad, hess = quantized_loglik_derivs(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, theta)
        fd = np.empty(5)
        for s in range(5):
            step = 1e-6 * max(1.0, abs(theta[s]))
            up, dn = theta.copy(), theta.copy()
            up[s] += step
            dn[s] -= step
            fd[s] = (
                loglik_quantized(z, net, quantizer, bm, GAUSSIAN_BELL,
                                 FieldParams.from_array(up), eta2)
                - loglik_quantized(z, net, quantizer, bm, GAUSSIAN_BELL,
                                   FieldParams.from_array(dn), eta2)
            ) / (2 * step)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.max(np.abs(grad - fd)) / scale < 1e-6
        assert np.allclose(hess, hess.T)


def test_quantized_loglik_hessian_matches_finite_differences(
    truth, area, quantized_15db, sigma2_15db
):
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=10, seed=23)
    theta = np.array([7.0, 2.2, 1.9, 4.4, 3.6])
    _, hess = quantized_loglik_derivs(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, theta)
    fd = np.empty((5, 5))
    for s in range(5):
        step = 1e-6 * max(1.0, abs(theta[s]))
        up, dn = theta.copy(), theta.copy()
        up[s] += step
        dn[s] -= step
        gu, _ = quantized_loglik_derivs(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, up)
        gd, _ = quantized_loglik_derivs(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, dn)
        fd[s] = (gu - gd) / (2 * step)
    scale = max(np.abs(fd).max(), 1e-8)
    assert np.max(np.abs(hess - fd)) / scale < 5e-6


# ------------------------------------------------------------------- EM


@pytest.mark.parametrize("m", [2, 4, 8])
def test_em_quantities_match_quadrature(m):
    quantizer = make_uniform_quantizer(m, 0.0, 12.0)
    bm = BitMapper(int(np.log2(m)))
    rng = np.random.default_rng(m)
    for _ in range(10):
        g = rng.uniform(-1.0, 13.0)
        sigma = rng.uniform(0.3, 2.0)
        eta2 = rng.uniform(0.1, 1.5)
        level = rng.integers(1, m + 1)
        z_k = bm.codebook[level - 1] + np.sqrt(eta2) * rng.standard_normal(bm.alpha)
        a = posterior_mean(z_k, quantizer, bm, g, sigma, eta2)
        a_ref, b_ref = posterior_quadrature(z_k, quantizer, bm, g, sigma, eta2)
        assert a == pytest.approx(a_ref, abs=1e-8)
        # the posterior mass is 1, which is why the M-step is the analog
        # least-squares fit to A and no B is carried
        assert b_ref == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "z_k, g, sigma, eta2",
    [((1.0, 1.0), 0.5, 0.1, 1e-4), ((0.9, 1.1), 2.0, 0.05, 5e-4)],
)
def test_em_quantities_far_tail_words(z_k, g, sigma, eta2):
    """Words whose nearest codeword sits on a level of probability 0, with
    every other bit likelihood below the float range once scaled by the
    nearest one: the posterior still lives on [3, 6), the only level whose
    mass times bit likelihood is representable, so A is the mean of
    N(g, sigma^2) truncated to that cell (the quadrature oracle,
    conftest.posterior_quadrature, underflows here)."""
    quantizer = make_uniform_quantizer(4, 0.0, 12.0)
    a = posterior_mean(np.array(z_k), quantizer, BitMapper(2), g, sigma, eta2)
    ref = truncnorm((3.0 - g) / sigma, (6.0 - g) / sigma, loc=g, scale=sigma).mean()
    assert a == pytest.approx(ref, abs=1e-9)


def test_em_score_equals_incomplete_data_score(truth, area, quantized_15db, sigma2_15db):
    """EM fixed-point identity: with the posterior means A refreshed at theta,
    the score of the M-step fit, (A - G)/sigma2 @ grad G, equals the gradient
    of the received log-likelihood at the same theta."""
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=20, seed=41)
    (d, sigma, _, _), _ = _quantized_rows([z], [net], quantizer, bm, eta2)
    for theta in (
        truth.as_array(),
        np.array([9.0, 1.5, 1.5, 3.0, 3.0]),
        np.array([6.5, 2.4, 2.1, 4.8, 3.9]),
    ):
        g = GAUSSIAN_BELL.value(FieldParams.from_array(theta), net.x, net.y)
        _, p, amax = _mixture_at(quantizer, g[None], d, sigma)
        a_val = _posterior_means(quantizer, g[None], p, amax, d, sigma)[0]
        grads = GAUSSIAN_BELL.gradient(FieldParams.from_array(theta), net.x, net.y)
        em_grad = ((a_val - g) / net.sigma2) @ grads
        ml_grad, _ = quantized_loglik_derivs(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, theta)
        np.testing.assert_allclose(em_grad, ml_grad, rtol=1e-8, atol=1e-10)


def test_em_restarted_at_its_estimate_stops_at_once(truth, area, quantized_15db, sigma2_15db):
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=40, seed=91)
    res = em_estimate(z, net, quantizer, bm, GAUSSIAN_BELL, eta2,
                      FieldParams(9.0, 1.5, 1.5, 3.0, 3.0), SolverConfig())
    assert res.converged and res.iterations > 0
    # the EM limit is a fixed point: EM restarted there passes its score test
    # before any M-step, with the same estimate
    again = em_estimate(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, res.theta_hat, SolverConfig())
    assert (again.converged, again.iterations) == (True, 0)
    assert again.theta_hat.as_array().tobytes() == res.theta_hat.as_array().tobytes()


def test_em_estimate_ascends_and_recovers(truth, area, quantized_15db, sigma2_15db):
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=40, seed=47)
    init = FieldParams(8.5, 1.8, 1.8, 4.3, 4.2)  # in the main basin
    res = em_estimate(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, init, SolverConfig())
    assert res.converged
    np.testing.assert_array_equal(res.trace[0], init.as_array())
    assert np.all(np.diff(res.loglik_trace) >= -1e-9)
    # one 15 dB draw at K=40: parameter error well inside one field unit
    assert np.max(np.abs(res.theta_hat.as_array() - truth.as_array())) < 1.5


def test_em_and_nr_find_the_same_optimum(truth, area, quantized_15db, sigma2_15db):
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=40, seed=91)
    init = FieldParams(9.0, 1.5, 1.5, 3.0, 3.0)
    em = em_estimate(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, init, SolverConfig())
    nr = nr_estimate_quantized(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, init, SolverConfig())
    assert em.converged and nr.converged
    np.testing.assert_allclose(em.theta_hat.as_array(), nr.theta_hat.as_array(), atol=2e-3)
    ll_em = loglik_quantized(z, net, quantizer, bm, GAUSSIAN_BELL, em.theta_hat, eta2)
    ll_nr = loglik_quantized(z, net, quantizer, bm, GAUSSIAN_BELL, nr.theta_hat, eta2)
    assert ll_em == pytest.approx(ll_nr, abs=1e-4)


def test_nr_loglik_monotone(truth, area, quantized_15db, sigma2_15db):
    quantizer, bm, eta2 = quantized_15db
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=40, seed=62)
    res = nr_estimate_quantized(z, net, quantizer, bm, GAUSSIAN_BELL, eta2,
                                FieldParams(9.0, 1.5, 1.5, 3.0, 3.0), SolverConfig())
    assert res.converged
    assert np.all(np.diff(res.loglik_trace) >= -1e-12)


def test_quiet_channel_reduces_to_quantized_ml(truth, area, sigma2_15db):
    # with (numerically) noiseless bits, the likelihood collapses onto the
    # transmitted levels: log-lik at theta ~ sum_k log p_{level_k}(theta)
    quantizer = make_uniform_quantizer(8, 0.0, 12.0)
    bm = BitMapper(3)
    eta2 = 1e-4
    net, z = _quantized_data(truth, area, sigma2_15db, quantizer, bm, eta2, k=30, seed=71)
    levels = 1 + (np.round(z) @ np.array([4, 2, 1])).astype(int)
    g = GAUSSIAN_BELL.value(truth, net.x, net.y)
    p = level_probabilities(quantizer, g, np.sqrt(net.sigma2))
    words = bm.codebook[levels - 1]
    resid = float(np.sum((z - words) ** 2)) / (2.0 * eta2)
    expected = float(np.sum(np.log(p[np.arange(net.k), levels - 1]))) - resid
    got = loglik_quantized(z, net, quantizer, bm, GAUSSIAN_BELL, truth, eta2)
    # the word residual term survives, but every cross-level term in the
    # mixture is smaller by exp(-O(1/eta2)) and drops out
    assert got == pytest.approx(expected, abs=1e-6)


# ------------------------------------------- one evaluation per iterate


def _race_trial(m, trial=0):
    """Trial ``trial`` of the em-nr-race cell (K=40, 15/15 dB, default seed)
    at M levels: (net, z, quantizer, bm, eta2, init, solver config)."""
    cfg = ExperimentConfig(channel="quantized", k_values=(40,), m_values=(m,), trials=1)
    cells, ids = resolve_cells(cfg)
    calib = experiments._cell_calibration(cfg, cells[0])
    net, z, init, _ = experiments._trial_inputs(cfg, cells[0], ids[0], trial, calib)
    return (net, z, *experiments._quantizer(cfg, cells[0]), calib[1], init, cfg.solver)


class _CountingModel:
    """The Gaussian bell, counting calls of each of its three methods (as
    FieldProbe in benchmarks/layers.py does)."""

    def __init__(self):
        self.calls = Counter()

    def _call(self, name, params, x, y):
        self.calls[name] += 1
        return getattr(GAUSSIAN_BELL, name)(params, x, y)

    def value(self, params, x, y):
        return self._call("value", params, x, y)

    def gradient(self, params, x, y):
        return self._call("gradient", params, x, y)

    def hessian(self, params, x, y):
        return self._call("hessian", params, x, y)


@pytest.mark.parametrize("m", [2, 8])
@pytest.mark.parametrize("estimator", [em_estimate, nr_estimate_quantized])
def test_loglik_trace_entries_equal_loglik_quantized(estimator, m):
    net, z, quantizer, bm, eta2, init, cfg = _race_trial(m)
    res = estimator(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, init, cfg)
    assert res.loglik_trace.shape == (len(res.trace),)
    for row, value in zip(res.trace, res.loglik_trace):
        again = loglik_quantized(
            z, net, quantizer, bm, GAUSSIAN_BELL, FieldParams.from_array(row), eta2
        )
        assert np.float64(again).tobytes() == value.tobytes()


def test_loglik_analog_is_the_newton_objective():
    """At every estimate of an analog-sweep cell's batch of 40 trials,
    loglik_analog repeats the last entry of the trace that Newton maximised,
    bit for bit."""
    cfg = ExperimentConfig(channel="analog", k_values=(10, 20, 40, 100), trials=40)
    cells, ids = resolve_cells(cfg)
    cell, data_id = cells[2], ids[2]
    assert cell.k == 40
    calib = experiments._cell_calibration(cfg, cell)
    nets, zs, inits, _ = zip(
        *(experiments._trial_inputs(cfg, cell, data_id, t, calib) for t in range(cfg.trials))
    )
    batch = newton_ml_analog_batch(zs, nets, GAUSSIAN_BELL, calib[1], inits, cfg.solver)
    for net, z, res in zip(nets, zs, batch):
        again = loglik_analog(z, net, GAUSSIAN_BELL, res.theta_hat, calib[1])
        assert np.float64(again).tobytes() == res.loglik_trace[-1].tobytes()


def test_each_quantized_iterate_is_evaluated_once(monkeypatch):
    counts = Counter()

    def counting(name):
        real = getattr(estimators, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    for name in ("_bit_distances", "level_probabilities", "_p_slopes", "_p_slope"):
        monkeypatch.setattr(estimators, name, counting(name))
    net, z, quantizer, bm, eta2, init, cfg = _race_trial(8)

    # NR: an objective evaluation computes the field and the level
    # probabilities once; the derivatives at the same iterate reuse both
    model = _CountingModel()
    nr = nr_estimate_quantized(z, net, quantizer, bm, model, eta2, init, cfg)
    assert nr.converged
    assert counts["_bit_distances"] == 1
    assert model.calls["value"] == counts["level_probabilities"] == 12  # 24 when re-evaluated
    assert model.calls["gradient"] == model.calls["hessian"] == counts["_p_slopes"]
    assert counts["_p_slopes"] == nr.iterations + 1

    # EM: one evaluation per iterate feeds its log-likelihood and the next
    # E-step, and the M-step starts from the field values it already has
    counts.clear()
    model = _CountingModel()
    em = em_estimate(z, net, quantizer, bm, model, eta2, init, cfg)
    assert (em.iterations, em.divergence_reason) == (200, "max_iterations")
    assert counts["_bit_distances"] == 1
    assert counts["level_probabilities"] == len(em.trace)
    assert counts["_p_slope"] == em.iterations  # one E-step per outer iteration
    assert counts["_p_slopes"] == 0  # the E-step needs no second derivatives
    # 1899, 708 and 508 when each iterate was evaluated again by the E-step,
    # the M-step's start and the derivatives
    assert model.calls == {"value": 791, "gradient": 509, "hessian": 508}


class _FailsAfter(_CountingModel):
    """The counting bell, one of whose methods returns NaN from its call
    n + 1 on."""

    def __init__(self, name, n):
        super().__init__()
        self.name, self.n = name, n

    def _call(self, name, params, x, y):
        out = super()._call(name, params, x, y)
        return np.full_like(out, np.nan) if name == self.name and self.calls[name] > self.n else out


@pytest.mark.parametrize(
    ("fails", "m", "n", "trial", "iterations", "reason", "calls"),
    [
        ("hessian", 8, 0, 0, 0, "inner:nonfinite_derivatives", (1, 2, 1)),
        ("hessian", 8, 5, 0, 1, "inner:nonfinite_derivatives", (8, 8, 6)),
        ("hessian", 8, 5, 1, 2, "inner:nonfinite_derivatives", (6, 9, 7)),
        ("hessian", 8, 5, 2, 2, "inner:nonfinite_derivatives", (6, 9, 7)),
        ("hessian", 16, 302, 0, 98, None, (441, 306, 304)),
        # a NaN score at the E-step: the M-step's first gradient is the same
        # NaN, and the trial ends there
        ("gradient", 8, 0, 0, 0, "inner:nonfinite_derivatives", (1, 2, 1)),
    ],
)
def test_an_m_step_that_takes_no_step_ends_its_row(
    fails, m, n, trial, iterations, reason, calls
):
    """When the M-step's inner Newton ends without a step, EM ends the trial:
    converged when the score is below tolerance, else with the inner reason.
    The model-call counts pin that the score is computed only where it is
    read."""
    net, z, quantizer, bm, eta2, init, cfg = _race_trial(m, trial)
    model = _FailsAfter(fails, n)
    res = em_estimate(z, net, quantizer, bm, model, eta2, init, cfg)
    assert (res.iterations, res.converged, res.divergence_reason) == (
        iterations, reason is None, reason,
    )
    assert tuple(model.calls[k] for k in ("value", "gradient", "hessian")) == calls
    if reason is None:
        # the last step was not within tol, so the E-step did not compute the
        # score: the stuck M-step computed it late.  Unmodified, the trial
        # runs on to iteration 107.
        assert np.abs(res.trace[-1] - res.trace[-2]).max() > cfg.tol
        plain = em_estimate(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, init, cfg)
        assert (plain.iterations, plain.converged) == (107, True)


def test_rows_accepting_at_different_halvings_run_as_alone(monkeypatch):
    """The line search regroups the carried field values when the rows of
    one iteration accept at different halvings; each row still equals its
    run alone."""
    cfg = ExperimentConfig(channel="analog", k_values=(10,), trials=40, crlb_enabled=False)
    cells, ids = resolve_cells(cfg)
    calib = experiments._cell_calibration(cfg, cells[0])
    nets, zs, inits, _ = zip(
        *(experiments._trial_inputs(cfg, cells[0], ids[0], t, calib) for t in range(cfg.trials))
    )
    mixed = []
    real = estimators._backtrack

    def watching(value_fn, theta, f, ev, step, *rest):
        out = real(value_fn, theta, f, ev, step, *rest)
        moved = np.flatnonzero((out[0] != theta).any(axis=1))
        col = np.abs(step[moved]).argmax(axis=1)
        ratio = (out[0] - theta)[moved, col] / step[moved, col]
        mixed.append(len(set(np.rint(np.log2(ratio)).tolist())) > 1)
        return out

    monkeypatch.setattr(estimators, "_backtrack", watching)
    batch = newton_ml_analog_batch(zs, nets, GAUSSIAN_BELL, calib[1], inits, cfg.solver)
    monkeypatch.undo()
    assert any(mixed)  # precondition: some iteration's rows took different halvings
    for net, z, init, got in zip(nets, zs, inits, batch):
        alone = newton_ml_analog(z, net, GAUSSIAN_BELL, calib[1], init, cfg.solver)
        assert_same_outcome(got, alone)
