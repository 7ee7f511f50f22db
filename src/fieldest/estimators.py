"""Fusion-center estimators of the field parameters.

Sensor k's reading, its quantized level and its received word depend on
theta only through the field value g_k = G(x_k, y_k; theta), so every
log-likelihood here is sum_k l_k(g_k).  Each estimator computes the
per-sensor slopes l'_k and l''_k in g and lifts them to theta by one chain
rule: gradient sum_k l'_k grad G_k, Hessian
sum_k (l'_k H_k + l''_k grad G_k grad G_k^T).

Analog channel: damped Newton ascent on the Gaussian log-likelihood, a
weighted least-squares fit of the field to the readings.
Quantized channel: either EM on the latent pre-quantization readings (the
E-step computes the posterior means A_k = g_k + sigma_k^2 l'_k of the
readings; the M-step is the analog least-squares fit to A_k, solved by the
same inner damped Newton), or Newton-Raphson directly on the mixture
log-likelihood as a baseline.

All estimators are deterministic functions of (data, init, config) and report
their iterate path plus the incomplete-data log-likelihood per iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .channel import _p_derivatives_batch, level_probabilities
from .field import FieldParams, N_PARAMS

_SQRT2 = np.sqrt(2.0)


class EstimationError(RuntimeError):
    """Numerical breakdown inside an estimator."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration knobs shared by all estimators.

    tol: componentwise threshold on |delta theta| for stopping;
    max_outer: outer (EM or Newton) iteration cap;
    max_inner: inner Newton cap for the EM M-step (the analog least-squares
        fit to the posterior means);
    damping: number of step-halvings the backtracking line search may take;
    ridge: Hessian regularization used only when factorization fails.
    """

    tol: float = 1e-6
    max_outer: int = 200
    max_inner: int = 50
    damping: int = 20
    ridge: float = 1e-8

    def __post_init__(self):
        if not (
            self.tol > 0
            and self.max_outer > 0
            and self.max_inner > 0
            and self.damping > 0
            and self.ridge > 0
        ):
            raise ValueError("all solver settings must be positive")


@dataclass
class EstimateResult:
    """Outcome of one estimator run; trace rows are iterates (row 0 = init)."""

    theta_hat: FieldParams
    trace: np.ndarray
    loglik_trace: np.ndarray
    converged: bool
    iterations: int
    divergence_reason: str | None = None


def q_function(x):
    """Standard Gaussian tail probability Q(x) = P[N(0,1) > x]."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def _theta_ok(theta):
    return np.all(np.isfinite(theta)) and theta[1] > 0 and theta[2] > 0


def _newton_direction(hess, grad, cfg):
    """Solve hess @ p = -grad, adding a trace-scaled ridge only if the plain
    factorization fails; None when even the ridged system is unusable."""
    try:
        p = np.linalg.solve(hess, -grad)
        if np.all(np.isfinite(p)):
            return p
    except np.linalg.LinAlgError:
        pass
    lam = cfg.ridge * max(1.0, abs(float(np.trace(hess))) / hess.shape[0])
    try:
        p = np.linalg.solve(hess - lam * np.eye(hess.shape[0]), -grad)
    except np.linalg.LinAlgError:
        return None
    return p if np.all(np.isfinite(p)) else None


def _damped_newton_ascent(value_fn, derivs_fn, theta0, cfg, grad_tol, max_iter, stall_limit=3):
    """Maximize value_fn from theta0 by damped Newton with backtracking.

    Steps are halved (up to cfg.damping times) until the objective does not
    decrease and the iterate stays valid (positive spreads).  Convergence
    means the gradient sup-norm fell below grad_tol with the last step within
    tol.  Returns (trace list, value list, converged, reason).
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if not _theta_ok(theta):
        raise ValueError(f"invalid initial parameters {theta}")
    f = value_fn(theta)
    trace = [theta.copy()]
    values = [f]
    if not np.isfinite(f):
        return trace, values, False, "nonfinite_objective"
    converged = False
    reason = None
    last_delta = None
    stalls = 0
    for _ in range(max_iter):
        grad, hess = derivs_fn(theta)
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            reason = "nonfinite_derivatives"
            break
        if np.max(np.abs(grad)) < grad_tol and (last_delta is None or last_delta <= cfg.tol):
            converged = True
            break
        step = _newton_direction(hess, grad, cfg)
        if step is None:
            reason = "singular"
            break
        if float(grad @ step) <= 0.0:
            # indefinite Hessian: modified Newton (eigenvalue magnitudes)
            # keeps curvature scaling while guaranteeing an ascent direction
            vals, vecs = np.linalg.eigh(hess)
            scale = np.maximum(np.abs(vals), 1e-8 * np.max(np.abs(vals)) + 1e-300)
            step = vecs @ ((vecs.T @ grad) / scale)
        alpha = 1.0
        accepted = False
        for _ in range(cfg.damping + 1):
            cand = theta + alpha * step
            if cand[1] > 0 and cand[2] > 0:
                fc = value_fn(cand)
                if np.isfinite(fc) and fc >= f:
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            reason = "line_search_failed"
            break
        last_delta = float(np.max(np.abs(cand - theta)))
        theta = cand
        f = fc
        trace.append(theta.copy())
        values.append(f)
        if last_delta <= cfg.tol:
            stalls += 1
            if stalls >= stall_limit:
                reason = "stalled"
                break
        else:
            stalls = 0
    else:
        reason = "max_iterations"
    return trace, values, converged, (None if converged else reason)


def _chain(d1, d2, grads, hesses):
    """Gradient and Hessian in theta of sum_k l_k(g_k), given the per-sensor
    slopes d1 = l' and d2 = l'' (the chain rule of the module docstring)."""
    hess = np.einsum("k,kst->st", d1, hesses) + np.einsum("k,ks,kt->st", d2, grads, grads)
    return d1 @ grads, hess


def _pack_result(trace, values, converged, reason):
    arr = np.asarray(trace)
    return EstimateResult(
        theta_hat=FieldParams.from_array(arr[-1]),
        trace=arr,
        loglik_trace=np.asarray(values),
        converged=converged,
        iterations=arr.shape[0] - 1,
        divergence_reason=reason,
    )


# ---------------------------------------------------------------- analog ML


def loglik_analog(z, net, model, params, eta2):
    """Analog-channel log-likelihood -1/2 sum_k (z_k - G_k)^2/(sigma2_k + eta2_k)
    (additive constants dropped)."""
    zv = np.asarray(z.z, dtype=float)
    if zv.ndim != 1 or zv.shape[0] != net.k:
        raise ValueError("z must be a K-vector matching the network")
    eta2v = np.broadcast_to(np.asarray(eta2, dtype=float), (net.k,))
    g = model.value(params, net.x, net.y)
    return float(-0.5 * np.sum((zv - g) ** 2 / (net.sigma2 + eta2v)))


def _wls_ascent(target, w, net, model, theta0, cfg, grad_tol, max_iter, stall_limit):
    """Fit the field to per-sensor targets by damped Newton ascent on the
    weighted least-squares objective -1/2 sum_k w_k (target_k - G_k)^2.

    Analog ML fits the readings z with w = 1/(sigma2 + eta2); the EM M-step
    fits the posterior means A with w = 1/sigma2.
    """
    x, y = net.x, net.y

    def value(theta):
        g = model.value(FieldParams.from_array(theta), x, y)
        return float(-0.5 * np.sum(w * (target - g) ** 2))

    def derivs(theta):
        params = FieldParams.from_array(theta)
        g = model.value(params, x, y)
        return _chain(
            w * (target - g), -w, model.gradient(params, x, y), model.hessian(params, x, y)
        )

    return _damped_newton_ascent(value, derivs, theta0, cfg, grad_tol, max_iter, stall_limit)


def newton_ml_analog(z, net, model, eta2, init, cfg):
    """ML estimate over the analog channel by damped Newton ascent."""
    zv = np.asarray(z.z, dtype=float)
    if zv.ndim != 1 or zv.shape[0] != net.k:
        raise ValueError("z must be a K-vector matching the network")
    if net.sigma2 is None:
        raise ValueError("network has no calibrated sigma2")
    eta2v = np.broadcast_to(np.asarray(eta2, dtype=float), (net.k,))
    w = 1.0 / (net.sigma2 + eta2v)
    out = _wls_ascent(
        zv, w, net, model, init.as_array(), cfg,
        grad_tol=1e-4 * net.k, max_iter=cfg.max_outer, stall_limit=3,
    )
    return _pack_result(*out)


# ------------------------------------------------------------ quantized MLE


def _bit_distances(zmat, codebook, eta2v):
    """(K, M) array of -||z_k - b_j||^2 / (2 eta2_k)."""
    diff = zmat[:, None, :] - codebook[None, :, :]
    return -np.einsum("kja,kja->kj", diff, diff) / (2.0 * eta2v[:, None])


def _check_bits_input(z, net, quantizer, bm, eta2):
    """The received words as a (K, alpha) array and eta2 per sensor."""
    zmat = np.asarray(z.z, dtype=float)
    if zmat.ndim != 2 or zmat.shape != (net.k, bm.alpha):
        raise ValueError(f"z must be (K, alpha) = ({net.k}, {bm.alpha}), got {zmat.shape}")
    if quantizer.m != bm.m:
        raise ValueError("quantizer and bit mapper disagree on the level count")
    if net.sigma2 is None:
        raise ValueError("network has no calibrated sigma2")
    return zmat, np.broadcast_to(np.asarray(eta2, dtype=float), (net.k,))


def loglik_quantized(z, net, quantizer, bm, model, params, eta2):
    """Quantized-channel log-likelihood
    sum_k log sum_j p_kj(theta) exp(-||z_k - b_j||^2/(2 eta2_k)),
    stabilized by max-subtraction; additive constants dropped."""
    zmat, eta2v = _check_bits_input(z, net, quantizer, bm, eta2)
    g = model.value(params, net.x, net.y)
    p = level_probabilities(quantizer, g, np.sqrt(net.sigma2))
    d = _bit_distances(zmat, bm.codebook, eta2v)
    with np.errstate(divide="ignore"):
        a = np.log(p) + d
    amax = np.max(a, axis=1)
    if not np.all(np.isfinite(amax)):
        raise EstimationError("a received word has zero mixture mass at every level")
    s = np.exp(a - amax[:, None]).sum(axis=1)
    return float(np.sum(amax + np.log(s)))


def _loglik_slopes(zmat, quantizer, bm, g, sigma, eta2v):
    """First and second derivatives in g_k of each sensor's term
    l_k(g_k) = log sum_j p_kj(g_k) exp(-||z_k - b_j||^2/(2 eta2_k))."""
    p, dp, d2p = _p_derivatives_batch(quantizer, g, sigma)
    d = _bit_distances(zmat, bm.codebook, eta2v)
    with np.errstate(divide="ignore"):
        amax = np.max(np.log(p) + d, axis=1)
    # exp(d - amax) keeps the mixture sum >= ~1 while the exponent stays modest
    t = np.exp(np.minimum(d - amax[:, None], 700.0))
    den = np.einsum("kj,kj->k", p, t)
    d1 = np.einsum("kj,kj->k", dp, t) / den
    return d1, np.einsum("kj,kj->k", d2p, t) / den - d1 * d1


def _quantized_loglik_derivs(zmat, net, quantizer, bm, model, eta2v, theta):
    """Gradient and Hessian of the quantized log-likelihood at theta."""
    params = FieldParams.from_array(theta)
    g = model.value(params, net.x, net.y)
    d1, d2 = _loglik_slopes(zmat, quantizer, bm, g, np.sqrt(net.sigma2), eta2v)
    return _chain(
        d1, d2, model.gradient(params, net.x, net.y), model.hessian(params, net.x, net.y)
    )


def nr_estimate_quantized(z, net, quantizer, bm, model, eta2, init, cfg):
    """Newton-Raphson ascent directly on the quantized log-likelihood."""
    zmat, eta2v = _check_bits_input(z, net, quantizer, bm, eta2)

    def value(theta):
        return loglik_quantized(z, net, quantizer, bm, model, FieldParams.from_array(theta), eta2)

    def derivs(theta):
        return _quantized_loglik_derivs(zmat, net, quantizer, bm, model, eta2v, theta)

    out = _damped_newton_ascent(
        value, derivs, init.as_array(), cfg, grad_tol=1e-4 * net.k, max_iter=cfg.max_outer
    )
    return _pack_result(*out)


# -------------------------------------------------------------------- EM


def _em_quantities_batch(zmat, quantizer, bm, g, sigma, eta2v):
    """E-step for all sensors at once: A_k, the posterior mean E[R_k | z_k] of
    the latent reading under the current field values g, which is
    g_k + sigma_k^2 l'_k.  The posterior mass is 1 by construction, so the
    M-step surrogate sum_k (A_k G_k - G_k^2/2)/sigma2_k is the analog
    least-squares objective with A in place of the readings, up to a constant.
    """
    d1, _ = _loglik_slopes(zmat, quantizer, bm, g, sigma, eta2v)
    a_val = g + sigma * sigma * d1
    if not np.all(np.isfinite(a_val)):
        raise EstimationError("a received word has a non-finite posterior mean")
    return a_val


def em_quantities(z_k, quantizer, bm, g_m, sigma, eta2):
    """Single-sensor EM posterior mean A given the received word z_k, the
    current field value g_m at the sensor, and the noise levels."""
    zmat = np.asarray(z_k, dtype=float).reshape(1, -1)
    if zmat.shape[1] != bm.alpha:
        raise ValueError(f"z_k must have alpha={bm.alpha} entries")
    a_val = _em_quantities_batch(
        zmat,
        quantizer,
        bm,
        np.atleast_1d(np.asarray(g_m, dtype=float)),
        np.atleast_1d(np.asarray(sigma, dtype=float)),
        np.atleast_1d(np.asarray(eta2, dtype=float)),
    )
    return float(a_val[0])


def _em_map(zmat, net, quantizer, bm, model, eta2v, theta, cfg, done):
    """One EM cycle from theta: the E-step, the M-step score at theta (which
    equals the incomplete-data score) and, unless done(score, inner_tol),
    the analog least-squares fit of the field to the posterior means.
    Returns (score, new theta or None, the inner solver's reason if it found
    no ascent step at all, else None)."""
    params = FieldParams.from_array(theta)
    w = 1.0 / net.sigma2
    tol = 1e-7 * net.k * max(1.0, float(np.mean(w)))
    g = model.value(params, net.x, net.y)
    a_val = _em_quantities_batch(zmat, quantizer, bm, g, np.sqrt(net.sigma2), eta2v)
    score = (w * (a_val - g)) @ model.gradient(params, net.x, net.y)
    if done(score, tol):
        return score, None, None
    trace, _, _, reason = _wls_ascent(
        a_val, w, net, model, theta, cfg, tol, cfg.max_inner, stall_limit=1
    )
    stuck = reason not in (None, "stalled", "max_iterations") and np.array_equal(trace[-1], theta)
    return score, trace[-1], (reason if stuck else None)


def em_step(z, net, quantizer, bm, model, eta2, theta_m, cfg):
    """One EM cycle: the E-step at theta_m, then the analog least-squares
    fit of the field to the posterior means."""
    zmat, eta2v = _check_bits_input(z, net, quantizer, bm, eta2)
    _, new_theta, failure = _em_map(
        zmat, net, quantizer, bm, model, eta2v, theta_m.as_array(), cfg,
        lambda score, tol: np.max(np.abs(score)) < tol,
    )
    if new_theta is None:
        return theta_m  # already a fixed point
    if failure is not None:
        raise EstimationError(f"inner solver failed: {failure}")
    return FieldParams.from_array(new_theta)


def em_estimate(z, net, quantizer, bm, model, eta2, init, cfg):
    """Full EM run; the trace records the quantized log-likelihood, which is
    non-decreasing along EM iterates up to roundoff."""
    zmat, eta2v = _check_bits_input(z, net, quantizer, bm, eta2)
    theta = init.as_array().copy()
    if not _theta_ok(theta):
        raise ValueError(f"invalid initial parameters {theta}")

    def loglik(theta_arr):
        return loglik_quantized(
            z, net, quantizer, bm, model, FieldParams.from_array(theta_arr), eta2
        )

    trace = [theta.copy()]
    values = [loglik(theta)]
    converged = False
    prev_step = None
    stalls = 0
    score_tol = 1e-5 * net.k

    def done(score, _inner_tol):
        return (prev_step is None or prev_step <= cfg.tol) and np.max(np.abs(score)) < score_tol

    for _ in range(cfg.max_outer):
        score, new_theta, failure = _em_map(
            zmat, net, quantizer, bm, model, eta2v, theta, cfg, done
        )
        if new_theta is None or failure is not None:
            # done, or the surrogate admits no ascent step at all from here,
            # which is a stationary point when the score is small
            converged = new_theta is None or np.max(np.abs(score)) < score_tol
            reason = f"inner:{failure}"  # reported only when not converged
            break
        # a partially maximized surrogate is still a valid step (the ascent
        # property only needs improvement), so keep iterating on progress
        prev_step = float(np.max(np.abs(new_theta - theta)))
        theta = new_theta
        trace.append(theta.copy())
        values.append(loglik(theta))
        stalls = stalls + 1 if prev_step <= cfg.tol else 0
        if stalls >= 3 and np.max(np.abs(score)) >= score_tol:
            reason = "stalled"
            break
    else:
        reason = "max_iterations"
    return _pack_result(trace, values, converged, None if converged else reason)
