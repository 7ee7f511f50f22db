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

Every Newton iteration here runs in one damped-Newton core,
``_damped_newton_ascent``, batched over a leading trial axis: iterates are
(T, 5), sensor arrays (T, K), the Newton systems one stacked solve, and the
line search keeps a mask of the rows still searching.  A row leaves the
working set when it converges, stalls, fails or hits the cap, and the set is
compacted only then.  Each row's arithmetic is the same as if it ran alone,
so a trial's estimate does not depend on the batch it ran in, bit for bit.
``newton_ml_analog_batch`` runs T analog trials as one batch and
``newton_ml_analog`` is a batch of one; the EM M-step and NR keep their
per-trial outer loops and run the core with T = 1.

All estimators are deterministic functions of (data, init, config) and report
their iterate path plus the incomplete-data log-likelihood per iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import erfc

from .channel import _p_derivatives_batch, level_probabilities
from .field import FieldParams

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
    """Whether a parameter vector, or each row of a stack, is finite with
    positive spreads."""
    return np.isfinite(theta).all(axis=-1) & (theta[..., 1] > 0) & (theta[..., 2] > 0)


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


def _modified_steps(grad, hess):
    """Modified Newton steps for a stack of indefinite Hessians: the
    eigenvalue magnitudes keep the curvature scaling while guaranteeing an
    ascent direction."""
    vals, vecs = np.linalg.eigh(hess)
    absv = np.abs(vals)
    scale = np.maximum(absv, 1e-8 * absv.max(axis=1, keepdims=True) + 1e-300)
    proj = np.matmul(np.swapaxes(vecs, 1, 2), grad[:, :, None])[:, :, 0] / scale
    return np.matmul(vecs, proj[:, :, None])[:, :, 0]


# How a row leaves the working set of the ascent; code 0 is still working.
_ENDS = (
    None, None, "nonfinite_objective", "nonfinite_derivatives", "singular",
    "line_search_failed", "stalled", "max_iterations",
)
_CONVERGED, _NONFINITE_F, _NONFINITE_D, _SINGULAR, _NO_ASCENT, _STALLED, _CAPPED = range(1, 8)


def _any(mask):
    """mask.any(), by a count: on the few-row masks of the ascent loop
    NumPy's reduction machinery costs more than the test itself."""
    return np.count_nonzero(mask) > 0


def _all(mask):
    """mask.all(), by a count (see _any)."""
    return np.count_nonzero(mask) == mask.size


def _ascent_steps(grad, hess, cfg):
    """Ascent directions for a stack of Newton systems, by one stacked solve.
    Rows whose plain solve is unusable, or every row when one matrix of the
    stack is singular, go through ``_newton_direction`` one at a time; rows
    whose Newton step points downhill take the modified step.  Returns
    (steps, end codes 0 or _SINGULAR, or None when every row has a step)."""
    end = None
    try:
        step = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        finite = np.isfinite(step)
        retry = () if _all(finite) else np.flatnonzero(~finite.all(axis=1))
    except np.linalg.LinAlgError:
        step = np.zeros_like(grad)
        retry = range(len(grad))
    if len(retry):
        end = np.zeros(len(grad), dtype=int)
        for i in retry:
            p = _newton_direction(hess[i], grad[i], cfg)
            end[i] = _SINGULAR if p is None else 0
            step[i] = 0.0 if p is None else p
    uphill = np.matmul(grad[:, None, :], step[:, :, None])[:, 0, 0] <= 0.0
    if end is not None:
        uphill &= end == 0
    if _any(uphill):
        step[uphill] = _modified_steps(grad[uphill], hess[uphill])
    return step, end


_ALL = slice(None)
_NO_ROWS = np.empty(0, dtype=int)


def _backtrack(value_fn, theta, f, step, data, todo, cfg):
    """Backtracking line search of the rows todo (an index array, or _ALL):
    each halves its step (up to cfg.damping times) until the objective does
    not decrease at a valid iterate (positive spreads).  All rows still
    searching are on the same halving, and only they are evaluated.  Returns
    (iterates, objectives, indices of the rows that found no such step);
    rows that take no step keep theta and f."""
    n = len(theta)
    cand, fc = theta, f
    alpha = 1.0
    for _ in range(cfg.damping + 1):
        whole = todo is _ALL
        trial = theta + alpha * step if whole else theta[todo] + alpha * step[todo]
        at = todo
        positive = trial[:, 1:3] > 0
        if not _all(positive):
            valid = positive.all(axis=1)
            at, trial, whole = np.arange(n)[todo][valid], trial[valid], False
        if len(trial):
            ft = value_fn(trial, *(data if whole else (a[at] for a in data)))
            up = np.isfinite(ft) & (ft >= (f if whole else f[at]))
            if whole and _all(up):
                return trial, ft, _NO_ROWS
            if _any(up):
                if cand is theta:
                    cand, fc = theta.copy(), f.copy()
                won = np.arange(n)[at][up]
                cand[won], fc[won] = trial[up], ft[up]
                left = np.zeros(n, dtype=bool)
                left[todo] = True
                left[won] = False
                todo = np.flatnonzero(left)
                if not len(todo):
                    break
        alpha *= 0.5
    return cand, fc, np.arange(n)[todo]


def _damped_newton_ascent(value_fn, derivs_fn, theta0, data, cfg, grad_tol, max_iter, stall_limit=3):
    """Maximize each of T objectives from its row of theta0 (T, 5) by damped
    Newton with backtracking, all T as one array program.

    ``value_fn(theta, *data)`` gives the (n,) objectives and
    ``derivs_fn(theta, *data)`` the (n, 5) gradients and (n, 5, 5) Hessians
    of n working rows, where each array in ``data`` has one row per trial.
    Convergence means the gradient sup-norm fell below grad_tol with the last
    step within tol.  A row leaves the working set when it converges, fails,
    stalls or reaches max_iter; the set is compacted only then, and every
    row's arithmetic is the same as if it ran alone.  Returns, per row,
    (trace, values, converged, reason).
    """
    theta = np.array(theta0, dtype=float)
    if not (_all(np.isfinite(theta)) and _all(theta[:, 1:3] > 0)):
        raise ValueError(f"invalid initial parameters {theta[~_theta_ok(theta)][0]}")
    n_rows = len(theta)
    rows = np.arange(n_rows)
    ends = [_CAPPED] * n_rows  # what is still working at the cap
    f = value_fn(theta, *data)
    log = [(rows, theta, f)]
    # per-row scalars: the last step's sup-norm (0 before the first step, so
    # the step test passes) and the run of steps within tol
    last_delta = [0.0] * n_rows
    stalls = [0] * n_rows

    def settle(end, *extra):
        """Record the rows with a non-zero end code, drop them from the
        working set and return extra without them."""
        nonlocal rows, theta, f, last_delta, stalls, data
        for r, code in zip(rows.tolist(), end):
            if code:
                ends[r] = code
        keep = [i for i, code in enumerate(end) if not code]
        if not keep:
            rows = rows[:0]
            return extra
        rows, theta, f = rows[keep], theta[keep], f[keep]
        last_delta = [last_delta[i] for i in keep]
        stalls = [stalls[i] for i in keep]
        data = tuple(a[keep] for a in data)
        return tuple(a[keep] for a in extra)

    finite = np.isfinite(f).tolist()
    if not all(finite):
        settle([0 if ok else _NONFINITE_F for ok in finite])
    for _ in range(max_iter):
        if not len(rows):
            break
        grad, hess = derivs_fn(theta, *data)
        gmax = np.abs(grad).max(axis=1).tolist()  # NaN or inf unless the row is finite
        hfin = np.isfinite(hess).all(axis=(1, 2)).tolist()
        end = [
            _NONFINITE_D if not (ok and math.isfinite(g))
            else _CONVERGED if g < grad_tol and d <= cfg.tol else 0
            for g, ok, d in zip(gmax, hfin, last_delta)
        ]
        if any(end):
            grad, hess = settle(end, grad, hess)
            if not len(rows):
                break
        step, end = _ascent_steps(grad, hess, cfg)
        todo = _ALL if end is None else np.flatnonzero(end == 0)
        cand, fc, failed = _backtrack(value_fn, theta, f, step, data, todo, cfg)
        last_delta = np.abs(cand - theta).max(axis=1).tolist()
        stalls = [s + 1 if d <= cfg.tol else 0 for s, d in zip(stalls, last_delta)]
        theta, f = cand, fc
        if end is None and not len(failed):  # every row took a step
            log.append((rows, theta, f))
            if max(stalls) < stall_limit:
                continue
            end = [_STALLED if s >= stall_limit else 0 for s in stalls]
        else:
            end = np.zeros(len(rows), dtype=int) if end is None else end
            end[failed] = _NO_ASCENT
            moved = end == 0
            log.append((rows[moved], theta[moved], f[moved]))
            end = [
                _STALLED if code == 0 and s >= stall_limit else code
                for code, s in zip(end.tolist(), stalls)
            ]
        settle(end)
    ids = np.concatenate([r for r, _, _ in log])
    order = np.argsort(ids, kind="stable")
    traces = np.concatenate([t for _, t, _ in log])[order]
    values = np.concatenate([v for _, _, v in log])[order]
    edges = [0, *np.cumsum(np.bincount(ids, minlength=n_rows)).tolist()]
    return [
        (traces[a:b], values[a:b], code == _CONVERGED, _ENDS[code])
        for code, a, b in zip(ends, edges, edges[1:])
    ]


def _chain(d1, d2, grads, hesses):
    """Gradients and Hessians in theta of sum_k l_k(g_k) for a stack of
    trials, given the per-sensor slopes d1 = l' and d2 = l'' as (T, K) arrays
    (the chain rule of the module docstring)."""
    hess = np.einsum("nk,nkst->nst", d1, hesses) + np.einsum(
        "nk,nks,nkt->nst", d2, grads, grads
    )
    return np.matmul(d1[:, None, :], grads)[:, 0], hess


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


def _row_params(theta):
    """Field parameters of the rows of theta (n, 5) for the (n, K) sensor
    arrays: (n, 1) columns, or plain floats for one row, which broadcast the
    same way and take NumPy's cheaper scalar path."""
    return FieldParams.from_array(theta[0] if len(theta) == 1 else theta)


def _wls_value(model, theta, target, w, x, y):
    g = model.value(_row_params(theta), x, y)
    return -0.5 * (w * (target - g) ** 2).sum(axis=1)


def _wls_derivs(model, theta, target, w, x, y):
    params = _row_params(theta)
    g = model.value(params, x, y)
    return _chain(w * (target - g), -w, model.gradient(params, x, y), model.hessian(params, x, y))


def _wls_ascent(target, w, x, y, model, theta0, cfg, grad_tol, max_iter, stall_limit):
    """Fit the field to per-sensor targets by damped Newton ascent on the
    weighted least-squares objective -1/2 sum_k w_k (target_k - G_k)^2, for a
    stack of trials: theta0 is (T, 5) and target, w and the sensor
    coordinates x, y are (T, K).

    Analog ML fits the readings z with w = 1/(sigma2 + eta2); the EM M-step
    fits the posterior means A with w = 1/sigma2.
    """
    return _damped_newton_ascent(
        partial(_wls_value, model), partial(_wls_derivs, model), theta0, (target, w, x, y),
        cfg, grad_tol, max_iter, stall_limit,
    )


def newton_ml_analog_batch(zs, nets, model, eta2, inits, cfg):
    """ML estimates of T analog-channel trials with the same sensor count K,
    by one damped Newton ascent over the stack.  Returns each trial's
    EstimateResult, in trial order; each equals ``newton_ml_analog`` on that
    trial alone, bit for bit."""
    k = nets[0].k
    for z, net in zip(zs, nets, strict=True):
        if np.shape(z.z) != (net.k,):
            raise ValueError("z must be a K-vector matching the network")
        if net.sigma2 is None:
            raise ValueError("network has no calibrated sigma2")
        if net.k != k:
            raise ValueError("the trials of a batch must share the sensor count")
    zv = np.array([z.z for z in zs], dtype=float)
    eta2v = np.broadcast_to(np.asarray(eta2, dtype=float), (k,))
    w = 1.0 / (np.array([net.sigma2 for net in nets]) + eta2v)
    outcomes = _wls_ascent(
        zv, w, np.array([net.x for net in nets]), np.array([net.y for net in nets]), model,
        np.array([init.as_array() for init in inits]), cfg,
        grad_tol=1e-4 * k, max_iter=cfg.max_outer, stall_limit=3,
    )
    return [_pack_result(*out) for out in outcomes]


def newton_ml_analog(z, net, model, eta2, init, cfg):
    """ML estimate over the analog channel by damped Newton ascent."""
    (result,) = newton_ml_analog_batch([z], [net], model, eta2, [init], cfg)
    return result


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
    grads, hesses = model.gradient(params, net.x, net.y), model.hessian(params, net.x, net.y)
    grad, hess = _chain(d1[None], d2[None], grads[None], hesses[None])
    return grad[0], hess[0]


def nr_estimate_quantized(z, net, quantizer, bm, model, eta2, init, cfg):
    """Newton-Raphson ascent directly on the quantized log-likelihood, as a
    batch of one."""
    zmat, eta2v = _check_bits_input(z, net, quantizer, bm, eta2)

    def value(theta):
        params = FieldParams.from_array(theta[0])
        return np.array([loglik_quantized(z, net, quantizer, bm, model, params, eta2)])

    def derivs(theta):
        grad, hess = _quantized_loglik_derivs(zmat, net, quantizer, bm, model, eta2v, theta[0])
        return grad[None], hess[None]

    out = _damped_newton_ascent(
        value, derivs, init.as_array()[None], (), cfg,
        grad_tol=1e-4 * net.k, max_iter=cfg.max_outer,
    )
    return _pack_result(*out[0])


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
    ((trace, _, _, reason),) = _wls_ascent(
        a_val[None], w[None], net.x[None], net.y[None], model, theta[None], cfg,
        tol, cfg.max_inner, stall_limit=1,
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
