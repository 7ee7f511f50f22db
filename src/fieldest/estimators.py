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

Nothing is evaluated twice at one iterate.  The core's objective returns,
beside each row's value, its evaluation (the field values g, and for the
quantized likelihood also the level probabilities p and the row maxima of
log p + d), which travels with the iterate through the line search to the
derivatives.  A quantized trial's bit distances d are computed once; in EM,
one evaluation of each new iterate gives its log-likelihood, the next
E-step and the M-step's starting point, and the M-step hands back the field
values at its last iterate.

All estimators are deterministic functions of (data, init, config) and report
their iterate path plus the incomplete-data log-likelihood per iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import _p_slope, _p_slopes, level_probabilities
from .field import FieldParams


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


def _backtrack(value_fn, theta, f, ev, step, data, todo, cfg):
    """Backtracking line search of the rows todo (an index array, or _ALL):
    each halves its step (up to cfg.damping times) until the objective does
    not decrease at a valid iterate (positive spreads).  All rows still
    searching are on the same halving, and only they are evaluated.  Returns
    (iterates, objectives, evaluations, indices of the rows that found no
    such step); rows that take no step keep theta, f and their rows of ev."""
    n = len(theta)
    cand, fc, evc = theta, f, ev
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
            ft, evt = value_fn(trial, *(data if whole else (a[at] for a in data)))
            up = np.isfinite(ft) & (ft >= (f if whole else f[at]))
            if whole and _all(up):
                return trial, ft, evt, _NO_ROWS
            if _any(up):
                if cand is theta:
                    cand, fc, evc = theta.copy(), f.copy(), tuple(a.copy() for a in ev)
                won = np.arange(n)[at][up]
                cand[won], fc[won] = trial[up], ft[up]
                for a, b in zip(evc, evt):
                    a[won] = b[up]
                left = np.zeros(n, dtype=bool)
                left[todo] = True
                left[won] = False
                todo = np.flatnonzero(left)
                if not len(todo):
                    break
        alpha *= 0.5
    return cand, fc, evc, np.arange(n)[todo]


def _damped_newton_ascent(
    value_fn, derivs_fn, theta0, data, cfg, grad_tol, max_iter, stall_limit=3, start=None
):
    """Maximize each of T objectives from its row of theta0 (T, 5) by damped
    Newton with backtracking, all T as one array program.

    ``value_fn(theta, *data)`` gives the (n,) objectives of n working rows
    and their evaluation: a tuple of per-row by-products (the field values,
    say), which ``derivs_fn(theta, *evaluation, *data)`` reuses to give the
    (n, 5) gradients and (n, 5, 5) Hessians at the same rows.  Each array in
    ``data`` has one row per trial.  The evaluation travels with its iterate
    through the line search and the working set, so no iterate is evaluated
    twice; ``start`` gives (f, evaluation) at theta0 when the caller already
    has them.  Convergence means the gradient sup-norm fell below grad_tol
    with the last step within tol.  A row leaves the working set when it
    converges, fails, stalls or reaches max_iter; the set is compacted only
    then, and every row's arithmetic is the same as if it ran alone.
    Returns, per row, (trace, values, converged, reason, the evaluation at
    its last iterate).
    """
    theta = np.array(theta0, dtype=float)
    if not (_all(np.isfinite(theta)) and _all(theta[:, 1:3] > 0)):
        raise ValueError(f"invalid initial parameters {theta[~_theta_ok(theta)][0]}")
    n_rows = len(theta)
    rows = np.arange(n_rows)
    ends = [0] * n_rows
    lasts = [()] * n_rows
    f, ev = value_fn(theta, *data) if start is None else start
    log = [(rows, theta, f)]
    # per-row scalars: the last step's sup-norm (0 before the first step, so
    # the step test passes) and the run of steps within tol
    last_delta = [0.0] * n_rows
    stalls = [0] * n_rows

    def settle(end, *extra):
        """Record the rows with a non-zero end code and their last
        evaluation, drop them from the working set and return extra without
        them."""
        nonlocal rows, theta, f, ev, last_delta, stalls, data
        for i, (r, code) in enumerate(zip(rows.tolist(), end)):
            if code:
                ends[r] = code
                lasts[r] = tuple(a[i] for a in ev)
        keep = [i for i, code in enumerate(end) if not code]
        if not keep:
            rows = rows[:0]
            return extra
        rows, theta, f = rows[keep], theta[keep], f[keep]
        ev = tuple(a[keep] for a in ev)
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
        grad, hess = derivs_fn(theta, *ev, *data)
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
        cand, fc, ev, failed = _backtrack(value_fn, theta, f, ev, step, data, todo, cfg)
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
    if len(rows):  # still working at the cap
        settle([_CAPPED] * len(rows))
    ids = np.concatenate([r for r, _, _ in log])
    order = np.argsort(ids, kind="stable")
    traces = np.concatenate([t for _, t, _ in log])[order]
    values = np.concatenate([v for _, _, v in log])[order]
    edges = [0, *np.cumsum(np.bincount(ids, minlength=n_rows)).tolist()]
    return [
        (traces[a:b], values[a:b], code == _CONVERGED, _ENDS[code], last)
        for code, last, a, b in zip(ends, lasts, edges, edges[1:])
    ]


def _chain(d1, d2, grads, hesses):
    """Gradients and Hessians in theta of sum_k l_k(g_k) for a stack of
    trials, given the per-sensor slopes d1 = l' and d2 = l'' as (T, K) arrays
    (the chain rule of the module docstring)."""
    hess = np.einsum("nk,nkst->nst", d1, hesses) + np.einsum(
        "nk,nks,nkt->nst", d2, grads, grads
    )
    return np.matmul(d1[:, None, :], grads)[:, 0], hess


def _pack_result(trace, values, converged, reason, _last=()):
    """An EstimateResult from one row of the ascent's outcome."""
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


def _row_params(theta):
    """Field parameters of the rows of theta (n, 5) for the (n, K) sensor
    arrays: (n, 1) columns, or plain floats for one row, which broadcast the
    same way and take NumPy's cheaper scalar path."""
    return FieldParams.from_array(theta[0] if len(theta) == 1 else theta)


def _wls_objective(g, target, w):
    return -0.5 * (w * (target - g) ** 2).sum(axis=1)


def loglik_analog(z, net, model, params, eta2):
    """Analog-channel log-likelihood -1/2 sum_k w_k (z_k - G_k)^2 with
    w_k = 1/(sigma2_k + eta2_k), additive constants dropped: the objective
    that ``newton_ml_analog`` maximises."""
    zv = np.asarray(z.z, dtype=float)
    if zv.ndim != 1 or zv.shape[0] != net.k:
        raise ValueError("z must be a K-vector matching the network")
    w = 1.0 / (net.sigma2 + np.broadcast_to(np.asarray(eta2, dtype=float), (net.k,)))
    g = model.value(params, net.x, net.y)
    return float(_wls_objective(g[None], zv[None], w[None])[0])


def _wls_value(model, theta, target, w, x, y):
    """The least-squares objectives of the rows of theta, and their field
    values as the evaluation."""
    g = model.value(_row_params(theta), x, y)
    return _wls_objective(g, target, w), (g,)


def _wls_derivs(model, theta, g, target, w, x, y):
    params = _row_params(theta)
    return _chain(w * (target - g), -w, model.gradient(params, x, y), model.hessian(params, x, y))


def _wls_ascent(target, w, x, y, model, theta0, cfg, grad_tol, max_iter, stall_limit, g0=None):
    """Fit the field to per-sensor targets by damped Newton ascent on the
    weighted least-squares objective -1/2 sum_k w_k (target_k - G_k)^2, for a
    stack of trials: theta0 is (T, 5) and target, w and the sensor
    coordinates x, y are (T, K); g0, when given, holds the field values at
    theta0.

    Analog ML fits the readings z with w = 1/(sigma2 + eta2); the EM M-step
    fits the posterior means A with w = 1/sigma2.
    """
    return _damped_newton_ascent(
        partial(_wls_value, model), partial(_wls_derivs, model), theta0, (target, w, x, y),
        cfg, grad_tol, max_iter, stall_limit,
        start=None if g0 is None else (_wls_objective(g0, target, w), (g0,)),
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


@dataclass(frozen=True, eq=False)
class _Mixture:
    """One trial's quantized log-likelihood as a function of the field
    values g: sum_k l_k(g_k) with l_k(g) = log sum_j p_j(g; sigma_k) e^{d_kj},
    where d holds the trial's ``_bit_distances``, computed once."""

    quantizer: object
    sigma: np.ndarray
    d: np.ndarray

    @classmethod
    def of(cls, zmat, quantizer, bm, sigma, eta2v):
        return cls(quantizer, sigma, _bit_distances(zmat, bm.codebook, eta2v))

    def at(self, g):
        """(sum_k l_k, p, amax) at the field values g, stabilized by
        max-subtraction: the level probabilities p and the row maxima amax
        of log p + d are the evaluation that the slopes at g reuse."""
        p = level_probabilities(self.quantizer, g, self.sigma)
        with np.errstate(divide="ignore"):
            a = np.log(p) + self.d
        amax = np.max(a, axis=1)
        if not np.all(np.isfinite(amax)):
            raise EstimationError("a received word has zero mixture mass at every level")
        s = np.exp(a - amax[:, None]).sum(axis=1)
        return float(np.sum(amax + np.log(s))), p, amax

    def _ratios(self, p, amax, *tables):
        """sum_j s_kj e^{d_kj} / sum_j p_kj e^{d_kj} for each (K, M) table s,
        given p and amax from ``at(g)``."""
        # exp(d - amax) keeps the mixture sum >= ~1 while the exponent stays modest
        t = np.exp(np.minimum(self.d - amax[:, None], 700.0))
        den = np.einsum("kj,kj->k", p, t)
        return [np.einsum("kj,kj->k", s, t) / den for s in tables]

    def slopes(self, g, p, amax):
        """First and second derivatives l'_k and l''_k at g, given p and
        amax from ``at(g)``."""
        d1, ratio2 = self._ratios(p, amax, *_p_slopes(self.quantizer, g, self.sigma))
        return d1, ratio2 - d1 * d1

    def posterior_means(self, g, p, amax):
        """E-step for all sensors at once: A_k, the posterior mean
        E[R_k | z_k] of the latent reading under the field values g, which
        is g_k + sigma_k^2 l'_k.  The posterior mass is 1 by construction, so
        the M-step surrogate sum_k (A_k G_k - G_k^2/2)/sigma2_k is the analog
        least-squares objective with A in place of the readings, up to a
        constant."""
        (d1,) = self._ratios(p, amax, _p_slope(self.quantizer, g, self.sigma)[0])
        a_val = g + self.sigma * self.sigma * d1
        if not np.all(np.isfinite(a_val)):
            raise EstimationError("a received word has a non-finite posterior mean")
        return a_val


def _trial_mixture(z, net, quantizer, bm, eta2):
    """The mixture of one trial's received words z, checked against the
    network and the quantizer."""
    zmat = np.asarray(z.z, dtype=float)
    if zmat.ndim != 2 or zmat.shape != (net.k, bm.alpha):
        raise ValueError(f"z must be (K, alpha) = ({net.k}, {bm.alpha}), got {zmat.shape}")
    if quantizer.m != bm.m:
        raise ValueError("quantizer and bit mapper disagree on the level count")
    if net.sigma2 is None:
        raise ValueError("network has no calibrated sigma2")
    eta2v = np.broadcast_to(np.asarray(eta2, dtype=float), (net.k,))
    return _Mixture.of(zmat, quantizer, bm, np.sqrt(net.sigma2), eta2v)


def loglik_quantized(z, net, quantizer, bm, model, params, eta2):
    """Quantized-channel log-likelihood
    sum_k log sum_j p_kj(theta) exp(-||z_k - b_j||^2/(2 eta2_k)),
    stabilized by max-subtraction; additive constants dropped."""
    mix = _trial_mixture(z, net, quantizer, bm, eta2)
    return mix.at(model.value(params, net.x, net.y))[0]


def _nr_value(mix, model, net, theta):
    """NR's objective at one row theta (1, 5), with (g, p, amax) as its
    evaluation."""
    g = model.value(_row_params(theta), net.x, net.y)
    ll, p, amax = mix.at(g)
    return np.array([ll]), (g[None], p[None], amax[None])


def _nr_derivs(mix, model, net, theta, g, p, amax):
    """Gradient and Hessian of the quantized log-likelihood at one row theta,
    from its evaluation."""
    params = _row_params(theta)
    d1, d2 = mix.slopes(g[0], p[0], amax[0])
    grads, hesses = model.gradient(params, net.x, net.y), model.hessian(params, net.x, net.y)
    return _chain(d1[None], d2[None], grads[None], hesses[None])


def _quantized_loglik_derivs(zmat, net, quantizer, bm, model, eta2v, theta):
    """Gradient and Hessian of the quantized log-likelihood at theta."""
    mix = _Mixture.of(zmat, quantizer, bm, np.sqrt(net.sigma2), eta2v)
    theta = np.asarray(theta, dtype=float)[None]
    grad, hess = _nr_derivs(mix, model, net, theta, *_nr_value(mix, model, net, theta)[1])
    return grad[0], hess[0]


def nr_estimate_quantized(z, net, quantizer, bm, model, eta2, init, cfg):
    """Newton-Raphson ascent directly on the quantized log-likelihood, as a
    batch of one."""
    mix = _trial_mixture(z, net, quantizer, bm, eta2)
    out = _damped_newton_ascent(
        partial(_nr_value, mix, model, net), partial(_nr_derivs, mix, model, net),
        init.as_array()[None], (), cfg, grad_tol=1e-4 * net.k, max_iter=cfg.max_outer,
    )
    return _pack_result(*out[0])


# -------------------------------------------------------------------- EM


def em_quantities(z_k, quantizer, bm, g_m, sigma, eta2):
    """Single-sensor EM posterior mean A given the received word z_k, the
    current field value g_m at the sensor, and the noise levels (see
    ``_Mixture.posterior_means``)."""
    zmat = np.asarray(z_k, dtype=float).reshape(1, -1)
    if zmat.shape[1] != bm.alpha:
        raise ValueError(f"z_k must have alpha={bm.alpha} entries")
    sigma, eta2 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (sigma, eta2))
    mix = _Mixture.of(zmat, quantizer, bm, sigma, eta2)
    g = np.atleast_1d(np.asarray(g_m, dtype=float))
    return float(mix.posterior_means(g, *mix.at(g)[1:])[0])


def _em_score(net, model, theta, g, a_val):
    """The M-step score at theta, sum_k (A_k - g_k)/sigma2_k grad G_k, which
    equals the incomplete-data score there."""
    return (1.0 / net.sigma2 * (a_val - g)) @ model.gradient(
        FieldParams.from_array(theta), net.x, net.y
    )


def _em_inner_tol(net):
    return 1e-7 * net.k * max(1.0, float(np.mean(1.0 / net.sigma2)))


def _m_step(net, model, theta, g, a_val, cfg):
    """The analog least-squares fit of the field to the posterior means A,
    from theta with field values g.  Returns (the new theta, its field
    values, the inner solver's reason if it found no ascent step at all,
    else None)."""
    w = 1.0 / net.sigma2
    ((trace, _, _, reason, (g_new,)),) = _wls_ascent(
        a_val[None], w[None], net.x[None], net.y[None], model, theta[None], cfg,
        _em_inner_tol(net), cfg.max_inner, stall_limit=1, g0=g[None],
    )
    stuck = reason not in (None, "stalled", "max_iterations") and np.array_equal(trace[-1], theta)
    return trace[-1], g_new, (reason if stuck else None)


def em_step(z, net, quantizer, bm, model, eta2, theta_m, cfg):
    """One EM cycle: the E-step at theta_m, then the analog least-squares
    fit of the field to the posterior means."""
    mix = _trial_mixture(z, net, quantizer, bm, eta2)
    theta = theta_m.as_array()
    g = model.value(FieldParams.from_array(theta), net.x, net.y)
    a_val = mix.posterior_means(g, *mix.at(g)[1:])
    if np.max(np.abs(_em_score(net, model, theta, g, a_val))) < _em_inner_tol(net):
        return theta_m  # already a fixed point
    new_theta, _, failure = _m_step(net, model, theta, g, a_val, cfg)
    if failure is not None:
        raise EstimationError(f"inner solver failed: {failure}")
    return FieldParams.from_array(new_theta)


def em_estimate(z, net, quantizer, bm, model, eta2, init, cfg):
    """Full EM run; the trace records the quantized log-likelihood, which is
    non-decreasing along EM iterates up to roundoff.  Each iterate is
    evaluated once: its field values, level probabilities and mixture
    maxima give both its log-likelihood and the next E-step."""
    mix = _trial_mixture(z, net, quantizer, bm, eta2)
    theta = init.as_array().copy()
    if not _theta_ok(theta):
        raise ValueError(f"invalid initial parameters {theta}")
    g = model.value(FieldParams.from_array(theta), net.x, net.y)
    value, p, amax = mix.at(g)
    trace = [theta.copy()]
    values = [value]
    converged = False
    prev_step = None
    stalls = 0
    score_tol = 1e-5 * net.k
    for _ in range(cfg.max_outer):
        a_val = mix.posterior_means(g, p, amax)
        # the score is needed only after a step within tol, which every
        # stall below follows too
        score = None
        if prev_step is None or prev_step <= cfg.tol:
            score = _em_score(net, model, theta, g, a_val)
            if np.max(np.abs(score)) < score_tol:
                converged = True
                break
        new_theta, new_g, failure = _m_step(net, model, theta, g, a_val, cfg)
        if failure is not None:
            # the surrogate admits no ascent step at all from here, which is
            # a stationary point when the score is small
            if score is None:
                score = _em_score(net, model, theta, g, a_val)
            converged = np.max(np.abs(score)) < score_tol
            reason = f"inner:{failure}"  # reported only when not converged
            break
        # a partially maximized surrogate is still a valid step (the ascent
        # property only needs improvement), so keep iterating on progress
        prev_step = float(np.max(np.abs(new_theta - theta)))
        theta, g = new_theta, new_g
        trace.append(theta.copy())
        value, p, amax = mix.at(g)
        values.append(value)
        stalls = stalls + 1 if prev_step <= cfg.tol else 0
        if stalls >= 3 and np.max(np.abs(score)) >= score_tol:
            reason = "stalled"
            break
    else:
        reason = "max_iterations"
    return _pack_result(trace, values, converged, None if converged else reason)
