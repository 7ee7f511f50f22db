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

Every estimator is one loop, ``_damped_newton_ascent``, batched over a
leading trial axis: iterates are (T, 5) and sensor arrays (T, K).  Its step
moves the working rows one iteration: a damped Newton step for analog ML and
NR (one stacked solve, the eigenvalue-modified step for any row whose Newton
step is unusable or points downhill, and a line search with a mask of the
rows still searching), the M-step for EM.  The loop alone keeps each row's
trace, stall count and end; a row leaves the working set when it converges,
stalls, fails or hits the cap, and the set is compacted only then.  Each
row's arithmetic is the same as if it ran alone, so a trial's estimate does
not depend on the batch it ran in, bit for bit; the single-trial functions
are batches of one.

Nothing is evaluated twice at one iterate.  The objective returns, beside
each row's value, its evaluation (the field values g, and for the quantized
likelihood also the level probabilities p and the row maxima of log p + d),
which travels with the iterate through the step to the derivatives.  A
quantized trial's bit distances d are computed once; in EM, one evaluation
of each new iterate gives its log-likelihood, the next E-step and the
M-step's starting point, and the M-step hands back the field values at its
last iterate.

All estimators are deterministic functions of (data, init, config) and report
their iterate path plus the incomplete-data log-likelihood per iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import _channel_variance, _p_slope, _p_slopes, level_probabilities
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
    damping: number of step-halvings the backtracking line search may take.

    A Newton direction needs no setting: a system that cannot be solved, or
    whose solution does not point uphill, takes the eigenvalue-modified step.
    """

    tol: float = 1e-6
    max_outer: int = 200
    max_inner: int = 50
    damping: int = 20

    def __post_init__(self):
        if not (self.tol > 0 and self.max_outer > 0 and self.max_inner > 0 and self.damping > 0):
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
    None, None, "nonfinite_objective", "nonfinite_derivatives", "line_search_failed",
    "stalled", "max_iterations",
)
_CONVERGED, _NONFINITE_F, _NONFINITE_D, _NO_ASCENT, _STALLED, _CAPPED = range(1, 7)
# EM ends a row whose M-step took no step with _INNER + the M-step's code
_INNER = len(_ENDS)
_ENDS += tuple(f"inner:{end}" for end in _ENDS)


def _any(mask):
    """mask.any(), by a count: on the few-row masks of the ascent loop
    NumPy's reduction machinery costs more than the test itself."""
    return np.count_nonzero(mask) > 0


def _all(mask):
    """mask.all(), by a count (see _any)."""
    return np.count_nonzero(mask) == mask.size


def _ascent_steps(grad, hess):
    """Ascent directions for a stack of Newton systems, by one stacked solve
    (row by row when one matrix of the stack is singular, so that each row's
    arithmetic is the same as alone).  A row whose Newton step is not finite
    or does not point uphill takes the modified step instead."""
    try:
        step = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.zeros_like(grad)
        for i in range(len(grad)):
            try:
                step[i] = np.linalg.solve(hess[i : i + 1], -grad[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass  # a zero step has no uphill slope
    finite = np.isfinite(step)
    if not _all(finite):
        step[~finite.all(axis=1)] = 0.0
    bad = np.matmul(grad[:, None, :], step[:, :, None])[:, 0, 0] <= 0.0
    if _any(bad):
        step[bad] = _modified_steps(grad[bad], hess[bad])
    return step


_ALL = slice(None)


def _backtrack(value_fn, theta, f, ev, step, data, cfg):
    """Backtracking line search of every row: each halves its step (up to
    cfg.damping times) until the objective does not decrease at a valid
    iterate (positive spreads).  All rows still searching are on the same
    halving, and only they are evaluated.  Returns (iterates, objectives,
    evaluations, end codes with _NO_ASCENT where no such step was found, or
    None when every row took one); rows that take no step keep theta, f and
    their rows of ev."""
    n = len(theta)
    todo = _ALL
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
                return trial, ft, evt, None
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
    end = np.zeros(n, dtype=int)
    end[todo] = _NO_ASCENT
    return cand, fc, evc, end if _any(end) else None


def _newton_step(value_fn, cfg, theta, f, ev, grad, hess, data):
    """One damped Newton iteration of the working rows: ``_ascent_steps``,
    then ``_backtrack``."""
    return _backtrack(value_fn, theta, f, ev, _ascent_steps(grad, hess), data, cfg)


def _damped_newton_ascent(
    value_fn, derivs_fn, theta0, data, cfg, grad_tol, max_iter, stall_limit=3, start=None,
    step=None,
):
    """Maximize each of T objectives from its row of theta0 (T, 5), all T
    as one array program, by the iteration ``step`` makes: damped Newton
    (``_newton_step``) unless given.

    ``value_fn(theta, *data)`` gives the (n,) objectives of n working rows
    and their evaluation: a tuple of per-row by-products (the field values,
    say), which ``derivs_fn(theta, *evaluation, *data)`` reuses to give the
    (n, 5) gradients and the step's per-row input (Newton's (n, 5, 5)
    Hessians).  ``step(theta, f, evaluation, gradients, input, data)`` moves
    the rows one iteration and returns (iterates, objectives, evaluations,
    end codes, or None when every row moved).  Each array in ``data`` has one
    row per trial.  The evaluation travels with its iterate, so no iterate
    is evaluated twice; ``start`` gives (f, evaluation) at theta0 when the
    caller already has them.  Convergence means the gradient sup-norm fell
    below grad_tol (one value, or one per row) with the last step within
    tol.  A row leaves the working set when it converges, fails, stalls,
    reaches max_iter or the step ends it; the set is compacted only then,
    and every row's arithmetic is the same as if it ran alone.
    Returns, per row, (trace, values, end code, the evaluation at its last
    iterate).
    """
    theta = np.array(theta0, dtype=float)
    ok = np.isfinite(theta).all(axis=1) & (theta[:, 1:3] > 0).all(axis=1)
    if not _all(ok):
        raise ValueError(f"invalid initial parameters {theta[~ok][0]}")
    step = partial(_newton_step, value_fn, cfg) if step is None else step
    n_rows = len(theta)
    rows = np.arange(n_rows)
    ends = [0] * n_rows
    lasts = [()] * n_rows
    f, ev = value_fn(theta, *data) if start is None else start
    log = [(rows, theta, f)]
    # per-row scalars: grad_tol, the last step's sup-norm (0 before the first
    # step, so the step test passes) and the run of steps within tol
    tols = np.broadcast_to(grad_tol, (n_rows,)).tolist()
    last_delta = [0.0] * n_rows
    stalls = [0] * n_rows

    def settle(end, *extra):
        """Record the rows with a non-zero end code and their last
        evaluation, drop them from the working set and return extra without
        them."""
        nonlocal rows, theta, f, ev, tols, last_delta, stalls, data
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
        tols = [tols[i] for i in keep]
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
        hfin = np.isfinite(hess.reshape(len(hess), -1)).all(axis=1).tolist()
        end = [
            _NONFINITE_D if not (ok and math.isfinite(g))
            else _CONVERGED if g < tol and d <= cfg.tol else 0
            for g, ok, tol, d in zip(gmax, hfin, tols, last_delta)
        ]
        if any(end):
            grad, hess = settle(end, grad, hess)
            if not len(rows):
                break
        cand, fc, ev, end = step(theta, f, ev, grad, hess, data)
        last_delta = np.abs(cand - theta).max(axis=1).tolist()
        stalls = [s + 1 if d <= cfg.tol else 0 for s, d in zip(stalls, last_delta)]
        theta, f = cand, fc
        if end is None:  # every row took a step
            log.append((rows, theta, f))
            if max(stalls) < stall_limit:
                continue
            end = np.zeros(len(rows), dtype=int)
        else:
            moved = end == 0
            log.append((rows[moved], theta[moved], f[moved]))
        stalled = [_STALLED if s >= stall_limit else 0 for s in stalls]
        settle([code or stall for code, stall in zip(end.tolist(), stalled)])
    if len(rows):  # still working at the cap
        settle([_CAPPED] * len(rows))
    ids = np.concatenate([r for r, _, _ in log])
    order = np.argsort(ids, kind="stable")
    traces = np.concatenate([t for _, t, _ in log])[order]
    values = np.concatenate([v for _, _, v in log])[order]
    edges = [0, *np.cumsum(np.bincount(ids, minlength=n_rows)).tolist()]
    return [
        (traces[a:b], values[a:b], code, last)
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


def _pack_result(trace, values, code, _last=()):
    """An EstimateResult from one row of the ascent's outcome."""
    arr = np.asarray(trace)
    return EstimateResult(
        theta_hat=FieldParams.from_array(arr[-1]),
        trace=arr,
        loglik_trace=np.asarray(values),
        converged=code == _CONVERGED,
        iterations=arr.shape[0] - 1,
        divergence_reason=_ENDS[code],
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
    w_k = 1/(sigma2_k + eta2), additive constants dropped: the objective
    that ``newton_ml_analog`` maximises."""
    zv, w, x, y = _analog_rows([z], [net], eta2)
    return float(_wls_objective(model.value(params, x, y), zv, w)[0])


def _wls_value(model, theta, target, w, x, y):
    """The weighted least-squares objectives -1/2 sum_k w_k (target_k - G_k)^2
    of the rows of theta, and their field values as the evaluation.  Analog
    ML fits the readings z with w = 1/(sigma2 + eta2); the EM M-step fits the
    posterior means A with w = 1/sigma2."""
    g = model.value(_row_params(theta), x, y)
    return _wls_objective(g, target, w), (g,)


def _wls_derivs(model, theta, g, target, w, x, y):
    params = _row_params(theta)
    return _chain(w * (target - g), -w, model.gradient(params, x, y), model.hessian(params, x, y))


def _check_trials(zs, nets, word=()):
    """The received data zs (arrays) of a batch of trials, each checked
    against its network, stacked as rows: z (T, K) + word, where word is
    (alpha,) for bit words, and sigma2, x, y (T, K)."""
    for z, net in zip(zs, nets, strict=True):
        if np.shape(z) != (net.k, *word):
            raise ValueError(
                "z must be a K-vector matching the network: "
                f"expected shape {(net.k, *word)}, got {np.shape(z)}"
            )
        if net.sigma2 is None:
            raise ValueError("network has no calibrated sigma2")
        if net.k != nets[0].k:
            raise ValueError("the trials of a batch must share the sensor count")
    sigma2, x, y = (np.array([getattr(net, a) for net in nets]) for a in ("sigma2", "x", "y"))
    return np.array(zs, dtype=float), sigma2, x, y


def _analog_rows(zs, nets, eta2):
    """The per-row data (z, w, x, y), each (T, K), of a batch of analog
    trials with readings zs (arrays), where w = 1/(sigma2 + eta2)."""
    zv, sigma2, x, y = _check_trials(zs, nets)
    return zv, 1.0 / (sigma2 + _channel_variance(eta2)), x, y


def newton_ml_analog_batch(zs, nets, model, eta2, inits, cfg):
    """ML estimates of T analog-channel trials with the same sensor count K,
    by one damped Newton ascent over the stack.  Returns each trial's
    EstimateResult, in trial order; each equals ``newton_ml_analog`` on that
    trial alone, bit for bit."""
    zv, w, x, y = _analog_rows(zs, nets, eta2)
    k = zv.shape[1]
    outcomes = _damped_newton_ascent(
        partial(_wls_value, model), partial(_wls_derivs, model),
        np.array([init.as_array() for init in inits]), (zv, w, x, y), cfg,
        grad_tol=1e-4 * k, max_iter=cfg.max_outer,
    )
    return [_pack_result(*out) for out in outcomes]


def newton_ml_analog(z, net, model, eta2, init, cfg):
    """ML estimate over the analog channel by damped Newton ascent."""
    (result,) = newton_ml_analog_batch([z], [net], model, eta2, [init], cfg)
    return result


# ------------------------------------------------------------ quantized MLE


def _bit_distances(zmat, codebook, eta2):
    """(T, K, M) array of -||z_tk - b_j||^2 / (2 eta2) for words z (T, K, alpha)
    and the channel variance eta2, one float."""
    diff = zmat[..., None, :] - codebook
    return -np.einsum("tkja,tkja->tkj", diff, diff) / (2.0 * eta2)


def _quantized_rows(zs, nets, quantizer, bm, eta2):
    """The per-row data (d, sigma, x, y) of a batch of quantized trials with
    received words zs (arrays), each (T, K) but d (T, K, M), and sigma2."""
    if quantizer.m != bm.m:
        raise ValueError("quantizer and bit mapper disagree on the level count")
    zv, sigma2, x, y = _check_trials(zs, nets, (bm.alpha,))
    d = _bit_distances(zv, bm.codebook, _channel_variance(eta2))
    return (d, np.sqrt(sigma2), x, y), sigma2


def _mixture_at(quantizer, g, d, sigma):
    """The quantized log-likelihoods sum_k l_k(g_k) of a stack of trials at
    field values g (T, K), with l_k(g) = log sum_j p_j(g; sigma_k) e^{d_kj}
    and d the trials' ``_bit_distances``; returns them with the level
    probabilities p and the maxima amax over j of log p + d, the evaluation
    that the slopes at g reuse.  Stabilized by max-subtraction."""
    p = level_probabilities(quantizer, g, sigma)
    with np.errstate(divide="ignore"):
        a = np.log(p) + d
    amax = np.max(a, axis=2)
    if not _all(np.isfinite(amax)):
        raise EstimationError("a received word has zero mixture mass at every level")
    s = np.exp(a - amax[:, :, None]).sum(axis=2)
    return (amax + np.log(s)).sum(axis=1), p, amax


def _ratios(d, p, amax, *tables):
    """sum_j s_tkj e^{d_tkj} / sum_j p_tkj e^{d_tkj} for each (T, K, M) table
    s, given p and amax from ``_mixture_at``."""
    # exp(d - amax) keeps the mixture sum >= ~1 while the exponent stays modest
    t = np.exp(np.minimum(d - amax[:, :, None], 700.0))
    den = np.einsum("tkj,tkj->tk", p, t)
    return [np.einsum("tkj,tkj->tk", s, t) / den for s in tables]


def _posterior_means(quantizer, g, p, amax, d, sigma):
    """E-step for every sensor of every row: A_tk, the posterior mean
    E[R_tk | z_tk] of the latent reading under the field values g, which is
    g + sigma^2 l'.  The posterior mass is 1 by construction, so the M-step
    surrogate sum_k (A_k G_k - G_k^2/2)/sigma2_k is the analog least-squares
    objective with A in place of the readings, up to a constant."""
    (d1,) = _ratios(d, p, amax, _p_slope(quantizer, g, sigma)[0])
    a_val = g + sigma * sigma * d1
    if not _all(np.isfinite(a_val)):
        raise EstimationError("a received word has a non-finite posterior mean")
    return a_val


def loglik_quantized(z, net, quantizer, bm, model, params, eta2):
    """Quantized-channel log-likelihood
    sum_k log sum_j p_kj(theta) exp(-||z_k - b_j||^2/(2 eta2)),
    stabilized by max-subtraction; additive constants dropped."""
    (d, sigma, x, y), _ = _quantized_rows([z], [net], quantizer, bm, eta2)
    return float(_mixture_at(quantizer, model.value(params, x, y), d, sigma)[0][0])


def _nr_value(quantizer, model, theta, d, sigma, x, y):
    """NR's objectives at the rows of theta, with (g, p, amax) as their
    evaluation."""
    g = model.value(_row_params(theta), x, y)
    ll, p, amax = _mixture_at(quantizer, g, d, sigma)
    return ll, (g, p, amax)


def _nr_derivs(quantizer, model, theta, g, p, amax, d, sigma, x, y):
    """Gradients and Hessians of the quantized log-likelihood at the rows of
    theta, from their evaluation: l'_k and l''_k lifted by the chain rule."""
    params = _row_params(theta)
    d1, ratio2 = _ratios(d, p, amax, *_p_slopes(quantizer, g, sigma))
    return _chain(d1, ratio2 - d1 * d1, model.gradient(params, x, y), model.hessian(params, x, y))


def nr_estimate_quantized_batch(zs, nets, quantizer, bm, model, eta2, inits, cfg):
    """Newton-Raphson ascent on the quantized log-likelihoods of T trials
    with the same sensor count K, as one damped Newton ascent over the stack.
    Returns each trial's EstimateResult, in trial order; each equals
    ``nr_estimate_quantized`` on that trial alone, bit for bit."""
    data, _ = _quantized_rows(zs, nets, quantizer, bm, eta2)
    outcomes = _damped_newton_ascent(
        partial(_nr_value, quantizer, model), partial(_nr_derivs, quantizer, model),
        np.array([init.as_array() for init in inits]), data, cfg,
        grad_tol=1e-4 * nets[0].k, max_iter=cfg.max_outer,
    )
    return [_pack_result(*out) for out in outcomes]


def nr_estimate_quantized(z, net, quantizer, bm, model, eta2, init, cfg):
    """Newton-Raphson ascent on the quantized log-likelihood, as a batch of one."""
    (result,) = nr_estimate_quantized_batch([z], [net], quantizer, bm, model, eta2, [init], cfg)
    return result


# -------------------------------------------------------------------- EM


def em_estimate_batch(zs, nets, quantizer, bm, model, eta2, inits, cfg):
    """Full EM runs of T trials with the same sensor count, as one ascent in
    the core whose step is the M-step: the analog least-squares fit to the
    posterior means, by the inner damped Newton, for every trial still
    running.  Each trace records the quantized log-likelihood, which EM does
    not decrease beyond roundoff.  Each result equals ``em_estimate`` on that
    trial alone, bit for bit."""
    data, sigma2 = _quantized_rows(zs, nets, quantizer, bm, eta2)
    w = 1.0 / sigma2
    data += (w, 1e-7 * nets[0].k * np.maximum(1.0, np.mean(w, axis=1)))
    score_tol = 1e-5 * nets[0].k

    def value(theta, d, sigma, x, y, *_):
        """NR's evaluation, and a flag per row that its last step was within
        tol (true at the start): only there is the score computed."""
        ll, ev = _nr_value(quantizer, model, theta, d, sigma, x, y)
        return ll, (*ev, np.ones(len(theta), dtype=bool))

    def score(rows, theta, a_val, g, x, y, w):
        """The score at the rows of theta: the M-step score
        sum_k w_k (A_k - g_k) grad G_k equals the incomplete-data score."""
        grads = model.gradient(_row_params(theta[rows]), x[rows], y[rows])
        return np.matmul((w[rows] * (a_val[rows] - g[rows]))[:, None, :], grads)[:, 0]

    def e_step(theta, g, p, amax, within, d, sigma, x, y, w, _):
        """The posterior means, and the score where the core reads it.  A NaN
        score is left to the M-step (its first gradient) to end the row."""
        a_val = _posterior_means(quantizer, g, p, amax, d, sigma)
        s = np.zeros_like(theta)
        if _any(within):
            s[within] = score(within, theta, a_val, g, x, y, w)
            np.nan_to_num(s, copy=False, nan=np.finfo(float).max)
        return s, a_val

    def m_step(theta, f, ev, s, a_val, data):
        d, sigma, x, y, w, inner_tol = data
        g, p, amax, within = ev
        outcomes = _damped_newton_ascent(
            partial(_wls_value, model), partial(_wls_derivs, model), theta, (a_val, w, x, y),
            cfg, inner_tol, cfg.max_inner, 1, start=(_wls_objective(g, a_val, w), (g,)),
        )
        new = np.array([trace[-1] for trace, *_ in outcomes])
        codes = np.array([code for _, _, code, _ in outcomes])
        g = np.array([last[0] for *_, last in outcomes])
        # an M-step that takes no ascent step at all ends its row: the
        # surrogate admits none from here, which is a stationary point when
        # the score is small.  A partially maximized surrogate is still a
        # valid step (the ascent property only needs improvement).
        stuck = (new == theta).all(axis=1) & (codes > _CONVERGED) & (codes < _STALLED)
        if not _any(stuck):
            end = None
            f, p, amax = _mixture_at(quantizer, g, d, sigma)
        else:
            late = stuck & ~within
            if _any(late):
                s[late] = score(late, theta, a_val, g, x, y, w)
            ok = np.abs(s).max(axis=1) < score_tol
            end = np.where(stuck, np.where(ok, _CONVERGED, _INNER + codes), 0)
            moved = ~stuck
            f, p, amax = f.copy(), p.copy(), amax.copy()  # the ending rows keep theirs
            if _any(moved):
                f[moved], p[moved], amax[moved] = _mixture_at(
                    quantizer, g[moved], d[moved], sigma[moved]
                )
        return new, f, (g, p, amax, np.abs(new - theta).max(axis=1) <= cfg.tol), end

    outcomes = _damped_newton_ascent(
        value, e_step, np.array([init.as_array() for init in inits]), data, cfg,
        grad_tol=score_tol, max_iter=cfg.max_outer, step=m_step,
    )
    return [_pack_result(*out) for out in outcomes]


def em_estimate(z, net, quantizer, bm, model, eta2, init, cfg):
    """Full EM run, as a batch of one (see ``em_estimate_batch``)."""
    (result,) = em_estimate_batch([z], [net], quantizer, bm, model, eta2, [init], cfg)
    return result
