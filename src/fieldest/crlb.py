"""Fisher information and Cramer-Rao lower bounds for both channels.

Sensor k's word depends on theta only through its field value g_k, so on
either channel I = sum_k J_k grad G_k grad G_k^T: one lift of each sensor's
Fisher information J_k about g_k.

* Analog: J_k = 1/(sigma2_k + eta2).
* Quantized: J_k = dp_k^T Phi_k dp_k with dp_kj = dp_kj/dg and
  Phi_kji = (2 pi eta^2)^(-alpha/2) Int e_j(z) e_i(z) / x_k(z) dz over the
  received word, e_j(z) = exp(-||z - b_j||^2/(2 eta^2)), x_k = sum_v p_kv e_v.
  The truncated series expands 1/x = sum_n (1-x)^n (0 < x <= 1)
  multinomially into closed-form Gaussian integrals lambda(ell, j, i) over
  weak compositions ell.  lambda depends on ell only through its lattice
  point (w, n) = (|ell|, ell B), B the 0/1 codebook, so Phi is a sum over
  lattice points of summed composition weights times lambda(w, n, j, i).
  Those sums factor over codewords (multinomial theorem): each pair of
  levels 2j+1, 2j+2 is a leaf with a two-part composition table, and the
  leaves fold together by convolution over (w, n).
  Simpson quadrature on a tensor grid over [-6 eta, 1 + 6 eta] per bit
  axis, the accuracy oracle, integrates
  J_k = (2 pi eta^2)^(-alpha/2) Int (sum_j dp_kj e_j)^2 / x_k dz directly.

Each route returns I as a symmetrized (L, L) float array.
No route needs the field Hessian: the Fisher identity's second-derivative
term is sum_j d2p_kj, the second derivative of sum_j p_kj = 1, which is 0.

Both quantized routes work in blocks of at most _BLOCK float64 elements per
large temporary: the Simpson grid in runs of consecutive C-order points, the
series in chunks of leaf compositions, of folded pairs and of lattice
points.  A Simpson bound's working memory is then one block, whatever K, M
and crlb.nodes are.  A series bound holds one block plus its lattice
points' weights (points x K; two such sets while a fold runs), which grow
with zeta and M: about 13 MB at K = 40, M = 16, zeta = 10.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import CONDITION_LIMIT, _channel_variance, _p_slope, level_probabilities
from ._quadrature import _simpson_at

#: refuse series evaluations with more enumerated terms than this
COMPOSITION_GUARD = 10**7

#: refuse Simpson evaluations whose grid size nodes^alpha x (M + K) exceeds this
SIMPSON_GUARD = 10**8

#: float64 elements per large temporary of the quantized routes (1 MiB): a
#: block's rows x K and rows x M arrays hold at most this many.  Against
#: 2**17 on 2 CPUs, 2**16 made two Simpson bounds (K=100, M=8, 81 nodes;
#: K=40, M=16, 21 nodes) 7% slower, and 2**18 added 4.6 MB to the peak RSS
#: of one process running four `fieldest crlb` configurations
_BLOCK = 2**17


class SingularFisherError(np.linalg.LinAlgError):
    """Fisher matrix too ill-conditioned for a meaningful bound."""

    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = condition


class CompositionGuardError(ValueError):
    """A series term count or a Simpson grid beyond its guard: intractable."""


def crlb_from_fisher(fisher):
    """Diagonal of I^-1 through a symmetric eigendecomposition.

    Raises ValueError unless the array is 2-D, square, finite and symmetric
    to 1e-10 of its largest entry, and SingularFisherError when it is not
    positive definite or its condition number reaches CONDITION_LIMIT.
    """
    entries = np.asarray(fisher, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"Fisher matrix must be square, got shape {entries.shape}")
    scale = np.max(np.abs(entries))
    if not np.isfinite(scale) or np.max(np.abs(entries - entries.T)) > 1e-10 * scale:
        raise ValueError("Fisher matrix entries must be finite and symmetric")
    vals, vecs = np.linalg.eigh(entries)
    if vals[-1] <= 0:
        raise SingularFisherError("Fisher matrix is not positive definite", np.inf)
    condition = np.inf if vals[0] <= 0 else float(vals[-1] / vals[0])
    if condition >= CONDITION_LIMIT:
        raise SingularFisherError(
            f"Fisher matrix is numerically singular (condition ~ {condition:.3e})",
            condition,
        )
    return (vecs**2) @ (1.0 / vals)


def _fisher_from_info(info, grads):
    """The symmetrized lift I = sum_k J_k grad G_k grad G_k^T of J_k, about g_k."""
    entries = np.einsum("k,ks,kt->st", info, grads, grads)
    return 0.5 * (entries + entries.T)


# ------------------------------------------------------------------ analog


def fisher_analog(net, model, params, eta2):
    """I = sum_k (sigma2_k + eta2)^-1 grad G_k grad G_k^T, with eta2 the
    channel variance of every sensor, one float."""
    if net.sigma2 is None:
        raise ValueError("network has no calibrated sigma2")
    eta2 = _channel_variance(eta2)
    grads = model.gradient(params, net.x, net.y)
    return _fisher_from_info(1.0 / (net.sigma2 + eta2), grads)


def _quantized_inputs(net, model, params, quantizer, bm, eta2):
    """Both quantized routes' inputs: the channel variance eta2 as a float,
    p and dp/dg (K x M), and grad G."""
    if quantizer.m != bm.m:
        raise ValueError("quantizer and bit mapper disagree on the level count")
    if net.sigma2 is None:
        raise ValueError("network has no calibrated sigma2")
    eta2 = _channel_variance(eta2)
    g = model.value(params, net.x, net.y)
    sigma = np.sqrt(net.sigma2)
    p, dp_dg = level_probabilities(quantizer, g, sigma), _p_slope(quantizer, g, sigma)[0]
    return eta2, p, dp_dg, model.gradient(params, net.x, net.y)


# ------------------------------------------------------------------ series


def series_term_count(zeta, m):
    """The series guard's size measure: sum over n <= zeta, m' <= n of the
    compositions of n - m' into M parts, which telescopes to
    C(zeta + M + 1, M + 1).  It counts the terms of the expansion, not the
    route's cost, which goes with the lattice points (w, n), w <= zeta, and
    the pairs of them that the leaves' fold multiplies."""
    return math.comb(zeta + m + 1, m + 1)


def _check_series_args(zeta, m):
    """Validate the order; refuse (before computing) term counts beyond COMPOSITION_GUARD."""
    zeta = int(zeta)
    if zeta < 0:
        raise ValueError("zeta must be >= 0")
    count = series_term_count(zeta, m)
    if count >= COMPOSITION_GUARD:
        raise CompositionGuardError(
            f"series with zeta={zeta}, M={m} enumerates {count} terms "
            f"(guard: {COMPOSITION_GUARD})"
        )
    return zeta


def _leaf_table(zeta):
    """(C, 2) int16 matrix of the weak compositions of every total <= zeta
    into two parts, stacked by total in increasing order and lexicographic
    within a total: (0, w), (1, w - 1), ..., (w, 0).  int16 holds every
    part: COMPOSITION_GUARD admits no zeta above 389 at any M >= 2."""
    totals = np.repeat(np.arange(zeta + 1), np.arange(1, zeta + 2))
    first = np.arange(totals.size) - totals * (totals + 1) // 2
    return np.column_stack([first, totals - first]).astype(np.int16)


def _series_coefficients(zeta):
    """Per-weight coefficient c_w = (-1)^w sum_{n=w}^{zeta} n!/(n-w)! arising
    from regrouping the (1-x)^n expansions by composition weight w."""
    coef = np.empty(zeta + 1)
    for w in range(zeta + 1):
        coef[w] = float((-1) ** w * sum(math.perm(n, w) for n in range(w, zeta + 1)))
    return coef


def _fold(keys, weights, leaf_keys, leaf_weights, span, zeta):
    """Convolve two sets of lattice-point weights over (w, n): each pair
    with w_a + w_b <= zeta adds weights[a] * leaf_weights[b] to the point
    keys[a] + leaf_keys[b].  A key is w * span + its n digits, so keys add
    without carries.  Both inputs come in increasing w; the output points
    come in increasing key order, each point summed in leaf order."""
    ends = np.searchsorted(keys // span, zeta - leaf_keys // span, side="right")
    hit = np.zeros(span * (zeta + 1), dtype=bool)
    for key, end in zip(leaf_keys, ends):
        hit[keys[:end] + key] = True
    out_keys = np.flatnonzero(hit)
    slot = np.empty(hit.size, dtype=np.intp)
    slot[out_keys] = np.arange(out_keys.size)
    out = np.zeros((out_keys.size, weights.shape[1]))
    rows = max(1, _BLOCK // weights.shape[1])  # pairs per (rows, K) block
    for key, leaf_row, end in zip(leaf_keys, leaf_weights, ends):
        for r0 in range(0, end, rows):
            r1 = min(r0 + rows, end)
            # distinct keys[a] give distinct targets, so no index repeats
            out[slot[keys[r0:r1] + key]] += weights[r0:r1] * leaf_row
    return out_keys, out


def _lattice_weights(logp, book, zeta):
    """The lattice points (w, n) = (|ell|, ell B), w <= zeta, of the 0/1
    codebook B and each sensor's summed weight at each point,
    sum over ell at (w, n) of prod_v p_kv^{ell_v} / ell_v!, from log p (K, M).

    The sum factors over any split of the codebook, since a composition's
    weight is a product over its codewords and its lattice point a sum.  So
    the codebook splits into two-codeword leaves, levels 2j+1 and 2j+2
    (their words differ in the last bit).  A leaf's compositions are its
    two-part table, each one its own lattice point, weighted by
    exp(ell . log p - sum log ell!) in chunks of rows, and the leaves fold
    into one set of weights (``_fold``).  M = 2 is one leaf and no fold:
    each weight comes from one row, in table order, with the arithmetic of
    the table of all compositions, so every bit of an M = 2 bound stays.
    Returns the points' w (G,) and n (G, alpha) and the weights (G, K)."""
    from scipy.special import gammaln  # loads at the first series bound

    k, m = logp.shape
    # a point's key is w (zeta + 1)^alpha + sum_a n_a (zeta + 1)^a, in int64:
    # the int16 table would wrap it
    radix = (zeta + 1) ** np.arange(book.shape[1] + 1, dtype=np.int64)
    table = _leaf_table(zeta)
    totals = table.sum(axis=1, dtype=np.int64)
    log_fact = gammaln(np.arange(zeta + 1) + 1.0)
    chunk = max(1, _BLOCK // max(k, m))  # rows per (chunk, K) weight block
    keys = weights = None
    for j in range(0, m, 2):
        leaf_keys = totals * radix[-1] + table.astype(np.int64) @ (
            book[j : j + 2].astype(np.int64) @ radix[:-1]
        )
        leaf_weights = np.empty((table.shape[0], k))
        for c0 in range(0, table.shape[0], chunk):
            rows = table[c0 : c0 + chunk]
            log_wt = rows.astype(float) @ logp[:, j : j + 2].T - log_fact[rows].sum(axis=1)[:, None]
            leaf_weights[c0 : c0 + chunk] = np.exp(log_wt)
        if weights is None:
            keys, weights = leaf_keys, leaf_weights
        else:
            keys, weights = _fold(keys, weights, leaf_keys, leaf_weights, radix[-1], zeta)
    return keys // radix[-1], keys[:, None] // radix[:-1] % (zeta + 1), weights


def fisher_quantized_series(net, model, params, quantizer, bm, eta2, zeta):
    """Quantized-channel Fisher information by the truncated series.

    I = sum_k sum_{j,i} dp_kj dp_ki Phi_kji with dp_kj = dp_kj/dg grad G_k and
    Phi_kji = sum over compositions ell (weight w <= zeta) of
    c_w * prod_v p_kv^{ell_v} / prod_v ell_v! * lambda(ell, j, i).
    lambda depends on ell only through its lattice point (w, n = ell B),
    so Phi_kji = sum over lattice points of W_k(w, n) * lambda(w, n, j, i),
    where W_k(w, n) is c_w times the sum of the weights of the compositions
    at (w, n): from two-codeword leaves and their fold (``_lattice_weights``),
    which keep every bit of an M = 2 bound and change only the order of the
    weights' sums at M >= 4.  The result is symmetrized before output.
    """
    m = bm.m
    zeta = _check_series_args(zeta, m)
    eta2, p, dp_dg, grads = _quantized_inputs(net, model, params, quantizer, bm, eta2)
    dp = dp_dg[:, :, None] * grads[:, None, :]

    book = bm.codebook
    norms = np.einsum("va,va->v", book, book)
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), -1e9)
    point_w, point_n, weights = _lattice_weights(logp, book, zeta)
    weights *= _series_coefficients(zeta)[point_w][:, None]

    k, n_points = p.shape[0], point_w.size
    phi = np.zeros((k, m, m))
    lam_chunk = max(1, _BLOCK // m**2)  # points per (chunk, M, M) lambda block
    for c0 in range(0, n_points, lam_chunk):
        cvec = point_w[c0 : c0 + lam_chunk] + 2.0
        base_m = point_n[c0 : c0 + lam_chunk].astype(float)
        base_s = base_m.sum(axis=1)  # n . 1 = ell . ||b_v||^2 for 0/1 codewords
        lam = np.empty((cvec.size, m, m))
        pref = cvec ** (-bm.alpha / 2.0)
        for j in range(m):
            mj = base_m + book[j]
            sj = base_s + norms[j]
            for i in range(j, m):
                mv = mj + book[i]
                val = pref * np.exp(
                    (np.einsum("ca,ca->c", mv, mv) / cvec - sj - norms[i]) / (2.0 * eta2)
                )
                lam[:, j, i] = val
                lam[:, i, j] = val
        phi += (weights[c0 : c0 + lam_chunk].T @ lam.reshape(cvec.size, -1)).reshape(k, m, m)
    # kept in theta, not lifted from J: reordering moves near-singular bounds ~1e-7
    entries = np.einsum("kjs,kji,kit->st", dp, phi, dp, optimize=True)
    return 0.5 * (entries + entries.T)


# ---------------------------------------------------------------- Simpson


def _check_simpson_args(bm, nodes, k):
    """Validate the node count; refuse (before computing) grids beyond SIMPSON_GUARD."""
    nodes = int(nodes)
    if nodes < 21 or nodes % 2 == 0:
        raise ValueError(f"need an odd node count >= 21, got {nodes}")
    size = nodes**bm.alpha * (bm.m + k)
    if size > SIMPSON_GUARD:
        top = int((SIMPSON_GUARD / (bm.m + k)) ** (1.0 / bm.alpha) + 1e-9)
        top -= 1 - top % 2  # the largest odd node count within the guard
        hint = f"crlb.nodes <= {top} passes the guard"
        if top < 21:
            hint = f"no allowed node count (odd, >= 21) fits M = {bm.m} and K = {k}"
        raise CompositionGuardError(
            f"Simpson grid of crlb.nodes={nodes}: {nodes}^{bm.alpha} x (M + K = {bm.m + k}) "
            f"= {size} (guard: {SIMPSON_GUARD}); {hint}"
        )
    return nodes


def _check_quantized_routes(methods, bm, zeta, nodes, k):
    """Run the guards of the requested quantized routes ("series", "simpson")
    in order, so a refusal comes before any route computes."""
    guards = {
        "series": lambda: _check_series_args(zeta, bm.m),
        "simpson": lambda: _check_simpson_args(bm, nodes, k),
    }
    for method in methods:
        guards[method]()


def _grid_slabs(bm, eta2, nodes, rows):
    """Yield (E, W) blocks covering the alpha-dimensional Simpson grid over
    [-6 eta, 1 + 6 eta]^alpha in C order: E has rows
    exp(-||z - b_j||^2/(2 eta^2)) per grid point and codeword, W the matching
    tensor-product weights.  Each block is at most ``rows`` consecutive grid
    points: whole axis-0 nodes when one node's inner grid fits, else a run of
    nodes along the deepest axis a whose trailing grid (axes a+1..alpha-1)
    fits, at one index of each axis before a.  Axis 0's nodes and weights
    come from their indices, block by block, so a one-axis grid holds no
    nodes-long table; and a block's entries keep the bits of the full tensor
    product (factors multiplied from the last axis to the first)."""
    eta = np.sqrt(eta2)
    lo, hi = -6.0 * eta, 1.0 + 6.0 * eta
    bits = bm.codebook.astype(int)

    def exps(i0, i1):
        """exp(-(z - b)^2/(2 eta^2)) for b = 0, 1 (two columns) at the nodes
        i0..i1-1 of one axis, and the nodes' Simpson weights."""
        z, w = _simpson_at(lo, hi, nodes, np.arange(i0, i1))
        return np.stack([np.exp(-0.5 * z**2 / eta2), np.exp(-0.5 * (z - 1.0) ** 2 / eta2)], 1), w

    # Only a one-axis grid can be millions of nodes long.  Axes 1..alpha-1
    # exist when alpha >= 2, where the Simpson guard keeps nodes <= 4471, and
    # share one table: computing axis 1's runs per block instead, once per
    # axis-0 node, made the K=100, M=8, 81-node bound 18-30% slower on 2 CPUs.
    table = exps(0, nodes) if bm.alpha > 1 else None

    def factors(a, i0, i1):
        """Axis a's e_j (one column per codeword) at nodes i0..i1-1, and the
        nodes' Simpson weights."""
        e, w = exps(i0, i1) if a == 0 else (table[0][i0:i1], table[1][i0:i1])
        return e[:, bits[:, a]], w

    # axis `run` is split into runs of nodes; the axes after it form the
    # trailing grid, a single all-ones row when there are none
    run = bm.alpha - 1
    while run > 0 and nodes ** (bm.alpha - run) <= rows:
        run -= 1
    e_tail, w_tail = np.ones((1, bm.m)), np.ones(1)
    for a in range(bm.alpha - 1, run, -1):
        e_a, w_a = factors(a, 0, nodes)
        e_tail = (e_a[:, None, :] * e_tail[None]).reshape(-1, bm.m)
        w_tail = (w_a[:, None] * w_tail[None, :]).ravel()
    step = max(1, rows // w_tail.size)
    for lead in np.ndindex(*(nodes,) * run):
        # the fixed node of each axis before `run`, applied last axis first
        lead_factors = [factors(a, i, i + 1) for a, i in reversed(list(enumerate(lead)))]
        for i0 in range(0, nodes, step):
            e_run, w_run = factors(run, i0, min(i0 + step, nodes))
            e_blk = (e_run[:, None, :] * e_tail[None]).reshape(-1, bm.m)
            w_blk = (w_run[:, None] * w_tail).ravel()
            for e_a, w_a in lead_factors:
                e_blk *= e_a[0]
                w_blk *= w_a[0]
            yield e_blk, w_blk


def _info_simpson(p, dp, bm, eta2, nodes):
    """J_k of every sensor, by tensor-grid Simpson, for the channel variance
    eta2 (one float) that all sensors share."""
    info = np.zeros(p.shape[0])
    rows = min(nodes**bm.alpha, max(1, _BLOCK // max(p.shape[0], bm.m)))
    # one rows x K buffer each, reused: fresh MiB arrays per block cost page
    # faults that made a K=100, M=8, 81-node bound 40% slower on 2 CPUs
    x_buf, num_buf = np.empty((2, rows, p.shape[0]))
    for e_blk, w_blk in _grid_slabs(bm, eta2, nodes, rows):
        x = np.matmul(e_blk, p.T, out=x_buf[: w_blk.size])
        num = np.matmul(e_blk, dp.T, out=num_buf[: w_blk.size])
        num *= num
        with np.errstate(divide="ignore", invalid="ignore"):
            num /= x
        empty = ~(x > 0)
        if empty.any():
            num[empty] = 0.0
        info += w_blk @ num
    return info * (2.0 * np.pi * eta2) ** (-bm.alpha / 2.0)


def fisher_quantized_simpson(net, model, params, quantizer, bm, eta2, nodes=81):
    """Quantized-channel Fisher information by alpha-dimensional composite
    Simpson quadrature (the accuracy oracle for the series route):

    I = sum_k J_k grad G_k grad G_k^T with
    J_k = (2 pi eta^2)^(-alpha/2) Int (sum_j dp_kj/dg e_j(z))^2 / x_k(z) dz.
    """
    nodes = _check_simpson_args(bm, nodes, net.k)
    eta2, p, dp_dg, grads = _quantized_inputs(net, model, params, quantizer, bm, eta2)
    info = _info_simpson(p, dp_dg, bm, eta2, nodes)
    return _fisher_from_info(info, grads)
