import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fieldest.crlb as crlb_mod
from fieldest import (
    BitMapper,
    CompositionGuardError,
    GAUSSIAN_BELL,
    GaussianBellModel,
    SingularFisherError,
    crlb_from_fisher,
    fisher_analog,
    fisher_quantized_series,
    fisher_quantized_simpson,
    level_probabilities,
    make_uniform_quantizer,
    series_term_count,
)

from fieldest._quadrature import _simpson_at, simpson_nodes_weights
from fieldest.channel import _p_slopes

from conftest import (
    gaussian_product_integral,
    grid_gamma,
    lambda_term,
    make_network,
    quantized_loglik_derivs,
)


# ------------------------------------------------------- crlb_from_fisher


def test_fisher_matrix_validates_symmetry():
    # eigh reads one triangle: an unchecked [[2, 5], [0, 3]] inverts as diag(2, 3)
    with pytest.raises(ValueError, match="symmetric"):
        crlb_from_fisher(np.array([[2.0, 5.0], [0.0, 3.0]]))
    with pytest.raises(ValueError, match="square"):
        crlb_from_fisher(np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            crlb_from_fisher(np.diag([1.0, bad, 1.0]))
    np.testing.assert_allclose(crlb_from_fisher(np.eye(3) * 2.0), 0.5)


def test_crlb_from_fisher_identity_and_singular():
    np.testing.assert_allclose(crlb_from_fisher(np.eye(4)), np.ones(4))
    singular = np.diag([1.0, 1e-15, 1.0])
    with pytest.raises(SingularFisherError) as exc:
        crlb_from_fisher(singular)
    assert exc.value.condition > 1e12


def test_fisher_analog_single_sensor_closed_form(truth, area):
    net = make_network(1, area, 0.3, seed=2)
    grad = GAUSSIAN_BELL.gradient(truth, net.x, net.y)[0]
    fm = fisher_analog(net, GAUSSIAN_BELL, truth, 0.5)
    np.testing.assert_allclose(fm, np.outer(grad, grad) / 0.8, rtol=1e-12)


def test_fisher_analog_mc_agreement(truth, area):
    # small Monte Carlo spot check (the full-budget version runs in the
    # acceptance suite): -E[hessian of the analog log-likelihood]
    net = make_network(10, area, 0.3937, seed=6)
    eta2 = 0.406
    fm = fisher_analog(net, GAUSSIAN_BELL, truth, eta2)
    s2 = net.sigma2 + eta2
    g = GAUSSIAN_BELL.value(truth, net.x, net.y)
    grads = GAUSSIAN_BELL.gradient(truth, net.x, net.y)
    hesses = GAUSSIAN_BELL.hessian(truth, net.x, net.y)
    rng = np.random.default_rng(99)
    resid = np.sqrt(s2) * rng.standard_normal((20_000, net.k))
    mean_resid = resid.mean(axis=0)
    mc = np.einsum("k,ks,kt->st", 1.0 / s2, grads, grads) - np.einsum(
        "k,kst->st", mean_resid / s2, hesses
    )
    scale = np.abs(fm).max()
    assert np.abs(fm - mc).max() / scale < 0.05


# ------------------------------------------------------------ compositions


def _compositions_brute(total, parts):
    """Every placement of parts - 1 bars among total + parts - 1 slots (stars
    and bars), read off as the gaps between the bars."""
    slots = total + parts - 1
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
        for bars in itertools.combinations(range(slots), parts - 1)
    ]


@given(zeta=st.integers(0, 8), m_exp=st.integers(1, 3))
@settings(deadline=None, max_examples=60)
def test_series_term_count_counts_the_enumeration(zeta, m_exp):
    m = 2**m_exp
    brute = sum(
        len(_compositions_brute(n - w, m)) for n in range(zeta + 1) for w in range(n + 1)
    )
    assert series_term_count(zeta, m) == brute


@pytest.mark.parametrize("zeta", [0, 1, 3, 6, 40, 389])
def test_leaf_table_is_the_two_part_enumeration_stacked_by_total(zeta):
    """A leaf's table holds each weak composition of 0..zeta into two parts
    once, by total, lexicographic within a total (the row order that keeps
    M = 2 bounds bitwise)."""
    table = crlb_mod._leaf_table(zeta)
    brute = [c for w in range(zeta + 1) for c in sorted(_compositions_brute(w, 2))]
    assert [tuple(int(v) for v in row) for row in table] == brute
    assert table.dtype == np.int16


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_guard_accepted_orders_fit_the_int16_leaf_table_and_the_key_range(m):
    """The largest order the series guard accepts at each M (389, 62, 19,
    10, 6 and 4 for M = 2 ... 64) bounds every part of the leaf table, which
    is int16, and the fold's dense keys: (zeta + 1)^(alpha + 1) of them, at
    most 250,047 (M = 4, zeta = 62).  A guard raised past either fails here."""
    zeta = 0
    while series_term_count(zeta + 1, m) < crlb_mod.COMPOSITION_GUARD:
        zeta += 1
    crlb_mod._check_series_args(zeta, m)
    with pytest.raises(CompositionGuardError):
        crlb_mod._check_series_args(zeta + 1, m)
    assert zeta <= np.iinfo(np.int16).max
    alpha = m.bit_length() - 1
    assert (zeta + 1) ** (alpha + 1) <= 250_047


def _random_logp(k, m, seed):
    """log p of k random probability rows over m levels, one level of each
    row exactly 0 (the route's -1e9 stand-in for log 0)."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(m), size=k)
    p[np.arange(k), rng.integers(0, m, size=k)] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        return p, np.where(p > 0, np.log(p), -1e9)


@pytest.mark.parametrize("zeta,m", [(6, 2), (5, 4), (3, 8), (2, 16)])
def test_lattice_weights_are_the_sums_over_compositions(zeta, m):
    """Each lattice point's weight is the sum over the compositions at its
    (|ell|, ell B) of prod_v p_v^ell_v / ell_v!, and every such point is
    there once: at M = 2 in leaf-table order, above it in key order."""
    book = BitMapper(m.bit_length() - 1).codebook
    p, logp = _random_logp(3, m, seed=zeta + m)
    brute = {}
    for w in range(zeta + 1):
        for ell in _compositions_brute(w, m):
            point = (w, *(int(v) for v in np.array(ell) @ book))
            wt = np.prod(p ** np.array(ell), axis=1) / math.prod(map(math.factorial, ell))
            brute[point] = brute.get(point, 0.0) + wt
    point_w, point_n, weights = crlb_mod._lattice_weights(logp, book, zeta)
    points = [(int(w), *map(int, n)) for w, n in zip(point_w, point_n)]
    assert sorted(points) == sorted(brute)
    np.testing.assert_allclose(weights, [brute[q] for q in points], rtol=1e-13, atol=0)
    if m == 2:
        assert points == [(w, w - first) for w in range(zeta + 1) for first in range(w + 1)]
    else:
        assert points == sorted(points, key=lambda q: (q[0], *q[:0:-1]))


@pytest.mark.parametrize("zeta,m", [(6, 16), (181, 2), (32, 4), (13, 8), (8, 16)])
def test_lattice_weights_cover_every_point_at_the_int16_wrap_orders(zeta, m):
    """Every (w, n) with 0 <= n_a <= w <= zeta is a lattice point of the
    full codebook, once, and the weights at one w sum to (sum_v p_v)^w / w!
    (multinomial theorem).  All but the benchmark's (6, 16) are the smallest
    orders whose mixed-radix key exceeds the int16 range of the table: a
    key that wrapped would decode to the wrong point."""
    alpha = m.bit_length() - 1
    p, logp = _random_logp(3, m, seed=zeta)
    point_w, point_n, weights = crlb_mod._lattice_weights(
        logp, BitMapper(alpha).codebook, zeta
    )
    points = set(zip(point_w.tolist(), map(tuple, point_n.tolist())))
    assert len(points) == point_w.size == sum((w + 1) ** alpha for w in range(zeta + 1))
    assert np.all((point_n >= 0) & (point_n <= point_w[:, None]))
    normal = min(zeta, 100)  # 1/w! stays a normal float
    by_w = np.array([weights[point_w == w].sum(axis=0) for w in range(normal + 1)])
    want = np.array([p.sum(axis=1) ** w / math.factorial(w) for w in range(normal + 1)])
    np.testing.assert_allclose(by_w, want, rtol=1e-12, atol=0)


# ------------------------------------------------------------ lambda term


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_lambda_term_matches_defining_integral(alpha):
    bm = BitMapper(alpha)
    rng = np.random.default_rng(alpha)
    for _ in range(6):
        ell = rng.integers(0, 3, size=bm.m)
        j, i = rng.integers(1, bm.m + 1, size=2)
        eta2 = rng.uniform(0.1, 1.5)
        got = lambda_term(ell, int(j), int(i), bm, eta2)
        ref = gaussian_product_integral(ell, int(j), int(i), bm, eta2)
        assert got == pytest.approx(ref, rel=1e-8)


def test_lambda_term_zero_composition_is_pair_overlap():
    # with no extra factors the integral is the Gaussian pair overlap
    # c = 2, value 2^(-alpha/2) exp(-||b_j - b_i||^2 / (4 eta^2))
    bm = BitMapper(2)
    eta2 = 0.7
    for j in range(1, 5):
        for i in range(1, 5):
            dist = np.sum((bm.codebook[j - 1] - bm.codebook[i - 1]) ** 2)
            expected = 2.0 ** (-1.0) * math.exp(-dist / (4.0 * eta2))
            assert lambda_term(np.zeros(4), j, i, bm, eta2) == pytest.approx(expected, rel=1e-12)


def test_lambda_term_validation():
    bm = BitMapper(1)
    with pytest.raises(ValueError):
        lambda_term(np.zeros(3), 1, 1, bm, 0.5)
    with pytest.raises(ValueError):
        lambda_term(np.zeros(2), 0, 1, bm, 0.5)


# ------------------------------------------------------- p derivatives


def test_p_slopes_match_finite_differences():
    """dp/dg and d2p/dg2 of the level probabilities, as the Fisher routes and
    NR compute them, against central differences of level_probabilities in g.
    Each sums to 0 over the levels (the probabilities sum to 1), which is why
    no Fisher route needs the field Hessian."""
    quantizer = make_uniform_quantizer(8, 0.0, 12.0)
    g = np.array([-1.3, 0.4, 2.9, 6.0, 7.7, 11.2, 13.5])
    sigma = np.array([0.63, 0.3, 1.1, 0.63, 2.0, 0.45, 0.8])
    dp, d2p = _p_slopes(quantizer, g, sigma)
    assert dp.shape == d2p.shape == (g.size, 8)
    np.testing.assert_allclose(dp.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(d2p.sum(axis=1), 0.0, atol=1e-12)

    def p_at(gv):
        return level_probabilities(quantizer, gv, sigma)

    h = 1e-5
    assert np.abs(dp - (p_at(g + h) - p_at(g - h)) / (2 * h)).max() < 1e-7
    h = 1e-4  # the second difference loses twice the digits to rounding
    assert np.abs(d2p - (p_at(g + h) - 2 * p_at(g) + p_at(g - h)) / h**2).max() < 1e-6


# ----------------------------------------------------- gamma quadrature


def test_gamma_quadrature_is_one():
    rng = np.random.default_rng(12)
    for alpha in (1, 2):
        bm = BitMapper(alpha)
        quantizer = make_uniform_quantizer(bm.m, 0.0, 12.0)
        for _ in range(3):
            gamma = grid_gamma(
                quantizer, bm,
                g=rng.uniform(0, 12), sigma=rng.uniform(0.3, 2.0),
                eta2=rng.uniform(0.2, 1.2),
            )
            np.testing.assert_allclose(gamma, 1.0, atol=1e-6)


# ------------------------------------------------------------- series


def _theta_slopes(net, quantizer, bm, eta2, truth):
    """The series route's own inputs: p (K, M) and dp/dtheta = dp/dg grad G
    (K, M, 5) at the truth."""
    _, p, dp_dg, grads = crlb_mod._quantized_inputs(net, GAUSSIAN_BELL, truth, quantizer, bm, eta2)
    return p, dp_dg[:, :, None] * grads[:, None, :]


def _fisher_truncated_integrand_oracle(net, quantizer, bm, eta2, zeta, truth):
    """Direct Simpson quadrature of the series' defining truncation: replace
    1/x by sum_{n<=zeta} (1-x)^n inside the integral.  Only practical for
    alpha = 1, which is all this oracle is used for."""
    assert bm.alpha == 1
    p, dp = _theta_slopes(net, quantizer, bm, eta2, truth)
    eta = math.sqrt(eta2)
    z_nodes = np.linspace(-6 * eta, 1 + 6 * eta, 4001)
    w = np.full(z_nodes.size, z_nodes[1] - z_nodes[0])
    w[0] = w[-1] = w[0] / 2  # trapezoid is plenty at 4001 nodes
    e = np.exp(-0.5 * (z_nodes[:, None] - bm.codebook[:, 0][None, :]) ** 2 / eta2)
    entries = np.zeros((5, 5))
    for k in range(net.k):
        x = e @ p[k]
        inv_trunc = sum((1.0 - x) ** n for n in range(zeta + 1))
        v = e @ dp[k]  # (nodes, 5): sum_j dp_j e_j(z)
        entries += np.einsum("n,ns,nt->st", w * inv_trunc, v, v) / math.sqrt(
            2 * math.pi * eta2
        )
    return entries


def test_series_equals_truncated_integrand(truth, area):
    """The closed-form series must agree with brute quadrature of the
    truncated integrand it expands, at the same truncation order."""
    net = make_network(6, area, 0.3937, seed=15)
    quantizer = make_uniform_quantizer(2, 0.0, 12.0)
    bm = BitMapper(1)
    eta2 = 0.5468
    for zeta in (0, 1, 3, 6):
        got = fisher_quantized_series(net, GAUSSIAN_BELL, truth, quantizer, bm, eta2, zeta)
        ref = _fisher_truncated_integrand_oracle(net, quantizer, bm, eta2, zeta, truth)
        scale = max(np.abs(ref).max(), 1e-12)
        assert np.abs(got - ref).max() / scale < 1e-7


@pytest.mark.parametrize(
    "zeta,m", [(4, 2), (3, 4), (2, 8), (2, 16), (6, 4), (4, 8), (3, 16)]
)
def test_series_matches_its_sum_over_compositions(truth, area, zeta, m):
    """The route sums compositions by lattice point (|ell|, ell B), folding
    two-codeword leaves; it must equal Phi summed composition by
    composition from lambda_term and the docstring's weights
    c_w prod_v p_v^ell_v / ell_v!."""
    net = make_network(6, area, 0.3937, seed=23)
    quantizer = make_uniform_quantizer(m, 0.0, 12.0)
    bm = BitMapper(m.bit_length() - 1)
    eta2 = 0.5468
    got = fisher_quantized_series(net, GAUSSIAN_BELL, truth, quantizer, bm, eta2, zeta)
    p, dp = _theta_slopes(net, quantizer, bm, eta2, truth)
    levels = range(1, bm.m + 1)
    lams = {}  # lambda_term depends on ell only through (|ell|, ell B): one (M, M) per point
    phi = np.zeros((net.k, bm.m, bm.m))
    for w in range(zeta + 1):
        c_w = (-1) ** w * sum(math.perm(n, w) for n in range(w, zeta + 1))
        for ell in _compositions_brute(w, bm.m):
            point = (w, *(np.array(ell) @ bm.codebook).tolist())
            if point not in lams:
                lams[point] = np.array(
                    [[lambda_term(ell, j, i, bm, eta2) for i in levels] for j in levels]
                )
            wt = c_w * np.prod(p ** np.array(ell), axis=1) / math.prod(map(math.factorial, ell))
            phi += wt[:, None, None] * lams[point]
    entries = np.zeros((5, 5))
    for k in range(net.k):
        entries += dp[k].T @ phi[k] @ dp[k]
    np.testing.assert_allclose(got, entries, rtol=1e-12, atol=0)


@pytest.mark.parametrize("zeta,ceiling_mib", [(6, 6), (10, 32)])
def test_series_memory_stays_chunked(truth, area, zeta, ceiling_mib):
    """A K=40, M=16 bound holds its lattice points' weights (points x K, two
    sets while a fold runs) and one block of at most _BLOCK elements per
    temporary.  It peaks at 5.0 MiB at zeta = 6 (4,676 points; the table of
    all compositions peaked at 8.4 MiB) and 26.5 MiB at zeta = 10 (39,974
    points; the table, at about 450 MB)."""
    net = make_network(40, area, 0.3937, seed=5)
    quantizer = make_uniform_quantizer(16, 0.0, 12.0)
    tracemalloc.start()
    try:
        fisher_quantized_series(net, GAUSSIAN_BELL, truth, quantizer, BitMapper(4), 0.5468, zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling_mib * 2**20


def test_series_undershoots_and_improves_with_zeta(truth, area):
    """The truncation residual integrand is positive semidefinite, so the
    series approaches the quadrature value from below, monotonically."""
    net = make_network(10, area, 0.3937, seed=16)
    quantizer = make_uniform_quantizer(2, 0.0, 12.0)
    bm = BitMapper(1)
    eta2 = 0.5468
    exact = fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, bm, eta2, nodes=201)
    prev_err = None
    for zeta in (0, 2, 4, 8, 16):
        approx = fisher_quantized_series(net, GAUSSIAN_BELL, truth, quantizer, bm, eta2, zeta)
        gap = exact - approx
        # residual is PSD up to quadrature noise
        assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() > -1e-6 * np.abs(exact).max()
        err = np.abs(gap).max()
        if prev_err is not None:
            assert err < prev_err
        prev_err = err


def test_series_zeta_zero_drops_every_phi_cross_term(truth, area):
    # zeta = 0 keeps only the constant 1/x ~ 1 term; hand-assemble it
    net = make_network(4, area, 0.3937, seed=18)
    quantizer = make_uniform_quantizer(2, 0.0, 12.0)
    bm = BitMapper(1)
    eta2 = 0.5468
    got = fisher_quantized_series(net, GAUSSIAN_BELL, truth, quantizer, bm, eta2, 0)
    _, dp = _theta_slopes(net, quantizer, bm, eta2, truth)
    lam = np.array([[lambda_term(np.zeros(2), j, i, bm, eta2) for i in (1, 2)] for j in (1, 2)])
    entries = np.zeros((5, 5))
    for k in range(net.k):
        entries += dp[k].T @ lam @ dp[k]
    np.testing.assert_allclose(got, entries, rtol=1e-10, atol=1e-12)


def test_series_guard_refuses_infeasible_orders(truth, area):
    net = make_network(4, area, 0.3937, seed=3)
    quantizer = make_uniform_quantizer(8, 0.0, 12.0)
    bm = BitMapper(3)
    # comb(30 + 9, 9) ~ 2.1e8 > the 1e7 guard
    with pytest.raises(CompositionGuardError):
        fisher_quantized_series(net, GAUSSIAN_BELL, truth, quantizer, bm, 0.4, 30)


def test_series_validation(truth, area):
    net = make_network(4, area, 0.3937, seed=3)
    quantizer = make_uniform_quantizer(4, 0.0, 12.0)
    with pytest.raises(ValueError):
        fisher_quantized_series(net, GAUSSIAN_BELL, truth, quantizer, BitMapper(1), 0.4, 2)
    with pytest.raises(ValueError):
        fisher_quantized_series(net, GAUSSIAN_BELL, truth, quantizer, BitMapper(2), 0.4, -1)


# ------------------------------------------------------------- Simpson


def test_simpson_self_convergence(truth, area):
    net = make_network(8, area, 0.3937, seed=21)
    quantizer = make_uniform_quantizer(4, 0.0, 12.0)
    bm = BitMapper(2)
    coarse = fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, bm, 0.45, nodes=81)
    fine = fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, bm, 0.45, nodes=161)
    scale = np.abs(fine).max()
    assert np.abs(coarse - fine).max() / scale < 1e-7


def test_simpson_matches_score_outer_product_mc(truth, area, quantized_15db, sigma2_15db):
    """Independent stochastic check: the Fisher information is the covariance
    of the score.  Draw received words from the model, evaluate the analytic
    score at the truth, and average its outer product."""
    quantizer, bm, eta2 = quantized_15db
    net = make_network(6, area, sigma2_15db, seed=33)
    fm = fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, bm, eta2, nodes=81)
    rng = np.random.default_rng(1234)
    g = GAUSSIAN_BELL.value(truth, net.x, net.y)
    p = level_probabilities(quantizer, g, np.sqrt(net.sigma2))
    draws = 4000
    acc = np.zeros((5, 5))
    theta = truth.as_array()
    for _ in range(draws):
        levels = np.array([rng.choice(bm.m, p=row / row.sum()) for row in p])
        z = bm.codebook[levels] + math.sqrt(eta2) * rng.standard_normal((net.k, bm.alpha))
        score, _ = quantized_loglik_derivs(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, theta)
        acc += np.outer(score, score)
    mc = acc / draws
    scale = np.abs(fm).max()
    # 4000 draws: agreement to a few percent is all this spot check claims
    assert np.abs(fm - mc).max() / scale < 0.08


def test_quantized_routes_ignore_second_derivatives(truth, area):
    """The Fisher identity's second-derivative term is sum_j d2p_kj, which is
    0 by math (test_p_slopes_match_finite_differences pins it), so no
    quantized route may need the field Hessian: with a model whose hessian
    raises, the series and Simpson results are those of GAUSSIAN_BELL."""

    class NoHessian(GaussianBellModel):
        def hessian(self, params, x, y):
            raise AssertionError("a quantized Fisher route read the field Hessian")

    net = make_network(5, area, 0.3937, seed=19)
    quantizer = make_uniform_quantizer(4, 0.0, 12.0)
    bm = BitMapper(2)

    def bounds(model):
        args = (net, model, truth, quantizer, bm, 0.45)
        return (
            fisher_quantized_series(*args, 3),
            fisher_quantized_simpson(*args, nodes=21),
        )

    for got, ref in zip(bounds(NoHessian()), bounds(GAUSSIAN_BELL)):
        np.testing.assert_array_equal(got, ref)


def test_simpson_guard_refuses_large_grids_up_front(truth, area, monkeypatch):
    """nodes^alpha x (M + K) beyond SIMPSON_GUARD is refused before any grid
    slab is built, naming crlb.nodes and the largest node count that passes."""

    def no_grid(*args):
        raise AssertionError("the refused grid was computed")

    monkeypatch.setattr(crlb_mod, "_grid_slabs", no_grid)
    net = make_network(40, area, 0.3937, seed=5)
    quantizer = make_uniform_quantizer(16, 0.0, 12.0)
    with pytest.raises(CompositionGuardError, match=r"crlb\.nodes <= 35 passes") as exc:
        fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, BitMapper(4), 0.4)
    assert "crlb.nodes=81" in str(exc.value)
    # the named count is the largest odd one within the guard
    for alpha, k in ((4, 40), (3, 100), (2, 7), (1, 10)):
        bm = BitMapper(alpha)
        with pytest.raises(CompositionGuardError) as exc:
            crlb_mod._check_simpson_args(bm, 10**9 + 1, k)
        top = int(re.search(r"crlb\.nodes <= (\d+)", str(exc.value)).group(1))
        assert top % 2 == 1
        assert top**alpha * (bm.m + k) <= crlb_mod.SIMPSON_GUARD
        assert (top + 2) ** alpha * (bm.m + k) > crlb_mod.SIMPSON_GUARD
    # where even 21 nodes exceed the guard, no count is suggested (every
    # count below 21 is refused too)
    for alpha, k in ((4, 600), (4, 1000), (5, 1)):
        bm = BitMapper(alpha)
        assert 21**alpha * (bm.m + k) > crlb_mod.SIMPSON_GUARD
        with pytest.raises(CompositionGuardError, match="no allowed node count") as exc:
            crlb_mod._check_simpson_args(bm, 21, k)
        assert "crlb.nodes <=" not in str(exc.value)
    # the benchmark's and the demos' grids pass
    for alpha, nodes, k in ((3, 81, 100), (4, 21, 40), (1, 81, 10), (2, 81, 40)):
        crlb_mod._check_simpson_args(BitMapper(alpha), nodes, k)


@pytest.mark.parametrize(
    "alpha, nodes",
    # per-node inner grids of nodes^(alpha-1) points: below 4096, and for
    # alpha >= 3 above
    [(1, 21), (1, 4097), (2, 21), (2, 101), (3, 21), (3, 65), (4, 7), (4, 17)],
)
def test_grid_slabs_cover_the_tensor_grid_in_c_order(alpha, nodes):
    # blocks of 4096, 300 and 7 points hold whole axis-0 nodes, split one
    # node's inner grid into runs along a deeper axis, or hold runs of fewer
    # nodes than one axis has
    bm, eta2 = BitMapper(alpha), 0.3
    eta = math.sqrt(eta2)
    z, w = simpson_nodes_weights(-6.0 * eta, 1.0 + 6.0 * eta, nodes)
    e_1d = np.stack([np.exp(-0.5 * z**2 / eta2), np.exp(-0.5 * (z - 1.0) ** 2 / eta2)], axis=1)
    idx = np.indices((nodes,) * alpha).reshape(alpha, -1)  # C order: axis 0 slowest
    bits = bm.codebook.astype(int)
    e_ref = np.prod([e_1d[idx[a]][:, bits[:, a]] for a in range(alpha)], axis=0)
    w_ref = np.prod([w[idx[a]] for a in range(alpha)], axis=0)
    (one_block,) = crlb_mod._grid_slabs(bm, eta2, nodes, nodes**alpha)
    per_node = nodes ** (alpha - 1)
    for rows in (4096, 300, 7):
        blocks = list(crlb_mod._grid_slabs(bm, eta2, nodes, rows))
        for _, w_blk in blocks:  # at most `rows` points, whole axis-0 nodes when one fits
            assert len(w_blk) <= rows
            if per_node <= rows:
                assert len(w_blk) % per_node == 0
        # in order, the blocks are the grid's consecutive C-order points
        e_all = np.concatenate([e for e, _ in blocks])
        w_all = np.concatenate([w for _, w in blocks])
        assert e_all.shape == (nodes**alpha, bm.m) and w_all.shape == (nodes**alpha,)
        np.testing.assert_allclose(e_all, e_ref, rtol=1e-14, atol=0)
        np.testing.assert_allclose(w_all, w_ref, rtol=1e-14, atol=0)
        # each point has the bits of the grid taken as one block
        assert np.array_equal(e_all, one_block[0]) and np.array_equal(w_all, one_block[1])


@pytest.mark.parametrize("n", [21, 81, 4097, 1_000_001])
def test_simpson_nodes_from_their_indices_are_linspace(n):
    """x_i = i h + lo with the last node hi is np.linspace bit for bit, and a
    run of indices has the bits of the full table's nodes and weights."""
    for lo, hi in ((-6.0 * math.sqrt(0.3), 1.0 + 6.0 * math.sqrt(0.3)), (0.0, 8.0)):
        x, w = simpson_nodes_weights(lo, hi, n)
        assert np.array_equal(x, np.linspace(lo, hi, n))
        pattern = np.full(n, 2.0)
        pattern[1::2], pattern[[0, -1]] = 4.0, 1.0
        assert np.array_equal(w, pattern * ((hi - lo) / (n - 1) / 3.0))
        run = np.arange(n // 3, n)
        x_run, w_run = _simpson_at(lo, hi, n, run)
        assert np.array_equal(x_run, x[run]) and np.array_equal(w_run, w[run])


def test_simpson_bound_does_not_depend_on_the_block_size(truth, area, monkeypatch):
    """Blocks that split axis-0 nodes' inner grids, or hold fewer points than
    one axis has nodes, change only the order of the sums; a grid that fits
    one block keeps every bit."""
    net = make_network(12, area, 0.3937, seed=9)
    for alpha, nodes, blocks in ((3, 21, (12 * 100, 12 * 5)), (2, 21, (12 * 50, 12 * 21**2))):
        quantizer, bm = make_uniform_quantizer(2**alpha, 0.0, 12.0), BitMapper(alpha)
        args = (net, GAUSSIAN_BELL, truth, quantizer, bm, 0.4)
        default = fisher_quantized_simpson(*args, nodes=nodes)
        for block in blocks:
            monkeypatch.setattr(crlb_mod, "_BLOCK", block)
            got = fisher_quantized_simpson(*args, nodes=nodes)
            if block >= 12 * nodes**alpha:  # the default grid is one block too
                assert np.array_equal(got, default)
            else:
                np.testing.assert_allclose(got, default, rtol=1e-13, atol=0)
            monkeypatch.undo()


@pytest.mark.parametrize(
    "k, m, nodes, ceiling_mib",
    # 2.5 and 3.3 MiB measured; blocks of whole axis-0 nodes peaked at 16.6
    # and 47 MiB (a nodes-long table for the one-bit grid)
    [(100, 8, 81, 4), (10, 2, 1_000_001, 6)],
)
def test_simpson_memory_is_one_block(truth, area, k, m, nodes, ceiling_mib):
    net = make_network(k, area, 0.3937, seed=5)
    quantizer, bm = make_uniform_quantizer(m, 0.0, 12.0), BitMapper(m.bit_length() - 1)
    tracemalloc.start()
    try:
        fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, bm, 0.4, nodes=nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling_mib * 2**20


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_quantized_information_never_exceeds_the_reading(truth, area, alpha):
    """Data processing: quantizing a reading and sending it over a noisy
    channel cannot add information, so each route's matrix stays below the
    noise-free analog one, sum_k grad G_k grad G_k^T / sigma2_k."""
    quantizer = make_uniform_quantizer(2**alpha, 0.0, 12.0)
    bm = BitMapper(alpha)
    for seed in (3, 8, 13):
        net = make_network(12, area, 0.3937, seed=seed)
        grads = GAUSSIAN_BELL.gradient(truth, net.x, net.y)
        ceiling = np.einsum("k,ks,kt->st", 1.0 / net.sigma2, grads, grads)
        scale = np.abs(ceiling).max()
        for eta2 in (0.05, 0.5):
            args = (net, GAUSSIAN_BELL, truth, quantizer, bm, eta2)
            for route, fisher in (
                ("simpson", fisher_quantized_simpson(*args, nodes=21 if alpha == 3 else 81)),
                ("series", fisher_quantized_series(*args, 4)),
            ):
                gap = ceiling - fisher
                assert np.linalg.eigvalsh(gap).min() >= -1e-10 * scale, (route, seed, eta2)


def test_simpson_single_sensor_is_a_rank_one_lift(truth, area):
    """With one sensor the Simpson matrix is J grad G grad G^T, and the
    sensor's information J about its field value lies in [0, 1/sigma2]."""
    quantizer = make_uniform_quantizer(4, 0.0, 12.0)
    for seed in (1, 2, 3):
        net = make_network(1, area, 0.3937, seed=seed)
        grad = GAUSSIAN_BELL.gradient(truth, net.x, net.y)[0]
        entries = fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, BitMapper(2), 0.3)
        info = float(grad @ entries @ grad) / float(grad @ grad) ** 2
        assert 0.0 <= info <= 1.0 / 0.3937
        np.testing.assert_allclose(
            entries, info * np.outer(grad, grad), rtol=0, atol=1e-12 * np.abs(entries).max()
        )


def test_simpson_validation(truth, area):
    net = make_network(4, area, 0.3937, seed=3)
    quantizer = make_uniform_quantizer(4, 0.0, 12.0)
    bm = BitMapper(2)
    with pytest.raises(ValueError):
        fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, bm, 0.4, nodes=82)
    with pytest.raises(ValueError):
        fisher_quantized_simpson(net, GAUSSIAN_BELL, truth, quantizer, BitMapper(5), 0.4)
    from fieldest import deploy_uniform

    bare = deploy_uniform(4, area, np.random.SeedSequence(3))
    with pytest.raises(ValueError):
        fisher_quantized_simpson(bare, GAUSSIAN_BELL, truth, quantizer, bm, 0.4)
