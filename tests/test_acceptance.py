"""Full-scale release checks.

Every statistical and numerical contract the package promises is exercised
here at study scale (up to K = 100 sensors, hundreds of Monte Carlo trials),
and each check prints exactly one PASS/FAIL line carrying the measured value
next to its tolerance and its wall-clock budget.  Two checks document known
model-level limits and fail honestly rather than loosening their target; the
FAIL lines explain why in full.

Expect tens of minutes for the whole file; run it alone when iterating on
anything lighter (`pytest tests/test_acceptance.py -v`).
"""

import json
import time

import numpy as np

from fieldest import (
    Area,
    BitMapper,
    CompositionGuardError,
    ExperimentConfig,
    FieldParams,
    GAUSSIAN_BELL,
    SolverConfig,
    calibrate_eta_analog,
    calibrate_eta_quantized,
    calibrate_sigma,
    compare_em_nr,
    deploy_uniform,
    export_po_csv,
    export_report,
    fisher_analog,
    fisher_quantized_series,
    fisher_quantized_simpson,
    level_probabilities,
    loglik_quantized,
    make_uniform_quantizer,
    quantize_forward,
    run_campaign,
    sample_observations,
)
from fieldest import experiments
from fieldest.experiments import resolve_cells

from conftest import (
    gaussian_product_integral,
    grid_gamma,
    lambda_term,
    posterior_mean,
    posterior_quadrature,
    quantized_loglik_derivs,
)

TRUTH = FieldParams(8.0, 2.0, 2.0, 4.0, 4.0)
AREA = Area(0.0, 8.0, 0.0, 8.0)
BASE_SEED = 20240901

# cumulative wall-clock per budget group (several checks share one budget)
_SPENT = {}


def _line(ok, name, detail):
    msg = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(msg)
    return msg


def _charge(group, seconds):
    _SPENT[group] = _SPENT.get(group, 0.0) + seconds
    return _SPENT[group]


def _increases(seq):
    """Adjacent pairs that rise, i.e. violations of a decreasing trend."""
    return sum(1 for a, b in zip(seq, seq[1:]) if b > a)


def _fixed_net(k, snr_o_db=15.0, seed=BASE_SEED):
    sigma2 = calibrate_sigma(GAUSSIAN_BELL, TRUTH, AREA, snr_o_db)
    net = deploy_uniform(k, AREA, np.random.SeedSequence(seed))
    return net.with_sigma2(np.full(k, sigma2)), sigma2


# --------------------------------------------------------------- primitives


def test_level_probabilities_normalize():
    """Quantizer cell masses telescope to 1, both for observed readings and
    for the transition masses evaluated at roaming iterate field values."""
    rng = np.random.default_rng(BASE_SEED)
    t0 = time.perf_counter()
    worst_p = 0.0
    worst_t = 0.0
    for _ in range(1000):
        m = int(rng.choice([2, 4, 8]))
        lo = float(rng.uniform(-3.0, 3.0))
        q = make_uniform_quantizer(m, lo, lo + float(rng.uniform(1.0, 15.0)))
        sigma = float(rng.uniform(0.05, 4.0))
        g = float(rng.uniform(lo - 3.0, lo + 18.0))
        worst_p = max(worst_p, abs(float(level_probabilities(q, g, sigma).sum()) - 1.0))
        # iterates can put the field value far outside the quantizer range
        g_iter = float(rng.uniform(-12.0, 25.0))
        worst_t = max(worst_t, abs(float(level_probabilities(q, g_iter, sigma).sum()) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_p <= 1e-12 and worst_t <= 1e-12 and elapsed < 1.0
    msg = _line(
        ok,
        "probability normalization",
        f"max |sum p - 1| = {worst_p:.2e} and max |sum dT - 1| = {worst_t:.2e} "
        f"over 1000 random (quantizer, g, sigma) triples (tol 1e-12, {elapsed:.2f}s < 1s)",
    )
    assert ok, msg


def test_posterior_weight_quadrature_is_unit():
    """The tensor-grid rule integrates every per-level weight to 1 +- 1e-6."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for idx in range(20):
        alpha = 1 + idx % 3
        bm = BitMapper(alpha)
        lo = float(rng.uniform(-2.0, 2.0))
        q = make_uniform_quantizer(bm.m, lo, lo + float(rng.uniform(4.0, 16.0)))
        g = float(rng.uniform(lo - 1.0, lo + 17.0))
        sigma = float(rng.uniform(0.3, 3.0))
        eta2 = float(rng.uniform(0.1, 2.0))
        gamma = grid_gamma(q, bm, g, sigma, eta2)
        worst = max(worst, float(np.max(np.abs(gamma - 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    msg = _line(
        ok,
        "unit-weight quadrature",
        f"max |Gamma_j - 1| = {worst:.2e} over 20 random configurations at "
        f"1-3 bits (tol 1e-6, {elapsed:.1f}s < 30s)",
    )
    assert ok, msg


def test_kernel_overlap_closed_form_matches_quadrature():
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    worst = 0.0
    for idx in range(50):
        alpha = 1 + idx % 3
        bm = BitMapper(alpha)
        eta2 = float(rng.uniform(0.2, 2.0))
        ell = rng.multinomial(int(rng.integers(0, 5)), np.full(bm.m, 1.0 / bm.m))
        j = int(rng.integers(1, bm.m + 1))
        i = int(rng.integers(1, bm.m + 1))
        closed = lambda_term(ell, j, i, bm, eta2)
        reference = gaussian_product_integral(ell, j, i, bm, eta2)
        worst = max(worst, abs(closed - reference) / abs(reference))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    msg = _line(
        ok,
        "kernel overlap closed form",
        f"max rel err = {worst:.2e} vs 1-D quadrature over 50 random "
        f"(ell, j, i, eta2) configurations at 1-3 bits (tol 1e-5, {elapsed:.1f}s < 60s)",
    )
    assert ok, msg


# ------------------------------------------------- the two bound routes


def test_series_bound_tracks_quadrature(tmp_path):
    """Truncated-series information matrix vs the 81-node quadrature route at
    M=2, K=10, 15 dB, scanning the truncation order to 10 and emitting the
    convergence curve.

    KNOWN LIMIT — this check fails honestly.  The truncation residual is a
    positive-semidefinite tail whose mass sits where the received-word
    density is smallest, which turns the nominal geometric decay into a power
    law in the truncation order; at this channel noise no evaluable order
    reaches 1% (details in the FAIL line, curve printed above it).
    """
    t0 = time.perf_counter()
    net, sigma2 = _fixed_net(10)
    q = make_uniform_quantizer(2, 0.0, 12.0)
    bm = BitMapper(1)
    eta2 = calibrate_eta_quantized(GAUSSIAN_BELL, TRUTH, AREA, q, sigma2, 15.0)
    ref = fisher_quantized_simpson(net, GAUSSIAN_BELL, TRUTH, q, bm, eta2, nodes=81)
    scale = float(np.max(np.abs(ref)))
    floor = 1e-12 * scale
    curve = []
    prev = None
    for zeta in range(0, 11):
        ent = fisher_quantized_series(net, GAUSSIAN_BELL, TRUTH, q, bm, eta2, zeta=zeta)
        dev = float(np.max(np.abs(ent - ref) / np.maximum(np.abs(ref), floor)))
        step = np.nan if prev is None else float(np.max(np.abs(ent - prev)) / scale)
        curve.append((zeta, dev, step))
        prev = ent
    elapsed = time.perf_counter() - t0
    _charge("series-route", elapsed)

    lines = ["zeta,max_entrywise_deviation,successive_change"]
    print("convergence of the series route toward the quadrature reference:")
    for zeta, dev, step in curve:
        step_txt = "" if np.isnan(step) else f"{step:.6e}"
        lines.append(f"{zeta},{dev:.6e},{step_txt}")
        print(f"  order {zeta:2d}: deviation {dev:8.2%}   successive change {step_txt or '-'}")
    (tmp_path / "series_vs_quadrature.csv").write_text("\n".join(lines) + "\n")

    best_zeta, best = min(((z, d) for z, d, _ in curve), key=lambda t: t[1])
    ok = best <= 0.01 and elapsed < 300.0
    msg = _line(
        ok,
        "series/quadrature agreement",
        f"best entrywise deviation {best:.1%} at truncation order {best_zeta} "
        f"(target 1% by order 10; curve above; {elapsed:.1f}s). "
        "The residual is positive semidefinite — the series climbs toward the "
        "quadrature value from below — and decays only as a power law in the "
        "order (roughly order^-0.65 here), so 1% would need order ~2700: far "
        "beyond both the order limit (zeta <= 170, SERIES_ORDER_LIMIT) and float64, "
        "whose regrouped alternating coefficients cancel catastrophically "
        "past order ~50.  At this calibration the channel noise (eta^2 ~ "
        "0.55) is not small against the unit bit spacing, which is what the "
        "expansion needs to converge quickly.  The series code itself is "
        "exact: it reproduces the order-truncated integrand to machine "
        "precision (unit suite), so the gap is pure truncation error.",
    )
    assert ok, msg


def test_large_alphabet_series_completes_or_refuses():
    # M=8 at K=40: either a finite matrix under the term-count guard or a
    # clean refusal naming the guard — never a hang or a raw overflow.
    t0 = time.perf_counter()
    net, sigma2 = _fixed_net(40)
    q = make_uniform_quantizer(8, 0.0, 12.0)
    bm = BitMapper(3)
    eta2 = calibrate_eta_quantized(GAUSSIAN_BELL, TRUTH, AREA, q, sigma2, 15.0)
    try:
        fm = fisher_quantized_series(net, GAUSSIAN_BELL, TRUTH, q, bm, eta2, zeta=10)
        outcome = f"completed with a finite {fm.shape} matrix"
        finished = bool(np.all(np.isfinite(fm)))
    except CompositionGuardError as exc:
        outcome = f"cleanly refused ({exc})"
        finished = True
    elapsed = time.perf_counter() - t0
    total = _charge("series-route", elapsed)
    ok = finished and total < 300.0
    msg = _line(
        ok,
        "large-alphabet series run",
        f"M=8, K=40, order 10 {outcome} ({elapsed:.1f}s; route total "
        f"{total:.1f}s < 300s)",
    )
    assert ok, msg


def test_analog_fisher_matches_monte_carlo_curvature():
    """Closed-form analog information equals the Monte Carlo average of the
    negated log-likelihood curvature."""
    t0 = time.perf_counter()
    net, sigma2 = _fixed_net(10)
    eta2 = calibrate_eta_analog(GAUSSIAN_BELL, TRUTH, AREA, sigma2, 15.0)
    fisher = fisher_analog(net, GAUSSIAN_BELL, TRUTH, eta2)
    grads = GAUSSIAN_BELL.gradient(TRUTH, net.x, net.y)
    hesses = GAUSSIAN_BELL.hessian(TRUTH, net.x, net.y)
    v = net.sigma2 + eta2
    w = 1.0 / v
    rng = np.random.default_rng(np.random.SeedSequence(entropy=BASE_SEED, spawn_key=(5,)))
    residuals = rng.standard_normal((100_000, net.k)) * np.sqrt(v)
    # the per-draw curvature is linear in the residual, so averaging the
    # draws averages the residuals inside the same closed expression
    res_mean = residuals.mean(axis=0)
    h_mc = np.einsum("k,k,kst->st", w, res_mean, hesses) - np.einsum(
        "k,ks,kt->st", w, grads, grads
    )
    rel = float(np.linalg.norm(-h_mc - fisher) / np.linalg.norm(fisher))
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.01 and elapsed < 120.0
    msg = _line(
        ok,
        "analog information consistency",
        f"rel err = {rel:.2e} between the closed form and the Monte Carlo "
        f"mean curvature over 1e5 draws at K=10 (tol 1e-2, {elapsed:.1f}s < 120s)",
    )
    assert ok, msg


# ------------------------------------------------------------- derivatives


def test_gradients_match_finite_differences():
    """Analytic field gradient and quantized log-likelihood gradient vs
    central finite differences at 20 random parameter points."""
    t0 = time.perf_counter()
    net, sigma2 = _fixed_net(12, seed=77)
    q = make_uniform_quantizer(4, 0.0, 12.0)
    bm = BitMapper(2)
    eta2 = calibrate_eta_quantized(GAUSSIAN_BELL, TRUTH, AREA, q, sigma2, 15.0)
    obs = sample_observations(net, GAUSSIAN_BELL, TRUTH, np.random.SeedSequence(78))
    z = quantize_forward(obs, q, bm, eta2, np.random.SeedSequence(79))

    rng = np.random.default_rng(911)
    worst_field = 0.0
    worst_loglik = 0.0
    for _ in range(20):
        theta = np.array(
            [
                rng.uniform(2.0, 12.0),
                rng.uniform(0.8, 4.0),
                rng.uniform(0.8, 4.0),
                rng.uniform(1.0, 7.0),
                rng.uniform(1.0, 7.0),
            ]
        )
        params = FieldParams.from_array(theta)
        an_field = GAUSSIAN_BELL.gradient(params, net.x, net.y)
        an_ll, _ = quantized_loglik_derivs(z, net, q, bm, GAUSSIAN_BELL, eta2, theta)
        fd_field = np.empty_like(an_field)
        fd_ll = np.empty_like(an_ll)
        for s in range(5):
            h = 1e-5 * max(1.0, abs(theta[s]))
            up, dn = theta.copy(), theta.copy()
            up[s] += h
            dn[s] -= h
            pu, pd = FieldParams.from_array(up), FieldParams.from_array(dn)
            fd_field[:, s] = (
                GAUSSIAN_BELL.value(pu, net.x, net.y) - GAUSSIAN_BELL.value(pd, net.x, net.y)
            ) / (2.0 * h)
            fd_ll[s] = (
                loglik_quantized(z, net, q, bm, GAUSSIAN_BELL, pu, eta2)
                - loglik_quantized(z, net, q, bm, GAUSSIAN_BELL, pd, eta2)
            ) / (2.0 * h)
        worst_field = max(
            worst_field,
            float(np.max(np.abs(fd_field - an_field)) / max(np.max(np.abs(an_field)), 1e-12)),
        )
        worst_loglik = max(
            worst_loglik,
            float(np.max(np.abs(fd_ll - an_ll)) / max(np.max(np.abs(an_ll)), 1e-12)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_field <= 1e-5 and worst_loglik <= 1e-5 and elapsed < 60.0
    msg = _line(
        ok,
        "gradient checks",
        f"field grad rel err = {worst_field:.2e}, quantized log-lik grad rel err = "
        f"{worst_loglik:.2e} vs central differences at 20 random points "
        f"(tol 1e-5, {elapsed:.1f}s < 60s)",
    )
    assert ok, msg


# ------------------------------------------------------------ EM guarantees


def test_em_loglik_ascends_on_every_trial():
    """Each accepted expectation-maximization step may only raise the
    incomplete-data log-likelihood (generalized M-steps included)."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="quantized",
        estimator="em",
        k_values=(40,),
        m_values=(8,),
        trials=200,
        crlb_enabled=False,
    )
    cells, ids = resolve_cells(cfg)
    calib = experiments._cell_calibration(cfg, cells[0])
    records = experiments._run_trials(cfg, cells[0], ids[0], calib, range(cfg.trials))
    worst_drop = np.inf
    n_traces = 0
    hard_failures = 0
    for rec in records:
        if rec.result is None:
            hard_failures += 1
            continue
        steps = np.diff(rec.result.loglik_trace)
        n_traces += 1
        if steps.size:
            worst_drop = min(worst_drop, float(steps.min()))
    elapsed = time.perf_counter() - t0
    ok = n_traces == 200 and hard_failures == 0 and worst_drop >= -1e-9 and elapsed < 600.0
    msg = _line(
        ok,
        "EM ascent",
        f"smallest per-step log-likelihood change = {worst_drop:.3e} over "
        f"{n_traces} traces of 200 trials (K=40, M=8, 15 dB; slack -1e-9; "
        f"{hard_failures} hard failures; {elapsed:.0f}s < 600s)",
    )
    assert ok, msg


def test_em_posterior_moments_match_quadrature():
    """The closed-form posterior mean A matches direct 1-D quadrature of the
    conditional expectation at random configurations, and the quadrature
    posterior mass B_quad is 1 (the identity that lets EM carry no B)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_a = 0.0
    worst_b = 0.0
    for idx in range(100):
        alpha = 1 + idx % 3
        bm = BitMapper(alpha)
        lo = float(rng.uniform(-2.0, 2.0))
        q = make_uniform_quantizer(bm.m, lo, lo + float(rng.uniform(4.0, 16.0)))
        sigma = float(rng.uniform(0.3, 3.0))
        eta2 = float(rng.uniform(0.1, 2.0))
        g = float(rng.uniform(lo - 2.0, q.boundaries[-2] + 2.0))
        word = bm.codebook[int(rng.integers(0, bm.m))]
        z = word + rng.standard_normal(alpha) * np.sqrt(eta2)

        a_impl = posterior_mean(z, q, bm, g, sigma, eta2)
        a_ref, b_quad = posterior_quadrature(z, q, bm, g, sigma, eta2)
        worst_a = max(worst_a, abs(a_impl - a_ref))
        worst_b = max(worst_b, abs(b_quad - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-8 and worst_b <= 1e-8 and elapsed < 60.0
    msg = _line(
        ok,
        "posterior moment quadrature",
        f"max |A - A_quad| = {worst_a:.2e}, max |B_quad - 1| = {worst_b:.2e} "
        f"over 100 random configurations (tol 1e-8, {elapsed:.1f}s < 60s)",
    )
    assert ok, msg


# ----------------------------------------------------------- study trends


def _cell_medians(report):
    return [row["box"]["median"] for row in report["cells"]]


def test_mse_decreases_with_sensor_count():
    """Box-median squared error falls as the network grows (analog channel,
    Newton, 200 trials per size)."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="analog", k_values=(10, 20, 40, 100), trials=200, crlb_enabled=False
    )
    meds = _cell_medians(run_campaign(cfg))
    elapsed = time.perf_counter() - t0
    total = _charge("trend-sweeps", elapsed)
    inversions = _increases(meds)
    ok = inversions <= 1 and total < 1800.0
    msg = _line(
        ok,
        "sensor-count trend",
        f"medians {[round(v, 3) for v in meds]} over K=(10, 20, 40, 100) — "
        f"{inversions} inversion(s), at most 1 allowed (200 trials/cell, "
        f"{elapsed:.0f}s; sweep budget {total:.0f}s < 1800s)",
    )
    assert ok, msg


def test_mse_decreases_with_quantizer_levels():
    """Box-median squared error falls as the quantizer alphabet grows
    (quantized channel, EM, 200 trials per size)."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="quantized",
        estimator="em",
        k_values=(40,),
        m_values=(2, 4, 8, 16),
        trials=200,
        crlb_enabled=False,
    )
    meds = _cell_medians(run_campaign(cfg))
    elapsed = time.perf_counter() - t0
    total = _charge("trend-sweeps", elapsed)
    inversions = _increases(meds)
    ok = inversions <= 1 and total < 1800.0
    msg = _line(
        ok,
        "quantizer-level trend",
        f"medians {[round(v, 3) for v in meds]} over M=(2, 4, 8, 16) — "
        f"{inversions} inversion(s), at most 1 allowed (200 trials/cell, "
        f"{elapsed:.0f}s; sweep budget {total:.0f}s < 1800s)",
    )
    assert ok, msg


def test_low_observation_snr_hurts_more_than_low_channel_snr():
    """Claimed direction: (SNR_O, SNR_C) = (10, 20) dB should estimate worse
    than (20, 10) dB at K=40, M=8.

    KNOWN LIMIT — this check fails honestly: under this package's bit-level
    channel (unit-amplitude code words with the channel noise calibrated
    against the quantizer output power) the direction comes out inverted,
    and by a wide margin.  The FAIL line carries the measurement and the
    reason; nothing in the channel contract is bent to force the claim.
    """
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="quantized",
        estimator="em",
        k_values=(40,),
        m_values=(8,),
        snr_o_db=(10.0, 20.0),
        snr_c_db=(20.0, 10.0),
        trials=200,
        crlb_enabled=False,
    )
    report = run_campaign(cfg)
    elapsed = time.perf_counter() - t0
    total = _charge("trend-sweeps", elapsed)
    row_low_obs, row_low_chan = report["cells"]
    med_low_obs = row_low_obs["box"]["median"]
    med_low_chan = row_low_chan["box"]["median"]
    ok = med_low_obs > med_low_chan and total < 1800.0
    msg = _line(
        ok,
        "snr split direction",
        f"median SE {med_low_obs:.3f} at (SNR_O, SNR_C) = (10, 20) dB vs "
        f"{med_low_chan:.3f} at (20, 10) dB over 200 matched trials — the "
        f"claimed direction is inverted ({row_low_obs['n_converged']}/200 vs "
        f"{row_low_chan['n_converged']}/200 converged; {elapsed:.0f}s; sweep "
        f"budget {total:.0f}s < 1800s). Why: code words carry unit-amplitude "
        "bits while the channel-noise calibration budgets against the "
        "quantizer output power (values up to ~12), so SNR_C = 10 dB means "
        "eta ~ 1.12 against a bit spacing of 1 — a ~33% per-bit flip rate "
        "that makes the received words nearly uninformative. The mirrored "
        "setting merely raises observation noise to sigma ~ 1.12 against a "
        "field of height 8, which the quantizer mostly absorbs. At equal "
        "nominal SNR the transmission side therefore dominates. An "
        "energy-normalized constellation (code words scaled to the power "
        "budget) would restore the claimed direction but is outside this "
        "package's channel contract, which pins binary unit-amplitude words.",
    )
    assert ok, msg


def test_mse_breaks_down_beyond_mid_initialization_regions():
    """Median squared error grows with the initialization-region index and
    jumps sharply once starts leave the attraction basin (analog channel,
    Newton, 200 trials per region)."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="analog",
        k_values=(40,),
        trials=200,
        init_policy="region",
        init_regions=tuple(range(1, 9)),
        crlb_enabled=False,
    )
    meds = _cell_medians(run_campaign(cfg))
    elapsed = time.perf_counter() - t0
    total = _charge("trend-sweeps", elapsed)
    drops = sum(1 for a, b in zip(meds, meds[1:]) if b < a)
    jumps = [b / a for a, b in zip(meds[3:], meds[4:])]  # transitions from region 4 on
    sharpest = max(jumps)
    ok = drops <= 1 and sharpest >= 10.0 and total < 1800.0
    msg = _line(
        ok,
        "initialization-region trend",
        f"medians {[float(f'{v:.3g}') for v in meds]} over regions 1-8 — "
        f"{drops} inversion(s) (at most 1 allowed) and a x{sharpest:.0f} "
        f"jump beyond the mid regions (>= x10 required; 200 trials/region, "
        f"{elapsed:.0f}s; sweep budget {total:.0f}s < 1800s)",
    )
    assert ok, msg


# ------------------------------------------------------ efficiency and race


_EFFICIENCY_PARAMS = (("x_c", 3), ("h", 0), ("rho_x", 1))


def test_analog_variance_within_factor_two_of_bound():
    """Converged-trial estimator variance against the information bound at
    K=100, 15 dB (analog channel).

    Protocol: trials start at the true parameters.  The bound presumes an
    interior optimum, so basin misses are excluded by construction; the
    estimator still iterates on noisy data (its score at the truth is
    nonzero for every realization), hence nothing about the variance is
    assumed.  Variance is about the empirical mean, per parameter.
    """
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="analog", k_values=(100,), trials=500, init_theta=TRUTH, crlb_enabled=True
    )
    row = run_campaign(cfg)["cells"][0]
    elapsed = time.perf_counter() - t0
    total = _charge("efficiency", elapsed)
    var, crlb = row["variance_converged"], row["crlb_diag"]
    ratios = {name: var[i] / crlb[i] for name, i in _EFFICIENCY_PARAMS}
    ok = all(r < 2.0 for r in ratios.values()) and total < 1200.0
    msg = _line(
        ok,
        "analog efficiency",
        f"variance/bound ratios {({k: round(v, 2) for k, v in ratios.items()})} "
        f"< 2 required ({row['n_converged']}/500 converged at K=100; "
        f"{elapsed:.0f}s; efficiency budget {total:.0f}s < 1200s)",
    )
    assert ok, msg


def test_quantized_variance_within_factor_three_of_bound():
    """Same protocol as the analog efficiency check, quantized channel at
    M=8 with the EM estimator; the iteration cap is raised because the EM
    tail approaches the optimum linearly at this noise level."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="quantized",
        estimator="em",
        k_values=(100,),
        m_values=(8,),
        trials=500,
        init_theta=TRUTH,
        solver=SolverConfig(max_outer=500),
        crlb_enabled=True,
    )
    row = run_campaign(cfg)["cells"][0]
    elapsed = time.perf_counter() - t0
    total = _charge("efficiency", elapsed)
    var, crlb = row["variance_converged"], row["crlb_diag"]
    ratios = {name: var[i] / crlb[i] for name, i in _EFFICIENCY_PARAMS}
    ok = all(r < 3.0 for r in ratios.values()) and total < 1200.0
    msg = _line(
        ok,
        "quantized efficiency",
        f"variance/bound ratios {({k: round(v, 2) for k, v in ratios.items()})} "
        f"< 3 required ({row['n_converged']}/500 converged at K=100, M=8; "
        f"{elapsed:.0f}s; efficiency budget {total:.0f}s < 1200s)",
    )
    assert ok, msg


def test_nr_iterates_less_but_em_lands_closer():
    """Newton-Raphson needs fewer iterations than EM on the jointly-converged
    trials, while EM's median squared error is no worse (200 matched trials,
    bit-identical data and initializations)."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="quantized",
        estimator="em",
        k_values=(40,),
        m_values=(8,),
        trials=200,
        crlb_enabled=False,
    )
    cell = compare_em_nr(cfg)["cells"][0]
    elapsed = time.perf_counter() - t0
    em_it, nr_it = cell["em_mean_iterations_joint"], cell["nr_mean_iterations_joint"]
    em_se, nr_se = cell["em_median_se"], cell["nr_median_se"]
    joint = cell["n_jointly_converged"]
    ok = (
        joint >= 2
        and nr_it is not None
        and nr_it < em_it
        and em_se <= nr_se
        and elapsed < 900.0
    )
    msg = _line(
        ok,
        "EM/NR race",
        f"mean iterations {nr_it:.1f} (NR) < {em_it:.1f} (EM) on {joint} "
        f"jointly-converged trials, and median SE {em_se:.3f} (EM) <= "
        f"{nr_se:.3f} (NR) over all 200 ({elapsed:.0f}s < 900s)",
    )
    assert ok, msg


# -------------------------------------------------------------- determinism


def test_campaign_reports_are_byte_identical(tmp_path):
    """Re-running a campaign with the same configuration and seed reproduces
    every report artifact byte for byte."""
    t0 = time.perf_counter()

    def produce(tag):
        cfg = ExperimentConfig(
            channel="quantized",
            estimator="em",
            k_values=(8,),
            m_values=(4,),
            trials=5,
            crlb_enabled=True,
            crlb_nodes=21,
        )
        report = run_campaign(cfg)
        out = tmp_path / tag
        out.mkdir()
        export_report(report, out / "report.json", fmt="json")
        export_report(report, out / "cells.csv", fmt="csv")
        export_po_csv(report, out / "po_curve.csv")
        return report, out

    report_a, dir_a = produce("a")
    report_b, dir_b = produce("b")
    same_dict = json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)
    same_files = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("report.json", "cells.csv", "po_curve.csv")
    )
    elapsed = time.perf_counter() - t0
    ok = same_dict and same_files
    msg = _line(
        ok,
        "campaign determinism",
        f"two identical runs produced byte-identical report.json, cells.csv "
        f"and po_curve.csv (dict equality {same_dict}; {elapsed:.0f}s)",
    )
    assert ok, msg
