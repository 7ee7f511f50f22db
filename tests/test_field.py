import math

import numpy as np
import pytest

from fieldest import (
    Area,
    FieldParams,
    GAUSSIAN_BELL,
    N_PARAMS,
    PARAM_NAMES,
    field_squared_integral,
)


def test_param_order():
    assert PARAM_NAMES == ("h", "rho_x", "rho_y", "x_c", "y_c")
    assert N_PARAMS == 5


def test_params_round_trip():
    p = FieldParams(8.0, 2.0, 2.5, 4.0, 3.0)
    assert FieldParams.from_array(p.as_array()) == p
    with pytest.raises(ValueError):
        FieldParams(1.0, -1.0, 2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        FieldParams(1.0, 2.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        FieldParams.from_array(np.arange(4.0))


def test_value_peak_and_decay(truth):
    # exact peak value at the center, and the one-sigma contour in each axis
    assert GAUSSIAN_BELL.value(truth, 4.0, 4.0) == pytest.approx(8.0, abs=0)
    assert GAUSSIAN_BELL.value(truth, 6.0, 4.0) == pytest.approx(8.0 * math.exp(-0.5))
    assert GAUSSIAN_BELL.value(truth, 4.0, 2.0) == pytest.approx(8.0 * math.exp(-0.5))
    # symmetric bell: same value at mirrored offsets
    mirrored = GAUSSIAN_BELL.value(truth, 2.7, 4.0)
    assert GAUSSIAN_BELL.value(truth, 5.3, 4.0) == pytest.approx(mirrored)


def test_value_broadcasts(truth):
    xs = np.linspace(0, 8, 7)
    ys = np.linspace(0, 8, 7)
    vals = GAUSSIAN_BELL.value(truth, xs, ys)
    assert vals.shape == (7,)
    grid = GAUSSIAN_BELL.value(truth, xs[:, None], ys[None, :])
    assert grid.shape == (7, 7)
    assert grid.max() == pytest.approx(GAUSSIAN_BELL.value(truth, xs[3], ys[3]))


def _fd_gradient(params, x, y, h=1e-6):
    theta = params.as_array()
    out = np.empty(N_PARAMS)
    for s in range(N_PARAMS):
        up, dn = theta.copy(), theta.copy()
        step = h * max(1.0, abs(theta[s]))
        up[s] += step
        dn[s] -= step
        out[s] = (
            GAUSSIAN_BELL.value(FieldParams.from_array(up), x, y)
            - GAUSSIAN_BELL.value(FieldParams.from_array(dn), x, y)
        ) / (2 * step)
    return out


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(20):
        params = FieldParams(
            h=rng.uniform(2, 12),
            rho_x=rng.uniform(0.8, 3.5),
            rho_y=rng.uniform(0.8, 3.5),
            x_c=rng.uniform(1, 7),
            y_c=rng.uniform(1, 7),
        )
        x, y = rng.uniform(0, 8, 2)
        grad = GAUSSIAN_BELL.gradient(params, x, y)
        fd = _fd_gradient(params, x, y)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.max(np.abs(grad - fd)) / scale < 1e-6


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = FieldParams(
            h=rng.uniform(2, 12),
            rho_x=rng.uniform(0.8, 3.5),
            rho_y=rng.uniform(0.8, 3.5),
            x_c=rng.uniform(1, 7),
            y_c=rng.uniform(1, 7),
        )
        x, y = rng.uniform(0, 8, 2)
        hess = GAUSSIAN_BELL.hessian(params, x, y)
        assert hess.shape == (N_PARAMS, N_PARAMS)
        assert np.allclose(hess, hess.T)
        theta = params.as_array()
        fd = np.empty((N_PARAMS, N_PARAMS))
        for s in range(N_PARAMS):
            step = 1e-5 * max(1.0, abs(theta[s]))
            up, dn = theta.copy(), theta.copy()
            up[s] += step
            dn[s] -= step
            fd[s] = (
                GAUSSIAN_BELL.gradient(FieldParams.from_array(up), x, y)
                - GAUSSIAN_BELL.gradient(FieldParams.from_array(dn), x, y)
            ) / (2 * step)
        scale = max(np.abs(fd).max(), 1e-8)
        # central differences of the analytic gradient: agreement to ~1e-8
        assert np.max(np.abs(hess - fd)) / scale < 1e-6


def test_gradient_hessian_broadcast(truth):
    xs = np.linspace(0.5, 7.5, 6)
    ys = np.linspace(1.0, 7.0, 6)
    assert GAUSSIAN_BELL.gradient(truth, xs, ys).shape == (6, N_PARAMS)
    assert GAUSSIAN_BELL.hessian(truth, xs, ys).shape == (6, N_PARAMS, N_PARAMS)


def test_area_measure_and_validation():
    a = Area(0.0, 8.0, -1.0, 3.0)
    assert a.measure == pytest.approx(32.0)
    with pytest.raises(ValueError):
        Area(0.0, 0.0, 0.0, 1.0)


def test_squared_integral_matches_closed_form(truth, area):
    # G^2 separates into two 1-D Gaussian integrals with an erf closed form:
    # int exp(-((t-c)/rho)^2) dt = rho*sqrt(pi)/2 * [erf((t-c)/rho)]
    def seg(c, rho, lo, hi):
        return rho * math.sqrt(math.pi) / 2.0 * (math.erf((hi - c) / rho) - math.erf((lo - c) / rho))

    closed = truth.h**2 * seg(4, 2, 0, 8) * seg(4, 2, 0, 8)
    assert closed == pytest.approx(796.7412018476726, rel=1e-12)
    val = field_squared_integral(truth, area, grid=201)
    assert val == pytest.approx(closed, rel=1e-8)
    with pytest.raises(ValueError):
        field_squared_integral(truth, area, grid=200)
    with pytest.raises(ValueError):
        field_squared_integral(truth, area, grid=9)


def test_extreme_parameters_saturate_without_raising():
    # optimizer iterates wander to absurd spreads and centers; the kernels
    # must saturate through IEEE arithmetic instead of raising, and the
    # underflowed-envelope region is exactly zero
    x = np.array([1.0, 4.0, 7.5])
    y = np.array([2.0, 4.0, 0.5])
    extremes = (
        FieldParams(8.0, 1e200, 2.0, 4.0, 4.0),
        FieldParams(8.0, 1e-3, 1e-3, 4.0, 4.0),
        FieldParams(-3.0, 2.0, 2.0, 400.0, -400.0),
    )
    for p in extremes:
        assert np.all(np.isfinite(GAUSSIAN_BELL.value(p, x, y)))
        assert not np.any(np.isnan(GAUSSIAN_BELL.gradient(p, x, y)))
        assert not np.any(np.isnan(GAUSSIAN_BELL.hessian(p, x, y)))
    far = FieldParams(8.0, 2.0, 2.0, 4000.0, 4.0)
    assert np.all(GAUSSIAN_BELL.value(far, x, y) == 0.0)
    assert np.all(GAUSSIAN_BELL.gradient(far, x, y) == 0.0)
    assert np.all(GAUSSIAN_BELL.hessian(far, x, y) == 0.0)


def test_kernels_on_stacked_params_equal_per_row_calls():
    # a (T, 5) stack gives (T, 1) parameter columns that broadcast against
    # (T, K) points; each row is bitwise the per-row call, the saturating
    # rows included, and the underflowed envelope is exactly 0 row by row
    rows = [
        FieldParams(8.0, 2.0, 2.5, 4.0, 3.0),
        FieldParams(8.0, 1e200, 2.0, 4.0, 4.0),
        FieldParams(8.0, 1e-3, 1e-3, 4.0, 4.0),
        FieldParams(-3.0, 2.0, 2.0, 400.0, -400.0),
        FieldParams(8.0, 2.0, 2.0, 4000.0, 4.0),
    ]
    rng = np.random.default_rng(12)
    x = np.hstack([np.tile([1.0, 4.0, 7.5], (len(rows), 1)), rng.uniform(0, 8, (len(rows), 6))])
    y = np.hstack([np.tile([2.0, 4.0, 0.5], (len(rows), 1)), rng.uniform(0, 8, (len(rows), 6))])
    stacked = FieldParams.from_array(np.array([p.as_array() for p in rows]))
    assert np.shape(stacked.rho_x) == (len(rows), 1)
    for name in ("value", "gradient", "hessian"):
        got = getattr(GAUSSIAN_BELL, name)(stacked, x, y)
        assert got.shape[:2] == x.shape
        for i, p in enumerate(rows):
            assert got[i].tobytes() == getattr(GAUSSIAN_BELL, name)(p, x[i], y[i]).tobytes()
        assert np.all(got[4] == 0.0)


def test_stacked_params_check_every_row():
    stack = np.array([[8.0, 2.0, 2.5, 4.0, 3.0]] * 4)
    FieldParams.from_array(stack)
    for bad in (0.0, -1.0, np.nan):
        for col in (1, 2):
            broken = stack.copy()
            broken[2, col] = bad
            with pytest.raises(ValueError, match="spreads must be positive"):
                FieldParams.from_array(broken)
    with pytest.raises(ValueError):
        FieldParams.from_array(np.ones((2, 3, 5)))
