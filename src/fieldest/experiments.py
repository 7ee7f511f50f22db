"""Monte Carlo campaigns over the estimation pipeline.

A campaign sweeps cells (sensor count, quantizer size, SNR pair, initial
region), runs independent trials per cell, and aggregates squared-error box
statistics, MSE, outlier-probability curves, per-parameter variances over the
converged trials, and the matching CRLB diagonal.

Seeding: every random stage of a trial draws from
``SeedSequence(entropy=base_seed, spawn_key=(data_cell_id, trial, stage))``
with stages 0=deployment, 1=observations, 2=channel noise, 3+region=init
draw.  ``data_cell_id`` indexes the distinct (channel, K, M, SNR) data
configurations, so cells that differ only in estimator or initialization see
bit-identical networks and noise — which makes estimator comparisons and
initial-region sweeps paired comparisons rather than independent ones.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .channel import BitMapper, amplify_forward, make_uniform_quantizer, quantize_forward
from .crlb import (
    CompositionGuardError,
    SingularFisherError,
    _check_quantized_routes,
    crlb_from_fisher,
    fisher_analog,
    fisher_quantized_series,
    fisher_quantized_simpson,
)
from .estimators import (
    EstimationError,
    SolverConfig,
    em_estimate_batch,
    newton_ml_analog_batch,
    nr_estimate_quantized_batch,
)
from .field import GAUSSIAN_BELL, PARAM_NAMES, Area, FieldParams
from .network import (
    _analog_eta2,
    _at_snr,
    _mean_square,
    calibrate_eta_quantized,
    deploy_uniform,
    sample_observations,
)


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value, or combination)."""


# Refusals of a configuration or of a bound (the CLI's exit code 2).
REFUSALS = (ConfigError, CompositionGuardError, SingularFisherError)


# Upper limits of two sizes that no other setting bounds, checked before the
# configuration computes anything.  The calibration's Simpson grid costs
# O(grid^2): a quantized M = 16 calibration peaks at about 160 MB RSS at
# grid = 1001 and 480 MB at 2001.  The outlier curve compares every
# threshold with every trial of a cell: 10,000 thresholds over 10,000
# trials peak at about 130 MB.
_MAX_GRID = 2001
_MAX_TAU_COUNT = 10_000

_CHANNELS = ("analog", "quantized")
_ESTIMATORS = ("newton", "em", "nr")
_INIT_POLICIES = ("fixed", "region")
_CRLB_METHODS = ("simpson", "series")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs; sweep axes are tuples of values, each
    item converted and checked by its configuration key's element type."""

    truth: FieldParams = FieldParams(8.0, 2.0, 2.0, 4.0, 4.0)
    area: Area = Area()
    k_values: tuple = (40,)
    channel: str = "analog"
    m_values: tuple = (8,)
    quantizer_lo: float = 0.0
    quantizer_hi: float = 12.0
    snr_o_db: tuple = (15.0,)
    snr_c_db: tuple = (15.0,)
    estimator: str = "auto"
    solver: SolverConfig = SolverConfig()
    trials: int = 1000
    base_seed: int = 20240901
    init_policy: str = "fixed"
    init_theta: FieldParams = FieldParams(9.0, 1.5, 1.5, 3.0, 3.0)
    init_regions: tuple = (1,)
    crlb_enabled: bool = True
    crlb_method: str = "simpson"
    crlb_zeta: int = 6
    crlb_nodes: int = 81
    tau_min: float = 1e-3
    tau_max: float = 1e2
    tau_count: int = 50
    grid: int = 201
    workers: int = 0

    def __post_init__(self):
        for row in CONFIG_SCHEMA:
            value = getattr(self, row.field)
            if row.many and not isinstance(value, FieldParams):
                object.__setattr__(self, row.field, _parse_value(row, value))
        for name in ("truth", "init_theta"):
            value = getattr(self, name)
            if not isinstance(value, FieldParams):
                try:
                    value = FieldParams.from_array(np.asarray(value, dtype=float))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{name} must be five field parameters: {exc}") from exc
                object.__setattr__(self, name, value)
        if self.channel not in _CHANNELS:
            raise ConfigError(f"channel must be one of {_CHANNELS}, got {self.channel!r}")
        if self.estimator == "auto":
            object.__setattr__(
                self, "estimator", "newton" if self.channel == "analog" else "em"
            )
        if self.estimator not in _ESTIMATORS:
            raise ConfigError(f"estimator must be one of {_ESTIMATORS}, got {self.estimator!r}")
        if self.channel == "analog" and self.estimator != "newton":
            raise ConfigError("the analog channel is estimated by 'newton'")
        if self.channel == "quantized" and self.estimator == "newton":
            raise ConfigError("the quantized channel is estimated by 'em' or 'nr'")
        if any(k < 1 for k in self.k_values):
            raise ConfigError("sensor counts must be >= 1")
        for row, value in zip(CONFIG_SCHEMA, _config_dict(self).values()):
            if row.kind is float and not all(map(math.isfinite, value if row.many else [value])):
                raise ConfigError(f"{row.key} must be finite, got {value}")
            if row.kind is int and not row.many and (
                isinstance(value, bool) or not isinstance(value, (int, np.integer))
            ):
                raise ConfigError(f"{row.key} must be an integer, got {value!r}")
        paired_snrs(self.snr_o_db, self.snr_c_db)
        if self.channel == "quantized":
            for m in self.m_values:
                if m < 2 or (m & (m - 1)) != 0:
                    raise ConfigError(f"quantizer sizes must be powers of two >= 2, got {m}")
            if not self.quantizer_hi > self.quantizer_lo:
                raise ConfigError("quantizer range must have quantizer_lo < quantizer_hi")
        if self.init_policy not in _INIT_POLICIES:
            raise ConfigError(f"init policy must be one of {_INIT_POLICIES}")
        if self.init_policy == "region" and any(
            not 1 <= i <= 8 for i in self.init_regions
        ):
            raise ConfigError("initial regions must lie in 1..8")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"trials.base_seed must be >= 0, got {self.base_seed}")
        if self.crlb_method not in _CRLB_METHODS:
            raise ConfigError(f"crlb method must be one of {_CRLB_METHODS}")
        if self.crlb_zeta < 0:
            raise ConfigError("crlb zeta must be >= 0")
        if self.crlb_nodes < 21 or self.crlb_nodes % 2 == 0:
            raise ConfigError("crlb nodes must be odd and >= 21")
        if not 0 < self.tau_min < self.tau_max:
            raise ConfigError("need 0 < report.tau_min < report.tau_max")
        if not 2 <= self.tau_count <= _MAX_TAU_COUNT:
            raise ConfigError(
                f"report.tau_count must lie in 2..{_MAX_TAU_COUNT}, got {self.tau_count}"
            )
        if not 11 <= self.grid <= _MAX_GRID or self.grid % 2 == 0:
            raise ConfigError(f"quadrature.grid must be odd and in 11..{_MAX_GRID}, got {self.grid}")
        if self.workers < 0:
            raise ConfigError(
                f"run.workers must be >= 0 (0: one per usable CPU), got {self.workers}"
            )
        # a noise variance is a mean power over 10^(snr/10); on the quantized
        # channel the power lies between the extreme squared levels
        mean_sq = _mean_square(GAUSSIAN_BELL, self.truth, self.area, self.grid)
        bounds = []
        if self.channel == "quantized":
            lo, hi = self.quantizer_lo, self.quantizer_hi
            nu = [make_uniform_quantizer(m, lo, hi).reproduction for m in self.m_values]
            nu2 = np.concatenate(nu) ** 2
            bounds = [nu2.max(), nu2[nu2 > 0].min()]
        for so, sc in paired_snrs(self.snr_o_db, self.snr_c_db):
            sigma2 = _noise_variance("snr.observation_db", mean_sq, so)
            for power in bounds or [mean_sq + sigma2]:
                _noise_variance("snr.channel_db", power, sc)

    @property
    def tau_grid(self):
        return np.geomspace(self.tau_min, self.tau_max, self.tau_count)


@dataclass(frozen=True)
class Cell:
    """One resolved sweep point."""

    k: int
    m: int | None
    snr_o_db: float
    snr_c_db: float
    region: int | None

    def data_key(self, channel):
        return (channel, self.k, self.m, self.snr_o_db, self.snr_c_db)


@dataclass
class TrialRecord:
    """Outcome of one trial; result is None only when the estimator raised."""

    trial: int
    seed: int
    network_digest: str
    init: FieldParams
    result: object
    se: float | None
    converged: bool
    error: str | None = None


def _noise_variance(key, power, snr_db):
    """``_at_snr``, refused unless it is a finite positive float."""
    with suppress(OverflowError, ZeroDivisionError):
        var = _at_snr(float(power), snr_db)
        if math.isfinite(var) and var > 0:
            return var
    raise ConfigError(f"{key} = {snr_db} gives a noise variance outside the positive floats")


def paired_snrs(snr_o_db, snr_c_db):
    """Pair the two SNR sweeps, broadcasting a singleton over the other list."""
    so = [float(v) for v in snr_o_db]
    sc = [float(v) for v in snr_c_db]
    if len(so) == 1 and len(sc) > 1:
        so = so * len(sc)
    elif len(sc) == 1 and len(so) > 1:
        sc = sc * len(so)
    if len(so) != len(sc):
        raise ConfigError(
            "snr.observation_db and snr.channel_db sweep together; give them "
            f"equal lengths (or make one a single value), got {len(so)} and {len(sc)}"
        )
    return list(zip(so, sc))


def resolve_cells(cfg):
    """Sweep points in a fixed, documented order (regions innermost).

    The two SNR lists are paired, not crossed: a singleton broadcasts
    against the other list, otherwise they advance in lockstep.
    """
    m_axis = cfg.m_values if cfg.channel == "quantized" else (None,)
    region_axis = cfg.init_regions if cfg.init_policy == "region" else (None,)
    snr_pairs = paired_snrs(cfg.snr_o_db, cfg.snr_c_db)
    cells = []
    for k in cfg.k_values:
        for m in m_axis:
            for so, sc in snr_pairs:
                for region in region_axis:
                    cells.append(
                        Cell(
                            k=int(k),
                            m=None if m is None else int(m),
                            snr_o_db=float(so),
                            snr_c_db=float(sc),
                            region=None if region is None else int(region),
                        )
                    )
    keys = []
    ids = []
    for cell in cells:
        key = cell.data_key(cfg.channel)
        if key not in keys:
            keys.append(key)
        ids.append(keys.index(key))
    return cells, ids


# ------------------------------------------------------------------ metrics


def squared_error(theta_hat, theta_true):
    """SE = sum_i (theta_hat_i - theta_i)^2 of two FieldParams."""
    return float(np.sum((theta_hat.as_array() - theta_true.as_array()) ** 2))


def initial_region_sample(region, truth, seed):
    """Random initialization from band `region` (1..8): each parameter drawn
    uniformly from [t_j(1 - region/8), t_j(1 - (region-1)/8)], endpoints
    ordered; region 1 is nearest the truth.  Spreads are floored at 1e-3."""
    region = int(region)
    if not 1 <= region <= 8:
        raise ValueError(f"region must lie in 1..8, got {region}")
    t = truth.as_array()
    a = t * (1.0 - region / 8.0)
    b = t * (1.0 - (region - 1) / 8.0)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    rng = np.random.default_rng(seed)
    draw = lo + (hi - lo) * rng.random(t.size)
    draw[1] = max(draw[1], 1e-3)
    draw[2] = max(draw[2], 1e-3)
    return FieldParams.from_array(draw)


def box_stats(samples):
    """Box-plot summary: linear-interpolation quartiles, whiskers at the most
    extreme samples within 1.5 IQR of the box, outliers beyond (sorted)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("box_stats needs at least one sample")
    q1, med, q3 = (float(v) for v in np.percentile(arr, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    fence_lo = q1 - 1.5 * iqr
    fence_hi = q3 + 1.5 * iqr
    inside = arr[(arr >= fence_lo) & (arr <= fence_hi)]
    if inside.size:
        wlo, whi = float(inside.min()), float(inside.max())
    else:  # unreachable for interpolated quartiles, kept as a guard
        wlo, whi = q1, q3
    outliers = sorted(float(v) for v in arr[(arr < fence_lo) | (arr > fence_hi)])
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "whisker_low": wlo,
        "whisker_high": whi,
        "outliers": outliers,
    }


def outlier_probability(se_samples, tau_grid):
    """Empirical exceedance curve P_O(tau) = fraction of SE samples > tau."""
    se = np.asarray(se_samples, dtype=float)
    tau = np.asarray(tau_grid, dtype=float)
    if se.size == 0:
        raise ValueError("need at least one SE sample")
    if tau.ndim != 1 or np.any(tau <= 0) or np.any(np.diff(tau) <= 0):
        raise ValueError("tau grid must be positive and strictly increasing")
    # one sort, not a tau x samples comparison table: searchsorted counts
    # the samples <= tau, and a NaN sample exceeds no threshold
    ranked = np.sort(se[~np.isnan(se)])
    return (ranked.size - np.searchsorted(ranked, tau, side="right")) / se.size


# ------------------------------------------------------------------- trials


def _stage_seed(cfg, data_cell_id, trial, stage):
    return np.random.SeedSequence(
        entropy=cfg.base_seed, spawn_key=(data_cell_id, trial, stage)
    )


def _trial_seed_value(cfg, data_cell_id, trial):
    ss = np.random.SeedSequence(entropy=cfg.base_seed, spawn_key=(data_cell_id, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def _quantizer(cfg, cell):
    """(quantizer, bit mapper) of a quantized cell."""
    quantizer = make_uniform_quantizer(cell.m, cfg.quantizer_lo, cfg.quantizer_hi)
    return quantizer, BitMapper(int(math.log2(cell.m)))


def _cell_calibration(cfg, cell):
    """Noise variances (sigma2, eta2) for one cell; pure function of the cell.
    The field's mean square over the area is integrated once and gives what
    ``calibrate_sigma`` and, on the analog channel, ``calibrate_eta_analog``
    return; each of those integrates it again."""
    mean_sq = _mean_square(GAUSSIAN_BELL, cfg.truth, cfg.area, cfg.grid)
    sigma2 = _at_snr(mean_sq, cell.snr_o_db)
    if cfg.channel == "analog":
        eta2 = _analog_eta2(mean_sq, sigma2, cell.snr_c_db)
    else:
        eta2 = calibrate_eta_quantized(
            GAUSSIAN_BELL,
            cfg.truth,
            cfg.area,
            _quantizer(cfg, cell)[0],
            sigma2,
            cell.snr_c_db,
            grid=cfg.grid,
        )
    return float(sigma2), float(eta2)


def _deploy(cfg, cell, data_cell_id, trial, sigma2):
    net = deploy_uniform(cell.k, cfg.area, _stage_seed(cfg, data_cell_id, trial, 0))
    return net.with_sigma2(np.full(cell.k, sigma2))


def _trial_inputs(cfg, cell, data_cell_id, trial, calib):
    """One trial's network, received data and initial point, plus the
    record constructor that carries the trial's identity."""
    sigma2, eta2 = calib
    net = _deploy(cfg, cell, data_cell_id, trial, sigma2)
    digest = hashlib.sha256(net.positions.tobytes()).hexdigest()[:16]
    obs = sample_observations(
        net, GAUSSIAN_BELL, cfg.truth, _stage_seed(cfg, data_cell_id, trial, 1)
    )
    channel_seed = _stage_seed(cfg, data_cell_id, trial, 2)
    if cfg.channel == "analog":
        z = amplify_forward(obs, eta2, channel_seed)
    else:
        z = quantize_forward(obs, *_quantizer(cfg, cell), eta2, channel_seed)
    if cfg.init_policy == "fixed":
        init = cfg.init_theta
    else:
        init = initial_region_sample(
            cell.region, cfg.truth, _stage_seed(cfg, data_cell_id, trial, 3 + cell.region)
        )
    record = partial(TrialRecord, trial, _trial_seed_value(cfg, data_cell_id, trial), digest, init)
    return net, z, init, record


_BATCH_ESTIMATORS = {
    "newton": newton_ml_analog_batch,
    "em": em_estimate_batch,
    "nr": nr_estimate_quantized_batch,
}
_ESTIMATOR_ERRORS = (EstimationError, np.linalg.LinAlgError, OverflowError, FloatingPointError)


def _attempt(estimator, *args):
    """The estimator's result, or the error it raised."""
    try:
        return estimator(*args)
    except _ESTIMATOR_ERRORS as exc:
        return exc


def _run_trials(cfg, cell, data_cell_id, calib, trials):
    """Records of a contiguous range of one cell's trials, in trial order,
    estimated as one batch; an estimate that raises is recorded with its
    error, never raised."""
    inputs = [_trial_inputs(cfg, cell, data_cell_id, t, calib) for t in trials]
    channel = () if cell.m is None else _quantizer(cfg, cell)

    def estimate(zs, nets, inits):
        return _BATCH_ESTIMATORS[cfg.estimator](
            zs, nets, *channel, GAUSSIAN_BELL, calib[1], inits, cfg.solver
        )

    nets, zs, inits, _ = zip(*inputs)
    results = _attempt(estimate, zs, nets, inits)
    if isinstance(results, Exception):
        # some trial raised: run each alone, which gives the same estimates,
        # to record which one
        alone = (_attempt(estimate, [z], [net], [init]) for net, z, init, _ in inputs)
        results = [r if isinstance(r, Exception) else r[0] for r in alone]
    records = []
    for (*_, record), result in zip(inputs, results):
        if isinstance(result, Exception):
            records.append(record(None, None, False, f"{type(result).__name__}: {result}"))
        else:
            se = squared_error(result.theta_hat, cfg.truth)
            records.append(record(result, se, result.converged, result.divergence_reason))
    return records


def run_trial(cfg, trial):
    """One full deterministic trial of a single-cell configuration:
    deploy -> calibrate -> observe -> channel -> estimate -> SE.

    Estimator divergence is recorded, never raised.
    """
    trial = int(trial)
    if trial < 0:
        raise ConfigError(f"trial must be >= 0, got {trial}")
    cells, ids = resolve_cells(cfg)
    if len(cells) != 1:
        raise ConfigError(
            f"run_trial needs a single-cell configuration, this one has {len(cells)} cells"
        )
    calib = _cell_calibration(cfg, cells[0])
    return _run_trials(cfg, cells[0], ids[0], calib, [trial])[0]


# Trial-sensor pairs per estimator batch: bounds the (T, K, 5, 5) Hessian
# stack of an analog batch to about 6.5 MB.
_BATCH_POINTS = 2**15


def _trial_chunks(cfg, cells, processes, runs):
    """Per cell of the sweep, the contiguous trial ranges that each estimator
    runs as one batch.  A cell is one batch unless its trials times K exceed
    ``_BATCH_POINTS``.  Only when the sweep's batches, ``runs`` per range,
    are fewer than ``processes`` is every cell cut further, into near-equal
    ranges of at least two trials."""
    pieces = [-(-cfg.trials // max(1, _BATCH_POINTS // cell.k)) for cell in cells]
    batches = runs * sum(pieces)
    if batches < processes:
        more = -(-processes // batches)
        pieces = [max(p, min(p * more, cfg.trials // 2)) for p in pieces]
    return [
        [range(cfg.trials * i // p, cfg.trials * (i + 1) // p) for i in range(p)] for p in pieces
    ]


# ----------------------------------------------------------------- campaign


def _cell_bounds(cfg, cell, data_cell_id, calib, methods):
    """CRLB diagonals keyed by route and its setting, on the trial-0 network
    so the bound refers to the geometry the first trial saw.  The analog
    channel has one closed form; a quantized cell gets one route per entry of
    ``methods``.  Refusals raise, every route's guard before any route computes."""
    sigma2, eta2 = calib
    net = _deploy(cfg, cell, data_cell_id, 0, sigma2)
    if cfg.channel == "analog":
        fishers = {"analog": fisher_analog(net, GAUSSIAN_BELL, cfg.truth, eta2)}
    else:
        quantizer, bm = _quantizer(cfg, cell)
        _check_quantized_routes(methods, bm, cfg.crlb_zeta, cfg.crlb_nodes, net.k)
        args = (net, GAUSSIAN_BELL, cfg.truth, quantizer, bm, eta2)
        keys = {
            "series": f"series(zeta={cfg.crlb_zeta})",
            "simpson": f"quadrature(nodes={cfg.crlb_nodes})",
        }
        routes = {
            "series": lambda: fisher_quantized_series(*args, zeta=cfg.crlb_zeta),
            "simpson": lambda: fisher_quantized_simpson(*args, nodes=cfg.crlb_nodes),
        }
        fishers = {keys[method]: routes[method]() for method in methods}
    return {key: [float(v) for v in crlb_from_fisher(f)] for key, f in fishers.items()}


def _cell_crlb(cfg, cell, data_cell_id, calib):
    """(diag, error) for a campaign cell by ``crlb.method``; a refused bound
    is reported in ``error``, not raised."""
    if not cfg.crlb_enabled:
        return None, None
    try:
        (diag,) = _cell_bounds(cfg, cell, data_cell_id, calib, (cfg.crlb_method,)).values()
    except ValueError as exc:  # SingularFisherError and CompositionGuardError too
        return None, f"{type(exc).__name__}: {exc}"
    return diag, None


def crlb_report(cfg):
    """CRLB diagonal of a single-cell configuration by every route (series
    and Simpson when quantized), with the cell's calibration: what
    ``fieldest crlb`` prints.  Refused bounds raise."""
    cells, ids = resolve_cells(cfg)
    if len(cells) != 1:
        raise ConfigError("the crlb command needs a single-cell configuration")
    cell = cells[0]
    calib = _cell_calibration(cfg, cell)
    out = _cell_key_dict(cfg, cell)
    del out["estimator"], out["region"]
    out["sigma2"], out["eta2"] = calib
    out["param_names"] = list(PARAM_NAMES)
    out["crlb"] = _cell_bounds(cfg, cell, ids[0], calib, ("series", "simpson"))
    return out


def _usable_cpus():
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Done(NamedTuple):
    """A batch run in-process, read as a finished future."""

    records: list

    def result(self):
        return self.records

    @classmethod
    def submit(cls, fn, *args):
        return cls(fn(*args))


def _sweep(cfg, estimators):
    """Per cell, yield (cell, records of each estimator, (crlb_diag,
    crlb_error)).  A cell is calibrated once and bounded once, in this
    process; every estimator runs on the same trials.

    The batches of the whole sweep (``_trial_chunks``) run in one pool of
    ``run.workers`` processes (0: one per usable CPU), but of no more than
    this process has CPUs or the sweep has batches; one batch runs
    in-process.  Each cell's batches are queued right after its calibration,
    so the pool starts after the first one (a quantized campaign's workers
    inherit scipy.special), and cells are yielded in order as their batches
    finish."""
    cells, ids = resolve_cells(cfg)
    cpus = _usable_cpus()
    processes = min(cfg.workers or cpus, cpus)
    chunks = _trial_chunks(cfg, cells, processes, len(estimators))
    workers = min(processes, len(estimators) * sum(map(len, chunks)))
    runs = [replace(cfg, estimator=e) for e in estimators]
    submit, executor = _Done.submit, None
    if workers > 1:
        if cfg.workers > cpus:
            print(
                f"warning: run.workers = {cfg.workers} exceeds the {cpus} CPUs this process "
                f"may use; the pool starts at most {cpus} processes",
                file=sys.stderr,
            )
        # the pool's modules load only here
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
        submit = executor.submit

    def queued():
        for cell, data_id, cell_chunks in zip(cells, ids, chunks):
            calib = _cell_calibration(cfg, cell)
            batches = [
                [submit(_run_trials, run, cell, data_id, calib, c) for c in cell_chunks]
                for run in runs
            ]
            yield cell, data_id, calib, batches

    try:
        # a pool gets every batch before the first cell is awaited
        for cell, data_id, calib, batches in queued() if executor is None else list(queued()):
            records = [[r for batch in run for r in batch.result()] for run in batches]
            batches.clear()  # a read future holds its records: let them go with the cell
            yield cell, records, _cell_crlb(cfg, cell, data_id, calib)
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)


def _cell_key_dict(cfg, cell):
    return {
        "k": cell.k,
        "channel": cfg.channel,
        "m": cell.m,
        "snr_o_db": cell.snr_o_db,
        "snr_c_db": cell.snr_c_db,
        "estimator": cfg.estimator,
        "region": cell.region,
    }


def _end(record):
    """How a trial ended: ``converged``, the estimator's divergence reason,
    or the name of the error it raised."""
    if record.converged:
        return "converged"
    if record.result is None:
        return record.error.split(":", 1)[0]
    return record.error


def aggregate_cell(cfg, cell, records, tau_grid, crlb_diag=None, crlb_error=None):
    """Aggregate one cell's trial records into the report row.

    Statistics over all trials and over the converged subset are reported
    side by side; hard estimator failures (no estimate at all) only count
    toward the trial totals.  ``ends`` counts the trials by how they ended
    (``_end``), keyed in sorted order.
    """
    records = sorted(records, key=lambda r: r.trial)
    se_all = [r.se for r in records if r.se is not None]
    converged = [r for r in records if r.converged]
    se_conv = [r.se for r in converged]
    out = _cell_key_dict(cfg, cell)
    out["n_trials"] = len(records)
    out["n_estimated"] = len(se_all)
    out["n_converged"] = len(converged)
    out["all_diverged"] = len(converged) == 0
    out["ends"] = dict(sorted(Counter(_end(r) for r in records).items()))
    out["mse"] = float(np.mean(se_all)) if se_all else None
    out["mse_converged"] = float(np.mean(se_conv)) if se_conv else None
    out["box"] = box_stats(se_all) if se_all else None
    out["box_converged"] = box_stats(se_conv) if se_conv else None
    if len(converged) >= 2:
        thetas = np.array([r.result.theta_hat.as_array() for r in converged])
        out["variance_converged"] = [float(v) for v in thetas.var(axis=0, ddof=1)]
        out["mean_converged"] = [float(v) for v in thetas.mean(axis=0)]
    else:
        out["variance_converged"] = None
        out["mean_converged"] = None
    iters = [r.result.iterations for r in converged]
    out["mean_iterations_converged"] = float(np.mean(iters)) if iters else None
    out["crlb_diag"] = crlb_diag
    out["crlb_error"] = crlb_error
    out["po"] = [float(v) for v in outlier_probability(se_all, tau_grid)] if se_all else None
    return out


def _report(cfg, rows):
    return {
        "version": __version__,
        # run.workers changes no result, so the report does not echo it
        "config": {k: v for k, v in _config_dict(cfg).items() if k != "run.workers"},
        "param_names": list(PARAM_NAMES),
        "tau_grid": [float(v) for v in cfg.tau_grid],
        "cells": rows,
    }


def run_campaign(cfg):
    """Run every cell of the sweep and return the full report dictionary.

    Aggregation is a fixed-order reduction by trial index, so the report is
    bit-identical for a given (config, base seed, version) regardless of the
    worker count.
    """
    tau = cfg.tau_grid
    return _report(
        cfg,
        [
            aggregate_cell(cfg, cell, records, tau, *crlb)
            for cell, (records,), crlb in _sweep(cfg, (cfg.estimator,))
        ],
    )


def compare_em_nr(cfg):
    """Head-to-head EM vs NR on bit-identical data and initializations.

    Both estimators see the same networks, observations, channel noise, and
    initial points trial by trial; the summary reports mean iteration counts
    among jointly-converged trials and median SE over all trials (hard
    failures rank as +inf).
    """
    if cfg.channel != "quantized":
        raise ConfigError("the EM/NR comparison needs channel.kind = quantized")
    cfg_em = replace(cfg, estimator="em")
    cfg_nr = replace(cfg, estimator="nr")
    tau = cfg.tau_grid
    rows = []
    for cell, (rec_em, rec_nr), crlb in _sweep(cfg, ("em", "nr")):
        joint = [
            (e, n) for e, n in zip(rec_em, rec_nr) if e.converged and n.converged
        ]
        se_rank_em = [r.se if r.se is not None else np.inf for r in rec_em]
        se_rank_nr = [r.se if r.se is not None else np.inf for r in rec_nr]
        rows.append(
            {
                "cell": {k: v for k, v in _cell_key_dict(cfg_em, cell).items() if k != "estimator"},
                "n_trials": len(rec_em),
                "n_jointly_converged": len(joint),
                "em": aggregate_cell(cfg_em, cell, rec_em, tau, *crlb),
                "nr": aggregate_cell(cfg_nr, cell, rec_nr, tau, *crlb),
                "em_mean_iterations_joint": (
                    float(np.mean([e.result.iterations for e, _ in joint])) if joint else None
                ),
                "nr_mean_iterations_joint": (
                    float(np.mean([n.result.iterations for _, n in joint])) if joint else None
                ),
                "em_median_se": float(np.median(se_rank_em)),
                "nr_median_se": float(np.median(se_rank_nr)),
            }
        )
    return _report(cfg, rows)


# ------------------------------------------------------------------- export


_CELL_KEY_COLUMNS = ("k", "channel", "m", "snr_o_db", "snr_c_db", "estimator", "region")


def _fmt(value):
    """One CSV field: empty for None, 0/1 for booleans, exact repr for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def _cell_stat_rows(cell_row):
    """Fixed (statistic, value) enumeration for one cell's CSV rows."""
    stats = [
        ("n_trials", cell_row["n_trials"]),
        ("n_estimated", cell_row["n_estimated"]),
        ("n_converged", cell_row["n_converged"]),
        ("all_diverged", cell_row["all_diverged"]),
        ("mse", cell_row["mse"]),
        ("mse_converged", cell_row["mse_converged"]),
        ("mean_iterations_converged", cell_row["mean_iterations_converged"]),
    ]
    for prefix in ("box", "box_converged"):
        box = cell_row[prefix]
        for stat in ("median", "q1", "q3", "whisker_low", "whisker_high"):
            stats.append((f"{prefix}.{stat}", None if box is None else box[stat]))
        stats.append((f"{prefix}.n_outliers", None if box is None else len(box["outliers"])))
    for vec_name in ("variance_converged", "mean_converged", "crlb_diag"):
        vec = cell_row[vec_name]
        for idx, pname in enumerate(PARAM_NAMES):
            stats.append((f"{vec_name}.{pname}", None if vec is None else vec[idx]))
    return stats


def _cell_key(cell_row):
    return [_fmt(cell_row.get(c)) for c in _CELL_KEY_COLUMNS]


def _write_csv(path, header, rows, what):
    """Write a header and rows as CSV; a failure names what was written."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc
    return path


def export_report(report, path, fmt="json"):
    """Write the report to one file: full nested JSON, or the per-cell
    statistics CSV (one row per cell and statistic)."""
    path = Path(path)
    if fmt == "csv":
        keyed = [(_cell_key(row), row) for row in report["cells"]]
        rows = (key + [stat, _fmt(v)] for key, row in keyed for stat, v in _cell_stat_rows(row))
        return _write_csv(path, [*_CELL_KEY_COLUMNS, "statistic", "value"], rows, "report")
    if fmt != "json":
        raise ValueError(f"unknown export format {fmt!r}")
    try:
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path


def export_po_csv(report, path):
    """Outlier-probability curves, one row per (cell, tau)."""
    tau = report["tau_grid"]
    keyed = [(_cell_key(row), row["po"]) for row in report["cells"] if row.get("po") is not None]
    rows = (key + [repr(float(t)), repr(float(v))] for key, po in keyed for t, v in zip(tau, po))
    return _write_csv(path, [*_CELL_KEY_COLUMNS, "tau", "po"], rows, "outlier curves")


def export_trace_csv(record, path):
    """Iterate trace of a single trial: one row per iteration."""
    res = record.result
    rows = () if res is None else (
        [str(it), *(repr(float(v)) for v in row), repr(float(ll))]
        for it, (row, ll) in enumerate(zip(res.trace, res.loglik_trace))
    )
    return _write_csv(path, ["iteration", *PARAM_NAMES, "loglik"], rows, "trace")


# -------------------------------------------------------------------- config


class ConfigKey(NamedTuple):
    """One dotted configuration key: the ExperimentConfig field it sets (and
    the attribute within it, for the truth, area and solver), the element
    type, whether it takes a comma-separated list, and the command-line
    option that overrides it ("--option METAVAR [help note]")."""

    key: str
    field: str
    sub: str | None = None
    kind: type = float
    many: bool = False
    flag: str | None = None


# Every configuration key, in echo order; defaults are the ExperimentConfig
# field defaults.
CONFIG_SCHEMA = (
    *(ConfigKey(f"field.{name}", "truth", name) for name in PARAM_NAMES),
    *(ConfigKey(f"area.{name}", "area", name) for name in ("x_min", "x_max", "y_min", "y_max")),
    ConfigKey("network.k", "k_values", kind=int, many=True),
    ConfigKey("channel.kind", "channel", kind=str),
    ConfigKey("channel.m", "m_values", kind=int, many=True),
    ConfigKey("channel.quantizer_lo", "quantizer_lo"),
    ConfigKey("channel.quantizer_hi", "quantizer_hi"),
    ConfigKey("snr.observation_db", "snr_o_db", many=True),
    ConfigKey("snr.channel_db", "snr_c_db", many=True),
    ConfigKey("estimator.kind", "estimator", kind=str),
    ConfigKey("solver.tol", "solver", "tol"),
    ConfigKey("solver.max_outer", "solver", "max_outer", kind=int),
    ConfigKey("solver.max_inner", "solver", "max_inner", kind=int),
    ConfigKey("solver.damping", "solver", "damping", kind=int),
    ConfigKey("trials.count", "trials", kind=int, flag="--trials N"),
    ConfigKey("trials.base_seed", "base_seed", kind=int, flag="--seed U64"),
    ConfigKey("init.policy", "init_policy", kind=str),
    ConfigKey("init.theta", "init_theta", many=True),
    ConfigKey("init.regions", "init_regions", kind=int, many=True),
    ConfigKey("crlb.enabled", "crlb_enabled", kind=bool),
    ConfigKey("crlb.method", "crlb_method", kind=str),
    ConfigKey("crlb.zeta", "crlb_zeta", kind=int, flag="--zeta N"),
    ConfigKey("crlb.nodes", "crlb_nodes", kind=int, flag="--nodes N (odd)"),
    ConfigKey("report.tau_min", "tau_min"),
    ConfigKey("report.tau_max", "tau_max"),
    ConfigKey("report.tau_count", "tau_count", kind=int),
    ConfigKey("quadrature.grid", "grid", kind=int),
    ConfigKey("run.workers", "workers", kind=int, flag="--workers N"),
)


def _config_dict(cfg):
    """Flat dotted-key echo of the configuration (same schema as the file)."""
    out = {}
    for row in CONFIG_SCHEMA:
        value = getattr(cfg, row.field)
        if row.sub is not None:
            value = getattr(value, row.sub)
        if isinstance(value, FieldParams):
            value = value.as_array().tolist()
        out[row.key] = list(value) if row.many else value
    return out


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_scalar(key, text, kind):
    try:
        if kind is bool:
            word = text.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {text!r}")
            return _BOOL_WORDS[word]
        return kind(text.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def _parse_value(row, raw):
    """A key's value from text or, for list keys, from comma-separated text or
    a sequence; every item is parsed and checked as its own scalar."""
    if not row.many:
        return _parse_scalar(row.key, str(raw), row.kind)
    items = raw if np.iterable(raw) and not isinstance(raw, str) else str(raw).split(",")
    items = [str(item) for item in items if str(item).strip()]
    if not items:
        raise ConfigError(f"{row.key} must list at least one value")
    return tuple(_parse_scalar(row.key, item, row.kind) for item in items)


def parse_config_text(text):
    """Flat `key = value` lines; '#' starts a comment; later keys must not
    repeat earlier ones."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def config_from_mapping(mapping):
    """Build an ExperimentConfig from a flat dotted-key mapping; unknown keys
    are an error so typos never pass silently."""
    mapping = dict(mapping)
    kwargs = {}
    parts = {}
    for row in CONFIG_SCHEMA:
        raw = mapping.pop(row.key, None)
        if raw is None:
            continue
        # list keys are split and parsed by ExperimentConfig itself
        value = raw if row.many else _parse_value(row, raw)
        if row.sub is None:
            kwargs[row.field] = value
        else:
            parts.setdefault(row.field, {})[row.sub] = value
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    try:
        for name, values in parts.items():
            kwargs[name] = replace(defaults[name], **values)
        cfg = ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if mapping:
        raise ConfigError(f"unknown configuration keys: {sorted(mapping)}")
    return cfg


def load_config(path=None, overrides=None):
    """Configuration from an optional file plus override mapping (CLI flags)."""
    mapping = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        mapping.update(parse_config_text(text))
    if overrides:
        mapping.update(overrides)
    return config_from_mapping(mapping)
