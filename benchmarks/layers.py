"""Traced run: per-layer costs, measured from outside the package.

Two instruments, both in this file, none inside ``src/``:

* a CLI pass whose library calls are wrapped at the ``fieldest.cli`` module
  boundary, which gives ``cli.overhead_ms`` (command wall time minus the
  library calls made from it);
* a replay of the workload's trials through the public functions of each
  module, with spans around every call and a counting, timing stand-in for
  the field model passed as the ``model`` argument.  The replay rebuilds every
  trial with the seed scheme documented at the top of ``experiments.py``,
  ``SeedSequence(base_seed, spawn_key=(data_cell_id, trial, stage))``, and
  must reproduce the CLI's reports exactly.

Layers the workload bypasses read 0, which is the prediction that an
optimization there leaves the workload alone.
"""

import functools
import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np

from fieldest import cli
from fieldest.channel import BitMapper, amplify_forward, make_uniform_quantizer, quantize_forward
from fieldest.crlb import (
    SingularFisherError,
    crlb_from_fisher,
    fisher_analog,
    fisher_quantized_series,
    fisher_quantized_simpson,
    series_term_count,
)
from fieldest.estimators import (
    EstimationError,
    em_estimate,
    newton_ml_analog,
    nr_estimate_quantized,
)
from fieldest.experiments import (
    TrialRecord,
    aggregate_cell,
    export_po_csv,
    export_report,
    load_config,
    resolve_cells,
    squared_error,
)
from fieldest.field import GAUSSIAN_BELL
from fieldest.network import (
    calibrate_eta_analog,
    calibrate_eta_quantized,
    calibrate_sigma,
    deploy_uniform,
    sample_observations,
)

from workloads import CheckError, check_pass, run_pass

KINDS = ("newton", "em", "nr")
# Divergence reasons, bucketed: "nonfinite" covers the objective and the
# derivatives, "inner" every EM inner-solver failure, "raised" an estimator
# that raised instead of returning.
REASONS = (
    "max_iterations",
    "stalled",
    "line_search_failed",
    "singular",
    "nonfinite",
    "inner",
    "raised",
    "other",
)
CRLB_CELLS = ("k100m8", "k40m16", "k10m2")
_ESTIMATOR_ERRORS = (EstimationError, np.linalg.LinAlgError, OverflowError, FloatingPointError)


def _layer_units():
    units = {
        "field.value.calls_per_op": "count",
        "field.gradient.calls_per_op": "count",
        "field.hessian.calls_per_op": "count",
        "field.self_ms_per_op": "ms",
        "network.calibrate_ms": "ms",
        "network.deploy_observe_us": "us",
        "channel.forward_us": "us",
    }
    for kind in KINDS:
        base = f"estimators.{kind}"
        units.update(
            {
                f"{base}.trial_ms.p50": "ms",
                f"{base}.trial_ms.p90": "ms",
                f"{base}.iterations.mean": "count",
                f"{base}.ms_per_iteration": "ms",
                f"{base}.self_ms_per_trial": "ms",
                f"{base}.converged_frac": "frac",
            }
        )
        units.update({f"{base}.reason.{reason}": "count" for reason in REASONS})
    units.update({"crlb.analog_ms": "ms", "crlb.inverse_us": "us", "crlb.refusals": "count"})
    for cell in CRLB_CELLS:
        units.update(
            {
                f"crlb.series_ms.{cell}": "ms",
                f"crlb.simpson_ms.{cell}": "ms",
                f"crlb.series.terms.{cell}": "count",
                f"crlb.simpson.points.{cell}": "count",
            }
        )
    units.update(
        {
            "experiments.aggregate_ms": "ms",
            "experiments.export_ms": "ms",
            "experiments.report_bytes": "bytes",
            "cli.overhead_ms": "ms",
            "trace.overhead_ms": "ms",
        }
    )
    return units


# Every per-layer metric with its unit, in report order.
UNITS = _layer_units()


class FieldProbe:
    """Stand-in field model that counts and times every evaluation."""

    def __init__(self, model=GAUSSIAN_BELL):
        self._model = model
        self.calls = defaultdict(int)
        self.seconds = 0.0

    def _timed(self, name, params, x, y):
        t0 = time.perf_counter()
        out = getattr(self._model, name)(params, x, y)
        self.seconds += time.perf_counter() - t0
        self.calls[name] += 1
        return out

    def value(self, params, x, y):
        return self._timed("value", params, x, y)

    def gradient(self, params, x, y):
        return self._timed("gradient", params, x, y)

    def hessian(self, params, x, y):
        return self._timed("hessian", params, x, y)


class Tracer:
    """Spans keyed by name; each keeps its duration and the field time inside it.

    A disabled tracer records nothing and hands out the plain field model, so
    the same replay runs untraced to measure the tracing overhead.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.field = FieldProbe() if enabled else GAUSSIAN_BELL
        self.spans = defaultdict(list)
        self.refusals = 0

    def span(self, name):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name):
        f0 = self.field.seconds
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name].append((time.perf_counter() - t0, self.field.seconds - f0))

    def total(self, name):
        return sum(d for d, _ in self.spans.get(name, ()))

    def mean(self, name):
        spans = self.spans.get(name, ())
        return self.total(name) / len(spans) if spans else 0.0


# ------------------------------------------------------------------ replay


def _stage_seed(cfg, data_id, trial, stage):
    return np.random.SeedSequence(cfg.base_seed, spawn_key=(data_id, trial, stage))


def _calibrate(tr, cfg, cell):
    model = tr.field
    with tr.span("network.calibrate"):
        sigma2 = calibrate_sigma(model, cfg.truth, cfg.area, cell.snr_o_db, grid=cfg.grid)
        if cfg.channel == "analog":
            eta2 = calibrate_eta_analog(
                model, cfg.truth, cfg.area, sigma2, cell.snr_c_db, grid=cfg.grid
            )
        else:
            quantizer = make_uniform_quantizer(cell.m, cfg.quantizer_lo, cfg.quantizer_hi)
            eta2 = calibrate_eta_quantized(
                model, cfg.truth, cfg.area, quantizer, sigma2, cell.snr_c_db, grid=cfg.grid
            )
    return float(sigma2), float(eta2)


def _deploy(cfg, cell, data_id, trial, sigma2):
    net = deploy_uniform(cell.k, cfg.area, _stage_seed(cfg, data_id, trial, 0))
    return net.with_sigma2(np.full(cell.k, sigma2))


def _trial_data(tr, cfg, cell, data_id, trial, calib):
    """Deploy, observe and forward one trial; returns (network, received)."""
    sigma2, eta2 = calib
    with tr.span("network.deploy_observe"):
        net = _deploy(cfg, cell, data_id, trial, sigma2)
        obs = sample_observations(net, tr.field, cfg.truth, _stage_seed(cfg, data_id, trial, 1))
    seed = _stage_seed(cfg, data_id, trial, 2)
    with tr.span("channel.forward"):
        if cfg.channel == "analog":
            z = amplify_forward(obs, eta2, seed)
        else:
            quantizer = make_uniform_quantizer(cell.m, cfg.quantizer_lo, cfg.quantizer_hi)
            z = quantize_forward(obs, quantizer, BitMapper(int(math.log2(cell.m))), eta2, seed)
    return net, z


def _estimate(tr, cfg, cell, trial, net, z, eta2, records):
    kind = cfg.estimator
    init = cfg.init_theta
    with tr.span(f"estimators.{kind}"):
        try:
            if kind == "newton":
                result = newton_ml_analog(z, net, tr.field, eta2, init, cfg.solver)
            else:
                quantizer = make_uniform_quantizer(cell.m, cfg.quantizer_lo, cfg.quantizer_hi)
                bm = BitMapper(int(math.log2(cell.m)))
                estimator = em_estimate if kind == "em" else nr_estimate_quantized
                result = estimator(z, net, quantizer, bm, tr.field, eta2, init, cfg.solver)
        except _ESTIMATOR_ERRORS as exc:
            result = None
            error = f"{type(exc).__name__}: {exc}"
    # seed and network digest are left out: aggregation does not read them
    if result is not None:
        error = result.divergence_reason
    records[kind].append(
        TrialRecord(
            trial=trial,
            seed=0,
            network_digest="",
            init=init,
            result=result,
            se=None if result is None else squared_error(result.theta_hat, cfg.truth),
            converged=result is not None and result.converged,
            error=error,
        )
    )


def _fisher(tr, name, route, *args, **kwargs):
    with tr.span(name):
        return route(*args, **kwargs)


def _diagonals(tr, fishers):
    """CRLB diagonal of each Fisher matrix in turn; returns (diagonals, None),
    or (None, error) at the first one refused as singular, where
    ``fieldest crlb`` refuses the whole cell."""
    diags = []
    for fisher in fishers:
        try:
            with tr.span("crlb.inverse"):
                diags.append([float(v) for v in crlb_from_fisher(fisher)])
        except SingularFisherError as exc:
            tr.refusals += 1
            return None, f"{type(exc).__name__}: {exc}"
    return diags, None


def _replay_trials(tr, cfg, kinds, records_out):
    """Every cell's trials for each estimator kind, on shared data; returns
    {kind: [aggregated cell row]}."""
    cells, ids = resolve_cells(cfg)
    rows = {kind: [] for kind in kinds}
    for cell, data_id in zip(cells, ids):
        calib = _calibrate(tr, cfg, cell)
        records = defaultdict(list)
        for trial in range(cfg.trials):
            net, z = _trial_data(tr, cfg, cell, data_id, trial, calib)
            for kind in kinds:
                _estimate(tr, replace(cfg, estimator=kind), cell, trial, net, z, calib[1], records)
        diag = error = None
        if cfg.crlb_enabled:
            net0 = _deploy(cfg, cell, data_id, 0, calib[0])
            fisher = _fisher(tr, "crlb.analog", fisher_analog, net0, tr.field, cfg.truth, calib[1])
            diags, error = _diagonals(tr, [fisher])
            diag = diags and diags[0]
        for kind in kinds:
            with tr.span("experiments.aggregate"):
                row = aggregate_cell(
                    replace(cfg, estimator=kind), cell, records[kind], cfg.tau_grid, diag, error
                )
            rows[kind].append(row)
            records_out[kind].extend(records[kind])
    return rows


def _assert_rows(replayed, reported, what):
    """The replay must reproduce the CLI report exactly, cell by cell."""
    if len(replayed) != len(reported):
        raise CheckError(f"{what}: replay has {len(replayed)} cells, report {len(reported)}")
    for got, want in zip(json.loads(json.dumps(replayed)), reported):
        for key in ("n_converged", "mean_iterations_converged", "mse"):
            if got[key] != want[key]:
                raise CheckError(f"{what}: replayed {key} {got[key]} != reported {want[key]}")
        if got != want:
            raise CheckError(f"{what}: replayed cell row differs from the report")


def _export(tr, report, out_dir, writers):
    """Re-export the replayed report; returns {file name: bytes}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, write in writers:
        with tr.span("experiments.export"):
            path = write(report, out_dir / name)
        files[name] = path.read_bytes()
    return files


def replay_job(tr, job, config_path, seed, cli_run, out_dir, records):
    """Replay one job traced and check it against the CLI's own output."""
    cfg = load_config(config_path, {"trials.base_seed": str(seed)})
    if job.command == "crlb":
        cell, data_id = (v[0] for v in resolve_cells(cfg))
        sigma2, eta2 = _calibrate(tr, cfg, cell)
        net = _deploy(cfg, cell, data_id, 0, sigma2)
        if cfg.channel == "analog":
            fishers = [_fisher(tr, "crlb.analog", fisher_analog, net, tr.field, cfg.truth, eta2)]
        else:
            quantizer = make_uniform_quantizer(cell.m, cfg.quantizer_lo, cfg.quantizer_hi)
            bm = BitMapper(int(math.log2(cell.m)))
            args = (net, tr.field, cfg.truth, quantizer, bm, eta2)
            fishers = [
                _fisher(
                    tr, f"crlb.series.{job.name}", fisher_quantized_series, *args,
                    zeta=cfg.crlb_zeta,
                ),
                _fisher(
                    tr, f"crlb.simpson.{job.name}", fisher_quantized_simpson, *args,
                    nodes=cfg.crlb_nodes,
                ),
            ]
        bounds, _ = _diagonals(tr, fishers)
        reported = None
        if "crlb.json" in cli_run.files:
            reported = list(json.loads(cli_run.files["crlb.json"])["crlb"].values())
        if bounds != reported:
            raise CheckError(f"{job.name}: replayed bounds {bounds} != reported {reported}")
        return
    if job.command == "campaign":
        rows = _replay_trials(tr, cfg, (cfg.estimator,), records)[cfg.estimator]
        report = json.loads(cli_run.files["report.json"])
        _assert_rows(rows, report["cells"], job.name)
        report["cells"] = rows
        writers = [
            ("report.json", functools.partial(export_report, fmt="json")),
            ("cells.csv", functools.partial(export_report, fmt="csv")),
            ("po_curve.csv", export_po_csv),
        ]
    else:
        rows = _replay_trials(tr, cfg, ("em", "nr"), records)
        report = json.loads(cli_run.files["compare.json"])
        for kind in ("em", "nr"):
            _assert_rows(rows[kind], [cell[kind] for cell in report["cells"]], f"{job.name} {kind}")
            for cell, row in zip(report["cells"], rows[kind]):
                cell[kind] = row
        writers = [("compare.json", functools.partial(export_report, fmt="json"))]
    files = _export(tr, report, out_dir, writers)
    if files != cli_run.files:
        raise CheckError(f"{job.name}: re-exported replay differs from the CLI's files")


# ------------------------------------------------------------- CLI boundary


def boundary_pass(workload, config_paths, seed, work_dir):
    """One CLI pass with every library function that ``fieldest.cli`` calls
    wrapped in a timer; returns (runs, command wall s, library s), the times
    summed over jobs."""
    library = {"s": 0.0}

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                library["s"] += time.perf_counter() - t0

        return wrapper

    originals = {
        name: obj
        for name, obj in vars(cli).items()
        if inspect.isfunction(obj)
        and obj.__module__.startswith("fieldest.")
        and obj.__module__ != cli.__name__
    }
    try:
        for name, fn in originals.items():
            setattr(cli, name, timed(fn))
        runs = run_pass(workload, config_paths, seed, work_dir)
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return runs, sum(r.wall_s for r in runs), library["s"]


# ----------------------------------------------------------------- metrics


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _reason_bucket(record):
    if record.result is None:
        return "raised"
    reason = record.error or "other"
    if reason.startswith("inner:"):
        return "inner"
    if reason.startswith("nonfinite"):
        return "nonfinite"
    return reason if reason in REASONS else "other"


def _estimator_metrics(tr, records, rounds):
    m = {}
    for kind in KINDS:
        base = f"estimators.{kind}"
        spans = tr.spans.get(base, [])
        recs = records.get(kind, [])
        trial_ms = [d * 1e3 for d, _ in spans]
        iters = [r.result.iterations for r in recs if r.result is not None]
        m[f"{base}.trial_ms.p50"] = _percentile(trial_ms, 50)
        m[f"{base}.trial_ms.p90"] = _percentile(trial_ms, 90)
        m[f"{base}.iterations.mean"] = float(np.mean(iters)) if iters else 0.0
        m[f"{base}.ms_per_iteration"] = sum(trial_ms) / sum(iters) if sum(iters) else 0.0
        m[f"{base}.self_ms_per_trial"] = (
            sum(d - f for d, f in spans) * 1e3 / len(spans) if spans else 0.0
        )
        m[f"{base}.converged_frac"] = sum(r.converged for r in recs) / len(recs) if recs else 0.0
        counts = dict.fromkeys(REASONS, 0)
        for r in recs:
            if not r.converged:
                counts[_reason_bucket(r)] += 1
        m.update({f"{base}.reason.{reason}": n / rounds for reason, n in counts.items()})
    return m


def _crlb_metrics(tr, workload, rounds):
    m = {
        "crlb.analog_ms": tr.mean("crlb.analog") * 1e3,
        "crlb.inverse_us": tr.mean("crlb.inverse") * 1e6,
        "crlb.refusals": tr.refusals / rounds,
    }
    for cell in CRLB_CELLS:
        m[f"crlb.series_ms.{cell}"] = tr.total(f"crlb.series.{cell}") * 1e3 / rounds
        m[f"crlb.simpson_ms.{cell}"] = tr.total(f"crlb.simpson.{cell}") * 1e3 / rounds
        m[f"crlb.series.terms.{cell}"] = 0
        m[f"crlb.simpson.points.{cell}"] = 0
    # computed work counts of the two quantized Fisher routes
    for job in workload.jobs:
        if job.command == "crlb" and job.setting("channel.kind") == "quantized":
            levels = int(job.setting("channel.m"))
            m[f"crlb.series.terms.{job.name}"] = series_term_count(
                int(job.setting("crlb.zeta")), levels
            )
            m[f"crlb.simpson.points.{job.name}"] = int(job.setting("crlb.nodes")) ** int(
                math.log2(levels)
            ) * int(job.setting("network.k"))
    return m


def _replay_all(tr, workload, config_paths, seed, baseline, work_dir, records, problems):
    """Replay every job once; returns the wall time of the replay."""
    t0 = time.perf_counter()
    for job, cli_run in zip(workload.jobs, baseline):
        try:
            replay_job(
                tr, job, config_paths[job.name], seed, cli_run, work_dir / job.name, records
            )
        except CheckError as exc:
            problems.append(str(exc))
    return time.perf_counter() - t0


def traced_run(workload, config_paths, seed, deadline, work_dir, baseline):
    """Rounds of (CLI-boundary pass, untraced replay, traced replay), at
    least one, while the next should end by ``deadline`` (a
    ``time.perf_counter`` value); returns
    (metrics, replayed ops, problems)."""
    tr = Tracer()
    records = defaultdict(list)
    plain, traced, cli_overheads = [], [], []
    problems = []
    rounds = 0
    while True:
        t0 = time.perf_counter()
        runs, wall, library = boundary_pass(workload, config_paths, seed, work_dir)
        problems += check_pass(runs, baseline, None).problems
        cli_overheads.append((wall - library) / len(runs))
        replay_dir = work_dir / "replay"
        untraced = Tracer(enabled=False)
        plain.append(
            _replay_all(
                untraced, workload, config_paths, seed, baseline, replay_dir,
                defaultdict(list), problems,
            )
        )
        traced.append(
            _replay_all(tr, workload, config_paths, seed, baseline, replay_dir, records, problems)
        )
        rounds += 1
        # start a round only if it should end by the deadline
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    n_ops = rounds * workload.planned_ops
    n_cells = rounds * sum(
        len(resolve_cells(load_config(config_paths[job.name]))[0]) for job in workload.jobs
    )
    field = tr.field
    metrics = {
        "field.value.calls_per_op": field.calls["value"] / n_ops,
        "field.gradient.calls_per_op": field.calls["gradient"] / n_ops,
        "field.hessian.calls_per_op": field.calls["hessian"] / n_ops,
        "field.self_ms_per_op": field.seconds * 1e3 / n_ops,
        "network.calibrate_ms": tr.total("network.calibrate") * 1e3 / n_cells,
        "network.deploy_observe_us": tr.mean("network.deploy_observe") * 1e6,
        "channel.forward_us": tr.mean("channel.forward") * 1e6,
        "experiments.aggregate_ms": tr.total("experiments.aggregate") * 1e3 / n_cells,
        "experiments.export_ms": tr.total("experiments.export") * 1e3 / rounds,
        "experiments.report_bytes": sum(
            len(data)
            for run in baseline
            if run.job.command != "crlb"
            for data in run.files.values()
        ),
        "cli.overhead_ms": float(np.median(cli_overheads)) * 1e3,
        "trace.overhead_ms": (float(np.median(traced)) - float(np.median(plain))) * 1e3,
    }
    metrics.update(_estimator_metrics(tr, records, rounds))
    metrics.update(_crlb_metrics(tr, workload, rounds))
    return {name: metrics[name] for name in UNITS}, 2 * n_ops, problems
