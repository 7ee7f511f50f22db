"""The three benchmark workloads, the CLI pass that runs one, and its output check.

A workload is a fixed list of ``fieldest`` CLI invocations (jobs).  One pass
runs every job once, in-process through ``fieldest.cli.main(argv)``; its
seed, the run's seed or one drawn from it by ``pass_seed``, is forwarded as
``--seed`` and is the only input that varies.

Operations are what the throughput metric counts: estimator trials for
``campaign`` (one per trial) and ``compare`` (EM and NR trials counted
separately), and CRLB diagonals for ``crlb`` (two per quantized cell, series
and quadrature; one per analog cell).
"""

import io
import json
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fieldest import cli

# The package's own default trials.base_seed; the stored references are for
# it.  Seed 7919 is held out: no tuning run used it, so a later speed claim
# can be re-checked on a seed it was not written against.
DEFAULT_SEED = 20240901

# Trials per cell.  On a 2-CPU machine a pass takes about 1 s (analog-sweep)
# and 1.5 s (em-nr-race).  Passes are kept short so that a run holds many of
# them, each drawing fresh trials (see ``pass_seed``): trial cost is heavy
# tailed (a diverged Newton trial runs to its iteration cap; an EM trial that
# runs to max_outer at M=8 can cost seconds), so a run's median must rest on
# many distinct trials, and on many short samples of a host whose speed
# changes from second to second.
ANALOG_TRIALS = 40
RACE_TRIALS = 1

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Relative tolerances of the reference check (counts and exit codes are exact).
# The MSE compared is over converged trials: a diverged trial's estimate is
# arbitrary and moves with any change in rounding.  The quadrature bound is
# the second bound of a quantized crlb cell; its tolerance leaves room for a
# more accurate quadrature route.
TOL_MEAN_ITERATIONS = 1e-9
TOL_MSE = 1e-6
TOL_CLOSED_FORM_BOUND = 1e-9
TOL_QUADRATURE_BOUND = 1e-3


@dataclass(frozen=True)
class Job:
    """One CLI invocation: subcommand plus a ``key = value`` configuration."""

    name: str
    command: str
    config: tuple

    def config_text(self):
        return "".join(f"{key} = {value}\n" for key, value in self.config)

    def setting(self, key):
        return dict(self.config)[key]

    @property
    def planned_ops(self):
        settings = dict(self.config)
        quantized = settings["channel.kind"] == "quantized"
        if self.command == "crlb":
            return 2 if quantized else 1
        cells = len(settings["network.k"].split(","))
        if quantized:
            cells *= len(settings["channel.m"].split(","))
        runs = 2 if self.command == "compare" else 1
        return runs * cells * int(settings["trials.count"])


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    jobs: tuple
    # Whether ``ops_per_s`` is scaled by the CPU-speed probe in ``run.py``:
    # true where the time goes to many small NumPy calls and interpreter
    # work, whose speed follows the probe's.  The speed of large vectorised
    # calls (the CRLB routes) does not follow it.
    scaled: bool

    @property
    def planned_ops(self):
        return sum(job.planned_ops for job in self.jobs)


def _crlb_job(name, kind, k, m=None, nodes=None, zeta=None):
    config = [("channel.kind", kind), ("network.k", str(k))]
    if kind == "quantized":
        config += [("channel.m", str(m)), ("crlb.nodes", str(nodes)), ("crlb.zeta", str(zeta))]
    return Job(name, "crlb", tuple(config))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analog-sweep",
            "trial",
            (
                Job(
                    "sweep",
                    "campaign",
                    (
                        ("channel.kind", "analog"),
                        ("network.k", "10, 20, 40, 100"),
                        ("crlb.enabled", "true"),
                        ("trials.count", str(ANALOG_TRIALS)),
                    ),
                ),
            ),
            True,
        ),
        Workload(
            "em-nr-race",
            "trial",
            (
                Job(
                    "race",
                    "compare",
                    (
                        ("channel.kind", "quantized"),
                        ("network.k", "40"),
                        ("channel.m", "2, 4, 8, 16"),
                        ("crlb.enabled", "false"),
                        ("trials.count", str(RACE_TRIALS)),
                    ),
                ),
            ),
            True,
        ),
        Workload(
            "crlb-routes",
            "bound",
            (
                _crlb_job("k100m8", "quantized", 100, m=8, nodes=81, zeta=6),
                _crlb_job("k40m16", "quantized", 40, m=16, nodes=21, zeta=6),
                _crlb_job("k10m2", "quantized", 10, m=2, nodes=81, zeta=10),
                _crlb_job("k100a", "analog", 100),
            ),
            False,
        ),
    )
}


def pass_seed(seed, index):
    """The ``--seed`` of a run's pass ``index``: the run's seed for pass 0,
    then seeds drawn from it, so that the same seed gives the same passes."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def write_configs(workload, work_dir):
    """Write each job's configuration file; returns {job name: path}."""
    paths = {}
    for job in workload.jobs:
        path = work_dir / f"{job.name}.cfg"
        path.write_text(job.config_text(), encoding="utf-8")
        paths[job.name] = path
    return paths


@dataclass
class JobRun:
    job: Job
    exit_code: int
    wall_s: float
    files: dict
    stderr: str


def run_job(job, config_path, seed, out_dir):
    """Run one CLI command in-process; only ``cli.main`` itself is timed.
    Standard output is discarded; standard error is kept for the check."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = [job.command, "--config", str(config_path), "--seed", str(seed), "--out", str(out_dir)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return JobRun(job, code, wall, files, err.getvalue())


def run_pass(workload, config_paths, seed, work_dir):
    return [
        run_job(job, config_paths[job.name], seed, work_dir / "out" / job.name)
        for job in workload.jobs
    ]


# ------------------------------------------------------------------ checking


class CheckError(Exception):
    """A job's output is wrong; every operation of that job counts as failed."""


# A Fisher matrix that is singular at a random deployment (common with K=10
# and one bit per sensor) is refused: `fieldest crlb` exits 2 with this
# message, and a campaign cell records it as its crlb_error.
_SINGULAR_CLI = "error: Fisher matrix"
_SINGULAR_CELL = "SingularFisherError: Fisher matrix"


def _finite_positive(vec, what):
    if vec is None or len(vec) != 5 or not all(math.isfinite(v) and v > 0 for v in vec):
        raise CheckError(f"{what}: expected five finite positive values, got {vec}")


def _check_cell_row(row, trials, what):
    if row["n_trials"] != trials:
        raise CheckError(f"{what}: {row['n_trials']} trials, expected {trials}")
    if not 0 <= row["n_converged"] <= row["n_estimated"] <= row["n_trials"]:
        raise CheckError(
            f"{what}: inconsistent trial counts {row['n_converged']}/{row['n_estimated']}"
        )
    if row["all_diverged"] != (row["n_converged"] == 0):
        raise CheckError(f"{what}: all_diverged disagrees with n_converged")
    # a diverged trial may leave an infinite squared error, never a NaN one
    if row["n_estimated"] and not row["mse"] >= 0:
        raise CheckError(f"{what}: bad MSE {row['mse']}")
    mse_conv = row["mse_converged"]
    if row["n_converged"] and not (math.isfinite(mse_conv) and mse_conv >= 0):
        raise CheckError(f"{what}: bad converged MSE {mse_conv}")


def _cell_summary(row):
    return {
        "n_converged": row["n_converged"],
        "mean_iterations": row["mean_iterations_converged"],
        "mse_converged": row["mse_converged"],
        "crlb_diag": row["crlb_diag"],
    }


def summarize(run):
    """Check one job's output for internal consistency and return
    (summary, ok_ops): the values compared against the stored reference, and
    the operations that succeeded (converged trials, or produced bounds).  A
    refused bound, like a trial that does not converge, is a documented
    outcome: it is not an ok operation, and not a check failure either."""
    job = run.job
    try:
        if job.command == "crlb":
            if run.exit_code == 2 and not run.files and run.stderr.startswith(_SINGULAR_CLI):
                return {"exit_code": 2, "bounds": []}, 0
            payload = json.loads(run.files["crlb.json"])
            bounds = list(payload["crlb"].values())
            expected = 2 if job.setting("channel.kind") == "quantized" else 1
            if len(bounds) != expected:
                raise CheckError(f"{job.name}: {len(bounds)} bounds, expected {expected}")
            for vec in bounds:
                _finite_positive(vec, f"{job.name} bound")
            return {"exit_code": run.exit_code, "bounds": bounds}, len(bounds)
        trials = int(job.setting("trials.count"))
        if job.command == "campaign":
            rows = json.loads(run.files["report.json"])["cells"]
            for row in rows:
                where = f"{job.name} cell k={row['k']}"
                _check_cell_row(row, trials, where)
                if row["crlb_diag"] is not None or not (row["crlb_error"] or "").startswith(
                    _SINGULAR_CELL
                ):
                    _finite_positive(row["crlb_diag"], f"{where} CRLB")
            dead = any(row["all_diverged"] for row in rows)
        else:
            cells = json.loads(run.files["compare.json"])["cells"]
            rows = [cell[kind] for cell in cells for kind in ("em", "nr")]
            for row in rows:
                _check_cell_row(row, trials, f"{job.name} {row['estimator']} m={row['m']}")
            dead = any(row["all_diverged"] for row in rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{job.name}: unreadable output: {exc!r}") from exc
    if run.exit_code != (3 if dead else 0):
        raise CheckError(f"{job.name}: exit code {run.exit_code} does not match the report")
    summary = {"exit_code": run.exit_code, "cells": [_cell_summary(r) for r in rows]}
    return summary, sum(row["n_converged"] for row in rows)


def _close(a, b, rtol):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rtol * abs(b)


def compare_reference(job, summary, ref):
    """Raise CheckError where ``summary`` departs from the stored reference."""
    if summary["exit_code"] != ref["exit_code"]:
        raise CheckError(
            f"{job.name}: exit code {summary['exit_code']}, reference {ref['exit_code']}"
        )
    key = "bounds" if job.command == "crlb" else "cells"
    if len(summary[key]) != len(ref[key]):
        raise CheckError(f"{job.name}: {len(summary[key])} {key}, reference {len(ref[key])}")
    if job.command == "crlb":
        for idx, (got, want) in enumerate(zip(summary["bounds"], ref["bounds"])):
            rtol = TOL_QUADRATURE_BOUND if idx == 1 else TOL_CLOSED_FORM_BOUND
            if not all(_close(g, w, rtol) for g, w in zip(got, want)):
                raise CheckError(f"{job.name}: bound {idx} {got} departs from reference {want}")
        return
    for idx, (got, want) in enumerate(zip(summary["cells"], ref["cells"])):
        where = f"{job.name} row {idx}"
        if got["n_converged"] != want["n_converged"]:
            raise CheckError(
                f"{where}: n_converged {got['n_converged']}, reference {want['n_converged']}"
            )
        if not _close(got["mean_iterations"], want["mean_iterations"], TOL_MEAN_ITERATIONS):
            raise CheckError(
                f"{where}: mean iterations {got['mean_iterations']}, "
                f"reference {want['mean_iterations']}"
            )
        if not _close(got["mse_converged"], want["mse_converged"], TOL_MSE):
            raise CheckError(
                f"{where}: MSE {got['mse_converged']}, reference {want['mse_converged']}"
            )
        got_diag, want_diag = got["crlb_diag"] or [], want["crlb_diag"] or []
        if len(got_diag) != len(want_diag) or not all(
            _close(g, w, TOL_CLOSED_FORM_BOUND) for g, w in zip(got_diag, want_diag)
        ):
            raise CheckError(f"{where}: CRLB {got['crlb_diag']}, reference {want['crlb_diag']}")


def load_reference(workload_name):
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[workload_name]


@dataclass
class PassCheck:
    ok_ops: int
    failed_ops: int
    problems: list


def check_pass(runs, baseline, reference):
    """Check every job of a pass.  ``baseline`` holds the first pass's runs,
    whose output files every later pass must repeat byte for byte;
    ``reference`` maps job name to its stored summary (default seed only)."""
    ok = failed = 0
    problems = []
    for idx, run in enumerate(runs):
        try:
            if baseline is not None and run.files != baseline[idx].files:
                raise CheckError(f"{run.job.name}: output differs from the first pass")
            summary, ok_ops = summarize(run)
            if reference is not None:
                compare_reference(run.job, summary, reference[run.job.name])
        except CheckError as exc:
            problems.append(str(exc))
            failed += run.job.planned_ops
            continue
        ok += ok_ops
    return PassCheck(ok, failed, problems)
