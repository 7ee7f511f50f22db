#!/usr/bin/env python3
"""fieldest benchmark: three CLI workloads, end-to-end throughput, traced per-layer costs.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload analog-sweep --seed 20240901 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``analog-sweep`` (``fieldest campaign``),
``em-nr-race`` (``fieldest compare``) and ``crlb-routes`` (four
``fieldest crlb`` cells).  The default seed is 20240901, the one the stored
references in ``reference.json`` were made with; 7919 is held out for
re-checking a claim on a seed not used while writing it.

``--trace 0`` measures end to end with tracing off.  It times a fresh
interpreter's set-up several times, then runs passes while the next should
end within ``--seconds`` (at least two) and reports medians.  The second
pass repeats the first and must repeat its output files byte for byte; each
later pass draws fresh trials from a seed derived from ``--seed``.  The
metrics:

* ``setup_s``: import ``fieldest.cli`` and load the workload's configs;
* ``ops_per_s``: operations per second of CLI command wall time; an
  operation is an estimator trial (EM and NR counted apart) or a CRLB diagonal;
* ``peak_rss_mb``: peak resident memory of this process.

On ``analog-sweep`` and ``em-nr-race``, ``ops_per_s`` is scaled to a
reference CPU speed: a fixed probe that does not use fieldest runs just
before each pass, and the pass's rate is multiplied by ``PROBE_REF_PER_S``
over the probe's speed.  The unscaled rates are printed above the result.

A line above the result also gives ``failed_frac``: operations that did not
converge, were refused or failed the output check, over those attempted.
It is fixed by the seed and the number of passes, so it is printed but not
gated.

``--trace 1`` gives the per-layer metrics from ``layers.py``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; in it ``failed`` counts only
operations whose output check failed.  Lines before it repeat every metric
with its unit and record the machine.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

# Cap BLAS threads at the CPU count before NumPy loads; the workload runs in
# this one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cap = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cap), NPROC) if _cap.isdigit() and int(_cap) > 0 else NPROC)

if __name__ == "__main__" and not (SRC / "fieldest" / "cli.py").is_file():
    sys.exit(f"error: no fieldest sources under {SRC}; run from a full checkout")

sys.path.insert(0, str(SRC))

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fieldest  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    check_pass,
    load_reference,
    pass_seed,
    run_pass,
    write_configs,
)

SETUP_REPEATS = 7

# On a shared host the CPU's speed moves by up to 2x over minutes, and
# moves the estimator trials and the probe below alike.  On the workloads
# marked ``scaled``, ``ops_per_s`` is therefore scaled to a reference speed
# of the probe: a round figure inside the range it ran at (17-56 runs/s,
# median 32) on the 2-CPU machine the bounds were set on.  It sets only the
# scale.
PROBE_STEPS = 1500
PROBE_REF_PER_S = 40.0
WORK_DIR = ROOT / ".bench_work"

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fieldest.cli
for path in sys.argv[3:]:
    fieldest.cli.load_config(path, {"trials.base_seed": sys.argv[2]})
print(repr(time.perf_counter() - t0))
"""


def measure_setup(config_paths, seed):
    """Seconds a fresh interpreter takes to import the CLI and load the configs."""
    out = subprocess.run(
        [sys.executable, "-s", "-c", _SETUP_CHILD, str(SRC), str(seed), *map(str, config_paths)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fieldest": fieldest.__version__,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_per_s():
    """Speed of this CPU now: runs per second of a fixed probe that does not
    use fieldest, made of small NumPy calls and interpreter work in the
    manner of an estimator's inner loop."""
    a = np.eye(5) * 3.0 + 0.1
    x = np.zeros(5)
    sink = {}
    t0 = time.perf_counter()
    for i in range(PROBE_STEPS):
        b = a @ x + np.exp(-0.5 * (x * x))
        x = np.linalg.solve(a, b) * 0.5
        s = 0
        for j in range(30):
            s += j * j
        sink[i % 97] = float(b.sum()) + s
    return 1.0 / (time.perf_counter() - t0)


def end_to_end(workload, config_paths, seed, seconds, work_dir, reference):
    setup = [measure_setup(config_paths.values(), seed) for _ in range(SETUP_REPEATS)]

    # A pass's rate is scaled to the reference speed by the probe run just
    # before it: rate x PROBE_REF_PER_S / speed.
    def speed():
        return probe_per_s() if workload.scaled else PROBE_REF_PER_S

    deadline = time.perf_counter() + seconds
    speeds = [speed()]
    baseline = run_pass(workload, config_paths, seed, work_dir)
    passes = [baseline]
    checks = [check_pass(baseline, None, reference)]
    # The second pass repeats the first, whose output files it must repeat
    # byte for byte; later passes draw fresh trials.  A pass starts only if
    # it should end by the deadline, judged by the one before it.
    while True:
        t0 = time.perf_counter()
        speeds.append(speed())
        if len(passes) == 1:
            runs = run_pass(workload, config_paths, seed, work_dir)
            checks.append(check_pass(runs, baseline, reference))
        else:
            runs = run_pass(workload, config_paths, pass_seed(seed, len(passes)), work_dir)
            checks.append(check_pass(runs, None, None))
        passes.append(runs)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    problems = [problem for check in checks for problem in check.problems]
    attempted = len(passes) * workload.planned_ops
    rates = [workload.planned_ops / sum(r.wall_s for r in runs) for runs in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(
            rate * PROBE_REF_PER_S / v for rate, v in zip(rates, speeds)
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    alias = "trials_per_s" if workload.op == "trial" else "bounds_per_s"
    print(f"{len(passes)} passes of {workload.planned_ops} {workload.op}s")
    print(f"{alias} per pass: " + " ".join(f"{r:.4g}" for r in rates))
    if workload.scaled:
        print("probe speed per pass: " + " ".join(f"{v:.4g}" for v in speeds) + " 1/s")
        print(f"{alias} unscaled {statistics.median(rates):.6g} 1/s")
    print(f"{alias} {metrics['ops_per_s']:.6g} 1/s")
    failed_frac = 1.0 - sum(c.ok_ops for c in checks) / attempted
    print(f"failed_frac {failed_frac:.6g} frac (not converged, refused or failing the check)")
    return metrics, UNITS, attempted, sum(c.failed_ops for c in checks), problems


def traced(workload, config_paths, seed, seconds, work_dir, reference):
    # Imported here so that an end-to-end run never loads the tracing code.
    import layers

    deadline = time.perf_counter() + seconds
    baseline = run_pass(workload, config_paths, seed, work_dir)
    first = check_pass(baseline, None, reference)
    metrics, replayed, problems = layers.traced_run(
        workload, config_paths, seed, deadline, work_dir, baseline
    )
    failed = first.failed_ops + (replayed if problems else 0)
    return metrics, layers.UNITS, workload.planned_ops + replayed, failed, first.problems + problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload.name) if args.seed == DEFAULT_SEED else None
    work_dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        config_paths = write_configs(workload, work_dir)
        measure = traced if args.trace else end_to_end
        metrics, units, attempted, failed, problems = measure(
            workload, config_paths, args.seed, args.seconds, work_dir, reference
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK_DIR.rmdir()
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
