#!/usr/bin/env python3
"""Rewrite ``reference.json``: one pass of every workload at the default seed.

Run from the repository root, only when a change to the program is meant to
change its outputs::

    python3 benchmarks/record_reference.py
"""

import json
import shutil

import run  # sets the BLAS caps and puts the checkout's sources on sys.path
from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS, run_pass, summarize, write_configs


def main():
    reference = {}
    work_dir = run.WORK_DIR / "reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            config_paths = write_configs(workload, work_dir)
            runs = run_pass(workload, config_paths, DEFAULT_SEED, work_dir)
            reference[workload.name] = {r.job.name: summarize(r)[0] for r in runs}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
