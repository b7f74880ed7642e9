"""The benchmark's workloads: their parameters and the master seed of each unit.

A run repeats one workload's unit with fresh master seeds until the
unit times add up to the run's --seconds.  Units:

- campaign_n500: a 2-worker run_campaign at n=500, then build_table,
  compare_to_theory and headline_checks, as `fflab simulate --check` does.
- gf2_n10k: one trial at n=10^4 through run_trial, in this process.
- gf3_audit: special_case_audits(["gf3model1"]) at n=500 with 2 workers.

BENCHMARK.json lists campaign_n500 and gf3_audit only.  gf2_n10k stays
runnable by name for work on the elimination engine, but its run-to-run
spread on a shared 2-vCPU host (IQR/median up to 0.52 over 10 seeds, with
the same trial switching between 0.5 s and 1.1 s for minutes at a time)
exceeds any bound a benchmark workload may have.

The "tiny" scale runs the same code at sizes that finish in seconds; the
smoke tests use it.  This module imports nothing from fflab, so run.py
can read it without paying for fflab's import.
"""
from __future__ import annotations

import hashlib

DEFAULT_SEED = 20260809
HELD_OUT_SEED = 314159

PARAMS = {
    "campaign_n500": {
        "full": {"n": 500, "trials": 2000, "workers": 2, "warmup_trials": 200,
                 "oracle_stride": 16},
        "tiny": {"n": 60, "trials": 40, "workers": 2, "warmup_trials": 10,
                 "oracle_stride": 4},
    },
    "gf2_n10k": {
        "full": {"n": 10_000, "trials": 1, "workers": 1, "warmup_trials": 1},
        "tiny": {"n": 300, "trials": 1, "workers": 1, "warmup_trials": 1},
    },
    "gf3_audit": {
        "full": {"n": 500, "trials": 150, "workers": 2, "warmup_trials": 20},
        "tiny": {"n": 60, "trials": 20, "workers": 2, "warmup_trials": 5},
    },
}

SCALES = ("full", "tiny")


def unit_seed(seed: int, k: int) -> int:
    """Master seed of unit k in a run: the run's seed itself for unit 0."""
    if k == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:8], "little")
