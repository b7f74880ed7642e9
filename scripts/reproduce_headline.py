#!/usr/bin/env python3
"""End-to-end headline reproduction: theory constants, the n=500 campaign,
its reconciliation, and the special-case audits.

Writes records/summary next to --out-dir and prints a readable report.
Exit code 1 if any configured threshold fails (the GF(3) Model-1 audit
is reported separately; its 0.99 threshold is known to be unattainable).
"""
import argparse
import json
import os
import sys
import time

from fflab import theory
from fflab.harness import (
    AUDIT_FAMILIES,
    compare_to_theory,
    headline_checks,
    run_campaign,
    special_case_audits,
    write_records_jsonl,
)
from fflab.models import ModelConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1))
    ap.add_argument("--out-dir", type=str, default="headline_out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    table = theory.build_table("without", d_max=12)
    print(f"theory: phi={table.phi:.6f} pi0={table.pi[0]:.6f} "
          f"Pr(full rank)={table.full_rank_probability:.6f}")

    cfg = ModelConfig(n=args.n, replacement="without", master_seed=args.seed)
    t0 = time.perf_counter()
    records, summary = run_campaign(cfg, trials=args.trials, workers=args.workers)
    print(f"campaign: n={args.n} trials={args.trials} seed={args.seed} "
          f"({time.perf_counter() - t0:.1f}s)")

    write_records_jsonl(records, os.path.join(args.out_dir, "records.jsonl"))
    with open(os.path.join(args.out_dir, "summary.json"), "w") as f:
        json.dump(summary.to_json_dict(), f, indent=1)

    fit = compare_to_theory(summary, table)
    print(f"corank0: emp={fit.corank0_emp:.4f} theory={fit.corank0_theory:.4f} "
          f"(3se={3 * fit.corank0_se:.4f})")
    print(f"tv_corank={fit.tv_corank:.4f} tv_joint={fit.tv_joint:.4f} "
          f"chi2={fit.chi2_stat:.2f}/{fit.chi2_dof} p={fit.chi2_pvalue:.3f}")
    print(f"sigma: mean={summary.sigma_mean:.5f} "
          f"dispersion={summary.sigma_dispersion:.3f} "
          f"anomalies={summary.anomaly_total}")

    checks = headline_checks(summary, fit, table)
    for name, passed in checks.items():
        print(f"  {name}: {'PASS' if passed else 'FAIL'}")

    audits = special_case_audits(AUDIT_FAMILIES, n=args.n, trials=1000,
                                 master_seed=args.seed, workers=args.workers)
    for res in audits:
        print("  audit " + res.describe())

    hard = all(checks.values()) and all(r.passed for r in audits
                                        if r.family != "gf3model1")
    return 0 if hard else 1


if __name__ == "__main__":
    sys.exit(main())
