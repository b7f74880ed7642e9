"""Operator surface: theory tables, campaigns, matrix analysis, audits.

Exit codes: 0 success, 1 a configured acceptance threshold failed,
2 usage or parse error (including a size, count or seed out of range,
an output path that cannot be opened, and simulate records and summary
sent to the same file).  Master seeds are
echoed into every output so any run can be reproduced exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import theory
from .analyzer import GUARD, WINDOW_A, GuardExceeded, analyze_matrix
from .gf2 import BitMatrix
from .gfp import PrimeFieldMatrix, gfp_rank
from .harness import (
    AUDIT_FAMILIES,
    audit_config,
    compare_to_theory,
    headline_checks,
    run_campaign,
    special_case_audits,
    write_records_jsonl,
)
from .models import MatrixParseError, ModelConfig, parse_matrix, sample


def _int_at_least(minimum: int):
    """argparse type for an int >= minimum; anything else is a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


_positive_int, _nonnegative_int = _int_at_least(1), _int_at_least(0)


def _usage_error(message: object) -> int:
    """Report a usage error on stderr; returns its exit code, 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


class _BadOutput(Exception):
    """An output path that cannot be used; main reports it as a usage error."""


def _open_output(path: str, mode: str = "w"):
    try:
        return open(path, mode)
    except OSError as e:
        raise _BadOutput(f"{path}: {e.strerror}") from None


def _check_outputs(records: str | None, out: str | None) -> None:
    """Fail on an unwritable output path, or on records and summary sent
    to one file, before a campaign, not after it.  Append mode keeps an
    existing file; a file this check creates, it removes again."""
    created = []
    try:
        for path in filter(None, (records, out)):
            real = os.path.realpath(path)   # a dangling symlink creates its target
            existed = os.path.exists(real)
            _open_output(path, "a").close()
            if not existed:
                created.append(real)
        if records and out and os.path.samefile(records, out):
            raise _BadOutput(f"--records and --out name the same file: {out}")
    finally:
        for real in created:
            os.remove(real)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_positive_int, default=500, help="row count (default 500)")
    p.add_argument("--r", type=int, default=1, help="column blocks per row (default 1)")
    p.add_argument("--s", type=int, default=3, help="column weight parameter (default 3)")
    p.add_argument("--replacement", choices=theory.REPLACEMENTS, default=theory.WITHOUT)
    p.add_argument("--p", type=int, default=None,
                   help="prime modulus; selects the GF(p) models")
    p.add_argument("--gft-model", type=int, choices=[1, 2, 3], default=None)
    p.add_argument("--f-dist", type=str, default=None,
                   help="comma-separated probabilities for residues 1..p-1")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed (default 0)")


def _config_from_args(args) -> ModelConfig:
    f_dist = None
    if args.f_dist:
        f_dist = tuple(float(x) for x in args.f_dist.split(","))
    return ModelConfig(n=args.n, r=args.r, s=args.s, replacement=args.replacement,
                       p=args.p, gft_model=args.gft_model,
                       f_dist=f_dist, master_seed=args.seed)


def cmd_theory(args) -> int:
    table = theory.build_table(model=args.replacement)
    print(f"model: {table.model} replacement")
    print(f"phi = {table.phi:.4f}")
    print(f"pi(0) = {table.pi[0]:.4f}")
    print(f"Pr(full rank) = {table.full_rank_probability:.4f}")
    print("corank distribution:",
          " ".join(f"{d}:{v:.5f}" for d, v in enumerate(table.corank[:6])))
    if args.out:
        with _open_output(args.out) as f:
            json.dump(table.to_json_dict(), f, indent=1)
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    try:
        cfg = _config_from_args(args)
    except ValueError as e:
        return _usage_error(e)
    if args.check and (cfg.p is not None or cfg.r != 1 or cfg.s != 3):
        return _usage_error("--check applies to the r=1, s=3 GF(2) models")
    _check_outputs(args.records, args.out)
    records, summary = run_campaign(cfg, trials=args.trials, workers=args.workers)
    print(f"model {summary.model} n={summary.n} trials={summary.trials} "
          f"seed={summary.master_seed} wall={summary.wall_s:.1f}s")
    print("corank histogram:",
          " ".join(f"{d}:{c}" for d, c in sorted(summary.corank_hist.items())))
    if summary.sigma_mean or summary.joint_hist:
        print(f"sigma mean={summary.sigma_mean:.5f} var={summary.sigma_var:.5f} "
              f"dispersion={summary.sigma_dispersion:.3f}")
        print(f"anomalies={summary.anomaly_total} "
              f"disjoint_violations={summary.disjoint_violations} "
              f"equiv_violations={summary.equiv_violations} "
              f"guard_hits={summary.guard_hits}")
    if summary.lam_pos_trials:
        print(f"simple-sequence pass rates over {summary.lam_pos_trials} "
              f"lam>=1 trials: a=1 {summary.simple_a1_pass / summary.lam_pos_trials:.3f}, "
              f"a={WINDOW_A:g} {summary.simple_a4_pass / summary.lam_pos_trials:.3f}")
    if args.records:
        write_records_jsonl(records, args.records)
        print(f"wrote {args.records}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary.to_json_dict(), f, indent=1, allow_nan=False)
        print(f"wrote {args.out}")
    if args.check:
        table = theory.build_table(model=cfg.replacement)
        fit = compare_to_theory(summary, table)
        checks = headline_checks(summary, fit, table)
        print(f"corank0 emp={fit.corank0_emp:.4f} theory={fit.corank0_theory:.4f} "
              f"(3se={3 * fit.corank0_se:.4f})")
        print(f"tv_corank={fit.tv_corank:.4f} tv_joint={fit.tv_joint:.4f}")
        for name, ok in checks.items():
            print(f"check {name}: {'PASS' if ok else 'FAIL'}")
        if not all(checks.values()):
            return 1
    return 0


def cmd_analyze(args) -> int:
    if args.matrix:
        try:
            with open(args.matrix) as f:
                text = f.read()
        except OSError as e:
            return _usage_error(e)
        try:
            m = parse_matrix(text)
        except MatrixParseError as e:
            return _usage_error(f"{args.matrix}: {e}")
    else:
        if args.trial is None:
            return _usage_error("provide --matrix PATH or model flags with --trial")
        try:
            cfg = _config_from_args(args)
        except ValueError as e:
            return _usage_error(e)
        m = sample(cfg, args.trial)
    if isinstance(m, PrimeFieldMatrix):
        rank = gfp_rank(m)
        print(f"gfp p={m.p} n_rows={m.n_rows} n_cols={m.n_cols}")
        print(f"rank={rank} corank={m.n_rows - rank}")
        out = {"p": m.p, "rank": rank, "corank": m.n_rows - rank}
    else:
        assert isinstance(m, BitMatrix)
        # rank <= min(n_cols, nnz): refuse a tall matrix before eliminating it
        least = m.n_rows - min(m.n_cols, m.nonzero()[0].size)
        if least > GUARD:
            return _usage_error(f"null-space dimension at least {least} exceeds guard {GUARD}")
        try:
            rep = analyze_matrix(m)
        except GuardExceeded as e:
            return _usage_error(e)
        print(f"gf2 n_rows={m.n_rows} n_cols={m.n_cols}")
        print(f"rank={rep.rank} corank={rep.d} sigma={rep.sigma} lambda={rep.lam}")
        print(f"weights={rep.weights}")
        print(f"anomalies={rep.anomalies} omega={rep.omega} window_a={WINDOW_A}")
        out = rep.to_json_dict()
    if args.out:
        with _open_output(args.out) as f:
            json.dump(out, f, indent=1)
        print(f"wrote {args.out}")
    return 0


def cmd_audit(args) -> int:
    families = AUDIT_FAMILIES if args.family == "all" else (args.family,)
    try:
        for family in families:
            audit_config(family, args.n, args.seed)
    except ValueError as e:
        return _usage_error(e)
    results = special_case_audits(families, n=args.n, trials=args.trials,
                                  master_seed=args.seed, workers=args.workers)
    print(f"seed={args.seed}")
    for res in results:
        print(res.describe())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fflab",
                                 description="finite-field random-matrix lab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="compute exact limiting tables")
    p.add_argument("--replacement", choices=theory.REPLACEMENTS, default=theory.WITHOUT)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_theory)

    p = sub.add_parser("simulate", help="run a seeded campaign")
    _add_model_flags(p)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--records", type=str, default=None, help="JSONL record path")
    p.add_argument("--out", type=str, default=None, help="summary output path")
    p.add_argument("--check", action="store_true",
                   help="compare to theory; exit 1 on threshold failure")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="analyze a stored or replayed matrix")
    _add_model_flags(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--matrix", type=str, default=None,
                        help="matrix fixture path; the model flags do not apply to it")
    source.add_argument("--trial", type=_nonnegative_int, default=None,
                        help="replay trial index of the model the flags describe")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("audit", help="special-case audits")
    p.add_argument("--family", choices=list(AUDIT_FAMILIES) + ["all"], default="all")
    p.add_argument("--n", type=_positive_int, default=500)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_audit)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _BadOutput as e:
        return _usage_error(e)


if __name__ == "__main__":
    sys.exit(main())
