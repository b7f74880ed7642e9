"""Runs one workload of the benchmark in this interpreter and prints its raw results.

run.py starts this script in a fresh interpreter with fflab's sources on
PYTHONPATH and turns the JSON object on its last output line into the
benchmark's metrics.  One warm-up unit runs first, untimed.  Then units
run with fresh master seeds until their times add up to --seconds.  With
--trace 1 every unit runs twice, traced and untraced, alternating which
goes first, so the tracing overhead is measured on the same work.  The
host speed probe (hostspeed.py) is sampled before the first unit and
after each one, outside the unit times.

Every unit's output is checked outside the timed region:
- trial fields that do not depend on the null-space basis (rank, corank,
  sigma, lambda, sorted weights, anomaly count) against the oracle, on
  every oracle_stride-th trial of a campaign, on trial 0 of the first
  gf2_n10k unit, and on all trials of the first GF(3) audit;
- for the reference seeds, unit 0 against refs.json, trial by trial,
  with the headline verdicts and the exact audit fraction;
- guard hits, internal consistency, the theory constants, and the
  traced unit's output against the untraced one's.
A trial counts as failed when any check on it fails; a check on a whole
unit (summary, verdicts, audit) fails every trial of the unit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy
import scipy

import fflab
from fflab import ModelConfig, harness, theory

import hostspeed
import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
THEORY_TOL = 1e-9


@dataclass
class Unit:
    seed: int
    wall_s: float      # first fflab call to the unit's verdict
    loop_s: float      # the campaign, trial loop or audit alone
    trials: int
    fields: object     # per-trial basis-independent fields, or the audit's result
    full_digest: str   # of the canonical record lines; depends on the basis, not gated
    verdict: dict | None = None
    summary: object = field(default=None, repr=False)
    table: object = field(default=None, repr=False)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def trial_digest(fields: list) -> str:
    return digest(fields)[:16]


def record_fields(r) -> list:
    weights = None if r.weights is None else sorted(r.weights)
    return [r.trial, r.rank, r.corank, r.sigma, r.lam, weights, r.anomaly_count]


def records_digest(records) -> str:
    return hashlib.sha256("".join(r.to_json_line() + "\n" for r in records).encode()).hexdigest()


def run_campaign_unit(p: dict, seed: int, trials: int) -> Unit:
    cfg = ModelConfig(n=p["n"], master_seed=seed)
    t0 = time.perf_counter()
    records, summary = harness.run_campaign(cfg, trials, workers=p["workers"])
    t1 = time.perf_counter()
    table = theory.build_table(cfg.replacement)
    fit = harness.compare_to_theory(summary, table)
    verdict = harness.headline_checks(summary, fit, table)
    t2 = time.perf_counter()
    return Unit(seed, t2 - t0, t1 - t0, len(records), [record_fields(r) for r in records],
                records_digest(records), verdict={k: bool(v) for k, v in verdict.items()},
                summary=summary, table=table)


def run_gf2_unit(p: dict, seed: int, trials: int) -> Unit:
    cfg = ModelConfig(n=p["n"], master_seed=seed)
    t0 = time.perf_counter()
    records = [harness.run_trial(cfg, i) for i in range(trials)]
    t1 = time.perf_counter()
    return Unit(seed, t1 - t0, t1 - t0, trials, [record_fields(r) for r in records],
                records_digest(records))


def run_gf3_unit(p: dict, seed: int, trials: int) -> Unit:
    t0 = time.perf_counter()
    audit, = harness.special_case_audits(["gf3model1"], n=p["n"], trials=trials,
                                         master_seed=seed, workers=p["workers"])
    t1 = time.perf_counter()
    result = {"trials": audit.trials, "violations": audit.violations,
              "fraction": audit.fraction, "passed": audit.passed}
    return Unit(seed, t1 - t0, t1 - t0, trials, result, digest(result))


RUNNERS = {
    "campaign_n500": run_campaign_unit,
    "gf2_n10k": run_gf2_unit,
    "gf3_audit": run_gf3_unit,
}


def oracle_trials(name: str, p: dict, k: int) -> range:
    if name == "campaign_n500":
        return range(k % p["oracle_stride"], p["trials"], p["oracle_stride"])
    if k > 0:
        return range(0)
    return range(1) if name == "gf2_n10k" else range(p["trials"])


def bad_trials(p: dict, unit: Unit, to_oracle: range, ref: dict | None) -> set[int]:
    """Trials of a GF(2) unit whose fields fail a check."""
    n = p["n"]
    bad = set()
    for trial, rank, corank, sigma, lam, weights, anomalies in unit.fields:
        if rank + corank != n or sigma is None:   # None: the enumeration guard was hit
            bad.add(trial)
        elif sigma + lam != corank or len(weights) != 2 ** corank - 1:
            bad.add(trial)
    for i in to_oracle:
        if oracle.gf2_fields(unit.seed, i, n) != unit.fields[i]:
            bad.add(i)
    if ref is not None:
        bad.update(i for i, d in enumerate(ref["trial_digests"])
                   if trial_digest(unit.fields[i]) != d)
    return bad


def unit_problems(name: str, p: dict, k: int, unit: Unit, refs: dict,
                  ref: dict | None) -> list[str]:
    """Checks on a unit as a whole: ordering, summary, theory, verdicts, audit."""
    problems = []
    if name in ("campaign_n500", "gf2_n10k"):
        if [f[0] for f in unit.fields] != list(range(p["trials"])):
            problems.append("records are not trials 0..T-1 in order")
    if name == "campaign_n500":
        s, table = unit.summary, unit.table
        corank_hist: dict[int, int] = {}
        joint_hist: dict[tuple[int, int], int] = {}
        for _, _, corank, sigma, lam, _, _ in unit.fields:
            corank_hist[corank] = corank_hist.get(corank, 0) + 1
            if sigma is not None:
                joint_hist[(sigma, lam)] = joint_hist.get((sigma, lam), 0) + 1
        if (s.trials, s.corank_hist, s.joint_hist) != (p["trials"], corank_hist, joint_hist):
            problems.append("campaign summary disagrees with its records")
        if (abs(table.phi - refs["theory"]["phi"]) > THEORY_TOL
                or abs(table.corank[0] - refs["theory"]["corank0"]) > THEORY_TOL):
            problems.append("theory constants moved")
        if sorted(unit.verdict) != refs["theory"]["verdict_keys"]:
            problems.append("the set of headline checks changed")
        if ref is not None and unit.verdict != ref["verdict"]:
            problems.append("headline verdicts differ from the reference")
    if name == "gf3_audit":
        # every column of Model 1 sums to 3 = 0 mod 3, so corank >= 1 always
        if unit.fields["violations"] != 0:
            problems.append("corank-0 trials in GF(3) Model 1")
        to_oracle = oracle_trials(name, p, k)
        if to_oracle:
            hits = sum(oracle.gf3_model1_corank(unit.seed, i, p["n"]) == 1 for i in to_oracle)
            if hits != round(unit.fields["fraction"] * p["trials"]):
                problems.append("audit fraction differs from the oracle")
        if ref is not None and unit.fields != ref["result"]:
            problems.append("audit result differs from the reference")
    return problems


def check_unit(name: str, p: dict, k: int, unit: Unit, refs: dict,
               ref: dict | None) -> tuple[int, list[str]]:
    """Failed trials of one unit, and what failed."""
    problems = unit_problems(name, p, k, unit, refs, ref)
    failed = p["trials"] if problems else 0
    if name != "gf3_audit" and not problems:
        bad = bad_trials(p, unit, oracle_trials(name, p, k), ref)
        failed = len(bad)
        if bad:
            problems.append(f"trials {sorted(bad)[:10]} differ from the oracle or the "
                            "reference, or hit the guard")
    return failed, [f"unit {k} (master seed {unit.seed}): {m}" for m in problems]


def unit_summary(unit: Unit) -> dict:
    return {"seed": unit.seed, "wall_s": unit.wall_s, "loop_s": unit.loop_s,
            "trials": unit.trials, "digest": digest(unit.fields),
            "full_digest": unit.full_digest, "verdict": unit.verdict,
            "audit": unit.fields if isinstance(unit.fields, dict) else None}


def run_units(run, tr: tracer.Tracer | None, p: dict, seed: int,
              traced_first: bool) -> tuple[Unit, Unit | None]:
    """The unit run untraced and, given a tracer, the same unit run traced."""
    if tr is None:
        return run(p, seed, p["trials"]), None
    units = {}
    for traced in (True, False) if traced_first else (False, True):
        if traced:
            tr.install()
        try:
            units[traced] = run(p, seed, p["trials"])
        finally:
            if traced:
                tr.uninstall()
                tr.collect_worker_spans()
    return units[False], units[True]


def measure(name: str, scale: str, seed: int, seconds: float, trace: bool) -> dict:
    p = workloads.PARAMS[name][scale]
    run = RUNNERS[name]
    with open(REFS, encoding="utf-8") as f:
        refs = json.load(f)
    run(p, workloads.unit_seed(seed, -1), p["warmup_trials"])   # warm-up, untimed
    out_dir = ROOT / ".bench_out"
    sink = out_dir / f"worker-spans-{seed}-{time.time_ns()}"
    tr = None
    if trace:
        sink.mkdir(parents=True)
        tr = tracer.Tracer(sink)
    copies = 2 if trace else 1
    units: list[Unit] = []
    traced_wall = untraced_wall = 0.0
    attempted = failed = 0
    problems: list[str] = []
    ref0 = refs["units"].get(f"{name}/{scale}/{seed}")
    k = 0
    probe = hostspeed.Probe(p["workers"])
    try:
        speed = [probe.sample()]   # before the first unit and after each one
        while k == 0 or traced_wall + untraced_wall < seconds:
            s = workloads.unit_seed(seed, k)
            attempted += copies * p["trials"]
            try:
                unit, traced = run_units(run, tr, p, s, traced_first=k % 2 == 0)
            except Exception:
                traceback.print_exc()
                failed += copies * p["trials"]
                problems.append(f"unit {k} (master seed {s}) raised")
                break
            speed.append(probe.sample())
            units.append(unit)
            untraced_wall += unit.wall_s
            unit_failed, unit_msgs = check_unit(name, p, k, unit, refs, ref0 if k == 0 else None)
            if traced is not None:
                traced_wall += traced.wall_s
                if digest(traced.fields) != digest(unit.fields):
                    unit_failed = p["trials"]
                    unit_msgs.append(f"unit {k}: traced output differs from untraced")
            failed += copies * unit_failed
            problems += unit_msgs
            k += 1
        result = {
            "workload": name, "scale": scale, "seed": seed, "params": p,
            "units": [unit_summary(u) for u in units],
            "full_digest_matches_ref": (units[0].full_digest == ref0["full_digest"]
                                        if units and ref0 and "full_digest" in ref0 else None),
            "attempted": attempted, "failed": failed, "problems": problems,
            "host_speed_samples_s": speed,
            "rss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                         "fflab": fflab.__version__},
        }
        if tr is not None:
            spans_file = out_dir / f"spans-{name}-{scale}-seed{seed}.jsonl"
            tr.write(spans_file)
            result["spans_file"] = str(spans_file.relative_to(ROOT))
            result["layer_metrics"] = tracer.layer_metrics(
                tr.spans, traced_wall, untraced_wall, p["workers"])
        return result
    finally:
        probe.close()
        if tr is not None:
            tr.uninstall()
            shutil.rmtree(sink, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if Path(fflab.__file__).resolve().parent != ROOT / "src" / "fflab":
        print(f"error: fflab was imported from {fflab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.scale, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
