"""Seeded Monte Carlo campaigns and statistical reconciliation.

A campaign maps trial indices to TrialRecords (sample, eliminate,
analyse), then folds them into a CampaignSummary.  Per-trial seeds
derive from (master_seed, trial) alone, so the record stream is
reproducible and independent of the worker count; aggregation is a
deterministic fold ordered by trial index.

Wall-clock times are kept on the in-memory records but excluded from
the canonical JSON serialisation, which is required to be bitwise
reproducible across runs.
"""
from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .analyzer import GuardExceeded, analyze_matrix
from .gf2 import BitMatrix, gf2_rank
from .gfp import PrimeFieldMatrix, gfp_rank
from .models import ModelConfig, functional_graph_components, sample
from .theory import TheoryTable

# Headline statistical thresholds (binomial sampling error at the stated
# trial counts plus finite-n slack; the limits themselves are asymptotic).
TV_CORANK_MAX = 0.02
TV_JOINT_MAX = 0.03
DISPERSION_BAND = (0.9, 1.1)
FRACTION_MIN = 0.99
SE_MULTIPLE = 3.0


@dataclass
class TrialRecord:
    trial: int
    n: int
    model: str
    rank: int
    corank: int
    sigma: int | None = None
    lam: int | None = None
    weights: list[int] | None = None
    anomaly_count: int | None = None
    disjoint_violations: int = 0
    equiv_violations: int = 0
    guard_exceeded: bool = False
    simple_a1: bool | None = None
    simple_a4: bool | None = None
    intersection_flags: int | None = None
    large_basis_deficit: int = 0
    wall_ms: float = field(default=0.0, compare=False)

    def to_json_line(self) -> str:
        d = {k: v for k, v in self.__dict__.items() if k != "wall_ms"}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "TrialRecord":
        return cls(wall_ms=0.0, **json.loads(line))


# The NullSpaceReport fields a TrialRecord takes under the same name.
_REPORT_FIELDS = ("rank", "sigma", "lam", "weights", "disjoint_violations",
                  "equiv_violations", "simple_a1", "simple_a4",
                  "intersection_flags", "large_basis_deficit")


def run_trial(cfg: ModelConfig, trial: int) -> TrialRecord:
    """Sample one matrix, eliminate, analyse; never raises on guard hits."""
    t0 = time.perf_counter()
    m = sample(cfg, trial)
    if isinstance(m, PrimeFieldMatrix):
        rank = gfp_rank(m)
        found = {"rank": rank, "corank": m.n_rows - rank}
    else:
        try:
            rep = analyze_matrix(m)
        except GuardExceeded as e:
            found = {"rank": m.n_rows - e.dimension, "corank": e.dimension,
                     "guard_exceeded": True}
        else:
            found = {name: getattr(rep, name) for name in _REPORT_FIELDS}
            found.update(corank=rep.d, anomaly_count=len(rep.anomalies))
    return TrialRecord(trial=trial, n=cfg.n, model=cfg.tag(),
                       wall_ms=1e3 * (time.perf_counter() - t0), **found)


@dataclass
class CampaignSummary:
    model: str
    n: int
    trials: int
    master_seed: int
    corank_hist: dict[int, int]
    joint_hist: dict[tuple[int, int], int]
    sigma_mean: float
    sigma_var: float
    sigma_dispersion: float
    anomaly_total: int
    disjoint_violations: int
    equiv_violations: int
    guard_hits: int
    intersection_flags_total: int
    large_basis_deficit_total: int
    lam_pos_trials: int
    simple_a1_pass: int
    simple_a4_pass: int
    wall_s: float = field(default=0.0, compare=False)

    def to_json_dict(self) -> dict:
        d = dict(self.__dict__)
        if math.isnan(self.sigma_dispersion):  # no dispersion without a mean; NaN is not JSON
            d["sigma_dispersion"] = None
        d["joint_hist"] = {f"{s},{l}": c for (s, l), c in sorted(self.joint_hist.items())}
        d["corank_hist"] = {str(k): v for k, v in sorted(self.corank_hist.items())}
        return d


def _moments(xs: Sequence[int]) -> tuple[float, float, float]:
    """Sample mean, unbiased variance and dispersion (variance / mean)."""
    mean = sum(xs) / len(xs) if xs else 0.0
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1) if len(xs) > 1 else 0.0
    return mean, var, var / mean if mean > 0 else float("nan")


def summarize(records: Sequence[TrialRecord], master_seed: int) -> CampaignSummary:
    corank_hist: dict[int, int] = {}
    joint_hist: dict[tuple[int, int], int] = {}
    sigmas = []
    anom = disj = equiv = guard = iflags = deficit = 0
    lam_pos = a1 = a4 = 0
    wall = 0.0
    for r in records:
        corank_hist[r.corank] = corank_hist.get(r.corank, 0) + 1
        wall += r.wall_ms
        if r.guard_exceeded:
            guard += 1
            continue
        if r.sigma is not None:
            joint_hist[(r.sigma, r.lam)] = joint_hist.get((r.sigma, r.lam), 0) + 1
            sigmas.append(r.sigma)
            anom += r.anomaly_count or 0
            disj += r.disjoint_violations
            equiv += r.equiv_violations
            deficit += abs(r.large_basis_deficit)
            if r.lam and r.lam >= 1:
                lam_pos += 1
                a1 += bool(r.simple_a1)
                a4 += bool(r.simple_a4)
                iflags += r.intersection_flags or 0
    mean, var, disp = _moments(sigmas)
    return CampaignSummary(
        model=records[0].model if records else "", n=records[0].n if records else 0,
        trials=len(records), master_seed=master_seed, corank_hist=corank_hist,
        joint_hist=joint_hist, sigma_mean=mean, sigma_var=var,
        sigma_dispersion=disp, anomaly_total=anom, disjoint_violations=disj,
        equiv_violations=equiv, guard_hits=guard,
        intersection_flags_total=iflags, large_basis_deficit_total=deficit,
        lam_pos_trials=lam_pos, simple_a1_pass=a1, simple_a4_pass=a4,
        wall_s=wall / 1e3)


def _pool_map(fn, items: Iterable, workers: int):
    """[fn(x) for x in items], in item order, on `workers` forked processes,
    at most one per item and one per CPU this process may run on; a
    single worker, item or CPU runs in this process."""
    items = list(items)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, len(items), cpus)
    if workers <= 1:
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(items) // (8 * workers))
    with ctx.Pool(workers) as pool:
        return pool.map(fn, items, chunksize=chunk)


def run_campaign(cfg: ModelConfig, trials: int,
                 workers: int = 1) -> tuple[list[TrialRecord], CampaignSummary]:
    """Run `trials` seeded trials; records come back ordered by trial index."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    records = _pool_map(partial(run_trial, cfg), range(trials), workers)
    summary = summarize(records, cfg.master_seed)
    summary.wall_s = time.perf_counter() - t0
    return records, summary


def write_records_jsonl(records: Sequence[TrialRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(r.to_json_line() + "\n")


def read_records_jsonl(path: str) -> list[TrialRecord]:
    with open(path, encoding="utf-8") as f:
        return [TrialRecord.from_json_line(line) for line in f if line.strip()]


def _tv(emp_counts: dict, theory_probs: dict, trials: int) -> float:
    """Total variation with an explicit tail cell for mass beyond the grid."""
    tv = 0.0
    emp_seen = 0
    for cell, q in theory_probs.items():
        c = emp_counts.get(cell, 0)
        emp_seen += c
        tv += abs(c / trials - q)
    tail_theory = max(0.0, 1.0 - sum(theory_probs.values()))
    tail_emp = (trials - emp_seen) / trials
    return 0.5 * (tv + abs(tail_emp - tail_theory))


@dataclass(frozen=True)
class FitReport:
    tv_corank: float
    tv_joint: float
    corank0_emp: float
    corank0_theory: float
    corank0_se: float


def compare_to_theory(summary: CampaignSummary, table: TheoryTable) -> FitReport:
    """TV distances and the corank-0 error vs a theory table."""
    expected_tag = f"gf2:r1:s3:{table.model}"
    if summary.model != expected_tag:
        raise ValueError(f"model tag mismatch: campaign {summary.model!r} "
                         f"vs theory {expected_tag!r}")
    trials = summary.trials
    p0 = summary.corank_hist.get(0, 0) / trials
    q0 = table.corank[0]
    return FitReport(tv_corank=_tv(summary.corank_hist, dict(enumerate(table.corank)), trials),
                     tv_joint=_tv(summary.joint_hist, table.joint, trials),
                     corank0_emp=p0, corank0_theory=q0,
                     corank0_se=math.sqrt(q0 * (1 - q0) / trials))


def headline_checks(summary: CampaignSummary, fit: FitReport,
                    table: TheoryTable) -> dict[str, bool]:
    """The campaign-level acceptance thresholds, in one place."""
    se_mean = (math.sqrt(summary.sigma_var / summary.trials)
               if summary.sigma_var > 0 else float("inf"))
    return {
        "corank0_within_3se": abs(fit.corank0_emp - fit.corank0_theory)
                              <= SE_MULTIPLE * fit.corank0_se,
        "tv_corank": fit.tv_corank < TV_CORANK_MAX,
        "tv_joint": fit.tv_joint < TV_JOINT_MAX,
        "zero_anomalies": summary.anomaly_total == 0,
        "sigma_mean_within_3se": abs(summary.sigma_mean - table.phi)
                                 <= SE_MULTIPLE * se_mean,
        "dispersion_in_band": (DISPERSION_BAND[0] <= summary.sigma_dispersion
                               <= DISPERSION_BAND[1]),
    }


class _Audit(NamedTuple):
    config: dict                                 # ModelConfig fields but n, seed
    violation: Callable[[BitMatrix | PrimeFieldMatrix, int], bool]  # -> exact miss
    hit: Callable[[int], bool] | None            # corank -> target; None: exact


_AUDITS = {
    # s=2: the co-rank is the component count of the functional graph
    "r1s2": _Audit({"r": 1, "s": 2},
                   lambda m, d: d != functional_graph_components(m), None),
    # s even: the all-ones vector annihilates every column, so corank >= 1
    "r2s2": _Audit({"r": 2, "s": 2}, lambda m, d: d < 1, lambda d: d == 1),
    "r2s3": _Audit({"r": 2, "s": 3}, lambda m, d: False, lambda d: d == 0),
    "gf3model1": _Audit({"p": 3, "gft_model": 1}, lambda m, d: d < 1, lambda d: d == 1),
}
AUDIT_FAMILIES = tuple(_AUDITS)


@dataclass(frozen=True)
class AuditResult:
    family: str
    n: int
    trials: int
    violations: int            # exact-property violations (family-specific)
    fraction: float | None     # measured target fraction, when one applies
    passed: bool

    def describe(self) -> str:
        frac = "-" if self.fraction is None else f"{self.fraction:.4f}"
        return (f"{self.family}: n={self.n} trials={self.trials} "
                f"violations={self.violations} fraction={frac} "
                f"{'PASS' if self.passed else 'FAIL'}")


def _audit_trial(family: str, cfg: ModelConfig, trial: int) -> tuple[int, int]:
    """Returns (violation, hit) for one trial of an audit family."""
    audit = _AUDITS[family]
    m = sample(cfg, trial)
    corank = m.n_rows - (gfp_rank(m) if isinstance(m, PrimeFieldMatrix) else gf2_rank(m))
    return (int(audit.violation(m, corank)),
            0 if audit.hit is None else int(audit.hit(corank)))


def audit_config(family: str, n: int, master_seed: int = 0) -> ModelConfig:
    """The model an audit family samples at size n; ValueError if it has none."""
    if family not in _AUDITS:
        raise ValueError(f"unknown audit family {family!r}")
    try:
        return ModelConfig(n=n, master_seed=master_seed, **_AUDITS[family].config)
    except ValueError as e:
        raise ValueError(f"audit family {family} at n={n}: {e}") from None


def special_case_audits(families: Sequence[str], n: int = 500, trials: int = 1000,
                        master_seed: int = 0, workers: int = 1) -> list[AuditResult]:
    """Exact and high-probability checks for the special-case models."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    configs = [audit_config(family, n, master_seed) for family in families]
    out = []
    for family, cfg in zip(families, configs):
        audit = _AUDITS[family]
        fn = partial(_audit_trial, family, cfg)
        results = _pool_map(fn, range(trials), workers)
        violations = sum(v for v, _ in results)
        if audit.hit is None:
            fraction = None
            passed = violations == 0
        else:
            fraction = sum(h for _, h in results) / trials
            passed = violations == 0 and fraction >= FRACTION_MIN
        out.append(AuditResult(family=family, n=n, trials=trials,
                               violations=violations, fraction=fraction,
                               passed=passed))
    return out
