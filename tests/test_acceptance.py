"""Acceptance suite: one test per criterion, at the stated tolerances.

Campaign-backed criteria share two session fixtures (n=500 x 10^4 trials
and n=2000 x 10^3 trials, fixed master seeds).  Every test emits one
PASS/FAIL line; run with `pytest -v` (or add `-s` to see the lines on
passing tests too).

Known red: the GF(3) Model-1 corank=1 fraction cannot reach the stated
0.99 threshold; opposite-value coefficient pairs are extra dependencies
at a constant rate, holding the true fraction near 0.77 at every n
(verified exhaustively at n=5 against an independent dense elimination).
The test asserts the stated threshold anyway and fails honestly.
"""
import math
import os
import time

import numpy as np
import pytest

from fflab import theory
from fflab.analyzer import build_U
from fflab.gf2 import BitMatrix, gf2_rank_nullspace
from fflab.harness import (
    compare_to_theory,
    headline_checks,
    run_campaign,
    special_case_audits,
)
from fflab.models import ModelConfig
from oracles import count_subspaces_gf2, inversion_generating_function, rank_mod2_dense

SEED = 20260809
WORKERS = min(8, os.cpu_count() or 1)


def _line(cid: str, ok: bool, detail: str) -> bool:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="session")
def table_without():
    return theory.build_table("without")


@pytest.fixture(scope="session")
def table_with():
    return theory.build_table("with")


@pytest.fixture(scope="session")
def campaign500():
    cfg = ModelConfig(n=500, r=1, s=3, replacement="without", master_seed=SEED)
    return run_campaign(cfg, trials=10_000, workers=WORKERS)


@pytest.fixture(scope="session")
def campaign2000():
    cfg = ModelConfig(n=2000, r=1, s=3, replacement="without", master_seed=SEED)
    return run_campaign(cfg, trials=1_000, workers=WORKERS)


def test_c01_theory_constants(table_without, table_with):
    t0 = time.perf_counter()
    phi_r = theory.phi("with")
    phi_rbar = theory.phi("without")
    pi0 = theory.pi_k(0)
    full_rank = theory.p_joint(0, 0, phi_rbar)
    elapsed = time.perf_counter() - t0
    ok = (abs(phi_r - 0.5215) <= 5e-4
          and abs(phi_rbar - 0.1151) <= 5e-4
          and abs(pi0 - 0.2888) <= 5e-4
          and abs(full_rank - 0.2574) <= 5e-4
          and elapsed < 1.0)
    assert _line("C01", ok,
                 f"phi_R={phi_r:.5f} phi_Rbar={phi_rbar:.5f} pi0={pi0:.5f} "
                 f"Pr(full)={full_rank:.5f} in {elapsed:.2f}s")


def test_c02_normalisations():
    t0 = time.perf_counter()
    pi_sum = sum(theory.pi_k(k) for k in range(13))
    corank_sum = sum(theory.build_table("without").corank)
    ph = theory.phi("without")
    joint_sum = sum(theory.p_joint(s, l, ph) for s in range(13) for l in range(13))
    worst_pstar = 0.0
    for m in range(9):
        for k in range(9):
            s = sum(theory.p_star(k - r, r, m) for r in range(min(m, k) + 1))
            worst_pstar = max(worst_pstar, abs(s - 1))
    elapsed = time.perf_counter() - t0
    ok = (abs(pi_sum - 1) <= 1e-9 and abs(corank_sum - 1) <= 1e-9
          and abs(joint_sum - 1) <= 1e-9 and worst_pstar <= 1e-12
          and elapsed < 1.0)
    assert _line("C02", ok,
                 f"|pi-1|={abs(pi_sum-1):.1e} |corank-1|={abs(corank_sum-1):.1e} "
                 f"|joint-1|={abs(joint_sum-1):.1e} pstar_worst={worst_pstar:.1e} "
                 f"in {elapsed:.2f}s")


def test_c03_q_binomial_identities():
    ok = True
    for m in range(7):
        for r in range(m + 1):
            ok &= theory.gaussian_binomial(m, r, 2) == count_subspaces_gf2(m, r)
    for m in range(11):
        for r in range(m + 1):
            ok &= (theory.gaussian_binomial(m, r, 2)
                   == inversion_generating_function(m, r, 2))
    assert _line("C03", ok, "subspace counts (m<=6) and inversion "
                            "generating function (m<=10) match exactly")


def test_c04_q_system_identity():
    residual = theory.verify_q_system(5)
    assert _line("C04", residual < 1e-6, f"max residual k=0..5: {residual:.2e}")


def test_c05_first_moments_at_1e6():
    t0 = time.perf_counter()
    n = 10 ** 6
    window_sum = theory.first_moment_window_sum(n, 1.0, "with")
    worst_ratio = 0.0
    for ell in range(1, 11):
        asym = (2 * ell) ** ell * math.exp(-2 * ell) / math.factorial(ell)
        ratio = theory.expected_num_deps(n, ell, "with") / asym
        worst_ratio = max(worst_ratio, abs(ratio - 1))
    elapsed = time.perf_counter() - t0
    ok = abs(window_sum - 1) <= 0.01 and worst_ratio <= 0.01
    assert _line("C05", ok, f"sum_J1={window_sum:.5f} worst |EX/asym - 1|="
                            f"{worst_ratio:.2e} in {elapsed:.2f}s")


def test_c06_monte_carlo_headline(campaign500, table_without):
    _, summary = campaign500
    fit = compare_to_theory(summary, table_without)
    checks = headline_checks(summary, fit, table_without)
    ok = (checks["corank0_within_3se"] and checks["tv_corank"]
          and checks["tv_joint"])
    assert _line("C06", ok,
                 f"p0={fit.corank0_emp:.4f} (theory {fit.corank0_theory:.4f}, "
                 f"3se={3*fit.corank0_se:.4f}) tv_corank={fit.tv_corank:.4f} "
                 f"tv_joint={fit.tv_joint:.4f}")


def test_c07_poisson_small_dependency_law(campaign500, table_without):
    _, summary = campaign500
    checks = headline_checks(summary, compare_to_theory(summary, table_without),
                             table_without)
    se = math.sqrt(summary.sigma_var / summary.trials)
    ok = checks["sigma_mean_within_3se"] and checks["dispersion_in_band"]
    assert _line("C07", ok,
                 f"mean={summary.sigma_mean:.5f} (phi={table_without.phi:.5f}, "
                 f"3se={3*se:.5f}) dispersion={summary.sigma_dispersion:.3f}")


def test_c08_gap_property(campaign500, campaign2000):
    _, s500 = campaign500
    _, s2000 = campaign2000
    total = s500.anomaly_total + s2000.anomaly_total
    ok = total == 0 and s500.guard_hits == 0 and s2000.guard_hits == 0
    assert _line("C08", ok,
                 f"anomalous weights: n=500 {s500.anomaly_total}, "
                 f"n=2000 {s2000.anomaly_total}")


def test_c09_structural_properties(campaign2000):
    ok = True
    for k in range(1, 9):
        u = build_U(k)
        kk = 2 ** k - 1
        ok &= bool(np.array_equal(u, u.T))
        ok &= bool((u.sum(axis=1) == 2 ** (k - 1)).all())
        s = u @ u
        expect = 2 ** (k - 2) * (np.eye(kk, dtype=np.int64) + np.ones((kk, kk), dtype=np.int64))
        if k >= 2:
            ok &= bool(np.array_equal(s, expect))
            # off-diagonal of U^2 doubles as the pairwise common-ones count
            ok &= bool((s - np.diag(np.diag(s)) ==
                        2 ** (k - 2) * (np.ones((kk, kk), dtype=np.int64)
                                        - np.eye(kk, dtype=np.int64))).all())
    _, s2000 = campaign2000
    ok &= s2000.intersection_flags_total == 0
    assert _line("C09", ok,
                 f"U properties exact for k<=8; intersection flags at n=2000: "
                 f"{s2000.intersection_flags_total} over {s2000.lam_pos_trials} "
                 f"lam>=1 trials")


def test_c10_cross_oracles(campaign500, campaign2000):
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(500):
        nr = int(rng.integers(1, 129))
        nc = int(rng.integers(1, 129))
        dense = rng.integers(0, 2, size=(nr, nc))
        rank, _ = gf2_rank_nullspace(BitMatrix.from_dense(dense))
        mismatches += rank != rank_mod2_dense(dense)
    audit, = special_case_audits(["r1s2"], n=200, trials=1000,
                                 master_seed=SEED, workers=WORKERS)
    _, s500 = campaign500
    _, s2000 = campaign2000
    equiv = s500.equiv_violations + s2000.equiv_violations
    ok = mismatches == 0 and audit.violations == 0 and equiv == 0
    assert _line("C10", ok,
                 f"rank vs naive mismatches: {mismatches}/500; "
                 f"s=2 corank vs components violations: {audit.violations}/1000; "
                 f"minimality vs connectivity mismatches: {equiv}")


def test_c11a_wide_block_special_cases():
    r2s2, r2s3 = special_case_audits(["r2s2", "r2s3"], n=500, trials=1000,
                                     master_seed=SEED, workers=WORKERS)
    ok = (r2s2.violations == 0 and r2s2.fraction >= 0.99
          and r2s3.fraction >= 0.99)
    assert _line("C11a", ok,
                 f"r2s2 corank=1 fraction {r2s2.fraction:.4f} "
                 f"(zero-corank violations {r2s2.violations}); "
                 f"r2s3 full-rank fraction {r2s3.fraction:.4f}")


def test_c11b_gf3_model1():
    audit, = special_case_audits(["gf3model1"], n=500, trials=1000,
                                 master_seed=SEED, workers=WORKERS)
    corank_ge1_ok = audit.violations == 0
    fraction_ok = audit.fraction >= 0.99
    assert _line("C11b", corank_ge1_ok and fraction_ok,
                 f"corank>=1 violations {audit.violations}/1000 (must be 0); "
                 f"corank=1 fraction {audit.fraction:.4f} vs stated 0.99 "
                 "threshold -- unattainable for this model: opposite-value "
                 "coefficient pairs add dependencies at constant rate "
                 "(module docstring has the analysis)")
