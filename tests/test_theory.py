import hashlib
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab import theory
from oracles import (
    count_subspaces_gf2,
    expected_deps_direct,
    expected_deps_enumerated,
    inversion_generating_function,
    mapping_connectivity_fraction,
)

# High-precision reference values, frozen from 60-digit evaluations of the
# defining series/products (independent summation, 400+ terms).
PHI_WITH = 0.521508718624404886
PHI_WITHOUT = 0.115132978664444978
PI0 = 0.288788095086602421
PI1 = 0.577576190173204843
PI2 = 0.128350264482934409
P00_WITHOUT = 0.257381702172753601
P00_WITH = 0.171431619254157100
# sha256 of json.dumps(build_table(model).to_json_dict(), sort_keys=True):
# every float of the default tables, pinned bit for bit.
TABLE_SHA256 = {
    "with": "b7f7337846914acd20e07a92d61725892bc6d8e44d4d17a42eab222155267066",
    "without": "84c876e3d6ea23ff9c95f6f662f14599affe63b69d32f4f02135c05363c5b267",
}


class TestSigmaKappa:
    def test_kappa_with_replacement_small_cases(self):
        assert theory.sigma_kappa(1, "with")[1] == Fraction(1)
        assert theory.sigma_kappa(2, "with")[1] == Fraction(3, 4)
        assert theory.sigma_kappa(3, "with")[1] == Fraction(17, 27)

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_kappa_with_matches_brute_force(self, s):
        assert theory.sigma_kappa(s, "with")[1] == mapping_connectivity_fraction(s, True)

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_kappa_without_matches_brute_force(self, s):
        assert theory.sigma_kappa(s, "without")[1] == mapping_connectivity_fraction(s, False)

    def test_domain(self):
        with pytest.raises(ValueError):
            theory.sigma_kappa(0, "with")
        with pytest.raises(ValueError):
            theory.sigma_kappa(1, "without")


class TestPhi:
    def test_headline_decimals(self):
        assert theory.phi("with") == pytest.approx(0.5215, abs=5e-4)
        assert theory.phi("without") == pytest.approx(0.1151, abs=5e-4)

    def test_frozen_high_precision(self):
        assert theory.phi("with", tol=1e-12) == pytest.approx(PHI_WITH, abs=1e-11)
        assert theory.phi("without", tol=1e-12) == pytest.approx(PHI_WITHOUT, abs=1e-11)

    def test_truncation_stability(self):
        # tightening the tolerance moves the value by less than the loose tol
        assert abs(theory.phi("with", 1e-6) - theory.phi("with", 1e-12)) < 1e-6

    def test_monotone_in_truncation_length(self):
        # all terms are positive, so a longer tail only increases the sum
        assert theory.phi("with", 1e-12) >= theory.phi("with", 1e-4)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            theory.phi("sometimes")
        with pytest.raises(ValueError):
            theory.phi("with", tol=0)


class TestPi:
    def test_headline_decimal(self):
        assert theory.pi_k(0) == pytest.approx(0.2888, abs=5e-4)

    def test_frozen_values(self):
        assert theory.pi_k(0) == pytest.approx(PI0, abs=1e-12)
        assert theory.pi_k(1) == pytest.approx(PI1, abs=1e-12)
        assert theory.pi_k(2) == pytest.approx(PI2, abs=1e-12)

    def test_normalisation(self):
        assert sum(theory.pi_k(k) for k in range(11)) == pytest.approx(1, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            theory.pi_k(-1)


class TestGaussianBinomial:
    def test_base_cases(self):
        assert theory.gaussian_binomial(5, 0, 2) == 1
        assert theory.gaussian_binomial(2, 1, 2) == 3
        assert theory.gaussian_binomial(4, 2, 2) == 35

    def test_subspace_count_brute_force(self):
        for m in range(0, 7):
            for r in range(0, m + 1):
                assert theory.gaussian_binomial(m, r, 2) == count_subspaces_gf2(m, r)

    def test_inversion_generating_function(self):
        for m in range(0, 9):
            for r in range(0, m + 1):
                for q in (2, 3):
                    assert (theory.gaussian_binomial(m, r, q)
                            == inversion_generating_function(m, r, q))

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_symmetry(self, m, r):
        if r <= m:
            assert (theory.gaussian_binomial(m, r, 2)
                    == theory.gaussian_binomial(m, m - r, 2))

    def test_domain(self):
        with pytest.raises(ValueError):
            theory.gaussian_binomial(3, 4, 2)
        with pytest.raises(ValueError):
            theory.gaussian_binomial(3, -1, 2)
        for q in (1, 0, -1):
            with pytest.raises(ValueError, match="q >= 2"):
                theory.gaussian_binomial(3, 1, q)


class TestPStar:
    def test_single_small_dependency_cases(self):
        # m=1: P*(j,j;1) = 2^-j and P*(j,j+1;1) = 1 - 2^-(j+1)
        for j in range(6):
            assert theory.p_star(j, 0, 1) == pytest.approx(0.5 ** j, abs=1e-15)
            assert theory.p_star(j, 1, 1) == pytest.approx(1 - 0.5 ** (j + 1), abs=1e-15)

    def test_r_zero_powers(self):
        for h in range(4):
            for m in range(4):
                assert theory.p_star(h, 0, m) == pytest.approx(0.5 ** (h * m), abs=1e-15)

    def test_survival_distribution(self):
        for m in range(0, 9):
            for k in range(0, 9):
                total = sum(theory.p_star(k - r, r, m) for r in range(min(m, k) + 1))
                assert total == pytest.approx(1, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            theory.p_star(0, 2, 1)
        with pytest.raises(ValueError):
            theory.p_star(-1, 0, 1)


class TestJointAndCorank:
    def test_p00_is_exp_phi_times_pi0(self):
        ph = theory.phi("without", 1e-12)
        assert theory.p_joint(0, 0, ph) == pytest.approx(math.exp(-ph) * theory.pi_k(0),
                                                         abs=1e-12)

    def test_full_rank_constants(self):
        ph_wo = theory.phi("without", 1e-12)
        ph_w = theory.phi("with", 1e-12)
        assert theory.p_joint(0, 0, ph_wo) == pytest.approx(0.2574, abs=5e-4)
        assert theory.p_joint(0, 0, ph_wo) == pytest.approx(P00_WITHOUT, abs=1e-10)
        assert theory.p_joint(0, 0, ph_w) == pytest.approx(P00_WITH, abs=1e-10)

    def test_corank_distribution(self):
        dist = theory.build_table("without").corank
        assert dist[0] == pytest.approx(0.2574, abs=5e-4)
        assert all(v >= 0 for v in dist)
        assert sum(dist) == pytest.approx(1, abs=1e-9)

    def test_joint_grid_normalisation(self):
        ph = theory.phi("without", 1e-12)
        total = sum(theory.p_joint(s, l, ph) for s in range(13) for l in range(13))
        assert total == pytest.approx(1, abs=1e-9)

    def test_sigma_marginal_is_poisson(self):
        # summing the joint law over lambda recovers Poisson(phi) exactly
        ph = theory.phi("without", 1e-12)
        for s in range(5):
            marginal = sum(theory.p_joint(s, l, ph) for l in range(14))
            poisson = math.exp(-ph) * ph ** s / math.factorial(s)
            assert marginal == pytest.approx(poisson, abs=1e-10)

    def test_domain(self):
        for sigma, lam in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="sigma, lambda"):
                theory.p_joint(sigma, lam, 0.1)
        for bad in (-0.5, -1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="phi"):
                theory.p_joint(1, 0, bad)
        assert theory.p_joint(0, 0, 0.0) == theory.pi_k(0)


class TestQSystem:
    def test_k0_is_pi_normalisation(self):
        assert theory.verify_q_system(0) < 1e-9

    def test_residuals_small(self):
        assert theory.verify_q_system(5) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            theory.verify_q_system(9)


class TestExpectedDeps:
    def test_full_set_is_zero_with_replacement(self):
        assert theory.expected_num_deps(100, 100, "with") == 0.0

    def test_singletons_vanish_without_replacement(self):
        assert theory.expected_num_deps(100, 1, "without") == 0.0

    @pytest.mark.parametrize("model", ["with", "without"])
    def test_log_space_matches_direct_at_small_n(self, model):
        for n in (10, 30, 50):
            for ell in range(1, n + 1):
                direct = expected_deps_direct(n, ell, model)
                got = theory.expected_num_deps(n, ell, model)
                if direct == 0:
                    assert got == 0
                else:
                    assert got == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("model", ["with", "without"])
    def test_matches_enumerated_draws(self, model):
        # the closed form against every column's draws, over every row set
        for n in range(3, 9):
            for ell in range(1, n + 1):
                exact = expected_deps_enumerated(n, ell, model)
                got = theory.expected_num_deps(n, ell, model)
                if exact == 0:
                    assert got == 0, (n, ell)
                else:
                    assert got == pytest.approx(float(exact), rel=1e-12), (n, ell)

    def test_window_sum_near_one_at_moderate_n(self):
        assert theory.first_moment_window_sum(10**5, 1.0, "with") == pytest.approx(1, abs=0.01)

    def test_small_ell_asymptotic_with_replacement(self):
        n = 10**6
        assert theory.expected_num_deps(n, 1, "with") == pytest.approx(2 * math.exp(-2),
                                                                       rel=1e-4)


class TestTable:
    def test_build_and_invariants(self):
        table = theory.build_table("without")
        assert table.full_rank_probability == pytest.approx(P00_WITHOUT, abs=1e-9)
        assert all(0 <= v <= 1 for v in table.pi)
        assert all(0 <= v <= 1 for v in table.corank)
        assert all(0 <= v <= 1 for v in table.joint.values())
        d = table.to_json_dict()
        assert d["model"] == "without"
        assert len(d["corank"]) == 13
        assert len(d["joint"]) == 13 * 13

    @pytest.mark.parametrize("model", ["with", "without"])
    def test_default_tables_exact(self, model):
        text = json.dumps(theory.build_table(model).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[model]

    @pytest.mark.parametrize("call", [lambda: theory.build_table(tol=0),
                                      lambda: theory.build_table("with", tol=-1),
                                      lambda: theory.build_table(tol=math.nan),
                                      lambda: theory.build_table("with", tol=math.inf),
                                      lambda: theory.build_table(tol=1),
                                      lambda: theory.phi("with", math.nan),
                                      lambda: theory.phi("without", 1e300)])
    def test_nonpositive_tol_fails_fast(self, call):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="tol"):
            call()
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("size, call", [
        pytest.param("k_max", lambda: theory.verify_q_system(-1), id="q_system-k_max")])
    def test_negative_sizes_rejected(self, size, call):
        with pytest.raises(ValueError, match=size):
            call()
