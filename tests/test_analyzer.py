import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab import analyzer
from fflab.analyzer import (
    WINDOW_A,
    GuardExceeded,
    analyze_matrix,
    build_U,
    classify,
    connected_functional_digraph,
    default_omega,
    enumerate_codewords,
    fundamental_small,
    greedy_large_basis,
    in_large_window,
    intersection_structure,
    is_simple_sequence,
    window_halfwidth,
)
from fflab.gf2 import BitMatrix, indices_to_bits
from fflab.models import ModelConfig, sample
from oracles import rank_mod2_dense


class TestEnumerate:
    def test_empty(self):
        assert enumerate_codewords(()) == []

    def test_single(self):
        v = 0b10110
        assert enumerate_codewords((v,)) == [(v, 3)]

    def test_d3_matches_direct_recombination(self):
        rng = np.random.default_rng(0)
        vecs = [int(rng.integers(1, 2**30)) for _ in range(3)]
        got = {c for c, _ in enumerate_codewords(tuple(vecs))}
        expect = set()
        for mask in range(1, 8):
            acc = 0
            for i in range(3):
                if (mask >> i) & 1:
                    acc ^= vecs[i]
            expect.add(acc)
        assert got == expect
        for c, w in enumerate_codewords(tuple(vecs)):
            assert w == c.bit_count()

    def test_guard_refuses(self):
        assert analyzer.GUARD == 20
        vecs = tuple(1 << i for i in range(21))
        with pytest.raises(GuardExceeded, match="dimension 21 exceeds guard 20") as e:
            enumerate_codewords(vecs)
        assert e.value.dimension == 21
        # the guard itself is admitted
        assert len(enumerate_codewords(vecs[:20])) == 2**20 - 1


class TestClassify:
    def test_no_anomalies_for_small_and_half_weights(self):
        n = 500
        # three codewords with weights 2, 250 and 252
        a1 = indices_to_bits(range(2))
        a2 = indices_to_bits(range(10, 260))
        a3 = a1 | a2
        rep = classify([(a1, 2), (a2, 250), (a3, 252)], n)
        assert (rep.omega, rep.to_json_dict()["window_a"]) == (39, 4.0)
        assert rep.anomalies == []
        assert rep.sigma == 1 and rep.lam == 1

    def test_quarter_weight_is_anomalous(self):
        n = 500
        c = indices_to_bits(range(125))
        rep = classify([(c, 125)], n)
        assert rep.anomalies == [125]
        assert rep.sigma + rep.lam == rep.d == 1

    def test_incomplete_list_rejected(self):
        with pytest.raises(ValueError):
            classify([(1, 1), (2, 1)], 10)

    def test_sigma_plus_lambda_is_d(self):
        rng = np.random.default_rng(3)
        n = 200
        for _ in range(20):
            vecs = [int.from_bytes(rng.bytes(n // 8), "little") | 1 for _ in range(4)]
            cws = enumerate_codewords(tuple(vecs))
            rep = classify(cws, n)
            assert rep.sigma + rep.lam == rep.d


class TestFundamental:
    def test_single_small_is_fundamental(self):
        a = indices_to_bits([0, 1, 2])
        assert fundamental_small([(a, 3)], omega=10) == [a]

    def test_union_not_fundamental(self):
        a = indices_to_bits([0, 1])
        b = indices_to_bits([5, 6])
        cws = [(a, 2), (b, 2), (a | b, 4)]
        assert set(fundamental_small(cws, omega=10)) == {a, b}

    def test_minimality_not_weight(self):
        # c strictly contains a but has larger weight; only a is fundamental
        a = indices_to_bits([0, 1])
        c = indices_to_bits([0, 1, 2, 3])
        assert fundamental_small([(a, 2), (c, 4), (a ^ c, 2)], omega=10) == [
            a, a ^ c]


class TestConnectivity:
    def _matrix_with_dup_rows(self, n, i, j):
        dense = np.eye(n, dtype=np.uint8)
        dense[j] = dense[i]
        return BitMatrix.from_dense(dense)

    def test_two_row_dependency_connected(self):
        # identical rows i and j: columns hit {i,j} twice -> one edge
        m = self._matrix_with_dup_rows(6, 0, 5)
        assert connected_functional_digraph(m, indices_to_bits([0, 5]))

    def test_disjoint_union_not_connected(self):
        dense = np.eye(8, dtype=np.uint8)
        dense[1] = dense[0]
        dense[3] = dense[2]
        m = BitMatrix.from_dense(dense)
        assert not connected_functional_digraph(m, indices_to_bits([0, 1, 2, 3]))
        assert connected_functional_digraph(m, indices_to_bits([0, 1]))

    def test_non_dependency_rejected(self):
        m = BitMatrix.identity(4)
        with pytest.raises(ValueError):
            connected_functional_digraph(m, 0b0011)

    def test_zero_row_is_connected(self):
        dense = np.eye(4, dtype=np.uint8)
        dense[2] = 0
        assert connected_functional_digraph(BitMatrix.from_dense(dense), 0b0100)

    def test_column_hitting_support_four_times_rejected(self):
        # four equal rows form a dependency, but each column hits it 4 times
        dense = np.zeros((4, 3), dtype=np.uint8)
        dense[:, 0] = 1
        with pytest.raises(ValueError):
            connected_functional_digraph(BitMatrix.from_dense(dense), 0b1111)

    def test_agrees_with_minimality_on_sampled_instances(self):
        for replacement in ("without", "with"):
            cfg = ModelConfig(n=120, replacement=replacement, master_seed=21)
            checked = 0
            for trial in range(300):
                m = sample(cfg, trial)
                rep = analyze_matrix(m)
                assert rep.equiv_violations == 0
                checked += sum(1 for w in rep.weights if w <= rep.omega)
            assert checked > 20  # the cross-check actually exercised smalls


class TestSimpleSequence:
    def test_single_large_vector(self):
        n = 500
        v = indices_to_bits(range(n // 2))
        assert is_simple_sequence([v], n, 1.0)

    def test_duplicate_vectors_fail(self):
        n = 500
        v = indices_to_bits(range(n // 2))
        assert not is_simple_sequence([v, v], n, 1.0)  # XOR weight 0

    def test_two_overlapping_halves(self):
        n = 400
        b1 = indices_to_bits(range(200))
        b2 = indices_to_bits(range(100, 300))
        assert is_simple_sequence([b1, b2], n, 1.0)


class TestIntersectionStructure:
    def test_single_half_set(self):
        n = 500
        b = indices_to_bits(range(n // 2))
        s = intersection_structure([b], n)
        assert s.sizes == (n // 2, n // 2)
        assert s.flagged == ()

    def test_sizes_partition_n(self):
        rng = np.random.default_rng(17)
        n = 300
        for _ in range(10):
            basis = [int.from_bytes(rng.bytes(n // 8 + 1), "little") & ((1 << n) - 1)
                     for _ in range(3)]
            s = intersection_structure(basis, n)
            assert sum(s.sizes) == n
            assert len(s.sizes) == 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            intersection_structure([], 100)


class TestBuildU:
    def test_k1(self):
        assert build_U(1).tolist() == [[1]]

    def test_k2_row_sums(self):
        u = build_U(2)
        assert u.shape == (3, 3)
        assert u.sum(axis=0).tolist() == [2, 2, 2]
        assert u.sum(axis=1).tolist() == [2, 2, 2]

    def test_k3_square_identity(self):
        u = build_U(3)
        k = 3
        s = u @ u
        j = np.ones_like(s)
        i = np.eye(s.shape[0], dtype=s.dtype)
        assert np.array_equal(s, 2 ** (k - 2) * (i + j))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_row_intersection_properties(self, k):
        u = build_U(k)
        kk = 2**k - 1
        assert np.array_equal(u, u.T)
        assert (u.sum(axis=1) == 2 ** (k - 1)).all()
        for a in range(min(kk, 8)):
            for b in range(a + 1, min(kk, 8)):
                assert int((u[a] & u[b]).sum()) == 2 ** (k - 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            build_U(0)
        with pytest.raises(ValueError):
            build_U(13)


class TestAnalyzeMatrix:
    def test_identity_plus_duplicate_row(self):
        n = 40
        dense = np.eye(n, dtype=np.uint8)
        dense[n - 1] = dense[0]
        rep = analyze_matrix(BitMatrix.from_dense(dense))
        assert rep.d == 1
        assert rep.sigma == 1
        assert rep.lam == 0
        assert rep.weights == [2]
        assert rep.anomalies == []
        assert rep.small_supports == [indices_to_bits([0, n - 1])]

    def test_greedy_large_basis_size_matches_lambda(self):
        cfg = ModelConfig(n=300, master_seed=41)
        for trial in range(100):
            rep = analyze_matrix(sample(cfg, trial))
            if not rep.anomalies:
                assert rep.large_basis_deficit == 0
                assert len(rep.large_basis) == rep.lam

    @given(st.integers(0, 2**31 - 1), st.integers(0, 4), st.integers(0, 12))
    def test_greedy_large_basis_matches_rank_oracle(self, seed, n_small, n_code):
        # a large codeword is picked iff it raises the rank of the smalls
        # plus the earlier picks; half the codewords are planted as XORs of
        # smalls and earlier codewords
        n = 16
        omega = default_omega(n)
        rng = np.random.default_rng(seed)
        smalls = [int(rng.integers(1, 1 << n)) for _ in range(n_small)]
        pool = list(smalls)
        codewords = []
        for _ in range(n_code):
            c = 0
            if pool and rng.random() < 0.5:
                for i in rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)),
                                    replace=False):
                    c ^= pool[i]
            else:
                c = int(rng.integers(0, 1 << n))
            if c:
                codewords.append((c, c.bit_count()))
                pool.append(c)

        def rank(vectors):
            dense = np.array([[(v >> i) & 1 for i in range(n)] for v in vectors],
                             dtype=np.int64).reshape(len(vectors), n)
            return rank_mod2_dense(dense)

        expect = []
        for c, w in codewords:
            if (w > omega and in_large_window(w, n, WINDOW_A)
                    and rank(smalls + expect + [c]) > rank(smalls + expect)):
                expect.append(c)
        assert greedy_large_basis(codewords, smalls, n) == expect

    def test_default_omega(self):
        assert default_omega(500) == math.ceil(math.log(500) ** 2)
        assert window_halfwidth(500, 4.0) == pytest.approx(
            math.sqrt(4 * 500 * math.log(500)))
