import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab.gfp import (
    PrimeFieldMatrix,
    _Lanes,
    gfp_rank,
    gfp_rank_nullspace,
    gfp_vecmat,
    is_prime,
)
from fflab.models import ModelConfig, sample_gft
from oracles import is_prime_trial_division, rank_modp_dense

CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921,
              126217, 162401, 172081, 188461, 252601, 278545, 294409,
              314821, 334153, 340561, 399001, 410041, 449065, 488881,
              512461, 9585921133193329, 3825123056546413051]
BIG_P = 4294967311  # the least prime above 2^32: p^2 overflows int64


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_lane_quotient_exhaustive_small_primes():
    # runs before the engine tests: wrong lane constants make elimination loop forever
    for p in (q for q in range(2, 200) if is_prime(q)):
        lanes = _Lanes(p, p * p)
        xs = np.arange(p * p)
        assert all((x * lanes.m) >> lanes.k == x // p for x in xs.tolist())
        # the same reduction on every x at once, one x per lane
        y = lanes.pack(xs.reshape(1, -1))[0]
        y -= (((y * lanes.m) >> lanes.k) & lanes.qmask) * p
        assert (lanes.unpack(y, p * p) == xs % p).all()


def test_identity_full_rank_gf3():
    for n in (1, 4, 17):
        m = PrimeFieldMatrix.identity(3, n)
        rank, basis = gfp_rank_nullspace(m)
        assert rank == n
        assert basis == []


def test_composite_modulus_rejected_at_construction():
    with pytest.raises(ValueError):
        PrimeFieldMatrix.zeros(6, 2, 2)
    with pytest.raises(ValueError):
        PrimeFieldMatrix.zeros(1, 2, 2)


def test_modulus_beyond_int64_rejected():
    with pytest.raises(ValueError, match="fit int64"):
        PrimeFieldMatrix.zeros(2**64 + 13, 2, 2)  # prime, but its residues overflow int64


def test_entries_out_of_range_rejected():
    bad = np.full((2, 2), 3, dtype=np.int64)
    with pytest.raises(ValueError):
        PrimeFieldMatrix(3, 2, 2, bad)


def test_rank_matches_naive_reference_gf5():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dense = rng.integers(0, 5, size=(32, 32))
        m = PrimeFieldMatrix.from_dense(dense, 5)
        rank, basis = gfp_rank_nullspace(m)
        assert rank == rank_modp_dense(dense, 5)
        assert rank == gfp_rank(m)
        assert rank + len(basis) == 32


@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 5, 7, 13, 101, BIG_P]),
       st.integers(1, 24), st.integers(1, 24), st.sampled_from([0.1, 0.5, 1.0]),
       st.integers(0, 3))
def test_nullspace_contract(seed, p, n_rows, n_cols, density, n_deps):
    """Sparse, dense, wide and tall matrices, some with planted dependencies."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, p, size=(n_rows, n_cols)).astype(object)
    dense[rng.random((n_rows, n_cols)) >= density] = 0
    for i in range(max(1, n_rows - n_deps), n_rows):
        dense[i] = (rng.integers(0, p, size=i).astype(object) @ dense[:i]) % p
    m = PrimeFieldMatrix.from_dense(dense.astype(np.int64), p)
    rank, basis = gfp_rank_nullspace(m)
    assert rank + len(basis) == n_rows
    assert rank == gfp_rank(m) == rank_modp_dense(dense, p)
    for x in basis:
        assert x.dtype == np.int64 and ((0 <= x) & (x < p)).all()
        assert not gfp_vecmat(x, m).any()
    if basis:
        stacked = np.stack(basis)
        assert rank_modp_dense(stacked, p) == len(basis)


def test_gf3_model1_all_ones_annihilates():
    cfg = ModelConfig(n=40, field="gfp", p=3, gft_model=1, master_seed=3)
    m = sample_gft(cfg, 0).matrix
    ones = np.ones(m.n_rows, dtype=np.int64)
    assert not gfp_vecmat(ones, m).any()  # every column sums to 3 = 0 mod 3
    rank, basis = gfp_rank_nullspace(m)
    assert m.n_rows - rank >= 1


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == \
        [n for n in range(10**5) if is_prime_trial_division(n)]
    assert not any(is_prime(n) for n in CARMICHAEL)
    assert is_prime(BIG_P) and is_prime(2**61 - 1)


def test_is_prime_fails_fast():
    t0 = time.perf_counter()
    assert is_prime(10**18 + 3)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    assert time.perf_counter() - t0 < 1.0
    # the least composite that passes every base up to 37: refused, not guessed
    with pytest.raises(ValueError):
        is_prime(399165290221 * 798330580441)


def test_large_prime_rank_and_nullspace_are_exact():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dense = rng.integers(0, BIG_P, size=(6, 6)).astype(object)
        dense[5] = (3 * dense[0] + 7 * dense[1]) % BIG_P
        m = PrimeFieldMatrix.from_dense(dense.astype(np.int64), BIG_P)
        assert rank_modp_dense(dense, BIG_P) == 5
        assert gfp_rank(m) == 5
        rank, basis = gfp_rank_nullspace(m)
        assert rank == 5 and len(basis) == 1
        for x in basis:
            assert x.dtype == np.int64
            assert not gfp_vecmat(x, m).any()


def test_vecmat_exact_for_large_prime():
    rng = np.random.default_rng(5)
    dense = rng.integers(0, BIG_P, size=(9, 4))
    m = PrimeFieldMatrix.from_dense(dense, BIG_P)
    x = rng.integers(0, BIG_P, size=9)
    exact = [sum(int(x[i]) * int(dense[i, j]) for i in range(9)) % BIG_P for j in range(4)]
    assert gfp_vecmat(x, m).tolist() == exact


@pytest.mark.parametrize("model,p", [(1, 3), (2, 5), (3, 7)])
def test_sampled_models_match_oracle(model, p):
    cfg = ModelConfig(n=200, field="gfp", p=p, gft_model=model, master_seed=21)
    m = sample_gft(cfg, 0).matrix
    rank, basis = gfp_rank_nullspace(m)
    assert gfp_rank(m) == rank == rank_modp_dense(m.entries, p)
    for x in basis:
        assert not gfp_vecmat(x, m).any()


def test_gf3_model1_exhaustive_corank_law_n5():
    """All 6^5 GF(3) Model 1 matrices at n=5: the README's C11b evidence."""
    n = 5
    choices = [list(itertools.combinations([r for r in range(n) if r != c], 2))
               for c in range(n)]
    coranks = []
    for pick in itertools.product(*choices):
        dense = np.eye(n, dtype=np.int64)
        for c, rows in enumerate(pick):
            dense[list(rows), c] = 1
        corank = n - gfp_rank(PrimeFieldMatrix(3, n, n, dense))
        assert corank == n - rank_modp_dense(dense, 3)
        coranks.append(corank)
    assert len(coranks) == 7776
    assert min(coranks) >= 1  # the all-ones vector annihilates every column
    assert Fraction(coranks.count(1), len(coranks)) == Fraction(1031, 1296)
