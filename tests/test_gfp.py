import hashlib
import itertools
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fflab.gfp
from fflab.gf2 import PACK_BLOCK, BitMatrix, _pack, _peel
from fflab.gfp import (
    PrimeFieldMatrix,
    _eliminate,
    _eliminate_planes,
    _Lanes,
    gfp_rank,
    gfp_rank_nullspace,
    is_prime,
)
from fflab.models import ModelConfig, sample
from oracles import (
    gfp_vecmat,
    is_prime_trial_division,
    left_nullspace_canonical_modp_dense,
    rank_modp_dense,
)

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
        y = int.from_bytes(xs.astype(lanes.dtype).tobytes(), "little")
        y -= (((y * lanes.m) >> lanes.k) & lanes.qmask) * p
        assert (lanes.unpack(y) == xs % p).all()


def lane_built_columns(n_vectors, index, lane, vals, w):
    """The lane ints built entry by entry: vals[k] in lane lane[k] of
    int index[k]."""
    out = [0] * n_vectors
    for i, shift, v in zip(index.tolist(), (lane * w).tolist(), vals.tolist()):
        out[i] |= v << shift
    return out


@pytest.mark.parametrize("p", [3, 5, 199, BIG_P])
def test_pack_with_values_equals_the_entrywise_lane_build(p):
    # more than PACK_BLOCK columns of 3 entries, fed in ascending order
    # of their lowest label, ties by index, as the engine feeds them
    rng = np.random.default_rng(p)
    n_rows, n_cols = 300, 2 * PACK_BLOCK + 5
    m = PrimeFieldMatrix(p, n_rows, n_cols, np.argsort(rng.random((n_cols, n_rows)))[:, :3],
                         np.arange(n_cols)[:, None], rng.integers(1, p, size=(n_cols, 3)))
    rows, cols, vals = m.nonzero()
    lab = rng.permutation(n_rows)[rows]
    low = {}
    for c, l in zip(cols.tolist(), lab.tolist()):
        low[c] = min(low.get(c, l), l)
    fed = sorted(low, key=lambda c: (low[c], c))
    assert fed != sorted(fed)
    position = dict(zip(fed, range(n_cols)))
    index = np.array([position[c] for c in cols.tolist()])
    k = np.argsort(index, kind="stable")
    w = _Lanes(p, n_rows).w
    assert list(_pack(cols[k], lab[k] * w, vals[k])) == lane_built_columns(n_cols, index, lab,
                                                                            vals, w)


def test_three_column_blocks_change_no_basis(monkeypatch):
    ms = [sample(ModelConfig(n=60, p=p, gft_model=model, master_seed=60), t)
          for model, p in ((1, 3), (2, 5), (3, 7)) for t in range(3)]
    unpatched = [gfp_rank_nullspace(m) for m in ms]
    monkeypatch.setattr("fflab.gf2.PACK_BLOCK", 3)
    for m, (rank, basis) in zip(ms, unpatched):
        deps, vectors = left_nullspace_canonical_modp_dense(m.entries, m.p)
        assert rank == m.n_rows - len(deps)
        got_rank, got = gfp_rank_nullspace(m)
        assert got_rank == rank
        assert [x.tolist() for x in got] == [x.tolist() for x in basis] == vectors


def test_identity_full_rank_gf3():
    for n in (1, 4, 17):
        m = PrimeFieldMatrix.identity(3, n)
        rank, basis = gfp_rank_nullspace(m)
        assert rank == n
        assert basis == []


def test_composite_modulus_rejected_at_construction():
    with pytest.raises(ValueError):
        PrimeFieldMatrix(6, 2, 2, [], [], [])
    with pytest.raises(ValueError):
        PrimeFieldMatrix(1, 2, 2, [], [], [])


def test_modulus_beyond_int64_rejected():
    # prime, but its residues overflow int64
    with pytest.raises(ValueError, match="fit int64"):
        PrimeFieldMatrix(2**64 + 13, 2, 2, [], [], [])


def test_from_dense_checks_before_it_reduces():
    dense = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError, match="fit int64"):
        PrimeFieldMatrix.from_dense(dense, 2**64 + 13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero warning from % 0
        with pytest.raises(ValueError, match="not prime"):
            PrimeFieldMatrix.from_dense(dense, 0)
    for bad in (np.ones(3), np.full(3, 0.5), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="2-d"):
            PrimeFieldMatrix.from_dense(bad, 3)
    # values are read as integers, never truncated or wrapped
    for bad in ([[0.5, 2.7]], [[np.nan, 1.0]], [[2.0**63, 1.0]], [[2**64, 1]]):
        for read in (lambda a: PrimeFieldMatrix.from_dense(a, 3), BitMatrix.from_dense):
            with pytest.raises(ValueError, match="integers"):
                read(bad)


def test_entries_out_of_range_rejected():
    for bad in (3, -1):
        with pytest.raises(ValueError, match="residues"):
            PrimeFieldMatrix(3, 2, 2, [0, 1], [1, 0], [1, bad])


def test_rank_matches_naive_reference_gf5():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dense = rng.integers(0, 5, size=(32, 32))
        m = PrimeFieldMatrix.from_dense(dense, 5)
        rank, basis = gfp_rank_nullspace(m)
        assert rank == rank_modp_dense(dense, 5)
        assert rank == gfp_rank(m)
        assert rank + len(basis) == 32


# sparse, dense, wide and tall matrices, some with planted dependencies
planted_matrices = given(
    st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 5, 7, 13, 101, BIG_P]),
    st.integers(1, 24), st.integers(1, 24), st.sampled_from([0.1, 0.5, 1.0]),
    st.integers(0, 3))


def planted_dense(seed, p, n_rows, n_cols, density, n_deps):
    """A residue matrix (object dtype) whose last n_deps rows are random
    combinations of the rows above them."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, p, size=(n_rows, n_cols)).astype(object)
    dense[rng.random((n_rows, n_cols)) >= density] = 0
    for i in range(max(1, n_rows - n_deps), n_rows):
        dense[i] = (rng.integers(0, p, size=i).astype(object) @ dense[:i]) % p
    return dense


@planted_matrices
def test_nullspace_contract(seed, p, n_rows, n_cols, density, n_deps):
    dense = planted_dense(seed, p, n_rows, n_cols, density, n_deps)
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


@planted_matrices
def test_basis_equals_canonical_oracle(seed, p, n_rows, n_cols, density, n_deps):
    """The basis is the canonical one, order included: for each row i in
    the span of the rows below it (rows < i), coefficient 1 at i and 0
    at every other such row."""
    dense = planted_dense(seed, p, n_rows, n_cols, density, n_deps)
    deps, vectors = left_nullspace_canonical_modp_dense(dense, p)
    rank, basis = gfp_rank_nullspace(PrimeFieldMatrix.from_dense(dense.astype(np.int64), p))
    assert rank == n_rows - len(deps)
    assert [x.tolist() for x in basis] == vectors


def test_sampled_bases_pinned():
    # every basis vector of 180 sampled matrices, as the row-form engine
    # (transform carried in identity lanes below each row) gave them
    h = hashlib.sha256()
    for n in (200, 500):
        for model, p in ((1, 3), (2, 5), (3, 7)):
            cfg = ModelConfig(n=n, p=p, gft_model=model, master_seed=20260809)
            for trial in range(30):
                rank, basis = gfp_rank_nullspace(sample(cfg, trial))
                vectors = " ".join(",".join(map(str, x.tolist())) for x in basis)
                h.update(f"{cfg.tag()} {trial} {rank} {vectors}\n".encode())
    assert h.hexdigest() == "12da82b74b422b89c61ea3d4f0f95e0964bd60a5d4a9227e1b9f1b432a19d176"


def test_sampled_gf3_model23_bases_pinned():
    # GF(3) Models 2 and 3 put values of 2 in the matrix, which Model 1
    # never does; pinned as the lane engine gave them
    h = hashlib.sha256()
    for n in (200, 500):
        for model in (2, 3):
            cfg = ModelConfig(n=n, p=3, gft_model=model, master_seed=20260809)
            for trial in range(30):
                rank, basis = gfp_rank_nullspace(sample(cfg, trial))
                vectors = " ".join(",".join(map(str, x.tolist())) for x in basis)
                h.update(f"{cfg.tag()} {trial} {rank} {vectors}\n".encode())
    assert h.hexdigest() == "7786dfb9d56e92cad1fca96a656166ea9bebab35908ffaa2c8dfd1800428e23f"


def test_from_entries():
    dense = np.array([[0, 4], [2, 0], [1, 3]])
    rows, cols = np.nonzero(dense)
    m = PrimeFieldMatrix(5, 3, 2, rows[::-1], cols[::-1], dense[rows, cols][::-1])
    assert m == PrimeFieldMatrix.from_dense(dense, 5)
    assert m == PrimeFieldMatrix.from_dense(dense + 5 * np.array([[2, -1], [1, 0], [-3, 7]]), 5)
    assert np.array_equal(m.entries, dense)
    # both from_dense read mod the field: even values are zero over GF(2)
    even = np.array([[2, 0], [0, 4]])
    assert PrimeFieldMatrix.from_dense(even, 2) == PrimeFieldMatrix(2, 2, 2, [], [], [])
    assert BitMatrix.from_dense(even) == BitMatrix(2, 2, [], [])
    # index and value arrays broadcast; zero values are dropped, and the
    # entries are kept column-major
    m = PrimeFieldMatrix(5, 3, 2, [[0], [2]], [0, 1], [[0, 4], [1, 3]])
    assert m.entries.tolist() == [[0, 4], [0, 0], [1, 3]]
    assert list(zip(*(a.tolist() for a in m.nonzero()))) == [(2, 0, 1), (0, 1, 4), (2, 1, 3)]
    for bad in (([0, 0], [1, 1], [1, 2]),  # a position given twice
                ([3], [0], [1]), ([-1], [0], [1]), ([0], [2], [1]),  # out of range
                ([0], [0], [5]), ([0], [0], [-1]),  # not a residue
                # broadcast: a row out of range in a (k, 3) array with (k, 1)
                # columns, a column out of range in the (k, 1) array, and
                # shapes that do not broadcast
                ([[0, 1, 2], [0, 3, 1]], [[0], [1]], 1), ([[0, 1, 2], [0, 2, 1]], [[0], [2]], 1),
                ([[0, 1, 2], [0, 2, 1]], [0, 1], 1)):
        with pytest.raises(ValueError):
            PrimeFieldMatrix(5, 3, 2, *bad)


def test_unchecked_entry_list_cannot_be_stored():
    entries = (np.array([1, 0, 5]), np.array([0, 0, 1]), np.array([1, 1, 1]))
    with pytest.raises(TypeError):
        PrimeFieldMatrix(3, 2, 2, entries)
    with pytest.raises(ValueError, match="out of range"):
        PrimeFieldMatrix(3, 2, 2, *entries)


def test_rank_allocates_no_dense_lane_buffer():
    m = sample(ModelConfig(n=2000, p=3, gft_model=1, master_seed=2000), 0)
    tracemalloc.start()
    try:
        gfp_rank(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # an n x n byte-lane buffer and its bytes copy alone are 8 MB


def test_gf3_rank_memory_stays_on_the_planes():
    # n-bit planes, not 8n-bit lanes: the pivots, and the packer's
    # shifted entries, are 8x smaller.  Measured at 0.81 MiB, against
    # 3.19 MiB when GF(3) ran on lanes.
    m = sample(ModelConfig(n=2000, p=3, gft_model=1, master_seed=2000), 0)
    tracemalloc.start()
    try:
        gfp_rank(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_gf3_back_substitution_stays_on_the_planes():
    # x walks the core pivots as two planes, read by popcount, with no
    # {label: value} run built per pivot.  Measured at 3.75 MiB, against
    # 11.41 MiB with the runs.
    m = sample(ModelConfig(n=5000, p=3, gft_model=1, master_seed=5000), 0)
    tracemalloc.start()
    try:
        gfp_rank_nullspace(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_canonical_pass_is_linear_in_its_hits():
    # one column, set in row 0 alone: every other row is a unit null vector,
    # and a pass over all pairs of them took seconds
    n = 4000
    t0 = time.perf_counter()
    rank, basis = gfp_rank_nullspace(PrimeFieldMatrix(3, n, 1, [0], [0], [1]))
    assert time.perf_counter() - t0 < 2.0
    assert rank == 1 and len(basis) == n - 1
    assert all(np.flatnonzero(x).tolist() == [i] and x[i] == 1
               for i, x in enumerate(basis, start=1))


def test_back_substitution_is_bounded_by_the_support():
    # one column, set in every row: one pivot whose run spans all 3999
    # other rows, and each null vector has two nonzero coefficients
    n = 4000
    t0 = time.perf_counter()
    rank, basis = gfp_rank_nullspace(PrimeFieldMatrix(3, n, 1, list(range(n)), [0] * n,
                                                      [1] * n))
    assert time.perf_counter() - t0 < 0.5
    assert rank == 1 and len(basis) == n - 1
    assert all(np.flatnonzero(x).tolist() == [0, i] and x[i] == 1 and x[0] == 2
               for i, x in enumerate(basis, start=1))


def test_full_rank_stops_drawing_columns(count_packed):
    # no row has a single entry, so nothing is peeled, and every column
    # meets row 0, so the columns are fed in index order: the Vandermonde
    # columns (j + 1)^i mod 7 for j < 6 reach full rank, and the 20
    # columns of nonzero residues after them are never packed
    n, p = 6, 7
    vandermonde = np.arange(1, n + 1)[None, :] ** np.arange(n)[:, None] % p
    dense = np.hstack([vandermonde, np.random.default_rng(7).integers(1, p, size=(n, 20))])
    m = PrimeFieldMatrix.from_dense(dense, p)
    drawn = count_packed(fflab.gfp)
    assert gfp_rank(m) == n
    assert len(drawn) == n
    drawn.clear()
    assert gfp_rank_nullspace(m) == (n, [])
    assert len(drawn) == n


def test_full_rank_stops_drawing_columns_gf3(count_packed):
    # the GF(3) twin, on the planes: an upper triangular block with a
    # nonzero diagonal and row 0 set in every column reaches full rank,
    # and the 20 columns of nonzero residues after it are never packed
    n, p = 6, 3
    rng = np.random.default_rng(3)
    triangle = np.triu(rng.integers(1, p, size=(n, n)))
    dense = np.hstack([triangle, rng.integers(1, p, size=(n, 20))])
    assert (dense == 2).any()
    m = PrimeFieldMatrix.from_dense(dense, p)
    drawn = count_packed(fflab.gfp)
    assert gfp_rank(m) == n
    assert len(drawn) == n
    drawn.clear()
    assert gfp_rank_nullspace(m) == (n, [])
    assert len(drawn) == n


def test_eliminate_fills_the_list_at_the_leads_with_monic_pivots():
    lanes = _Lanes(5, 5)

    def vector(*residues):
        return sum(c << lane * lanes.w for lane, c in enumerate(residues))

    # the third vector is 2 * the first + the second, so it cancels
    pivots, rank = _eliminate([vector(1, 2, 0, 3), vector(4, 1, 2), vector(1, 0, 2, 1),
                               vector(0, 3)], lanes)
    assert rank == 3
    assert [lanes.unpack(v).tolist() if v else 0 for v in pivots] == [
        0, [0, 1, 0, 0, 0], [2, 3, 1, 0, 0], [2, 4, 0, 1, 0], 0]
    assert all(v >> lead * lanes.w == 1 for lead, v in enumerate(pivots) if v)


def plane_residues(pivot, n):
    """The residues of an (a, b) plane pair at labels 0..n-1."""
    a, b = pivot
    return [(a >> l & 1) + 2 * (b >> l & 1) for l in range(n)]


def plane_vector(residues):
    """The packed int of a residue list: plane a below n bits, plane b above."""
    n = len(residues)
    return sum((1 << l if c == 1 else 1 << n + l) for l, c in enumerate(residues) if c)


def reference_eliminate_mod3(vectors, n):
    """The pivots of _eliminate_planes, as residue lists, by % 3 on lists."""
    pivots = {}
    for v in vectors:
        v = list(v)
        while any(v):
            lead = max(l for l in range(n) if v[l])
            if lead not in pivots:
                pivots[lead] = [c * v[lead] % 3 for c in v]  # v[lead] is its own inverse
                break
            f = v[lead]
            v = [(c - f * h) % 3 for c, h in zip(v, pivots[lead])]
    return pivots


def test_planes_add_subtract_and_store_monic_against_mod3():
    # all 9 residue pairs (u, v) in 9 labels of one plane pair, spread
    # across 30-bit digits and including the top label n - 1, each pair
    # rotated through every label: u is fed first and becomes a pivot;
    # v is reduced by it where their leads meet (a subtraction when v
    # leads with 1, an addition when it leads with 2) and is stored monic
    n = 70
    labels = [0, 1, 29, 30, 31, 59, 60, 68, n - 1]
    pairs = list(itertools.product(range(3), repeat=2))
    met = set()
    for shift in range(9):
        for scale in (1, 2):
            u, v = [0] * n, [0] * n
            for l, (x, y) in zip(labels, pairs[shift:] + pairs[:shift]):
                u[l], v[l] = x, scale * y % 3
            pivots, rank = _eliminate_planes([plane_vector(u), plane_vector(v)], n)
            expected = reference_eliminate_mod3([u, v], n)
            assert rank == len(expected)
            assert {q: plane_residues(h, n) for q, h in enumerate(pivots) if h} == expected
            assert all(h[0] >> q == 1 for q, h in enumerate(pivots) if h)  # monic, in plane a
            met.add((u[n - 1], v[n - 1]))
    assert met == set(pairs)


@pytest.mark.parametrize("n", [5, 60, 500])
@pytest.mark.parametrize("model", [1, 2, 3])
def test_planes_equal_the_lane_engine_on_the_same_feed(model, n):
    # every column in index order, row i on label i, nothing peeled: the
    # lane engine on _Lanes(3, n) and the planes build the same monic pivots
    lanes = _Lanes(3, n)
    for trial in range(3):
        m = sample(ModelConfig(n=n, p=3, gft_model=model, master_seed=n), trial)
        rows, cols, vals = m.nonzero()
        lane_pivots, lane_rank = _eliminate(_pack(cols, rows * lanes.w, vals), lanes)
        pivots, rank = _eliminate_planes(_pack(cols, rows + n * (vals == 2)), n)
        assert rank == lane_rank
        if trial == 0:  # the dense oracle takes ~1 s at n = 500
            assert rank == rank_modp_dense(m.entries, 3)
        assert [plane_residues(h, n) if h else 0 for h in pivots] == [
            lanes.unpack(v).tolist() if v else 0 for v in lane_pivots]


def test_back_substitution_walks_only_the_pivots_above():
    # 3333 blocks of 3 rows and 3 columns, every entry nonzero, so every
    # row has degree 3 and keeps its label.  The first 3033 blocks are
    # invertible and lead 9099 pivots.  Each of the last 300 has the
    # columns (1, 1, 1), (1, 2, 2) and their span's (2, 2, 2): pivots
    # at its lowest and top labels and a free label between them, so the
    # free labels interleave with the leads; its null vector is (0, 2, 1).
    # Measured at 0.22-0.29 s on a 2-core host, and at 1.9-3.0 s when each
    # free label walked every pivot, below it too.
    full, k = 3033, 300
    n = 3 * (full + k)
    b = np.arange(full + k)[:, None, None]
    vals = np.where(b < full, [[1, 1, 1], [1, 2, 2], [1, 2, 1]],  # column c of a block is vals[c]
                    [[1, 1, 1], [1, 2, 2], [2, 2, 2]])
    m = PrimeFieldMatrix(3, n, n, 3 * b + np.arange(3), 3 * b + np.arange(3)[:, None], vals)
    t0 = time.perf_counter()
    rank, basis = gfp_rank_nullspace(m)
    assert time.perf_counter() - t0 < 1.0
    assert rank == n - k
    assert [(np.flatnonzero(x).tolist(), x[np.flatnonzero(x)].tolist()) for x in basis] == [
        ([a + 1, a + 2], [2, 1]) for a in range(3 * full, n, 3)]


def test_back_substitution_visits_only_the_peeled_columns_it_meets():
    # n/2 single-entry columns, one on each of the first n/2 rows: every
    # column is peeled, and the last n/2 rows are free and meet none of
    # them.  Measured at 0.03-0.08 s on a 2-core host, and at 2.4-4.0 s
    # when each free label walked every peeled column.
    n = 4000
    m = PrimeFieldMatrix(3, n, n // 2, np.arange(n // 2), np.arange(n // 2), 1)
    t0 = time.perf_counter()
    rank, basis = gfp_rank_nullspace(m)
    assert time.perf_counter() - t0 < 0.5
    assert rank == n // 2 and len(basis) == n - n // 2
    assert all(np.flatnonzero(x).tolist() == [i] and x[i] == 1
               for i, x in enumerate(basis, start=n // 2))


@pytest.mark.parametrize("p", [3, 5])
def test_leaf_heavy_bases_equal_canonical_oracle(p):
    # fewer columns than rows, each with 1-3 nonzero entries, so most rows
    # are leaves or become leaves as the peel goes on
    rng = np.random.default_rng(p)
    peeled = total = 0
    for _ in range(40):
        n_rows = int(rng.integers(8, 40))
        n_cols = int(rng.integers(n_rows // 2, n_rows))
        dense = np.zeros((n_rows, n_cols), dtype=np.int64)
        for c in range(n_cols):
            picked = rng.choice(n_rows, size=int(rng.integers(1, 4)), replace=False)
            dense[picked, c] = rng.integers(1, p, size=picked.size)
        m = PrimeFieldMatrix.from_dense(dense, p)
        peeled += _peel(*m.nonzero()[:2], n_rows).size
        total += n_cols
        deps, vectors = left_nullspace_canonical_modp_dense(dense, p)
        rank, basis = gfp_rank_nullspace(m)
        assert rank == n_rows - len(deps)
        assert [x.tolist() for x in basis] == vectors
    assert 2 * peeled > total


def test_gf3_model1_all_ones_annihilates():
    cfg = ModelConfig(n=40, p=3, gft_model=1, master_seed=3)
    m = sample(cfg, 0)
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


@pytest.mark.parametrize("model,p", [(1, 3), (2, 5), (3, 7), (2, 3), (3, 3)])
def test_sampled_models_match_oracle(model, p):
    cfg = ModelConfig(n=200, p=p, gft_model=model, master_seed=21)
    m = sample(cfg, 0)
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
        corank = n - gfp_rank(PrimeFieldMatrix.from_dense(dense, 3))
        assert corank == n - rank_modp_dense(dense, 3)
        coranks.append(corank)
    assert len(coranks) == 7776
    assert min(coranks) >= 1  # the all-ones vector annihilates every column
    assert Fraction(coranks.count(1), len(coranks)) == Fraction(1031, 1296)


def nonunit(rng, p, size):
    """Residues in [2, p), so that dividing by a leaf's value is exercised."""
    return rng.integers(2, p, size=size)


def assert_peel_matches_oracle(dense, p):
    """gfp_rank and gfp_rank_nullspace against the dense oracle, basis
    order included; returns the number of columns the peel removes."""
    deps, vectors = left_nullspace_canonical_modp_dense(dense, p)
    m = PrimeFieldMatrix.from_dense(dense, p)
    rank, basis = gfp_rank_nullspace(m)
    assert rank == gfp_rank(m) == m.n_rows - len(deps)
    assert [x.tolist() for x in basis] == vectors
    rows, cols, _ = m.nonzero()
    return _peel(rows, cols, m.n_rows).size


def forest(rng, p, n_cols, n_roots=3):
    """Column c holds row n_roots + c, which no earlier column holds,
    and one or two of the rows before it, so the last column always
    holds a leaf."""
    dense = np.zeros((n_roots + n_cols, n_cols), dtype=np.int64)
    for c in range(n_cols):
        others = rng.choice(n_roots + c, size=min(n_roots + c, int(rng.integers(1, 3))),
                            replace=False)
        dense[[n_roots + c, *others], c] = nonunit(rng, p, 1 + len(others))
    return dense


def shuffled(rng, dense):
    return dense[rng.permutation(dense.shape[0])][:, rng.permutation(dense.shape[1])]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_peel_of_a_forest_leaves_nothing(p):
    rng = np.random.default_rng(p)
    for n_cols in (1, 2, 5, 12):
        dense = shuffled(rng, forest(rng, p, n_cols))
        assert assert_peel_matches_oracle(dense, p) == n_cols


@pytest.mark.parametrize("p", [3, 5, 7])
def test_peel_of_a_column_set_in_every_row(p):
    # every row is a leaf of the one column: one is peeled, the rest are isolated
    rng = np.random.default_rng(p)
    for n in (1, 2, 9):
        assert assert_peel_matches_oracle(nonunit(rng, p, (n, 1)), p) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_peel_leaves_isolated_rows(p):
    # a 3-cycle on rows 0-2 is the core; column 3 holds row 0 and two
    # leaves, rows 3 and 4, of which one is peeled and one left
    # isolated; row 5 is empty
    rng = np.random.default_rng(p)
    for _ in range(5):
        dense = np.zeros((6, 4), dtype=np.int64)
        for c, rows in enumerate(([0, 1], [1, 2], [0, 2], [0, 3, 4])):
            dense[rows, c] = nonunit(rng, p, len(rows))
        assert assert_peel_matches_oracle(dense[rng.permutation(6)], p) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_peel_with_a_zero_column(p):
    rng = np.random.default_rng(p)
    dense = shuffled(rng, np.concatenate([forest(rng, p, 6), np.zeros((9, 1), dtype=np.int64)],
                                         axis=1))
    assert assert_peel_matches_oracle(dense, p) == 6
    dense = np.zeros((4, 3), dtype=np.int64)
    dense[:, 1] = nonunit(rng, p, 4)
    assert assert_peel_matches_oracle(dense, p) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_peel_to_a_core_with_two_or_more_dependencies(p):
    # a 4 x 4 core, every row in at least two columns, whose rows 2 and 3
    # are combinations of rows 0 and 1, with a forest rooted in it
    rng = np.random.default_rng(p)
    tested = 0
    while tested < 5:
        top = nonunit(rng, p, (2, 4))
        core = np.concatenate([top, nonunit(rng, p, (2, 2)) @ top % p])
        if (np.count_nonzero(core, axis=1) < 2).any():
            continue
        dense = np.concatenate([np.zeros((10, 4), dtype=np.int64), forest(rng, p, 6, n_roots=4)],
                               axis=1)
        dense[:4, :4] = core
        dense = shuffled(rng, dense)
        assert len(left_nullspace_canonical_modp_dense(dense, p)[0]) >= 2
        assert assert_peel_matches_oracle(dense, p) == 6
        tested += 1
