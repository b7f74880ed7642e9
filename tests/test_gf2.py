import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fflab.gf2
from fflab.gf2 import (
    PACK_BLOCK,
    BitMatrix,
    _degree_labels,
    _pack,
    _pair_components,
    _peel,
    _reduce,
    bit_indices,
    gf2_rank,
    gf2_rank_nullspace,
    indices_to_bits,
)
from fflab.models import ModelConfig, sample
from oracles import gf2_vecmat, left_nullspace_canonical_dense, rank_mod2_dense


def random_dense(rng, n_rows, n_cols):
    return rng.integers(0, 2, size=(n_rows, n_cols))


def test_identity_full_rank():
    for n in (1, 5, 64, 65, 130):
        rank, basis = gf2_rank_nullspace(BitMatrix.identity(n))
        assert rank == n
        assert len(basis) == 0


def test_duplicate_row_corank_one():
    n = 8
    dense = np.eye(n, dtype=np.uint8)
    dense[n - 1] = dense[0]
    m = BitMatrix.from_dense(dense)
    rank, basis = gf2_rank_nullspace(m)
    assert rank == gf2_rank(m) == n - 1
    assert len(basis) == 1
    assert basis[0] == (1 << 0) | (1 << (n - 1))


def test_rank_matches_naive_reference_on_random_dense():
    rng = np.random.default_rng(99)
    for _ in range(500):
        dense = random_dense(rng, 64, 64)
        m = BitMatrix.from_dense(dense)
        rank, basis = gf2_rank_nullspace(m)
        assert rank == gf2_rank(m) == rank_mod2_dense(dense)
        assert rank + len(basis) == 64


def test_basis_vectors_are_dependencies_and_independent():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_rows = int(rng.integers(1, 40))
        n_cols = int(rng.integers(1, 40))
        dense = random_dense(rng, n_rows, n_cols)
        m = BitMatrix.from_dense(dense)
        rank, basis = gf2_rank_nullspace(m)
        assert rank + len(basis) == n_rows
        for v in basis:
            assert v != 0
            assert gf2_vecmat(v, m) == 0
        # independence: XOR of any nonempty subset is nonzero
        seen = {0}
        for g in range(1, 1 << min(len(basis), 12)):
            acc = 0
            for i in bit_indices(g):
                acc ^= basis[i]
            assert acc not in seen
            seen.add(acc)


def test_basis_verified_at_n_512():
    rng = np.random.default_rng(512)
    # sparse rows so the null space is nontrivial
    dense = (rng.random((512, 512)) < 0.004).astype(np.uint8)
    m = BitMatrix.from_dense(dense)
    rank, basis = gf2_rank_nullspace(m)
    assert rank + len(basis) == 512
    assert len(basis) > 0
    for v in basis:
        assert gf2_vecmat(v, m) == 0


@given(st.integers(0, 2**31 - 1), st.integers(2, 24), st.integers(2, 24))
def test_rank_invariant_under_permutations(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    dense = random_dense(rng, n_rows, n_cols)
    rank, _ = gf2_rank_nullspace(BitMatrix.from_dense(dense))
    rp = rng.permutation(n_rows)
    cp = rng.permutation(n_cols)
    rank_p, _ = gf2_rank_nullspace(BitMatrix.from_dense(dense[rp][:, cp]))
    assert rank == rank_p


def packbits_words(dense):
    """Words of a dense 0/1 matrix packed row by row with np.packbits."""
    n_rows, n_cols = dense.shape
    padded = np.zeros((n_rows, -(-n_cols // 64) * 64), dtype=np.uint8)
    padded[:, :n_cols] = dense != 0
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


@given(st.integers(0, 2**31 - 1), st.integers(1, 140), st.integers(1, 140))
def test_dense_roundtrip(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    dense = random_dense(rng, n_rows, n_cols)
    m = BitMatrix.from_dense(dense)
    assert np.array_equal(m.to_dense(), dense)
    assert m == BitMatrix.from_dense(m.to_dense())
    assert m == BitMatrix.from_dense(dense + 2 * rng.integers(-3, 4, size=dense.shape))
    assert np.array_equal(m.words, packbits_words(dense))
    rows, cols = np.nonzero(dense)
    assert m == BitMatrix(n_rows, n_cols, rows, cols)
    order = rng.permutation(len(rows))
    assert m == BitMatrix(n_rows, n_cols, rows[order], cols[order])
    assert m == BitMatrix.from_columns(n_rows, [np.nonzero(dense[:, j])[0].tolist()
                                                for j in range(n_cols)])


def assert_canonical_basis(m, dense):
    """gf2_rank_nullspace gives the oracle's basis exactly, order
    included, and gf2_rank the oracle's rank."""
    deps, vectors = left_nullspace_canonical_dense(dense)
    rank, basis = gf2_rank_nullspace(m)
    assert rank == gf2_rank(m) == rank_mod2_dense(dense) == m.n_rows - len(deps)
    assert basis == tuple(vectors)


@given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(1, 40),
       st.floats(0.05, 0.7), st.integers(0, 3))
def test_basis_equals_oracle_on_dense(seed, n_rows, n_cols, density, damage):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < density).astype(np.uint8)
    if damage & 1:  # zero rows and columns
        dense[rng.integers(0, n_rows, size=n_rows // 4)] = 0
        dense[:, rng.integers(0, n_cols, size=n_cols // 4)] = 0
    if damage & 2:  # repeated rows
        dense[rng.integers(0, n_rows, size=n_rows // 3)] = dense[rng.integers(0, n_rows)]
    assert_canonical_basis(BitMatrix.from_dense(dense), dense)


@given(st.integers(0, 2**31 - 1), st.integers(1, 30), st.integers(1, 30), st.integers(0, 200))
def test_basis_equals_oracle_with_cancelling_entries(seed, n_rows, n_cols, n_entries):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size=n_entries)
    cols = rng.integers(0, n_cols, size=n_entries)
    dense = np.zeros((n_rows, n_cols), dtype=np.int64)
    np.add.at(dense, (rows, cols), 1)
    assert_canonical_basis(BitMatrix(n_rows, n_cols, rows, cols), dense % 2)


@pytest.mark.parametrize("replacement", ["with", "without"])
@pytest.mark.parametrize("r,s", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_basis_equals_oracle_on_sampled_families(r, s, replacement):
    for n in (3, 64, 65, 300):
        cfg = ModelConfig(n=n, r=r, s=s, replacement=replacement, master_seed=n)
        for trial in range(4 if n < 300 else 2):
            m = sample(cfg, trial)
            assert_canonical_basis(m, m.to_dense())


def test_elimination_allocates_no_dense_array():
    m = sample(ModelConfig(n=4000, master_seed=4000), 0)
    tracemalloc.start()
    try:
        gf2_rank_nullspace(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # a dense n x n uint8 temporary alone is 16 MB


def test_rank_packs_in_small_blocks():
    # at most one block of column ints is packed ahead of elimination;
    # with blocks of 4096 columns this peak read 13.5 MB
    m = sample(ModelConfig(n=8000, master_seed=8000), 0)
    tracemalloc.start()
    try:
        gf2_rank(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_large_null_space_is_fast():
    # one column set in row 0 alone: every other row is its own dependency;
    # a pairwise canonical pass over the 7999 vectors takes seconds
    t0 = time.perf_counter()
    rank, basis = gf2_rank_nullspace(BitMatrix(8000, 1, [0], [0]))
    assert time.perf_counter() - t0 < 2.0
    assert rank == 1
    assert basis == tuple(1 << i for i in range(1, 8000))


def test_full_rank_returns_no_basis():
    rng = np.random.default_rng(17)
    for n_rows, n_cols in ((1, 1), (40, 40), (64, 90), (130, 200)):
        while True:
            dense = random_dense(rng, n_rows, n_cols)
            if rank_mod2_dense(dense) == n_rows:
                break
        assert gf2_rank_nullspace(BitMatrix.from_dense(dense)) == (n_rows, ())


def test_full_rank_stops_drawing_columns(count_packed):
    # the identity comes first, so the rank reaches n_rows at column n - 1;
    # the 40 random columns after it are in the span and are never packed
    n, rng = 100, np.random.default_rng(5)
    dense = np.hstack([np.eye(n, dtype=np.int64), rng.integers(0, 2, size=(n, 40))])
    m = BitMatrix.from_dense(dense)
    drawn = count_packed(fflab.gf2)
    assert gf2_rank(m) == n
    assert len(drawn) == n
    drawn.clear()
    assert gf2_rank_nullspace(m) == (n, ())
    assert len(drawn) == n


def test_reduce_fills_the_list_at_the_leads():
    # slot b holds the pivot of bit length b, so its lead is bit b - 1
    pivots = [0] * 7
    rows = [0b1011, 0b0110, 0b1101, 0b1110, 0b0001]
    # 0b1101 = 0b1011 ^ 0b0110 is dependent and adds no pivot;
    # 0b1110 reduces to 0b0011
    assert _reduce(rows, pivots) == 4
    assert pivots == [0, 0b0001, 0b0011, 0b0110, 0b1011, 0, 0]
    assert all(v.bit_length() == b for b, v in enumerate(pivots) if v)
    # a later call reduces against the pivots already in the list
    assert _reduce([0b100111], pivots) == 1
    assert _reduce([0b100111 ^ 0b1011], pivots) == 0
    assert pivots[6] == 0b100111
    # a call that fills every slot draws no further row
    pivots, rows = [0] * 4, iter([0b101, 0b100, 0b111, 0b010, 0b001])
    assert _reduce(rows, pivots) == 3
    assert pivots == [0, 0b001, 0b010, 0b101]
    assert list(rows) == [0b010, 0b001]


def test_back_substitution_walks_only_the_pivots_above():
    # columns {2i, 2i + 1} for i < 1000: rows 0..1999 keep their labels,
    # the pivots lead at the odd labels and the even ones below 2000 are
    # free, interleaved with them; the 8000 rows from 2000 up are free
    # with no pivot above them.  Measured at 0.17-0.23 s on a 2-core host,
    # and at 1.3-1.4 s when each free label walked every label above it.
    n, k = 10_000, 1000
    t0 = time.perf_counter()
    rank, basis = gf2_rank_nullspace(BitMatrix(n, k, np.arange(2 * k), np.arange(2 * k) // 2))
    assert time.perf_counter() - t0 < 0.6
    assert rank == k
    assert basis == tuple(0b11 << 2 * i for i in range(k)) + tuple(1 << j for j in range(2 * k, n))


def xor_built_columns(n_cols, cols, shifts):
    """The nonzero columns, as ints, built entry by entry: bit shifts[k]
    of column cols[k] flipped for every k."""
    out = [0] * n_cols
    for c, b in zip(cols.tolist(), shifts.tolist()):
        out[c] ^= 1 << b
    return [v for v in out if v]


@pytest.mark.parametrize("n,r,s", [(3, 2, 2), (64, 2, 2), (300, 1, 2), (300, 1, 4),
                                   (4097, 2, 2), (4097, 1, 3)])
def test_pack_equals_the_entrywise_xor_build(n, r, s):
    m = sample(ModelConfig(n=n, r=r, s=s, replacement="with", master_seed=n), 0)
    rows, cols = m.nonzero()
    if s == 2:  # a column whose two draws are equal cancels to empty
        assert np.unique(cols).size < m.n_cols
    for shifts in (rows, _degree_labels(rows, m.n_rows)[rows]):
        assert list(_pack(cols, shifts)) == xor_built_columns(m.n_cols, cols, shifts)


def test_pack_splits_blocks_at_column_boundaries():
    # PACK_BLOCK + 2 columns of 6 entries each, with an empty column
    # after each: the second block starts on a column, not on an entry
    n_cols = 2 * (PACK_BLOCK + 2)
    rows, cols = BitMatrix(200, n_cols, np.arange(3 * n_cols) % 200,
                           np.repeat(np.arange(n_cols), 3) // 2 * 2).nonzero()
    assert np.unique(cols).size == PACK_BLOCK + 2
    assert list(_pack(cols, rows)) == xor_built_columns(n_cols, cols, rows)
    assert list(_pack(cols[:0], rows[:0])) == []


def test_three_column_blocks_change_no_basis(monkeypatch):
    ms = [sample(ModelConfig(n=60, r=r, s=s, replacement=rep, master_seed=60), t)
          for r, s, rep in ((1, 3, "without"), (2, 2, "with"), (2, 3, "with")) for t in range(3)]
    unpatched = [gf2_rank_nullspace(m) for m in ms]
    monkeypatch.setattr("fflab.gf2.PACK_BLOCK", 3)
    for m, result in zip(ms, unpatched):
        assert gf2_rank_nullspace(m) == result
        assert_canonical_basis(m, m.to_dense())


def test_repeated_entries_cancel_in_pairs():
    # entry (k, k) is given k + 1 times, in shuffled order
    rng = np.random.default_rng(3)
    idx = rng.permutation(np.repeat(np.arange(8), np.arange(1, 9)))
    m = BitMatrix(8, 8, idx, idx)
    rows, cols = m.nonzero()
    assert rows.tolist() == cols.tolist() == [0, 2, 4, 6]  # given 1, 3, 5 and 7 times


def core_columns(n_rows, rows, cols):
    """The 2-core's columns, by rounds that each drop every column that
    holds a row of live degree 1, over the whole entry list."""
    live = set(cols.tolist())
    while True:
        deg = np.bincount([r for r, c in zip(rows, cols) if c in live], minlength=n_rows)
        drop = {c for r, c in zip(rows, cols) if c in live and deg[r] == 1}
        if not drop:
            return live
        live -= drop


@given(st.integers(0, 2**31 - 1), st.integers(1, 30), st.integers(1, 30), st.integers(0, 90))
def test_peel_removes_the_columns_outside_the_core_in_a_valid_order(seed, n_rows, n_cols,
                                                                    n_entries):
    rng = np.random.default_rng(seed)
    rows, cols = BitMatrix(n_rows, n_cols, rng.integers(0, n_rows, size=n_entries),
                           rng.integers(0, n_cols, size=n_entries)).nonzero()
    leaves = _peel(rows, cols, n_rows).tolist()
    peeled = cols[leaves].tolist()
    assert len(set(peeled)) == len(peeled)
    assert set(cols.tolist()) - set(peeled) == core_columns(n_rows, rows, cols)
    # replayed in peel order, each leaf is its row's one live entry
    live = set(cols.tolist())
    for k in leaves:
        assert [c for r, c in zip(rows, cols) if r == rows[k] and c in live] == [cols[k]]
        live.remove(cols[k])


def test_peel_is_linear_on_a_path():
    # column c holds rows c and c + 1: two leaves a round, n / 2 rounds
    n = 20_000
    rows = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1).ravel()
    cols = np.repeat(np.arange(n - 1), 2)
    t0 = time.perf_counter()
    assert _peel(rows, cols, n).size == n - 1
    assert time.perf_counter() - t0 < 1.0


def test_nonzero_lists_the_set_bits():
    rng = np.random.default_rng(11)
    for n_rows, n_cols in ((1, 1), (3, 64), (5, 65), (40, 200)):
        dense = (rng.random((n_rows, n_cols)) < 0.3).astype(np.uint8)
        dense[0, -1] = 1
        rows, cols = BitMatrix.from_dense(dense).nonzero()
        assert sorted(zip(rows.tolist(), cols.tolist())) == list(zip(*map(list, np.nonzero(dense))))
    rows, cols = BitMatrix(2, 3, [], []).nonzero()
    assert rows.size == cols.size == 0
    # an entry given an odd number of times stays, an even number cancels;
    # the entries are listed column-major
    m = BitMatrix(3, 2, [2, 0, 2, 1, 1, 0, 2], [1, 1, 1, 0, 0, 0, 1])
    rows, cols = m.nonzero()
    assert (rows.tolist(), cols.tolist()) == ([0, 0, 2], [0, 1, 1])


def test_from_columns_xor_cancellation():
    m = BitMatrix.from_columns(4, [[0, 1], [2, 2], [3, 1, 3]])
    dense = m.to_dense()
    assert dense[:, 0].tolist() == [1, 1, 0, 0]
    assert dense[:, 1].tolist() == [0, 0, 0, 0]  # repeated entry cancels
    assert dense[:, 2].tolist() == [0, 1, 0, 0]  # 3 appears twice
    assert m == BitMatrix(4, 3, [0, 1, 2, 2, 3, 1, 3], [0, 0, 1, 1, 2, 2, 2])
    # an entry repeated k times survives iff k is odd, across word boundaries
    rows = [5, 5, 5, 0, 0, 7, 7, 7, 7, 2]
    cols = [64, 64, 64, 63, 63, 129, 129, 129, 129, 0]
    z = BitMatrix(8, 130, rows, cols)
    assert [(i, j) for i, j in zip(*np.nonzero(z.to_dense()))] == [(2, 0), (5, 64)]
    # index arrays broadcast: column c gets rows r[c, 0] .. r[c, 2]
    r = np.array([[0, 1, 1], [2, 3, 0]])
    assert (BitMatrix(4, 2, r, np.arange(2)[:, None])
            == BitMatrix.from_columns(4, [[0, 1, 1], [2, 3, 0]]))
    # out-of-range indices are refused, not wrapped or left as stray bits
    for rows, cols in (([0], [-1]), ([0], [3]), ([0], [64]), ([-1], [0]), ([4], [0]),
                       # broadcast: a row out of range in a (k, 3) array with
                       # (k, 1) columns, and a column out of range in the (k, 1) array
                       ([[0, 1, 2], [3, 4, 0]], [[0], [1]]), ([[0, 1, 2], [3, 1, 0]], [[0], [3]])):
        with pytest.raises(ValueError, match="out of range"):
            BitMatrix(4, 3, rows, cols)
    with pytest.raises(ValueError, match="broadcast"):  # shapes that do not broadcast
        BitMatrix(4, 3, [[0, 1, 2], [3, 1, 0]], [0, 1])
    with pytest.raises(ValueError, match="out of range"):
        BitMatrix.from_columns(4, [[0], [-1]])


def test_unchecked_entry_list_cannot_be_stored():
    # a row out of range and rows not column-major, handed over as the
    # stored form: the constructor takes index arrays and checks them
    with pytest.raises(TypeError):
        BitMatrix(2, 2, (np.array([1, 0, 5]), np.array([0, 0, 1])))
    with pytest.raises(ValueError, match="out of range"):
        BitMatrix(2, 2, np.array([1, 0, 5]), np.array([0, 0, 1]))


def test_pair_components_reads_the_entry_list():
    # rows 0-1 joined twice (columns 0 and 1), rows 2-3 by column 2, row 4
    # isolated; column 3 meets rows 1, 2 and 4
    m = BitMatrix.from_columns(5, [[0, 1], [1, 0], [2, 3], [1, 2, 4]])
    rows, cols = m.nonzero()
    edges = cols < 3
    assert _pair_components(5, rows[edges], cols[edges]) == 3
    with pytest.raises(ValueError, match=r"^column 3 is set in 3 rows, not 2$"):
        _pair_components(5, rows, cols)


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        BitMatrix(0, 3, [], [])
    with pytest.raises(ValueError):
        BitMatrix(3, 0, [], [])


def test_oversized_dimensions_rejected():
    # entry positions cols * n_rows + rows would overflow int64
    with pytest.raises(ValueError, match="too large"):
        BitMatrix(2**62, 2, [], [])


def test_bit_index_helpers():
    assert bit_indices(0) == []
    assert bit_indices(0b1011) == [0, 1, 3]
    assert indices_to_bits([0, 1, 3]) == 0b1011
