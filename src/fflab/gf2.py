"""Exact linear algebra over GF(2) on sparse entry lists.

A :class:`BitMatrix` is stored as its set entries alone, sorted
column-major: the sampled matrices have at most s ones per column, so
the entry list is O(nnz) where packed rows would be n_rows * n_cols
bits.  The central operation is *left* null-space extraction: for an
n-row matrix M, a basis of {x : xM = 0}.  Row dependencies are the
object of interest throughout this package, so the left kernel is the
primary product here.  Most linear-algebra libraries return the column
kernel instead; do not mix the two.

Elimination works on the columns, which are sparse (the sampled models
put at most s ones in each), and carries no transform.  Each column is
one Python int over relabelled rows: rows are ordered by degree,
descending, so the lowest-degree rows take the highest bits and lead the
pivots, which keeps fill-in low (a light form of Markowitz ordering, as
in structured Gaussian elimination).  The column ints are packed
lazily, 512 (PACK_BLOCK) columns at a time, each block by one NumPy
shift and one ``bitwise_or.reduceat`` over an object array of its
entries (:func:`_pack`, which needs them grouped by column, not sorted,
and also packs the GF(p) engine's lane ints), so no per-entry Python
loop runs and the ints of at most one block exist before elimination
reaches them.  The pivots sit in a list indexed by leading bit, 0 where
none leads.  The rows that lead no pivot are the free rows; each gives
one null vector by back-substitution over the pivots above it, walked
in lead order.  A Gauss-Jordan pass keyed by the top row index makes
the basis canonical, independent of the engine and its row order.

The row order and the 2-core peel (:func:`_degree_labels`,
:func:`_peel`) read the entry list alone, so they are stated here once;
the GF(p) engine peels before it eliminates, and this one does not.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

WORD_BITS = 64


def _n_words(bits: int) -> int:
    return (bits + WORD_BITS - 1) // WORD_BITS


def bit_indices(v: int) -> list[int]:
    """Indices of the set bits of a nonnegative int, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def indices_to_bits(indices: Iterable[int]) -> int:
    v = 0
    for i in indices:
        v |= 1 << i
    return v


PACK_BLOCK = 512  # columns packed per NumPy call


def _run_bounds(a: np.ndarray) -> np.ndarray:
    """The index where each run of equal values of a starts, then a.size."""
    new = np.empty(a.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:-1])
    return np.flatnonzero(new)


def _pack(cols: np.ndarray, shifts: np.ndarray, vals: np.ndarray | None = None) -> Iterator[int]:
    """The nonempty columns of an entry list grouped by column (not
    necessarily sorted) as Python ints, in the order given: a column's
    int is the OR of vals[k] << shifts[k] over its entries k, or of
    1 << shifts[k] when vals is None (the XOR, as no two overlap).  One
    object-dtype shift and one ``bitwise_or.reduceat`` per PACK_BLOCK
    columns, so the object array never spans the whole matrix."""
    bounds = _run_bounds(cols)
    for b in range(0, bounds.size - 1, PACK_BLOCK):
        starts = bounds[b:b + PACK_BLOCK + 1]
        span = slice(starts[0], starts[-1])
        bits = np.left_shift(1 if vals is None else vals[span].astype(object),
                             shifts[span].astype(object))
        yield from np.bitwise_or.reduceat(bits, starts[:-1] - starts[0]).tolist()


def _entry_keys(n_rows: int, n_cols: int, rows, cols) -> np.ndarray:
    """Flat column-major keys cols * n_rows + rows of entry index arrays
    that broadcast together.  Refuses a dimension-zero matrix, one too
    large for int64 keys, and indices out of range."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("dimension-zero matrix rejected")
    if n_rows * n_cols >= 2**63:
        raise ValueError(f"{n_rows} x {n_cols} matrix is too large to index")
    rows, cols = np.broadcast_arrays(np.asarray(rows, dtype=np.int64),
                                     np.asarray(cols, dtype=np.int64))
    if rows.size and (min(rows.min(), cols.min()) < 0
                      or rows.max() >= n_rows or cols.max() >= n_cols):
        raise ValueError("entry index out of range")
    return (cols * n_rows + rows).ravel()


@dataclass(init=False)
class BitMatrix:
    """Matrix over GF(2), stored as the (rows, cols) index arrays of its
    set entries, sorted column-major (by column, then row), each position
    once.  The constructor checks the entries and puts them in that form;
    the other constructors all go through it."""

    n_rows: int
    n_cols: int
    _entries: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, n_rows: int, n_cols: int, rows, cols):
        """Set entry (rows[k], cols[k]) for every k; repeated entries XOR-cancel.
        rows and cols are index arrays of any shapes that broadcast together."""
        keys = np.sort(_entry_keys(n_rows, n_cols, rows, cols))
        bounds = _run_bounds(keys)
        if bounds.size <= keys.size:  # a key repeats: keep those given an odd number of times
            keys = keys[bounds[:-1][np.diff(bounds) % 2 == 1]]
        cols, rows = np.divmod(keys, n_rows)
        self.n_rows, self.n_cols, self._entries = n_rows, n_cols, (rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        idx = np.arange(n)
        return cls(n, n, idx, idx)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        a = np.asarray(dense)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls(*a.shape, *np.nonzero(a))

    @classmethod
    def from_columns(cls, n_rows: int, columns: Sequence[Iterable[int]]) -> "BitMatrix":
        """Build from per-column row-index lists; repeated entries XOR-cancel."""
        columns = [list(rows) for rows in columns]
        cols = np.repeat(np.arange(len(columns)), [len(rows) for rows in columns])
        return cls(n_rows, len(columns), [r for rows in columns for r in rows], cols)

    @property
    def words(self) -> np.ndarray:
        """The rows packed into 64-bit words, built from the entries on
        each access: words[i, w] holds bits 64*w .. 64*w+63 of row i
        (little-endian within the row)."""
        rows, cols = self._entries
        words = np.zeros((self.n_rows, _n_words(self.n_cols)), dtype=np.uint64)
        np.bitwise_or.at(words, (rows, cols // WORD_BITS),
                         np.uint64(1) << (cols % WORD_BITS).astype(np.uint64))
        return words

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        dense[self._entries] = 1
        return dense

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the set entries, column-major."""
        return self._entries

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitMatrix)
                and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols
                and all(map(np.array_equal, self._entries, other._entries)))


def _degree_labels(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """label[i] for every row i of an entry list's row indices: the rows
    ordered by degree, descending (stable), so the lowest-degree rows
    take the highest labels.  Both engines eliminate over these labels,
    GF(p) over the entries of its 2-core (:func:`_peel`)."""
    order = np.argsort(-np.bincount(rows, minlength=n_rows), kind="stable")
    label = np.empty(n_rows, dtype=np.intp)
    label[order] = np.arange(n_rows)
    return label


def _peel(rows: np.ndarray, cols: np.ndarray, n_rows: int) -> np.ndarray:
    """The 2-core peel of a column-major entry list: the indices of its
    leaf entries, in peel order.

    A row with exactly one live entry is a leaf.  Over any field, the
    column holding it is independent of the other live columns, so
    removing it raises the rank by 1, and a left null vector's
    coefficient at the leaf follows from its coefficients at the
    column's other rows.  Each round removes every column that holds a
    leaf, through its first leaf in the queue; the column's other leaves
    are left with no live entry, and its other rows may become leaves of
    the next round.  The rounds repeat until no row is a leaf, and the
    live columns that remain are the 2-core.  The other rows of a
    removed column are live when it goes, so back-substitution in
    reverse peel order finds them set.

    The rounds run as one queue of leaf rows, and a leaf's column is the
    XOR of its row's live column indices, so the peel is linear in the
    entries.
    """
    deg = np.bincount(rows, minlength=n_rows)
    col_xor = np.zeros(n_rows, dtype=np.int64)
    np.bitwise_xor.at(col_xor, rows, cols)
    queue = np.flatnonzero(deg == 1).tolist()
    if not queue:
        return np.zeros(0, dtype=np.intp)
    start = np.zeros(cols[-1] + 2, dtype=np.intp)
    np.cumsum(np.bincount(cols), out=start[1:])
    deg, col_xor, start, rows = deg.tolist(), col_xor.tolist(), start.tolist(), rows.tolist()
    out = []
    for leaf in queue:  # the queue grows as the loop runs
        if deg[leaf] != 1:  # another leaf removed its column
            continue
        c = col_xor[leaf]
        for k in range(start[c], start[c + 1]):
            r = rows[k]
            d = deg[r] = deg[r] - 1
            col_xor[r] ^= c
            if d == 1:
                queue.append(r)
            elif r == leaf:
                out.append(k)
    return np.array(out, dtype=np.intp)


def _reduce(rows: Iterable[int], pivots: list[int]) -> Iterator[int]:
    """Reduce each row against `pivots`, a list indexed by leading bit,
    0 where none leads; a row that does not reduce to zero becomes the
    pivot at its lead.  Yields the reduced rows, in order, as they are
    reduced, so a caller may stop early and read the pivots so far."""
    for v in rows:
        while v:
            lead = v.bit_length() - 1
            hit = pivots[lead]
            if not hit:
                pivots[lead] = v
                break
            v ^= hit
        yield v


def _column_pivots(m: BitMatrix, label: np.ndarray) -> tuple[list[int], int]:
    """Eliminate the columns of m with row i on bit label[i].  Returns the
    pivot list, of length n_rows, as :func:`_reduce` fills it, and the rank."""
    nr = m.n_rows
    rows, cols = m.nonzero()
    pivots, rank = [0] * nr, 0
    for v in _reduce(_pack(cols, label[rows]), pivots):
        if v:
            rank += 1
            if rank == nr:  # full rank: the other columns are in the span
                break
    return pivots, rank


def gf2_rank(m: BitMatrix) -> int:
    """Row rank over GF(2): the number of pivot columns."""
    return _column_pivots(m, _degree_labels(m.nonzero()[0], m.n_rows))[1]


def gf2_rank_nullspace(m: BitMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank and left-null-space basis of a BitMatrix.  Each basis vector
    is a Python int whose bit i selects row i.

    Column form: the rows are relabelled by degree, descending (stable),
    so the lowest-degree rows hold the highest labels; each column is
    one Python int over those labels, built from the entries, and
    ``_column_pivots`` eliminates the columns, as for :func:`gf2_rank`.
    Rank is the number of nonzero reduced columns.  A label j that leads
    no pivot is free; its null vector x has bit j, no other free bit,
    and, for each pivot lead p > j in ascending order, bit p equal to
    the parity of x & pivot_p.  The vectors are mapped back to the original rows and
    put in reduced echelon form keyed by the top row index.

    That form does not depend on the engine: with D the set of rows i
    that lie in the span of the rows below i, the basis vector for i in
    D is the unique null vector whose support meets D only at i, and
    the vectors come in ascending order of i.

    Guarantees: rank + len(basis) == n_rows; every basis vector x
    satisfies x M = 0; the vectors are linearly independent and span all
    dependencies of m.
    """
    nr = m.n_rows
    label = _degree_labels(m.nonzero()[0], nr)
    pivots, rank = _column_pivots(m, label)
    if rank == nr:
        return nr, ()
    runs = [(p, v) for p, v in enumerate(pivots) if v]  # ascending leads
    leads = [p for p, _ in runs]
    vectors = []
    for j, pivot in enumerate(pivots):
        if pivot:
            continue
        x = 1 << j
        for p, v in runs[bisect_right(leads, j):]:
            if (x & v).bit_count() & 1:
                x |= 1 << p
        vectors.append(_relabel(x, label, nr))
    return rank, _canonical(vectors, nr)


def _relabel(x: int, label: np.ndarray, nr: int) -> int:
    """Move bit label[i] of x to bit i."""
    bits = np.unpackbits(np.frombuffer(x.to_bytes(_n_words(nr) * 8, "little"), np.uint8),
                         bitorder="little")
    return int.from_bytes(np.packbits(bits[label], bitorder="little").tobytes(), "little")


def _canonical(vectors: list[int], n: int) -> tuple[int, ...]:
    """Reduced echelon form keyed by top bit, in ascending order, of a
    list of independent vectors below bit n: each vector keeps its own
    top bit and no other vector's."""
    out, tops = [0] * n, 0  # out is indexed by top bit, as _reduce leaves it
    for _ in _reduce(vectors, out):
        pass
    # Ascending tops: each earlier vector is final and holds no other
    # earlier top, so one read of v & tops finds every XOR v needs.
    for top, v in enumerate(out):
        if v:
            for t in bit_indices(v & tops):
                v ^= out[t]
            out[top] = v
            tops |= 1 << top
    return tuple(v for v in out if v)


def _pair_components(n: int, rows: np.ndarray, cols: np.ndarray) -> int:
    """Components of the graph on vertices 0..n-1 with an edge {a, b} for
    each column set in exactly rows a and b, read from a column-major
    entry list, where a column's rows are adjacent.  Raises ValueError on
    a column set in any other nonzero number of rows."""
    rows, cols = rows.tolist(), cols.tolist()
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    components = n
    for k in range(0, len(cols), 2):
        hits = bisect_right(cols, cols[k], k) - k
        if hits != 2:
            raise ValueError(f"column {cols[k]} is set in {hits} rows, not 2")
        ra, rb = find(rows[k]), find(rows[k + 1])
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components
