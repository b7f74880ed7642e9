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
lazily, PACK_BLOCK columns at a time by NumPy (:func:`_pack`, which
also packs the GF(p) engine's column ints), so no per-entry Python loop
runs.  One loop, :func:`_reduce`, reduces every GF(2) row list into
pivot slots indexed by bit length, 0 while empty.  The rows that
lead no pivot are the free rows; each gives one null vector by
back-substitution over the pivots above it, walked in lead order.  A
Gauss-Jordan pass keyed by the top row index makes the basis
canonical, independent of the engine and its row order.

The row order and the 2-core peel (:func:`_degree_labels`,
:func:`_peel`) read the entry list alone, so they are stated here once;
the GF(p) engine peels before it eliminates, and this one does not.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import not_
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

    def block(b: int) -> list[int]:
        starts = bounds[b:b + PACK_BLOCK + 1]
        span = slice(starts[0], starts[-1])
        bits = np.left_shift(1 if vals is None else vals[span].astype(object),
                             shifts[span].astype(object))
        return np.bitwise_or.reduceat(bits, starts[:-1] - starts[0]).tolist()

    return chain.from_iterable(map(block, range(0, bounds.size - 1, PACK_BLOCK)))


def _dense_residues(dense, p: int) -> np.ndarray:
    """A 2-d array of integer values read mod p, as int64 residues.
    Refuses another shape, and a value that is not an integer or does
    not fit int64."""
    a = np.asarray(dense)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    try:
        with np.errstate(invalid="ignore"):  # nan and inf fail the comparison below
            ints = a.astype(np.int64)
        if (ints == a).all():
            return ints % p
    except (TypeError, ValueError, OverflowError):  # strings, objects beyond int64
        pass
    raise ValueError("entries must be integers that fit int64")


def _entry_keys(n_rows: int, n_cols: int, rows, cols) -> np.ndarray:
    """Flat column-major keys cols * n_rows + rows of entry index arrays
    that broadcast together.  Refuses a dimension-zero matrix, one too
    large for int64 keys, and indices out of range."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("dimension-zero matrix rejected")
    if n_rows * n_cols >= 2**63:
        raise ValueError(f"{n_rows} x {n_cols} matrix is too large to index")
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    # every given index is an entry unless the broadcast is empty
    if np.broadcast(rows, cols).size and (min(rows.min(), cols.min()) < 0
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
        if (keys[1:] == keys[:-1]).any():  # keep the keys given an odd number of times
            bounds = _run_bounds(keys)
            keys = keys[bounds[:-1][np.diff(bounds) % 2 == 1]]
        cols, rows = np.divmod(keys, n_rows)
        self.n_rows, self.n_cols, self._entries = n_rows, n_cols, (rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        idx = np.arange(n)
        return cls(n, n, idx, idx)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        """The matrix of a 2-d array of integers, read mod 2."""
        a = _dense_residues(dense, 2)
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


def _reduce(rows: Iterable[int], pivots: list[int]) -> int:
    """Reduce each row against `pivots`, slots indexed by bit length (slot
    0 unused), 0 while empty; a row that does not reduce to zero becomes
    the pivot in its slot.  Returns the number of new pivots.  Stops
    drawing rows once it has added len(pivots) - 1, which fills every
    slot (so only from an empty list): any further row reduces to zero."""
    added, room = 0, len(pivots) - 1
    for v in rows:
        b = v.bit_length()
        while hit := pivots[b]:  # a zero row stops at the unused slot 0
            v ^= hit
            b = v.bit_length()
        if b:
            pivots[b] = v
            added += 1
            if added == room:
                break
    return added


def _column_pivots(m: BitMatrix) -> tuple[list[int], int, np.ndarray]:
    """Eliminate the columns of m with row i on bit label[i], the degree
    labels.  Returns the n_rows + 1 pivot slots as :func:`_reduce` fills
    them, the rank and the labels."""
    rows, cols = m.nonzero()
    label, pivots = _degree_labels(rows, m.n_rows), [0] * (m.n_rows + 1)
    return pivots, _reduce(_pack(cols, label[rows]), pivots), label


def gf2_rank(m: BitMatrix) -> int:
    """Row rank over GF(2): the number of pivot columns."""
    return _column_pivots(m)[1]


def gf2_rank_nullspace(m: BitMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank and left-null-space basis of a BitMatrix.  Each basis vector
    is a Python int whose bit i selects row i.

    Column form: the rows are relabelled by degree, descending (stable),
    so the lowest-degree rows hold the highest labels; each column is
    one Python int over those labels, built from the entries, and
    ``_column_pivots`` eliminates the columns into slots indexed by bit
    length, as for :func:`gf2_rank`.  Rank is the number of pivots.  A
    label j whose slot j + 1 is empty is free; its null vector x has
    bit j, no other free bit, and, for each pivot lead p > j in
    ascending order, bit p equal to the parity of x & pivot_p.  The
    vectors are mapped back to the original rows and put in reduced
    echelon form keyed by the top row index.

    That form does not depend on the engine: with D the set of rows i
    that lie in the span of the rows below i, the basis vector for i in
    D is the unique null vector whose support meets D only at i, and
    the vectors come in ascending order of i.

    Guarantees: rank + len(basis) == n_rows; every basis vector x
    satisfies x M = 0; the vectors are linearly independent and span all
    dependencies of m.
    """
    nr = m.n_rows
    pivots, rank, label = _column_pivots(m)
    if rank == nr:
        return nr, ()
    slots = pivots[1:]  # slot j + 1 holds the pivot led by label j
    leads = list(compress(range(nr), slots))  # ascending
    values = list(filter(None, slots))
    vectors = []
    for j in compress(range(nr), map(not_, slots)):
        x = 1 << j
        start = bisect_right(leads, j)
        for p, v in zip(leads[start:], values[start:]):
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
    out, tops = [0] * (n + 1), 0  # out is indexed by bit length, as _reduce leaves it
    _reduce(vectors, out)
    # Ascending tops: each earlier vector is final and holds no other
    # earlier top, so one read of v & tops finds every XOR v needs.
    for b in compress(range(n + 1), out):
        v = out[b]
        for t in bit_indices(v & tops):
            v ^= out[t + 1]
        out[b] = v
        tops |= 1 << b - 1
    return tuple(filter(None, out))


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
