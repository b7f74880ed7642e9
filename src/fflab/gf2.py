"""Bit-packed exact linear algebra over GF(2).

Rows of a :class:`BitMatrix` are packed into 64-bit machine words.  The
central operation is *left* null-space extraction: for an n-row matrix M,
a basis of {x : xM = 0}.  Row dependencies are the object of interest
throughout this package, so the left kernel is the primary product here.
Most linear-algebra libraries return the column kernel instead; do not
mix the two.

Elimination carries an n x n transform initialised to the identity,
packed below the matrix row: each row (matrix part above bit n, transform
part below it) lives in a single Python integer, which makes the
word-level XOR row operation a one-liner and is faster than per-word
numpy updates at these sizes.  Rows that reduce to a zero matrix part
leave their transform part, and those form the basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


@dataclass
class BitMatrix:
    """Row-major bit-packed matrix over GF(2).

    words[i, w] holds bits 64*w .. 64*w+63 of row i (little-endian within
    the row).  Bits at column positions >= n_cols are kept zero.
    """

    n_rows: int
    n_cols: int
    words: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("dimension-zero matrix rejected")
        expect = (self.n_rows, _n_words(self.n_cols))
        if self.words.shape != expect or self.words.dtype != np.uint64:
            raise ValueError(f"words must be uint64 of shape {expect}")
        # bits beyond n_cols must be zero
        slack = _n_words(self.n_cols) * WORD_BITS - self.n_cols
        if slack and int(self.words[:, -1].max(initial=0)) >> (WORD_BITS - slack):
            raise ValueError("stray bits beyond n_cols")

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls(n_rows, n_cols, np.zeros((n_rows, _n_words(n_cols)), dtype=np.uint64))

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, rows, cols) -> "BitMatrix":
        """Set entry (rows[k], cols[k]) for every k; repeated entries XOR-cancel.
        rows and cols are index arrays of any shapes that broadcast together."""
        m = cls.zeros(n_rows, n_cols)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if rows.size and cols.size and (min(rows.min(), cols.min()) < 0
                                        or rows.max() >= n_rows or cols.max() >= n_cols):
            raise ValueError("entry index out of range")
        wi, b = cols >> 6, cols & 63  # word and bit; WORD_BITS == 64
        np.bitwise_xor.at(m.words, (rows, wi), np.uint64(1) << b.astype(np.uint64))
        return m

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        idx = np.arange(n)
        return cls.from_entries(n, n, idx, idx)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        a = np.asarray(dense)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls.from_entries(*a.shape, *np.nonzero(a))

    @classmethod
    def from_columns(cls, n_rows: int, columns: Sequence[Iterable[int]]) -> "BitMatrix":
        """Build from per-column row-index lists; repeated entries XOR-cancel."""
        columns = [list(rows) for rows in columns]
        cols = np.repeat(np.arange(len(columns)), [len(rows) for rows in columns])
        return cls.from_entries(n_rows, len(columns), [r for rows in columns for r in rows], cols)

    def to_dense(self) -> np.ndarray:
        bits = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return bits[:, : self.n_cols]

    def get(self, i: int, j: int) -> int:
        return int(self.words[i, j // WORD_BITS] >> np.uint64(j % WORD_BITS)) & 1

    def row_int(self, i: int) -> int:
        """Row i as a Python int; bit j is column j."""
        return int.from_bytes(self.words[i].tobytes(), "little")

    def rows_as_ints(self) -> list[int]:
        buf = self.words.tobytes()
        stride = self.words.shape[1] * 8
        return [int.from_bytes(buf[i * stride:(i + 1) * stride], "little")
                for i in range(self.n_rows)]

    def column_hits(self, j: int) -> list[int]:
        """Row indices with a 1 in column j."""
        wi = j // WORD_BITS
        b = np.uint64(j % WORD_BITS)
        return np.nonzero((self.words[:, wi] >> b) & np.uint64(1))[0].tolist()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitMatrix)
                and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols
                and bool(np.array_equal(self.words, other.words)))


@dataclass(frozen=True)
class NullSpaceBasis:
    """Basis of the left null space {x : xM = 0} of an n_rows-row matrix.

    Each basis vector is a Python int whose bit i selects row i.
    """

    n_rows: int
    vectors: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def gf2_vecmat(x: int, m: BitMatrix) -> int:
    """x M over GF(2): XOR of the rows of m selected by the bits of x."""
    acc = 0
    for i in bit_indices(x):
        acc ^= m.row_int(i)
    return acc


def _reduce(rows: list[int], stop: int) -> list[int]:
    """Reduce each row against the pivots of the rows before it, keyed by
    leading bit; a row that keeps a bit at or above ``stop`` becomes a
    pivot.  Returns the reduced rows, in row order."""
    pivots: dict[int, int] = {}
    out = []
    for v in rows:
        lead = v.bit_length() - 1
        while lead >= stop:
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = v
                break
            v ^= hit
            lead = v.bit_length() - 1
        out.append(v)
    return out


def gf2_rank_nullspace(m: BitMatrix) -> tuple[int, NullSpaceBasis]:
    """Rank and left-null-space basis of a BitMatrix.

    Row i carries the matrix row above bit n_rows and the unit vector e_i
    below it, which accumulates the transform.  A row that reduces below
    bit n_rows has a zero matrix part, and its low bits are a dependency.

    Guarantees: rank + basis.dimension == n_rows; every basis vector x
    satisfies x M = 0; the vectors are linearly independent and span all
    dependencies of m.
    """
    nr = m.n_rows
    rows = [(v << nr) | (1 << i) for i, v in enumerate(m.rows_as_ints())]
    basis = tuple(v for v in _reduce(rows, nr) if v >> nr == 0)
    return nr - len(basis), NullSpaceBasis(nr, basis)


def combine_codewords(basis: NullSpaceBasis, mask: Sequence[int]) -> int:
    """GF(2) sum of the basis vectors selected by a 0/1 mask."""
    if len(mask) != basis.dimension:
        raise ValueError("mask length must equal basis dimension")
    acc = 0
    for pick, vec in zip(mask, basis.vectors):
        if pick:
            acc ^= vec
    return acc
