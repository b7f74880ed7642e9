"""Exact linear algebra over prime fields GF(p) on packed ints.

Same contract as the GF(2) side: row rank plus a basis of the *left*
null space {x : xM = 0 mod p}.  A :class:`PrimeFieldMatrix` is stored
as its nonzero entries alone, each an int64 residue in [1, p).  Prime
moduli only; extension fields are out of scope.

Elimination runs as in :func:`fflab.gf2.gf2_rank_nullspace`: on the
columns, which are sparse, with no transform carried, after one pass
over the entry list.  That pass peels the 2-core (:func:`fflab.gf2._peel`,
the first phase of structured Gaussian elimination): while some row has
exactly one live entry, the column holding it is removed and the rank
goes up by 1.  The core's rows are relabelled by degree, descending, so
the lowest-degree rows lead the pivots, and the core's columns are fed
in ascending order of their lowest label.  Each column is one Python int
over those labels, packed by :func:`fflab.gf2._pack`; the monic pivots
sit in a list indexed by leading label, 0 where none leads.  Two layouts
carry the values, chosen by p:

- p = 3: two bit planes of n_rows bits each, one holding the labels
  whose value is 1 and one those whose value is 2 (the bitslicing of
  Boothby & Bradshaw 2009).  Adding two vectors takes seven AND, OR and
  XOR operations and no multiply (:func:`_eliminate_planes`).
- p >= 5: a label is a *lane* of w bits instead of a single bit, and
  the XOR of GF(2) becomes a lane-wise multiply-add and a lane-wise
  reduction mod p (:class:`_Lanes`, :func:`_eliminate`).

The null space comes from back-substitution over the pivots and then
over the peeled columns, last peeled first; a Gauss-Jordan pass on
lanes, keyed by the top row index, makes it canonical.  Python ints
never overflow, so the engine is exact for every prime.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable

import numpy as np

from .gf2 import _degree_labels, _dense_residues, _entry_keys, _pack, _peel, bit_indices

# Deterministic Miller-Rabin: the smallest composite that is a strong
# pseudoprime to every prime base up to 37 is this bound, 3.2e23
# (Sorenson & Webster 2015), so below it the test is exact.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Exact primality by Miller-Rabin, for n below 3.2e23.

    That covers every int64 modulus; larger n not caught by a small
    factor raise ValueError rather than risk a wrong answer.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided exactly above {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> None:
    """Refuse a modulus that is not prime or whose residues do not fit
    int64 (p >= 2^63); the ValueError says which."""
    if p >= 2**63:
        raise ValueError(f"modulus {p} is too large: residues must fit int64")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


@dataclass(init=False)
class PrimeFieldMatrix:
    """Matrix over GF(p), stored as the (rows, cols, vals) arrays of its
    nonzero entries, sorted column-major (by column, then row), each
    position once, every value a residue in [1, p).  The constructor
    checks the modulus and the entries and puts them in that form; the
    other constructors all go through it."""

    p: int
    n_rows: int
    n_cols: int
    _entries: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, p: int, n_rows: int, n_cols: int, rows, cols, vals):
        """Set entry (rows[k], cols[k]) to the residue vals[k] for every k.
        rows, cols and vals are arrays of any shapes that broadcast
        together; a position may be given at most once, and zero values
        are dropped."""
        check_modulus(p)
        rows, cols, vals = np.broadcast_arrays(np.asarray(rows, dtype=np.int64),
                                               np.asarray(cols, dtype=np.int64),
                                               np.asarray(vals, dtype=np.int64))
        keys = _entry_keys(n_rows, n_cols, rows, cols)
        order = np.argsort(keys)
        keys, vals = keys[order], vals.ravel()[order]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("repeated entry position")
        if vals.size and (vals.min() < 0 or vals.max() >= p):
            raise ValueError("entries must be residues in [0, p)")
        keep = vals != 0
        cols, rows = np.divmod(keys[keep], n_rows)
        self.p, self.n_rows, self.n_cols = p, n_rows, n_cols
        self._entries = (rows, cols, vals[keep])

    @classmethod
    def identity(cls, p: int, n: int) -> "PrimeFieldMatrix":
        idx = np.arange(n)
        return cls(p, n, n, idx, idx, 1)

    @classmethod
    def from_dense(cls, dense: np.ndarray, p: int) -> "PrimeFieldMatrix":
        """The matrix of a 2-d array of integers, read mod p."""
        check_modulus(p)
        a = _dense_residues(dense, p)
        rows, cols = np.nonzero(a)
        return cls(p, *a.shape, rows, cols, a[rows, cols])

    @property
    def entries(self) -> np.ndarray:
        """The dense n_rows x n_cols int64 residue array, built from the
        entries on each access."""
        rows, cols, vals = self._entries
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        dense[rows, cols] = vals
        return dense

    def nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the nonzero entries, column-major."""
        return self._entries

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PrimeFieldMatrix)
                and self.p == other.p
                and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols
                and all(map(np.array_equal, self._entries, other._entries)))


class _Lanes:
    """Lane layout and lane-wise reduction mod p for packed vectors.

    Lane c of a vector int holds bits [c*w, (c+1)*w).  A step
    y = v + (p - f) * pivot on vectors with lanes in [0, p) leaves every
    lane below p + (p-1)^2 < p^2 without carries, and
    ``y - (((y * m) >> k) & qmask) * p`` takes every lane to its residue
    at once.  Here k is the bit length of p^3, m = ceil(2^k / p) and qmask
    keeps the low bit_length(p - 1) bits of every lane.

    Exactness of the lane quotient: write e = m*p - 2^k, so 0 <= e < p,
    and x = q*p + r with 0 <= r < p.  Then
    x*m / 2^k = q + (r + x*e / 2^k) / p, and for x < p^2,
    x*e < p^3 < 2^k, so r + x*e/2^k < r + 1 <= p and the floor is q.

    Lane independence: w is chosen so that x*m < 2^w for every x < p^2,
    so the product y*m has no carries between lanes, and w - k >=
    bit_length(p - 1), so the bits that lane c+1 shifts down into lane c
    land above qmask.  Each reduced lane x - q*p is >= 0, so the
    subtraction borrows nothing across lanes either.

    w is 8, 16, 32 or 64 bits, so that a lane is one little-endian NumPy
    element, or a multiple of 64 bits whose lowest uint64 holds the
    residue (PrimeFieldMatrix keeps p below 2^63).
    """

    def __init__(self, p: int, n_lanes: int) -> None:
        self.p = p
        self.n_lanes = n_lanes
        self.k = (p ** 3).bit_length()
        self.m = -(-(1 << self.k) // p)
        qbits = (p - 1).bit_length()
        need = max(((p * p - 1) * self.m).bit_length(), self.k + qbits)
        self.w = max(8, 1 << (need - 1).bit_length()) if need <= 64 else -(-need // 64) * 64
        self.dtype = f"<u{min(self.w, 64) // 8}"
        ones = ((1 << (self.w * n_lanes)) - 1) // ((1 << self.w) - 1)  # bit 0 of every lane
        self.qmask = ((1 << qbits) - 1) * ones

    def unpack(self, v: int) -> np.ndarray:
        """Every lane of v, as an int64 residue vector."""
        lanes = np.frombuffer(v.to_bytes(self.n_lanes * self.w // 8, "little"), dtype=self.dtype)
        return lanes.reshape(self.n_lanes, -1)[:, 0].astype(np.int64)


def _eliminate(vectors: Iterable[int], lanes: _Lanes) -> tuple[list[int], int]:
    """Reduce each vector against the monic pivots before it, a list
    indexed by leading lane, 0 where none leads; a vector that does not
    cancel becomes a monic pivot.  Stops once the pivots span every lane,
    as any further vector then cancels.  Returns the list and the rank."""
    p, w, m, k, qmask = lanes.p, lanes.w, lanes.m, lanes.k, lanes.qmask
    pivots, rank = [0] * lanes.n_lanes, 0
    for v in vectors:
        while v:
            lead = (v.bit_length() - 1) // w
            f = v >> (lead * w)  # the leading lane is the top of v
            hit = pivots[lead]
            if not hit:
                if f != 1:  # most new pivots are fresh columns, already monic
                    y = v * pow(f, -1, p)
                    v = y - (((y * m) >> k) & qmask) * p
                pivots[lead] = v
                rank += 1
                break
            y = v + (p - f) * hit
            v = y - (((y * m) >> k) & qmask) * p
        if rank == lanes.n_lanes:
            break
    return pivots, rank


def _eliminate_planes(vectors: Iterable[int], n: int) -> tuple[list, int]:
    """GF(3) form of :func:`_eliminate`, on two bit planes of n bits.

    Each vector int holds plane a, the labels whose value is 1, in its
    low n bits, and plane b, the labels whose value is 2, in the n bits
    above.  The sum of (a1, b1) and (a2, b2) is
    ``((b1 | b2) ^ t, (a1 | a2) ^ t)`` with ``t = (a1 | b2) ^ (a2 | b1)``,
    and swapping the planes negates a vector.  A vector whose lead is 1
    (in plane a) takes the pivot's negation, one whose lead is 2 the
    pivot itself.  Stops once the pivots span every label.  Returns the
    pivots as (a, b) pairs, monic (the lead bit in a), in a list indexed
    by leading label, 0 where none leads; and the rank."""
    mask = (1 << n) - 1
    slots, rank = [0] * (n + 1), 0  # indexed by bit length; slot 0 unused
    for v in vectors:
        a, b = v & mask, v >> n
        while True:
            la, lb = a.bit_length(), b.bit_length()
            lead = la if la > lb else lb
            if not (hit := slots[lead]):  # a zero vector stops at the unused slot 0
                break
            if la > lb:
                hb, ha = hit
            else:
                ha, hb = hit
            t = (a | hb) ^ (ha | b)
            a, b = (b | hb) ^ t, (a | ha) ^ t
        if lead:
            slots[lead] = (a, b) if la > lb else (b, a)
            rank += 1
            if rank == n:
                break
    return slots[1:], rank


def _column_pivots(m: PrimeFieldMatrix) -> tuple[list, int, np.ndarray, np.ndarray]:
    """Peel m to its 2-core (:func:`fflab.gf2._peel`), label the rows by
    their degree in the core (:func:`fflab.gf2._degree_labels`), and
    eliminate the core's columns over those labels, fed in ascending
    order of their lowest label (a stable sort): on bit planes at p = 3
    (:func:`_eliminate_planes`), on lanes at p >= 5 (:func:`_eliminate`).
    Each peeled column adds 1 to the rank, so the rank is the number of
    pivots plus the number of leaves.  Returns the pivot list, the
    rank, the labels and the peel's leaf entries, in peel order.

    The peel drops the columns that a leaf row alone pivots, and the
    core's rows take the lowest labels, so the column ints are shorter;
    feeding the columns that reach the lowest labels first builds the
    pivots from the bottom up.  Both cut the elimination steps.
    """
    rows, cols, vals = m.nonzero()
    leaves = _peel(rows, cols, m.n_rows)
    live = np.ones(m.n_cols, dtype=bool)
    live[cols[leaves]] = False
    core = live[cols]
    rows, cols, vals = rows[core], cols[core], vals[core]
    label = _degree_labels(rows, m.n_rows)
    lab = label[rows]
    new = np.diff(cols, prepend=-1) != 0  # the first entry of each core column
    # each entry's column minimum; a stable sort keeps each column's entries together
    k = np.argsort(np.minimum.reduceat(lab, np.flatnonzero(new))[np.cumsum(new) - 1],
                   kind="stable")
    if m.p == 3:  # a value of 2 sets its label's bit on the plane n_rows bits up
        pivots, rank = _eliminate_planes(_pack(cols[k], lab[k] + m.n_rows * (vals[k] == 2)),
                                         m.n_rows)
    else:
        lanes = _Lanes(m.p, m.n_rows)
        pivots, rank = _eliminate(_pack(cols[k], lab[k] * lanes.w, vals[k]), lanes)
    return pivots, rank + leaves.size, label, leaves


def gfp_rank(m: PrimeFieldMatrix) -> int:
    """Row rank over GF(p): the number of peeled columns and of core
    pivots."""
    return _column_pivots(m)[1]


def gfp_rank_nullspace(m: PrimeFieldMatrix) -> tuple[int, list[np.ndarray]]:
    """Rank and left-null-space basis over GF(p).

    Column form, as :func:`gfp_rank`: the peel takes each leaf row to a
    peeled column, and the core's pivots are monic at their lead label q
    and zero above it.  A label j that is no leaf and leads no pivot is
    free: a core row, or a row the peel left with no live entry.  Its
    null vector x has x_j = 1, 0 at every other free label and at every
    pivot lead below j, and, for each pivot lead q > j in ascending
    order, x_q = -sum_{l<q} x_l * pivot_q[l], which makes x orthogonal
    to every pivot and so to every core column.  Then, for each peeled
    column in reverse peel order, the leaf's coefficient is minus the
    column's other terms divided by the leaf's value, which makes x
    orthogonal to that column; the column's other rows are all set by
    then, and a column that meets no label set in x is skipped.  At
    p = 3 the pivot sums are popcounts of x's planes against the
    pivot's (:func:`_plane_solve`); every other sum runs over the
    smaller of x's support and the pivot or column.
    The vectors are mapped back to the original rows and put in reduced
    echelon form keyed by the top row index, monic at the top.

    That form does not depend on the engine: with D the set of rows i
    that lie in the span of the rows below i, the basis vector for i in
    D is the unique null vector with coefficient 1 at i and 0 at every
    other row of D, and the vectors come in ascending order of i.

    Each basis vector x satisfies x M = 0 (mod p), and
    rank + len(basis) == n_rows.
    """
    nr, p = m.n_rows, m.p
    rows, cols, vals = m.nonzero()
    pivots, rank, label, leaves = _column_pivots(m)
    if rank == nr:
        return rank, []
    lanes = _Lanes(p, nr)
    leaf_labels = set(label[rows[leaves]].tolist())  # a leaf's label leads no pivot
    leads = [q for q, v in enumerate(pivots) if v]
    free = [j for j, v in enumerate(pivots) if not (v or j in leaf_labels)]
    # the pivots above the lowest free label; at p >= 5 the labels below
    # the lead of each, as {label: value} runs, one run per pivot
    above = leads[bisect_right(leads, free[0]):]
    runs = [] if p == 3 else _lane_runs(pivots, above, lanes)
    # each peeled column, last peeled first: its leaf's label, minus the
    # inverse of the leaf's value, and its other entries as a run
    labs, values = label[rows].tolist(), vals.tolist()
    lo = np.searchsorted(cols, cols[leaves]).tolist()
    hi = np.searchsorted(cols, cols[leaves], "right").tolist()
    peeled, meets = [], {}  # meets: label -> positions of the runs holding it
    for k, a, b in reversed(list(zip(leaves.tolist(), lo, hi))):
        run = dict(zip(labs[a:b], values[a:b]))
        del run[labs[k]]
        for l in run:
            meets.setdefault(l, []).append(len(peeled))
        peeled.append((labs[k], p - pow(values[k], -1, p), run))
    row_of = np.argsort(label).tolist()  # the inverse permutation of label
    vectors = []
    for j in free:
        start = bisect_right(above, j)
        if p == 3:
            x = _plane_solve(j, pivots, above[start:])
        else:
            x = {j: 1}  # the nonzero coefficients, by label
            for q, run in zip(above[start:], runs[start:]):
                xq = -_dot(x, run) % p  # x holds labels below q alone
                if xq:
                    x[q] = xq
        # ascending, as a run holds no leaf of a later column
        heap = sorted(i for l in x for i in meets.get(l, ()))
        while heap:
            i = heappop(heap)
            while heap and heap[0] == i:  # reached through another label
                heappop(heap)
            leaf, minus_inverse, run = peeled[i]
            xl = _dot(x, run) * minus_inverse % p
            if xl:
                x[leaf] = xl
                for i in meets.get(leaf, ()):
                    heappush(heap, i)
        # on the original rows, in lanes
        vectors.append(sum(v << (row_of[l] * lanes.w) for l, v in x.items()))
    return rank, [lanes.unpack(v) for v in _canonical(vectors, lanes)]


def _lane_runs(pivots: list[int], above: list[int], lanes: _Lanes) -> list[dict[int, int]]:
    """The nonzero lanes below the lead of each lane pivot q in `above`,
    as {label: value} runs, read from one buffer of q lanes per pivot
    (no larger than the pivots)."""
    w = lanes.w
    buf = b"".join((pivots[q] ^ (1 << q * w)).to_bytes(q * w // 8, "little") for q in above)
    low = np.frombuffer(buf, dtype=lanes.dtype)[::max(1, w // 64)]
    nz = np.flatnonzero(low)
    starts = np.cumsum([0] + above)
    cut = np.searchsorted(nz, starts).tolist()
    ls = (nz - np.repeat(starts[:-1], np.diff(cut))).tolist()
    cs = low[nz].tolist()
    return [dict(zip(ls[a:b], cs[a:b])) for a, b in zip(cut, cut[1:])]


def _plane_solve(j: int, pivots: list, above: list[int]) -> dict[int, int]:
    """The core part of free label j's null vector at p = 3, as
    {label: value}: x_j = 1 and, for each plane pivot q in `above` in
    ascending order, x_q = -sum_{l<q} x_l * pivot_q[l] mod 3.  x is held
    on two planes (a, b), as the pivots are.  Since 1*1 = 2*2 = 1 and
    1*2 = -1 mod 3, x_q = |a & pb| + |b & pa| - |a & pa| - |b & pb| mod 3:
    four popcounts per pivot, the GF(3) twin of GF(2)'s parity."""
    a, b = 1 << j, 0
    for q in above:
        pa, pb = pivots[q]
        xq = ((a & pb).bit_count() + (b & pa).bit_count()
              - (a & pa).bit_count() - (b & pb).bit_count()) % 3
        if xq == 1:
            a |= 1 << q
        elif xq == 2:
            b |= 1 << q
    return {l: v for v, plane in ((1, a), (2, b)) for l in bit_indices(plane)}


def _dot(x: dict[int, int], run: dict[int, int]) -> int:
    """The sum of x[l] * run[l] over their common labels, read over the
    smaller of the two."""
    small, big = (x, run) if len(x) < len(run) else (run, x)
    return sum(c * big.get(l, 0) for l, c in small.items())


def _canonical(vectors: list[int], lanes: _Lanes) -> list[int]:
    """Reduced echelon form keyed by top lane, in ascending order, of a
    list of independent lane vectors: each vector is monic at its own
    top lane and zero at every other vector's."""
    p, w, m, k, qmask = lanes.p, lanes.w, lanes.m, lanes.k, lanes.qmask
    lane_mask = (1 << w) - 1
    out = _eliminate(vectors, lanes)[0]  # indexed by top lane
    tops = 0  # every bit of each earlier top lane
    # Ascending tops: each earlier vector is final and zero at every
    # other earlier top, so one read of v & tops finds every lane to clear.
    for top, v in enumerate(out):
        if v:
            hits = v & tops
            while hits:
                t = (hits.bit_length() - 1) // w
                y = v + (p - ((v >> t * w) & lane_mask)) * out[t]
                v = y - (((y * m) >> k) & qmask) * p
                hits &= (1 << t * w) - 1
            out[top] = v
            tops |= lane_mask << top * w
    return [v for v in out if v]
