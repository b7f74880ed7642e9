"""Exact linear algebra over prime fields GF(p) on packed lanes.

Same contract as the GF(2) side: row rank plus a basis of the *left*
null space {x : xM = 0 mod p}.  Entries are int64 residues in [0, p).
Prime moduli only; extension fields are out of scope.

Elimination works on the rows: each row lives in one Python int, and a
dictionary maps each leading position to a pivot row, the skeleton of
:func:`fflab.gf2._reduce`.  A column is a *lane* of w bits instead of a
single bit, and the XOR row operation becomes a lane-wise multiply-add
followed by a lane-wise reduction mod p (see :class:`_Lanes`).  The null
space carries the transform in n_rows identity lanes below the matrix
lanes.  Python ints never overflow, so the engine is exact for every
prime.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class PrimeFieldMatrix:
    p: int
    n_rows: int
    n_cols: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.p >= 2**63:
            raise ValueError(f"modulus {self.p} is too large: residues must fit int64")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("dimension-zero matrix rejected")
        if self.entries.shape != (self.n_rows, self.n_cols):
            raise ValueError("entries shape mismatch")
        if self.entries.dtype != np.int64:
            raise ValueError("entries must be int64")
        if int(self.entries.min(initial=0)) < 0 or int(self.entries.max(initial=0)) >= self.p:
            raise ValueError("entries must be residues in [0, p)")

    @classmethod
    def zeros(cls, p: int, n_rows: int, n_cols: int) -> "PrimeFieldMatrix":
        return cls(p, n_rows, n_cols, np.zeros((n_rows, n_cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "PrimeFieldMatrix":
        return cls(p, n, n, np.eye(n, dtype=np.int64))

    @classmethod
    def from_dense(cls, dense: np.ndarray, p: int) -> "PrimeFieldMatrix":
        a = np.asarray(dense, dtype=np.int64) % p
        return cls(p, a.shape[0], a.shape[1], a)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PrimeFieldMatrix)
                and self.p == other.p
                and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols
                and bool(np.array_equal(self.entries, other.entries)))


def gfp_vecmat(x: np.ndarray, m: PrimeFieldMatrix) -> np.ndarray:
    """x M mod p for a length-n_rows residue vector x.

    Sums in Python ints: int64 dot products overflow once p^2 > 2^63.
    """
    exact = np.asarray(x, dtype=np.int64).astype(object) @ m.entries.astype(object)
    return (exact % m.p).astype(np.int64)


class _Lanes:
    """Lane layout and lane-wise reduction mod p for packed rows.

    Lane c of a row int holds bits [c*w, (c+1)*w).  A row operation
    y = v + (p - f) * pivot on rows with lanes in [0, p) leaves every lane
    below p + (p-1)^2 < p^2 without carries, and
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
        self.k = (p ** 3).bit_length()
        self.m = -(-(1 << self.k) // p)
        qbits = (p - 1).bit_length()
        need = max(((p * p - 1) * self.m).bit_length(), self.k + qbits)
        self.w = max(8, 1 << (need - 1).bit_length()) if need <= 64 else -(-need // 64) * 64
        self.dtype = f"<u{min(self.w, 64) // 8}"
        ones = ((1 << (self.w * n_lanes)) - 1) // ((1 << self.w) - 1)  # bit 0 of every lane
        self.qmask = ((1 << qbits) - 1) * ones

    def pack(self, entries: np.ndarray) -> list[int]:
        """One int per row of a residue matrix, column c in lane c."""
        nr, nc = entries.shape
        lanes = np.zeros((nr, nc, max(1, self.w // 64)), dtype=self.dtype)
        lanes[:, :, 0] = entries
        buf = lanes.tobytes()
        stride = nc * self.w // 8
        return [int.from_bytes(buf[i * stride:(i + 1) * stride], "little")
                for i in range(nr)]

    def unpack(self, v: int, n_lanes: int) -> np.ndarray:
        """Lanes 0 .. n_lanes-1 of v as an int64 residue vector."""
        low = v & ((1 << (self.w * n_lanes)) - 1)
        lanes = np.frombuffer(low.to_bytes(n_lanes * self.w // 8, "little"), dtype=self.dtype)
        return lanes.reshape(n_lanes, -1)[:, 0].astype(np.int64)


def _eliminate(rows: list[int], lanes: _Lanes, stop: int) -> tuple[int, list[int]]:
    """Reduce rows against monic pivots keyed by leading lane.

    A row whose leading lane falls below ``stop`` (or that cancels to
    zero) depends on earlier rows and is returned as it stands.  Returns
    the number of pivots and the dependent rows, in row order.
    """
    p, w, m, k, qmask = lanes.p, lanes.w, lanes.m, lanes.k, lanes.qmask
    pivots: dict[int, int] = {}
    deps: list[int] = []
    for v in rows:
        while True:
            lead = (v.bit_length() - 1) // w
            if lead < stop:
                deps.append(v)
                break
            f = v >> (lead * w)  # the leading lane is the top of v
            hit = pivots.get(lead)
            if hit is None:
                y = v * pow(f, -1, p)
                pivots[lead] = y - (((y * m) >> k) & qmask) * p
                break
            y = v + (p - f) * hit
            v = y - (((y * m) >> k) & qmask) * p
    return len(pivots), deps


def gfp_rank(m: PrimeFieldMatrix) -> int:
    """Row rank over GF(p), no transform carried (fast path for audits)."""
    lanes = _Lanes(m.p, m.n_cols)
    return _eliminate(lanes.pack(m.entries), lanes, 0)[0]


def gfp_rank_nullspace(m: PrimeFieldMatrix) -> tuple[int, list[np.ndarray]]:
    """Rank and left-null-space basis over GF(p).

    Row i carries the matrix row in the upper n_cols lanes and the unit
    vector e_i in the lower n_rows lanes, which accumulate the transform.
    A row whose leading lane falls into the lower part has a zero matrix
    part, and its lower lanes are a dependency.  Each basis vector x
    satisfies x M = 0 (mod p), and rank + len(basis) == n_rows.
    """
    nr = m.n_rows
    lanes = _Lanes(m.p, nr + m.n_cols)
    shift = nr * lanes.w
    rows = [(v << shift) | (1 << (i * lanes.w))
            for i, v in enumerate(lanes.pack(m.entries))]
    rank, deps = _eliminate(rows, lanes, nr)
    return rank, [lanes.unpack(v, nr) for v in deps]
