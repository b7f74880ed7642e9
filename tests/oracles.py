"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: dense 0/1 arrays with explicit
modular arithmetic, exhaustive enumeration, brute-force connectivity.
None of it shares code with the package under test.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np


def is_prime_trial_division(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def rank_mod2_dense(dense: np.ndarray) -> int:
    """Textbook row-echelon rank of a dense 0/1 matrix, arithmetic mod 2."""
    a = (np.asarray(dense, dtype=np.int64) % 2).copy()
    m, n = a.shape
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if a[i, c] % 2 == 1:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        for i in range(m):
            if i != r and a[i, c] % 2 == 1:
                a[i, :] = (a[i, :] + a[r, :]) % 2
        r += 1
        if r == m:
            break
    return r


def rank_modp_dense(dense: np.ndarray, p: int) -> int:
    """Row-echelon rank of a dense matrix with entries reduced mod p.

    Arithmetic is on Python ints (object arrays), so no product can
    overflow, whatever the size of p.
    """
    a = np.array([[x % p for x in row] for row in np.asarray(dense).tolist()],
                 dtype=object).reshape(np.shape(dense))
    m, n = a.shape
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if a[i, c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        inv = pow(a[r, c], -1, p)
        a[r, :] = (a[r, :] * inv) % p
        for i in range(m):
            if i != r and a[i, c] % p != 0:
                a[i, :] = (a[i, :] - a[i, c] * a[r, :]) % p
        r += 1
        if r == m:
            break
    return r


def left_nullspace_canonical_dense(dense: np.ndarray) -> tuple[list[int], list[int]]:
    """The canonical left null space basis of a dense 0/1 matrix, mod 2.

    Rows are reduced in order against an echelon basis of the
    independent rows before them, with each row's combination of
    original rows carried along.  Returns D, the ascending list of rows
    i that lie in the span of rows < i, and, for each i in D, the unique
    null vector whose support meets D only at i, as an int with bit k
    selecting row k.
    """
    a = np.asarray(dense, dtype=np.int64) % 2
    m = a.shape[0]
    echelon = []  # (reduced row, combination of original rows, pivot column)
    deps, vectors = [], []
    for i in range(m):
        row = a[i].copy()
        comb = np.zeros(m, dtype=np.int64)
        comb[i] = 1
        for b, b_comb, c in echelon:
            if row[c]:
                row = (row + b) % 2
                comb = (comb + b_comb) % 2
        if row.any():
            echelon.append((row, comb, int(np.flatnonzero(row)[0])))
        else:
            deps.append(i)
            vectors.append(sum(1 << int(k) for k in np.flatnonzero(comb)))
    return deps, vectors


def left_nullspace_canonical_modp_dense(dense: np.ndarray, p: int) -> tuple[list[int], list[list[int]]]:
    """The canonical left null space basis of a dense matrix, mod p.

    The GF(p) analogue of :func:`left_nullspace_canonical_dense`, on
    Python ints throughout.  Rows are reduced in order against monic
    echelon rows of the independent rows before them, each carrying its
    combination of original rows.  Returns D, the ascending list of rows
    i that lie in the span of rows < i, and, for each i in D, the unique
    null vector with coefficient 1 at i and 0 at every other row of D, as
    a list of residues indexed by row.
    """
    a = [[int(x) % p for x in row] for row in np.asarray(dense).tolist()]
    m = len(a)
    echelon = []  # (reduced row, combination of original rows, pivot column)
    deps, vectors = [], []
    for i in range(m):
        row = list(a[i])
        comb = [0] * m
        comb[i] = 1
        for b, b_comb, c in echelon:
            f = row[c]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, b)]
                comb = [(x - f * y) % p for x, y in zip(comb, b_comb)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            deps.append(i)
            vectors.append(comb)
        else:
            inv = pow(row[lead], -1, p)
            echelon.append(([x * inv % p for x in row], [x * inv % p for x in comb], lead))
    return deps, vectors


def gf2_vecmat(x: int, m) -> int:
    """x M over GF(2) for a BitMatrix m, read entry by entry off
    m.nonzero(): bit i of x selects row i, and bit j of the result is the
    parity of the selected set entries in column j."""
    out = 0
    for r, c in zip(*(a.tolist() for a in m.nonzero())):
        out ^= (x >> r & 1) << c
    return out


def gfp_vecmat(x, m) -> np.ndarray:
    """x M mod p for a PrimeFieldMatrix m and a length-n_rows residue
    vector x, summed entry by entry off m.nonzero() in Python ints, so it
    is exact for every prime (int64 products overflow once p^2 > 2^63)."""
    xs = np.asarray(x, dtype=np.int64).tolist()
    acc = [0] * m.n_cols
    for r, c, v in zip(*(a.tolist() for a in m.nonzero())):
        acc[c] += xs[r] * v
    return np.array([a % m.p for a in acc], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _subspace_levels(m: int) -> list[set[frozenset[int]]]:
    """All subspaces of GF(2)^m, grouped by dimension, by breadth-first
    closure: extend every known subspace by every outside vector."""
    levels = [{frozenset({0})}]
    while True:
        grown: set[frozenset[int]] = set()
        for sp in levels[-1]:
            for v in range(1, 1 << m):
                if v not in sp:
                    grown.add(frozenset(x ^ w for x in sp for w in (0, v)))
        if not grown:
            return levels
        levels.append(grown)


def count_subspaces_gf2(m: int, r: int) -> int:
    """Count r-dimensional subspaces of GF(2)^m by exhaustive enumeration.

    Only sane for m <= 6.
    """
    levels = _subspace_levels(m)
    return len(levels[r]) if r < len(levels) else 0


def inversion_generating_function(m: int, r: int, q: int) -> int:
    """Sum of q^(#inversions) over all 0/1 sequences of length m with r ones.

    An inversion is a pair (1, 0) with the 1 earlier in the sequence.
    """
    total = 0
    for ones in itertools.combinations(range(m), r):
        inv = 0
        for pos in ones:
            inv += sum(1 for j in range(pos + 1, m) if j not in ones)
        total += q ** inv
    return total


def _connected(edges: list[tuple[int, int]], nv: int) -> bool:
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(nv)}) == 1


def mapping_connectivity_fraction(s: int, fixed_points_allowed: bool) -> Fraction:
    """Fraction of functional digraphs on s vertices whose underlying graph
    is connected, by brute force over all mappings.

    With fixed_points_allowed=False, mappings with f(i) = i are excluded
    (each vertex points to one of the other s-1).
    """
    if s == 1:
        if not fixed_points_allowed:
            raise ValueError("no fixed-point-free mapping on one vertex")
        return Fraction(1)
    targets = [list(range(s)) if fixed_points_allowed
               else [j for j in range(s)] for _ in range(s)]
    total = 0
    good = 0
    for f in itertools.product(range(s), repeat=s):
        if not fixed_points_allowed and any(f[i] == i for i in range(s)):
            continue
        total += 1
        edges = [(i, f[i]) for i in range(s) if f[i] != i]
        if _connected(edges, s):
            good += 1
    return Fraction(good, total)


def expected_deps_direct(n: int, ell: int, model: str) -> float:
    """E X_ell evaluated directly (no log space). Usable only for small n."""
    if model == "with":
        if ell <= 0 or ell >= n:
            return 0.0
        return (math.comb(n, ell)
                * (2 * (ell / n) * ((n - ell) / n)) ** ell
                * ((ell / n) ** 2 + ((n - ell) / n) ** 2) ** (n - ell))
    if ell <= 1 or ell >= n:
        return 0.0
    d = (n - 1) * (n - 2)
    return (math.comb(n, ell)
            * (2 * (ell - 1) * (n - ell) / d) ** ell
            * ((ell * (ell - 1) + (n - 1 - ell) * (n - 2 - ell)) / d) ** (n - ell))


def expected_deps_enumerated(n: int, ell: int, model: str) -> Fraction:
    """E X_ell as an exact Fraction, by enumerating every column's draws.

    Column i holds its own row i and two random rows: any of the n^2
    ordered pairs with replacement, or one of the (n-1)(n-2) ordered
    pairs of distinct rows away from i without.  For each ell-subset S
    of rows, take the fraction of each column's pairs that leave the
    column even on S, multiply over the columns and sum over S.
    Usable only for small n.
    """
    if model == "with":
        pairs = [[(u, v) for u in range(n) for v in range(n)] for _ in range(n)]
    else:
        pairs = [[(u, v) for u in range(n) for v in range(n) if len({i, u, v}) == 3]
                 for i in range(n)]
    total = Fraction(0)
    for rows in itertools.combinations(range(n), ell):
        S = set(rows)
        prob = Fraction(1)
        for i in range(n):
            even = sum(((i in S) + (u in S) + (v in S)) % 2 == 0 for u, v in pairs[i])
            prob *= Fraction(even, len(pairs[i]))
            if not prob:
                break
        total += prob
    return total

