"""Null-space structure analysis for sampled GF(2) matrices.

Classifies the 2^d - 1 nonzero codewords of the left null space into
small dependencies (weight <= omega), large ones (weight within a
sqrt(a n ln n) window around n/2) and anomalies (anything else, which
the limit theory says should not occur).  sigma counts the *fundamental*
small dependencies, i.e. minimal supports; lambda = d - sigma.

Fundamentality has two equivalent readings, and both are implemented:
minimality against the complete codeword list, and connectivity of the
graph induced on the support.  The graph takes an edge {a, b} from every
column with exactly two unit entries inside the support (columns of the
support itself contribute their off-diagonal edge; a column whose
diagonal was cancelled contributes nothing, the loop case).  With that
edge set the two verdicts agree exactly, instance by instance, because
a subset of the support is itself a dependency iff it is a union of
connected components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .gf2 import BitMatrix, _pair_components, _reduce, bit_indices, gf2_rank_nullspace
from .theory import window_halfwidth


WINDOW_A = 4.0  # the large band is J_a at this a
GUARD = 20  # the largest null-space dimension enumerate_codewords accepts


class GuardExceeded(RuntimeError):
    """Null-space dimension above the enumeration guard; refused, not truncated.

    ``dimension`` is the refused dimension, so the rank of an n-row
    matrix is n - dimension without a second elimination.  It defaults to
    None only so that the exception unpickles from its message.
    """

    def __init__(self, message: str, dimension: int | None = None):
        super().__init__(message)
        self.dimension = dimension


def default_omega(n: int) -> int:
    """Small/large weight threshold omega(n) = ceil(ln^2 n)."""
    return math.ceil(math.log(n) ** 2)


def in_large_window(w: int, n: int, a: float) -> bool:
    return abs(w - n / 2) <= window_halfwidth(n, a)


def _gray(vectors: Sequence[int]):
    """The 2^k - 1 nonzero XOR combinations of the vectors, in Gray-code order."""
    cur = 0
    for g in range(1, 1 << len(vectors)):
        cur ^= vectors[(g & -g).bit_length() - 1]
        yield cur


def enumerate_codewords(basis: Sequence[int]) -> list[tuple[int, int]]:
    """All 2^d - 1 nonzero codewords as (support, weight), Gray-code order.

    Refuses outright when d exceeds GUARD; the models analysed here
    have d = O(1) with high probability, so a hit indicates a bug
    upstream and silent truncation would hide it.
    """
    d = len(basis)
    if d > GUARD:
        raise GuardExceeded(f"null-space dimension {d} exceeds guard {GUARD}", d)
    return [(c, c.bit_count()) for c in _gray(basis)]


def fundamental_small(codewords: list[tuple[int, int]], omega: int) -> list[int]:
    """Supports of small codewords that strictly contain no other codeword.

    A dependency strictly inside a small one is itself small, so the
    scan can stay within the small list.
    """
    smalls = [(c, w) for c, w in codewords if w <= omega]
    out = []
    for c, w in smalls:
        if not any(c2 != c and c2 & c == c2 for c2, w2 in smalls if w2 <= w):
            out.append(c)
    return out


def count_overlapping_pairs(supports: list[int]) -> int:
    return sum(1 for i in range(len(supports))
               for j in range(i + 1, len(supports))
               if supports[i] & supports[j])


def connected_functional_digraph(m: BitMatrix, support: int) -> bool:
    """True iff the underlying graph induced on the support is connected.

    Every column with exactly two unit entries inside the support
    contributes an edge; zero-hit columns contribute nothing.  Agrees
    with the minimality test on every instance (see module docstring).
    Raises ValueError if the support is not a dependency of m or a column
    hits it more than twice (the 2-random-unit models never do).
    """
    picked = bit_indices(support)
    rows, cols = m.nonzero()
    label = np.full(m.n_rows, -1)
    label[picked] = np.arange(len(picked))
    inside = label[rows] >= 0
    rows, cols = label[rows[inside]], cols[inside]  # the support's entries, column-major
    if (np.bincount(cols) % 2).any():  # a column meets the support an odd number of times
        raise ValueError("support is not a dependency")
    return _pair_components(len(picked), rows, cols) == 1


def greedy_large_basis(codewords: list[tuple[int, int]], small_supports: list[int],
                       n: int) -> list[int]:
    """Independent set of large codewords, greedy in enumeration order.

    Independence is taken modulo the span of the small supports, so no
    two picks differ by a small dependency: a large codeword is picked
    iff :func:`fflab.gf2._reduce` adds it as a pivot to the slots indexed
    by bit length that the smalls and earlier picks fill.
    Large means a weight above default_omega(n) and inside J_a, a = WINDOW_A.
    """
    omega = default_omega(n)
    pivots = [0] * (n + 1)
    _reduce(small_supports, pivots)
    return [c for c, w in codewords
            if w > omega and in_large_window(w, n, WINDOW_A) and _reduce([c], pivots)]


def is_simple_sequence(vectors: list[int], n: int, a: float = 1.0) -> bool:
    """True iff every nonempty XOR combination has weight inside J_a."""
    return all(in_large_window(c.bit_count(), n, a) for c in _gray(vectors))


@dataclass(frozen=True)
class IntersectionStructure:
    """Cell sizes of the Venn partition of [n] induced by k large codewords.

    sizes[x] = |I_x| where bit i of the pattern x says whether the rows
    lie inside basis vector i.  Patterns run over all of {0,1}^k and the
    sizes always partition n.
    """

    k: int
    n: int
    sizes: tuple[int, ...]
    flagged: tuple[int, ...]  # patterns with |I_x| outside n/2^k (1 +- 4^k sqrt(ln n / n))


def intersection_structure(large_basis: list[int], n: int) -> IntersectionStructure:
    k = len(large_basis)
    if k < 1:
        raise ValueError("need at least one large codeword")
    full = (1 << n) - 1
    sizes = []
    flagged = []
    target = n / 2 ** k
    slack = 4 ** k * math.sqrt(math.log(n) / n)
    for x in range(1 << k):
        acc = full
        for i in range(k):
            acc &= large_basis[i] if (x >> i) & 1 else full ^ large_basis[i]
        size = acc.bit_count()
        sizes.append(size)
        if abs(size - target) > target * slack:
            flagged.append(x)
    assert sum(sizes) == n
    return IntersectionStructure(k, n, tuple(sizes), tuple(flagged))


def build_U(k: int) -> np.ndarray:
    """The (2^k - 1) square 0/1 matrix U(x, y) = parity of sum x_i y_i.

    Rows index XOR combinations of the basis sets, columns index Venn
    cells; U(x, y) = 1 exactly when cell y lies inside combination x.
    """
    if not 1 <= k <= 12:
        raise ValueError("k must be in 1..12")
    xs = np.arange(1, 1 << k, dtype=np.uint32)
    return (np.bitwise_count(xs[:, None] & xs[None, :]) & 1).astype(np.int64)


@dataclass
class NullSpaceReport:
    """Classified left null space of one sampled matrix."""

    n_rows: int
    rank: int
    d: int
    weights: list[int] = dc_field(default_factory=list)
    sigma: int = 0
    lam: int = 0
    small_supports: list[int] = dc_field(repr=False, default_factory=list)
    anomalies: list[int] = dc_field(default_factory=list)
    omega: int = 0
    disjoint_violations: int = 0
    equiv_violations: int = 0
    large_basis: list[int] = dc_field(repr=False, default_factory=list)
    large_basis_deficit: int = 0
    simple_a1: bool | None = None
    simple_a4: bool | None = None
    intersection_flags: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "rank": self.rank,
            "d": self.d,
            "weights": self.weights,
            "sigma": self.sigma,
            "lambda": self.lam,
            "small_supports": [bit_indices(s) for s in self.small_supports],
            "anomalies": self.anomalies,
            "omega": self.omega,
            "window_a": WINDOW_A,
            "disjoint_violations": self.disjoint_violations,
            "equiv_violations": self.equiv_violations,
            "large_basis_deficit": self.large_basis_deficit,
            "simple_a1": self.simple_a1,
            "simple_a4": self.simple_a4,
            "intersection_flags": self.intersection_flags,
        }


def classify(codewords: list[tuple[int, int]], n: int) -> NullSpaceReport:
    """Report on a complete codeword list at omega = default_omega(n), a = WINDOW_A.

    Anomalies are weights in neither band; they are recorded, never
    fatal.  sigma counts fundamental smalls, lambda is d - sigma.
    """
    count = len(codewords)
    d = (count + 1).bit_length() - 1
    if (1 << d) - 1 != count:
        raise ValueError("codeword list is not complete (expected 2^d - 1 entries)")
    omega = default_omega(n)
    weights = [w for _, w in codewords]
    fundamentals = fundamental_small(codewords, omega)
    anomalies = [w for w in weights
                 if w > omega and not in_large_window(w, n, WINDOW_A)]
    sigma = len(fundamentals)
    return NullSpaceReport(
        n_rows=n,
        rank=n - d,
        d=d,
        weights=weights,
        sigma=sigma,
        lam=d - sigma,
        small_supports=fundamentals,
        anomalies=anomalies,
        omega=omega,
        disjoint_violations=count_overlapping_pairs(fundamentals),
    )


def analyze_matrix(m: BitMatrix) -> NullSpaceReport:
    """Full pipeline at omega = default_omega(n) and a = WINDOW_A: rank,
    null basis, codewords, classification, checks.

    Raises GuardExceeded when the null-space dimension is above GUARD.
    Every small codeword's fundamental verdict is re-derived
    through the connectivity definition, and mismatches are counted.
    """
    n = m.n_rows
    rank, basis = gf2_rank_nullspace(m)
    codewords = enumerate_codewords(basis)
    report = classify(codewords, n)
    assert report.rank == rank
    fundamentals = set(report.small_supports)
    for c, w in codewords:
        if w <= report.omega and connected_functional_digraph(m, c) != (c in fundamentals):
            report.equiv_violations += 1
    report.large_basis = greedy_large_basis(codewords, report.small_supports, n)
    report.large_basis_deficit = report.lam - len(report.large_basis)
    if report.large_basis:
        report.simple_a1 = is_simple_sequence(report.large_basis, n, 1.0)
        report.simple_a4 = is_simple_sequence(report.large_basis, n, WINDOW_A)
        if report.simple_a4:
            report.intersection_flags = len(
                intersection_structure(report.large_basis, n).flagged)
    return report
