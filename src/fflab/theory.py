"""Exact evaluation of the limiting quantities for the incidence models.

All series and infinite products are truncated by explicit term-size
bounds, never by fixed iteration counts.  Internals run in 50-digit
`decimal` arithmetic (the published 4-digit constants demand comfortably
more than float headroom once products of many near-unit factors are
involved); public functions return plain floats or exact ints/Fractions.

Quantities:

* sigma_s / kappa_s: connectivity constants of random functional
  digraphs, exact rationals.
* phi: Poisson rate of small fundamental dependencies, one variant per
  replacement mode.
* pi(k): the limiting law of the large-part dimension.
* P*(h, r; m): survival probability that h of h+r large dependencies
  persist in the presence of m small ones.
* P(sigma, lambda) and the co-rank distribution assembled from them.
* E X_ell: exact expected number of ell-row dependencies at finite n,
  evaluated in log space.
"""
from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

WITH = "with"
WITHOUT = "without"
# What tells the replacement modes apart: the rows a column's random
# entries avoid, none with replacement and the column's own row without.
_EXCLUDED = {WITH: 0, WITHOUT: 1}
REPLACEMENTS = tuple(_EXCLUDED)  # the replacement modes, here and in models

_PRODUCT_TRUNC = 1e-15   # drop product factors within this of unity
_MAX_TERMS = 100_000
_EXACT = decimal.Context(prec=50)   # the working precision of every internal sum


def _excluded(model: str) -> int:
    """The rows a column's random entries avoid under `model`."""
    if model not in REPLACEMENTS:
        raise ValueError(f"model must be '{WITH}' or '{WITHOUT}', got {model!r}")
    return _EXCLUDED[model]


def sigma_kappa(s: int, model: str = WITH) -> tuple[Fraction, Fraction]:
    """Connectivity constants (sigma_s, kappa_s) as exact rationals.

    kappa_s is the probability that the underlying graph of a uniform
    functional digraph on s vertices is connected; with e excluded rows
    each vertex maps to one of s - e vertices, so the denominator is (s-e)^s.
    """
    e = _excluded(model)
    if s < 1 + e:
        raise ValueError(f"s must be >= {1 + e} for the {model}-replacement model")
    sig = sum(Fraction(s ** j, math.factorial(j)) for j in range(s - e))
    return sig, Fraction(math.factorial(s - 1), (s - e) ** s) * sig


def _phi_series(base: Decimal, start: int, tol: float) -> tuple[Decimal, int]:
    """sum_{l>=start} base^l / l * sum_{j=0}^{l-start} l^j / j!"""
    cutoff = Decimal(tol) * Decimal("1e-2")
    total = Decimal(0)
    for l in range(start, _MAX_TERMS):
        inner = pw = Decimal(1)
        for j in range(1, l - start + 1):
            pw = pw * l / j
            inner += pw
        term = base ** l / l * inner
        total += term
        if term < cutoff:
            break
    return total, l - start + 1


def _phi_mp(model: str, tol: float) -> tuple[Decimal, int]:
    """phi for `model` and the series length used."""
    start = 1 + _excluded(model)
    if not 0 < tol < 1:  # nan fails this too
        raise ValueError(f"tol must be positive and below 1, got {tol}")
    with decimal.localcontext(_EXACT):
        return _phi_series(2 * Decimal(-2).exp(), start, tol)


def phi(model: str = WITH, tol: float = 1e-9) -> float:
    """Poisson rate of small fundamental dependencies (r=1, s=3).

    With replacement the sum starts at single rows; without replacement
    single-row and fixed-point terms drop and it starts at pairs.
    Numerically ~0.5215 (with) and ~0.1151 (without).
    """
    return float(_phi_mp(model, tol)[0])


def _pi_product_length() -> int:
    jmax = 1
    while 2.0 ** -jmax >= _PRODUCT_TRUNC:
        jmax += 1
    return jmax


@functools.cache
def _pi_mp(k: int) -> Decimal:
    jmax = _pi_product_length()

    def prod(j0: int, j1: int) -> Decimal:
        out = Decimal(1)
        for j in range(j0, j1 + 1):
            out *= 1 - Decimal(2) ** -j
        return out

    with decimal.localcontext(_EXACT):
        return prod(k + 1, jmax) / prod(1, k) * Decimal(2) ** (-k * k)


def pi_k(k: int) -> float:
    """Limiting probability that the large part spans dimension k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return float(_pi_mp(k))


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Exact q-binomial: the number of r-dim subspaces of GF(q)^m."""
    if q < 2 or r < 0 or r > m:
        raise ValueError(f"need q >= 2 and 0 <= r <= m, got q={q}, r={r}, m={m}")
    num = 1
    den = 1
    for i in range(1, r + 1):
        num *= q ** (m - i + 1) - 1
        den *= q ** i - 1
    assert num % den == 0
    return num // den


@functools.cache
def _p_star_mp(h: int, r: int, m: int) -> Fraction:
    if h < 0 or r < 0 or r > m:
        raise ValueError("need h >= 0 and 0 <= r <= m")
    v = Fraction(gaussian_binomial(m, r, 2), 2 ** ((h + r) * (m - r)))
    for j in range(h + 1, h + r + 1):
        v *= 1 - Fraction(1, 2 ** j)
    return v


def p_star(h: int, r: int, m: int) -> float:
    """Survival probability P*(h, h+r; m): of h+r large dependencies, h
    persist after m small ones are added back.  Empty products are 1."""
    return float(_p_star_mp(h, r, m))


def _p_joint_mp(sigma: int, lam: int, phi_value: Decimal) -> Decimal:
    s = Decimal(0)
    for r in range(0, sigma + 1):
        ps = _p_star_mp(lam, r, sigma)
        s += _pi_mp(lam + r) * ps.numerator / ps.denominator
    weight = phi_value ** sigma if sigma else Decimal(1)   # Decimal refuses 0 ** 0
    return weight / math.factorial(sigma) * (-phi_value).exp() * s


def p_joint(sigma: int, lam: int, phi_value: float) -> float:
    """Limiting joint probability of sigma small fundamentals and a
    lambda-dimensional large part, mixing Poisson(phi) with pi through
    the survival factors."""
    if sigma < 0 or lam < 0 or not 0 <= phi_value < math.inf:  # nan fails the last
        raise ValueError(f"need sigma, lambda >= 0 and a finite phi >= 0, got "
                         f"sigma={sigma}, lambda={lam}, phi={phi_value}")
    with decimal.localcontext(_EXACT):
        return float(_p_joint_mp(sigma, lam, Decimal(phi_value)))


def expected_num_deps(n: int, ell: int, model: str = WITH) -> float:
    """Exact E X_ell, the expected number of ell-row dependencies at
    finite n (r=1, s=3), evaluated in log space via lgamma.  With e
    excluded rows a column's two random rows are one of (n-e)(n-2e)
    equally likely ordered pairs."""
    e = _excluded(model)
    if not 1 <= ell <= n:
        raise ValueError("need 1 <= ell <= n")
    if ell <= e or ell == n:
        return 0.0
    den = (n - e) * (n - 2 * e)
    inner = ell * (ell - e) + (n - e - ell) * (n - 2 * e - ell)
    ln_c = math.lgamma(n + 1) - math.lgamma(ell + 1) - math.lgamma(n - ell + 1)
    ln_dep = ell * (math.log(2) + math.log(ell - e) + math.log(n - ell)
                    - math.log(n - e) - math.log(n - 2 * e))
    ln_out = (n - ell) * math.log(inner / den)
    return math.exp(ln_c + ln_dep + ln_out)


def verify_q_system(k_max: int) -> float:
    """Max residual |sum_{lam>=k} pi(lam) prod_{i<k}(2^lam - 2^i) - 1|
    over k = 0..k_max, with lam summed to k + 60."""
    if not 0 <= k_max <= 8:
        raise ValueError(f"k_max must lie in 0..8, got {k_max}")
    worst = 0.0
    with decimal.localcontext(_EXACT):
        for k in range(k_max + 1):
            total = Decimal(0)
            for lam in range(k, k + 61):
                prod = Decimal(1)
                for i in range(k):
                    prod *= Decimal(2) ** lam - Decimal(2) ** i
                total += _pi_mp(lam) * prod
            worst = max(worst, abs(float(total - 1)))
    return worst


def window_halfwidth(n: int, a: float) -> float:
    """Half-width sqrt(a n ln n) of the large-weight window J_a around n/2."""
    return math.sqrt(a * n * math.log(n))


def window_range(n: int, a: float) -> range:
    """Integer weights inside J_a = [n/2 - sqrt(a n ln n), n/2 + sqrt(a n ln n)],
    clamped to the feasible sizes 1..n."""
    half = window_halfwidth(n, a)
    return range(max(1, math.ceil(n / 2 - half)),
                 min(n, math.floor(n / 2 + half)) + 1)


def first_moment_window_sum(n: int, a: float = 1.0, model: str = WITH) -> float:
    """sum over J_a of E X_ell; tends to 1 for a >= 1."""
    return sum(expected_num_deps(n, ell, model) for ell in window_range(n, a))


@dataclass(frozen=True)
class TheoryTable:
    """Exact limiting quantities for one model, at a stated tolerance."""

    model: str
    phi: float
    pi: tuple[float, ...]                          # k = 0..12
    p_star: dict[tuple[int, int, int], float]      # (h, r, m), h + r and m <= 8
    joint: dict[tuple[int, int], float]            # (sigma, lambda)
    corank: tuple[float, ...]                      # d = 0..12
    tol: float
    phi_terms: int                                 # series length used for phi
    pi_factors: int                                # product length used for pi

    @property
    def full_rank_probability(self) -> float:
        return self.corank[0]

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "phi": self.phi,
            "tol": self.tol,
            "phi_terms": self.phi_terms,
            "pi_factors": self.pi_factors,
            "pi": list(self.pi),
            "p_star": [{"h": h, "r": r, "m": m, "value": v}
                       for (h, r, m), v in sorted(self.p_star.items())],
            "joint": [{"sigma": s, "lambda": l, "value": v}
                      for (s, l), v in sorted(self.joint.items())],
            "corank": list(self.corank),
        }


def build_table(model: str = WITHOUT, tol: float = 1e-9) -> TheoryTable:
    """Assemble the full theory table on the 0..12 grid; normalisation is checked here."""
    with decimal.localcontext(_EXACT):
        ph, terms = _phi_mp(model, tol)
        pi_vals = tuple(float(_pi_mp(k)) for k in range(13))
        pstar = {(k - r, r, m): float(_p_star_mp(k - r, r, m))
                 for m in range(9) for k in range(9) for r in range(min(m, k) + 1)}
        joint_mp = {(s, l): _p_joint_mp(s, l, ph) for s in range(13) for l in range(13)}
        corank = tuple(float(sum(joint_mp[s, d - s] for s in range(d + 1)))
                       for d in range(13))
        joint = {cell: float(v) for cell, v in joint_mp.items()}
    for label, total in (("pi", sum(pi_vals)), ("corank", sum(corank)),
                         ("joint", sum(joint.values()))):
        if abs(total - 1) > 1e-9:
            raise AssertionError(f"{label} table fails normalisation: {total}")
    return TheoryTable(model=model, phi=float(ph), pi=pi_vals,
                       p_star=pstar, joint=joint, corank=corank,
                       tol=tol, phi_terms=terms, pi_factors=_pi_product_length())
