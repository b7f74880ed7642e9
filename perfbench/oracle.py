"""Reference results for the benchmark's models, computed without fflab.

The sampler follows the seed schedule fflab documents for the r=1, s=3
model without replacement: trial t of master seed m draws from
PCG64(SeedSequence(m, spawn_key=(t,))), and all off-diagonal rows come
from one integers() call with exclusive highs (n-1, n-2), each draw then
shifted past the rows its column already uses.  GF(3) Model 1 places a 1
at each of those positions and draws nothing else.

The GF(2) kernel is found by eliminating rows in reverse order, so its
basis generally differs from fflab's.  Only fields that do not depend on
the basis are returned: rank, corank, the fundamental small count sigma,
lambda, the sorted codeword weights and the anomaly count.
"""
from __future__ import annotations

import math

import numpy as np

GUARD = 20        # fflab's default enumeration guard
WINDOW_A = 4.0    # fflab's default large-weight window


def positions(master_seed: int, trial: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two off-diagonal rows of every column, distinct and away from the diagonal."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial,))
    rng = np.random.Generator(np.random.PCG64(ss))
    raw = rng.integers(0, np.array([n - 1, n - 2]), size=(n, 2))
    diag = np.arange(n)
    first = raw[:, 0] + (raw[:, 0] >= diag)
    second = raw[:, 1] + (raw[:, 1] >= np.minimum(diag, first))
    second += second >= np.maximum(diag, first)
    return first, second


def gf2_fields(master_seed: int, trial: int, n: int) -> list:
    """[trial, rank, corank, sigma, lam, sorted weights, anomaly count] of one trial.

    The last four are None when the corank exceeds the guard, as in fflab.
    """
    first, second = positions(master_seed, trial, n)
    cols_of_row: list[list[int]] = [[c] for c in range(n)]
    for c, (a, b) in enumerate(zip(first.tolist(), second.tolist())):
        cols_of_row[a].append(c)
        cols_of_row[b].append(c)
    rows = [sum(1 << c for c in cols) for cols in cols_of_row]
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for i in range(n - 1, -1, -1):
        v, t = rows[i], 1 << i
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (v, t)
                break
            pv, pt = pivots[lead]
            v ^= pv
            t ^= pt
        else:
            kernel.append(t)
    d = len(kernel)
    if d > GUARD:
        return [trial, n - d, d, None, None, None, None]
    span = [0]
    for vec in kernel:
        span += [w ^ vec for w in span]
    codewords = span[1:]
    omega = math.ceil(math.log(n) ** 2)
    half = math.sqrt(WINDOW_A * n * math.log(n))
    small = [c for c in codewords if c.bit_count() <= omega]
    # any codeword strictly inside a small one is itself small
    sigma = sum(1 for c in small if not any(o != c and o & c == o for o in small))
    weights = sorted(c.bit_count() for c in codewords)
    anomalies = sum(1 for w in weights if w > omega and abs(w - n / 2) > half)
    return [trial, n - d, d, sigma, d - sigma, weights, anomalies]


def gf3_model1_corank(master_seed: int, trial: int, n: int) -> int:
    """Corank over GF(3) of one Model 1 trial, by elimination on the transpose."""
    first, second = positions(master_seed, trial, n)
    a = np.zeros((n, n), dtype=np.int8)   # row c of a is column c of the matrix
    diag = np.arange(n)
    a[diag, diag] = 1
    a[diag, first] = 1
    a[diag, second] = 1
    rank = 0
    for c in range(n):
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        if a[rank, c] == 2:
            a[rank, c:] = (2 * a[rank, c:]) % 3
        below = rank + 1 + np.flatnonzero(a[rank + 1:, c])
        if below.size:
            # columns left of c are already zero in every row from rank on
            a[below, c:] = (a[below, c:] - a[below, c:c + 1] * a[rank, c:]) % 3
        rank += 1
        if rank == n:
            break
    return n - rank
