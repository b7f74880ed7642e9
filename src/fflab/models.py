"""Seeded sampler for the random incidence-matrix models.

A configuration describes an n x rn matrix: for every row index i there
are r columns, each carrying a unit entry on row i (the diagonal of its
block) plus s-1 random unit entries.  "with" replacement draws those
rows i.i.d. from [n] and lets coinciding entries cancel over GF(2);
"without" replacement draws them distinct and away from i.

Prime-field variants (s=3, without replacement, one column block) come
in three flavours: all entries 1; diagonal 1 with the two off-diagonal
values drawn from a distribution f on the nonzero residues; or all
three values drawn from f.

Sampling is a pure function of (config, trial): the per-trial generator
is derived from the master seed and trial index alone, so trials can be
produced in any order and on any number of workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BitMatrix, _pair_components
from .gfp import PrimeFieldMatrix, check_modulus
from .theory import REPLACEMENTS, WITH, WITHOUT


@dataclass(frozen=True)
class ModelConfig:
    """Full description of a sampling model."""

    n: int
    r: int = 1
    s: int = 3
    replacement: str = WITHOUT
    p: int | None = None           # prime modulus; set exactly for GF(p) models
    gft_model: int | None = None   # 1 | 2 | 3 for GF(p)
    f_dist: tuple[float, ...] | None = None  # probs of residues 1..p-1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.s < 2:
            raise ValueError("s must be >= 2")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.replacement not in REPLACEMENTS:
            raise ValueError(f"unknown replacement mode {self.replacement!r}")
        if self.replacement == WITHOUT and self.s - 1 > self.n - 1:
            raise ValueError("without replacement requires s-1 <= n-1")
        if self.f_dist is not None and self.gft_model not in (2, 3):
            raise ValueError("f_dist applies only to GF(p) Models 2 and 3")
        if self.p is None:
            if self.gft_model is not None:
                raise ValueError("gft_model requires a prime modulus p")
            return
        check_modulus(self.p)
        if self.gft_model not in (1, 2, 3):
            raise ValueError("gft_model must be 1, 2 or 3")
        if self.s != 3 or self.replacement != WITHOUT or self.r != 1:
            raise ValueError("gfp models are defined for r=1, s=3, without replacement")
        if self.f_dist is not None:
            f = self.f_dist
            if len(f) != self.p - 1:
                raise ValueError("f_dist must give probabilities for residues 1..p-1")
            if not all(x >= 0 for x in f):  # nan fails x >= 0
                raise ValueError("f_dist entries must be nonnegative")
            if abs(sum(f) - 1.0) > 1e-12:
                raise ValueError("f_dist must sum to 1 within 1e-12")

    def tag(self) -> str:
        if self.p is None:
            return f"gf2:r{self.r}:s{self.s}:{self.replacement}"
        return f"gf{self.p}:model{self.gft_model}"


def trial_generator(cfg: ModelConfig, trial: int) -> np.random.Generator:
    """Stable per-trial RNG: SeedSequence(master_seed) spawned at key (trial,)."""
    ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(ss))


def _draw_positions(rng: np.random.Generator, n: int, r: int, s: int,
                    replacement: str) -> np.ndarray:
    """Row positions of the s entries of every column, shape (r*n, s).

    Column c is block c//n; its entry 0 is the diagonal row c%n and
    entries 1..s-1 are random.  The raw uniforms for all columns come
    from a single generator call (column-major, entry slots within a
    column consecutive), so streams are reproducible for a given
    (config, trial) regardless of caller.
    """
    rn = r * n
    out = np.empty((rn, s), dtype=np.int64)
    out[:, 0] = np.tile(np.arange(n), r)
    if replacement == WITH:
        out[:, 1:] = rng.integers(0, n, size=(rn, s - 1))
        return out
    highs = n - 1 - np.arange(s - 1)
    raw = rng.integers(0, highs, size=(rn, s - 1))
    for t in range(1, s):
        x = raw[:, t - 1].copy()
        excl = np.sort(out[:, :t], axis=1)  # skip the rows drawn so far, in order
        for j in range(t):
            x += x >= excl[:, j]
        out[:, t] = x
    return out


def sample(cfg: ModelConfig, trial: int) -> BitMatrix | PrimeFieldMatrix:
    """Sample the configured model for one trial.

    Column i of block j holds a unit at row i and s-1 random unit rows.
    Over GF(2) with replacement all s entries accumulate (a random hit
    on the diagonal row cancels it); without replacement the random
    rows are distinct and never equal to i.  A GF(p) model takes its
    positions from the same draw, then its values (when the model has
    any): off-diagonal values from f first, then diagonal values for
    Model 3.  So Model 3 over GF(2) with f = {1: 1.0} equals the GF(2)
    model under the same seed schedule.
    """
    rng = trial_generator(cfg, trial)
    rn = cfg.r * cfg.n
    pos = _draw_positions(rng, cfg.n, cfg.r, cfg.s, cfg.replacement)
    cols = np.arange(rn)[:, None]
    if cfg.p is None:
        return BitMatrix(cfg.n, rn, pos, cols)
    vals = np.ones((rn, 3), dtype=np.int64)  # entry 0 of pos is the diagonal
    if cfg.gft_model != 1:  # only Models 2 and 3 draw values from f
        f = cfg.f_dist or np.full(cfg.p - 1, 1.0 / (cfg.p - 1))
        residues = np.arange(1, cfg.p)
        vals[:, 1:] = rng.choice(residues, size=(rn, 2), p=f)
        if cfg.gft_model == 3:
            vals[:, 0] = rng.choice(residues, size=rn, p=f)
    return PrimeFieldMatrix(cfg.p, cfg.n, rn, pos, cols, vals)


def functional_graph_components(m: BitMatrix) -> int:
    """Component count of the functional graph underlying an s=2, r=1 sample.

    Each column is an edge {i, f(i)} (or nothing, when a with-replacement
    column cancelled to zero); isolated vertices count as components.
    This is the independent combinatorial oracle for the s=2 co-rank.
    Raises ValueError for a GF(p) matrix or a column set in any nonzero
    number of rows other than 2.
    """
    if not isinstance(m, BitMatrix):
        raise ValueError("functional graph oracle requires a GF(2) matrix")
    return _pair_components(m.n_rows, *m.nonzero())


# --- textual fixture format ---------------------------------------------
#
#   gf2 <n_rows> <n_cols>          |  gfp <p> <n_rows> <n_cols>
#   <row>:<value> <row>:<value> ...     one line per column, rows ascending
#
# Round-trips bit-exactly.


class MatrixParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def serialize_matrix(m: BitMatrix | PrimeFieldMatrix) -> str:
    if isinstance(m, BitMatrix):
        head = f"gf2 {m.n_rows} {m.n_cols}"
        rows, cols = m.nonzero()
        vals = np.ones(rows.size, dtype=np.int64)
    else:
        head = f"gfp {m.p} {m.n_rows} {m.n_cols}"
        rows, cols, vals = m.nonzero()
    text: list[list[str]] = [[] for _ in range(m.n_cols)]
    # the entries are stored column-major, so each column's rows ascend
    for rr, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        text[j].append(f"{rr}:{v}")
    return "\n".join([head, *(" ".join(t) for t in text)]) + "\n"


def parse_matrix(text: str) -> BitMatrix | PrimeFieldMatrix:
    lines = text.splitlines()
    if not lines:
        raise MatrixParseError(1, 1, "empty input")
    head = lines[0].split()
    if head[:1] == ["gf2"]:
        if len(head) != 3:
            raise MatrixParseError(1, 1, "header must be 'gf2 <n_rows> <n_cols>'")
        p = 2
        dims = head[1:]
    elif head[:1] == ["gfp"]:
        if len(head) != 4:
            raise MatrixParseError(1, 1, "header must be 'gfp <p> <n_rows> <n_cols>'")
        try:
            p = int(head[1])
        except ValueError:
            raise MatrixParseError(1, len(head[0]) + 2, "modulus must be an integer")
        dims = head[2:]
    else:
        raise MatrixParseError(1, 1, "header must start with 'gf2' or 'gfp'")
    try:
        n_rows, n_cols = (int(x) for x in dims)
    except ValueError:
        raise MatrixParseError(1, 1, "dimensions must be integers")
    if n_rows < 1 or n_cols < 1:
        raise MatrixParseError(1, 1, "dimensions must be >= 1")
    if n_rows * n_cols >= 2**63:
        raise MatrixParseError(1, 1, "dimensions too large: entry positions must fit int64")
    if head[0] == "gfp":
        try:
            check_modulus(p)
        except ValueError as e:
            raise MatrixParseError(1, len(head[0]) + 2, str(e))
    if len(lines) - 1 != n_cols:
        raise MatrixParseError(len(lines), 1,
                               f"expected {n_cols} column lines, found {len(lines) - 1}")
    rows, cols, vals = [], [], []
    for j in range(n_cols):
        lineno = j + 2
        pos = 1
        seen: set[int] = set()
        for tok in lines[j + 1].split():
            col_at = lines[j + 1].find(tok, pos - 1) + 1
            try:
                row_s, val_s = tok.split(":")
                row, val = int(row_s), int(val_s)
            except ValueError:
                raise MatrixParseError(lineno, col_at, f"malformed entry {tok!r}")
            if not 0 <= row < n_rows:
                raise MatrixParseError(lineno, col_at, f"row {row} out of range")
            if row in seen:
                raise MatrixParseError(lineno, col_at, f"duplicate row {row} in column {j}")
            if not 0 < val < p:
                raise MatrixParseError(lineno, col_at, f"value {val} out of range for {head[0]}")
            seen.add(row)
            rows.append(row)
            cols.append(j)
            vals.append(val)
            pos = col_at + len(tok)
    if head[0] == "gf2":
        return BitMatrix(n_rows, n_cols, rows, cols)
    return PrimeFieldMatrix(p, n_rows, n_cols, rows, cols, vals)
