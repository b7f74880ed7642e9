import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab.gf2 import BitMatrix, gf2_rank_nullspace
from fflab.gfp import PrimeFieldMatrix
from fflab.models import (
    MatrixParseError,
    ModelConfig,
    functional_graph_components,
    parse_matrix,
    sample,
    serialize_matrix,
)


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfigValidation:
    def test_basic_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(n=0)
        with pytest.raises(ValueError):
            ModelConfig(n=10, r=0)
        with pytest.raises(ValueError):
            ModelConfig(n=10, s=1)
        with pytest.raises(ValueError):
            ModelConfig(n=10, replacement="maybe")
        with pytest.raises(ValueError, match="master_seed"):
            ModelConfig(n=10, master_seed=-1)

    def test_without_replacement_needs_room(self):
        with pytest.raises(ValueError):
            ModelConfig(n=2, s=3, replacement="without")
        ModelConfig(n=3, s=3, replacement="without")

    def test_gfp_requirements(self):
        with pytest.raises(ValueError):
            ModelConfig(n=10, p=4, gft_model=1)
        with pytest.raises(ValueError):
            ModelConfig(n=10, p=5, gft_model=7)
        with pytest.raises(ValueError):
            ModelConfig(n=10, p=5, gft_model=2, replacement="with")
        with pytest.raises(ValueError, match="fit int64"):  # prime, above 2^63
            ModelConfig(n=10, p=9223372036854775837, gft_model=1)

    def test_f_dist_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(n=10, p=5, gft_model=2, f_dist=(0.5, 0.5))
        with pytest.raises(ValueError):
            ModelConfig(n=10, p=5, gft_model=2,
                        f_dist=(0.5, 0.2, 0.2, 0.2))
        ModelConfig(n=10, p=5, gft_model=2,
                    f_dist=(0.25, 0.25, 0.25, 0.25))
        # nan is neither < 0 nor >= 0
        for f in ((math.nan, math.nan), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                ModelConfig(n=20, p=3, gft_model=2, f_dist=f)
        # an f_dist that would change nothing: GF(2), and Model 1 (all entries 1)
        with pytest.raises(ValueError, match="f_dist"):
            ModelConfig(n=10, f_dist=(0.5, 0.5))
        with pytest.raises(ValueError, match="f_dist"):
            ModelConfig(n=10, p=3, gft_model=1, f_dist=(0.5, 0.5))
        ModelConfig(n=10, p=2, gft_model=3, f_dist=(1.0,))

    def test_tags(self):
        assert ModelConfig(n=5).tag() == "gf2:r1:s3:without"
        assert ModelConfig(n=5, p=3, gft_model=1).tag() == "gf3:model1"


class TestGf2Sampler:
    def test_determinism_bit_identical(self):
        cfg = ModelConfig(n=50, master_seed=123)
        a = sample(cfg, 7)
        b = sample(cfg, 7)
        assert a == b
        c = sample(cfg, 8)
        assert a != c

    def test_without_replacement_column_structure(self):
        cfg = ModelConfig(n=30, r=1, s=3, replacement="without", master_seed=5)
        for trial in range(20):
            dense = sample(cfg, trial).to_dense()
            weights = dense.sum(axis=0)
            assert (weights == 3).all()
            assert (np.diag(dense) == 1).all()

    def test_small_n_exact_weight_three(self):
        cfg = ModelConfig(n=3, r=1, s=3, replacement="without", master_seed=1)
        dense = sample(cfg, 0).to_dense()
        assert (dense == 1).all()  # the only weight-3 column on 3 rows

    def test_with_replacement_weights_in_1_3(self):
        # brute force over the n^2 outcomes of (u, v) for the diagonal-0
        # column: at n=2 every outcome collapses to weight 1, at n=3
        # both weights occur; nothing else ever does
        def outcome_weights(n):
            out = set()
            for u in range(n):
                for v in range(n):
                    col = [0] * n
                    for row in (0, u, v):  # diagonal of column 0 plus two draws
                        col[row] ^= 1
                    out.add(sum(col))
            return out

        assert outcome_weights(2) == {1}
        assert outcome_weights(3) == {1, 3}
        cfg = ModelConfig(n=40, r=1, s=3, replacement="with", master_seed=9)
        for trial in range(30):
            dense = sample(cfg, trial).to_dense()
            assert set(np.unique(dense.sum(axis=0))) <= {1, 3}

    def test_with_replacement_weight1_frequency(self):
        # exact collision probability: of the n^2 equally likely pairs,
        # u == v (n of them) or exactly one hits the diagonal (2(n-1))
        n = 100
        p1 = (3 * n - 2) / n**2
        cfg = ModelConfig(n=n, r=1, s=3, replacement="with", master_seed=77)
        cols = 0
        ones = 0
        for trial in range(1000):
            dense = sample(cfg, trial).to_dense()
            w = dense.sum(axis=0)
            cols += n
            ones += int((w == 1).sum())
        se = math.sqrt(p1 * (1 - p1) / cols)
        assert abs(ones / cols - p1) <= 3 * se

    def test_r_blocks_share_rows(self):
        cfg = ModelConfig(n=20, r=3, s=3, replacement="without", master_seed=4)
        m = sample(cfg, 0)
        assert m.n_cols == 60
        dense = m.to_dense()
        for j in range(3):
            block = dense[:, 20 * j:20 * (j + 1)]
            assert (np.diag(block) == 1).all()
            assert (block.sum(axis=0) == 3).all()

    def test_s2_without_replacement(self):
        cfg = ModelConfig(n=25, r=1, s=2, replacement="without", master_seed=2)
        dense = sample(cfg, 0).to_dense()
        assert (dense.sum(axis=0) == 2).all()
        assert (np.diag(dense) == 1).all()

    def test_sample_stores_entries_only(self):
        # packed rows alone would be n x n / 8 bytes: 50 MB at n = 2 * 10^4
        cfg = ModelConfig(n=20000, r=1, s=3, master_seed=20000)
        m, peak = traced_peak(lambda: sample(cfg, 0))
        assert m.nonzero()[0].size == 3 * cfg.n
        assert peak < 8 * 2**20


class TestFunctionalGraph:
    def test_identity_shift_cycle(self):
        # f(i) = i+1 mod n: one big cycle, one component
        n = 9
        cols = [[i, (i + 1) % n] for i in range(n)]
        assert functional_graph_components(BitMatrix.from_columns(n, cols)) == 1

    def test_single_vertex_loop(self):
        cfg = ModelConfig(n=1, r=1, s=2, replacement="with", master_seed=0)
        assert functional_graph_components(sample(cfg, 0)) == 1

    def test_component_count_equals_corank(self):
        cfg = ModelConfig(n=80, r=1, s=2, replacement="without", master_seed=31)
        for trial in range(200):
            m = sample(cfg, trial)
            comps = functional_graph_components(m)
            rank, basis = gf2_rank_nullspace(m)
            assert comps == len(basis)

    def test_component_count_equals_corank_with_replacement(self):
        cfg = ModelConfig(n=60, r=1, s=2, replacement="with", master_seed=32)
        for trial in range(200):
            m = sample(cfg, trial)
            assert functional_graph_components(m) == len(gf2_rank_nullspace(m)[1])

    def test_wrong_shape_rejected(self):
        cfg = ModelConfig(n=20, r=1, s=3, master_seed=0)
        with pytest.raises(ValueError):
            functional_graph_components(sample(cfg, 0))
        with pytest.raises(ValueError, match="GF\\(2\\)"):
            functional_graph_components(sample(ModelConfig(n=20, p=3, gft_model=1), 0))


class TestGftSampler:
    def test_model1_structure(self):
        cfg = ModelConfig(n=30, p=3, gft_model=1, master_seed=6)
        m = sample(cfg, 0)
        assert isinstance(m, PrimeFieldMatrix)
        assert (np.diag(m.entries) == 1).all()
        assert ((m.entries != 0).sum(axis=0) == 3).all()
        assert set(np.unique(m.entries)) <= {0, 1}
        # columns sum to 3 = 0 mod 3: the all-ones vector annihilates
        assert (m.entries.sum(axis=0) % 3 == 0).all()

    def test_model1_samples_at_a_huge_prime(self):
        # Model 1 draws no values, so it builds no table of the p - 1 residues
        big = sample(ModelConfig(n=20, p=2**61 - 1, gft_model=1, master_seed=6), 0)
        small = sample(ModelConfig(n=20, p=3, gft_model=1, master_seed=6), 0)
        assert all(map(np.array_equal, big.nonzero(), small.nonzero()))

    def test_model2_diagonal_ones_and_value_frequencies(self):
        p = 5
        cfg = ModelConfig(n=250, p=p, gft_model=2, master_seed=8)
        counts = np.zeros(p, dtype=np.int64)
        draws = 0
        for trial in range(200):
            m = sample(cfg, trial)
            assert (np.diag(m.entries) == 1).all()
            off = m.entries.copy()
            np.fill_diagonal(off, 0)
            vals = off[off != 0]
            assert vals.size == 2 * cfg.n
            counts += np.bincount(vals, minlength=p)
            draws += vals.size
        target = 1 / (p - 1)
        se = math.sqrt(target * (1 - target) / draws)
        for v in range(1, p):
            assert abs(counts[v] / draws - target) <= 3 * se

    def test_model3_draws_diagonal_from_f(self):
        cfg = ModelConfig(n=200, p=3, gft_model=3, master_seed=10)
        m = sample(cfg, 0)
        diag = np.diag(m.entries)
        assert set(np.unique(diag)) <= {1, 2}
        assert (diag == 2).any()

    def test_model3_gf2_degenerates_to_gf2_sampler(self):
        n = 64
        gfp_cfg = ModelConfig(n=n, p=2, gft_model=3, f_dist=(1.0,),
                              master_seed=55)
        gf2_cfg = ModelConfig(n=n, r=1, s=3, replacement="without", master_seed=55)
        for trial in range(10):
            a = sample(gfp_cfg, trial)
            b = sample(gf2_cfg, trial)
            assert np.array_equal(a.entries, b.to_dense())

    def test_sample_stores_entries_only(self):
        # a dense int64 n x n array alone would be 32 MB at n = 2000
        cfg = ModelConfig(n=2000, p=3, gft_model=1, master_seed=2000)
        m, peak = traced_peak(lambda: sample(cfg, 0))
        assert m.nonzero()[0].size == 3 * cfg.n
        assert peak < 4 * 2**20


def sparse_gf2_fixture(n: int) -> str:
    """Text of an n x n GF(2) matrix with two ones per column."""
    rng = np.random.default_rng(n)
    a = rng.integers(0, n, size=n)
    b = (a + rng.integers(1, n, size=n)) % n
    lines = [f"gf2 {n} {n}"] + [f"{min(x, y)}:1 {max(x, y)}:1" for x, y in zip(a, b)]
    return "\n".join(lines) + "\n"


class TestSerialization:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 20), st.integers(1, 20))
    def test_gf2_roundtrip(self, seed, n_rows, n_cols):
        rng = np.random.default_rng(seed)
        m = BitMatrix.from_dense(rng.integers(0, 2, size=(n_rows, n_cols)))
        assert parse_matrix(serialize_matrix(m)) == m

    @given(st.integers(0, 2**31 - 1), st.sampled_from([3, 5, 7]), st.integers(1, 12))
    def test_gfp_roundtrip(self, seed, p, n):
        rng = np.random.default_rng(seed)
        m = PrimeFieldMatrix.from_dense(rng.integers(0, p, size=(n, n)), p)
        assert parse_matrix(serialize_matrix(m)) == m

    def test_sampled_roundtrip_bit_exact(self):
        cfg = ModelConfig(n=40, master_seed=14)
        m = sample(cfg, 3)
        assert parse_matrix(serialize_matrix(m)) == m

    def test_serialized_text(self):
        m = BitMatrix.from_columns(4, [[3, 0], [], [2, 2], [1], [2, 1, 3]])
        assert serialize_matrix(m) == "gf2 4 5\n0:1 3:1\n\n\n1:1\n1:1 2:1 3:1\n"
        g = PrimeFieldMatrix.from_dense(np.array([[0, 4], [2, 0], [1, 3]]), 5)
        assert serialize_matrix(g) == "gfp 5 3 2\n1:2 2:1\n0:4 2:3\n"

    def test_readme_fixture_roundtrips(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Matrix fixture format", 1)[1]
        text = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
        assert serialize_matrix(parse_matrix(text)) == text

    def test_gf2_parse_allocates_no_dense_array(self):
        n = 3000
        text = sparse_gf2_fixture(n)
        m, peak = traced_peak(lambda: parse_matrix(text))
        assert int(np.bitwise_count(m.words).sum()) == 2 * n
        assert peak < 16 * 2**20  # a dense int64 n x n array alone is 72 MB

    def test_gfp_parse_allocates_no_dense_array(self):
        n = 3000
        m, peak = traced_peak(lambda: parse_matrix(f"gfp 3 {n} {n}\n" + "\n" * n))
        assert m.nonzero()[0].size == 0
        assert peak < 2 * 2**20  # a dense int64 n x n array alone is 72 MB

    def test_gf2_serialize_allocates_no_dense_array(self):
        text = sparse_gf2_fixture(3000)
        m = parse_matrix(text)
        out, peak = traced_peak(lambda: serialize_matrix(m))
        assert out == text
        assert peak < 2 * 2**20  # a dense uint8 n x n array alone is 8.6 MB

    def test_parse_errors_carry_line_and_column(self):
        with pytest.raises(MatrixParseError) as e:
            parse_matrix("gf2 2 2\n0:1 zz\n1:1\n")
        assert e.value.line == 2
        assert e.value.column == 5
        with pytest.raises(MatrixParseError) as e:
            parse_matrix("hello\n")
        assert e.value.line == 1
        with pytest.raises(MatrixParseError):
            parse_matrix("gf2 2 2\n0:1\n")  # missing a column line
        with pytest.raises(MatrixParseError):
            parse_matrix("gf2 2 2\n5:1\n\n")  # row out of range
        with pytest.raises(MatrixParseError):
            parse_matrix("gf2 2 2\n0:1 0:1\n\n")  # duplicate row
        with pytest.raises(MatrixParseError):
            parse_matrix("gfp 5 2 2\n0:7\n\n")  # value out of range
        with pytest.raises(MatrixParseError):
            parse_matrix("gfp 6 2 2\n0:1\n\n")  # composite modulus
        with pytest.raises(MatrixParseError):
            parse_matrix("gf2 0 2\n\n\n")  # degenerate dimensions
        with pytest.raises(MatrixParseError, match="too large"):
            parse_matrix(f"gf2 {2**62} 2\n\n\n")  # entry positions overflow int64

    def test_modulus_beyond_exact_primality_is_a_parse_error(self):
        huge = 399165290221 * 798330580441  # passes Miller-Rabin on bases 2..37
        with pytest.raises(MatrixParseError) as e:
            parse_matrix(f"gfp {huge} 1 1\n0:1\n")
        assert e.value.line == 1 and e.value.column == 5

    def test_modulus_beyond_int64_is_a_parse_error(self):
        with pytest.raises(MatrixParseError, match="fit int64") as e:
            parse_matrix(f"gfp {2**64 + 13} 2 2\n0:1\n1:1\n")  # prime, too large
        assert e.value.line == 1 and e.value.column == 5
