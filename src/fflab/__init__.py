"""fflab: finite-field random-matrix laboratory.

Samples sparse incidence-matrix models over GF(2) and prime fields,
computes rank and left-null-space structure by sparse column elimination,
and reconciles empirical co-rank/dependency statistics against exact
limiting laws via seeded Monte Carlo.
"""
from .gf2 import BitMatrix, gf2_rank, gf2_rank_nullspace
from .gfp import PrimeFieldMatrix, gfp_rank, gfp_rank_nullspace
from .models import (
    ModelConfig,
    functional_graph_components,
    parse_matrix,
    sample,
    serialize_matrix,
)
from .analyzer import (
    GuardExceeded,
    IntersectionStructure,
    NullSpaceReport,
    analyze_matrix,
    build_U,
    classify,
    connected_functional_digraph,
    default_omega,
    enumerate_codewords,
    fundamental_small,
    intersection_structure,
    is_simple_sequence,
)
from . import theory

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "gf2_rank",
    "gf2_rank_nullspace",
    "PrimeFieldMatrix",
    "gfp_rank",
    "gfp_rank_nullspace",
    "ModelConfig",
    "functional_graph_components",
    "parse_matrix",
    "sample",
    "serialize_matrix",
    "GuardExceeded",
    "IntersectionStructure",
    "NullSpaceReport",
    "analyze_matrix",
    "build_U",
    "classify",
    "connected_functional_digraph",
    "default_omega",
    "enumerate_codewords",
    "fundamental_small",
    "intersection_structure",
    "is_simple_sequence",
    "theory",
    "__version__",
]
