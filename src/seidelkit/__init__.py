"""Cospectral graph construction by generalized switching on weighted
digraphs, the quantum states of the resulting Laplacians, and strength
measures of the switching operators as global unitaries."""

from . import errors
from .graph import (
    WeightedDigraph,
    adjacency_matrix,
    brute_force_isomorphic,
    cospectral,
    degree_matrix,
    laplacian,
    signless_laplacian,
    spectral_gap,
    spectrum,
)
from .io import GraphDocument, dumps_document, load_fixture, read_document, write_document
from .quantum import DensityMatrix, density_from_graph, is_pure, von_neumann_entropy
from .starlike import (
    SpectralKind,
    StarlikeCellProfile,
    lift_graph,
    loop_weights_preserved,
    lq_switch,
    project_graph,
    spectral_matrix,
    validate_starlike,
)
from .strength import (
    Bipartition,
    ScanRow,
    SchmidtProfile,
    is_local,
    realignment,
    realignment_rank,
    scan_csv,
    schmidt_coefficients,
    strength_scan,
    vec_row,
)
from .switching import (
    CategoryReport,
    SeidelOperator,
    SeidelPartition,
    block_seidel,
    flip_half_pattern,
    seidel_matrix,
    switch,
    switch_cross_block,
    switching_matrix,
    validate_seidel,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CategoryReport",
    "DensityMatrix",
    "GraphDocument",
    "ScanRow",
    "SchmidtProfile",
    "SeidelOperator",
    "SeidelPartition",
    "SpectralKind",
    "StarlikeCellProfile",
    "WeightedDigraph",
    "adjacency_matrix",
    "block_seidel",
    "brute_force_isomorphic",
    "cospectral",
    "degree_matrix",
    "density_from_graph",
    "dumps_document",
    "errors",
    "flip_half_pattern",
    "is_local",
    "is_pure",
    "laplacian",
    "lift_graph",
    "load_fixture",
    "loop_weights_preserved",
    "lq_switch",
    "project_graph",
    "read_document",
    "realignment",
    "realignment_rank",
    "scan_csv",
    "schmidt_coefficients",
    "seidel_matrix",
    "signless_laplacian",
    "spectral_gap",
    "spectral_matrix",
    "spectrum",
    "strength_scan",
    "switch",
    "switch_cross_block",
    "switching_matrix",
    "validate_seidel",
    "validate_starlike",
    "von_neumann_entropy",
    "write_document",
]
