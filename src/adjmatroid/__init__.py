"""Looped graphs and their GF(2) structure: adjacency matroids, minors via
local complementation, delta-matroids, circuit partitions of 4-regular
graphs, and the interlace/Tutte polynomial family."""

from .adjacency_matroid import (
    MinorDerivation,
    TripartitionCase,
    TrioResult,
    adjacency_matroid,
    classify_vertex,
    contract_via_lc,
    delete_via_subgraph,
    is_triple_coloop,
    trio,
    tripartition_report,
)
from .binary_matroid import BinaryMatroid, polygon_matroid
from .delta_matroid import DeltaMatroid, SetSystem, from_graph, to_graph
from .four_regular import (
    CircuitPartition,
    EulerSystem,
    HalfEdgeGraph,
    TransitionSystem,
    compatible_euler_system,
    euler_system,
    interlacement,
    realize_touch_graph,
    relative_interlacement,
    touch_graph,
    transition_type,
)
from .gf2 import BitMatrix, Subspace
from .graph import LoopedSimpleGraph, MultiGraph
from .polynomials import (
    BivariatePolynomial,
    interlace_recursive,
    interlace_subset,
    lambda_leading,
    tutte_recursive,
    tutte_subset,
)

__all__ = [
    "BinaryMatroid",
    "BitMatrix",
    "BivariatePolynomial",
    "CircuitPartition",
    "DeltaMatroid",
    "EulerSystem",
    "HalfEdgeGraph",
    "LoopedSimpleGraph",
    "MinorDerivation",
    "MultiGraph",
    "SetSystem",
    "Subspace",
    "TransitionSystem",
    "TripartitionCase",
    "TrioResult",
    "adjacency_matroid",
    "classify_vertex",
    "compatible_euler_system",
    "contract_via_lc",
    "delete_via_subgraph",
    "euler_system",
    "from_graph",
    "interlace_recursive",
    "interlace_subset",
    "interlacement",
    "is_triple_coloop",
    "lambda_leading",
    "polygon_matroid",
    "realize_touch_graph",
    "relative_interlacement",
    "to_graph",
    "touch_graph",
    "transition_type",
    "trio",
    "tripartition_report",
    "tutte_recursive",
    "tutte_subset",
]
