"""The binary matroid of a looped graph's adjacency matrix.

Minors of these matroids can be produced by deleting a vertex from a graph
reachable through local complementation; this module implements those
derivations, coloop and triple-coloop analysis, the three-variant
comparison at a vertex, and the resulting three-way vertex classification.

Every vertex question reads one piece of evidence and builds no matroid:
whether v is a coloop with its loop removed and with it attached, for every
v at once, kept by the graph (`LoopedSimpleGraph.coloop_masks`).
`gf2.coloop_masks` computes it and proves it right.  Only `classify_vertex`
and `tripartition_report` (once for all vertices) read the masks; a
`TripartitionCase` keeps the tag they decide, and `is_triple_coloop` (case1)
and `trio` (its equal pair) read it.  The three cases are three shared
frozen values, picked by each vertex's two coloop bits.
verify's three-variants-two-agree check builds the three variant matroids
and is the oracle for `trio`.
"""

from __future__ import annotations

from typing import Literal

from .binary_matroid import BinaryMatroid
from .gf2 import Frozen, lowest_bit, nullity, nullspace, row_bits, unchecked
from .graph import LoopedSimpleGraph, VariantKind

CaseTag = Literal["case1", "case2", "case3"]


class TripartitionCase(Frozen):
    """Vertex class: which of v unlooped and v looped leave v a coloop
    (case1 both, case2 unlooped only, case3 looped only)."""

    tag: CaseTag


# The case of a vertex by its coloop bits, unlooped + 2 * looped; frozen, so shared.
_CASES = {3: TripartitionCase("case1"), 1: TripartitionCase("case2"), 2: TripartitionCase("case3")}


class MinorDerivation(Frozen):
    """A matroid minor together with its local-complementation witness."""

    result: BinaryMatroid
    witness_graph: LoopedSimpleGraph
    lc_sequence: tuple[str, ...]


class TrioResult(Frozen):
    """Which two of the three vertex variants share a matroid at v.

    nullity is the shared nullity; by the tripartition theorem the odd
    matroid's cycle space contains the shared one and has dimension
    nullity + 1.
    """

    equal_pair: tuple[VariantKind, VariantKind]
    odd_one: VariantKind
    nullity: int


def adjacency_matroid(g: LoopedSimpleGraph) -> BinaryMatroid:
    """The matroid on V(g) represented by the adjacency matrix; the graph
    has checked its labels, so it is built unchecked."""
    return unchecked(BinaryMatroid, ground=g.labels, cycle_space=nullspace(g.adj))


def contract_via_lc(g: LoopedSimpleGraph, v: str) -> MinorDerivation:
    """Contract v by deleting it from a local-complementation witness.

    Looped v: complement at v.  Unlooped isolated v: no steps.  Unlooped v
    with an unlooped neighbor w: complement at w then v.  Otherwise take
    the first looped neighbor w and complement at v, w, v.  Qualifying
    neighbors are chosen in label order.
    """
    i, rows = g.index(v), g.adj.data
    neighbors = rows[i] & ~(1 << i)
    if rows[i] >> i & 1:
        seq: tuple[str, ...] = (v,)
    elif not neighbors:
        seq = ()
    elif (w := next((w for w in row_bits(neighbors) if not rows[w] >> w & 1), None)) is not None:
        seq = (g.labels[w], v)
    else:
        seq = (v, g.labels[lowest_bit(neighbors)], v)
    witness = g
    for w in seq:
        witness = witness.local_complement(w)
    return MinorDerivation(adjacency_matroid(witness.minus(v)), witness, seq)


def is_triple_coloop(g: LoopedSimpleGraph, v: str) -> bool:
    """True iff v is a coloop of all three vertex-variant matroids: v is case1."""
    return classify_vertex(g, v).tag == "case1"


def delete_via_subgraph(g: LoopedSimpleGraph, v: str) -> BinaryMatroid:
    """Delete v from the matroid through the graph when possible.

    Away from triple coloops the full-subgraph matroid agrees with matroid
    deletion; at a triple coloop deletion equals contraction, so the
    local-complementation contraction witness is used instead.
    """
    if is_triple_coloop(g, v):
        return contract_via_lc(g, v).result
    return adjacency_matroid(g.minus(v))


def trio(g: LoopedSimpleGraph, v: str) -> TrioResult:
    """Which two vertex-variant matroids at v agree, read off v's class:
    case1 leaves v a coloop of the unlooped and looped variants alike, so
    they agree; otherwise the loop-isolate variant agrees with the one that
    leaves v a coloop.  The shared nullity is that of the pair's first
    variant's matrix."""
    pair: tuple[VariantKind, VariantKind] = {
        "case1": ("plain", "loop"),
        "case2": ("plain", "loop_isolate"),
        "case3": ("loop", "loop_isolate"),
    }[classify_vertex(g, v).tag]
    odd = next(k for k in ("plain", "loop", "loop_isolate") if k not in pair)
    return TrioResult(pair, odd, nullity(g.variant(v, pair[0]).adj))


def classify_vertex(g: LoopedSimpleGraph, v: str) -> TripartitionCase:
    """Classify v by which vertex variants leave it a coloop."""
    return _case(*g.coloop_masks, g.index(v))


def _case(plain: int, loop: int, i: int) -> TripartitionCase:
    try:
        return _CASES[(plain >> i & 1) + 2 * (loop >> i & 1)]
    except KeyError:
        raise AssertionError("vertex is a coloop of neither variant") from None


def tripartition_report(g: LoopedSimpleGraph) -> dict[str, TripartitionCase]:
    """Every vertex's case, from one read of the graph's coloop masks."""
    plain, loop = g.coloop_masks
    return {v: _case(plain, loop, i) for i, v in enumerate(g.labels)}
