"""Fixtures shared by the test modules."""

import random

import pytest

from adjmatroid.binary_matroid import BinaryMatroid, polygon_matroid
from adjmatroid.delta_matroid import SetSystem
from adjmatroid.gf2 import BitMatrix, Subspace, coord_masks, lowest_bit, size_masks
from adjmatroid.graph import (
    LoopedSimpleGraph, MultiGraph, all_looped_simple_graphs, random_looped_simple_graph,
)
from adjmatroid.verify import _all_subspaces


def reference_restriction(w: Subspace, mask: int) -> Subspace:
    """The members of w supported inside the coordinate mask, by a reference
    elimination on the out-of-mask bits only, then a span of the rows left."""
    outside_pivots: dict[int, int] = {}
    inside: list[int] = []
    out_mask = ((1 << w.ambient_dim) - 1) & ~mask
    for v in w.basis:
        while v & out_mask:
            p = lowest_bit(v & out_mask)
            if p in outside_pivots:
                v ^= outside_pivots[p]
            else:
                outside_pivots[p] = v
                v = 0
        if v:
            inside.append(v)
    return Subspace.span(w.ambient_dim, inside)


@pytest.fixture
def restricted():
    """The reference restriction, for checking rank_of, delete and the
    independent-set word against an elimination of another design."""
    return reference_restriction


def reference_set_restriction(d: SetSystem, keep: int) -> SetSystem:
    """The members inside the kept mask, on the shrunken ground set: each
    dropped coordinate i, highest first, keeps the members avoiding i, then
    for each coordinate j above i moves the block of members containing j
    down by 2^(j-1), onto bit j-1 of their mask, which is clear."""
    masks = coord_masks(d.n)
    bits, top = d.bits, d.n
    for i in reversed(range(d.n)):
        if (keep >> i) & 1:
            continue
        bits &= masks[i][0]
        for j in range(i + 1, top):
            zero, one = masks[j]
            bits = (bits & zero) | ((bits & one) >> (1 << (j - 1)))
        top -= 1
    return SetSystem(tuple(v for i, v in enumerate(d.ground) if (keep >> i) & 1), bits)


@pytest.fixture
def set_restricted():
    """The per-dropped-coordinate restriction, for checking the one-pass
    restriction behind restrict, delete and contract."""
    return reference_set_restriction


def subset_pivot_planes(rows: list[list[int]], n: int) -> list[int]:
    """Gaussian elimination of 2^n matrices at once, one bit per subset S:
    rows[i][k] holds entry (i, k) of every matrix as a 2^n-bit int.  Returns
    one pivot plane per row, set at S iff the row is a pivot row of matrix S,
    so rank(S) is the number of planes set at S.  Per column, each S picks
    its first free row with a 1 there; columns are eliminated last first and
    popped once eliminated, so rows is consumed."""
    full = (1 << (1 << n)) - 1
    free = [full] * len(rows)
    while rows and rows[0]:
        col = [row.pop() for row in rows]
        pivot = [0] * len(rows[0])
        unseen = full
        for i, e in enumerate(col):
            pick = e & free[i] & unseen
            if pick:
                unseen ^= pick
                free[i] ^= pick
                for j, x in enumerate(rows[i]):
                    if x:
                        pivot[j] ^= pick & x
        for i, e in enumerate(col):
            rest = e & free[i]
            if rest:
                row = rows[i]
                for j, p in enumerate(pivot):
                    if p:
                        row[j] ^= rest & p
    return [full ^ f for f in free]


def reference_count_masks(planes: list[int], n: int) -> list[int]:
    """Entry c has bit S set iff exactly c of the 2^n-bit planes are set at S:
    a bit-sliced counter holding one 2^n-bit mask per count."""
    out = [(1 << (1 << n)) - 1]
    for p in planes:
        out = [(x & ~p) | (y & p) for x, y in zip(out + [0], [0] + out)]
    return out


@pytest.fixture
def count_masks():
    """The bit-sliced counter behind the plane tallies."""
    return reference_count_masks


def reference_tally_planes(planes: list[int], n: int) -> dict[tuple[int, int], int]:
    """The number of subsets S with |S| = size at which exactly c planes are
    set, keyed by (size, c), for the nonzero numbers."""
    at_count = reference_count_masks(planes, n)
    return {
        (s, c): k
        for s, at_s in enumerate(size_masks(n))
        for c, at_c in enumerate(at_count)
        if (k := (at_s & at_c).bit_count())
    }


@pytest.fixture
def tally_planes():
    """The (size, planes set) counter of the elimination references."""
    return reference_tally_planes


def reference_column_masked_planes(w: Subspace) -> list[int]:
    """Pivot planes of w's basis on the columns outside S, for every S: entry
    (i, k) is ZERO_k where basis row i has bit k.  So w meets GF(2)^S in
    dimension w.dim minus the number of planes set at S: the restriction
    identity of `binary_matroid`, for every S at once."""
    masks = coord_masks(w.ambient_dim)
    return subset_pivot_planes([
        [zero_k if (v >> k) & 1 else 0 for k, (zero_k, _) in enumerate(masks)]
        for v in w.basis
    ], w.ambient_dim)


@pytest.fixture
def column_masked_planes():
    """The elimination reference, for checking the independent-set word and
    the Tutte tally against a route that reads ranks, not distances."""
    return reference_column_masked_planes


def reference_tutte_tally(m: BinaryMatroid) -> dict[tuple[int, int], int]:
    """The (r - r(S), nu(S)) counts of the column-masked elimination: c planes
    set at S leave nu(S) = nullity - c."""
    tally = reference_tally_planes(reference_column_masked_planes(m.cycle_space), m.size)
    d = m.nullity
    return {(m.rank - size + d - c, d - c): k for (size, c), k in tally.items()}


@pytest.fixture
def tutte_tally():
    """The Tutte tally of the elimination reference, for checking the
    distance layers of the independent-set word."""
    return reference_tutte_tally


def reference_principal_planes(a: BitMatrix) -> list[int]:
    """The pivot planes of every principal submatrix a[S, S], by the
    bit-sliced elimination of all 2^n of them: entry (i, k) is ONE_i & ONE_k
    where a has a 1, so rank a[S, S] is the number of planes set at S."""
    masks = coord_masks(a.cols)
    return subset_pivot_planes([
        [one_i & one_k if (r >> k) & 1 else 0 for k, (_, one_k) in enumerate(masks)]
        for r, (_, one_i) in zip(a.data, masks)
    ], a.cols)


@pytest.fixture
def principal_planes():
    """The elimination reference, for checking the cover-parity word and the
    distance layers against a route that reads ranks, not determinants."""
    return reference_principal_planes


@pytest.fixture(scope="session")
def reference_matroids() -> list[BinaryMatroid]:
    """All 465 binary matroids on v0..v{n-1} with n <= 5; for n = 6-14 the
    free matroid (nullity 0), all loops (nullity n) and three seeded cycle
    spaces; and 20 seeded polygon matroids of multigraphs with a loop and a
    parallel pair or more, with 3-6 vertices and 4-12 edges."""
    rng = random.Random(3305)
    spaces = [w for n in range(6) for w in _all_subspaces(n)]
    for n in range(6, 15):
        spaces += [Subspace.zero(n), Subspace.span(n, (1 << i for i in range(n)))]
        spaces += [
            Subspace.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(1, n))])
            for _ in range(3)
        ]
    out = [BinaryMatroid(tuple(f"v{i}" for i in range(w.ambient_dim)), w) for w in spaces]
    for _ in range(20):
        n = rng.randrange(3, 7)
        u, v = rng.sample(range(n), 2)
        edges = [(u, u), (u, v), (u, v)]
        edges += [tuple(rng.randrange(n) for _ in range(2)) for _ in range(rng.randrange(1, 10))]
        out.append(polygon_matroid(MultiGraph(tuple(f"x{i}" for i in range(n)), tuple(edges))))
    return out


@pytest.fixture(scope="session")
def small_and_seeded_graphs() -> list[LoopedSimpleGraph]:
    """All 1,099 looped simple graphs with n <= 4; for n = 5-20 two seeded
    graphs with each cell set at p = 1/2 and one with each edge at p = 2/n,
    loops at p = 1/4."""
    rng = random.Random(1107)
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    for n in range(5, 21):
        graphs += [random_looped_simple_graph(rng, n) for _ in range(2)]
        labels = tuple(f"v{i}" for i in range(n))
        pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
        edges = [e for e in pairs if rng.random() < 2 / n]
        loops = [v for v in labels if rng.random() < 0.25]
        graphs.append(LoopedSimpleGraph.build(labels, edges, loops))
    return graphs


def entry_cells(g: LoopedSimpleGraph) -> list[tuple[int, int]]:
    """The set cells (i, j >= i) of g's adjacency matrix in row order, read
    entry by entry over all pairs."""
    return [(i, j) for i in range(g.n) for j in range(i, g.n) if g.adj.entry(i, j)]


def entry_loop_labels(g: LoopedSimpleGraph) -> tuple[str, ...]:
    return tuple(v for i, v in enumerate(g.labels) if g.adj.entry(i, i))


def entry_edge_pairs(g: LoopedSimpleGraph) -> tuple[tuple[str, str], ...]:
    return tuple((g.labels[i], g.labels[j]) for i, j in entry_cells(g) if i != j)


def entry_text_pairs(g: LoopedSimpleGraph) -> tuple[tuple[int, int], ...]:
    """The set cells in text order: the loop cells, then the off-diagonal cells."""
    cells = entry_cells(g)
    return tuple([(i, j) for i, j in cells if i == j] + [(i, j) for i, j in cells if i != j])


def entry_render_graph(g: LoopedSimpleGraph) -> str:
    lines = ["vertices " + " ".join(g.labels)] if g.labels else []
    lines += [f"loop {v}" for v in entry_loop_labels(g)]
    lines += [f"edge {u} {v}" for u, v in entry_edge_pairs(g)]
    return "\n".join(lines) + "\n"


def entry_graph_to_json(g: LoopedSimpleGraph) -> dict[str, list]:
    cells = entry_cells(g)
    return {
        "vertices": list(g.labels),
        "loops": [g.labels[i] for i, j in cells if i == j],
        "edges": [[g.labels[i], g.labels[j]] for i, j in cells if i != j],
    }


@pytest.fixture
def entry_forms():
    """The entry-by-entry, all-pairs forms of the graph's set-bit walks, by
    the name of the walk they check: the references for the walks."""
    return {
        "as_multigraph_edges": entry_text_pairs,
        "render_graph": entry_render_graph,
        "graph_to_json": entry_graph_to_json,
    }
