"""Looped simple graphs and multigraphs.

A looped simple graph is stored as a symmetric GF(2) adjacency matrix whose
diagonal marks loops.  Multigraphs keep an explicit edge list (loops and
parallel edges allowed) and collapse to looped simple graphs via simplify.

`find_root` is the package's one union-find step, `default_labels` the one
place that names vertices v0..v{n-1}, and `_LabelCodec` the one map between
ground labels and masks, which set systems and binary matroids share.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .gf2 import (
    BitMatrix, coloop_masks, drop_bit, gather, nonsingular_subsets, nullity, set_bits, unchecked,
)

VariantKind = Literal["plain", "loop", "loop_isolate"]


@dataclass(frozen=True)
class LoopedSimpleGraph:
    """A graph with at most one loop per vertex and no parallel edges."""

    labels: tuple[str, ...]
    adj: BitMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self._position) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        if self.adj.rows != len(self.labels) or self.adj.cols != len(self.labels):
            raise ValueError("adjacency matrix size mismatch")
        if not self.adj.is_symmetric:
            raise ValueError("adjacency matrix must be symmetric")

    @classmethod
    def build(
        cls,
        labels: Sequence[str],
        edges: Iterable[tuple[str, str]] = (),
        loops: Iterable[str] = (),
    ) -> "LoopedSimpleGraph":
        """The graph with the given edges and loops; repeats collapse, as
        in the text format."""
        return MultiGraph.build(labels, [*edges, *((v, v) for v in loops)]).simplify()

    @classmethod
    def _derived(cls, labels: tuple[str, ...], rows: Sequence[int]) -> "LoopedSimpleGraph":
        """A graph derived from a valid one, symmetric by construction: unchecked."""
        adj = unchecked(BitMatrix, rows=len(rows), cols=len(rows), data=tuple(rows))
        return unchecked(cls, labels=labels, adj=adj)

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.labels)}

    @cached_property
    def nonsingular_subsets(self) -> int:
        """The vertex subsets S with A[S] nonsingular by cover parity, one
        2^n-bit word (128 KB at n = 20) found once per graph object and kept."""
        return nonsingular_subsets(self.adj)

    @cached_property
    def coloop_masks(self) -> tuple[int, int]:
        """The vertices that are coloops of the adjacency matroid with their
        loop removed, and with it attached: two masks from one echelon form
        per graph object, kept."""
        return coloop_masks(self.adj)

    def index(self, v: str) -> int:
        try:
            return self._position[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def is_looped(self, v: str) -> bool:
        i = self.index(v)
        return bool(self.adj.entry(i, i))

    def adjacent(self, u: str, v: str) -> bool:
        i, j = self.index(u), self.index(v)
        if i == j:
            raise ValueError("adjacency is between distinct vertices")
        return bool(self.adj.entry(i, j))

    def neighbor_mask(self, v: str) -> int:
        i = self.index(v)
        return self.adj.data[i] & ~(1 << i)

    def neighbors(self, v: str) -> tuple[str, ...]:
        mask = self.neighbor_mask(v)
        return tuple(self.labels[i] for i in range(self.n) if (mask >> i) & 1)

    def loop_labels(self) -> tuple[str, ...]:
        return tuple(v for i, v in enumerate(self.labels) if self.adj.entry(i, i))

    def edge_pairs(self) -> tuple[tuple[str, str], ...]:
        """Non-loop edges as label pairs, in index order."""
        n, labels = self.n, self.labels
        return tuple(
            (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if self.adj.entry(i, j)
        )

    def local_complement(self, v: str) -> "LoopedSimpleGraph":
        """Toggle loops of v's neighbors and adjacency between distinct neighbors."""
        mask = self.neighbor_mask(v)
        rows = [r ^ mask if (mask >> i) & 1 else r for i, r in enumerate(self.adj.data)]
        return LoopedSimpleGraph._derived(self.labels, rows)

    def loop_complement(self, v: str) -> "LoopedSimpleGraph":
        i = self.index(v)
        rows = list(self.adj.data)
        rows[i] ^= 1 << i
        return LoopedSimpleGraph._derived(self.labels, rows)

    def induced(self, s: Iterable[str]) -> "LoopedSimpleGraph":
        return self.induced_mask(sum(1 << i for i in {self.index(v) for v in s}))

    def induced_mask(self, mask: int) -> "LoopedSimpleGraph":
        """The subgraph induced by the vertices whose bits are set in mask."""
        if not 0 <= mask < 1 << self.n:
            raise ValueError(f"vertex mask {mask} outside {self.n} vertices")
        idx = set_bits(mask)
        rows = [gather(self.adj.data[i], idx) for i in idx]
        return LoopedSimpleGraph._derived(tuple(self.labels[i] for i in idx), rows)

    def minus(self, v: str) -> "LoopedSimpleGraph":
        i = self.index(v)
        rows = [drop_bit(r, i) for k, r in enumerate(self.adj.data) if k != i]
        return LoopedSimpleGraph._derived(self.labels[:i] + self.labels[i + 1:], rows)

    def variant(self, v: str, kind: VariantKind) -> "LoopedSimpleGraph":
        """The vertex variants: unloop v, loop v, or loop and isolate v."""
        i = self.index(v)
        rows = list(self.adj.data)
        if kind == "plain":
            rows[i] &= ~(1 << i)
        elif kind == "loop":
            rows[i] |= 1 << i
        elif kind == "loop_isolate":
            rows = [r & ~(1 << i) for r in rows]
            rows[i] = 1 << i
        else:
            raise ValueError(f"unknown variant kind {kind!r}")
        return LoopedSimpleGraph._derived(self.labels, rows)


@dataclass(frozen=True)
class MultiGraph:
    """Vertices plus an explicit edge list; loops and parallels allowed."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    edge_labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("labels", "edge_labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        n = len(self.labels)
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge endpoint out of range")
        if not self.edge_labels:
            object.__setattr__(self, "edge_labels", default_labels(len(self.edges), "e"))
        if len(self.edge_labels) != len(self.edges):
            raise ValueError("edge label count mismatch")
        if len(set(self.edge_labels)) != len(self.edge_labels):
            raise ValueError("duplicate edge labels")

    @classmethod
    def build(
        cls,
        labels: Sequence[str],
        edges: Iterable[tuple[str, str]],
        edge_labels: Sequence[str] = (),
    ) -> "MultiGraph":
        labels = tuple(labels)
        index = {v: i for i, v in enumerate(labels)}
        pairs = []
        for u, v in edges:
            if u not in index or v not in index:
                raise ValueError(f"unknown vertex in edge {u} {v}")
            pairs.append((index[u], index[v]))
        return cls(labels, tuple(pairs), tuple(edge_labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def degrees(self) -> list[int]:
        """Incidences at each vertex, in one pass; a loop counts twice."""
        out = [0] * self.n
        for u, v in self.edges:
            out[u] += 1
            out[v] += 1
        return out

    def incidences(self) -> list[tuple[str, ...]]:
        """Each vertex's incident edge labels, sorted, a loop listed once; the
        list sorted.  Two multigraphs give equal lists iff renaming vertices
        turns one into the other with every edge label kept."""
        out: list[set[str]] = [set() for _ in range(self.n)]
        for (u, v), label in zip(self.edges, self.edge_labels):
            out[u].add(label)
            out[v].add(label)
        return sorted(tuple(sorted(labels)) for labels in out)

    def adjacency(self) -> BitMatrix:
        rows = [0] * self.n
        for u, v in self.edges:
            if u == v:
                rows[u] |= 1 << u
            else:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return BitMatrix(self.n, self.n, rows)

    def simplify(self) -> LoopedSimpleGraph:
        """Collapse parallels and repeated loops to a looped simple graph."""
        return LoopedSimpleGraph(self.labels, self.adjacency())

    def incidence_matrix(self) -> BitMatrix:
        """Vertex-by-edge GF(2) incidence; loop edges give zero columns."""
        rows = [0] * self.n
        for j, (u, v) in enumerate(self.edges):
            if u != v:
                rows[u] |= 1 << j
                rows[v] |= 1 << j
        return BitMatrix(self.n, len(self.edges), rows)

    def component_count(self) -> int:
        parent = list(range(self.n))
        for u, v in self.edges:
            parent[find_root(parent, u)] = find_root(parent, v)
        return len({find_root(parent, i) for i in range(self.n)})


def find_root(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest parent, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def as_multigraph(g: LoopedSimpleGraph | MultiGraph) -> MultiGraph:
    if isinstance(g, MultiGraph):
        return g
    edges = tuple((i, j) for i in range(g.n) for j in range(i, g.n) if g.adj.entry(i, j))
    return MultiGraph(g.labels, edges)


def pair_is_edge(nonsingular: bool, looped_u: bool, looped_v: bool) -> bool:
    """The decoding rule for a pair {u, v}: the 2x2 submatrix on it has
    determinant l_u l_v + a_uv over GF(2), so u-v is an edge iff "{u, v} is
    nonsingular" differs from "u and v are both looped"."""
    return nonsingular != (looped_u and looped_v)


def reconstruct_from_nullity_oracle(
    labels: Sequence[str], oracle: Callable[[frozenset[str]], int]
) -> LoopedSimpleGraph:
    """Rebuild the unique looped simple graph matching an induced-subgraph
    nullity oracle on all vertex subsets of size at most 2.

    A vertex is looped iff its singleton nullity is 0; a pair, nonsingular
    iff its nullity is 0, is decoded by `pair_is_edge`.  A nullity no graph
    gives is rejected (a singular pair has nullity 2 iff neither is looped).
    """
    labels = tuple(labels)
    looped: dict[str, bool] = {}
    for v in labels:
        nu = oracle(frozenset({v}))
        if nu not in (0, 1):
            raise ValueError(f"inconsistent oracle: nullity {nu} on a single vertex")
        looped[v] = nu == 0
    edges = []
    for u, v in itertools.combinations(labels, 2):
        nu = oracle(frozenset({u, v}))
        lu, lv = looped[u], looped[v]
        if nu not in (0, 1 if lu or lv else 2):
            raise ValueError(
                f"inconsistent oracle: nullity {nu} on pair with loop pattern {(lu, lv)}"
            )
        if pair_is_edge(nu == 0, lu, lv):
            edges.append((u, v))
    return LoopedSimpleGraph.build(labels, edges, (v for v in labels if looped[v]))


def nullity_oracle_of(g: LoopedSimpleGraph) -> Callable[[frozenset[str]], int]:
    """The induced-subgraph nullity oracle of a concrete graph."""

    def oracle(s: frozenset[str]) -> int:
        return nullity(g.induced(s).adj)

    return oracle


@lru_cache(maxsize=256)
def default_labels(n: int, prefix: str = "v") -> tuple[str, ...]:
    """v0..v{n-1}: the labels of every generated graph and matrix; e0.. name
    edges and c0.. circuits.  Memoized per (n, prefix): the result is an
    immutable tuple, so every caller can share it.  The cache is bounded, so
    a process that labels graphs of ever new sizes keeps only the recent
    tuples."""
    return tuple(f"{prefix}{i}" for i in range(n))


class _LabelCodec:
    """Ground labels to bit positions and back, for a class whose ground
    field is a tuple of distinct labels."""

    ground: tuple[str, ...]

    def index(self, v: str) -> int:
        try:
            return self.ground.index(v)
        except ValueError:
            raise ValueError(f"unknown element {v!r}") from None

    def mask_of(self, s: Iterable[str]) -> int:
        mask = 0
        for v in s:
            try:
                mask |= 1 << self.ground.index(v)
            except ValueError:
                self.index(v)  # raises the unknown-element error
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground[i] for i in range(len(self.ground)) if (mask >> i) & 1)


def _from_cells(labels: tuple[str, ...], bits: Iterable[object]) -> LoopedSimpleGraph:
    """The graph with cell (i, j >= i) set for each true bit, taken in row order."""
    n = len(labels)
    rows = [0] * n
    cells = ((i, j) for i in range(n) for j in range(i, n))
    for (i, j), bit in zip(cells, bits):
        if bit:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return LoopedSimpleGraph(labels, BitMatrix(n, n, rows))


def all_looped_simple_graphs(n: int) -> Iterator[LoopedSimpleGraph]:
    """Every looped simple graph on n labeled vertices (2^(n(n+1)/2) graphs)."""
    labels, cells = default_labels(n), n * (n + 1) // 2
    for bits in range(1 << cells):
        yield _from_cells(labels, ((bits >> k) & 1 for k in range(cells)))


def random_looped_simple_graph(rng: random.Random, n: int) -> LoopedSimpleGraph:
    """One rng.random() draw per cell, in row order: each cell set with p = 1/2."""
    draws = (rng.random() < 0.5 for _ in range(n * (n + 1) // 2))
    return _from_cells(default_labels(n), draws)
