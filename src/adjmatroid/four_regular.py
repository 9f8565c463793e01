"""4-regular multigraphs, Euler systems, circuit partitions and touch-graphs.

Edge i of the underlying multigraph owns half-edges 2i and 2i+1 (sibling
h ^ 1).  A transition system pairs the four half-edges at every vertex;
following pairings across edges splits the edge set into closed trails.

Every incidence question about one vertex is a lookup in a table built once
per object: `HalfEdgeGraph.ends` (the vertex of each half-edge) and
`HalfEdgeGraph.halves` (the four half-edges at each vertex, in
edge-insertion order) in one pass over the edges, and
`CircuitPartition.passages` (each vertex's two visits) in one pass over the
circuits.  Each derived table is built in one pass with no function call per
element: the passages and `TransitionSystem.from_circuits` carry the
previous arriving half along each circuit instead of indexing back into it.

An Euler system is a circuit partition with one circuit per connected
component: `EulerSystem` subclasses `CircuitPartition` with only that check.
`_traced` returns the circuits of a valid pairing, and each builder wraps
them in its own type.  Both Euler systems come from one kernel, Kotzig's
merge (`_merged`): trace a start system once, then in one union-find pass
re-pair each vertex whose two pairs lie on different circuits, which joins
those circuits.  The graph's own system starts from the file-order pairing;
the system compatible with a partition starts from chi with respect to it
and re-pairs to psi.  Either is near-linear in the edge count, plus one
trace of the result.

The per-vertex steps of the pipeline are single passes.  Interlacement rows
come from one walk of each circuit with a running XOR of the vertex bits
seen so far: XOR-ing it into v's row at both of v's passages leaves exactly
the vertices met once in between.  The relative interlacement reads every
vertex's transition kind in one pass over the passages, by the rule
`transition_type` uses for one vertex; it gives phi vertices no bit and
keeps each psi vertex's own bit as its loop, so it is one graph.  The
realization is one closed walk per vertex u of the touch-graph: u's non-loop
edges in file order, then each loop at u twice in a row, with an edge of F
between each two consecutive entries.

Validation happens at the boundary, once.  `partition_from_transitions`
validates a caller's pairing before it traces it, and MultiGraph(...) and
build, HalfEdgeGraph(...) and EulerSystem(f, transitions, circuits) check
what they are given.
`transition_type`, `relative_interlacement` and `compatible_euler_system`
reject a partition traced on another graph (`HalfEdgeGraph.check_partition`,
O(1) when both hold the same graph object).
The Euler systems, touch-graphs and realizations this module derives are
valid by construction: they are built through `gf2.unchecked`, and no
pairing they build is validated.

A slow reference lives beside its checks in `verify` unless the CLI or the
benchmark needs it, so the validating rewiring kappa is `verify`'s.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Sequence

from .gf2 import Frozen, cached, unchecked
from .graph import LoopedSimpleGraph, MultiGraph, as_multigraph, default_labels, find_root

Pairing = frozenset[frozenset[int]]
TransitionType = str  # "phi" | "chi" | "psi"


class HalfEdgeGraph(Frozen):
    """A 4-regular multigraph with the half-edge order at every vertex; its
    tables ends and halves are set by __post_init__ and are not fields."""

    graph: MultiGraph

    def __post_init__(self) -> None:
        ends: list[int] = []
        halves: list[list[int]] = [[] for _ in range(self.graph.n)]
        for i, (u, v) in enumerate(self.graph.edges):
            ends += (u, v)
            halves[u].append(2 * i)
            halves[v].append(2 * i + 1)
        for v, at in enumerate(halves):
            if len(at) != 4:
                raise ValueError(f"vertex {self.graph.labels[v]!r} has degree {len(at)}, need 4")
        object.__setattr__(self, "ends", tuple(ends))
        object.__setattr__(self, "halves", tuple(map(tuple, halves)))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return len(self.graph.edges)

    @property
    def half_count(self) -> int:
        return 2 * len(self.graph.edges)

    @cached
    def component_count(self) -> int:
        return self.graph.component_count()

    def check_vertex(self, v: int) -> None:
        """Reject v unless it indexes a vertex; a negative v would otherwise
        read the tables from the end."""
        if not 0 <= v < self.n:
            raise ValueError(f"unknown vertex index {v}")

    def check_partition(self, p: CircuitPartition) -> None:
        """Reject p unless it is traced on this graph, so that its half-edges
        index this graph's tables; O(1) when p holds this very object."""
        if p.f != self:
            raise ValueError("the partition is traced on another graph")

    def transitions_at(self, v: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The three pairings of the half-edges at v, file order first."""
        self.check_vertex(v)
        a, b, c, d = self.halves[v]
        return (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))


class TransitionSystem(Frozen):
    """A fixed-point-free involution pairing half-edges at each vertex."""

    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairing", tuple(self.pairing))

    def validate(self, f: HalfEdgeGraph) -> None:
        if len(self.pairing) != f.half_count:
            raise ValueError("pairing length mismatch")
        for h, k in enumerate(self.pairing):
            if not isinstance(k, int):
                raise ValueError(f"partner {k!r} of half-edge {h} is not an int")
            if not 0 <= k < len(self.pairing):
                raise ValueError(
                    "pairing is not a fixed-point-free involution: "
                    f"partner {k} of half-edge {h} is out of range"
                )
            if k == h or self.pairing[k] != h:
                raise ValueError("pairing is not a fixed-point-free involution")
            if f.ends[h] != f.ends[k]:
                raise ValueError("pairing crosses vertices")

    def rewired(self, pairs: Iterable[Iterable[int]]) -> "TransitionSystem":
        """This system with each of the given pairs of half-edges joined."""
        pairing = list(self.pairing)
        for a, b in pairs:
            pairing[a] = b
            pairing[b] = a
        return TransitionSystem(pairing)

    @classmethod
    def from_pairs(cls, f: HalfEdgeGraph, pairs: Iterable[Iterable[int]]) -> "TransitionSystem":
        """The system joining each given pair, unchecked: a caller's pairs
        are validated by `partition_from_transitions`."""
        return cls((-1,) * f.half_count).rewired(pairs)

    @classmethod
    def from_circuits(
        cls, f: HalfEdgeGraph, circuits: Iterable[Sequence[int]]
    ) -> "TransitionSystem":
        """The system that joins each arriving half to the next departing one,
        written in one pass that carries the arriving half along each circuit."""
        pairing = [-1] * f.half_count
        for circuit in circuits:
            arr = circuit[-1] ^ 1
            for dep in circuit:
                pairing[arr] = dep
                pairing[dep] = arr
                arr = dep ^ 1
        return cls(pairing)


def all_transition_systems(f: HalfEdgeGraph) -> Iterator[TransitionSystem]:
    """All 3^n systems of pairing choices."""
    options = [f.transitions_at(v) for v in range(f.n)]
    for choice in itertools.product(*options):
        pairs = [p for vertex_pairs in choice for p in vertex_pairs]
        yield TransitionSystem.from_pairs(f, pairs)


class CircuitPartition(Frozen):
    """A transition system with the closed trails it induces.

    Each circuit is the tuple of departing half-edges in traversal order;
    the edge of circuit[i] is entered on circuit[i] and left on its sibling,
    after which the transition at the sibling's vertex picks circuit[i+1].
    """

    f: HalfEdgeGraph
    transitions: TransitionSystem
    circuits: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.circuits)

    def pairing_at(self, v: int) -> Pairing:
        self.f.check_vertex(v)
        pairing = self.transitions.pairing
        return frozenset(frozenset((h, pairing[h])) for h in self.f.halves[v])

    @cached
    def passages(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per vertex, (circuit index, arriving half, departing half) for each
        visit, in order of circuit index and then position in the circuit."""
        ends = self.f.ends
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.f.n)]
        for ci, circuit in enumerate(self.circuits):
            arr = circuit[-1] ^ 1
            for dep in circuit:
                out[ends[dep]].append((ci, arr, dep))
                arr = dep ^ 1
        return tuple(map(tuple, out))

    def circuits_through(self, v: int) -> tuple[int, int]:
        """Indices of the circuits at the two passages of v."""
        self.f.check_vertex(v)
        (ci, _, _), (cj, _, _) = self.passages[v]
        return (ci, cj)


def partition_from_transitions(f: HalfEdgeGraph, t: TransitionSystem) -> CircuitPartition:
    """Follow the pairings; circuits come out in order of least half-edge."""
    t.validate(f)
    return CircuitPartition(f, t, _traced(f, t))


def _traced(f: HalfEdgeGraph, t: TransitionSystem) -> tuple[tuple[int, ...], ...]:
    """The circuits of a system already known to be valid."""
    visited = [False] * f.half_count
    circuits = []
    for h0 in range(f.half_count):
        if visited[h0]:
            continue
        orbit = []
        h = h0
        while True:
            orbit.append(h)
            visited[h] = True
            visited[h ^ 1] = True
            h = t.pairing[h ^ 1]
            if h == h0:
                break
        circuits.append(tuple(orbit))
    return tuple(circuits)


class EulerSystem(CircuitPartition):
    """A circuit partition with exactly one circuit per connected component.

    The stored traversal order of each circuit fixes its preferred
    orientation; arriving halves are in-directed, departing halves
    out-directed.
    """

    def __post_init__(self) -> None:
        if self.size != self.f.component_count:
            raise ValueError("not one circuit per connected component")


def euler_system(f: HalfEdgeGraph) -> EulerSystem:
    """The Euler system of f, Kotzig's merge of its file-order system: each
    vertex's first two and last two half-edges paired (a-b, c-d), re-paired
    a-c, b-d wherever those pairs lie on different circuits; near-linear, and
    deterministic in the half-edge order."""
    return _merged(f, f.halves)


def transition_type(c: EulerSystem, p: CircuitPartition, v: int) -> TransitionType:
    """How p crosses v relative to c: follows it (phi), crosses consistently
    with the orientation (chi), or pairs the two in-directed halves (psi)."""
    c.f.check_vertex(v)
    c.f.check_partition(p)
    return _kinds((c.passages[v],), p.transitions.pairing)[0]


def _kinds(
    passages: Iterable[tuple[tuple[int, int, int], ...]], pairing: Sequence[int]
) -> list[TransitionType]:
    """The transition kind at each vertex, given its pair of passages of an
    Euler system and the pairing of a partition of the same graph.  It is
    read off the partner of the half on which the system first arrives: the
    system's next departure (phi), its other arriving half (psi), or else
    its other departure (chi), the only half left at the vertex."""
    return [
        "phi" if (partner := pairing[arr_a]) == dep_a else "psi" if partner == arr_b else "chi"
        for (_, arr_a, dep_a), (_, arr_b, _) in passages
    ]


def _interlacement_rows(c: EulerSystem, bit: Sequence[int]) -> list[int]:
    """Per vertex v, the XOR of bit[w] over the visits w from v's first
    passage up to its second: bit[v] plus the bits of the vertices met once
    in between.  One walk of each circuit with a running prefix XOR."""
    ends = c.f.ends
    rows = [0] * c.f.n
    for circuit in c.circuits:
        prefix = 0
        for dep in circuit:
            v = ends[dep]
            rows[v] ^= prefix
            prefix ^= bit[v]
    return rows


def interlacement(c: EulerSystem) -> LoopedSimpleGraph:
    """Graph on V(F) with an edge where two vertices alternate v..w..v..w
    along a common circuit."""
    n = c.f.n
    rows = _interlacement_rows(c, [1 << v for v in range(n)])
    rows = [row ^ (1 << v) for v, row in enumerate(rows)]
    # alternation is a symmetric relation, so the matrix is symmetric
    return LoopedSimpleGraph._derived(c.f.graph.labels, rows)


def relative_interlacement(c: EulerSystem, p: CircuitPartition) -> LoopedSimpleGraph:
    """Interlacement of c with phi vertices dropped and psi vertices looped."""
    c.f.check_partition(p)
    kinds = _kinds(c.passages, p.transitions.pairing)
    kept = [v for v, kind in enumerate(kinds) if kind != "phi"]
    bit = [0] * c.f.n
    for i, v in enumerate(kept):
        bit[v] = 1 << i
    rows = _interlacement_rows(c, bit)
    # each kept row holds its own bit once: keep it as the loop of a psi vertex
    data = tuple(rows[v] ^ (0 if kinds[v] == "psi" else bit[v]) for v in kept)
    labels = tuple(c.f.graph.labels[v] for v in kept)
    return LoopedSimpleGraph._derived(labels, data)


def touch_graph(p: CircuitPartition) -> MultiGraph:
    """One vertex per circuit; one edge per vertex of F joining the circuits
    passing it (a loop when both passages belong to the same circuit)."""
    edges = tuple((ci, cj) for (ci, _, _), (cj, _, _) in p.passages)
    labels = default_labels(p.size, "c")
    return unchecked(MultiGraph, labels=labels, edges=edges, edge_labels=p.f.graph.labels)


def compatible_euler_system(f: HalfEdgeGraph, p: CircuitPartition) -> EulerSystem:
    """An Euler system that disagrees with p at every vertex: with p's
    passages a1 -> d1 and a2 -> d2 at each vertex, Kotzig's merge of chi
    with respect to p (a1-d2, a2-d1) into psi (a1-a2, d1-d2).  Chi and psi
    both differ from p everywhere."""
    f.check_partition(p)
    return _merged(f, [(a1, d2, a2, d1) for (_, a1, d1), (_, a2, d2) in p.passages])


def _merged(f: HalfEdgeGraph, quads: Sequence[tuple[int, ...]]) -> EulerSystem:
    """Kotzig's merge (A. Kotzig, "Eulerian lines in finite 4-valent graphs
    and their transformations", 1968) of the start system that pairs x1-y1
    and x2-y2 at each vertex, given as quads[v] = (x1, y1, x2, y2).

    Trace the start system once, naming each circuit by its least edge.
    Then, in one pass with a union-find over the circuits, re-pair each
    vertex whose two pairs lie in different classes to x1-x2, y1-y2 and
    union the classes.  A switch merges the two circuits through v and
    keeps every other pairing, so a class stays one circuit; after the pass
    each vertex has its four edges in one class, so each component is one
    circuit.  Near-linear, plus one trace of the result.
    """
    pairing = [0] * f.half_count
    for x1, y1, x2, y2 in quads:
        pairing[x1], pairing[y1], pairing[x2], pairing[y2] = y1, x1, y2, x2
    circuit_of = [-1] * f.edge_count
    for e in range(f.edge_count):  # the start system is valid by construction: trace raw
        h = 2 * e
        while circuit_of[h >> 1] < 0:
            circuit_of[h >> 1] = e
            h = pairing[h ^ 1]
    parent = list(range(f.edge_count))
    for x1, y1, x2, y2 in quads:
        # pairs on one start circuit share a class without a lookup
        c1, c2 = circuit_of[x1 >> 1], circuit_of[x2 >> 1]
        if c1 != c2 and (r1 := find_root(parent, c1)) != (r2 := find_root(parent, c2)):
            pairing[x1], pairing[x2], pairing[y1], pairing[y2] = x2, x1, y2, y1
            parent[r1] = r2
    t = TransitionSystem(pairing)
    return unchecked(EulerSystem, f=f, transitions=t, circuits=_traced(f, t))


class Realization(Frozen):
    """A 4-regular graph with a distinguished circuit partition."""

    f: HalfEdgeGraph
    partition: CircuitPartition


def realize_touch_graph(g: LoopedSimpleGraph | MultiGraph) -> Realization:
    """Build a 4-regular graph whose touch-graph reproduces g.

    Vertex y of F is edge y of g in text order (`as_multigraph`), and
    circuit u is a closed walk: u's non-loop edges in that order, then each
    loop at u twice in a row.  F's edges join consecutive entries of each
    walk, circuit by circuit, so the circuits come in traced order.  With the
    loops last, no walk with a non-loop edge starts at a loop, so the edge
    list alone encodes the partition (`file_order_partition`).  An isolated
    unlooped vertex has an empty walk and is rejected.  The touch-graph is g
    edge for edge: `touch_graph(r.partition)` has g's vertices in order as
    `c<i>`, g's edges in text order with each pair ascending, and g's edge
    labels.
    """
    mg = as_multigraph(g)
    walks: list[list[int]] = [[] for _ in range(mg.n)]
    for y, (a, b) in enumerate(mg.edges):
        if a != b:
            walks[a].append(y)
            walks[b].append(y)
    for y, (a, b) in enumerate(mg.edges):
        if a == b:
            walks[a] += (y, y)
    edges: list[tuple[int, int]] = []
    circuits = []
    for u, walk in enumerate(walks):
        if not walk:
            raise ValueError(f"vertex {mg.labels[u]!r} is isolated and unlooped, not realizable")
        first = len(edges)
        edges += zip(walk, walk[1:] + walk[:1])
        circuits.append(tuple(range(2 * first, 2 * len(edges), 2)))
    f = HalfEdgeGraph(unchecked(
        MultiGraph, labels=mg.edge_labels, edges=tuple(edges),
        edge_labels=default_labels(len(edges), "e"),
    ))
    t = TransitionSystem.from_circuits(f, circuits)
    return Realization(f, CircuitPartition(f, t, tuple(circuits)))


def file_order_partition(f: HalfEdgeGraph) -> CircuitPartition:
    """The partition pairing each vertex's first two and last two half-edges
    in edge-insertion order; this is how a plain edge list encodes one.  It
    is valid by construction, so traced unvalidated, as `_merged` traces it."""
    pairs = [pair for v in range(f.n) for pair in f.transitions_at(v)[0]]
    t = TransitionSystem.from_pairs(f, pairs)
    return CircuitPartition(f, t, _traced(f, t))


SAMPLE_TRIES = 200  # configuration-model draws before giving up on connectivity


def random_four_regular(rng: random.Random, n: int, connected: bool = True) -> MultiGraph:
    """Configuration-model 4-regular multigraph on n vertices."""
    if connected and n < 1:  # an empty graph has no component, so no draw would pass
        raise ValueError(f"a connected 4-regular graph needs at least 1 vertex, got {n}")
    if n < 0:
        raise ValueError(f"a vertex count cannot be negative, got {n}")
    labels = default_labels(n)
    for _ in range(SAMPLE_TRIES):
        stubs = [v for v in range(n) for _ in range(4)]
        rng.shuffle(stubs)
        edges = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(2 * n)]
        mg = MultiGraph(labels, edges)
        if not connected or mg.component_count() == 1:
            return mg
    raise RuntimeError("failed to sample a connected 4-regular graph")


def small_four_regular_corpus(max_n: int = 5) -> list[MultiGraph]:
    """Deterministic connected 4-regular multigraphs on 1..max_n vertices."""
    out = []

    def add(labels: Sequence[str], edges: Sequence[tuple[str, str]]) -> None:
        mg = MultiGraph.build(tuple(labels), edges)
        if mg.n <= max_n:
            out.append(mg)

    add("a", [("a", "a"), ("a", "a")])
    add("ab", [("a", "b")] * 4)
    add("ab", [("a", "a"), ("a", "b"), ("a", "b"), ("b", "b")])
    add("abc", [("a", "b"), ("a", "b"), ("b", "c"), ("b", "c"), ("a", "c"), ("a", "c")])
    add("abc", [("a", "a"), ("a", "b"), ("a", "b"), ("b", "c"), ("b", "c"), ("c", "c")])
    add("abc", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "b"), ("b", "c"), ("a", "c")])
    add(
        "abcd",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
         ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    )
    add(
        "abcd",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
         ("a", "c"), ("b", "d"), ("a", "c"), ("b", "d")],
    )
    add(
        "abcd",
        [("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"),
         ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    )
    add(
        "abcde",
        [(u, v) for u, v in itertools.combinations("abcde", 2)],
    )
    add(
        "abcde",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
         ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )
    add(
        "abcde",
        [("a", "a"), ("a", "b"), ("a", "b"), ("b", "c"), ("b", "c"),
         ("c", "d"), ("c", "d"), ("d", "e"), ("d", "e"), ("e", "e")],
    )
    return out
