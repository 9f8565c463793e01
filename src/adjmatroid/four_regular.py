"""4-regular multigraphs, Euler systems, circuit partitions and touch-graphs.

Edge i of the underlying multigraph owns half-edges 2i and 2i+1 (sibling
h ^ 1), listed at each vertex in edge-insertion order.  A transition system
pairs the four half-edges at every vertex; following pairings across edges
splits the edge set into closed trails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import LoopedSimpleGraph, MultiGraph, as_multigraph

Pairing = frozenset[frozenset[int]]
TransitionType = str  # "phi" | "chi" | "psi"


@dataclass(frozen=True)
class HalfEdgeGraph:
    """A 4-regular multigraph with the half-edge order at every vertex."""

    graph: MultiGraph

    def __post_init__(self) -> None:
        for i, d in enumerate(self.graph.degrees()):
            if d != 4:
                raise ValueError(f"vertex {self.graph.labels[i]!r} has degree {d}, need 4")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return len(self.graph.edges)

    @property
    def half_count(self) -> int:
        return 2 * len(self.graph.edges)

    def vertex_of_half(self, h: int) -> int:
        u, v = self.graph.edges[h >> 1]
        return u if h & 1 == 0 else v

    def vertex_halves(self, v: int) -> tuple[int, ...]:
        out = []
        for i, (a, b) in enumerate(self.graph.edges):
            if a == v:
                out.append(2 * i)
            if b == v:
                out.append(2 * i + 1)
        return tuple(out)

    def component_count(self) -> int:
        return self.graph.component_count()


@dataclass(frozen=True)
class TransitionSystem:
    """A fixed-point-free involution pairing half-edges at each vertex."""

    pairing: tuple[int, ...]

    def partner(self, h: int) -> int:
        return self.pairing[h]

    def validate(self, f: HalfEdgeGraph) -> None:
        if len(self.pairing) != f.half_count:
            raise ValueError("pairing length mismatch")
        for h, k in enumerate(self.pairing):
            if k == h or self.pairing[k] != h:
                raise ValueError("pairing is not a fixed-point-free involution")
            if f.vertex_of_half(h) != f.vertex_of_half(k):
                raise ValueError("pairing crosses vertices")

    def pairing_at(self, f: HalfEdgeGraph, v: int) -> Pairing:
        halves = f.vertex_halves(v)
        return frozenset(frozenset((h, self.pairing[h])) for h in halves)

    @classmethod
    def from_pairs(cls, f: HalfEdgeGraph, pairs: Sequence[tuple[int, int]]) -> "TransitionSystem":
        pairing = [-1] * f.half_count
        for a, b in pairs:
            pairing[a] = b
            pairing[b] = a
        t = cls(tuple(pairing))
        t.validate(f)
        return t


def all_transition_systems(f: HalfEdgeGraph) -> Iterator[TransitionSystem]:
    """All 3^n systems of pairing choices."""
    options = []
    for v in range(f.n):
        a, b, c, d = f.vertex_halves(v)
        options.append(
            (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
        )
    for choice in itertools.product(*options):
        pairs = [p for vertex_pairs in choice for p in vertex_pairs]
        yield TransitionSystem.from_pairs(f, pairs)


@dataclass(frozen=True)
class CircuitPartition:
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

    def edge_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(h >> 1 for h in c) for c in self.circuits)

    def pairing_at(self, v: int) -> Pairing:
        return self.transitions.pairing_at(self.f, v)

    def passages_at(self, v: int) -> tuple[tuple[int, int, int], ...]:
        """(circuit index, arriving half, departing half) per visit of v."""
        out = []
        for ci, circuit in enumerate(self.circuits):
            k = len(circuit)
            for i in range(k):
                dep = circuit[i]
                arr = circuit[i - 1] ^ 1
                if self.f.vertex_of_half(dep) == v:
                    out.append((ci, arr, dep))
        return tuple(out)

    def circuits_through(self, v: int) -> tuple[int, int]:
        """Indices of the circuits at the two passages of v."""
        passages = self.passages_at(v)
        if len(passages) != 2:
            raise AssertionError("a 4-regular vertex has exactly two passages")
        return (passages[0][0], passages[1][0])


def partition_from_transitions(f: HalfEdgeGraph, t: TransitionSystem) -> CircuitPartition:
    """Follow the pairings; circuits come out in order of least half-edge."""
    t.validate(f)
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
            h = t.partner(h ^ 1)
            if h == h0:
                break
        circuits.append(tuple(orbit))
    return CircuitPartition(f, t, tuple(circuits))


@dataclass(frozen=True)
class EulerSystem:
    """A circuit partition with exactly one circuit per connected component.

    The stored traversal order of each circuit fixes its preferred
    orientation; arriving halves are in-directed, departing halves
    out-directed.
    """

    partition: CircuitPartition

    def __post_init__(self) -> None:
        if self.partition.size != self.f.component_count():
            raise ValueError("not one circuit per connected component")

    @property
    def f(self) -> HalfEdgeGraph:
        return self.partition.f

    @property
    def circuits(self) -> tuple[tuple[int, ...], ...]:
        return self.partition.circuits

    @property
    def transitions(self) -> TransitionSystem:
        return self.partition.transitions

    def _in_out(self, v: int) -> tuple[tuple[int, int], tuple[int, int]]:
        passages = self.partition.passages_at(v)
        (_, arr_a, dep_a), (_, arr_b, dep_b) = passages
        return (arr_a, arr_b), (dep_a, dep_b)

    def phi_pairing(self, v: int) -> Pairing:
        return self.partition.pairing_at(v)

    def psi_pairing(self, v: int) -> Pairing:
        """The orientation-inconsistent pairing: ins together, outs together."""
        ins, outs = self._in_out(v)
        return frozenset((frozenset(ins), frozenset(outs)))

    def chi_pairing(self, v: int) -> Pairing:
        (arr_a, arr_b), (dep_a, dep_b) = self._in_out(v)
        return frozenset((frozenset((arr_a, dep_b)), frozenset((arr_b, dep_a))))


def euler_system(f: HalfEdgeGraph) -> EulerSystem:
    """Hierholzer splicing; deterministic in the half-edge order."""
    used = [False] * f.edge_count
    halves_at = [list(f.vertex_halves(v)) for v in range(f.n)]

    def walk(v0: int) -> list[int]:
        seq = []
        v = v0
        while True:
            dep = next((h for h in halves_at[v] if not used[h >> 1]), None)
            if dep is None:
                break
            used[dep >> 1] = True
            seq.append(dep)
            v = f.vertex_of_half(dep ^ 1)
        if seq and v != v0:
            raise AssertionError("open trail in an even-degree graph")
        return seq

    circuits = []
    for v0 in range(f.n):
        circuit = walk(v0)
        if not circuit:
            continue
        i = 0
        while i < len(circuit):
            sub = walk(f.vertex_of_half(circuit[i]))
            if sub:
                circuit[i:i] = sub
            else:
                i += 1
        circuits.append(tuple(circuit))

    pairing = [-1] * f.half_count
    for circuit in circuits:
        for i, dep in enumerate(circuit):
            arr = circuit[i - 1] ^ 1
            pairing[arr] = dep
            pairing[dep] = arr
    t = TransitionSystem(tuple(pairing))
    t.validate(f)
    return EulerSystem(CircuitPartition(f, t, tuple(circuits)))


def transition_type(c: EulerSystem, p: CircuitPartition, v: int) -> TransitionType:
    """How p crosses v relative to c: follows it (phi), crosses consistently
    with the orientation (chi), or pairs the two in-directed halves (psi)."""
    part = p.pairing_at(v)
    phi, chi, psi = c.phi_pairing(v), c.chi_pairing(v), c.psi_pairing(v)
    if len({phi, chi, psi}) != 3:
        raise AssertionError("degenerate transition pairings")
    if part == phi:
        return "phi"
    if part == psi:
        return "psi"
    if part == chi:
        return "chi"
    raise AssertionError("pairing matches no transition of the Euler system")


def interlacement(c: EulerSystem) -> LoopedSimpleGraph:
    """Unlooped graph on V(F); an edge where two vertices alternate v..w..v..w
    along a common circuit."""
    f = c.f
    labels = f.graph.labels
    edges = []
    for circuit in c.circuits:
        seq = [f.vertex_of_half(h) for h in circuit]
        positions: dict[int, list[int]] = {}
        for i, v in enumerate(seq):
            positions.setdefault(v, []).append(i)
        verts = sorted(positions)
        for a, b in itertools.combinations(verts, 2):
            i1, i2 = positions[a]
            j1, j2 = positions[b]
            if (i1 < j1 < i2) != (i1 < j2 < i2):
                edges.append((labels[a], labels[b]))
    return LoopedSimpleGraph.build(labels, edges)


def relative_interlacement(c: EulerSystem, p: CircuitPartition) -> LoopedSimpleGraph:
    """Interlacement of c with phi vertices dropped and psi vertices looped."""
    base = interlacement(c)
    keep = []
    loops = []
    for v in range(c.f.n):
        kind = transition_type(c, p, v)
        if kind == "phi":
            continue
        keep.append(base.labels[v])
        if kind == "psi":
            loops.append(base.labels[v])
    g = base.induced(keep)
    for v in loops:
        g = g.variant(v, "loop")
    return g


def touch_graph(p: CircuitPartition) -> MultiGraph:
    """One vertex per circuit; one edge per vertex of F joining the circuits
    passing it (a loop when both passages belong to the same circuit)."""
    labels = tuple(f"c{i}" for i in range(p.size))
    edges = []
    edge_labels = []
    for v in range(p.f.n):
        ci, cj = p.circuits_through(v)
        edges.append((labels[ci], labels[cj]))
        edge_labels.append(p.f.graph.labels[v])
    return MultiGraph.build(labels, edges, tuple(edge_labels))


def kappa(c: EulerSystem, v: int) -> EulerSystem:
    """Rewire the Euler system at v with its orientation-inconsistent pairing."""
    if not 0 <= v < c.f.n:
        raise ValueError(f"unknown vertex index {v}")
    pairing = list(c.transitions.pairing)
    for pair in c.psi_pairing(v):
        a, b = tuple(pair)
        pairing[a] = b
        pairing[b] = a
    part = partition_from_transitions(c.f, TransitionSystem(tuple(pairing)))
    return EulerSystem(part)


def compatible_euler_system(f: HalfEdgeGraph, p: CircuitPartition) -> EulerSystem:
    """An Euler system that disagrees with p at every vertex.

    Rewiring at a vertex never re-creates agreement elsewhere, so one pass
    over the vertices suffices.
    """
    c = euler_system(f)
    for v in range(f.n):
        if c.phi_pairing(v) == p.pairing_at(v):
            c = kappa(c, v)
    for v in range(f.n):
        if transition_type(c, p, v) == "phi":
            raise AssertionError("agreement survived the sweep")
    return c


@dataclass(frozen=True)
class Realization:
    """A 4-regular graph with a distinguished circuit partition."""

    f: HalfEdgeGraph
    partition: CircuitPartition


def realize_touch_graph(g: LoopedSimpleGraph | MultiGraph) -> Realization:
    """Build a 4-regular graph whose touch-graph reproduces g.

    One circuit per vertex of g: non-loop edges become 4-regular vertices
    strung on their endpoints' circuits; each loop adds a looped vertex in
    the middle of the lowest edge of its circuit, or a fresh double-loop
    vertex when its circuit does not exist yet.  Isolated unlooped vertices
    cannot be reached by any circuit and are rejected.
    """
    mg = as_multigraph(g)
    for i, d in enumerate(mg.degrees()):
        if d == 0:
            raise ValueError(
                f"vertex {mg.labels[i]!r} is isolated and unlooped, not realizable"
            )
    nonloop = [e for e, (a, b) in enumerate(mg.edges) if a != b]
    loops = [e for e, (a, b) in enumerate(mg.edges) if a == b]

    f_labels = [mg.edge_labels[e] for e in nonloop]
    f_vertex = {e: i for i, e in enumerate(nonloop)}

    edge_order: list[int] = []  # edge ids in file order
    ends: dict[int, tuple[int, int]] = {}
    circuit_of: dict[int, list[tuple[int, int]]] = {}  # g-vertex -> [(edge id, dir)]
    next_id = 0

    def new_edge(a: int, b: int) -> int:
        nonlocal next_id
        ends[next_id] = (a, b)
        next_id += 1
        return next_id - 1

    for u in range(mg.n):
        incident = [e for e in nonloop if u in mg.edges[e]]
        if not incident:
            continue
        circ = []
        for i in range(len(incident)):
            a = f_vertex[incident[i]]
            b = f_vertex[incident[(i + 1) % len(incident)]]
            eid = new_edge(a, b)
            edge_order.append(eid)
            circ.append((eid, 0))
        circuit_of[u] = circ

    for e in loops:
        u = mg.edges[e][0]
        if u not in circuit_of:
            y = len(f_labels)
            f_labels.append(mg.edge_labels[e])
            first = new_edge(y, y)
            second = new_edge(y, y)
            edge_order += [first, second]
            circuit_of[u] = [(first, 0), (second, 0)]
        else:
            circ = circuit_of[u]
            pos = min(range(len(circ)), key=lambda k: circ[k][0])
            eid, direction = circ[pos]
            a, b = ends[eid]
            head, tail = (a, b) if direction == 0 else (b, a)
            y = len(f_labels)
            f_labels.append(mg.edge_labels[e])
            enter = new_edge(head, y)
            mid = new_edge(y, y)
            leave = new_edge(y, tail)
            where = edge_order.index(eid)
            edge_order[where:where + 1] = [enter, mid, leave]
            del ends[eid]
            circ[pos:pos + 1] = [(enter, 0), (mid, 0), (leave, 0)]

    position = {eid: i for i, eid in enumerate(edge_order)}
    f_graph = MultiGraph(
        tuple(f_labels), tuple(ends[eid] for eid in edge_order)
    )
    f = HalfEdgeGraph(f_graph)

    def departing_half(eid: int, direction: int) -> int:
        return 2 * position[eid] + direction

    pairing = [-1] * f.half_count
    circuits = []
    for u in sorted(circuit_of):
        circ = circuit_of[u]
        halves = [departing_half(eid, d) for eid, d in circ]
        for i, dep in enumerate(halves):
            arr = halves[i - 1] ^ 1
            pairing[arr] = dep
            pairing[dep] = arr
        circuits.append(tuple(halves))
    t = TransitionSystem(tuple(pairing))
    t.validate(f)
    derived = partition_from_transitions(f, t)
    if derived.edge_sets() != frozenset(
        frozenset(h >> 1 for h in c) for c in circuits
    ):
        raise AssertionError("derived partition disagrees with the construction")
    return Realization(f, derived)


def file_order_partition(f: HalfEdgeGraph) -> CircuitPartition:
    """The partition pairing each vertex's first two and last two half-edges
    in edge-insertion order; this is how a plain edge list encodes one."""
    pairs = []
    for v in range(f.n):
        a, b, c, d = f.vertex_halves(v)
        pairs += [(a, b), (c, d)]
    return partition_from_transitions(f, TransitionSystem.from_pairs(f, pairs))


def random_four_regular(
    rng: random.Random, n: int, connected: bool = True, max_tries: int = 200
) -> MultiGraph:
    """Configuration-model 4-regular multigraph on n vertices."""
    labels = tuple(f"v{i}" for i in range(n))
    for _ in range(max_tries):
        stubs = [v for v in range(n) for _ in range(4)]
        rng.shuffle(stubs)
        edges = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(2 * n)]
        mg = MultiGraph(labels, tuple(edges))
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
