"""Euler systems, transitions, touch-graphs and the realization build."""

import itertools
import random
from collections import Counter

import networkx
import pytest
from conftest import entry_edge_pairs
from hypothesis import given, settings, strategies as st

from adjmatroid import four_regular, verify
from adjmatroid.four_regular import (
    CircuitPartition,
    EulerSystem,
    HalfEdgeGraph,
    TransitionSystem,
    all_transition_systems,
    compatible_euler_system,
    euler_system,
    file_order_partition,
    interlacement,
    partition_from_transitions,
    random_four_regular,
    realize_touch_graph,
    relative_interlacement,
    small_four_regular_corpus,
    touch_graph,
    transition_type,
)
from adjmatroid.graph import (
    LoopedSimpleGraph,
    MultiGraph,
    all_looped_simple_graphs,
    as_multigraph,
    find_root,
)

FIG8 = HalfEdgeGraph(MultiGraph.build("a", [("a", "a"), ("a", "a")]))
PARALLEL4 = HalfEdgeGraph(MultiGraph.build("uv", [("u", "v")] * 4))


def as_euler_system(p) -> EulerSystem:
    """p through the validating Euler-system constructor."""
    return EulerSystem(p.f, p.transitions, p.circuits)


def edge_sets(p) -> frozenset[frozenset[int]]:
    """The edge set of each circuit of p."""
    return frozenset(frozenset(h >> 1 for h in c) for c in p.circuits)


def connected_even_subsets(mg: MultiGraph) -> set[frozenset[int]]:
    """Closed-trail edge sets: connected with every incident degree even."""
    out = set()
    m = len(mg.edges)
    for mask in range(1, 1 << m):
        chosen = [e for e in range(m) if (mask >> e) & 1]
        degree: dict[int, int] = {}
        for e in chosen:
            u, v = mg.edges[e]
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if any(d % 2 for d in degree.values()):
            continue
        verts = sorted(degree)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            x = stack.pop()
            for e in chosen:
                u, v = mg.edges[e]
                if u == x and v not in seen:
                    seen.add(v), stack.append(v)
                elif v == x and u not in seen:
                    seen.add(u), stack.append(u)
        if len(seen) == len(verts):
            out.add(frozenset(chosen))
    return out


def brute_circuit_partitions(mg: MultiGraph) -> set[frozenset[frozenset[int]]]:
    """All partitions of the edges into closed-trail edge sets."""
    trails = connected_even_subsets(mg)
    full = frozenset(range(len(mg.edges)))
    found: set[frozenset[frozenset[int]]] = set()

    def extend(remaining: frozenset[int], parts: frozenset[frozenset[int]]) -> None:
        if not remaining:
            found.add(parts)
            return
        anchor = min(remaining)
        for t in trails:
            if anchor in t and t <= remaining:
                extend(remaining - t, parts | {t})

    extend(full, frozenset())
    return found


def test_euler_system_examples():
    c8 = euler_system(FIG8)
    assert len(c8.circuits) == 1 and len(c8.circuits[0]) == 2
    c4 = euler_system(PARALLEL4)
    assert len(c4.circuits) == 1 and len(c4.circuits[0]) == 4
    both = HalfEdgeGraph(
        MultiGraph.build("ab", [("a", "a"), ("a", "a"), ("b", "b"), ("b", "b")])
    )
    c = euler_system(both)
    assert len(c.circuits) == 2  # one per component


def test_rejects_non_four_regular():
    with pytest.raises(ValueError, match="^vertex 'a' has degree 1, need 4$"):
        HalfEdgeGraph(MultiGraph.build("ab", [("a", "b")]))
    # loops count twice; the first vertex off degree 4 is named
    with pytest.raises(ValueError, match="^vertex 'b' has degree 2, need 4$"):
        HalfEdgeGraph(MultiGraph.build("abc", [("a", "a"), ("a", "a"), ("b", "b")]))


def test_interlacement_examples():
    assert interlacement(euler_system(FIG8)) == LoopedSimpleGraph.build("a")
    il = interlacement(euler_system(PARALLEL4))
    assert entry_edge_pairs(il) == (("u", "v"),)
    both = HalfEdgeGraph(
        MultiGraph.build(
            "ab", [("a", "a"), ("a", "a"), ("b", "b"), ("b", "b")]
        )
    )
    assert entry_edge_pairs(interlacement(euler_system(both))) == ()


def test_partition_sizes():
    c = euler_system(FIG8)
    assert c.size == FIG8.component_count == 1
    sizes = sorted(
        partition_from_transitions(FIG8, t).size for t in all_transition_systems(FIG8)
    )
    assert sizes == [1, 1, 2]


def test_partitions_match_brute_force_enumeration():
    for mg in small_four_regular_corpus(3):
        f = HalfEdgeGraph(mg)
        seen = {
            edge_sets(partition_from_transitions(f, t))
            for t in all_transition_systems(f)
        }
        assert seen == brute_circuit_partitions(mg)


def test_transition_types():
    for mg in small_four_regular_corpus(3):
        f = HalfEdgeGraph(mg)
        c = euler_system(f)
        assert all(
            transition_type(c, c, v) == "phi" for v in range(f.n)
        )
        for t in all_transition_systems(f):
            p = partition_from_transitions(f, t)
            comp = compatible_euler_system(f, p)
            assert all(transition_type(comp, p, v) != "phi" for v in range(f.n))


def test_kappa_is_transition_involution():
    for mg in small_four_regular_corpus(3):
        f = HalfEdgeGraph(mg)
        c = euler_system(f)
        for v in range(f.n):
            again = verify._kappa(verify._kappa(c, v), v)
            assert again.transitions == c.transitions


def test_kappa_on_figure_eight():
    c = euler_system(FIG8)
    cv = verify._kappa(c, 0)
    assert len(cv.circuits) == 1 and len(cv.circuits[0]) == 2
    assert transition_type(c, cv, 0) == "psi"


def test_relative_interlacement():
    c = euler_system(PARALLEL4)
    own = relative_interlacement(c, c)
    assert own.n == 0  # every vertex follows the system
    for t in all_transition_systems(PARALLEL4):
        p = partition_from_transitions(PARALLEL4, t)
        comp = compatible_euler_system(PARALLEL4, p)
        rel = relative_interlacement(comp, p)
        assert sorted(rel.labels) == ["u", "v"]


def test_circuit_nullity_formula_small():
    from adjmatroid.gf2 import nullity

    for mg in small_four_regular_corpus(4):
        f = HalfEdgeGraph(mg)
        c = euler_system(f)
        for t in all_transition_systems(f):
            p = partition_from_transitions(f, t)
            assert nullity(relative_interlacement(c, p).adj) == p.size - f.component_count


def test_touch_graph_shapes():
    c = euler_system(PARALLEL4)
    tch = touch_graph(c)
    assert tch.n == 1
    assert all(u == v for u, v in tch.edges)  # one bouquet vertex
    # figure eight split into two loops: two circuit vertices, one edge
    split = next(
        t for t in all_transition_systems(FIG8)
        if partition_from_transitions(FIG8, t).size == 2
    )
    p = partition_from_transitions(FIG8, split)
    tch2 = touch_graph(p)
    assert tch2.n == 2 and len(tch2.edges) == 1
    assert tch2.edge_labels == ("a",)
    for mg in small_four_regular_corpus(3):
        f = HalfEdgeGraph(mg)
        for t in all_transition_systems(f):
            p = partition_from_transitions(f, t)
            tch = touch_graph(p)
            assert tch.n == p.size
            assert len(tch.edges) == f.n
            assert tch.component_count() == f.component_count


def assert_realization_matches_the_boundary(r) -> None:
    """r's graph and partition equal those the validating constructors build
    from the same data: the partition is the one its pairing traces, circuit
    order included, so it has the edge sets it was built from.  Its pairing
    and passages match the per-pair and index-back references."""
    g = r.f.graph
    assert r.f == HalfEdgeGraph(MultiGraph(g.labels, g.edges))
    assert r.partition == partition_from_transitions(r.f, r.partition.transitions)
    assert_one_pass_tables(r.partition)


def reproduces(g: LoopedSimpleGraph | MultiGraph, r) -> bool:
    """The touch-graph of the realization r is g edge for edge: g's vertices in
    order, g's edges in text order, each pair ascending (a touch-graph edge
    lists the lower circuit first), and g's edge labels."""
    assert_realization_matches_the_boundary(r)
    touch, mg = touch_graph(r.partition), as_multigraph(g)
    edges = tuple(tuple(sorted(edge)) for edge in mg.edges)
    return (touch.n, touch.edges, touch.edge_labels) == (mg.n, edges, mg.edge_labels)


def degrees(mg: MultiGraph) -> list[int]:
    """Incidences at each vertex; a loop counts twice."""
    count = Counter(v for edge in mg.edges for v in edge)
    return [count[v] for v in range(mg.n)]


def isolated_refusal(v: str) -> str:
    """The pattern of realize_touch_graph's refusal of vertex v."""
    return f"^vertex '{v}' is isolated and unlooped, not realizable$"


def test_realize_single_looped_vertex():
    g = LoopedSimpleGraph.build("v", loops="v")
    r = realize_touch_graph(g)
    assert r.f.n == 1
    assert len(r.f.graph.edges) == 2
    assert r.partition.size == 1
    assert reproduces(g, r)


def test_realize_single_edge():
    g = LoopedSimpleGraph.build("uv", [("u", "v")])
    r = realize_touch_graph(g)
    assert r.f.n == 1  # one vertex carrying both distinguished loops
    assert r.partition.size == 2
    assert reproduces(g, r)


def test_realize_rejects_isolated_unlooped():
    """The refusal names the first isolated unlooped vertex in index order."""
    cases = [
        (LoopedSimpleGraph.build("a"), "a"),
        (LoopedSimpleGraph.build("abc", [("a", "b")], loops="a"), "c"),
        (MultiGraph.build("abcd", [("c", "c"), ("a", "c")]), "b"),
    ]
    for g, v in cases:
        with pytest.raises(ValueError, match=isolated_refusal(v)):
            realize_touch_graph(g)


def test_realize_every_small_graph():
    """Every graph with n <= 4 is realized, or refused by its first isolated
    unlooped vertex."""
    realized = 0
    for n in range(5):
        for g in all_looped_simple_graphs(n):
            if all(g.adj.data):
                assert reproduces(g, realize_touch_graph(g))
                realized += 1
            else:
                first_isolated = g.labels[g.adj.data.index(0)]
                with pytest.raises(ValueError, match=isolated_refusal(first_isolated)):
                    realize_touch_graph(g)
    # looped graphs on n <= 4 labelled vertices with no isolated unlooped one
    assert realized == 1 + 1 + 5 + 45 + 809


def test_realize_random_graphs():
    rng = random.Random(2)
    done = 0
    while done < 25:
        n = rng.randrange(1, 6)
        g = LoopedSimpleGraph.build(
            tuple(f"v{i}" for i in range(n)),
            [
                (f"v{i}", f"v{j}")
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ],
            [f"v{i}" for i in range(n) if rng.random() < 0.4],
        )
        if any(g.adj.data[i] == 0 for i in range(g.n)):
            continue
        done += 1
        assert reproduces(g, realize_touch_graph(g))


def test_realize_random_multigraphs():
    # parallel edges and repeated loops, with edge labels out of order
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randrange(1, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n, 3 * n))]
        edges += [(v, v) for v in range(n) if rng.random() < 0.5 or all(v not in e for e in edges)]
        names = [f"x{k}" for k in range(len(edges))]
        rng.shuffle(names)
        g = MultiGraph(tuple(f"v{i}" for i in range(n)), tuple(edges), tuple(names))
        assert reproduces(g, realize_touch_graph(g))


def test_realize_walks_each_vertex_with_its_loops_last():
    # a's circuit walks its non-loop edges w, x, then its loops y, s, t twice
    # each; b's walks w, x, then z twice.  F's vertices are g's edges in order.
    g = MultiGraph.build(
        "ab", [("a", "b"), ("a", "b"), ("a", "a"), ("b", "b"), ("a", "a"), ("a", "a")], "wxyzst"
    )
    r = realize_touch_graph(g)
    w, x, y, z, s, t = range(6)
    assert r.f.graph.labels == tuple("wxyzst")
    assert r.f.graph.edges == (
        (w, x), (x, y), (y, y), (y, s), (s, s), (s, t), (t, t), (t, w),
        (w, x), (x, z), (z, z), (z, w),
    )
    assert r.partition.circuits == (tuple(range(0, 16, 2)), tuple(range(16, 24, 2)))
    assert touch_graph(r.partition).edges == g.edges
    assert reproduces(g, r)


def test_realize_many_loops_on_one_circuit():
    # 2,000 loops on one circuit, each visited twice in a row after p and q
    loops = [f"l{i}" for i in range(2000)]
    g = MultiGraph.build(
        "ab", [("a", "b"), ("a", "b")] + [("a", "a")] * len(loops), ["p", "q", *loops]
    )
    r = realize_touch_graph(g)
    assert_one_pass_tables(r.partition)
    assert r.f.n == len(loops) + 2
    assert degrees(r.f.graph) == [4] * r.f.n
    tch = touch_graph(r.partition)
    assert tch.n == 2
    ends = {label: tch.edges[e] for e, label in enumerate(tch.edge_labels)}
    assert sorted(ends) == sorted(g.edge_labels)
    (home, _), (c, d) = ends["l0"], ends["p"]
    assert c != d and ends["q"] in ((c, d), (d, c))
    assert all(ends[label] == (home, home) for label in loops)


def test_realize_encodes_partition_in_file_order():
    """Where every vertex of g has a non-loop edge, no walk starts at a loop,
    so the emitted edge order carries the distinguished partition."""
    checked = 0
    for n in range(5):
        for g in all_looped_simple_graphs(n):
            if all(g.neighbor_mask(v) for v in g.labels):
                r = realize_touch_graph(g)
                assert file_order_partition(r.f).transitions == r.partition.transitions
                checked += 1
    assert checked == 1 + 0 + 4 + 32 + 656


def test_realize_reproduces_seeded_multigraphs():
    """Loop-heavy multigraphs with shuffled edge labels: loop-only circuits,
    circuits with more loops than non-loop edges, and isolated vertices,
    which are refused by name."""
    rng = random.Random(26)
    loop_only = loop_heavy = isolated = 0
    for _ in range(1500):
        n = rng.randrange(1, 9)
        edges = [
            (v, v) if rng.random() < 0.6 else (v, rng.randrange(n))
            for v in (rng.randrange(n) for _ in range(rng.randrange(25)))
        ]
        names = [f"x{k}" for k in range(len(edges))]
        rng.shuffle(names)
        g = MultiGraph(tuple(f"v{i}" for i in range(n)), tuple(edges), tuple(names))
        start = Counter(v for a, b in edges if a != b for v in (a, b))
        loop_counts = Counter(a for a, b in edges if a == b)
        unreached = [v for v in range(n) if not start[v] and not loop_counts[v]]
        if unreached:
            with pytest.raises(ValueError, match=isolated_refusal(f"v{unreached[0]}")):
                realize_touch_graph(g)
        else:
            assert reproduces(g, realize_touch_graph(g))
        loop_only += any(not start[v] for v in loop_counts)
        loop_heavy += any(m > start[v] for v, m in loop_counts.items())
        isolated += bool(unreached)
    assert loop_only >= 500 and loop_heavy >= 500 and isolated >= 100


def test_realize_reproduces_large_touch_graphs():
    rng = random.Random(27)
    for n in (150, 2400):
        for connected in (True, False):
            f = HalfEdgeGraph(sample_graph(rng, n, connected))
            for p in (file_order_partition(f), random_partition(rng, f)):
                tch = touch_graph(p)
                assert reproduces(tch, realize_touch_graph(tch))


def assert_derived_objects_match_the_boundary(f: HalfEdgeGraph, p) -> None:
    """Each object the pipeline builds unchecked from f and p equals the one
    rebuilt from its own data through the validating boundary: the Euler
    systems' pairings validate and trace to one circuit per component, the
    touch-graph is the one MultiGraph.build makes from circuit labels, and
    the realization of that touch-graph reproduces it.  The Euler system
    differs from the file-order partition it merges at one vertex per
    circuit it joins."""
    c = euler_system(f)
    assert c == as_euler_system(partition_from_transitions(f, c.transitions))
    start = file_order_partition(f)
    switched = sum(c.pairing_at(v) != start.pairing_at(v) for v in range(f.n))
    assert switched == start.size - f.component_count
    comp = compatible_euler_system(f, p)
    assert comp == as_euler_system(partition_from_transitions(f, comp.transitions))
    labels = tuple(f"c{i}" for i in range(p.size))
    passing = [p.circuits_through(v) for v in range(f.n)]
    tch = touch_graph(p)
    assert tch == MultiGraph.build(labels, [(labels[i], labels[j]) for i, j in passing], f.graph.labels)
    assert reproduces(tch, realize_touch_graph(tch))


def test_derived_objects_match_the_boundary_on_every_small_partition():
    checked = 0
    for mg in small_four_regular_corpus():
        f = HalfEdgeGraph(mg)
        for t in all_transition_systems(f):
            assert_derived_objects_match_the_boundary(f, partition_from_transitions(f, t))
            checked += 1
    assert checked == 3 + 2 * 3**2 + 3 * 3**3 + 3 * 3**4 + 3 * 3**5


def test_derived_objects_match_the_boundary_on_large_seeded_graphs():
    rng = random.Random(16)
    for n in (150, 2400):
        for connected in (True, False):
            f = HalfEdgeGraph(sample_graph(rng, n, connected))
            assert (f.component_count == 1) == connected
            for p in (file_order_partition(f), random_partition(rng, f)):
                assert_derived_objects_match_the_boundary(f, p)


def test_euler_system_rejects_the_wrong_circuit_count():
    two = HalfEdgeGraph(MultiGraph.build("ab", [("a", "a"), ("a", "a"), ("b", "b"), ("b", "b")]))
    for f, size in ((FIG8, 2), (two, 3), (two, 4)):
        partitions = (partition_from_transitions(f, t) for t in all_transition_systems(f))
        p = next(p for p in partitions if p.size == size)
        with pytest.raises(ValueError, match="^not one circuit per connected component$"):
            as_euler_system(p)
    c = euler_system(two)
    assert as_euler_system(c) == c and hash(as_euler_system(c)) == hash(c)
    assert isinstance(c, CircuitPartition) and not hasattr(c, "partition")


def test_random_four_regular_is_four_regular():
    rng = random.Random(0)
    for _ in range(10):
        mg = random_four_regular(rng, rng.randrange(1, 7))
        f = HalfEdgeGraph(mg)
        assert f.component_count == 1
        assert degrees(mg) == [4] * mg.n


def test_random_four_regular_refuses_a_connected_empty_graph_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    for n in (0, -1):
        message = f"^a connected 4-regular graph needs at least 1 vertex, got {n}$"
        with pytest.raises(ValueError, match=message):
            random_four_regular(rng, n)
    assert rng.getstate() == state
    assert random_four_regular(rng, 0, connected=False) == MultiGraph((), ())


def test_random_four_regular_refuses_a_negative_vertex_count():
    rng = random.Random(0)
    state = rng.getstate()
    for n in (-1, -2):
        with pytest.raises(ValueError, match=f"^a vertex count cannot be negative, got {n}$"):
            random_four_regular(rng, n, connected=False)
    assert rng.getstate() == state


def test_transition_system_validation():
    involution = "pairing is not a fixed-point-free involution"
    for pairing, message in (
        ((1, 0, 3, 2), "pairing length mismatch"),
        (tuple(range(PARALLEL4.half_count)), involution),  # fixed points
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            partition_from_transitions(PARALLEL4, TransitionSystem(pairing))
    # from_pairs does not check; partition_from_transitions rejects its
    # malformed results
    two = HalfEdgeGraph(MultiGraph.build("ab", [("a", "a"), ("a", "b"), ("a", "b"), ("b", "b")]))
    for pairs, message in (
        # b's half-edges left unpaired
        ([(0, 1), (2, 4)], f"{involution}: partner -1 of half-edge 3 is out of range"),
        ([(0, 3), (1, 2), (4, 5), (6, 7)], "pairing crosses vertices"),  # 0 is at a, 3 at b
        ([(0, 1), (2, 4), (3, 5), (6, 7), (0, 2)], involution),  # 0 joined twice
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            partition_from_transitions(two, TransitionSystem.from_pairs(two, pairs))


def test_transition_system_rejects_out_of_range_partners():
    """A partner outside the half-edges is rejected before it indexes the
    pairing: a too-large one would raise IndexError, a negative one would
    read the pairing from the end."""
    for pairing, partner in (((1, 0, 7, 2), 7), ((1, 0, -1, 2), -1)):
        with pytest.raises(ValueError, match=f"partner {partner} of half-edge 2 is out of range$"):
            partition_from_transitions(FIG8, TransitionSystem(pairing))


def scan_ends(mg: MultiGraph) -> list[int]:
    """The vertex of each half-edge, read from the edge list one half at a time."""
    return [mg.edges[h >> 1][h & 1] for h in range(2 * len(mg.edges))]


def scan_halves(mg: MultiGraph, v: int) -> tuple[int, ...]:
    """The half-edges at v, by a scan of every edge."""
    out = []
    for i, (a, b) in enumerate(mg.edges):
        if a == v:
            out.append(2 * i)
        if b == v:
            out.append(2 * i + 1)
    return tuple(out)


def scan_passages(p, v: int) -> tuple[tuple[int, int, int], ...]:
    """(circuit, arriving, departing) per visit of v, by a scan of every circuit."""
    ends = scan_ends(p.f.graph)
    return tuple(
        (ci, circuit[i - 1] ^ 1, dep)
        for ci, circuit in enumerate(p.circuits)
        for i, dep in enumerate(circuit)
        if ends[dep] == v
    )


def sample_graph(rng: random.Random, n: int, connected: bool) -> MultiGraph:
    """A random 4-regular graph on n vertices, or one with two components
    (n + 1 vertices when n is even) whose edges interleave."""
    if connected:
        return random_four_regular(rng, n)
    a, b = random_four_regular(rng, n // 2 + 1), random_four_regular(rng, (n + 1) // 2)
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    rng.shuffle(edges)
    labels = tuple(f"v{i}" for i in range(a.n + b.n))
    return MultiGraph(labels, tuple(edges))


def table_cases() -> list[HalfEdgeGraph]:
    """Every corpus graph and seeded random ones with n <= 40, connected and
    not; the disconnected ones interleave the edges of their components."""
    rng = random.Random(8)
    graphs = list(small_four_regular_corpus())
    for n in (1, 2, 3, 7, 12, 25, 40):
        graphs += [sample_graph(rng, n, True), sample_graph(rng, n, False)]
    return [HalfEdgeGraph(mg) for mg in graphs]


def random_partition(rng: random.Random, f: HalfEdgeGraph):
    pairs = [pair for v in range(f.n) for pair in rng.choice(f.transitions_at(v))]
    return partition_from_transitions(f, TransitionSystem.from_pairs(f, pairs))


def test_incidence_tables_match_the_edge_scans():
    cases = table_cases()
    assert sum(f.component_count > 1 for f in cases) >= 7
    rng = random.Random(9)
    for f in cases:
        mg = f.graph
        assert list(f.ends) == scan_ends(mg)
        assert f.halves == tuple(scan_halves(mg, v) for v in range(f.n))
        for v in range(f.n):
            a, b, c, d = scan_halves(mg, v)
            assert f.transitions_at(v)[0] == ((a, b), (c, d))
        for p in (euler_system(f), file_order_partition(f), random_partition(rng, f)):
            assert p.passages == tuple(scan_passages(p, v) for v in range(f.n))


def test_vertex_index_is_checked():
    f = HalfEdgeGraph(random_four_regular(random.Random(5), 4))
    c = euler_system(f)
    p = file_order_partition(f)
    per_vertex = [
        f.transitions_at,
        p.pairing_at,
        p.circuits_through,
        lambda v: transition_type(c, p, v),
        lambda v: verify._kappa(c, v),
    ]
    for v in (-1, f.n):
        for call in per_vertex:
            with pytest.raises(ValueError, match=f"^unknown vertex index {v}$"):
                call(v)


def pairwise_interlacement(c) -> LoopedSimpleGraph:
    """Reference: test every vertex pair of every circuit for alternation."""
    f = c.f
    labels = f.graph.labels
    edges = []
    for circuit in c.circuits:
        positions: dict[int, list[int]] = {}
        for i, h in enumerate(circuit):
            positions.setdefault(f.ends[h], []).append(i)
        for a, b in itertools.combinations(sorted(positions), 2):
            i1, i2 = positions[a]
            j1, j2 = positions[b]
            if (i1 < j1 < i2) != (i1 < j2 < i2):
                edges.append((labels[a], labels[b]))
    return LoopedSimpleGraph.build(labels, edges)


def chi_pairing(c, v: int):
    """The orientation-consistent pairing at v that c does not follow: each
    arriving half with the departing half of the other passage."""
    (_, arr_a, dep_a), (_, arr_b, dep_b) = c.passages[v]
    return frozenset((frozenset((arr_a, dep_b)), frozenset((arr_b, dep_a))))


def psi_pairing(c, v: int):
    """The orientation-inconsistent pairing at v: ins together, outs together."""
    (_, arr_a, dep_a), (_, arr_b, dep_b) = c.passages[v]
    return frozenset((frozenset((arr_a, arr_b)), frozenset((dep_a, dep_b))))


def pairing_transition_type(c, p, v: int) -> str:
    """Reference: match p's pairing at v against c's three pairings as sets."""
    part = p.pairing_at(v)
    phi, chi, psi = c.pairing_at(v), chi_pairing(c, v), psi_pairing(c, v)
    assert len({phi, chi, psi}) == 3
    return {phi: "phi", chi: "chi", psi: "psi"}[part]


def slow_kotzig(f: HalfEdgeGraph, quads) -> EulerSystem:
    """Reference Kotzig merge of the system pairing x1-y1 and x2-y2 at each
    vertex, quads[v] = (x1, y1, x2, y2): vertex by vertex, switch to x1-x2,
    y1-y2 where the two pairs lie on different circuits of the current
    partition, and trace the switched system through the validating
    boundary.  Each switch joins two circuits into one."""
    def circuit_of(p) -> dict[int, int]:
        return {h >> 1: ci for ci, circuit in enumerate(p.circuits) for h in circuit}

    pairs = [pair for x1, y1, x2, y2 in quads for pair in ((x1, y1), (x2, y2))]
    p = partition_from_transitions(f, TransitionSystem.from_pairs(f, pairs))
    on = circuit_of(p)
    for x1, y1, x2, y2 in quads:
        if on[x1 >> 1] != on[x2 >> 1]:
            switched = partition_from_transitions(f, p.transitions.rewired(((x1, x2), (y1, y2))))
            assert switched.size == p.size - 1
            p, on = switched, circuit_of(switched)
    return as_euler_system(p)


def parent_compatible_pairing(f: HalfEdgeGraph, p) -> tuple[int, ...]:
    """Reference: the compatible system's pairing written out over p's
    passages with its own union-find pass, chi with respect to p merged into
    psi, so that the shared kernel keeps it bit for bit."""
    pairing = [0] * f.half_count
    for (_, a1, d1), (_, a2, d2) in p.passages:
        pairing[a1], pairing[d2], pairing[a2], pairing[d1] = d2, a1, d1, a2
    circuit_of = [-1] * f.edge_count
    for e in range(f.edge_count):
        h = 2 * e
        while circuit_of[h >> 1] < 0:
            circuit_of[h >> 1] = e
            h = pairing[h ^ 1]
    parent = list(range(f.edge_count))
    for (_, a1, d1), (_, a2, d2) in p.passages:
        x, y = find_root(parent, circuit_of[a1 >> 1]), find_root(parent, circuit_of[a2 >> 1])
        if x != y:
            pairing[a1], pairing[a2], pairing[d1], pairing[d2] = a2, a1, d2, d1
            parent[x] = y
    return tuple(pairing)


def assert_kotzig_references(f: HalfEdgeGraph, p) -> None:
    """Both builders equal the slow Kotzig merge of their start systems, the
    file order and chi with respect to p; the compatible one also equals its
    written-out pairing."""
    assert euler_system(f) == slow_kotzig(f, f.halves)
    comp = compatible_euler_system(f, p)
    chi = [(a1, d2, a2, d1) for (_, a1, d1), (_, a2, d2) in p.passages]
    assert comp == slow_kotzig(f, chi)
    assert comp.transitions.pairing == parent_compatible_pairing(f, p)


def test_kotzig_references_on_every_small_partition():
    checked = 0
    for mg in small_four_regular_corpus():
        f = HalfEdgeGraph(mg)
        for t in all_transition_systems(f):
            assert_kotzig_references(f, partition_from_transitions(f, t))
            checked += 1
    assert checked == 3 + 2 * 3**2 + 3 * 3**3 + 3 * 3**4 + 3 * 3**5


def test_kotzig_references_on_seeded_graphs():
    rng = random.Random(25)
    for n in (1, 2, 3, 7, 40, 150, 2400):
        for connected in (True, False):
            f = HalfEdgeGraph(sample_graph(rng, n, connected))
            assert (f.component_count == 1) == connected
            for p in (file_order_partition(f), random_partition(rng, f), euler_system(f)):
                assert_kotzig_references(f, p)


def pairs_from_circuits(f: HalfEdgeGraph, circuits) -> TransitionSystem:
    """Reference: join each arriving half to the next departing one, one
    pair at a time through from_pairs."""
    return TransitionSystem.from_pairs(
        f, ((c[i - 1] ^ 1, dep) for c in circuits for i, dep in enumerate(c))
    )


def indexed_passages(p) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Reference: each passage's arriving half read back from the circuit
    at the position before its departure."""
    out = [[] for _ in range(p.f.n)]
    for ci, circuit in enumerate(p.circuits):
        for i, dep in enumerate(circuit):
            out[p.f.ends[dep]].append((ci, circuit[i - 1] ^ 1, dep))
    return tuple(map(tuple, out))


def assert_one_pass_tables(p) -> None:
    """from_circuits and the passages of p against their per-pair and
    index-back references; the circuits of a valid partition give back its
    own pairing.  Every realization test checks its partition here too."""
    assert TransitionSystem.from_circuits(p.f, p.circuits) == pairs_from_circuits(p.f, p.circuits)
    assert TransitionSystem.from_circuits(p.f, p.circuits) == p.transitions
    assert p.passages == indexed_passages(p)


def test_one_pass_tables_on_every_small_partition():
    checked = 0
    for mg in small_four_regular_corpus():
        f = HalfEdgeGraph(mg)
        assert_one_pass_tables(euler_system(f))
        for t in all_transition_systems(f):
            p = partition_from_transitions(f, t)
            assert_one_pass_tables(p)
            assert_one_pass_tables(compatible_euler_system(f, p))
            checked += 1
    assert checked == 3 + 2 * 3**2 + 3 * 3**3 + 3 * 3**4 + 3 * 3**5


def test_one_pass_tables_on_seeded_graphs():
    rng = random.Random(24)
    for n in (1, 2, 7, 40, 150, 2400):
        for connected in (True, False):
            f = HalfEdgeGraph(sample_graph(rng, n, connected))
            assert (f.component_count == 1) == connected
            assert_one_pass_tables(euler_system(f))
            for p in (file_order_partition(f), random_partition(rng, f)):
                assert_one_pass_tables(p)
                assert_one_pass_tables(compatible_euler_system(f, p))


def test_a_partition_traced_on_another_graph_is_rejected():
    """Seeded pairs of unequal 4-regular graphs of one order: each route that
    reads a partition's half-edges through another graph's tables rejects
    it, before it builds anything."""
    rng = random.Random(2)
    checked = 0
    while checked < 300:
        n = rng.randrange(2, 7)
        f = HalfEdgeGraph(random_four_regular(rng, n, rng.random() < 0.5))
        g = HalfEdgeGraph(random_four_regular(rng, n, rng.random() < 0.5))
        if f == g:
            continue
        p, c = random_partition(rng, g), euler_system(f)
        for call in (
            lambda: compatible_euler_system(f, p),
            lambda: relative_interlacement(c, p),
            lambda: transition_type(c, p, rng.randrange(n)),
        ):
            with pytest.raises(ValueError, match="^the partition is traced on another graph$"):
                call()
        checked += 1
    # an equal graph built separately numbers its half-edges the same way
    twin = HalfEdgeGraph(MultiGraph(f.graph.labels, f.graph.edges, f.graph.edge_labels))
    p = random_partition(rng, twin)
    assert relative_interlacement(c, p) == relative_interlacement(euler_system(twin), p)
    assert compatible_euler_system(f, p) == compatible_euler_system(twin, p)


def assert_compatible(f: HalfEdgeGraph, p, comp) -> None:
    """comp is a valid system with one circuit per component that shares no
    pair with p at any half-edge, read both off the pairings and off the
    traced circuits; the relative interlacement of comp against p keeps
    every vertex."""
    comp.transitions.validate(f)
    assert as_euler_system(partition_from_transitions(f, comp.transitions)) == comp
    assert comp.size == f.component_count
    assert all(x != y for x, y in zip(comp.transitions.pairing, p.transitions.pairing))
    assert all(comp.pairing_at(v) != p.pairing_at(v) for v in range(f.n))
    assert sorted(relative_interlacement(comp, p).labels) == sorted(f.graph.labels)


def reference_relative_interlacement(c, p) -> LoopedSimpleGraph:
    """Drop phi vertices from the interlacement, then loop each psi vertex."""
    labels = c.f.graph.labels
    kinds = [pairing_transition_type(c, p, v) for v in range(c.f.n)]
    g = pairwise_interlacement(c).induced(x for x, kind in zip(labels, kinds) if kind != "phi")
    for x, kind in zip(labels, kinds):
        if kind == "psi":
            g = g.variant(x, "loop")
    return g


def check_fast_routes(f: HalfEdgeGraph, p) -> None:
    """Both Euler systems against the slow Kotzig merge, and the prefix-XOR
    interlacement, the O(1) transition type and the relative interlacement
    against their references, on the Euler system and on the compatible
    one."""
    assert_kotzig_references(f, p)
    c = euler_system(f)
    assert interlacement(c) == pairwise_interlacement(c)
    comp = compatible_euler_system(f, p)
    assert_compatible(f, p, comp)
    for system in (c, comp):
        kinds = [transition_type(system, p, v) for v in range(f.n)]
        assert kinds == [pairing_transition_type(system, p, v) for v in range(f.n)]
        assert relative_interlacement(system, p) == reference_relative_interlacement(system, p)


def test_fast_routes_match_references_on_every_small_partition():
    checked = 0
    for mg in small_four_regular_corpus(4):
        f = HalfEdgeGraph(mg)
        for t in all_transition_systems(f):
            check_fast_routes(f, partition_from_transitions(f, t))
            checked += 1
    assert checked == 3 + 2 * 3**2 + 3 * 3**3 + 3 * 3**4


def test_fast_routes_match_references_on_seeded_graphs():
    rng = random.Random(10)
    for n in (5, 9, 17, 33, 60, 100, 150):
        for connected in (True, False):
            f = HalfEdgeGraph(sample_graph(rng, n, connected))
            assert (f.component_count == 1) == connected
            for p in (file_order_partition(f), random_partition(rng, f)):
                check_fast_routes(f, p)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.booleans())
def test_fast_routes_match_references_property(n, seed, connected):
    rng = random.Random(seed)
    f = HalfEdgeGraph(sample_graph(rng, n, connected))
    check_fast_routes(f, random_partition(rng, f))


def test_compatible_euler_system_traces_once(monkeypatch):
    """One trace of the final pairing, and no validation: it is valid by
    construction."""
    rng = random.Random(12)
    cases = [(f, p) for f in table_cases() for p in (file_order_partition(f), random_partition(rng, f))]
    traced, validated = [], []
    trace = four_regular._traced
    monkeypatch.setattr(four_regular, "_traced", lambda f, t: traced.append(t) or trace(f, t))
    check = TransitionSystem.validate
    monkeypatch.setattr(TransitionSystem, "validate", lambda t, f: validated.append(t) or check(t, f))
    for f, p in cases:
        traced.clear()
        comp = compatible_euler_system(f, p)
        assert traced == [comp.transitions]
    assert validated == []


def test_compatible_euler_system_on_every_small_partition():
    checked = 0
    for mg in small_four_regular_corpus(5):
        f = HalfEdgeGraph(mg)
        for t in all_transition_systems(f):
            p = partition_from_transitions(f, t)
            assert_compatible(f, p, compatible_euler_system(f, p))
            checked += 1
    assert checked == 3 + 2 * 3**2 + 3 * 3**3 + 3 * 3**4 + 3 * 3**5


def test_compatible_euler_system_on_seeded_graphs():
    rng = random.Random(13)
    for n in (1, 2, 6, 11, 24, 50, 97, 150):
        for connected in (True, False):
            f = HalfEdgeGraph(sample_graph(rng, n, connected))
            assert (f.component_count == 1) == connected
            for p in (file_order_partition(f), random_partition(rng, f), euler_system(f)):
                assert_compatible(f, p, compatible_euler_system(f, p))


def test_compatible_euler_system_builds_no_euler_system(monkeypatch):
    """One Kotzig merge per compatible system, and no Euler system of the
    graph built on the way."""
    builds, merges = [], []
    build, merge = four_regular.euler_system, four_regular._merged
    monkeypatch.setattr(four_regular, "euler_system", lambda f: builds.append(f) or build(f))
    monkeypatch.setattr(four_regular, "_merged", lambda f, quads: merges.append(f) or merge(f, quads))
    rng = random.Random(14)
    for connected in (True, False):
        f = HalfEdgeGraph(sample_graph(rng, 30, connected))
        for p in (file_order_partition(f), random_partition(rng, f)):
            compatible_euler_system(f, p)
    assert builds == [] and len(merges) == 4


def nx_edge_keyed(mg: MultiGraph) -> networkx.MultiGraph:
    """mg as a networkx multigraph whose edge keys are mg's edge indices."""
    out = networkx.MultiGraph()
    out.add_nodes_from(range(mg.n))
    out.add_edges_from((u, v, e) for e, (u, v) in enumerate(mg.edges))
    return out


def assert_networkx_euler_system(c) -> None:
    """Each circuit is a closed trail using its component's edges once each,
    and networkx finds that component Eulerian."""
    mg = c.f.graph
    g = nx_edge_keyed(mg)
    components = list(networkx.connected_components(g))
    assert len(c.circuits) == len(components)
    for circuit in c.circuits:
        edges = [h >> 1 for h in circuit]
        # each departing half leaves the vertex the previous edge arrived at
        for i, h in enumerate(circuit):
            prev = circuit[i - 1]
            assert mg.edges[h >> 1][h & 1] == mg.edges[prev >> 1][1 - (prev & 1)]
        (component,) = (x for x in components if mg.edges[edges[0]][0] in x)
        sub = g.subgraph(component)
        assert networkx.is_eulerian(sub)
        assert Counter(edges) == Counter(key for _, _, key in sub.edges(keys=True))


def test_euler_systems_match_networkx():
    rng = random.Random(15)
    for n in (1, 3, 8, 20, 45, 90):
        for connected in (True, False):
            f = HalfEdgeGraph(sample_graph(rng, n, connected))
            assert f.component_count == networkx.number_connected_components(nx_edge_keyed(f.graph))
            assert_networkx_euler_system(euler_system(f))
            for p in (file_order_partition(f), random_partition(rng, f)):
                assert_networkx_euler_system(compatible_euler_system(f, p))


def test_fourreg_suite_validates_each_system_once(monkeypatch):
    """Only partition_from_transitions validates: one check per partition it
    traces.  The Euler systems, one per graph, and the compatible systems are
    traced unchecked, once each, and the realizations are not traced at
    all."""
    validated, traced, raw = [], [], []
    check = TransitionSystem.validate
    monkeypatch.setattr(TransitionSystem, "validate", lambda t, f: validated.append(t) or check(t, f))
    trace = four_regular.partition_from_transitions
    trace_raw = four_regular._traced

    def counted(f, t):
        traced.append(t)
        return trace(f, t)

    monkeypatch.setattr(four_regular, "partition_from_transitions", counted)
    monkeypatch.setattr(verify, "partition_from_transitions", counted)
    monkeypatch.setattr(four_regular, "_traced", lambda f, t: raw.append(t) or trace_raw(f, t))
    results = verify.fourreg_suite()
    assert all(r.ok for r in results)
    assert len(traced) == 3585  # the systems the suite asks for, each validated once
    assert validated == traced
    random_graphs = 60  # the suite's default trials
    euler = len(small_four_regular_corpus()) + random_graphs  # one system per graph
    compatible = 3 + 2 * 3**2 + 3 * 3**3 + random_graphs  # corpus systems with n <= 3, random ones
    assert len(raw) == len(traced) + euler + compatible


def test_relative_interlacement_builds_a_fixed_number_of_graphs(monkeypatch):
    builds = []
    derive = LoopedSimpleGraph._derived

    def counted(labels, rows):
        builds.append(rows)
        return derive(labels, rows)

    monkeypatch.setattr(LoopedSimpleGraph, "_derived", counted)
    psi_counts = set()
    for f in table_cases()[:20]:
        c = euler_system(f)
        p0 = file_order_partition(f)
        for p in (p0, compatible_euler_system(f, p0)):
            expect = reference_relative_interlacement(c, p)
            builds.clear()
            assert relative_interlacement(c, p) == expect
            assert len(builds) == 1
            psi_counts.add(sum(map(expect.is_looped, expect.labels)))
    assert max(psi_counts) >= 3


def test_component_count_runs_once_per_graph(monkeypatch):
    """The derived Euler systems count no components; verify's kappa, which
    goes through the public constructor, counts them once per graph."""
    f = table_cases()[-1]
    calls = []
    count = MultiGraph.component_count
    monkeypatch.setattr(MultiGraph, "component_count", lambda mg: calls.append(mg) or count(mg))
    c = compatible_euler_system(f, file_order_partition(f))
    assert euler_system(f) != c and calls == []
    for v in range(f.n):
        verify._kappa(c, v)
    assert len(calls) == 1


def test_euler_system_is_deterministic_per_graph():
    """The same graph, or a graph built again from its multigraph, gives an
    equal Euler system; every compatible system differs from it, and
    verify's kappa rewires it at every vertex."""
    f = table_cases()[-1]
    c = euler_system(f)
    assert euler_system(f) == c
    for p in (file_order_partition(f), c):
        assert compatible_euler_system(f, p) != c
    for v in range(f.n):
        verify._kappa(c, v)
    assert euler_system(HalfEdgeGraph(f.graph)) == c
