"""Euler systems, transitions, touch-graphs and the realization build."""

import random

import pytest

from adjmatroid.four_regular import (
    HalfEdgeGraph,
    TransitionSystem,
    all_transition_systems,
    compatible_euler_system,
    euler_system,
    file_order_partition,
    interlacement,
    kappa,
    partition_from_transitions,
    random_four_regular,
    realize_touch_graph,
    relative_interlacement,
    small_four_regular_corpus,
    touch_graph,
    transition_type,
)
from adjmatroid.graph import LoopedSimpleGraph, MultiGraph, graph_isomorphism

FIG8 = HalfEdgeGraph(MultiGraph.build("a", [("a", "a"), ("a", "a")]))
PARALLEL4 = HalfEdgeGraph(MultiGraph.build("uv", [("u", "v")] * 4))


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


def test_hierholzer_examples():
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
    assert il.edge_pairs() == (("u", "v"),)
    both = HalfEdgeGraph(
        MultiGraph.build(
            "ab", [("a", "a"), ("a", "a"), ("b", "b"), ("b", "b")]
        )
    )
    assert interlacement(euler_system(both)).edge_pairs() == ()


def test_partition_sizes():
    c = euler_system(FIG8)
    assert c.partition.size == FIG8.component_count() == 1
    sizes = sorted(
        partition_from_transitions(FIG8, t).size for t in all_transition_systems(FIG8)
    )
    assert sizes == [1, 1, 2]


def test_partitions_match_brute_force_enumeration():
    for mg in small_four_regular_corpus(3):
        f = HalfEdgeGraph(mg)
        seen = {
            frozenset(partition_from_transitions(f, t).edge_sets())
            for t in all_transition_systems(f)
        }
        assert seen == brute_circuit_partitions(mg)


def test_transition_types():
    for mg in small_four_regular_corpus(3):
        f = HalfEdgeGraph(mg)
        c = euler_system(f)
        assert all(
            transition_type(c, c.partition, v) == "phi" for v in range(f.n)
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
            again = kappa(kappa(c, v), v)
            assert again.transitions == c.transitions


def test_kappa_on_figure_eight():
    c = euler_system(FIG8)
    cv = kappa(c, 0)
    assert len(cv.circuits) == 1 and len(cv.circuits[0]) == 2
    assert transition_type(c, cv.partition, 0) == "psi"


def test_relative_interlacement():
    c = euler_system(PARALLEL4)
    own = relative_interlacement(c, c.partition)
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
            assert nullity(relative_interlacement(c, p).adj) == p.size - f.component_count()


def test_touch_graph_shapes():
    c = euler_system(PARALLEL4)
    tch = touch_graph(c.partition)
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
            assert tch.component_count() == f.component_count()


def test_realize_single_looped_vertex():
    g = LoopedSimpleGraph.build("v", loops="v")
    r = realize_touch_graph(g)
    assert r.f.n == 1
    assert len(r.f.graph.edges) == 2
    assert r.partition.size == 1
    tch = touch_graph(r.partition)
    assert graph_isomorphism(tch.simplify(), g) is not None


def test_realize_single_edge():
    g = LoopedSimpleGraph.build("uv", [("u", "v")])
    r = realize_touch_graph(g)
    assert r.f.n == 1  # one vertex carrying both distinguished loops
    assert r.partition.size == 2
    tch = touch_graph(r.partition)
    assert graph_isomorphism(tch.simplify(), g) is not None


def test_realize_rejects_isolated_unlooped():
    with pytest.raises(ValueError):
        realize_touch_graph(LoopedSimpleGraph.build("a"))
    with pytest.raises(ValueError):
        realize_touch_graph(LoopedSimpleGraph.build("abc", [("a", "b")], loops="a"))


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
        tch = touch_graph(realize_touch_graph(g).partition)
        assert graph_isomorphism(tch.simplify(), g) is not None


def test_realize_encodes_partition_in_file_order():
    # without isolated looped vertices the emitted edge order carries the
    # distinguished partition
    g = LoopedSimpleGraph.build("abc", [("a", "b"), ("b", "c")], loops="b")
    r = realize_touch_graph(g)
    again = file_order_partition(r.f)
    assert again.edge_sets() == r.partition.edge_sets()


def test_random_four_regular_is_four_regular():
    rng = random.Random(0)
    for _ in range(10):
        mg = random_four_regular(rng, rng.randrange(1, 7))
        f = HalfEdgeGraph(mg)
        assert f.component_count() == 1
        assert mg.degrees() == [4] * mg.n


def test_transition_system_validation():
    with pytest.raises(ValueError):
        TransitionSystem((1, 0, 3, 2)).validate(PARALLEL4)  # wrong length
    bad = TransitionSystem(tuple(range(PARALLEL4.half_count)))
    with pytest.raises(ValueError):
        bad.validate(PARALLEL4)  # fixed points
