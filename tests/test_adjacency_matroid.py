"""Minor derivations, triple coloops, trio comparison and the tripartition,
pinned to the three worked three-vertex examples."""

import itertools
import random
import sys

import pytest

from adjmatroid import binary_matroid, gf2
from adjmatroid.adjacency_matroid import (
    TrioResult,
    adjacency_matroid,
    classify_vertex,
    contract_via_lc,
    delete_via_subgraph,
    is_triple_coloop,
    trio,
    tripartition_report,
)
from adjmatroid.binary_matroid import BinaryMatroid, free_matroid, single_coloop
from adjmatroid.gf2 import Subspace
from adjmatroid.graph import LoopedSimpleGraph, all_looped_simple_graphs, random_looped_simple_graph

K3 = LoopedSimpleGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
K3L = K3.loop_complement("a")  # loop on a
P3LL = K3.local_complement("a")  # loops on b and c, center a


def one_circuit(labels) -> BinaryMatroid:
    """One circuit through every element (U_{n,n-1})."""
    n = len(labels)
    return BinaryMatroid(tuple(labels), Subspace(n, ((1 << n) - 1,)))


def relabeled(m: BinaryMatroid, mapping: dict[str, str]) -> BinaryMatroid:
    """m with each element renamed: equal to another matroid iff the mapping
    is an isomorphism onto it."""
    return BinaryMatroid(tuple(mapping[v] for v in m.ground), m.cycle_space)


def test_adjacency_matroid_worked_examples():
    to_xyz = {"a": "x", "b": "y", "c": "z"}
    assert relabeled(adjacency_matroid(K3), to_xyz) == one_circuit("xyz")
    assert adjacency_matroid(K3L) == free_matroid("abc")
    assert relabeled(adjacency_matroid(P3LL), to_xyz) == one_circuit("xyz")
    assert adjacency_matroid(K3) == adjacency_matroid(P3LL)  # same labels, same space


def test_contraction_worked_examples():
    assert contract_via_lc(K3, "a").result == one_circuit("bc")
    # unlooped vertex of K3L contracts to a free matroid
    assert contract_via_lc(K3L, "b").result == free_matroid("ac")
    # looped end of P3LL contracts to a two-element circuit
    contracted = contract_via_lc(P3LL, "b").result
    assert relabeled(contracted, {"a": "x", "c": "y"}) == one_circuit("xy")


def test_contraction_routes():
    looped = contract_via_lc(K3L, "a")
    assert looped.lc_sequence == ("a",)
    isolated = contract_via_lc(LoopedSimpleGraph.build("ab", [("a", "b")], loops="b")
                               .variant("a", "loop_isolate"), "a")
    assert isolated.lc_sequence == ("a",)  # looped after the variant
    lone = contract_via_lc(LoopedSimpleGraph.build("ab"), "a")
    assert lone.lc_sequence == ()
    unlooped_neighbor = contract_via_lc(K3, "a")
    assert unlooped_neighbor.lc_sequence == ("b", "a")
    # center of P3LL has only looped neighbors: three complement steps
    center = contract_via_lc(P3LL, "a")
    assert center.lc_sequence == ("a", "b", "a")
    for g in (K3, K3L, P3LL):
        for v in g.labels:
            assert contract_via_lc(g, v).result == adjacency_matroid(g).contract(v)
    with pytest.raises(ValueError):
        contract_via_lc(K3, "z")


def test_deletion_worked_examples():
    assert delete_via_subgraph(K3, "a") == free_matroid("bc")
    assert adjacency_matroid(K3).delete("a") == adjacency_matroid(K3.minus("a"))


def test_deletion_at_triple_coloop_uses_contraction():
    # a single edge: both ends are triple coloops and the full-subgraph
    # route would change the matroid
    edge = LoopedSimpleGraph.build("vw", [("v", "w")])
    m = adjacency_matroid(edge)
    assert is_triple_coloop(edge, "v")
    deleted = delete_via_subgraph(edge, "v")
    assert deleted == m.delete("v") == free_matroid("w")
    # while the subgraph's own matroid has w as a loop instead
    assert adjacency_matroid(edge.minus("v")).is_loop("w")
    assert adjacency_matroid(edge.minus("v")) != deleted


def test_triple_coloop_examples():
    assert not any(
        adjacency_matroid(K3.variant(v, "plain")).is_coloop(v) for v in K3.labels
    )
    k3l_b = K3L.local_complement("b")
    assert is_triple_coloop(k3l_b, "b")
    assert adjacency_matroid(K3L).is_coloop("a")
    assert not is_triple_coloop(K3L, "a")


def test_trio_worked_examples():
    t = trio(K3, "a")
    assert t.equal_pair == ("loop", "loop_isolate")
    assert t.odd_one == "plain"
    assert adjacency_matroid(K3.variant("a", "loop")) == free_matroid("abc")
    t2 = trio(K3L, "b")
    assert t2.equal_pair == ("plain", "loop_isolate")
    assert adjacency_matroid(K3L.variant("b", "loop_isolate")) == adjacency_matroid(K3L)


def test_trio_single_vertex():
    lone = LoopedSimpleGraph.build("v")
    t = trio(lone, "v")
    assert t.equal_pair == ("loop", "loop_isolate")
    assert t.odd_one == "plain"
    assert t.nullity == 0
    assert adjacency_matroid(lone.variant("v", "plain")).nullity == 1


def test_classification_worked_examples():
    assert classify_vertex(K3, "a").tag == "case3"
    assert classify_vertex(K3L, "b").tag == "case2"
    assert classify_vertex(K3L, "a").tag == "case3"
    assert classify_vertex(P3LL, "b").tag == "case2"
    assert classify_vertex(P3LL, "a").tag == "case3"


def test_tripartition_reports():
    assert {v: c.tag for v, c in tripartition_report(K3).items()} == {
        "a": "case3", "b": "case3", "c": "case3"
    }
    assert {v: c.tag for v, c in tripartition_report(K3L).items()} == {
        "a": "case3", "b": "case2", "c": "case2"
    }
    assert {v: c.tag for v, c in tripartition_report(P3LL).items()} == {
        "a": "case3", "b": "case2", "c": "case2"
    }


def test_tripartition_report_matches_classify_vertex(small_and_seeded_graphs):
    """Every reported case is classify_vertex's at that vertex, one of three
    shared objects, with the tag the coloop evidence decides."""
    shared = set()
    for g in small_and_seeded_graphs:
        report = tripartition_report(g)
        assert list(report) == list(g.labels)
        plain_mask, loop_mask = g.coloop_masks
        for i, v in enumerate(g.labels):
            plain, loop = plain_mask >> i & 1, loop_mask >> i & 1
            assert report[v] is classify_vertex(g, v)
            assert report[v].tag == ("case1" if plain and loop else "case2" if plain else "case3")
            shared.add(id(report[v]))
    assert len(shared) == 3
    g = LoopedSimpleGraph(small_and_seeded_graphs[-1].labels, small_and_seeded_graphs[-1].adj)
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        classify_vertex(g, "zz")
    g.__dict__["coloop_masks"] = (0, 0)  # evidence no graph gives
    for classify in (tripartition_report, lambda g: classify_vertex(g, g.labels[0])):
        with pytest.raises(AssertionError, match="^vertex is a coloop of neither variant$"):
            classify(g)


def lc_sequence_by_labels(g: LoopedSimpleGraph, v: str) -> tuple[str, ...]:
    """contract_via_lc's choice of steps as it was, asked of the graph label by label."""
    if g.is_looped(v):
        return (v,)
    neighbors = g.neighbors(v)
    if not neighbors:
        return ()
    unlooped = [w for w in neighbors if not g.is_looped(w)]
    return (unlooped[0], v) if unlooped else (v, neighbors[0], v)


def test_contraction_reads_its_steps_off_the_rows(small_and_seeded_graphs):
    """The steps read off v's row and the loop bits are the label-by-label
    choice at every vertex, and the witness is their local complements."""
    for g in small_and_seeded_graphs:
        for v in g.labels:
            derivation = contract_via_lc(g, v)
            assert derivation.lc_sequence == lc_sequence_by_labels(g, v)
            witness = g
            for w in derivation.lc_sequence:
                witness = witness.local_complement(w)
            assert derivation.witness_graph == witness


def test_tripartition_independence_witness():
    # isomorphic matroids, different case multisets
    assert adjacency_matroid(K3) == adjacency_matroid(P3LL)  # by the identity
    cases_k3 = sorted(c.tag for c in tripartition_report(K3).values())
    cases_p = sorted(c.tag for c in tripartition_report(P3LL).values())
    assert cases_k3 != cases_p
    # nonisomorphic matroids, identical case multisets
    assert adjacency_matroid(K3L).nullity != adjacency_matroid(P3LL).nullity
    cases_l = sorted(c.tag for c in tripartition_report(K3L).values())
    assert cases_l == cases_p


def test_case1_example_exists():
    # the complement view of a case-2 vertex lands in case 1
    k3l_b = K3L.local_complement("b")
    assert classify_vertex(k3l_b, "b").tag == "case1"
    assert classify_vertex(k3l_b.local_complement("b"), "b").tag == "case2"


def test_loop_isolate_direct_sum_identity():
    for g in (K3, K3L, P3LL):
        for v in g.labels:
            iso = adjacency_matroid(g.variant(v, "loop_isolate"))
            expected = adjacency_matroid(g.minus(v)).direct_sum(single_coloop(v))
            assert iso == expected


def oracle_graphs():
    """All 1,099 labelled looped graphs with n <= 4, then seeded n = 5-12."""
    for n in range(5):
        yield from all_looped_simple_graphs(n)
    rng = random.Random(1107)
    for n in range(5, 13):
        for _ in range(4):
            yield random_looped_simple_graph(rng, n)


def test_coloop_evidence_matches_the_variant_matroids():
    count = 0
    for g in oracle_graphs():
        report = tripartition_report(g)
        for v in g.labels:
            plain, loop, isolate = (
                adjacency_matroid(g.variant(v, kind)).is_coloop(v)
                for kind in ("plain", "loop", "loop_isolate")
            )
            case = classify_vertex(g, v)
            assert report[v] == case
            assert report[v].tag == {
                (True, True): "case1", (True, False): "case2", (False, True): "case3"
            }[(plain, loop)]
            assert is_triple_coloop(g, v) == (plain and loop and isolate)
        count += 1
    assert count == 1099 + 8 * 4


KINDS = ("plain", "loop", "loop_isolate")


def trio_by_matroids(g: LoopedSimpleGraph, v: str) -> TrioResult:
    """Reference: build the three variant matroids, find the one equal pair,
    and check that the odd cycle space extends the shared one by one."""
    matroids = {kind: adjacency_matroid(g.variant(v, kind)) for kind in KINDS}
    equal_pairs = [(a, b) for a, b in itertools.combinations(KINDS, 2) if matroids[a] == matroids[b]]
    assert len(equal_pairs) == 1, (g, v, equal_pairs)
    pair = equal_pairs[0]
    odd = next(k for k in KINDS if k not in pair)
    shared, bigger = matroids[pair[0]].cycle_space, matroids[odd].cycle_space
    assert bigger.dim == shared.dim + 1 and all(bigger.contains(m) for m in shared.basis)
    return TrioResult(pair, odd, shared.dim)


def test_trio_matches_the_three_variant_matroids():
    """All 1,099 graphs with n <= 4, then 300 seeded graphs with n = 5-9."""
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    rng = random.Random(2311)
    graphs += [random_looped_simple_graph(rng, n) for n in range(5, 10) for _ in range(60)]
    seen = set()
    for g in graphs:
        for v in g.labels:
            t = trio(g, v)
            assert t == trio_by_matroids(g, v), (g, v)
            seen.add(t.equal_pair)
    assert len(graphs) == 1099 + 300
    assert len(seen) == 3


def per_vertex_coloop_evidence(g: LoopedSimpleGraph, v: str) -> tuple[bool, bool]:
    """Reference: one elimination of the other rows per vertex, then whether
    column v, with v's loop removed and attached, reduces to nonzero."""
    i = g.index(v)
    data = g.adj.data
    pivots = gf2.forward_pivots(data[:i] + data[i + 1:])
    evidence = []
    for col in (data[i] & ~(1 << i), data[i] | (1 << i)):
        while (low := col & -col) in pivots:
            col ^= pivots[low]
        evidence.append(col != 0)
    return evidence[0], evidence[1]


def test_coloop_masks_match_the_per_vertex_elimination():
    """All 1,099 graphs with n <= 4, then seeded graphs with n = 5-16."""
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    rng = random.Random(5493)
    graphs += [random_looped_simple_graph(rng, n) for n in range(5, 17) for _ in range(25)]
    kinds = set()
    for g in graphs:
        plain, loop = g.coloop_masks
        for i, v in enumerate(g.labels):
            evidence = bool(plain >> i & 1), bool(loop >> i & 1)
            assert evidence == per_vertex_coloop_evidence(g, v), (g, v)
            kinds.add((g.is_looped(v), evidence))
    assert len(graphs) == 1099 + 12 * 25
    assert len(kinds) == 6  # every case, at looped and unlooped vertices


def test_coloop_masks_computed_once_per_graph(monkeypatch):
    prop = LoopedSimpleGraph.__dict__["coloop_masks"]
    passes = []
    compute = prop.func
    monkeypatch.setattr(prop, "func", lambda g: passes.append(g) or compute(g))
    g = random_looped_simple_graph(random.Random(23), 8)
    report = tripartition_report(g)
    for v in g.labels:
        assert classify_vertex(g, v) == report[v]
        is_triple_coloop(g, v)
    assert len(passes) == 1 and passes[0] is g
    assert g.coloop_masks == gf2.coloop_masks(g.adj)
    fresh = LoopedSimpleGraph(g.labels, g.adj)
    assert "coloop_masks" not in vars(fresh)
    assert fresh == g and hash(fresh) == hash(g)  # the memo is not a field
    assert tripartition_report(fresh) == report
    assert len(passes) == 2 and passes[1] is fresh
    v = g.labels[0]
    derived = [g.local_complement(v), g.minus(v), g.induced_mask(0b101101), g.loop_complement(v)]
    derived += [g.variant(v, kind) for kind in ("plain", "loop", "loop_isolate")]
    for h in derived:
        assert "coloop_masks" not in vars(h)
        assert tripartition_report(h) == tripartition_report(h)
    assert len(passes) == 2 + len(derived)
    assert all(a is b for a, b in zip(passes[2:], derived))


def count_calls(monkeypatch, owner, name: str, counts: dict[str, int]) -> None:
    """Wrap owner.name so that each call adds one to counts[name]."""
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_tripartition_and_complements_build_and_check_nothing(monkeypatch):
    g = random_looped_simple_graph(random.Random(9), 9)
    counts = {"__post_init__": 0, "nullspace": 0}
    count_calls(monkeypatch, LoopedSimpleGraph, "__post_init__", counts)
    # binary_matroid and the adjacency_matroid module bind their own names
    for owner in (gf2, binary_matroid, sys.modules[adjacency_matroid.__module__]):
        count_calls(monkeypatch, owner, "nullspace", counts)
    assert len(tripartition_report(g)) == 9
    for v in g.labels:
        g.local_complement(v)
        trio(g, v)
    assert counts == {"__post_init__": 0, "nullspace": 0}
    # the counters see the matroid route that the tripartition avoids
    adjacency_matroid(g.variant("v0", "plain"))
    assert counts == {"__post_init__": 0, "nullspace": 1}
    LoopedSimpleGraph(g.labels, g.adj)
    assert counts["__post_init__"] == 1
