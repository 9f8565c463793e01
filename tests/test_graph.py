"""Graph operations: complements, variants, reconstruction, text format."""

import itertools
import random
import re
import time
from collections import Counter

import pytest
from conftest import entry_edge_pairs, entry_loop_labels

from adjmatroid import gf2, graph, graphtext
from adjmatroid.adjacency_matroid import adjacency_matroid, contract_via_lc
from adjmatroid.binary_matroid import BinaryMatroid
from adjmatroid.delta_matroid import SetSystem, from_graph, to_graph
from adjmatroid.four_regular import (
    HalfEdgeGraph,
    TransitionSystem,
    compatible_euler_system,
    euler_system,
    interlacement,
    partition_from_transitions,
    realize_touch_graph,
    relative_interlacement,
)
from adjmatroid.gf2 import BitMatrix, Subspace, principal_submatrix
from adjmatroid.graph import (
    LoopedSimpleGraph,
    MultiGraph,
    all_looped_simple_graphs,
    as_multigraph,
    default_labels,
    nullity_oracle_of,
    random_looped_simple_graph,
    reconstruct_from_nullity_oracle,
)
from adjmatroid.graphtext import (
    GraphParseError,
    graph_to_json,
    parse_graph,
    parse_multigraph,
    render_graph,
    text_lines,
)
from adjmatroid.polynomials import (
    BivariatePolynomial,
    interlace_recursive,
    interlace_subset,
    shifted_power_term,
    tutte_subset,
)
from adjmatroid.verify import run_suites

K3 = LoopedSimpleGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
K3L = K3.loop_complement("a")
P3LL = K3.local_complement("a")


def test_simplify_collapses_parallels_and_loops():
    tri = MultiGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert tri.simplify() == K3
    doubled = MultiGraph.build("abc", [("a", "b"), ("a", "b"), ("b", "c"), ("a", "c")])
    assert doubled.simplify() == K3
    twoloops = MultiGraph.build("a", [("a", "a"), ("a", "a")])
    assert twoloops.simplify() == LoopedSimpleGraph.build("a", loops="a")
    assert doubled.simplify().adj == BitMatrix(3, 3, [0b110, 0b101, 0b011])


def test_local_complement_isolated_fixed_point():
    g = LoopedSimpleGraph.build("ab", [("a", "b")], loops="a")
    lone = LoopedSimpleGraph.build("abc", [("a", "b")], loops="b")
    assert lone.local_complement("c") == lone
    assert g.local_complement("a").is_looped("b") != g.is_looped("b")


def test_local_complement_k3():
    # complement at a: loops appear on b and c, the bc edge disappears
    assert entry_loop_labels(P3LL) == ("b", "c")
    assert entry_edge_pairs(P3LL) == (("a", "b"), ("a", "c"))
    assert P3LL.local_complement("a") == K3


def test_local_complement_involution_exhaustive():
    for g in all_looped_simple_graphs(3):
        for v in g.labels:
            assert g.local_complement(v).local_complement(v) == g


def naive_local_complement(g: LoopedSimpleGraph, v: str) -> LoopedSimpleGraph:
    """Case-by-case construction used as an oracle for the matrix version."""
    neighbors = set(g.neighbors(v))
    loops = []
    for w in g.labels:
        looped = g.is_looped(w)
        if w != v and w in neighbors:
            looped = not looped
        if looped:
            loops.append(w)
    edges = []
    for i, w in enumerate(g.labels):
        for x in g.labels[i + 1:]:
            adjacent = g.adjacent(w, x)
            if w in neighbors and x in neighbors and v not in (w, x):
                adjacent = not adjacent
            if adjacent:
                edges.append((w, x))
    return LoopedSimpleGraph.build(g.labels, edges, loops)


def test_local_complement_matches_case_description():
    rng = random.Random(5)
    for _ in range(60):
        g = random_looped_simple_graph(rng, rng.randrange(1, 6))
        v = g.labels[rng.randrange(g.n)]
        assert g.local_complement(v) == naive_local_complement(g, v)


def test_local_complement_matches_the_row_comprehension(small_and_seeded_graphs):
    """Xoring only the neighbors' rows gives the graph of the comprehension
    over every row, at every vertex of every graph."""
    for g in small_and_seeded_graphs:
        for v in g.labels:
            mask = g.neighbor_mask(v)
            rows = [r ^ mask if (mask >> i) & 1 else r for i, r in enumerate(g.adj.data)]
            assert g.local_complement(v) == LoopedSimpleGraph(g.labels, BitMatrix(g.n, g.n, rows))


def test_set_bit_walks_match_the_entry_forms(small_and_seeded_graphs, entry_forms):
    walks = {
        "as_multigraph_edges": lambda g: as_multigraph(g).edges,
        "render_graph": render_graph,
        "graph_to_json": graph_to_json,
    }
    assert walks.keys() == entry_forms.keys()
    for g in small_and_seeded_graphs:
        for name, reference in entry_forms.items():
            assert walks[name](g) == reference(g), (name, g)
        assert parse_multigraph(render_graph(g)) == as_multigraph(g), g


def test_render_and_json_are_fast_on_a_large_sparse_graph():
    """n = 2,000 at average degree 4: one step per set bit, not n^2 entry
    reads (about 0.45 s each), keeps each call far under 0.2 s, and so does
    parsing the text back."""
    rng = random.Random(2000)
    n, rows = 2000, [0] * 2000
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    g = LoopedSimpleGraph(default_labels(n), BitMatrix(n, n, rows))
    for emit in (render_graph, graph_to_json):
        start = time.perf_counter()
        emit(g)
        assert time.perf_counter() - start < 0.2
    text = render_graph(g)
    start = time.perf_counter()
    parsed = parse_graph(text)
    assert time.perf_counter() - start < 0.2
    assert parsed == g


def test_derived_graphs_index_their_own_labels():
    """Complements, variants and contract_via_lc's witness chain build their
    own label index on the first index().  It is not a field, so equality
    and hash are those of the graph rebuilt through the constructor, and an
    unknown label still raises; a graph on fewer labels builds its own."""
    assert "_position" not in LoopedSimpleGraph._fields
    rng = random.Random(2011)
    for n in range(1, 10):
        g = random_looped_simple_graph(rng, n)
        v, w = g.labels[-1], g.labels[0]
        derived = [g.local_complement(v), g.loop_complement(v)]
        derived += [g.variant(v, kind) for kind in ("plain", "loop", "loop_isolate")]
        assert not any("_position" in vars(h) for h in derived)
        derived += [h.local_complement(w) for h in derived]
        derived.append(contract_via_lc(g, v).witness_graph)
        for h in derived:
            assert h._position == g._position
            rebuilt = LoopedSimpleGraph(h.labels, BitMatrix(n, n, h.adj.data))
            assert h == rebuilt and hash(h) == hash(rebuilt) and repr(h) == repr(rebuilt)
            with pytest.raises(ValueError, match="unknown vertex 'zz'"):
                h.index("zz")
        assert g.minus(v)._position == {u: i for i, u in enumerate(g.labels[:-1])}


def test_loop_complement():
    assert K3.loop_complement("a") == K3L
    assert K3L.loop_complement("a") == K3
    assert entry_loop_labels(K3L) == ("a",)


def test_induced_and_minus():
    assert K3.induced("abc") == K3
    assert K3.minus("a") == LoopedSimpleGraph.build("bc", [("b", "c")])
    assert K3.minus("a") == K3.induced(["b", "c"])
    with pytest.raises(ValueError):
        K3.induced(["a", "z"])


def test_minus_matches_the_induced_subgraph():
    rng = random.Random(37)
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    graphs += [random_looped_simple_graph(rng, n) for n in range(5, 13) for _ in range(3)]
    for g in graphs:
        for i, v in enumerate(g.labels):
            h = g.minus(v)
            assert h == g.induced_mask(((1 << g.n) - 1) ^ (1 << i))
            assert h.labels == tuple(u for u in g.labels if u != v)
        with pytest.raises(ValueError):
            g.minus("z")
    assert len(graphs) == 1099 + 24


def test_variants():
    assert K3L.variant("a", "plain") == K3
    assert K3.variant("a", "loop") == K3L
    iso = K3.variant("a", "loop_isolate")
    assert entry_loop_labels(iso) == ("a",)
    assert entry_edge_pairs(iso) == (("b", "c"),)
    with pytest.raises(ValueError):
        K3.variant("a", "weird")


def guard_graphs():
    """All graphs with n <= 4, then seeded graphs with n = 5-10."""
    for n in range(5):
        yield from all_looped_simple_graphs(n)
    rng = random.Random(5493)
    for n in range(5, 11):
        for _ in range(5):
            yield random_looped_simple_graph(rng, n)


def rebuilt(x):
    """x rebuilt field by field through its type's validating constructor."""
    if isinstance(x, LoopedSimpleGraph):
        return LoopedSimpleGraph(x.labels, rebuilt(x.adj))
    if isinstance(x, BitMatrix):
        return BitMatrix(x.rows, x.cols, x.data)
    if isinstance(x, Subspace):
        return Subspace(x.ambient_dim, x.basis)
    if isinstance(x, BinaryMatroid):
        return BinaryMatroid(x.ground, rebuilt(x.cycle_space))
    if isinstance(x, SetSystem):
        return type(x)(x.ground, x.bits)  # a DeltaMatroid re-runs the exchange check
    return BivariatePolynomial(x.terms)


def unchecked_outputs(g: LoopedSimpleGraph, rng: random.Random) -> list:
    """The output of every route that builds through gf2.unchecked, run on g."""
    out = []
    for v in g.labels:
        out += [g.local_complement(v), g.loop_complement(v), g.minus(v)]
        out += [g.variant(v, kind) for kind in ("plain", "loop", "loop_isolate")]
    for _ in range(3):
        s = rng.choices(g.labels, k=rng.randint(0, g.n + 2) if g.n else 0)  # shuffled, repeated
        h = g.induced(s)
        idx = {g.index(v) for v in s}
        assert h.labels == tuple(v for v in g.labels if v in s)
        assert h.adj == principal_submatrix(g.adj, idx)
        assert g.induced_mask(sum(1 << i for i in idx)) == h
        out.append(h)
    m = adjacency_matroid(g)  # its cycle space is nullspace's
    out += [m, m.dual(), m.cycle_space]
    out += [minor for v in g.labels for minor in (m.delete(v), m.contract(v))]
    d = from_graph(g)
    x = rng.sample(g.labels, rng.randint(0, g.n))
    out += [d, d.pivot(x), d.loop_complement(x), d.dual_pivot(x), d.min_sys(), d.max_sys()]
    for v in g.labels:
        out += [d.delete([v]), d.contract(v), d.tilde_minus(v), d.tilde_contract(v)]
    p, q = interlace_subset(g), tutte_subset(m)
    out += [p, q, shifted_power_term(m.rank, m.nullity), shifted_power_term(m.nullity, g.n)]
    if all(g.adj.data):  # no isolated unlooped vertex: g is a touch-graph
        r = realize_touch_graph(g)
        c = euler_system(r.f)
        out += [interlacement(c), relative_interlacement(c, r.partition)]
        out.append(relative_interlacement(compatible_euler_system(r.f, r.partition), r.partition))
    return out


def test_unchecked_routes_pass_the_constructor_checks():
    """Each unchecked output, rebuilt through the validating constructor, is
    accepted and equal field by field, hash included."""
    rng = random.Random(11)
    kinds = set()
    for g in guard_graphs():
        for x in unchecked_outputs(g, rng):
            y = rebuilt(x)
            names = x._fields
            assert type(y) is type(x)
            assert [getattr(y, k) for k in names] == [getattr(x, k) for k in names]
            assert hash(y) == hash(x)
            kinds.add(type(x).__name__)
        with pytest.raises(ValueError, match="unknown vertex 'z'"):
            g.induced([*g.labels[:1], "z"])
    assert kinds == {
        "LoopedSimpleGraph", "Subspace", "BinaryMatroid", "SetSystem", "DeltaMatroid",
        "BivariatePolynomial",
    }


def test_trusted_graph_builders_match_their_validated_forms():
    """The generators, build, MultiGraph.simplify and to_graph fill rows that
    are symmetric by construction and skip the constructor's checks: each
    graph passes them and compares equal.  to_graph refuses every family
    with n <= 3 that encodes no graph, and both builds keep their label
    errors, in the same order."""
    generated = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    rng = random.Random(4343)
    generated += [random_looped_simple_graph(rng, n) for n in range(11) for _ in range(5)]
    assert len(generated) == 1099 + 55
    for g in generated:
        checked = LoopedSimpleGraph(g.labels, BitMatrix(g.n, g.n, g.adj.data))
        assert checked == g and hash(checked) == hash(g)
        built = LoopedSimpleGraph.build(g.labels, entry_edge_pairs(g), entry_loop_labels(g))
        assert rebuilt(built) == built == g
        assert built._position == {v: i for i, v in enumerate(g.labels)}
        edges, loops = entry_edge_pairs(g), [(v, v) for v in entry_loop_labels(g)]
        repeated = [*edges, *loops, *((v, u) for u, v in edges), *loops]
        simple = MultiGraph.build(g.labels, repeated).simplify()  # each edge and loop twice
        assert rebuilt(simple) == simple == g
    encodings = {}
    for g in generated[:1099]:
        decoded = to_graph(from_graph(g))
        assert rebuilt(decoded) == decoded == g
        encodings[g.n, from_graph(g).bits] = g
    assert len(encodings) == 1099
    refused = 0
    for n in range(4):
        for bits in range(1 << (1 << n)):
            d = SetSystem(default_labels(n), bits)
            if (n, bits) in encodings:
                assert to_graph(d) == encodings[n, bits]
                continue
            message = "set system is not the encoding of any looped simple graph"
            if not d.is_normal:
                message = "a graphic set system contains the empty set"
            with pytest.raises(ValueError, match=f"^{message}$"):
                to_graph(d)
            refused += d.is_normal
    assert refused == (1 + 2 + 8 + 128) - (1 + 2 + 8 + 64)  # normal families less graphs
    for labels, edges, loops, message in [
        ("ab", [("a", "z")], (), "unknown vertex in edge a z"),
        ("ab", [], "bz", "unknown vertex in edge z z"),
        ("aba", [("a", "b")], (), "duplicate vertex labels"),
        ("aa", [("a", "z")], (), "unknown vertex in edge a z"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            LoopedSimpleGraph.build(labels, edges, loops)
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultiGraph.build(labels, [*edges, *((v, v) for v in loops)])


def test_nonsingular_subsets_scanned_once_per_graph(monkeypatch):
    prop = LoopedSimpleGraph.__dict__["nonsingular_subsets"]
    scans = []
    scan = prop.func
    monkeypatch.setattr(prop, "func", lambda g: scans.append(g) or scan(g))
    g = random_looped_simple_graph(random.Random(17), 6)
    q = interlace_subset(g)
    d = from_graph(g)
    assert interlace_subset(g) == q
    assert len(scans) == 1 and scans[0] is g
    assert g.nonsingular_subsets == gf2.nonsingular_subsets(g.adj) == d.bits
    fresh = LoopedSimpleGraph(g.labels, g.adj)
    assert "nonsingular_subsets" not in vars(fresh)
    assert fresh == g and hash(fresh) == hash(g)  # the memo is not a field
    assert from_graph(fresh) == d and interlace_subset(fresh) == q
    assert len(scans) == 2 and scans[1] is fresh
    v = g.labels[0]
    derived = [g.local_complement(v), g.induced_mask(0b101101), g.minus(v), g.loop_complement(v)]
    derived += [g.variant(v, kind) for kind in ("plain", "loop", "loop_isolate")]
    for h in derived:
        assert "nonsingular_subsets" not in vars(h)
        assert interlace_subset(h) == interlace_subset(h)
        from_graph(h)
    assert len(scans) == 2 + len(derived)
    assert all(a is b for a, b in zip(scans[2:], derived))


def test_memoized_scan_matches_the_references():
    """from_graph and interlace_subset agree whichever reads the memo first,
    and with the recursion and the decode."""
    for g in guard_graphs():
        d, q = from_graph(rebuilt(g)), interlace_subset(rebuilt(g))
        q_first = rebuilt(g)
        assert interlace_subset(q_first) == q and from_graph(q_first) == d
        d_first = rebuilt(g)
        assert from_graph(d_first) == d and interlace_subset(d_first) == q
        assert q == interlace_recursive(g)
        assert len(d.family) == q.evaluate(2, 1)  # the subsets of nullity 0
        assert to_graph(d) == g


def test_induced_mask_rejects_masks_outside_the_vertices():
    for mask in (-1, 1 << K3.n):
        with pytest.raises(ValueError, match="outside 3 vertices"):
            K3.induced_mask(mask)
    assert K3.induced_mask(0b101) == K3.induced("ac")


def test_asymmetric_adjacency_is_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        LoopedSimpleGraph(("a", "b", "c"), BitMatrix(3, 3, (0b110, 0b001, 0b000)))


def test_reconstruction_decision_table():
    oracle = nullity_oracle_of(K3L)
    assert oracle(frozenset("a")) == 0  # looped
    assert oracle(frozenset("b")) == 1  # unlooped
    assert oracle(frozenset(("b", "c"))) == 0  # both unlooped, adjacent
    assert reconstruct_from_nullity_oracle(K3L.labels, oracle) == K3L


def test_reconstruction_exhaustive_small():
    for n in range(4):
        for g in all_looped_simple_graphs(n):
            assert reconstruct_from_nullity_oracle(g.labels, nullity_oracle_of(g)) == g


def test_reconstruction_rejects_inconsistent_oracle():
    with pytest.raises(ValueError, match=r"^inconsistent oracle: nullity 2 on a single vertex$"):
        reconstruct_from_nullity_oracle("ab", lambda s: 2)
    # per pair: the singleton nullities (a looped iff 0) and an impossible
    # pair nullity; a singular pair has nullity 2 only when neither is looped
    cases = [
        ((0, 0), 2, "(True, True)"),
        ((0, 1), 2, "(True, False)"),
        ((1, 1), 1, "(False, False)"),
    ]
    for (na, nb), pair, pattern in cases:
        nullities = {frozenset("a"): na, frozenset("b"): nb, frozenset("ab"): pair}
        message = f"inconsistent oracle: nullity {pair} on pair with loop pattern {pattern}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reconstruct_from_nullity_oracle("ab", nullities.__getitem__)


def test_multigraph_structure():
    mg = MultiGraph.build("ab", [("a", "a"), ("a", "b")])
    assert Counter(v for edge in mg.edges for v in edge) == {0: 3, 1: 1}  # a loop counts twice
    assert mg.component_count() == 1
    split = MultiGraph.build("ab", [("a", "a"), ("b", "b")])
    assert split.component_count() == 2
    col = mg.incidence_matrix()
    assert col.column_mask(0) == 0  # loop column vanishes over GF(2)
    assert col.column_mask(1) == 0b11
    for edge in ([0, 1, 1], [0]):  # an edge that is not a pair
        with pytest.raises(ValueError):
            MultiGraph("ab", [edge])


def test_as_multigraph_round_trip():
    mg = as_multigraph(K3L)
    assert mg.simplify() == K3L


def test_parse_simple_and_multigraph():
    g = parse_graph("# triangle\nvertices a b c\nedge a b\nedge b c\nedge a c\n")
    assert g == K3
    mg = parse_graph("vertices a b\nedge a b\nedge a b\n")
    assert isinstance(mg, MultiGraph)
    assert len(mg.edges) == 2
    mg2 = parse_graph("vertices a\nloop a\nloop a\n")
    assert isinstance(mg2, MultiGraph)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as err:
        parse_graph("vertices a b\nedge a d\n")
    assert "line 2" in str(err.value)
    with pytest.raises(GraphParseError):
        parse_graph("vertices a a\n")
    with pytest.raises(GraphParseError):
        parse_graph("wat a b\n")
    with pytest.raises(GraphParseError):
        parse_graph("vertices a\nloop a b\n")


def test_render_parse_round_trip():
    for g in (K3, K3L, P3LL):
        assert parse_graph(render_graph(g)) == g
    mg = MultiGraph.build("ab", [("a", "b"), ("a", "a"), ("a", "b")])
    back = parse_graph(render_graph(mg))
    assert isinstance(back, MultiGraph)
    assert back.labels == mg.labels
    assert sorted(back.edges) == sorted(mg.edges)


def test_json_round_trip():
    for g in (K3L, MultiGraph.build("ab", [("a", "b"), ("a", "b")])):
        data = graph_to_json(g)
        edges = [*map(tuple, data["edges"]), *((v, v) for v in data["loops"])]
        back = MultiGraph.build(data["vertices"], edges)
        assert graph_to_json(back) == data
        assert back.simplify() == as_multigraph(g).simplify()


def graph_text(labels, edges, loops) -> str:
    lines = ["vertices " + " ".join(labels)] if labels else []
    lines += [f"edge {u} {v}" for u, v in edges] + [f"loop {v}" for v in loops]
    return "\n".join(lines)


def test_build_matches_the_parser():
    """build and parse_graph collapse the same repeats to the same graph."""
    for n in range(4):
        for g in all_looped_simple_graphs(n):
            edges, loops = list(entry_edge_pairs(g)), list(entry_loop_labels(g))
            for e, l in (
                (edges, loops),
                (edges + [(v, u) for u, v in edges], loops * 2),  # repeated
                (edges + [(v, v) for v in loops], loops),  # loops also given as edges
            ):
                parsed = parse_graph(graph_text(g.labels, e, l))
                if isinstance(parsed, MultiGraph):
                    parsed = parsed.simplify()
                assert LoopedSimpleGraph.build(g.labels, e, l) == parsed == g
    for edges, loops in (([("a", "z")], ()), ([("z", "z")], ()), ((), "z")):
        with pytest.raises(ValueError, match="unknown vertex"):
            LoopedSimpleGraph.build("ab", edges, loops)


def test_zero_vertex_graph():
    empty = LoopedSimpleGraph((), BitMatrix(0, 0, ()))
    assert empty.n == 0
    assert parse_graph("") == MultiGraph((), ()).simplify()


def test_default_labels_are_one_shared_tuple_per_size_and_prefix():
    for n, prefix in ((0, "v"), (3, "v"), (300, "e"), (4, "c")):
        labels = default_labels(n, prefix)
        assert labels == tuple(f"{prefix}{i}" for i in range(n))
        assert default_labels(n, prefix) is labels
    mg = MultiGraph(("a",), ((0, 0), (0, 0)))
    assert mg.edge_labels is default_labels(2, "e") == ("e0", "e1")


def all_graphs_as_before(n: int):
    """all_looped_simple_graphs as it was, with its own cell loop."""
    labels = default_labels(n)
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for bits in range(1 << len(cells)):
        rows = [0] * n
        for k, (i, j) in enumerate(cells):
            if (bits >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield LoopedSimpleGraph(labels, BitMatrix(n, n, tuple(rows)))


def random_graph_as_before(rng: random.Random, n: int) -> LoopedSimpleGraph:
    """random_looped_simple_graph as it was, with its own cell loop."""
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return LoopedSimpleGraph(default_labels(n), BitMatrix(n, n, tuple(rows)))


def test_generators_share_one_cell_builder_and_keep_their_graphs():
    for n in range(4):
        assert list(all_looped_simple_graphs(n)) == list(all_graphs_as_before(n))
    new, old = random.Random(59), random.Random(59)
    for k in range(200):
        n = k % 9
        assert random_looped_simple_graph(new, n) == random_graph_as_before(old, n)
    assert new.getstate() == old.getstate()  # the same draws, so every seeded stream


def parse_graph_as_before(text: str) -> LoopedSimpleGraph | MultiGraph:
    """parse_graph as it was, tracking repeated edges beside the edge list,
    on the parser's lines."""
    labels: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    simple = True
    edge_seen: set[tuple[str, str]] = set()
    for line_no, raw in enumerate(text_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        keyword, args = parts[0], parts[1:]
        if keyword == "vertices":
            if not args:
                raise GraphParseError(line_no, "vertices needs at least one name")
            for v in args:
                if v in seen:
                    raise GraphParseError(line_no, f"vertex {v!r} declared twice")
                seen.add(v)
                labels.append(v)
        elif keyword == "loop":
            if len(args) != 1:
                raise GraphParseError(line_no, "loop needs exactly one vertex")
            (v,) = args
            if v not in seen:
                raise GraphParseError(line_no, f"unknown vertex {v!r}")
            if (v, v) in edge_seen:
                simple = False
            edge_seen.add((v, v))
            edges.append((v, v))
        elif keyword == "edge":
            if len(args) != 2:
                raise GraphParseError(line_no, "edge needs exactly two vertices")
            u, v = args
            for w in (u, v):
                if w not in seen:
                    raise GraphParseError(line_no, f"unknown vertex {w!r}")
            key = (min(u, v), max(u, v))
            if key in edge_seen:
                simple = False
            edge_seen.add(key)
            edges.append((u, v))
        else:
            raise GraphParseError(line_no, f"unknown directive {keyword!r}")
    mg = MultiGraph.build(tuple(labels), edges)
    return mg.simplify() if simple else mg


def parse_outcome(parse, text: str) -> tuple[type, object]:
    try:
        g = parse(text)
    except GraphParseError as exc:
        return GraphParseError, str(exc)
    return type(g), g


def test_parser_reads_repeats_off_the_built_multigraph():
    """Every text of up to three loop or edge lines on two vertices declared
    in either order, then repeated names and errors after repeats."""
    lines = ["loop a", "loop b", "edge a b", "edge b a", "edge a a", "edge b b"]
    texts = [
        "\n".join([header, *body])
        for header in ("vertices a b", "vertices b a")
        for k in range(4)
        for body in itertools.product(lines, repeat=k)
    ]
    texts += [
        "",
        "vertices a b\nvertices b",
        "vertices a a",
        "vertices a\nloop a\nloop a\nvertices a",
        "vertices a b\nedge a b\nedge b a\nedge a c",
        "vertices x y z\nedge x y\nedge y z\nedge z y\nloop x",
    ]
    kinds = Counter()
    for text in texts:
        outcome = parse_outcome(parse_graph, text)
        assert outcome == parse_outcome(parse_graph_as_before, text), text
        kinds[outcome[0]] += 1
    assert kinds == {LoopedSimpleGraph: 159, MultiGraph: 361, GraphParseError: 4}


def test_parser_errors_match_the_reference_in_text_and_order():
    """Wrong counts before unknown names, the first unknown name of a line,
    comments, blank and indented lines, and each line ending."""
    bodies = [
        "edge a", "edge a b c", "loop", "loop a b", "edge c d", "edge a d", "edge d a", "loop d",
        "  # note", "#edge a d", "   ", "\tedge a b", "vertices", "vertices c a", "wat a",
        "loop a # note", "edge a b#", "vertices c\nedge c a",
    ]
    outcomes = Counter()
    for end in ("\n", "\r\n", "\r"):
        for body in bodies:
            text = end.join(["# header", "vertices a b", "", body.replace("\n", end), "edge a b"])
            outcome = parse_outcome(parse_graph, text)
            assert outcome == parse_outcome(parse_graph_as_before, text), repr(text)
            if outcome[0] is GraphParseError:
                assert parse_outcome(parse_multigraph, text) == outcome, repr(text)
            outcomes[outcome[0]] += 1
    assert outcomes == {GraphParseError: 3 * 13, LoopedSimpleGraph: 3 * 4, MultiGraph: 3 * 1}


def test_lines_end_only_at_newline_carriage_return_or_both():
    """The other characters str.splitlines breaks at are whitespace inside a
    line, so error line numbers count the text's lines, and a note after
    such a character is two more names, as after a space."""
    for sep in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        assert text_lines(f"a{sep}b\r\nc\rd\n") == [f"a{sep}b", "c", "d", ""]
        edge = parse_graph(f"vertices a{sep}b\nedge a{sep}b")
        assert edge == parse_graph("vertices a b\nedge a b")
        for note in (" ", sep):
            with pytest.raises(GraphParseError, match="^line 2: loop needs exactly one vertex$"):
                parse_graph(f"vertices a{sep}b\nloop a{note}# note\nwat")
            with pytest.raises(GraphParseError, match="^line 3: unknown vertex 'c'$"):
                parse_graph(f"vertices a{sep}b\n# a{note}note\nedge c{sep}a")


def test_parser_builds_a_multigraph_only_for_repeats(monkeypatch):
    """The grammar pass is the parser's one check: neither branch of
    parse_graph, nor parse_multigraph, runs a validating __post_init__.  A
    text with no repeated pair builds its rows and graph unchecked; a repeat
    builds one multigraph."""
    checked, built = Counter(), Counter()
    for cls in (LoopedSimpleGraph, MultiGraph, BitMatrix):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__",
            lambda self, check=check, name=cls.__name__: checked.update([name]) or check(self),
        )
    for module in (graph, graphtext):
        monkeypatch.setattr(
            module, "unchecked",
            lambda cls, **kw: built.update([cls.__name__]) or gf2.unchecked(cls, **kw),
        )
    simple = render_graph(random_looped_simple_graph(random.Random(9), 9))
    repeated = simple + "edge v0 v0\n" + "loop v0\n"
    for read, text, kind, objects in [
        (parse_graph, simple, LoopedSimpleGraph, {"LoopedSimpleGraph": 1, "BitMatrix": 1}),
        (parse_graph, repeated, MultiGraph, {"MultiGraph": 1}),
        (parse_multigraph, simple, MultiGraph, {"MultiGraph": 1}),
    ]:
        built.clear()
        assert isinstance(read(text), kind)
        assert built == objects
    assert checked == {}


def test_parse_graph_keeps_the_pairs_exactly_when_one_repeats():
    """A repeated pair shows in the bit count of the rows parse_graph fills,
    as in the set of the text's unordered pairs: on the render of every graph
    with n <= 4, its lines shuffled, alone and with one line repeated (an
    edge reversed, a loop as edge u u), and on edge a a beside loop a, loop a
    twice, and edge b a after edge a b."""
    rng = random.Random(4)
    texts = ["vertices a\nedge a a\nloop a\n", "vertices a\nloop a\nloop a\n",
             "vertices a b\nedge a b\nedge b a\n"]
    for n in range(5):
        for g in all_looped_simple_graphs(n):
            head, *lines = render_graph(g).splitlines()
            rng.shuffle(lines)
            shuffled = "\n".join([head, *lines]) + "\n"
            assert parse_graph(shuffled) == g
            texts.append(shuffled)
            if lines:
                _, u, *ends = rng.choice(lines).split()
                v = ends[0] if ends else u
                again = rng.choice([f"edge {u} {v}", f"edge {v} {u}" if ends else f"loop {u}"])
                lines.insert(rng.randrange(len(lines) + 1), again)
                texts.append("\n".join([head, *lines]) + "\n")
    repeats = Counter()
    for text in texts:
        mg = parse_multigraph(text)
        repeat = len({frozenset(e) for e in mg.edges}) < len(mg.edges)
        assert parse_graph(text) == (mg if repeat else mg.simplify())
        repeats[repeat] += 1
    assert repeats == {True: 3 + 1099 - 5, False: 1099}


def test_public_constructors_store_list_fields_as_tuples():
    """A list-built object, edge pairs and terms included, equals and hashes
    as the tuple-built one, and derived objects build on it."""
    rows = [0b10, 0b01]  # the edge a-b
    cycle = Subspace(2, (0b11,))
    built = [
        (BitMatrix(2, 2, rows), BitMatrix(2, 2, tuple(rows))),
        (Subspace(2, [0b11]), cycle),
        (LoopedSimpleGraph(["a", "b"], BitMatrix(2, 2, rows)), LoopedSimpleGraph.build("ab", ["ab"])),
        (MultiGraph(["a", "b"], [(0, 1)], ["e"]), MultiGraph(("a", "b"), ((0, 1),), ("e",))),
        (BinaryMatroid(["a", "b"], Subspace(2, [0b11])), BinaryMatroid(("a", "b"), cycle)),
        (MultiGraph(["a", "b"], [[0, 1], [1, 1]]), MultiGraph(("a", "b"), ((0, 1), (1, 1)))),
        (TransitionSystem([1, 0, 3, 2]), TransitionSystem((1, 0, 3, 2))),
        (BivariatePolynomial([(0, 0, 1)]), BivariatePolynomial(((0, 0, 1),))),
        (BivariatePolynomial(([0, 0, 1],)), BivariatePolynomial(((0, 0, 1),))),
    ]
    for listed, tupled in built:
        assert listed == tupled and hash(listed) == hash(tupled)
        assert not any(isinstance(getattr(listed, f), list) for f in listed._fields)
    listed, tupled = (from_graph(g) for g in built[2])
    assert listed == tupled and hash(listed) == hash(tupled)
    m = built[4][0]
    loop = BinaryMatroid(["c"], Subspace(1, [1]))
    assert m.direct_sum(loop) == BinaryMatroid(("a", "b", "c"), Subspace(3, (0b011, 0b100)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BitMatrix(-1, 0, ()), "negative dimension"),
        (lambda: BitMatrix(1.0, 1, (0,)), "dimension 1.0 is not an int"),
        (lambda: BitMatrix(1, 1.0, (0,)), "dimension 1.0 is not an int"),
        (lambda: BitMatrix(2, 1, (0,)), "row count mismatch"),
        (lambda: BitMatrix(1, 1, (2,)), "row exceeds column count"),
        (lambda: BitMatrix(1, 2, (1.5,)), "matrix row 1.5 is not an int"),
        (lambda: BitMatrix(1, 2, ("1",)), "matrix row '1' is not an int"),
        (lambda: BitMatrix.from_rows([[0, 1], [1]]), "matrix rows must have equal length"),
        (lambda: LoopedSimpleGraph("aa", BitMatrix(2, 2, (0, 0))), "duplicate vertex labels"),
        (lambda: LoopedSimpleGraph("a", BitMatrix(2, 2, (0, 0))), "adjacency matrix size mismatch"),
        (lambda: K3.adjacent("a", "a"), "adjacency is between distinct vertices"),
        (lambda: MultiGraph("aa", ()), "duplicate vertex labels"),
        (lambda: MultiGraph("a", ((0, 1),)), "edge endpoint out of range"),
        (lambda: MultiGraph("ab", [(0.5, 1)]), "edge (0.5, 1) has an endpoint that is not an int"),
        (lambda: MultiGraph("a", ((0, 0),), ("x", "y")), "edge label count mismatch"),
        (lambda: MultiGraph("a", ((0, 0), (0, 0)), ("x", "x")), "duplicate edge labels"),
        (lambda: BinaryMatroid("aa", Subspace(2, ())), "duplicate ground labels"),
        (lambda: SetSystem("aa", 0), "duplicate ground labels"),
        (lambda: SetSystem("a", 1.0), "family word 1.0 is not an int"),
        (lambda: Subspace(2, (1.0,)), "basis row 1.0 is not an int"),
        (lambda: Subspace(1.5, ()), "dimension 1.5 is not an int"),
        (lambda: Subspace(-1, ()), "negative dimension"),
        (
            lambda: partition_from_transitions(
                HalfEdgeGraph(MultiGraph("a", [(0, 0), (0, 0)])), TransitionSystem((1.0, 0.0, 3.0, 2.0))
            ),
            "partner 1.0 of half-edge 0 is not an int",
        ),
        (lambda: SetSystem("a", 0).min_sys(), "min needs a proper set system"),
        (lambda: SetSystem("a", 0).max_sys(), "max needs a proper set system"),
        (lambda: run_suites("nope"), "unknown suite 'nope'"),
    ],
    ids=[
        "bitmatrix-dimension", "bitmatrix-float-row-count", "bitmatrix-float-column-count",
        "bitmatrix-rows", "bitmatrix-width", "bitmatrix-float-row",
        "bitmatrix-str-row", "from-rows-ragged",
        "graph-labels", "graph-size", "graph-adjacent-self", "multigraph-labels",
        "multigraph-endpoint", "multigraph-float-endpoint", "multigraph-edge-label-count",
        "multigraph-edge-labels", "matroid-ground", "set-system-ground", "set-system-float-word",
        "subspace-float-row", "subspace-float-dimension", "subspace-negative-dimension",
        "pairing-float-partner", "min-sys-empty", "max-sys-empty",
        "unknown-suite",
    ],
)
def test_boundary_refusals_name_the_fault_in_one_line(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
