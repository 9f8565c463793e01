"""Binary matroid structure: circuits, minors, duality, polygon matroids."""

import itertools
import random
import tracemalloc

import pytest

from adjmatroid import binary_matroid
from adjmatroid.binary_matroid import (
    BinaryMatroid,
    free_matroid,
    polygon_matroid,
    single_coloop,
)
from adjmatroid.gf2 import BitMatrix, Subspace, set_bits
from adjmatroid.graph import LoopedSimpleGraph, MultiGraph
from adjmatroid.verify import _all_subspaces

A_K3 = BitMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def all_loops(labels) -> BinaryMatroid:
    """Every element a loop (U_{n,0}): the dual of the free matroid."""
    n = len(labels)
    return BinaryMatroid(tuple(labels), Subspace(n, tuple(1 << i for i in range(n))))


def one_circuit(labels) -> BinaryMatroid:
    """One circuit through every element (U_{n,n-1})."""
    n = len(labels)
    return BinaryMatroid(tuple(labels), Subspace(n, ((1 << n) - 1,)))


def relabeled(m: BinaryMatroid, mapping: dict[str, str]) -> BinaryMatroid:
    """m with each element renamed: equal to another matroid iff the mapping
    is an isomorphism onto it."""
    return BinaryMatroid(tuple(mapping[v] for v in m.ground), m.cycle_space)


def minimal_supports(vectors: set[int]) -> set[int]:
    """Oracle: minimal nonempty supports among explicit vector sets."""
    nonzero = [v for v in vectors if v]
    return {
        v for v in nonzero if not any(w != v and w & v == w for w in nonzero)
    }


def test_from_matrix_examples():
    m = BinaryMatroid.from_matrix(A_K3, "abc")
    assert m.circuits() == {frozenset("abc")}
    assert m == one_circuit("abc")
    free = BinaryMatroid.from_matrix(BitMatrix(3, 3, (1, 2, 4)), "abc")
    assert free.circuits() == frozenset()
    loop = BinaryMatroid.from_matrix(BitMatrix(1, 1, (0,)), "a")
    assert loop.circuits() == {frozenset("a")}
    assert loop == all_loops("a")
    with pytest.raises(ValueError):
        BinaryMatroid.from_matrix(A_K3, "ab")


def test_subspace_round_trip():
    zero = BinaryMatroid(tuple("abc"), Subspace.zero(3))
    assert zero == free_matroid("abc")
    u32 = BinaryMatroid(tuple("abc"), Subspace.span(3, [0b111]))
    oracle = minimal_supports(set(Subspace.span(3, [0b111]).vectors()))
    assert set(u32.circuit_masks()) == oracle == {0b111}
    u10 = BinaryMatroid(("v",), Subspace.span(1, [1]))
    assert u10 == all_loops("v")
    assert BinaryMatroid(u32.ground, u32.cycle_space) == u32
    with pytest.raises(ValueError, match="cycle space dimension mismatch"):
        BinaryMatroid(tuple("ab"), Subspace.zero(3))


def test_circuits_examples():
    assert free_matroid("abc").circuits() == frozenset()
    assert one_circuit("abc").circuits() == {frozenset("abc")}
    edge = LoopedSimpleGraph.build("vw", [("v", "w")])
    m = BinaryMatroid.from_matrix(edge.adj, edge.labels)
    assert m.circuits() == frozenset()


def test_circuits_match_minimal_support_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(6)
        w = Subspace.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(4))])
        m = BinaryMatroid(tuple(f"v{i}" for i in range(n)), w)
        assert set(m.circuit_masks()) == minimal_supports(set(w.vectors()))


def pairwise_circuit_masks(m: BinaryMatroid) -> tuple[int, ...]:
    """Reference: the cycle vectors by weight then value, each kept unless a
    circuit kept before it lies inside it, tested one circuit at a time."""
    members = sorted((v for v in m.cycle_space.vectors() if v), key=lambda v: (v.bit_count(), v))
    minimal: list[int] = []
    for v in members:
        if not any(c & v == c for c in minimal):
            minimal.append(v)
    return tuple(minimal)


def test_circuit_masks_match_the_pairwise_scan():
    checked = 0
    for n in range(5):
        for w in _all_subspaces(n):
            m = BinaryMatroid(tuple(f"v{i}" for i in range(n)), w)
            assert m.circuit_masks() == pairwise_circuit_masks(m)
            checked += 1
    assert checked == 91
    rng = random.Random(31)
    for d in range(1, 13):
        n = rng.randrange(d, 2 * d + 1)
        w = Subspace.span(n, [rng.randrange(1 << n) for _ in range(d)])
        m = BinaryMatroid(tuple(f"v{i}" for i in range(n)), w)
        assert m.circuit_masks() == pairwise_circuit_masks(m)
    assert (n, w.dim) == (24, 12)


def test_rank_of():
    assert free_matroid("abc").rank_of("abc") == 3
    u32 = one_circuit("abc")
    assert u32.rank_of("abc") == 2
    assert u32.rank_of([]) == 0
    assert u32.rank_of(["a"]) == u32.rank_of(["a", "a"]) == 1
    with pytest.raises(ValueError, match=r"^unknown element 'z'$"):
        u32.rank_of(["z"])


def test_dual():
    assert free_matroid("abc").dual() == all_loops("abc")
    d = one_circuit("abc").dual()
    assert d.circuits() == {
        frozenset("ab"), frozenset("ac"), frozenset("bc")
    }
    assert d.cycle_space == Subspace.span(3, [0b011, 0b110])
    assert single_coloop("v").dual() == all_loops("v")
    assert d.dual() == one_circuit("abc")


def test_delete_contract_examples():
    u32 = one_circuit("abc")
    assert u32.delete("a") == free_matroid("bc")
    assert u32.contract("a") == one_circuit("bc")
    mixed = all_loops("x").direct_sum(free_matroid("yz"))
    assert mixed.delete("x") == free_matroid("yz")
    assert mixed.delete("x") == mixed.contract("x")  # loops delete = contract
    with pytest.raises(ValueError):
        u32.delete("z")


def test_delete_matches_the_spanned_restriction(restricted):
    """The reference restriction to the ground minus v: its canonical rows,
    with bit v dropped, are delete's basis row for row, and span its space."""
    pairs = 0
    for n in range(1, 6):
        labels = tuple(f"e{i}" for i in range(n))
        for w in _all_subspaces(n):
            m = BinaryMatroid(labels, w)
            for i, v in enumerate(labels):
                inside = restricted(w, ((1 << n) - 1) & ~(1 << i))
                dropped = tuple((b & ((1 << i) - 1)) | (b >> (i + 1) << i) for b in inside.basis)
                deleted = m.delete(v).cycle_space
                assert deleted.basis == dropped
                assert deleted == Subspace.span(n - 1, dropped)
                pairs += 1
    assert pairs == 2198


def test_rank_of_matches_the_restriction(restricted):
    """r(S) = |S| - dim of the cycles inside S, at every mask of every
    subspace with n <= 5 and at seeded masks up to n = 14."""
    rng = random.Random(12)
    cases = [(w, range(1 << w.ambient_dim)) for n in range(6) for w in _all_subspaces(n)]
    for n in range(6, 15):
        for k in range(0, n + 1, 2):
            w = Subspace.span(n, [rng.randrange(1 << n) for _ in range(k)])
            cases.append((w, [rng.randrange(1 << n) for _ in range(40)]))
    checked = 0
    for w, masks in cases:
        m = BinaryMatroid(tuple(f"e{i}" for i in range(w.ambient_dim)), w)
        for mask in masks:
            labels = [m.ground[i] for i in set_bits(mask)]
            assert m.rank_of(labels) == mask.bit_count() - restricted(w, mask).dim
            checked += 1
    assert checked == 13_193 + 52 * 40


def test_direct_sum_loop_coloop_adjunction():
    base = one_circuit("abc")
    plus_coloop = base.direct_sum(single_coloop("d"))
    assert plus_coloop.is_coloop("d")
    assert plus_coloop.delete("d") == base
    plus_loop = base.direct_sum(all_loops("d"))
    assert plus_loop.is_loop("d")
    assert plus_loop.delete("d") == base
    assert free_matroid("ab").direct_sum(free_matroid("cd")) == free_matroid("abcd")
    with pytest.raises(ValueError):
        base.direct_sum(all_loops("a"))


def direct_sum_by_span(m1: BinaryMatroid, m2: BinaryMatroid) -> BinaryMatroid:
    """Reference: span the two bases side by side and validate the result."""
    masks = [*m1.cycle_space.basis, *(b << m1.size for b in m2.cycle_space.basis)]
    return BinaryMatroid(m1.ground + m2.ground, Subspace.span(m1.size + m2.size, masks))


def test_direct_sum_concatenates_canonical_bases():
    """Every pair of subspaces with summed ambient dimension <= 4, then
    seeded pairs with ambient dimensions up to 24."""
    pairs = [
        (w1, w2)
        for n1 in range(5) for n2 in range(5 - n1)
        for w1 in _all_subspaces(n1) for w2 in _all_subspaces(n2)
    ]
    assert len(pairs) == 294
    rng = random.Random(1107)
    for _ in range(200):
        n1, n2 = rng.randrange(25), rng.randrange(25)
        pairs.append(tuple(
            Subspace.span(n, [rng.getrandbits(n) for _ in range(rng.randrange(n + 1))])
            for n in (n1, n2)
        ))
    for w1, w2 in pairs:
        m1 = BinaryMatroid(tuple(f"x{i}" for i in range(w1.ambient_dim)), w1)
        m2 = BinaryMatroid(tuple(f"y{i}" for i in range(w2.ambient_dim)), w2)
        summed = m1.direct_sum(m2)
        expected = direct_sum_by_span(m1, m2)
        assert summed.ground == expected.ground
        assert summed.cycle_space == expected.cycle_space  # the same canonical basis


def test_loop_coloop_detection():
    lonely = LoopedSimpleGraph.build("ab", [("a", "b")])
    iso = LoopedSimpleGraph.build("abc", [("a", "b")])
    m = BinaryMatroid.from_matrix(iso.adj, iso.labels)
    assert m.is_loop("c")  # isolated unlooped vertex
    looped_iso = LoopedSimpleGraph.build("abc", [("a", "b")], loops="c")
    m2 = BinaryMatroid.from_matrix(looped_iso.adj, looped_iso.labels)
    assert m2.is_coloop("c")
    free = BinaryMatroid.from_matrix(lonely.adj, lonely.labels)
    assert all(free.is_coloop(v) for v in "ab")


def brute_cycle_edge_sets(mg: MultiGraph) -> set[frozenset[str]]:
    """Oracle: connected edge subsets with every incident vertex of degree 2."""
    out = set()
    m = len(mg.edges)
    for mask in range(1, 1 << m):
        chosen = [e for e in range(m) if (mask >> e) & 1]
        degree: dict[int, int] = {}
        for e in chosen:
            u, v = mg.edges[e]
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if any(d != 2 for d in degree.values()):
            continue
        verts = sorted(degree)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            x = stack.pop()
            for e in chosen:
                u, v = mg.edges[e]
                if u == x and v not in seen:
                    seen.add(v)
                    stack.append(v)
                elif v == x and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == len(verts):
            out.add(frozenset(mg.edge_labels[e] for e in chosen))
    return out


def test_polygon_matroid_examples():
    tri = MultiGraph.build("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    m = polygon_matroid(tri)
    assert m.circuits() == {frozenset(tri.edge_labels)}
    assert m.rank == 2
    tree = MultiGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert polygon_matroid(tree) == free_matroid(tree.edge_labels)
    one_loop = MultiGraph.build("a", [("a", "a")])
    assert polygon_matroid(one_loop) == all_loops(["e0"])


def test_polygon_circuits_match_cycle_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 5)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(6)))
        mg = MultiGraph(tuple(f"v{i}" for i in range(n)), edges)
        assert polygon_matroid(mg).circuits() == brute_cycle_edge_sets(mg)


def test_equality_is_order_insensitive_on_labels():
    a = free_matroid("ab").direct_sum(all_loops("c"))
    b = all_loops("c").direct_sum(free_matroid("ab"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != free_matroid("abc")


def test_isomorphism_examples():
    k3 = LoopedSimpleGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    p3ll = k3.local_complement("a")
    k3l = k3.loop_complement("a")
    m_k3 = BinaryMatroid.from_matrix(k3.adj, k3.labels)
    m_p = BinaryMatroid.from_matrix(p3ll.adj, p3ll.labels)
    m_l = BinaryMatroid.from_matrix(k3l.adj, k3l.labels)
    assert m_k3 == m_p  # the identity is an isomorphism
    assert m_l.nullity != m_p.nullity  # so no isomorphism
    # a two-vertex path shares its matroid with two looped points
    edge = LoopedSimpleGraph.build("vw", [("v", "w")])
    pts = LoopedSimpleGraph.build("xy", loops="xy")
    m_edge = BinaryMatroid.from_matrix(edge.adj, edge.labels)
    m_pts = BinaryMatroid.from_matrix(pts.adj, pts.labels)
    assert relabeled(m_edge, {"v": "x", "w": "y"}) == m_pts


def independent_sets(m: BinaryMatroid) -> set[frozenset[str]]:
    """The independent sets as label sets, read off the independent masks."""
    return {frozenset(m.ground[i] for i in set_bits(x)) for x in m.independent_masks()}


def test_bases_and_independent_sets():
    u32 = one_circuit("abc")
    assert u32.bases() == {
        frozenset("ab"), frozenset("ac"), frozenset("bc")
    }
    assert free_matroid("abc").bases() == {frozenset("abc")}
    assert independent_sets(all_loops("v")) == {frozenset()}
    # every independent set avoids every circuit
    for s in independent_sets(u32):
        assert not frozenset("abc") <= s


def test_bases_equicardinal_with_rank():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randrange(1, 6)
        w = Subspace.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(3))])
        m = BinaryMatroid(tuple(f"v{i}" for i in range(n)), w)
        for b in m.bases():
            assert len(b) == m.rank


def test_bases_and_independent_sets_on_every_small_subspace(restricted, reference_matroids):
    """S is independent iff no cycle lies inside it, on every matroid with
    n <= 5, seeded ones up to n = 14 and polygon matroids with loops and
    parallel edges."""
    for m in reference_matroids:
        independent = [s for s in range(1 << m.size) if restricted(m.cycle_space, s).dim == 0]
        assert list(m.independent_masks()) == independent
        bases = m.bases()
        assert bases and all(len(b) == m.rank for b in bases)
        assert bases == {b for b in independent_sets(m) if len(b) == m.rank}
    assert len(reference_matroids) == 465 + 9 * 5 + 20


def test_independent_family_is_computed_once_per_matroid(monkeypatch):
    runs = []
    dominated = binary_matroid.dominated  # called once per build of the word
    monkeypatch.setattr(
        binary_matroid, "dominated", lambda *a, **k: runs.append(a) or dominated(*a, **k)
    )
    rng = random.Random(29)
    for n in range(1, 7):
        w = Subspace.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(3))])
        m = BinaryMatroid(tuple(f"v{i}" for i in range(n)), w)
        runs.clear()
        first = (m.bases(), m.independent_masks())
        for _ in range(3):
            assert (m.bases(), m.independent_masks()) == first
        assert len(runs) == 1
        BinaryMatroid(m.ground, w).bases()
        assert len(runs) == 2  # an equal matroid builds its own word


def test_bases_check_the_gate_before_building_the_full_mask():
    with pytest.raises(ValueError, match="gated"):
        free_matroid(tuple(f"v{i}" for i in range(64))).bases()
    m = free_matroid(tuple(f"v{i}" for i in range(24)))  # a 2 MB full mask
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="gated"):
            m.independent_masks()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_minor_duality_exchange():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(1, 6)
        w = Subspace.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(3))])
        m = BinaryMatroid(tuple(f"v{i}" for i in range(n)), w)
        assert m.dual().dual() == m
        for v in m.ground:
            assert m.delete(v).dual() == m.dual().contract(v)


def test_circuit_axioms_on_random_instances():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(1, 6)
        w = Subspace.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(4))])
        m = BinaryMatroid(tuple(f"v{i}" for i in range(n)), w)
        circuits = m.circuit_masks()
        assert 0 not in circuits
        for c1, c2 in itertools.combinations(circuits, 2):
            assert c1 & c2 not in (c1, c2)
            diff = c1 ^ c2
            assert any(c & diff == c for c in circuits)
        for z in w.vectors():
            rest = z
            while rest:
                c = next(c for c in circuits if c & rest == c)
                rest ^= c
