"""Named property suites exercising every structural identity of the toolkit.

Each check runs over exhaustively enumerated small instances plus seeded
random ones, and reports instance counts and minimal reproducing inputs for
any failure.  A witness is rendered only for a failure that is kept.  The
kernel and induced-subset oracles (_zero_set, _down_closure, _union_below),
the min-equicardinal oracle _equicardinal_min_criterion and the two-of-three
maxima check are word operations on 2^n-bit families; tests keep the set
loops they replaced as references.  The word steps and the gates are
`gf2`'s, and the distance checks read gf2.distance_layers, the kernel that
interlace_subset runs.  The fourreg suite walks each corpus graph's
transition systems once; `verify` and the tests drive the suites.

A slow reference lives beside its checks, here, unless the CLI or the
benchmark needs it: _all_subspaces, _kappa, and the interlace routes
_q_from_lambda and _interlace_vertex_terms over one _induced_nullities table
per graph.  bench/workloads.py checks outputs with four that stay in the
library: polynomials.interlace_recursive and tutte_recursive, and
SetSystem.loop_complement_sequential and dual_pivot_sequential.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from . import delta_matroid as dm
from .adjacency_matroid import (
    adjacency_matroid,
    classify_vertex,
    contract_via_lc,
    delete_via_subgraph,
    is_triple_coloop,
    trio,
)
from .binary_matroid import BinaryMatroid, polygon_matroid, single_coloop
from .four_regular import (
    CircuitPartition,
    EulerSystem,
    HalfEdgeGraph,
    TransitionSystem,
    all_transition_systems,
    compatible_euler_system,
    euler_system,
    interlacement,
    partition_from_transitions,
    random_four_regular,
    realize_touch_graph,
    relative_interlacement,
    small_four_regular_corpus,
    touch_graph,
    transition_type,
)
from .gf2 import (
    BitMatrix,
    Subspace,
    coord_masks,
    distance_layers,
    dominated,
    lowest_bit,
    nullity,
    nullspace,
    orthogonal_complement,
    pivot_step,
    principal_submatrix,
    rank,
    scatter,
    set_bits,
    size_masks,
    symmetrize_nullspace,
)
from .graph import (
    LoopedSimpleGraph,
    MultiGraph,
    all_looped_simple_graphs,
    as_multigraph,
    default_labels,
    find_root,
    nullity_oracle_of,
    random_looped_simple_graph,
    reconstruct_from_nullity_oracle,
)
from .graphtext import render_graph
from .polynomials import (
    BivariatePolynomial,
    interlace_recursive,
    interlace_subset,
    lambda_leading,
    shifted_power_term,
    tutte_recursive,
    tutte_subset,
)

MAX_FAILURES_KEPT = 5


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class Witness(functools.partial):
    """Failure text, rendered only by str(): the call of this partial."""

    __str__ = functools.partial.__call__


class Recorder:
    """Accumulates per-check instance counts and failure witnesses."""

    def __init__(self) -> None:
        self.results: dict[str, CheckResult] = {}

    def record(self, name: str, ok: bool, witness: object) -> None:
        r = self.results.get(name) or self.results.setdefault(name, CheckResult(name))
        r.instances += 1
        if not ok and len(r.failures) < MAX_FAILURES_KEPT:
            r.failures.append(str(witness))

    def check(self, name: str, witness: object) -> "_Check":
        """Record a clean exit from the block as a pass, and an AssertionError or
        a ValueError from a route under test as a failure, rendered as
        f"{witness}: {exc}" only if kept; other exceptions propagate."""
        return _Check(self, name, witness)

    def report(self) -> list[CheckResult]:
        return list(self.results.values())


class _Check:
    __slots__ = ("rec", "name", "witness")

    def __init__(self, rec: Recorder, name: str, witness: object) -> None:
        self.rec, self.name, self.witness = rec, name, witness

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type[BaseException] | None, exc: object, tb: object) -> bool:
        if kind is not None and not issubclass(kind, (AssertionError, ValueError)):
            return False
        self.rec.record(self.name, not kind, kind and Witness("{}: {}".format, self.witness, exc))
        return True


def graph_witness(g: LoopedSimpleGraph | MultiGraph, extra: object = "") -> str:
    text = render_graph(g).strip().replace("\n", "; ")
    return f"[{text}]" + (f" {extra}" if extra else "")


def _graph_stream(max_n: int, trials: int, rand_n: int, seed: int):
    for n in range(max_n + 1):
        yield from all_looped_simple_graphs(n)
    rng = random.Random(seed)
    for _ in range(trials):
        yield random_looped_simple_graph(rng, rand_n)


# ---------------------------------------------------------------------------
# matroid suite: the GF(2) kernel, the subspace correspondence, and every
# minor/local-complement/tripartition identity of adjacency matroids.


def _check_circuit_axioms(rec: Recorder, m: BinaryMatroid, witness: str) -> None:
    circuits = m.circuit_masks()
    circuit_set = set(circuits)
    with rec.check("circuit-axioms", witness):
        assert 0 not in circuit_set, "empty circuit"
        for c1, c2 in itertools.combinations(circuits, 2):
            assert not (c1 & c2 == c1 or c1 & c2 == c2), "nested circuits"
            diff = c1 ^ c2
            assert any(c & diff == c for c in circuits), "symmetric difference misses a circuit"
    with rec.check("cycle-vectors-split-into-disjoint-circuits", witness):
        for z in m.cycle_space.vectors():
            rest = z
            parts: list[int] = []
            while rest:
                c = next((c for c in circuits if c & rest == c), None)
                assert c is not None, f"vector {rest:b} contains no circuit"
                parts.append(c)
                rest ^= c
            for c1, c2 in itertools.combinations(parts, 2):
                assert c1 & c2 == 0, "circuit decomposition not disjoint"


def _matroid_kernel_checks(rec: Recorder, max_n: int, trials: int, seed: int) -> None:
    rng = random.Random(seed + 1)

    for n in range(min(max_n, 5) + 1):
        for w in _all_subspaces(n):
            m = BinaryMatroid(default_labels(n), w)
            witness = f"subspace dim {w.dim} of 2^{n}: {w.basis}"
            with rec.check("subspace-matroid-round-trip", witness):
                assert BinaryMatroid(m.ground, m.cycle_space) == m
                assert m.cycle_space == w
                span = Subspace.span(n, m.circuit_masks())
                assert span == w, "circuits do not span the cycle space"
            _check_circuit_axioms(rec, m, witness)

    for t in range(max(trials, 200)):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        a = BitMatrix(rows, cols, (rng.randrange(1 << cols) for _ in range(rows)))
        witness = f"matrix {a.rows}x{a.cols} rows={a.data}"
        with rec.check("rank-plus-nullity", witness):
            assert rank(a) + nullity(a) == a.cols
            assert rank(a) == rank(a.transpose())
        with rec.check("nullspace-annihilates", witness):
            for v in nullspace(a).basis:
                assert a.mul_mask(v) == 0
        with rec.check("orthogonal-complement-involution", witness):
            w = nullspace(a)
            comp = orthogonal_complement(w)
            assert comp.dim + w.dim == a.cols
            assert orthogonal_complement(comp) == w
            for x in w.basis:
                for y in comp.basis:
                    assert (x & y).bit_count() % 2 == 0
        with rec.check("symmetric-representation-of-nullspace", witness):
            b = symmetrize_nullspace(a)
            assert b.is_symmetric and b.rows == a.cols
            kernel = nullspace(a)
            assert nullspace(b) == kernel
            assert _zero_set(b) == sum(1 << v for v in kernel.vectors())
        with rec.check("symmetric-representation-same-matroid", witness):
            labels = default_labels(a.cols)
            assert BinaryMatroid.from_matrix(symmetrize_nullspace(a), labels) == (
                BinaryMatroid.from_matrix(a, labels)
            )

    for t in range(max(trials, 200)):
        n = rng.randrange(8)
        a = random_looped_simple_graph(rng, n).adj
        r = rank(a)
        witness = f"symmetric {n}x{n} rows={a.data}"
        with rec.check("principal-minor-rank-criterion", witness):
            for s in itertools.combinations(range(n), r):
                cols = [a.column_mask(j) for j in s]
                independent = len(Subspace.span(n, cols).basis) == r
                principal_ok = rank(principal_submatrix(a, s)) == r
                assert independent == principal_ok


def _all_subspaces(n: int) -> Iterator[Subspace]:
    """Every subspace of GF(2)^n, via canonical RREF bases."""
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_slots = [[j for j in range(p + 1, n) if j not in pivots] for p in pivots]
            total = sum(len(s) for s in free_slots)
            for fill in range(1 << total):
                rows, rest = [], fill
                for p, slots in zip(pivots, free_slots):
                    rows.append((1 << p) | scatter(rest, slots))
                    rest >>= len(slots)
                yield Subspace(n, rows)


def _zero_set(b: BitMatrix) -> int:
    """The v with b v = 0, as a 2^cols-bit indicator: off the union of the
    rows' parity planes, each the XOR of ONE_j over the row's bits j."""
    masks = coord_masks(b.cols)
    odd = 0
    for row in b.data:
        odd |= functools.reduce(int.__xor__, (masks[j][1] for j in set_bits(row)), 0)
    return ((1 << (1 << b.cols)) - 1) & ~odd


def _cycle_edge_sets(mg: MultiGraph) -> set[frozenset[str]]:
    """Edge sets of graph cycles: nonempty, connected, every vertex degree 2."""
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
        parent = list(range(mg.n))
        for e in chosen:
            u, v = mg.edges[e]
            parent[find_root(parent, u)] = find_root(parent, v)
        if len({find_root(parent, x) for x in degree}) == 1:
            out.add(frozenset(mg.edge_labels[e] for e in chosen))
    return out


def _random_multigraph(rng: random.Random, n: int, m: int) -> MultiGraph:
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    return MultiGraph(default_labels(n), edges)


def _matroid_graph_checks(rec: Recorder, g: LoopedSimpleGraph) -> None:
    # one memo per stream graph: each graph the checks below compare is
    # built into a matroid once; the library routes under test build their own
    m = functools.cache(adjacency_matroid)
    mg = m(g)
    kinds = ("plain", "loop", "loop_isolate")
    for v in g.labels:
        witness = Witness(graph_witness, g, f"vertex {v}")
        gv = g.local_complement(v)
        mine = {k: m(g.variant(v, k)) for k in kinds}
        theirs = {k: m(gv.variant(v, k)) for k in kinds}
        m_gv = m(gv)
        m_minus = m(g.minus(v))
        deleted = mg.delete(v)
        triple = is_triple_coloop(g, v)  # the route under test, asked once

        with rec.check("contract-matches-complement-witness", witness):
            derivation = contract_via_lc(g, v)
            assert derivation.result == mg.contract(v)
            rebuilt = g
            for w in derivation.lc_sequence:
                rebuilt = rebuilt.local_complement(w)
            assert rebuilt == derivation.witness_graph

        with rec.check("delete-matches-subgraph-for-noncoloops", witness):
            if not mg.is_coloop(v):
                assert deleted == m_minus

        with rec.check("delete-matches-subgraph-off-triple-coloops", witness):
            if not triple:
                assert deleted == m_minus
            assert delete_via_subgraph(g, v) == deleted

        with rec.check("deletion-ignores-local-complement", witness):
            assert deleted == m_gv.delete(v)

        with rec.check("local-complement-matroid-relation", witness):
            if not g.is_looped(v):
                assert m_gv == mg
            else:
                c_here = mg.is_coloop(v)
                c_there = m_gv.is_coloop(v)
                assert c_here or c_there, "coloop of neither"
                if c_here and c_there:
                    assert m_gv == mg
                    assert not triple
                    assert not is_triple_coloop(gv, v)
                else:
                    m1, m2 = (m_gv, mg) if c_here else (mg, m_gv)
                    assert m2 == m1.delete(v).direct_sum(single_coloop(v))
                    assert m2.nullity == m1.nullity - 1, "equal nullities"
                    assert triple if c_here else is_triple_coloop(gv, v)

        with rec.check("three-variants-two-agree", witness):
            t = trio(g, v)
            equal = [(a, b) for a, b in itertools.combinations(kinds, 2) if mine[a] == mine[b]]
            assert equal == [t.equal_pair], f"{t.equal_pair} vs {equal}"
            assert {t.odd_one, *t.equal_pair} == set(kinds), f"odd {t.odd_one}"
            shared, bigger = mine[t.equal_pair[0]].cycle_space, mine[t.odd_one].cycle_space
            assert t.nullity == shared.dim, f"nullity {t.nullity} vs {shared.dim}"
            assert bigger.dim == shared.dim + 1 and all(bigger.contains(x) for x in shared.basis)

        with rec.check("loop-isolate-splits-off-coloop", witness):
            iso = mine["loop_isolate"]
            assert iso.is_coloop(v)
            assert iso == m_minus.direct_sum(single_coloop(v))
            gv_loop = theirs["loop"]
            assert iso.nullity == m_minus.nullity == gv_loop.contract(v).nullity == gv_loop.nullity

        with rec.check("coloop-of-graph-or-loop-complement", witness):
            toggled = m(g.loop_complement(v))
            assert mg.is_coloop(v) or toggled.is_coloop(v)

        with rec.check("triple-coloop-cycle-space-criterion", witness):
            plain, loop, iso = mine["plain"], mine["loop"], mine["loop_isolate"]
            assert iso.is_coloop(v)
            assert plain.is_coloop(v) or loop.is_coloop(v)
            criterion = plain.cycle_space == loop.cycle_space and all(
                iso.cycle_space.contains(x) for x in plain.cycle_space.basis
            ) and iso.cycle_space != plain.cycle_space
            assert criterion == triple

        with rec.check("tripartition-case-details", witness):
            _check_tripartition_case(g, v, gv, mine, theirs)

    with rec.check("rank-function-shape", Witness(graph_witness, g)):
        table = {}
        for mask in range(1 << g.n):
            s = [g.labels[i] for i in range(g.n) if (mask >> i) & 1]
            table[mask] = mg.rank_of(s)
        full = (1 << g.n) - 1
        assert table[0] == 0
        for a in range(1 << g.n):
            for i in range(g.n):
                if not (a >> i) & 1:
                    b = a | (1 << i)
                    assert table[a] <= table[b] <= table[a] + 1, "not a unit-increase function"
        for a in range(1 << g.n):
            for b in range(1 << g.n):
                assert table[a | b] + table[a & b] <= table[a] + table[b], "not submodular"
        assert table[full] == mg.rank

    with rec.check("duality-and-minor-exchange", Witness(graph_witness, g)):
        assert mg.dual().dual() == mg
        for v in g.labels:
            assert mg.delete(v).dual() == mg.dual().contract(v)
            assert mg.contract(v).dual() == mg.dual().delete(v)

    with rec.check("graph-reconstruction-from-nullities", Witness(graph_witness, g)):
        assert reconstruct_from_nullity_oracle(g.labels, nullity_oracle_of(g)) == g

    with rec.check("local-complement-case-description", Witness(graph_witness, g)):
        for v in g.labels:
            gv = g.local_complement(v)
            neighbors = set(g.neighbors(v))
            for w in g.labels:
                if w == v:
                    assert gv.is_looped(w) == g.is_looped(w)
                elif w in neighbors:
                    assert gv.is_looped(w) != g.is_looped(w)
                else:
                    assert gv.is_looped(w) == g.is_looped(w)
            for w, x in itertools.combinations(g.labels, 2):
                if v in (w, x):
                    assert gv.adjacent(w, x) == g.adjacent(w, x)
                elif w in neighbors and x in neighbors:
                    assert gv.adjacent(w, x) != g.adjacent(w, x)
                else:
                    assert gv.adjacent(w, x) == g.adjacent(w, x)
            assert gv.local_complement(v) == g


def _check_tripartition_case(
    g: LoopedSimpleGraph,
    v: str,
    gv: LoopedSimpleGraph,
    mine: dict[str, BinaryMatroid],
    theirs: dict[str, BinaryMatroid],
) -> None:
    """mine and theirs are the variant matroids at v of g and of gv."""
    case = classify_vertex(g, v).tag
    back = classify_vertex(gv, v).tag
    u11 = single_coloop(v)
    if case == "case3":
        assert back == "case3", "case 3 must persist under local complementation"
        assert theirs["plain"] == mine["plain"]
        shared = [mine["loop"], theirs["loop"], mine["loop_isolate"], theirs["loop_isolate"]]
        assert all(m == shared[0] for m in shared)
        assert shared[0] == mine["plain"].delete(v).direct_sum(u11)
        assert mine["plain"].nullity == mine["loop"].nullity + 1
        assert all(
            mine["plain"].cycle_space.contains(x)
            for x in mine["loop"].cycle_space.basis
        )
    else:
        if case == "case1":
            assert back == "case2", "case 1 must swap to case 2 under local complementation"
            inner, outer = mine, theirs
            outer_graph = gv
        else:
            assert back == "case1", "case 2 must swap to case 1 under local complementation"
            inner, outer = theirs, mine
            outer_graph = g
        # the one matroid without v as a coloop is outer["loop"]
        assert not outer["loop"].is_coloop(v)
        assert inner["loop_isolate"] == outer["loop"].contract(v).direct_sum(u11)
        shared = [inner["plain"], inner["loop"], outer["plain"], outer["loop_isolate"]]
        assert all(m == shared[0] for m in shared)
        assert shared[0] == outer["loop"].delete(v).direct_sum(u11)
        assert inner["loop_isolate"].nullity == outer["loop"].nullity
        assert inner["plain"].nullity == outer["loop"].nullity - 1
        # intersection of the two big cycle spaces equals the shared one
        big1 = inner["loop_isolate"].cycle_space
        big2 = outer["loop"].cycle_space
        inter = [x for x in big1.vectors() if big2.contains(x)]
        assert Subspace.span(g.n, inter) == inner["plain"].cycle_space
        assert any(
            outer_graph.minus(v).is_looped(w) for w in outer_graph.labels if w != v
        ), "a looped vertex must survive off v"


def _polygon_checks(rec: Recorder, seed: int) -> None:
    rng = random.Random(seed + 2)
    fixed = [
        MultiGraph.build("abc", [("a", "b"), ("b", "c"), ("c", "a")]),
        MultiGraph.build("ab", [("a", "b"), ("a", "b")]),
        MultiGraph.build("a", [("a", "a")]),
        MultiGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    ]
    samples = fixed + [
        _random_multigraph(rng, rng.randrange(1, 5), rng.randrange(7)) for _ in range(100)
    ]
    for mg in samples:
        witness = Witness(graph_witness, mg)
        with rec.check("polygon-circuits-are-graph-cycles", witness):
            assert polygon_matroid(mg).circuits() == _cycle_edge_sets(mg)


def matroid_suite(max_n: int = 4, trials: int = 200, seed: int = 0) -> list[CheckResult]:
    rec = Recorder()
    _matroid_kernel_checks(rec, max_n, trials, seed)
    _polygon_checks(rec, seed)
    rand_n = max_n + 3
    for g in _graph_stream(max_n, trials, rand_n, seed):
        _matroid_graph_checks(rec, g)
    return rec.report()


# ---------------------------------------------------------------------------
# delta suite: set-system algebra, the graph encoding, and the matrix-free
# reproofs of the minor identities.


def _sets_witness(d: dm.SetSystem, extra: object = "") -> str:
    members = ",".join("{" + " ".join(s) + "}" for s in d.member_sets())
    return f"[ground {' '.join(d.ground)}; family {members}]" + (f" {extra}" if extra else "")


def _loop_complement_by_counting(d: dm.SetSystem, x: list[str]) -> frozenset[int]:
    """Oracle: Y is kept iff the members between Y minus x and Y are odd in number."""
    xm = d.mask_of(x)
    return frozenset(
        y
        for y in range(1 << d.n)
        if sum(1 for z in d.family if y & ~xm & ~z == 0 and z & ~y == 0) & 1
    )


def _dual_pivot_by_counting(d: dm.SetSystem, x: list[str]) -> frozenset[int]:
    """Oracle: Y is kept iff the members between Y and Y union x are odd in number."""
    xm = d.mask_of(x)
    return frozenset(
        y
        for y in range(1 << d.n)
        if sum(1 for z in d.family if y & ~z == 0 and z & ~(y | xm) == 0) & 1
    )


def _equicardinal_min_criterion(d: dm.SetSystem) -> bool:
    """Oracle: proper, and for each X the minimal members of F pivoted by X
    have one size; X walks Gray order, step k pivoting the lowest set bit of k."""
    if not d.is_proper:
        return False
    masks, sizes, word = coord_masks(d.n), size_masks(d.n), d.bits
    for k in range(1 << d.n):
        if k:
            i = lowest_bit(k)
            word = pivot_step(word, masks[i][0], 1 << i)
        low = word & ~dominated(word, d.n, up=True)  # the minimal members
        if low & ~sizes[lowest_bit(low).bit_count()]:  # one off the first one's size
            return False
    return True


def _exchange_by_pairs(d: dm.SetSystem) -> bool:
    """Oracle: the symmetric exchange axiom, tried on every pair of members."""
    fam, n = d.family, d.n
    for x in fam:
        for y in fam:
            diff = x ^ y
            for u in range(n):
                ub = 1 << u
                if not diff & ub or (x ^ ub) in fam:
                    continue
                rest = diff & ~ub
                if not any((rest >> v) & 1 and (x ^ ub ^ (1 << v)) in fam for v in range(n)):
                    return False
    return True


def _distance_of(layers: list[int], x: int) -> int:
    """d(X) read off the distance layers: the one c whose layer holds X, or
    a ValueError if not exactly one does."""
    (c,) = [c for c, layer in enumerate(layers) if (layer >> x) & 1]
    return c


def _delta_graph_checks(rec: Recorder, g: LoopedSimpleGraph) -> None:
    d = dm.from_graph(g)
    mg = adjacency_matroid(g)
    witness = Witness(graph_witness, g)
    induced = [g.induced_mask(mask) for mask in range(1 << g.n)]

    with rec.check("graph-encoding-is-normal-delta-matroid", witness):
        assert d.is_normal
        assert dm.is_delta_matroid(d)
        assert d.min_sys().family == frozenset({0})
        assert dm.to_graph(d) == g

    with rec.check("distance-equals-induced-nullity", witness):
        layers = distance_layers(d.bits, g.n)
        for x, h in enumerate(induced):
            assert _distance_of(layers, x) == nullity(h.adj)

    with rec.check("max-members-are-matroid-bases", witness):
        assert dm.max_as_matroid(d) == mg.bases()

    for v in g.labels:
        wv = Witness(graph_witness, g, f"vertex {v}")
        gv = g.local_complement(v)
        m_gv = adjacency_matroid(gv)
        contracted = mg.contract(v)
        pivoted = d.pivot([v])
        with rec.check("flips-match-graph-complements", wv):
            if g.is_looped(v):
                assert pivoted == dm.from_graph(gv)
            else:
                assert d.dual_pivot([v]) == dm.from_graph(gv)
            assert d.loop_complement([v]) == dm.from_graph(g.loop_complement(v))
            assert d.delete([v]) == dm.from_graph(g.minus(v))

        with rec.check("matrix-free-minor-routes-agree", wv):
            if not mg.is_coloop(v):
                assert mg.delete(v).bases() == dm.max_as_matroid(d.delete([v]))
            if g.is_looped(v):
                assert contracted.bases() == dm.max_as_matroid(pivoted.delete([v]))
            elif g.neighbors(v):
                assert contracted.bases() == dm.max_as_matroid(pivoted.delete([v]))
                w = g.neighbors(v)[0]
                seq = d.dual_pivot([w]) if not g.is_looped(w) else d.dual_pivot([v]).dual_pivot([w])
                assert dm.max_as_matroid(seq.pivot([v]).delete([v])) == contracted.bases()
            if not g.is_looped(v):
                assert dm.max_as_matroid(d.dual_pivot([v])) == m_gv.bases() == mg.bases()

        with rec.check("two-of-three-max-transforms-agree", wv):
            _check_two_of_three(d, v, pivoted)

        with rec.check("max-after-pinning", wv):
            _check_max_after_pinning(d, v, pivoted)

        with rec.check("loop-isolate-via-max-filter", wv):
            if g.is_looped(v):
                m_iso = adjacency_matroid(g.variant(v, "loop_isolate"))
                assert m_iso.nullity == m_gv.nullity
                assert m_iso.bases() == {b for b in m_gv.bases() if v in b}
                assert m_iso == m_gv.contract(v).direct_sum(single_coloop(v))
                assert (m_iso == m_gv) == (mg.nullity >= m_gv.nullity)

    _delta_subset_checks(rec, g, d, induced)


def _delta_subset_checks(
    rec: Recorder, g: LoopedSimpleGraph, d: dm.SetSystem, induced: list[LoopedSimpleGraph]
) -> None:
    """The induced-subgraph checks, over one matroid per vertex subset;
    induced[mask] is g's subgraph induced on mask."""
    witness = Witness(graph_witness, g)
    subs = [adjacency_matroid(h) for h in induced]
    sub_bases = [sub.bases() for sub in subs]
    collected = _union_below([sum({1 << d.mask_of(b) for b in bs}) for bs in sub_bases], g.n)
    for mask, (h, sub) in enumerate(zip(induced, subs)):
        ws = Witness("{} subset {{{}}}".format, witness, Witness(" ".join, h.labels))
        inside = d.restrict(h.labels)
        with rec.check("bases-are-maximal-encoded-subsets", ws):
            assert inside.is_proper
            assert {inside.labels_of(m) for m in inside.max_sys().family} == sub_bases[mask]
        with rec.check("independents-extend-to-encoded-sets", ws):
            assert inside.ground == sub.ground  # so masks name the same labels
            assert set_bits(_down_closure(inside)) == list(sub.independent_masks())
        with rec.check("restriction-collects-subgraph-bases", ws):
            restricted = dm.from_graph(h)
            assert dm.SetSystem(d.ground, collected[mask]).restrict(h.labels) == restricted


def _down_closure(d: dm.SetSystem) -> int:
    """Every subset of a member of d: the members and what lies below them."""
    return d.bits | dominated(d.bits, d.n, up=False)


def _union_below(families: list[int], n: int) -> list[int]:
    """In place, entry S becomes the OR of families[T] over T inside S (zeta)."""
    for bit in (1 << i for i in range(n)):
        for s in range(1 << n):
            if s & bit:
                families[s] |= families[s ^ bit]
    return families


def _check_two_of_three(d: dm.SetSystem, v: str, pivoted: dm.SetSystem) -> None:
    """pivoted is d pivoted at v.  Of the maxima of d, pivoted and d loop
    complemented at v, two are one family; the third's members avoiding v,
    with v added (a shift by 2^v), are that family."""
    a, b, c = (s.max_sys().bits for s in (d, pivoted, d.loop_complement([v])))
    distinct = len({a, b, c})
    assert distinct == 2, f"expected exactly two distinct maxima, got {distinct}"
    shared = a if a in (b, c) else b
    odd = a ^ b ^ c
    i = d.index(v)
    assert (odd & coord_masks(d.n)[i][0]) << (1 << i) == shared, (
        "pinned third maximum differs from the shared one"
    )
    # the size of each family's lowest member; max_sys keeps one size per family
    size1, size2 = (((f & -f).bit_length() - 1).bit_count() for f in (shared, odd))
    assert (d.n - size2) == (d.n - size1) + 1, "nullity step is not one"


def _check_max_after_pinning(d: dm.SetSystem, v: str, pivoted: dm.SetSystem) -> None:
    """pivoted is d pivoted at v."""
    tilde = d.tilde_minus(v)
    if tilde.is_proper:
        left = tilde.loop_complement([v]).max_sys()
        right = pivoted.max_sys().tilde_contract(v)
        assert left.bits == right.bits


def _delta_general_checks(rec: Recorder, trials: int, rand_n: int, seed: int) -> None:
    rng = random.Random(seed + 3)

    fixed = dm.SetSystem.from_sets("uvw", [["u"], ["v"], ["v", "w"]])
    with rec.check("max-deletion-counterexample", Witness(_sets_witness, fixed)):
        top = fixed.max_sys()
        assert not top.is_coloop("w")
        assert top.delete(["w"]).family != fixed.delete(["w"]).max_sys().family
        assert top.delete(["w"]).member_sets() == (("u",),)
        assert fixed.delete(["w"]).max_sys().member_sets() == (("u",), ("v",))

    power = dm.SetSystem("abc", 0b11111110)
    with rec.check("dual-pivot-can-break-exchange", Witness(_sets_witness, power)):
        flipped = power.dual_pivot(list("abc"))
        assert flipped.family == frozenset({0, 7})
        assert not dm.is_delta_matroid(flipped)
        assert not _equicardinal_min_criterion(flipped)

    for t in range(max(trials, 200)):
        n = rng.randrange(1, rand_n + 1)
        ground = default_labels(n)
        d = dm.random_set_system(rng, ground)
        if not d.is_proper:
            continue
        witness = Witness(_sets_witness, d)
        x_labels = [v for v in ground if rng.random() < 0.5]
        v = ground[rng.randrange(n)]
        w = ground[rng.randrange(n)]

        with rec.check("flip-involutions-and-commutation", witness):
            assert d.pivot(x_labels).pivot(x_labels) == d
            assert d.loop_complement(x_labels).loop_complement(x_labels) == d
            assert d.dual_pivot(x_labels).dual_pivot(x_labels) == d
            assert d.loop_complement(x_labels) == d.loop_complement_sequential(x_labels)
            assert d.dual_pivot(x_labels) == d.dual_pivot_sequential(x_labels)
            assert d.loop_complement(x_labels).family == _loop_complement_by_counting(d, x_labels)
            assert d.dual_pivot(x_labels).family == _dual_pivot_by_counting(d, x_labels)
            assert (
                d.dual_pivot(x_labels)
                == d.loop_complement(x_labels).pivot(x_labels).loop_complement(x_labels)
            )
            if v != w:
                assert d.tilde_minus(v).pivot([w]) == d.pivot([w]).tilde_minus(v)
                assert d.dual_pivot([v]).pivot([w]) == d.pivot([w]).dual_pivot([v])
                assert (
                    d.dual_pivot([v]).dual_pivot([w]) == d.dual_pivot([w]).dual_pivot([v])
                )

        with rec.check("pivot-distance-and-minmax-identities", witness):
            layers = distance_layers(d.bits, d.n)
            pivoted = distance_layers(d.pivot(x_labels).bits, d.n)
            assert _distance_of(layers, d.mask_of(x_labels)) == _distance_of(pivoted, 0)
            assert d.pivot(x_labels).is_normal == d.contains(x_labels)
            full = list(ground)
            assert d.min_sys() == d.pivot(full).max_sys().pivot(full)
            assert d.max_sys() == d.pivot(full).min_sys().pivot(full)
            assert d.max_sys().family == d.dual_pivot(x_labels).max_sys().family

        with rec.check("min-commutes-with-deletion", witness):
            if not d.is_coloop(v):
                assert d.min_sys().delete([v]) == d.delete([v]).min_sys()

        with rec.check("contract-commutes-with-max", witness):
            if not d.is_loop(v):
                left = d.max_sys().pivot([v]).delete([v])
                right = d.pivot([v]).delete([v]).max_sys()
                assert left == right

        with rec.check("max-after-pinning-general", witness):
            _check_max_after_pinning(d, v, d.pivot([v]))

    for t in range(max(trials, 200)):
        n = rng.randrange(1, min(rand_n, 5) + 1)
        g = random_looped_simple_graph(rng, n)
        d = dm.from_graph(g)
        x_labels = [v for v in g.labels if rng.random() < 0.5]
        d = d.pivot(x_labels)
        v = g.labels[rng.randrange(n)]
        witness = Witness(_sets_witness, d, f"element {v}")

        with rec.check("pivots-preserve-exchange", witness):
            assert dm.is_delta_matroid(d)
            deleted = d.delete([v])
            assert dm.is_delta_matroid(deleted) == deleted.is_proper
            dropped = dm.SetSystem(d.ground, d.bits ^ (1 << max(d.family)))
            for system in (d, deleted, dropped):
                assert dm.satisfies_exchange_axiom(system) == _exchange_by_pairs(system)
                assert dm.is_delta_matroid(system) == _equicardinal_min_criterion(system)

        with rec.check("max-commutes-with-deletion-for-exchange-systems", witness):
            if not d.max_sys().is_coloop(v):
                assert d.max_sys().delete([v]) == d.delete([v]).max_sys()

        with rec.check("min-contract-commutes-for-exchange-systems", witness):
            if not d.min_sys().is_loop(v):
                assert d.min_sys().pivot([v]).delete([v]) == d.pivot([v]).delete([v]).min_sys()

        with rec.check("flip-reachable-iff-contains-empty", witness):
            moved = dm.from_graph(g)
            for _ in range(rng.randrange(4)):
                kind = rng.choice(["pivot", "dual_pivot", "loop_complement"])
                moved = getattr(moved, kind)([g.labels[rng.randrange(n)]])
            if moved.is_normal:
                decoded = dm.to_graph(moved)
                assert dm.from_graph(decoded).family == moved.family

        with rec.check("matroid-bases-satisfy-exchange", witness):
            bases_sys = dm.SetSystem.from_sets(
                g.labels, adjacency_matroid(g).bases()
            )
            assert dm.is_delta_matroid(bases_sys)
            assert bases_sys.is_equicardinal
            dual_sys = bases_sys.pivot(list(g.labels))
            assert dual_sys.family == dm.SetSystem.from_sets(
                g.labels, adjacency_matroid(g).dual().bases()
            ).family


def delta_suite(max_n: int = 4, trials: int = 200, seed: int = 0) -> list[CheckResult]:
    rec = Recorder()
    rand_n = max_n + 2
    for g in _graph_stream(max_n, max(trials // 4, 25), min(rand_n, 6), seed):
        _delta_graph_checks(rec, g)
    _delta_general_checks(rec, trials, min(rand_n, 6), seed)
    return rec.report()


# ---------------------------------------------------------------------------
# fourreg suite: circuit partitions, interlacement, touch-graph duality and
# the realization construction.


def _kappa(c: EulerSystem, v: int) -> EulerSystem:
    """Rewire the Euler system at v with its orientation-inconsistent pairing
    (ins together, outs together), through the validating constructors."""
    c.f.check_vertex(v)
    (_, arr_a, dep_a), (_, arr_b, dep_b) = c.partition.passages[v]
    t = c.transitions.rewired(((arr_a, arr_b), (dep_a, dep_b)))
    return EulerSystem(partition_from_transitions(c.f, t))


def _fourreg_partition_checks(
    rec: Recorder, f: HalfEdgeGraph, c: EulerSystem, p: CircuitPartition, witness: str
) -> None:
    comp = f.component_count
    with rec.check("circuit-nullity-formula", witness):
        rel = relative_interlacement(c, p)
        assert nullity(rel.adj) == p.size - comp

    with rec.check("touch-graph-shape", witness):
        tch = touch_graph(p)
        assert tch.n == p.size
        assert len(tch.edges) == f.n
        assert tch.component_count() == comp


def _fourreg_compatible_checks(
    rec: Recorder, f: HalfEdgeGraph, p: CircuitPartition, witness: str
) -> None:
    c = compatible_euler_system(f, p)
    rel = relative_interlacement(c, p)
    base_rank = rank(rel.adj)
    tch = touch_graph(p)
    poly = polygon_matroid(tch)
    with rec.check("compatible-system-covers-all-vertices", witness):
        assert sorted(rel.labels) == sorted(f.graph.labels)

    with rec.check("touch-polygon-orthogonality", witness):
        # align the polygon cycle space into rel's vertex order by labels
        position = [rel.index(v) for v in poly.ground]
        moved = poly.cycle_space.permuted(position)
        assert orthogonal_complement(nullspace(rel.adj)) == moved

    with rec.check("touch-polygon-duality", witness):
        assert adjacency_matroid(rel).dual() == poly

    with rec.check("rewire-matches-local-complement", witness):
        for v in range(f.n):
            label = f.graph.labels[v]
            kind = transition_type(c, p, v)
            cv = _kappa(c, v)
            assert _kappa(cv, v).transitions == c.transitions
            if kind == "chi":
                assert all(transition_type(cv, p, w) != "phi" for w in range(f.n))
                assert relative_interlacement(cv, p) == rel.local_complement(label)
            else:
                phi = c.partition.pairing_at(v)
                p_prime = partition_from_transitions(f, p.transitions.rewired(phi))
                assert relative_interlacement(cv, p_prime) == rel.local_complement(label)
                ci, cj = p.circuits_through(v)
                pi, pj = p_prime.circuits_through(v)
                if ci == cj and pi == pj:
                    assert polygon_matroid(touch_graph(p_prime)) == poly
                elif ci != cj:
                    moved = polygon_matroid(touch_graph(p_prime)).dual()
                    expect = poly.dual().delete(label).direct_sum(single_coloop(label))
                    assert moved == expect

    with rec.check("rank-detects-shared-circuits", witness):
        for v in range(f.n):
            label = f.graph.labels[v]
            if label not in rel.labels:
                continue
            ci, cj = p.circuits_through(v)
            same_rank = base_rank == rank(rel.minus(label).adj)
            assert (ci != cj) == same_rank

    with rec.check("independent-sets-drop-circuit-counts", witness):
        if f.n <= 4:
            for size in range(1, f.n + 1):
                for combo in itertools.combinations(range(f.n), size):
                    labels = [f.graph.labels[v] for v in combo]
                    cond1 = poly.rank_of(labels) == len(labels)
                    kept = [x for x in rel.labels if x not in set(labels)]
                    cond2 = rank(rel.induced(kept).adj) == base_rank
                    sizes_ok = True
                    t = p.transitions
                    for i, v in enumerate(combo, start=1):
                        t = t.rewired(c.partition.pairing_at(v))
                        p_i = partition_from_transitions(f, t)
                        if p_i.size != p.size - i:
                            sizes_ok = False
                            break
                    assert cond1 == cond2 == sizes_ok


def fourreg_suite(max_n: int = 5, trials: int = 60, seed: int = 0) -> list[CheckResult]:
    rec = Recorder()
    rng = random.Random(seed + 4)

    for mg in small_four_regular_corpus(max_n):
        f = HalfEdgeGraph(mg)
        c = euler_system(f)
        witness = Witness(graph_witness, mg)
        with rec.check("euler-system-covers-components", witness):
            assert c.partition.size == f.component_count
            seen = sorted(h >> 1 for circ in c.circuits for h in circ)
            assert seen == list(range(f.edge_count))
            base = interlacement(c)
            assert not base.loop_labels()
        for t in all_transition_systems(f):
            p = partition_from_transitions(f, t)
            witness = Witness(graph_witness, mg, Witness("pairing {}".format, t.pairing))
            _fourreg_partition_checks(rec, f, c, p, witness)
            if mg.n <= 3:
                _fourreg_compatible_checks(rec, f, p, witness)

    for i in range(max(trials, 20)):
        n = rng.randrange(1, 6) if i % 2 else rng.randrange(4, 9)
        mg = random_four_regular(rng, n, connected=bool(rng.randrange(2)))
        f = HalfEdgeGraph(mg)
        c = euler_system(f)
        pairs = [pair for v in range(f.n) for pair in rng.choice(f.transitions_at(v))]
        t = TransitionSystem.from_pairs(f, pairs)
        p = partition_from_transitions(f, t)
        witness = Witness(graph_witness, mg, Witness("pairing {}".format, t.pairing))
        _fourreg_partition_checks(rec, f, c, p, witness)
        _fourreg_compatible_checks(rec, f, p, witness)

    count = 0
    attempts = 0
    while count < max(trials, 50) and attempts < 10 * max(trials, 50):
        attempts += 1
        n = rng.randrange(1, 7)
        g = random_looped_simple_graph(rng, n)
        if any(g.adj.data[i] == 0 for i in range(g.n)):
            continue
        count += 1
        witness = Witness(graph_witness, g)
        with rec.check("realization-reproduces-touch-graph", witness):
            r = realize_touch_graph(g)
            assert touch_graph(r.partition).incidences() == as_multigraph(g).incidences()
    return rec.report()


# ---------------------------------------------------------------------------
# poly suite: evaluator agreement and the leading-term recursions.


def _induced_nullities(g: LoopedSimpleGraph) -> list[int]:
    """nu(G[S]) for every vertex mask S, read from the leading Tutte term of
    the induced subgraph's matroid: one matroid per subset."""
    return [
        lambda_leading(adjacency_matroid(g.induced_mask(mask))).degree_y()
        for mask in range(1 << g.n)
    ]


def _q_from_lambda(nullities: list[int], bit: int = 0) -> BivariatePolynomial:
    """The interlace polynomial from the induced nullity table, term by term:
    (x-1)^(|S|-nu) (y-1)^nu summed over the vertex masks S holding bit
    (every S when bit is 0)."""
    counts = Counter((m.bit_count() - nu, nu) for m, nu in enumerate(nullities) if m & bit == bit)
    coeffs: dict[tuple[int, int], int] = {}
    for (a, b), count in counts.items():
        for i, j, c in shifted_power_term(a, b).terms:
            coeffs[i, j] = coeffs.get((i, j), 0) + count * c
    return BivariatePolynomial.from_dict(coeffs)


def _interlace_vertex_terms(
    g: LoopedSimpleGraph, nullities: list[int]
) -> dict[str, BivariatePolynomial]:
    """For each vertex v, the part of the subset expansion over the subsets holding v."""
    return {v: _q_from_lambda(nullities, 1 << i) for i, v in enumerate(g.labels)}


def _poly_graph_checks(rec: Recorder, g: LoopedSimpleGraph) -> None:
    witness = Witness(graph_witness, g)
    q = interlace_subset(g)
    nullities = _induced_nullities(g)  # one table for both induced-matroid oracles
    with rec.check("interlace-evaluators-agree", witness):
        assert q == interlace_recursive(g)
        assert q == _q_from_lambda(nullities)

    mg = adjacency_matroid(g)
    t = tutte_subset(mg)
    with rec.check("tutte-evaluators-agree", witness):
        assert t == tutte_recursive(mg)

    with rec.check("tutte-polynomial-swaps-under-duality", witness):
        assert t.swap_variables() == tutte_subset(mg.dual())

    with rec.check("leading-term-recursion", witness):
        lam, step = lambda_leading(mg), shifted_power_term(0, 1)
        for v in g.labels:
            lam_del = lambda_leading(mg.delete(v))
            lam_con = lambda_leading(mg.contract(v))
            if mg.is_loop(v):
                assert lam == step * lam_del == step * lam_con
            elif mg.is_coloop(v):
                assert lam == lam_del == lam_con
            else:
                assert lam == step * lam_del == lam_con

    with rec.check("leading-term-complement-rules", witness):
        lam, step = lambda_leading(mg), shifted_power_term(0, 1)
        for v in g.labels:
            gv = g.local_complement(v)
            if not g.is_looped(v):
                assert lam == lambda_leading(adjacency_matroid(gv))
                if not g.neighbors(v):
                    assert lam == step * lambda_leading(adjacency_matroid(g.minus(v)))
            else:
                assert lam == lambda_leading(adjacency_matroid(gv.minus(v)))

    with rec.check("vertex-terms-make-the-difference", witness):
        terms = _interlace_vertex_terms(g, nullities)
        for v in g.labels:
            assert q - interlace_subset(g.minus(v)) == terms[v]


def _poly_polygon_checks(rec: Recorder, trials: int, seed: int) -> None:
    rng = random.Random(seed + 5)
    for _ in range(max(trials // 4, 25)):
        mg = _random_multigraph(rng, rng.randrange(1, 5), rng.randrange(6))
        m = polygon_matroid(mg)
        with rec.check("tutte-evaluators-agree-on-polygon-matroids", Witness(graph_witness, mg)):
            assert tutte_subset(m) == tutte_recursive(m)


def poly_suite(max_n: int = 4, trials: int = 200, seed: int = 0) -> list[CheckResult]:
    rec = Recorder()
    rand_n = max_n + 4
    for g in _graph_stream(max_n, trials, min(rand_n, 8), seed):
        _poly_graph_checks(rec, g)
    _poly_polygon_checks(rec, trials, seed)
    return rec.report()


SUITES = {
    "matroid": matroid_suite,
    "delta": delta_suite,
    "fourreg": fourreg_suite,
    "poly": poly_suite,
}
SUITE_NAMES = tuple(SUITES)


def run_suites(
    suite: str, max_n: int | None = None, trials: int | None = None, seed: int = 0
) -> list[CheckResult]:
    names = SUITE_NAMES if suite == "all" else (suite,)
    kwargs = {k: v for k, v in (("max_n", max_n), ("trials", trials)) if v is not None}
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(SUITES[name](seed=seed, **kwargs))
    return results
