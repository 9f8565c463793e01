"""Named property suites exercising every structural identity of the toolkit.

Each check runs over exhaustively enumerated small instances plus seeded
random ones, and reports instance counts and, for any failure, the first
failing inputs in stream order.  A witness is rendered only for a failure that
is kept.  The kernel and induced-subset oracles (_zero_set, _down_closure,
_union_below), the min-equicardinal oracle _equicardinal_min_criterion and the
two-of-three maxima check are word operations on 2^n-bit families; tests keep
the set loops they replaced as references.  The word steps and the gates are
`gf2`'s, and the distance checks read gf2.distance_layers, the kernel that
interlace_subset runs.  The fourreg suite walks each corpus graph's transition
systems once; `verify` and the tests drive the suites.

A stream instance is fixed before its checks run: its inputs, every rng
draw it needs (the pivots stream's flip walk too) and its witness, which
names the instance and calls no route.  No check body reads the suite's rng,
so a failing check or a raising route leaves every later instance as it is.
A looped graph's witness opens with its text in brackets, which parse_graph
reads back with "; " as a line break.

Each check reads each route value once per stream instance, and one rule
shares it: a value several checks read is a _Lazy, built on its first read
inside the check that reads it first, and a value one check reads twice is
bound once inside it.  A build that raises keeps nothing, so a raising route
fails every check that reads it, with the same text, as a direct call in
each would.  The only reads that run before the checks are those that decide
which instances a stream holds: the graph and set-system generators,
HalfEdgeGraph(...), all_transition_systems, the transitions_at draws and the
is_proper filter, so a raise in one of them ends its suite.

A slow reference lives beside its checks, here, unless the CLI or the
benchmark needs it: _all_subspaces, _kappa, the polynomial sum and product
_poly_sum and _poly_times, which build through the validating constructor,
the interlace routes _q_from_lambda and _interlace_vertex_terms over one
_induced_nullities table per graph, and the Tutte route _tutte_by_rank.
bench/workloads.py checks outputs with four that stay in the library:
polynomials.interlace_recursive and tutte_recursive, and
SetSystem.loop_complement_sequential and dual_pivot_sequential.

The poly suite's checks, the routes each checks, and its oracle's kernels.
No oracle reads polynomials._from_tally or gf2.distance_layers; the duality
check and the two Tutte evaluator checks share one.  The evaluator checks
also pin q(2, 2) = 2^n and T(2, 2) = 2^|E|, and count the words the routes
tally: q(2, 1) nonsingular subsets, T(2, 1) independent sets, T(1, 1) bases.

  check                                       routes checked         oracle kernels
  interlace-evaluators-agree                  interlace_subset,      a matroid nullity per subset,
                                              interlace_recursive    shifted_power_term, _poly_sum;
                                                                     nonsingular_subsets
  tutte-evaluators-agree                      tutte_subset,          rank_of per subset,
  tutte-evaluators-agree-on-polygon-matroids  tutte_recursive        shifted_power_term, _poly_sum;
                                                                     independent_masks, bases
  tutte-polynomial-swaps-under-duality        tutte_subset of M, M*  the Tutte oracle of M, swapped
  leading-term-recursion                      lambda_leading         matroid nullity, _poly_times
  leading-term-complement-rules               lambda_leading         matroid nullity, _poly_times
  vertex-terms-make-the-difference            interlace_subset       a matroid nullity per subset,
                                              of G and G - v         shifted_power_term, _poly_sum
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

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


class _Lazy:
    """build(*args), called on the first read and kept; a call that raises
    keeps nothing, so each later read calls again."""

    __slots__ = ("build", "args", "value")

    def __init__(self, build: Callable[..., Any], *args: Any) -> None:
        self.build, self.args = build, args

    def __call__(self) -> Any:
        if self.build is not None:
            self.value = self.build(*self.args)
            self.build = None
        return self.value


class Recorder:
    """Accumulates per-check instance counts and failure witnesses."""

    def __init__(self) -> None:
        self.results: dict[str, CheckResult] = {}

    def check(self, name: str, witness: object) -> "Recorder":
        """Record a clean exit from the block as a pass, and an AssertionError or
        a ValueError from a route under test as a failure, rendered if kept as
        f"{witness}: {exc}" (an empty exc: the line that raised); other exceptions
        propagate.  Checks do not nest: the recorder holds the block's name and witness."""
        self.name, self.witness = name, witness
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type[BaseException] | None, exc: object, tb: object) -> bool:
        if kind is not None and not issubclass(kind, (AssertionError, ValueError)):
            return False
        name = self.name
        r = self.results.get(name) or self.results.setdefault(name, CheckResult(name))
        r.instances += 1
        if kind and len(r.failures) < MAX_FAILURES_KEPT:
            import traceback  # on a failure only: every CLI command imports verify
            r.failures.append(f"{self.witness}: {str(exc) or traceback.extract_tb(tb)[-1].line}")
        return True

    def report(self) -> list[CheckResult]:
        return list(self.results.values())


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


def _matroid_kernel_checks(rec: Recorder, max_n: int, trials: int, seed: int) -> None:
    rng = random.Random(seed + 1)

    for n in range(min(max_n, 5) + 1):
        for w in _all_subspaces(n):
            m = _Lazy(BinaryMatroid, default_labels(n), w)
            masks = _Lazy(lambda: m().circuit_masks())
            witness = Witness("subspace dim {} of 2^{}: {}".format, w.dim, n, w.basis)
            with rec.check("subspace-matroid-round-trip", witness):
                built = m()
                assert BinaryMatroid(built.ground, built.cycle_space) == built
                assert built.cycle_space == w
                assert Subspace.span(n, masks()) == w, "circuits do not span the cycle space"
            with rec.check("circuit-axioms", witness):
                circuits = masks()
                assert 0 not in circuits, "empty circuit"
                for c1, c2 in itertools.combinations(circuits, 2):
                    assert not (c1 & c2 == c1 or c1 & c2 == c2), "nested circuits"
                    diff = c1 ^ c2
                    assert any(c & diff == c for c in circuits), "symmetric difference misses a circuit"
            with rec.check("cycle-vectors-split-into-disjoint-circuits", witness):
                circuits = masks()
                for z in m().cycle_space.vectors():
                    rest = z
                    parts: list[int] = []
                    while rest:
                        c = next((c for c in circuits if c & rest == c), None)
                        assert c is not None, f"vector {rest:b} contains no circuit"
                        parts.append(c)
                        rest ^= c
                    for c1, c2 in itertools.combinations(parts, 2):
                        assert c1 & c2 == 0, "circuit decomposition not disjoint"

    for t in range(max(trials, 200)):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        a = BitMatrix(rows, cols, (rng.randrange(1 << cols) for _ in range(rows)))
        witness = Witness("matrix {}x{} rows={}".format, a.rows, a.cols, a.data)
        kernel, sym = _Lazy(nullspace, a), _Lazy(symmetrize_nullspace, a)
        with rec.check("rank-plus-nullity", witness):
            r = rank(a)
            assert r + nullity(a) == a.cols
            assert r == rank(a.transpose())
        with rec.check("nullspace-annihilates", witness):
            for v in kernel().basis:
                assert a.mul_mask(v) == 0
        with rec.check("orthogonal-complement-involution", witness):
            w = kernel()
            comp = orthogonal_complement(w)
            assert comp.dim + w.dim == a.cols
            assert orthogonal_complement(comp) == w
            for x in w.basis:
                for y in comp.basis:
                    assert (x & y).bit_count() % 2 == 0
        with rec.check("symmetric-representation-of-nullspace", witness):
            b = sym()
            assert b.is_symmetric and b.rows == a.cols
            assert nullspace(b) == kernel()
            assert _zero_set(b) == sum(1 << v for v in kernel().vectors())
        with rec.check("symmetric-representation-same-matroid", witness):
            labels = default_labels(a.cols)
            assert BinaryMatroid.from_matrix(sym(), labels) == (
                BinaryMatroid.from_matrix(a, labels)
            )

    for t in range(max(trials, 200)):
        n = rng.randrange(8)
        a = random_looped_simple_graph(rng, n).adj
        witness = Witness("symmetric {0}x{0} rows={1}".format, n, a.data)
        with rec.check("principal-minor-rank-criterion", witness):
            r = rank(a)
            columns = [a.column_mask(j) for j in range(n)]
            for s in itertools.combinations(range(n), r):
                independent = len(Subspace.span(n, [columns[j] for j in s]).basis) == r
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
    mg = _Lazy(m, g)
    kinds = ("plain", "loop", "loop_isolate")
    for v in g.labels:
        witness = Witness(graph_witness, g, f"vertex {v}")
        gv = _Lazy(g.local_complement, v)
        variants = _Lazy(lambda: {k: m(g.variant(v, k)) for k in kinds})
        their_variants = _Lazy(lambda: {k: m(gv().variant(v, k)) for k in kinds})
        m_gv, m_minus = _Lazy(lambda: m(gv())), _Lazy(lambda: m(g.minus(v)))
        deleted = _Lazy(lambda: mg().delete(v))
        triple = _Lazy(is_triple_coloop, g, v)  # the route under test, asked once

        with rec.check("contract-matches-complement-witness", witness):
            derivation = contract_via_lc(g, v)
            assert derivation.result == mg().contract(v)
            rebuilt = g
            for w in derivation.lc_sequence:
                rebuilt = rebuilt.local_complement(w)
            assert rebuilt == derivation.witness_graph

        with rec.check("delete-matches-subgraph-for-noncoloops", witness):
            if not mg().is_coloop(v):
                assert deleted() == m_minus()

        with rec.check("delete-matches-subgraph-off-triple-coloops", witness):
            if not triple():
                assert deleted() == m_minus()
            assert delete_via_subgraph(g, v) == deleted()

        with rec.check("deletion-ignores-local-complement", witness):
            assert deleted() == m_gv().delete(v)

        with rec.check("local-complement-matroid-relation", witness):
            here, there = mg(), m_gv()
            if not g.is_looped(v):
                assert there == here
            else:
                c_here = here.is_coloop(v)
                c_there = there.is_coloop(v)
                assert c_here or c_there, "coloop of neither"
                if c_here and c_there:
                    assert there == here
                    assert not triple()
                    assert not is_triple_coloop(gv(), v)
                else:
                    m1, m2 = (there, here) if c_here else (here, there)
                    assert m2 == m1.delete(v).direct_sum(single_coloop(v))
                    assert m2.nullity == m1.nullity - 1, "equal nullities"
                    assert triple() if c_here else is_triple_coloop(gv(), v)

        with rec.check("three-variants-two-agree", witness):
            t, mine = trio(g, v), variants()
            equal = [(a, b) for a, b in itertools.combinations(kinds, 2) if mine[a] == mine[b]]
            assert equal == [t.equal_pair], f"{t.equal_pair} vs {equal}"
            assert {t.odd_one, *t.equal_pair} == set(kinds), f"odd {t.odd_one}"
            shared, bigger = mine[t.equal_pair[0]].cycle_space, mine[t.odd_one].cycle_space
            assert t.nullity == shared.dim, f"nullity {t.nullity} vs {shared.dim}"
            assert bigger.dim == shared.dim + 1 and all(bigger.contains(x) for x in shared.basis)

        with rec.check("loop-isolate-splits-off-coloop", witness):
            iso, minus = variants()["loop_isolate"], m_minus()
            assert iso.is_coloop(v)
            assert iso == minus.direct_sum(single_coloop(v))
            gv_loop = their_variants()["loop"]
            assert iso.nullity == minus.nullity == gv_loop.contract(v).nullity == gv_loop.nullity

        with rec.check("coloop-of-graph-or-loop-complement", witness):
            toggled = m(g.loop_complement(v))
            assert mg().is_coloop(v) or toggled.is_coloop(v)

        with rec.check("triple-coloop-cycle-space-criterion", witness):
            plain, loop, iso = variants().values()
            assert iso.is_coloop(v)
            assert plain.is_coloop(v) or loop.is_coloop(v)
            criterion = plain.cycle_space == loop.cycle_space and all(
                iso.cycle_space.contains(x) for x in plain.cycle_space.basis
            ) and iso.cycle_space != plain.cycle_space
            assert criterion == triple()

        with rec.check("tripartition-case-details", witness):
            _check_tripartition_case(g, v, gv(), variants(), their_variants())

    with rec.check("rank-function-shape", Witness(graph_witness, g)):
        table, rank_of = {}, mg().rank_of
        for mask in range(1 << g.n):
            s = [g.labels[i] for i in range(g.n) if (mask >> i) & 1]
            table[mask] = rank_of(s)
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
        assert table[full] == mg().rank

    with rec.check("duality-and-minor-exchange", Witness(graph_witness, g)):
        whole = mg()
        assert whole.dual().dual() == whole
        for v in g.labels:
            assert whole.delete(v).dual() == whole.dual().contract(v)
            assert whole.contract(v).dual() == whole.dual().delete(v)

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


def _sets_witness(d: dm.SetSystem) -> str:
    members = ",".join("{" + " ".join(s) + "}" for s in d.member_sets())
    return f"[ground {' '.join(d.ground)}; family {members}]"


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
    """Oracle: the symmetric exchange axiom, tried on every pair of members.
    Per member x, the u with x^{u} outside F and, for each, the mask of the
    v with x^{u, v} in F depend on x alone; then each y in F needs, at every
    such u where it differs from x, one such v elsewhere in x ^ y."""
    fam, n = d.family, d.n
    for x in fam:
        rescue = {}
        for u in range(n):
            xu = x ^ (1 << u)
            if xu not in fam:
                rescue[u] = sum(1 << v for v in range(n) if (xu ^ (1 << v)) in fam)
        for y in fam:
            diff = x ^ y
            for u, rescuers in rescue.items():
                if (diff >> u) & 1 and not diff & rescuers & ~(1 << u):
                    return False
    return True


def _distance_of(layers: list[int], x: int) -> int:
    """d(X) read off the distance layers: the one c whose layer holds X, or
    a ValueError if not exactly one does."""
    (c,) = [c for c, layer in enumerate(layers) if (layer >> x) & 1]
    return c


def _delta_graph_checks(rec: Recorder, g: LoopedSimpleGraph) -> None:
    d, mg = _Lazy(dm.from_graph, g), _Lazy(adjacency_matroid, g)
    witness = Witness(graph_witness, g)
    induced = _Lazy(lambda: [g.induced_mask(mask) for mask in range(1 << g.n)])
    top, mg_bases = _Lazy(lambda: d().max_sys()), _Lazy(lambda: mg().bases())

    with rec.check("graph-encoding-is-normal-delta-matroid", witness):
        encoded = d()
        assert encoded.is_normal
        assert dm.is_delta_matroid(encoded)
        assert encoded.min_sys().family == frozenset({0})
        assert dm.to_graph(encoded) == g

    with rec.check("distance-equals-induced-nullity", witness):
        layers = distance_layers(d().bits, g.n)
        for x, h in enumerate(induced()):
            assert _distance_of(layers, x) == nullity(h.adj)

    with rec.check("max-members-are-matroid-bases", witness):
        assert dm.max_as_matroid(d()) == mg_bases()

    for v in g.labels:
        wv = Witness(graph_witness, g, f"vertex {v}")
        gv = _Lazy(g.local_complement, v)
        m_gv = _Lazy(lambda: adjacency_matroid(gv()))
        pivoted, dual_pivoted = _Lazy(lambda: d().pivot([v])), _Lazy(lambda: d().dual_pivot([v]))
        complemented = _Lazy(lambda: d().loop_complement([v]))
        deleted = _Lazy(lambda: d().delete([v]))
        pivoted_top = _Lazy(lambda: pivoted().max_sys())
        with rec.check("flips-match-graph-complements", wv):
            if g.is_looped(v):
                assert pivoted() == dm.from_graph(gv())
            else:
                assert dual_pivoted() == dm.from_graph(gv())
            assert complemented() == dm.from_graph(g.loop_complement(v))
            assert deleted() == dm.from_graph(g.minus(v))

        with rec.check("matrix-free-minor-routes-agree", wv):
            whole = mg()
            if not whole.is_coloop(v):
                assert whole.delete(v).bases() == dm.max_as_matroid(deleted())
            if g.is_looped(v) or g.neighbors(v):
                bases = whole.contract(v).bases()
                assert bases == dm.max_as_matroid(pivoted().delete([v]))
                if not g.is_looped(v):
                    w = g.neighbors(v)[0]
                    seq = d().dual_pivot([w]) if not g.is_looped(w) else dual_pivoted().dual_pivot([w])
                    assert dm.max_as_matroid(seq.pivot([v]).delete([v])) == bases
            if not g.is_looped(v):
                assert dm.max_as_matroid(dual_pivoted()) == m_gv().bases() == mg_bases()

        with rec.check("two-of-three-max-transforms-agree", wv):
            _check_two_of_three(d(), v, top(), pivoted_top(), complemented().max_sys())

        with rec.check("max-after-pinning", wv):
            _check_max_after_pinning(d(), v, pivoted_top)

        with rec.check("loop-isolate-via-max-filter", wv):
            if g.is_looped(v):
                m_iso, there = adjacency_matroid(g.variant(v, "loop_isolate")), m_gv()
                assert m_iso.nullity == there.nullity
                assert m_iso.bases() == {b for b in there.bases() if v in b}
                assert m_iso == there.contract(v).direct_sum(single_coloop(v))
                assert (m_iso == there) == (mg().nullity >= there.nullity)

    _delta_subset_checks(rec, g, d, induced)


def _delta_subset_checks(rec: Recorder, g: LoopedSimpleGraph, d: _Lazy, induced: _Lazy) -> None:
    """The induced-subgraph checks, over one matroid per vertex subset; d()
    is g's set system and induced()[mask] g's subgraph induced on mask."""
    witness = Witness(graph_witness, g)
    subs = _Lazy(lambda: [adjacency_matroid(h) for h in induced()])
    sub_bases = _Lazy(lambda: [sub.bases() for sub in subs()])
    families = _Lazy(lambda: [sum({1 << d().mask_of(b) for b in bs}) for bs in sub_bases()])
    collected = _Lazy(lambda: _union_below(families(), g.n))
    for mask in range(1 << g.n):
        labels = [g.labels[i] for i in set_bits(mask)]
        ws = Witness("{} subset {{{}}}".format, witness, Witness(" ".join, labels))
        inside = _Lazy(lambda: d().restrict(labels))
        with rec.check("bases-are-maximal-encoded-subsets", ws):
            part = inside()
            assert part.is_proper
            assert {part.labels_of(m) for m in part.max_sys().family} == sub_bases()[mask]
        with rec.check("independents-extend-to-encoded-sets", ws):
            sub = subs()[mask]
            assert inside().ground == sub.ground  # so masks name the same labels
            assert set_bits(_down_closure(inside())) == list(sub.independent_masks())
        with rec.check("restriction-collects-subgraph-bases", ws):
            restricted = dm.from_graph(induced()[mask])
            assert dm.SetSystem(d().ground, collected()[mask]).restrict(labels) == restricted


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


def _check_two_of_three(d: dm.SetSystem, v: str, *maxima: dm.SetSystem) -> None:
    """maxima are those of d, of d pivoted at v and of d loop complemented
    at v.  Two are one family; the third's members avoiding v, with v added
    (a shift by 2^v), are that family."""
    a, b, c = (top.bits for top in maxima)
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


def _check_max_after_pinning(d: dm.SetSystem, v: str, top: Callable[[], dm.SetSystem]) -> None:
    """top() is the maximum of d pivoted at v, read only when it is needed."""
    tilde = d.tilde_minus(v)
    if tilde.is_proper:
        left = tilde.loop_complement([v]).max_sys()
        right = top().tilde_contract(v)
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
        pivoted, dual_pivoted = _Lazy(d.pivot, x_labels), _Lazy(d.dual_pivot, x_labels)
        low, top, pivoted_v = _Lazy(d.min_sys), _Lazy(d.max_sys), _Lazy(d.pivot, [v])

        with rec.check("flip-involutions-and-commutation", witness):
            assert pivoted().pivot(x_labels) == d
            complemented = d.loop_complement(x_labels)
            assert complemented.loop_complement(x_labels) == d
            dual = dual_pivoted()
            assert dual.dual_pivot(x_labels) == d
            assert complemented == d.loop_complement_sequential(x_labels)
            assert dual == d.dual_pivot_sequential(x_labels)
            assert complemented.family == _loop_complement_by_counting(d, x_labels)
            assert dual.family == _dual_pivot_by_counting(d, x_labels)
            assert dual == complemented.pivot(x_labels).loop_complement(x_labels)
            if v != w:
                pivoted_w, dual_v = d.pivot([w]), d.dual_pivot([v])
                assert d.tilde_minus(v).pivot([w]) == pivoted_w.tilde_minus(v)
                assert dual_v.pivot([w]) == pivoted_w.dual_pivot([v])
                assert dual_v.dual_pivot([w]) == d.dual_pivot([w]).dual_pivot([v])

        with rec.check("pivot-distance-and-minmax-identities", witness):
            layers = distance_layers(d.bits, d.n)
            pivot_layers = distance_layers(pivoted().bits, d.n)
            assert _distance_of(layers, d.mask_of(x_labels)) == _distance_of(pivot_layers, 0)
            assert pivoted().is_normal == d.contains(x_labels)
            full = list(ground)
            flipped = d.pivot(full)
            assert low() == flipped.max_sys().pivot(full)
            assert top() == flipped.min_sys().pivot(full)
            assert top().family == dual_pivoted().max_sys().family

        with rec.check("min-commutes-with-deletion", witness):
            if not d.is_coloop(v):
                assert low().delete([v]) == d.delete([v]).min_sys()

        with rec.check("contract-commutes-with-max", witness):
            if not d.is_loop(v):
                left = top().pivot([v]).delete([v])
                right = pivoted_v().delete([v]).max_sys()
                assert left == right

        with rec.check("max-after-pinning-general", witness):
            _check_max_after_pinning(d, v, lambda: pivoted_v().max_sys())

    for t in range(max(trials, 200)):
        n = rng.randrange(1, min(rand_n, 5) + 1)
        g = random_looped_simple_graph(rng, n)
        x_labels = [v for v in g.labels if rng.random() < 0.5]
        encoded = _Lazy(dm.from_graph, g)
        pivoted = _Lazy(lambda: encoded().pivot(x_labels))
        v = g.labels[rng.randrange(n)]
        moves = [(rng.choice(["pivot", "dual_pivot", "loop_complement"]), g.labels[rng.randrange(n)])
                 for _ in range(rng.randrange(4))]
        witness = Witness(graph_witness, g, f"pivoted at {{{' '.join(x_labels)}}} element {v}")
        deleted = _Lazy(lambda: pivoted().delete([v]))

        with rec.check("pivots-preserve-exchange", witness):
            d = pivoted()
            assert dm.is_delta_matroid(d)
            assert dm.is_delta_matroid(deleted()) == deleted().is_proper
            dropped = dm.SetSystem(d.ground, d.bits ^ (1 << max(d.family)))
            for system in (d, deleted(), dropped):
                assert dm.satisfies_exchange_axiom(system) == _exchange_by_pairs(system)
                assert dm.is_delta_matroid(system) == _equicardinal_min_criterion(system)

        with rec.check("max-commutes-with-deletion-for-exchange-systems", witness):
            d_max = pivoted().max_sys()
            if not d_max.is_coloop(v):
                assert d_max.delete([v]) == deleted().max_sys()

        with rec.check("min-contract-commutes-for-exchange-systems", witness):
            d_min = pivoted().min_sys()
            if not d_min.is_loop(v):
                assert d_min.pivot([v]).delete([v]) == pivoted().pivot([v]).delete([v]).min_sys()

        with rec.check("flip-reachable-iff-contains-empty", witness):
            moved = encoded()
            for kind, u in moves:
                moved = getattr(moved, kind)([u])
            if moved.is_normal:
                decoded = dm.to_graph(moved)
                assert dm.from_graph(decoded).family == moved.family

        with rec.check("matroid-bases-satisfy-exchange", witness):
            m = adjacency_matroid(g)
            bases_sys = dm.SetSystem.from_sets(g.labels, m.bases())
            assert dm.is_delta_matroid(bases_sys)
            assert bases_sys.is_equicardinal
            dual_sys = bases_sys.pivot(list(g.labels))
            assert dual_sys.family == dm.SetSystem.from_sets(g.labels, m.dual().bases()).family


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
    (_, arr_a, dep_a), (_, arr_b, dep_b) = c.passages[v]
    t = c.transitions.rewired(((arr_a, arr_b), (dep_a, dep_b)))
    p = partition_from_transitions(c.f, t)
    return EulerSystem(p.f, p.transitions, p.circuits)


def _fourreg_partition_checks(
    rec: Recorder, f: HalfEdgeGraph, euler: _Lazy, partition: _Lazy, witness: str, compatible: bool
) -> None:
    """Checks of partition() against euler(), and, if compatible, through its compatible system."""
    touch = _Lazy(lambda: touch_graph(partition()))
    with rec.check("circuit-nullity-formula", witness):
        p = partition()
        assert nullity(relative_interlacement(euler(), p).adj) == p.size - f.component_count

    with rec.check("touch-graph-shape", witness):
        tch = touch()
        assert tch.n == partition().size
        assert len(tch.edges) == f.n
        assert tch.component_count() == f.component_count

    if not compatible:
        return
    system = _Lazy(lambda: compatible_euler_system(f, partition()))
    relative = _Lazy(lambda: relative_interlacement(system(), partition()))
    full_rank = _Lazy(lambda: rank(relative().adj))
    polygon = _Lazy(lambda: polygon_matroid(touch()))
    with rec.check("compatible-system-covers-all-vertices", witness):
        assert sorted(relative().labels) == sorted(f.graph.labels)

    with rec.check("touch-polygon-orthogonality", witness):
        rel, poly = relative(), polygon()
        # align the polygon cycle space into rel's vertex order by labels
        position = [rel.index(v) for v in poly.ground]
        moved = poly.cycle_space.permuted(position)
        assert orthogonal_complement(nullspace(rel.adj)) == moved

    with rec.check("touch-polygon-duality", witness):
        assert adjacency_matroid(relative()).dual() == polygon()

    with rec.check("rewire-matches-local-complement", witness):
        c, p, rel, poly = system(), partition(), relative(), polygon()
        poly_dual = _Lazy(poly.dual)
        for v in range(f.n):
            label = f.graph.labels[v]
            kind = transition_type(c, p, v)
            cv = _kappa(c, v)
            assert _kappa(cv, v).transitions == c.transitions
            if kind == "chi":
                assert all(transition_type(cv, p, w) != "phi" for w in range(f.n))
                assert relative_interlacement(cv, p) == rel.local_complement(label)
            else:
                phi = c.pairing_at(v)
                p_prime = partition_from_transitions(f, p.transitions.rewired(phi))
                assert relative_interlacement(cv, p_prime) == rel.local_complement(label)
                ci, cj = p.circuits_through(v)
                pi, pj = p_prime.circuits_through(v)
                if ci == cj and pi == pj:
                    assert polygon_matroid(touch_graph(p_prime)) == poly
                elif ci != cj:
                    moved = polygon_matroid(touch_graph(p_prime)).dual()
                    expect = poly_dual().delete(label).direct_sum(single_coloop(label))
                    assert moved == expect

    with rec.check("rank-detects-shared-circuits", witness):
        p, rel, base_rank = partition(), relative(), full_rank()
        for v in range(f.n):
            label = f.graph.labels[v]
            ci, cj = p.circuits_through(v)
            same_rank = base_rank == rank(rel.minus(label).adj)
            assert (ci != cj) == same_rank

    with rec.check("independent-sets-drop-circuit-counts", witness):
        if f.n <= 4:
            c, p, rel, poly, base_rank = system(), partition(), relative(), polygon(), full_rank()
            for size in range(1, f.n + 1):
                for combo in itertools.combinations(range(f.n), size):
                    labels = [f.graph.labels[v] for v in combo]
                    cond1 = poly.rank_of(labels) == len(labels)
                    kept = [x for x in rel.labels if x not in set(labels)]
                    cond2 = rank(rel.induced(kept).adj) == base_rank
                    sizes_ok = True
                    t = p.transitions
                    for i, v in enumerate(combo, start=1):
                        t = t.rewired(c.pairing_at(v))
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
        c = _Lazy(euler_system, f)
        witness = Witness(graph_witness, mg)
        with rec.check("euler-system-covers-components", witness):
            system = c()
            assert system.size == f.component_count
            seen = sorted(h >> 1 for circ in system.circuits for h in circ)
            assert seen == list(range(f.edge_count))
            base = interlacement(system)
            assert not any(map(base.is_looped, base.labels))
        for t in all_transition_systems(f):
            p = _Lazy(partition_from_transitions, f, t)
            witness = Witness(graph_witness, mg, Witness("pairing {}".format, t.pairing))
            _fourreg_partition_checks(rec, f, c, p, witness, mg.n <= 3)

    for i in range(max(trials, 20)):
        n = rng.randrange(1, 6) if i % 2 else rng.randrange(4, 9)
        mg = random_four_regular(rng, n, connected=bool(rng.randrange(2)))
        f = HalfEdgeGraph(mg)
        pairs = [pair for v in range(f.n) for pair in rng.choice(f.transitions_at(v))]
        t = TransitionSystem.from_pairs(f, pairs)
        c, p = _Lazy(euler_system, f), _Lazy(partition_from_transitions, f, t)
        witness = Witness(graph_witness, mg, Witness("pairing {}".format, t.pairing))
        _fourreg_partition_checks(rec, f, c, p, witness, True)

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
            touch, mg = touch_graph(r.partition), as_multigraph(g)
            assert (touch.n, touch.edges, touch.edge_labels) == (mg.n, mg.edges, mg.edge_labels)
    return rec.report()


# ---------------------------------------------------------------------------
# poly suite: evaluator agreement and the leading-term recursions.


def _induced_nullities(g: LoopedSimpleGraph) -> list[int]:
    """nu(G[S]) for every vertex mask S, the top y-exponent of the leading
    Tutte term (y-1)^nu of the induced subgraph's matroid: one matroid per subset."""
    return [
        lambda_leading(adjacency_matroid(g.induced_mask(mask))).terms[-1][1]
        for mask in range(1 << g.n)
    ]


def _poly_sum(*term_streams: Iterable[tuple[int, int, int]]) -> BivariatePolynomial:
    """The (i, j, c) terms of every stream added up, through the validating
    constructor: the polynomial sum of the oracles below."""
    coeffs: dict[tuple[int, int], int] = {}
    for i, j, c in itertools.chain(*term_streams):
        coeffs[i, j] = coeffs.get((i, j), 0) + c
    return BivariatePolynomial(tuple(sorted((i, j, c) for (i, j), c in coeffs.items() if c)))


def _poly_times(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    return _poly_sum((i + a, j + b, c * d) for i, j, c in p.terms for a, b, d in q.terms)


def _expanded(counts: Counter) -> BivariatePolynomial:
    """The sum of count (x-1)^a (y-1)^b over the (a, b) counts, each pair
    expanded once by the binomial form."""
    return _poly_sum((i, j, count * c) for (a, b), count in counts.items()
                     for i, j, c in shifted_power_term(a, b).terms)


def _q_from_lambda(nullities: list[int], bit: int = 0) -> BivariatePolynomial:
    """The interlace polynomial from the induced nullity table, term by term:
    (x-1)^(|S|-nu) (y-1)^nu summed over the vertex masks S holding bit
    (every S when bit is 0)."""
    return _expanded(
        Counter((m.bit_count() - nu, nu) for m, nu in enumerate(nullities) if m & bit == bit)
    )


def _tutte_by_rank(m: BinaryMatroid) -> BivariatePolynomial:
    """The Tutte polynomial by the rank generating expansion, S adding
    (x-1)^(r - r(S)) (y-1)^(|S| - r(S)), with r(S) from rank_of: one
    elimination per subset, no distance layer and no packed tally."""
    ranks = ((mask.bit_count(), m.rank_of(m.labels_of(mask))) for mask in range(1 << m.size))
    return _expanded(Counter((m.rank - r, size - r) for size, r in ranks))


def _check_tutte(m: BinaryMatroid, t: BivariatePolynomial, oracle: BivariatePolynomial) -> None:
    """Both Tutte evaluator checks: t = tutte_subset(m) against the recursion,
    the rank oracle and the point values."""
    assert t == tutte_recursive(m)
    assert t == oracle
    assert t.evaluate(2, 2) == 1 << m.size
    assert t.evaluate(2, 1) == len(m.independent_masks())
    assert t.evaluate(1, 1) == len(m.bases())


def _interlace_vertex_terms(
    g: LoopedSimpleGraph, nullities: list[int]
) -> dict[str, BivariatePolynomial]:
    """For each vertex v, the part of the subset expansion over the subsets holding v."""
    return {v: _q_from_lambda(nullities, 1 << i) for i, v in enumerate(g.labels)}


def _poly_graph_checks(rec: Recorder, g: LoopedSimpleGraph) -> None:
    witness = Witness(graph_witness, g)
    q = _Lazy(interlace_subset, g)
    nullities = _Lazy(_induced_nullities, g)  # one table for both induced-matroid oracles
    with rec.check("interlace-evaluators-agree", witness):
        poly = q()
        assert poly == interlace_recursive(g)
        assert poly == _q_from_lambda(nullities())
        assert poly.evaluate(2, 2) == 1 << g.n
        assert poly.evaluate(2, 1) == g.nonsingular_subsets.bit_count()

    m, leading = _Lazy(adjacency_matroid, g), _Lazy(lambda: lambda_leading(m()))
    t, by_rank = _Lazy(lambda: tutte_subset(m())), _Lazy(lambda: _tutte_by_rank(m()))
    with rec.check("tutte-evaluators-agree", witness):
        _check_tutte(m(), t(), by_rank())

    with rec.check("tutte-polynomial-swaps-under-duality", witness):
        dual = tutte_subset(m().dual())
        for p in (t(), by_rank()):  # T(M*; x, y) = T(M; y, x)
            assert _poly_sum((j, i, c) for i, j, c in p.terms) == dual

    with rec.check("leading-term-recursion", witness):
        mg, lam, step = m(), leading(), shifted_power_term(0, 1)
        for v in g.labels:
            lam_del = lambda_leading(mg.delete(v))
            lam_con = lambda_leading(mg.contract(v))
            if mg.is_loop(v):
                assert lam == _poly_times(step, lam_del) == _poly_times(step, lam_con)
            elif mg.is_coloop(v):
                assert lam == lam_del == lam_con
            else:
                assert lam == _poly_times(step, lam_del) == lam_con

    with rec.check("leading-term-complement-rules", witness):
        lam, step = leading(), shifted_power_term(0, 1)
        for v in g.labels:
            gv = g.local_complement(v)
            if not g.is_looped(v):
                assert lam == lambda_leading(adjacency_matroid(gv))
                if not g.neighbors(v):
                    assert lam == _poly_times(step, lambda_leading(adjacency_matroid(g.minus(v))))
            else:
                assert lam == lambda_leading(adjacency_matroid(gv.minus(v)))

    with rec.check("vertex-terms-make-the-difference", witness):
        poly, terms = q(), _interlace_vertex_terms(g, nullities())
        for v in g.labels:
            assert poly == _poly_sum(interlace_subset(g.minus(v)).terms, terms[v].terms)


def _poly_polygon_checks(rec: Recorder, trials: int, seed: int) -> None:
    rng = random.Random(seed + 5)
    for _ in range(max(trials // 4, 25)):
        mg = _random_multigraph(rng, rng.randrange(1, 5), rng.randrange(6))
        with rec.check("tutte-evaluators-agree-on-polygon-matroids", Witness(graph_witness, mg)):
            m = polygon_matroid(mg)
            _check_tutte(m, tutte_subset(m), _tutte_by_rank(m))


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
