"""The three benchmark workloads: seeded inputs, one op per input, and the
check of every op's output.

Inputs are made here with the stdlib `random` module and handed to the
program as text, edge lists and pairings, so a change to the program's own
generators cannot change what is measured.  An op is a list of segments
(name, callable); the runner times each segment with the reference kernel
around it.  `query` and `fourreg` ops are one segment, `verify` ops are one
segment per suite.  Inside a segment, `tr.span(name)` marks the calls into
the library's public functions so the traced run can attribute self time to
layers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from adjmatroid.adjacency_matroid import adjacency_matroid, contract_via_lc, tripartition_report
from adjmatroid.delta_matroid import from_graph
from adjmatroid.four_regular import (
    HalfEdgeGraph,
    TransitionSystem,
    compatible_euler_system,
    euler_system,
    partition_from_transitions,
    realize_touch_graph,
    relative_interlacement,
    touch_graph,
)
from adjmatroid.gf2 import nullity
from adjmatroid.graph import MultiGraph
from adjmatroid.graphtext import parse_graph, render_graph
from adjmatroid.polynomials import (
    interlace_recursive,
    interlace_subset,
    tutte_recursive,
    tutte_subset,
)
from adjmatroid.verify import delta_suite, fourreg_suite, matroid_suite, poly_suite

Segment = tuple[str, Callable[[Any], Any]]


def gf2_rank(rows: list[int]) -> int:
    """Rank of GF(2) row bitmasks; the checks' own elimination."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            if low not in pivots:
                pivots[low] = r
                break
            r ^= pivots[low]
    return len(pivots)


# ---------------------------------------------------------------------------
# query: everything a user asks of one looped simple graph.


@dataclass(frozen=True)
class QueryInput:
    n: int
    rows: tuple[int, ...]  # symmetric adjacency bitmasks, diagonal = loops
    text: str
    contract_at: str
    flip: tuple[str, ...]


def make_query_inputs(rng: random.Random, count: int, n: int) -> list[QueryInput]:
    labels = [f"v{i}" for i in range(n)]
    out = []
    for _ in range(count):
        rows = [0] * n
        lines = ["vertices " + " ".join(labels)]
        for i in range(n):
            if rng.random() < 0.5:
                rows[i] |= 1 << i
                lines.append(f"loop {labels[i]}")
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                    lines.append(f"edge {labels[i]} {labels[j]}")
        flip = tuple(v for v in labels if rng.random() < 0.5) or (labels[0],)
        out.append(
            QueryInput(n, tuple(rows), "\n".join(lines) + "\n", rng.choice(labels), flip)
        )
    return out


def query_op(inp: QueryInput, tr) -> dict[str, Any]:
    with tr.span("graphtext.parse_graph"):
        g = parse_graph(inp.text)
    with tr.span("adjacency_matroid.adjacency_matroid"):
        m = adjacency_matroid(g)
    with tr.span("binary_matroid.circuits"):
        circuits = m.circuits()
    with tr.span("adjacency_matroid.tripartition_report"):
        report = tripartition_report(g)
    with tr.span("adjacency_matroid.contract_via_lc"):
        minor = contract_via_lc(g, inp.contract_at)
    complements = []
    for v in g.labels:
        with tr.span("graph.local_complement"):
            complements.append(g.local_complement(v))
    with tr.span("polynomials.interlace_subset"):
        q = interlace_subset(g)
    with tr.span("polynomials.tutte_subset"):
        t = tutte_subset(m)
    with tr.span("delta_matroid.from_graph"):
        d = from_graph(g)
    with tr.span("delta_matroid.loop_complement"):
        lc = d.loop_complement(inp.flip)
    with tr.span("delta_matroid.dual_pivot"):
        dp = d.dual_pivot(inp.flip)
    with tr.span("delta_matroid.pivot"):
        pv = d.pivot(inp.flip)
    with tr.span("graphtext.render_graph"):
        text = render_graph(g)
    return {
        "g": g, "m": m, "circuits": circuits, "report": report, "minor": minor,
        "complements": complements, "interlace": q, "tutte": t, "delta": d,
        "loop_complement": lc, "dual_pivot": dp, "pivot": pv, "text": text,
    }


def query_segments(inp: QueryInput) -> list[Segment]:
    return [("op", lambda tr: query_op(inp, tr))]


def check_query(inp: QueryInput, outs: list[dict[str, Any]]) -> list[str]:
    (r,) = outs
    bad = []
    g, m, d = r["g"], r["m"], r["delta"]
    labels = tuple(f"v{i}" for i in range(inp.n))
    if g.labels != labels or tuple(g.adj.data) != inp.rows:
        bad.append("parse_graph does not match the generated graph")
    if parse_graph(r["text"]) != g:
        bad.append("parse_graph(render_graph(g)) != g")
    if r["interlace"] != interlace_recursive(g):
        bad.append("interlace_subset != interlace_recursive")
    if r["tutte"] != tutte_recursive(m):
        bad.append("tutte_subset != tutte_recursive")
    if r["loop_complement"] != d.loop_complement_sequential(inp.flip):
        bad.append("loop_complement != loop_complement_sequential")
    if r["dual_pivot"] != d.dual_pivot_sequential(inp.flip):
        bad.append("dual_pivot != dual_pivot_sequential")
    flip_mask = sum(1 << labels.index(v) for v in inp.flip)
    if r["pivot"].family != frozenset(x ^ flip_mask for x in d.family):
        bad.append("pivot is not the symmetric difference with the flip set")
    # nonsingular subsets are the nu = 0 terms: q(2, 1) counts them
    nonsingular = sum(
        1 for s in range(1 << inp.n) if gf2_rank(_principal(inp.rows, s)) == bin(s).count("1")
    )
    if not len(d.family) == nonsingular == r["interlace"].evaluate(2, 1):
        bad.append("from_graph family size disagrees with the nonsingular subset count")
    nullity_a = inp.n - gf2_rank(list(inp.rows))
    if m.nullity != nullity_a:
        bad.append("adjacency matroid nullity != nullity of the adjacency matrix")
    circuits = [sum(1 << labels.index(v) for v in c) for c in r["circuits"]]
    for c in circuits:
        col_sum = 0
        for i in range(inp.n):
            if (c >> i) & 1:
                col_sum ^= inp.rows[i]
        if not c or col_sum:
            bad.append("a circuit is not a dependent column set")
            break
    if any(a != b and a & b == a for a in circuits for b in circuits):
        bad.append("one circuit contains another")
    if bool(circuits) != bool(nullity_a):
        bad.append("circuits exist iff the nullity is positive")
    if set(r["report"]) != set(labels) or any(
        c.tag not in ("case1", "case2", "case3") for c in r["report"].values()
    ):
        bad.append("tripartition_report does not tag every vertex")
    if r["minor"].result != m.contract(inp.contract_at):
        bad.append("contract_via_lc result != matroid contraction")
    for i, h in enumerate(r["complements"]):
        nbrs = inp.rows[i] & ~(1 << i)
        expected = tuple(
            row ^ nbrs if (nbrs >> j) & 1 else row for j, row in enumerate(inp.rows)
        )
        if tuple(h.adj.data) != expected:
            bad.append(f"local_complement at {labels[i]} is wrong")
            break
    return bad


def _principal(rows: tuple[int, ...], mask: int) -> list[int]:
    idx = [i for i in range(len(rows)) if (mask >> i) & 1]
    out = []
    for i in idx:
        packed = 0
        for k, j in enumerate(idx):
            if (rows[i] >> j) & 1:
                packed |= 1 << k
        out.append(packed)
    return out


def query_counts(inp: QueryInput, outs: list[dict[str, Any]]) -> dict[str, float]:
    (r,) = outs
    size = len(r["delta"].family)
    return {
        "polynomials.subsets": 2 * (1 << inp.n),
        "delta_matroid.family_size": size,
        "delta_matroid.nonsingular_ratio": size / (1 << inp.n),
    }


# ---------------------------------------------------------------------------
# fourreg: the circuit-partition pipeline on one large 4-regular graph.


@dataclass(frozen=True)
class FourRegInput:
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    pairing: tuple[int, ...]  # transition system over half-edges 2i, 2i+1


def make_fourreg_inputs(rng: random.Random, count: int, n: int) -> list[FourRegInput]:
    labels = tuple(f"v{i}" for i in range(n))
    out = []
    while len(out) < count:
        stubs = [v for v in range(n) for _ in range(4)]
        rng.shuffle(stubs)
        edges = tuple((stubs[2 * i], stubs[2 * i + 1]) for i in range(2 * n))
        if _component_count(n, edges) != 1:
            continue
        halves: list[list[int]] = [[] for _ in range(n)]
        for i, (a, b) in enumerate(edges):
            halves[a].append(2 * i)
            halves[b].append(2 * i + 1)
        pairing = [-1] * (4 * n)
        for a, b, c, d in halves:
            for x, y in rng.choice((((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))):
                pairing[x] = y
                pairing[y] = x
        out.append(FourRegInput(labels, edges, tuple(pairing)))
    return out


def _component_count(n: int, edges) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(i) for i in range(n)})


def fourreg_op(inp: FourRegInput, tr) -> dict[str, Any]:
    mg = MultiGraph(inp.labels, inp.edges)
    with tr.span("four_regular.half_edge_graph"):
        f = HalfEdgeGraph(mg)
    with tr.span("four_regular.euler_system"):
        c = euler_system(f)
    with tr.span("four_regular.partition_from_transitions"):
        p = partition_from_transitions(f, TransitionSystem(inp.pairing))
    with tr.span("four_regular.relative_interlacement"):
        rel = relative_interlacement(c, p)
    with tr.span("gf2.nullity"):
        nu = nullity(rel.adj)
    with tr.span("four_regular.compatible_euler_system"):
        compatible = compatible_euler_system(f, p)
    with tr.span("four_regular.touch_graph"):
        touch = touch_graph(p)
    with tr.span("four_regular.realize_touch_graph"):
        realized = realize_touch_graph(touch)
    return {
        "euler": c, "partition": p, "relative": rel, "nullity": nu,
        "compatible": compatible, "touch": touch, "realized": realized,
    }


def fourreg_segments(inp: FourRegInput) -> list[Segment]:
    return [("op", lambda tr: fourreg_op(inp, tr))]


def _trails(pairing: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Closed trails of a transition system, each as its departing halves."""
    seen = [False] * len(pairing)
    out = []
    for h0 in range(len(pairing)):
        if seen[h0]:
            continue
        trail, h = [], h0
        while True:
            trail.append(h)
            seen[h] = seen[h ^ 1] = True
            h = pairing[h ^ 1]
            if h == h0:
                break
        out.append(tuple(trail))
    return out


def _is_euler_system(pairing: tuple[int, ...], inp: FourRegInput) -> bool:
    ends = [inp.edges[h >> 1][h & 1] for h in range(len(pairing))]
    valid = all(
        pairing[h] != h and pairing[pairing[h]] == h and ends[pairing[h]] == ends[h]
        for h in range(len(pairing))
    )
    return valid and len(_trails(pairing)) == 1


def check_fourreg(inp: FourRegInput, outs: list[dict[str, Any]]) -> list[str]:
    (r,) = outs
    bad = []
    n = len(inp.labels)
    size = len(_trails(inp.pairing))
    p, rel = r["partition"], r["relative"]
    if p.size != size:
        bad.append(f"partition has {p.size} circuits, the pairing has {size}")
    # circuit-nullity formula: |P| - c(F) = nu(relative interlacement), c(F) = 1
    own_nullity = rel.n - gf2_rank(list(rel.adj.data))
    if not r["nullity"] == own_nullity == size - 1:
        bad.append(
            f"|P| - c(F) = {size - 1}, nullity {r['nullity']}, recomputed {own_nullity}"
        )
    if not _is_euler_system(r["euler"].transitions.pairing, inp):
        bad.append("euler_system is not one closed trail through every edge")
    compat = r["compatible"].transitions.pairing
    if not _is_euler_system(compat, inp) or any(
        compat[h] == inp.pairing[h] for h in range(len(compat))
    ):
        bad.append("compatible_euler_system agrees with the partition somewhere")
    touch = r["touch"]
    if touch.n != size or len(touch.edges) != n or touch.edge_labels != inp.labels:
        bad.append("touch_graph has the wrong shape")
    bad += _check_realization(touch, r["realized"])
    return bad


def _check_realization(touch: MultiGraph, realized) -> list[str]:
    """The realized partition's touch-graph equals `touch` up to renaming
    circuits: matched through the edge labels, which name F's vertices."""
    again = touch_graph(realized.partition)
    if again.n != touch.n or sorted(again.edge_labels) != sorted(touch.edge_labels):
        return ["realize_touch_graph changed the touch-graph's size"]
    ends = {lab: e for lab, e in zip(again.edge_labels, again.edges)}
    rename: dict[int, int] = {}
    for lab, (a, b) in zip(touch.edge_labels, touch.edges):
        x, y = ends[lab]
        for pair in ((x, y), (y, x)):
            trial = dict(rename)
            if all(trial.setdefault(s, t) == t for s, t in zip((a, b), pair)):
                rename = trial
                break
        else:
            return [f"realize_touch_graph changed the circuits at {lab}"]
    if len(set(rename.values())) != len(rename):
        return ["realize_touch_graph merged two circuits"]
    return []


def fourreg_counts(inp: FourRegInput, outs: list[dict[str, Any]]) -> dict[str, float]:
    (r,) = outs
    return {"four_regular.circuits": r["partition"].size, "gf2.nullity": r["nullity"]}


# ---------------------------------------------------------------------------
# verify: one pass of the four property suites at a fixed small setting.

VERIFY_SETTINGS = {"max_n": 2, "trials": 5, "seed": 0}
SUITES = (
    ("verify.matroid_suite", matroid_suite),
    ("verify.delta_suite", delta_suite),
    ("verify.fourreg_suite", fourreg_suite),
    ("verify.poly_suite", poly_suite),
)


@dataclass(frozen=True)
class VerifyInput:
    max_n: int
    trials: int
    seed: int


def make_verify_inputs(rng: random.Random, count: int, size: int) -> list[VerifyInput]:
    # The suites draw their own instances from a fixed seed, so the check
    # can compare instance counts against the table below.
    return [VerifyInput(**VERIFY_SETTINGS) for _ in range(count)]


def verify_segments(inp: VerifyInput) -> list[Segment]:
    def call(suite):
        return lambda tr: suite(max_n=inp.max_n, trials=inp.trials, seed=inp.seed)

    return [(name, call(suite)) for name, suite in SUITES]


def check_verify(inp: VerifyInput, outs: list[list[Any]]) -> list[str]:
    results = [r for out in outs for r in out]
    bad = [f"{r.name}: {r.failures[0]}" for r in results if r.failures]
    counts = {r.name: r.instances for r in results}
    if counts != EXPECTED_VERIFY_COUNTS:
        missing = sorted(set(EXPECTED_VERIFY_COUNTS) - set(counts))
        changed = sorted(
            k for k in counts if counts[k] != EXPECTED_VERIFY_COUNTS.get(k)
        )
        bad.append(f"instance counts differ: missing {missing}, changed {changed}")
    return bad


def verify_counts(inp: VerifyInput, outs: list[list[Any]]) -> dict[str, float]:
    results = [r for out in outs for r in out]
    return {
        "verify.checks": sum(r.instances for r in results),
        "verify.check_names": len({r.name for r in results}),
    }


# Instance counts of every named check at VERIFY_SETTINGS, as the library
# reported them when this benchmark was written.
EXPECTED_VERIFY_COUNTS: dict[str, int] = {
    "subspace-matroid-round-trip": 8,
    "circuit-axioms": 8,
    "cycle-vectors-split-into-disjoint-circuits": 8,
    "rank-plus-nullity": 200,
    "nullspace-annihilates": 200,
    "orthogonal-complement-involution": 200,
    "symmetric-representation-of-nullspace": 200,
    "symmetric-representation-same-matroid": 200,
    "principal-minor-rank-criterion": 200,
    "polygon-circuits-are-graph-cycles": 104,
    "rank-function-shape": 16,
    "duality-and-minor-exchange": 16,
    "graph-reconstruction-from-nullities": 16,
    "local-complement-case-description": 16,
    "contract-matches-complement-witness": 43,
    "delete-matches-subgraph-for-noncoloops": 43,
    "delete-matches-subgraph-off-triple-coloops": 43,
    "deletion-ignores-local-complement": 43,
    "local-complement-matroid-relation": 43,
    "three-variants-two-agree": 43,
    "loop-isolate-splits-off-coloop": 43,
    "coloop-of-graph-or-loop-complement": 43,
    "triple-coloop-cycle-space-criterion": 43,
    "tripartition-case-details": 43,
    "graph-encoding-is-normal-delta-matroid": 36,
    "distance-equals-induced-nullity": 36,
    "max-members-are-matroid-bases": 36,
    "bases-are-maximal-encoded-subsets": 437,
    "independents-extend-to-encoded-sets": 437,
    "restriction-collects-subgraph-bases": 437,
    "flips-match-graph-complements": 118,
    "matrix-free-minor-routes-agree": 118,
    "two-of-three-max-transforms-agree": 118,
    "max-after-pinning": 118,
    "loop-isolate-via-max-filter": 118,
    "max-deletion-counterexample": 1,
    "dual-pivot-can-break-exchange": 1,
    "flip-involutions-and-commutation": 156,
    "pivot-distance-and-minmax-identities": 156,
    "min-commutes-with-deletion": 156,
    "contract-commutes-with-max": 156,
    "max-after-pinning-general": 156,
    "pivots-preserve-exchange": 200,
    "max-commutes-with-deletion-for-exchange-systems": 200,
    "min-contract-commutes-for-exchange-systems": 200,
    "flip-reachable-iff-contains-empty": 200,
    "matroid-bases-satisfy-exchange": 200,
    "euler-system-covers-components": 3,
    "circuit-nullity-formula": 41,
    "touch-graph-shape": 41,
    "compatible-system-covers-all-vertices": 41,
    "touch-polygon-orthogonality": 41,
    "touch-polygon-duality": 41,
    "rewire-matches-local-complement": 41,
    "rank-detects-shared-circuits": 41,
    "independent-sets-drop-circuit-counts": 41,
    "realization-reproduces-touch-graph": 50,
    "interlace-evaluators-agree": 16,
    "tutte-evaluators-agree": 16,
    "tutte-polynomial-swaps-under-duality": 16,
    "leading-term-recursion": 16,
    "leading-term-complement-rules": 16,
    "vertex-terms-make-the-difference": 16,
    "tutte-evaluators-agree-on-polygon-matroids": 25,
}


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[random.Random, int, int], list[Any]]
    segments: Callable[[Any], list[Segment]]
    check: Callable[[Any, list[Any]], list[str]]
    counts: Callable[[Any, list[Any]], dict[str, float]]


WORKLOADS = {
    "query": Workload(make_query_inputs, query_segments, check_query, query_counts),
    "fourreg": Workload(make_fourreg_inputs, fourreg_segments, check_fourreg, fourreg_counts),
    "verify": Workload(make_verify_inputs, verify_segments, check_verify, verify_counts),
}
