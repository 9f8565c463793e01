"""The `verify` runner's contract: every check name and instance count, and
the number of matroids the shared oracle tables build."""

from adjmatroid import verify
from adjmatroid import delta_matroid as dm
from adjmatroid.binary_matroid import BinaryMatroid
from adjmatroid.graph import LoopedSimpleGraph
from adjmatroid.polynomials import interlace_subset, interlace_vertex_terms, q_from_lambda

# Instance counts of every check at max_n=2, trials=5, seed=0.  Sharing work
# between checks must never change them.
EXPECTED_COUNTS = {
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

C5_LOOPED = LoopedSimpleGraph.build(
    "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c")], loops="bd"
)


def count_matroid_builds(monkeypatch) -> list[None]:
    """Patch BinaryMatroid.from_matrix to log one entry per call."""
    calls: list[None] = []
    build = BinaryMatroid.from_matrix

    def counted(cls, a, labels):
        calls.append(None)
        return build(a, labels)

    monkeypatch.setattr(BinaryMatroid, "from_matrix", classmethod(counted))
    return calls


def test_small_run_keeps_every_check_and_instance():
    results = verify.run_suites("all", max_n=2, trials=5, seed=0)
    assert [r.failures for r in results if r.failures] == []
    counts = {r.name: r.instances for r in results}
    assert len(counts) == len(results) == 64
    assert counts == EXPECTED_COUNTS
    assert sum(counts.values()) == 6115


def test_interlace_oracles_build_one_table_each(monkeypatch):
    g = C5_LOOPED
    calls = count_matroid_builds(monkeypatch)
    q = q_from_lambda(g)
    terms = interlace_vertex_terms(g)
    assert len(calls) == 2 * (1 << g.n)  # one matroid per subset in each oracle
    assert q == interlace_subset(g)
    assert set(terms) == set(g.labels)


def test_delta_subset_checks_build_one_matroid_per_subset(monkeypatch):
    g = C5_LOOPED
    d = dm.from_graph(g)
    rec = verify.Recorder()
    calls = count_matroid_builds(monkeypatch)
    verify._delta_subset_checks(rec, g, d)
    assert len(calls) == 1 << g.n
    assert all(r.ok and r.instances == 1 << g.n for r in rec.report())
