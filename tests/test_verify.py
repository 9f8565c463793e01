"""The `verify` runner's contract: every check name and instance count, the
number of matroids the shared oracle tables build, when witnesses render,
and the set loops that the word-form oracles replaced, kept as references."""

import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

from adjmatroid import polynomials, verify
from adjmatroid import delta_matroid as dm
from adjmatroid.adjacency_matroid import TrioResult, adjacency_matroid, trio
from adjmatroid.binary_matroid import BinaryMatroid
from adjmatroid.four_regular import (
    HalfEdgeGraph,
    all_transition_systems,
    small_four_regular_corpus,
)
from adjmatroid.gf2 import BitMatrix, nullspace, set_bits, symmetrize_nullspace
from adjmatroid.graph import (
    LoopedSimpleGraph,
    MultiGraph,
    all_looped_simple_graphs,
    default_labels,
    random_looped_simple_graph,
)
from adjmatroid.graphtext import parse_graph, render_graph
from adjmatroid.polynomials import interlace_subset

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

KINDS = ("plain", "loop", "loop_isolate")

C5_LOOPED = LoopedSimpleGraph.build(
    "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c")], loops="bd"
)


def induced_subgraphs(g: LoopedSimpleGraph) -> list[LoopedSimpleGraph]:
    """g's subgraph induced on each vertex mask, indexed by the mask."""
    return [g.induced_mask(mask) for mask in range(1 << g.n)]


def count_matroid_builds(monkeypatch) -> list[None]:
    """Patch BinaryMatroid.from_matrix, and adjacency_matroid in each module
    that binds it, to log one entry per matroid built from a matrix."""
    calls: list[None] = []
    build = BinaryMatroid.from_matrix

    def counted(cls, a, labels):
        calls.append(None)
        return build(a, labels)

    def counted_graph(g):
        calls.append(None)
        return adjacency_matroid(g)

    monkeypatch.setattr(BinaryMatroid, "from_matrix", classmethod(counted))
    for module in (verify, sys.modules[adjacency_matroid.__module__]):
        monkeypatch.setattr(module, "adjacency_matroid", counted_graph)
    return calls


def test_small_run_keeps_every_check_and_instance():
    results = verify.run_suites("all", max_n=2, trials=5, seed=0)
    assert [r.failures for r in results if r.failures] == []
    counts = {r.name: r.instances for r in results}
    assert len(counts) == len(results) == 64
    assert counts == EXPECTED_COUNTS
    assert list(counts) == list(EXPECTED_COUNTS)  # the order verify prints
    assert sum(counts.values()) == 6115


def test_the_default_report_pin_is_one_ok_line_per_check_in_order():
    """tests/verify_default.txt is the stdout of default `adjmatroid verify`,
    which CI diffs against a fresh run: an ok line per check, in the order
    verify prints."""
    lines = Path(__file__).with_name("verify_default.txt").read_text().splitlines()
    parsed = [re.fullmatch(r"ok   (\S+) instances=(\d+)", line) for line in lines]
    assert all(parsed), [line for line, m in zip(lines, parsed) if not m]
    assert [m[1] for m in parsed] == list(EXPECTED_COUNTS)
    assert sum(int(m[2]) for m in parsed) == 163782


def test_the_json_report_pin_matches_the_text_pin():
    """tests/verify_default.json is the stdout of default `adjmatroid verify
    --format json`, which CI diffs against a fresh run: the text pin's checks
    and instance counts, in order, with no failures."""
    text = Path(__file__).with_name("verify_default.txt").read_text().splitlines()
    payload = json.loads(Path(__file__).with_name("verify_default.json").read_text())
    assert [f"ok   {r['name']} instances={r['instances']}" for r in payload] == text
    assert [r["failures"] for r in payload] == [[]] * len(text)


def test_a_message_less_assert_fails_with_its_source_line(monkeypatch):
    """A failing assert with no message prints the statement that failed
    after the witness, so no FAIL line ends in an empty reason."""
    decode = dm.to_graph

    def broken(d):
        g = decode(d)
        return g.loop_complement(g.labels[0]) if g.n else g

    monkeypatch.setattr(dm, "to_graph", broken)
    results = verify.run_suites("delta", max_n=2, trials=5, seed=0)
    assert [(r.name, r.instances) for r in results] == [
        (name, EXPECTED_COUNTS[name]) for name in SUITE_CHECKS["delta"]
    ]
    failed = failing_checks(results)
    assert failed["graph-encoding-is-normal-delta-matroid"][0] == (
        "[vertices v0]: assert dm.to_graph(encoded) == g"
    )
    assert {name: {f.rpartition(": assert ")[2] for f in fs} for name, fs in failed.items()} == {
        "graph-encoding-is-normal-delta-matroid": {"dm.to_graph(encoded) == g"},
        "flip-reachable-iff-contains-empty": {"dm.from_graph(decoded).family == moved.family"},
    }


def test_both_tutte_checks_see_a_fault_in_the_shared_conversion(monkeypatch):
    """tutte_subset and tutte_recursive both end in polynomials._from_tally;
    a conversion that adds one to every tally still fails both Tutte checks,
    as their oracle _tutte_by_rank reads no tally."""
    shipped = polynomials._from_tally
    monkeypatch.setattr(polynomials, "_from_tally", lambda tally, n: shipped(tally + 1, n))
    results = {r.name: r for r in verify.poly_suite(max_n=2, trials=5, seed=0)}
    for name in ("tutte-evaluators-agree", "tutte-evaluators-agree-on-polygon-matroids"):
        assert results[name].failures, name


def test_the_duality_check_sees_a_swap_symmetric_fault(monkeypatch):
    """A tutte_subset that adds xy to every result still swaps under duality,
    since xy is its own swap; the check's rank oracle, swapped, does not."""
    shipped = verify.tutte_subset
    monkeypatch.setattr(verify, "tutte_subset", lambda m: verify._poly_sum(shipped(m).terms, [(1, 1, 1)]))
    results = {r.name: r for r in verify.poly_suite(max_n=2, trials=5, seed=0)}
    for name in ("tutte-polynomial-swaps-under-duality", "tutte-evaluators-agree"):
        assert results[name].failures, name


def test_the_matroid_suite_builds_only_its_oracle_matroids(monkeypatch):
    """trio and subgraph deletion build no matroids of their own, so every
    build is one that the checks compare."""
    calls = count_matroid_builds(monkeypatch)
    verify.matroid_suite(max_n=2, trials=5, seed=0)
    assert len(calls) == 786


def test_interlace_oracles_build_one_table_each(monkeypatch):
    g = C5_LOOPED
    calls = count_matroid_builds(monkeypatch)
    nullities = verify._induced_nullities(g)
    q = verify._q_from_lambda(nullities)
    terms = verify._interlace_vertex_terms(g, nullities)
    assert len(calls) == 1 << g.n  # one matroid per subset, read by both oracles
    assert q == interlace_subset(g)
    assert set(terms) == set(g.labels)
    for v in g.labels:  # q(G) = q(G - v) + the terms over the subsets holding v
        assert verify._poly_sum(interlace_subset(g.minus(v)).terms, terms[v].terms) == q
    calls.clear()
    rec = verify.Recorder()
    verify._poly_graph_checks(rec, g)
    # the table, g's own matroid, and one per vertex for the complement rules
    assert len(calls) == (1 << g.n) + 1 + g.n
    assert all(r.ok for r in rec.report())


def test_delta_subset_checks_build_one_matroid_per_subset(monkeypatch):
    g = C5_LOOPED
    d, induced = verify._Lazy(dm.from_graph, g), verify._Lazy(induced_subgraphs, g)
    rec = verify.Recorder()
    calls = count_matroid_builds(monkeypatch)
    verify._delta_subset_checks(rec, g, d, induced)
    assert len(calls) == 1 << g.n
    assert all(r.ok and r.instances == 1 << g.n for r in rec.report())


def test_delta_graph_checks_build_each_induced_subgraph_once(monkeypatch):
    g = C5_LOOPED
    build = LoopedSimpleGraph.induced_mask
    calls = []
    monkeypatch.setattr(
        LoopedSimpleGraph, "induced_mask", lambda h, mask: calls.append(mask) or build(h, mask)
    )
    rec = verify.Recorder()
    verify._delta_graph_checks(rec, g)
    assert sorted(calls) == list(range(1 << g.n))
    assert all(r.ok for r in rec.report())


def test_distance_checks_read_the_shipped_layers(monkeypatch):
    """A distance_layers that drops its last layer fails the check that reads
    it, as recorded failures: an X in no layer never escapes the check."""
    shipped = verify.distance_layers
    monkeypatch.setattr(verify, "distance_layers", lambda bits, n: shipped(bits, n)[:-1])
    results = {r.name: r for r in verify.delta_suite(max_n=2, trials=5, seed=0)}
    check = results["distance-equals-induced-nullity"]
    assert check.instances == EXPECTED_COUNTS[check.name]
    assert check.failures and all("expected 1, got 0" in f for f in check.failures)


# ---------------------------------------------------------------------------
# The recorder renders a witness only for a failure it keeps.


class CountingWitness:
    """A witness that counts its renders."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.renders = 0

    def __str__(self) -> str:
        self.renders += 1
        return self.text


def unrenderable() -> str:
    raise AssertionError("a passing check rendered its witness")


def test_passing_checks_never_render_their_witness():
    rec = verify.Recorder()
    w = CountingWitness("w")
    for _ in range(3):
        with rec.check("clean", w):
            pass
    with rec.check("lazy", verify.Witness(unrenderable)):
        pass
    assert w.renders == 0
    assert [(r.name, r.instances, r.failures) for r in rec.report()] == [
        ("clean", 3, []),
        ("lazy", 1, []),
    ]


def test_kept_failures_render_once_and_the_rest_never():
    rec = verify.Recorder()
    witnesses = [CountingWitness(f"w{i}") for i in range(verify.MAX_FAILURES_KEPT + 3)]
    for i, w in enumerate(witnesses):
        with rec.check("failing", w):
            raise AssertionError(f"case {i}")
    kept = verify.MAX_FAILURES_KEPT
    assert [w.renders for w in witnesses] == [1] * kept + [0] * 3
    (failing,) = rec.report()
    assert failing.instances == kept + 3
    assert failing.failures == [f"w{i}: case {i}" for i in range(kept)]
    assert all(type(f) is str for f in failing.failures)


def test_a_check_result_is_built_once_per_name(monkeypatch):
    built = []
    result = verify.CheckResult

    def counted(name):
        built.append(name)
        return result(name)

    monkeypatch.setattr(verify, "CheckResult", counted)
    rec = verify.Recorder()
    for i in range(4):
        with rec.check("a", "w"):
            pass
        with rec.check("b", "w"):
            assert i % 2
    assert built == ["a", "b"]
    assert [(r.name, r.instances, len(r.failures)) for r in rec.report()] == [
        ("a", 4, 0),
        ("b", 4, 2),
    ]


def test_a_clean_run_renders_no_graph(monkeypatch):
    renders = []
    render = verify.render_graph

    def counted(g):
        renders.append(g)
        return render(g)

    monkeypatch.setattr(verify, "render_graph", counted)
    results = verify.run_suites("all", max_n=2, trials=5, seed=0)
    assert all(r.ok for r in results)
    assert sum(r.instances for r in results) == 6115
    assert renders == []


def test_a_clean_matroid_run_checks_no_str_witness(monkeypatch):
    """The kernel checks hand the recorder lazy witnesses, like every other
    check: a clean run formats none."""
    witnesses = []
    check = verify.Recorder.check
    monkeypatch.setattr(
        verify.Recorder, "check", lambda rec, name, w: witnesses.append(w) or check(rec, name, w)
    )
    results = verify.matroid_suite(max_n=2, trials=5, seed=0)
    assert all(r.ok for r in results)
    assert len(witnesses) == sum(r.instances for r in results)
    assert [w for w in witnesses if isinstance(w, str)] == []


def force_every_check_to_fail(monkeypatch) -> None:
    """Record a check that passes as a failure with the message "forced"."""
    exit_check = verify.Recorder.__exit__
    monkeypatch.setattr(
        verify.Recorder, "__exit__",
        lambda self, kind, exc, tb: exit_check(self, kind or AssertionError, exc or "forced", tb),
    )


def test_kernel_failures_print_the_eager_witness_text(monkeypatch):
    """Every kernel check forced to fail keeps its first witnesses, rendered
    as the f-strings the lazy witnesses replaced."""
    force_every_check_to_fail(monkeypatch)
    rec = verify.Recorder()
    verify._matroid_kernel_checks(rec, max_n=2, trials=5, seed=0)
    subspaces = [
        f"subspace dim {w.dim} of 2^{n}: {w.basis}" for n in range(3) for w in verify._all_subspaces(n)
    ]
    rng = random.Random(1)  # the suite's seed + 1, drawn in the suite's order
    matrices = []
    for _ in range(200):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        a = BitMatrix(rows, cols, [rng.randrange(1 << cols) for _ in range(rows)])
        matrices.append(f"matrix {a.rows}x{a.cols} rows={a.data}")
    symmetric = []
    for _ in range(verify.MAX_FAILURES_KEPT):
        n = rng.randrange(8)
        symmetric.append(f"symmetric {n}x{n} rows={random_looped_simple_graph(rng, n).adj.data}")
    kept = verify.MAX_FAILURES_KEPT
    expected = [subspaces] * 3 + [matrices] * 5 + [symmetric]
    assert [r.failures for r in rec.report()] == [
        [f"{text}: forced" for text in texts[:kept]] for texts in expected
    ]
    assert [r.instances for r in rec.report()] == [8] * 3 + [200] * 6


def eager_graph_text(g) -> str:
    """The witness text of a graph as verify printed it before witnesses were lazy."""
    return "[" + render_graph(g).strip().replace("\n", "; ") + "]"


def drop_top_member(monkeypatch) -> None:
    """Break SetSystem.restrict: drop the largest member whenever the empty
    set is a member too."""
    restrict = dm.SetSystem.restrict

    def broken(self, keep):
        r = restrict(self, keep)
        top = r.bits.bit_length() - 1
        bits = r.bits & ~(1 << top) if top > 0 and r.bits & 1 else r.bits
        return dm.SetSystem(r.ground, bits)

    monkeypatch.setattr(dm.SetSystem, "restrict", broken)


def test_a_route_value_error_is_a_fail_line(monkeypatch):
    rec = verify.Recorder()
    with rec.check("raising", "w"):
        raise ValueError("not a matroid")
    assert [(r.name, r.instances, r.failures) for r in rec.report()] == [
        ("raising", 1, ["w: not a matroid"])
    ]
    clean = verify.run_suites("delta", max_n=2, trials=5, seed=0)
    drop_top_member(monkeypatch)  # some maxima stop being equicardinal
    broken = verify.run_suites("delta", max_n=2, trials=5, seed=0)
    assert [(r.name, r.instances) for r in broken] == [(r.name, r.instances) for r in clean]
    assert any(r.failures for r in broken)


def failing_checks(results) -> dict[str, list[str]]:
    return {r.name: r.failures for r in results if r.failures}


# The failure records of each route's suite at max_n=2, trials=5, seed=0 when
# the route raises ValueError("broken <route>") on every object of 3 or more
# elements (its first argument's .n or .size), keyed "<suite>-<route>" so that
# the matroid and set-system delete routes stay apart.
ROUTE_FAULT_RECORDS = json.loads(Path(__file__).with_name("route_fault_records.json").read_text())
ROUTE_FAULTS = [
    ("matroid", BinaryMatroid, "delete", 6),
    ("matroid", LoopedSimpleGraph, "local_complement", 7),
    ("delta", dm.SetSystem, "dual_pivot", 6),
    ("delta", dm.SetSystem, "loop_complement", 6),
    ("delta", dm.SetSystem, "max_sys", 10),
    ("delta", dm.SetSystem, "min_sys", 4),
    ("delta", dm.SetSystem, "delete", 8),
    ("delta", dm.SetSystem, "pivot", 13),
    ("delta", BinaryMatroid, "contract", 2),
    ("delta", dm, "from_graph", 14),
    ("fourreg", verify, "euler_system", 1),
    ("fourreg", verify, "compatible_euler_system", 6),
    ("poly", verify, "interlace_subset", 2),
    ("poly", verify, "tutte_subset", 3),
]


def checks_between(first: str, last: str) -> list[str]:
    """The check names from first to last, in the order verify prints."""
    names = list(EXPECTED_COUNTS)
    return names[names.index(first) : names.index(last) + 1]


SUITE_CHECKS = {
    "matroid": checks_between("subspace-matroid-round-trip", "tripartition-case-details"),
    "delta": checks_between("graph-encoding-is-normal-delta-matroid", "matroid-bases-satisfy-exchange"),
    "fourreg": checks_between("euler-system-covers-components", "realization-reproduces-touch-graph"),
    "poly": checks_between("interlace-evaluators-agree", "tutte-evaluators-agree-on-polygon-matroids"),
}
PIVOTS_CHECKS = checks_between("pivots-preserve-exchange", "matroid-bases-satisfy-exchange")
# the per-graph, per-vertex and per-subset checks, and the pivots stream's
LOOPED_GRAPH_CHECKS = {
    "matroid": checks_between("rank-function-shape", "tripartition-case-details"),
    "delta": checks_between("graph-encoding-is-normal-delta-matroid", "loop-isolate-via-max-filter")
    + PIVOTS_CHECKS,
    "poly": checks_between("interlace-evaluators-agree", "vertex-terms-make-the-difference"),
}


def break_route(monkeypatch, owner, route: str) -> None:
    """Make owner.route raise ValueError("broken <route>") on every object of
    3 or more elements."""
    build = getattr(owner, route)

    def broken(obj, *args):
        if (obj.n if hasattr(obj, "n") else obj.size) >= 3:
            raise ValueError(f"broken {route}")
        return build(obj, *args)

    monkeypatch.setattr(owner, route, broken)


@pytest.mark.parametrize(
    "suite, owner, route, failing",
    [pytest.param(*fault, id=f"{fault[0]}-{fault[2]}") for fault in ROUTE_FAULTS],
)
def test_a_raising_route_is_a_fail_line_in_every_suite(suite, owner, route, failing, monkeypatch):
    """Every suite builds a route value inside the first check that reads it,
    so a raising route fails every check that reads it, with the text a
    direct call gives, never an exception out of the suite, and every check
    name and instance count stays."""
    break_route(monkeypatch, owner, route)
    results = verify.run_suites(suite, max_n=2, trials=5, seed=0)
    assert [(r.name, r.instances) for r in results] == [
        (name, EXPECTED_COUNTS[name]) for name in SUITE_CHECKS[suite]
    ]
    records = ROUTE_FAULT_RECORDS[f"{suite}-{route}"]
    assert failing_checks(results) == records
    assert len(records) == failing


def keep_every_forced_failure(monkeypatch) -> None:
    """Fail every check that passes with the message "forced", and keep every failure."""
    force_every_check_to_fail(monkeypatch)
    monkeypatch.setattr(verify, "MAX_FAILURES_KEPT", sum(EXPECTED_COUNTS.values()))


@pytest.mark.parametrize("route", ["dual_pivot", "loop_complement", "pivot"])
def test_pivots_stream_instances_do_not_depend_on_a_raising_route(route, monkeypatch):
    """A pivots-stream instance, its flip walk included, is drawn before its
    checks, and its witness calls no route: with every check failing, a
    raising route leaves each of the stream's witness sequences as it is."""
    keep_every_forced_failure(monkeypatch)

    def witnesses() -> dict[str, list[str]]:
        results = {r.name: r for r in verify.delta_suite(max_n=2, trials=5, seed=0)}
        return {
            name: [re.sub(r": (forced|broken \w+)$", "", f) for f in results[name].failures]
            for name in PIVOTS_CHECKS
        }

    clean = witnesses()
    assert [len(w) for w in clean.values()] == [EXPECTED_COUNTS[name] for name in PIVOTS_CHECKS]
    break_route(monkeypatch, dm.SetSystem, route)
    assert witnesses() == clean


def test_every_looped_graph_witness_parses_back(monkeypatch):
    """The bracketed graph text of every looped-graph check's witness, read
    with "; " as a line break, parses to a graph that renders back to it."""
    keep_every_forced_failure(monkeypatch)
    for suite, names in LOOPED_GRAPH_CHECKS.items():
        results = {r.name: r for r in verify.run_suites(suite, max_n=2, trials=5, seed=0)}
        for name in names:
            assert len(results[name].failures) == EXPECTED_COUNTS[name]
            for failure in results[name].failures:
                text = re.fullmatch(r"\[([^]]*)\](?: [^:]*)?: forced", failure)[1]
                g = parse_graph(text.replace("; ", "\n"))
                assert isinstance(g, LoopedSimpleGraph)
                assert render_graph(g).strip().replace("\n", "; ") == text


def test_a_delta_run_runs_the_exchange_kernel_once_per_object_asked(monkeypatch):
    """Each system object asked keeps its verdict: 1,766 asks of 837 objects
    run the kernel 837 times, once per object."""
    asked, runs = [], []
    ask, kernel = dm.satisfies_exchange_axiom, dm.SetSystem.__dict__["_exchange_verdict"]
    monkeypatch.setattr(dm, "satisfies_exchange_axiom", lambda d: asked.append(d) or ask(d))
    monkeypatch.setattr(kernel, "func", lambda d, run=kernel.func: runs.append(d) or run(d))
    verify.delta_suite(max_n=2, trials=5, seed=0)
    distinct = {id(d) for d in asked}  # asked holds every object, so no id is reused
    assert len(asked) == 1766
    assert len(runs) == len({id(d) for d in runs}) == len(distinct) == 837
    assert {id(d) for d in runs} == distinct


def assert_graph_vertex_witnesses(failures: list[str]) -> None:
    """Each failure names a graph and one of its vertices."""
    assert failures
    assert all(re.fullmatch(r"\[vertices [^]]*\] vertex \w+: .*", f) for f in failures), failures


def test_a_trio_with_a_wrong_pair_or_nullity_is_a_fail_line(monkeypatch):
    """trio checks nothing itself: the matroid suite's comparison with the
    three variant matroids is what finds a wrong pair or nullity."""
    clean = verify.matroid_suite(max_n=2, trials=5, seed=0)
    assert failing_checks(clean) == {}
    faults = [
        # the odd variant swapped into the equal pair
        lambda t: TrioResult(
            tuple(sorted((t.equal_pair[1], t.odd_one), key=KINDS.index)), t.equal_pair[0], t.nullity
        ),
        lambda t: TrioResult(t.equal_pair, t.odd_one, t.nullity + 1),
    ]
    for fault in faults:
        monkeypatch.setattr(verify, "trio", lambda g, v, fault=fault: fault(trio(g, v)))
        broken = verify.matroid_suite(max_n=2, trials=5, seed=0)
        assert [(r.name, r.instances) for r in broken] == [(r.name, r.instances) for r in clean]
        failures = failing_checks(broken)
        assert list(failures) == ["three-variants-two-agree"]
        assert_graph_vertex_witnesses(failures["three-variants-two-agree"])


def test_subgraph_deletion_at_a_triple_coloop_is_a_fail_line(monkeypatch):
    """Without the contraction route at triple coloops, subgraph deletion
    disagrees with matroid deletion, and the matroid suite says so."""
    monkeypatch.setattr(verify, "delete_via_subgraph", lambda g, v: adjacency_matroid(g.minus(v)))
    failures = failing_checks(verify.matroid_suite(max_n=2, trials=5, seed=0))
    assert list(failures) == ["delete-matches-subgraph-off-triple-coloops"]
    assert_graph_vertex_witnesses(failures["delete-matches-subgraph-off-triple-coloops"])
    assert "[vertices v0 v1; edge v0 v1] vertex v0: assert delete_via_subgraph(g, v) == deleted()" in (
        failures["delete-matches-subgraph-off-triple-coloops"]
    )


def test_subset_failures_print_the_eager_witness_text(monkeypatch):
    drop_top_member(monkeypatch)
    failed = 0
    for g in [C5_LOOPED, *all_looped_simple_graphs(2)]:
        rec = verify.Recorder()
        d, induced = verify._Lazy(dm.from_graph, g), verify._Lazy(induced_subgraphs, g)
        verify._delta_subset_checks(rec, g, d, induced)
        texts = [
            f"{eager_graph_text(g)} subset {{{' '.join(g.induced_mask(mask).labels)}}}"
            for mask in range(1 << g.n)
        ]
        for r in rec.report():
            assert r.instances == 1 << g.n
            split = [f.partition(": assert ") for f in r.failures]
            assert all(statement for _, _, statement in split)  # the line of a message-less assert
            positions = [texts.index(witness) for witness, _, _ in split]
            assert positions == sorted(set(positions))
            failed += len(r.failures)
    assert failed


def test_pairing_and_set_system_failures_print_the_eager_witness_text(monkeypatch):
    monkeypatch.setattr(verify, "nullity", lambda a: -1)
    monkeypatch.setattr(verify, "_equicardinal_min_criterion", lambda d: True)
    (circuit,) = [r for r in verify.fourreg_suite(max_n=2, trials=0) if r.name == "circuit-nullity-formula"]
    statement = "assert nullity(relative_interlacement(euler(), p).adj) == p.size - f.component_count"
    expected = [
        f"{eager_graph_text(mg)} pairing {t.pairing}: {statement}"
        for mg in small_four_regular_corpus(2)
        for t in all_transition_systems(HalfEdgeGraph(mg))
    ]
    assert circuit.failures == expected[: verify.MAX_FAILURES_KEPT]
    (broken,) = [
        r for r in verify.delta_suite(max_n=1, trials=0) if r.name == "dual-pivot-can-break-exchange"
    ]
    assert broken.failures == [
        "[ground a b c; family {a},{b},{c},{a b},{a c},{b c},{a b c}]: "
        "assert not _equicardinal_min_criterion(flipped)"
    ]


# ---------------------------------------------------------------------------
# The set loops the word-form oracles replaced, kept as references.


def maximal_inside_by_loops(d: dm.SetSystem, mask: int) -> set[frozenset[str]]:
    inside = [m for m in d.family if m & ~mask == 0]
    return {d.labels_of(m) for m in inside if not any(z != m and m & ~z == 0 for z in inside)}


def extensible_by_loops(d: dm.SetSystem, mask: int) -> set[frozenset[str]]:
    return {
        d.labels_of(i_mask)
        for i_mask in range(1 << d.n)
        if not i_mask & ~mask and any(i_mask & ~x == 0 and x & ~mask == 0 for x in d.family)
    }


def collected_by_loops(sub_bases: list, mask: int) -> set[frozenset[str]]:
    collected = set()
    for t_mask in range(len(sub_bases)):
        if not t_mask & ~mask:
            collected |= sub_bases[t_mask]
    return collected


def subset_oracle_graphs():
    for n in range(5):
        yield from all_looped_simple_graphs(n)
    rng = random.Random(41)
    for n in (5, 5, 5, 6, 6, 6):
        yield random_looped_simple_graph(rng, n)


def test_word_form_subset_oracles_match_the_set_loops():
    checked = 0
    for g in subset_oracle_graphs():
        d = dm.from_graph(g)
        subs = [g.induced_mask(mask) for mask in range(1 << g.n)]
        sub_bases = [adjacency_matroid(h).bases() for h in subs]
        families = [sum({1 << d.mask_of(b) for b in bs}) for bs in sub_bases]
        collected = verify._union_below(families, g.n)
        for mask, h in enumerate(subs):
            inside = d.restrict(h.labels)
            maximal = {inside.labels_of(m) for m in inside.max_sys().family}
            assert maximal == maximal_inside_by_loops(d, mask)
            closure = {inside.labels_of(m) for m in set_bits(verify._down_closure(inside))}
            assert closure == extensible_by_loops(d, mask)
            assert {d.labels_of(m) for m in set_bits(collected[mask])} == (
                collected_by_loops(sub_bases, mask)
            )
        checked += 1
    assert checked == 1099 + 6


def zero_set_by_loops(b: BitMatrix) -> int:
    return sum(1 << v for v in range(1 << b.cols) if b.mul_mask(v) == 0)


def kernel_check_by_loops(a: BitMatrix, b: BitMatrix) -> bool:
    kernel = nullspace(a)
    return all((b.mul_mask(v) == 0) == kernel.contains(v) for v in range(1 << a.cols))


def oracle_matrices():
    for rows, cols in itertools.product(range(4), range(1, 4)):
        for data in itertools.product(range(1 << cols), repeat=rows):
            yield BitMatrix(rows, cols, data)
    rng = random.Random(43)
    for _ in range(200):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        yield BitMatrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))


def test_word_form_kernel_oracle_matches_the_vector_loop():
    checked = 0
    for a in oracle_matrices():
        b = symmetrize_nullspace(a)
        for m in (a, b):
            assert verify._zero_set(m) == zero_set_by_loops(m)
        kernel = sum(1 << v for v in nullspace(a).vectors())
        assert (verify._zero_set(b) == kernel) == kernel_check_by_loops(a, b)
        assert verify._zero_set(a) == kernel
        checked += 1
    assert checked == 1 + 2 + 4 + 8 + 1 + 4 + 16 + 64 + 1 + 8 + 64 + 512 + 200


def two_of_three_by_sets(d: dm.SetSystem, v: str, pivoted: dm.SetSystem) -> None:
    """verify._check_two_of_three as it was, on frozensets of member masks."""
    candidates = {
        "plain": d.max_sys(),
        "pivot": pivoted.max_sys(),
        "loop": d.loop_complement([v]).max_sys(),
    }
    families = {k: frozenset(c.family) for k, c in candidates.items()}
    groups: dict[frozenset[int], list[str]] = {}
    for k, fam in families.items():
        groups.setdefault(fam, []).append(k)
    assert len(groups) == 2, f"expected exactly two distinct maxima, got {len(groups)}"
    (fam1, keys1), (fam2, keys2) = groups.items()
    if len(keys1) == 2:
        d1, d2 = fam1, fam2
    else:
        d1, d2 = fam2, fam1
    i = d.index(v)
    vb = 1 << i
    rebuilt = frozenset((m | vb) for m in d2 if not m & vb)
    stripped = frozenset(m for m in d2 if not m & vb)
    assert {m | vb for m in stripped} == set(rebuilt)
    assert rebuilt == d1, "pinned third maximum differs from the shared one"
    size1 = next(iter(d1)).bit_count()
    size2 = next(iter(d2)).bit_count()
    assert (d.n - size2) == (d.n - size1) + 1, "nullity step is not one"


def two_of_three_by_words(d: dm.SetSystem, v: str, pivoted: dm.SetSystem) -> None:
    """verify._check_two_of_three on the three maxima, as its caller reads them."""
    maxima = (s.max_sys() for s in (d, pivoted, d.loop_complement([v])))
    verify._check_two_of_three(d, v, *maxima)


def verdict(check, *args) -> tuple[type, str] | None:
    """The exception type and message line, or None for a pass; pytest
    appends its own explanation to failed asserts in this module."""
    try:
        check(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc).split("\n")[0]
    return None


def test_word_form_two_of_three_matches_the_set_form():
    """Same verdict and message on every vertex, with the right pivot and
    with corrupted ones: no pivot, or the pivot at another vertex."""
    checked = failed = 0
    for g in subset_oracle_graphs():
        d = dm.from_graph(g)
        for v in g.labels:
            pivots = [d.pivot([v]), d, *(d.pivot([w]) for w in g.labels if w != v)]
            for k, pivoted in enumerate(pivots):
                expected = verdict(two_of_three_by_sets, d, v, pivoted)
                assert verdict(two_of_three_by_words, d, v, pivoted) == expected
                assert expected is None or k > 0
                failed += expected is not None
        checked += 1
    assert checked == 1099 + 6
    assert failed > 1000


def cycle_edge_sets_by_search(mg: MultiGraph) -> set[frozenset[str]]:
    """verify._cycle_edge_sets as it was: connectivity by a search from one vertex."""
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
        reach = {verts[0]}
        frontier = [verts[0]]
        while frontier:
            x = frontier.pop()
            for e in chosen:
                u, v = mg.edges[e]
                if u == x and v not in reach:
                    reach.add(v)
                    frontier.append(v)
                if v == x and u not in reach:
                    reach.add(u)
                    frontier.append(u)
        if len(reach) == len(verts):
            out.add(frozenset(mg.edge_labels[e] for e in chosen))
    return out


def small_multigraphs():
    """Every multigraph with at most 3 vertices and 4 edges, then seeded ones."""
    for n in range(4):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(5):
            for edges in itertools.combinations_with_replacement(pairs, m):
                yield MultiGraph(default_labels(n), edges)
    rng = random.Random(47)
    for _ in range(100):
        yield verify._random_multigraph(rng, rng.randrange(1, 6), rng.randrange(9))


def test_union_find_cycle_sets_match_the_search():
    checked = cycles = 0
    for mg in small_multigraphs():
        found = verify._cycle_edge_sets(mg)
        assert found == cycle_edge_sets_by_search(mg)
        checked += 1
        cycles += len(found)
    assert checked == 1 + 5 + 35 + 210 + 100
    assert cycles > 500
