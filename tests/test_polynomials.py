"""Polynomial arithmetic and the evaluator identities."""

import itertools
import random
from math import comb

import pytest

from adjmatroid import binary_matroid, gf2, graph, polynomials
from adjmatroid.adjacency_matroid import adjacency_matroid
from adjmatroid.binary_matroid import BinaryMatroid, free_matroid, single_coloop
from adjmatroid.graph import LoopedSimpleGraph, all_looped_simple_graphs, random_looped_simple_graph
from adjmatroid.polynomials import (
    ONE,
    X,
    Y,
    BivariatePolynomial,
    _from_tally,
    interlace_recursive,
    interlace_subset,
    lambda_leading,
    shifted_power_term,
    tutte_recursive,
    tutte_subset,
)
from adjmatroid.verify import _induced_nullities, _interlace_vertex_terms, _q_from_lambda

K3 = LoopedSimpleGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def q_from_lambda(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """verify's induced-matroid interlace oracle, on a table of its own."""
    return _q_from_lambda(_induced_nullities(g))


def interlace_vertex_terms(g: LoopedSimpleGraph) -> dict[str, BivariatePolynomial]:
    """verify's per-vertex parts of that oracle, on a table of their own."""
    return _interlace_vertex_terms(g, _induced_nullities(g))


def all_loops(labels) -> BinaryMatroid:
    """Every element a loop (U_{n,0})."""
    n = len(labels)
    return BinaryMatroid(tuple(labels), gf2.Subspace(n, tuple(1 << i for i in range(n))))


def test_arithmetic():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert p.terms == ((0, 2, -1), (2, 0, 1))  # (x-degree, y-degree, coefficient)
    assert p.evaluate(3, 2) == 5
    assert p.swap_variables() == Y * Y - X * X
    assert BivariatePolynomial(()) + ONE == ONE


def test_canonical_form_rejects_garbage():
    with pytest.raises(ValueError):
        BivariatePolynomial(((0, 0, 0),))
    with pytest.raises(ValueError):
        BivariatePolynomial(((1, 0, 1), (0, 0, 1)))  # out of order
    with pytest.raises(ValueError):
        BivariatePolynomial(((0, 0, 1), (0, 0, 2)))  # duplicates


def test_shifted_power_term_matches_repeated_multiplication():
    xm1 = X - ONE
    ym1 = Y - ONE
    for a in range(5):
        for b in range(5):
            expected = ONE
            for _ in range(a):
                expected = expected * xm1
            for _ in range(b):
                expected = expected * ym1
            assert shifted_power_term(a, b) == expected


def binomial_expand(counts) -> BivariatePolynomial:
    """Reference: each (a, b) pair expanded by the binomial theorem."""
    out: dict[tuple[int, int], int] = {}
    for (a, b), count in counts.items():
        for i in range(a + 1):
            ci = count * comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                out[(i, j)] = out.get((i, j), 0) + ci * comb(b, j) * (-1) ** (b - j)
    return BivariatePolynomial.from_dict(out)


def packed(counts, n: int) -> int:
    """The (a, b) counts of an n-element tally as one int: the count of
    u^a v^b at bit a*U + b*W, with W = 2n + 2 and U = W(n + 1)."""
    w = 2 * n + 2
    return sum(k << (a * w * (n + 1) + b * w) for (a, b), k in counts.items())


def converted(counts, n: int) -> BivariatePolynomial:
    return _from_tally(packed(counts, n), n)


def random_tally(rng: random.Random, n: int) -> dict[tuple[int, int], int]:
    """Each of the 2^n subsets S adds one to a random (a, b) with a + b = |S|."""
    counts: dict[tuple[int, int], int] = {}
    for size in range(n + 1):
        for _ in range(comb(n, size)):
            b = rng.randint(0, size)
            counts[(size - b, b)] = counts.get((size - b, b), 0) + 1
    return counts


def test_shift_expansion_matches_binomial_expansion():
    """Every single (a, b) with a + b <= n at counts 1 and 2^n, then seeded
    in-range tallies: counts in [0, 2^n] summing to 2^n."""
    assert converted({}, 0) == BivariatePolynomial(()) == binomial_expand({})
    n = 12
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for count in (1, 1 << n):
                assert converted({(a, b): count}, n) == binomial_expand({(a, b): count})
    rng = random.Random(5493)
    for _ in range(200):
        n = rng.randrange(9)
        counts = random_tally(rng, n)
        assert converted(counts, n) == binomial_expand(counts)


def layer_tally(g: LoopedSimpleGraph) -> dict[tuple[int, int], int]:
    """The (|X| - d, d) counts of g's distance layers, d the nullity of A[X]."""
    sizes = gf2.size_masks(g.n)
    layers = gf2.distance_layers(g.nonsingular_subsets, g.n)
    return {
        (size - d, d): k
        for d, layer in enumerate(layers)
        for size, at_size in enumerate(sizes)
        if (k := (layer & at_size).bit_count())
    }


def test_interlace_subset_matches_the_plane_tally(principal_planes, tally_planes):
    """The layer tally equals the rank tally of the elimination reference on
    all 1,099 graphs with n <= 4, and interlace_subset equals both that and
    the recursion on seeded, edgeless and all-looped graphs with n = 5-10."""
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    rng = random.Random(1432)
    for n in range(5, 11):
        labels = tuple(f"v{i}" for i in range(n))
        graphs += [random_looped_simple_graph(rng, n) for _ in range(2)]
        graphs += [LoopedSimpleGraph.build(labels), LoopedSimpleGraph.build(labels, loops=labels)]
    for g in graphs:
        tally = tally_planes(principal_planes(g.adj), g.n)
        by_ranks = {(r, size - r): k for (size, r), k in tally.items()}
        assert layer_tally(g) == by_ranks
        if g.n >= 5:
            assert interlace_subset(g) == converted(by_ranks, g.n) == interlace_recursive(g)
    assert len(graphs) == 1099 + 6 * 4


def test_tally_conversion_matches_the_binomial_expansion_on_real_tallies(tutte_tally):
    """The interlace and Tutte tallies of all 1,099 graphs with n <= 4, then
    of seeded graphs with n = 5-12."""
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    rng = random.Random(1107)
    graphs += [random_looped_simple_graph(rng, n) for n in range(5, 13) for _ in range(5)]
    for g in graphs:
        for counts in (layer_tally(g), tutte_tally(adjacency_matroid(g))):
            assert converted(counts, g.n) == binomial_expand(counts)
    assert len(graphs) == 1099 + 8 * 5


def test_slot_bound_holds_at_the_enumeration_gate():
    """At n = ENUM_GATE: the interlace expansion of the edgeless and complete
    graphs, looped and unlooped, against the binomial expansion of their layer
    tallies, and x^n and y^n by both Tutte routes."""
    n = gf2.ENUM_GATE
    labels = tuple(f"v{i}" for i in range(n))
    complete = list(itertools.combinations(labels, 2))
    for edges, loops in itertools.product(([], complete), ((), labels)):
        g = LoopedSimpleGraph.build(labels, edges, loops=loops)
        assert interlace_subset(g) == binomial_expand(layer_tally(g))
    x_n, y_n = BivariatePolynomial.monomial(n, 0), BivariatePolynomial.monomial(0, n)
    assert tutte_subset(free_matroid(labels)) == tutte_recursive(free_matroid(labels)) == x_n
    assert tutte_subset(all_loops(labels)) == tutte_recursive(all_loops(labels)) == y_n


def test_tutte_subset_matches_the_column_masked_tally(reference_matroids, tutte_tally):
    """The layers of the independent-set word give the elimination
    reference's tally and the recursion's polynomial on every matroid with
    n <= 5, seeded ones up to n = 14 (nullity 0 and n among them) and polygon
    matroids with loops and parallel edges."""
    for m in reference_matroids:
        expected = converted(tutte_tally(m), m.size)
        assert tutte_subset(m) == expected == tutte_recursive(m)


def test_text_rendering():
    assert BivariatePolynomial(()).to_text() == "0"
    assert ONE.to_text() == "1"
    assert (X + Y).to_text() == "x + y"
    poly = BivariatePolynomial.from_dict({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert poly.to_text() == "x^2 + x + y"
    assert shifted_power_term(0, 1).to_text() == "y + -1"
    assert poly.to_json_terms() == [[2, 0, 1], [1, 0, 1], [0, 1, 1]]


def test_interlace_examples():
    two_isolated = LoopedSimpleGraph.build("ab")
    assert interlace_subset(two_isolated).to_text() == "y^2"
    assert interlace_subset(LoopedSimpleGraph.build("a", loops="a")) == X
    assert interlace_subset(LoopedSimpleGraph.build("")) == ONE
    assert interlace_subset(LoopedSimpleGraph.build("a")) == Y


def test_tutte_examples():
    assert tutte_subset(single_coloop("v")) == X
    assert tutte_subset(all_loops("v")) == Y
    u32 = BinaryMatroid(tuple("abc"), gf2.Subspace(3, (0b111,)))
    assert tutte_subset(u32).to_text() == "x^2 + x + y"
    assert tutte_recursive(free_matroid("abc")) == X * X * X
    assert tutte_recursive(all_loops("ab")) == Y * Y


def test_lambda_examples():
    assert lambda_leading(free_matroid("abc")) == ONE
    assert lambda_leading(all_loops("v")) == Y - ONE
    assert lambda_leading(adjacency_matroid(K3)) == Y - ONE


def test_evaluators_agree_exhaustive_small():
    for n in range(4):
        for g in all_looped_simple_graphs(n):
            q = interlace_subset(g)
            assert q == interlace_recursive(g) == q_from_lambda(g)
            m = adjacency_matroid(g)
            assert tutte_subset(m) == tutte_recursive(m)


def test_evaluators_agree_random_medium():
    rng = random.Random(31)
    for _ in range(15):
        g = random_looped_simple_graph(rng, rng.randrange(5, 8))
        q = interlace_subset(g)
        assert q == interlace_recursive(g) == q_from_lambda(g)


def test_oracle_routes_never_call_the_subset_kernel(monkeypatch):
    rng = random.Random(37)
    graphs = [random_looped_simple_graph(rng, n) for n in range(1, 7)]
    expected = [(interlace_subset(g), tutte_subset(adjacency_matroid(g))) for g in graphs]

    def kernel(*_):
        raise AssertionError("the subset kernel was called")

    monkeypatch.setattr(BinaryMatroid, "_independent_bits", property(kernel))
    monkeypatch.setattr(graph, "nonsingular_subsets", kernel)
    monkeypatch.setattr(polynomials, "distance_layers", kernel)
    with pytest.raises(AssertionError):
        LoopedSimpleGraph(K3.labels, K3.adj).nonsingular_subsets
    with pytest.raises(AssertionError):
        interlace_subset(K3)
    with pytest.raises(AssertionError):
        tutte_subset(adjacency_matroid(K3))
    with pytest.raises(AssertionError):
        adjacency_matroid(K3).bases()
    for g, (q, t) in zip(graphs, expected):
        assert q_from_lambda(g) == interlace_recursive(g) == q
        v = g.labels[0]
        assert interlace_vertex_terms(g)[v] == q - interlace_recursive(g.minus(v))
        assert tutte_recursive(adjacency_matroid(g)) == t


def test_subset_expansions_match_recursions_seeded():
    rng = random.Random(41)
    for n in range(5, 11):
        labels = tuple(f"v{i}" for i in range(n))
        looped = LoopedSimpleGraph.build(labels, loops=labels)
        for g in (random_looped_simple_graph(rng, n), looped):
            assert interlace_subset(g) == interlace_recursive(g)
            m = adjacency_matroid(g)
            assert tutte_subset(m) == tutte_recursive(m)
        assert adjacency_matroid(looped).nullity == 0
        for m in (free_matroid(labels), all_loops(labels)):
            assert tutte_subset(m) == tutte_recursive(m)


def test_vertex_terms_identity():
    for g in all_looped_simple_graphs(3):
        q = interlace_subset(g)
        terms = interlace_vertex_terms(g)
        assert set(terms) == set(g.labels)
        for v in g.labels:
            assert q - interlace_subset(g.minus(v)) == terms[v]


def test_tutte_duality_swap():
    for g in all_looped_simple_graphs(3):
        m = adjacency_matroid(g)
        assert tutte_subset(m).swap_variables() == tutte_subset(m.dual())


def test_size_gate():
    big = LoopedSimpleGraph.build(tuple(f"v{i}" for i in range(25)))
    with pytest.raises(ValueError):
        interlace_subset(big)
    with pytest.raises(ValueError):
        tutte_subset(free_matroid(tuple(f"v{i}" for i in range(25))))
    # 21 isolated vertices recurse in linear time, but the gate is one for
    # every evaluator
    with pytest.raises(ValueError):
        interlace_recursive(LoopedSimpleGraph.build(tuple(f"v{i}" for i in range(21))))


def test_interlace_subset_refuses_before_any_subset_mask(monkeypatch):
    def build(*_):
        raise AssertionError("a 2^n-bit mask was built for a graph over the enumeration gate")

    monkeypatch.setattr(gf2, "coord_masks", build)
    monkeypatch.setattr(polynomials, "size_masks", build)
    monkeypatch.setattr(polynomials, "distance_layers", build)
    for n in (gf2.ENUM_GATE + 1, 25):
        g = LoopedSimpleGraph.build(tuple(f"v{i}" for i in range(n)))
        with pytest.raises(ValueError, match="principal submatrix scan is gated"):
            interlace_subset(g)
        assert "nonsingular_subsets" not in vars(g)


def test_interlace_subset_checks_the_gate_before_scanning(monkeypatch):
    def build(*_):
        raise AssertionError("a word was built for a graph over the enumeration gate")

    monkeypatch.setattr(gf2, "coord_masks", build)  # the word steps build their masks here
    monkeypatch.setattr(polynomials, "distance_layers", build)
    g = LoopedSimpleGraph.build(tuple(f"v{i}" for i in range(gf2.ENUM_GATE + 1)))
    with pytest.raises(ValueError):
        interlace_subset(g)
    assert "nonsingular_subsets" not in vars(g)


def test_tutte_subset_refuses_before_any_subset_mask(monkeypatch):
    def build(*_, **__):
        raise AssertionError("a 2^n-bit mask was built for a matroid over the enumeration gate")

    monkeypatch.setattr(gf2, "coord_masks", build)
    for name in ("flip_coordinates", "pivot_step", "dominated"):
        monkeypatch.setattr(binary_matroid, name, build)
    monkeypatch.setattr(polynomials, "size_masks", build)
    monkeypatch.setattr(polynomials, "distance_layers", build)
    for n in (gf2.ENUM_GATE + 1, 25):
        labels = tuple(f"v{i}" for i in range(n))
        for m in (free_matroid(labels), all_loops(labels)):
            with pytest.raises(ValueError, match="independent set scan is gated"):
                tutte_subset(m)
            assert "_independent_bits" not in vars(m)
