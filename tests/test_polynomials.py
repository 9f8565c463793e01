"""The polynomial value, verify's oracle arithmetic and the evaluator identities."""

import itertools
import random
import time
from math import comb

import networkx
import pytest
import sympy

from adjmatroid import binary_matroid, gf2, graph, polynomials
from adjmatroid.adjacency_matroid import adjacency_matroid
from adjmatroid.binary_matroid import BinaryMatroid, free_matroid, polygon_matroid, single_coloop
from adjmatroid.graph import (
    LoopedSimpleGraph,
    MultiGraph,
    all_looped_simple_graphs,
    random_looped_simple_graph,
)
from adjmatroid.polynomials import (
    BivariatePolynomial,
    _from_tally,
    _shifts,
    interlace_recursive,
    interlace_subset,
    lambda_leading,
    shifted_power_term,
    tutte_recursive,
    tutte_subset,
)
from adjmatroid.verify import (
    _induced_nullities,
    _interlace_vertex_terms,
    _poly_sum,
    _poly_times,
    _q_from_lambda,
)

K3 = LoopedSimpleGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def poly(*terms: tuple[int, int, int]) -> BivariatePolynomial:
    """The polynomial with these (x exponent, y exponent, coefficient) terms."""
    return BivariatePolynomial(tuple(sorted(terms)))


ONE, X, Y = poly((0, 0, 1)), poly((1, 0, 1)), poly((0, 1, 1))


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
    """verify's sum and product collect terms, drop zeros and build through
    the validating constructor."""
    p = _poly_times(_poly_sum(X.terms, Y.terms), _poly_sum(X.terms, [(0, 1, -1)]))
    assert p == _poly_sum(_poly_times(X, X).terms, [(0, 2, -1)])
    assert p.terms == ((0, 2, -1), (2, 0, 1))  # (x-degree, y-degree, coefficient)
    assert p.evaluate(3, 2) == 5
    assert _poly_sum((j, i, c) for i, j, c in p.terms) == poly((0, 2, 1), (2, 0, -1))
    assert _poly_sum((), ONE.terms) == ONE
    zero = BivariatePolynomial(())
    assert _poly_sum(p.terms, [(i, j, -c) for i, j, c in p.terms]) == zero == _poly_times(p, zero)
    with pytest.raises(ValueError):
        _poly_sum([(-1, 0, 1)])


def test_canonical_form_rejects_garbage():
    with pytest.raises(ValueError):
        BivariatePolynomial(((0, 0, 0),))
    with pytest.raises(ValueError):
        BivariatePolynomial(((1, 0, 1), (0, 0, 1)))  # out of order
    with pytest.raises(ValueError):
        BivariatePolynomial(((0, 0, 1), (0, 0, 2)))  # duplicates


def test_shifted_power_term_matches_repeated_multiplication():
    xm1 = poly((0, 0, -1), (1, 0, 1))
    ym1 = poly((0, 0, -1), (0, 1, 1))
    for a in range(5):
        for b in range(5):
            expected = ONE
            for _ in range(a):
                expected = _poly_times(expected, xm1)
            for _ in range(b):
                expected = _poly_times(expected, ym1)
            term = shifted_power_term(a, b)
            assert term == expected == BivariatePolynomial(term.terms)


def binomial_expand(counts) -> BivariatePolynomial:
    """Reference: each (a, b) pair expanded by the binomial theorem."""
    return _poly_sum(
        (i, j, count * comb(a, i) * (-1) ** (a - i) * comb(b, j) * (-1) ** (b - j))
        for (a, b), count in counts.items()
        for i in range(a + 1)
        for j in range(b + 1)
    )


def packed(counts, n: int) -> int:
    """The sum of count (x-1)^a (y-1)^b over the (a, b) counts of an n-element
    tally, in the module's layout, x^i y^j at bit i*U + j*W, (W, U) =
    _shifts(n): Horner's rule in y for each a, then in x."""
    w, u = _shifts(n)
    out = 0
    for a in range(n, -1, -1):
        row = 0
        for b in range(n, -1, -1):
            row = (row << w) - row + counts.get((a, b), 0)
        out = (out << u) - out + row
    return out


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
    x_n, y_n = poly((n, 0, 1)), poly((0, n, 1))
    assert tutte_subset(free_matroid(labels)) == tutte_recursive(free_matroid(labels)) == x_n
    assert tutte_subset(all_loops(labels)) == tutte_recursive(all_loops(labels)) == y_n


@pytest.mark.parametrize("n, width", [(15, 32), (16, 64)])
def test_both_slot_widths_convert_like_the_binomial_expansion(n, width):
    """n = 15 is the last n with 32-bit slots and n = 16 the first with 64-bit
    ones: every top-degree (a, b) at count 2^n, seeded in-range tallies, and
    the edgeless and complete graphs, looped and unlooped."""
    assert _shifts(n)[0] == width
    for a in range(n + 1):
        counts = {(a, n - a): 1 << n}
        assert converted(counts, n) == binomial_expand(counts)
    rng = random.Random(n)
    for _ in range(3):
        counts = random_tally(rng, n)
        assert converted(counts, n) == binomial_expand(counts)
    labels = tuple(f"v{i}" for i in range(n))
    complete = list(itertools.combinations(labels, 2))
    for edges, loops in itertools.product(([], complete), ((), labels)):
        g = LoopedSimpleGraph.build(labels, edges, loops=loops)
        assert interlace_subset(g) == converted(layer_tally(g), n) == binomial_expand(layer_tally(g))


def test_last_layer_counts_what_the_others_leave_at_the_enumeration_gate():
    """At n = ENUM_GATE, where the last layer is the largest: nullity 0 and
    all loops against the recursion and x^n, y^n; U_{n-1,n} (nullity 1) and
    U_{1,n} (nullity n - 1) against the recursion and their closed forms."""
    n = gf2.ENUM_GATE
    labels = tuple(f"v{i}" for i in range(n))
    circuit = BinaryMatroid(labels, gf2.Subspace.span(n, [(1 << n) - 1]))
    parallel = BinaryMatroid(labels, gf2.Subspace.span(n, [1 | 1 << i for i in range(1, n)]))
    x_powers = [(i, 0, 1) for i in range(1, n)]
    y_powers = [(0, j, 1) for j in range(1, n)]
    expected = [
        (free_matroid(labels), poly((n, 0, 1))),
        (all_loops(labels), poly((0, n, 1))),
        (circuit, poly(*x_powers, *Y.terms)),
        (parallel, poly(*y_powers, *X.terms)),
    ]
    for m, t in expected:
        assert tutte_subset(m) == tutte_recursive(m) == t


def looped_path(n: int) -> LoopedSimpleGraph:
    """The n-vertex path with a loop on every third vertex."""
    labels = tuple(f"v{i}" for i in range(n))
    return LoopedSimpleGraph.build(labels, list(zip(labels, labels[1:])), loops=labels[::3])


def looped_ladder(k: int) -> LoopedSimpleGraph:
    """The 2 x k ladder, rung i on vertices 2i and 2i + 1, with a loop on
    every third vertex."""
    labels = tuple(f"v{i}" for i in range(2 * k))
    rungs = list(zip(labels[::2], labels[1::2]))
    rails = list(zip(labels, labels[2:]))
    return LoopedSimpleGraph.build(labels, rungs + rails, loops=labels[::3])


def looped_grid(rows: int, cols: int) -> LoopedSimpleGraph:
    """The rows x cols grid in row-major order, vertex r * cols + c, with a
    loop on every third vertex; 2 x k is the ladder with its rails first."""
    labels = tuple(f"v{i}" for i in range(rows * cols))
    across = [(labels[i], labels[i + 1]) for i in range(rows * cols) if (i + 1) % cols]
    down = list(zip(labels, labels[cols:]))
    return LoopedSimpleGraph.build(labels, across + down, loops=labels[::3])


def test_recursions_are_exact_above_the_gate_inside_the_slot_bound(monkeypatch):
    """With the gate patched out, both recursions on looped paths and ladders
    with n up to 31, the last n whose 64-bit slots hold 2n + 2 bits:
    q(2, 2) = 2^n, q(2, -1) = (-1)^n (-2)^nu(A + I) and T(2, 2) = 2^n.  The
    gate itself lies inside the bound."""
    assert 2 * gf2.ENUM_GATE + 2 <= _shifts(gf2.ENUM_GATE)[0]
    monkeypatch.setattr(polynomials, "check_enum_gate", lambda *_: None)
    graphs = [looped_path(n) for n in (24, 28, 31)] + [looped_ladder(k) for k in (12, 14, 15)]
    for g in graphs:
        n = g.n
        shifted = gf2.BitMatrix(n, n, tuple(row ^ 1 << i for i, row in enumerate(g.adj.data)))
        q = interlace_recursive(g)
        assert q.evaluate(2, 2) == 2**n
        assert q.evaluate(2, -1) == (-1) ** n * (-2) ** gf2.nullity(shifted)
        assert tutte_recursive(adjacency_matroid(g)).evaluate(2, 2) == 2**n
    assert [g.n for g in graphs] == [24, 28, 31, 24, 28, 30]


def test_packing_refuses_more_elements_than_the_slot_bound_covers(monkeypatch):
    """n = 32 is the first n whose slots would need more than 64 bits: with
    the gate patched out, both recursions refuse it in one line."""
    monkeypatch.setattr(polynomials, "check_enum_gate", lambda *_: None)
    g = looped_path(32)
    message = "^packed polynomials are exact up to 31 elements, got 32$"
    with pytest.raises(ValueError, match=message):
        interlace_recursive(g)
    with pytest.raises(ValueError, match=message):
        tutte_recursive(adjacency_matroid(g))


@pytest.mark.parametrize("n", [0, 1, 15, 16, 20, 31])
def test_every_slot_holds_the_bound(n):
    """Coefficients of size 2^(2n), the module's slot bound, in every slot of
    the i + j <= n triangle, so in adjacent slots and in the corners with
    i + j = n, all positive, all negative and in seeded signs, read back
    exactly: a slot narrower than 2n + 2 bits fails."""
    w, u = _shifts(n)
    slots = [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
    rng = random.Random(n)
    for signs in ([1] * len(slots), [-1] * len(slots), [rng.choice((1, -1)) for _ in slots]):
        terms = tuple((i, j, sign << 2 * n) for (i, j), sign in zip(slots, signs))
        tally = sum(c << i * u + j * w for i, j, c in terms)
        assert _from_tally(tally, n) == BivariatePolynomial(terms)


def test_tutte_subset_matches_networkx_on_polygon_matroids():
    """networkx's Tutte polynomial, which shares no code with the package, on
    the polygon matroids of 20 seeded G(n, m) graphs, n <= 7 and m <= 10."""
    x, y = sympy.symbols("x y")
    rng = random.Random(18)
    for _ in range(20):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, min(comb(n, 2), 10))
        h = networkx.gnm_random_graph(n, m, seed=rng.randrange(2**32))
        mg = MultiGraph(tuple(f"v{i}" for i in range(n)), tuple(h.edges))
        expected = sympy.Poly(networkx.tutte_polynomial(h), x, y).terms()
        terms = tuple(sorted((i, j, int(c)) for (i, j), c in expected))
        assert tutte_subset(polygon_matroid(mg)) == BivariatePolynomial(terms)


def test_front_first_recursion_is_fast_on_a_long_looped_path():
    """The recursion splits at the lowest-index vertex, so on the 20-vertex
    path with a loop on every third vertex its memo holds suffixes of the
    path, not every way of stripping the loops."""
    g = looped_path(gf2.ENUM_GATE)
    start = time.perf_counter()
    q = interlace_recursive(g)
    assert time.perf_counter() - start < 0.2
    assert q == interlace_subset(g)


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
    assert poly((1, 0, 1), (0, 1, 1)).to_text() == "x + y"
    p = poly((2, 0, 1), (1, 0, 1), (0, 1, 1))
    assert p.to_text() == "x^2 + x + y"
    assert shifted_power_term(0, 1).to_text() == "y + -1"
    assert p.to_json_terms() == [[2, 0, 1], [1, 0, 1], [0, 1, 1]]


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
    assert tutte_recursive(free_matroid("abc")) == poly((3, 0, 1))
    assert tutte_recursive(all_loops("ab")) == poly((0, 2, 1))


def test_lambda_examples():
    assert lambda_leading(free_matroid("abc")) == ONE
    assert lambda_leading(all_loops("v")) == poly((0, 0, -1), (0, 1, 1))
    assert lambda_leading(adjacency_matroid(K3)) == poly((0, 0, -1), (0, 1, 1))


def test_evaluators_agree_exhaustive_small():
    for n in range(4):
        for g in all_looped_simple_graphs(n):
            q = interlace_subset(g)
            assert q == interlace_recursive(g) == q_from_lambda(g)
            m = adjacency_matroid(g)
            assert tutte_subset(m) == tutte_recursive(m)


def point_value_faults(g: LoopedSimpleGraph) -> list[str]:
    """The point values of q(G) and of T(M_A(G)) that differ from counts read
    off g's and M_A(G)'s words, which no tally reaches."""
    m = adjacency_matroid(g)
    q, t = interlace_subset(g), tutte_subset(m)
    expected = [
        ("q(2, 2)", q.evaluate(2, 2), 2**g.n),
        ("q(2, 1)", q.evaluate(2, 1), g.nonsingular_subsets.bit_count()),
        ("T(2, 2)", t.evaluate(2, 2), 2**m.size),
        ("T(2, 1)", t.evaluate(2, 1), m._independent_bits.bit_count()),
        ("T(1, 1)", t.evaluate(1, 1), len(m.bases())),
    ]
    return [name for name, value, count in expected if value != count]


def test_point_values_match_counts_that_read_no_tally(monkeypatch):
    """q(2, 2) = 2^n, q(2, 1) = |D_G|, T(2, 2) = 2^|E|, T(2, 1) = the number
    of independent sets and T(1, 1) = the number of bases, on every graph
    with n <= 4; a conversion that adds one to every tally breaks them."""
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    assert len(graphs) == 1099
    for g in graphs:
        assert point_value_faults(g) == [], g
    shipped = polynomials._from_tally
    monkeypatch.setattr(polynomials, "_from_tally", lambda tally, n: shipped(tally + 1, n))
    g = graphs[-1]
    assert point_value_faults(g) == ["q(2, 2)", "q(2, 1)", "T(2, 2)", "T(2, 1)", "T(1, 1)"]


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
        rest, terms = interlace_recursive(g.minus(v)), interlace_vertex_terms(g)[v]
        assert _poly_sum(rest.terms, terms.terms) == q
        assert tutte_recursive(adjacency_matroid(g)) == t


def test_subset_expansions_match_recursions_seeded():
    rng = random.Random(41)
    graphs = [looped_grid(2, 10), looped_grid(3, 6)]  # thousands of memo states at index order
    for n in range(5, 11):
        labels = tuple(f"v{i}" for i in range(n))
        looped = LoopedSimpleGraph.build(labels, loops=labels)
        graphs += [random_looped_simple_graph(rng, n), looped]
        assert adjacency_matroid(looped).nullity == 0
        for m in (free_matroid(labels), all_loops(labels)):
            assert tutte_subset(m) == tutte_recursive(m)
    for g in graphs:
        assert interlace_subset(g) == interlace_recursive(g)
        m = adjacency_matroid(g)
        assert tutte_subset(m) == tutte_recursive(m)


def test_down_closed_layers_match_the_full_pivot_steps():
    """The independent-set word is down-closed, so its layers need only the
    upward half of each pivot step: equal layers on M_A(G) for every graph
    with n <= 4 and seeded ones with n = 5-10, and on U(1, 12)."""
    rng = random.Random(53)
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    graphs += [random_looped_simple_graph(rng, rng.randrange(5, 11)) for _ in range(200)]
    assert len(graphs) == 1099 + 200
    words = [(adjacency_matroid(g)._independent_bits, g.n) for g in graphs]
    words.append((1 | sum(1 << (1 << i) for i in range(12)), 12))  # U(1, 12): {} and singletons
    for bits, n in words:
        assert gf2.distance_layers(bits, n, down_closed=True) == gf2.distance_layers(bits, n)


def test_vertex_terms_identity():
    for g in all_looped_simple_graphs(3):
        q = interlace_subset(g)
        terms = interlace_vertex_terms(g)
        assert set(terms) == set(g.labels)
        for v in g.labels:
            assert _poly_sum(interlace_subset(g.minus(v)).terms, terms[v].terms) == q


def test_tutte_duality_swap():
    for g in all_looped_simple_graphs(3):
        m = adjacency_matroid(g)
        assert _poly_sum((j, i, c) for i, j, c in tutte_subset(m).terms) == tutte_subset(m.dual())


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
