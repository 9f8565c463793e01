"""Kernel tests: rank, nullspace, complements, the symmetric construction.

Derived expectations are computed by brute-force enumeration oracles kept
in this file, independent of the packed-row elimination they check, and by
reference eliminations of another design: a dict keyed by lowest set bit
for rank, and Gauss-Jordan keyed by highest set bit for the nullspace.
"""

import itertools
import random

import pytest

from adjmatroid.gf2 import (
    BitMatrix,
    Subspace,
    drop_bit,
    gather,
    nonsingular_subsets,
    nullity,
    nullspace,
    orthogonal_complement,
    principal_submatrix,
    rank,
    rref_masks,
    scatter,
    set_bits,
    symmetrize_nullspace,
)
from adjmatroid import gf2
from adjmatroid.binary_matroid import BinaryMatroid
from adjmatroid.four_regular import (
    HalfEdgeGraph,
    TransitionSystem,
    euler_system,
    file_order_partition,
    partition_from_transitions,
    random_four_regular,
    relative_interlacement,
)
from adjmatroid.graph import LoopedSimpleGraph, all_looped_simple_graphs, random_looped_simple_graph
from adjmatroid.verify import _all_subspaces

A_K3 = BitMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
A_K3L = BitMatrix.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 0]])


def brute_nullspace(m: BitMatrix) -> set[int]:
    return {v for v in range(1 << m.cols) if m.mul_mask(v) == 0}


def brute_orthogonal(vectors: set[int], dim: int) -> set[int]:
    return {
        w
        for w in range(1 << dim)
        if all((w & v).bit_count() % 2 == 0 for v in vectors)
    }


def full(ambient_dim: int) -> Subspace:
    """All of GF(2)^ambient_dim, in canonical form."""
    return Subspace(ambient_dim, tuple(1 << i for i in range(ambient_dim)))


def span_of(subspace: Subspace) -> set[int]:
    return set(subspace.vectors())


def test_rank_examples():
    assert rank(BitMatrix(3, 3, (0, 0, 0))) == 0
    assert rank(BitMatrix(3, 3, (1, 2, 4))) == 3
    assert rank(A_K3) == 2


def test_rank_counts_the_rref_rows():
    """The forward elimination against the canonical RREF, on every square
    matrix with n <= 3 and on seeded ones up to n = 150."""
    for n in range(4):
        for rows in itertools.product(range(1 << n), repeat=n):
            assert rank(BitMatrix(n, n, rows)) == len(rref_masks(rows))
    rng = random.Random(4)
    for n in (5, 9, 20, 64, 150):
        for density in (0.05, 0.5):
            rows = tuple(
                sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
            )
            assert rank(BitMatrix(n, n, rows)) == len(rref_masks(rows))
        low = [rng.randrange(1 << n) for _ in range(n // 2)]
        rows = tuple(low[rng.randrange(len(low))] ^ low[rng.randrange(len(low))] for _ in range(n))
        assert rank(BitMatrix(n, n, rows)) == len(rref_masks(rows))


def reduce_as_you_go(vectors) -> tuple[int, ...]:
    """RREF by the other order of work: each new row is reduced against the
    pivot rows so far, then clears its own pivot from all of them."""
    by_pivot: dict[int, int] = {}
    for v in vectors:
        for p, b in by_pivot.items():
            if (v >> p) & 1:
                v ^= b
        if v:
            q = (v & -v).bit_length() - 1
            for p in list(by_pivot):
                if (by_pivot[p] >> q) & 1:
                    by_pivot[p] ^= v
            by_pivot[q] = v
    return tuple(by_pivot[p] for p in sorted(by_pivot))


def test_rref_masks_matches_reduce_as_you_go():
    """On every list of up to 3 vectors in GF(2)^4 and on 2,000 seeded lists
    with 1-64 columns; every result is a canonical basis."""
    small = [rows for k in range(4) for rows in itertools.product(range(16), repeat=k)]
    rng = random.Random(7)
    seeded = []
    for _ in range(2000):
        cols = rng.randrange(1, 65)
        seeded.append((cols, [rng.getrandbits(cols) for _ in range(rng.randrange(cols + 3))]))
    for cols, rows in [(4, rows) for rows in small] + seeded:
        basis = rref_masks(rows)
        assert basis == reduce_as_you_go(rows)
        assert Subspace(cols, basis).basis == basis


def test_nullity_examples():
    assert nullity(BitMatrix(3, 3, (0, 0, 0))) == 3
    assert nullity(A_K3) == 1
    assert nullity(A_K3L) == 0


def test_nullspace_examples():
    assert nullspace(BitMatrix(2, 2, (1, 2))).basis == ()
    k3_kernel = nullspace(A_K3)
    assert span_of(k3_kernel) == brute_nullspace(A_K3) == {0, 0b111}
    assert k3_kernel.basis == (0b111,)
    single = nullspace(BitMatrix.from_rows([[1, 1]]))
    assert single.basis == (0b11,)


def test_from_rows_rejects_entries_other_than_0_and_1():
    for entries in ([[2]], [[1, -1]]):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            BitMatrix.from_rows(entries)
    assert BitMatrix.from_rows([[1, 0], [0, 1]]) == BitMatrix(2, 2, (1, 2))


def test_nullspace_is_the_canonical_span_of_the_brute_force_kernel():
    def expected(a: BitMatrix) -> Subspace:
        return Subspace.span(a.cols, sorted(brute_nullspace(a)))

    for rows in range(4):
        for cols in range(4):
            for entries in range(1 << (rows * cols)):
                data = tuple((entries >> (cols * i)) & ((1 << cols) - 1) for i in range(rows))
                a = BitMatrix(rows, cols, data)
                assert nullspace(a) == expected(a), a
    rng = random.Random(43)
    for _ in range(2000):
        rows, cols = rng.randrange(9), rng.randrange(9)
        a = BitMatrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))
        assert nullspace(a) == expected(a), a


def reference_rank(m: BitMatrix) -> int:
    """Rank by forward elimination keyed by lowest set bit in a dict."""
    pivots: dict[int, int] = {}
    for v in m.data:
        while (low := v & -v) in pivots:
            v ^= pivots[low]
        if v:
            pivots[low] = v
    return len(pivots)


def reference_nullspace(m: BitMatrix) -> tuple[int, ...]:
    """The canonical kernel basis by Gauss-Jordan keyed by highest set bit:
    a fully reduced row is its pivot plus free columns below it, so the
    kernel vector of free column f is f plus the pivots of the rows
    holding f."""
    by_top: dict[int, int] = {}
    for v in m.data:
        for top, b in by_top.items():
            if v & top:
                v ^= b
        if v:
            top = 1 << (v.bit_length() - 1)
            for q, b in by_top.items():
                if b & top:
                    by_top[q] = b ^ v
            by_top[top] = v
    free = ((1 << m.cols) - 1) ^ sum(by_top)
    kernel = {1 << f: 1 << f for f in set_bits(free)}
    for top, r in by_top.items():
        for f in set_bits(r ^ top):
            kernel[1 << f] |= top
    return tuple(kernel[k] for k in sorted(kernel))


def kernel_cases() -> list[BitMatrix]:
    """Every matrix of every shape up to 3 x 3, seeded symmetric and dense
    square ones at n = 64, 150 and 400, wide and tall seeded ones, and the
    relative interlacements of seeded 4-regular graphs at n = 150 and 600,
    against a seeded partition and the file-order one."""
    cases = [
        BitMatrix(rows, cols, tuple((entries >> (cols * i)) & ((1 << cols) - 1) for i in range(rows)))
        for rows in range(4)
        for cols in range(4)
        for entries in range(1 << (rows * cols))
    ]
    rng = random.Random(22)
    for n in (64, 150, 400):
        rows = [0] * n
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        cases.append(BitMatrix(n, n, tuple(rows)))
        cases.append(BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n))))
    for rows, cols in ((2, 9), (5, 64), (150, 600), (9, 4), (100, 30)):
        cases.append(BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows))))
    for n in (150, 600):
        f = HalfEdgeGraph(random_four_regular(rng, n))
        pairs = [pair for v in range(f.n) for pair in rng.choice(f.transitions_at(v))]
        seeded = partition_from_transitions(f, TransitionSystem.from_pairs(f, pairs))
        for p in (seeded, file_order_partition(f)):
            cases.append(relative_interlacement(euler_system(f), p).adj)
    return cases


def test_echelon_kernels_match_the_dict_eliminations():
    """rank and nullspace on the highest-bit echelon form against the
    lowest-bit dict rank and the Gauss-Jordan nullspace."""
    for a in kernel_cases():
        assert rank(a) == reference_rank(a), a
        assert nullspace(a).basis == reference_nullspace(a), a


def test_orthogonal_complement_examples():
    assert orthogonal_complement(Subspace.zero(3)) == full(3)
    comp = orthogonal_complement(Subspace.span(3, [0b111]))
    assert span_of(comp) == brute_orthogonal({0b111}, 3)
    # canonical form: pivots 0 and 1, each pivot column holding a single 1
    assert comp.basis == (0b101, 0b110)


def test_orthogonal_complement_involution():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(7)
        w = Subspace.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(4))])
        comp = orthogonal_complement(w)
        assert comp.dim + w.dim == n
        assert orthogonal_complement(comp) == w


def test_symmetrize_degenerate_cases():
    assert symmetrize_nullspace(BitMatrix(2, 3, (0, 0))) == BitMatrix(3, 3, (0, 0, 0))
    assert symmetrize_nullspace(BitMatrix(3, 3, (1, 2, 4))) == BitMatrix(3, 3, (1, 2, 4))


def test_symmetrize_single_row():
    b = symmetrize_nullspace(BitMatrix.from_rows([[1, 1]]))
    assert b == BitMatrix.from_rows([[1, 1], [1, 1]])


def test_symmetrize_random_matches_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        a = BitMatrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))
        b = symmetrize_nullspace(a)
        assert b.rows == b.cols == cols
        assert b.is_symmetric
        assert brute_nullspace(b) == brute_nullspace(a)


def symmetrize_by_blocks(a: BitMatrix) -> BitMatrix:
    """The block construction: row-reduce a to [I | C] up to a column
    permutation, paste C and its transpose around I, fill the remaining
    block with C^T C, and undo the permutation."""
    n = a.cols
    rows = rref_masks(a.data)
    r = len(rows)
    if r == 0:
        return BitMatrix(n, n, (0,) * n)
    if r == n:
        return BitMatrix(n, n, tuple(1 << i for i in range(n)))
    pivots = [(v & -v).bit_length() - 1 for v in rows]
    free = [j for j in range(n) if j not in set(pivots)]
    order = pivots + free  # column j of the permuted matrix is column order[j] of a
    cpp = [gather(v, free) for v in rows]
    cpp_t = [sum(((c >> k) & 1) << i for i, c in enumerate(cpp)) for k in range(len(free))]
    bp = [(1 << i) | (c << r) for i, c in enumerate(cpp)]
    for c in cpp_t:
        parities = sum(((c & d).bit_count() & 1) << k for k, d in enumerate(cpp_t))
        bp.append(c | (parities << r))
    out = [0] * n
    for i, row in enumerate(bp):
        out[order[i]] = scatter(row, order)
    return BitMatrix(n, n, tuple(out))


def test_symmetrize_matches_the_block_construction():
    """R^T R against the blocks [[I, C], [C^T, C^T C]] on all 689 matrices
    with at most 3 rows and 3 columns, and on 20,000 seeded ones up to 9 x 11."""
    small = [
        BitMatrix(rows, cols, data)
        for rows in range(4) for cols in range(4)
        for data in itertools.product(range(1 << cols), repeat=rows)
    ]
    assert len(small) == 689
    rng = random.Random(29)
    seeded = []
    for _ in range(20000):
        rows, cols = rng.randrange(10), rng.randrange(12)
        seeded.append(BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows))))
    for a in small + seeded:
        assert symmetrize_nullspace(a) == symmetrize_by_blocks(a)


def test_symmetrize_realizes_every_small_binary_matroid():
    """Jaeger's theorem on every subspace W of GF(2)^n, n <= 5: from a basis
    R of W's complement, the symmetric matrix has nullspace W, so its
    column matroid is the binary matroid with cycle space W."""
    count = 0
    for n in range(6):
        labels = tuple(f"v{i}" for i in range(n))
        for w in _all_subspaces(n):
            r = orthogonal_complement(w)
            b = symmetrize_nullspace(BitMatrix(r.dim, n, r.basis))
            assert b.is_symmetric
            assert nullspace(b) == w
            assert BinaryMatroid.from_matrix(b, labels) == BinaryMatroid(labels, w)
            count += 1
    assert count == 465


def test_principal_submatrix():
    assert principal_submatrix(A_K3, [0, 1, 2]) == A_K3
    empty = principal_submatrix(A_K3, [])
    assert empty.rows == empty.cols == 0
    assert nullity(empty) == 0
    assert principal_submatrix(A_K3L, [0]) == BitMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        principal_submatrix(A_K3, [3])
    with pytest.raises(ValueError):
        principal_submatrix(BitMatrix(2, 3, (0, 0)), [0])


def test_derived_matrices_and_subspaces_pass_their_constructors():
    """transpose, principal_submatrix and permuted build unchecked after
    their own index checks; each output, rebuilt through the validating
    constructor, is accepted and equal, and means what it says."""
    rng = random.Random(4317)
    for _ in range(300):
        rows, cols = rng.randrange(8), rng.randrange(8)
        a = BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        t = a.transpose()
        assert BitMatrix(t.rows, t.cols, t.data) == t and (t.rows, t.cols) == (cols, rows)
        assert all(t.entry(j, i) == a.entry(i, j) for i in range(rows) for j in range(cols))
        assert t.transpose() == a
        square = BitMatrix(cols, cols, [rng.getrandbits(cols) for _ in range(cols)])
        idx = [i for i in range(cols) if rng.random() < 0.5]
        sub = principal_submatrix(square, rng.sample(idx * 2, 2 * len(idx)))  # repeated, shuffled
        assert BitMatrix(sub.rows, sub.cols, sub.data) == sub
        assert [[sub.entry(p, q) for q in range(len(idx))] for p in range(len(idx))] == [
            [square.entry(i, j) for j in idx] for i in idx
        ]
        w = Subspace.span(cols, a.data)
        perm = rng.sample(range(cols), cols)
        moved = w.permuted(perm)
        assert Subspace(moved.ambient_dim, moved.basis) == moved
        assert set(moved.vectors()) == {scatter(v, perm) for v in w.vectors()}
    with pytest.raises(ValueError, match="not a permutation of the coordinates"):
        Subspace.span(3, [0b11]).permuted([0, 1, 1])


def test_cached_runs_its_function_once_per_object():
    """The first read computes and stores in the instance __dict__, later
    reads find the stored value; .func is the function, and replacing it
    changes what the next new object computes."""
    calls = []

    class Holder:
        @gf2.cached
        def value(self):
            """The doc."""
            calls.append(self)
            return len(calls)

    descriptor = Holder.__dict__["value"]
    assert Holder.value is descriptor and descriptor.__doc__ == "The doc."
    first, second = Holder(), Holder()
    assert "value" not in vars(first)
    assert [first.value, first.value, second.value, first.value, second.value] == [1, 1, 2, 1, 2]
    assert calls == [first, second] and vars(first) == {"value": 1}
    compute = descriptor.func
    descriptor.func = lambda h: compute(h) * 10
    assert Holder().value == 30 and first.value == 1
    g = random_looped_simple_graph(random.Random(3), 5)
    assert g.nonsingular_subsets == nonsingular_subsets(g.adj) == vars(g)["nonsingular_subsets"]


def planes_at(planes, mask):
    """The number of planes set at subset mask."""
    return sum((p >> mask) & 1 for p in planes)


def test_principal_nullities_match_submatrix_nullity(principal_planes):
    rng = random.Random(5)
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    graphs += [random_looped_simple_graph(rng, n) for n in range(5, 11) for _ in range(3)]
    assert len(graphs) == 75 + 1024 + 18
    for g in graphs:
        planes = principal_planes(g.adj)
        assert len(planes) == g.n
        # row i can only be a pivot row of the subsets containing i
        assert all((s >> i) & 1 for i, p in enumerate(planes) for s in set_bits(p))
        for mask in range(1 << g.n):
            idx = [i for i in range(g.n) if (mask >> i) & 1]
            assert len(idx) - planes_at(planes, mask) == nullity(principal_submatrix(g.adj, idx))


def test_nonsingular_subsets_match_principal_rank(principal_planes):
    """Bit S of the cover-parity word is set iff a[S, S] has full rank, on all
    1,099 graphs with n <= 4, then seeded, edgeless, all-looped and complete
    ones with n = 5-12; it is also the subsets where every vertex owns a plane."""
    rng = random.Random(32)
    graphs = [g for n in range(5) for g in all_looped_simple_graphs(n)]
    for n in range(5, 13):
        labels = tuple(f"v{i}" for i in range(n))
        pairs = list(itertools.combinations(labels, 2))
        graphs += [random_looped_simple_graph(rng, n) for _ in range(2)]
        graphs += [
            LoopedSimpleGraph.build(labels),
            LoopedSimpleGraph.build(labels, loops=labels),
            LoopedSimpleGraph.build(labels, pairs),
            LoopedSimpleGraph.build(labels, pairs, labels),
        ]
    assert len(graphs) == 1099 + 8 * 6
    for g in graphs:
        word = nonsingular_subsets(g.adj)
        expected = sum(
            1 << mask for mask in range(1 << g.n)
            if rank(principal_submatrix(g.adj, set_bits(mask))) == mask.bit_count()
        )
        assert word == expected
        every_vertex_pivots = (1 << (1 << g.n)) - 1
        for plane, (zero, _) in zip(principal_planes(g.adj), gf2.coord_masks(g.n)):
            every_vertex_pivots &= plane | zero
        assert word == every_vertex_pivots


def test_subset_nullities_match_restriction(restricted, column_masked_planes):
    rng = random.Random(6)
    spaces = [w for n in range(5) for w in _all_subspaces(n)]
    assert len(spaces) == 1 + 2 + 5 + 16 + 67
    for n in range(5, 11):
        for k in range(n + 1):
            spaces.append(Subspace.span(n, [rng.randrange(1 << n) for _ in range(k)]))
    for w in spaces:
        planes = column_masked_planes(w)
        assert len(planes) == w.dim
        for mask in range(1 << w.ambient_dim):
            assert w.dim - planes_at(planes, mask) == restricted(w, mask).dim


def test_count_masks_and_set_bits(count_masks):
    rng = random.Random(8)
    for n in range(6):
        for k in range(9):
            planes = [rng.randrange(1 << (1 << n)) for _ in range(k)]
            at_count = count_masks(planes, n)
            for mask in range(1 << n):
                expected = [int(c == planes_at(planes, mask)) for c in range(k + 1)]
                assert [(m >> mask) & 1 for m in at_count] == expected
    assert set_bits(0) == []
    assert set_bits(0b101001) == [0, 3, 5]


def test_set_bit_readers_refuse_a_negative_int():
    """A negative int has set bits without end: row_bits would walk forever
    and set_bits would read the digits of its absolute value."""
    for x in (-1, -5, -(1 << 70)):
        with pytest.raises(ValueError, match=f"^set bits of a negative int {x}$"):
            set_bits(x)
        with pytest.raises(ValueError, match=f"^set bits of a negative int {x}$"):
            next(gf2.row_bits(x))
    for x in (0, 1, 0b101001, 1 << 70 | 6):
        expected = [i for i in range(x.bit_length()) if x >> i & 1]
        assert set_bits(x) == list(gf2.row_bits(x)) == expected
    assert list(gf2.row_bits(0)) == [] and list(gf2.row_bits(0b101001)) == [0, 3, 5]


def test_size_masks_match_a_popcount_table():
    assert gf2.size_masks(0) == (1,)
    for n in range(13):
        expected = [0] * (n + 1)
        for s in range(1 << n):
            expected[s.bit_count()] |= 1 << s
        assert gf2.size_masks(n) == tuple(expected)


def test_gather_and_scatter():
    assert gather(0b101100, [5, 2, 0, 3]) == 0b1011
    assert scatter(0b1011, [5, 2, 0, 3]) == 0b101100
    rng = random.Random(9)
    for _ in range(100):
        positions = rng.sample(range(10), rng.randrange(11))
        v = rng.randrange(1 << len(positions))
        assert gather(scatter(v, positions), positions) == v


def test_drop_bit_gathers_every_other_bit():
    for n in range(1, 7):
        for i in range(n):
            rest = [k for k in range(n) if k != i]
            for v in range(1 << n):
                assert drop_bit(v, i) == gather(v, rest)


def test_subset_kernels_refuse_above_the_gate(monkeypatch):
    # the gate comes before any 2^n-bit mask is built
    def masks(_):
        raise AssertionError("a subset kernel built masks above the gate")

    monkeypatch.setattr(gf2, "coord_masks", masks)  # every word step builds its masks here
    for w in (Subspace.zero(21), full(21)):
        m = BinaryMatroid(tuple(f"v{i}" for i in range(21)), w)
        with pytest.raises(ValueError, match="independent set scan is gated"):
            m.independent_masks()
    for a in (BitMatrix(21, 21, (0,) * 21), BitMatrix(21, 21, tuple(1 << i for i in range(21)))):
        with pytest.raises(ValueError):
            nonsingular_subsets(a)
    with pytest.raises(ValueError):
        nonsingular_subsets(BitMatrix(2, 3, (0, 0)))


def test_rank_nullity_additivity():
    rng = random.Random(3)
    for _ in range(100):
        rows, cols = rng.randrange(6), rng.randrange(6)
        a = BitMatrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))
        assert rank(a) + nullity(a) == cols
        assert rank(a) == rank(a.transpose())
        for v in nullspace(a).basis:
            assert a.mul_mask(v) == 0


def flipped(a: BitMatrix, *cells: tuple[int, int]) -> BitMatrix:
    """a with the entry at each (row, column) cell flipped."""
    rows = list(a.data)
    for i, j in cells:
        rows[i] ^= 1 << j
    return BitMatrix(a.rows, a.cols, tuple(rows))


def test_is_symmetric_matches_the_transpose():
    """Every matrix up to 3x3; seeded symmetric ones up to n = 20 with one
    entry flipped above or below the diagonal, or two flipped that keep as
    many entries above as below but leave one without its mirror."""
    square = [
        BitMatrix(n, n, tuple((packed >> (n * i)) & ((1 << n) - 1) for i in range(n)))
        for n in range(4)
        for packed in range(1 << (n * n))
    ]
    rng = random.Random(4)
    for n in range(4, 9):
        g = random_looped_simple_graph(rng, n)
        square += [g.adj, flipped(g.adj, rng.sample(range(n), 2))]
    balanced = 0
    for n in range(2, 21):
        for _ in range(3):
            a = random_looped_simple_graph(rng, n).adj
            i, j = sorted(rng.sample(range(n), 2))  # (i, j) lies above the diagonal
            square += [flipped(a, (i, j)), flipped(a, (j, i))]
            below = [
                (k, m) for k in range(n) for m in range(k)
                if (k, m) != (j, i) and a.entry(k, m) == a.entry(i, j)
            ]
            if below:  # both flips set an entry, or both clear one
                square.append(flipped(a, (i, j), rng.choice(below)))
                balanced += 1
    for a in square:
        assert a.is_symmetric == (a.data == a.transpose().data)
    assert sum(a.is_symmetric for a in square) == 1 + 2 + 8 + 64 + 5
    assert balanced == 53  # of 57: n = 2 has no other cell below, one n = 3 draw no match
    assert not BitMatrix(2, 3, (0b010, 0b001)).is_symmetric


def test_subspace_canonical_invariants():
    w = Subspace.span(4, [0b1010, 0b0110, 0b1100])
    pivots = [m & -m for m in w.basis]
    assert pivots == sorted(pivots)
    for i, m in enumerate(w.basis):
        for j, other in enumerate(w.basis):
            if i != j:
                assert other & (m & -m) == 0
    # same span, any generating order
    assert Subspace.span(4, [0b0110, 0b1100, 0b1010, 0b1010]) == w


def test_subspace_validation_errors():
    with pytest.raises(ValueError):
        Subspace(2, (0,))
    with pytest.raises(ValueError):
        Subspace(2, (0b11, 0b01))
    with pytest.raises(ValueError):
        Subspace.span(2, [0b100])


def test_subspace_check_matches_rref_on_every_small_basis():
    # the O(dim) construction check accepts exactly the canonical RREF bases
    accepted = 0
    for k in range(4):
        for basis in itertools.product(range(-1, 9), repeat=k):
            canonical = all(0 <= v < 8 for v in basis) and rref_masks(basis) == basis
            if canonical:
                assert Subspace(3, basis).basis == basis
                accepted += 1
            else:
                with pytest.raises(ValueError):
                    Subspace(3, basis)
    # one canonical basis for each of the 16 subspaces of GF(2)^3
    assert accepted == 16


def test_subspace_enumeration_gate():
    with pytest.raises(ValueError):
        list(full(21).vectors())


def test_restricted_to():
    """Restriction to a mask, through rank_of and delete: the cycles inside
    the first two elements, inside all four, and inside none."""
    m = BinaryMatroid(("a", "b", "c", "d"), Subspace.span(4, [0b0011, 0b1100]))
    assert m.delete("d").delete("c").cycle_space == Subspace.span(2, [0b11])
    assert m.rank_of("ab") == 1
    assert m.rank_of("abcd") == m.rank == 2
    assert m.rank_of("") == 0


def test_all_subspaces_counts():
    # Galois numbers: total subspaces of GF(2)^n
    expected = {0: 1, 1: 2, 2: 5, 3: 16, 4: 67, 5: 374}
    for n, count in expected.items():
        seen = list(_all_subspaces(n))
        assert len(seen) == count
        assert len(set(seen)) == count
