"""Exact integer bivariate polynomials and the nullity-weighted graph and
matroid polynomial evaluators.

BivariatePolynomial is a value with no arithmetic, built by _from_tally, which
all four evaluators end in, and by shifted_power_term, the binomial form behind
lambda_leading; the sum and product of verify's oracles live beside them.

Every evaluator builds its polynomial packed in one int, in x and y: the
coefficient of x^i y^j at bit i*U + j*W, U = W(n + 1), W a native int width:
32 bits while 2n + 2 <= 32, else 64.  Packing is the ring map x -> 2^U,
y -> 2^W, so each rule is shifts and adds: times y is << W, times x is << U,
times x - 1 is (R << U) - R.  Both polynomials sum (x-1)^a (y-1)^b over
subsets.  The subset expansions read nullities as distances from a family
word: the graph's delta-matroid (the memoized word from_graph shares), or the
matroid's independent sets, a nearest of which to S being a largest one inside
S; that word is down-closed, so its layers take only the upward half of each
pivot step.  They count each layer by size and expand the counts by Horner's
rule, one shift and one subtraction per step.  The distance layers, the size masks and
the enumeration gate are `gf2`'s.  The recursions memoize packed polynomials,
keyed by the adjacency rows alone or by size and canonical cycle-space basis.
One read takes the polynomial out: 2^(W-1) added to each slot, then xor with
that bias leaves two's complement.

Slot bound: a + b <= n over 2^n subsets, so i + j <= n and each coefficient
is at most sum 2^(a+b) <= 2^(2n) < 2^(W-1) in size while 2n + 2 <= W, which
holds for n <= 31: each biased slot stays in [0, 2^W), and no borrow crosses
a slot.  Only the final polynomial must fit, so negative or wide partial sums
in Horner's rule and the recursions are harmless.  _shifts refuses n > 31, so
no call reads past the bound; ENUM_GATE keeps every call well inside it.

The recursions are slow references, which live beside verify's checks unless
the CLI or the benchmark needs them: bench/workloads.py checks against them.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import compress
from math import comb
from operator import itemgetter

from .binary_matroid import BinaryMatroid
from .gf2 import Frozen, check_enum_gate, distance_layers, row_bits, rref_masks, size_masks, unchecked
from .graph import LoopedSimpleGraph, _drop_index, _local_complement_at


class BivariatePolynomial(Frozen):
    """Integer polynomial in x and y, a value: terms sorted, zero coefficients absent."""

    terms: tuple[tuple[int, int, int], ...]  # (x exponent, y exponent, coefficient)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(map(tuple, self.terms)))
        seen = set()
        for i, j, c in self.terms:
            if c == 0 or i < 0 or j < 0:
                raise ValueError("terms must be nonzero with nonnegative exponents")
            seen.add((i, j))
        if len(seen) != len(self.terms):
            raise ValueError("duplicate monomials")
        if tuple(sorted(self.terms)) != self.terms:
            raise ValueError("terms out of order")

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for i, j, c in self.terms)

    def to_text(self) -> str:
        """Terms as `c x^i y^j` joined by ` + `, descending in (i, j)."""
        if not self.terms:
            return "0"
        parts = []
        for i, j, c in sorted(self.terms, reverse=True):
            factors = []
            if c != 1 or (i == 0 and j == 0):
                factors.append(str(c))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            parts.append(" ".join(factors))
        return " + ".join(parts)

    def to_json_terms(self) -> list[list[int]]:
        return [[i, j, c] for i, j, c in sorted(self.terms, reverse=True)]


@lru_cache(maxsize=None)
def shifted_power_term(a: int, b: int) -> BivariatePolynomial:
    """(x-1)^a (y-1)^b by the binomial theorem, its terms built sorted and
    nonzero; polynomials are frozen, so each exponent pair is expanded once."""
    terms = tuple((i, j, (-1) ** (a - i + b - j) * comb(a, i) * comb(b, j))
                  for i in range(a + 1) for j in range(b + 1))
    return unchecked(BivariatePolynomial, terms=terms)


def _shifts(n: int) -> tuple[int, int]:
    """(W, U): a left shift by W multiplies an n-element packing by y, by U by x.
    Past n = 31 no native width holds the slot bound, so n is refused."""
    if 2 * n + 2 > 64:
        raise ValueError(f"packed polynomials are exact up to 31 elements, got {n}")
    w = 32 if 2 * n + 2 <= 32 else 64
    return w, w * (n + 1)


@lru_cache(maxsize=None)
def _slot_reader(n: int) -> tuple[int, itemgetter, tuple, tuple]:
    """The bias 2^(W-1) in each of the (n + 1)^2 slots; a getter of the slots
    with i + j <= n, where every term lies, in ascending (i, j), and their i and j."""
    w, u = _shifts(n)
    bias = ((1 << (n + 1) * u) - 1) // ((1 << w) - 1) << w - 1
    i_exp, j_exp = zip(*((i, j) for i in range(n + 1) for j in range(n + 1 - i)))
    # slot 0 again at the end keeps the getter's result a tuple at n = 0; zip drops it
    triangle = itemgetter(*(i * (n + 1) + j for i, j in zip(i_exp, j_exp)), 0)
    return bias, triangle, i_exp, j_exp


def _from_tally(tally: int, n: int) -> BivariatePolynomial:
    """The polynomial packed in tally: the biased slots xor the bias, then the
    signed slots of the i + j <= n triangle read in C in ascending (i, j), so
    the terms come out sorted (big-endian: top first)."""
    bias, triangle, i_exp, j_exp = _slot_reader(n)
    w, u = _shifts(n)
    data = ((tally + bias) ^ bias).to_bytes(u * (n + 1) // 8, sys.byteorder)
    slots = memoryview(data).cast("i" if w == 32 else "q")[:: -1 if sys.byteorder == "big" else 1]
    counts = triangle(slots)
    return unchecked(BivariatePolynomial, terms=tuple(compress(zip(i_exp, j_exp, counts), counts)))


def _layer_tally(layers: list[int], n: int, top: int, sign: int) -> int:
    """The packed polynomial of the distance layers: S in layer d (d <= |S|,
    as the empty set is a member) has rank |S| - d and adds
    (x-1)^(top + sign*rank) (y-1)^d.  Each layer's counts by size expand in x
    by Horner's rule, highest power first, and the layers in y, last first.
    The layers cover every subset, so the last counts what the others left."""
    w, u = _shifts(n)
    sizes = size_masks(n)
    left = [mask.bit_count() for mask in sizes]  # C(n, size)
    last, rows = len(layers) - 1, []
    for d, layer in enumerate(layers):
        row = 0
        for size in range(n, d - 1, -1) if sign > 0 else range(d, d + top + 1):
            k = left[size] if d == last else (layer & sizes[size]).bit_count()
            left[size] -= k
            row = (row << u) - row + k
        rows.append(row)
    tally = 0
    for row in reversed(rows):
        tally = (tally << w) - tally + row
    return tally


def interlace_subset(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Sum over vertex subsets X of (x-1)^(|X|-d) (y-1)^d, d = d(X) the
    nullity of the induced adjacency submatrix: X's distance layer."""
    layers = distance_layers(g.nonsingular_subsets, g.n)  # the memo is gated
    return _from_tally(_layer_tally(layers, g.n, 0, 1), g.n)


def interlace_recursive(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Vertex reduction at index 0 on the adjacency rows, memoized by the rows
    alone; each subproblem is a suffix changed near its front.  If 0 or a
    neighbor is looped, the first such w splits off the rows without w and the
    complement at w; else a neighbor w of 0 splits through the three-step
    complement at 0, w, 0; else 0 is isolated, a factor y."""
    check_enum_gate(g.n, "interlace recursion")
    y_shift, x_shift = _shifts(g.n)
    memo: dict[tuple[int, ...], int] = {(): 1}  # the empty graph

    def rec(rows: tuple[int, ...]) -> int:
        if (hit := memo.get(rows)) is not None:
            return hit
        row = rows[0]  # index 0's loop bit and its neighbors
        looped = next((i for i in row_bits(row) if rows[i] >> i & 1), None)
        if looped is not None:
            other = rec(_drop_index(_local_complement_at(rows, looped), looped))  # times x - 1
            value = rec(_drop_index(rows, looped)) + (other << x_shift) - other
        elif not row:
            value = rec(_drop_index(rows, 0)) << y_shift  # times y
        else:
            w = next(row_bits(row))
            three = _local_complement_at(_local_complement_at(_local_complement_at(rows, 0), w), 0)
            rest = _drop_index(three, 0)
            both = rec(_drop_index(rest, w - 1)) << x_shift  # times (x-1)^2 - 1 = x(x - 2)
            value = rec(_drop_index(rows, 0)) + rec(rest) + (both << x_shift) - (both << 1)
        memo[rows] = value
        return value

    return _from_tally(rec(g.adj.data), g.n)


def tutte_subset(m: BinaryMatroid) -> BivariatePolynomial:
    """Rank generating subset expansion of the Tutte polynomial: S adds
    (x-1)^(r - r(S)) (y-1)^nu(S), nu(S) = |S| - r(S) its distance layer."""
    layers = distance_layers(m._independent_bits, m.size, down_closed=True)  # the word is gated
    return _from_tally(_layer_tally(layers, m.size, m.rank, -1), m.size)


def tutte_recursive(m: BinaryMatroid) -> BivariatePolynomial:
    """Deletion/contraction at element 0 on the canonical cycle-space basis,
    memoized by size and basis: only basis[0] can hold bit 0, so element 0 is
    a coloop iff no row holds it and a loop iff basis[0] is 1."""
    check_enum_gate(m.size, "Tutte recursion")
    y_shift, x_shift = _shifts(m.size)
    memo: dict[tuple[int, tuple[int, ...]], int] = {(0, ()): 1}  # the empty matroid

    def rec(size: int, basis: tuple[int, ...]) -> int:
        key = (size, basis)
        if (hit := memo.get(key)) is not None:
            return hit
        held = basis[0] & 1 if basis else 0  # whether basis[0] holds element 0
        deleted = rec(size - 1, tuple(b >> 1 for b in basis[held:]))  # the other rows
        if held and basis[0] != 1:  # the contraction: every row without bit 0, reduced again
            value = rec(size - 1, rref_masks(b >> 1 for b in basis)) + deleted
        else:  # a loop, times y, or a coloop, times x
            value = deleted << (y_shift if held else x_shift)
        memo[key] = value
        return value

    return _from_tally(rec(m.size, m.cycle_space.basis), m.size)


def lambda_leading(m: BinaryMatroid) -> BivariatePolynomial:
    """(y-1) to the nullity: the full-ground-set term of the Tutte polynomial."""
    return shifted_power_term(0, m.nullity)
