"""Exact integer bivariate polynomials and the nullity-weighted graph and
matroid polynomial evaluators.

BivariatePolynomial is a value with no arithmetic, built by _from_tally, which
all four evaluators end in, and by shifted_power_term, the binomial form behind
lambda_leading; the sum and product of verify's oracles live beside them.

Both polynomials sum u^a v^b over subsets, u = x-1 and v = y-1, so every
evaluator builds one tally of (a, b) counts packed in an int: u^a v^b at
bit a*U + b*W, U = W(n + 1), W a native int width: 32 bits while
2n + 2 <= 32, else 64.  The subset expansions read nullities as distances
from a family word: the graph's delta-matroid (the memoized word from_graph
shares), or the matroid's independent sets, a nearest of which to S being
a largest one inside S.  The distance layers, the size masks and the
enumeration gate are `gf2`'s.  The recursions memoize tallies, so each rule
is shifts and adds.  One conversion reads the polynomial in x and y out of
a tally: 2^(W-1) added to each slot, each Taylor shift is at most n
masked whole-int steps, and xor with that bias leaves two's complement.

Slot bound: a + b <= n and the counts sum to 2^n, so every partial sum of
the shifts is at most sum c_ab 2^(a+b) <= 2^(2n) < 2^(W-1) in size: each
biased slot stays in [0, 2^W), and no borrow crosses a slot.  Packing is a
ring map, so negative partial sums in the recursions are harmless: their
final tally is the subset one.

The recursions are slow references, which live beside verify's checks unless
the CLI or the benchmark needs them: bench/workloads.py checks against them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import comb
from operator import itemgetter

from .binary_matroid import BinaryMatroid
from .gf2 import check_enum_gate, distance_layers, lowest_bit, set_bits, size_masks, unchecked
from .graph import LoopedSimpleGraph


@dataclass(frozen=True)
class BivariatePolynomial:
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
    """(W, U): a left shift by W multiplies an n-element tally by v, by U by u."""
    w = 32 if 2 * n + 2 <= 32 else 64
    return w, w * (n + 1)


@lru_cache(maxsize=None)
def _taylor_steps(n: int) -> tuple[int, tuple[tuple[int, int, int], ...], itemgetter, tuple, tuple]:
    """The bias 2^(W-1) in each of the (n + 1)^2 slots; the Taylor shift in
    y, then in x, as n steps (shift, mask, bias under the mask), step k taking
    off slots b (a) = n-1-k .. n-1 the slot above; a getter of the slots with
    a + b <= n, where every term lies, in ascending (a, b), and their a and b."""
    w, u = _shifts(n)
    feet = ((1 << (n + 1) * u) - 1) // ((1 << u) - 1)  # 1 in each slot with b = 0
    bias = ((1 << (n + 1) * u) - 1) // ((1 << w) - 1) << w - 1
    masks = [(w, ((1 << (k + 1) * w) - 1 << (n - 1 - k) * w) * feet) for k in range(n)]
    masks += [(u, (1 << (k + 1) * u) - 1 << (n - 1 - k) * u) for k in range(n)]
    steps = tuple((s, m, m & bias) for s, m in masks)
    a_exp, b_exp = zip(*((a, b) for a in range(n + 1) for b in range(n + 1 - a)))
    # slot 0 again at the end keeps the getter's result a tuple at n = 0; zip drops it
    triangle = itemgetter(*(a * (n + 1) + b for a, b in zip(a_exp, b_exp)), 0)
    return bias, steps, triangle, a_exp, b_exp


def _from_tally(tally: int, n: int, height: int) -> BivariatePolynomial:
    """The polynomial in x, y whose nonnegative (u, v) counts, of degree at
    most height in v, are packed in tally: the Taylor shifts less the steps
    moving only zeros above the degrees, then the signed slots of the a + b <= n
    triangle read in C in ascending (a, b), so the terms come out sorted
    (big-endian: top first)."""
    bias, steps, triangle, a_exp, b_exp = _taylor_steps(n)
    w, u = _shifts(n)
    t = tally + bias
    for s, mask, lift in steps[n - height : n] + steps[2 * n - (tally.bit_length() - 1) // u :]:
        t = t - ((t >> s) & mask) + lift
    data = (t ^ bias).to_bytes(u * (n + 1) // 8, sys.byteorder)
    slots = memoryview(data).cast("i" if w == 32 else "q")[:: -1 if sys.byteorder == "big" else 1]
    counts = triangle(slots)
    return unchecked(BivariatePolynomial, terms=tuple(compress(zip(a_exp, b_exp, counts), counts)))


def _layer_tally(layers: list[int], n: int, top: int, sign: int) -> int:
    """The packed tally of the distance layers: S in layer d (d <= |S|, as the
    empty set is a member) has rank |S| - d and adds u^(top + sign*rank) v^d.
    The layers cover every subset, so the last counts what the others left."""
    w, u = _shifts(n)
    sizes = size_masks(n)
    left = [comb(n, size) for size in range(n + 1)]
    last, tally = len(layers) - 1, 0
    for d, layer in enumerate(layers):
        row = 0
        for size in range(d, n + 1):
            if k := (left[size] if d == last else (layer & sizes[size]).bit_count()):
                left[size] -= k
                row += k << (top + sign * (size - d)) * u
        tally += row << d * w
    return tally


def interlace_subset(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Sum over vertex subsets X of (x-1)^(|X|-d) (y-1)^d, d = d(X) the
    nullity of the induced adjacency submatrix: X's distance layer."""
    layers = distance_layers(g.nonsingular_subsets, g.n)  # the memo is gated
    return _from_tally(_layer_tally(layers, g.n, 0, 1), g.n, len(layers) - 1)


def interlace_recursive(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Evaluate by vertex reduction and memoization on the matrix form, at
    the lowest-index vertex v, so each subproblem is a suffix changed near
    its front: if v or a neighbor is looped, the first such w splits off g-w
    and the complement at w; else a neighbor w of v splits through the
    three-step complement at v, w, v; else v is isolated, a factor y."""
    check_enum_gate(g.n, "interlace recursion")
    v_shift, u_shift = _shifts(g.n)
    memo: dict[tuple[tuple[str, ...], tuple[int, ...]], int] = {((), ()): 1}  # the empty graph

    def rec(h: LoopedSimpleGraph) -> int:
        key = (h.labels, h.adj.data)
        if (hit := memo.get(key)) is not None:
            return hit
        v, row = h.labels[0], h.adj.data[0]  # v's loop bit and its neighbors
        looped = next((h.labels[i] for i in set_bits(row) if h.adj.entry(i, i)), None)
        if looped is not None:
            value = rec(h.minus(looped)) + (rec(h.local_complement(looped).minus(looped)) << u_shift)
        elif not row:
            value = (rest := rec(h.minus(v))) + (rest << v_shift)  # times y = v + 1
        else:
            w = h.labels[lowest_bit(row)]
            three = h.local_complement(v).local_complement(w).local_complement(v)
            both = rec(three.minus(v).minus(w))  # times (x-1)^2 - 1 = u^2 - 1
            value = rec(h.minus(v)) + rec(three.minus(v)) + (both << 2 * u_shift) - both
        memo[key] = value
        return value

    return _from_tally(rec(g), g.n, g.n)


def tutte_subset(m: BinaryMatroid) -> BivariatePolynomial:
    """Rank generating subset expansion of the Tutte polynomial: S adds
    (x-1)^(r - r(S)) (y-1)^nu(S), nu(S) = |S| - r(S) its distance layer."""
    layers = distance_layers(m._independent_bits, m.size)  # the word is gated
    return _from_tally(_layer_tally(layers, m.size, m.rank, -1), m.size, m.nullity)


def tutte_recursive(m: BinaryMatroid) -> BivariatePolynomial:
    """Deletion/contraction with loop and coloop factors, memoized."""
    check_enum_gate(m.size, "Tutte recursion")
    v_shift, u_shift = _shifts(m.size)
    memo: dict[tuple[tuple[str, ...], tuple[int, ...]], int] = {}

    def rec(mm: BinaryMatroid) -> int:
        if not mm.ground:
            return 1
        key = (mm.ground, mm.cycle_space.basis)
        if (hit := memo.get(key)) is not None:
            return hit
        v = mm.ground[0]
        if mm.is_loop(v):
            value = rec(mm.delete(v)) * ((1 << v_shift) + 1)  # times y = v + 1
        elif mm.is_coloop(v):
            value = rec(mm.contract(v)) * ((1 << u_shift) + 1)  # times x = u + 1
        else:
            value = rec(mm.contract(v)) + rec(mm.delete(v))
        memo[key] = value
        return value

    return _from_tally(rec(m), m.size, m.nullity)


def lambda_leading(m: BinaryMatroid) -> BivariatePolynomial:
    """(y-1) to the nullity: the full-ground-set term of the Tutte polynomial."""
    return shifted_power_term(0, m.nullity)
