"""Exact integer bivariate polynomials and the nullity-weighted graph and
matroid polynomial evaluators.

Both polynomials sum u^a v^b over subsets, u = x-1 and v = y-1, so every
evaluator builds one tally of (a, b) counts packed in an int: u^a v^b at
bit a*U + b*W, W = 2n + 2 and U = W(n + 1).  The subset expansions read
nullities as distances from a family word: the graph's delta-matroid (the
memoized word from_graph shares), or the matroid's independent sets, a
nearest of which to S being a largest one inside S.  The distance layers,
the size masks and the enumeration gate are `gf2`'s.  The recursions
memoize tallies, so each rule is shifts and adds.  One conversion reads
the polynomial in x and y out of a tally at the end: Horner in y-1 over
its columns, then in x-1 over its rows, signed digits read block by block.

Slot bound: a count is at most 2^n, an interlace coefficient at most 3^n
in size (2^n subsets, each adding (x-1)^a (y-1)^b with a + b <= n) and a
Tutte coefficient in [0, 2^n]; a W-bit slot holds any signed value below
2^(2n+1) in size.  Packing is a ring map, so negative partial sums in the
recursions are harmless: only the final tally is read.

The recursions are slow references, which live beside verify's checks unless
the CLI or the benchmark needs them: bench/workloads.py checks against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, Mapping

from .binary_matroid import BinaryMatroid
from .gf2 import check_enum_gate, distance_layers, size_masks, unchecked
from .graph import LoopedSimpleGraph


@dataclass(frozen=True)
class BivariatePolynomial:
    """Integer polynomial in x and y; terms sorted, zero coefficients absent."""

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

    @classmethod
    def from_dict(cls, coeffs: Mapping[tuple[int, int], int]) -> "BivariatePolynomial":
        return cls(_collected(coeffs).terms)

    @classmethod
    def monomial(cls, i: int, j: int) -> "BivariatePolynomial":
        return cls.from_dict({(i, j): 1})

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out: dict[tuple[int, int], int] = {}
        for i, j, c in self.terms + other.terms:
            out[(i, j)] = out.get((i, j), 0) + c
        return _collected(out)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + other.scale(-1)

    def scale(self, c: int) -> "BivariatePolynomial":
        return _collected({(i, j): c * k for i, j, k in self.terms})

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out: dict[tuple[int, int], int] = {}
        for i, j, c in self.terms:
            for a, b, d in other.terms:
                key = (i + a, j + b)
                out[key] = out.get(key, 0) + c * d
        return _collected(out)

    def swap_variables(self) -> "BivariatePolynomial":
        return _collected({(j, i): c for i, j, c in self.terms})

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for i, j, c in self.terms)

    def degree_y(self) -> int:
        return max((j for _, j, _ in self.terms), default=0)

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


def _collected(coeffs: Mapping[tuple[int, int], int]) -> BivariatePolynomial:
    """from_dict unchecked: arithmetic on valid polynomials keeps them valid."""
    terms = tuple(sorted((i, j, c) for (i, j), c in coeffs.items() if c))
    return unchecked(BivariatePolynomial, terms=terms)


ONE = BivariatePolynomial.monomial(0, 0)
X = BivariatePolynomial.monomial(1, 0)
Y = BivariatePolynomial.monomial(0, 1)


@lru_cache(maxsize=None)
def shifted_power_term(a: int, b: int) -> BivariatePolynomial:
    """(x-1)^a (y-1)^b by the binomial theorem; polynomials are frozen, so
    each exponent pair is expanded once."""
    return _collected({(i, j): (-1) ** (a - i + b - j) * comb(a, i) * comb(b, j)
                       for i in range(a + 1) for j in range(b + 1)})


def _shifts(n: int) -> tuple[int, int]:
    """(W, U): a left shift by W multiplies an n-element tally by v, by U by u."""
    return 2 * n + 2, (2 * n + 2) * (n + 1)


def _digits(t: int, width: int) -> Iterator[int]:
    """t's digits in base 2^width, signed and lowest first, to the top nonzero one."""
    half = 1 << (width - 1)
    while t:
        yield (d := ((t + half) & (2 * half - 1)) - half)
        t = (t - d) >> width


def _from_tally(tally: int, n: int) -> BivariatePolynomial:
    """The polynomial in x, y whose (u, v) counts are packed in tally: Horner
    in y-1 over its columns of counts, then in x-1 over its signed rows."""
    w, u = _shifts(n)
    columns = sum(((1 << w) - 1) << (a * u) for a in range(n + 1))
    t = 0
    for b in range(n, -1, -1):
        t = (t << w) - t + ((tally >> (b * w)) & columns)
    q = 0
    for row in reversed([*_digits(t, u)]):
        q = (q << u) - q + row
    rows = enumerate(_digits(q, u))  # read in ascending (a, b), so the terms are sorted
    terms = tuple((a, b, c) for a, row in rows for b, c in enumerate(_digits(row, w)) if c)
    return unchecked(BivariatePolynomial, terms=terms)


def _layer_tally(layers: list[int], n: int, u_exponent: Callable[[int], int]) -> int:
    """The packed tally of the distance layers: S in layer d (d <= |S|, as the
    empty set is a member) has rank |S| - d and adds u^u_exponent(rank) v^d."""
    w, u = _shifts(n)
    sizes = size_masks(n)
    return sum(
        k << (u_exponent(size - d) * u + d * w)
        for d, layer in enumerate(layers) for size in range(d, n + 1)
        if (k := (layer & sizes[size]).bit_count())
    )


def interlace_subset(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Sum over vertex subsets X of (x-1)^(|X|-d) (y-1)^d, d = d(X) the
    nullity of the induced adjacency submatrix: X's distance layer."""
    layers = distance_layers(g.nonsingular_subsets, g.n)  # the memo is gated
    return _from_tally(_layer_tally(layers, g.n, lambda rank: rank), g.n)


def interlace_recursive(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Evaluate by vertex reduction and memoization on the matrix form.

    A looped vertex v splits off g-v and the complement at v; a pair of
    unlooped neighbors v, w splits through the three-step complement at
    v, w, v; a graph of isolated unlooped vertices contributes y^n.
    """
    check_enum_gate(g.n, "interlace recursion")
    v_shift, u_shift = _shifts(g.n)
    memo: dict[tuple[tuple[str, ...], tuple[int, ...]], int] = {}

    def rec(h: LoopedSimpleGraph) -> int:
        key = (h.labels, h.adj.data)
        if (hit := memo.get(key)) is not None:
            return hit
        looped = next((v for v in h.labels if h.is_looped(v)), None)
        if looped is not None:
            value = rec(h.minus(looped)) + (rec(h.local_complement(looped).minus(looped)) << u_shift)
        elif (edge := next(iter(h.edge_pairs()), None)) is None:
            value = ((1 << v_shift) + 1) ** h.n  # y^n
        else:
            v, w = edge
            three = h.local_complement(v).local_complement(w).local_complement(v)
            both = rec(three.minus(v).minus(w))  # times (x-1)^2 - 1 = u^2 - 1
            value = rec(h.minus(v)) + rec(three.minus(v)) + (both << 2 * u_shift) - both
        memo[key] = value
        return value

    return _from_tally(rec(g), g.n)


def tutte_subset(m: BinaryMatroid) -> BivariatePolynomial:
    """Rank generating subset expansion of the Tutte polynomial: S adds
    (x-1)^(r - r(S)) (y-1)^nu(S), nu(S) = |S| - r(S) its distance layer."""
    layers = distance_layers(m._independent_bits, m.size)  # the word is gated
    return _from_tally(_layer_tally(layers, m.size, lambda rank: m.rank - rank), m.size)


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

    return _from_tally(rec(m), m.size)


def lambda_leading(m: BinaryMatroid) -> BivariatePolynomial:
    """(y-1) to the nullity: the full-ground-set term of the Tutte polynomial."""
    return shifted_power_term(0, m.nullity)
