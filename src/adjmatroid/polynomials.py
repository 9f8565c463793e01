"""Exact integer bivariate polynomials and the nullity-weighted graph and
matroid polynomial evaluators.

A subset expansion is a sum of (x-1)^a (y-1)^b terms, one per subset, and
both read their nullities as distances from a family word.  The interlace
expansion takes the graph's delta-matroid (the memoized word from_graph
shares): nu(A[X]) is the distance d(X) from X to it.  The Tutte expansion
takes the matroid's independent sets: a nearest independent set to S is a
largest one inside S, so the distance from S is nu(S) = |S| - r(S).  One
tally counts the (rank, nullity) pairs (|S| - d, d) over the distance
layers; the counts fill an (a, b) grid that a Taylor shift in each variable
moves to x-1 and y-1, each row and column shifted up to its degree only.
The recursive evaluators must agree exactly.  The distance layers, the
size masks and the enumeration gate are `gf2`'s.

A slow reference lives beside its checks in `verify` unless the CLI or the
benchmark needs it: bench/workloads.py checks the subset expansions against
`interlace_recursive` and `tutte_recursive`, so they stay here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

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
    def constant(cls, c: int) -> "BivariatePolynomial":
        return cls.from_dict({(0, 0): c})

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


ONE = BivariatePolynomial.constant(1)
X = BivariatePolynomial.monomial(1, 0)
Y = BivariatePolynomial.monomial(0, 1)


@lru_cache(maxsize=None)
def shifted_power_term(a: int, b: int) -> BivariatePolynomial:
    """(x-1)^a (y-1)^b expanded over the integers; polynomials are frozen,
    so each exponent pair is expanded once."""
    return _expand({(a, b): 1})


def _shifted(c: list[int]) -> list[int]:
    """p(t) -> p(t-1) on the coefficients, in place: repeated adjacent
    subtraction up to the degree d, as the zeros above d stay zero."""
    d = len(c) - 1
    while d > 0 and not c[d]:
        d -= 1
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            c[k] -= c[k + 1]
    return c


def _expand(counts: Mapping[tuple[int, int], int]) -> BivariatePolynomial:
    """Sum of count (x-1)^a (y-1)^b over the tallied (a, b) pairs: the counts
    fill an (a, b) grid whose rows are shifted to y-1, then its columns to x-1."""
    nb = 1 + max((b for _, b in counts), default=-1)
    grid = [[0] * nb for _ in range(1 + max((a for a, _ in counts), default=-1))]
    for (a, b), count in counts.items():
        grid[a][b] = count
    cols = [_shifted(list(col)) for col in zip(*map(_shifted, grid))]
    return _collected({(a, b): c for b, col in enumerate(cols) for a, c in enumerate(col)})


def _rank_nullity_tally(layers: list[int], n: int) -> dict[tuple[int, int], int]:
    """(|S| - d, d) -> the number of subsets S in distance layer d, for the
    nonzero numbers: with d the nullity of S, the key is its rank and
    nullity.  The empty set is a member, so d <= |S|."""
    sizes = size_masks(n)
    return {
        (size - d, d): k for d, layer in enumerate(layers)
        for size in range(d, n + 1) if (k := (layer & sizes[size]).bit_count())
    }


def interlace_subset(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Sum over vertex subsets X of (x-1)^(|X|-d) (y-1)^d, d = d(X) the
    nullity of the induced adjacency submatrix: X's distance layer."""
    layers = distance_layers(g.nonsingular_subsets, g.n)  # the memo is gated
    return _expand(_rank_nullity_tally(layers, g.n))


def interlace_recursive(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Evaluate by vertex reduction and memoization on the matrix form.

    A looped vertex v splits off g-v and the complement at v; a pair of
    unlooped neighbors v, w splits through the three-step complement at
    v, w, v; a graph of isolated unlooped vertices contributes y^n.
    """
    check_enum_gate(g.n, "interlace recursion")
    memo: dict[tuple[tuple[str, ...], tuple[int, ...]], BivariatePolynomial] = {}
    xm1 = shifted_power_term(1, 0)
    xm1_sq_m1 = xm1 * xm1 - ONE

    def rec(h: LoopedSimpleGraph) -> BivariatePolynomial:
        key = (h.labels, h.adj.data)
        hit = memo.get(key)
        if hit is not None:
            return hit
        looped = next((v for v in h.labels if h.is_looped(v)), None)
        if looped is not None:
            value = rec(h.minus(looped)) + xm1 * rec(h.local_complement(looped).minus(looped))
        else:
            edge = next(iter(h.edge_pairs()), None)
            if edge is None:
                value = BivariatePolynomial.monomial(0, h.n) if h.n else ONE
            else:
                v, w = edge
                three = h.local_complement(v).local_complement(w).local_complement(v)
                value = (
                    rec(h.minus(v))
                    + rec(three.minus(v))
                    + xm1_sq_m1 * rec(three.minus(v).minus(w))
                )
        memo[key] = value
        return value

    return rec(g)


def tutte_subset(m: BinaryMatroid) -> BivariatePolynomial:
    """Rank generating subset expansion of the Tutte polynomial: S adds
    (x-1)^(r - r(S)) (y-1)^nu(S), nu(S) = |S| - r(S) its distance layer."""
    layers = distance_layers(m._independent_bits, m.size)  # the word is gated
    tally = _rank_nullity_tally(layers, m.size)
    return _expand({(m.rank - r, d): k for (r, d), k in tally.items()})


def tutte_recursive(m: BinaryMatroid) -> BivariatePolynomial:
    """Deletion/contraction with loop and coloop factors, memoized."""
    check_enum_gate(m.size, "Tutte recursion")
    memo: dict[tuple[tuple[str, ...], tuple[int, ...]], BivariatePolynomial] = {}

    def rec(mm: BinaryMatroid) -> BivariatePolynomial:
        if not mm.ground:
            return ONE
        key = (mm.ground, mm.cycle_space.basis)
        hit = memo.get(key)
        if hit is not None:
            return hit
        v = mm.ground[0]
        if mm.is_loop(v):
            value = Y * rec(mm.delete(v))
        elif mm.is_coloop(v):
            value = X * rec(mm.contract(v))
        else:
            value = rec(mm.contract(v)) + rec(mm.delete(v))
        memo[key] = value
        return value

    return rec(m)


def lambda_leading(m: BinaryMatroid) -> BivariatePolynomial:
    """(y-1) to the nullity: the full-ground-set term of the Tutte polynomial."""
    return shifted_power_term(0, m.nullity)

