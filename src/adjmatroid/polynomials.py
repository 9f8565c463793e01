"""Exact integer bivariate polynomials and the nullity-weighted graph and
matroid polynomial evaluators.

All evaluators expand (x-1)^a (y-1)^b terms by binomial convolution; the
recursive evaluators must agree with the subset expansions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping

from .adjacency_matroid import adjacency_matroid
from .binary_matroid import BinaryMatroid
from .gf2 import nullity, principal_submatrix
from .graph import LoopedSimpleGraph

SUBSET_GATE = 24


@dataclass(frozen=True)
class BivariatePolynomial:
    """Integer polynomial in x and y; terms sorted, zero coefficients absent."""

    terms: tuple[tuple[int, int, int], ...]  # (x exponent, y exponent, coefficient)

    def __post_init__(self) -> None:
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
        return cls(tuple(sorted((i, j, c) for (i, j), c in coeffs.items() if c)))

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: int) -> "BivariatePolynomial":
        return cls.from_dict({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "BivariatePolynomial":
        return cls.from_dict({(i, j): c})

    def coefficient(self, i: int, j: int) -> int:
        for a, b, c in self.terms:
            if (a, b) == (i, j):
                return c
        return 0

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out: dict[tuple[int, int], int] = {}
        for i, j, c in self.terms + other.terms:
            out[(i, j)] = out.get((i, j), 0) + c
        return BivariatePolynomial.from_dict(out)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + other.scale(-1)

    def scale(self, c: int) -> "BivariatePolynomial":
        return BivariatePolynomial.from_dict({(i, j): c * k for i, j, k in self.terms})

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out: dict[tuple[int, int], int] = {}
        for i, j, c in self.terms:
            for a, b, d in other.terms:
                key = (i + a, j + b)
                out[key] = out.get(key, 0) + c * d
        return BivariatePolynomial.from_dict(out)

    def swap_variables(self) -> "BivariatePolynomial":
        return BivariatePolynomial.from_dict({(j, i): c for i, j, c in self.terms})

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


ONE = BivariatePolynomial.constant(1)
X = BivariatePolynomial.monomial(1, 0)
Y = BivariatePolynomial.monomial(0, 1)


def shifted_power_term(a: int, b: int) -> BivariatePolynomial:
    """(x-1)^a (y-1)^b expanded over the integers."""
    out: dict[tuple[int, int], int] = {}
    for i in range(a + 1):
        ci = comb(a, i) * (-1) ** (a - i)
        for j in range(b + 1):
            out[(i, j)] = out.get((i, j), 0) + ci * comb(b, j) * (-1) ** (b - j)
    return BivariatePolynomial.from_dict(out)


def _subset_gate(n: int) -> None:
    if n > SUBSET_GATE:
        raise ValueError(f"subset expansion gated at {SUBSET_GATE} elements")


def interlace_subset(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Sum over vertex subsets of (x-1)^(|S|-nu) (y-1)^nu, nu the nullity of
    the induced adjacency submatrix."""
    _subset_gate(g.n)
    total = BivariatePolynomial.zero()
    for mask in range(1 << g.n):
        idx = [i for i in range(g.n) if (mask >> i) & 1]
        nu = nullity(principal_submatrix(g.adj, idx))
        total = total + shifted_power_term(len(idx) - nu, nu)
    return total


def interlace_recursive(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Evaluate by vertex reduction and memoization on the matrix form.

    A looped vertex v splits off g-v and the complement at v; a pair of
    unlooped neighbors v, w splits through the three-step complement at
    v, w, v; a graph of isolated unlooped vertices contributes y^n.
    """
    _subset_gate(g.n)
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
    """Rank generating subset expansion of the Tutte polynomial."""
    _subset_gate(m.size)
    full_rank = m.rank
    total = BivariatePolynomial.zero()
    for mask in range(1 << m.size):
        s = [m.ground[i] for i in range(m.size) if (mask >> i) & 1]
        r = m.rank_of(s)
        total = total + shifted_power_term(full_rank - r, len(s) - r)
    return total


def tutte_recursive(m: BinaryMatroid) -> BivariatePolynomial:
    """Deletion/contraction with loop and coloop factors, memoized."""
    _subset_gate(m.size)
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


def q_from_lambda(g: LoopedSimpleGraph) -> BivariatePolynomial:
    """Interlace polynomial assembled from the leading Tutte terms of the
    induced subgraph matroids, each contributing (x-1)^(|S|-nu) (y-1)^nu."""
    _subset_gate(g.n)
    total = BivariatePolynomial.zero()
    for mask in range(1 << g.n):
        s = [g.labels[i] for i in range(g.n) if (mask >> i) & 1]
        sub = adjacency_matroid(g.induced(s))
        nu = lambda_leading(sub).degree_y()
        total = total + shifted_power_term(len(s) - nu, nu)
    return total


def interlace_vertex_terms(g: LoopedSimpleGraph, v: str) -> BivariatePolynomial:
    """The part of the subset expansion ranging over subsets containing v."""
    _subset_gate(g.n)
    iv = g.index(v)
    total = BivariatePolynomial.zero()
    for mask in range(1 << g.n):
        if not (mask >> iv) & 1:
            continue
        s = [g.labels[i] for i in range(g.n) if (mask >> i) & 1]
        sub = adjacency_matroid(g.induced(s))
        nu = lambda_leading(sub).degree_y()
        total = total + shifted_power_term(len(s) - nu, nu)
    return total
