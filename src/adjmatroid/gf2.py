"""Bit-packed linear algebra over GF(2).

Vectors are Python ints used as bitmasks (bit i = coordinate i); matrices
are tuples of row masks.  A subspace keeps its basis as a tuple of row
masks in canonical reduced row-echelon form, so that equality of subspaces
is plain ``==``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# Exhaustive enumerations (all vectors of a space / subspace) refuse to run
# above this many coordinates.
ENUM_GATE = 20


def popcount(x: int) -> int:
    return x.bit_count()


def parity(x: int) -> int:
    return popcount(x) & 1


def lowest_bit(x: int) -> int:
    """Index of the least significant set bit (x must be nonzero)."""
    return (x & -x).bit_length() - 1


def check_enum_gate(n: int, what: str) -> None:
    if n > ENUM_GATE:
        raise ValueError(f"{what} is gated at {ENUM_GATE} coordinates, got {n}")


def rref_masks(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduce the given row masks to canonical RREF, pivots ascending.

    Each returned row has a pivot (lowest set bit) that no other row uses.
    """
    by_pivot: dict[int, int] = {}
    for v in vectors:
        for p, b in by_pivot.items():
            if (v >> p) & 1:
                v ^= b
        if v:
            q = lowest_bit(v)
            for p in list(by_pivot):
                if (by_pivot[p] >> q) & 1:
                    by_pivot[p] ^= v
            by_pivot[q] = v
    return tuple(by_pivot[p] for p in sorted(by_pivot))


def reduce_mask(v: int, basis: Sequence[int]) -> int:
    """Reduce v against RREF basis rows; zero iff v is in their span."""
    for b in basis:
        if (v >> lowest_bit(b)) & 1:
            v ^= b
    return v


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2), rows packed as int masks."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        limit = 1 << self.cols
        for r in self.data:
            if not 0 <= r < limit:
                raise ValueError("row exceeds column count")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], cols: int | None = None) -> "BitMatrix":
        if cols is None:
            cols = len(entries[0]) if entries else 0
        masks = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            masks.append(sum((e & 1) << j for j, e in enumerate(row)))
        return cls(len(entries), cols, tuple(masks))

    def entry(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def column_mask(self, j: int) -> int:
        mask = 0
        for i, r in enumerate(self.data):
            if (r >> j) & 1:
                mask |= 1 << i
        return mask

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, tuple(self.column_mask(j) for j in range(self.cols)))

    @property
    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.data == self.transpose().data

    def mul_mask(self, v: int) -> int:
        """Matrix-vector product; v and the result are bitmasks."""
        out = 0
        for i, r in enumerate(self.data):
            if parity(r & v):
                out |= 1 << i
        return out


def rank(m: BitMatrix) -> int:
    """GF(2) rank (row rank = column rank)."""
    return len(rref_masks(m.data))


def nullity(m: BitMatrix) -> int:
    return m.cols - rank(m)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^ambient_dim in canonical RREF basis form.

    ``basis`` is a tuple of int row masks.  The rows are nonzero, lie inside
    the ambient space, have strictly increasing pivot (lowest set bit)
    positions, and each pivot column carries a single 1.  Two subspaces are
    equal as sets of vectors iff their fields compare equal.
    """

    ambient_dim: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        limit = 1 << self.ambient_dim
        prev = pivots = 0
        for v in self.basis:
            if not 0 < v < limit:
                raise ValueError(f"basis row {v} is zero or outside GF(2)^{self.ambient_dim}")
            low = v & -v
            if low <= prev:
                raise ValueError("pivots not strictly increasing")
            prev = low
            pivots |= low
        # with ascending distinct pivots, a row's only pivot bit must be its own
        for v in self.basis:
            if v & pivots != v & -v:
                raise ValueError("pivot column not reduced")

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[int]) -> "Subspace":
        """The span of the given masks; any mask outside the ambient space
        leaves a basis row outside it, which construction rejects."""
        return cls(ambient_dim, rref_masks(vectors))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.span(ambient_dim, (1 << i for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: int) -> bool:
        return reduce_mask(v, self.basis) == 0

    def vectors(self) -> Iterator[int]:
        """All 2^dim member masks, ascending as integers."""
        check_enum_gate(self.dim, "subspace enumeration")
        out = [0]
        for b in self.basis:
            out += [v ^ b for v in out]
        return iter(sorted(out))

    def restricted_to(self, mask: int) -> "Subspace":
        """The subspace of members supported inside the coordinate mask."""
        outside_pivots: dict[int, int] = {}
        inside: list[int] = []
        out_mask = ((1 << self.ambient_dim) - 1) & ~mask
        for v in self.basis:
            while v & out_mask:
                p = lowest_bit(v & out_mask)
                if p in outside_pivots:
                    v ^= outside_pivots[p]
                else:
                    outside_pivots[p] = v
                    v = 0
            if v:
                inside.append(v)
        return Subspace.span(self.ambient_dim, inside)

    def permuted(self, new_position: Sequence[int]) -> "Subspace":
        """Rename coordinates: old coordinate i becomes new_position[i]."""
        if sorted(new_position) != list(range(self.ambient_dim)):
            raise ValueError("not a permutation of the coordinates")
        moved = []
        for v in self.basis:
            w = 0
            for i in range(self.ambient_dim):
                if (v >> i) & 1:
                    w |= 1 << new_position[i]
            moved.append(w)
        return Subspace.span(self.ambient_dim, moved)


def nullspace(m: BitMatrix) -> Subspace:
    """Canonical right nullspace {x : m x = 0}."""
    rows = rref_masks(m.data)
    pivots = [lowest_bit(r) for r in rows]
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    kernel = []
    for f in free:
        v = 1 << f
        for r, p in zip(rows, pivots):
            if (r >> f) & 1:
                v |= 1 << p
        kernel.append(v)
    return Subspace.span(m.cols, kernel)


def orthogonal_complement(w: Subspace) -> Subspace:
    """All vectors with even intersection against every member of w."""
    m = BitMatrix(w.dim, w.ambient_dim, w.basis)
    return nullspace(m)


def principal_submatrix(a: BitMatrix, s: Iterable[int]) -> BitMatrix:
    """Keep the rows and columns indexed by s, in ambient order."""
    if a.rows != a.cols:
        raise ValueError("principal submatrix needs a square matrix")
    idx = sorted(set(s))
    for i in idx:
        if not 0 <= i < a.cols:
            raise ValueError(f"index {i} out of range")
    out = []
    for i in idx:
        row = 0
        for k, j in enumerate(idx):
            if (a.data[i] >> j) & 1:
                row |= 1 << k
        out.append(row)
    return BitMatrix(len(idx), len(idx), tuple(out))


def principal_nullities(a: BitMatrix) -> list[int]:
    """The nullity of a[S, S] for every coordinate mask S, indexed by S; each
    principal submatrix is eliminated with its columns left in place."""
    if a.rows != a.cols:
        raise ValueError("principal submatrices need a square matrix")
    n = a.cols
    check_enum_gate(n, "principal nullity scan")
    out = []
    for mask in range(1 << n):
        rows = [a.data[i] & mask for i in range(n) if (mask >> i) & 1]
        out.append(len(rows) - len(rref_masks(rows)))
    return out


def subset_nullities(w: Subspace) -> list[int]:
    """The dimension of w restricted to S for every coordinate mask S, indexed
    by S: mark the members of w, then sum over subsets one coordinate at a
    time (n 2^(n-1) additions), so that entry S counts the members inside S."""
    n = w.ambient_dim
    check_enum_gate(n, "subset nullity scan")
    counts = [0] * (1 << n)
    for v in w.vectors():
        counts[v] = 1
    for i in range(n):
        b = 1 << i
        for s in range(1 << n):
            if s & b:
                counts[s] += counts[s ^ b]
    return [c.bit_length() - 1 for c in counts]


def symmetrize_nullspace(a: BitMatrix) -> BitMatrix:
    """A symmetric cols x cols matrix with the same right nullspace as a.

    Row-reduce a to [I | C] up to a column permutation, paste C and its
    transpose around I, fill the remaining block with C^T C, and undo the
    permutation.  Full and trivial nullspaces give the zero and identity
    matrices.
    """
    n = a.cols
    rows = rref_masks(a.data)
    r = len(rows)
    if r == 0:
        return BitMatrix.zero(n, n)
    if r == n:
        return BitMatrix.identity(n)
    pivots = [lowest_bit(v) for v in rows]
    free = [j for j in range(n) if j not in set(pivots)]
    order = pivots + free  # column j of the permuted matrix is column order[j] of a
    # C'' as r rows over the free columns
    cpp = []
    for v in rows:
        row = 0
        for k, j in enumerate(free):
            if (v >> j) & 1:
                row |= 1 << k
        cpp.append(row)
    f = len(free)
    cpp_t = [sum(((cpp[i] >> k) & 1) << i for i in range(r)) for k in range(f)]
    # B' = [[I_r, C''], [C''^T, C''^T C'']] in permuted coordinates
    bp = []
    for i in range(r):
        bp.append((1 << i) | (cpp[i] << r))
    for k in range(f):
        prod = 0
        for kk in range(f):
            if parity(cpp_t[k] & cpp_t[kk]):
                prod |= 1 << kk
        bp.append(cpp_t[k] | (prod << r))
    # undo the permutation: entry (order[i], order[j]) of B is entry (i, j) of B'
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if (bp[i] >> j) & 1:
                out[order[i]] |= 1 << order[j]
    return BitMatrix(n, n, tuple(out))


def all_subspaces(ambient_dim: int) -> Iterator[Subspace]:
    """Every subspace of GF(2)^ambient_dim, via canonical RREF bases."""
    n = ambient_dim
    if n > 6:
        raise ValueError("subspace enumeration is intended for ambient_dim <= 6")
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            pivot_set = set(pivots)
            free_slots = [
                [j for j in range(n) if j > p and j not in pivot_set] for p in pivots
            ]
            total = sum(len(s) for s in free_slots)
            for fill in range(1 << total):
                rows = []
                pos = 0
                for p, slots in zip(pivots, free_slots):
                    row = 1 << p
                    for j in slots:
                        if (fill >> pos) & 1:
                            row |= 1 << j
                        pos += 1
                    rows.append(row)
                yield Subspace(n, tuple(rows))
