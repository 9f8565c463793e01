"""Binary matroids stored as canonical GF(2) cycle-space subspaces.

The cycle space W is a complete invariant, so equality of matroids reduces
to subspace comparison; circuits, rank, bases and minors are all derived
from it on demand.  Rank and deletion rest on one restriction identity.
Clearing the coordinates in S is a linear map on W whose kernel is W_S, the
cycles inside S, so r(S) = |S| - dim W_S = |S| - dim W + rank(W's basis with
S's columns cleared).  `rank_of` applies it to one S and `delete` to the
ground minus v.  The independent sets are the S with W_S = 0, for every S
at once: W as one 2^size-bit word, and the sets that hold none of its
nonzero members.  The word steps and the enumeration gate are `gf2`'s.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .gf2 import (
    BitMatrix,
    Frozen,
    Subspace,
    cached,
    check_enum_gate,
    dominated,
    drop_bit,
    flip_coordinates,
    nullspace,
    orthogonal_complement,
    pivot_step,
    rank,
    rref_masks,
    set_bits,
    size_masks,
    unchecked,
)
from .graph import MultiGraph, _LabelCodec


class BinaryMatroid(_LabelCodec, Frozen):
    """A binary matroid given by ground labels and its cycle space."""

    ground: tuple[str, ...]
    cycle_space: Subspace

    def __post_init__(self) -> None:
        object.__setattr__(self, "ground", tuple(self.ground))
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("duplicate ground labels")
        if self.cycle_space.ambient_dim != len(self.ground):
            raise ValueError("cycle space dimension mismatch")

    @property
    def size(self) -> int:
        return len(self.ground)

    @property
    def nullity(self) -> int:
        return self.cycle_space.dim

    @property
    def rank(self) -> int:
        return self.size - self.nullity

    def _aligned_space(self, other: "BinaryMatroid") -> Subspace | None:
        """other's cycle space in self's coordinate order, or None if the
        ground sets differ."""
        if set(self.ground) != set(other.ground):
            return None
        if self.ground == other.ground:
            return other.cycle_space
        position = [self.ground.index(v) for v in other.ground]
        return other.cycle_space.permuted(position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatroid):
            return NotImplemented
        aligned = self._aligned_space(other)
        # one ground set, so one ambient dimension: the canonical bases decide
        return aligned is not None and aligned.basis == self.cycle_space.basis

    def __hash__(self) -> int:
        ordered = sorted(self.ground)
        canonical = self.cycle_space.permuted([ordered.index(v) for v in self.ground])
        return hash((tuple(ordered), canonical.basis))

    def __repr__(self) -> str:
        return f"BinaryMatroid(ground={self.ground!r}, nullity={self.nullity})"

    # construction

    @classmethod
    def from_matrix(cls, a: BitMatrix, labels: Sequence[str]) -> "BinaryMatroid":
        if a.cols != len(labels):
            raise ValueError("label count must match column count")
        return cls(tuple(labels), nullspace(a))

    # derived structure

    def circuit_masks(self) -> tuple[int, ...]:
        """Minimal nonempty supports in the cycle space, by weight then value.
        Bit k of hits[i] is set iff circuit k holds element i, so v is minimal
        iff the elements outside v hit every circuit found so far."""
        members = [v for v in self.cycle_space.vectors() if v]
        members.sort(key=lambda v: (v.bit_count(), v))
        full, found = (1 << self.size) - 1, 0
        minimal: list[int] = []
        hits = [0] * self.size
        for v in members:
            outside = 0
            for i in set_bits(full & ~v):
                outside |= hits[i]
                if outside == found:
                    break
            if outside == found:
                for i in set_bits(v):
                    hits[i] |= found + 1  # the new circuit's bit
                found = 2 * found + 1
                minimal.append(v)
        return tuple(minimal)

    def circuits(self) -> frozenset[frozenset[str]]:
        return frozenset(self.labels_of(m) for m in self.circuit_masks())

    def rank_of(self, s: Iterable[str]) -> int:
        """r(S) by the restriction identity of the module docstring."""
        mask = self.mask_of(s)
        w = self.cycle_space
        off = unchecked(
            BitMatrix, rows=w.dim, cols=w.ambient_dim, data=tuple(m & ~mask for m in w.basis)
        )
        return mask.bit_count() - self.nullity + rank(off)

    def is_loop(self, v: str) -> bool:
        return self.cycle_space.contains(1 << self.index(v))

    def is_coloop(self, v: str) -> bool:
        i = self.index(v)
        return all(not (m >> i) & 1 for m in self.cycle_space.basis)

    def dual(self) -> "BinaryMatroid":
        w = orthogonal_complement(self.cycle_space)
        return unchecked(BinaryMatroid, ground=self.ground, cycle_space=w)

    def delete(self, v: str) -> "BinaryMatroid":
        """The restriction to the ground minus v, where clearing S leaves bit
        v: the first basis row through v, XORed into every row through v
        (itself to zero), spans the kernel.  A coloop has no row through v."""
        i = self.index(v)
        basis = self.cycle_space.basis
        first = next((m for m in basis if (m >> i) & 1), 0)
        return self._minor(i, [m ^ first if (m >> i) & 1 else m for m in basis])

    def contract(self, v: str) -> "BinaryMatroid":
        return self._minor(self.index(v), self.cycle_space.basis)

    def _minor(self, i: int, rows: Iterable[int]) -> "BinaryMatroid":
        """The matroid on the ground set minus element i whose cycle space is
        the span of rows with bit i dropped, valid by construction and so
        built unchecked, as dual is."""
        ground = self.ground[:i] + self.ground[i + 1:]
        basis = rref_masks(drop_bit(m, i) for m in rows)
        w = unchecked(Subspace, ambient_dim=self.size - 1, basis=basis)
        return unchecked(BinaryMatroid, ground=ground, cycle_space=w)

    def direct_sum(self, other: "BinaryMatroid") -> "BinaryMatroid":
        if set(self.ground) & set(other.ground):
            raise ValueError("direct sum needs disjoint ground labels")
        # each canonical basis is reduced, and self's bits lie below self.size
        # and other's shifted ones above it, so the concatenation is canonical
        basis = self.cycle_space.basis + tuple(m << self.size for m in other.cycle_space.basis)
        w = unchecked(Subspace, ambient_dim=self.size + other.size, basis=basis)
        return unchecked(BinaryMatroid, ground=self.ground + other.ground, cycle_space=w)

    @cached
    def _independent_bits(self) -> int:
        """The independent family as a 2^size-bit int: S is independent iff
        no nonzero cycle lies inside S.  The cycle-space word grows from {0}
        by one translate per basis row b, a pivot step per set bit of b; the
        dependent sets are its nonzero members and the sets above them.  The
        matroid is frozen, so the word is built once per matroid."""
        check_enum_gate(self.size, "independent set scan")  # before any 2^size-bit mask
        cycles = 1
        for b in self.cycle_space.basis:
            cycles |= flip_coordinates(cycles, b, self.size, pivot_step)
        dependent = cycles ^ 1
        dependent |= dominated(dependent, self.size, up=True)
        return ((1 << (1 << self.size)) - 1) ^ dependent

    def independent_masks(self) -> tuple[int, ...]:
        return tuple(set_bits(self._independent_bits))

    def bases(self) -> frozenset[frozenset[str]]:
        """The independent sets of size rank."""
        bits = self._independent_bits & size_masks(self.size)[self.rank]
        return frozenset(self.labels_of(m) for m in set_bits(bits))


def free_matroid(labels: Sequence[str]) -> BinaryMatroid:
    """No circuits at all (U_{n,n})."""
    return BinaryMatroid(tuple(labels), Subspace.zero(len(labels)))


def single_coloop(label: str) -> BinaryMatroid:
    """U_{1,1} on one element."""
    return free_matroid((label,))


def polygon_matroid(g: MultiGraph) -> BinaryMatroid:
    """The matroid of the edge set whose circuits are the graph's cycles."""
    return BinaryMatroid.from_matrix(g.incidence_matrix(), g.edge_labels)

