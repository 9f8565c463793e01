"""Set systems and delta-matroids over small ground sets.

A family is one 2^n-bit int (bit m set iff mask m is a member), and each
transform is a few word operations on it.  In coordinate v, pivot swaps the
bit blocks of the subsets without and with v, loop complement and dual pivot
are the GF(2) subset and superset zeta transforms, and min (max) drops what
the family reaches by shifting up (down) one coordinate at a time; the word
steps and the ground gate are `gf2`'s.  Graphs embed as the subsets S
inducing a nonsingular adjacency submatrix (the graph's memoized word: det
A[S] is the parity of the covers of S by loops and edges).  Bouchet
("Representability of delta-matroids", 1987) proved that this family meets
the exchange axiom, so from_graph does not check it.  The exchange verdict
is kept per system object (a `gf2.cached` attribute): is_delta_matroid,
DeltaMatroid(...) and repeated asks run the kernel once per object, and
nothing pre-seeds it, so from_graph's systems run it on their first ask.
A graph family's distance d(X) = min |F ^ X| over members F is the nullity
of A[X], and gf2.distance_layers finds d at every X at once.

A slow reference lives beside its checks in `verify` unless the CLI or the
benchmark needs it: bench/workloads.py checks the flips against the two
`_sequential` forms, so they stay here.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

from .gf2 import (
    Frozen, cached, check_ground_gate, coord_masks, dominated, flip_coordinates, pivot_step,
    set_bits, size_masks, unchecked,
)
from .graph import LoopedSimpleGraph, _LabelCodec, _symmetric_rows, pair_is_edge


class SetSystem(_LabelCodec, Frozen):
    """A ground set plus a family of subsets, bit m of bits set iff mask m is a member."""

    ground: tuple[str, ...]
    bits: int

    def __eq__(self, other: object) -> bool:
        # structural equality, shared across subclasses
        if not isinstance(other, SetSystem):
            return NotImplemented
        return self.ground == other.ground and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.ground, self.bits))

    def __post_init__(self) -> None:
        object.__setattr__(self, "ground", tuple(self.ground))
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("duplicate ground labels")
        check_ground_gate(len(self.ground))
        if not isinstance(self.bits, int):
            raise ValueError(f"family word {self.bits!r} is not an int")
        if self.bits < 0 or self.bits.bit_length() > 1 << len(self.ground):
            raise ValueError("family member outside the ground set")

    @classmethod
    def from_sets(
        cls, ground: Sequence[str], sets: Iterable[Iterable[str]]
    ) -> "SetSystem":
        empty = SetSystem(tuple(ground), 0)
        return cls(empty.ground, sum({1 << empty.mask_of(s) for s in sets}))

    @cached
    def family(self) -> frozenset[int]:
        """The members as bitmasks: a read-only view of bits."""
        return frozenset(set_bits(self.bits))

    @cached
    def _exchange_verdict(self) -> bool:
        """satisfies_exchange_axiom's kernel; nothing pre-seeds it."""
        fam, bits = self.family, self.bits
        masks = coord_masks(self.n)
        for x in fam:
            for u, (zero_u, one_u) in enumerate(masks):
                xu = x ^ (1 << u)
                if xu in fam:
                    continue
                witnesses = bits & (zero_u if (x >> u) & 1 else one_u)
                for v, (zero_v, one_v) in enumerate(masks):
                    if v != u and (xu ^ (1 << v)) in fam:
                        witnesses &= one_v if (x >> v) & 1 else zero_v
                        if not witnesses:
                            break
                if witnesses:
                    return False
        return True

    @property
    def n(self) -> int:
        return len(self.ground)

    @property
    def is_proper(self) -> bool:
        return self.bits != 0

    @property
    def is_normal(self) -> bool:
        return bool(self.bits & 1)

    def member_sets(self) -> tuple[tuple[str, ...], ...]:
        """The family as sorted label tuples, deterministic order."""
        sets = [tuple(sorted(self.labels_of(m))) for m in self.family]
        return tuple(sorted(sets, key=lambda s: (len(s), s)))

    def contains(self, s: Iterable[str]) -> bool:
        return bool((self.bits >> self.mask_of(s)) & 1)

    def is_coloop(self, v: str) -> bool:
        """v belongs to every member."""
        return not self.bits & coord_masks(self.n)[self.index(v)][0]

    def is_loop(self, v: str) -> bool:
        """v belongs to no member."""
        return not self.bits & coord_masks(self.n)[self.index(v)][1]

    def _derived(self, bits: int) -> "SetSystem":
        """A family on this ground set, from a word operation: unchecked."""
        return unchecked(SetSystem, ground=self.ground, bits=bits)

    # vertex flips

    def _flip(self, x: Iterable[str], step: Callable[[int, int, int], int]) -> "SetSystem":
        """Apply a one-coordinate word operation once per distinct element of x."""
        return self._derived(flip_coordinates(self.bits, self.mask_of(x), self.n, step))

    def pivot(self, x: Iterable[str]) -> "SetSystem":
        """Symmetric difference of every member with x."""
        return self._flip(x, pivot_step)

    def loop_complement(self, x: Iterable[str]) -> "SetSystem":
        """Keep Y iff the members between Y minus x and Y are odd in number."""
        return self._flip(x, lambda f, zero, b: f ^ ((f & zero) << b))

    def dual_pivot(self, x: Iterable[str]) -> "SetSystem":
        """Keep Y iff the members between Y and Y union x are odd in number."""
        return self._flip(x, lambda f, zero, b: f ^ ((f >> b) & zero))

    def loop_complement_sequential(self, x: Iterable[str]) -> "SetSystem":
        """Reference form: single-element rule applied once per distinct element.

        A set avoiding v stays iff it is a member; a set containing v stays
        iff exactly one of it and it-minus-v is a member (the only reading
        of the one-element step that is an involution).
        """
        d = self
        for v in dict.fromkeys(x):
            vb = 1 << d.index(v)
            fam = d.family
            keep = (w for w in range(1 << d.n) if (w in fam) != (bool(w & vb) and (w ^ vb) in fam))
            d = SetSystem(d.ground, sum(1 << w for w in keep))
        return d

    def dual_pivot_sequential(self, x: Iterable[str]) -> "SetSystem":
        """Reference form: the composite of loop complement, pivot, loop
        complement, once per distinct element."""
        d = self
        for v in dict.fromkeys(x):
            d = d.loop_complement_sequential([v]).pivot([v]).loop_complement_sequential([v])
        return d

    # min and max

    def _extremal(self, which: str) -> "SetSystem":
        """The members with no other member below them (min) or above them (max)."""
        if not self.is_proper:
            raise ValueError(f"{which} needs a proper set system")
        return self._derived(self.bits & ~dominated(self.bits, self.n, which == "min"))

    def min_sys(self) -> "SetSystem":
        return self._extremal("min")

    def max_sys(self) -> "SetSystem":
        return self._extremal("max")

    @property
    def is_equicardinal(self) -> bool:
        return sum(1 for at_c in size_masks(self.n) if self.bits & at_c) <= 1

    # deletion and contraction

    def restrict(self, keep: Iterable[str]) -> "SetSystem":
        """Members inside the kept labels, on the shrunken ground set."""
        return self._restricted(self.mask_of(keep))

    def delete(self, x: Iterable[str]) -> "SetSystem":
        """Restriction to the complement; possibly improper."""
        return self._restricted(~self.mask_of(x))

    def _restricted(self, keep: int) -> "SetSystem":
        """Members inside the kept mask, on the shrunken ground set.

        One ascending pass: a dropped coordinate keeps the members avoiding
        it, and the t-th kept coordinate j (from 0) moves the block of
        members containing j down by 2^j - 2^t, from bit j of their mask to
        bit t, which is clear: the coordinates below j are already packed
        into bits below t."""
        bits, t = self.bits, 0
        for j, (zero, one) in enumerate(coord_masks(self.n)):
            if (keep >> j) & 1:
                bits = (bits & zero) | ((bits & one) >> ((1 << j) - (1 << t)))
                t += 1
            else:
                bits &= zero
        ground = tuple(v for i, v in enumerate(self.ground) if (keep >> i) & 1)
        return unchecked(SetSystem, ground=ground, bits=bits)

    def contract(self, v: str) -> "SetSystem":
        return self.pivot([v]).delete([v])

    def tilde_minus(self, v: str) -> "SetSystem":
        """Members avoiding v, ground set unchanged."""
        return self._derived(self.bits & coord_masks(self.n)[self.index(v)][0])

    def tilde_contract(self, v: str) -> "SetSystem":
        """Members containing v, ground set unchanged."""
        return self._derived(self.bits & coord_masks(self.n)[self.index(v)][1])


def satisfies_exchange_axiom(d: SetSystem) -> bool:
    """The symmetric exchange axiom, exactly, in O(|F| n^2) word operations,
    run on the first ask of each system object and kept as its verdict.

    With T the v != u such that x^{u, v} is in F, the axiom fails at x in F
    and u with x^{u} outside F iff some y in F differs from x at u and
    agrees with x on T."""
    return d._exchange_verdict


def is_delta_matroid(d: SetSystem) -> bool:
    """Proper and satisfying the symmetric exchange axiom."""
    return d.is_proper and satisfies_exchange_axiom(d)


class DeltaMatroid(SetSystem):
    """A set system validated against the symmetric exchange axiom."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_proper:
            raise ValueError("a delta-matroid must be proper")
        if not satisfies_exchange_axiom(self):
            raise ValueError("symmetric exchange axiom violated")


def from_graph(g: LoopedSimpleGraph) -> DeltaMatroid:
    """The subsets of V(g) inducing a nonsingular adjacency submatrix: g's memoized word."""
    check_ground_gate(g.n)
    # Bouchet's theorem gives the exchange axiom: skip DeltaMatroid.__post_init__
    return unchecked(DeltaMatroid, ground=g.labels, bits=g.nonsingular_subsets)


def to_graph(d: SetSystem) -> LoopedSimpleGraph:
    """Decode a graphic normal set system back to its looped simple graph.

    The pairs are read straight off the family word: vertex j is looped iff
    bit 2^j (its singleton) is set, and a pair {i, j} is decoded by
    `graph.pair_is_edge`, nonsingular iff bit 2^i + 2^j is set.  The rows are
    filled once, symmetric as filled, and the graph is built unchecked on d's
    ground; it is verified by re-encoding, which any non-graphic d fails.
    """
    if not d.is_normal:
        raise ValueError("a graphic set system contains the empty set")
    bits, n = d.bits, d.n
    looped = [bool(bits >> (1 << j) & 1) for j in range(n)]
    pairs = [(j, j) for j in range(n) if looped[j]]
    pairs += [(i, j) for j in range(n) for i in range(j)
              if pair_is_edge(bool(bits >> (1 << i | 1 << j) & 1), looped[i], looped[j])]
    g = LoopedSimpleGraph._derived(d.ground, _symmetric_rows(n, pairs))
    if from_graph(g).bits != d.bits:
        raise ValueError("set system is not the encoding of any looped simple graph")
    return g


def max_as_matroid(d: SetSystem) -> frozenset[frozenset[str]]:
    """The inclusion-maximal members as a matroid basis family."""
    top = d.max_sys()
    if not top.is_equicardinal:
        raise ValueError("maximal members are not equicardinal, not a matroid")
    return frozenset(top.labels_of(m) for m in top.family)


def random_set_system(rng: random.Random, ground: Sequence[str]) -> SetSystem:
    """Each subset of the ground a member with probability 0.3."""
    check_ground_gate(len(ground))  # before the 2^n draws
    bits = sum(1 << m for m in range(1 << len(ground)) if rng.random() < 0.3)
    return SetSystem(tuple(ground), bits)
