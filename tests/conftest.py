"""Fixtures shared by the test modules."""

import pytest

from adjmatroid.gf2 import Subspace, lowest_bit


def reference_restriction(w: Subspace, mask: int) -> Subspace:
    """The members of w supported inside the coordinate mask, by a reference
    elimination on the out-of-mask bits only, then a span of the rows left."""
    outside_pivots: dict[int, int] = {}
    inside: list[int] = []
    out_mask = ((1 << w.ambient_dim) - 1) & ~mask
    for v in w.basis:
        while v & out_mask:
            p = lowest_bit(v & out_mask)
            if p in outside_pivots:
                v ^= outside_pivots[p]
            else:
                outside_pivots[p] = v
                v = 0
        if v:
            inside.append(v)
    return Subspace.span(w.ambient_dim, inside)


@pytest.fixture
def restricted():
    """The reference restriction, for checking rank_of, delete and the
    column-masked planes against an elimination of another design."""
    return reference_restriction
