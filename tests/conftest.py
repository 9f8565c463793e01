"""Fixtures shared by the test modules."""

import pytest

from adjmatroid.gf2 import BitMatrix, Subspace, coord_masks, lowest_bit, subset_pivot_planes


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


def reference_principal_planes(a: BitMatrix) -> list[int]:
    """The pivot planes of every principal submatrix a[S, S], by the
    bit-sliced elimination of all 2^n of them: entry (i, k) is ONE_i & ONE_k
    where a has a 1, so rank a[S, S] is the number of planes set at S."""
    masks = coord_masks(a.cols)
    return subset_pivot_planes([
        [one_i & one_k if (r >> k) & 1 else 0 for k, (_, one_k) in enumerate(masks)]
        for r, (_, one_i) in zip(a.data, masks)
    ], a.cols)


@pytest.fixture
def principal_planes():
    """The elimination reference, for checking the cover-parity word and the
    distance layers against a route that reads ranks, not determinants."""
    return reference_principal_planes
