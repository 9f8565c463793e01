"""Bit-packed linear algebra over GF(2).

Vectors are Python ints used as bitmasks (bit i = coordinate i); matrices
are tuples of row masks.  A subspace keeps its basis as a tuple of row
masks in canonical reduced row-echelon form, so that equality of subspaces
is plain ``==``.

There are two eliminations, one per shape of problem.  ``echelon`` keys
rows by highest set bit in a list of slots indexed by ``bit_length``, with
no back-substitution; it is behind ``rank``, ``nullity`` and ``nullspace``,
which reads the canonical kernel off it by triangular solves.
``forward_pivots`` keys rows by lowest set bit; it is behind ``rref_masks``
and so behind ``Subspace.span`` and ``coloop_masks``.  It stays because the
canonical basis of a ``Subspace`` has lowest-bit pivots, which every printed
basis and every ``==`` of subspaces depends on.
No subset expansion eliminates per subset: the nonsingular principal
submatrices of a symmetric matrix are one word (det a[S, S] is the parity
of the covers of S by loops and edges, ``nonsingular_subsets``), and a
matroid's independent sets are one word built from its cycle space in
`binary_matroid`; each word's distance layers give the nullities, and the
independent sets, being down-closed, need only the upward half of each
pivot step (``distance_layers(..., down_closed=True)``).  The
steps on such a word (``pivot_step``, ``flip_coordinates``, ``dominated``,
``distance_layers``) and both work limits and their checkers live here.
Every mask table grows by doubling, one coordinate at a time
(``coord_masks``, ``size_masks``); there is no bit-sliced counter.
Set bits are read two ways: ``row_bits`` walks a sparse mask one step per
set bit (an adjacency row, a label mask), and ``set_bits`` reads a dense
2^n-bit family word in one pass over its digits.

Three tools serve the value classes.  ``Frozen``, their base, gives each its
constructor, equality and hash; objects are validated once, at the boundary,
and ``unchecked`` builds a value derived from valid ones without re-running
its checks; ``cached`` is the memo for a frozen object's derived attribute.

A slow reference lives beside its checks in `verify` unless the CLI or the
benchmark needs it, so the enumeration of all small subspaces is `verify`'s.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from types import FunctionType
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")

# The work limits: exhaustive enumerations (of vectors or of subsets) refuse to
# run above ENUM_GATE coordinates, and set systems above GROUND_GATE elements.
ENUM_GATE = 20
GROUND_GATE = 16


def unchecked(cls: type[T], **fields: Any) -> T:
    """A Frozen value built without its __post_init__ checks, for a value
    derived from valid ones and valid by construction; with the Frozen base
    and cached, one of the three value tools.  The checks run once, at the
    boundary: the text parser, each value class's public constructor, with
    from_rows, span, from_matrix, from_sets and MultiGraph.build, and
    partition_from_transitions for a caller's pairing.

    The trusted builders, each valid by construction or by a check of its own:
    the text parser, which checks its grammar and builds what it read;
    nullspace, orthogonal_complement, symmetrize_nullspace, transpose,
    principal_submatrix and Subspace.permuted (after their index checks);
    LoopedSimpleGraph's derived graphs, build (after its label checks) and the
    generators all_looped_simple_graphs and random_looped_simple_graph;
    MultiGraph.simplify; adjacency_matroid and BinaryMatroid's rank_of, dual,
    minors and direct sum; SetSystem's flips, extrema and minors, from_graph
    (by Bouchet's theorem) and to_graph (by re-encoding); the polynomial
    tallies and shifted_power_term; and in four_regular touch_graph, the Kotzig
    merge and the realization's multigraph."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class cached:
    """A frozen object's derived attribute, computed once: the first read
    calls func and stores its value in the instance __dict__, which every
    later read finds first (this descriptor defines no __set__).  Unlike
    functools.cached_property it takes no lock (Python 3.11 takes one per
    first read); two threads racing on a first read both compute the same
    value.  func stays readable and replaceable as .func."""

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Frozen:
    """A frozen value.  Its fields are its own annotated names, after its bases'
    fields; a class attribute of a field's name is that field's default.  Each
    subclass gets an __init__ that binds the fields and then runs __post_init__
    (looked up per call), and unless it defines or inherits its own, an __eq__
    true only within one exact class and the matching __hash__ of the field
    tuple.  No code is compiled for them at import."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = [n for n in cls.__annotations__ if n not in cls._fields]  # a class's own, from 3.10
        cls._fields = names = cls._fields + tuple(own)
        cls.__init__ = _initializer(cls, names)
        # object's __eq__ and those built here are replaced; a class's own is kept
        if cls.__eq__.__qualname__.startswith(("object.", "Frozen.")):
            get, one = operator.attrgetter(*names), len(names) == 1

            def __eq__(self: Any, other: Any) -> Any:
                if other.__class__ is not self.__class__:
                    return NotImplemented
                return self is other or get(self) == get(other)
            cls.__eq__, cls.__hash__ = __eq__, lambda self: hash((get(self),) if one else get(self))

    def __post_init__(self) -> None:
        """A subclass's checks of a public construction; none here."""

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _init_1(self: Any, f0: Any) -> None:
    object.__setattr__(self, "f0", f0)
    self.__post_init__()


def _init_2(self: Any, f0: Any, f1: Any) -> None:
    object.__setattr__(self, "f0", f0)
    object.__setattr__(self, "f1", f1)
    self.__post_init__()


def _init_3(self: Any, f0: Any, f1: Any, f2: Any) -> None:
    object.__setattr__(self, "f0", f0)
    object.__setattr__(self, "f1", f1)
    object.__setattr__(self, "f2", f2)
    self.__post_init__()


def _initializer(cls: type, names: tuple[str, ...]) -> Callable[..., None]:
    """cls's __init__: the template for its field count with f0, f1 and f2,
    its argument and attribute names, renamed to cls's fields, so that Python
    binds the arguments as fast as in a compiled __init__.  A template never
    reads the instance __dict__: that would slow every later attribute load."""
    defaults = tuple(getattr(cls, n) for n in names if hasattr(cls, n))
    if not 0 < len(names) <= 3 or not all(hasattr(cls, n) for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__} needs one to three fields, the defaulted ones last")
    code = (_init_1, _init_2, _init_3)[len(names) - 1].__code__
    rename = dict(zip(code.co_varnames[1:], names))
    code = code.replace(co_name="__init__", co_varnames=("self", *names),
                        co_consts=tuple(rename.get(c, c) for c in code.co_consts))
    if hasattr(code, "co_qualname"):  # the name call errors print, from Python 3.11
        code = code.replace(co_qualname=f"{cls.__qualname__}.__init__")
    return FunctionType(code, globals(), "__init__", defaults)


def lowest_bit(x: int) -> int:
    """Index of the least significant set bit (x must be nonzero)."""
    return (x & -x).bit_length() - 1


def check_enum_gate(n: int, what: str) -> None:
    if n > ENUM_GATE:
        raise ValueError(f"{what} is gated at {ENUM_GATE} coordinates, got {n}")


def check_ground_gate(n: int) -> None:
    if n > GROUND_GATE:
        raise ValueError(f"set systems are gated at {GROUND_GATE} ground elements, got {n}")


def echelon(rows: Iterable[int], width: int) -> list[int]:
    """Forward elimination keyed by highest set bit, with no back-substitution,
    of rows inside GF(2)^width: slot t holds the reduced row whose highest set
    bit is t - 1, or 0; slot 0 is always 0."""
    piv = [0] * (width + 1)
    for v in rows:
        while v and (p := piv[t := v.bit_length()]):
            v ^= p
        if v:
            piv[t] = v
    return piv


def forward_pivots(rows: Iterable[int]) -> dict[int, int]:
    """Forward elimination keyed by lowest set bit, with no back-substitution:
    pivot bit -> the reduced row that owns it, one entry per independent row."""
    pivots: dict[int, int] = {}
    for v in rows:
        while (low := v & -v) in pivots:
            v ^= pivots[low]
        if v:
            pivots[low] = v
    return pivots


def rref_masks(vectors: Iterable[int]) -> tuple[int, ...]:
    """Canonical RREF of the given row masks, pivots (lowest set bits)
    ascending: the forward pivots, back-substituted highest pivot first.  A
    row holds no bit below its pivot, so the rows it is reduced by are final."""
    pivots = forward_pivots(vectors)
    pivot_bits = sum(pivots)
    order = sorted(pivots)
    for low in reversed(order):
        v = pivots[low]
        hits = (v ^ low) & pivot_bits
        while hits:
            h = hits & -hits
            v ^= pivots[h]
            hits ^= h
        pivots[low] = v
    return tuple(pivots[p] for p in order)


def coloop_masks(a: BitMatrix) -> tuple[int, int]:
    """For a symmetric matrix a, the masks of the columns v that lie outside
    the span of the other columns (the coloops of a's column matroid) once
    entry (v, v) is cleared, and once it is set: one RREF of the rows
    [a_i | e_i] for every v at once.

    v is a coloop iff e_v is in the row space, which is the orthogonal
    complement of the cycle space {z : a z = 0}.  A row-space vector is the
    sum of the RREF rows whose pivots it holds, so v is a coloop iff some row
    has a-part exactly e_v, and that row's combination part x solves
    x^T a = e_v.  Toggling (v, v) changes column v only.  If v is not a coloop, a cycle z with
    z_v = 1 gives (a + E_vv) z = e_v, so the toggle makes v one.  If it is,
    x^T (a + E_vv) = (1 + x_v) e_v: v stays a coloop iff x_v = 0, and
    otherwise x is a cycle of the toggle through v (x_v is the same for
    every solution, as they differ by cycles, which miss v).
    """
    n = a.cols
    full = (1 << n) - 1
    here = kept = diagonal = 0
    for i, r in enumerate(a.data):
        diagonal |= r & (1 << i)
    for row in rref_masks(r | 1 << (n + i) for i, r in enumerate(a.data)):
        part = row & full
        if part and not part & (part - 1):
            here |= part
            if not (row >> n) & part:
                kept |= part
    toggled = (full ^ here) | kept
    swap = diagonal & (here ^ toggled)  # where (v, v) is set, a itself is that variant
    return here ^ swap, toggled ^ swap


def gather(v: int, positions: Sequence[int]) -> int:
    """Bit k of the result is bit positions[k] of v."""
    out = 0
    for k, p in enumerate(positions):
        if (v >> p) & 1:
            out |= 1 << k
    return out


def drop_bit(v: int, i: int) -> int:
    """v with bit i removed and the bits above it shifted down by one."""
    return (v & ((1 << i) - 1)) | ((v >> (i + 1)) << i)


def scatter(v: int, positions: Sequence[int]) -> int:
    """Bit positions[k] of the result is bit k of v."""
    return sum(((v >> k) & 1) << p for k, p in enumerate(positions))


def reduce_mask(v: int, basis: Sequence[int]) -> int:
    """Reduce v against RREF basis rows; zero iff v is in their span."""
    for b in basis:
        if (v >> lowest_bit(b)) & 1:
            v ^= b
    return v


def _check_dimension(d: object) -> None:
    """Refuse a dimension field that is not an int >= 0 (a bool is an int)."""
    if not isinstance(d, int):
        raise ValueError(f"dimension {d!r} is not an int")
    if d < 0:
        raise ValueError("negative dimension")


class BitMatrix(Frozen):
    """A rows x cols matrix over GF(2), rows packed as int masks."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", tuple(self.data))
        _check_dimension(self.rows)
        _check_dimension(self.cols)
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        limit = 1 << self.cols
        for r in self.data:
            if not isinstance(r, int):
                raise ValueError(f"matrix row {r!r} is not an int")
            if not 0 <= r < limit:
                raise ValueError("row exceeds column count")

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise ValueError("matrix rows must have equal length")
        if any(e not in (0, 1) for row in entries for e in row):
            raise ValueError("matrix entries must be 0 or 1")
        masks = (sum(e << j for j, e in enumerate(row)) for row in entries)
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
        data = tuple(self.column_mask(j) for j in range(self.cols))
        return unchecked(BitMatrix, rows=self.cols, cols=self.rows, data=data)

    @property
    def is_symmetric(self) -> bool:
        """Each set entry above the diagonal has its mirror, and as many lie
        below as above, so the ones below are those mirrors: one test per entry above."""
        if self.rows != self.cols:
            return False
        data, balance = self.data, 0
        for i, r in enumerate(data):
            above = r >> i + 1  # bit k is entry (i, i + 1 + k)
            balance += (r & (1 << i) - 1).bit_count() - above.bit_count()
            while above:
                if not data[i + (above & -above).bit_length()] >> i & 1:
                    return False
                above &= above - 1
        return balance == 0

    def mul_mask(self, v: int) -> int:
        """Matrix-vector product; v and the result are bitmasks."""
        out = 0
        for i, r in enumerate(self.data):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out


def rank(m: BitMatrix) -> int:
    """GF(2) rank (row rank = column rank): the number of echelon rows."""
    return m.cols + 1 - echelon(m.data, m.cols).count(0)


def nullity(m: BitMatrix) -> int:
    return m.cols - rank(m)


class Subspace(Frozen):
    """A subspace of GF(2)^ambient_dim in canonical RREF basis form.

    ``basis`` is a tuple of int row masks.  The rows are nonzero, lie inside
    the ambient space, have strictly increasing pivot (lowest set bit)
    positions, and each pivot column carries a single 1.  Two subspaces are
    equal as sets of vectors iff their fields compare equal.
    """

    ambient_dim: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(self.basis))
        _check_dimension(self.ambient_dim)
        limit = 1 << self.ambient_dim
        prev = pivots = 0
        for v in self.basis:
            if not isinstance(v, int):
                raise ValueError(f"basis row {v!r} is not an int")
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

    def permuted(self, new_position: Sequence[int]) -> "Subspace":
        """Rename coordinates: old coordinate i becomes new_position[i]."""
        if sorted(new_position) != list(range(self.ambient_dim)):
            raise ValueError("not a permutation of the coordinates")
        basis = rref_masks(scatter(v, new_position) for v in self.basis)
        return unchecked(Subspace, ambient_dim=self.ambient_dim, basis=basis)


def nullspace(m: BitMatrix) -> Subspace:
    """Canonical right nullspace {x : m x = 0}, by one triangular solve per
    free column of the echelon form.

    For free column f start from x = e_f and walk the echelon rows, pivots
    ascending, setting a row's pivot bit in x whenever the row meets x in an
    odd number of bits.  That makes the row meet x evenly, and a row holds no
    bit above its pivot, so later steps leave the earlier rows satisfied.
    Rows with pivot below f never fire, so x is f plus pivots above f: in
    ascending f, these vectors are the canonical (lowest-bit pivot) basis.
    """
    piv = echelon(m.data, m.cols)
    pivots = [(1 << (t - 1), r) for t, r in enumerate(piv) if r]
    kernel = []
    for f, r in enumerate(piv[1:]):
        if not r:
            x = 1 << f
            for bit, row in pivots:
                if (row & x).bit_count() & 1:
                    x |= bit
            kernel.append(x)
    return unchecked(Subspace, ambient_dim=m.cols, basis=tuple(kernel))


def orthogonal_complement(w: Subspace) -> Subspace:
    """All vectors with even intersection against every member of w."""
    return nullspace(unchecked(BitMatrix, rows=w.dim, cols=w.ambient_dim, data=w.basis))


def principal_submatrix(a: BitMatrix, s: Iterable[int]) -> BitMatrix:
    """Keep the rows and columns indexed by s, in ambient order."""
    if a.rows != a.cols:
        raise ValueError("principal submatrix needs a square matrix")
    idx = sorted(set(s))
    for i in idx:
        if not 0 <= i < a.cols:
            raise ValueError(f"index {i} out of range")
    data = tuple(gather(a.data[i], idx) for i in idx)
    return unchecked(BitMatrix, rows=len(idx), cols=len(idx), data=data)


@lru_cache(maxsize=None)
def coord_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(ZERO_i, ONE_i) for i < n: the 2^n-bit masks of the subsets avoiding i
    and of those containing i."""
    full, out = (1 << (1 << n)) - 1, []
    for i in range(n):
        zero = (1 << (1 << i)) - 1  # the first 2^i subsets avoid i, the next 2^i hold it
        for k in range(i + 1, n):
            zero |= zero << (1 << k)  # double the pattern up to 2^n bits
        out.append((zero, full ^ zero))
    return tuple(out)


def set_bits(x: int) -> list[int]:
    """The positions of the set bits of x >= 0, ascending: a family's members."""
    if x < 0:
        raise ValueError(f"set bits of a negative int {x}")
    return [i for i, c in enumerate(bin(x)[:1:-1]) if c == "1"]


def row_bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x >= 0, ascending, one step per set
    bit: a sparse row's walk, where set_bits would read all of its n bits."""
    if x < 0:
        raise ValueError(f"set bits of a negative int {x}")
    while x:
        yield (x & -x).bit_length() - 1
        x &= x - 1


@lru_cache(maxsize=None)
def size_masks(n: int) -> tuple[int, ...]:
    """Entry c is the 2^n-bit mask of the subsets of size c.  The table grows
    one coordinate at a time: the sets holding i are the sets without it,
    shifted up by 2^i and one size larger."""
    out = [1]  # the empty set, of size 0
    for i in range(n):
        out = [x | (y << (1 << i)) for x, y in zip(out + [0], [0] + out)]
    return tuple(out)


def pivot_step(f: int, zero: int, b: int) -> int:
    """Pivot the word f in coordinate i: b = 2^i, zero the mask of the subsets avoiding i."""
    return ((f & zero) << b) | ((f >> b) & zero)


def flip_coordinates(f: int, x: int, n: int, step: Callable[[int, int, int], int]) -> int:
    """Apply the one-coordinate word step to f once per set bit i of x,
    lowest first, as step(f, ZERO_i, 2^i)."""
    masks = coord_masks(n)
    while x:
        i = (x & -x).bit_length() - 1
        f = step(f, masks[i][0], 1 << i)
        x &= x - 1
    return f


def dominated(bits: int, n: int, up: bool) -> int:
    """The sets strictly above (up) or below some member of the word bits, what
    min (max) drops: each coordinate in turn moves the closure so far a step."""
    side, shift = (0, operator.lshift) if up else (1, operator.rshift)
    closure, beyond = bits, 0
    for i, pair in enumerate(coord_masks(n)):
        step = shift(closure & pair[side], 1 << i)
        beyond |= step
        closure |= step
    return beyond


def _up_step(f: int, zero: int, b: int) -> int:
    """The upward half of pivot_step: each set avoiding i moved up to the set with i."""
    return (f & zero) << b


def distance_layers(bits: int, n: int, down_closed: bool = False) -> list[int]:
    """Word c holds the X at distance exactly c from the proper family bits,
    d(X) = min |F ^ X| over members F: breadth first, each layer the last one
    pivoted in every coordinate, less what is reached.  A down_closed family
    (every subset of a member a member) has a nearest member of X inside X,
    so each X at distance c + 1 is some X' + {i} with X' at distance c, and
    only the upward half of each pivot step is taken."""
    if not bits:
        raise ValueError("distance needs a proper set system")
    step = _up_step if down_closed else pivot_step
    coords = [(zero, 1 << i) for i, (zero, _) in enumerate(coord_masks(n))]
    layers, reached, full = [bits], bits, (1 << (1 << n)) - 1
    while layers[-1] and reached != full:
        moved = 0
        for zero, b in coords:
            moved |= step(layers[-1], zero, b)
        layers.append(moved & ~reached)
        reached |= moved
    return layers


def nonsingular_subsets(a: BitMatrix) -> int:
    """For a symmetric matrix a, the 2^n-bit word with bit S set iff a[S, S]
    is nonsingular.  A permutation and its inverse give det a[S, S] the same
    product, so over GF(2) it is the parity of the involutions: the covers of
    S by loops (entries (v, v)) and edges (entries (v, w)).  Sets join by
    their greatest element v, lowest v first, the word growing to 2^(v+1)
    bits: T + {v} is covered by v's loop and a cover of T, or by an edge v-w
    and a cover of T - w, one masked shift per loop and per edge."""
    if a.rows != a.cols:
        raise ValueError("principal submatrices need a square matrix")
    check_enum_gate(a.cols, "principal submatrix scan")
    masks = coord_masks(a.cols)
    word = 1  # the empty set has the empty cover
    for v, row in enumerate(a.data):
        covers = word if (row >> v) & 1 else 0
        for w in row_bits(row & ((1 << v) - 1)):
            covers ^= (word & masks[w][0]) << (1 << w)
        word ^= covers << (1 << v)
    return word


def symmetrize_nullspace(a: BitMatrix) -> BitMatrix:
    """A symmetric cols x cols matrix with the same right nullspace as a:
    B = R^T R for the RREF rows R of a, the construction behind Jaeger's
    theorem that every binary matroid is the adjacency matroid of a looped
    graph.  R's rows are independent, so R^T y = 0 only for y = 0, hence
    B x = 0 iff R x = 0 iff a x = 0.  Row i of B is the XOR of the rows of R
    that hold bit i; no rows give the zero matrix and R = I gives I.
    """
    out = [0] * a.cols
    for r in rref_masks(a.data):
        for i in set_bits(r):
            out[i] ^= r
    return unchecked(BitMatrix, rows=a.cols, cols=a.cols, data=tuple(out))
