"""Value semantics of gf2.Frozen, on one instance of every value class."""

import pytest

from adjmatroid.adjacency_matroid import MinorDerivation, TripartitionCase, TrioResult
from adjmatroid.binary_matroid import BinaryMatroid
from adjmatroid.delta_matroid import DeltaMatroid, SetSystem
from adjmatroid.four_regular import (
    CircuitPartition, EulerSystem, HalfEdgeGraph, Realization, TransitionSystem, euler_system,
    partition_from_transitions,
)
from adjmatroid.gf2 import BitMatrix, Frozen, Subspace
from adjmatroid.graph import LoopedSimpleGraph, MultiGraph
from adjmatroid.polynomials import BivariatePolynomial


def values() -> list[Frozen]:
    """One valid instance of each value class, each built by position."""
    edge = LoopedSimpleGraph(("a", "b"), BitMatrix(2, 2, (0b10, 0b01)))
    m = BinaryMatroid(("a", "b"), Subspace(2, (0b11,)))
    f = HalfEdgeGraph(MultiGraph(("v",), ((0, 0), (0, 0))))
    p = partition_from_transitions(f, TransitionSystem((1, 0, 3, 2)))
    e = euler_system(f)
    return [
        BitMatrix(2, 2, (0b01, 0b10)),
        Subspace(3, (0b011, 0b100)),
        edge,
        MultiGraph(("a", "b"), ((0, 1), (1, 1)), ("x", "y")),
        m,
        SetSystem(("a", "b"), 0b1011),
        DeltaMatroid(("a",), 0b11),
        TripartitionCase("case1"),
        MinorDerivation(m, edge, ("a",)),
        TrioResult(("plain", "loop"), "loop_isolate", 0),
        f,
        TransitionSystem((1, 0, 3, 2)),
        CircuitPartition(p.f, p.transitions, p.circuits),
        EulerSystem(e.f, e.transitions, e.circuits),
        Realization(f, p),
        BivariatePolynomial(((0, 0, 1), (1, 2, 3))),
    ]


def fields(x: Frozen) -> tuple:
    return tuple(getattr(x, name) for name in x._fields)


def subclasses(cls: type) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in {sub} | subclasses(sub)}


def test_every_value_class_is_covered():
    package = {c for c in subclasses(Frozen) if c.__module__.startswith("adjmatroid.")}
    assert {type(x) for x in values()} == package


def test_a_class_the_templates_do_not_fit_is_refused():
    for annotations, namespace in [
        ({}, {}),
        (dict.fromkeys("abcd", "int"), {}),
        ({"a": "int", "b": "int"}, {"a": 0}),  # a default before a field without one
    ]:
        with pytest.raises(TypeError):
            type("Value", (Frozen,), {"__annotations__": annotations, **namespace})


def test_positional_and_keyword_construction_give_equal_values():
    for x in values():
        cls = type(x)
        by_position, by_keyword = cls(*fields(x)), cls(**dict(zip(x._fields, fields(x))))
        assert by_position == by_keyword == x and hash(by_position) == hash(by_keyword) == hash(x)
        assert type(by_keyword) is cls and fields(by_keyword) == fields(x)


def test_a_wrong_field_count_or_an_unknown_keyword_is_refused():
    for x in values():
        cls, given = type(x), fields(x)
        first = {x._fields[0]: given[0]}
        for args, kwargs in [
            ((), {}),  # every class has a field with no default
            (given + (None,), {}),
            (given, {"unknown": 1}),
            (given[1:], first | {"unknown": 1}),
            (given, first),  # a field given twice
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_multigraph_edge_labels_default_to_generated_names():
    for g in (MultiGraph(("a", "b"), ((0, 1), (1, 1))), MultiGraph(labels=("a", "b"), edges=((0, 1), (1, 1)))):
        assert g.edge_labels == ("e0", "e1")
    assert MultiGraph.edge_labels == ()


def test_equality_holds_within_one_exact_class_and_hash_follows_it():
    xs, ys = values(), values()
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert (x == y) == (i == j) and (x != y) == (i != j)
        assert hash(x) == hash(ys[i])
    p = next(x for x in xs if type(x) is EulerSystem)
    assert CircuitPartition(*fields(p)) != p and fields(CircuitPartition(*fields(p))) == fields(p)


def test_delta_matroid_and_set_system_compare_on_ground_and_bits():
    d, s = DeltaMatroid(("a",), 0b11), SetSystem(("a",), 0b11)
    assert d == s and s == d and hash(d) == hash(s)
    assert d != SetSystem(("a",), 0b01) and d != SetSystem(("b",), 0b11)


def test_fields_cannot_be_assigned_or_deleted():
    for x in values():
        for name in x._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert fields(x) == fields(type(x)(*fields(x)))


def test_repr_names_each_field():
    m = BitMatrix(2, 2, (1, 2))
    assert repr(m) == "BitMatrix(rows=2, cols=2, data=(1, 2))"
    assert repr(DeltaMatroid(("a",), 0b11)) == "DeltaMatroid(ground=('a',), bits=3)"
    f = next(x for x in values() if type(x) is HalfEdgeGraph)
    assert repr(f) == f"HalfEdgeGraph(graph={f.graph!r})"


def test_a_patched_post_init_is_called(monkeypatch):
    for x in values():
        cls, seen = type(x), []
        monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self))
        y = cls(*fields(x))
        assert len(seen) == 1 and seen[0] is y
        monkeypatch.undo()
