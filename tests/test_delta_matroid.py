"""Set system algebra, the exchange axiom, and the graph encoding."""

import random

import pytest

from adjmatroid import delta_matroid as dm
from adjmatroid.adjacency_matroid import adjacency_matroid
from adjmatroid.gf2 import GROUND_GATE, coord_masks, distance_layers, nullity, principal_submatrix
from adjmatroid.graph import LoopedSimpleGraph, all_looped_simple_graphs, random_looped_simple_graph
from adjmatroid.verify import (
    _dual_pivot_by_counting,
    _equicardinal_min_criterion,
    _exchange_by_pairs,
    _loop_complement_by_counting,
)

K3 = LoopedSimpleGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
K3L = K3.loop_complement("a")


def sets(ground, *members):
    return dm.SetSystem.from_sets(ground, members)


def distance(d, labels):
    """d(X) read off the distance layers: the one layer that holds X."""
    x = d.mask_of(labels)
    (found,) = [c for c, layer in enumerate(distance_layers(d.bits, d.n)) if (layer >> x) & 1]
    return found


def random_system(rng, ground, density):
    """Each subset a member with probability density, drawn as dm.random_set_system draws."""
    return dm.SetSystem(ground, sum(1 << m for m in range(1 << len(ground)) if rng.random() < density))


def test_pivot_basics():
    d = sets("abc", [], ["a", "b"])
    assert d.pivot([]) == d
    assert d.pivot(["a", "c"]).pivot(["a", "c"]) == d
    assert d.pivot(["a"]).member_sets() == (("a",), ("b",))


def test_pivot_by_ground_is_matroid_duality():
    bases = dm.SetSystem.from_sets("abc", adjacency_matroid(K3).bases())
    flipped = bases.pivot(list("abc"))
    dual_bases = dm.SetSystem.from_sets("abc", adjacency_matroid(K3).dual().bases())
    assert flipped == dual_bases


def test_loop_complement_single_element():
    d = sets("ab", [])
    assert d.loop_complement(["a"]) == sets("ab", [], ["a"])
    assert d.loop_complement(["a"]).loop_complement(["a"]) == d


def test_loop_complement_tracks_graphs():
    for g in all_looped_simple_graphs(3):
        for v in g.labels:
            assert dm.from_graph(g).loop_complement([v]) == dm.from_graph(g.loop_complement(v))


def test_multi_element_flips_match_sequential():
    d = sets("abc", ["a"], ["b", "c"], ["a", "b", "c"])
    # a repeated element flips once: every form treats X as a set
    for x in ([], ["a"], ["a", "b"], ["a", "b", "c"], ["a", "a"], ["b", "a", "b"]):
        assert d.loop_complement(x) == d.loop_complement_sequential(x)
        assert d.dual_pivot(x) == d.dual_pivot_sequential(x)
    e = sets("ab", [], ["a"])
    assert e.loop_complement_sequential(["a", "a"]).member_sets() == ((),)
    assert e.dual_pivot_sequential(["a", "a"]).member_sets() == (("a",),)


def test_word_flips_match_counting_rules():
    rng = random.Random(3)
    for n in range(7):
        ground = tuple(f"v{i}" for i in range(n))
        for _ in range(30):
            d = random_system(rng, ground, rng.choice([0.1, 0.3, 0.6]))
            x = [v for v in ground if rng.random() < 0.5]
            assert d.loop_complement(x).family == _loop_complement_by_counting(d, x)
            assert d.dual_pivot(x).family == _dual_pivot_by_counting(d, x)
            assert d.pivot(x).family == {m ^ d.mask_of(x) for m in d.family}


def test_dual_pivot_examples():
    d = sets("abc", ["a"], ["b"])
    assert d.dual_pivot([]) == d
    power = dm.SetSystem("abc", 0b11111110)
    assert power.dual_pivot(list("abc")) == sets("abc", [], ["a", "b", "c"])
    # unlooped vertices complement through the dual pivot
    for v in K3.labels:
        assert dm.from_graph(K3).dual_pivot([v]) == dm.from_graph(K3.local_complement(v))


def test_distance_and_minmax():
    d = dm.from_graph(K3)
    assert distance(d, []) == 0  # normal
    assert distance(d, ["a"]) == 1
    assert d.min_sys().member_sets() == ((),)
    assert d.max_sys().member_sets() == (("a", "b"), ("a", "c"), ("b", "c"))
    bases = dm.SetSystem.from_sets("abc", adjacency_matroid(K3).bases())
    assert bases.max_sys() == bases
    for n in range(3):
        with pytest.raises(ValueError, match="distance needs a proper set system"):
            distance_layers(0, n)


def test_distance_is_induced_nullity():
    for g in all_looped_simple_graphs(3):
        d = dm.from_graph(g)
        for mask in range(1 << g.n):
            idx = [i for i in range(g.n) if (mask >> i) & 1]
            assert distance(d, [g.labels[i] for i in idx]) == nullity(
                principal_submatrix(g.adj, idx)
            )


def test_deletion_and_tilde_operations():
    d = sets("ab", [], ["a"], ["a", "b"])
    assert d.delete(["a"]).ground == ("b",)
    assert d.delete(["a"]).member_sets() == ((),)
    assert d.tilde_minus("a") == sets("ab", [])
    assert d.tilde_contract("a") == sets("ab", ["a"], ["a", "b"])
    single = sets("v", [], ["v"])
    assert single.tilde_minus("v") == sets("v", [])
    # deleting a coloop reports improperness instead of raising
    coloopy = sets("ab", ["a"], ["a", "b"])
    assert not coloopy.delete(["a"]).is_proper


def test_unknown_labels_are_rejected_alike():
    d = sets("ab", [], ["a"])
    calls = (d.restrict, d.delete, d.pivot, d.contains, d.loop_complement, d.dual_pivot)
    for call in calls:
        for x in (["zz"], ["a", "zz"], (v for v in ("b", "zz"))):
            with pytest.raises(ValueError, match=r"^unknown element 'zz'$"):
                call(x)
    assert d.restrict(["b", "a"]) == d.delete([]) == d
    assert d.restrict([]) == d.delete(["a", "b", "a"]) == sets("", [])


def every_small_family():
    """Every family on every ground set of at most 3 elements."""
    for n in range(4):
        ground = tuple(f"v{i}" for i in range(n))
        for packed in range(1 << (1 << n)):
            yield dm.SetSystem(ground, packed)


def flip_by_scan(d, x, step):
    """Reference: test every coordinate, and step in those of x."""
    xm = d.mask_of(x)
    bits = d.bits
    for i, (zero, _) in enumerate(coord_masks(d.n)):
        if (xm >> i) & 1:
            bits = step(bits, zero, 1 << i)
    return dm.SetSystem(d.ground, bits)


SCANNED_FLIPS = {
    "pivot": lambda f, zero, b: ((f & zero) << b) | ((f >> b) & zero),
    "loop_complement": lambda f, zero, b: f ^ ((f & zero) << b),
    "dual_pivot": lambda f, zero, b: f ^ ((f >> b) & zero),
}


def extremal_by_direction(d, which):
    """Reference: pick the shift direction afresh in every coordinate."""
    closure, beyond = d.bits, 0
    for i, (zero, one) in enumerate(coord_masks(d.n)):
        step = (closure & zero) << (1 << i) if which == "min" else (closure & one) >> (1 << i)
        beyond |= step
        closure |= step
    return dm.SetSystem(d.ground, d.bits & ~beyond)


def test_flips_and_extrema_match_the_coordinate_scans():
    for d in every_small_family():
        for mask in range(1 << d.n):
            x = sorted(d.labels_of(mask))
            for op, step in SCANNED_FLIPS.items():
                expected = flip_by_scan(d, x, step)
                assert getattr(d, op)(x) == expected
                assert getattr(d, op)(x + x[::-1]) == expected  # a repeat flips once
        if d.is_proper:
            assert d.min_sys() == extremal_by_direction(d, "min")
            assert d.max_sys() == extremal_by_direction(d, "max")


def test_restriction_matches_the_per_coordinate_reference(set_restricted):
    """restrict at every keep mask and delete at every mask, on every small
    family and on seeded families up to 10 elements."""
    rng = random.Random(35)
    seeded = [
        dm.SetSystem(tuple(f"v{i}" for i in range(n)), rng.getrandbits(1 << n))
        for n in range(4, 11) for _ in range(4)
    ]
    for d in [*every_small_family(), *seeded]:
        masks = range(1 << d.n) if d.n <= 3 else [rng.getrandbits(d.n) for _ in range(24)]
        for mask in masks:
            x = d.labels_of(mask)
            assert d.restrict(x) == set_restricted(d, mask)
            assert d.delete(x) == set_restricted(d, ~mask)
        for i, v in enumerate(d.ground):
            assert d.contract(v) == set_restricted(d.pivot([v]), ~(1 << i))


def test_repeated_labels_count_once():
    d = sets("abc", ["a"], ["b", "c"])
    assert d.mask_of(["c", "a", "c", "c"]) == d.mask_of(iter("ac")) == 0b101
    assert d.pivot(["b", "b"]) == d.pivot(["b"]) != d
    assert d.contains(["b", "c", "b"]) and not d.contains(["a", "a", "b"])


def equicardinal_min_by_labels(d):
    """Reference: pivot by each X from scratch, through its labels."""
    return d.is_proper and all(
        d.pivot(d.labels_of(x)).min_sys().is_equicardinal for x in range(1 << d.n)
    )


def test_min_criterion_matches_the_label_loop_on_every_small_family():
    for d in every_small_family():
        assert _equicardinal_min_criterion(d) == equicardinal_min_by_labels(d)


def test_min_criterion_matches_the_label_loop_on_exchange_systems():
    """Built as verify's pivots-preserve-exchange check builds them: pivoted
    graph encodings, a deletion of each, and each with its largest member
    dropped."""
    rng = random.Random(11)
    outcomes = []
    while len(outcomes) < 2000:
        g = random_looped_simple_graph(rng, rng.randrange(4, 7))
        d = dm.from_graph(g).pivot([v for v in g.labels if rng.random() < 0.5])
        deleted = d.delete([g.labels[rng.randrange(g.n)]])
        dropped = dm.SetSystem(d.ground, d.bits ^ (1 << max(d.family)))
        for system in (d, deleted, dropped):
            outcomes.append(_equicardinal_min_criterion(system))
            assert outcomes[-1] == equicardinal_min_by_labels(system), system
    assert set(outcomes) == {True, False}


def test_deletion_tracks_graphs():
    for g in all_looped_simple_graphs(3):
        for v in g.labels:
            assert dm.from_graph(g).delete([v]) == dm.from_graph(g.minus(v))


def test_contract_of_normal_system_with_singleton():
    d = sets("ab", [], ["a"])
    out = d.contract("a")
    assert out.is_proper and out.ground == ("b",)


def test_is_delta_matroid():
    for g in all_looped_simple_graphs(3):
        assert dm.is_delta_matroid(dm.from_graph(g))
    assert not dm.is_delta_matroid(sets("abc", [], ["a", "b", "c"]))
    bases = dm.SetSystem.from_sets("abc", adjacency_matroid(K3L).bases())
    assert dm.is_delta_matroid(bases)
    assert not dm.is_delta_matroid(dm.SetSystem("ab", 0))


def test_exchange_check_matches_pairs_on_every_small_family():
    for n in range(4):
        ground = tuple(f"v{i}" for i in range(n))
        for packed in range(1 << (1 << n)):
            d = dm.SetSystem(ground, packed)
            assert dm.satisfies_exchange_axiom(d) == _exchange_by_pairs(d)
            assert dm.is_delta_matroid(d) == _equicardinal_min_criterion(d)


def exchange_by_literal_pairs(d):
    """Reference: the symmetric exchange axiom with u and v searched afresh
    for every pair of members x, y."""
    fam, n = d.family, d.n
    for x in fam:
        for y in fam:
            diff = x ^ y
            for u in range(n):
                ub = 1 << u
                if not diff & ub or (x ^ ub) in fam:
                    continue
                rest = diff & ~ub
                if not any((rest >> v) & 1 and (x ^ ub ^ (1 << v)) in fam for v in range(n)):
                    return False
    return True


def test_exchange_oracle_matches_the_literal_pairs():
    """verify's oracle works out per member which u leave F and which v
    rescue them; it agrees with the literal pairs on every family with
    n <= 3 and on seeded n = 4-5 families: random ones, pivoted graph
    encodings, and those with one subset toggled."""
    rng = random.Random(4343)
    systems = list(every_small_family())
    assert len(systems) == 278
    for _ in range(1000):
        ground = tuple(f"v{i}" for i in range(rng.randrange(4, 6)))
        d = dm.from_graph(random_looped_simple_graph(rng, len(ground)))
        d = d.pivot([v for v in ground if rng.random() < 0.5])
        toggled = dm.SetSystem(ground, d.bits ^ (1 << rng.randrange(1 << len(ground))))
        systems += [random_system(rng, ground, rng.choice([0.1, 0.3, 0.7])), d, toggled]
    outcomes = set()
    for d in systems:
        holds = _exchange_by_pairs(d)
        assert holds == exchange_by_literal_pairs(d), d
        outcomes.add((d.n > 3, holds))
    assert len(systems) == 3278
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_exchange_check_matches_pairs_on_pivoted_graph_encodings():
    rng = random.Random(7)
    for _ in range(60):
        g = random_looped_simple_graph(rng, rng.randrange(1, 8))
        d = dm.from_graph(g).pivot([v for v in g.labels if rng.random() < 0.5])
        assert dm.satisfies_exchange_axiom(d) and _exchange_by_pairs(d)
        dropped = dm.SetSystem(d.ground, d.bits ^ (1 << rng.choice(sorted(d.family))))
        assert dm.satisfies_exchange_axiom(dropped) == _exchange_by_pairs(dropped)


def small_and_seeded_graphs(seed):
    """Every looped simple graph with n <= 4, then seeded ones with n = 5-10."""
    for n in range(5):
        yield from all_looped_simple_graphs(n)
    rng = random.Random(seed)
    for n in range(5, 11):
        for _ in range(3):
            yield random_looped_simple_graph(rng, n)


def test_exchange_axiom_holds_on_graph_encodings():
    # Bouchet's theorem, which lets from_graph skip the check
    for g in small_and_seeded_graphs(5):
        assert dm.satisfies_exchange_axiom(dm.from_graph(g)), g


def test_from_graph_never_runs_the_exchange_check(monkeypatch):
    graphs = list(small_and_seeded_graphs(6))
    encoded = [dm.from_graph(g) for g in graphs]

    def check(_):
        raise AssertionError("exchange check ran")

    monkeypatch.setattr(dm, "satisfies_exchange_axiom", check)
    for g, before in zip(graphs, encoded):
        d = dm.from_graph(g)
        assert type(d) is dm.DeltaMatroid and d == before
        subsets = ([i for i in range(g.n) if (mask >> i) & 1] for mask in range(1 << g.n))
        nonsingular = [nullity(principal_submatrix(g.adj, s)) == 0 for s in subsets]
        assert d.bits == sum(1 << mask for mask, ok in enumerate(nonsingular) if ok)
    with pytest.raises(AssertionError, match="exchange check ran"):
        dm.DeltaMatroid("ab", 0b1111)


def exchange_families():
    """Every family with n <= 3, then seeded n = 4-5 ones: random, pivoted
    graph encodings, and those with one subset toggled."""
    yield from every_small_family()
    rng = random.Random(4545)
    for _ in range(200):
        ground = tuple(f"v{i}" for i in range(rng.randrange(4, 6)))
        d = dm.from_graph(random_looped_simple_graph(rng, len(ground)))
        d = d.pivot([v for v in ground if rng.random() < 0.5])
        yield random_system(rng, ground, rng.choice([0.1, 0.3, 0.7]))
        yield d
        yield dm.SetSystem(ground, d.bits ^ (1 << rng.randrange(1 << len(ground))))


def delta_matroid_or_refusal(d):
    """DeltaMatroid(...) on d's fields, or the text of its refusal."""
    try:
        return dm.DeltaMatroid(d.ground, d.bits)
    except ValueError as exc:
        return str(exc)


def test_the_kept_exchange_verdict_matches_the_pairs_whoever_asks_first():
    """The verdict is kept per system object, so the first ask computes it:
    each of DeltaMatroid(...), is_delta_matroid and satisfies_exchange_axiom
    asks first on a fresh object, and every later ask agrees with the oracle."""
    families = list(exchange_families())
    assert len(families) == 278 + 600
    outcomes = set()
    for d in families:
        holds = _exchange_by_pairs(d)
        outcomes.add((d.n > 3, holds))
        built = delta_matroid_or_refusal(d)
        if isinstance(built, str):
            assert built == ("a delta-matroid must be proper" if not d.is_proper
                             else "symmetric exchange axiom violated")
            assert not (d.is_proper and holds)
        else:
            assert holds and dm.satisfies_exchange_axiom(built) and dm.is_delta_matroid(built)
        by_delta_check = dm.SetSystem(d.ground, d.bits)
        assert dm.is_delta_matroid(by_delta_check) == (d.is_proper and holds)
        assert dm.satisfies_exchange_axiom(by_delta_check) == holds
        by_axiom = dm.SetSystem(d.ground, d.bits)
        assert dm.satisfies_exchange_axiom(by_axiom) == holds
        assert dm.is_delta_matroid(by_axiom) == (d.is_proper and holds)
        assert dm.satisfies_exchange_axiom(by_axiom) == holds
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_the_exchange_kernel_runs_once_per_object_and_is_never_seeded(monkeypatch):
    runs = []
    kernel = dm.SetSystem.__dict__["_exchange_verdict"]
    monkeypatch.setattr(kernel, "func", lambda d, run=kernel.func: runs.append(d) or run(d))
    d = dm.SetSystem.from_sets("abc", [[], ["a"], ["a", "b"]])
    for _ in range(3):
        assert dm.satisfies_exchange_axiom(d) and dm.is_delta_matroid(d)
    assert list(map(id, runs)) == [id(d)]
    checked = dm.DeltaMatroid(d.ground, d.bits)  # an equal new object runs it again
    assert dm.is_delta_matroid(checked) and list(map(id, runs)) == [id(d), id(checked)]
    derived = [dm.from_graph(K3L), checked.pivot(["a"]), checked.max_sys(), checked.delete(["c"])]
    assert all("_exchange_verdict" not in x.__dict__ for x in derived)
    assert all(dm.satisfies_exchange_axiom(x) for x in derived + derived)
    assert list(map(id, runs)) == list(map(id, [d, checked, *derived]))


def check_word_forms(d):
    """Each word operation against its per-member or pairwise rule."""
    fam, n = d.family, d.n
    assert fam == {m for m in range(1 << n) if (d.bits >> m) & 1}
    assert d.is_proper == bool(fam) and d.is_normal == (0 in fam)
    assert d.is_equicardinal == (len({m.bit_count() for m in fam}) <= 1)
    if fam:
        assert d.min_sys().family == {
            m for m in fam if not any(z != m and z & ~m == 0 for z in fam)
        }
        assert d.max_sys().family == {
            m for m in fam if not any(z != m and m & ~z == 0 for z in fam)
        }
    for x in range(1 << n):
        labels = d.labels_of(x)
        assert d.contains(labels) == (x in fam)
        if fam:
            assert distance(d, labels) == min((m ^ x).bit_count() for m in fam)
        positions = [i for i in range(n) if (x >> i) & 1]
        kept = d.restrict(labels)
        assert kept.ground == tuple(d.ground[i] for i in positions)
        assert kept.family == {
            sum(((m >> p) & 1) << k for k, p in enumerate(positions)) for m in fam if not m & ~x
        }
    for i, v in enumerate(d.ground):
        assert d.is_loop(v) == (not any((m >> i) & 1 for m in fam))
        assert d.is_coloop(v) == all((m >> i) & 1 for m in fam)
        assert d.tilde_minus(v).family == {m for m in fam if not (m >> i) & 1}
        assert d.tilde_contract(v).family == {m for m in fam if (m >> i) & 1}


def test_word_forms_match_member_rules():
    for n in range(4):
        ground = tuple(f"v{i}" for i in range(n))
        for packed in range(1 << (1 << n)):
            check_word_forms(dm.SetSystem(ground, packed))
    rng = random.Random(11)
    for n in range(4, 7):
        ground = tuple(f"v{i}" for i in range(n))
        for _ in range(12):
            check_word_forms(random_system(rng, ground, rng.choice([0.05, 0.3, 0.7])))
        for _ in range(4):
            g = random_looped_simple_graph(rng, n)
            check_word_forms(dm.from_graph(g).pivot(rng.sample(g.labels, rng.randrange(n))))
    for n in range(7, 11):
        ground = tuple(f"v{i}" for i in range(n))
        check_word_forms(random_system(rng, ground, rng.choice([0.05, 0.3])))
        g = random_looped_simple_graph(rng, n)
        check_word_forms(dm.from_graph(g).pivot(rng.sample(g.labels, rng.randrange(n))))


def test_family_is_checked_and_read_only():
    assert dm.SetSystem("ab", 0b1111).family == {0, 1, 2, 3}
    for bits in (-1, 1 << 4):
        with pytest.raises(ValueError):
            dm.SetSystem("ab", bits)
    d = dm.SetSystem("", 1)
    assert d.member_sets() == ((),)
    with pytest.raises(AttributeError):
        d.family = frozenset()


def test_delta_matroid_type_validates():
    with pytest.raises(ValueError):
        dm.DeltaMatroid("abc", 1 << 0 | 1 << 0b111)
    with pytest.raises(ValueError):
        dm.DeltaMatroid("ab", 0)
    ok = dm.DeltaMatroid("ab", 0b1111)
    assert ok.is_normal


def test_graph_encoding_examples():
    looped = LoopedSimpleGraph.build("v", loops="v")
    assert dm.from_graph(looped).member_sets() == ((), ("v",))
    unlooped = LoopedSimpleGraph.build("v")
    assert dm.from_graph(unlooped).member_sets() == ((),)
    assert dm.from_graph(K3).member_sets() == (
        (), ("a", "b"), ("a", "c"), ("b", "c")
    )


def test_graph_decoding_round_trip():
    for g in [*all_looped_simple_graphs(3), random_looped_simple_graph(random.Random(12), 12)]:
        assert dm.to_graph(dm.from_graph(g)) == g
    with pytest.raises(ValueError):
        dm.to_graph(sets("abc", [], ["a", "b", "c"]))
    with pytest.raises(ValueError):
        dm.to_graph(sets("ab", ["a"]))  # not normal


def test_max_as_matroid():
    assert dm.max_as_matroid(dm.from_graph(K3)) == adjacency_matroid(K3).bases()
    assert dm.max_as_matroid(dm.from_graph(K3L)) == {frozenset("abc")}
    assert dm.max_as_matroid(sets("ab", [])) == {frozenset()}
    with pytest.raises(ValueError):
        dm.max_as_matroid(sets("uvw", ["u"], ["v", "w"]))


def test_max_deletion_counterexample_family():
    d = sets("uvw", ["u"], ["v"], ["v", "w"])
    top = d.max_sys()
    assert not top.is_coloop("w")
    assert top.delete(["w"]).member_sets() == (("u",),)
    assert d.delete(["w"]).max_sys().member_sets() == (("u",), ("v",))


def test_ground_gate():
    with pytest.raises(ValueError):
        dm.SetSystem(tuple(f"v{i}" for i in range(17)), 0)


def test_from_graph_checks_the_gate_before_scanning(monkeypatch):
    def scan(_):
        raise AssertionError("from_graph scanned a graph over the ground gate")

    monkeypatch.setattr(LoopedSimpleGraph.__dict__["nonsingular_subsets"], "func", scan)
    with pytest.raises(ValueError):
        dm.from_graph(LoopedSimpleGraph.build(tuple(f"v{i}" for i in range(17))))


def test_distance_layers_match_distance():
    """Word c of the layers is the X with c the least |m ^ x| over members m,
    on seeded proper set systems with n <= 5 and on the encodings of seeded
    graphs with n <= 7."""
    rng = random.Random(1432)
    systems = []
    for n in range(6):
        ground = tuple("abcdef"[:n])
        for density in (0.05, 0.3, 0.7):
            systems += [random_system(rng, ground, density) for _ in range(4)]
        systems.append(dm.SetSystem(ground, 1 << rng.randrange(1 << n)))
    systems = [d for d in systems if d.is_proper]
    systems += [dm.from_graph(random_looped_simple_graph(rng, n)) for n in range(8) for _ in range(3)]
    assert len(systems) > 70
    for d in systems:
        layers = distance_layers(d.bits, d.n)
        assert layers[0] == d.bits and all(layers)
        for x in range(1 << d.n):
            nearest = min((m ^ x).bit_count() for m in d.family)
            assert [(layer >> x) & 1 for layer in layers].index(1) == nearest
        assert sum(layers) == (1 << (1 << d.n)) - 1  # disjoint, and they cover every X


def test_random_set_system_checks_the_gate_before_drawing():
    class NoDraws(random.Random):
        def random(self):
            raise AssertionError("random_set_system drew for a ground over the gate")

    with pytest.raises(ValueError, match="gated"):
        dm.random_set_system(NoDraws(0), tuple(f"v{i}" for i in range(GROUND_GATE + 1)))
