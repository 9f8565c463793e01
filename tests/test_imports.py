"""Every imported name in the package and its tests is used, every
definition in the package is referenced from the package or the benchmark
(a class or static method through its own class), object.__new__, the
principal scan, the coloop pass and pairing validation each have one site,
only the two classifiers read a graph's kept coloop masks, the two row
eliminations run only inside gf2 and gf2 runs two in all, both
subset expansions read distance layers, a polynomial is a value with no
arithmetic that the library builds only out of a packed tally or by the
binomial form, the tally read has no loop and the recursion rules are shifts
and adds, the recursions build and ask no graph or matroid after entry, the
one-coordinate pivot, the per-set-bit walk and the
min/max closure each have one kernel, in gf2, and
the min-equicardinal oracle builds no set system, binary_matroid and
polynomials import no delta_matroid, both work limits and their checkers
are defined only in gf2, only the minor routes build an adjacency matroid, the
4-regular builders take no validating route, only the Kotzig merge builds an
Euler system unchecked, an Euler system is a circuit partition subclass whose
body defines only its check, the slow references that only verify calls live
in verify, no check body in verify reads the suite's rng, no matrix is
walked entry by entry over all pairs, a symmetric pair fill and a walk of
a graph's rows into edge pairs each have one site, in graph, and in the CLI
only main reads input or prints to stdout and no command prints, and the
package memoizes no
attribute with functools.cached_property and writes into no instance
__dict__ outside gf2, and no value class is a dataclass, so importing the
package compiles no source text but the dataclass methods of verify's
CheckResult."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "adjmatroid").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))
# Tests do not count as callers: a definition only they reach is dead code.
REFERRERS = SOURCES + sorted((ROOT / "bench").rglob("*.py"))
# argparse calls ArgumentParser.error on a usage error; no code names it.
CALLED_BY_LIBRARIES = frozenset({"_Parser.error"})


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node or string in
    __all__ refers to; __future__ imports are directives, not bindings."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import a.b\n"
        "from x import used, exported, unused\n"
        "__all__ = ['exported']\n"
        "print(used, a.b.c, os)\n"
    )
    assert unused_imports(source) == ["line 2: system", "line 4: unused"]


def test_no_unused_imports():
    assert FILES
    found = {
        str(path.relative_to(ROOT)): names
        for path in FILES
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def references(source: str) -> set[str]:
    """Every name the source reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def definitions(source: str) -> list[tuple[str, ast.AST]]:
    """Every function, method and class, with its qualified name, in source order."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def unused_definitions(source: str, used: set[str]) -> list[str]:
    """Functions, methods and classes, by qualified name, whose name is not in
    `used`; dunder methods are called by Python and exempt."""
    return [
        f"line {node.lineno}: {name}"
        for name, node in definitions(source)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used and name not in CALLED_BY_LIBRARIES
    ]


def test_checker_flags_only_unused_definitions():
    source = (
        "class Used:\n"
        "    def method(self): ...\n"
        "    def __repr__(self): ...\n"
        "    def orphan(self):\n"
        "        def inner(): ...\n"
        "        return inner()\n"
        "class _Parser:\n"
        "    def error(self): ...\n"
        "def helper(): ...\n"
        "def unused(): ...\n"
        "unused = helper\n"
        "print(Used().method, _Parser)\n"
    )
    assert unused_definitions(source, references(source)) == [
        "line 4: Used.orphan", "line 10: unused",
    ]
    # a leftover with no caller in the package or the benchmark is flagged
    gf2 = (ROOT / "src" / "adjmatroid" / "gf2.py").read_text()
    stub = "    def restricted_to(self, mask):\n        return self\n\n"
    planted = gf2.replace("    def permuted(", stub + "    def permuted(", 1)
    used = set().union(*(references(path.read_text()) for path in REFERRERS))
    flagged = [f.split(": ")[1] for f in unused_definitions(planted, used)]
    assert flagged == ["Subspace.restricted_to"]


def test_every_definition_is_referenced():
    used = set().union(*(references(path.read_text()) for path in REFERRERS))
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unused_definitions(path.read_text(), used))
    }
    assert found == {}


def class_references(source: str) -> set[tuple[str, str]]:
    """(Class, name) for every read of Class.name or module.Class.name, and
    of cls.name inside the body of class Class."""
    out = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                base = child.value
                if isinstance(base, ast.Name):
                    out.add((owner if base.id == "cls" else base.id, child.attr))
                elif isinstance(base, ast.Attribute):
                    out.add((base.attr, child.attr))
            visit(child, owner)

    visit(ast.parse(source), "")
    return out


def unreferenced_class_methods(source: str, used: set[tuple[str, str]]) -> list[str]:
    """Class and static methods that `used` never names through their class,
    so a method of the same name elsewhere cannot hide them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            decorators = getattr(item, "decorator_list", ())
            bound = {d.id for d in decorators if isinstance(d, ast.Name)}
            if bound & {"classmethod", "staticmethod"} and (node.name, item.name) not in used:
                found.append(f"line {item.lineno}: {node.name}.{item.name}")
    return found


def test_checker_flags_class_methods_reached_only_through_other_classes():
    source = (
        "class A:\n"
        "    @classmethod\n"
        "    def build(cls): return cls.make()\n"
        "    @classmethod\n"
        "    def make(cls): ...\n"
        "    @staticmethod\n"
        "    def helper(): ...\n"
        "    @classmethod\n"
        "    def zero(cls): ...\n"
        "    @staticmethod\n"
        "    def orphan(): ...\n"
        "    def method(self): return self.zero, self.orphan()\n"
        "class B:\n"
        "    @classmethod\n"
        "    def zero(cls): ...\n"
        "    @classmethod\n"
        "    def other(cls): return cls.orphan\n"
        "zero = 0\n"
        "print(A.build(), mod.A.helper, B.zero, B.other, zero, A().method)\n"
    )
    assert unreferenced_class_methods(source, class_references(source)) == [
        "line 9: A.zero", "line 11: A.orphan",
    ]


def test_every_class_method_is_referenced_through_its_class():
    used = set().union(*(class_references(path.read_text()) for path in REFERRERS))
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unreferenced_class_methods(path.read_text(), used))
    }
    assert found == {}


def sites(source: str, hit: Callable[[ast.AST], bool]) -> list[str]:
    """Where the source has a node that hit accepts: the qualified name of
    the innermost enclosing definition, or <module>."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if hit(child):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def reads_object_new(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    )


def calls(name: str) -> Callable[[ast.AST], bool]:
    """Accepts a call of name, bare or as an attribute."""

    def hit(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )

    return hit


calls_principal_scan = calls("nonsingular_subsets")  # a 2^n subset scan
calls_coloop_masks = calls("coloop_masks")  # an echelon form of every vertex's evidence


def sites_in_sources(hit: Callable[[ast.AST], bool]) -> dict[str, list[str]]:
    return {
        str(path.relative_to(ROOT)): found
        for path in SOURCES
        if (found := sites(path.read_text(), hit))
    }


def test_checker_finds_every_object_new():
    source = (
        "x = object.__new__(int)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return [object.__new__(A), A.__new__(A), super().__new__(A)]\n"
    )
    assert sites(source, reads_object_new) == ["<module>", "A.f"]


def test_only_gf2_unchecked_skips_the_constructor_checks():
    assert sites_in_sources(reads_object_new) == {"src/adjmatroid/gf2.py": ["unchecked"]}


def test_checker_finds_every_principal_scan():
    source = (
        "x = nonsingular_subsets(a)\n"
        "class G:\n"
        "    @cached_property\n"
        "    def nonsingular_subsets(self):\n"
        "        return nonsingular_subsets(self.adj)\n"
        "def f(g):\n"
        "    return g.nonsingular_subsets, gf2.nonsingular_subsets(g.adj)\n"
    )
    assert sites(source, calls_principal_scan) == ["<module>", "G.nonsingular_subsets", "f"]


def test_only_the_graph_memo_scans_principal_submatrices():
    assert sites_in_sources(calls_principal_scan) == {
        "src/adjmatroid/graph.py": ["LoopedSimpleGraph.nonsingular_subsets"]
    }


def test_checker_finds_every_coloop_pass_and_elimination():
    source = (
        "class G:\n"
        "    @cached_property\n"
        "    def coloop_masks(self):\n"
        "        return coloop_masks(self.adj)\n"
        "def classify(g, v):\n"
        "    return g.coloop_masks, gf2.coloop_masks(g.adj)\n"
        "def evidence(g):\n"
        "    return forward_pivots(g.adj.data), g.coloop_masks\n"
    )
    assert sites(source, calls_coloop_masks) == ["G.coloop_masks", "classify"]
    assert sites(source, calls("forward_pivots")) == ["evidence"]
    package = ROOT / "src" / "adjmatroid"
    planted = (package / "graph.py").read_text() + "def f(g):\n    return coloop_masks(g.adj)\n"
    assert sites(planted, calls_coloop_masks) == ["LoopedSimpleGraph.coloop_masks", "f"]
    planted = (package / "adjacency_matroid.py").read_text() + "x = forward_pivots(())\n"
    assert sites(planted, calls("forward_pivots")) == ["<module>"]


def test_only_the_graph_memo_computes_coloop_evidence():
    assert sites_in_sources(calls_coloop_masks) == {
        "src/adjmatroid/graph.py": ["LoopedSimpleGraph.coloop_masks"]
    }
    matroids = (ROOT / "src" / "adjmatroid" / "adjacency_matroid.py").read_text()
    assert sites(matroids, calls("forward_pivots")) == []


def reads_coloop_masks(node: ast.AST) -> bool:
    """A read of an attribute named coloop_masks: a graph's kept evidence, or
    gf2's pass, which calls_coloop_masks keeps inside the graph memo."""
    return (
        isinstance(node, ast.Attribute) and node.attr == "coloop_masks"
        and isinstance(node.ctx, ast.Load)
    )


def test_checker_finds_every_read_of_the_kept_coloop_masks():
    source = (
        "class G:\n"
        "    def coloop_masks(self):\n"
        "        return coloop_masks(self.adj)\n"
        "def evidence(g, v):\n"
        "    plain, loop = g.coloop_masks\n"
        "    return plain >> g.index(v) & 1\n"
        "def case(g, v):\n"
        "    return _case(*g.coloop_masks, g.index(v))\n"
        "def store(g):\n"
        "    g.coloop_masks = (0, 0)\n"
    )
    assert sites(source, reads_coloop_masks) == ["evidence", "case"]
    planted = (ROOT / "src" / "adjmatroid" / "adjacency_matroid.py").read_text() + (
        "def _coloop_evidence(g, v):\n"
        "    plain, loop = g.coloop_masks\n"
        "    return bool(plain >> g.index(v) & 1), bool(loop >> g.index(v) & 1)\n"
    )
    assert sites(planted, reads_coloop_masks) == [
        "classify_vertex", "tripartition_report", "_coloop_evidence"
    ]


def test_only_the_classifiers_read_the_kept_coloop_masks():
    """Outside the graph, every other vertex question (is_triple_coloop, trio,
    delete_via_subgraph) reads the case classify_vertex decides."""
    found = {
        path: names
        for path, readers in sites_in_sources(reads_coloop_masks).items()
        if (names := [s for s in readers if not s.startswith("LoopedSimpleGraph.")])
    }
    assert found == {
        "src/adjmatroid/adjacency_matroid.py": ["classify_vertex", "tripartition_report"]
    }


def reads_cached_property(node: ast.AST) -> bool:
    """An import of cached_property, or a read of it off a module."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "cached_property" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "cached_property"


def test_checker_finds_every_cached_property_read():
    source = (
        "from functools import lru_cache, cached_property as memo\n"
        "import functools\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def x(self):\n"
        "        return 1\n"
        "    @gf2.cached\n"
        "    def y(self):\n"
        "        return 2\n"
        "def f():\n"
        "    from functools import cached_property\n"
    )
    assert sites(source, reads_cached_property) == ["<module>", "A.x", "f"]


def test_the_package_memoizes_through_gf2_cached_alone():
    """functools.cached_property takes a lock on each first read in Python
    3.11; the package's derived attributes use gf2.cached, which takes none."""
    assert sites_in_sources(reads_cached_property) == {}


def writes_instance_dict(node: ast.AST) -> bool:
    """An assignment into a subscript of an instance's __dict__ or vars()."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Subscript) and (
            isinstance(t.value, ast.Attribute) and t.value.attr == "__dict__"
            or calls("vars")(t.value)
        )
        for t in targets
    )


def test_checker_finds_every_instance_dict_write():
    source = (
        "class cached:\n"
        "    def __get__(self, obj, owner=None):\n"
        "        value = obj.__dict__[self.name] = self.func(obj)\n"
        "        return value\n"
        "def derived(g, position):\n"
        "    g.__dict__['_position'] = position\n"
        "def counted(g, k):\n"
        "    vars(g)[k] += 1\n"
        "def reads(obj, cls, fields):\n"
        "    obj.__dict__.update(fields)\n"
        "    return obj.__dict__['x'], cls.__dict__['y'], vars(obj)\n"
    )
    assert sites(source, writes_instance_dict) == ["cached.__get__", "derived", "counted"]
    planted = (ROOT / "src" / "adjmatroid" / "graph.py").read_text() + (
        "def derived_as_before(g, position):\n"
        "    g.__dict__['_position'] = position  # what the cached attribute would build\n"
    )
    assert sites(planted, writes_instance_dict) == ["derived_as_before"]


def test_only_the_gf2_memo_writes_an_instance_dict():
    """A derived attribute is filled by gf2.cached on its first read, and by
    nothing else: a derived graph builds its own label index."""
    assert sites_in_sources(writes_instance_dict) == {"src/adjmatroid/gf2.py": ["cached.__get__"]}


def test_checker_finds_every_echelon_and_forward_pivot_call():
    source = (
        "def rank(m):\n"
        "    return len(echelon(m.data, m.cols))\n"
        "class Subspace:\n"
        "    def span(self, vectors):\n"
        "        return gf2.forward_pivots(vectors), self.echelon\n"
        "def nullspace(m):\n"
        "    def solve():\n"
        "        return gf2.echelon(m.data, m.cols)\n"
    )
    assert sites(source, calls("echelon")) == ["rank", "nullspace.solve"]
    assert sites(source, calls("forward_pivots")) == ["Subspace.span"]
    planted = (ROOT / "src" / "adjmatroid" / "verify.py").read_text() + (
        "def f(a):\n    return echelon(a.data, a.cols), forward_pivots(a.data)\n"
    )
    assert sites(planted, calls("echelon")) == sites(planted, calls("forward_pivots")) == ["f"]


def test_only_gf2_kernels_eliminate():
    """The highest-bit echelon form is behind rank and nullspace, the
    lowest-bit forward pivots behind the canonical RREF only."""
    gf2 = "src/adjmatroid/gf2.py"
    assert sites_in_sources(calls("echelon")) == {gf2: ["rank", "nullspace"]}
    assert sites_in_sources(calls("forward_pivots")) == {gf2: ["rref_masks"]}


def xors_until_reduced(node: ast.AST) -> bool:
    """Accepts a while loop that XORs into a row: the shape of a row
    elimination, which reduces until a pivot condition holds."""
    return isinstance(node, ast.While) and any(
        isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitXor) for n in ast.walk(node)
    )


def test_checker_finds_every_elimination_loop():
    source = (
        "class Subspace:\n"
        "    def restricted_to(self, mask):\n"
        "        for v in self.basis:\n"
        "            while v & mask:\n"
        "                v ^= pivots[v & -v]\n"
        "def reduce_mask(v, basis):\n"
        "    for b in basis:\n"
        "        v ^= b\n"
        "    while v:\n"
        "        v &= v - 1\n"
    )
    assert sites(source, xors_until_reduced) == ["Subspace.restricted_to"]


def test_gf2_runs_two_eliminations():
    """Highest-bit echelon, and lowest-bit forward pivots with the RREF's
    back-substitution; no subset expansion eliminates per subset."""
    gf2 = (ROOT / "src" / "adjmatroid" / "gf2.py").read_text()
    assert sites(gf2, xors_until_reduced) == ["echelon", "forward_pivots", "rref_masks"]


def shifts(node: ast.AST, op: type) -> bool:
    """node shifts a word by op; a shifted constant, like 1 << i, is a bit."""
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, op) and not isinstance(n.left, ast.Constant)
        for n in ast.walk(node)
    )


def swaps_blocks(node: ast.AST) -> bool:
    """Accepts an OR of a left-shifted word and a right-shifted word: the
    shape of the one-coordinate pivot, which swaps two bit blocks."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)):
        return False
    left, right = node.left, node.right
    return (shifts(left, ast.LShift) and shifts(right, ast.RShift)) or (
        shifts(left, ast.RShift) and shifts(right, ast.LShift)
    )


def closes_by_shifts(node: ast.AST) -> bool:
    """Accepts a for loop that ORs into a word and shifts a masked word, by
    an operator or a function: the shape of a closure that moves a family
    one coordinate per step."""

    def masked(n: ast.AST) -> bool:
        return isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitAnd)

    def moves_masked(n: ast.AST) -> bool:
        if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.LShift, ast.RShift)):
            return masked(n.left)
        return isinstance(n, ast.Call) and len(n.args) == 2 and masked(n.args[0])

    inner = list(ast.walk(node)) if isinstance(node, ast.For) else []
    return any(
        isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitOr) for n in inner
    ) and any(moves_masked(n) for n in inner)


def test_checker_finds_every_block_swap_and_closure_loop():
    source = (
        "class SetSystem:\n"
        "    def pivot(self, x):\n"
        "        return self._flip(x, lambda f, zero, b: ((f & zero) << b) | ((f >> b) & zero))\n"
        "    def loop_complement(self, x):\n"
        "        return self._flip(x, lambda f, zero, b: f ^ ((f & zero) << b))\n"
        "    def _extremal(self, which):\n"
        "        for i, (zero, one) in enumerate(coord_masks(self.n)):\n"
        "            step = (closure & zero) << (1 << i) if which else (closure & one) >> (1 << i)\n"
        "            beyond |= step\n"
        "    def _restricted(self, keep):\n"
        "        for j in range(i + 1, top):\n"
        "            bits = (bits & zero) | ((bits & one) >> (1 << (j - 1)))\n"
        "def _down_closure(d):\n"
        "    for i, (_, one) in enumerate(coord_masks(d.n)):\n"
        "        bits |= (bits & one) >> (1 << i)\n"
        "def dominated(bits, n, up):\n"
        "    for i, pair in enumerate(coord_masks(n)):\n"
        "        closure |= shift(closure & pair[side], 1 << i)\n"
        "def drop_bit(v, i):\n"
        "    return (v & ((1 << i) - 1)) | ((v >> (i + 1)) << i)\n"
        "def _union_below(families, n):\n"
        "    for bit in (1 << i for i in range(n)):\n"
        "        families[s] |= families[s ^ bit]\n"
    )
    assert sites(source, swaps_blocks) == ["SetSystem.pivot"]
    assert sites(source, closes_by_shifts) == ["SetSystem._extremal", "_down_closure", "dominated"]


def steps_per_set_bit(node: ast.AST) -> bool:
    """Accepts a loop over the set bits of a mask, a while loop that clears
    the lowest one or a for loop over set_bits(...), that calls a word step
    with a bit 1 << i: the shape of one coordinate step per set bit."""
    if isinstance(node, ast.While):
        walks = any(
            isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitAnd)
            and isinstance(n.value, ast.BinOp) and isinstance(n.value.op, ast.Sub)
            for n in ast.walk(node)
        )
    else:
        walks = isinstance(node, ast.For) and calls("set_bits")(node.iter)
    return walks and any(
        isinstance(n, ast.Call) and any(
            isinstance(a, ast.BinOp) and isinstance(a.op, ast.LShift)
            and isinstance(a.left, ast.Constant) for a in n.args
        )
        for n in ast.walk(node)
    )


def test_checker_finds_every_per_set_bit_step_loop():
    source = (
        "class SetSystem:\n"
        "    def _flip(self, x, step):\n"
        "        while x:\n"
        "            i = (x & -x).bit_length() - 1\n"
        "            bits = step(bits, masks[i][0], 1 << i)\n"
        "            x &= x - 1\n"
        "def independent(basis):\n"
        "    for b in basis:\n"
        "        for i in set_bits(b):\n"
        "            translate = gf2.pivot_step(translate, masks[i][0], 1 << i)\n"
        "def is_symmetric(data):\n"
        "    while r:\n"
        "        ok = data[(r & -r).bit_length() - 1] >> i\n"
        "        r &= r - 1\n"
        "def layers(word, n):\n"
        "    for i, (zero, _) in enumerate(coord_masks(n)):\n"
        "        step |= pivot_step(word, zero, 1 << i)\n"
        "def covers(word, row):\n"
        "    for w in set_bits(row):\n"
        "        word ^= (word & masks[w][0]) << (1 << w)\n"
    )
    assert sites(source, steps_per_set_bit) == ["SetSystem._flip", "independent"]


def test_pivot_step_and_extremal_closure_have_one_kernel():
    """The flips, the independent-set word, the extrema, the distance layers,
    _down_closure and verify's min-equicardinal oracle share gf2's word
    steps, and one loop walks a mask's set bits applying a step."""
    gf2 = "src/adjmatroid/gf2.py"
    assert sites_in_sources(swaps_blocks) == {gf2: ["pivot_step"]}
    assert sites_in_sources(closes_by_shifts) == {gf2: ["dominated"]}
    assert sites_in_sources(steps_per_set_bit) == {gf2: ["flip_coordinates"]}


def gate_definitions(source: str) -> list[str]:
    """The work limits the source defines, sorted: constants named *_GATE and
    checkers named check_*gate, private or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [name for name in names if re.fullmatch(r"_?(\w+_GATE|check_\w*gate)", name)]
    return sorted(found)


def test_checker_finds_every_gate_definition():
    source = (
        "GROUND_GATE = 16\n"
        "def _check_ground_gate(n): ...\n"
        "class A:\n"
        "    WORK_GATE: int = 3\n"
        "    def check_gate(self): return check_enum_gate(3, 'x')\n"
        "GATE = ENUM_GATE\n"
    )
    assert gate_definitions(source) == [
        "GROUND_GATE", "WORK_GATE", "_check_ground_gate", "check_gate",
    ]


def test_both_gates_and_their_checkers_live_only_in_gf2():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := gate_definitions(path.read_text()))
    }
    gates = ["ENUM_GATE", "GROUND_GATE", "check_enum_gate", "check_ground_gate"]
    assert found == {"src/adjmatroid/gf2.py": gates}


DELTA = ROOT / "src" / "adjmatroid" / "delta_matroid.py"
VERIFY = ROOT / "src" / "adjmatroid" / "verify.py"


def set_system_makers(source: str) -> set[str]:
    """The class SetSystem, unchecked, the label codec, and every SetSystem
    method annotated to return a SetSystem."""
    cls = next(node for name, node in definitions(source) if name == "SetSystem")
    returns = {
        f.name for f in cls.body
        if isinstance(f, ast.FunctionDef) and isinstance(f.returns, ast.Constant)
        and f.returns.value == "SetSystem"
    }
    return returns | {"SetSystem", "unchecked", "labels_of", "mask_of"}


def called_in(source: str, function: str, names: set[str]) -> list[str]:
    """Which of names the function calls, bare or as an attribute, sorted."""
    func = next(node for name, node in definitions(source) if name == function)
    return sorted({name for name in names for n in ast.walk(func) if calls(name)(n)})


def test_checker_finds_set_system_makers():
    makers = set_system_makers(DELTA.read_text())
    assert {"pivot", "min_sys", "_derived", "from_sets", "SetSystem"} <= makers
    assert not {"contains", "distance", "is_equicardinal"} & makers
    source = (
        "def _equicardinal_min_criterion(d):\n"
        "    return d.is_proper and all(\n"
        "        d.pivot(d.labels_of(x)).min_sys().is_equicardinal for x in range(1 << d.n)\n"
        "    )\n"
    )
    assert called_in(source, "_equicardinal_min_criterion", makers) == [
        "labels_of", "min_sys", "pivot",
    ]


def test_min_equicardinal_oracle_builds_no_set_system():
    """The oracle walks one family word in Gray order."""
    makers = set_system_makers(DELTA.read_text())
    assert called_in(VERIFY.read_text(), "_equicardinal_min_criterion", makers) == []


def builds_matroid(node: ast.AST) -> bool:
    """Accepts a call of adjacency_matroid, bare or as an attribute, of
    BinaryMatroid.from_matrix, or of unchecked(BinaryMatroid, ...)."""
    owner = getattr(getattr(node, "func", None), "value", None)
    return calls("adjacency_matroid")(node) or builds_unchecked("BinaryMatroid")(node) or (
        calls("from_matrix")(node)
        and "BinaryMatroid" in (getattr(owner, "id", ""), getattr(owner, "attr", ""))
    )


ADJACENCY = ROOT / "src" / "adjmatroid" / "adjacency_matroid.py"
MATROID_BUILDERS = ["adjacency_matroid", "contract_via_lc", "delete_via_subgraph"]


def test_checker_finds_every_matroid_build():
    source = (
        "def adjacency_matroid(g):\n"
        "    return BinaryMatroid.from_matrix(g.adj, g.labels)\n"
        "def trio(g, v):\n"
        "    return [adjacency_matroid(g.variant(v, k)) for k in KINDS]\n"
        "def other(g):\n"
        "    return binary_matroid.BinaryMatroid.from_matrix(a, l), m.from_matrix(a, l)\n"
        "def raw(g):\n"
        "    return gf2.unchecked(BinaryMatroid, ground=l, cycle_space=s), unchecked(Subspace, n=1)\n"
        "def classify(g):\n"
        "    return g.coloop_masks, adjacency_matroid\n"
    )
    assert sites(source, builds_matroid) == ["adjacency_matroid", "trio", "other", "raw"]
    planted = ADJACENCY.read_text() + "def f(g, v):\n    return am.adjacency_matroid(g.variant(v, 'loop'))\n"
    assert sites(planted, builds_matroid) == MATROID_BUILDERS + ["f"]


def test_only_the_minor_routes_build_adjacency_matroids():
    """Every vertex question reads the coloop evidence; verify's matroid
    suite keeps the matroid comparison."""
    assert sites(ADJACENCY.read_text(), builds_matroid) == MATROID_BUILDERS


def imported_modules(source: str) -> set[str]:
    """The last component of every module the source imports, or imports from."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out.update((node.module or alias.name).rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return out


POLYNOMIALS = ROOT / "src" / "adjmatroid" / "polynomials.py"


def test_checker_finds_every_imported_module_and_polynomial_matroid_build():
    source = (
        "from __future__ import annotations\n"
        "from .adjacency_matroid import adjacency_matroid\n"
        "from . import gf2 as g\n"
        "import adjmatroid.graph\n"
    )
    assert imported_modules(source) == {"__future__", "adjacency_matroid", "gf2", "graph"}
    planted = POLYNOMIALS.read_text() + "def q(g):\n    return adjacency_matroid(g.minus('a'))\n"
    assert sites(planted, builds_matroid) == ["q"]


def test_polynomials_build_and_import_no_adjacency_matroid():
    """The evaluators read layers or take a matroid; the induced-matroid
    interlace oracle, which builds one matroid per subset, is verify's."""
    assert "src/adjmatroid/polynomials.py" not in sites_in_sources(builds_matroid)
    assert "adjacency_matroid" not in imported_modules(POLYNOMIALS.read_text())


reads_layers = calls("distance_layers")  # the one subset enumerator of polynomials


def test_checker_finds_every_distance_layer_read():
    planted = POLYNOMIALS.read_text().replace(
        "layers = distance_layers(m._independent_bits, m.size, down_closed=True)",
        "layers = planes(m)",
    )
    assert sites(planted, reads_layers) == ["interlace_subset"]
    planted += "def q(g):\n    return [gf2.distance_layers(b, n) for b in g]\n"
    assert sites(planted, reads_layers) == ["interlace_subset", "q"]


def test_both_subset_expansions_read_distance_layers():
    """interlace_subset from the graph's delta-matroid word and tutte_subset
    from the independent-set word; no other route enumerates subsets."""
    assert sites(POLYNOMIALS.read_text(), reads_layers) == ["interlace_subset", "tutte_subset"]


POLYNOMIAL_NAMES = frozenset({"BivariatePolynomial", "shifted_power_term"})


def polynomial_names(source: str, function: str) -> list[str]:
    """Which polynomial names the body of function reads, bare, as an
    attribute or as a string annotation, sorted; its signature is exempt."""
    func = next(node for name, node in definitions(source) if name == function)
    return sorted({
        name for stmt in func.body for n in ast.walk(stmt)
        for name in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "value", None))
        if isinstance(name, str) and name in POLYNOMIAL_NAMES
    })


def class_members(source: str, cls: str) -> list[str]:
    """The names class cls binds in its body by def or plain assignment, in
    source order; annotated fields are data, not members."""
    body = next(node for name, node in definitions(source) if name == cls).body
    return [
        name for node in body
        for name in (
            [node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else [t.id for t in node.targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.Assign) else []
        )
    ]


def test_checker_finds_every_polynomial_build_member_and_recursion_read():
    source = (
        "class BivariatePolynomial:\n"
        "    terms: tuple\n"
        "    def scale(self, c):\n"
        "        return unchecked(BivariatePolynomial, terms=())\n"
        "    __mul__ = scale\n"
        "def _from_tally(t, n):\n"
        "    return gf2.unchecked(BivariatePolynomial, terms=()), unchecked(Other, terms=())\n"
        "def q_rec(g) -> BivariatePolynomial:\n"
        "    memo: dict[int, 'BivariatePolynomial'] = {}\n"
        "    def rec(h) -> int:\n"
        "        return polynomials.shifted_power_term(0, 1)\n"
        "    return _from_tally(rec(g), g.n), BivariatePolynomial(())\n"
    )
    unchecked_builds = builds_unchecked("BivariatePolynomial")
    assert sites(source, unchecked_builds) == ["BivariatePolynomial.scale", "_from_tally"]
    assert sites(source, calls("BivariatePolynomial")) == ["q_rec"]
    assert class_members(source, "BivariatePolynomial") == ["scale", "__mul__"]
    assert polynomial_names(source, "q_rec") == ["BivariatePolynomial", "shifted_power_term"]
    planted = POLYNOMIALS.read_text().replace(
        "{(0, ()): 1}  # the empty matroid", "{(0, ()): shifted_power_term(0, 0)}"
    )
    assert polynomial_names(planted, "tutte_recursive") == ["shifted_power_term"]
    planted = POLYNOMIALS.read_text().replace(
        "    def evaluate(", "    def __add__(self, other):\n        return self\n\n    def evaluate("
    )
    assert class_members(planted, "BivariatePolynomial")[:2] == ["__post_init__", "__add__"]
    planted = VERIFY.read_text() + "def q(g):\n    return unchecked(BivariatePolynomial, terms=())\n"
    assert sites(planted, unchecked_builds) == ["q"]
    planted = POLYNOMIALS.read_text() + "ONE = BivariatePolynomial(((0, 0, 1),))\n"
    assert sites(planted, calls("BivariatePolynomial")) == ["<module>"]


def test_each_evaluator_builds_its_polynomial_once_from_a_tally():
    """The library builds a polynomial in two places: the tally conversion
    that the four evaluators end in, and the closed binomial form; the
    recursions add packed tallies.  The class has no arithmetic, and only
    verify's oracle sum goes through the validating constructor."""
    assert sites_in_sources(builds_unchecked("BivariatePolynomial")) == {
        "src/adjmatroid/polynomials.py": ["shifted_power_term", "_from_tally"]
    }
    assert sites_in_sources(calls("BivariatePolynomial")) == {
        "src/adjmatroid/verify.py": ["_poly_sum"]
    }
    source = POLYNOMIALS.read_text()
    assert class_members(source, "BivariatePolynomial") == [
        "__post_init__", "evaluate", "to_text", "to_json_terms"
    ]
    for recursion in ("interlace_recursive", "tutte_recursive"):
        assert polynomial_names(source, recursion) == []


def loops(node: ast.AST) -> bool:
    """Accepts a for or while loop, or a comprehension's for clause."""
    return isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))


def multiplies(node: ast.AST) -> bool:
    """Accepts a * BinOp or a *= augmented assignment."""
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult)


RECURSIONS = ("interlace_recursive", "tutte_recursive")


def in_scopes(found: list[str], names: tuple[str, ...]) -> list[str]:
    """The scopes in found that are one of names or nested in one."""
    return [scope for scope in found if scope.split(".")[0] in names]


def test_checker_finds_every_loop_and_product():
    source = (
        "def _from_tally(t, n):\n"
        "    for s in steps:\n"
        "        t -= s\n"
        "    return [c for c in t], 2 ** n\n"
        "def tutte_recursive(m):\n"
        "    def rec(mm):\n"
        "        value = rec(mm) << w\n"
        "        value *= 3\n"
        "        return value * 2\n"
        "    while m:\n"
        "        m = 1 << m\n"
    )
    assert sites(source, loops) == ["_from_tally", "_from_tally", "tutte_recursive"]
    assert sites(source, multiplies) == ["tutte_recursive.rec", "tutte_recursive.rec"]
    planted = POLYNOMIALS.read_text().replace(
        "value = deleted << (y_shift if held else x_shift)",
        "value = deleted * (1 << (y_shift if held else x_shift))",
    )
    assert in_scopes(sites(planted, multiplies), RECURSIONS) == ["tutte_recursive.rec"]
    planted = POLYNOMIALS.read_text().replace(
        "    counts = triangle(slots)\n", "    counts = [slots[k] for k in range(len(slots))]\n"
    )
    assert in_scopes(sites(planted, loops), ("_from_tally",)) == ["_from_tally"]


def test_the_read_has_no_loop_and_the_recursion_rules_are_shifts_and_adds():
    """The polynomial is packed in x and y, so the read takes its slots out
    with no per-step pass, and every recursion rule is a shift or an add."""
    source = POLYNOMIALS.read_text()
    assert in_scopes(sites(source, loops), ("_from_tally",)) == []
    assert in_scopes(sites(source, multiplies), RECURSIONS) == []


OBJECT_ROUTES = frozenset({
    "LoopedSimpleGraph", "BinaryMatroid", "_derived", "unchecked",
    "minus", "local_complement", "delete", "contract", "is_loop", "is_coloop",
})
OBJECT_CLASSES = ("LoopedSimpleGraph", "BinaryMatroid")


def object_routes_in_recursions(source: str) -> list[str]:
    """Each call in the inner rec of either recursion, nested definitions
    included, of a graph or matroid constructor or class method, of _derived
    or unchecked, or of a minor or element question, as rec's qualified name
    and the route called.  The entry, which reads the input once, is exempt."""
    found = []
    for name, func in definitions(source):
        if name not in [f"{recursion}.rec" for recursion in RECURSIONS]:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            route = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            owner = getattr(getattr(node.func, "value", None), "id", None)
            if owner in OBJECT_CLASSES:
                found.append(f"{name}: {owner}.{route}")
            elif route in OBJECT_ROUTES:
                found.append(f"{name}: {route}")
    return found


def test_checker_finds_every_object_route_in_a_recursion():
    source = (
        "def interlace_recursive(g):\n"
        "    h = LoopedSimpleGraph(g.labels, g.adj).minus('a')\n"
        "    def rec(h):\n"
        "        three = h.local_complement(v)\n"
        "        return rec(three.minus(v)) + rec(LoopedSimpleGraph._derived(l, r))\n"
        "    return rec(h)\n"
        "def tutte_recursive(m):\n"
        "    def rec(mm):\n"
        "        def side(v):\n"
        "            return mm.delete(v) if mm.is_loop(v) else unchecked(BinaryMatroid, g=g)\n"
        "        return rec(BinaryMatroid(g, w)) + rec(mm.contract(v)) + mm.is_coloop(v)\n"
        "def other(m):\n"
        "    def rec(mm):\n"
        "        return mm.delete('a')\n"
    )
    assert sorted(object_routes_in_recursions(source)) == [
        "interlace_recursive.rec: LoopedSimpleGraph._derived",
        "interlace_recursive.rec: local_complement",
        "interlace_recursive.rec: minus",
        "tutte_recursive.rec: BinaryMatroid",
        "tutte_recursive.rec: contract",
        "tutte_recursive.rec: delete",
        "tutte_recursive.rec: is_coloop",
        "tutte_recursive.rec: is_loop",
        "tutte_recursive.rec: unchecked",
    ]
    planted = POLYNOMIALS.read_text().replace(
        "rec(_drop_index(rows, 0)) << y_shift", "rec(g.minus(g.labels[0]).adj.data) << y_shift"
    ).replace(
        "rref_masks(b >> 1 for b in basis)", "m.contract(m.ground[0]).cycle_space.basis"
    )
    assert object_routes_in_recursions(planted) == [
        "interlace_recursive.rec: minus", "tutte_recursive.rec: contract"
    ]


def test_the_recursions_build_and_ask_no_object_after_entry():
    """Both recursions read their input once at entry and recurse on ints:
    the interlace one on adjacency rows through graph's one local complement
    and one vertex deletion, the Tutte one on the canonical cycle-space basis."""
    assert object_routes_in_recursions(POLYNOMIALS.read_text()) == []


WORD_READERS = [POLYNOMIALS.with_name("binary_matroid.py"), POLYNOMIALS]


def test_checker_finds_a_delta_matroid_import():
    for line in ("from .delta_matroid import _dominated\n", "from . import delta_matroid as dm\n"):
        for path in WORD_READERS:
            assert "delta_matroid" in imported_modules(path.read_text() + line)


def test_binary_matroid_and_polynomials_import_no_delta_matroid():
    """The word steps and the layers they read are gf2's."""
    for path in WORD_READERS:
        assert "delta_matroid" not in imported_modules(path.read_text())


def calls_method(owner: str, name: str) -> Callable[[ast.AST], bool]:
    """Accepts a call of owner.name."""

    def hit(node: ast.AST) -> bool:
        func = getattr(node, "func", None)
        return (
            isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name) and func.value.id == owner
        )

    return hit


# The 4-regular builders whose results are valid by construction, and the
# validating routes they must not take.
FOUR_REGULAR = ROOT / "src" / "adjmatroid" / "four_regular.py"
DERIVED_BUILDERS = (
    "euler_system", "compatible_euler_system", "_merged", "touch_graph",
    "realize_touch_graph", "file_order_partition",
)
VALIDATING_ROUTES = {
    "partition_from_transitions": calls("partition_from_transitions"),
    "EulerSystem(...)": calls("EulerSystem"),
    "MultiGraph(...)": calls("MultiGraph"),
    "MultiGraph.build": calls_method("MultiGraph", "build"),
}


def validating_builders(source: str) -> dict[str, list[str]]:
    """Per validating route, the derived builders (or functions nested in
    them) that take it."""
    found = {}
    for route, hit in VALIDATING_ROUTES.items():
        scopes = [
            scope for scope in sites(source, hit)
            if any(scope == b or scope.startswith(b + ".") for b in DERIVED_BUILDERS)
        ]
        if scopes:
            found[route] = scopes
    return found


def test_checker_finds_validating_routes_in_derived_builders():
    source = (
        "def euler_system(f):\n"
        "    return EulerSystem(f, t, cs), unchecked(EulerSystem, f=f, transitions=t, circuits=cs)\n"
        "def touch_graph(p):\n"
        "    return MultiGraph.build(l, e), graph.MultiGraph(l, e), g.build(l)\n"
        "def realize_touch_graph(g):\n"
        "    def inner():\n"
        "        return four_regular.partition_from_transitions(f, t)\n"
        "def kappa(c, v):\n"
        "    p = partition_from_transitions(c.f, t)\n"
        "    return EulerSystem(p.f, p.transitions, p.circuits)\n"
    )
    assert validating_builders(source) == {
        "partition_from_transitions": ["realize_touch_graph.inner"],
        "EulerSystem(...)": ["euler_system"],
        "MultiGraph(...)": ["touch_graph"],
        "MultiGraph.build": ["touch_graph"],
    }
    planted = FOUR_REGULAR.read_text() + "def compatible_euler_system(f, p):\n    p.transitions.validate(f)\n"
    assert sites(planted, calls("validate")) == ["partition_from_transitions", "compatible_euler_system"]


def test_only_partition_from_transitions_validates_a_pairing():
    assert sites_in_sources(calls("validate")) == {
        "src/adjmatroid/four_regular.py": ["partition_from_transitions"]
    }


def test_derived_four_regular_objects_skip_the_validating_routes():
    assert validating_builders(FOUR_REGULAR.read_text()) == {}


def test_checker_finds_a_validating_euler_system_anywhere():
    planted = FOUR_REGULAR.read_text() + (
        "def kappa(c, v):\n"
        "    p = partition_from_transitions(c.f, t)\n"
        "    return EulerSystem(p.f, p.transitions, p.circuits)\n"
    )
    assert sites(planted, calls("EulerSystem")) == ["kappa"]


def test_four_regular_builds_no_validated_euler_system():
    """Every Euler system the module builds comes from the Kotzig merge; the
    validating rewiring kappa is verify's."""
    assert sites(FOUR_REGULAR.read_text(), calls("EulerSystem")) == []


def builds_unchecked(cls: str) -> Callable[[ast.AST], bool]:
    """Accepts a call of unchecked, bare or as an attribute, whose first
    argument is the name cls."""

    def hit(node: ast.AST) -> bool:
        return (
            calls("unchecked")(node) and bool(node.args)
            and isinstance(node.args[0], ast.Name) and node.args[0].id == cls
        )

    return hit


def test_checker_finds_every_unchecked_euler_system():
    source = (
        "def _merged(f, quads):\n"
        "    return unchecked(EulerSystem, f=f, transitions=t, circuits=_traced(f, t))\n"
        "def euler_system(f):\n"
        "    return gf2.unchecked(EulerSystem, f=f, transitions=t, circuits=cs), EulerSystem(f, t, cs)\n"
        "def touch_graph(p):\n"
        "    return unchecked(MultiGraph, labels=l), unchecked(cls=EulerSystem)\n"
    )
    assert sites(source, builds_unchecked("EulerSystem")) == ["_merged", "euler_system"]
    planted = FOUR_REGULAR.read_text() + (
        "def f(p):\n    return unchecked(EulerSystem, f=p.f, transitions=p.transitions, circuits=p.circuits)\n"
    )
    assert sites(planted, builds_unchecked("EulerSystem")) == ["_merged", "f"]


def test_only_the_kotzig_merge_builds_an_euler_system_unchecked():
    """Both Euler-system builders go through the one merge kernel."""
    assert sites_in_sources(builds_unchecked("EulerSystem")) == {
        "src/adjmatroid/four_regular.py": ["_merged"]
    }


def class_shape(source: str, name: str) -> tuple[list[str], list[str]]:
    """The bases of the named class and the names its body binds: methods,
    nested classes, fields and assignments, in source order."""
    cls = next(node for qualified, node in definitions(source) if qualified == name)
    bound = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, ast.AnnAssign):
            bound.append(ast.unparse(node.target))
        elif isinstance(node, ast.Assign):
            bound += [ast.unparse(target) for target in node.targets]
    return [ast.unparse(base) for base in cls.bases], bound


def test_checker_reads_a_class_shape():
    source = (
        "@dataclass(frozen=True)\n"
        "class EulerSystem:\n"
        "    \"\"\"A docstring binds nothing.\"\"\"\n"
        "    partition: CircuitPartition\n"
        "    size = 1\n"
        "    def __post_init__(self): ...\n"
        "    @property\n"
        "    def f(self): ...\n"
    )
    assert class_shape(source, "EulerSystem") == ([], ["partition", "size", "__post_init__", "f"])
    check = "    def __post_init__(self) -> None:\n        if self.size"
    forwarding = "    @property\n    def circuits(self):\n        return self.partition.circuits\n\n"
    planted = FOUR_REGULAR.read_text().replace(check, forwarding + check, 1)
    assert class_shape(planted, "EulerSystem") == (["CircuitPartition"], ["circuits", "__post_init__"])
    planted = FOUR_REGULAR.read_text().replace("class EulerSystem(CircuitPartition):", "class EulerSystem:")
    assert class_shape(planted, "EulerSystem") == ([], ["__post_init__"])


def test_an_euler_system_is_a_circuit_partition_with_one_check():
    """EulerSystem inherits every field and table of CircuitPartition and
    adds only the one-circuit-per-component check: no wrapped partition and
    no forwarding properties."""
    assert class_shape(FOUR_REGULAR.read_text(), "EulerSystem") == (
        ["CircuitPartition"], ["__post_init__"]
    )


# The slow references that only verify calls, by name less any leading
# underscores: each lives beside its checks in verify.py, or nowhere.
VERIFY_REFERENCES = frozenset({
    "q_from_lambda", "interlace_vertex_terms", "induced_nullities", "kappa", "all_subspaces",
    "phi_pairing", "psi_pairing", "poly_sum", "poly_times", "expanded", "tutte_by_rank",
})


def verify_references(source: str) -> list[str]:
    return [name for name, node in definitions(source) if node.name.lstrip("_") in VERIFY_REFERENCES]


def test_checker_finds_every_verify_reference():
    source = (
        "def kappa(c, v): ...\n"
        "class EulerSystem:\n"
        "    def phi_pairing(self, v): ...\n"
        "    def pairing_at(self, v): ...\n"
        "def _all_subspaces(n): ...\n"
        "all_subspaces = list\n"
        "def kappas(): ...\n"
    )
    assert verify_references(source) == ["kappa", "EulerSystem.phi_pairing", "_all_subspaces"]
    planted = POLYNOMIALS.read_text() + "def _poly_times(p, q): ...\n"
    assert verify_references(planted) == ["_poly_times"]


def test_verify_references_live_only_in_verify():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := verify_references(path.read_text()))
    }
    assert found == {
        "src/adjmatroid/verify.py": [
            "_all_subspaces", "_kappa", "_induced_nullities", "_poly_sum", "_poly_times",
            "_expanded", "_q_from_lambda", "_tutte_by_rank", "_interlace_vertex_terms",
        ]
    }


def rng_reads_in_checks(source: str) -> list[int]:
    """The lines where a `with rec.check(...)` body reads the name rng: an
    instance's draws belong before its checks, so no check moves the stream."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.With) and any(
            isinstance(call := item.context_expr, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == "check"
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "rec"
            for item in node.items
        ):
            found += [
                n.lineno for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and n.id == "rng" and isinstance(n.ctx, ast.Load)
            ]
    return sorted(found)


def test_checker_finds_every_rng_read_in_a_check():
    source = (
        "def suite(rec, rng):\n"
        "    n = rng.randrange(4)\n"
        "    with rec.check('a', n):\n"
        "        assert n < 4\n"
        "    with rec.check('b', n):\n"
        "        for _ in range(rng.randrange(n + 1)):\n"
        "            rng = None\n"
        "    with open('f') as rng_file:\n"
        "        rng.random()\n"
    )
    assert rng_reads_in_checks(source) == [6]
    walk = "            for kind, u in moves:"
    drawn = walk.replace("moves", "moves[: rng.randrange(4)]")
    planted = VERIFY.read_text().replace(walk, drawn, 1)
    assert rng_reads_in_checks(planted) == [planted.splitlines().index(drawn) + 1]


def test_no_check_body_reads_the_suite_rng():
    assert rng_reads_in_checks(VERIFY.read_text()) == []


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def entry_reads_under_two_fors(source: str) -> list[str]:
    """Where a .entry( call sits under two or more for levels of one
    definition, loop bodies and comprehension generators alike: the shape of
    an all-pairs walk of a matrix, cell by cell."""
    found = []

    def visit(node: ast.AST, scope: str, depth: int) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope, depth = f"{scope}.{node.name}" if scope else node.name, 0
        if depth >= 2 and calls("entry")(node):
            found.append(scope or "<module>")
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.iter, scope, depth)
            for child in node.body + node.orelse:
                visit(child, scope, depth + 1)
        elif isinstance(node, COMPREHENSIONS):
            for k, gen in enumerate(node.generators):
                visit(gen.iter, scope, depth + k)
                for cond in gen.ifs:
                    visit(cond, scope, depth + k + 1)
            inner = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for child in inner:
                visit(child, scope, depth + len(node.generators))
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, scope, depth)

    visit(ast.parse(source), "", 0)
    return found


def test_checker_finds_every_entry_read_under_two_fors():
    source = (
        "class G:\n"
        "    def edge_pairs(self):\n"
        "        return tuple((i, j) for i in r for j in r if self.adj.entry(i, j))\n"
        "    def loop_labels(self):\n"
        "        return tuple(v for i, v in enumerate(self.labels) if self.adj.entry(i, i))\n"
        "def cells(a):\n"
        "    for i in r:\n"
        "        for j in r:\n"
        "            out.append(a.entry(i, j))\n"
        "def rows(a):\n"
        "    for i in r:\n"
        "        out.append({j: a.entry(i, j) for j in r})\n"
        "def looped(h, row):\n"
        "    return next((i for i in set_bits(row) if h.adj.entry(i, i)), None)\n"
        "def pairs(a):\n"
        "    for i in r:\n"
        "        out += [(i, j) for j in r if (a.data[i] >> j) & 1]\n"
        "def one_level_each(a):\n"
        "    for i in r:\n"
        "        def f(j):\n"
        "            return [a.entry(i, k) for k in r]\n"
        "    return [a.entry(i, j) for i, j in [(i, i) for i in r]]\n"
    )
    assert entry_reads_under_two_fors(source) == ["G.edge_pairs", "cells", "rows"]
    graph = ROOT / "src" / "adjmatroid" / "graph.py"
    planted = graph.read_text() + (
        "def as_multigraph_as_before(g):\n"
        "    return tuple((i, j) for i in range(g.n) for j in range(i, g.n) if g.adj.entry(i, j))\n"
    )
    assert entry_reads_under_two_fors(planted) == ["as_multigraph_as_before"]


def test_no_all_pairs_entry_walk_in_the_package():
    """The text-order edge walk and the loop walk read each row's set bits,
    and interlace_recursive reads its loop bits off its rows."""
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := entry_reads_under_two_fors(path.read_text()))
    }
    assert found == {}


def bit_fill(node: ast.AST) -> tuple[str, str, str] | None:
    """(rows, i, j) for a statement rows[i] |= 1 << j, each part as its dump."""
    if not (
        isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
        and isinstance(node.target, ast.Subscript) and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.LShift)
        and isinstance(node.value.left, ast.Constant) and node.value.left.value == 1
    ):
        return None
    return ast.dump(node.target.value), ast.dump(node.target.slice), ast.dump(node.value.right)


def symmetric_pair_fills(source: str) -> list[str]:
    """Where a statement list sets rows[i] |= 1 << j and, as its next
    statement, rows[j] |= 1 << i: both cells of an index pair filled."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for body in (getattr(node, name, None) for name in ("body", "orelse", "finalbody")):
            if isinstance(body, list):
                fills = [bit_fill(stmt) for stmt in body]
                found.extend(
                    scope or "<module>" for a, b in zip(fills, fills[1:])
                    if a and b == (a[0], a[2], a[1])
                )
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_checker_finds_every_symmetric_pair_fill():
    source = (
        "def fill(n, pairs):\n"
        "    rows = [0] * n\n"
        "    for i, j in pairs:\n"
        "        rows[i] |= 1 << j\n"
        "        rows[j] |= 1 << i\n"
        "class MultiGraph:\n"
        "    def adjacency(self):\n"
        "        for u, v in self.edges:\n"
        "            if u == v:\n"
        "                rows[u] |= 1 << u\n"
        "            else:\n"
        "                rows[u] |= 1 << v\n"
        "                rows[v] |= 1 << u\n"
        "def inline(rows, i, j):\n"
        "    rows[i] |= 1 << j; rows[j] |= 1 << i\n"
        "def not_a_pair(rows, cols, u, v, j):\n"
        "    rows[u] |= 1 << j\n"
        "    rows[v] |= 1 << j\n"
        "    rows[u] |= 1 << v\n"
        "    cols[v] |= 1 << u\n"
        "    rows[u] |= 2 << v\n"
        "    rows[v] |= 2 << u\n"
        "    rows[v] ^= 1 << u\n"
        "    rows[u] ^= 1 << v\n"
    )
    assert symmetric_pair_fills(source) == ["fill", "MultiGraph.adjacency", "inline"]
    planted = (ROOT / "src" / "adjmatroid" / "delta_matroid.py").read_text() + (
        "def to_graph_as_before(rows, i, j, looped):\n"
        "    rows[j] |= looped << j\n"
        "    if pair_is_edge(True, False, looped):\n"
        "        rows[i] |= 1 << j\n"
        "        rows[j] |= 1 << i\n"
    )
    assert symmetric_pair_fills(planted) == ["to_graph_as_before"]


def test_one_symmetric_pair_fill_in_the_package():
    """Every looped graph built from index pairs fills its rows through
    graph._symmetric_rows."""
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := symmetric_pair_fills(path.read_text()))
    }
    assert found == {"src/adjmatroid/graph.py": ["_symmetric_rows"]}


def reads_adjacency_rows(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "data"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "adj"
    )


def walks_rows_into_pairs(node: ast.AST) -> bool:
    """Accepts a for loop or comprehension whose iterator reads a graph's
    rows (x.adj.data) and whose body or element builds a pair, a tuple or a
    list of two: the shape of a walk of a looped simple graph's rows into
    edge pairs."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        iters, built = [node.iter], node.body + node.orelse
    elif isinstance(node, COMPREHENSIONS):
        iters = [gen.iter for gen in node.generators]
        built = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
    else:
        return False
    return any(reads_adjacency_rows(n) for it in iters for n in ast.walk(it)) and any(
        isinstance(n, (ast.Tuple, ast.List)) and isinstance(n.ctx, ast.Load) and len(n.elts) == 2
        for b in built for n in ast.walk(b)
    )


def test_checker_finds_every_walk_of_rows_into_pairs():
    source = (
        "class G:\n"
        "    def edge_pairs(self):\n"
        "        for i, r in enumerate(self.adj.data):\n"
        "            r &= -2 << i\n"
        "            while r:\n"
        "                out.append((self.labels[i], self.labels[(r & -r).bit_length() - 1]))\n"
        "                r &= r - 1\n"
        "    def loop_labels(self):\n"
        "        return tuple(self.labels[i] for i, r in enumerate(self.adj.data) if r >> i & 1)\n"
        "def as_multigraph(g):\n"
        "    return [(i, j) for i, r in enumerate(g.adj.data) for j in row_bits(r & (-1 << i))]\n"
        "def matrix_cells(a):\n"
        "    return [(i, j) for i, r in enumerate(a.data) for j in row_bits(r)]\n"
        "def degrees(g):\n"
        "    for i, r in enumerate(g.adj.data):\n"
        "        total += r.bit_count()\n"
        "def info(g):\n"
        "    return [(g.labels[u], g.labels[v]) for u, v in _text_pairs(g)]\n"
    )
    assert sites(source, walks_rows_into_pairs) == ["G.edge_pairs", "as_multigraph"]
    planted = CLI.read_text() + (
        "def info_as_before(g):\n"
        "    return [[g.labels[i], g.labels[j]]\n"
        "            for i, r in enumerate(g.adj.data) for j in row_bits(r >> i + 1)]\n"
        "def loops_as_before(g):\n"
        "    return {(v, v) for v, r in zip(g.labels, g.adj.data) if r}\n"
    )
    assert sites(planted, walks_rows_into_pairs) == ["info_as_before", "loops_as_before"]


def test_one_walk_of_rows_into_edge_pairs_in_the_package():
    """Every writer takes a looped simple graph's edges in text order from
    graph._text_pairs: its loops, then its edges."""
    assert sites_in_sources(walks_rows_into_pairs) == {
        "src/adjmatroid/graph.py": ["_text_pairs", "_text_pairs"]
    }


CLI = ROOT / "src" / "adjmatroid" / "cli.py"


def prints_to_stdout(node: ast.AST) -> bool:
    """A print call that does not pass file=sys.stderr."""
    return calls("print")(node) and not any(
        k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords
    )


def cli_answer_path_faults(source: str) -> list[str]:
    """Where a cmd_* function prints, anything but main reads the input, or
    anything but main prints to stdout."""
    return (
        [f"{s}: print" for s in sites(source, calls("print")) if s.startswith("cmd_")]
        + [f"{s}: _read_input" for s in sites(source, calls("_read_input")) if s != "main"]
        + [f"{s}: print to stdout" for s in sites(source, prints_to_stdout) if s != "main"]
    )


def test_checker_finds_every_command_print_and_input_read():
    source = (
        "def _load(args):\n"
        "    print('warning', file=sys.stderr)\n"
        "    return parse(_read_input(args.input))\n"
        "def _emit(args, text):\n"
        "    print(text)\n"
        "def cmd_a(g, args):\n"
        "    print('note', file=sys.stderr)\n"
        "    return '', None, 0\n"
        "def cmd_b(g, args):\n"
        "    def inner():\n"
        "        print(g, file=sys.stdout)\n"
        "def build_parser():\n"
        "    add('c', lambda g, _: print(g))\n"
        "def main(argv):\n"
        "    text = _read_input(argv[0])\n"
        "    print(text)\n"
        "    print('error', file=sys.stderr)\n"
    )
    assert cli_answer_path_faults(source) == [
        "cmd_a: print",
        "cmd_b.inner: print",
        "_load: _read_input",
        "_emit: print to stdout",
        "cmd_b.inner: print to stdout",
        "build_parser: print to stdout",
    ]
    planted = CLI.read_text() + (
        "def cmd_echo(g, args):\n"
        "    print(_read_input(args.input))\n"
    )
    assert cli_answer_path_faults(planted) == [
        "cmd_echo: print", "cmd_echo: _read_input", "cmd_echo: print to stdout"
    ]


def test_only_main_reads_input_and_prints_the_answer():
    assert cli_answer_path_faults(CLI.read_text()) == []


def reads_dataclass(node: ast.AST) -> bool:
    """A read of dataclass or make_dataclass, bare or as an attribute."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return isinstance(node, (ast.Name, ast.Attribute)) and name in ("dataclass", "make_dataclass")


def test_checker_finds_every_dataclass():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int = field(default=0)\n"
        "@dataclasses.dataclass\n"
        "class B: ...\n"
        "C = dataclasses.make_dataclass('C', ['x'])\n"
        "def f(cls):\n"
        "    return dataclass(cls)\n"
        "class D(Frozen):\n"
        "    x: int\n"
    )
    assert sites(source, reads_dataclass) == ["A", "B", "<module>", "f"]


def test_only_the_verify_check_result_is_a_dataclass():
    """The value classes are gf2.Frozen subclasses, which compile nothing;
    CheckResult stays a dataclass, which the benchmark's tests replace."""
    assert sites_in_sources(reads_dataclass) == {"src/adjmatroid/verify.py": ["CheckResult"]}


# Imports the standard library modules named on the command line, then,
# under an audit hook, every adjmatroid module; prints, for each source text
# compiled from a string, the class whose dataclass methods it builds, or None.
AUDITED_IMPORT = """
import importlib, json, sys
modules = sys.argv[1:]
for name in modules:
    if not name.startswith("adjmatroid"):
        importlib.import_module(name)
compiled = []

def hook(event, args):
    if event != "compile" or args[1] != "<string>":
        return
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_name != "_process_class":
        frame = frame.f_back
    cls = frame and frame.f_locals["cls"]
    compiled.append(cls and f"{cls.__module__}.{cls.__qualname__}")

sys.addaudithook(hook)
for name in modules:
    if name.startswith("adjmatroid"):
        importlib.import_module(name)
print(json.dumps(compiled))
"""


def absolute_imports(source: str) -> set[str]:
    """The modules a source imports by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def test_importing_the_package_compiles_only_check_result_methods():
    stdlib = sorted(set().union(*(absolute_imports(p.read_text()) for p in SOURCES)))
    package = [f"adjmatroid.{p.stem}" for p in SOURCES if p.stem != "__main__"]
    assert "dataclasses" in stdlib and "adjmatroid.gf2" in package
    proc = subprocess.run(
        [sys.executable, "-c", AUDITED_IMPORT, *stdlib, *package],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )),
    )
    assert proc.returncode == 0, proc.stderr
    compiled = json.loads(proc.stdout)
    assert compiled and set(compiled) == {"adjmatroid.verify.CheckResult"}
