"""Every imported name in the package and its tests is used, every
definition in the package is referenced from the package or the benchmark
(a class or static method through its own class), object.__new__, the
principal scan, the coloop pass and pairing validation each have one site,
the two row eliminations run only inside gf2 and gf2 runs two in all, both
subset expansions read distance layers, every polynomial evaluator reads
its polynomial out of one packed tally, the one-coordinate pivot, the
per-set-bit walk and the min/max closure each have one kernel, in gf2, and
the min-equicardinal oracle builds no set system, binary_matroid and
polynomials import no delta_matroid, both work limits and their checkers
are defined only in gf2, only the minor routes build an adjacency matroid, the
4-regular builders take no validating route, only the Kotzig merge builds an
Euler system unchecked, and the slow references that only verify calls live
in verify."""

import ast
import re
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
    """Accepts a call of adjacency_matroid, bare or as an attribute, or of
    BinaryMatroid.from_matrix."""
    owner = getattr(getattr(node, "func", None), "value", None)
    return calls("adjacency_matroid")(node) or (
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
        "def classify(g):\n"
        "    return g.coloop_masks, adjacency_matroid\n"
    )
    assert sites(source, builds_matroid) == ["adjacency_matroid", "trio", "other"]
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
        "layers = distance_layers(m._independent_bits, m.size)", "layers = planes(m)"
    )
    assert sites(planted, reads_layers) == ["interlace_subset"]
    planted += "def q(g):\n    return [gf2.distance_layers(b, n) for b in g]\n"
    assert sites(planted, reads_layers) == ["interlace_subset", "q"]


def test_both_subset_expansions_read_distance_layers():
    """interlace_subset from the graph's delta-matroid word and tutte_subset
    from the independent-set word; no other route enumerates subsets."""
    assert sites(POLYNOMIALS.read_text(), reads_layers) == ["interlace_subset", "tutte_subset"]


def collects_outside_the_arithmetic(source: str) -> list[str]:
    """Where the source builds a polynomial's terms unchecked, by _collected
    or by unchecked(BivariatePolynomial, ...), outside BivariatePolynomial's
    methods and _collected itself."""
    hit = builds_unchecked("BivariatePolynomial")
    return [
        scope for scope in sites(source, lambda node: calls("_collected")(node) or hit(node))
        if scope != "_collected" and not scope.startswith("BivariatePolynomial.")
    ]


POLYNOMIAL_NAMES = frozenset({"BivariatePolynomial", "ONE", "X", "Y"})


def polynomial_names(source: str, function: str) -> list[str]:
    """Which polynomial names the body of function reads, bare, as an
    attribute or as a string annotation, sorted; its signature is exempt."""
    func = next(node for name, node in definitions(source) if name == function)
    return sorted({
        name for stmt in func.body for n in ast.walk(stmt)
        for name in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "value", None))
        if isinstance(name, str) and name in POLYNOMIAL_NAMES
    })


def test_checker_finds_every_collected_term_list_and_polynomial_in_a_recursion():
    source = (
        "class BivariatePolynomial:\n"
        "    def scale(self, c):\n"
        "        return _collected({})\n"
        "def _collected(coeffs):\n"
        "    return unchecked(BivariatePolynomial, terms=tuple(coeffs))\n"
        "def _from_tally(t, n):\n"
        "    return gf2.unchecked(BivariatePolynomial, terms=()), unchecked(Other, terms=())\n"
        "def _power(a, b):\n"
        "    return polynomials._collected({})\n"
        "def q_rec(g) -> BivariatePolynomial:\n"
        "    memo: dict[int, 'BivariatePolynomial'] = {}\n"
        "    def rec(h) -> int:\n"
        "        return polynomials.ONE + X * rec(h)\n"
        "    return _from_tally(rec(g), g.n)\n"
    )
    assert collects_outside_the_arithmetic(source) == ["_from_tally", "_power"]
    assert polynomial_names(source, "q_rec") == ["BivariatePolynomial", "ONE", "X"]
    planted = POLYNOMIALS.read_text().replace("            return 1\n", "            return ONE\n")
    assert polynomial_names(planted, "tutte_recursive") == ["ONE"]
    planted = POLYNOMIALS.read_text() + "def q(g):\n    return _collected({(0, g.n): 1})\n"
    assert collects_outside_the_arithmetic(planted) == ["shifted_power_term", "_from_tally", "q"]


def test_each_evaluator_builds_its_polynomial_once_from_a_tally():
    """Outside the arithmetic, only the tally conversion and the closed
    binomial form collect terms, and the recursions add packed tallies."""
    source = POLYNOMIALS.read_text()
    assert collects_outside_the_arithmetic(source) == ["shifted_power_term", "_from_tally"]
    for recursion in ("interlace_recursive", "tutte_recursive"):
        assert polynomial_names(source, recursion) == []


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
    "HalfEdgeGraph.euler_system", "compatible_euler_system", "_merged", "touch_graph",
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
        "class HalfEdgeGraph:\n"
        "    def euler_system(self):\n"
        "        return EulerSystem(p), unchecked(EulerSystem, partition=p)\n"
        "def touch_graph(p):\n"
        "    return MultiGraph.build(l, e), graph.MultiGraph(l, e), g.build(l)\n"
        "def realize_touch_graph(g):\n"
        "    def inner():\n"
        "        return four_regular.partition_from_transitions(f, t)\n"
        "def kappa(c, v):\n"
        "    return EulerSystem(partition_from_transitions(c.f, t))\n"
    )
    assert validating_builders(source) == {
        "partition_from_transitions": ["realize_touch_graph.inner"],
        "EulerSystem(...)": ["HalfEdgeGraph.euler_system"],
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
        "    return EulerSystem(partition_from_transitions(c.f, t))\n"
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
        "    return unchecked(EulerSystem, partition=p)\n"
        "class HalfEdgeGraph:\n"
        "    def euler_system(self):\n"
        "        return gf2.unchecked(EulerSystem, partition=p), EulerSystem(p)\n"
        "def touch_graph(p):\n"
        "    return unchecked(MultiGraph, labels=l), unchecked(cls=EulerSystem)\n"
    )
    assert sites(source, builds_unchecked("EulerSystem")) == ["_merged", "HalfEdgeGraph.euler_system"]
    planted = FOUR_REGULAR.read_text() + "def f(p):\n    return unchecked(EulerSystem, partition=p)\n"
    assert sites(planted, builds_unchecked("EulerSystem")) == ["_merged", "f"]


def test_only_the_kotzig_merge_builds_an_euler_system_unchecked():
    """Both Euler-system builders go through the one merge kernel."""
    assert sites_in_sources(builds_unchecked("EulerSystem")) == {
        "src/adjmatroid/four_regular.py": ["_merged"]
    }


# The slow references that only verify calls, by name less any leading
# underscores: each lives beside its checks in verify.py, or nowhere.
VERIFY_REFERENCES = frozenset({
    "q_from_lambda", "interlace_vertex_terms", "induced_nullities", "kappa", "all_subspaces",
    "phi_pairing", "psi_pairing",
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


def test_verify_references_live_only_in_verify():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := verify_references(path.read_text()))
    }
    assert found == {
        "src/adjmatroid/verify.py": [
            "_all_subspaces", "_kappa", "_induced_nullities", "_q_from_lambda",
            "_interlace_vertex_terms",
        ]
    }
