"""The line-oriented graph format, and the JSON form the CLI writes.

Grammar: `# comment`, `vertices <name>+`, `loop <name>`, `edge <name> <name>`.
Names are non-whitespace tokens.  Duplicate edge or loop lines make the
result a multigraph; otherwise a looped simple graph is returned, its
adjacency rows built as the lines are read.
"""

from __future__ import annotations

from typing import Any

from .gf2 import BitMatrix
from .graph import LoopedSimpleGraph, MultiGraph, as_multigraph


class GraphParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text: str) -> LoopedSimpleGraph | MultiGraph:
    index: dict[str, int] = {}  # in declaration order: the labels
    pairs: list[tuple[int, int]] = []
    rows: list[int] = []
    simple = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        keyword, args = parts[0], parts[1:]
        if keyword == "vertices":
            if not args:
                raise GraphParseError(line_no, "vertices needs at least one name")
            for v in args:
                if v in index:
                    raise GraphParseError(line_no, f"vertex {v!r} declared twice")
                index[v] = len(rows)
                rows.append(0)
        elif keyword in ("loop", "edge"):
            if keyword == "loop" and len(args) != 1:
                raise GraphParseError(line_no, "loop needs exactly one vertex")
            if keyword == "edge" and len(args) != 2:
                raise GraphParseError(line_no, "edge needs exactly two vertices")
            for w in args:
                if w not in index:
                    raise GraphParseError(line_no, f"unknown vertex {w!r}")
            u, v = index[args[0]], index[args[-1]]
            simple = simple and not (rows[u] >> v) & 1  # a repeated pair
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            pairs.append((u, v))
        else:
            raise GraphParseError(line_no, f"unknown directive {keyword!r}")
    if simple:
        return LoopedSimpleGraph(tuple(index), BitMatrix(len(rows), len(rows), rows))
    return MultiGraph(tuple(index), pairs)


def render_graph(g: LoopedSimpleGraph | MultiGraph) -> str:
    """Emit the text format; edge order is preserved for multigraphs."""
    lines = []
    if g.labels:
        lines.append("vertices " + " ".join(g.labels))
    if isinstance(g, LoopedSimpleGraph):
        for v in g.loop_labels():
            lines.append(f"loop {v}")
        for u, v in g.edge_pairs():
            lines.append(f"edge {u} {v}")
    else:
        for ui, vi in g.edges:
            u, v = g.labels[ui], g.labels[vi]
            if u == v:
                lines.append(f"loop {u}")
            else:
                lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: LoopedSimpleGraph | MultiGraph) -> dict[str, Any]:
    mg = as_multigraph(g)
    loops = [mg.labels[u] for u, v in mg.edges if u == v]
    edges = [[mg.labels[u], mg.labels[v]] for u, v in mg.edges if u != v]
    return {"vertices": list(mg.labels), "loops": loops, "edges": edges}

