"""The line-oriented graph format, and the JSON form the CLI writes.

Grammar: `# comment`, `vertices <name>+`, `loop <name>`, `edge <name> <name>`.
Names are non-whitespace tokens.  Duplicate edge or loop lines make the
result a multigraph; otherwise a looped simple graph is returned.
"""

from __future__ import annotations

from typing import Any

from .graph import LoopedSimpleGraph, MultiGraph, as_multigraph


class GraphParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text: str) -> LoopedSimpleGraph | MultiGraph:
    labels: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
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
                if v in seen:
                    raise GraphParseError(line_no, f"vertex {v!r} declared twice")
                seen.add(v)
                labels.append(v)
        elif keyword == "loop":
            if len(args) != 1:
                raise GraphParseError(line_no, "loop needs exactly one vertex")
            (v,) = args
            if v not in seen:
                raise GraphParseError(line_no, f"unknown vertex {v!r}")
            edges.append((v, v))
        elif keyword == "edge":
            if len(args) != 2:
                raise GraphParseError(line_no, "edge needs exactly two vertices")
            u, v = args
            for w in (u, v):
                if w not in seen:
                    raise GraphParseError(line_no, f"unknown vertex {w!r}")
            edges.append((u, v))
        else:
            raise GraphParseError(line_no, f"unknown directive {keyword!r}")
    mg = MultiGraph.build(tuple(labels), edges)
    simple = len({(min(e), max(e)) for e in mg.edges}) == len(mg.edges)
    return mg.simplify() if simple else mg


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

