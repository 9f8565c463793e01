"""The line-oriented graph format, and the JSON form the CLI writes.

Grammar: `# comment`, `vertices <name>+`, `loop <name>`, `edge <name> <name>`.
Names are non-whitespace tokens.  Lines end only at \\n, \\r\\n or \\r: str.splitlines'
other breaks are whitespace, so line numbers are the file's (the CLI drops a
leading byte order mark).  Duplicate edge or loop lines make the result a
multigraph; otherwise a looped simple graph is returned, its adjacency rows
filled from the index pairs after the last line is read, and checked by the
public constructors.
"""

from __future__ import annotations

from typing import Any

from .gf2 import BitMatrix
from .graph import LoopedSimpleGraph, MultiGraph, _symmetric_rows, as_multigraph


class GraphParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def text_lines(text: str) -> list[str]:
    """The lines of text, ended only by \\n, \\r\\n or \\r."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_graph(text: str) -> LoopedSimpleGraph | MultiGraph:
    index: dict[str, int] = {}  # in declaration order: the labels
    pairs: list[tuple[int, int]] = []
    for line_no, line in enumerate(text_lines(text), start=1):
        parts = line.split()
        keyword = parts[0] if parts else "#"  # a blank line reads as a comment
        if keyword == "edge" and len(parts) == 3 or keyword == "loop" and len(parts) == 2:
            try:
                pairs.append((index[parts[1]], index[parts[-1]]))
            except KeyError as exc:
                raise GraphParseError(line_no, f"unknown vertex {exc.args[0]!r}") from None
        elif keyword == "vertices":
            if len(parts) == 1:
                raise GraphParseError(line_no, "vertices needs at least one name")
            for v in parts[1:]:
                if v in index:
                    raise GraphParseError(line_no, f"vertex {v!r} declared twice")
                index[v] = len(index)
        elif keyword == "edge":
            raise GraphParseError(line_no, "edge needs exactly two vertices")
        elif keyword == "loop":
            raise GraphParseError(line_no, "loop needs exactly one vertex")
        elif not keyword.startswith("#"):
            raise GraphParseError(line_no, f"unknown directive {keyword!r}")
    n = len(index)
    if len({frozenset(p) for p in pairs}) < len(pairs):  # a repeated pair
        return MultiGraph(tuple(index), pairs)
    return LoopedSimpleGraph(tuple(index), BitMatrix(n, n, _symmetric_rows(n, pairs)))


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

