"""The line-oriented graph format, and the JSON form the CLI writes.

Grammar: `# comment`, `vertices <name>+`, `loop <name>`, `edge <name> <name>`.
Names are non-whitespace tokens.  Lines end only at \\n, \\r\\n or \\r: str.splitlines'
other breaks are whitespace, so line numbers are the file's (the CLI drops a
leading byte order mark).  One grammar pass (`_read`), the only check, reads
the labels and the edge and loop lines as index pairs in file order; what it
read is built unchecked.  `parse_graph` fills the rows once: a distinct edge
sets two bits, a distinct loop one diagonal bit, so a short bit count means a
repeated pair, and then it keeps the pairs, as `parse_multigraph` does.  Graphs
are written in text order (`graph._text_pairs`), so reading them keeps it.
"""

from __future__ import annotations

from typing import Any

from .gf2 import unchecked
from .graph import LoopedSimpleGraph, MultiGraph, _symmetric_rows, _text_pairs, default_labels


class GraphParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def text_lines(text: str) -> list[str]:
    """The lines of text, ended only by \\n, \\r\\n or \\r."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read(text: str) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """The declared labels, and the edge and loop lines as index pairs in file order."""
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
    return tuple(index), pairs


def parse_graph(text: str) -> LoopedSimpleGraph | MultiGraph:
    labels, pairs = _read(text)
    rows = _symmetric_rows(len(labels), pairs)
    if sum(r.bit_count() + (r >> i & 1) for i, r in enumerate(rows)) < 2 * len(pairs):
        return _multigraph(labels, pairs)  # a repeated pair
    return LoopedSimpleGraph._derived(labels, rows)


def parse_multigraph(text: str) -> MultiGraph:
    """The graph text as a multigraph, edge i its i-th edge or loop line."""
    return _multigraph(*_read(text))


def _multigraph(labels: tuple[str, ...], pairs: list[tuple[int, int]]) -> MultiGraph:
    """The read pairs as edges e0, e1, ...: checked as read, so unchecked."""
    edge_labels = default_labels(len(pairs), "e")
    return unchecked(MultiGraph, labels=labels, edges=tuple(pairs), edge_labels=edge_labels)


def render_graph(g: LoopedSimpleGraph | MultiGraph) -> str:
    """Emit the text format, the edges in text order."""
    labels = g.labels
    lines = ["vertices " + " ".join(labels)] if labels else []
    lines += [
        f"loop {labels[u]}" if u == v else f"edge {labels[u]} {labels[v]}"
        for u, v in _text_pairs(g)
    ]
    return "\n".join(lines) + "\n"


def graph_to_json(g: LoopedSimpleGraph | MultiGraph) -> dict[str, Any]:
    labels, pairs = g.labels, _text_pairs(g)
    loops = [labels[u] for u, v in pairs if u == v]
    edges = [[labels[u], labels[v]] for u, v in pairs if u != v]
    return {"vertices": list(labels), "loops": loops, "edges": edges}
