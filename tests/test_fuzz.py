"""Generated inputs at the text entry points: the graph format round-trips,
the JSON graph payload round-trips and lists every edge, arbitrary
directive text parses or names a line it has, every
input-reading command exits 0, or exits 1 with one error line, and
touchgraph of realize prints its input's lines back."""

import contextlib
import io
import json
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from adjmatroid.cli import main
from adjmatroid.gf2 import BitMatrix
from adjmatroid.graph import LoopedSimpleGraph, MultiGraph, all_looped_simple_graphs, as_multigraph
from adjmatroid.graphtext import (
    GraphParseError,
    graph_to_json,
    parse_graph,
    parse_multigraph,
    render_graph,
    text_lines,
)

FUZZ = settings(derandomize=True, database=None, deadline=None)

# non-whitespace tokens: the characters str.split breaks at cannot be in a name
names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda s: s.split() == [s]
)


@st.composite
def looped_simple_graphs(draw, label: st.SearchStrategy[str] = names) -> LoopedSimpleGraph:
    labels = draw(st.lists(label, max_size=7, unique=True))
    n = len(labels)
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return LoopedSimpleGraph(labels, BitMatrix(n, n, rows))


@st.composite
def multigraphs(draw, label: st.SearchStrategy[str] = names) -> MultiGraph:
    """Multigraphs with a repeated pair, so that the parser keeps the edge list."""
    labels = draw(st.lists(label, min_size=1, max_size=5, unique=True))
    ends = st.integers(0, len(labels) - 1)
    edges = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=8))
    u, v = draw(st.sampled_from(edges))
    repeat = (v, u) if draw(st.booleans()) else (u, v)
    edges.insert(draw(st.integers(0, len(edges))), repeat)
    return MultiGraph(labels, edges)


def rebuilt(g: LoopedSimpleGraph | MultiGraph) -> LoopedSimpleGraph | MultiGraph:
    """g built again through the validating constructors, which the parser skips."""
    if isinstance(g, MultiGraph):
        return MultiGraph(g.labels, g.edges, g.edge_labels)
    return LoopedSimpleGraph(g.labels, BitMatrix(g.n, g.n, g.adj.data))


@settings(FUZZ, max_examples=200)
@given(st.one_of(looped_simple_graphs(), multigraphs()))
def test_rendered_graphs_parse_back_to_themselves(g):
    """Labels, rows and, for a multigraph, the edge list in its order; the
    parsed value passes the constructor checks."""
    parsed = parse_graph(render_graph(g))
    assert parsed == g
    assert rebuilt(parsed) == parsed


@settings(FUZZ, max_examples=200)
@given(st.one_of(looped_simple_graphs(), multigraphs()))
def test_graph_json_survives_a_round_trip_and_lists_every_edge(g):
    """The payload is plain JSON; its loops and edges are the multigraph's,
    repeats kept; a simple graph builds back from it."""
    payload = graph_to_json(g)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["vertices"] == list(g.labels)
    mg = as_multigraph(g)
    ends = [(mg.labels[u], mg.labels[v]) for u, v in mg.edges]
    assert Counter(payload["loops"]) == Counter(u for u, v in ends if u == v)
    assert Counter(map(tuple, payload["edges"])) == Counter((u, v) for u, v in ends if u != v)
    if isinstance(g, LoopedSimpleGraph):
        assert LoopedSimpleGraph.build(payload["vertices"], payload["edges"], payload["loops"]) == g


TOKENS = ["vertices", "edge", "loop", "a", "b", "c", "#", "#a", "\ufeff"]
SEPARATORS = [" ", "\t", "\n", "\r", "\r\n", "\x0b", "\x1c", "\u2028"]
directive_text = st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(SEPARATORS)),
                          max_size=24).map(lambda pairs: "".join(t + s for t, s in pairs))


@settings(FUZZ, max_examples=300)
@given(directive_text)
def test_directive_text_parses_or_names_one_of_its_lines(text):
    """parse_multigraph refuses the same texts, naming the same line, and
    otherwise reads the edges parse_graph keeps or collapses; both values
    pass the constructor checks."""
    try:
        g = parse_graph(text)
    except GraphParseError as exc:
        match = re.fullmatch(r"line (\d+): .+", str(exc), re.DOTALL)
        assert match and int(match[1]) == exc.line_no
        assert 1 <= exc.line_no <= len(text_lines(text))
        with pytest.raises(GraphParseError) as again:
            parse_multigraph(text)
        assert (str(again.value), again.value.line_no) == (str(exc), exc.line_no)
    else:
        assert parse_graph(render_graph(g)) == g
        mg = parse_multigraph(text)
        assert mg == g if isinstance(g, MultiGraph) else mg.simplify() == g
        assert rebuilt(g) == g and rebuilt(mg) == mg


COMMANDS = [
    ["info"], ["circuits"], ["minor", "--delete", "a"], ["minor", "--contract", "b"],
    ["tripartition"], ["trio", "--vertex", "a"], ["interlace"], ["tutte"], ["lambda"],
    ["delta"], ["touchgraph"], ["realize"], ["symmetrize"],
]
MATRIX_TOKENS = ["0", "1", "01", "110", "#"]
abc = st.sampled_from("abcd")  # the names the commands above ask for, and one more
stdin_data = st.tuples(
    st.sampled_from([b"", b"\xef\xbb\xbf"]),  # a byte order mark, or none
    st.one_of(
        st.one_of(looped_simple_graphs(abc), multigraphs(abc)).map(render_graph).map(str.encode),
        directive_text.map(str.encode),
        st.lists(st.tuples(st.sampled_from(MATRIX_TOKENS), st.sampled_from(SEPARATORS)),
                 max_size=8).map(lambda pairs: "".join(t + s for t, s in pairs).encode()),
        st.binary(max_size=24),
    ),
    st.sampled_from([b"", b"\xff", b"\xc3", b"\xed\xa0\x80"]),  # invalid UTF-8, or none
).map(b"".join)


WARNING = "warning: multigraph input collapsed to a looped simple graph\n"


def run_on_stdin(argv: list[str], data: bytes) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main([*argv, "--input", "-"])
    return code, out.getvalue(), err.getvalue()


@settings(FUZZ, max_examples=400)
@given(st.sampled_from(COMMANDS), st.sampled_from(["text", "json"]), stdin_data)
def test_every_input_command_exits_0_or_prints_one_error_line(argv, fmt, data):
    """A collapsed multigraph may add its one warning line first."""
    code, out, err = run_on_stdin([*argv, "--format", fmt], data)
    lines = err.splitlines(keepends=True)
    if lines[:1] == [WARNING]:
        lines = lines[1:]
    if code == 0:
        assert lines == []
    else:
        assert (code, out) == (1, "")
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")


def renamed_lines(g: LoopedSimpleGraph, lines: list[str]) -> list[str]:
    """The graph text lines with vertex u named c<index of u>, each edge's
    ends in index order."""
    out = []
    for line in lines:
        keyword, *ends = line.split()
        ends = ends if keyword == "vertices" else sorted(ends, key=g.index)
        out.append(" ".join([keyword, *(f"c{g.index(v)}" for v in ends)]))
    return out


def test_realize_then_touchgraph_prints_the_input_lines_back():
    """On every looped graph with n <= 4 whose vertices all have a non-loop
    edge (693 graphs), in render order and in one seeded shuffle of its edge
    and loop lines, touchgraph of realize prints the input's lines, renamed."""
    rng, cases = random.Random(51), 0
    for g in (g for n in range(5) for g in all_looped_simple_graphs(n)):
        if not all(r & ~(1 << i) for i, r in enumerate(g.adj.data)):
            continue
        header, *body = render_graph(g).splitlines()
        for order in (body, rng.sample(body, len(body))):
            lines = [header, *order] if g.labels else order
            code, realized, _ = run_on_stdin(["realize"], ("\n".join(lines) + "\n").encode())
            assert code == 0
            code, out, err = run_on_stdin(["touchgraph"], realized.encode())
            assert (code, out, err) == (0, "\n".join(renamed_lines(g, lines)) + "\n", ""), lines
            cases += 1
    assert cases == 2 * 693
