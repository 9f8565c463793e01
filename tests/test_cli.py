"""Command line behavior: formats, exit codes, pipelines, determinism."""

import io
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import networkx
import pytest

import adjmatroid
from adjmatroid import verify
from adjmatroid.adjacency_matroid import adjacency_matroid
from adjmatroid.cli import main
from adjmatroid.gf2 import BitMatrix, symmetrize_nullspace
from adjmatroid.graph import LoopedSimpleGraph, MultiGraph, as_multigraph, default_labels
from adjmatroid.graphtext import graph_to_json, parse_graph, render_graph
from adjmatroid.verify import MAX_FAILURES_KEPT, CheckResult, Recorder

K3_TEXT = "vertices a b c\nedge a b\nedge b c\nedge a c\n"
K3L_TEXT = K3_TEXT + "loop a\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def nx_multigraph(mg: MultiGraph) -> networkx.MultiGraph:
    """mg as a networkx multigraph, every vertex added, isolated ones too."""
    out = networkx.MultiGraph()
    out.add_nodes_from(range(mg.n))
    out.add_edges_from(mg.edges)
    return out


def edge_multiset(g):
    mg = as_multigraph(g)
    return mg.labels, sorted(
        tuple(sorted((mg.labels[u], mg.labels[v]))) for u, v in mg.edges
    )


def test_info_text(tmp_path, capsys):
    code, out, _ = run(capsys, "info", "--input", write(tmp_path, "g", K3_TEXT))
    assert code == 0
    assert "matroid rank: 2" in out
    assert "matroid nullity: 1" in out


def test_circuits(tmp_path, capsys):
    code, out, _ = run(capsys, "circuits", "--input", write(tmp_path, "g", K3_TEXT))
    assert code == 0 and out.strip() == "{a b c}"
    code, out, _ = run(
        capsys, "circuits", "--format", "json", "--input", write(tmp_path, "h", K3L_TEXT)
    )
    assert code == 0 and json.loads(out) == []


def test_tripartition_lines(tmp_path, capsys):
    code, out, _ = run(capsys, "tripartition", "--input", write(tmp_path, "g", K3_TEXT))
    assert code == 0
    assert out.splitlines() == ["a: case3", "b: case3", "c: case3"]


def test_minor_contract_shows_witness(tmp_path, capsys):
    code, out, _ = run(
        capsys, "minor", "--contract", "a", "--input", write(tmp_path, "g", K3_TEXT)
    )
    assert code == 0
    assert "{b c}" in out
    assert "lc sequence: b a" in out
    assert "vertices a b c" in out


def test_minor_delete_lists_the_circuits_of_the_deletion(tmp_path, capsys):
    """Deleting c, on two of the three circuits, and the looped coloop g, on
    none, prints the deletion's circuits by size, then in label order."""
    text = "vertices a b c d g\nedge a b\nedge b c\nedge a c\nedge a d\nedge b d\nloop g\n"
    path = write(tmp_path, "g", text)
    m = adjacency_matroid(parse_graph(text))
    expected = {"c": [["a", "b", "d"]], "g": [["c", "d"], ["a", "b", "c"], ["a", "b", "d"]]}
    for v, circuits in expected.items():
        assert m.is_coloop(v) == (v == "g")
        assert {frozenset(c) for c in circuits} == m.delete(v).circuits()
        code, out, err = run(capsys, "minor", "--delete", v, "--input", path)
        assert (code, err) == (0, "")
        assert out == "".join("{" + " ".join(c) + "}\n" for c in circuits)
        code, out, _ = run(capsys, "minor", "--delete", v, "--format", "json", "--input", path)
        assert code == 0 and json.loads(out) == {"circuits": circuits}


def test_minor_needs_exactly_one_flag(tmp_path, capsys):
    path = write(tmp_path, "g", K3_TEXT)
    code, _, err = run(capsys, "minor", "--input", path)
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "minor", "--delete", "a", "--contract", "b", "--input", path)
    assert code == 1


def test_polynomial_commands(tmp_path, capsys):
    two = write(tmp_path, "two", "vertices a b\n")
    code, out, _ = run(capsys, "interlace", "--input", two)
    assert code == 0 and out.strip() == "y^2"
    k3 = write(tmp_path, "k3", K3_TEXT)
    code, out, _ = run(capsys, "tutte", "--input", k3)
    assert code == 0 and out.strip() == "x^2 + x + y"
    code, out, _ = run(capsys, "tutte", "--format", "json", "--input", k3)
    assert json.loads(out) == [[2, 0, 1], [1, 0, 1], [0, 1, 1]]
    code, out, _ = run(capsys, "lambda", "--input", k3)
    assert code == 0 and out.strip() == "y + -1"


def test_lambda_on_a_thousand_isolated_vertices(tmp_path, capsys):
    """(y-1)^1000 in full: the closed binomial form, with no recursion."""
    path = write(tmp_path, "g", "vertices " + " ".join(f"v{i}" for i in range(1000)) + "\n")
    code, out, _ = run(capsys, "lambda", "--input", path)
    terms = out.strip().split(" + ")
    assert code == 0 and len(terms) == 1001
    assert terms[:3] == ["y^1000", "-1000 y^999", "499500 y^998"]
    assert terms[-2:] == ["-1000 y", "1"]
    code, out, _ = run(capsys, "lambda", "--format", "json", "--input", path)
    assert code == 0
    expected = [[0, j, (-1) ** (1000 - j) * comb(1000, j)] for j in range(1000, -1, -1)]
    assert json.loads(out) == expected


# a is in case 2, b in case 1, c in case 3; the isolated d makes every
# shared nullity 1
TRIO_TEXT = "vertices a b c d\nedge a b\nedge b c\nloop c\n"
TRIO_PINNED = {
    "b": ("equal: plain loop\nodd: loop_isolate\nshared nullity: 1\n",
          '{"equal": ["plain", "loop"], "nullity": 1, "odd": "loop_isolate"}\n'),
    "a": ("equal: plain loop_isolate\nodd: loop\nshared nullity: 1\n",
          '{"equal": ["plain", "loop_isolate"], "nullity": 1, "odd": "loop"}\n'),
    "c": ("equal: loop loop_isolate\nodd: plain\nshared nullity: 1\n",
          '{"equal": ["loop", "loop_isolate"], "nullity": 1, "odd": "plain"}\n'),
}


def test_trio_command(tmp_path, capsys):
    """The text and JSON output at one vertex of each class."""
    path = write(tmp_path, "g", TRIO_TEXT)
    code, out, _ = run(capsys, "tripartition", "--input", path)
    assert out.splitlines() == ["a: case2", "b: case1", "c: case3", "d: case3"]
    for v, (text, payload) in TRIO_PINNED.items():
        assert run(capsys, "trio", "--vertex", v, "--input", path) == (0, text, "")
        assert run(capsys, "trio", "--format", "json", "--vertex", v, "--input", path) == (
            0, payload, ""
        )


def test_trio_without_a_known_vertex_prints_one_line_and_exits_1(tmp_path, capsys):
    path = write(tmp_path, "g", TRIO_TEXT)
    for argv, err in (
        (["trio", "--input", path], "error: trio needs --vertex\n"),
        (["trio", "--vertex", "z", "--input", path], "error: unknown vertex 'z'\n"),
        (["minor", "--delete", "z", "--input", path], "error: unknown vertex 'z'\n"),
        (["minor", "--contract", "z", "--input", path], "error: unknown vertex 'z'\n"),
    ):
        assert run(capsys, *argv) == (1, "", err)


def test_size_gates_name_the_refused_size(tmp_path, capsys):
    def empty(n):
        return write(tmp_path, f"g{n}", "vertices " + " ".join(f"v{i}" for i in range(n)) + "\n")

    for argv, err in (
        (["delta", "--input", empty(17)], "set systems are gated at 16 ground elements, got 17"),
        (
            ["interlace", "--input", empty(21)],
            "principal submatrix scan is gated at 20 coordinates, got 21",
        ),
        (
            ["tutte", "--input", empty(21)],
            "independent set scan is gated at 20 coordinates, got 21",
        ),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {err}\n")


def test_delta_command(tmp_path, capsys):
    code, out, _ = run(capsys, "delta", "--input", write(tmp_path, "g", K3_TEXT))
    assert code == 0
    assert out.splitlines() == ["{}", "{a b}", "{a c}", "{b c}"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad", "vertices a\nedge a d\n")
    code, _, err = run(capsys, "circuits", "--input", bad)
    assert code == 1
    assert "line 2" in err


def test_multigraph_warning(tmp_path, capsys):
    mg = write(tmp_path, "mg", "vertices a b\nedge a b\nedge a b\n")
    code, out, err = run(capsys, "circuits", "--input", mg)
    assert code == 0
    assert "warning" in err


def test_symmetrize(tmp_path, capsys):
    mat = write(tmp_path, "m", "11\n")
    code, out, _ = run(capsys, "symmetrize", "--input", mat)
    assert code == 0
    assert out.splitlines() == ["vertices v0 v1", "loop v0", "loop v1", "edge v0 v1"]
    # three rows of rank 2, pivots not leading: pinned to the block construction's bytes
    mat = write(tmp_path, "m3", "01101\n00111\n01010\n")
    code, out, _ = run(capsys, "symmetrize", "--input", mat)
    assert code == 0
    assert out == (
        "vertices v0 v1 v2 v3 v4\nloop v1\nloop v2\nloop v4\n"
        "edge v1 v3\nedge v2 v3\nedge v2 v4\nedge v3 v4\n"
    )
    code, out, _ = run(capsys, "symmetrize", "--input", mat, "--format", "json")
    assert code == 0
    assert out == (
        '{"edges": [["v1", "v3"], ["v2", "v3"], ["v2", "v4"], ["v3", "v4"]], '
        '"loops": ["v1", "v2", "v4"], "vertices": ["v0", "v1", "v2", "v3", "v4"]}\n'
    )


def test_symmetrize_builds_its_graph_unchecked(tmp_path, capsys, monkeypatch):
    """R^T R is symmetric by construction, so the command validates no graph,
    and prints what the validated graph prints: the inputs above, then seeded
    matrices up to 10 x 12."""
    rng = random.Random(5493)
    matrices = [[[1, 1]], [[0, 1, 1, 0, 1], [0, 0, 1, 1, 1], [0, 1, 0, 1, 0]]]
    for _ in range(20):
        rows, cols = rng.randint(1, 10), rng.randint(1, 12)
        matrices.append([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)])
    expected = []
    for rows in matrices:
        b = symmetrize_nullspace(BitMatrix.from_rows(rows))
        g = LoopedSimpleGraph(default_labels(b.rows), b)
        expected.append((render_graph(g), json.dumps(graph_to_json(g), sort_keys=True) + "\n"))
    counts, inner = {"__post_init__": 0}, LoopedSimpleGraph.__post_init__

    def counted(self):
        counts["__post_init__"] += 1
        inner(self)

    monkeypatch.setattr(LoopedSimpleGraph, "__post_init__", counted)
    for rows, (text, payload) in zip(matrices, expected):
        path = write(tmp_path, "m", "".join("".join(map(str, row)) + "\n" for row in rows))
        assert run(capsys, "symmetrize", "--input", path) == (0, text, "")
        assert run(capsys, "symmetrize", "--format", "json", "--input", path) == (0, payload, "")
    assert counts == {"__post_init__": 0}


def stdin_bytes(data: bytes) -> io.TextIOWrapper:
    """A text stdin over the given bytes, its buffer holding them undecoded."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_bytes(K3_TEXT.encode()))
    code, out, _ = run(capsys, "circuits", "--input", "-")
    assert code == 0 and out.strip() == "{a b c}"


def test_stdin_and_file_both_refuse_invalid_utf8(tmp_path, capsys, monkeypatch):
    """Stdin is decoded as strictly as a file, whatever the locale's error handler."""
    data = b"vertices a\xff\n"
    path = tmp_path / "bad"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), errors="surrogateescape"))
    for source in ("-", str(path)):
        code, out, err = run(capsys, "info", "--input", source)
        assert (code, out) == (1, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1


def test_a_byte_order_mark_is_dropped_from_files_and_stdin(tmp_path, capsys, monkeypatch):
    """Graph text and a 01-matrix read the same with a leading UTF-8 byte
    order mark as without, from a file and from stdin; the parser itself
    still takes the mark for text."""
    for command, text in (("circuits", K3_TEXT), ("symmetrize", "01101\n00111\n01010\n")):
        for fmt in ("text", "json"):
            plain = run(capsys, command, "--input", write(tmp_path, "plain", text), "--format", fmt)
            assert plain[0] == 0 and plain[1] and not plain[2]
            data = b"\xef\xbb\xbf" + text.encode()
            path = tmp_path / "marked"
            path.write_bytes(data)
            assert run(capsys, command, "--input", str(path), "--format", fmt) == plain
            monkeypatch.setattr("sys.stdin", stdin_bytes(data))
            assert run(capsys, command, "--input", "-", "--format", fmt) == plain
    with pytest.raises(ValueError, match=r"^line 1: unknown directive '\\ufeffvertices'$"):
        parse_graph("\ufeff" + K3_TEXT)


def test_symmetrize_rows_end_only_at_newline_carriage_return_or_both(tmp_path, capsys, monkeypatch):
    """From a file and from stdin, rows split at \\n, \\r\\n and \\r alike, and
    at no other character str.splitlines breaks at, so the error names the
    row's own line."""
    expected = run(capsys, "symmetrize", "--input", write(tmp_path, "m", "01101\n00111\n01010\n"))
    assert expected[0] == 0

    def both_sources(text: str) -> list[tuple[int, str, str]]:
        monkeypatch.setattr("sys.stdin", stdin_bytes(text.encode()))
        path = tmp_path / "rows"
        path.write_bytes(text.encode())
        return [run(capsys, "symmetrize", "--input", source) for source in ("-", str(path))]

    for end in ("\n", "\r\n", "\r"):
        assert both_sources(end.join(["# rows", "01101", "00111", "", "01010"])) == [expected] * 2
    for sep in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        error = (1, "", "error: line 2: matrix rows are strings of 0 and 1\n")
        assert both_sources(f"01101\n00111{sep}01010\n") == [error] * 2


def test_realize_touchgraph_pipeline(tmp_path, capsys):
    k3l = write(tmp_path, "g", K3L_TEXT)
    code, out, _ = run(capsys, "realize", "--input", k3l)
    assert code == 0
    f_text = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    f_graph = parse_graph(f_text)
    fpath = write(tmp_path, "f", f_text + "\n")
    code, tch_out, _ = run(capsys, "touchgraph", "--input", fpath)
    assert code == 0
    # the text format drops edge labels, so the round trip holds up to isomorphism
    tch = as_multigraph(parse_graph(tch_out))
    original = as_multigraph(parse_graph(K3L_TEXT))
    assert networkx.is_isomorphic(nx_multigraph(tch), nx_multigraph(original))


def test_emitted_graphs_reparse_to_equal_objects(tmp_path, capsys):
    k3l = write(tmp_path, "g", K3L_TEXT)
    for command in ("realize", "touchgraph"):
        source = k3l
        if command == "touchgraph":
            code, out, _ = run(capsys, "realize", "--input", k3l)
            text = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
            source = write(tmp_path, "f", text + "\n")
        code, text_out, _ = run(capsys, command, "--input", source)
        assert code == 0
        body = "\n".join(l for l in text_out.splitlines() if not l.startswith("#"))
        code, json_out, _ = run(capsys, command, "--format", "json", "--input", source)
        assert code == 0
        data = json.loads(json_out)
        listed = [(v, v) for v in data["loops"]] + [tuple(sorted(e)) for e in data["edges"]]
        assert edge_multiset(parse_graph(body)) == (tuple(data["vertices"]), sorted(listed))


def test_output_deterministic(tmp_path, capsys):
    path = write(tmp_path, "g", K3L_TEXT)
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "realize", "--input", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_verify_small_run(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "poly", "--max-n", "2", "--trials", "5"
    )
    assert code == 0
    assert "ok " in out
    assert "interlace-evaluators-agree" in out
    code, out, _ = run(
        capsys, "verify", "--suite", "poly", "--max-n", "2", "--trials", "5",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert all(r["failures"] == [] for r in data)


def test_verify_prints_a_raising_route_as_fail_lines(capsys, monkeypatch):
    """A route that raises on graphs of 3 or more vertices gives the FAIL line
    of each check that reads it, with witnesses that parse back, and exit 2."""
    build = verify.interlace_subset

    def broken(g):
        if g.n >= 3:
            raise ValueError("broken interlace_subset")
        return build(g)

    monkeypatch.setattr(verify, "interlace_subset", broken)
    code, out, err = run(capsys, "verify", "--suite", "poly", "--max-n", "2", "--trials", "5")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    at = lines.index("FAIL interlace-evaluators-agree instances=16")
    records = json.loads(Path(__file__).with_name("route_fault_records.json").read_text())
    expected = records["poly-interlace_subset"]["interlace-evaluators-agree"]
    assert lines[at + 1 : at + 1 + len(expected)] == [f"     reproduce: {f}" for f in expected]
    assert lines[at + 1 + len(expected)].startswith("ok ")
    text = expected[0].split("]: ")[0][1:].replace("; ", "\n")
    with pytest.raises(ValueError, match="broken interlace_subset"):
        verify.interlace_subset(parse_graph(text))


def test_verify_rejects_negative_sizes(capsys):
    for flag in ("--max-n", "--trials"):
        code, out, err = run(capsys, "verify", "--suite", "poly", flag, "-1")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be at least 0")
    code, _, _ = run(capsys, "verify", "--suite", "poly", "--max-n", "0", "--trials", "0")
    assert code == 0


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])


def test_usage_errors_print_one_line_and_exit_1(tmp_path, capsys):
    path = write(tmp_path, "g", K3_TEXT)
    for argv, words in (
        (["info", "--input", path, "--bogus"], "unrecognized arguments: --bogus"),
        (["verify", "--suite", "nope"], "invalid choice: 'nope'"),
        ([], "required: command"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out = capsys.readouterr()
        assert exit_info.value.code == 1 and out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: ") and words in out.err


def test_recorder_check_paths():
    rec = Recorder()
    with rec.check("clean", "w0"):
        pass
    for i in range(MAX_FAILURES_KEPT + 2):
        with rec.check("failing", f"w{i}"):
            raise AssertionError(f"case {i}")
    with pytest.raises(KeyError):
        with rec.check("crashing", "w"):
            raise KeyError("not an assertion")
    clean, failing = rec.report()
    assert (clean.name, clean.instances, clean.failures) == ("clean", 1, [])
    assert failing.instances == MAX_FAILURES_KEPT + 2
    assert failing.failures == [f"w{i}: case {i}" for i in range(MAX_FAILURES_KEPT)]
    assert "crashing" not in rec.results


def test_public_names_resolve():
    for name in adjmatroid.__all__:
        assert getattr(adjmatroid, name) is not None, name


def module_env():
    """The environment for running this checkout as python -m adjmatroid."""
    src = str(Path(adjmatroid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_python_dash_m_runs_verify():
    proc = subprocess.run(
        [sys.executable, "-m", "adjmatroid", "verify", "--suite", "fourreg", "--max-n", "1",
         "--trials", "1"],
        capture_output=True, text=True, env=module_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok   circuit-nullity-formula" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_closed_stdout_exits_quietly(tmp_path):
    # 14 looped isolated vertices: all 2^14 subsets are members, ~0.5 MB of
    # output, far more than a pipe buffer holds
    labels = [f"v{i}" for i in range(14)]
    text = "vertices " + " ".join(labels) + "\n" + "".join(f"loop {v}\n" for v in labels)
    proc = subprocess.Popen(
        [sys.executable, "-m", "adjmatroid", "delta", "--input", write(tmp_path, "g", text)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    assert proc.stdout.readline() == b"{}\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and err == b""


ABC_TEXT = "vertices a b c\nloop a\nedge b c\n"
# a walks its edges a-b twice, then its three loops twice each; c has loops only
LOOPS_TEXT = (
    "vertices a b c\nedge a b\nedge a b\nloop a\nloop a\nloop a\nloop c\nloop c\n"
)
# Each realization has one circuit per input vertex, in vertex order, and its
# vertices are the input's edges in the input's edge order: its edge and loop
# lines in file order, whether or not a pair repeats.
PINNED = {
    ("realize", ABC_TEXT, "text"): (
        "vertices e0 e1\nloop e0\nloop e0\nloop e1\nloop e1\n"
        "# circuit: e0 e1\n# circuit: e2\n# circuit: e3\n"
    ),
    ("realize", ABC_TEXT, "json"): (
        '{"circuits": [["e0", "e1"], ["e2"], ["e3"]], "edges": [], '
        '"loops": ["e0", "e0", "e1", "e1"], "vertices": ["e0", "e1"]}\n'
    ),
    ("realize", K3L_TEXT, "text"): (
        "vertices e0 e1 e2 e3\nedge e0 e2\nedge e2 e3\nloop e3\nedge e3 e0\n"
        "edge e0 e1\nedge e1 e0\nedge e1 e2\nedge e2 e1\n"
        "# circuit: e0 e1 e2 e3\n# circuit: e4 e5\n# circuit: e6 e7\n"
    ),
    ("realize", K3L_TEXT, "json"): (
        '{"circuits": [["e0", "e1", "e2", "e3"], ["e4", "e5"], ["e6", "e7"]], '
        '"edges": [["e0", "e2"], ["e2", "e3"], ["e3", "e0"], ["e0", "e1"], ["e1", "e0"], '
        '["e1", "e2"], ["e2", "e1"]], "loops": ["e3"], "vertices": ["e0", "e1", "e2", "e3"]}\n'
    ),
    ("realize", LOOPS_TEXT, "text"): (
        "vertices e0 e1 e2 e3 e4 e5 e6\nedge e0 e1\nedge e1 e2\nloop e2\nedge e2 e3\n"
        "loop e3\nedge e3 e4\nloop e4\nedge e4 e0\nedge e0 e1\nedge e1 e0\n"
        "loop e5\nedge e5 e6\nloop e6\nedge e6 e5\n"
        "# circuit: e0 e1 e2 e3 e4 e5 e6 e7\n# circuit: e8 e9\n# circuit: e10 e11 e12 e13\n"
    ),
    ("realize", LOOPS_TEXT, "json"): (
        '{"circuits": [["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"], ["e8", "e9"], '
        '["e10", "e11", "e12", "e13"]], "edges": [["e0", "e1"], ["e1", "e2"], ["e2", "e3"], '
        '["e3", "e4"], ["e4", "e0"], ["e0", "e1"], ["e1", "e0"], ["e5", "e6"], ["e6", "e5"]], '
        '"loops": ["e2", "e3", "e4", "e5", "e6"], '
        '"vertices": ["e0", "e1", "e2", "e3", "e4", "e5", "e6"]}\n'
    ),
    ("touchgraph", ABC_TEXT, "text"): "vertices c0 c1 c2 c3\nedge c0 c1\nedge c2 c3\n",
    ("touchgraph", ABC_TEXT, "json"): (
        '{"edges": [["c0", "c1"], ["c2", "c3"]], "loops": [], "vertices": ["c0", "c1", "c2", "c3"]}\n'
    ),
    ("touchgraph", K3L_TEXT, "text"): (
        "vertices c0 c1 c2\nedge c0 c1\nedge c1 c2\nedge c0 c2\nloop c0\n"
    ),
    ("touchgraph", K3L_TEXT, "json"): (
        '{"edges": [["c0", "c1"], ["c1", "c2"], ["c0", "c2"]], "loops": ["c0"], '
        '"vertices": ["c0", "c1", "c2"]}\n'
    ),
}


def test_realize_and_touchgraph_output_is_pinned(tmp_path, capsys):
    """touchgraph reads the realized graph, comment lines included."""
    for (command, graph, fmt), expect in PINNED.items():
        source = write(tmp_path, "g", graph)
        if command == "touchgraph":
            code, realized, _ = run(capsys, "realize", "--input", source)
            source = write(tmp_path, "f", realized)
        code, out, err = run(capsys, command, "--format", fmt, "--input", source)
        assert (code, out, err) == (0, expect, "")


# Golden outputs: every subcommand in both formats, and the refusal forms,
# each read from stdin; stdout, stderr and the exit code are pinned in
# tests/cli_golden.json.
GOLDEN_INPUTS = {
    "looped-k3": K3L_TEXT,
    "repeated-edge": "vertices a b c d\nedge a b\nedge a b\nedge b c\nloop c\n",
    "four-regular": "vertices p q r\nedge p q\nedge p q\nedge q r\nedge q r\nloop p\nloop r\n",
    "touch-graph": "vertices a b c d\nedge a b\nedge b c\nedge c d\nloop d\n",
    "matrix": "# rows\n01101\n00111\n\n01010\n",
    "bad-matrix": "0110\n0120\n",
    "bad-directive": "vertices a b\nedges a b\n",
}
SIMPLE_GRAPH_COMMANDS = [
    ["info"], ["circuits"], ["minor", "--delete", "a"], ["minor", "--contract", "a"],
    ["tripartition"], ["trio", "--vertex", "a"], ["interlace"], ["tutte"], ["lambda"],
    ["delta"],
]
SIMPLE_GRAPH_INPUTS = ("looped-k3", "repeated-edge")
GOLDEN_CASES = {
    " ".join(filter(None, [*argv, source, fmt])): (argv + ["--format", fmt], source)
    for fmt in ("text", "json")
    for argv, source in [
        *((argv, graph) for argv in SIMPLE_GRAPH_COMMANDS for graph in SIMPLE_GRAPH_INPUTS),
        (["touchgraph"], "four-regular"),
        (["realize"], "touch-graph"),
        (["symmetrize"], "matrix"),
        (["verify", "--suite", "fourreg", "--max-n", "1", "--trials", "1"], None),
    ]
}
GOLDEN_CASES.update({
    "minor without a flag": (["minor"], "repeated-edge"),
    "trio without --vertex": (["trio"], "looped-k3"),
    "minor --delete of an unknown vertex": (["minor", "--delete", "z"], "looped-k3"),
    "verify --max-n -1": (["verify", "--max-n", "-1"], None),
    "a bad matrix row": (["symmetrize"], "bad-matrix"),
    "an unknown directive": (["info"], "bad-directive"),
})
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def test_the_golden_file_pins_exactly_the_golden_cases():
    assert sorted(GOLDEN) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_output(case, capsys, monkeypatch):
    argv, source = GOLDEN_CASES[case]
    if source is not None:
        monkeypatch.setattr("sys.stdin", stdin_bytes(GOLDEN_INPUTS[source].encode()))
        argv = argv + ["--input", "-"]
    code, out, err = run(capsys, *argv)
    assert {"code": code, "stdout": out, "stderr": err} == GOLDEN[case]


def test_verify_failures_exit_2_and_print_their_reproduce_lines(capsys, monkeypatch):
    results = [CheckResult("clean", 3), CheckResult("broken", 2, ["w0: boom", "w1: bang"])]
    monkeypatch.setattr("adjmatroid.cli.run_suites", lambda *args: results)
    assert run(capsys, "verify") == (
        2,
        "ok   clean instances=3\nFAIL broken instances=2\n"
        "     reproduce: w0: boom\n     reproduce: w1: bang\n",
        "",
    )
    assert run(capsys, "verify", "--format", "json") == (
        2,
        '[{"failures": [], "instances": 3, "name": "clean"}, '
        '{"failures": ["w0: boom", "w1: bang"], "instances": 2, "name": "broken"}]\n',
        "",
    )
