"""Command line behavior: formats, exit codes, pipelines, determinism."""

import io
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import networkx
import pytest

import adjmatroid
from adjmatroid.cli import main
from adjmatroid.graph import MultiGraph, as_multigraph
from adjmatroid.graphtext import parse_graph
from adjmatroid.verify import MAX_FAILURES_KEPT, Recorder

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
# a's three loops split the lowest edge of its circuit, a piece of an earlier
# split included; c's first loop makes a fresh vertex, its second splits it
LOOPS_TEXT = (
    "vertices a b c\nedge a b\nedge a b\nloop a\nloop a\nloop a\nloop c\nloop c\n"
)
# Each realization lists its circuits in order of least half-edge: b's, c's,
# then a's, whose loop alone needs a fresh vertex.
PINNED = {
    ("realize", ABC_TEXT, "text"): (
        "vertices e1 e0\nloop e1\nloop e1\nloop e0\nloop e0\n"
        "# circuit: e0\n# circuit: e1\n# circuit: e2 e3\n"
    ),
    ("realize", ABC_TEXT, "json"): (
        '{"circuits": [["e0"], ["e1"], ["e2", "e3"]], "edges": [], '
        '"loops": ["e1", "e1", "e0", "e0"], "vertices": ["e1", "e0"]}\n'
    ),
    ("realize", K3L_TEXT, "text"): (
        "vertices e1 e2 e3 e0\nedge e1 e0\nloop e0\nedge e0 e2\nedge e2 e1\n"
        "edge e1 e3\nedge e3 e1\nedge e2 e3\nedge e3 e2\n"
        "# circuit: e0 e1 e2 e3\n# circuit: e4 e5\n# circuit: e6 e7\n"
    ),
    ("realize", K3L_TEXT, "json"): (
        '{"circuits": [["e0", "e1", "e2", "e3"], ["e4", "e5"], ["e6", "e7"]], '
        '"edges": [["e1", "e0"], ["e0", "e2"], ["e2", "e1"], ["e1", "e3"], ["e3", "e1"], '
        '["e2", "e3"], ["e3", "e2"]], "loops": ["e0"], "vertices": ["e1", "e2", "e3", "e0"]}\n'
    ),
    ("realize", LOOPS_TEXT, "text"): (
        "vertices e0 e1 e2 e3 e4 e5 e6\nedge e0 e4\nloop e4\nedge e4 e2\nloop e2\n"
        "edge e2 e1\nedge e1 e3\nloop e3\nedge e3 e0\nedge e0 e1\nedge e1 e0\n"
        "edge e5 e6\nloop e6\nedge e6 e5\nloop e5\n"
        "# circuit: e0 e1 e2 e3 e4 e5 e6 e7\n# circuit: e8 e9\n# circuit: e10 e11 e12 e13\n"
    ),
    ("realize", LOOPS_TEXT, "json"): (
        '{"circuits": [["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"], ["e8", "e9"], '
        '["e10", "e11", "e12", "e13"]], "edges": [["e0", "e4"], ["e4", "e2"], ["e2", "e1"], '
        '["e1", "e3"], ["e3", "e0"], ["e0", "e1"], ["e1", "e0"], ["e5", "e6"], ["e6", "e5"]], '
        '"loops": ["e4", "e2", "e3", "e6", "e5"], '
        '"vertices": ["e0", "e1", "e2", "e3", "e4", "e5", "e6"]}\n'
    ),
    ("touchgraph", ABC_TEXT, "text"): "vertices c0 c1 c2 c3\nedge c0 c1\nedge c2 c3\n",
    ("touchgraph", ABC_TEXT, "json"): (
        '{"edges": [["c0", "c1"], ["c2", "c3"]], "loops": [], "vertices": ["c0", "c1", "c2", "c3"]}\n'
    ),
    ("touchgraph", K3L_TEXT, "text"): (
        "vertices c0 c1 c2\nedge c0 c1\nedge c0 c2\nedge c1 c2\nloop c0\n"
    ),
    ("touchgraph", K3L_TEXT, "json"): (
        '{"edges": [["c0", "c1"], ["c0", "c2"], ["c1", "c2"]], "loops": ["c0"], '
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
