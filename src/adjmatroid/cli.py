"""Command line interface: graph ingestion, matroid and polynomial queries,
4-regular pipelines, and the theorem verification runner.

Every command takes one answer path.  build_parser names each subcommand's
loader: _simple_graph (which warns when a multigraph is collapsed),
parse_multigraph (the graph text's edges in file order), _matrix for 01 rows,
or none for verify.  Each cmd_* is a function of the loaded object and the
flags that returns (text, payload, exit code); it neither reads input nor
prints.  Only main reads --input and prints the text, or the payload as
sorted JSON; a ValueError or OSError is one error line and exit code 1."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Callable, Iterable, NoReturn, Sequence

from .adjacency_matroid import adjacency_matroid, contract_via_lc, trio, tripartition_report
from .binary_matroid import BinaryMatroid
from .delta_matroid import from_graph as delta_from_graph
from .four_regular import (
    HalfEdgeGraph,
    file_order_partition,
    realize_touch_graph,
    touch_graph,
)
from .gf2 import BitMatrix, symmetrize_nullspace
from .graph import LoopedSimpleGraph, MultiGraph, default_labels
from .graphtext import graph_to_json, parse_graph, parse_multigraph, render_graph, text_lines
from .polynomials import BivariatePolynomial, interlace_subset, lambda_leading, tutte_subset
from .verify import SUITE_NAMES, run_suites


def _read_input(path: str) -> str:
    """The text of a graph file or of stdin, decoded as strict UTF-8 either
    way, a leading byte order mark dropped."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8-sig")
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _simple_graph(text: str) -> LoopedSimpleGraph:
    g = parse_graph(text)
    if isinstance(g, MultiGraph):
        print("warning: multigraph input collapsed to a looped simple graph", file=sys.stderr)
        return g.simplify()
    return g


def _matrix(text: str) -> BitMatrix:
    """A 01-row matrix, one row per line; blank lines and # comments are skipped."""
    rows = []
    for line_no, raw in enumerate(text_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) - {"0", "1"}:
            raise ValueError(f"line {line_no}: matrix rows are strings of 0 and 1")
        rows.append([int(c) for c in line])
    return BitMatrix.from_rows(rows)


# What a command answers: the text, the JSON payload, and the exit code.
Answer = tuple[str, object, int]


def _sorted_circuits(m: BinaryMatroid) -> list[list[str]]:
    return sorted([sorted(c) for c in m.circuits()], key=lambda c: (len(c), c))


def _sets_text(sets: Iterable[Sequence[str]], empty: str) -> str:
    """One {a b} line per set, or the empty text when there is none."""
    return "\n".join("{" + " ".join(s) + "}" for s in sets) or empty


def cmd_info(g: LoopedSimpleGraph, args: argparse.Namespace) -> Answer:
    m = adjacency_matroid(g)
    payload = graph_to_json(g)
    payload.update(rank=m.rank, nullity=m.nullity, circuits=len(m.circuit_masks()))
    text = "\n".join(
        [
            f"vertices: {len(g.labels)} ({' '.join(g.labels) or 'none'})",
            f"loops: {' '.join(payload['loops']) or '(none)'}",
            f"edges: {len(payload['edges'])}",
            f"matroid rank: {m.rank}",
            f"matroid nullity: {m.nullity}",
            f"matroid circuits: {payload['circuits']}",
        ]
    )
    return text, payload, 0


def cmd_circuits(g: LoopedSimpleGraph, args: argparse.Namespace) -> Answer:
    circuits = _sorted_circuits(adjacency_matroid(g))
    return _sets_text(circuits, "(none)"), circuits, 0


def cmd_minor(g: LoopedSimpleGraph, args: argparse.Namespace) -> Answer:
    if (args.delete is None) == (args.contract is None):
        raise ValueError("minor needs exactly one of --delete or --contract")
    if args.delete is not None:
        g.index(args.delete)  # the graph names an unknown vertex, as for --contract
        result = adjacency_matroid(g).delete(args.delete)
        circuits = _sorted_circuits(result)
        return _sets_text(circuits, "(none)"), {"circuits": circuits}, 0
    derivation = contract_via_lc(g, args.contract)
    circuits = _sorted_circuits(derivation.result)
    payload = {
        "circuits": circuits,
        "lc_sequence": list(derivation.lc_sequence),
        "witness": graph_to_json(derivation.witness_graph),
    }
    text = "\n".join(
        [
            _sets_text(circuits, "(none)"),
            "lc sequence: " + (" ".join(derivation.lc_sequence) or "(empty)"),
            "witness graph:",
            render_graph(derivation.witness_graph).rstrip(),
        ]
    )
    return text, payload, 0


def cmd_tripartition(g: LoopedSimpleGraph, args: argparse.Namespace) -> Answer:
    report = tripartition_report(g)
    payload = {v: c.tag for v, c in report.items()}
    text = "\n".join(f"{v}: {c.tag}" for v, c in report.items())
    return text, payload, 0


def cmd_trio(g: LoopedSimpleGraph, args: argparse.Namespace) -> Answer:
    if not args.vertex:
        raise ValueError("trio needs --vertex")
    t = trio(g, args.vertex)
    payload = {"equal": list(t.equal_pair), "odd": t.odd_one, "nullity": t.nullity}
    text = (
        f"equal: {t.equal_pair[0]} {t.equal_pair[1]}\n"
        f"odd: {t.odd_one}\n"
        f"shared nullity: {t.nullity}"
    )
    return text, payload, 0


def _polynomial(poly: BivariatePolynomial) -> Answer:
    return poly.to_text(), poly.to_json_terms(), 0


def cmd_delta(g: LoopedSimpleGraph, args: argparse.Namespace) -> Answer:
    d = delta_from_graph(g)
    members = [list(s) for s in d.member_sets()]
    return _sets_text(members, "(empty)"), {"ground": list(d.ground), "family": members}, 0


def cmd_touchgraph(mg: MultiGraph, args: argparse.Namespace) -> Answer:
    f = HalfEdgeGraph(mg)
    p = file_order_partition(f)
    tch = touch_graph(p)
    return render_graph(tch).rstrip(), graph_to_json(tch), 0


def cmd_realize(g: MultiGraph, args: argparse.Namespace) -> Answer:
    realization = realize_touch_graph(g)
    f_graph = realization.f.graph
    circuits = [[f_graph.edge_labels[h >> 1] for h in c] for c in realization.partition.circuits]
    payload = graph_to_json(f_graph)
    payload["circuits"] = [sorted(c) for c in circuits]
    lines = [render_graph(f_graph).rstrip()]
    lines += [f"# circuit: {' '.join(c)}" for c in circuits]
    return "\n".join(lines), payload, 0


def cmd_symmetrize(matrix: BitMatrix, args: argparse.Namespace) -> Answer:
    b = symmetrize_nullspace(matrix)  # symmetric by construction
    g = LoopedSimpleGraph._derived(default_labels(b.rows), b.data)
    return render_graph(g).rstrip(), graph_to_json(g), 0


def cmd_verify(_: None, args: argparse.Namespace) -> Answer:
    for flag, value in (("--max-n", args.max_n), ("--trials", args.trials)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be at least 0, got {value}")
    results = run_suites(args.suite, args.max_n, args.trials, args.seed)
    payload = [
        {"name": r.name, "instances": r.instances, "failures": r.failures}
        for r in results
    ]
    lines = []
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        lines.append(f"{mark} {r.name} instances={r.instances}")
        lines += [f"     reproduce: {f}" for f in r.failures]
    return "\n".join(lines), payload, 2 if any(r.failures for r in results) else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one error line and exit 1, like every other error."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: main parses every argv with it."""
    parser = _Parser(
        prog="adjmatroid",
        description=(
            "Looped graphs, their adjacency matroids, delta-matroids, "
            "circuit partitions of 4-regular graphs, and interlace/Tutte "
            "polynomials over GF(2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable[..., Answer], help_text: str, load=_simple_graph):
        """A subcommand answering func(load(input text), args); no input when load is None."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, load=load)
        if load is not None:
            p.add_argument("--input", required=True, help="graph file path, or - for stdin")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add("info", cmd_info, "graph and matroid summary")
    add("circuits", cmd_circuits, "circuits of the adjacency matroid")
    minor = add("minor", cmd_minor, "matroid deletion or contraction at a vertex")
    minor.add_argument("--delete", metavar="V")
    minor.add_argument("--contract", metavar="V")
    add("tripartition", cmd_tripartition, "vertex classification by coloop evidence")
    trio_p = add("trio", cmd_trio, "compare the three vertex variants at a vertex")
    trio_p.add_argument("--vertex", metavar="V")
    add("interlace", lambda g, _: _polynomial(interlace_subset(g)), "interlace polynomial")
    add(
        "tutte",
        lambda g, _: _polynomial(tutte_subset(adjacency_matroid(g))),
        "Tutte polynomial of the adjacency matroid",
    )
    add(
        "lambda",
        lambda g, _: _polynomial(lambda_leading(adjacency_matroid(g))),
        "leading Tutte term (y-1)^nullity",
    )
    add("delta", cmd_delta, "nonsingular-induced-subgraph set system")
    for name, func, help_text in (
        ("touchgraph", cmd_touchgraph, "touch-graph of the file-order circuit partition"),
        ("realize", cmd_realize, "4-regular graph realizing the input as a touch-graph"),
    ):
        add(name, func, help_text, parse_multigraph)
    add(
        "symmetrize",
        cmd_symmetrize,
        "symmetric matrix with the same nullspace (01-row input)",
        _matrix,
    )
    verify = add("verify", cmd_verify, "run the theorem property suites", None)
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        loaded = None if args.load is None else args.load(_read_input(args.input))
        text, payload, code = args.func(loaded, args)
        print(json.dumps(payload, sort_keys=True) if args.format == "json" else text)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: stop quietly, and point stdout at devnull
        # so the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # GraphParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
