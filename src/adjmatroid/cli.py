"""Command line interface: graph ingestion, matroid and polynomial queries,
4-regular pipelines, and the theorem verification runner."""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .graph import LoopedSimpleGraph, MultiGraph, as_multigraph, default_labels
from .graphtext import graph_to_json, parse_graph, render_graph, text_lines
from .polynomials import BivariatePolynomial, interlace_subset, lambda_leading, tutte_subset
from .verify import SUITE_NAMES, run_suites


def _read_input(path: str) -> str:
    """The text of a graph file or of stdin, decoded as strict UTF-8 either
    way, a leading byte order mark dropped."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8-sig")
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _load_simple_graph(args: argparse.Namespace) -> LoopedSimpleGraph:
    g = parse_graph(_read_input(args.input))
    if isinstance(g, MultiGraph):
        print("warning: multigraph input collapsed to a looped simple graph", file=sys.stderr)
        return g.simplify()
    return g


def _load_multigraph(args: argparse.Namespace) -> MultiGraph:
    return as_multigraph(parse_graph(_read_input(args.input)))


def _emit(args: argparse.Namespace, text: str, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _sorted_circuits(m: BinaryMatroid) -> list[list[str]]:
    return sorted([sorted(c) for c in m.circuits()], key=lambda c: (len(c), c))


def _sets_text(sets: Iterable[Sequence[str]], empty: str) -> str:
    """One {a b} line per set, or the empty text when there is none."""
    return "\n".join("{" + " ".join(s) + "}" for s in sets) or empty


def cmd_info(args: argparse.Namespace) -> int:
    g = _load_simple_graph(args)
    m = adjacency_matroid(g)
    loops, edges, circuits = g.loop_labels(), g.edge_pairs(), len(m.circuit_masks())
    payload = {
        "vertices": list(g.labels),
        "loops": list(loops),
        "edges": [[u, v] for u, v in edges],
        "rank": m.rank,
        "nullity": m.nullity,
        "circuits": circuits,
    }
    text = "\n".join(
        [
            f"vertices: {len(g.labels)} ({' '.join(g.labels) or 'none'})",
            f"loops: {' '.join(loops) or '(none)'}",
            f"edges: {len(edges)}",
            f"matroid rank: {m.rank}",
            f"matroid nullity: {m.nullity}",
            f"matroid circuits: {circuits}",
        ]
    )
    _emit(args, text, payload)
    return 0


def cmd_circuits(args: argparse.Namespace) -> int:
    g = _load_simple_graph(args)
    circuits = _sorted_circuits(adjacency_matroid(g))
    _emit(args, _sets_text(circuits, "(none)"), circuits)
    return 0


def cmd_minor(args: argparse.Namespace) -> int:
    g = _load_simple_graph(args)
    if (args.delete is None) == (args.contract is None):
        raise ValueError("minor needs exactly one of --delete or --contract")
    if args.delete is not None:
        g.index(args.delete)  # the graph names an unknown vertex, as for --contract
        result = adjacency_matroid(g).delete(args.delete)
        circuits = _sorted_circuits(result)
        _emit(args, _sets_text(circuits, "(none)"), {"circuits": circuits})
        return 0
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
    _emit(args, text, payload)
    return 0


def cmd_tripartition(args: argparse.Namespace) -> int:
    g = _load_simple_graph(args)
    report = tripartition_report(g)
    payload = {v: c.tag for v, c in report.items()}
    text = "\n".join(f"{v}: {c.tag}" for v, c in report.items())
    _emit(args, text, payload)
    return 0


def cmd_trio(args: argparse.Namespace) -> int:
    g = _load_simple_graph(args)
    if not args.vertex:
        raise ValueError("trio needs --vertex")
    t = trio(g, args.vertex)
    payload = {"equal": list(t.equal_pair), "odd": t.odd_one, "nullity": t.nullity}
    text = (
        f"equal: {t.equal_pair[0]} {t.equal_pair[1]}\n"
        f"odd: {t.odd_one}\n"
        f"shared nullity: {t.nullity}"
    )
    _emit(args, text, payload)
    return 0


def _cmd_polynomial(
    args: argparse.Namespace, evaluate: Callable[[LoopedSimpleGraph], BivariatePolynomial]
) -> int:
    poly = evaluate(_load_simple_graph(args))
    _emit(args, poly.to_text(), poly.to_json_terms())
    return 0


def cmd_delta(args: argparse.Namespace) -> int:
    g = _load_simple_graph(args)
    d = delta_from_graph(g)
    members = [list(s) for s in d.member_sets()]
    _emit(args, _sets_text(members, "(empty)"), {"ground": list(d.ground), "family": members})
    return 0


def cmd_touchgraph(args: argparse.Namespace) -> int:
    mg = _load_multigraph(args)
    f = HalfEdgeGraph(mg)
    p = file_order_partition(f)
    tch = touch_graph(p)
    _emit(args, render_graph(tch).rstrip(), graph_to_json(tch))
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    g = parse_graph(_read_input(args.input))
    realization = realize_touch_graph(g)
    f_graph = realization.f.graph
    circuits = [
        [f_graph.edge_labels[h >> 1] for h in circuit]
        for circuit in realization.partition.circuits
    ]
    payload = graph_to_json(f_graph)
    payload["circuits"] = [sorted(c) for c in circuits]
    lines = [render_graph(f_graph).rstrip()]
    lines += [f"# circuit: {' '.join(c)}" for c in circuits]
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_symmetrize(args: argparse.Namespace) -> int:
    rows = []
    for line_no, raw in enumerate(text_lines(_read_input(args.input)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) - {"0", "1"}:
            raise ValueError(f"line {line_no}: matrix rows are strings of 0 and 1")
        rows.append([int(c) for c in line])
    b = symmetrize_nullspace(BitMatrix.from_rows(rows))  # symmetric by construction
    g = LoopedSimpleGraph._derived(default_labels(b.rows), b.data)
    _emit(args, render_graph(g).rstrip(), graph_to_json(g))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, value in (("--max-n", args.max_n), ("--trials", args.trials)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be at least 0, got {value}")
    results = run_suites(args.suite, args.max_n, args.trials, args.seed)
    if args.format == "json":
        payload = [
            {"name": r.name, "instances": r.instances, "failures": r.failures}
            for r in results
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            print(f"{mark} {r.name} instances={r.instances}")
            for f in r.failures:
                print(f"     reproduce: {f}")
    return 2 if any(r.failures for r in results) else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one error line and exit 1, like every other error."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adjmatroid",
        description=(
            "Looped graphs, their adjacency matroids, delta-matroids, "
            "circuit partitions of 4-regular graphs, and interlace/Tutte "
            "polynomials over GF(2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, needs_input: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if needs_input:
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
    add("interlace", lambda a: _cmd_polynomial(a, interlace_subset), "interlace polynomial")
    add(
        "tutte",
        lambda a: _cmd_polynomial(a, lambda g: tutte_subset(adjacency_matroid(g))),
        "Tutte polynomial of the adjacency matroid",
    )
    add(
        "lambda",
        lambda a: _cmd_polynomial(a, lambda g: lambda_leading(adjacency_matroid(g))),
        "leading Tutte term (y-1)^nullity",
    )
    add("delta", cmd_delta, "nonsingular-induced-subgraph set system")
    add("touchgraph", cmd_touchgraph, "touch-graph of the file-order circuit partition")
    add("realize", cmd_realize, "4-regular graph realizing the input as a touch-graph")
    add("symmetrize", cmd_symmetrize, "symmetric matrix with the same nullspace (01-row input)")
    verify = add("verify", cmd_verify, "run the theorem property suites", needs_input=False)
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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
