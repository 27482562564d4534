"""Command line front end.

Graphs are read from a file (or stdin with ``-``) in the edge-list format
of :func:`mpdagid.graph.parse_graph_text`, or as JSON when the input
starts with ``{``.  Every subcommand accepts ``--json`` for structured
output.  Exit codes: 0 on success, 1 when ``verify`` finds a numeric
mismatch or nothing to verify, 2 on malformed input or queries, when
numpy is missing or when ``verify``'s graph has more nodes than its joint
table allows, 3 when ``identify`` finds the effect not identifiable, 141
when stdout is closed before the output is written (as a shell reports
SIGPIPE), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from dataclasses import asdict

from .dsep import find_open_path
from .graph import (Graph, GraphError, _dumps, _edge_tokens, graph_to_text,
                    parse_graph_json, parse_graph_text)
from .ident import (IdentificationError, NotIdentifiable, cidm, cidme_tree,
                    render_latex, render_text)
from .meek import apply_background
from .oracle import enumerate_dags, numeric_gap
from .pco import pco
from .reachability import (ancestors, descendants, parents,
                           possible_ancestors, possible_descendants)

VERIFY_TOL = 1e-9


def _load_graph(source: str) -> Graph:
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    text = text.removeprefix("\ufeff")  # a byte-order mark some editors write
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def _split(arg: str | None) -> tuple[str, ...]:
    if not arg:
        return ()
    return tuple(part.strip() for part in arg.split(",") if part.strip())


def _graph_line(graph: Graph) -> str:
    parts = [f"node {v}" for v in graph.nodes
             if not graph.neighbors_of(v)]
    parts.extend(map(" ".join, _edge_tokens(graph)))
    return ", ".join(parts)


def _path_text(graph: Graph, path: tuple[str, ...]) -> str:
    out = [path[0]]
    for a, b in zip(path, path[1:]):
        if graph.has_directed(a, b):
            out.append("->")
        elif graph.has_directed(b, a):
            out.append("<-")
        else:
            out.append("--")
        out.append(b)
    return " ".join(out)


def _emit(args, payload, text_lines: list[str], file=None) -> None:
    """The payload as JSON on stdout, or the text lines on ``file``."""
    if args.json:
        print(_dumps(payload))
    else:
        for line in text_lines:
            print(line, file=file)


# -- subcommands ---------------------------------------------------------------


def cmd_complete(graph: Graph, args) -> int:
    pairs = []
    for token in _split(",".join(args.orient or [])):
        a, sep, b = token.partition(">")
        if not sep:
            raise ValueError(f"orientation {token!r} is not of the form A>B")
        pairs.append((a.strip(), b.strip()))
    closed = apply_background(graph, pairs)
    _emit(args, closed, [graph_to_text(closed)])
    return 0


def cmd_dags(graph: Graph, args) -> int:
    dags = enumerate_dags(graph)
    _emit(args, {"count": len(dags), "dags": dags},
          [f"{len(dags)} DAGs in the class"] + [_graph_line(d) for d in dags])
    return 0


def cmd_pco(graph: Graph, args) -> int:
    nodes = _split(args.nodes) or graph.nodes
    buckets = pco(graph, nodes)
    _emit(args, {"buckets": [list(b) for b in buckets]},
          [",".join(b) for b in buckets])
    return 0


def cmd_dsep(graph: Graph, args) -> int:
    x, y, z = _split(args.x), _split(args.y), _split(args.z)
    witness = find_open_path(graph, x, y, z)
    if witness is None:
        _emit(args, {"separated": True, "witness": None}, ["separated"])
    else:
        lines = ["connected", f"open path: {_path_text(graph, witness.path)}"]
        lines.extend(f"collider descent: {_path_text(graph, descent)}"
                     for descent in witness.collider_descents)
        _emit(args, {"separated": False, "witness": asdict(witness)}, lines)
    return 0


_RELATIONS = {
    "possible-descendants": possible_descendants,
    "possible-ancestors": possible_ancestors,
    "descendants": descendants,
    "ancestors": ancestors,
    "parents": parents,
}


def cmd_reach(graph: Graph, args) -> int:
    found = _RELATIONS[args.relation](graph, _split(args.nodes))
    ordered = graph.sorted_nodes(found)
    _emit(args, {"relation": args.relation, "nodes": list(ordered)},
          [",".join(ordered) if ordered else "(empty)"])
    return 0


def cmd_identify(graph: Graph, args) -> int:
    try:
        expr = cidm(graph, _split(args.x), _split(args.y), _split(args.z))
    except NotIdentifiable as exc:
        cert, fail = exc.certificate, exc.certificate.dsep_failure
        lines = ["not identifiable",
                 f"offending path: {_path_text(graph, cert.offending_path)}"]
        if fail is not None:
            lines += [f"cannot absorb {fail.picked} given "
                      f"{{{','.join(fail.conditioning)}}}:",
                      "  open path in the mutilated graph: "
                      f"{' - '.join(fail.open_path.path)}"]
        _emit(args, {"identifiable": False, "certificate": asdict(cert)},
              lines, sys.stderr)
        return 3
    payload = {"identifiable": True, "expression": render_text(expr),
               "latex": render_latex(expr), "ast": expr}
    _emit(args, payload,
          [render_latex(expr) if args.latex else render_text(expr)])
    return 0


def cmd_enumerate(graph: Graph, args) -> int:
    leaves = cidme_tree(graph, _split(args.x), _split(args.y), _split(args.z))
    rendered = [render_text(leaf.expression) for leaf in leaves]
    distinct = len(set(rendered))
    # each leaf is built only in the form printed
    if args.json:
        print(_dumps({"leaves": [{"graph": leaf.graph,
                                  "expression": text,
                                  "latex": render_latex(leaf.expression),
                                  "ast": leaf.expression}
                                 for leaf, text in zip(leaves, rendered)],
                      "distinct_expressions": distinct}))
        return 0
    print(f"{len(leaves)} leaves, {distinct} distinct expressions")
    for leaf, text in zip(leaves, rendered):
        print(f"[{_graph_line(leaf.graph)}]\n  {text}")
    return 0


def cmd_verify(graph: Graph, args) -> int:
    x, y, z = _split(args.x), _split(args.y), _split(args.z)
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    try:
        expr = cidm(graph, x, y, z)
    except NotIdentifiable as exc:
        print(f"not identifiable, nothing to verify: {exc}", file=sys.stderr)
        return 1
    seed = args.seed
    if seed is None:
        text = os.environ.get("MPDAG_ID_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError("MPDAG_ID_SEED must be an integer, "
                             f"got {text!r}") from None
    worst, n_dags, _ = numeric_gap(graph, expr, x, y, z,
                                   random.Random(seed), args.trials)
    ok = worst <= VERIFY_TOL
    _emit(args, {"verified": ok, "max_gap": worst, "dags_checked": n_dags,
                 "trials_per_dag": args.trials,
                 "expression": render_text(expr)},
          [f"expression: {render_text(expr)}",
           f"checked {n_dags} DAGs x {args.trials} models, "
           f"max gap {worst:.3e}",
           "verified" if ok else "MISMATCH"])
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def _add_query_args(sub, conditioning_help: str) -> None:
    sub.add_argument("-x", required=True, metavar="NODES",
                     help="treatment nodes, comma separated")
    sub.add_argument("-y", required=True, metavar="NODES",
                     help="outcome nodes, comma separated")
    sub.add_argument("-z", default="", metavar="NODES", help=conditioning_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpdagid",
        description="Identify conditional interventional densities in "
                    "maximally oriented partially directed acyclic graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph file in edge-list or JSON "
                                     "format, or - for stdin")
        p.add_argument("--json", action="store_true",
                       help="emit structured JSON instead of text")
        p.set_defaults(func=func)
        return p

    p = add("complete", cmd_complete,
            "close a graph under the orientation rules, optionally after "
            "adding background orientations")
    p.add_argument("--orient", action="append", metavar="A>B",
                   help="orient A -- B as A -> B before closing; "
                        "repeatable, accepts comma lists")

    add("dags", cmd_dags, "list every DAG in the graph's class")

    p = add("pco", cmd_pco, "partial causal ordering of a node set into "
                            "bucket lists")
    p.add_argument("--nodes", default="", metavar="NODES",
                   help="nodes to order (default: all)")

    p = add("dsep", cmd_dsep, "d-separation of definite-status paths, with "
                              "an open-path witness when connected")
    _add_query_args(p, "conditioning nodes, comma separated")

    p = add("reach", cmd_reach, "reachability sets (possible descendants, "
                                "possible ancestors, ...)")
    p.add_argument("--nodes", required=True, metavar="NODES",
                   help="start nodes, comma separated")
    p.add_argument("--relation", choices=sorted(_RELATIONS),
                   default="possible-descendants")

    p = add("identify", cmd_identify,
            "closed-form expression for f(y | do(x), z), exit 3 with a "
            "certificate when not identifiable")
    _add_query_args(p, "conditioning nodes, comma separated")
    p.add_argument("--latex", action="store_true",
                   help="print the LaTeX rendering")

    p = add("enumerate", cmd_enumerate,
            "per-class identification: one expression for each leaf of the "
            "orientation split")
    _add_query_args(p, "conditioning nodes, comma separated")

    p = add("verify", cmd_verify,
            "check the identified expression numerically against truncated "
            "factorization on every DAG in the class")
    _add_query_args(p, "conditioning nodes, comma separated")
    p.add_argument("--trials", type=int, default=2,
                   help="random models per DAG (default 2)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: MPDAG_ID_SEED or 0)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args keeps no state
    # between calls, so one parser serves every call in the process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        graph = _load_graph(args.graph)
        code = args.func(graph, args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away, as in `| head`: exit quietly as a shell
        # reports SIGPIPE, with stdout on devnull so that exit's flush
        # cannot fail again (Python's documentation on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (GraphError, IdentificationError, ValueError, OSError,
            ModuleNotFoundError,  # numpy, which verify loads
            MemoryError) as exc:  # a joint table too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
