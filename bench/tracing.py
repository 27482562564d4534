"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions of each ``mpdagid`` module and
rebinds every name through which the program calls them (``from .x import
f`` copies a reference, so each importing module gets the wrapper too).
Each call becomes a span (layer name, start, end, parent span, op id) kept
in memory; :meth:`Tracer.layer_metrics` derives calls, self time, counts
and errors from them.  :func:`uninstall` restores the originals, so an
untraced run executes the program exactly as shipped.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (layer, module that defines it, attribute, modules that call it by name)
FUNCTIONS = [
    ("pco.pco", "pco", "pco", ("pco", "ident", "cli")),
    ("meek.consistent_extension", "meek", "consistent_extension", ("meek",)),
    ("meek.is_meek_closed", "meek", "is_meek_closed", ("meek",)),
    ("meek.meek_closure", "meek", "meek_closure", ("meek", "cli")),
    ("reach.possible_descendants", "reachability", "possible_descendants",
     ("reachability", "ident", "cli")),
    ("reach.possible_ancestors", "reachability", "possible_ancestors",
     ("reachability", "ident", "cli")),
    ("reach.find_proper_pc_path", "reachability", "find_proper_pc_path",
     ("reachability", "ident")),
    ("dsep.d_separated", "dsep", "d_separated", ("dsep", "ident", "cli")),
    ("dsep.find_open_path", "dsep", "find_open_path", ("dsep", "ident", "cli")),
    ("ident.cidm", "ident", "cidm", ("ident", "cli")),
    ("ident.cidme_tree", "ident", "cidme_tree", ("ident", "cli")),
    ("ident.id_formula", "ident", "id_formula", ("ident",)),
    # renderers recurse through their own module; wrap only the CLI's calls
    ("ident.render", "ident", "render_text", ("cli",)),
    ("ident.render", "ident", "render_latex", ("cli",)),
    ("ident.render", "ident", "expression_to_json", ("cli",)),
    ("oracle.enumerate_dags", "oracle", "enumerate_dags", ("oracle", "cli")),
    ("oracle.evaluate_expression", "oracle", "evaluate_expression",
     ("oracle", "cli")),
    ("cli.load_graph", "cli", "_load_graph", ("cli",)),
]
# (layer, class module, class, attribute, kind)
METHODS = [
    ("graph.construct", "graph", "Graph", "__init__", "method"),
    ("graph.directed_edges", "graph", "Graph", "directed_edges", "property"),
    ("graph.classify", "graph", "Graph", "classify", "method"),
    ("oracle.interventional", "oracle", "DiscreteModel", "interventional",
     "method"),
    ("oracle.random_model", "oracle", "DiscreteModel", "random", "classmethod"),
]
TOP = "cli.self"  # the span around cli.main: argparse, glue and JSON emit
LAYERS = sorted({name for name, *_ in FUNCTIONS} | {name for name, *_ in METHODS}
                | {TOP})
GROUPS = ("graph", "pco", "meek", "reach", "dsep", "ident", "oracle", "cli")
COUNTS = ("pco.components", "meek.edges_oriented", "reach.result_nodes",
          "ident.leaves", "ident.splits", "oracle.dags",
          "oracle.orientations_tried", "oracle.enum_yield", "oracle.table_cells",
          "oracle.do_distinct_ratio")
RATIOS = ("oracle.enum_yield", "oracle.do_distinct_ratio")  # higher is better


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    for name in COUNTS:
        ratio = name in RATIOS
        out.append((name, "ratio" if ratio else "count",
                    "higher" if ratio else "lower"))
    out += [(f"{group}.errors", "count", "lower") for group in GROUPS]
    out += [("trace.spans", "count", "lower"),
            ("trace.untraced_ops_per_s", "1/s", "higher"),
            ("trace.traced_ops_per_s", "1/s", "higher"),
            ("trace.overhead", "ratio", "lower")]
    return out


class Tracer:
    """Spans in parallel lists; ``stack`` holds the open span indices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.failed: list[bool] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts = dict.fromkeys(
            [name for name in COUNTS if name not in RATIOS]
            + ["oracle.interventional_calls"], 0)
        self.do_pairs: set = set()
        self.models = 0

    def start_op(self, op: int) -> None:
        # an op cut short by its time budget can leave spans open
        self.stack.clear()
        self.op = op

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.failed.append(False)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool) -> None:
        self.ends[idx] = time.perf_counter()
        self.failed[idx] = failed
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def span(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.close(idx, failed)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0 and self.ends[i]:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for group in GROUPS:
            out[f"{group}.errors"] = 0
        for i in range(n):
            name = self.names[i]
            out[f"{name}.calls"] += 1
            if self.ends[i]:
                out[f"{name}.self_s"] += self.ends[i] - self.starts[i] - child[i]
            if self.failed[i] or not self.ends[i]:
                out[f"{name.split('.')[0]}.errors"] += 1
        for name in COUNTS:
            if name not in RATIOS:
                out[name] = self.counts[name]
        tried = self.counts["oracle.orientations_tried"]
        out["oracle.enum_yield"] = self.counts["oracle.dags"] / tried if tried else 0.0
        calls = self.counts["oracle.interventional_calls"]
        out["oracle.do_distinct_ratio"] = len(self.do_pairs) / calls if calls else 0.0
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.names)):
                fh.write(json.dumps([self.names[i], self.starts[i], self.ends[i],
                                     self.parents[i], self.ops[i]]) + "\n")


# -- counts taken at the span boundaries ------------------------------------------


def _count_closure(tracer, args, result):
    tracer.counts["meek.edges_oriented"] += (len(args[0].undirected_edges)
                                             - len(result.undirected_edges))


def _count_nodes(tracer, args, result):
    tracer.counts["reach.result_nodes"] += len(result) if result else 0


def _count_leaves(tracer, args, result):
    tracer.counts["ident.leaves"] += len(result)
    tracer.counts["ident.splits"] += len(result) - 1


def _count_dags(tracer, args, result):
    tracer.counts["oracle.dags"] += len(result)
    tracer.counts["oracle.orientations_tried"] += 2 ** len(args[0].undirected_edges)


def _count_tables(tracer, args, result):
    model, do = args[0], args[1]
    tracer.counts["oracle.table_cells"] += 2 ** len(model.dag.nodes)
    tracer.counts["oracle.interventional_calls"] += 1
    serial = model.__dict__.get("_bench_serial")
    if serial is None:
        tracer.models += 1
        serial = model.__dict__["_bench_serial"] = tracer.models
    tracer.do_pairs.add((serial, tuple(sorted(do.items()))))


COUNTERS = {"meek.meek_closure": _count_closure,
            "reach.possible_descendants": _count_nodes,
            "reach.possible_ancestors": _count_nodes,
            "reach.find_proper_pc_path": _count_nodes,
            "ident.cidme_tree": _count_leaves,
            "oracle.enumerate_dags": _count_dags,
            "oracle.interventional": _count_tables}


def _module(short: str):
    return sys.modules[f"mpdagid.{short}"]


def install(tracer: Tracer) -> list:
    """Wrap every traced function; returns what :func:`uninstall` needs."""
    saved = []

    def rebind(module, attr, value):
        saved.append((module, attr, module.__dict__[attr]))
        setattr(module, attr, value)

    for name, home, attr, callers in FUNCTIONS:
        original = getattr(_module(home), attr)
        wrapper = tracer.span(name, original, COUNTERS.get(name))
        for caller in callers:
            if attr in _module(caller).__dict__:
                rebind(_module(caller), attr, wrapper)
    # pco.components counts the components each pco call walks; no span
    original = _module("pco").undirected_components

    @functools.wraps(original)
    def components(*args, **kwargs):
        result = original(*args, **kwargs)
        tracer.counts["pco.components"] += len(result)
        return result

    rebind(_module("pco"), "undirected_components", components)
    for name, home, cls_name, attr, kind in METHODS:
        cls = getattr(_module(home), cls_name)
        raw = cls.__dict__[attr]
        count = COUNTERS.get(name)
        if kind == "property":
            value = property(tracer.span(name, raw.fget, count))
        elif kind == "classmethod":
            value = classmethod(tracer.span(name, raw.__func__, count))
        else:
            value = tracer.span(name, raw, count)
        rebind(cls, attr, value)
    main = _module("cli").main
    rebind(_module("cli"), "main", tracer.span(TOP, main))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, value in reversed(saved):
        setattr(owner, attr, value)
