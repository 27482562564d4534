"""Partially directed graphs with an ordered node set and immutable edges.

A graph here is a set of nodes plus directed (``a -> b``) and undirected
(``a -- b``) edges, at most one edge per node pair and no self loops.  Node
order is part of the value: it fixes edge canonicalization, tie-breaking in
the algorithms, and the variable order used when rendering expressions.

Graphs are immutable; every mutation-like operation returns a new graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


class EdgeKind(Enum):
    DIRECTED = "->"
    UNDIRECTED = "--"


class GraphClass(Enum):
    """How a partially directed graph classifies.

    DAG: every edge directed and the graph is acyclic.
    MPDAG: directed part acyclic, closed under the orientation rules, and
        at least one consistent extension exists.
    PDAG: anything else (mutilated graphs, unclosed patterns, inconsistent
        inputs).
    """

    DAG = "dag"
    MPDAG = "mpdag"
    PDAG = "pdag"


class GraphError(ValueError):
    """Invalid graph construction or query."""


class ParseError(GraphError):
    """Malformed graph text or JSON."""


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    kind: EdgeKind

    def __str__(self) -> str:
        return f"{self.a} {self.kind.value} {self.b}"


class Graph:
    """Immutable partially directed graph.

    Parameters
    ----------
    nodes:
        Node labels in order.  Order is significant and preserved by all
        derived graphs.
    directed:
        Iterable of (tail, head) pairs.
    undirected:
        Iterable of unordered pairs.
    """

    __slots__ = ("_nodes", "_index", "_directed", "_undirected",
                 "_und_norm", "_pa", "_ch", "_nb", "_hash", "_class")

    def __init__(self, nodes: Sequence[str],
                 directed: Iterable[tuple[str, str]] = (),
                 undirected: Iterable[tuple[str, str]] = ()):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise GraphError(f"duplicate node labels in {nodes!r}")
        index = {v: i for i, v in enumerate(nodes)}

        pa: dict[str, set[str]] = {v: set() for v in nodes}
        ch: dict[str, set[str]] = {v: set() for v in nodes}
        nb: dict[str, set[str]] = {v: set() for v in nodes}

        def check(a: str, b: str) -> None:
            if a not in index or b not in index:
                raise GraphError(f"edge ({a}, {b}) uses undeclared node")
            if a == b:
                raise GraphError(f"self loop on {a!r}")
            if b in pa[a] or b in ch[a] or b in nb[a]:
                raise GraphError(f"more than one edge between {a!r} and {b!r}")

        dset: set[tuple[str, str]] = set()
        for a, b in directed:
            check(a, b)
            dset.add((a, b))
            ch[a].add(b)
            pa[b].add(a)
        uset: set[tuple[str, str]] = set()
        for a, b in undirected:
            check(a, b)
            if index[a] > index[b]:
                a, b = b, a
            uset.add((a, b))
            nb[a].add(b)
            nb[b].add(a)

        self._nodes = nodes
        self._index = index
        self._directed = frozenset(dset)
        self._undirected = frozenset(uset)
        self._pa = {v: frozenset(s) for v, s in pa.items()}
        self._ch = {v: frozenset(s) for v, s in ch.items()}
        self._nb = {v: frozenset(s) for v, s in nb.items()}
        self._und_norm = frozenset(frozenset(e) for e in uset)
        self._hash = hash((frozenset(nodes), self._directed, self._und_norm))
        self._class: GraphClass | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown node {v!r}") from None

    def check_nodes(self, nodes: Iterable[str]) -> frozenset[str]:
        """``nodes`` as a frozenset, once :meth:`index` has checked each."""
        out = frozenset(nodes)
        for v in out:
            self.index(v)
        return out

    @property
    def directed_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._directed,
                            key=lambda e: (self._index[e[0]], self._index[e[1]])))

    @property
    def undirected_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._undirected,
                            key=lambda e: (self._index[e[0]], self._index[e[1]])))

    @property
    def edges(self) -> tuple[Edge, ...]:
        out = [Edge(a, b, EdgeKind.DIRECTED) for a, b in self.directed_edges]
        out += [Edge(a, b, EdgeKind.UNDIRECTED) for a, b in self.undirected_edges]
        return tuple(out)

    def parents_of(self, v: str) -> frozenset[str]:
        self.index(v)
        return self._pa[v]

    def children_of(self, v: str) -> frozenset[str]:
        self.index(v)
        return self._ch[v]

    def undirected_neighbors_of(self, v: str) -> frozenset[str]:
        self.index(v)
        return self._nb[v]

    def neighbors_of(self, v: str) -> frozenset[str]:
        """All nodes adjacent to v, by any edge kind."""
        self.index(v)
        return self._pa[v] | self._ch[v] | self._nb[v]

    def has_directed(self, a: str, b: str) -> bool:
        return (a, b) in self._directed

    def has_undirected(self, a: str, b: str) -> bool:
        return b in self._nb.get(a, frozenset())

    def adjacent(self, a: str, b: str) -> bool:
        return (b in self._pa.get(a, frozenset())
                or b in self._ch.get(a, frozenset())
                or b in self._nb.get(a, frozenset()))

    def edge_between(self, a: str, b: str) -> EdgeKind | None:
        """Kind of the edge between a and b (DIRECTED for either direction)."""
        if self.has_undirected(a, b):
            return EdgeKind.UNDIRECTED
        if self.has_directed(a, b) or self.has_directed(b, a):
            return EdgeKind.DIRECTED
        return None

    def sorted_nodes(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The given nodes in this graph's node order."""
        try:
            return tuple(sorted(subset, key=self._index.__getitem__))
        except KeyError as exc:
            raise GraphError(f"unknown node {exc.args[0]!r}") from None

    # -- derived graphs --------------------------------------------------

    def orient(self, a: str, b: str) -> "Graph":
        """Replace the undirected edge a -- b with a -> b."""
        if not self.has_undirected(a, b):
            raise GraphError(f"no undirected edge between {a!r} and {b!r}")
        und = set(self._undirected)
        und.discard((a, b) if self._index[a] < self._index[b] else (b, a))
        return Graph(self._nodes, self._directed | {(a, b)}, und)

    def remove_edges_into(self, targets: Iterable[str]) -> "Graph":
        """Drop every directed edge whose head is in ``targets``.

        Undirected edges are untouched and the result is not re-closed.
        """
        t = self.check_nodes(targets)
        keep = [(a, b) for a, b in self._directed if b not in t]
        return Graph(self._nodes, keep, self._undirected)

    def remove_edges_out_of(self, sources: Iterable[str]) -> "Graph":
        """Drop every directed edge whose tail is in ``sources``."""
        s = self.check_nodes(sources)
        keep = [(a, b) for a, b in self._directed if a not in s]
        return Graph(self._nodes, keep, self._undirected)

    def induced_subgraph(self, keep: Iterable[str]) -> "Graph":
        """Subgraph over ``keep``, node order preserved; ``self`` if all."""
        k = self.check_nodes(keep)
        if len(k) == len(self._nodes):
            return self
        nodes = tuple(v for v in self._nodes if v in k)
        directed = [(a, b) for a, b in self._directed if a in k and b in k]
        undirected = [(a, b) for a, b in self._undirected if a in k and b in k]
        return Graph(nodes, directed, undirected)

    # -- structure queries ------------------------------------------------

    def directed_part_acyclic(self) -> bool:
        """True iff the directed edges alone contain no cycle."""
        indeg = {v: 0 for v in self._nodes}
        for _, b in self._directed:
            indeg[b] += 1
        stack = [v for v in self._nodes if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for c in self._ch[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    stack.append(c)
        return seen == len(self._nodes)

    def unshielded_colliders(self) -> frozenset[tuple[str, str, str]]:
        """Triples (a, b, c) with a -> b <- c, a and c nonadjacent, a before c."""
        out = set()
        for b in self._nodes:
            pa = self.sorted_nodes(self._pa[b])
            for i, a in enumerate(pa):
                for c in pa[i + 1:]:
                    if not self.adjacent(a, c):
                        out.add((a, b, c))
        return frozenset(out)

    def classify(self) -> GraphClass:
        """The graph's class, computed on the first call and then kept."""
        if self._class is None:
            self._class = self._compute_class()
        return self._class

    def _compute_class(self) -> GraphClass:
        if not self.directed_part_acyclic():
            return GraphClass.PDAG
        if not self._undirected:
            return GraphClass.DAG
        from .meek import is_meek_closed, has_consistent_extension
        if is_meek_closed(self) and has_consistent_extension(self):
            return GraphClass.MPDAG
        return GraphClass.PDAG

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality is mathematical: node declaration order is ignored."""
        if not isinstance(other, Graph):
            return NotImplemented
        return (set(self._nodes) == set(other._nodes)
                and self._directed == other._directed
                and self._und_norm == other._und_norm)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"Graph(nodes={self._nodes!r}, "
                f"directed={sorted(self._directed)!r}, "
                f"undirected={sorted(self._undirected)!r})")

    def __str__(self) -> str:
        return graph_to_text(self)


# -- text format -----------------------------------------------------------
#
#   # comment
#   node C
#   A -> B
#   A -- B


def parse_graph_text(text: str) -> Graph:
    """Parse the line-oriented edge-list format.

    Nodes appear in order of first mention; ``node X`` declares an isolated
    (or early-ordered) node; ``#`` starts a comment.
    """
    order: list[str] = []
    seen: set[str] = set()

    def note(v: str) -> None:
        if v not in seen:
            seen.add(v)
            order.append(v)

    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        # an arrow line is an edge whatever its first token, so a node
        # named "node" can be an endpoint
        is_edge = len(parts) == 3 and parts[1] in ("->", "--", "<-")
        if parts[0] == "node" and not is_edge:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'node NAME'")
            note(parts[1])
            continue
        if not is_edge:
            raise ParseError(f"line {lineno}: expected 'A -> B', 'A <- B' or 'A -- B'")
        a, op, b = parts
        note(a)
        note(b)
        if op == "--":
            undirected.append((a, b))
        elif op == "->":
            directed.append((a, b))
        else:
            directed.append((b, a))
    try:
        return Graph(order, directed, undirected)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def graph_to_text(graph: Graph) -> str:
    """Serialize to the text format; parses back to an equal graph."""
    lines = [f"node {v}" for v in graph.nodes]
    lines += [str(e) for e in graph.edges]
    return "\n".join(lines) + "\n"


def parse_graph_json(text: str) -> Graph:
    """Parse ``{"nodes": [...], "edges": [{"a":..,"b":..,"kind":"->"|"--"}]}``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "nodes" not in obj:
        raise ParseError("JSON graph must be an object with 'nodes'")
    nodes, edges = obj["nodes"], obj.get("edges", [])
    if not (isinstance(nodes, list)
            and all(isinstance(v, str) for v in nodes)):
        raise ParseError("JSON 'nodes' must be a list of strings")
    for v in nodes:
        # the text format splits on whitespace and cuts at '#'
        if not v or "#" in v or any(c.isspace() for c in v):
            raise ParseError(f"node label {v!r} is empty or contains "
                             "whitespace or '#'")
    if not isinstance(edges, list):
        raise ParseError("JSON 'edges' must be a list")
    directed, undirected = [], []
    for e in edges:
        try:
            a, b, kind = e["a"], e["b"], e["kind"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad edge entry {e!r}") from exc
        if not isinstance(a, str) or not isinstance(b, str):
            raise ParseError(f"edge endpoints must be strings in {e!r}")
        if kind == EdgeKind.DIRECTED.value:
            directed.append((a, b))
        elif kind == EdgeKind.UNDIRECTED.value:
            undirected.append((a, b))
        else:
            raise ParseError(f"bad edge kind {kind!r}")
    try:
        return Graph(nodes, directed, undirected)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _graph_obj(graph: Graph) -> dict:
    """The JSON form as a dict, for callers that embed it in a larger
    document."""
    return {
        "nodes": list(graph.nodes),
        "edges": [{"a": e.a, "b": e.b, "kind": e.kind.value} for e in graph.edges],
    }


def graph_to_json(graph: Graph) -> str:
    return json.dumps(_graph_obj(graph), indent=2)
