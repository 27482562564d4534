"""Partially directed graphs with an ordered node set and immutable edges.

A graph here is a set of nodes plus directed (``a -> b``) and undirected
(``a -- b``) edges, at most one edge per node pair and no self loops.  Node
order is part of the value: it fixes edge canonicalization, tie-breaking in
the algorithms, and the variable order used when rendering expressions.

Graphs are immutable; every mutation-like operation returns a new graph,
or the graph itself when it changes nothing.  Each graph keeps its edges
in one store, the per-node sets of parents, children and neighbours.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, Sequence


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


# the text format splits lines on whitespace and cuts them at '#'
_UNWRITABLE = re.compile(r"[\s#]")


class GraphError(ValueError):
    """Invalid graph construction or query."""


class ParseError(GraphError):
    """Malformed graph text or JSON."""


# a node's parents, children or undirected neighbours
_Map = dict[str, frozenset[str]]


def _orient_in_maps(pa: _Map, ch: _Map, nb: _Map, a: str, b: str) -> None:
    """Turn a -- b into a -> b in parent, child and neighbour maps of
    frozensets, replacing the four sets that change."""
    nb[a] = nb[a] - {b}
    nb[b] = nb[b] - {a}
    ch[a] = ch[a] | {b}
    pa[b] = pa[b] | {a}


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

    The edges are stored only in maps from each node to the frozensets of
    its parents, children and undirected neighbours; the edge tuples,
    ``==``, the hash and ``repr`` are read from them.  ``Graph(...)``
    checks every label and edge it is given.  A derived graph
    (:meth:`orient`, :meth:`remove_edges_into`, :meth:`remove_edges_out_of`,
    :meth:`induced_subgraph`, and the results of :mod:`mpdagid.meek`'s
    closure, ``refine`` and ``consistent_extension``) is built from its
    parent's maps instead: it shares the parent's node tuple and index
    (:meth:`induced_subgraph` makes its own) and every per-node set whose
    edges do not change.  Its maps are not checked again: each is made
    from a checked parent's by cutting edges or moving a neighbour to the
    parent or child set, and the tests compare every kind of derived
    graph with the ``Graph(...)`` rebuild of its edges.
    """

    __slots__ = ("_nodes", "_index", "_pa", "_ch", "_nb", "_hash", "_class",
                 "_closed_masks")

    def __init__(self, nodes: Sequence[str],
                 directed: Iterable[tuple[str, str]] = (),
                 undirected: Iterable[tuple[str, str]] = ()):
        nodes = tuple(nodes)
        try:
            unwritable = "" in nodes or _UNWRITABLE.search("\0".join(nodes))
        except TypeError:  # a label that is not a string
            unwritable = True
        if unwritable:
            v = next(v for v in nodes if not isinstance(v, str)
                     or not v or _UNWRITABLE.search(v))
            raise GraphError(f"node label {v!r} is empty or contains "
                             "whitespace or '#'" if isinstance(v, str)
                             else f"node label {v!r} is not a string")
        if len(set(nodes)) != len(nodes):
            raise GraphError(f"duplicate node labels in {nodes!r}")
        index = {v: i for i, v in enumerate(nodes)}

        empty: frozenset[str] = frozenset()  # shared by every edgeless slot
        pa, ch, nb = {}, {}, {}  # sets, only for the nodes an edge touches
        for edges, ahead, back in ((directed, ch, pa), (undirected, nb, nb)):
            for a, b in edges:
                if a not in index or b not in index:
                    raise GraphError(f"edge ({a}, {b}) uses undeclared node")
                if a == b:
                    raise GraphError(f"self loop on {a!r}")
                if (b in pa.get(a, empty) or b in ch.get(a, empty)
                        or b in nb.get(a, empty)):
                    raise GraphError(
                        f"more than one edge between {a!r} and {b!r}")
                ahead.setdefault(a, set()).add(b)
                back.setdefault(b, set()).add(a)

        self._set(nodes, index, *(dict.fromkeys(nodes, empty) | {
            v: frozenset(s) for v, s in m.items()} for m in (pa, ch, nb)))

    def _set(self, nodes: tuple[str, ...], index: dict[str, int],
             pa: _Map, ch: _Map, nb: _Map) -> "Graph":
        """The one constructor tail, for ``__init__`` and every derived
        graph: keeps the node order and the edge maps.  ``_closed_masks``
        is set by :mod:`mpdagid.meek` on a split result that is an MPDAG only."""
        self._nodes, self._index = nodes, index
        self._pa, self._ch, self._nb = pa, ch, nb
        self._hash = self._class = self._closed_masks = None
        return self

    def _derive(self, pa: _Map, ch: _Map, nb: _Map) -> "Graph":
        """A graph on this graph's node tuple and index with the given
        maps, built without ``__init__`` and without a check."""
        return Graph.__new__(Graph)._set(self._nodes, self._index,
                                         pa, ch, nb)

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
        """``nodes`` as a frozenset; a GraphError names the least label
        that is not a node."""
        out = frozenset(nodes)
        unknown = out.difference(self._index)
        if unknown:
            raise GraphError(f"unknown node {min(unknown, key=str)!r}")
        return out

    def check_disjoint(self, *sets: Iterable[str]) -> list[frozenset[str]]:
        """Each of ``sets`` as a frozenset, once :meth:`check_nodes` has
        checked their union; ValueError if two of them overlap."""
        out = [frozenset(s) for s in sets]
        if len(self.check_nodes(frozenset().union(*out))) != sum(map(len, out)):
            raise ValueError("node sets must be pairwise disjoint")
        return out

    @property
    def directed_edges(self) -> tuple[tuple[str, str], ...]:
        """(tail, head) pairs, by tail and then head in node order."""
        ch, key = self._ch, self._index.__getitem__
        return tuple([(a, b) for a in self._nodes
                      for b in sorted(ch[a], key=key)])

    @property
    def undirected_edges(self) -> tuple[tuple[str, str], ...]:
        """Each pair once, earlier node first, ordered as directed_edges."""
        nb, index = self._nb, self._index
        return tuple([(a, b) for a in self._nodes
                       for b in sorted(nb[a], key=index.__getitem__)
                       if index[a] < index[b]])

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
        return b in self._ch.get(a, frozenset())

    def has_undirected(self, a: str, b: str) -> bool:
        return b in self._nb.get(a, frozenset())

    def adjacent(self, a: str, b: str) -> bool:
        return (b in self._pa.get(a, frozenset())
                or b in self._ch.get(a, frozenset())
                or b in self._nb.get(a, frozenset()))

    def sorted_nodes(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The given nodes in this graph's node order."""
        try:
            return tuple(sorted(subset, key=self._index.__getitem__))
        except KeyError as exc:
            raise GraphError(f"unknown node {exc.args[0]!r}") from None

    # -- derived graphs --------------------------------------------------

    def orient(self, a: str, b: str) -> "Graph":
        """Replace the undirected edge a -- b with a -> b."""
        return self._derive(*self._oriented_maps([(a, b)]))

    def _oriented_maps(self, pairs: list[tuple[str, str]]
                       ) -> tuple[_Map, _Map, _Map]:
        """Copies of the parent, child and neighbour maps with each
        undirected edge a -- b of ``pairs`` turned into a -> b, in order:
        the one start of every orientation, the closure's included."""
        self.check_nodes(v for pair in pairs for v in pair)
        pa, ch, nb = dict(self._pa), dict(self._ch), dict(self._nb)
        for a, b in pairs:
            if b not in nb[a]:
                raise GraphError(f"no undirected edge between {a!r} and {b!r}")
            _orient_in_maps(pa, ch, nb, a, b)
        return pa, ch, nb

    def _without_directed(self, ends: frozenset[str], into: bool) -> "Graph":
        """Drop every directed edge whose head (``into``) or tail is in
        ``ends``; ``self`` if there is none."""
        near, far = (self._pa, self._ch) if into else (self._ch, self._pa)
        cut = [(v, w) for v in ends for w in near[v]]
        if not cut:
            return self
        near, far = dict(near), dict(far)
        for v, w in cut:
            near[v] = frozenset()
            far[w] = far[w] - ends
        pa, ch = (near, far) if into else (far, near)
        return self._derive(pa, ch, self._nb)

    def remove_edges_into(self, targets: Iterable[str]) -> "Graph":
        """Drop every directed edge whose head is in ``targets``.

        Undirected edges are untouched and the result is not re-closed.
        """
        return self._without_directed(self.check_nodes(targets), into=True)

    def remove_edges_out_of(self, sources: Iterable[str]) -> "Graph":
        """Drop every directed edge whose tail is in ``sources``."""
        return self._without_directed(self.check_nodes(sources), into=False)

    def induced_subgraph(self, keep: Iterable[str]) -> "Graph":
        """Subgraph over ``keep``, node order preserved; ``self`` if all."""
        k = self.check_nodes(keep)
        if len(k) == len(self._nodes):
            return self
        nodes = tuple(v for v in self._nodes if v in k)
        pa, ch, nb = ({v: m[v] if m[v] <= k else m[v] & k for v in nodes}
                      for m in (self._pa, self._ch, self._nb))
        return Graph.__new__(Graph)._set(
            nodes, {v: i for i, v in enumerate(nodes)}, pa, ch, nb)

    # -- structure queries ------------------------------------------------

    def directed_part_acyclic(self) -> bool:
        """True iff the directed edges alone contain no cycle: Kahn's
        algorithm on a stack pops every node."""
        indeg = {v: len(self._pa[v]) for v in self._nodes}
        stack = [v for v in self._nodes if indeg[v] == 0]
        popped = 0
        while stack:
            popped += 1
            for c in self._ch[stack.pop()]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    stack.append(c)
        return popped == len(self._nodes)

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
        """The graph's class, kept after the first call: the one
        ``meek_closure`` records on a graph it returns unchanged, else PDAG."""
        if self._class is None:
            from .meek import InconsistentOrientation, meek_closure
            try:
                if meek_closure(self) is not self:
                    self._class = GraphClass.PDAG
            except InconsistentOrientation:
                self._class = GraphClass.PDAG
        return self._class

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality is mathematical: node declaration order is ignored."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._pa == other._pa and self._nb == other._nb

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._pa.items()),
                               frozenset(self._nb.items())))
        return self._hash

    def __repr__(self) -> str:
        return (f"Graph(nodes={self._nodes!r}, "
                f"directed={sorted(self.directed_edges)!r}, "
                f"undirected={sorted(self.undirected_edges)!r})")

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
    order: dict[str, None] = {}  # first mention keeps its place
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.partition("#")[0].split()  # no copy without a '#'
        if not parts:
            continue
        # an arrow line is an edge whatever its first token, so a node
        # named "node" can be an endpoint
        if len(parts) == 3 and parts[1] in ("->", "--", "<-"):
            a, op, b = parts
            order[a] = order[b] = None
            if op == "--":
                undirected.append((a, b))
            else:
                directed.append((a, b) if op == "->" else (b, a))
        elif parts[0] == "node":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'node NAME'")
            order[parts[1]] = None
        else:
            raise ParseError(f"line {lineno}: expected 'A -> B', 'A <- B' or 'A -- B'")
    return _parsed(order, directed, undirected)


def _parsed(nodes: Iterable[str], directed: list[tuple[str, str]],
            undirected: list[tuple[str, str]]) -> Graph:
    """``Graph(...)`` for the parsers: a GraphError becomes a ParseError."""
    try:
        return Graph(nodes, directed, undirected)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _edge_tokens(graph: Graph) -> Iterator[tuple[str, str, str]]:
    """Each edge as its text tokens ``(a, "->", b)`` or ``(a, "--", b)``:
    the directed edges, then the undirected ones."""
    for a, b in graph.directed_edges:
        yield a, "->", b
    for a, b in graph.undirected_edges:
        yield a, "--", b


def graph_to_text(graph: Graph) -> str:
    """Serialize to the text format; parses back to an equal graph."""
    lines = [f"node {v}" for v in graph.nodes]
    lines += map(" ".join, _edge_tokens(graph))
    return "\n".join(lines) + "\n"


def parse_graph_json(text: str) -> Graph:
    """Parse ``{"nodes": [...], "edges": [{"a":..,"b":..,"kind":"->"|"--"}]}``."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "nodes" not in obj:
        raise ParseError("JSON graph must be an object with 'nodes'")
    nodes, edges = obj["nodes"], obj.get("edges", [])
    if not (isinstance(nodes, list)
            and all(isinstance(v, str) for v in nodes)):
        raise ParseError("JSON 'nodes' must be a list of strings")
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
        if kind == "->":
            directed.append((a, b))
        elif kind == "--":
            undirected.append((a, b))
        else:
            raise ParseError(f"bad edge kind {kind!r}")
    return _parsed(nodes, directed, undirected)


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, default=...)`` byte for byte, the default
    giving a :class:`Graph` as ``parse_graph_json`` reads it and an
    expression of :mod:`mpdagid.ident` as ``expression_to_json`` does, with
    only scalars through json's C code, not its pure-Python indent encoder.
    Per call, a graph's nodes array is built once per node tuple and
    indent, and an edge once per edge and indent.  TypeError for what json
    rejects."""
    out: list[str] = []
    chunks: dict[str, tuple[dict, dict]] = {}  # per indent: nodes, edges

    def block(items: list[str], pad: str, ends: str = "[]") -> str:
        inner = pad + "  "
        return (f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}"
                if items else ends)

    def graph(g: Graph, pad: str) -> None:
        inner, item = pad + "  ", pad + "    "
        nodes_at, edges_at = chunks.setdefault(pad, ({}, {}))
        if g._nodes not in nodes_at:
            nodes_at[g._nodes] = block([*map(_json_str, g._nodes)], inner)
        edges = []
        for token in _edge_tokens(g):
            if token not in edges_at:
                a, kind, b = map(_json_str, token)
                edges_at[token] = block([f'"a": {a}', f'"b": {b}',
                                         f'"kind": {kind}'], item, "{}")
            edges.append(edges_at[token])
        out.append(block([f'"nodes": {nodes_at[g._nodes]}',
                          f'"edges": {block(edges, inner)}'], pad, "{}"))

    def expression(e, pad: str) -> str:
        # the walk of ident.expression_to_json: its kind, then each field
        # in order, a tuple of labels, a tuple of expressions or one
        # expression
        inner = pad + "  "
        items = [f'"kind": "{e._json_kind}"']
        for name in e.__dataclass_fields__:
            v = getattr(e, name)
            if not isinstance(v, tuple):
                v = expression(v, inner)
            elif v and not isinstance(v[0], str):
                v = block([expression(f, inner + "  ") for f in v], inner)
            else:
                v = block([*map(_json_str, v)], inner)
            items.append(f'"{name}": {v}')
        return block(items, pad, "{}")

    def emit(o, pad: str) -> None:
        inner = pad + "  "
        if isinstance(o, dict):
            lead = "{" + inner
            for k, v in o.items():
                if k is None or isinstance(k, (int, float)):
                    k = json.dumps(k)  # json writes such a key as a string
                key = _json_str(k)  # a TypeError for any other non-str key
                if isinstance(v, str):
                    out.append(f"{lead}{key}: {_json_str(v)}")
                else:
                    out.append(f"{lead}{key}: ")
                    emit(v, inner)
                lead = "," + inner
            out.append(pad + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            try:  # the escaper raises TypeError on anything but a str
                out.append(block(list(map(_json_str, o)), pad))
            except TypeError:
                for i, v in enumerate(o):
                    out.append(("," if i else "[") + inner)
                    emit(v, inner)
                out.append(pad + "]")
        elif isinstance(o, Graph):  # after the containers: scalars only
            graph(o, pad)
        elif hasattr(o, "_json_kind"):  # an expression of mpdagid.ident
            out.append(expression(o, pad))
        else:
            out.append(json.dumps(o))

    emit(obj, "\n")
    return "".join(out)
