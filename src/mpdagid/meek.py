"""Orientation rules R1-R4, closure, refinement, and consistency checks.

The closure operator repeatedly applies the four rules until no undirected
edge can be oriented.  A closed graph whose class is nonempty (it admits a
consistent extension) is maximally oriented; inconsistent inputs raise
:class:`InconsistentOrientation`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable

from .graph import Graph, GraphClass, GraphError, _orient_in_maps
from .reachability import _closure


class InconsistentOrientation(GraphError):
    """The requested orientations admit no consistent extension."""


def _licensed(pa, ch, nb, adj, x: str, y: str) -> bool:
    """True iff one of R1-R4 orients the undirected edge x -- y as x -> y.

    ``pa``, ``ch`` and ``nb`` map each node to its parents, children and
    undirected neighbours; ``adj`` maps it to all its neighbours.
    """
    # R1: a -> x -- y with a, y nonadjacent
    if any(a not in adj[y] for a in pa[x]):
        return True
    # R2: x -> b -> y with x -- y
    if not ch[x].isdisjoint(pa[y]):
        return True
    # R3: x -- c -> y and x -- d -> y with c, d nonadjacent
    shared = nb[x] & pa[y]
    if any(d not in adj[c] for c, d in itertools.combinations(shared, 2)):
        return True
    # R4: x -- d -> c -> y with d, y nonadjacent and x, c adjacent
    for d in nb[x]:
        if d == y or d in adj[y]:
            continue
        if not adj[x].isdisjoint(ch[d] & pa[y]):
            return True
    return False


def _rule_applications(pa, ch, nb, adj, edges) -> list[tuple[str, str]]:
    """The orientations x -> y that R1-R4 license among ``edges``, each
    undirected edge tried as a -> b and then b -> a."""
    return [(x, y) for a, b in edges for x, y in ((a, b), (b, a))
            if _licensed(pa, ch, nb, adj, x, y)]


class _Adjacency(dict):
    """All neighbours of each node of a graph, built for a node when it is
    first asked for.  Orienting an edge keeps the adjacencies, so one map
    serves a whole closure.  Lazy because most nodes of a sparse graph
    have no undirected edge: an eager map made ``classify`` about 20%
    slower there."""

    def __init__(self, graph: Graph):
        super().__init__()
        self._graph = graph

    def __missing__(self, v: str) -> frozenset[str]:
        g = self._graph
        out = self[v] = g._pa[v] | g._ch[v] | g._nb[v]
        return out


def _edges_at(nb, index, nodes: Iterable[str]) -> list[tuple[str, str]]:
    """The undirected edges with an endpoint in ``nodes``, in
    ``undirected_edges`` order."""
    return sorted({(u, w) if index[u] < index[w] else (w, u)
                   for u in nodes for w in nb[u]},
                  key=lambda e: (index[e[0]], index[e[1]]))


def meek_closure(graph: Graph) -> Graph:
    """Apply R1-R4 to a fixed point.

    The rules run in rounds on a copy of the edge maps.  Each round
    finds every orientation the rules license on the graph as the round
    starts, in ``undirected_edges`` order, and then applies them in that
    order.  A rule's premise for x -> y reads only the edges at x, at y and
    at the neighbours of x, so after the first round only the undirected
    edges with an endpoint next to an edge the last round oriented are
    tried again; every other edge still licenses nothing.  The result's
    class, DAG or MPDAG, is recorded on it for ``classify``.

    Raises
    ------
    InconsistentOrientation
        If the input's directed part is cyclic, or the closure creates a
        directed cycle or an unshielded collider the input did not have,
        or the closed graph has no consistent extension.
    """
    return _close(graph, [], graph.nodes)


def _close(graph: Graph, given: list[tuple[str, str]],
           seeds: Iterable[str], _split: bool = False) -> Graph:
    """The rounds of :func:`meek_closure` on copies of ``graph``'s maps,
    with the undirected edges ``given`` oriented first, as listed.  The
    first round tries the undirected edges at ``seeds``.  Returns one graph
    derived from ``graph``, or ``graph`` itself if nothing changed."""
    pa, ch, nb = graph._oriented_maps(given)
    index = graph._index
    adj = _Adjacency(graph)  # orienting keeps every adjacency
    edges = _edges_at(nb, index, seeds)
    new: list[tuple[str, str]] = []
    while edges:
        oriented = []
        for a, b in _rule_applications(pa, ch, nb, adj, edges):
            if b in nb[a]:
                _orient_in_maps(pa, ch, nb, a, b)
                oriented.append((a, b))
        new += oriented
        near: set[str] = set()
        for a, b in oriented:
            near |= adj[a] | adj[b] | {a, b}
        edges = _edges_at(nb, index, near)
    g = graph._derive(pa, ch, nb) if given or new else graph
    if _split:
        # a split of an MPDAG's undirected edge: its class orients the edge
        # both ways (Meek, UAI 1995), so the closure is the MPDAG (or DAG)
        # of a subclass, and the checks below cannot fail
        g._class = GraphClass.MPDAG if any(g._nb.values()) else GraphClass.DAG
        return g
    # g holds every directed edge of the start (graph with ``given``), so
    # the start is checked only when g has a cycle, to say whose it is
    if not g.directed_part_acyclic():
        start = graph._derive(*graph._oriented_maps(given))
        raise InconsistentOrientation(
            "directed part contains a cycle" if not start.directed_part_acyclic()
            else "closure created a directed cycle")
    # a new unshielded collider holds a newly oriented edge u -> v and
    # another parent of v that is not adjacent to u
    if any(p != u and p not in adj[u] for u, v in new for p in pa[v]):
        raise InconsistentOrientation("closure created a new unshielded collider")
    # the rounds stopped with no rule left to apply, so g is closed:
    # its class is decided here, and Graph.classify() asks for it
    if g._class is None:
        g._class = (GraphClass.DAG if not any(g._nb.values())
                    else GraphClass.MPDAG
                    if _extension_edges(g, _decisive_nodes(g)) is not None
                    else GraphClass.PDAG)
    if g._class is GraphClass.PDAG:
        raise InconsistentOrientation("no consistent extension exists")
    return g


def is_meek_closed(graph: Graph) -> bool:
    """True iff none of R1-R4 can orient any undirected edge.  Nothing in
    the package calls it; ``bench/tracing.py`` wraps it by name."""
    return not _rule_applications(graph._pa, graph._ch, graph._nb,
                                  _Adjacency(graph), graph.undirected_edges)


def refine(graph: Graph, a: str, b: str) -> Graph:
    """Orient the undirected edge a -- b as a -> b and re-close.

    The result, its class and every error are those of
    ``meek_closure(graph.orient(a, b))``, but the rounds start from a -> b
    applied to copies of ``graph``'s maps and build one graph.  When
    ``graph`` is recorded as an MPDAG no rule applies to it, so the first
    round tries only the undirected edges next to a or b; otherwise, or
    when there is no a -- b to orient, it tries every edge."""
    split = graph._class is GraphClass.MPDAG and graph.has_undirected(a, b)
    seeds = (graph.neighbors_of(a) | graph.neighbors_of(b) | {a, b}
             if split else graph.nodes)
    return _close(graph, [(a, b)], seeds, _split=split)


def apply_background(graph: Graph, orientations: Iterable[tuple[str, str]]) -> Graph:
    """Orient each listed undirected edge, then close under R1-R4.  A pair
    already directed, in ``graph`` or by an earlier pair, is skipped, or
    raises if directed the other way; the first bad pair names the error."""
    orientations = list(orientations)
    graph.check_nodes(v for pair in orientations for v in pair)
    given: dict[tuple[str, str], None] = {}
    for a, b in orientations:
        if graph.has_directed(a, b) or (a, b) in given:
            continue
        if graph.has_directed(b, a) or (b, a) in given:
            raise InconsistentOrientation(
                f"edge between {a!r} and {b!r} already oriented the other way")
        given[a, b] = None
        if not graph.has_undirected(a, b):
            break  # the pair _oriented_maps rejects, before any later one
    return _close(graph, list(given), graph.nodes)


def _decisive_nodes(graph: Graph) -> frozenset[str]:
    """The nodes that decide whether a closed graph with an acyclic
    directed part has a consistent extension: each node with an undirected
    edge, and each node with such a node both among its directed ancestors
    and among its directed descendants.

    Every other node can be removed without changing the answer, one at a
    time, and the sink search then runs on what is left.  A node with no
    undirected edge and no child left is a sink the search may remove
    (Dor & Tarsi 1992).  A node with no undirected edge and no parent left
    may be removed too: a consistent extension of the rest, with the node
    added back as a source, makes no new unshielded collider, since one
    would need s -> c -- p with s and p nonadjacent, which R1 closure rules
    out.  An induced subgraph of an R1-closed graph is R1-closed, so the
    removals repeat until only these nodes are left."""
    undirected = [v for v in graph.nodes if graph._nb[v]]
    above = _closure(graph, undirected, graph._pa.__getitem__)
    # a directed path from such a node to one of its ancestors runs
    # through ancestors only
    return _closure(graph, undirected, lambda v: graph._ch[v] & above)


def _extension_edges(graph: Graph, among: Iterable[str]) -> list[tuple[str, str]] | None:
    """How the sink-elimination search orients the undirected edges of the
    subgraph that ``among`` induces, or None if it has no consistent
    extension.  It repeatedly picks the first node, in node order, with no
    outgoing directed edge whose undirected neighbors are adjacent to all
    its other neighbors, orients its undirected edges inward, and removes
    it.  A node that fails waits outside the heap of candidate positions
    until one of its neighbours is removed, since only that can change its
    verdict.  A node on a directed cycle keeps a child on the cycle, so it
    is never removed."""
    nodes, index = graph.nodes, graph._index
    pa, ch, nb = graph._pa, graph._ch, graph._nb
    adj = _Adjacency(graph)
    remaining = set(among)
    oriented: list[tuple[str, str]] = []

    def sink_ok(v: str) -> bool:
        if not ch[v].isdisjoint(remaining):
            return False
        nbs = nb[v] & remaining
        others = (pa[v] & remaining) | nbs
        # the others not adjacent to u can only be u itself
        return all(others - adj[u] <= {u} for u in nbs)

    queued = [v in remaining for v in nodes]
    heap = [i for i, q in enumerate(queued) if q]
    while remaining:
        if not heap:
            return None
        i = heapq.heappop(heap)
        queued[i] = False
        v = nodes[i]
        if not sink_ok(v):
            continue
        oriented += [(u, v) for u in nb[v] & remaining]
        remaining.discard(v)
        # v has no child left, so its remaining neighbours are these
        for u in (pa[v] | nb[v]) & remaining:
            if not queued[index[u]]:
                queued[index[u]] = True
                heapq.heappush(heap, index[u])
    return oriented


def consistent_extension(graph: Graph) -> Graph | None:
    """A DAG of ``graph``'s class (see ``enumerate_dags``), or None."""
    oriented = _extension_edges(graph, graph.nodes)
    return (None if oriented is None
            else graph._derive(*graph._oriented_maps(oriented)))


def has_consistent_extension(graph: Graph) -> bool:
    return _extension_edges(graph, graph.nodes) is not None


def pattern_of(dag: Graph) -> Graph:
    """The maximally oriented graph of ``dag``'s equivalence class.

    Keeps the unshielded-collider edges directed, makes every other edge
    undirected, and closes under R1-R4.  Raises GraphError if ``dag`` is
    not a DAG.
    """
    if dag.classify() is not GraphClass.DAG:
        raise GraphError("a pattern needs a DAG")
    keep: set[tuple[str, str]] = set()
    for a, b, c in dag.unshielded_colliders():
        keep.add((a, b))
        keep.add((c, b))
    undirected = [(a, b) for a, b in dag.directed_edges if (a, b) not in keep]
    return meek_closure(Graph(dag.nodes, keep, undirected))
