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
    return _close(graph, dict(graph._pa), dict(graph._ch), dict(graph._nb),
                  graph.undirected_edges)


def _close(graph: Graph, pa, ch, nb, edges: list[tuple[str, str]],
           given: tuple[str, str] | None = None) -> Graph:
    """The rounds of :func:`meek_closure`, run on ``pa``, ``ch`` and
    ``nb``: copies of ``graph``'s maps with the orientation ``given``
    already applied.  The first round tries ``edges``.  The result is one
    graph derived from ``graph``, or ``graph`` itself if nothing changed."""
    index = graph._index
    adj = _Adjacency(graph)  # orienting keeps every adjacency
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
    changed = [given, *new] if given else new
    g = graph._with_oriented(pa, ch, nb, changed) if changed else graph
    # g holds every directed edge of the start (graph with ``given``), so
    # the start is checked only when g has a cycle, to say whose it is
    if not g.directed_part_acyclic():
        start = graph.orient(*given) if given else graph
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
        g._class = (GraphClass.DAG if not g._undirected
                    else GraphClass.MPDAG if has_consistent_extension(g)
                    else GraphClass.PDAG)
    if g._class is GraphClass.PDAG:
        raise InconsistentOrientation("no consistent extension exists")
    return g


def is_meek_closed(graph: Graph) -> bool:
    """True iff none of R1-R4 can orient any undirected edge."""
    return not _rule_applications(graph._pa, graph._ch, graph._nb,
                                  _Adjacency(graph), graph.undirected_edges)


def refine(graph: Graph, a: str, b: str) -> Graph:
    """Orient the undirected edge a -- b as a -> b and re-close.

    The result, its class and every error are those of
    ``meek_closure(graph.orient(a, b))``, but the rounds start from a -> b
    applied to copies of ``graph``'s maps and build one graph.  When
    ``graph`` is recorded as an MPDAG no rule applies to it, so the first
    round tries only the undirected edges next to a or b; otherwise it
    tries every edge."""
    pa, ch, nb = graph._oriented_maps(a, b)
    seeds = (graph.neighbors_of(a) | graph.neighbors_of(b) | {a, b}
             if graph._class is GraphClass.MPDAG else graph.nodes)
    return _close(graph, pa, ch, nb, _edges_at(nb, graph._index, seeds),
                  (a, b))


def apply_background(graph: Graph, orientations: Iterable[tuple[str, str]]) -> Graph:
    """Orient each listed undirected edge, then close under R1-R4."""
    orientations = list(orientations)
    graph.check_nodes(v for pair in orientations for v in pair)
    g = graph
    for a, b in orientations:
        if g.has_directed(a, b):
            continue
        if g.has_directed(b, a):
            raise InconsistentOrientation(
                f"edge between {a!r} and {b!r} already oriented the other way")
        g = g.orient(a, b)
    return meek_closure(g)


def _extension_edges(graph: Graph) -> list[tuple[str, str]] | None:
    """How the sink-elimination search orients the undirected edges, or
    None if no consistent extension exists.  It repeatedly picks the first
    node, in node order, with no outgoing directed edge whose undirected
    neighbors are adjacent to all its other neighbors, orients its
    undirected edges inward, and removes it.  A node that fails waits
    outside the heap of candidate positions until one of its neighbours is
    removed, since only that can change its verdict.  A node on a
    directed cycle keeps a child on the cycle, so it is never removed."""
    nodes, index = graph.nodes, graph._index
    pa, ch, nb = graph._pa, graph._ch, graph._nb
    adj = _Adjacency(graph)
    remaining = set(nodes)
    oriented: list[tuple[str, str]] = []

    def sink_ok(v: str) -> bool:
        if not ch[v].isdisjoint(remaining):
            return False
        nbs = nb[v] & remaining
        others = (pa[v] & remaining) | nbs
        # the others not adjacent to u can only be u itself
        return all(others - adj[u] <= {u} for u in nbs)

    heap = list(range(len(nodes)))
    queued = [True] * len(nodes)
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
    oriented = _extension_edges(graph)
    return (None if oriented is None
            else Graph(graph.nodes, graph._directed.union(oriented)))


def has_consistent_extension(graph: Graph) -> bool:
    return _extension_edges(graph) is not None


def pattern_of(dag: Graph) -> Graph:
    """The maximally oriented graph of ``dag``'s equivalence class.

    Keeps the unshielded-collider edges directed, makes every other edge
    undirected, and closes under R1-R4.
    """
    keep: set[tuple[str, str]] = set()
    for a, b, c in dag.unshielded_colliders():
        keep.add((a, b))
        keep.add((c, b))
    undirected = [(a, b) for a, b in dag.directed_edges if (a, b) not in keep]
    return meek_closure(Graph(dag.nodes, keep, undirected))
