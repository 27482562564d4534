"""Ancestral and possible-ancestral relations, and possibly directed paths.

A path ``<v0, ..., vk>`` is possibly directed when the graph has no edge
``vi <- vj`` for any ``i < j``.  That condition is pairwise over the whole
path, not edge-by-edge: an early node may be cut off by a directed edge from
a node much later on the path.

On DAGs and MPDAGs the condition can be checked locally.  A shortest
possibly directed path has no chord (a forward chord would shortcut it, a
backward one breaks the condition), and conversely every walk that steps
along ``->`` or ``--`` through unshielded triples only ends at a node some
possibly directed path reaches (Perkovic, Kalisch & Maathuis, UAI 2017).
The one exception is a path whose first edge must be undirected: its
source may have a directed chord to the third node, because the shortcut
over that chord would start with a directed edge.

One search, :func:`path_search`, serves this module and
:mod:`mpdagid.dsep`; each caller passes its admissibility rule.  By
default it enters each edge state ``(prev, cur)`` at most once, so a query
costs O(sum of deg^2) steps without recursion; in its simple mode it keeps
every simple path, is exponential in the worst case, and stops with
``GraphError`` past ``MAX_SIMPLE_PATHS`` kept paths.  :func:`_search`
runs the first mode through unshielded triples.  Graphs that
``classify()`` as PDAG (cyclic, not closed, or without a consistent
extension) give no such guarantee; there it falls back on
:func:`_walk_paths`, the simple mode with the pairwise condition.
All set relations (ancestors, descendants, possible variants) are reflexive.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Callable, Iterable, Sequence

from .graph import Graph, GraphClass, GraphError

# simple paths path_search may keep: 32 times the most (513) any test,
# benchmark op or CI step keeps, and more than a graph of 8 nodes has from
# one source (13,699); a diamond chain doubles them per diamond
MAX_SIMPLE_PATHS = 2 ** 14


def parents(graph: Graph, nodes: Iterable[str]) -> frozenset[str]:
    """Union of the nodes' parents, minus the nodes themselves."""
    s = graph.check_nodes(nodes)
    return frozenset().union(*map(graph._pa.__getitem__, s)) - s


def _closure(graph: Graph, nodes: Iterable[str], step) -> frozenset[str]:
    out = set(graph.check_nodes(nodes))
    stack = list(out)
    while stack:
        v = stack.pop()
        for w in step(v):
            if w not in out:
                out.add(w)
                stack.append(w)
    return frozenset(out)


def ancestors(graph: Graph, nodes: Iterable[str]) -> frozenset[str]:
    """Nodes with a directed path into ``nodes`` (reflexive)."""
    return _closure(graph, nodes, graph.parents_of)


def descendants(graph: Graph, nodes: Iterable[str]) -> frozenset[str]:
    """Nodes reachable from ``nodes`` along directed edges (reflexive)."""
    return _closure(graph, nodes, graph.children_of)


def _steps(graph: Graph, v: str, backward: bool) -> frozenset[str]:
    """Neighbours one edge further along (forward) or against (backward)
    a possibly directed path: over ``->`` or ``--`` edges."""
    along = graph.parents_of(v) if backward else graph.children_of(v)
    return along | graph.undirected_neighbors_of(v)


def path_search(sources: Sequence[str],
                expand: Callable[[tuple[str, ...]], Iterable[str]],
                targets: frozenset[str], *, simple: bool = False
                ) -> tuple[frozenset[str], tuple[str, ...] | None]:
    """Breadth-first search over paths, one length at a time.

    Starts from the one-node paths of ``sources`` in their order and grows
    each path by every node ``expand(path)`` yields.  By default a path is
    kept only when its last step ``(path[-1], w)`` is an edge state not
    entered before: O(sum of deg^2) steps, and the result may be a walk.
    With ``simple`` every path that repeats no node is kept: exact, and
    exponential in the worst case, so once a level ends with more than
    ``MAX_SIMPLE_PATHS`` paths kept it raises ``GraphError``.  With sources
    and expansions in node order, the first path into ``targets`` is the
    lexicographically least shortest one.  Returns the nodes reached and
    that path; when no target is reached the path is None and the reached
    set is complete.
    """
    reached = set(sources)
    entered: set[tuple[str, str]] = set()
    level, kept = [(s,) for s in sources], 0
    while level:
        nxt: list[tuple[str, ...]] = []
        for path in level:
            for w in expand(path):
                step = (path[-1], w)
                if (w in path) if simple else (step in entered):
                    continue
                entered.add(step)
                if w in targets:
                    return frozenset(reached), path + (w,)
                reached.add(w)
                nxt.append(path + (w,))
        level, kept = nxt, kept + len(nxt)
        if simple and kept > MAX_SIMPLE_PATHS:
            raise GraphError(f"the exact path search kept more than "
                             f"{MAX_SIMPLE_PATHS} simple paths")
    return frozenset(reached), None


def _walk_paths(graph: Graph, sources: frozenset[str], backward: bool,
                targets: frozenset[str], start_undirected: bool
                ) -> tuple[frozenset[str], tuple[str, ...] | None]:
    """Exhaustive reference, valid on any graph: :func:`path_search` over
    simple paths that re-checks each new node against every node already
    on the path.
    Same arguments and result as :func:`_search`."""
    def extend(path: tuple[str, ...]) -> Iterable[str]:
        if len(path) == 1 and start_undirected:
            steps = graph.undirected_neighbors_of(path[0])
        else:
            steps = _steps(graph, path[-1], backward)
        # pairwise condition: a forward path grows at its end, so no edge
        # may run from w back into it; a backward one grows at its start,
        # so no edge may run from the path into w
        return [w for w in graph.sorted_nodes(steps - sources)
                if not any(graph.has_directed(p, w) if backward
                           else graph.has_directed(w, p) for p in path)]

    return path_search(graph.sorted_nodes(sources), extend, targets,
                       simple=True)


def _search(graph: Graph, sources: frozenset[str], *, backward: bool = False,
            targets: frozenset[str] = frozenset(),
            start_undirected: bool = False
            ) -> tuple[frozenset[str], tuple[str, ...] | None]:
    """Possibly directed paths by :func:`path_search` over edge states on
    DAGs and MPDAGs, by :func:`_walk_paths` on other graphs.

    From ``cur`` the search steps to a neighbour ``w`` not a source and
    not adjacent to ``prev``.  With ``start_undirected`` the first step
    takes undirected edges only, and the source ``prev`` of the second step
    may then have the directed chord ``prev -> w``: the shorter path over
    that chord would start with a directed edge.  No step enters a source,
    so no later ``prev`` is a source.
    """
    if graph.classify() is GraphClass.PDAG:
        return _walk_paths(graph, sources, backward, targets, start_undirected)
    order: dict[str, tuple[str, ...]] = {}
    shields: dict[str, frozenset[str]] = {}  # a node and its neighbours

    def expand(path: tuple[str, ...]) -> Iterable[str]:
        cur = path[-1]
        if len(path) == 1 and start_undirected:
            return graph.sorted_nodes(graph.undirected_neighbors_of(cur)
                                      - sources)
        steps = order.get(cur)
        if steps is None:
            steps = order[cur] = graph.sorted_nodes(
                _steps(graph, cur, backward) - sources)
        if len(path) == 1:
            return steps
        prev = path[-2]
        shield = shields.get(prev)
        if shield is None:
            shield = shields[prev] = graph.neighbors_of(prev) | {prev}
        if start_undirected and len(path) == 2:
            return [w for w in steps if w not in shield or (
                graph.has_directed(w, prev) if backward
                else graph.has_directed(prev, w))]
        return filterfalse(shield.__contains__, steps)

    return path_search(graph.sorted_nodes(sources), expand, targets)


def _possible_relatives(graph: Graph, nodes: Iterable[str],
                        backward: bool) -> frozenset[str]:
    start = graph.check_nodes(nodes)
    if not any(graph._nb.values()):
        return (ancestors if backward else descendants)(graph, start)
    return _search(graph, start, backward=backward)[0]


def possible_descendants(graph: Graph, nodes: Iterable[str]) -> frozenset[str]:
    """Endpoints of possibly directed paths out of ``nodes`` (reflexive).

    Polynomial on DAGs and MPDAGs; exhaustive on other graphs with
    undirected edges.  Without undirected edges this is :func:`descendants`.
    """
    return _possible_relatives(graph, nodes, backward=False)


def possible_ancestors(graph: Graph, nodes: Iterable[str]) -> frozenset[str]:
    """Sources of possibly directed paths into ``nodes`` (reflexive).

    Polynomial on DAGs and MPDAGs; exhaustive on other graphs with
    undirected edges.  Without undirected edges this is :func:`ancestors`.
    """
    return _possible_relatives(graph, nodes, backward=True)


def find_proper_pc_path(graph: Graph, sources: Iterable[str],
                        targets: Iterable[str], *,
                        start_undirected: bool = False
                        ) -> tuple[str, ...] | None:
    """Shortest proper possibly directed path from ``sources`` to ``targets``.

    Proper means only the first node lies in ``sources``.  With
    ``start_undirected`` the first edge must be undirected.  Ties among
    shortest paths break lexicographically by node index.  Returns None if
    no such path exists.  Polynomial on DAGs and MPDAGs; exhaustive on
    other graphs.
    """
    src, tgt = graph.check_disjoint(sources, targets)
    return _search(graph, src, targets=tgt,
                   start_undirected=start_undirected)[1]

