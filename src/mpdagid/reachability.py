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

The two searches here serve this module and :mod:`mpdagid.dsep`; each
caller passes its admissibility rule.  :func:`edge_state_search` enters
each state ``(prev, cur)`` at most once, so a query costs O(sum of deg^2)
time without recursion; :func:`simple_path_search` extends simple paths
and is exponential in the worst case.  :func:`_search` runs the first
through unshielded triples.  Graphs that ``classify()`` as PDAG (cyclic,
not closed, or without a consistent extension) give no such guarantee;
there it falls back on :func:`_walk_paths`, the second with the pairwise
condition.
All set relations (ancestors, descendants, possible variants) are reflexive.
"""

from __future__ import annotations

from collections import deque
from itertools import filterfalse
from typing import Callable, Iterable, Sequence

from .graph import Graph, GraphClass


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


def edge_state_search(sources: Sequence[str],
                      expand: Callable[[str | None, str], Iterable[str]],
                      targets: frozenset[str]
                      ) -> tuple[frozenset[str], tuple[str, ...] | None]:
    """Breadth-first search over edge states ``(prev, cur)``.

    Starts from the states ``(None, s)`` in the order of ``sources``, steps
    to ``(cur, w)`` for each ``w`` that ``expand(prev, cur)`` yields, and
    enters each state at most once.  With sources and expansions in node
    order, the first walk into ``targets`` is the lexicographically least
    shortest one.  Returns the nodes reached and that walk; when no target
    is reached the walk is None and the reached set is complete.
    """
    parent: dict[tuple[str | None, str], tuple[str | None, str] | None] = \
        {(None, s): None for s in sources}
    queue = deque(parent)
    reached = set(sources)
    while queue:
        state = queue.popleft()
        prev, cur = state
        for w in expand(prev, cur):
            step = (cur, w)
            if step in parent:
                continue
            parent[step] = state
            if w in targets:
                walk = []
                at: tuple[str | None, str] | None = step
                while at is not None:
                    walk.append(at[1])
                    at = parent[at]
                return frozenset(reached), tuple(reversed(walk))
            reached.add(w)
            queue.append(step)
    return frozenset(reached), None


def simple_path_search(sources: Sequence[str],
                       extend: Callable[[tuple[str, ...]], Iterable[str]],
                       targets: frozenset[str]
                       ) -> tuple[frozenset[str], tuple[str, ...] | None]:
    """Breadth-first search over simple paths, one length at a time: each
    path grows by every node ``extend(path)`` yields that is not on it yet.
    Same result as :func:`edge_state_search`, a simple path in place of the
    walk; worst case exponential."""
    reached = set(sources)
    level = [(s,) for s in sources]
    while level:
        nxt: list[tuple[str, ...]] = []
        for path in level:
            for w in extend(path):
                if w in path:
                    continue
                if w in targets:
                    return frozenset(reached), path + (w,)
                reached.add(w)
                nxt.append(path + (w,))
        level = nxt
    return frozenset(reached), None


def _walk_paths(graph: Graph, sources: frozenset[str], backward: bool,
                blocked: frozenset[str], targets: frozenset[str],
                start_undirected: bool
                ) -> tuple[frozenset[str], tuple[str, ...] | None]:
    """Exhaustive reference, valid on any graph: :func:`simple_path_search`
    that re-checks each new node against every node already on the path.
    Same arguments and result as :func:`_search`."""
    def extend(path: tuple[str, ...]) -> Iterable[str]:
        if len(path) == 1 and start_undirected:
            steps = graph.undirected_neighbors_of(path[0])
        else:
            steps = _steps(graph, path[-1], backward)
        # pairwise condition: a forward path grows at its end, so no edge
        # may run from w back into it; a backward one grows at its start,
        # so no edge may run from the path into w
        return [w for w in graph.sorted_nodes(steps - blocked)
                if w not in path and not any(
                    graph.has_directed(p, w) if backward
                    else graph.has_directed(w, p) for p in path)]

    return simple_path_search(graph.sorted_nodes(sources), extend, targets)


def _search(graph: Graph, sources: frozenset[str], *, backward: bool = False,
            blocked: frozenset[str], targets: frozenset[str] = frozenset(),
            start_undirected: bool = False
            ) -> tuple[frozenset[str], tuple[str, ...] | None]:
    """Possibly directed paths by :func:`edge_state_search` on DAGs and
    MPDAGs, by :func:`_walk_paths` on other graphs.

    From ``cur`` the edge-state search steps to a neighbour ``w`` not in
    ``blocked`` and not adjacent to ``prev``.  With ``start_undirected`` the
    first step takes undirected edges only, and a source ``prev`` may then
    have the directed chord ``prev -> w``: the shorter path over that chord
    would start with a directed edge.
    """
    if graph.classify() is GraphClass.PDAG:
        return _walk_paths(graph, sources, backward, blocked, targets,
                           start_undirected)
    order: dict[str, tuple[str, ...]] = {}
    shields: dict[str, frozenset[str]] = {}  # a node and its neighbours

    def expand(prev: str | None, cur: str) -> Iterable[str]:
        if prev is None and start_undirected:
            return graph.sorted_nodes(graph.undirected_neighbors_of(cur)
                                      - blocked)
        steps = order.get(cur)
        if steps is None:
            steps = order[cur] = graph.sorted_nodes(
                _steps(graph, cur, backward) - blocked)
        if prev is None:
            return steps
        shield = shields.get(prev)
        if shield is None:
            shield = shields[prev] = graph.neighbors_of(prev) | {prev}
        if start_undirected and prev in sources:
            return [w for w in steps if w not in shield or (
                graph.has_directed(w, prev) if backward
                else graph.has_directed(prev, w))]
        return filterfalse(shield.__contains__, steps)

    return edge_state_search(graph.sorted_nodes(sources), expand, targets)


def _possible_relatives(graph: Graph, nodes: Iterable[str],
                        backward: bool) -> frozenset[str]:
    start = graph.check_nodes(nodes)
    if not graph._undirected:
        return (ancestors if backward else descendants)(graph, start)
    return _search(graph, start, backward=backward, blocked=start)[0]


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
                        start_undirected: bool = False,
                        forbidden: Iterable[str] = ()) -> tuple[str, ...] | None:
    """Shortest proper possibly directed path from ``sources`` to ``targets``.

    Proper means only the first node lies in ``sources``.  With
    ``start_undirected`` the first edge must be undirected.  No node of the
    path lies in ``forbidden``.  Ties among shortest paths break
    lexicographically by node index.  Returns None if no such path exists.
    Polynomial on DAGs and MPDAGs; exhaustive on other graphs.
    """
    src = frozenset(sources)
    tgt = frozenset(targets)
    bad = frozenset(forbidden)
    graph.check_nodes(src | tgt | bad)
    if src & tgt:
        raise ValueError("sources and targets must be disjoint")
    return _search(graph, src - bad, blocked=src | bad, targets=tgt,
                   start_undirected=start_undirected)[1]


def is_possibly_directed_path(graph: Graph, path: Sequence[str]) -> bool:
    """Check the pairwise condition on an explicit node sequence."""
    n = len(path)
    if len(set(path)) != n or n == 0:
        return False
    for i in range(n - 1):
        if graph.edge_between(path[i], path[i + 1]) is None \
                or graph.has_directed(path[i + 1], path[i]):
            return False
    for i in range(n):
        for j in range(i + 1, n):
            if graph.has_directed(path[j], path[i]):
                return False
    return True
