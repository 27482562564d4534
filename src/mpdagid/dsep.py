"""d-separation over definite-status paths in partially directed graphs.

The verdict is taken literally on the graph as given, including mutilated
graphs that are not closed under the orientation rules: an interior triple
counts only when it is a collider or a definite non-collider *in this
graph*, and a collider is open only when it has a descendant (here, along
this graph's directed edges) in the conditioning set.

The shared :func:`~mpdagid.reachability.path_search` runs twice under one
open-triple rule.  Over edge states it finds the least shortest open
definite-status walk in polynomial time.  Every path is a walk, so no walk
means SEPARATED; and since the rule reads only ``(prev, cur, next)``, a
walk that repeats no node is the least shortest open path, the witness.
A walk that repeats a node sends the same rule to the exact search over
simple paths: on mutilated graphs an open walk can exist with no open path
(it can reuse a node under two triples whose merged triple has no definite
status).  The search along children gives each collider's descent into Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph
from .reachability import ancestors, path_search

COLLIDER = "collider"
NONCOLLIDER = "noncollider"


@dataclass(frozen=True)
class OpenPathWitness:
    """An open definite-status path, with a directed descent into the
    conditioning set for every collider on it."""

    path: tuple[str, ...]
    collider_descents: tuple[tuple[str, ...], ...]


def triple_status(graph: Graph, a: str, b: str, c: str) -> str | None:
    """Status of b as interior node of the path segment a, b, c.

    Returns "collider", "noncollider" (definite), or None when b has no
    definite status on the segment.
    """
    if graph.has_directed(a, b) and graph.has_directed(c, b):
        return COLLIDER
    if graph.has_directed(b, a) or graph.has_directed(b, c):
        return NONCOLLIDER
    if graph.has_undirected(a, b) and graph.has_undirected(b, c) \
            and not graph.adjacent(a, c):
        return NONCOLLIDER
    return None


def _open_at(graph: Graph, zset: frozenset[str]) -> dict[str, frozenset[str]]:
    """The interior nodes open given Z, by triple status: colliders with a
    descendant in Z, definite non-colliders outside Z."""
    return {COLLIDER: ancestors(graph, zset),
            NONCOLLIDER: frozenset(graph.nodes) - zset}


def _directed_descent(graph: Graph, start: str, zset: frozenset[str]) -> tuple[str, ...]:
    """Shortest directed path from ``start`` into ``zset`` (start included)."""
    if start in zset:
        return (start,)
    descent = path_search(
        (start,), lambda p: graph.sorted_nodes(graph.children_of(p[-1])), zset)[1]
    if descent is None:
        raise AssertionError(
            f"no directed path from {start!r} into the conditioning set")
    return descent


def find_open_path(graph: Graph, xs: Iterable[str], ys: Iterable[str],
                   zs: Iterable[str] = ()) -> OpenPathWitness | None:
    """Lexicographically first shortest open definite-status path X to Y
    given Z, or None if X and Y are d-separated given Z."""
    x, y, z = graph.check_disjoint(xs, ys, zs)
    open_at = _open_at(graph, z)
    order: dict[str, tuple[str, ...]] = {}

    def expand(path: tuple[str, ...]) -> Iterable[str]:
        cur = path[-1]
        steps = order.get(cur)
        if steps is None:
            steps = order[cur] = graph.sorted_nodes(graph.neighbors_of(cur) - x)
        if len(path) == 1:
            return steps
        prev = path[-2]
        return [w for w in steps if w != prev and cur
                in open_at.get(triple_status(graph, prev, cur, w), ())]

    sources = graph.sorted_nodes(x)
    # no open walk means no open path; a walk with a repeat needs the exact search
    path = path_search(sources, expand, y)[1]
    if path is not None and len(set(path)) < len(path):
        path = path_search(sources, expand, y, simple=True)[1]
    if path is None:
        return None
    return OpenPathWitness(path, tuple(
        _directed_descent(graph, path[i], z)
        for i in range(1, len(path) - 1)
        if triple_status(graph, path[i - 1], path[i], path[i + 1]) == COLLIDER))


def d_separated(graph: Graph, xs: Iterable[str], ys: Iterable[str],
                zs: Iterable[str] = ()) -> bool:
    """True iff every definite-status path from X to Y is blocked by Z."""
    return find_open_path(graph, xs, ys, zs) is None


def is_open_definite_status_path(graph: Graph, path: Sequence[str],
                                 zs: Iterable[str]) -> bool:
    """Validate an explicit path: distinct nodes, consecutive adjacency,
    every interior of definite status and open given Z.  A GraphError
    names the least label of ``path`` and ``zs`` that is not a node."""
    z = frozenset(zs)
    graph.check_nodes(z.union(path))
    if len(path) < 2 or len(set(path)) != len(path):
        return False
    if not all(map(graph.adjacent, path, path[1:])):
        return False
    open_at = _open_at(graph, z)
    return all(path[i] in open_at.get(triple_status(graph, *path[i - 1:i + 2]), ())
               for i in range(1, len(path) - 1))
