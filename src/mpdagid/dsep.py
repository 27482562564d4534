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
_EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class OpenPathWitness:
    """An open definite-status path, with a directed descent into the
    conditioning set for every collider on it."""

    path: tuple[str, ...]
    collider_descents: tuple[tuple[str, ...], ...]


def triple_status(graph: Graph, a: str, b: str, c: str) -> str | None:
    """Status of b as interior node of the path segment a, b, c.

    Returns "collider", "noncollider" (definite), or None when b has no
    definite status on the segment; a GraphError names an unknown label.
    """
    graph.check_nodes((a, b, c))
    return _triple_status(graph, a, b, c)


def _triple_status(graph: Graph, a: str, b: str, c: str) -> str | None:
    """:func:`triple_status` without the label check, for the witness."""
    if graph.has_directed(a, b) and graph.has_directed(c, b):
        return COLLIDER
    if graph.has_directed(b, a) or graph.has_directed(b, c):
        return NONCOLLIDER
    if graph.has_undirected(a, b) and graph.has_undirected(b, c) \
            and not graph.adjacent(a, c):
        return NONCOLLIDER
    return None


def _open_next(graph: Graph, z: frozenset[str], an_z: frozenset[str],
               prev: str, cur: str, steps: Iterable[str]) -> list[str]:
    """The open-triple rule: the w of ``steps`` other than ``prev``, in
    order, for which ``cur`` is a collider in ``an_z``, the ancestors of
    Z, or a definite non-collider outside Z on (prev, cur, w), told by the
    edge between prev and cur instead of by ``_triple_status``."""
    pa, ch, nb = graph._pa, graph._ch, graph._nb
    if prev in pa[cur]:  # an open collider, or a non-collider outside Z
        near = ((pa[cur] if cur in an_z else _EMPTY)
                | (_EMPTY if cur in z else ch[cur]))
    elif cur in z:
        return []
    elif prev in ch[cur]:  # a non-collider with every neighbour
        return [w for w in steps if w != prev]
    else:  # a child, or an undirected neighbour not adjacent to prev
        near = ch[cur] | (nb[cur] - pa[prev] - ch[prev] - nb[prev])
    return [w for w in steps if w in near and w != prev]


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
    an_z = ancestors(graph, z)
    order: dict[str, tuple[str, ...]] = {}

    def expand(path: tuple[str, ...]) -> Iterable[str]:
        cur = path[-1]
        steps = order.get(cur)
        if steps is None:
            steps = order[cur] = graph.sorted_nodes(graph.neighbors_of(cur) - x)
        if len(path) == 1:
            return steps
        return _open_next(graph, z, an_z, path[-2], cur, steps)

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
        if _triple_status(graph, path[i - 1], path[i], path[i + 1]) == COLLIDER))


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
    an_z = ancestors(graph, z)
    return all(_open_next(graph, z, an_z, *path[i - 1:i + 1], path[i + 1:i + 2])
               for i in range(1, len(path) - 1))
