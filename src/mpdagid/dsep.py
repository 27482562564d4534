"""d-separation over definite-status paths in partially directed graphs.

The verdict is taken literally on the graph as given, including mutilated
graphs that are not closed under the orientation rules: an interior triple
counts only when it is a collider or a definite non-collider *in this
graph*, and a collider is open only when it has a descendant (here, along
this graph's directed edges) in the conditioning set.

Two searches cooperate.  A pair-state walk search is polynomial and finds
every definite-status walk; since every path is a walk, its SEPARATED
verdict is final.  Its CONNECTED verdict is confirmed by an exact
breadth-first search over simple paths, because on mutilated graphs an open
definite-status walk can exist with no open definite-status path (the walk
can reuse a node under two triples whose merged triple has no definite
status).  The exact search also produces the witness path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph
from .reachability import ancestors

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


def _check_sets(graph: Graph, xs, ys, zs) -> tuple[frozenset, frozenset, frozenset]:
    x, y, z = frozenset(xs), frozenset(ys), frozenset(zs)
    for v in x | y | z:
        graph.index(v)
    if x & y or x & z or y & z:
        raise ValueError("node sets must be pairwise disjoint")
    return x, y, z


def _interior_open(graph: Graph, status: str, b: str,
                   zset: frozenset[str], an_z: frozenset[str]) -> bool:
    if status == COLLIDER:
        return b in an_z
    return b not in zset


def _walk_connected(graph: Graph, x: frozenset[str], y: frozenset[str],
                    z: frozenset[str], an_z: frozenset[str]) -> bool:
    """Pair-state search over definite-status open walks (interiors outside
    X and Y).  False is conclusive; True may still be a walk-only artifact."""
    seen: set[tuple[str, str]] = set()
    stack: list[tuple[str, str]] = []
    for s in x:
        for w in graph.neighbors_of(s):
            if w in y:
                return True
            if w in x:
                continue
            if (s, w) not in seen:
                seen.add((s, w))
                stack.append((s, w))
    while stack:
        p, c = stack.pop()
        for n in graph.neighbors_of(c):
            if n == p or n in x:
                continue
            status = triple_status(graph, p, c, n)
            if status is None or not _interior_open(graph, status, c, z, an_z):
                continue
            if n in y:
                return True
            if (c, n) not in seen:
                seen.add((c, n))
                stack.append((c, n))
    return False


def _directed_descent(graph: Graph, start: str, zset: frozenset[str]) -> tuple[str, ...]:
    """Shortest directed path from ``start`` into ``zset`` (start included)."""
    if start in zset:
        return (start,)
    prev: dict[str, str] = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for c in graph.sorted_nodes(graph.children_of(v)):
                if c in prev:
                    continue
                prev[c] = v
                if c in zset:
                    out = [c]
                    while out[-1] != start:
                        out.append(prev[out[-1]])
                    return tuple(reversed(out))
                nxt.append(c)
        frontier = nxt
    raise AssertionError(f"no directed path from {start!r} into the conditioning set")


def find_open_path(graph: Graph, xs: Iterable[str], ys: Iterable[str],
                   zs: Iterable[str] = ()) -> OpenPathWitness | None:
    """Lexicographically first shortest open definite-status path X to Y
    given Z, or None if X and Y are d-separated given Z."""
    x, y, z = _check_sets(graph, xs, ys, zs)
    an_z = ancestors(graph, z)
    if not _walk_connected(graph, x, y, z, an_z):
        return None

    def witness(path: tuple[str, ...]) -> OpenPathWitness:
        descents = tuple(
            _directed_descent(graph, path[i], z)
            for i in range(1, len(path) - 1)
            if triple_status(graph, path[i - 1], path[i], path[i + 1]) == COLLIDER)
        return OpenPathWitness(path, descents)

    level: list[tuple[str, ...]] = [(s,) for s in graph.sorted_nodes(x)]
    while level:
        nxt: list[tuple[str, ...]] = []
        for path in level:
            last = path[-1]
            for w in graph.sorted_nodes(graph.neighbors_of(last)):
                if w in path or w in x:
                    continue
                if len(path) >= 2:
                    status = triple_status(graph, path[-2], last, w)
                    if status is None or not _interior_open(graph, status, last,
                                                            z, an_z):
                        continue
                if w in y:
                    return witness(path + (w,))
                nxt.append(path + (w,))
        level = nxt
    return None


def d_separated(graph: Graph, xs: Iterable[str], ys: Iterable[str],
                zs: Iterable[str] = ()) -> bool:
    """True iff every definite-status path from X to Y is blocked by Z."""
    return find_open_path(graph, xs, ys, zs) is None


def is_open_definite_status_path(graph: Graph, path: Sequence[str],
                                 zs: Iterable[str]) -> bool:
    """Validate an explicit path: distinct nodes, consecutive adjacency,
    every interior of definite status and open given Z."""
    z = frozenset(zs)
    if len(path) < 2 or len(set(path)) != len(path):
        return False
    if any(graph.edge_between(path[i], path[i + 1]) is None
           for i in range(len(path) - 1)):
        return False
    an_z = ancestors(graph, z)
    for i in range(1, len(path) - 1):
        status = triple_status(graph, path[i - 1], path[i], path[i + 1])
        if status is None or not _interior_open(graph, status, path[i], z, an_z):
            return False
    return True
