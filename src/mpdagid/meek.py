"""Orientation rules R1-R4, closure, refinement, and consistency checks.

The closure operator repeatedly applies the four rules until no undirected
edge can be oriented.  A closed graph whose class is nonempty (it admits a
consistent extension) is maximally oriented; inconsistent inputs raise
:class:`InconsistentOrientation`.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, GraphClass, GraphError


class InconsistentOrientation(GraphError):
    """The requested orientations admit no consistent extension."""


def _rule_applications(graph: Graph) -> list[tuple[str, str]]:
    """All orientations a -> b that R1-R4 license on the current graph."""
    out = []
    for a, b in graph.undirected_edges:
        for x, y in ((a, b), (b, a)):
            if _r1(graph, x, y) or _r2(graph, x, y) or _r3(graph, x, y) \
                    or _r4(graph, x, y):
                out.append((x, y))
    return out


def _r1(g: Graph, b: str, c: str) -> bool:
    # a -> b -- c with a, c nonadjacent: orient b -> c
    return any(not g.adjacent(a, c) for a in g.parents_of(b) if a != c)


def _r2(g: Graph, a: str, c: str) -> bool:
    # a -> b -> c with a -- c: orient a -> c
    return bool(g.children_of(a) & g.parents_of(c))


def _r3(g: Graph, a: str, b: str) -> bool:
    # a -- c -> b and a -- d -> b with c, d nonadjacent: orient a -> b
    shared = sorted(g.undirected_neighbors_of(a) & g.parents_of(b))
    for i, c in enumerate(shared):
        for d in shared[i + 1:]:
            if not g.adjacent(c, d):
                return True
    return False


def _r4(g: Graph, a: str, b: str) -> bool:
    # a -- d -> c -> b with d, b nonadjacent and a, c adjacent: orient a -> b
    for d in g.undirected_neighbors_of(a):
        if d == b or g.adjacent(d, b):
            continue
        for c in g.children_of(d) & g.parents_of(b):
            if g.adjacent(a, c):
                return True
    return False


def meek_closure(graph: Graph) -> Graph:
    """Apply R1-R4 to a fixed point.

    Raises
    ------
    InconsistentOrientation
        If the input's directed part is cyclic, or the closure creates a
        directed cycle or an unshielded collider the input did not have,
        or the closed graph has no consistent extension.
    """
    if not graph.directed_part_acyclic():
        raise InconsistentOrientation("directed part contains a cycle")
    g = graph
    while True:
        apps = _rule_applications(g)
        if not apps:
            break
        for a, b in apps:
            if g.has_undirected(a, b):
                g = g.orient(a, b)
    if not g.directed_part_acyclic():
        raise InconsistentOrientation("closure created a directed cycle")
    if not g.unshielded_colliders() <= graph.unshielded_colliders():
        raise InconsistentOrientation("closure created a new unshielded collider")
    # the loop's last sweep oriented nothing, so g is closed: record its
    # class here instead of letting classify() repeat that sweep
    if g._class is None:
        g._class = (GraphClass.DAG if not g._undirected
                    else GraphClass.MPDAG if has_consistent_extension(g)
                    else GraphClass.PDAG)
    if g._class is GraphClass.PDAG:
        raise InconsistentOrientation("no consistent extension exists")
    return g


def is_meek_closed(graph: Graph) -> bool:
    """True iff none of R1-R4 can orient any undirected edge."""
    return not _rule_applications(graph)


def refine(graph: Graph, a: str, b: str) -> Graph:
    """Orient the undirected edge a -- b as a -> b and re-close."""
    return meek_closure(graph.orient(a, b))


def apply_background(graph: Graph, orientations: Iterable[tuple[str, str]]) -> Graph:
    """Orient each listed undirected edge, then close under R1-R4."""
    g = graph
    for a, b in orientations:
        if g.has_directed(a, b):
            continue
        if g.has_directed(b, a):
            raise InconsistentOrientation(
                f"edge between {a!r} and {b!r} already oriented the other way")
        g = g.orient(a, b)
    return meek_closure(g)


def consistent_extension(graph: Graph) -> Graph | None:
    """A DAG with the same adjacencies and directed edges and no unshielded
    collider the input lacks, or None if none exists.

    Uses the sink-elimination search: repeatedly pick a node with no outgoing
    directed edge whose undirected neighbors are adjacent to all its other
    neighbors, orient its undirected edges inward, and remove it.  Failure to
    find such a node at any step means no extension exists.
    """
    if not graph.directed_part_acyclic():
        return None
    g = graph
    remaining = set(g.nodes)
    oriented: list[tuple[str, str]] = []

    def sink_ok(v: str) -> bool:
        if g.children_of(v) & remaining:
            return False
        nbs = g.undirected_neighbors_of(v) & remaining
        others = (g.neighbors_of(v) & remaining) - {v}
        return all(g.adjacent(u, w) for u in nbs for w in others if w != u)

    while remaining:
        v = next((v for v in g.nodes if v in remaining and sink_ok(v)), None)
        if v is None:
            return None
        oriented += [(u, v) for u in g.undirected_neighbors_of(v) & remaining]
        remaining.discard(v)

    directed = set(graph.directed_edges) | set(oriented)
    dag = Graph(graph.nodes, directed)
    return dag


def has_consistent_extension(graph: Graph) -> bool:
    return consistent_extension(graph) is not None


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
