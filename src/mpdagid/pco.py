"""Buckets and the partial causal ordering of a node set.

A bucket of D is the intersection of D with one maximal undirected-connected
component of the graph (components are taken over all nodes, walking only
undirected edges, so two D-nodes joined through out-of-D undirected paths
share a bucket).  The ordering peels components whose edges to the other
remaining components all point inward, prepending each peeled component's
D-intersection, so the returned list runs from possible causes to effects.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from .graph import Graph, GraphError
from .reachability import _closure


def undirected_components(graph: Graph) -> list[frozenset[str]]:
    """Maximal undirected-connected node sets, ordered by smallest member."""
    seen: set[str] = set()
    comps: list[frozenset[str]] = []
    for v in graph.nodes:
        if v not in seen:
            comp = _closure(graph, (v,), graph.undirected_neighbors_of)
            seen |= comp
            comps.append(comp)
    return comps


def pco(graph: Graph, nodes: Iterable[str]) -> list[tuple[str, ...]]:
    """Partial causal ordering of ``nodes`` as a list of bucket tuples.

    Repeatedly removes a remaining component with only incoming edges from
    the other remaining components (smallest node index first when several
    qualify) and prepends its intersection with ``nodes``.

    The component graph is built once; each component keeps the number of
    remaining components it points into, and the sinks wait in a heap keyed
    by component position, which is the order of their smallest members.
    """
    d = graph.check_nodes(nodes)
    comps = undirected_components(graph)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    out_degree = [0] * len(comps)
    pred: list[list[int]] = [[] for _ in comps]
    for ca, cb in {(comp_of[a], comp_of[b])
                   for a, children in graph._ch.items() for b in children}:
        if ca != cb:
            out_degree[ca] += 1
            pred[cb].append(ca)
    sinks = [i for i, k in enumerate(out_degree) if k == 0]
    heapq.heapify(sinks)
    ordered: list[tuple[str, ...]] = []
    for _ in comps:
        if not sinks:
            raise GraphError("no sink component; graph is not maximally oriented")
        pick = heapq.heappop(sinks)
        for q in pred[pick]:
            out_degree[q] -= 1
            if out_degree[q] == 0:
                heapq.heappush(sinks, q)
        bucket = comps[pick] & d
        if bucket:
            ordered.append(graph.sorted_nodes(bucket))
    ordered.reverse()
    return ordered
