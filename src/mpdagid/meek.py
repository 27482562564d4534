"""Orientation rules R1-R4, closure, refinement, and consistency checks.

The closure operator repeatedly applies the four rules until no undirected
edge can be oriented.  A closed graph whose class is nonempty (it admits a
consistent extension) is maximally oriented; inconsistent inputs raise
:class:`InconsistentOrientation`.  The rounds and the sink search run on
int bit masks, bit i for node i, built from the edge maps or, below a
split result, copied from the masks it keeps.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph, GraphClass, GraphError, _orient_in_maps
from .reachability import _closure


class InconsistentOrientation(GraphError):
    """The requested orientations admit no consistent extension."""


def _bits(m: int) -> Iterator[int]:
    """The indices of the set bits of ``m``, low to high."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _masks(index: dict[str, int], pa, ch, nb,
           at: Iterable[str] | None = None, built=None):
    """Int bit masks, bit i for node i, of the parents, children and
    undirected neighbours of each node in ``at`` (by default each node with
    an undirected edge), and of its neighbours and itself, in lists by node
    index with 0 at every other node; last, the mask of those nodes.
    ``built`` is an earlier result on the same maps: its nodes are kept."""
    n, get, shift = len(index), index.__getitem__, (1).__lshift__
    mpa, mch, mnb, madj, done = (built
                                 or ([0] * n, [0] * n, [0] * n, [0] * n, 0))
    live = 0
    for v in [v for v, s in nb.items() if s] if at is None else at:
        i = index[v]
        live |= 1 << i
        if not done >> i & 1:
            mpa[i] = p = sum(map(shift, map(get, pa[v])))
            mch[i] = c = sum(map(shift, map(get, ch[v])))
            mnb[i] = u = sum(map(shift, map(get, nb[v])))
            madj[i] = p | c | u | 1 << i
    return mpa, mch, mnb, madj, live


def _applications(pa, ch, nb, adj, seeds: int) -> list[tuple[int, int]]:
    """The orientations x -> y, as node indices, that R1-R4 license among
    the undirected edges with an endpoint in ``seeds``, in
    ``undirected_edges`` order (bit order is node order), each edge a -- b
    tried as a -> b and then b -> a.  The masks are those of
    :func:`_masks`: a premise reads the masks of endpoints of undirected
    edges only, so masks at those nodes suffice."""
    out = []
    ends = seeds
    for s in _bits(seeds):
        ends |= nb[s]
    for a in _bits(ends):
        later = nb[a] >> a + 1 << a + 1
        for b in _bits(later if seeds >> a & 1 else later & seeds):
            for x, y in ((a, b), (b, a)):
                py, apart = pa[y], ~adj[y]
                shared, far = nb[x] & py, nb[x] & apart
                # R1: p -> x -- y, p and y nonadjacent; R2: x -> c -> y;
                # R3: x -- c -> y and x -- d -> y, c and d nonadjacent;
                # R4: x -- d -> c -> y, d and y nonadjacent, x and c adjacent
                if (pa[x] & apart or ch[x] & py
                        or shared & shared - 1 and any(
                            shared & ~adj[c] for c in _bits(shared))
                        or far and (into := py & adj[x]) and any(
                            ch[d] & into for d in _bits(far))):
                    out.append((x, y))
    return out


def meek_closure(graph: Graph) -> Graph:
    """Apply R1-R4 to a fixed point.

    The rules run in rounds on a copy of the edge maps.  Each round
    finds every orientation the rules license on the graph as the round
    starts, in ``undirected_edges`` order, and then applies them in that
    order.  Undirected premises only disappear and adjacency never
    changes, so only a rule with a new u -> v among its premises can fire
    anew: R1 as v -> y, R2 as u -> y or x -> v, R3 as x -> v, R4 as x -> v
    or x -> y with x -- u.  So later rounds try only the undirected edges
    with an endpoint in {u, v} or in nb(u), for each u -> v the last round
    oriented (semi-naive evaluation; Bancilhon & Ramakrishnan, SIGMOD
    1986).  The result's class, DAG or MPDAG, is recorded for ``classify``.

    Raises
    ------
    InconsistentOrientation
        If the input's directed part is cyclic, or the closure creates a
        directed cycle or an unshielded collider the input did not have,
        or the closed graph has no consistent extension.
    """
    return _close(graph, [])


def _close(graph: Graph, given: list[tuple[str, str]]) -> Graph:
    """The rounds of :func:`meek_closure` on masks of copies of ``graph``'s
    maps, with the undirected edges ``given`` oriented first, as listed.
    Returns one graph derived from ``graph``, or ``graph`` itself if
    nothing changed.  A split, one pair a -> b below a graph recorded as
    an MPDAG, first tries only the edges a new a -> b can license, since
    no rule applies to an MPDAG, and its result is recorded as an MPDAG or
    a DAG without the checks: the class holds DAGs with the edge each way,
    so the closure is the MPDAG of a subclass (Meek, UAI 1995).  An MPDAG
    result keeps its final masks, for a split of it to copy."""
    maps = graph._oriented_maps(given)
    nodes, index = graph.nodes, graph._index
    split = graph._class is GraphClass.MPDAG and len(given) == 1
    kept = graph._closed_masks if split else None
    if kept is None:
        masks = pa, ch, nb, adj, live = _masks(index, *maps)
    else:  # adjacency never changes, so adj is shared
        masks = pa, ch, nb, adj, live = (*map(list.copy, kept[:3]), *kept[3:])
    near = live
    if split:
        a, b = map(index.__getitem__, given[0])
        if kept is not None:
            nb[a], nb[b] = nb[a] ^ 1 << b, nb[b] ^ 1 << a
            ch[a], pa[b] = ch[a] | 1 << b, pa[b] | 1 << a
        near = 1 << a | 1 << b | nb[a]
    new: list[tuple[int, int]] = []
    while near:
        oriented = []
        for a, b in _applications(pa, ch, nb, adj, near):
            if nb[a] >> b & 1:
                nb[a], nb[b] = nb[a] ^ 1 << b, nb[b] ^ 1 << a
                ch[a], pa[b] = ch[a] | 1 << b, pa[b] | 1 << a
                oriented.append((a, b))
        new += oriented
        near = 0
        for a, b in oriented:
            near |= 1 << a | 1 << b | nb[a]
    for a, b in new:  # new sets where an edge changed; the rest stay shared
        _orient_in_maps(*maps, nodes[a], nodes[b])
    g = graph._derive(*maps) if given or new else graph
    if split:
        if any(nb):  # a DAG has no edge to split, so only an MPDAG keeps them
            g._class, g._closed_masks = GraphClass.MPDAG, masks
        else:
            g._class = GraphClass.DAG
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
    if any(pa[v] & ~adj[u] for u, v in new):
        raise InconsistentOrientation("closure created a new unshielded collider")
    # the rounds stopped with no rule left to apply, so g is closed:
    # its class is decided here, and Graph.classify() asks for it
    if g._class is None:
        g._class = (GraphClass.DAG if not any(nb)
                    else GraphClass.MPDAG
                    if _extension_edges(g, _decisive_nodes(g), masks) is not None
                    else GraphClass.PDAG)
    if g._class is GraphClass.PDAG:
        raise InconsistentOrientation("no consistent extension exists")
    return g


def is_meek_closed(graph: Graph) -> bool:
    """True iff none of R1-R4 can orient any undirected edge.  Nothing in
    the package calls it; ``bench/tracing.py`` wraps it by name."""
    return not _applications(*_masks(graph._index, graph._pa, graph._ch,
                                     graph._nb))


def refine(graph: Graph, a: str, b: str) -> Graph:
    """Orient the undirected edge a -- b as a -> b and re-close.

    The result, its class and every error are those of
    ``meek_closure(graph.orient(a, b))``, but the rounds start from a -> b
    applied to copies of ``graph``'s maps and build one graph; below a
    graph recorded as an MPDAG it is a split (see :func:`_close`)."""
    return _close(graph, [(a, b)])


def apply_background(graph: Graph, orientations: Iterable[tuple[str, str]]) -> Graph:
    """Orient each listed undirected edge, then close under R1-R4.  A pair
    already directed, in ``graph`` or by an earlier pair, is skipped, or
    raises if directed the other way; the first bad pair names the error.
    One pair to orient below a graph recorded as an MPDAG is a split, as
    in :func:`refine`."""
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
    return _close(graph, list(given))


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


def _extension_edges(graph: Graph, among: Iterable[str], masks=None
                     ) -> list[tuple[str, str]] | None:
    """How the sink-elimination search orients the undirected edges of the
    subgraph that ``among`` induces, or None if it has no consistent
    extension.  It repeatedly picks the first node, in node order, with no
    outgoing directed edge whose undirected neighbors are adjacent to all
    its other neighbors, orients its undirected edges inward, and removes
    it.  A node that fails waits outside the mask of candidates until one
    of its neighbours is removed, since only that can change its verdict.
    A node on a directed cycle keeps a child on the cycle, so it is never
    removed.  ``masks``, if given, are ``_masks`` of ``graph``'s maps."""
    nodes = graph.nodes
    pa, ch, nb, adj, remaining = _masks(graph._index, graph._pa, graph._ch,
                                        graph._nb, among, masks)
    oriented: list[tuple[str, str]] = []
    queued = remaining  # the candidates, popped lowest bit first
    while remaining:
        if not queued:
            return None
        low = queued & -queued
        queued ^= low
        v = low.bit_length() - 1
        nbs = nb[v] & remaining
        others = pa[v] & remaining | nbs
        # a sink: no child left, and each undirected neighbour u adjacent
        # to all of v's other neighbours (adj[u] holds u itself)
        if ch[v] & remaining or nbs and any(others & ~adj[u]
                                            for u in _bits(nbs)):
            continue
        oriented += [(nodes[u], nodes[v]) for u in _bits(nbs)]
        remaining ^= low
        # v has no child left, so its remaining neighbours are these
        queued |= others
    return oriented


def consistent_extension(graph: Graph) -> Graph | None:
    """A DAG of ``graph``'s class (see ``enumerate_dags``), or None."""
    oriented = _extension_edges(graph, graph.nodes)
    return (None if oriented is None
            else graph._derive(*graph._oriented_maps(oriented)))


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
