import random
import time

import pytest

from mpdagid import (GraphError, meek_closure, parse_graph_text, pco,
                     random_mpdag, undirected_components)

from cases import background_graphs, fraction_graph, marginal_graph


def reference_pco(graph, nodes):
    """The ordering as first written: rescan every directed edge for each
    remaining component, and peel the first one that points into none of
    the others."""
    d = frozenset(nodes)
    for v in d:
        graph.index(v)
    remaining = undirected_components(graph)
    ordered = []
    while remaining:
        rest_nodes = set()
        for comp in remaining:
            rest_nodes |= comp
        pick = None
        for comp in remaining:
            others = rest_nodes - comp
            if all(b not in others
                   for a, b in graph.directed_edges if a in comp):
                pick = comp
                break
        if pick is None:
            raise GraphError("no sink component; graph is not maximally oriented")
        remaining.remove(pick)
        bucket = pick & d
        if bucket:
            ordered.insert(0, graph.sorted_nodes(bucket))
    return ordered


def test_undirected_components():
    g = parse_graph_text("A -- B\nB -- C\nD -> A\nnode E\n")
    assert undirected_components(g) == [{"A", "B", "C"}, {"D"}, {"E"}]


class TestPco:
    def test_fraction_graph_ordering(self):
        g = fraction_graph()
        assert pco(g, ("V1", "Z", "Y")) == [("V1",), ("Z", "Y")]
        assert pco(g, ("V1", "Z")) == [("V1",), ("Z",)]

    def test_marginal_graph_ordering(self):
        g = marginal_graph()
        # ancestors of Y with X cut away, minus the conditioning node
        assert pco(g, ("V2", "Y")) == [("V2",), ("Y",)]

    def test_all_nodes(self):
        g = parse_graph_text("A -> B\nB -- C\n")
        order = pco(g, g.nodes)
        assert order == [("A",), ("B", "C")]

    def test_subset_of_component(self):
        # the bucket is the intersection, not the whole component
        g = parse_graph_text("A -- B\nB -- C\nA -- C\nD -> A\n")
        assert pco(g, ("B", "D")) == [("D",), ("B",)]

    def test_no_sink_component_raises(self):
        from mpdagid import Graph
        cyclic = Graph(["A", "B", "C"],
                       directed=[("A", "B"), ("B", "C"), ("C", "A")])
        with pytest.raises(GraphError):
            pco(cyclic, ("A", "B", "C"))

    def test_properties_on_random_graphs(self):
        rng = random.Random(19)
        for _ in range(120):
            g = random_mpdag(rng, [f"N{i}" for i in range(6)], 0.45)
            vs = [v for v in g.nodes if rng.random() < 0.7]
            buckets = pco(g, vs)
            flat = [v for b in buckets for v in b]
            assert sorted(flat) == sorted(set(vs))
            comps = undirected_components(g)
            for bucket in buckets:
                assert any(set(bucket) <= c for c in comps)
            # directed edges across buckets respect the output order
            position = {v: i for i, b in enumerate(buckets) for v in b}
            for a, b in g.directed_edges:
                if a in position and b in position:
                    assert position[a] <= position[b]


def _pco_outcome(order, graph, nodes):
    try:
        return order(graph, nodes)
    except GraphError as exc:
        return type(exc).__name__, str(exc)


def _assert_pco_matches_reference(graphs, rng):
    raised = 0
    for g in graphs:
        subsets = (g.nodes, [v for v in g.nodes if rng.random() < 0.5])
        for nodes in subsets:
            expected = _pco_outcome(reference_pco, g, nodes)
            assert _pco_outcome(pco, g, nodes) == expected, (g, nodes)
            raised += isinstance(expected, tuple)
    return raised


def test_pco_matches_reference_on_every_four_node_graph(four_node_graphs):
    raised = _assert_pco_matches_reference(four_node_graphs, random.Random(3))
    assert 0 < raised < 2 * len(four_node_graphs)


def test_pco_matches_reference_on_random_background_knowledge():
    rng = random.Random(7)
    graphs = background_graphs(seed=11, count=200)
    closed = []
    for g in graphs:
        try:
            closed.append(meek_closure(g))
        except GraphError:
            pass
    _assert_pco_matches_reference(graphs + closed, rng)


def test_sparse_pco_is_fast():
    # hundreds of components, each with a few directed edges out
    rng = random.Random(320)
    nodes = [f"V{i}" for i in range(320)]
    g = random_mpdag(rng, nodes, edge_prob=3.0 / 319, orient_prob=0.2)
    assert len(undirected_components(g)) > 200
    start = time.perf_counter()
    order = pco(g, nodes)
    assert time.perf_counter() - start < 0.2
    assert sorted(v for bucket in order for v in bucket) == sorted(nodes)
