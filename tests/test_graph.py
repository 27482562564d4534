import json

import pytest

import mpdagid
from mpdagid import (Edge, EdgeKind, Graph, GraphClass, GraphError,
                     ParseError, graph_to_json, graph_to_text,
                     parse_graph_json, parse_graph_text)


class TestConstruction:
    def test_basic(self):
        g = Graph(["A", "B", "C"], directed=[("A", "B")],
                  undirected=[("C", "B")])
        assert g.nodes == ("A", "B", "C")
        assert g.has_directed("A", "B")
        assert not g.has_directed("B", "A")
        assert g.has_undirected("B", "C")
        assert g.has_undirected("C", "B")
        assert g.adjacent("A", "B") and g.adjacent("C", "B")
        assert not g.adjacent("A", "C")

    def test_accessors(self):
        g = Graph(["A", "B", "C", "D"],
                  directed=[("A", "B"), ("C", "B")], undirected=[("B", "D")])
        assert g.parents_of("B") == {"A", "C"}
        assert g.children_of("A") == {"B"}
        assert g.undirected_neighbors_of("B") == {"D"}
        assert g.neighbors_of("B") == {"A", "C", "D"}
        assert g.edge_between("A", "B") is EdgeKind.DIRECTED
        assert g.edge_between("B", "A") is EdgeKind.DIRECTED
        assert g.edge_between("D", "B") is EdgeKind.UNDIRECTED
        assert g.edge_between("A", "D") is None
        assert Edge("A", "B", EdgeKind.DIRECTED) in g.edges

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(["A"], directed=[("A", "A")])

    def test_rejects_duplicate_node(self):
        with pytest.raises(GraphError):
            Graph(["A", "A"])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError):
            Graph(["A"], directed=[("A", "B")])

    def test_rejects_two_edges_per_pair(self):
        with pytest.raises(GraphError):
            Graph(["A", "B"], directed=[("A", "B")], undirected=[("A", "B")])
        with pytest.raises(GraphError):
            Graph(["A", "B"], directed=[("A", "B"), ("B", "A")])

    def test_sorted_nodes_follows_declaration_order(self):
        g = Graph(["C", "A", "B"])
        assert g.sorted_nodes({"A", "B", "C"}) == ("C", "A", "B")
        assert g.sorted_nodes(["B", "C"]) == ("C", "B")


class TestSurgery:
    def test_orient(self):
        g = Graph(["A", "B"], undirected=[("A", "B")])
        h = g.orient("B", "A")
        assert h.has_directed("B", "A")
        assert not h.undirected_edges

    def test_orient_requires_undirected_edge(self):
        g = Graph(["A", "B"], directed=[("A", "B")])
        with pytest.raises(GraphError):
            g.orient("B", "A")

    def test_remove_edges_into(self):
        g = Graph(["A", "B", "C"], directed=[("A", "B"), ("B", "C")],
                  undirected=[("A", "C")])
        h = g.remove_edges_into(["B"])
        assert not h.has_directed("A", "B")
        assert h.has_directed("B", "C")
        # undirected edges stay, even at the cut nodes
        assert h.has_undirected("A", "C")

    def test_remove_edges_out_of(self):
        g = Graph(["A", "B", "C"], directed=[("A", "B"), ("B", "C")])
        h = g.remove_edges_out_of(["B"])
        assert h.has_directed("A", "B")
        assert not h.has_directed("B", "C")

    def test_induced_subgraph(self):
        g = Graph(["A", "B", "C"], directed=[("A", "B")],
                  undirected=[("B", "C")])
        h = g.induced_subgraph(["C", "B"])
        assert h.nodes == ("B", "C")
        assert h.has_undirected("B", "C")
        assert h.parents_of("B") == frozenset()
        with pytest.raises(GraphError):
            g.induced_subgraph(["Z"])


class TestStructure:
    def test_acyclic(self):
        good = Graph(["A", "B", "C"], directed=[("A", "B"), ("B", "C")])
        bad = Graph(["A", "B", "C"],
                    directed=[("A", "B"), ("B", "C"), ("C", "A")])
        assert good.directed_part_acyclic()
        assert not bad.directed_part_acyclic()

    def test_unshielded_colliders(self):
        g = Graph(["A", "B", "C"], directed=[("A", "B"), ("C", "B")])
        assert g.unshielded_colliders() == {("A", "B", "C")}
        shielded = Graph(["A", "B", "C"],
                         directed=[("A", "B"), ("C", "B"), ("A", "C")])
        assert shielded.unshielded_colliders() == set()

    def test_classify(self):
        assert Graph(["A", "B"], directed=[("A", "B")]).classify() \
            is GraphClass.DAG
        triangle = Graph(["A", "B", "C"],
                         undirected=[("A", "B"), ("B", "C"), ("A", "C")])
        assert triangle.classify() is GraphClass.MPDAG
        # not closed under the orientation rules
        open_r1 = Graph(["A", "B", "C"], directed=[("A", "B")],
                        undirected=[("B", "C")])
        assert open_r1.classify() is GraphClass.PDAG
        cyclic = Graph(["A", "B", "C"],
                       directed=[("A", "B"), ("B", "C"), ("C", "A")])
        assert cyclic.classify() is GraphClass.PDAG
        # closed, but with no consistent extension
        square = Graph(["A", "B", "C", "D"],
                       undirected=[("A", "B"), ("B", "C"),
                                   ("C", "D"), ("D", "A")])
        assert square.classify() is GraphClass.PDAG

    def test_equality_ignores_node_order(self):
        g = Graph(["A", "B", "C"], directed=[("A", "B")],
                  undirected=[("B", "C")])
        h = Graph(["C", "B", "A"], directed=[("A", "B")],
                  undirected=[("C", "B")])
        assert g == h
        assert hash(g) == hash(h)
        assert g != Graph(["A", "B", "C"], directed=[("A", "B")])


class TestTextFormat:
    def test_parse(self):
        g = parse_graph_text("""
        # a comment
        A -> B
        C <- B
        C -- D
        node E
        """)
        assert g.nodes == ("A", "B", "C", "D", "E")
        assert g.has_directed("A", "B")
        assert g.has_directed("B", "C")
        assert g.has_undirected("C", "D")
        assert g.neighbors_of("E") == frozenset()

    def test_round_trip(self):
        g = parse_graph_text("B -> A\nA -- C\nnode D\n")
        assert parse_graph_text(graph_to_text(g)) == g
        # node order survives the round trip too
        assert parse_graph_text(graph_to_text(g)).nodes == g.nodes

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_graph_text("A -> ")
        with pytest.raises(ParseError):
            parse_graph_text("A => B")
        with pytest.raises(GraphError):
            parse_graph_text("A -> B\nB -> A\n")

    def test_json_round_trip(self):
        g = parse_graph_text("A -> B\nB -- C\n")
        text = graph_to_json(g)
        blob = json.loads(text)
        assert blob["nodes"] == ["A", "B", "C"]
        assert {"a": "A", "b": "B", "kind": "->"} in blob["edges"]
        assert parse_graph_json(text) == g


class TestLabels:
    def test_node_named_node_is_an_edge_endpoint(self):
        g = Graph(["node", "B"], [("node", "B")])
        assert parse_graph_text("node -> B") == g
        assert parse_graph_text("B <- node\nnode node\n").nodes == ("B", "node")
        text = graph_to_text(g)
        assert parse_graph_text(text) == g
        assert parse_graph_text(text).nodes == g.nodes

    def test_node_lines_keep_their_errors(self):
        for text in ("node", "node A B", "node A -"):
            with pytest.raises(ParseError, match="expected 'node NAME'"):
                parse_graph_text(text)

    @pytest.mark.parametrize("label", ["", "A B", "A#B", "#", "A\tB",
                                       "A\u00a0B", "A\u2028B"])
    def test_json_rejects_labels_the_text_format_cannot_carry(self, label):
        blob = json.dumps({"nodes": [label, "C"],
                           "edges": [{"a": label, "b": "C", "kind": "->"}]})
        with pytest.raises(ParseError, match="node label") as info:
            parse_graph_json(blob)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("label", ["", "A B", "A#B", "#", "A\tB",
                                       "A\u00a0B", "A\u2028B", 5, None])
    def test_graph_rejects_labels_the_text_format_cannot_carry(self, label):
        # so graph_to_text never writes a label that does not parse back
        with pytest.raises(GraphError, match="node label") as info:
            Graph([label, "C"])
        assert "\n" not in str(info.value)


_UNKNOWN_NODE_CALLS = {
    "parents": lambda g: mpdagid.parents(g, {"A", "Q"}),
    "ancestors": lambda g: mpdagid.ancestors(g, {"Q"}),
    "descendants": lambda g: mpdagid.descendants(g, {"Q"}),
    "possible_descendants": lambda g: mpdagid.possible_descendants(g, {"Q"}),
    "possible_ancestors": lambda g: mpdagid.possible_ancestors(g, {"Q"}),
    "find_proper_pc_path": lambda g: mpdagid.find_proper_pc_path(
        g, {"A"}, {"C"}, forbidden={"Q"}),
    "find_open_path": lambda g: mpdagid.find_open_path(g, {"A"}, {"C"}, {"Q"}),
    "d_separated": lambda g: mpdagid.d_separated(g, {"Q"}, {"C"}),
    "pco": lambda g: mpdagid.pco(g, {"A", "Q"}),
    "bucket_decomposition": lambda g: mpdagid.bucket_decomposition(g, {"Q"}),
    "remove_edges_into": lambda g: g.remove_edges_into({"Q"}),
    "remove_edges_out_of": lambda g: g.remove_edges_out_of({"A", "Q"}),
    "induced_subgraph": lambda g: g.induced_subgraph({"A", "Q"}),
    "cidm": lambda g: mpdagid.cidm(g, {"A"}, {"Q"}),
    "id_formula": lambda g: mpdagid.id_formula(g, {"Q"}, {"C"}),
    "cidme_tree": lambda g: mpdagid.cidme_tree(g, {"A"}, {"C"}, {"Q"}),
    "rule1_holds": lambda g: mpdagid.rule1_holds(g, {"Q"}, {"A"}, {"C"}),
    "rule2_holds": lambda g: mpdagid.rule2_holds(g, (), {"A"}, {"C"}, {"Q"}),
    "rule3_holds": lambda g: mpdagid.rule3_holds(g, (), {"A"}, {"Q"}),
}


@pytest.mark.parametrize("call", _UNKNOWN_NODE_CALLS.values(),
                         ids=_UNKNOWN_NODE_CALLS.keys())
def test_unknown_node_is_named(call):
    # every public function that takes node sets names the unknown label
    g = parse_graph_text("A -> B\nB -- C\n")
    with pytest.raises(GraphError, match="unknown node 'Q'"):
        call(g)


_OVERLAP_CALLS = {
    "rule1_holds": lambda g: mpdagid.rule1_holds(g, {"A"}, {"C"}, {"A"}),
    "rule2_holds": lambda g: mpdagid.rule2_holds(g, (), {"A"}, {"C"}, {"C"}),
    "rule3_holds": lambda g: mpdagid.rule3_holds(g, {"B"}, {"B"}, {"C"}),
    "find_open_path": lambda g: mpdagid.find_open_path(g, {"A"}, {"C"}, {"A"}),
    "d_separated": lambda g: mpdagid.d_separated(g, {"A", "B"}, {"B"}),
    "find_proper_pc_path": lambda g: mpdagid.find_proper_pc_path(
        g, {"A"}, {"A", "C"}),
    "dag_d_separated": lambda g: mpdagid.dag_d_separated(g, {"A"}, {"C"},
                                                         {"C"}),
}


@pytest.mark.parametrize("call", _OVERLAP_CALLS.values(),
                         ids=_OVERLAP_CALLS.keys())
def test_overlapping_sets_are_named_one_way(call):
    g = parse_graph_text("A -> B\nB -> C\n")
    with pytest.raises(ValueError, match="^node sets must be pairwise disjoint$"):
        call(g)


def test_check_disjoint_names_the_least_unknown_label_of_the_query():
    g = parse_graph_text("A -> B\nB -> C\n")
    with pytest.raises(GraphError, match="unknown node 'P'"):
        g.check_disjoint({"S", "A"}, {"R", "P"}, {"A", "Q"})
    assert g.check_disjoint({"A"}, (), ["B", "C"]) == [
        {"A"}, frozenset(), {"B", "C"}]
