import inspect
import json
import random

import pytest

import mpdagid
from mpdagid import (Graph, GraphClass, GraphError, InconsistentOrientation,
                     ParseError, apply_background, consistent_extension,
                     graph_to_text, meek_closure, parse_graph_json,
                     parse_graph_text, refine)
from mpdagid.graph import _dumps

from cases import reference_parse_graph_text, small_random_graphs


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
        assert g.has_directed("A", "B") and not g.has_directed("B", "A")
        assert g.has_undirected("D", "B") and not g.has_undirected("A", "B")
        assert g.adjacent("B", "A") and not g.adjacent("A", "D")
        assert g.directed_edges == (("A", "B"), ("C", "B"))
        assert g.undirected_edges == (("B", "D"),)

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

    def test_sorted_nodes_rejects_unknown_label(self):
        g = Graph(["C", "A", "B"])
        with pytest.raises(GraphError, match="^unknown node 'Q'$"):
            g.sorted_nodes(["A", "Q"])


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


def _derived_graphs(g, cut_at):
    """Every kind of derived graph of ``g``: each undirected edge oriented
    both ways, directed edges cut at each node of ``cut_at``, each of them
    dropped, the same for two sets of nodes, and, when the closure
    exists, the closure, its consistent extension, and its refinements
    and one-pair background on its first undirected edge."""
    out = [g.orient(x, y) for a, b in g.undirected_edges
           for x, y in ((a, b), (b, a))]
    for v in cut_at:
        out += [g.remove_edges_into({v}), g.remove_edges_out_of({v}),
                g.induced_subgraph(set(g.nodes) - {v})]
    out += [g.remove_edges_into(g.nodes[::2]),
            g.remove_edges_out_of(g.nodes[1::2]),
            g.induced_subgraph(g.nodes[::2])]
    try:
        closed = meek_closure(g)
    except InconsistentOrientation:
        return out
    out += [closed, consistent_extension(closed)]
    for a, b in closed.undirected_edges[:1]:
        out.append(apply_background(closed, [(a, b)]))
        for x, y in ((a, b), (b, a)):
            try:
                out.append(refine(closed, x, y))
            except InconsistentOrientation:
                pass
    return out


def _assert_derived_graphs_match_rebuilt(graphs, cut_every=1):
    count = 0
    for g in graphs:
        g = Graph(g.nodes, g.directed_edges, g.undirected_edges)
        for d in _derived_graphs(g, g.nodes[::cut_every]):
            fresh = Graph(d.nodes, d.directed_edges, d.undirected_edges)
            assert repr(d) == repr(fresh)
            assert d == fresh and fresh == d
            assert hash(d) == hash(fresh)
            assert (d._pa, d._ch, d._nb) == (fresh._pa, fresh._ch, fresh._nb)
            assert d._index == fresh._index
            assert d.classify() is fresh.classify(), d
            count += 1
    return count


class TestDerivation:
    # derived graphs share their parent's sets and skip __init__; they must
    # be the graphs that Graph(...) builds from their edges

    def test_derived_graphs_of_every_four_node_graph(
            self, four_node_graphs):
        # every labelling of each graph is in the battery, so cutting at
        # the first node stands for cutting at any one node
        assert _assert_derived_graphs_match_rebuilt(four_node_graphs, 4) > 0

    def test_derived_graphs_of_small_random_graphs(self):
        graphs = small_random_graphs(seed=31, count=60)
        assert _assert_derived_graphs_match_rebuilt(graphs) > 0

    def test_derived_graph_shares_unchanged_sets(self):
        g = Graph(["A", "B", "C", "D"], directed=[("A", "B")],
                  undirected=[("B", "C"), ("C", "D")])
        h = g.orient("B", "C")
        assert h._nodes is g._nodes and h._index is g._index
        assert h._pa["A"] is g._pa["A"] and h._nb["D"] is g._nb["D"]
        assert g.remove_edges_into({"C"}) is g  # nothing to cut


def _assert_edge_order(graphs, rng):
    """Rebuild each graph from its edges, with its nodes declared in a
    shuffled order, its edges listed in a shuffled order and each
    undirected pair flipped at random, and compare the edge tuples and
    ``repr`` with the input pairs sorted by (index, index), undirected ones
    first normalised so the earlier node leads; ``repr`` sorts by label."""
    for g in graphs:
        nodes = rng.sample(g.nodes, len(g.nodes))
        directed = rng.sample(g.directed_edges, len(g.directed_edges))
        undirected = [e if rng.random() < 0.5 else e[::-1] for e in
                      rng.sample(g.undirected_edges, len(g.undirected_edges))]
        h = Graph(nodes, directed, undirected)
        index = {v: i for i, v in enumerate(nodes)}

        def key(e):
            return index[e[0]], index[e[1]]

        normal = [tuple(sorted(e, key=index.__getitem__)) for e in undirected]
        assert h.directed_edges == tuple(sorted(directed, key=key))
        assert h.undirected_edges == tuple(sorted(normal, key=key))
        assert repr(h) == (f"Graph(nodes={tuple(nodes)!r}, "
                           f"directed={sorted(directed)!r}, "
                           f"undirected={sorted(normal)!r})")


def test_edge_order_of_every_four_node_graph(four_node_graphs):
    _assert_edge_order(four_node_graphs, random.Random(3))


def test_edge_order_of_small_random_graphs():
    _assert_edge_order(small_random_graphs(seed=37, count=60),
                       random.Random(4))


class TestStructure:
    def test_acyclic(self):
        good = Graph(["A", "B", "C"], directed=[("A", "B"), ("B", "C")])
        bad = Graph(["A", "B", "C"],
                    directed=[("A", "B"), ("B", "C"), ("C", "A")])
        assert good.directed_part_acyclic()
        assert not bad.directed_part_acyclic()
        # a node of two parents is popped once both are; undirected edges
        # are not part of the directed cycle test
        assert Graph(["A", "B", "C", "D"],
                     directed=[("A", "B"), ("A", "C"), ("B", "C")],
                     undirected=[("C", "D"), ("D", "A")]
                     ).directed_part_acyclic()
        assert not Graph(["A", "B", "C", "D"],
                         directed=[("A", "B"), ("B", "C"), ("C", "A")],
                         undirected=[("D", "A")]).directed_part_acyclic()

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

    def test_never_equals_a_non_graph(self):
        g = Graph(["A", "B"], directed=[("A", "B")])
        assert g.__eq__(1) is NotImplemented
        assert (g == 1) is False and g != 1


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
        text = _dumps(g)
        blob = json.loads(text)
        assert blob["nodes"] == ["A", "B", "C"]
        assert {"a": "A", "b": "B", "kind": "->"} in blob["edges"]
        assert parse_graph_json(text) == g

    def test_json_too_deeply_nested(self):
        # json.loads raises RecursionError here, not JSONDecodeError
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_graph_json('{"nodes": ' + "[" * 100_000 + "]" * 100_000
                             + "}")


def _parse_outcome(parse, text):
    """The nodes and edges ``parse`` reads from ``text``, or the error's
    class and message."""
    try:
        g = parse(text)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return g.nodes, g.directed_edges, g.undirected_edges


class TestParserMatchesReference:
    @pytest.mark.parametrize("text", [
        "A -> B\r\nB -- C\r\n",
        "A\t->\tB\n\tC <-\tB\t\n",
        "A -> B#c\n",
        "A -> B #\nB -- C#\n#",
        "\n\n   \n# only a comment\n  # indented comment\nA -- B\n",
        "A -> B\x1cB -- C\x1dnode D",
        "A -> B\u2028C -- D\u2029E <- D",
        "A\u00a0->\u00a0B\x0bC -- B\x0c",
        "node -> B\nnode node\nB <- node2",
        "node\n", "node A B\n", "  node A  # c\nnode B#\n",
        "A B\n", "A -> B C\n", "A -> B\nA -> B -> C\n", "A => B\n",
        "A -> A\n", "A -- A\n",
        "A -> B\nB -- A\n", "A -> B\nA -> B\n", "A -> B\nB -> A\n",
        "\ufeffA -> B\n", "", "#", "\n", "A -> #B\n",
    ])
    def test_tricky_texts(self, text):
        assert (_parse_outcome(parse_graph_text, text)
                == _parse_outcome(reference_parse_graph_text, text))

    def test_random_line_soups(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        token = st.sampled_from(["A", "B", "C", "node", "->", "--", "<-",
                                 "=>", "#", "B#c", "#A", "\ufeff"])
        gap = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u3000"])
        line = st.lists(st.tuples(gap, token), max_size=5).map(
            lambda parts: "".join(g + t for g, t in parts))
        brk = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\u2028",
                               "\x0b", "\x85"])
        soup = st.lists(st.tuples(line, gap, brk), max_size=8).map(
            lambda lines: "".join(a + b + c for a, b, c in lines))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(soup)
        def check(text):
            assert (_parse_outcome(parse_graph_text, text)
                    == _parse_outcome(reference_parse_graph_text, text))

        check()


@pytest.mark.parametrize("directed, undirected, message", [
    ([("A", "Z"), ("B", "B")], [], "edge (A, Z) uses undeclared node"),
    ([("Z", "Z"), ("B", "B")], [], "edge (Z, Z) uses undeclared node"),
    ([("B", "B"), ("A", "Z")], [], "self loop on 'B'"),
    ([("A", "B"), ("B", "A"), ("C", "C")], [],
     "more than one edge between 'B' and 'A'"),
    ([("C", "C")], [("A", "B"), ("B", "A")], "self loop on 'C'"),
    ([("A", "B")], [("B", "A"), ("Q", "A")],
     "more than one edge between 'B' and 'A'"),
    ([], [("A", "B"), ("Q", "A"), ("B", "A")],
     "edge (Q, A) uses undeclared node"),
])
def test_first_bad_edge_names_the_error(directed, undirected, message):
    # every directed edge is checked before the undirected ones, each in
    # the order given, and an edge for its labels before its ends
    with pytest.raises(GraphError) as info:
        Graph(["A", "B", "C"], directed, undirected)
    assert str(info.value) == message


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


def test_public_names():
    # __all__ lists each public name once and every one resolves, so
    # ``from mpdagid import *`` works; and every name the package imports
    # into its namespace is listed
    assert len(set(mpdagid.__all__)) == len(mpdagid.__all__)
    for name in mpdagid.__all__:
        assert hasattr(mpdagid, name), name
    namespace = {}
    exec("from mpdagid import *", namespace)
    assert set(mpdagid.__all__) <= namespace.keys()
    imported = {name for name, value in vars(mpdagid).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert imported == set(mpdagid.__all__) - {"__version__"}


_UNKNOWN_NODE_CALLS = {
    "parents": lambda g: mpdagid.parents(g, {"A", "Q"}),
    "ancestors": lambda g: mpdagid.ancestors(g, {"Q"}),
    "descendants": lambda g: mpdagid.descendants(g, {"Q"}),
    "possible_descendants": lambda g: mpdagid.possible_descendants(g, {"Q"}),
    "possible_ancestors": lambda g: mpdagid.possible_ancestors(g, {"Q"}),
    "find_proper_pc_path": lambda g: mpdagid.find_proper_pc_path(
        g, {"A"}, {"C", "Q"}),
    "find_open_path": lambda g: mpdagid.find_open_path(g, {"A"}, {"C"}, {"Q"}),
    "d_separated": lambda g: mpdagid.d_separated(g, {"Q"}, {"C"}),
    "pco": lambda g: mpdagid.pco(g, {"A", "Q"}),
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
