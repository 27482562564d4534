import itertools
import random

import pytest

from mpdagid import (Graph, GraphClass, GraphError, InconsistentOrientation,
                     apply_background, consistent_extension,
                     has_consistent_extension, is_meek_closed, meek_closure,
                     parse_graph_text, pattern_of, random_dag, refine)

from cases import (_ref_rule_applications, background_graphs,
                   reference_apply_background, reference_classify,
                   reference_consistent_extension, reference_enumerate_dags,
                   reference_refine, small_random_graphs)


def closure(text):
    return meek_closure(parse_graph_text(text))


class TestRules:
    def test_rule_one(self):
        g = closure("A -> B\nB -- C\n")
        assert g.has_directed("B", "C")

    def test_rule_one_blocked_by_shield(self):
        # A -- C shields the triple, so B -- C stays undirected
        g = closure("A -> B\nB -- C\nA -- C\n")
        assert g.has_undirected("B", "C")
        assert is_meek_closed(g)

    def test_rule_two(self):
        g = closure("A -> B\nB -> C\nA -- C\n")
        assert g.has_directed("A", "C")

    def test_rule_three(self):
        g = closure("A -- B\nA -- C\nA -- D\nC -> B\nD -> B\n")
        assert g.has_directed("A", "B")
        assert g.has_undirected("A", "C")
        assert g.has_undirected("A", "D")

    def test_rule_four(self):
        g = closure("A -- B\nA -- D\nD -> C\nC -> B\nC -> A\n")
        assert g.has_directed("A", "B")
        assert g.has_directed("D", "A")

    def test_closure_idempotent(self):
        g = closure("A -> B\nB -- C\nC -- D\n")
        assert meek_closure(g) == g
        assert is_meek_closed(g)

    def test_closure_records_the_class_classify_gives(self, four_node_graphs):
        closed = 0
        for g in four_node_graphs:
            # a fresh copy, so no class is already kept on the input
            g = Graph(g.nodes, g.directed_edges, g.undirected_edges)
            try:
                result = meek_closure(g)
            except InconsistentOrientation:
                continue
            fresh = Graph(result.nodes, result.directed_edges,
                          result.undirected_edges)
            assert result.classify() is reference_classify(fresh), result
            closed += 1
        assert closed > 0

    def test_classify_matches_reference(self, four_node_graphs):
        # classify decides the class through the closure; the reference
        # decides it from the rules and the sink scan alone
        graphs = four_node_graphs + small_random_graphs(seed=19, count=300)
        seen = set()
        for g in graphs:
            fresh = Graph(g.nodes, g.directed_edges, g.undirected_edges)
            expected = reference_classify(fresh)
            assert fresh.classify() is expected, g
            seen.add(expected)
        assert seen == set(GraphClass)


class TestFailures:
    def test_directed_cycle(self):
        with pytest.raises(InconsistentOrientation):
            closure("A -> B\nB -> C\nC -> A\n")

    def test_new_collider_forbidden(self):
        # rule 1 would orient B -> C, colliding with D -> C unshielded
        with pytest.raises(InconsistentOrientation):
            closure("A -> B\nB -- C\nD -> C\n")

    def test_no_consistent_extension(self):
        square = parse_graph_text("A -- B\nB -- C\nC -- D\nD -- A\n")
        # every rule's premise is unsatisfied, yet no DAG extends the square
        with pytest.raises(InconsistentOrientation):
            meek_closure(square)
        assert not has_consistent_extension(square)

    def test_apply_background_conflict(self):
        g = parse_graph_text("A -> B\nB -- C\n")
        with pytest.raises(InconsistentOrientation):
            apply_background(g, [("B", "A")])

    def test_apply_background_contradictory_pairs(self):
        # B -> A meets the edge the first pair oriented, not a missing one
        g = parse_graph_text("A -- B\nB -- C\n")
        with pytest.raises(InconsistentOrientation, match="^edge between 'B' "
                           "and 'A' already oriented the other way$"):
            apply_background(g, [("A", "B"), ("B", "A")])

    def test_unknown_label_is_named(self):
        # the least unknown label, as every other query names it, not a
        # missing undirected edge
        g = parse_graph_text("A -- B\nB -- C\n")
        for call in (lambda: apply_background(g, [("A", "B"), ("R", "Q")]),
                     lambda: g.orient("R", "Q"),
                     lambda: g.orient("A", "Q"),
                     lambda: refine(g, "R", "Q")):
            with pytest.raises(GraphError, match="^unknown node 'Q'$"):
                call()

    def test_apply_background_agreeing_orientation_is_noop(self):
        g = meek_closure(parse_graph_text("A -> B\nnode C\n"))
        assert apply_background(g, [("A", "B")]) == g


class TestExtension:
    def test_extension_of_triangle(self):
        g = parse_graph_text("A -- B\nB -- C\nA -- C\n")
        d = consistent_extension(g)
        assert d is not None
        assert d.classify() is GraphClass.DAG
        assert d in set(reference_enumerate_dags(g))

    def test_extension_none_for_square(self):
        square = parse_graph_text("A -- B\nB -- C\nC -- D\nD -- A\n")
        assert consistent_extension(square) is None
        assert reference_enumerate_dags(square) == []

    def test_extension_matches_brute_force_exhaustively(self):
        # all PDAGs on 3 nodes with an acyclic directed part
        names = ["A", "B", "C"]
        pairs = list(itertools.combinations(names, 2))
        for states in itertools.product(range(4), repeat=3):
            directed, undirected = [], []
            for (a, b), s in zip(pairs, states):
                if s == 1:
                    directed.append((a, b))
                elif s == 2:
                    directed.append((b, a))
                elif s == 3:
                    undirected.append((a, b))
            g = Graph(names, directed, undirected)
            if not g.directed_part_acyclic():
                continue
            ext = consistent_extension(g)
            dags = reference_enumerate_dags(g)
            if ext is None:
                assert dags == []
            else:
                assert ext in set(dags)

    def test_extension_random(self):
        rng = random.Random(41)
        for _ in range(100):
            dag = random_dag(rng, [f"N{i}" for i in range(6)], 0.4)
            cp = pattern_of(dag)
            ext = consistent_extension(cp)
            assert ext is not None
            assert pattern_of(ext) == cp


class TestPattern:
    def test_pattern_keeps_collider_only(self):
        dag = parse_graph_text("A -> B\nC -> B\nC -> D\n")
        cp = pattern_of(dag)
        assert cp.has_directed("A", "B")
        assert cp.has_directed("C", "B")
        assert cp.has_undirected("C", "D")

    def test_pattern_is_class_invariant(self):
        rng = random.Random(13)
        for _ in range(60):
            dag = random_dag(rng, [f"N{i}" for i in range(5)], 0.45)
            cp = pattern_of(dag)
            members = reference_enumerate_dags(cp)
            assert dag in set(members)
            for member in members:
                assert pattern_of(member) == cp

    @pytest.mark.parametrize("text", ["A -- B\n",
                                      "A -> B\nB -> C\nC -> A\n"])
    def test_pattern_rejects_non_dags(self, text):
        # an undirected edge or a directed cycle was dropped or flattened
        with pytest.raises(GraphError, match="^a pattern needs a DAG$"):
            pattern_of(parse_graph_text(text))

    def test_refine_shrinks_class(self):
        g = parse_graph_text("A -- B\nB -- C\nA -- C\n")
        h = refine(g, "A", "B")
        assert h.has_directed("A", "B")
        before = set(reference_enumerate_dags(g))
        after = set(reference_enumerate_dags(h))
        assert after < before
        assert all(d.has_directed("A", "B") for d in after)


# -- reference: the sweep closure and the sink scan ---------------------------
#
# The closure as first written, on the reference rules and sink scan of
# cases.py: every sweep tries R1-R4 on every undirected edge of an immutable
# graph and orients through Graph.orient.  The fast versions in mpdagid.meek
# must give the same graphs and the same errors.


def reference_meek_closure(graph):
    if not graph.directed_part_acyclic():
        raise InconsistentOrientation("directed part contains a cycle")
    g = graph
    while True:
        apps = _ref_rule_applications(g)
        if not apps:
            break
        for a, b in apps:
            if g.has_undirected(a, b):
                g = g.orient(a, b)
    if not g.directed_part_acyclic():
        raise InconsistentOrientation("closure created a directed cycle")
    if not g.unshielded_colliders() <= graph.unshielded_colliders():
        raise InconsistentOrientation("closure created a new unshielded collider")
    if g.undirected_edges and reference_consistent_extension(g) is None:
        raise InconsistentOrientation("no consistent extension exists")
    return g


def _closure_outcome(closure, graph):
    """What a closure gives on a fresh copy of ``graph``: the repr of the
    result, the class it recorded and whether it is the input itself, or
    the exception's class and text."""
    fresh = Graph(graph.nodes, graph.directed_edges, graph.undirected_edges)
    try:
        result = closure(fresh)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return repr(result), result.classify(), result is fresh


def _assert_kernels_match_reference(graphs):
    raised = 0
    for g in graphs:
        expected = _closure_outcome(reference_meek_closure, g)
        assert _closure_outcome(meek_closure, g) == expected, g
        raised += len(expected) == 2
        extension = reference_consistent_extension(g)
        assert repr(consistent_extension(g)) == repr(extension), g
        assert has_consistent_extension(g) == (extension is not None), g
        assert is_meek_closed(g) == (not _ref_rule_applications(g)), g
    return raised


def test_kernels_match_reference_on_every_four_node_graph(four_node_graphs):
    raised = _assert_kernels_match_reference(four_node_graphs)
    assert 0 < raised < len(four_node_graphs)


def test_kernels_match_reference_on_random_background_knowledge():
    graphs = background_graphs(seed=5, count=200)
    raised = _assert_kernels_match_reference(graphs)
    assert 0 < raised < len(graphs)
    # refine, as the per-class split calls it, on the closed graphs
    for g in graphs:
        try:
            closed = meek_closure(g)
        except InconsistentOrientation:
            continue
        for a, b in closed.undirected_edges[:3]:
            for x, y in ((a, b), (b, a)):
                assert (_closure_outcome(lambda h: refine(h, x, y), closed)
                        == _closure_outcome(
                            lambda h: reference_meek_closure(h.orient(x, y)),
                            closed))


@pytest.mark.parametrize("graph", [
    Graph([f"v{i}" for i in range(7)],
          [("v0", "v3"), ("v3", "v2"), ("v5", "v1")],
          [("v0", "v6"), ("v1", "v4"), ("v1", "v6"), ("v2", "v4"),
           ("v3", "v5"), ("v3", "v6"), ("v4", "v5"), ("v5", "v6")]),
    Graph([f"v{i}" for i in range(7)],
          [("v1", "v6"), ("v4", "v0")],
          [("v0", "v3"), ("v0", "v5"), ("v1", "v5"), ("v3", "v4"),
           ("v3", "v6"), ("v4", "v5"), ("v4", "v6"), ("v5", "v6")]),
])
def test_rounds_retry_edges_next_to_a_new_edge(graph):
    # R4 for x -> y reads the children of x's undirected neighbours, so an
    # edge oriented between two neighbours of x, away from x and y, can
    # license x -> y.  A closure that retried only the edges at the new
    # edge's endpoints reports a directed cycle here, and the sweep a new
    # unshielded collider.
    assert (_closure_outcome(meek_closure, graph)
            == _closure_outcome(reference_meek_closure, graph)
            == ("InconsistentOrientation",
                "closure created a new unshielded collider"))


def _outcome(call, *args):
    """The repr and recorded class of ``call(*args)``, or the exception's
    class and text."""
    try:
        result = call(*args)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return repr(result), result._class


def _assert_refine_matches_reference(graphs):
    """Every undirected edge of every graph oriented both ways, on a fresh
    copy (no class recorded: the first round tries every edge) and on a
    classified one (an MPDAG first tries the edges next to the new one)."""
    outcomes = []
    for g in graphs:
        fresh = Graph(g.nodes, g.directed_edges, g.undirected_edges)
        classified = Graph(g.nodes, g.directed_edges, g.undirected_edges)
        classified.classify()
        for a, b in g.undirected_edges:
            for x, y in ((a, b), (b, a)):
                for start in (fresh, classified):
                    expected = _outcome(reference_refine, start, x, y)
                    assert _outcome(refine, start, x, y) == expected, \
                        (g, x, y, start._class)
                    outcomes.append((start._class, isinstance(expected[1], str)))
    return outcomes


def test_refine_matches_reference_on_every_four_node_graph(four_node_graphs):
    outcomes = _assert_refine_matches_reference(four_node_graphs)
    # both first rounds ran, and both kinds of outcome occurred
    assert {(GraphClass.MPDAG, False), (None, False), (None, True),
            (GraphClass.PDAG, True)} <= set(outcomes)


def test_refine_matches_reference_on_small_random_graphs():
    outcomes = _assert_refine_matches_reference(
        small_random_graphs(seed=23, count=120))
    assert {(GraphClass.MPDAG, False), (None, True)} <= set(outcomes)


def _background_pair_lists(g):
    """Pair lists for ``apply_background`` on ``g``: each undirected edge
    both ways, all of them at once, an already directed and a reversed
    directed edge, a duplicate, a contradictory and a non-adjacent pair,
    and a non-adjacent pair before and after a reversed one, to fix which
    error comes first."""
    und, dirs = g.undirected_edges, g.directed_edges
    apart = [(a, b) for a, b in itertools.combinations(g.nodes, 2)
             if not g.adjacent(a, b)]
    lists = [[], list(und)] + [[e] for a, b in und for e in ((a, b), (b, a))]
    if dirs:
        (a, b), = dirs[:1]
        lists += [[(a, b)], [(b, a)]]
    if und:
        (a, b), = und[:1]
        lists += [[(a, b), (a, b)], [(a, b), (b, a)]]
    if apart:
        lists.append(apart[:1])
    if apart and dirs:
        lists += [apart[:1] + [dirs[0][::-1]], [dirs[0][::-1]] + apart[:1]]
    return lists


def test_apply_background_matches_reference_on_every_four_node_graph(
        four_node_graphs):
    kinds = set()
    for g in four_node_graphs:
        # classified first, so neither side records a class on g: the
        # input's class matters only when no pair changes it, and then
        # both run the closure of g, which the kernel tests check fresh
        g.classify()
        for pairs in _background_pair_lists(g):
            expected = _outcome(reference_apply_background, g, pairs)
            assert _outcome(apply_background, g, pairs) == expected, \
                (g, pairs)
            kinds.add(expected[0] if isinstance(expected[1], str)
                      else expected[1])
    # both classes of result, and both kinds of error, occurred
    assert kinds == {GraphClass.DAG, GraphClass.MPDAG, "GraphError",
                     "InconsistentOrientation"}
