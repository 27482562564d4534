import itertools
import random

import pytest

from mpdagid import (Graph, GraphClass, InconsistentOrientation,
                     apply_background, consistent_extension, enumerate_dags,
                     has_consistent_extension, is_meek_closed, meek_closure,
                     parse_graph_text, pattern_of, random_dag, refine)


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
            assert result.classify() is fresh.classify(), result
            closed += 1
        assert closed > 0


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

    def test_apply_background_agreeing_orientation_is_noop(self):
        g = meek_closure(parse_graph_text("A -> B\nnode C\n"))
        assert apply_background(g, [("A", "B")]) == g


class TestExtension:
    def test_extension_of_triangle(self):
        g = parse_graph_text("A -- B\nB -- C\nA -- C\n")
        d = consistent_extension(g)
        assert d is not None
        assert d.classify() is GraphClass.DAG
        assert d in set(enumerate_dags(g))

    def test_extension_none_for_square(self):
        square = parse_graph_text("A -- B\nB -- C\nC -- D\nD -- A\n")
        assert consistent_extension(square) is None
        assert enumerate_dags(square) == []

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
            dags = enumerate_dags(g)
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
            members = enumerate_dags(cp)
            assert dag in set(members)
            for member in members:
                assert pattern_of(member) == cp

    def test_refine_shrinks_class(self):
        g = parse_graph_text("A -- B\nB -- C\nA -- C\n")
        h = refine(g, "A", "B")
        assert h.has_directed("A", "B")
        before = set(enumerate_dags(g))
        after = set(enumerate_dags(h))
        assert after < before
        assert all(d.has_directed("A", "B") for d in after)
