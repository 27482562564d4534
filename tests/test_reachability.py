import itertools
import random
import time

import pytest

from mpdagid import (Graph, GraphClass, GraphError, ancestors, descendants,
                     enumerate_dags, find_proper_pc_path, parents,
                     parse_graph_text, possible_ancestors,
                     possible_descendants, random_dag, random_mpdag)
from mpdagid.reachability import _walk_paths, path_search

from cases import (reference_is_possibly_directed_path, shortcut_graph,
                   small_random_graphs)


def test_parents_of_set():
    g = parse_graph_text("A -> C\nB -> C\nC -> D\nB -> D\n")
    assert parents(g, {"C", "D"}) == {"A", "B"}
    assert parents(g, {"A"}) == set()


def test_ancestors_descendants_reflexive():
    g = parse_graph_text("A -> B\nB -> C\nnode D\n")
    assert ancestors(g, {"C"}) == {"A", "B", "C"}
    assert descendants(g, {"A"}) == {"A", "B", "C"}
    assert ancestors(g, {"D"}) == {"D"}


def test_undirected_edges_do_not_carry_ancestry():
    g = parse_graph_text("A -- B\nB -> C\n")
    assert ancestors(g, {"C"}) == {"B", "C"}
    assert possible_ancestors(g, {"C"}) == {"A", "B", "C"}


class TestPossiblyDirected:
    def test_global_pairwise_condition(self):
        # a traversal X -- V2 -- V3 -> Z exists edge by edge, but V3 -> X
        # makes the sequence fail the pairwise condition, so neither V3
        # nor Z is a possible descendant of X
        g = shortcut_graph()
        assert possible_descendants(g, {"X"}) == {"X", "V2"}

    def test_validator(self):
        g = shortcut_graph()
        assert reference_is_possibly_directed_path(g, ("X", "V2"))
        assert not reference_is_possibly_directed_path(g, ("X", "V2", "V3"))
        assert not reference_is_possibly_directed_path(g, ("X", "Z"))
        for path in (["Q"], ["X", "Q"]):
            with pytest.raises(GraphError, match="^unknown node 'Q'$"):
                reference_is_possibly_directed_path(g, path)

    def test_validator_rejects_repeated_node_and_empty_path(self):
        # X -- V2 -- X meets every edge and pairwise condition; only the
        # repeat rules it out
        g = shortcut_graph()
        assert not reference_is_possibly_directed_path(g, ("X", "V2", "X"))
        assert not reference_is_possibly_directed_path(g, ())

    def test_dag_reduces_to_plain_reachability(self):
        rng = random.Random(9)
        for _ in range(50):
            dag = random_dag(rng, [f"N{i}" for i in range(6)], 0.4)
            for v in dag.nodes:
                assert possible_descendants(dag, {v}) == descendants(dag, {v})
                assert possible_ancestors(dag, {v}) == ancestors(dag, {v})

    def test_matches_union_over_class(self):
        rng = random.Random(23)
        for _ in range(80):
            g = random_mpdag(rng, [f"N{i}" for i in range(5)], 0.5)
            dags = enumerate_dags(g)
            for v in g.nodes:
                assert possible_descendants(g, {v}) == \
                    set().union(*[descendants(d, {v}) for d in dags])
                assert possible_ancestors(g, {v}) == \
                    set().union(*[ancestors(d, {v}) for d in dags])


class TestProperPath:
    def test_basic(self):
        g = parse_graph_text("X -- A\nA -> Y\nX -> B\nB -> Y\n")
        assert find_proper_pc_path(g, {"X"}, {"Y"}) == ("X", "A", "Y")

    def test_start_undirected_filter(self):
        g = parse_graph_text("X -> A\nA -> Y\n")
        assert find_proper_pc_path(g, {"X"}, {"Y"}) == ("X", "A", "Y")
        assert find_proper_pc_path(g, {"X"}, {"Y"},
                                   start_undirected=True) is None

    def test_proper_excludes_source_interiors(self):
        # the only possibly causal route from X1 passes through X2
        g = parse_graph_text("X1 -> X2\nX2 -> Y\nnode W\n")
        assert find_proper_pc_path(g, {"X1", "X2"}, {"Y"}) == ("X2", "Y")

    def test_shortest_in_declaration_order(self):
        # ties between equally short paths go to the node declared first
        # (B here), so reruns on the same graph pick the same witness
        g = parse_graph_text("X -- B\nB -> Y\nX -- A\nA -> Y\n")
        assert find_proper_pc_path(g, {"X"}, {"Y"},
                                   start_undirected=True) == ("X", "B", "Y")
        h = parse_graph_text("X -- A\nA -> Y\nX -- B\nB -> Y\n")
        assert find_proper_pc_path(h, {"X"}, {"Y"},
                                   start_undirected=True) == ("X", "A", "Y")

    def test_source_target_overlap_rejected(self):
        g = parse_graph_text("X -> Y\n")
        with pytest.raises(ValueError):
            find_proper_pc_path(g, {"X"}, {"X", "Y"})

    def test_path_is_possibly_directed(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_mpdag(rng, [f"N{i}" for i in range(6)], 0.4)
            vs = list(g.nodes)
            rng.shuffle(vs)
            path = find_proper_pc_path(g, {vs[0]}, {vs[1]})
            if path is not None:
                assert reference_is_possibly_directed_path(g, path)
                assert path[0] == vs[0] and path[-1] == vs[1]


# -- the search primitive in its two modes ------------------------------------


class TestPathSearch:
    def test_only_route_repeats_a_node(self):
        # the walk X, A, C, R, A, S, Y of test_open_walk_with_no_open_path:
        # each step depends on the one before, and A is entered twice
        rule = {(None, "X"): ["A"], ("X", "A"): ["C"], ("A", "C"): ["R"],
                ("C", "R"): ["A"], ("R", "A"): ["S"], ("A", "S"): ["Y"]}

        def expand(path):
            return rule.get((path[-2] if len(path) > 1 else None, path[-1]),
                            [])

        walk = ("X", "A", "C", "R", "A", "S", "Y")
        assert path_search(("X",), expand, frozenset("Y")) == (
            frozenset("XACRS"), walk)
        assert path_search(("X",), expand, frozenset("Y"), simple=True) == (
            frozenset("XACR"), None)

    def test_modes_agree_when_the_rule_reads_the_last_node(
            self, four_node_graphs):
        # under such a rule the shortest walk is a path, so the edge-state
        # mode finds what the simple mode finds
        for g in four_node_graphs:
            rules = (lambda p: g.sorted_nodes(g.children_of(p[-1])),
                     lambda p: g.sorted_nodes(g.neighbors_of(p[-1])))
            for expand in rules:
                for v in g.nodes:
                    for targets in [()] + [(t,) for t in g.nodes if t != v]:
                        tgt = frozenset(targets)
                        walk = path_search((v,), expand, tgt)
                        path = path_search((v,), expand, tgt, simple=True)
                        assert walk[1] == path[1], (g, v, tgt)
                        if not tgt:
                            assert walk[0] == path[0], (g, v)


# -- the state search against exhaustive references ----------------------------


def walk(g, sources, targets=(), *, backward=False, start_undirected=False):
    """The reference walker, called the way the public functions call a
    search: (reached nodes, first path into ``targets``)."""
    src = frozenset(sources)
    return _walk_paths(g, src, backward, frozenset(targets),
                       start_undirected)


def brute_force_paths(g):
    """Every possibly directed path of ``g``, by length, then node index."""
    return [p for k in range(1, len(g.nodes) + 1)
            for p in itertools.permutations(g.nodes, k)
            if reference_is_possibly_directed_path(g, p)]


class TestEquivalence:
    def test_every_four_node_graph(self, four_node_graphs):
        # all 4^6 graphs: the state search answers DAGs and MPDAGs, the
        # reference walker PDAGs; both must give the brute-force answers
        seen = dict.fromkeys(GraphClass, 0)
        for g in four_node_graphs:
            seen[g.classify()] += 1
            paths = brute_force_paths(g)
            for v in g.nodes:
                pd = {p[-1] for p in paths if p[0] == v}
                pa = {p[0] for p in paths if p[-1] == v}
                assert walk(g, {v}) == (pd, None), (g, v)
                assert walk(g, {v}, backward=True) == (pa, None), (g, v)
                if not g.undirected_edges:
                    # today's answer: plain closure, even on cyclic inputs
                    pd, pa = descendants(g, {v}), ancestors(g, {v})
                assert possible_descendants(g, {v}) == pd, (g, v)
                assert possible_ancestors(g, {v}) == pa, (g, v)
            for s, t in itertools.permutations(g.nodes, 2):
                for start_undirected in (False, True):
                    want = next((p for p in paths if p[0] == s and p[-1] == t
                                 and (not start_undirected
                                      or g.has_undirected(p[0], p[1]))), None)
                    got = find_proper_pc_path(
                        g, {s}, {t}, start_undirected=start_undirected)
                    assert got == want, (g, s, t, start_undirected)
        assert seen == {GraphClass.DAG: 543, GraphClass.MPDAG: 1058,
                        GraphClass.PDAG: 2495}

    def test_random_mpdags_and_induced_subgraphs(self):
        # induced subgraphs are what rule3_holds searches (G minus X)
        rng = random.Random(47)
        checked = 0
        for _ in range(150):
            nodes = [f"V{i}" for i in range(rng.randint(5, 9))]
            g = random_mpdag(rng, nodes, rng.choice([0.3, 0.5, 0.7]))
            sub = g.induced_subgraph(rng.sample(nodes, len(nodes) - 2))
            for h in (g, sub):
                assert h.classify() is not GraphClass.PDAG
                vs = list(h.nodes)
                for _ in range(3):
                    src = set(rng.sample(vs, rng.randint(1, 2)))
                    rest = [v for v in vs if v not in src]
                    tgt = set(rng.sample(rest, min(len(rest),
                                                   rng.randint(1, 2))))
                    assert possible_descendants(h, src) == walk(h, src)[0]
                    assert possible_ancestors(h, src) == \
                        walk(h, src, backward=True)[0]
                    for start_undirected in (False, True):
                        got = find_proper_pc_path(
                            h, src, tgt, start_undirected=start_undirected)
                        assert got == walk(h, src, tgt, start_undirected=
                                           start_undirected)[1], (h, src, tgt)
                    checked += 1
        assert checked == 900

    def test_reference_walker_matches_class_union(self, battery):
        # the brute-force oracle judges the reference walker on MPDAGs
        for g, dags in battery:
            for v in g.nodes:
                assert walk(g, {v})[0] == \
                    set().union(*[descendants(d, {v}) for d in dags])
                assert walk(g, {v}, backward=True)[0] == \
                    set().union(*[ancestors(d, {v}) for d in dags])

    def test_directed_chord_from_undirected_start(self):
        # N1 -- N3 -> N2 is shielded by N1 -> N2, but the shortcut over that
        # chord starts with a directed edge, so the shielded path is the
        # answer when the first edge must be undirected
        g = parse_graph_text("N1 -> N2\nN3 -> N2\nN1 -- N3\n")
        assert g.classify() is GraphClass.MPDAG
        assert find_proper_pc_path(g, {"N1"}, {"N2"},
                                   start_undirected=True) == ("N1", "N3", "N2")
        assert find_proper_pc_path(g, {"N1"}, {"N2"}) == ("N1", "N2")


def test_long_ladder_is_fast():
    # a chordal strip of triangles, i -- i+1 and i -- i+2: exponentially many
    # simple paths, which a walk over paths (or Python recursion) cannot finish
    nodes = [f"L{i}" for i in range(200)]
    g = Graph(nodes, (), [(nodes[i], nodes[j]) for i in range(200)
                          for j in (i + 1, i + 2) if j < 200])
    assert g.classify() is GraphClass.MPDAG
    start = time.perf_counter()
    assert possible_descendants(g, {"L0"}) == set(nodes)
    assert possible_ancestors(g, {"L199"}) == set(nodes)
    path = find_proper_pc_path(g, {"L0"}, {"L199"}, start_undirected=True)
    assert path is not None and len(path) == 101
    assert reference_is_possibly_directed_path(g, path)
    assert time.perf_counter() - start < 2.0


def test_bucket_reaches_z_iff_it_meets_possible_ancestors(battery):
    # id_formula asks PossAn(Z) once instead of PossDe(bucket) per bucket:
    # for disjoint B and Z, Z meets PossDe(B) exactly when B meets PossAn(Z)
    graphs = [g for g, _ in battery]
    rng = random.Random(23)
    for g in small_random_graphs(seed=31, count=200):
        if g.classify() is not GraphClass.PDAG:
            graphs.append(g)
    checked = reaching = 0
    for g in graphs:
        subsets = [frozenset(c) for r in range(len(g.nodes) + 1)
                   for c in itertools.combinations(g.nodes, r)]
        if len(subsets) > 16:
            subsets = rng.sample(subsets, 16)
        pde = {s: possible_descendants(g, s) for s in subsets}
        pan = {s: possible_ancestors(g, s) for s in subsets}
        for b in subsets:
            for z in subsets:
                if b & z:
                    continue
                reaches = bool(z & pde[b])
                assert reaches == (not pan[z].isdisjoint(b)), (g, b, z)
                checked += 1
                reaching += reaches
    assert 0 < reaching < checked and checked > 10000
