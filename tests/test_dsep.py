import itertools
import random
import time

import pytest

from mpdagid import (GraphError, NotIdentifiable, cidm, d_separated,
                     find_open_path, graph_to_text, parse_graph_text,
                     random_dag, reachability)
from mpdagid.cli import main

from cases import (diamond_chain, open_walk_behind_diamonds,
                   reference_dag_d_separated,
                   reference_open_definite_status_path,
                   reference_triple_status)


class TestTripleStatus:
    def test_collider(self):
        g = parse_graph_text("A -> B\nC -> B\n")
        assert reference_triple_status(g, "A", "B", "C") == "collider"

    def test_noncollider_by_outgoing_edge(self):
        g = parse_graph_text("A -> B\nB -> C\n")
        assert reference_triple_status(g, "A", "B", "C") == "noncollider"
        g2 = parse_graph_text("B -> A\nB -- C\n")
        assert reference_triple_status(g2, "A", "B", "C") == "noncollider"

    def test_noncollider_by_unshielded_undirected(self):
        g = parse_graph_text("A -- B\nB -- C\n")
        assert reference_triple_status(g, "A", "B", "C") == "noncollider"

    def test_no_definite_status(self):
        # undirected on one side, arrowhead on the other
        g = parse_graph_text("A -- B\nC -> B\n")
        assert reference_triple_status(g, "A", "B", "C") is None
        # both undirected but shielded
        g2 = parse_graph_text("A -- B\nB -- C\nA -- C\n")
        assert reference_triple_status(g2, "A", "B", "C") is None


class TestDsepDag:
    def test_chain_and_fork(self):
        chain = parse_graph_text("A -> B\nB -> C\n")
        assert not d_separated(chain, {"A"}, {"C"})
        assert d_separated(chain, {"A"}, {"C"}, {"B"})
        fork = parse_graph_text("B -> A\nB -> C\n")
        assert d_separated(fork, {"A"}, {"C"}, {"B"})

    def test_collider_blocks_until_conditioned(self):
        g = parse_graph_text("A -> B\nC -> B\nB -> D\n")
        assert d_separated(g, {"A"}, {"C"})
        assert not d_separated(g, {"A"}, {"C"}, {"B"})
        # conditioning on a descendant of the collider also opens it
        assert not d_separated(g, {"A"}, {"C"}, {"D"})

    def test_matches_moralization_oracle(self):
        rng = random.Random(77)
        for _ in range(120):
            dag = random_dag(rng, [f"N{i}" for i in range(6)], 0.4)
            vs = list(dag.nodes)
            rng.shuffle(vs)
            x, y = {vs[0]}, {vs[1]}
            z = set(vs[2:2 + rng.randrange(0, 4)])
            assert d_separated(dag, x, y, z) == \
                reference_dag_d_separated(dag, x, y, z)


class TestDefiniteStatus:
    def test_no_status_path_is_ignored(self):
        # X -- A <- S -> Y: the triple (X, A, S) has no definite status,
        # so the only route from X to Y does not count
        g = parse_graph_text("X -- A\nS -> A\nS -> Y\n")
        assert d_separated(g, {"X"}, {"Y"})
        assert not d_separated(g, {"A"}, {"Y"})

    def test_open_walk_with_no_open_path(self):
        # every definite-status path from X to Y is blocked given {C},
        # although a definite-status *walk* X - A -> C <- R -> A <- S -> Y
        # is open; the search must not report a witness here
        g = parse_graph_text(
            "X -- A\nA -> C\nR -> C\nR -> A\nS -> A\nS -> Y\n")
        assert find_open_path(g, {"X"}, {"Y"}, {"C"}) is None
        assert d_separated(g, {"X"}, {"Y"}, {"C"})

    def test_diamond_prefix_trips_the_path_budget(self, tmp_path, capsys):
        # twenty diamonds in front of the graph above would keep about
        # 2^20 simple paths; the exact search stops past MAX_SIMPLE_PATHS
        # with one error line, and the CLI exits 2, within two seconds
        budget = reachability.MAX_SIMPLE_PATHS
        g = open_walk_behind_diamonds(20)
        path = tmp_path / "g.txt"
        path.write_text(graph_to_text(g))
        start = time.perf_counter()
        with pytest.raises(GraphError, match=rf"^the exact path search kept "
                           rf"more than {budget} simple paths$"):
            find_open_path(g, {"X0"}, {"Y"}, {"C"})
        assert main(["dsep", str(path), "-x", "X0", "-y", "Y",
                     "-z", "C"]) == 2
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err == (
            f"error: the exact path search kept more than {budget} "
            "simple paths\n")

    def test_diamond_prefix_inside_the_budget(self, monkeypatch):
        # up to eight diamonds stay inside the budget, with the answer of
        # the graph without them; twelve trip it, and with the budget
        # raised give that answer too
        for k in (0, 1, 4, 8):
            assert find_open_path(open_walk_behind_diamonds(k), {"X0"},
                                  {"Y"}, {"C"}) is None
        g = open_walk_behind_diamonds(12)
        with pytest.raises(GraphError):
            find_open_path(g, {"X0"}, {"Y"}, {"C"})
        monkeypatch.setattr(reachability, "MAX_SIMPLE_PATHS", 2 ** 20)
        assert find_open_path(g, {"X0"}, {"Y"}, {"C"}) is None

    def test_undirected_chain_is_open(self):
        g = parse_graph_text("A -- B\nB -- C\n")
        assert not d_separated(g, {"A"}, {"C"})
        assert d_separated(g, {"A"}, {"C"}, {"B"})

    def test_undirected_step_skips_neighbours_of_prev(self, tmp_path, capsys):
        # on A -- C -- D -- E -- B the triple (D, E, B) is shielded by
        # B -- D, so it has no definite status: after D -- E the search
        # must not step to B, and every other path from A to B is blocked
        text = "B -> C\nA -- C\nB -- D\nB -- E\nC -- D\nD -- E\n"
        g = parse_graph_text(text)
        assert find_open_path(g, {"A"}, {"B"}, ()) is None
        assert not reference_open_definite_status_path(
            g, ("A", "C", "D", "E", "B"), ())
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert main(["dsep", str(path), "-x", "A", "-y", "B"]) == 0
        assert capsys.readouterr().out == "separated\n"


class TestWitness:
    def test_witness_path_revalidates(self):
        g = parse_graph_text(
            "X -- Z\nZ -> Y\nV1 -> X\nV1 -> Z\nV1 -> Y\nX -> Y\n")
        mut = g.remove_edges_out_of({"X"})
        w = find_open_path(mut, {"Y"}, {"X"}, {"Z"})
        assert w is not None
        assert w.path == ("Y", "V1", "X")
        assert reference_open_definite_status_path(mut, w.path, {"Z"})

    def test_witness_is_shortest_then_lexicographic(self):
        g = parse_graph_text("X -> B\nB -> Y\nX -> A\nA -> Y\nX -> Y\n")
        w = find_open_path(g, {"X"}, {"Y"})
        assert w.path == ("X", "Y")
        # B is declared before A, so the tie breaks toward B
        g2 = parse_graph_text("X -> B\nB -> Y\nX -> A\nA -> Y\n")
        assert find_open_path(g2, {"X"}, {"Y"}).path == ("X", "B", "Y")

    def test_collider_descent_recorded(self):
        g = parse_graph_text("A -> B\nC -> B\nB -> D\nD -> E\n")
        w = find_open_path(g, {"A"}, {"C"}, {"E"})
        assert w.path == ("A", "B", "C")
        assert w.collider_descents == (("B", "D", "E"),)

    def test_no_witness_when_separated(self):
        g = parse_graph_text("A -> B\nB -> C\n")
        assert find_open_path(g, {"A"}, {"C"}, {"B"}) is None

    @pytest.mark.parametrize("path, zs, unknown", [
        (["Q", "R"], ["Z9"], "Q"),     # path labels sort first
        (["A", "B"], ["Q"], "Q"),      # a valid path, unknown Z
        (["R", "A"], ["Q", "B"], "Q"),  # mixed: the least label overall
        (["A", "A"], ["Q"], "Q"),      # checked before the path's shape
    ])
    def test_explicit_path_rejects_unknown_labels(self, path, zs, unknown):
        g = parse_graph_text("A -> B\n")
        with pytest.raises(GraphError, match=f"^unknown node '{unknown}'$"):
            reference_open_definite_status_path(g, path, zs)

    def test_explicit_path_answers_on_known_labels(self):
        g = parse_graph_text("A -> B\nB -> C\nnode D\n")
        judge = reference_open_definite_status_path
        assert judge(g, ["A", "B", "C"], [])
        assert not judge(g, ["A", "B", "C"], ["B"])
        assert not judge(g, ["A", "D"], [])
        assert not judge(g, ["A"], [])
        assert not judge(g, ["A", "B", "A"], [])


def test_set_validation():
    g = parse_graph_text("A -> B\nB -> C\n")
    with pytest.raises(ValueError):
        d_separated(g, {"A"}, {"A"})
    with pytest.raises(ValueError):
        d_separated(g, {"A"}, {"B"}, {"B"})
    # an empty side is vacuously separated, not an error: the rule
    # predicates call this with whatever set survives a mutilation
    assert d_separated(g, set(), {"B"})


def test_exhaustive_three_node_dags_match_oracle():
    names = ["A", "B", "C"]
    pairs = list(itertools.combinations(names, 2))
    for states in itertools.product(range(3), repeat=3):
        directed = []
        for (a, b), s in zip(pairs, states):
            if s == 1:
                directed.append((a, b))
            elif s == 2:
                directed.append((b, a))
        from mpdagid import Graph
        dag = Graph(names, directed)
        if not dag.directed_part_acyclic():
            continue
        for x, y in itertools.permutations(names, 2):
            rest = [v for v in names if v not in (x, y)]
            for z in ([], rest):
                assert d_separated(dag, {x}, {y}, z) == \
                    reference_dag_d_separated(dag, {x}, {y}, z)


# -- the searches against a brute force over simple paths ---------------------


def test_every_four_node_graph_matches_brute_force(four_node_graphs):
    # all 4^6 graphs, every x, y and z: the witness is the shortest simple
    # path the validator accepts, ties by node order, and each collider's
    # descent is the shortest directed path into Z, ties by node order
    checked = 0
    for g in four_node_graphs:
        paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}
        descents: dict[str, list[tuple[str, ...]]] = {}
        arcs = set(g.directed_edges)
        links = arcs | {(b, a) for a, b in arcs} | set(g.undirected_edges) \
            | {(b, a) for a, b in g.undirected_edges}
        # permutations come shortest first, then in node order
        for k in range(1, 5):
            for p in itertools.permutations(g.nodes, k):
                steps = set(zip(p, p[1:]))
                if steps <= links:
                    paths.setdefault((p[0], p[-1]), []).append(p)
                if steps <= arcs:
                    descents.setdefault(p[0], []).append(p)
        for x, y in itertools.permutations(g.nodes, 2):
            rest = [v for v in g.nodes if v not in (x, y)]
            for z in itertools.chain.from_iterable(
                    itertools.combinations(rest, k) for k in range(3)):
                want = next((p for p in paths.get((x, y), ())
                             if reference_open_definite_status_path(g, p, z)),
                            None)
                got = find_open_path(g, {x}, {y}, z)
                checked += 1
                if want is None:
                    assert got is None, (g, x, y, z)
                    continue
                assert got is not None and got.path == want, (g, x, y, z)
                colliders = [want[i] for i in range(1, len(want) - 1)
                             if reference_triple_status(
                                 g, *want[i - 1:i + 2]) == "collider"]
                assert got.collider_descents == tuple(
                    next(p for p in descents[c] if p[-1] in z)
                    for c in colliders), (g, x, y, z)
    assert checked == 4096 * 12 * 4


def test_diamond_chain_is_fast():
    # 18 chordal diamonds give 2^18 shortest paths from X0 to Y, which a
    # search over simple paths lists level by level; the least shortest
    # open walk repeats no node, so it is the witness
    g = diamond_chain(18)
    assert len(g.nodes) == 56
    start = time.perf_counter()
    witness = find_open_path(g, {"X0"}, {"Y"})
    assert time.perf_counter() - start < 0.5
    assert witness.path == ("X0",) + tuple(
        v for i in range(1, 19) for v in (f"A{i}", f"J{i}")) + ("Y",)
    start = time.perf_counter()
    with pytest.raises(NotIdentifiable) as info:
        cidm(g, {"X0"}, {"Y"})
    assert time.perf_counter() - start < 0.5
    assert info.value.certificate.dsep_failure.open_path.path[0] == "Y"
