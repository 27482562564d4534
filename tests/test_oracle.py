import collections
import itertools
import random
import time

import numpy as np
import pytest

from mpdagid import (CounterexampleReport, DagNotInClass, DiscreteModel,
                     Factor, Fraction, Graph, GraphClass, GraphError,
                     IdentificationError, LinearGaussianSem, MarginalOver,
                     NotIdentifiable, Product, cidm, enumerate_dags,
                     evaluate_expression, fold, numeric_gap, oracle,
                     parse_graph_text, random_dag, random_mpdag,
                     verify_counterexample)

from cases import (counterexample_one, counterexample_two,
                   identification_cases, random_oracle_queries,
                   reference_conditional, reference_dag_d_separated,
                   reference_enumerate_dags, reference_evaluate_expression,
                   reference_interventional_conditional,
                   reference_numeric_gap, reference_table_probability,
                   reference_wright_covariance, small_random_graphs)


class TestEnumeration:
    def test_triangle_cpdag(self):
        g = parse_graph_text("A -- B\nB -- C\nA -- C\n")
        assert len(enumerate_dags(g)) == 6

    def test_chain_cpdag(self):
        g = parse_graph_text("A -- B\nB -- C\n")
        # A -> B -> C, A <- B <- C, A <- B -> C; the collider is excluded
        assert len(enumerate_dags(g)) == 3

    def test_dag_is_its_own_class(self):
        g = parse_graph_text("A -> B\nB -> C\n")
        assert enumerate_dags(g) == [g]

    def test_cap(self):
        nodes = [f"N{i}" for i in range(22)]
        und = [("N0", f"N{i}") for i in range(1, 22)]
        g = Graph(nodes, undirected=und)
        with pytest.raises(GraphError):
            enumerate_dags(g)

    def test_matches_reference_on_every_four_node_graph(self,
                                                        four_node_graphs):
        # cyclic and unclosed graphs included: both give their class, or []
        for g in four_node_graphs:
            assert ([repr(d) for d in enumerate_dags(g)]
                    == [repr(d) for d in reference_enumerate_dags(g)]), g

    def test_matches_reference_on_small_random_graphs(self):
        graphs = small_random_graphs(seed=7, count=400)
        empty = 0
        for g in graphs:
            expected = [repr(d) for d in reference_enumerate_dags(g)]
            assert [repr(d) for d in enumerate_dags(g)] == expected, g
            empty += not expected
        assert 0 < empty < len(graphs)

    def test_long_path_dags_is_fast(self):
        # 2^20 orientations, of which the 21 with one source node are DAGs
        nodes = [f"N{i}" for i in range(21)]
        g = Graph(nodes, undirected=list(zip(nodes, nodes[1:])))
        start = time.perf_counter()
        dags = enumerate_dags(g)
        assert time.perf_counter() - start < 1.0
        assert len(dags) == 21
        assert len(set(dags)) == 21

    def test_members_are_consistent_extensions(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_mpdag(rng, ["A", "B", "C", "D", "E"], 0.5, 0.3)
            for dag in enumerate_dags(g):
                assert not dag.undirected_edges
                assert dag.directed_part_acyclic()
                assert dag.unshielded_colliders() <= g.unshielded_colliders()
                assert set(dag.directed_edges) >= set(g.directed_edges)


class TestDagDsep:
    def test_chain_and_collider(self):
        g = parse_graph_text("A -> B\nB -> C\n")
        assert not reference_dag_d_separated(g, {"A"}, {"C"})
        assert reference_dag_d_separated(g, {"A"}, {"C"}, {"B"})
        h = parse_graph_text("A -> C\nB -> C\n")
        assert reference_dag_d_separated(h, {"A"}, {"B"})
        assert not reference_dag_d_separated(h, {"A"}, {"B"}, {"C"})

    def test_descendant_of_collider_opens(self):
        g = parse_graph_text("A -> C\nB -> C\nC -> D\n")
        assert not reference_dag_d_separated(g, {"A"}, {"B"}, {"D"})

    def test_rejects_empty_endpoints_and_non_dags(self):
        dag = parse_graph_text("A -> B\n")
        for xs, ys in (((), ("B",)), (("A",), ())):
            with pytest.raises(ValueError, match="^d-separation needs "
                               "nonempty endpoint sets$"):
                reference_dag_d_separated(dag, xs, ys)
        with pytest.raises(GraphError, match="^moralization test requires "
                           "a DAG$"):
            reference_dag_d_separated(parse_graph_text("A -- B\n"), ("A",),
                                      ("B",))


class TestDiscreteModel:
    def test_cpt_validation(self):
        g = parse_graph_text("A -> B\n")
        with pytest.raises(ValueError):
            DiscreteModel(g, {"A": np.array(0.0), "B": np.array([0.3, 0.7])})

    @pytest.mark.parametrize("cpts, msg", [
        ({"A": np.array(0.5)}, "^no CPT for 'B'$"),
        ({"B": np.array([0.3, 0.7])}, "^no CPT for 'A'$"),
        ({"A": np.array(0.5), "B": np.array([0.3, 0.7]), "Q": np.array(0.5)},
         "^CPT for 'Q', which is not a node$"),
    ], ids=["missing", "missing-root", "not-a-node"])
    def test_cpt_keys_are_the_nodes(self, cpts, msg):
        with pytest.raises(ValueError, match=msg):
            DiscreteModel(parse_graph_text("A -> B\n"), cpts)

    def test_placed_factors_match_stack_bytes(self):
        # each CPT factor is placed by a transpose; np.stack at the node's
        # place among its parents gave these bytes and shapes before: 0-4
        # parents, the node at every place
        rng = random.Random(14)
        nodes = [f"N{i}" for i in range(5)]
        for i, v in enumerate(nodes):
            others = nodes[:i] + nodes[i + 1:]
            for k in range(5):
                for parents in itertools.combinations(others, k):
                    dag = Graph(nodes, [(p, v) for p in parents])
                    model = DiscreteModel.random(dag, rng)
                    axes = [dag.index(p) for p in parents]
                    want = np.stack(
                        [1.0 - model.cpts[v], model.cpts[v]],
                        axis=sum(ax < i for ax in axes)).reshape(
                            [2 if j == i or j in axes else 1
                             for j in range(len(nodes))])
                    got = model._factors[i]
                    assert got.shape == want.shape, (v, parents)
                    assert got.tobytes() == want.tobytes(), (v, parents)

    def test_random_models_repeat_and_match_given_cpts(self):
        # a model's cells are drawn into one array, node by node in graph
        # node order, and sliced per node; equal rng states give equal
        # bytes, and so does the checked constructor given the same CPTs
        rng = random.Random(16)
        for n in range(1, 9):
            dag = random_dag(rng, [f"N{i}" for i in range(n)])
            state = rng.getstate()
            first = DiscreteModel.random(dag, rng)
            rng.setstate(state)
            draws = [rng.uniform(0.1, 0.9) for v in dag.nodes
                     for _ in range(2 ** len(dag.parents_of(v)))]
            assert np.concatenate([first.cpts[v].ravel() for v in dag.nodes]
                                  ).tolist() == draws
            rng.setstate(state)
            second = DiscreteModel.random(dag, rng)
            given = DiscreteModel(dag, dict(first.cpts))
            for model in (second, given):
                for v in dag.nodes:
                    assert model.cpts[v].shape == first.cpts[v].shape
                    assert model.cpts[v].tobytes() == first.cpts[v].tobytes()
                for got, want in zip(model._factors, first._factors):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                assert model.joint().tobytes() == first.joint().tobytes()

    def test_rejects_non_dag(self):
        g = parse_graph_text("A -- B\n")
        with pytest.raises(GraphError, match="^a discrete model needs a DAG$"):
            DiscreteModel(g, {"A": np.array(0.5), "B": np.array([0.3, 0.7])})

    def test_rejects_cpt_of_wrong_shape(self):
        # the shape check runs before the factors are placed, so a CPT
        # that could not be placed still gets its own message
        g = parse_graph_text("A -> B\n")
        for cpts, msg in (({"A": np.array([0.5, 0.5]), "B": np.array([0.3, 0.7])},
                           r"^CPT for 'A' has shape \(2,\), expected \(\)$"),
                          ({"A": np.array(0.5), "B": np.array([[0.3, 0.7]])},
                           r"^CPT for 'B' has shape \(1, 2\), "
                           r"expected \(2,\)$")):
            with pytest.raises(ValueError, match=msg):
                DiscreteModel(g, cpts)

    @pytest.mark.parametrize("cpts, msg", [
        ({"A": np.array(1.5), "B": np.array([[0.3, 0.7]])},
         r"^CPT for 'A' must lie strictly in \(0, 1\)$"),
        ({"A": np.array([0.5, 0.5]), "B": np.array([0.3, 1.2])},
         r"^CPT for 'A' has shape \(2,\), expected \(\)$"),
        ({"A": np.array(0.5), "B": np.array([[1.3, 0.7]])},
         r"^CPT for 'B' has shape \(1, 2\), expected \(2,\)$"),
    ], ids=["range-before-later-shape", "shape-before-later-range",
            "shape-before-own-range"])
    def test_first_bad_node_is_named(self, cpts, msg):
        # the checks read node by node, shape before range: the first node
        # to fail is named
        with pytest.raises(ValueError, match=msg):
            DiscreteModel(parse_graph_text("A -> B\n"), cpts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("node", ["A", "B"])
    def test_rejects_nan_and_inf(self, bad, node):
        g = Graph(["A", "B"], directed=[("A", "B")])
        cpts = {"A": np.array(bad if node == "A" else 0.4),
                "B": np.array([0.5, bad if node == "B" else 0.6])}
        with pytest.raises(ValueError, match=f"CPT for '{node}' must lie "
                           r"strictly in \(0, 1\)"):
            DiscreteModel(g, cpts)

    def test_joint_sums_to_one(self):
        rng = random.Random(2)
        for _ in range(10):
            dag = random_dag(rng, ["A", "B", "C", "D"])
            model = DiscreteModel.random(dag, rng)
            assert abs(model.joint().sum() - 1.0) < 1e-12

    def test_truncated_factorization_by_hand(self):
        g = parse_graph_text("A -> B\n")
        pa = 0.3
        pb = np.array([0.2, 0.9])  # P(B=1 | A)
        model = DiscreteModel(g, {
            "A": np.array(pa),
            "B": pb,
        })
        joint = model.joint()
        probability = reference_table_probability
        assert abs(probability(joint, g.nodes, {"A": 1, "B": 1})
                   - pa * 0.9) < 1e-12
        cut = model.interventional({"A": 1})
        assert abs(probability(cut, g.nodes, {"A": 1, "B": 1})
                   - 0.9) < 1e-12
        assert probability(cut, g.nodes, {"A": 0, "B": 1}) == 0.0

    @pytest.mark.parametrize("assignment, msg", [
        ({"A": -1}, r"^assignment value for 'A' must be 0 or 1, got -1$"),
        ({"A": 2}, r"^assignment value for 'A' must be 0 or 1, got 2$"),
        ({"A": 0.5}, r"^assignment value for 'A' must be 0 or 1, got 0.5$"),
        ({"B": 1, "Q": 0}, r"^unknown node 'Q'$"),
    ], ids=["minus-one", "two", "half", "unknown-label"])
    def test_table_probability_rejects_bad_assignment(self, assignment, msg):
        # -1 read P(A = 1), 2 and 0.5 raised a bare IndexError, and an
        # unknown label tuple.index's message
        g = parse_graph_text("A -> B\n")
        joint = DiscreteModel.random(g, random.Random(5)).joint()
        with pytest.raises(ValueError, match=msg):
            reference_table_probability(joint, g.nodes, assignment)

    @pytest.mark.parametrize("one", [True, 1.0, np.int64(1)])
    def test_table_probability_values_equal_to_one(self, one):
        # True was read as a mask and gave the whole table's mass, 1.0
        g = parse_graph_text("A -> B\n")
        joint = DiscreteModel.random(g, random.Random(5)).joint()
        want = reference_table_probability(joint, g.nodes, {"A": 1})
        assert want == float(joint[1].sum()) and want < 1.0
        got = reference_table_probability(joint, g.nodes, {"A": one})
        assert type(got) is float and got == want

    def test_conditional(self):
        g = parse_graph_text("A -> B\n")
        model = DiscreteModel(g, {"A": np.array(0.5),
                                  "B": np.array([0.1, 0.8])})
        joint = model.joint()
        got = evaluate_expression(Factor(("B",), ("A",)), joint, g.nodes,
                                  {"B": 1, "A": 0})
        assert abs(got - 0.1) < 1e-12


def reference_interventional(model, do):
    """The per-cell truncated factorization the broadcast product replaced:
    one pass over the nodes per value assignment, in graph node order."""
    nodes = model.dag.nodes
    table = np.zeros((2,) * len(nodes))
    for values in itertools.product((0, 1), repeat=len(nodes)):
        env = dict(zip(nodes, values))
        p = 1.0
        for v in nodes:
            if v in do:
                if env[v] != do[v]:
                    p = 0.0
                    break
            else:
                key = tuple(env[q] for q in model.parent_order[v])
                p1 = float(model.cpts[v][key]) if key else float(model.cpts[v])
                p *= p1 if env[v] == 1 else 1.0 - p1
        table[values] = p
    return table


class TestInterventionalTable:
    def test_matches_reference_bytes(self):
        # equal bytes: the same float products in the same order, signed
        # zeros included
        rng = random.Random(12)
        for n in range(1, 10):
            dag = random_dag(rng, [f"N{i}" for i in range(n)])
            model = DiscreteModel.random(dag, rng)
            for k in range(min(n, 3) + 1):
                for sub in itertools.combinations(dag.nodes, k):
                    for vals in itertools.product((0, 1), repeat=k):
                        do = dict(zip(sub, vals))
                        assert (model.interventional(do).tobytes()
                                == reference_interventional(model, do)
                                .tobytes()), (dag, do)

    def test_matches_reference_bytes_once_factors_are_kept(self):
        # the CPT factors are placed when the model is made and reused by
        # every table, the first one here an intervened one
        rng = random.Random(13)
        for n in range(2, 8):
            dag = random_dag(rng, [f"N{i}" for i in range(n)])
            model = DiscreteModel.random(dag, rng)
            dos = [{dag.nodes[-1]: 1}, {}, {dag.nodes[0]: 0},
                   {dag.nodes[0]: 1, dag.nodes[-1]: 0}]
            for do in dos + dos:
                assert (model.interventional(do).tobytes()
                        == reference_interventional(model, do).tobytes()), \
                    (dag, do)

    def test_shared_product_matches_reference_bytes(self, battery):
        # each do-table is the product kept for its set of intervened nodes
        # times their indicators; X of 1-3 nodes first, in the middle and
        # last in node order, at every assignment, on every four-node DAG
        # and on seeded 6-8-node ones; the joint comes last, from its own
        # product
        rng = random.Random(15)
        dags = list(dict.fromkeys(d for _, members in battery
                                  for d in members))
        dags += [random_dag(rng, [f"N{i}" for i in range(n)])
                 for n in (6, 7, 8) for _ in range(5)]
        for dag in dags:
            model = DiscreteModel.random(dag, rng)
            n = len(dag.nodes)
            sets = sorted({tuple(dag.nodes[at:at + k]) for k in (1, 2, 3)
                           for at in (0, (n - k) // 2, n - k)})
            for sub in sets + [()]:
                for vals in itertools.product((0, 1), repeat=len(sub)):
                    do = dict(zip(sub, vals))
                    assert (model.interventional(do).tobytes()
                            == reference_interventional(model, do)
                            .tobytes()), (dag, do)
            assert len(model._products) == len(sets) + 1

    @pytest.mark.parametrize("do", [{"A": 5}, {"A": -1}, {"A": 2},
                                    {"A": "1"}, {"Q": 1}, {"A": 1, "Q": 0}])
    def test_rejects_bad_do(self, do):
        g = parse_graph_text("A -> B\n")
        model = DiscreteModel.random(g, random.Random(0))
        with pytest.raises(ValueError):
            model.interventional(do)
        with pytest.raises(ValueError):
            reference_interventional_conditional(model, do, {"B": 1}, {})

    @pytest.mark.parametrize("one", [1, True, 1.0, np.int64(1)])
    def test_values_equal_to_one_pick_the_same_indicator(self, one):
        # the validation lets through any value equal to 0 or 1; the first
        # table a fresh model builds for it is the one built for the int
        g = parse_graph_text("A -> B\nB -> C\n")
        model = DiscreteModel.random(g, random.Random(4))
        assert (model.interventional({"B": one, "A": 1 - one}).tobytes()
                == reference_interventional(model, {"A": 0, "B": 1})
                .tobytes())

    def test_tables_are_kept_per_assignment(self):
        g = parse_graph_text("A -> B\nB -> C\nA -> C\n")
        model = DiscreteModel.random(g, random.Random(1))
        first = model.interventional({"A": 1, "B": 0})
        assert model.interventional({"B": 0, "A": 1}) is first
        assert model.interventional({"A": 1, "B": 1}) is not first
        assert model.joint() is model.interventional({})

    def test_tables_are_read_only(self):
        g = parse_graph_text("A -> B\n")
        model = DiscreteModel.random(g, random.Random(2))
        for table in (model.joint(), model.interventional({"A": 0})):
            with pytest.raises(ValueError):
                table[0, 0] = 0.5
        with pytest.raises(ValueError):
            model.cpts["B"][0] = 0.5
        # the indicator of A = 0 is placed once and shared by every table
        with pytest.raises(ValueError):
            oracle._indicator(0, 0, 2)[0, 0] = 0.5

    def test_caller_cpts_are_copied(self):
        g = parse_graph_text("A -> B\n")
        pb = np.array([0.2, 0.9])
        model = DiscreteModel(g, {"A": np.array(0.3), "B": pb})
        before = model.joint().copy()
        pb[1] = 0.5
        assert model.joint().tobytes() == before.tobytes()
        assert model.interventional({"A": 1})[1, 1] == 0.9


class TestEvaluateExpression:
    def test_marginal_of_chain_product(self):
        g = parse_graph_text("A -> B\nB -> C\n")
        rng = random.Random(3)
        model = DiscreteModel.random(g, rng)
        joint = model.joint()
        expr = MarginalOver(("B",), Product((
            Factor(("B",), ("A",)), Factor(("C",), ("B",)))))
        def conditional(targets, given):
            return reference_conditional(joint, g.nodes, targets, given)
        for a, c in itertools.product((0, 1), repeat=2):
            want = sum(conditional({"B": b}, {"A": a})
                       * conditional({"C": c}, {"B": b}) for b in (0, 1))
            got = evaluate_expression(expr, joint, g.nodes, {"A": a, "C": c})
            assert abs(got - want) < 1e-12

    def test_float_order_is_fixed(self):
        # products multiply left to right from 1.0 and marginals sum in
        # itertools.product order, so verify gaps repeat to the last bit
        g = parse_graph_text("A -> B\nB -> C\nC -> D\n")
        model = DiscreteModel.random(g, random.Random(8))
        joint = model.joint()
        chain = [Factor(("A",)), Factor(("B",), ("A",)),
                 Factor(("C",), ("B",)), Factor(("D",), ("C",))]
        expr = MarginalOver(("A", "B", "C"), Product(tuple(chain)))
        def conditional(targets, given):
            return reference_conditional(joint, g.nodes, targets, given)
        for d in (0, 1):
            want = 0.0
            for a, b, c in itertools.product((0, 1), repeat=3):
                env = {"A": a, "B": b, "C": c, "D": d}
                term = 1.0
                for f in chain:
                    term *= conditional({v: env[v] for v in f.targets},
                                        {v: env[v] for v in f.given})
                want += term
            assert evaluate_expression(expr, joint, g.nodes, {"D": d}) == want

    def test_matches_interventional_backdoor(self):
        g = parse_graph_text("V -> X\nV -> Y\nX -> Y\n")
        rng = random.Random(4)
        model = DiscreteModel.random(g, rng)
        joint = model.joint()
        expr = MarginalOver(("V",), Product((
            Factor(("Y",), ("X", "V"), fixed=("X",)), Factor(("V",)))))
        for x, y in itertools.product((0, 1), repeat=2):
            truth = reference_interventional_conditional(
                model, {"X": x}, {"Y": y}, {})
            got = evaluate_expression(expr, joint, g.nodes,
                                      {"X": x, "Y": y})
            assert abs(got - truth) < 1e-12

    def test_every_cell_matches_reference_loop(self, battery):
        # the array one build gives holds at each cell the float that the
        # per-assignment loop gives there, to the last bit, on seeded
        # identifiable queries, and evaluate_expression reads it there
        rng = random.Random(41)
        graphs = [g for g in small_random_graphs(seed=11, count=300)
                  if g.classify() is not GraphClass.PDAG]
        graphs += [g for g, _ in battery[::20]]
        kinds, cells = collections.Counter(), 0
        for g in graphs:
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            a, b = rng.choice((1, 2)), rng.choice((1, 2))
            c = rng.randint(0, min(2, len(nodes) - a - b))
            x, y, z = nodes[:a], nodes[a:a + b], nodes[a + b:a + b + c]
            try:
                expr = cidm(g, x, y, z)
            except IdentificationError:
                continue
            kinds["fraction" if isinstance(expr, Fraction) else
                  "off-ramp" if isinstance(expr, Factor)
                  and not set(x) <= set(expr.given) else
                  "marginal" if fold(expr, lambda f: False, any,
                                     lambda v, body: True, max) else
                  "other"] += 1
            joint = DiscreteModel.random(rng.choice(enumerate_dags(g)),
                                         rng).joint()
            value = oracle._compile(expr, g.nodes)(joint)
            free = [v for v, size in zip(g.nodes, value.shape) if size == 2]
            assert set(y) <= set(free) <= {*x, *y, *z}, (g, x, y, z, expr)
            assert value.shape == tuple(2 if v in free else 1
                                        for v in g.nodes)
            for values in itertools.product((0, 1), repeat=len(free)):
                env = dict(zip(free, values))
                want = reference_evaluate_expression(expr, joint, g.nodes,
                                                     env)
                assert float(value[tuple(env.get(v, 0) for v in g.nodes)]) \
                    == want, (g, x, y, z, expr, env)
                got = evaluate_expression(expr, joint, g.nodes, env)
                assert type(got) is float and got == want
                cells += 1
        assert min(kinds[k] for k in ("fraction", "off-ramp", "marginal")) \
            >= 10, kinds
        assert cells >= 1000, cells

    def test_zero_denominator_raises_where_it_is_read(self):
        # a joint with P(A = 1) = 0: each expression is read at A = 0 and
        # raises at A = 1, as the per-assignment loop does; the nested
        # fraction divides by 0.2 / 0 there, which must not read as 0.0
        g = parse_graph_text("A -> B\n")
        joint = np.array([[0.3, 0.2], [0.0, 0.0]])
        cases = [
            (Fraction(Factor(("B",)), Factor(("A",))), 0.4),
            (Factor(("B",), ("A",)), 0.4),
            (MarginalOver(("B",), Fraction(Factor(("B",)), Factor(("A",)))),
             1.0),
            (Fraction(Factor(("B",)),
                      Fraction(Factor(("B",)), Factor(("A",)))), 0.5)]
        for judge in (evaluate_expression, reference_evaluate_expression):
            for expr, want in cases:
                assert judge(expr, joint, g.nodes, {"A": 0, "B": 1}) == want
                with pytest.raises(ZeroDivisionError):
                    judge(expr, joint, g.nodes, {"A": 1, "B": 1})
        # A is free and has no value: its zero cell is read first
        with pytest.raises(ZeroDivisionError):
            evaluate_expression(Factor(("B",), ("A",)), joint, g.nodes,
                                {"B": 1})

    CHAIN = MarginalOver(("B",), Product((
        Factor(("B",), ("A",)), Factor(("C",), ("B",)))))

    @pytest.mark.parametrize("assignment, msg", [
        ({"A": -1, "C": 0}, r"^assignment value for 'A' must be 0 or 1, "
                            r"got -1$"),
        ({"A": 2, "C": 0}, r"^assignment value for 'A' must be 0 or 1, "
                           r"got 2$"),
        ({"A": 1, "C": "0"}, r"^assignment value for 'C' must be 0 or 1, "
                             r"got '0'$"),
        ({"A": 1, "C": 0.5}, r"^assignment value for 'C' must be 0 or 1, "
                             r"got 0.5$"),
        ({"A": 1, "C": 0, "Q": 3}, r"^assignment value for 'Q' must be 0 "
                                   r"or 1, got 3$"),
        ({"C": 0}, r"^no value for free node 'A'$"),
        ({"A": 1, "B": 0}, r"^no value for free node 'C'$"),
    ], ids=["minus-one", "two", "string", "half", "extra-key-bad-value",
            "missing-A", "summed-node-given"])
    def test_rejects_bad_assignment(self, assignment, msg):
        g = parse_graph_text("A -> B\nB -> C\n")
        joint = DiscreteModel.random(g, random.Random(3)).joint()
        with pytest.raises(ValueError, match=msg):
            evaluate_expression(self.CHAIN, joint, g.nodes, assignment)

    @pytest.mark.parametrize("expr, msg", [
        (Factor(("B",), ("Q",)), r"^unknown node 'Q' in the expression$"),
        (MarginalOver(("Q",), Factor(("B",), ("A",))),
         r"^unknown node 'Q' in the expression$"),
        (MarginalOver(("B", "B"), Factor(("B",), ("A",))),
         r"^marginal lists 'B' twice$"),
    ], ids=["factor-label", "marginal-label", "marginal-twice"])
    def test_bad_label_is_named_while_folding(self, expr, msg):
        # raised by the fold, before the joint is read: numpy's reshape
        # error and tuple.index's message named no label
        class Unread:
            def __getattr__(self, name):
                raise AssertionError("the joint was read")

            def __getitem__(self, index):
                raise AssertionError("the joint was read")

        g = parse_graph_text("A -> B\n")
        with pytest.raises(ValueError, match=msg):
            evaluate_expression(expr, Unread(), g.nodes, {"A": 0, "B": 0})
        with pytest.raises(ValueError, match=msg):
            numeric_gap(g, expr, ("A",), ("B",), (), random.Random(0))

    @pytest.mark.parametrize("one", [1, True, 1.0, np.int64(1)])
    def test_values_equal_to_one_are_accepted(self, one):
        # as do-values are; keys that are not free nodes, the summed B and
        # a label outside the graph among them, are allowed
        g = parse_graph_text("A -> B\nB -> C\n")
        joint = DiscreteModel.random(g, random.Random(3)).joint()
        want = reference_evaluate_expression(self.CHAIN, joint, g.nodes,
                                             {"A": 1, "C": 0})
        for extra in ({}, {"B": 1}, {"Q": 0}):
            got = evaluate_expression(self.CHAIN, joint, g.nodes,
                                      {"A": one, "C": 1 - one, **extra})
            assert type(got) is float and got == want


class TestNumericGap:
    @pytest.mark.parametrize("label", ["marginal", "fraction"])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_counts_and_seeded_gaps(self, label, trials):
        case, = [c for c in identification_cases() if c.label == label]
        free = set(case.x) | set(case.y) | set(case.z)
        gap, dags, checks = numeric_gap(case.graph, case.expected, case.x,
                                        case.y, case.z, random.Random(31),
                                        trials)
        assert dags == len(enumerate_dags(case.graph))
        assert checks == dags * trials * 2 ** len(free)
        assert gap <= 1e-9
        # a wrong expression gives a gap that depends on every model drawn;
        # these values were recorded from the loop numeric_gap replaced
        # (one model per DAG and trial, in class order, from the same rng)
        wrong, _, _ = numeric_gap(case.graph, Factor(("Y",), ("X",)),
                                  case.x, case.y, case.z, random.Random(31),
                                  trials)
        assert wrong == {("marginal", 1): 0.22350103484702988,
                         ("marginal", 3): 0.266969288396643,
                         ("fraction", 1): 0.24180396356675038,
                         ("fraction", 3): 0.3369895070227279}[label, trials]

    @pytest.mark.parametrize("trials", [1, 3])
    def test_matches_reference_loop(self, trials):
        # exact equality of (gap, dags, checks): the same models, sums and
        # float order as the per-assignment loop, at zero and nonzero gaps
        gaps = []
        for g, x, y, z in random_oracle_queries(seed=5, count=30):
            exprs = [Factor(tuple(y), tuple(x))]  # wrong wherever confounded
            try:
                exprs.append(cidm(g, x, y, z))
            except NotIdentifiable:
                pass
            for expr in exprs:
                got = numeric_gap(g, expr, x, y, z, random.Random(17), trials)
                want = reference_numeric_gap(g, expr, x, y, z,
                                             random.Random(17), trials)
                assert got == want, (g, x, y, z, expr)
                gaps.append(got[0])
        assert sum(gap > 1e-3 for gap in gaps) >= 5
        assert sum(gap <= 1e-9 for gap in gaps) >= 10

    def test_matches_reference_with_eight_rest_nodes(self):
        # |(Y | Z) - X| = 8: 256 comparisons per do-table, each with its own
        # numerator and denominator slots, held to the loop bit for bit;
        # Z adjusts for the confounding, so only the second one is wrong
        zs, ys = [f"Z{i}" for i in range(4)], [f"Y{i}" for i in range(4)]
        edges = [(z, "X") for z in zs] + [("X", y) for y in ys]
        edges += [(z, y) for z, y in zip(zs, ys)]
        g = Graph(["X", *zs, *ys], directed=edges)
        gaps = []
        for expr in (cidm(g, ["X"], ys, zs), Factor(tuple(ys), ("X",))):
            got = numeric_gap(g, expr, ["X"], ys, zs, random.Random(19), 2)
            want = reference_numeric_gap(g, expr, ["X"], ys, zs,
                                         random.Random(19), 2)
            assert got == want and got[2] == 2 * 2 ** 9
            gaps.append(got[0])
        assert gaps[0] <= 1e-9 < 1e-3 < gaps[1]

    def test_sums_each_marginal_once_per_table(self, monkeypatch):
        # every (table, assignment) pair is summed once, counted at the one
        # helper every sum goes through; the tables stay referenced here,
        # so their ids are not reused while counting; each model's joint
        # is summed in one call, for the slots of both factors, which
        # share P(X)
        calls, tables, models = [], [], []
        summed, drawn = oracle._sums, DiscreteModel._drawn

        def counted(table, indices):
            indices = list(indices)
            tables.append(table)
            calls.extend((id(table), repr(ix)) for ix in indices)
            return summed(table, indices)

        def kept(layout, rng):
            models.append(drawn(layout, rng))
            return models[-1]

        monkeypatch.setattr(oracle, "_sums", counted)
        monkeypatch.setattr(DiscreteModel, "_drawn", kept)
        for g, x, y, z in random_oracle_queries(seed=9, count=10):
            expr = Product((Factor(tuple(y), tuple(x)), Factor(tuple(x))))
            calls.clear()
            tables.clear()
            models.clear()
            gap = numeric_gap(g, expr, x, y, z, random.Random(3), 2)
            fast = len(calls)
            assert fast == len(set(calls))
            joints = [t for t in tables if any(t is m.joint() for m in models)]
            assert len(joints) == len(models) == 2 * len(enumerate_dags(g))
            assert len({id(t) for t in joints}) == len(models)
            models.clear()
            calls.clear()
            assert reference_numeric_gap(g, expr, x, y, z,
                                         random.Random(3), 2) == gap
            # the reference sums the same pairs, most of them many times
            assert fast == len(set(calls)) < len(calls)

    def test_free_node_outside_query_is_named(self):
        # the expression's cells are read at the assignments of X, Y and Z
        # alone, so a free node outside them has no value to be read at
        g = parse_graph_text("A -> B\nB -> C\n")
        with pytest.raises(ValueError, match=r"^free node 'B' of the "
                           r"expression is not in X, Y or Z$"):
            numeric_gap(g, Factor(("C",), ("B",)), ["A"], ["C"], [],
                        random.Random(0))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, trials):
        g = parse_graph_text("X -> Y\n")
        with pytest.raises(ValueError, match="trials"):
            numeric_gap(g, Factor(("Y",), ("X",)), ("X",), ("Y",), (),
                        random.Random(0), trials)

    @pytest.mark.parametrize("shape", ["X twice", "X meets Z", "X empty"])
    def test_inputs_taken_as_given(self, shape):
        # numeric_gap does not check that X lists each label once, that X
        # and Z are disjoint or that X is nonempty; each node of X, Y and Z
        # still takes one value per comparison, as in the reference loop
        gaps = []
        for g, x, y, z in random_oracle_queries(seed=23, count=12):
            x, z = {"X twice": (x + x[:1], z),
                    "X meets Z": (x, z + x[:1]),
                    "X empty": ([], z + x)}[shape]
            given = tuple(dict.fromkeys(x + z))
            for expr in (Factor(tuple(y), given), Factor(tuple(y), ())):
                got = numeric_gap(g, expr, x, y, z, random.Random(7), 2)
                want = reference_numeric_gap(g, expr, x, y, z,
                                             random.Random(7), 2)
                assert got == want, (g, x, y, z, expr)
                assert got[2] == got[1] * 2 * 2 ** len({*x, *y, *z})
                gaps.append(got[0])
        assert sum(gap > 1e-3 for gap in gaps) >= 5


    def test_table_cap_refuses_before_any_work(self, monkeypatch):
        # one node past the cap is refused before a DAG is enumerated or a
        # model drawn; a graph at the cap passes the check
        def work(*args):
            raise AssertionError("work before the cap check")

        monkeypatch.setattr(oracle, "enumerate_dags", work)
        monkeypatch.setattr(DiscreteModel, "random", work)
        monkeypatch.setattr(DiscreteModel, "_drawn", work)
        expr = Factor(("V1",), ("V0",))
        for n in (oracle.MAX_TABLE_NODES + 1, 56):
            nodes = [f"V{i}" for i in range(n)]
            g = Graph(nodes, directed=list(zip(nodes, nodes[1:])))
            start = time.perf_counter()
            with pytest.raises(GraphError, match=rf"^{n} nodes exceeds the "
                               r"joint-table cap \(20\)$"):
                numeric_gap(g, expr, ("V0",), ("V1",), (), random.Random(0))
            assert time.perf_counter() - start < 0.5
        monkeypatch.setattr(oracle, "enumerate_dags", lambda graph: [])
        nodes = [f"V{i}" for i in range(oracle.MAX_TABLE_NODES)]
        g = Graph(nodes, directed=list(zip(nodes, nodes[1:])))
        assert numeric_gap(g, expr, ("V0",), ("V1",), (),
                           random.Random(0)) == (0.0, 0, 0)

    def test_work_cap_refuses_before_any_table(self, monkeypatch):
        # two undirected K4s beside a 12-node chain: 20 nodes, 576 DAGs,
        # 576 x 2 trials x 3 tables of 2^20 cells, which took 129 s; the
        # 16-node version is under the cap, as is X -> Y with as many
        # trials as the cap allows, and one trial more is refused
        def work(*args):
            raise AssertionError("a model or table before the cap check")

        monkeypatch.setattr(DiscreteModel, "_drawn", work)
        monkeypatch.setattr(DiscreteModel, "interventional", work)
        cap, floor = oracle.MAX_TABLE_WORK, oracle.MIN_TABLE_CELLS

        k4s = [(f"{p}{a}", f"{p}{b}") for p in "AB"
               for a, b in itertools.combinations(range(4), 2)]
        chain = [f"V{i}" for i in range(12)]
        g = Graph([f"{p}{i}" for p in "AB" for i in range(4)] + chain,
                  list(zip(chain, chain[1:])), k4s)
        expr = Factor(("V11",), ("V0",))
        start = time.perf_counter()
        with pytest.raises(GraphError, match=rf"^{576 * 2 * 3 * 2 ** 20} "
                           rf"table cells exceeds the verify work cap "
                           rf"\({cap}\)$"):
            numeric_gap(g, expr, ("V0",), ("V11",), (), random.Random(0), 2)
        assert time.perf_counter() - start < 2.0
        assert 576 * 2 * 3 * 2 ** 16 <= cap < 576 * 2 * 3 * 2 ** 20
        g = parse_graph_text("X -> Y\n")
        expr = Factor(("Y",), ("X",))
        trials = cap // (3 * floor)
        with pytest.raises(GraphError, match=rf"^{(trials + 1) * 3 * floor} "
                           r"table cells exceeds"):
            numeric_gap(g, expr, ("X",), ("Y",), (), random.Random(0),
                        trials + 1)
        with pytest.raises(AssertionError, match="before the cap check"):
            numeric_gap(g, expr, ("X",), ("Y",), (), random.Random(0), trials)


class TestLinearGaussian:
    def test_hand_covariance(self):
        g = parse_graph_text("A -> B\n")
        sem = LinearGaussianSem(g, {("A", "B"): 2.0}, {"A": 1.0, "B": 0.5})
        cov = sem.covariance()
        i = {n: k for k, n in enumerate(g.nodes)}
        assert abs(cov[i["A"], i["A"]] - 1.0) < 1e-12
        assert abs(cov[i["A"], i["B"]] - 2.0) < 1e-12
        assert abs(cov[i["B"], i["B"]] - 4.5) < 1e-12

    def test_coefficient_keys_must_match_edges(self):
        g = parse_graph_text("A -> B\n")
        with pytest.raises(ValueError):
            LinearGaussianSem(g, {("B", "A"): 1.0}, {"A": 1.0, "B": 1.0})
        with pytest.raises(ValueError):
            LinearGaussianSem(g, {}, {"A": 1.0, "B": 1.0})

    def test_rejects_non_dag_and_bad_noise(self):
        with pytest.raises(GraphError, match="^a linear SEM needs a DAG$"):
            LinearGaussianSem(parse_graph_text("A -- B\n"), {},
                              {"A": 1.0, "B": 1.0})
        g = parse_graph_text("A -> B\n")
        for noise, msg in (({"A": 1.0}, "^every node needs a noise variance$"),
                           ({"A": 1.0, "B": -0.5},
                            "^noise variances must be nonnegative$")):
            with pytest.raises(ValueError, match=msg):
                LinearGaussianSem(g, {("A", "B"): 2.0}, noise)

    def test_conditional_expectation_given_nothing_is_the_mean(self):
        g = parse_graph_text("A -> B\n")
        sem = LinearGaussianSem(g, {("A", "B"): 2.0}, {"A": 1.0, "B": 0.5},
                                {"A": 1.5, "B": -1.0})
        assert sem.conditional_expectation("B", {}) == 2.0

    def test_intervened(self):
        g = parse_graph_text("A -> B\n")
        sem = LinearGaussianSem(g, {("A", "B"): 2.0}, {"A": 1.0, "B": 0.5})
        cut = sem.intervened({"A": 3.0})
        mean = cut.mean()
        i = {n: k for k, n in enumerate(g.nodes)}
        assert abs(mean[i["A"]] - 3.0) < 1e-12
        assert abs(mean[i["B"]] - 6.0) < 1e-12
        assert abs(cut.covariance()[i["A"], i["A"]]) < 1e-12

    def test_conditional_expectation_regression_slope(self):
        g = parse_graph_text("A -> B\n")
        sem = LinearGaussianSem(g, {("A", "B"): 2.0}, {"A": 1.0, "B": 0.5})
        assert abs(sem.conditional_expectation("B", {"A": 1.5}) - 3.0) < 1e-12

    def test_wright_agrees_with_inverse(self):
        rng = random.Random(5)
        for _ in range(25):
            dag = random_dag(rng, [f"N{i}" for i in range(6)], 0.5)
            coefs = {e: rng.uniform(-2, 2) for e in dag.directed_edges}
            noise = {v: rng.uniform(0.2, 2.0) for v in dag.nodes}
            sem = LinearGaussianSem(dag, coefs, noise)
            assert np.allclose(reference_wright_covariance(sem),
                               sem.covariance(), atol=1e-9)


class TestVerifyCounterexample:
    def test_frozen_pair_verifies(self):
        g, sem1, sem2 = counterexample_one()
        report = verify_counterexample(g, sem1, sem2, {"X": 1.0}, "Y",
                                       {"Z": 0.0})
        assert isinstance(report, CounterexampleReport)
        assert report.covariance_gap <= 1e-9
        assert abs(report.effect_first - (-0.25)) <= 1e-9
        assert abs(report.effect_second) <= 1e-9
        assert report.effect_gap > 0.2

    def test_rejects_dag_outside_class(self):
        g, sem1, _ = counterexample_one()
        stray = parse_graph_text("V1 -> X\nV1 -> Z\nV1 -> Y\n"
                                 "Z -> Y\nX -> Y\n")
        stray_sem = LinearGaussianSem(
            stray,
            {e: 1.0 for e in stray.directed_edges},
            {v: 1.0 for v in stray.nodes})
        with pytest.raises(DagNotInClass):
            verify_counterexample(g, sem1, stray_sem, {"X": 1.0}, "Y",
                                  {"Z": 0.0})

    def test_rejects_mismatched_observational_law(self):
        g, sem1, sem2 = counterexample_one()
        broken = LinearGaussianSem(
            sem2.dag,
            {**dict(sem2.coefficients), ("Z", "X"): 0.7},
            dict(sem2.noise_variances))
        with pytest.raises(ValueError):
            verify_counterexample(g, sem1, broken, {"X": 1.0}, "Y",
                                  {"Z": 0.0})

    def test_rejects_nonzero_intercept(self):
        g, sem1, sem2 = counterexample_one()
        shifted = LinearGaussianSem(sem2.dag, sem2.coefficients,
                                    sem2.noise_variances, {"X": 0.5})
        with pytest.raises(ValueError, match="^observational SEMs must be "
                           "zero-mean$"):
            verify_counterexample(g, sem1, shifted, {"X": 1.0}, "Y",
                                  {"Z": 0.0})

    def test_second_frozen_pair(self):
        g, sem1, sem2 = counterexample_two()
        report = verify_counterexample(g, sem1, sem2, {"X": 1.0}, "Y",
                                       {"Z": 0.0})
        assert report.covariance_gap <= 1e-9
        assert abs(report.effect_first - (-2.0 / 15.0)) <= 1e-9
        assert abs(report.effect_second) <= 1e-9
