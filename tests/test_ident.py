import json
import random

import pytest

from mpdagid import ident
from mpdagid import (Factor, Fraction, GraphClass, GraphError, MarginalOver,
                     NotIdentifiable, PreconditionViolated, Product, cidm,
                     cidme_tree, enumerate_dags, evaluate_expression,
                     expression_to_json, find_proper_pc_path, fold,
                     id_formula,
                     is_open_definite_status_path, is_possibly_directed_path,
                     normal_form, numeric_gap, parse_graph_text,
                     possible_descendants, random_mpdag,
                     render_latex, render_text, rule1_holds, rule2_holds,
                     rule3_holds)

from cases import (absorb_graph, chain_graph, fraction_graph,
                   identification_cases, marginal_graph,
                   reference_enumerate_dags, small_random_graphs,
                   unidentifiable_graph)


class TestNormalForm:
    def test_sorts_and_flattens(self):
        g = parse_graph_text("A -> B\nB -> C\nnode D\n")
        raw = Product((Factor(("C",), ("B", "A")),
                       Product((Factor(("B", "A")),))))
        norm = normal_form(raw, g)
        assert norm == Product((Factor(("A", "B")), Factor(("C",), ("A", "B"))))

    def test_single_factor_product_unwraps(self):
        g = parse_graph_text("node A\n")
        assert normal_form(Product((Factor(("A",)),)), g) == Factor(("A",))

    def test_empty_marginal_drops(self):
        g = parse_graph_text("node A\n")
        assert normal_form(MarginalOver((), Factor(("A",))), g) == Factor(("A",))

    def test_fraction_not_simplified(self):
        g = parse_graph_text("node A\n")
        frac = Fraction(Factor(("A",)), Factor(("A",)))
        assert normal_form(frac, g) == frac

    def test_fixed_metadata_ignored_by_equality(self):
        a = Factor(("Y",), ("X",), fixed=("X",))
        b = Factor(("Y",), ("X",))
        assert a == b
        assert a.fixed == ("X",) and b.fixed == ()


class TestRendering:
    def test_text(self):
        expr = MarginalOver(("V2",), Product((
            Factor(("Y",), ("X", "V1", "V2")), Factor(("V2",), ("V1",)))))
        assert render_text(expr) == \
            "INT_{v2} f(y|x,v1,v2) f(v2|v1) dv2"

    def test_text_fraction(self):
        expr = Fraction(Factor(("Y",), ("Z",)), Factor(("Z",)))
        assert render_text(expr) == "(f(y|z)) / (f(z))"

    def test_latex(self):
        expr = MarginalOver(("V2",), Factor(("Y",), ("X", "V2")))
        assert render_latex(expr) == \
            "\\int f(y \\mid x, v_{2}) \\, dv_{2}"

    def test_json_shape(self):
        expr = Fraction(Factor(("Y",), ("Z",)), Factor(("Z",)))
        blob = expression_to_json(expr)
        assert blob["kind"] == "fraction"
        assert blob["numerator"] == {"kind": "factor", "targets": ["Y"],
                                     "given": ["Z"], "fixed": []}


class TestFold:
    # every node kind: a fraction over a marginal of a nested product
    EXPR = Fraction(
        MarginalOver(("V1",), Product((
            Factor(("Y", "Z"), ("V1", "X"), fixed=("X",)),
            Product((Factor(("V1",)), Factor(("Z",), ("V1",))))))),
        Factor(("Z",), ("X",)))

    def test_golden_renderings(self):
        assert render_text(self.EXPR) == \
            "(INT_{v1} f(y,z|v1,x) f(v1) f(z|v1) dv1) / (f(z|x))"
        assert render_latex(self.EXPR) == (
            "\\frac{\\int f(y, z \\mid v_{1}, x) f(v_{1}) "
            "f(z \\mid v_{1}) \\, dv_{1}}{f(z \\mid x)}")
        assert json.dumps(expression_to_json(self.EXPR)) == (
            '{"kind": "fraction", "numerator": {"kind": "marginal", '
            '"variables": ["V1"], "body": {"kind": "product", "factors": '
            '[{"kind": "factor", "targets": ["Y", "Z"], "given": ["V1", "X"], '
            '"fixed": ["X"]}, {"kind": "product", "factors": [{"kind": '
            '"factor", "targets": ["V1"], "given": [], "fixed": []}, {"kind": '
            '"factor", "targets": ["Z"], "given": ["V1"], "fixed": []}]}]}}, '
            '"denominator": {"kind": "factor", "targets": ["Z"], "given": '
            '["X"], "fixed": []}}')

    def test_golden_normal_form(self):
        g = fraction_graph()  # node order X, Z, Y, V1
        norm = normal_form(self.EXPR, g)
        assert norm == Fraction(
            MarginalOver(("V1",), Product((
                Factor(("Z",), ("V1",)), Factor(("Z", "Y"), ("X", "V1")),
                Factor(("V1",))))),
            Factor(("Z",), ("X",)))
        assert norm.numerator.body.factors[1].fixed == ("X",)
        assert render_text(norm) == \
            "(INT_{v1} f(z|v1) f(z,y|x,v1) f(v1) dv1) / (f(z|x))"

    def test_fold_counts_nodes(self):
        counts = fold(self.EXPR, lambda f: 1, lambda parts: 1 + sum(parts),
                      lambda variables, body: 1 + body, lambda n, d: 1 + n + d)
        assert counts == 8

    @pytest.mark.parametrize("walk", [
        lambda e: fold(e, id, id, id, id),
        lambda e: normal_form(e, parse_graph_text("node A\n")),
        render_text, render_latex, expression_to_json,
        lambda e: evaluate_expression(e, None, (), {}),
    ], ids=["fold", "normal_form", "render_text", "render_latex",
            "expression_to_json", "evaluate_expression"])
    def test_non_expression_raises(self, walk):
        with pytest.raises(TypeError, match="not a density expression"):
            walk(Product((Factor(("A",)), "A")))


class TestValidation:
    def test_overlapping_sets(self):
        g = chain_graph()
        with pytest.raises(PreconditionViolated):
            cidm(g, {"X"}, {"X"})
        with pytest.raises(PreconditionViolated):
            cidm(g, {"X"}, {"Y"}, {"Y"})

    def test_empty_sets(self):
        g = chain_graph()
        with pytest.raises(PreconditionViolated):
            cidm(g, set(), {"Y"})

    def test_unknown_node(self):
        g = chain_graph()
        with pytest.raises(GraphError):
            cidm(g, {"Q"}, {"Y"})

    def test_non_mpdag_rejected(self):
        pdag = parse_graph_text("A -> B\nB -- C\n")  # not closed
        with pytest.raises(PreconditionViolated):
            cidm(pdag, {"A"}, {"C"})


class TestIdFormula:
    def test_conditioning_in_possible_descendants_rejected(self):
        g = chain_graph()
        with pytest.raises(PreconditionViolated):
            id_formula(g, {"X"}, {"Y"}, {"Z"})

    def test_undirected_start_not_identifiable(self):
        g = unidentifiable_graph()
        with pytest.raises(NotIdentifiable) as info:
            id_formula(g, {"X"}, {"Y"})
        cert = info.value.certificate
        assert cert.offending_path[0] == "X"
        assert g.has_undirected(*cert.offending_path[:2])
        assert is_possibly_directed_path(g, cert.offending_path)

    def test_marginal_case_buckets(self):
        g = marginal_graph()
        expr = id_formula(g, {"X"}, {"Y"}, {"V1"})
        assert isinstance(expr, MarginalOver)
        assert expr.variables == ("V2",)
        y_factor, = [f for f in expr.body.factors if f.targets == ("Y",)]
        assert y_factor.given == ("X", "V1", "V2")
        assert y_factor.fixed == ("X",)  # do-node among the parents
        other, = [f for f in expr.body.factors if f.targets == ("V2",)]
        assert other.given == ("V1",)
        assert other.fixed == ()

    def test_unconditional_query(self):
        g = parse_graph_text("X -> Y\nnode W\n")
        assert id_formula(g, {"X"}, {"Y"}) == Factor(("Y",), ("X",))


class TestRulePredicates:
    def test_section_fixtures(self):
        gm = marginal_graph()
        ga = absorb_graph()
        gc = chain_graph()
        assert rule2_holds(gm, (), ("Y",), ("X",), ("V1", "V2"))
        assert rule3_holds(gm, (), ("V2",), ("X",), ("V1",))
        assert rule2_holds(ga, (), ("Y",), ("X",), ("V1", "V2"))
        assert rule3_holds(gc, (), ("Y",), ("X",), ("Z",))
        assert rule1_holds(gm, ("X",), ("Y",), ("V3",), ("V1", "V2"))
        assert not rule1_holds(gm, ("X",), ("Y",), ("V2",))
        assert not rule2_holds(gc, (), ("Y",), ("X",))
        assert not rule3_holds(gc, (), ("Y",), ("X",))

    def test_rules_reject_overlap(self):
        g = chain_graph()
        with pytest.raises(ValueError):
            rule1_holds(g, {"X"}, {"Y"}, {"X"})

    def test_transfer_is_one_directional(self):
        # MPDAG-level premises are sufficient, not necessary: here the
        # rule-3 premise fails on the MPDAG but holds in every DAG of the
        # class, because the mutilation loses the coupling between the
        # N0 -- N2 and N0 -- N3 orientations
        from mpdagid import Graph
        g = Graph(["N0", "N1", "N2", "N3"], directed=[("N3", "N2")],
                  undirected=[("N0", "N2"), ("N0", "N3")])
        assert not rule3_holds(g, (), ("N3",), ("N2",))
        assert all(rule3_holds(d, (), ("N3",), ("N2",))
                   for d in enumerate_dags(g))


class TestCidm:
    @pytest.mark.parametrize("case", identification_cases(),
                             ids=lambda c: c.label)
    def test_worked_cases(self, case):
        if case.expected is None:
            with pytest.raises(NotIdentifiable):
                cidm(case.graph, case.x, case.y, case.z)
        else:
            assert cidm(case.graph, case.x, case.y, case.z) == case.expected

    def test_failure_certificate(self):
        g = unidentifiable_graph()
        with pytest.raises(NotIdentifiable) as info:
            cidm(g, {"X"}, {"Y"}, {"Z"})
        cert = info.value.certificate
        assert cert.offending_path == ("X", "Z")
        assert set(cert.x_current) | set(cert.z_current) == {"X", "Z"}
        fail = cert.dsep_failure
        assert fail.picked == "X"
        assert fail.conditioning == ("Z",)
        assert fail.open_path.path == ("Y", "V1", "X")
        # the witness re-validates against the mutilated graph
        mut = g.remove_edges_into(fail.edges_removed_into) \
              .remove_edges_out_of(fail.edges_removed_out_of)
        assert is_open_definite_status_path(mut, fail.open_path.path, {"Z"})

    def test_failed_premise_replays(self, battery):
        # every refusal with a failed premise, on six seeded queries per
        # four-node MPDAG and per small random MPDAG: the public rule-2
        # predicate agrees, and the witness is open in its mutilated graph
        rng = random.Random(12)
        graphs = [g for g, _ in battery] + [
            g for g in small_random_graphs(seed=12, count=300)
            if g.classify() is not GraphClass.PDAG]
        replayed = 0
        for g in graphs:
            for _ in range(6):
                vs = list(g.nodes)
                rng.shuffle(vs)
                nx, ny = rng.choice((1, 2)), rng.choice((1, 2))
                x, y = vs[:nx], vs[nx:nx + ny]
                z = vs[nx + ny:nx + ny + rng.randint(0, len(vs) - nx - ny)]
                try:
                    cidm(g, x, y, z)
                    continue
                except PreconditionViolated:
                    continue
                except NotIdentifiable as exc:
                    cert = exc.certificate
                fail = cert.dsep_failure
                if fail is None:
                    continue
                rest = set(cert.x_current) - {fail.picked}
                assert not rule2_holds(g, rest, y, {fail.picked},
                                       cert.z_current), (g, x, y, z)
                mut = g.remove_edges_into(rest) \
                       .remove_edges_out_of({fail.picked})
                path = fail.open_path.path
                assert path[0] in y and path[-1] == fail.picked
                assert is_open_definite_status_path(
                    mut, path, rest | set(cert.z_current)), (g, x, y, z)
                replayed += 1
        assert replayed > 1000

    def test_deterministic(self):
        g = unidentifiable_graph()
        for _ in range(3):
            with pytest.raises(NotIdentifiable) as info:
                cidm(g, {"X"}, {"Y"}, {"Z"})
            assert info.value.certificate.offending_path == ("X", "Z")


class TestCidme:
    def test_split_leaves(self):
        g = unidentifiable_graph()
        leaves = cidme_tree(g, {"X"}, {"Y"}, {"Z"})
        assert len(leaves) == 2
        assert leaves[0].graph.has_directed("X", "Z")
        assert leaves[1].graph.has_directed("Z", "X")

    def test_identifiable_input_gives_singleton(self):
        for case in identification_cases():
            if case.expected is None:
                continue
            leaves = cidme_tree(case.graph, case.x, case.y, case.z)
            assert len(leaves) == 1
            assert leaves[0].graph == case.graph
            assert leaves[0].expression == case.expected

    def test_leaf_classes_partition(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_mpdag(rng, [f"N{i}" for i in range(5)], 0.5, 0.2)
            vs = list(g.nodes)
            rng.shuffle(vs)
            x, y = {vs[0]}, {vs[1]}
            z = set(vs[2:2 + rng.randrange(0, 2)])
            leaves = cidme_tree(g, x, y, z)
            seen = set()
            for leaf in leaves:
                members = set(reference_enumerate_dags(leaf.graph))
                assert members and not (members & seen)
                seen |= members
            assert seen == set(reference_enumerate_dags(g))

    def test_leaf_expressions_numerically_sound(self):
        g = unidentifiable_graph()
        rng = random.Random(55)
        for leaf in cidme_tree(g, {"X"}, {"Y"}, {"Z"}):
            gap, _, _ = numeric_gap(leaf.graph, leaf.expression, ("X",),
                                    ("Y",), ("Z",), rng)
            assert gap < 1e-9


def test_leaf_formula_matches_checked_route(battery, monkeypatch):
    # a leaf takes the absorption loop's exit as the proof of id_formula's
    # checks and runs the formula body alone; every leaf of cidme_tree and
    # every answer of cidm must equal what the public, checked id_formula
    # gives on the same split of the conditioning set
    finished = []
    finish = ident._finish

    def recorded(g, x1, y, z1):
        expr = finish(g, x1, y, z1)
        finished.append((g, frozenset(x1), y, frozenset(z1), expr))
        return expr

    monkeypatch.setattr(ident, "_finish", recorded)
    rng = random.Random(19)
    graphs = [g for g, _ in battery] + [
        g for g in small_random_graphs(seed=19, count=60)
        if g.classify() is not GraphClass.PDAG]
    formulas = fractions = 0
    for g in graphs:
        for _ in range(6):
            vs = list(g.nodes)
            rng.shuffle(vs)
            nx, ny = rng.choice((1, 2)), rng.choice((1, 2))
            x, y = vs[:nx], vs[nx:nx + ny]
            z = vs[nx + ny:nx + ny + rng.randint(0, len(vs) - nx - ny)]
            del finished[:]
            leaves = cidme_tree(g, x, y, z)
            assert [(leaf.graph, leaf.expression) for leaf in leaves] == \
                [(h, expr) for h, *_, expr in finished]
            # cidm answers iff the tree does not split its input, and then
            # with the one leaf's expression, which is checked below
            if len(leaves) == 1 and leaves[0].graph is g:
                assert cidm(g, x, y, z) == leaves[0].expression
                finished.pop()
            else:
                with pytest.raises(NotIdentifiable):
                    cidm(g, x, y, z)
            for h, x1, y1, z1, expr in finished:
                assert find_proper_pc_path(h, x1, y1 | z1,
                                           start_undirected=True) is None
                if (expr == normal_form(Factor(tuple(y1), tuple(z1)), h)
                        and rule3_holds(h, (), y1, x1, z1)):
                    continue  # the off-ramp f(y | z1) runs no formula
                pd_x1 = possible_descendants(h, x1)
                z_desc, z_rest = z1 & pd_x1, z1 - pd_x1
                expected = id_formula(h, x1, y1 | z_desc, z_rest)
                if z_desc:
                    expected = Fraction(expected,
                                        id_formula(h, x1, z_desc, z_rest))
                    fractions += 1
                assert expr == expected, (h, x, y, z)
                formulas += 1
    assert formulas > 10000 and fractions > 3000


def test_formula_body_is_in_normal_form(battery, monkeypatch):
    # _id_formula sorts its factors by their first target instead of
    # running normal_form; what it returns, numerators and denominators
    # that share one pco order included, must be its own normal form, and
    # fixed too, which Factor equality leaves out: the JSON forms hold it
    made = []
    body = ident._id_formula

    def recorded(g, *args):
        expr = body(g, *args)
        made.append((g, expr))
        return expr

    monkeypatch.setattr(ident, "_id_formula", recorded)
    rng = random.Random(29)
    graphs = [g for g, _ in battery] + [
        random_mpdag(rng, [f"N{i}" for i in range(rng.randint(6, 9))],
                     rng.choice((0.3, 0.45, 0.6)), rng.choice((0.0, 0.3)))
        for _ in range(150)]
    for g in graphs:
        for _ in range(2):
            vs = list(g.nodes)
            rng.shuffle(vs)
            nx, ny = rng.choice((1, 2)), rng.choice((1, 2))
            z = vs[nx + ny:nx + ny + rng.randint(0, len(vs) - nx - ny)]
            cidme_tree(g, vs[:nx], vs[nx:nx + ny], z)
    for g, expr in made:
        assert (expression_to_json(expr)
                == expression_to_json(normal_form(expr, g))), (g, expr)
    shapes = {type(expr.body if isinstance(expr, MarginalOver) else expr)
              for _, expr in made}
    assert shapes == {Factor, Product} and len(made) > 5000
    assert any(f.fixed for _, expr in made for f in fold(
        expr, lambda f: [f], lambda parts: sum(parts, []),
        lambda _, body: body, lambda n, d: n + d))
