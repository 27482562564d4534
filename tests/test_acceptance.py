"""End-to-end acceptance checks.

Each test covers one acceptance criterion, measures what the criterion
asks for (counts, tolerances, wall-clock budgets), registers a one-line
verdict via :func:`conftest.note`, and then asserts.  The numeric
tolerances are fixed at 1e-9 throughout; time budgets are generous upper
bounds, not benchmarks.
"""

import itertools
import random
import time

import pytest

from mpdagid import (Factor, Graph, NotIdentifiable, cidm, cidme_tree,
                     d_separated, descendants, enumerate_dags,
                     find_proper_pc_path, id_formula, numeric_gap,
                     parse_graph_text, possible_descendants, random_mpdag,
                     rule1_holds, rule2_holds, rule3_holds,
                     verify_counterexample)

from cases import (chain_graph, counterexample_one, counterexample_two,
                   identification_cases, marginal_graph,
                   reference_dag_d_separated, reference_enumerate_dags,
                   reference_normal_form)
from conftest import note

TOL = 1e-9


def test_criterion_01_class_enumeration():
    start = time.perf_counter()
    triangle = parse_graph_text("X -- Y\nY -- Z\nX -- Z\n")
    n_triangle = len(enumerate_dags(triangle))
    shielded = Graph(["X", "Y", "Z"], directed=[("X", "Y"), ("Z", "Y")],
                     undirected=[("Z", "X")])
    n_shielded = len(enumerate_dags(shielded))
    elapsed = time.perf_counter() - start
    ok = n_triangle == 6 and n_shielded == 2 and elapsed < 1.0
    note(f"criterion 1 {'PASS' if ok else 'FAIL'}: triangle class "
         f"{n_triangle} DAGs, shielded-collider class {n_shielded} DAGs, "
         f"{elapsed:.3f}s")
    assert n_triangle == 6
    assert n_shielded == 2
    assert elapsed < 1.0


def test_criterion_02_worked_examples():
    rng = random.Random(2)
    slowest = 0.0
    validated = 0
    for case in identification_cases():
        start = time.perf_counter()
        if case.expected is None:
            with pytest.raises(NotIdentifiable) as info:
                cidm(case.graph, case.x, case.y, case.z)
            assert info.value.certificate.offending_path
        else:
            expr = cidm(case.graph, case.x, case.y, case.z)
            assert expr == case.expected, case.label
            gap, _, _ = numeric_gap(case.graph, expr, case.x, case.y,
                                    case.z, rng)
            assert gap <= TOL, case.label
            validated += 1
        slowest = max(slowest, time.perf_counter() - start)
    # the single-conditioner chain admits the shorter answer f(y|z): the
    # deletion premise holds, and the resulting expression is exact on
    # every DAG in the class
    gc = chain_graph()
    assert rule3_holds(gc, (), ("Y",), ("X",), ("Z",))
    short = reference_normal_form(Factor(("Y",), ("Z",)), gc)
    gap, _, _ = numeric_gap(gc, short, ("X",), ("Y",), ("Z",), rng)
    assert gap <= TOL
    ok = slowest < 1.0
    note(f"criterion 2 {'PASS' if ok else 'FAIL'}: 8 worked queries, "
         f"{validated} identifiable ones exact numerically, chain shortcut "
         f"f(y|z) exact, slowest {slowest:.3f}s")
    assert ok


def test_criterion_03_rule_premises():
    gm = marginal_graph()
    gc = chain_graph()
    ga = parse_graph_text(
        "X -> Y\nV1 -- V2\nV2 -- X\nV1 -> X\nV1 -> Y\nV2 -> V3\nY -> V3\n")
    fixtures = [
        ("rule2", True, rule2_holds(gm, (), ("Y",), ("X",), ("V1", "V2"))),
        ("rule3", True, rule3_holds(gm, (), ("V2",), ("X",), ("V1",))),
        ("rule2", True, rule2_holds(ga, (), ("Y",), ("X",), ("V1", "V2"))),
        ("rule3", True, rule3_holds(gc, (), ("Y",), ("X",), ("Z",))),
        ("rule1", True, rule1_holds(gm, ("X",), ("Y",), ("V3",),
                                    ("V1", "V2"))),
        ("rule1", False, rule1_holds(gm, ("X",), ("Y",), ("V2",))),
        ("rule2", False, rule2_holds(gc, (), ("Y",), ("X",))),
        ("rule3", False, rule3_holds(gc, (), ("Y",), ("X",))),
    ]
    mistakes = [(name, want) for name, want, got in fixtures if got != want]
    covered = {(name, want) for name, want, _ in fixtures}
    full = all((rule, v) in covered
               for rule in ("rule1", "rule2", "rule3") for v in (True, False))
    ok = not mistakes and full
    note(f"criterion 3 {'PASS' if ok else 'FAIL'}: {len(fixtures)} rule "
         f"premise fixtures, each rule with a holding and a failing case")
    assert not mistakes
    assert full


def test_criterion_04_counterexamples():
    g1, a1, b1 = counterexample_one()
    r1 = verify_counterexample(g1, a1, b1, {"X": 1.0}, "Y", {"Z": 0.0},
                               tol=TOL)
    g2, a2, b2 = counterexample_two()
    r2 = verify_counterexample(g2, a2, b2, {"X": 1.0}, "Y", {"Z": 0.0},
                               tol=TOL)
    ok = (r1.covariance_gap <= TOL and abs(r1.effect_first + 0.25) <= TOL
          and abs(r1.effect_second) <= TOL
          and r2.covariance_gap <= TOL
          and abs(r2.effect_first + 2.0 / 15.0) <= TOL
          and abs(r2.effect_second) <= TOL)
    note(f"criterion 4 {'PASS' if ok else 'FAIL'}: matched SEM pairs, "
         f"effects ({r1.effect_first:.6f}, {r1.effect_second:.6f}) and "
         f"({r2.effect_first:.6f}, {r2.effect_second:.6f})")
    assert r1.covariance_gap <= TOL
    assert abs(r1.effect_first - (-0.25)) <= TOL
    assert abs(r1.effect_second) <= TOL
    assert r2.covariance_gap <= TOL
    assert abs(r2.effect_first - (-2.0 / 15.0)) <= TOL
    assert abs(r2.effect_second) <= TOL


def test_criterion_05_random_soundness():
    rng = random.Random(5)
    start = time.perf_counter()
    n_graphs = 220
    identified = 0
    checks = 0
    worst = 0.0
    for k in range(n_graphs):
        size = 3 + k % 4  # 3..6 nodes
        g = random_mpdag(rng, [f"N{i}" for i in range(size)], 0.5, 0.3)
        vs = list(g.nodes)
        rng.shuffle(vs)
        nx = 1 + rng.randrange(min(2, size - 1))
        x = set(vs[:nx])
        y = {vs[nx]}
        z = set(vs[nx + 1:nx + 1 + rng.randrange(0, 3)])
        try:
            expr = cidm(g, x, y, z)
        except NotIdentifiable:
            continue
        identified += 1
        gap, _, n = numeric_gap(g, expr, x, y, z, rng)
        worst = max(worst, gap)
        checks += n
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and identified >= 40 and elapsed < 60.0
    note(f"criterion 5 {'PASS' if ok else 'FAIL'}: {n_graphs} random "
         f"MPDAGs, {identified} identified, {checks} numeric checks, "
         f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= TOL
    assert identified >= 40
    assert elapsed < 60.0


def test_criterion_06_dsep_equivalence(battery):
    start = time.perf_counter()
    queries = 0
    for g, dags in battery:
        for a, b in itertools.combinations(g.nodes, 2):
            rest = [v for v in g.nodes if v not in (a, b)]
            for r in range(len(rest) + 1):
                for z in itertools.combinations(rest, r):
                    lhs = d_separated(g, {a}, {b}, z)
                    rhs = all(reference_dag_d_separated(d, {a}, {b}, z)
                              for d in dags)
                    assert lhs == rhs, (g, a, b, z)
                    queries += 1
    rng = random.Random(6)
    for k in range(200):
        size = 5 + k % 2
        g = random_mpdag(rng, [f"N{i}" for i in range(size)], 0.45, 0.3)
        vs = list(g.nodes)
        rng.shuffle(vs)
        a, b = vs[0], vs[1]
        z = tuple(vs[2:2 + rng.randrange(0, 3)])
        lhs = d_separated(g, {a}, {b}, z)
        rhs = all(reference_dag_d_separated(d, {a}, {b}, z)
                  for d in enumerate_dags(g))
        assert lhs == rhs, (g, a, b, z)
        queries += 1
    elapsed = time.perf_counter() - start
    note(f"criterion 6 PASS: {queries} separation queries agree with the "
         f"class conjunction, {elapsed:.1f}s")


def test_criterion_07_premise_transfer(battery):
    rules = {"rule1": rule1_holds, "rule2": rule2_holds, "rule3": rule3_holds}
    start = time.perf_counter()
    checked = 0
    transferred = 0
    rng = random.Random(7)
    for g, dags in battery:
        vs = list(g.nodes)
        rng.shuffle(vs)
        y, z = (vs[0],), (vs[1],)
        x = (vs[2],) if rng.random() < 0.5 else ()
        w = (vs[3],) if rng.random() < 0.5 else ()
        for name, rule in rules.items():
            checked += 1
            if not rule(g, x, y, z, w):
                continue
            transferred += 1
            assert all(rule(d, x, y, z, w) for d in dags), (g, name, x, y,
                                                            z, w)
    # the converse genuinely fails, so the above is not testing an
    # equivalence by accident: here every DAG satisfies the deletion
    # premise but the class graph does not
    witness = Graph(["N0", "N1", "N2", "N3"], directed=[("N3", "N2")],
                    undirected=[("N0", "N2"), ("N0", "N3")])
    assert not rule3_holds(witness, (), ("N3",), ("N2",))
    assert all(rule3_holds(d, (), ("N3",), ("N2",))
               for d in enumerate_dags(witness))
    elapsed = time.perf_counter() - start
    note(f"criterion 7 PASS: {checked} premises, {transferred} held on the "
         f"class graph and on every member DAG, converse witness confirmed, "
         f"{elapsed:.1f}s")


def test_criterion_08_unconditional_characterization():
    rng = random.Random(8)
    start = time.perf_counter()
    succeeded = 0
    failed = 0
    worst = 0.0
    for k in range(150):
        size = 4 + k % 3
        g = random_mpdag(rng, [f"N{i}" for i in range(size)], 0.5, 0.3)
        vs = list(g.nodes)
        rng.shuffle(vs)
        nx = 1 + rng.randrange(min(2, size - 1))
        x = set(vs[:nx])
        y = {vs[nx]}
        blocked = possible_descendants(g, x) | y
        pool = [v for v in g.nodes if v not in blocked]
        rng.shuffle(pool)
        z = set(pool[:rng.randrange(0, 3)])
        path = find_proper_pc_path(g, x, y, start_undirected=True)
        try:
            expr = id_formula(g, x, y, z)
        except NotIdentifiable:
            failed += 1
            assert path is not None, (g, x, y, z)
            continue
        succeeded += 1
        assert path is None, (g, x, y, z)
        gap, _, _ = numeric_gap(g, expr, x, y, z, rng)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and succeeded and failed
    note(f"criterion 8 {'PASS' if ok else 'FAIL'}: 150 gated queries, "
         f"{succeeded} identified / {failed} refused, each matching the "
         f"path condition, max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= TOL
    assert succeeded and failed


def test_criterion_09_per_class_identification():
    rng = random.Random(9)
    start = time.perf_counter()
    splits = 0
    for _ in range(60):
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
        try:
            expr = cidm(g, x, y, z)
        except NotIdentifiable:
            splits += len(leaves) > 1
            continue
        assert len(leaves) == 1
        assert leaves[0].graph == g
        assert leaves[0].expression == expr
    elapsed = time.perf_counter() - start
    note(f"criterion 9 PASS: 60 leaf partitions exact, {splits} queries "
         f"split the class, identifiable ones gave a single leaf, "
         f"{elapsed:.1f}s")


def test_criterion_10_possible_descendants(battery):
    start = time.perf_counter()
    checked = 0
    for g, dags in battery:
        for v in g.nodes:
            union = frozenset().union(
                *(descendants(d, {v}) for d in dags))
            assert possible_descendants(g, {v}) == union, (g, v)
            checked += 1
    elapsed = time.perf_counter() - start
    note(f"criterion 10 PASS: {checked} reachability sets equal the class "
         f"union, {elapsed:.1f}s")
