"""Shared fixture graphs and queries used across the test modules.

Each case bundles an input graph, a query, and the expected result of
identification (``None`` marks a query that must fail with a certificate).
Expected expressions were derived by hand from the definitions and are
frozen here; the tests also re-validate them numerically against the
brute-force oracle, so a regression in either direction gets caught.
"""

import itertools
import math
import random
from dataclasses import dataclass

from mpdagid import (DensityExpression, DiscreteModel, Factor, Fraction,
                     Graph, GraphClass, GraphError, InconsistentOrientation,
                     MarginalOver, ParseError, Product, ancestors,
                     enumerate_dags, expression_to_json, fold, meek_closure,
                     oracle, parse_graph_text, random_mpdag)

MARGINAL_TEXT = """\
X -> Y
V1 -- V3
V3 -> X
V1 -- V2
V2 -> X
V2 -> Y
V1 -> X
V1 -> Y
"""

TWO_TREATMENT_TEXT = """\
X1 -> V1
V1 -> Y
V1 -> X2
X2 -> Y
V2 -> X1
V2 -> Y
"""

SHORTCUT_TEXT = """\
V1 -> X
V1 -> Y
X -- V2
V2 -- V3
V3 -> Z
V3 -> X
V1 -> V2
V1 -> V3
"""

ABSORB_TEXT = """\
X -> Y
V1 -- V2
V2 -- X
V1 -> X
V1 -> Y
V2 -> V3
Y -> V3
"""

CHAIN_TEXT = """\
X -- Z
Z -> Y
"""

PARTIAL_ABSORB_TEXT = """\
X1 -- Z
Z -> Y
X1 -> X2
Z -> X2
X2 -> Y
X1 -> Y
"""

FRACTION_TEXT = """\
X -> Z
Z -- Y
V1 -> X
V1 -> Z
V1 -> Y
X -> Y
"""

UNIDENTIFIABLE_TEXT = """\
X -- Z
Z -> Y
V1 -> X
V1 -> Z
V1 -> Y
X -> Y
"""

AMBIGUOUS_PARENT_TEXT = """\
X -- V1
V1 -> Z
Y -> Z
X -> Y
"""


def marginal_graph() -> Graph:
    return parse_graph_text(MARGINAL_TEXT)


def two_treatment_graph() -> Graph:
    return parse_graph_text(TWO_TREATMENT_TEXT)


def shortcut_graph() -> Graph:
    return parse_graph_text(SHORTCUT_TEXT)


def absorb_graph() -> Graph:
    return parse_graph_text(ABSORB_TEXT)


def chain_graph() -> Graph:
    return parse_graph_text(CHAIN_TEXT)


def partial_absorb_graph() -> Graph:
    return parse_graph_text(PARTIAL_ABSORB_TEXT)


def fraction_graph() -> Graph:
    return parse_graph_text(FRACTION_TEXT)


def unidentifiable_graph() -> Graph:
    return parse_graph_text(UNIDENTIFIABLE_TEXT)


def ambiguous_parent_graph() -> Graph:
    return parse_graph_text(AMBIGUOUS_PARENT_TEXT)


@dataclass(frozen=True)
class QueryCase:
    label: str
    graph: Graph
    x: tuple
    y: tuple
    z: tuple
    expected: "DensityExpression | None"


def reference_normal_form(expr: DensityExpression,
                          graph: Graph) -> DensityExpression:
    """Canonical shape: node tuples sorted by the graph's node order,
    nested products flattened, factors sorted by target then given indices,
    single-entry products unwrapped, empty marginals dropped.  No algebraic
    rewriting (identical numerator/denominator factors are not cancelled).
    ``ident`` builds its formulas in this shape directly."""
    # each subtree folds to the list of (sort key, term) whose product it
    # is; a parent product concatenates and re-sorts its children's lists,
    # and non-factor terms keep their order after the factors
    other = (1, (), ())

    def whole(terms):
        if len(terms) == 1:
            return terms[0][1]
        return Product(tuple(term for _, term in terms))

    def factor(f: Factor):
        f = Factor(graph.sorted_nodes(f.targets), graph.sorted_nodes(f.given),
                   graph.sorted_nodes(f.fixed))
        return [((0, tuple(map(graph.index, f.targets)),
                  tuple(map(graph.index, f.given))), f)]

    def product(parts):
        return sorted((t for terms in parts for t in terms), key=lambda t: t[0])

    def marginal(variables, body):
        if not variables:
            return body
        return [(other,
                 MarginalOver(graph.sorted_nodes(variables), whole(body)))]

    def fraction(numerator, denominator):
        return [(other, Fraction(whole(numerator), whole(denominator)))]

    return whole(fold(expr, factor, product, marginal, fraction))


def _marginal_expected(g: Graph) -> DensityExpression:
    return reference_normal_form(
        MarginalOver(("V2",), Product((
            Factor(("Y",), ("X", "V1", "V2")),
            Factor(("V2",), ("V1",))))), g)


def _two_treatment_expected(g: Graph) -> DensityExpression:
    return reference_normal_form(
        MarginalOver(("V1",), Product((
            Factor(("V1",), ("X1",)),
            Factor(("Y",), ("X2", "V1", "V2"))))), g)


def _fraction_expected(g: Graph) -> DensityExpression:
    return reference_normal_form(
        Fraction(
            MarginalOver(("V1",), Product((
                Factor(("Z", "Y"), ("X", "V1")), Factor(("V1",))))),
            MarginalOver(("V1",), Product((
                Factor(("Z",), ("X", "V1")), Factor(("V1",)))))), g)


def identification_cases() -> list[QueryCase]:
    gm, gt, gs = marginal_graph(), two_treatment_graph(), shortcut_graph()
    ga, gc, gp = absorb_graph(), chain_graph(), partial_absorb_graph()
    gf, gu = fraction_graph(), unidentifiable_graph()
    return [
        QueryCase("marginal", gm, ("X",), ("Y",), ("V1",),
                  _marginal_expected(gm)),
        QueryCase("two-treatment", gt, ("X1", "X2"), ("Y",), ("V2",),
                  _two_treatment_expected(gt)),
        QueryCase("shortcut", gs, ("X",), ("Y",), ("Z",),
                  reference_normal_form(Factor(("Y",), ("Z",)), gs)),
        QueryCase("absorb", ga, ("X",), ("Y",), ("V1", "V2"),
                  reference_normal_form(
                      Factor(("Y",), ("X", "V1", "V2")), ga)),
        QueryCase("chain", gc, ("X",), ("Y",), ("Z",),
                  reference_normal_form(Factor(("Y",), ("X", "Z")), gc)),
        QueryCase("partial-absorb", gp, ("X1", "X2"), ("Y",), ("Z",),
                  reference_normal_form(
                      Factor(("Y",), ("X1", "X2", "Z")), gp)),
        QueryCase("fraction", gf, ("X",), ("Y",), ("Z",),
                  _fraction_expected(gf)),
        QueryCase("unidentifiable", gu, ("X",), ("Y",), ("Z",), None),
    ]


def counterexample_one():
    """Two linear SEMs over the class of the unidentifiable graph whose
    observational laws coincide but whose interventional conditionals
    E[Y | do(X=1), Z=0] differ (-1/4 versus 0)."""
    from mpdagid import LinearGaussianSem
    g = unidentifiable_graph()
    first = LinearGaussianSem(
        g.orient("X", "Z"),
        {("V1", "X"): 0.5, ("V1", "Z"): 0.5, ("V1", "Y"): 0.5,
         ("X", "Z"): 0.5, ("X", "Y"): 0.0, ("Z", "Y"): 0.0},
        {"V1": 1.0, "X": 0.75, "Z": 0.25, "Y": 0.75})
    second = LinearGaussianSem(
        g.orient("Z", "X"),
        {("V1", "X"): -1 / 7, ("V1", "Z"): 0.75, ("V1", "Y"): 0.5,
         ("Z", "X"): 6 / 7, ("X", "Y"): 0.0, ("Z", "Y"): 0.0},
        {"V1": 1.0, "X": 3 / 7, "Z": 7 / 16, "Y": 0.75})
    return g, first, second


def counterexample_two():
    """Same construction on the four-node graph whose only ambiguity is
    the X -- V1 edge; the gap is -2/15 versus 0."""
    from mpdagid import LinearGaussianSem
    g = ambiguous_parent_graph()
    first = LinearGaussianSem(
        g.orient("X", "V1"),
        {("X", "V1"): 0.5, ("V1", "Z"): 0.5, ("Y", "Z"): 0.5,
         ("X", "Y"): 0.0},
        {"X": 1.0, "V1": 0.75, "Z": 0.5, "Y": 1.0})
    second = LinearGaussianSem(
        g.orient("V1", "X"),
        {("V1", "X"): 0.5, ("V1", "Z"): 0.5, ("Y", "Z"): 0.5,
         ("X", "Y"): 0.0},
        {"V1": 1.0, "X": 0.75, "Z": 0.5, "Y": 1.0})
    return g, first, second


def background_graphs(seed: int, count: int) -> list[Graph]:
    """Seeded random MPDAGs with 5-40 nodes, each with a random set of its
    undirected edges oriented at random, as ``apply_background`` orients
    them before closing.  The orientations need not fit the class, so some
    of these graphs have no consistent closure."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(5, 40)
        g = random_mpdag(rng, [f"N{i}" for i in range(n)],
                         edge_prob=min(0.5, rng.choice((1.5, 3.0, 6.0)) / (n - 1)),
                         orient_prob=rng.choice((0.0, 0.2)))
        for a, b in g.undirected_edges:
            if rng.random() < 0.5:
                g = g.orient(*((a, b) if rng.random() < 0.5 else (b, a)))
        out.append(g)
    return out


def reference_enumerate_dags(graph: Graph) -> list[Graph]:
    """The DAG class as first enumerated: try all 2^u orientations of the
    u undirected edges, ``undirected_edges[0]`` varying slowest and a -> b
    first, and keep the acyclic ones that add no unshielded collider.

    It uses no Meek rule, so it judges the closure, ``refine`` and the
    split walks of ``enumerate_dags`` and ``cidme_tree`` independently."""
    und = graph.undirected_edges
    base = list(graph.directed_edges)
    colliders = graph.unshielded_colliders()
    out = []
    for bits in itertools.product((0, 1), repeat=len(und)):
        oriented = base + [(a, b) if bit == 0 else (b, a)
                           for (a, b), bit in zip(und, bits)]
        candidate = Graph(graph.nodes, directed=oriented)
        if not candidate.directed_part_acyclic():
            continue
        if not candidate.unshielded_colliders() <= colliders:
            continue
        out.append(candidate)
    return out


def reference_table_probability(table, nodes: tuple[str, ...],
                                assignment) -> float:
    """Marginal probability of a partial assignment under a joint table
    whose axes are ``nodes``, summed by ``oracle._sums``, as ``numeric_gap``
    sums its tables.  A label that is not in ``nodes``, or a value other
    than 0 or 1 (``True``, ``1.0`` and ``np.int64(1)`` are 1), raises
    ``ValueError``."""
    import numpy as np
    pinned = []
    for v, value in assignment.items():
        if v not in nodes:
            raise ValueError(f"unknown node {v!r}")
        pinned.append((nodes.index(v), oracle._binary(v, value, "assignment")))
    return oracle._sums(np.asarray(table),
                        [oracle._index(len(nodes), pinned)])[0]


def reference_conditional(table, nodes, targets, given) -> float:
    """P(targets | given) under ``table``: two marginals summed afresh
    (through ``reference_table_probability``, whose sum a test can count at
    ``oracle._sums``, as it counts ``numeric_gap``'s planned sums)."""
    den = reference_table_probability(table, nodes, given) if given else 1.0
    return reference_table_probability(table, nodes,
                                       {**targets, **given}) / den


def reference_interventional_conditional(model: DiscreteModel, do, targets,
                                         given) -> float:
    """Ground truth f(targets | do, given): the conditional of the
    do-table from the truncated factorization."""
    return reference_conditional(model.interventional(do), model.dag.nodes,
                                 targets, given)


def reference_evaluate_expression(expr: DensityExpression, joint, nodes,
                                  assignment) -> float:
    """``evaluate_expression`` as first written: ``expr`` folded into
    Python functions of one assignment; a product multiplies with
    ``math.prod``, a marginal adds its body at each assignment of its
    variables in ``itertools.product`` order from 0.0, and every factor is
    the table's conditional, summed afresh for each call.
    ``oracle._compile`` builds one array of every assignment instead, and
    each of its cells must equal this to the last bit."""
    def factor(f):
        return lambda env: reference_conditional(
            joint, nodes, {v: env[v] for v in f.targets},
            {v: env[v] for v in f.given})

    def product(parts):
        return lambda env: math.prod(part(env) for part in parts)

    def marginal(variables, body):
        def ev(env):
            total = 0.0
            for values in itertools.product((0, 1), repeat=len(variables)):
                total += body({**env, **dict(zip(variables, values))})
            return total
        return ev

    def fraction(numerator, denominator):
        return lambda env: numerator(env) / denominator(env)

    return fold(expr, factor, product, marginal, fraction)(dict(assignment))


def reference_numeric_gap(graph: Graph, expr: DensityExpression, x, y, z,
                          rng: random.Random, trials: int = 1
                          ) -> tuple[float, int, int]:
    """``numeric_gap`` as first written: the same models from the same
    ``rng``, but every assignment evaluates the expression afresh through
    ``reference_evaluate_expression`` and sums its marginals afresh.
    ``oracle.numeric_gap`` builds the expression once per model and sums
    each marginal of a table once, and must give the same result to the
    last bit."""
    free = graph.sorted_nodes(set(x) | set(y) | set(z))
    dags = enumerate_dags(graph)
    worst = 0.0
    checks = 0
    for dag in dags:
        for _ in range(trials):
            model = DiscreteModel.random(dag, rng)
            joint = model.joint()
            for values in itertools.product((0, 1), repeat=len(free)):
                env = dict(zip(free, values))
                truth = reference_interventional_conditional(
                    model, {v: env[v] for v in x},
                    {v: env[v] for v in y}, {v: env[v] for v in z})
                got = reference_evaluate_expression(expr, joint,
                                                    graph.nodes, env)
                worst = max(worst, abs(got - truth))
                checks += 1
    return worst, len(dags), checks


def reference_wright_covariance(sem):
    """Covariance of a linear SEM by summing directed-path coefficient
    products (total effects) instead of inverting the system matrix:
    Cov(Xi, Xj) = sum_k Var(eps_k) * t(k -> i) * t(k -> j)."""
    import numpy as np
    dag, nodes = sem.dag, sem.dag.nodes
    order, pending = [], {v: len(dag.parents_of(v)) for v in nodes}
    ready = [v for v in nodes if pending[v] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for child in dag.children_of(v):
            pending[child] -= 1
            if pending[child] == 0:
                ready.append(child)
    effects = np.zeros((len(nodes), len(nodes)))
    # a column sums its parents' columns: any parents-first order is exact
    for j_name in order:
        j = nodes.index(j_name)
        effects[j, j] = 1.0
        for p in dag.parents_of(j_name):
            effects[:, j] += sem.coefficients[(p, j_name)] \
                * effects[:, nodes.index(p)]
    d = np.array([sem.noise_variances[v] for v in nodes])
    return effects.T @ np.diag(d) @ effects


def random_oracle_queries(seed: int, count: int):
    """Seeded (graph, x, y, z) queries on random MPDAGs of 4-8 nodes, with
    |X| and |Y| of 1 or 2 and |Z| of 0-2, as the verify benchmark poses."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nodes = [f"V{j}" for j in range(4 + i % 5)]
        g = random_mpdag(rng, nodes, 0.4, 0.3)
        pool = list(nodes)
        rng.shuffle(pool)
        a, b = rng.choice((1, 2)), rng.choice((1, 2))
        c = rng.randint(0, min(2, len(nodes) - a - b))
        out.append((g, pool[:a], pool[a:a + b], pool[a + b:a + b + c]))
    return out


def reference_refine(graph: Graph, a: str, b: str) -> Graph:
    """``refine`` as first written: the oriented graph, then its closure.
    ``meek.refine`` builds one graph from ``graph``'s maps instead, and
    must give the same graph, class and errors."""
    return meek_closure(graph.orient(a, b))


def reference_apply_background(graph: Graph, orientations) -> Graph:
    """``apply_background`` as first written: ``orient`` each pair in turn
    (skipped when already directed that way, an error when directed the
    other way), then close.  ``meek.apply_background`` orients every pair
    on one copy of the maps and closes once, and must give the same graph,
    class and errors."""
    orientations = list(orientations)
    graph.check_nodes(v for pair in orientations for v in pair)
    g = graph
    for a, b in orientations:
        if g.has_directed(a, b):
            continue
        if g.has_directed(b, a):
            raise InconsistentOrientation(
                f"edge between {a!r} and {b!r} already oriented the other way")
        g = g.orient(a, b)
    return meek_closure(g)


def small_random_graphs(seed: int, count: int) -> list[Graph]:
    """Seeded graphs with 5-9 nodes, alternately a random MPDAG (with
    random background orientations, closed) and an arbitrary partially
    directed graph, which may be cyclic or not closed under the rules."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nodes = [f"N{j}" for j in range(rng.randint(5, 9))]
        p = rng.choice((0.25, 0.4, 0.55))
        if i % 2 == 0:
            out.append(random_mpdag(rng, nodes, p, rng.choice((0.0, 0.3))))
            continue
        directed, undirected = [], []
        for a, b in itertools.combinations(nodes, 2):
            if rng.random() < p:
                kind = rng.randrange(3)
                if kind == 2:
                    undirected.append((a, b))
                else:
                    directed.append((a, b) if kind == 0 else (b, a))
        out.append(Graph(nodes, directed, undirected))
    return out


def diamond_chain(k: int) -> Graph:
    """X0, then k chordal diamonds (``J -- A``, ``J -- B``, ``A -- B``,
    ``A -- J'``, ``B -- J'``), then ``J_k -- Y``: an undirected chordal
    MPDAG on 3k + 2 nodes with 2^k shortest X0-Y paths."""
    nodes, undirected, j = ["X0"], [], "X0"
    for i in range(1, k + 1):
        a, b, nxt = f"A{i}", f"B{i}", f"J{i}"
        nodes += [a, b, nxt]
        undirected += [(j, a), (j, b), (a, b), (a, nxt), (b, nxt)]
        j = nxt
    return Graph(nodes + ["Y"], undirected=undirected + [(j, "Y")])


# -- reference: paths judged node by node ------------------------------------


def reference_is_possibly_directed_path(graph: Graph, path) -> bool:
    """The pairwise condition on an explicit node sequence: distinct nodes,
    consecutive ones adjacent, and no edge ``path[i] <- path[j]`` for any
    i < j.  A GraphError names the least label of ``path`` that is not a
    node."""
    graph.check_nodes(path)
    n = len(path)
    if len(set(path)) != n or n == 0:
        return False
    if not all(map(graph.adjacent, path, path[1:])):
        return False
    return not any(graph.has_directed(path[j], path[i])
                   for i in range(n) for j in range(i + 1, n))


def reference_triple_status(graph: Graph, a: str, b: str, c: str):
    """Status of b as interior node of the segment a, b, c: "collider" when
    both edges point into b; "noncollider" (definite) when an edge points
    out of b, or when both edges are ``--`` and a, c are not adjacent; None
    when b has no definite status on the segment."""
    if graph.has_directed(a, b) and graph.has_directed(c, b):
        return "collider"
    if graph.has_directed(b, a) or graph.has_directed(b, c):
        return "noncollider"
    if graph.has_undirected(a, b) and graph.has_undirected(b, c) \
            and not graph.adjacent(a, c):
        return "noncollider"
    return None


def reference_open_definite_status_path(graph: Graph, path, zs) -> bool:
    """Distinct nodes, consecutive ones adjacent, and every interior triple
    of definite status by ``reference_triple_status`` and open given Z: a
    collider with a directed path into Z, a non-collider outside Z.  It
    shares no code with ``dsep``'s open-triple rule, which it judges.  A
    GraphError names the least label of ``path`` and ``zs`` that is not a
    node."""
    z = frozenset(zs)
    graph.check_nodes(z.union(path))
    if len(path) < 2 or len(set(path)) != len(path):
        return False
    if not all(map(graph.adjacent, path, path[1:])):
        return False
    an_z = ancestors(graph, z)
    for a, b, c in zip(path, path[1:], path[2:]):
        status = reference_triple_status(graph, a, b, c)
        if status is None or (status == "collider" and b not in an_z) \
                or (status == "noncollider" and b in z):
            return False
    return True


def reference_dag_d_separated(dag: Graph, xs, ys, zs=()) -> bool:
    """Classic d-separation in a DAG via the moral graph of the ancestral
    subgraph: marry parents, drop directions, delete Z, test connectivity."""
    x, y, z = dag.check_disjoint(xs, ys, zs)
    if not x or not y:
        raise ValueError("d-separation needs nonempty endpoint sets")
    if dag.classify() is not GraphClass.DAG:
        raise GraphError("moralization test requires a DAG")

    rel = ancestors(dag, x | y | z)
    adj: dict[str, set[str]] = {v: set() for v in rel}
    for a, b in dag.directed_edges:
        if a in rel and b in rel:
            adj[a].add(b)
            adj[b].add(a)
    for v in rel:
        parents_in = [p for p in dag.parents_of(v) if p in rel]
        for p, q in itertools.combinations(parents_in, 2):
            adj[p].add(q)
            adj[q].add(p)

    seen = set(x)
    frontier = list(x)
    while frontier:
        node = frontier.pop()
        for nxt in adj[node]:
            if nxt in z or nxt in seen:
                continue
            if nxt in y:
                return False
            seen.add(nxt)
            frontier.append(nxt)
    return True


# -- reference: the sweep rules, the sink scan and the class ------------------
#
# The rules and the extension search as first written: every sweep tries
# R1-R4 on every undirected edge of an immutable graph, and every sink pick
# scans the nodes in order.  The fast versions in mpdagid.meek, and
# Graph.classify, which runs the closure, must give the same answers.


def _ref_r1(g, b, c):
    return any(not g.adjacent(a, c) for a in g.parents_of(b) if a != c)


def _ref_r2(g, a, c):
    return bool(g.children_of(a) & g.parents_of(c))


def _ref_r3(g, a, b):
    shared = sorted(g.undirected_neighbors_of(a) & g.parents_of(b))
    for i, c in enumerate(shared):
        for d in shared[i + 1:]:
            if not g.adjacent(c, d):
                return True
    return False


def _ref_r4(g, a, b):
    for d in g.undirected_neighbors_of(a):
        if d == b or g.adjacent(d, b):
            continue
        for c in g.children_of(d) & g.parents_of(b):
            if g.adjacent(a, c):
                return True
    return False


def _ref_rule_applications(graph):
    return [(x, y) for a, b in graph.undirected_edges
            for x, y in ((a, b), (b, a))
            if _ref_r1(graph, x, y) or _ref_r2(graph, x, y)
            or _ref_r3(graph, x, y) or _ref_r4(graph, x, y)]


def reference_consistent_extension(graph):
    if not graph.directed_part_acyclic():
        return None
    g = graph
    remaining = set(g.nodes)
    oriented = []

    def sink_ok(v):
        if g.children_of(v) & remaining:
            return False
        nbs = g.undirected_neighbors_of(v) & remaining
        others = (g.neighbors_of(v) & remaining) - {v}
        return all(g.adjacent(u, w) for u in nbs for w in others if w != u)

    while remaining:
        v = next((v for v in g.nodes if v in remaining and sink_ok(v)), None)
        if v is None:
            return None
        oriented += [(u, v) for u in g.undirected_neighbors_of(v) & remaining]
        remaining.discard(v)
    return Graph(graph.nodes, set(graph.directed_edges) | set(oriented))


def reference_classify(graph: Graph) -> GraphClass:
    """The class as first computed, without the closure: cyclic graphs are
    PDAGs, graphs with no undirected edge DAGs, and the rest MPDAGs when no
    rule applies and a consistent extension exists."""
    if not graph.directed_part_acyclic():
        return GraphClass.PDAG
    if not graph.undirected_edges:
        return GraphClass.DAG
    if (not _ref_rule_applications(graph)
            and reference_consistent_extension(graph) is not None):
        return GraphClass.MPDAG
    return GraphClass.PDAG


def reference_decisive_nodes(graph: Graph) -> set[str]:
    """The nodes left once nodes with no undirected edge are removed while
    one has no child or no parent left: the removals the argument for the
    restricted extension search licenses.  Removing nodes keeps each such
    node a sink or a source, so each round removes them all."""
    left = set(graph.nodes)
    while True:
        gone = {v for v in left if not graph.undirected_neighbors_of(v)
                and (not graph.children_of(v) & left
                     or not graph.parents_of(v) & left)}
        if not gone:
            return left
        left -= gone


def closed_random_pdags(seed: int, count: int) -> list[Graph]:
    """Seeded PDAGs on 4-9 nodes with an acyclic directed part to which no
    rule applies, some of them with no consistent extension.  Every other
    graph has undirected edges only within the first and within the last
    nodes of a random order, and every edge at the one or two nodes
    between them directed, so that directed-only nodes sit between
    undirected ones."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        layered = len(out) % 2
        nodes = [f"N{j}" for j in range(rng.randint(6 if layered else 4,
                                                    9 if layered else 8))]
        order = rng.sample(nodes, len(nodes))
        top = rng.randint(1, 4)
        middle = range(top, top + rng.randint(1, 2))
        p = rng.choice((0.6, 0.8) if layered else (0.3, 0.45, 0.6))
        q = 0.8 if layered else rng.choice((0.3, 0.5, 0.7))
        directed, undirected = [], []
        for (i, a), (j, b) in itertools.combinations(enumerate(order), 2):
            if rng.random() >= p:
                continue
            apart = layered and (i in middle or j in middle
                                 or (i < top) != (j < top))
            (directed if apart or rng.random() >= q else undirected
             ).append((a, b))
        g = Graph(nodes, directed, undirected)
        if not _ref_rule_applications(g):
            out.append(g)
    return out


def sparse_pool_graphs() -> list[Graph]:
    """The 120 graphs of the sparse identification benchmark pool, drawn
    as its generator draws them: ``random_mpdag`` on 40, 80 and 160 nodes
    with expected degree about 3 and background probability 0.2."""
    return [random_mpdag(random.Random(f"sparse_identify/s{n}-{i}"),
                         [f"V{j}" for j in range(n)],
                         edge_prob=3.0 / (n - 1), orient_prob=0.2)
            for n in (40, 80, 160) for i in range(40)]


# -- reference: the text parser as first written -------------------------------


def reference_parse_graph_text(text: str) -> Graph:
    """``parse_graph_text`` as first written: each line cut at '#' and
    stripped, then split."""
    order: dict[str, None] = {}
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        is_edge = len(parts) == 3 and parts[1] in ("->", "--", "<-")
        if parts[0] == "node" and not is_edge:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'node NAME'")
            order[parts[1]] = None
            continue
        if not is_edge:
            raise ParseError(f"line {lineno}: expected 'A -> B', 'A <- B' or 'A -- B'")
        a, op, b = parts
        order[a] = order[b] = None
        if op == "--":
            undirected.append((a, b))
        elif op == "->":
            directed.append((a, b))
        else:
            directed.append((b, a))
    try:
        return Graph(order, directed, undirected)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


# -- reference: the JSON form of a graph or an expression ----------------------


def reference_graph_obj(graph) -> dict:
    """A graph's JSON form as a dict, and an expression's as
    ``expression_to_json`` gives it: with this as ``default``,
    ``json.dumps(payload, indent=2, default=reference_graph_obj)`` is the
    reference for every ``--json`` payload and graph.  Like any ``default``,
    it raises TypeError on what it cannot write."""
    if isinstance(graph, (Factor, Product, MarginalOver, Fraction)):
        return expression_to_json(graph)
    if not isinstance(graph, Graph):
        raise TypeError(f"Object of type {type(graph).__name__} "
                        "is not JSON serializable")
    return {"nodes": list(graph.nodes),
            "edges": [{"a": a, "b": b, "kind": "->"}
                      for a, b in graph.directed_edges]
                     + [{"a": a, "b": b, "kind": "--"}
                        for a, b in graph.undirected_edges]}
