"""Brute-force ground truth for the graphical machinery.

Everything here works on the equivalence class of a maximally oriented
graph by explicit enumeration: list every DAG in the class, answer
d-separation on a DAG by moralization, and attach parametric models
(binary Bayesian networks, linear Gaussian structural equation models) so
that identification output can be checked numerically against truncated
factorization or interventional Gaussian conditioning.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Dict, Iterable, Mapping, Tuple

from .graph import Graph, GraphClass, GraphError
from .ident import DensityExpression, Factor, fold
from .meek import (InconsistentOrientation, apply_background, meek_closure,
                   pattern_of, refine)
from .reachability import ancestors

# numpy is imported inside the functions that use it, so that importing
# the package and every CLI subcommand but ``verify`` leave it unloaded
if TYPE_CHECKING:
    import numpy as np

MAX_ENUMERABLE_UNDIRECTED = 20
MAX_TABLE_NODES = 20  # a joint table of n binary nodes holds 2^n floats


# -- the DAG class ------------------------------------------------------------


def enumerate_dags(graph: Graph) -> list[Graph]:
    """Every DAG with the same adjacencies and directed edges as ``graph``
    and no unshielded collider that ``graph`` lacks, in the order of the
    orientations of ``graph.undirected_edges``: the first edge varies
    slowest, a -> b before b -> a.  ``numeric_gap`` and ``dags`` rely on it.
    The closed input is split on its first undirected edge and ``refine``d
    both ways, and so on down; no side is empty, since orientations fit the
    class exactly when their closure stays consistent (Meek 1995).  The
    input is capped at ``MAX_ENUMERABLE_UNDIRECTED`` undirected edges."""
    if len(graph.undirected_edges) > MAX_ENUMERABLE_UNDIRECTED:
        raise GraphError(f"{len(graph.undirected_edges)} undirected edges exceeds "
                         f"the enumeration cap ({MAX_ENUMERABLE_UNDIRECTED})")
    try:
        stack = [meek_closure(graph)]
    except InconsistentOrientation:
        return []
    out: list[Graph] = []
    while stack:
        g = stack.pop()
        undirected = g.undirected_edges
        if not undirected:
            out.append(g)
            continue
        a, b = undirected[0]
        stack += [refine(g, b, a), refine(g, a, b)]
    return out


def dag_d_separated(dag: Graph, xs, ys, zs=()) -> bool:
    """Classic d-separation in a DAG via the moral graph of the ancestral
    subgraph: marry parents, drop directions, delete Z, test connectivity."""
    x, y, z = dag.check_disjoint(xs, ys, zs)
    if not x or not y:
        raise ValueError("d-separation needs nonempty endpoint sets")
    if dag.classify() is not GraphClass.DAG:
        raise GraphError("moralization test requires a DAG")

    rel = ancestors(dag, x | y | z)
    adj: Dict[str, set[str]] = {v: set() for v in rel}
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


# -- random instances ----------------------------------------------------------


def random_dag(rng: random.Random, nodes: Iterable[str],
               edge_prob: float = 0.4) -> Graph:
    names = list(nodes)
    order = names[:]
    rng.shuffle(order)
    directed = [(order[i], order[j])
                for i in range(len(order)) for j in range(i + 1, len(order))
                if rng.random() < edge_prob]
    return Graph(names, directed=directed)


def random_mpdag(rng: random.Random, nodes: Iterable[str],
                 edge_prob: float = 0.4, orient_prob: float = 0.3) -> Graph:
    """A maximally oriented graph whose class contains a random DAG: take
    the DAG's pattern, re-orient a random subset of its undirected edges as
    in the DAG, and close under the orientation rules."""
    dag = random_dag(rng, nodes, edge_prob)
    cp = pattern_of(dag)
    picks = [(a, b) if dag.has_directed(a, b) else (b, a)
             for a, b in cp.undirected_edges if rng.random() < orient_prob]
    return apply_background(cp, picks)


# -- binary Bayesian network over a DAG ----------------------------------------


class DiscreteModel:
    """All variables binary; one CPT per node, indexed by the node's
    parents in graph node order.  ``cpts[v]`` has shape ``(2,) * k`` and
    stores P(v = 1 | parent values).

    The model keeps read-only copies of the CPTs and builds each node's
    CPT factor and each do-assignment's joint table once, so a table it
    has handed out can never go stale."""

    def __init__(self, dag: Graph, cpts: Mapping[str, np.ndarray]):
        import numpy as np
        if dag.classify() is not GraphClass.DAG:
            raise GraphError("a discrete model needs a DAG")
        self.dag = dag
        self.parent_order = {v: dag.sorted_nodes(dag.parents_of(v))
                             for v in dag.nodes}
        self.cpts: Dict[str, np.ndarray] = {}
        for v in dag.nodes:
            table = np.array(cpts[v], dtype=float)
            want = (2,) * len(self.parent_order[v])
            if table.shape != want:
                raise ValueError(f"CPT for {v!r} has shape {table.shape}, "
                                 f"expected {want}")
            if not np.all((table > 0.0) & (table < 1.0)):  # NaN fails too
                raise ValueError(f"CPT for {v!r} must lie strictly in (0, 1)")
            table.flags.writeable = False
            self.cpts[v] = table
        self._tables: Dict[tuple, np.ndarray] = {}
        self._factors: list[np.ndarray] = []

    @classmethod
    def random(cls, dag: Graph, rng: random.Random) -> "DiscreteModel":
        import numpy as np
        cpts = {}
        for v in dag.nodes:
            k = len(dag.parents_of(v))
            vals = [rng.uniform(0.1, 0.9) for _ in range(2 ** k)]
            cpts[v] = np.asarray(vals).reshape((2,) * k)
        return cls(dag, cpts)

    def joint(self) -> np.ndarray:
        """Observational joint table, axes in graph node order."""
        return self.interventional({})

    def interventional(self, do: Mapping[str, int]) -> np.ndarray:
        """Joint under do(``do``) by truncated factorization: intervened
        nodes become point masses, every other factor is kept.

        The table is a product taken in graph node order from a tensor of
        ones, one broadcast factor per node: the node's CPT, stacked as
        ``(1 - p1, p1)`` on its own axis and laid onto its parents' axes,
        or, for an intervened node, the indicator of its set value.  The
        result is read-only and kept per do-assignment, so a repeated
        call returns the same array.  Only the indicators are built per call.

        Raises ``ValueError`` when a key of ``do`` is not a node or a
        value is not 0 or 1.
        """
        for v, value in do.items():
            self.dag.index(v)
            if value not in (0, 1):
                raise ValueError(f"do value for {v!r} must be 0 or 1, "
                                 f"got {value!r}")
        key = tuple(sorted(do.items()))
        if key not in self._tables:
            import numpy as np
            nodes = self.dag.nodes

            def place(factor, axes):
                # move each axis of the factor to its node's place
                shape = [2 if ax in axes else 1 for ax in range(len(nodes))]
                return factor.transpose(np.argsort(axes)).reshape(shape)

            if not self._factors:
                self._factors = [
                    place(np.stack([1.0 - self.cpts[v], self.cpts[v]]),
                          [i] + [self.dag.index(p) for p in self.parent_order[v]])
                    for i, v in enumerate(nodes)]
            table = np.ones((2,) * len(nodes))
            for i, v in enumerate(nodes):
                factor = self._factors[i]
                if v in do:
                    factor = place(np.array([do[v] == 0, do[v] == 1],
                                            dtype=float), [i])
                table = table * factor
            table.flags.writeable = False
            self._tables[key] = table
        return self._tables[key]


def table_probability(table: np.ndarray, nodes: tuple[str, ...],
                      assignment: Mapping[str, int]) -> float:
    """Marginal probability of a partial assignment under a joint table."""
    import numpy as np
    index = [slice(None)] * len(nodes)
    for v, val in assignment.items():
        index[nodes.index(v)] = val
    return float(np.asarray(table)[tuple(index)].sum())


def _conditional(table: np.ndarray, nodes: tuple[str, ...]):
    """``conditional(targets, given)``, the probability of ``targets``
    given ``given`` under ``table``, each marginal summed once, in a memo
    keyed on the assignment's items that lives in this closure with the
    table itself (an ``id(table)`` key would outlive a freed table)."""
    sums: Dict[frozenset, float] = {}

    def probability(assignment: Mapping[str, int]) -> float:
        key = frozenset(assignment.items())
        if key not in sums:
            sums[key] = table_probability(table, nodes, assignment)
        return sums[key]

    def conditional(targets, given):
        den = probability(given) if given else 1.0
        return probability({**targets, **given}) / den
    return conditional


def _compile(expr: DensityExpression):
    """``expr`` folded once into a function of ``(env, conditional)``:
    products multiply left to right from 1, marginals sum in
    ``itertools.product`` order, a ``Factor`` is ``conditional``."""

    def factor(f: Factor):
        return lambda env, cond: cond({v: env[v] for v in f.targets},
                                      {v: env[v] for v in f.given})

    def product(parts):
        return lambda env, cond: math.prod(part(env, cond) for part in parts)

    def marginal(variables, body):
        def ev(env: Dict[str, int], cond) -> float:
            total = 0.0
            for values in itertools.product((0, 1), repeat=len(variables)):
                total += body({**env, **dict(zip(variables, values))}, cond)
            return total
        return ev

    def fraction(numerator, denominator):
        return lambda env, cond: numerator(env, cond) / denominator(env, cond)

    return fold(expr, factor, product, marginal, fraction)


def evaluate_expression(expr: DensityExpression, joint: np.ndarray,
                        nodes: tuple[str, ...],
                        assignment: Mapping[str, int]) -> float:
    """Value of a density expression under an observational joint table,
    at a (binary) assignment of every free variable of the expression."""
    return _compile(expr)(dict(assignment), _conditional(joint, nodes))


def numeric_gap(graph: Graph, expr: DensityExpression, x: Collection[str],
                y: Collection[str], z: Collection[str], rng: random.Random,
                trials: int = 1) -> tuple[float, int, int]:
    """Check ``expr`` as f(y | do(x), z) against truncated factorization:
    on every DAG in ``graph``'s class, draw ``trials`` random binary models
    from ``rng`` and compare at every binary assignment of X, Y and Z.
    ``expr`` is folded once, each model builds its CPT factors once, and
    each marginal of the joint and of each do-table is summed once.

    Returns the worst absolute gap, the number of DAGs and the number of
    comparisons.  ``graph`` is capped at ``MAX_TABLE_NODES`` nodes."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if len(graph.nodes) > MAX_TABLE_NODES:
        raise GraphError(f"{len(graph.nodes)} nodes exceeds the joint-table "
                         f"cap ({MAX_TABLE_NODES})")
    free = graph.sorted_nodes(set(x) | set(y) | set(z))
    dags = enumerate_dags(graph)
    evaluate = _compile(expr)
    worst = 0.0
    checks = 0
    for dag in dags:
        for _ in range(trials):
            model = DiscreteModel.random(dag, rng)
            observed = _conditional(model.joint(), graph.nodes)
            truths = {}  # one conditional per do-assignment
            for values in itertools.product((0, 1), repeat=len(free)):
                env = dict(zip(free, values))
                do = {v: env[v] for v in x}
                key = tuple(do.values())
                if key not in truths:
                    truths[key] = _conditional(model.interventional(do),
                                               dag.nodes)
                truth = truths[key]({v: env[v] for v in y},
                                    {v: env[v] for v in z})
                worst = max(worst, abs(evaluate(env, observed) - truth))
                checks += 1
    return worst, len(dags), checks


# -- linear Gaussian structural equation models ---------------------------------


class LinearGaussianSem:
    """Zero-mean-by-default linear SEM over a DAG.  Every directed edge
    must carry a coefficient (zero is allowed, which keeps the edge in the
    graph while silencing it)."""

    def __init__(self, dag: Graph,
                 coefficients: Mapping[Tuple[str, str], float],
                 noise_variances: Mapping[str, float],
                 intercepts: Mapping[str, float] | None = None):
        if dag.classify() is not GraphClass.DAG:
            raise GraphError("a linear SEM needs a DAG")
        edges = set(dag.directed_edges)
        if set(coefficients) != edges:
            raise ValueError("coefficients must be keyed exactly by the "
                             "directed edges (parent, child)")
        if set(noise_variances) != set(dag.nodes):
            raise ValueError("every node needs a noise variance")
        if any(v < 0 for v in noise_variances.values()):
            raise ValueError("noise variances must be nonnegative")
        self.dag = dag
        self.coefficients = dict(coefficients)
        self.noise_variances = dict(noise_variances)
        self.intercepts = dict(intercepts or {})

    def _system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        import numpy as np
        nodes = self.dag.nodes
        n = len(nodes)
        b = np.zeros((n, n))
        for (a, c), coef in self.coefficients.items():
            b[nodes.index(c), nodes.index(a)] = coef
        d = np.array([self.noise_variances[v] for v in nodes])
        c = np.array([self.intercepts.get(v, 0.0) for v in nodes])
        return b, d, c

    def mean(self) -> np.ndarray:
        import numpy as np
        b, _, c = self._system()
        return np.linalg.solve(np.eye(len(c)) - b, c)

    def covariance(self) -> np.ndarray:
        import numpy as np
        b, d, _ = self._system()
        t = np.linalg.inv(np.eye(len(d)) - b)
        return t @ np.diag(d) @ t.T

    def intervened(self, do: Mapping[str, float]) -> "LinearGaussianSem":
        """do() surgery: sever coefficients into intervened nodes, zero
        their noise, pin their intercepts to the set values."""
        coefficients = {edge: (0.0 if edge[1] in do else coef)
                        for edge, coef in self.coefficients.items()}
        variances = {v: (0.0 if v in do else var)
                     for v, var in self.noise_variances.items()}
        intercepts = {v: self.intercepts.get(v, 0.0) for v in self.dag.nodes}
        intercepts.update(do)
        return LinearGaussianSem(self.dag, coefficients, variances, intercepts)

    def conditional_expectation(self, target: str,
                                given: Mapping[str, float]) -> float:
        import numpy as np
        nodes = self.dag.nodes
        mu = self.mean()
        sigma = self.covariance()
        ti = nodes.index(target)
        if not given:
            return float(mu[ti])
        gi = [nodes.index(v) for v in given]
        gap = np.array([given[v] for v in given]) - mu[gi]
        weights = np.linalg.solve(sigma[np.ix_(gi, gi)], sigma[gi, ti])
        return float(mu[ti] + weights @ gap)


# -- counterexample checking ----------------------------------------------------


class DagNotInClass(ValueError):
    pass


@dataclass(frozen=True)
class CounterexampleReport:
    covariance_gap: float
    effect_first: float
    effect_second: float

    @property
    def effect_gap(self) -> float:
        return abs(self.effect_first - self.effect_second)


def verify_counterexample(graph: Graph, first: LinearGaussianSem,
                          second: LinearGaussianSem,
                          do: Mapping[str, float], target: str,
                          given: Mapping[str, float],
                          tol: float = 1e-9) -> CounterexampleReport:
    """Check that two SEMs witness non-identifiability over ``graph``'s
    class: both DAGs belong to the class, the observational (zero-mean
    Gaussian) laws coincide up to ``tol``, and the report carries the two
    interventional conditional expectations for comparison."""
    import numpy as np
    members = set(enumerate_dags(graph))
    for sem in (first, second):
        if sem.dag not in members:
            raise DagNotInClass(f"{sem.dag} is not in the class of {graph}")
        if any(abs(v) > 0 for v in sem.intercepts.values()):
            raise ValueError("observational SEMs must be zero-mean")
    gap = float(np.max(np.abs(first.covariance() - second.covariance())))
    if gap > tol:
        raise ValueError(
            f"the two SEMs disagree observationally (max gap {gap:.3e})")
    e1 = first.intervened(do).conditional_expectation(target, given)
    e2 = second.intervened(do).conditional_expectation(target, given)
    return CounterexampleReport(gap, e1, e2)
