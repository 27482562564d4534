"""Brute-force ground truth for the graphical machinery.

Everything here works on the equivalence class of a maximally oriented
graph by explicit enumeration: list every DAG in the class, answer
d-separation on a DAG by moralization, and attach parametric models
(binary Bayesian networks, linear Gaussian structural equation models) so
that identification output can be checked numerically against truncated
factorization or interventional Gaussian conditioning.
"""

from __future__ import annotations

import functools
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

    The model keeps read-only copies of the CPTs, checked node by node,
    shape before range, with every range compared at once.  It places each
    node's CPT factor when it is made, and builds each do-assignment's
    joint table once, so a table it has handed out can never go stale."""

    def __init__(self, dag: Graph, cpts: Mapping[str, np.ndarray]):
        import numpy as np
        if dag.classify() is not GraphClass.DAG:
            raise GraphError("a discrete model needs a DAG")
        self.dag = dag
        self.parent_order = {v: dag.sorted_nodes(dag.parents_of(v))
                             for v in dag.nodes}
        for v in (*dag.nodes, *cpts):
            if v not in cpts or v not in self.parent_order:
                raise ValueError(f"no CPT for {v!r}" if v not in cpts
                                 else f"CPT for {v!r}, which is not a node")
        tables = [np.array(cpts[v], dtype=float) for v in dag.nodes]
        cells = np.concatenate([table.ravel() for table in tables])
        in_range = np.all((cells > 0.0) & (cells < 1.0))  # NaN fails too
        self.cpts: Dict[str, np.ndarray] = {}
        for v, table in zip(dag.nodes, tables):
            want = (2,) * len(self.parent_order[v])
            if table.shape != want:
                raise ValueError(f"CPT for {v!r} has shape {table.shape}, "
                                 f"expected {want}")
            if not (in_range or np.all((table > 0.0) & (table < 1.0))):
                raise ValueError(f"CPT for {v!r} must lie strictly in (0, 1)")
            table.flags.writeable = False
            self.cpts[v] = table
        n = len(dag.nodes)
        self._factors = []
        for i, v in enumerate(dag.nodes):
            axes = [dag.index(p) for p in self.parent_order[v]]
            # v's axis moves from the front to its place among the parents
            k = sum(ax < i for ax in axes)
            perm = [*range(1, k + 1), 0, *range(k + 1, len(axes) + 1)]
            self._factors.append(np.array(
                [1.0 - self.cpts[v], self.cpts[v]]).transpose(perm).reshape(
                    [2 if j == i or j in axes else 1 for j in range(n)]))
        self._tables: Dict[tuple, np.ndarray] = {}

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
        ones, one broadcast factor per node: the CPT factor placed when
        the model was made, or, for an intervened node, the indicator of
        its set value (a row of ``np.eye(2)``, placed once per axis, value
        and node count and shared read-only by every table).  The result
        is read-only and kept per do-assignment, so a repeated call
        returns the same array.

        Raises ``ValueError`` when a key of ``do`` is not a node or a
        value is not 0 or 1.
        """
        for v, value in do.items():
            self.dag.index(v)
            _binary(v, value, "do")
        key = tuple(sorted(do.items()))
        if key not in self._tables:
            import numpy as np
            n = len(self.dag.nodes)
            table = np.ones((2,) * n)
            for i, v in enumerate(self.dag.nodes):
                table = table * (_indicator(i, int(do[v]), n)
                                 if v in do else self._factors[i])
            table.flags.writeable = False
            self._tables[key] = table
        return self._tables[key]


def _place(factor: np.ndarray, axes: list[int], n: int) -> np.ndarray:
    """``factor`` with its k-th axis moved to place ``axes[k]`` of ``n``,
    every other place of length 1, so that it broadcasts onto a table."""
    import numpy as np
    shape = [2 if ax in axes else 1 for ax in range(n)]
    return factor.transpose(np.argsort(axes)).reshape(shape)


@functools.cache
def _indicator(i: int, value: int, n: int) -> np.ndarray:
    """The point mass at ``value`` on axis ``i`` of ``n``, read-only."""
    import numpy as np
    out = _place(np.eye(2)[value], [i], n)
    out.flags.writeable = False
    return out


def _binary(v: str, value, kind: str) -> int:
    """``value``, equal to 0 or 1 (``True`` and ``1.0`` are), as an int."""
    if value not in (0, 1):
        raise ValueError(f"{kind} value for {v!r} must be 0 or 1, "
                         f"got {value!r}")
    return int(value)


def _index(n: int, pinned: Iterable[tuple[int, int]]) -> tuple:
    """The index of a table with ``n`` axes that pins axis i to value v for
    each (i, v) of ``pinned`` and keeps every other axis whole."""
    index: list = [slice(None)] * n
    for i, v in pinned:
        index[i] = v
    return tuple(index)


def _sums(table: np.ndarray, indices: Iterable[tuple]) -> list[float]:
    """The sum of ``table[ix]`` for each index tuple, the one place the
    oracle sums a table, by the reduction ``ndarray.sum()`` runs."""
    import numpy as np
    return [float(np.add.reduce(table[ix], axis=None)) for ix in indices]


def table_probability(table: np.ndarray, nodes: tuple[str, ...],
                      assignment: Mapping[str, int]) -> float:
    """Marginal probability of a partial assignment under a joint table
    whose axes are ``nodes``.  A label that is not in ``nodes``, or a value
    other than 0 or 1 (``True``, ``1.0`` and ``np.int64(1)`` are 1), raises
    ``ValueError``."""
    import numpy as np
    pinned = []
    for v, value in assignment.items():
        if v not in nodes:
            raise ValueError(f"unknown node {v!r}")
        pinned.append((nodes.index(v), _binary(v, value, "assignment")))
    return _sums(np.asarray(table), [_index(len(nodes), pinned)])[0]


def _conditional(table: np.ndarray, nodes: tuple[str, ...]):
    """``conditional(targets, given)``, the probability of ``targets``
    given ``given`` under ``table``, each marginal summed once, in a memo
    keyed on the assignment's items that lives in this closure with the
    table itself (an ``id(table)`` key would outlive a freed table)."""
    pos = {v: i for i, v in enumerate(nodes)}
    sums: Dict[frozenset, float] = {}

    def probability(assignment: Mapping[str, int]) -> float:
        key = frozenset(assignment.items())
        if key not in sums:
            sums[key] = _sums(table, [_index(
                len(nodes), ((pos[v], value) for v, value in key))])[0]
        return sums[key]

    def conditional(targets, given):
        den = probability(given) if given else 1.0
        return probability({**targets, **given}) / den
    return conditional


def _compile(expr: DensityExpression, nodes: tuple[str, ...]):
    """``expr`` folded once into ``build(cond, env)``, an array with an
    axis per node, of length 2 where the node is free in ``expr`` and not
    pinned by ``env``.  A cell is the float one assignment's loop gives: a
    ``Factor`` cell is ``cond(targets, given)``; a product multiplies left
    to right from ones (``math.prod``); a marginal lays its axes last in
    ``variables`` order, flattens them in ``itertools.product`` order and
    keeps the last sum of ``np.cumsum``, which adds strictly left to
    right; a fraction divides cell by cell.  A label that is not in
    ``nodes``, or a marginal that lists a label twice, raises
    ``ValueError`` while folding."""
    import numpy as np
    n, pos = len(nodes), {v: i for i, v in enumerate(nodes)}
    groups = []  # label tuples, checked once the fold has met every node

    def factor(f: Factor):
        groups.append(tuple(dict.fromkeys(f.targets + f.given)))

        def build(cond, env):
            free = [v for v in dict.fromkeys(f.targets + f.given)
                    if v not in env]
            cells = []
            for values in itertools.product((0, 1), repeat=len(free)):
                at = {**env, **dict(zip(free, values))}
                cells.append(cond({v: at[v] for v in f.targets},
                                  {v: at[v] for v in f.given}))
            return _place(np.reshape(cells, (2,) * len(free)),
                          [pos[v] for v in free], n)
        return build

    def product(parts):
        return lambda cond, env: math.prod(
            (part(cond, env) for part in parts), start=np.ones((1,) * n))

    def marginal(variables, body):
        groups.append(variables)

        def build(cond, env):
            value = body(cond, {v: env[v] for v in env if v not in variables})
            summed, k = [pos[v] for v in variables], len(variables)
            value = np.moveaxis(value * _place(np.ones((2,) * k), summed, n),
                                summed, range(n - k, n))
            total = np.cumsum(value.reshape(value.shape[:n - k] + (-1,)), -1)
            return np.expand_dims(total[..., -1], sorted(summed))
        return build

    def fraction(numerator, denominator):
        def build(cond, env):
            top, bottom = numerator(cond, env), denominator(cond, env)
            if not bottom.all():  # as Python's float division raises
                raise ZeroDivisionError("float division by zero")
            return top / bottom
        return build

    build = fold(expr, factor, product, marginal, fraction)
    for labels in groups:
        for i, v in enumerate(labels):
            if v not in pos or v in labels[:i]:
                raise ValueError(f"unknown node {v!r} in the expression"
                                 if v not in pos else
                                 f"marginal lists {v!r} twice")
    return build


def evaluate_expression(expr: DensityExpression, joint: np.ndarray,
                        nodes: tuple[str, ...],
                        assignment: Mapping[str, int]) -> float:
    """Value of a density expression under an observational joint table,
    at a binary assignment of every free variable of the expression (more
    keys are allowed), built with the assigned nodes pinned.  A value not
    0 or 1, or a free variable with none, raises ``ValueError``."""
    build = _compile(expr, nodes)
    env = {v: _binary(v, value, "assignment")
           for v, value in assignment.items()}
    value = build(_conditional(joint, nodes), env)
    if 2 in value.shape:
        raise ValueError(
            f"no value for free node {nodes[value.shape.index(2)]!r}")
    return value.item()


def numeric_gap(graph: Graph, expr: DensityExpression, x: Collection[str],
                y: Collection[str], z: Collection[str], rng: random.Random,
                trials: int = 1) -> tuple[float, int, int]:
    """Check ``expr`` as f(y | do(x), z) against truncated factorization:
    on every DAG in ``graph``'s class, draw ``trials`` random binary models
    from ``rng`` and compare at every binary assignment of X, Y and Z.
    The sums are planned once per call: the index tuples of Y | Z and Z
    at each assignment of X (a set), shared where X pins them alike.  Per
    model ``expr`` is built once, X's axes first so that its cells come in
    comparison order, and each do-table sums each planned marginal once.

    Returns the worst absolute gap, the number of DAGs and the number of
    comparisons.  ``graph`` is capped at ``MAX_TABLE_NODES`` nodes."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if len(graph.nodes) > MAX_TABLE_NODES:
        raise GraphError(f"{len(graph.nodes)} nodes exceeds the joint-table "
                         f"cap ({MAX_TABLE_NODES})")
    import numpy as np
    nodes, pos = graph.nodes, {v: i for i, v in enumerate(graph.nodes)}
    xs = graph.sorted_nodes(set(x))
    rest = graph.sorted_nodes((set(y) | set(z)) - set(x))
    up, down = graph.sorted_nodes({*y, *z}), graph.sorted_nodes(set(z))
    dags = enumerate_dags(graph)
    build = _compile(expr, nodes)
    shared: Dict[tuple, tuple] = {}
    plan = []  # per assignment of X: do, index tuples, (num, den) slots
    for do_values in itertools.product((0, 1), repeat=len(xs)):
        do = dict(zip(xs, do_values))
        pinned = tuple(do[v] for v in xs if v in up)
        if pinned not in shared:
            slots: Dict[tuple, int] = {}
            rows = []
            for values in itertools.product((0, 1), repeat=len(rest)):
                env = {**do, **dict(zip(rest, values))}
                num, den = (tuple((pos[v], env[v]) for v in part)
                            for part in (up, down))
                rows.append((slots.setdefault(num, len(slots)),
                             slots.setdefault(den, len(slots)) if down else -1))
            shared[pinned] = [_index(len(nodes), key) for key in slots], rows
        plan.append((do, *shared[pinned]))
    shape = [2 if v in xs or v in rest else 1 for v in nodes]
    xaxes = [pos[v] for v in xs]
    worst = 0.0
    for dag in dags:
        for _ in range(trials):
            model = DiscreteModel.random(dag, rng)
            value = build(_conditional(model.joint(), nodes), {})
            for v, size, want in zip(nodes, value.shape, shape):
                if size > want:
                    raise ValueError(f"free node {v!r} of the expression "
                                     "is not in X, Y or Z")
            cells = np.moveaxis(np.broadcast_to(value, shape), xaxes,
                                range(len(xs))).reshape(len(plan), -1)
            for (do, indices, rows), row_cells in zip(plan, cells.tolist()):
                sums = _sums(model.interventional(do), indices) + [1.0]
                for cell, (num, den) in zip(row_cells, rows):
                    # slot -1 is the 1.0 that an empty Z divides by
                    worst = max(worst, abs(cell - sums[num] / sums[den]))
    return worst, len(dags), len(dags) * trials * 2 ** (len(xs) + len(rest))


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
