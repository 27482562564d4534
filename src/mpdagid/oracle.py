"""Brute-force ground truth for the graphical machinery.

Everything here works on the equivalence class of a maximally oriented
graph by explicit enumeration: list every DAG in the class and attach
parametric models (binary Bayesian networks, linear Gaussian structural
equation models) so that identification output can be checked
numerically against truncated factorization or interventional Gaussian
conditioning.
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

# numpy is imported inside the functions that use it, so that importing
# the package and every CLI subcommand but ``verify`` leave it unloaded
if TYPE_CHECKING:
    import numpy as np

MAX_ENUMERABLE_UNDIRECTED = 20
MAX_TABLE_NODES = 20  # a joint table of n binary nodes holds 2^n floats
MAX_TABLE_WORK = 2 ** 30  # table cells numeric_gap may fill, about 30 s
MIN_TABLE_CELLS = 2 ** 10  # a model's Python work per table, in cells


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
    shape before range.  It places each node's CPT factor when it is made,
    and builds each do-assignment's joint table once, so a table it has
    handed out can never go stale."""

    def __init__(self, dag: Graph, cpts: Mapping[str, np.ndarray]):
        import numpy as np
        layout = _Layout(dag)
        for v in (*dag.nodes, *cpts):
            if v not in cpts or v not in layout.parent_order:
                raise ValueError(f"no CPT for {v!r}" if v not in cpts
                                 else f"CPT for {v!r}, which is not a node")
        tables = [np.array(cpts[v], dtype=float) for v in dag.nodes]
        for v, table in zip(dag.nodes, tables):
            want = (2,) * len(layout.parent_order[v])
            if table.shape != want:
                raise ValueError(f"CPT for {v!r} has shape {table.shape}, "
                                 f"expected {want}")
            if not np.all((table > 0.0) & (table < 1.0)):  # NaN fails too
                raise ValueError(f"CPT for {v!r} must lie strictly in (0, 1)")
            table.flags.writeable = False
        self._fill(layout, tables)

    @classmethod
    def random(cls, dag: Graph, rng: random.Random) -> "DiscreteModel":
        return cls._drawn(_Layout(dag), rng)

    @classmethod
    def _drawn(cls, layout: "_Layout", rng: random.Random) -> "DiscreteModel":
        """A model of ``layout``'s DAG, its CPT cells drawn in node order."""
        import numpy as np
        values = np.array([rng.uniform(0.1, 0.9) for _ in range(layout.size)])
        values.flags.writeable = False
        model = cls.__new__(cls)
        model._fill(layout, [values[cut].reshape(shape)
                             for cut, shape, _, _ in layout.places])
        return model

    def _fill(self, layout: "_Layout", tables: list) -> None:
        import numpy as np
        self.dag, self.parent_order = layout.dag, layout.parent_order
        self.cpts: Dict[str, np.ndarray] = dict(zip(layout.dag.nodes, tables))
        self._factors = [np.array([1.0 - table, table]).transpose(perm)
                         .reshape(shape) for table, (_, _, perm, shape)
                         in zip(tables, layout.places)]
        self._tables, self._products = {}, {}  # per assignment, per set

    def joint(self) -> np.ndarray:
        """Observational joint table, axes in graph node order."""
        return self.interventional({})

    def interventional(self, do: Mapping[str, int]) -> np.ndarray:
        """Joint under do(``do``) by truncated factorization: intervened
        nodes become point masses, every other factor is kept.

        The product of the kept nodes' CPT factors, placed when the model
        was made, is taken in graph node order from a tensor of ones and
        kept per set of intervened nodes.  The table is that times each
        intervened node's indicator in node order (a row of ``np.eye(2)``,
        placed once per axis, value and node count and shared read-only);
        factor cells lie in (0, 1] and indicator cells are 0.0 or 1.0, so
        no bit moves.  The result is read-only and kept per do-assignment,
        so a repeated call returns the same array.

        Raises ``ValueError`` when a key of ``do`` is not a node or a
        value is not 0 or 1.
        """
        for v, value in do.items():
            self.dag.index(v)
            _binary(v, value, "do")
        key = tuple(sorted(do.items()))
        if key not in self._tables:
            import numpy as np
            nodes, held = self.dag.nodes, tuple(v for v, _ in key)
            if held not in self._products:
                self._products[held] = math.prod(
                    (f for v, f in zip(nodes, self._factors) if v not in do),
                    start=np.ones((2,) * len(nodes)))
            table = math.prod((_indicator(i, int(do[v]), len(nodes))
                               for i, v in enumerate(nodes) if v in do),
                              start=self._products[held])
            table.flags.writeable = False
            self._tables[key] = table
        return self._tables[key]


class _Layout:
    """Each node's parents, CPT slice and shape, and factor placement, for
    every model of one DAG.  Never cached on a ``Graph``: equal graphs may
    order their nodes, and so the axes, differently."""

    def __init__(self, dag: Graph):
        if dag.classify() is not GraphClass.DAG:
            raise GraphError("a discrete model needs a DAG")
        self.dag, n, self.size, self.places = dag, len(dag.nodes), 0, []
        self.parent_order = {v: dag.sorted_nodes(dag.parents_of(v))
                             for v in dag.nodes}
        for i, v in enumerate(dag.nodes):
            axes = [dag.index(p) for p in self.parent_order[v]]
            k, cells = sum(ax < i for ax in axes), 2 ** len(axes)
            self.places.append((
                slice(self.size, self.size + cells), (2,) * len(axes),
                [*range(1, k + 1), 0, *range(k + 1, len(axes) + 1)],
                [2 if j == i or j in axes else 1 for j in range(n)]))
            self.size += cells


@functools.cache
def _indicator(i: int, value: int, n: int) -> np.ndarray:
    """The point mass at ``value`` on axis ``i`` of ``n``, read-only."""
    import numpy as np
    out = np.eye(2)[value].reshape([2 if j == i else 1 for j in range(n)])
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


def _compile(expr: DensityExpression, nodes: tuple[str, ...]):
    """``expr`` folded into ``build(table)``, an array with an axis per
    node, of length 2 where the node is free in ``expr``.  A cell is the
    float one assignment's loop gives: a ``Factor`` cell divides the
    table's sum that pins targets and given by the one that pins the given
    (or 1.0), each sum a slot shared by every factor and summed once per
    table; a product multiplies left to right from ones (``math.prod``); a
    marginal lays its axes last in ``variables`` order, flattens them in
    ``itertools.product`` order and keeps the last sum of ``np.cumsum``,
    which adds strictly left to right; a fraction divides cell by cell.
    Where the loop would divide by zero, a fraction cell over 0 is nan, as
    is a factor cell of two zero sums, and no later step makes nan finite.
    A first fold collects the labels: one that is not in ``nodes``, or a
    marginal that lists a label twice, raises ``ValueError`` before the
    second fold plans the build."""
    import numpy as np
    n, pos = len(nodes), {v: i for i, v in enumerate(nodes)}
    groups = fold(expr, lambda f: [tuple(dict.fromkeys(f.targets + f.given))],
                  lambda parts: sum(parts, []),
                  lambda variables, body: [*body, variables],
                  lambda top, bottom: top + bottom)  # labels in fold order
    for labels in groups:
        for i, v in enumerate(labels):
            if v not in pos or v in labels[:i]:
                raise ValueError(f"unknown node {v!r} in the expression"
                                 if v not in pos else
                                 f"marginal lists {v!r} twice")
    slots: Dict[tuple, int] = {}  # (axis, value) pairs by axis -> slot

    def slot(labels, at) -> int:  # labels in node order, each once
        key = tuple((pos[v], at[v]) for v in labels)
        return slots.setdefault(key, len(slots))

    def factor(f: Factor):
        num, den = (sorted({*part}, key=pos.get)
                    for part in (f.targets + f.given, f.given))
        cells = []
        for values in itertools.product((0, 1), repeat=len(num)):
            at = dict(zip(num, values))
            cells.append((slot(num, at), slot(den, at) if den else -1))
        top, bottom = np.array(cells).T
        shape = [2 if v in num else 1 for v in nodes]
        return lambda sums: (sums[top] / sums[bottom]).reshape(shape)

    def product(builds):
        return lambda sums: math.prod((build(sums) for build in builds),
                                      start=np.ones((1,) * n))

    def marginal(variables, inner):
        summed, kept = [pos[v] for v in variables], n - len(variables)
        ones = np.ones([2 if j in summed else 1 for j in range(n)])

        def build(sums):
            value = np.moveaxis(inner(sums) * ones, summed, range(kept, n))
            total = np.cumsum(value.reshape(*value.shape[:kept], -1), -1)
            return np.expand_dims(total[..., -1], sorted(summed))
        return build

    def fraction(top, bottom):
        def build(sums):
            over, under = top(sums), bottom(sums)
            return np.where(under == 0, np.nan, over / under)
        return build

    root = fold(expr, factor, product, marginal, fraction)
    indices = [_index(n, key) for key in slots]
    return lambda table: root(np.array(_sums(table, indices) + [1.0]))


def evaluate_expression(expr: DensityExpression, joint: np.ndarray,
                        nodes: tuple[str, ...],
                        assignment: Mapping[str, int]) -> float:
    """Value of a density expression under an observational joint table,
    at a binary assignment of every free variable of the expression (more
    keys are allowed): ``_compile``'s array, read at the assignment.  A
    value not 0 or 1 raises ``ValueError``; then a read cell that is not
    finite, as where a denominator is zero, ``ZeroDivisionError``; then a
    free variable with no value ``ValueError``."""
    import numpy as np
    env = {v: _binary(v, value, "assignment")
           for v, value in assignment.items()}
    build = _compile(expr, nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = build(joint)
    missing = [v for v, size in zip(nodes, value.shape)
               if size == 2 and v not in env]
    cell = value[tuple(env.get(v, slice(None)) if size == 2 else 0
                       for v, size in zip(nodes, value.shape))]
    if not np.isfinite(cell).all():
        raise ZeroDivisionError("float division by zero")
    if missing:
        raise ValueError(f"no value for free node {missing[0]!r}")
    return cell.item()


def numeric_gap(graph: Graph, expr: DensityExpression, x: Collection[str],
                y: Collection[str], z: Collection[str], rng: random.Random,
                trials: int = 1) -> tuple[float, int, int]:
    """Check ``expr`` as f(y | do(x), z) against truncated factorization:
    on every DAG in ``graph``'s class, draw ``trials`` random binary models
    from ``rng`` and compare at every binary assignment of X, Y and Z.
    Planned once per call by ``_compile``: ``expr``'s cells on the joint,
    and the cells of f(Y | Z), read on each do-table at X's values where
    X (a set) meets Y ∪ Z; once per DAG, its model layout.  Per model each
    table sums each planned marginal once, and ``expr``'s X axes are moved
    first, so that its cells come in the order of the do-tables.

    Returns the worst absolute gap, the number of DAGs and the number of
    comparisons.  ``graph`` is capped at ``MAX_TABLE_NODES`` nodes, and its
    DAGs x trials x (2^|X| + 1) tables at ``MAX_TABLE_WORK`` cells."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if len(graph.nodes) > MAX_TABLE_NODES:
        raise GraphError(f"{len(graph.nodes)} nodes exceeds the joint-table "
                         f"cap ({MAX_TABLE_NODES})")
    import numpy as np
    nodes = graph.nodes
    xs = graph.sorted_nodes(set(x))
    rest = graph.sorted_nodes((set(y) | set(z)) - set(x))
    dags = enumerate_dags(graph)
    work = len(dags) * trials * (2 ** len(xs) + 1) * max(2 ** len(nodes),
                                                          MIN_TABLE_CELLS)
    if work > MAX_TABLE_WORK:
        raise GraphError(f"{work} table cells exceeds the verify work cap "
                         f"({MAX_TABLE_WORK})")
    build = _compile(expr, nodes)
    truth = _compile(Factor(tuple(y), tuple(z)), nodes)  # f(Y | Z)
    meet = [(nodes.index(v), v) for v in xs if v in {*y, *z}]
    reads = []  # each do-assignment and the index that reads its truths
    for values in itertools.product((0, 1), repeat=len(xs)):
        do = dict(zip(xs, values))
        reads.append((do, _index(len(nodes), [(i, do[v]) for i, v in meet])))
    shape = [2 if v in xs or v in rest else 1 for v in nodes]
    worst = 0.0
    for dag in dags:
        layout = _Layout(dag)
        for _ in range(trials):
            model = DiscreteModel._drawn(layout, rng)
            value = build(model.joint())
            for v, size, most in zip(nodes, value.shape, shape):
                if size > most:
                    raise ValueError(f"free node {v!r} of the expression "
                                     "is not in X, Y or Z")
            cells = np.moveaxis(np.broadcast_to(value, shape),
                                [nodes.index(v) for v in xs],
                                range(len(xs))).reshape(len(reads), -1)
            # where X meets Z, the cells of other X values divide 0 by 0
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.array([truth(model.interventional(do))[ix]
                                 for do, ix in reads])
            worst = max(worst, float(np.abs(cells - want.reshape(cells.shape))
                                     .max()))
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
