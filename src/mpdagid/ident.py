"""Identification of conditional interventional densities.

Expressions are closed forms in observational conditional densities:
factors ``f(targets | given)``, products, one marginalization node, and a
fraction.  The entry points are

* :func:`id_formula` -- the bucket-wise closed form, applicable when the
  conditioning set avoids the treatments' possible descendants and no
  proper possibly directed path from the treatments to the outcomes starts
  with an undirected edge;
* :func:`cidm` -- the general algorithm: absorbs treatment nodes into the
  conditioning set while a do-calculus step licenses it, then finishes with
  a conditional-density off-ramp or a fraction of two formula instances,
  raising :class:`NotIdentifiable` with a certificate otherwise;
* :func:`cidme_tree` -- the per-class enumeration: where ``cidm`` would
  fail it orients the first undirected edge of the offending path both
  ways, re-closes and repeats on each side: one expression per leaf class.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, TypeVar, Union

from .dsep import OpenPathWitness, d_separated, find_open_path
from .graph import Graph, GraphClass
from .meek import refine
from .pco import pco
from .reachability import (_closure, find_proper_pc_path, parents,
                           possible_ancestors, possible_descendants)


# -- expression tree ---------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """Observational conditional density f(targets | given).

    ``fixed`` marks the given nodes currently held at intervention values;
    it is presentation metadata and excluded from equality.
    """

    _json_kind = "factor"  # "kind" in the JSON form; see expression_to_json
    targets: tuple[str, ...]
    given: tuple[str, ...] = ()
    fixed: tuple[str, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class Product:
    _json_kind = "product"
    factors: tuple["DensityExpression", ...]


@dataclass(frozen=True)
class MarginalOver:
    _json_kind = "marginal"
    variables: tuple[str, ...]
    body: "DensityExpression"


@dataclass(frozen=True)
class Fraction:
    _json_kind = "fraction"
    numerator: "DensityExpression"
    denominator: "DensityExpression"


DensityExpression = Union[Factor, Product, MarginalOver, Fraction]
T = TypeVar("T")


def fold(expr: DensityExpression, factor: Callable[[Factor], T],
         product: Callable[[list[T]], T],
         marginal: Callable[[tuple[str, ...], T], T],
         fraction: Callable[[T, T], T]) -> T:
    """Bottom-up fold: ``factor(f)`` at every leaf, then ``product(parts)``,
    ``marginal(variables, body)`` and ``fraction(numerator, denominator)``
    on the already folded children.  The only dispatch on node type."""

    def go(e: DensityExpression) -> T:
        if isinstance(e, Factor):
            return factor(e)
        if isinstance(e, Product):
            return product([go(f) for f in e.factors])
        if isinstance(e, MarginalOver):
            return marginal(e.variables, go(e.body))
        if isinstance(e, Fraction):
            return fraction(go(e.numerator), go(e.denominator))
        raise TypeError(f"not a density expression: {e!r}")

    return go(expr)


@functools.lru_cache(maxsize=4096)  # per label, not per leaf
def _sym_latex(label: str) -> str:
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", label)
    if m:
        return f"{m.group(1).lower()}_{{{m.group(2)}}}"
    return label.lower()


def _render(expr: DensityExpression, sym: Callable[[str], str], sep: str,
            conditional: str, integral: str, differential: str,
            ratio: str) -> str:
    def names(nodes: tuple[str, ...]) -> str:
        return sep.join(map(sym, nodes))

    def factor(f: Factor) -> str:
        if f.given:
            return conditional.format(names(f.targets), names(f.given))
        return f"f({names(f.targets)})"

    def marginal(variables, body):
        vs = [sym(v) for v in variables]
        tail = " ".join(differential.format(v) for v in vs)
        return integral.format(vars=",".join(vs), body=body, tail=tail)

    return fold(expr, factor, lambda parts: " ".join(parts) if parts else "1",
                marginal, ratio.format)


def render_text(expr: DensityExpression) -> str:
    """Plain-text rendering, e.g. ``INT_{v2} f(y|x,v1,v2) f(v2|v1) dv2``."""
    return _render(expr, str.lower, ",", "f({}|{})",
                   "INT_{{{vars}}} {body} {tail}", "d{}", "({}) / ({})")


def render_latex(expr: DensityExpression) -> str:
    return _render(expr, _sym_latex, ", ", "f({} \\mid {})",
                   "\\int {body} {tail}", "\\, d{}", "\\frac{{{}}}{{{}}}")


def expression_to_json(expr: DensityExpression) -> dict:
    """The JSON form: ``"kind"``, the class's ``_json_kind``, then each
    dataclass field in order, labels as lists and expressions as their
    forms.  ``graph._dumps`` writes the same walk as text."""
    if not isinstance(expr, (Factor, Product, MarginalOver, Fraction)):
        raise TypeError(f"not a density expression: {expr!r}")
    out = {"kind": expr._json_kind}
    for name in expr.__dataclass_fields__:
        v = getattr(expr, name)
        out[name] = (expression_to_json(v) if not isinstance(v, tuple)
                     else list(v) if not v or isinstance(v[0], str)
                     else [*map(expression_to_json, v)])
    return out


# -- errors and certificates -------------------------------------------------


class IdentificationError(Exception):
    pass


class PreconditionViolated(IdentificationError):
    """The query does not meet an entry condition (set overlap, conditioning
    inside the treatments' possible descendants, or a non-MPDAG graph)."""


@dataclass(frozen=True)
class DsepFailure:
    """The do-calculus premise that failed when absorbing ``picked``."""

    picked: str
    conditioning: tuple[str, ...]
    edges_removed_into: tuple[str, ...]
    edges_removed_out_of: tuple[str, ...]
    open_path: OpenPathWitness


@dataclass(frozen=True)
class FailCertificate:
    """Why identification failed: the proper possibly directed path that
    starts with an undirected edge, and (from the algorithm) the failed
    premise.  ``x_current``/``z_current`` are the sets at failure time;
    their union equals the union of the original treatment and
    conditioning sets."""

    offending_path: tuple[str, ...]
    x_current: tuple[str, ...]
    z_current: tuple[str, ...]
    dsep_failure: DsepFailure | None = None


class NotIdentifiable(IdentificationError):
    def __init__(self, message: str, certificate: FailCertificate):
        super().__init__(message)
        self.certificate = certificate


# -- query plumbing -----------------------------------------------------------


def _validate_query(graph: Graph, xs, ys, zs
                    ) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    x, y, z = frozenset(xs), frozenset(ys), frozenset(zs)
    graph.check_nodes(x | y | z)
    if not x or not y:
        raise PreconditionViolated("treatment and outcome sets must be nonempty")
    if x & y or x & z or y & z:
        raise PreconditionViolated("treatment, outcome and conditioning sets overlap")
    if graph.classify() is GraphClass.PDAG:
        raise PreconditionViolated("graph is not a maximally oriented PDAG or DAG")
    return x, y, z


# -- do-calculus rule premises -------------------------------------------------


def rule1_holds(graph: Graph, xs, ys, zs, ws=()) -> bool:
    """Insertion/deletion of observations: the premise that Y and Z are
    d-separated by X, W once edges into X are removed."""
    x, y, z, w = graph.check_disjoint(xs, ys, zs, ws)
    return d_separated(graph.remove_edges_into(x), y, z, x | w)


def _rule2_open_path(graph: Graph, x, y, z, w) -> OpenPathWitness | None:
    """An open path from Y to Z given X and W once edges into X and out of
    Z are removed: the witness that the rule-2 premise fails."""
    mut = graph.remove_edges_into(x).remove_edges_out_of(z)
    return find_open_path(mut, y, z, x | w)


def rule2_holds(graph: Graph, xs, ys, zs, ws=()) -> bool:
    """Action/observation exchange for do(z): premise checked with edges
    into X and out of Z removed."""
    x, y, z, w = graph.check_disjoint(xs, ys, zs, ws)
    return _rule2_open_path(graph, x, y, z, w) is None


def rule3_holds(graph: Graph, xs, ys, zs, ws=()) -> bool:
    """Insertion/deletion of actions: premise checked with edges removed
    into X and into the part of Z that cannot possibly cause W once X is
    taken out of the graph."""
    x, y, z, w = graph.check_disjoint(xs, ys, zs, ws)
    sub = graph.induced_subgraph(set(graph.nodes) - x)
    return _rule3(graph, x, y, z, w, possible_ancestors(sub, w))


def _rule3(graph: Graph, x, y, z, w, pan_w) -> bool:
    """The premise of :func:`rule3_holds`, given the possible ancestors
    ``pan_w`` of W in the graph without X."""
    z_prime = z - pan_w
    return d_separated(graph.remove_edges_into(x | z_prime), y, z, x | w)


# -- identification -----------------------------------------------------------


def id_formula(graph: Graph, xs, ys, zs=()) -> DensityExpression:
    """Bucket-wise closed form for f(y | do(x), z).

    Raises
    ------
    PreconditionViolated
        If Z meets the possible descendants of X.
    NotIdentifiable
        If a proper possibly directed path from X to Y starts with an
        undirected edge (the effect is then not identifiable).
    """
    x, y, z = _validate_query(graph, xs, ys, zs)
    pd_x = possible_descendants(graph, x)
    if z & pd_x:
        raise PreconditionViolated(
            "conditioning set intersects possible descendants of the treatments")
    path = find_proper_pc_path(graph, x, y, start_undirected=True)
    if path is not None:
        raise NotIdentifiable(
            "a proper possibly directed path from the treatments to the outcomes "
            f"starts with an undirected edge: {' - '.join(path)}",
            FailCertificate(path, graph.sorted_nodes(x), graph.sorted_nodes(z)))
    return _id_formula(graph, x, y, z, pd_x, possible_ancestors(graph, z),
                       pco(graph, graph.nodes))


def _id_formula(graph: Graph, x, y, z, pd_x, pan_z,
                order) -> DensityExpression:
    """The body of :func:`id_formula` without its checks, given the possible
    descendants ``pd_x`` of X, the possible ancestors ``pan_z`` of Z and
    ``order``, which is ``pco(graph, graph.nodes)``: cut down to the nodes
    ordered, its buckets are theirs.  The result is in normal form: node
    tuples in node order, factors sorted by their targets' indices."""
    # the ancestors of Y in G - X: a directed closure that never enters X
    anc = _closure(graph, y, lambda v: graph._pa[v] - x)
    d = anc - z
    buckets = [b for b in (tuple(v for v in bucket if v in d)
                           for bucket in order) if b]
    integrate_over = anc - (z | y)

    factors: list[Factor] = []
    prev: set[str] = set()
    for bucket in buckets:
        # a bucket has a possibly directed path into Z iff it meets PossAn(Z)
        if pan_z.isdisjoint(bucket):
            pa = parents(graph, bucket)
            factors.append(Factor(bucket, graph.sorted_nodes(pa),
                                  fixed=graph.sorted_nodes(pa & x)))
        else:
            given = (prev - pd_x) | z
            factors.append(Factor(bucket, graph.sorted_nodes(given)))
        prev |= set(bucket)

    # the buckets are sorted and disjoint, so their first targets decide
    # the normal form's factor order
    factors.sort(key=lambda f: graph._index[f.targets[0]])
    body: DensityExpression = factors[0] if len(factors) == 1 \
        else Product(tuple(factors))
    if integrate_over:
        body = MarginalOver(graph.sorted_nodes(integrate_over), body)
    return body


def _absorb(graph: Graph, x1: set[str], y: frozenset[str], z1: set[str]):
    """Run the absorption loop in place, absorbing each pick whose rule-2
    premise holds.  Returns None when it exits cleanly, else the offending
    path of the failure and the open path that breaks the premise."""
    while True:
        path = find_proper_pc_path(graph, x1, y | z1, start_undirected=True)
        if path is None:
            return None
        picked = path[0]
        witness = _rule2_open_path(graph, x1 - {picked}, y, {picked}, z1)
        if witness is None:
            x1.remove(picked)
            z1.add(picked)
            continue
        return path, witness


def _finish(graph: Graph, x1: set[str], y: frozenset[str],
            z1: set[str]) -> DensityExpression:
    """Post-loop identification: the rule-3 off-ramp ``f(y | z1)``, else a
    fraction of two formula instances over the conditioning split.  The
    loop's exit proves :func:`id_formula`'s checks: no proper possibly
    directed path that starts with an undirected edge leads from X1 into
    Y | Z1, which holds both target sets, and z_rest avoids PossDe(X1).
    PossAn(Z1) serves the off-ramp, and PossAn(z_rest) when z_rest is Z1;
    every formula shares one ``pco`` order."""
    pan_z = possible_ancestors(graph, z1)
    if _rule3(graph, frozenset(), y, x1, z1, pan_z):
        return Factor(graph.sorted_nodes(y), graph.sorted_nodes(z1))
    pd_x1 = possible_descendants(graph, x1)
    z_desc = z1 & pd_x1
    order = pco(graph, graph.nodes)
    if not z_desc:
        return _id_formula(graph, x1, y, z1, pd_x1, pan_z, order)
    z_rest = frozenset(z1) - pd_x1
    pan_z = possible_ancestors(graph, z_rest)
    return Fraction(
        _id_formula(graph, x1, y | z_desc, z_rest, pd_x1, pan_z, order),
        _id_formula(graph, x1, z_desc, z_rest, pd_x1, pan_z, order))


def cidm(graph: Graph, xs, ys, zs=()) -> DensityExpression:
    """Identify f(y | do(x), z) in a maximally oriented graph.

    Raises :class:`NotIdentifiable` with a :class:`FailCertificate` when the
    effect is not identifiable from the class.
    """
    x, y, z = _validate_query(graph, xs, ys, zs)
    x1, z1 = set(x), set(z)
    failure = _absorb(graph, x1, y, z1)
    if failure is not None:
        path, witness = failure
        picked = path[0]
        cond = (x1 - {picked}) | z1
        raise NotIdentifiable(
            f"cannot absorb {picked!r}: the premise d-separation fails",
            FailCertificate(
                path, graph.sorted_nodes(x1), graph.sorted_nodes(z1),
                DsepFailure(picked, graph.sorted_nodes(cond),
                            graph.sorted_nodes(x1 - {picked}), (picked,),
                            witness)))
    return _finish(graph, x1, y, z1)


@dataclass(frozen=True)
class CidmeLeaf:
    """One leaf of the enumeration: a refined graph and the expression
    identifying the effect in that graph's class."""

    graph: Graph
    expression: DensityExpression


def cidme_tree(graph: Graph, xs, ys, zs=()) -> list[CidmeLeaf]:
    """Enumerate identifications across the class, splitting on the first
    undirected edge of the offending path whenever absorption fails.  The
    leaves' classes partition the input graph's class."""
    x, y, z = _validate_query(graph, xs, ys, zs)
    leaves: list[CidmeLeaf] = []
    stack = [(graph, set(x), set(z))]
    while stack:
        g, x1, z1 = stack.pop()
        failure = _absorb(g, x1, y, z1)
        if failure is None:
            leaves.append(CidmeLeaf(g, _finish(g, x1, y, z1)))
            continue
        a, b = failure[0][:2]  # the offending path's first edge
        stack += [(refine(g, b, a), set(x1), set(z1)),
                  (refine(g, a, b), x1, z1)]
    return leaves
