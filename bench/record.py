"""Record the reference answers of every workload's op pool.

    python3 bench/record.py [--workload NAME]

Runs each op once through ``mpdagid.cli.main`` and stores its answer (see
``workloads.answer``) in ``bench/reference/<workload>.json``.  Ops on a
graph whose class is enumerable (at most 12 nodes and 20 undirected edges)
are also cross-checked against the brute-force oracle, so that the
reference does not rest only on the code under test:

* an identified expression must match truncated factorization on every
  sampled DAG of the class (independent numpy implementation below);
* a non-identifiable verdict's offending path must be directed forward in
  some DAG of the class and have its first edge reversed in another;
* the leaves of ``enumerate`` must partition the class, and each leaf's
  expression must pass the numeric check on its own subclass.

An op whose cross-check fails is stored with ``"oracle_mismatch": true``
and the benchmark counts it as failed.  The pools are meant to be recorded
once; a later change to the program must reproduce these answers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import mpdagid  # noqa: E402
from mpdagid import (Factor, Fraction, MarginalOver, Product, cidm,  # noqa: E402
                     enumerate_dags, evaluate_expression, graph_to_text,
                     parse_graph_json)
from mpdagid import NotIdentifiable, cli  # noqa: E402

import workloads as W  # noqa: E402

MAX_NODES = 12
MAX_UNDIRECTED = 20
DAG_SAMPLE = 8


_CLASSES: dict = {}


def dag_class(graph):
    """``enumerate_dags``, memoized: the chordal pool repeats its graphs."""
    if graph not in _CLASSES:
        _CLASSES[graph] = enumerate_dags(graph)
    return _CLASSES[graph]


def enumerable(graph) -> bool:
    return (len(graph.nodes) <= MAX_NODES
            and len(graph.undirected_edges) <= MAX_UNDIRECTED)


def expr_from_json(obj):
    kind = obj["kind"]
    if kind == "factor":
        return Factor(tuple(obj["targets"]), tuple(obj["given"]),
                      tuple(obj["fixed"]))
    if kind == "product":
        return Product(tuple(expr_from_json(f) for f in obj["factors"]))
    if kind == "marginal":
        return MarginalOver(tuple(obj["variables"]), expr_from_json(obj["body"]))
    return Fraction(expr_from_json(obj["numerator"]),
                    expr_from_json(obj["denominator"]))


# -- independent truncated factorization ---------------------------------------


def _joint(dag, cpts, do):
    """Joint table over dag.nodes (binary), with do-nodes clamped."""
    nodes = dag.nodes
    n = len(nodes)
    table = np.ones((2,) * n)
    for i, v in enumerate(nodes):
        shape = [1] * n
        if v in do:
            factor = np.zeros(2)
            factor[do[v]] = 1.0
            shape[i] = 2
            table = table * factor.reshape(shape)
            continue
        parents = dag.sorted_nodes(dag.parents_of(v))
        p1 = cpts[v]
        factor = np.stack([1.0 - p1, p1], axis=0)  # axis 0: value of v
        axes = [i] + [nodes.index(p) for p in parents]
        order = np.argsort(axes)
        factor = np.transpose(factor, order)
        for ax in sorted(axes):
            shape[ax] = 2
        table = table * factor.reshape(shape)
    return table


def _prob(table, nodes, assignment):
    index = [slice(None)] * len(nodes)
    for v, val in assignment.items():
        index[nodes.index(v)] = val
    return float(table[tuple(index)].sum())


def numeric_gap(graph, expr, x, y, z, dags, rng) -> float:
    """Worst |expr - f(y | do(x), z)| over the given DAGs, one random binary
    model each, every value assignment of X, Y, Z."""
    free = graph.sorted_nodes(set(x) | set(y) | set(z))
    worst = 0.0
    for dag in dags:
        cpts = {v: np.asarray([rng.uniform(0.1, 0.9) for _ in range(
            2 ** len(dag.parents_of(v)))]).reshape((2,) * len(dag.parents_of(v)))
            for v in dag.nodes}
        joint = _joint(dag, cpts, {})
        cache = {}
        for values in itertools.product((0, 1), repeat=len(free)):
            env = dict(zip(free, values))
            do = tuple(env[v] for v in x)
            if do not in cache:
                cache[do] = _joint(dag, cpts, dict(zip(x, do)))
            table = cache[do]
            zv = {v: env[v] for v in z}
            den = _prob(table, dag.nodes, zv) if zv else 1.0
            truth = _prob(table, dag.nodes, {**zv, **{v: env[v] for v in y}}) / den
            got = evaluate_expression(expr, joint, graph.nodes, env)
            worst = max(worst, abs(got - truth))
    return worst


def _sample(dags, rng):
    if len(dags) <= DAG_SAMPLE:
        return dags
    return rng.sample(dags, DAG_SAMPLE)


def certificate_ok(dags, path) -> bool:
    forward = any(all(d.has_directed(a, b) for a, b in zip(path, path[1:]))
                  for d in dags)
    reversed_first = any(d.has_directed(path[1], path[0]) for d in dags)
    return forward and reversed_first


def cross_check(workload, graph, x, y, z, got, stdout, rng):
    """(kind of check, passed) or (None, True) when not enumerable."""
    if not enumerable(graph):
        return None, True
    dags = dag_class(graph)
    if workload == "chordal_enumerate":
        payload = json.loads(stdout)
        seen = set()
        for leaf in payload["leaves"]:
            lg = parse_graph_json(json.dumps(leaf["graph"]))
            members = dag_class(lg)
            if seen & set(members):
                return "partition", False
            seen |= set(members)
            gap = numeric_gap(lg, expr_from_json(leaf["ast"]), x, y, z,
                              _sample(members, rng), rng)
            if gap > W.VERIFY_TOL:
                return "partition", False
        return "partition", seen == set(dags)
    if workload == "oracle_verify":
        if got["exit"] == 0:
            return "verify", got["verified"]
        try:
            cidm(graph, x, y, z)
        except NotIdentifiable as exc:
            return "certificate", certificate_ok(
                dags, exc.certificate.offending_path)
        return "certificate", False
    if got["exit"] == 3:
        return "certificate", certificate_ok(dags, got["offending_path"])
    payload = json.loads(stdout)
    gap = numeric_gap(graph, expr_from_json(payload["ast"]), x, y, z,
                      _sample(dags, rng), rng)
    return "numeric", gap <= W.VERIFY_TOL


def stratum(workload, spec, x, y, z, got) -> str:
    if workload == "sparse_identify":
        kind = "cert" if got["exit"] == 3 else got["kind"]
        return f"n{spec.size}/{kind}"
    if workload == "oracle_verify":
        if got["exit"] != 0:
            return f"n{spec.size}/noid"
        # number of do-tables the oracle builds, in powers of two
        free = len(x) + len(y) + len(z)
        work = got["dags"] * 2 * (2 ** free + 1)
        return f"n{spec.size}/w{int(math.log2(work))}"
    if spec.family == "random":
        return f"r{spec.size}"
    return f"{spec.name}/x{len(x)}y{len(y)}z{len(z)}"


def record(workload: str) -> dict:
    sub = W.SUBCOMMAND[workload]
    rng = random.Random(f"record/{workload}")
    graphs, ops = {}, []
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=HERE / "_work"))
    try:
        for spec in W.graph_specs(workload):
            graph = W.build_graph(workload, spec)
            text = graph_to_text(graph)
            path = work / f"{spec.name}.txt"
            path.write_text(text)
            graphs[spec.name] = {"family": spec.family, "size": spec.size,
                                 "digest": W.text_digest(text)}
            for x, y, z in W.queries(workload, spec, graph):
                args = W.query_args(workload, x, y, z)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([sub, str(path), *args, "--json"])
                got = W.answer(sub, code, out.getvalue())
                ok_exit = {"identify": (0, 3), "enumerate": (0,),
                           "verify": (0, 1)}[sub]
                if code not in ok_exit or got.get("verified") is False:
                    raise SystemExit(f"{workload}: {spec.name} {args} "
                                     f"failed with exit {code}")
                check, passed = cross_check(workload, graph, x, y, z, got,
                                            out.getvalue(), rng)
                op = {"graph": spec.name, "args": args,
                      "stratum": stratum(workload, spec, x, y, z, got),
                      "expect": got, "oracle": check}
                if not passed:
                    op["oracle_mismatch"] = True
                    print(f"ORACLE MISMATCH {workload} {spec.name} {args}",
                          file=sys.stderr)
                ops.append(op)
    finally:
        shutil.rmtree(work)
    return {"workload": workload, "subcommand": sub,
            "recorded_with": {"python": sys.version.split()[0],
                              "numpy": np.__version__,
                              "mpdagid": mpdagid.__version__},
            "graphs": graphs, "ops": ops}


def write_reference(ref: dict, path: Path) -> None:
    """One op per line, so that a diff of the reference stays readable."""
    head = {k: v for k, v in ref.items() if k != "ops"}
    lines = ["{" + json.dumps(head)[1:-1] + ', "ops": [']
    lines += [json.dumps(op) + ("," if i < len(ref["ops"]) - 1 else "")
              for i, op in enumerate(ref["ops"])]
    lines.append("]}")
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    (HERE / "reference").mkdir(exist_ok=True)
    for workload in args.workload or W.WORKLOADS:
        start = time.perf_counter()
        ref = record(workload)
        write_reference(ref, HERE / "reference" / f"{workload}.json")
        checked = sum(1 for op in ref["ops"] if op["oracle"])
        bad = sum(1 for op in ref["ops"] if op.get("oracle_mismatch"))
        print(f"{workload}: {len(ref['ops'])} ops, {checked} cross-checked "
              f"against the oracle, {bad} mismatches, "
              f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
