"""Workload definitions shared by the benchmark runner and the recorder.

A workload is a pool of operations ("ops").  Each op is one ``mpdagid``
command line (``identify``, ``enumerate`` or ``verify``) on one generated
graph.  The pool is fixed: its graphs come from named random streams, and
``record.py`` stores every op's expected answer in ``reference/``.  A run's
``--seed`` picks which of each stratum's ops it runs and in what order;
see :func:`op_order`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from mpdagid import Graph, graph_to_text, random_mpdag

VERIFY_TOL = 1e-9
VERIFY_SEED = "7"  # the fixed --seed every verify op passes to the program


@dataclass(frozen=True)
class GraphSpec:
    name: str
    family: str  # sparse | random | clique | ladder | treated_ladder
    size: int


# -- graph families ---------------------------------------------------------------


def clique(k: int) -> Graph:
    """Undirected complete graph K_k on C0..C{k-1}."""
    nodes = [f"C{i}" for i in range(k)]
    return Graph(nodes, undirected=list(itertools.combinations(nodes, 2)))


def ladder(m: int, treated: bool = False) -> Graph:
    """Triangle ladder on L0..L{m-1}: undirected ``i--i+1`` and ``i--i+2``.

    With ``treated`` a node T is added with ``T -> every ladder node``; the
    graph stays maximally oriented and T possibly causes the whole ladder.
    """
    nodes = [f"L{i}" for i in range(m)]
    und = [(nodes[i], nodes[i + 1]) for i in range(m - 1)]
    und += [(nodes[i], nodes[i + 2]) for i in range(m - 2)]
    if treated:
        return Graph(["T"] + nodes, directed=[("T", v) for v in nodes],
                     undirected=und)
    return Graph(nodes, undirected=und)


def _random_params(workload: str, n: int) -> tuple[float, float]:
    """(edge probability, background orientation probability)."""
    if workload == "sparse_identify":
        return 3.0 / (n - 1), 0.2  # expected degree about 3
    if workload == "oracle_verify":
        return 0.4, 0.3
    return 0.3, 0.0  # chordal_enumerate: no background knowledge


def build_graph(workload: str, spec: GraphSpec) -> Graph:
    if spec.family == "clique":
        return clique(spec.size)
    if spec.family == "ladder":
        return ladder(spec.size)
    if spec.family == "treated_ladder":
        return ladder(spec.size, treated=True)
    edge_prob, orient_prob = _random_params(workload, spec.size)
    rng = random.Random(f"{workload}/{spec.name}")
    return random_mpdag(rng, [f"V{j}" for j in range(spec.size)],
                        edge_prob=edge_prob, orient_prob=orient_prob)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_graphs(workload: str, recorded: dict, directory: Path
                 ) -> tuple[dict[str, str], set[str]]:
    """Generate and write every pool graph.  Returns the file of each graph
    and the graphs whose text differs from the one in ``recorded`` (the
    reference's ``graphs``), whose answers can then no longer match."""
    directory.mkdir(parents=True)
    paths, diverged = {}, set()
    for spec in graph_specs(workload):
        text = graph_to_text(build_graph(workload, spec))
        if text_digest(text) != recorded[spec.name]["digest"]:
            diverged.add(spec.name)
        path = directory / f"{spec.name}.txt"
        path.write_text(text)
        paths[spec.name] = str(path)
    return paths, diverged


# -- the pools ---------------------------------------------------------------------

# Pool sizes: graph sizes, graphs per size and queries per graph.
SPARSE_SIZES = (40, 80, 160)
SPARSE_GRAPHS = 40
SPARSE_QUERIES = 12
CHORDAL_RANDOM_SIZES = (12, 16, 20)
CHORDAL_RANDOM_GRAPHS = 24
ORACLE_SIZES = (6, 7, 8)
ORACLE_GRAPHS = 16
ORACLE_QUERIES = 8

SUBCOMMAND = {"sparse_identify": "identify",
              "chordal_enumerate": "enumerate",
              "oracle_verify": "verify"}
WORKLOADS = tuple(SUBCOMMAND)


def graph_specs(workload: str) -> list[GraphSpec]:
    if workload == "sparse_identify":
        return [GraphSpec(f"s{n}-{i}", "sparse", n)
                for n in SPARSE_SIZES for i in range(SPARSE_GRAPHS)]
    if workload == "oracle_verify":
        return [GraphSpec(f"o{n}-{i}", "random", n)
                for n in ORACLE_SIZES for i in range(ORACLE_GRAPHS)]
    specs = [GraphSpec(f"K{k}", "clique", k) for k in (6, 7, 8)]
    specs += [GraphSpec(f"ladder{m}", "ladder", m) for m in (10, 12, 14)]
    specs += [GraphSpec(f"tladder{m}", "treated_ladder", m) for m in (10, 12, 14)]
    specs += [GraphSpec(f"r{n}-{i}", "random", n)
              for n in CHORDAL_RANDOM_SIZES for i in range(CHORDAL_RANDOM_GRAPHS)]
    return specs


def _pick(rng: random.Random, nodes: list[str], sizes: tuple[int, int, int]):
    pool = list(nodes)
    rng.shuffle(pool)
    a, b, c = sizes
    return pool[:a], pool[a:a + b], pool[a + b:a + b + c]


def _shape(rng: random.Random, z_max: int) -> tuple[int, int, int]:
    return rng.choice((1, 2)), rng.choice((1, 2)), rng.randint(0, z_max)


def queries(workload: str, spec: GraphSpec, graph: Graph
            ) -> list[tuple[list[str], list[str], list[str]]]:
    """The (X, Y, Z) queries posed on one pool graph."""
    rng = random.Random(f"{workload}/{spec.name}/queries")
    nodes = list(graph.nodes)
    if workload == "sparse_identify":
        return [_pick(rng, nodes, _shape(rng, 2)) for _ in range(SPARSE_QUERIES)]
    if workload == "oracle_verify":
        return [_pick(rng, nodes, _shape(rng, 2)) for _ in range(ORACLE_QUERIES)]
    if spec.family == "clique":
        # every shape, three node choices each; K8 keeps |X| = 1, because
        # |X| = 2 on K8 takes 2-5 s per op and belongs to the sweep
        xs = (1,) if spec.size == 8 else (1, 2)
        return [_pick(rng, nodes, shape)
                for shape in itertools.product(xs, (1, 2), (0, 1))
                for _ in range(3)]
    if spec.family == "treated_ladder":
        rest = [v for v in nodes if v != "T"]
        out = []
        for shape in itertools.product((1, 2), (0, 1)):
            for _ in range(2):
                _, y, z = _pick(rng, rest, (0,) + shape)
                out.append((["T"], y, z))
        return out
    return [_pick(rng, nodes, _shape(rng, 1)) for _ in range(8)]


def query_args(workload: str, x, y, z) -> list[str]:
    args = ["-x", ",".join(x), "-y", ",".join(y)]
    if z:
        args += ["-z", ",".join(z)]
    if workload == "oracle_verify":
        args += ["--seed", VERIFY_SEED]
    return args


# -- answers -----------------------------------------------------------------------


def answer(subcommand: str, exit_code: int, stdout: str) -> dict:
    """The part of a ``--json`` run that the reference pins down.

    identify: the normal-form expression, or the certificate's offending
    path; enumerate: the multiset of leaf expressions (as a digest); verify: the exit
    code, and for exit 0 that every gap is within the tolerance.
    """
    out: dict = {"exit": exit_code}
    if subcommand == "verify":
        if exit_code == 0 or stdout.strip():
            payload = json.loads(stdout)
            out["verified"] = bool(payload["verified"]
                                   and payload["max_gap"] <= VERIFY_TOL)
            out["expression"] = payload["expression"]
            out["dags"] = payload["dags_checked"]
        return out
    if exit_code not in (0, 3):
        return out
    payload = json.loads(stdout)
    if subcommand == "identify":
        if exit_code == 0:
            out["expression"] = payload["expression"]
            out["kind"] = payload["ast"]["kind"]
        else:
            out["offending_path"] = payload["certificate"]["offending_path"]
    else:
        # the multiset is pinned by a digest: K7 and K8 have hundreds of leaves
        leaves = sorted(leaf["expression"] for leaf in payload["leaves"])
        out["leaves"] = len(leaves)
        out["distinct"] = len(set(leaves))
        out["multiset"] = text_digest("\n".join(leaves))
    return out


# -- run order ---------------------------------------------------------------------


def op_order(ops: list[dict], seed: int, share: float) -> list[int]:
    """The ops one run cycles through, in order.

    Each stratum contributes ``ceil(share * size)`` of its ops, picked by
    the seed, so every seed runs the same mix of strata.  Each stratum's
    picks are spread evenly over the sequence at a random phase, so a run
    that stops part way through still holds every stratum in its share
    (within one op).
    """
    rng = random.Random(f"order/{seed}")
    by_stratum: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        by_stratum.setdefault(op["stratum"], []).append(i)
    keyed = []
    for stratum in sorted(by_stratum):
        members = by_stratum[stratum]
        picks = rng.sample(members, math.ceil(share * len(members) - 1e-9))
        phase = rng.random()
        keyed += [((j + phase) / len(picks), rng.random(), i)
                  for j, i in enumerate(picks)]
    keyed.sort()
    return [i for _, _, i in keyed]
