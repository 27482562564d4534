"""Non-gating scaling sweep: per-layer time against input size.

    python3 bench/sweep.py

Runs traced ops on triangle ladders (m = 10..30), undirected cliques
(K5..K9) and sparse random MPDAGs (n = 40..320), each op under the
per-op budget, and writes ``bench/results/sweep.json``: for every size,
each op's wall time (or ``"timeout"``) and the self time of every layer.
It is evidence for how each layer scales; it feeds no end-to-end metric
and no gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from mpdagid import cli, graph_to_text, random_mpdag  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from run import OP_BUDGET_S, Budget, OpTimeout, provenance  # noqa: E402


def cases():
    """(family, size, graph, [(subcommand, x, y, z), ...])."""
    for m in (10, 15, 20, 25, 30):
        last = f"L{m - 1}"
        yield ("ladder", m, W.ladder(m, treated=True),
               [("enumerate", ["T"], [last], []),
                ("identify", ["L0"], [last], [])])
    for k in (5, 6, 7, 8, 9):
        yield ("clique", k, W.clique(k),
               [("enumerate", ["C0"], [f"C{k - 1}"], []),
                ("enumerate", ["C0", "C1"], [f"C{k - 1}"], ["C2"])])
    for n in (40, 80, 160, 320):
        for i in range(2):
            rng = random.Random(f"sweep/{n}/{i}")
            graph = random_mpdag(rng, [f"V{j}" for j in range(n)],
                                 edge_prob=3.0 / (n - 1), orient_prob=0.2)
            ops = []
            for _ in range(8):
                nodes = list(graph.nodes)
                rng.shuffle(nodes)
                ops.append(("identify", nodes[:1], nodes[1:2], nodes[2:3]))
            yield ("sparse", n, graph, ops)


def main() -> int:
    load = os.getloadavg()
    budget = Budget(OP_BUDGET_S)
    work = BENCH / "_work" / "sweep"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rows: dict = {}
    try:
        for family, size, graph, ops in cases():
            path = work / f"{family}{size}.txt"
            path.write_text(graph_to_text(graph))
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            times = []
            try:
                for k, (sub, x, y, z) in enumerate(ops):
                    tracer.start_op(k)
                    argv = [sub, str(path), *W.query_args("", x, y, z), "--json"]
                    start = time.perf_counter()
                    try:
                        with budget, contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(io.StringIO()):
                            cli.main(argv)
                        times.append(time.perf_counter() - start)
                    except OpTimeout:
                        times.append("timeout")
            finally:
                tracing.uninstall(saved)
            layers = {name[:-len(".self_s")]: value
                      for name, value in tracer.layer_metrics().items()
                      if name.endswith(".self_s") and value > 0}
            row = rows.setdefault(family, {})
            entry = row.setdefault(str(size), {"op_seconds": [], "layer_self_s": {}})
            entry["op_seconds"] += times
            for name, value in layers.items():
                entry["layer_self_s"][name] = entry["layer_self_s"].get(name, 0) + value
            shown = " ".join(t if isinstance(t, str) else f"{t:.3f}" for t in times)
            print(f"{family:7s} {size:4d}  {shown}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(
        {"budget_s": OP_BUDGET_S, "provenance": provenance(None, load),
         "families": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
