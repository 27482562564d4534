"""mpdagid benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up imports the package, generates the workload's graphs
(``random_mpdag`` runs the Meek closure) and writes them as graph files.
The run is a closed loop: one caller, one op at a time, each op a call of
``mpdagid.cli.main([..., "--json"])`` in this process under a per-op time
budget, checked against the recorded reference answer.

With ``--trace 0`` it cycles through the seed's op list for ``--seconds``
and reports the end-to-end metrics.  With ``--trace 1`` it runs a fixed
prefix of the op list twice, untraced and then with every layer wrapped
(``tracing.py``), and reports the per-layer metrics; the fixed prefix
makes the counts repeat exactly for a given seed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with
provenance, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("sparse_identify", "chordal_enumerate", "oracle_verify")
OP_BUDGET_S = 10.0  # per op; the slowest op at the recording commit takes ~1.3 s
SETUP_REPS = 5
COLD_REPS = 9
COLD_EVERY_S = 3.0
CPU_CHECK_S = 0.5
# share of each stratum a seed runs (see workloads.op_order)
SHARE = {"sparse_identify": 1.0, "chordal_enumerate": 2 / 3,
         "oracle_verify": 1.0}
# ops in the fixed prefix a traced run measures (twice)
TRACE_OPS = {"sparse_identify": 480, "chordal_enumerate": 200,
             "oracle_verify": 160}
# the stratum whose first op, in the seed's order, times the cold start
COLD_STRATUM = {"sparse_identify": "n40/factor", "chordal_enumerate": "r12",
                "oracle_verify": "n6/w4"}


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op exceeds its budget.  A BaseException,
    so that no ``except Exception`` in the program can swallow it."""


class Budget:
    """A per-op SIGALRM timer; no extra thread."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def __enter__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def probe() -> float:
    """Seconds for a fixed bit of pure-Python set and dict work (~1 ms)."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(2000):
        key = i & 255
        table[key] = frozenset((key, i & 7, i & 31)) | table.get(key ^ 1, frozenset())
        if len(table[key]) > 8:
            del table[key]
    return time.perf_counter() - start


class CpuChooser:
    """Keeps the benchmark on the CPU that currently runs fastest.

    On a small shared host each CPU can slow down on its own, by up to 2x
    for seconds to minutes (on a 2-vCPU VM a fixed pure-Python loop ran 59
    to 118 times per second over three minutes), which would otherwise
    swamp run-to-run comparisons.  Between ops,
    at most every CPU_CHECK_S, the benchmark times :func:`probe` on each
    CPU it may use and pins itself, and so the subprocesses it starts, to
    the fastest.  It acts only on its own process, and only on hosts with
    2 to 4 usable CPUs; elsewhere the scheduler is left alone.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = float("-inf")

    def choose(self, force: bool = False) -> float:
        """Re-pin if due; returns the seconds spent, to leave out of timings."""
        start = time.perf_counter()
        if not 2 <= len(self.cpus) <= 4 or \
                (not force and start - self.last < CPU_CHECK_S):
            return 0.0
        speeds = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = min(probe(), probe())
        os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
        self.last = time.perf_counter()
        return self.last - start


def parse_args(argv):
    p = argparse.ArgumentParser(description="mpdagid benchmark, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import the package and its CLI, in a fresh interpreter
    (timed inside it, so interpreter start-up is not included)."""
    code = ("import time; t = time.perf_counter(); import mpdagid.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


# -- one op -----------------------------------------------------------------------------


class Runner:
    def __init__(self, W, cli_module, ref: dict, paths: dict, diverged: set,
                 budget: Budget, cpu: CpuChooser):
        self.W, self.cli, self.sub = W, cli_module, ref["subcommand"]
        self.ops, self.paths, self.diverged = ref["ops"], paths, diverged
        self.budget, self.cpu = budget, cpu

    def argv(self, index: int) -> list[str]:
        op = self.ops[index]
        return [self.sub, self.paths[op["graph"]], *op["args"], "--json"]

    def check(self, index: int, code: int, stdout: str) -> tuple[str, dict | None]:
        """(status, answer) of one finished op against the reference."""
        op = self.ops[index]
        try:
            got = self.W.answer(self.sub, code, stdout)
        except (ValueError, KeyError, TypeError):
            return "error", None
        if (got != op["expect"] or op.get("oracle_mismatch")
                or op["graph"] in self.diverged):
            return "wrong", got
        return "ok", got

    def run(self, index: int) -> dict:
        """Run one op in this process; returns latency, status and answer,
        and the seconds spent choosing a CPU before it."""
        choosing = self.cpu.choose()
        out, err = io.StringIO(), io.StringIO()
        status, got = "ok", None
        start = time.perf_counter()
        try:
            with self.budget, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv(index))  # tracing rebinds main
        except OpTimeout:
            status = "timeout"
        except (Exception, SystemExit) as exc:  # the op failed, the run goes on
            status = "error"
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if status == "ok":
            status, got = self.check(index, code, out.getvalue())
        return {"op": index, "seconds": elapsed, "status": status,
                "answer": got, "stderr": err.getvalue()[-300:],
                "choosing": choosing}


def failure_record(result: dict, ops: list) -> dict:
    op = ops[result["op"]]
    return {"graph": op["graph"], "args": op["args"], "status": result["status"],
            "expected": op["expect"], "got": result["answer"],
            "stderr": result["stderr"]}


# -- measurements -------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, or the maximum when there are 10 or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


class ColdStart:
    """Wall time of ``python -m mpdagid.cli`` as a subprocess, one process
    at a time, on one fixed op: the first op of ``stratum`` in the run's
    order.  Samples are taken every COLD_EVERY_S during the timed loop
    rather than back to back, so that their median does not hang on one
    moment of a machine whose speed drifts."""

    def __init__(self, runner, stratum: str, order):
        self.runner = runner
        self.index = next(i for i in order if runner.ops[i]["stratum"] == stratum)
        self.cmd = [sys.executable, "-m", "mpdagid.cli", *runner.argv(self.index)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.correct = True

    def sample(self) -> float:
        """Take one sample; returns the seconds it took."""
        self.runner.cpu.choose(force=True)
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env,
                              capture_output=True, text=True,
                              timeout=OP_BUDGET_S + 60)
        self.times.append(time.perf_counter() - start)
        status, _ = self.runner.check(self.index, proc.returncode, proc.stdout)
        self.correct = self.correct and status == "ok"
        return self.times[-1]

    def report(self) -> dict:
        op = self.runner.ops[self.index]
        return {"op": {"graph": op["graph"], "args": op["args"]},
                "samples": len(self.times), "correct": self.correct}


def timed_run(runner, order, seconds, cold: ColdStart):
    """Closed loop over ``order`` for ``seconds`` of op time; the cold-start
    samples taken in between are not counted in it."""
    results = []
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while time.perf_counter() - start - paused < seconds:
        if len(cold.times) < COLD_REPS and \
                time.perf_counter() - start - paused >= len(cold.times) * COLD_EVERY_S:
            paused += cold.sample()
            continue
        result = runner.run(order[i % len(order)])
        paused += result["choosing"]
        result["end"] = time.perf_counter() - start - paused
        results.append(result)
        i += 1
    elapsed = time.perf_counter() - start - paused
    while len(cold.times) < COLD_REPS:  # a run shorter than the schedule
        cold.sample()
    return results, elapsed


def windows(results, width=5.0) -> list[int]:
    """Ops finished in each ``width``-second window: shows machine noise."""
    counts: list[int] = []
    for r in results:
        k = int(r["end"] // width)
        counts += [0] * (k + 1 - len(counts))
        counts[k] += 1
    return counts


def fixed_pass(runner, indices, tracer=None):
    results = []
    start = time.perf_counter()
    for k, index in enumerate(indices):
        if tracer is not None:
            tracer.start_op(k)
        results.append(runner.run(index))
    choosing = sum(r["choosing"] for r in results)
    return results, time.perf_counter() - start - choosing


# -- main -----------------------------------------------------------------------------------


def provenance(seed: int, load: tuple) -> dict:
    import numpy
    return {"seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "loadavg_at_start": list(load), "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    load = os.getloadavg()
    if not (SRC / "mpdagid" / "__init__.py").is_file():
        print(f"error: no mpdagid sources under {SRC}", file=sys.stderr)
        return 2
    reference = BENCH / "reference" / f"{args.workload}.json"
    if not reference.is_file():
        print(f"error: missing reference {reference}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import mpdagid.cli as cli
    import workloads as W

    ref = json.loads(reference.read_text())
    RESULTS.mkdir(exist_ok=True)
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    budget = Budget(OP_BUDGET_S)
    cpu = CpuChooser()
    try:
        import_s, generate_s = [], []
        for _ in range(SETUP_REPS):
            cpu.choose(force=True)
            import_s.append(import_seconds())
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            paths, diverged = W.write_graphs(args.workload, ref["graphs"], work)
            generate_s.append(time.perf_counter() - t0)
        setup_s = statistics.median(i + g for i, g in zip(import_s, generate_s))
        order = W.op_order(ref["ops"], args.seed, SHARE[args.workload])
        runner = Runner(W, cli, ref, paths, diverged, budget, cpu)
        if args.trace:
            report = traced(runner, args, order)
        else:
            report = untraced(runner, args, order)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["setup"] = {"import_s": import_s, "generate_s": generate_s,
                       "diverged_graphs": sorted(diverged)}
    if not args.trace:
        report["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    report["provenance"] = provenance(args.seed, load)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1))

    for metric, entry in report["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def summarize(results: list) -> tuple[int, int, bool]:
    failed = sum(1 for r in results if r["status"] != "ok")
    wrong = sum(1 for r in results if r["status"] in ("wrong", "error"))
    return len(results), failed, wrong == 0


def untraced(runner, args, order) -> dict:
    cold = ColdStart(runner, COLD_STRATUM[args.workload], order)
    results, elapsed = timed_run(runner, order, args.seconds, cold)
    attempted, failed, correct = summarize(results)
    latencies = [r["seconds"] for r in results]
    tail_s, tail_pct, samples = tail(latencies)
    ops_done = sum(1 for r in results if r["status"] != "timeout")
    metrics = {
        "ops_per_s": (ops_done / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (tail_s * 1000.0, "ms"),
        "decided_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "cold_start_ms": (statistics.median(cold.times) * 1000.0, "ms"),
    }
    return {
        "correct": correct and cold.correct, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "latency_tail": {"percentile": tail_pct, "samples": samples},
        "elapsed_s": elapsed, "passes": attempted / len(order),
        "ops_per_5s_window": windows(results),
        "cold_start": cold.report(), "op_budget_s": OP_BUDGET_S,
        "failures": [failure_record(r, runner.ops)
                     for r in results if r["status"] != "ok"][:20],
    }


def traced(runner, args, order) -> dict:
    import tracing
    indices = [order[i % len(order)] for i in range(TRACE_OPS[args.workload])]
    plain, plain_s = fixed_pass(runner, indices)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        spanned, spanned_s = fixed_pass(runner, indices, tracer)
    finally:
        tracing.uninstall(saved)
    results = plain + spanned
    attempted, failed, correct = summarize(results)
    same = all(a["answer"] == b["answer"] for a, b in zip(plain, spanned))
    layer = tracer.layer_metrics()
    layer["trace.untraced_ops_per_s"] = len(indices) / plain_s
    layer["trace.traced_ops_per_s"] = len(indices) / spanned_s
    layer["trace.overhead"] = 1.0 - plain_s / spanned_s
    units = {name: unit for name, unit, _ in tracing.metric_names()}
    tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return {
        "correct": correct and same, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": layer[k], "unit": units[k]} for k in units},
        "traced_answers_match_untraced": same, "ops_per_pass": len(indices),
        "op_budget_s": OP_BUDGET_S,
        "failures": [failure_record(r, runner.ops)
                     for r in results if r["status"] != "ok"][:20],
    }


if __name__ == "__main__":
    sys.exit(main())
