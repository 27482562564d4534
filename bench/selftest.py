"""Self-test of the benchmark: a tiny run of every workload.

    python3 bench/selftest.py

Checks, for each workload, that an untraced run reports every end-to-end
metric of ``BENCHMARK.json`` and a traced run every per-layer metric, with
the declared units; that every answer matches the reference; that the
traced pass gives the same answers as the untraced one; and that two
traced runs of the same seed give identical counts.  Finally it checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SEED = 424242
TINY_TRACE_OPS = 12


def one_run(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "1", "--trace", str(trace)])
    assert code == 0, f"{workload}: exit {code}"
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    report = json.loads((BENCH / "results" /
                         f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return last, report


def check_metrics(last: dict, declared: list, label: str) -> list[str]:
    errors = []
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(last)}")
    for entry in declared:
        got = last["metrics"].get(entry["name"])
        if got is None:
            errors.append(f"{label}: metric {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            errors.append(f"{label}: {entry['name']} unit {got['unit']}")
    extra = set(last["metrics"]) - {e["name"] for e in declared}
    if extra:
        errors.append(f"{label}: undeclared metrics {sorted(extra)}")
    if not last["correct"] or last["failed"]:
        errors.append(f"{label}: correct={last['correct']} "
                      f"failed={last['failed']} of {last['attempted']}")
    return errors


def counts(last: dict) -> dict:
    return {k: v["value"] for k, v in last["metrics"].items()
            if v["unit"] in ("count", "ratio") and k != "trace.overhead"}


def bare_checkout_refuses() -> list[str]:
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("_work", "results",
                                                      "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "oracle_verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare checkout: the benchmark ran without the program"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.TRACE_OPS = {w: TINY_TRACE_OPS for w in run.WORKLOADS}
    errors = []
    for workload in run.WORKLOADS:
        last, _ = one_run(workload, 0)
        errors += check_metrics(last, spec["end_to_end"], f"{workload} trace 0")
        first, report = one_run(workload, 1)
        errors += check_metrics(first, spec["per_layer"], f"{workload} trace 1")
        if not report["traced_answers_match_untraced"]:
            errors.append(f"{workload}: traced answers differ from untraced")
        second, _ = one_run(workload, 1)
        if counts(first) != counts(second):
            errors.append(f"{workload}: counts differ between two traced runs")
        print(f"{workload}: checked", flush=True)
    errors += bare_checkout_refuses()
    for line in errors:
        print("FAIL", line)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
