"""Benchmark of speckg: build a register manual, answer questions over it, and
score the fixture QA set in replay mode.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` the named workload runs in this process: set-up several
times (``setup_s`` is the median), then whole rounds of operations until
``--seconds`` have passed, checking every operation's output. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics from spans around speckg's public functions. Without
``--workload`` each workload runs in turn in its own process.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("build-manual", "query-manual", "eval-fixture")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES,
                        help="run one workload (default: all three, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer, instrument
    from workloads import WORKLOADS

    tracer = Tracer(spans=trace)
    instrument(tracer)
    work = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, work)
        setup_s = []
        for _ in range(workload.setups):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)

        items = workload.round()
        durations: list[float] = []
        failed, wrong = [], 0
        begin = time.perf_counter()
        while True:
            for item in items:
                op = len(durations)
                tracer.begin_op(op)
                start = time.perf_counter()
                result = workload.run(op, item)
                durations.append(time.perf_counter() - start)
                tracer.end_op()
                outcome = workload.check(op, item, result)
                if not outcome.ok:
                    failed.append(getattr(item, "qid", op))
                    wrong += not outcome.known
                nodes, edges = workload.graph_size(result)
                tracer.counts["kg.nodes"] += nodes
                tracer.counts["kg.edges"] += edges
                workload.cleanup(op)
            if time.perf_counter() - begin >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = len(durations)
    counts = tracer.counts
    if trace:
        tracer.write(OUT / f"trace-{name}.jsonl")
        metrics = tracer.layer_metrics(ops)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (ops / sum(durations), "1/s"),
            "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(durations, n=10, method="inclusive")[8] * 1e3,
                          "ms"),
            "chat_calls_per_op": (counts["chat_requests"] / ops, "calls/op"),
            "embed_texts_per_op": (counts["embed_texts"] / ops, "texts/op"),
            "prompt_tokens_per_op": (counts["prompt_tokens"] / ops, "tokens/op"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "workload": name,
        "correct": wrong == 0,
        "attempted": ops,
        "failed": len(failed),
        "failed_ids": sorted(set(map(str, failed))),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _print_table(result: dict) -> None:
    print(f"{result['workload']}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} failed_ids={result['failed_ids']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    logging.basicConfig(level=logging.ERROR)
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_table(result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
