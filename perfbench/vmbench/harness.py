"""Runs one workload: set-up, checks, timed rounds or a traced round, and
the one-line JSON result."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from . import layers
from .infer_paper import InferPaper
from .prep_paper import PrepPaper
from .tracer import Tracer
from .train_c07 import TrainC07

WORKLOADS = {w.name: w for w in (TrainC07, InferPaper, PrepPaper)}
SETUPS = 3            # set-up repeats per run; setup_s is their median
BENCH_DIR = Path(__file__).resolve().parents[1]


def _rounds(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed (at least one)."""
    outs, problems = [], []
    start = time.perf_counter()
    while not outs or time.perf_counter() - start < seconds:
        out, found, _ = _untraced_round(workload)
        outs.append(out)
        problems.append(found)
    return outs, problems


def _untraced_round(workload):
    tracer = Tracer()
    tracer.install_stopwatch()
    try:
        t0 = time.perf_counter()
        out = workload.round(tracer)
        problems = workload.check_round(out)
        return out, problems, time.perf_counter() - t0
    finally:
        tracer.uninstall()


def _traced_round(workload, out_path: Path):
    """A warm-up round, a traced round and an untraced round of the same
    work; the overhead compares the last two. Returns (outputs, problems
    per round, per-layer metrics)."""
    out0, probs0, _ = _untraced_round(workload)
    tracer = Tracer()
    tracer.install_all()
    box = {}
    try:
        def body():
            box["out"] = workload.round(tracer)
            box["problems"] = workload.check_round(box["out"])
        tracer.span("round", body)
    finally:
        tracer.uninstall()
    out2, probs2, untraced = _untraced_round(workload)
    tracer.write(out_path)
    per_layer = layers.derive(tracer.spans, workload.videos_per_round, tracer.spans[0].dur,
                              untraced)
    if per_layer["trace.coverage"] < 1.0 - layers.COVERAGE_TOL:
        box["problems"].append(f"layer spans cover {per_layer['trace.coverage']:.1%} of the "
                               f"traced round, below {1 - layers.COVERAGE_TOL:.0%}")
    return [out0, box["out"], out2], [probs0, box["problems"], probs2], per_layer


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    cls = WORKLOADS[name]
    work = BENCH_DIR / "_work" / f"{name}-{seed}-{os.getpid()}"
    workload = None
    try:
        setup = []
        for _ in range(SETUPS):
            if workload is not None:
                workload.close()
            t0 = time.perf_counter()
            workload = cls(seed, work)
            setup.append(time.perf_counter() - t0)

        if trace:
            trace_file = BENCH_DIR / "_out" / f"trace-{name}-seed{seed}.jsonl.gz"
            outs, round_problems, per_layer = _traced_round(workload, trace_file)
            per_layer.update(workload.metrics(outs[-1:]))   # the untraced round's figures
            metrics = {n: {"value": per_layer[n], "unit": u} for n, u in layers.per_layer_metrics()}
        else:
            outs, round_problems = _rounds(workload, seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                       "clips_per_s": {"value": workload.clips_per_s(outs), "unit": "clips/s"},
                       "peak_rss_mb": {"value": rss, "unit": "MiB"}}
        run_problems = workload.check_run()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outs) * cls.ops_per_round + cls.run_checks
    failed = min(len(run_problems), cls.run_checks) + sum(
        min(len(p), cls.ops_per_round) for p in round_problems)
    for problem in run_problems + [p for ps in round_problems for p in ps]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1
