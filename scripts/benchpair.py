"""Run a change and its parent through perfbench in alternating pairs, and
write every run and the per-metric statistics to ``BENCH_<label>.json``.

    python3 scripts/benchpair.py --parent <rev> --pairs N \\
        --workloads prep-paper [infer-paper ...] --seed0 S --label L

Run it from the repository root. The parent is exported with
``git archive <rev>`` and the change is the working tree (tracked files
and untracked ones git does not ignore), each into a fresh temporary
directory outside the repository that is removed at the end. Each side
runs its own ``perfbench/run.py --trace 0`` with ``--seconds`` taken from
``BENCHMARK.json``. Pair i uses seed S + i for both sides; even pairs run
the parent first and odd pairs the change first, so slow drift of the
machine falls on both sides alike.

A run that exits non-zero, prints no result line or reports
``correct: false`` is kept in the file and counted as failed. Statistics
use successful runs only: per side the median, quartiles (inclusive
method, as ``numpy.percentile``'s default) and interquartile range, and
per metric with a known direction the number of pairs, both of whose runs
succeeded, in which the change did better. A change run that fails is a
pair the change did not win.

If the two sides' ``perfbench/`` trees differ, the file and standard error
say so: such pairs compare two benchmarks, not two programs.

Before the pairs, the change's ``scripts/bitcheck.py`` runs once against
each side's ``src/``, one side after the other. The file keeps both
outputs and whether they are the same (both exited 0 and printed the same
lines); standard error says so when they are not. It then runs once more
against the change's ``src/`` in a child pinned to one CPU (its own
affinity, set with ``os.sched_setaffinity`` between fork and exec; this
process keeps its own), so the engine runs on one thread, and the file
records whether that output is the change's two-CPU output
(``bitcheck.same_one_cpu``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
IGNORED_PARTS = {"_work", "_out", "__pycache__"}   # perfbench's scratch, not its code


# -- exporting the two sides -----------------------------------------------------


def _git(repo: Path, *args: str, text: bool = True):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=text).stdout


def export_parent(repo: Path, rev: str, dest: Path) -> None:
    """``git archive rev`` unpacked into ``dest`` by ``tar``."""
    data = _git(repo, "archive", "--format=tar", rev, text=False)
    dest.mkdir(parents=True, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)


def export_worktree(repo: Path, dest: Path) -> None:
    """The working tree's tracked and unignored untracked files, copied."""
    listed = _git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in sorted(set(filter(None, listed.split("\0")))):
        src = repo / rel
        if src.is_file():   # a tracked file deleted in the working tree is left out
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and contents of every file under
    ``root``, scratch and bytecode directories excluded."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        if IGNORED_PARTS.isdisjoint(rel.parts):
            h.update(rel.as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# -- running ---------------------------------------------------------------------


def perfbench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run from the checkout at ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {"exit_code": proc.returncode, "correct": result.get("correct"),
            "attempted": result.get("attempted"), "failed_ops": result.get("failed"),
            "metrics": metrics, "stderr_tail": proc.stderr.splitlines()[-5:]}


def _pin_to_one_cpu() -> None:
    """Runs in the child between fork and exec: the child, and only it, may
    use the first CPU this process may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def bitcheck_run(script: Path, src: Path, one_cpu: bool = False) -> dict:
    """One run of the bitcheck ``script`` against the sources at ``src``;
    with ``one_cpu``, in a child pinned to one CPU."""
    proc = subprocess.run([sys.executable, str(script)], cwd=src.parent, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          preexec_fn=_pin_to_one_cpu if one_cpu else None)
    return {"exit_code": proc.returncode, "lines": proc.stdout.splitlines(),
            "stderr_tail": proc.stderr.splitlines()[-5:]}


def run_pairs(workloads, pairs: int, seed0: int, run_fn) -> list[dict]:
    """Every run, in the order run. ``run_fn(side, workload, seed)`` returns
    a dict with at least ``exit_code``, ``correct`` and ``metrics``."""
    runs = []
    for workload in workloads:
        for pair in range(pairs):
            seed = seed0 + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                rec = dict(run_fn(side, workload, seed))
                rec.update(workload=workload, pair=pair, seed=seed, side=side,
                           position=position,
                           ok=rec["exit_code"] == 0 and rec.get("correct") is True)
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      f"{'ok' if rec['ok'] else 'FAILED'} {rec['metrics']}",
                      file=sys.stderr, flush=True)
                runs.append(rec)
    return runs


# -- statistics ------------------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _side_stats(values) -> dict:
    if not values:
        return {"n": 0}
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: failed-run counts per side, and per metric each side's
    statistics and, where ``better`` gives the metric's direction ("lower"
    or "higher"), the pairs the change won among those both sides ran."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {(r["pair"], r["side"]): r for r in mine}
        names = sorted({m for r in mine for m in r["metrics"]})
        summary = {"runs": {s: sum(r["side"] == s for r in mine) for s in SIDES},
                   "failed": {s: sum(r["side"] == s and not r["ok"] for r in mine)
                              for s in SIDES},
                   "metrics": {}}
        for name in names:
            entry = {s: _side_stats([r["metrics"][name] for r in mine
                                     if r["side"] == s and r["ok"] and name in r["metrics"]])
                     for s in SIDES}
            direction = better.get(name)
            if direction is not None:
                compared = wins = 0
                for pair in sorted({r["pair"] for r in mine}):
                    p, c = by_pair.get((pair, "parent")), by_pair.get((pair, "change"))
                    if not (p and c and p["ok"] and c["ok"]):
                        continue
                    if name not in p["metrics"] or name not in c["metrics"]:
                        continue
                    compared += 1
                    pv, cv = p["metrics"][name], c["metrics"][name]
                    wins += cv < pv if direction == "lower" else cv > pv
                entry.update(better=direction, pairs_compared=compared, change_better=wins)
            summary["metrics"][name] = entry
        out[workload] = summary
    return out


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in benchmark.get(key, [])}


# -- the machine -----------------------------------------------------------------


def environment() -> dict:
    """CPUs, interpreter, numpy, scipy and the OpenBLAS libraries they map."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS)

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return {k: deps["blas"].get(k) for k in ("name", "version")}
        except (TypeError, KeyError):   # builds without the dict form or a BLAS entry
            return None

    mapped = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                    mapped.add(os.path.basename(fields[5].strip()))
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "openblas_mapped": sorted(mapped)}


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    commits = {
        "parent": {"rev": args.parent,
                   "commit": _git(ROOT, "rev-parse", f"{args.parent}^{{commit}}").strip()},
        "change": {"rev": "working tree", "head": _git(ROOT, "rev-parse", "HEAD").strip(),
                   "dirty": bool(_git(ROOT, "status", "--porcelain").strip())},
    }
    work = Path(tempfile.mkdtemp(prefix="benchpair-"))
    try:
        roots = {s: work / s for s in SIDES}
        export_parent(ROOT, args.parent, roots["parent"])
        export_worktree(ROOT, roots["change"])
        commits["change"]["tree_sha256"] = tree_digest(roots["change"])
        perfbench = {s: tree_digest(roots[s] / "perfbench") for s in SIDES}
        same = perfbench["parent"] == perfbench["change"]
        if not same:
            print("warning: the two sides' perfbench/ trees differ; these pairs compare "
                  "two benchmarks, not two programs", file=sys.stderr)
        bits = {s: bitcheck_run(roots["change"] / "scripts" / "bitcheck.py", roots[s] / "src")
                for s in SIDES}
        bits["same"] = (bits["parent"]["exit_code"] == bits["change"]["exit_code"] == 0
                        and bits["parent"]["lines"] == bits["change"]["lines"])
        if not bits["same"]:
            print("warning: scripts/bitcheck.py gives different output on the two sides' src/",
                  file=sys.stderr)
        bits["change_one_cpu"] = bitcheck_run(roots["change"] / "scripts" / "bitcheck.py",
                                              roots["change"] / "src", one_cpu=True)
        bits["same_one_cpu"] = (bits["change_one_cpu"]["exit_code"] == 0
                                and bits["change_one_cpu"]["lines"] == bits["change"]["lines"])
        if not bits["same_one_cpu"]:
            print("warning: scripts/bitcheck.py gives different output on the change's src/ "
                  "pinned to one CPU", file=sys.stderr)
        runs = run_pairs(args.workloads, args.pairs, args.seed0,
                         lambda side, w, seed: perfbench_run(roots[side], w, seed, seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"label": args.label, "commits": commits,
              "perfbench": {"sha256": perfbench, "same": same},
              "bitcheck": bits,
              "command": {"workloads": args.workloads, "pairs": args.pairs,
                          "seed0": args.seed0, "seconds": seconds, "trace": 0},
              "seeds": [args.seed0 + i for i in range(args.pairs)],
              "order": [[r["workload"], r["pair"], r["side"]] for r in runs],
              "environment": environment(),
              "summary": summarize(runs, metric_directions(benchmark)),
              "runs": runs}
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
