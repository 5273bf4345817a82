"""Benchmark of the squarefibers CLI.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  A run is a sequence of passes.  Each pass is one fresh Python
interpreter (``child.py``) that imports ``squarefibers.cli`` (timed as
set-up) and then calls ``squarefibers.cli.run(argv)`` for each operation
of the workload in order, in a fresh working directory, so every pass
starts with cold caches as a CLI call or a script session does.  Passes
run one at a time (a closed loop with one client) until ``--seconds`` is
used up; every metric is the median over the run's passes.

Every operation's stdout is checked against the SHA-256 frozen in
``data/``.  An operation fails when it exits non-zero, raises, or prints
anything else; the run then exits 1.

With ``--trace 1`` the run alternates untraced and traced passes.  The
traced passes wrap the package's public functions from outside
(``tracer.py``) and give the per-layer metrics; the untraced ones give
the tracing overhead and the reference stdout digests.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("batch", "class-queries")
QUERIES_PER_STRATUM = 143  # 7 strata: 1001 requests per pass
HARD_LIMIT_S = 165.0  # a run must end within 180 s
MIN_UNTRACED_PASSES = 3  # so that a run's median is not one pass, nor the mean of two

# End-to-end metrics, reported by every workload: (name, unit).
E2E_METRICS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed besides them: the latency percentiles of a workload of many
# anonymous requests, and the time of each named operation of the others.
PERCENTILES = (("op_p50_ms", 50), ("op_p99_ms", 99))


def load_data(name: str):
    with open(os.path.join(HERE, "data", name)) as fh:
        return json.load(fh)


def workload_ops(workload: str, seed: int) -> list[dict]:
    """The operations of one pass: dicts with argv, sha256 and, for the
    fixed workload, the name of the operation's metric."""
    if workload == "class-queries":
        rng = random.Random(seed)
        pool = load_data("query_pool.json")
        ops = [op for stratum in sorted(pool) for op in rng.sample(pool[stratum], QUERIES_PER_STRATUM)]
        rng.shuffle(ops)
        return ops
    return load_data("fixed_ops.json")[workload]


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th smallest
    of n samples.  For p = 99 and n = 1001 that leaves 10 samples above it."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


# -- passes ---------------------------------------------------------------------


def run_pass(ops: list[dict], trace: bool, run_dir: str, index: int, timeout: float) -> dict:
    """One fresh interpreter over ``ops``.  Returns the child's report, or a
    report in which every operation failed when the child itself died."""
    work = tempfile.mkdtemp(prefix=f"pass{index}-", dir=run_dir)
    spans = os.path.join(run_dir, f"spans-pass{index}.json.gz") if trace else None
    job = json.dumps({"ops": ops, "trace": trace, "spans_path": spans})
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), SRC],
            input=job, capture_output=True, text=True, cwd=work, timeout=timeout,
        )
        problem = None if proc.returncode == 0 else f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    except subprocess.TimeoutExpired:
        proc, problem = None, f"child killed after {timeout:.0f} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started
    if problem is None:
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problem = f"child printed no report: {proc.stderr.strip()[-400:]}"
    if problem is not None:
        report = {"ops": [{"seconds": None, "sha256": None, "error": problem} for _ in ops]}
    report.update(trace=trace, pass_s=elapsed, died=problem)
    return report


def run_passes(ops: list[dict], trace: bool, seconds: float, run_dir: str) -> list[dict]:
    """Rounds of passes, one pass at a time, for about ``seconds`` and, without
    tracing, at least three passes.  A round is one untraced pass, or with
    tracing one untraced and one traced pass."""
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    passes: list[dict] = []
    rounds: list[float] = []
    while True:
        round_start = time.perf_counter()
        for kind in kinds:
            timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - start))
            passes.append(run_pass(ops, kind, run_dir, len(passes), timeout))
            if passes[-1]["died"]:
                return passes
        now = time.perf_counter()
        rounds.append(now - round_start)
        typical = statistics.median(rounds)
        if now - start + typical > HARD_LIMIT_S:
            return passes
        # Go on while the next round would end nearer to --seconds than
        # stopping now does, so a run lasts --seconds give or take half a round.
        if now - start + typical / 2 > seconds and (trace or len(passes) >= MIN_UNTRACED_PASSES):
            return passes


# -- metrics ------------------------------------------------------------------------


def pass_metrics(report: dict) -> dict[str, float]:
    times = sorted(op["seconds"] for op in report["ops"])
    metrics = {
        "wall_s": sum(times),
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    metrics.update((name, 1000 * nearest_rank(times, p)) for name, p in PERCENTILES)
    return metrics


def pass_record(report: dict) -> dict:
    """What result.json keeps of a pass: its timings and its errors."""
    record = {k: report.get(k) for k in ("trace", "died", "pass_s", "setup_s", "peak_rss_mb")}
    record["op_seconds"] = [op["seconds"] for op in report["ops"]]
    record["errors"] = {i: op["error"] for i, op in enumerate(report["ops"]) if op["error"]}
    return record


def median_of(reports: list[dict], key) -> float:
    return statistics.median(key(r) for r in reports)


def summarize(ops: list[dict], passes: list[dict], trace: bool) -> dict:
    """The run's result object plus the printed extras: the named
    per-operation medians or, without names, the latency percentiles."""
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [op["error"] for p in passes for op in p["ops"] if op["error"]]
    failed = len(failures)
    untraced = [p for p in passes if not p["trace"] and not p["died"]]
    traced = [p for p in passes if p["trace"] and not p["died"]]
    if untraced and traced:
        reference = [op["sha256"] for op in untraced[0]["ops"]]
        if any([op["sha256"] for op in p["ops"]] != reference for p in traced):
            failures.append("traced stdout digests differ from the untraced ones")
    extras: dict[str, dict] = {}
    metrics: dict[str, dict] = {}
    if untraced and (traced or not trace):
        per_pass = [pass_metrics(p) for p in untraced]
        if trace:
            for name, unit, _ in LAYER_METRICS:
                if name == "trace.overhead":
                    value = (median_of(traced, lambda p: sum(op["seconds"] for op in p["ops"]))
                             / median_of(per_pass, lambda m: m["wall_s"]))
                else:
                    value = median_of(traced, lambda p: p["layers"][name])
                metrics[name] = {"value": value, "unit": unit}
        else:
            for name, unit in E2E_METRICS:
                metrics[name] = {"value": median_of(per_pass, lambda m: m[name]), "unit": unit}
        for i, op in enumerate(ops):
            if "name" in op:
                value = median_of(untraced, lambda p: p["ops"][i]["seconds"])
                extras[op["name"] + "_s"] = {"value": value, "unit": "s"}
        if not extras:
            for name, _ in PERCENTILES:
                extras[name] = {"value": median_of(per_pass, lambda m: m[name]), "unit": "ms"}
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "extras": extras,
        "failures": failures,
        "passes": {"untraced": len(untraced), "traced": len(traced), "ops_per_pass": len(ops)},
    }


# -- environment ---------------------------------------------------------------------


def environment() -> dict:
    def version(dist: str) -> str:
        from importlib import metadata

        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "squarefibers")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- main -------------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    ops = workload_ops(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-trace{int(trace)}-", dir=OUT)
    passes = run_passes(ops, trace, seconds, run_dir)
    summary = summarize(ops, passes, trace)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "environment": env, **summary,
                   "passes_detail": [pass_record(p) for p in passes]},
                  fh, indent=1)
    res = summary["result"]
    counts = summary["passes"]
    print(f"== {workload} (seed {seed}, trace {int(trace)}): {counts['untraced']} untraced and "
          f"{counts['traced']} traced passes of {counts['ops_per_pass']} ops; medians over passes")
    for name, metric in (*res["metrics"].items(), *summary["extras"].items()):
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ops':<48} {res['failed']}/{res['attempted']}")
    for failure in dict.fromkeys(summary["failures"]):
        print(f"  FAILED: {failure}", file=sys.stderr)
    print(f"  record: {os.path.relpath(run_dir, ROOT)}/result.json")
    return res


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that subprocess.run
    # kills and reaps the pass in flight before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "squarefibers", "cli.py")):
        print(f"error: no squarefibers sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), env) for w in workloads}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
