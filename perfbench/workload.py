"""Run one benchmark workload in this (fresh) interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

``run.py`` starts this file in a child process with the BLAS thread variables
pinned to 1.  It times set-up (importing numpy, importing factorlab and its
CLI, generating the inputs), prints one JSON "ready" line, then runs the
input pool in whole passes: one warm-up pass, whose stdout is digested and,
when traced, whose counts are taken, then measured passes until ``--seconds``
have gone by and at least ``MIN_PASSES`` are done.  It prints one JSON result
line, with every op's latency of every measured pass, and exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_PASSES = 3
TAIL_SHARE = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MAX_FAILURES_KEPT = 5


def emit(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def setup(name: str, seed: int, workdir: str):
    """Import the program and build the inputs; returns (pool, timings)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import factorlab
    import factorlab.cli  # noqa: F401

    t2 = time.perf_counter()
    if not os.path.abspath(factorlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"factorlab imported from {factorlab.__file__}, not from {SRC}")
    import workloads

    pool = workloads.make_pool(name, seed, workdir)
    t3 = time.perf_counter()
    return pool, {"import_numpy_s": t1 - t0, "import_factorlab_s": t2 - t1, "inputs_s": t3 - t2}


def run_passes(pool, seconds: float, tracer=None, min_passes: int = MIN_PASSES) -> dict:
    """Run the pool in whole passes and check every op.  Latencies and pass
    times cover the measured passes only; the digest covers the warm-up pass.

    Successive passes run on each allowed CPU in turn.  The host slows each
    CPU in its own phases, some as long as a whole run, so passes spread over
    every CPU give each op's best latency (``summarize``) a fast phase to land
    in."""
    digest = hashlib.sha256()
    latencies: list[float] = []
    pass_seconds: list[float] = []
    failures: list[str] = []
    attempted = failed = 0
    counted = None
    measure_start = None
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    while measure_start is None or (
        len(pass_seconds) < min_passes or time.perf_counter() - measure_start < seconds
    ):
        warmup = measure_start is None
        busy = 0.0
        os.sched_setaffinity(0, {cpus[len(pass_seconds) % len(cpus)]})
        for op in pool:
            idx = tracer.open("op") if tracer is not None else None
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a failed op is counted, and the run goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.close(idx)
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # output the check cannot read
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
                if warmup:
                    digest.update(str(result).encode())
            attempted += 1
            busy += elapsed
            if not warmup:
                latencies.append(elapsed)
            if error is not None:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append(f"{op.label}: {error}")
        if warmup:
            measure_start = time.perf_counter()
            if tracer is not None:
                counted = (len(tracer), dict(tracer.counters))
        else:
            pass_seconds.append(busy)
    os.sched_setaffinity(0, allowed)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "stdout_sha256": digest.hexdigest(),
        "ops_per_pass": len(pool),
        "pass_seconds": pass_seconds,
        "latencies": latencies,
        "counted": counted,
    }


def summarize(run: dict) -> dict:
    """End-to-end figures of one run, from each op's best latency.

    Every op of the pool runs once per measured pass, so it has one latency
    per pass; its latency is the least of them.  The host's interference only
    ever adds time, and it comes in phases of seconds in which everything runs
    up to 1.6x slower, so a median over samples moves with how much of a run
    fell in slow phases, while each op's best does not.  Throughput is the pool
    over the sum of the best latencies.  The p50 and the tail are taken over
    the pool's best latencies; the tail is the highest percentile with at
    least a tenth of the pool beyond it (10 ops of a 100-op pool).  The
    figures over all samples are kept as ``raw_*`` for the record."""
    lat, per_pass = run["latencies"], run["ops_per_pass"]
    best = sorted(min(lat[i::per_pass]) for i in range(per_pass))
    beyond = -(-per_pass // TAIL_SHARE)
    rank = per_pass - beyond - 1
    return {
        "ops_per_s": per_pass / sum(best),
        "latency_p50_ms": 1e3 * statistics.median(best),
        "latency_tail_ms": 1e3 * best[rank],
        "tail_percentile": 100.0 * (rank + 1) / per_pass,
        "tail_beyond": beyond,
        "samples": len(lat),
        "passes": len(run["pass_seconds"]),
        "raw_ops_per_s": per_pass / statistics.median(run["pass_seconds"]),
        "raw_latency_p50_ms": 1e3 * statistics.median(lat),
    }


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "factorlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np
    from factorlab.linalg import DEFAULT_TOL

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "tol": DEFAULT_TOL,
    }


def run_traced(pool, seconds: float, spans_path: str | None = None, min_passes: int = MIN_PASSES) -> dict:
    """Traced run: wrappers are installed for its duration only."""
    import tracing

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        run = run_passes(pool, seconds, tracer, min_passes)
    finally:
        tracing.uninstall(patches)
    first_pass_end, counters = run.pop("counted")
    run["layers"] = tracing.layer_metrics(tracer, first_pass_end, counters, len(run["latencies"]))
    if spans_path is not None:
        tracer.save(spans_path)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [SRC, HERE]

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        pool, timings = setup(args.workload, args.seed, workdir)
        emit({"ready": True, **timings})
        if args.setup_only:
            return 0
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"{args.workload}.spans.npz")
            run = run_traced(pool, args.seconds, spans)
        else:
            run = run_passes(pool, args.seconds)
            del run["counted"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = summarize(run)
    run.update(summary)
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run["provenance"] = provenance(args.seed)
    emit(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
