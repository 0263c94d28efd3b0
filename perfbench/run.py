"""factorlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload qubit_cli --seed 0 --seconds 10 --trace 0

Workloads: qubit_cli, qudit_switch, sweep_grid, protocol_trace (see
``workloads.py`` for what each drives and why).  Every workload runs in a fresh
single-threaded Python process (``workload.py``) with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS pinned to 1, one closed-loop client, and inputs generated from
``--seed`` during set-up.  Set-up time is the median over SETUP_PROBES fresh
interpreters plus the workload's own.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the workload
untraced and then traced, each in its own process for half of ``--seconds``,
and prints the per-layer metrics and the tracing overhead.  Throughput and
latency come from each op's best latency over the measured passes (see
``workload.summarize``).  Human-readable lines come first; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.  The
full result, with provenance, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("qubit_cli", "qudit_switch", "sweep_grid", "protocol_trace")
SETUP_PROBES = 8
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_LAYERS = ("setup.import_numpy_s", "setup.import_factorlab_s", "setup.inputs_s")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FACTORLAB_TOL"}
    env.update(PINNED)
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict, dict | None]:
    """Start workload.py, time it to its "ready" line, and wait for it to end.
    Returns (set-up seconds, ready line, result line or None)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{' '.join(args)}: no result before the deadline") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or not ready_line:
        raise ChildFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    lines = rest.splitlines()
    return setup_s, json.loads(ready_line), json.loads(lines[-1]) if lines else None


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    return recorded["stdout_sha256"].get(workload) if recorded["seed"] == seed else None


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms_per_op", "ms"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "factorlab", "__init__.py")):
        print(f"perfbench: no factorlab source under {ROOT}/src", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    # A traced run splits --seconds between its untraced and its traced process.
    seconds = args.seconds / 2 if args.trace else args.seconds
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]

    try:
        # Half the set-up probes run before the workload and half after, so
        # set-up time is sampled at two moments of the host's load.
        probes = [run_child(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES // 2)]
        runs = [run_child(base, deadline)]
        if args.trace:
            runs.append(run_child(base + ["--trace"], deadline))
        probes += [run_child(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES // 2)]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups = [(s, ready) for s, ready, _ in probes + runs]
    results = [result for _, _, result in runs]
    untraced = results[0]
    setup_s = statistics.median(s for s, _ in setups)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    want = recorded_digest(args.workload, args.seed)
    digest_note = "no digest recorded for this seed" if want is None else (
        "matches the recorded digest" if want == untraced["stdout_sha256"]
        else f"DIFFERS from the recorded digest {want}")

    print(f"factorlab benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("provenance " + json.dumps(untraced["provenance"], sort_keys=True))
    print(f"ops_per_s        {fmt(untraced['ops_per_s'])} 1/s  "
          f"({untraced['ops_per_pass']} ops per pass; each op's best of {untraced['passes']} passes, "
          f"{untraced['samples']} samples)")
    print(f"latency_p50_ms   {fmt(untraced['latency_p50_ms'])} ms  "
          f"(median of the {untraced['ops_per_pass']} best latencies)")
    print(f"latency_tail_ms  {fmt(untraced['latency_tail_ms'])} ms  "
          f"(p{untraced['tail_percentile']:.1f} of the {untraced['ops_per_pass']} best latencies, "
          f"{untraced['tail_beyond']} beyond it)")
    print(f"over all samples {fmt(untraced['raw_ops_per_s'])} 1/s from the median pass, "
          f"p50 {fmt(untraced['raw_latency_p50_ms'])} ms  (host interference included)")
    print(f"error_rate       {fmt(failed / attempted)}  ({failed} failed of {attempted} attempted)")
    print(f"setup_s          {fmt(setup_s)} s  (median of {len(setups)} fresh interpreters)")
    print(f"peak_rss_mb      {fmt(untraced['peak_rss_mb'])} MB")
    print(f"stdout_sha256    {untraced['stdout_sha256']}  (warm-up pass; {digest_note})")
    for r in results:
        for failure in r["failures"]:
            print(f"FAILED  {failure}")

    if args.trace:
        traced = results[1]
        layers = dict(traced["layers"])
        for name in SETUP_LAYERS:
            layers[name] = statistics.median(ready[name.split(".", 1)[1]] for _, ready in setups)
        layers["trace.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"{name:42s} {fmt(value)} {unit}")
        print("linalg.eigensolve_dim3_per_op is a computed operation count: the sum of D^3 "
              "over the eigh/eigvalsh calls of an op")
        print("wait time: 0 in every layer by construction (one thread, one client, no queue)")
    else:
        untraced["setup_s"] = setup_s
        metrics = {name: (untraced[name], unit) for name, unit in END_TO_END.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": [s for s, _ in setups], "setup": [r for _, r in setups],
                   "runs": results}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
