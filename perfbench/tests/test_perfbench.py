"""Tests of the benchmark itself: span accounting, wrapper hygiene, repeatable
counts and digests, best-of-passes summaries, CPU rotation, and the
correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [SRC, BENCH]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workload  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

COUNT_METRICS = (
    "linalg.eigensolves_per_op",
    "linalg.eigensolve_dim3_per_op",
    "linalg.svd_qr_per_op",
    "states.validations_per_op",
    "protocols.branches_per_op",
    "protocols.isometry_checks_per_op",
    "cli.sweep_evals_per_point",
    "transforms.constrained_applicable_ratio",
)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 3

    def middle():
        clock.now += 2
        traced_leaf()
        clock.now += 1

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    traced_middle()  # outside an op: passes through, records nothing
    assert len(tracer) == 0

    root = tracer.open("op")
    clock.now += 5
    traced_middle()
    traced_middle()
    tracer.close(root)

    names = [tracer.names[i] for i in tracer.name]
    assert names == ["op", "middle", "leaf", "middle", "leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 0, 3]
    dur, own = self_times(tracer.columns())
    assert dur.tolist() == [5 + 2 * 6, 6, 3, 6, 3]
    assert own.tolist() == [5, 3, 3, 3, 3]
    assert own.sum() == dur[0]
    # Spans from the second ``middle`` on: it becomes a root of its own.
    dur, own = self_times(tracer.columns(3))
    assert dur.tolist() == [6, 3] and own.tolist() == [3, 3]


def _bindings():
    """Identity of everything install() may replace."""
    import factorlab

    owners = [factorlab, *tracing.MODULES]
    seen = {}
    for module in owners:
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = id(value)
        for table, key, entry in tracing._registries(module):
            seen[(module.__name__, id(table), key)] = tuple(id(v) for v in entry)
    for cls, _ in tracing.VALIDATORS:
        seen[(cls.__name__, "__post_init__")] = id(cls.__post_init__)
    for attr in tracing.NUMPY_LINALG:
        seen[("numpy.linalg", attr)] = id(getattr(np.linalg, attr))
    seen[("argparse", "parse_args")] = id(argparse.ArgumentParser.parse_args)
    return seen


def test_uninstall_restores_every_binding():
    before = _bindings()
    patches = tracing.install(Tracer())
    try:
        during = _bindings()
        changed = [k for k in before if before[k] != during[k]]
        assert ("numpy.linalg", "eigh") in changed
        assert ("factorlab.transforms", "ppt_check") in changed  # imported name
        assert ("DensityMatrix", "__post_init__") in changed
    finally:
        tracing.uninstall(patches)
    assert _bindings() == before


UNTRACED_CHECK = """
import sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import numpy as np
import workload, workloads
from factorlab import cli, linalg, measures, protocols, states, transforms, witness_bell
with tempfile.TemporaryDirectory() as tmp:
    run = workload.run_passes(workloads.make_pool("qubit_cli", 0, tmp), 0.0, min_passes=1)
assert run["failed"] == 0, run["failures"]
assert "tracing" not in sys.modules
modules = (cli, linalg, measures, protocols, states, transforms, witness_bell)
leaked = [f"{{m.__name__}}.{{a}}" for m in modules for a, v in vars(m).items()
          if hasattr(v, "__perfbench_span__")]
leaked += [a for a in ("eigh", "eigvalsh", "svd", "qr") if hasattr(getattr(np.linalg, a), "__perfbench_span__")]
leaked += [c.__name__ for c in (states.DensityMatrix, transforms.FactorizationSwitch, protocols.Isometry)
           if hasattr(c.__post_init__, "__perfbench_span__")]
print(leaked)
"""


def test_untraced_run_installs_no_wrappers():
    code = UNTRACED_CHECK.format(src=SRC, bench=BENCH)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    counts = []
    for _ in range(2):
        pool = workloads.make_pool(name, 3, str(tmp_path))
        run = workload.run_traced(pool, 0.0, min_passes=1)
        assert run["failed"] == 0, run["failures"]
        counts.append({k: run["layers"][k] for k in COUNT_METRICS})
    assert counts[0] == counts[1]
    if name != "protocol_trace":
        assert counts[0]["linalg.eigensolves_per_op"] > 0
    if name == "sweep_grid":
        assert counts[0]["cli.sweep_evals_per_point"] >= 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stdout_digest_repeats_for_a_seed(name, tmp_path):
    def digest(seed):
        pool = workloads.make_pool(name, seed, str(tmp_path))
        run = workload.run_passes(pool, 0.0, min_passes=0)
        assert run["failed"] == 0, run["failures"]
        return run["stdout_sha256"]

    first = digest(0)
    assert digest(0) == first
    assert digest(1) != first


@pytest.mark.parametrize("per_pass, rank, beyond", [(10, 8, 1), (28, 24, 3), (100, 89, 10)])
def test_summary_takes_each_ops_best_latency(per_pass, rank, beyond):
    # Op i costs i + 1 ms; one pass of three is 1.5x slower throughout, as in
    # a slow phase of the host, and must not show.
    costs = [1e-3 * (i + 1) for i in range(per_pass)]
    latencies = [c * slow for slow in (1.0, 1.5, 1.0) for c in costs]
    run = {"latencies": latencies, "ops_per_pass": per_pass, "pass_seconds": [sum(costs)] * 3}
    summary = workload.summarize(run)
    assert summary["ops_per_s"] == pytest.approx(per_pass / sum(costs))
    assert summary["latency_p50_ms"] == pytest.approx(1e3 * np.median(costs))
    assert summary["latency_tail_ms"] == pytest.approx(1e3 * costs[rank])
    assert summary["tail_beyond"] == beyond == per_pass - rank - 1


def test_passes_rotate_over_cpus_and_restore_affinity(tmp_path):
    before = os.sched_getaffinity(0)
    op = workloads.make_pool("protocol_trace", 0, str(tmp_path))[0]
    seen = []

    def recording_run():
        seen.append(os.sched_getaffinity(0))
        return op.run()

    pool = [workloads.Op(op.label, recording_run, op.check)]
    run = workload.run_passes(pool, 0.0, min_passes=2 * len(before))
    assert run["failed"] == 0, run["failures"]
    assert os.sched_getaffinity(0) == before
    assert all(len(cpus) == 1 for cpus in seen)
    assert set().union(*seen) == before


def _perturbed(result, edit):
    """Output of ``op`` with one number changed by ``edit``."""
    if isinstance(result, workloads.SwitchResult):
        payload = json.loads(result.text)
        edit(payload)
        return workloads.SwitchResult(json.dumps(payload), result.after, result.description)
    payload = json.loads(result)
    edit(payload)
    return json.dumps(payload)


def _bump(obj, *path):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] += 1e-6


@pytest.mark.parametrize("name, index, path", [
    ("qubit_cli", 0, ("concurrence",)),
    ("qudit_switch", 3, ("after", "purity")),
    ("sweep_grid", 1, (50, "C")),
    ("protocol_trace", 5, ("outcomes", 0, "probability")),
])
def test_checks_reject_a_wrong_number(name, index, path, tmp_path):
    op = workloads.make_pool(name, 0, str(tmp_path))[index]
    result = op.run()
    assert op.check(result) is None
    assert op.check(_perturbed(result, lambda p: _bump(p, *path))) is not None
