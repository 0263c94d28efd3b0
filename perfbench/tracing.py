"""Span tracing of factorlab from the outside, for the benchmark's traced run.

``install`` wraps every public function of each factorlab module (and the
private helpers named in ``EXTRA``), rebinds the names other factorlab modules
imported from it, wraps the validating ``__post_init__`` of the state, switch
and isometry classes, and wraps ``numpy.linalg.eigh``/``eigvalsh``/``svd``/
``qr`` plus ``argparse.ArgumentParser.parse_args``.  ``uninstall`` puts every
original back.  The untraced run never imports this module.

A wrapper records a span -- name, start, end, parent -- only while an ``op``
span is open, so the benchmark's own correctness checks are not counted.
Spans are kept in memory in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import argparse
import inspect
import time
from array import array
from collections import Counter
from functools import wraps

import numpy as np

import factorlab
from factorlab import cli, linalg, measures, protocols, states, transforms, witness_bell

MODULES = (linalg, states, measures, witness_bell, transforms, protocols, cli)
# Private helpers that carry a per-layer metric.
EXTRA = {cli: ("_build_parser", "_emit"), protocols: ("_swap_branch",)}
VALIDATORS = (
    (states.DensityMatrix, "states.DensityMatrix.__post_init__"),
    (transforms.FactorizationSwitch, "transforms.FactorizationSwitch.__post_init__"),
    (protocols.Isometry, "protocols.Isometry.__post_init__"),
)
NUMPY_LINALG = ("eigh", "eigvalsh", "svd", "qr")
ROOT = "op"


class Tracer:
    """In-memory span recorder.  Span i has name ``names[name[i]]``, times
    ``start[i]``/``end[i]`` in clock units and parent index ``parent[i]``
    (-1 for a root)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording a span called ``name``; ``on_result(tracer, args,
        result)`` runs after each recorded call."""

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__perfbench_span__ = name
        return traced

    def columns(self, first: int = 0) -> dict[str, np.ndarray]:
        """Spans from ``first`` on as numpy columns; parents are re-based so a
        span whose parent lies before ``first`` reads as a root."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[first:],
            "parent": np.frombuffer(self.parent, dtype=np.int64)[first:] - first,
            "start": np.frombuffer(self.start, dtype=np.int64)[first:],
            "end": np.frombuffer(self.end, dtype=np.int64)[first:],
        }

    def save(self, path: str):
        """Write every span to ``path`` (.npz: name ids, parent, start_ns,
        end_ns, and the id -> name table)."""
        np.savez(path, names=np.array(self.names), **self.columns())


def self_times(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) of every span: self time is the duration minus
    the durations of the span's direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur, dur - child.astype(np.int64)


# ---------------------------------------------------------------------------
# result hooks for counts that need a call's arguments or return value


def _count_eigensolve(tracer: Tracer, args, result):
    a = np.asarray(args[0])
    tracer.counters["eigensolve_dim3"] += int(np.prod(a.shape[:-2], dtype=np.int64)) * a.shape[-1] ** 3


def _count_constrained(tracer: Tracer, args, result):
    tracer.counters["constrained_attempts"] += 1
    tracer.counters["constrained_built"] += isinstance(result, transforms.FactorizationSwitch)


def _count_sweep_points(tracer: Tracer, args, result):
    tracer.counters["sweep_points"] += len(result[1])


HOOKS = {
    "numpy.linalg.eigh": _count_eigensolve,
    "numpy.linalg.eigvalsh": _count_eigensolve,
    "transforms.constrained_entangle": _count_constrained,
    "cli.run_sweep": _count_sweep_points,
}


def _registries(module):
    """(table, key, entry) for each module-level dict entry that is a tuple
    holding functions: the sweep evaluators and the switch builders are looked
    up through such tables, not by name."""
    for attr, table in list(vars(module).items()):
        if isinstance(table, dict) and not attr.startswith("__"):
            for key, entry in list(table.items()):
                if isinstance(entry, tuple) and any(inspect.isfunction(v) for v in entry):
                    yield table, key, entry


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap factorlab, numpy.linalg and argparse for ``tracer``; returns the
    (owner, attribute, original) list that ``uninstall`` restores."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        if isinstance(owner, dict):
            patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    wrapped: dict[int, object] = {}  # id(original) -> wrapper
    for module in MODULES:
        layer = module.__name__.rsplit(".", 1)[-1]
        found = [(attr, fn) for attr, fn in vars(module).items()
                 if not attr.startswith("_") or attr in EXTRA.get(module, ())]
        found += [(getattr(fn, "__name__", ""), fn) for _, _, entry in _registries(module) for fn in entry]
        for attr, fn in found:
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and attr.isidentifier() and id(fn) not in wrapped):
                span = f"{layer}.{attr}"
                wrapped[id(fn)] = tracer.wrap(fn, span, HOOKS.get(span))
    for module in (factorlab, *MODULES):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                patch(module, attr, wrapped[id(value)])
        for table, key, entry in _registries(module):
            patch(table, key, tuple(wrapped.get(id(v), v) for v in entry))
    for cls, span in VALIDATORS:
        patch(cls, "__post_init__", tracer.wrap(cls.__post_init__, span))
    for attr in NUMPY_LINALG:
        span = f"numpy.linalg.{attr}"
        patch(np.linalg, attr, tracer.wrap(getattr(np.linalg, attr), span, HOOKS.get(span)))
    patch(argparse.ArgumentParser, "parse_args",
          tracer.wrap(argparse.ArgumentParser.parse_args, "cli.parse_args"))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

def _layer(span: str) -> str:
    """Layer of a span: its factorlab module; the numpy.linalg solvers belong to linalg."""
    return "linalg" if span.startswith("numpy.linalg.") else span.split(".", 1)[0]


FAMILY_BUILDERS = {f"states.{n}" for n in (
    "bell_state", "product_state", "rho_theta", "werner", "werner_generalized",
    "gisin", "ghz_traced", "narnhofer", "tracial", "from_bloch")}
SWITCH_BUILDERS = {f"transforms.{n}" for n in (
    "identity_switch", "u_switch", "u_theta", "u_tilde_theta", "u1_ghz", "u2_ghz",
    "narnhofer_unitary", "named_switch", "pure_to_product", "pure_to_maxent",
    "separabilize", "weylize", "constrained_entangle", "ghz_split_unitary")}
# Self-checks seen from outside: the children of these spans that re-derive
# the result (gisin_unitary_family's conjugation residual; constrained_entangle's
# NPT certificate and its exact partial-transpose fallback).
SELF_CHECKS = {
    "transforms.gisin_unitary_family": {"states.gisin", "transforms.u_theta", "transforms.conjugate"},
    "transforms.constrained_entangle": {
        "transforms.geometric_mean_predicts_npt", "transforms.conjugate", "measures.ppt_check"},
}
MEASURE_FNS = ("purity", "vn_entropy", "ppt_check", "concurrence", "maxent_weight")
INCLUSIVE = {
    "states.validate_ms_per_op": {"states.DensityMatrix.__post_init__"},
    "states.build_ms_per_op": FAMILY_BUILDERS,
    "states.to_bloch_ms_per_op": {"states.to_bloch"},
    **{f"measures.{fn}_ms_per_op": {f"measures.{fn}"} for fn in MEASURE_FNS},
    "witness_bell.bmax_ms_per_op": {"witness_bell.horodecki_bmax"},
    "transforms.conjugate_ms_per_op": {"transforms.conjugate"},
    "transforms.switch_build_ms_per_op": SWITCH_BUILDERS,
    "protocols.branch_ms_per_op": {"protocols.teleport", "protocols._swap_branch"},
    "cli.parse_ms_per_op": {"cli._build_parser", "cli.parse_args"},
    "cli.render_ms_per_op": {"cli.render_report", "cli.render_table", "cli._emit"},
    "cli.load_state_ms_per_op": {"cli.load_state_file"},
}
SELF = {
    "linalg.self_ms_per_op": lambda s: _layer(s) == "linalg",
    "measures.self_ms_per_op": lambda s: _layer(s) == "measures",
    "cli.report_self_ms_per_op": lambda s: s == "cli.classification_report",
}
COUNTS = {
    "linalg.eigensolves_per_op": {"numpy.linalg.eigh", "numpy.linalg.eigvalsh"},
    "linalg.svd_qr_per_op": {"numpy.linalg.svd", "numpy.linalg.qr"},
    "states.validations_per_op": {"states.DensityMatrix.__post_init__"},
    "protocols.branches_per_op": {"protocols.teleport", "protocols._swap_branch"},
    "protocols.isometry_checks_per_op": {"protocols.Isometry.__post_init__"},
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer saw no work at all."""
    return num / den if den else 0.0


def _ids(tracer: Tracer, names) -> np.ndarray:
    return np.array([i for i, n in enumerate(tracer.names) if n in names], dtype=np.int32)


def _outermost(in_set: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans in the set with no ancestor in the set, so that nested calls
    (named_switch -> u_switch, gisin -> rho_theta) are not counted twice."""
    covered = np.zeros_like(in_set)
    ancestor = parent.copy()
    live = ancestor >= 0
    while live.any():
        covered[live] |= in_set[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
        live = ancestor >= 0
    return in_set & ~covered


def layer_metrics(tracer: Tracer, first_pass_end: int, counters: dict, timed_ops: int) -> dict:
    """Per-layer metrics.  Counts come from the warm-up pass -- spans before
    ``first_pass_end`` and the ``counters`` snapshot taken there -- so they
    repeat exactly for a seed; times come from the ``timed_ops`` ops after it."""
    out: dict[str, float] = {}
    tally = np.bincount(np.frombuffer(tracer.name, dtype=np.int32)[:first_pass_end],
                        minlength=len(tracer.names))
    ops_counted = int(tally[_ids(tracer, {ROOT})].sum())
    for metric, names in COUNTS.items():
        out[metric] = _ratio(int(tally[_ids(tracer, names)].sum()), ops_counted)
    out["linalg.eigensolve_dim3_per_op"] = _ratio(counters.get("eigensolve_dim3", 0), ops_counted)
    evaluators = {n for n in tracer.names if n.startswith("cli._sweep_")}
    out["cli.sweep_evals_per_point"] = _ratio(int(tally[_ids(tracer, evaluators)].sum()),
                                              counters.get("sweep_points", 0))
    out["transforms.constrained_applicable_ratio"] = _ratio(
        counters.get("constrained_built", 0), counters.get("constrained_attempts", 0))

    spans = tracer.columns(first_pass_end)
    name, parent = spans["name"], spans["parent"]
    dur, own = self_times(spans)
    per_op_ms = 1e-6 / timed_ops
    for metric, names in INCLUSIVE.items():
        in_set = np.isin(name, _ids(tracer, names))
        out[metric] = float(dur[_outermost(in_set, parent)].sum()) * per_op_ms
    for metric, select in SELF.items():
        ids = _ids(tracer, {n for n in tracer.names if select(n)})
        out[metric] = float(own[np.isin(name, ids)].sum()) * per_op_ms
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    check = np.zeros(len(name), dtype=bool)
    for owner, children in SELF_CHECKS.items():
        check |= np.isin(parent_name, _ids(tracer, {owner})) & np.isin(name, _ids(tracer, children))
    out["transforms.self_check_ms_per_op"] = float(dur[check].sum()) * per_op_ms
    return out
