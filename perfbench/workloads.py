"""The benchmark's four workloads.

Each workload turns a seed into a fixed pool of operations.  An operation
drives a public entry point -- ``factorlab.cli.main(argv)`` with stdout
captured, or for qudits the library API -- and returns the text a user would
see.  Its check compares that text against a closed form from ``oracles`` and
returns a description of the first mismatch, or None.

The pool is ordered in whole cycles of the workload's mix, so one pass over
it always does the same share of each kind of request whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import factorlab as fl
from factorlab import cli

import oracles


class OpFailed(Exception):
    """The entry point reported an error for a request that is valid."""


@dataclass(frozen=True)
class Op:
    """``run()`` returns the result, whose ``str`` is the text a user sees;
    ``check(result)`` returns None or a description of the first mismatch."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def call_cli(argv: list[str]) -> str:
    """Run ``factorlab.cli.main`` in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _number(token: str):
    if token in ("true", "false"):
        return token == "true"
    try:
        return float(token)
    except ValueError:
        return token


def _flatten(prefix: str, obj, out: dict):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, out)
    else:
        out[prefix] = obj


def parse_report(text: str, fmt: str) -> dict:
    """Report text (json or csv) as a flat {dotted.key: value} mapping."""
    flat: dict = {}
    if fmt == "json":
        _flatten("", json.loads(text), flat)
    else:
        for line in text.splitlines()[1:]:
            key, _, value = line.partition(",")
            flat[key] = _number(value)
    return flat


def parse_table(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    header, *lines = text.splitlines()
    columns = header.split(",")
    return [dict(zip(columns, map(_number, line.split(",")))) for line in lines]


def _mismatches(pairs) -> str | None:
    """First (name, got, expected) pair that differs beyond the oracle tolerance."""
    for name, got, want in pairs:
        if not oracles.close(got, want):
            return f"{name}: got {got!r}, closed form {want!r}"
    return None


def _spectral_checks(prefix: str, report: dict, matrix: np.ndarray) -> list:
    spectrum = np.linalg.eigvalsh(matrix)
    return [
        (f"{prefix}purity", report[f"{prefix}purity"], oracles.purity(matrix)),
        (f"{prefix}entropy", report[f"{prefix}entropy"], oracles.entropy(spectrum)),
    ]


# ---------------------------------------------------------------------------
# qubit_cli: one cli.main call on a two-qubit state per op


def _family_request(name: str, rng: np.random.Generator):
    """Seeded CLI tokens for a named two-qubit family, its matrix, and the
    closed-form checks on its report."""
    if name == "werner":
        alpha = float(rng.uniform(0.0, 1.0))
        m = oracles.werner(alpha)
        closed = [
            ("ppt.min_pt_eigenvalue", oracles.werner_min_pt(alpha)),
            ("concurrence", oracles.x_state_concurrence(m)),
            ("bmax", oracles.werner_bmax(alpha)),
        ]
        return ["werner", repr(alpha)], m, closed
    if name == "gisin":
        lam, theta = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, np.pi / 2))
        m = oracles.gisin(lam, theta)
        return ["gisin", repr(lam), repr(theta)], m, [("concurrence", oracles.x_state_concurrence(m))]
    if name in ("rho-theta", "bell"):
        if name == "bell":
            kind = ("psi+", "psi-", "phi+", "phi-")[int(rng.integers(4))]
            v, tokens = oracles.bell_vector(kind), ["bell", kind]
        else:
            theta = float(rng.uniform(0.0, np.pi))
            v, tokens = oracles.psi_theta(theta), ["rho-theta", repr(theta)]
        c = oracles.pure_concurrence(v)
        return tokens, oracles.projector(v), [("concurrence", c), ("bmax", oracles.pure_bmax(c))]
    if name == "ghz-traced":
        theta = float(rng.uniform(0.0, np.pi / 2))
        m = oracles.ghz_traced(theta)
        return ["ghz-traced", repr(theta)], m, [("concurrence", oracles.x_state_concurrence(m))]
    m = oracles.narnhofer()
    return ["narnhofer"], m, [("concurrence", oracles.x_state_concurrence(m))]


QUBIT_FAMILIES = ("werner", "gisin", "rho-theta", "ghz-traced", "bell", "narnhofer")
SWITCHES = ("identity", "u-switch", "u-theta", "u-tilde-theta", "u1-ghz", "u2-ghz", "narnhofer")
# One cycle: 6 classify of a family, 2 classify file, 2 transform (60/20/20).
QUBIT_CYCLE = ("family", "family", "file", "transform", "family",
               "family", "file", "transform", "family", "family")
QUBIT_CYCLES = 10


def _classify_op(tokens, fmt, matrix, closed, label) -> Op:
    def check(text):
        report = parse_report(text, fmt)
        pairs = [(k, report[k], v) for k, v in closed] + _spectral_checks("", report, matrix)
        return _mismatches(pairs)

    return Op(label, lambda: call_cli(["classify", *tokens, "--format", fmt]), check)


def _transform_op(name, theta, tokens, fmt, matrix) -> Op:
    argv = ["transform", name, *tokens, "--format", fmt]
    if theta is not None:
        argv += ["--theta", repr(theta)]

    def check(text):
        report = parse_report(text, fmt)
        pairs = _spectral_checks("report.", report, matrix)
        if fmt == "json":
            out = np.asarray(report["state.re"]) + 1j * np.asarray(report["state.im"])
            after, before = np.linalg.eigvalsh(out), np.linalg.eigvalsh(matrix)
            pairs += [(f"spectrum[{k}]", a, b) for k, (a, b) in enumerate(zip(after, before))]
        return _mismatches(pairs)

    return Op(f"transform {name}", lambda: call_cli(argv), check)


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def qubit_cli(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops: list[Op] = []
    counts = {"family": 0, "file": 0, "transform": 0}
    for _ in range(QUBIT_CYCLES):
        for kind in QUBIT_CYCLE:
            k = counts[kind]
            counts[kind] += 1
            # Formats alternate within each kind; a family alternates from one cycle to the next.
            fmt = ("json", "csv")[(k // len(QUBIT_FAMILIES) if kind == "family" else k) % 2]
            if kind == "family":
                family = QUBIT_FAMILIES[k % len(QUBIT_FAMILIES)]
                tokens, m, closed = _family_request(family, rng)
                ops.append(_classify_op(tokens, fmt, m, closed, f"classify {family}"))
            elif kind == "file":
                m = _ginibre(rng, 4)
                path = os.path.join(workdir, f"ginibre{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"split": [2, 2], "re": m.real.tolist(), "im": m.imag.tolist()}, fh)
                ops.append(_classify_op(["file", path], fmt, m, [], "classify file"))
            else:
                name = SWITCHES[k % len(SWITCHES)]
                source = QUBIT_FAMILIES[k % len(QUBIT_FAMILIES)]
                tokens, m, _ = _family_request(source, rng)
                theta = float(rng.uniform(0.0, np.pi / 2)) if name.startswith("u-t") else None
                ops.append(_transform_op(name, theta, tokens, fmt, m))
    return ops


# ---------------------------------------------------------------------------
# qudit_switch: the before/after verdict through the library API

QUDIT_DIMS = (3, 4, 6, 8)
# Per dimension: (input kind, switch).  "noisy" states sit near the maximally
# mixed state, so constrained_entangle often returns NotApplicable and the
# separabilize fallback runs.
QUDIT_CYCLE = (("ginibre", "constrained"), ("noisy", "constrained"),
               ("ginibre", "weylize"), ("pure", "pure_to_maxent"))
QUDIT_CYCLES = 2


@dataclass(frozen=True)
class SwitchResult:
    text: str
    after: np.ndarray
    description: str

    def __str__(self) -> str:
        return self.text


def _qudit_run(matrix: np.ndarray, d: int, switch_kind: str, psi: np.ndarray | None):
    def run() -> SwitchResult:
        rho = fl.DensityMatrix(matrix, (d, d))
        before = cli.classification_report(rho)
        if switch_kind == "constrained":
            switch = fl.constrained_entangle(rho)
            if isinstance(switch, fl.NotApplicable):
                switch = fl.separabilize(rho)
        elif switch_kind == "weylize":
            switch = fl.weylize(rho)
        else:
            switch = fl.pure_to_maxent(psi, (d, d))
        switched = fl.conjugate(rho, switch)
        after = cli.classification_report(switched)
        payload = {"switch": switch.description, "before": before, "after": after}
        return SwitchResult(cli.render_report(payload, "json"), switched.matrix, switch.description)

    return run


def _qudit_check(matrix: np.ndarray):
    def check(result: SwitchResult) -> str | None:
        report = parse_report(result.text, "json")
        before, after = np.linalg.eigvalsh(matrix), np.linalg.eigvalsh(result.after)
        pairs = _spectral_checks("before.", report, matrix) + _spectral_checks("after.", report, matrix)
        pairs += [(f"spectrum[{k}]", a, b) for k, (a, b) in enumerate(zip(after, before))]
        verdict = report["after.ppt.classification"]
        if result.description == "constrained-entangle" and verdict != "NPT":
            return f"constrained_entangle gave a {verdict} state"
        if result.description == "separabilize" and verdict != "PPT":
            return f"separabilize gave a {verdict} state"
        if result.description == "pure-to-maxent":
            pairs.append(("after.split_bound.beta", report["after.split_bound.beta"], 1.0))
        return _mismatches(pairs)

    return check


def qudit_switch(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    for _ in range(QUDIT_CYCLES):
        for d in QUDIT_DIMS:
            dim = d * d
            for state_kind, switch_kind in QUDIT_CYCLE:
                psi = None
                if state_kind == "pure":
                    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                    psi /= np.linalg.norm(psi)
                    m = oracles.projector(psi)
                elif state_kind == "noisy":
                    p = float(rng.uniform(0.3, 0.9))
                    m = (1.0 - p) * np.eye(dim) / dim + p * _ginibre(rng, dim)
                else:
                    m = _ginibre(rng, dim)
                ops.append(Op(f"d={d} {state_kind} {switch_kind}",
                              _qudit_run(m, d, switch_kind, psi), _qudit_check(m)))
    return ops


# ---------------------------------------------------------------------------
# sweep_grid: one 101-point cli sweep per op, every measure of the family

SWEEP_NUM = 101
GISIN_COMPARE_THETA = 0.35
SWEEP_MEASURES = {
    "rho_theta": "C,C_after_u_switch,bmax,purity",
    "werner": "ppt,bmax,C,purity,kz_member",
    "gisin": "C,bmax,purity,ppt",
    "gisin_compare": "C_gisin,C_filtered,C_unitary,B_gisin,B_filtered,B_unitary,"
    "purity_gisin,purity_filtered,purity_unitary",
    "ghz_traced": "C_u1,C_u2,C_best,C_after_u_switch,mixedness",
}


def _sweep_closed_forms(family: str, x: float, theta: float | None) -> dict:
    if family == "rho_theta":
        v = oracles.psi_theta(x)
        c = oracles.pure_concurrence(v)
        return {"C": c, "C_after_u_switch": oracles.pure_concurrence(oracles.U_SWITCH @ v),
                "bmax": oracles.pure_bmax(c), "purity": 1.0}
    if family == "werner":
        m = oracles.werner(x)
        return {"ppt": oracles.werner_min_pt(x), "bmax": oracles.werner_bmax(x),
                "C": oracles.x_state_concurrence(m), "purity": oracles.purity(m)}
    if family == "gisin":
        m = oracles.gisin(x, theta)
        return {"C": oracles.x_state_concurrence(m), "purity": oracles.purity(m)}
    if family == "gisin_compare":
        plain, filtered = oracles.gisin(x, theta), oracles.gisin_filtered(x, theta)
        unitary = oracles.gisin_unitary(x)
        return {"C_gisin": oracles.x_state_concurrence(plain),
                "C_filtered": oracles.x_state_concurrence(filtered),
                "C_unitary": oracles.x_state_concurrence(unitary),
                "purity_gisin": oracles.purity(plain),
                "purity_filtered": oracles.purity(filtered),
                "purity_unitary": oracles.purity(plain)}
    m = oracles.ghz_traced(x)
    return {"C_after_u_switch": oracles.x_state_concurrence(oracles.conjugated(oracles.U_SWITCH, m)),
            "mixedness": 1.0 - oracles.purity(m)}


def _sweep_op(family: str, start: float, stop: float, theta: float | None, fmt: str) -> Op:
    param = {"werner": "alpha", "gisin": "lambda", "gisin_compare": "lambda"}.get(family, "theta")
    argv = ["sweep", family, "--start", repr(start), "--stop", repr(stop),
            "--num", str(SWEEP_NUM), "--outputs", SWEEP_MEASURES[family], "--format", fmt]
    if theta is not None:
        argv += ["--theta", repr(theta)]

    def check(text):
        rows = parse_table(text, fmt)
        if len(rows) != SWEEP_NUM:
            return f"{len(rows)} rows, expected {SWEEP_NUM}"
        pairs = []
        for row in rows:
            closed = _sweep_closed_forms(family, row[param], theta)
            if family == "ghz_traced":
                closed["C_best"] = max(row["C_u1"], row["C_u2"])
            pairs += [(f"{param}={row[param]!r} {k}", row[k], v) for k, v in closed.items()]
        return _mismatches(pairs)

    return Op(f"sweep {family} {fmt}", lambda: call_cli(argv), check)


def sweep_grid(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    for family in SWEEP_MEASURES:
        for fmt in ("csv", "json"):
            if family in ("rho_theta", "ghz_traced"):
                start, stop = rng.uniform(0.0, 0.3), rng.uniform(1.2, np.pi / 2)
            else:
                start, stop = rng.uniform(0.0, 0.2), rng.uniform(0.8, 1.0)
            theta = {"gisin": float(rng.uniform(0.1, np.pi / 4)),
                     "gisin_compare": GISIN_COMPARE_THETA}.get(family)
            ops.append(_sweep_op(family, float(start), float(stop), theta, fmt))
    return ops


# ---------------------------------------------------------------------------
# protocol_trace: one cli protocol call per op, d = 2..8

PROTOCOL_DIMS = tuple(range(2, 9))
PROTOCOL_CYCLES = 2


def _protocol_op(kind: str, d: int, seed: int) -> Op:
    def check(text):
        trace = json.loads(text)
        outcomes = trace["outcomes"]
        if len(outcomes) != d * d:
            return f"{len(outcomes)} outcomes, expected {d * d}"
        pairs = []
        for out in outcomes:
            pairs.append((f"{out['outcome']} probability", out["probability"], 1.0 / (d * d)))
            pairs.append((f"{out['outcome']} fidelity", out["fidelity"], 1.0))
        return _mismatches(pairs)

    argv = ["protocol", kind, "--d", str(d), "--seed", str(seed)]
    return Op(f"protocol {kind} d={d}", lambda: call_cli(argv), check)


def protocol_trace(rng: np.random.Generator, workdir: str) -> list[Op]:
    return [
        _protocol_op(kind, d, int(rng.integers(0, 2**31)))
        for _ in range(PROTOCOL_CYCLES)
        for d in PROTOCOL_DIMS
        for kind in ("teleport", "swap")
    ]


WORKLOADS = {
    "qubit_cli": qubit_cli,
    "qudit_switch": qudit_switch,
    "sweep_grid": sweep_grid,
    "protocol_trace": protocol_trace,
}


def make_pool(name: str, seed: int, workdir: str) -> list[Op]:
    """The workload's operations for this seed; files it needs go in workdir."""
    return WORKLOADS[name](np.random.default_rng(seed), workdir)
