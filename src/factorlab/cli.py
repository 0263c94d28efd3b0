"""Command-line front end.

Subcommands: classify (diagnostics report for a named family or a state file),
sweep (deterministic parameter-grid tables, CSV or JSON), protocol
(teleportation / swapping traces with per-outcome checks), and transform
(apply a named factorization switch, then re-classify).

Every emitted number is produced by a library call; the CLI does no arithmetic
of its own.  Output is deterministic: identical inputs and seed give
byte-identical output.  Exit codes: 0 success, 1 validation error, 2 parse
error, 3 failed protocol assertion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import measures, states, transforms, witness_bell
from .linalg import DEFAULT_TOL, DimensionMismatchError
from .protocols import Isometry, ProtocolCheckError, swap_outcomes, teleport_outcomes
from .states import DensityMatrix, StateValidationError


class CliParseError(Exception):
    """Malformed input file or unknown registry name."""


# ---------------------------------------------------------------------------
# state sources

_STATE_FAMILIES = {
    "werner": ("alpha",),
    "gisin": ("lambda", "theta"),
    "bell": ("kind",),
    "ghz-traced": ("theta",),
    "narnhofer": (),
    "tracial": ("dim",),
    "weyl": ("k", "l", "d"),
    "rho-theta": ("theta",),
}

# The README scopes factorlab to "dimensions up to a few dozen": no command
# builds an array larger than a 64 x 64 density matrix.  ``tracial dim`` builds
# a dim x dim matrix, ``weyl k l d`` a d^2 x d^2 one and ``protocol --d`` a d^4
# vector per swap branch; larger values are rejected before allocation.
MAX_DIMENSION = 64
MAX_QUDIT = math.isqrt(MAX_DIMENSION)


def _parse_float(token: str, name: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise CliParseError(f"parameter {name!r} must be a number, got {token!r}") from None


def _parse_int(token: str, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CliParseError(f"parameter {name!r} must be an integer, got {token!r}") from None


def _capped(value: int, name: str, cap: int) -> int:
    """value unless it is above cap; a value below 1 is left to the builder."""
    if value > cap:
        raise CliParseError(f"parameter {name!r} must lie in [1, {cap}], got {value}")
    return value


def build_state(tokens: list[str], tol: float) -> DensityMatrix:
    """Construct a state from CLI tokens: a family name plus parameters, or
    ``file <path>`` (a bare path to an existing .json file also works)."""
    if not tokens:
        raise CliParseError("no state source given")
    head, params = tokens[0], tokens[1:]
    if head == "file" or (head not in _STATE_FAMILIES and os.path.exists(head)):
        if head == "file" and not params:
            raise CliParseError("'file' requires a path argument")
        path = params[0] if head == "file" else head
        return load_state_file(path, tol)
    if head not in _STATE_FAMILIES:
        raise CliParseError(
            f"unknown state family {head!r}; valid: {', '.join(sorted(_STATE_FAMILIES))}, file"
        )
    expected = _STATE_FAMILIES[head]
    if len(params) != len(expected):
        raise CliParseError(
            f"family {head!r} takes {len(expected)} parameter(s) {expected}, got {len(params)}"
        )
    if head == "werner":
        return states.werner(_parse_float(params[0], "alpha"), tol=tol)
    if head == "gisin":
        return states.gisin(
            _parse_float(params[0], "lambda"), _parse_float(params[1], "theta"), tol=tol
        )
    if head == "bell":
        if params[0] not in ("psi+", "psi-", "phi+", "phi-"):
            raise CliParseError(f"unknown Bell kind {params[0]!r}")
        return states.bell_state(params[0], tol=tol)
    if head == "ghz-traced":
        return states.ghz_traced(_parse_float(params[0], "theta"), tol=tol)
    if head == "narnhofer":
        return states.narnhofer(tol=tol)
    if head == "tracial":
        return states.tracial(_capped(_parse_int(params[0], "dim"), "dim", MAX_DIMENSION), tol=tol)
    if head == "weyl":
        k = _parse_int(params[0], "k")
        l = _parse_int(params[1], "l")
        d = _capped(_parse_int(params[2], "d"), "d", MAX_QUDIT)
        v = states.weyl_basis_state(k, l, d)
        return DensityMatrix(np.outer(v, v.conj()), (d, d), tol=tol)
    return states.rho_theta(_parse_float(params[0], "theta"), tol=tol)


def load_state_file(path: str, tol: float) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    try:
        return states.state_from_dict(data, tol=tol)
    except (KeyError, TypeError) as exc:
        raise CliParseError(f"{path}: missing or malformed field {exc}") from None


# ---------------------------------------------------------------------------
# classify

def classification_report(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> dict:
    """Aggregate diagnostics for one state."""
    verdict = measures.ppt_check(rho, tol=tol)
    report: dict = {
        "split": list(rho.split),
        "purity": measures.purity(rho),
        "mixedness": measures.mixedness(rho),
        "entropy": measures.vn_entropy(rho),
        "ppt": {
            "classification": verdict.classification,
            "min_pt_eigenvalue": verdict.min_pt_eigenvalue,
        },
    }
    if rho.split == (2, 2):
        report["concurrence"] = measures.concurrence(rho, tol=tol)
        report["bmax"] = witness_bell.horodecki_bmax(rho)
        spectrum = np.clip(rho.spectrum.values, 0.0, None)
        report["abs_separable_spectrum"] = measures.abs_sep_2x2(spectrum / spectrum.sum())
    if rho.split[0] == rho.split[1]:
        report["kz_ball_member"] = measures.kz_ball_member(rho, tol=tol)
    beta = measures.maxent_weight(rho)
    if beta is not None:
        report["split_bound"] = {
            "beta": beta,
            "entangled": measures.split_bound_check(beta, rho.split[0]),
        }
    else:
        report["split_bound"] = None
    return report


# ---------------------------------------------------------------------------
# sweep

# A sweep evaluates its whole grid as one stack of 4x4 matrices, so its memory
# grows with num (about 5 kB per grid point for gisin_compare, the widest
# family).  The README's sweeps use 101-point grids over a parameter's whole
# range; the cap allows 100 times that resolution, and a gisin_compare sweep at
# the cap peaks at about 85 MB resident (x86-64, numpy 2.4).  Larger grids are
# rejected before anything is allocated.
MAX_SWEEP_POINTS = 10_000


@dataclass
class SweepSpec:
    """Grid description for a sweep family."""

    family: str
    start: float
    stop: float
    num: int
    outputs: list[str] = field(default_factory=list)
    theta: float | None = None

    def __post_init__(self):
        if self.num < 1:
            raise CliParseError("grid must contain at least one point")
        if self.num > MAX_SWEEP_POINTS:
            raise CliParseError(f"grid may hold at most {MAX_SWEEP_POINTS} points, got {self.num}")
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise CliParseError(f"grid bounds must be finite, got {self.start} to {self.stop}")
        if self.stop < self.start:
            raise CliParseError("grid stop must not be below start")


# Each evaluator takes the whole grid (and the fixed theta) and returns one
# array per measure, built from the stacked kernels; the switches are built
# once per sweep, so each unitarity check runs once.

def _sweep_rho_theta(theta: np.ndarray, _: float | None, tol: float) -> dict:
    rho = states.validate_stack(states.rho_theta_matrices(theta), tol)
    switched = states.validate_stack(transforms.conjugated(rho, transforms.u_switch()), tol)
    return {
        "C": measures.concurrences(rho, tol=tol),
        "C_after_u_switch": measures.concurrences(switched, tol=tol),
        "bmax": witness_bell.bmax_values(rho),
        "purity": measures.purities(rho),
    }


def _sweep_werner(alpha: np.ndarray, _: float | None, tol: float) -> dict:
    rho = states.validate_stack(states.werner_matrices(alpha), tol)
    return {
        "ppt": measures.pt_min_eigenvalues(rho, (2, 2)),
        "bmax": witness_bell.bmax_values(rho),
        "C": measures.concurrences(rho, tol=tol),
        "purity": measures.purities(rho),
        "kz_member": measures.kz_ball_members(rho, tol=tol).astype(float),
    }


def _sweep_gisin(lam: np.ndarray, theta: float | None, tol: float) -> dict:
    rho = states.validate_stack(states.gisin_matrices(lam, theta), tol)
    return {
        "C": measures.concurrences(rho, tol=tol),
        "bmax": witness_bell.bmax_values(rho),
        "purity": measures.purities(rho),
        "ppt": measures.pt_min_eigenvalues(rho, (2, 2)),
    }


def _sweep_gisin_compare(lam: np.ndarray, theta: float | None, tol: float) -> dict:
    plain = states.validate_stack(states.gisin_matrices(lam, theta), tol)
    filtered = states.validate_stack(
        transforms.filtered(plain, transforms.gisin_filter(theta)), tol
    )
    unitary = states.validate_stack(transforms.gisin_unitary_matrices(lam, theta), tol)
    return {
        "C_gisin": measures.concurrences(plain, tol=tol),
        "C_filtered": measures.concurrences(filtered, tol=tol),
        "C_unitary": measures.concurrences(unitary, tol=tol),
        "B_gisin": witness_bell.bmax_values(plain),
        "B_filtered": witness_bell.bmax_values(filtered),
        "B_unitary": witness_bell.bmax_values(unitary),
        "purity_gisin": measures.purities(plain),
        "purity_filtered": measures.purities(filtered),
        "purity_unitary": measures.purities(unitary),
    }


def _sweep_ghz_traced(theta: np.ndarray, _: float | None, tol: float) -> dict:
    rho = states.validate_stack(states.ghz_traced_matrices(theta), tol)
    c_u1, c_u2, c_switch = (
        measures.concurrences(states.validate_stack(transforms.conjugated(rho, switch), tol), tol=tol)
        for switch in (transforms.u1_ghz(), transforms.u2_ghz(), transforms.u_switch())
    )
    return {
        "C_u1": c_u1,
        "C_u2": c_u2,
        "C_best": np.where(c_u2 > c_u1, c_u2, c_u1),
        "C_after_u_switch": c_switch,
        "mixedness": 1.0 - measures.purities(rho),
    }


# family -> (grid parameter, needs --theta, evaluator, measures, default outputs)
_SWEEP_FAMILIES = {
    "rho_theta": (
        "theta", False, _sweep_rho_theta,
        ("C", "C_after_u_switch", "bmax", "purity"),
        ("C", "C_after_u_switch"),
    ),
    "werner": (
        "alpha", False, _sweep_werner,
        ("ppt", "bmax", "C", "purity", "kz_member"),
        ("ppt", "bmax"),
    ),
    "gisin": (
        "lambda", True, _sweep_gisin,
        ("C", "bmax", "purity", "ppt"),
        ("C", "bmax"),
    ),
    "gisin_compare": (
        "lambda", True, _sweep_gisin_compare,
        ("C_gisin", "C_filtered", "C_unitary", "B_gisin", "B_filtered", "B_unitary",
         "purity_gisin", "purity_filtered", "purity_unitary"),
        ("C_gisin", "C_filtered", "C_unitary"),
    ),
    "ghz_traced": (
        "theta", False, _sweep_ghz_traced,
        ("C_u1", "C_u2", "C_best", "C_after_u_switch", "mixedness"),
        ("C_best", "C_after_u_switch", "mixedness"),
    ),
}


def run_sweep(spec: SweepSpec, tol: float = DEFAULT_TOL) -> tuple[list[str], list[dict]]:
    """Evaluate one sweep family over its grid as one stacked batch; returns
    (column names, rows).

    Every check of the per-state functions runs on each grid point; a check
    that fails on a state names the first offending grid value.
    """
    if spec.family not in _SWEEP_FAMILIES:
        raise CliParseError(
            f"unknown sweep family {spec.family!r}; valid: {', '.join(sorted(_SWEEP_FAMILIES))}"
        )
    param, needs_theta, evaluate, names, default_outputs = _SWEEP_FAMILIES[spec.family]
    if needs_theta and spec.theta is None:
        raise CliParseError(f"sweep family {spec.family!r} requires --theta")
    outputs = list(spec.outputs or default_outputs)
    unknown = [name for name in outputs if name not in names]
    if unknown:
        raise CliParseError(
            f"unknown measure(s) {unknown} for family {spec.family!r}; "
            f"valid: {', '.join(sorted(names))}"
        )
    grid = np.linspace(spec.start, spec.stop, spec.num)
    try:
        values = evaluate(grid, spec.theta, tol)
    except (ValueError, AssertionError) as exc:
        index = getattr(exc, "index", None)
        if index is not None:
            exc.args = (f"{exc} at {param} = {float(grid[index])!r}",)
        raise
    columns = [param] + outputs
    table = zip(grid.tolist(), *(values[name].tolist() for name in outputs))
    return columns, [dict(zip(columns, row)) for row in table]


# ---------------------------------------------------------------------------
# protocol

def _haar_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def run_protocol(kind: str, d: int, seed: int) -> dict:
    """Exhaustive-outcome trace for one protocol; raises ProtocolCheckError on
    any probability/fidelity/composition failure."""
    if not 2 <= d <= MAX_QUDIT:
        raise CliParseError(f"protocol --d must lie in [2, {MAX_QUDIT}], got {d}")
    rng = np.random.default_rng(seed)
    rows = []
    if kind == "teleport":
        phi = _haar_vector(rng, d)
        for out in teleport_outcomes(phi):
            rows.append(
                {
                    "outcome": list(out.index),
                    "probability": out.probability,
                    "correction": out.correction.label,
                    "fidelity": out.fidelity,
                }
            )
    elif kind == "swap":
        i12 = Isometry(_haar_unitary(rng, d), d, "I12")
        i34 = Isometry(_haar_unitary(rng, d), d, "I34")
        for out in swap_outcomes(i12, i34):
            rows.append(
                {
                    "outcome": list(out.index),
                    "probability": out.probability,
                    "correction": f"composed@{out.index[0]},{out.index[1]}",
                    "fidelity": out.fidelity,
                }
            )
    else:
        raise CliParseError(f"unknown protocol {kind!r}; valid: teleport, swap")
    for row in rows:
        if abs(row["probability"] - 1.0 / (d * d)) > 1e-10:
            raise ProtocolCheckError(
                f"outcome {row['outcome']}: probability {row['probability']} != 1/d^2"
            )
        if abs(row["fidelity"] - 1.0) > 1e-9:
            raise ProtocolCheckError(f"outcome {row['outcome']}: fidelity {row['fidelity']} != 1")
    return {"kind": kind, "d": d, "seed": seed, "outcomes": rows}


# ---------------------------------------------------------------------------
# rendering

def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    return obj


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def render_table(columns: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([_jsonable(r) for r in rows], indent=2) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(_fmt_cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _flatten(prefix: str, obj, out: list[tuple[str, object]]):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        out.append((prefix, " ".join(_fmt_cell(v) for v in obj)))
    else:
        out.append((prefix, obj))


def render_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(payload), indent=2) + "\n"
    flat: list[tuple[str, object]] = []
    _flatten("", payload, flat)
    lines = ["key,value"] + [f"{k},{_fmt_cell(v)}" for k, v in flat]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorlab",
        description="Classify, sweep, and transform quantum states; run protocol traces.",
    )
    parser.add_argument("--tol", type=float, default=None, help="validation tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="diagnostics report for one state")
    p_classify.add_argument("source", nargs="+", help="family + params, or file <path>")
    p_classify.add_argument("--format", choices=("json", "csv"), default="json")
    p_classify.add_argument("--out", default=None)

    p_transform = sub.add_parser("transform", help="apply a named switch, then re-classify")
    p_transform.add_argument("name", help="transform registry name")
    p_transform.add_argument("source", nargs="+", help="family + params, or file <path>")
    p_transform.add_argument("--theta", type=float, default=None)
    p_transform.add_argument("--format", choices=("json", "csv"), default="json")
    p_transform.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="parameter-grid table for a state family")
    p_sweep.add_argument("family")
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--num", type=int, required=True)
    p_sweep.add_argument("--theta", type=float, default=None)
    p_sweep.add_argument("--outputs", default=None, help="comma-separated measure names")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)

    p_protocol = sub.add_parser("protocol", help="teleport/swap exhaustive outcome trace")
    p_protocol.add_argument("kind", choices=("teleport", "swap"))
    p_protocol.add_argument("--d", type=int, default=2)
    p_protocol.add_argument("--seed", type=int, default=0)
    p_protocol.add_argument("--out", default=None)

    return parser


def _resolve_tol(cli_tol: float | None) -> float:
    """--tol, else FACTORLAB_TOL, else the default; a tolerance must be finite
    and non-negative."""
    if cli_tol is not None:
        tol, source = cli_tol, "--tol"
    else:
        env = os.environ.get("FACTORLAB_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            tol, source = float(env), "FACTORLAB_TOL"
        except ValueError:
            raise CliParseError(f"FACTORLAB_TOL is not a number: {env!r}") from None
    if not (np.isfinite(tol) and tol >= 0.0):
        raise CliParseError(f"{source} must be a finite non-negative number, got {tol!r}")
    return tol


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _resolve_tol(args.tol)
        if args.command == "classify":
            rho = build_state(args.source, tol)
            text = render_report(classification_report(rho, tol), args.format)
        elif args.command == "transform":
            rho = build_state(args.source, tol)
            try:
                switch = transforms.named_switch(args.name, theta=args.theta)
            except ValueError as exc:
                raise CliParseError(str(exc)) from None
            switched = transforms.conjugate(rho, switch, tol=tol)
            payload = {
                "transform": switch.description,
                "report": classification_report(switched, tol),
                "state": states.state_to_dict(switched),
            }
            text = render_report(payload, args.format)
        elif args.command == "sweep":
            outputs = [s for s in (args.outputs or "").split(",") if s]
            spec = SweepSpec(
                family=args.family,
                start=args.start,
                stop=args.stop,
                num=args.num,
                outputs=outputs,
                theta=args.theta,
            )
            columns, rows = run_sweep(spec, tol)
            text = render_table(columns, rows, args.format)
        else:
            trace = run_protocol(args.kind, args.d, args.seed)
            text = json.dumps(_jsonable(trace), indent=2) + "\n"
        _emit(text, args.out)
        return 0
    except CliParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ProtocolCheckError as exc:
        print(f"protocol assertion failed: {exc}", file=sys.stderr)
        return 3
    except (StateValidationError, DimensionMismatchError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
