"""Command-line front end.

Subcommands: classify (diagnostics report for a named family or a state file),
sweep (deterministic parameter-grid tables, CSV or JSON), protocol
(teleportation / swapping traces with per-outcome checks), and transform
(apply a named factorization switch, then re-classify).

Every emitted number is produced by a library call, except three expressions
in this module: mixedness as 1 - purity, the clipped and renormalized spectrum
that the absolute-separability test reads, and C_best, the larger of two
concurrences at each grid point.  Output is deterministic: identical inputs and
seed give byte-identical output.  Exit codes: 0 success, 1 validation error,
2 parse error, 3 failed protocol assertion.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import measures, states, transforms, witness_bell
from .linalg import DEFAULT_TOL, FLATNESS_TOL
from .protocols import Isometry, ProtocolCheckError, swap_stack, teleport_stack
from .states import DensityMatrix


class CliParseError(Exception):
    """Malformed input file or unknown registry name."""


# ---------------------------------------------------------------------------
# state sources

# The README scopes factorlab to "dimensions up to a few dozen": no command
# builds an array larger than a 64 x 64 density matrix.  ``tracial dim`` builds
# a dim x dim matrix, ``weyl k l d`` a d^2 x d^2 one and ``protocol --d`` a d^4
# joint vector per swap; larger values are rejected before allocation.
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


def _capped(cap: int):
    """Integer parser rejecting values above cap; a value below 1 is left to the builder."""
    def parse(token: str, name: str) -> int:
        value = _parse_int(token, name)
        if value > cap:
            raise CliParseError(f"parameter {name!r} must lie in [1, {cap}], got {value}")
        return value
    return parse


def _square_dim(token: str, name: str) -> int:
    """``tracial``'s dim: with no split parameter, one in range must be a perfect square."""
    value = _capped(MAX_DIMENSION)(token, name)
    if value >= 1 and math.isqrt(value) ** 2 != value:
        raise CliParseError(f"parameter {name!r} must be a perfect square, got {value}")
    return value


def _bell_kind(token: str, _: str) -> str:
    if token not in states.BELL_SIGNS:
        raise CliParseError(f"unknown Bell kind {token!r}")
    return token


def _weyl(k: int, l: int, d: int, tol: float) -> DensityMatrix:
    return DensityMatrix(states.projectors(states.weyl_basis_state(k, l, d)), (d, d), tol=tol)


# family -> ((parameter, parser), ...) in CLI order, and the builder, called
# with the parsed values and tol.
_STATE_FAMILIES = {
    "werner": ((("alpha", _parse_float),), states.werner),
    "gisin": ((("lambda", _parse_float), ("theta", _parse_float)), states.gisin),
    "bell": ((("kind", _bell_kind),), states.bell_state),
    "ghz-traced": ((("theta", _parse_float),), states.ghz_traced),
    "narnhofer": ((), states.narnhofer),
    "tracial": ((("dim", _square_dim),), states.tracial),
    "weyl": ((("k", _parse_int), ("l", _parse_int), ("d", _capped(MAX_QUDIT))), _weyl),
    "rho-theta": ((("theta", _parse_float),), states.rho_theta),
}


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
    expected, builder = _STATE_FAMILIES[head]
    if len(params) != len(expected):
        names = tuple(name for name, _ in expected)
        raise CliParseError(
            f"family {head!r} takes {len(expected)} parameter(s) {names}, got {len(params)}"
        )
    return builder(*(parse(token, name) for token, (name, parse) in zip(params, expected)), tol=tol)


def load_state_file(path: str, tol: float) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    try:
        d1, d2 = states.state_split(data)
        if d1 * d2 > MAX_DIMENSION:
            raise CliParseError(
                f"{path}: split {[d1, d2]} gives dimension {d1 * d2}, above the cap {MAX_DIMENSION}")
        return states.state_from_dict(data, tol=tol)
    except (KeyError, TypeError) as exc:
        raise CliParseError(f"{path}: missing or malformed field {exc}") from None


# ---------------------------------------------------------------------------
# measures and classify

_EVERY = lambda split: True
_QUBITS = lambda split: split == (2, 2)
_SQUARE = lambda split: split[0] == split[1]

# report key -> (the splits it applies to, its kernel).  A kernel maps a matrix
# or a stack of them, m, with its Spectrum s, the split, tol and the ``_Rows`` of
# m to one value per matrix.  classify evaluates each row that applies to its
# state's split; a sweep column names a row, on a stack of two-qubit states.
_MEASURES = {
    "purity": (_EVERY, lambda m, s, split, tol, rows: measures.purities(m)),
    "mixedness": (_EVERY, lambda m, s, split, tol, rows: 1.0 - rows["purity"]),
    "entropy": (_EVERY, lambda m, s, split, tol, rows: measures.entropies(s)),
    "ppt": (_EVERY, lambda m, s, split, tol, rows: measures.pt_min_eigenvalues(m, split)),
    "concurrence": (_QUBITS, lambda m, s, split, tol, rows: measures.concurrences(m, s, tol)),
    "bmax": (_QUBITS, lambda m, s, split, tol, rows: witness_bell.bmax_values(m)),
    # on the spectrum clipped at 0 and renormalized
    "abs_separable_spectrum": (_QUBITS, lambda m, s, split, tol, rows: measures.abs_separables(
        (p := np.clip(s.values, 0.0, None)) / p.sum(axis=-1, keepdims=True), tol)),
    "kz_ball_member": (_SQUARE, lambda m, s, split, tol, rows: measures.kz_ball_members(
        m, tol, rows["purity"])),
    "split_bound": (_EVERY, lambda m, s, split, tol, rows: measures.maxent_weights(
        s, split[0], FLATNESS_TOL)),
}


class _Rows(dict):
    """key -> row ``key`` of ``_MEASURES`` on (m, s, split, tol), evaluated when first read."""
    def __init__(self, *args):
        self.args = args

    def __missing__(self, key: str) -> np.ndarray:
        return self.setdefault(key, _MEASURES[key][1](*self.args, self))


def classification_report(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> dict:
    """Aggregate diagnostics for one state: each row of ``_MEASURES`` that
    applies to its split, with ``ppt`` and ``split_bound`` nested."""
    report: dict = {"split": list(rho.split)}
    rows = _Rows(rho.matrix, rho.spectrum, rho.split, tol)
    report.update((k, rows[k].item()) for k, (applies, _) in _MEASURES.items() if applies(rho.split))
    report["ppt"] = vars(measures.PptVerdict.from_min(report["ppt"], tol))
    beta = report["split_bound"]
    report["split_bound"] = None if math.isnan(beta) else {
        "beta": beta, "entangled": measures.split_bound_check(beta, rho.split[0])}
    return report


# ---------------------------------------------------------------------------
# sweep

# A sweep evaluates every stack of its whole grid as one stack of 4x4 matrices,
# so its memory grows with num (5.6 kB per grid point for gisin_compare, the
# widest family).  The README's sweeps use 101-point grids over a parameter's
# whole range; the cap allows 100 times that resolution, and a fresh process's
# every-measure gisin_compare sweep at the cap peaks at 89.2 MB resident, CSV or
# JSON (ru_maxrss, x86-64, numpy 2.4.6).  Larger grids are rejected up front.
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
        if not np.isfinite(float(self.stop) - float(self.start)):
            raise CliParseError(f"grid span must be finite, got {self.start} to {self.stop}")
        if self.theta is not None and not np.isfinite(self.theta):
            raise CliParseError(f"--theta must be finite, got {self.theta}")
        if not self.start <= self.stop:
            raise CliParseError("grid stop must not be below start")


def _switched(source: str, switch):
    """Stack builder: the stack ``source`` conjugated by ``switch()``."""
    return lambda x, theta, built: transforms.conjugated(built[source], switch())


# A sweep family.  ``stacks`` are (name, builder) in build order; a builder
# takes the grid, --theta and the stacks built so far, by name, so the switches
# are built once.  ``columns`` maps each column to (measure, stack, ...); a
# column over two stacks takes the larger value at each point.
_SweepFamily = namedtuple("_SweepFamily", "param needs_theta stacks columns default_outputs")
_SWEEP_FAMILIES = {
    "rho_theta": _SweepFamily(
        "theta", False,
        (("rho", lambda x, theta, built: states.rho_theta_matrices(x)),
         ("switched", _switched("rho", transforms.u_switch))),
        {"C": ("concurrence", "rho"), "C_after_u_switch": ("concurrence", "switched"),
         "bmax": ("bmax", "rho"), "purity": ("purity", "rho")},
        ("C", "C_after_u_switch"),
    ),
    "werner": _SweepFamily(
        "alpha", False,
        (("rho", lambda x, theta, built: states.werner_matrices(x)),),
        {"ppt": ("ppt", "rho"), "bmax": ("bmax", "rho"), "C": ("concurrence", "rho"),
         "purity": ("purity", "rho"), "kz_member": ("kz_ball_member", "rho")},
        ("ppt", "bmax"),
    ),
    "gisin": _SweepFamily(
        "lambda", True,
        (("rho", lambda x, theta, built: states.gisin_matrices(x, theta)),),
        {"C": ("concurrence", "rho"), "bmax": ("bmax", "rho"), "purity": ("purity", "rho"),
         "ppt": ("ppt", "rho")},
        ("C", "bmax"),
    ),
    "gisin_compare": _SweepFamily(
        "lambda", True,
        (("gisin", lambda x, theta, built: states.gisin_matrices(x, theta)),
         ("filtered", lambda x, theta, built: transforms.filtered(
             built["gisin"], transforms.gisin_filter(theta))),
         ("unitary", lambda x, theta, built: transforms.gisin_unitary_matrices(x, theta, built["gisin"]))),
        {"C_gisin": ("concurrence", "gisin"), "C_filtered": ("concurrence", "filtered"),
         "C_unitary": ("concurrence", "unitary"), "B_gisin": ("bmax", "gisin"),
         "B_filtered": ("bmax", "filtered"), "B_unitary": ("bmax", "unitary"),
         "purity_gisin": ("purity", "gisin"), "purity_filtered": ("purity", "filtered"),
         "purity_unitary": ("purity", "unitary")},
        ("C_gisin", "C_filtered", "C_unitary"),
    ),
    "ghz_traced": _SweepFamily(
        "theta", False,
        (("rho", lambda x, theta, built: states.ghz_traced_matrices(x)),
         ("u1", _switched("rho", transforms.u1_ghz)),
         ("u2", _switched("rho", transforms.u2_ghz)),
         ("switched", _switched("rho", transforms.u_switch))),
        {"C_u1": ("concurrence", "u1"), "C_u2": ("concurrence", "u2"),
         "C_best": ("concurrence", "u1", "u2"), "C_after_u_switch": ("concurrence", "switched"),
         "mixedness": ("mixedness", "rho")},
        ("C_best", "C_after_u_switch", "mixedness"),
    ),
}


def run_sweep(spec: SweepSpec, tol: float = DEFAULT_TOL) -> tuple[list[str], list[list[float]]]:
    """Evaluate the printed columns of one sweep family over its grid: its
    stacks, built in order, are validated joined into one stack, on which each
    measure is evaluated once; returns (column names, table), the table
    column-major: one list of Python floats per column, the grid first.

    Every check of the per-state functions runs on each grid point; a check
    that fails names the first offending grid value in build order, which is
    also the error's ``index``.
    """
    if spec.family not in _SWEEP_FAMILIES:
        raise CliParseError(
            f"unknown sweep family {spec.family!r}; valid: {', '.join(sorted(_SWEEP_FAMILIES))}"
        )
    family = _SWEEP_FAMILIES[spec.family]
    if family.needs_theta and spec.theta is None:
        raise CliParseError(f"sweep family {spec.family!r} requires --theta")
    outputs = list(spec.outputs or family.default_outputs)
    unknown = [name for name in outputs if name not in family.columns]
    if unknown:
        raise CliParseError(
            f"unknown measure(s) {unknown} for family {spec.family!r}; "
            f"valid: {', '.join(sorted(family.columns))}"
        )
    repeated = sorted({name for name in outputs if outputs.count(name) > 1})
    if repeated:
        raise CliParseError(f"repeated measure(s) {repeated} for family {spec.family!r}")
    grid = np.linspace(spec.start, spec.stop, spec.num)
    n, order = len(grid), {name: k for k, (name, _) in enumerate(family.stacks)}
    columns = [(measure, [order[s] for s in stacks])
               for measure, *stacks in (family.columns[name] for name in outputs)]
    # measure -> (first, one past the last) of the stacks its columns read it from
    span: dict = {}
    for measure, ks in columns:
        lo, hi = span.get(measure, (len(order), 0))
        span[measure] = min(lo, *ks), max(hi, max(ks) + 1)
    try:
        built: dict = {}
        try:
            for name, build in family.stacks:
                built[name] = build(grid, spec.theta, built)
        except (ValueError, AssertionError):
            if built:  # a check failing on a stack built earlier wins, as in build order
                states.validate_stack(np.concatenate(list(built.values())), tol)
            raise
        # every stack in one validation, matrix k * n + j the stack k state at grid[j]
        m = np.concatenate(list(built.values()))
        built.clear()
        s = states.validate_stack(m, tol)
        rows = {(lo, hi): _Rows(m[lo * n:hi * n], SimpleNamespace(
                    values=s.values[lo * n:hi * n], vectors=s.vectors[lo * n:hi * n]), (2, 2), tol)
                for lo, hi in set(span.values())}
        values = [functools.reduce(lambda a, b: np.where(b > a, b, a), (
                      rows[span[measure]][measure][(k - span[measure][0]) * n:][:n] for k in ks))
                  for measure, ks in columns]
    except (ValueError, AssertionError) as exc:
        index = getattr(exc, "index", None)
        if index is not None:
            exc.index = index % n
            exc.args = (f"{exc} at {family.param} = {float(grid[exc.index])!r}",)
        raise
    return [family.param] + outputs, [grid.tolist(), *(v.astype(float).tolist() for v in values)]


# ---------------------------------------------------------------------------
# protocol

def _haar_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# protocol -> its outcome stack over all d^2 outcomes, from the seeded generator
# and d; the stack checks every outcome as it is built
_PROTOCOLS = {
    "teleport": lambda rng, d: teleport_stack(_haar_vector(rng, d), *states.weyl_indices(d)),
    "swap": lambda rng, d: swap_stack(*states.weyl_indices(d), Isometry(_haar_unitary(rng, d), d, "I12"),
                                      Isometry(_haar_unitary(rng, d), d, "I34")),
}


def run_protocol(kind: str, d: int, seed: int) -> dict:
    """Exhaustive-outcome trace for one protocol, its outcomes a column-major
    ``_Table``; raises ProtocolCheckError on any probability/fidelity/composition
    failure."""
    if not 2 <= d <= MAX_QUDIT:
        raise CliParseError(f"protocol --d must lie in [2, {MAX_QUDIT}], got {d}")
    if seed < 0:
        raise CliParseError(f"protocol --seed must be a non-negative integer, got {seed}")
    if kind not in _PROTOCOLS:
        raise CliParseError(f"unknown protocol {kind!r}; valid: {', '.join(_PROTOCOLS)}")
    stack = _PROTOCOLS[kind](np.random.default_rng(seed), d)
    outcomes = _Table(("outcome", "probability", "correction", "fidelity"), (
        stack.indices, stack.probabilities.tolist(), stack.labels, stack.fidelities.tolist()))
    return {"kind": kind, "d": d, "seed": seed, "outcomes": outcomes}


# ---------------------------------------------------------------------------
# rendering
#
# Each float is formatted once, to 12 significant digits: CSV prints that text,
# JSON what ``float.__repr__`` prints for the float it denotes (NaN, Infinity),
# as ``json.dumps(..., indent=2)`` would.  A report is one pass over its payload.
# A table, a sweep's or the ``_Table`` of a protocol trace's outcomes, is
# column-major: one pass formats each column and one template writes each row,
# an integer array column's lists (an outcome's [k, l]) included.

_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_json_str = json.encoder.encode_basestring_ascii
_g12 = "%.12g".__mod__


def _json_number(s: str) -> str:
    """JSON text of the float whose 12-digit text is s."""
    if "e" in s:
        # %.12g switches to an exponent at 1e12, float.__repr__ at 1e16, and a
        # subnormal's shortest repr can have fewer digits
        return float.__repr__(float(s))
    return s if "." in s else _NON_FINITE.get(s) or s + ".0"


def _json(obj, pad: str = "") -> str:
    """JSON text of obj, starting on a line indented by pad."""
    if isinstance(obj, (float, np.floating)):
        return _json_number(_g12(obj))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = ",\n".join(f"{inner}{_json_str(k)}: {_json(v, inner)}" for k, v in obj.items())
        return f"{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if isinstance(obj, _Table):
            return _json_table(*obj, pad)
        if not obj:
            return "[]"
        inner = pad + "  "
        items = f",\n{inner}".join([_json(v, inner) for v in obj])
        return f"[\n{inner}{items}\n{pad}]"
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _g12(v)
    return str(v)


# A column-major table inside a report payload, rendered as the list of its rows.
_Table = namedtuple("_Table", "columns cells")


def _json_table(columns, table, pad: str = "") -> str:
    """JSON text of the rows of a column-major table, starting on a line
    indented by pad.  A column is a list of cells, or an (N, m) integer array,
    m >= 1, each of whose rows is a cell printed as a list."""
    inner, cell_pad = pad + "  ", pad + "    "
    fields, args = [], []
    for name, column in zip(columns, table):
        value = "%s"
        if isinstance(column, np.ndarray):
            value = "[\n" + ",\n".join([f"{cell_pad}  %d"] * column.shape[1]) + f"\n{cell_pad}]"
            args += column.T.tolist()
        elif not (types := set(map(type, column))) - {float}:
            # a text with a point and no exponent is already JSON
            args.append([s if "." in s and "e" not in s else _json_number(s) for s in map(_g12, column)])
        elif types == {str}:
            args.append(list(map(_json_str, column)))
        else:
            args.append([_json(v, cell_pad) for v in column])
        fields.append(f"{cell_pad}{_json_str(name).replace('%', '%%')}: {value}")
    row = f"{inner}{{\n" + ",\n".join(fields) + f"\n{inner}}}"
    text = ",\n".join(map(row.__mod__, zip(*args)))
    return f"[\n{text}\n{pad}]" if text else "[]"


def render_table(columns: list[str], table: list[list], fmt: str) -> str:
    """Text of a column-major table: ``table`` holds the cells of each of the
    distinct ``columns`` in turn, one list per column, all of one length."""
    if fmt == "json":
        return _json_table(columns, table) + "\n"
    # one template for the whole table: %.12g for a column of Python floats, the
    # text of each cell for any other column
    text = [bool(set(map(type, column)) - {float}) for column in table]
    cells = [list(map(_fmt_cell, column)) if t else column for t, column in zip(text, table)]
    row = "\n" + ",".join(["%s" if t else "%.12g" for t in text])
    template = ",".join(columns).replace("%", "%%") + row * (len(table[0]) if table else 0) + "\n"
    return template % tuple(itertools.chain.from_iterable(zip(*cells)))


def _flatten(prefix: str, obj, out: list[tuple[str, str]]):
    """Append (dotted key, cell) for each leaf of obj.  A list of scalars is
    one cell, its entries joined by spaces; a list holding containers (a
    matrix's rows) is flattened as a dict keyed by index."""
    if isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        obj = dict(enumerate(obj))
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        out.append((prefix, " ".join(_fmt_cell(v) for v in obj)))
    else:
        out.append((prefix, _fmt_cell(obj)))


def render_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload) + "\n"
    flat: list[tuple[str, str]] = []
    _flatten("", payload, flat)
    lines = ["key,value"] + [f"{k},{v}" for k, v in flat]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliParseError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

# Built at the first call and shared by every later ``main`` call in the
# process: the parser holds only the option grammar, while the tolerance, the
# streams and ``sys.argv`` are read afresh on each call.
@functools.cache
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
    p_protocol.add_argument("kind", choices=tuple(_PROTOCOLS))
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
            spec = SweepSpec(args.family, args.start, args.stop, args.num, outputs, args.theta)
            text = render_table(*run_sweep(spec, tol), args.format)
        else:
            trace = run_protocol(args.kind, args.d, args.seed)
            text = render_report(trace, "json")
        _emit(text, args.out)
        return 0
    except CliParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ProtocolCheckError as exc:
        print(f"protocol assertion failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
