"""Compare the CLI output of two factorlab source trees, byte for byte.

Usage:

    python scripts/cli_diff.py OLD_SRC NEW_SRC [--seeds N] [--commands FILE] [--expect FILE]

OLD_SRC and NEW_SRC are directories holding the ``factorlab`` package (the
``src/`` of two checkouts, e.g. a ``git archive`` of the parent commit).  The
default command list covers every subcommand: failing commands (an
unwritable ``--out``, a negative ``protocol --seed``, a repeated ``sweep
--outputs`` name, one malformed parameter list per state family, state files
whose split is not two positive integers or that are not a JSON object (a
list, null), a missing and an unreadable state file, a non-finite ``sweep --theta``, a reversed ``sweep`` grid, a
``tracial`` dimension that is not a perfect square), then argparse-level
cases, some of which parse (an unknown option and ``--tol`` after the
subcommand; the abbreviated and ``=`` forms of ``--format``, ``--start`` and
``--num``, and an ambiguous abbreviation; ``--`` before and after a family; a
missing argument, a missing value, an invalid value and an invalid choice;
``classify -h`` and ``protocol swap --d 3 -h``; an unknown subcommand, a
bare ``--tol 0.1`` and ``--tol x classify werner 0.5``); ``classify`` of every
state family at several parameters, in JSON and CSV (``file`` reads
``tests/golden/state.json``; ``rho-theta`` at 0.785399 and 0.7853984 lies
near pi/4, where ``split_bound`` detects its projector at one only); ``transform`` with every switch on ten
states, in JSON and CSV (among them the degenerate tops of ``narnhofer``,
``tracial 4``, ``werner 0`` and ``ghz-traced`` at pi/4), and the theta
switches at the edges of their rotation (``ROTATION_EDGES``) on one state;
``sweep`` of every family with its default and with every measure, in CSV
and JSON, plus a ``gisin_compare`` grid at the ``--num`` cap (10000 points,
CSV and JSON) and a one-point ``werner`` grid; ``classify`` of six states and ``sweep`` of every
family with every measure at ``--tol 0`` and ``--tol 1e-16``;
``protocol {teleport,swap} --d 2..8 --seed s`` for s < N (default 150, so
2100 commands); and ``classify weyl k l d`` for every 0 <= k, l < d <= 8.
``--commands FILE`` replaces the list with one command per line
(``factorlab`` arguments, shell quoting).  Each tree runs every command
through ``factorlab.cli.main`` in one child interpreter started in the
repository root (a relative path in a command is read from there; the default
list's paths are relative, so its commands and outputs do not depend on where
the repository lies), so the list also checks that one process can serve every subcommand in turn; an uncaught
exception (or an argparse exit) is recorded in place of the exit code.  Each
child runs BLAS on one thread and caps its data segment (the memory it maps
writable, reserved address space aside) at ``MEMORY_CAP`` bytes, so a tree
that reads a file without end (trees older than the state-file size cap read
``classify file /dev/zero`` whole) records a ``MemoryError`` for that
command; a command that prints no result within ``COMMAND_SECONDS``, or a
child that dies, is recorded as ``timed out after N s`` or ``child exited
with N`` with empty output, and a new child carries on with the next command.
Such a result in the old tree is a difference like any other; in the new tree
it is printed as ``cut short:`` and fails the run, because the two trees
could otherwise be cut short alike and show no difference.  The
script prints the number of commands and of differences in exit code, stdout
or stderr, then each differing command with its two exit codes and the lines
that differ (``-N:`` the old tree's stdout line N, ``+N:`` the new tree's;
``stderr -N:`` and ``stderr +N:`` the same for stderr); it exits 1 when there
is a difference.  On stderr it then prints one line per changed key or column
over all commands (``changed KEY: N cells``), with the largest |difference| of
its cells that are finite numbers in both trees; a cell changed to or from any
other value (a number to null, say) is only counted.  A JSON stdout is compared
by its keys (nested ones dotted, a list's items under the list's key), a
``key,value`` CSV by the same dotted keys, another CSV by its header's columns,
any other stdout (key ``stdout``) and stderr (key ``stderr``) line by line; the
exit code has the key ``exit``.

``--expect FILE`` declares the differences a change makes on purpose.  FILE
is a JSON list of ``{"argv", "exit", "stdout_sha256", "stderr_sha256"}``: a
command's ``factorlab`` arguments, then the new tree's exit code and the
SHA-256 of its stdout and stderr (UTF-8).  After the report the script
prints one line per command that differs but is not listed (``undeclared:``),
differs from its entry (``not as declared:``) or is listed but does not
differ (``declared but unchanged:``), then ``N declared differences, M
problems``; it exits 1 when there is a problem.  So every undeclared
difference still fails, and the list must be emptied once its change has
landed.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import itertools
import json
import math
import os
import pathlib
import selectors
import shlex
import subprocess
import sys
import tempfile
import time

# A child's data segment, in bytes: four times the 256 MiB under which one child
# of today's tree runs the default list, the 10000-point sweep included (x86-64).
MEMORY_CAP = 1 << 30
# BLAS on one thread, as perfbench runs it, so a child maps no per-thread buffers.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# How run_tree records a command that it stopped or that ended its child.
CUT_SHORT = ("MemoryError", "timed out after", "child exited with")
# How long one command may take; today's tree runs the whole default list in
# about 1 s (x86-64).
COMMAND_SECONDS = 120

# Runs in the child: caps its data segment, prints "ready" once the tree's CLI
# is imported, then one JSON line [exit code, stdout, stderr] per command of the
# JSON list in file argv[3], from index argv[4] on; an uncaught exception stands
# in for the exit code by its type name.  A directory without the package would
# import an installed factorlab instead, so that stops the child.
WORKER = """
import contextlib, io, json, pathlib, resource, sys
resource.setrlimit(resource.RLIMIT_DATA, (int(sys.argv[2]), int(sys.argv[2])))
sys.path.insert(0, sys.argv[1])
import factorlab.cli
if pathlib.Path(sys.argv[1], "factorlab") != pathlib.Path(factorlab.cli.__file__).parent:
    sys.exit(f"no factorlab package in {sys.argv[1]}; found {factorlab.cli.__file__}")
from factorlab.cli import main
print("ready", flush=True)
with open(sys.argv[3], encoding="utf-8") as fh:
    commands = json.load(fh)[int(sys.argv[4]):]
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:
            code = type(exc).__name__
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


# Both trees run in the repository root, and the default list names its files
# relative to it, so that its commands and their messages do not depend on
# where the repository lies.
ROOT = pathlib.Path(__file__).resolve().parents[1]
TESTS = pathlib.Path("tests")
STATE_FILE = TESTS / "golden" / "state.json"

# Commands that fail at the input boundary; the --out path lies below a file,
# so it can never be written.  Then the cases argparse itself decides, some of
# which parse: ``main`` parses a command that names its subcommand first in one
# pass, and each must print as argparse's full parse does.
FAILING = [
    ["classify", "werner", "0.5", "--out", str(STATE_FILE / "x.json")],
    ["protocol", "teleport", "--seed", "-1"],
    ["sweep", "werner", "--start", "0", "--stop", "1", "--num", "3", "--outputs", "C,C"],
    *(["classify", *source] for source in (
        ["werner", "x"], ["gisin", "0.5", "y"], ["bell", "psi0"], ["ghz-traced"],
        ["narnhofer", "1"], ["tracial", "2.5"], ["weyl", "0", "y", "z"], ["rho-theta", "0.1", "0.2"],
    )),
    ["classify", "tracial", "6"],
    *(["classify", "file", str(TESTS / "data" / name)]
      for name in ("split_negative.json", "split_zero.json", "not_object_list.json",
                   "not_object_null.json")),
    ["classify", "file", "/no/such.json"],
    ["classify", "file", "/dev/zero"],  # past cli.MAX_STATE_FILE_BYTES
    ["classify", "file"],
    *(["sweep", family, "--theta", "nan", "--start", "0", "--stop", "1", "--num", "3"]
      for family in ("gisin", "werner")),
    ["sweep", "werner", "--start", "1", "--stop", "0", "--num", "3"],
    ["classify", "werner", "0.5", "--bogus"],
    ["sweep", "werner", "--start", "0", "--stop", "1", "--num", "3", "--bogus", "1"],
    ["classify", "werner", "0.5", "--tol", "0.1"],
    ["protocol", "teleport", "--tol", "0.1"],
    ["classify", "werner", "0.5", "--form", "csv"],
    ["classify", "werner", "0.5", "--format=csv"],
    ["classify", "werner", "0.5", "--form=csv"],
    ["sweep", "werner", "--sta", "0", "--stop", "1", "--nu", "3", "--form", "json"],
    ["sweep", "werner", "--start=0", "--stop=1", "--num=3", "--format=json"],
    ["sweep", "werner", "--sta=0", "--stop", "1", "--nu=3"],
    ["sweep", "werner", "--st", "0", "--stop", "1", "--num", "3"],
    ["classify", "--", "werner", "0.5"],
    ["classify", "werner", "--", "0.5"],
    ["classify", "werner", "0.5", "--"],
    ["sweep", "--start", "0", "--stop", "1", "--num", "3", "--", "werner"],
    ["sweep", "werner", "--", "--start", "0", "--stop", "1", "--num", "3"],
    ["classify"],
    ["sweep", "werner", "--start", "0", "--stop", "1"],
    ["sweep", "werner", "--start", "0", "--stop", "1", "--num"],
    ["protocol", "swap", "--d", "x"],
    ["sweep", "werner", "--start", "0", "--stop", "1", "--num", "2.5"],
    ["classify", "werner", "0.5", "--format", "xml"],
    ["protocol", "bounce"],
    ["classify", "-h"],
    ["protocol", "swap", "--d", "3", "-h"],
    ["bogus", "werner", "0.5"],
    ["--tol", "0.1"],
    ["--tol", "x", "classify", "werner", "0.5"],
]

CLASSIFY_SOURCES = [
    *(["werner", a] for a in ("0", "0.2", "0.3333333333", "0.5", "0.7071067812", "1")),
    *(["gisin", lam, theta] for lam in ("0", "0.35", "0.8", "1")
      for theta in ("0.1", "0.35", "0.7853981634")),
    *(["bell", kind] for kind in ("psi+", "psi-", "phi+", "phi-")),
    *(["ghz-traced", theta] for theta in ("0", "0.3", "0.7853981634", "1.2")),
    ["narnhofer"],
    *(["tracial", dim] for dim in ("1", "4", "9", "16", "25", "36", "49", "64")),
    *(["rho-theta", theta] for theta in ("0", "0.06421052631578948", "0.6", "1.5707963")),
    # pi/4 + 8.4e-7 and pi/4 + 2.4e-7: the top eigenvector's Schmidt coefficients are
    # equal within FLATNESS_TOL at both, its map unitary within it at the second only
    *(["rho-theta", theta] for theta in ("0.785399", "0.7853984")),
    ["weyl", "1", "2", "3"],
    ["file", str(STATE_FILE)],
]

SWITCHES = [
    ["identity"], ["u-switch"], ["u-theta", "--theta", "0.6"],
    ["u-tilde-theta", "--theta", "0.6"], ["u1-ghz"], ["u2-ghz"], ["narnhofer"],
]
# the states classified at the tolerance edge; transform switches each of them too
TOL_EDGE_SOURCES = [["werner", "0.8"], ["rho-theta", "0.6"], ["ghz-traced", "0.3"],
                    ["gisin", "0.8", "0.35"], ["bell", "psi-"], ["tracial", "4"]]
# and states whose top eigenvalue is degenerate, or whose concurrence reads a null
# space, where a spectrum carried through the switch would change printed digits
TRANSFORM_SOURCES = [*TOL_EDGE_SOURCES, ["narnhofer"], ["werner", "0"],
                     ["ghz-traced", "0.7853981634"], ["gisin", "0", "0.7853981634"]]
# the sigma_x (x) sigma_y rotation at its edges: signed zero angles, f- < 0 and
# f- at rounding scale (theta = pi/4)
ROTATION_EDGES = [
    ["u-tilde-theta", "--theta", "0"], ["u-tilde-theta", "--theta", "-0.0"],
    ["u-theta", "--theta", "2.5"], ["u-theta", "--theta", "0.7853981633974483"],
]

# family -> (grid arguments, every measure)
SWEEPS = {
    "rho_theta": (["--start", "0", "--stop", "1.5707963"], "C,C_after_u_switch,bmax,purity"),
    "werner": (["--start", "0", "--stop", "1"], "ppt,bmax,C,purity,kz_member"),
    "gisin": (["--theta", "0.35", "--start", "0", "--stop", "1"], "C,bmax,purity,ppt"),
    "gisin_compare": (
        ["--theta", "0.35", "--start", "0", "--stop", "1"],
        "C_gisin,C_filtered,C_unitary,B_gisin,B_filtered,B_unitary,"
        "purity_gisin,purity_filtered,purity_unitary",
    ),
    "ghz_traced": (["--start", "0", "--stop", "1.5707963"],
                   "C_u1,C_u2,C_best,C_after_u_switch,mixedness"),
}

TOL_EDGE = ("0", "1e-16")


def default_commands(seeds: int) -> list[list[str]]:
    formats = (("--format", "json"), ("--format", "csv"))
    commands = list(FAILING)
    commands += [["classify", *source, *fmt] for source in CLASSIFY_SOURCES for fmt in formats]
    commands += [
        ["transform", *switch, *source, *fmt]
        for switch in SWITCHES for source in TRANSFORM_SOURCES for fmt in formats
    ]
    commands += [["transform", *edge, "rho-theta", "0.6", *fmt]
                 for edge in ROTATION_EDGES for fmt in formats]
    commands += [
        ["sweep", family, *grid, "--num", "101", *outputs, *fmt]
        for family, (grid, every) in SWEEPS.items()
        for outputs in ((), ("--outputs", every))
        for fmt in formats
    ]
    # both ends of table size: a grid at the cap, cli.MAX_SWEEP_POINTS, and one point
    commands += [
        ["sweep", "gisin_compare", *SWEEPS["gisin_compare"][0], "--num", "10000", *fmt]
        for fmt in formats
    ]
    commands.append(["sweep", "werner", "--start", "0.5", "--stop", "0.5", "--num", "1"])
    # the tolerance edge, where the checks of validation and of the measures
    # run on eigenvalues at rounding scale
    commands += [
        ["--tol", tol, "classify", *source]
        for tol in TOL_EDGE for source in TOL_EDGE_SOURCES
    ]
    commands += [
        ["--tol", tol, "sweep", family, *grid, "--num", "101", "--outputs", every]
        for tol in TOL_EDGE for family, (grid, every) in SWEEPS.items()
    ]
    commands += [
        ["protocol", kind, "--d", str(d), "--seed", str(seed)]
        for seed in range(seeds)
        for d in range(2, 9)
        for kind in ("teleport", "swap")
    ]
    commands += [
        ["classify", "weyl", str(k), str(l), str(d)]
        for d in range(1, 9)
        for k in range(d)
        for l in range(d)
    ]
    return commands


def _lines(proc: subprocess.Popen, seconds: float):
    """Each line the child prints, until its stdout ends; TimeoutError when the
    next line takes longer than seconds."""
    fd, pending = proc.stdout.fileno(), bytearray()
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        deadline = time.monotonic() + seconds
        while True:
            if not selector.select(max(0.0, deadline - time.monotonic())):
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return
            pending += chunk
            start = 0
            while (end := pending.find(b"\n", start)) >= 0:
                yield pending[start:end].decode("utf-8")
                start = end + 1
                deadline = time.monotonic() + seconds
            del pending[:start]


def run_tree(src: str, commands: list[list[str]], seconds: float = COMMAND_SECONDS) -> list[list]:
    """[exit code, stdout, stderr] of each command run by the tree in src, in one
    child, or a new one after each command that outlasts seconds or ends its child."""
    results: list[list] = []
    with tempfile.TemporaryDirectory() as tmp:
        listed, log = pathlib.Path(tmp, "commands.json"), pathlib.Path(tmp, "stderr.txt")
        listed.write_text(json.dumps(commands), encoding="utf-8")
        while len(results) < len(commands):
            with open(log, "wb") as err, subprocess.Popen(
                    [sys.executable, "-c", WORKER, str(pathlib.Path(src).resolve()), str(MEMORY_CAP),
                     str(listed), str(len(results))],
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                    env={**os.environ, **CHILD_ENV}) as proc:
                lines, stopped = _lines(proc, seconds), None
                try:
                    ready = next(lines, None)
                except TimeoutError:
                    ready = None
                if ready != "ready":
                    proc.kill()
                    proc.wait()
                    raise RuntimeError(f"{src}: the child did not start:\n{log.read_text()}")
                try:
                    for line in lines:
                        results.append(json.loads(line))
                except TimeoutError:
                    stopped = f"timed out after {seconds:g} s"
                    proc.kill()
                code = proc.wait()
            if len(results) < len(commands):
                results.append([stopped or f"child exited with {code}", "", ""])
    return results


def changed_lines(old: str, new: str) -> list[str]:
    """The lines of two outputs that differ, old ones as ``-N: line`` and new
    ones as ``+N: line`` (N counted from 1), in the order they occur."""
    a, b = old.splitlines(), new.splitlines()
    out = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            out += [f"-{i + 1}: {a[i]}" for i in range(i1, i2)]
            out += [f"+{j + 1}: {b[j]}" for j in range(j1, j2)]
    return out


def _csv_cell(text: str):
    """A CSV cell as a number, as a list when it holds several blank-separated
    tokens (a matrix row, a split), or as its text."""
    tokens = []
    for token in text.split(" "):
        try:
            tokens.append(float(token))
        except ValueError:
            tokens.append(token)
    return tokens[0] if len(tokens) == 1 else tokens


def output_tree(text: str):
    """A command's stdout as nested dicts and lists: JSON as parsed, a ``key,value``
    CSV as dicts on its dotted keys, any other rectangular CSV as one dict per row,
    anything else as its list of lines."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    rows = list(csv.reader(text.splitlines()))
    if not rows or len(rows[0]) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return text.splitlines()
    if rows[0] != ["key", "value"]:
        return [dict(zip(rows[0], map(_csv_cell, row))) for row in rows[1:]]
    tree = {}
    for key, value in rows[1:]:
        *parents, leaf = key.split(".")
        node = tree
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = _csv_cell(value)
    return tree


_ABSENT = object()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def changed_cells(old, new, key: str = ""):
    """(key, |new - old| or None) for each cell that differs between two trees: dict
    entries under ``key.name``, list items under the list's own key.  None stands
    for a change that is not between two finite numbers."""
    if isinstance(old, dict) and isinstance(new, dict):
        for name in dict.fromkeys([*old, *new]):
            yield from changed_cells(old.get(name, _ABSENT), new.get(name, _ABSENT),
                                     f"{key}.{name}" if key else name)
    elif isinstance(old, list) and isinstance(new, list):
        for a, b in itertools.zip_longest(old, new, fillvalue=_ABSENT):
            yield from changed_cells(a, b, key)
    elif old != new:
        yield key, abs(new - old) if _finite(old) and _finite(new) else None


def summary_lines(old: list[list], new: list[list], differing: list[int]) -> list[str]:
    """One line per key or column changed by the differing commands: its count of
    changed cells and, where both cells of a change are finite numbers, the largest
    |difference|."""
    changes = {}
    for i in differing:
        (code_a, out_a, err_a), (code_b, out_b, err_b) = old[i], new[i]
        cells = itertools.chain(
            changed_cells(str(code_a), str(code_b), "exit"),
            changed_cells(output_tree(out_a), output_tree(out_b)),
            changed_cells(err_a.splitlines(), err_b.splitlines(), "stderr"))
        for key, diff in cells:
            changes.setdefault(key or "stdout", []).append(diff)
    lines = []
    for key, diffs in changes.items():
        numbers = [diff for diff in diffs if diff is not None]
        largest = f", largest |difference| {max(numbers):.3g}" if numbers else ""
        lines.append(f"changed {key}: {len(diffs)} cells{largest}")
    return lines


def declared_entry(argv: list[str], result: list) -> dict:
    """The ``--expect`` entry of argv whose new tree gave [exit code, stdout, stderr]."""
    code, out, err = result
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.encode("utf-8")).hexdigest()}


def declared_problems(commands: list[list[str]], new: list[list], differing: list[int],
                      declared: list[dict]) -> list[str]:
    """One line per differing command that is not declared or not as declared,
    and per declared command that does not differ."""
    listed = {tuple(entry["argv"]): entry for entry in declared}
    problems = []
    for i in differing:
        entry = listed.get(tuple(commands[i]))
        if entry is None:
            problems.append(f"undeclared: factorlab {shlex.join(commands[i])}")
        elif entry != declared_entry(commands[i], new[i]):
            problems.append(f"not as declared: factorlab {shlex.join(commands[i])}")
    differed = {tuple(commands[i]) for i in differing}
    problems += [f"declared but unchanged: factorlab {shlex.join(argv)}"
                 for argv in listed if argv not in differed]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, default=150)
    parser.add_argument("--commands", default=None, help="file with one command per line")
    parser.add_argument("--expect", default=None, help="JSON list of the differences to expect")
    args = parser.parse_args()
    if args.commands:
        with open(args.commands, encoding="utf-8") as fh:
            commands = [shlex.split(line) for line in fh if line.strip()]
    else:
        commands = default_commands(args.seeds)
    old = run_tree(args.old_src, commands)
    new = run_tree(args.new_src, commands)
    differing = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    print(f"{len(commands)} commands, {len(differing)} differences")
    for i in differing:
        (code_a, out_a, err_a), (code_b, out_b, err_b) = old[i], new[i]
        print(f"factorlab {shlex.join(commands[i])} (exit code {code_a} vs {code_b})")
        for line in changed_lines(out_a, out_b):
            print(f"  {line}")
        for line in changed_lines(err_a, err_b):
            print(f"  stderr {line}")
    for line in summary_lines(old, new, differing):
        print(line, file=sys.stderr)
    cut = [i for i, (code, _, _) in enumerate(new) if isinstance(code, str) and code.startswith(CUT_SHORT)]
    for i in cut:
        print(f"cut short: factorlab {shlex.join(commands[i])} ({new[i][0]})")
    if args.expect is None:
        return 1 if differing or cut else 0
    with open(args.expect, encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = declared_problems(commands, new, differing, declared)
    for line in problems:
        print(line)
    print(f"{len(declared)} declared differences, {len(problems)} problems")
    return 1 if problems or cut else 0


if __name__ == "__main__":
    sys.exit(main())
