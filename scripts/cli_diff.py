"""Compare the CLI output of two factorlab source trees, byte for byte.

Usage:

    python scripts/cli_diff.py OLD_SRC NEW_SRC [--seeds N] [--commands FILE]

OLD_SRC and NEW_SRC are directories holding the ``factorlab`` package (the
``src/`` of two checkouts, e.g. a ``git archive`` of the parent commit).  The
default command list covers every subcommand: failing commands (an
unwritable ``--out``, a negative ``protocol --seed``, a repeated ``sweep
--outputs`` name, one malformed parameter list per state family, state files
whose split is not two positive integers, a missing and an unreadable state
file, a non-finite ``sweep --theta``, a reversed ``sweep`` grid, a
``tracial`` dimension that is not a perfect square); ``classify`` of every
state family at several parameters, in JSON and CSV (``file`` reads
``tests/golden/state.json``); ``transform`` with every switch on ten
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
through ``factorlab.cli.main`` in one child interpreter, so the list also
checks that one process can serve every subcommand in turn; an uncaught
exception (or an argparse exit) is recorded in place of the exit code.  The
script prints the number of commands and of differences in exit code, stdout
or stderr, then each differing command with its two exit codes and the lines
that differ (``-N:`` the old tree's stdout line N, ``+N:`` the new tree's;
``stderr -N:`` and ``stderr +N:`` the same for stderr); it exits 1 when there
is a difference.  Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import json
import pathlib
import shlex
import subprocess
import sys

# Runs in the child: argv from stdin (JSON), [exit code, stdout, stderr] per command
# out; an uncaught exception stands in for the exit code by its type name.
WORKER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from factorlab.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:
            code = type(exc).__name__
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


TESTS = pathlib.Path(__file__).resolve().parents[1] / "tests"
STATE_FILE = TESTS / "golden" / "state.json"

# Commands that fail at the input boundary; the --out path lies below a file,
# so it can never be written.
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
      for name in ("split_negative.json", "split_zero.json")),
    ["classify", "file", "/no/such.json"],
    ["classify", "file"],
    *(["sweep", family, "--theta", "nan", "--start", "0", "--stop", "1", "--num", "3"]
      for family in ("gisin", "werner")),
    ["sweep", "werner", "--start", "1", "--stop", "0", "--num", "3"],
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


def run_tree(src: str, commands: list[list[str]]) -> list[list]:
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, src],
        input=json.dumps(commands), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, default=150)
    parser.add_argument("--commands", default=None, help="file with one command per line")
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
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
