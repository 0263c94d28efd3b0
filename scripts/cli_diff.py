"""Compare the CLI output of two factorlab source trees, byte for byte.

Usage:

    python scripts/cli_diff.py OLD_SRC NEW_SRC [--seeds N] [--commands FILE]

OLD_SRC and NEW_SRC are directories holding the ``factorlab`` package (the
``src/`` of two checkouts, e.g. a ``git archive`` of the parent commit).  The
fixed command list is ``protocol {teleport,swap} --d 2..8 --seed s`` for
s < N (default 150, so 2100 commands) plus ``classify weyl k l d`` for every
0 <= k, l < d <= 8; ``--commands FILE`` replaces it with one command per line
(``factorlab`` arguments, shell quoting).  Each tree runs every command through
``factorlab.cli.main`` in one child interpreter; an uncaught exception is
recorded in place of the exit code.  The script prints the number
of commands and of differences in exit code or stdout, and for the first
difference the command and the first differing byte; it exits 1 when there is
a difference.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys

# Runs in the child: argv from stdin (JSON), [exit code, stdout] per command
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
        except Exception as exc:
            code = type(exc).__name__
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def default_commands(seeds: int) -> list[list[str]]:
    commands = [
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


def first_difference(a: bytes, b: bytes) -> int:
    """Offset of the first differing byte (the shorter length if one is a prefix)."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


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
    if not differing:
        return 0
    i = differing[0]
    (code_a, out_a), (code_b, out_b) = old[i], new[i]
    a, b = out_a.encode("utf-8"), out_b.encode("utf-8")
    at = first_difference(a, b)
    print(f"first: factorlab {shlex.join(commands[i])}")
    print(f"  exit code {code_a} vs {code_b}")
    print(f"  stdout byte {at}: {a[at:at + 40]!r} vs {b[at:at + 40]!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
