"""scripts/cli_diff.py: same tree gives no difference, every changed output
line is shown with its line number, ``--expect`` passes exactly the declared
differences, the default list reaches every subcommand, family, switch and
measure, and the tolerance edge, and a command that hangs, runs out of address
space or ends its child is recorded as one result while the run goes on."""

import hashlib
import json
import pathlib
import re
import runpy
import shutil
import subprocess
import sys

import pytest

from factorlab import cli, transforms

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cli_diff.py"
SRC = ROOT / "src"


def cli_diff(old, new, *options):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new), *map(str, options)],
        capture_output=True, text=True, timeout=120,
    )


def test_reports_every_changed_line(tmp_path):
    commands = tmp_path / "commands.txt"
    commands.write_text("protocol teleport --d 2 --seed 3\nclassify werner 0.5\nclassify narnhofer\n")
    same = cli_diff(SRC, SRC, "--commands", commands)
    assert (same.returncode, same.stdout) == (0, "3 commands, 0 differences\n")

    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "factorlab" / "cli.py"
    text = cli.read_text()
    text = text.replace("stack.labels,", "stack.labels[::-1],")
    text = text.replace('rows: 1.0 - rows["purity"]),', 'rows: 0.25 + 0.0 * rows["purity"]),')
    cli.write_text(text)
    differ = cli_diff(SRC, changed, "--commands", commands)
    assert differ.returncode == 1
    lines = differ.stdout.splitlines()
    assert lines[0] == "3 commands, 3 differences"
    # the reversed correction labels: every changed line, old then new, numbered
    werner = lines.index("factorlab classify werner 0.5 (exit code 0 vs 0)")
    teleport = lines[1:werner]
    assert teleport[0] == "factorlab protocol teleport --d 2 --seed 3 (exit code 0 vs 0)"
    assert all(line.startswith(("  -", "  +")) for line in teleport[1:])
    assert {line[2] for line in teleport[1:]} == {"-", "+"}
    # one changed line per classify, shown in both trees
    assert lines[werner:] == [
        "factorlab classify werner 0.5 (exit code 0 vs 0)",
        '  -7:   "mixedness": 0.5625,',
        '  +7:   "mixedness": 0.25,',
        "factorlab classify narnhofer (exit code 0 vs 0)",
        '  -7:   "mixedness": 0.5,',
        '  +7:   "mixedness": 0.25,',
    ]


def test_summary_counts_changed_cells_per_key(tmp_path):
    # the report on stdout is as before; stderr sums the changes up by key
    commands = tmp_path / "commands.txt"
    commands.write_text("classify werner 0.5\nclassify narnhofer --format csv\nclassify bell psi0\n")
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "factorlab" / "cli.py"
    text = cli.read_text().replace('rows: 1.0 - rows["purity"]),', 'rows: 0.25 + 0.0 * rows["purity"]),')
    cli.write_text(text.replace("unknown Bell kind", "no Bell kind"))
    differ = cli_diff(SRC, changed, "--commands", commands)
    assert differ.stdout.splitlines()[0] == "3 commands, 3 differences"
    # mixedness 0.5625 -> 0.25 in JSON, 0.5 -> 0.25 in key,value CSV
    assert differ.stderr.splitlines() == [
        "changed mixedness: 2 cells, largest |difference| 0.312",
        "changed stderr: 1 cells",
    ]


def test_summary_reads_each_output_form():
    script = runpy.run_path(str(SCRIPT))
    table = "alpha,C,split\n0,0.5,2 2\n1,0.25,2 2\n"
    old = [
        [0, table, ""],
        [0, '{"split_bound": {"beta": 0.5, "entangled": false}, "rows": [{"p": 0.25}, {"p": 0.5}]}', ""],
        [2, "usage: factorlab classify\n", ""],
        [2, "", "parse error: x\n"],
    ]
    new = [
        [0, table.replace("0.25", "None").replace("0,0.5", "0,0.5000001").replace("2 2\n1", "2 3\n1"), ""],
        [0, '{"split_bound": null, "rows": [{"p": 0.25}, {"p": 0.5}, {"p": 1.0}]}', ""],
        [2, "usage: factorlab sweep\n", ""],
        ["SystemExit(2)", "", "parse error: y\n"],
    ]
    assert script["summary_lines"](old, new, [0, 1, 2, 3]) == [
        # a table's columns, blank-separated cells item by item, a number to None counted only
        "changed C: 2 cells, largest |difference| 1e-07",
        "changed split: 1 cells, largest |difference| 1",
        # a JSON object to null; a longer list's extra item
        "changed split_bound: 1 cells",
        "changed rows: 1 cells",
        # lines that are not a rectangular CSV, compared line by line
        "changed stdout: 1 cells",
        "changed exit: 1 cells",
        "changed stderr: 1 cells",
    ]


def test_reports_changed_stderr(tmp_path):
    commands = tmp_path / "commands.txt"
    commands.write_text("classify bell psi0\nclassify bell psi+\n")
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "factorlab" / "cli.py"
    cli.write_text(cli.read_text().replace("unknown Bell kind", "no Bell kind"))
    differ = cli_diff(SRC, changed, "--commands", commands)
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == [
        "2 commands, 1 differences",
        "factorlab classify bell psi0 (exit code 2 vs 2)",
        "  stderr -1: parse error: unknown Bell kind 'psi0'",
        "  stderr +1: parse error: no Bell kind 'psi0'",
    ]


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


PSI0 = {"argv": ["classify", "bell", "psi0"], "exit": 2, "stdout_sha256": sha256(""),
        "stderr_sha256": sha256("parse error: no Bell kind 'psi0'\n")}
PSI_PLUS = {"argv": ["classify", "bell", "psi+"], "exit": 0, "stdout_sha256": sha256(""),
            "stderr_sha256": sha256("")}


@pytest.mark.parametrize("declared,problem", [
    ([PSI0], None),
    ([], "undeclared: factorlab classify bell psi0"),
    ([PSI0, PSI_PLUS], "declared but unchanged: factorlab classify bell psi+"),
    ([{**PSI0, "stderr_sha256": sha256("parse error: unknown Bell kind 'psi0'\n")}],
     "not as declared: factorlab classify bell psi0"),
    ([{**PSI0, "exit": 1}], "not as declared: factorlab classify bell psi0"),
], ids=["declared", "undeclared", "stale", "hash-mismatch", "exit-mismatch"])
def test_expect_passes_exactly_the_declared_differences(tmp_path, declared, problem):
    commands = tmp_path / "commands.txt"
    commands.write_text("classify bell psi0\nclassify bell psi+\n")
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "factorlab" / "cli.py"
    cli.write_text(cli.read_text().replace("unknown Bell kind", "no Bell kind"))
    expect = tmp_path / "declared.json"
    expect.write_text(json.dumps(declared))
    differ = cli_diff(SRC, changed, "--commands", commands, "--expect", expect)
    # the report, then the problems and their count
    assert differ.stdout.splitlines() == [
        "2 commands, 1 differences",
        "factorlab classify bell psi0 (exit code 2 vs 2)",
        "  stderr -1: parse error: unknown Bell kind 'psi0'",
        "  stderr +1: parse error: no Bell kind 'psi0'",
        *([problem] if problem else []),
        f"{len(declared)} declared differences, {1 if problem else 0} problems",
    ]
    assert differ.returncode == (1 if problem else 0)


def test_default_list_covers_every_subcommand():
    script = runpy.run_path(str(SCRIPT))
    commands = script["default_commands"](1)
    failing = script["FAILING"]
    assert commands[:len(failing)] == failing
    # the argparse-level cases aside: no source, or an option where the source goes
    malformed = {argv[1] for argv in failing if argv[0] == "classify" and len(argv) > 1
                 and not argv[1].startswith("-")}
    assert malformed == set(cli._STATE_FAMILIES) | {"file"}
    for argv in (["classify", "-h"], ["protocol", "swap", "--d", "3", "-h"], ["classify", "--", "werner", "0.5"],
                 ["classify", "werner", "0.5", "--tol", "0.1"], ["--tol", "x", "classify", "werner", "0.5"]):
        assert argv in failing
    assert ["classify", "tracial", "6"] in failing
    assert ["classify", "file", "/no/such.json"] in failing
    assert ["classify", "file", "/dev/zero"] in failing  # the size cap
    assert ["classify", "file"] in failing
    assert ["sweep", "werner", "--start", "1", "--stop", "0", "--num", "3"] in failing
    commands = commands[len(failing):]
    classified = {argv[1] for argv in commands if argv[0] == "classify"}
    assert classified == set(cli._STATE_FAMILIES) | {"file"}
    switches = {argv[1] for argv in commands if argv[0] == "transform"}
    assert switches == set(transforms.SWITCH_BUILDERS)
    rotation_edges = {(argv[1], argv[3], argv[-1]) for argv in commands
                      if argv[0] == "transform" and argv[2] == "--theta"}
    for switch, theta in [("u-tilde-theta", "0"), ("u-tilde-theta", "-0.0"),
                          ("u-theta", "2.5"), ("u-theta", "0.7853981633974483")]:
        assert {(switch, theta, "json"), (switch, theta, "csv")} <= rotation_edges
    measured = {}
    for argv in commands:
        if argv[0] == "sweep" and "--outputs" in argv:
            measured.setdefault(argv[1], set()).update(argv[argv.index("--outputs") + 1].split(","))
    assert measured == {family: set(entry.columns) for family, entry in cli._SWEEP_FAMILIES.items()}
    sizes = {(int(argv[argv.index("--num") + 1]), argv[-1] if "--format" in argv else "csv")
             for argv in commands if argv[0] == "sweep"}
    assert {(cli.MAX_SWEEP_POINTS, "csv"), (cli.MAX_SWEEP_POINTS, "json"), (1, "csv")} <= sizes
    edges = {}
    for argv in commands:
        if argv[0] == "--tol":
            edges.setdefault((argv[1], argv[2]), set()).add(argv[3])
    for tol in ("0", "1e-16"):
        assert edges.pop((tol, "classify")) == {
            "werner", "rho-theta", "ghz-traced", "gisin", "bell", "tracial"}
        assert edges.pop((tol, "sweep")) == set(cli._SWEEP_FAMILIES)
    assert not edges
    protocols = {(argv[1], argv[3]) for argv in commands if argv[0] == "protocol"}
    assert protocols == {(kind, str(d)) for kind in ("teleport", "swap") for d in range(2, 9)}


def test_default_list_runs_in_one_process():
    same = cli_diff(SRC, SRC, "--seeds", 1)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.endswith(" commands, 0 differences\n")


def test_a_loader_that_never_returns_is_one_difference(tmp_path):
    # a tree whose state-file loader never returns, as older trees read /dev/zero
    hanging = tmp_path / "src"
    shutil.copytree(SRC, hanging, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = hanging / "factorlab" / "cli.py"
    text = cli.read_text().replace("def load_state_file(path: str, tol: float) -> DensityMatrix:\n", (
        "def load_state_file(path: str, tol: float) -> DensityMatrix:\n"
        "    import time\n"
        "    while True:\n"
        "        time.sleep(0.1)\n"), 1)
    assert "while True" in text
    cli.write_text(text)
    script = runpy.run_path(str(SCRIPT))
    commands = [["classify", "werner", "0.5"], ["classify", "file", "/dev/zero"], ["classify", "narnhofer"]]
    old = script["run_tree"](str(SRC), commands, seconds=3)
    new = script["run_tree"](str(hanging), commands, seconds=3)
    assert [i for i, (a, b) in enumerate(zip(old, new)) if a != b] == [1]
    assert old[1][0] == 2 and new[1] == ["timed out after 3 s", "", ""]


STUB_CLI = """
import os, time
import numpy as np

def main(argv):
    if argv == ["hang"]:
        while True:
            time.sleep(0.1)
    if argv == ["reserve"]:  # more address space than a child has; no page of it is touched
        np.empty(3 << 30, dtype=np.uint8)
    if argv == ["exit"]:
        os._exit(7)
    print("done", *argv)
    return 0
"""


def stub_tree(tmp_path):
    stub = tmp_path / "stub"
    (stub / "factorlab").mkdir(parents=True)
    (stub / "factorlab" / "__init__.py").write_text("")
    (stub / "factorlab" / "cli.py").write_text(STUB_CLI)
    return stub


def test_each_stopped_command_is_recorded_and_the_next_runs(tmp_path):
    stub = stub_tree(tmp_path)
    script = runpy.run_path(str(SCRIPT))
    assert script["MEMORY_CAP"] < 3 << 30
    commands = [["a"], ["hang"], ["b"], ["reserve"], ["exit"], ["c"]]
    assert script["run_tree"](str(stub), commands, seconds=2) == [
        [0, "done a\n", ""],
        ["timed out after 2 s", "", ""],
        [0, "done b\n", ""],
        ["MemoryError", "", ""],
        ["child exited with 7", "", ""],
        [0, "done c\n", ""],
    ]


def test_a_command_the_new_tree_cannot_finish_fails_the_run(tmp_path):
    # both trees run out of memory alike, so no output differs, yet nothing was compared
    stub = stub_tree(tmp_path)
    commands = tmp_path / "commands.txt"
    commands.write_text("a\nreserve\nexit\n")
    declared = tmp_path / "declared.json"
    declared.write_text("[]")
    for options in ((), ("--expect", declared)):
        run = cli_diff(stub, stub, "--commands", commands, *options)
        assert run.returncode == 1, run.stdout + run.stderr
        assert run.stdout.startswith("3 commands, 0 differences\n")
        assert "cut short: factorlab reserve (MemoryError)\n" in run.stdout
        assert "cut short: factorlab exit (child exited with 7)\n" in run.stdout
        assert "factorlab a " not in run.stdout


def test_a_tree_that_cannot_start_stops_the_run(tmp_path):
    (tmp_path / "factorlab").mkdir()
    (tmp_path / "factorlab" / "__init__.py").write_text("")
    (tmp_path / "factorlab" / "cli.py").write_text("raise ImportError('a broken tree')\n")
    script = runpy.run_path(str(SCRIPT))
    with pytest.raises(RuntimeError, match="(?s)the child did not start:.*a broken tree"):
        script["run_tree"](str(tmp_path), [["classify", "werner", "0.5"]], seconds=10)
    # a directory with no package in it does not fall back to a factorlab that is
    # installed or on PYTHONPATH, nor runs when there is none
    empty = tmp_path / "empty"
    empty.mkdir()
    message = (f"(?s)the child did not start:.*(no factorlab package in {re.escape(str(empty))}"
               "|No module named 'factorlab')")
    with pytest.raises(RuntimeError, match=message):
        script["run_tree"](str(empty), [["classify", "werner", "0.5"]], seconds=10)
