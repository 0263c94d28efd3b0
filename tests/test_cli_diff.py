"""scripts/cli_diff.py: same tree gives no difference, a changed output byte is
found and located."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cli_diff.py"
SRC = ROOT / "src"


def cli_diff(old, new, commands_file):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new), "--commands", str(commands_file)],
        capture_output=True, text=True, timeout=120,
    )


def test_reports_first_differing_byte(tmp_path):
    commands = tmp_path / "commands.txt"
    commands.write_text("protocol teleport --d 2 --seed 3\nclassify weyl 0 1 2\n")
    same = cli_diff(SRC, SRC, commands)
    assert (same.returncode, same.stdout) == (0, "2 commands, 0 differences\n")

    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "factorlab" / "cli.py"
    text = cli.read_text()
    cli.write_text(text.replace('"outcomes": rows}', '"outcomes": rows[::-1]}'))
    differ = cli_diff(SRC, changed, commands)
    assert differ.returncode == 1
    lines = differ.stdout.splitlines()
    assert lines[:3] == [
        "2 commands, 1 differences",
        "first: factorlab protocol teleport --d 2 --seed 3",
        "  exit code 0 vs 0",
    ]
    assert lines[3].startswith("  stdout byte 96: b'0,\\n        0\\n")
