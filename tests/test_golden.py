"""Golden-output gate: every CLI example in README.md and the figure script
must reproduce the checked-in bytes in ``tests/golden/``.

Each README example runs in its own empty directory (holding only the
``state.json`` input the ``classify file`` examples read); its stdout and any
file it writes are compared byte for byte with
``tests/golden/cli/<example>/``.  ``scripts/reproduce_figures.py`` runs the
same way and is compared with ``tests/golden/figures/``.  The protocol traces
``protocol {teleport,swap} --d 2..8 --seed 5`` are compared with
``tests/golden/protocol/<kind>_d<d>_seed5/stdout``.  All of these run once
more in one process, between failing calls, since ``main`` reuses its parser.
The JSON ``ghz_traced`` sweep with every measure is compared with
``tests/golden/sweep/ghz_traced_every_measure/stdout``.
A difference is a finding to explain, not a fixture to regenerate.
"""

import contextlib
import io
import itertools
import pathlib
import re
import runpy
import shlex
import shutil
import sys

import pytest

from factorlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
STATE_FILE = GOLDEN / "state.json"
PROTOCOL_SEED = 5


def readme_examples() -> list[list[str]]:
    """argv of each ``factorlab ...`` line in the README's CLI section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "factorlab":
            examples.append(argv[1:])
    return examples


def example_name(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "_", " ".join(argv))


def produced_files(workdir: pathlib.Path) -> dict[str, bytes]:
    """Relative path -> bytes of every file under workdir except the input."""
    return {
        p.relative_to(workdir).as_posix(): p.read_bytes()
        for p in sorted(workdir.rglob("*"))
        if p.is_file() and p.name != STATE_FILE.name
    }


def run_example(argv: list[str], workdir: pathlib.Path, monkeypatch) -> dict[str, bytes]:
    """Run one README example in workdir; returns {"stdout": ..., file: ...}."""
    shutil.copy(STATE_FILE, workdir / STATE_FILE.name)
    monkeypatch.chdir(workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, f"factorlab {' '.join(argv)} exited {code}: {err.getvalue()}"
    assert err.getvalue() == ""
    return {"stdout": out.getvalue().encode("utf-8"), **produced_files(workdir)}


def run_protocol_trace(kind: str, d: int) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    argv = ["protocol", kind, "--d", str(d), "--seed", str(PROTOCOL_SEED)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, f"factorlab {' '.join(argv)} exited {code}: {err.getvalue()}"
    return out.getvalue().encode("utf-8")


# Calls that fail, one per kind of exit: (argv, exit code, start of the output).
FAILING_CALLS = [
    (["protocol", "teleport", "--seed", "-1"], 2, "parse error: "),
    (["classify", "tracial", "-4"], 1, "validation error: "),
    (["--help"], 0, "usage: factorlab"),
]


def run_failing_call(argv: list[str], code: int, start: str):
    """Run a call that must fail (or print help and exit 0) with its message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = main(list(argv))
        except SystemExit as exc:
            got = exc.code
    assert got == code, f"factorlab {' '.join(argv)} exited {got}"
    text, silent = (out, err) if code == 0 else (err, out)
    assert text.getvalue().startswith(start) and silent.getvalue() == ""


def run_figures(workdir: pathlib.Path, monkeypatch) -> dict[str, bytes]:
    """Run scripts/reproduce_figures.py in workdir with its default grid."""
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--outdir", "figure_data"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "scripts" / "reproduce_figures.py"), run_name="__main__")
    return {"stdout": out.getvalue().encode("utf-8"), **produced_files(workdir)}


def expected_files(directory: pathlib.Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def assert_same_bytes(got: dict[str, bytes], directory: pathlib.Path):
    want = expected_files(directory)
    assert sorted(got) == sorted(want), f"{directory.name}: produced {sorted(got)}"
    for name, data in want.items():
        assert got[name] == data, f"{directory.name}/{name} differs from the golden bytes"


def test_readme_lists_examples():
    examples = readme_examples()
    assert len(examples) >= 10
    kept = {p.name for p in (GOLDEN / "cli").iterdir()}
    assert {example_name(a) for a in examples} == kept


@pytest.mark.parametrize("argv", readme_examples(), ids=example_name)
def test_readme_example_bytes(argv, tmp_path, monkeypatch):
    got = run_example(argv, tmp_path, monkeypatch)
    assert_same_bytes(got, GOLDEN / "cli" / example_name(argv))


def test_reproduce_figures_bytes(tmp_path, monkeypatch):
    assert_same_bytes(run_figures(tmp_path, monkeypatch), GOLDEN / "figures")


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("kind", ["teleport", "swap"])
def test_protocol_trace_bytes(kind, d):
    want = GOLDEN / "protocol" / f"{kind}_d{d}_seed{PROTOCOL_SEED}" / "stdout"
    assert run_protocol_trace(kind, d) == want.read_bytes()


# every measure of the traced GHZ family, each state under U1, U2 and the switch
GHZ_SWEEP = ["sweep", "ghz_traced", "--start", "0", "--stop", "1.5707963", "--num", "101",
             "--outputs", "C_u1,C_u2,C_best,C_after_u_switch,mixedness", "--format", "json"]


def test_ghz_traced_every_measure_sweep_bytes():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(GHZ_SWEEP))
    assert code == 0 and err.getvalue() == ""
    want = GOLDEN / "sweep" / "ghz_traced_every_measure" / "stdout"
    assert out.getvalue().encode("utf-8") == want.read_bytes()


def test_golden_bytes_survive_reuse_in_one_process(tmp_path, monkeypatch):
    """Every README example and protocol trace, run in one process with a
    failing call after each, still reproduces its golden bytes."""
    failing = itertools.cycle(FAILING_CALLS)
    for n, argv in enumerate(readme_examples()):
        workdir = tmp_path / f"example{n}"
        workdir.mkdir()
        assert_same_bytes(run_example(argv, workdir, monkeypatch), GOLDEN / "cli" / example_name(argv))
        run_failing_call(*next(failing))
    for kind in ("teleport", "swap"):
        for d in range(2, 9):
            want = GOLDEN / "protocol" / f"{kind}_d{d}_seed{PROTOCOL_SEED}" / "stdout"
            assert run_protocol_trace(kind, d) == want.read_bytes()
            run_failing_call(*next(failing))
