"""The tolerance policy: every fixed tolerance is a named constant of
``linalg``, README lists each with its value, and every check is written as
the condition that passes, so a NaN fails it."""

import ast
import pathlib
import re

import numpy as np
import pytest

import factorlab as fl
from factorlab import linalg, protocols, states, transforms

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factorlab"
SMALL = 1e-5  # a float literal at or below this is a tolerance


def tolerance_block() -> dict[str, ast.Assign]:
    """The module-level ``NAME = <float literal>`` assignments of linalg, by name."""
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    return {
        node.targets[0].id: node for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, float)
    }


def test_linalg_names_the_seven_tolerances():
    assert {name: getattr(linalg, name) for name in tolerance_block()} == {
        "DEFAULT_TOL": 1e-9, "UNITARY_TOL": 1e-10, "NORM_TOL": 1e-9, "MAXENT_TOL": 1e-8,
        "FLATNESS_TOL": 1e-6, "SLACK": 1e-12, "ZERO_FLOOR": 1e-14,
    }
    assert states.MAXENT_TOL is linalg.MAXENT_TOL


def test_no_small_float_literal_outside_the_tolerance_block():
    allowed = {(n.value.lineno, n.value.col_offset) for n in tolerance_block().values()}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < node.value <= SMALL
                    and not (path.name == "linalg.py" and (node.lineno, node.col_offset) in allowed)):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert stray == []


def test_no_internal_kernel_picks_its_own_tolerance():
    # A public function may document a default tolerance; an internal kernel
    # takes the one its caller decided, so no verdict silently ignores --tol.
    chosen = []
    for module in ("linalg", "states", "measures", "witness_bell", "transforms", "protocols"):
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name in fl.__all__:
                continue
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            if any(isinstance(d, ast.Name) and d.id.endswith("_TOL") for d in defaults):
                chosen.append(f"{module}.{node.name}")
    assert chosen == []


def test_readme_conventions_list_every_tolerance_with_its_value():
    readme = (ROOT / "README.md").read_text()
    conventions = re.search(r"^## Conventions\n(.*?)(?=^## |\Z)", readme, re.S | re.M).group(1)
    source = (PACKAGE / "linalg.py").read_text()
    for name, node in tolerance_block().items():
        literal = ast.get_source_segment(source, node.value)
        assert float(literal) == getattr(linalg, name)
        assert f"`{name} = {literal}`" in conventions, name


NAN = np.nan
NAN_CASES = {
    "teleport": (lambda: fl.teleport(np.array([NAN, 1.0]), (0, 0)),
                 r"input state entry 0 is \(nan\+0j\)"),
    "chsh_setting": (lambda: fl.ChshSetting([NAN, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0]),
                     r"a must be a unit vector, \|a\| = nan"),
    "abs_sep_2x2": (lambda: fl.abs_sep_2x2([NAN, 0.5, 0.3, 0.2]),
                    "spectrum entry 0 is nan"),
    "abs_sep_2x2_order": (lambda: fl.abs_sep_2x2([0.5, NAN, 0.3, 0.2]),
                          "spectrum entry 1 is nan"),
    "maxent_projector": (lambda: states.maxent_projector(np.full((4, 4), NAN), 2, linalg.MAXENT_TOL),
                         r"projector entry \(0, 0\) is \(nan\+0j\)"),
    "schmidt_decompose": (lambda: fl.schmidt_decompose(np.full(4, NAN), (2, 2)),
                          r"schmidt_decompose requires a normalized vector, \|v\| = nan"),
    "ghz_split_unitary": (lambda: fl.ghz_split_unitary(np.full(8, NAN), 2),
                          r"ghz_split_unitary requires a normalized vector, \|omega\| = nan"),
    "isometry_of_maxent": (lambda: fl.isometry_of_maxent(np.full(4, NAN), 2),
                           "input vector is not maximally entangled"),
    "isometry_of_maxent_inf": (lambda: fl.isometry_of_maxent(np.array([np.inf, 0, 0, 1]), 2),
                               "input vector is not maximally entangled"),
    "local_filter": (lambda: transforms.LocalFilter(np.array([[1.0, NAN], [0.0, 1.0]]), np.eye(2)),
                     "t_left must be 2x2 diagonal"),
    "u_theta": (lambda: fl.u_theta(NAN), r"switch 'u-theta': matrix entry \(0, 0\) is \(nan\+0j\)"),
    "filtered_trace": (
        lambda: transforms.filtered(np.full((4, 4), NAN), transforms.gisin_filter(0.3)),
        "filtered state has zero trace"),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_fails_the_check(case):
    call, message = NAN_CASES[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_nan_fails_the_composition_law():
    with pytest.raises(protocols.ProtocolCheckError,
                       match=r"^outcome \(1,0\): composition law violated by nan$"):
        protocols._require_close(np.array([0.0, NAN]), ["outcome (0,0): ", "outcome (1,0): "],
                                 "composition law")


def test_nan_fails_the_unitarity_check():
    maps = np.stack([np.eye(2), np.full((2, 2), NAN)])
    with pytest.raises(ValueError, match=r"^b: isometry matrix must be unitary$"):
        protocols._require_unitary(maps, ["a: ", "b: "])


@pytest.mark.parametrize("ok, index", [
    (np.array([True, True]), None),
    (np.array([True, False, False]), 1),
    (np.array([[True, True], [True, False]]), 3),
    (np.array(np.nan) <= 1.0, 0),
    (np.array([1.0, np.nan]) <= 1.0, 1),
])
def test_require_raises_for_the_first_failing_entry(ok, index):
    if index is None:
        linalg.require(ok, lambda k: ValueError(k))
        return
    with pytest.raises(ValueError) as info:
        linalg.require(ok, lambda k: ValueError(k))
    assert info.value.args == (index,) and info.value.index == index


# an integer, bool or 0-d ok fails where it is zero, as ok.all() reads it
@pytest.mark.parametrize("ok, index", [
    (np.array([1, 0]), 1),
    (np.array([2, 0, 3]), 1),
    (np.array([-1, 2, 0, 0]), 2),
    (np.array([[3, 1], [0, 5]]), 2),
    (np.array([True, False]), 1),
    (np.array([1, 2]), None),
    (np.array(0), 0),
    (np.array(7), None),
    (np.array(False), 0),
    (np.array(True), None),
    (np.float64(0.0), 0),
])
def test_require_reads_any_dtype_as_truth(ok, index):
    assert bool(np.all(ok)) is (index is None)
    try:
        linalg.require(ok, lambda k: ValueError(k))
    except ValueError as exc:
        assert exc.args == (index,) and exc.index == index
    else:
        assert index is None
