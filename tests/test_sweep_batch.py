"""Batched sweeps against a per-point reference built from scalar library calls.

The reference evaluates each grid point on its own, one DensityMatrix at a
time, the way a sweep was computed before it became one stacked batch.  The
batched table, column-major, must equal the transposed reference rows exactly
(``==``, not a tolerance), and a failing grid must raise the same error with
the same message.  A sweep validates all its stacks joined into one; where that
fails, it must fail as a sweep that validates each stack before building the
next, naming the same grid value.
"""

import numpy as np
import pytest

from factorlab import cli, measures, states, transforms, witness_bell
from factorlab.cli import SweepSpec, run_sweep
from factorlab.linalg import DEFAULT_TOL


def _ref_rho_theta(theta, _, tol):
    rho = states.rho_theta(theta, tol=tol)
    switched = transforms.conjugate(rho, transforms.u_switch(), tol=tol)
    return {
        "C": measures.concurrence(rho, tol=tol),
        "C_after_u_switch": measures.concurrence(switched, tol=tol),
        "bmax": witness_bell.horodecki_bmax(rho),
        "purity": measures.purity(rho),
    }


def _ref_werner(alpha, _, tol):
    rho = states.werner(alpha, tol=tol)
    return {
        "ppt": measures.ppt_check(rho, tol=tol).min_pt_eigenvalue,
        "bmax": witness_bell.horodecki_bmax(rho),
        "C": measures.concurrence(rho, tol=tol),
        "purity": measures.purity(rho),
        "kz_member": float(measures.kz_ball_member(rho, tol=tol)),
    }


def _ref_gisin(lam, theta, tol):
    rho = states.gisin(lam, theta, tol=tol)
    return {
        "C": measures.concurrence(rho, tol=tol),
        "bmax": witness_bell.horodecki_bmax(rho),
        "purity": measures.purity(rho),
        "ppt": measures.ppt_check(rho, tol=tol).min_pt_eigenvalue,
    }


def _ref_gisin_compare(lam, theta, tol):
    plain = states.gisin(lam, theta, tol=tol)
    filtered = transforms.apply_filter(plain, transforms.gisin_filter(theta), tol=tol)
    unitary = transforms.gisin_unitary_family(lam, theta, tol=tol)
    return {
        "C_gisin": measures.concurrence(plain, tol=tol),
        "C_filtered": measures.concurrence(filtered, tol=tol),
        "C_unitary": measures.concurrence(unitary, tol=tol),
        "B_gisin": witness_bell.horodecki_bmax(plain),
        "B_filtered": witness_bell.horodecki_bmax(filtered),
        "B_unitary": witness_bell.horodecki_bmax(unitary),
        "purity_gisin": measures.purity(plain),
        "purity_filtered": measures.purity(filtered),
        "purity_unitary": measures.purity(unitary),
    }


def _ref_ghz_traced(theta, _, tol):
    rho = states.ghz_traced(theta, tol=tol)
    c_u1 = measures.concurrence(transforms.conjugate(rho, transforms.u1_ghz(), tol=tol), tol=tol)
    c_u2 = measures.concurrence(transforms.conjugate(rho, transforms.u2_ghz(), tol=tol), tol=tol)
    c_switch = measures.concurrence(
        transforms.conjugate(rho, transforms.u_switch(), tol=tol), tol=tol
    )
    return {
        "C_u1": c_u1,
        "C_u2": c_u2,
        "C_best": max(c_u1, c_u2),
        "C_after_u_switch": c_switch,
        "mixedness": measures.mixedness(rho),
    }


REFERENCE = {
    "rho_theta": ("theta", _ref_rho_theta),
    "werner": ("alpha", _ref_werner),
    "gisin": ("lambda", _ref_gisin),
    "gisin_compare": ("lambda", _ref_gisin_compare),
    "ghz_traced": ("theta", _ref_ghz_traced),
}
MEASURES = {family: list(evaluate(0.5, 0.3, DEFAULT_TOL)) for family, (_, evaluate) in REFERENCE.items()}


def reference_sweep(spec: SweepSpec, tol: float = DEFAULT_TOL):
    """(columns, rows) of a sweep computed point by point."""
    param, evaluate = REFERENCE[spec.family]
    rows = []
    for x in np.linspace(spec.start, spec.stop, spec.num):
        values = evaluate(float(x), spec.theta, tol)
        rows.append({param: float(x), **{name: values[name] for name in spec.outputs}})
    return [param] + list(spec.outputs), rows


def outcome(fn, spec, tol=DEFAULT_TOL):
    try:
        return fn(spec, tol)
    except Exception as exc:  # the two paths must fail alike
        return type(exc), str(exc)


HALF_PI = np.pi / 2
# (family, start, stop, num, theta): grids through 0, 1/3 and 1 for the mixing
# weights, 0, pi/4 and pi/2 for the angles, plus the README-sized grids.
GRIDS = [
    ("rho_theta", 0.0, HALF_PI, 3, None),
    ("rho_theta", 0.0, HALF_PI, 101, None),
    ("rho_theta", -1.0, 4.0, 37, None),
    ("ghz_traced", 0.0, HALF_PI, 3, None),
    ("ghz_traced", 0.0, HALF_PI, 101, None),
    ("werner", 0.0, 1.0, 4, None),
    ("werner", 0.0, 1.0, 101, None),
    ("werner", 1 / 3, 1 / 3, 1, None),
    *[("gisin", 0.0, 1.0, n, theta) for n in (4, 101) for theta in (0.0, np.pi / 4, HALF_PI, 0.35)],
    ("gisin_compare", 0.0, 1.0, 4, np.pi / 4),
    ("gisin_compare", 0.0, 1.0, 101, 0.35),
    ("gisin_compare", 0.0, 1.0, 101, np.pi / 4),
    ("gisin_compare", 7 / 8, 7 / 8, 1, np.arctan(1 / 3)),
]


@pytest.mark.parametrize("family,start,stop,num,theta", GRIDS)
def test_batched_rows_equal_reference(family, start, stop, num, theta):
    spec = SweepSpec(family, start, stop, num, outputs=MEASURES[family], theta=theta)
    columns, table = run_sweep(spec)
    ref_columns, ref_rows = reference_sweep(spec)
    assert columns == ref_columns
    assert table == [[row[name] for row in ref_rows] for name in ref_columns]
    assert all(type(x) is float for column in table for x in column)


@pytest.mark.parametrize("family,start,stop,theta", [
    ("werner", 0.5, 1.5, None),
    ("werner", -0.25, 1.0, None),
    ("gisin", 0.9, 1.2, 0.3),
    ("gisin_compare", 0.0, 1.0, 0.0),
    ("gisin_compare", 0.0, 1.0, HALF_PI),
    ("gisin_compare", 0.5, 2.0, 0.35),
])
def test_failing_grid_matches_reference(family, start, stop, theta):
    spec = SweepSpec(family, start, stop, 11, outputs=MEASURES[family], theta=theta)
    got, want = outcome(run_sweep, spec), outcome(reference_sweep, spec)
    assert isinstance(want[0], type) and issubclass(want[0], Exception)
    assert got == want


def test_default_outputs_are_a_subset_of_the_reference():
    for family in REFERENCE:
        theta = 0.35 if family.startswith("gisin") else None
        columns, _ = run_sweep(SweepSpec(family, 0.1, 0.2, 2, theta=theta))
        assert set(columns[1:]) <= set(MEASURES[family])


# ---------------------------------------------------------------------------
# every stack of a family joined into one validation

def stack_by_stack(spec, tol=DEFAULT_TOL):
    """(type, message, grid index) of the first failure of a sweep that
    validates each stack before it builds the next, or None if all pass."""
    family = cli._SWEEP_FAMILIES[spec.family]
    grid = np.linspace(spec.start, spec.stop, spec.num)
    built = {}
    try:
        for name, build in family.stacks:
            built[name] = build(grid, spec.theta, built)
            states.validate_stack(built[name], tol)
    except (ValueError, AssertionError) as exc:
        index = getattr(exc, "index", None)
        where = "" if index is None else f" at {family.param} = {float(grid[index])!r}"
        return type(exc), f"{exc}{where}", index
    return None


def joined(spec, tol=DEFAULT_TOL):
    try:
        run_sweep(spec, tol)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return None


def poison(monkeypatch, family, at):
    """Make each stack named in ``at`` hold a NaN at entry (0, 0) of grid point at[name]."""
    row = cli._SWEEP_FAMILIES[family]

    def poisoned(build, j):
        def build_with_nan(x, theta, built):
            m = build(x, theta, built).copy()
            m[j, 0, 0] = np.nan
            return m
        return build_with_nan

    stacks = tuple((name, poisoned(build, at[name]) if name in at else build) for name, build in row.stacks)
    monkeypatch.setitem(cli._SWEEP_FAMILIES, family, row._replace(stacks=stacks))


def every_measure(family, num=11):
    theta = 0.35 if family == "gisin_compare" else None
    return SweepSpec(family, 0.0, 1.0, num, outputs=MEASURES[family], theta=theta)


@pytest.mark.parametrize("family,stack", [
    ("ghz_traced", "u1"), ("ghz_traced", "u2"), ("gisin_compare", "filtered"),
    ("gisin_compare", "unitary")])
@pytest.mark.parametrize("j", [0, 7, 10])
def test_later_stack_failure_names_its_grid_value(monkeypatch, family, stack, j):
    poison(monkeypatch, family, {stack: j})
    spec = every_measure(family)
    grid = np.linspace(spec.start, spec.stop, spec.num)
    with pytest.raises(states.StateValidationError) as info:
        run_sweep(spec)
    param = cli._SWEEP_FAMILIES[family].param
    assert str(info.value) == f"finite: entry (0, 0) is (nan+0j) at {param} = {float(grid[j])!r}"
    assert info.value.index == j


@pytest.mark.parametrize("family,at,j", [
    ("ghz_traced", {"u1": 8, "switched": 2}, 8),
    ("ghz_traced", {"u2": 5, "switched": 0}, 5),
    ("ghz_traced", {"u1": 9, "u2": 1}, 9),
    ("gisin_compare", {"filtered": 6, "unitary": 1}, 6),
    ("gisin_compare", {"gisin": 10, "unitary": 0}, 10),
])
def test_earlier_stack_fails_first(monkeypatch, family, at, j):
    poison(monkeypatch, family, at)
    spec = every_measure(family)
    got = joined(spec)
    assert got[2] == j
    assert got == stack_by_stack(spec)


# grids that fail at a tolerance below rounding, or at a filter angle out of
# range, where the gisin stack fails validation before the filter is built
@pytest.mark.parametrize("family,theta,tol", [
    *[(family, 0.35 if family.startswith("gisin") else None, tol)
      for family in REFERENCE for tol in (0.0, 1e-16)],
    ("gisin_compare", 1.0, 0.0),
    ("gisin_compare", 1.0, DEFAULT_TOL),
    ("gisin_compare", HALF_PI, 0.0),
])
def test_joined_validation_fails_as_stack_by_stack(family, theta, tol):
    spec = SweepSpec(family, 0.0, 1.0, 101, outputs=MEASURES[family], theta=theta)
    assert joined(spec, tol) == stack_by_stack(spec, tol)
