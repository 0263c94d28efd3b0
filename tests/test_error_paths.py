"""Boundary checks that reject malformed input, each pinned to its message."""

import pathlib
import re

import numpy as np
import pytest

import factorlab as fl
from factorlab import cli, linalg, transforms
from factorlab.linalg import MAXENT_TOL
from factorlab.states import maxent_projector


def test_density_matrix_must_be_square():
    for m in (np.ones((2, 3)) / 2, np.full(4, 0.25)):
        with pytest.raises(fl.StateValidationError, match=r"^shape: not a square matrix: \(") as e:
            fl.DensityMatrix(m, (1, 2))
        assert e.value.invariant == "shape"


class TestIsometryShapes:
    def test_map_must_be_d_by_d(self):
        with pytest.raises(ValueError, match=r"^isometry matrix shape \(3, 3\) does not match d = 2$"):
            fl.Isometry(np.eye(3), 2)

    def test_compose_needs_equal_dimensions(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
            fl.Isometry.identity(2).compose(fl.Isometry.identity(3))

    def test_isometry_of_maxent_needs_d_squared_entries(self):
        with pytest.raises(ValueError, match=r"^vector of length 5 does not match d = 2$"):
            fl.isometry_of_maxent(np.ones(5) / np.sqrt(5), 2)


class TestProtocolDimensionAndTolerance:
    """``d`` is a positive integer (not a bool)."""

    def test_isometry_of_maxent_rejects_d_zero(self):
        with pytest.raises(ValueError, match="^d must be positive$"):
            fl.isometry_of_maxent(np.array([]), 0)

    def test_isometry_of_maxent_rejects_a_float_d(self):
        with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.0$"):
            fl.isometry_of_maxent(fl.bell_vector("phi+"), 2.0)

    def test_isometry_rejects_a_bool_d(self):
        with pytest.raises(ValueError, match="^d must be an integer, got True$"):
            fl.Isometry(np.eye(1), True)


def test_maxent_projector_shape():
    with pytest.raises(fl.DimensionMismatchError,
                       match=r"^projector shape \(3, 3\) does not match d = 2$"):
        maxent_projector(np.eye(3), 2, MAXENT_TOL)


@pytest.mark.parametrize("call, message", [
    (lambda: fl.witness_projector(np.eye(1), True), "d must be an integer, got True"),
    (lambda: maxent_projector(np.eye(4) / 4, 2.0, MAXENT_TOL), r"d must be an integer, got 2\.0"),
    (lambda: fl.werner_generalized(0.5, True, np.eye(1)), "d must be an integer, got True"),
    (lambda: fl.ghz_split_unitary(fl.ghz_vector(0.3), 2.0), r"d must be an integer, got 2\.0"),
    (lambda: fl.ghz_split_unitary(np.ones(1), 0), "d must be positive"),
], ids=["witness-bool", "projector-float", "werner", "ghz-float", "ghz-zero"])
def test_dimension_is_checked_first(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_ghz_split_unitary_needs_d_cubed_entries():
    with pytest.raises(fl.DimensionMismatchError,
                       match=r"^vector of length 4 is not a \(2,2,2\) state$"):
        fl.ghz_split_unitary(np.array([1.0, 0, 0, 0]), 2)


def test_schmidt_decompose_needs_matching_length():
    with pytest.raises(fl.DimensionMismatchError,
                       match=r"^vector of length 5 does not match split \(2, 2\)$"):
        fl.schmidt_decompose(np.ones(5) / np.sqrt(5), (2, 2))


@pytest.mark.parametrize("side, diagonal", [
    ("t_left", [0.0, 1.0]), ("t_left", [1.5, 1.0]), ("t_right", [1.0, -0.5]), ("t_right", [1.0, np.nan]),
])
def test_local_filter_entries_lie_in_the_half_open_unit_interval(side, diagonal):
    t = {"t_left": np.eye(2), "t_right": np.eye(2)}
    t[side] = np.diag(diagonal)
    with pytest.raises(ValueError, match=rf"^{side} entries must lie in \(0, 1\]$"):
        fl.LocalFilter(**t)


def test_witness_must_be_hermitian():
    with pytest.raises(ValueError, match="^witness operator must be Hermitian$"):
        fl.Witness(np.array([[0.0, 1.0], [0.0, 0.0]]), (1, 2))


class TestDimensionMismatch:
    def test_optimal_witness(self):
        with pytest.raises(fl.DimensionMismatchError, match=r"^dimension mismatch: 4 vs 9$"):
            fl.optimal_witness(fl.tracial(4), fl.tracial(9))

    def test_ewi_eval(self):
        witness = fl.witness_projector(fl.bell_state("psi-").matrix, 2)
        with pytest.raises(fl.DimensionMismatchError,
                           match=r"^dimension mismatch: state 9 vs witness 4$"):
            fl.ewi_eval(fl.tracial(9), witness)

    def test_hs_distance(self):
        with pytest.raises(fl.DimensionMismatchError, match=r"^dimension mismatch: 9 vs 4$"):
            fl.hs_distance(fl.tracial(9), fl.tracial(4))


def test_partial_transpose_side():
    with pytest.raises(ValueError, match=r"^side must be 'first' or 'second', got 'third'$"):
        fl.partial_transpose(np.eye(4), (2, 2), side="third")


def test_partial_trace_keep():
    with pytest.raises(ValueError, match=r"^keep must be 'first' or 'second', got 'both'$"):
        fl.partial_trace(np.eye(4), (2, 2), keep="both")


@pytest.mark.parametrize("m, shape", [
    (np.ones((2, 3)), "(2, 3)"), (np.ones(4), "(4,)"), (np.ones((2, 2, 2, 2)), "(2, 2, 2, 2)"),
])
def test_operators_must_be_square(m, shape):
    with pytest.raises(fl.DimensionMismatchError,
                       match=rf"^expected a square matrix, got shape {re.escape(shape)}$"):
        linalg.partial_trace(m, (1, 1))


class TestSplitsAreIntegers:
    """A split entry must be an integer (numpy's too), never a float or a bool
    that truncates to one."""

    @pytest.mark.parametrize("split", [(2.5, 2), (2.0, 2), (True, 4)])
    def test_density_matrix(self, split):
        with pytest.raises(fl.StateValidationError,
                           match=rf"^split: split {re.escape(str(split))} does not factor dimension 4$"):
            fl.DensityMatrix(np.eye(4) / 4, split)

    @pytest.mark.parametrize("split", [(2.5, 2), (2.0, 2), (True, 4)])
    def test_partial_trace(self, split):
        with pytest.raises(fl.DimensionMismatchError, match=rf"^split {re.escape(str(split))} "
                           "inconsistent with matrix dimension 4$"):
            fl.partial_trace(np.eye(4) / 4, split)

    @pytest.mark.parametrize("split", [(2.5, 2), (2.0, 2), (True, 4)])
    def test_schmidt_decompose(self, split):
        with pytest.raises(fl.DimensionMismatchError,
                           match=rf"^vector of length 4 does not match split {re.escape(str(split))}$"):
            fl.schmidt_decompose(fl.bell_vector("phi+"), split)

    def test_numpy_integers_pass(self):
        two = np.int64(2)
        assert fl.DensityMatrix(np.eye(4) / 4, (two, 2)).split == (2, 2)
        assert fl.partial_trace(np.eye(4) / 4, (two, 2)).shape == (2, 2)
        assert fl.schmidt_decompose(fl.bell_vector("phi+"), (two, 2)).split == (2, 2)


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("data,kind", [([1, 2], "a list"), (None, "null"), (3.5, "a number"),
                                       (2, "a number"), ("x", "a string"), (True, "a boolean")])
def test_a_state_is_a_json_object(data, kind):
    with pytest.raises(TypeError, match=f"^state must be a JSON object, got {kind}$"):
        fl.state_from_dict(data)


@pytest.mark.parametrize("name,kind", [("not_object_list.json", "a list"), ("not_object_null.json", "null")])
def test_a_state_file_is_a_json_object(capsys, name, kind):
    path = DATA / name
    assert cli.main(["classify", "file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"parse error: {path}: missing or malformed field "
                                       f"state must be a JSON object, got {kind}\n")


def test_build_state_needs_a_source():
    with pytest.raises(cli.CliParseError, match="^no state source given$"):
        cli.build_state([], fl.DEFAULT_TOL)


class TestConstrainedEntangle:
    def test_needs_total_dimension_four(self):
        with pytest.raises(fl.DimensionMismatchError,
                           match="^construction needs a total dimension of at least 4$"):
            fl.constrained_entangle(fl.DensityMatrix(np.ones((1, 1)), (1, 1)))

    def test_fallback_check_confirms_npt(self, monkeypatch):
        monkeypatch.setattr(transforms, "geometric_mean_predicts_npt", lambda w: False)
        rho = fl.werner(0.9)
        switch = fl.constrained_entangle(rho)
        assert fl.ppt_check(fl.conjugate(rho, switch)).entangled

    def test_fallback_check_rejects_a_ppt_result(self, monkeypatch):
        monkeypatch.setattr(transforms, "geometric_mean_predicts_npt", lambda w: False)
        monkeypatch.setattr(transforms, "ppt_check", lambda rho: fl.PptVerdict("PPT", 0.0))
        with pytest.raises(AssertionError,
                           match="^constrained construction failed to produce an NPT state$"):
            fl.constrained_entangle(fl.werner(0.9))


# Errors built only when their check fails: each keeps its type, words and index.
GOOD = np.eye(4, dtype=complex) / 4


def breaks(invariant, m):
    """m with the one fault that fails ``invariant`` first."""
    m = m.copy()
    if invariant == "finite":
        m[2, 1] = np.nan
    elif invariant == "hermitian":
        m[0, 1] += 0.1
    elif invariant == "trace":
        m = np.eye(4, dtype=complex) / 2
    else:
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    return m


LATE_ERRORS = [
    ("finite", r"finite: entry \(2, 1\) is \(nan\+0j\)", None),
    ("hermitian", r"hermitian: deviation 1\.000e-01 exceeds 1\.0e-09", 0.1),
    ("trace", r"trace: trace \(2\+0j\) differs from 1", 1.0),
    ("positive", r"positive: eigenvalue -1\.000e-01 below -1\.0e-09", -0.1),
]


@pytest.mark.parametrize("invariant, message, value", LATE_ERRORS)
def test_validate_stack_names_the_first_bad_matrix(invariant, message, value):
    # a later matrix fails a check that runs earlier; the first bad matrix still wins
    stack = np.array([GOOD, GOOD, fl.werner(0.3).matrix, breaks(invariant, GOOD), breaks("finite", GOOD)])
    with pytest.raises(fl.StateValidationError, match=f"^{message}$") as e:
        fl.states.validate_stack(stack, fl.DEFAULT_TOL)
    assert (e.value.index, e.value.invariant) == (3, invariant)
    assert e.value.value == (None if value is None else pytest.approx(value))


def test_psd_factor_names_the_first_negative_matrix():
    w = np.array([[0.5, 0.3, 0.2, 0.0]] * 3 + [[0.6, 0.5, 0.0, -0.1], [0.6, 0.5, 0.0, -0.2]])
    with pytest.raises(ValueError, match=r"^psd_sqrt: negative eigenvalue -1\.000e-01 below -1\.0e-09$") as e:
        linalg.psd_factor(w, np.zeros((5, 4, 4), dtype=complex), 1e-9)
    assert type(e.value) is ValueError and e.value.index == 3
    with pytest.raises(ValueError, match=r"^psd_sqrt: negative eigenvalue -2\.000e-01 below -1\.0e-09$") as e:
        linalg.psd_factor(w[4], np.zeros((4, 4), dtype=complex), 1e-9)
    assert e.value.index == 0


@pytest.mark.parametrize("invariant, message, value", LATE_ERRORS)
def test_sweep_names_a_grid_value_past_the_first(capsys, monkeypatch, invariant, message, value):
    werner_matrices = fl.states.werner_matrices

    def broken(alpha):  # the state at alpha = 0.5, the third grid point, is not valid
        m = werner_matrices(alpha)
        m[2] = breaks(invariant, m[2])
        return m

    monkeypatch.setattr(fl.states, "werner_matrices", broken)
    with pytest.raises(fl.StateValidationError, match=f"^{message} at alpha = 0.5$") as e:
        cli.run_sweep(cli.SweepSpec("werner", 0.0, 1.0, 5, ["ppt", "C"]))
    assert (e.value.index, e.value.invariant) == (2, invariant)
    assert cli.main(["sweep", "werner", "--start", "0", "--stop", "1", "--num", "5"]) == 1
    assert re.fullmatch(f"validation error: {message} at alpha = 0.5\n", capsys.readouterr().err)


def test_unit_interval_names_the_first_entry_outside():
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 2\.0$"):
        fl.states.werner_matrices([0.5, 2.0, -1.0])
    with pytest.raises(ValueError, match=r"^lambda must lie in \[0, 1\], got nan$"):
        fl.states.gisin_matrices([[0.1, 0.2], [np.nan, 3.0]], 0.3)


def _with_entry(key, x):
    data = fl.state_to_dict(fl.werner(0.5))
    data[key][1][2] = x
    return data


@pytest.mark.parametrize("key", ["re", "im"])
@pytest.mark.parametrize("x", [True, "0.25", None], ids=["bool", "numeric string", "None"])
def test_state_entry_that_is_not_a_number(key, x):
    with pytest.raises(TypeError, match=re.escape(
            f"re/im must be rectangular arrays of numbers ({key} entry {x!r} is not a number)")):
        fl.state_from_dict(_with_entry(key, x))


def test_state_entries_may_be_numpy_numbers():
    data = fl.state_to_dict(fl.werner(0.5))
    data["re"][1][2] = data["re"][2][1] = np.float64(data["re"][1][2])
    data["re"][0][0] = np.float64(data["re"][0][0])
    data["im"][3][0] = np.int64(0)
    assert np.array_equal(fl.state_from_dict(data).matrix, fl.werner(0.5).matrix)
    data["re"][1][2] = np.float64(0.25)  # the numpy float is read: the matrix is no longer Hermitian
    with pytest.raises(fl.StateValidationError, match=r"^hermitian: deviation 5\.000e-01 exceeds 1\.0e-09$"):
        fl.state_from_dict(data)
