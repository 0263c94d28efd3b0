import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import (
    BlochForm,
    DensityMatrix,
    StateValidationError,
    bell_state,
    bell_vector,
    from_bloch,
    ghz_traced,
    ghz_vector,
    gisin,
    herm_eigensystem,
    narnhofer,
    partial_trace,
    ppt_check,
    product_state,
    psi_theta,
    rho_theta,
    state_from_dict,
    state_to_dict,
    to_bloch,
    tracial,
    werner,
    werner_generalized,
    weyl_basis_state,
    weyl_operator,
)
from factorlab.states import gisin_matrices, validate_stack, werner_matrices
from conftest import ginibre_density, random_density

angles = st.floats(0.0, np.pi / 2, allow_nan=False)


class TestDensityMatrixValidation:
    def test_valid(self, rng):
        rho = random_density(rng, (2, 3))
        assert rho.dim == 6 and rho.split == (2, 3)

    def test_spectrum_is_cached_and_read_only(self, rng):
        rho = random_density(rng, (2, 3))
        spectrum = rho.spectrum
        assert rho.spectrum is spectrum
        reference = herm_eigensystem(rho.matrix)
        assert (spectrum.values == reference.values).all()
        assert (spectrum.vectors == reference.vectors).all()
        assert not spectrum.values.flags.writeable and not spectrum.vectors.flags.writeable
        with pytest.raises(ValueError):
            spectrum.values[0] = 0.0

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(StateValidationError, match="hermitian"):
            DensityMatrix(m, (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex), (2, 2))

    def test_rejects_indefinite_and_reports_eigenvalue(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(StateValidationError, match="positive") as err:
            DensityMatrix(m, (2, 2))
        assert err.value.value == pytest.approx(-0.1, abs=1e-12)

    def test_rejects_bad_split(self):
        with pytest.raises(StateValidationError, match="split"):
            DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 3))

    def test_tolerance_is_adjustable(self):
        m = np.diag([0.5 + 5e-7, 0.5 - 5e-7, 0.0, -1e-7]).astype(complex)
        with pytest.raises(StateValidationError):
            DensityMatrix(m, (2, 2))
        DensityMatrix(m, (2, 2), tol=1e-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entry_by_position(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = bad
        with pytest.raises(StateValidationError, match=r"finite: entry \(1, 2\)") as err:
            DensityMatrix(m, (2, 2))
        assert err.value.invariant == "finite"

    def test_stack_reports_first_offending_matrix(self):
        good = np.eye(4, dtype=complex) / 4
        indefinite = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        skew = good.copy()
        skew[0, 1] = 0.1
        nan = good.copy()
        nan[3, 3] = np.nan
        cases = [
            ([good, skew, indefinite], 1, "hermitian"),
            ([good, indefinite, skew], 1, "positive"),
            ([good, good, indefinite, nan], 2, "positive"),
            ([nan, indefinite], 0, "finite"),
            ([good, 2 * good], 1, "trace"),
        ]
        for stack, index, invariant in cases:
            with pytest.raises(StateValidationError) as err:
                validate_stack(np.array(stack))
            assert (err.value.index, err.value.invariant) == (index, invariant)
        # the one eigh of the stack, eigenvalues descending, is what it returns
        stack = np.array([good, werner(0.5).matrix])
        spectrum = validate_stack(stack)
        w, v = np.linalg.eigh(stack)
        assert np.array_equal(spectrum.values, w[:, ::-1])
        assert np.array_equal(spectrum.vectors, v[:, :, ::-1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.sampled_from([1, 2, 4]))
    def test_state_spectrum_is_its_row_of_the_stack(self, seed, n, rank):
        # One solver for both: a sweep and classify see the same eigenvalues of
        # the same matrix, so they take the same positivity verdict.
        rng = np.random.default_rng(seed)
        m = np.array([ginibre_density(rng, 4, rank) for _ in range(n)])
        spectrum = validate_stack(m)
        for k in range(n):
            rho = DensityMatrix(m[k], (2, 2))
            assert np.array_equal(rho.spectrum.values, spectrum.values[k])
            assert np.array_equal(rho.spectrum.vectors, spectrum.vectors[k])

    def test_stacked_range_checks_reject_nan(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got nan"):
            werner_matrices([0.5, np.nan, 2.0])
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\], got 1.5"):
            gisin_matrices([0.0, 1.5, np.nan], 0.3)
        with pytest.raises(ValueError, match="got nan"):
            werner(float("nan"))

    def test_matrix_is_frozen(self, rng):
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestBellStates:
    def test_psi_minus_matrix(self):
        expected = 0.5 * np.array(
            [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]]
        )
        np.testing.assert_allclose(bell_state("psi-").matrix, expected, atol=1e-15)

    def test_phi_plus_matrix(self):
        expected = 0.5 * np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
        )
        np.testing.assert_allclose(bell_state("phi+").matrix, expected, atol=1e-15)

    @pytest.mark.parametrize("kind", ["psi+", "psi-", "phi+", "phi-"])
    def test_purity_one(self, kind):
        m = bell_state(kind).matrix
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bell_vector("psi")


class TestBlochForm:
    def test_zero_coefficients_give_tracial(self):
        rho = from_bloch(BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3))))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_singlet_coefficients(self):
        b = to_bloch(bell_state("psi-"))
        np.testing.assert_allclose(b.r, 0, atol=1e-14)
        np.testing.assert_allclose(b.u, 0, atol=1e-14)
        np.testing.assert_allclose(b.t, -np.eye(3), atol=1e-14)

    def test_up_down_coefficients(self):
        b = to_bloch(product_state(0, 1))
        np.testing.assert_allclose(b.r, [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(b.u, [0, 0, -1], atol=1e-14)
        np.testing.assert_allclose(b.t, np.diag([0, 0, -1]), atol=1e-14)

    def test_round_trip(self, rng):
        for _ in range(20):
            rho = random_density(rng, (2, 2))
            b = to_bloch(rho)
            np.testing.assert_allclose(from_bloch(b).matrix, rho.matrix, atol=1e-13)
            b2 = to_bloch(from_bloch(b))
            np.testing.assert_allclose(b2.r, b.r, atol=1e-13)
            np.testing.assert_allclose(b2.u, b.u, atol=1e-13)
            np.testing.assert_allclose(b2.t, b.t, atol=1e-13)

    def test_non_psd_coefficients_rejected_with_eigenvalue(self):
        with pytest.raises(StateValidationError, match="positive") as err:
            from_bloch(BlochForm(np.array([0, 0, 2.0]), np.zeros(3), np.zeros((3, 3))))
        assert err.value.value < -0.2

    def test_requires_two_qubit_split(self, rng):
        with pytest.raises(Exception):
            to_bloch(random_density(rng, (2, 3)))


class TestWeylBasis:
    def test_d2_matches_bell_vectors(self):
        pairs = {
            (0, 0): bell_vector("phi+"),
            (0, 1): bell_vector("phi-"),
            (1, 0): bell_vector("psi+"),
            (1, 1): bell_vector("psi-"),
        }
        for (k, l), bell in pairs.items():
            chi = weyl_basis_state(k, l, 2)
            overlap = abs(np.vdot(bell, chi))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormality_brute_force(self, d):
        for k1 in range(d):
            for l1 in range(d):
                for k2 in range(d):
                    for l2 in range(d):
                        ip = np.vdot(weyl_basis_state(k1, l1, d), weyl_basis_state(k2, l2, d))
                        expected = 1.0 if (k1, l1) == (k2, l2) else 0.0
                        assert ip == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_entangled_reduction(self, d):
        for k in range(d):
            for l in range(d):
                v = weyl_basis_state(k, l, d)
                red = partial_trace(np.outer(v, v.conj()), (d, d), keep="first")
                np.testing.assert_allclose(red, np.eye(d) / d, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            weyl_basis_state(2, 0, 2)

    @pytest.mark.parametrize("call, pair", [
        (lambda: weyl_basis_state(0.5, 0, 2), r"\(0\.5, 0\)"),
        (lambda: weyl_operator(1, 0.5, 2), r"\(1, 0\.5\)"),
        (lambda: weyl_operator(True, 0, 2), r"\(True, 0\)"),
        (lambda: weyl_operator([0, 1], [1.0, np.nan], 2), r"\(0, 1\.0\)"),
    ], ids=["weyl_basis_state", "weyl_operator", "bool", "float-array"])
    def test_non_integer_index_names_first_pair(self, call, pair):
        with pytest.raises(ValueError, match=rf"^indices \(k, l\) = {pair} must be integers$"):
            call()

    @pytest.mark.parametrize("call", [weyl_operator, weyl_basis_state], ids=["operator", "vector"])
    @pytest.mark.parametrize("d", [2.5, True, np.float64(3.0)], ids=["float", "bool", "np.float64"])
    def test_dimension_must_be_an_integer(self, call, d):
        with pytest.raises(ValueError, match=rf"^d must be an integer, got {re.escape(repr(d))}$"):
            call(0, 0, d)

    @pytest.mark.parametrize("call", [weyl_operator, weyl_basis_state], ids=["operator", "vector"])
    @pytest.mark.parametrize("d", [0, -2, np.int64(0)], ids=["0", "-2", "np.int64"])
    def test_dimension_must_be_positive(self, call, d):
        with pytest.raises(ValueError, match="^d must be positive$"):
            call(0, 0, d)

    def test_numpy_integer_dimension(self):
        np.testing.assert_array_equal(weyl_operator(1, 2, np.int64(3)), weyl_operator(1, 2, 3))
        np.testing.assert_array_equal(weyl_basis_state(1, 2, np.int64(3)), weyl_basis_state(1, 2, 3))

    def test_equals_sum_over_j_bitwise(self):
        # chi_kl = d^(-1/2) sum_j exp(2 pi i j l / d) |j> (x) |(j+k) mod d>, term by term
        for d in range(1, 13):
            for k in range(d):
                for l in range(d):
                    v = np.zeros(d * d, dtype=complex)
                    for j in range(d):
                        v[j * d + (j + k) % d] = np.exp(2j * np.pi * j * l / d)
                    chi = weyl_basis_state(k, l, d)
                    assert (chi == v / np.sqrt(d)).all()

    @pytest.mark.parametrize("d", [2, 3])
    def test_operator_vector_correspondence(self, d):
        # chi_kl = (1 (x) W_kl) chi_00
        for k in range(d):
            for l in range(d):
                lifted = np.kron(np.eye(d), weyl_operator(k, l, d)) @ weyl_basis_state(0, 0, d)
                np.testing.assert_allclose(lifted, weyl_basis_state(k, l, d), atol=1e-12)
                assert np.allclose(
                    weyl_operator(k, l, d) @ weyl_operator(k, l, d).conj().T, np.eye(d)
                )


class TestWerner:
    def test_limits(self):
        np.testing.assert_allclose(werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)
        np.testing.assert_allclose(werner(1.0).matrix, bell_state("psi-").matrix, atol=1e-15)

    def test_matrix_entries(self):
        alpha = 0.37
        m = werner(alpha).matrix
        assert m[0, 0] == pytest.approx((1 - alpha) / 4)
        assert m[1, 1] == pytest.approx((1 + alpha) / 4)
        assert m[1, 2] == pytest.approx(-2 * alpha / 4)
        assert m[3, 3] == pytest.approx((1 - alpha) / 4)

    def test_bloch_form(self):
        alpha = 0.37
        b = to_bloch(werner(alpha))
        np.testing.assert_allclose(b.r, 0, atol=1e-14)
        np.testing.assert_allclose(b.u, 0, atol=1e-14)
        np.testing.assert_allclose(b.t, -alpha * np.eye(3), atol=1e-14)

    def test_range_check(self):
        with pytest.raises(ValueError):
            werner(1.2)

    @given(alpha=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_always_valid(self, alpha):
        werner(alpha)

    def test_generalized_d3(self):
        rho = werner_generalized(0.5, 3)
        assert rho.split == (3, 3)
        chi = weyl_basis_state(0, 0, 3)
        expected = 0.5 * np.outer(chi, chi.conj()) + 0.5 / 9 * np.eye(9)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)

    def test_generalized_rejects_bad_projector(self):
        with pytest.raises(ValueError):
            werner_generalized(0.5, 2, projector=np.eye(4) / 2)
        # rank-1 but not maximally entangled
        p = np.zeros((4, 4), dtype=complex)
        p[0, 0] = 1.0
        with pytest.raises(ValueError):
            werner_generalized(0.5, 2, projector=p)


class TestGisin:
    def test_lambda_one_is_rho_theta(self):
        np.testing.assert_allclose(gisin(1.0, 0.6).matrix, rho_theta(0.6).matrix, atol=1e-15)

    def test_lambda_zero_is_classical_mixture(self):
        expected = 0.5 * (product_state(0, 0).matrix + product_state(1, 1).matrix)
        np.testing.assert_allclose(gisin(0.0, 0.6).matrix, expected, atol=1e-15)

    def test_bloch_t_matrix(self):
        lam, theta = 0.7, 0.5
        b = to_bloch(gisin(lam, theta))
        s = np.sin(2 * theta)
        np.testing.assert_allclose(
            b.t, np.diag([-lam * s, -lam * s, 1 - 2 * lam]), atol=1e-14
        )

    @given(lam=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_balanced_angle_has_no_local_vectors(self, lam):
        b = to_bloch(gisin(lam, np.pi / 4))
        np.testing.assert_allclose(b.r, 0, atol=1e-12)
        np.testing.assert_allclose(b.u, 0, atol=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            gisin(-0.1, 0.4)


class TestNamedStates:
    @pytest.mark.parametrize("a, b", [(0.0, 1), (True, 0), (0, False), (1, 1.0), (2, 0), (0, -1)])
    def test_product_state_takes_only_the_integers_0_and_1(self, a, b):
        with pytest.raises(ValueError, match=r"^product_state expects qubit labels 0 \(up\) or 1 \(down\)$"):
            product_state(a, b)

    def test_product_state_takes_numpy_integers(self):
        assert (product_state(np.int64(1), np.uint8(0)).matrix == product_state(1, 0).matrix).all()

    def test_rho_theta_matrix(self):
        theta = 0.8
        m = rho_theta(theta).matrix
        s2 = np.sin(2 * theta)
        expected = np.array(
            [
                [0, 0, 0, 0],
                [0, np.sin(theta) ** 2, -s2 / 2, 0],
                [0, -s2 / 2, np.cos(theta) ** 2, 0],
                [0, 0, 0, 0],
            ]
        )
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_psi_theta_right_angle_is_singlet_family(self):
        np.testing.assert_allclose(
            psi_theta(np.pi / 4), np.array([0, 1, -1, 0]) / np.sqrt(2), atol=1e-15
        )

    def test_ghz_traced_balanced(self):
        np.testing.assert_allclose(
            ghz_traced(np.pi / 4).matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-15
        )

    @given(theta=angles)
    @settings(max_examples=40, deadline=None)
    def test_ghz_traced_diagonal_hence_ppt(self, theta):
        rho = ghz_traced(theta)
        off_diag = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.max(np.abs(off_diag)) == 0.0
        assert ppt_check(rho).classification == "PPT"

    def test_ghz_vector(self):
        v = ghz_vector(0.3)
        assert v[0] == pytest.approx(np.sin(0.3))
        assert v[7] == pytest.approx(np.cos(0.3))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_narnhofer_matrix(self):
        expected = 0.25 * np.array(
            [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
        )
        np.testing.assert_allclose(narnhofer().matrix, expected, atol=1e-15)
        half_sum = 0.5 * (bell_state("psi+").matrix + bell_state("phi+").matrix)
        np.testing.assert_allclose(narnhofer().matrix, half_sum, atol=1e-15)

    def test_narnhofer_purity_and_bloch(self):
        m = narnhofer().matrix
        assert np.trace(m @ m).real == pytest.approx(0.5, abs=1e-14)
        b = to_bloch(narnhofer())
        np.testing.assert_allclose(b.t, np.diag([1.0, 0, 0]), atol=1e-14)

    def test_tracial(self):
        assert tracial(4).split == (2, 2)
        assert tracial(6, split=(2, 3)).dim == 6
        with pytest.raises(ValueError):
            tracial(6)


class TestStateSerialization:
    def test_round_trip(self, rng):
        rho = random_density(rng, (2, 3))
        again = state_from_dict(state_to_dict(rho))
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)
        assert again.split == rho.split

    def test_missing_field(self):
        with pytest.raises(KeyError):
            state_from_dict({"split": [2, 2], "re": [[1.0]]})

    @pytest.mark.parametrize("split", ["22", [2], [2, 2, 1], [2.0, 2.0], [True, 2], 4, None])
    def test_malformed_split_is_a_type_error(self, split):
        with pytest.raises(TypeError, match="split"):
            state_from_dict({"split": split, "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()})

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            state_from_dict({"split": [1, 2], "re": [[1, 0], [0, 0]], "im": [[0, 0]]})

    def test_invalid_matrix_fails_validation(self, rng):
        data = state_to_dict(random_density(rng, (2, 2)))
        data["re"][0][0] += 0.5
        with pytest.raises(StateValidationError):
            state_from_dict(data)
