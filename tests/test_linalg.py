import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import (
    DimensionMismatchError,
    bell_state,
    bell_vector,
    extend_to_unitary,
    align_global_phase,
    herm_eigensystem,
    hs_inner,
    hs_norm,
    is_hermitian,
    is_psd,
    is_unitary,
    partial_trace,
    partial_transpose,
    product_state,
    psd_sqrt,
    pure_to_product,
    psi_theta,
    schmidt_decompose,
    tracial,
    werner,
)
from conftest import ginibre_density, haar_unitary, haar_vector, random_density


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


class TestPredicates:
    def test_hermitian(self, rng):
        assert is_hermitian(random_hermitian(rng, 5))
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unitary(self, rng):
        assert is_unitary(haar_unitary(rng, 4))
        assert not is_unitary(2 * np.eye(3))

    def test_psd(self, rng):
        assert is_psd(ginibre_density(rng, 4))
        assert not is_psd(np.diag([1.0, -0.5]))
        # Hermiticity is part of the definition
        assert not is_psd(np.array([[1, 1], [0, 1]], dtype=complex))


class TestHsInner:
    def test_tracial_self_overlap(self):
        assert hs_inner(np.eye(4) / 4, np.eye(4) / 4) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_inner(np.eye(2), np.eye(3))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_symmetric_and_linear(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z = complex(rng.normal(), rng.normal())
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)), abs=1e-12)
        assert hs_inner(a, z * b + c) == pytest.approx(
            z * hs_inner(a, b) + hs_inner(a, c), abs=1e-12
        )

    def test_norm_is_frobenius(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert hs_norm(a) == pytest.approx(np.linalg.norm(a), abs=1e-12)


class TestPartialTranspose:
    @given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["first", "second"]))
    @settings(max_examples=30, deadline=None)
    def test_involution(self, seed, side):
        rng = np.random.default_rng(seed)
        m = ginibre_density(rng, 6)
        pt = partial_transpose(m, (2, 3), side=side)
        np.testing.assert_allclose(partial_transpose(pt, (2, 3), side=side), m, atol=1e-14)

    def test_diagonal_product_state_fixed(self):
        m = product_state(0, 1).matrix
        np.testing.assert_allclose(partial_transpose(m, (2, 2)), m, atol=1e-15)

    def test_singlet_pt_minimum(self):
        # Direct eigensolve of the partially transposed Bell projector:
        # spectrum {1/2, 1/2, 1/2, -1/2}.
        pt = partial_transpose(bell_state("psi-").matrix, (2, 2))
        w = np.linalg.eigvalsh(pt)
        assert w.min() == pytest.approx(-0.5, abs=1e-12)

    def test_transpose_of_first_equals_full_transpose_of_second(self, rng):
        m = ginibre_density(rng, 4)
        first = partial_transpose(m, (2, 2), side="first")
        second = partial_transpose(m, (2, 2), side="second")
        np.testing.assert_allclose(first, second.T, atol=1e-14)

    def test_bad_split(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(6), (2, 2))


class TestPartialTrace:
    def test_singlet_reduces_to_maximally_mixed(self):
        red = partial_trace(bell_state("psi-").matrix, (2, 2), keep="first")
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-14)

    def test_product_state_reduces_to_factor(self):
        red = partial_trace(product_state(0, 1).matrix, (2, 2), keep="first")
        np.testing.assert_allclose(red, np.diag([1.0, 0.0]), atol=1e-15)

    def test_ghz_traced_pattern(self):
        theta = 0.7
        v = np.zeros(8, dtype=complex)
        v[0], v[7] = np.sin(theta), np.cos(theta)
        m = np.outer(v, v.conj())
        red = partial_trace(partial_trace(m, (4, 2), keep="first"), (2, 2), keep="first")
        np.testing.assert_allclose(
            red, np.diag([np.sin(theta) ** 2, np.cos(theta) ** 2]), atol=1e-14
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_trace_of_kron_factors(self, seed):
        rng = np.random.default_rng(seed)
        a, b = ginibre_density(rng, 2), ginibre_density(rng, 3)
        m = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(m, (2, 3), keep="first"), a, atol=1e-13)
        np.testing.assert_allclose(partial_trace(m, (2, 3), keep="second"), b, atol=1e-13)

    def test_trace_preserved(self, rng):
        m = ginibre_density(rng, 6)
        red = partial_trace(m, (3, 2), keep="second")
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-13)


class TestEigensystem:
    def test_sigma_z(self):
        spec = herm_eigensystem(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(spec.values, [1.0, -1.0])

    def test_werner_spectrum(self):
        alpha = 0.6
        spec = herm_eigensystem(werner(alpha).matrix)
        expected = [(1 + 3 * alpha) / 4] + [(1 - alpha) / 4] * 3
        np.testing.assert_allclose(spec.values, expected, atol=1e-12)

    def test_tracial_spectrum(self):
        spec = herm_eigensystem(np.eye(4, dtype=complex) / 4)
        np.testing.assert_allclose(spec.values, [0.25] * 4)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_trace_and_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, 6)
        spec = herm_eigensystem(m)
        assert spec.values.sum() == pytest.approx(np.trace(m).real, abs=1e-10)
        rebuilt = (spec.vectors * spec.values) @ spec.vectors.conj().T
        assert hs_norm(rebuilt - m) <= 1e-10 * m.shape[0] * max(1.0, hs_norm(m))
        gram = spec.vectors.conj().T @ spec.vectors
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)

    def test_descending_order(self, rng):
        spec = herm_eigensystem(random_hermitian(rng, 8))
        assert np.all(np.diff(spec.values) <= 1e-14)

    def test_equals_the_state_spectrum_bit_for_bit(self, rng):
        # the same reversed eigh as validation, also on degenerate spectra
        states = [random_density(rng, (d1, d2)) for d1 in range(1, 9) for d2 in range(1, 9)]
        for rho in [*states, tracial(4), tracial(36), werner(0.0)]:
            spec = herm_eigensystem(rho.matrix)
            for got, want in ((spec.values, rho.spectrum.values),
                              (spec.vectors, rho.spectrum.vectors)):
                got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPsdSqrt:
    def test_projector_is_own_root(self):
        p = bell_state("phi+").matrix
        np.testing.assert_allclose(psd_sqrt(p), p, atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex)),
            np.diag([2.0, 1.0, 0.0, 0.0]),
            atol=1e-12,
        )

    def test_square_recovers_input(self, rng):
        m = ginibre_density(rng, 5)
        s = psd_sqrt(m)
        assert hs_norm(s @ s - m) <= 1e-9
        assert is_psd(s, 1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.1]).astype(complex))


class TestSchmidt:
    def test_product_vector(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0  # |0>|1>
        sd = schmidt_decompose(v, (2, 2))
        np.testing.assert_allclose(sd.coefficients, [1.0, 0.0], atol=1e-14)

    def test_singlet(self):
        sd = schmidt_decompose(bell_vector("psi-"), (2, 2))
        np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-14)

    def test_psi_theta(self):
        theta = 0.6
        sd = schmidt_decompose(psi_theta(theta), (2, 2))
        expected = sorted([abs(np.sin(theta)), abs(np.cos(theta))], reverse=True)
        np.testing.assert_allclose(sd.coefficients, expected, atol=1e-14)

    def test_reconstruction(self, rng):
        v = haar_vector(rng, 12)
        sd = schmidt_decompose(v, (3, 4))
        assert np.linalg.norm(sd.reconstruct() - v) <= 1e-9
        assert (sd.coefficients**2).sum() == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        v = haar_vector(rng, 6)
        u1, u2 = haar_unitary(rng, 2), haar_unitary(rng, 3)
        before = schmidt_decompose(v, (2, 3)).coefficients
        after = schmidt_decompose(np.kron(u1, u2) @ v, (2, 3)).coefficients
        np.testing.assert_allclose(before, after, atol=1e-9)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.ones(4), (2, 2))


class TestCompletionHelpers:
    def test_extend_to_unitary_keeps_columns(self, rng):
        v = haar_vector(rng, 5)
        u = extend_to_unitary(v)
        assert is_unitary(u, 1e-12)
        np.testing.assert_allclose(u[:, 0], v, atol=1e-12)

    def test_extend_multiple_columns(self, rng):
        q = haar_unitary(rng, 6)[:, :3]
        u = extend_to_unitary(q)
        assert is_unitary(u, 1e-12)
        np.testing.assert_allclose(u[:, :3], q, atol=1e-12)

    @pytest.mark.parametrize("columns, message", [
        (np.eye(2, 3), r"extend_to_unitary: 3 columns exceed the dimension 2"),
        (np.zeros((3, 1)), "extend_to_unitary requires orthonormal columns"),
        (np.array([[1.0], [np.nan]]), r"extend_to_unitary: input entry \(1, 0\) is \(nan\+0j\)"),
        (np.array([[1.0, 1.0], [0.0, 0.0]]), "extend_to_unitary requires orthonormal columns"),
        (np.array([1.0, 1.0]), "extend_to_unitary requires orthonormal columns"),
    ], ids=["too-many-columns", "zero-column", "nan-column", "equal-columns", "not-unit"])
    def test_extend_to_unitary_rejects_columns_that_are_not_orthonormal(self, columns, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                extend_to_unitary(columns)

    @pytest.mark.parametrize("excess", [-0.9e-9, 0.9e-9])
    def test_extend_to_unitary_accepts_what_schmidt_decompose_accepts(self, rng, excess):
        # a norm within 1e-9 of 1 has a squared norm up to 1.8e-9 away from 1
        v = haar_vector(rng, 4) * (1.0 + excess)
        schmidt_decompose(v, (2, 2))
        np.testing.assert_allclose(extend_to_unitary(v)[:, 0], v / np.linalg.norm(v), atol=1e-12)
        switched = pure_to_product(v, (2, 2)).unitary @ v
        assert abs(switched[0]) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_align_global_phase(self):
        v = np.array([0.3j, -0.9, 0.1 + 0.1j])
        w = align_global_phase(v)
        assert w[1].real > 0 and abs(w[1].imag) < 1e-15
        np.testing.assert_allclose(np.abs(w), np.abs(v), atol=1e-15)
        # idempotent and phase-invariant
        np.testing.assert_allclose(align_global_phase(np.exp(0.7j) * v), w, atol=1e-14)
