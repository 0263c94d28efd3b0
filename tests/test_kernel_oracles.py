"""The kernels against the dense or separate computations they replace.

``states.bloch_coefficients`` reads each Pauli trace as a signed sum of four
entries of m, and ``measures.concurrences`` reads (s_y(x)s_y) B as a signed
gather of the rows of B (``_YY_PERM``, ``_YY_SIGN``).  ``concurrences`` builds
B = V diag(sqrt(w)) from the eigendecomposition that ``states.validate_stack``
returns, not from an ``eigh`` of its own.  Each must equal the form written
out below bit for bit, signed zeros included (the gather up to the sign of a
zero, which a dense product with zero entries does not keep), on stacks of 1,
7 and 101 matrices of several kinds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import from_bloch, to_bloch
from factorlab.measures import _YY_PERM, _YY_SIGN, concurrences
from factorlab.states import (
    PAULI,
    PAULI_PRODUCTS,
    DensityMatrix,
    bloch_coefficients,
    validate_stack,
)
from conftest import ginibre_density, haar_vector

YY = np.kron(PAULI[1], PAULI[1])


def dense_bloch_coefficients(m):
    c = np.trace(m[..., None, :, :] @ PAULI_PRODUCTS, axis1=-2, axis2=-1).real
    return c.reshape(m.shape[:-2] + (4, 4))


def separate_concurrences(m):
    """The concurrence from an ``eigh`` of m of its own, eigenvalues descending,
    and the dense product (s_y(x)s_y) B."""
    w, v = np.linalg.eigh(m)
    b = v[..., ::-1] * np.sqrt(w[..., ::-1].clip(0.0))[..., None, :]
    tau = np.swapaxes(b, -1, -2) @ (YY @ b)
    lam = np.linalg.svd(tau, compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    c = np.where(c > 0.0, c, 0.0)
    return np.where(c < 1.0, c, 1.0)


def mixed(rng, n):
    return np.array([ginibre_density(rng, 4) for _ in range(n)])


def pure(rng, n):
    v = np.array([haar_vector(rng, 4) for _ in range(n)])
    return v[:, :, None] * v[:, None, :].conj()


def real_valued(rng, n):
    return mixed(rng, n).real + 0j


def _complex(parts):
    """Complex stack whose real and imaginary parts are parts[..., 0], parts[..., 1]."""
    return np.ascontiguousarray(parts).view(complex)[..., 0]


def zero_heavy(rng, n):
    """Mostly exact zeros of either sign, real and imaginary parts zeroed apart."""
    parts = rng.normal(size=(n, 4, 4, 2))
    parts[rng.random(parts.shape) < 0.7] = 0.0
    return _complex(parts * rng.choice([-1.0, 1.0], size=parts.shape))


def signed_zeros(rng, n):
    """Real and imaginary parts drawn from {-1, -0.0, 0.0, 1}: every sign
    pattern of a zero part next to a nonzero one."""
    return _complex(np.array([-1.0, -0.0, 0.0, 1.0])[rng.integers(4, size=(n, 4, 4, 2))])


KINDS = [mixed, pure, real_valued, zero_heavy, signed_zeros]


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [1, 7, 101])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_bloch_coefficients_equal_dense_traces(kind, n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        m = kind(rng, n)
        assert_bitwise_equal(bloch_coefficients(m), dense_bloch_coefficients(m))
        assert_bitwise_equal(bloch_coefficients(m[0]), dense_bloch_coefficients(m[0]))


@pytest.mark.parametrize("n", [1, 7, 101])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_spin_flip_equals_dense_product(kind, n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        b = kind(rng, n)
        for stack in (b, b[0]):
            # (s_y(x)s_y) B as ``concurrences`` gathers it; + 0.0 turns an
            # exact -0.0 into +0.0 on both sides
            got = stack[..., _YY_PERM, :] * _YY_SIGN[:, None] + 0.0
            want = YY @ stack + 0.0
            assert_bitwise_equal(got.real, want.real)
            assert_bitwise_equal(got.imag, want.imag)


@pytest.mark.parametrize("n", [1, 7, 101])
@pytest.mark.parametrize("kind", [mixed, pure, real_valued], ids=lambda k: k.__name__)
def test_concurrence_reads_the_validated_decomposition(kind, n):
    rng = np.random.default_rng(2000 + n)
    for tol in (1e-9, 1e-12):
        m = kind(rng, n)
        for stack in (m, m[0]):
            got = concurrences(validate_stack(stack, tol), tol)
            assert_bitwise_equal(got, separate_concurrences(stack))
        # a state's spectrum is a read-only copy of the same descending views
        rho = DensityMatrix(m[-1], (2, 2), tol)
        got = concurrences(rho.spectrum, tol)
        assert_bitwise_equal(got, separate_concurrences(m[-1]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([mixed, pure, real_valued]))
def test_bloch_round_trip(seed, kind):
    rho = DensityMatrix(kind(np.random.default_rng(seed), 1)[0], (2, 2))
    back = from_bloch(to_bloch(rho))
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-13)
