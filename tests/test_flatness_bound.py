"""The flatness check of ``protocols._isometry_maps``: the bound
max_k |s_k - 1/sqrt(d)| <= sqrt(d) * max|M M^dagger - 1| settles a vector
only where the SVD (``schmidt_flatness(v, d) <= tol``) decides the same, and
``isometry_of_maxent`` raises or returns exactly as the SVD-only check did."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import Isometry, isometry_of_maxent, protocols
from factorlab.linalg import FLATNESS_TOL, MAXENT_TOL
from factorlab.states import maxent_vectors, schmidt_flatness, weyl_indices
from conftest import haar_unitary

TOLS = [0.0, 1e-15, 1e-13, MAXENT_TOL, FLATNESS_TOL, 1e-2, 10.0]


def flat_by_isometry_maps(v, d, tol):
    try:
        protocols._isometry_maps(v, d, tol, [""])
    except ValueError as exc:
        assert str(exc) == "input vector is not maximally entangled"
        return False
    return True


def svd_only_isometry_of_maxent(v, d, tol):
    """``isometry_of_maxent`` as it was before the bound: the SVD alone decides."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not (np.isfinite(v).all() and schmidt_flatness(v, d) <= tol):
        raise ValueError("input vector is not maximally entangled")
    return Isometry(np.sqrt(d) * v.reshape(d, d).T, d)


def outcome(isometry_of, v, d, tol):
    """("map", its bytes) or ("raised", the exception's type and message)."""
    try:
        return "map", isometry_of(v, d, tol).map.tobytes()
    except ValueError as exc:
        return "raised", type(exc), str(exc)


def noisy_maxent(seed, d, eps, norm):
    """A Haar unitary's maximally entangled vector plus eps times unit noise,
    rescaled to the given norm."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    v = haar_unitary(rng, d).T.ravel() / np.sqrt(d) + eps * noise / np.linalg.norm(noise)
    return v * (norm / np.linalg.norm(v))


def tight_maxent(seed, d):
    """The vector of M = (1 - |f><f|) U, f with entries of modulus 1/sqrt(d).
    M M^dagger - 1 = -|f><f| has every entry of modulus 1/d and spectral norm 1;
    one Schmidt coefficient is 0 and the others 1/sqrt(d), so the bound
    sqrt(d) * (1/d) equals the flatness 1/sqrt(d)."""
    rng = np.random.default_rng(seed)
    f = np.exp(2j * np.pi * rng.random(d)) / np.sqrt(d)
    return maxent_vectors((np.eye(d) - np.outer(f, f.conj())) @ haar_unitary(rng, d))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8),
       log_eps=st.floats(-14.0, 0.0), log_norm=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       tol=st.sampled_from(TOLS))
@settings(max_examples=400, deadline=None)
def test_bound_decides_as_the_svd(seed, d, log_eps, log_norm, tol):
    v = noisy_maxent(seed, d, 10.0 ** log_eps, 10.0 ** log_norm)
    assert flat_by_isometry_maps(v, d, tol) == bool(schmidt_flatness(v, d) <= tol)
    assert outcome(isometry_of_maxent, v, d, tol) == outcome(svd_only_isometry_of_maxent, v, d, tol)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), step=st.sampled_from([-1, 0, 1]))
@settings(max_examples=300, deadline=None)
def test_bound_decides_as_the_svd_where_it_is_tight(seed, d, step):
    # tol one ulp below, at and one ulp above the SVD's own flatness
    v = tight_maxent(seed, d)
    flatness = float(schmidt_flatness(v, d))
    tol = np.nextafter(flatness, flatness + step) if step else flatness
    assert flat_by_isometry_maps(v, d, tol) == (step >= 0)


def counting_svd(monkeypatch):
    """Record the stack shape of every ``schmidt_flatness`` call in protocols."""
    shapes = []

    def counted(v, d):
        shapes.append(v.shape)
        return schmidt_flatness(v, d)

    monkeypatch.setattr(protocols, "schmidt_flatness", counted)
    return shapes


@pytest.mark.parametrize("d", range(2, 9))
def test_swap_of_flat_branches_runs_no_svd(monkeypatch, rng, d):
    shapes = counting_svd(monkeypatch)
    i12, i34 = (Isometry(haar_unitary(rng, d), d) for _ in range(2))
    protocols.swap_stack(*weyl_indices(d), i12, i34)
    assert shapes == []


def test_svd_runs_on_the_open_rows_only_and_the_first_failure_is_named(monkeypatch, rng):
    shapes = counting_svd(monkeypatch)
    d = 3
    flat = haar_unitary(rng, d).T.ravel() / np.sqrt(d)
    # flatness 5e-9 / sqrt(3) passes MAXENT_TOL, the bound sqrt(3) * 1e-8 leaves it open
    slightly_off = flat * (1.0 + 5e-9)
    skewed = flat * np.where(np.arange(d * d) < d, 1.5, 1.0)
    stack = np.stack([flat, slightly_off, skewed, flat, skewed])
    with pytest.raises(ValueError, match=r"^c: input vector is not maximally entangled$"):
        protocols._isometry_maps(stack, d, MAXENT_TOL, ["a: ", "b: ", "c: ", "d: ", "e: "])
    assert shapes == [(3, d * d)]
