"""Law 2 of ``protocols``: a vector whose isometry M is unitary is maximally
entangled, since max_k |s_k - 1/sqrt(d)| <= sqrt(d) * max|M M^dagger - 1|.
So unitarity of M within UNITARY_TOL is the one test, and ``isometry_of_maxent``
raises or returns exactly as the SVD check at MAXENT_TOL it replaced did."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import Isometry, isometry_of_maxent, protocols
from factorlab.linalg import MAXENT_TOL, UNITARY_TOL, ZERO_FLOOR, unitary_deviation
from factorlab.states import maxent_vectors, schmidt_flatness, weyl_indices
from conftest import haar_unitary

NOISY = dict(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), log_eps=st.floats(-14.0, 0.0),
             log_norm=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))


def svd_isometry_of_maxent(v, d):
    """``isometry_of_maxent`` as it was: the SVD decides flatness at MAXENT_TOL,
    then ``Isometry`` checks unitarity."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not (np.isfinite(v).all() and schmidt_flatness(v, d) <= MAXENT_TOL):
        raise ValueError("input vector is not maximally entangled")
    return Isometry(np.sqrt(d) * v.reshape(d, d).T, d)


def outcome(isometry_of, v, d):
    """("map", its bytes) or "raised" for a ValueError."""
    try:
        return "map", isometry_of(v, d).map.tobytes()
    except ValueError:
        return "raised"


def deviation(v, d):
    """max|M M^dagger - 1| of the vector's isometry M."""
    return float(unitary_deviation(np.sqrt(d) * v.reshape(d, d).T))


def assert_bound(v, d):
    """The flatness is within the bound, widened by its rounding, and a vector
    unitary within UNITARY_TOL passed the former MAXENT_TOL."""
    dev, flatness = deviation(v, d), float(schmidt_flatness(v, d))
    assert flatness <= np.sqrt(d) * (dev + ZERO_FLOOR * d * (1 + dev))
    assert dev > UNITARY_TOL or flatness <= MAXENT_TOL
    return dev, flatness


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


@given(**NOISY)
@settings(max_examples=400, deadline=None)
def test_bound_decides_as_the_svd(seed, d, log_eps, log_norm):
    assert_bound(noisy_maxent(seed, d, 10.0 ** log_eps, 10.0 ** log_norm), d)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
@settings(max_examples=300, deadline=None)
def test_bound_decides_as_the_svd_where_it_is_tight(seed, d):
    v = tight_maxent(seed, d)
    dev, flatness = assert_bound(v, d)
    assert flatness == pytest.approx(np.sqrt(d) * dev, rel=1e-12)
    assert outcome(isometry_of_maxent, v, d) == outcome(svd_isometry_of_maxent, v, d) == "raised"


@given(**NOISY)
@settings(max_examples=400, deadline=None)
def test_isometry_of_maxent_accepts_as_the_former_svd_check(seed, d, log_eps, log_norm):
    v = noisy_maxent(seed, d, 10.0 ** log_eps, 10.0 ** log_norm)
    assert outcome(isometry_of_maxent, v, d) == outcome(svd_isometry_of_maxent, v, d)


@pytest.mark.parametrize("d", range(2, 9))
def test_swap_of_flat_branches_runs_no_svd(monkeypatch, rng, d):
    i12, i34 = (Isometry(haar_unitary(rng, d), d) for _ in range(2))
    shapes, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    protocols.swap_stack(*weyl_indices(d), i12, i34)
    assert shapes == []


def test_the_first_failure_is_named(rng):
    d = 3
    flat = haar_unitary(rng, d).T.ravel() / np.sqrt(d)
    skewed = flat * np.where(np.arange(d * d) < d, 1.5, 1.0)
    stack = np.stack([flat, flat * (1.0 + 1e-12), skewed, flat, skewed])
    with pytest.raises(ValueError, match=r"^c: input vector is not maximally entangled$"):
        protocols._isometry_maps(stack, d, ["a: ", "b: ", "c: ", "d: ", "e: "])
