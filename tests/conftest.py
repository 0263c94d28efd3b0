import numpy as np
import pytest

from factorlab import DensityMatrix


def haar_vector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def schmidt_flatness(v, d):
    """Independent oracle: max_k |s_k - 1/sqrt(d)| over the Schmidt coefficients s_k
    of a d*d vector, or of each vector of a (..., d*d) stack, from one SVD; 0 if
    maximally entangled."""
    s = np.linalg.svd(v.reshape(v.shape[:-1] + (d, d)), compute_uv=False)
    return np.abs(s - 1.0 / np.sqrt(d)).max(axis=-1)


def ginibre_density(rng, d, rank=None):
    """Random density matrix from a Ginibre factor G G^dag / Tr."""
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_density(rng, split, rank=None):
    d1, d2 = split
    return DensityMatrix(ginibre_density(rng, d1 * d2, rank), split)


def solver_calls(monkeypatch, names):
    """A dict that counts the calls of each numpy.linalg solver in ``names``."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(np.linalg, name)

        def solve(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return solve

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def pure_concurrence(v):
    """Independent oracle: concurrence of a pure two-qubit vector (a,b,c,d)
    is 2 |ad - bc|."""
    return 2.0 * abs(v[0] * v[3] - v[1] * v[2])


def xstate_concurrence(m):
    """Independent oracle for X-shaped two-qubit matrices:
    C = 2 max(0, |m12| - sqrt(m00 m33), |m03| - sqrt(m11 m22))."""
    inner = abs(m[1, 2]) - np.sqrt(max(m[0, 0].real * m[3, 3].real, 0.0))
    outer = abs(m[0, 3]) - np.sqrt(max(m[1, 1].real * m[2, 2].real, 0.0))
    return 2.0 * max(0.0, inner, outer)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
