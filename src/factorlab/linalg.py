"""Dense complex linear algebra sized for small Hilbert spaces (dim <= ~64).

All operators are plain square ``numpy`` arrays of complex dtype; vectors are
1-D arrays.  The partial trace/transpose, ``psd_sqrt`` and the Hermitian and
unitary deviations also take an (N, D, D) stack and treat each matrix on its own;
``require`` reports the first matrix of a stack that fails a check.  Every fixed
tolerance is one of the constants below, every check states the condition that
passes (``dev <= tol``, so NaN fails), and every predicate is pure and takes its
tolerance explicitly (default ``DEFAULT_TOL``).  Every validated dataclass holds
each array it checked through ``hold``: a read-only copy, never the caller's array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9  # validation: Hermiticity, unit trace, positivity, the PPT verdict (--tol)
UNITARY_TOL = 1e-10  # switches, isometries, gisin_unitary_family, protocol probabilities 1/d^2
NORM_TOL = 1e-9  # unit norms, protocol fidelities and composition laws, abs_sep_2x2's unit sum
MAXENT_TOL = 1e-8  # how far a maximally entangled projector may be from exact
FLATNESS_TOL = 1e-6  # maxent_weight: the top eigenvalue's lead, the unitarity of its eigenvector's map
SLACK = 1e-12  # smallest filtered trace, the schmidt_decompose norm floor, edge slacks
ZERO_FLOOR = 1e-14  # rounding noise; D * ZERO_FLOOR: the entropy cutoff, a carried spectrum's error


class DimensionMismatchError(ValueError):
    """Operands act on Hilbert spaces of incompatible dimension."""


def _is_integer(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _factors(split, dim: int) -> bool:
    """True when split[0] and split[1] are positive integers whose product is dim."""
    d1, d2 = split[0], split[1]
    return _is_integer(d1) and _is_integer(d2) and d1 >= 1 and d2 >= 1 and d1 * d2 == dim


def _as_square(m: np.ndarray, stack: bool = False) -> np.ndarray:
    """m as a complex square matrix; with ``stack``, an (N, D, D) stack of them is accepted too."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def hold(obj, name: str, dtype=complex, shape=None) -> np.ndarray:
    """Set field ``name`` of frozen dataclass obj to a read-only copy of its value, as dtype
    (None keeps the value's) and reshaped to shape if given, and return that copy."""
    a = np.array(getattr(obj, name), dtype=dtype)
    if shape is not None:
        a = a.reshape(shape)
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


def _prechecked(cls, **fields):
    """Frozen dataclass cls of fields whose checks have passed: no ``__post_init__``, arrays held."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    for name in [k for k, v in fields.items() if isinstance(v, np.ndarray)]:
        hold(obj, name)
    return obj


def require(ok: np.ndarray, error) -> None:
    """Raise ``error(k)`` for the first k, in flattened order, where ``ok[k]`` is false.

    Per-matrix checks on a stack go through here, so a batch of one fails with
    the same message as a single matrix.  The raised exception carries k as
    ``index``, so a caller that knows what each matrix stands for (a sweep's
    grid value) can name it.
    """
    ok = np.asarray(ok)
    if not ok.all():
        k = int(np.flatnonzero(np.logical_not(ok.ravel()))[0])
        exc = error(k)
        exc.index = k
        raise exc


def require_finite(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first non-finite entry of a, as
    ``{what} entry (i, j) is nan`` (``entry i`` for a vector)."""
    finite = np.isfinite(a)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0].tolist())
        raise ValueError(f"{what} entry {at[0] if len(at) == 1 else at} is {a[at]}")


def hermitian_deviation(m: np.ndarray) -> np.ndarray:
    """max |m - m^dagger| of each matrix of a stack (a 0-d array for one matrix)."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def require_hermitian(m: np.ndarray, tol: float, caller: str) -> None:
    """Raise ValueError naming ``caller`` unless each matrix is Hermitian within tol."""
    require(hermitian_deviation(m) <= tol,
            lambda k: ValueError(f"{caller} requires a Hermitian matrix"))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(hermitian_deviation(_as_square(m)) <= tol)


def unitary_deviation(m: np.ndarray) -> np.ndarray:
    """max |m m^dagger - 1| of each matrix of a stack (a 0-d array for one matrix)."""
    d = m.shape[-1]
    g = m @ m.conj().swapaxes(-1, -2)
    # matmul's result is C-contiguous, so this reshape is a view: 1 off each diagonal entry
    g.reshape(g.shape[:-2] + (d * d,))[..., ::d + 1] -= 1
    return np.abs(g).max(axis=(-2, -1))


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(unitary_deviation(_as_square(m)) <= tol)


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = _as_square(m)
    if not is_hermitian(m, tol):
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    a, b = _as_square(a), _as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.trace(a.conj().T @ b))


def hs_norm(a: np.ndarray) -> float:
    """Frobenius norm sqrt(Tr a^dagger a)."""
    return float(np.sqrt(hs_inner(a, a).real))


def _check_split(m: np.ndarray, split: tuple[int, int]) -> tuple[int, int]:
    if not _factors(split, m.shape[-1]):
        raise DimensionMismatchError(
            f"split {split} inconsistent with matrix dimension {m.shape[-1]}"
        )
    return int(split[0]), int(split[1])


def partial_transpose(
    m: np.ndarray, split: tuple[int, int], side: str = "second"
) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator (or of each operator
    of an (N, D, D) stack).

    ``side`` selects the factor ("first" or "second").  The map is involutive
    and basis-dependent; indices follow the row-major product ordering.
    """
    m = _as_square(m, stack=True)
    d1, d2 = _check_split(m, split)
    lead = m.shape[:-2]
    n = len(lead)
    if side == "first":
        axes = (n + 2, n + 1, n, n + 3)
    elif side == "second":
        axes = (n, n + 3, n + 2, n + 1)
    else:
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    r = m.reshape(lead + (d1, d2, d1, d2)).transpose(tuple(range(n)) + axes)
    return r.reshape(lead + (d1 * d2, d1 * d2))


def partial_trace(
    m: np.ndarray, split: tuple[int, int], keep: str = "first"
) -> np.ndarray:
    """Trace out one tensor factor, returning the reduced operator of ``keep``
    (of each operator, for an (N, D, D) stack)."""
    m = _as_square(m, stack=True)
    d1, d2 = _check_split(m, split)
    r = m.reshape(m.shape[:-2] + (d1, d2, d1, d2))
    if keep == "first":
        return np.einsum("...ijkj->...ik", r)
    if keep == "second":
        return np.einsum("...ijil->...jl", r)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted descending with matching orthonormal eigenvectors.

    ``vectors[..., :, k]`` is the eigenvector for ``values[..., k]``, of one matrix
    or each of a stack.  Within a degenerate cluster their order is unspecified.
    Both are held as read-only copies.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        hold(self, "values", float)
        hold(self, "vectors")


def herm_eigensystem(m: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Full eigensystem of a Hermitian matrix, eigenvalues descending."""
    m = _as_square(m)
    require_hermitian(m, tol, "herm_eigensystem")
    w, v = np.linalg.eigh(m)
    return Spectrum(values=w[::-1], vectors=v[:, ::-1])


def psd_sqrt(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive-semidefinite square root of a PSD matrix (or of each matrix of
    an (N, D, D) stack)."""
    m = _as_square(m, stack=True)
    require_hermitian(m, tol, "psd_sqrt")
    w, v = np.linalg.eigh(m)
    return psd_factor(w, v, tol) @ np.swapaxes(v.conj(), -1, -2)


def psd_factor(w: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """B = v diag(sqrt(w)), so B B^dagger = m, for the matrix (or stack) m whose
    eigenvalues w (each >= -tol, negatives clipped to 0) have eigenvectors v."""
    lo = np.ravel(w.min(axis=-1))
    require(lo >= -tol, lambda k: ValueError(
        f"psd_sqrt: negative eigenvalue {lo[k]:.3e} below -{tol:.1e}"))
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :]


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Bipartite decomposition v = sum_k c_k |left_k> (x) |right_k>.

    Coefficients are nonnegative and descending; ``left_basis[:, k]`` and
    ``right_basis[:, k]`` are the paired orthonormal vectors.  All three arrays
    are held as read-only copies.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    split: tuple[int, int]

    def __post_init__(self):
        hold(self, "coefficients", float)
        hold(self, "left_basis")
        hold(self, "right_basis")

    def reconstruct(self) -> np.ndarray:
        d1, d2 = self.split
        out = np.zeros(d1 * d2, dtype=complex)
        for k, c in enumerate(self.coefficients):
            out += c * np.kron(self.left_basis[:, k], self.right_basis[:, k])
        return out


def schmidt_decompose(
    v: np.ndarray, split: tuple[int, int], tol: float = DEFAULT_TOL
) -> SchmidtDecomposition:
    """Schmidt decomposition of a normalized bipartite state vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not _factors(split, v.size):
        raise DimensionMismatchError(f"vector of length {v.size} does not match split {split}")
    d1, d2 = int(split[0]), int(split[1])
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= max(tol, SLACK):
        raise ValueError(f"schmidt_decompose requires a normalized vector, |v| = {norm}")
    coeff = v.reshape(d1, d2)
    u, s, vh = np.linalg.svd(coeff, full_matrices=False)
    # rows of vh are the right vectors; numpy returns singular values descending
    return SchmidtDecomposition(coefficients=s, left_basis=u, right_basis=vh.T, split=(d1, d2))


def extend_to_unitary(columns: np.ndarray) -> np.ndarray:
    """Complete orthonormal columns to a full unitary (the given columns first).

    Accepts a (D, r) array with r <= D orthonormal columns (or a single 1-D
    vector) and returns a D x D unitary whose leading r columns equal them.
    Raises ValueError unless the columns are finite, at most D, and each norm
    is 1 and each overlap 0 within NORM_TOL.
    """
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim == 1:
        cols = cols.reshape(-1, 1)
    dim, r = cols.shape
    if r > dim:
        raise ValueError(f"extend_to_unitary: {r} columns exceed the dimension {dim}")
    require_finite(cols, "extend_to_unitary: input")
    gram = cols.conj().T @ cols
    norms = np.sqrt(np.diagonal(gram).real)
    np.fill_diagonal(gram, 0.0)
    if not (np.all(np.abs(norms - 1.0) <= NORM_TOL) and np.all(np.abs(gram) <= NORM_TOL)):
        raise ValueError("extend_to_unitary requires orthonormal columns")
    q, _ = np.linalg.qr(np.hstack([cols, np.eye(dim, dtype=complex)]))
    # Householder QR fixes each leading column only up to phase; realign.
    for k in range(r):
        phase = np.vdot(q[:, k], cols[:, k])
        q[:, k] *= phase / abs(phase)
    return q


def align_global_phase(v: np.ndarray) -> np.ndarray:
    """Rescale by a unit phase so the largest-magnitude entry is real positive.

    The entry is chosen deterministically (first index attaining the maximum),
    which makes comparisons "up to global phase" reproducible.
    """
    v = np.asarray(v, dtype=complex)
    flat = v.reshape(-1)
    idx = int(np.argmax(np.abs(flat)))
    pivot = flat[idx]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (abs(pivot) / pivot)
