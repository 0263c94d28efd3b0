"""Validated density matrices, two-qubit Bloch form, and named state families.

Basis convention: computational product ordering |00>, |01>, |10>, |11> with
up = 0 and down = 1.  All two-qubit fixtures (Bell projectors, the spin
mixtures, the Werner/Gisin families) are written in this ordering.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MAXENT_TOL,
    ZERO_FLOOR,
    DimensionMismatchError,
    Spectrum,
    _factors,
    _is_integer,
    _prechecked,
    hermitian_deviation,
    hold,
    partial_trace,
    require,
    require_finite,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
I2 = np.eye(2, dtype=complex)
# s_i (x) s_j for i, j in 0..3 with s_0 = 1, flattened as 4 i + j.
PAULI_PRODUCTS = np.array([np.kron(a, b) for a in (I2, *PAULI) for b in (I2, *PAULI)])


def _pauli_gather() -> tuple[np.ndarray, np.ndarray]:
    """Where Re Tr(m P) reads m, for each P of PAULI_PRODUCTS.

    Column a of P holds one nonzero entry v = P[b, a] in {1, -1, i, -i}, so
    Tr(m P) = sum_a v m[a, b], and Re(v m[a, b]) is +-Re m[a, b] (v = +-1) or
    -+Im m[a, b] (v = +-i).  Returns the (16, 4) positions of those parts in m
    viewed as 32 reals, row-major, and their (16, 4) signs.
    """
    b = np.abs(PAULI_PRODUCTS).argmax(axis=1)
    v = np.take_along_axis(PAULI_PRODUCTS, b[:, None, :], axis=1)[:, 0, :]
    return 8 * np.arange(4) + 2 * b + (v.imag != 0), v.real - v.imag


_PAULI_INDEX, _PAULI_SIGN = _pauli_gather()
# the rows of the nine s_i(x)s_j with i, j >= 1, the correlation matrix t, row-major
_CORRELATION_ROWS = [4 * i + j for i in (1, 2, 3) for j in (1, 2, 3)]
_CORRELATION_INDEX, _CORRELATION_SIGN = _PAULI_INDEX[_CORRELATION_ROWS], _PAULI_SIGN[_CORRELATION_ROWS]


class StateValidationError(ValueError):
    """A candidate density matrix violates one of its defining invariants."""

    def __init__(self, invariant: str, message: str, value: float | None = None):
        self.invariant = invariant
        self.value = value
        super().__init__(f"{invariant}: {message}")


def _screen(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checks before the eigensolve, on a matrix or each of a stack: its Hermitian
    deviation max |m - m^dagger|, its trace, and whether it has finite entries, is
    Hermitian within tol and has unit trace within tol.  A non-finite entry makes the
    deviation NaN or infinite, so one comparison screens for all three."""
    with np.errstate(invalid="ignore"):
        dev = hermitian_deviation(m)
    tr = m.trace(axis1=-2, axis2=-1)
    return dev, tr, np.maximum(dev, np.abs(tr - 1.0)) <= tol


def _screen_error(flat: np.ndarray, dev: np.ndarray, tr: np.ndarray, tol: float,
                  k: int) -> StateValidationError:
    """The error of matrix k of a stack that ``_screen`` (deviations dev, traces tr)
    failed: its first non-finite entry, else its Hermitian deviation, else its trace."""
    bad = ~np.isfinite(flat[k])
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return StateValidationError("finite", f"entry ({i}, {j}) is {flat[k, i, j]}")
    if not dev[k] <= tol:
        return StateValidationError(
            "hermitian", f"deviation {dev[k]:.3e} exceeds {tol:.1e}", float(dev[k]))
    trace = complex(tr[k])
    return StateValidationError("trace", f"trace {trace} differs from 1", abs(trace - 1.0))


def validate_stack(m: np.ndarray, tol: float) -> Spectrum:
    """Check each matrix of a (..., D, D) stack is a density matrix: finite
    entries, Hermitian (max |m - m^dagger| <= tol), unit trace within tol and
    eigenvalues >= -tol, in that order; return the Spectrum of every matrix,
    views of the one ``eigh`` that does the positivity check.  The first
    offending matrix raises StateValidationError, whose ``index`` is its
    position in the flattened stack."""
    flat = m.reshape((-1,) + m.shape[-2:])
    dev, tr, ok = _screen(flat, tol)
    stop = len(flat) if ok.all() else int(np.argmin(ok))
    w, v = np.linalg.eigh(flat[:stop])
    lo = w.min(axis=-1)
    require(lo >= -tol, lambda k: StateValidationError(
        "positive", f"eigenvalue {lo[k]:.3e} below -{tol:.1e}", float(lo[k])))
    require(ok, functools.partial(_screen_error, flat, dev, tr, tol))
    return Spectrum(values=w[..., ::-1].reshape(m.shape[:-1]), vectors=v[..., ::-1].reshape(m.shape))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Quantum state over a declared bipartite dimension split (d1, d2).

    Construction runs ``validate_stack`` on the one matrix, whose ``eigh``,
    eigenvalues descending, is the read-only ``spectrum`` that every spectral
    measure and switch reads.  A state that ``conjugate`` switches may instead
    carry the spectrum it had before the switch (``_switched_state``).
    """

    matrix: np.ndarray
    split: tuple[int, int]
    tol: InitVar[float] = DEFAULT_TOL
    spectrum: Spectrum = field(init=False, repr=False)

    def __post_init__(self, tol: float):
        m = hold(self, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateValidationError("shape", f"not a square matrix: {m.shape}")
        if not _factors(self.split, m.shape[0]):
            raise StateValidationError(
                "split", f"split {self.split} does not factor dimension {m.shape[0]}"
            )
        object.__setattr__(self, "split", (int(self.split[0]), int(self.split[1])))
        object.__setattr__(self, "spectrum", validate_stack(m, tol))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _carry_bound(m: np.ndarray, w: np.ndarray, v: np.ndarray, dev) -> float:
    """b with |lambda_k - w_k| <= b for every eigenvalue lambda_k (descending) of the
    Hermitian matrix A that ``eigh`` reads from m, where v holds approximate eigenvectors
    for w and dev = max |m - m^dagger|; inf unless v is close to orthonormal."""
    # R = m v - v diag(w), e = ||v^dagger v - 1||_F, ||A - m|| <= D dev.  Then
    # v^dagger A v = diag(w) + F with F = (v^dagger v - 1) diag(w) + v^dagger (R + (A - m) v)
    # Hermitian and ||F|| <= f = e max|w| + sqrt(1 + e) ||R||_F + (1 + e) D dev, so by Weyl
    # its k-th eigenvalue mu_k lies within f of w_k.  Ostrowski: mu_k = theta_k lambda_k with
    # theta_k in [1 - e, 1 + e], so |lambda_k - w_k| <= (f + e max|w|) / (1 - e) = b.
    e = np.linalg.norm(v.conj().T @ v - np.eye(len(w)))
    if not e < 1.0:
        return np.inf
    top = np.abs(w).max()
    f = e * top + np.sqrt(1.0 + e) * np.linalg.norm(m @ v - v * w) + (1.0 + e) * len(w) * dev
    return float((f + e * top) / (1.0 - e))


def _switched_state(rho: DensityMatrix, u: np.ndarray, m: np.ndarray, tol: float) -> DensityMatrix:
    """The state of m = U rho U^dagger (u the unitary U) at tol, as ``conjugate`` returns it.

    With rho's spectrum (w, V), the eigenvalues w and the vectors U V are carried
    over without an eigensolve when m passes ``_screen`` and ``_carry_bound`` puts
    every eigenvalue of m within rounding noise, D * ZERO_FLOOR, of w and at or
    above -tol.  The noise bound keeps w as close to m's eigenvalues as a fresh
    ``eigh`` would be (a U up to UNITARY_TOL from unitary fails it, for one).
    A (2, 2) split keeps the fresh ``eigh``, since the concurrence reads every
    eigenvector (through B = V diag(sqrt(w))) and carried ones would move its last
    digits off those of a sweep, whose switched stacks are decomposed afresh.
    There, and whenever a check fails, the result is
    DensityMatrix(m, rho.split, tol), so every error is validation's own.
    """
    w = rho.spectrum.values
    if rho.split != (2, 2):
        v = u @ rho.spectrum.vectors
        dev, _, ok = _screen(m, tol)
        b = _carry_bound(m, w, v, dev) if ok else np.inf
        if b <= rho.dim * ZERO_FLOOR and w[-1] - b >= -tol:
            return _prechecked(DensityMatrix, matrix=m, split=rho.split, spectrum=Spectrum(w, v))
    return DensityMatrix(m, rho.split, tol=tol)


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Two-qubit coefficients (r, u, t) of the Pauli product expansion.

    The state is (1/4)(1(x)1 + r_i s_i(x)1 + u_i 1(x)s_i + t_ij s_i(x)s_j)
    with s_i the Pauli matrices; r, u are real 3-vectors, t a real 3x3 matrix.
    """

    r: np.ndarray
    u: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        for name, shape in (("r", 3), ("u", 3), ("t", (3, 3))):
            hold(self, name, float, shape)


def from_bloch(b: BlochForm, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Build the two-qubit state with the given Bloch coefficients.

    Raises StateValidationError (carrying the offending eigenvalue) when the
    coefficients do not describe a positive-semidefinite matrix.
    """
    # the coefficient of s_i(x)s_j, laid out as bloch_coefficients returns it
    c = np.block([[np.ones((1, 1)), b.u[None, :]], [b.r[:, None], b.t]])
    m = np.tensordot(c.reshape(16), PAULI_PRODUCTS, axes=1)
    return DensityMatrix(m / 4.0, (2, 2), tol=tol)


def _pauli_traces(m: np.ndarray, index: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Re Tr(m s_i(x)s_j) of a 4x4 matrix or of each of a stack, along the last axis
    one per product whose gather positions and signs (rows of ``_pauli_gather``'s)
    are index and sign, each summed as (t0 + t1) + (t2 + t3), the order of the
    trace of the dense product m s_i(x)s_j; adding +0.0 turns an exact -0.0 into
    the +0.0 that product gives.  Each equals the dense trace bit for bit."""
    flat = np.ascontiguousarray(m, dtype=complex).view(float).reshape(m.shape[:-2] + (32,))
    t = flat[..., index] * sign
    return (t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3]) + 0.0


def bloch_coefficients(m: np.ndarray) -> np.ndarray:
    """c[..., i, j] = Re Tr(m s_i(x)s_j) with s_0 = 1, for a 4x4 matrix or a stack.

    Each trace is a signed gather of four real or imaginary parts of m (see
    ``_pauli_gather``) summed by ``_pauli_traces``; the result equals the dense
    traces bit for bit.
    """
    return _pauli_traces(m, _PAULI_INDEX, _PAULI_SIGN).reshape(m.shape[:-2] + (4, 4))


def _correlation_matrices(m: np.ndarray) -> np.ndarray:
    """The Bloch correlation matrix t = ``bloch_coefficients(m)[..., 1:, 1:]`` of a 4x4
    matrix or of each of a stack, bit for bit, from a gather of its nine traces alone."""
    return _pauli_traces(m, _CORRELATION_INDEX, _CORRELATION_SIGN).reshape(m.shape[:-2] + (3, 3))


def require_split(rho: DensityMatrix, split: tuple[int, int], what: str) -> None:
    """Raise DimensionMismatchError, naming ``what``, unless rho has this split."""
    if rho.split != split:
        raise DimensionMismatchError(f"{what} requires split {split}, got {rho.split}")


def to_bloch(rho: DensityMatrix) -> BlochForm:
    """Recover (r, u, t) via r_i = Tr(rho s_i(x)1) and friends; split must be (2,2)."""
    require_split(rho, (2, 2), "Bloch form")
    c = bloch_coefficients(rho.matrix)
    return BlochForm(r=c[1:, 0], u=c[0, 1:], t=c[1:, 1:])


# Bell kind -> the relative sign of its two terms
BELL_SIGNS = {"psi+": +1, "psi-": -1, "phi+": +1, "phi-": -1}


def bell_vector(kind: str) -> np.ndarray:
    """One of the four Bell vectors psi+/-, phi+/- in the computational basis."""
    if kind not in BELL_SIGNS:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {sorted(BELL_SIGNS)}")
    sign = BELL_SIGNS[kind]
    v = np.zeros(4, dtype=complex)
    if kind.startswith("psi"):
        v[1], v[2] = 1.0, sign
    else:
        v[0], v[3] = 1.0, sign
    return v / np.sqrt(2.0)


def projectors(v: np.ndarray) -> np.ndarray:
    """|v><v| for a vector, or for each vector of a stack."""
    return v[..., :, None] * v.conj()[..., None, :]


def bell_state(kind: str, tol: float = DEFAULT_TOL) -> DensityMatrix:
    return DensityMatrix(projectors(bell_vector(kind)), (2, 2), tol=tol)


def product_state(a: int, b: int, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Computational product projector |ab><ab| with a, b the integers 0 or 1."""
    if not all(_is_integer(x) and x in (0, 1) for x in (a, b)):
        raise ValueError("product_state expects qubit labels 0 (up) or 1 (down)")
    m = np.zeros((4, 4), dtype=complex)
    m[2 * a + b, 2 * a + b] = 1.0
    return DensityMatrix(m, (2, 2), tol=tol)


def psi_theta(theta: float) -> np.ndarray:
    """Partially entangled vector sin(theta)|01> - cos(theta)|10> (one row per
    angle for an array of angles).  A non-finite angle gives NaN entries, which
    state validation reports."""
    theta = np.asarray(theta, dtype=float)
    v = np.zeros(theta.shape + (4,), dtype=complex)
    with np.errstate(invalid="ignore"):
        v[..., 1] = np.sin(theta)
        v[..., 2] = -np.cos(theta)
    return v


def rho_theta_matrices(theta) -> np.ndarray:
    """Unvalidated projector(s) onto psi_theta, for an angle or an array of angles."""
    return projectors(psi_theta(theta))


def rho_theta(theta: float, tol: float = DEFAULT_TOL) -> DensityMatrix:
    return DensityMatrix(rho_theta_matrices(theta), (2, 2), tol=tol)


def weyl_basis_state(k, l, d: int) -> np.ndarray:
    """Maximally entangled basis vector built from shift k and phase l.

    chi_kl = (1/sqrt(d)) sum_j exp(2 pi i j l / d) |j> (x) |(j+k) mod d>.
    The d*d vectors for 0 <= k, l < d form an orthonormal basis.  As a d x d
    coefficient array chi_kl is W_kl^T / sqrt(d), W_kl the ``weyl_operator``.
    Integer arrays k, l (broadcast together) give a (..., d*d) stack.
    """
    return maxent_vectors(weyl_operator(k, l, d))


def maxent_vectors(maps: np.ndarray) -> np.ndarray:
    """Maximally entangled vector (1/sqrt(d)) sum_i |i> (x) |M i> of each
    matrix M of a (..., d, d) stack, as a (..., d*d) stack."""
    d = maps.shape[-1]
    return np.swapaxes(maps, -1, -2).reshape(maps.shape[:-2] + (d * d,)) / np.sqrt(d)


def maxent_maps(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of ``maxent_vectors``: M = sqrt(d) v^T of a d*d vector v, or of each of a
    (..., d*d) stack.  v is maximally entangled exactly when M is unitary: M M^dagger - 1
    has eigenvalues d s_k^2 - 1 over v's Schmidt coefficients s_k and a spectral norm at
    most d times its largest entry, so max_k |s_k - 1/sqrt(d)| <= sqrt(d) * max|M M^dagger - 1|."""
    return np.sqrt(d) * np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)


def maxent_projector(projector: np.ndarray, d: int, tol: float) -> np.ndarray:
    """``projector`` as a complex array, once d passes ``require_dimension`` and it is a rank-1
    projector onto a maximally entangled vector: P^2 = P, Tr P = 1 and Tr_2 P = 1/d within tol."""
    require_dimension(d)
    p = np.asarray(projector, dtype=complex)
    if p.shape != (d * d, d * d):
        raise DimensionMismatchError(f"projector shape {p.shape} does not match d = {d}")
    require_finite(p, "projector")
    if not (np.max(np.abs(p @ p - p)) <= tol and abs(np.trace(p) - 1.0) <= tol):
        raise ValueError("projector must be rank-1 (P^2 = P, Tr P = 1)")
    red = partial_trace(p, (d, d), keep="first")
    if not np.max(np.abs(red - np.eye(d) / d)) <= tol:
        raise ValueError("projector must target a maximally entangled vector")
    return p


def weyl_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, l) of all d^2 Weyl operators as two integer arrays, k-major."""
    return np.divmod(np.arange(d * d), d)


def require_dimension(d: int) -> None:
    """Raise ValueError unless the factor dimension d is a positive integer (not a bool)."""
    if not _is_integer(d):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 1:
        raise ValueError("d must be positive")


def index_pairs(k, l) -> tuple[np.ndarray, np.ndarray]:
    """k and l broadcast together; with no pair, as integer arrays, since an
    empty list becomes a float array and no float array can index."""
    k, l = np.broadcast_arrays(k, l)
    return (k, l) if k.size else (k.astype(np.intp), l.astype(np.intp))


def weyl_operator(k, l, d: int) -> np.ndarray:
    """Shift-and-phase unitary W_kl = sum_j exp(2 pi i j l / d) |(j+k) mod d><j|.

    Satisfies chi_kl = (1 (x) W_kl) chi_00, so the Weyl basis vectors and
    these operators are two faces of the same family.  Integer arrays k, l
    (broadcast together) give a (..., d, d) stack; indices that are not
    integers, or out of range, are reported for the first pair that has one;
    d must be a positive integer (``require_dimension``).
    """
    require_dimension(d)
    k, l = index_pairs(k, l)

    def error(i: int, problem: str) -> ValueError:
        return ValueError(f"indices (k, l) = ({np.ravel(k)[i]}, {np.ravel(l)[i]}) {problem}")
    if not (k.dtype.kind in "iu" and l.dtype.kind in "iu"):
        raise error(0, "must be integers")  # a non-integer dtype makes every pair fail
    require((0 <= k) & (k < d) & (0 <= l) & (l < d), lambda i: error(i, f"out of range for d = {d}"))
    j = np.arange(d)
    phases = np.exp(1j * ((2 * np.pi * j * j[:, None]) / d))  # row l: exp(2 pi i j l / d)
    k_flat = np.ravel(k).astype(np.intp)  # j + a uint64 k would be float, no index
    w = np.zeros((k_flat.size, d, d), dtype=complex)
    w[np.arange(k_flat.size)[:, None], (j + k_flat[:, None]) % d, j] = phases[np.ravel(l)]
    return w.reshape(k.shape + (d, d))


def unit_interval(x, name: str) -> np.ndarray:
    """x as a float array, after checking every entry lies in [0, 1] (NaN does
    not); the error names the first entry that fails."""
    x = np.asarray(x, dtype=float)
    flat = np.ravel(x)
    inside = (0.0 <= flat) & (flat <= 1.0)
    if not inside.all():
        raise ValueError(f"{name} must lie in [0, 1], got {flat[np.argmin(inside)]}")
    return x


# the two terms of every Werner matrix
_PSI_MINUS_PROJECTOR, _EYE4 = projectors(bell_vector("psi-")), np.eye(4)


def werner_matrices(alpha) -> np.ndarray:
    """Unvalidated Werner matrix (or stack, for an array of weights)."""
    alpha = unit_interval(alpha, "alpha")[..., None, None]
    return alpha * _PSI_MINUS_PROJECTOR + (1.0 - alpha) / 4.0 * _EYE4


def werner(alpha: float, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Isotropic mixture alpha * psi- projector + (1 - alpha)/4 * identity."""
    return DensityMatrix(werner_matrices(alpha), (2, 2), tol=tol)


def werner_generalized(
    alpha: float, d: int, projector: np.ndarray | None = None, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """d x d analogue alpha * P + (1 - alpha)/d^2 * identity.

    ``projector`` must pass ``maxent_projector``; it defaults to the (0, 0)
    Weyl basis projector.
    """
    unit_interval(alpha, "alpha")
    if projector is None:
        projector = projectors(weyl_basis_state(0, 0, d))
    p = maxent_projector(projector, d, MAXENT_TOL)
    m = alpha * p + (1.0 - alpha) / (d * d) * np.eye(d * d)
    return DensityMatrix(m, (d, d), tol=tol)


def mix_with_diagonal(lam: np.ndarray, pure: np.ndarray) -> np.ndarray:
    """lam * pure + (1 - lam)/2 * (|00><00| + |11><11|), entry by entry of a stack."""
    m = lam[..., None, None] * pure
    m[..., 0, 0] += (1.0 - lam) / 2.0
    m[..., 3, 3] += (1.0 - lam) / 2.0
    return m


def gisin_matrices(lam, theta) -> np.ndarray:
    """Unvalidated Gisin matrix (or stack: lam and theta broadcast together)."""
    lam, theta = np.broadcast_arrays(unit_interval(lam, "lambda"), np.asarray(theta, dtype=float))
    return mix_with_diagonal(lam, rho_theta_matrices(theta))


def gisin(lam: float, theta: float, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Mixture lam * rho_theta + (1 - lam)/2 * (|00><00| + |11><11|)."""
    return DensityMatrix(gisin_matrices(lam, theta), (2, 2), tol=tol)


def ghz_vector(theta: float) -> np.ndarray:
    """Three-qubit vector sin(theta)|000> + cos(theta)|111> (one row per angle
    for an array of angles); a non-finite angle gives NaN entries, as in psi_theta."""
    theta = np.asarray(theta, dtype=float)
    v = np.zeros(theta.shape + (8,), dtype=complex)
    with np.errstate(invalid="ignore"):
        v[..., 0] = np.sin(theta)
        v[..., 7] = np.cos(theta)
    return v


def ghz_traced_matrices(theta) -> np.ndarray:
    """Unvalidated two-qubit marginal(s) of the GHZ-type vector."""
    return partial_trace(projectors(ghz_vector(theta)), (4, 2), keep="first")


def ghz_traced(theta: float, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Two-qubit marginal of the GHZ-type vector, tracing out the third qubit.

    Which qubit is traced is irrelevant by symmetry; the result is the diagonal
    matrix diag(sin^2 theta, 0, 0, cos^2 theta), separable for every theta.
    """
    return DensityMatrix(ghz_traced_matrices(theta), (2, 2), tol=tol)


def narnhofer(tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Equal mixture of the psi+ and phi+ projectors.

    The matrix is (1/4) [[1,0,0,1],[0,1,1,0],[0,1,1,0],[1,0,0,1]]: a rank-2
    separable state of purity 1/2, sitting at a corner of the separable double
    pyramid (outside the absolutely separable ball).
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.25
    m[1, 1] = m[1, 2] = m[2, 1] = m[2, 2] = 0.25
    return DensityMatrix(m, (2, 2), tol=tol)


def tracial(dim: int, split: tuple[int, int] | None = None, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Maximally mixed state 1/dim on a ``dim``-dimensional space.

    When no split is given, dim must be a perfect square and the balanced
    split (d, d) is used.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if split is None:
        d = int(round(np.sqrt(dim)))
        if d * d != dim:
            raise ValueError(f"dim {dim} is not a perfect square; pass an explicit split")
        split = (d, d)
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, split, tol=tol)


def state_to_dict(rho: DensityMatrix) -> dict:
    """JSON-ready form {split: [d1, d2], re: [[...]], im: [[...]]}."""
    return {
        "split": [rho.split[0], rho.split[1]],
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


def state_split(data: dict) -> tuple[int, int]:
    """The JSON state's split: TypeError unless ``data`` is a JSON object (a dict), KeyError
    if the split is missing, TypeError unless it is two positive integers."""
    if not isinstance(data, dict):
        kind = {list: "a list", type(None): "null", bool: "a boolean", int: "a number", float: "a number",
                str: "a string"}.get(type(data), type(data).__name__)  # json.loads' types, by JSON name
        raise TypeError(f"state must be a JSON object, got {kind}")
    split = data["split"]
    if not (isinstance(split, (list, tuple)) and len(split) == 2 and all(
            _is_integer(x) and x > 0 for x in split)):
        raise TypeError(f"split must be a list of two positive integers, got {split!r}")
    return split[0], split[1]


def state_from_dict(data: dict, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Parse the JSON state format.

    Malformed input raises KeyError or TypeError (see ``state_split``; also
    ``re`` or ``im`` not a rectangular array of numbers); ValueError and
    StateValidationError report a well-formed state that is not valid.
    """
    split = state_split(data)
    try:
        re, im = (np.asarray(data[key], dtype=float) for key in ("re", "im"))
        for key in ("re", "im"):
            cells = np.asarray(data[key], dtype=object).ravel()
            if set(map(type, cells)) <= {int, float}:  # what json.loads gives for numbers
                continue
            for x in cells:
                if not (_is_integer(x) or isinstance(x, float)):
                    raise ValueError(f"{key} entry {x!r} is not a number")
    except (ValueError, TypeError) as exc:
        raise TypeError(f"re/im must be rectangular arrays of numbers ({exc})") from None
    if re.shape != im.shape:
        raise ValueError(f"re/im shape mismatch: {re.shape} vs {im.shape}")
    return DensityMatrix(re + 1j * im, split, tol=tol)
