"""Scalar diagnostics: purity, entropy, PPT classification, concurrence,
Hilbert-Schmidt geometry, and absolute-separability tests.

Purity, the partial-transpose minimum, concurrence and the purity-ball test
each have one kernel that works on an (N, D, D) stack of validated matrices
(``purities``, ``pt_min_eigenvalues``, ``concurrences``, ``kz_ball_members``);
the DensityMatrix functions call it on their one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    hs_norm,
    partial_transpose,
    psd_sqrt,
    require_hermitian,
    schmidt_decompose,
)
from .states import PAULI, DensityMatrix

_YY = np.kron(PAULI[1], PAULI[1])


def purities(m: np.ndarray) -> np.ndarray:
    """Tr m^2 of a matrix or of each matrix of a stack."""
    return np.trace(m @ m, axis1=-2, axis2=-1).real


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2, ranging from 1/dim (maximally mixed) to 1 (pure)."""
    return float(purities(rho.matrix))


def mixedness(rho: DensityMatrix) -> float:
    """delta = 1 - Tr rho^2."""
    return 1.0 - purity(rho)


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -Tr rho ln rho in nats, with 0 ln 0 = 0.

    Takes its own ``eigvalsh`` rather than ``rho.spectrum``: a pure state's
    entropy is rounding noise whose printed digits depend on the LAPACK routine
    (values from ``eigh`` print differently for about half of random pure
    states), so sharing the spectrum would change the output bytes.
    """
    w = np.linalg.eigvalsh(rho.matrix)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log(w)))


@dataclass(frozen=True)
class PptVerdict:
    """Outcome of the partial-transposition test.

    NPT (min eigenvalue of the partial transpose below -tol) implies
    entanglement in any dimension; PPT implies separability for splits
    (2, 2) and (2, 3).
    """

    classification: str  # "PPT" or "NPT"
    min_pt_eigenvalue: float

    @property
    def entangled(self) -> bool:
        return self.classification == "NPT"


def pt_min_eigenvalues(m: np.ndarray, split: tuple[int, int]) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose (second factor) of a
    matrix or of each matrix of a stack."""
    pt = partial_transpose(m, split, side="second")
    return np.linalg.eigvalsh(pt).min(axis=-1)


def ppt_check(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> PptVerdict:
    lo = float(pt_min_eigenvalues(rho.matrix, rho.split))
    return PptVerdict("NPT" if lo < -tol else "PPT", lo)


def concurrences(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Two-qubit concurrence of a 4x4 matrix or of each matrix of a stack; see
    ``concurrence``.

    The psd_sqrt and Hermiticity checks apply to each matrix.  The eigenvalues
    come from ``eigh`` (``eigvalsh`` takes another LAPACK path and can move a
    last digit), reversed to descending order; reversing can only swap tied
    signed zeros, which the 1e-14 clamp sets to +0.  The clamp to [0, 1]
    picks exactly what ``min(1, max(0, c))`` picks, zeros included.
    """
    flipped = _YY @ m.conj() @ _YY
    s = psd_sqrt(m, tol=tol)
    core = s @ flipped @ s
    core = (core + np.swapaxes(core.conj(), -1, -2)) / 2.0
    require_hermitian(core, tol, "concurrence")
    w = np.linalg.eigh(core)[0][..., ::-1].copy()
    w[w < 1e-14] = 0.0
    lam = np.sqrt(w)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    c = np.where(c > 0.0, c, 0.0)
    return np.where(c < 1.0, c, 1.0)


def concurrence(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the descending square roots of the eigenvalues of
    rho (s_y(x)s_y) rho* (s_y(x)s_y), evaluated on the Hermitian form
    sqrt(rho) rho~ sqrt(rho) for numerical stability.  Eigenvalues of that
    product below 1e-14 (including tiny negatives from rounding) are treated
    as exact zeros: for a unit-trace input the product's spectrum is bounded
    by 1, so anything at that scale is floating-point noise, and taking its
    square root would otherwise inflate it to ~1e-7.
    """
    if rho.split != (2, 2):
        raise DimensionMismatchError(f"concurrence requires split (2, 2), got {rho.split}")
    return float(concurrences(rho.matrix, tol=tol))


def hs_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Hilbert-Schmidt (Frobenius) distance ||rho - sigma||."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return hs_norm(rho.matrix - sigma.matrix)


def hs_measure_to(rho_ent: DensityMatrix, rho0: DensityMatrix) -> float:
    """Entanglement measure ||rho0 - rho_ent|| at a supplied candidate nearest
    separable state rho0.  Global minimization over the separable set is out of
    scope; when rho0 is the true minimizer this equals the maximal witness
    violation."""
    return hs_distance(rho0, rho_ent)


def kz_ball_member(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the maximal absolutely separable ball around 1/D.

    Implemented as the purity bound Tr rho^2 <= 1/(D - 1), which for the ball
    radius r = 1/(D - 1) is the same statement as the Hilbert-Schmidt condition
    ||rho - 1/D|| <= sqrt(1/(D-1) - 1/D) because ||rho - 1/D||^2 = Tr rho^2 - 1/D.
    At D = 4 it reproduces the Werner separability bound alpha <= 1/3.  Every
    member stays PPT under any global unitary conjugation.
    """
    return bool(kz_ball_members(rho.matrix, tol))


def kz_ball_members(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """kz_ball_member of a matrix or of each matrix of a stack."""
    return purities(m) <= 1.0 / (m.shape[-1] - 1) + tol


def abs_sep_2x2(spectrum, tol: float = DEFAULT_TOL) -> bool:
    """Spectral test for absolute separability of a two-qubit state.

    Takes the ordered spectrum {p1 >= p2 >= p3 >= p4} and returns True iff
    p1 - p3 - 2 sqrt(p2 p4) <= 0.  States passing it remain separable under
    every global unitary.
    """
    p = np.asarray(spectrum, dtype=float).reshape(-1)
    if p.size != 4:
        raise ValueError(f"expected four eigenvalues, got {p.size}")
    if np.any(p < -tol):
        raise ValueError(f"spectrum has a negative entry: {p.min()}")
    if np.any(np.diff(p) > tol):
        raise ValueError("spectrum must be sorted descending")
    if abs(p.sum() - 1.0) > max(tol, 1e-9):
        raise ValueError(f"spectrum must sum to 1, got {p.sum()}")
    return bool(p[0] - p[2] - 2.0 * np.sqrt(max(p[1] * p[3], 0.0)) <= tol)


def split_bound_check(beta: float, d: int) -> bool:
    """Entanglement bound for states beta * P + (1 - beta) * sigma with P a
    maximally entangled projector orthogonal to sigma: True iff beta > 1/d."""
    return beta > 1.0 / d


def maxent_weight(rho: DensityMatrix, tol: float = 1e-6) -> float | None:
    """Weight of a detected maximally entangled projector in the spectral top.

    If the eigenvector of the largest eigenvalue is maximally entangled (all
    Schmidt coefficients equal within tol), the state splits as
    beta * P + (1 - beta) * sigma with sigma orthogonal to P, and beta (the top
    eigenvalue) is returned for use with split_bound_check.  Otherwise None.
    """
    d1, d2 = rho.split
    if d1 != d2:
        return None
    eigensystem = rho.spectrum
    top = eigensystem.vectors[:, 0]
    sd = schmidt_decompose(top / np.linalg.norm(top), rho.split)
    target = 1.0 / np.sqrt(d1)
    coeffs = np.zeros(d1)
    coeffs[: sd.coefficients.size] = sd.coefficients
    if np.max(np.abs(coeffs - target)) > tol:
        return None
    return float(eigensystem.values[0])
