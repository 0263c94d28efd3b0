"""Scalar diagnostics: purity, entropy, PPT classification, concurrence,
Hilbert-Schmidt geometry, and absolute-separability tests.

Purity, entropy, the partial-transpose minimum, concurrence, the purity ball and
the maxent weight each have one kernel for a validated matrix or (N, D, D) stack and
its ``spectrum`` (``purities``, ``entropies``, ``pt_min_eigenvalues``, ``concurrences``,
``kz_ball_members``, ``maxent_weights``); DensityMatrix functions call it on one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    FLATNESS_TOL,
    NORM_TOL,
    ZERO_FLOOR,
    DimensionMismatchError,
    Spectrum,
    hs_norm,
    partial_transpose,
    psd_factor,
    require_finite,
    unitary_deviation,
)
from .states import PAULI, DensityMatrix, maxent_maps, require_split

# s_y(x)s_y is a signed permutation: row a holds its one nonzero entry,
# _YY_SIGN[a] = +-1, in column _YY_PERM[a].
_YY = np.kron(PAULI[1], PAULI[1]).real
_YY_PERM = np.abs(_YY).argmax(axis=1)
_YY_SIGN = _YY[np.arange(4), _YY_PERM]


def purities(m: np.ndarray) -> np.ndarray:
    """Tr m^2 of a matrix or of each matrix of a stack."""
    return (m @ m).trace(axis1=-2, axis2=-1).real


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2, ranging from 1/dim (maximally mixed) to 1 (pure)."""
    return float(purities(rho.matrix))


def mixedness(rho: DensityMatrix) -> float:
    """delta = 1 - Tr rho^2."""
    return 1.0 - purity(rho)


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -Tr rho ln rho in nats, read from ``rho.spectrum``.

    Eigenvalues at or below D * ZERO_FLOOR (D the dimension) are rounding noise of
    the eigensolve and count as zero (0 ln 0 = 0); a state with at most one
    eigenvalue above that cutoff is rank-1, and its entropy is exactly +0.0.
    """
    return float(entropies(rho.spectrum))


def entropies(spectrum: Spectrum) -> np.ndarray:
    """vn_entropy of a matrix or of each matrix of a stack, read from its
    ``spectrum``.  A dropped eigenvalue adds a signed zero, p ln 1, to the sum."""
    p = spectrum.values
    kept = p > p.shape[-1] * ZERO_FLOOR
    terms = p * np.log(np.where(kept, p, 1.0))
    return np.where(kept.sum(axis=-1) > 1, -terms.sum(axis=-1), 0.0)


@dataclass(frozen=True)
class PptVerdict:
    """Outcome of the partial-transposition test.

    NPT (min eigenvalue of the partial transpose below -tol) implies
    entanglement in any dimension; PPT implies separability for splits
    (2, 2) and (2, 3).
    """

    classification: str  # "PPT" or "NPT"
    min_pt_eigenvalue: float

    @classmethod
    def from_min(cls, lo: float, tol: float) -> PptVerdict:
        """The verdict on a partial transpose whose smallest eigenvalue is lo."""
        return cls("NPT" if lo < -tol else "PPT", lo)

    @property
    def entangled(self) -> bool:
        return self.classification == "NPT"


def pt_min_eigenvalues(m: np.ndarray, split: tuple[int, int]) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose (second factor) of a
    matrix or of each matrix of a stack."""
    pt = partial_transpose(m, split, side="second")
    return np.linalg.eigvalsh(pt).min(axis=-1)


def ppt_check(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> PptVerdict:
    return PptVerdict.from_min(float(pt_min_eigenvalues(rho.matrix, rho.split)), tol)


def concurrences(spectrum: Spectrum, tol: float) -> np.ndarray:
    """Two-qubit concurrence of a 4x4 matrix or of each matrix of a stack, read from
    its validated ``spectrum``; see ``concurrence``.

    B = V diag(sqrt(w)) comes from (w, V) with psd_sqrt's positivity check, and
    (s_y(x)s_y) B is a signed gather of B's rows.  The clamp to [0, 1] picks
    exactly what ``min(1, max(0, c))`` picks, zeros included.
    """
    b = psd_factor(spectrum.values, spectrum.vectors, tol)
    tau = np.swapaxes(b, -1, -2) @ (b[..., _YY_PERM, :] * _YY_SIGN[:, None])
    lam = np.linalg.svd(tau, compute_uv=False)
    c = np.subtract.reduce(lam, axis=-1)  # ((l1 - l2) - l3) - l4
    c = np.where(c > 0.0, c, 0.0)
    return np.where(c < 1.0, c, 1.0)


def concurrence(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the descending singular values of tau = B^T (s_y(x)s_y) B, where
    rho = B B^dagger; they are the square roots of the eigenvalues of
    rho (s_y(x)s_y) rho* (s_y(x)s_y) (Wootters, PRL 80, 2245 (1998)).
    """
    require_split(rho, (2, 2), "concurrence")
    return float(concurrences(rho.spectrum, tol))


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
    return bool(kz_ball_members(rho.matrix, tol, purities(rho.matrix)))


def kz_ball_members(m: np.ndarray, tol: float, purity: np.ndarray) -> np.ndarray:
    """kz_ball_member of a matrix or of each matrix of a stack, given its purities(m) as ``purity``.

    At D = 1 the bound 1/(D - 1) is infinite: the only 1x1 state is the
    maximally mixed one, the ball's centre, so it is a member.
    """
    dim = m.shape[-1]
    bound = 1.0 / (dim - 1) if dim > 1 else np.inf
    return purity <= bound + tol


def abs_sep_2x2(spectrum, tol: float = DEFAULT_TOL) -> bool:
    """Spectral test for absolute separability of a two-qubit state.

    Takes the ordered spectrum {p1 >= p2 >= p3 >= p4} and returns True iff
    p1 - p3 - 2 sqrt(p2 p4) <= 0.  States passing it remain separable under
    every global unitary.
    """
    p = np.asarray(spectrum, dtype=float).reshape(-1)
    if p.size != 4:
        raise ValueError(f"expected four eigenvalues, got {p.size}")
    require_finite(p, "spectrum")
    if not np.all(p >= -tol):
        raise ValueError(f"spectrum has a negative entry: {p.min()}")
    if not np.all(np.diff(p) <= tol):
        raise ValueError("spectrum must be sorted descending")
    if not abs(p.sum() - 1.0) <= max(tol, NORM_TOL):
        raise ValueError(f"spectrum must sum to 1, got {p.sum()}")
    return bool(abs_separables(p, tol))


def abs_separables(p: np.ndarray, tol: float) -> np.ndarray:
    """abs_sep_2x2's test, unchecked, on a descending spectrum or a (..., 4) stack of them."""
    return p[..., 0] - p[..., 2] - 2.0 * np.sqrt(np.maximum(p[..., 1] * p[..., 3], 0.0)) <= tol


def split_bound_check(beta: float, d: int) -> bool:
    """Entanglement bound for states beta * P + (1 - beta) * sigma with P a
    maximally entangled projector orthogonal to sigma: True iff beta > 1/d."""
    return beta > 1.0 / d


def maxent_weight(rho: DensityMatrix, tol: float = FLATNESS_TOL) -> float | None:
    """Weight of a detected maximally entangled projector in the spectral top.

    If the largest eigenvalue leads the next by more than tol and its eigenvector
    is maximally entangled (its map ``states.maxent_maps`` unitary within tol), the state
    splits as beta * P + (1 - beta) * sigma with sigma orthogonal to P, and beta
    (the top eigenvalue) is returned for use with split_bound_check.  Otherwise
    None: a degenerate top's eigenvector is the eigensolver's arbitrary pick.
    """
    beta = float(maxent_weights(rho.spectrum, rho.split[0], tol))
    return None if np.isnan(beta) else beta


def maxent_weights(spectrum: Spectrum, d: int, tol: float) -> np.ndarray:
    """maxent_weight of a matrix or of each matrix of a stack, split (d, d), from its
    ``spectrum``: NaN where the top eigenvalue leads the next by tol or less (a 1x1
    has no next), its eigenvector's map is not unitary within tol, or D != d * d."""
    w, v = spectrum.values, spectrum.vectors[..., :, 0]
    lead = w[..., 0] - w[..., 1] if w.shape[-1] > 1 else np.inf
    found = (lead > tol) & (unitary_deviation(maxent_maps(v, d)) <= tol) if v.shape[-1] == d * d else False
    return np.where(found, w[..., 0], np.nan)
