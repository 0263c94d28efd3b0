"""Factorization-switching constructions.

A FactorizationSwitch is a global unitary read as a change of tensor-product
factorization: conjugating a state by it answers "how does this state classify
with respect to the other algebra?".  The module collects the named two-qubit
switches, the generic constructions that make a pure state product or
maximally entangled, the spectral constructions that make any mixed state
separable (or, above a spectral threshold, entangled), the GHZ splitting
unitary, and -- for contrast -- the nonunitary local filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NORM_TOL,
    SLACK,
    UNITARY_TOL,
    DimensionMismatchError,
    _check_split,
    extend_to_unitary,
    hold,
    is_unitary,
    require,
    require_finite,
    schmidt_decompose,
)
from .measures import ppt_check
from .states import (
    DensityMatrix,
    _switched_state,
    bell_vector,
    gisin_matrices,
    mix_with_diagonal,
    projectors,
    require_dimension,
    require_split,
    weyl_basis_state,
    weyl_indices,
)


@dataclass(frozen=True, eq=False)
class FactorizationSwitch:
    """Global unitary identified with a choice of algebra factorization."""

    unitary: np.ndarray
    split: tuple[int, int]
    description: str = ""

    def __post_init__(self):
        u = hold(self, "unitary")
        require_finite(u, f"switch {self.description!r}: matrix")
        if not is_unitary(u, UNITARY_TOL):
            raise ValueError(f"switch {self.description!r}: matrix is not unitary")
        _check_split(u, self.split)


@dataclass(frozen=True)
class NotApplicable:
    """Returned when a constrained construction's spectral premise fails."""

    largest_eigenvalue: float
    required_bound: float

    def __str__(self):
        return (
            f"largest eigenvalue {self.largest_eigenvalue:.6f} does not exceed "
            f"the required bound {self.required_bound:.6f}"
        )


def conjugated(m: np.ndarray, switch: FactorizationSwitch) -> np.ndarray:
    """U m U^dagger for a matrix or for each matrix of a stack (unvalidated)."""
    u = switch.unitary
    return u @ m @ u.conj().T


def conjugate(rho: DensityMatrix, switch: FactorizationSwitch, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """State as seen from the switched factorization: U rho U^dagger, validated at tol.

    Its spectrum is rho's eigenvalues with eigenvectors U V where a residual bound
    proves them, and a fresh ``eigh`` otherwise (``states._switched_state``).
    """
    if rho.dim != switch.unitary.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: state {rho.dim} vs switch {switch.unitary.shape[0]}"
        )
    return _switched_state(rho, switch.unitary, conjugated(rho.matrix, switch), tol)


def algebra_image(switch: FactorizationSwitch, basis_op: np.ndarray) -> np.ndarray:
    """Image U op U^dagger of an observable under the factorization switch."""
    op = np.asarray(basis_op, dtype=complex)
    if op.shape != switch.unitary.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: operator {op.shape} vs switch {switch.unitary.shape}"
        )
    return conjugated(op, switch)


def identity_switch(dim: int = 4, split: tuple[int, int] = (2, 2)) -> FactorizationSwitch:
    return FactorizationSwitch(np.eye(dim, dtype=complex), split, "identity")


def _xy_rotation(c: float, s: float, description: str) -> FactorizationSwitch:
    """Switch c 1(x)1 - s i s_x(x)s_y, c and s the cosine and sine of one angle.  i s_x(x)s_y
    is the anti-diagonal (1, -1, 1, -1): -s, s, -s, s go there as given, signed zeros kept."""
    u = np.array([[c, 0, 0, -s], [0, c, s, 0], [0, -s, c, 0], [s, 0, 0, c]], dtype=complex)
    return FactorizationSwitch(u, (2, 2), description)


def u_switch() -> FactorizationSwitch:
    """Two-qubit switch (1/sqrt(2))(1(x)1 + i s_x(x)s_y), the rotation at angle -pi/4.

    Maps the singlet projector onto the product state |01><01| and, applied to
    the observable algebra, swaps entanglement and separability verdicts.
    """
    r = 1 / np.sqrt(2.0)
    return _xy_rotation(r, -r, "u-switch")


def u_theta(theta: float) -> FactorizationSwitch:
    """Switch sending psi_theta to psi+ for every theta: the rotation at angle theta + pi/4.

    With f+- = cos(theta) +- sin(theta) the matrix is
    (1/sqrt(2))(f- 1(x)1 - i f+ s_x(x)s_y).
    """
    c, s, r = np.cos(theta), np.sin(theta), 1 / np.sqrt(2.0)
    return _xy_rotation((c - s) * r, (c + s) * r, "u-theta")


def u_tilde_theta(theta: float) -> FactorizationSwitch:
    """u_switch composed with u_theta, the rotation at angle theta: sends psi_theta to |10>.

    Equals cos(theta) 1(x)1 - i sin(theta) s_x(x)s_y.
    """
    return _xy_rotation(np.cos(theta), np.sin(theta), "u-tilde-theta")


def u1_ghz() -> FactorizationSwitch:
    """Optimal entangling switch for the traced GHZ family on 0 <= theta <= pi/4."""
    r2 = np.sqrt(2.0)
    u = np.array(
        [[r2, 0, 0, 0], [0, 1, 0, -1], [0, -1, 0, -1], [0, 0, r2, 0]], dtype=complex
    ) / r2
    return FactorizationSwitch(u, (2, 2), "u1-ghz")


def u2_ghz() -> FactorizationSwitch:
    """Optimal entangling switch for the traced GHZ family on pi/4 <= theta <= pi/2."""
    r2 = np.sqrt(2.0)
    u = np.array(
        [[0, 0, 0, r2], [1, 0, -1, 0], [1, 0, 1, 0], [0, r2, 0, 0]], dtype=complex
    ) / r2
    return FactorizationSwitch(u, (2, 2), "u2-ghz")


def narnhofer_unitary() -> FactorizationSwitch:
    """Switch that entangles the maximal-purity separable corner state to C = 1/2."""
    r2 = np.sqrt(2.0)
    u = np.array(
        [[1, 0, 0, 1], [0, r2, 0, 0], [0, 0, r2, 0], [-1, 0, 0, 1]], dtype=complex
    ) / r2
    return FactorizationSwitch(u, (2, 2), "narnhofer")


def _schmidt_switch(psi: np.ndarray, split: tuple[int, int], target: np.ndarray,
                    description: str) -> FactorizationSwitch:
    """Switch sending psi to -target, a real nonnegative unit vector on the |kk>.

    The Schmidt frame is rotated onto the computational products, which puts
    psi's Schmidt coefficients c at the |kk>; then one real Householder
    reflection 1 - 2 w w^T / w^T w on those entries, w = c + target, sends c
    to -target.  c and target are nonnegative, so w^T w >= 2.
    """
    sd = schmidt_decompose(psi, split)
    d1, d2 = split
    left = extend_to_unitary(sd.left_basis) if sd.left_basis.shape[1] < d1 else sd.left_basis
    right = extend_to_unitary(sd.right_basis) if sd.right_basis.shape[1] < d2 else sd.right_basis
    u = np.kron(left, right).conj().T
    rows = np.arange(sd.coefficients.size) * (d2 + 1)
    w = sd.coefficients + target
    u[rows] -= np.outer(w * (2.0 / (w @ w)), w @ u[rows])
    return FactorizationSwitch(u, split, description)


def pure_to_product(psi: np.ndarray, split: tuple[int, int]) -> FactorizationSwitch:
    """Switch under which the given pure vector becomes a product vector.

    One Householder reflection in the Schmidt frame (``_schmidt_switch``)
    sends psi to -|00...>: the product vector up to the global phase -1.
    """
    return _schmidt_switch(psi, split, np.eye(min(split))[0], "pure-to-product")


def _equal_factors(split: tuple[int, int]) -> int:
    """d for a split (d, d); DimensionMismatchError for any other."""
    d1, d2 = split
    if d1 != d2:
        raise DimensionMismatchError(f"equal factor dimensions required, got {split}")
    return d1


def pure_to_maxent(psi: np.ndarray, split: tuple[int, int]) -> FactorizationSwitch:
    """Switch under which the given pure vector becomes maximally entangled.

    Requires equal factor dimensions.  One Householder reflection in the
    Schmidt frame (``_schmidt_switch``) sends psi to -(1/sqrt(d)) sum_k |kk>:
    the maximally entangled vector up to the global phase -1.
    """
    d = _equal_factors(split)
    return _schmidt_switch(psi, split, np.full(d, 1.0 / np.sqrt(d)), "pure-to-maxent")


def separabilize(rho: DensityMatrix) -> FactorizationSwitch:
    """Switch making any state diagonal in the computational product basis.

    Eigenvectors are sent to product basis vectors in spectral order, so the
    conjugated state is a classical mixture of products: separable and PPT
    for every input.
    """
    return FactorizationSwitch(rho.spectrum.vectors.conj().T, rho.split, "separabilize")


def weylize(rho: DensityMatrix) -> FactorizationSwitch:
    """Switch expanding any state over the maximally entangled basis.

    The eigenvector of the k-th largest eigenvalue is mapped to the basis
    vector chi_(k // d, k mod d); the conjugated state is diagonal in that
    basis (a Bell-diagonal state for d = 2) but not automatically entangled.
    """
    d = _equal_factors(rho.split)
    targets = weyl_basis_state(*weyl_indices(d), d).T
    return FactorizationSwitch(targets @ rho.spectrum.vectors.conj().T, rho.split, "weylize")


def geometric_mean_predicts_npt(spectrum: np.ndarray) -> bool:
    """Negativity predictor for the constrained construction.

    With the descending spectrum {p_1 >= ... >= p_D}, the embedded 2x2 block of
    the partial transpose has negative determinant iff
    sqrt(p_(D-2) p_D) < (p_1 - p_(D-1)) / 2.
    """
    p = np.asarray(spectrum, dtype=float).reshape(-1)
    if p.size < 4:
        raise ValueError(f"expected at least four eigenvalues, got {p.size}")
    require_finite(p, "spectrum")
    return bool(np.sqrt(max(p[-3] * p[-1], 0.0)) < 0.5 * (p[0] - p[-2]))


def constrained_entangle(rho: DensityMatrix) -> FactorizationSwitch | NotApplicable:
    """Entangling switch for states whose largest eigenvalue exceeds 3/d^2.

    The four extreme eigenvectors are embedded into a two-dimensional
    maximally entangled corner: largest -> (|00> + |11>)/sqrt(2),
    third-smallest -> |01>, smallest -> |10>,
    second-smallest -> (|00> - |11>)/sqrt(2); all remaining eigenvectors go to
    the remaining product basis vectors in spectral order.  Above the spectral
    bound the conjugated state is guaranteed NPT; the geometric-mean predictor
    certifies this cheaply, with a full partial-transpose eigensolve as the
    fallback check.
    """
    d = _equal_factors(rho.split)
    dim = d * d
    if dim < 4:
        raise DimensionMismatchError("construction needs a total dimension of at least 4")
    eigensystem = rho.spectrum
    bound = 3.0 / dim
    if eigensystem.values[0] <= bound:
        return NotApplicable(float(eigensystem.values[0]), bound)

    i00, i01, i10, i11 = 0, 1, d, d + 1
    spare = [k for k in range(dim) if k not in (i00, i01, i10, i11)]
    targets = np.eye(dim, dtype=complex)[:, [i00, *spare, i01, i00, i10]]
    # columns 0 and D-2 become (|00> + |11>)/sqrt(2) and (|00> - |11>)/sqrt(2)
    targets[i11, [0, dim - 2]] = 1.0, -1.0
    targets[:, [0, dim - 2]] /= np.sqrt(2.0)

    switch = FactorizationSwitch(
        targets @ eigensystem.vectors.conj().T, rho.split, "constrained-entangle"
    )
    if not geometric_mean_predicts_npt(eigensystem.values):
        # The spectral premise makes this unreachable; keep the exact check anyway.
        if not ppt_check(conjugate(rho, switch)).entangled:
            raise AssertionError("constrained construction failed to produce an NPT state")
    return switch


def ghz_split_unitary(omega: np.ndarray, d: int) -> FactorizationSwitch:
    """Unitary on factors (1, 2) of a tripartite pure vector that concentrates
    all correlation with factor 3 into factor 1.

    Write omega = sum_i sqrt(p_i) |phi_i>_(12) (x) |psi_i>_3 (Schmidt across
    the (12)|(3) cut).  The returned switch maps |phi_i> to |i>_1 (x) |0>_2,
    after which factor 2 is in a pure product state (zero mutual information
    with everything else) while the (1, 3) pair carries the full entanglement
    entropy S(rho_3).  d must be a positive integer (``require_dimension``).
    """
    require_dimension(d)
    omega = np.asarray(omega, dtype=complex).reshape(-1)
    if omega.size != d ** 3:
        raise DimensionMismatchError(f"vector of length {omega.size} is not a ({d},{d},{d}) state")
    norm = np.linalg.norm(omega)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"ghz_split_unitary requires a normalized vector, |omega| = {norm}")
    sd = schmidt_decompose(omega, (d * d, d))
    rank = sd.coefficients.size
    sources = extend_to_unitary(sd.left_basis[:, :rank])
    target_order = [i * d for i in range(d)]  # |i>_1 (x) |0>_2
    target_order += [k for k in range(d * d) if k not in target_order]
    targets = np.eye(d * d, dtype=complex)[:, target_order]
    return FactorizationSwitch(targets @ sources.conj().T, (d, d), "ghz-split")


@dataclass(frozen=True, eq=False)
class LocalFilter:
    """Nonunitary local filter: diagonal contractions applied to each qubit."""

    t_left: np.ndarray
    t_right: np.ndarray

    def __post_init__(self):
        for name in ("t_left", "t_right"):
            t = hold(self, name, float)
            if t.shape != (2, 2) or not t[0, 1] == t[1, 0] == 0:
                raise ValueError(f"{name} must be 2x2 diagonal")
            if not np.all((t.diagonal() > 0) & (t.diagonal() <= 1.0)):
                raise ValueError(f"{name} entries must lie in (0, 1]")

    @property
    def combined(self) -> np.ndarray:
        return np.kron(self.t_left, self.t_right)


def gisin_filter(theta: float) -> LocalFilter:
    """Local filter damping |0> on the left wire and |1> on the right wire.

    The textbook matrices diag(sqrt(cot theta), 1) and diag(1, sqrt(cot theta))
    are non-contractive for theta < pi/4, so both are rescaled by
    1/sqrt(cot theta); the overall scale cancels in the normalized output, and
    the rescaled entries lie in (0, 1] for 0 < theta <= pi/4.
    """
    if not 0.0 < theta <= np.pi / 4 + SLACK:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta}")
    root_tan = np.sqrt(np.tan(theta))
    return LocalFilter(
        t_left=np.diag([1.0, root_tan]), t_right=np.diag([root_tan, 1.0])
    )


def apply_filter(rho: DensityMatrix, filt: LocalFilter, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Filtered state F rho F^dagger / Tr(F rho F^dagger) with F = t_left (x) t_right.

    The Hermitian sandwich guarantees positivity for every input; on the Gisin
    family it reproduces the closed form
    (lam sin(2 theta) psi- + (1-lam)/2 (|00><00| + |11><11|)) / N with
    N = lam sin(2 theta) + (1 - lam).  Unlike a factorization switch, the
    filter changes purity.
    """
    require_split(rho, (2, 2), "local filter")
    return DensityMatrix(filtered(rho.matrix, filt), rho.split, tol=tol)


def filtered(m: np.ndarray, filt: LocalFilter) -> np.ndarray:
    """F m F^dagger / Tr(F m F^dagger) for a 4x4 matrix or each matrix of a
    stack (unvalidated); each filtered trace must exceed SLACK."""
    f = filt.combined
    out = f @ m @ f.conj().T
    tr = np.trace(out, axis1=-2, axis2=-1).real
    require(tr > SLACK, lambda k: ValueError("filtered state has zero trace"))
    return out / tr[..., None, None]


def gisin_unitary_family(lam: float, theta: float, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Unitarily switched Gisin state lam psi+ + (1-lam)/2 (|00><00| + |11><11|).

    Equals the conjugation of gisin(lam, theta) by u_theta(theta); the theta
    dependence drops out, so the family carries a constant amount of
    entanglement at fixed lam while keeping the purity of the original state.
    """
    return DensityMatrix(gisin_unitary_matrices(lam, theta, gisin_matrices(lam, theta)), (2, 2), tol=tol)


def gisin_unitary_matrices(lam, theta: float, gisin: np.ndarray) -> np.ndarray:
    """Unvalidated gisin_unitary_family matrix (or stack, for an array of lam).

    lam is the lambda that built and range-checked ``gisin``, gisin_matrices(lam, theta); each
    matrix must agree with its Gisin matrix conjugated by u_theta(theta) within UNITARY_TOL.
    """
    lam = np.asarray(lam, dtype=float)
    m = mix_with_diagonal(lam, projectors(bell_vector("psi+")))
    reference = conjugated(gisin, u_theta(theta))
    residual = np.ravel(np.max(np.abs(reference - m), axis=(-2, -1)))
    require(residual <= UNITARY_TOL, lambda k: AssertionError(
        f"closed form deviates from conjugation by {residual[k]:.3e}"))
    return m


SWITCH_BUILDERS = {
    "identity": (lambda: identity_switch(), False),
    "u-switch": (u_switch, False),
    "u-theta": (u_theta, True),
    "u-tilde-theta": (u_tilde_theta, True),
    "u1-ghz": (u1_ghz, False),
    "u2-ghz": (u2_ghz, False),
    "narnhofer": (narnhofer_unitary, False),
}


def named_switch(name: str, theta: float | None = None) -> FactorizationSwitch:
    """Look up a switch constructor by registry name (CLI entry point)."""
    if name not in SWITCH_BUILDERS:
        raise ValueError(
            f"unknown transform {name!r}; valid names: {', '.join(sorted(SWITCH_BUILDERS))}"
        )
    builder, needs_theta = SWITCH_BUILDERS[name]
    if theta is not None and not np.isfinite(theta):
        raise ValueError(f"transform {name!r} requires a finite theta, got {theta}")
    if needs_theta:
        if theta is None:
            raise ValueError(f"transform {name!r} requires a theta parameter")
        return builder(theta)
    return builder()
