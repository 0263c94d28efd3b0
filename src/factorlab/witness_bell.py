"""Entanglement witnesses and CHSH Bell-inequality analysis.

Witness side: the projector witness 1 - d P, the tangent-plane construction
from a nearest separable state, and expectation evaluation.  Bell side: the
CHSH operator for arbitrary measurement directions, the closed-form maximal
violation sqrt(t1^2 + t2^2) from the correlation matrix, the constructive
maximizer that attains it, concurrence-based violation bounds, and the
Gisin-family violation thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (DEFAULT_TOL, MAXENT_TOL, NORM_TOL, SLACK, ZERO_FLOOR,
                     DimensionMismatchError, hs_inner, hs_norm, is_hermitian)
from .states import (PAULI, DensityMatrix, bloch_coefficients, maxent_projector, require_split,
                     to_bloch)


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian operator with Tr(rho A) >= 0 for every separable rho and
    Tr(rho A) < 0 for at least one entangled state."""

    operator: np.ndarray
    split: tuple[int, int]

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        if not is_hermitian(op, DEFAULT_TOL):
            raise ValueError("witness operator must be Hermitian")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)


def witness_projector(projector: np.ndarray, d: int, tol: float = DEFAULT_TOL) -> Witness:
    """Optimal witness 1 - d P for a maximally entangled rank-1 projector P.

    On product states phi (x) psi the expectation is 1 - |<phi*|psi>|^2 >= 0,
    vanishing exactly at psi = phi*; on beta P + (1 - beta) sigma with sigma
    orthogonal to P it gives 1 - beta d.  P must pass ``maxent_projector``.
    """
    p = maxent_projector(projector, d, max(tol, MAXENT_TOL))
    return Witness(np.eye(d * d) - d * p, (d, d))


def optimal_witness(rho0: DensityMatrix, rho_ent: DensityMatrix) -> Witness:
    """Tangent-plane witness built from a separable state rho0 nearest to rho_ent.

    A = (rho0 - rho_ent - <rho0, rho0 - rho_ent> 1) / ||rho0 - rho_ent||, which
    satisfies <rho0, A> = 0; its (negative) expectation on rho_ent equals minus
    the Hilbert-Schmidt distance when rho0 is the true nearest separable state.
    """
    if rho0.dim != rho_ent.dim:
        raise DimensionMismatchError(f"dimension mismatch: {rho0.dim} vs {rho_ent.dim}")
    diff = rho0.matrix - rho_ent.matrix
    dist = hs_norm(diff)
    if not dist > ZERO_FLOOR:
        raise ValueError("optimal_witness requires rho0 != rho_ent")
    shift = hs_inner(rho0.matrix, diff).real
    op = (diff - shift * np.eye(rho0.dim)) / dist
    return Witness(op, rho0.split)


def ewi_eval(rho: DensityMatrix, witness: Witness) -> float:
    """Witness expectation Tr(rho A); the caller interprets the sign."""
    if rho.dim != witness.operator.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: state {rho.dim} vs witness {witness.operator.shape[0]}"
        )
    return hs_inner(rho.matrix, witness.operator).real


@dataclass(frozen=True, eq=False)
class ChshSetting:
    """CHSH measurement directions: unit 3-vectors a, a' for one side and
    b, b' for the other."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if not abs(np.linalg.norm(v) - 1.0) <= NORM_TOL:
                raise ValueError(f"{name} must be a unit vector, |{name}| = {np.linalg.norm(v)}")
            object.__setattr__(self, name, v)


def _dot_sigma(v: np.ndarray) -> np.ndarray:
    return sum(v[i] * PAULI[i] for i in range(3))


def chsh_operator(setting: ChshSetting) -> np.ndarray:
    """CHSH operator (1/2)(a.s (x) (b+b').s + a'.s (x) (b-b').s).

    Normalized so the classical bound is 1 and the quantum maximum sqrt(2).
    """
    return 0.5 * (
        np.kron(_dot_sigma(setting.a), _dot_sigma(setting.b + setting.b_prime))
        + np.kron(_dot_sigma(setting.a_prime), _dot_sigma(setting.b - setting.b_prime))
    )


def chsh_value(rho: DensityMatrix, setting: ChshSetting) -> float:
    require_split(rho, (2, 2), "CHSH")
    return float(np.trace(rho.matrix @ chsh_operator(setting)).real)


def bmax_values(m: np.ndarray) -> np.ndarray:
    """horodecki_bmax of a 4x4 matrix or of each matrix of a stack.

    Negative eigenvalues are clamped to 0 exactly as ``max(w, 0.0)`` does.
    """
    t = np.ascontiguousarray(bloch_coefficients(m)[..., 1:, 1:])
    w = np.linalg.eigvalsh(np.swapaxes(t, -1, -2) @ t)
    w = np.where(w < 0.0, 0.0, w)
    return np.sqrt(w[..., -1] + w[..., -2])


def horodecki_bmax(rho: DensityMatrix) -> float:
    """Maximal CHSH value sqrt(t1^2 + t2^2) with t1^2 >= t2^2 the two largest
    eigenvalues of t^T t, t the Bloch correlation matrix.  Violation iff > 1."""
    require_split(rho, (2, 2), "Bloch form")
    return float(bmax_values(rho.matrix))


def _unit(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > ZERO_FLOOR else fallback


def _constructive_setting(t: np.ndarray) -> ChshSetting:
    # Top-2 eigenvector plane of t^T t carries the optimum; place b, b' in it
    # and take a, a' as the images under t.
    w, vecs = np.linalg.eigh(t.T @ t)
    c1, c2 = vecs[:, -1], vecs[:, -2]
    s1, s2 = max(w[-1], 0.0), max(w[-2], 0.0)
    phi = np.arctan2(np.sqrt(s2), np.sqrt(s1)) if s1 + s2 > 0 else np.pi / 4
    b = np.cos(phi) * c1 + np.sin(phi) * c2
    b_prime = np.cos(phi) * c1 - np.sin(phi) * c2
    a = _unit(t @ c1, fallback=c1)
    a_prime = _unit(t @ c2, fallback=c2)
    return ChshSetting(a=a, a_prime=a_prime, b=b, b_prime=b_prime)


def chsh_maximize(rho: DensityMatrix) -> tuple[float, ChshSetting]:
    """Measurement directions maximizing the CHSH value, with that value.

    The constructive optimum from the correlation-matrix eigenplane (Horodecki
    et al., Phys. Lett. A 200, 340 (1995)); its value matches horodecki_bmax.
    """
    setting = _constructive_setting(to_bloch(rho).t)
    return chsh_value(rho, setting), setting


def verstraete_wolf_bounds(concurrence_value: float) -> tuple[float, float]:
    """Violation bounds for a given concurrence C: (max(1, sqrt(2) C), sqrt(1 + C^2)).

    The upper bound holds for every two-qubit state and is saturated by pure
    states; the lower branch max(1, .) is the classical line clipped against
    sqrt(2) C and describes the bound curve for states at fixed C.
    """
    c = float(concurrence_value)
    if not -SLACK <= c <= 1.0 + SLACK:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    c = min(max(c, 0.0), 1.0)
    return (max(1.0, np.sqrt(2.0) * c), float(np.sqrt(1.0 + c * c)))


class GisinThresholds(NamedTuple):
    """Critical lambda values for CHSH violation of the Gisin family at fixed theta.

    ``unfiltered_attainable`` is False when no lambda in [0, 1] violates (the
    threshold is then reported clamped to 1).
    """

    unfiltered: float
    filtered: float
    unfiltered_attainable: bool


def gisin_thresholds(theta: float) -> GisinThresholds:
    """Violation thresholds for gisin(lam, theta) before and after filtering.

    The unfiltered condition max{(2 lam - 1)^2 + lam^2 sin^2(2 theta),
    2 lam^2 sin^2(2 theta)} > 1 has the two branch roots 4/(4 + sin^2(2 theta))
    and 1/(sqrt(2) sin(2 theta)); the threshold is their minimum, clamped to 1.
    Both branches are evaluated exactly rather than restricting to either one.
    The filtered family violates for lam > 1/(1 + sin(2 theta)(sqrt(2) - 1)).
    """
    if not np.isfinite(theta):
        raise ValueError(f"gisin_thresholds requires a finite theta, got {theta}")
    s = np.sin(2.0 * theta)
    if not abs(s) >= SLACK:
        raise ValueError(f"degenerate theta = {theta}: sin(2 theta) = 0")
    s = abs(s)
    branch_mixed = 4.0 / (4.0 + s * s)
    branch_corr = 1.0 / (np.sqrt(2.0) * s)
    unfiltered = min(branch_mixed, branch_corr)
    attainable = unfiltered <= 1.0
    filtered = 1.0 / (1.0 + s * (np.sqrt(2.0) - 1.0))
    return GisinThresholds(min(unfiltered, 1.0), float(filtered), bool(attainable))
