"""Closed forms the benchmark checks factorlab's output against.

Everything here is written from the formulas, not from factorlab: the states
are built entry by entry and the diagnostics are the textbook expressions
(Wootters' pure-state and X-state concurrence, the Werner partial-transpose
spectrum, the Horodecki CHSH bound).  Only numpy is used.
"""

from __future__ import annotations

import numpy as np

# Output passes through the CLI's %.12g rendering, so compare absolutely at a
# level well above that rounding and well below any physical difference.
ABS_TOL = 1e-9

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

# (1/sqrt 2)(1 (x) 1 + i s_x (x) s_y), the paper's two-qubit switch.
U_SWITCH = (np.eye(4) + 1j * np.kron(_SX, _SY)) / np.sqrt(2.0)


def close(a: float, b: float, tol: float = ABS_TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, np.conj(v))


def bell_vector(kind: str) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    sign = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("psi"):
        v[1], v[2] = 1.0, sign
    else:
        v[0], v[3] = 1.0, sign
    return v / np.sqrt(2.0)


def psi_theta(theta: float) -> np.ndarray:
    return np.array([0.0, np.sin(theta), -np.cos(theta), 0.0], dtype=complex)


def werner(alpha: float) -> np.ndarray:
    return alpha * projector(bell_vector("psi-")) + (1.0 - alpha) / 4.0 * np.eye(4)


def _with_corners(m: np.ndarray, lam: float) -> np.ndarray:
    m = lam * m
    m[0, 0] += (1.0 - lam) / 2.0
    m[3, 3] += (1.0 - lam) / 2.0
    return m


def gisin(lam: float, theta: float) -> np.ndarray:
    return _with_corners(projector(psi_theta(theta)), lam)


def gisin_unitary(lam: float) -> np.ndarray:
    return _with_corners(projector(bell_vector("psi+")), lam)


def gisin_filtered(lam: float, theta: float) -> np.ndarray:
    """Closed form of the locally filtered Gisin state."""
    s2 = np.sin(2.0 * theta)
    m = _with_corners(projector(bell_vector("psi-")), lam)
    m[1:3, 1:3] *= s2
    return m / (lam * s2 + 1.0 - lam)


def ghz_traced(theta: float) -> np.ndarray:
    return np.diag([np.sin(theta) ** 2, 0.0, 0.0, np.cos(theta) ** 2]).astype(complex)


def narnhofer() -> np.ndarray:
    return (projector(bell_vector("psi+")) + projector(bell_vector("phi+"))) / 2.0


def conjugated(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    return u @ m @ u.conj().T


def pure_concurrence(v: np.ndarray) -> float:
    """C = 2 |ad - bc| for the two-qubit vector (a, b, c, d)."""
    return float(2.0 * abs(v[0] * v[3] - v[1] * v[2]))


def x_state_concurrence(m: np.ndarray) -> float:
    """C = 2 max(0, |m12| - sqrt(m00 m33), |m03| - sqrt(m11 m22)) for a
    two-qubit state supported on the diagonal and anti-diagonal."""
    off = np.abs(m - np.diag(np.diag(m)) - np.fliplr(np.diag(np.diag(np.fliplr(m)))))
    if np.max(off) > 1e-12:
        raise ValueError("x_state_concurrence needs an X-shaped matrix")
    p = np.diag(m).real
    return float(
        2.0 * max(0.0, abs(m[1, 2]) - np.sqrt(p[0] * p[3]), abs(m[0, 3]) - np.sqrt(p[1] * p[2]))
    )


def werner_min_pt(alpha: float) -> float:
    """Smallest eigenvalue of the partial transpose of werner(alpha)."""
    return (1.0 - 3.0 * alpha) / 4.0


def werner_bmax(alpha: float) -> float:
    """Horodecki bound for t = -alpha * 1: sqrt(2 alpha^2)."""
    return float(np.sqrt(2.0) * alpha)


def pure_bmax(concurrence: float) -> float:
    """Horodecki bound of a pure two-qubit state, sqrt(1 + C^2)."""
    return float(np.sqrt(1.0 + concurrence**2))


def purity(m: np.ndarray) -> float:
    """Tr m^2 = sum |m_ij|^2 for Hermitian m."""
    return float(np.sum(np.abs(m) ** 2))


def entropy(spectrum: np.ndarray) -> float:
    p = spectrum[spectrum > 1e-15]
    return float(-np.sum(p * np.log(p)))
