"""Teleportation and entanglement swapping in arbitrary dimension d.

Both protocols rest on the identification of maximally entangled vectors with
isometries between equal-dimension factors:

    |psi>_12 = (1/sqrt(d)) sum_i |i>_1 (x) |I_12 i>_2.

One subtlety is load-bearing: a *measurement outcome* enters through a bra, so
the transfer map it realizes is the entrywise conjugate of its ket-convention
isometry.  With that convention the composition laws hold on the nose:
teleportation realizes I_13 = I_23 . conj(I_12) and swapping realizes
I_14 = I_34 . conj(I_23) . I_12 (matrix products, rightmost factor first).
Every simulated outcome obeys five laws, each checked on every outcome:

1. unitarity: teleportation's correction and swapping's extracted and
   predicted isometries are unitary within UNITARY_TOL (ValueError);
2. flatness: a swapped pair's Schmidt coefficients are 1/sqrt(d) within
   MAXENT_TOL (ValueError);
3. composition: the branch equals the algebraic composition up to a global
   phase within NORM_TOL (ProtocolCheckError);
4. probability: the outcome occurs with probability 1/d^2 within UNITARY_TOL
   (ProtocolCheckError);
5. fidelity: its correction recovers the target with fidelity 1 within
   NORM_TOL (ProtocolCheckError).

The kernels check the first three.  ``OutcomeStack`` checks the last two when
it is built, so every stack obeys them, whoever builds it.

Each protocol is one kernel over a stack of outcomes (k, l), ``teleport_stack``
and ``swap_stack``: the joint vector is built once, and every branch's
contraction, normalization, extraction and check runs on the whole stack; a
failing check names the first failing outcome.  ``teleport``/``swap`` are a
batch of one, ``teleport_outcomes``/``swap_outcomes`` a batch of all d^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAXENT_TOL, NORM_TOL, UNITARY_TOL, hold, is_unitary, require, require_finite, unitary_deviation,
)
from .states import maxent_vectors, schmidt_flatness, weyl_basis_state, weyl_indices, weyl_operator


class ProtocolCheckError(AssertionError):
    """A protocol law (composition, probability 1/d^2 or fidelity 1) failed."""


@dataclass(frozen=True, eq=False)
class Isometry:
    """Unitary identification between two d-dimensional factors."""

    map: np.ndarray
    d: int
    label: str = ""

    def __post_init__(self):
        m = hold(self, "map")
        if m.shape != (self.d, self.d):
            raise ValueError(f"isometry matrix shape {m.shape} does not match d = {self.d}")
        require_finite(m, "isometry matrix")
        if not is_unitary(m, UNITARY_TOL):
            raise ValueError("isometry matrix must be unitary")

    @classmethod
    def identity(cls, d: int) -> "Isometry":
        return cls(np.eye(d, dtype=complex), d, "identity")

    @classmethod
    def weyl(cls, k: int, l: int, d: int) -> "Isometry":
        return cls(weyl_operator(k, l, d), d, f"W[{k},{l}]")

    def compose(self, inner: "Isometry") -> "Isometry":
        """Composition self . inner (apply ``inner`` first)."""
        if self.d != inner.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {inner.d}")
        return Isometry(self.map @ inner.map, self.d, f"{self.label}.{inner.label}")


@dataclass(frozen=True, eq=False)
class BellMeasurementOutcome:
    """One branch of a generalized Bell measurement in the Weyl basis."""

    index: tuple[int, int]
    probability: float
    post_state: np.ndarray
    correction: Isometry
    fidelity: float


@dataclass(frozen=True, eq=False)
class OutcomeStack:
    """Outcomes of one protocol run, evaluated together.

    Row n of every array belongs to outcome ``indices[n] = (k, l)``:
    ``post_states[n]`` is the normalized state the branch leaves behind and
    ``maps[n]`` its isometry (teleportation's correction, swapping's extracted
    composition), named ``labels[n]``.  Construction checks that every
    probability is 1/d^2 within UNITARY_TOL, then that every fidelity is 1
    within NORM_TOL, and names the first failing outcome.
    """

    d: int
    indices: np.ndarray
    probabilities: np.ndarray
    post_states: np.ndarray
    maps: np.ndarray
    fidelities: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        for name in ("indices", "post_states", "maps"):
            hold(self, name, None)
        p, f = hold(self, "probabilities", None), hold(self, "fidelities", None)
        require(np.abs(p - 1.0 / (self.d * self.d)) <= UNITARY_TOL, lambda n: ProtocolCheckError(
            f"outcome {self.indices[n].tolist()}: probability {float(p[n])} != 1/d^2"))
        require(np.abs(f - 1.0) <= NORM_TOL, lambda n: ProtocolCheckError(
            f"outcome {self.indices[n].tolist()}: fidelity {float(f[n])} != 1"))

    def outcomes(self) -> list[BellMeasurementOutcome]:
        """One BellMeasurementOutcome per row."""
        return [
            BellMeasurementOutcome((k, l), p, state, Isometry(m, self.d, label), f)
            for (k, l), p, state, m, f, label in zip(
                self.indices.tolist(), self.probabilities.tolist(), self.post_states,
                self.maps, self.fidelities.tolist(), self.labels,
            )
        ]


def maxent_from_isometry(iso: Isometry) -> np.ndarray:
    """Maximally entangled vector (1/sqrt(d)) sum_i |i> (x) |iso i>."""
    return maxent_vectors(iso.map)


def _isometry_maps(v: np.ndarray, d: int, tol: float, names) -> np.ndarray:
    """Inverse of ``states.maxent_vectors`` on a (..., d*d) stack, after checking
    that each vector is finite and its Schmidt coefficients are flat within tol;
    ``names[n]`` prefixes the message for vector n."""
    def error(n: int) -> ValueError:
        return ValueError(f"{names[n]}input vector is not maximally entangled")
    require(np.isfinite(v).all(axis=-1), error)
    require(schmidt_flatness(v, d) <= tol, error)
    return np.sqrt(d) * np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)


def isometry_of_maxent(v: np.ndarray, d: int, tol: float = MAXENT_TOL) -> Isometry:
    """Inverse of maxent_from_isometry (exact, no phase freedom).

    Raises ValueError when the input is not maximally entangled, i.e. when its
    Schmidt coefficients deviate from the flat value 1/sqrt(d) beyond tol.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise ValueError(f"vector of length {v.size} does not match d = {d}")
    return Isometry(_isometry_maps(v, d, tol, [""]), d)


def _phase_distance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max-norm distance between each row of u and of v after removing one
    global phase per row.

    The phase is extracted at the largest-magnitude entry of the reference row
    of v and applied to v; a single shared pivot keeps the comparison stable
    when several entries tie in magnitude.  Where that pivot is zero in u or
    v, the rows are compared as they are.
    """
    idx = np.argmax(np.abs(v), axis=-1)[..., None]
    pu = np.take_along_axis(u, idx, -1)
    pv = np.take_along_axis(v, idx, -1)
    zero = (pu == 0.0) | (pv == 0.0)
    phase = np.where(zero, 1.0, pu / np.where(zero, 1.0, pv))
    return np.abs(u - phase / np.abs(phase) * v).max(axis=-1)


def _outcome_names(k, l) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """k and l as 1-D arrays, and the message prefix naming each outcome."""
    k, l = np.broadcast_arrays(np.ravel(k), np.ravel(l))
    return k, l, [f"outcome ({a},{b}): " for a, b in zip(k.tolist(), l.tolist())]


def _require_unitary(maps: np.ndarray, names: list[str]) -> None:
    require(unitary_deviation(maps) <= UNITARY_TOL,
            lambda n: ValueError(f"{names[n]}isometry matrix must be unitary"))


def _require_close(residual: np.ndarray, names: list[str], law: str) -> None:
    require(residual <= NORM_TOL, lambda n: ProtocolCheckError(
        f"{names[n]}{law} violated by {residual[n]:.3e}"))


def teleport_stack(phi: np.ndarray, k, l) -> OutcomeStack:
    """Teleport ``phi`` through the identity-isometry resource, for each
    outcome (k[n], l[n]).

    Alice holds phi on factor 1 and shares (1/sqrt(d)) sum_i |ii> on (2, 3)
    with Bob; she measures (1, 2) in the Weyl basis.  For outcome (k, l) the
    branch has probability exactly 1/d^2 and Bob's factor ends in
    correction . phi where the correction is the Weyl-class unitary
    conj(W_kl) = W_(k, -l mod d); undoing it recovers phi.  Each simulated
    branch is checked against this algebraic prediction: the correction's
    unitarity, then the composition law.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    d = phi.size
    require_finite(phi, "input state")
    norm = np.linalg.norm(phi)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"input state must be normalized, |phi| = {norm}")
    k, l, names = _outcome_names(k, l)

    resource = maxent_from_isometry(Isometry.identity(d))
    joint = np.kron(phi, resource).reshape(d, d, d)
    chi = weyl_basis_state(k, l, d).reshape(-1, d, d)
    branch = np.einsum("nab,abc->nc", chi.conj(), joint)
    probability = np.einsum("nc,nc->n", branch.conj(), branch).real
    bob = branch / np.sqrt(probability)[:, None]

    correction = weyl_operator(k, l, d).conj()
    _require_unitary(correction, names)
    _require_close(_phase_distance(bob, correction @ phi), names, "composition law")
    recovered = np.einsum("nji,nj->ni", correction.conj(), bob)
    fidelity = np.abs(recovered @ phi.conj())
    labels = tuple(f"W[{a},{(d - b) % d}]" for a, b in zip(k.tolist(), l.tolist()))
    return OutcomeStack(d, np.stack([k, l], axis=-1), probability, bob, correction,
                        fidelity, labels)


def teleport(
    phi: np.ndarray, alice_outcome: tuple[int, int]
) -> tuple[np.ndarray, Isometry, float]:
    """Teleportation for one outcome: ``teleport_stack`` on a batch of one.

    Returns Bob's state, the correction and the branch probability.
    """
    k, l = alice_outcome
    (out,) = teleport_stack(phi, [k], [l]).outcomes()
    return out.post_state, out.correction, out.probability


def teleport_outcomes(phi: np.ndarray) -> list[BellMeasurementOutcome]:
    """Exhaustive teleportation trace over all d^2 measurement outcomes."""
    phi = np.asarray(phi).reshape(-1)
    return teleport_stack(phi, *weyl_indices(phi.size)).outcomes()


def swap_stack(k, l, i12: Isometry, i34: Isometry) -> OutcomeStack:
    """Entanglement swapping: Bell measurement on (2, 3) of
    maxent(I12) (x) maxent(I34), for each outcome (k[n], l[n]).

    For outcome (k, l) (probability 1/d^2) the untouched pair (1, 4) collapses
    to the maximally entangled state whose isometry is the composition
    I_14 = I_34 . conj(W_kl) . I_12.  Each branch is checked in turn: the
    pair's Schmidt coefficients are flat, the extracted isometry is unitary,
    it equals that product entrywise up to global phase, and the product is
    unitary.  The fidelity is the overlap of the pair with maxent(I_14).
    """
    if i12.d != i34.d:
        raise ValueError(f"resource dimension mismatch: {i12.d} vs {i34.d}")
    d = i12.d
    k, l, names = _outcome_names(k, l)

    joint = np.kron(maxent_from_isometry(i12), maxent_from_isometry(i34)).reshape(d, d, d, d)
    chi = weyl_basis_state(k, l, d).reshape(-1, d, d)
    branch = np.einsum("nbc,abce->nae", chi.conj(), joint).reshape(-1, d * d)
    probability = np.einsum("ni,ni->n", branch.conj(), branch).real
    pair14 = branch / np.sqrt(probability)[:, None]

    extracted = _isometry_maps(pair14, d, MAXENT_TOL, names)
    _require_unitary(extracted, names)
    predicted = i34.map @ weyl_operator(k, l, d).conj() @ i12.map
    residual = _phase_distance(extracted.reshape(-1, d * d), predicted.reshape(-1, d * d))
    _require_close(residual, names, "isometry composition")
    _require_unitary(predicted, names)
    fidelity = np.abs(np.einsum("ni,ni->n", maxent_vectors(predicted).conj(), pair14))
    labels = tuple(f"composed@{a},{b}" for a, b in zip(k.tolist(), l.tolist()))
    return OutcomeStack(d, np.stack([k, l], axis=-1), probability, pair14, extracted,
                        fidelity, labels)


def swap(
    alice_outcome: tuple[int, int], i12: Isometry, i34: Isometry
) -> tuple[np.ndarray, Isometry]:
    """Entanglement swapping for one outcome: ``swap_stack`` on a batch of one.

    Returns the (1, 4) pair state and the isometry extracted from it.
    """
    k, l = alice_outcome
    (out,) = swap_stack([k], [l], i12, i34).outcomes()
    return out.post_state, out.correction


def swap_outcomes(i12: Isometry, i34: Isometry) -> list[BellMeasurementOutcome]:
    """Exhaustive swapping trace over all d^2 Bell outcomes on the (2, 3) pair."""
    return swap_stack(*weyl_indices(i12.d), i12, i34).outcomes()
