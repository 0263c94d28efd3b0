"""Teleportation and entanglement swapping in arbitrary dimension d.

Both protocols rest on the identification of maximally entangled vectors with
isometries between equal-dimension factors:

    |psi>_12 = (1/sqrt(d)) sum_i |i>_1 (x) |I_12 i>_2.

One subtlety is load-bearing: a *measurement outcome* enters through a bra, so
the transfer map it realizes is the entrywise conjugate of its ket-convention
isometry.  With that convention the composition laws hold on the nose:
teleportation realizes I_13 = I_23 . conj(I_12) and swapping realizes
I_14 = I_34 . conj(I_23) . I_12 (matrix products, rightmost factor first).
Every simulated outcome obeys five laws, checked on every outcome:

1. unitarity: teleportation's correction and swapping's extracted and
   predicted isometries are unitary within UNITARY_TOL (ValueError);
2. flatness: a swapped pair's Schmidt coefficients are 1/sqrt(d), by law 1
   and not a separate check: the pair's isometry M has max_k |s_k - 1/sqrt(d)|
   <= sqrt(d) * max|M M^dagger - 1|, and a pair whose M fails law 1 is
   reported as not maximally entangled (ValueError);
3. composition: the branch equals the algebraic composition up to a global
   phase within NORM_TOL (ProtocolCheckError);
4. probability: the outcome occurs with probability 1/d^2 within UNITARY_TOL
   (ProtocolCheckError);
5. fidelity: its correction recovers the target with fidelity 1 within
   NORM_TOL (ProtocolCheckError).

The kernels check laws 1 and 3.  ``OutcomeStack`` checks the last two when
it is built, so every stack obeys them, whoever builds it.

Each protocol is one kernel over a stack of outcomes (k, l), ``teleport_stack``
and ``swap_stack``: the joint vector is built once, and every branch's
contraction, normalization, extraction and check runs on the whole stack; a
failing check names the first failing outcome.  Both open with one Bell step,
``_bell_step``: each outcome's bra times the joint vector held as a matrix whose
rows are the measured pair, one BLAS product per outcome so that a batch of one
equals its row of any batch bit for bit, then normalized.  ``teleport``/``swap``
are a batch of one, ``teleport_outcomes``/``swap_outcomes`` a batch of all d^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NORM_TOL, UNITARY_TOL, _prechecked, hold, require, require_finite, unitary_deviation
from .states import maxent_vectors, require_dimension, weyl_basis_state, weyl_indices, weyl_operator


class ProtocolCheckError(AssertionError):
    """A protocol law (composition, probability 1/d^2 or fidelity 1) failed."""


@dataclass(frozen=True, eq=False)
class Isometry:
    """Unitary identification between two d-dimensional factors."""

    map: np.ndarray
    d: int
    label: str = ""

    def __post_init__(self):
        require_dimension(self.d)
        m = hold(self, "map")
        if m.shape != (self.d, self.d):
            raise ValueError(f"isometry matrix shape {m.shape} does not match d = {self.d}")
        require_finite(m, "isometry matrix")
        _require_unitary(m, [""])

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
    composition), named by the str ``labels[n]``; every field is held as a copy,
    the labels as a tuple.  Construction checks that every field has one row per
    outcome and every label is a str (ValueError naming the field), then that
    every probability is 1/d^2 within UNITARY_TOL, then that every fidelity is
    1 within NORM_TOL, and names the first failing outcome.
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
        n = len(self.indices) if self.indices.ndim else 0
        # None: any length
        rows = {"indices": (n, 2), "probabilities": (n,), "post_states": (n, None),
                "maps": (n, self.d, self.d), "fidelities": (n,), "labels": (n,)}
        for name, want in rows.items():
            value = getattr(self, name)
            got = (len(value),) if isinstance(value, (tuple, list)) else np.shape(value)
            if len(got) != len(want) or any(w not in (None, g) for w, g in zip(want, got)):
                raise ValueError(f"OutcomeStack {name} has shape {got}, expected {want}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if not {str}.issuperset(map(type, self.labels)):
            at, label = next((i, s) for i, s in enumerate(self.labels) if type(s) is not str)
            raise ValueError(f"OutcomeStack labels entry {at} is {label!r}, expected a str")
        require(np.abs(p - 1.0 / (self.d * self.d)) <= UNITARY_TOL, lambda n: ProtocolCheckError(
            f"outcome {self.indices[n].tolist()}: probability {float(p[n])} != 1/d^2"))
        require(np.abs(f - 1.0) <= NORM_TOL, lambda n: ProtocolCheckError(
            f"outcome {self.indices[n].tolist()}: fidelity {float(f[n])} != 1"))

    def outcomes(self) -> list[BellMeasurementOutcome]:
        """One BellMeasurementOutcome per row.  Its correction's map is not checked again:
        the kernel that built the stack checked every map's unitarity within UNITARY_TOL."""
        return [
            BellMeasurementOutcome((k, l), p, state, _prechecked(Isometry, map=m, d=self.d, label=label), f)
            for (k, l), p, state, m, f, label in zip(
                self.indices.tolist(), self.probabilities.tolist(), self.post_states,
                self.maps, self.fidelities.tolist(), self.labels,
            )
        ]


def maxent_from_isometry(iso: Isometry) -> np.ndarray:
    """Maximally entangled vector (1/sqrt(d)) sum_i |i> (x) |iso i>."""
    return maxent_vectors(iso.map)


def _isometry_maps(v: np.ndarray, d: int, names) -> np.ndarray:
    """Inverse of ``states.maxent_vectors`` on a (..., d*d) stack, after checking
    that each vector is finite and maximally entangled, i.e. that its map M is
    unitary within UNITARY_TOL; ``names[n]`` prefixes the message for vector n.

    M M^dagger - 1 has eigenvalues d s_k^2 - 1 over the Schmidt coefficients s_k
    and a spectral norm at most d times its largest entry, so a unitary M has
    every s_k within sqrt(d) * UNITARY_TOL of 1/sqrt(d).
    """
    def error(n: int) -> ValueError:
        return ValueError(f"{names[n]}input vector is not maximally entangled")
    require(np.isfinite(v).all(axis=-1), error)
    maps = np.sqrt(d) * np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)
    require(unitary_deviation(maps) <= UNITARY_TOL, error)
    return maps


def isometry_of_maxent(v: np.ndarray, d: int) -> Isometry:
    """Inverse of maxent_from_isometry (exact, no phase freedom).

    Raises ValueError when d is not a positive integer, or when the input is
    not maximally entangled, i.e. when its isometry is not unitary within
    UNITARY_TOL.
    """
    require_dimension(d)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise ValueError(f"vector of length {v.size} does not match d = {d}")
    return _prechecked(Isometry, map=_isometry_maps(v, d, [""]), d=d, label="")


def _phase_distance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max-norm distance between each row of u and of v after removing one
    global phase per row.

    The phase is extracted at the largest-magnitude entry of the reference row
    of v and applied to v; a single shared pivot keeps the comparison stable
    when several entries tie in magnitude.  Where that pivot is zero in u or
    v, the rows are compared as they are.  u and v have one shape.
    """
    idx = np.abs(v).argmax(axis=-1)
    at = idx + v.shape[-1] * np.arange(idx.size).reshape(idx.shape)  # flat index of each pivot
    pu, pv = u.take(at)[..., None], v.take(at)[..., None]
    zero = (pu == 0.0) | (pv == 0.0)
    phase = np.where(zero, 1.0, pu / np.where(zero, 1.0, pv))
    return np.abs(u - phase / np.abs(phase) * v).max(axis=-1)


def _require_unitary(maps: np.ndarray, names: list[str]) -> None:
    """Each map is unitary within UNITARY_TOL."""
    require(unitary_deviation(maps) <= UNITARY_TOL,
            lambda n: ValueError(f"{names[n]}isometry matrix must be unitary"))


def _require_close(residual: np.ndarray, names: list[str], law: str) -> None:
    require(residual <= NORM_TOL, lambda n: ProtocolCheckError(
        f"{names[n]}{law} violated by {residual[n]:.3e}"))


class _OutcomeNames:
    """``names[n]``: the message prefix of outcome (k[n], l[n]), formatted only
    when a failing check reads it."""

    def __init__(self, k: np.ndarray, l: np.ndarray):
        self.k, self.l = k, l

    def __getitem__(self, n: int) -> str:
        return f"outcome ({self.k[n]},{self.l[n]}): "


def _bell_step(k, l, d: int, joint: np.ndarray):
    """The Bell measurement both kernels open with: for each outcome (k[n], l[n]),
    broadcast to 1-D, the bra <chi_kl| times ``joint``, whose rows are the measured
    pair's basis states.  Returns the (N, 2) indices, the ``_OutcomeNames`` of
    the outcomes, and each branch's probability and normalized state.

    One vector-matrix product per outcome, never one product over the whole
    stack, so that a batch of one equals its row of any batch bit for bit.
    """
    k, l = np.broadcast_arrays(np.ravel(k), np.ravel(l))
    branch = (weyl_basis_state(k, l, d).conj()[:, None, :] @ joint)[:, 0, :]
    probability = np.einsum("ni,ni->n", branch.conj(), branch).real
    normalized = branch / np.sqrt(probability)[:, None]
    return np.stack([k, l], axis=-1), _OutcomeNames(k, l), probability, normalized


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
    joint = np.multiply.outer(phi, maxent_vectors(np.eye(d, dtype=complex))).reshape(d * d, d)
    indices, names, probability, bob = _bell_step(k, l, d, joint)

    correction = weyl_operator(*indices.T, d).conj()
    _require_unitary(correction, names)
    _require_close(_phase_distance(bob, correction @ phi), names, "composition law")
    recovered = np.einsum("nji,nj->ni", correction.conj(), bob)
    fidelity = np.abs(recovered @ phi.conj())
    labels = tuple(f"W[{a},{(d - b) % d}]" for a, b in indices.tolist())
    return OutcomeStack(d, indices, probability, bob, correction, fidelity, labels)


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
    pair is maximally entangled (its extracted isometry is unitary), that
    isometry equals the product entrywise up to global phase, and the product
    is unitary.  The fidelity is the overlap of the pair with maxent(I_14).
    """
    if i12.d != i34.d:
        raise ValueError(f"resource dimension mismatch: {i12.d} vs {i34.d}")
    d = i12.d
    joint = np.multiply.outer(maxent_from_isometry(i12), maxent_from_isometry(i34))
    # rows (b, c): the measured pair (2, 3); columns (a, e): the pair (1, 4)
    joint = joint.reshape(d, d * d, d).transpose(1, 0, 2).reshape(d * d, d * d)
    indices, names, probability, pair14 = _bell_step(k, l, d, joint)

    extracted = _isometry_maps(pair14, d, names)
    predicted = i34.map @ weyl_operator(*indices.T, d).conj() @ i12.map
    residual = _phase_distance(extracted.reshape(-1, d * d), predicted.reshape(-1, d * d))
    _require_close(residual, names, "isometry composition")
    _require_unitary(predicted, names)
    fidelity = np.abs(np.einsum("ni,ni->n", maxent_vectors(predicted).conj(), pair14))
    labels = tuple(f"composed@{a},{b}" for a, b in indices.tolist())
    return OutcomeStack(d, indices, probability, pair14, extracted, fidelity, labels)


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
