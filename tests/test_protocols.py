import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import (
    Isometry,
    ProtocolCheckError,
    bell_vector,
    isometry_of_maxent,
    maxent_from_isometry,
    partial_trace,
    swap,
    swap_outcomes,
    teleport,
    teleport_outcomes,
    weyl_basis_state,
    weyl_operator,
)
from factorlab import protocols
from factorlab.protocols import OutcomeStack, swap_stack, teleport_stack
from factorlab.states import weyl_indices
from conftest import haar_unitary, haar_vector

# The stacked kernels sum in another order than the per-branch loop, so rows
# are compared to it within a few dozen ulps of float64.
STACK_TOL = 64 * np.finfo(float).eps


def assert_equal_up_to_phase(u, v, tol=1e-9):
    # remove the single global phase at the reference's largest entry
    u, v = np.asarray(u).reshape(-1), np.asarray(v).reshape(-1)
    idx = int(np.argmax(np.abs(v)))
    phase = u[idx] / v[idx]
    phase /= abs(phase)
    np.testing.assert_allclose(u, phase * v, atol=tol)


class TestIsometry:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Isometry(np.ones((2, 2)), 2)

    def test_composition_associative(self, rng):
        a, b, c = (Isometry(haar_unitary(rng, 3), 3) for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        np.testing.assert_allclose(left.map, right.map, atol=1e-12)

    def test_weyl_constructor_label(self):
        iso = Isometry.weyl(1, 2, 3)
        assert iso.label == "W[1,2]"
        np.testing.assert_allclose(iso.map, weyl_operator(1, 2, 3), atol=1e-15)

    def test_weyl_constructor_rejects_non_integer_index(self):
        with pytest.raises(ValueError, match=r"^indices \(k, l\) = \(0, 1\.5\) must be integers$"):
            Isometry.weyl(0, 1.5, 3)


    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_is_named_before_unitarity(self, bad):
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        with pytest.raises(ValueError, match=rf"^isometry matrix entry \(1, 0\) is \({bad}\+0j\)$"):
            Isometry(m, 2)

class TestMaxentIsometryCorrespondence:
    def test_identity_d2_gives_phi_plus(self):
        v = maxent_from_isometry(Isometry.identity(2))
        np.testing.assert_allclose(v, bell_vector("phi+"), atol=1e-15)

    def test_identity_d3(self):
        v = maxent_from_isometry(Isometry.identity(3))
        expected = np.zeros(9, dtype=complex)
        expected[[0, 4, 8]] = 1 / np.sqrt(3)
        np.testing.assert_allclose(v, expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_weyl_isometry_gives_weyl_vector(self, d):
        for k in range(d):
            for l in range(d):
                v = maxent_from_isometry(Isometry.weyl(k, l, d))
                np.testing.assert_allclose(v, weyl_basis_state(k, l, d), atol=1e-12)

    def test_phi_plus_gives_identity(self):
        iso = isometry_of_maxent(bell_vector("phi+"), 2)
        np.testing.assert_allclose(iso.map, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_weyl_vector_gives_weyl_operator(self, d):
        for k in range(d):
            for l in range(d):
                iso = isometry_of_maxent(weyl_basis_state(k, l, d), d)
                np.testing.assert_allclose(iso.map, weyl_operator(k, l, d), atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed, d):
        rng = np.random.default_rng(seed)
        iso = Isometry(haar_unitary(rng, d), d)
        again = isometry_of_maxent(maxent_from_isometry(iso), d)
        np.testing.assert_allclose(again.map, iso.map, atol=1e-10)

    def test_rejects_partially_entangled(self):
        v = np.array([0.9, 0.0, 0.0, np.sqrt(1 - 0.81)], dtype=complex)
        with pytest.raises(ValueError):
            isometry_of_maxent(v, 2)

    @pytest.mark.parametrize("scale", [1 + 1e-6, 1 + 1e-9])
    def test_non_unitary_isometry_is_not_maximally_entangled(self, scale):
        # Schmidt flatness 3.8e-7 and 3.8e-10; both isometries are further
        # than UNITARY_TOL from unitary
        v = weyl_basis_state(1, 1, 3).copy()
        v[np.abs(v).argmax()] *= scale
        with pytest.raises(ValueError, match=r"^input vector is not maximally entangled$"):
            isometry_of_maxent(v / np.linalg.norm(v), 3)


class TestTeleport:
    def test_trivial_outcome_is_identity(self, rng):
        phi = haar_vector(rng, 2)
        bob, correction, prob = teleport(phi, (0, 0))
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert_equal_up_to_phase(bob, phi)
        np.testing.assert_allclose(correction.map, np.eye(2), atol=1e-12)

    def test_d2_corrections_are_weyl_class(self, rng):
        phi = haar_vector(rng, 2)
        outcomes = teleport_outcomes(phi)
        assert len(outcomes) == 4
        for out in outcomes:
            k, l = out.index
            np.testing.assert_allclose(
                out.correction.map, weyl_operator(k, (2 - l) % 2, 2), atol=1e-12
            )
            recovered = out.correction.map.conj().T @ out.post_state
            assert abs(np.vdot(phi, recovered)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_probabilities(self, rng, d):
        phi = haar_vector(rng, d)
        outcomes = teleport_outcomes(phi)
        assert len(outcomes) == d * d
        total = 0.0
        for out in outcomes:
            assert out.probability == pytest.approx(1.0 / d**2, abs=1e-10)
            assert out.fidelity == pytest.approx(1.0, abs=1e-9)
            total += out.probability
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bob_state_is_correction_applied_to_input(self, rng):
        phi = haar_vector(rng, 3)
        for k in range(3):
            for l in range(3):
                bob, correction, _ = teleport(phi, (k, l))
                assert_equal_up_to_phase(bob, correction.map @ phi)

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError):
            teleport(np.array([1.0, 1.0]), (0, 0))


class TestSwap:
    def test_identity_resources_trivial_outcome(self):
        ident = Isometry.identity(2)
        pair, composed = swap((0, 0), ident, ident)
        assert_equal_up_to_phase(pair, bell_vector("phi+"))
        np.testing.assert_allclose(composed.map, np.eye(2), atol=1e-10)

    def test_identity_resources_d2_outcomes_label_weyl(self):
        # for d = 2 the conjugated Weyl operators coincide with the plain ones
        ident = Isometry.identity(2)
        for k in range(2):
            for l in range(2):
                _, composed = swap((k, l), ident, ident)
                assert_equal_up_to_phase(
                    composed.map.reshape(-1), weyl_operator(k, l, 2).reshape(-1)
                )

    @pytest.mark.parametrize("d", [2, 3])
    def test_composition_law_random_resources(self, rng, d):
        i12 = Isometry(haar_unitary(rng, d), d)
        i34 = Isometry(haar_unitary(rng, d), d)
        for k in range(d):
            for l in range(d):
                pair, composed = swap((k, l), i12, i34)
                predicted = i34.map @ weyl_operator(k, l, d).conj() @ i12.map
                assert_equal_up_to_phase(composed.map.reshape(-1), predicted.reshape(-1))
                assert_equal_up_to_phase(
                    pair, maxent_from_isometry(Isometry(predicted, d))
                )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_probabilities_and_maximal_output(self, rng, d):
        i12 = Isometry(haar_unitary(rng, d), d)
        i34 = Isometry(haar_unitary(rng, d), d)
        outcomes = swap_outcomes(i12, i34)
        assert len(outcomes) == d * d
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)
        for out in outcomes:
            assert out.probability == pytest.approx(1.0 / d**2, abs=1e-10)
            assert out.fidelity == pytest.approx(1.0, abs=1e-9)
            full = np.outer(out.post_state, out.post_state.conj())
            for keep in ("first", "second"):
                red = partial_trace(full, (d, d), keep=keep)
                np.testing.assert_allclose(red, np.eye(d) / d, atol=1e-9)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            swap((0, 0), Isometry.identity(2), Isometry.identity(3))


# ---------------------------------------------------------------------------
# Reference oracle: the per-branch loop the stacked kernels replaced.  Each
# branch rebuilds the joint vector, the Weyl operator and its Isometry objects.

def reference_weyl_operator(k, l, d):
    w = np.zeros((d, d), dtype=complex)
    for j in range(d):
        w[(j + k) % d, j] = np.exp(2j * np.pi * j * l / d)
    return w


def reference_teleport_branch(phi, k, l):
    """(probability, Bob's state, correction, fidelity) of outcome (k, l)."""
    d = phi.size
    joint = np.kron(phi, maxent_from_isometry(Isometry.identity(d))).reshape(d, d, d)
    chi = weyl_basis_state(k, l, d).reshape(d, d)
    branch = np.einsum("ab,abc->c", chi.conj(), joint)
    probability = float(np.vdot(branch, branch).real)
    bob = branch / np.sqrt(probability)
    correction = Isometry(reference_weyl_operator(k, l, d).conj(), d)
    assert protocols._phase_distance(bob, correction.map @ phi) <= 1e-9
    fidelity = float(abs(np.vdot(phi, correction.map.conj().T @ bob)))
    return probability, bob, correction.map, fidelity


def reference_swap_branch(k, l, i12, i34):
    """(probability, pair (1, 4), extracted isometry, fidelity) of outcome (k, l)."""
    d = i12.d
    joint = np.kron(maxent_from_isometry(i12), maxent_from_isometry(i34)).reshape(d, d, d, d)
    chi = weyl_basis_state(k, l, d).reshape(d, d)
    branch = np.einsum("bc,abce->ae", chi.conj(), joint).reshape(-1)
    probability = float(np.vdot(branch, branch).real)
    pair = branch / np.sqrt(probability)
    extracted = isometry_of_maxent(pair, d)
    predicted = Isometry(i34.map @ reference_weyl_operator(k, l, d).conj() @ i12.map, d)
    assert protocols._phase_distance(extracted.map.reshape(-1), predicted.map.reshape(-1)) <= 1e-9
    fidelity = float(abs(np.vdot(maxent_from_isometry(predicted), pair)))
    return probability, pair, extracted.map, fidelity


def assert_stack_matches(stack, reference):
    """Every row of ``stack`` against ``reference(k, l)``, k-major order."""
    d = stack.d
    assert stack.indices.tolist() == [[k, l] for k in range(d) for l in range(d)]
    for n, (k, l) in enumerate(stack.indices.tolist()):
        probability, state, matrix, fidelity = reference(k, l)
        assert abs(stack.probabilities[n] - probability) <= STACK_TOL
        np.testing.assert_allclose(stack.post_states[n], state, rtol=0, atol=STACK_TOL)
        np.testing.assert_allclose(stack.maps[n], matrix, rtol=0, atol=STACK_TOL)
        assert abs(stack.fidelities[n] - fidelity) <= STACK_TOL


def reference_phase_distance(u, v):
    """The single-row phase distance the stacked one replaced."""
    idx = int(np.argmax(np.abs(v)))
    if abs(v[idx]) == 0.0 or abs(u[idx]) == 0.0:
        return float(np.max(np.abs(u - v)))
    phase = u[idx] / v[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


class TestPhaseDistance:
    def test_rows_follow_the_single_row_rules(self, rng):
        v = haar_unitary(rng, 4)
        u = np.exp(0.4j) * v
        u[1, 2] += 1e-3                  # a deviation survives the phase removal
        v[2] = 0.0                       # zero reference row: plain distance
        u[3, np.argmax(np.abs(v[3]))] = 0.0  # zero at the pivot: plain distance
        got = protocols._phase_distance(u, v)
        want = [reference_phase_distance(a, b) for a, b in zip(u, v)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert got[0] <= 1e-15 and got[1] > 5e-4 and got[2] == np.max(np.abs(u[2]))

    def test_tied_magnitudes_share_the_first_pivot(self):
        v = np.array([[1.0, 1.0j, -1.0]]) / np.sqrt(3)
        u = np.exp(-1.1j) * v
        assert protocols._phase_distance(u, v)[0] <= 1e-15


class TestStackedKernels:
    def test_weyl_operator_stack_equals_scalar_loop(self):
        for d in range(1, 13):
            k, l = weyl_indices(d)
            stack = weyl_operator(k, l, d)
            assert stack.shape == (d * d, d, d)
            for n in range(d * d):
                ref = reference_weyl_operator(int(k[n]), int(l[n]), d)
                assert (stack[n] == ref).all()
                assert (weyl_operator(int(k[n]), int(l[n]), d) == ref).all()
            vectors = weyl_basis_state(k, l, d)
            assert (vectors == stack.transpose(0, 2, 1).reshape(d * d, -1) / np.sqrt(d)).all()

    def test_weyl_operator_names_first_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(k, l\) = \(1, 3\) out of range for d = 3"):
            weyl_operator([0, 1, 2], [1, 3, 4], 3)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_teleport_stack_matches_per_branch_oracle(self, rng, d):
        phi = haar_vector(rng, d)
        stack = teleport_stack(phi, *weyl_indices(d))
        assert_stack_matches(stack, lambda k, l: reference_teleport_branch(phi, k, l))
        assert stack.labels == tuple(f"W[{k},{(d - l) % d}]" for k in range(d) for l in range(d))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_swap_stack_matches_per_branch_oracle(self, rng, d):
        i12 = Isometry(haar_unitary(rng, d), d)
        i34 = Isometry(haar_unitary(rng, d), d)
        stack = swap_stack(*weyl_indices(d), i12, i34)
        assert_stack_matches(stack, lambda k, l: reference_swap_branch(k, l, i12, i34))
        assert stack.labels == tuple(f"composed@{k},{l}" for k in range(d) for l in range(d))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_single_outcome_is_a_batch_of_one(self, rng, d):
        phi = haar_vector(rng, d)
        i12 = Isometry(haar_unitary(rng, d), d)
        i34 = Isometry(haar_unitary(rng, d), d)
        teleported = teleport_outcomes(phi)
        swapped = swap_outcomes(i12, i34)
        for n, (k, l) in enumerate(zip(*weyl_indices(d))):
            bob, correction, probability = teleport(phi, (k, l))
            assert np.array_equal(bob, teleported[n].post_state)
            assert probability == teleported[n].probability
            assert np.array_equal(correction.map, teleported[n].correction.map)
            assert correction.label == teleported[n].correction.label
            pair, composed = swap((k, l), i12, i34)
            assert np.array_equal(pair, swapped[n].post_state)
            assert np.array_equal(composed.map, swapped[n].correction.map)


# ---------------------------------------------------------------------------
# Mutation tests: a wrong branch must fail its check and name its outcome.

def corrupt_outcome(monkeypatch, name, target, change):
    """Replace ``protocols.<name>`` by a version whose row for outcome
    ``target`` is passed through ``change``."""
    original = getattr(protocols, name)

    def corrupted(k, l, d):
        out = np.array(original(k, l, d))
        hit = (np.ravel(k) == target[0]) & (np.ravel(l) == target[1])
        out[hit] = change(out[hit], d)
        return out

    monkeypatch.setattr(protocols, name, corrupted)


def phase_on_later_rows(chi, d):
    """Multiply the j >= 1 terms of chi_kl by one phase: still a maximally
    entangled unit vector, but no longer chi_kl up to a global phase."""
    return chi * np.where(np.arange(d * d) >= d, np.exp(0.7j), 1.0)


class TestPerOutcomeChecks:
    @pytest.mark.parametrize("target", [(0, 0), (1, 2), (2, 1)])
    def test_teleport_corrupted_weyl_phase_names_outcome(self, rng, monkeypatch, target):
        phi = haar_vector(rng, 3)
        corrupt_outcome(monkeypatch, "weyl_basis_state", target, phase_on_later_rows)
        with pytest.raises(ProtocolCheckError,
                           match=rf"^outcome \({target[0]},{target[1]}\): composition law violated"):
            teleport_outcomes(phi)

    @pytest.mark.parametrize("target", [(0, 1), (2, 2)])
    def test_swap_corrupted_weyl_phase_names_outcome(self, rng, monkeypatch, target):
        i12 = Isometry(haar_unitary(rng, 3), 3)
        i34 = Isometry(haar_unitary(rng, 3), 3)
        corrupt_outcome(monkeypatch, "weyl_basis_state", target, phase_on_later_rows)
        with pytest.raises(ProtocolCheckError,
                           match=rf"^outcome \({target[0]},{target[1]}\): isometry composition violated"):
            swap_outcomes(i12, i34)

    def test_swap_partially_entangled_branch_names_outcome(self, monkeypatch):
        ident = Isometry.identity(3)
        corrupt_outcome(monkeypatch, "weyl_basis_state", (1, 1),
                        lambda chi, d: chi * np.where(np.arange(d * d) < d, 1.5, 1.0))
        with pytest.raises(ValueError,
                           match=r"^outcome \(1,1\): input vector is not maximally entangled"):
            swap_outcomes(ident, ident)

    def test_swap_barely_non_unitary_branch_names_outcome(self, monkeypatch):
        # Schmidt flatness below MAXENT_TOL, isometry further than UNITARY_TOL from unitary
        ident = Isometry.identity(3)
        corrupt_outcome(monkeypatch, "weyl_basis_state", (1, 1),
                        lambda chi, d: chi * np.where(np.arange(d * d) < d, 1 + 1e-9, 1.0))
        with pytest.raises(ValueError,
                           match=r"^outcome \(1,1\): input vector is not maximally entangled$"):
            swap_outcomes(ident, ident)

    def test_non_unitary_correction_names_outcome(self, rng, monkeypatch):
        corrupt_outcome(monkeypatch, "weyl_operator", (2, 0), lambda w, d: 1.01 * w)
        with pytest.raises(ValueError, match=r"^outcome \(2,0\): isometry matrix must be unitary"):
            teleport_outcomes(haar_vector(rng, 3))

    def test_non_unitary_prediction_names_outcome(self, monkeypatch):
        # the extracted isometry is unitary, so a scaled prediction fails the
        # composition check, which runs before the prediction's own unitarity
        corrupt_outcome(monkeypatch, "weyl_operator", (2, 0), lambda w, d: 1.01 * w)
        with pytest.raises(ProtocolCheckError, match=r"^outcome \(2,0\): isometry composition violated"):
            swap_outcomes(Isometry.identity(3), Isometry.identity(3))

    def test_non_unitary_resource_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"^isometry matrix must be unitary$"):
            swap_outcomes(Isometry(np.ones((2, 2)), 2), Isometry.identity(2))


class TestOutcomeLaws:
    """Every OutcomeStack checks probability 1/d^2, then fidelity 1, when it is
    built, so each caller of the kernels gets both laws."""

    @pytest.mark.parametrize("call", [
        lambda phi, iso: teleport_outcomes(phi),
        lambda phi, iso: swap_outcomes(iso, iso),
        lambda phi, iso: teleport(phi, (1, 0)),
        lambda phi, iso: swap((1, 0), iso, iso),
    ], ids=["teleport_outcomes", "swap_outcomes", "teleport", "swap"])
    def test_wrong_probability_names_outcome(self, rng, monkeypatch, call):
        # 1.5 chi_10 leaves every branch state as it was, but outcome (1, 0)
        # then has probability 2.25 / 4
        phi, iso = haar_vector(rng, 2), Isometry(haar_unitary(rng, 2), 2)
        corrupt_outcome(monkeypatch, "weyl_basis_state", (1, 0), lambda chi, d: 1.5 * chi)
        with pytest.raises(ProtocolCheckError, match=r"^outcome \[1, 0\]: probability 0\.562\d* != 1/d\^2$"):
            call(phi, iso)

    def test_nan_fidelity_names_first_bad_row(self, rng):
        stack = teleport_stack(haar_vector(rng, 2), *weyl_indices(2))
        with pytest.raises(ProtocolCheckError, match=r"^outcome \[0, 1\]: fidelity nan != 1$"):
            OutcomeStack(2, stack.indices, stack.probabilities, stack.post_states, stack.maps,
                         np.array([1.0, np.nan, np.nan, 1.0]), stack.labels)

    # field -> a value of the wrong shape for a stack of 4 outcomes
    MISSHAPEN = {
        "indices": lambda s: s.indices[:, 0],
        "probabilities": lambda s: s.probabilities[:3],
        "post_states": lambda s: s.post_states[:3],
        "maps": lambda s: s.maps[:, :, :1],
        "fidelities": lambda s: s.fidelities[:0],
        "labels": lambda s: s.labels[:3],
    }

    @pytest.mark.parametrize("field", MISSHAPEN)
    def test_field_without_one_row_per_outcome_is_named(self, rng, field):
        stack = teleport_stack(haar_vector(rng, 2), *weyl_indices(2))
        with pytest.raises(ValueError, match=rf"^OutcomeStack {field} has shape "):
            dataclasses.replace(stack, **{field: self.MISSHAPEN[field](stack)})

    def test_labels_are_held_as_a_tuple(self, rng):
        stack = teleport_stack(haar_vector(rng, 2), *weyl_indices(2))
        labels = list(stack.labels)
        held = dataclasses.replace(stack, labels=labels)
        labels.append("x")
        assert held.labels == stack.labels and type(held.labels) is tuple
        assert len(held.labels) == len(held.indices) == 4
        with pytest.raises(ValueError, match=r"^OutcomeStack labels has shape \(\), expected \(4,\)$"):
            dataclasses.replace(stack, labels="".join(s[0] for s in stack.labels))

    def test_probability_is_checked_before_fidelity(self, rng):
        stack = teleport_stack(haar_vector(rng, 2), *weyl_indices(2))
        with pytest.raises(ProtocolCheckError, match=r"^outcome \[1, 1\]: probability 0\.3 != 1/d\^2$"):
            OutcomeStack(2, stack.indices, np.array([0.25, 0.25, 0.25, 0.3]), stack.post_states,
                         stack.maps, np.array([0.5, 1.0, 1.0, 1.0]), stack.labels)
