"""The protocol helpers against the numpy expressions they replaced, bit for bit.

The joint vector is one outer product instead of ``np.kron``; the phase pivot
of ``protocols._phase_distance`` is gathered by a flat integer index instead
of ``np.take_along_axis``; ``states.weyl_operator`` scatters rows of one d x d
phase table into a zeroed stack instead of a broadcast ``np.where``; and
``linalg.unitary_deviation`` subtracts 1 on the diagonal in place instead of
subtracting ``np.eye``.  Each does the same floating-point operations as the
former expression written out below, so each must equal it in every bit,
signed zeros included.  ``linalg.require`` checks ``ok.all()`` before it
looks for the first failing entry; the inputs that shortcut must handle are
pinned last.
"""

import warnings

import numpy as np
import pytest

from factorlab import protocols, states
from factorlab.linalg import require, unitary_deviation
from factorlab.protocols import Isometry, OutcomeStack, _bell_step, _phase_distance, teleport_stack
from factorlab.states import maxent_vectors, weyl_indices, weyl_operator
from conftest import haar_unitary, haar_vector


def assert_same_bits(got, want):
    """Same shape and dtype, equal as floats and in every sign bit."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    got, want = got.view(float), want.view(float)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def former_phase_distance(u, v):
    idx = np.argmax(np.abs(v), axis=-1)[..., None]
    pu = np.take_along_axis(u, idx, -1)
    pv = np.take_along_axis(v, idx, -1)
    zero = (pu == 0.0) | (pv == 0.0)
    phase = np.where(zero, 1.0, pu / np.where(zero, 1.0, pv))
    return np.abs(u - phase / np.abs(phase) * v).max(axis=-1)


def former_weyl_operator(k, l, d):
    states.require_dimension(d)
    k, l = np.broadcast_arrays(k, l)

    def error(i, problem):
        return ValueError(f"indices (k, l) = ({np.ravel(k)[i]}, {np.ravel(l)[i]}) {problem}")
    if k.size and not (k.dtype.kind in "iu" and l.dtype.kind in "iu"):
        raise error(0, "must be integers")
    require((0 <= k) & (k < d) & (0 <= l) & (l < d), lambda i: error(i, f"out of range for d = {d}"))
    j = np.arange(d)
    row = (j + k[..., None]) % d
    phase = np.exp(1j * ((2 * np.pi * j * l[..., None]) / d))
    return np.where(j[:, None] == row[..., None, :], phase[..., None, :], 0)


def former_unitary_deviation(m):
    return np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1])).max(axis=(-2, -1))


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestJointVector:
    """Both kernels build their joint vector as one outer product; the Bell step
    on it equals the Bell step on the former ``np.kron``."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_teleport(self, rng, d):
        phi = haar_vector(rng, d)
        resource = maxent_vectors(np.eye(d, dtype=complex))
        joint = np.kron(phi, resource)
        assert_same_bits(np.multiply.outer(phi, resource).ravel(), joint)
        stack = teleport_stack(phi, *weyl_indices(d))
        _, _, probability, bob = _bell_step(*weyl_indices(d), d, joint.reshape(d * d, d))
        assert_same_bits(stack.probabilities, probability)
        assert_same_bits(stack.post_states, bob)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_swap(self, rng, d):
        i12, i34 = Isometry(haar_unitary(rng, d), d), Isometry(haar_unitary(rng, d), d)
        v12, v34 = maxent_vectors(i12.map), maxent_vectors(i34.map)
        joint = np.kron(v12, v34)
        assert_same_bits(np.multiply.outer(v12, v34).ravel(), joint)
        stack = protocols.swap_stack(*weyl_indices(d), i12, i34)
        joint = joint.reshape(d, d * d, d).transpose(1, 0, 2).reshape(d * d, d * d)
        _, _, probability, pair14 = _bell_step(*weyl_indices(d), d, joint)
        assert_same_bits(stack.probabilities, probability)
        assert_same_bits(stack.post_states, pair14)


class TestPhaseDistanceGather:
    """The flat integer gather of the pivot equals ``np.take_along_axis``."""

    @pytest.mark.parametrize("shape", [(5,), (1, 5), (7, 5), (3, 4, 5), (0, 5), (2, 0, 5)])
    def test_random_rows(self, rng, shape):
        u, v = complex_normal(rng, *shape), complex_normal(rng, *shape)
        assert_same_bits(_phase_distance(u, v), former_phase_distance(u, v))
        assert_same_bits(_phase_distance(u, u * np.exp(0.3j)), former_phase_distance(u, u * np.exp(0.3j)))

    def test_tied_maxima_take_the_first(self, rng):
        # every row of v has entries of one magnitude: the pivot is entry 0
        d = 4
        v = weyl_operator(*weyl_indices(d), d).reshape(-1, d * d)[:, :d] * np.exp(1j * rng.uniform(size=(d * d, 1)))
        u = complex_normal(rng, d * d, d)
        for a, b in [(u, v), (u[0], v[0]), (u.reshape(4, 4, d), v.reshape(4, 4, d))]:
            assert_same_bits(_phase_distance(a, b), former_phase_distance(a, b))

    def test_zero_pivots(self, rng):
        v = complex_normal(rng, 6, 5)
        u = v * np.exp(1j * rng.uniform(size=(6, 1)))
        pivot = np.abs(v).argmax(axis=-1)
        u[[0, 1], pivot[[0, 1]]] = 0.0   # zero in u
        v[2] = 0.0                       # an all-zero reference row
        u[3], v[3] = 0.0, -0.0           # both zero, one signed
        for a, b in [(u, v), (u[1], v[1]), (u[2], v[2]), (u.reshape(2, 3, 5), v.reshape(2, 3, 5))]:
            assert_same_bits(_phase_distance(a, b), former_phase_distance(a, b))


class TestWeylOperatorScatter:
    """The scattered phase table equals the former broadcast ``np.where``."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_every_operator_scalar_and_stacked(self, d):
        k, l = weyl_indices(d)
        assert_same_bits(weyl_operator(k, l, d), former_weyl_operator(k, l, d))
        for a, b in zip(k.tolist(), l.tolist()):
            assert_same_bits(weyl_operator(a, b, d), former_weyl_operator(a, b, d))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_broadcast_indices(self, rng, d):
        for k, l in [(rng.integers(0, d, size=(3, 1)), rng.integers(0, d, size=(4,))),
                     (rng.integers(0, d, size=(2, 3)), d - 1),
                     (0, rng.integers(0, d, size=(2, 1, 3))),
                     (np.array([], dtype=int), np.array([], dtype=int)),
                     (np.arange(d, dtype=np.uint64), np.arange(d, dtype=np.uint8)[::-1])]:
            assert_same_bits(weyl_operator(k, l, d), former_weyl_operator(k, l, d))

    @pytest.mark.parametrize("k, l, d", [
        ([0, 1, 2], [1, 3, 4], 3),
        ([[0], [5]], [0, 1], 4),
        (-1, 0, 2),
        ([0, 1], [0, -1], 2),
        (np.array([0, 9], dtype=np.uint64), 0, 3),
        ([0.0, 1.0], [0, 1], 2),
        (True, 0, 2),
        ([0, 1], [0.5, 1], 2),
    ])
    def test_first_bad_pair_errors_are_unchanged(self, k, l, d):
        with pytest.raises(ValueError) as former:
            former_weyl_operator(k, l, d)
        with pytest.raises(ValueError) as new:
            weyl_operator(k, l, d)
        assert str(new.value) == str(former.value)
        assert getattr(new.value, "index", None) == getattr(former.value, "index", None)


class TestUnitaryDeviationDiagonal:
    """Subtracting 1 on the diagonal in place equals subtracting ``np.eye``."""

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (7, 3, 3), (2, 5, 8, 8), (0, 4, 4)])
    def test_random_stacks(self, rng, shape):
        m = complex_normal(rng, *shape)
        assert_same_bits(unitary_deviation(m), former_unitary_deviation(m))
        u = np.array([haar_unitary(rng, shape[-1]) for _ in range(5)])
        assert_same_bits(unitary_deviation(u), former_unitary_deviation(u))
        assert_same_bits(unitary_deviation(m.real), former_unitary_deviation(m.real))

    def test_layouts(self, rng):
        m = complex_normal(rng, 4, 4, 4)
        for view in (m.transpose(2, 1, 0), m.transpose(1, 2, 0), m.swapaxes(-1, -2), np.asfortranarray(m),
                     m[::2, ::-1], m[0].T):
            assert_same_bits(unitary_deviation(view), former_unitary_deviation(view))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
    def test_non_finite_entries(self, rng, bad):
        m = np.array([haar_unitary(rng, 3) for _ in range(4)])
        m[1, 0, 2] = bad
        m[3, 2, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = unitary_deviation(m), former_unitary_deviation(m)
        assert_same_bits(got, want)
        assert np.isfinite(got).tolist() == [True, False, True, False]


class TestRequireShortcut:
    """``require`` passes whatever has every entry true and names the first
    false entry, in flattened order, of whatever does not."""

    def never(self, k):
        raise AssertionError(f"error built for passing input at {k}")

    @pytest.mark.parametrize("ok", [True, np.True_, np.array(True), np.array([], dtype=bool),
                                    np.ones((0, 3), dtype=bool), np.ones((2, 3), dtype=bool)],
                             ids=["bool", "np.bool_", "0-d", "empty", "empty 2-d", "2-d"])
    def test_passing_inputs_do_not_raise(self, ok):
        require(ok, self.never)

    @pytest.mark.parametrize("ok", [False, np.False_, np.array(False)], ids=["bool", "np.bool_", "0-d"])
    def test_false_scalar_fails_at_0(self, ok):
        with pytest.raises(ValueError, match="^bad 0$") as exc:
            require(ok, lambda k: ValueError(f"bad {k}"))
        assert exc.value.index == 0

    def test_nan_comparison_fails_at_first_flat_index(self):
        x = np.zeros((3, 4))
        x[1, 2] = np.nan
        x[2, 0] = np.nan
        with pytest.raises(ValueError, match="^bad 6$") as exc:
            require(x <= 1.0, lambda k: ValueError(f"bad {k}"))
        assert exc.value.index == 6
        with pytest.raises(ValueError) as exc:
            require(np.float64("nan") >= 0.0, lambda k: ValueError(f"bad {k}"))
        assert exc.value.index == 0


class TestOutcomeStackLabels:
    """``labels`` holds one str per outcome; anything else is a ValueError that
    names the field."""

    @pytest.mark.parametrize("labels, message", [
        (("a", ("b", "c"), "d", "e"), r"^OutcomeStack labels entry 1 is \('b', 'c'\), expected a str$"),
        (("a", "b", "c", None), r"^OutcomeStack labels entry 3 is None, expected a str$"),
        ((1, 2, 3, 4), r"^OutcomeStack labels entry 0 is 1, expected a str$"),
    ], ids=["ragged", "None", "int"])
    def test_entry_that_is_not_a_str_is_named(self, rng, labels, message):
        stack = teleport_stack(haar_vector(rng, 2), *weyl_indices(2))
        with pytest.raises(ValueError, match=message):
            OutcomeStack(2, stack.indices, stack.probabilities, stack.post_states, stack.maps,
                         stack.fidelities, labels)

    @pytest.mark.parametrize("labels", ["abcd", None, ("a", "b", "c")], ids=["str", "None", "short"])
    def test_labels_that_are_not_one_per_outcome_are_named(self, rng, labels):
        stack = teleport_stack(haar_vector(rng, 2), *weyl_indices(2))
        with pytest.raises(ValueError, match=r"^OutcomeStack labels has shape \(\d*,?\), expected \(4,\)$"):
            OutcomeStack(2, stack.indices, stack.probabilities, stack.post_states, stack.maps,
                         stack.fidelities, labels)

    def test_a_list_of_str_is_accepted(self, rng):
        stack = teleport_stack(haar_vector(rng, 2), *weyl_indices(2))
        labelled = OutcomeStack(2, stack.indices, stack.probabilities, stack.post_states, stack.maps,
                                stack.fidelities, list(stack.labels))
        assert list(labelled.labels) == list(stack.labels)
