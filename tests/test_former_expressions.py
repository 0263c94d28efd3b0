"""The protocol helpers against the numpy expressions they replaced.

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

One replacement is not bit for bit: ``protocols._bell_step`` takes every
branch from one product by the d x d Fourier table instead of one product of
each outcome's bra, ``weyl_basis_state(k, l, d).conj()``, with the joint
vector.  Both sum the same d terms per entry, in another order and with phases
computed apart, so the branches must agree within 4 d eps max|joint|.

Nor is the concurrence: ``measures.concurrences`` takes the Wootters lambda_i
as singular values of B^T (s_y(x)s_y) B, where the former kernel took square
roots of the eigenvalues of sqrt(rho) rho~ sqrt(rho) and read those below
ZERO_FLOOR as zero.  Each lambda_i it dropped was below sqrt(ZERO_FLOOR), so
the two must agree within 4 sqrt(ZERO_FLOOR).

The per-state kernels lost scaffolding around the same arithmetic, each bit
for bit: ``concurrences`` takes l1 - l2 - l3 - l4 as one
``np.subtract.reduce`` instead of a chain of three subtractions;
``witness_bell.bmax_values`` gathers the nine correlation traces alone instead
of slicing them out of all sixteen ``bloch_coefficients`` and copying;
``linalg.psd_factor`` clips with ``np.maximum(w, 0.0)`` instead of
``w.clip(0.0)``; and ``states.werner_matrices`` reads the psi- projector and the
identity from module constants instead of building them.
Inputs hold -0.0, NaN, +-inf and subnormals wherever the kernel accepts them.
"""

import warnings

import numpy as np
import pytest

from factorlab import protocols, states
from factorlab.linalg import ZERO_FLOOR, psd_factor, psd_sqrt, require, unitary_deviation
from factorlab.measures import _YY_PERM, _YY_SIGN, concurrences
from factorlab.protocols import Isometry, OutcomeStack, _bell_step, _phase_distance, teleport_stack
from factorlab.states import (_correlation_matrices, bell_vector, bloch_coefficients, maxent_vectors,
                              projectors, weyl_basis_state, weyl_indices, weyl_operator)
from factorlab.witness_bell import bmax_values
from conftest import ginibre_density, haar_unitary, haar_vector


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


def former_bell_branches(k, l, d, joint):
    return (weyl_basis_state(k, l, d).conj()[:, None, :] @ joint)[:, 0, :]


def former_unitary_deviation(m):
    return np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1])).max(axis=(-2, -1))


def former_concurrences(m, tol):
    yy = np.kron(states.PAULI[1], states.PAULI[1])
    s = psd_sqrt(m, tol)
    core = s @ (yy @ m.conj() @ yy) @ s
    core = (core + np.swapaxes(core.conj(), -1, -2)) / 2.0
    w = np.linalg.eigh(core)[0]
    w[w < ZERO_FLOOR] = 0.0
    lam = np.sqrt(w)
    return np.clip(lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0], 0.0, 1.0)


def former_chained_difference(lam):
    return lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]


def former_psd_factor(w, v, tol):
    lo = np.ravel(w.min(axis=-1))
    require(lo >= -tol, lambda k: ValueError(
        f"psd_sqrt: negative eigenvalue {lo[k]:.3e} below -{tol:.1e}"))
    return v * np.sqrt(w.clip(0.0))[..., None, :]


def former_concurrences_chained(spectrum, tol):
    b = former_psd_factor(spectrum.values, spectrum.vectors, tol)
    tau = np.swapaxes(b, -1, -2) @ (b[..., _YY_PERM, :] * _YY_SIGN[:, None])
    lam = np.linalg.svd(tau, compute_uv=False)
    c = former_chained_difference(lam)
    c = np.where(c > 0.0, c, 0.0)
    return np.where(c < 1.0, c, 1.0)


def former_bmax_values(m):
    t = np.ascontiguousarray(bloch_coefficients(m)[..., 1:, 1:])
    w = np.linalg.eigvalsh(np.swapaxes(t, -1, -2) @ t)
    w = np.where(w < 0.0, 0.0, w)
    return np.sqrt(w[..., -1] + w[..., -2])


def former_werner_matrices(alpha):
    alpha = states.unit_interval(alpha, "alpha")[..., None, None]
    return alpha * projectors(bell_vector("psi-")) + (1.0 - alpha) / 4.0 * np.eye(4)


# -0.0, NaN, +-inf, the smallest subnormal and a larger one, and the largest float
SPECIALS = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, np.finfo(float).max])


def with_specials(rng, x, share=0.2):
    """x with a share of its entries replaced by SPECIALS."""
    x = x.copy()
    hit = rng.random(x.shape) < share
    x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return x


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
        _, _, probability, bob, _ = _bell_step(*weyl_indices(d), d, joint.reshape(d * d, d))
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
        _, _, probability, pair14, _ = _bell_step(*weyl_indices(d), d, joint)
        assert_same_bits(stack.probabilities, probability)
        assert_same_bits(stack.post_states, pair14)


class TestBellStepFourier:
    """Every branch of the one-product Bell step against the former product of
    each outcome's bra with the joint vector: within 4 d eps max|joint|, a bound
    fixed by the dtype alone.  The branch is read back as normalized state times
    sqrt(probability), which is within 2 roundings of it."""

    @pytest.mark.parametrize("width", ["d", "d^2"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_joint(self, rng, d, width):
        joint = complex_normal(rng, d * d, d if width == "d" else d * d)
        k, l = weyl_indices(d)
        indices, _, probability, normalized, w = _bell_step(k, l, d, joint)
        branch = normalized * np.sqrt(probability)[:, None]
        bound = 4 * d * np.finfo(float).eps * np.abs(joint).max()
        assert np.abs(branch - former_bell_branches(k, l, d, joint)).max() <= bound
        assert np.array_equal(indices, np.stack([k, l], axis=-1))
        assert_same_bits(w, weyl_operator(k, l, d))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_batch_of_one_is_its_row(self, rng, d):
        joint = complex_normal(rng, d * d, d * d)
        _, _, probability, normalized, _ = _bell_step(*weyl_indices(d), d, joint)
        for n, (k, l) in enumerate(zip(*weyl_indices(d))):
            _, _, p, v, _ = _bell_step([k], [l], d, joint)
            assert_same_bits(p, probability[n:n + 1])
            assert_same_bits(v, normalized[n:n + 1])


class TestFloorClippedConcurrence:
    """The concurrence against the former floor-clipped one, within 4 sqrt(ZERO_FLOOR),
    on stacks of every rank, on Bell-diagonal states with weights at 1e-12 to 1e-7
    and on rho_theta up to pi/2, where C = sin(2 theta) falls below 1e-7."""

    def test_stacks(self, rng):
        chi = weyl_basis_state(*weyl_indices(2), 2)
        weights = np.column_stack([rng.dirichlet(np.ones(3), size=200), 10.0 ** rng.uniform(-12, -7, 200)])
        stacks = [
            np.array([ginibre_density(rng, 4, rank=int(rng.integers(1, 5))) for _ in range(200)]),
            (chi.T * (weights / weights.sum(axis=1, keepdims=True))[:, None, :]) @ chi.conj(),
            states.rho_theta_matrices(np.pi / 2 - np.geomspace(1e-6, 1e-10, 200)),
        ]
        for m in stacks:
            got = concurrences(states.validate_stack(m, 1e-9), 1e-9)
            assert np.abs(got - former_concurrences(m, 1e-9)).max() <= 4 * np.sqrt(ZERO_FLOOR)


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


class TestSubtractReduce:
    """``np.subtract.reduce`` over the last axis is the chain ((l1 - l2) - l3) - l4,
    and the concurrence kernel built on it equals the former chained one, on a
    stack and on each of its matrices alone."""

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (500, 4), (3, 7, 4)])
    def test_rows(self, rng, shape):
        lam = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        for x in (lam, with_specials(rng, lam), np.abs(lam)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
                assert_same_bits(np.subtract.reduce(x, axis=-1), former_chained_difference(x))

    def test_concurrence_kernel(self, rng):
        chi = weyl_basis_state(*weyl_indices(2), 2)
        weights = rng.dirichlet(np.full(4, 0.3), size=300)
        for m in (np.array([ginibre_density(rng, 4, rank=int(rng.integers(1, 5))) for _ in range(300)]),
                  (chi.T * weights[:, None, :]) @ chi.conj(),
                  states.rho_theta_matrices(rng.uniform(0.0, np.pi, 300)),
                  states.werner_matrices(rng.uniform(0.0, 1.0, 300))):
            spectrum = states.validate_stack(m, 1e-9)
            assert_same_bits(concurrences(spectrum, 1e-9), former_concurrences_chained(spectrum, 1e-9))
            one = states.validate_stack(m[7], 1e-9)
            assert_same_bits(concurrences(one, 1e-9), former_concurrences_chained(one, 1e-9))


class TestCorrelationGather:
    """The nine-trace gather equals the correlation block of all sixteen traces,
    and ``bmax_values`` on it equals the former kernel on the sliced copy."""

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4, 4), (200, 4, 4), (3, 5, 4, 4)])
    def test_gather(self, rng, shape):
        m = complex_normal(rng, *shape)
        parts = with_specials(rng, m.view(float))
        for x in (m, parts.view(complex), m.real + 0j, -m.conj()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
                got, want = _correlation_matrices(x), np.ascontiguousarray(bloch_coefficients(x)[..., 1:, 1:])
            assert_same_bits(got, want)

    def test_bmax_kernel(self, rng):
        m = np.array([ginibre_density(rng, 4, rank=int(rng.integers(1, 5))) for _ in range(300)])
        zeros = m.view(float).copy()
        zeros[rng.random(zeros.shape) < 0.3] = -0.0
        tiny = m.view(float) * 1e-310  # subnormal entries
        for x in (m, zeros.view(complex), tiny.view(complex), states.werner_matrices(np.linspace(0, 1, 11))):
            assert_same_bits(bmax_values(x), former_bmax_values(x))
            assert_same_bits(bmax_values(x[3]), former_bmax_values(x[3]))


class TestMaximumClip:
    """``np.maximum(w, 0.0)`` is ``w.clip(0.0)``, and ``psd_factor`` on it equals
    the former factor, negatives within tol, signed zeros and subnormals included."""

    def test_values(self, rng):
        w = with_specials(rng, rng.normal(size=(100, 4)))
        assert_same_bits(np.maximum(w, 0.0), w.clip(0.0))

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (100, 4), (2, 3, 6)])
    def test_factor(self, rng, shape):
        w = np.sort(rng.normal(size=shape), axis=-1)[..., ::-1]
        w = np.where(w < 0.0, rng.choice([-0.0, -1e-12, -5e-324, 0.0, 2.5e-310], size=shape), w)
        w[..., 0] = np.where(rng.random(shape[:-1]) < 0.1, np.inf, w[..., 0])
        v = complex_normal(rng, *shape, shape[-1])
        assert_same_bits(psd_factor(w, v, 1e-9), former_psd_factor(w, v, 1e-9))


class TestWernerConstants:
    """The module's Werner terms are the projector and identity built afresh,
    and the matrices built from them are the former ones, for a weight or a stack."""

    def test_constants(self):
        assert_same_bits(states._PSI_MINUS_PROJECTOR, projectors(bell_vector("psi-")))
        assert_same_bits(states._EYE4, np.eye(4))

    def test_matrices(self, rng):
        for alpha in (0.0, -0.0, 1.0, 5e-324, 0.5, 1 / 3, rng.uniform(size=50), np.linspace(0, 1, 101),
                      rng.uniform(size=(2, 3)), np.array([-0.0, 5e-324, 2.5e-310, 1.0])):
            assert_same_bits(states.werner_matrices(alpha), former_werner_matrices(alpha))

