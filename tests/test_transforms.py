import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import (
    DensityMatrix,
    DimensionMismatchError,
    NotApplicable,
    algebra_image,
    apply_filter,
    bell_state,
    concurrence,
    conjugate,
    constrained_entangle,
    extend_to_unitary,
    geometric_mean_predicts_npt,
    ghz_split_unitary,
    ghz_traced,
    ghz_vector,
    gisin,
    gisin_filter,
    gisin_unitary_family,
    herm_eigensystem,
    identity_switch,
    named_switch,
    narnhofer,
    narnhofer_unitary,
    partial_trace,
    ppt_check,
    product_state,
    psi_theta,
    pure_to_maxent,
    pure_to_product,
    purity,
    rho_theta,
    schmidt_decompose,
    separabilize,
    tracial,
    u1_ghz,
    u2_ghz,
    u_switch,
    u_theta,
    u_tilde_theta,
    vn_entropy,
    werner,
    weyl_basis_state,
    weylize,
)
from factorlab import cli, states, transforms
from factorlab.linalg import DEFAULT_TOL, ZERO_FLOOR, hermitian_deviation
from factorlab.states import I2, PAULI, StateValidationError
from factorlab.transforms import FactorizationSwitch, conjugated
from conftest import ginibre_density, haar_unitary, haar_vector, random_density

SX, SY, SZ = PAULI
THETAS = np.linspace(0.0, np.pi / 2, 13)


class TestSwitchValidation:
    def test_all_named_constructors_are_unitary(self):
        switches = [
            identity_switch(),
            u_switch(),
            u1_ghz(),
            u2_ghz(),
            narnhofer_unitary(),
        ]
        switches += [u_theta(t) for t in THETAS]
        switches += [u_tilde_theta(t) for t in THETAS]
        for s in switches:
            dev = np.max(np.abs(s.unitary @ s.unitary.conj().T - np.eye(4)))
            assert dev <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            FactorizationSwitch(np.eye(4) * 2, (2, 2), "broken")

    @pytest.mark.parametrize("split", [(2, 3), (4, 4), (0, 4), (3, 1)])
    def test_rejects_split_that_does_not_factor_the_dimension(self, split):
        message = rf"split \({split[0]}, {split[1]}\) inconsistent with matrix dimension 4"
        with pytest.raises(DimensionMismatchError, match=message):
            identity_switch(4, split)

    @pytest.mark.parametrize("split", [(4, 1), (1, 4), (2, 2)])
    def test_accepts_every_factorization_of_the_dimension(self, split):
        assert identity_switch(4, split).split == split


class TestConjugate:
    def test_identity(self, rng):
        rho = random_density(rng, (2, 2))
        np.testing.assert_allclose(
            conjugate(rho, identity_switch()).matrix, rho.matrix, atol=1e-15
        )

    def test_singlet_becomes_up_down(self):
        moved = conjugate(bell_state("psi-"), u_switch())
        np.testing.assert_allclose(moved.matrix, product_state(0, 1).matrix, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_spectrum_and_purity_preserved(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        switch = FactorizationSwitch(haar_unitary(rng, 4), (2, 2), "random")
        moved = conjugate(rho, switch)
        np.testing.assert_allclose(
            herm_eigensystem(moved.matrix).values,
            herm_eigensystem(rho.matrix).values,
            atol=1e-9,
        )
        assert purity(moved) == pytest.approx(purity(rho), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            conjugate(random_density(rng, (2, 3)), u_switch())


class TestAlgebraImages:
    CASES = [
        (np.kron(SX, I2), np.kron(SX, I2)),
        (np.kron(I2, SX), np.kron(SX, SZ)),
        (np.kron(SY, I2), -np.kron(SZ, SY)),
        (np.kron(I2, SY), np.kron(I2, SY)),
        (np.kron(SZ, I2), np.kron(SY, SY)),
        (np.kron(I2, SZ), -np.kron(SX, SX)),
        (np.kron(SX, SX), np.kron(I2, SZ)),
        (np.kron(SY, SY), -np.kron(SZ, I2)),
        (np.kron(SZ, SZ), np.kron(SZ, SZ)),
    ]

    @pytest.mark.parametrize("op,expected", CASES)
    def test_u_switch_observable_map(self, op, expected):
        np.testing.assert_allclose(algebra_image(u_switch(), op), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            algebra_image(u_switch(), np.eye(3))


class TestThetaSwitches:
    @pytest.mark.parametrize("theta", THETAS)
    def test_u_theta_maps_to_psi_plus(self, theta):
        moved = conjugate(rho_theta(theta), u_theta(theta))
        np.testing.assert_allclose(moved.matrix, bell_state("psi+").matrix, atol=1e-10)

    @pytest.mark.parametrize("theta", THETAS)
    def test_u_tilde_theta_maps_to_down_up(self, theta):
        moved = conjugate(rho_theta(theta), u_tilde_theta(theta))
        np.testing.assert_allclose(moved.matrix, product_state(1, 0).matrix, atol=1e-10)

    @pytest.mark.parametrize("theta", THETAS)
    def test_composition_identity(self, theta):
        composed = u_switch().unitary @ u_theta(theta).unitary
        np.testing.assert_allclose(composed, u_tilde_theta(theta).unitary, atol=1e-12)

    def test_switched_rho_theta_matrix(self):
        theta = 0.4
        moved = conjugate(rho_theta(theta), u_switch())
        s2, c2 = np.sin(2 * theta), np.cos(2 * theta)
        expected = 0.5 * np.array(
            [
                [0, 0, 0, 0],
                [0, 1 + s2, -c2, 0],
                [0, -c2, 1 - s2, 0],
                [0, 0, 0, 0],
            ]
        )
        np.testing.assert_allclose(moved.matrix, expected, atol=1e-12)

    def test_u_switch_pauli_expansion(self):
        expected = (np.kron(I2, I2) + 1j * np.kron(SX, SY)) / np.sqrt(2.0)
        np.testing.assert_allclose(u_switch().unitary, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 4, 1.2])
    def test_u_theta_pauli_expansion(self, theta):
        fm = np.cos(theta) - np.sin(theta)
        fp = np.cos(theta) + np.sin(theta)
        expected = (fm * np.kron(I2, I2) - 1j * fp * np.kron(SX, SY)) / np.sqrt(2.0)
        np.testing.assert_allclose(u_theta(theta).unitary, expected, atol=1e-12)

    def test_rho_theta_bloch_form(self):
        from factorlab import to_bloch

        theta = 0.4
        b = to_bloch(rho_theta(theta))
        c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
        np.testing.assert_allclose(b.r, [0, 0, -c2], atol=1e-12)
        np.testing.assert_allclose(b.u, [0, 0, c2], atol=1e-12)
        np.testing.assert_allclose(b.t, np.diag([-s2, -s2, -1.0]), atol=1e-12)


def literal_u_switch():
    return np.array(
        [[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]], dtype=complex
    ) / np.sqrt(2.0)


def literal_u_theta(theta):
    fm = np.cos(theta) - np.sin(theta)
    fp = np.cos(theta) + np.sin(theta)
    return np.array(
        [[fm, 0, 0, -fp], [0, fm, fp, 0], [0, -fp, fm, 0], [fp, 0, 0, fm]], dtype=complex
    ) / np.sqrt(2.0)


def literal_u_tilde_theta(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0, 0, -s], [0, c, s, 0], [0, -s, c, 0], [s, 0, 0, c]], dtype=complex)


def assert_same_bits(got, want):
    """Equal as floats and in every sign bit, zeros included."""
    got, want = got.view(float), want.view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestXyRotationBits:
    """The three switches, built as one rotation c 1(x)1 - s i s_x(x)s_y, equal
    their former 4x4 literals bit for bit (the oracles above)."""

    EDGES = [0.0, -0.0, np.pi / 4, np.pi / 2, 2.5, np.pi]

    def test_u_switch(self):
        assert_same_bits(u_switch().unitary, literal_u_switch())

    def test_theta_switches_at_edges_and_random_angles(self):
        angles = [*self.EDGES, *np.random.default_rng(7).uniform(-7.0, 7.0, size=1000)]
        for theta in angles:
            assert_same_bits(u_theta(theta).unitary, literal_u_theta(theta))
            assert_same_bits(u_tilde_theta(theta).unitary, literal_u_tilde_theta(theta))


class TestGhzSwitches:
    @pytest.mark.parametrize("theta", THETAS)
    def test_u1_matrix_form(self, theta):
        moved = conjugate(ghz_traced(theta), u1_ghz())
        s2, c2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        expected = 0.5 * np.array(
            [
                [2 * s2, 0, 0, 0],
                [0, c2, c2, 0],
                [0, c2, c2, 0],
                [0, 0, 0, 0],
            ]
        )
        np.testing.assert_allclose(moved.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_u2_matrix_form(self, theta):
        moved = conjugate(ghz_traced(theta), u2_ghz())
        s2, c2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        expected = 0.5 * np.array(
            [
                [2 * c2, 0, 0, 0],
                [0, s2, s2, 0],
                [0, s2, s2, 0],
                [0, 0, 0, 0],
            ]
        )
        np.testing.assert_allclose(moved.matrix, expected, atol=1e-12)

    def test_u1_concurrence_curve(self):
        for theta in np.linspace(0.0, np.pi / 4, 10):
            c = concurrence(conjugate(ghz_traced(theta), u1_ghz()))
            assert c == pytest.approx(np.cos(theta) ** 2, abs=1e-9)

    def test_u1_bloch_form(self):
        from factorlab import to_bloch

        theta = 0.4
        b = to_bloch(conjugate(ghz_traced(theta), u1_ghz()))
        s2, c2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        np.testing.assert_allclose(b.r, [0, 0, s2], atol=1e-12)
        np.testing.assert_allclose(b.u, [0, 0, s2], atol=1e-12)
        np.testing.assert_allclose(
            b.t, np.diag([c2, c2, -np.cos(2 * theta)]), atol=1e-12
        )

    def test_u2_concurrence_curve(self):
        for theta in np.linspace(np.pi / 4, np.pi / 2, 10):
            c = concurrence(conjugate(ghz_traced(theta), u2_ghz()))
            assert c == pytest.approx(np.sin(theta) ** 2, abs=1e-9)

    def test_balanced_angle_values(self):
        theta = np.pi / 4
        assert concurrence(conjugate(ghz_traced(theta), u1_ghz())) == pytest.approx(
            0.5, abs=1e-10
        )
        # the plain two-qubit switch fails to entangle at the balanced angle
        assert concurrence(conjugate(ghz_traced(theta), u_switch())) == pytest.approx(
            0.0, abs=1e-10
        )
        # the plain switch curve is |cos 2 theta|
        for t in np.linspace(0.0, np.pi / 2, 9):
            c = concurrence(conjugate(ghz_traced(t), u_switch()))
            assert c == pytest.approx(abs(np.cos(2 * t)), abs=1e-9)


class TestNarnhofer:
    def test_transformed_matrix(self):
        moved = conjugate(narnhofer(), narnhofer_unitary())
        expected = 0.25 * np.array(
            [[2, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]
        )
        np.testing.assert_allclose(moved.matrix, expected, atol=1e-12)

    def test_transformed_bloch_form(self):
        from factorlab import to_bloch

        b = to_bloch(conjugate(narnhofer(), narnhofer_unitary()))
        np.testing.assert_allclose(b.r, [0, 0, 0.5], atol=1e-12)
        np.testing.assert_allclose(b.u, [0, 0, 0.5], atol=1e-12)
        np.testing.assert_allclose(b.t, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_unitary_pauli_expansion(self):
        # (1/4)((2+sqrt2) 1(x)1 + i sqrt2 (sx(x)sy + sy(x)sx) - (2-sqrt2) sz(x)sz)
        u = narnhofer_unitary().unitary
        r2 = np.sqrt(2.0)
        expected = (
            (2 + r2) * np.kron(I2, I2)
            + 1j * r2 * (np.kron(SX, SY) + np.kron(SY, SX))
            - (2 - r2) * np.kron(SZ, SZ)
        ) / 4.0
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_entangles_to_half(self):
        moved = conjugate(narnhofer(), narnhofer_unitary())
        assert concurrence(moved) == pytest.approx(0.5, abs=1e-10)
        assert ppt_check(moved).classification == "NPT"


class TestPureStateSwitches:
    def test_singlet_to_product(self):
        switch = pure_to_product(np.asarray(psi_theta(np.pi / 4)), (2, 2))
        moved = conjugate(bell_state("psi-"), switch)
        assert concurrence(moved) == pytest.approx(0.0, abs=1e-9)

    def test_product_input_stays_product(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0
        switch = pure_to_product(v, (2, 2))
        out = switch.unitary @ v
        sd = schmidt_decompose(out, (2, 2))
        assert sd.coefficients[1] == pytest.approx(0.0, abs=1e-9)

    def test_partially_entangled_to_product(self):
        v = psi_theta(0.6)
        switch = pure_to_product(v, (2, 2))
        rho = DensityMatrix(np.outer(v, v.conj()), (2, 2))
        assert concurrence(conjugate(rho, switch)) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("split", [(2, 2), (3, 3), (2, 3)])
    def test_random_vectors_become_product(self, rng, split):
        d1, d2 = split
        for _ in range(25):
            v = haar_vector(rng, d1 * d2)
            out = pure_to_product(v, split).unitary @ v
            coeffs = schmidt_decompose(out, split).coefficients
            assert coeffs[0] == pytest.approx(1.0, abs=1e-9)

    def test_product_to_maxent(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0  # |0>|1>
        out = pure_to_maxent(v, (2, 2)).unitary @ v
        red = partial_trace(np.outer(out, out.conj()), (2, 2), keep="first")
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-9)

    def test_psi_theta_to_maximal_concurrence(self):
        v = psi_theta(0.3)
        switch = pure_to_maxent(v, (2, 2))
        moved = conjugate(DensityMatrix(np.outer(v, v.conj()), (2, 2)), switch)
        assert concurrence(moved) == pytest.approx(1.0, abs=1e-9)

    def test_singlet_stays_maximal(self):
        v = psi_theta(np.pi / 4)
        moved = conjugate(bell_state("psi-"), pure_to_maxent(v, (2, 2)))
        assert concurrence(moved) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_vectors_become_maxent(self, rng, d):
        for _ in range(25):
            v = haar_vector(rng, d * d)
            out = pure_to_maxent(v, (d, d)).unitary @ v
            coeffs = schmidt_decompose(out, (d, d)).coefficients
            np.testing.assert_allclose(coeffs, np.full(d, 1 / np.sqrt(d)), atol=1e-8)

    def test_maxent_requires_square_split(self, rng):
        with pytest.raises(DimensionMismatchError):
            pure_to_maxent(haar_vector(rng, 6), (2, 3))


class TestWernerSwitched:
    def test_switched_matrix_is_diagonal(self):
        alpha = 0.37
        moved = conjugate(werner(alpha), u_switch())
        expected = np.diag(
            [(1 - alpha) / 4, (1 + 3 * alpha) / 4, (1 - alpha) / 4, (1 - alpha) / 4]
        )
        np.testing.assert_allclose(moved.matrix, expected, atol=1e-12)

    def test_switched_bloch_form(self):
        # matrix above fixes the Bloch form: r = (0,0,a), u = (0,0,-a),
        # t = diag(0,0,-a); at a = 1 this is exactly the |01><01| form
        from factorlab import to_bloch

        alpha = 0.37
        b = to_bloch(conjugate(werner(alpha), u_switch()))
        np.testing.assert_allclose(b.r, [0, 0, alpha], atol=1e-12)
        np.testing.assert_allclose(b.u, [0, 0, -alpha], atol=1e-12)
        np.testing.assert_allclose(b.t, np.diag([0, 0, -alpha]), atol=1e-12)


class TestSpectralSwitches:
    def test_separabilize_werner(self):
        for alpha in (0.5, 0.9, 1.0):
            moved = conjugate(werner(alpha), separabilize(werner(alpha)))
            off_diag = moved.matrix - np.diag(np.diag(moved.matrix))
            assert np.max(np.abs(off_diag)) <= 1e-12
            assert ppt_check(moved).classification == "PPT"

    def test_separabilize_singlet_gives_product_projector(self):
        moved = conjugate(bell_state("psi-"), separabilize(bell_state("psi-")))
        np.testing.assert_allclose(moved.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_separabilize_random_qutrit_pairs(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (3, 3))
        moved = conjugate(rho, separabilize(rho))
        off_diag = moved.matrix - np.diag(np.diag(moved.matrix))
        assert np.max(np.abs(off_diag)) <= 1e-10
        assert ppt_check(moved).classification == "PPT"

    def test_weylize_werner_spectrum(self, rng):
        # spectrum {(1+3a)/4, (1-a)/4 x3} with the heavy weight on chi_00
        for alpha, should_be_npt in ((0.2, False), (0.5, True)):
            u = haar_unitary(rng, 4)
            scrambled = DensityMatrix(u @ werner(alpha).matrix @ u.conj().T, (2, 2))
            moved = conjugate(scrambled, weylize(scrambled))
            assert (ppt_check(moved).classification == "NPT") == should_be_npt
            # diagonal in the maximally entangled basis
            for a in range(4):
                chi = weyl_basis_state(a // 2, a % 2, 2)
                weight = np.vdot(chi, moved.matrix @ chi).real
                expected = (1 + 3 * alpha) / 4 if a == 0 else (1 - alpha) / 4
                assert weight == pytest.approx(expected, abs=1e-9)

    def test_weylize_tracial_fixed_point(self):
        moved = conjugate(tracial(4), weylize(tracial(4)))
        np.testing.assert_allclose(moved.matrix, np.eye(4) / 4, atol=1e-12)
        assert ppt_check(moved).classification == "PPT"

    def test_weylize_qutrit_pair_diagonal_in_entangled_basis(self, rng):
        rho = random_density(rng, (3, 3))
        moved = conjugate(rho, weylize(rho))
        spectrum = herm_eigensystem(rho.matrix).values
        basis = np.column_stack(
            [weyl_basis_state(a // 3, a % 3, 3) for a in range(9)]
        )
        in_weyl_frame = basis.conj().T @ moved.matrix @ basis
        np.testing.assert_allclose(in_weyl_frame, np.diag(spectrum), atol=1e-10)


@pytest.fixture
def solves_in(monkeypatch):
    """step -> (step(), the number of np.linalg.eigh and eigvalsh calls it made).

    Counting the numpy solvers themselves keeps a count true whatever factorlab
    function ends up calling them."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def solve(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return solve

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))

    def run(step):
        before = dict(calls)
        result = step()
        return result, {name: calls[name] - before[name] for name in calls}

    return run


def rotated(rng, spectrum) -> np.ndarray:
    """U diag(spectrum) U^dagger for a Haar-random U."""
    u = haar_unitary(rng, len(spectrum))
    return u @ np.diag(spectrum) @ u.conj().T


class TestSharedEigensystem:
    @pytest.mark.parametrize("build", [constrained_entangle, separabilize, weylize])
    @pytest.mark.parametrize("top", [0.2, 0.6])
    def test_report_then_switch_decomposes_once(self, rng, solves_in, build, top):
        # top = 0.6 lies above constrained_entangle's bound 3/9, top = 0.2 below.
        m = rotated(rng, np.array([top] + [(1.0 - top) / 8] * 8))
        # construction: one eigh, which validates and is the spectrum
        rho, counts = solves_in(lambda: DensityMatrix(m, (3, 3)))
        assert counts == {"eigh": 1, "eigvalsh": 0}
        # report: only the partial-transpose minimum solves
        _, counts = solves_in(lambda: cli.classification_report(rho))
        assert counts == {"eigh": 0, "eigvalsh": 1}
        # a spectral switch reads the stored spectrum
        switch, counts = solves_in(lambda: build(rho))
        assert counts == {"eigh": 0, "eigvalsh": 0}
        if isinstance(switch, NotApplicable):
            return
        # the switched state carries rho's spectrum through U: no solve at all
        moved, counts = solves_in(lambda: conjugate(rho, switch))
        assert counts == {"eigh": 0, "eigvalsh": 0}
        np.testing.assert_array_equal(moved.spectrum.values, rho.spectrum.values)
        np.testing.assert_array_equal(moved.spectrum.vectors, switch.unitary @ rho.spectrum.vectors)


class TestCarriedSpectrum:
    """``conjugate`` carries rho's spectrum (w, U V) where ``states._carry_bound``
    proves it, and validates the switched matrix afresh everywhere else."""

    @staticmethod
    def fallback_cases(rng):
        """name -> (rho, switch, tol): each must take exactly today's path."""
        q = haar_unitary(rng, 9)
        # a scaled unitary: max |U U^dagger - 1| = 2 eps + eps^2 just under UNITARY_TOL,
        # so the switched eigenvalues sit about 1e-10 from rho's
        near = FactorizationSwitch(q * (1.0 + 0.45e-10), (3, 3), "near")
        haar9 = FactorizationSwitch(haar_unitary(rng, 9), (3, 3), "random")
        low = np.array([0.4, 0.2, 0.15, 0.1, 0.08, 0.05, 0.02, 0.0, 0.0])
        low[-1] = -5e-10
        low[-2] = 1.0 - low[:-2].sum() - low[-1]
        return {
            "degenerate-top-tracial": (tracial(9), weylize(tracial(9)), DEFAULT_TOL),
            "degenerate-top-rotated": (
                DensityMatrix(rotated(rng, np.array([0.3, 0.3] + [0.4 / 7] * 7)), (3, 3)),
                haar9, DEFAULT_TOL),
            "qubit-pair": (random_density(rng, (2, 2)), u_switch(), DEFAULT_TOL),
            "near-unitary-tol": (random_density(rng, (3, 3), rank=2), near, DEFAULT_TOL),
            "negative-eigenvalue": (DensityMatrix(rotated(rng, low), (3, 3), tol=1e-9), haar9, 1e-10),
            "trace-off": (DensityMatrix(ginibre_density(rng, 9) * (1.0 + 5e-10), (3, 3), tol=1e-9),
                          haar9, 1e-10),
        }

    @pytest.mark.parametrize("name", ["degenerate-top-tracial", "degenerate-top-rotated",
                                      "qubit-pair", "near-unitary-tol", "negative-eigenvalue",
                                      "trace-off"])
    def test_fallback_validates_as_today(self, rng, solves_in, name):
        rho, switch, tol = self.fallback_cases(rng)[name]
        m = conjugated(rho.matrix, switch)
        try:
            expected = DensityMatrix(m, rho.split, tol=tol)
        except StateValidationError as exc:
            expected = exc
        try:
            moved, counts = solves_in(lambda: conjugate(rho, switch, tol=tol))
        except StateValidationError as exc:
            assert isinstance(expected, StateValidationError)
            assert (exc.invariant, str(exc), exc.value) == (
                expected.invariant, str(expected), expected.value)
            assert (name, exc.invariant) in {("negative-eigenvalue", "positive"), ("trace-off", "trace")}
            return
        assert counts == {"eigh": 1, "eigvalsh": 0}
        np.testing.assert_array_equal(moved.matrix, expected.matrix)
        np.testing.assert_array_equal(moved.spectrum.values, expected.spectrum.values)
        np.testing.assert_array_equal(moved.spectrum.vectors, expected.spectrum.vectors)
        if name == "near-unitary-tol":
            # carrying rho's eigenvalues here would move printed digits
            gap = np.abs(expected.spectrum.values - rho.spectrum.values).max()
            assert gap > rho.dim * ZERO_FLOOR

    @given(seed=st.integers(0, 2**32 - 1), split=st.sampled_from([(2, 3), (3, 3), (4, 4), (8, 8)]),
           rank=st.sampled_from([None, 1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_carried_spectrum_within_bound(self, seed, split, rank):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, split, rank)
        switch = FactorizationSwitch(haar_unitary(rng, rho.dim), split, "random")
        moved = conjugate(rho, switch)
        w, v = moved.spectrum.values, moved.spectrum.vectors
        # carried: rho's eigenvalues, and eigenvectors U V
        np.testing.assert_array_equal(w, rho.spectrum.values)
        np.testing.assert_array_equal(v, switch.unitary @ rho.spectrum.vectors)
        bound = states._carry_bound(moved.matrix, w, v, hermitian_deviation(moved.matrix))
        assert bound <= rho.dim * ZERO_FLOOR
        assert np.abs(np.linalg.eigvalsh(moved.matrix)[::-1] - w).max() <= bound
        assert np.abs(moved.matrix @ v - v * w).max() <= bound

    @pytest.mark.parametrize("d", [3, 4, 6, 8])
    @pytest.mark.parametrize("kind", ["ginibre", "noisy", "pure"])
    def test_report_bytes_equal_fresh_validation(self, d, kind):
        rng = np.random.default_rng(1000 * d + len(kind))
        dim = d * d
        m = ginibre_density(rng, dim, rank=1 if kind == "pure" else None)
        if kind == "noisy":
            p = rng.uniform(0.3, 0.9)
            m = (1.0 - p) * np.eye(dim) / dim + p * m
        rho = DensityMatrix(m, (d, d))
        switches = [separabilize(rho), weylize(rho), constrained_entangle(rho),
                    pure_to_maxent(rho.spectrum.vectors[:, 0], (d, d))]
        for switch in switches:
            if isinstance(switch, NotApplicable):
                continue
            moved = conjugate(rho, switch)
            np.testing.assert_array_equal(moved.spectrum.vectors, switch.unitary @ rho.spectrum.vectors)
            fresh = DensityMatrix(conjugated(rho.matrix, switch), rho.split)
            assert (cli.render_report(cli.classification_report(moved), "json")
                    == cli.render_report(cli.classification_report(fresh), "json")), switch.description


class TestConstrainedEntangle:
    def test_reference_spectrum(self, rng):
        spectrum = np.array([0.8, 0.1, 0.06, 0.04])
        u = haar_unitary(rng, 4)
        rho = DensityMatrix(u @ np.diag(spectrum) @ u.conj().T, (2, 2))
        switch = constrained_entangle(rho)
        assert not isinstance(switch, NotApplicable)
        assert ppt_check(conjugate(rho, switch)).classification == "NPT"

    def test_tracial_not_applicable(self):
        result = constrained_entangle(tracial(4))
        assert isinstance(result, NotApplicable)
        assert result.largest_eigenvalue == pytest.approx(0.25)
        assert result.required_bound == pytest.approx(0.75)
        assert str(result) == "largest eigenvalue 0.250000 does not exceed the required bound 0.750000"

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_spectra_above_bound(self, rng, d):
        dim = d * d
        for _ in range(100):
            spectrum = _spectrum_above_bound(rng, dim, 3.0 / dim)
            u = haar_unitary(rng, dim)
            rho = DensityMatrix(u @ np.diag(spectrum) @ u.conj().T, (d, d))
            switch = constrained_entangle(rho)
            assert not isinstance(switch, NotApplicable)
            moved = conjugate(rho, switch)
            assert geometric_mean_predicts_npt(spectrum)
            assert ppt_check(moved).classification == "NPT"

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_eigenvectors_land_on_documented_targets(self, rng, d):
        # Oracle: the target columns written out one at a time, in the order
        # the docstring gives; the switch must equal targets . V^dagger exactly.
        dim = d * d
        spectrum = _spectrum_above_bound(rng, dim, 3.0 / dim)
        u = haar_unitary(rng, dim)
        rho = DensityMatrix(u @ np.diag(spectrum) @ u.conj().T, (d, d))
        i00, i01, i10, i11 = 0, 1, d, d + 1
        reference = np.zeros((dim, dim), dtype=complex)
        reference[[i00, i11], 0] = 1.0 / np.sqrt(2.0)
        spare = [k for k in range(dim) if k not in (i00, i01, i10, i11)]
        for pos, idx in enumerate(spare, start=1):
            reference[idx, pos] = 1.0
        reference[i01, dim - 3] = 1.0
        reference[i00, dim - 2], reference[i11, dim - 2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        reference[i10, dim - 1] = 1.0
        switch = constrained_entangle(rho)
        assert not isinstance(switch, NotApplicable)
        np.testing.assert_array_equal(
            switch.unitary, reference @ rho.spectrum.vectors.conj().T)

    @pytest.mark.parametrize("length", [0, 1, 2, 3])
    def test_geometric_predictor_needs_four_eigenvalues(self, length):
        with pytest.raises(ValueError, match=f"expected at least four eigenvalues, got {length}"):
            geometric_mean_predicts_npt(np.full(length, 1.0 / max(length, 1)))

    @pytest.mark.parametrize("spectrum, message", [
        ([0.7, 0.1, 0.1, np.nan], "spectrum entry 3 is nan"),
        ([np.inf, 0.1, 0.1, 0.1], "spectrum entry 0 is inf"),
    ])
    def test_geometric_predictor_rejects_a_non_finite_spectrum(self, spectrum, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            geometric_mean_predicts_npt(spectrum)

    def test_geometric_predictor_matches_block_determinant(self, rng):
        for _ in range(200):
            p = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            block_negative = p[1] * p[3] - 0.25 * (p[0] - p[2]) ** 2 < 0
            assert geometric_mean_predicts_npt(p) == block_negative


def _spectrum_above_bound(rng, dim, bound):
    while True:
        p = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
        if p[0] > bound + 1e-9:
            return p


class TestGhzSplitUnitary:
    @pytest.mark.parametrize("theta", [0.2, 0.6, np.pi / 4])
    def test_ghz_theta_entanglement_transfer(self, theta):
        omega = ghz_vector(theta)
        switch = ghz_split_unitary(omega, 2)
        moved = np.kron(switch.unitary, np.eye(2)) @ omega
        _assert_split_structure(moved, 2, theta=theta)

    def test_random_tripartite_states(self, rng):
        for d in (2, 3):
            omega = haar_vector(rng, d**3)
            switch = ghz_split_unitary(omega, d)
            moved = np.kron(switch.unitary, np.eye(d)) @ omega
            _assert_split_structure(moved, d)

    def test_product_input_fully_uncorrelated(self, rng):
        parts = [haar_vector(rng, 2) for _ in range(3)]
        omega = np.kron(np.kron(parts[0], parts[1]), parts[2])
        switch = ghz_split_unitary(omega, 2)
        moved = np.kron(switch.unitary, np.eye(2)) @ omega
        full = np.outer(moved, moved.conj())
        rho23 = partial_trace(full, (2, 4), keep="second")
        rho2 = partial_trace(rho23, (2, 2), keep="first")
        rho3 = partial_trace(rho23, (2, 2), keep="second")
        for reduced in (rho2, rho3):
            w = np.linalg.eigvalsh(reduced)
            assert w.max() == pytest.approx(1.0, abs=1e-9)  # pure marginal

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ghz_split_unitary(np.ones(8), 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_schmidt_vectors_land_on_documented_targets(self, rng, d):
        # Oracle: Schmidt vector i goes to |i>_1 (x) |0>_2 (column i), the
        # completing vectors to the remaining basis vectors in ascending order.
        omega = haar_vector(rng, d**3)
        sd = schmidt_decompose(omega, (d * d, d))
        sources = extend_to_unitary(sd.left_basis[:, : sd.coefficients.size])
        order = [i * d for i in range(d)]
        order += [k for k in range(d * d) if k not in order]
        reference = np.zeros((d * d, d * d), dtype=complex)
        for pos, idx in enumerate(order):
            reference[idx, pos] = 1.0
        np.testing.assert_array_equal(
            ghz_split_unitary(omega, d).unitary, reference @ sources.conj().T)


def _assert_split_structure(moved, d, theta=None):
    """After the switch: factor 2 uncorrelated, pair (1,3) carries S(rho_3)."""
    full = np.outer(moved, moved.conj())
    rho23 = partial_trace(full, (d, d * d), keep="second")
    rho2 = DensityMatrix(partial_trace(rho23, (d, d), keep="first"), (1, d))
    rho3 = DensityMatrix(partial_trace(rho23, (d, d), keep="second"), (1, d))
    rho23_dm = DensityMatrix(rho23, (d, d))
    # zero mutual information between factor 2 and factor 3
    assert vn_entropy(rho23_dm) == pytest.approx(
        vn_entropy(rho2) + vn_entropy(rho3), abs=1e-8
    )
    # pair (1,3) is pure and carries entanglement S(rho_3)
    t = moved.reshape(d, d, d)
    rho13 = np.einsum("abc,dbe->acde", t, t.conj()).reshape(d * d, d * d)
    pure_check = np.trace(rho13 @ rho13).real
    assert pure_check == pytest.approx(1.0, abs=1e-9)
    ent_13 = vn_entropy(DensityMatrix(partial_trace(rho13, (d, d), keep="second"), (1, d)))
    assert ent_13 == pytest.approx(vn_entropy(rho3), abs=1e-8)
    if theta is not None:
        s2, c2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        expected = 0.0 if min(s2, c2) < 1e-12 else -s2 * np.log(s2) - c2 * np.log(c2)
        assert ent_13 == pytest.approx(expected, abs=1e-8)


class TestGisinFilter:
    def test_balanced_angle_is_identity(self, rng):
        f = gisin_filter(np.pi / 4)
        np.testing.assert_allclose(f.combined, np.eye(4), atol=1e-12)
        rho = random_density(rng, (2, 2))
        np.testing.assert_allclose(apply_filter(rho, f).matrix, rho.matrix, atol=1e-12)

    def test_pure_input_projects_to_singlet(self):
        for theta in (0.2, 0.35):
            out = apply_filter(gisin(1.0, theta), gisin_filter(theta))
            np.testing.assert_allclose(out.matrix, bell_state("psi-").matrix, atol=1e-10)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.8])
    @pytest.mark.parametrize("theta", [0.2, 0.35, np.pi / 4])
    def test_closed_form_regression(self, lam, theta):
        out = apply_filter(gisin(lam, theta), gisin_filter(theta))
        s = np.sin(2 * theta)
        norm = lam * s + (1 - lam)
        expected = (
            lam * s * bell_state("psi-").matrix
            + (1 - lam) / 2 * (product_state(0, 0).matrix + product_state(1, 1).matrix)
        ) / norm
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_filter_changes_purity_off_balance(self):
        lam, theta = 0.8, 0.35
        rho = gisin(lam, theta)
        filtered = apply_filter(rho, gisin_filter(theta))
        assert abs(purity(filtered) - purity(rho)) > 1e-3

    @pytest.mark.parametrize("split", [(4, 1), (1, 4)])
    def test_rejects_other_factorizations_of_four(self, split):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), split)
        with pytest.raises(DimensionMismatchError) as exc:
            apply_filter(rho, gisin_filter(0.3))
        assert str(exc.value) == f"local filter requires split (2, 2), got {split}"

    def test_angle_range(self):
        with pytest.raises(ValueError):
            gisin_filter(1.2)
        with pytest.raises(ValueError):
            gisin_filter(0.0)


class TestGisinUnitaryFamily:
    def test_matches_conjugation(self):
        for lam in (0.0, 0.4, 0.8):
            for theta in (0.2, 0.35, 0.7):
                direct = gisin_unitary_family(lam, theta)
                moved = conjugate(gisin(lam, theta), u_theta(theta))
                np.testing.assert_allclose(direct.matrix, moved.matrix, atol=1e-10)

    def test_concurrence_is_theta_independent(self):
        for lam in (0.3, 0.6, 0.9):
            values = [
                concurrence(gisin_unitary_family(lam, theta)) for theta in (0.2, 0.5, 1.1)
            ]
            assert np.ptp(values) <= 1e-10
            assert values[0] == pytest.approx(max(0.0, 2 * lam - 1), abs=1e-10)

    def test_purity_preserved(self):
        lam, theta = 0.8, 0.35
        assert purity(gisin_unitary_family(lam, theta)) == pytest.approx(
            purity(gisin(lam, theta)), abs=1e-12
        )

    def test_separable_limit(self):
        assert concurrence(gisin_unitary_family(0.0, 0.5)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("lam, shown", [(1.5, "1.5"), (-0.1, "-0.1"), (float("nan"), "nan")])
    def test_lambda_out_of_range(self, lam, shown):
        # gisin_matrices checks lambda before the switched matrix is built from it
        with pytest.raises(ValueError, match=rf"^lambda must lie in \[0, 1\], got {shown}$"):
            gisin_unitary_family(lam, 0.35)

    def test_nan_theta_fails_the_switch_check(self):
        with pytest.raises(ValueError, match=r"^switch 'u-theta': matrix entry \(0, 0\) is \(nan\+0j\)$"):
            gisin_unitary_family(0.5, float("nan"))

    @staticmethod
    def _tilt_u_theta(monkeypatch):
        """Make transforms.u_theta rotate by 1e-6 more than it should."""
        exact = u_theta
        monkeypatch.setattr(transforms, "u_theta", lambda theta: exact(theta + 1e-6))

    def test_residual_check_fires(self, monkeypatch):
        self._tilt_u_theta(monkeypatch)
        with pytest.raises(AssertionError, match="^closed form deviates from conjugation by "):
            gisin_unitary_family(0.8, 0.35)

    def test_sweep_checks_its_own_gisin_stack(self, monkeypatch):
        # at lambda = 0 the Gisin state commutes with the rotation, so the
        # first failing grid value is the second, 0.1
        self._tilt_u_theta(monkeypatch)
        spec = cli.SweepSpec("gisin_compare", 0.0, 1.0, 11, theta=0.35)
        with pytest.raises(AssertionError, match=r"^closed form deviates from conjugation by "
                           r"\S+ at lambda = 0\.1$") as exc:
            cli.run_sweep(spec)
        assert exc.value.index == 1


class TestRegistry:
    def test_named_lookup(self):
        assert named_switch("u-switch").description == "u-switch"
        assert named_switch("u-theta", theta=0.3).description == "u-theta"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="valid names"):
            named_switch("does-not-exist")

    def test_theta_required(self):
        with pytest.raises(ValueError, match="theta"):
            named_switch("u-theta")

    @pytest.mark.parametrize("theta", [float("inf"), float("-inf"), float("nan")])
    def test_theta_must_be_finite(self, theta):
        with pytest.raises(ValueError, match="requires a finite theta"):
            named_switch("u-theta", theta=theta)
