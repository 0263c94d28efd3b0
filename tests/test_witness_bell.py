import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import (
    BlochForm,
    ChshSetting,
    DensityMatrix,
    Witness,
    bell_state,
    chsh_maximize,
    chsh_operator,
    chsh_value,
    concurrence,
    conjugate,
    ewi_eval,
    from_bloch,
    gisin,
    gisin_thresholds,
    horodecki_bmax,
    optimal_witness,
    to_bloch,
    tracial,
    u_switch,
    verstraete_wolf_bounds,
    werner,
    weyl_basis_state,
    witness_projector,
)
from conftest import haar_unitary, haar_vector, random_density

SQRT3 = np.sqrt(3.0)


def product_density(r, u):
    """Pure product state with local Bloch vectors r and u."""
    return from_bloch(BlochForm(np.asarray(r), np.asarray(u), np.outer(r, u)))


def random_maxent_projector(rng, d):
    chi = np.kron(np.eye(d), haar_unitary(rng, d)) @ weyl_basis_state(0, 0, d)
    return np.outer(chi, chi.conj())


class TestWitnessProjector:
    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_against_own_projector(self, d):
        chi = weyl_basis_state(0, 0, d)
        p = np.outer(chi, chi.conj())
        w = witness_projector(p, d)
        assert np.trace(p @ w.operator).real == pytest.approx(1 - d, abs=1e-12)

    def test_product_state_expectation_formula(self, rng):
        # <phi (x) psi | 1 - d P | phi (x) psi> = 1 - |<phi*|psi>|^2, so the
        # minimum over product states is 0, attained at psi = phi*.
        d = 2
        chi = weyl_basis_state(0, 0, d)
        w = witness_projector(np.outer(chi, chi.conj()), d)
        values = []
        for _ in range(100):
            phi, psi = haar_vector(rng, d), haar_vector(rng, d)
            vec = np.kron(phi, psi)
            val = np.vdot(vec, w.operator @ vec).real
            expected = 1 - abs(np.vdot(phi.conj(), psi)) ** 2
            assert val == pytest.approx(expected, abs=1e-10)
            values.append(val)
        phi = haar_vector(rng, d)
        optimum = np.kron(phi, phi.conj())
        assert np.vdot(optimum, w.operator @ optimum).real == pytest.approx(0.0, abs=1e-10)
        assert min(values) >= -1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_split_state_expectation(self, d):
        chi = weyl_basis_state(0, 0, d)
        p = np.outer(chi, chi.conj())
        w = witness_projector(p, d)
        for beta in (0.1, 1 / d, 0.9):
            sigma = (np.eye(d * d) - p) / (d * d - 1)
            rho = DensityMatrix(beta * p + (1 - beta) * sigma, (d, d))
            assert ewi_eval(rho, w) == pytest.approx(1 - beta * d, abs=1e-10)

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            witness_projector(np.eye(4) / 2, 2)

    @pytest.mark.parametrize("v", [
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.array([np.cos(0.3), 0.0, 0.0, np.sin(0.3)]),
    ], ids=["product", "partially-entangled"])
    def test_rejects_projector_onto_non_maxent_vector(self, v):
        # 1 - 2 |00><00| has expectation -1 on the product |00>: not a witness
        with pytest.raises(ValueError, match="maximally entangled vector"):
            witness_projector(np.outer(v, v.conj()), 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_nonnegative_on_random_product_states(self, rng, d):
        for _ in range(30):
            w = witness_projector(random_maxent_projector(rng, d), d)
            rho = DensityMatrix(
                np.kron(
                    np.outer(a := haar_vector(rng, d), a.conj()),
                    np.outer(b := haar_vector(rng, d), b.conj()),
                ),
                (d, d),
            )
            assert ewi_eval(rho, w) >= -1e-9


class TestWitness:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_non_finite_entry_is_named_before_hermiticity(self, bad):
        op = np.eye(4, dtype=complex)
        op[2, 3] = bad
        with pytest.raises(ValueError, match=rf"^witness operator entry \(2, 3\) is \({bad}\+0j\)$"):
            Witness(op, (2, 2))

class TestOptimalWitness:
    def test_matrix_form_for_singlet(self):
        w = optimal_witness(werner(1 / 3), bell_state("psi-"))
        sigma_terms = sum(
            np.kron(p, p)
            for p in (
                np.array([[0, 1], [1, 0]], dtype=complex),
                np.array([[0, -1j], [1j, 0]]),
                np.diag([1.0, -1.0]).astype(complex),
            )
        )
        expected = (np.eye(4) + sigma_terms) / (2 * SQRT3)
        np.testing.assert_allclose(w.operator, expected, atol=1e-12)

    def test_tangent_plane_conditions(self):
        rho0, ent = werner(1 / 3), bell_state("psi-")
        w = optimal_witness(rho0, ent)
        assert ewi_eval(ent, w) == pytest.approx(-1 / SQRT3, abs=1e-12)
        assert ewi_eval(rho0, w) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_equal_states(self):
        with pytest.raises(ValueError):
            optimal_witness(werner(0.5), werner(0.5))


class TestEwiEval:
    def test_product_state_angle_formula(self):
        w = optimal_witness(werner(1 / 3), bell_state("psi-"))
        for delta in np.linspace(0.0, np.pi, 9):
            r = np.array([0.0, 0.0, 1.0])
            u = np.array([np.sin(delta), 0.0, np.cos(delta)])
            val = ewi_eval(product_density(r, u), w)
            assert val == pytest.approx((1 + np.cos(delta)) / (2 * SQRT3), abs=1e-12)
            assert val >= -1e-12

    def test_werner_alpha_grid(self):
        w = optimal_witness(werner(1 / 3), bell_state("psi-"))
        switch = u_switch()
        transformed_w = Witness(
            switch.unitary @ w.operator @ switch.unitary.conj().T, (2, 2)
        )
        for alpha in np.linspace(0.0, 1.0, 11):
            moved = conjugate(werner(alpha), switch)
            assert ewi_eval(moved, w) == pytest.approx(
                (1 - alpha) / (2 * SQRT3), abs=1e-12
            )
            assert ewi_eval(moved, transformed_w) == pytest.approx(
                (1 - 3 * alpha) / (2 * SQRT3), abs=1e-12
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_joint_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        w = optimal_witness(werner(1 / 3), bell_state("psi-"))
        u = haar_unitary(rng, 4)
        moved_state = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
        moved_witness = Witness(u @ w.operator @ u.conj().T, (2, 2))
        assert ewi_eval(moved_state, moved_witness) == pytest.approx(
            ewi_eval(rho, w), abs=1e-10
        )


class TestHorodecki:
    def test_werner_line(self):
        for alpha in np.linspace(0.0, 1.0, 11):
            assert horodecki_bmax(werner(alpha)) == pytest.approx(
                np.sqrt(2) * alpha, abs=1e-10
            )

    def test_singlet(self):
        assert horodecki_bmax(bell_state("psi-")) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_gisin_closed_form(self):
        for lam in (0.3, 0.8, 0.95):
            for theta in (0.35, 0.7):
                t_big = max(
                    (2 * lam - 1) ** 2 + lam**2 * np.sin(2 * theta) ** 2,
                    2 * lam**2 * np.sin(2 * theta) ** 2,
                )
                assert horodecki_bmax(gisin(lam, theta)) == pytest.approx(
                    np.sqrt(t_big), abs=1e-10
                )


class TestChsh:
    def test_singlet_canonical_settings(self):
        x, y = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        setting = ChshSetting(
            a=x, a_prime=y, b=-(x + y) / np.sqrt(2), b_prime=(-x + y) / np.sqrt(2)
        )
        assert chsh_value(bell_state("psi-"), setting) == pytest.approx(
            np.sqrt(2), abs=1e-12
        )

    def test_tracial_vanishes(self, rng):
        for _ in range(10):
            setting = ChshSetting(
                a=haar_vector_real(rng),
                a_prime=haar_vector_real(rng),
                b=haar_vector_real(rng),
                b_prime=haar_vector_real(rng),
            )
            assert chsh_value(tracial(4), setting) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            ChshSetting(
                a=np.array([2.0, 0, 0]),
                a_prime=np.array([0, 1.0, 0]),
                b=np.array([0, 0, 1.0]),
                b_prime=np.array([1.0, 0, 0]),
            )

    def test_value_never_exceeds_bmax(self, rng):
        for _ in range(25):
            rho = random_density(rng, (2, 2))
            bound = horodecki_bmax(rho)
            setting = ChshSetting(
                a=haar_vector_real(rng),
                a_prime=haar_vector_real(rng),
                b=haar_vector_real(rng),
                b_prime=haar_vector_real(rng),
            )
            assert chsh_value(rho, setting) <= bound + 1e-6

    def test_maximize_matches_bmax(self, rng):
        targets = [gisin(0.95, 0.35), werner(0.9), bell_state("phi-")]
        targets += [random_density(rng, (2, 2)) for _ in range(10)]
        for rho in targets:
            value, setting = chsh_maximize(rho)
            assert value >= chsh_ascent(rho, seed=3) - 1e-12
            assert value == pytest.approx(horodecki_bmax(rho), abs=1e-6)
            assert chsh_value(rho, setting) == pytest.approx(value, abs=1e-12)

    def test_operator_is_hermitian(self, rng):
        setting = ChshSetting(
            a=haar_vector_real(rng),
            a_prime=haar_vector_real(rng),
            b=haar_vector_real(rng),
            b_prime=haar_vector_real(rng),
        )
        op = chsh_operator(setting)
        np.testing.assert_allclose(op, op.conj().T, atol=1e-14)


def haar_vector_real(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _unit(v, fallback):
    n = np.linalg.norm(v)
    return v / n if n > 1e-14 else fallback


def chsh_ascent(rho, seed, restarts=12, iters=60):
    """Independent oracle for the CHSH maximum: the best value found by a
    seeded random-restart alternating ascent over the four directions."""
    t = to_bloch(rho).t
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(restarts):
        b = _unit(rng.normal(size=3), np.array([0.0, 0.0, 1.0]))
        b_prime = _unit(rng.normal(size=3), np.array([1.0, 0.0, 0.0]))
        for _ in range(iters):
            a = _unit(t @ (b + b_prime), np.array([1.0, 0.0, 0.0]))
            a_prime = _unit(t @ (b - b_prime), np.array([0.0, 1.0, 0.0]))
            b_new = _unit(t.T @ (a + a_prime), b)
            b_prime_new = _unit(t.T @ (a - a_prime), b_prime)
            done = np.max(np.abs(b_new - b)) + np.max(np.abs(b_prime_new - b_prime)) < 1e-13
            b, b_prime = b_new, b_prime_new
            if done:
                break
        setting = ChshSetting(a=a, a_prime=a_prime, b=b, b_prime=b_prime)
        best = max(best, chsh_value(rho, setting))
    return best


class TestVerstraeteWolf:
    def test_endpoints(self):
        assert verstraete_wolf_bounds(0.0) == pytest.approx((1.0, 1.0))
        lo, hi = verstraete_wolf_bounds(1.0)
        assert lo == pytest.approx(np.sqrt(2), abs=1e-14)
        assert hi == pytest.approx(np.sqrt(2), abs=1e-14)

    def test_intermediate_value(self):
        lo, hi = verstraete_wolf_bounds(0.75)
        assert lo == pytest.approx(1.060660171780, abs=1e-10)
        assert hi == pytest.approx(1.25, abs=1e-14)

    def test_range_check(self):
        with pytest.raises(ValueError):
            verstraete_wolf_bounds(1.5)

    def test_pure_states_saturate_upper_bound(self, rng):
        for _ in range(100):
            v = haar_vector(rng, 4)
            rho = DensityMatrix(np.outer(v, v.conj()), (2, 2))
            c = concurrence(rho)
            b = horodecki_bmax(rho)
            lo, hi = verstraete_wolf_bounds(c)
            assert b == pytest.approx(hi, abs=1e-7)
            assert lo - 1e-6 <= b <= hi + 1e-6

    def test_mixed_states_satisfy_pointwise_sandwich(self, rng):
        # For mixed states only the sqrt(2) C branch of the lower bound is a
        # pointwise statement (the flat classical line is not: separable
        # states can have arbitrarily small correlation strength).
        for _ in range(100):
            rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
            c = concurrence(rho)
            b = horodecki_bmax(rho)
            _, hi = verstraete_wolf_bounds(c)
            assert np.sqrt(2) * c - 1e-6 <= b <= hi + 1e-6

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_upper_bound_property(self, seed):
        # Verstraete-Wolf, PRL 89, 170401 (2002): bmax <= sqrt(1 + C^2) on
        # every two-qubit state, with equality on pure states.
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        assert horodecki_bmax(rho) <= np.sqrt(1.0 + concurrence(rho) ** 2) + 1e-12


class TestGisinThresholds:
    def brute_force_unfiltered(self, theta):
        s = np.sin(2 * theta)
        grid = np.linspace(0.0, 1.0, 2_000_001)
        t_vals = np.maximum(
            (2 * grid - 1) ** 2 + grid**2 * s**2, 2 * grid**2 * s**2
        )
        hits = grid[t_vals > 1.0 + 1e-15]
        return hits[0] if hits.size else 1.0

    def test_reference_angle(self):
        thr = gisin_thresholds(0.35)
        assert thr.unfiltered == pytest.approx(0.9059988937, abs=1e-9)
        assert thr.filtered == pytest.approx(0.7893633583, abs=1e-9)
        assert thr.unfiltered_attainable

    @pytest.mark.parametrize("theta", [0.2, 0.35, 0.6, np.pi / 4])
    def test_against_brute_force_scan(self, theta):
        thr = gisin_thresholds(theta)
        assert thr.unfiltered == pytest.approx(self.brute_force_unfiltered(theta), abs=1e-5)

    def test_balanced_angle_filtered_value(self):
        assert gisin_thresholds(np.pi / 4).filtered == pytest.approx(
            1 / np.sqrt(2), abs=1e-12
        )

    def test_degenerate_angle(self):
        with pytest.raises(ValueError):
            gisin_thresholds(0.0)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"requires a finite theta, got {theta}"):
                gisin_thresholds(theta)
